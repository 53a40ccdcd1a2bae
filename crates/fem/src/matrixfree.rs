//! The matrix-free context: everything an operator kernel needs.
//!
//! [`MfGeometry`] holds what depends only on the mesh, the mapping, the
//! quadrature and the scalar type: the SIMD cell/face batches, the
//! precomputed metric terms of Eq. (7), the conflict coloring for parallel
//! face loops and the cell volumes. [`MatrixFree`] puts one finite element
//! space on top — its parameters, the 1-D shape data and the SIPG penalty —
//! and dereferences to its geometry. Spaces that integrate on the same
//! points share one geometry through an `Arc` (velocity and pressure of the
//! flow solver, DG(k) and CG(k) of the multigrid hierarchy); every other
//! construction evaluates the metric terms afresh. Operators (Laplacian,
//! mass, convection, …) are free functions/structs in `operators/` whose
//! kernels walk these batches through the loop of [`crate::loops`].

use crate::batch::{batch_faces, color_face_batches, CellBatch, FaceBatch};
use crate::geometry::{invert3, CellGeometry, FaceGeometry, GridValues, Mapping, MappingGrid};
use crate::util::par_map;
use dgflow_mesh::{FaceInfo, Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::{gauss_rule, NodeSet, QuadratureRule, ShapeInfo1D};
use std::ops::Deref;
use std::sync::Arc;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MfParams {
    /// Polynomial degree of the finite element space.
    pub degree: usize,
    /// 1-D quadrature points (usually `degree + 1`).
    pub n_q: usize,
    /// Node family (`Gauss` for DG spaces, `GaussLobatto` for CG levels).
    pub node_set: NodeSet,
    /// Geometry polynomial degree.
    pub mapping_degree: usize,
}

impl MfParams {
    /// Standard DG parameters for degree `k`.
    pub fn dg(degree: usize) -> Self {
        Self {
            degree,
            n_q: degree + 1,
            node_set: NodeSet::Gauss,
            mapping_degree: degree.clamp(1, 3),
        }
    }

    /// Standard CG parameters for degree `k`.
    pub fn cg(degree: usize) -> Self {
        Self {
            node_set: NodeSet::GaussLobatto,
            ..Self::dg(degree)
        }
    }
}

/// The part of a matrix-free context fixed by the forest, the mapping,
/// the quadrature and the scalar type, shared by every space that
/// integrates on the same points.
pub struct MfGeometry<T: Real, const L: usize> {
    /// 1-D Gauss points the metric terms are evaluated at.
    pub n_q: usize,
    /// Number of active cells.
    pub n_cells: usize,
    /// SIMD cell batches.
    pub cell_batches: Vec<CellBatch<L>>,
    /// Metric terms per cell batch.
    pub cell_geometry: Vec<CellGeometry<T, L>>,
    /// SIMD face batches (category-homogeneous).
    pub face_batches: Vec<FaceBatch<L>>,
    /// Metric terms per face batch.
    pub face_geometry: Vec<FaceGeometry<T, L>>,
    /// Conflict-free groups of face-batch indices.
    pub face_colors: Vec<Vec<usize>>,
    /// Cell volumes (f64, for penalties and diagnostics).
    pub cell_volumes: Vec<f64>,
    /// Raw face records (RHS assembly, diagnostics).
    pub faces: Vec<FaceInfo>,
    /// The polynomial geometry (shared across precisions).
    pub mapping: Arc<Mapping>,
    /// Per face batch and lane: the larger area-to-volume ratio `A_f/V`
    /// of the two sides (zero in empty lanes), the length scale of the
    /// SIPG penalty.
    pub area_ratio: Vec<[f64; L]>,
}

impl<T: Real, const L: usize> MfGeometry<T, L> {
    /// Batch the forest's cells and faces and evaluate the metric terms of
    /// `mapping` at the `n_q`-point Gauss rule, batch by batch on the pool.
    pub fn new(forest: &Forest, mapping: Arc<Mapping>, n_q: usize) -> Self {
        let n_cells = forest.n_active();
        let cell_batches = CellBatch::<L>::batch_all(n_cells);
        let faces = forest.build_faces();
        let face_batches = batch_faces::<L>(&faces);
        let face_colors = color_face_batches(&face_batches, n_cells);

        let quad = gauss_rule(n_q);
        let cell_grid = MappingGrid::new(&mapping, [&quad.points[..]; 3]);
        let cell_metric = par_map(cell_batches.len(), GridValues::<L>::default, |geo, bi| {
            cell_metric(&cell_grid, &cell_batches[bi], &quad.weights, geo)
        });
        let mut cell_volumes = vec![0.0; n_cells];
        // The merged Laplace coefficient is formed here on the calling
        // thread, so the coefficients of consecutive batches lie next to
        // each other in memory: formed inside the pooled loop above, the
        // Laplace kernels that stream them ran 3–4 % slower (traced
        // `poisson_solve`, 2-vCPU host).
        let cell_geometry: Vec<CellGeometry<T, L>> = cell_metric
            .into_iter()
            .zip(&cell_batches)
            .map(|(([jinvt, jxw, positions], volumes), b)| {
                for l in 0..b.n_filled {
                    cell_volumes[b.cells[l] as usize] = volumes[l];
                }
                CellGeometry::new(jinvt, jxw, positions)
            })
            .collect();
        let (face_geometry, area_ratio) = par_map(
            face_batches.len(),
            <[GridValues<L>; 2]>::default,
            |geo, bi| face_metric(&mapping, &face_batches[bi], &quad, &cell_volumes, geo),
        )
        .into_iter()
        .unzip();

        Self {
            n_q,
            n_cells,
            cell_batches,
            cell_geometry,
            face_batches,
            face_geometry,
            face_colors,
            cell_volumes,
            faces,
            mapping,
            area_ratio,
        }
    }
}

/// Matrix-free data for one discretization: a finite element space on a
/// (possibly shared) [`MfGeometry`], which it dereferences to.
pub struct MatrixFree<T: Real, const L: usize> {
    /// Parameters this context was built with.
    pub params: MfParams,
    /// 1-D shape data (FE basis at quadrature).
    pub shape: ShapeInfo1D<T>,
    /// Scalar DoFs per cell (`(k+1)^3`).
    pub dofs_per_cell: usize,
    /// Batches and metric terms, shared by the spaces on the same points.
    pub geometry: Arc<MfGeometry<T, L>>,
    /// Interior-penalty coefficient per face batch and lane: `(k+1)^2`
    /// times the geometry's `area_ratio`, as in ExaDG.
    pub sigma: Vec<Simd<T, L>>,
}

impl<T: Real, const L: usize> Deref for MatrixFree<T, L> {
    type Target = MfGeometry<T, L>;

    fn deref(&self) -> &MfGeometry<T, L> {
        &self.geometry
    }
}

impl<T: Real, const L: usize> MatrixFree<T, L> {
    /// Build the full context from a forest and a manifold.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, params: MfParams) -> Self {
        let mapping = Arc::new(Mapping::build(forest, manifold, params.mapping_degree));
        let shape = ShapeInfo1D::new(params.degree, params.node_set, params.n_q);
        Self::with_parts(forest, mapping, shape, params)
    }

    /// Build reusing both an existing geometry sampling and precomputed
    /// 1-D shape tables — the entry point for campaign-level setup caches
    /// that memoize the `Mapping` and the `(degree, node set, quadrature)`
    /// tables across many solver instances. The metric terms are
    /// evaluated here.
    pub fn with_parts(
        forest: &Forest,
        mapping: Arc<Mapping>,
        shape: ShapeInfo1D<T>,
        params: MfParams,
    ) -> Self {
        let geometry = Arc::new(MfGeometry::new(forest, mapping, params.n_q));
        Self::with_geometry(geometry, shape, params)
    }

    /// Build a space on an existing geometry: another degree or node set
    /// that integrates on the same Gauss points.
    pub fn with_geometry(
        geometry: Arc<MfGeometry<T, L>>,
        shape: ShapeInfo1D<T>,
        params: MfParams,
    ) -> Self {
        assert_eq!(
            (geometry.mapping.degree, geometry.n_q),
            (params.mapping_degree, params.n_q),
            "geometry built for another mapping degree or quadrature"
        );
        assert_eq!(
            (shape.degree, shape.node_set, shape.n_q),
            (params.degree, params.node_set, params.n_q),
            "shape tables built for other parameters"
        );
        let kp1 = (params.degree + 1) as f64;
        let sigma = geometry
            .area_ratio
            .iter()
            .map(|ratio| Simd(ratio.map(|r| T::from_f64(kp1 * kp1 * r))))
            .collect();
        Self {
            params,
            shape,
            dofs_per_cell: (params.degree + 1).pow(3),
            geometry,
            sigma,
        }
    }

    /// Total scalar DoFs of the (discontinuous) space.
    pub fn n_dofs(&self) -> usize {
        self.n_cells * self.dofs_per_cell
    }

    /// True when the FE nodes coincide with the quadrature points (Gauss
    /// collocation): the `values` interpolation is the identity and the
    /// mass matrix is diagonal.
    pub fn collocated(&self) -> bool {
        self.params.node_set == NodeSet::Gauss && self.params.n_q == self.params.degree + 1
    }

    /// Number of 1-D quadrature points.
    pub fn n_q(&self) -> usize {
        self.params.n_q
    }

    /// DoFs per direction.
    pub fn n_1d(&self) -> usize {
        self.params.degree + 1
    }
}

/// `J^{-T}`, `JxW` and the positions of one cell batch at the tensor
/// quadrature points of `grid` (the fields of [`CellGeometry`]), and the
/// volume of each filled lane's cell.
fn cell_metric<T: Real, const L: usize>(
    grid: &MappingGrid,
    b: &CellBatch<L>,
    quad_w: &[f64],
    geo: &mut GridValues<L>,
) -> ([Vec<Simd<T, L>>; 3], [f64; L]) {
    grid.evaluate(&b.cells, b.n_filled, geo);
    let n_q = quad_w.len();
    let nq3 = grid.len();
    let mut jinvt = vec![Simd::<T, L>::zero(); nq3 * 9];
    let mut jxw = vec![Simd::<T, L>::zero(); nq3];
    let mut positions = vec![Simd::<T, L>::zero(); nq3 * 3];
    let mut volumes = [0.0; L];
    for l in 0..b.n_filled {
        for q in 0..nq3 {
            let (q0, q1, q2) = (q % n_q, (q / n_q) % n_q, q / (n_q * n_q));
            let (inv, det) = invert3(geo.jacobian(q, l));
            assert!(det > 0.0, "inverted element at cell {}", b.cells[l]);
            for r in 0..3 {
                for c in 0..3 {
                    // (J^{-T})_{rc} = (J^{-1})_{cr}
                    jinvt[q * 9 + 3 * r + c][l] = T::from_f64(inv[c][r]);
                }
            }
            let w = quad_w[q0] * quad_w[q1] * quad_w[q2];
            jxw[q][l] = T::from_f64(det * w);
            volumes[l] += det * w;
            let pos = geo.position(q, l);
            for d in 0..3 {
                positions[q * 3 + d][l] = T::from_f64(pos[d]);
            }
        }
    }
    ([jinvt, jxw, positions], volumes)
}

/// Metric terms of one face batch at the tensor Gauss points of the
/// minus side (restricted to the sub-face on hanging faces), and the
/// larger area-to-volume ratio of the two sides per lane.
fn face_metric<T: Real, const L: usize>(
    mapping: &Mapping,
    b: &FaceBatch<L>,
    quad: &QuadratureRule,
    cell_volumes: &[f64],
    [geo_m, geo_p]: &mut [GridValues<L>; 2],
) -> (FaceGeometry<T, L>, [f64; L]) {
    let (quad_pts, quad_w) = (&quad.points[..], &quad.weights[..]);
    let n_q = quad_pts.len();
    let nq2 = n_q * n_q;
    let cat = b.category;
    let dm = (cat.face_minus / 2) as usize;
    let sm = (cat.face_minus % 2) as usize;
    let sub = cat.subface();
    let (c1, c2) = match sub {
        Some(c) => (f64::from(c & 1), f64::from((c >> 1) & 1)),
        None => (0.0, 0.0),
    };
    let sub_scale = if sub.is_some() { 0.5 } else { 1.0 };
    let orient = cat.orient();
    // minus ref coords (subface-scaled on hanging faces)
    let t1: Vec<f64> = quad_pts.iter().map(|&x| sub_scale * (x + c1)).collect();
    let t2: Vec<f64> = quad_pts.iter().map(|&x| sub_scale * (x + c2)).collect();
    MappingGrid::face(mapping, cat.face_minus as usize, [&t1, &t2])
        .evaluate(&b.minus, b.n_filled, geo_m);
    // the plus side on its own face grid, read through the index
    // permutation on the symmetric quadrature grid
    if !cat.is_boundary {
        MappingGrid::face(mapping, cat.face_plus as usize, [quad_pts; 2])
            .evaluate(&b.plus, b.n_filled, geo_p);
    }

    let mut g_minus = vec![Simd::<T, L>::zero(); nq2 * 3];
    let mut g_plus = if cat.is_boundary {
        Vec::new()
    } else {
        vec![Simd::<T, L>::zero(); nq2 * 3]
    };
    let mut normal = vec![Simd::<T, L>::zero(); nq2 * 3];
    let mut jxw = vec![Simd::<T, L>::zero(); nq2];
    let mut positions = vec![Simd::<T, L>::zero(); nq2 * 3];
    let mut areas = [0.0; L];
    for l in 0..b.n_filled {
        for q2 in 0..n_q {
            for q1 in 0..n_q {
                let q = q1 + n_q * q2;
                let (inv, det) = invert3(geo_m.jacobian(q, l));
                // cofactor direction: det * J^{-T} e_d = det * row d of J^{-1}
                let mut cof = [0.0; 3];
                for i in 0..3 {
                    cof[i] = det * inv[dm][i];
                }
                let norm = (cof[0] * cof[0] + cof[1] * cof[1] + cof[2] * cof[2]).sqrt();
                let sign = if sm == 0 { -1.0 } else { 1.0 };
                let n_vec = [
                    sign * cof[0] / norm,
                    sign * cof[1] / norm,
                    sign * cof[2] / norm,
                ];
                let da = norm * sub_scale * sub_scale;
                let w = quad_w[q1] * quad_w[q2];
                jxw[q][l] = T::from_f64(da * w);
                areas[l] += da * w;
                let pos = geo_m.position(q, l);
                for d in 0..3 {
                    positions[q * 3 + d][l] = T::from_f64(pos[d]);
                }
                for d in 0..3 {
                    normal[q * 3 + d][l] = T::from_f64(n_vec[d]);
                    // g = J^{-1} n
                    let mut g = 0.0;
                    for j in 0..3 {
                        g += inv[d][j] * n_vec[j];
                    }
                    g_minus[q * 3 + d][l] = T::from_f64(g);
                }
                if !cat.is_boundary {
                    let (p1, p2) = orient.map_index(q1, q2, n_q, n_q);
                    let (inv_p, det_p) = invert3(geo_p.jacobian(p1 + n_q * p2, l));
                    assert!(det_p > 0.0);
                    for d in 0..3 {
                        let mut g = 0.0;
                        for j in 0..3 {
                            g += inv_p[d][j] * n_vec[j];
                        }
                        g_plus[q * 3 + d][l] = T::from_f64(g);
                    }
                }
            }
        }
    }
    let mut ratio = [0.0; L];
    for l in 0..b.n_filled {
        let a = areas[l];
        ratio[l] = a / cell_volumes[b.minus[l] as usize];
        if !cat.is_boundary {
            ratio[l] = ratio[l].max(a / cell_volumes[b.plus[l] as usize]);
        }
    }
    let geometry = FaceGeometry {
        g_minus,
        g_plus,
        normal,
        jxw,
        positions,
    };
    (geometry, ratio)
}

/// Tangential directions of the face with normal `d`, increasing order.
pub fn tangential(d: usize) -> (usize, usize) {
    match d {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    fn cube_mf(refine: usize, degree: usize) -> MatrixFree<f64, 4> {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(refine);
        let manifold = TrilinearManifold::from_forest(&forest);
        MatrixFree::new(&forest, &manifold, MfParams::dg(degree))
    }

    #[test]
    fn volumes_sum_to_domain_volume() {
        let mf = cube_mf(2, 2);
        let total: f64 = mf.cell_volumes.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_face_areas_sum_to_surface() {
        let mf = cube_mf(1, 3);
        let mut area = 0.0;
        for (b, g) in mf.face_batches.iter().zip(&mf.face_geometry) {
            if b.category.is_boundary {
                for l in 0..b.n_filled {
                    for q in 0..mf.n_q() * mf.n_q() {
                        area += g.jxw[q][l].to_f64();
                    }
                }
            }
        }
        assert!((area - 6.0).abs() < 1e-12, "area = {area}");
    }

    #[test]
    fn normals_are_unit_and_outward_on_cube_boundary() {
        let mf = cube_mf(1, 2);
        for (b, g) in mf.face_batches.iter().zip(&mf.face_geometry) {
            if !b.category.is_boundary {
                continue;
            }
            let d = (b.category.face_minus / 2) as usize;
            let s = (b.category.face_minus % 2) as usize;
            let expect = if s == 0 { -1.0 } else { 1.0 };
            for l in 0..b.n_filled {
                for q in 0..mf.n_q() * mf.n_q() {
                    let n = [
                        g.normal[q * 3][l],
                        g.normal[q * 3 + 1][l],
                        g.normal[q * 3 + 2][l],
                    ];
                    let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                    assert!((len - 1.0).abs() < 1e-12);
                    assert!((n[d] - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn interior_face_areas_match_from_geometry() {
        // hanging faces: 4 subfaces must cover the coarse face area
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let mut marks = vec![false; 8];
        marks[0] = true;
        forest.refine_active(&marks);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf: MatrixFree<f64, 4> = MatrixFree::new(&forest, &manifold, MfParams::dg(2));
        let mut hanging_area = 0.0;
        for (b, g) in mf.face_batches.iter().zip(&mf.face_geometry) {
            if b.category.subface().is_some() {
                for l in 0..b.n_filled {
                    for q in 0..mf.n_q() * mf.n_q() {
                        hanging_area += g.jxw[q][l].to_f64();
                    }
                }
            }
        }
        // 3 coarse faces of size 0.5x0.5 fully covered by subfaces
        assert!((hanging_area - 3.0 * 0.25).abs() < 1e-12, "{hanging_area}");
    }

    #[test]
    fn sigma_scales_with_mesh_refinement() {
        let coarse = cube_mf(1, 2);
        let fine = cube_mf(2, 2);
        let s_coarse = coarse.sigma[0][0];
        let s_fine = fine.sigma[0][0];
        assert!((s_fine / s_coarse - 2.0).abs() < 1e-10);
    }

    #[test]
    fn collocation_detected() {
        let mf = cube_mf(0, 3);
        assert!(mf.collocated());
        assert_eq!(mf.n_dofs(), 64);
    }
}
