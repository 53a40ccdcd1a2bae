//! The matrix-free context: everything an operator kernel needs, prepared
//! once per `(mesh, degree, quadrature, scalar type)` combination.
//!
//! Holds the SIMD cell/face batches, the precomputed metric terms of
//! Eq. (7), the conflict coloring for parallel face loops, and the 1-D
//! shape data. Operators (Laplacian, mass, convection, …) are free
//! functions/structs in `operators/` whose kernels walk these batches
//! through the loop of [`crate::loops`].

use crate::batch::{batch_faces, color_face_batches, CellBatch, FaceBatch};
use crate::geometry::{invert3, CellGeometry, FaceGeometry, Mapping};
use dgflow_mesh::{FaceInfo, Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::{NodeSet, ShapeInfo1D};
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
    /// Multiplier on the SIPG penalty `(k+1)^2 A_f/V`.
    pub penalty_factor: f64,
}

impl MfParams {
    /// Standard DG parameters for degree `k`.
    pub fn dg(degree: usize) -> Self {
        Self {
            degree,
            n_q: degree + 1,
            node_set: NodeSet::Gauss,
            mapping_degree: degree.clamp(1, 3),
            penalty_factor: 1.0,
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

/// Matrix-free data for one discretization.
pub struct MatrixFree<T: Real, const L: usize> {
    /// Parameters this context was built with.
    pub params: MfParams,
    /// 1-D shape data (FE basis at quadrature).
    pub shape: ShapeInfo1D<T>,
    /// Number of active cells.
    pub n_cells: usize,
    /// Scalar DoFs per cell (`(k+1)^3`).
    pub dofs_per_cell: usize,
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
}

impl<T: Real, const L: usize> MatrixFree<T, L> {
    /// Build the full context from a forest and a manifold.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, params: MfParams) -> Self {
        let mapping = Arc::new(Mapping::build(forest, manifold, params.mapping_degree));
        Self::with_mapping(forest, mapping, params)
    }

    /// Build reusing an existing geometry sampling (e.g. the other
    /// precision of a mixed-precision pair, or another degree of the
    /// p-multigrid hierarchy with the same mapping degree).
    pub fn with_mapping(forest: &Forest, mapping: Arc<Mapping>, params: MfParams) -> Self {
        let shape: ShapeInfo1D<T> = ShapeInfo1D::new(params.degree, params.node_set, params.n_q);
        Self::with_parts(forest, mapping, shape, params)
    }

    /// Build reusing both an existing geometry sampling and precomputed
    /// 1-D shape tables — the entry point for campaign-level setup caches
    /// that memoize `(degree, node set, quadrature)` tables across many
    /// solver instances.
    pub fn with_parts(
        forest: &Forest,
        mapping: Arc<Mapping>,
        shape: ShapeInfo1D<T>,
        params: MfParams,
    ) -> Self {
        assert_eq!(mapping.degree, params.mapping_degree);
        assert_eq!(
            shape.degree, params.degree,
            "shape tables built for another degree"
        );
        assert_eq!(
            shape.n_q, params.n_q,
            "shape tables built for another quadrature"
        );
        assert_eq!(
            shape.node_set, params.node_set,
            "shape tables built for another node set"
        );
        let n_cells = forest.n_active();
        let cell_batches = CellBatch::<L>::batch_all(n_cells);
        let faces = forest.build_faces();
        let face_batches = batch_faces::<L>(&faces);
        let face_colors = color_face_batches(&face_batches, n_cells);

        let n_q = params.n_q;
        let quad_pts = shape.quad.points.clone();
        let quad_w = shape.quad.weights.clone();

        // 1-D basis tables of the mapping at the volume quadrature points
        let map_v: Vec<Vec<f64>> = quad_pts.iter().map(|&x| mapping.basis_values(x)).collect();
        let map_g: Vec<Vec<f64>> = quad_pts
            .iter()
            .map(|&x| mapping.basis_derivatives(x))
            .collect();

        // --- cell geometry -------------------------------------------------
        let nq3 = n_q * n_q * n_q;
        let mut cell_geometry: Vec<CellGeometry<T, L>> = Vec::with_capacity(cell_batches.len());
        let mut cell_volumes = vec![0.0; n_cells];
        for b in &cell_batches {
            let mut jinvt = vec![Simd::<T, L>::zero(); nq3 * 9];
            let mut jxw = vec![Simd::<T, L>::zero(); nq3];
            let mut positions = vec![Simd::<T, L>::zero(); nq3 * 3];
            for l in 0..b.n_filled {
                let cell = b.cells[l] as usize;
                for q2 in 0..n_q {
                    for q1 in 0..n_q {
                        for q0 in 0..n_q {
                            let q = q0 + n_q * (q1 + n_q * q2);
                            let jac = mapping.jacobian_with(
                                cell,
                                [
                                    (&map_v[q0], &map_g[q0]),
                                    (&map_v[q1], &map_g[q1]),
                                    (&map_v[q2], &map_g[q2]),
                                ],
                            );
                            let (inv, det) = invert3(jac);
                            assert!(det > 0.0, "inverted element at cell {cell}");
                            for r in 0..3 {
                                for c in 0..3 {
                                    // (J^{-T})_{rc} = (J^{-1})_{cr}
                                    jinvt[q * 9 + 3 * r + c][l] = T::from_f64(inv[c][r]);
                                }
                            }
                            let w = quad_w[q0] * quad_w[q1] * quad_w[q2];
                            jxw[q][l] = T::from_f64(det * w);
                            cell_volumes[cell] += det * w;
                            let pos =
                                mapping.position_with(cell, [&map_v[q0], &map_v[q1], &map_v[q2]]);
                            for d in 0..3 {
                                positions[q * 3 + d][l] = T::from_f64(pos[d]);
                            }
                        }
                    }
                }
            }
            cell_geometry.push(CellGeometry {
                jinvt,
                jxw,
                positions,
            });
        }

        // --- face geometry -------------------------------------------------
        let nq2 = n_q * n_q;
        let kp1 = (params.degree + 1) as f64;
        let mut face_geometry: Vec<FaceGeometry<T, L>> = Vec::with_capacity(face_batches.len());
        for b in &face_batches {
            let cat = b.category;
            let dm = (cat.face_minus / 2) as usize;
            let sm = (cat.face_minus % 2) as usize;
            let (t1m, t2m) = tangential(dm);
            let sub = cat.subface();
            let (c1, c2) = match sub {
                Some(c) => (f64::from(c & 1), f64::from((c >> 1) & 1)),
                None => (0.0, 0.0),
            };
            let sub_scale = if sub.is_some() { 0.5 } else { 1.0 };
            let orient = cat.orient();
            let dp = (cat.face_plus / 2) as usize;
            let sp = (cat.face_plus % 2) as usize;
            let (t1p, t2p) = tangential(dp);

            let mut g_minus = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut g_plus = if cat.is_boundary {
                Vec::new()
            } else {
                vec![Simd::<T, L>::zero(); nq2 * 3]
            };
            let mut normal = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut jxw = vec![Simd::<T, L>::zero(); nq2];
            let mut positions = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut sigma = Simd::<T, L>::zero();
            let mut areas = [0.0; L];

            for l in 0..b.n_filled {
                let minus = b.minus[l] as usize;
                for q2 in 0..n_q {
                    for q1 in 0..n_q {
                        let q = q1 + n_q * q2;
                        // minus ref coords (subface-scaled on hanging faces)
                        let mut xi = [0.0; 3];
                        xi[dm] = sm as f64;
                        xi[t1m] = sub_scale * (quad_pts[q1] + c1);
                        xi[t2m] = sub_scale * (quad_pts[q2] + c2);
                        let jac = mapping.jacobian(minus, xi);
                        let (inv, det) = invert3(jac);
                        // cofactor direction: det * J^{-T} e_d = det * row d
                        // of J^{-1}
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
                        let pos = mapping.position(minus, xi);
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
                            let plus = b.plus[l] as usize;
                            // plus ref coords via the index permutation on
                            // the symmetric quadrature grid
                            let (p1, p2) = orient.map_index(q1, q2, n_q, n_q);
                            let mut xp = [0.0; 3];
                            xp[dp] = sp as f64;
                            xp[t1p] = quad_pts[p1];
                            xp[t2p] = quad_pts[p2];
                            let jac_p = mapping.jacobian(plus, xp);
                            let (inv_p, det_p) = invert3(jac_p);
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
            // penalty: (k+1)^2 * max over sides of A_f / V, as in ExaDG
            for l in 0..b.n_filled {
                let a = areas[l];
                let mut s = a / cell_volumes[b.minus[l] as usize];
                if !cat.is_boundary {
                    s = s.max(a / cell_volumes[b.plus[l] as usize]);
                }
                sigma[l] = T::from_f64(params.penalty_factor * kp1 * kp1 * s);
            }
            face_geometry.push(FaceGeometry {
                g_minus,
                g_plus,
                normal,
                jxw,
                positions,
                sigma,
            });
        }

        Self {
            params,
            shape,
            n_cells,
            dofs_per_cell: (params.degree + 1).pow(3),
            cell_batches,
            cell_geometry,
            face_batches,
            face_geometry,
            face_colors,
            cell_volumes,
            faces,
            mapping,
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
        let s_coarse = coarse.face_geometry[0].sigma[0];
        let s_fine = fine.face_geometry[0].sigma[0];
        assert!((s_fine / s_coarse - 2.0).abs() < 1e-10);
    }

    #[test]
    fn collocation_detected() {
        let mf = cube_mf(0, 3);
        assert!(mf.collocated());
        assert_eq!(mf.n_dofs(), 64);
    }
}
