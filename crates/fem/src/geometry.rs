//! High-order polynomial geometry representation and precomputed metric
//! terms (the `D_e`, `D_f` data of Eq. (7)).
//!
//! Following Heltai et al. (and Sec. 3.3), the exact [`Manifold`] geometry
//! is sampled once at `(m+1)^3` support points per active cell. Positions
//! and Jacobians on any tensor grid of reference points — the volume and
//! face quadrature points of the metric terms, the CG nodes, the output
//! lattice — then come from [`MappingGrid`], which contracts the support
//! points of a SIMD batch of cells with the mapping's 1-D value and
//! derivative tables by sum factorization (the same [`apply_1d`] sweeps
//! the operators run). The metric terms are stored in SIMD-batch
//! (struct-of-array) layout, the data the operator kernels stream from
//! memory at run time.

use crate::batch::CellBatch;
use crate::util::par_map;
use dgflow_mesh::{Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::sumfac::apply_1d;
use dgflow_tensor::{DMatrix, LagrangeBasis1D, NodeSet};

/// Polynomial mapping: support points of every active cell.
pub struct Mapping {
    /// Mapping polynomial degree `m`.
    pub degree: usize,
    /// GLL support points per direction (`m+1`).
    pub n1: usize,
    /// `n_cells * (m+1)^3` physical positions, cell-major, lexicographic.
    pub points: Vec<[f64; 3]>,
    basis: LagrangeBasis1D,
}

impl Mapping {
    /// Sample `manifold` at the mapping support points of every active cell.
    pub fn build(forest: &Forest, manifold: &dyn Manifold, degree: usize) -> Self {
        assert!(degree >= 1);
        let nodes = NodeSet::GaussLobatto.nodes(degree);
        let n1 = degree + 1;
        let ppc = n1 * n1 * n1;
        let n_cells = forest.n_active();
        let mut points = vec![[0.0; 3]; n_cells * ppc];
        let cells: Vec<_> = forest.active_cells().collect();
        let local: Vec<[f64; 3]> = (0..ppc)
            .map(|i| [nodes[i % n1], nodes[(i / n1) % n1], nodes[i / (n1 * n1)]])
            .collect();
        dgflow_comm::parallel_chunks_mut([&mut points], 8 * ppc, |offset, [part]| {
            for (i, p) in part.iter_mut().enumerate() {
                let idx = offset + i;
                let (cell, x) = (cells[idx / ppc], local[idx % ppc]);
                let (lo, h) = cell.ref_bounds();
                let xi = [lo[0] + h * x[0], lo[1] + h * x[1], lo[2] + h * x[2]];
                *p = manifold.position(cell.tree as usize, xi);
            }
        });
        Self {
            degree,
            n1,
            points,
            basis: LagrangeBasis1D::new(nodes),
        }
    }

    /// Support points per cell.
    pub fn points_per_cell(&self) -> usize {
        self.n1 * self.n1 * self.n1
    }

    /// Physical positions of every cell on the tensor grid of the 1-D
    /// reference points `points`: cell-major, lexicographic within a cell,
    /// evaluated batch by batch on the pool.
    pub fn grid_positions(&self, points: &[f64]) -> Vec<[f64; 3]> {
        const L: usize = 8;
        let grid = MappingGrid::new(self, [points; 3]);
        let batches = CellBatch::<L>::batch_all(self.points.len() / self.points_per_cell());
        let per_batch = par_map(batches.len(), GridValues::<L>::default, |v, bi| {
            let b = &batches[bi];
            grid.evaluate(&b.cells, b.n_filled, v);
            (0..b.n_filled)
                .flat_map(|l| (0..grid.len()).map(move |q| (l, q)))
                .map(|(l, q)| v.position(q, l))
                .collect::<Vec<_>>()
        });
        per_batch.concat()
    }

    /// Physical position at reference point `xi` of `cell`, one point at a
    /// time (the per-point reference of [`MappingGrid`]).
    pub fn position(&self, cell: usize, xi: [f64; 3]) -> [f64; 3] {
        let n1 = self.n1;
        let v0 = self.basis.values_at(xi[0]);
        let v1 = self.basis.values_at(xi[1]);
        let v2 = self.basis.values_at(xi[2]);
        let base = cell * self.points_per_cell();
        let mut p = [0.0; 3];
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                let w12 = v1[i1] * v2[i2];
                for i0 in 0..n1 {
                    let w = v0[i0] * w12;
                    let pt = self.points[base + i0 + n1 * (i1 + n1 * i2)];
                    for d in 0..3 {
                        p[d] += w * pt[d];
                    }
                }
            }
        }
        p
    }

    /// Jacobian `J[d][e] = ∂X_d/∂ξ_e` at reference point `xi` of `cell`,
    /// one point at a time (the per-point reference of [`MappingGrid`]).
    pub fn jacobian(&self, cell: usize, xi: [f64; 3]) -> [[f64; 3]; 3] {
        let n1 = self.n1;
        let v = [
            self.basis.values_at(xi[0]),
            self.basis.values_at(xi[1]),
            self.basis.values_at(xi[2]),
        ];
        let g = [
            self.basis.derivatives_at(xi[0]),
            self.basis.derivatives_at(xi[1]),
            self.basis.derivatives_at(xi[2]),
        ];
        let base = cell * self.points_per_cell();
        let mut jac = [[0.0; 3]; 3];
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                for i0 in 0..n1 {
                    let pt = self.points[base + i0 + n1 * (i1 + n1 * i2)];
                    let idx = [i0, i1, i2];
                    for e in 0..3 {
                        let mut w = 1.0;
                        for d in 0..3 {
                            w *= if d == e { g[d][idx[d]] } else { v[d][idx[d]] };
                        }
                        for d in 0..3 {
                            jac[d][e] += w * pt[d];
                        }
                    }
                }
            }
        }
        jac
    }
}

/// The mapping's 1-D value and derivative tables on a tensor grid of
/// reference points: `points[d]` along direction `d`, lexicographic with
/// direction 0 fastest. A cell grid takes the same points in every
/// direction; a face grid ([`MappingGrid::face`]) one point at 0 or 1 in
/// the normal direction.
pub struct MappingGrid<'a> {
    mapping: &'a Mapping,
    /// Points per direction.
    extents: [usize; 3],
    values: [DMatrix<f64>; 3],
    gradients: [DMatrix<f64>; 3],
}

impl<'a> MappingGrid<'a> {
    /// Tables of `mapping`'s basis at `points[d]` along each direction `d`.
    pub fn new(mapping: &'a Mapping, points: [&[f64]; 3]) -> Self {
        Self {
            mapping,
            extents: points.map(<[f64]>::len),
            values: points.map(|p| mapping.basis.value_matrix(p)),
            gradients: points.map(|p| mapping.basis.gradient_matrix(p)),
        }
    }

    /// Grid on face `face` (normal `face / 2`, at reference coordinate
    /// `face % 2`), with the points `tangential[0]`, `tangential[1]` along
    /// its two tangential directions in increasing order, so grid point
    /// `q1 + n1 * q2` is the face point `(q1, q2)`.
    pub fn face(mapping: &'a Mapping, face: usize, tangential: [&[f64]; 2]) -> Self {
        let (d, side) = (face / 2, [(face % 2) as f64]);
        let (t1, t2) = crate::matrixfree::tangential(d);
        let mut points = [&side[..]; 3];
        points[t1] = tangential[0];
        points[t2] = tangential[1];
        Self::new(mapping, points)
    }

    /// Number of grid points.
    pub(crate) fn len(&self) -> usize {
        self.extents.iter().product()
    }

    /// Positions and reference Jacobians of the lane cells `cells[..n_filled]`
    /// on the grid, into `out` (whose buffers are reused across calls).
    /// Each component takes nine sweeps that share their partial results:
    /// `V`, `G` along the first direction; `VV`, `VG`, `GV` along the
    /// second; the position and the three derivatives along the third. The
    /// directions go in order of increasing grid extent, so a face grid
    /// contracts its one normal point first. Lanes past `n_filled` repeat
    /// lane 0's cell.
    pub fn evaluate<const L: usize>(
        &self,
        cells: &[u32; L],
        n_filled: usize,
        out: &mut GridValues<L>,
    ) {
        assert!(n_filled >= 1, "a batch has at least one filled lane");
        let mapping = self.mapping;
        let n1 = mapping.n1;
        let ppc = mapping.points_per_cell();
        let mut order = [0, 1, 2];
        order.sort_by_key(|&d| self.extents[d]);
        let [da, db, dc] = order;
        let e_in = [n1; 3];
        let mut e_a = e_in;
        e_a[da] = self.extents[da];
        let mut e_b = e_a;
        e_b[db] = self.extents[db];
        let n = self.len();
        let resize = |bufs: &mut [Vec<Simd<f64, L>>], len: usize| {
            for buf in bufs {
                buf.resize(len, Simd::zero());
            }
        };
        resize(&mut out.support, ppc);
        resize(&mut out.first, e_a.iter().product());
        resize(&mut out.second, e_b.iter().product());
        resize(&mut out.position, n);
        resize(out.jacobian.as_flattened_mut(), n);
        let x = &mut out.support;
        for l in 0..L {
            let cell = cells[if l < n_filled { l } else { 0 }] as usize;
            for (i, p) in mapping.points[cell * ppc..(cell + 1) * ppc]
                .iter()
                .enumerate()
            {
                for d in 0..3 {
                    x[d][i][l] = p[d];
                }
            }
        }
        let (v, g) = (&self.values, &self.gradients);
        let [a, b] = &mut out.first;
        let [aa, ga, ba] = &mut out.second;
        for d in 0..3 {
            let jac = &mut out.jacobian[d];
            apply_1d(&v[da], &x[d], a, e_in, da, false);
            apply_1d(&g[da], &x[d], b, e_in, da, false);
            apply_1d(&v[db], a, aa, e_a, db, false);
            apply_1d(&g[db], a, ga, e_a, db, false);
            apply_1d(&v[db], b, ba, e_a, db, false);
            apply_1d(&v[dc], aa, &mut out.position[d], e_b, dc, false);
            apply_1d(&g[dc], aa, &mut jac[dc], e_b, dc, false);
            apply_1d(&v[dc], ga, &mut jac[db], e_b, dc, false);
            apply_1d(&v[dc], ba, &mut jac[da], e_b, dc, false);
        }
    }
}

/// Positions and reference Jacobians of a batch of `L` cells on a
/// [`MappingGrid`], component-major: `position[d][q]` and
/// `jacobian[d][e][q] = ∂X_d/∂ξ_e` at grid point `q`.
#[derive(Default)]
pub struct GridValues<const L: usize> {
    position: [Vec<Simd<f64, L>>; 3],
    jacobian: [[Vec<Simd<f64, L>>; 3]; 3],
    /// Support points per component.
    support: [Vec<Simd<f64, L>>; 3],
    /// The two first-direction sweeps of one component.
    first: [Vec<Simd<f64, L>>; 2],
    /// The three second-direction sweeps of one component.
    second: [Vec<Simd<f64, L>>; 3],
}

impl<const L: usize> GridValues<L> {
    /// Position of lane `l` at grid point `q`.
    pub fn position(&self, q: usize, l: usize) -> [f64; 3] {
        self.position.each_ref().map(|p| p[q][l])
    }

    /// Jacobian of lane `l` at grid point `q`.
    pub fn jacobian(&self, q: usize, l: usize) -> [[f64; 3]; 3] {
        self.jacobian
            .each_ref()
            .map(|row| row.each_ref().map(|j| j[q][l]))
    }
}

/// Invert a 3×3 matrix; returns (inverse, determinant).
pub fn invert3(j: [[f64; 3]; 3]) -> ([[f64; 3]; 3], f64) {
    let c = [
        [
            j[1][1] * j[2][2] - j[1][2] * j[2][1],
            j[0][2] * j[2][1] - j[0][1] * j[2][2],
            j[0][1] * j[1][2] - j[0][2] * j[1][1],
        ],
        [
            j[1][2] * j[2][0] - j[1][0] * j[2][2],
            j[0][0] * j[2][2] - j[0][2] * j[2][0],
            j[0][2] * j[1][0] - j[0][0] * j[1][2],
        ],
        [
            j[1][0] * j[2][1] - j[1][1] * j[2][0],
            j[0][1] * j[2][0] - j[0][0] * j[2][1],
            j[0][0] * j[1][1] - j[0][1] * j[1][0],
        ],
    ];
    let det = j[0][0] * c[0][0] + j[0][1] * c[1][0] + j[0][2] * c[2][0];
    let inv_det = 1.0 / det;
    let mut inv = [[0.0; 3]; 3];
    for r in 0..3 {
        for col in 0..3 {
            inv[r][col] = c[r][col] * inv_det;
        }
    }
    (inv, det)
}

/// Per-cell-batch metric data at the `n_q^3` quadrature points.
pub struct CellGeometry<T: Real, const L: usize> {
    /// `(J^{-T})` entries: layout `q*9 + 3*r + c`.
    pub jinvt: Vec<Simd<T, L>>,
    /// `det(J) * w_q` per quadrature point.
    pub jxw: Vec<Simd<T, L>>,
    /// Merged symmetric SIPG cell coefficient: per quadrature point the 6
    /// entries `[c00, c01, c02, c11, c12, c22]` of
    /// `c_ab = JxW · Σ_r (J^{-T})_{ra} (J^{-T})_{rb}`, so the fused Laplace
    /// cell kernel streams 6 batches per point instead of the 9-entry
    /// Jacobian plus JxW. Layout `q*6 + k`.
    pub laplace: Vec<Simd<T, L>>,
    /// Physical quadrature-point positions: `q*3 + d` (used only by
    /// right-hand-side assembly and error norms, never streamed by the
    /// operator kernels).
    pub positions: Vec<Simd<T, L>>,
}

/// The reference-direction pairs `(a, b)`, `a ≤ b`, of the six entries of
/// [`CellGeometry::laplace`], in storage order.
pub(crate) const COEFF_PAIRS: [(usize, usize); 6] =
    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];

impl<T: Real, const L: usize> CellGeometry<T, L> {
    /// Metric data from its stored fields: the merged Laplace coefficient
    /// is formed from the `T`-rounded `J^{-T}` and `JxW`, so it is the
    /// same whichever space reads it.
    pub(crate) fn new(
        jinvt: Vec<Simd<T, L>>,
        jxw: Vec<Simd<T, L>>,
        positions: Vec<Simd<T, L>>,
    ) -> Self {
        let mut laplace = vec![Simd::<T, L>::zero(); jxw.len() * 6];
        for (q, (m, c)) in jinvt
            .chunks_exact(9)
            .zip(laplace.chunks_exact_mut(6))
            .enumerate()
        {
            for (k, (a, b)) in COEFF_PAIRS.into_iter().enumerate() {
                c[k] = (m[a] * m[b] + m[3 + a] * m[3 + b] + m[6 + a] * m[6 + b]) * jxw[q];
            }
        }
        Self {
            jinvt,
            jxw,
            laplace,
            positions,
        }
    }
}

/// Per-face-batch metric data at the `n_q^2` face quadrature points
/// (minus-frame ordering, restricted to the subface for hanging faces).
pub struct FaceGeometry<T: Real, const L: usize> {
    /// `J_minus^{-1} n` per point (3 entries each): `q*3 + d`.
    pub g_minus: Vec<Simd<T, L>>,
    /// `J_plus^{-1} n` per point; empty for boundary faces.
    pub g_plus: Vec<Simd<T, L>>,
    /// Physical unit normal (minus → plus): `q*3 + d`.
    pub normal: Vec<Simd<T, L>>,
    /// Area element × quadrature weight per point.
    pub jxw: Vec<Simd<T, L>>,
    /// Physical quadrature-point positions: `q*3 + d` (boundary-condition
    /// evaluation).
    pub positions: Vec<Simd<T, L>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    #[test]
    fn mapping_reproduces_affine_geometry() {
        let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [4.0, 1.0, 2.0]));
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mapping = Mapping::build(&forest, &manifold, 2);
        // cell 0 is the SFC-first child of tree 0: [0,1]x[0,0.5]x[0,1] scaled
        let cell = forest.active_cell(0);
        let (lo, h) = cell.ref_bounds();
        let p = mapping.position(0, [0.5, 0.5, 0.5]);
        let expect = [
            2.0 * (lo[0] + 0.5 * h), // tree 0 spans [0,2] in x
            lo[1] + 0.5 * h,
            2.0 * (lo[2] + 0.5 * h),
        ];
        for d in 0..3 {
            assert!((p[d] - expect[d]).abs() < 1e-13, "{p:?} vs {expect:?}");
        }
        let j = mapping.jacobian(0, [0.3, 0.6, 0.2]);
        // affine: J = diag(2h, h, 2h)
        for d in 0..3 {
            for e in 0..3 {
                let expect = if d == e {
                    [2.0 * h, h, 2.0 * h][d]
                } else {
                    0.0
                };
                assert!((j[d][e] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invert3_roundtrip() {
        let j = [[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.4, 0.0, 3.0]];
        let (inv, det) = invert3(j);
        assert!(det > 0.0);
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += j[r][k] * inv[k][c];
                }
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12);
            }
        }
    }

    struct Paraboloid;
    impl Manifold for Paraboloid {
        fn position(&self, _tree: usize, xi: [f64; 3]) -> [f64; 3] {
            [xi[0], xi[1], xi[2] + 0.25 * xi[0] * xi[0]]
        }
    }

    #[test]
    fn curved_mapping_jacobian_matches_analytic() {
        let forest = Forest::new(CoarseMesh::hyper_cube());
        let mapping = Mapping::build(&forest, &Paraboloid, 3);
        let xi = [0.37, 0.81, 0.22];
        let j = mapping.jacobian(0, xi);
        // analytic: dz/dx = 0.5 x (degree-2 exactly representable at m=3)
        assert!((j[2][0] - 0.5 * xi[0]).abs() < 1e-12);
        assert!((j[0][0] - 1.0).abs() < 1e-12);
        assert!((j[1][1] - 1.0).abs() < 1e-12);
        assert!((j[2][2] - 1.0).abs() < 1e-12);
    }
}
