//! The SIPG quadrature-point formulas of the Laplacian, one function per
//! formula, shared by the DG and CG operators, their diagonals and
//! assembly, and the distributed apply.

use crate::evaluator::{
    evaluate_face, evaluate_gradients, evaluate_values, integrate, integrate_face,
    permute_from_minus, CellScratch, FaceScratch, FaceSideDesc,
};
use crate::geometry::{CellGeometry, FaceGeometry, COEFF_PAIRS};
use crate::matrixfree::{tangential, MatrixFree};
use dgflow_mesh::FaceOrientation;
use dgflow_simd::{Real, Simd};
use dgflow_tensor::sumfac::{apply_1d, apply_1d_2d, expand_dir};
use dgflow_tensor::{DMatrix, ShapeInfo1D};

/// Two-stage Jacobian contraction at every cell quadrature point: the
/// physical gradient `t_r = Σ_c (J^{-T})_{rc} ∇̂u_c · JxW`, then back to
/// reference axes for the test function, `Σ_r (J^{-T})_{rc} t_r`.
pub(crate) fn contract_two_stage<T: Real, const L: usize>(
    g: &CellGeometry<T, L>,
    s: &mut CellScratch<T, L>,
) {
    for q in 0..g.jxw.len() {
        let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
        let jxw = g.jxw[q];
        let m = &g.jinvt[q * 9..q * 9 + 9];
        let mut t = [Simd::<T, L>::zero(); 3];
        for r in 0..3 {
            t[r] = (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2]) * jxw;
        }
        for c in 0..3 {
            s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
        }
    }
}

/// Normal derivative `∂n u = ∇̂u · J^{-1}n` at face point `q`, with `gn`
/// the side's `J^{-1}n` (`g_minus` or `g_plus`).
#[inline(always)]
fn normal_derivative<T: Real, const L: usize>(
    s: &FaceScratch<T, L>,
    gn: &[Simd<T, L>],
    q: usize,
) -> Simd<T, L> {
    s.grad[0][q] * gn[q * 3] + s.grad[1][q] * gn[q * 3 + 1] + s.grad[2][q] * gn[q * 3 + 2]
}

/// Store the test side of a flux at face point `q`: the value flux and
/// the gradient flux `gsc · J^{-1}n`.
#[inline(always)]
fn set_flux<T: Real, const L: usize>(
    s: &mut FaceScratch<T, L>,
    gn: &[Simd<T, L>],
    q: usize,
    vflux: Simd<T, L>,
    gsc: Simd<T, L>,
) {
    s.val[q] = vflux;
    for d in 0..3 {
        s.grad[d][q] = gn[q * 3 + d] * gsc;
    }
}

/// Nitsche boundary flux at one point, from the minus side's trace and
/// normal derivative: the mirror ghost `u⁺ = −u⁻`, `∂n u⁺ = ∂n u⁻` in the
/// interior flux. Returns the value flux and the gradient scale.
#[inline(always)]
fn nitsche_flux<T: Real, const L: usize>(
    u: Simd<T, L>,
    dn: Simd<T, L>,
    sigma: Simd<T, L>,
    jxw: Simd<T, L>,
) -> (Simd<T, L>, Simd<T, L>) {
    ((u * sigma * T::from_f64(2.0) - dn) * jxw, -(u * jxw))
}

/// Nitsche boundary flux, in place on the minus side's traces.
fn nitsche_boundary_flux<T: Real, const L: usize>(
    g: &FaceGeometry<T, L>,
    sigma: Simd<T, L>,
    s: &mut FaceScratch<T, L>,
) {
    for q in 0..g.jxw.len() {
        let dn = normal_derivative(s, &g.g_minus, q);
        let (vflux, gsc) = nitsche_flux(s.val[q], dn, sigma, g.jxw[q]);
        set_flux(s, &g.g_minus, q, vflux, gsc);
    }
}

/// SIPG interior flux at one point, from the traces and normal
/// derivatives of both sides: the minus side's value flux
/// `(σ[[u]] − {{∂n u}}) JxW` (the plus side's is its negative) and the
/// gradient scale `−[[u]] JxW / 2` of both sides.
#[inline(always)]
fn interior_flux<T: Real, const L: usize>(
    [um, up]: [Simd<T, L>; 2],
    [dnm, dnp]: [Simd<T, L>; 2],
    sigma: Simd<T, L>,
    jxw: Simd<T, L>,
) -> (Simd<T, L>, Simd<T, L>) {
    let half = T::from_f64(0.5);
    let jump = um - up;
    (
        (jump * sigma - (dnm + dnp) * half) * jxw,
        -(jump * half * jxw),
    )
}

/// The SIPG interior face flux, in place on both sides' traces.
pub(crate) fn interior_face_flux<T: Real, const L: usize>(
    g: &FaceGeometry<T, L>,
    sigma: Simd<T, L>,
    sm: &mut FaceScratch<T, L>,
    sp: &mut FaceScratch<T, L>,
) {
    for q in 0..g.jxw.len() {
        let dn = [
            normal_derivative(sm, &g.g_minus, q),
            normal_derivative(sp, &g.g_plus, q),
        ];
        let (vflux, gsc) = interior_flux([sm.val[q], sp.val[q]], dn, sigma, g.jxw[q]);
        set_flux(sm, &g.g_minus, q, vflux, gsc);
        set_flux(sp, &g.g_plus, q, -vflux, gsc);
    }
}

/// Symmetric Nitsche lifting of Dirichlet data `gfun` on boundary face
/// batch `bi`, `F_Γ(v) = ∫ 2σ g v − g ∂n v`, integrated into `s.dofs`.
pub(crate) fn nitsche_lifting<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    gfun: impl Fn([f64; 3]) -> f64,
    s: &mut FaceScratch<T, L>,
) {
    let (b, g, sigma) = (&mf.face_batches[bi], &mf.face_geometry[bi], mf.sigma[bi]);
    for q in 0..g.jxw.len() {
        let mut gv = Simd::<T, L>::zero();
        for l in 0..b.n_filled {
            let x = [
                g.positions[q * 3][l].to_f64(),
                g.positions[q * 3 + 1][l].to_f64(),
                g.positions[q * 3 + 2][l].to_f64(),
            ];
            gv[l] = T::from_f64(gfun(x));
        }
        let jxw = g.jxw[q];
        s.val[q] = gv * sigma * T::from_f64(2.0) * jxw;
        for d in 0..3 {
            s.grad[d][q] = -(g.g_minus[q * 3 + d] * gv * jxw);
        }
    }
    integrate_face(mf, FaceSideDesc::minus(b), true, s);
}

/// The Nitsche term of boundary face batch `bi` on the minus-side nodal
/// values in `s.dofs`, integrated back into `s.dofs`.
pub(crate) fn nitsche_boundary_term<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    s: &mut FaceScratch<T, L>,
) {
    let desc = FaceSideDesc::minus(&mf.face_batches[bi]);
    evaluate_face(mf, desc, true, s);
    nitsche_boundary_flux(&mf.face_geometry[bi], mf.sigma[bi], s);
    integrate_face(mf, desc, true, s);
}

/// Which own-side block of a face batch a kernel works on: the minus or
/// plus side of an interior face, or a Dirichlet boundary face (Nitsche).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaceSide {
    Minus,
    Plus,
    Boundary,
}

/// The flux of `side` from its own trace `u` and normal derivative `dn`,
/// with the other side's trace zero (the own-side block of the face
/// matrix): the value flux and the gradient scale.
#[inline(always)]
fn own_side_flux<T: Real, const L: usize>(
    side: FaceSide,
    u: Simd<T, L>,
    dn: Simd<T, L>,
    sigma: Simd<T, L>,
    jxw: Simd<T, L>,
) -> (Simd<T, L>, Simd<T, L>) {
    let z = Simd::zero();
    match side {
        FaceSide::Minus => interior_flux([u, z], [dn, z], sigma, jxw),
        FaceSide::Plus => {
            let (vflux, gsc) = interior_flux([z, u], [z, dn], sigma, jxw);
            (-vflux, gsc)
        }
        FaceSide::Boundary => nitsche_flux(u, dn, sigma, jxw),
    }
}

/// The evaluation descriptor and `J^{-1}n` of `side` on face batch `bi`.
fn side_of<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    side: FaceSide,
) -> (FaceSideDesc, &[Simd<T, L>]) {
    let (b, g) = (&mf.face_batches[bi], &mf.face_geometry[bi]);
    match side {
        FaceSide::Plus => (FaceSideDesc::plus(b), &g.g_plus),
        FaceSide::Minus | FaceSide::Boundary => (FaceSideDesc::minus(b), &g.g_minus),
    }
}

fn unit<T: Real, const L: usize>(dofs: &mut [Simd<T, L>], i: usize) {
    dofs.fill(Simd::zero());
    dofs[i] = Simd::splat(T::ONE);
}

/// Column `i` of the local cell matrices of batch `bi` (two-stage
/// contraction), into `s.dofs`.
pub(crate) fn cell_column<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    i: usize,
    s: &mut CellScratch<T, L>,
) {
    unit(&mut s.dofs, i);
    evaluate_values(mf, s);
    evaluate_gradients(mf, s);
    contract_two_stage(&mf.cell_geometry[bi], s);
    integrate(mf, s, false, true);
}

/// Column `i` of the own-side block of face batch `bi` on `side`, into
/// `s.dofs`.
pub(crate) fn face_column<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    side: FaceSide,
    i: usize,
    s: &mut FaceScratch<T, L>,
) {
    let (g, sigma) = (&mf.face_geometry[bi], mf.sigma[bi]);
    let (desc, gn) = side_of(mf, bi, side);
    unit(&mut s.dofs, i);
    evaluate_face(mf, desc, true, s);
    for q in 0..g.jxw.len() {
        let dn = normal_derivative(s, gn, q);
        let (vflux, gsc) = own_side_flux(side, s.val[q], dn, sigma, g.jxw[q]);
        set_flux(s, gn, q, vflux, gsc);
    }
    integrate_face(mf, desc, true, s);
}

/// Reference cell block diagonal of batch `bi`, into `s.dofs`: entry `i`
/// of column `i`, one full column per entry. The equivalence baseline of
/// [`cell_diagonal`].
pub(crate) fn cell_diagonal_reference<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    s: &mut CellScratch<T, L>,
) {
    let own: Vec<_> = (0..mf.dofs_per_cell)
        .map(|i| {
            cell_column(mf, bi, i, s);
            s.dofs[i]
        })
        .collect();
    s.dofs.copy_from_slice(&own);
}

/// Reference own-side block diagonal of face batch `bi` on `side`, into
/// `s.dofs`, column by column. The equivalence baseline of
/// [`face_diagonal`].
pub(crate) fn face_diagonal_reference<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    side: FaceSide,
    s: &mut FaceScratch<T, L>,
) {
    let own: Vec<_> = (0..mf.dofs_per_cell)
        .map(|i| {
            face_column(mf, bi, side, i, s);
            s.dofs[i]
        })
        .collect();
    s.dofs.copy_from_slice(&own);
}

/// The 1-D tables of the diagonal kernels: products of a basis function's
/// values and derivatives at the quadrature points, formed in `f64` from
/// the tables the operator kernels use and stored `(k+1) × n_q`, so one
/// [`apply_1d`] sweeps point data back to the dofs.
pub(crate) struct DiagonalTables<T> {
    /// Cell, by the number of derivatives on the direction: `φ²`, `φφ′`,
    /// `φ′²`, with `φ′` the collocation derivative of the interpolated
    /// values, as in the cell kernels.
    cell: [DMatrix<T>; 3],
    /// Face tangential directions, `[φ², φφ′]`: on a full face (index 0)
    /// and on the halves 0 and 1 of a hanging subface (1, 2), where `φ′`
    /// carries the factor 2 back to parent coordinates.
    tangential: [[DMatrix<T>; 2]; 3],
    /// Face normal direction at the endpoint `s` of the interval:
    /// `[φ(s)², φ(s) φ′(s)]`.
    normal: [[Vec<T>; 2]; 2],
}

impl<T: Real> DiagonalTables<T> {
    /// Tables for the basis and quadrature of `mf`.
    pub(crate) fn new<const L: usize>(mf: &MatrixFree<T, L>) -> Self {
        let p = mf.params;
        let s = ShapeInfo1D::<f64>::new(p.degree, p.node_set, p.n_q);
        // entry (i, q) = a[q][i] · b[q][i]
        let product = |a: &DMatrix<f64>, b: &DMatrix<f64>| {
            DMatrix::from_fn(a.cols(), a.rows(), |i, q| {
                T::from_f64(a.get(q, i) * b.get(q, i))
            })
        };
        let squares = |v: &DMatrix<f64>, scale: f64| {
            let d = s.colloc_gradients.matmul(v);
            let d = DMatrix::from_fn(d.rows(), d.cols(), |q, i| scale * d.get(q, i));
            [product(v, v), product(v, &d), product(&d, &d)]
        };
        let [v2, vd, d2] = squares(&s.values, 1.0);
        let sub = |c: usize| {
            let [v2, vd, _] = squares(&s.sub_values[c], 2.0);
            [v2, vd]
        };
        let normal = |e: usize| {
            let (v, d) = (&s.face_values[e], &s.face_gradients[e]);
            [
                v.iter().map(|&x| T::from_f64(x * x)).collect(),
                v.iter().zip(d).map(|(&x, &y)| T::from_f64(x * y)).collect(),
            ]
        };
        Self {
            tangential: [[v2.clone(), vd.clone()], sub(0), sub(1)],
            cell: [v2, vd, d2],
            normal: [normal(0), normal(1)],
        }
    }
}

/// Cell block diagonal of batch `bi`, into `s.dofs`, from its merged cell
/// coefficient `C` ([`crate::geometry::CellGeometry::laplace`]):
/// `diag_i = Σ_q Σ_ab C_ab ∂_aφ_i ∂_bφ_i`. For a tensor-product `φ_i` the
/// product `∂_aφ_i ∂_bφ_i` factors into one 1-D table per direction, so
/// each symmetric pair `(a, b)` takes three sweeps from the points to the
/// dofs; the pairs `a ≠ b` count twice.
pub(crate) fn cell_diagonal<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    tables: &DiagonalTables<T>,
    bi: usize,
    s: &mut CellScratch<T, L>,
) {
    let (n, nq) = (mf.n_1d(), mf.n_q());
    let coeff = &mf.cell_geometry[bi].laplace;
    let two = T::from_f64(2.0);
    for (k, (a, b)) in COEFF_PAIRS.into_iter().enumerate() {
        for (x, c) in s.quad.iter_mut().zip(coeff.chunks_exact(6)) {
            *x = if a == b { c[k] } else { c[k] * two };
        }
        let table = |d: usize| &tables.cell[usize::from(a == d) + usize::from(b == d)];
        let (t1, t2) = (&mut s.tmp[..n * nq * nq], &mut s.tmp2[..n * n * nq]);
        apply_1d(table(0), &s.quad, t1, [nq, nq, nq], 0, false);
        apply_1d(table(1), t1, t2, [n, nq, nq], 1, false);
        apply_1d(table(2), t2, &mut s.dofs, [n, n, nq], 2, k > 0);
    }
}

/// `dst = (m0 ⊗ m1) src` (or `+=` when `add`) on the face grid: `src` is
/// `n_q × n_q`, `dst` is `(k+1) × (k+1)`.
fn contract_face<T: Real, const L: usize>(
    [m0, m1]: [&DMatrix<T>; 2],
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    tmp: &mut [Simd<T, L>],
    add: bool,
) {
    let (n, nq) = (m0.rows(), m0.cols());
    apply_1d_2d(m0, src, &mut tmp[..n * nq], [nq, nq], 0, false);
    apply_1d_2d(m1, &tmp[..n * nq], dst, [n, nq], 1, add);
}

/// Own-side block diagonal of face batch `bi` on `side`, into `s.dofs`:
/// `diag_i = Σ_q w_u φ_i² + w_n φ_i ∂_nφ_i`, with the point weights read
/// off [`own_side_flux`] for a unit trace (`w_u` and the gradient scale)
/// and a unit normal derivative (the SIPG gradient scale does not depend
/// on it). `∂_nφ_i = Σ_c gn_c ∂̂_cφ_i` splits into the normal direction and
/// the two tangential ones, so the sum is four 2-D contractions on the
/// face grid, expanded along the normal with `φ(s)²` and `φ(s) φ′(s)`.
pub(crate) fn face_diagonal<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    tables: &DiagonalTables<T>,
    bi: usize,
    side: FaceSide,
    s: &mut FaceScratch<T, L>,
) {
    let (n, nq) = (mf.n_1d(), mf.n_q());
    let (g, sigma) = (&mf.face_geometry[bi], mf.sigma[bi]);
    let (desc, gn) = side_of(mf, bi, side);
    let f = desc.face_no as usize;
    let d = f / 2;
    let (t1, t2) = tangential(d);
    let (one, z) = (Simd::splat(T::ONE), Simd::zero());
    // point weights in minus-frame order: `val` on φ², `grad[c]` on
    // φ ∂̂φ in the normal (c = 0) and the tangential directions (1, 2)
    for q in 0..nq * nq {
        let (w_u, gsc_u) = own_side_flux(side, one, z, sigma, g.jxw[q]);
        let (w_dn, gsc_dn) = own_side_flux(side, z, one, sigma, g.jxw[q]);
        debug_assert!((0..L).all(|l| gsc_dn[l] == T::ZERO));
        let w_n = w_dn + gsc_u;
        s.val[q] = w_u;
        for (c, dir) in [d, t1, t2].into_iter().enumerate() {
            s.grad[c][q] = w_n * gn[q * 3 + dir];
        }
    }
    // the plus side contracts in its own frame
    if desc.is_plus && desc.orientation != FaceOrientation::IDENTITY {
        permute_from_minus(desc.orientation, nq, &mut s.val, &mut s.tmp);
        for w in &mut s.grad {
            permute_from_minus(desc.orientation, nq, w, &mut s.tmp);
        }
    }
    let [[v0, vd0], [v1, vd1]] = [0, 1].map(|axis| {
        let half = desc.subface.map_or(0, |c| 1 + usize::from((c >> axis) & 1));
        &tables.tangential[half]
    });
    contract_face([v0, v1], &s.val, &mut s.nodal2d, &mut s.tmp, false);
    contract_face([vd0, v1], &s.grad[1], &mut s.nodal2d, &mut s.tmp, true);
    contract_face([v0, vd1], &s.grad[2], &mut s.nodal2d, &mut s.tmp, true);
    contract_face([v0, v1], &s.grad[0], &mut s.nodal2d_n, &mut s.tmp, false);
    let [vv, vd] = &tables.normal[f % 2];
    expand_dir(vv, &s.nodal2d, &mut s.dofs, [n, n, n], d, false);
    expand_dir(vd, &s.nodal2d_n, &mut s.dofs, [n, n, n], d, true);
}
