//! The SIPG quadrature-point formulas of the Laplacian, one function per
//! formula, shared by the DG and CG operators, their diagonals and
//! assembly, and the distributed apply.

use crate::evaluator::{
    evaluate_face, evaluate_gradients, evaluate_values, integrate, integrate_face, CellScratch,
    FaceScratch, FaceSideDesc,
};
use crate::geometry::{CellGeometry, FaceGeometry};
use crate::matrixfree::MatrixFree;
use dgflow_simd::{Real, Simd};

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

/// Nitsche boundary flux, in place on the minus side's traces: the mirror
/// ghost `u⁺ = −u⁻`, `∂n u⁺ = ∂n u⁻` in the interior flux.
fn nitsche_boundary_flux<T: Real, const L: usize>(
    g: &FaceGeometry<T, L>,
    s: &mut FaceScratch<T, L>,
) {
    for q in 0..g.jxw.len() {
        let u = s.val[q];
        let dn = normal_derivative(s, &g.g_minus, q);
        let jxw = g.jxw[q];
        let vflux = (u * g.sigma * T::from_f64(2.0) - dn) * jxw;
        set_flux(s, &g.g_minus, q, vflux, -(u * jxw));
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
    sm: &mut FaceScratch<T, L>,
    sp: &mut FaceScratch<T, L>,
) {
    for q in 0..g.jxw.len() {
        let dn = [
            normal_derivative(sm, &g.g_minus, q),
            normal_derivative(sp, &g.g_plus, q),
        ];
        let (vflux, gsc) = interior_flux([sm.val[q], sp.val[q]], dn, g.sigma, g.jxw[q]);
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
    let (b, g) = (&mf.face_batches[bi], &mf.face_geometry[bi]);
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
        s.val[q] = gv * g.sigma * T::from_f64(2.0) * jxw;
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
    nitsche_boundary_flux(&mf.face_geometry[bi], s);
    integrate_face(mf, desc, true, s);
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

/// Column `i` of the local Nitsche matrices of boundary face batch `bi`,
/// into `s.dofs`.
pub(crate) fn boundary_column<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    i: usize,
    s: &mut FaceScratch<T, L>,
) {
    unit(&mut s.dofs, i);
    nitsche_boundary_term(mf, bi, s);
}

/// Column `i` of the own-side block of interior face batch `bi` on the
/// minus (`plus = false`) or plus side, into `s.dofs`: the interior flux
/// with the other side's trace zero.
pub(crate) fn interior_side_column<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    plus: bool,
    i: usize,
    s: &mut FaceScratch<T, L>,
) {
    let (b, g) = (&mf.face_batches[bi], &mf.face_geometry[bi]);
    let (desc, gn) = if plus {
        (FaceSideDesc::plus(b), &g.g_plus)
    } else {
        (FaceSideDesc::minus(b), &g.g_minus)
    };
    unit(&mut s.dofs, i);
    evaluate_face(mf, desc, true, s);
    let z = Simd::zero();
    for q in 0..g.jxw.len() {
        let (u, dn) = (s.val[q], normal_derivative(s, gn, q));
        let (vflux, gsc) = if plus {
            let (vflux, gsc) = interior_flux([z, u], [z, dn], g.sigma, g.jxw[q]);
            (-vflux, gsc)
        } else {
            interior_flux([u, z], [dn, z], g.sigma, g.jxw[q])
        };
        set_flux(s, gn, q, vflux, gsc);
    }
    integrate_face(mf, desc, true, s);
}
