//! The Navier–Stokes operator family of Sec. 2.3, all matrix-free:
//! convective term `C(U)` (divergence form, local Lax–Friedrichs flux),
//! velocity divergence `D(U)` and pressure gradient `G(P)` (central
//! fluxes, mixed-order `k`/`k−1`), the Helmholtz operator of the viscous
//! step, and the div-div + normal-continuity penalty operator `A_pen`.

use crate::bc::{BcKind, FlowBcs};
use crate::field::DIM;
use dgflow_fem::evaluator::{
    evaluate_face, evaluate_gradients, evaluate_values, gather_cell, gather_face_cells, integrate,
    integrate_face, scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch,
    FaceSideDesc,
};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{LaplaceOperator, MatrixFree};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// Velocity stride per cell.
fn ustride<T: Real, const L: usize>(mf: &MatrixFree<T, L>) -> usize {
    DIM * mf.dofs_per_cell
}

/// `[n; 3]` zeroed point buffers, one per velocity component.
fn component_buffers<T: Real, const L: usize>(n: usize) -> [Vec<Simd<T, L>>; DIM] {
    std::array::from_fn(|_| vec![Simd::zero(); n])
}

/// Weak convective term: `dst = ∫ −∇v : (u⊗u) + ⟨v, Φ*(u⁻,u⁺)·n⟩` —
/// apply `M^{-1}` afterwards to get the strong update of Eq. (1).
pub fn convective_term<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    u: &[T],
    dst: &mut [T],
) {
    assert!(mf.collocated(), "convective kernel assumes collocation");
    let dpc = mf.dofs_per_cell;
    let stride = ustride(mf);
    let nq3 = mf.n_q().pow(3);
    let nq2 = mf.n_q() * mf.n_q();
    let cell = |bi: usize,
                (s, uq): &mut (CellScratch<T, L>, [Vec<Simd<T, L>>; DIM]),
                out: &SharedMut<T>| {
        let b = &mf.cell_batches[bi];
        let g = &mf.cell_geometry[bi];
        for (d, uqd) in uq.iter_mut().enumerate() {
            // collocated: nodal values *are* the quadrature values, so
            // gather straight into the batch buffer (no copy chain).
            gather_cell(b, u, stride, d * dpc, dpc, uqd);
        }
        for d in 0..DIM {
            for q in 0..nq3 {
                let jxw = g.jxw[q];
                let m = &g.jinvt[q * 9..q * 9 + 9];
                // flux F_d = u_d * u; ref-test flux t_c = −Σ_e J^{-T}_{ec} F_de · JxW
                let f = [
                    uq[d][q] * uq[0][q],
                    uq[d][q] * uq[1][q],
                    uq[d][q] * uq[2][q],
                ];
                for c in 0..DIM {
                    s.grad[c][q] = -(f[0] * m[c] + f[1] * m[3 + c] + f[2] * m[6 + c]) * jxw;
                }
            }
            integrate(mf, s, false, true);
            scatter_add_cell(b, &s.dofs, stride, d * dpc, dpc, out);
        }
    };
    type FaceBufs<T, const L: usize> = (
        FaceScratch<T, L>,
        FaceScratch<T, L>,
        [[Vec<Simd<T, L>>; DIM]; 3],
    );
    let face = |bi: usize, (sm, sp, [um, up, flux]): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
        let b = &mf.face_batches[bi];
        let g = &mf.face_geometry[bi];
        let cat = b.category;
        let desc_m = FaceSideDesc::minus(b);
        for d in 0..DIM {
            gather_face_cells(&b.minus, b.n_filled, u, stride, d * dpc, dpc, &mut sm.dofs);
            evaluate_face(mf, desc_m, false, sm);
            um[d].copy_from_slice(&sm.val);
        }
        let desc_p = FaceSideDesc::plus(b);
        if cat.is_boundary {
            match bcs.kind(cat.boundary_id) {
                // mirror: u⁺ = −u⁻ (no-slip)
                BcKind::Wall => {
                    for d in 0..DIM {
                        for q in 0..nq2 {
                            up[d][q] = -um[d][q];
                        }
                    }
                }
                // do-nothing: u⁺ = u⁻
                BcKind::Pressure => {
                    for d in 0..DIM {
                        up[d].copy_from_slice(&um[d]);
                    }
                }
            }
        } else {
            for d in 0..DIM {
                gather_face_cells(&b.plus, b.n_filled, u, stride, d * dpc, dpc, &mut sp.dofs);
                evaluate_face(mf, desc_p, false, sp);
                up[d].copy_from_slice(&sp.val);
            }
        }
        // pointwise LLF flux Φ_d = {{u_d u}}·n + λ/2 (u_d⁻ − u_d⁺)
        let half = T::from_f64(0.5);
        for q in 0..nq2 {
            let n = [g.normal[q * 3], g.normal[q * 3 + 1], g.normal[q * 3 + 2]];
            let unm = um[0][q] * n[0] + um[1][q] * n[1] + um[2][q] * n[2];
            let unp = up[0][q] * n[0] + up[1][q] * n[1] + up[2][q] * n[2];
            let lambda = unm.abs().max(unp.abs());
            let jxw = g.jxw[q];
            for d in 0..DIM {
                let avg = (um[d][q] * unm + up[d][q] * unp) * half;
                let phi = avg + lambda * half * (um[d][q] - up[d][q]);
                flux[d][q] = phi * jxw;
            }
        }
        for d in 0..DIM {
            sm.val.copy_from_slice(&flux[d]);
            integrate_face(mf, desc_m, false, sm);
            scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, stride, d * dpc, dpc, out);
            if !cat.is_boundary {
                for q in 0..nq2 {
                    sp.val[q] = -flux[d][q];
                }
                integrate_face(mf, desc_p, false, sp);
                scatter_add_face_cells(&b.plus, b.n_filled, &sp.dofs, stride, d * dpc, dpc, out);
            }
        }
    };
    mf.loop_over(
        None,
        dst,
        (|| (CellScratch::new(mf), component_buffers(nq3)), cell),
        (
            || {
                let bufs = std::array::from_fn(|_| component_buffers(nq2));
                (FaceScratch::new(mf), FaceScratch::new(mf), bufs)
            },
            face,
        ),
    );
}

/// Weak velocity divergence into the pressure space:
/// `dst_q = −(∇q, u) + ⟨[[q]], {{u}}·n⟩` (walls contribute no flux since
/// the mirrored normal velocity vanishes).
pub fn divergence<T: Real, const L: usize>(
    mf_u: &MatrixFree<T, L>,
    mf_p: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    u: &[T],
    dst: &mut [T],
) {
    let dpc_u = mf_u.dofs_per_cell;
    let dpc_p = mf_p.dofs_per_cell;
    let stride = ustride(mf_u);
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    assert!(Arc::ptr_eq(&mf_u.geometry, &mf_p.geometry));
    type CellBufs<T, const L: usize> =
        (CellScratch<T, L>, CellScratch<T, L>, [Vec<Simd<T, L>>; DIM]);
    let cell = |bi: usize, (su, sq, uq): &mut CellBufs<T, L>, out: &SharedMut<T>| {
        let b = &mf_u.cell_batches[bi];
        let g = &mf_u.cell_geometry[bi];
        for d in 0..DIM {
            gather_cell(b, u, stride, d * dpc_u, dpc_u, &mut su.dofs);
            evaluate_values(mf_u, su);
            uq[d].copy_from_slice(&su.quad);
        }
        for q in 0..nq3 {
            let jxw = g.jxw[q];
            let m = &g.jinvt[q * 9..q * 9 + 9];
            for c in 0..DIM {
                sq.grad[c][q] =
                    -(uq[0][q] * m[c] + uq[1][q] * m[3 + c] + uq[2][q] * m[6 + c]) * jxw;
            }
        }
        integrate(mf_p, sq, false, true);
        scatter_add_cell(b, &sq.dofs, dpc_p, 0, dpc_p, out);
    };
    type FaceBufs<T, const L: usize> = ([FaceScratch<T, L>; 4], Vec<Simd<T, L>>);
    let face = |bi: usize, ([sm, sp, qm, qp], un_avg): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
        let b = &mf_u.face_batches[bi];
        let g = &mf_u.face_geometry[bi];
        let cat = b.category;
        let desc_m = FaceSideDesc::minus(b);
        let desc_p = FaceSideDesc::plus(b);
        un_avg.fill(Simd::zero());
        let half = T::from_f64(0.5);
        for d in 0..DIM {
            gather_face_cells(
                &b.minus,
                b.n_filled,
                u,
                stride,
                d * dpc_u,
                dpc_u,
                &mut sm.dofs,
            );
            evaluate_face(mf_u, desc_m, false, sm);
            if cat.is_boundary {
                match bcs.kind(cat.boundary_id) {
                    BcKind::Wall => { /* mirror: {{u}} = 0 */ }
                    BcKind::Pressure => {
                        for q in 0..nq2 {
                            un_avg[q] += sm.val[q] * g.normal[q * 3 + d];
                        }
                    }
                }
            } else {
                gather_face_cells(
                    &b.plus,
                    b.n_filled,
                    u,
                    stride,
                    d * dpc_u,
                    dpc_u,
                    &mut sp.dofs,
                );
                evaluate_face(mf_u, desc_p, false, sp);
                for q in 0..nq2 {
                    un_avg[q] += (sm.val[q] + sp.val[q]) * half * g.normal[q * 3 + d];
                }
            }
        }
        if cat.is_boundary && bcs.kind(cat.boundary_id) == BcKind::Wall {
            return;
        }
        for q in 0..nq2 {
            qm.val[q] = un_avg[q] * g.jxw[q];
        }
        if !cat.is_boundary {
            for q in 0..nq2 {
                qp.val[q] = -qm.val[q];
            }
        }
        integrate_face(mf_p, desc_m, false, qm);
        scatter_add_face_cells(&b.minus, b.n_filled, &qm.dofs, dpc_p, 0, dpc_p, out);
        if !cat.is_boundary {
            integrate_face(mf_p, desc_p, false, qp);
            scatter_add_face_cells(&b.plus, b.n_filled, &qp.dofs, dpc_p, 0, dpc_p, out);
        }
    };
    mf_u.loop_over(
        None,
        dst,
        (
            || {
                (
                    CellScratch::new(mf_u),
                    CellScratch::new(mf_p),
                    component_buffers(nq3),
                )
            },
            cell,
        ),
        (
            || {
                let s = [mf_u, mf_u, mf_p, mf_p].map(FaceScratch::new);
                (s, vec![Simd::zero(); nq2])
            },
            face,
        ),
    );
}

/// Weak pressure gradient into the velocity space:
/// `dst_v = −(∇·v, p) + ⟨[[v]]·n, {{p}}⟩`, with `{{p}} = g` on pressure
/// boundaries (the prescribed value enters directly since `G` acts on a
/// known field) and `{{p}} = p⁻` on walls.
pub fn gradient<T: Real, const L: usize>(
    mf_u: &MatrixFree<T, L>,
    mf_p: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    p: &[T],
    dst: &mut [T],
) {
    let dpc_u = mf_u.dofs_per_cell;
    let dpc_p = mf_p.dofs_per_cell;
    let stride = ustride(mf_u);
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    assert!(Arc::ptr_eq(&mf_u.geometry, &mf_p.geometry));
    type CellBufs<T, const L: usize> = (CellScratch<T, L>, CellScratch<T, L>, Vec<Simd<T, L>>);
    let cell = |bi: usize, (su, sq, pq): &mut CellBufs<T, L>, out: &SharedMut<T>| {
        let b = &mf_u.cell_batches[bi];
        let g = &mf_u.cell_geometry[bi];
        gather_cell(b, p, dpc_p, 0, dpc_p, &mut sq.dofs);
        evaluate_values(mf_p, sq);
        pq.copy_from_slice(&sq.quad);
        for d in 0..DIM {
            for q in 0..nq3 {
                let jxw = g.jxw[q];
                let m = &g.jinvt[q * 9..q * 9 + 9];
                let s = -(pq[q] * jxw);
                for c in 0..DIM {
                    su.grad[c][q] = m[3 * d + c] * s;
                }
            }
            integrate(mf_u, su, false, true);
            scatter_add_cell(b, &su.dofs, stride, d * dpc_u, dpc_u, out);
        }
    };
    type FaceBufs<T, const L: usize> = ([FaceScratch<T, L>; 4], Vec<Simd<T, L>>);
    let face =
        |bi: usize, ([su_m, su_p, qm, qp], p_avg): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
            let b = &mf_u.face_batches[bi];
            let g = &mf_u.face_geometry[bi];
            let cat = b.category;
            let desc_m = FaceSideDesc::minus(b);
            let desc_p = FaceSideDesc::plus(b);
            gather_face_cells(&b.minus, b.n_filled, p, dpc_p, 0, dpc_p, &mut qm.dofs);
            evaluate_face(mf_p, desc_m, false, qm);
            if cat.is_boundary {
                match bcs.kind(cat.boundary_id) {
                    BcKind::Wall => p_avg.copy_from_slice(&qm.val),
                    BcKind::Pressure => {
                        let gp = T::from_f64(bcs.pressure(cat.boundary_id));
                        p_avg.fill(Simd::splat(gp));
                    }
                }
            } else {
                gather_face_cells(&b.plus, b.n_filled, p, dpc_p, 0, dpc_p, &mut qp.dofs);
                evaluate_face(mf_p, desc_p, false, qp);
                let half = T::from_f64(0.5);
                for q in 0..nq2 {
                    p_avg[q] = (qm.val[q] + qp.val[q]) * half;
                }
            }
            for d in 0..DIM {
                for q in 0..nq2 {
                    su_m.val[q] = p_avg[q] * g.normal[q * 3 + d] * g.jxw[q];
                }
                if !cat.is_boundary {
                    for q in 0..nq2 {
                        su_p.val[q] = -su_m.val[q];
                    }
                }
                integrate_face(mf_u, desc_m, false, su_m);
                scatter_add_face_cells(
                    &b.minus,
                    b.n_filled,
                    &su_m.dofs,
                    stride,
                    d * dpc_u,
                    dpc_u,
                    out,
                );
                if !cat.is_boundary {
                    integrate_face(mf_u, desc_p, false, su_p);
                    scatter_add_face_cells(
                        &b.plus,
                        b.n_filled,
                        &su_p.dofs,
                        stride,
                        d * dpc_u,
                        dpc_u,
                        out,
                    );
                }
            }
        };
    mf_u.loop_over(
        None,
        dst,
        (
            || {
                (
                    CellScratch::new(mf_u),
                    CellScratch::new(mf_p),
                    vec![Simd::zero(); nq3],
                )
            },
            cell,
        ),
        (
            || {
                let s = [mf_u, mf_u, mf_p, mf_p].map(FaceScratch::new);
                (s, vec![Simd::zero(); nq2])
            },
            face,
        ),
    );
}

/// Helmholtz operator of the viscous step: `(γ₀/Δt) M + ν L`, applied to
/// one scalar velocity component.
pub struct HelmholtzOperator<T: Real, const L: usize> {
    /// The SIPG Laplacian with velocity boundary conditions.
    pub laplace: LaplaceOperator<T, L>,
    /// Mass weights (`jxw` per DoF).
    pub mass_weights: Vec<T>,
    /// Cached Laplacian diagonal.
    lap_diag: Vec<T>,
    /// `γ₀/Δt`.
    pub factor: T,
    /// Kinematic viscosity.
    pub nu: T,
}

impl<T: Real, const L: usize> HelmholtzOperator<T, L> {
    /// Build from a Laplacian (BCs included) and mass weights.
    pub fn new(laplace: LaplaceOperator<T, L>, mass_weights: Vec<T>, nu: T) -> Self {
        let lap_diag = laplace.compute_diagonal();
        Self {
            laplace,
            mass_weights,
            lap_diag,
            factor: T::ONE,
            nu,
        }
    }

    /// Update the time-step factor `γ₀/Δt`.
    pub fn set_factor(&mut self, factor: T) {
        self.factor = factor;
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for HelmholtzOperator<T, L> {
    fn len(&self) -> usize {
        self.mass_weights.len()
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        self.laplace.apply(src, dst);
        for ((d, s), w) in dst.iter_mut().zip(src).zip(&self.mass_weights) {
            *d = *d * self.nu + self.factor * *w * *s;
        }
    }
    fn diagonal(&self) -> Vec<T> {
        self.lap_diag
            .iter()
            .zip(&self.mass_weights)
            .map(|(&l, &w)| l * self.nu + self.factor * w)
            .collect()
    }
}

/// The penalty operator of Eq. (5): `M + Δt (a_D div-div + a_C continuity)`,
/// acting on the full velocity vector.
pub struct PenaltyOperator<'a, T: Real, const L: usize> {
    /// Velocity matrix-free context.
    pub mf: &'a MatrixFree<T, L>,
    /// `Δt`.
    pub dt: T,
    /// Per-cell divergence-penalty coefficient `ζ_D ‖u‖_e h_e/(k+1)`.
    pub a_div: Vec<T>,
    /// Per-face-batch continuity-penalty coefficient `ζ_C ‖u‖` (lane-wise).
    pub a_cont: Vec<Simd<T, L>>,
}

impl<'a, T: Real, const L: usize> PenaltyOperator<'a, T, L> {
    /// Compute the velocity-dependent penalty coefficients (recomputed
    /// every time step, like ExaDG).
    pub fn new(
        mf: &'a MatrixFree<T, L>,
        u_scale: &[f64],
        dt: f64,
        zeta_div: f64,
        zeta_cont: f64,
    ) -> Self {
        let k1 = (mf.params.degree + 1) as f64;
        let a_div: Vec<T> = (0..mf.n_cells)
            .map(|c| {
                let h = mf.cell_volumes[c].cbrt();
                T::from_f64(zeta_div * u_scale[c].max(1e-12) * h / k1)
            })
            .collect();
        let a_cont: Vec<Simd<T, L>> = mf
            .face_batches
            .iter()
            .map(|b| {
                let mut v = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    let mut s = u_scale[b.minus[l] as usize];
                    if b.plus[l] != u32::MAX {
                        s = s.max(u_scale[b.plus[l] as usize]);
                    }
                    v[l] = T::from_f64(zeta_cont * s.max(1e-12));
                }
                v
            })
            .collect();
        Self {
            mf,
            dt: T::from_f64(dt),
            a_div,
            a_cont,
        }
    }
}

impl<'a, T: Real, const L: usize> LinearOperator<T> for PenaltyOperator<'a, T, L> {
    fn len(&self) -> usize {
        DIM * self.mf.n_dofs()
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        let stride = ustride(mf);
        let nq3 = mf.n_q().pow(3);
        let nq2 = mf.n_q() * mf.n_q();
        // mass part plus the div-div cell term
        let cell = |bi: usize,
                    (s, divu): &mut (CellScratch<T, L>, Vec<Simd<T, L>>),
                    out: &SharedMut<T>| {
            let b = &mf.cell_batches[bi];
            let g = &mf.cell_geometry[bi];
            for l in 0..b.n_filled {
                let base = stride * b.cells[l] as usize;
                for i in 0..DIM * dpc {
                    // SAFETY: the loop runs concurrently only cell batches
                    // with disjoint cells, and this lane's cell is ours
                    unsafe { out.write(base + i, src[base + i] * g.jxw[i % dpc][l]) };
                }
            }
            let mut adiv = Simd::<T, L>::zero();
            for l in 0..b.n_filled {
                adiv[l] = self.a_div[b.cells[l] as usize];
            }
            divu.fill(Simd::zero());
            for d in 0..DIM {
                gather_cell(b, src, stride, d * dpc, dpc, &mut s.dofs);
                evaluate_values(mf, s);
                evaluate_gradients(mf, s);
                for q in 0..nq3 {
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    divu[q] += s.grad[0][q] * m[3 * d]
                        + s.grad[1][q] * m[3 * d + 1]
                        + s.grad[2][q] * m[3 * d + 2];
                }
            }
            for d in 0..DIM {
                for q in 0..nq3 {
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let t = divu[q] * adiv * self.dt * g.jxw[q];
                    for c in 0..DIM {
                        s.grad[c][q] = m[3 * d + c] * t;
                    }
                }
                integrate(mf, s, false, true);
                scatter_add_cell(b, &s.dofs, stride, d * dpc, dpc, out);
            }
        };
        // normal-continuity face term (interior faces only)
        type FaceBufs<T, const L: usize> = (
            FaceScratch<T, L>,
            FaceScratch<T, L>,
            Vec<Simd<T, L>>,
            [[Vec<Simd<T, L>>; DIM]; 2],
        );
        let face = |bi: usize,
                    (sm, sp, jump_n, [um, up]): &mut FaceBufs<T, L>,
                    out: &SharedMut<T>| {
            let b = &mf.face_batches[bi];
            if b.category.is_boundary {
                return;
            }
            let g = &mf.face_geometry[bi];
            let desc_m = FaceSideDesc::minus(b);
            let desc_p = FaceSideDesc::plus(b);
            for d in 0..DIM {
                gather_face_cells(
                    &b.minus,
                    b.n_filled,
                    src,
                    stride,
                    d * dpc,
                    dpc,
                    &mut sm.dofs,
                );
                evaluate_face(mf, desc_m, false, sm);
                um[d].copy_from_slice(&sm.val);
                gather_face_cells(&b.plus, b.n_filled, src, stride, d * dpc, dpc, &mut sp.dofs);
                evaluate_face(mf, desc_p, false, sp);
                up[d].copy_from_slice(&sp.val);
            }
            let ac = self.a_cont[bi];
            for q in 0..nq2 {
                let mut j = Simd::<T, L>::zero();
                for d in 0..DIM {
                    j += (um[d][q] - up[d][q]) * g.normal[q * 3 + d];
                }
                jump_n[q] = j * ac * self.dt * g.jxw[q];
            }
            for d in 0..DIM {
                for q in 0..nq2 {
                    sm.val[q] = jump_n[q] * g.normal[q * 3 + d];
                    sp.val[q] = -sm.val[q];
                }
                integrate_face(mf, desc_m, false, sm);
                scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, stride, d * dpc, dpc, out);
                integrate_face(mf, desc_p, false, sp);
                scatter_add_face_cells(&b.plus, b.n_filled, &sp.dofs, stride, d * dpc, dpc, out);
            }
        };
        mf.loop_over(
            None,
            dst,
            (|| (CellScratch::new(mf), vec![Simd::zero(); nq3]), cell),
            (
                || {
                    let bufs = [component_buffers(nq2), component_buffers(nq2)];
                    (
                        FaceScratch::new(mf),
                        FaceScratch::new(mf),
                        vec![Simd::zero(); nq2],
                        bufs,
                    )
                },
                face,
            ),
        );
    }

    fn diagonal(&self) -> Vec<T> {
        // mass-dominated; the penalty contribution is modest — the mass
        // diagonal is the standard preconditioner for this solve
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        let stride = ustride(mf);
        let mut diag = vec![T::ZERO; DIM * mf.n_dofs()];
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.cell_geometry[bi];
            for l in 0..b.n_filled {
                let base = stride * b.cells[l] as usize;
                for d in 0..DIM {
                    for i in 0..dpc {
                        diag[base + d * dpc + i] = g.jxw[i][l];
                    }
                }
            }
        }
        diag
    }
}

/// Flow rate `∫_Γ u·n` through all faces of one boundary id (positive =
/// out of the domain).
pub fn boundary_flow_rate<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    boundary_id: u32,
    u: &[T],
) -> f64 {
    let dpc = mf.dofs_per_cell;
    let stride = ustride(mf);
    let nq2 = mf.n_q() * mf.n_q();
    let mut sm = FaceScratch::<T, L>::new(mf);
    let mut total = 0.0;
    for (bi, b) in mf.face_batches.iter().enumerate() {
        let cat = b.category;
        if !cat.is_boundary || cat.boundary_id != boundary_id {
            continue;
        }
        let g = &mf.face_geometry[bi];
        let desc = FaceSideDesc::minus(b);
        for d in 0..DIM {
            gather_face_cells(&b.minus, b.n_filled, u, stride, d * dpc, dpc, &mut sm.dofs);
            evaluate_face(mf, desc, false, &mut sm);
            for q in 0..nq2 {
                let c = sm.val[q] * g.normal[q * 3 + d] * g.jxw[q];
                for l in 0..b.n_filled {
                    total += c[l].to_f64();
                }
            }
        }
    }
    total
}
