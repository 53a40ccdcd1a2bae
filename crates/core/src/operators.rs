//! The Navier–Stokes operator family of Sec. 2.3, all matrix-free:
//! convective term `C(U)` (divergence form, local Lax–Friedrichs flux),
//! velocity divergence `D(U)` and pressure gradient `G(P)` (central
//! fluxes, mixed-order `k`/`k−1`), the Helmholtz operator of the viscous
//! step, and the div-div + normal-continuity penalty operator `A_pen`.

use crate::bc::{BcKind, FlowBcs};
use crate::field::{
    for_each_node, n_velocity_dofs, read_cell, read_face, write_cell, write_face, DIM,
};
use dgflow_fem::evaluator::{
    evaluate_face, evaluate_values, gather_cell, gather_face_cells, integrate, integrate_face,
    scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch, FaceSideDesc,
};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{LaplaceOperator, MatrixFree};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// One step of `−(Σ_d t_d) · JxW` summed over the components `d = 0, 1, 2`
/// in order: `acc` is the partial sum before component `d`. The result is
/// the full sum only if it is called once for each `d` in increasing order,
/// the order in which [`read_cell`] visits the components.
pub(crate) fn sum_component<T: Real, const L: usize>(
    d: usize,
    acc: Simd<T, L>,
    t: Simd<T, L>,
    jxw: Simd<T, L>,
) -> Simd<T, L> {
    debug_assert!(d < DIM, "component {d} out of range");
    if d == 0 {
        t
    } else if d < DIM - 1 {
        acc + t
    } else {
        -(acc + t) * jxw
    }
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
    let nq3 = mf.n_q().pow(3);
    let nq2 = mf.n_q() * mf.n_q();
    let cell = |bi: usize,
                (s, uq): &mut (CellScratch<T, L>, [Vec<Simd<T, L>>; DIM]),
                out: &SharedMut<T>| {
        let g = &mf.cell_geometry[bi];
        read_cell(mf, bi, u, false, s, |d, s| uq[d].copy_from_slice(&s.quad));
        write_cell(mf, bi, s, out, |d, grad| {
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
                    grad[c][q] = -(f[0] * m[c] + f[1] * m[3 + c] + f[2] * m[6 + c]) * jxw;
                }
            }
        });
    };
    type FaceBufs<T, const L: usize> = (
        FaceScratch<T, L>,
        FaceScratch<T, L>,
        [[Vec<Simd<T, L>>; DIM]; 3],
    );
    let face = |bi: usize, (sm, sp, [um, up, flux]): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
        let cat = mf.face_batches[bi].category;
        let g = &mf.face_geometry[bi];
        read_face(mf, bi, u, sm, Some(sp), |d, m, p| {
            um[d].copy_from_slice(m);
            match (p, bcs.kind(cat.boundary_id)) {
                (Some(p), _) => up[d].copy_from_slice(p),
                // mirror: u⁺ = −u⁻ (no-slip)
                (None, BcKind::Wall) => {
                    for (a, &b) in up[d].iter_mut().zip(m) {
                        *a = -b;
                    }
                }
                // do-nothing: u⁺ = u⁻
                (None, BcKind::Pressure) => up[d].copy_from_slice(m),
            }
        });
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
        write_face(mf, bi, sm, out, |d, val| val.copy_from_slice(&flux[d]));
    };
    mf.loop_over(
        None,
        dst,
        (
            || {
                (
                    CellScratch::new(mf),
                    [(); DIM].map(|_| vec![Simd::zero(); nq3]),
                )
            },
            cell,
        ),
        (
            || {
                let bufs = [(); 3].map(|_| [(); DIM].map(|_| vec![Simd::zero(); nq2]));
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
    let dpc_p = mf_p.dofs_per_cell;
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    assert!(Arc::ptr_eq(&mf_u.geometry, &mf_p.geometry));
    let cell = |bi: usize,
                (su, sq): &mut (CellScratch<T, L>, CellScratch<T, L>),
                out: &SharedMut<T>| {
        let b = &mf_u.cell_batches[bi];
        let g = &mf_u.cell_geometry[bi];
        // sq.grad[c] = −(Σ_d u_d J^{-T}_{dc}) · JxW, summed over d in order
        read_cell(mf_u, bi, u, false, su, |d, su| {
            for q in 0..nq3 {
                let m = &g.jinvt[q * 9 + 3 * d..q * 9 + 3 * d + 3];
                for c in 0..DIM {
                    sq.grad[c][q] = sum_component(d, sq.grad[c][q], su.quad[q] * m[c], g.jxw[q]);
                }
            }
        });
        integrate(mf_p, sq, false, true);
        scatter_add_cell(b, &sq.dofs, dpc_p, 0, dpc_p, out);
    };
    type FaceBufs<T, const L: usize> = ([FaceScratch<T, L>; 3], Vec<Simd<T, L>>);
    let face = |bi: usize, ([sm, sp, sq], un_avg): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
        let b = &mf_u.face_batches[bi];
        let g = &mf_u.face_geometry[bi];
        let cat = b.category;
        if cat.is_boundary && bcs.kind(cat.boundary_id) == BcKind::Wall {
            return; // mirror: {{u}} = 0
        }
        un_avg.fill(Simd::zero());
        let half = T::from_f64(0.5);
        read_face(mf_u, bi, u, sm, Some(sp), |d, m, p| match p {
            Some(p) => {
                for q in 0..nq2 {
                    un_avg[q] += (m[q] + p[q]) * half * g.normal[q * 3 + d];
                }
            }
            // pressure boundary: {{u}} = u⁻
            None => {
                for q in 0..nq2 {
                    un_avg[q] += m[q] * g.normal[q * 3 + d];
                }
            }
        });
        for q in 0..nq2 {
            sq.val[q] = un_avg[q] * g.jxw[q];
        }
        integrate_face(mf_p, FaceSideDesc::minus(b), false, sq);
        scatter_add_face_cells(&b.minus, b.n_filled, &sq.dofs, dpc_p, 0, dpc_p, out);
        if !cat.is_boundary {
            for v in sq.val.iter_mut() {
                *v = -*v;
            }
            integrate_face(mf_p, FaceSideDesc::plus(b), false, sq);
            scatter_add_face_cells(&b.plus, b.n_filled, &sq.dofs, dpc_p, 0, dpc_p, out);
        }
    };
    mf_u.loop_over(
        None,
        dst,
        (|| (CellScratch::new(mf_u), CellScratch::new(mf_p)), cell),
        (
            || {
                let s = [mf_u, mf_u, mf_p].map(FaceScratch::new);
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
    let dpc_p = mf_p.dofs_per_cell;
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    assert!(Arc::ptr_eq(&mf_u.geometry, &mf_p.geometry));
    let cell =
        |bi: usize, (su, sq): &mut (CellScratch<T, L>, CellScratch<T, L>), out: &SharedMut<T>| {
            let b = &mf_u.cell_batches[bi];
            let g = &mf_u.cell_geometry[bi];
            gather_cell(b, p, dpc_p, 0, dpc_p, &mut sq.dofs);
            evaluate_values(mf_p, sq);
            write_cell(mf_u, bi, su, out, |d, grad| {
                for q in 0..nq3 {
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let s = -(sq.quad[q] * g.jxw[q]);
                    for c in 0..DIM {
                        grad[c][q] = m[3 * d + c] * s;
                    }
                }
            });
        };
    let face = |bi: usize, [su, qm, qp]: &mut [FaceScratch<T, L>; 3], out: &SharedMut<T>| {
        let b = &mf_u.face_batches[bi];
        let g = &mf_u.face_geometry[bi];
        let cat = b.category;
        // {{p}} into qm.val: p⁻ on walls, the prescribed g on pressure
        // boundaries, the average of both traces inside
        gather_face_cells(&b.minus, b.n_filled, p, dpc_p, 0, dpc_p, &mut qm.dofs);
        evaluate_face(mf_p, FaceSideDesc::minus(b), false, qm);
        if cat.is_boundary {
            if bcs.kind(cat.boundary_id) == BcKind::Pressure {
                let gp = T::from_f64(bcs.pressure(cat.boundary_id));
                qm.val.fill(Simd::splat(gp));
            }
        } else {
            gather_face_cells(&b.plus, b.n_filled, p, dpc_p, 0, dpc_p, &mut qp.dofs);
            evaluate_face(mf_p, FaceSideDesc::plus(b), false, qp);
            let half = T::from_f64(0.5);
            for (m, &p) in qm.val.iter_mut().zip(&qp.val) {
                *m = (*m + p) * half;
            }
        }
        write_face(mf_u, bi, su, out, |d, val| {
            for q in 0..nq2 {
                val[q] = qm.val[q] * g.normal[q * 3 + d] * g.jxw[q];
            }
        });
    };
    mf_u.loop_over(
        None,
        dst,
        (|| (CellScratch::new(mf_u), CellScratch::new(mf_p)), cell),
        (|| [mf_u, mf_p, mf_p].map(FaceScratch::new), face),
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
        n_velocity_dofs(self.mf)
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        let nq3 = mf.n_q().pow(3);
        let nq2 = mf.n_q() * mf.n_q();
        // mass part plus the div-div cell term
        let cell = |bi: usize,
                    (s, divu): &mut (CellScratch<T, L>, Vec<Simd<T, L>>),
                    out: &SharedMut<T>| {
            let b = &mf.cell_batches[bi];
            let g = &mf.cell_geometry[bi];
            for l in 0..b.n_filled {
                for_each_node(dpc, [b.cells[l] as usize], |j, _, i| {
                    // SAFETY: the loop runs concurrently only cell batches
                    // with disjoint cells, and this lane's cell is ours
                    unsafe { out.write(j, src[j] * g.jxw[i][l]) };
                });
            }
            let mut adiv = Simd::<T, L>::zero();
            for l in 0..b.n_filled {
                adiv[l] = self.a_div[b.cells[l] as usize];
            }
            divu.fill(Simd::zero());
            read_cell(mf, bi, src, true, s, |d, s| {
                for q in 0..nq3 {
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    divu[q] += s.grad[0][q] * m[3 * d]
                        + s.grad[1][q] * m[3 * d + 1]
                        + s.grad[2][q] * m[3 * d + 2];
                }
            });
            write_cell(mf, bi, s, out, |d, grad| {
                for q in 0..nq3 {
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let t = divu[q] * adiv * self.dt * g.jxw[q];
                    for c in 0..DIM {
                        grad[c][q] = m[3 * d + c] * t;
                    }
                }
            });
        };
        // normal-continuity face term (interior faces only)
        type FaceBufs<T, const L: usize> = (FaceScratch<T, L>, FaceScratch<T, L>, Vec<Simd<T, L>>);
        let face = |bi: usize, (sm, sp, jump_n): &mut FaceBufs<T, L>, out: &SharedMut<T>| {
            if mf.face_batches[bi].category.is_boundary {
                return;
            }
            let g = &mf.face_geometry[bi];
            jump_n.fill(Simd::zero());
            read_face(mf, bi, src, sm, Some(sp), |d, m, p| {
                let p = p.expect("interior face");
                for q in 0..nq2 {
                    jump_n[q] += (m[q] - p[q]) * g.normal[q * 3 + d];
                }
            });
            let ac = self.a_cont[bi];
            for q in 0..nq2 {
                jump_n[q] = jump_n[q] * ac * self.dt * g.jxw[q];
            }
            write_face(mf, bi, sm, out, |d, val| {
                for q in 0..nq2 {
                    val[q] = jump_n[q] * g.normal[q * 3 + d];
                }
            });
        };
        mf.loop_over(
            None,
            dst,
            (|| (CellScratch::new(mf), vec![Simd::zero(); nq3]), cell),
            (
                || {
                    let (sm, sp) = (FaceScratch::new(mf), FaceScratch::new(mf));
                    (sm, sp, vec![Simd::zero(); nq2])
                },
                face,
            ),
        );
    }

    fn diagonal(&self) -> Vec<T> {
        // mass-dominated; the penalty contribution is modest — the mass
        // diagonal is the standard preconditioner for this solve
        let mf = self.mf;
        let mut diag = vec![T::ZERO; self.len()];
        for (b, g) in mf.cell_batches.iter().zip(&mf.cell_geometry) {
            for l in 0..b.n_filled {
                for_each_node(mf.dofs_per_cell, [b.cells[l] as usize], |j, _, i| {
                    diag[j] = g.jxw[i][l];
                });
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
    boundary_flow_rates(mf, &[boundary_id], u)[0]
}

/// Flow rates `∫_Γ u·n` through the faces of each boundary id in `ids`
/// (positive = out of the domain), in one pass over the face batches.
/// Each id's sum runs in batch order, so entry `k` equals
/// [`boundary_flow_rate`] of `ids[k]` bit for bit.
pub fn boundary_flow_rates<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    ids: &[u32],
    u: &[T],
) -> Vec<f64> {
    let nq2 = mf.n_q() * mf.n_q();
    // the sum of each distinct id, and the sum of each requested id
    let mut slot = std::collections::HashMap::new();
    let of_id: Vec<usize> = ids
        .iter()
        .map(|&id| {
            let n = slot.len();
            *slot.entry(id).or_insert(n)
        })
        .collect();
    let mut totals = vec![0.0; slot.len()];
    let mut sm = FaceScratch::<T, L>::new(mf);
    for (bi, b) in mf.face_batches.iter().enumerate() {
        let cat = b.category;
        if !cat.is_boundary {
            continue;
        }
        let Some(&k) = slot.get(&cat.boundary_id) else {
            continue;
        };
        let total = &mut totals[k];
        let g = &mf.face_geometry[bi];
        read_face(mf, bi, u, &mut sm, None, |d, m, _| {
            for q in 0..nq2 {
                let c = m[q] * g.normal[q * 3 + d] * g.jxw[q];
                for l in 0..b.n_filled {
                    *total += c[l].to_f64();
                }
            }
        });
    }
    of_id.into_iter().map(|k| totals[k]).collect()
}
