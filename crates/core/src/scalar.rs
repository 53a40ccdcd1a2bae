//! Passive scalar transport (gas concentration) on top of the flow solver.
//!
//! The paper (Sec. 2.2) singles out oxygen/CO₂ transport as the application
//! its flow-solver performance work is a prerequisite for. This module
//! supplies that next layer: a DG convection–diffusion solver
//! `∂c/∂t + ∇·(u c) = D Δc` sharing the velocity space, with upwind
//! (Lax–Friedrichs) advective fluxes evaluated explicitly against the
//! current velocity field and SIPG diffusion integrated implicitly —
//! the same IMEX splitting as the momentum equation.

use crate::field::{read_cell, read_face, DIM};
use crate::operators::{sum_component, HelmholtzOperator};
use crate::timeint::BdfCoefficients;
use dgflow_fem::evaluator::{
    evaluate_face, evaluate_values, gather_cell, gather_face_cells, integrate, integrate_face,
    scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch, FaceSideDesc,
};
use dgflow_fem::operators::for_each_point;
use dgflow_fem::util::SharedMut;
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MassOperator, MatrixFree};
use dgflow_simd::Simd;
use dgflow_solvers::{cg_solve, JacobiPreconditioner, LinearOperator};
use std::sync::Arc;

/// Boundary behaviour of the scalar per boundary id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalarBc {
    /// Prescribed concentration (e.g. fresh-gas inlet).
    Dirichlet(f64),
    /// Zero-diffusive-flux outflow/wall.
    Outflow,
}

/// Weak advective term `dst = ∫ −∇q·(c u) + ⟨[[q]], ĉ u·n⟩` with upwind
/// numerical flux; `u` in velocity layout, `c` scalar DG.
pub fn advect_term<const L: usize>(
    mf: &MatrixFree<f64, L>,
    bcs: &[ScalarBc],
    u: &[f64],
    c: &[f64],
    dst: &mut [f64],
) {
    assert!(mf.collocated());
    let dpc = mf.dofs_per_cell;
    let nq3 = mf.n_q().pow(3);
    let nq2 = mf.n_q() * mf.n_q();
    let bc_of = |id: u32| bcs.get(id as usize).copied().unwrap_or(ScalarBc::Outflow);

    // cells: -(∇q, c u)
    type CellBufs<const L: usize> = (CellScratch<f64, L>, CellScratch<f64, L>);
    let cell = |bi: usize, (sc, su): &mut CellBufs<L>, out: &SharedMut<f64>| {
        let b = &mf.cell_batches[bi];
        let g = &mf.cell_geometry[bi];
        gather_cell(b, c, dpc, 0, dpc, &mut sc.dofs);
        evaluate_values(mf, sc);
        // sc.grad[k] = −(Σ_d c u_d J^{-T}_{dk}) · JxW, summed over d in order
        read_cell(mf, bi, u, false, su, |d, su| {
            for q in 0..nq3 {
                let m = &g.jinvt[q * 9 + 3 * d..q * 9 + 3 * d + 3];
                let f = sc.quad[q] * su.quad[q];
                for k in 0..DIM {
                    sc.grad[k][q] = sum_component(d, sc.grad[k][q], f * m[k], g.jxw[q]);
                }
            }
        });
        integrate(mf, sc, false, true);
        scatter_add_cell(b, &sc.dofs, dpc, 0, dpc, out);
    };

    // faces: upwind flux ĉ (u·n)
    type FaceBufs<const L: usize> = (FaceScratch<f64, L>, FaceScratch<f64, L>, Vec<Simd<f64, L>>);
    let face = |bi: usize, (sm, sp, un): &mut FaceBufs<L>, out: &SharedMut<f64>| {
        let b = &mf.face_batches[bi];
        let g = &mf.face_geometry[bi];
        let cat = b.category;
        let desc_m = FaceSideDesc::minus(b);
        let desc_p = FaceSideDesc::plus(b);
        // normal velocity (average of the two traces)
        un.fill(Simd::zero());
        read_face(mf, bi, u, sm, Some(sp), |d, m, p| match p {
            Some(p) => {
                for q in 0..nq2 {
                    un[q] += (m[q] + p[q]) * Simd::splat(0.5) * g.normal[q * 3 + d];
                }
            }
            None => {
                for q in 0..nq2 {
                    un[q] += m[q] * g.normal[q * 3 + d];
                }
            }
        });
        // scalar traces c⁻ (in sm.val) and c⁺ (in sp.val)
        gather_face_cells(&b.minus, b.n_filled, c, dpc, 0, dpc, &mut sm.dofs);
        evaluate_face(mf, desc_m, false, sm);
        if cat.is_boundary {
            match bc_of(cat.boundary_id) {
                ScalarBc::Dirichlet(value) => {
                    // upwind: use the prescribed value where the
                    // flow enters, the interior trace where it exits
                    for q in 0..nq2 {
                        for l in 0..b.n_filled {
                            sp.val[q][l] = if un[q][l] < 0.0 { value } else { sm.val[q][l] };
                        }
                    }
                }
                ScalarBc::Outflow => sp.val.copy_from_slice(&sm.val),
            }
        } else {
            gather_face_cells(&b.plus, b.n_filled, c, dpc, 0, dpc, &mut sp.dofs);
            evaluate_face(mf, desc_p, false, sp);
        }
        // upwind flux: ĉ u·n = {{c}} u·n + |u·n|/2 [[c]]
        for q in 0..nq2 {
            let avg = (sm.val[q] + sp.val[q]) * Simd::splat(0.5);
            let jump = sm.val[q] - sp.val[q];
            let flux = (avg * un[q] + un[q].abs() * Simd::splat(0.5) * jump) * g.jxw[q];
            sm.val[q] = flux;
            sp.val[q] = -flux;
        }
        integrate_face(mf, desc_m, false, sm);
        scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, dpc, 0, dpc, out);
        if !cat.is_boundary {
            integrate_face(mf, desc_p, false, sp);
            scatter_add_face_cells(&b.plus, b.n_filled, &sp.dofs, dpc, 0, dpc, out);
        }
    };
    mf.loop_over(
        None,
        dst,
        (|| (CellScratch::new(mf), CellScratch::new(mf)), cell),
        (
            || {
                let (sm, sp) = (FaceScratch::new(mf), FaceScratch::new(mf));
                (sm, sp, vec![Simd::zero(); nq2])
            },
            face,
        ),
    );
}

/// IMEX scalar transport solver bound to a velocity space.
pub struct ScalarTransport<const L: usize> {
    /// Shared velocity-space context.
    pub mf: Arc<MatrixFree<f64, L>>,
    /// Per-boundary-id scalar conditions.
    pub bcs: Vec<ScalarBc>,
    /// Diffusivity `D` (m²/s).
    pub diffusivity: f64,
    /// Current concentration.
    pub concentration: Vec<f64>,
    old: Vec<f64>,
    adv_old: Vec<f64>,
    helmholtz: HelmholtzOperator<f64, L>,
    inv_mass: Vec<f64>,
    steps: usize,
}

impl<const L: usize> ScalarTransport<L> {
    /// Create with initial concentration `c0`.
    pub fn new(
        mf: Arc<MatrixFree<f64, L>>,
        bcs: Vec<ScalarBc>,
        diffusivity: f64,
        c0: Vec<f64>,
    ) -> Self {
        assert_eq!(c0.len(), mf.n_dofs());
        // diffusion BCs: Dirichlet where the scalar is prescribed
        let diff_bc: Vec<BoundaryCondition> = bcs
            .iter()
            .map(|b| match b {
                ScalarBc::Dirichlet(_) => BoundaryCondition::Dirichlet,
                ScalarBc::Outflow => BoundaryCondition::Neumann,
            })
            .collect();
        let lap = LaplaceOperator::with_bc(mf.clone(), diff_bc);
        let w = MassOperator::new(&mf).weights();
        let inv_mass: Vec<f64> = w.iter().map(|x| 1.0 / x).collect();
        let helmholtz = HelmholtzOperator::new(lap, w, diffusivity);
        let n = mf.n_dofs();
        Self {
            mf,
            bcs,
            diffusivity,
            old: c0.clone(),
            concentration: c0,
            adv_old: vec![0.0; n],
            helmholtz,
            inv_mass,
            steps: 0,
        }
    }

    /// Advance by `dt` with velocity `u` (BDF1 first, then BDF2 with
    /// `tau = dt/dt_old`).
    pub fn step(&mut self, u: &[f64], dt: f64, tau: f64) -> usize {
        let coeff = if self.steps == 0 {
            BdfCoefficients::bdf1()
        } else {
            BdfCoefficients::bdf2(tau)
        };
        let n = self.concentration.len();
        let mut adv = vec![0.0; n];
        advect_term(&self.mf, &self.bcs, u, &self.concentration, &mut adv);
        // rhs = M (α0 c + α1 c_old)/dt − Σ β_i A(c^{n−i}) + diffusion bc lift
        let gamma_dt = coeff.gamma0 / dt;
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let mass = (coeff.alpha[0] * self.concentration[i] + coeff.alpha[1] * self.old[i])
                / dt
                / self.inv_mass[i];
            rhs[i] = mass - coeff.beta[0] * adv[i] - coeff.beta[1] * self.adv_old[i];
        }
        let bcs = &self.bcs;
        let lift = self
            .helmholtz
            .laplace
            .boundary_rhs_by_id(&|id, _| match bcs.get(id as usize) {
                Some(ScalarBc::Dirichlet(v)) => *v,
                _ => 0.0,
            });
        for (r, l) in rhs.iter_mut().zip(&lift) {
            *r += self.diffusivity * l;
        }
        self.helmholtz.set_factor(gamma_dt);
        let pre = JacobiPreconditioner::new(self.helmholtz.diagonal());
        let mut c_new = self.concentration.clone();
        let res = cg_solve(&self.helmholtz, &pre, &rhs, &mut c_new, 1e-8, 500);
        self.old = std::mem::replace(&mut self.concentration, c_new);
        self.adv_old = adv;
        self.steps += 1;
        res.iterations
    }

    /// Total scalar content `∫ c dx`.
    pub fn total_mass(&self) -> f64 {
        let dpc = self.mf.dofs_per_cell;
        let mut total = 0.0;
        for_each_point(&self.mf, |c, i, _, jxw| {
            total += self.concentration[c * dpc + i] * jxw;
        });
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::interpolate_velocity;
    use dgflow_fem::operators::interpolate;
    use dgflow_fem::MfParams;
    use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};

    fn duct_mf() -> Arc<MatrixFree<f64, 4>> {
        let mut coarse = CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]);
        coarse.boundary_ids.insert((0, 0), 1);
        coarse.boundary_ids.insert((1, 1), 2);
        let mut forest = Forest::new(coarse);
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        Arc::new(MatrixFree::new(&forest, &manifold, MfParams::dg(2)))
    }

    #[test]
    fn uniform_concentration_is_steady_without_flow() {
        let mf = duct_mf();
        let c0 = vec![0.7; mf.n_dofs()];
        let mut st = ScalarTransport::new(
            mf.clone(),
            vec![
                ScalarBc::Outflow,
                ScalarBc::Dirichlet(0.7),
                ScalarBc::Outflow,
            ],
            1e-3,
            c0,
        );
        let u = vec![0.0; 3 * mf.n_dofs()];
        for _ in 0..5 {
            st.step(&u, 0.01, 1.0);
        }
        for &c in &st.concentration {
            assert!((c - 0.7).abs() < 1e-6, "{c}");
        }
    }

    #[test]
    fn diffusion_conserves_mass_with_outflow_walls() {
        // no-flux boundaries + pure diffusion: ∫c constant, c → mean
        let mf = duct_mf();
        let c0 = interpolate(&mf, &|x| if x[0] < 1.0 { 1.0 } else { 0.0 });
        let mut st = ScalarTransport::new(
            mf.clone(),
            vec![ScalarBc::Outflow, ScalarBc::Outflow, ScalarBc::Outflow],
            1.0,
            c0,
        );
        let u = vec![0.0; 3 * mf.n_dofs()];
        let m0 = st.total_mass();
        // implicit diffusion: large steps are fine; run past the domain's
        // diffusive time scale L²/D ≈ 4
        for _ in 0..40 {
            st.step(&u, 0.1, 1.0);
        }
        let m1 = st.total_mass();
        assert!((m1 - m0).abs() < 1e-8 * m0.abs().max(1.0), "{m0} vs {m1}");
        // approaches the mean (= 0.5 over volume 2)
        let spread = st
            .concentration
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| {
                (lo.min(c), hi.max(c))
            });
        assert!(spread.1 - spread.0 < 0.4, "{spread:?}");
    }

    #[test]
    fn fresh_gas_front_advects_downstream() {
        // uniform velocity along +x, inlet at x=0 with c=1, domain starts
        // at c=0: the front moves in and raises the mean concentration
        let mf = duct_mf();
        let c0 = vec![0.0; mf.n_dofs()];
        let mut st = ScalarTransport::new(
            mf.clone(),
            vec![
                ScalarBc::Outflow,
                ScalarBc::Dirichlet(1.0),
                ScalarBc::Outflow,
            ],
            1e-4,
            c0,
        );
        let u = interpolate_velocity(&mf, &|_| [1.0, 0.0, 0.0]);
        let dt = 0.01;
        let mut t = 0.0;
        for _ in 0..50 {
            st.step(&u, dt, 1.0);
            t += dt;
        }
        // mean concentration ≈ filled fraction t·U/L = 0.25
        let mean = st.total_mass() / 2.0;
        assert!(
            (mean - t / 2.0).abs() < 0.08,
            "mean {mean} vs expected {}",
            t / 2.0
        );
        // upstream saturated, downstream still clean
        let dpc = mf.dofs_per_cell;
        let g0 = &mf.cell_geometry[0];
        let mut upstream = 0.0;
        let mut n_up = 0;
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.cell_geometry[bi];
            for l in 0..b.n_filled {
                for i in 0..dpc {
                    let x = g.positions[i * 3][l];
                    if x < 0.2 {
                        upstream += st.concentration[dpc * b.cells[l] as usize + i];
                        n_up += 1;
                    }
                }
            }
        }
        let _ = g0;
        assert!(
            upstream / f64::from(n_up) > 0.8,
            "{}",
            upstream / f64::from(n_up)
        );
    }
}
