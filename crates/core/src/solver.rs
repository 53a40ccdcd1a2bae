//! The dual-splitting incompressible Navier–Stokes solver (Sec. 2.4):
//! explicit convective step (1), pressure Poisson step (2), projection (3),
//! viscous Helmholtz step (4), and the divergence/continuity penalty step
//! (5), with adaptive CFL time stepping. Each linear solve warm-starts
//! from the previous step's value of its unknown.

use crate::bc::FlowBcs;
use crate::field::{cell_velocity_scale, for_each_node, n_velocity_dofs, DIM};
use crate::operators::{convective_term, divergence, gradient, HelmholtzOperator, PenaltyOperator};
use crate::timeint::{BdfCoefficients, CflController};
use dgflow_fem::{LaplaceOperator, Mapping, MassOperator, MatrixFree, MfParams};
use dgflow_mesh::{Forest, Manifold};
use dgflow_multigrid::{HybridMultigrid, MgParams, MixedPrecisionMg};
use dgflow_solvers::{cg_solve, JacobiPreconditioner, Preconditioner};
use dgflow_tensor::{NodeSet, ShapeInfo1D};
use std::sync::Arc;

/// Memoization hooks for the expensive, shareable parts of solver
/// construction: the polynomial geometry sampling (per mesh and mapping
/// degree) and the 1-D shape tables (per degree/node-set/quadrature).
///
/// A campaign runtime implements this once and hands the same cache to
/// every [`FlowSolver::with_setup`] call, so a degree sweep over one mesh
/// samples the manifold once and derives no Lagrange table twice; the
/// metric terms are still evaluated per solver, from the shared
/// `Mapping`. The default [`FreshSetup`] builds everything from scratch.
pub trait SolverSetup {
    /// Geometry sampling for `forest` at polynomial `mapping_degree`.
    fn mapping(
        &self,
        forest: &Forest,
        manifold: &dyn Manifold,
        mapping_degree: usize,
    ) -> Arc<Mapping>;

    /// 1-D shape tables for one `(degree, node set, quadrature)` triple.
    fn shape(&self, degree: usize, node_set: NodeSet, n_q: usize) -> Arc<ShapeInfo1D<f64>>;
}

/// The no-cache [`SolverSetup`]: every request is built fresh.
#[derive(Clone, Copy, Debug, Default)]
pub struct FreshSetup;

impl SolverSetup for FreshSetup {
    fn mapping(
        &self,
        forest: &Forest,
        manifold: &dyn Manifold,
        mapping_degree: usize,
    ) -> Arc<Mapping> {
        Arc::new(Mapping::build(forest, manifold, mapping_degree))
    }

    fn shape(&self, degree: usize, node_set: NodeSet, n_q: usize) -> Arc<ShapeInfo1D<f64>> {
        Arc::new(ShapeInfo1D::new(degree, node_set, n_q))
    }
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlowParams {
    /// Velocity polynomial degree `k` (pressure uses `k−1`).
    pub degree: usize,
    /// Kinematic viscosity ν (m²/s).
    pub viscosity: f64,
    /// Fluid density ρ (kg/m³) — pressures are handled kinematically
    /// (p/ρ) inside the solver.
    pub density: f64,
    /// Courant number of Eq. (6).
    pub cfl: f64,
    /// Largest admissible time step.
    pub dt_max: f64,
    /// Relative tolerance of the linear sub-solves (paper: 1e-3 in the
    /// application runs). Each solve starts from the previous step's
    /// value, not from an extrapolated guess.
    pub rel_tol: f64,
    /// Divergence-penalty factor ζ_D.
    pub zeta_div: f64,
    /// Continuity-penalty factor ζ_C.
    pub zeta_cont: f64,
    /// Use the hybrid multigrid preconditioner for the pressure Poisson
    /// solve (otherwise point-Jacobi — useful in tiny tests).
    pub use_multigrid: bool,
}

impl FlowParams {
    /// Paper-like defaults at degree `k`.
    pub fn new(degree: usize) -> Self {
        Self {
            degree,
            viscosity: 1.7e-5,
            density: 1.2,
            cfl: 0.4,
            dt_max: 1e-2,
            rel_tol: 1e-3,
            zeta_div: 1.0,
            zeta_cont: 1.0,
            use_multigrid: true,
        }
    }
}

/// Per-step diagnostics.
#[derive(Clone, Debug, Default)]
pub struct StepInfo {
    /// Time after the step.
    pub time: f64,
    /// Step size used.
    pub dt: f64,
    /// CG iterations of the pressure Poisson solve.
    pub pressure_iterations: usize,
    /// Total CG iterations of the three viscous component solves.
    pub viscous_iterations: usize,
    /// CG iterations of the penalty solve.
    pub penalty_iterations: usize,
    /// Wall time of the whole step (seconds): the duration of the `step`
    /// span. Each stage time below is the duration of its `step.*` span.
    pub wall_seconds: f64,
    /// Wall time spent in the explicit convective step.
    pub convective_seconds: f64,
    /// Wall time spent in the pressure solve.
    pub pressure_seconds: f64,
    /// Wall time spent in the projection step.
    pub projection_seconds: f64,
    /// Wall time spent in the three viscous component solves.
    pub viscous_seconds: f64,
    /// Wall time spent in the divergence/continuity penalty solve.
    pub penalty_seconds: f64,
}

/// Point-Jacobi for the penalty solve: the penalty operator's diagonal
/// is the velocity mass matrix, so its inverse is the scalar inverse mass
/// on every component.
struct InverseMass<'a> {
    inv_mass: &'a [f64],
    dpc: usize,
}

impl Preconditioner<f64> for InverseMass<'_> {
    fn apply_precond(&self, src: &[f64], dst: &mut [f64]) {
        let n_cells = self.inv_mass.len() / self.dpc;
        for_each_node(self.dpc, 0..n_cells, |j, node, _| {
            dst[j] = src[j] * self.inv_mass[node];
        });
    }
}

/// The incompressible flow solver.
pub struct FlowSolver<const L: usize> {
    /// Velocity space (degree k).
    pub mf_u: Arc<MatrixFree<f64, L>>,
    /// Pressure space (degree k−1 on the velocity space's geometry).
    pub mf_p: Arc<MatrixFree<f64, L>>,
    /// Boundary conditions (pressure values updated externally each step).
    pub bcs: FlowBcs,
    /// Parameters.
    pub params: FlowParams,
    helmholtz: HelmholtzOperator<f64, L>,
    pressure_op: LaplaceOperator<f64, L>,
    /// Hybrid multigrid, or point-Jacobi on the pressure diagonal (which
    /// depends only on the boundary kinds, so it is built once).
    pressure_pre: Box<dyn Preconditioner<f64> + Send>,
    inv_mass_scalar: Vec<f64>,
    /// Velocity at `t^n` / `t^{n-1}`.
    pub velocity: Vec<f64>,
    pub(crate) velocity_old: Vec<f64>,
    /// Pressure at `t^n` (kinematic, p/ρ).
    pub pressure: Vec<f64>,
    pub(crate) conv_old: Vec<f64>,
    h_cell: Vec<f64>,
    cfl: CflController,
    /// Current Δt (set before the first step from the initial field).
    pub dt: f64,
    pub(crate) dt_old: f64,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub step_count: usize,
}

impl<const L: usize> FlowSolver<L> {
    /// Build all operators on the given mesh.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, params: FlowParams, bcs: FlowBcs) -> Self {
        Self::with_setup(forest, manifold, params, bcs, &FreshSetup)
    }

    /// Build all operators, fetching geometry sampling and 1-D shape
    /// tables through a [`SolverSetup`] cache so identical pieces are
    /// shared across the solvers of a parameter sweep.
    pub fn with_setup(
        forest: &Forest,
        manifold: &dyn Manifold,
        params: FlowParams,
        bcs: FlowBcs,
        setup: &dyn SolverSetup,
    ) -> Self {
        assert!(
            params.degree >= 2,
            "velocity degree must be ≥ 2 (pressure k−1 ≥ 1)"
        );
        let mfp_u = MfParams::dg(params.degree);
        let mfp_p = MfParams {
            degree: params.degree - 1,
            n_q: params.degree + 1,
            ..MfParams::dg(params.degree)
        };
        let mapping = setup.mapping(forest, manifold, mfp_u.mapping_degree);
        let shape_u = setup.shape(mfp_u.degree, mfp_u.node_set, mfp_u.n_q);
        let shape_p = setup.shape(mfp_p.degree, mfp_p.node_set, mfp_p.n_q);
        let mf_u = Arc::new(MatrixFree::<f64, L>::with_parts(
            forest,
            mapping,
            (*shape_u).clone(),
            mfp_u,
        ));
        let mf_p = Arc::new(MatrixFree::<f64, L>::with_geometry(
            mf_u.geometry.clone(),
            (*shape_p).clone(),
            mfp_p,
        ));
        let visc_lap = LaplaceOperator::with_bc(mf_u.clone(), bcs.velocity_bc());
        let mass_w: Vec<f64> = MassOperator::new(&mf_u).weights();
        let helmholtz = HelmholtzOperator::new(visc_lap, mass_w.clone(), params.viscosity);
        let pressure_op = LaplaceOperator::with_bc(mf_p.clone(), bcs.pressure_poisson_bc());
        let pressure_pre: Box<dyn Preconditioner<f64> + Send> = if params.use_multigrid {
            Box::new(MixedPrecisionMg::<L> {
                mg: HybridMultigrid::<f32, L>::build(
                    forest,
                    manifold,
                    params.degree - 1,
                    bcs.pressure_poisson_bc(),
                    MgParams::default(),
                ),
            })
        } else {
            Box::new(JacobiPreconditioner::new(pressure_op.compute_diagonal()))
        };
        let inv_mass_scalar: Vec<f64> = mass_w.iter().map(|w| 1.0 / w).collect();
        let h_cell: Vec<f64> = mf_u.cell_volumes.iter().map(|v| v.cbrt()).collect();
        let n_u = n_velocity_dofs(&mf_u);
        let n_p = mf_p.n_dofs();
        let cfl = CflController::new(params.cfl, params.degree, params.dt_max);
        Self {
            helmholtz,
            pressure_op,
            pressure_pre,
            inv_mass_scalar,
            velocity: vec![0.0; n_u],
            velocity_old: vec![0.0; n_u],
            pressure: vec![0.0; n_p],
            conv_old: vec![0.0; n_u],
            h_cell,
            cfl,
            dt: params.dt_max,
            dt_old: params.dt_max,
            time: 0.0,
            step_count: 0,
            mf_u,
            mf_p,
            bcs,
            params,
        }
    }

    /// Set the initial velocity field (resets the step history).
    pub fn set_velocity(&mut self, v: Vec<f64>) {
        assert_eq!(v.len(), self.velocity.len());
        self.velocity = v;
        self.velocity_old = self.velocity.clone();
        self.step_count = 0;
        let scale = cell_velocity_scale(&self.mf_u, &self.velocity);
        self.dt = self
            .cfl
            .next_dt(&self.h_cell, &scale, self.params.dt_max * 1e6);
        self.dt_old = self.dt;
    }

    /// Advance one time step (BDF1 on the first step, BDF2 afterwards).
    pub fn step(&mut self) -> StepInfo {
        let step_span = dgflow_trace::span_timed("core", "step").meta(self.step_count as u64);
        let dt = self.dt;
        let coeff = if self.step_count == 0 {
            BdfCoefficients::bdf1()
        } else {
            BdfCoefficients::bdf2(dt / self.dt_old)
        };
        let n_u = self.velocity.len();
        let (dpc, n_cells) = (self.mf_u.dofs_per_cell, self.mf_u.n_cells);
        let inv_mass = &self.inv_mass_scalar;
        let gamma_dt = coeff.gamma0 / dt;

        // (1) explicit convective step
        let sp_stage = dgflow_trace::span_timed("core", "step.convective");
        let mut conv = vec![0.0; n_u];
        convective_term(&self.mf_u, &self.bcs, &self.velocity, &mut conv);
        let mut u_hat = vec![0.0; n_u];
        // fused single pass: BDF combination, M⁻¹, and the û update — one
        // read of conv/conv_old/velocity/velocity_old per element instead
        // of three full-vector sweeps (the per-element operation order
        // matches the unfused passes exactly).
        for_each_node(dpc, 0..n_cells, |j, node, _| {
            let r = (coeff.beta[0] * conv[j] + coeff.beta[1] * self.conv_old[j]) * inv_mass[node];
            u_hat[j] = (coeff.alpha[0] * self.velocity[j] + coeff.alpha[1] * self.velocity_old[j]
                - dt * r)
                / coeff.gamma0;
        });

        let convective_seconds = sp_stage.finish();

        // (2) pressure Poisson step
        let sp_stage = dgflow_trace::span_timed("core", "step.pressure");
        let mut div = vec![0.0; self.pressure.len()];
        divergence(&self.mf_u, &self.mf_p, &self.bcs, &u_hat, &mut div);
        let bcs = &self.bcs;
        let mut prhs = self
            .pressure_op
            .boundary_rhs_by_id(&|id, _x| bcs.pressure(id));
        for (r, d) in prhs.iter_mut().zip(&div) {
            *r -= gamma_dt * d;
        }
        let pres = cg_solve(
            &self.pressure_op,
            &*self.pressure_pre,
            &prhs,
            &mut self.pressure,
            self.params.rel_tol,
            500,
        );
        let pressure_seconds = sp_stage.finish();

        // (3) projection
        let sp_stage = dgflow_trace::span_timed("core", "step.projection");
        let mut gp = vec![0.0; n_u];
        gradient(&self.mf_u, &self.mf_p, &self.bcs, &self.pressure, &mut gp);
        // fused M⁻¹ + projection update, same per-element order as the
        // separate passes.
        for_each_node(dpc, 0..n_cells, |j, node, _| {
            u_hat[j] -= dt / coeff.gamma0 * (gp[j] * inv_mass[node]);
        });
        let projection_seconds = sp_stage.finish();

        // (4) viscous step, component by component
        let sp_stage = dgflow_trace::span_timed("core", "step.viscous");
        self.helmholtz.set_factor(gamma_dt);
        let hh_diag = dgflow_solvers::LinearOperator::diagonal(&self.helmholtz);
        let hh_jacobi = JacobiPreconditioner::new(hh_diag);
        let mut viscous_iterations = 0;
        let mut u_star = vec![0.0; n_u];
        {
            let n_s = self.mf_u.n_dofs();
            let mut rhs_c = vec![0.0; n_s];
            let mut x_c = vec![0.0; n_s];
            for d in 0..DIM {
                crate::field::extract_component(&u_hat, dpc, d, &mut rhs_c);
                for (r, w) in rhs_c.iter_mut().zip(&self.helmholtz.mass_weights) {
                    *r *= gamma_dt * *w;
                }
                crate::field::extract_component(&self.velocity, dpc, d, &mut x_c);
                let res = cg_solve(
                    &self.helmholtz,
                    &hh_jacobi,
                    &rhs_c,
                    &mut x_c,
                    self.params.rel_tol,
                    500,
                );
                viscous_iterations += res.iterations;
                crate::field::insert_component(&mut u_star, dpc, d, &x_c);
            }
        }

        let viscous_seconds = sp_stage.finish();

        // (5) penalty step
        let sp_stage = dgflow_trace::span_timed("core", "step.penalty");
        let u_scale = cell_velocity_scale(&self.mf_u, &u_star);
        let pen = PenaltyOperator::new(
            &self.mf_u,
            &u_scale,
            dt,
            self.params.zeta_div,
            self.params.zeta_cont,
        );
        // M u*
        let mut pen_rhs = u_star.clone();
        for_each_node(dpc, 0..n_cells, |j, node, _| pen_rhs[j] /= inv_mass[node]);
        let mut u_new = u_star.clone();
        let pres_pen = cg_solve(
            &pen,
            &InverseMass { inv_mass, dpc },
            &pen_rhs,
            &mut u_new,
            self.params.rel_tol,
            500,
        );
        let penalty_seconds = sp_stage.finish();

        // rotate state, adapt Δt
        self.velocity_old = std::mem::replace(&mut self.velocity, u_new);
        self.conv_old = conv;
        self.time += dt;
        self.step_count += 1;
        self.dt_old = dt;
        let scale = cell_velocity_scale(&self.mf_u, &self.velocity);
        self.dt = self.cfl.next_dt(&self.h_cell, &scale, dt);
        let wall_seconds = step_span.finish();
        StepInfo {
            time: self.time,
            dt,
            pressure_iterations: pres.iterations,
            viscous_iterations,
            penalty_iterations: pres_pen.iterations,
            wall_seconds,
            convective_seconds,
            pressure_seconds,
            projection_seconds,
            viscous_seconds,
            penalty_seconds,
        }
    }

    /// Divergence residual ‖D u‖₂ of the current velocity (diagnostic for
    /// how well the penalty/projection enforce incompressibility).
    pub fn divergence_norm(&self) -> f64 {
        let mut div = vec![0.0; self.pressure.len()];
        divergence(&self.mf_u, &self.mf_p, &self.bcs, &self.velocity, &mut div);
        div.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Flow rate through a boundary id (positive = out of the domain).
    pub fn flow_rate(&self, boundary_id: u32) -> f64 {
        crate::operators::boundary_flow_rate(&self.mf_u, boundary_id, &self.velocity)
    }

    /// Flow rates through each boundary id in `ids`, in one pass over the
    /// faces; entry `k` equals [`FlowSolver::flow_rate`] of `ids[k]`.
    pub fn flow_rates(&self, ids: &[u32]) -> Vec<f64> {
        crate::operators::boundary_flow_rates(&self.mf_u, ids, &self.velocity)
    }

    /// Kinematic → physical pressure conversion factor (ρ).
    pub fn density(&self) -> f64 {
        self.params.density
    }
}
