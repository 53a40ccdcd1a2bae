//! `lung_step`: ventilated time steps of a g = 3 lung (Table 2's
//! `t_wall/Δt`), k = 3, CFL 0.4, sub-solve tolerance 1e-3, multigrid
//! pressure solve. Each operation is one ventilated step: the solver step,
//! the boundary flow rates, and the ventilator/compartment update.

use crate::ledger::SpanBook;
use crate::report::Report;
use crate::sys::Rng;
use crate::{Args, Tally};
use dgflow::core::checkpoint::Checkpoint;
use dgflow::core::field::{cell_velocity_scale, extract_component, interpolate_velocity};
use dgflow::core::{
    convective_term, divergence, gradient, FlowParams, FlowSolver, FreshSetup, HelmholtzOperator,
    PenaltyOperator, StepInfo, VentilationModel, VentilatorSettings,
};
use dgflow::fem::{LaplaceOperator, MassOperator};
use dgflow::lung::{lung_mesh, LungMesh, INLET_ID};
use dgflow::mesh::{Forest, TrilinearManifold};
use dgflow::multigrid::{HybridMultigrid, MgParams};
use dgflow::solvers::{AlgebraicMultigrid, AmgParams, LinearOperator};
use std::time::Instant;

const LANES: usize = 8;
const GENERATIONS: usize = 3;
const DEGREE: usize = 3;
/// Steps before the timing window: the BDF1 start and the first BDF2
/// steps, which cost several times a steady step.
const STARTUP_STEPS: usize = 8;
/// Length of the replayed step segment. At this fixed inlet pressure the
/// flow settles after about 60 steps into a state where the extrapolated
/// initial guesses meet every sub-solve tolerance with 0 iterations, which
/// is not the ventilation regime the paper times; so the window replays
/// steps 9–48 from a checkpoint taken after start-up, where the pressure
/// solve takes about one CG iteration per step.
const SEGMENT_STEPS: usize = 40;
/// Steps per timed operation. On a shared host one preempted step of
/// ~0.13 s would set the tail, so an operation is a block of consecutive
/// steps, timed per step (Table 2's `t_wall/Δt` is such a mean).
const STEPS_PER_OP: usize = 4;
/// Traced steps over which the exact per-step counts are taken (the first
/// steps of the segment).
const COUNT_STEPS: usize = 20;
/// Iteration cap of every sub-solve inside `FlowSolver::step`.
const ITER_CAP: usize = 500;
/// Bound on ‖div u‖ (measured ≈1e-6 in steady ventilation).
const DIV_BOUND: f64 = 1e-4;
/// Allowed mismatch of inlet and total outlet flow, relative to the inlet.
const BALANCE_TOL: f64 = 0.05;

/// The seeded inputs: where in the inhalation phase the run starts, and a
/// small smooth initial velocity perturbation.
#[derive(Clone, Debug, PartialEq)]
pub struct LungInputs {
    /// Start time within the inhalation phase (s).
    pub phase_s: f64,
    /// Perturbation amplitude (m/s) and per-direction wave numbers and
    /// phase shifts.
    pub amplitude: f64,
    pub wave: [f64; 3],
    pub shift: [f64; 3],
}

impl LungInputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x4c55_4e47);
        Self {
            phase_s: rng.uniform(0.0, 0.05),
            amplitude: rng.uniform(1e-3, 5e-3),
            wave: [
                rng.uniform(50.0, 150.0),
                rng.uniform(50.0, 150.0),
                rng.uniform(50.0, 150.0),
            ],
            shift: [
                rng.uniform(0.0, 6.3),
                rng.uniform(0.0, 6.3),
                rng.uniform(0.0, 6.3),
            ],
        }
    }

    fn velocity(&self, x: [f64; 3]) -> [f64; 3] {
        let s = |d: usize| self.amplitude * (self.wave[d] * x[d] + self.shift[d]).sin();
        [s(1), s(2), s(0)]
    }
}

struct Case {
    mesh: LungMesh,
    forest: Forest,
    manifold: TrilinearManifold,
    solver: FlowSolver<LANES>,
    vent: VentilationModel,
    /// State after start-up, where every segment starts.
    segment_start: Option<Checkpoint>,
    mesh_s: f64,
    mapping_s: f64,
}

fn params() -> FlowParams {
    let mut p = FlowParams::new(DEGREE);
    p.rel_tol = 1e-3;
    p.dt_max = 5e-4;
    p.use_multigrid = true;
    p
}

/// Mesh through solver ready, initial state applied.
fn setup(inputs: &LungInputs) -> Case {
    let t = Instant::now();
    let mesh = lung_mesh(GENERATIONS);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mesh_s = t.elapsed().as_secs_f64();
    let timed = crate::TimedSetup::new(&FreshSetup);
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut solver = FlowSolver::<LANES>::with_setup(&forest, &manifold, params(), bcs, &timed);
    let vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
    let v = interpolate_velocity(&solver.mf_u, &|x| inputs.velocity(x));
    solver.set_velocity(v);
    solver.time = inputs.phase_s;
    let mut case = Case {
        mesh,
        forest,
        manifold,
        solver,
        vent,
        segment_start: None,
        mesh_s,
        mapping_s: timed.mapping_s(),
    };
    case.couple(0.0);
    case
}

impl Case {
    /// Feed the current boundary flows to the ventilator and compartments;
    /// returns `(inlet flow, total outlet flow)`.
    fn couple(&mut self, dt: f64) -> (f64, f64) {
        let inlet = self.solver.flow_rate(INLET_ID);
        let outlet: Vec<f64> = self
            .mesh
            .outlets
            .iter()
            .map(|o| self.solver.flow_rate(o.boundary_id))
            .collect();
        let rho = self.solver.density();
        self.vent.update(
            self.solver.time,
            dt,
            inlet,
            &outlet,
            rho,
            &mut self.solver.bcs,
        );
        (inlet, outlet.iter().sum())
    }

    /// Take the start of the replayed segment from the current state.
    fn mark_segment_start(&mut self) {
        self.segment_start = Some(Checkpoint::capture(&self.solver, Some(&self.vent)));
    }

    /// Go back to the start of the segment: the restored state and the
    /// boundary pressures the ventilator derives from it.
    fn restart_segment(&mut self) {
        let ck = self.segment_start.as_ref().expect("segment start taken");
        ck.restore(&mut self.solver, Some(&mut self.vent))
            .expect("checkpoint of this solver restores");
        self.couple(0.0);
    }

    /// One ventilated step, timed; the segment restarts first (untimed)
    /// once it is complete. Returns the step info, the boundary flows and
    /// the wall time.
    fn step(&mut self) -> (StepInfo, (f64, f64), f64) {
        if let Some(ck) = &self.segment_start {
            if self.solver.step_count as u64 >= ck.step_count + SEGMENT_STEPS as u64 {
                self.restart_segment();
            }
        }
        let t = Instant::now();
        let info = self.solver.step();
        let flows = self.couple(info.dt);
        (info, flows, t.elapsed().as_secs_f64())
    }

    /// The output checks of one step.
    fn check(&self, info: &StepInfo, (inlet, outlet): (f64, f64), tally: &mut Tally) {
        let finite = self.solver.velocity.iter().all(|v| v.is_finite())
            && self.solver.pressure.iter().all(|v| v.is_finite());
        let capped = info.pressure_iterations >= ITER_CAP
            || info.viscous_iterations >= ITER_CAP
            || info.penalty_iterations >= ITER_CAP;
        let scale = inlet.abs().max(outlet.abs()).max(1e-12);
        let balanced = (inlet + outlet).abs() <= BALANCE_TOL * scale;
        let div_ok = !self.solver.step_count.is_multiple_of(10) || self.divergence_ok();
        tally.record(
            finite && !capped && balanced && div_ok,
            &format!(
                "lung step {}: finite {finite}, iterations {}/{}/{}, inlet {inlet:.4e} vs \
                 outlet {outlet:.4e}, div ok {div_ok}",
                self.solver.step_count,
                info.pressure_iterations,
                info.viscous_iterations,
                info.penalty_iterations
            ),
        );
    }

    fn divergence_ok(&self) -> bool {
        let d = self.solver.divergence_norm();
        d.is_finite() && d <= DIV_BOUND
    }
}

pub fn run(args: &Args, report: &mut Report) -> Tally {
    let inputs = LungInputs::from_seed(args.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut case = None;
    let (mut mesh_s, mut mapping_s) = (Vec::new(), Vec::new());
    while crate::another_setup(&setups) {
        drop(case.take());
        let t = Instant::now();
        let c = setup(&inputs);
        setups.push(t.elapsed().as_secs_f64());
        mesh_s.push(c.mesh_s);
        mapping_s.push(c.mapping_s);
        case = Some(c);
    }
    let mut case = case.expect("at least one set-up");
    for _ in 0..STARTUP_STEPS {
        let (info, flows, _) = case.step();
        case.check(&info, flows, &mut tally);
    }
    case.mark_segment_start();

    if !report.traced() {
        // whole segments only, so every run samples the same step mix
        let t0 = Instant::now();
        let mut ops = Vec::new();
        while t0.elapsed().as_secs_f64() < args.seconds || ops.len() < crate::MIN_SAMPLES {
            for _ in 0..SEGMENT_STEPS / STEPS_PER_OP {
                let mut wall = 0.0;
                for _ in 0..STEPS_PER_OP {
                    let (info, flows, dt) = case.step();
                    case.check(&info, flows, &mut tally);
                    wall += dt;
                }
                ops.push(wall / STEPS_PER_OP as f64);
            }
        }
        let div_ok = case.divergence_ok();
        tally.record(div_ok, "lung: final ‖div u‖");
        crate::report_e2e(report, &args.workload, &setups, &ops);
        return tally;
    }

    report.set("lung.mesh_s", crate::stats::median(&mesh_s));
    report.set("fem.mapping_s", crate::stats::median(&mapping_s));
    let mut book = SpanBook::default();
    // exact per-step counts over a fixed number of traced steps
    let mut iters = [0usize; 3];
    let mut infos = Vec::new();
    for _ in 0..COUNT_STEPS {
        let (info, flows, _) = crate::traced(&mut book, || case.step());
        case.check(&info, flows, &mut tally);
        iters[0] += info.pressure_iterations;
        iters[1] += info.viscous_iterations;
        iters[2] += info.penalty_iterations;
        infos.push(info);
    }
    let n = COUNT_STEPS as f64;
    report.set("core.iters.pressure", iters[0] as f64 / n);
    report.set("core.iters.viscous", iters[1] as f64 / n);
    report.set("core.iters.penalty", iters[2] as f64 / n);
    report.set(
        "comm.pool.runs_per_step",
        book.total("pool.run").count as f64 / n,
    );

    let mut cpu = crate::CpuMeter::default();
    let (plain, traced) = crate::alternating(args.seconds, |on| {
        let (info, flows, dt) = if on {
            crate::traced(&mut book, || case.step())
        } else {
            let mut out = None;
            cpu.measure(|| out = Some(case.step()));
            out.expect("step ran")
        };
        case.check(&info, flows, &mut tally);
        infos.push(info);
        dt
    });
    report.set("comm.pool.cpu_util", cpu.utilization());
    let stage =
        |f: fn(&StepInfo) -> f64| crate::stats::median(&infos.iter().map(f).collect::<Vec<_>>());
    report.set("core.stage.convective_s", stage(|i| i.convective_seconds));
    report.set("core.stage.pressure_s", stage(|i| i.pressure_seconds));
    report.set("core.stage.projection_s", stage(|i| i.projection_seconds));
    report.set("core.stage.viscous_s", stage(|i| i.viscous_seconds));
    report.set("core.stage.penalty_s", stage(|i| i.penalty_seconds));
    crate::report_trace(report, &book, &plain, &traced);
    report_core_calls(report, &case);
    report_pressure_layers(report, &case, &mut tally);
    report.set("comm.pool.run_s", crate::pool_round_trip_s());
    report.set("tensor.sumfac_gflops", crate::sumfac_gflops());
    tally
}

/// Per-call times of the core operators on the current flow state, and
/// the velocity-Laplace diagonal the Helmholtz preconditioner rebuilds
/// every step.
fn report_core_calls(report: &mut Report, case: &Case) {
    const REPS: usize = 7;
    let s = &case.solver;
    let (mf_u, mf_p) = (&s.mf_u, &s.mf_p);
    let mut conv = vec![0.0; s.velocity.len()];
    report.set(
        "core.convective_s",
        crate::median_time(REPS, || {
            convective_term(mf_u, &s.bcs, &s.velocity, &mut conv);
        }),
    );
    let mut div = vec![0.0; s.pressure.len()];
    report.set(
        "core.divergence_s",
        crate::median_time(REPS, || {
            divergence(mf_u, mf_p, &s.bcs, &s.velocity, &mut div);
        }),
    );
    let mut gp = vec![0.0; s.velocity.len()];
    report.set(
        "core.gradient_s",
        crate::median_time(REPS, || {
            gradient(mf_u, mf_p, &s.bcs, &s.pressure, &mut gp);
        }),
    );
    let lap = LaplaceOperator::with_bc(mf_u.clone(), s.bcs.velocity_bc());
    report.set(
        "fem.laplace_diagonal_s",
        crate::median_time(REPS, || {
            std::hint::black_box(lap.compute_diagonal());
        }),
    );
    let mut hh = HelmholtzOperator::new(lap, MassOperator::new(mf_u).weights(), s.params.viscosity);
    hh.set_factor(1.5 / s.dt);
    let n_s = mf_u.n_dofs();
    let mut comp = vec![0.0; n_s];
    extract_component(&s.velocity, mf_u.dofs_per_cell, 0, &mut comp);
    let mut out = vec![0.0; n_s];
    report.set(
        "core.helmholtz.apply_s",
        crate::median_time(REPS, || hh.apply(&comp, &mut out)),
    );
    report.set(
        "core.helmholtz.diagonal_s",
        crate::median_time(REPS, || {
            std::hint::black_box(hh.diagonal());
        }),
    );
    let scale = cell_velocity_scale(mf_u, &s.velocity);
    let new = || PenaltyOperator::new(mf_u, &scale, s.dt, s.params.zeta_div, s.params.zeta_cont);
    report.set(
        "core.penalty.new_s",
        crate::median_time(REPS, || {
            std::hint::black_box(new());
        }),
    );
    let pen = new();
    let mut pv = vec![0.0; s.velocity.len()];
    report.set(
        "core.penalty.apply_s",
        crate::median_time(REPS, || pen.apply(&s.velocity, &mut pv)),
    );
    report.set(
        "core.penalty.diagonal_s",
        crate::median_time(REPS, || {
            std::hint::black_box(pen.diagonal());
        }),
    );
}

/// The pressure solve's layers: the DG pressure operator's throughput, and
/// a standalone copy of the pressure hierarchy (built and timed here, since
/// the solver's own is private) driven through the traced mirror.
fn report_pressure_layers(report: &mut Report, case: &Case, tally: &mut Tally) {
    let s = &case.solver;
    let bc = s.bcs.pressure_poisson_bc();
    let op = LaplaceOperator::with_bc(s.mf_p.clone(), bc.clone());
    let n_p = s.mf_p.n_dofs();
    let src: Vec<f64> = s.pressure.iter().map(|p| p + 1.0).collect();
    let mut dst = vec![0.0; n_p];
    let apply_s = crate::median_time(9, || op.apply(&src, &mut dst));
    report.set("fem.dg_laplace.dofs_per_s", n_p as f64 / apply_s);
    crate::report_fem_counts(report, DEGREE - 1, n_p, apply_s);
    crate::report_working_set(report, DEGREE - 1, n_p, 8.0);

    let t = Instant::now();
    let mg = HybridMultigrid::<f32, LANES>::build(
        &case.forest,
        &case.manifold,
        DEGREE - 1,
        bc,
        MgParams::default(),
    );
    report.set("multigrid.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    std::hint::black_box(AlgebraicMultigrid::new(
        mg.coarse_matrix.clone(),
        AmgParams::default(),
    ));
    report.set("solvers.amg_setup_s", t.elapsed().as_secs_f64());

    let library = dgflow::multigrid::MixedPrecisionMg::<LANES> { mg };
    tally.record(
        crate::mirror::matches_library(&library, &library.mg, &src),
        "lung: traced V-cycle mirror differs from the library V-cycle",
    );
    let mut book = SpanBook::default();
    let mut z = vec![0.0; n_p];
    for _ in 0..5 {
        crate::traced(&mut book, || {
            dgflow::solvers::Preconditioner::apply_precond(
                &crate::mirror::TracedMg(&library.mg),
                &src,
                &mut z,
            );
        });
    }
    let sizes: Vec<usize> = library.mg.levels.iter().map(|l| l.op.len()).collect();
    crate::report_multigrid(report, &book, &sizes);
}
