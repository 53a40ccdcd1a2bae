//! `poisson_solve`: the bifurcation Poisson problem of Fig. 9 — one global
//! refinement (227,328 DoF), k = 3, f64 CG preconditioned by one f32
//! hybrid-multigrid V-cycle, solved from a zero initial guess to a
//! relative residual of 1e-10. Each operation is one solve.

use crate::ledger::SpanBook;
use crate::mirror::{Timed, TracedMg};
use crate::report::Report;
use crate::sys::Rng;
use crate::{Args, Tally};
use dgflow::fem::operators::integrate_rhs;
use dgflow::fem::{BoundaryCondition, LaplaceOperator, Mapping, MatrixFree, MfParams};
use dgflow::lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow::mesh::{Forest, TrilinearManifold};
use dgflow::multigrid::{HybridMultigrid, MgParams, MixedPrecisionMg};
use dgflow::solvers::{
    cg_solve, AlgebraicMultigrid, AmgParams, ChebyshevSmoother, LinearOperator, Preconditioner,
};
use std::sync::Arc;
use std::time::Instant;

const LANES: usize = 8;
const REFINE: usize = 1;
const DEGREE: usize = 3;
const TOL: f64 = 1e-10;
const MAX_ITERS: usize = 200;
/// Allowed relative deviation of ‖u‖ from the recorded reference.
const NORM_TOL: f64 = 1e-6;

/// Gram matrix `G[i][j] = ⟨u_i, u_j⟩` of the solutions of the three basis
/// problems (see [`PoissonInputs`]), recorded with `--record-reference`
/// at tolerance 1e-12. The solution for coefficients `c` has
/// `‖u‖² = cᵀ G c`, since the discrete problem is linear in its data.
pub const REFERENCE_GRAM: [[f64; 3]; 3] = [
    [
        1.4685891974585067e-2,
        -4.461946954300557e-3,
        -5.597351413149695e-3,
    ],
    [
        -4.461946954300557e-3,
        3.633176571866116e-3,
        5.64520378891716e-3,
    ],
    [
        -5.597351413149695e-3,
        5.64520378891716e-3,
        1.2405896120836448e-2,
    ],
];

/// The seeded inputs: coefficients of three basis problems,
/// `f = c₀ sin(50 x) + c₁ z` in the domain and `g = 0.003 c₂ z` on the
/// Dirichlet (inlet and outlet) boundaries. The walls are Neumann.
#[derive(Clone, Debug, PartialEq)]
pub struct PoissonInputs {
    pub coeffs: [f64; 3],
}

impl PoissonInputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x504f_4953);
        Self {
            coeffs: [
                rng.uniform(0.75, 1.25),
                rng.uniform(0.75, 1.25),
                rng.uniform(0.75, 1.25),
            ],
        }
    }

    /// The norm the solution must have, from [`REFERENCE_GRAM`].
    pub fn reference_norm(&self) -> f64 {
        let c = self.coeffs;
        let mut q = 0.0;
        for i in 0..3 {
            for j in 0..3 {
                q += c[i] * REFERENCE_GRAM[i][j] * c[j];
            }
        }
        q.sqrt()
    }
}

/// Walls Neumann; inlet and both outlets Dirichlet.
fn boundary_conditions() -> Vec<BoundaryCondition> {
    vec![
        BoundaryCondition::Neumann,
        BoundaryCondition::Dirichlet,
        BoundaryCondition::Dirichlet,
        BoundaryCondition::Dirichlet,
    ]
}

/// The bifurcation forest at `refine` global refinements.
pub fn bifurcation(refine: usize) -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let mut forest = Forest::new(mesh.coarse);
    forest.refine_global(refine);
    forest
}

struct Case {
    forest: Forest,
    manifold: TrilinearManifold,
    mf: Arc<MatrixFree<f64, LANES>>,
    op: LaplaceOperator<f64, LANES>,
    mg: MixedPrecisionMg<LANES>,
    mesh_s: f64,
    mg_s: f64,
}

/// Mesh through operator and multigrid hierarchy ready.
fn setup() -> Case {
    let t = Instant::now();
    let forest = bifurcation(REFINE);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mesh_s = t.elapsed().as_secs_f64();
    let mf = Arc::new(MatrixFree::<f64, LANES>::new(
        &forest,
        &manifold,
        MfParams::dg(DEGREE),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), boundary_conditions());
    let t = Instant::now();
    let mg = MixedPrecisionMg::<LANES> {
        mg: HybridMultigrid::build(
            &forest,
            &manifold,
            DEGREE,
            boundary_conditions(),
            MgParams::default(),
        ),
    };
    Case {
        mg_s: t.elapsed().as_secs_f64(),
        forest,
        manifold,
        mf,
        op,
        mg,
        mesh_s,
    }
}

impl Case {
    fn rhs(&self, c: [f64; 3]) -> Vec<f64> {
        let mut rhs = integrate_rhs(&self.mf, &|x| c[0] * (50.0 * x[0]).sin() + c[1] * x[2]);
        let brhs = self.op.boundary_rhs(&|x| 0.003 * c[2] * x[2]);
        for (r, b) in rhs.iter_mut().zip(&brhs) {
            *r += *b;
        }
        rhs
    }

    /// One solve from zero; returns `(solution, iterations, converged,
    /// wall time)`.
    fn solve(
        &self,
        op: &dyn LinearOperator<f64>,
        pre: &dyn Preconditioner<f64>,
        rhs: &[f64],
        tol: f64,
    ) -> (Vec<f64>, usize, bool, f64) {
        let mut x = vec![0.0; rhs.len()];
        let t = Instant::now();
        let res = cg_solve(op, pre, rhs, &mut x, tol, MAX_ITERS);
        let dt = t.elapsed().as_secs_f64();
        let ok = res.converged && res.relative_residual <= tol;
        (x, res.iterations, ok, dt)
    }

    /// The output checks of one solve: converged, the true residual
    /// confirms it, and ‖u‖ matches the recorded reference.
    fn check(&self, rhs: &[f64], x: &[f64], converged: bool, want: f64, tally: &mut Tally) {
        let mut ax = vec![0.0; x.len()];
        self.op.apply(x, &mut ax);
        let r: f64 = rhs.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
        let b: f64 = rhs.iter().map(|v| v * v).sum();
        let true_res = (r / b).sqrt();
        let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        let norm_ok = (norm - want).abs() <= NORM_TOL * want;
        tally.record(
            converged && true_res <= 10.0 * TOL && norm_ok,
            &format!(
                "poisson: converged {converged}, true residual {true_res:.3e}, \
                 ‖u‖ {norm:.12e} vs reference {want:.12e}"
            ),
        );
    }
}

pub fn run(args: &Args, report: &mut Report) -> Tally {
    let inputs = PoissonInputs::from_seed(args.seed);
    let want = inputs.reference_norm();
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let (mut mesh_s, mut mg_s) = (Vec::new(), Vec::new());
    let mut case = None;
    while crate::another_setup(&setups) {
        drop(case.take());
        let t = Instant::now();
        let c = setup();
        setups.push(t.elapsed().as_secs_f64());
        mesh_s.push(c.mesh_s);
        mg_s.push(c.mg_s);
        case = Some(c);
    }
    let case = case.expect("at least one set-up");
    let rhs = case.rhs(inputs.coeffs);

    if !report.traced() {
        let ops = crate::window(args.seconds, || {
            let (x, _, ok, dt) = case.solve(&case.op, &case.mg, &rhs, TOL);
            case.check(&rhs, &x, ok, want, &mut tally);
            dt
        });
        crate::report_e2e(report, &args.workload, &setups, &ops);
        return tally;
    }

    report.set("lung.mesh_s", crate::stats::median(&mesh_s));
    report.set("multigrid.build_s", crate::stats::median(&mg_s));
    tally.record(
        crate::mirror::matches_library(&case.mg, &case.mg.mg, &rhs),
        "poisson: traced V-cycle mirror differs from the library V-cycle",
    );
    let mut book = SpanBook::default();
    let dg = Timed {
        inner: &case.op,
        name: "dg.apply",
    };
    let traced_mg = TracedMg(&case.mg.mg);
    // exact per-solve counts from the first traced solve
    let (x, iters, ok, _) = crate::traced(&mut book, || case.solve(&dg, &traced_mg, &rhs, TOL));
    case.check(&rhs, &x, ok, want, &mut tally);
    report.set("solvers.cg.iters", iters as f64);
    report.set(
        "comm.pool.runs_per_solve",
        book.total("pool.run").count as f64,
    );

    let mut cpu = crate::CpuMeter::default();
    let (plain, traced) = crate::alternating(args.seconds, |on| {
        let (x, _, ok, dt) = if on {
            crate::traced(&mut book, || case.solve(&dg, &traced_mg, &rhs, TOL))
        } else {
            let mut out = None;
            cpu.measure(|| out = Some(case.solve(&case.op, &case.mg, &rhs, TOL)));
            out.expect("solve ran")
        };
        case.check(&rhs, &x, ok, want, &mut tally);
        dt
    });
    report.set("comm.pool.cpu_util", cpu.utilization());
    crate::report_trace(report, &book, &plain, &traced);

    let solves = book.total("cg.solve").count.max(1) as f64;
    let vector_ns = book.total("cg.solve").self_ns + book.total("cg.iter").self_ns;
    report.set("solvers.cg.vector_s", vector_ns as f64 * 1e-9 / solves);
    let n = case.mf.n_dofs();
    let apply_s = crate::ledger::median_s(&book.total("dg.apply").durations);
    report.set("fem.dg_laplace.dofs_per_s", n as f64 / apply_s);
    crate::report_fem_counts(report, DEGREE, n, apply_s);
    crate::report_working_set(report, DEGREE, n, 8.0);
    let sizes: Vec<usize> = case.mg.mg.levels.iter().map(|l| l.op.len()).collect();
    crate::report_multigrid(report, &book, &sizes);

    report_setup_layers(report, &case);
    report.set("solvers.sp_dp_smoother_ratio", sp_dp_smoother_ratio(&case));
    report.set("comm.pool.run_s", crate::pool_round_trip_s());
    report.set("tensor.sumfac_gflops", crate::sumfac_gflops());
    tally
}

/// The set-up layers the operator construction hides: geometry sampling
/// and the AMG set-up on the hierarchy's coarse matrix.
fn report_setup_layers(report: &mut Report, case: &Case) {
    let mapping_degree = MfParams::dg(DEGREE).mapping_degree;
    report.set(
        "fem.mapping_s",
        crate::time(|| {
            std::hint::black_box(Mapping::build(&case.forest, &case.manifold, mapping_degree));
        }),
    );
    report.set(
        "solvers.amg_setup_s",
        crate::time(|| {
            std::hint::black_box(AlgebraicMultigrid::new(
                case.mg.mg.coarse_matrix.clone(),
                AmgParams::default(),
            ));
        }),
    );
}

/// Time of one double-precision Chebyshev smoothing sweep on the DG level
/// over that of the single-precision sweep the V-cycle runs.
fn sp_dp_smoother_ratio(case: &Case) -> f64 {
    let level = &case.mg.mg.levels[0];
    let params = MgParams::default();
    let inv: Vec<f64> = case.op.compute_diagonal().iter().map(|d| 1.0 / d).collect();
    let dp = ChebyshevSmoother::new(
        &case.op,
        inv,
        params.smoother_degree,
        params.smoothing_range,
    );
    let n = case.op.len();
    let b64: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) * 0.1).collect();
    let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
    let (mut x64, mut x32) = (vec![0.0f64; n], vec![0.0f32; n]);
    let t_dp = crate::median_time(5, || dp.smooth(&case.op, &b64, &mut x64, false));
    let t_sp = crate::median_time(5, || {
        level.smoother.smooth(&level.op, &b32, &mut x32, false)
    });
    t_dp / t_sp
}

/// Solve the three basis problems to 1e-12 and print their Gram matrix,
/// the source of [`REFERENCE_GRAM`].
pub fn record_reference() {
    let case = setup();
    let basis: Vec<Vec<f64>> = (0..3)
        .map(|i| {
            let mut c = [0.0; 3];
            c[i] = 1.0;
            let rhs = case.rhs(c);
            let (x, iters, ok, _) = case.solve(&case.op, &case.mg, &rhs, 1e-12);
            assert!(
                ok,
                "basis problem {i} did not converge in {iters} iterations"
            );
            x
        })
        .collect();
    println!("pub const REFERENCE_GRAM: [[f64; 3]; 3] = [");
    for ui in &basis {
        let row: Vec<String> = basis
            .iter()
            .map(|uj| format!("{:e}", ui.iter().zip(uj).map(|(a, b)| a * b).sum::<f64>()))
            .collect();
        println!("    [{}],", row.join(", "));
    }
    println!("];");
}
