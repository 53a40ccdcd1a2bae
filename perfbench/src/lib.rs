//! The dgflow performance ledger: end-to-end workloads and, in a traced
//! run, the per-layer numbers behind them. See `README.md` for the
//! workloads, the metrics and how they map to the paper.

pub mod campaign;
pub mod dist;
pub mod ledger;
pub mod lung;
pub mod mirror;
pub mod poisson;
pub mod report;
pub mod stats;
pub mod sys;

use dgflow::core::SolverSetup;
use dgflow::fem::Mapping;
use dgflow::mesh::{Forest, Manifold};
use dgflow::tensor::{NodeSet, ShapeInfo1D};
use dgflow_trace::SpanRecord;
use ledger::{SpanBook, ROOT};
use report::Report;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &[
    "lung_step",
    "poisson_solve",
    "dist_poisson",
    "campaign_sweep",
];

/// Samples every timing window collects at least, so that a tail
/// percentile with ten samples beyond it exists.
pub const MIN_SAMPLES: usize = stats::TAIL_BEYOND + 1;

/// `setup_s` is the median of at least this many set-ups per run ...
const MIN_SETUPS: usize = 3;
/// ... and of as many more as fit in this much set-up time (s), so that a
/// set-up of a few milliseconds is not one noisy sample.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 25;

/// Whether to set up once more, given the set-up times so far.
pub fn another_setup(times: &[f64]) -> bool {
    times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operation counts of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// Run one closed-loop timing window: call `op` back to back until
/// `seconds` have passed and at least [`MIN_SAMPLES`] samples are in.
/// `op` returns the time of its own timed region.
pub fn window(seconds: f64, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    while t0.elapsed() < budget || samples.len() < MIN_SAMPLES {
        samples.push(op());
    }
    samples
}

/// The traced counterpart of a window: alternate untraced and traced
/// calls of `op(traced)` for `seconds`, so both halves see the same
/// machine state. Returns `(untraced, traced)` samples.
pub fn alternating(seconds: f64, mut op: impl FnMut(bool) -> f64) -> (Vec<f64>, Vec<f64>) {
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while t0.elapsed() < budget || traced.len() < 3 {
        plain.push(op(false));
        traced.push(op(true));
    }
    (plain, traced)
}

/// Run `f` with fine tracing on, under the benchmark's root span, and
/// return its result with the spans drained after it.
pub fn traced_spans<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    dgflow_trace::set_fine_sample(1);
    dgflow_trace::set_level(dgflow_trace::Level::Fine);
    let r = {
        let _root = dgflow_trace::span("bench", ROOT);
        f()
    };
    dgflow_trace::set_level(dgflow_trace::Level::Off);
    (r, dgflow_trace::take_spans())
}

/// [`traced_spans`], adding the spans to `book`.
pub fn traced<R>(book: &mut SpanBook, f: impl FnOnce() -> R) -> R {
    let (r, spans) = traced_spans(f);
    book.add(&spans, &ledger::pool_tids());
    r
}

/// A `SolverSetup` that delegates to another and times the geometry
/// sampling it is asked for.
pub struct TimedSetup<'a> {
    inner: &'a dyn SolverSetup,
    mapping_s: Cell<f64>,
}

impl<'a> TimedSetup<'a> {
    pub fn new(inner: &'a dyn SolverSetup) -> Self {
        Self {
            inner,
            mapping_s: Cell::new(0.0),
        }
    }

    /// Total time spent in `mapping` (s).
    pub fn mapping_s(&self) -> f64 {
        self.mapping_s.get()
    }
}

impl SolverSetup for TimedSetup<'_> {
    fn mapping(&self, forest: &Forest, manifold: &dyn Manifold, degree: usize) -> Arc<Mapping> {
        let t = Instant::now();
        let m = self.inner.mapping(forest, manifold, degree);
        self.mapping_s
            .set(self.mapping_s.get() + t.elapsed().as_secs_f64());
        m
    }
    fn shape(&self, degree: usize, node_set: NodeSet, n_q: usize) -> Arc<ShapeInfo1D<f64>> {
        self.inner.shape(degree, node_set, n_q)
    }
}

/// Wall time of `f` (s).
pub fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median wall time of `reps` calls of `f` (s).
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps).map(|_| time(&mut f)).collect();
    stats::median(&xs)
}

/// Set the end-to-end metrics from the set-up and operation samples, and
/// print the tail's percentile and sample count beside it on stderr.
pub fn report_e2e(report: &mut Report, workload: &str, setups: &[f64], ops: &[f64]) {
    let tail = stats::tail(ops).expect("a window holds at least MIN_SAMPLES samples");
    report.set("setup_s", stats::median(setups));
    report.set("op_s_p50", stats::median(ops));
    report.set("op_s_tail", tail.value);
    eprintln!(
        "perfbench: {workload}: op_s_p50 {:.6} s, op_s_tail {:.6} s = p{:.1} of {} samples; \
         set-ups {setups:.3?} s",
        stats::median(ops),
        tail.value,
        tail.percentile,
        tail.samples
    );
}

/// Per-layer metrics every traced run reports: trace overhead, dropped
/// spans and the ledger's unattributed share.
pub fn report_trace(report: &mut Report, book: &SpanBook, plain: &[f64], traced: &[f64]) {
    report.set(
        "trace.overhead_share",
        stats::median(traced) / stats::median(plain) - 1.0,
    );
    report.set("trace.dropped_spans", dgflow_trace::dropped_spans() as f64);
    report.set("ledger.unattributed_share", book.unattributed_share());
}

/// Round trip of an empty `ThreadPool::run` over every pool thread (s).
pub fn pool_round_trip_s() -> f64 {
    let pool = dgflow::comm::ThreadPool::global();
    let n = pool.n_threads().max(2);
    for _ in 0..100 {
        pool.run(n, &|i| {
            std::hint::black_box(i);
        });
    }
    let reps = 2000;
    let t = Instant::now();
    for _ in 0..reps {
        pool.run(n, &|i| {
            std::hint::black_box(i);
        });
    }
    t.elapsed().as_secs_f64() / f64::from(reps)
}

/// GFlop/s of one k = 3 sum-factorization sweep batch
/// (`tensor::sumfac::apply_1d` in each direction over a 4³ SIMD batch),
/// from the computed flop count of the sweep.
pub fn sumfac_gflops() -> f64 {
    use dgflow::simd::Simd;
    use dgflow::tensor::{sumfac::apply_1d, NodeSet, ShapeInfo1D};
    const LANES: usize = 8;
    let shape = ShapeInfo1D::<f64>::new(3, NodeSet::Gauss, 4);
    let m = &shape.colloc_gradients;
    let n = m.rows();
    let len = n * n * n;
    let src: Vec<Simd<f64, LANES>> = (0..len).map(|i| Simd::splat(i as f64 * 0.01)).collect();
    let mut dst = vec![Simd::<f64, LANES>::zero(); len];
    // one sweep: n² lines × n outputs × n multiply-adds × LANES lanes
    let flops_per_sweep = (2 * n * n * n * n * LANES) as f64;
    let reps = 20_000u32;
    let t = Instant::now();
    for r in 0..reps {
        apply_1d(
            m,
            std::hint::black_box(&src),
            &mut dst,
            [n, n, n],
            (r % 3) as usize,
            false,
        );
        std::hint::black_box(&mut dst);
    }
    flops_per_sweep * f64::from(reps) / t.elapsed().as_secs_f64() / 1e9
}

/// Process CPU time ÷ (wall time × pool threads) over a stretch of work.
#[derive(Debug, Default)]
pub struct CpuMeter {
    cpu_s: f64,
    wall_s: f64,
}

impl CpuMeter {
    /// Run `f`, add its CPU and wall time, and return the wall time.
    pub fn measure(&mut self, f: impl FnOnce()) -> f64 {
        let c0 = sys::process_cpu_s();
        let wall = time(f);
        self.cpu_s += sys::process_cpu_s() - c0;
        self.wall_s += wall;
        wall
    }

    /// Utilization of the pool threads over everything measured so far.
    pub fn utilization(&self) -> f64 {
        let threads = dgflow::comm::ThreadPool::global().n_threads() as f64;
        if self.wall_s == 0.0 {
            return 0.0;
        }
        self.cpu_s / (self.wall_s * threads)
    }
}

/// Computed working set of one operator application (perfmodel ideal
/// bytes per DoF × DoFs), and its ratio to the host's L2 and L3.
pub fn report_working_set(report: &mut Report, degree: usize, n_dofs: usize, scalar_bytes: f64) {
    let counts = dgflow::perfmodel::LaplaceCounts::new(degree, scalar_bytes);
    let mib = counts.ideal_bytes_per_dof * n_dofs as f64 / (1024.0 * 1024.0);
    report.set("mem.apply_working_set_mib", mib);
    report.set("mem.working_set_per_l2", mib / report::L2_MIB);
    report.set("mem.working_set_per_l3", mib / report::L3_MIB);
}

/// `fem.flop_per_byte` and `fem.gflops` of a double-precision DG Laplace
/// apply of `n_dofs` DoFs at `degree` taking `apply_s`: flop and byte
/// counts are computed from `perfmodel`, only the time is measured.
pub fn report_fem_counts(report: &mut Report, degree: usize, n_dofs: usize, apply_s: f64) {
    let counts = dgflow::perfmodel::LaplaceCounts::new(degree, 8.0);
    report.set("fem.flop_per_byte", counts.intensity());
    if apply_s > 0.0 {
        report.set(
            "fem.gflops",
            counts.flops_per_dof * n_dofs as f64 / apply_s / 1e9,
        );
    }
}

/// The V-cycle's per-layer metrics from a span book holding V-cycles traced
/// through the mirror (`mg.precond` spans): smoother, transfer, coarse-solve
/// and level self times per V-cycle, and each level operator's throughput.
/// `level_dofs` are the level sizes, finest first.
pub fn report_multigrid(report: &mut Report, book: &SpanBook, level_dofs: &[usize]) {
    let vcycles = book.total("mg.precond");
    if vcycles.count == 0 {
        return;
    }
    let per = |ns: u64| ns as f64 * 1e-9 / vcycles.count as f64;
    report.set("multigrid.vcycle_s", per(vcycles.total_ns));
    for l in 0..level_dofs.len().min(4) {
        let lvl = book.level("mg.vcycle.level", l);
        report.set(&format!("multigrid.L{l}.self_s"), per(lvl.self_ns));
        let sm = book.level("chebyshev.smooth", l);
        report.set(
            &format!("solvers.chebyshev.L{l}.smooth_s"),
            per(sm.total_ns),
        );
    }
    let amg = book.total("amg.apply");
    report.set("solvers.amg.apply_s", per(amg.total_ns));
    report.set("multigrid.restrict_s", per(book.total("restrict").total_ns));
    report.set(
        "multigrid.prolongate_s",
        per(book.total("prolongate").total_ns),
    );
    if vcycles.total_ns > 0 {
        report.set(
            "multigrid.coarse_share",
            amg.total_ns as f64 / vcycles.total_ns as f64,
        );
    }
    // level applies: level 0 is the single-precision DG operator, the
    // rest are continuous levels
    let rate = |l: usize| {
        let d = ledger::median_s(&book.level("level.apply", l).durations);
        if d > 0.0 {
            level_dofs[l] as f64 / d
        } else {
            0.0
        }
    };
    let dg_sp = rate(0);
    report.set("fem.dg_laplace_sp.dofs_per_s", dg_sp);
    for l in 1..level_dofs.len().min(4) {
        report.set(&format!("fem.cg_laplace.L{l}.dofs_per_s"), rate(l));
    }
    if dg_sp > 0.0 && level_dofs.len() > 1 {
        report.set("fem.cg_dg_ratio", rate(1) / dg_sp);
    }
    let cg = book.total("cg_laplace.apply");
    if cg.total_ns > 0 {
        report.set(
            "fem.cg_laplace.outside_pool_share",
            cg.self_ns as f64 / cg.total_ns as f64,
        );
    }
}
