//! `dist_poisson`: `distbench::run_poisson` — Jacobi CG on the SIPG
//! Laplacian with the overlapped ghost exchange — on two `ProcessComm`
//! ranks over the bifurcation at refinement 0 (k = 2, 11,988 DoF), where
//! message latency and reductions are a visible share of the solve. The
//! benchmark launches the ranks through `comm::SpmdCommand`, each with one
//! pool thread; each operation is one distributed solve.
//!
//! The ranks are this same executable started with `--rank-worker <file>`:
//! rank 0 writes its measurements to `<file>` as `name value…` lines.

use crate::ledger::SpanBook;
use crate::report::{Report, PER_LAYER};
use crate::sys::Rng;
use crate::{Args, Tally};
use dgflow::comm::{Communicator, ProcessComm, SelfComm, SpmdCommand};
use dgflow::distbench::{pingpong, run_poisson, PoissonCase, PoissonRun};
use dgflow::fem::distributed::{build_partitions, OverlapPlan};
use dgflow::fem::operators::integrate_rhs;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const REFINE: usize = 0;
const DEGREE: usize = 2;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 1200;
/// Rank-count invariance tolerance on ‖x‖, as `tests/dist_invariance.rs`.
const NORM_TOL: f64 = 1e-10;
/// Solves of the one-rank baseline behind `comm.scaling_eff`.
const BASELINE_SOLVES: usize = 5;

/// The seeded input: the coefficients of the right-hand side
/// `f = c₀ sin(3x) + c₁ y z + c₂`.
#[derive(Clone, Debug, PartialEq)]
pub struct DistInputs {
    pub coeffs: [f64; 3],
}

impl DistInputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x4449_5354);
        Self {
            coeffs: [
                rng.uniform(0.75, 1.25),
                rng.uniform(0.75, 1.25),
                rng.uniform(-0.25, 0.25),
            ],
        }
    }
}

/// The distributed case with the seeded right-hand side; every rank
/// builds it redundantly, as `distbench` does.
fn build_case(inputs: &DistInputs) -> PoissonCase {
    let mut case = PoissonCase::build(REFINE, DEGREE);
    let c = inputs.coeffs;
    case.rhs = integrate_rhs(&case.mf, &|x| {
        c[0] * (3.0 * x[0]).sin() + c[1] * x[1] * x[2] + c[2]
    });
    case
}

/// A communicator that counts the messages, bytes and reductions passing
/// through it, and runs each reduction under a span.
struct Counting<'a> {
    inner: &'a dyn Communicator,
    msgs: AtomicU64,
    bytes: AtomicU64,
    reductions: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn Communicator) -> Self {
        Self {
            inner,
            msgs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            reductions: AtomicU64::new(0),
        }
    }

    /// `(messages, bytes, reductions)` so far.
    fn counts(&self) -> [u64; 3] {
        // ordering: Relaxed — statistics read on the thread that counts.
        [
            self.msgs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
            self.reductions.load(Ordering::Relaxed),
        ]
    }
}

impl Communicator for Counting<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn send_f64(&self, dest: usize, tag: u64, data: Vec<f64>) {
        // ordering: Relaxed — statistics only.
        self.msgs.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(8 * data.len() as u64, Ordering::Relaxed);
        self.inner.send_f64(dest, tag, data);
    }
    fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        self.inner.recv_f64(src, tag)
    }
    fn allreduce_sum(&self, x: f64) -> f64 {
        // ordering: Relaxed — statistics only.
        self.reductions.fetch_add(1, Ordering::Relaxed);
        let _sp = dgflow_trace::span("bench", "comm.allreduce");
        self.inner.allreduce_sum(x)
    }
    fn allreduce_max(&self, x: f64) -> f64 {
        // ordering: Relaxed — statistics only.
        self.reductions.fetch_add(1, Ordering::Relaxed);
        let _sp = dgflow_trace::span("bench", "comm.allreduce");
        self.inner.allreduce_max(x)
    }
    fn barrier(&self) {
        self.inner.barrier();
    }
}

pub fn run(args: &Args, report: &mut Report) -> Tally {
    let inputs = DistInputs::from_seed(args.seed);
    let mut tally = Tally::default();
    let dir = crate::sys::run_dir();
    let out = dir.join(format!("dist-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&out);
    launch(args, &out, RANKS);
    let res = read_results(&out);
    let _ = std::fs::remove_file(&out);

    // the reference: the same seeded problem on one rank in this process
    let case = build_case(&inputs);
    let reference = run_poisson(&SelfComm, &case, TOL, MAX_ITERS);
    let want = reference.solution_norm;
    let norms = &res["norm"];
    let converged = &res["converged"];
    for (&norm, &conv) in norms.iter().zip(converged) {
        tally.record(
            conv == 1.0 && reference.converged && (norm - want).abs() <= NORM_TOL * want.abs(),
            &format!("dist_poisson: converged {conv}, ‖x‖ {norm:.15e} vs one rank {want:.15e}"),
        );
    }

    if !report.traced() {
        crate::report_e2e(report, &args.workload, &res["setup"], &res["solve"]);
        report.set("peak_rss_mb", res["rss"][0]);
        return tally;
    }
    for (name, values) in &res {
        if let Some(metric) = name.strip_prefix("metric:") {
            report.set(metric, values[0]);
        }
    }
    // serial baseline: one rank, one thread, same problem
    let base = dir.join(format!("dist-base-{}.txt", std::process::id()));
    launch(args, &base, 1);
    let t1 = crate::stats::median(&read_results(&base)["solve"]);
    let _ = std::fs::remove_file(&base);
    let t2 = crate::stats::median(&res["solve"]);
    report.set("comm.scaling_eff", t1 / (RANKS as f64 * t2));
    tally
}

/// Launch `ranks` copies of this executable as SPMD ranks, one pool thread
/// each, and wait for them.
fn launch(args: &Args, out: &Path, ranks: usize) {
    let exe = std::env::current_exe().expect("path of the running executable");
    let cmd = SpmdCommand::new(exe)
        .arg("--rank-worker")
        .arg(out.to_string_lossy().into_owned())
        .arg("--workload")
        .arg(args.workload.clone())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if args.trace { "1" } else { "0" })
        .env("DGFLOW_THREADS", "1")
        .timeout(Duration::from_secs(170))
        .quiet_nonzero_ranks();
    if let Err(e) = cmd.launch(ranks) {
        panic!("dist_poisson: rank group failed: {e}");
    }
}

fn read_results(path: &Path) -> BTreeMap<String, Vec<f64>> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read rank results {}: {e}", path.display()));
    text.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            let vals = it
                .map(|v| v.parse().expect("numeric rank result"))
                .collect();
            Some((name, vals))
        })
        .collect()
}

/// The body of one rank process.
pub fn rank_main(args: &Args, out: &Path) {
    let size = dgflow::comm::spmd::rank_env().map_or(1, |(_, n)| n);
    let process;
    let inner: &dyn Communicator = if size > 1 {
        process = ProcessComm::from_env().expect("rank environment");
        &process
    } else {
        &SelfComm
    };
    let comm = Counting::new(inner);
    let inputs = DistInputs::from_seed(args.seed);
    let mut lines: Vec<String> = Vec::new();

    if size == 1 {
        let case = build_case(&inputs);
        let mut runs = Vec::new();
        let solves: Vec<f64> = (0..BASELINE_SOLVES)
            .map(|_| solve(&comm, &case, &mut runs))
            .collect();
        lines.push(format!("solve {}", join(&solves)));
        write_lines(out, &lines);
        return;
    }

    // set-up: case, partitions and overlap plan; the slowest rank counts
    let mut setups = Vec::new();
    let mut case = None;
    while crate::another_setup(&setups) {
        drop(case.take());
        let t = Instant::now();
        let c = build_case(&inputs);
        let parts = build_partitions(&c.forest, &c.mf, size);
        std::hint::black_box(OverlapPlan::build(&parts[comm.rank()], &c.mf));
        setups.push(comm.allreduce_max(t.elapsed().as_secs_f64()));
        case = Some(c);
    }
    let case = case.expect("at least one set-up");
    lines.push(format!("setup {}", join(&setups)));

    let mut runs: Vec<PoissonRun> = Vec::new();
    // rank 0 keeps time; every rank follows its decision
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let more = |n: usize| {
        let go = comm.rank() == 0 && (t0.elapsed() < budget || n < crate::MIN_SAMPLES);
        comm.allreduce_max(f64::from(u8::from(go))) > 0.0
    };

    let mut book = SpanBook::default();
    let mut layers = Report::new(true);
    let mut solve_s = Vec::new();
    let mut traced_s = Vec::new();
    if !args.trace {
        while more(solve_s.len()) {
            solve_s.push(solve(&comm, &case, &mut runs));
        }
    } else {
        // exact counts from one traced solve
        let c0 = comm.counts();
        crate::traced(&mut book, || solve(&comm, &case, &mut runs));
        let c1 = comm.counts();
        let run = runs.last().expect("traced solve ran");
        let applies = run.n_matvecs as f64;
        layers.set("comm.msgs_per_apply", (c1[0] - c0[0]) as f64 / applies);
        layers.set("comm.bytes_per_apply", (c1[1] - c0[1]) as f64 / applies);
        layers.set(
            "comm.reductions_per_iter",
            (c1[2] - c0[2]) as f64 / run.iters.max(1) as f64,
        );
        layers.set("solvers.cg.iters", run.iters as f64);
        while more(solve_s.len()) {
            solve_s.push(solve(&comm, &case, &mut runs));
            traced_s.push(crate::traced(&mut book, || solve(&comm, &case, &mut runs)));
        }
    }
    lines.push(format!("solve {}", join(&solve_s)));
    lines.push(format!(
        "norm {}",
        join(&runs.iter().map(|r| r.solution_norm).collect::<Vec<_>>())
    ));
    lines.push(format!(
        "converged {}",
        join(
            &runs
                .iter()
                .map(|r| f64::from(u8::from(r.converged)))
                .collect::<Vec<_>>()
        )
    ));

    if args.trace {
        let per_apply: Vec<f64> = runs
            .iter()
            .map(|r| r.matvec_s / r.n_matvecs.max(1) as f64)
            .collect();
        let apply_s = crate::stats::median(&per_apply);
        layers.set("fem.apply_distributed_s", apply_s);
        crate::report_fem_counts(&mut layers, DEGREE, case.n_dofs(), apply_s);
        crate::report_working_set(&mut layers, DEGREE, case.n_dofs(), 8.0);
        crate::report_trace(&mut layers, &book, &solve_s, &traced_s);
        let dropped = comm.allreduce_sum(dgflow_trace::dropped_spans() as f64);
        layers.set("trace.dropped_spans", dropped);
        let wait = book.total("comm.recv_wait").total_ns as f64;
        layers.set("comm.wait_share", wait / book.root_ns.max(1) as f64);
        layers.set("comm.exchange_s", exchange_s(&comm, &case));
        layers.set("comm.pingpong_latency_s", pingpong(&comm, &[1], 500)[0].1);
        layers.set("tensor.sumfac_gflops", crate::sumfac_gflops());
        for &(name, _) in PER_LAYER {
            lines.push(format!("metric:{name} {:?}", layers.get(name)));
        }
    }
    let rss = comm.allreduce_max(crate::sys::peak_rss_mb());
    lines.push(format!("rss {rss}"));
    if comm.rank() == 0 {
        write_lines(out, &lines);
    }
    comm.barrier();
}

/// One distributed solve — the whole `run_poisson` call, entered together
/// after a barrier so that neither rank's clock holds the other's lag;
/// returns the slowest rank's time.
fn solve(comm: &Counting, case: &PoissonCase, runs: &mut Vec<PoissonRun>) -> f64 {
    comm.barrier();
    let t = Instant::now();
    let run = run_poisson(comm, case, TOL, MAX_ITERS);
    let t = comm.allreduce_max(t.elapsed().as_secs_f64());
    runs.push(run);
    t
}

/// Median time of one blocking `GhostPattern::update` of a DG vector.
fn exchange_s(comm: &Counting, case: &PoissonCase) -> f64 {
    let parts = build_partitions(&case.forest, &case.mf, comm.size());
    let part = &parts[comm.rank()];
    let mut v = vec![1.0; part.n_local()];
    let n_owned = part.n_owned();
    comm.barrier();
    let times: Vec<f64> = (0..300)
        .map(|_| crate::time(|| part.pattern.update(comm, &mut v, n_owned)))
        .collect();
    comm.allreduce_max(crate::stats::median(&times))
}

fn join(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn write_lines(out: &Path, lines: &[String]) {
    let tmp = out.with_extension("tmp");
    std::fs::write(&tmp, lines.join("\n") + "\n").expect("write rank results");
    std::fs::rename(&tmp, out).expect("publish rank results");
}
