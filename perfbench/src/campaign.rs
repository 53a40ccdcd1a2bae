//! `campaign_sweep`: `runtime::run_campaign` on a small generated spec — a
//! degree sweep over one duct mesh plus a short ventilated lung case, with
//! checkpoints and telemetry on — into a fresh output directory each time.
//! Each operation is one whole campaign: set-up-cache hits, short steps,
//! and manifest, checkpoint and telemetry writes.

use crate::ledger::SpanBook;
use crate::report::Report;
use crate::sys::Rng;
use crate::{Args, Tally, TimedSetup};
use dgflow::comm::CancelToken;
use dgflow::core::bc::{BcKind, FlowBcs};
use dgflow::core::checkpoint::Checkpoint;
use dgflow::core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow::lung::lung_mesh;
use dgflow::mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow::runtime::json::{self, Json};
use dgflow::runtime::{run_campaign_with, CampaignSpec, CaseSpec, MeshKind, SetupCache};
use dgflow_trace::SpanRecord;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const LANES: usize = 8;

/// The seeded inputs: the duct's driving pressure and viscosity.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignInputs {
    pub pressure_drop: f64,
    pub viscosity: f64,
}

impl CampaignInputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x4341_4d50);
        Self {
            pressure_drop: rng.uniform(0.09, 0.11),
            viscosity: rng.uniform(0.45, 0.55),
        }
    }

    /// The campaign spec, writing into `output`.
    pub fn spec_text(&self, output: &str) -> String {
        format!(
            "[campaign]\n\
             name = \"perfbench\"\n\
             output = \"{output}\"\n\
             checkpoint_every = 10\n\
             max_parallel = 1\n\
             \n\
             [[case]]\n\
             name = \"duct\"\n\
             mesh = \"duct\"\n\
             degrees = [2, 3]\n\
             steps = 20\n\
             dt_max = 0.01\n\
             viscosity = {:?}\n\
             multigrid = false\n\
             pressure_drop = {:?}\n\
             telemetry_every = 5\n\
             \n\
             [[case]]\n\
             name = \"lung\"\n\
             mesh = \"lung\"\n\
             generations = 1\n\
             degree = 2\n\
             steps = 30\n\
             dt_max = 2e-4\n\
             rel_tol = 1e-4\n\
             telemetry_every = 5\n",
            self.viscosity, self.pressure_drop
        )
    }
}

/// One campaign's results.
struct Outcome {
    wall_s: f64,
    cache_hit_ratio: f64,
    checkpoint_bytes: Vec<f64>,
    telemetry_bytes: f64,
    steps: usize,
    case_s: Vec<f64>,
    spans: Vec<SpanRecord>,
}

/// Run one campaign into a fresh directory, check it, and clean up.
fn run_one(inputs: &CampaignInputs, dir: &Path, tally: &mut Tally) -> Outcome {
    let _ = std::fs::remove_dir_all(dir);
    let text = inputs.spec_text(&dir.to_string_lossy());
    let spec = CampaignSpec::parse_str(&text, "perfbench.toml").expect("generated spec is valid");
    let cache = Arc::new(SetupCache::new());
    let t = Instant::now();
    let outcome = run_campaign_with(&spec, &text, false, &CancelToken::new(), &cache);
    let wall_s = t.elapsed().as_secs_f64();
    let outcome = outcome.expect("campaign I/O");
    let snap = cache.stats.snapshot();
    let hits = snap.shape_hits + snap.mapping_hits;
    let total = hits + snap.shape_misses + snap.mapping_misses;

    let mut checkpoint_bytes = Vec::new();
    let mut telemetry_bytes = 0.0;
    let mut spans = Vec::new();
    let mut readable = true;
    for case in &spec.cases {
        let case_dir = dir.join(&case.name);
        match std::fs::read(case_dir.join("checkpoint.ck")) {
            Ok(bytes) => {
                checkpoint_bytes.push(bytes.len() as f64);
                readable &= Checkpoint::read(&mut bytes.as_slice())
                    .is_ok_and(|ck| ck.step_count == case.steps as u64);
            }
            Err(_) => readable = false,
        }
        let telemetry =
            std::fs::read_to_string(case_dir.join("telemetry.jsonl")).unwrap_or_default();
        telemetry_bytes += telemetry.len() as f64;
        spans.extend(telemetry_spans(&telemetry));
    }
    let completed = outcome.manifest.all_completed();
    tally.record(
        completed && readable,
        &format!("campaign: all cases completed {completed}, checkpoints read back {readable}"),
    );
    let _ = std::fs::remove_dir_all(dir);
    Outcome {
        wall_s,
        cache_hit_ratio: hits as f64 / total.max(1) as f64,
        checkpoint_bytes,
        telemetry_bytes,
        steps: spec.cases.iter().map(|c| c.steps).sum(),
        case_s: outcome
            .manifest
            .cases
            .iter()
            .map(|c| c.wall_seconds)
            .collect(),
        spans,
    }
}

/// The span records a traced campaign wrote to one case's telemetry (the
/// runtime drains the span rings into it at every step).
fn telemetry_spans(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|r| r.get("type").and_then(Json::as_str) == Some("span"))
        .filter_map(|r| {
            let num = |k: &str| r.get(k).and_then(Json::as_f64);
            let start = num("ts_ns")? as u64;
            Some(SpanRecord {
                name: intern(r.get("name")?.as_str()?),
                cat: intern(r.get("cat")?.as_str()?),
                start_ns: start,
                end_ns: start + num("dur_ns")? as u64,
                depth: num("depth")? as u16,
                tid: num("tid")? as u32,
                meta: num("meta").map_or(u64::MAX, |m| m as u64),
                work_flops: 0.0,
            })
        })
        .collect()
}

/// A `'static` copy of a span name; the set of names is small and fixed.
fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("name table poisoned");
    if let Some(&n) = names.get(s) {
        return n;
    }
    let n: &'static str = Box::leak(s.to_owned().into_boxed_str());
    names.insert(n);
    n
}

/// The campaign's set-up: spec validation, then every case's mesh through
/// solver ready through one shared set-up cache, as `run_campaign` builds
/// them. Returns `(total, lung mesh, geometry sampling)` times.
fn setup(inputs: &CampaignInputs) -> (f64, f64, f64) {
    let t = Instant::now();
    let text = inputs.spec_text("perfbench/run/setup");
    let spec = CampaignSpec::parse_str(&text, "perfbench.toml").expect("generated spec is valid");
    let cache = SetupCache::new();
    let timed = TimedSetup::new(&cache);
    let mut mesh_s = 0.0;
    for case in &spec.cases {
        std::hint::black_box(build_case(case, &timed, &mut mesh_s));
    }
    (t.elapsed().as_secs_f64(), mesh_s, timed.mapping_s())
}

/// Mesh, boundary conditions and solver of one case, made the way the
/// runtime makes them for a case it runs.
fn build_case(case: &CaseSpec, setup: &TimedSetup, mesh_s: &mut f64) -> FlowSolver<LANES> {
    let mut params = FlowParams::new(case.degree);
    params.viscosity = case.viscosity;
    params.dt_max = case.dt_max;
    params.rel_tol = case.rel_tol;
    params.cfl = case.cfl;
    params.use_multigrid = case.multigrid;
    match case.mesh {
        MeshKind::Duct => {
            let mut coarse = CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]);
            coarse.boundary_ids.insert((0, 0), 1);
            coarse.boundary_ids.insert((1, 1), 2);
            let mut forest = Forest::new(coarse);
            forest.refine_global(case.refine);
            let manifold = TrilinearManifold::from_forest(&forest);
            let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
            bcs.set_pressure(1, case.pressure_drop);
            FlowSolver::with_setup(&forest, &manifold, params, bcs, setup)
        }
        MeshKind::Lung => {
            let t = Instant::now();
            let mesh = lung_mesh(case.generations);
            let forest = Forest::new(mesh.coarse.clone());
            let manifold = TrilinearManifold::from_forest(&forest);
            *mesh_s += t.elapsed().as_secs_f64();
            let bcs = VentilationModel::make_bcs(&mesh);
            std::hint::black_box(VentilationModel::from_lung(
                &mesh,
                VentilatorSettings::default(),
            ));
            FlowSolver::with_setup(&forest, &manifold, params, bcs, setup)
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Tally {
    let inputs = CampaignInputs::from_seed(args.seed);
    let mut tally = Tally::default();
    let runs = crate::sys::run_dir();
    let mut setups = Vec::new();
    let (mut mesh_s, mut mapping_s) = (Vec::new(), Vec::new());
    while crate::another_setup(&setups) {
        let (total, mesh, mapping) = setup(&inputs);
        setups.push(total);
        mesh_s.push(mesh);
        mapping_s.push(mapping);
    }
    let pid = std::process::id();
    let mut next = 0usize;
    let mut dir = move || -> PathBuf {
        next += 1;
        runs.join(format!("campaign-{pid}-{next}"))
    };

    if !report.traced() {
        let ops = crate::window(args.seconds, || run_one(&inputs, &dir(), &mut tally).wall_s);
        crate::report_e2e(report, &args.workload, &setups, &ops);
        return tally;
    }

    report.set("lung.mesh_s", crate::stats::median(&mesh_s));
    report.set("fem.mapping_s", crate::stats::median(&mapping_s));
    let mut book = SpanBook::default();
    let mut cpu = crate::CpuMeter::default();
    let mut plain_runs = Vec::new();
    let mut pool_runs = Vec::new();
    let (plain, traced) = crate::alternating(args.seconds, |on| {
        if on {
            // the root span and what the runtime did not drain into the
            // case telemetry, plus what it did
            let (out, mut spans) = crate::traced_spans(|| run_one(&inputs, &dir(), &mut tally));
            spans.extend(out.spans.iter().copied());
            let runs = spans.iter().filter(|s| s.name == "pool.run").count();
            pool_runs.push(runs as f64 / out.steps as f64);
            book.add(&spans, &crate::ledger::pool_tids());
            out.wall_s
        } else {
            let mut out = None;
            cpu.measure(|| out = Some(run_one(&inputs, &dir(), &mut tally)));
            let out = out.expect("campaign ran");
            let wall = out.wall_s;
            plain_runs.push(out);
            wall
        }
    });
    report.set("comm.pool.cpu_util", cpu.utilization());
    report.set("comm.pool.runs_per_step", crate::stats::median(&pool_runs));
    crate::report_trace(report, &book, &plain, &traced);
    let first = &plain_runs[0];
    report.set("runtime.setup_cache.hit_ratio", first.cache_hit_ratio);
    report.set(
        "runtime.checkpoint.bytes",
        first.checkpoint_bytes.iter().sum::<f64>() / first.checkpoint_bytes.len().max(1) as f64,
    );
    report.set(
        "runtime.telemetry.bytes_per_step",
        first.telemetry_bytes / first.steps as f64,
    );
    let case_s: Vec<f64> = plain_runs
        .iter()
        .flat_map(|o| o.case_s.iter().copied())
        .collect();
    report.set("runtime.case_s", crate::stats::median(&case_s));
    report.set(
        "runtime.checkpoint.write_s",
        crate::ledger::median_s(&book.total("case.checkpoint").durations),
    );
    tally
}
