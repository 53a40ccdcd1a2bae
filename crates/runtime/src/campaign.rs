//! Campaign orchestration: turn a validated [`CampaignSpec`] into solver
//! runs with checkpoints, a durable manifest, telemetry, and resume.
//!
//! # Layout of an output directory
//!
//! ```text
//! results/<campaign>/
//!   campaign.toml        copy of the spec the campaign was started from
//!   manifest.json        per-case status (atomically replaced)
//!   summary.json         campaign summary (written on every finish)
//!   <case>/checkpoint.ck     latest atomic checkpoint
//!   <case>/telemetry.jsonl   step/checkpoint/summary records (appended)
//! ```
//!
//! # Crash recovery protocol
//!
//! Every durable file (spec copy, manifest, checkpoints, summary) is
//! written by [`durable_write`] (tmp + fsync + rename + directory fsync),
//! so after a kill at any instant the directory holds a consistent
//! manifest and, per case, either no checkpoint or a complete one.
//! `resume` then:
//!
//! 1. loads the manifest and refuses to run if the spec text hash
//!    changed (the fingerprint pins campaign identity);
//! 2. skips `completed` cases;
//! 3. rebuilds every other case deterministically from the spec, restores
//!    its checkpoint when one exists (full BDF2 history, so the next step
//!    is the step the killed run would have taken), and continues to the
//!    target step count.
//!
//! The environment knob `DGFLOW_TEST_ABORT_AFTER_CHECKPOINTS=N` makes the
//! process abort right after the N-th checkpoint rename across the
//! campaign — the deterministic "pull the plug" used by the
//! kill-and-resume integration test and the `runtime-smoke` CI step.

use crate::cache::SetupCache;
use crate::durable::durable_write;
use crate::json::Json;
use crate::manifest::{canonical_fingerprint, text_fingerprint, CaseRecord, CaseStatus, Manifest};
use crate::sched;
use crate::spec::{CampaignSpec, CaseSpec, MeshKind};
use crate::telemetry::{summary_table, Telemetry};
use dgflow_check::sync::Mutex;
use dgflow_comm::CancelToken;
use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::checkpoint::Checkpoint;
use dgflow_core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow_lung::lung_mesh;
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SIMD lane width used by all campaign solvers (matches the examples).
const LANES: usize = 8;

/// What a finished (or interrupted) campaign run reports back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Final manifest state.
    pub manifest: Manifest,
    /// Per-case summary records of the cases that ran in this attempt.
    pub summaries: Vec<Json>,
    /// Human-readable campaign summary table.
    pub table: String,
}

/// Abort knob shared by every case of a campaign (see module docs).
struct AbortAfter {
    limit: Option<usize>,
    written: AtomicUsize,
}

impl AbortAfter {
    fn from_env() -> Self {
        Self {
            limit: std::env::var("DGFLOW_TEST_ABORT_AFTER_CHECKPOINTS")
                .ok()
                .and_then(|s| s.parse().ok()),
            written: AtomicUsize::new(0),
        }
    }

    /// Count one checkpoint; abort the process if the limit is reached.
    fn on_checkpoint(&self) {
        let n = self.written.fetch_add(1, Ordering::SeqCst) + 1;
        if self.limit.is_some_and(|limit| n >= limit) {
            // Simulated power loss: no destructors, no flushes.
            std::process::abort();
        }
    }
}

/// A constructed case: solver plus (for lung cases) the ventilation
/// model coupled to it.
struct ActiveCase {
    solver: FlowSolver<LANES>,
    vent: Option<VentilationModel>,
}

impl ActiveCase {
    /// Build the case deterministically from its spec, fetching shape
    /// tables and geometry samplings through the shared cache.
    fn build(case: &CaseSpec, cache: &SetupCache) -> Self {
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
                let solver = FlowSolver::with_setup(&forest, &manifold, params, bcs, cache);
                Self { solver, vent: None }
            }
            MeshKind::Lung => {
                let mesh = lung_mesh(case.generations);
                let forest = Forest::new(mesh.coarse.clone());
                let manifold = TrilinearManifold::from_forest(&forest);
                let bcs = VentilationModel::make_bcs(&mesh);
                let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
                let mut solver = FlowSolver::with_setup(&forest, &manifold, params, bcs, cache);
                vent.couple(&mut solver, 0.0);
                Self {
                    solver,
                    vent: Some(vent),
                }
            }
        }
    }

    /// Advance one step and couple the ventilation model.
    fn step(&mut self) -> dgflow_core::StepInfo {
        let info = self.solver.step();
        if let Some(vent) = &mut self.vent {
            vent.couple(&mut self.solver, info.dt);
        }
        info
    }

    fn capture(&self) -> Checkpoint {
        Checkpoint::capture(&self.solver, self.vent.as_ref())
    }

    /// Restore a checkpoint and recompute the boundary pressures the
    /// ventilator derives from the restored state.
    fn restore(&mut self, ck: &Checkpoint) -> io::Result<()> {
        ck.restore(&mut self.solver, self.vent.as_mut())?;
        if let Some(vent) = &mut self.vent {
            vent.couple(&mut self.solver, 0.0);
        }
        Ok(())
    }
}

/// Durably write a checkpoint file.
fn write_checkpoint_file(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    let mut buf = Vec::new();
    ck.write(&mut buf)?;
    durable_write(path, &buf)
}

/// Shared mutable campaign state: the manifest plus its persistence.
struct ManifestStore {
    dir: PathBuf,
    inner: Mutex<Manifest>,
}

impl ManifestStore {
    /// Mutate one case record and persist atomically.
    fn update(&self, index: usize, f: impl FnOnce(&mut CaseRecord)) -> io::Result<()> {
        let mut m = self.inner.lock();
        f(&mut m.cases[index]);
        m.save(&self.dir)
    }
}

/// Immutable campaign-wide context shared by every case job.
struct CampaignCtx<'a> {
    out: &'a Path,
    checkpoint_every: usize,
    cache: &'a SetupCache,
    store: &'a ManifestStore,
    abort: &'a AbortAfter,
}

/// Run one case to its target step count. Returns the terminal status
/// and the telemetry summary record.
fn run_case(
    case: &CaseSpec,
    index: usize,
    ctx: &CampaignCtx<'_>,
    cancel: &CancelToken,
) -> io::Result<(CaseStatus, Json)> {
    let CampaignCtx {
        out,
        checkpoint_every,
        cache,
        store,
        abort,
    } = *ctx;
    let case_dir = out.join(&case.name);
    std::fs::create_dir_all(&case_dir)?;
    let ck_path = case_dir.join("checkpoint.ck");
    let ck_rel = format!("{}/checkpoint.ck", case.name);

    store.update(index, |c| {
        c.status = CaseStatus::Running;
        c.error = None;
    })?;

    // Span attribution caveat: `take_spans` drains the process-global
    // collector, so with `max_parallel > 1` a drain may pick up spans of
    // another concurrently running case. Exact per-case attribution holds
    // for the default `max_parallel = 1` (see DESIGN.md §11).
    let tracing_on = dgflow_trace::level() != dgflow_trace::Level::Off;

    let sp_setup = dgflow_trace::span("case", "case.setup");
    let mut active = ActiveCase::build(case, cache);
    if ck_path.exists() {
        let bytes = std::fs::read(&ck_path)?;
        let ck = Checkpoint::read(&mut bytes.as_slice())?;
        active.restore(&ck)?;
    }
    drop(sp_setup);

    let n_dofs_u = 3 * active.solver.mf_u.n_dofs();
    let n_dofs_p = active.solver.mf_p.n_dofs();
    let mut telem = Telemetry::open(
        &case_dir.join("telemetry.jsonl"),
        &case.name,
        n_dofs_u,
        n_dofs_p,
        case.telemetry_every,
    )?;
    if tracing_on {
        telem.record_spans(&dgflow_trace::take_spans(), &dgflow_trace::thread_tracks())?;
    }

    let mut status = CaseStatus::Completed;
    let start = Instant::now();
    let mut synced_wall = 0.0;
    while active.solver.step_count < case.steps {
        if cancel.is_cancelled() {
            status = CaseStatus::Cancelled;
            break;
        }
        let info = active.step();
        let done = active.solver.step_count;
        telem.record_step(done, &info)?;
        if tracing_on {
            // Step boundary = quiescent point: every span of this step is
            // closed, so the drain is complete and cheap.
            telem.record_spans(&dgflow_trace::take_spans(), &dgflow_trace::thread_tracks())?;
        }
        if done.is_multiple_of(checkpoint_every) || done == case.steps {
            let sp_ck = dgflow_trace::span("case", "case.checkpoint").meta(done as u64);
            write_checkpoint_file(&ck_path, &active.capture())?;
            drop(sp_ck);
            telem.record_checkpoint(done)?;
            let wall = start.elapsed().as_secs_f64();
            let delta = wall - synced_wall;
            synced_wall = wall;
            store.update(index, |c| {
                c.steps_done = done;
                c.checkpoint = Some(ck_rel.clone());
                c.wall_seconds += delta;
            })?;
            abort.on_checkpoint();
        }
    }

    // Persist the stopping point (also for cancellation between
    // checkpoints, so resume does not repeat finished steps).
    if status == CaseStatus::Cancelled && active.solver.step_count > 0 {
        write_checkpoint_file(&ck_path, &active.capture())?;
        telem.record_checkpoint(active.solver.step_count)?;
    }
    if tracing_on {
        telem.record_spans(&dgflow_trace::take_spans(), &dgflow_trace::thread_tracks())?;
    }
    telem.record_summary(case.degree, status.as_str())?;
    let summary = telem.case_summary(case.degree, status.as_str());
    let done = active.solver.step_count;
    let delta = start.elapsed().as_secs_f64() - synced_wall;
    let has_ck = done > 0;
    store.update(index, |c| {
        c.status = status;
        c.steps_done = done;
        c.wall_seconds += delta;
        if has_ck {
            c.checkpoint = Some(ck_rel.clone());
        }
    })?;
    Ok((status, summary))
}

/// Start a fresh campaign (`resume = false`) or continue an interrupted
/// one (`resume = true`). `spec_text` is the raw TOML the spec was parsed
/// from; its *canonical* fingerprint (key order, whitespace, and number
/// formatting normalized) pins campaign identity across resumes, so a
/// reformatted-but-identical spec still resumes.
pub fn run_campaign(
    spec: &CampaignSpec,
    spec_text: &str,
    resume: bool,
    cancel: &CancelToken,
) -> io::Result<CampaignOutcome> {
    run_campaign_with(
        spec,
        spec_text,
        resume,
        cancel,
        &Arc::new(SetupCache::new()),
    )
}

/// [`run_campaign`] against a caller-owned [`SetupCache`]. A long-running
/// service passes one shared cache so shape tables and geometry samplings
/// are reused *across* campaigns, and the cache counters reported in
/// `summary.json` are then cumulative over the cache's lifetime.
pub fn run_campaign_with(
    spec: &CampaignSpec,
    spec_text: &str,
    resume: bool,
    cancel: &CancelToken,
    cache: &Arc<SetupCache>,
) -> io::Result<CampaignOutcome> {
    let out = &spec.output;
    std::fs::create_dir_all(out)?;
    let fingerprint = canonical_fingerprint(spec_text);
    let manifest_path = Manifest::path_in(out);

    let manifest = if resume {
        let m = Manifest::load(out)?;
        // Manifests written before canonicalization landed pinned
        // campaign identity to the raw-text fingerprint; accept either
        // spelling so interrupted pre-canonicalization campaigns stay
        // resumable.
        if m.spec_fingerprint != fingerprint && m.spec_fingerprint != text_fingerprint(spec_text) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "campaign spec changed since this campaign was started; \
                 refusing to resume under a different spec",
            ));
        }
        m
    } else {
        if manifest_path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already exists — use `dgflow resume` to continue it, \
                     or point `output` at a fresh directory",
                    manifest_path.display()
                ),
            ));
        }
        // Durable copy of the spec, so `resume <output-dir>` works even
        // if the original file moved.
        durable_write(&out.join("campaign.toml"), spec_text.as_bytes())?;
        let m = Manifest::new(
            &spec.name,
            fingerprint,
            spec.cases.iter().map(|c| (c.name.clone(), c.steps)),
        );
        m.save(out)?;
        m
    };

    let store = ManifestStore {
        dir: out.clone(),
        inner: Mutex::new(manifest),
    };
    let abort = AbortAfter::from_env();

    // Deterministic job list: spec order, completed cases skipped.
    let todo: Vec<usize> = store
        .inner
        .lock()
        .cases
        .iter()
        .enumerate()
        .filter(|(_, c)| c.status.needs_run())
        .map(|(i, _)| i)
        .collect();

    let jobs: Vec<_> = todo
        .iter()
        .map(|&index| {
            let case = spec.cases[index].clone();
            let cache = cache.clone();
            let store = &store;
            let abort = &abort;
            let out = out.clone();
            let checkpoint_every = spec.checkpoint_every;
            move |cancel: &CancelToken| {
                let ctx = CampaignCtx {
                    out: &out,
                    checkpoint_every,
                    cache: &cache,
                    store,
                    abort,
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_case(&case, index, &ctx, cancel)
                }));
                let error = match result {
                    Ok(Ok((_, summary))) => return Some(summary),
                    Ok(Err(e)) => e.to_string(),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "case panicked".to_string());
                        format!("panic: {msg}")
                    }
                };
                let _ = store.update(index, |c| {
                    c.status = CaseStatus::Failed;
                    c.error = Some(error.clone());
                });
                None
            }
        })
        .collect();

    let results = sched::run_jobs(jobs, spec.max_parallel, cancel);
    let summaries: Vec<Json> = results.into_iter().flatten().flatten().collect();

    let manifest = store.inner.into_inner();
    let table = summary_table(&summaries);
    let summary_doc = Json::obj([
        ("campaign", Json::Str(manifest.campaign.clone())),
        (
            "completed",
            Json::Num(
                manifest
                    .cases
                    .iter()
                    .filter(|c| c.status == CaseStatus::Completed)
                    .count() as f64,
            ),
        ),
        ("total", Json::Num(manifest.cases.len() as f64)),
        ("cases", Json::Arr(summaries.clone())),
        ("cache", {
            let snap = cache.stats.snapshot();
            Json::obj([
                ("shape_hits", Json::Num(snap.shape_hits as f64)),
                ("shape_misses", Json::Num(snap.shape_misses as f64)),
                ("mapping_hits", Json::Num(snap.mapping_hits as f64)),
                ("mapping_misses", Json::Num(snap.mapping_misses as f64)),
                ("case_hits", Json::Num(snap.case_hits as f64)),
                ("case_misses", Json::Num(snap.case_misses as f64)),
            ])
        }),
    ]);
    durable_write(
        &out.join("summary.json"),
        format!("{summary_doc}\n").as_bytes(),
    )?;

    Ok(CampaignOutcome {
        manifest,
        summaries,
        table,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn toy_spec(dir: &Path) -> (CampaignSpec, String) {
        let text = format!(
            r#"
[campaign]
name = "toy"
output = "{}"
checkpoint_every = 3

[[case]]
name = "duct"
mesh = "duct"
degree = 2
steps = 5
dt_max = 0.01
viscosity = 0.5
multigrid = false
pressure_drop = 0.1
"#,
            dir.display()
        );
        let spec = CampaignSpec::parse_str(&text, "test.toml").unwrap();
        (spec, text)
    }

    #[test]
    fn lung_case_resumes_bit_for_bit() {
        let text = r#"
[campaign]
name = "lung"
output = "unused"

[[case]]
name = "lung"
mesh = "lung"
generations = 1
degree = 2
steps = 4
dt_max = 2e-4
rel_tol = 1e-4
"#;
        let case = CampaignSpec::parse_str(text, "test.toml").unwrap().cases[0].clone();
        let cache = SetupCache::new();
        let bytes = |active: &ActiveCase| {
            let mut buf = Vec::new();
            active.capture().write(&mut buf).unwrap();
            buf
        };
        let mut whole = ActiveCase::build(&case, &cache);
        while whole.solver.step_count < case.steps {
            whole.step();
        }
        let mut killed = ActiveCase::build(&case, &cache);
        for _ in 0..2 {
            killed.step();
        }
        let ck = Checkpoint::read(&mut bytes(&killed).as_slice()).unwrap();
        let mut resumed = ActiveCase::build(&case, &cache);
        resumed.restore(&ck).unwrap();
        while resumed.solver.step_count < case.steps {
            resumed.step();
        }
        assert!(whole.vent.as_ref().unwrap().cycle_inhaled > 0.0);
        assert!(
            bytes(&resumed) == bytes(&whole),
            "resumed lung case diverged"
        );
    }

    #[test]
    fn fresh_campaign_runs_to_completed_manifest() {
        let dir = std::env::temp_dir().join(format!("dgflow-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, text) = toy_spec(&dir.join("out"));
        let cancel = CancelToken::default();
        let outcome = run_campaign(&spec, &text, false, &cancel).unwrap();
        assert!(outcome.manifest.all_completed());
        assert_eq!(outcome.manifest.cases[0].steps_done, 5);
        assert_eq!(outcome.summaries.len(), 1);
        // durable artifacts
        let out = &spec.output;
        assert!(Manifest::path_in(out).exists());
        assert!(out.join("campaign.toml").exists());
        assert!(out.join("summary.json").exists());
        assert!(out.join("duct/checkpoint.ck").exists());
        assert!(out.join("duct/telemetry.jsonl").exists());
        // second `run` refuses; `resume` of a completed campaign is a
        // no-op that keeps the manifest completed
        assert_eq!(
            run_campaign(&spec, &text, false, &cancel)
                .unwrap_err()
                .kind(),
            io::ErrorKind::AlreadyExists
        );
        let again = run_campaign(&spec, &text, true, &cancel).unwrap();
        assert!(again.manifest.all_completed());
        assert!(again.summaries.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_never_reads_stale_tmp_files() {
        let dir = std::env::temp_dir().join(format!("dgflow-campaign-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, text) = toy_spec(&dir.join("out"));
        let out = &spec.output;
        // A cancelled start leaves a pending manifest and no checkpoint.
        let cancel = CancelToken::default();
        cancel.cancel();
        run_campaign(&spec, &text, false, &cancel).unwrap();
        // Torn tmp files of writers killed before their rename: a loader
        // that read any of them would fail the resume.
        std::fs::create_dir_all(out.join("duct")).unwrap();
        let stale = [
            "manifest.json.tmp",
            "summary.json.tmp",
            "duct/checkpoint.ck.tmp",
        ];
        for name in stale {
            std::fs::write(out.join(name), "torn").unwrap();
        }
        let outcome = run_campaign(&spec, &text, true, &CancelToken::default()).unwrap();
        assert!(outcome.manifest.all_completed());
        assert_eq!(outcome.manifest.cases[0].steps_done, 5);
        for name in stale {
            assert!(!out.join(name).exists(), "{name} reused by the next write");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_edited_spec() {
        let dir = std::env::temp_dir().join(format!("dgflow-campaign-edit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, text) = toy_spec(&dir.join("out"));
        let cancel = CancelToken::default();
        run_campaign(&spec, &text, false, &cancel).unwrap();
        let edited = text.replace("steps = 5", "steps = 7");
        let spec2 = CampaignSpec::parse_str(&edited, "test.toml").unwrap();
        let err = run_campaign(&spec2, &edited, true, &cancel).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_accepts_legacy_raw_text_fingerprint() {
        // Manifests written before fingerprint canonicalization carry
        // the raw-text fingerprint; resume must still accept them.
        let dir =
            std::env::temp_dir().join(format!("dgflow-campaign-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, text) = toy_spec(&dir.join("out"));
        let cancel = CancelToken::default();
        run_campaign(&spec, &text, false, &cancel).unwrap();
        // Rewrite the manifest as an old daemon would have written it.
        assert_ne!(canonical_fingerprint(&text), text_fingerprint(&text));
        let mut m = Manifest::load(&spec.output).unwrap();
        m.spec_fingerprint = text_fingerprint(&text);
        m.save(&spec.output).unwrap();
        let outcome = run_campaign(&spec, &text, true, &cancel).unwrap();
        assert!(outcome.manifest.all_completed());
        // An actually-edited spec is still refused.
        let edited = text.replace("steps = 5", "steps = 7");
        let spec2 = CampaignSpec::parse_str(&edited, "test.toml").unwrap();
        let err = run_campaign(&spec2, &edited, true, &cancel).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancelled_campaign_resumes_to_completion() {
        let dir =
            std::env::temp_dir().join(format!("dgflow-campaign-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (spec, text) = toy_spec(&dir.join("out"));
        // Cancel before the run starts: every case is skipped.
        let cancel = CancelToken::default();
        cancel.cancel();
        let outcome = run_campaign(&spec, &text, false, &cancel).unwrap();
        assert!(!outcome.manifest.all_completed());
        assert_eq!(outcome.manifest.cases[0].status, CaseStatus::Pending);
        // Resume with a live token finishes the work.
        let cancel = CancelToken::default();
        let outcome = run_campaign(&spec, &text, true, &cancel).unwrap();
        assert!(outcome.manifest.all_completed());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
