//! The daemon: socket front end, worker team, result store, and
//! telemetry aggregation.
//!
//! # Life of a submission
//!
//! 1. A client connects to the Unix socket and sends a `submit` line.
//! 2. The spec is parsed/validated, its canonical fingerprint computed
//!    ([`crate::job_fingerprint`]). A completed job under that
//!    fingerprint is a **whole-case cache hit**: the stored summary is
//!    served, no solver runs, and `SetupCache`'s case counters tick. A
//!    queued/running job is a **dedup join** — the client shares its id.
//! 3. A genuinely new job is appended to the durable [`JobTable`]
//!    (fsync'd *before* the acknowledgement) and entered into the
//!    [`FairScheduler`] under its tenant lane.
//! 4. A worker thread dispatches it, re-parses the stored spec, points
//!    its output at `jobs/<fingerprint>/out` inside the state directory,
//!    and runs the campaign on the shared [`SetupCache`] — shape tables
//!    and geometry samplings are reused across jobs, not just cases.
//! 5. Completion (or failure/cancellation) lands in the table; per-case
//!    JSONL telemetry is drained into the process metrics registry.
//!
//! # Shutdown
//!
//! Both the `shutdown` verb and SIGINT/SIGTERM funnel into the same
//! path: the scheduler halts (queued jobs stay queued), every running
//! job's [`CancelToken`] trips so its cases checkpoint at the next step
//! boundary, interrupted jobs are demoted back to `queued`, and the
//! daemon exits. The next daemon start re-admits the queue and resumes
//! interrupted campaigns from their checkpoints — nothing acknowledged
//! is ever lost.

use crate::fair::FairScheduler;
use crate::proto::{self, Request};
use crate::queue::{JobRecord, JobState, JobTable};
use dgflow_check::sync::Mutex;
use dgflow_comm::CancelToken;
use dgflow_runtime::json::{self, Json};
use dgflow_runtime::{run_campaign_with, CampaignSpec, Manifest, SetupCache};
use dgflow_trace::{Counter, Gauge, Histogram};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// State directory: `queue.json`, the socket, and all job outputs.
    pub state_dir: PathBuf,
    /// Socket path (default `<state_dir>/dgflow.sock`).
    pub socket: PathBuf,
    /// Worker threads (campaigns running concurrently).
    pub workers: usize,
    /// Per-tenant in-flight cap.
    pub max_in_flight: usize,
}

impl ServeConfig {
    /// Defaults rooted at `state_dir`: one worker (each campaign gets the
    /// whole kernel thread pool — see `runtime::sched`), per-tenant cap 1.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        let state_dir = state_dir.into();
        let socket = state_dir.join("dgflow.sock");
        Self {
            state_dir,
            socket,
            workers: 1,
            max_in_flight: 1,
        }
    }
}

/// Service-level metric handles (registered once, updated lock-free).
struct Metrics {
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    dedup_joins: Arc<Counter>,
    steps_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    jobs_running: Arc<Gauge>,
    job_latency_ns: Arc<Histogram>,
    step_ns: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Self {
        Self {
            jobs_submitted: dgflow_trace::counter("serve.jobs_submitted"),
            jobs_completed: dgflow_trace::counter("serve.jobs_completed"),
            jobs_failed: dgflow_trace::counter("serve.jobs_failed"),
            jobs_cancelled: dgflow_trace::counter("serve.jobs_cancelled"),
            dedup_joins: dgflow_trace::counter("serve.dedup_joins"),
            steps_total: dgflow_trace::counter("serve.steps_total"),
            queue_depth: dgflow_trace::gauge("serve.queue_depth"),
            jobs_running: dgflow_trace::gauge("serve.jobs_running"),
            job_latency_ns: dgflow_trace::histogram("serve.job_latency_ns"),
            step_ns: dgflow_trace::histogram("serve.step_ns"),
        }
    }
}

/// Streaming per-case telemetry → service metrics. Each case's
/// `telemetry.jsonl` is tailed by byte offset: only bytes appended since
/// the last drain are read, and only complete lines are consumed, so the
/// aggregation can run repeatedly while the case is still writing.
struct TelemetryAggregator {
    offsets: Mutex<HashMap<PathBuf, u64>>,
}

impl TelemetryAggregator {
    fn new() -> Self {
        Self {
            offsets: Mutex::new(HashMap::new()),
        }
    }

    /// Drain every case telemetry file under a job output directory.
    fn drain_job(&self, out_dir: &Path, metrics: &Metrics) {
        let Ok(entries) = std::fs::read_dir(out_dir) else {
            return;
        };
        for entry in entries.flatten() {
            let jsonl = entry.path().join("telemetry.jsonl");
            if jsonl.is_file() {
                self.drain_file(&jsonl, metrics);
            }
        }
    }

    fn drain_file(&self, path: &Path, metrics: &Metrics) {
        let mut offsets = self.offsets.lock();
        let offset = offsets.entry(path.to_path_buf()).or_insert(0);
        let Ok(mut f) = std::fs::File::open(path) else {
            return;
        };
        if f.seek(SeekFrom::Start(*offset)).is_err() {
            return;
        }
        let mut buf = String::new();
        if f.read_to_string(&mut buf).is_err() {
            return;
        }
        // Consume only complete lines; a partially written trailing line
        // stays for the next drain.
        let consumed = buf.rfind('\n').map_or(0, |i| i + 1);
        for line in buf[..consumed].lines() {
            let Ok(rec) = json::parse(line) else { continue };
            if rec.get("step").is_none() {
                continue;
            }
            if let Some(wall) = rec.get("wall_seconds").and_then(Json::as_f64) {
                metrics.step_ns.record(wall * 1e9);
                metrics.steps_total.inc();
            }
        }
        *offset += consumed as u64;
    }
}

struct Service {
    cfg: ServeConfig,
    table: JobTable,
    sched: FairScheduler<u64>,
    cache: Arc<SetupCache>,
    /// Serializes admission: the existing-record check, the table
    /// upsert, and the scheduler enqueue of one `submit` must not
    /// interleave with another's, or two concurrent submits of the same
    /// spec both see "no record" and queue the same fingerprint twice.
    admission: Mutex<()>,
    /// Cancel tokens of currently running jobs, by fingerprint.
    running: Mutex<HashMap<u64, CancelToken>>,
    /// Cancels that raced dispatch: the job had left the queue but its
    /// token was not yet registered. Collected by
    /// [`Service::register_running`].
    cancel_requested: Mutex<HashSet<u64>>,
    /// Dispatch order as `"tenant/<job id>"`, for fairness inspection via
    /// `stats` (bounded by the number of dispatches, i.e. jobs accepted).
    dispatch_log: Mutex<Vec<String>>,
    /// Daemon-wide drain in progress (shutdown verb or signal).
    draining: AtomicBool,
    metrics: Metrics,
    telemetry: TelemetryAggregator,
}

impl Service {
    fn job_out(&self, fingerprint: u64) -> PathBuf {
        JobTable::job_dir(&self.cfg.state_dir, fingerprint)
    }

    fn update_queue_gauges(&self) {
        self.metrics.queue_depth.set(self.sched.queued_len() as f64);
        self.metrics
            .jobs_running
            .set(self.running.lock().len() as f64);
    }

    // ── request handling ────────────────────────────────────────────────

    /// Handle one request; the flag is true when the daemon should shut
    /// down after the response is written.
    fn handle(&self, req: Request) -> (Json, bool) {
        match req {
            Request::Submit {
                spec,
                tenant,
                priority,
            } => (self.submit(&spec, &tenant, priority), false),
            Request::Status { job } => (self.status(job), false),
            Request::Result { job } => (self.result(job), false),
            Request::Cancel { job } => (self.cancel(job), false),
            Request::Stats => (self.stats(), false),
            Request::Shutdown => (
                proto::ok_response([("state", Json::Str("draining".to_string()))]),
                true,
            ),
        }
    }

    fn submit(&self, spec_text: &str, tenant: &str, priority: u64) -> Json {
        let spec = match CampaignSpec::parse_str(spec_text, "submit") {
            Ok(s) => s,
            Err(e) => return proto::err_response(&e.to_string()),
        };
        let fp = crate::job_fingerprint(spec_text);
        let id = Json::Str(proto::job_id_str(fp));
        let _admit = self.admission.lock();
        if let Some(existing) = self.table.get(fp) {
            // The 64-bit FNV fingerprint is not collision-resistant:
            // before treating the record as "the same job", prove the
            // stored spec really is this spec, or a colliding submission
            // would be served another tenant's cached result.
            if crate::canonical_job_text(&existing.spec_text)
                != crate::canonical_job_text(spec_text)
            {
                return proto::err_response(&format!(
                    "fingerprint collision: job `{}` holds a different spec under the same \
                     fingerprint; change the campaign name to re-key the submission",
                    proto::job_id_str(fp)
                ));
            }
            match existing.state {
                JobState::Completed => {
                    // Whole-case cache hit: identical physics already
                    // solved — serve the stored result, run nothing.
                    self.cache.stats.record_case_hit();
                    return proto::ok_response([
                        ("job", id),
                        ("state", Json::Str("completed".to_string())),
                        ("cached", Json::Bool(true)),
                    ]);
                }
                JobState::Queued | JobState::Running => {
                    // Someone is already on it; the client joins the job.
                    self.metrics.dedup_joins.inc();
                    return proto::ok_response([
                        ("job", id),
                        ("state", Json::Str(existing.state.as_str().to_string())),
                        ("cached", Json::Bool(false)),
                        ("dedup", Json::Bool(true)),
                    ]);
                }
                // Failed/cancelled: fall through and re-admit (the
                // campaign resumes from its checkpoints).
                JobState::Failed | JobState::Cancelled => {}
            }
        }
        let cost: u64 = spec.cases.iter().map(|c| c.steps as u64).sum();
        let record = JobRecord {
            fingerprint: fp,
            tenant: tenant.to_string(),
            priority,
            name: spec.name.clone(),
            cost,
            spec_text: spec_text.to_string(),
            state: JobState::Queued,
            error: None,
        };
        // Durability before acknowledgement: once the client sees `ok`,
        // the job survives any crash.
        if let Err(e) = self.table.upsert(record) {
            return proto::err_response(&format!("persist failed: {e}"));
        }
        self.metrics.jobs_submitted.inc();
        // A re-admission must not inherit a cancel armed for a previous
        // incarnation of this fingerprint.
        self.cancel_requested.lock().remove(&fp);
        self.sched
            .submit(tenant, priority, self.cfg.max_in_flight, cost.max(1), fp);
        self.update_queue_gauges();
        proto::ok_response([
            ("job", id),
            ("state", Json::Str("queued".to_string())),
            ("cached", Json::Bool(false)),
        ])
    }

    fn job_json(&self, rec: &JobRecord) -> Json {
        // Progress comes from the campaign's own manifest when one
        // exists (the job has started at least once).
        let (done, target) = match Manifest::load(&self.job_out(rec.fingerprint)) {
            Ok(m) => m
                .cases
                .iter()
                .fold((0, 0), |(d, t), c| (d + c.steps_done, t + c.steps_target)),
            Err(_) => (0, rec.cost as usize),
        };
        Json::obj([
            ("job", Json::Str(proto::job_id_str(rec.fingerprint))),
            ("name", Json::Str(rec.name.clone())),
            ("tenant", Json::Str(rec.tenant.clone())),
            ("priority", Json::Num(rec.priority as f64)),
            ("state", Json::Str(rec.state.as_str().to_string())),
            ("steps_done", Json::Num(done as f64)),
            ("steps_target", Json::Num(target as f64)),
            (
                "error",
                rec.error.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
        ])
    }

    fn status(&self, job: Option<u64>) -> Json {
        if let Some(fp) = job {
            return match self.table.get(fp) {
                Some(rec) => proto::ok_response([("jobs", Json::Arr(vec![self.job_json(&rec)]))]),
                None => proto::err_response(&format!("unknown job `{}`", proto::job_id_str(fp))),
            };
        }
        let jobs: Vec<Json> = self.table.all().iter().map(|r| self.job_json(r)).collect();
        proto::ok_response([("jobs", Json::Arr(jobs)), ("cache", self.cache_json())])
    }

    fn result(&self, fp: u64) -> Json {
        let Some(rec) = self.table.get(fp) else {
            return proto::err_response(&format!("unknown job `{}`", proto::job_id_str(fp)));
        };
        if rec.state != JobState::Completed {
            return proto::err_response(&format!(
                "job `{}` is {}, not completed",
                proto::job_id_str(fp),
                rec.state.as_str()
            ));
        }
        let path = self.job_out(fp).join("summary.json");
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(summary) => proto::ok_response([
                ("job", Json::Str(proto::job_id_str(fp))),
                ("summary", summary),
            ]),
            Err(e) => proto::err_response(&format!("result unreadable: {e}")),
        }
    }

    fn cancel(&self, fp: u64) -> Json {
        let Some(rec) = self.table.get(fp) else {
            return proto::err_response(&format!("unknown job `{}`", proto::job_id_str(fp)));
        };
        let state = match rec.state {
            JobState::Queued => {
                let removed = self.sched.remove_where(|&j| j == fp);
                if removed.is_empty() {
                    // A worker popped the job between the table read and
                    // the queue sweep. Cancel it the running way — trip
                    // its token, or arm a pending cancel that
                    // `register_running` collects — instead of stamping
                    // `cancelled` over a record the worker is about to
                    // mark `running` (and then run to completion).
                    match self.running.lock().get(&fp) {
                        Some(token) => token.cancel(),
                        None => {
                            self.cancel_requested.lock().insert(fp);
                        }
                    }
                    // Unless the snapshot was simply stale and the job
                    // already finished: report the terminal state and
                    // disarm.
                    if let Some(now) = self.table.get(fp) {
                        if matches!(
                            now.state,
                            JobState::Completed | JobState::Failed | JobState::Cancelled
                        ) {
                            self.cancel_requested.lock().remove(&fp);
                            return proto::ok_response([
                                ("job", Json::Str(proto::job_id_str(fp))),
                                ("state", Json::Str(now.state.as_str().to_string())),
                            ]);
                        }
                    }
                    "cancelling"
                } else {
                    if let Err(e) = self.table.set_state(
                        fp,
                        JobState::Cancelled,
                        Some("cancelled by client".into()),
                    ) {
                        return proto::err_response(&format!("persist failed: {e}"));
                    }
                    self.metrics.jobs_cancelled.add(removed.len() as u64);
                    self.update_queue_gauges();
                    "cancelled"
                }
            }
            JobState::Running => {
                // Trip the job's token; the worker classifies and
                // persists the final state when the campaign stops at its
                // next step boundary.
                if let Some(token) = self.running.lock().get(&fp) {
                    token.cancel();
                }
                "cancelling"
            }
            s => s.as_str(),
        };
        proto::ok_response([
            ("job", Json::Str(proto::job_id_str(fp))),
            ("state", Json::Str(state.to_string())),
        ])
    }

    fn cache_json(&self) -> Json {
        let snap = self.cache.stats.snapshot();
        Json::obj([
            ("shape_hits", Json::Num(snap.shape_hits as f64)),
            ("shape_misses", Json::Num(snap.shape_misses as f64)),
            ("mapping_hits", Json::Num(snap.mapping_hits as f64)),
            ("mapping_misses", Json::Num(snap.mapping_misses as f64)),
            ("case_hits", Json::Num(snap.case_hits as f64)),
            ("case_misses", Json::Num(snap.case_misses as f64)),
        ])
    }

    fn stats(&self) -> Json {
        // Pull fresh step telemetry from any currently running jobs so
        // throughput numbers are live, not completion-lagged.
        for fp in self.running.lock().keys() {
            self.telemetry.drain_job(&self.job_out(*fp), &self.metrics);
        }
        self.update_queue_gauges();
        let m = &self.metrics;
        let hist = |h: &Histogram| {
            Json::obj([
                ("count", Json::Num(h.count() as f64)),
                ("sum", Json::Num(h.sum())),
                ("p50", Json::Num(h.quantile(0.5))),
                ("p99", Json::Num(h.quantile(0.99))),
            ])
        };
        let tenants: Vec<Json> = self
            .sched
            .snapshot()
            .into_iter()
            .map(|t| {
                Json::obj([
                    ("tenant", Json::Str(t.name)),
                    ("weight", Json::Num(t.weight as f64)),
                    ("queued", Json::Num(t.queued as f64)),
                    ("in_flight", Json::Num(t.in_flight as f64)),
                ])
            })
            .collect();
        let dispatch: Vec<Json> = self
            .dispatch_log
            .lock()
            .iter()
            .map(|s| Json::Str(s.clone()))
            .collect();
        proto::ok_response([
            ("jobs_submitted", Json::Num(m.jobs_submitted.get() as f64)),
            ("jobs_completed", Json::Num(m.jobs_completed.get() as f64)),
            ("jobs_failed", Json::Num(m.jobs_failed.get() as f64)),
            ("jobs_cancelled", Json::Num(m.jobs_cancelled.get() as f64)),
            ("dedup_joins", Json::Num(m.dedup_joins.get() as f64)),
            ("steps_total", Json::Num(m.steps_total.get() as f64)),
            ("queue_depth", Json::Num(m.queue_depth.get())),
            ("jobs_running", Json::Num(m.jobs_running.get())),
            ("job_latency_ns", hist(&m.job_latency_ns)),
            ("step_ns", hist(&m.step_ns)),
            ("tenants", Json::Arr(tenants)),
            ("dispatch_order", Json::Arr(dispatch)),
            ("cache", self.cache_json()),
        ])
    }

    // ── worker side ─────────────────────────────────────────────────────

    /// Create and register the cancel token of a just-dispatched job,
    /// collecting any cancel that was armed while the job was between
    /// the queue and the worker (see the `cancel` race note).
    fn register_running(&self, fp: u64) -> CancelToken {
        let token = CancelToken::default();
        let mut running = self.running.lock();
        if self.cancel_requested.lock().remove(&fp) {
            token.cancel();
        }
        running.insert(fp, token.clone());
        token
    }

    fn worker_loop(&self) {
        while let Some((tenant, fp)) = self.sched.next() {
            self.dispatch_log
                .lock()
                .push(format!("{tenant}/{}", proto::job_id_str(fp)));
            let token = self.register_running(fp);
            let _ = self.table.set_state(fp, JobState::Running, None);
            self.update_queue_gauges();
            let Some(rec) = self.table.get(fp) else {
                self.running.lock().remove(&fp);
                self.sched.done(&tenant);
                continue;
            };
            let started = Instant::now();
            let (state, error) = self.run_job(&rec, &token);
            self.metrics
                .job_latency_ns
                .record(started.elapsed().as_nanos() as f64);
            match state {
                JobState::Completed => self.metrics.jobs_completed.inc(),
                JobState::Failed => self.metrics.jobs_failed.inc(),
                JobState::Cancelled => self.metrics.jobs_cancelled.inc(),
                _ => {}
            }
            let _ = self.table.set_state(fp, state, error);
            self.running.lock().remove(&fp);
            self.sched.done(&tenant);
            self.update_queue_gauges();
        }
    }

    /// Execute one dispatched job; returns its final table state.
    fn run_job(&self, rec: &JobRecord, token: &CancelToken) -> (JobState, Option<String>) {
        let mut spec = match CampaignSpec::parse_str(&rec.spec_text, "job") {
            Ok(s) => s,
            Err(e) => return (JobState::Failed, Some(e.to_string())),
        };
        let out = self.job_out(rec.fingerprint);
        spec.output = out.clone();
        // A manifest on disk means a previous attempt got somewhere:
        // resume from its checkpoints instead of starting over.
        let resume = Manifest::path_in(&out).is_file();
        // This execution has to solve — the whole-case miss twin of the
        // `submit` path's hit.
        self.cache.stats.record_case_miss();
        let outcome = run_campaign_with(&spec, &rec.spec_text, resume, token, &self.cache);
        self.telemetry.drain_job(&out, &self.metrics);
        match outcome {
            Ok(o) if o.manifest.all_completed() => (JobState::Completed, None),
            Ok(o) => {
                if self.draining.load(Ordering::SeqCst) {
                    // Daemon drain interrupted it: back to queued, the
                    // next daemon resumes it. (A client cancel racing the
                    // drain is indistinguishable at the token level;
                    // requeueing is the safe call — the client can cancel
                    // again after restart.)
                    (JobState::Queued, None)
                } else if token.is_cancelled() {
                    (JobState::Cancelled, Some("cancelled by client".into()))
                } else {
                    let err = o
                        .manifest
                        .cases
                        .iter()
                        .find_map(|c| c.error.clone())
                        .unwrap_or_else(|| "campaign incomplete".to_string());
                    (JobState::Failed, Some(err))
                }
            }
            Err(e) => (JobState::Failed, Some(e.to_string())),
        }
    }
}

/// Run the daemon until a `shutdown` request or `cancel` trips.
///
/// Binds the socket, restores the persisted queue (resuming interrupted
/// jobs from their checkpoints), and serves requests. Returns once the
/// drain completes; queued jobs remain in `queue.json` for the next
/// start.
pub fn serve(cfg: ServeConfig, cancel: &CancelToken) -> io::Result<()> {
    std::fs::create_dir_all(&cfg.state_dir)?;
    let table = JobTable::load_or_new(&cfg.state_dir)?;
    let svc = Arc::new(Service {
        table,
        sched: FairScheduler::new(),
        cache: Arc::new(SetupCache::new()),
        admission: Mutex::new(()),
        running: Mutex::new(HashMap::new()),
        cancel_requested: Mutex::new(HashSet::new()),
        dispatch_log: Mutex::new(Vec::new()),
        draining: AtomicBool::new(false),
        metrics: Metrics::new(),
        telemetry: TelemetryAggregator::new(),
        cfg,
    });

    // Re-admit the persisted queue (crashed `running` jobs were demoted
    // to `queued` on load).
    let mut restored = 0;
    for rec in svc.table.all() {
        if rec.state == JobState::Queued {
            svc.sched.submit(
                &rec.tenant,
                rec.priority,
                svc.cfg.max_in_flight,
                rec.cost.max(1),
                rec.fingerprint,
            );
            restored += 1;
        }
    }
    svc.update_queue_gauges();

    // A stale socket file from a killed daemon would make bind fail.
    let _ = std::fs::remove_file(&svc.cfg.socket);
    let listener = UnixListener::bind(&svc.cfg.socket)?;
    listener.set_nonblocking(true)?;
    println!(
        "dgflow serve: listening on {} ({} worker(s), {} queued job(s) restored)",
        svc.cfg.socket.display(),
        svc.cfg.workers,
        restored
    );

    let mut workers = Vec::new();
    for _ in 0..svc.cfg.workers.max(1) {
        let svc = svc.clone();
        workers.push(std::thread::spawn(move || svc.worker_loop()));
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) && !cancel.is_cancelled() {
        match listener.accept() {
            Ok((stream, _)) => {
                let svc = svc.clone();
                let shutdown = shutdown.clone();
                conns.push(std::thread::spawn(move || {
                    handle_conn(&svc, stream, &shutdown);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
        conns.retain(|h| !h.is_finished());
    }

    // Drain: stop dispatch (queued jobs stay queued), interrupt running
    // campaigns so they checkpoint, and wait the workers out. The flag
    // also covers the signal path (`cancel` tripped): connection threads
    // poll it, so idle clients cannot pin the daemon open.
    shutdown.store(true, Ordering::SeqCst);
    println!("dgflow serve: draining");
    svc.draining.store(true, Ordering::SeqCst);
    svc.sched.halt();
    for token in svc.running.lock().values() {
        token.cancel();
    }
    for h in workers {
        let _ = h.join();
    }
    for h in conns {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&svc.cfg.socket);
    let (queued, ..) = svc.table.counts();
    println!("dgflow serve: stopped ({queued} job(s) queued for next start)");
    Ok(())
}

fn handle_conn(svc: &Service, stream: UnixStream, shutdown: &AtomicBool) {
    // Poll the socket with a short read timeout and re-check the
    // shutdown flag between polls: a client that holds an idle
    // connection (never sends a line or EOF) must not block the
    // graceful-drain join after a `shutdown` verb or SIGINT.
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    // Byte-level line assembly (instead of `BufReader::lines`) so a
    // timeout mid-line keeps the partial bytes for the next poll.
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'conn: while !shutdown.load(Ordering::SeqCst) {
        let n = match read_half.read(&mut chunk) {
            Ok(0) => break, // EOF
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        pending.extend_from_slice(&chunk[..n]);
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let raw: Vec<u8> = pending.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&raw);
            let line = text.trim();
            if line.is_empty() {
                continue;
            }
            let (resp, stop) = match proto::parse_request(line) {
                Ok(req) => svc.handle(req),
                Err(e) => (proto::err_response(&e), false),
            };
            if writeln!(writer, "{resp}").is_err() {
                break 'conn;
            }
            let _ = writer.flush();
            if stop {
                shutdown.store(true, Ordering::SeqCst);
                break 'conn;
            }
        }
    }
}

/// One-shot client: connect, send `req` as a line, read one response
/// line. The CLI's `submit`/`svc` verbs and the smoke test are built on
/// this.
pub fn client_request(socket: &Path, req: &Json) -> io::Result<Json> {
    let mut stream = UnixStream::connect(socket)?;
    writeln!(stream, "{req}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    json::parse(&line).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad response `{}`: {e}", line.trim()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::JobRecord;

    fn test_service(dir: &Path) -> Service {
        std::fs::create_dir_all(dir).unwrap();
        Service {
            table: JobTable::load_or_new(dir).unwrap(),
            sched: FairScheduler::new(),
            cache: Arc::new(SetupCache::new()),
            admission: Mutex::new(()),
            running: Mutex::new(HashMap::new()),
            cancel_requested: Mutex::new(HashSet::new()),
            dispatch_log: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            metrics: Metrics::new(),
            telemetry: TelemetryAggregator::new(),
            cfg: ServeConfig::new(dir),
        }
    }

    fn toy_spec() -> &'static str {
        "[campaign]\nname = \"svc-toy\"\n\n\
         [[case]]\nname = \"c\"\nmesh = \"duct\"\nsteps = 3\n"
    }

    #[test]
    fn concurrent_submits_of_same_spec_queue_once() {
        let dir =
            std::env::temp_dir().join(format!("dgflow-svc-submit-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = Arc::new(test_service(&dir));
        let mut handles = Vec::new();
        for i in 0..8 {
            let svc = svc.clone();
            handles.push(std::thread::spawn(move || {
                svc.submit(toy_spec(), &format!("tenant-{i}"), 1)
            }));
        }
        let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &responses {
            assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        }
        // Exactly one admission; the other seven joined it.
        let dedups = responses
            .iter()
            .filter(|r| r.get("dedup") == Some(&Json::Bool(true)))
            .count();
        assert_eq!(dedups, 7, "{responses:?}");
        assert_eq!(svc.sched.queued_len(), 1, "fingerprint queued twice");
        assert_eq!(svc.table.all().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn colliding_fingerprint_with_different_spec_is_rejected() {
        let dir = std::env::temp_dir().join(format!("dgflow-svc-collision-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = test_service(&dir);
        let fp = crate::job_fingerprint(toy_spec());
        // Forge what an FNV collision would leave behind: a *different*
        // completed spec stored under this spec's fingerprint.
        svc.table
            .upsert(JobRecord {
                fingerprint: fp,
                tenant: "victim".to_string(),
                priority: 1,
                name: "other".to_string(),
                cost: 9,
                spec_text: "[campaign]\nname = \"other\"\n\n\
                            [[case]]\nname = \"c\"\nmesh = \"duct\"\nsteps = 9\n"
                    .to_string(),
                state: JobState::Completed,
                error: None,
            })
            .unwrap();
        let resp = svc.submit(toy_spec(), "mallory", 1);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
        let err = resp.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(err.contains("collision"), "{resp}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_racing_dispatch_arms_the_token_instead_of_stamping_cancelled() {
        let dir =
            std::env::temp_dir().join(format!("dgflow-svc-cancel-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = test_service(&dir);
        let resp = svc.submit(toy_spec(), "alice", 1);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let fp = crate::job_fingerprint(toy_spec());
        // Play the worker up to the race window: the job has left the
        // queue but its token is not yet registered.
        let (_tenant, popped) = svc.sched.next().expect("queued job");
        assert_eq!(popped, fp);
        let resp = svc.cancel(fp);
        assert_eq!(
            resp.get("state").and_then(Json::as_str),
            Some("cancelling"),
            "{resp}"
        );
        // The record was not stamped cancelled under the worker...
        assert_eq!(svc.table.get(fp).unwrap().state, JobState::Queued);
        // ...and the worker's registration collects the armed cancel, so
        // the campaign stops at its first step boundary.
        let token = svc.register_running(fp);
        assert!(token.is_cancelled(), "armed cancel was lost");
        assert!(svc.cancel_requested.lock().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
