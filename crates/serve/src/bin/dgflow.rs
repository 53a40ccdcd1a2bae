//! `dgflow` — the campaign and service CLI.
//!
//! ```text
//! dgflow run      <campaign.toml>        start a fresh campaign
//! dgflow resume   <campaign.toml|dir>    continue a killed/cancelled one
//! dgflow validate <campaign.toml>        parse + validate, print the plan
//! dgflow status   <campaign.toml|dir>    manifest with step rate and ETA
//! dgflow trace    <case-dir|telemetry.jsonl>  export trace.json (Perfetto)
//! dgflow serve    <state-dir> [--socket P] [--workers N] [--max-in-flight N]
//! dgflow submit   <socket> <campaign.toml> [--tenant T] [--priority N]
//! dgflow svc      <socket> status|stats|shutdown
//! dgflow svc      <socket> result|cancel <job-id>
//! dgflow ranks    <n> [--timeout-ms T] -- <cmd> [args...]
//! ```
//!
//! `ranks` launches `<cmd>` as `n` genuine OS-process SPMD ranks over
//! Unix-domain sockets (the rank environment `DGFLOW_RANK` /
//! `DGFLOW_RANKS` / `DGFLOW_RANK_DIR` is set per process;
//! `ProcessComm::from_env` inside the program joins the mesh). The run
//! succeeds only if every rank exits 0; the moment one rank fails the
//! survivors are killed and the error names the failing rank.
//!
//! `run`/`resume` honour `DGFLOW_TRACE` (`0`/`coarse`/`fine`) and
//! `DGFLOW_TRACE_SAMPLE`; span and metrics records land in each case's
//! `telemetry.jsonl`, which `dgflow trace` converts to the Chrome
//! trace-event format (load in Perfetto or `chrome://tracing`).
//!
//! `run`, `resume`, and `serve` install SIGINT/SIGTERM handlers that trip
//! the [`CancelToken`] for a graceful drain — running cases checkpoint at
//! the next step boundary instead of dying mid-step; a second signal
//! exits immediately.
//!
//! Exit codes: `0` success (for `run`/`resume`: every case completed),
//! `1` the campaign ran but at least one case did not complete, `2`
//! usage/spec/IO errors.

use dgflow_comm::CancelToken;
use dgflow_runtime::json::{self, Json};
use dgflow_runtime::manifest::Manifest;
use dgflow_runtime::telemetry::dedup_steps;
use dgflow_runtime::{run_campaign, CampaignSpec};
use dgflow_serve::{client_request, serve, signal, ServeConfig};
use dgflow_trace::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: dgflow <command> ...\n\
  run      <campaign.toml>        start a fresh campaign\n\
  resume   <campaign.toml|dir>    continue a killed/cancelled one\n\
  validate <campaign.toml>        parse + validate, print the plan\n\
  status   <campaign.toml|dir>    manifest with step rate and ETA\n\
  trace    <case-dir|telemetry.jsonl>  export trace.json (Perfetto)\n\
  serve    <state-dir> [--socket P] [--workers N] [--max-in-flight N]\n\
  submit   <socket> <campaign.toml> [--tenant T] [--priority N]\n\
  svc      <socket> status|stats|shutdown\n\
  svc      <socket> result|cancel <job-id>\n\
  ranks    <n> [--timeout-ms T] -- <cmd> [args...]   run cmd as n OS-process SPMD ranks";

fn main() -> ExitCode {
    dgflow_trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match (cmd.as_str(), args.get(1)) {
        ("help" | "--help" | "-h", _) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        ("run", Some(t)) if args.len() == 2 => campaign_cmd(Path::new(t), false),
        ("resume", Some(t)) if args.len() == 2 => campaign_cmd(Path::new(t), true),
        ("validate", Some(t)) if args.len() == 2 => validate(Path::new(t)),
        ("status", Some(t)) if args.len() == 2 => status(Path::new(t)),
        ("trace", Some(t)) if args.len() == 2 => trace_cmd(Path::new(t)),
        ("serve", Some(_)) => serve_cmd(&args[1..]),
        ("submit", Some(_)) => submit_cmd(&args[1..]),
        ("svc", Some(_)) => svc_cmd(&args[1..]),
        ("ranks", Some(_)) => ranks_cmd(&args[1..]),
        (other, _) => {
            eprintln!("dgflow: bad arguments for `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Locate the spec file: either the argument itself, or
/// `<dir>/campaign.toml` when the argument is an output directory.
fn spec_path(target: &Path) -> Result<PathBuf, String> {
    if target.is_dir() {
        let inner = target.join("campaign.toml");
        if inner.is_file() {
            return Ok(inner);
        }
        return Err(format!(
            "{} is a directory without a campaign.toml",
            target.display()
        ));
    }
    if target.is_file() {
        return Ok(target.to_path_buf());
    }
    Err(format!("{}: no such file or directory", target.display()))
}

fn load_spec(target: &Path) -> Result<(CampaignSpec, String), String> {
    let path = spec_path(target)?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec =
        CampaignSpec::parse_str(&text, &path.display().to_string()).map_err(|e| e.to_string())?;
    Ok((spec, text))
}

fn campaign_cmd(target: &Path, resume: bool) -> ExitCode {
    let (spec, text) = match load_spec(target) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{} campaign `{}`: {} case(s) -> {}",
        if resume { "resuming" } else { "running" },
        spec.name,
        spec.cases.len(),
        spec.output.display()
    );
    let cancel = CancelToken::default();
    // ^C drains instead of killing: cases checkpoint at the next step
    // boundary and `dgflow resume` continues them.
    signal::install(&cancel);
    match run_campaign(&spec, &text, resume, &cancel) {
        Ok(outcome) => {
            print!("{}", outcome.table);
            if outcome.manifest.all_completed() {
                println!("campaign `{}` completed", spec.name);
                ExitCode::SUCCESS
            } else {
                println!(
                    "campaign `{}` incomplete — `dgflow resume {}` continues it",
                    spec.name,
                    spec.output.display()
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dgflow: {e}");
            ExitCode::from(2)
        }
    }
}

fn validate(target: &Path) -> ExitCode {
    match load_spec(target) {
        Ok((spec, _)) => {
            println!(
                "campaign `{}`: {} case(s), output {}, checkpoint every {} steps, \
                 max_parallel {}",
                spec.name,
                spec.cases.len(),
                spec.output.display(),
                spec.checkpoint_every,
                spec.max_parallel
            );
            for c in &spec.cases {
                println!(
                    "  {:<20} {:?} g={} refine={} k={} steps={}",
                    c.name, c.mesh, c.generations, c.refine, c.degree, c.steps
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn status(target: &Path) -> ExitCode {
    // Accept the output dir directly, or derive it from the spec.
    let dir = if target.is_dir() && Manifest::path_in(target).is_file() {
        target.to_path_buf()
    } else {
        match load_spec(target) {
            Ok((spec, _)) => spec.output,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    };
    match Manifest::load(&dir) {
        Ok(m) => {
            println!("campaign `{}` ({})", m.campaign, dir.display());
            println!(
                "  {:<20} {:<10} {:>6}/{:<6} {:>9} {:>9} {:>9}",
                "case", "status", "done", "target", "wall", "step/s", "eta"
            );
            for c in &m.cases {
                let live = step_rate(&dir.join(&c.name).join("telemetry.jsonl"));
                let (rate, eta) = match live {
                    Some(per_step) if per_step > 0.0 => {
                        let remaining = c.steps_target.saturating_sub(c.steps_done);
                        let eta = if c.steps_done >= c.steps_target {
                            "-".to_string()
                        } else {
                            format_eta(remaining as f64 * per_step)
                        };
                        (format!("{:.2}", 1.0 / per_step), eta)
                    }
                    _ => ("-".to_string(), "-".to_string()),
                };
                println!(
                    "  {:<20} {:<10} {:>6}/{:<6} {:>8.2}s {:>9} {:>9} {}",
                    c.name,
                    c.status.as_str(),
                    c.steps_done,
                    c.steps_target,
                    c.wall_seconds,
                    rate,
                    eta,
                    c.error.as_deref().unwrap_or("")
                );
            }
            print_cache_stats(&dir);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dgflow: {e}");
            ExitCode::from(2)
        }
    }
}

/// Setup/result cache counters from `summary.json`, when the campaign has
/// one (written at the end of each `run`/`resume`).
fn print_cache_stats(dir: &Path) {
    let Ok(text) = std::fs::read_to_string(dir.join("summary.json")) else {
        return;
    };
    let Ok(doc) = json::parse(&text) else { return };
    let Some(cache) = doc.get("cache") else {
        return;
    };
    let n = |k: &str| cache.get(k).and_then(Json::as_usize).unwrap_or(0);
    println!(
        "  cache: shapes {}/{} hit, mappings {}/{} hit, cases {}/{} hit",
        n("shape_hits"),
        n("shape_hits") + n("shape_misses"),
        n("mapping_hits"),
        n("mapping_hits") + n("mapping_misses"),
        n("case_hits"),
        n("case_hits") + n("case_misses"),
    );
}

/// Mean wall seconds per step over the trailing window of the case's
/// telemetry, after collapsing retried `(case, step)` pairs to their
/// last attempt. `None` when there is no telemetry yet.
fn step_rate(telemetry: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(telemetry).ok()?;
    let records: Vec<Json> = text.lines().filter_map(|l| json::parse(l).ok()).collect();
    let keep = dedup_steps(&records);
    // Trailing window: the current rate matters more than the mean over a
    // run that may span restarts and cold caches.
    const WINDOW: usize = 32;
    let walls: Vec<f64> = keep
        .iter()
        .rev()
        .take(WINDOW)
        .filter_map(|&i| records[i].get("wall_seconds").and_then(Json::as_f64))
        .collect();
    if walls.is_empty() {
        return None;
    }
    Some(walls.iter().sum::<f64>() / walls.len() as f64)
}

fn format_eta(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.1}h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.1}m", seconds / 60.0)
    } else {
        format!("{seconds:.0}s")
    }
}

// ── service verbs ───────────────────────────────────────────────────────

/// Pull the value of `--flag` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        return Ok(Some(v));
    }
    Ok(None)
}

fn serve_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let parsed = (|| -> Result<ServeConfig, String> {
        let socket = take_flag(&mut args, "--socket")?;
        let workers = take_flag(&mut args, "--workers")?;
        let max_in_flight = take_flag(&mut args, "--max-in-flight")?;
        let [state_dir] = args.as_slice() else {
            return Err("serve takes exactly one state directory".to_string());
        };
        let mut cfg = ServeConfig::new(state_dir);
        if let Some(s) = socket {
            cfg.socket = PathBuf::from(s);
        }
        if let Some(w) = workers {
            cfg.workers = w.parse().map_err(|_| format!("bad --workers `{w}`"))?;
        }
        if let Some(m) = max_in_flight {
            cfg.max_in_flight = m
                .parse()
                .map_err(|_| format!("bad --max-in-flight `{m}`"))?;
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dgflow serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cancel = CancelToken::default();
    signal::install(&cancel);
    match serve(cfg, &cancel) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dgflow serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn submit_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(PathBuf, PathBuf, String, u64), String> {
        let tenant = take_flag(&mut args, "--tenant")?.unwrap_or_else(|| "default".to_string());
        let priority = match take_flag(&mut args, "--priority")? {
            Some(p) => p.parse().map_err(|_| format!("bad --priority `{p}`"))?,
            None => 1,
        };
        let [socket, spec] = args.as_slice() else {
            return Err("submit takes <socket> <campaign.toml>".to_string());
        };
        Ok((PathBuf::from(socket), PathBuf::from(spec), tenant, priority))
    })();
    let (socket, spec, tenant, priority) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dgflow submit: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&spec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dgflow submit: {}: {e}", spec.display());
            return ExitCode::from(2);
        }
    };
    let req = Json::obj([
        ("verb", Json::Str("submit".to_string())),
        ("spec", Json::Str(text)),
        ("tenant", Json::Str(tenant)),
        ("priority", Json::Num(priority as f64)),
    ]);
    do_request(&socket, &req)
}

fn svc_cmd(args: &[String]) -> ExitCode {
    let (socket, req) = match args {
        [socket, verb] if verb == "status" || verb == "stats" || verb == "shutdown" => (
            PathBuf::from(socket),
            Json::obj([("verb", Json::Str(verb.clone()))]),
        ),
        [socket, verb, job] if verb == "result" || verb == "cancel" => (
            PathBuf::from(socket),
            Json::obj([
                ("verb", Json::Str(verb.clone())),
                ("job", Json::Str(job.clone())),
            ]),
        ),
        _ => {
            eprintln!("dgflow svc: bad arguments\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    do_request(&socket, &req)
}

/// `dgflow ranks <n> [--timeout-ms T] -- <cmd> [args...]`: run one
/// command as `n` genuine OS-process SPMD ranks (socket rendezvous via
/// the `DGFLOW_RANK*` environment; see `dgflow_comm::spmd`).
fn ranks_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let timeout_ms = match take_flag(&mut args, "--timeout-ms") {
        Ok(v) => v.and_then(|t| t.parse::<u64>().ok()),
        Err(e) => {
            eprintln!("dgflow ranks: {e}");
            return ExitCode::from(2);
        }
    };
    let n: usize = match args.first().and_then(|a| a.parse().ok()) {
        Some(n) if n >= 1 => n,
        _ => {
            eprintln!("dgflow ranks: first argument must be a rank count >= 1\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sep = args.iter().position(|a| a == "--");
    let cmd = match sep {
        Some(i) if i + 1 < args.len() => &args[i + 1..],
        _ => {
            eprintln!("dgflow ranks: missing `-- <cmd> [args...]`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut spmd = dgflow_comm::SpmdCommand::new(&cmd[0]);
    for a in &cmd[1..] {
        spmd = spmd.arg(a);
    }
    if let Some(t) = timeout_ms {
        spmd = spmd.timeout(std::time::Duration::from_millis(t));
    }
    match spmd.launch(n) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dgflow ranks: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Send one request, print the response line, exit 0 on `ok:true`.
fn do_request(socket: &Path, req: &Json) -> ExitCode {
    match client_request(socket, req) {
        Ok(resp) => {
            println!("{resp}");
            if resp.get("ok") == Some(&Json::Bool(true)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("dgflow: {}: {e}", socket.display());
            ExitCode::from(2)
        }
    }
}

/// `dgflow trace`: convert a case's `telemetry.jsonl` span/thread records
/// into Chrome trace-event JSON next to it (`trace.json`), keeping only
/// each case's final attempt, and report how well the traced kernel spans
/// reconcile with the `case_summary` stage timers.
fn trace_cmd(target: &Path) -> ExitCode {
    let jsonl = if target.is_dir() {
        target.join("telemetry.jsonl")
    } else {
        target.to_path_buf()
    };
    let text = match std::fs::read_to_string(&jsonl) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dgflow: {}: {e}", jsonl.display());
            return ExitCode::from(2);
        }
    };
    let records: Vec<Json> = text.lines().filter_map(|l| json::parse(l).ok()).collect();

    // A rerun restarts the trace epoch, so timelines from different
    // attempts must not be overlaid: keep the final attempt per case.
    let mut last_attempt: BTreeMap<String, usize> = BTreeMap::new();
    for rec in &records {
        if let (Some(case), Some(attempt)) = (
            rec.get("case").and_then(Json::as_str),
            rec.get("attempt").and_then(Json::as_usize),
        ) {
            let e = last_attempt.entry(case.to_string()).or_insert(attempt);
            *e = (*e).max(attempt);
        }
    }
    let is_final = |rec: &Json| -> bool {
        let case = rec.get("case").and_then(Json::as_str).unwrap_or("");
        let attempt = rec.get("attempt").and_then(Json::as_usize).unwrap_or(0);
        last_attempt.get(case).copied().unwrap_or(0) == attempt
    };

    // `SpanRecord` holds interned `&'static str` names; leak each distinct
    // string once (bounded: span names are a small static vocabulary).
    let mut interned: HashMap<String, &'static str> = HashMap::new();
    let mut intern = |s: &str| -> &'static str {
        if let Some(&v) = interned.get(s) {
            return v;
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        interned.insert(s.to_string(), leaked);
        leaked
    };

    let mut spans: Vec<SpanRecord> = Vec::new();
    let mut tracks: BTreeMap<u32, String> = BTreeMap::new();
    for rec in records.iter().filter(|r| is_final(r)) {
        match rec.get("type").and_then(Json::as_str) {
            Some("thread") => {
                let tid = rec.get("tid").and_then(Json::as_usize).unwrap_or(0) as u32;
                let name = rec.get("name").and_then(Json::as_str).unwrap_or("?");
                tracks.insert(tid, name.to_string());
            }
            Some("span") => {
                let num = |k: &str| rec.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                let start_ns = num("ts_ns") as u64;
                spans.push(SpanRecord {
                    name: intern(rec.get("name").and_then(Json::as_str).unwrap_or("?")),
                    cat: intern(rec.get("cat").and_then(Json::as_str).unwrap_or("?")),
                    start_ns,
                    end_ns: start_ns + num("dur_ns") as u64,
                    depth: num("depth") as u16,
                    tid: num("tid") as u32,
                    meta: rec
                        .get("meta")
                        .and_then(Json::as_f64)
                        .map_or(u64::MAX, |m| m as u64),
                    work_flops: num("work_flops"),
                });
            }
            _ => {}
        }
    }
    if spans.is_empty() {
        eprintln!(
            "dgflow: {}: no span records (run the campaign with DGFLOW_TRACE=coarse or fine)",
            jsonl.display()
        );
        return ExitCode::from(2);
    }

    let track_list: Vec<(u32, String)> = tracks.into_iter().collect();
    let chrome = dgflow_trace::chrome_trace(&spans, &track_list);
    let out_path = jsonl.parent().unwrap_or(Path::new(".")).join("trace.json");
    if let Err(e) = std::fs::write(&out_path, chrome) {
        eprintln!("dgflow: {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!(
        "{}: {} span(s) on {} track(s) -> {}",
        jsonl.display(),
        spans.len(),
        track_list.len(),
        out_path.display()
    );

    // Reconciliation: the `kernel_seconds` timers are the durations of the
    // per-stage spans in `core::solver::step`, so their totals agree up to
    // rounding; a gap means spans were dropped or belong to another case.
    for rec in records.iter().filter(|r| is_final(r)) {
        if rec.get("type").and_then(Json::as_str) != Some("case_summary") {
            continue;
        }
        let case = rec.get("case").and_then(Json::as_str).unwrap_or("?");
        let summary_s: f64 = rec
            .get("kernel_seconds")
            .and_then(Json::to_map)
            .map(|m| m.values().filter_map(|v| v.as_f64()).sum())
            .unwrap_or(0.0);
        let span_s: f64 = spans
            .iter()
            .filter(|s| s.cat == "core" && s.name.starts_with("step."))
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum();
        if summary_s > 0.0 {
            let diff = 100.0 * (span_s - summary_s).abs() / summary_s;
            println!(
                "{case}: stage spans {span_s:.3}s vs case_summary kernels {summary_s:.3}s \
                 ({diff:.2}% apart)"
            );
        }
    }
    ExitCode::SUCCESS
}
