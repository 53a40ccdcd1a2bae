//! Repo automation tasks (`cargo xtask <command>`).
//!
//! The solver's shared-memory assembly loops write through raw pointers
//! under a caller-checked disjointness invariant; this harness is the
//! machine-checked discipline that keeps those invariants from rotting:
//!
//! * `lint` — the clippy/rustc lint wall (`[workspace.lints]` in the root
//!   manifest) with warnings denied, over every target of every crate.
//! * `unsafe-audit` — source-level rules clippy cannot express: every
//!   `unsafe fn`/`unsafe impl`/`unsafe` block carries a safety contract,
//!   `transmute` only in the allowlist, and no `unwrap()`/`expect()` in the
//!   hot kernels.
//! * `miri` — the curated UB-detection subset (nightly); degrades to a
//!   skip with a clear message when the `miri` component is unavailable
//!   (e.g. offline containers) unless `--strict`.
//! * `model` — the `dgcheck` concurrency model checker: rebuilds the
//!   comm/runtime kernels with `--cfg dgcheck_model` (routing the
//!   `dgflow_check` shim seam to the model primitives) and exhaustively
//!   explores the bounded-preemption interleavings of the ThreadPool join
//!   barrier, the bounded campaign queue, cancellation, and the race
//!   recorder.
//! * `tsan` — ThreadSanitizer over the comm + runtime test suites
//!   (nightly + rust-src); degrades to a skip when unavailable unless
//!   `--strict`.
//! * `ci` — everything above plus fmt, build, and tests, in CI order.

mod audit;
mod bench;
mod dist;

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => ("help", &[][..]),
    };
    let ok = match cmd {
        "lint" => lint(),
        "bench-check" => bench::bench_check(rest),
        "fig06" => bench::fig06(),
        "unsafe-audit" => audit::run(rest),
        "miri" => miri(rest.iter().any(|a| a == "--strict")),
        "model" => model(),
        "tsan" => tsan(rest.iter().any(|a| a == "--strict")),
        "dist-smoke" => dist::dist_smoke(),
        "scaling" => dist::scaling(),
        "fig08" => dist::fig08(),
        "runtime-smoke" => runtime_smoke(),
        "trace-smoke" => trace_smoke(),
        "serve-smoke" => serve_smoke(),
        "ci" => ci(),
        "help" | "--help" | "-h" => {
            print_help();
            true
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_help();
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_help() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         lint          clippy lint wall over the whole workspace (warnings denied)\n  \
         bench-check   matvec throughput gate vs the committed baseline (--quick, --update)\n  \
         fig06         regenerate results/fig06_throughput.md from BENCH_matvec.json\n  \
         unsafe-audit  repo-specific unsafe/transmute/unwrap source audit\n  \
         miri          run the curated miri test subset (nightly; --strict to fail when unavailable)\n  \
         model         dgcheck concurrency model checker over the comm/runtime kernels (--cfg dgcheck_model)\n  \
         tsan          ThreadSanitizer over the comm/runtime test suites (nightly; --strict to fail when unavailable)\n  \
         dist-smoke    4 real OS-process ranks vs serial + rank-failure propagation through `dgflow ranks`\n  \
         scaling       measure strong scaling + ping-pong on real ranks, record BENCH_scaling.json\n  \
         fig08         regenerate results/fig08_scaling.md from BENCH_scaling.json\n  \
         runtime-smoke kill-and-resume a toy campaign through the dgflow binary\n  \
         trace-smoke   traced toy campaign -> `dgflow trace` -> validate the Chrome export\n  \
         serve-smoke   daemon dedup + DRR fairness + SIGKILL/restart recovery + clean shutdown\n  \
         ci            fmt --check + lint + unsafe-audit + build --release + test + kernel-equiv + bench-check --quick + model + dist-smoke + runtime-smoke + trace-smoke + serve-smoke + miri + tsan"
    );
}

/// Run `cmd`, streaming output; returns success.
fn step(name: &str, cmd: &mut Command) -> bool {
    eprintln!("xtask: {name}: {cmd:?}");
    match cmd.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask: {name} failed with {s}");
            false
        }
        Err(e) => {
            eprintln!("xtask: could not launch {name}: {e}");
            false
        }
    }
}

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
}

/// The clippy lint wall: all workspace crates, all targets, warnings denied.
/// The lint levels themselves live in `[workspace.lints]` in the root
/// `Cargo.toml`; this just refuses to let any surviving warning through.
fn lint() -> bool {
    step(
        "lint",
        cargo().args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]),
    )
}

/// The curated miri subset: the crates whose soundness the paper's
/// performance story leans on. `dgflow-fem --lib util::` covers the
/// `SharedMut` aliasing patterns used by the scatter-add paths.
const MIRI_SUBSET: &[(&str, &[&str])] = &[
    ("dgflow-simd", &[]),
    ("dgflow-tensor", &[]),
    ("dgflow-fem", &["--lib", "--", "util::"]),
];

fn miri(strict: bool) -> bool {
    let available = Command::new("cargo")
        .args(["+nightly", "miri", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !available {
        eprintln!(
            "xtask: miri is not installed for the nightly toolchain.\n\
             xtask: install with: rustup component add --toolchain nightly miri\n\
             xtask: (offline containers cannot; the audit + check-disjoint tests still run)"
        );
        if strict {
            eprintln!("xtask: --strict: treating unavailable miri as failure");
        }
        return !strict;
    }
    for (pkg, extra) in MIRI_SUBSET {
        let mut cmd = Command::new("cargo");
        cmd.args(["+nightly", "miri", "test", "-p", pkg]);
        cmd.args(*extra);
        // Bound pool threads so the interpreted schedules stay small, and
        // let miri try all of them.
        cmd.env("DGFLOW_THREADS", "2");
        cmd.env("MIRIFLAGS", "-Zmiri-many-seeds=0..4");
        if !step(&format!("miri {pkg}"), &mut cmd) {
            return false;
        }
    }
    true
}

/// Run the `dgcheck` model suite: the dgflow-check tests compiled with
/// `--cfg dgcheck_model`, so the comm/runtime kernels resolve their
/// primitives to the model checker's. A separate target dir keeps the
/// flagged build from invalidating the normal incremental cache, and
/// `--nocapture` lets the per-model schedule reports through.
fn model() -> bool {
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("--cfg dgcheck_model");
    step(
        "model",
        cargo()
            .args([
                "test",
                "-p",
                "dgflow-check",
                "--release",
                "--target-dir",
                "target/dgcheck",
                "--",
                "--nocapture",
            ])
            .env("RUSTFLAGS", rustflags),
    )
}

/// The test suites ThreadSanitizer instruments: the crates owning the
/// hand-rolled concurrency kernels.
const TSAN_SUBSET: &[&str] = &["dgflow-comm", "dgflow-runtime"];

/// ThreadSanitizer over the concurrency-kernel test suites. Complements
/// `model`: dgcheck explores schedules under SC semantics, TSan watches
/// the real weak-memory execution of the schedules that happen to run.
/// Needs nightly with the `rust-src` component (`-Zbuild-std` must
/// instrument std itself); degrades to a skip when unavailable.
fn tsan(strict: bool) -> bool {
    let host = Command::new("rustc")
        .args(["+nightly", "-vV"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
        });
    let src_available = Command::new("rustc")
        .args(["+nightly", "--print", "sysroot"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| {
            let sysroot = String::from_utf8_lossy(&o.stdout).trim().to_string();
            std::path::Path::new(&sysroot)
                .join("lib/rustlib/src/rust/library/std/Cargo.toml")
                .exists()
        })
        .unwrap_or(false);
    let (Some(host), true) = (host, src_available) else {
        eprintln!(
            "xtask: ThreadSanitizer needs a nightly toolchain with rust-src.\n\
             xtask: install with: rustup toolchain install nightly && \
             rustup component add --toolchain nightly rust-src\n\
             xtask: (offline containers cannot; the model checker still covers \
             the interleaving bugs)"
        );
        if strict {
            eprintln!("xtask: --strict: treating unavailable tsan as failure");
        }
        return !strict;
    };
    for pkg in TSAN_SUBSET {
        let mut cmd = Command::new("cargo");
        cmd.args([
            "+nightly",
            "test",
            "-p",
            pkg,
            "-Zbuild-std",
            "--target",
            &host,
            "--target-dir",
            "target/tsan",
        ]);
        cmd.env("RUSTFLAGS", "-Zsanitizer=thread");
        // Bound pool threads so TSan's shadow memory stays small.
        cmd.env("DGFLOW_THREADS", "2");
        if !step(&format!("tsan {pkg}"), &mut cmd) {
            return false;
        }
    }
    true
}

/// Build the `dgflow` binary (owned by `dgflow-serve`, which layers the
/// service verbs over the campaign runtime) in release mode.
fn build_dgflow_bin() -> bool {
    step(
        "build dgflow",
        cargo().args([
            "build",
            "--release",
            "-p",
            "dgflow-serve",
            "--bin",
            "dgflow",
        ]),
    )
}

/// Fault-tolerance smoke test of the campaign runtime, end to end
/// through the real `dgflow` binary: run a 2-case toy campaign, kill the
/// process right after the 2nd checkpoint (simulated power loss via the
/// `DGFLOW_TEST_ABORT_AFTER_CHECKPOINTS` knob), resume, and assert the
/// manifest reports every case completed.
fn runtime_smoke() -> bool {
    if !build_dgflow_bin() {
        return false;
    }
    let bin = std::path::Path::new("target/release/dgflow");
    let dir = std::env::temp_dir().join(format!("dgflow-runtime-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask: runtime-smoke: cannot create {}: {e}", dir.display());
        return false;
    }
    let out = dir.join("out");
    let spec = dir.join("campaign.toml");
    let text = format!(
        "[campaign]\nname = \"smoke\"\noutput = \"{}\"\ncheckpoint_every = 2\n\n\
         [[case]]\nname = \"a\"\nmesh = \"duct\"\ndegree = 2\nsteps = 6\n\
         dt_max = 0.01\nviscosity = 0.5\nmultigrid = false\npressure_drop = 0.1\n\n\
         [[case]]\nname = \"b\"\nmesh = \"duct\"\ndegree = 3\nsteps = 4\n\
         dt_max = 0.01\nviscosity = 0.5\nmultigrid = false\npressure_drop = 0.2\n",
        out.display()
    );
    if let Err(e) = std::fs::write(&spec, text) {
        eprintln!("xtask: runtime-smoke: cannot write spec: {e}");
        return false;
    }
    // Phase 1: the kill. The abort exit must NOT be success.
    let killed = Command::new(bin)
        .args(["run"])
        .arg(&spec)
        .env("DGFLOW_TEST_ABORT_AFTER_CHECKPOINTS", "2")
        .status();
    match killed {
        Ok(s) if !s.success() => {}
        Ok(_) => {
            eprintln!("xtask: runtime-smoke: aborted run unexpectedly reported success");
            return false;
        }
        Err(e) => {
            eprintln!("xtask: runtime-smoke: could not launch dgflow: {e}");
            return false;
        }
    }
    // Phase 2: resume to completion.
    if !step(
        "runtime-smoke resume",
        Command::new(bin).args(["resume"]).arg(&spec),
    ) {
        return false;
    }
    // Phase 3: the manifest must say every case completed.
    let manifest = match std::fs::read_to_string(out.join("manifest.json")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: runtime-smoke: manifest missing after resume: {e}");
            return false;
        }
    };
    let completed = manifest.matches("\"completed\"").count();
    let clean = completed == 2
        && !manifest.contains("\"pending\"")
        && !manifest.contains("\"running\"")
        && !manifest.contains("\"failed\"");
    if !clean {
        eprintln!("xtask: runtime-smoke: manifest not fully completed:\n{manifest}");
        return false;
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("xtask: runtime-smoke: kill + resume completed both cases");
    true
}

/// Observability smoke test, end to end through the real `dgflow`
/// binary: run a traced toy campaign (`DGFLOW_TRACE=coarse`), convert
/// its telemetry with `dgflow trace`, and sanity-check the Chrome
/// trace-event export that Perfetto would load.
fn trace_smoke() -> bool {
    if !build_dgflow_bin() {
        return false;
    }
    let bin = std::path::Path::new("target/release/dgflow");
    let dir = std::env::temp_dir().join(format!("dgflow-trace-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("xtask: trace-smoke: cannot create {}: {e}", dir.display());
        return false;
    }
    let out = dir.join("out");
    let spec = dir.join("campaign.toml");
    let text = format!(
        "[campaign]\nname = \"traced\"\noutput = \"{}\"\ncheckpoint_every = 4\n\n\
         [[case]]\nname = \"a\"\nmesh = \"duct\"\ndegree = 2\nsteps = 4\n\
         dt_max = 0.01\nviscosity = 0.5\nmultigrid = false\npressure_drop = 0.1\n",
        out.display()
    );
    if let Err(e) = std::fs::write(&spec, text) {
        eprintln!("xtask: trace-smoke: cannot write spec: {e}");
        return false;
    }
    if !step(
        "trace-smoke run",
        Command::new(bin)
            .args(["run"])
            .arg(&spec)
            .env("DGFLOW_TRACE", "coarse"),
    ) {
        return false;
    }
    let case_dir = out.join("a");
    if !step(
        "trace-smoke export",
        Command::new(bin).args(["trace"]).arg(&case_dir),
    ) {
        return false;
    }
    let trace = match std::fs::read_to_string(case_dir.join("trace.json")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: trace-smoke: trace.json missing: {e}");
            return false;
        }
    };
    let shape_ok = trace.starts_with("{\"traceEvents\":[")
        && trace.contains("\"thread_name\"")
        && trace.contains("\"ph\":\"X\"")
        && trace.contains("\"model_gflop\"");
    if !shape_ok {
        eprintln!(
            "xtask: trace-smoke: trace.json is missing expected structure \
             (traceEvents / thread_name metadata / X events / roofline args)"
        );
        return false;
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("xtask: trace-smoke: traced campaign exported a well-formed Chrome trace");
    true
}

/// Service smoke test, end to end through the real `dgflow` binary and a
/// real Unix socket: start the daemon, then prove the three properties
/// the service exists for —
///
/// 1. **dedup**: a reformatted duplicate submission is a whole-case
///    cache hit (same job id, `cached:true`, case-hit counter bumped,
///    zero extra steps solved);
/// 2. **fairness**: with one tenant holding a backlog, a second
///    tenant's job overtakes it in the DRR dispatch order;
/// 3. **durability**: SIGKILL the daemon mid-queue, restart it on the
///    same state dir, and every accepted job still completes.
///
/// Ends with a clean client-driven `shutdown`.
fn serve_smoke() -> bool {
    if !build_dgflow_bin() {
        return false;
    }
    let mut daemons: Vec<std::process::Child> = Vec::new();
    let result = serve_smoke_inner(&mut daemons);
    // Reap whatever is still alive (on success both daemons have exited).
    for d in &mut daemons {
        let _ = d.kill();
        let _ = d.wait();
    }
    match result {
        Ok(()) => {
            eprintln!("xtask: serve-smoke: dedup + fairness + kill/restart + shutdown all clean");
            true
        }
        Err(e) => {
            eprintln!("xtask: serve-smoke: {e}");
            false
        }
    }
}

fn serve_smoke_inner(daemons: &mut Vec<std::process::Child>) -> Result<(), String> {
    use std::time::{Duration, Instant};

    let bin = std::path::Path::new("target/release/dgflow");
    let dir = std::env::temp_dir().join(format!("dgflow-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let state = dir.join("state").display().to_string();
    let socket = dir.join("state/dgflow.sock").display().to_string();

    let toy = |campaign: &str, steps: u32, drop: f64| {
        format!(
            "[campaign]\nname = \"{campaign}\"\ncheckpoint_every = 2\n\n\
             [[case]]\nname = \"a\"\nmesh = \"duct\"\ndegree = 2\nsteps = {steps}\n\
             dt_max = 0.01\nviscosity = 0.5\nmultigrid = false\npressure_drop = {drop}\n"
        )
    };
    let write_spec = |file: &str, text: &str| -> Result<String, String> {
        let p = dir.join(file);
        std::fs::write(&p, text).map_err(|e| format!("write {}: {e}", p.display()))?;
        Ok(p.display().to_string())
    };
    let client = |args: &[&str]| -> Result<String, String> {
        let out = Command::new(bin)
            .args(args)
            .output()
            .map_err(|e| format!("launch dgflow: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        if out.status.success() {
            Ok(stdout)
        } else {
            Err(format!(
                "dgflow {args:?} failed ({}): {stdout}{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ))
        }
    };
    let submit = |spec: &str, tenant: &str| -> Result<String, String> {
        let out = client(&["submit", &socket, spec, "--tenant", tenant])?;
        out.split("\"job\":\"")
            .nth(1)
            .and_then(|s| s.get(..16))
            .map(str::to_string)
            .ok_or_else(|| format!("no job id in submit response: {out}"))
    };
    let wait_until = |what: &str, secs: u64, pred: &dyn Fn() -> bool| -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !pred() {
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {what}"));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        Ok(())
    };
    let start_daemon = |daemons: &mut Vec<std::process::Child>| -> Result<(), String> {
        let child = Command::new(bin)
            .args(["serve", &state, "--workers", "1"])
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        daemons.push(child);
        // Ready when a real request round-trips (a stale socket file from
        // a killed daemon refuses connections, so polling for the path is
        // not enough).
        wait_until("daemon socket", 30, &|| {
            client(&["svc", &socket, "status"]).is_ok()
        })
    };

    // Distinct campaigns -> distinct fingerprints (name + pressure_drop).
    let dedup = write_spec("dedup.toml", &toy("smoke-dedup", 4, 0.1))?;
    let dedup_dup = write_spec(
        "dedup-reformatted.toml",
        "# duplicate submitted by a second client\n\
         [campaign]\ncheckpoint_every = 2\nname = \"smoke-dedup\"\n\n\
         [[case]]\npressure_drop = 1e-1\nmultigrid = false\nviscosity = 5e-1\n\
         dt_max = 1e-2\nsteps = 4\ndegree = 2\nmesh = \"duct\"\nname = \"a\"\n",
    )?;
    let a1 = write_spec("a1.toml", &toy("smoke-a1", 60, 0.11))?;
    let a2 = write_spec("a2.toml", &toy("smoke-a2", 4, 0.12))?;
    let a3 = write_spec("a3.toml", &toy("smoke-a3", 4, 0.13))?;
    let b1 = write_spec("b1.toml", &toy("smoke-b1", 4, 0.21))?;
    let k1 = write_spec("k1.toml", &toy("smoke-k1", 60, 0.31))?;
    let k2 = write_spec("k2.toml", &toy("smoke-k2", 4, 0.32))?;
    let k3 = write_spec("k3.toml", &toy("smoke-k3", 4, 0.33))?;

    start_daemon(daemons)?;

    // ── 1. dedup: reformatted duplicate is a whole-case cache hit ───────
    let first = client(&["submit", &socket, &dedup, "--tenant", "a"])?;
    if !first.contains("\"cached\":false") {
        return Err(format!("first submission unexpectedly cached: {first}"));
    }
    wait_until("dedup job completion", 120, &|| {
        client(&["svc", &socket, "stats"]).is_ok_and(|s| s.contains("\"jobs_completed\":1"))
    })?;
    let steps_total = |s: &str| -> Option<String> {
        s.split("\"steps_total\":")
            .nth(1)
            .and_then(|t| t.split([',', '}']).next())
            .map(str::to_string)
    };
    let steps_after_first =
        steps_total(&client(&["svc", &socket, "stats"])?).ok_or("stats missing steps_total")?;
    let second = client(&["submit", &socket, &dedup_dup, "--tenant", "b"])?;
    if !second.contains("\"cached\":true") || !second.contains("\"state\":\"completed\"") {
        return Err(format!("duplicate was not served from the cache: {second}"));
    }
    let stats = client(&["svc", &socket, "stats"])?;
    if !stats.contains("\"case_hits\":1") || !stats.contains("\"case_misses\":1") {
        return Err(format!("case hit/miss counters wrong after dedup: {stats}"));
    }
    if steps_total(&stats).as_ref() != Some(&steps_after_first) {
        return Err(format!("cache hit solved steps: {stats}"));
    }

    // ── 2. fairness: tenant b's job overtakes tenant a's backlog ────────
    // a1 is long; a2/a3/b1 queue behind it on the single worker. DRR
    // visits tenants round-robin, so b1 dispatches before a's second
    // queued job (pure FIFO would run a2 and a3 first).
    submit(&a1, "a")?;
    submit(&a2, "a")?;
    submit(&a3, "a")?;
    let jb1 = submit(&b1, "b")?;
    wait_until("fairness batch completion", 300, &|| {
        client(&["svc", &socket, "stats"]).is_ok_and(|s| s.contains("\"jobs_completed\":5"))
    })?;
    let stats = client(&["svc", &socket, "stats"])?;
    let order: Vec<String> = stats
        .split("\"dispatch_order\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .ok_or("stats missing dispatch_order")?
        .split(',')
        .map(|e| e.trim_matches('"').to_string())
        .collect();
    // [a/dedup, a/a1, b/b1, a/a2, a/a3]
    if order.get(2).map(String::as_str) != Some(&format!("b/{jb1}")[..]) {
        return Err(format!(
            "DRR did not let tenant b overtake a's backlog: {order:?}"
        ));
    }

    // ── 3. durability: SIGKILL mid-queue, restart, nothing lost ─────────
    let jk1 = submit(&k1, "a")?;
    let jk2 = submit(&k2, "a")?;
    let jk3 = submit(&k3, "b")?;
    wait_until("k1 to start running", 60, &|| {
        client(&["svc", &socket, "status"]).is_ok_and(|s| {
            s.split(&format!("\"job\":\"{jk1}\""))
                .nth(1)
                .and_then(|rest| rest.split('}').next())
                .is_some_and(|obj| obj.contains("\"state\":\"running\""))
        })
    })?;
    let daemon = daemons.last_mut().expect("daemon running");
    daemon.kill().map_err(|e| format!("kill daemon: {e}"))?;
    let _ = daemon.wait();

    start_daemon(daemons)?;
    wait_until("recovered queue to drain", 300, &|| {
        client(&["svc", &socket, "status"]).is_ok_and(|s| {
            s.matches("\"state\":\"completed\"").count() == 8
                && !s.contains("\"state\":\"queued\"")
                && !s.contains("\"state\":\"running\"")
                && !s.contains("\"state\":\"failed\"")
        })
    })?;
    let status = client(&["svc", &socket, "status"])?;
    for (jid, name) in [(&jk1, "k1"), (&jk2, "k2"), (&jk3, "k3")] {
        if !status.contains(&format!("\"job\":\"{jid}\"")) {
            return Err(format!(
                "accepted job {name} ({jid}) lost across the kill: {status}"
            ));
        }
    }

    // ── clean shutdown ──────────────────────────────────────────────────
    client(&["svc", &socket, "shutdown"])?;
    let daemon = daemons.last_mut().expect("daemon running");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match daemon.try_wait() {
            Ok(Some(s)) if s.success() => break,
            Ok(Some(s)) => return Err(format!("daemon exited uncleanly after shutdown: {s}")),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(None) => return Err("daemon ignored shutdown".to_string()),
            Err(e) => return Err(format!("wait for daemon: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The full CI sequence, stopping at the first failure.
fn ci() -> bool {
    step("fmt", cargo().args(["fmt", "--all", "--check"]))
        && lint()
        && audit::run(&[])
        && step("build", cargo().args(["build", "--release"]))
        && step("test", cargo().args(["test", "--workspace", "-q"]))
        && step(
            "test check-disjoint",
            cargo().args([
                "test",
                "-q",
                "-p",
                "dgflow-fem",
                "-p",
                "dgflow-comm",
                "-p",
                "dgflow-multigrid",
                "-p",
                "dgflow-core",
                "--features",
                "dgflow-fem/check-disjoint,dgflow-comm/check-disjoint,\
                 dgflow-multigrid/check-disjoint",
            ]),
        )
        && step(
            "test kernel equivalence (release)",
            cargo().args([
                "test",
                "-q",
                "-p",
                "dgflow-fem",
                "--release",
                "--test",
                "kernel_equiv",
                "--test",
                "proptest_cg_gather",
            ]),
        )
        && bench::bench_check(&["--quick".into()])
        && model()
        && dist::dist_smoke()
        && runtime_smoke()
        && trace_smoke()
        && serve_smoke()
        && miri(false)
        && tsan(false)
}
