//! End-to-end test of the tracing pipeline: run a tiny campaign with
//! `DGFLOW_TRACE=coarse`, convert its telemetry with `dgflow trace`, and
//! validate the exported Chrome trace with the runtime's own JSON parser
//! — structure, per-track monotonic ordering, roofline annotations, and
//! that the stage spans and the `case_summary` kernel timers agree to
//! rounding (the timers are read from the spans).

use dgflow_runtime::json::{self, Json};
use std::path::Path;
use std::process::Command;

const DGFLOW: &str = env!("CARGO_BIN_EXE_dgflow");

fn spec_text(out: &Path) -> String {
    format!(
        r#"
[campaign]
name = "traced"
output = "{}"
checkpoint_every = 4

[[case]]
name = "a"
mesh = "duct"
degree = 2
steps = 4
dt_max = 0.01
viscosity = 0.5
multigrid = false
pressure_drop = 0.1
"#,
        out.display()
    )
}

fn parse_lines(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .expect("telemetry exists")
        .lines()
        .map(|l| json::parse(l).expect("every telemetry line is valid JSON"))
        .collect()
}

#[test]
fn traced_campaign_exports_a_valid_chrome_trace() {
    let base = std::env::temp_dir().join(format!("dgflow-trace-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let out = base.join("out");
    let spec = base.join("campaign.toml");
    std::fs::write(&spec, spec_text(&out)).unwrap();

    let status = Command::new(DGFLOW)
        .args(["run", spec.to_str().unwrap()])
        .env("DGFLOW_THREADS", "2")
        .env("DGFLOW_TRACE", "coarse")
        .status()
        .expect("run dgflow");
    assert!(status.success(), "traced run must complete");

    // The telemetry must carry span + thread records, all attempt 1.
    let case_dir = out.join("a");
    let records = parse_lines(&case_dir.join("telemetry.jsonl"));
    let of_type = |t: &str| {
        records
            .iter()
            .filter(|r| r.get("type").and_then(Json::as_str) == Some(t))
            .count()
    };
    assert!(of_type("span") > 0, "span records must be emitted");
    assert!(of_type("thread") > 0, "thread records must be emitted");
    for r in &records {
        assert_eq!(
            r.get("attempt").and_then(Json::as_usize),
            Some(1),
            "first run is attempt 1 on every record"
        );
    }
    let summary = records
        .iter()
        .find(|r| r.get("type").and_then(Json::as_str) == Some("case_summary"))
        .expect("case_summary present");
    assert!(
        summary.get("metrics").is_some(),
        "case_summary carries the metrics delta"
    );

    // The kernel timers are the stage spans' durations: they agree to
    // floating-point rounding of the sums.
    let kernel_s: f64 = summary
        .get("kernel_seconds")
        .and_then(Json::to_map)
        .expect("kernel_seconds object")
        .values()
        .filter_map(|v| v.as_f64())
        .sum();
    let span_s: f64 = records
        .iter()
        .filter(|r| {
            r.get("type").and_then(Json::as_str) == Some("span")
                && r.get("cat").and_then(Json::as_str) == Some("core")
                && r.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("step."))
        })
        .filter_map(|r| r.get("dur_ns").and_then(Json::as_f64))
        .sum::<f64>()
        * 1e-9;
    assert!(kernel_s > 0.0, "kernel timers must be populated");
    let rel = (span_s - kernel_s).abs() / kernel_s;
    assert!(
        rel <= 1e-9,
        "stage spans ({span_s:.9}s) vs kernel timers ({kernel_s:.9}s): {rel:.3e} apart"
    );

    // Export and validate the Chrome trace.
    let status = Command::new(DGFLOW)
        .args(["trace", case_dir.to_str().unwrap()])
        .status()
        .expect("run dgflow trace");
    assert!(status.success(), "trace export must succeed");
    let trace_path = case_dir.join("trace.json");
    let trace = json::parse(&std::fs::read_to_string(&trace_path).unwrap())
        .expect("trace.json is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must contain events");

    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut named_tracks = std::collections::BTreeSet::new();
    let mut saw_roofline = false;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid field") as u64;
        match ph {
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    named_tracks.insert(tid);
                }
            }
            "X" => {
                let ts = ev.get("ts").and_then(Json::as_f64).expect("ts field");
                assert!(
                    ev.get("dur").and_then(Json::as_f64).is_some(),
                    "complete events carry a duration"
                );
                // Events are emitted per track in start order: within a
                // tid the timestamps never go backwards.
                let prev = last_ts.insert(tid, ts).unwrap_or(f64::NEG_INFINITY);
                assert!(ts >= prev, "track {tid}: ts {ts} after {prev}");
                if let Some(args) = ev.get("args") {
                    if args.get("model_gflop").is_some() {
                        assert!(
                            args.get("gflop_per_s").and_then(Json::as_f64).is_some(),
                            "roofline-tagged spans report achieved GFlop/s"
                        );
                        saw_roofline = true;
                    }
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // Every track that has events was declared with a thread_name record.
    for tid in last_ts.keys() {
        assert!(named_tracks.contains(tid), "track {tid} missing metadata");
    }
    assert!(
        saw_roofline,
        "kernel spans must carry roofline annotations (model_gflop)"
    );

    let _ = std::fs::remove_dir_all(&base);
}
