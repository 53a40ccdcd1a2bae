//! The result line's schema, and its agreement with `BENCHMARK.json`.

use dgflow::runtime::json::{parse, Json};
use perfbench::report::{Report, END_TO_END, PER_LAYER};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, perfbench::WORKLOADS);
}

fn check_line(line: &str, names: &[(&str, &str)]) {
    let doc = parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = doc.to_map().expect("object").keys().copied().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
    assert_eq!(doc.get("attempted").and_then(Json::as_usize), Some(7));
    assert_eq!(doc.get("failed").and_then(Json::as_usize), Some(0));
    let metrics = doc
        .get("metrics")
        .and_then(Json::to_map)
        .expect("metrics object");
    assert_eq!(metrics.len(), names.len());
    for &(name, unit) in names {
        let m = metrics[name];
        assert_eq!(m.to_map().expect("metric object").len(), 2);
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
    }
}

#[test]
fn plain_report_prints_every_end_to_end_metric() {
    let mut r = Report::new(false);
    for (i, &(name, _)) in END_TO_END.iter().enumerate() {
        r.set(name, 0.5 + i as f64 * 1e-7);
    }
    // per-layer names do not leak into a plain report
    r.set("comm.exchange_s", 1.0);
    check_line(&r.json(true, 7, 0), END_TO_END);
}

#[test]
fn traced_report_prints_every_per_layer_metric() {
    let mut r = Report::new(true);
    r.set("fem.gflops", 3.25);
    r.set("setup_s", 1.0);
    let line = r.json(true, 7, 0);
    check_line(&line, PER_LAYER);
    let doc = parse(&line).expect("JSON");
    let v = |k: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(k))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    assert_eq!(v("fem.gflops"), Some(3.25));
    assert_eq!(v("comm.exchange_s"), Some(0.0));
}

#[test]
#[should_panic(expected = "unknown metric")]
fn misspelt_metric_is_a_benchmark_fault() {
    Report::new(true).set("fem.glops", 1.0);
}

#[test]
#[should_panic(expected = "was not measured")]
fn missing_end_to_end_metric_is_a_benchmark_fault() {
    Report::new(false).json(true, 1, 0);
}
