//! Span reconciliation and exporter-integrity tests.
//!
//! Tracing state is process-global, so every test that flips the level or
//! drains spans serializes on [`LOCK`] and filters drained records by
//! test-unique span names — the count assertions then hold even if other
//! tests in this binary (or their threads) record spans concurrently.

use dgflow_trace as trace;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Drain everything, keeping only spans whose name matches `pred`.
fn drain_named(pred: impl Fn(&str) -> bool) -> Vec<trace::SpanRecord> {
    trace::take_spans()
        .into_iter()
        .filter(|s| pred(s.name))
        .collect()
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = guard();
    trace::set_level(trace::Level::Off);
    {
        let _sp = trace::span("t", "off.parent").meta(1);
        let _sp2 = trace::span_fine("t", "off.child");
    }
    assert!(drain_named(|n| n.starts_with("off.")).is_empty());
}

#[test]
fn finish_reports_the_recorded_duration_once() {
    let _g = guard();
    trace::set_level(trace::Level::Coarse);
    let secs = trace::span_timed("t", "finish.on").finish();
    trace::set_level(trace::Level::Off);
    let spans = drain_named(|n| n == "finish.on");
    assert_eq!(
        spans.len(),
        1,
        "finish records the span, drop does not again"
    );
    assert_eq!(secs, spans[0].duration_ns() as f64 * 1e-9);
    let timed = trace::span_timed("t", "finish.off");
    std::thread::sleep(std::time::Duration::from_millis(2));
    assert!(
        timed.finish() >= 2e-3,
        "a timed span keeps time with tracing off"
    );
    assert!(drain_named(|n| n == "finish.off").is_empty());
}

#[test]
fn child_span_time_never_exceeds_the_parent() {
    let _g = guard();
    trace::set_level(trace::Level::Fine);
    {
        let _parent = trace::span("t", "recon.parent");
        for _ in 0..5 {
            let _child = trace::span("t", "recon.child");
            std::hint::black_box(vec![0u8; 512]);
        }
    }
    trace::set_level(trace::Level::Off);
    let spans = drain_named(|n| n.starts_with("recon."));
    let parent: Vec<_> = spans.iter().filter(|s| s.name == "recon.parent").collect();
    let children: Vec<_> = spans.iter().filter(|s| s.name == "recon.child").collect();
    assert_eq!(parent.len(), 1);
    assert_eq!(children.len(), 5);
    let p = parent[0];
    let child_sum: u64 = children.iter().map(|c| c.duration_ns()).sum();
    assert!(
        child_sum <= p.duration_ns(),
        "children sum {child_sum} ns > parent {} ns",
        p.duration_ns()
    );
    for c in &children {
        assert!(c.start_ns >= p.start_ns && c.end_ns <= p.end_ns);
        assert_eq!(c.depth, p.depth + 1, "children nest one level deeper");
        assert_eq!(c.tid, p.tid, "same-thread nesting stays on one track");
    }
}

#[test]
fn multi_thread_drain_loses_no_spans() {
    let _g = guard();
    trace::set_level(trace::Level::Coarse);
    // dropped_spans() is cumulative process-wide (other tests overflow
    // rings on purpose), so assert on the delta.
    let dropped_before = trace::dropped_spans();
    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    let _sp = trace::span("t", "drain.worker").meta(i as u64);
                }
                // Drains may race with recording on other threads — the
                // SPSC rings make that safe; nothing may be lost.
                trace::collect();
            });
        }
    });
    trace::set_level(trace::Level::Off);
    let spans = drain_named(|n| n == "drain.worker");
    assert_eq!(spans.len(), THREADS * PER_THREAD);
    assert_eq!(trace::dropped_spans(), dropped_before, "no ring overflowed");
    // Every record resolves to a registered thread track.
    let tracks = trace::thread_tracks();
    for s in &spans {
        assert!(tracks.iter().any(|(tid, _)| *tid == s.tid));
    }
}

#[test]
fn full_ring_drops_and_counts_instead_of_blocking() {
    let _g = guard();
    trace::set_level(trace::Level::Coarse);
    let before = trace::dropped_spans();
    // One dedicated thread so the overflow cannot eat another test's ring
    // capacity mid-drain.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..trace::ring::RING_CAPACITY + 64 {
                let _sp = trace::span("t", "overflow.span");
            }
        });
    });
    trace::set_level(trace::Level::Off);
    let spans = drain_named(|n| n == "overflow.span");
    assert_eq!(spans.len(), trace::ring::RING_CAPACITY);
    assert!(trace::dropped_spans() >= before + 64);
}

#[test]
fn fine_sampling_thins_fine_spans_only() {
    let _g = guard();
    trace::set_level(trace::Level::Fine);
    trace::set_fine_sample(10);
    {
        for _ in 0..100 {
            let _sp = trace::span_fine("t", "sample.fine");
        }
        for _ in 0..100 {
            let _sp = trace::span("t", "sample.coarse");
        }
    }
    trace::set_fine_sample(1);
    trace::set_level(trace::Level::Off);
    // One drain: take_spans() discards whatever the filter rejects, so a
    // second drain_named call would come up empty.
    let spans = drain_named(|n| n.starts_with("sample."));
    let fine: Vec<_> = spans.iter().filter(|s| s.name == "sample.fine").collect();
    let coarse: Vec<_> = spans.iter().filter(|s| s.name == "sample.coarse").collect();
    assert_eq!(fine.len(), 10, "1-in-10 sampling keeps exactly 10 of 100");
    assert_eq!(coarse.len(), 100, "coarse spans are never sampled out");
}

#[test]
fn chrome_export_orders_every_track_monotonically() {
    let _g = guard();
    trace::set_level(trace::Level::Coarse);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for i in 0..50 {
                    let _sp = trace::span("t", "chrome.span").meta(i);
                }
            });
        }
    });
    trace::set_level(trace::Level::Off);
    let spans = drain_named(|n| n == "chrome.span");
    assert_eq!(spans.len(), 150);
    let doc = trace::chrome::chrome_trace(&spans, &trace::thread_tracks());
    // Structural sanity: balanced braces/brackets, one X event per span.
    assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    assert_eq!(doc.matches("\"ph\":\"X\"").count(), 150);
    // Per-track monotonic: walk the events in document order and assert
    // `ts` never decreases within one tid.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for ev in doc.split("{\"ph\":\"X\"").skip(1) {
        let tid: u64 = ev
            .split("\"tid\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|t| t.trim().parse().ok())
            .expect("tid field");
        let ts: f64 = ev
            .split("\"ts\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .and_then(|t| t.trim().parse().ok())
            .expect("ts field");
        if let Some(prev) = last_ts.get(&tid) {
            assert!(ts >= *prev, "track {tid}: ts {ts} < previous {prev}");
        }
        last_ts.insert(tid, ts);
    }
    assert_eq!(last_ts.len(), 3, "one track per recording thread");
}
