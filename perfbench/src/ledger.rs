//! The span ledger: per-layer self times from a traced run, and the share
//! of each end-to-end operation that no layer span accounts for.
//!
//! A span's *self time* is its duration minus the time its direct child
//! spans on the same thread cover. Each operation the benchmark times runs
//! under one root span ([`ROOT`]); every other span recorded inside the
//! root's interval on a non-pool thread is a layer span, and the layer
//! self times then add up to the root's duration minus the root's own
//! self time. That remainder, as a share of the root duration, is the
//! unattributed share. Pool worker threads run in parallel with the
//! thread that waits for them, so their spans are kept out of the wall-time
//! sum: the waiting thread's `pool.run` span already covers them.

use dgflow_trace::SpanRecord;
use std::collections::BTreeMap;

/// Name of the root span the benchmark opens around each timed operation.
pub const ROOT: &str = "bench.op";

/// Self time (ns) of every span in `spans`, in input order. Nesting is
/// read per thread from the recorded depth and the intervals, so the
/// input may interleave threads and need not be sorted.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(SpanRecord::duration_ns).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // parents open no later than their children and sit shallower
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, spans[i].depth));
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.depth < s.depth && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(s.duration_ns());
        }
        stack.push(i);
    }
    self_ns
}

/// Totals of one span name (and level, for level-indexed names).
#[derive(Clone, Debug, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of self times (ns).
    pub self_ns: u64,
    /// Every duration (ns), for medians.
    pub durations: Vec<u64>,
}

/// Span names whose `meta` is a multigrid level index: their totals are
/// kept per level.
const LEVEL_INDEXED: &[&str] = &[
    "mg.vcycle.level",
    "vcycle.level",
    "chebyshev.smooth",
    "level.apply",
    "restrict",
    "prolongate",
];

/// Accumulated span totals and root ledger of a traced run.
#[derive(Debug, Default)]
pub struct SpanBook {
    /// Totals keyed by `(name, level)`; level is `u64::MAX` for names
    /// that are not level-indexed.
    pub by_key: BTreeMap<(&'static str, u64), Agg>,
    /// Sum of root span durations (ns).
    pub root_ns: u64,
    /// Sum of layer self times inside root spans (ns).
    pub covered_ns: u64,
    /// Root spans seen.
    pub roots: u64,
}

impl SpanBook {
    /// Add one drained batch of spans. `pool_tids` are the pool worker
    /// threads, whose spans are left out (see the module docs). A batch
    /// must hold complete span trees: drain it after the timed operation
    /// has returned.
    pub fn add(&mut self, spans: &[SpanRecord], pool_tids: &[u32]) {
        let spans: Vec<SpanRecord> = spans
            .iter()
            .filter(|s| !pool_tids.contains(&s.tid))
            .copied()
            .collect();
        let self_ns = self_times(&spans);
        for (s, &own) in spans.iter().zip(&self_ns) {
            let level = if LEVEL_INDEXED.contains(&s.name) {
                s.meta
            } else {
                u64::MAX
            };
            let a = self.by_key.entry((s.name, level)).or_default();
            a.count += 1;
            a.total_ns += s.duration_ns();
            a.self_ns += own;
            a.durations.push(s.duration_ns());
        }
        for root in spans.iter().filter(|s| s.name == ROOT) {
            self.roots += 1;
            self.root_ns += root.duration_ns();
            self.covered_ns += spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| {
                    !std::ptr::eq(*s, root)
                        && s.start_ns >= root.start_ns
                        && s.end_ns <= root.end_ns
                })
                .map(|(_, &own)| own)
                .sum::<u64>();
        }
    }

    /// `1 − Σ layer self time ÷ Σ root duration` over every root seen.
    pub fn unattributed_share(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        1.0 - self.covered_ns as f64 / self.root_ns as f64
    }

    /// Totals of `name` over all levels.
    pub fn total(&self, name: &str) -> Agg {
        let mut out = Agg::default();
        for ((n, _), a) in &self.by_key {
            if *n == name {
                out.count += a.count;
                out.total_ns += a.total_ns;
                out.self_ns += a.self_ns;
                out.durations.extend_from_slice(&a.durations);
            }
        }
        out
    }

    /// Totals of `name` at one multigrid level.
    pub fn level(&self, name: &'static str, level: usize) -> Agg {
        self.by_key
            .get(&(name, level as u64))
            .cloned()
            .unwrap_or_default()
    }
}

/// Track ids of the pool worker threads (named `pool-<i>` by the pool).
pub fn pool_tids() -> Vec<u32> {
    dgflow_trace::thread_tracks()
        .into_iter()
        .filter(|(_, name)| name.starts_with("pool-"))
        .map(|(tid, _)| tid)
        .collect()
}

/// Median of a list of nanosecond durations, in seconds (0 when empty).
pub fn median_s(durations: &[u64]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let xs: Vec<f64> = durations.iter().map(|&d| d as f64 * 1e-9).collect();
    crate::stats::median(&xs)
}
