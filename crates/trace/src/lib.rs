//! `dgflow-trace` — the workspace-wide observability substrate.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when off.** Tracing is a process-global level flag; a span
//!    constructor with tracing off is one relaxed atomic load and a
//!    branch. With the `noop` feature the check constant-folds to `false`
//!    and every span compiles out entirely.
//! 2. **Cheap when on.** The hot path (guard drop) writes one fixed-size
//!    record into the calling thread's bounded SPSC ring — no locks, no
//!    allocation, no shared mutable state between recording threads. Full
//!    rings drop-and-count instead of blocking. Fine-grained spans can be
//!    sampled 1-in-N (`DGFLOW_TRACE_SAMPLE`).
//! 3. **Dependency-free.** Every other workspace crate records into this
//!    one, so it depends on nothing but std.
//!
//! Three subsystems:
//!
//! * [`span`] / [`mod@ring`] — RAII wall-time spans on per-thread ring
//!   buffers, drained into a process collector at quiescent points (the
//!   `ThreadPool::run` join barrier, the solver step boundary) and handed
//!   to exporters by [`take_spans`]. Spans carry an optional modeled-work
//!   tag (Flop) for per-span roofline attribution.
//! * [`metrics`] — named counters/gauges/log-linear histograms with
//!   snapshot/delta semantics for per-case and per-campaign aggregation.
//! * [`chrome`] — the Chrome trace-event JSON exporter (Perfetto,
//!   `chrome://tracing`), one track per recording thread.
//!
//! Levels: [`Level::Coarse`] spans mark solver stages and case lifecycle
//! (tens per step); [`Level::Fine`] adds per-CG-iteration, per-V-cycle-
//! level, and per-pool-job spans (hundreds to thousands per step).

pub mod chrome;
pub mod metrics;
pub use chrome::chrome_trace;
pub mod ring;
pub mod span;

pub use metrics::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Histogram, MetricValue, MetricsSnapshot,
};
pub use span::{
    collect, dropped_spans, set_thread_track_name, take_spans, thread_tracks, Span, SpanRecord,
};

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Tracing verbosity. Ordered: enabling a level enables everything
/// coarser.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No recording (the default).
    Off = 0,
    /// Stage-granularity spans: splitting-scheme stages, operator
    /// applications, case lifecycle.
    Coarse = 1,
    /// Everything: per CG iteration, per multigrid level, per pool job.
    Fine = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(0);
static FINE_SAMPLE: AtomicU32 = AtomicU32::new(1);

/// Set the process-wide tracing level.
pub fn set_level(level: Level) {
    // ordering: Relaxed — the flag gates future span creation only; no
    // data is published through it.
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current tracing level.
pub fn level() -> Level {
    // ordering: Relaxed — see `set_level`.
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Coarse,
        _ => Level::Fine,
    }
}

/// Is recording at `level` currently enabled? With the `noop` feature
/// this is a compile-time `false` and spans vanish from the binary.
#[inline]
pub fn enabled(level: Level) -> bool {
    // ordering: Relaxed — see `set_level`.
    cfg!(not(feature = "noop")) && LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Record only one in `n` fine-level spans (per thread, per sequence).
/// `n <= 1` disables sampling. Coarse spans are never sampled out.
pub fn set_fine_sample(n: u32) {
    // ordering: Relaxed — sampling knob, same publication story as LEVEL.
    FINE_SAMPLE.store(n.max(1), Ordering::Relaxed);
}

pub(crate) fn fine_sample() -> u32 {
    // ordering: Relaxed — see `set_fine_sample`.
    FINE_SAMPLE.load(Ordering::Relaxed)
}

/// Configure level and sampling from the environment and return the
/// resulting level: `DGFLOW_TRACE` = `0`/`off`, `1`/`coarse`, `2`/`fine`;
/// `DGFLOW_TRACE_SAMPLE` = keep-1-in-N for fine spans.
pub fn init_from_env() -> Level {
    if let Ok(v) = std::env::var("DGFLOW_TRACE") {
        let lvl = match v.trim() {
            "0" | "off" | "" => Level::Off,
            "1" | "coarse" | "on" => Level::Coarse,
            _ => Level::Fine,
        };
        set_level(lvl);
    }
    if let Ok(v) = std::env::var("DGFLOW_TRACE_SAMPLE") {
        if let Ok(n) = v.trim().parse::<u32>() {
            set_fine_sample(n);
        }
    }
    level()
}

/// Nanoseconds since the process trace epoch (first call wins; all
/// threads share the epoch, so cross-thread span timestamps align).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a coarse span. Bind the result: `let _sp = trace::span("core",
/// "step.pressure");` records the enclosing scope's wall time.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    Span::new(cat, name, Level::Coarse)
}

/// Open a coarse span whose duration the caller reads with
/// [`Span::finish`]. It reads the clock even with tracing off, so use it
/// only where that time is wanted; plain [`span`] stays a branch when off.
#[inline]
pub fn span_timed(cat: &'static str, name: &'static str) -> Span {
    Span::timed(cat, name)
}

/// Open a fine-grained span (subject to `set_fine_sample`).
#[inline]
pub fn span_fine(cat: &'static str, name: &'static str) -> Span {
    Span::new(cat, name, Level::Fine)
}
