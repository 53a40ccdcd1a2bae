//! Per-thread span recorders and the process-wide collector.
//!
//! A span is a named, categorized wall-time interval recorded as one
//! fixed-size [`SpanRecord`] when its RAII guard drops. The hot path —
//! guard construction and drop — touches only thread-local state plus one
//! SPSC ring publish; the first span on a thread registers that thread's
//! recorder with the global collector (one mutex lock, once per thread).
//!
//! Draining is two-stage: [`collect`] moves every ring's buffered spans
//! into the collector's spill vector (called at natural quiescent points
//! like the `ThreadPool::run` join barrier, but safe at any time thanks to
//! the SPSC ring), and [`take_spans`] hands the accumulated spill to an
//! exporter. Records carry the recording thread's track id so exporters
//! can rebuild one timeline per thread.

use crate::ring::Ring;
use crate::{enabled, fine_sample, now_ns, Level};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One completed span, as stored in the rings and handed to exporters.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Span name (interned static string, e.g. `"laplace.apply"`).
    pub name: &'static str,
    /// Category/track grouping (e.g. `"fem"`, `"solver"`, `"case"`).
    pub cat: &'static str,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Nesting depth on the recording thread at entry (0 = top level).
    pub depth: u16,
    /// Track id of the recording thread (dense, assigned at registration).
    pub tid: u32,
    /// Free-form small payload: iteration index, multigrid level, step
    /// number — whatever the call site finds useful. `u64::MAX` = unset.
    pub meta: u64,
    /// Modeled floating-point work of the interval (Flop; 0 = untagged).
    /// Exporters divide by the measured duration for per-span achieved
    /// GFlop/s against the roofline model.
    pub work_flops: f64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread recording state. Owned by one thread (the producer side of
/// `ring`), shared with the collector for draining.
pub(crate) struct ThreadRecorder {
    tid: u32,
    name: Mutex<String>,
    ring: Ring,
    /// Current nesting depth. Only the owning thread mutates it; atomic
    /// solely so the struct stays `Sync` for the registry.
    depth: AtomicU32,
    /// Fine-span sequence counter for sampling (owner-thread only).
    fine_seq: AtomicU32,
}

/// Registry of every thread recorder plus the drained-span spill.
struct Collector {
    recorders: Mutex<Vec<Arc<ThreadRecorder>>>,
    spill: Mutex<Vec<SpanRecord>>,
    next_tid: AtomicU32,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        recorders: Mutex::new(Vec::new()),
        spill: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(0),
    })
}

thread_local! {
    static RECORDER: std::cell::OnceCell<Arc<ThreadRecorder>> = const { std::cell::OnceCell::new() };
}

/// The calling thread's recorder, registering it on first use.
fn with_recorder<R>(f: impl FnOnce(&ThreadRecorder) -> R) -> R {
    RECORDER.with(|cell| {
        let rec = cell.get_or_init(|| {
            let c = collector();
            // ordering: Relaxed — the id only needs uniqueness, and the
            // registry lock below orders registration anyway.
            let tid = c.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_string);
            let rec = Arc::new(ThreadRecorder {
                tid,
                name: Mutex::new(name),
                ring: Ring::default(),
                depth: AtomicU32::new(0),
                fine_seq: AtomicU32::new(0),
            });
            c.recorders
                .lock()
                .expect("trace registry poisoned")
                .push(rec.clone());
            rec
        });
        f(rec)
    })
}

/// Name the calling thread's trace track (e.g. `"pool-3"`). Threads that
/// never call this use their OS thread name, or `thread-<tid>`.
pub fn set_thread_track_name(name: &str) {
    with_recorder(|r| {
        *r.name.lock().expect("trace name poisoned") = name.to_string();
    });
}

/// An in-flight span; records a [`SpanRecord`] when dropped. Construct
/// with [`crate::span`] / [`crate::span_fine`].
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    start_ns: u64,
    name: &'static str,
    cat: &'static str,
    meta: u64,
    work_flops: f64,
    depth: u16,
    /// False when tracing was off (or the span sampled out) at entry: the
    /// drop is then a no-op and depth was never incremented.
    armed: bool,
}

impl Span {
    pub(crate) fn new(cat: &'static str, name: &'static str, level: Level) -> Self {
        if !enabled(level) {
            return Self::disarmed(cat, name);
        }
        if level == Level::Fine {
            let sample = fine_sample();
            if sample > 1 {
                let keep = with_recorder(|r| {
                    // ordering: Relaxed — owner-thread-only counter.
                    r.fine_seq.fetch_add(1, Ordering::Relaxed) % sample == 0
                });
                if !keep {
                    return Self::disarmed(cat, name);
                }
            }
        }
        let depth = with_recorder(|r| {
            // ordering: Relaxed — owner-thread-only counter.
            r.depth.fetch_add(1, Ordering::Relaxed)
        });
        Self {
            start_ns: now_ns(),
            name,
            cat,
            meta: u64::MAX,
            work_flops: 0.0,
            depth: depth.min(u32::from(u16::MAX)) as u16,
            armed: true,
        }
    }

    /// A coarse span that keeps its start time even when it records
    /// nothing, so [`Span::finish`] can report its duration.
    pub(crate) fn timed(cat: &'static str, name: &'static str) -> Self {
        let mut span = Self::new(cat, name, Level::Coarse);
        if !span.armed {
            span.start_ns = now_ns();
        }
        span
    }

    fn disarmed(cat: &'static str, name: &'static str) -> Self {
        Self {
            start_ns: 0,
            name,
            cat,
            meta: u64::MAX,
            work_flops: 0.0,
            depth: 0,
            armed: false,
        }
    }

    /// Attach a small integer payload (builder style).
    pub fn meta(mut self, meta: u64) -> Self {
        self.meta = meta;
        self
    }

    /// Tag the span with a modeled work estimate in Flop (builder style).
    pub fn work(mut self, flops: f64) -> Self {
        self.work_flops = flops;
        self
    }

    /// Attach/overwrite the integer payload on a live span.
    pub fn set_meta(&mut self, meta: u64) {
        self.meta = meta;
    }

    /// Close the span now and return its duration in seconds: the same
    /// nanoseconds its [`SpanRecord`] carries when tracing is on. Only
    /// spans opened with [`crate::span_timed`] have a start time when
    /// tracing is off.
    pub fn finish(mut self) -> f64 {
        let end_ns = now_ns();
        self.record(end_ns);
        end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// Push the record (once) if the span is armed.
    fn record(&mut self, end_ns: u64) {
        if !std::mem::take(&mut self.armed) {
            return;
        }
        with_recorder(|r| {
            // ordering: Relaxed — owner-thread-only counter.
            r.depth.fetch_sub(1, Ordering::Relaxed);
            r.ring.push(SpanRecord {
                name: self.name,
                cat: self.cat,
                start_ns: self.start_ns,
                end_ns,
                depth: self.depth,
                tid: r.tid,
                meta: self.meta,
                work_flops: self.work_flops,
            });
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.record(now_ns());
        }
    }
}

/// Drain every thread's ring into the collector spill. Cheap no-op when
/// nothing was recorded; safe to call from any thread at any time (the
/// rings are SPSC and consumers are serialized by the spill lock).
pub fn collect() {
    let c = collector();
    let mut spill = c.spill.lock().expect("trace spill poisoned");
    let recorders = c.recorders.lock().expect("trace registry poisoned");
    for r in recorders.iter() {
        r.ring.pop_into(&mut spill);
    }
}

/// Drain everything and return the accumulated spans, emptying the spill.
pub fn take_spans() -> Vec<SpanRecord> {
    let c = collector();
    let mut spill = c.spill.lock().expect("trace spill poisoned");
    {
        let recorders = c.recorders.lock().expect("trace registry poisoned");
        for r in recorders.iter() {
            r.ring.pop_into(&mut spill);
        }
    }
    std::mem::take(&mut *spill)
}

/// `(tid, track name)` of every thread that has recorded so far.
pub fn thread_tracks() -> Vec<(u32, String)> {
    let c = collector();
    let recorders = c.recorders.lock().expect("trace registry poisoned");
    let mut tracks: Vec<(u32, String)> = recorders
        .iter()
        .map(|r| (r.tid, r.name.lock().expect("trace name poisoned").clone()))
        .collect();
    tracks.sort_by_key(|(tid, _)| *tid);
    tracks
}

/// Total spans dropped to full rings since process start.
pub fn dropped_spans() -> u64 {
    let c = collector();
    let recorders = c.recorders.lock().expect("trace registry poisoned");
    recorders.iter().map(|r| r.ring.dropped()).sum()
}
