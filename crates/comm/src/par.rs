//! Shared-memory `parallel_for` over a persistent worker pool.
//!
//! The paper parallelizes the cell/face loops with MPI across nodes and
//! relies on cross-element SIMD within a core. On a single address space we
//! add the missing middle layer: a work-stealing loop over batches of SIMD
//! cells executed by a pool of persistent threads (spawning threads per
//! operator application would dominate the sub-millisecond kernel times the
//! strong-scaling experiments target).
//!
//! Panic discipline: a panic in the loop body is caught on whichever thread
//! it strikes, every task still gets drained, all workers still report
//! completion, and the first panic is re-raised on the caller thread after
//! the join barrier. The barrier is unconditional — the borrowed closure's
//! lifetime is erased below, so `run` must never unwind past a worker that
//! could still call it.
//!
//! With `--features check-disjoint`, every [`SharedMut`-style] write
//! performed inside a run is recorded per thread and the join barrier
//! asserts pairwise disjointness of the per-thread write sets (see
//! [`crate::race`]): a purpose-built race detector for the conflict-colored
//! assembly loops.
//!
//! Tracing: each worker records a fine-grained `pool.job` span per job
//! (its busy interval within a run), the caller records a coarse
//! `pool.run` span, and the join barrier drains every thread's span ring
//! into the process collector — the natural quiescent point, so rings
//! never need to hold more than one run. The caller samples the tracing
//! level once per run into `Job::traced`; workers never read the shared
//! level flag on their dispatch path. All of it is compiled out under
//! `--cfg dgcheck_model`: the model checker schedules the shim primitives
//! cooperatively and must not block on the tracer's real locks.

use dgflow_check::sync::atomic::{AtomicUsize, Ordering};
use dgflow_check::sync::{Condvar, Mutex};
use dgflow_check::{channel, thread};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, OnceLock};

#[cfg(feature = "check-disjoint")]
use crate::race;

/// First panic payload of a run, re-raised on the caller thread.
type PanicSlot = Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>;

struct Job {
    /// Borrowed closure with its lifetime erased; validity is guaranteed
    /// because `ThreadPool::run` blocks until every worker reports done.
    func: &'static (dyn Fn(usize) + Sync),
    n_tasks: usize,
    /// Fine tracing was enabled when the job was dispatched. The caller
    /// samples the level once per run so the workers never touch the
    /// shared level flag on their dispatch hot path — with many workers
    /// waking at once, even that read-only load is measurable on small
    /// runs.
    traced: bool,
    counter: Arc<AtomicUsize>,
    done: Arc<(Mutex<usize>, Condvar)>,
    panic_slot: PanicSlot,
    #[cfg(feature = "check-disjoint")]
    recorder: Arc<race::RunRecorder>,
}

/// A persistent pool of worker threads executing indexed task batches.
pub struct ThreadPool {
    senders: Vec<channel::Sender<Job>>,
}

impl ThreadPool {
    /// Spawn a pool with `n_threads` workers (in addition to the caller,
    /// which participates in every run).
    pub fn new(n_workers: usize) -> Self {
        let mut senders = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let (tx, rx) = channel::unbounded::<Job>();
            senders.push(tx);
            thread::spawn(move || {
                #[cfg(not(dgcheck_model))]
                dgflow_trace::set_thread_track_name(&format!("pool-{w}"));
                #[cfg(dgcheck_model)]
                let _ = w;
                while let Ok(job) = rx.recv() {
                    // The job span must close before the done count below:
                    // the caller drains the span rings right after the join
                    // barrier, and an in-flight span would miss that drain.
                    #[cfg(not(dgcheck_model))]
                    let job_span = job.traced.then(|| {
                        dgflow_trace::span_fine("pool", "pool.job").meta(job.n_tasks as u64)
                    });
                    #[cfg(dgcheck_model)]
                    let _ = job.traced;
                    #[cfg(feature = "check-disjoint")]
                    race::enter_run(&job.recorder);
                    // Catch panics so a poisoned task can neither abort the
                    // process from a worker nor leave `run` waiting forever
                    // on the completion count.
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                        // ordering: Relaxed — the counter only claims task
                        // indices; the data written by each task is published
                        // to the caller by the `done` mutex, not the counter.
                        let i = job.counter.fetch_add(1, Ordering::Relaxed);
                        if i >= job.n_tasks {
                            break;
                        }
                        (job.func)(i);
                    }));
                    #[cfg(feature = "check-disjoint")]
                    race::exit_run();
                    #[cfg(not(dgcheck_model))]
                    drop(job_span);
                    if let Err(payload) = result {
                        let mut slot = job.panic_slot.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    let (lock, cv) = &*job.done;
                    let mut finished = lock.lock();
                    *finished += 1;
                    cv.notify_all();
                }
            });
        }
        Self { senders }
    }

    /// The process-wide pool, sized to the available parallelism minus one
    /// (the caller thread works too). Override with `DGFLOW_THREADS`.
    pub fn global() -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let n = std::env::var("DGFLOW_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            ThreadPool::new(n.saturating_sub(1))
        })
    }

    /// Number of threads that execute a run (workers + caller).
    pub fn n_threads(&self) -> usize {
        self.senders.len() + 1
    }

    /// Execute `f(task)` for every `task in 0..n_tasks`, distributing tasks
    /// dynamically over all threads. Blocks until every task has finished.
    ///
    /// If any task panics, the remaining tasks still run, every thread
    /// joins, and the first panic is then re-raised on the caller thread.
    pub fn run(&self, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        // Small runs: not worth waking the pool. Single-threaded, so no
        // lifetime erasure and no disjointness question.
        if self.senders.is_empty() || n_tasks == 1 {
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        // SAFETY: the erased borrow is only reachable through `Job`s owned
        // by the worker loop, and `run` reaches the join barrier below on
        // every path — including a panicking caller task, which is caught
        // and only re-raised after all workers reported done — so no worker
        // can observe `f` after `run` returns or unwinds.
        let func: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        #[cfg(not(dgcheck_model))]
        let traced = dgflow_trace::enabled(dgflow_trace::Level::Fine);
        #[cfg(dgcheck_model)]
        let traced = false;
        #[cfg(not(dgcheck_model))]
        let _run_span = dgflow_trace::span("pool", "pool.run").meta(n_tasks as u64);
        let counter = Arc::new(AtomicUsize::new(0));
        let done = Arc::new((Mutex::new(0usize), Condvar::new()));
        let panic_slot: PanicSlot = Arc::new(Mutex::new(None));
        #[cfg(feature = "check-disjoint")]
        let recorder = race::RunRecorder::new();
        for s in &self.senders {
            s.send(Job {
                func,
                n_tasks,
                traced,
                counter: counter.clone(),
                done: done.clone(),
                panic_slot: panic_slot.clone(),
                #[cfg(feature = "check-disjoint")]
                recorder: recorder.clone(),
            })
            .expect("worker thread died");
        }
        // caller participates
        #[cfg(feature = "check-disjoint")]
        race::enter_run(&recorder);
        let caller_result = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            // ordering: Relaxed — same as the worker loop: pure index
            // claiming, synchronization happens via the join barrier.
            let i = counter.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            f(i);
        }));
        #[cfg(feature = "check-disjoint")]
        race::exit_run();
        // Unconditional join barrier (see SAFETY above).
        {
            let (lock, cv) = &*done;
            let mut finished = lock.lock();
            while *finished < self.senders.len() {
                cv.wait(&mut finished);
            }
        }
        // Every worker is idle past the barrier: a quiescent point, so the
        // caller can drain all span rings into the process collector.
        #[cfg(not(dgcheck_model))]
        if dgflow_trace::level() != dgflow_trace::Level::Off {
            dgflow_trace::collect();
        }
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        let worker_panic = panic_slot.lock().take();
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
        // Only a clean run is checked: after a panic the write logs are
        // partial and the panic itself is the signal.
        #[cfg(feature = "check-disjoint")]
        recorder.check();
    }
}

/// Parallel loop over `0..n_items` in chunks of at least `min_chunk`,
/// executed on the global pool. `f` receives a half-open index range.
pub fn parallel_for_chunks(
    n_items: usize,
    min_chunk: usize,
    f: impl Fn(std::ops::Range<usize>) + Sync,
) {
    let pool = ThreadPool::global();
    let chunk = chunk_len(pool, n_items, min_chunk);
    let n_chunks = n_items.div_ceil(chunk);
    pool.run(n_chunks, &|c| {
        let lo = c * chunk;
        let hi = ((c + 1) * chunk).min(n_items);
        f(lo..hi);
    });
}

/// Parallel grain of the loops around the operators (vector passes, and
/// the multigrid transfers' cell and per-dof sweeps): the fewest entries,
/// or fine-cell DoFs, one pool task gets, so short loops stay on the
/// calling thread. Measured on a 2-vCPU host with the f32 k = 3
/// bifurcation and lung hierarchies: the transfers were fastest at
/// 4096–16,384 and lost 20–30 % on their largest levels at 2¹⁷, while
/// the smoother's vector passes were flat to within 3 % from 4096 up to
/// running serially.
pub const PAR_GRAIN: usize = 1 << 14;

/// Chunk length of a parallel loop: about four chunks per thread, never
/// fewer than `min_chunk` items.
fn chunk_len(pool: &ThreadPool, n_items: usize, min_chunk: usize) -> usize {
    let target_chunks = pool.n_threads() * 4;
    (n_items.div_ceil(target_chunks)).max(min_chunk.max(1))
}

/// Elementwise parallel pass over `N` equally long mutable slices on the
/// global pool: the index range is cut into contiguous chunks of at least
/// `min_chunk` items (as in [`parallel_for_chunks`]) and `f(offset, parts)`
/// receives the matching sub-slices of every slice, `offset` being the
/// global index of their first element. Every element belongs to exactly
/// one chunk, so an elementwise update gives the same bits for any thread
/// count; a range that fits in one chunk runs inline on the caller.
pub fn parallel_chunks_mut<T: Send, const N: usize>(
    slices: [&mut [T]; N],
    min_chunk: usize,
    f: impl Fn(usize, [&mut [T]; N]) + Sync,
) {
    let n_items = slices.first().map_or(0, |s| s.len());
    assert!(
        slices.iter().all(|s| s.len() == n_items),
        "parallel_chunks_mut: slice lengths differ"
    );
    let pool = ThreadPool::global();
    let chunk = chunk_len(pool, n_items, min_chunk);
    if n_items <= chunk {
        f(0, slices);
        return;
    }
    // Hand each task its own sub-slices; the uncontended lock only moves
    // them out of the shared list.
    let mut parts = Vec::with_capacity(n_items.div_ceil(chunk));
    let mut rest = slices.map(Some);
    for lo in (0..n_items).step_by(chunk) {
        let len = chunk.min(n_items - lo);
        let head: [&mut [T]; N] = std::array::from_fn(|i| {
            let (head, tail) = rest[i].take().expect("slice present").split_at_mut(len);
            rest[i] = Some(tail);
            head
        });
        parts.push(Mutex::new(Some(head)));
    }
    pool.run(parts.len(), &|c| {
        let part = parts[c].lock().take().expect("chunk taken once");
        f(c * chunk, part);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_every_task_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable() {
        let pool = ThreadPool::new(2);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(64, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * (63 * 64 / 2));
    }

    #[test]
    fn zero_workers_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let mut touched = vec![false; 10];
        let cells = std::sync::Mutex::new(&mut touched);
        pool.run(10, &|i| {
            cells.lock().unwrap()[i] = true;
        });
        assert!(touched.iter().all(|&t| t));
    }

    #[test]
    fn parallel_for_chunks_covers_range_disjointly() {
        let n = 12345;
        let data: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_chunks(n, 16, |range| {
            for i in range {
                data[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(data.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_chunks_mut_visits_every_element_once_at_its_offset() {
        for n in [0, 1, 17, 1000, 12345] {
            let mut a = vec![0usize; n];
            let mut b = vec![0usize; n];
            parallel_chunks_mut([&mut a, &mut b], 64, |off, [a, b]| {
                for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                    *x += off + i;
                    *y += 1;
                }
            });
            assert!(a.iter().enumerate().all(|(i, &x)| x == i), "n = {n}");
            assert!(b.iter().all(|&y| y == 1), "n = {n}");
        }
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let v: Vec<f64> = (0..100_000).map(|i| f64::from(i % 97)).collect();
        let total = AtomicU64::new(0);
        parallel_for_chunks(v.len(), 1024, |range| {
            let s: f64 = v[range].iter().sum();
            total.fetch_add(s as u64, Ordering::Relaxed);
        });
        let serial: f64 = v.iter().sum();
        assert_eq!(total.load(Ordering::Relaxed), serial as u64);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = ThreadPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                assert!(i != 17, "task 17 poisoned");
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task 17 poisoned"), "got: {msg}");
    }

    #[test]
    fn pool_survives_a_panicked_run() {
        let pool = ThreadPool::new(2);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|_| panic!("every task dies"));
        }));
        // all workers drained the poisoned job and accept new work
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn all_nonpanicking_tasks_still_run() {
        let pool = ThreadPool::new(2);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                assert!(i != 5, "task 5 poisoned");
            });
        }));
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "task {i} must run exactly once"
            );
        }
    }
}
