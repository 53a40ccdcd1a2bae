//! Deliberately-broken twins of the concurrency protocols used by
//! `comm`/`runtime`, written directly against the model primitives so
//! they run in every build (no `--cfg dgcheck_model` needed). Each
//! broken twin seeds a classic bug — dropped `notify_one`, skipped
//! completion count, cancel-without-close, non-atomic two-field update —
//! and its `should_panic` test proves the checker actually finds that
//! class of bug; the paired correct version proves the checker does not
//! cry wolf.

use std::sync::Arc;

use dgflow_check::model::atomic::{AtomicBool, AtomicUsize, Ordering};
use dgflow_check::model::channel;
use dgflow_check::model::sync::{Barrier, Condvar, Mutex};
use dgflow_check::model::thread;
use dgflow_check::model::Checker;

/// Fewer random fallbacks keep the `should_panic` tests fast; every
/// seeded bug here is found well inside the DFS phase anyway.
fn checker() -> Checker {
    Checker::new().max_schedules(20_000).random_schedules(50)
}

// ── sanity: racy increments are explored and mutexes serialize them ─────

#[test]
fn mutex_counter_is_exhaustively_verified() {
    let report = checker().check(|| {
        let m = Arc::new(Mutex::new(0_u32));
        let m2 = m.clone();
        let h = thread::spawn(move || *m2.lock() += 1);
        *m.lock() += 1;
        h.join().unwrap();
        assert_eq!(*m.lock(), 2);
    });
    assert!(
        report.exhausted,
        "mutex counter model should be exhaustible"
    );
    assert!(report.schedules > 1, "there must be real branch points");
}

#[test]
#[should_panic(expected = "lost update")]
fn unsynchronized_counter_twin_is_caught() {
    // load-then-store without synchronization: the checker must find the
    // interleaving where one increment overwrites the other
    checker().check(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let h = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        h.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
    });
}

// ── property 1 twin: bounded-channel-style lost wakeup ──────────────────

/// The `BoundedQueue` wakeup protocol in miniature: a consumer parks on a
/// condvar until `ready`, a producer sets `ready` and notifies.
fn flag_handshake(notify: bool) {
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let p2 = pair.clone();
    let h = thread::spawn(move || {
        let (lock, cv) = &*p2;
        let mut ready = lock.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
    });
    {
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        if notify {
            cv.notify_one();
        }
    }
    h.join().unwrap();
}

#[test]
fn condvar_handshake_has_no_lost_wakeup() {
    let report = checker().check(|| flag_handshake(true));
    assert!(report.exhausted);
}

#[test]
#[should_panic(expected = "deadlock detected")]
fn dropped_notify_twin_is_caught() {
    checker().check(|| flag_handshake(false));
}

// ── property 2 twin: join barrier must count panicked workers ───────────

/// `ThreadPool::run`'s completion protocol in miniature: the caller waits
/// until every worker has bumped `finished`. The real pool bumps the
/// count *unconditionally*, even when the task panicked (it runs after
/// `catch_unwind`); the broken twin skips the bump on the panic path.
fn join_barrier(count_on_panic: bool, task_panics: bool) {
    let done = Arc::new((Mutex::new(0_usize), Condvar::new()));
    let d2 = done.clone();
    let h = thread::spawn(move || {
        let panicked = std::panic::catch_unwind(|| {
            assert!(!task_panics, "task failed");
        })
        .is_err();
        if !panicked || count_on_panic {
            let (lock, cv) = &*d2;
            *lock.lock() += 1;
            cv.notify_all();
        }
    });
    {
        let (lock, cv) = &*done;
        let mut finished = lock.lock();
        while *finished < 1 {
            cv.wait(&mut finished);
        }
    }
    h.join().unwrap();
}

#[test]
fn join_barrier_terminates_when_worker_panics() {
    let report = checker().check(|| join_barrier(true, true));
    assert!(report.exhausted);
}

#[test]
#[should_panic(expected = "deadlock detected")]
fn join_barrier_twin_skipping_panicked_workers_is_caught() {
    checker().check(|| join_barrier(false, true));
}

// ── property 3 twin: cancellation must close the queue, not just flag ───

/// The scheduler-cancellation protocol in miniature: a consumer parks
/// until an item arrives or the queue closes; cancellation must `close`
/// (wake parked consumers), not merely set the cancel flag.
fn cancel_protocol(close_on_cancel: bool) {
    let state = Arc::new((Mutex::new((0_usize, false)), Condvar::new()));
    let cancel = Arc::new(AtomicBool::new(false));
    let (s2, c2) = (state.clone(), cancel.clone());
    let consumer = thread::spawn(move || {
        let (lock, cv) = &*s2;
        let mut st = lock.lock();
        // (items, closed): park while there is nothing to do
        while st.0 == 0 && !st.1 {
            cv.wait(&mut st);
        }
    });
    cancel.store(true, Ordering::SeqCst);
    if close_on_cancel {
        let (lock, cv) = &*state;
        lock.lock().1 = true;
        cv.notify_all();
    }
    assert!(c2.load(Ordering::SeqCst));
    consumer.join().unwrap();
}

#[test]
fn cancellation_with_close_cannot_deadlock() {
    let report = checker().check(|| cancel_protocol(true));
    assert!(report.exhausted);
}

#[test]
#[should_panic(expected = "deadlock detected")]
fn cancel_without_close_twin_is_caught() {
    checker().check(|| cancel_protocol(false));
}

// ── property 4 twin: torn two-field state ───────────────────────────────

/// A recorder that maintains `entries` and `bytes` as two separate
/// fields. Guarded by one mutex they change together; the twin updates
/// them through two independent atomics and a reader can observe the torn
/// intermediate state.
#[test]
fn mutex_guarded_pair_is_never_torn() {
    let report = checker().check(|| {
        let pair = Arc::new(Mutex::new((0_usize, 0_usize)));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
            let mut g = p2.lock();
            g.0 += 1;
            g.1 += 1;
        });
        let (a, b) = *pair.lock();
        assert_eq!(a, b, "torn recorder state");
        h.join().unwrap();
    });
    assert!(report.exhausted);
}

#[test]
#[should_panic(expected = "torn recorder state")]
fn split_atomic_pair_twin_is_caught() {
    checker().check(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        let (a2, b2) = (a.clone(), b.clone());
        let h = thread::spawn(move || {
            a2.fetch_add(1, Ordering::SeqCst);
            b2.fetch_add(1, Ordering::SeqCst);
        });
        let seen_a = a.load(Ordering::SeqCst);
        let seen_b = b.load(Ordering::SeqCst);
        assert_eq!(seen_a, seen_b, "torn recorder state");
        h.join().unwrap();
    });
}

// ── model channel + barrier sanity ──────────────────────────────────────

#[test]
fn channel_delivers_every_message_exactly_once() {
    let report = checker().check(|| {
        let (tx, rx) = channel::channel::<u32>();
        let tx2 = tx.clone();
        let h1 = thread::spawn(move || tx.send(1).unwrap());
        let h2 = thread::spawn(move || tx2.send(2).unwrap());
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert_eq!(a + b, 3, "each message delivered exactly once");
        h1.join().unwrap();
        h2.join().unwrap();
    });
    assert!(report.schedules > 1);
}

#[test]
fn channel_disconnect_unparks_receiver() {
    let report = checker().check(|| {
        let (tx, rx) = channel::channel::<u32>();
        let h = thread::spawn(move || drop(tx));
        assert!(rx.recv().is_err());
        h.join().unwrap();
    });
    assert!(report.exhausted);
}

#[test]
fn barrier_releases_all_participants() {
    let report = checker().check(|| {
        let bar = Arc::new(Barrier::new(2));
        let b2 = bar.clone();
        let h = thread::spawn(move || b2.wait().is_leader());
        let mine = bar.wait().is_leader();
        let theirs = h.join().unwrap();
        assert!(mine != theirs, "exactly one leader per generation");
    });
    assert!(report.exhausted);
}
