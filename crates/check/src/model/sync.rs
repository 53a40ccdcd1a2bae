//! Model `Mutex`, `Condvar`, and `Barrier` — API-compatible with the
//! seam's normal-build facade (`lock()` returns a guard, `Condvar::wait`
//! takes `&mut guard`) and `std::sync::Barrier`, but with every acquire,
//! release, wait, and notify routed through the [`Controller`] so the
//! scheduler sees (and can reorder around) each of them.
//!
//! Because only one model thread runs between two switch points,
//! multi-step protocols that must be atomic — register as a condvar
//! waiter, release the mutex, and park — are implemented as plain
//! sequential code with no intervening switch, which is exactly the
//! atomicity real condvars guarantee.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex as StdMutex, PoisonError};

use super::{current, Controller};
use std::sync::Arc;

fn meta_lock<T: ?Sized>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct MutexMeta {
    locked: bool,
    waiters: Vec<usize>,
}

/// A model mutex. Lock/unlock are switch points; contention parks the
/// thread on the scheduler, and unlock wakes every waiter (they re-race
/// for the lock, so the checker explores all handoff orders).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    meta: StdMutex<MutexMeta>,
    data: UnsafeCell<T>,
}

// SAFETY: the scheduler guarantees at most one thread holds the logical
// lock at a time (see `raw_lock`), so `&mut T` handed out through the
// guard is exclusive; this mirrors the Send/Sync bounds of std's Mutex.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — shared access only ever yields the data through the
// single outstanding guard.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    /// Guards are pinned to the acquiring model thread.
    _not_send: PhantomData<*const ()>,
}

impl<T> Mutex<T> {
    /// Create a new model mutex.
    pub const fn new(value: T) -> Self {
        Self {
            meta: StdMutex::new(MutexMeta {
                locked: false,
                waiters: Vec::new(),
            }),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex (a switch point; parks while contended).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (ctl, me) = current();
        ctl.switch(me, "Mutex::lock");
        self.raw_lock(&ctl, me);
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Acquire the logical lock without a leading switch point. Used by
    /// `lock` (after its switch) and by `Condvar::wait` to re-acquire.
    fn raw_lock(&self, ctl: &Arc<Controller>, me: usize) {
        loop {
            {
                let mut meta = meta_lock(&self.meta);
                if !meta.locked {
                    meta.locked = true;
                    return;
                }
                if ctl.teardown_unwind() {
                    // best-effort during teardown: steal the lock rather
                    // than block a panicking thread forever
                    meta.locked = true;
                    return;
                }
                meta.waiters.push(me);
            }
            ctl.block(me, "Mutex::lock (contended)");
        }
    }

    /// Release the logical lock and wake all waiters, with no switch
    /// point (callers decide whether a switch follows).
    fn raw_unlock(&self, ctl: &Arc<Controller>) {
        let waiters = {
            let mut meta = meta_lock(&self.meta);
            meta.locked = false;
            std::mem::take(&mut meta.waiters)
        };
        for w in waiters {
            ctl.make_runnable(w);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this guard holds the logical lock, so access is
        // exclusive for its lifetime (enforced by the scheduler).
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the logical lock is held.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        let (ctl, me) = current();
        self.mutex.raw_unlock(&ctl);
        if !std::thread::panicking() {
            // releasing a lock is a visible operation other threads can
            // react to — give the scheduler a branch point
            ctl.switch(me, "Mutex::unlock");
        }
    }
}

/// A model condition variable (FIFO wakeups, no spurious wakeups — if a
/// property only holds because of a `while` re-check loop, pair it with a
/// broken twin rather than relying on spuriousness).
#[derive(Debug, Default)]
pub struct Condvar {
    waiters: StdMutex<Vec<usize>>,
}

impl Condvar {
    /// Create a new model condvar.
    pub const fn new() -> Self {
        Self {
            waiters: StdMutex::new(Vec::new()),
        }
    }

    /// Atomically release the guarded mutex and park until notified;
    /// re-acquires the mutex before returning.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        let (ctl, me) = current();
        if ctl.teardown_unwind() {
            return;
        }
        ctl.switch(me, "Condvar::wait (enter)");
        // Register + release with no switch in between: a concurrent
        // notify cannot slip into the gap, matching real condvars.
        meta_lock(&self.waiters).push(me);
        guard.mutex.raw_unlock(&ctl);
        ctl.block(me, "Condvar::wait (parked)");
        guard.mutex.raw_lock(&ctl, me);
    }

    /// Wake the longest-parked waiter, if any (a switch point).
    pub fn notify_one(&self) {
        let (ctl, me) = current();
        if ctl.teardown_unwind() {
            return;
        }
        ctl.switch(me, "Condvar::notify_one");
        let woken = {
            let mut w = meta_lock(&self.waiters);
            if w.is_empty() {
                None
            } else {
                Some(w.remove(0))
            }
        };
        if let Some(t) = woken {
            ctl.make_runnable(t);
        }
    }

    /// Wake every parked waiter (a switch point).
    pub fn notify_all(&self) {
        let (ctl, me) = current();
        if ctl.teardown_unwind() {
            return;
        }
        ctl.switch(me, "Condvar::notify_all");
        let woken = std::mem::take(&mut *meta_lock(&self.waiters));
        for t in woken {
            ctl.make_runnable(t);
        }
    }
}

#[derive(Debug)]
struct BarrierMeta {
    arrived: usize,
    waiting: Vec<usize>,
}

/// A model barrier, API-compatible with `std::sync::Barrier`.
#[derive(Debug)]
pub struct Barrier {
    n: usize,
    meta: StdMutex<BarrierMeta>,
}

/// Result of [`Barrier::wait`]: exactly one participant per generation is
/// the leader.
#[derive(Debug, Clone, Copy)]
pub struct BarrierWaitResult(bool);

impl BarrierWaitResult {
    /// Did this thread complete the barrier?
    pub fn is_leader(&self) -> bool {
        self.0
    }
}

impl Barrier {
    /// A barrier for `n` threads (`0` behaves like `1`, as in std).
    pub const fn new(n: usize) -> Self {
        Self {
            n: if n == 0 { 1 } else { n },
            meta: StdMutex::new(BarrierMeta {
                arrived: 0,
                waiting: Vec::new(),
            }),
        }
    }

    /// Park until `n` threads have arrived; the last arrival releases the
    /// generation and is its leader.
    pub fn wait(&self) -> BarrierWaitResult {
        let (ctl, me) = current();
        ctl.switch(me, "Barrier::wait");
        let is_leader = {
            let mut meta = meta_lock(&self.meta);
            meta.arrived += 1;
            if meta.arrived == self.n {
                meta.arrived = 0;
                let waiting = std::mem::take(&mut meta.waiting);
                drop(meta);
                for t in waiting {
                    ctl.make_runnable(t);
                }
                true
            } else {
                meta.waiting.push(me);
                drop(meta);
                ctl.block(me, "Barrier::wait (parked)");
                false
            }
        };
        BarrierWaitResult(is_leader)
    }
}
