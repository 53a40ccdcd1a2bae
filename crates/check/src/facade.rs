//! The seam's normal-build `Mutex`/`Condvar`: a non-poisoning facade over
//! `std::sync`. `lock()` returns the guard directly and `Condvar::wait`
//! takes `&mut guard`, the signatures the model primitives in
//! [`crate::model::sync`] share, so kernel code compiles unchanged in
//! both builds. Poison is ignored: a panicked holder does not poison the
//! lock for later ones.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual exclusion primitive (non-poisoning facade over `std::sync::Mutex`).
#[derive(Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait`] can take it
/// for the duration of the wait (std's condvar consumes the guard).
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

/// A condition variable whose `wait` takes the guard by `&mut`.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guarded mutex and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present before wait");
        guard.inner = Some(
            self.inner
                .wait(std_guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let r = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g += 1;
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(r.is_err());
        *m.lock() += 1;
        assert_eq!(Arc::try_unwrap(m).ok().unwrap().into_inner(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*p2;
            let mut started = lock.lock();
            while !*started {
                cv.wait(&mut started);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
