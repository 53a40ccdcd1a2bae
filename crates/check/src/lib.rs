//! `dgflow-check` — `dgcheck`, a deterministic concurrency model checker
//! for the hand-rolled comm/runtime primitives, plus the *shim seam*
//! those primitives are written against.
//!
//! # The seam
//!
//! Concurrency kernels import their synchronization types from here
//! instead of from `std` directly:
//!
//! ```ignore
//! use dgflow_check::sync::{Condvar, Mutex};
//! use dgflow_check::sync::atomic::{AtomicUsize, Ordering};
//! use dgflow_check::channel;
//! use dgflow_check::thread;
//! ```
//!
//! In a normal build these modules re-export `std`: `channel` is
//! `std::sync::mpsc`, `thread` and the barrier and atomics are
//! `std::thread`/`std::sync`, and `Mutex`/`Condvar` are a thin
//! non-poisoning facade over `std::sync` (`lock()` returns the guard,
//! `Condvar::wait` takes `&mut guard`) so both builds share one
//! signature. Under `--cfg dgcheck_model` (what `cargo xtask model`
//! sets) they resolve to the model primitives in [`model`], whose every
//! operation is a scheduler switch point, and the kernels become
//! model-checkable without source changes.
//!
//! # Writing a model test
//!
//! ```
//! use dgflow_check::model::{self, Checker};
//! use std::sync::Arc;
//!
//! let report = Checker::new().check(|| {
//!     let m = Arc::new(model::sync::Mutex::new(0_u32));
//!     let m2 = m.clone();
//!     let h = model::thread::spawn(move || *m2.lock() += 1);
//!     *m.lock() += 1;
//!     h.join().unwrap();
//!     assert_eq!(*m.lock(), 2);
//! });
//! assert!(report.exhausted);
//! ```
//!
//! The closure runs once per schedule; assertions and deadlocks on any
//! schedule panic on the caller with a replayable trace. Use the
//! [`model`] types directly (as above) for tests that must run in every
//! build; kernel tests that exercise the real `comm`/`runtime` types
//! through the seam only make sense under `--cfg dgcheck_model` and are
//! gated accordingly.

#[cfg(not(dgcheck_model))]
mod facade;
pub mod model;

/// Mutexes, condvars, barriers, and atomics (pass-through in normal
/// builds, model primitives under `--cfg dgcheck_model`).
#[cfg(not(dgcheck_model))]
pub mod sync {
    pub use crate::facade::{Condvar, Mutex, MutexGuard};
    pub use std::sync::{Barrier, BarrierWaitResult};

    /// Atomic types with explicit orderings.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    }
}

/// Mutexes, condvars, barriers, and atomics (pass-through in normal
/// builds, model primitives under `--cfg dgcheck_model`).
#[cfg(dgcheck_model)]
pub mod sync {
    pub use crate::model::sync::{Barrier, BarrierWaitResult, Condvar, Mutex, MutexGuard};

    /// Atomic types with explicit orderings.
    pub mod atomic {
        pub use crate::model::atomic::{AtomicBool, AtomicUsize, Ordering};
    }
}

/// Unbounded FIFO channel (`std::sync::mpsc` in normal builds, model
/// channel under `--cfg dgcheck_model`).
#[cfg(not(dgcheck_model))]
pub mod channel {
    pub use std::sync::mpsc::{channel, Receiver, Sender};
}

/// Unbounded FIFO channel (`std::sync::mpsc` in normal builds, model
/// channel under `--cfg dgcheck_model`).
#[cfg(dgcheck_model)]
pub mod channel {
    pub use crate::model::channel::{channel, Receiver, Sender};
}

/// Thread spawn/join/yield (std pass-through in normal builds, model
/// threads under `--cfg dgcheck_model`).
#[cfg(not(dgcheck_model))]
pub mod thread {
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

/// Thread spawn/join/yield (std pass-through in normal builds, model
/// threads under `--cfg dgcheck_model`).
#[cfg(dgcheck_model)]
pub mod thread {
    pub use crate::model::thread::{spawn, yield_now, JoinHandle};
}
