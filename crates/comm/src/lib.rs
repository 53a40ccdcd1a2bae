//! Parallel substrates: the MPI substitute and shared-memory threading.
//!
//! Two layers, mirroring the paper's parallelization (Sec. 3.2):
//!
//! * [`comm`] — a [`Communicator`] trait with in-process SPMD ranks
//!   ([`ThreadComm`]) over crossbeam channels: point-to-point buffers with
//!   tag checking, reductions, barriers. [`proc`] adds genuine OS-process
//!   ranks over Unix-domain sockets ([`ProcessComm`]), launched as an SPMD
//!   group by [`spmd`]; [`nb`] holds the nonblocking-exchange substrate
//!   (ordered inboxes, epoch state machine) shared by both. [`dist`]
//!   builds partitioned vectors with nearest-neighbor ghost exchange —
//!   blocking or split start/finish for compute/comm overlap — on top.
//! * [`par`] — a persistent-thread `parallel_for` used by the matrix-free
//!   cell/face loops within one address space.
//!
//! [`cancel`] adds the cooperative shutdown flag long-running drivers
//! (campaign schedulers, time steppers) poll at their safe stopping
//! points.

pub mod cancel;
pub mod comm;
pub mod dist;
pub mod nb;
pub mod par;
pub mod proc;
#[cfg(feature = "check-disjoint")]
pub mod race;
pub mod spmd;

pub use cancel::CancelToken;
pub use comm::{Communicator, SelfComm, ThreadComm};
pub use dist::{dist_dot, dist_norm, GhostPattern};
pub use par::{parallel_chunks_mut, parallel_for_chunks, ThreadPool, PAR_GRAIN};
pub use proc::ProcessComm;
pub use spmd::SpmdCommand;
