//! Message-passing abstraction: the MPI substitute.
//!
//! A [`Communicator`] exposes the operations the solver actually uses —
//! point-to-point sends of floating-point buffers (ghost exchange) and the
//! global reductions of the Krylov solvers. [`SelfComm`] is the trivial
//! single-rank implementation; [`ThreadComm`] runs an SPMD program on `n`
//! in-process ranks backed by `std::sync::mpsc` channels, preserving the
//! semantics (per-pair ordering, tag matching, collective synchronization)
//! that the paper's pure-MPI parallelization relies on.

use dgflow_check::channel::{channel, Receiver, Sender};
use dgflow_check::sync::{Barrier, Mutex};
use std::sync::Arc;

/// The message-passing interface used by distributed vectors and solvers.
pub trait Communicator: Send + Sync {
    /// This process's rank in `0..size()`.
    fn rank(&self) -> usize;
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Send a buffer to `dest` with a matching `tag` (non-blocking buffered
    /// semantics, like `MPI_Isend` into an eager buffer).
    fn send_f64(&self, dest: usize, tag: u64, data: Vec<f64>);
    /// Receive the next buffer from `src`; panics on tag mismatch (per-pair
    /// ordering makes tags a pure consistency check, as in MPI with a
    /// deterministic communication schedule).
    fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64>;
    /// Post the send side of a neighbor-exchange epoch and return
    /// immediately: the compute/communication overlap window opens here.
    /// Eager buffered like `send_f64` — completion never depends on the
    /// peers posting receives. Identical semantics on every backend
    /// (in-process channels for [`ThreadComm`], socket + reader-thread
    /// progression for `ProcessComm`).
    fn start_exchange(&self, sends: Vec<(usize, u64, Vec<f64>)>) {
        for (dest, tag, data) in sends {
            self.send_f64(dest, tag, data);
        }
    }
    /// Complete the receive side of an epoch opened by
    /// [`Communicator::start_exchange`]: blocks until every listed
    /// message has arrived, returning the buffers in `recvs` order.
    fn finish_exchange(&self, recvs: &[(usize, u64)]) -> Vec<Vec<f64>> {
        recvs
            .iter()
            .map(|&(src, tag)| self.recv_f64(src, tag))
            .collect()
    }
    /// Global sum.
    fn allreduce_sum(&self, x: f64) -> f64;
    /// Global max.
    fn allreduce_max(&self, x: f64) -> f64;
    /// Synchronization point.
    fn barrier(&self);
}

/// Single-rank communicator.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfComm;

impl Communicator for SelfComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        1
    }
    fn send_f64(&self, dest: usize, tag: u64, _data: Vec<f64>) {
        panic!(
            "SelfComm cannot send (to rank {dest}, tag {tag:#x}): no other ranks exist. \
             This usually means a neighbor-exchange loop ran without a `comm.size() == 1` \
             guard — skip the exchange on a single rank, or check that the GhostPattern \
             is empty before exchanging"
        );
    }
    fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        panic!(
            "SelfComm cannot receive (from rank {src}, tag {tag:#x}): no other ranks exist. \
             This usually means a neighbor-exchange loop ran without a `comm.size() == 1` \
             guard — skip the exchange on a single rank, or check that the GhostPattern \
             is empty before exchanging"
        );
    }
    fn allreduce_sum(&self, x: f64) -> f64 {
        x
    }
    fn allreduce_max(&self, x: f64) -> f64 {
        x
    }
    fn barrier(&self) {}
}

struct Shared {
    barrier: Barrier,
    /// scratch for reductions; one slot per rank
    slots: Mutex<Vec<f64>>,
}

/// A tagged point-to-point message: `(tag, payload)`.
type Msg = (u64, Vec<f64>);

/// One rank of an in-process SPMD group.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// senders[d]: channel to rank d
    senders: Vec<Sender<Msg>>,
    /// receivers[s]: channel from rank s (locked, since `std::sync::mpsc`
    /// receivers are not `Sync`; only this rank ever takes the lock)
    receivers: Vec<Mutex<Receiver<Msg>>>,
    shared: Arc<Shared>,
}

impl ThreadComm {
    /// Run `f` on `size` ranks, each on its own thread, and return the
    /// per-rank results in rank order.
    pub fn run<R: Send>(size: usize, f: impl Fn(&ThreadComm) -> R + Sync) -> Vec<R> {
        assert!(size >= 1);
        // channel matrix: channels[s][d] carries messages from s to d
        let mut txs: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(size);
        let mut rxs: Vec<Vec<Option<Receiver<Msg>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for s in 0..size {
            let mut row = Vec::with_capacity(size);
            for d in 0..size {
                let (tx, rx) = channel();
                row.push(tx);
                rxs[d][s] = Some(rx);
            }
            txs.push(row);
        }
        let shared = Arc::new(Shared {
            barrier: Barrier::new(size),
            slots: Mutex::new(vec![0.0; size]),
        });
        let mut comms: Vec<ThreadComm> = Vec::with_capacity(size);
        for (rank, row) in txs.into_iter().enumerate() {
            comms.push(ThreadComm {
                rank,
                size,
                senders: row,
                receivers: rxs[rank]
                    .iter_mut()
                    .map(|r| Mutex::new(r.take().expect("receiver set")))
                    .collect(),
                shared: shared.clone(),
            });
        }
        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in comms.iter().skip(1) {
                let f = &f;
                handles.push(scope.spawn(move || f(comm)));
            }
            results[0] = Some(f(&comms[0]));
            for (r, h) in handles.into_iter().enumerate() {
                results[r + 1] = Some(h.join().expect("rank thread panicked"));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }
    fn size(&self) -> usize {
        self.size
    }
    fn send_f64(&self, dest: usize, tag: u64, data: Vec<f64>) {
        self.senders[dest]
            .send((tag, data))
            .expect("destination rank dropped its communicator");
    }
    fn recv_f64(&self, src: usize, tag: u64) -> Vec<f64> {
        let rx = self.receivers[src].lock();
        let (t, data) = rx.recv().expect("source rank dropped its communicator");
        if t != tag {
            // drain-count the rest of the queue: we are panicking anyway,
            // and the depth tells apart "sender ran ahead" (deep queue)
            // from "schedules diverged" (shallow)
            let mut depth = 0usize;
            while rx.try_recv().is_ok() {
                depth += 1;
            }
            panic!(
                "rank {} receiving from rank {src}: tag mismatch: expected {tag:#x}, \
                 got {t:#x} ({depth} more message(s) queued from that rank) — the \
                 communication schedules of the two ranks have diverged",
                self.rank
            );
        }
        data
    }
    fn allreduce_sum(&self, x: f64) -> f64 {
        self.reduce(x, |slots| slots.iter().sum())
    }
    fn allreduce_max(&self, x: f64) -> f64 {
        self.reduce(x, |slots| {
            slots.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        })
    }
    fn barrier(&self) {
        self.shared.barrier.wait();
    }
}

impl ThreadComm {
    fn reduce(&self, x: f64, combine: impl Fn(&[f64]) -> f64) -> f64 {
        self.shared.slots.lock()[self.rank] = x;
        self.shared.barrier.wait();
        let result = combine(&self.shared.slots.lock());
        // second barrier so nobody overwrites the slots of an in-flight
        // reduction
        self.shared.barrier.wait();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_comm_reductions_are_identity() {
        let c = SelfComm;
        assert_eq!(c.allreduce_sum(3.5), 3.5);
        assert_eq!(c.allreduce_max(-1.0), -1.0);
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn ring_exchange() {
        let sums = ThreadComm::run(4, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send_f64(next, 7, vec![comm.rank() as f64; 3]);
            let got = comm.recv_f64(prev, 7);
            assert_eq!(got.len(), 3);
            got[0]
        });
        assert_eq!(sums, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let out = ThreadComm::run(5, |comm| {
            let s = comm.allreduce_sum(comm.rank() as f64);
            let m = comm.allreduce_max(-(comm.rank() as f64));
            (s, m)
        });
        for (s, m) in out {
            assert_eq!(s, 10.0);
            assert_eq!(m, 0.0);
        }
    }

    #[test]
    fn repeated_reductions_do_not_race() {
        let out = ThreadComm::run(3, |comm| {
            let mut total = 0.0;
            for i in 0..100 {
                total += comm.allreduce_sum((comm.rank() * i) as f64);
            }
            total
        });
        let expect: f64 = (0..100).map(|i| 3.0 * f64::from(i)).sum();
        for t in out {
            assert_eq!(t, expect);
        }
    }

    #[test]
    #[should_panic(expected = "tag mismatch")]
    fn tag_mismatch_is_detected() {
        // rank 0 runs on the calling thread, so its panic propagates with
        // the original message
        ThreadComm::run(2, |comm| {
            if comm.rank() == 1 {
                comm.send_f64(0, 1, vec![1.0]);
            } else {
                let _ = comm.recv_f64(1, 2);
            }
        });
    }
}
