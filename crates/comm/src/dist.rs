//! Partitioned vectors with ghost exchange — the distributed-vector layer
//! the paper gets from deal.II's `LinearAlgebra::distributed::Vector`.
//!
//! Each rank owns a contiguous index range (the Morton partition produces
//! contiguous chunks); values needed from other ranks are appended as ghost
//! entries after the owned block. [`GhostPattern::update`] performs the
//! nearest-neighbor exchange with non-blocking sends, mirroring the
//! overlap-friendly communication structure of Sec. 3.2.
//!
//! The ghost update is split into `start`/`finish` halves so callers can
//! overlap interior compute with the halo transfer (the paper's scaling
//! lever): [`GhostPattern::start_update`] posts the eager sends and
//! returns a [`HaloUpdate`] epoch guard; the caller sweeps cells that
//! touch no ghost data; [`GhostPattern::finish_update`] then blocks only
//! on whatever has not yet arrived. The guard is backed by the
//! [`crate::nb::ExchangeState`] state machine, so misuse (finish before
//! start, double finish, dropping an in-flight epoch) panics with a
//! diagnostic instead of silently corrupting ghost values. The reverse
//! [`GhostPattern::compress_add`] is blocking: nothing is left to overlap
//! it with once the operator's sweeps are done.

use crate::comm::Communicator;
use crate::nb::ExchangeState;

/// Tag of the owner→ghost direction ([`GhostPattern::update`]).
const TAG_UPDATE: u64 = 0xD06;
/// Tag of the ghost→owner direction ([`GhostPattern::compress_add`]).
const TAG_COMPRESS: u64 = 0xADD;

/// Communication pattern of one partitioned vector layout.
#[derive(Clone, Debug, Default)]
pub struct GhostPattern {
    /// `(neighbor rank, local owned indices to pack and send)`.
    pub send: Vec<(usize, Vec<usize>)>,
    /// `(neighbor rank, number of ghost values received)`; ghosts are stored
    /// in this order directly after the owned block.
    pub recv: Vec<(usize, usize)>,
}

impl GhostPattern {
    /// Total number of ghost entries.
    pub fn n_ghosts(&self) -> usize {
        self.recv.iter().map(|&(_, n)| n).sum()
    }

    /// Exchange ghost values: after return, `v[n_owned..]` holds the ghost
    /// values in `recv` order.
    pub fn update(&self, comm: &dyn Communicator, v: &mut [f64], n_owned: usize) {
        let epoch = self.start_update(comm, v, n_owned);
        self.finish_update(comm, v, n_owned, epoch);
    }

    /// Post the send half of a ghost update (eager, returns immediately)
    /// and open the epoch. Interior compute — anything not reading
    /// `v[n_owned..]` — may run before the matching
    /// [`GhostPattern::finish_update`].
    #[must_use = "an exchange epoch must be finished; dropping it mid-flight panics"]
    pub fn start_update(&self, comm: &dyn Communicator, v: &[f64], n_owned: usize) -> HaloUpdate {
        debug_assert_eq!(v.len(), n_owned + self.n_ghosts());
        let _sp = dgflow_trace::span("comm", "comm.send");
        let mut state = ExchangeState::default();
        state.start();
        let sends = self
            .send
            .iter()
            .map(|(dest, idx)| {
                (
                    *dest,
                    TAG_UPDATE,
                    idx.iter().map(|&i| v[i]).collect::<Vec<f64>>(),
                )
            })
            .collect();
        comm.start_exchange(sends);
        HaloUpdate { state }
    }

    /// Block until every ghost message of the epoch has arrived and fill
    /// `v[n_owned..]` in `recv` order.
    pub fn finish_update(
        &self,
        comm: &dyn Communicator,
        v: &mut [f64],
        n_owned: usize,
        mut epoch: HaloUpdate,
    ) {
        debug_assert_eq!(v.len(), n_owned + self.n_ghosts());
        let _sp = dgflow_trace::span("comm", "comm.recv_wait");
        epoch.state.finish();
        let recvs: Vec<(usize, u64)> = self
            .recv
            .iter()
            .map(|&(src, _)| (src, TAG_UPDATE))
            .collect();
        let bufs = comm.finish_exchange(&recvs);
        let mut offset = n_owned;
        for (&(src, n), buf) in self.recv.iter().zip(bufs) {
            assert_eq!(buf.len(), n, "ghost message length mismatch from {src}");
            v[offset..offset + n].copy_from_slice(&buf);
            offset += n;
        }
    }

    /// The transpose operation (`compress add` in deal.II terms): ghost
    /// entries accumulated locally are sent back and *added* to the owners'
    /// values, then the ghost block is zeroed.
    pub fn compress_add(&self, comm: &dyn Communicator, v: &mut [f64], n_owned: usize) {
        debug_assert_eq!(v.len(), n_owned + self.n_ghosts());
        {
            // ship the ghost segments back to their owners, zero them here
            let _sp = dgflow_trace::span("comm", "comm.send");
            let mut offset = n_owned;
            let mut sends = Vec::with_capacity(self.recv.len());
            for &(dest, n) in &self.recv {
                sends.push((dest, TAG_COMPRESS, v[offset..offset + n].to_vec()));
                for g in &mut v[offset..offset + n] {
                    *g = 0.0;
                }
                offset += n;
            }
            comm.start_exchange(sends);
        }
        // add the peers' contributions into the owned entries in `send`
        let _sp = dgflow_trace::span("comm", "comm.recv_wait");
        let recvs: Vec<(usize, u64)> = self
            .send
            .iter()
            .map(|&(src, _)| (src, TAG_COMPRESS))
            .collect();
        let bufs = comm.finish_exchange(&recvs);
        for ((src, idx), buf) in self.send.iter().zip(bufs) {
            assert_eq!(
                buf.len(),
                idx.len(),
                "compress message length mismatch from {src}"
            );
            for (k, &i) in idx.iter().enumerate() {
                v[i] += buf[k];
            }
        }
    }
}

/// Epoch guard of an in-flight ghost update (owner→ghost direction).
/// Returned by [`GhostPattern::start_update`]; must be handed to
/// [`GhostPattern::finish_update`]. Dropping it with the epoch still open
/// panics — an abandoned exchange leaves ghost values stale and the
/// peers' matching receives would consume the wrong message next epoch.
#[derive(Debug)]
pub struct HaloUpdate {
    state: ExchangeState,
}

impl Drop for HaloUpdate {
    fn drop(&mut self) {
        if self.state.is_started() && !std::thread::panicking() {
            panic!(
                "a started ghost-update epoch was dropped without finish_update — \
                 every start_update must be matched by exactly one finish_update \
                 on the same pattern"
            );
        }
    }
}

/// Global dot product of owned parts.
pub fn dist_dot(comm: &dyn Communicator, a: &[f64], b: &[f64], n_owned: usize) -> f64 {
    let local: f64 = a[..n_owned]
        .iter()
        .zip(&b[..n_owned])
        .map(|(x, y)| x * y)
        .sum();
    comm.allreduce_sum(local)
}

/// Global ℓ₂ norm of the owned part.
pub fn dist_norm(comm: &dyn Communicator, a: &[f64], n_owned: usize) -> f64 {
    dist_dot(comm, a, a, n_owned).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ThreadComm;

    /// 1-D chain partitioned into equal blocks; each rank ghosts the last
    /// entry of the left neighbor and the first entry of the right neighbor.
    fn chain_pattern(rank: usize, size: usize, n_local: usize) -> GhostPattern {
        let mut send = Vec::new();
        let mut recv = Vec::new();
        if rank > 0 {
            send.push((rank - 1, vec![0]));
            recv.push((rank - 1, 1));
        }
        if rank + 1 < size {
            send.push((rank + 1, vec![n_local - 1]));
            recv.push((rank + 1, 1));
        }
        send.iter_mut().for_each(|_| {});
        let _ = n_local;
        GhostPattern { send, recv }
    }

    #[test]
    fn ghost_update_transfers_boundary_values() {
        let n_local = 4;
        ThreadComm::run(3, |comm| {
            let pat = chain_pattern(comm.rank(), comm.size(), n_local);
            let mut v = vec![0.0; n_local + pat.n_ghosts()];
            for i in 0..n_local {
                v[i] = (comm.rank() * n_local + i) as f64;
            }
            pat.update(comm, &mut v, n_local);
            let mut g = n_local;
            if comm.rank() > 0 {
                // ghost from left neighbor = its last entry
                assert_eq!(v[g], (comm.rank() * n_local - 1) as f64);
                g += 1;
            }
            if comm.rank() + 1 < comm.size() {
                assert_eq!(v[g], ((comm.rank() + 1) * n_local) as f64);
            }
        });
    }

    #[test]
    fn compress_add_accumulates_into_owner() {
        let n_local = 4;
        ThreadComm::run(3, |comm| {
            let pat = chain_pattern(comm.rank(), comm.size(), n_local);
            let mut v = vec![0.0; n_local + pat.n_ghosts()];
            // write 1.0 into every ghost slot
            for g in v[n_local..].iter_mut() {
                *g = 1.0;
            }
            pat.compress_add(comm, &mut v, n_local);
            // interior boundary entries got +1 from each adjacent rank
            let expect_first = if comm.rank() > 0 { 1.0 } else { 0.0 };
            let expect_last = if comm.rank() + 1 < comm.size() {
                1.0
            } else {
                0.0
            };
            assert_eq!(v[0], expect_first);
            assert_eq!(v[n_local - 1], expect_last);
            // ghosts zeroed
            assert!(v[n_local..].iter().all(|&g| g == 0.0));
        });
    }

    #[test]
    fn distributed_dot_and_norm() {
        ThreadComm::run(4, |comm| {
            let a = vec![1.0; 5];
            let b = vec![2.0; 5];
            let d = dist_dot(comm, &a, &b, 5);
            assert_eq!(d, 4.0 * 5.0 * 2.0);
            assert!((dist_norm(comm, &a, 5) - (20.0f64).sqrt()).abs() < 1e-14);
        });
    }

    /// Distributed conjugate gradients on the 1-D Poisson matrix
    /// (tridiagonal [-1, 2, -1]) — an end-to-end check that ghost exchange,
    /// reductions and the SPMD structure compose into a correct solver, and
    /// that the result is independent of the rank count.
    #[test]
    fn distributed_cg_rank_count_invariance() {
        let n_global = 64;
        let solve = |size: usize| -> Vec<f64> {
            let mut gathered = vec![0.0; n_global];
            let parts = ThreadComm::run(size, |comm| {
                let n_local = n_global / comm.size();
                let lo = comm.rank() * n_local;
                let pat = chain_pattern(comm.rank(), comm.size(), n_local);
                let nw = n_local + pat.n_ghosts();
                // matrix-vector: y = A x with ghosts for off-rank entries
                let matvec = |x: &mut Vec<f64>, comm: &ThreadComm| -> Vec<f64> {
                    pat.update(comm, x, n_local);
                    let left = |x: &Vec<f64>, i: usize| {
                        if i > 0 {
                            x[i - 1]
                        } else if comm.rank() > 0 {
                            x[n_local] // first ghost = left neighbor
                        } else {
                            0.0
                        }
                    };
                    let right = |x: &Vec<f64>, i: usize| {
                        if i + 1 < n_local {
                            x[i + 1]
                        } else if comm.rank() + 1 < comm.size() {
                            x[nw - 1] // last ghost = right neighbor
                        } else {
                            0.0
                        }
                    };
                    (0..n_local)
                        .map(|i| 2.0 * x[i] - left(x, i) - right(x, i))
                        .collect()
                };
                let b: Vec<f64> = (0..n_local).map(|i| ((lo + i) % 5) as f64).collect();
                let mut x = vec![0.0; nw];
                let mut r = b.clone();
                let mut p = vec![0.0; nw];
                p[..n_local].copy_from_slice(&r);
                let mut rr = dist_dot(comm, &r, &r, n_local);
                for _ in 0..200 {
                    let ap = matvec(&mut p, comm);
                    let pap = dist_dot(comm, &p, &ap, n_local);
                    let alpha = rr / pap;
                    for i in 0..n_local {
                        x[i] += alpha * p[i];
                        r[i] -= alpha * ap[i];
                    }
                    let rr_new = dist_dot(comm, &r, &r, n_local);
                    if rr_new.sqrt() < 1e-12 {
                        break;
                    }
                    let beta = rr_new / rr;
                    rr = rr_new;
                    for i in 0..n_local {
                        p[i] = r[i] + beta * p[i];
                    }
                }
                (lo, x[..n_local].to_vec())
            });
            for (lo, part) in parts {
                gathered[lo..lo + part.len()].copy_from_slice(&part);
            }
            gathered
        };
        let serial = solve(1);
        for ranks in [2, 4, 8] {
            let par = solve(ranks);
            for i in 0..n_global {
                assert!(
                    (par[i] - serial[i]).abs() < 1e-9,
                    "rank-count dependence at {i}: {} vs {}",
                    par[i],
                    serial[i]
                );
            }
        }
    }

    #[test]
    fn split_update_matches_blocking_update() {
        let n_local = 6;
        ThreadComm::run(4, |comm| {
            let pat = chain_pattern(comm.rank(), comm.size(), n_local);
            let fill = |v: &mut [f64]| {
                for (i, x) in v[..n_local].iter_mut().enumerate() {
                    *x = (comm.rank() * 100 + i) as f64;
                }
            };
            let mut blocking = vec![0.0; n_local + pat.n_ghosts()];
            fill(&mut blocking);
            pat.update(comm, &mut blocking, n_local);
            let mut split = vec![0.0; n_local + pat.n_ghosts()];
            fill(&mut split);
            let epoch = pat.start_update(comm, &split, n_local);
            // "interior compute" window: touch only owned entries
            let checksum: f64 = split[..n_local].iter().sum();
            pat.finish_update(comm, &mut split, n_local, epoch);
            assert!(checksum.is_finite());
            assert_eq!(split, blocking);
        });
    }

    #[test]
    #[should_panic(expected = "dropped without finish_update")]
    fn dropping_started_epoch_panics() {
        ThreadComm::run(2, |comm| {
            let pat = chain_pattern(comm.rank(), comm.size(), 3);
            let v = vec![0.0; 3 + pat.n_ghosts()];
            let epoch = pat.start_update(comm, &v, 3);
            // receive so the peer's finish doesn't dangle, then abandon
            // the epoch without finishing it
            drop(epoch);
        });
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random partitions of a global vector round-trip
        /// the split `start_update`/`finish_update` path and `compress_add`:
        /// after an update every ghost mirrors its owner, and a compress
        /// of ghost increments accumulates exactly once into each owner.
        #[test]
        fn random_partitions_round_trip_split_exchange(
            size in 2usize..5,
            n_local in 2usize..10,
            seed in any::<u64>(),
        ) {
            // every rank ghosts one pseudo-random owned entry of every
            // other rank (deterministic from the shared seed, so the
            // send/recv patterns of all ranks agree)
            let pick = |owner: usize, wanter: usize| -> usize {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((owner * 31 + wanter * 7) as u64);
                (h >> 33) as usize % n_local
            };
            let results = ThreadComm::run(size, |comm| {
                let me = comm.rank();
                let mut send = Vec::new();
                let mut recv = Vec::new();
                for other in 0..size {
                    if other == me {
                        continue;
                    }
                    send.push((other, vec![pick(me, other)]));
                    recv.push((other, 1));
                }
                let pat = GhostPattern { send, recv };
                let nw = n_local + pat.n_ghosts();
                let mut v = vec![0.0; nw];
                for i in 0..n_local {
                    v[i] = (me * n_local + i) as f64;
                }
                let epoch = pat.start_update(comm, &v, n_local);
                pat.finish_update(comm, &mut v, n_local, epoch);
                // each ghost must mirror the picked entry of its owner
                let mut ok = true;
                for (g, &(owner, _)) in pat.recv.iter().enumerate() {
                    let expect = (owner * n_local + pick(owner, me)) as f64;
                    ok &= v[n_local + g] == expect;
                }
                // now add 1 to every ghost and compress it back
                for g in v[n_local..].iter_mut() {
                    *g += 1.0;
                }
                pat.compress_add(comm, &mut v, n_local);
                ok &= v[n_local..].iter().all(|&g| g == 0.0);
                // each owned entry gained (old value + 1) per wanter
                for i in 0..n_local {
                    let base = (me * n_local + i) as f64;
                    let wanters = (0..size)
                        .filter(|&w| w != me && pick(me, w) == i)
                        .count() as f64;
                    ok &= v[i] == base + wanters * (base + 1.0);
                }
                ok
            });
            prop_assert!(results.iter().all(|&ok| ok), "round trip mismatch");
        }
    }
}
