//! Small utilities for the parallel loops.

/// A raw slice handle that may be shared across the threads of a
/// `parallel_for`, under the caller-checked invariant that a slot written
/// by one thread during a run is touched by no other thread — neither
/// written nor read (cell loops write per-cell blocks; face loops are
/// conflict-colored). Slots nobody writes may be read freely from any
/// number of threads ([`read`](Self::read)).
///
/// The handle carries the slice length: every access is bounds-checked in
/// debug builds, so an out-of-range index panics instead of corrupting
/// memory. With `--features check-disjoint`, each access is additionally
/// recorded into the owning pool run's per-thread access log and the join
/// barrier asserts the invariant — flagging both write-write overlaps and
/// cross-thread read-write conflicts; see `dgflow_comm::race`. Release
/// builds without the feature compile both checks away.
#[derive(Clone, Copy)]
pub struct SharedMut<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: SharedMut is a shared write handle by design; it is only ever
// dereferenced inside `unsafe` calls whose contract demands in-bounds,
// non-overlapping access, so sending the raw pointer between the pool
// threads is sound whenever T itself may move between threads.
unsafe impl<T: Send> Send for SharedMut<T> {}
// SAFETY: as above — &SharedMut only permits writes through the documented
// disjointness contract, never unsynchronized shared reads of the same slot.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Wrap a slice for disjoint parallel writes.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Length of the wrapped slice.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn check(&self, idx: usize) {
        debug_assert!(
            idx < self.len,
            "SharedMut: index {idx} out of bounds (len {})",
            self.len
        );
        #[cfg(feature = "check-disjoint")]
        dgflow_comm::race::record(self.ptr as usize, idx);
    }

    #[inline(always)]
    fn check_read(&self, idx: usize) {
        debug_assert!(
            idx < self.len,
            "SharedMut: index {idx} out of bounds (len {})",
            self.len
        );
        #[cfg(feature = "check-disjoint")]
        dgflow_comm::race::record_read(self.ptr as usize, idx);
    }

    /// Write `value` at `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds and not concurrently accessed by any other
    /// thread for the duration of the surrounding pool run.
    #[inline(always)]
    pub unsafe fn write(&self, idx: usize, value: T) {
        self.check(idx);
        // SAFETY: `idx < len` (debug-asserted above, contractual in
        // release) and the caller guarantees exclusive access to this slot.
        unsafe { *self.ptr.add(idx) = value }
    }

    /// Get a mutable reference at `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds and not concurrently accessed by any other
    /// thread; the returned borrow must end before any other access to the
    /// same slot.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn at(&self, idx: usize) -> &mut T {
        self.check(idx);
        // SAFETY: in-bounds per above; exclusivity of the borrow is the
        // caller's contract (disjoint index sets across threads).
        unsafe { &mut *self.ptr.add(idx) }
    }

    /// Get a shared reference at `idx` (a gather from a slot this thread
    /// does not own). Concurrent reads of the same slot are fine; reading
    /// a slot some *other* thread writes during the same run is a race,
    /// and is what `check-disjoint` flags as a read-write conflict.
    ///
    /// # Safety
    /// `idx` must be in bounds and the slot must not be written by any
    /// other thread while the returned borrow lives.
    #[inline(always)]
    pub unsafe fn read(&self, idx: usize) -> &T {
        self.check_read(idx);
        // SAFETY: in-bounds per above; absence of a concurrent writer is
        // the caller's contract (ownership coloring across threads).
        unsafe { &*self.ptr.add(idx) }
    }
}

/// Batch grain of the parallel set-up loops (metric terms, CG node
/// positions, CG diagonals): the fewest cell or face batches one pool task
/// gets, so the small meshes of tests and coarse levels stay on the
/// calling thread.
pub(crate) const SETUP_GRAIN: usize = 16;

/// `(0..n).map(|i| f(&mut scratch, i))` on the global pool, in chunks of at
/// least [`SETUP_GRAIN`] items with one `scratch()` per chunk. Each item is
/// computed on its own, so the result does not depend on the thread count
/// or the chunking.
pub(crate) fn par_map<S, R: Send>(
    n: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    dgflow_comm::parallel_chunks_mut([&mut out], SETUP_GRAIN, |offset, [part]| {
        let mut s = scratch();
        for (i, o) in part.iter_mut().enumerate() {
            *o = Some(f(&mut s, offset + i));
        }
    });
    out.into_iter()
        .map(|o| o.expect("every item is mapped"))
        .collect()
}

/// The multiply-rotate hash of rustc (`FxHasher`) for small integer keys:
/// a few cycles per word where the default SipHash spends tens, and
/// unseeded, so a map keyed by it iterates in the same order in every run.
#[derive(Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0; 8];
            w[..word.len()].copy_from_slice(word);
            let v = u64::from_le_bytes(w);
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub(crate) type IntMap<K, V> =
    std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes_land() {
        let mut v = vec![0usize; 1000];
        let p = SharedMut::new(&mut v);
        dgflow_comm::parallel_for_chunks(1000, 16, |range| {
            for i in range {
                // SAFETY: chunks partition 0..1000, so writes are disjoint
                unsafe { p.write(i, i * 2) };
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    /// The aliasing pattern `scatter_add` relies on: repeated short-lived
    /// `&mut` borrows of the same destination slots from one thread, with
    /// reads of the surrounding slice in between. Exercised single-threaded
    /// so miri can validate the borrow discipline exactly.
    #[test]
    fn scatter_add_style_accumulation_is_miri_clean() {
        let mut dst = vec![0.0f64; 8];
        let p = SharedMut::new(&mut dst);
        // constrained dof 7 receives contributions from every "cell", like
        // a hanging-node master accumulating from several slaves
        for cell in 0..4 {
            for i in 0..2 {
                // SAFETY: single-threaded; each borrow ends at the statement
                unsafe { *p.at(2 * cell + i) += 1.0 };
                // SAFETY: as above — overlapping target, sequential access
                unsafe { *p.at(7) += 0.25 };
            }
        }
        assert_eq!(dst[7], 0.25 * 8.0 + 1.0);
        assert!(dst[..6].iter().all(|&x| x == 1.0));
    }

    #[test]
    fn len_is_carried() {
        let mut v = vec![0u32; 17];
        let p = SharedMut::new(&mut v);
        assert_eq!(p.len(), 17);
        assert!(!p.is_empty());
        let mut empty: Vec<u32> = Vec::new();
        assert!(SharedMut::new(&mut empty).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check_fires() {
        let mut v = vec![0u8; 4];
        let p = SharedMut::new(&mut v);
        // SAFETY: deliberately out of bounds to observe the debug assert;
        // the write is never reached
        unsafe { p.write(4, 1) };
    }

    /// The race the `check-disjoint` feature exists to catch: two pool
    /// threads write the same index. A `Barrier` forces both threads to
    /// take one task each, so the overlap is cross-thread deterministically.
    #[test]
    #[cfg(feature = "check-disjoint")]
    #[should_panic(expected = "overlapping parallel writes")]
    fn overlapping_writes_panic_deterministically() {
        let pool = dgflow_comm::ThreadPool::new(1); // worker + caller
        let mut v = vec![0usize; 64];
        let p = SharedMut::new(&mut v);
        let rendezvous = std::sync::Barrier::new(2);
        pool.run(2, &|task| {
            rendezvous.wait(); // both tasks now on distinct threads
                               // SAFETY: in bounds; the deliberate cross-thread overlap on
                               // index 0 is the behavior under test
            unsafe { p.write(0, task + 1) };
        });
    }

    /// A gather racing a scatter: one thread reads the slot another is
    /// writing. Write-sets alone are disjoint — only read recording
    /// catches this.
    #[test]
    #[cfg(feature = "check-disjoint")]
    #[should_panic(expected = "read-write conflict")]
    fn cross_thread_read_of_written_slot_panics() {
        let pool = dgflow_comm::ThreadPool::new(1); // worker + caller
        let mut v = vec![0usize; 64];
        let p = SharedMut::new(&mut v);
        let rendezvous = std::sync::Barrier::new(2);
        pool.run(2, &|task| {
            rendezvous.wait(); // both tasks now on distinct threads
            if task == 0 {
                // SAFETY: in bounds; the deliberate read of a slot task 1
                // writes is the behavior under test
                let _ = unsafe { *p.read(7) };
            } else {
                // SAFETY: in bounds; see above
                unsafe { p.write(7, 1) };
            }
        });
    }

    /// Concurrent reads of slots nobody writes must stay silent: the
    /// gather side of every cell loop does exactly this.
    #[test]
    #[cfg(feature = "check-disjoint")]
    fn shared_reads_pass_under_detector() {
        let pool = dgflow_comm::ThreadPool::new(1);
        let mut v = vec![7usize; 64];
        let p = SharedMut::new(&mut v);
        let rendezvous = std::sync::Barrier::new(2);
        pool.run(2, &|task| {
            rendezvous.wait();
            // SAFETY: slot 3 is read by both tasks and written by neither;
            // each task writes only its own slot
            let x = unsafe { *p.read(3) };
            // SAFETY: tasks write disjoint slots 0 and 1
            unsafe { p.write(task, x) };
        });
    }

    /// Same loop shape as above but disjoint targets: the detector must
    /// stay silent on a correctly colored loop.
    #[test]
    #[cfg(feature = "check-disjoint")]
    fn disjoint_writes_pass_under_detector() {
        let pool = dgflow_comm::ThreadPool::new(1);
        let mut v = vec![0usize; 64];
        let p = SharedMut::new(&mut v);
        let rendezvous = std::sync::Barrier::new(2);
        pool.run(2, &|task| {
            rendezvous.wait();
            for i in 0..32 {
                // SAFETY: task 0 writes 0..32, task 1 writes 32..64
                unsafe { p.write(32 * task + i, task) };
            }
        });
    }
}
