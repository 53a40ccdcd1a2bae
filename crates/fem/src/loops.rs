//! The matrix-free loop: the one place that walks the cell batches and
//! face colors of a [`MatrixFree`] context, after deal.II's
//! `MatrixFree::loop` (Kronbichler & Kormann, TOMS 2019). An operator
//! hands over a cell kernel and a face kernel, each with the factory of
//! the scratch it runs in; the loop owns the rest: zeroing `dst` in one
//! parallel pass, the threading, the conflict-free schedule, the scratch
//! and the operator's trace span.
//!
//! Disjointness contract. Kernels write `dst` through the [`SharedMut`]
//! they are handed, and the loop runs them concurrently only on batches
//! that touch disjoint entries of `dst`:
//! - [`MatrixFree::loop_over`]: every cell batch at once (a cell lies in
//!   one batch, so a cell kernel may write the entries of its own cells),
//!   then one face color at a time (batches of a color share no cell).
//! - [`MatrixFree::loop_over_groups`]: one group at a time (the caller
//!   passes groups whose batches share no written entry, e.g. the
//!   dof-disjoint `CgSpace::cell_colors`), then the face batches serially.
//!
//! Each pass ends at a pool barrier, so the cell pass completes before
//! any face kernel runs, and the colors run in their stored order: every
//! entry of `dst` receives its contributions in a fixed order whatever
//! the thread count. With `--features check-disjoint` every access goes
//! through the pool's race recorder.

use crate::matrixfree::MatrixFree;
use crate::util::SharedMut;
use dgflow_comm::{parallel_chunks_mut, parallel_for_chunks, PAR_GRAIN};
use dgflow_simd::Real;
use std::sync::Mutex;

/// The trace span a loop opens around its whole call: the name (category
/// `fem`) and the modeled Flop of one pass, for the roofline tag.
pub type LoopSpan = Option<(&'static str, f64)>;

/// Scratch sets recycled across the pool tasks of one loop call: a task
/// takes a set, runs its chunk and puts the set back, so a call builds
/// at most one set per concurrently running task.
struct ScratchPool<S, M> {
    free: Mutex<Vec<S>>,
    make: M,
}

impl<S: Send, M: Fn() -> S + Sync> ScratchPool<S, M> {
    fn new(make: M) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            make,
        }
    }

    fn with(&self, f: impl FnOnce(&mut S)) {
        let taken = self.free.lock().expect("scratch pool poisoned").pop();
        let mut s = taken.unwrap_or_else(&self.make);
        f(&mut s);
        self.free.lock().expect("scratch pool poisoned").push(s);
    }

    /// Run `kernel` on the batches `batch(0..n)` on the pool.
    fn sweep(
        &self,
        n: usize,
        batch: impl Fn(usize) -> usize + Sync,
        kernel: impl Fn(usize, &mut S) + Sync,
    ) {
        parallel_for_chunks(n, 1, |range| {
            self.with(|s| {
                for k in range {
                    kernel(batch(k), s);
                }
            });
        });
    }
}

/// Open the span, zero `dst` in one parallel pass and wrap it for the
/// kernels.
fn start<T: Real>(span: LoopSpan, dst: &mut [T]) -> (Option<dgflow_trace::Span>, SharedMut<T>) {
    let span = span.map(|(name, flops)| dgflow_trace::span("fem", name).work(flops));
    parallel_chunks_mut([&mut *dst], PAR_GRAIN, |_, [d]| d.fill(T::ZERO));
    (span, SharedMut::new(dst))
}

impl<T: Real, const L: usize> MatrixFree<T, L> {
    /// `dst = 0`, then the cell kernel on every cell batch, then the face
    /// kernel on every face batch, one face color at a time (see the
    /// module docs for what the kernels may write). Each kernel comes as
    /// `(scratch factory, kernel)`; the kernel gets the batch index, a
    /// scratch set and the shared destination.
    pub fn loop_over<C: Send, F: Send>(
        &self,
        span: LoopSpan,
        dst: &mut [T],
        (cell_scratch, cell): (
            impl Fn() -> C + Sync,
            impl Fn(usize, &mut C, &SharedMut<T>) + Sync,
        ),
        (face_scratch, face): (
            impl Fn() -> F + Sync,
            impl Fn(usize, &mut F, &SharedMut<T>) + Sync,
        ),
    ) {
        let (_span, out) = start(span, dst);
        let cells = ScratchPool::new(cell_scratch);
        cells.sweep(self.cell_batches.len(), |k| k, |bi, s| cell(bi, s, &out));
        let faces = ScratchPool::new(face_scratch);
        for color in &self.face_colors {
            faces.sweep(color.len(), |k| color[k], |bi, s| face(bi, s, &out));
        }
    }

    /// The cell-group form: `dst = 0`, then the cell kernel on the cell
    /// batches of `groups`, one group at a time, then the face kernel on
    /// every face batch serially, in batch order.
    pub fn loop_over_groups<C: Send, F>(
        &self,
        span: LoopSpan,
        dst: &mut [T],
        groups: &[Vec<usize>],
        (cell_scratch, cell): (
            impl Fn() -> C + Sync,
            impl Fn(usize, &mut C, &SharedMut<T>) + Sync,
        ),
        (face_scratch, mut face): (impl FnOnce() -> F, impl FnMut(usize, &mut F, &SharedMut<T>)),
    ) {
        let (_span, out) = start(span, dst);
        let cells = ScratchPool::new(cell_scratch);
        for group in groups {
            cells.sweep(group.len(), |k| group[k], |bi, s| cell(bi, s, &out));
        }
        let mut s = face_scratch();
        for bi in 0..self.face_batches.len() {
            face(bi, &mut s, &out);
        }
    }
}
