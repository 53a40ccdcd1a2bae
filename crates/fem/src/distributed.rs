//! Distributed-memory SPMD evaluation of the SIPG Laplacian — the MPI
//! parallelization of Sec. 3.2 over any [`Communicator`]: `ThreadComm`
//! ranks in one process, `ProcessComm` ranks as OS processes over
//! sockets, or `SelfComm` on one rank.
//!
//! The active cells are partitioned into contiguous Morton ranges (one per
//! rank). Each rank evaluates the cell integrals of its own cells and the
//! face integrals of the faces whose *minus* cell it owns; values of
//! remote neighbor cells arrive through a nearest-neighbor ghost exchange
//! before the loops, and plus-side contributions to remote cells are
//! returned by an accumulating reverse exchange afterwards — exactly the
//! `update_ghost_values` / `compress(add)` pattern of the paper's
//! deal.II-based implementation.
//!
//! Every rank builds the setup data (`MatrixFree`, partitions, plans)
//! redundantly and deterministically; all *solution data* flows through
//! messages only. The batches run the serial operator's own kernels and
//! the evaluator's gather/scatter: [`OverlapPlan`] maps each lane to its
//! rank-local slot once, so a distributed sweep differs from the serial
//! loop only in the index tables it passes. [`DistributedLaplace`] wraps
//! the application as a [`LinearOperator`] over owned-length vectors,
//! which the solvers' `cg_solve_on` runs as it runs a serial operator.

use crate::evaluator::{gather_face_cells, scatter_add_face_cells, CellScratch, FaceScratch};
use crate::matrixfree::MatrixFree;
use crate::operators::laplace::LaplaceOperator;
use crate::util::SharedMut;
use dgflow_comm::{Communicator, GhostPattern};
use dgflow_mesh::Forest;
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;
use std::sync::Mutex;
use std::time::Instant;

/// The per-rank partition layout of a DG vector.
#[derive(Clone, Debug)]
pub struct Partition {
    /// This rank.
    pub rank: usize,
    /// Owned cell range (contiguous in SFC order).
    pub own_cells: std::ops::Range<usize>,
    /// Ghost cells in receive order: ascending, which groups them by
    /// owner rank. Their local slots follow the owned cells.
    pub ghost_cells: Vec<usize>,
    /// The ghost-exchange pattern (indices in *local DoF* space).
    pub pattern: GhostPattern,
    /// Scalar DoFs per cell.
    pub dpc: usize,
}

impl Partition {
    /// Owned DoF count.
    pub fn n_owned(&self) -> usize {
        self.own_cells.len() * self.dpc
    }

    /// Total local DoFs (owned + ghost).
    pub fn n_local(&self) -> usize {
        (self.own_cells.len() + self.ghost_cells.len()) * self.dpc
    }

    /// Local slot of a global cell, if present on this rank.
    pub fn slot(&self, cell: usize) -> Option<usize> {
        if self.own_cells.contains(&cell) {
            Some(cell - self.own_cells.start)
        } else {
            let g = self.ghost_cells.binary_search(&cell).ok()?;
            Some(self.own_cells.len() + g)
        }
    }
}

/// Build the partitions of all ranks (setup is computed redundantly and
/// deterministically, like a static repartitioning step).
pub fn build_partitions<T: Real, const L: usize>(
    forest: &Forest,
    mf: &MatrixFree<T, L>,
    n_ranks: usize,
) -> Vec<Partition> {
    let dpc = mf.dofs_per_cell;
    let owner = dgflow_mesh::morton_partition(forest, n_ranks);
    let range_of = |r: usize| -> std::ops::Range<usize> {
        let lo = owner.partition_point(|&o| o < r);
        let hi = owner.partition_point(|&o| o <= r);
        lo..hi
    };
    // ghost sets: cells referenced by a rank's compute but owned elsewhere
    let mut ghosts: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n_ranks];
    // (a) straddling cell batches: lanes outside the own range
    for b in &mf.cell_batches {
        let ranks_in_batch: std::collections::BTreeSet<usize> = (0..b.n_filled)
            .map(|l| owner[b.cells[l] as usize])
            .collect();
        if ranks_in_batch.len() > 1 {
            for &r in &ranks_in_batch {
                for l in 0..b.n_filled {
                    let c = b.cells[l] as usize;
                    if owner[c] != r {
                        ghosts[r].insert(c);
                    }
                }
            }
        }
    }
    // (b) plus cells of faces computed by the minus owner
    for f in &mf.faces {
        if let Some(p) = f.plus {
            let rm = owner[f.minus as usize];
            let rp = owner[p as usize];
            if rm != rp {
                ghosts[rm].insert(p as usize);
            }
        }
    }
    // assemble partitions with symmetric send/recv lists
    let mut parts: Vec<Partition> = (0..n_ranks)
        .map(|r| Partition {
            rank: r,
            own_cells: range_of(r),
            ghost_cells: ghosts[r].iter().copied().collect(),
            pattern: GhostPattern::default(),
            dpc,
        })
        .collect();
    for r in 0..n_ranks {
        // receives: ghost cells grouped by owner
        let mut recv: Vec<(usize, usize)> = Vec::new();
        for &g in &parts[r].ghost_cells {
            let o = owner[g];
            match recv.last_mut() {
                Some((rank, n)) if *rank == o => *n += dpc,
                _ => recv.push((o, dpc)),
            }
        }
        parts[r].pattern.recv = recv;
        // sends: what every other rank ghosts from me, in their receive order
        let mut send: Vec<(usize, Vec<usize>)> = Vec::new();
        for other in 0..n_ranks {
            if other == r {
                continue;
            }
            let mut idx = Vec::new();
            for &g in &parts[other].ghost_cells {
                if owner[g] == r {
                    let base = (g - parts[r].own_cells.start) * dpc;
                    for i in 0..dpc {
                        idx.push(base + i);
                    }
                }
            }
            if !idx.is_empty() {
                send.push((other, idx));
            }
        }
        parts[r].pattern.send = send;
    }
    parts
}

/// One batch of this rank's compute with the rank-local cell slot of each
/// lane, `u32::MAX` where the lane is not read (gather) or not written
/// (scatter) on this rank.
#[derive(Clone, Debug)]
pub(crate) struct PlannedBatch<const L: usize> {
    /// A face batch (`mf.face_batches`), else a cell batch
    /// (`mf.cell_batches`).
    pub(crate) face: bool,
    /// Index of the batch in its list.
    pub(crate) index: u32,
    /// Slots read per side (minus, plus); a cell batch uses side 0.
    pub(crate) gather: [[u32; L]; 2],
    /// Slots written per side: the owned lanes of a cell batch; the lanes
    /// of a face batch whose minus cell is owned, on both sides (plus
    /// slots may be ghosts, returned to their owner by compress).
    pub(crate) scatter: [[u32; L]; 2],
}

/// Static interior/boundary classification of this rank's compute — the
/// overlap schedule of the distributed operator application (the paper's
/// Sec. 3.2 scaling lever). A batch is *interior* when none of its lanes
/// reads a ghost slot, so it can be evaluated while the halo exchange is
/// still in flight; *halo* batches wait for `finish_update`. Both lists
/// hold the cell batches first, then the face batches, in batch order.
#[derive(Clone, Debug, Default)]
pub struct OverlapPlan<const L: usize> {
    /// Batches evaluable before the halo arrives.
    pub(crate) interior: Vec<PlannedBatch<L>>,
    /// Batches reading at least one ghost lane.
    pub(crate) halo: Vec<PlannedBatch<L>>,
}

impl<const L: usize> OverlapPlan<L> {
    /// Classify every batch this rank computes and tabulate its lane
    /// slots. Irrelevant batches (no owned lane) appear in neither list.
    pub fn build<T: Real>(part: &Partition, mf: &MatrixFree<T, L>) -> Self {
        let none = [u32::MAX; L];
        let owned = |cell: u32| part.own_cells.contains(&(cell as usize));
        // slots of `cells[l]` on the first `n` lanes where `keep(l)`
        // (an inactive lane's `u32::MAX` is no cell of this rank)
        let slots = |cells: &[u32; L], n: usize, keep: &dyn Fn(usize) -> bool| {
            std::array::from_fn(|l| match part.slot(cells[l] as usize) {
                Some(s) if l < n && keep(l) => s as u32,
                _ => u32::MAX,
            })
        };
        let n_own = part.own_cells.len() as u32;
        let mut plan = Self::default();
        let mut add = |batch: PlannedBatch<L>| {
            if batch.scatter[0].iter().all(|&s| s == u32::MAX) {
                return;
            }
            let reads_ghost = batch
                .gather
                .as_flattened()
                .iter()
                .any(|&s| s != u32::MAX && s >= n_own);
            if reads_ghost {
                plan.halo.push(batch);
            } else {
                plan.interior.push(batch);
            }
        };
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let n = b.n_filled;
            add(PlannedBatch {
                face: false,
                index: bi as u32,
                gather: [slots(&b.cells, n, &|_| true), none],
                scatter: [slots(&b.cells, n, &|l| owned(b.cells[l])), none],
            });
        }
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let n = b.n_filled;
            let mine = |l: usize| owned(b.minus[l]);
            add(PlannedBatch {
                face: true,
                index: bi as u32,
                gather: [slots(&b.minus, n, &|_| true), slots(&b.plus, n, &|_| true)],
                scatter: [slots(&b.minus, n, &mine), slots(&b.plus, n, &mine)],
            });
        }
        plan
    }
}

/// One distributed application of the SIPG Laplacian `op` on this rank:
/// `dst_owned = (L src)_owned`, with `src`/`dst` in rank-local layout
/// (owned block then ghosts). The batches run the operator's own fused
/// cell and face kernels through the plan's lane tables.
///
/// The evaluation order is the overlap schedule: the halo exchange is
/// *started*, the plan's interior batches are swept while it is in
/// flight, the exchange is *finished*, and only then are the
/// ghost-reading batches evaluated. The result is identical to the
/// blocking order because interior batches read no ghost slot by
/// construction.
pub fn apply_distributed<const L: usize>(
    comm: &dyn Communicator,
    part: &Partition,
    plan: &OverlapPlan<L>,
    op: &LaplaceOperator<f64, L>,
    src: &mut [f64],
    dst: &mut Vec<f64>,
) {
    let n_owned = part.n_owned();
    assert_eq!(src.len(), part.n_local());
    dst.clear();
    dst.resize(part.n_local(), 0.0);
    let out = SharedMut::new(dst);
    let mut scratch = (
        CellScratch::new(&op.mf),
        (FaceScratch::new(&op.mf), FaceScratch::new(&op.mf)),
    );

    // post the halo sends, sweep the interior while the wire is busy
    let epoch = part.pattern.start_update(comm, src, n_owned);
    {
        let _sp = dgflow_trace::span("comm", "comm.overlap_interior");
        sweep(op, &plan.interior, src, &out, &mut scratch);
    }
    part.pattern.finish_update(comm, src, n_owned, epoch);

    // ghost data is in: the boundary-adjacent remainder
    sweep(op, &plan.halo, src, &out, &mut scratch);

    // return remotely accumulated contributions to their owners
    part.pattern.compress_add(comm, dst, n_owned);
}

/// Cell and face integrals of the listed batches, serially, on rank-local
/// vectors: the serial loop's kernels with the plan's lane tables.
fn sweep<const L: usize>(
    op: &LaplaceOperator<f64, L>,
    batches: &[PlannedBatch<L>],
    src: &[f64],
    dst: &SharedMut<f64>,
    (cell, face): &mut (
        CellScratch<f64, L>,
        (FaceScratch<f64, L>, FaceScratch<f64, L>),
    ),
) {
    let dpc = op.mf.dofs_per_cell;
    for b in batches {
        let bi = b.index as usize;
        if b.face {
            op.face_kernel(
                bi,
                face,
                b.gather.each_ref(),
                b.scatter.each_ref(),
                src,
                dst,
            );
        } else {
            let n = op.mf.cell_batches[bi].n_filled;
            gather_face_cells(&b.gather[0], n, src, dpc, 0, dpc, &mut cell.dofs);
            op.cell_term(bi, cell);
            scatter_add_face_cells(&b.scatter[0], n, &cell.dofs, dpc, 0, dpc, dst);
        }
    }
}

/// [`apply_distributed`] as a [`LinearOperator`] over this rank's owned
/// block, for the solvers' `cg_solve_on`: each application copies the
/// source into a ghosted buffer, applies, and copies the owned block out.
pub struct DistributedLaplace<'a, const L: usize> {
    comm: &'a dyn Communicator,
    part: &'a Partition,
    plan: &'a OverlapPlan<L>,
    op: &'a LaplaceOperator<f64, L>,
    state: Mutex<Applies>,
}

/// The ghosted buffers of a [`DistributedLaplace`] and its tally.
struct Applies {
    src: Vec<f64>,
    dst: Vec<f64>,
    count: usize,
    seconds: f64,
}

impl<'a, const L: usize> DistributedLaplace<'a, L> {
    /// Wrap `op` on this rank's partition and overlap plan.
    pub fn new(
        comm: &'a dyn Communicator,
        part: &'a Partition,
        plan: &'a OverlapPlan<L>,
        op: &'a LaplaceOperator<f64, L>,
    ) -> Self {
        let state = Mutex::new(Applies {
            src: vec![0.0; part.n_local()],
            dst: Vec::new(),
            count: 0,
            seconds: 0.0,
        });
        Self {
            comm,
            part,
            plan,
            op,
            state,
        }
    }

    /// Applications so far and their total wall time in seconds.
    pub fn applies(&self) -> (usize, f64) {
        let s = self.state.lock().expect("distributed operator poisoned");
        (s.count, s.seconds)
    }
}

impl<const L: usize> LinearOperator<f64> for DistributedLaplace<'_, L> {
    fn len(&self) -> usize {
        self.part.n_owned()
    }

    fn apply(&self, src: &[f64], dst: &mut [f64]) {
        let t = Instant::now();
        let mut guard = self.state.lock().expect("distributed operator poisoned");
        let s = &mut *guard;
        s.src[..src.len()].copy_from_slice(src);
        apply_distributed(
            self.comm, self.part, self.plan, self.op, &mut s.src, &mut s.dst,
        );
        dst.copy_from_slice(&s.dst[..dst.len()]);
        s.count += 1;
        s.seconds += t.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MfParams;
    use dgflow_comm::ThreadComm;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};
    use dgflow_solvers::{cg_solve, cg_solve_on, IdentityPreconditioner};
    use std::sync::Arc;

    fn hanging_forest() -> Forest {
        let mut f = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]));
        f.refine_global(1);
        let mut marks = vec![false; f.n_active()];
        marks[1] = true;
        marks[12] = true;
        f.refine_active(&marks);
        f
    }

    /// Gather a distributed result back to a global vector.
    fn run_distributed(forest: &Forest, n_ranks: usize, x_global: &[f64]) -> Vec<f64> {
        let manifold = TrilinearManifold::from_forest(forest);
        let mf = Arc::new(MatrixFree::<f64, 4>::new(
            forest,
            &manifold,
            MfParams::dg(2),
        ));
        let parts = build_partitions(forest, &mf, n_ranks);
        let dpc = mf.dofs_per_cell;
        let op = LaplaceOperator::new(mf.clone());
        let results = ThreadComm::run(n_ranks, |comm| {
            let part = &parts[comm.rank()];
            let plan = OverlapPlan::build(part, &mf);
            let mut src = vec![0.0; part.n_local()];
            for c in part.own_cells.clone() {
                let slot = part.slot(c).unwrap();
                src[slot * dpc..(slot + 1) * dpc]
                    .copy_from_slice(&x_global[c * dpc..(c + 1) * dpc]);
            }
            let mut dst = Vec::new();
            apply_distributed(comm, part, &plan, &op, &mut src, &mut dst);
            (part.own_cells.clone(), dst[..part.n_owned()].to_vec())
        });
        let mut out = vec![0.0; mf.n_dofs()];
        for (range, owned) in results {
            out[range.start * dpc..range.end * dpc].copy_from_slice(&owned);
        }
        out
    }

    /// The overlap plan must (a) cover every relevant batch exactly once
    /// and (b) actually classify a useful share of the work as interior —
    /// an empty interior list would silently degrade to the blocking
    /// schedule.
    #[test]
    fn overlap_plan_partitions_relevant_batches() {
        let forest = hanging_forest();
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = MatrixFree::<f64, 4>::new(&forest, &manifold, MfParams::dg(2));
        let n_ranks = 3;
        let parts = build_partitions(&forest, &mf, n_ranks);
        for part in &parts {
            let plan = OverlapPlan::build(part, &mf);
            let owned = |c: u32| part.own_cells.contains(&(c as usize));
            let mut seen = std::collections::BTreeSet::new();
            for p in plan.interior.iter().chain(&plan.halo) {
                assert!(seen.insert((p.face, p.index)), "batch {p:?} listed twice");
                let (cells, n) = if p.face {
                    let b = &mf.face_batches[p.index as usize];
                    (b.minus, b.n_filled)
                } else {
                    let b = &mf.cell_batches[p.index as usize];
                    (b.cells, b.n_filled)
                };
                assert!((0..n).any(|l| owned(cells[l])), "batch {p:?} owns no lane");
            }
            // every relevant batch is covered
            let n_rel_cells = mf
                .cell_batches
                .iter()
                .filter(|b| (0..b.n_filled).any(|l| owned(b.cells[l])))
                .count();
            let n_rel_faces = mf
                .face_batches
                .iter()
                .filter(|b| (0..b.n_filled).any(|l| owned(b.minus[l])))
                .count();
            assert_eq!(seen.len(), n_rel_cells + n_rel_faces);
            // interior work exists on every rank of this mesh: the point
            // of the overlap schedule
            assert!(
                plan.interior.iter().any(|p| !p.face),
                "rank {} has no interior cells to overlap",
                part.rank
            );
        }
    }

    #[test]
    fn distributed_apply_matches_serial_for_any_rank_count() {
        let forest = hanging_forest();
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = Arc::new(MatrixFree::<f64, 4>::new(
            &forest,
            &manifold,
            MfParams::dg(2),
        ));
        let op = LaplaceOperator::new(mf.clone());
        let n = mf.n_dofs();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 131) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let mut serial = vec![0.0; n];
        op.apply(&x, &mut serial);
        let scale = serial.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for ranks in [1usize, 2, 3, 5] {
            let dist = run_distributed(&forest, ranks, &x);
            for i in 0..n {
                assert!(
                    (dist[i] - serial[i]).abs() < 1e-11 * scale,
                    "ranks={ranks}, dof {i}: {} vs {}",
                    dist[i],
                    serial[i]
                );
            }
        }
    }

    #[test]
    fn distributed_cg_poisson_is_rank_invariant() {
        let forest = hanging_forest();
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = Arc::new(MatrixFree::<f64, 4>::new(
            &forest,
            &manifold,
            MfParams::dg(2),
        ));
        let dpc = mf.dofs_per_cell;
        let op = LaplaceOperator::new(mf.clone());
        let rhs = crate::operators::integrate_rhs(&mf, &|x| (x[0] * 3.0).sin() + x[1]);
        // serial reference
        let mut x_ref = vec![0.0; mf.n_dofs()];
        let r = cg_solve(&op, &IdentityPreconditioner, &rhs, &mut x_ref, 1e-10, 2000);
        assert!(r.converged);
        // the same CG on 3 ranks
        let n_ranks = 3;
        let parts = build_partitions(&forest, &mf, n_ranks);
        let results = ThreadComm::run(n_ranks, |comm| {
            let part = &parts[comm.rank()];
            let plan = OverlapPlan::build(part, &mf);
            let a = DistributedLaplace::new(comm, part, &plan, &op);
            let owned = part.own_cells.start * dpc..part.own_cells.end * dpc;
            let mut x = vec![0.0; part.n_owned()];
            let r = cg_solve_on(
                comm,
                &a,
                &IdentityPreconditioner,
                &rhs[owned],
                &mut x,
                1e-10,
                2000,
            );
            assert!(r.converged);
            (part.own_cells.clone(), x)
        });
        for (range, owned) in results {
            for c in range.clone() {
                for i in 0..dpc {
                    let global = c * dpc + i;
                    let local = (c - range.start) * dpc + i;
                    assert!(
                        (owned[local] - x_ref[global]).abs() < 1e-7,
                        "dof {global}: {} vs {}",
                        owned[local],
                        x_ref[global]
                    );
                }
            }
        }
    }
}
