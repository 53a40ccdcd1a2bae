//! Distributed-memory SPMD evaluation of the SIPG Laplacian — the MPI
//! parallelization of Sec. 3.2 realized on the in-process
//! [`dgflow_comm::Communicator`] substrate.
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
//! The heavy setup data (`MatrixFree`) is shared read-only between the
//! thread ranks, as it would be between MPI ranks on one node using shared
//! memory windows; all *solution data* flows through messages only.

use crate::evaluator::{CellScratch, FaceScratch};
use crate::matrixfree::MatrixFree;
use crate::operators::laplace::LaplaceOperator;
use dgflow_comm::{Communicator, GhostPattern};
use dgflow_mesh::Forest;
use dgflow_simd::{Real, Simd};
use std::collections::BTreeMap;

/// The per-rank partition layout of a DG vector.
#[derive(Clone, Debug)]
pub struct Partition {
    /// This rank.
    pub rank: usize,
    /// Owned cell range (contiguous in SFC order).
    pub own_cells: std::ops::Range<usize>,
    /// Ghost cells in receive order (grouped by owner rank, ascending).
    pub ghost_cells: Vec<usize>,
    /// Cell → local slot (owned cells first, then ghosts).
    pub local_slot: BTreeMap<usize, usize>,
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
            self.local_slot.get(&cell).copied()
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
        .map(|r| {
            let ghost_cells: Vec<usize> = ghosts[r].iter().copied().collect();
            let own = range_of(r);
            let mut local_slot = BTreeMap::new();
            for (i, &c) in ghost_cells.iter().enumerate() {
                local_slot.insert(c, own.len() + i);
            }
            Partition {
                rank: r,
                own_cells: own,
                ghost_cells,
                local_slot,
                pattern: GhostPattern::default(),
                dpc,
            }
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

/// Gather a cell batch from a rank-local vector (missing cells read zero —
/// their lanes are never scattered).
fn gather_local<T: Real, const L: usize>(
    part: &Partition,
    cells: &[u32; L],
    n_filled: usize,
    v: &[f64],
    dpc: usize,
    out: &mut [Simd<T, L>],
) {
    for i in 0..dpc {
        let mut s = Simd::<T, L>::zero();
        for l in 0..n_filled {
            if cells[l] == u32::MAX {
                continue;
            }
            if let Some(slot) = part.slot(cells[l] as usize) {
                s[l] = T::from_f64(v[slot * dpc + i]);
            }
        }
        out[i] = s;
    }
}

fn scatter_local<T: Real, const L: usize>(
    part: &Partition,
    cells: &[u32; L],
    n_filled: usize,
    vals: &[Simd<T, L>],
    dpc: usize,
    v: &mut [f64],
    mask: impl Fn(usize) -> bool,
) {
    for l in 0..n_filled {
        if cells[l] == u32::MAX || !mask(l) {
            continue;
        }
        if let Some(slot) = part.slot(cells[l] as usize) {
            for i in 0..dpc {
                v[slot * dpc + i] += vals[i][l].to_f64();
            }
        }
    }
}

/// Static interior/boundary classification of this rank's compute — the
/// overlap schedule of the distributed operator application (the paper's
/// Sec. 3.2 scaling lever). A batch is *interior* when none of its lanes
/// reads a ghost slot, so it can be evaluated while the halo exchange is
/// still in flight; *halo* batches wait for `finish_update`.
#[derive(Clone, Debug, Default)]
pub struct OverlapPlan {
    /// Cell-batch indices evaluable before the halo arrives.
    pub interior_cells: Vec<u32>,
    /// Cell-batch indices reading at least one ghost lane.
    pub halo_cells: Vec<u32>,
    /// Face-batch indices evaluable before the halo arrives.
    pub interior_faces: Vec<u32>,
    /// Face-batch indices reading at least one ghost lane.
    pub halo_faces: Vec<u32>,
}

impl OverlapPlan {
    /// Classify every batch this rank computes. Irrelevant batches (no
    /// owned lane) appear in neither list.
    pub fn build<T: Real, const L: usize>(part: &Partition, mf: &MatrixFree<T, L>) -> Self {
        // local_slot holds exactly the ghost cells (owned cells resolve
        // through the contiguous range), so "reads a ghost" is a map probe
        let is_ghost = |cell: u32| part.local_slot.contains_key(&(cell as usize));
        let owned = |cell: u32| part.own_cells.contains(&(cell as usize));
        let mut plan = Self::default();
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            if !(0..b.n_filled).any(|l| owned(b.cells[l])) {
                continue;
            }
            if (0..b.n_filled).any(|l| is_ghost(b.cells[l])) {
                plan.halo_cells.push(bi as u32);
            } else {
                plan.interior_cells.push(bi as u32);
            }
        }
        for (bi, b) in mf.face_batches.iter().enumerate() {
            if !(0..b.n_filled).any(|l| owned(b.minus[l])) {
                continue;
            }
            let reads_ghost = (0..b.n_filled)
                .any(|l| is_ghost(b.minus[l]) || (b.plus[l] != u32::MAX && is_ghost(b.plus[l])));
            if reads_ghost {
                plan.halo_faces.push(bi as u32);
            } else {
                plan.interior_faces.push(bi as u32);
            }
        }
        plan
    }
}

/// One distributed application of the SIPG Laplacian `op` on this rank:
/// `dst_owned = (L src)_owned`, with `src`/`dst` in rank-local layout
/// (owned block then ghosts, `f64` wire format). The batches run the
/// operator's own fused cell and face kernels, through rank-local
/// gathers and scatters.
///
/// The evaluation order is the overlap schedule: the halo exchange is
/// *started*, the plan's interior batches are swept while it is in
/// flight, the exchange is *finished*, and only then are the
/// ghost-reading batches evaluated. The result is identical to the
/// blocking order because interior batches read no ghost slot by
/// construction.
pub fn apply_distributed<T: Real, const L: usize>(
    comm: &dyn Communicator,
    part: &Partition,
    plan: &OverlapPlan,
    op: &LaplaceOperator<T, L>,
    src: &mut [f64],
    dst: &mut Vec<f64>,
) {
    let n_owned = part.n_owned();
    assert_eq!(src.len(), part.n_local());
    dst.clear();
    dst.resize(part.n_local(), 0.0);

    let mut s = CellScratch::<T, L>::new(&op.mf);
    let mut sf = (
        FaceScratch::<T, L>::new(&op.mf),
        FaceScratch::<T, L>::new(&op.mf),
    );

    // post the halo sends, sweep the interior while the wire is busy
    let epoch = part.pattern.start_update(comm, src, n_owned);
    {
        let _sp = dgflow_trace::span("comm", "comm.overlap_interior");
        cell_sweep(part, op, &plan.interior_cells, src, dst, &mut s);
        face_sweep(part, op, &plan.interior_faces, src, dst, &mut sf);
    }
    part.pattern.finish_update(comm, src, n_owned, epoch);

    // ghost data is in: the boundary-adjacent remainder
    cell_sweep(part, op, &plan.halo_cells, src, dst, &mut s);
    face_sweep(part, op, &plan.halo_faces, src, dst, &mut sf);

    // return remotely accumulated contributions to their owners
    part.pattern.compress_add(comm, dst, n_owned);
}

/// Cell integrals of the listed batches (owned lanes scatter; straddling
/// batches recompute shared lanes).
fn cell_sweep<T: Real, const L: usize>(
    part: &Partition,
    op: &LaplaceOperator<T, L>,
    batches: &[u32],
    src: &[f64],
    dst: &mut [f64],
    s: &mut CellScratch<T, L>,
) {
    let mf = &*op.mf;
    let dpc = mf.dofs_per_cell;
    for &bi in batches {
        let b = &mf.cell_batches[bi as usize];
        gather_local(part, &b.cells, b.n_filled, src, dpc, &mut s.dofs);
        op.cell_term(bi as usize, s);
        scatter_local(part, &b.cells, b.n_filled, &s.dofs, dpc, dst, |l| {
            part.own_cells.contains(&(b.cells[l] as usize))
        });
    }
}

/// Face integrals of the listed batches (minus-owned faces only; plus
/// contributions may land in ghost slots and return through compress).
fn face_sweep<T: Real, const L: usize>(
    part: &Partition,
    op: &LaplaceOperator<T, L>,
    batches: &[u32],
    src: &[f64],
    dst: &mut [f64],
    s: &mut (FaceScratch<T, L>, FaceScratch<T, L>),
) {
    let mf = &*op.mf;
    let dpc = mf.dofs_per_cell;
    for &bi in batches {
        let minus = &mf.face_batches[bi as usize].minus;
        let mine = |l: usize| part.own_cells.contains(&(minus[l] as usize));
        op.face_kernel(
            bi as usize,
            s,
            |cells, n, v| gather_local(part, cells, n, src, dpc, v),
            |cells, n, v| scatter_local(part, cells, n, v, dpc, dst, mine),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MfParams;
    use dgflow_comm::{dist_dot, ThreadComm};
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};
    use dgflow_solvers::LinearOperator;
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
            for &bi in plan.interior_cells.iter().chain(&plan.halo_cells) {
                assert!(seen.insert(("c", bi)), "cell batch {bi} listed twice");
                let b = &mf.cell_batches[bi as usize];
                assert!((0..b.n_filled).any(|l| owned(b.cells[l])));
            }
            for &bi in plan.interior_faces.iter().chain(&plan.halo_faces) {
                assert!(seen.insert(("f", bi)), "face batch {bi} listed twice");
                let b = &mf.face_batches[bi as usize];
                assert!((0..b.n_filled).any(|l| owned(b.minus[l])));
            }
            // every relevant batch is covered
            let n_rel_cells = mf
                .cell_batches
                .iter()
                .filter(|b| (0..b.n_filled).any(|l| owned(b.cells[l])))
                .count();
            assert_eq!(
                plan.interior_cells.len() + plan.halo_cells.len(),
                n_rel_cells
            );
            // interior work exists on every rank of this mesh: the point
            // of the overlap schedule
            assert!(
                !plan.interior_cells.is_empty(),
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
        let r = dgflow_solvers::cg_solve(
            &op,
            &dgflow_solvers::IdentityPreconditioner,
            &rhs,
            &mut x_ref,
            1e-10,
            2000,
        );
        assert!(r.converged);
        // distributed CG, 3 ranks
        let n_ranks = 3;
        let parts = build_partitions(&forest, &mf, n_ranks);
        let results = ThreadComm::run(n_ranks, |comm| {
            let part = &parts[comm.rank()];
            let plan = OverlapPlan::build(part, &mf);
            let n_owned = part.n_owned();
            let n_local = part.n_local();
            let mut b = vec![0.0; n_local];
            for c in part.own_cells.clone() {
                let slot = part.slot(c).unwrap();
                b[slot * dpc..(slot + 1) * dpc].copy_from_slice(&rhs[c * dpc..(c + 1) * dpc]);
            }
            let mut x = vec![0.0; n_local];
            let mut rvec = b.clone();
            let mut p = b.clone();
            let mut ap = Vec::new();
            let mut rr = dist_dot(comm, &rvec, &rvec, n_owned);
            for _ in 0..2000 {
                apply_distributed(comm, part, &plan, &op, &mut p, &mut ap);
                let pap = dist_dot(comm, &p, &ap, n_owned);
                let alpha = rr / pap;
                for i in 0..n_owned {
                    x[i] += alpha * p[i];
                    rvec[i] -= alpha * ap[i];
                }
                let rr_new = dist_dot(comm, &rvec, &rvec, n_owned);
                if rr_new.sqrt() <= 1e-10 * rhs.iter().map(|v| v * v).sum::<f64>().sqrt() {
                    break;
                }
                let beta = rr_new / rr;
                rr = rr_new;
                for i in 0..n_owned {
                    p[i] = rvec[i] + beta * p[i];
                }
            }
            (part.own_cells.clone(), x[..n_owned].to_vec())
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
