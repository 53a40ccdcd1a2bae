//! Continuous (CG) finite element spaces on the forest — the auxiliary
//! spaces of the hybrid multigrid hierarchy (Sec. 3.4).
//!
//! DoFs are identified geometrically (shared Gauss–Lobatto node positions
//! merge into one unknown) and hanging-face nodes carry interpolation
//! constraints against the coarse side's trace, resolved through chains.
//! The Laplacian on these levels needs only cell integrals (the function is
//! continuous) plus Nitsche boundary faces — reusing the DG kernels.

use crate::batch::{greedy_colors, CellBatch};
use crate::evaluator::{
    apply_cell_laplace, evaluate_gradients, evaluate_values, integrate_ref, CellScratch,
    FaceScratch,
};
use crate::matrixfree::{tangential, MatrixFree, MfParams};
use crate::operators::laplace::BoundaryCondition;
use crate::operators::sipg::{
    cell_column, cell_diagonal, cell_diagonal_reference, contract_two_stage, face_column,
    face_diagonal, face_diagonal_reference, nitsche_boundary_term, nitsche_lifting, DiagonalTables,
    FaceSide,
};
use crate::util::{par_map, IntMap, SharedMut};
use dgflow_mesh::{Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use dgflow_tensor::{LagrangeBasis1D, NodeSet};
use std::sync::Arc;

/// Precomputed, batch-transposed constraint gather/scatter plan for one
/// SIMD batch of cells (or one face side of a face batch): the index table
/// drives [`Simd::gather_u32`] batched loads for the (vastly dominant)
/// unconstrained nodes, and the few constrained `(node, lane)` pairs keep
/// their resolved scalar rows.
pub struct GatherPlan<const L: usize> {
    /// `idx[i][l]`: global dof of lane `l`'s local node `i`; `u32::MAX`
    /// marks inactive lanes and constrained nodes (listed in `special`).
    pub idx: Vec<[u32; L]>,
    /// Constrained nodes as `(local node, lane, entries lo, entries hi)`
    /// ranges into [`CgSpace::entries`].
    pub special: Vec<(u32, u8, u32, u32)>,
}

/// A continuous nodal space with hanging-node constraints.
pub struct CgSpace<T: Real, const L: usize> {
    /// Matrix-free data (GaussLobatto node set).
    pub mf: Arc<MatrixFree<T, L>>,
    /// Number of global CG DoFs.
    pub n_dofs: usize,
    /// Local→global map: `l2g[cell*dpc + node]`.
    pub l2g: Vec<u32>,
    /// Resolved constraint rows per (cell, local node):
    /// `entries[row_ptr[i]..row_ptr[i+1]]` = `(global dof, weight)`.
    pub row_ptr: Vec<u32>,
    /// Constraint entries.
    pub entries: Vec<(u32, T)>,
    /// Per global dof: constrained flag.
    pub constrained: Vec<bool>,
    /// Global dof positions (diagnostics/tests).
    pub positions: Vec<[f64; 3]>,
    /// Conflict-free coloring of *cell* batches (cells share dofs).
    pub cell_colors: Vec<Vec<usize>>,
    /// Vectorized gather/scatter plan per cell batch.
    pub cell_plans: Vec<GatherPlan<L>>,
    /// Plans for the minus side of boundary face batches (`None` for
    /// interior faces, which CG operators never touch).
    pub face_plans: Vec<Option<GatherPlan<L>>>,
}

impl<T: Real, const L: usize> CgSpace<T, L> {
    /// Build a degree-`degree` continuous space over the forest.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, degree: usize) -> Self {
        let mf = Arc::new(MatrixFree::new(forest, manifold, MfParams::cg(degree)));
        Self::from_mf(forest, mf)
    }

    /// Build from an existing GaussLobatto matrix-free context.
    pub fn from_mf(forest: &Forest, mf: Arc<MatrixFree<T, L>>) -> Self {
        assert_eq!(mf.params.node_set, NodeSet::GaussLobatto);
        let degree = mf.params.degree;
        let n1 = degree + 1;
        let dpc = mf.dofs_per_cell;
        let nodes = NodeSet::GaussLobatto.nodes(degree);
        let n_cells = mf.n_cells;

        // ---- geometric dof identification --------------------------------
        // First appearance in cell-major node order numbers the dofs: a
        // node joins the first dof within `2 eps` stored under its quantized
        // key or one of the 26 neighbouring keys (`dz` fastest), else it
        // opens a new dof. The exact key is probed first. A dof stored under
        // it is always within `2 eps`, and distinct nodes lie far more than
        // `4 eps` apart, so at most one dof is ever close and the numbering
        // is that of the plain 27-key scan.
        let diam = forest.coarse.diameter().max(1e-30);
        let eps = 1e-8 * diam;
        let node_positions = mf.mapping.grid_positions(&nodes);
        let mut grid: IntMap<(i64, i64, i64), u32> = IntMap::default();
        let mut positions: Vec<[f64; 3]> = Vec::new();
        let mut l2g = vec![0u32; n_cells * dpc];
        let key_of = |p: [f64; 3]| -> (i64, i64, i64) {
            (
                (p[0] / eps).round() as i64,
                (p[1] / eps).round() as i64,
                (p[2] / eps).round() as i64,
            )
        };
        for (dof_slot, &p) in l2g.iter_mut().zip(&node_positions) {
            let k = key_of(p);
            let close = |&d: &u32| {
                let q = positions[d as usize];
                let dist2 = (q[0] - p[0]).powi(2) + (q[1] - p[1]).powi(2) + (q[2] - p[2]).powi(2);
                dist2 < (2.0 * eps) * (2.0 * eps)
            };
            let found = grid.get(&k).filter(|d| close(d)).or_else(|| {
                (0..27i64)
                    .filter(|&i| i != 13)
                    .map(|i| (k.0 + i / 9 - 1, k.1 + (i / 3) % 3 - 1, k.2 + i % 3 - 1))
                    .find_map(|key| grid.get(&key).filter(|d| close(d)))
            });
            *dof_slot = match found {
                Some(&d) => d,
                None => {
                    let d = positions.len() as u32;
                    positions.push(p);
                    grid.insert(k, d);
                    d
                }
            };
        }
        drop(node_positions);
        let n_dofs = positions.len();

        // ---- hanging-node constraints ------------------------------------
        let basis = LagrangeBasis1D::new(nodes.clone());
        let mut raw: IntMap<u32, Vec<(u32, f64)>> = IntMap::default();
        let local_index = |face: usize, a: usize, b: usize| -> usize {
            let d = face / 2;
            let s = face % 2;
            let (t1, t2) = tangential(d);
            let mut idx = [0usize; 3];
            idx[d] = if s == 0 { 0 } else { n1 - 1 };
            idx[t1] = a;
            idx[t2] = b;
            idx[0] + n1 * (idx[1] + n1 * idx[2])
        };
        for f in &mf.faces {
            let Some(sub) = f.subface else { continue };
            let plus = f.plus.expect("hanging faces are interior") as usize;
            let minus = f.minus as usize;
            let (c1, c2) = (f64::from(sub & 1), f64::from((sub >> 1) & 1));
            // orientation maps minus frame → plus frame; we need the inverse
            let inv = f.orientation.inverse();
            for b in 0..n1 {
                for a in 0..n1 {
                    let slave_local = local_index(f.face_plus as usize, a, b);
                    let slave = l2g[plus * dpc + slave_local];
                    // plus-face coords of this node → subface-local minus
                    // coords → minus-face coords
                    let (u, v) = inv.map_unit(nodes[a], nodes[b]);
                    let up = 0.5 * (u + c1);
                    let vp = 0.5 * (v + c2);
                    let wa = basis.values_at(up);
                    let wb = basis.values_at(vp);
                    let mut row: Vec<(u32, f64)> = Vec::new();
                    for j in 0..n1 {
                        for i in 0..n1 {
                            let w = wa[i] * wb[j];
                            if w.abs() > 1e-12 {
                                let master =
                                    l2g[minus * dpc + local_index(f.face_minus as usize, i, j)];
                                row.push((master, w));
                            }
                        }
                    }
                    // identity row (node coincides with a coarse node):
                    // not a constraint
                    if row.len() == 1 && row[0].0 == slave && (row[0].1 - 1.0).abs() < 1e-10 {
                        continue;
                    }
                    raw.insert(slave, row);
                }
            }
        }
        // resolve constraint chains (slave depending on slave)
        let mut resolved: IntMap<u32, Vec<(u32, f64)>> = IntMap::default();
        for (&slave, row) in &raw {
            let mut current = row.clone();
            for _ in 0..16 {
                if !current.iter().any(|&(d, _)| raw.contains_key(&d)) {
                    break;
                }
                let mut next: IntMap<u32, f64> = IntMap::default();
                for &(d, w) in &current {
                    if let Some(sub) = raw.get(&d) {
                        for &(dd, ww) in sub {
                            *next.entry(dd).or_insert(0.0) += w * ww;
                        }
                    } else {
                        *next.entry(d).or_insert(0.0) += w;
                    }
                }
                current = next.into_iter().collect();
            }
            assert!(
                !current.iter().any(|&(d, _)| raw.contains_key(&d)),
                "constraint chain did not resolve"
            );
            resolved.insert(slave, current);
        }
        let mut constrained = vec![false; n_dofs];
        for &s in resolved.keys() {
            constrained[s as usize] = true;
        }

        // ---- per-local-node resolved rows ---------------------------------
        let mut row_ptr = Vec::with_capacity(n_cells * dpc + 1);
        let mut entries: Vec<(u32, T)> = Vec::new();
        row_ptr.push(0u32);
        for c in 0..n_cells {
            for i in 0..dpc {
                let dof = l2g[c * dpc + i];
                match resolved.get(&dof) {
                    Some(row) => {
                        for &(d, w) in row {
                            entries.push((d, T::from_f64(w)));
                        }
                    }
                    None => entries.push((dof, T::ONE)),
                }
                row_ptr.push(entries.len() as u32);
            }
        }

        // ---- cell-batch coloring (cells share global dofs) -----------------
        let cell_colors = greedy_colors(
            n_dofs,
            mf.cell_batches
                .iter()
                .map(|b| cell_batch_dofs(&row_ptr, &entries, dpc, b)),
        );

        let mut space = Self {
            mf,
            n_dofs,
            l2g,
            row_ptr,
            entries,
            constrained,
            positions,
            cell_colors,
            cell_plans: Vec::new(),
            face_plans: Vec::new(),
        };
        // ---- vectorized gather/scatter plans ------------------------------
        let cell_plans = space
            .mf
            .cell_batches
            .iter()
            .map(|b| space.gather_plan(&b.cells))
            .collect();
        let face_plans = space
            .mf
            .face_batches
            .iter()
            .map(|b| b.category.is_boundary.then(|| space.gather_plan(&b.minus)))
            .collect();
        space.cell_plans = cell_plans;
        space.face_plans = face_plans;
        space
    }

    /// Build the [`GatherPlan`] of one SIMD batch of cells (`u32::MAX`
    /// marks an inactive lane).
    pub fn gather_plan(&self, cells: &[u32; L]) -> GatherPlan<L> {
        let dpc = self.mf.dofs_per_cell;
        let mut idx = vec![[u32::MAX; L]; dpc];
        let mut special = Vec::new();
        for (l, &cell) in cells.iter().enumerate() {
            if cell == u32::MAX {
                continue;
            }
            let cell = cell as usize;
            for (i, ix) in idx.iter_mut().enumerate() {
                let dof = self.l2g[cell * dpc + i];
                if self.constrained[dof as usize] {
                    special.push((
                        i as u32,
                        l as u8,
                        self.row_ptr[cell * dpc + i],
                        self.row_ptr[cell * dpc + i + 1],
                    ));
                } else {
                    ix[l] = dof;
                }
            }
        }
        GatherPlan { idx, special }
    }

    /// Reference constraint gather: walk the resolved row of every local
    /// node. Equivalence baseline for the plan-driven batch gather.
    pub fn gather_ref(&self, cell: usize, src: &[T], out: &mut [T]) {
        let dpc = self.mf.dofs_per_cell;
        for (i, o) in out.iter_mut().enumerate().take(dpc) {
            let lo = self.row_ptr[cell * dpc + i] as usize;
            let hi = self.row_ptr[cell * dpc + i + 1] as usize;
            let mut v = T::ZERO;
            for &(d, w) in &self.entries[lo..hi] {
                v = w.mul_add(src[d as usize], v);
            }
            *o = v;
        }
    }

    /// Scatter-add cell-local values, distributing constrained
    /// contributions to their masters.
    ///
    /// # Safety
    /// Concurrent callers must target dof-disjoint cells (use
    /// `cell_colors`).
    pub unsafe fn scatter_add(&self, cell: usize, vals: &[T], dst: &SharedMut<T>) {
        let dpc = self.mf.dofs_per_cell;
        for (i, &v) in vals.iter().enumerate().take(dpc) {
            let lo = self.row_ptr[cell * dpc + i] as usize;
            let hi = self.row_ptr[cell * dpc + i + 1] as usize;
            for &(d, w) in &self.entries[lo..hi] {
                // SAFETY: `d` is a valid global dof (built alongside dst's
                // sizing); exclusivity is the caller's contract above.
                unsafe { *dst.at(d as usize) += w * v };
            }
        }
    }

    /// Vectorized batch gather through a precomputed [`GatherPlan`]:
    /// batched indexed loads for unconstrained nodes, resolved scalar rows
    /// for the constrained remainder. Inactive lanes read zero.
    pub fn gather_batch(&self, plan: &GatherPlan<L>, src: &[T], out: &mut [Simd<T, L>]) {
        for (o, ix) in out.iter_mut().zip(&plan.idx) {
            *o = Simd::gather_u32(src, ix);
        }
        for &(node, lane, lo, hi) in &plan.special {
            let mut v = T::ZERO;
            for &(d, w) in &self.entries[lo as usize..hi as usize] {
                v = w.mul_add(src[d as usize], v);
            }
            out[node as usize][lane as usize] = v;
        }
    }

    /// Transpose of [`CgSpace::gather_batch`]: scatter-add a batch through
    /// its plan, distributing constrained contributions to their masters.
    ///
    /// # Safety
    /// Concurrent callers must target dof-disjoint batches (use
    /// `cell_colors` / face colors); every access still goes through
    /// [`SharedMut::at`], so the `check-disjoint` recorder sees it.
    pub unsafe fn scatter_add_batch(
        &self,
        plan: &GatherPlan<L>,
        vals: &[Simd<T, L>],
        dst: &SharedMut<T>,
    ) {
        for (v, ix) in vals.iter().zip(&plan.idx) {
            for l in 0..L {
                let d = ix[l];
                if d != u32::MAX {
                    // SAFETY: plan indices are valid global dofs; exclusivity
                    // is the caller's contract above.
                    unsafe { *dst.at(d as usize) += v[l] };
                }
            }
        }
        for &(node, lane, lo, hi) in &plan.special {
            let v = vals[node as usize][lane as usize];
            for &(d, w) in &self.entries[lo as usize..hi as usize] {
                // SAFETY: as above.
                unsafe { *dst.at(d as usize) += w * v };
            }
        }
    }

    /// Interpolate a function: nodal values at every dof position (the
    /// constrained entries receive the function value, which coincides with
    /// their interpolated value only in the limit — operators ignore them).
    pub fn interpolate(&self, f: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        self.positions.iter().map(|&p| T::from_f64(f(p))).collect()
    }
}

/// The global dofs a cell batch touches through its resolved rows
/// (`row_ptr`/`entries` as in [`CgSpace`], `dpc` nodes per cell), sorted
/// and deduplicated: the keys of the cell-batch coloring.
pub(crate) fn cell_batch_dofs<T, const L: usize>(
    row_ptr: &[u32],
    entries: &[(u32, T)],
    dpc: usize,
    batch: &CellBatch<L>,
) -> Vec<u32> {
    let mut dofs: Vec<u32> = Vec::new();
    for &cell in &batch.cells[..batch.n_filled] {
        let cell = cell as usize;
        let lo = row_ptr[cell * dpc] as usize;
        let hi = row_ptr[cell * dpc + dpc] as usize;
        dofs.extend(entries[lo..hi].iter().map(|&(d, _)| d));
    }
    dofs.sort_unstable();
    dofs.dedup();
    dofs
}

/// SIPG/Nitsche Laplacian on a continuous space: cell terms + boundary
/// faces only (interior jumps vanish).
pub struct CgLaplaceOperator<T: Real, const L: usize> {
    /// The space.
    pub space: Arc<CgSpace<T, L>>,
    /// Per-boundary-id condition.
    pub bc: Vec<BoundaryCondition>,
    /// Modeled Flop per application, for the roofline tag on the
    /// `cg_laplace.apply` span.
    flops_per_apply: f64,
}

impl<T: Real, const L: usize> CgLaplaceOperator<T, L> {
    /// All-Dirichlet boundary.
    pub fn new(space: Arc<CgSpace<T, L>>) -> Self {
        Self::with_bc(space, Vec::new())
    }

    /// Explicit boundary conditions.
    pub fn with_bc(space: Arc<CgSpace<T, L>>, bc: Vec<BoundaryCondition>) -> Self {
        // The DG work model over-counts the (cheaper) CG apply — shared
        // dofs and no interior face terms — but keeps the span tags on one
        // consistent scale across the multigrid hierarchy.
        let counts = dgflow_perfmodel::LaplaceCounts::new(
            space.mf.params.degree,
            std::mem::size_of::<T>() as f64,
        );
        let flops_per_apply = counts.flops_per_dof * space.n_dofs as f64;
        Self {
            space,
            bc,
            flops_per_apply,
        }
    }

    fn bc_of(&self, id: u32) -> BoundaryCondition {
        self.bc
            .get(id as usize)
            .copied()
            .unwrap_or(BoundaryCondition::Dirichlet)
    }

    /// Reference batch gather of the lane cells `cells[..n]`: per-lane
    /// scalar constraint gathers through [`CgSpace::gather_ref`],
    /// transposed into lanes. Equivalence baseline for the plan-driven
    /// [`CgSpace::gather_batch`].
    fn gather_batch_ref(&self, cells: &[u32; L], n: usize, src: &[T], out: &mut [Simd<T, L>]) {
        let mut local = vec![T::ZERO; out.len()];
        out.fill(Simd::zero());
        for l in 0..n {
            self.space.gather_ref(cells[l] as usize, src, &mut local);
            for (o, v) in out.iter_mut().zip(&local) {
                o[l] = *v;
            }
        }
    }

    /// Reference batch scatter: per-lane transpose then scalar row walks
    /// (also the scatter of the one-time right-hand-side assembly).
    fn scatter_batch_ref(
        &self,
        cells: &[u32; L],
        n: usize,
        vals: &[Simd<T, L>],
        dst: &SharedMut<T>,
    ) {
        let mut local = vec![T::ZERO; vals.len()];
        for l in 0..n {
            for (v, o) in local.iter_mut().zip(vals) {
                *v = o[l];
            }
            // SAFETY: concurrent callers are the matrix-free loop's cell
            // groups, which are dof-disjoint; the face passes are serial.
            unsafe { self.space.scatter_add(cells[l] as usize, &local, dst) };
        }
    }

    /// The boundary plan of face batch `bi` when it carries a Nitsche
    /// term (a Dirichlet boundary face).
    fn nitsche_plan(&self, bi: usize) -> Option<&GatherPlan<L>> {
        let cat = self.space.mf.face_batches[bi].category;
        let dirichlet =
            cat.is_boundary && self.bc_of(cat.boundary_id) == BoundaryCondition::Dirichlet;
        dirichlet.then(|| {
            self.space.face_plans[bi]
                .as_ref()
                .expect("boundary faces have plans")
        })
    }

    /// Constrained rows act as identity.
    fn copy_constrained(&self, src: &[T], dst: &mut [T]) {
        for (i, &c) in self.space.constrained.iter().enumerate() {
            if c {
                dst[i] = src[i];
            }
        }
    }

    /// Apply the operator through the reference kernels: per-lane scalar
    /// constraint gathers, two-stage Jacobian contraction, unfused
    /// integrate. Exists so the kernel-equivalence suite can pin the
    /// plan-driven fused default path against it.
    pub fn apply_reference(&self, src: &[T], dst: &mut [T]) {
        let space = &*self.space;
        let mf = &*space.mf;
        mf.loop_over_groups(
            None,
            dst,
            &space.cell_colors,
            (
                || CellScratch::new(mf),
                |bi, s, out| {
                    let b = &mf.cell_batches[bi];
                    self.gather_batch_ref(&b.cells, b.n_filled, src, &mut s.dofs);
                    evaluate_values(mf, s);
                    evaluate_gradients(mf, s);
                    contract_two_stage(&mf.cell_geometry[bi], s);
                    integrate_ref(mf, s, false, true);
                    self.scatter_batch_ref(&b.cells, b.n_filled, &s.dofs, out);
                },
            ),
            (
                || FaceScratch::new(mf),
                |bi, sm, out| {
                    if self.nitsche_plan(bi).is_some() {
                        let b = &mf.face_batches[bi];
                        self.gather_batch_ref(&b.minus, b.n_filled, src, &mut sm.dofs);
                        nitsche_boundary_term(mf, bi, sm);
                        self.scatter_batch_ref(&b.minus, b.n_filled, &sm.dofs, out);
                    }
                },
            ),
        );
        self.copy_constrained(src, dst);
    }

    /// Dirichlet boundary data → right-hand side (Nitsche lifting).
    pub fn boundary_rhs(&self, gfun: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        let space = &*self.space;
        let mf = &*space.mf;
        let mut rhs = vec![T::ZERO; space.n_dofs];
        let dst = SharedMut::new(&mut rhs);
        let mut sm = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            if self.nitsche_plan(bi).is_some() {
                nitsche_lifting(mf, bi, gfun, &mut sm);
                self.scatter_batch_ref(&b.minus, b.n_filled, &sm.dofs, &dst);
            }
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                rhs[i] = T::ZERO;
            }
        }
        rhs
    }

    /// Compute `cell(bi, s)` for every cell batch and `face(bi, s)` for
    /// every Nitsche boundary face batch on the pool, then call
    /// `walk(lanes, n_filled, result)` serially, the cell batches first,
    /// in batch order, so sums into shared dofs do not depend on the
    /// thread count.
    fn local_blocks<R: Send>(
        &self,
        cell: impl Fn(usize, &mut CellScratch<T, L>) -> R + Sync,
        face: impl Fn(usize, &mut FaceScratch<T, L>) -> R + Sync,
        mut walk: impl FnMut(&[u32; L], usize, &R),
    ) {
        let mf = &*self.space.mf;
        let cells = par_map(
            mf.cell_batches.len(),
            || CellScratch::<T, L>::new(mf),
            |s, bi| cell(bi, s),
        );
        let faces = par_map(
            mf.face_batches.len(),
            || FaceScratch::<T, L>::new(mf),
            |s, bi| self.nitsche_plan(bi).map(|_| face(bi, s)),
        );
        for (b, r) in mf.cell_batches.iter().zip(&cells) {
            walk(&b.cells, b.n_filled, r);
        }
        for (b, r) in mf.face_batches.iter().zip(&faces) {
            if let Some(r) = r {
                walk(&b.minus, b.n_filled, r);
            }
        }
    }

    /// Approximate diagonal (exact on cell blocks, constraint-distributed
    /// with squared weights — the standard matrix-free approximation). The
    /// local block diagonals come by sum factorization (see
    /// [`cell_diagonal`], [`face_diagonal`]).
    pub fn compute_diagonal(&self) -> Vec<T> {
        let mf = &*self.space.mf;
        let tables = DiagonalTables::new(mf);
        self.diagonal_with(
            |bi, s| cell_diagonal(mf, &tables, bi, s),
            |bi, s| face_diagonal(mf, &tables, bi, FaceSide::Boundary, s),
        )
    }

    /// The diagonal through the reference kernels: every column of every
    /// local matrix in full, keeping its own entry. Exists so the
    /// kernel-equivalence suite can pin
    /// [`CgLaplaceOperator::compute_diagonal`] against it.
    pub fn diagonal_reference(&self) -> Vec<T> {
        let mf = &*self.space.mf;
        self.diagonal_with(
            |bi, s| cell_diagonal_reference(mf, bi, s),
            |bi, s| face_diagonal_reference(mf, bi, FaceSide::Boundary, s),
        )
    }

    /// Distribute the local block diagonals that `cell(bi, s)` and
    /// `face(bi, s)` leave in `s.dofs` through the constraint rows, with
    /// squared weights, local dof by local dof and lane by lane.
    fn diagonal_with(
        &self,
        cell: impl Fn(usize, &mut CellScratch<T, L>) + Sync,
        face: impl Fn(usize, &mut FaceScratch<T, L>) + Sync,
    ) -> Vec<T> {
        let space = &*self.space;
        let dpc = space.mf.dofs_per_cell;
        let mut diag = vec![T::ZERO; space.n_dofs];
        self.local_blocks(
            |bi, s| {
                cell(bi, s);
                s.dofs.clone()
            },
            |bi, s| {
                face(bi, s);
                s.dofs.clone()
            },
            |lanes, n_filled, own| {
                for (i, v) in own.iter().enumerate() {
                    for l in 0..n_filled {
                        let cell = lanes[l] as usize;
                        let lo = space.row_ptr[cell * dpc + i] as usize;
                        let hi = space.row_ptr[cell * dpc + i + 1] as usize;
                        for &(d, w) in &space.entries[lo..hi] {
                            diag[d as usize] += w * w * v[l];
                        }
                    }
                }
            },
        );
        for (i, &c) in space.constrained.iter().enumerate() {
            if c || diag[i].to_f64() == 0.0 {
                diag[i] = T::ONE;
            }
        }
        diag
    }

    /// Assemble the full sparse matrix (coarsest level only — feeds the
    /// AMG coarse solver; it holds every local matrix at once). Local
    /// cell/boundary-face matrices are computed by applying the local
    /// kernels to unit vectors, then distributed with the constraint
    /// weights on both sides.
    pub fn assemble(&self) -> dgflow_solvers::CsrMatrix<T> {
        let space = &*self.space;
        let mf = &*space.mf;
        let n = space.n_dofs;
        let dpc = mf.dofs_per_cell;
        let mut triplets: Vec<(usize, usize, T)> = Vec::new();
        self.local_blocks(
            |bi, s| {
                (0..dpc)
                    .map(|j| {
                        cell_column(mf, bi, j, s);
                        s.dofs.clone()
                    })
                    .collect::<Vec<_>>()
            },
            |bi, s| {
                (0..dpc)
                    .map(|j| {
                        face_column(mf, bi, FaceSide::Boundary, j, s);
                        s.dofs.clone()
                    })
                    .collect()
            },
            |lanes, n_filled, columns| {
                for (j_local, column) in columns.iter().enumerate() {
                    for l in 0..n_filled {
                        let cell = lanes[l] as usize;
                        let lo_j = space.row_ptr[cell * dpc + j_local] as usize;
                        let hi_j = space.row_ptr[cell * dpc + j_local + 1] as usize;
                        for i_local in 0..dpc {
                            let v = column[i_local][l];
                            if v.to_f64() == 0.0 {
                                continue;
                            }
                            let lo_i = space.row_ptr[cell * dpc + i_local] as usize;
                            let hi_i = space.row_ptr[cell * dpc + i_local + 1] as usize;
                            for &(di, wi) in &space.entries[lo_i..hi_i] {
                                for &(dj, wj) in &space.entries[lo_j..hi_j] {
                                    triplets.push((di as usize, dj as usize, wi * v * wj));
                                }
                            }
                        }
                    }
                }
            },
        );
        // identity rows for constrained dofs
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                triplets.push((i, i, T::ONE));
            }
        }
        dgflow_solvers::CsrMatrix::from_triplets(n, n, &triplets)
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for CgLaplaceOperator<T, L> {
    fn len(&self) -> usize {
        self.space.n_dofs
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let space = &*self.space;
        let mf = &*space.mf;
        mf.loop_over_groups(
            Some(("cg_laplace.apply", self.flops_per_apply)),
            dst,
            &space.cell_colors,
            (
                || CellScratch::new(mf),
                |bi, s, out| {
                    let plan = &space.cell_plans[bi];
                    space.gather_batch(plan, src, &mut s.dofs);
                    apply_cell_laplace(mf, bi, s);
                    // SAFETY: the loop runs one cell color at a time, and
                    // the batches of a color are dof-disjoint.
                    unsafe { space.scatter_add_batch(plan, &s.dofs, out) };
                },
            ),
            // boundary Nitsche faces (serial: boundary share of work is
            // small and correctness is simpler without a second coloring)
            (
                || FaceScratch::new(mf),
                |bi, sm, out| {
                    if let Some(plan) = self.nitsche_plan(bi) {
                        space.gather_batch(plan, src, &mut sm.dofs);
                        nitsche_boundary_term(mf, bi, sm);
                        // SAFETY: the loop runs the face pass serially.
                        unsafe { space.scatter_add_batch(plan, &sm.dofs, out) };
                    }
                },
            ),
        );
        self.copy_constrained(src, dst);
    }

    fn diagonal(&self) -> Vec<T> {
        self.compute_diagonal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    /// The diagonal kernels run batch by batch on one thread, each block's
    /// entries summed into the shared dofs as soon as it is computed.
    fn serial_diagonal<T: Real, const L: usize>(op: &CgLaplaceOperator<T, L>) -> Vec<T> {
        let space = &*op.space;
        let mf = &*space.mf;
        let dpc = mf.dofs_per_cell;
        let tables = DiagonalTables::new(mf);
        let mut diag = vec![T::ZERO; space.n_dofs];
        let mut add = |lanes: &[u32; L], n_filled: usize, own: &[Simd<T, L>]| {
            for (i, v) in own.iter().enumerate() {
                for l in 0..n_filled {
                    let cell = lanes[l] as usize;
                    let lo = space.row_ptr[cell * dpc + i] as usize;
                    let hi = space.row_ptr[cell * dpc + i + 1] as usize;
                    for &(d, w) in &space.entries[lo..hi] {
                        diag[d as usize] += w * w * v[l];
                    }
                }
            }
        };
        let mut s = CellScratch::<T, L>::new(mf);
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            cell_diagonal(mf, &tables, bi, &mut s);
            add(&b.cells, b.n_filled, &s.dofs);
        }
        let mut sf = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            if op.nitsche_plan(bi).is_some() {
                face_diagonal(mf, &tables, bi, FaceSide::Boundary, &mut sf);
                add(&b.minus, b.n_filled, &sf.dofs);
            }
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c || diag[i].to_f64() == 0.0 {
                diag[i] = T::ONE;
            }
        }
        diag
    }

    fn check<T: Real, const L: usize>(forest: &Forest, degree: usize) {
        let manifold = TrilinearManifold::from_forest(forest);
        let space = Arc::new(CgSpace::<T, L>::new(forest, &manifold, degree));
        assert!(space.mf.cell_batches.len() > 2 * crate::util::SETUP_GRAIN);
        let bcs = [
            vec![BoundaryCondition::Dirichlet],
            vec![BoundaryCondition::Neumann],
        ];
        for bc in bcs {
            let op = CgLaplaceOperator::with_bc(space.clone(), bc);
            let bits = |v: Vec<T>| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(op.compute_diagonal()),
                bits(serial_diagonal(&op)),
                "k = {degree}"
            );
        }
    }

    #[test]
    fn diagonal_matches_serial_loop_bitwise() {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(2);
        let mut marks = vec![false; forest.n_active()];
        for c in [0, 9, 27, 50] {
            marks[c] = true;
        }
        forest.refine_active(&marks);
        for degree in 1..=3 {
            check::<f64, 2>(&forest, degree);
            check::<f32, 2>(&forest, degree);
        }
    }
}
