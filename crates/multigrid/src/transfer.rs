//! Level-transfer operators of the hybrid multigrid hierarchy: DG→CG on
//! the same mesh, polynomial bisection between CG degrees, and geometric
//! (global-coarsening) transfer between forests.
//!
//! All three share one structure: per fine cell, gather the coarse
//! representation (with constraint resolution), interpolate with 1-D
//! tensor-product matrices, and scatter into the fine representation with
//! valence weights. Restriction is the exact matrix transpose of
//! prolongation, which keeps the V-cycle a symmetric preconditioner.
//!
//! The sweeps run like the level operators: over SIMD batches of `L` fine
//! cells that share one child code (so every lane uses the same 1-D
//! matrices), with batched gather plans built once, on the global pool.
//! Writes into a shared (continuous) vector take two passes: the batches
//! store their cell-local results, then every dof sums its contributions
//! in the order of the per-cell loop. Each pass writes disjoint slots, so
//! no coloring is needed, and the result is bitwise that of the serial
//! per-cell loop for any thread count.

use dgflow_comm::{parallel_chunks_mut, parallel_for_chunks, PAR_GRAIN};
use dgflow_fem::cg_space::{CgSpace, GatherPlan};
use dgflow_fem::evaluator::{gather_cell, scatter_add_cell};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{CellBatch, MatrixFree};
use dgflow_mesh::Forest;
use dgflow_simd::{Real, Simd};
use dgflow_tensor::sumfac::apply_1d;
use dgflow_tensor::{DMatrix, LagrangeBasis1D, NodeSet};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Parallel grain of both passes, in fine-cell DoFs (cell pass) or dofs
/// (assembly pass) per task. The race-detector build splits down to single
/// items so that it sees as many cross-thread pairs as possible.
fn grain() -> usize {
    if cfg!(feature = "check-disjoint") {
        1
    } else {
        PAR_GRAIN
    }
}

/// The fine side of a transfer.
pub enum FineSpace<T: Real, const L: usize> {
    /// Discontinuous fine space (finest level only).
    Dg(Arc<MatrixFree<T, L>>),
    /// Continuous fine space.
    Cg(Arc<CgSpace<T, L>>),
}

impl<T: Real, const L: usize> FineSpace<T, L> {
    fn n_dofs(&self) -> usize {
        match self {
            FineSpace::Dg(mf) => mf.n_dofs(),
            FineSpace::Cg(s) => s.n_dofs,
        }
    }
    fn n1(&self) -> usize {
        match self {
            FineSpace::Dg(mf) => mf.n_1d(),
            FineSpace::Cg(s) => s.mf.n_1d(),
        }
    }
}

/// A SIMD batch of fine cells sharing one child code.
struct TransferBatch<const L: usize> {
    /// Fine cells (`u32::MAX` = inactive lane).
    fine: CellBatch<L>,
    /// The coarse cell of each lane (`u32::MAX` = inactive lane).
    coarse: [u32; L],
    /// Child code: 255 = same cell (p-/DG-transfer or un-coarsened cell);
    /// otherwise the octant of the fine cell in its coarse parent.
    code: u8,
}

/// A prolongation/restriction pair between one fine and one coarse level.
pub struct Transfer<T: Real, const L: usize> {
    fine: FineSpace<T, L>,
    coarse: Arc<CgSpace<T, L>>,
    batches: Vec<TransferBatch<L>>,
    /// Coarse gather plan per batch; `None` when the batches are the
    /// coarse space's own cell batches, whose plans are used.
    coarse_plans: Option<Vec<GatherPlan<L>>>,
    /// Continuous fine side, per (batch, local node): the fine dof of each
    /// lane (`u32::MAX` = inactive lane) and its valence weight. Empty for
    /// a DG fine space, which is read and written cell by cell.
    fine_idx: Vec<[u32; L]>,
    fine_w: Vec<Simd<T, L>>,
    /// Restriction's sum per coarse dof over the batches' coarse-local
    /// results (constraints resolved).
    coarse_sum: Assembly<T>,
    /// Prolongation's sum per fine dof over the batches' fine-local
    /// results; `None` for a DG fine space, whose cells own their dofs.
    fine_sum: Option<Assembly<T>>,
    /// Recycled cell-local result buffers, one per concurrent caller.
    buffers: Mutex<Vec<Vec<Simd<T, L>>>>,
    /// Full 1-D interpolation (coarse nodes → fine nodes).
    m_full: DMatrix<T>,
    /// Child-interval interpolation for h-transfer.
    m_child: [DMatrix<T>; 2],
    /// Transposes of `m_full` / `m_child`, precomputed at construction so
    /// every `restrict` call streams them straight from the struct.
    mt_full: DMatrix<T>,
    mt_child: [DMatrix<T>; 2],
}

/// Per-task work arrays of the sum-factorized interpolation.
struct Scratch<T: Real, const L: usize> {
    a: Vec<Simd<T, L>>,
    t0: Vec<Simd<T, L>>,
    t1: Vec<Simd<T, L>>,
    b: Vec<Simd<T, L>>,
}

impl<T: Real, const L: usize> Scratch<T, L> {
    fn new(n1_max: usize) -> Self {
        let m = n1_max.pow(3);
        Self {
            a: vec![Simd::zero(); m],
            t0: vec![Simd::zero(); m],
            t1: vec![Simd::zero(); m],
            b: vec![Simd::zero(); m],
        }
    }
}

impl<T: Real, const L: usize> Transfer<T, L> {
    /// Assemble a transfer over `batches`. `coarse_plans: None` means the
    /// batches coincide with the coarse cell batches.
    fn with_batches(
        fine: FineSpace<T, L>,
        coarse: Arc<CgSpace<T, L>>,
        batches: Vec<TransferBatch<L>>,
        coarse_plans: Option<Vec<GatherPlan<L>>>,
        m_full: DMatrix<T>,
        m_child: [DMatrix<T>; 2],
    ) -> Self {
        let (fine_idx, fine_w) = match &fine {
            FineSpace::Dg(_) => (Vec::new(), Vec::new()),
            FineSpace::Cg(s) => fine_tables(s, &batches),
        };
        // The per-cell loop visits fine cells in order, each one's local
        // nodes in order, and a constrained node's resolved row in order.
        let lanes = lanes_by_cell(&batches);
        let dpc_c = coarse.mf.dofs_per_cell;
        let coarse_sum = Assembly::new(
            coarse.n_dofs,
            lanes.iter().flat_map(|&(bi, l)| {
                let cc = batches[bi].coarse[l] as usize;
                let coarse = &coarse;
                (0..dpc_c).flat_map(move |i| {
                    let row = cc * dpc_c + i;
                    let rng = coarse.row_ptr[row] as usize..coarse.row_ptr[row + 1] as usize;
                    coarse.entries[rng]
                        .iter()
                        .map(move |&(d, w)| (d, lane_slot::<L>(bi, dpc_c, i, l), w))
                })
            }),
        );
        let fine_sum = match &fine {
            FineSpace::Dg(_) => None,
            FineSpace::Cg(s) => {
                let dpc_f = s.mf.dofs_per_cell;
                // the cell pass applies the valence weights
                let fine_idx = &fine_idx;
                Some(Assembly::new(
                    s.n_dofs,
                    lanes.iter().flat_map(|&(bi, l)| {
                        (0..dpc_f).map(move |i| {
                            let slot = lane_slot::<L>(bi, dpc_f, i, l);
                            (fine_idx[bi * dpc_f + i][l], slot, T::ONE)
                        })
                    }),
                ))
            }
        };
        let mt_full = m_full.transpose();
        let mt_child = [m_child[0].transpose(), m_child[1].transpose()];
        Self {
            fine,
            coarse,
            batches,
            coarse_plans,
            fine_idx,
            fine_w,
            coarse_sum,
            fine_sum,
            buffers: Mutex::new(Vec::new()),
            m_full,
            m_child,
            mt_full,
            mt_child,
        }
    }

    /// DG(k) → CG(k) transfer on the same forest (the continuity injection
    /// of Fig. 5).
    pub fn dg_to_cg(fine: Arc<MatrixFree<T, L>>, coarse: Arc<CgSpace<T, L>>) -> Self {
        assert_eq!(fine.n_cells, coarse.mf.n_cells);
        assert_eq!(fine.params.degree, coarse.mf.params.degree);
        let k = fine.params.degree;
        let gll = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let gauss_nodes = NodeSet::Gauss.nodes(k);
        let m_full: DMatrix<T> = gll.value_matrix(&gauss_nodes);
        let m_child = [m_full.clone(), m_full.clone()];
        let batches = same_cell_batches(&coarse);
        Self::with_batches(FineSpace::Dg(fine), coarse, batches, None, m_full, m_child)
    }

    /// CG(k_fine) → CG(k_coarse) polynomial transfer on the same forest.
    pub fn p_transfer(fine: Arc<CgSpace<T, L>>, coarse: Arc<CgSpace<T, L>>) -> Self {
        assert_eq!(fine.mf.n_cells, coarse.mf.n_cells);
        let kf = fine.mf.params.degree;
        let kc = coarse.mf.params.degree;
        assert!(kc < kf);
        let cb = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(kc));
        let fine_nodes = NodeSet::GaussLobatto.nodes(kf);
        let m_full: DMatrix<T> = cb.value_matrix(&fine_nodes);
        let m_child = [m_full.clone(), m_full.clone()];
        let batches = same_cell_batches(&coarse);
        Self::with_batches(FineSpace::Cg(fine), coarse, batches, None, m_full, m_child)
    }

    /// Geometric transfer between a forest and its global coarsening (same
    /// degree, usually 1).
    pub fn h_transfer(
        fine: Arc<CgSpace<T, L>>,
        fine_forest: &Forest,
        coarse: Arc<CgSpace<T, L>>,
        coarse_forest: &Forest,
    ) -> Self {
        let k = fine.mf.params.degree;
        assert_eq!(k, coarse.mf.params.degree);
        let basis = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let nodes = NodeSet::GaussLobatto.nodes(k);
        let m_full: DMatrix<T> = DMatrix::identity(k + 1);
        let m_child = [
            basis.subinterval_matrix(0, &nodes),
            basis.subinterval_matrix(1, &nodes),
        ];
        // index coarse cells by (tree, level, anchor)
        let mut index: HashMap<(u32, u8, [u32; 3]), u32> = HashMap::new();
        for (i, c) in coarse_forest.active_cells().enumerate() {
            index.insert((c.tree, c.level, c.anchor), i as u32);
        }
        // Batch fine cells by child code in SFC order: one open batch per
        // code, emitted when full, partial ones at the end.
        let mut open: BTreeMap<u8, (CellBatch<L>, [u32; L])> = BTreeMap::new();
        let mut batches = Vec::new();
        let mut emit = |code: u8, (fine, coarse): (CellBatch<L>, [u32; L])| {
            batches.push(TransferBatch { fine, coarse, code });
        };
        for (fc, cell) in fine_forest.active_cells().enumerate() {
            let (cc, code) = if let Some(&cc) = index.get(&(cell.tree, cell.level, cell.anchor)) {
                (cc, 255u8)
            } else {
                // parent cell in the coarse forest
                assert!(cell.level > 0, "fine cell missing from coarse forest");
                let size = cell.size();
                let parent_anchor = [
                    cell.anchor[0] & !(2 * size - 1),
                    cell.anchor[1] & !(2 * size - 1),
                    cell.anchor[2] & !(2 * size - 1),
                ];
                let cc = *index
                    .get(&(cell.tree, cell.level - 1, parent_anchor))
                    .expect("coarse parent cell not found — not a global coarsening?");
                let code = (((cell.anchor[0] - parent_anchor[0]) / size)
                    + 2 * ((cell.anchor[1] - parent_anchor[1]) / size)
                    + 4 * ((cell.anchor[2] - parent_anchor[2]) / size))
                    as u8;
                (cc, code)
            };
            let (b, ccs) = open.entry(code).or_insert_with(|| {
                (
                    CellBatch {
                        cells: [u32::MAX; L],
                        n_filled: 0,
                    },
                    [u32::MAX; L],
                )
            });
            b.cells[b.n_filled] = fc as u32;
            ccs[b.n_filled] = cc;
            b.n_filled += 1;
            if b.n_filled == L {
                emit(code, open.remove(&code).expect("open batch"));
            }
        }
        for (code, batch) in open {
            emit(code, batch);
        }
        let plans = batches
            .iter()
            .map(|b| coarse.gather_plan(&b.coarse))
            .collect();
        Self::with_batches(
            FineSpace::Cg(fine),
            coarse,
            batches,
            Some(plans),
            m_full,
            m_child,
        )
    }

    /// Fine-space size.
    pub fn n_fine(&self) -> usize {
        self.fine.n_dofs()
    }

    /// Coarse-space size.
    pub fn n_coarse(&self) -> usize {
        self.coarse.n_dofs
    }

    fn coarse_plan(&self, bi: usize) -> &GatherPlan<L> {
        match &self.coarse_plans {
            Some(plans) => &plans[bi],
            None => &self.coarse.cell_plans[bi],
        }
    }

    fn matrices_for(&self, code: u8) -> [&DMatrix<T>; 3] {
        if code == 255 {
            [&self.m_full; 3]
        } else {
            [
                &self.m_child[(code & 1) as usize],
                &self.m_child[((code >> 1) & 1) as usize],
                &self.m_child[((code >> 2) & 1) as usize],
            ]
        }
    }

    fn matrices_t_for(&self, code: u8) -> [&DMatrix<T>; 3] {
        if code == 255 {
            [&self.mt_full; 3]
        } else {
            [
                &self.mt_child[(code & 1) as usize],
                &self.mt_child[((code >> 1) & 1) as usize],
                &self.mt_child[((code >> 2) & 1) as usize],
            ]
        }
    }

    /// Run `kernel(batch, scratch)` over all batches on the pool.
    fn sweep(&self, kernel: impl Fn(usize, &mut Scratch<T, L>) + Sync) {
        let n1_max = self.fine.n1().max(self.coarse.mf.n_1d());
        let min_batches = grain().div_ceil(L * self.fine.n1().pow(3));
        parallel_for_chunks(self.batches.len(), min_batches, |range| {
            let mut s = Scratch::new(n1_max);
            for bi in range {
                kernel(bi, &mut s);
            }
        });
    }

    /// A recycled cell-local result buffer of `len` entries.
    fn take_buffer(&self, len: usize) -> Vec<Simd<T, L>> {
        let mut buf = self
            .buffers
            .lock()
            .expect("transfer buffers poisoned")
            .pop()
            .unwrap_or_default();
        buf.resize(len, Simd::zero());
        buf
    }

    fn recycle_buffer(&self, buf: Vec<Simd<T, L>>) {
        self.buffers
            .lock()
            .expect("transfer buffers poisoned")
            .push(buf);
    }

    /// `fine += P coarse`.
    pub fn prolongate_add(&self, coarse_vec: &[T], fine_vec: &mut [T]) {
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.fine.n1();
        let (dpc_c, dpc_f) = (nc1 * nc1 * nc1, nf1 * nf1 * nf1);
        // DG cells own their dofs and take their results directly; a
        // continuous fine space sums them per dof afterwards
        let mut buf = match self.fine_sum {
            Some(_) => self.take_buffer(self.batches.len() * dpc_f),
            None => Vec::new(),
        };
        let local = SharedMut::new(&mut buf);
        let out = SharedMut::new(&mut *fine_vec);
        self.sweep(|bi, s| {
            let batch = &self.batches[bi];
            let src = &mut s.a[..dpc_c];
            self.coarse
                .gather_batch(self.coarse_plan(bi), coarse_vec, src);
            let m = self.matrices_for(batch.code);
            let t0 = &mut s.t0[..nf1 * nc1 * nc1];
            let t1 = &mut s.t1[..nf1 * nf1 * nc1];
            let t2 = &mut s.b[..dpc_f];
            apply_1d(m[0], src, t0, [nc1, nc1, nc1], 0, false);
            apply_1d(m[1], t0, t1, [nf1, nc1, nc1], 1, false);
            apply_1d(m[2], t1, t2, [nf1, nf1, nc1], 2, false);
            if self.fine_sum.is_none() {
                scatter_add_cell(&batch.fine, t2, dpc_f, 0, dpc_f, &out);
                return;
            }
            let w = &self.fine_w[bi * dpc_f..(bi + 1) * dpc_f];
            for (i, (&w, &v)) in w.iter().zip(t2.iter()).enumerate() {
                // SAFETY: every batch owns its `dpc_f` buffer slots.
                unsafe { local.write(bi * dpc_f + i, w * v) };
            }
        });
        if let Some(sum) = &self.fine_sum {
            sum.add_into(&buf, fine_vec);
            self.recycle_buffer(buf);
        }
    }

    /// `coarse = Pᵀ fine` (coarse is overwritten; constrained coarse
    /// entries are zero).
    pub fn restrict(&self, fine_vec: &[T], coarse_vec: &mut [T]) {
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.fine.n1();
        let (dpc_c, dpc_f) = (nc1 * nc1 * nc1, nf1 * nf1 * nf1);
        let mut buf = self.take_buffer(self.batches.len() * dpc_c);
        let local = SharedMut::new(&mut buf);
        self.sweep(|bi, s| {
            let batch = &self.batches[bi];
            // read fine local values (plain, weighted)
            let fl = &mut s.a[..dpc_f];
            if self.fine_idx.is_empty() {
                gather_cell(&batch.fine, fine_vec, dpc_f, 0, dpc_f, fl);
            } else {
                let base = bi * dpc_f;
                let rows = self.fine_idx[base..base + dpc_f]
                    .iter()
                    .zip(&self.fine_w[base..base + dpc_f]);
                for (f, (ix, &w)) in fl.iter_mut().zip(rows) {
                    *f = w * Simd::gather_u32(fine_vec, ix);
                }
            }
            let mt = self.matrices_t_for(batch.code);
            let t0 = &mut s.t0[..nc1 * nf1 * nf1];
            let t1 = &mut s.t1[..nc1 * nc1 * nf1];
            let t2 = &mut s.b[..dpc_c];
            apply_1d(mt[0], fl, t0, [nf1, nf1, nf1], 0, false);
            apply_1d(mt[1], t0, t1, [nc1, nf1, nf1], 1, false);
            apply_1d(mt[2], t1, t2, [nc1, nc1, nf1], 2, false);
            for (i, &v) in t2.iter().enumerate() {
                // SAFETY: every batch owns its `dpc_c` buffer slots.
                unsafe { local.write(bi * dpc_c + i, v) };
            }
        });
        // constrained coarse dofs are nobody's master: their sums are empty
        coarse_vec.fill(T::ZERO);
        self.coarse_sum.add_into(&buf, coarse_vec);
        self.recycle_buffer(buf);
    }
}

/// Per-dof sums over cell-local results in a fixed order: dof `d` adds
/// `w[k] · buf[src[k]]` for `k` in `row_ptr[d]..row_ptr[d + 1]`, `src`
/// indexing the buffer's scalar lanes (see [`lane_slot`]). `w` is empty
/// when every weight is one (no constrained node contributes).
struct Assembly<T> {
    row_ptr: Vec<u32>,
    src: Vec<u32>,
    w: Vec<T>,
}

impl<T: Real> Assembly<T> {
    /// Group `(dof, slot, weight)` contributions by dof, keeping their
    /// order within each dof.
    fn new(n_dofs: usize, contributions: impl Iterator<Item = (u32, u32, T)> + Clone) -> Self {
        let mut row_ptr = vec![0u32; n_dofs + 1];
        let mut unit = true;
        for (d, _, w) in contributions.clone() {
            row_ptr[d as usize + 1] += 1;
            unit &= w == T::ONE;
        }
        for d in 0..n_dofs {
            row_ptr[d + 1] += row_ptr[d];
        }
        let mut next = row_ptr.clone();
        let mut src = vec![0u32; row_ptr[n_dofs] as usize];
        let mut w = vec![T::ZERO; if unit { 0 } else { src.len() }];
        for (d, slot, weight) in contributions {
            let k = next[d as usize] as usize;
            src[k] = slot;
            if !unit {
                w[k] = weight;
            }
            next[d as usize] += 1;
        }
        Self { row_ptr, src, w }
    }

    /// `out[d] += Σ_k w[k] · buf[src[k]]`, added one term at a time, on
    /// the pool.
    fn add_into<const L: usize>(&self, buf: &[Simd<T, L>], out: &mut [T]) {
        let unit = self.w.is_empty();
        parallel_chunks_mut([out], grain(), |off, [out]| {
            let rows = self.row_ptr[off..=off + out.len()].windows(2);
            for (o, r) in out.iter_mut().zip(rows) {
                let mut acc = *o;
                for k in r[0] as usize..r[1] as usize {
                    let slot = self.src[k] as usize;
                    let v = buf[slot / L][slot % L];
                    // a unit weight would not change the product's bits
                    acc += if unit { v } else { self.w[k] * v };
                }
                *o = acc;
            }
        });
    }
}

/// Scalar slot of lane `l`, local node `i` of batch `bi` in a buffer of
/// `dpc` SIMD values per batch.
fn lane_slot<const L: usize>(bi: usize, dpc: usize, i: usize, l: usize) -> u32 {
    ((bi * dpc + i) * L + l) as u32
}

/// `(batch, lane)` of every fine cell, in cell order.
fn lanes_by_cell<const L: usize>(batches: &[TransferBatch<L>]) -> Vec<(usize, usize)> {
    let n_cells = batches.iter().map(|b| b.fine.n_filled).sum();
    let mut lanes = vec![(usize::MAX, 0); n_cells];
    for (bi, b) in batches.iter().enumerate() {
        for (l, &cell) in b.fine.cells[..b.fine.n_filled].iter().enumerate() {
            lanes[cell as usize] = (bi, l);
        }
    }
    lanes
}

/// Transfer batches of a same-forest transfer: the coarse space's own
/// cell batches (every fine cell is its own coarse cell).
fn same_cell_batches<T: Real, const L: usize>(coarse: &CgSpace<T, L>) -> Vec<TransferBatch<L>> {
    coarse
        .mf
        .cell_batches
        .iter()
        .map(|b| TransferBatch {
            fine: b.clone(),
            coarse: b.cells,
            code: 255,
        })
        .collect()
}

/// Batch-transposed fine dof indices and valence weights (`1 / number of
/// cells sharing the dof`) of a continuous fine space; inactive lanes get
/// index `u32::MAX` and weight 0.
fn fine_tables<T: Real, const L: usize>(
    space: &CgSpace<T, L>,
    batches: &[TransferBatch<L>],
) -> (Vec<[u32; L]>, Vec<Simd<T, L>>) {
    let dpc = space.mf.dofs_per_cell;
    let mut count = vec![0u32; space.n_dofs];
    for &d in &space.l2g {
        count[d as usize] += 1;
    }
    let mut idx = vec![[u32::MAX; L]; batches.len() * dpc];
    let mut w = vec![Simd::zero(); batches.len() * dpc];
    for (bi, b) in batches.iter().enumerate() {
        for (l, &cell) in b.fine.cells[..b.fine.n_filled].iter().enumerate() {
            for i in 0..dpc {
                let d = space.l2g[cell as usize * dpc + i];
                idx[bi * dpc + i][l] = d;
                w[bi * dpc + i][l] = T::ONE / T::from_usize(count[d as usize] as usize);
            }
        }
    }
    (idx, w)
}
