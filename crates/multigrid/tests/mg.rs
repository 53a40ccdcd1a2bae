//! Hybrid multigrid: the batched level transfers (against a per-cell
//! reference, adjointness, polynomial reproduction, repeatability),
//! hierarchy structure, and mesh-independent convergence of the
//! preconditioned Poisson solve.

use dgflow_fem::cg_space::CgSpace;
use dgflow_fem::operators::{integrate_rhs, interpolate, interpolate_nodal, l2_error};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_multigrid::{solve_poisson, HybridMultigrid, MgParams, MixedPrecisionMg, Transfer};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::{cg_solve, LinearOperator, Preconditioner};
use dgflow_tensor::sumfac::apply_1d;
use dgflow_tensor::{DMatrix, LagrangeBasis1D, NodeSet};
use std::collections::HashMap;
use std::sync::Arc;

const L: usize = 4;

fn cube_forest(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]));
    f.refine_global(1);
    let mut marks = vec![false; f.n_active()];
    marks[2] = true;
    marks[9] = true;
    f.refine_active(&marks);
    f
}

/// The lung bifurcation (deformed hexahedra), unrefined.
fn bifurcation_forest() -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    Forest::new(mesh.coarse)
}

#[test]
fn prolongation_preserves_linear_functions() {
    // a linear function on the coarse space must prolongate to its
    // interpolation on the fine space (DG): checks weights + constraints
    let forest = hanging_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let cg = Arc::new(CgSpace::<f64, L>::new(&forest, &manifold, 2));
    let t = Transfer::dg_to_cg(mf.clone(), cg.clone());
    let f = |x: [f64; 3]| 1.0 + x[0] - 2.0 * x[1] + 0.5 * x[2];
    let coarse = cg.interpolate(&f);
    let mut fine = vec![0.0; mf.n_dofs()];
    t.prolongate_add(&coarse, &mut fine);
    let expect = interpolate(&mf, &f);
    for i in 0..fine.len() {
        assert!(
            (fine[i] - expect[i]).abs() < 1e-11,
            "dof {i}: {} vs {}",
            fine[i],
            expect[i]
        );
    }
}

#[test]
fn hierarchy_levels_shrink_towards_amg() {
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mg = HybridMultigrid::<f32, L>::build(
        &forest,
        &manifold,
        2,
        vec![BoundaryCondition::Dirichlet],
        MgParams::default(),
    );
    let sizes = mg.level_sizes();
    assert!(sizes.len() >= 4, "{sizes:?}");
    assert!(sizes[0].0.starts_with("DG"));
    for w in sizes.windows(2) {
        assert!(w[1].1 <= w[0].1, "levels must not grow: {sizes:?}");
    }
    // coarsest matrix-free level matches the assembled AMG system
    assert_eq!(mg.coarse_matrix.n_rows(), sizes.last().unwrap().1);
}

fn mg_iterations(forest: &Forest, degree: usize) -> (usize, f64) {
    use std::f64::consts::PI;
    let manifold = TrilinearManifold::from_forest(forest);
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let f = move |x: [f64; 3]| 3.0 * PI * PI * exact(x);
    let mut u = Vec::new();
    let stats = solve_poisson::<L>(
        forest,
        &manifold,
        degree,
        vec![BoundaryCondition::Dirichlet],
        &f,
        &exact,
        1e-10,
        &mut u,
    );
    assert!(stats.converged, "{stats:?}");
    // verify the solution is actually right, not just converged
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        forest,
        &manifold,
        MfParams::dg(degree),
    ));
    let err = l2_error(&mf, &u, &exact);
    (stats.iterations, err)
}

#[test]
fn mg_preconditioned_cg_converges_mesh_independently() {
    let (it1, e1) = mg_iterations(&cube_forest(1), 2);
    let (it2, e2) = mg_iterations(&cube_forest(2), 2);
    assert!(it1 <= 25, "coarse: {it1} iterations");
    assert!(it2 <= it1 + 5, "iteration growth {it1} → {it2}");
    // and the discretization error shrinks at the expected rate
    let rate = (e1 / e2).log2();
    assert!(rate > 2.5, "rate {rate}");
}

#[test]
fn mg_handles_hanging_nodes() {
    let (it, _) = mg_iterations(&hanging_forest(), 2);
    assert!(it <= 30, "{it} iterations on adaptive mesh");
}

#[test]
fn mixed_precision_does_not_degrade_convergence() {
    // paper: SP V-cycle does not significantly affect convergence
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc.clone());
    let rhs = integrate_rhs(&mf, &|x| x[0] * x[1] + 1.0);

    let mg32 = MixedPrecisionMg::<L> {
        mg: HybridMultigrid::<f32, L>::build(
            &forest,
            &manifold,
            2,
            bc.clone(),
            MgParams::default(),
        ),
    };
    let mg64 =
        HybridMultigrid::<f64, L>::build(&forest, &manifold, 2, bc.clone(), MgParams::default());

    let mut x32 = vec![0.0; mf.n_dofs()];
    let r32 = cg_solve(&op, &mg32, &rhs, &mut x32, 1e-10, 100);
    let mut x64 = vec![0.0; mf.n_dofs()];
    let r64 = cg_solve(&op, &mg64, &rhs, &mut x64, 1e-10, 100);
    assert!(r32.converged && r64.converged);
    assert!(
        r32.iterations <= r64.iterations + 3,
        "SP {} vs DP {}",
        r32.iterations,
        r64.iterations
    );
}

#[test]
fn vcycle_alone_contracts_the_error() {
    let forest = cube_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mg =
        HybridMultigrid::<f64, L>::build(&forest, &manifold, 2, bc.clone(), MgParams::default());
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc);
    let n = mf.n_dofs();
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 131 % 47) as f64) / 47.0).collect();
    let mut b = vec![0.0; n];
    op.apply(&x_true, &mut b);
    // one V-cycle from x=0
    let mut x = vec![0.0; n];
    mg.apply_precond(&b, &mut x);
    let e0: f64 = x_true.iter().map(|v| v * v).sum::<f64>().sqrt();
    let e1: f64 = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(e1 < 0.5 * e0, "V-cycle contraction only {}", e1 / e0);
}

#[test]
fn w_cycle_converges_at_least_as_fast_as_v_cycle() {
    use dgflow_multigrid::CycleType;
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc.clone());
    let rhs = integrate_rhs(&mf, &|x| (7.0 * x[0]).sin() * x[2]);
    let run = |cycle: CycleType| -> usize {
        let mg = HybridMultigrid::<f64, L>::build(
            &forest,
            &manifold,
            2,
            bc.clone(),
            MgParams {
                cycle,
                ..MgParams::default()
            },
        );
        let mut x = vec![0.0; mf.n_dofs()];
        let r = cg_solve(&op, &mg, &rhs, &mut x, 1e-10, 100);
        assert!(r.converged);
        r.iterations
    };
    let v = run(CycleType::V);
    let w = run(CycleType::W);
    assert!(w <= v, "W-cycle ({w}) worse than V-cycle ({v})");
}

// ---------------------------------------------------------------------------
// Batched transfers against the per-cell serial reference
// ---------------------------------------------------------------------------

/// The fine side of a reference transfer.
enum RefFine<T: Real, const N: usize> {
    Dg(Arc<MatrixFree<T, N>>),
    Cg(Arc<CgSpace<T, N>>),
}

/// The serial per-cell transfer the batched [`Transfer`] replaced, kept
/// here as its reference: one fine cell at a time on the caller thread,
/// sum factorization on one SIMD lane, constraint gathers through the
/// scalar reference rows.
struct RefTransfer<T: Real, const N: usize> {
    fine: RefFine<T, N>,
    coarse: Arc<CgSpace<T, N>>,
    /// Per fine cell: (coarse cell, child code); 255 = same cell.
    pairs: Vec<(u32, u8)>,
    m_full: DMatrix<T>,
    m_child: [DMatrix<T>; 2],
    /// Valence weights per (fine cell, local node).
    weights: Vec<T>,
}

impl<T: Real, const N: usize> RefTransfer<T, N> {
    fn new(
        fine: RefFine<T, N>,
        coarse: Arc<CgSpace<T, N>>,
        pairs: Vec<(u32, u8)>,
        m_full: DMatrix<T>,
        m_child: [DMatrix<T>; 2],
    ) -> Self {
        let weights = match &fine {
            RefFine::Dg(mf) => vec![T::ONE; mf.n_cells * mf.dofs_per_cell],
            RefFine::Cg(s) => {
                let mut count = vec![0u32; s.n_dofs];
                for &d in &s.l2g {
                    count[d as usize] += 1;
                }
                s.l2g
                    .iter()
                    .map(|&d| T::ONE / T::from_usize(count[d as usize] as usize))
                    .collect()
            }
        };
        Self {
            fine,
            coarse,
            pairs,
            m_full,
            m_child,
            weights,
        }
    }

    fn dg_to_cg(fine: Arc<MatrixFree<T, N>>, coarse: Arc<CgSpace<T, N>>) -> Self {
        let k = fine.params.degree;
        let gll = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let m_full: DMatrix<T> = gll.value_matrix(&NodeSet::Gauss.nodes(k));
        let pairs = (0..fine.n_cells).map(|c| (c as u32, 255u8)).collect();
        let m_child = [m_full.clone(), m_full.clone()];
        Self::new(RefFine::Dg(fine), coarse, pairs, m_full, m_child)
    }

    fn p_transfer(fine: Arc<CgSpace<T, N>>, coarse: Arc<CgSpace<T, N>>) -> Self {
        let cb = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(coarse.mf.params.degree));
        let m_full: DMatrix<T> =
            cb.value_matrix(&NodeSet::GaussLobatto.nodes(fine.mf.params.degree));
        let pairs = (0..fine.mf.n_cells).map(|c| (c as u32, 255u8)).collect();
        let m_child = [m_full.clone(), m_full.clone()];
        Self::new(RefFine::Cg(fine), coarse, pairs, m_full, m_child)
    }

    fn h_transfer(
        fine: Arc<CgSpace<T, N>>,
        fine_forest: &Forest,
        coarse: Arc<CgSpace<T, N>>,
        coarse_forest: &Forest,
    ) -> Self {
        let k = fine.mf.params.degree;
        let basis = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let nodes = NodeSet::GaussLobatto.nodes(k);
        let m_full: DMatrix<T> = DMatrix::identity(k + 1);
        let m_child = [
            basis.subinterval_matrix(0, &nodes),
            basis.subinterval_matrix(1, &nodes),
        ];
        let mut index: HashMap<(u32, u8, [u32; 3]), u32> = HashMap::new();
        for (i, c) in coarse_forest.active_cells().enumerate() {
            index.insert((c.tree, c.level, c.anchor), i as u32);
        }
        let mut pairs = Vec::new();
        for cell in fine_forest.active_cells() {
            if let Some(&cc) = index.get(&(cell.tree, cell.level, cell.anchor)) {
                pairs.push((cc, 255u8));
            } else {
                let size = cell.size();
                let pa = [
                    cell.anchor[0] & !(2 * size - 1),
                    cell.anchor[1] & !(2 * size - 1),
                    cell.anchor[2] & !(2 * size - 1),
                ];
                let cc = index[&(cell.tree, cell.level - 1, pa)];
                let code = (((cell.anchor[0] - pa[0]) / size)
                    + 2 * ((cell.anchor[1] - pa[1]) / size)
                    + 4 * ((cell.anchor[2] - pa[2]) / size)) as u8;
                pairs.push((cc, code));
            }
        }
        Self::new(RefFine::Cg(fine), coarse, pairs, m_full, m_child)
    }

    fn n1_fine(&self) -> usize {
        match &self.fine {
            RefFine::Dg(mf) => mf.n_1d(),
            RefFine::Cg(s) => s.mf.n_1d(),
        }
    }

    fn matrices(&self, code: u8, transpose: bool) -> [DMatrix<T>; 3] {
        let pick = |m: &DMatrix<T>| if transpose { m.transpose() } else { m.clone() };
        if code == 255 {
            [pick(&self.m_full), pick(&self.m_full), pick(&self.m_full)]
        } else {
            [
                pick(&self.m_child[(code & 1) as usize]),
                pick(&self.m_child[((code >> 1) & 1) as usize]),
                pick(&self.m_child[((code >> 2) & 1) as usize]),
            ]
        }
    }

    fn prolongate_add(&self, coarse_vec: &[T], fine_vec: &mut [T]) {
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.n1_fine();
        let dpc_f = nf1 * nf1 * nf1;
        let mut cl = vec![T::ZERO; self.coarse.mf.dofs_per_cell];
        let mut t0 = vec![Simd::<T, 1>::zero(); nf1 * nc1 * nc1];
        let mut t1 = vec![Simd::<T, 1>::zero(); nf1 * nf1 * nc1];
        let mut t2 = vec![Simd::<T, 1>::zero(); dpc_f];
        let mut src = vec![Simd::<T, 1>::zero(); cl.len()];
        for (fc, &(cc, code)) in self.pairs.iter().enumerate() {
            self.coarse.gather_ref(cc as usize, coarse_vec, &mut cl);
            for (s, &v) in src.iter_mut().zip(&cl) {
                s.0[0] = v;
            }
            let m = self.matrices(code, false);
            apply_1d(&m[0], &src, &mut t0, [nc1, nc1, nc1], 0, false);
            apply_1d(&m[1], &t0, &mut t1, [nf1, nc1, nc1], 1, false);
            apply_1d(&m[2], &t1, &mut t2, [nf1, nf1, nc1], 2, false);
            let base = fc * dpc_f;
            for i in 0..dpc_f {
                match &self.fine {
                    RefFine::Dg(_) => fine_vec[base + i] += t2[i].0[0],
                    RefFine::Cg(s) => {
                        fine_vec[s.l2g[base + i] as usize] += self.weights[base + i] * t2[i].0[0];
                    }
                }
            }
        }
    }

    fn restrict(&self, fine_vec: &[T], coarse_vec: &mut [T]) {
        coarse_vec.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(coarse_vec);
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.n1_fine();
        let dpc_c = self.coarse.mf.dofs_per_cell;
        let dpc_f = nf1 * nf1 * nf1;
        let mut fl = vec![Simd::<T, 1>::zero(); dpc_f];
        let mut t0 = vec![Simd::<T, 1>::zero(); nc1 * nf1 * nf1];
        let mut t1 = vec![Simd::<T, 1>::zero(); nc1 * nc1 * nf1];
        let mut t2 = vec![Simd::<T, 1>::zero(); dpc_c];
        let mut local = vec![T::ZERO; dpc_c];
        for (fc, &(cc, code)) in self.pairs.iter().enumerate() {
            let base = fc * dpc_f;
            for i in 0..dpc_f {
                fl[i].0[0] = match &self.fine {
                    RefFine::Dg(_) => fine_vec[base + i],
                    RefFine::Cg(s) => self.weights[base + i] * fine_vec[s.l2g[base + i] as usize],
                };
            }
            let mt = self.matrices(code, true);
            apply_1d(&mt[0], &fl, &mut t0, [nf1, nf1, nf1], 0, false);
            apply_1d(&mt[1], &t0, &mut t1, [nc1, nf1, nf1], 1, false);
            apply_1d(&mt[2], &t1, &mut t2, [nc1, nc1, nf1], 2, false);
            for (lv, t) in local.iter_mut().zip(&t2) {
                *lv = t.0[0];
            }
            // SAFETY: single-threaded loop, no concurrent access to `out`.
            unsafe { self.coarse.scatter_add(cc as usize, &local, &out) };
        }
        for (i, &c) in self.coarse.constrained.iter().enumerate() {
            if c {
                coarse_vec[i] = T::ZERO;
            }
        }
    }
}

/// A scalar function of position.
type ScalarFn<'a> = &'a (dyn Fn([f64; 3]) -> f64 + Sync);
/// Nodal interpolation of a scalar function into a fine space.
type Interp<T> = Box<dyn Fn(ScalarFn<'_>) -> Vec<T>>;

/// One transfer under test, with its reference and the data needed to
/// check polynomial reproduction.
struct TransferCase<T: Real, const N: usize> {
    tag: String,
    transfer: Transfer<T, N>,
    reference: RefTransfer<T, N>,
    coarse: Arc<CgSpace<T, N>>,
    /// Fine nodal interpolation of a function.
    fine_interp: Interp<T>,
}

/// DG(k) → CG(k) → CG(1) on `forest` for k = 2, 3, and CG(k) on `forest`
/// → CG(k) on its global coarsening for k = 1 (the hierarchy's
/// h-transfer) and k = 2, when it has one.
fn transfer_cases<T: Real, const N: usize>(forest: &Forest, name: &str) -> Vec<TransferCase<T, N>> {
    let manifold = TrilinearManifold::from_forest(forest);
    let cg = |f: &Forest, k: usize| Arc::new(CgSpace::<T, N>::new(f, &manifold, k));
    let cg_interp = |s: &Arc<CgSpace<T, N>>| {
        let s = s.clone();
        Box::new(move |f: ScalarFn<'_>| s.interpolate(f)) as Interp<T>
    };
    let cg1 = cg(forest, 1);
    let mut cases = Vec::new();
    for k in [2, 3] {
        let mf = Arc::new(MatrixFree::<T, N>::new(forest, &manifold, MfParams::dg(k)));
        let cgk = cg(forest, k);
        let mf_interp = {
            let mf = mf.clone();
            Box::new(move |f: ScalarFn<'_>| interpolate_nodal(&mf, f))
        };
        cases.push(TransferCase {
            tag: format!("{name} dg({k})→cg({k})"),
            transfer: Transfer::dg_to_cg(mf.clone(), cgk.clone()),
            reference: RefTransfer::dg_to_cg(mf, cgk.clone()),
            coarse: cgk.clone(),
            fine_interp: mf_interp,
        });
        cases.push(TransferCase {
            tag: format!("{name} p {k}→1"),
            transfer: Transfer::p_transfer(cgk.clone(), cg1.clone()),
            reference: RefTransfer::p_transfer(cgk.clone(), cg1.clone()),
            coarse: cg1.clone(),
            fine_interp: cg_interp(&cgk),
        });
    }
    if let Some(coarse_forest) = forest.coarsen_global() {
        for k in [1, 2] {
            let (cgf, cgc) = (cg(forest, k), cg(&coarse_forest, k));
            cases.push(TransferCase {
                tag: format!("{name} h at cg({k})"),
                transfer: Transfer::h_transfer(cgf.clone(), forest, cgc.clone(), &coarse_forest),
                reference: RefTransfer::h_transfer(
                    cgf.clone(),
                    forest,
                    cgc.clone(),
                    &coarse_forest,
                ),
                coarse: cgc,
                fine_interp: cg_interp(&cgf),
            });
        }
    }
    cases
}

/// Deterministic test vector with entries in [-0.5, 0.5).
fn pattern<T: Real>(n: usize, a: usize, m: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * a % m) as f64) / m as f64 - 0.5))
        .collect()
}

fn max_abs_diff<T: Real>(a: &[T], b: &[T]) -> (f64, f64) {
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max);
    let scale = b.iter().map(|y| y.to_f64().abs()).fold(1.0, f64::max);
    (diff, scale)
}

/// Every check of the batched transfers on one forest and precision;
/// `eps` is the precision's round-off scale.
fn check_transfers<T: Real, const N: usize>(forest: &Forest, name: &str, eps: f64) {
    let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
    for case in transfer_cases::<T, N>(forest, name) {
        let (t, r, tag) = (&case.transfer, &case.reference, &case.tag);
        let (nf, nc) = (t.n_fine(), t.n_coarse());
        let xc = pattern::<T>(nc, 31, 17);
        let yf = pattern::<T>(nf, 7, 23);

        // the same values as the per-cell reference: every dof adds its
        // contributions in the reference's order (prolongation adds into
        // a non-zero vector; only the sign of a zero may differ)
        let values = |v: &[T]| v.iter().map(|x| x.to_f64()).collect::<Vec<_>>();
        let mut pf = yf.clone();
        t.prolongate_add(&xc, &mut pf);
        let mut pf_ref = yf.clone();
        r.prolongate_add(&xc, &mut pf_ref);
        assert_eq!(values(&pf), values(&pf_ref), "{tag}: prolongation differs");
        let mut rc = vec![T::ZERO; nc];
        t.restrict(&yf, &mut rc);
        let mut rc_ref = vec![T::ZERO; nc];
        r.restrict(&yf, &mut rc_ref);
        assert_eq!(values(&rc), values(&rc_ref), "{tag}: restriction differs");

        // bitwise repeatable (restriction overwrites a dirty vector)
        let mut pf2 = yf.clone();
        t.prolongate_add(&xc, &mut pf2);
        assert_eq!(bits(&pf), bits(&pf2), "{tag}: prolongation not repeatable");
        let mut rc2 = xc.clone();
        t.restrict(&yf, &mut rc2);
        assert_eq!(bits(&rc), bits(&rc2), "{tag}: restriction not repeatable");

        // adjointness: <P x_c, y_f> = <x_c, Pᵀ y_f>
        let mut px = vec![T::ZERO; nf];
        t.prolongate_add(&xc, &mut px);
        let lhs: Vec<f64> = px
            .iter()
            .zip(&yf)
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .collect();
        let rhs: Vec<f64> = xc
            .iter()
            .zip(&rc)
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .collect();
        let scale: f64 = lhs.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        let (lhs, rhs) = (lhs.iter().sum::<f64>(), rhs.iter().sum::<f64>());
        assert!(
            (lhs - rhs).abs() <= 64.0 * eps * scale,
            "{tag}: <Px,y> = {lhs} vs <x,Pᵀy> = {rhs}"
        );

        // polynomials up to the coarse degree prolongate to their fine
        // interpolant (the trilinear geometry maps them into Q_k)
        let kc = case.coarse.mf.params.degree;
        let poly = move |x: [f64; 3]| {
            let l = 0.3 + 0.5 * x[0] - 0.4 * x[1] + 0.25 * x[2];
            l.powi(kc as i32) + 0.5 * x[1] - 0.1
        };
        let mut fine = vec![T::ZERO; nf];
        t.prolongate_add(&case.coarse.interpolate(&poly), &mut fine);
        let expect = (case.fine_interp)(&poly);
        let (d, s) = max_abs_diff(&fine, &expect);
        assert!(
            d <= 1e3 * eps * s,
            "{tag}: degree-{kc} polynomial off by {d}"
        );
    }
}

#[test]
fn batched_transfers_match_reference_on_hanging_forest() {
    let forest = hanging_forest();
    // 30 cells: the last batch is partial for 4 and for 8 lanes
    assert_eq!(forest.n_active() % 4, 2);
    check_transfers::<f64, 4>(&forest, "hanging", f64::EPSILON);
    check_transfers::<f32, 8>(&forest, "hanging", f64::from(f32::EPSILON));
}

#[test]
fn batched_transfers_match_reference_on_bifurcation() {
    let forest = bifurcation_forest();
    check_transfers::<f64, 4>(&forest, "bifurcation", f64::EPSILON);
    check_transfers::<f32, 8>(&forest, "bifurcation", f64::from(f32::EPSILON));
}

#[test]
fn batched_h_transfer_matches_reference_on_refined_bifurcation() {
    let mut forest = bifurcation_forest();
    forest.refine_global(1);
    check_transfers::<f64, 4>(&forest, "bifurcation/2", f64::EPSILON);
    check_transfers::<f32, 8>(&forest, "bifurcation/2", f64::from(f32::EPSILON));
}
