//! The hybrid multigrid preconditioner (Sec. 3.4, Fig. 5): DG → continuous
//! → polynomial bisection → global geometric coarsening → aggregation AMG,
//! with Chebyshev(3)/point-Jacobi smoothing on every matrix-free level and
//! the whole V-cycle run in single precision under a double-precision
//! outer conjugate-gradient solver.

use crate::transfer::Transfer;
use dgflow_comm::{parallel_chunks_mut, PAR_GRAIN};
use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::operators::laplace::BoundaryCondition;
use dgflow_fem::{LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::{Forest, Manifold};
use dgflow_simd::Real;
use dgflow_solvers::{
    AlgebraicMultigrid, AmgParams, ChebyshevSmoother, CsrMatrix, LinearOperator, Preconditioner,
};
use dgflow_tensor::ShapeInfo1D;
use std::sync::Arc;

/// Cycle shape of the hierarchy traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleType {
    /// One coarse visit per level (the paper's choice).
    V,
    /// Two coarse visits per level (more robust, ~2× the coarse work).
    W,
}

/// Multigrid configuration.
#[derive(Clone, Copy, Debug)]
pub struct MgParams {
    /// Chebyshev smoother degree (paper: 3).
    pub smoother_degree: usize,
    /// Chebyshev smoothing range (targeted spectrum fraction).
    pub smoothing_range: f64,
    /// AMG V-cycles per coarse solve (paper: 2).
    pub coarse_cycles: usize,
    /// V or W cycle.
    pub cycle: CycleType,
}

impl Default for MgParams {
    fn default() -> Self {
        Self {
            smoother_degree: 3,
            smoothing_range: 20.0,
            coarse_cycles: 2,
            cycle: CycleType::V,
        }
    }
}

/// A level operator: the finest level is DG, all others continuous.
pub enum LevelOp<T: Real, const L: usize> {
    /// SIPG DG Laplacian.
    Dg(LaplaceOperator<T, L>),
    /// Continuous (Nitsche) Laplacian.
    Cg(CgLaplaceOperator<T, L>),
}

impl<T: Real, const L: usize> LinearOperator<T> for LevelOp<T, L> {
    fn len(&self) -> usize {
        match self {
            LevelOp::Dg(o) => o.len(),
            LevelOp::Cg(o) => o.len(),
        }
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        match self {
            LevelOp::Dg(o) => o.apply(src, dst),
            LevelOp::Cg(o) => o.apply(src, dst),
        }
    }
    fn diagonal(&self) -> Vec<T> {
        match self {
            LevelOp::Dg(o) => o.compute_diagonal(),
            LevelOp::Cg(o) => o.compute_diagonal(),
        }
    }
}

/// One multigrid level.
pub struct MgLevel<T: Real, const L: usize> {
    /// The level operator.
    pub op: LevelOp<T, L>,
    /// Its smoother.
    pub smoother: ChebyshevSmoother<T>,
    /// Transfer to the next-coarser level (`None` on the coarsest
    /// matrix-free level, which restricts into the AMG system directly —
    /// so in practice always `Some` except when AMG is the only level).
    pub transfer: Option<Transfer<T, L>>,
    /// Human-readable label (diagnostics, bench output).
    pub label: String,
}

/// The assembled hybrid hierarchy.
pub struct HybridMultigrid<T: Real, const L: usize> {
    /// Matrix-free levels, finest first.
    pub levels: Vec<MgLevel<T, L>>,
    /// Assembled coarsest matrix.
    pub coarse_matrix: CsrMatrix<T>,
    /// AMG on the coarsest matrix.
    pub coarse_amg: AlgebraicMultigrid<T>,
    /// Parameters.
    pub params: MgParams,
}

impl<T: Real, const L: usize> HybridMultigrid<T, L> {
    /// Build the full hierarchy for the SIPG Laplacian of degree `degree`
    /// on `forest`.
    pub fn build(
        forest: &Forest,
        manifold: &dyn Manifold,
        degree: usize,
        bc: Vec<BoundaryCondition>,
        params: MgParams,
    ) -> Self {
        // finest: DG(k), and CG(k) on its geometry (both integrate on the
        // k+1 Gauss points)
        let mf_dg = Arc::new(MatrixFree::<T, L>::new(
            forest,
            manifold,
            MfParams::dg(degree),
        ));
        let dg_op = LaplaceOperator::with_bc(mf_dg.clone(), bc.clone());
        let cg_params = MfParams::cg(degree);
        let cg_shape = ShapeInfo1D::new(degree, cg_params.node_set, cg_params.n_q);
        let mf_cg = MatrixFree::with_geometry(mf_dg.geometry.clone(), cg_shape, cg_params);

        // the CG levels, finest first, with their forests: CG(k), then the
        // p-levels k/2, ..., 1 on the fine forest, then degree 1 on the
        // geometric coarsening sequence. The coarser levels sample the same
        // manifold on their cells (the paper injects the patient-specific
        // geometry into the coarse levels via consistent interpolation the
        // same way)
        let mut forests: Vec<Forest> = Vec::new();
        while let Some(coarser) = forests.last().unwrap_or(forest).coarsen_global() {
            forests.push(coarser);
        }
        let fine_cg = Arc::new(CgSpace::from_mf(forest, Arc::new(mf_cg)));
        let mut cg = vec![(fine_cg, forest, format!("CG(k={degree})"))];
        let mut k = degree;
        while k > 1 {
            k /= 2;
            let space = Arc::new(CgSpace::new(forest, manifold, k));
            cg.push((space, forest, format!("CG(k={k})")));
        }
        for (i, f) in forests.iter().enumerate() {
            let label = format!("CG(k=1) l={}", forests.len() - 1 - i);
            cg.push((Arc::new(CgSpace::new(f, manifold, 1)), f, label));
        }

        // assemble levels with transfers
        let make_smoother = |op: &dyn LinearOperator<T>| {
            let diag = op.diagonal();
            let inv: Vec<T> = diag.into_iter().map(|d| T::ONE / d).collect();
            ChebyshevSmoother::new(op, inv, params.smoother_degree, params.smoothing_range)
        };
        let mut levels: Vec<MgLevel<T, L>> = vec![MgLevel {
            smoother: make_smoother(&dg_op),
            transfer: Some(Transfer::dg_to_cg(mf_dg.clone(), cg[0].0.clone())),
            label: format!("DG(k={degree})"),
            op: LevelOp::Dg(dg_op),
        }];
        // p-transfers while the degree drops, h-transfers below
        for (i, (space, f, label)) in cg.iter().enumerate() {
            let op = CgLaplaceOperator::with_bc(space.clone(), bc.clone());
            let smoother = make_smoother(&op);
            let transfer = cg.get(i + 1).map(|(next, next_f, _)| {
                if next.mf.params.degree < space.mf.params.degree {
                    Transfer::p_transfer(space.clone(), next.clone())
                } else {
                    Transfer::h_transfer(space.clone(), f, next.clone(), next_f)
                }
            });
            levels.push(MgLevel {
                smoother,
                transfer,
                label: label.clone(),
                op: LevelOp::Cg(op),
            });
        }

        // coarsest: assemble + AMG (drop the redundant smoother level: the
        // last matrix-free level doubles as the AMG system)
        let coarse_matrix = {
            let last = levels.last().unwrap();
            match &last.op {
                LevelOp::Cg(op) => op.assemble(),
                LevelOp::Dg(_) => unreachable!("coarsest level is always continuous"),
            }
        };
        let coarse_amg = AlgebraicMultigrid::new(coarse_matrix.clone(), AmgParams::default());

        Self {
            levels,
            coarse_matrix,
            coarse_amg,
            params,
        }
    }

    /// DoF count per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<(String, usize)> {
        self.levels
            .iter()
            .map(|l| (l.label.clone(), l.op.len()))
            .collect()
    }

    /// One V-cycle: `x ≈ A⁻¹ b` on level `li`.
    ///
    /// The benchmark's V-cycle mirror (`perfbench/src/mirror.rs`) replays
    /// this exact sequence of public calls — smooth, level apply,
    /// restrict, recurse, prolongate, AMG — and checks its result bitwise
    /// against this function, so reordering these calls or changing an
    /// elementwise formula needs the mirror changed first, in a benchmark
    /// change of its own.
    pub fn vcycle(&self, li: usize, b: &[T], x: &mut [T]) {
        let _sp = dgflow_trace::span_fine("mg", "mg.vcycle.level").meta(li as u64);
        let level = &self.levels[li];
        let n = level.op.len();
        // `r = b - A x`
        let residual = |x: &[T], r: &mut [T]| {
            level.op.apply(x, r);
            parallel_chunks_mut([r], PAR_GRAIN, |off, [r]| {
                for (ri, &bi) in r.iter_mut().zip(&b[off..]) {
                    *ri = bi - *ri;
                }
            });
        };
        // pre-smooth from zero
        level.smoother.smooth(&level.op, b, x, true);
        let Some(transfer) = &level.transfer else {
            // last matrix-free level: additionally correct with AMG cycles
            // on its assembled matrix
            let mut r = vec![T::ZERO; n];
            let mut c = vec![T::ZERO; n];
            for _ in 0..self.params.coarse_cycles {
                residual(x, &mut r);
                self.coarse_amg.apply_precond(&r, &mut c);
                parallel_chunks_mut([&mut *x], PAR_GRAIN, |off, [x]| {
                    for (xi, &ci) in x.iter_mut().zip(&c[off..]) {
                        *xi += ci;
                    }
                });
            }
            level.smoother.smooth(&level.op, b, x, false);
            return;
        };
        let mut r = vec![T::ZERO; n];
        residual(x, &mut r);
        // restrict, recurse (twice for W-cycles), prolongate
        let visits = match self.params.cycle {
            CycleType::V => 1,
            CycleType::W => 2,
        };
        let nc = transfer.n_coarse();
        let mut bc = vec![T::ZERO; nc];
        for visit in 0..visits {
            if visit > 0 {
                // recompute the residual after the first correction
                residual(x, &mut r);
            }
            transfer.restrict(&r, &mut bc);
            let mut xc = vec![T::ZERO; nc];
            self.vcycle(li + 1, &bc, &mut xc);
            transfer.prolongate_add(&xc, x);
        }
        // post-smooth
        level.smoother.smooth(&level.op, b, x, false);
    }
}

impl<T: Real, const L: usize> Preconditioner<T> for HybridMultigrid<T, L> {
    fn apply_precond(&self, src: &[T], dst: &mut [T]) {
        self.vcycle(0, src, dst);
    }
}

/// Mixed-precision wrapper: a single-precision V-cycle preconditioning a
/// double-precision Krylov solver (Sec. 3.4). The defect is normalized
/// before the downcast so that residuals outside the `f32` range stay
/// representable.
pub struct MixedPrecisionMg<const L: usize> {
    /// The single-precision hierarchy.
    pub mg: HybridMultigrid<f32, L>,
}

impl<const L: usize> Preconditioner<f64> for MixedPrecisionMg<L> {
    fn apply_precond(&self, src: &[f64], dst: &mut [f64]) {
        let _sp = dgflow_trace::span("mg", "mg.precond");
        let scale = src.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            dst.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        let inv = 1.0 / scale;
        let mut b32 = vec![0.0f32; src.len()];
        parallel_chunks_mut([&mut b32[..]], PAR_GRAIN, |off, [b]| {
            for (bi, &v) in b.iter_mut().zip(&src[off..]) {
                *bi = (v * inv) as f32;
            }
        });
        let mut x32 = vec![0.0f32; b32.len()];
        self.mg.vcycle(0, &b32, &mut x32);
        parallel_chunks_mut([dst], PAR_GRAIN, |off, [dst]| {
            for (d, &x) in dst.iter_mut().zip(&x32[off..]) {
                *d = f64::from(x) * scale;
            }
        });
    }
}
