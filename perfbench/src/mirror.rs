//! Span wrappers around the public layer calls the multigrid
//! preconditioner makes.
//!
//! The V-cycle runs as one call inside `dgflow::multigrid`, so to split its
//! time into smoother, residual, transfer and coarse-solve parts without
//! adding spans to the program, the traced run drives the same public
//! pieces (`ChebyshevSmoother::smooth`, the level operators, `Transfer`,
//! the AMG) in the same order as `HybridMultigrid::vcycle` and
//! `MixedPrecisionMg::apply_precond`, each under a span. The mirror must
//! stay step-for-step identical to the library: [`matches_library`] checks
//! that it gives bitwise the same preconditioned vector, and every traced
//! run counts a mismatch as a failed operation.

use dgflow::multigrid::{CycleType, HybridMultigrid};
use dgflow::simd::Real;
use dgflow::solvers::{LinearOperator, Preconditioner};
use dgflow_trace::span;

/// A linear operator whose every application runs under a span.
pub struct Timed<'a, T: Real> {
    pub inner: &'a dyn LinearOperator<T>,
    pub name: &'static str,
}

impl<T: Real> LinearOperator<T> for Timed<'_, T> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        let _sp = span("bench", self.name);
        self.inner.apply(src, dst);
    }
    fn diagonal(&self) -> Vec<T> {
        self.inner.diagonal()
    }
}

/// The mixed-precision hybrid-multigrid preconditioner, with a span
/// around each layer call (the mirror of `MixedPrecisionMg`).
pub struct TracedMg<'a, const L: usize>(pub &'a HybridMultigrid<f32, L>);

impl<const L: usize> Preconditioner<f64> for TracedMg<'_, L> {
    fn apply_precond(&self, src: &[f64], dst: &mut [f64]) {
        let _sp = span("mg", "mg.precond");
        let scale = src.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            dst.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        let inv = 1.0 / scale;
        let b32: Vec<f32> = src.iter().map(|&v| (v * inv) as f32).collect();
        let mut x32 = vec![0.0f32; b32.len()];
        vcycle(self.0, 0, &b32, &mut x32);
        for (d, &x) in dst.iter_mut().zip(&x32) {
            *d = f64::from(x) * scale;
        }
    }
}

/// The mirror of `HybridMultigrid::vcycle`.
fn vcycle<T: Real, const L: usize>(mg: &HybridMultigrid<T, L>, li: usize, b: &[T], x: &mut [T]) {
    let _sp = span("mg", "mg.vcycle.level").meta(li as u64);
    let level = &mg.levels[li];
    let n = level.op.len();
    let smooth = |x: &mut [T], zero_initial: bool| {
        let _sp = span("bench", "chebyshev.smooth").meta(li as u64);
        level.smoother.smooth(&level.op, b, x, zero_initial);
    };
    let residual = |x: &[T], r: &mut [T]| {
        {
            let _sp = span("bench", "level.apply").meta(li as u64);
            level.op.apply(x, r);
        }
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
    };
    smooth(x, true);
    let Some(transfer) = &level.transfer else {
        let mut r = vec![T::ZERO; n];
        for _ in 0..mg.params.coarse_cycles {
            residual(x, &mut r);
            let mut c = vec![T::ZERO; n];
            {
                let _sp = span("bench", "amg.apply");
                mg.coarse_amg.apply_precond(&r, &mut c);
            }
            for i in 0..n {
                x[i] += c[i];
            }
        }
        smooth(x, false);
        return;
    };
    let mut r = vec![T::ZERO; n];
    residual(x, &mut r);
    let visits = match mg.params.cycle {
        CycleType::V => 1,
        CycleType::W => 2,
    };
    let nc = transfer.n_coarse();
    let mut bc = vec![T::ZERO; nc];
    for visit in 0..visits {
        if visit > 0 {
            residual(x, &mut r);
        }
        {
            let _sp = span("bench", "restrict").meta(li as u64);
            transfer.restrict(&r, &mut bc);
        }
        let mut xc = vec![T::ZERO; nc];
        vcycle(mg, li + 1, &bc, &mut xc);
        let _sp = span("bench", "prolongate").meta(li as u64);
        transfer.prolongate_add(&xc, x);
    }
    smooth(x, false);
}

/// Whether the mirror reproduces the library preconditioner bitwise on `v`.
pub fn matches_library<const L: usize>(
    library: &dyn Preconditioner<f64>,
    mg: &HybridMultigrid<f32, L>,
    v: &[f64],
) -> bool {
    let mut a = vec![0.0; v.len()];
    let mut b = vec![0.0; v.len()];
    library.apply_precond(v, &mut a);
    TracedMg(mg).apply_precond(v, &mut b);
    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
}
