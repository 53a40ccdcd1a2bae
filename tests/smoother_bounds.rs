//! The Chebyshev smoothers' eigenvalue bounds of the f32 hybrid multigrid
//! on the paper's bifurcation (no refinement, k = 3, walls Neumann and
//! inlet/outlets Dirichlet). On every level the smoother's estimate
//! λ̂ = `lambda_max / 1.2` of the largest eigenvalue of D⁻¹A must lie at
//! most 10 % below a 60-step Lanczos reference and never above it: both
//! are largest Ritz values from the same start vector, and the largest
//! Ritz value only grows with the number of steps. The preconditioned CG
//! iteration count on the same problem is pinned, so a change of the
//! estimate cannot weaken the V-cycle unnoticed.

use dgflow::fem::operators::integrate_rhs;
use dgflow::fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow::lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow::mesh::{Forest, TrilinearManifold};
use dgflow::multigrid::{HybridMultigrid, MgParams, MixedPrecisionMg};
use dgflow::solvers::{cg_solve, LinearOperator};
use std::sync::Arc;

const L: usize = 8;

/// Lanczos steps of the reference estimate.
const REFERENCE_STEPS: usize = 60;

/// CG iterations to a relative residual of 1e-10, as counted with the
/// 25-step power-iteration bounds the smoothers had before the Lanczos
/// estimate.
const ITERATIONS: usize = 17;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `d` and off-diagonal `e`, by bisection on the Sturm count.
fn tridiagonal_max(d: &[f64], e: &[f64]) -> f64 {
    let below = |x: f64| {
        let mut count = 0;
        let mut q = 1.0;
        for i in 0..d.len() {
            q = d[i] - x - if i > 0 { e[i - 1] * e[i - 1] / q } else { 0.0 };
            if q == 0.0 {
                q = f64::MIN_POSITIVE;
            }
            count += usize::from(q < 0.0);
        }
        count
    };
    let radius = |i: usize| {
        let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
        left + e.get(i).map_or(0.0, |x| x.abs())
    };
    let mut lo = (0..d.len())
        .map(|i| d[i] - radius(i))
        .fold(f64::MAX, f64::min);
    let mut hi = (0..d.len())
        .map(|i| d[i] + radius(i))
        .fold(f64::MIN, f64::max);
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return hi;
        }
        if below(mid) == d.len() {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Largest Ritz value of `REFERENCE_STEPS` symmetric Lanczos steps with
/// full reorthogonalization on D^{-1/2} A D^{-1/2}, started from
/// D^{-1/2} r₀ with the smoother's start vector r₀: the Krylov space of
/// point-Jacobi preconditioned CG on `A x = r₀`, in f64 vectors around
/// the f32 operator.
fn lanczos_reference(op: &dyn LinearOperator<f32>) -> f64 {
    let n = op.len();
    let scale: Vec<f64> = op
        .diagonal()
        .iter()
        .map(|&d| f64::from(1.0f32 / d).sqrt())
        .collect();
    let apply = |v: &[f64]| {
        let x: Vec<f32> = v.iter().zip(&scale).map(|(v, s)| (v * s) as f32).collect();
        let mut y = vec![0.0f32; n];
        op.apply(&x, &mut y);
        y.iter()
            .zip(&scale)
            .map(|(&y, s)| f64::from(y) * s)
            .collect::<Vec<f64>>()
    };
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let r0 = ((i * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0;
            f64::from(r0 as f32) * scale[i]
        })
        .collect();
    let norm = dot(&v, &v).sqrt();
    v.iter_mut().for_each(|x| *x /= norm);
    let mut basis = vec![v];
    let (mut alpha, mut beta) = (Vec::new(), Vec::new());
    loop {
        let vj = basis.last().expect("one vector at least");
        let mut w = apply(vj);
        alpha.push(dot(&w, vj));
        for _ in 0..2 {
            for v in &basis {
                let c = dot(&w, v);
                w.iter_mut().zip(v).for_each(|(w, v)| *w -= c * v);
            }
        }
        let b = dot(&w, &w).sqrt();
        if alpha.len() == REFERENCE_STEPS || b <= 1e-12 * alpha[0] {
            return tridiagonal_max(&alpha, &beta);
        }
        w.iter_mut().for_each(|x| *x /= b);
        beta.push(b);
        basis.push(w);
    }
}

#[test]
fn chebyshev_bounds_match_lanczos_reference_and_iterations_hold() {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let forest = Forest::new(mesh.coarse);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut bc = vec![BoundaryCondition::Dirichlet; 4];
    bc[0] = BoundaryCondition::Neumann;
    let mg =
        HybridMultigrid::<f32, L>::build(&forest, &manifold, 3, bc.clone(), MgParams::default());
    for level in &mg.levels {
        let estimate = level.smoother.lambda_max / 1.2;
        let reference = lanczos_reference(&level.op);
        assert!(
            estimate <= reference * (1.0 + 1e-4) && estimate >= 0.9 * reference,
            "{}: estimate {estimate} against reference {reference}",
            level.label
        );
    }

    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(3),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc);
    let rhs = integrate_rhs(&mf, &|x| (2.0 * x[0]).sin() + x[1] * x[2] + 1.0);
    let mut x = vec![0.0; rhs.len()];
    let res = cg_solve(&op, &MixedPrecisionMg::<L> { mg }, &rhs, &mut x, 1e-10, 200);
    assert!(res.converged, "{res:?}");
    assert_eq!(res.iterations, ITERATIONS);
}
