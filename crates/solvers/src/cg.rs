//! Preconditioned conjugate gradients — the outer Krylov solver of the
//! pressure Poisson, viscous, and penalty steps. The termination criterion
//! matches the paper: the norm of the *unpreconditioned* residual relative
//! to the right-hand side norm.
//!
//! One loop serves one rank and many: [`cg_solve_on`] takes the
//! [`Communicator`] whose `allreduce_sum` completes every dot product, so
//! a distributed operator over owned-length vectors runs through the same
//! recursion as a serial one. [`cg_solve`] is the `SelfComm` case, whose
//! reductions are the identity.

use crate::traits::{vec_ops, LinearOperator, Preconditioner};
use dgflow_comm::{Communicator, SelfComm};
use dgflow_simd::Real;

/// Outcome of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual ‖r‖/‖b‖.
    pub relative_residual: f64,
    /// True when the tolerance was met.
    pub converged: bool,
    /// ‖r‖ after each iteration; entry 0 is the initial residual, so
    /// there are `iterations + 1` entries.
    pub residuals: Vec<f64>,
}

/// Solve `A x = b` by preconditioned CG on one rank. `x` carries the
/// initial guess.
pub fn cg_solve<T: Real>(
    a: &dyn LinearOperator<T>,
    precond: &dyn Preconditioner<T>,
    b: &[T],
    x: &mut [T],
    rel_tol: f64,
    max_iter: usize,
) -> CgResult {
    cg_solve_on(&SelfComm, a, precond, b, x, rel_tol, max_iter)
}

/// Solve `A x = b` by preconditioned CG, where the vectors are this
/// rank's owned blocks and every dot product is summed over `comm`.
/// `x` carries the initial guess.
///
/// Observability: the whole solve runs under a coarse `cg.solve` span
/// (meta = iterations), each iteration under a fine `cg.iter` span, and
/// the iteration count feeds the `cg.iterations` histogram.
pub fn cg_solve_on<T: Real>(
    comm: &dyn Communicator,
    a: &dyn LinearOperator<T>,
    precond: &dyn Preconditioner<T>,
    b: &[T],
    x: &mut [T],
    rel_tol: f64,
    max_iter: usize,
) -> CgResult {
    let mut sp = dgflow_trace::span("solver", "cg.solve");
    let res = cg_solve_inner(comm, a, precond, b, x, rel_tol, max_iter);
    sp.set_meta(res.iterations as u64);
    if dgflow_trace::enabled(dgflow_trace::Level::Coarse) {
        iterations_histogram().record(res.iterations as f64);
    }
    res
}

/// The `cg.iterations` histogram handle, resolved once per process.
fn iterations_histogram() -> &'static std::sync::Arc<dgflow_trace::metrics::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<dgflow_trace::metrics::Histogram>> =
        std::sync::OnceLock::new();
    H.get_or_init(|| dgflow_trace::histogram("cg.iterations"))
}

fn cg_solve_inner<T: Real>(
    comm: &dyn Communicator,
    a: &dyn LinearOperator<T>,
    precond: &dyn Preconditioner<T>,
    b: &[T],
    x: &mut [T],
    rel_tol: f64,
    max_iter: usize,
) -> CgResult {
    let n = b.len();
    assert_eq!(a.len(), n);
    assert_eq!(x.len(), n);
    // the local partial sum, completed across ranks (a round trip through
    // f64 is exact for every `Real`)
    let dot = |u: &[T], v: &[T]| T::from_f64(comm.allreduce_sum(vec_ops::dot(u, v).to_f64()));
    let norm = |u: &[T]| dot(u, u).sqrt().to_f64();
    let norm_b = norm(b);
    if norm_b == 0.0 {
        x.iter_mut().for_each(|v| *v = T::ZERO);
        return CgResult {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
            residuals: vec![0.0],
        };
    }
    let mut r = vec![T::ZERO; n];
    let mut z = vec![T::ZERO; n];
    let mut p = vec![T::ZERO; n];
    let mut ap = vec![T::ZERO; n];
    // r = b - A x
    a.apply(x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut residuals = vec![norm(&r)];
    let mut iterations = 0;
    let mut converged = residuals[0] / norm_b <= rel_tol;
    if !converged {
        precond.apply_precond(&r, &mut z);
        p.copy_from_slice(&z);
        let mut rz = dot(&r, &z);
        for it in 1..=max_iter {
            let _it_span = dgflow_trace::span_fine("solver", "cg.iter").meta(it as u64);
            iterations = it;
            a.apply(&p, &mut ap);
            let alpha = rz / dot(&p, &ap);
            vec_ops::axpy(alpha, &p, x);
            vec_ops::axpy(-alpha, &ap, &mut r);
            let res = norm(&r);
            residuals.push(res);
            if res / norm_b <= rel_tol {
                converged = true;
                break;
            }
            precond.apply_precond(&r, &mut z);
            let rz_new = dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            vec_ops::xpby(&z, beta, &mut p);
        }
    }
    CgResult {
        iterations,
        relative_residual: residuals[iterations] / norm_b,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::jacobi::JacobiPreconditioner;
    use crate::traits::IdentityPreconditioner;

    fn laplace_1d(n: usize) -> CsrMatrix<f64> {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0));
            if i > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    #[test]
    fn cg_solves_spd_system() {
        let a = laplace_1d(50);
        let x_true: Vec<f64> = (0..50).map(|i| f64::from((i * 7) % 11)).collect();
        let mut b = vec![0.0; 50];
        a.apply(&x_true, &mut b);
        let mut x = vec![0.0; 50];
        let res = cg_solve(&a, &IdentityPreconditioner, &b, &mut x, 1e-12, 200);
        assert!(res.converged);
        for i in 0..50 {
            assert!((x[i] - x_true[i]).abs() < 1e-8);
        }
        // CG on an n x n 1-D Laplacian converges in at most n steps
        assert!(res.iterations <= 50);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_scaled_system() {
        // smoothly varying diagonal scaling over 4 orders of magnitude:
        // plain CG sees the full condition number, Jacobi rescales it away
        let n = 80;
        let mut triplets = Vec::new();
        for i in 0..n {
            let s = 10.0f64.powf(4.0 * i as f64 / n as f64);
            triplets.push((i, i, 2.0 * s));
            if i > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b = vec![1.0; n];
        let mut x0 = vec![0.0; n];
        let plain = cg_solve(&a, &IdentityPreconditioner, &b, &mut x0, 1e-10, 1000);
        let jac = JacobiPreconditioner::new(a.diagonal());
        let mut x1 = vec![0.0; n];
        let pre = cg_solve(&a, &jac, &b, &mut x1, 1e-10, 1000);
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn residual_history_has_one_entry_per_iteration() {
        let a = laplace_1d(40);
        let b: Vec<f64> = (0..40).map(|i| f64::from(i % 3) - 0.5).collect();
        let norm_b = vec_ops::norm(&b);
        let mut x = vec![0.0; 40];
        let jac = JacobiPreconditioner::new(a.diagonal());
        let res = cg_solve(&a, &jac, &b, &mut x, 1e-10, 200);
        assert!(res.converged && res.iterations > 0);
        assert_eq!(res.residuals.len(), res.iterations + 1);
        // x starts at zero, so the initial residual is b
        assert_eq!(res.residuals[0], norm_b);
        assert_eq!(
            res.residuals[res.iterations] / norm_b,
            res.relative_residual
        );
        // a warm start that already meets the tolerance records only r0
        let warm = cg_solve(&a, &jac, &b, &mut x, 1e-6, 200);
        assert_eq!((warm.iterations, warm.residuals.len()), (0, 1));
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplace_1d(10);
        let b = vec![0.0; 10];
        let mut x = vec![1.0; 10];
        let res = cg_solve(&a, &IdentityPreconditioner, &b, &mut x, 1e-10, 10);
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = laplace_1d(20);
        let x_true: Vec<f64> = (0..20).map(f64::from).collect();
        let mut b = vec![0.0; 20];
        a.apply(&x_true, &mut b);
        let mut x = x_true.clone();
        let res = cg_solve(&a, &IdentityPreconditioner, &b, &mut x, 1e-12, 100);
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
    }

    #[test]
    fn single_precision_cg_converges_to_sp_accuracy() {
        let n = 30;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0f32));
            if i > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets);
        let b = vec![1.0f32; n];
        let mut x = vec![0.0f32; n];
        let res = cg_solve(&a, &IdentityPreconditioner, &b, &mut x, 1e-5, 500);
        assert!(res.converged);
    }
}
