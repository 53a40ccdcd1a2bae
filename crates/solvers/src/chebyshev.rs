//! Chebyshev smoother with point-Jacobi inner preconditioning — the
//! multigrid smoother of Sec. 3.4 (degree 3, i.e. three matrix-vector
//! products per pre-/post-smoothing application).
//!
//! Only matrix-vector products and vector updates are needed, which keeps
//! the smoother matrix-free and (unlike Gauss–Seidel) embarrassingly
//! parallel — the reason the paper (following Adams et al.) prefers
//! polynomial smoothing at scale.

use crate::traits::{LinearOperator, Preconditioner};
use dgflow_comm::{parallel_chunks_mut, PAR_GRAIN};
use dgflow_simd::Real;
use std::sync::Mutex;

/// Chebyshev polynomial smoother.
pub struct ChebyshevSmoother<T> {
    inv_diag: Vec<T>,
    degree: usize,
    /// Center of the smoothing interval.
    theta: T,
    /// Half-width of the smoothing interval.
    delta: T,
    /// Upper end of the smoothing interval: 1.2 times the estimated
    /// largest eigenvalue of `D^{-1} A`.
    pub lambda_max: f64,
    /// Recycled `[r, d, A d]` work vectors, one set per concurrent caller;
    /// every pass overwrites them before reading, so reuse is safe.
    scratch: Mutex<Vec<[Vec<T>; 3]>>,
}

/// Steps of the eigenvalue estimate, one operator application each:
/// the default `eig_cg_n_iterations` of deal.II's `PreconditionChebyshev`.
const LANCZOS_STEPS: usize = 8;

impl<T: Real> ChebyshevSmoother<T> {
    /// Build a degree-`degree` smoother targeting the eigenvalue interval
    /// `[1.2 λ̂/smoothing_range, 1.2 λ̂]` of `D^{-1}A`, with the largest
    /// eigenvalue `λ̂` estimated by 8 Lanczos steps (point-Jacobi
    /// preconditioned CG steps, one operator application each).
    pub fn new(
        op: &dyn LinearOperator<T>,
        inv_diag: Vec<T>,
        degree: usize,
        smoothing_range: f64,
    ) -> Self {
        assert!(degree >= 1);
        assert_eq!(inv_diag.len(), op.len());
        let lambda_max = 1.2 * lanczos_lambda_max(op, &inv_diag);
        let lambda_min = lambda_max / smoothing_range;
        let theta = T::from_f64(0.5 * (lambda_max + lambda_min));
        let delta = T::from_f64(0.5 * (lambda_max - lambda_min));
        Self {
            inv_diag,
            degree,
            theta,
            delta,
            lambda_max,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Smoother degree (= matrix-vector products per application when
    /// starting from a zero guess).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Apply `degree` Chebyshev iterations to `A x = b`. With
    /// `zero_initial`, `x` is taken as 0 on entry (saves one operator
    /// application — the pre-smoothing configuration in the V-cycle).
    ///
    /// Each iteration's vector updates (`x += d`, `r -= A d`, the new `d`)
    /// run as one fused elementwise pass on the thread pool; the per-entry
    /// arithmetic is that of the plain serial loop, so the result is
    /// bitwise independent of the thread count.
    pub fn smooth(&self, op: &dyn LinearOperator<T>, b: &[T], x: &mut [T], zero_initial: bool) {
        let n = b.len();
        let mut scratch = self
            .scratch
            .lock()
            .expect("smoother scratch poisoned")
            .pop()
            .unwrap_or_default();
        scratch.iter_mut().for_each(|v| v.resize(n, T::ZERO));
        let [r, d, ad] = &mut scratch;
        let inv_diag = &self.inv_diag[..n];
        let sigma1 = self.theta / self.delta;
        let mut rho = T::ONE / sigma1;
        let inv_theta = T::ONE / self.theta;
        if zero_initial {
            parallel_chunks_mut([x, r, d], PAR_GRAIN, |off, [x, r, d]| {
                // equal-length slices keep the loop free of bounds checks
                let n = x.len();
                let (r, d) = (&mut r[..n], &mut d[..n]);
                let (b, inv_diag) = (&b[off..off + n], &inv_diag[off..off + n]);
                for i in 0..n {
                    x[i] = T::ZERO;
                    r[i] = b[i];
                    d[i] = r[i] * inv_diag[i] * inv_theta;
                }
            });
        } else {
            op.apply(x, r);
            parallel_chunks_mut([r, d], PAR_GRAIN, |off, [r, d]| {
                let n = r.len();
                let d = &mut d[..n];
                let (b, inv_diag) = (&b[off..off + n], &inv_diag[off..off + n]);
                for i in 0..n {
                    r[i] = b[i] - r[i];
                    d[i] = r[i] * inv_diag[i] * inv_theta;
                }
            });
        }
        for k in 0..self.degree {
            if k + 1 == self.degree {
                parallel_chunks_mut([&mut *x], PAR_GRAIN, |off, [x]| {
                    for (xi, di) in x.iter_mut().zip(&d[off..]) {
                        *xi += *di;
                    }
                });
                break;
            }
            op.apply(d, ad);
            let rho_new = T::ONE / (sigma1 + sigma1 - rho);
            let c1 = rho_new * rho;
            let c2 = rho_new * T::from_f64(2.0) / self.delta;
            let ad = &ad[..];
            parallel_chunks_mut([&mut *x, r, d], PAR_GRAIN, |off, [x, r, d]| {
                let n = x.len();
                let (r, d) = (&mut r[..n], &mut d[..n]);
                let (ad, inv_diag) = (&ad[off..off + n], &inv_diag[off..off + n]);
                for i in 0..n {
                    x[i] += d[i];
                    r[i] -= ad[i];
                    d[i] = d[i] * c1 + r[i] * inv_diag[i] * c2;
                }
            });
            rho = rho_new;
        }
        self.scratch
            .lock()
            .expect("smoother scratch poisoned")
            .push(scratch);
    }
}

/// Largest eigenvalue of `D^{-1}A` estimated by [`LANCZOS_STEPS`] steps
/// of point-Jacobi preconditioned CG on `A x = r₀` from `x = 0`, with a
/// deterministic `r₀`: the largest eigenvalue of the Lanczos tridiagonal
/// matrix of the CG coefficients, with diagonal `1/α_j + β_{j-1}/α_{j-1}`
/// and off-diagonal `√β_j/α_j`. Stops early when CG breaks down (`rᵀz` or
/// `pᵀAp` not positive and finite), e.g. after one step when
/// `D^{-1}A = I`; 1 when not even one step completes (the empty operator).
/// The dot products accumulate serially in f64 in index order and the
/// vector updates are elementwise, so the estimate does not depend on the
/// thread count.
fn lanczos_lambda_max<T: Real>(op: &dyn LinearOperator<T>, inv_diag: &[T]) -> f64 {
    let n = op.len();
    let dot = |a: &[T], b: &[T]| {
        a.iter()
            .zip(b)
            .fold(0.0, |s, (x, y)| s + x.to_f64() * y.to_f64())
    };
    let [mut r, mut z, mut q] = [0; 3].map(|_| vec![T::ZERO; n]);
    parallel_chunks_mut([&mut r[..], &mut z[..]], PAR_GRAIN, |off, [r, z]| {
        for (i, (r, z)) in r.iter_mut().zip(z).enumerate() {
            let i = off + i;
            *r = T::from_f64(((i * 2654435761usize) % 1000) as f64 / 500.0 - 1.0);
            *z = *r * inv_diag[i];
        }
    });
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    // the tridiagonal matrix, and β_{j-1}/α_{j-1} of the previous step
    let (mut diag, mut off_diag) = (Vec::new(), Vec::new());
    let mut beta_over_alpha = 0.0;
    while rz > 0.0 && rz.is_finite() {
        op.apply(&p, &mut q);
        let p_ap = dot(&p, &q);
        if !(p_ap > 0.0 && p_ap.is_finite()) {
            break;
        }
        let alpha = rz / p_ap;
        diag.push(1.0 / alpha + beta_over_alpha);
        if diag.len() == LANCZOS_STEPS {
            break;
        }
        let a = T::from_f64(alpha);
        parallel_chunks_mut([&mut r[..], &mut z[..]], PAR_GRAIN, |off, [r, z]| {
            let n = r.len();
            let (z, q, inv_diag) = (&mut z[..n], &q[off..off + n], &inv_diag[off..off + n]);
            for i in 0..n {
                r[i] -= a * q[i];
                z[i] = r[i] * inv_diag[i];
            }
        });
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        off_diag.push(beta.sqrt() / alpha);
        beta_over_alpha = beta / alpha;
        let b = T::from_f64(beta);
        parallel_chunks_mut([&mut p[..]], PAR_GRAIN, |off, [p]| {
            for (p, &z) in p.iter_mut().zip(&z[off..]) {
                *p = z + b * *p;
            }
        });
    }
    if diag.is_empty() {
        return 1.0;
    }
    tridiagonal_max_eigenvalue(&diag, &off_diag[..diag.len() - 1])
}

/// Largest eigenvalue of the symmetric tridiagonal matrix with diagonal
/// `d` and off-diagonal `e` (`e.len() + 1 == d.len()`), bisected to
/// rounding between Gershgorin bounds on the Sturm count (the number of
/// negative pivots of `T - x I`, i.e. of eigenvalues below `x`).
fn tridiagonal_max_eigenvalue(d: &[f64], e: &[f64]) -> f64 {
    let m = d.len();
    let radius = |i: usize| {
        let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
        left + e.get(i).map_or(0.0, |x| x.abs())
    };
    let mut lo = (0..m).map(|i| d[i] - radius(i)).fold(f64::MAX, f64::min);
    let mut hi = (0..m).map(|i| d[i] + radius(i)).fold(f64::MIN, f64::max);
    let below = |x: f64| {
        let mut count = 0;
        let mut pivot = 1.0;
        for i in 0..m {
            let coupling = if i > 0 {
                e[i - 1] * e[i - 1] / pivot
            } else {
                0.0
            };
            pivot = d[i] - x - coupling;
            if pivot == 0.0 {
                pivot = f64::MIN_POSITIVE;
            }
            count += usize::from(pivot < 0.0);
        }
        count
    };
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return hi;
        }
        if below(mid) == m {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// Adapter exposing a Chebyshev smoother (bound to its operator) as a
/// [`Preconditioner`].
pub struct ChebyshevPreconditioner<'a, T: Real> {
    /// The smoother.
    pub smoother: &'a ChebyshevSmoother<T>,
    /// The operator it smooths.
    pub op: &'a dyn LinearOperator<T>,
}

impl<'a, T: Real> Preconditioner<T> for ChebyshevPreconditioner<'a, T> {
    fn apply_precond(&self, src: &[T], dst: &mut [T]) {
        self.smoother.smooth(self.op, src, dst, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use crate::traits::vec_ops;

    fn laplace_1d(n: usize) -> CsrMatrix<f64> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    fn error_norm(a: &CsrMatrix<f64>, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.matvec(x, &mut r);
        r.iter()
            .zip(b)
            .map(|(ri, bi)| (ri - bi).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// The serial update loop `smooth` had before its passes were fused
    /// and moved onto the pool: the bitwise reference of the fused path.
    fn smooth_serial<T: Real>(
        s: &ChebyshevSmoother<T>,
        op: &dyn LinearOperator<T>,
        b: &[T],
        x: &mut [T],
        zero_initial: bool,
    ) {
        let n = b.len();
        let mut r = vec![T::ZERO; n];
        let mut d = vec![T::ZERO; n];
        let mut ad = vec![T::ZERO; n];
        if zero_initial {
            x.iter_mut().for_each(|v| *v = T::ZERO);
            r.copy_from_slice(b);
        } else {
            op.apply(x, &mut r);
            for i in 0..n {
                r[i] = b[i] - r[i];
            }
        }
        let sigma1 = s.theta / s.delta;
        let mut rho = T::ONE / sigma1;
        let inv_theta = T::ONE / s.theta;
        for i in 0..n {
            d[i] = r[i] * s.inv_diag[i] * inv_theta;
        }
        for k in 0..s.degree {
            for i in 0..n {
                x[i] += d[i];
            }
            if k + 1 == s.degree {
                break;
            }
            op.apply(&d, &mut ad);
            for i in 0..n {
                r[i] -= ad[i];
            }
            let rho_new = T::ONE / (sigma1 + sigma1 - rho);
            let c1 = rho_new * rho;
            let c2 = rho_new * T::from_f64(2.0) / s.delta;
            for i in 0..n {
                d[i] = d[i] * c1 + r[i] * s.inv_diag[i] * c2;
            }
            rho = rho_new;
        }
    }

    /// 1-D Laplacian with a varying diagonal, so `D^{-1}` is not a scalar.
    fn varying_laplace<T: Real>(n: usize) -> (CsrMatrix<T>, Vec<T>) {
        let mut t = Vec::new();
        let mut inv_diag = Vec::with_capacity(n);
        for i in 0..n {
            let diag = 2.0 + (i % 7) as f64 * 0.25;
            t.push((i, i, T::from_f64(diag)));
            inv_diag.push(T::ONE / T::from_f64(diag));
            if i > 0 {
                t.push((i, i - 1, T::from_f64(-1.0)));
            }
            if i + 1 < n {
                t.push((i, i + 1, T::from_f64(-1.0)));
            }
        }
        (CsrMatrix::from_triplets(n, n, &t), inv_diag)
    }

    fn assert_fused_matches_serial<T: Real>() {
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        // below the grain (one inline chunk), and above it (several
        // chunks, the last one partial)
        for n in [1000, 3 * PAR_GRAIN + 77] {
            let (a, inv_diag) = varying_laplace::<T>(n);
            let b: Vec<T> = (0..n)
                .map(|i| T::from_f64(((i * 37 % 101) as f64) / 50.0 - 1.0))
                .collect();
            let x0: Vec<T> = (0..n)
                .map(|i| T::from_f64(((i * 13 % 29) as f64) / 29.0))
                .collect();
            for degree in 1..=4 {
                let cheb = ChebyshevSmoother::new(&a, inv_diag.clone(), degree, 20.0);
                for zero_initial in [true, false] {
                    let mut expect = x0.clone();
                    smooth_serial(&cheb, &a, &b, &mut expect, zero_initial);
                    // twice: the second call runs on recycled scratch
                    for call in 0..2 {
                        let mut x = x0.clone();
                        cheb.smooth(&a, &b, &mut x, zero_initial);
                        assert_eq!(
                            bits(&x),
                            bits(&expect),
                            "n {n}, degree {degree}, zero_initial {zero_initial}, call {call}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_smooth_is_bitwise_equal_to_serial_loop() {
        assert_fused_matches_serial::<f64>();
        assert_fused_matches_serial::<f32>();
    }

    #[test]
    fn eigenvalue_estimate_is_sane() {
        let a = laplace_1d(100);
        let inv_diag = vec![0.5; 100];
        let cheb = ChebyshevSmoother::new(&a, inv_diag, 3, 20.0);
        // exact λmax of D^{-1}A is just below 2
        assert!(cheb.lambda_max > 1.8 && cheb.lambda_max < 2.5);
    }

    #[test]
    fn lanczos_estimate_is_a_lower_bound_close_to_lambda_max() {
        // Ritz values never exceed λmax = 1 + cos(π/101) of D^{-1}A
        let exact = 1.0 + (std::f64::consts::PI / 101.0).cos();
        let lambda = lanczos_lambda_max(&laplace_1d(100), &[0.5; 100]);
        assert!(
            lambda <= exact && lambda >= 0.9 * exact,
            "{lambda} vs {exact}"
        );
    }

    #[test]
    fn lanczos_stops_on_breakdown() {
        // D^{-1}A = I: CG converges in one step, which gives λ̂ = 1
        let identity: Vec<_> = (0..50).map(|i| (i, i, 2.0)).collect();
        let a = CsrMatrix::from_triplets(50, 50, &identity);
        let lambda = lanczos_lambda_max(&a, &[0.5; 50]);
        assert!((lambda - 1.0).abs() < 1e-12, "{lambda}");
        // a negative D^{-1} gives rᵀz < 0 before the first step
        assert_eq!(lanczos_lambda_max(&laplace_1d(50), &[-0.5; 50]), 1.0);
    }

    #[test]
    fn empty_operator_gets_unit_estimate() {
        let a = CsrMatrix::<f64>::from_triplets(0, 0, &[]);
        let cheb = ChebyshevSmoother::new(&a, Vec::new(), 3, 20.0);
        assert_eq!(cheb.lambda_max, 1.2);
    }

    #[test]
    fn tridiagonal_max_eigenvalue_of_laplacian() {
        // tridiag(-1, 2, -1) of order m: λmax = 2 + 2 cos(π/(m+1))
        for m in [1, 2, 5, 8] {
            let exact = 2.0 + 2.0 * (std::f64::consts::PI / (m as f64 + 1.0)).cos();
            let lambda = tridiagonal_max_eigenvalue(&vec![2.0; m], &vec![-1.0; m - 1]);
            assert!((lambda - exact).abs() < 1e-14, "m {m}: {lambda} vs {exact}");
        }
    }

    #[test]
    fn smoothing_reduces_residual_monotonically_with_degree() {
        let a = laplace_1d(64);
        let b = vec![1.0; 64];
        let mut prev = f64::INFINITY;
        for degree in [1, 2, 3, 5] {
            let cheb = ChebyshevSmoother::new(&a, vec![0.5; 64], degree, 20.0);
            let mut x = vec![0.0; 64];
            cheb.smooth(&a, &b, &mut x, true);
            let res = error_norm(&a, &b, &x);
            assert!(res < prev, "degree {degree}: {res} !< {prev}");
            prev = res;
        }
    }

    #[test]
    fn damps_high_frequency_error_strongly() {
        // Smoothers must kill oscillatory error much faster than smooth
        // error — the property multigrid relies on.
        let n = 128;
        let a = laplace_1d(n);
        // narrow smoothing range → strong, near-equioscillating damping of
        // the targeted upper part of the spectrum
        let cheb = ChebyshevSmoother::new(&a, vec![0.5; n], 3, 4.0);
        let b = vec![0.0; n];
        // high-frequency error
        let mut x_hf: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        // smooth error
        let mut x_lf: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * (i as f64 + 1.0) / (n as f64 + 1.0)).sin())
            .collect();
        let hf0 = vec_ops::norm(&x_hf);
        let lf0 = vec_ops::norm(&x_lf);
        cheb.smooth(&a, &b, &mut x_hf, false);
        cheb.smooth(&a, &b, &mut x_lf, false);
        let hf_reduction = vec_ops::norm(&x_hf) / hf0;
        let lf_reduction = vec_ops::norm(&x_lf) / lf0;
        assert!(
            hf_reduction < 0.15,
            "high-frequency reduction {hf_reduction}"
        );
        assert!(
            hf_reduction < 0.3 * lf_reduction,
            "hf {hf_reduction} vs lf {lf_reduction}"
        );
    }

    #[test]
    fn nonzero_initial_guess_is_respected() {
        let a = laplace_1d(32);
        let x_true: Vec<f64> = (0..32).map(|i| f64::from(i) * 0.1).collect();
        let mut b = vec![0.0; 32];
        a.matvec(&x_true, &mut b);
        let cheb = ChebyshevSmoother::new(&a, vec![0.5; 32], 3, 20.0);
        // starting from the exact solution, smoothing must stay there
        let mut x = x_true.clone();
        cheb.smooth(&a, &b, &mut x, false);
        for i in 0..32 {
            assert!((x[i] - x_true[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn works_as_cg_preconditioner() {
        let a = laplace_1d(200);
        let cheb = ChebyshevSmoother::new(&a, vec![0.5; 200], 3, 20.0);
        let pre = ChebyshevPreconditioner {
            smoother: &cheb,
            op: &a,
        };
        let b = vec![1.0; 200];
        let mut x = vec![0.0; 200];
        let res = crate::cg::cg_solve(&a, &pre, &b, &mut x, 1e-10, 500);
        assert!(res.converged);
        let mut x2 = vec![0.0; 200];
        let plain = crate::cg::cg_solve(
            &a,
            &crate::traits::IdentityPreconditioner,
            &b,
            &mut x2,
            1e-10,
            500,
        );
        assert!(res.iterations < plain.iterations);
    }
}
