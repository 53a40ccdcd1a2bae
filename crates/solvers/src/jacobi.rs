//! Point-Jacobi preconditioner (the inner preconditioner of the Chebyshev
//! smoother, Sec. 3.4).

use crate::traits::Preconditioner;
use dgflow_simd::Real;

/// Diagonal (point-Jacobi) preconditioner.
pub struct JacobiPreconditioner<T> {
    inv_diag: Vec<T>,
}

impl<T: Real> JacobiPreconditioner<T> {
    /// Build from the operator diagonal.
    pub fn new(diag: Vec<T>) -> Self {
        let inv_diag = diag
            .into_iter()
            .map(|d| {
                assert!(d.to_f64() != 0.0, "zero diagonal entry");
                T::ONE / d
            })
            .collect();
        Self { inv_diag }
    }
}

impl<T: Real> Preconditioner<T> for JacobiPreconditioner<T> {
    fn apply_precond(&self, src: &[T], dst: &mut [T]) {
        for ((d, s), id) in dst.iter_mut().zip(src).zip(&self.inv_diag) {
            *d = *s * *id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applies_inverse_diagonal() {
        let j = JacobiPreconditioner::new(vec![2.0f64, 4.0, 0.5]);
        let mut out = vec![0.0; 3];
        j.apply_precond(&[2.0, 2.0, 2.0], &mut out);
        assert_eq!(out, vec![1.0, 0.5, 4.0]);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn rejects_zero_diagonal() {
        let _ = JacobiPreconditioner::new(vec![1.0f64, 0.0]);
    }
}
