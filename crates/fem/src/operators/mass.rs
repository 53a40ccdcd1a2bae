//! Mass operator.
//!
//! With the Gauss-collocated nodal basis the element mass matrix is exactly
//! `diag(det J(x_q) w_q)` — the ExaDG choice that makes `M^{-1}` a pointwise
//! scaling by the reciprocal [`MassOperator::weights`] (the flow solver's
//! explicit sub-steps and penalty preconditioner use it).

use crate::matrixfree::MatrixFree;
use crate::operators::functions::for_each_point;
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;

/// Matrix-free mass operator (collocated spaces only).
pub struct MassOperator<'a, T: Real, const L: usize> {
    /// The matrix-free context.
    pub mf: &'a MatrixFree<T, L>,
}

impl<'a, T: Real, const L: usize> MassOperator<'a, T, L> {
    /// Create; panics for non-collocated spaces (where the mass matrix is
    /// not diagonal).
    pub fn new(mf: &'a MatrixFree<T, L>) -> Self {
        assert!(
            mf.collocated(),
            "MassOperator requires a Gauss-collocated basis"
        );
        Self { mf }
    }

    /// The diagonal `jxw` weights as a flat vector (one entry per DoF).
    pub fn weights(&self) -> Vec<T> {
        let dpc = self.mf.dofs_per_cell;
        let mut w = vec![T::ZERO; self.mf.n_dofs()];
        for_each_point(self.mf, |c, i, _, jxw| w[c * dpc + i] = jxw);
        w
    }
}

impl<'a, T: Real, const L: usize> LinearOperator<T> for MassOperator<'a, T, L> {
    fn len(&self) -> usize {
        self.mf.n_dofs()
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        let dpc = self.mf.dofs_per_cell;
        for_each_point(self.mf, |c, i, _, jxw| {
            dst[c * dpc + i] = src[c * dpc + i] * jxw;
        });
    }
    fn diagonal(&self) -> Vec<T> {
        self.weights()
    }
}
