//! Symmetric interior penalty (SIPG) discretization of the Laplacian —
//! the operator of the pressure Poisson equation (2) and the building
//! block of the viscous step.

use crate::evaluator::{
    apply_cell_laplace, evaluate_face, evaluate_gradients, evaluate_values, gather_cell,
    gather_face_cells, integrate_face, integrate_ref, laplace_cell_coeff, scatter_add_cell,
    scatter_add_face_cells, CellScratch, FaceScratch, FaceSideDesc,
};
use crate::loops::LoopSpan;
use crate::matrixfree::MatrixFree;
use crate::operators::sipg::{
    boundary_column, cell_column, contract_two_stage, interior_face_flux, interior_side_column,
    nitsche_boundary_term, nitsche_lifting,
};
use crate::util::SharedMut;
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// Boundary treatment per boundary id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryCondition {
    /// Value prescribed weakly (Nitsche/SIPG); the operator applies the
    /// homogeneous part, inhomogeneous data enters the right-hand side.
    Dirichlet,
    /// Prescribed normal derivative; no operator face term.
    Neumann,
}

/// Matrix-free SIPG Laplacian.
pub struct LaplaceOperator<T: Real, const L: usize> {
    /// The matrix-free context.
    pub mf: Arc<MatrixFree<T, L>>,
    /// Boundary condition per boundary id (defaults to Dirichlet for ids
    /// beyond the list).
    pub bc: Vec<BoundaryCondition>,
    /// Per-batch merged symmetric cell coefficient (6 batches per
    /// quadrature point) for the fused cell kernel.
    coeff: Vec<Vec<Simd<T, L>>>,
    /// Modeled Flop per full operator application, for the roofline tag on
    /// the `laplace.apply` span.
    flops_per_apply: f64,
}

impl<T: Real, const L: usize> LaplaceOperator<T, L> {
    /// Create with all boundaries Dirichlet.
    pub fn new(mf: Arc<MatrixFree<T, L>>) -> Self {
        Self::with_bc(mf, Vec::new())
    }

    /// Create with explicit per-id boundary conditions.
    pub fn with_bc(mf: Arc<MatrixFree<T, L>>, bc: Vec<BoundaryCondition>) -> Self {
        let coeff = laplace_cell_coeff(&mf);
        let counts =
            dgflow_perfmodel::LaplaceCounts::new(mf.params.degree, std::mem::size_of::<T>() as f64);
        let flops_per_apply = counts.flops_per_dof * mf.n_dofs() as f64;
        Self {
            mf,
            bc,
            coeff,
            flops_per_apply,
        }
    }

    /// Boundary condition of a boundary id.
    pub fn bc_of(&self, id: u32) -> BoundaryCondition {
        self.bc
            .get(id as usize)
            .copied()
            .unwrap_or(BoundaryCondition::Dirichlet)
    }

    /// Fused cell kernel of batch `bi` on the nodal values gathered into
    /// `s.dofs`; leaves the batch's contribution there.
    pub(crate) fn cell_term(&self, bi: usize, s: &mut CellScratch<T, L>) {
        apply_cell_laplace(&self.mf, &self.coeff[bi], s);
    }

    /// Reference cell kernel: the unfused evaluate/integrate pipeline with
    /// the two-stage Jacobian contraction. Equivalence baseline for the
    /// fused [`apply_cell_laplace`] path (see `kernel_equiv.rs`).
    fn cell_term_ref(&self, bi: usize, s: &mut CellScratch<T, L>) {
        let mf = &*self.mf;
        evaluate_values(mf, s);
        evaluate_gradients(mf, s);
        contract_two_stage(&mf.cell_geometry[bi], s);
        integrate_ref(mf, s, false, true);
    }

    /// SIPG kernel of face batch `bi`: reads each side's cells through
    /// `gather`, applies the flux and hands each side's contributions to
    /// `scatter`, minus side first. Neumann faces carry no term. Both
    /// closures get a side's lane cells, the batch fill and the values.
    pub(crate) fn face_kernel(
        &self,
        bi: usize,
        (sm, sp): &mut (FaceScratch<T, L>, FaceScratch<T, L>),
        gather: impl Fn(&[u32; L], usize, &mut [Simd<T, L>]),
        mut scatter: impl FnMut(&[u32; L], usize, &[Simd<T, L>]),
    ) {
        let mf = &*self.mf;
        let b = &mf.face_batches[bi];
        let cat = b.category;
        if cat.is_boundary {
            if self.bc_of(cat.boundary_id) == BoundaryCondition::Dirichlet {
                gather(&b.minus, b.n_filled, &mut sm.dofs);
                nitsche_boundary_term(mf, bi, sm);
                scatter(&b.minus, b.n_filled, &sm.dofs);
            }
            return;
        }
        let (desc_m, desc_p) = (FaceSideDesc::minus(b), FaceSideDesc::plus(b));
        gather(&b.minus, b.n_filled, &mut sm.dofs);
        gather(&b.plus, b.n_filled, &mut sp.dofs);
        evaluate_face(mf, desc_m, true, sm);
        evaluate_face(mf, desc_p, true, sp);
        interior_face_flux(&mf.face_geometry[bi], sm, sp);
        integrate_face(mf, desc_m, true, sm);
        scatter(&b.minus, b.n_filled, &sm.dofs);
        integrate_face(mf, desc_p, true, sp);
        scatter(&b.plus, b.n_filled, &sp.dofs);
    }

    /// Run the loop with the cell kernel `cell` and the SIPG face kernel.
    fn run(
        &self,
        span: LoopSpan,
        src: &[T],
        dst: &mut [T],
        cell: impl Fn(usize, &mut CellScratch<T, L>) + Sync,
    ) {
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        mf.loop_over(
            span,
            dst,
            (
                || CellScratch::new(mf),
                |bi, s, out| {
                    let b = &mf.cell_batches[bi];
                    gather_cell(b, src, dpc, 0, dpc, &mut s.dofs);
                    cell(bi, s);
                    scatter_add_cell(b, &s.dofs, dpc, 0, dpc, out);
                },
            ),
            (
                || (FaceScratch::new(mf), FaceScratch::new(mf)),
                |bi, s, out| {
                    self.face_kernel(
                        bi,
                        s,
                        |cells, n, v| gather_face_cells(cells, n, src, dpc, 0, dpc, v),
                        |cells, n, v| scatter_add_face_cells(cells, n, v, dpc, 0, dpc, out),
                    );
                },
            ),
        );
    }

    /// Apply the operator through the reference kernels (unfused cell
    /// pipeline, two-stage Jacobian contraction). Exists so the
    /// kernel-equivalence suite can pin the fused default path against it.
    pub fn apply_reference(&self, src: &[T], dst: &mut [T]) {
        self.run(None, src, dst, |bi, s| self.cell_term_ref(bi, s));
    }

    /// Assemble the right-hand side contribution of inhomogeneous Dirichlet
    /// data `g` (added to any volumetric right-hand side).
    pub fn boundary_rhs(&self, gfun: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        self.boundary_rhs_by_id(&|_, x| gfun(x))
    }

    /// Like [`LaplaceOperator::boundary_rhs`] but the data may depend on the
    /// boundary id (per-outlet pressures in the lung application).
    pub fn boundary_rhs_by_id(&self, gfun: &(dyn Fn(u32, [f64; 3]) -> f64 + Sync)) -> Vec<T> {
        let mf = &*self.mf;
        let mut rhs = vec![T::ZERO; mf.n_dofs()];
        let dst = SharedMut::new(&mut rhs);
        let dpc = mf.dofs_per_cell;
        // serial: assembly happens once
        let mut sm = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) != BoundaryCondition::Dirichlet {
                continue;
            }
            nitsche_lifting(mf, bi, |x| gfun(cat.boundary_id, x), &mut sm);
            scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, dpc, 0, dpc, &dst);
        }
        rhs
    }

    /// Exact operator diagonal (for Jacobi/Chebyshev smoothing): local cell
    /// blocks plus the own-side face blocks, computed by applying the local
    /// kernels to unit vectors.
    pub fn compute_diagonal(&self) -> Vec<T> {
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        let mut diag = vec![T::ZERO; mf.n_dofs()];
        // adds column i's own entry of every filled lane's cell
        let add = |cells: &[u32; L], n: usize, i: usize, v: &Simd<T, L>, out: &SharedMut<T>| {
            for l in 0..n {
                if cells[l] != u32::MAX {
                    // SAFETY: the loop runs concurrently only batches whose
                    // cells are disjoint (see `crate::loops`)
                    unsafe { *out.at(dpc * cells[l] as usize + i) += v[l] };
                }
            }
        };
        mf.loop_over(
            None,
            &mut diag,
            (
                || CellScratch::new(mf),
                |bi, s, out| {
                    let b = &mf.cell_batches[bi];
                    for i in 0..dpc {
                        cell_column(mf, bi, i, s);
                        add(&b.cells, b.n_filled, i, &s.dofs[i], out);
                    }
                },
            ),
            // own-side face blocks only: the coupling blocks do not touch
            // the diagonal
            (
                || FaceScratch::new(mf),
                |bi, s, out| {
                    let b = &mf.face_batches[bi];
                    let cat = b.category;
                    for i in 0..dpc {
                        if !cat.is_boundary {
                            for (plus, cells) in [(false, &b.minus), (true, &b.plus)] {
                                interior_side_column(mf, bi, plus, i, s);
                                add(cells, b.n_filled, i, &s.dofs[i], out);
                            }
                        } else if self.bc_of(cat.boundary_id) == BoundaryCondition::Dirichlet {
                            boundary_column(mf, bi, i, s);
                            add(&b.minus, b.n_filled, i, &s.dofs[i], out);
                        }
                    }
                },
            ),
        );
        diag
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for LaplaceOperator<T, L> {
    fn len(&self) -> usize {
        self.mf.n_dofs()
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let span = Some(("laplace.apply", self.flops_per_apply));
        self.run(span, src, dst, |bi, s| self.cell_term(bi, s));
    }

    fn diagonal(&self) -> Vec<T> {
        self.compute_diagonal()
    }
}
