//! Symmetric interior penalty (SIPG) discretization of the Laplacian —
//! the operator of the pressure Poisson equation (2) and the building
//! block of the viscous step.

use crate::evaluator::{
    apply_cell_laplace, evaluate_face, evaluate_gradients, evaluate_values, gather_cell,
    gather_face_cells, integrate_face, integrate_ref, scatter_add_cell, scatter_add_face_cells,
    CellScratch, FaceScratch, FaceSideDesc,
};
use crate::loops::LoopSpan;
use crate::matrixfree::MatrixFree;
use crate::operators::sipg::{
    cell_diagonal, cell_diagonal_reference, contract_two_stage, face_diagonal,
    face_diagonal_reference, interior_face_flux, nitsche_boundary_term, nitsche_lifting,
    DiagonalTables, FaceSide,
};
use crate::util::SharedMut;
use dgflow_simd::Real;
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
        let counts =
            dgflow_perfmodel::LaplaceCounts::new(mf.params.degree, std::mem::size_of::<T>() as f64);
        let flops_per_apply = counts.flops_per_dof * mf.n_dofs() as f64;
        Self {
            mf,
            bc,
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
        apply_cell_laplace(&self.mf, bi, s);
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

    /// SIPG kernel of face batch `bi`: gathers each side's lanes from
    /// `src` through its `gather` table, applies the flux and adds each
    /// side's contributions to `dst` through its `scatter` table, minus
    /// side first. A table holds one cell slot of the vectors' layout per
    /// lane (side 0 minus, side 1 plus); `u32::MAX` lanes read zero and
    /// write nothing. Neumann faces carry no term.
    pub(crate) fn face_kernel(
        &self,
        bi: usize,
        (sm, sp): &mut (FaceScratch<T, L>, FaceScratch<T, L>),
        gather: [&[u32; L]; 2],
        scatter: [&[u32; L]; 2],
        src: &[T],
        dst: &SharedMut<T>,
    ) {
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        let b = &mf.face_batches[bi];
        let n = b.n_filled;
        let read = |side: usize, s: &mut FaceScratch<T, L>| {
            gather_face_cells(gather[side], n, src, dpc, 0, dpc, &mut s.dofs);
        };
        let write = |side: usize, s: &FaceScratch<T, L>| {
            scatter_add_face_cells(scatter[side], n, &s.dofs, dpc, 0, dpc, dst);
        };
        let cat = b.category;
        if cat.is_boundary {
            if self.bc_of(cat.boundary_id) == BoundaryCondition::Dirichlet {
                read(0, sm);
                nitsche_boundary_term(mf, bi, sm);
                write(0, sm);
            }
            return;
        }
        let (desc_m, desc_p) = (FaceSideDesc::minus(b), FaceSideDesc::plus(b));
        read(0, sm);
        read(1, sp);
        evaluate_face(mf, desc_m, true, sm);
        evaluate_face(mf, desc_p, true, sp);
        interior_face_flux(&mf.face_geometry[bi], mf.sigma[bi], sm, sp);
        integrate_face(mf, desc_m, true, sm);
        write(0, sm);
        integrate_face(mf, desc_p, true, sp);
        write(1, sp);
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
                    let b = &mf.face_batches[bi];
                    let sides = [&b.minus, &b.plus];
                    self.face_kernel(bi, s, sides, sides, src, out);
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
        // serial; runs on every pressure step of the flow solver
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
    /// blocks plus the own-side face blocks, each by sum factorization of
    /// the 1-D product tables (see [`cell_diagonal`], [`face_diagonal`]).
    pub fn compute_diagonal(&self) -> Vec<T> {
        let mf = &*self.mf;
        let tables = DiagonalTables::new(mf);
        self.diagonal_with(
            |bi, s| cell_diagonal(mf, &tables, bi, s),
            |bi, side, s| face_diagonal(mf, &tables, bi, side, s),
        )
    }

    /// The diagonal through the reference kernels: every column of every
    /// local block in full, keeping its own entry. Exists so the
    /// kernel-equivalence suite can pin [`LaplaceOperator::compute_diagonal`]
    /// against it.
    pub fn diagonal_reference(&self) -> Vec<T> {
        let mf = &*self.mf;
        self.diagonal_with(
            |bi, s| cell_diagonal_reference(mf, bi, s),
            |bi, side, s| face_diagonal_reference(mf, bi, side, s),
        )
    }

    /// Sum the block diagonals that `cell(bi, s)` and `face(bi, side, s)`
    /// leave in `s.dofs` into the diagonal: every cell batch, and the
    /// own-side blocks of every face batch (the coupling blocks do not
    /// touch the diagonal; Neumann faces have none).
    fn diagonal_with(
        &self,
        cell: impl Fn(usize, &mut CellScratch<T, L>) + Sync,
        face: impl Fn(usize, FaceSide, &mut FaceScratch<T, L>) + Sync,
    ) -> Vec<T> {
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        let mut diag = vec![T::ZERO; mf.n_dofs()];
        mf.loop_over(
            None,
            &mut diag,
            (
                || CellScratch::new(mf),
                |bi, s, out| {
                    cell(bi, s);
                    scatter_add_cell(&mf.cell_batches[bi], &s.dofs, dpc, 0, dpc, out);
                },
            ),
            (
                || FaceScratch::new(mf),
                |bi, s, out| {
                    let b = &mf.face_batches[bi];
                    let cat = b.category;
                    let sides = if !cat.is_boundary {
                        &[(FaceSide::Minus, &b.minus), (FaceSide::Plus, &b.plus)][..]
                    } else if self.bc_of(cat.boundary_id) == BoundaryCondition::Dirichlet {
                        &[(FaceSide::Boundary, &b.minus)][..]
                    } else {
                        &[]
                    };
                    for &(side, cells) in sides {
                        face(bi, side, s);
                        scatter_add_face_cells(cells, b.n_filled, &s.dofs, dpc, 0, dpc, out);
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
