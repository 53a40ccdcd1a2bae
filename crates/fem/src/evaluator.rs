//! Cell and face evaluation kernels: the `G`, `I`, `I^T`, `G^T` stages of
//! Eq. (7), written once and shared by every operator.
//!
//! All kernels use the basis-change (collocation) strategy of Kronbichler &
//! Kormann: interpolate nodal values to the quadrature points first (a
//! no-op for the Gauss-collocated DG bases), then differentiate there with
//! the collocation derivative matrix. Face kernels evaluate traces by
//! contracting the normal direction with the boundary-value/derivative
//! vectors of the 1-D basis, handle hanging subfaces through half-interval
//! interpolation matrices, and reconcile the two sides of a face through
//! index permutations on the symmetric quadrature grid (Sec. 3.2's
//! "partially filled lanes" categories).

use crate::batch::{CellBatch, FaceBatch};
use crate::matrixfree::{tangential, MatrixFree};
use dgflow_mesh::FaceOrientation;
use dgflow_simd::{Real, Simd};
use dgflow_tensor::sumfac::{
    apply_1d, apply_1d_2d, contract_dir, expand_dir, extract_dir, insert_dir,
};

/// Scratch buffers for cell kernels (the matrix-free loop recycles them
/// across the batches of a call).
pub struct CellScratch<T: Real, const L: usize> {
    /// Nodal coefficients (`n^3`).
    pub dofs: Vec<Simd<T, L>>,
    /// Values at quadrature points (`nq^3`).
    pub quad: Vec<Simd<T, L>>,
    /// Reference-coordinate gradients at quadrature points (3 × `nq^3`).
    pub grad: [Vec<Simd<T, L>>; 3],
    /// Intermediate sweeps.
    pub(crate) tmp: Vec<Simd<T, L>>,
    pub(crate) tmp2: Vec<Simd<T, L>>,
}

impl<T: Real, const L: usize> CellScratch<T, L> {
    /// Allocate for a given context.
    pub fn new(mf: &MatrixFree<T, L>) -> Self {
        let n = mf.n_1d();
        let nq = mf.n_q();
        let m = n.max(nq);
        let m3 = m * m * m;
        Self {
            dofs: vec![Simd::zero(); n * n * n],
            quad: vec![Simd::zero(); nq * nq * nq],
            grad: [
                vec![Simd::zero(); nq * nq * nq],
                vec![Simd::zero(); nq * nq * nq],
                vec![Simd::zero(); nq * nq * nq],
            ],
            tmp: vec![Simd::zero(); m3],
            tmp2: vec![Simd::zero(); m3],
        }
    }
}

/// Gather the nodal values of every lane's cell: lane `l` reads
/// `src[stride*cell + offset + i]`.
pub fn gather_cell<T: Real, const L: usize>(
    batch: &CellBatch<L>,
    src: &[T],
    stride: usize,
    offset: usize,
    dofs_per_cell: usize,
    out: &mut [Simd<T, L>],
) {
    for i in 0..dofs_per_cell {
        let mut v = Simd::<T, L>::zero();
        for l in 0..batch.n_filled {
            v[l] = src[stride * batch.cells[l] as usize + offset + i];
        }
        out[i] = v;
    }
}

/// Scatter-add nodal values back: `dst[stride*cell + offset + i] += vals[i]`.
pub fn scatter_add_cell<T: Real, const L: usize>(
    batch: &CellBatch<L>,
    vals: &[Simd<T, L>],
    stride: usize,
    offset: usize,
    dofs_per_cell: usize,
    dst: &crate::util::SharedMut<T>,
) {
    for l in 0..batch.n_filled {
        let base = stride * batch.cells[l] as usize + offset;
        for i in 0..dofs_per_cell {
            // SAFETY: concurrent callers run inside the matrix-free loop,
            // which schedules only batches with disjoint cells at once
            // (`crate::loops`); other callers are serial
            unsafe { *dst.at(base + i) += vals[i][l] };
        }
    }
}

/// Interpolate nodal coefficients to quadrature-point values
/// (`scratch.dofs` → `scratch.quad`). Identity for collocated bases.
pub fn evaluate_values<T: Real, const L: usize>(mf: &MatrixFree<T, L>, s: &mut CellScratch<T, L>) {
    let n = mf.n_1d();
    let nq = mf.n_q();
    if mf.collocated() {
        s.quad.copy_from_slice(&s.dofs);
        return;
    }
    apply_1d(
        &mf.shape.values,
        &s.dofs,
        &mut s.tmp[..nq * n * n],
        [n, n, n],
        0,
        false,
    );
    apply_1d(
        &mf.shape.values,
        &s.tmp[..nq * n * n],
        &mut s.tmp2[..nq * nq * n],
        [nq, n, n],
        1,
        false,
    );
    apply_1d(
        &mf.shape.values,
        &s.tmp2[..nq * nq * n],
        &mut s.quad,
        [nq, nq, n],
        2,
        false,
    );
}

/// Transpose of [`evaluate_values`]: test the quadrature-point values
/// (`scratch.quad` → `scratch.dofs`). Identity for collocated bases.
fn integrate_values<T: Real, const L: usize>(mf: &MatrixFree<T, L>, s: &mut CellScratch<T, L>) {
    let n = mf.n_1d();
    let nq = mf.n_q();
    if mf.collocated() {
        s.dofs.copy_from_slice(&s.quad);
        return;
    }
    apply_1d(
        &mf.shape.values_t,
        &s.quad,
        &mut s.tmp[..n * nq * nq],
        [nq, nq, nq],
        0,
        false,
    );
    apply_1d(
        &mf.shape.values_t,
        &s.tmp[..n * nq * nq],
        &mut s.tmp2[..n * n * nq],
        [n, nq, nq],
        1,
        false,
    );
    apply_1d(
        &mf.shape.values_t,
        &s.tmp2[..n * n * nq],
        &mut s.dofs,
        [n, n, nq],
        2,
        false,
    );
}

/// Differentiate quadrature-point values (`scratch.quad` → `scratch.grad`),
/// in reference coordinates, via the collocation derivative.
pub fn evaluate_gradients<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    s: &mut CellScratch<T, L>,
) {
    let nq = mf.n_q();
    for d in 0..3 {
        // NOTE: the paper's Flop-minimizing even–odd decomposition measured
        // 0.5–0.8× the speed of this dense sweep on the lane-array kernels
        // (the dense inner loop vectorizes perfectly, the decomposition
        // adds lane recombination), so it was removed; see EXPERIMENTS.md.
        apply_1d(
            &mf.shape.colloc_gradients,
            &s.quad,
            &mut s.grad[d],
            [nq, nq, nq],
            d,
            false,
        );
    }
}

/// Transpose of [`evaluate_gradients`] + [`evaluate_values`]: test the
/// reference gradients in `scratch.grad` (and, when `with_values`, the
/// values in `scratch.quad`), producing nodal coefficients in
/// `scratch.dofs`.
pub fn integrate<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    s: &mut CellScratch<T, L>,
    with_values: bool,
    with_gradients: bool,
) {
    let nq = mf.n_q();
    // accumulate everything on the quadrature grid first; the transpose
    // sweeps add directly into `quad` (no tmp round-trip — `dst[o] += acc`
    // inside the sweep is bitwise equal to the reference's sweep-then-add,
    // see `integrate_ref` and the `fused_integrate_matches_reference` test)
    if with_gradients {
        for d in 0..3 {
            let keep = d != 0 || with_values;
            apply_1d(
                &mf.shape.colloc_gradients_t,
                &s.grad[d],
                &mut s.quad,
                [nq, nq, nq],
                d,
                keep,
            );
        }
    }
    integrate_values(mf, s);
}

/// Reference implementation of [`integrate`]: sweep each gradient component
/// into a temporary, then add whole arrays. Kept as the equivalence
/// baseline for the fused-accumulation fast path above.
pub fn integrate_ref<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    s: &mut CellScratch<T, L>,
    with_values: bool,
    with_gradients: bool,
) {
    let nq = mf.n_q();
    if with_gradients {
        for d in 0..3 {
            apply_1d(
                &mf.shape.colloc_gradients_t,
                &s.grad[d],
                &mut s.tmp[..nq * nq * nq],
                [nq, nq, nq],
                d,
                false,
            );
            if d == 0 && !with_values {
                s.quad.copy_from_slice(&s.tmp[..nq * nq * nq]);
            } else {
                for (q, t) in s.quad.iter_mut().zip(&s.tmp) {
                    *q += *t;
                }
            }
        }
    }
    integrate_values(mf, s);
}

/// Fused SIPG Laplace cell kernel of batch `bi`: differentiate the gathered
/// nodal data in `s.dofs`, contract with the geometry's merged symmetric
/// coefficient (6 batches per point, [`crate::geometry::CellGeometry::laplace`]),
/// and apply the transposed gradient sweeps back into `s.dofs` — for
/// collocated bases six total sweeps with no value-interpolation copies or
/// tmp round-trips.
pub fn apply_cell_laplace<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    s: &mut CellScratch<T, L>,
) {
    let nq = mf.n_q();
    let coeff = &mf.cell_geometry[bi].laplace;
    let e = [nq, nq, nq];
    if mf.collocated() {
        for d in 0..3 {
            apply_1d(
                &mf.shape.colloc_gradients,
                &s.dofs,
                &mut s.grad[d],
                e,
                d,
                false,
            );
        }
    } else {
        evaluate_values(mf, s);
        for d in 0..3 {
            apply_1d(
                &mf.shape.colloc_gradients,
                &s.quad,
                &mut s.grad[d],
                e,
                d,
                false,
            );
        }
    }
    let [gx, gy, gz] = &mut s.grad;
    for (((g0, g1), g2), c) in gx
        .iter_mut()
        .zip(gy.iter_mut())
        .zip(gz.iter_mut())
        .zip(coeff.chunks_exact(6))
    {
        let (a, b, d) = (*g0, *g1, *g2);
        *g0 = a * c[0] + b * c[1] + d * c[2];
        *g1 = a * c[1] + b * c[3] + d * c[4];
        *g2 = a * c[2] + b * c[4] + d * c[5];
    }
    if mf.collocated() {
        for d in 0..3 {
            apply_1d(
                &mf.shape.colloc_gradients_t,
                &s.grad[d],
                &mut s.dofs,
                e,
                d,
                d != 0,
            );
        }
    } else {
        for d in 0..3 {
            apply_1d(
                &mf.shape.colloc_gradients_t,
                &s.grad[d],
                &mut s.quad,
                e,
                d,
                d != 0,
            );
        }
        integrate_values(mf, s);
    }
}

/// Scratch buffers for one side of a face kernel.
pub struct FaceScratch<T: Real, const L: usize> {
    /// Cell nodal gather buffer (`n^3`).
    pub dofs: Vec<Simd<T, L>>,
    /// Trace values at face quadrature points (`nq^2`), minus-frame order.
    pub val: Vec<Simd<T, L>>,
    /// Reference-gradient components at face quadrature points (3 × `nq^2`),
    /// in the *owning cell's* reference axes, minus-frame order.
    pub grad: [Vec<Simd<T, L>>; 3],
    /// Trace values and normal derivatives on the nodal face grid (`n^2`).
    pub(crate) nodal2d: Vec<Simd<T, L>>,
    pub(crate) nodal2d_n: Vec<Simd<T, L>>,
    pub(crate) tmp: Vec<Simd<T, L>>,
    tmp2: Vec<Simd<T, L>>,
}

impl<T: Real, const L: usize> FaceScratch<T, L> {
    /// Allocate for a given context.
    pub fn new(mf: &MatrixFree<T, L>) -> Self {
        let n = mf.n_1d();
        let nq = mf.n_q();
        let m2 = n.max(nq) * n.max(nq);
        Self {
            dofs: vec![Simd::zero(); n * n * n],
            val: vec![Simd::zero(); nq * nq],
            grad: [
                vec![Simd::zero(); nq * nq],
                vec![Simd::zero(); nq * nq],
                vec![Simd::zero(); nq * nq],
            ],
            nodal2d: vec![Simd::zero(); n * n],
            nodal2d_n: vec![Simd::zero(); n * n],
            tmp: vec![Simd::zero(); m2],
            tmp2: vec![Simd::zero(); m2],
        }
    }
}

/// Which role a cell plays on a face.
#[derive(Clone, Copy, Debug)]
pub struct FaceSideDesc {
    /// Face number within this cell.
    pub face_no: u8,
    /// Subface quadrant of the *minus* cell (minus side only).
    pub subface: Option<u8>,
    /// Permutation from minus-frame to this side's frame (plus side only;
    /// identity on the minus side).
    pub orientation: FaceOrientation,
    /// True for the plus side (output permuted back to minus frame).
    pub is_plus: bool,
}

impl FaceSideDesc {
    /// Minus-side descriptor of a face batch.
    pub fn minus<const L: usize>(b: &FaceBatch<L>) -> Self {
        Self {
            face_no: b.category.face_minus,
            subface: b.category.subface(),
            orientation: FaceOrientation::IDENTITY,
            is_plus: false,
        }
    }

    /// Plus-side descriptor of a face batch.
    pub fn plus<const L: usize>(b: &FaceBatch<L>) -> Self {
        Self {
            face_no: b.category.face_plus,
            subface: None,
            orientation: b.category.orient(),
            is_plus: true,
        }
    }
}

/// Evaluate trace values (and reference gradients when `with_grad`) of the
/// cell data already gathered into `s.dofs`, writing `s.val` / `s.grad` in
/// minus-frame quadrature order.
pub fn evaluate_face<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    side: FaceSideDesc,
    with_grad: bool,
    s: &mut FaceScratch<T, L>,
) {
    let n = mf.n_1d();
    let nq = mf.n_q();
    let f = side.face_no as usize;
    let d = f / 2;
    let sd = f % 2;
    let (t1, t2) = tangential(d);
    // trace of values and (optionally) of the normal-direction derivative;
    // bases nodal at the endpoint (CG Gauss–Lobatto) trace by layer copy
    match mf.shape.face_unit[sd] {
        Some(u) => extract_dir(&s.dofs, &mut s.nodal2d, [n, n, n], d, u),
        None => contract_dir(
            &mf.shape.face_values[sd],
            &s.dofs,
            &mut s.nodal2d,
            [n, n, n],
            d,
        ),
    }
    if with_grad {
        contract_dir(
            &mf.shape.face_gradients[sd],
            &s.dofs,
            &mut s.nodal2d_n,
            [n, n, n],
            d,
        );
    }
    // tangential interpolation to quadrature points (sub-interval matrices
    // on the hanging minus side)
    let (m1, m2) = match side.subface {
        Some(c) => (
            &mf.shape.sub_values[(c & 1) as usize],
            &mf.shape.sub_values[((c >> 1) & 1) as usize],
        ),
        None => (&mf.shape.values, &mf.shape.values),
    };
    let collocated_id = mf.collocated() && side.subface.is_none();
    let interp = |src: &[Simd<T, L>], dst: &mut [Simd<T, L>], tmp: &mut [Simd<T, L>]| {
        if collocated_id {
            dst.copy_from_slice(src);
        } else {
            apply_1d_2d(m1, src, &mut tmp[..nq * n], [n, n], 0, false);
            apply_1d_2d(m2, &tmp[..nq * n], dst, [nq, n], 1, false);
        }
    };
    interp(&s.nodal2d, &mut s.val, &mut s.tmp);
    if with_grad {
        interp(&s.nodal2d_n, &mut s.grad[d], &mut s.tmp);
        // tangential derivatives on the face quadrature grid; scale 2 maps
        // subface-local derivatives back to parent reference coordinates
        let scale = if side.subface.is_some() {
            T::from_f64(2.0)
        } else {
            T::ONE
        };
        apply_1d_2d(
            &mf.shape.colloc_gradients,
            &s.val,
            &mut s.tmp,
            [nq, nq],
            0,
            false,
        );
        for (g, t) in s.grad[t1].iter_mut().zip(&s.tmp) {
            *g = *t * scale;
        }
        apply_1d_2d(
            &mf.shape.colloc_gradients,
            &s.val,
            &mut s.tmp,
            [nq, nq],
            1,
            false,
        );
        for (g, t) in s.grad[t2].iter_mut().zip(&s.tmp) {
            *g = *t * scale;
        }
    }
    // plus side: permute the quadrature grid into the minus frame
    if side.is_plus && side.orientation != FaceOrientation::IDENTITY {
        permute_to_minus(side.orientation, nq, &mut s.val, &mut s.tmp);
        if with_grad {
            for g in s.grad.iter_mut() {
                permute_to_minus(side.orientation, nq, g, &mut s.tmp);
            }
        }
    }
}

/// Transpose of [`evaluate_face`]: integrate the value flux in `s.val` and
/// (when `with_grad`) the reference-gradient fluxes in `s.grad` (all in
/// minus-frame order) against this side's test functions, producing nodal
/// contributions in `s.dofs`.
pub fn integrate_face<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    side: FaceSideDesc,
    with_grad: bool,
    s: &mut FaceScratch<T, L>,
) {
    let n = mf.n_1d();
    let nq = mf.n_q();
    let f = side.face_no as usize;
    let d = f / 2;
    let sd = f % 2;
    let (t1, t2) = tangential(d);
    // plus side: permute flux data into the plus frame first
    if side.is_plus && side.orientation != FaceOrientation::IDENTITY {
        permute_from_minus(side.orientation, nq, &mut s.val, &mut s.tmp);
        if with_grad {
            for g in s.grad.iter_mut() {
                permute_from_minus(side.orientation, nq, g, &mut s.tmp);
            }
        }
    }
    // tangential-gradient tests fold into the quadrature-value array
    if with_grad {
        let scale = if side.subface.is_some() {
            T::from_f64(2.0)
        } else {
            T::ONE
        };
        for (axis, dir) in [(0usize, t1), (1usize, t2)] {
            apply_1d_2d(
                &mf.shape.colloc_gradients_t,
                &s.grad[dir],
                &mut s.tmp,
                [nq, nq],
                axis,
                false,
            );
            for (v, t) in s.val.iter_mut().zip(&s.tmp) {
                *v += *t * scale;
            }
        }
    }
    // tangential integration back to the nodal face grid
    let (m1t, m2t) = match side.subface {
        Some(c) => (
            &mf.shape.sub_values_t[(c & 1) as usize],
            &mf.shape.sub_values_t[((c >> 1) & 1) as usize],
        ),
        None => (&mf.shape.values_t, &mf.shape.values_t),
    };
    let collocated_id = mf.collocated() && side.subface.is_none();
    let integ = |src: &[Simd<T, L>], dst: &mut [Simd<T, L>], tmp: &mut [Simd<T, L>]| {
        if collocated_id {
            dst.copy_from_slice(src);
        } else {
            apply_1d_2d(m1t, src, &mut tmp[..n * nq], [nq, nq], 0, false);
            apply_1d_2d(m2t, &tmp[..n * nq], dst, [n, nq], 1, false);
        }
    };
    integ(&s.val, &mut s.nodal2d, &mut s.tmp2);
    if with_grad {
        integ(&s.grad[d], &mut s.nodal2d_n, &mut s.tmp2);
    }
    // expand along the normal direction into the cell-nodal buffer; the
    // first expand overwrites (bitwise equal to zeroing then adding), the
    // second accumulates — one full pass over `dofs` saved per face side.
    // Endpoint-nodal bases (CG Gauss–Lobatto) insert one layer instead.
    match mf.shape.face_unit[sd] {
        Some(u) => insert_dir(&s.nodal2d, &mut s.dofs, [n, n, n], d, u, false),
        None => expand_dir(
            &mf.shape.face_values[sd],
            &s.nodal2d,
            &mut s.dofs,
            [n, n, n],
            d,
            false,
        ),
    }
    if with_grad {
        expand_dir(
            &mf.shape.face_gradients[sd],
            &s.nodal2d_n,
            &mut s.dofs,
            [n, n, n],
            d,
            true,
        );
    }
}

/// Reorder a plus-frame `nq×nq` array into minus-frame order:
/// `out[minus_idx] = in[plus_idx(minus_idx)]`.
fn permute_to_minus<T: Real, const L: usize>(
    o: FaceOrientation,
    nq: usize,
    data: &mut [Simd<T, L>],
    tmp: &mut [Simd<T, L>],
) {
    tmp[..nq * nq].copy_from_slice(data);
    for q2 in 0..nq {
        for q1 in 0..nq {
            let (p1, p2) = o.map_index(q1, q2, nq, nq);
            data[q1 + nq * q2] = tmp[p1 + nq * p2];
        }
    }
}

/// Inverse of [`permute_to_minus`].
pub(crate) fn permute_from_minus<T: Real, const L: usize>(
    o: FaceOrientation,
    nq: usize,
    data: &mut [Simd<T, L>],
    tmp: &mut [Simd<T, L>],
) {
    tmp[..nq * nq].copy_from_slice(data);
    for q2 in 0..nq {
        for q1 in 0..nq {
            let (p1, p2) = o.map_index(q1, q2, nq, nq);
            data[p1 + nq * p2] = tmp[q1 + nq * q2];
        }
    }
}

/// Gather one face side's cells from a vector (lane-wise).
pub fn gather_face_cells<T: Real, const L: usize>(
    cells: &[u32; L],
    n_filled: usize,
    src: &[T],
    stride: usize,
    offset: usize,
    dofs_per_cell: usize,
    out: &mut [Simd<T, L>],
) {
    for i in 0..dofs_per_cell {
        let mut v = Simd::<T, L>::zero();
        for l in 0..n_filled {
            if cells[l] != u32::MAX {
                v[l] = src[stride * cells[l] as usize + offset + i];
            }
        }
        out[i] = v;
    }
}

/// Scatter-add one face side's nodal contributions.
pub fn scatter_add_face_cells<T: Real, const L: usize>(
    cells: &[u32; L],
    n_filled: usize,
    vals: &[Simd<T, L>],
    stride: usize,
    offset: usize,
    dofs_per_cell: usize,
    dst: &crate::util::SharedMut<T>,
) {
    for l in 0..n_filled {
        if cells[l] == u32::MAX {
            continue;
        }
        let base = stride * cells[l] as usize + offset;
        for i in 0..dofs_per_cell {
            // SAFETY: as in `scatter_add_cell`: the matrix-free loop runs
            // one face color at a time, whose batches share no cell
            unsafe { *dst.at(base + i) += vals[i][l] };
        }
    }
}
