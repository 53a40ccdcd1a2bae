//! Interpolation, right-hand-side assembly and error norms for DG fields.

use crate::matrixfree::MatrixFree;
use dgflow_simd::Real;

/// Visit every node of a collocated space with its position and mass
/// weight: `f(cell, node, x, JxW)`, batch by batch and lane by lane.
pub fn for_each_point<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    mut f: impl FnMut(usize, usize, [f64; 3], T),
) {
    assert!(
        mf.collocated(),
        "nodal point loops assume the collocated basis"
    );
    for (b, g) in mf.cell_batches.iter().zip(&mf.cell_geometry) {
        for l in 0..b.n_filled {
            // exact chunks let an unused position compile away
            let points = g.positions.chunks_exact(3).zip(&g.jxw);
            for (i, (p, jxw)) in points.enumerate() {
                let x = [p[0][l].to_f64(), p[1][l].to_f64(), p[2][l].to_f64()];
                f(b.cells[l] as usize, i, x, jxw[l]);
            }
        }
    }
}

/// Interpolate a scalar function into the collocated DG space (which is
/// also its quadrature-exact L² projection for this basis).
pub fn interpolate<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> Vec<T> {
    let dpc = mf.dofs_per_cell;
    let mut v = vec![T::ZERO; mf.n_dofs()];
    for_each_point(mf, |c, i, x, _| v[c * dpc + i] = T::from_f64(f(x)));
    v
}

/// Assemble `(f, φ_i)` for a scalar source `f` (collocated basis:
/// `f(x_i) · jxw_i`).
pub fn integrate_rhs<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> Vec<T> {
    let dpc = mf.dofs_per_cell;
    let mut v = vec![T::ZERO; mf.n_dofs()];
    for_each_point(mf, |c, i, x, jxw| v[c * dpc + i] = T::from_f64(f(x)) * jxw);
    v
}

/// Interpolate a scalar function at the *nodes* of any (possibly
/// non-collocated) DG space, using the polynomial mapping for node
/// positions.
pub fn interpolate_nodal<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> Vec<T> {
    mf.mapping
        .grid_positions(&mf.shape.nodes)
        .into_iter()
        .map(|p| T::from_f64(f(p)))
        .collect()
}

/// Quadrature L² norm of a DG field.
pub fn l2_norm<T: Real, const L: usize>(mf: &MatrixFree<T, L>, v: &[T]) -> f64 {
    l2_error(mf, v, &|_| 0.0)
}

/// Quadrature L² distance between a DG field and an exact function.
pub fn l2_error<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    v: &[T],
    exact: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> f64 {
    let dpc = mf.dofs_per_cell;
    let mut err2 = 0.0;
    for_each_point(mf, |c, i, x, jxw| {
        let d = v[c * dpc + i].to_f64() - exact(x);
        err2 += d * d * jxw.to_f64();
    });
    err2.sqrt()
}
