//! Interpolation, right-hand-side assembly and error norms for DG fields.

use crate::matrixfree::MatrixFree;
use dgflow_simd::Real;

/// Interpolate a scalar function into the collocated DG space (which is
/// also its quadrature-exact L² projection for this basis).
pub fn interpolate<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> Vec<T> {
    assert!(mf.collocated());
    let dpc = mf.dofs_per_cell;
    let mut v = vec![T::ZERO; mf.n_dofs()];
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l].to_f64(),
                    g.positions[i * 3 + 1][l].to_f64(),
                    g.positions[i * 3 + 2][l].to_f64(),
                ];
                v[base + i] = T::from_f64(f(x));
            }
        }
    }
    v
}

/// Assemble `(f, φ_i)` for a scalar source `f` (collocated basis:
/// `f(x_i) · jxw_i`).
pub fn integrate_rhs<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> f64 + Sync),
) -> Vec<T> {
    assert!(mf.collocated());
    let dpc = mf.dofs_per_cell;
    let mut v = vec![T::ZERO; mf.n_dofs()];
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l].to_f64(),
                    g.positions[i * 3 + 1][l].to_f64(),
                    g.positions[i * 3 + 2][l].to_f64(),
                ];
                v[base + i] = T::from_f64(f(x)) * g.jxw[i][l];
            }
        }
    }
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
    assert!(mf.collocated(), "error norms assume the collocated basis");
    let dpc = mf.dofs_per_cell;
    let mut err2 = 0.0;
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l].to_f64(),
                    g.positions[i * 3 + 1][l].to_f64(),
                    g.positions[i * 3 + 2][l].to_f64(),
                ];
                let d = v[base + i].to_f64() - exact(x);
                err2 += d * d * g.jxw[i][l].to_f64();
            }
        }
    }
    err2.sqrt()
}
