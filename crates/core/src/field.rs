//! Vector (velocity) fields: the layout and every access to it.
//!
//! A velocity field stores the 3 components cell-blocked:
//! `v[cell * 3*dpc + comp * dpc + node]`. The layout is private to this
//! module: kernels read velocities through [`read_cell`]/[`read_face`]
//! (component `d` evaluated and handed to a visitor, `d = 0, 1, 2` in
//! order), write them through [`write_cell`]/[`write_face`] (a closure
//! fills component `d`'s test quantities, the helper integrates and
//! scatter-adds), and combine them with per-node scalar data through
//! [`for_each_node`]. Components touch disjoint entries and each helper
//! keeps the minus-before-plus order per component, so every destination
//! entry receives its contributions in a fixed order.

use dgflow_fem::evaluator::{
    evaluate_face, evaluate_gradients, evaluate_values, gather_cell, gather_face_cells, integrate,
    integrate_face, scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch,
    FaceSideDesc,
};
use dgflow_fem::operators::for_each_point;
use dgflow_fem::util::SharedMut;
use dgflow_fem::MatrixFree;
use dgflow_simd::{Real, Simd};

/// Number of velocity components.
pub const DIM: usize = 3;

/// Total length of a velocity vector on `mf`.
pub fn n_velocity_dofs<T: Real, const L: usize>(mf: &MatrixFree<T, L>) -> usize {
    DIM * mf.n_dofs()
}

/// Read every component of `u` on cell batch `bi`: gather component `d`,
/// evaluate its values into `s.quad` (and its reference gradients into
/// `s.grad` when `with_gradients`), then call `visit(d, s)`.
pub fn read_cell<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    u: &[T],
    with_gradients: bool,
    s: &mut CellScratch<T, L>,
    mut visit: impl FnMut(usize, &CellScratch<T, L>),
) {
    let b = &mf.cell_batches[bi];
    let (dpc, collocated) = (mf.dofs_per_cell, mf.collocated());
    for d in 0..DIM {
        // collocated: nodal values *are* the quadrature values, so gather
        // straight into the values buffer
        let vals = if collocated { &mut s.quad } else { &mut s.dofs };
        gather_cell(b, u, DIM * dpc, d * dpc, dpc, vals);
        if !collocated {
            evaluate_values(mf, s);
        }
        if with_gradients {
            evaluate_gradients(mf, s);
        }
        visit(d, s);
    }
}

/// Write every component on cell batch `bi`: `fill(d, grad)` sets the
/// reference-gradient test quantities of component `d`, which are
/// integrated and scatter-added into component `d` of `out`.
pub fn write_cell<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    s: &mut CellScratch<T, L>,
    out: &SharedMut<T>,
    mut fill: impl FnMut(usize, &mut [Vec<Simd<T, L>>; 3]),
) {
    let b = &mf.cell_batches[bi];
    let dpc = mf.dofs_per_cell;
    for d in 0..DIM {
        fill(d, &mut s.grad);
        integrate(mf, s, false, true);
        scatter_add_cell(b, &s.dofs, DIM * dpc, d * dpc, dpc, out);
    }
}

/// Read every component of `u` on face batch `bi`: evaluate the trace
/// values of component `d` on the minus side (in `sm`) and, on interior
/// faces, the plus side (in `sp`), then call `visit(d, minus, plus)` with
/// the values at the face quadrature points in minus-frame order (`plus`
/// is `None` on boundary faces). `sp` may be `None` when `bi` is a
/// boundary face; an interior face without it panics.
pub fn read_face<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    u: &[T],
    sm: &mut FaceScratch<T, L>,
    sp: Option<&mut FaceScratch<T, L>>,
    mut visit: impl FnMut(usize, &[Simd<T, L>], Option<&[Simd<T, L>]>),
) {
    let b = &mf.face_batches[bi];
    let dpc = mf.dofs_per_cell;
    let mut sp = if b.category.is_boundary {
        None
    } else {
        Some(sp.expect("read_face: an interior face needs a plus-side scratch"))
    };
    for d in 0..DIM {
        let off = d * dpc;
        gather_face_cells(&b.minus, b.n_filled, u, DIM * dpc, off, dpc, &mut sm.dofs);
        evaluate_face(mf, FaceSideDesc::minus(b), false, sm);
        if let Some(sp) = sp.as_deref_mut() {
            gather_face_cells(&b.plus, b.n_filled, u, DIM * dpc, off, dpc, &mut sp.dofs);
            evaluate_face(mf, FaceSideDesc::plus(b), false, sp);
        }
        visit(d, &sm.val, sp.as_deref().map(|sp| &sp.val[..]));
    }
}

/// Write a conservative flux on face batch `bi`: `fill(d, val)` sets the
/// minus side's value test quantity of component `d` at the face
/// quadrature points (minus-frame order); the plus side of an interior
/// face tests its negation. Each side is integrated and scatter-added
/// into component `d` of `out`, the minus side first.
pub fn write_face<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bi: usize,
    s: &mut FaceScratch<T, L>,
    out: &SharedMut<T>,
    mut fill: impl FnMut(usize, &mut [Simd<T, L>]),
) {
    let b = &mf.face_batches[bi];
    let dpc = mf.dofs_per_cell;
    for d in 0..DIM {
        let off = d * dpc;
        fill(d, &mut s.val);
        // the minus-side integration leaves `s.val` as filled
        integrate_face(mf, FaceSideDesc::minus(b), false, s);
        scatter_add_face_cells(&b.minus, b.n_filled, &s.dofs, DIM * dpc, off, dpc, out);
        if !b.category.is_boundary {
            for v in s.val.iter_mut() {
                *v = -*v;
            }
            integrate_face(mf, FaceSideDesc::plus(b), false, s);
            scatter_add_face_cells(&b.plus, b.n_filled, &s.dofs, DIM * dpc, off, dpc, out);
        }
    }
}

/// Index of node `i` of component `d` of `cell`.
fn index(dpc: usize, cell: usize, d: usize, i: usize) -> usize {
    (cell * DIM + d) * dpc + i
}

/// Visit `f(j, s, i)` for every velocity index `j` of `cells` with its
/// scalar node index `s = cell * dpc + i` and its node `i` within the
/// cell: cell by cell, then component, then node.
pub fn for_each_node(
    dpc: usize,
    cells: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(usize, usize, usize),
) {
    for c in cells {
        for d in 0..DIM {
            for i in 0..dpc {
                f(index(dpc, c, d, i), c * dpc + i, i);
            }
        }
    }
}

/// Interpolate a vector-valued function into the collocated velocity space.
pub fn interpolate_velocity<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> [f64; 3] + Sync),
) -> Vec<T> {
    let mut v = vec![T::ZERO; n_velocity_dofs(mf)];
    for_each_point(mf, |c, i, x, _| {
        for (d, vd) in f(x).into_iter().enumerate() {
            v[index(mf.dofs_per_cell, c, d, i)] = T::from_f64(vd);
        }
    });
    v
}

/// Quadrature L² error of a velocity field against an exact function.
pub fn velocity_l2_error<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    v: &[T],
    exact: &(dyn Fn([f64; 3]) -> [f64; 3] + Sync),
) -> f64 {
    let mut err2 = 0.0;
    for_each_point(mf, |c, i, x, jxw| {
        for (d, ed) in exact(x).into_iter().enumerate() {
            let diff = v[index(mf.dofs_per_cell, c, d, i)].to_f64() - ed;
            err2 += diff * diff * jxw.to_f64();
        }
    });
    err2.sqrt()
}

/// Extract one component into a contiguous scalar vector.
pub fn extract_component<T: Real>(v: &[T], dpc: usize, comp: usize, out: &mut [T]) {
    for (c, o) in out.chunks_exact_mut(dpc).enumerate() {
        o.copy_from_slice(&v[index(dpc, c, comp, 0)..][..dpc]);
    }
}

/// Write one component back from a contiguous scalar vector.
pub fn insert_component<T: Real>(v: &mut [T], dpc: usize, comp: usize, src: &[T]) {
    for (c, s) in src.chunks_exact(dpc).enumerate() {
        v[index(dpc, c, comp, 0)..][..dpc].copy_from_slice(s);
    }
}

/// Kinetic energy `½ ∫ |u|² dx` (quadrature-exact for the collocated
/// basis) — the stability diagnostic: without forcing, the LLF + SIPG +
/// penalty discretization must dissipate it.
pub fn kinetic_energy<T: Real, const L: usize>(mf: &MatrixFree<T, L>, v: &[T]) -> f64 {
    let mut ke = 0.0;
    for_each_point(mf, |c, i, _, jxw| {
        let mut m2 = 0.0;
        for d in 0..DIM {
            let x = v[index(mf.dofs_per_cell, c, d, i)].to_f64();
            m2 += x * x;
        }
        ke += 0.5 * m2 * jxw.to_f64();
    });
    ke
}

/// Maximum pointwise velocity magnitude per cell (for the CFL condition and
/// the penalty coefficients); returns one value per cell.
pub fn cell_velocity_scale<T: Real, const L: usize>(mf: &MatrixFree<T, L>, v: &[T]) -> Vec<f64> {
    let dpc = mf.dofs_per_cell;
    let mut out = vec![0.0; mf.n_cells];
    for (c, o) in out.iter_mut().enumerate() {
        let mut vmax = 0.0f64;
        for i in 0..dpc {
            let mut m2 = 0.0;
            for d in 0..DIM {
                let x = v[index(dpc, c, d, i)].to_f64();
                m2 += x * x;
            }
            vmax = vmax.max(m2);
        }
        *o = vmax.sqrt();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_fem::MfParams;
    use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};

    fn mf() -> MatrixFree<f64, 4> {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        MatrixFree::new(&forest, &manifold, MfParams::dg(2))
    }

    #[test]
    fn interpolation_and_error_roundtrip() {
        let mf = mf();
        let f = |x: [f64; 3]| [x[0], 2.0 * x[1], -x[2] + x[0]];
        let v = interpolate_velocity(&mf, &f);
        assert_eq!(v.len(), 3 * mf.n_dofs());
        assert!(velocity_l2_error(&mf, &v, &f) < 1e-13);
    }

    #[test]
    fn component_extraction_roundtrip() {
        let mf = mf();
        let f = |x: [f64; 3]| [x[0] * x[1], x[2], 1.0 - x[0]];
        let mut v = interpolate_velocity(&mf, &f);
        let dpc = mf.dofs_per_cell;
        let mut c1 = vec![0.0; mf.n_dofs()];
        extract_component(&v, dpc, 1, &mut c1);
        // component 1 == interpolation of x[2]
        let expect = dgflow_fem::operators::interpolate(&mf, &|x| x[2]);
        for i in 0..c1.len() {
            assert!((c1[i] - expect[i]).abs() < 1e-14);
        }
        // modify and insert back
        for x in c1.iter_mut() {
            *x *= 2.0;
        }
        insert_component(&mut v, dpc, 1, &c1);
        let err = velocity_l2_error(&mf, &v, &|x| [x[0] * x[1], 2.0 * x[2], 1.0 - x[0]]);
        assert!(err < 1e-13);
    }

    #[test]
    fn velocity_scale_picks_maximum() {
        let mf = mf();
        let v = interpolate_velocity(&mf, &|x| [3.0 * x[0], 0.0, 4.0 * x[0]]);
        let scales = cell_velocity_scale(&mf, &v);
        // global max |u| = 5 at x=1; nodal sampling sits at Gauss points,
        // so the measured scale is slightly below
        let max = scales.iter().cloned().fold(0.0, f64::max);
        assert!(max > 4.5 && max <= 5.0, "{max}");
    }
}
