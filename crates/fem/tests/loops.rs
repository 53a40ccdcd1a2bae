//! The matrix-free loop (`MatrixFree::loop_over` and its cell-group form)
//! against a plain serial loop: a toy cell + face kernel pair whose sums
//! depend on the order in which contributions arrive must give the serial
//! result bit for bit, repeat bit for bit, and zero a dirty destination.
//! Run with `--features dgflow-fem/check-disjoint,dgflow-comm/check-disjoint`
//! to have the race detector check every pool run of the loop.

use dgflow_fem::cg_space::CgSpace;
use dgflow_fem::evaluator::{
    gather_cell, gather_face_cells, scatter_add_cell, scatter_add_face_cells,
};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_simd::{Real, Simd};

/// Box with two refined corners (22 cells): hanging faces, and a
/// partially filled last batch at 4 and 8 lanes.
fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[7] = true;
    f.refine_active(&marks);
    f
}

fn bifurcation_forest() -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    Forest::new(mesh.coarse)
}

fn source<T: Real>(n: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 7919) % 1009) as f64 / 1009.0 - 0.3))
        .collect()
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

/// A toy DG cell kernel: scale the gathered values by a per-point metric.
fn cell_kernel<'a, T: Real, const L: usize>(
    mf: &'a MatrixFree<T, L>,
    src: &'a [T],
) -> impl Fn(usize, &mut Vec<Simd<T, L>>, &SharedMut<T>) + Sync + 'a {
    move |bi, s, out| {
        let (b, g) = (&mf.cell_batches[bi], &mf.cell_geometry[bi]);
        let dpc = mf.dofs_per_cell;
        gather_cell(b, src, dpc, 0, dpc, s);
        for (v, w) in s.iter_mut().zip(&g.jxw) {
            *v = *v * *w + *w;
        }
        scatter_add_cell(b, s, dpc, 0, dpc, out);
    }
}

type FaceBufs<T, const L: usize> = (Vec<Simd<T, L>>, Vec<Simd<T, L>>);

/// A toy DG face kernel: a jump term added to both sides.
fn face_kernel<'a, T: Real, const L: usize>(
    mf: &'a MatrixFree<T, L>,
    src: &'a [T],
) -> impl Fn(usize, &mut FaceBufs<T, L>, &SharedMut<T>) + Sync + 'a {
    move |bi, (m, p), out| {
        let (b, sigma) = (&mf.face_batches[bi], mf.sigma[bi]);
        let dpc = mf.dofs_per_cell;
        gather_face_cells(&b.minus, b.n_filled, src, dpc, 0, dpc, m);
        if b.category.is_boundary {
            p.fill(Simd::zero());
        } else {
            gather_face_cells(&b.plus, b.n_filled, src, dpc, 0, dpc, p);
        }
        for (vm, vp) in m.iter_mut().zip(p.iter_mut()) {
            let j = (*vm - *vp) * sigma + Simd::splat(T::from_f64(0.1));
            (*vm, *vp) = (j, -j * sigma);
        }
        scatter_add_face_cells(&b.minus, b.n_filled, m, dpc, 0, dpc, out);
        if !b.category.is_boundary {
            scatter_add_face_cells(&b.plus, b.n_filled, p, dpc, 0, dpc, out);
        }
    }
}

fn check_dg<T: Real, const L: usize>(forest: &Forest, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf = MatrixFree::<T, L>::new(forest, &manifold, MfParams::dg(2));
    let dpc = mf.dofs_per_cell;
    let src = source::<T>(mf.n_dofs());
    let (cell, face) = (cell_kernel(&mf, &src), face_kernel(&mf, &src));
    let cell_scratch = || vec![Simd::zero(); dpc];
    let face_scratch = || (vec![Simd::zero(); dpc], vec![Simd::zero(); dpc]);

    // serial: every cell batch, then each face color in order
    let mut serial = vec![T::ZERO; mf.n_dofs()];
    let out = SharedMut::new(&mut serial);
    let (mut s, mut fs) = (cell_scratch(), face_scratch());
    for bi in 0..mf.cell_batches.len() {
        cell(bi, &mut s, &out);
    }
    for color in &mf.face_colors {
        for &bi in color {
            face(bi, &mut fs, &out);
        }
    }

    for fill in [0.0, 3.5, -7.25] {
        let mut dst = vec![T::from_f64(fill); mf.n_dofs()];
        mf.loop_over(None, &mut dst, (cell_scratch, &cell), (face_scratch, &face));
        assert_eq!(bits(&dst), bits(&serial), "{ctx}: dst filled with {fill}");
    }
}

fn check_cg<T: Real, const L: usize>(forest: &Forest, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let space = CgSpace::<T, L>::new(forest, &manifold, 2);
    let mf = &*space.mf;
    let dpc = mf.dofs_per_cell;
    let src = source::<T>(space.n_dofs);
    let cell = |bi: usize, s: &mut Vec<Simd<T, L>>, out: &SharedMut<T>| {
        let plan = &space.cell_plans[bi];
        space.gather_batch(plan, &src, s);
        for (v, w) in s.iter_mut().zip(&mf.cell_geometry[bi].jxw) {
            *v = *v * *w + *w;
        }
        // SAFETY: the loop runs one dof-disjoint cell color at a time
        unsafe { space.scatter_add_batch(plan, s, out) };
    };
    let face = |bi: usize, s: &mut Vec<Simd<T, L>>, out: &SharedMut<T>| {
        if let Some(plan) = &space.face_plans[bi] {
            space.gather_batch(plan, &src, s);
            for v in s.iter_mut() {
                *v *= mf.sigma[bi];
            }
            // SAFETY: the face pass is serial
            unsafe { space.scatter_add_batch(plan, s, out) };
        }
    };
    let scratch = || vec![Simd::zero(); dpc];

    // serial: each cell color in order, then every face batch in order
    let mut serial = vec![T::ZERO; space.n_dofs];
    let out = SharedMut::new(&mut serial);
    let mut s = scratch();
    for color in &space.cell_colors {
        for &bi in color {
            cell(bi, &mut s, &out);
        }
    }
    for bi in 0..mf.face_batches.len() {
        face(bi, &mut s, &out);
    }

    for fill in [0.0, 3.5, -7.25] {
        let mut dst = vec![T::from_f64(fill); space.n_dofs];
        mf.loop_over_groups(
            None,
            &mut dst,
            &space.cell_colors,
            (scratch, &cell),
            (scratch, &face),
        );
        assert_eq!(bits(&dst), bits(&serial), "{ctx}: dst filled with {fill}");
    }
}

#[test]
fn dg_loop_matches_serial_order_on_hanging_forest() {
    check_dg::<f64, 4>(&hanging_forest(), "hanging f64x4");
    check_dg::<f32, 8>(&hanging_forest(), "hanging f32x8");
}

#[test]
fn dg_loop_matches_serial_order_on_bifurcation() {
    check_dg::<f64, 4>(&bifurcation_forest(), "bifurcation f64x4");
    check_dg::<f32, 8>(&bifurcation_forest(), "bifurcation f32x8");
}

#[test]
fn cell_group_loop_matches_serial_order_on_hanging_forest() {
    check_cg::<f64, 4>(&hanging_forest(), "hanging f64x4");
    check_cg::<f32, 8>(&hanging_forest(), "hanging f32x8");
}

#[test]
fn cell_group_loop_matches_serial_order_on_bifurcation() {
    check_cg::<f64, 4>(&bifurcation_forest(), "bifurcation f64x4");
    check_cg::<f32, 8>(&bifurcation_forest(), "bifurcation f32x8");
}
