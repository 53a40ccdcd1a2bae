//! Kernel-equivalence suite: every optimized fast path (cache-blocked
//! sum-factorization, fused Laplace cell kernel with merged symmetric
//! coefficient, vectorized CG gather/scatter plans) is exercised through
//! the public operator `apply()` and compared against the retained
//! reference pipeline (`apply_reference()`: gather-buffer sum-factorization
//! sweeps, two-stage `J^{-T}`/`JxW` coefficient application, scalar
//! per-lane CG transposes) to tight scaled-ULP bounds.
//!
//! Coverage matrix: k = 1..6 × {DG, CG} × {DP `f64×8`, SP `f32×16`} on a
//! structured box, a hanging-node box (CG constraint plans), and the
//! paper's bifurcation geometry.
//!
//! The sum-factorized operator diagonals (`compute_diagonal()`) are pinned
//! the same way against `diagonal_reference()`, which applies every local
//! block to each unit vector: on the box forests with one corner moved,
//! two cells joined through a rotated face (a non-identity plus-side
//! orientation) and the bifurcation, with all-Dirichlet and mixed
//! Neumann/Dirichlet boundary ids, and on the flow solver's pressure space
//! DG(k−1) at `n_q = k + 1`.

use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// The unit cube with its far corner moved, so the trilinear map is not
/// affine (the metric terms vary within a cell and `J⁻¹n` has tangential
/// parts), and with boundary id 1 on its odd-numbered faces, so the mixed
/// boundary conditions below split its boundary.
fn skewed_cube() -> CoarseMesh {
    let mut c = CoarseMesh::hyper_cube();
    c.vertices[7] = [1.2, 1.1, 1.3];
    for f in 0..6 {
        c.boundary_ids.insert((0, f), (f % 2) as u32);
    }
    c
}

fn refined_box(coarse: CoarseMesh) -> Forest {
    let mut f = Forest::new(coarse);
    f.refine_global(2);
    f
}

fn box_forest() -> Forest {
    refined_box(CoarseMesh::hyper_cube())
}

/// Box with two refined corners: hanging faces feed the CG constraint
/// tables, so the `GatherPlan::special` scalar tail gets real work.
fn hanging_box(coarse: CoarseMesh) -> Forest {
    let mut f = Forest::new(coarse);
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[7] = true;
    f.refine_active(&marks);
    f
}

fn hanging_forest() -> Forest {
    hanging_box(CoarseMesh::hyper_cube())
}

/// Two cubes sharing a face with a rotated local frame (non-identity
/// orientation), with one vertex of the shared face moved so the metric
/// terms vary along the face and the plus side's frame matters.
fn rotated_forest() -> Forest {
    let mut vertices = Vec::new();
    for k in 0..2 {
        for j in 0..2 {
            for i in 0..3 {
                vertices.push([f64::from(i), f64::from(j), f64::from(k)]);
            }
        }
    }
    let vid = |i: usize, j: usize, k: usize| i + 3 * (j + 2 * k);
    let c0 = [
        vid(0, 0, 0),
        vid(1, 0, 0),
        vid(0, 1, 0),
        vid(1, 1, 0),
        vid(0, 0, 1),
        vid(1, 0, 1),
        vid(0, 1, 1),
        vid(1, 1, 1),
    ];
    let c1 = [
        vid(1, 1, 0),
        vid(2, 1, 0),
        vid(1, 1, 1),
        vid(2, 1, 1),
        vid(1, 0, 0),
        vid(2, 0, 0),
        vid(1, 0, 1),
        vid(2, 0, 1),
    ];
    vertices[vid(1, 1, 1)] = [1.2, 1.1, 1.3];
    let coarse = CoarseMesh {
        vertices,
        cells: vec![c0, c1],
        boundary_ids: Default::default(),
    };
    let mut f = Forest::new(coarse);
    f.refine_global(1);
    f
}

fn bifurcation_forest() -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    Forest::new(mesh.coarse)
}

/// Deterministic pseudo-random test vector with entries in (-1, 1).
fn test_vector<T: Real>(n: usize, seed: u64) -> Vec<T> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            T::from_f64(2.0 * u - 1.0)
        })
        .collect()
}

/// Assert `fast` and `reference` agree entry-wise to `ulps` units of the
/// last place of the reference vector's max magnitude (a scaled-absolute
/// bound: the fused coefficient path reassociates sums, so exact per-entry
/// ULP comparison is the wrong yardstick for near-cancelling entries).
fn assert_close<T: Real>(fast: &[T], reference: &[T], ulps: f64, ctx: &str) {
    assert_eq!(fast.len(), reference.len(), "{ctx}: length mismatch");
    let scale = reference
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.to_f64().abs()))
        .max(1.0);
    let eps = T::from_f64(1.0).to_f64() * epsilon::<T>();
    let tol = ulps * eps * scale;
    for (i, (&a, &b)) in fast.iter().zip(reference).enumerate() {
        let diff = (a.to_f64() - b.to_f64()).abs();
        assert!(
            diff <= tol,
            "{ctx}: entry {i} differs by {diff:.3e} (tol {tol:.3e}, fast {}, ref {})",
            a.to_f64(),
            b.to_f64()
        );
    }
}

fn epsilon<T: Real>() -> f64 {
    // distinguish SP/DP through the lossy f64→T round-trip
    if T::from_f64(1.0 + f64::EPSILON).to_f64() == 1.0 {
        f64::from(f32::EPSILON)
    } else {
        f64::EPSILON
    }
}

fn check_dg<T: Real, const L: usize>(forest: &Forest, k: usize, ulps: f64, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf = Arc::new(MatrixFree::<T, L>::new(forest, &manifold, MfParams::dg(k)));
    let op = LaplaceOperator::new(mf);
    let src = test_vector::<T>(op.len(), 7 + k as u64);
    let mut fast = vec![T::ZERO; op.len()];
    let mut reference = vec![T::ZERO; op.len()];
    op.apply(&src, &mut fast);
    op.apply_reference(&src, &mut reference);
    assert_close(&fast, &reference, ulps, &format!("{ctx} dg k={k}"));
}

fn check_cg<T: Real, const L: usize>(forest: &Forest, k: usize, ulps: f64, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let space = Arc::new(CgSpace::<T, L>::new(forest, &manifold, k));
    let op = CgLaplaceOperator::new(space);
    let src = test_vector::<T>(op.len(), 13 + k as u64);
    let mut fast = vec![T::ZERO; op.len()];
    let mut reference = vec![T::ZERO; op.len()];
    op.apply(&src, &mut fast);
    op.apply_reference(&src, &mut reference);
    assert_close(&fast, &reference, ulps, &format!("{ctx} cg k={k}"));
}

/// DP bound: 512 scaled ULPs ≈ 1.1e-13 relative — tight against the
/// reassociated fused coefficient while leaving headroom for the longer
/// k=6 accumulation chains. SP uses the same multiplier on f32 epsilon.
const ULPS: f64 = 512.0;

#[test]
fn dg_box_dp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "box");
    }
}

#[test]
fn dg_box_sp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg::<f32, 16>(&f, k, ULPS, "box");
    }
}

#[test]
fn cg_box_dp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "box");
    }
}

#[test]
fn cg_box_sp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "box");
    }
}

#[test]
fn dg_hanging_dp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn cg_hanging_dp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn cg_hanging_sp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn dg_bifurcation_dp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn dg_bifurcation_sp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_dg::<f32, 16>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn cg_bifurcation_dp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn cg_bifurcation_sp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "bifurcation");
    }
}

/// All-Dirichlet, and Neumann on id 0 with Dirichlet on the other ids (the
/// walls against the inlet and outlets on the bifurcation, the even faces
/// against the odd ones on the boxes).
fn boundary_conditions() -> [Vec<BoundaryCondition>; 2] {
    use BoundaryCondition::{Dirichlet, Neumann};
    [vec![], vec![Neumann, Dirichlet, Dirichlet, Dirichlet]]
}

/// The DG diagonal of degree `k` with `n_q = k + 1` and of the pressure
/// space DG(k−1) at `n_q = k + 1`, where the basis is not collocated.
fn check_dg_diagonal<T: Real, const L: usize>(forest: &Forest, k: usize, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let pressure = MfParams {
        degree: k - 1,
        n_q: k + 1,
        ..MfParams::dg(k)
    };
    for params in [MfParams::dg(k), pressure] {
        let mf = Arc::new(MatrixFree::<T, L>::new(forest, &manifold, params));
        for bc in boundary_conditions() {
            let ctx = format!(
                "{ctx} dg diagonal k={} n_q={} {bc:?}",
                params.degree, params.n_q
            );
            let op = LaplaceOperator::with_bc(mf.clone(), bc);
            assert_close(&op.compute_diagonal(), &op.diagonal_reference(), ULPS, &ctx);
        }
    }
}

fn check_cg_diagonal<T: Real, const L: usize>(forest: &Forest, k: usize, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let space = Arc::new(CgSpace::<T, L>::new(forest, &manifold, k));
    for bc in boundary_conditions() {
        let ctx = format!("{ctx} cg diagonal k={k} {bc:?}");
        let op = CgLaplaceOperator::with_bc(space.clone(), bc);
        assert_close(&op.compute_diagonal(), &op.diagonal_reference(), ULPS, &ctx);
    }
}

fn diagonal_forests() -> [(Forest, &'static str); 4] {
    [
        (refined_box(skewed_cube()), "skewed box"),
        (hanging_box(skewed_cube()), "skewed hanging"),
        (rotated_forest(), "rotated"),
        (bifurcation_forest(), "bifurcation"),
    ]
}

#[test]
fn dg_diagonal_dp_matches_reference() {
    for (f, ctx) in diagonal_forests() {
        for k in 1..=6 {
            check_dg_diagonal::<f64, 8>(&f, k, ctx);
        }
    }
}

#[test]
fn dg_diagonal_sp_matches_reference() {
    for (f, ctx) in diagonal_forests() {
        for k in 1..=6 {
            check_dg_diagonal::<f32, 16>(&f, k, ctx);
        }
    }
}

#[test]
fn cg_diagonal_dp_matches_reference() {
    for (f, ctx) in diagonal_forests() {
        for k in 1..=6 {
            check_cg_diagonal::<f64, 8>(&f, k, ctx);
        }
    }
}

#[test]
fn cg_diagonal_sp_matches_reference() {
    for (f, ctx) in diagonal_forests() {
        for k in 1..=6 {
            check_cg_diagonal::<f32, 16>(&f, k, ctx);
        }
    }
}
