//! The sum-factorized operator diagonals against the column reference on
//! the paper's bifurcation: DG(3) in double precision and CG(3) in single
//! precision, walls Neumann and inlet/outlets Dirichlet, within 512 units
//! in the last place of the largest entry (the bound of the fem crate's
//! kernel-equivalence suite).

use dgflow::fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow::fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow::lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow::mesh::{Forest, TrilinearManifold};
use dgflow::simd::Real;
use std::sync::Arc;

const ULPS: f64 = 512.0;

fn bifurcation() -> (Forest, TrilinearManifold) {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let forest = Forest::new(mesh.coarse);
    let manifold = TrilinearManifold::from_forest(&forest);
    (forest, manifold)
}

fn bc() -> Vec<BoundaryCondition> {
    let mut bc = vec![BoundaryCondition::Dirichlet; 4];
    bc[0] = BoundaryCondition::Neumann;
    bc
}

/// Every entry within `ULPS` units of `eps` times the reference's largest
/// magnitude.
fn assert_close<T: Real>(fast: &[T], reference: &[T], eps: f64, ctx: &str) {
    assert_eq!(fast.len(), reference.len(), "{ctx}");
    let scale = reference
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.to_f64().abs()))
        .max(1.0);
    let tol = ULPS * eps * scale;
    for (i, (&a, &b)) in fast.iter().zip(reference).enumerate() {
        let diff = (a.to_f64() - b.to_f64()).abs();
        assert!(
            diff <= tol,
            "{ctx}: entry {i} differs by {diff:.3e} (tol {tol:.3e})"
        );
    }
}

#[test]
fn dg3_f64_diagonal_matches_columns() {
    let (forest, manifold) = bifurcation();
    let mf = Arc::new(MatrixFree::<f64, 8>::new(
        &forest,
        &manifold,
        MfParams::dg(3),
    ));
    let op = LaplaceOperator::with_bc(mf, bc());
    let fast = op.compute_diagonal();
    assert!(fast.iter().all(|&d| d > 0.0));
    assert_close(&fast, &op.diagonal_reference(), f64::EPSILON, "DG(3)");
}

#[test]
fn cg3_f32_diagonal_matches_columns() {
    let (forest, manifold) = bifurcation();
    let space = Arc::new(CgSpace::<f32, 16>::new(&forest, &manifold, 3));
    let op = CgLaplaceOperator::with_bc(space, bc());
    let fast = op.compute_diagonal();
    assert!(fast.iter().all(|&d| d > 0.0));
    assert_close(
        &fast,
        &op.diagonal_reference(),
        f64::from(f32::EPSILON),
        "CG(3)",
    );
}
