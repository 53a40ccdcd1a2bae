//! Correctness of the matrix-free SIPG Laplacian: polynomial exactness,
//! symmetry, hanging nodes, face orientations, and h-convergence.

use dgflow_fem::operators::{integrate_rhs, interpolate, l2_error};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::{CoarseMesh, Forest, Manifold, TrilinearManifold};
use dgflow_simd::Real;
use dgflow_solvers::{cg_solve, IdentityPreconditioner, JacobiPreconditioner, LinearOperator};

type Mf = std::sync::Arc<MatrixFree<f64, 4>>;

fn build(forest: &Forest, degree: usize) -> Mf {
    let manifold = TrilinearManifold::from_forest(forest);
    std::sync::Arc::new(MatrixFree::new(forest, &manifold, MfParams::dg(degree)))
}

fn cube_forest(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[5] = true;
    f.refine_active(&marks);
    f
}

/// Two cubes sharing a face with a rotated local frame (non-identity
/// orientation).
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
    let coarse = CoarseMesh {
        vertices,
        cells: vec![c0, c1],
        boundary_ids: Default::default(),
    };
    let mut f = Forest::new(coarse);
    f.refine_global(1);
    f
}

/// The SIPG operator applied to the interpolant of a linear function must
/// exactly equal the Dirichlet boundary RHS of that function (a linear is
/// in the space, continuous, and harmonic). Exercises cell terms, face
/// terms, penalty consistency — everything.
fn linear_exactness(forest: &Forest, degree: usize, tol: f64) {
    let mf = build(forest, degree);
    let lap = LaplaceOperator::new(mf.clone());
    let u_lin = |x: [f64; 3]| 0.7 * x[0] - 1.3 * x[1] + 2.1 * x[2] + 0.5;
    let u = interpolate(&mf, &u_lin);
    let mut lu = vec![0.0; mf.n_dofs()];
    lap.apply(&u, &mut lu);
    let rhs = lap.boundary_rhs(&u_lin);
    let mut max_err: f64 = 0.0;
    let mut max_mag: f64 = 0.0;
    for i in 0..mf.n_dofs() {
        max_err = max_err.max((lu[i] - rhs[i]).abs());
        max_mag = max_mag.max(rhs[i].abs());
    }
    assert!(
        max_err <= tol * max_mag.max(1.0),
        "linear exactness violated: {max_err:.3e} (scale {max_mag:.3e})"
    );
}

#[test]
fn linear_exactness_uniform_cube() {
    linear_exactness(&cube_forest(1), 2, 1e-12);
    linear_exactness(&cube_forest(2), 3, 1e-12);
}

#[test]
fn linear_exactness_with_hanging_nodes() {
    linear_exactness(&hanging_forest(), 2, 1e-12);
    linear_exactness(&hanging_forest(), 3, 1e-12);
}

#[test]
fn linear_exactness_with_rotated_faces() {
    linear_exactness(&rotated_forest(), 2, 1e-12);
    linear_exactness(&rotated_forest(), 4, 1e-11);
}

/// Quadratic exactness on affine meshes: `L I(u) = rhs(-Δu) + rhs_Γ(u)`
/// for k ≥ 2.
#[test]
fn quadratic_exactness_affine() {
    for forest in [cube_forest(1), hanging_forest(), rotated_forest()] {
        let mf = build(&forest, 2);
        let lap = LaplaceOperator::new(mf.clone());
        let uq = |x: [f64; 3]| x[0] * x[0] + 0.5 * x[1] * x[1] - 2.0 * x[2] * x[2] + x[0] * x[1];
        let f = |_x: [f64; 3]| -(2.0 + 1.0 - 4.0); // -Δu
        let u = interpolate(&mf, &uq);
        let mut lu = vec![0.0; mf.n_dofs()];
        lap.apply(&u, &mut lu);
        let mut rhs = integrate_rhs(&mf, &f);
        let brhs = lap.boundary_rhs(&uq);
        for (r, b) in rhs.iter_mut().zip(&brhs) {
            *r += *b;
        }
        let scale: f64 = rhs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        for i in 0..mf.n_dofs() {
            assert!(
                (lu[i] - rhs[i]).abs() < 1e-11 * scale,
                "i={i}: {} vs {}",
                lu[i],
                rhs[i]
            );
        }
    }
}

#[test]
fn operator_is_symmetric() {
    for forest in [cube_forest(1), hanging_forest(), rotated_forest()] {
        let mf = build(&forest, 3);
        let lap = LaplaceOperator::new(mf.clone());
        let n = mf.n_dofs();
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 131 % 97) as f64) / 97.0 - 0.5)
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 89) as f64) / 89.0 - 0.3)
            .collect();
        let mut lx = vec![0.0; n];
        let mut ly = vec![0.0; n];
        lap.apply(&x, &mut lx);
        lap.apply(&y, &mut ly);
        let xly: f64 = x.iter().zip(&ly).map(|(a, b)| a * b).sum();
        let ylx: f64 = y.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let scale = xly.abs().max(1.0);
        assert!(
            (xly - ylx).abs() < 1e-10 * scale,
            "asymmetry {:.3e}",
            (xly - ylx).abs() / scale
        );
    }
}

#[test]
fn operator_is_positive_definite() {
    let mf = build(&hanging_forest(), 2);
    let lap = LaplaceOperator::new(mf.clone());
    let n = mf.n_dofs();
    for seed in 0..3 {
        let x: Vec<f64> = (0..n)
            .map(|i| (((i + seed * 7919) * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut lx = vec![0.0; n];
        lap.apply(&x, &mut lx);
        let xlx: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert!(xlx > 0.0, "xᵀLx = {xlx}");
    }
}

#[test]
fn constant_in_nullspace_with_neumann() {
    let mf = build(&hanging_forest(), 2);
    let lap = LaplaceOperator::with_bc(mf.clone(), vec![BoundaryCondition::Neumann]);
    let ones = vec![1.0; mf.n_dofs()];
    let mut out = vec![0.0; mf.n_dofs()];
    lap.apply(&ones, &mut out);
    let max = out.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(max < 1e-12, "constant not in Neumann nullspace: {max:.3e}");
}

#[test]
fn diagonal_matches_operator_columns() {
    let mf = build(&hanging_forest(), 2);
    let lap = LaplaceOperator::new(mf.clone());
    let diag = lap.compute_diagonal();
    let n = mf.n_dofs();
    // spot-check a spread of entries
    for &i in &[0usize, 7, n / 3, n / 2, n - 5] {
        let mut e = vec![0.0; n];
        e[i] = 1.0;
        let mut col = vec![0.0; n];
        lap.apply(&e, &mut col);
        assert!(
            (col[i] - diag[i]).abs() < 1e-10 * diag[i].abs().max(1.0),
            "diag[{i}] = {} vs column {}",
            diag[i],
            col[i]
        );
    }
}

fn solve_poisson(forest: &Forest, degree: usize) -> f64 {
    use std::f64::consts::PI;
    let mf = build(forest, degree);
    let lap = LaplaceOperator::new(mf.clone());
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let f = move |x: [f64; 3]| 3.0 * PI * PI * exact(x);
    let mut rhs = integrate_rhs(&mf, &f);
    let brhs = lap.boundary_rhs(&exact);
    for (r, b) in rhs.iter_mut().zip(&brhs) {
        *r += *b;
    }
    let diag = lap.compute_diagonal();
    let pre = JacobiPreconditioner::new(diag);
    let mut u = vec![0.0; mf.n_dofs()];
    let res = cg_solve(&lap, &pre, &rhs, &mut u, 1e-11, 2000);
    assert!(res.converged, "CG did not converge: {res:?}");
    l2_error(&mf, &u, &exact)
}

#[test]
fn poisson_h_convergence_rate_is_k_plus_1() {
    for degree in [2usize, 3] {
        let e1 = solve_poisson(&cube_forest(1), degree);
        let e2 = solve_poisson(&cube_forest(2), degree);
        let rate = (e1 / e2).log2();
        assert!(
            rate > degree as f64 + 0.6,
            "degree {degree}: rate {rate:.2} (errors {e1:.3e} → {e2:.3e})"
        );
    }
}

/// The unit cube under a smooth non-affine map that keeps its boundary:
/// every point moves by the same interior bump along `(1, 1, 1)`.
struct BumpedCube(TrilinearManifold);

impl Manifold for BumpedCube {
    fn position(&self, tree: usize, xi: [f64; 3]) -> [f64; 3] {
        use std::f64::consts::PI;
        let p = self.0.position(tree, xi);
        let bump = 0.06 * (PI * p[0]).sin() * (PI * p[1]).sin() * (PI * p[2]).sin();
        p.map(|x| x + bump)
    }
}

/// L² error of the SIPG Poisson solve on `cube_forest(refine)` under
/// [`BumpedCube`], with a cubic mapping.
fn solve_curved_poisson(refine: usize, degree: usize) -> f64 {
    use std::f64::consts::PI;
    let forest = cube_forest(refine);
    let manifold = BumpedCube(TrilinearManifold::from_forest(&forest));
    let params = MfParams {
        mapping_degree: 3,
        ..MfParams::dg(degree)
    };
    let mf = std::sync::Arc::new(MatrixFree::<f64, 4>::new(&forest, &manifold, params));
    let lap = LaplaceOperator::new(mf.clone());
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let f = move |x: [f64; 3]| 3.0 * PI * PI * exact(x);
    let mut rhs = integrate_rhs(&mf, &f);
    for (r, b) in rhs.iter_mut().zip(&lap.boundary_rhs(&exact)) {
        *r += *b;
    }
    let pre = JacobiPreconditioner::new(lap.compute_diagonal());
    let mut u = vec![0.0; mf.n_dofs()];
    let res = cg_solve(&lap, &pre, &rhs, &mut u, 1e-11, 2000);
    assert!(res.converged, "CG did not converge: {res:?}");
    l2_error(&mf, &u, &exact)
}

/// The curved metric terms at design order: the same rate as on the
/// affine cube.
#[test]
fn poisson_h_convergence_rate_on_curved_cube_is_k_plus_1() {
    for degree in [2usize, 3] {
        let e1 = solve_curved_poisson(1, degree);
        let e2 = solve_curved_poisson(2, degree);
        let rate = (e1 / e2).log2();
        assert!(
            rate > degree as f64 + 0.6,
            "degree {degree}: rate {rate:.2} (errors {e1:.3e} → {e2:.3e})"
        );
    }
}

#[test]
fn poisson_converges_on_adaptive_mesh() {
    let e_uniform = solve_poisson(&cube_forest(1), 2);
    let e_adaptive = solve_poisson(&hanging_forest(), 2);
    // partially refined mesh must not be worse than the coarse uniform mesh
    assert!(e_adaptive < 1.5 * e_uniform, "{e_adaptive} vs {e_uniform}");
}

#[test]
fn neumann_poisson_solvable_on_compatible_rhs() {
    // -Δu = f with ∫f = 0 and pure Neumann: solvable up to constants
    let forest = cube_forest(1);
    let mf = build(&forest, 2);
    let lap = LaplaceOperator::with_bc(mf.clone(), vec![BoundaryCondition::Neumann]);
    use std::f64::consts::PI;
    let exact = |x: [f64; 3]| (PI * x[0]).cos() * (PI * x[1]).cos();
    let f = move |x: [f64; 3]| 2.0 * PI * PI * exact(x);
    let rhs = integrate_rhs(&mf, &f);
    let mut u = vec![0.0; mf.n_dofs()];
    let res = cg_solve(&lap, &IdentityPreconditioner, &rhs, &mut u, 1e-9, 3000);
    assert!(res.converged);
    // subtract the mean before comparing
    let w = dgflow_fem::MassOperator::new(&mf).weights();
    let vol: f64 = w.iter().map(|x| x.to_f64()).sum();
    let mean: f64 = u.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() / vol;
    let shifted: Vec<f64> = u.iter().map(|v| v - mean).collect();
    let err = l2_error(&mf, &shifted, &exact);
    assert!(err < 0.05, "Neumann Poisson error {err}");
}
