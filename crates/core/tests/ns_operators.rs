//! Exactness and compatibility of the Navier–Stokes operators.

use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::field::interpolate_velocity;
use dgflow_core::operators::{boundary_flow_rate, convective_term, divergence, gradient};
use dgflow_core::scalar::{advect_term, ScalarBc};
use dgflow_fem::operators::{integrate_rhs, interpolate_nodal};
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_tensor::ShapeInfo1D;
use std::sync::Arc;

const L: usize = 4;
type Mf = Arc<MatrixFree<f64, L>>;

fn spaces(forest: &Forest, k: usize) -> (Mf, Mf) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf_u = Arc::new(MatrixFree::new(forest, &manifold, MfParams::dg(k)));
    let params_p = MfParams {
        degree: k - 1,
        n_q: k + 1,
        ..MfParams::dg(k)
    };
    let shape_p = ShapeInfo1D::new(params_p.degree, params_p.node_set, params_p.n_q);
    let mf_p = Arc::new(MatrixFree::with_geometry(
        mf_u.geometry.clone(),
        shape_p,
        params_p,
    ));
    (mf_u, mf_p)
}

fn cube(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[3] = true;
    f.refine_active(&marks);
    f
}

/// Convective term applied to the interpolant of a (continuous) linear
/// velocity must exactly reproduce the weak form of ∇·(u⊗u) — jumps vanish
/// so the LLF dissipation drops out, and all integrands are polynomial.
#[test]
fn convective_exactness_on_linear_fields() {
    let u_fn = |x: [f64; 3]| {
        [
            1.0 + 2.0 * x[0] - x[1],
            0.5 - x[0] + x[2],
            2.0 * x[1] - 0.5 * x[2],
        ]
    };
    // f_d = Σ_e ∂(u_d u_e)/∂x_e (analytic, quadratic in x)
    let grad = [[2.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 2.0, -0.5]];
    let div_u = grad[0][0] + grad[1][1] + grad[2][2];
    let f_fn = move |x: [f64; 3], d: usize| {
        let u = u_fn(x);
        let mut s = u[d] * div_u;
        for e in 0..3 {
            s += u[e] * grad[d][e];
        }
        s
    };
    for forest in [cube(1), hanging()] {
        let (mf_u, _) = spaces(&forest, 2);
        // "pressure" everywhere → u+ = u- at the boundary (consistent flux)
        let bcs = FlowBcs::new(vec![BcKind::Pressure]);
        let u = interpolate_velocity(&mf_u, &u_fn);
        let mut c = vec![0.0; u.len()];
        convective_term(&mf_u, &bcs, &u, &mut c);
        let dpc = mf_u.dofs_per_cell;
        for d in 0..3 {
            let expect = integrate_rhs(&mf_u, &move |x| f_fn(x, d));
            let scale = expect.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-10);
            for cell in 0..mf_u.n_cells {
                for i in 0..dpc {
                    let got = c[cell * 3 * dpc + d * dpc + i];
                    let want = expect[cell * dpc + i];
                    assert!(
                        (got - want).abs() < 1e-11 * scale,
                        "comp {d}, cell {cell}, node {i}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

/// The scalar advection term applied to a linear concentration in a
/// constant velocity must exactly reproduce the weak form of `u·∇c` —
/// jumps vanish so the upwind dissipation drops out, the outflow closure
/// passes the interior trace through, and all integrands are polynomial.
#[test]
fn advect_exactness_on_linear_fields() {
    let u_const = [0.7, -1.3, 0.4];
    let c_fn = |x: [f64; 3]| 0.5 + 2.0 * x[0] - x[1] + 0.25 * x[2];
    let grad_c = [2.0, -1.0, 0.25];
    let u_dot_grad_c: f64 = (0..3).map(|d| u_const[d] * grad_c[d]).sum();
    for forest in [cube(1), hanging()] {
        let (mf_u, _) = spaces(&forest, 2);
        let u = interpolate_velocity(&mf_u, &|_| u_const);
        let c = interpolate_nodal(&mf_u, &c_fn);
        let mut a = vec![0.0; c.len()];
        advect_term(&mf_u, &[ScalarBc::Outflow], &u, &c, &mut a);
        let expect = integrate_rhs(&mf_u, &|_| u_dot_grad_c);
        let scale = expect.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (got, want)) in a.iter().zip(&expect).enumerate() {
            assert!(
                (got - want).abs() < 1e-11 * scale,
                "dof {i}: {got} vs {want}"
            );
        }
    }
}

/// Discrete Gauss theorem: `1ᵀ D(u) = ∮ u·n` when the boundary closure
/// passes the interior trace through (all-pressure boundaries), and
/// `1ᵀ D(u) = 0` when walls mirror the normal velocity.
#[test]
fn divergence_satisfies_gauss_theorem() {
    for forest in [cube(1), hanging()] {
        let (mf_u, mf_p) = spaces(&forest, 3);
        let u_fn = |x: [f64; 3]| [x[0] * x[1], -x[1] + x[2] * x[2], 0.3 * x[0]];
        let u = interpolate_velocity(&mf_u, &u_fn);
        let outflow = boundary_flow_rate(&mf_u, 0, &u);
        let open = FlowBcs::new(vec![BcKind::Pressure]);
        for (bcs, want) in [(open, outflow), (FlowBcs::walls(), 0.0)] {
            let mut d = vec![0.0; mf_p.n_dofs()];
            divergence(&mf_u, &mf_p, &bcs, &u, &mut d);
            let total: f64 = d.iter().sum();
            assert!(
                (total - want).abs() < 1e-11 * want.abs().max(1.0),
                "∫div = {total} vs ∮u·n = {want} ({bcs:?})"
            );
        }
    }
}

/// Walls mirror the normal velocity, so the boundary flux of D vanishes and
/// a constant pressure mode is in the kernel of Gᵀ-pairing: for a velocity
/// with zero boundary normal trace, `⟨G p, u⟩ = −⟨p, D u⟩`.
#[test]
fn gradient_divergence_duality() {
    // the hanging cube covers the mixed-order subface path
    for forest in [cube(1), hanging()] {
        let (mf_u, mf_p) = spaces(&forest, 3);
        let bcs = FlowBcs::walls();
        // bubble velocity: zero trace on the whole boundary
        let bubble = |x: [f64; 3]| {
            let b = x[0] * (1.0 - x[0]) * x[1] * (1.0 - x[1]) * x[2] * (1.0 - x[2]);
            [b, -2.0 * b, 0.5 * b]
        };
        let u = interpolate_velocity(&mf_u, &bubble);
        let p = interpolate_nodal(&mf_p, &|x| 1.0 + x[0] - 0.5 * x[1] * x[2]);
        let mut gp = vec![0.0; u.len()];
        gradient(&mf_u, &mf_p, &bcs, &p, &mut gp);
        let mut du = vec![0.0; p.len()];
        divergence(&mf_u, &mf_p, &bcs, &u, &mut du);
        let a: f64 = gp.iter().zip(&u).map(|(x, y)| x * y).sum();
        let b: f64 = p.iter().zip(&du).map(|(x, y)| x * y).sum();
        // the bubble's trace is only *interpolatorily* zero on the
        // Gauss-nodal trace (it is exactly zero as a polynomial), so the
        // identity is exact up to roundoff
        assert!(
            (a + b).abs() < 1e-10 * a.abs().max(1.0),
            "⟨Gp,u⟩ = {a}, ⟨p,Du⟩ = {b}"
        );
    }
}

/// The pressure gradient of a constant field must vanish against interior
/// test functions when the same constant is prescribed at the boundary.
#[test]
fn gradient_of_constant_pressure_with_matching_bc() {
    let forest = hanging();
    let (mf_u, mf_p) = spaces(&forest, 2);
    let mut bcs = FlowBcs::new(vec![BcKind::Pressure]);
    bcs.set_pressure(0, 7.5);
    let p = vec![7.5; mf_p.n_dofs()];
    let mut gp = vec![0.0; 3 * mf_u.n_dofs()];
    gradient(&mf_u, &mf_p, &bcs, &p, &mut gp);
    let max = gp.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(max < 1e-11, "G(const) = {max}");
}

/// Flow rate of a uniform field through the box boundary is zero (in =
/// out), and through one face equals the face area times the normal
/// component.
#[test]
fn boundary_flow_rate_measures_flux() {
    // 2×1×1 box: inlet x = 0 (id 1), outlet x = 2 (id 2), walls (id 0)
    let mut coarse = CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]);
    coarse.boundary_ids.insert((0, 0), 1);
    coarse.boundary_ids.insert((1, 1), 2);
    let mut forest = Forest::new(coarse);
    forest.refine_global(1);
    let (mf_u, _) = spaces(&forest, 2);
    let u = interpolate_velocity(&mf_u, &|_| [1.0, 0.0, 0.0]);
    let q: Vec<f64> = (0..3).map(|id| boundary_flow_rate(&mf_u, id, &u)).collect();
    for (id, want) in [(0, 0.0), (1, -1.0), (2, 1.0)] {
        assert!((q[id] - want).abs() < 1e-12, "id {id}: {} vs {want}", q[id]);
    }
    assert!(q.iter().sum::<f64>().abs() < 1e-12, "net flux {q:?}");
}

/// The Helmholtz operator of the viscous step (4): manufactured-solution
/// convergence at the full spatial rate.
#[test]
fn helmholtz_solve_converges_at_rate_k_plus_1() {
    use dgflow_core::operators::HelmholtzOperator;
    use dgflow_fem::operators::l2_error;
    use dgflow_fem::{LaplaceOperator, MassOperator};
    use dgflow_solvers::{cg_solve, JacobiPreconditioner, LinearOperator};
    use std::f64::consts::PI;
    let nu = 0.7;
    let alpha = 3.0; // γ0/Δt-like factor
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let rhs_f = move |x: [f64; 3]| (alpha + nu * 3.0 * PI * PI) * exact(x);
    let solve = |refine: usize| -> f64 {
        let forest = cube(refine);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = Arc::new(MatrixFree::<f64, L>::new(
            &forest,
            &manifold,
            MfParams::dg(2),
        ));
        let lap = LaplaceOperator::new(mf.clone());
        let weights = MassOperator::new(&mf).weights();
        let mut hh = HelmholtzOperator::new(lap, weights, nu);
        hh.set_factor(alpha);
        let rhs = integrate_rhs(&mf, &rhs_f);
        let pre = JacobiPreconditioner::new(hh.diagonal());
        let mut u = vec![0.0; mf.n_dofs()];
        let res = cg_solve(&hh, &pre, &rhs, &mut u, 1e-12, 3000);
        assert!(res.converged);
        l2_error(&mf, &u, &exact)
    };
    let e1 = solve(1);
    let e2 = solve(2);
    let rate = (e1 / e2).log2();
    assert!(rate > 2.6, "Helmholtz rate {rate} ({e1:.3e} → {e2:.3e})");
}

/// The penalty operator is SPD and reduces the divergence of a projected
/// field (eq. 5 in isolation).
#[test]
fn penalty_operator_is_spd_and_mass_dominated() {
    use dgflow_core::operators::PenaltyOperator;
    use dgflow_solvers::LinearOperator;
    let forest = hanging();
    let (mf_u, _) = spaces(&forest, 2);
    let u_scale = vec![1.0; mf_u.n_cells];
    let pen = PenaltyOperator::new(&mf_u, &u_scale, 1e-2, 1.0, 1.0);
    let n = 3 * mf_u.n_dofs();
    for seed in 0..2 {
        let x: Vec<f64> = (0..n)
            .map(|i| (((i + seed * 31) * 2654435761) % 1009) as f64 / 500.0 - 1.0)
            .collect();
        let mut ax = vec![0.0; n];
        pen.apply(&x, &mut ax);
        let xax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!(xax > 0.0, "penalty operator not PD: {xax}");
    }
    // symmetry
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
    let mut ax = vec![0.0; n];
    let mut ay = vec![0.0; n];
    pen.apply(&x, &mut ax);
    pen.apply(&y, &mut ay);
    let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
    let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
    assert!(
        (xay - yax).abs() < 1e-9 * xay.abs().max(1.0),
        "{xay} vs {yax}"
    );
}
