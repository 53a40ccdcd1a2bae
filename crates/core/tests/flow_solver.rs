//! End-to-end flow-solver validation: pressure-driven duct flow against the
//! analytic rectangular-duct solution, incompressibility enforcement, and a
//! ventilated-bifurcation smoke test of the full application stack.

use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};

const L: usize = 4;

/// Duct [0,2]×[0,1]² with pressure inlet (id 1) at x=0 and outlet (id 2)
/// at x=2.
fn duct_forest(refine: usize) -> Forest {
    let mut coarse = CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]);
    coarse.boundary_ids.insert((0, 0), 1);
    coarse.boundary_ids.insert((1, 1), 2);
    let mut f = Forest::new(coarse);
    f.refine_global(refine);
    f
}

/// Analytic flow rate of fully developed laminar flow in a square duct of
/// side `a` under kinematic pressure gradient `g`: the classic series gives
/// `Q = c · g·a⁴/ν` with `c ≈ 0.035144`.
fn duct_flow_rate(g: f64, a: f64, nu: f64) -> f64 {
    let mut c = 1.0 / 12.0;
    let mut n = 1;
    while n <= 39 {
        let npi = f64::from(n) * std::f64::consts::PI;
        c -= 16.0 / npi.powi(5) * (npi / 2.0).tanh();
        n += 2;
    }
    c * g * a.powi(4) / nu
}

#[test]
fn pressure_driven_duct_reaches_poiseuille_steady_state() {
    let forest = duct_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.viscosity = 0.5;
    params.dt_max = 0.01;
    params.rel_tol = 1e-8;
    params.use_multigrid = false;
    let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
    let dp = 0.1; // kinematic
    bcs.set_pressure(1, dp);
    bcs.set_pressure(2, 0.0);
    let mut solver = FlowSolver::<L>::new(&forest, &manifold, params, bcs);
    let mut last_q = 0.0;
    while solver.time < 1.0 {
        let info = solver.step();
        assert!(info.dt > 0.0);
        last_q = solver.flow_rate(2);
        assert!(last_q.is_finite(), "flow diverged at t={}", solver.time);
    }
    // mass conservation: inflow = outflow
    let q_in = -solver.flow_rate(1);
    assert!(
        (q_in - last_q).abs() < 0.02 * last_q.abs().max(1e-12),
        "in {q_in} vs out {last_q}"
    );
    // analytic steady flow rate
    let expect = duct_flow_rate(dp / 2.0, 1.0, params.viscosity);
    assert!(
        (last_q - expect).abs() < 0.15 * expect,
        "Q = {last_q:.5e}, analytic {expect:.5e}"
    );
    // velocity field is (approximately) divergence-free
    let div = solver.divergence_norm();
    assert!(div < 0.05 * last_q.max(1e-12), "‖Du‖ = {div}");
}

#[test]
fn flow_rate_grows_with_driving_pressure() {
    // linearity check of the whole pipeline (low-Re laminar regime)
    let forest = duct_forest(0);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.viscosity = 0.5;
    params.dt_max = 0.01;
    params.rel_tol = 1e-8;
    params.use_multigrid = false;
    let run = |dp: f64| -> f64 {
        let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
        bcs.set_pressure(1, dp);
        let mut solver = FlowSolver::<L>::new(&forest, &manifold, params, bcs);
        while solver.time < 0.8 {
            solver.step();
        }
        solver.flow_rate(2)
    };
    let q1 = run(0.05);
    let q2 = run(0.10);
    assert!(q1 > 0.0);
    let ratio = q2 / q1;
    assert!(
        (ratio - 2.0).abs() < 0.15,
        "nonlinear response in Stokes regime: {ratio}"
    );
}

#[test]
fn ventilated_bifurcation_inhales() {
    // full application stack on the generic bifurcation: ventilator drives
    // air in, compartments fill, flows balance
    let tree = dgflow_lung::bifurcation_tree();
    let mesh = dgflow_lung::mesh_airway_tree(&tree, dgflow_lung::MeshParams::default());
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.use_multigrid = false; // keep the test lean; MG is tested elsewhere
    params.rel_tol = 1e-6;
    params.dt_max = 2e-4;
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
    let mut solver = FlowSolver::<L>::new(&forest, &manifold, params, bcs);
    // prime the boundary pressures at t=0
    vent.couple(&mut solver, 0.0);
    let mut total_in = 0.0;
    for _ in 0..25 {
        let info = solver.step();
        let (inlet_flow, outlet_flow) = vent.couple(&mut solver, info.dt);
        assert!(
            inlet_flow.is_finite() && outlet_flow.is_finite(),
            "flow diverged at step {}",
            solver.step_count
        );
        total_in += -inlet_flow * info.dt;
    }
    // the ventilator pushes air in during inhalation
    assert!(total_in > 0.0, "no inhaled volume: {total_in}");
    // compartments charge up
    let filled: f64 = vent
        .compartments
        .iter()
        .map(|c| c.volume - VentilatorSettings::default().peep * c.compliance)
        .sum();
    assert!(filled.is_finite());
    // boundary pressures were set for inlet and both outlets
    assert!(solver.bcs.pressure(dgflow_lung::INLET_ID) > 0.0);
    assert!(solver.bcs.pressure(dgflow_lung::OUTLET_ID0) > 0.0);
}

/// The one-pass flow rates of a g = 1 lung equal the per-id calls bit for
/// bit, for the inlet, every outlet and the walls, in any order and with
/// repeats.
#[test]
fn flow_rates_match_per_id_calls_bitwise() {
    let mesh = dgflow_lung::lung_mesh(1);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut solver = FlowSolver::<L>::new(&forest, &manifold, FlowParams::new(2), bcs);
    let u = dgflow_core::interpolate_velocity(&solver.mf_u, &|x| {
        let s = (200.0 * x[0]).sin() * (150.0 * x[1]).cos();
        [1e-2 * s, -5e-3 * s, 2e-2 + 1e-2 * (120.0 * x[2]).sin()]
    });
    solver.set_velocity(u);
    let mut ids = vec![dgflow_lung::INLET_ID, 0];
    ids.extend(mesh.outlets.iter().rev().map(|o| o.boundary_id));
    ids.push(dgflow_lung::INLET_ID);
    let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let each: Vec<f64> = ids.iter().map(|&id| solver.flow_rate(id)).collect();
    assert!(each.iter().all(|q| *q != 0.0), "{each:?}");
    assert_eq!(bits(&solver.flow_rates(&ids)), bits(&each));
}

/// Energy stability: in a closed box with no forcing, the discretization
/// (LLF convective flux + SIPG viscosity + penalty) must dissipate kinetic
/// energy monotonically — the robustness property of Fehn et al. the
/// scheme is built on.
#[test]
fn unforced_flow_dissipates_kinetic_energy() {
    use dgflow_core::field::{interpolate_velocity, kinetic_energy};
    let mut f = dgflow_mesh::CoarseMesh::hyper_cube();
    f.boundary_ids.clear();
    let mut forest = Forest::new(f);
    forest.refine_global(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.viscosity = 0.02;
    params.dt_max = 5e-3;
    params.rel_tol = 1e-8;
    params.use_multigrid = false;
    // all walls
    let bcs = FlowBcs::walls();
    let mut solver = FlowSolver::<L>::new(&forest, &manifold, params, bcs);
    // an initial swirl (zero normal trace at the walls up to interpolation)
    let swirl = |x: [f64; 3]| {
        use std::f64::consts::PI;
        let (sx, cx) = (PI * x[0]).sin_cos();
        let (sy, cy) = (PI * x[1]).sin_cos();
        let sz = (PI * x[2]).sin();
        [
            sx * cy * sz * 0.0 + sx.powi(2) * sy * cy * 0.5,
            -sx * cx * sy.powi(2) * 0.5,
            0.0 * cx * sz,
        ]
    };
    solver.set_velocity(interpolate_velocity(&solver.mf_u, &swirl));
    let mut ke_prev = kinetic_energy(&solver.mf_u, &solver.velocity);
    assert!(ke_prev > 0.0);
    let ke0 = ke_prev;
    for step in 0..20 {
        solver.step();
        let ke = kinetic_energy(&solver.mf_u, &solver.velocity);
        assert!(
            ke <= ke_prev * (1.0 + 1e-8),
            "kinetic energy grew at step {step}: {ke_prev} → {ke}"
        );
        ke_prev = ke;
    }
    assert!(ke_prev < ke0, "no dissipation at all");
}
