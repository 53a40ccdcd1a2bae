//! Cross-crate integration: the full paper pipeline at miniature scale —
//! lung geometry → adaptive mesh → hybrid multigrid → ventilated flow.

use dgflow::core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow::fem::BoundaryCondition;
use dgflow::lung::lung_mesh;
use dgflow::mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow::multigrid::{solve_poisson, HybridMultigrid, LevelOp, MgParams};
use std::sync::Arc;

#[test]
fn poisson_on_adaptively_refined_lung_with_multigrid() {
    // the Fig. 10 configuration in miniature: lung mesh, upper-airway
    // refinement (hanging nodes), hybrid MG, tight tolerance
    let mesh = lung_mesh(2);
    let mut forest = Forest::new(mesh.coarse.clone());
    let marks = mesh.upper_airway_marks(&forest, 0);
    forest.refine_active(&marks);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut bc = vec![BoundaryCondition::Neumann, BoundaryCondition::Dirichlet];
    for _ in &mesh.outlets {
        bc.push(BoundaryCondition::Dirichlet);
    }
    let mut u = Vec::new();
    let stats = solve_poisson::<4>(
        &forest,
        &manifold,
        2,
        bc,
        &|x| x[2] * 1000.0,
        &|_| 0.0,
        1e-10,
        &mut u,
    );
    assert!(stats.converged, "{stats:?}");
    assert!(
        stats.iterations <= 40,
        "lung MG iterations degraded: {}",
        stats.iterations
    );
    // the hierarchy must contain all three coarsening mechanisms
    let labels: Vec<&str> = stats.level_sizes.iter().map(|(l, _)| l.as_str()).collect();
    assert!(labels[0].starts_with("DG"));
    assert!(labels
        .iter()
        .any(|l| l.starts_with("CG(k=2)") || l.starts_with("CG(k=1)")));
}

#[test]
fn ventilated_lung_with_multigrid_runs() {
    let mesh = lung_mesh(1);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.use_multigrid = true;
    params.rel_tol = 1e-4;
    params.dt_max = 2e-4;
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
    let mut solver = FlowSolver::<4>::new(&forest, &manifold, params, bcs);
    // the pressure space integrates on the velocity space's points
    assert!(Arc::ptr_eq(&solver.mf_u.geometry, &solver.mf_p.geometry));
    vent.couple(&mut solver, 0.0);
    let mut inhaled = 0.0;
    for _ in 0..6 {
        let info = solver.step();
        assert!(info.pressure_iterations <= 60, "{info:?}");
        let (inlet, _) = vent.couple(&mut solver, info.dt);
        assert!(inlet.is_finite());
        inhaled -= inlet * info.dt;
    }
    assert!(inhaled > 0.0, "ventilator failed to drive flow: {inhaled}");
}

#[test]
fn multigrid_dg_and_cg_levels_share_one_geometry() {
    let mut forest = Forest::new(CoarseMesh::hyper_cube());
    forest.refine_global(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mg = HybridMultigrid::<f32, 8>::build(&forest, &manifold, 2, bc, MgParams::default());
    let (LevelOp::Dg(dg), LevelOp::Cg(cg)) = (&mg.levels[0].op, &mg.levels[1].op) else {
        panic!("want DG(k) then CG(k) at the top of the hierarchy");
    };
    assert_eq!(cg.space.mf.params.degree, 2);
    assert!(Arc::ptr_eq(&dg.mf.geometry, &cg.space.mf.geometry));
}

#[test]
fn f32_and_f64_operators_agree() {
    // the mixed-precision premise: the SP operator is the DP operator to
    // single-precision accuracy
    let mesh = lung_mesh(1);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf64 = Arc::new(dgflow::fem::MatrixFree::<f64, 4>::new(
        &forest,
        &manifold,
        dgflow::fem::MfParams::dg(2),
    ));
    let mf32 = Arc::new(dgflow::fem::MatrixFree::<f32, 8>::new(
        &forest,
        &manifold,
        dgflow::fem::MfParams::dg(2),
    ));
    let op64 = dgflow::fem::LaplaceOperator::new(mf64.clone());
    let op32 = dgflow::fem::LaplaceOperator::new(mf32.clone());
    use dgflow::solvers::LinearOperator;
    let n = mf64.n_dofs();
    let x64: Vec<f64> = (0..n).map(|i| ((i % 37) as f64) / 37.0 - 0.5).collect();
    let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
    let mut y64 = vec![0.0f64; n];
    let mut y32 = vec![0.0f32; n];
    op64.apply(&x64, &mut y64);
    op32.apply(&x32, &mut y32);
    let scale = y64.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for i in 0..n {
        assert!(
            (y64[i] - f64::from(y32[i])).abs() < 1e-4 * scale,
            "dof {i}: {} vs {}",
            y64[i],
            y32[i]
        );
    }
}

#[test]
fn perfmodel_consistent_with_measured_kernels() {
    // calibrate the machine model from a real measured rate and check the
    // model reproduces it at the saturated point
    let mesh = lung_mesh(1);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(dgflow::fem::MatrixFree::<f64, 4>::new(
        &forest,
        &manifold,
        dgflow::fem::MfParams::dg(3),
    ));
    let op = dgflow::fem::LaplaceOperator::new(mf.clone());
    use dgflow::solvers::LinearOperator;
    let n = mf.n_dofs();
    let src: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let mut dst = vec![0.0; n];
    let t0 = std::time::Instant::now();
    for _ in 0..3 {
        op.apply(&src, &mut dst);
    }
    let rate = 3.0 * n as f64 / t0.elapsed().as_secs_f64();
    let counts = dgflow::perfmodel::LaplaceCounts::new(3, 8.0);
    let machine =
        dgflow::perfmodel::MachineModel::calibrated(rate, counts.ideal_bytes_per_dof * 1.25);
    // one "node" of the calibrated model at a saturated size reproduces the
    // measured rate within the model's idealizations
    let t = dgflow::perfmodel::matvec_time(&machine, &counts, 50e6, 1, 1.0);
    let model_rate = 50e6 / t;
    assert!(
        model_rate > 0.2 * rate && model_rate < 5.0 * rate,
        "model {model_rate:.3e} vs measured {rate:.3e}"
    );
}
