//! Ablations of the paper's design choices: mixed precision (Sec. 3.4),
//! V vs W cycles, and the divergence/continuity penalty (Sec. 2.3).

use dgflow_bench::{bifurcation_forest, eng, row};
use dgflow_core::{FlowParams, FlowSolver};
use dgflow_fem::operators::integrate_rhs;
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::{Forest, TrilinearManifold};
use dgflow_multigrid::{CycleType, HybridMultigrid, MgParams, MixedPrecisionMg};
use dgflow_solvers::cg_solve;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("# Ablations");
    println!();

    // --- 1. mixed precision & cycle type on the bifurcation Poisson -----
    println!("## pressure Poisson preconditioning (bifurcation, k=2, tol 1e-10)");
    let (forest, _) = bifurcation_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![
        BoundaryCondition::Neumann,
        BoundaryCondition::Dirichlet,
        BoundaryCondition::Dirichlet,
        BoundaryCondition::Dirichlet,
    ];
    let mf = Arc::new(MatrixFree::<f64, 8>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc.clone());
    let rhs = integrate_rhs(&mf, &|x| (x[2] * 200.0).sin());
    row(&"variant|CG its|solve [s]"
        .split('|')
        .map(String::from)
        .collect::<Vec<_>>());
    row(&"--|--|--".split('|').map(String::from).collect::<Vec<_>>());
    // SP V-cycle (the paper's configuration)
    {
        let mg = MixedPrecisionMg::<8> {
            mg: HybridMultigrid::<f32, 8>::build(
                &forest,
                &manifold,
                2,
                bc.clone(),
                MgParams::default(),
            ),
        };
        let mut x = vec![0.0; mf.n_dofs()];
        let t = Instant::now();
        let r = cg_solve(&op, &mg, &rhs, &mut x, 1e-10, 100);
        row(&[
            "SP V-cycle (paper)".into(),
            r.iterations.to_string(),
            eng(t.elapsed().as_secs_f64()),
        ]);
    }
    // DP V-cycle
    {
        let mg = HybridMultigrid::<f64, 8>::build(
            &forest,
            &manifold,
            2,
            bc.clone(),
            MgParams::default(),
        );
        let mut x = vec![0.0; mf.n_dofs()];
        let t = Instant::now();
        let r = cg_solve(&op, &mg, &rhs, &mut x, 1e-10, 100);
        row(&[
            "DP V-cycle".into(),
            r.iterations.to_string(),
            eng(t.elapsed().as_secs_f64()),
        ]);
    }
    // SP W-cycle
    {
        let mg = MixedPrecisionMg::<8> {
            mg: HybridMultigrid::<f32, 8>::build(
                &forest,
                &manifold,
                2,
                bc.clone(),
                MgParams {
                    cycle: CycleType::W,
                    ..MgParams::default()
                },
            ),
        };
        let mut x = vec![0.0; mf.n_dofs()];
        let t = Instant::now();
        let r = cg_solve(&op, &mg, &rhs, &mut x, 1e-10, 100);
        row(&[
            "SP W-cycle".into(),
            r.iterations.to_string(),
            eng(t.elapsed().as_secs_f64()),
        ]);
    }
    // Jacobi only (no multigrid)
    {
        let jac = dgflow_solvers::JacobiPreconditioner::new(op.compute_diagonal());
        let mut x = vec![0.0; mf.n_dofs()];
        let t = Instant::now();
        let r = cg_solve(&op, &jac, &rhs, &mut x, 1e-10, 5000);
        row(&[
            "point-Jacobi (no MG)".into(),
            r.iterations.to_string(),
            eng(t.elapsed().as_secs_f64()),
        ]);
    }
    println!();

    // --- 2. penalty step on/off ----------------------------------------
    // transient, convection-dominated: an impulsively started ventilated
    // bifurcation (air parameters, sharp startup) — the regime the penalty
    // stabilization targets
    println!("## divergence/continuity penalty (ventilated bifurcation, 15 steps)");
    row(&"ζ_D, ζ_C|‖D u‖ after run"
        .split('|')
        .map(String::from)
        .collect::<Vec<_>>());
    row(&"--|--".split('|').map(String::from).collect::<Vec<_>>());
    for (zd, zc) in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)] {
        let tree = dgflow_lung::bifurcation_tree();
        let mesh = dgflow_lung::mesh_airway_tree(&tree, dgflow_lung::MeshParams::default());
        let f2 = Forest::new(mesh.coarse.clone());
        let man2 = TrilinearManifold::from_forest(&f2);
        let mut params = FlowParams::new(2);
        params.rel_tol = 1e-6;
        params.dt_max = 2e-4;
        params.use_multigrid = false;
        params.zeta_div = zd;
        params.zeta_cont = zc;
        let mut bcs = dgflow_core::VentilationModel::make_bcs(&mesh);
        bcs.set_pressure(dgflow_lung::INLET_ID, 1000.0 / 1.2);
        let mut solver = FlowSolver::<8>::new(&f2, &man2, params, bcs);
        for _ in 0..15 {
            solver.step();
        }
        row(&[format!("{zd}, {zc}"), eng(solver.divergence_norm())]);
    }
    println!();
}
