//! Bitwise fingerprint of the solver's outputs: one FNV-1a hash of the
//! output bits per quantity and line. Run it on two source trees and diff
//! the outputs to show that a refactor leaves every result unchanged
//! (`cargo run --release -p dgflow-bench --bin fingerprint > after.txt`).
//! Covered: the f32 hybrid multigrid on the bifurcation (every level's
//! DG/CG Laplace apply and diagonal, its smoother's eigenvalue bound, the
//! transfers, one V-cycle; with and without an h-level), the Navier–Stokes
//! operators, the scalar advection term and the flow rates on the
//! bifurcation and a cube with hanging nodes (k = 2, 3), and three
//! ventilated steps of a g = 1 lung solver.
//! Only long-standing public entry points are used, so the same file
//! runs on older trees.

use dgflow_bench::bifurcation_forest;
use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::field::{cell_velocity_scale, interpolate_velocity};
use dgflow_core::{
    advect_term, boundary_flow_rate, convective_term, divergence, gradient, FlowParams, FlowSolver,
    PenaltyOperator, ScalarBc, VentilationModel, VentilatorSettings,
};
use dgflow_fem::operators::interpolate_nodal;
use dgflow_fem::{BoundaryCondition, MatrixFree, MfParams};
use dgflow_lung::{lung_mesh, INLET_ID};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_multigrid::{HybridMultigrid, MgParams};
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;
use dgflow_tensor::ShapeInfo1D;

const L: usize = 8;

/// FNV-1a over the `f64` bit patterns (exact for `f32` inputs too).
fn fnv<T: Real>(v: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in v {
        for byte in x.to_f64().to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn line<T: Real>(name: &str, v: &[T]) {
    println!("{name} {:016x} n={}", fnv(v), v.len());
}

/// A deterministic, sign-changing test vector.
fn test_vector<T: Real>(n: usize, seed: usize) -> Vec<T> {
    (0..n)
        .map(|i| {
            let k = (i.wrapping_mul(2_654_435_761).wrapping_add(seed * 40_503)) % 2003;
            T::from_f64(k as f64 / 1001.5 - 1.0)
        })
        .collect()
}

fn multigrid(refine: usize, degree: usize) {
    let (forest, _) = bifurcation_forest(refine);
    let manifold = TrilinearManifold::from_forest(&forest);
    // walls Neumann, inlet and outlets Dirichlet
    let mut bc = vec![BoundaryCondition::Dirichlet; 4];
    bc[0] = BoundaryCondition::Neumann;
    let mg = HybridMultigrid::<f32, L>::build(&forest, &manifold, degree, bc, MgParams::default());
    for (li, level) in mg.levels.iter().enumerate() {
        let label = level.label.replace(' ', "_");
        let name = format!("mg.r{refine}k{degree}.L{li}.{label}");
        let x = test_vector::<f32>(level.op.len(), li);
        let mut y = vec![0.0f32; x.len()];
        level.op.apply(&x, &mut y);
        line(&format!("{name}.apply"), &y);
        line(&format!("{name}.diagonal"), &level.op.diagonal());
        println!("{name}.lambda_max {}", level.smoother.lambda_max);
        if let Some(t) = &level.transfer {
            let mut coarse = vec![0.0f32; t.n_coarse()];
            t.restrict(&x, &mut coarse);
            line(&format!("{name}.restrict"), &coarse);
            let mut fine = y.clone();
            t.prolongate_add(&test_vector::<f32>(t.n_coarse(), li + 7), &mut fine);
            line(&format!("{name}.prolongate_add"), &fine);
        }
    }
    let b = test_vector::<f32>(mg.levels[0].op.len(), 99);
    let mut x = vec![0.0f32; b.len()];
    mg.vcycle(0, &b, &mut x);
    line(&format!("mg.r{refine}k{degree}.vcycle"), &x);
}

fn hanging_cube() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[3] = true;
    f.refine_active(&marks);
    f
}

fn ns_kernels(name: &str, forest: &Forest, bcs: &FlowBcs, k: usize) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf_u = MatrixFree::<f64, L>::new(forest, &manifold, MfParams::dg(k));
    let params_p = MfParams {
        degree: k - 1,
        n_q: k + 1,
        ..MfParams::dg(k)
    };
    let shape_p = ShapeInfo1D::new(params_p.degree, params_p.node_set, params_p.n_q);
    let mf_p = MatrixFree::with_geometry(mf_u.geometry.clone(), shape_p, params_p);
    let u = interpolate_velocity(&mf_u, &|x| {
        [
            (3.0 * x[0]).sin() + x[1] * x[2],
            (2.0 * x[1]).cos() - x[0],
            x[0] * x[1] - (x[2] * 1.5).sin(),
        ]
    });
    let p = interpolate_nodal(&mf_p, &|x| 1.0 + x[0] * x[1] - (2.0 * x[2]).sin());
    let c = interpolate_nodal(&mf_u, &|x| (x[0] - x[2]).cos() + x[1]);
    let put = |what: &str, n: usize, f: &dyn Fn(&mut [f64])| {
        let mut out = vec![0.0; n];
        f(&mut out);
        line(&format!("ns.{name}.k{k}.{what}"), &out);
    };
    let (nu, np) = (u.len(), p.len());
    put("convective", nu, &|o| convective_term(&mf_u, bcs, &u, o));
    put("divergence", np, &|o| divergence(&mf_u, &mf_p, bcs, &u, o));
    put("gradient", nu, &|o| gradient(&mf_u, &mf_p, bcs, &p, o));
    let pen = PenaltyOperator::new(&mf_u, &cell_velocity_scale(&mf_u, &u), 1e-2, 1.0, 1.0);
    put("penalty.apply", nu, &|o| pen.apply(&u, o));
    put("penalty.diagonal", nu, &|o| {
        o.copy_from_slice(&pen.diagonal());
    });
    let scalar_bcs: Vec<ScalarBc> = (0..8)
        .map(|id| match bcs.kind(id) {
            BcKind::Pressure => ScalarBc::Dirichlet(0.25),
            BcKind::Wall => ScalarBc::Outflow,
        })
        .collect();
    put("advect", c.len(), &|o| {
        advect_term(&mf_u, &scalar_bcs, &u, &c, o);
    });
    let rates: Vec<f64> = (0..8).map(|id| boundary_flow_rate(&mf_u, id, &u)).collect();
    line(&format!("ns.{name}.k{k}.flow_rates"), &rates);
}

fn lung_steps() {
    let mesh = lung_mesh(1);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(3);
    params.use_multigrid = true;
    params.dt_max = 2e-4;
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
    let mut solver = FlowSolver::<L>::new(&forest, &manifold, params, bcs);
    let u0 = interpolate_velocity(&solver.mf_u, &|x| {
        let s = (200.0 * x[0]).sin() * (150.0 * x[1]).cos();
        [1e-2 * s, -5e-3 * s, 2e-2 + 1e-2 * (120.0 * x[2]).sin()]
    });
    solver.set_velocity(u0);
    let rho = solver.density();
    let zeros = vec![0.0; mesh.outlets.len()];
    vent.update(0.0, 0.0, 0.0, &zeros, rho, &mut solver.bcs);
    for step in 0..3 {
        let info = solver.step();
        let its = [
            info.pressure_iterations,
            info.viscous_iterations,
            info.penalty_iterations,
        ];
        println!("lung.step{step}.iterations pressure/viscous/penalty {its:?}");
        let q_in = -solver.flow_rate(INLET_ID);
        let flows: Vec<f64> = mesh
            .outlets
            .iter()
            .map(|o| solver.flow_rate(o.boundary_id))
            .collect();
        vent.update(solver.time, info.dt, -q_in, &flows, rho, &mut solver.bcs);
    }
    line("lung.velocity", &solver.velocity);
    line("lung.pressure", &solver.pressure);
    line("lung.time", &[solver.time, solver.dt]);
}

fn main() {
    // refine 1 adds an h-transfer below the p-levels
    multigrid(0, 3);
    multigrid(1, 2);
    let (bif, mesh) = bifurcation_forest(0);
    let mut bif_bcs = VentilationModel::make_bcs(&mesh);
    bif_bcs.set_pressure(INLET_ID, 0.5);
    for (i, o) in mesh.outlets.iter().enumerate() {
        bif_bcs.set_pressure(o.boundary_id, -0.1 * (i + 1) as f64);
    }
    let cube = hanging_cube();
    let mut open = FlowBcs::new(vec![BcKind::Pressure]);
    open.set_pressure(0, 0.75);
    for k in [2, 3] {
        ns_kernels("bifurcation", &bif, &bif_bcs, k);
        ns_kernels("hanging.open", &cube, &open, k);
        ns_kernels("hanging.walls", &cube, &FlowBcs::walls(), k);
    }
    lung_steps();
}
