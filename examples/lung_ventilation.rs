//! Mechanical ventilation of a small lung model (Sec. 5.3 of the paper):
//! the pressure-controlled ventilator drives air through the airway tree,
//! each terminal outlet is loaded with its R-C compartment, and the solver
//! prints the resulting pressure/flow/volume waveforms.
//!
//! Run with: `cargo run --release --example lung_ventilation -- [generations] [steps]`

use dgflow::core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow::lung::lung_mesh;
use dgflow::mesh::{Forest, TrilinearManifold};

fn main() {
    let mut args = std::env::args().skip(1);
    let g: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let n_steps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);

    let mesh = lung_mesh(g);
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    println!(
        "lung g={g}: {} branches, {} terminal outlets, {} cells",
        mesh.tree.branches.len(),
        mesh.outlets.len(),
        mesh.n_cells()
    );

    let mut params = FlowParams::new(3);
    params.rel_tol = 1e-4;
    params.dt_max = 2e-4;
    let bcs = VentilationModel::make_bcs(&mesh);
    let settings = VentilatorSettings::default();
    let mut vent = VentilationModel::from_lung(&mesh, settings);
    println!(
        "ventilator: PEEP {:.1} cmH2O, Δp {:.1} cmH2O, T = {} s, target V_T = {} ml",
        settings.peep / dgflow::core::ventilation::CMH2O,
        settings.delta_p / dgflow::core::ventilation::CMH2O,
        settings.period,
        settings.tidal_volume * 1e6
    );

    let mut solver = FlowSolver::<8>::new(&forest, &manifold, params, bcs);
    let rho = solver.density();
    vent.couple(&mut solver, 0.0);

    println!();
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12}",
        "t [ms]", "dt [µs]", "Q_in [ml/s]", "V_in [ml]", "p_tr [cmH2O]"
    );
    let mut inhaled = 0.0;
    for step in 0..n_steps {
        let info = solver.step();
        let q_in = -vent.couple(&mut solver, info.dt).0;
        inhaled += q_in * info.dt;
        if step % 5 == 0 {
            println!(
                "{:>8.2} {:>10.1} {:>12.2} {:>12.4} {:>12.2}",
                solver.time * 1e3,
                info.dt * 1e6,
                q_in * 1e6,
                inhaled * 1e6,
                solver.bcs.pressure(dgflow::lung::INLET_ID) * rho
                    / dgflow::core::ventilation::CMH2O,
            );
        }
    }
    println!();
    println!(
        "after {n_steps} steps: t = {:.2} ms, inhaled {:.3} ml, ‖div u‖ = {:.3e}",
        solver.time * 1e3,
        inhaled * 1e6,
        solver.divergence_norm()
    );
    let total_compartment: f64 = vent.compartments.iter().map(|c| c.volume).sum();
    println!(
        "compartment volumes total {:.1} ml (PEEP equilibrium was {:.1} ml)",
        total_compartment * 1e6,
        settings.peep * 100e-6 / dgflow::core::ventilation::CMH2O * 1e6
    );
}
