//! Table 2: lung application runs — wall time per time step, extrapolated
//! time steps per breathing cycle, hours per cycle and per liter of tidal
//! volume, versus generation count.
//!
//! A full breathing cycle is ~2·10⁶ steps (paper, 128 nodes); on this
//! machine we *measure* a window of real ventilation steps (per-step wall
//! time and the CFL Δt distribution) and extrapolate the cycle totals the
//! way the paper's own metric is defined (min t_wall ~ N_Δt · t_step,
//! Eq. 8). Set DGFLOW_TABLE2_STEPS / DGFLOW_TABLE2_GENS to enlarge.

use dgflow_bench::{eng, lung_forest, row};
use dgflow_core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow_mesh::TrilinearManifold;

fn main() {
    let n_steps: usize = std::env::var("DGFLOW_TABLE2_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let gens: Vec<usize> = std::env::var("DGFLOW_TABLE2_GENS")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| vec![1, 2, 3]);
    println!("# Table 2 — lung application runs (k=3, CFL 0.4, tol 1e-3)");
    println!();
    row(
        &"g|#cell|#DoF|dt [s]|t_wall/dt [s]|N_dt (extrap.)|h/cycle|h/l"
            .split('|')
            .map(String::from)
            .collect::<Vec<_>>(),
    );
    row(&"--|--|--|--|--|--|--|--"
        .split('|')
        .map(String::from)
        .collect::<Vec<_>>());
    for &g in &gens {
        let (forest, mesh) = lung_forest(g, false, 0);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mut params = FlowParams::new(3);
        params.rel_tol = 1e-3;
        params.use_multigrid = true;
        params.dt_max = 5e-4;
        let bcs = VentilationModel::make_bcs(&mesh);
        let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
        let mut solver = FlowSolver::<8>::new(&forest, &manifold, params, bcs);
        vent.couple(&mut solver, 0.0);
        let mut wall = 0.0;
        let mut dt_sum = 0.0;
        for _ in 0..n_steps {
            let info = solver.step();
            vent.couple(&mut solver, info.dt);
            // skip the first two startup steps in the averages
            if solver.step_count > 2 {
                wall += info.wall_seconds;
                dt_sum += info.dt;
            }
        }
        let avg_steps = (n_steps - 2) as f64;
        let t_step = wall / avg_steps;
        let dt_avg = dt_sum / avg_steps;
        let n_dt = (VentilatorSettings::default().period / dt_avg).round();
        let h_cycle = n_dt * t_step / 3600.0;
        let h_per_l = h_cycle / (VentilatorSettings::default().tidal_volume * 1e3);
        let n_dofs = 3 * solver.mf_u.n_dofs() + solver.mf_p.n_dofs();
        row(&[
            g.to_string(),
            eng(mesh.n_cells() as f64),
            eng(n_dofs as f64),
            eng(dt_avg),
            eng(t_step),
            eng(n_dt),
            eng(h_cycle),
            eng(h_per_l),
        ]);
    }
    println!();
    println!("paper (Table 2, 2–128 SuperMUC-NG nodes in the strong-scaling");
    println!("limit): t_wall/dt = 0.017–0.045 s, N_dt = 1.8e5–2.0e6,");
    println!("h/cycle = 0.9–25, h/l = 1.9–57 for g = 3..11. This machine runs");
    println!("on one core, so absolute t_wall/dt is larger; the growth of");
    println!("N_dt and h/l with g is the reproduced trend (Eq. 8: N_dt ~ V_T/D³).");
}
