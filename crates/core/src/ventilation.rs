//! Mechanical-ventilation application layer (Sec. 5.3): pressure-controlled
//! ventilator with tubus pressure drop, per-outlet single-compartment R-C
//! models of the unresolved airways, and the discrete tidal-volume
//! controller.

use crate::bc::{BcKind, FlowBcs};
use crate::solver::FlowSolver;
use dgflow_lung::{LungMesh, INLET_ID, OUTLET_ID0};

/// cmH₂O → Pa.
pub const CMH2O: f64 = 98.0665;

/// Dynamic viscosity of air (Pa·s).
pub const MU_AIR: f64 = 1.8e-5;

/// Inlet pressure waveform shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Waveform {
    /// Pressure-controlled square wave (conventional ventilation).
    Square,
    /// Sinusoidal oscillation about PEEP (high-frequency oscillatory
    /// ventilation, HFOV — the paper's Sec. 4 motivates the h/l metric by
    /// the very different tidal volumes of HFOV vs conventional modes).
    Sinusoidal,
}

/// Ventilator settings.
#[derive(Clone, Copy, Debug)]
pub struct VentilatorSettings {
    /// Positive end-expiratory pressure (Pa).
    pub peep: f64,
    /// Driving pressure Δp above PEEP during inhalation (Pa), adapted by
    /// the controller.
    pub delta_p: f64,
    /// Breathing period T (s).
    pub period: f64,
    /// Inhalation fraction of the period (paper: I:E = 1:2 → 1/3).
    pub inhale_fraction: f64,
    /// Target tidal volume (m³).
    pub tidal_volume: f64,
    /// Linear tubus resistance coefficient (Pa·s/m³).
    pub tube_r1: f64,
    /// Quadratic tubus coefficient (Pa·s²/m⁶), Guttmann-type.
    pub tube_r2: f64,
    /// Waveform shape.
    pub waveform: Waveform,
}

impl Default for VentilatorSettings {
    fn default() -> Self {
        Self {
            peep: 8.0 * CMH2O,
            delta_p: 12.0 * CMH2O,
            period: 3.0,
            inhale_fraction: 1.0 / 3.0,
            tidal_volume: 500e-6,
            tube_r1: 5.0 * CMH2O / 1e-3,  // 5 cmH2O per l/s
            tube_r2: 10.0 * CMH2O / 1e-6, // 10 cmH2O per (l/s)^2
            waveform: Waveform::Square,
        }
    }
}

impl VentilatorSettings {
    /// High-frequency oscillatory ventilation: ~10 Hz sinusoidal pressure
    /// oscillation about a raised mean airway pressure with tidal volumes
    /// an order of magnitude below conventional ventilation — the regime
    /// whose wall-time economics the paper's h/l metric (Eq. 8) compares
    /// against normal ventilation.
    pub fn hfov() -> Self {
        Self {
            peep: 15.0 * CMH2O, // mean airway pressure
            delta_p: 20.0 * CMH2O,
            period: 0.1, // 10 Hz
            inhale_fraction: 0.5,
            tidal_volume: 50e-6,
            waveform: Waveform::Sinusoidal,
            ..Self::default()
        }
    }
}

/// One single-compartment (R-C) outlet model (Bates, ref. \[8\] of the paper).
#[derive(Clone, Debug)]
pub struct Compartment {
    /// Series resistance of the unresolved subtree + tissue (Pa·s/m³).
    pub resistance: f64,
    /// Compliance (m³/Pa).
    pub compliance: f64,
    /// Current volume above the reference state (m³).
    pub volume: f64,
}

impl Compartment {
    /// Compartment pressure from its filling state.
    pub fn pressure(&self, flow_in: f64) -> f64 {
        self.volume / self.compliance + self.resistance * flow_in
    }
}

/// The coupled ventilation model: updates the pressure boundary values of
/// the 3-D solver every time step and adapts Δp once per breathing cycle.
#[derive(Clone, Debug)]
pub struct VentilationModel {
    /// Ventilator settings (Δp mutated by the controller).
    pub settings: VentilatorSettings,
    /// Compartments, in outlet order (boundary id = OUTLET_ID0 + index).
    pub compartments: Vec<Compartment>,
    /// Inhaled volume of the current cycle (m³).
    pub cycle_inhaled: f64,
    /// Completed-cycle tidal volumes (controller history).
    pub tidal_history: Vec<f64>,
    /// Breathing cycle of the last update (the controller acts when `t`
    /// enters a later one).
    pub(crate) last_cycle: usize,
}

/// Poiseuille resistance of one branch (Pa·s/m³).
pub fn poiseuille_resistance(length: f64, diameter: f64) -> f64 {
    128.0 * MU_AIR * length / (std::f64::consts::PI * diameter.powi(4))
}

/// Resistance of the unresolved symmetric subtree continuing from a
/// terminal of diameter `d` at generation `g` down to generation 25 with
/// Weibel ratios (diameter ratio `2^{-1/3}`, length = 3 d): levels in
/// series, branches per level in parallel.
pub fn subtree_resistance(d: f64, g: usize) -> f64 {
    let ratio: f64 = 2f64.powf(-1.0 / 3.0);
    let mut total = 0.0;
    let mut dia = d;
    for level in 1..=25usize.saturating_sub(g) {
        dia *= ratio;
        let branches = 2f64.powi(level as i32);
        total += poiseuille_resistance(3.0 * dia, dia) / branches;
    }
    total
}

impl VentilationModel {
    /// Build from a lung mesh, distributing the physiological total
    /// resistance (0.15 kPa·s/l, 20 % tissue [61, 53]) and compliance
    /// (100 ml/cmH₂O) over the outlets: raw Poiseuille subtree resistances
    /// set the *distribution*, scaled so the parallel total matches the
    /// airway share.
    pub fn from_lung(mesh: &LungMesh, settings: VentilatorSettings) -> Self {
        let n = mesh.outlets.len().max(1);
        let total_r = 0.15e3 / 1e-3; // 0.15 kPa·s/l → Pa·s/m³
        let airway_r = 0.8 * total_r;
        let tissue_r = 0.2 * total_r;
        let raw: Vec<f64> = mesh
            .outlets
            .iter()
            .map(|o| subtree_resistance(o.diameter, o.generation).max(1.0))
            .collect();
        let inv_sum: f64 = raw.iter().map(|r| 1.0 / r).sum();
        let r_par_raw = 1.0 / inv_sum;
        let scale = airway_r / r_par_raw;
        let c_total = 100e-6 / CMH2O; // 100 ml/cmH2O → m³/Pa
        let compartments = raw
            .iter()
            .map(|r| Compartment {
                resistance: r * scale + tissue_r * n as f64,
                compliance: c_total / n as f64,
                // start at PEEP equilibrium
                volume: settings.peep * c_total / n as f64,
            })
            .collect();
        Self {
            settings,
            compartments,
            cycle_inhaled: 0.0,
            tidal_history: Vec::new(),
            last_cycle: 0,
        }
    }

    /// True during the inhalation phase.
    pub fn inhaling(&self, t: f64) -> bool {
        (t / self.settings.period).fract() < self.settings.inhale_fraction
    }

    /// Ventilator pressure (before the tubus) at time `t`.
    pub fn ventilator_pressure(&self, t: f64) -> f64 {
        match self.settings.waveform {
            Waveform::Square => {
                if self.inhaling(t) {
                    self.settings.peep + self.settings.delta_p
                } else {
                    self.settings.peep
                }
            }
            Waveform::Sinusoidal => {
                let phase = 2.0 * std::f64::consts::PI * t / self.settings.period;
                self.settings.peep + 0.5 * self.settings.delta_p * phase.sin()
            }
        }
    }

    /// Couple the 0-D models to `solver` after a step of size `dt`: measure
    /// the inlet and every outlet flow, advance the models with them at
    /// `solver.time`, and set the solver's boundary pressures. `dt = 0`
    /// only recomputes the pressures from the current state (priming at
    /// t = 0, or after a restore). Returns the inlet flow and the summed
    /// outlet flow, both positive out of the domain.
    pub fn couple<const L: usize>(&mut self, solver: &mut FlowSolver<L>, dt: f64) -> (f64, f64) {
        let ids: Vec<u32> = std::iter::once(INLET_ID)
            .chain((0..self.compartments.len() as u32).map(|i| OUTLET_ID0 + i))
            .collect();
        let rates = solver.flow_rates(&ids);
        let (inlet, outlets) = (rates[0], &rates[1..]);
        let rho = solver.density();
        self.update(solver.time, dt, inlet, outlets, rho, &mut solver.bcs);
        (inlet, outlets.iter().sum())
    }

    /// Advance the 0-D models by `dt` given the 3-D flow rates (positive =
    /// out of the 3-D domain), and update the boundary pressures in `bcs`
    /// (kinematic units: Pa / ρ). Drivers call [`VentilationModel::couple`],
    /// which measures the flows; this is its step for given flows.
    ///
    /// `outlet_flows[i]` is the flow through outlet `i`; `inlet_flow` the
    /// flow through the tracheal inlet (negative during inhalation).
    pub fn update(
        &mut self,
        t: f64,
        dt: f64,
        inlet_flow: f64,
        outlet_flows: &[f64],
        density: f64,
        bcs: &mut FlowBcs,
    ) {
        assert_eq!(outlet_flows.len(), self.compartments.len());
        // cycle bookkeeping + controller
        let cycle = (t / self.settings.period) as usize;
        if cycle > self.last_cycle {
            let vt = self.cycle_inhaled;
            self.tidal_history.push(vt);
            if vt > 1e-9 {
                let f = (self.settings.tidal_volume / vt).clamp(0.5, 2.0);
                self.settings.delta_p =
                    (self.settings.delta_p * f).clamp(1.0 * CMH2O, 60.0 * CMH2O);
            }
            self.cycle_inhaled = 0.0;
            self.last_cycle = cycle;
        }
        let q_in = -inlet_flow; // into the domain
        if self.inhaling(t) && q_in > 0.0 {
            self.cycle_inhaled += q_in * dt;
        }
        // trachea pressure after the tubus drop [31]
        let p_vent = self.ventilator_pressure(t);
        let drop = self.settings.tube_r1 * q_in + self.settings.tube_r2 * q_in * q_in.abs();
        let p_trachea = p_vent - drop;
        bcs.set_pressure(INLET_ID, p_trachea / density);
        // compartments
        for (i, (comp, &q)) in self.compartments.iter_mut().zip(outlet_flows).enumerate() {
            comp.volume += q * dt;
            let p = comp.pressure(q);
            bcs.set_pressure(OUTLET_ID0 + i as u32, p / density);
        }
    }

    /// Boundary-kind vector for a lung mesh (walls + inlet + all outlets).
    pub fn make_bcs(mesh: &LungMesh) -> FlowBcs {
        let mut kinds = vec![BcKind::Wall; OUTLET_ID0 as usize + mesh.outlets.len()];
        kinds[INLET_ID as usize] = BcKind::Pressure;
        for o in &mesh.outlets {
            kinds[o.boundary_id as usize] = BcKind::Pressure;
        }
        FlowBcs::new(kinds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poiseuille_matches_hand_computation() {
        let r = poiseuille_resistance(0.1, 0.01);
        let expect = 128.0 * MU_AIR * 0.1 / (std::f64::consts::PI * 1e-8);
        assert!((r - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn subtree_resistance_decreases_with_terminal_size() {
        let r_small = subtree_resistance(0.002, 11);
        let r_large = subtree_resistance(0.004, 11);
        assert!(r_small > r_large);
        // deeper terminals have fewer remaining generations → less series R
        let r_shallow = subtree_resistance(0.002, 5);
        assert!(r_shallow > r_small);
    }

    #[test]
    fn compartment_rc_discharge_matches_analytic() {
        // decoupled compartment driven by constant inlet pressure P via its
        // resistance: dV/dt = (P − V/C)/R → V(t) = PC(1 − e^{−t/RC})
        let r = 1.0e5;
        let c = 1.0e-6;
        let p_drive = 1000.0;
        let mut comp = Compartment {
            resistance: r,
            compliance: c,
            volume: 0.0,
        };
        let dt = 1e-4;
        let mut t = 0.0;
        while t < 0.3 {
            let q = (p_drive - comp.volume / comp.compliance) / comp.resistance;
            comp.volume += q * dt;
            t += dt;
        }
        let analytic = p_drive * c * (1.0 - (-t / (r * c)).exp());
        assert!(
            (comp.volume - analytic).abs() < 1e-3 * analytic,
            "{} vs {analytic}",
            comp.volume
        );
    }

    #[test]
    fn controller_adapts_delta_p_toward_target() {
        let settings = VentilatorSettings::default();
        let mut model = VentilationModel {
            settings,
            compartments: vec![Compartment {
                resistance: 1e5,
                compliance: 1e-6,
                volume: 0.0,
            }],
            cycle_inhaled: 0.0,
            tidal_history: Vec::new(),
            last_cycle: 0,
        };
        let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
        // simulate: measured tidal volume half the target in cycle 0
        model.cycle_inhaled = settings.tidal_volume / 2.0;
        let dp0 = model.settings.delta_p;
        // crossing into cycle 1 triggers the controller
        model.update(3.01, 0.01, 0.0, &[0.0], 1.2, &mut bcs);
        assert!((model.settings.delta_p - 2.0 * dp0).abs() < 1e-9);
        assert_eq!(model.tidal_history.len(), 1);
    }

    #[test]
    fn checkpoint_restores_the_controller_mid_cycle() {
        use crate::checkpoint::Checkpoint;
        use crate::{FlowParams, FlowSolver};
        use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
        // a two-cell duct carries the flow state the checkpoint needs
        let forest = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]));
        let manifold = TrilinearManifold::from_forest(&forest);
        let mut params = FlowParams::new(2);
        params.use_multigrid = false;
        let bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
        let mut solver = FlowSolver::<4>::new(&forest, &manifold, params, bcs);
        let fresh = || VentilationModel {
            settings: VentilatorSettings::default(),
            compartments: vec![Compartment {
                resistance: 1e5,
                compliance: 1e-6,
                volume: 0.0,
            }],
            cycle_inhaled: 0.0,
            tidal_history: Vec::new(),
            last_cycle: 0,
        };
        // 0.1 l/s in while inhaling, out otherwise; Δt = 0.05 s, T = 3 s
        let drive = |m: &mut VentilationModel, n: u32, bcs: &mut FlowBcs| {
            let t = f64::from(n) * 0.05;
            let q = if m.inhaling(t) { -1e-4 } else { 5e-5 };
            m.update(t, 0.05, q, &[-q], 1.2, bcs);
        };
        let mut whole = fresh();
        for n in 1..=70 {
            drive(&mut whole, n, &mut solver.bcs);
        }
        // mid-inhalation of the second cycle: a boundary behind, one ahead
        assert!(whole.cycle_inhaled > 0.0 && whole.tidal_history.len() == 1);
        let mut buf = Vec::new();
        Checkpoint::capture(&solver, Some(&whole))
            .write(&mut buf)
            .unwrap();
        let mut resumed = fresh();
        Checkpoint::read(&mut buf.as_slice())
            .unwrap()
            .restore(&mut solver, Some(&mut resumed))
            .unwrap();
        for n in 71..=130 {
            drive(&mut whole, n, &mut solver.bcs);
            drive(&mut resumed, n, &mut solver.bcs);
        }
        let bits = |m: &VentilationModel| -> Vec<u64> {
            let history = m.tidal_history.iter().map(|v| v.to_bits());
            history.chain([m.settings.delta_p.to_bits()]).collect()
        };
        assert_eq!(whole.tidal_history.len(), 2);
        assert_eq!(bits(&resumed), bits(&whole));
    }

    #[test]
    fn hfov_waveform_oscillates_about_mean() {
        let mut settings = VentilatorSettings::hfov();
        settings.delta_p = 10.0 * CMH2O;
        let model = VentilationModel {
            settings,
            compartments: vec![],
            cycle_inhaled: 0.0,
            tidal_history: Vec::new(),
            last_cycle: 0,
        };
        // one full 10 Hz cycle: mean = PEEP, amplitude = Δp/2
        let samples: Vec<f64> = (0..100)
            .map(|i| model.ventilator_pressure(f64::from(i) * 1e-3))
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        assert!((mean - settings.peep).abs() < 0.02 * settings.peep);
        assert!((max - (settings.peep + 5.0 * CMH2O)).abs() < 0.1 * CMH2O);
        assert!((min - (settings.peep - 5.0 * CMH2O)).abs() < 0.1 * CMH2O);
        // HFOV period and tidal target are an order of magnitude below
        // conventional
        let conv = VentilatorSettings::default();
        assert!(settings.period < 0.1 * conv.period);
        assert!(settings.tidal_volume < 0.2 * conv.tidal_volume);
    }

    #[test]
    fn ventilator_waveform_square_with_ie_one_to_two() {
        let model = VentilationModel {
            settings: VentilatorSettings::default(),
            compartments: vec![],
            cycle_inhaled: 0.0,
            tidal_history: Vec::new(),
            last_cycle: 0,
        };
        let s = &model.settings;
        assert_eq!(s.waveform, Waveform::Square);
        assert!(model.inhaling(0.1));
        assert!(model.inhaling(0.99));
        assert!(!model.inhaling(1.01));
        assert!(!model.inhaling(2.9));
        assert!(model.inhaling(3.1)); // next cycle
        assert_eq!(model.ventilator_pressure(0.5), s.peep + s.delta_p);
        assert_eq!(model.ventilator_pressure(2.0), s.peep);
    }
}
