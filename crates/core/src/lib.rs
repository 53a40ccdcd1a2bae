//! The incompressible Navier–Stokes solver (the ExaDG-equivalent core):
//! high-order DG discretization (Sec. 2.3), dual-splitting time integration
//! (Sec. 2.4), and the mechanical-ventilation application layer (Sec. 5.3).

pub mod bc;
pub mod checkpoint;
pub mod field;
pub mod operators;
pub mod recorder;
pub mod scalar;
pub mod solver;
pub mod timeint;
pub mod ventilation;

pub use bc::{BcKind, FlowBcs};
pub use checkpoint::Checkpoint;
pub use field::{interpolate_velocity, velocity_l2_error, DIM};
pub use operators::{
    boundary_flow_rate, boundary_flow_rates, convective_term, divergence, gradient,
    HelmholtzOperator, PenaltyOperator,
};
pub use recorder::{RunRecorder, RunSummary, Sample};
pub use scalar::{advect_term, ScalarBc, ScalarTransport};
pub use solver::{FlowParams, FlowSolver, FreshSetup, SolverSetup, StepInfo};
pub use timeint::{BdfCoefficients, CflController};
pub use ventilation::{Compartment, VentilationModel, VentilatorSettings, Waveform};
