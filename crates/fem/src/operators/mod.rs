//! Discretized PDE operators, all evaluated matrix-free per Eq. (7).

pub mod functions;
pub mod laplace;
pub mod mass;
pub(crate) mod sipg;

pub use functions::{
    for_each_point, integrate_rhs, interpolate, interpolate_nodal, l2_error, l2_norm,
};
pub use laplace::{BoundaryCondition, LaplaceOperator};
pub use mass::MassOperator;
