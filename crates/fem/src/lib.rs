//! Matrix-free finite element infrastructure (operators arrive in later
//! modules).

pub mod batch;
pub mod cg_space;
pub mod distributed;
pub mod evaluator;
pub mod geometry;
pub mod loops;
pub mod matrixfree;
pub mod operators;
pub mod util;
pub mod vtk;

pub use batch::{CellBatch, FaceBatch, FaceCategory};
pub use cg_space::{CgLaplaceOperator, CgSpace};
pub use distributed::{apply_distributed, build_partitions, OverlapPlan, Partition};
pub use geometry::{CellGeometry, FaceGeometry, Mapping};
pub use matrixfree::{MatrixFree, MfParams};
pub use operators::{BoundaryCondition, InverseMassOperator, LaplaceOperator, MassOperator};
