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
pub use distributed::{
    apply_distributed, build_partitions, DistributedLaplace, OverlapPlan, Partition,
};
pub use geometry::{CellGeometry, FaceGeometry, Mapping};
pub use matrixfree::{MatrixFree, MfGeometry, MfParams};
pub use operators::{BoundaryCondition, LaplaceOperator, MassOperator};
