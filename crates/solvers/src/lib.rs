//! Linear solvers and smoothers: conjugate gradients, Chebyshev/Jacobi
//! smoothing, CSR sparse matrices with Gauss–Seidel, and a plain-aggregation
//! algebraic multigrid (the BoomerAMG substitute for the coarse problem of
//! the hybrid multigrid scheme, Sec. 3.4).
//!
//! Everything is generic over the [`dgflow_simd::Real`] scalar so the same
//! code runs the double-precision outer Krylov loop and the single-precision
//! multigrid V-cycle.

pub mod amg;
pub mod cg;
pub mod chebyshev;
pub mod csr;
pub mod jacobi;
pub mod traits;

pub use amg::{AlgebraicMultigrid, AmgParams};
pub use cg::{cg_solve, cg_solve_on, CgResult};
pub use chebyshev::ChebyshevSmoother;
pub use csr::CsrMatrix;
pub use jacobi::JacobiPreconditioner;
pub use traits::{IdentityPreconditioner, LinearOperator, Preconditioner};
