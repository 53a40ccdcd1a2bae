//! Distributed benchmark drivers: the bifurcation Poisson case at real
//! rank counts, and the ping-pong microbenchmark that recalibrates the
//! perfmodel's network parameters.
//!
//! Everything here is generic over [`Communicator`], so the same solve
//! runs on [`dgflow_comm::ThreadComm`] ranks (in-process, used by the
//! rank-invariance tests), on [`dgflow_comm::ProcessComm`] ranks
//! (genuine OS processes over Unix sockets, used by `cargo xtask
//! dist-smoke` and `cargo xtask scaling` through the
//! `examples/dist_poisson.rs` SPMD worker), and on
//! [`dgflow_comm::SelfComm`] for the serial baseline.
//!
//! The solve is the serial stack's own: `dgflow_solvers::cg_solve_on`
//! with a Jacobi preconditioner, over the operator adapter
//! [`DistributedLaplace`].
//!
//! Determinism contract: every CG reduction sums the ranks' partials in
//! *rank order* on every backend (`ThreadComm`'s slot sweep and
//! `ProcessComm`'s star allreduce accumulate identically), so at a fixed
//! rank count the residual history is bitwise identical between the two
//! backends; across rank counts only the partial-sum association changes
//! and the histories agree to roundoff (asserted at tight relative
//! tolerance in `tests/dist_invariance.rs`).

use dgflow_comm::{dist_norm, Communicator};
use dgflow_fem::distributed::{build_partitions, DistributedLaplace, OverlapPlan};
use dgflow_fem::operators::integrate_rhs;
use dgflow_fem::operators::laplace::LaplaceOperator;
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{Forest, TrilinearManifold};
use dgflow_solvers::{cg_solve_on, JacobiPreconditioner};
use std::sync::Arc;
use std::time::Instant;

/// SIMD lane width of the distributed benchmark kernels.
pub const LANES: usize = 4;

/// The bifurcation Poisson problem, set up redundantly and
/// deterministically on every rank (a static repartitioning step): mesh,
/// matrix-free operator, right-hand side, Jacobi diagonal, and the
/// partitions of every rank count that will run on it.
pub struct PoissonCase {
    pub forest: Forest,
    pub mf: Arc<MatrixFree<f64, LANES>>,
    /// The SIPG Laplacian (all-Dirichlet) whose kernels every rank runs.
    pub op: LaplaceOperator<f64, LANES>,
    /// Global RHS (owned rows are scattered per rank).
    pub rhs: Vec<f64>,
    /// Global Jacobi diagonal.
    pub diag: Vec<f64>,
}

impl PoissonCase {
    /// Build the single-bifurcation benchmark geometry of Figures 8/9 at
    /// `refine` global refinements with degree-`degree` DG elements.
    pub fn build(refine: usize, degree: usize) -> Self {
        let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
        let mut forest = Forest::new(mesh.coarse);
        forest.refine_global(refine);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = Arc::new(MatrixFree::<f64, LANES>::new(
            &forest,
            &manifold,
            MfParams::dg(degree),
        ));
        let op = LaplaceOperator::new(mf.clone());
        // a smooth manufactured load over the bifurcation's bounding box
        let rhs = integrate_rhs(&mf, &|x| (3.0 * x[0]).sin() + x[1] * x[2]);
        let diag = op.compute_diagonal();
        Self {
            forest,
            mf,
            op,
            rhs,
            diag,
        }
    }

    /// Global DoF count.
    pub fn n_dofs(&self) -> usize {
        self.mf.n_dofs()
    }
}

/// Result of one distributed Poisson solve on one rank.
#[derive(Clone, Debug)]
pub struct PoissonRun {
    /// Global residual ℓ₂ norm per CG iteration (entry 0 = initial).
    pub residuals: Vec<f64>,
    /// Iterations performed.
    pub iters: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Global DoFs.
    pub n_dofs: usize,
    /// ‖x‖₂ of the converged global solution (an order-independent
    /// checksum for cross-backend comparison).
    pub solution_norm: f64,
    /// Wall time of the solve loop on this rank (s).
    pub solve_s: f64,
    /// Wall time spent inside distributed operator applications (s).
    pub matvec_s: f64,
    /// Operator applications performed (= iterations + 1).
    pub n_matvecs: usize,
    /// This rank's owned DoF count.
    pub n_owned: usize,
    /// This rank's copy of the owned solution block (for gather checks).
    pub x_owned: Vec<f64>,
    /// Owned cell range of this rank.
    pub own_cells: std::ops::Range<usize>,
}

/// Jacobi-preconditioned distributed CG on the SIPG Laplacian of `case`,
/// using the overlapped (`start`/interior/`finish`) exchange schedule in
/// every operator application.
pub fn run_poisson(
    comm: &dyn Communicator,
    case: &PoissonCase,
    tol: f64,
    max_iters: usize,
) -> PoissonRun {
    let parts = build_partitions(&case.forest, &case.mf, comm.size());
    let part = &parts[comm.rank()];
    let plan = OverlapPlan::build(part, &case.mf);
    let a = DistributedLaplace::new(comm, part, &plan, &case.op);
    // the owned rows of the (redundantly computed) global vectors
    let dpc = case.mf.dofs_per_cell;
    let owned = part.own_cells.start * dpc..part.own_cells.end * dpc;
    let jacobi = JacobiPreconditioner::new(case.diag[owned.clone()].to_vec());

    let t0 = Instant::now();
    let mut x = vec![0.0; part.n_owned()];
    let res = cg_solve_on(comm, &a, &jacobi, &case.rhs[owned], &mut x, tol, max_iters);
    let solve_s = t0.elapsed().as_secs_f64();
    let (n_matvecs, matvec_s) = a.applies();
    PoissonRun {
        residuals: res.residuals,
        iters: res.iterations,
        converged: res.converged,
        n_dofs: case.n_dofs(),
        solution_norm: dist_norm(comm, &x, x.len()),
        solve_s,
        matvec_s,
        n_matvecs,
        n_owned: x.len(),
        x_owned: x,
        own_cells: part.own_cells.clone(),
    }
}

/// Ping-pong microbenchmark between ranks 0 and 1: for each message size,
/// `reps` round trips are timed and the *one-way* time (round trip / 2)
/// is averaged. Returns `(bytes, seconds)` samples on every rank (rank 0
/// measures; the result is broadcast so all ranks agree). Sizes are in
/// doubles. Requires `comm.size() >= 2`.
pub fn pingpong(comm: &dyn Communicator, sizes: &[usize], reps: usize) -> Vec<(f64, f64)> {
    assert!(comm.size() >= 2, "ping-pong needs at least two ranks");
    assert!(reps >= 1);
    let mut samples = Vec::with_capacity(sizes.len());
    for (si, &n) in sizes.iter().enumerate() {
        comm.barrier();
        let one_way = if comm.rank() == 0 {
            let payload = vec![1.0; n];
            // one warm-up flight so connection setup is off the clock
            comm.send_f64(1, warmup_tag(si), payload.clone());
            let _ = comm.recv_f64(1, warmup_tag(si));
            let t = Instant::now();
            for rep in 0..reps {
                comm.send_f64(1, pp_tag(si, rep), payload.clone());
                let back = comm.recv_f64(1, pp_tag(si, rep));
                assert_eq!(back.len(), n);
            }
            t.elapsed().as_secs_f64() / (2.0 * reps as f64)
        } else if comm.rank() == 1 {
            let back = comm.recv_f64(0, warmup_tag(si));
            comm.send_f64(0, warmup_tag(si), back);
            for rep in 0..reps {
                let msg = comm.recv_f64(0, pp_tag(si, rep));
                comm.send_f64(0, pp_tag(si, rep), msg);
            }
            0.0
        } else {
            0.0
        };
        // broadcast rank 0's measurement (max: every other rank holds 0)
        let agreed = comm.allreduce_max(one_way);
        samples.push(((n * 8) as f64, agreed));
    }
    samples
}

fn pp_tag(size_index: usize, rep: usize) -> u64 {
    0x9100_0000 | ((size_index as u64) << 16) | rep as u64
}

fn warmup_tag(size_index: usize) -> u64 {
    0x9200_0000 | size_index as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_comm::{SelfComm, ThreadComm};

    #[test]
    fn serial_poisson_converges() {
        let case = PoissonCase::build(0, 1);
        let run = run_poisson(&SelfComm, &case, 1e-8, 800);
        assert!(
            run.converged,
            "iters {} res {:?}",
            run.iters,
            run.residuals.last()
        );
        assert!(run.solution_norm.is_finite() && run.solution_norm > 0.0);
        assert_eq!(run.residuals.len(), run.iters + 1);
        assert_eq!(run.n_matvecs, run.iters + 1);
    }

    #[test]
    fn pingpong_times_are_positive_and_sorted_by_size() {
        let samples = ThreadComm::run(2, |comm| pingpong(comm, &[8, 4096], 3));
        for s in &samples {
            assert_eq!(s.len(), 2);
            assert!(s.iter().all(|&(_, t)| t > 0.0));
            assert_eq!(s[0].0, 64.0);
            assert_eq!(s[1].0, 32768.0);
        }
        // both ranks agreed on rank 0's measurement
        assert_eq!(samples[0], samples[1]);
    }
}
