//! The metric tables and the one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` declares (a test
//! keeps the two in step). A plain run reports every end-to-end metric;
//! a traced run reports every per-layer metric, with 0 for the layers a
//! workload does not exercise.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. `op` is the workload's closed-loop
/// unit of work: a ventilated time step, a Poisson solve, a distributed
/// solve, or a whole campaign.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. `L<i>` is multigrid level `i`,
/// finest first (level 0 is the DG level).
pub const PER_LAYER: &[(&str, &str)] = &[
    // set-up
    ("lung.mesh_s", "s"),
    ("fem.mapping_s", "s"),
    ("multigrid.build_s", "s"),
    ("solvers.amg_setup_s", "s"),
    // tensor
    ("tensor.sumfac_gflops", "GFlop/s"),
    // fem
    ("fem.dg_laplace.dofs_per_s", "DoF/s"),
    ("fem.dg_laplace_sp.dofs_per_s", "DoF/s"),
    ("fem.cg_laplace.L1.dofs_per_s", "DoF/s"),
    ("fem.cg_laplace.L2.dofs_per_s", "DoF/s"),
    ("fem.cg_laplace.L3.dofs_per_s", "DoF/s"),
    ("fem.cg_dg_ratio", "ratio"),
    ("fem.cg_laplace.outside_pool_share", "ratio"),
    ("fem.laplace_diagonal_s", "s"),
    ("fem.apply_distributed_s", "s"),
    ("fem.flop_per_byte", "Flop/B"),
    ("fem.gflops", "GFlop/s"),
    // core
    ("core.convective_s", "s"),
    ("core.divergence_s", "s"),
    ("core.gradient_s", "s"),
    ("core.helmholtz.apply_s", "s"),
    ("core.helmholtz.diagonal_s", "s"),
    ("core.penalty.new_s", "s"),
    ("core.penalty.apply_s", "s"),
    ("core.penalty.diagonal_s", "s"),
    ("core.stage.convective_s", "s"),
    ("core.stage.pressure_s", "s"),
    ("core.stage.projection_s", "s"),
    ("core.stage.viscous_s", "s"),
    ("core.stage.penalty_s", "s"),
    ("core.iters.pressure", "count"),
    ("core.iters.viscous", "count"),
    ("core.iters.penalty", "count"),
    // solvers and multigrid
    ("solvers.cg.iters", "count"),
    ("solvers.cg.vector_s", "s"),
    ("solvers.chebyshev.L0.smooth_s", "s"),
    ("solvers.chebyshev.L1.smooth_s", "s"),
    ("solvers.chebyshev.L2.smooth_s", "s"),
    ("solvers.chebyshev.L3.smooth_s", "s"),
    ("solvers.sp_dp_smoother_ratio", "ratio"),
    ("solvers.amg.apply_s", "s"),
    ("multigrid.vcycle_s", "s"),
    ("multigrid.L0.self_s", "s"),
    ("multigrid.L1.self_s", "s"),
    ("multigrid.L2.self_s", "s"),
    ("multigrid.L3.self_s", "s"),
    ("multigrid.restrict_s", "s"),
    ("multigrid.prolongate_s", "s"),
    ("multigrid.coarse_share", "ratio"),
    // comm: thread pool
    ("comm.pool.run_s", "s"),
    ("comm.pool.runs_per_step", "count"),
    ("comm.pool.runs_per_solve", "count"),
    ("comm.pool.cpu_util", "ratio"),
    // comm: distributed
    ("comm.exchange_s", "s"),
    ("comm.msgs_per_apply", "count"),
    ("comm.bytes_per_apply", "B"),
    ("comm.reductions_per_iter", "count"),
    ("comm.wait_share", "ratio"),
    ("comm.pingpong_latency_s", "s"),
    ("comm.scaling_eff", "ratio"),
    // runtime
    ("runtime.setup_cache.hit_ratio", "ratio"),
    ("runtime.checkpoint.write_s", "s"),
    ("runtime.checkpoint.bytes", "B"),
    ("runtime.telemetry.bytes_per_step", "B"),
    ("runtime.case_s", "s"),
    // working set, computed from perfmodel counts
    ("mem.apply_working_set_mib", "MiB"),
    ("mem.working_set_per_l2", "ratio"),
    ("mem.working_set_per_l3", "ratio"),
    // the measurement itself
    ("trace.overhead_share", "ratio"),
    ("trace.dropped_spans", "count"),
    ("ledger.unattributed_share", "ratio"),
];

/// L2 and L3 capacity of the reference host (Xeon, 2 cores): 4 MiB and
/// 300 MiB, the yardsticks the working-set ratios are given against.
pub const L2_MIB: f64 = 4.0;
pub const L3_MIB: f64 = 300.0;

/// Metric values of one run.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// A report over the end-to-end table (`traced = false`) or the
    /// per-layer table, with every per-layer metric preset to 0.
    pub fn new(traced: bool) -> Self {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let values = if traced {
            table.iter().map(|&(n, _)| (n, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Self {
            traced,
            table,
            values,
        }
    }

    /// Whether this report takes per-layer metrics.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Set a metric. Names of the other table are ignored, so a workload
    /// can offer both kinds and each report keeps its own; a name in
    /// neither table is a fault of the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(&(n, _)) = self.table.iter().find(|(n, _)| *n == name) {
            self.values.insert(n, value);
        } else {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
                "unknown metric `{name}`"
            );
        }
    }

    /// A metric's current value (0 if unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    /// Panics if an end-to-end metric was never set or a value is not
    /// finite: both are faults of the benchmark, not of the program.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .table
            .iter()
            .map(|&(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
                assert!(v.is_finite(), "metric `{name}` is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
