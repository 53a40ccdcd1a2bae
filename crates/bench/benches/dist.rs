//! Scaling microbenchmark for the distributed mat-vec: the overlapped
//! (`start_exchange` / interior sweep / `finish_exchange`) SIPG Laplacian
//! application on the bifurcation case, at 1 rank (`SelfComm`, no
//! exchange) and 2 in-process ranks (`ThreadComm`, real ghost traffic).
//!
//! This is the envelope `cargo xtask bench-check --quick` gates against
//! `BENCH_dist_quick.json`: a regression here means the overlap schedule
//! or the exchange path got slower, independently of the serial kernels
//! covered by the `matvec` bench. Each timed iteration runs
//! [`APPLIES`] back-to-back applications so the per-iteration thread
//! spawn of `ThreadComm::run` is amortized, and the throughput is in
//! global DoF processed per second.
//!
//! Sizing: `DGFLOW_BENCH_DIST_REFINE` global refinements of the
//! single-bifurcation tree (default 0 ≈ 12k DoF at degree 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgflow_comm::{Communicator, SelfComm, ThreadComm};
use dgflow_fem::distributed::{apply_distributed, build_partitions, OverlapPlan, Partition};
use dgflow_fem::{LaplaceOperator, MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{Forest, TrilinearManifold};
use std::sync::Arc;

const LANES: usize = 4;
const DEGREE: usize = 2;
/// Operator applications per timed iteration.
const APPLIES: usize = 8;

struct Case {
    mf: Arc<MatrixFree<f64, LANES>>,
    op: LaplaceOperator<f64, LANES>,
    forest: Forest,
}

fn case() -> Case {
    let refine = std::env::var("DGFLOW_BENCH_DIST_REFINE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let mut forest = Forest::new(mesh.coarse);
    forest.refine_global(refine);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::<f64, LANES>::new(
        &forest,
        &manifold,
        MfParams::dg(DEGREE),
    ));
    Case {
        op: LaplaceOperator::new(mf.clone()),
        mf,
        forest,
    }
}

/// One rank's worth of applies: a deterministic source (ghosts included,
/// they are overwritten by the exchange) pushed through the operator
/// `APPLIES` times.
fn apply_many(comm: &dyn Communicator, case: &Case, part: &Partition, plan: &OverlapPlan<LANES>) {
    let dpc = case.mf.dofs_per_cell;
    let n_local = part.n_local();
    let mut src: Vec<f64> = (0..n_local).map(|i| (i % 17) as f64 * 0.1).collect();
    let mut dst = vec![0.0; n_local];
    for _ in 0..APPLIES {
        apply_distributed(comm, part, plan, &case.op, &mut src, &mut dst);
        // feed the result back so the compiler cannot hoist the loop
        src[..dpc].copy_from_slice(&dst[..dpc]);
    }
}

fn bench_dist(c: &mut Criterion) {
    let case = case();
    let n_dofs = case.mf.n_dofs();
    let mut group = c.benchmark_group("dist");
    group.throughput(Throughput::Elements((n_dofs * APPLIES) as u64));

    // 1 rank: the overlap schedule degenerates to a pure interior sweep.
    let parts1: Vec<Partition> = build_partitions(&case.forest, &case.mf, 1);
    let plan1 = OverlapPlan::build(&parts1[0], &case.mf);
    group.bench_with_input(BenchmarkId::new("overlap_matvec", 1), &n_dofs, |b, _| {
        b.iter(|| apply_many(&SelfComm, &case, &parts1[0], &plan1));
    });

    // 2 ranks: real ghost exchange between in-process ranks, partitions
    // and plans precomputed so the timed loop holds only spawn + applies.
    let parts2: Vec<Partition> = build_partitions(&case.forest, &case.mf, 2);
    let plans2: Vec<OverlapPlan<LANES>> = parts2
        .iter()
        .map(|p| OverlapPlan::build(p, &case.mf))
        .collect();
    group.bench_with_input(BenchmarkId::new("overlap_matvec", 2), &n_dofs, |b, _| {
        b.iter(|| {
            ThreadComm::run(2, |comm| {
                let r = comm.rank();
                apply_many(comm, &case, &parts2[r], &plans2[r]);
            })
        });
    });
    group.finish();
}

criterion_group!(benches, bench_dist);
criterion_main!(benches);
