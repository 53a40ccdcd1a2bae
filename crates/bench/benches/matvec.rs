//! The mat-vec baseline matrix for ROADMAP item 1: Laplacian mat-vec
//! throughput for polynomial degrees k = 1..6, on both the DG space and
//! the continuous (CG) space, in double and single precision; plus the
//! V-cycle pieces around the level mat-vecs — the level transfers
//! (`mg_transfer`) and the Chebyshev smoother (`chebyshev_smooth`) of the
//! f32 k = 3 bifurcation hierarchy.
//!
//! Record a trajectory point with
//! `CRITERION_JSON=$PWD/BENCH_matvec.json cargo bench -p dgflow-bench --bench matvec`
//! from the repo root; the committed `BENCH_matvec.json` is the first such
//! point. Sizing: `DGFLOW_BENCH_G` lung generations (default 4, small
//! enough that all 24 configurations fit one measurement budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgflow_bench::{bifurcation_forest, lung_forest};
use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_lung::LungMesh;
use dgflow_mesh::{Forest, TrilinearManifold};
use dgflow_multigrid::{HybridMultigrid, MgParams};
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

fn geometry() -> (Forest, LungMesh) {
    let g = std::env::var("DGFLOW_BENCH_G")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4usize);
    lung_forest(g, false, 0)
}

fn bench_op<T: dgflow_simd::Real>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    op: &impl LinearOperator<T>,
) {
    let n = op.len();
    let src: Vec<T> = (0..n).map(|i| T::from_f64((i % 17) as f64 * 0.1)).collect();
    let mut dst = vec![T::ZERO; n];
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(id, &n, |b, _| {
        b.iter(|| op.apply(&src, &mut dst));
    });
}

fn bench_matvec(c: &mut Criterion) {
    let (forest, _) = geometry();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut group = c.benchmark_group("matvec");
    for k in 1..=6usize {
        let dg64 = LaplaceOperator::new(Arc::new(MatrixFree::<f64, 8>::new(
            &forest,
            &manifold,
            MfParams::dg(k),
        )));
        bench_op(&mut group, BenchmarkId::new("dg_dp", k), &dg64);
        let dg32 = LaplaceOperator::new(Arc::new(MatrixFree::<f32, 16>::new(
            &forest,
            &manifold,
            MfParams::dg(k),
        )));
        bench_op(&mut group, BenchmarkId::new("dg_sp", k), &dg32);
        let cg64 = CgLaplaceOperator::new(Arc::new(CgSpace::<f64, 8>::new(&forest, &manifold, k)));
        bench_op(&mut group, BenchmarkId::new("cg_dp", k), &cg64);
        let cg32 = CgLaplaceOperator::new(Arc::new(CgSpace::<f32, 16>::new(&forest, &manifold, k)));
        bench_op(&mut group, BenchmarkId::new("cg_sp", k), &cg32);
    }
    group.finish();
}

/// The hierarchy of the `poisson_solve` benchmark (bifurcation at one
/// global refinement, k = 3, f32 V-cycle): per transfer level one
/// restriction plus one prolongation, and on the two finest levels one
/// post-smoothing application (non-zero initial guess). Throughput counts
/// fine-level DoFs; the geometry does not follow `DGFLOW_BENCH_G`.
fn bench_mg(c: &mut Criterion) {
    let (forest, _) = bifurcation_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mg = HybridMultigrid::<f32, 8>::build(
        &forest,
        &manifold,
        3,
        vec![BoundaryCondition::Dirichlet],
        MgParams::default(),
    );
    let pattern = |n: usize| -> Vec<f32> { (0..n).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect() };
    let mut group = c.benchmark_group("mg_transfer");
    for (li, level) in mg.levels.iter().enumerate() {
        let Some(t) = &level.transfer else {
            continue;
        };
        let fine = pattern(t.n_fine());
        let mut coarse = vec![0.0f32; t.n_coarse()];
        let mut out = vec![0.0f32; t.n_fine()];
        group.throughput(Throughput::Elements(t.n_fine() as u64));
        group.bench_function(format!("L{li}"), |b| {
            b.iter(|| {
                t.restrict(&fine, &mut coarse);
                t.prolongate_add(&coarse, &mut out);
            });
        });
    }
    group.finish();
    // the smoothers of the DG and first CG level, the two levels long
    // enough for the pool
    let mut group = c.benchmark_group("chebyshev_smooth");
    for (li, level) in mg.levels.iter().enumerate().take(2) {
        let n = level.op.len();
        let b_vec = pattern(n);
        // every iteration smooths the same guess, so the work (and the
        // magnitudes the arithmetic sees) does not drift with the count
        let x0: Vec<f32> = b_vec.iter().map(|v| 0.5 * v).collect();
        let mut x = x0.clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("L{li}"), |b| {
            b.iter(|| {
                x.copy_from_slice(&x0);
                level.smoother.smooth(&level.op, &b_vec, &mut x, false);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matvec, bench_mg);
criterion_main!(benches);
