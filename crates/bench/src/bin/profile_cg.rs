//! Stage-by-stage timing of the CG Laplace apply at one configuration:
//! `profile_cg [k] [g]` prints gather / cell-kernel / scatter / full-apply
//! wall times so optimization effort lands where the time is.
//!
//! Each measured region runs under a `dgflow-trace` span, and the run
//! ends with the drained span totals — the same records a traced
//! campaign emits, so the profile and the production timeline can be
//! compared apples-to-apples (including the operator's own
//! `cg_laplace.apply` spans nested under the `profile.apply` region).

use dgflow_bench::{best_time, lung_forest};
use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::evaluator::CellScratch;
use dgflow_fem::util::SharedMut;
use dgflow_mesh::TrilinearManifold;
use dgflow_simd::Simd;
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// `best_time` under a named trace span, so the profile's regions land
/// in the same span stream as the operator's own instrumentation.
fn timed(name: &'static str, reps: usize, f: impl FnMut()) -> f64 {
    let _sp = dgflow_trace::span("profile", name);
    best_time(reps, f)
}

fn main() {
    dgflow_trace::set_level(dgflow_trace::Level::Fine);
    dgflow_trace::set_fine_sample(1);
    let args: Vec<String> = std::env::args().collect();
    let k: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let g: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let (forest, _) = lung_forest(g, false, 0);
    let manifold = TrilinearManifold::from_forest(&forest);
    let space = Arc::new(CgSpace::<f64, 8>::new(&forest, &manifold, k));
    let op = CgLaplaceOperator::new(space.clone());
    let n = op.len();
    let src: Vec<f64> = (0..n).map(|i| (i % 17) as f64 * 0.1).collect();
    let mut dst = vec![0.0; n];

    let reps = 20;
    let t_apply = timed("profile.apply", reps, || op.apply(&src, &mut dst));

    let mf = &space.mf;
    let mut s = CellScratch::<f64, 8>::new(mf);
    let t_gather = timed("profile.gather", reps, || {
        for plan in &space.cell_plans {
            space.gather_batch(plan, &src, &mut s.dofs);
        }
    });
    let t_scatter = timed("profile.scatter", reps, || {
        let out = SharedMut::new(&mut dst);
        for plan in &space.cell_plans {
            // SAFETY: sequential profiling loop — no concurrent writers.
            unsafe { space.scatter_add_batch(plan, &s.dofs, &out) };
        }
    });
    let t_cells = timed("profile.cells", reps, || {
        let out = SharedMut::new(&mut dst);
        for (bi, plan) in space.cell_plans.iter().enumerate() {
            space.gather_batch(plan, &src, &mut s.dofs);
            dgflow_fem::evaluator::apply_cell_laplace(mf, bi, &mut s);
            // SAFETY: sequential profiling loop — no concurrent writers.
            unsafe { space.scatter_add_batch(plan, &s.dofs, &out) };
        }
    });
    let n_bdry = mf
        .face_batches
        .iter()
        .filter(|b| b.category.is_boundary)
        .count();
    let bdry_filled: usize = mf
        .face_batches
        .iter()
        .filter(|b| b.category.is_boundary)
        .map(|b| b.n_filled)
        .sum();
    let mut sf = dgflow_fem::evaluator::FaceScratch::<f64, 8>::new(mf);
    let t_bdry_gs = timed("profile.bdry_gather_scatter", reps, || {
        let out = SharedMut::new(&mut dst);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            if !b.category.is_boundary {
                continue;
            }
            let plan = space.face_plans[bi].as_ref().unwrap();
            space.gather_batch(plan, &src, &mut sf.dofs);
            // SAFETY: sequential profiling loop — no concurrent writers.
            unsafe { space.scatter_add_batch(plan, &sf.dofs, &out) };
        }
    });
    let t_bdry_eval = timed("profile.bdry_eval", reps, || {
        for b in &mf.face_batches {
            if !b.category.is_boundary {
                continue;
            }
            let desc = dgflow_fem::evaluator::FaceSideDesc::minus(b);
            dgflow_fem::evaluator::evaluate_face(mf, desc, true, &mut sf);
            dgflow_fem::evaluator::integrate_face(mf, desc, true, &mut sf);
        }
    });
    let nq3 = mf.n_q().pow(3);
    let vals = vec![Simd::<f64, 8>::zero(); nq3];
    let t_evalgrad = timed("profile.colloc_grads", reps, || {
        for _ in 0..mf.cell_batches.len() {
            for d in 0..3 {
                dgflow_tensor::sumfac::apply_1d(
                    &mf.shape.colloc_gradients,
                    &vals,
                    &mut s.grad[d],
                    [mf.n_q(), mf.n_q(), mf.n_q()],
                    d,
                    false,
                );
            }
        }
    });
    println!(
        "cg k={k} g={g}: n_dofs={n} cells={} batches={}",
        mf.n_cells,
        mf.cell_batches.len()
    );
    println!(
        "  apply          {:.3} ms  ({:.3e} DoF/s)",
        t_apply * 1e3,
        n as f64 / t_apply
    );
    println!("  gather (cells) {:.3} ms", t_gather * 1e3);
    println!("  scatter (cells){:.3} ms", t_scatter * 1e3);
    println!(
        "  3 colloc grads {:.3} ms (per-batch sweep cost floor)",
        t_evalgrad * 1e3
    );
    println!(
        "  cells total    {:.3} ms (gather+kernel+scatter)",
        t_cells * 1e3
    );
    println!(
        "  boundary+rest  {:.3} ms ({} boundary face batches, {}/{} lanes filled)",
        (t_apply - t_cells) * 1e3,
        n_bdry,
        bdry_filled,
        8 * n_bdry
    );
    println!("  bdry gather+scatter {:.3} ms", t_bdry_gs * 1e3);
    println!("  bdry eval+integrate {:.3} ms", t_bdry_eval * 1e3);

    // Drained span totals: what a traced campaign would record for the
    // same work. Each `profile.*` region is one span; the operator's own
    // `cg_laplace.apply` spans nest under `profile.apply`.
    let mut totals: std::collections::BTreeMap<(&str, &str), (usize, u64)> =
        std::collections::BTreeMap::new();
    for sp in dgflow_trace::take_spans() {
        let e = totals.entry((sp.cat, sp.name)).or_insert((0, 0));
        e.0 += 1;
        e.1 += sp.duration_ns();
    }
    println!("span totals ({} dropped):", dgflow_trace::dropped_spans());
    for ((cat, name), (count, ns)) in totals {
        println!(
            "  {cat:<8} {name:<28} x{count:<5} {:>10.3} ms",
            ns as f64 * 1e-6
        );
    }
}
