//! Reconciles the overlap schedule's trace spans: one distributed
//! operator application must emit, on each rank thread, the sequence
//! `comm.send` (halo post) → `comm.overlap_interior` (interior sweep
//! while the halo is in flight) → `comm.recv_wait` (drain), and the
//! instrumented pieces must account for most of the wall time between
//! posting the halo and finishing the drain — i.e. the overlap window is
//! real, not an artifact of uninstrumented gaps.
//!
//! Lives in its own integration-test file because `dgflow_trace`'s level
//! and span rings are process-global: sharing a test binary with other
//! tests would interleave their spans into ours.

use dgflow::comm::{Communicator, ThreadComm};
use dgflow::distbench::PoissonCase;
use dgflow::fem::{apply_distributed, build_partitions, OverlapPlan};
use dgflow_trace::{set_level, take_spans, Level, SpanRecord};
use std::collections::BTreeMap;

#[test]
fn overlap_spans_reconcile_with_exchange_wall_time() {
    let case = PoissonCase::build(0, 1);
    set_level(Level::Coarse);
    let _ = take_spans(); // discard anything recorded during case setup

    ThreadComm::run(2, |comm| {
        let parts = build_partitions(&case.forest, &case.mf, comm.size());
        let part = &parts[comm.rank()];
        let plan = OverlapPlan::build(part, &case.mf);
        let dpc = case.mf.dofs_per_cell;
        let mut src = vec![0.0; part.n_local()];
        for c in part.own_cells.clone() {
            let slot = part.slot(c).expect("own cell has a slot");
            src[slot * dpc..(slot + 1) * dpc].copy_from_slice(&case.rhs[c * dpc..(c + 1) * dpc]);
        }
        let mut dst = Vec::new();
        apply_distributed(comm, part, &plan, &case.op, &mut src, &mut dst);
    });

    let spans = take_spans();
    let mut by_tid: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for s in &spans {
        by_tid.entry(s.tid).or_default().push(s);
    }

    let mut ranks_checked = 0usize;
    for (tid, mut spans) in by_tid {
        spans.sort_by_key(|s| s.start_ns);
        let interior = match spans.iter().find(|s| s.name == "comm.overlap_interior") {
            Some(s) => *s,
            None => continue, // not a rank thread (e.g. parallel_for worker)
        };
        ranks_checked += 1;

        // the halo must be posted before the interior sweep begins …
        let first_send = spans
            .iter()
            .find(|s| s.name == "comm.send")
            .unwrap_or_else(|| panic!("tid {tid}: no comm.send span"));
        assert!(
            first_send.start_ns <= interior.start_ns,
            "tid {tid}: interior sweep started before the halo was posted"
        );
        // … and drained only after it ends (that wait is the overlap win)
        let drain = spans
            .iter()
            .find(|s| s.name == "comm.recv_wait" && s.start_ns >= interior.end_ns)
            .unwrap_or_else(|| panic!("tid {tid}: no comm.recv_wait after the interior sweep"));

        // reconciliation: send + interior + wait cover the exchange wall
        let wall = drain.end_ns.saturating_sub(first_send.start_ns);
        let covered: u64 = spans
            .iter()
            .filter(|s| {
                s.start_ns >= first_send.start_ns
                    && s.end_ns <= drain.end_ns
                    && matches!(
                        s.name,
                        "comm.send" | "comm.overlap_interior" | "comm.recv_wait"
                    )
            })
            .map(|s| s.duration_ns())
            .sum();
        assert!(wall > 0, "tid {tid}: zero-width exchange window");
        assert!(
            covered <= wall + wall / 20,
            "tid {tid}: instrumented spans ({covered} ns) exceed the wall window ({wall} ns)"
        );
        assert!(
            covered * 2 >= wall,
            "tid {tid}: spans cover only {covered} of {wall} ns — the exchange window is \
             dominated by uninstrumented time, so the overlap accounting is broken"
        );
    }
    assert_eq!(
        ranks_checked, 2,
        "expected overlap spans on both rank threads"
    );
}
