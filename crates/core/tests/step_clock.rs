//! `FlowSolver::step` keeps one clock per stage: every `StepInfo` time is
//! the duration of the span over the same interval.
//!
//! Tracing state is process-global, so both tests serialize on [`LOCK`];
//! no other test in this binary records spans.

use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::{FlowParams, FlowSolver, StepInfo};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_trace as trace;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

const STAGES: [&str; 5] = [
    "step.convective",
    "step.pressure",
    "step.projection",
    "step.viscous",
    "step.penalty",
];

fn stage_seconds(info: &StepInfo) -> [f64; 5] {
    [
        info.convective_seconds,
        info.pressure_seconds,
        info.projection_seconds,
        info.viscous_seconds,
        info.penalty_seconds,
    ]
}

/// Three steps of pressure-driven flow in a coarse duct.
fn run_steps() -> Vec<StepInfo> {
    let mut coarse = CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]);
    coarse.boundary_ids.insert((0, 0), 1);
    coarse.boundary_ids.insert((1, 1), 2);
    let forest = Forest::new(coarse);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.viscosity = 0.5;
    params.dt_max = 0.01;
    params.use_multigrid = false;
    let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
    bcs.set_pressure(1, 0.1);
    bcs.set_pressure(2, 0.0);
    let mut solver = FlowSolver::<4>::new(&forest, &manifold, params, bcs);
    (0..3).map(|_| solver.step()).collect()
}

#[test]
fn step_times_are_the_durations_of_their_spans() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    trace::set_level(trace::Level::Coarse);
    trace::take_spans();
    let infos = run_steps();
    trace::set_level(trace::Level::Off);
    let spans: Vec<_> = trace::take_spans()
        .into_iter()
        .filter(|s| s.cat == "core" && (s.name == "step" || s.name.starts_with("step.")))
        .collect();
    let mut steps: Vec<_> = spans.iter().filter(|s| s.name == "step").collect();
    steps.sort_by_key(|s| s.start_ns);
    assert_eq!(steps.len(), infos.len(), "one `step` span per step");
    let seconds = |s: &trace::SpanRecord| s.duration_ns() as f64 * 1e-9;
    for (info, step) in infos.iter().zip(steps) {
        assert!(
            (info.wall_seconds - seconds(step)).abs() <= 1e-9,
            "wall_seconds {} vs `step` span {}",
            info.wall_seconds,
            seconds(step)
        );
        for (name, field) in STAGES.iter().zip(stage_seconds(info)) {
            let stage = spans
                .iter()
                .find(|s| s.name == *name && s.start_ns >= step.start_ns && s.end_ns <= step.end_ns)
                .unwrap_or_else(|| panic!("no {name} span inside its step"));
            assert!(
                (field - seconds(stage)).abs() <= 1e-9,
                "{name}: StepInfo {field} vs span {}",
                seconds(stage)
            );
        }
    }
}

#[test]
fn step_times_are_measured_with_tracing_off() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    trace::set_level(trace::Level::Off);
    for info in run_steps() {
        let stages = stage_seconds(&info);
        assert!(stages.iter().all(|&t| t > 0.0), "stage times {stages:?}");
        let sum: f64 = stages.iter().sum();
        assert!(
            sum <= info.wall_seconds,
            "stages sum to {sum} > wall {}",
            info.wall_seconds
        );
    }
}
