//! The per-process sweep phase log is bounded: a long-lived caller that
//! never drains it (the `served` daemon) keeps only the first
//! [`MAX_RETAINED_PHASES`] sweeps instead of one entry per request.
//!
//! This binary holds a single test, so no other sweep in the process
//! records or drains phases while it counts them.

use std::sync::Arc;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_project::sweep::{
    drain_phase_log, figure_points, sweep, SweepConfig, MAX_RETAINED_PHASES,
};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

#[test]
fn phase_log_keeps_the_first_phases_and_drops_the_rest() {
    let engine =
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new())).unwrap();
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    let points = figure_points(&engine, &designs, WorkloadColumn::Fft1024, &[0.5]).unwrap();
    let _ = drain_phase_log();

    for _ in 0..MAX_RETAINED_PHASES + 10 {
        sweep(&engine, points.clone(), &SweepConfig::sequential());
    }
    let phases = drain_phase_log();
    assert_eq!(phases.len(), MAX_RETAINED_PHASES);
    assert!(phases.iter().all(|s| s.points == points.len()));

    // Draining frees the cap for the next run.
    sweep(&engine, points, &SweepConfig::sequential());
    assert_eq!(drain_phase_log().len(), 1);
}
