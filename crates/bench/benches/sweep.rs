//! Sweep-engine benchmarks: sequential vs parallel vs memoized.
//!
//! One Figure 6-sized batch (4 parallel fractions × 6 designs × 5
//! nodes) evaluated three ways:
//!
//! * `sequential` — one thread, cache disabled: the pre-sweep-engine
//!   code path's cost;
//! * `parallel` — one worker per available core, cache disabled: the
//!   fan-out an explicit thread count gets;
//! * `cached` — the default (single-thread) resolution against a
//!   pre-warmed cache: the steady-state cost when figures and scenarios
//!   share design points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;
use ucore_calibrate::WorkloadColumn;
use ucore_core::EvalCache;
use ucore_project::sweep::{figure_points, sweep, SweepConfig, SweepPoint};
use ucore_project::{DesignId, ProjectionEngine, Scenario};

fn figure6_batch(engine: &ProjectionEngine) -> Vec<SweepPoint> {
    let designs = DesignId::for_column(engine.table5(), WorkloadColumn::Fft1024);
    figure_points(engine, &designs, WorkloadColumn::Fft1024, &[0.5, 0.9, 0.99, 0.999])
        .expect("baseline figure batch builds")
}

fn bench_sweep(c: &mut Criterion) {
    // A private cache isolates the bench from the process-global one.
    let engine =
        ProjectionEngine::with_cache(Scenario::baseline(), Arc::new(EvalCache::new()))
            .expect("baseline engine builds");
    let points = figure6_batch(&engine);
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(points.len() as u64));

    group.bench_with_input(
        BenchmarkId::from_parameter("sequential"),
        &points,
        |b, points| {
            let config = SweepConfig { threads: Some(1), use_cache: false };
            b.iter(|| sweep(&engine, points.clone(), &config))
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("parallel"),
        &points,
        |b, points| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let config = SweepConfig { threads: Some(cores), use_cache: false };
            b.iter(|| sweep(&engine, points.clone(), &config))
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("cached"),
        &points,
        |b, points| {
            let config = SweepConfig { threads: None, use_cache: true };
            // Warm the memo table so the measured iterations hit it.
            sweep(&engine, points.clone(), &config);
            b.iter(|| sweep(&engine, points.clone(), &config))
        },
    );

    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
