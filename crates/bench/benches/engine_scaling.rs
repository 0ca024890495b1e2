//! Benchmarks the SweepEngine's thread scaling: the quick Figure-2 grid evaluated
//! sequentially and with 2/4 workers, and the same grid scaled to the paper's 100 scenario
//! draws per point (trimmed to 8 devices / 2 points so a sequential pass stays benchable).
//! On a multi-core host the 4-worker run demonstrates the >= 2x speedup the engine was
//! introduced for (the grid is embarrassingly parallel); output is bit-identical across
//! all of them (see the `engine_integration` tests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::presets::{self, Variant};
use experiments::SweepEngine;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(8));
    let grid = presets::fig2(Variant::Quick).grid().unwrap();
    for &threads in &[1usize, 2, 4] {
        let engine = SweepEngine::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("fig2_quick", threads), &threads, |b, _| {
            b.iter(|| engine.run(&grid).unwrap().counters.cells_evaluated)
        });
    }
    group.finish();

    // The figure defaults' draw count: 100 seeds per point, where per-worker workspace
    // reuse and the per-(point, seed) scenario cache pay off across a long seed grid.
    let mut group = c.benchmark_group("engine_scaling_100draws");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(10));
    let mut spec = presets::fig2(Variant::Quick);
    spec.scenario.devices = Some(8);
    spec.axis.values = vec![5.0, 12.0];
    spec.override_seed_count(100);
    let grid = spec.grid().unwrap();
    for &threads in &[1usize, 4] {
        let engine = SweepEngine::with_threads(threads);
        group.bench_with_input(BenchmarkId::new("fig2_8dev", threads), &threads, |b, _| {
            b.iter(|| engine.run(&grid).unwrap().counters.cells_evaluated)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
