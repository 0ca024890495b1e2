//! Cold vs warm benchmarks of the warm-start continuation (PR 4).
//!
//! Two levels:
//!
//! * `warm_start/alg2_{cold,warm}_{10,25}dev` — `Algorithm 2` micro: repeated
//!   `solve_summary_with` on one scenario with a persistent workspace. The warm variant
//!   resets the carried state before every solve, so it measures the *within-solve*
//!   continuation only (multiplier carry, fast path, μ/ω bracket reuse) — the same
//!   apples-to-apples comparison `BENCH_PR4.json` records.
//! * `warm_start/fig2_quick_{cold,warm}` — the end-to-end fig2 quick grid through the
//!   sweep engine, where the continuation additionally carries across the arms of each
//!   cell-group.
//! * `warm_start/fig2_100draw_{cold,warm}` — the paper-scale draw count (100 seeds/point,
//!   trimmed to 8 devices / 2 points like `engine_scaling_100draws`), sequential engine:
//!   the end-to-end wall-clock evidence `BENCH_PR4.json` records for the 100-draw grid.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::presets::{self, Variant};
use experiments::SweepEngine;
use fedopt_core::{JointOptimizer, SolverConfig, SolverWorkspace, Weights};
use flsys::ScenarioBuilder;
use std::time::Duration;

fn bench_alg2_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_start");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    for &n in &[10usize, 25] {
        let scenario = ScenarioBuilder::paper_default().with_devices(n).build(9).unwrap();
        for (label, warm) in [("cold", false), ("warm", true)] {
            let optimizer = JointOptimizer::new(SolverConfig::fast().with_warm_start(warm));
            group.bench_function(format!("alg2_{label}_{n}dev"), |b| {
                let mut ws = SolverWorkspace::with_capacity(n);
                b.iter(|| {
                    ws.reset_warm_start();
                    optimizer
                        .solve_summary_with(&scenario, Weights::balanced(), &mut ws)
                        .unwrap()
                        .objective
                })
            });
        }
    }
    group.finish();
}

fn bench_fig2_quick(c: &mut Criterion) {
    let mut group = c.benchmark_group("warm_start");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(10));
    let grid = presets::fig2(Variant::Quick).grid().unwrap();
    for (label, warm) in [("cold", false), ("warm", true)] {
        let engine = SweepEngine::single_thread().with_warm_start(warm);
        group.bench_function(format!("fig2_quick_{label}"), |b| {
            b.iter(|| engine.run(&grid).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("warm_start");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(2))
        .measurement_time(Duration::from_secs(20));
    let mut spec = presets::fig2(Variant::Quick);
    spec.scenario.devices = Some(8);
    spec.axis.values = vec![5.0, 12.0];
    spec.override_seed_count(100);
    let grid100 = spec.grid().unwrap();
    for (label, warm) in [("cold", false), ("warm", true)] {
        let engine = SweepEngine::single_thread().with_warm_start(warm);
        group.bench_function(format!("fig2_100draw_{label}"), |b| {
            b.iter(|| engine.run(&grid100).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alg2_micro, bench_fig2_quick);
criterion_main!(benches);
