//! Runs every figure's quick preset (`presets::all(Variant::Quick)`) end to end — spec
//! compilation, the sweep and report rendering — so `cargo bench` exercises the same path
//! as `fedopt run --fig N`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::presets::{self, Variant};
use experiments::SweepEngine;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    let engine = SweepEngine::new();
    for spec in presets::all(Variant::Quick) {
        group.bench_function(format!("{}_quick", spec.id), |b| {
            b.iter(|| {
                let run = spec.run_with_engine(&engine).unwrap();
                run.reports.iter().map(|r| r.rows.len()).sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
