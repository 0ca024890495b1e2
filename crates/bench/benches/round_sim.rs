//! Round-simulation throughput benchmarks (PR 10).
//!
//! Two levels:
//!
//! * `round_sim/<policy>` — the `rounds-quick` preset narrowed to one policy arm, on the
//!   sequential engine: the per-policy cost of a (round × seed) cell. The `re_solve`
//!   policy runs on both the warm and cold solver paths (warm is the production default
//!   — the PR 4 continuation carries across a seed's rounds); the selection policies
//!   (`static`, `fedaecs`, `elastic`) never touch Algorithm 2 after round 0, so each
//!   gets one row.
//! * `round_sim/full_quick` — the whole four-policy preset end to end, the `fedopt sim
//!   --preset rounds-quick` workload.
//!
//! After the criterion groups run, the per-policy cells/sec rows (a cell = one policy ×
//! round × seed evaluation) are written to `target/bench-capture/round_sim.json` (CI
//! uploads it as an artifact so the perf trajectory is recorded per commit).

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::presets;
use experiments::rounds::simulate_with_engine;
use experiments::spec::ExperimentSpec;
use experiments::SweepEngine;
use std::time::{Duration, Instant};

/// The `rounds-quick` preset narrowed to a single policy arm.
fn single_policy_spec(kind: &str) -> ExperimentSpec {
    let mut spec = presets::sim("rounds-quick").expect("rounds-quick preset exists");
    let rounds = spec.rounds.as_mut().expect("sim preset carries a rounds section");
    rounds.policies.retain(|p| p.policy.name() == kind);
    assert_eq!(rounds.policies.len(), 1, "rounds-quick must have exactly one {kind} arm");
    spec
}

/// Rounds × seeds of a spec: the cell count of one policy arm.
fn cells(spec: &ExperimentSpec) -> usize {
    spec.rounds.as_ref().expect("rounds section").rounds as usize * spec.seeds.len() as usize
}

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_sim");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(5));
    for (label, kind, warm) in [
        ("resolve_warm", "re_solve", true),
        ("resolve_cold", "re_solve", false),
        ("static", "static", false),
        ("fedaecs", "fedaecs", false),
        ("elastic", "elastic", false),
    ] {
        let spec = single_policy_spec(kind);
        let engine = SweepEngine::single_thread().with_warm_start(warm);
        group.bench_function(label, |b| b.iter(|| simulate_with_engine(&spec, &engine).unwrap()));
    }
    let full = presets::sim("rounds-quick").unwrap();
    let engine = SweepEngine::single_thread();
    group
        .bench_function("full_quick", |b| b.iter(|| simulate_with_engine(&full, &engine).unwrap()));
    group.finish();
}

fn capture(_c: &mut Criterion) {
    let row = |kind: &str, warm: bool| {
        let spec = single_policy_spec(kind);
        let engine = SweepEngine::single_thread().with_warm_start(warm);
        simulate_with_engine(&spec, &engine).unwrap(); // warm-up
        let secs = best_of(3, || simulate_with_engine(&spec, &engine).unwrap());
        cells(&spec) as f64 / secs
    };
    let resolve_warm = row("re_solve", true);
    let resolve_cold = row("re_solve", false);
    let static_ = row("static", false);
    let fedaecs = row("fedaecs", false);
    let elastic = row("elastic", false);
    let spec = presets::sim("rounds-quick").unwrap();
    let json = format!(
        "{{\n  \"bench\": \"round_sim\",\n  \"preset\": \"rounds-quick\",\n  \
         \"devices\": {},\n  \"rounds\": {},\n  \"seeds\": {},\n  \
         \"cells_per_policy\": {},\n  \"cells_per_sec\": {{\n    \
         \"resolve_warm\": {resolve_warm:.1},\n    \
         \"resolve_cold\": {resolve_cold:.1},\n    \"static\": {static_:.1},\n    \
         \"fedaecs\": {fedaecs:.1},\n    \"elastic\": {elastic:.1}\n  }}\n}}\n",
        spec.axis.values[0] as u64,
        spec.rounds.as_ref().unwrap().rounds,
        spec.seeds.len(),
        cells(&spec),
    );
    print!("{json}");
    let out = fedopt_bench::write_capture("round_sim.json", &json);
    eprintln!("wrote {}", out.display());

    // The non-wall-clock shape checks: re-solving every round costs solver work the
    // selection policies never spend, so their cells must be strictly cheaper.
    assert!(static_ > resolve_cold, "static replay must out-run per-round re-solving");
    assert!(fedaecs > resolve_cold, "FedAECS selection must out-run per-round re-solving");
}

criterion_group!(benches, bench_policies, capture);
criterion_main!(benches);
