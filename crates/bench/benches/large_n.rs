//! Fleet-scale single-scenario solves (PR 6): Algorithm 2 at 10³–10⁵ devices through the
//! struct-of-arrays hot path.
//!
//! The interesting regime here is one *large* scenario, not many small ones: per-device
//! work must stay `O(n)`–`O(n log n)` per outer iteration and the iteration counts of the
//! scalar searches (the golden section over `T`, the Brent `μ`-root) must stay flat in
//! `n`. The configuration matches `presets::large_n`: `SolverConfig::fast()` tolerances
//! with the default exact-price Subproblem 2, `O(n)` per price evaluation.
//!
//! `large_n/solve_1000` … `solve_100000` time the default path (warm start reset per
//! iteration so every solve is cold); `large_n/solve_jong_10000` and
//! `large_n/solve_bisect_mu_10000` time the paper's Jong SP2 path at 10⁴ devices with the
//! Brent and the legacy pure-bisection `μ`-root, for the superlinear-step comparison that
//! `BENCH_PR6.json` records.
//!
//! Run with `cargo bench -p fedopt-bench --bench large_n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedopt_core::{JointOptimizer, SolverConfig, SolverWorkspace};
use flsys::{ScenarioBuilder, Weights};
use std::time::Duration;

/// The fleet-scale configuration (`presets::large_n` uses the same one).
fn fleet_config() -> SolverConfig {
    SolverConfig::fast()
}

fn bench_large_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_n");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let optimizer = JointOptimizer::new(fleet_config());
    for &n in &[1_000usize, 10_000, 100_000] {
        let scenario = ScenarioBuilder::paper_default().with_devices(n).build(11).unwrap();
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
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
    // The paper's Jong path at 10⁴ devices, with the Brent and the legacy pure-bisection
    // μ-root: every extra g'(μ) evaluation is an O(n) pass, so the superlinear step's eval
    // savings translate directly to wall clock.
    let paper = SolverConfig { polish_with_reference: false, ..fleet_config() };
    let scenario = ScenarioBuilder::paper_default().with_devices(10_000).build(11).unwrap();
    for (name, config) in
        [("solve_jong", paper), ("solve_bisect_mu", paper.with_superlinear_mu(false))]
    {
        let optimizer = JointOptimizer::new(config);
        group.bench_with_input(BenchmarkId::new(name, 10_000), &10_000, |b, _| {
            let mut ws = SolverWorkspace::with_capacity(10_000);
            b.iter(|| {
                ws.reset_warm_start();
                optimizer
                    .solve_summary_with(&scenario, Weights::balanced(), &mut ws)
                    .unwrap()
                    .objective
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_large_n);
criterion_main!(benches);
