//! Integration tests of the parallel sweep engine: determinism across thread counts,
//! bit-exact agreement with the historical sequential averaging helpers, and the parallel
//! speedup the engine exists for.

use baselines::BenchmarkAllocator;
use experiments::engine::{Arm, CellContext, CellOutput, SweepGrid, SweepResult};
use experiments::presets::{self, Variant};
use experiments::spec::ArmKind;
use experiments::{ExperimentSpec, FigureReport, SweepEngine};
use fedopt_core::{CoreError, JointOptimizer, SolverConfig};
use flsys::{Scenario, ScenarioBuilder, Weights};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn fig2_quick() -> ExperimentSpec {
    presets::fig2(Variant::Quick)
}

/// Figure 7's quick preset at `devices` devices with a 30 s deadline no draw can meet, so
/// infeasible cells are part of the output.
fn fig7_with_infeasible_cells(devices: usize) -> ExperimentSpec {
    let mut spec = presets::fig7(Variant::Quick);
    spec.scenario.devices = Some(devices);
    spec.axis.values = vec![30.0, 110.0, 150.0];
    spec
}

fn reports(spec: &ExperimentSpec, engine: &SweepEngine) -> Vec<FigureReport> {
    spec.run_with_engine(engine).expect("spec must evaluate").reports
}

fn sweep(spec: &ExperimentSpec, engine: &SweepEngine) -> SweepResult {
    engine.run_spec(spec).expect("spec must evaluate")
}

/// The parallel engine must produce bit-identical reports to a forced single-thread run:
/// per-cell seeding depends only on cell coordinates and reduction order is fixed, so
/// thread count and scheduling must not leak into the output.
#[test]
fn parallel_reports_are_bit_identical_to_single_threaded() {
    let spec = fig2_quick();
    let sequential = reports(&spec, &SweepEngine::single_thread());
    for threads in [2, 4, 7] {
        let parallel = reports(&spec, &SweepEngine::with_threads(threads));
        assert_eq!(sequential, parallel, "reports diverged at {threads} threads");
    }

    // Also across a figure with infeasible cells (deadline misses), where the per-cell
    // sample counts must agree too.
    let spec7 = fig7_with_infeasible_cells(8);
    let seq = reports(&spec7, &SweepEngine::single_thread());
    let par = reports(&spec7, &SweepEngine::with_threads(4));
    assert_eq!(seq, par);
}

/// Sharing one scenario build across all arms of a (point, seed) cell-group must be
/// invisible in the output: the shared run is bit-identical to evaluating every arm in a
/// grid of its own (one build per cell) on the fig2 quick preset, and on Figure 5, whose
/// arms specialise the builder, where grouping has to keep distinct scenarios distinct.
#[test]
fn arm_shared_scenarios_are_bit_identical_to_per_arm_rebuilding() {
    // Pinned to the cold solver path: with warm start on, the arms of a shared cell-group
    // deliberately seed each other, so per-arm rebuilding (its own group per arm) is a
    // different — equally deterministic — warm trajectory, not a bit-identical one.
    let engine = SweepEngine::with_threads(2).with_warm_start(false);
    for spec in [fig2_quick(), presets::fig5(Variant::Quick)] {
        let shared = sweep(&spec, &engine);
        let (mut rebuilt_scenarios, mut rebuilt_cells) = (0, 0);
        for (arm_idx, arm) in spec.arms.iter().enumerate() {
            let mut alone = spec.clone();
            alone.arms = vec![arm.clone()];
            let rebuilt = sweep(&alone, &engine);
            rebuilt_scenarios += rebuilt.counters.scenarios_built;
            rebuilt_cells += rebuilt.counters.cells_evaluated;
            assert_eq!(rebuilt.arm_names[0], shared.arm_names[arm_idx]);
            for (shared_row, rebuilt_row) in shared.aggregates.iter().zip(&rebuilt.aggregates) {
                assert_eq!(shared_row[arm_idx], rebuilt_row[0], "{}: arm {arm_idx}", spec.id);
            }
        }
        // Sharing only ever saves builds (Figure 5's arms have distinct builders, so it
        // saves none there); every cell is still evaluated once.
        assert!(shared.counters.scenarios_built <= rebuilt_scenarios, "{}", spec.id);
        assert_eq!(shared.counters.cells_evaluated, rebuilt_cells, "{}", spec.id);
    }
}

/// Warm-started sweeps must be exactly as deterministic as cold ones: the warm state is
/// reset at every cell-group boundary and carried only inside a group (fixed arm order),
/// so thread count and scheduling cannot leak into the output — including the solver
/// iteration totals.
#[test]
fn warm_started_sweeps_are_bit_identical_across_thread_counts() {
    let spec = fig2_quick();
    let warm_seq = spec.run_with_engine(&SweepEngine::single_thread().with_warm_start(true));
    let warm_seq = warm_seq.unwrap();
    for threads in [2, 4] {
        let warm_par = SweepEngine::with_threads(threads).with_warm_start(true);
        let warm_par = spec.run_with_engine(&warm_par).unwrap();
        assert_eq!(warm_seq.reports, warm_par.reports, "warm reports diverged at {threads}");
        assert_eq!(
            warm_seq.result.counters, warm_par.result.counters,
            "warm counters diverged at {threads} threads"
        );
    }

    // And with infeasible cells in the mix (deadline misses, dual-seed deadline solver).
    let spec7 = fig7_with_infeasible_cells(6);
    let seq = reports(&spec7, &SweepEngine::single_thread().with_warm_start(true));
    let par = reports(&spec7, &SweepEngine::with_threads(4).with_warm_start(true));
    assert_eq!(seq, par);
}

/// The warm-start acceptance evidence in counter form, not wall clock: on the fig2 quick
/// grid a warm sweep must spend strictly fewer Jong iterations and μ-bisection
/// evaluations than the cold sweep, hit the fast path at least once, and never take more
/// outer iterations — while agreeing with the cold means to solver tolerance.
#[test]
fn warm_sweep_spends_strictly_fewer_iterations_than_cold_on_fig2_quick() {
    let spec = fig2_quick();
    let cold = sweep(&spec, &SweepEngine::with_threads(2).with_warm_start(false));
    let warm = sweep(&spec, &SweepEngine::with_threads(2).with_warm_start(true));

    let (c, w) = (cold.counters.solver, warm.counters.solver);
    assert!(c.jong_iterations > 0, "cold sweep must do real work");
    assert!(
        w.jong_iterations < c.jong_iterations,
        "warm Jong iterations {} not strictly below cold {}",
        w.jong_iterations,
        c.jong_iterations
    );
    assert!(
        w.mu_bisect_evals < c.mu_bisect_evals,
        "warm μ evals {} not strictly below cold {}",
        w.mu_bisect_evals,
        c.mu_bisect_evals
    );
    assert!(
        w.sp1_probe_evals < c.sp1_probe_evals,
        "warm SP1 golden-section probes {} not strictly below cold {} — the carried \
         bracket must narrow the search",
        w.sp1_probe_evals,
        c.sp1_probe_evals
    );
    assert!(w.outer_iterations <= c.outer_iterations);
    assert!(w.sp2_fast_path_hits > 0, "the fast path never fired on the quick grid");
    assert_eq!(c.sp2_fast_path_hits, 0, "cold sweeps must never take the warm fast path");

    // Same physics: every (point, arm) mean agrees with the cold reference to well within
    // the solver's own outer tolerance.
    for (cold_row, warm_row) in cold.aggregates.iter().zip(&warm.aggregates) {
        for (a, b) in cold_row.iter().zip(warm_row) {
            let rel = (a.mean_energy_j - b.mean_energy_j).abs() / a.mean_energy_j;
            assert!(rel <= spec.solver.resolve().outer_tol, "warm mean drifted by {rel}");
        }
    }
}

/// The PR 7 solver-speed satellite in counter form: carrying the warm `μ`-bracket *width*
/// across the solves of a cell-group (the adaptive default) must spend strictly fewer
/// `g'(μ)` evaluations on the warm fig2 quick grid than the fixed-width bracket
/// (`with_adaptive_mu_bracket(false)`, the pre-PR-7 warm path) — while agreeing with the
/// fixed-width means to well within the solver's own outer tolerance. The cold path never
/// reads the carried width, so the gate must be invisible there.
#[test]
fn adaptive_mu_bracket_spends_strictly_fewer_mu_evals_on_warm_fig2_quick() {
    assert!(SweepEngine::new().adaptive_mu_bracket(), "adaptive width is the default");
    let spec = fig2_quick();
    let warm = SweepEngine::with_threads(2).with_warm_start(true);
    let fixed = sweep(&spec, &warm.with_adaptive_mu_bracket(false));
    let adaptive = sweep(&spec, &warm);

    let (f, a) = (fixed.counters.solver, adaptive.counters.solver);
    assert!(f.mu_bisect_evals > 0, "the fixed-width warm sweep must do real work");
    assert!(
        a.mu_bisect_evals < f.mu_bisect_evals,
        "adaptive warm μ evals {} not strictly below fixed-width {}",
        a.mu_bisect_evals,
        f.mu_bisect_evals
    );

    // Same physics: the adaptive bracket only changes where the root search *starts*, so
    // every (point, arm) mean agrees with the fixed-width warm reference to well within
    // the solver's outer tolerance.
    for (fixed_row, adaptive_row) in fixed.aggregates.iter().zip(&adaptive.aggregates) {
        for (x, y) in fixed_row.iter().zip(adaptive_row) {
            let rel = (x.mean_energy_j - y.mean_energy_j).abs() / x.mean_energy_j;
            assert!(rel <= spec.solver.resolve().outer_tol, "adaptive mean drifted by {rel}");
        }
    }

    // Cold sweeps never read warm state, so the gate must be bit-invisible there.
    let cold = SweepEngine::with_threads(2).with_warm_start(false);
    let cold_fixed = sweep(&spec, &cold.with_adaptive_mu_bracket(false));
    let cold_adaptive = sweep(&spec, &cold);
    assert_eq!(cold_fixed, cold_adaptive, "cold path must not depend on the bracket gate");
}

/// The whole point of the cell-group refactor: a sweep builds `points × seeds` scenarios
/// (per distinct prepared builder), not `points × arms × seeds`, while still evaluating
/// every cell.
#[test]
fn scenario_builds_scale_with_points_times_seeds_not_arms() {
    let grid = fig2_quick().grid().unwrap();
    let (points, arms, seeds) = (grid.points.len(), grid.arms.len(), grid.seeds.len());
    assert!(arms > 1, "needs multiple arms for the assertion to mean anything");

    let result = SweepEngine::with_threads(2).run(&grid).unwrap();
    assert_eq!(
        result.counters.scenarios_built,
        points * seeds,
        "all {arms} fig2 arms share the point's builder, so builds must not scale with arms"
    );
    assert_eq!(result.counters.cells_evaluated, points * arms * seeds);

    // The counters are part of the deterministic output: a sequential run agrees.
    let sequential = SweepEngine::single_thread().run(&grid).unwrap();
    assert_eq!(sequential.counters, result.counters);
}

/// Every cell of both engine run paths solves with one configuration: the grid's base
/// with the engine's switches applied by `SweepEngine::solver_config`, outer-loop
/// continuation forced off.
#[test]
fn every_cell_solves_with_the_engine_resolved_grid_solver() {
    struct SolverRecorder(Arc<Mutex<Vec<SolverConfig>>>);
    impl Arm for SolverRecorder {
        fn name(&self) -> String {
            "recorder".to_string()
        }
        fn evaluate(
            &self,
            _scenario: &Scenario,
            ctx: &mut CellContext<'_>,
        ) -> Result<Option<CellOutput>, CoreError> {
            self.0.lock().unwrap().push(*ctx.solver);
            Ok(Some(CellOutput::new(1.0, 1.0)))
        }
    }

    let base = SolverConfig::fast().with_outer_continuation(true);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let grid = SweepGrid::new(vec![1u64, 2])
        .with_solver(base)
        .point(12.0, ScenarioBuilder::paper_default().with_devices(2))
        .arm(SolverRecorder(Arc::clone(&seen)));
    let engine = SweepEngine::with_threads(2)
        .with_warm_start(false)
        .with_superlinear_mu(false)
        .with_adaptive_mu_bracket(true);
    let expected = engine.solver_config(&base);
    assert!(!expected.warm_start && !expected.superlinear_mu && !expected.outer_continuation);
    assert!(expected.adaptive_mu_bracket);
    assert_eq!(expected.outer_tol, base.outer_tol);

    engine.run(&grid).unwrap();
    engine.run_cells(&grid).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 2 * grid.num_cells());
    assert!(seen.iter().all(|config| *config == expected), "{seen:?}");
}

/// A solver-free arm whose output is a cheap deterministic function of the cell
/// coordinates, with a sprinkling of infeasible cells — lets the 10⁴-draw reduction tests
/// run in seconds while still exercising sums, spreads and feasible-sample counts.
struct SyntheticArm {
    tag: f64,
}

impl Arm for SyntheticArm {
    fn name(&self) -> String {
        format!("synthetic {}", self.tag)
    }

    fn evaluate(
        &self,
        _scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        if ctx.seed % 97 == 13 {
            return Ok(None); // labelled infeasible draw
        }
        let v = (ctx.seed as f64).sin() * self.tag + ctx.x;
        Ok(Some(CellOutput::new(v * v + 1.0, v.abs() + 0.5)))
    }
}

/// The headline property of the streaming reduction: on a 10⁴-draw grid it must reproduce
/// the materializing reduction (`run_cells(..).into_sweep_result()`) bit for bit — means,
/// standard deviations, feasible counts and attempt counts — while holding only
/// O(points × arms) accumulators plus a bounded window of in-flight chunks (`run_cells`
/// holds all 60 000 cell outputs).
#[test]
fn ten_thousand_draw_grid_streams_bit_identically_to_materializing() {
    let grid = || {
        let builder = ScenarioBuilder::paper_default().with_devices(2);
        SweepGrid::new((0..10_000).collect::<Vec<u64>>())
            .point(5.0, builder.clone())
            .point(9.0, builder.clone())
            .point(12.0, builder)
            .arm(SyntheticArm { tag: 1.0 })
            .arm(SyntheticArm { tag: 2.5 })
    };

    let materialized = SweepEngine::with_threads(2).run_cells(&grid()).unwrap().into_sweep_result();
    // 13 of every 97 seeds... exactly the draws with seed % 97 == 13 are infeasible.
    let expected_infeasible = (0..10_000u64).filter(|s| s % 97 == 13).count();
    for row in &materialized.aggregates {
        for agg in row {
            assert_eq!(agg.attempts, 10_000);
            assert_eq!(agg.count, 10_000 - expected_infeasible);
        }
    }

    for threads in [1usize, 2, 4] {
        let streamed = SweepEngine::with_threads(threads).run(&grid()).unwrap();
        assert_eq!(streamed, materialized, "streaming diverged at {threads} thread(s)");
    }
}

/// Every figure's quick preset must produce bit-identical results through the streaming
/// reduction and the materializing one (`run_cells(..).into_sweep_result()`, the fleet's
/// path) at 1, 2 and 4 threads — the acceptance bar of the streaming refactor. The seed
/// chunk is forced to 1 so even the 1- and 2-seed quick grids exercise multi-chunk folding.
#[test]
fn all_figure_quick_presets_stream_bit_identically() {
    for spec in presets::all(Variant::Quick) {
        let grid = spec.grid().unwrap();
        let materialized =
            SweepEngine::with_threads(2).run_cells(&grid).unwrap().into_sweep_result();
        for threads in [1usize, 2, 4] {
            let streamed = SweepEngine::with_threads(threads).with_seed_chunk(1).run(&grid);
            assert_eq!(
                streamed.unwrap(),
                materialized,
                "{} quick preset diverged at {threads} thread(s)",
                spec.id
            );
        }
    }
}

/// Reimplementation of the pre-refactor sequential helpers (`average_proposed` /
/// `average_benchmark` from the old `experiments::sweep`), kept here as the regression
/// reference for the fig 2 quick preset (devices, seeds, sweep values, weights and solver
/// read from the spec).
fn fig2_reference(spec: &ExperimentSpec) -> Result<(FigureReport, FigureReport), CoreError> {
    let devices = spec.scenario.devices.expect("fig 2 pins the device count");
    let seeds = spec.seeds.values();
    let solver = spec.solver.resolve();
    let weights: Vec<Weights> = spec
        .arms
        .iter()
        .filter_map(|arm| match arm.kind {
            ArmKind::Proposed { weights } => Some(weights),
            _ => None,
        })
        .collect();
    let average_proposed =
        |builder: &ScenarioBuilder, weights: Weights| -> Result<(f64, f64), CoreError> {
            // The reference predates the warm-start continuation, which has since become
            // the library default — pin it off to keep reproducing the historical numbers.
            let optimizer = JointOptimizer::new(solver.with_warm_start(false));
            let (mut energy, mut time) = (0.0, 0.0);
            for &seed in &seeds {
                let scenario = builder.build(seed)?;
                let out = optimizer.solve(&scenario, weights)?;
                energy += out.total_energy_j;
                time += out.total_time_s;
            }
            let n = seeds.len().max(1) as f64;
            Ok((energy / n, time / n))
        };
    let average_benchmark = |builder: &ScenarioBuilder| -> Result<(f64, f64), CoreError> {
        let bench = BenchmarkAllocator::new();
        let (mut energy, mut time) = (0.0, 0.0);
        for &seed in &seeds {
            let scenario = builder.build(seed)?;
            // The historical inline stream-seed derivation, spelled out on purpose so this
            // reference stays independent of `baselines::derive_stream_seed`.
            let result = bench.random_frequency(&scenario, seed ^ 0x9e37_79b9)?;
            energy += result.total_energy_j();
            time += result.total_time_s();
        }
        let n = seeds.len().max(1) as f64;
        Ok((energy / n, time / n))
    };

    let mut columns: Vec<String> = weights
        .iter()
        .map(|w| format!("proposed w1={:.1},w2={:.1}", w.energy(), w.time()))
        .collect();
    columns.push("benchmark".to_string());
    let mut energy = FigureReport::new(
        "fig2a",
        "Total energy consumption vs maximum transmit power",
        "p_max (dBm)",
        "total energy (J)",
        columns.clone(),
    );
    let mut delay = FigureReport::new(
        "fig2b",
        "Total completion time vs maximum transmit power",
        "p_max (dBm)",
        "total time (s)",
        columns,
    );
    for &p_max in &spec.axis.values {
        let builder = ScenarioBuilder::paper_default().with_devices(devices).with_p_max_dbm(p_max);
        let mut e_row = Vec::new();
        let mut t_row = Vec::new();
        for &w in &weights {
            let (e, t) = average_proposed(&builder, w)?;
            e_row.push(e);
            t_row.push(t);
        }
        let (e_bench, t_bench) = average_benchmark(&builder)?;
        e_row.push(e_bench);
        t_row.push(t_bench);
        energy.push_row(p_max, e_row);
        delay.push_row(p_max, t_row);
    }
    Ok((energy, delay))
}

/// The fig 2 quick preset through the engine must reproduce the pre-refactor helpers'
/// output bit for bit (values, column names, row order). The reference helpers predate the
/// warm-start continuation, so the engine is pinned to the cold solver path — exactly the
/// `with_warm_start(false)` bit-identity guarantee.
#[test]
fn fig2_quick_output_is_unchanged_from_pre_refactor_helpers() {
    let spec = fig2_quick();
    let mut new = reports(&spec, &SweepEngine::new().with_warm_start(false));
    let (delay_new, energy_new) = (new.pop().unwrap(), new.pop().unwrap());
    let (energy_ref, delay_ref) = fig2_reference(&spec).unwrap();

    assert_eq!(energy_new.columns, energy_ref.columns);
    assert_eq!(delay_new.columns, delay_ref.columns);
    // The reference used `push_row` (unknown counts) while the engine records counts, so
    // compare the numerical payload exactly rather than the whole struct.
    assert_eq!(energy_new.rows, energy_ref.rows, "energy rows must be bit-identical");
    assert_eq!(delay_new.rows, delay_ref.rows, "delay rows must be bit-identical");
    // And the engine's counts must reflect the full seed set everywhere.
    for (row_idx, _) in energy_new.rows.iter().enumerate() {
        for col in 0..energy_new.columns.len() {
            assert_eq!(energy_new.sample_count(row_idx, col), Some(spec.seeds.len() as usize));
        }
    }
}

/// On a machine with ≥ 4 cores, 4 engine workers must finish the fig 2 quick preset at
/// least 2× faster than the sequential engine (the grid is embarrassingly parallel).
/// Skipped (with a message) on smaller machines, where the speedup physically cannot
/// materialise; the determinism test above still covers correctness there.
///
/// Ignored in the default suite because it is timing-sensitive: libtest would run it
/// concurrently with the other tests in this binary (which spawn their own engine
/// workers), skewing the baseline. CI runs it serialized via
/// `cargo test -p experiments --test engine_integration -- --ignored --test-threads=1`.
#[test]
#[ignore = "timing-sensitive; run serialized with -- --ignored --test-threads=1"]
fn four_threads_give_at_least_2x_on_quick_fig2() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available, need >= 4");
        return;
    }
    let spec = fig2_quick();
    let time_with = |engine: &SweepEngine| {
        // Warm once (page cache, lazy allocations), then take the best of two runs.
        reports(&spec, engine);
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let start = Instant::now();
            reports(&spec, engine);
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let sequential = time_with(&SweepEngine::single_thread());
    let parallel = time_with(&SweepEngine::with_threads(4));
    let speedup = sequential / parallel;
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup with 4 threads, got {speedup:.2}x ({sequential:.3}s -> {parallel:.3}s)"
    );
}
