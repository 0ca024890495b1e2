//! Property-based tests of the resource-allocation solver's invariants.

use fedopt_core::{JointOptimizer, SolverConfig, SolverWorkspace, Weights};
use flsys::{Allocation, ScenarioBuilder};
use proptest::prelude::*;

proptest! {
    // Each case runs the full solver, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any scenario and any valid weight pair, the solver returns a feasible allocation
    /// whose weighted objective does not exceed the naive equal-split allocation's.
    #[test]
    fn solver_output_is_feasible_and_no_worse_than_naive(
        seed in 0u64..200,
        devices in 3usize..10,
        w1_tenths in 1u32..10,
    ) {
        let scenario = ScenarioBuilder::paper_default().with_devices(devices).build(seed).unwrap();
        let w1 = f64::from(w1_tenths) / 10.0;
        let weights = Weights::new(w1, 1.0 - w1).unwrap();
        let optimizer = JointOptimizer::new(SolverConfig::fast());
        let outcome = optimizer.solve(&scenario, weights).unwrap();

        prop_assert!(outcome.allocation.is_feasible(&scenario, 1e-5));
        prop_assert!(outcome.objective.is_finite());
        prop_assert!(outcome.total_energy_j > 0.0);
        prop_assert!(outcome.total_time_s > 0.0);

        let naive = scenario.cost(&Allocation::equal_split_max(&scenario)).unwrap();
        prop_assert!(outcome.objective <= naive.objective(weights) * (1.0 + 1e-9));
    }

    /// The warm-start continuation converges to the same fixed point as the cold reference
    /// path: objectives agree within `outer_tol` (relative), the convergence flags match,
    /// and the warm best iterate is feasible — across random scenarios, device counts
    /// 2–25 and the whole weight range.
    #[test]
    fn warm_start_agrees_with_cold_within_outer_tol(
        seed in 0u64..300,
        devices in 2usize..26,
        w1_tenths in 1u32..10,
    ) {
        let scenario = ScenarioBuilder::paper_default().with_devices(devices).build(seed).unwrap();
        let w1 = f64::from(w1_tenths) / 10.0;
        let weights = Weights::new(w1, 1.0 - w1).unwrap();
        // Warm start is the library default now — the cold reference must opt out.
        let cold_cfg = SolverConfig::fast().with_warm_start(false);
        let warm_cfg = cold_cfg.with_warm_start(true);

        let mut cold_ws = SolverWorkspace::new();
        let mut warm_ws = SolverWorkspace::new();
        let cold = JointOptimizer::new(cold_cfg)
            .solve_summary_with(&scenario, weights, &mut cold_ws)
            .unwrap();
        let warm = JointOptimizer::new(warm_cfg)
            .solve_summary_with(&scenario, weights, &mut warm_ws)
            .unwrap();

        let rel = (warm.objective - cold.objective).abs() / cold.objective;
        prop_assert!(
            rel <= cold_cfg.outer_tol,
            "warm {} vs cold {} (rel {rel})", warm.objective, cold.objective
        );
        prop_assert!(warm.converged == cold.converged,
            "convergence flags diverged (warm {}, cold {})", warm.converged, cold.converged);
        prop_assert!(warm_ws.best.is_feasible(&scenario, 1e-5));
        // Warm must never do *more* inner work than cold.
        prop_assert!(warm_ws.counters.jong_iterations <= cold_ws.counters.jong_iterations,
            "warm jong {} > cold {}",
            warm_ws.counters.jong_iterations, cold_ws.counters.jong_iterations);
    }

    /// The deadline-constrained variant either meets the deadline or reports infeasibility —
    /// it never silently violates the constraint.
    #[test]
    fn deadline_variant_is_honest(seed in 0u64..200, devices in 3usize..9, deadline in 20.0f64..200.0) {
        let scenario = ScenarioBuilder::paper_default().with_devices(devices).build(seed).unwrap();
        let optimizer = JointOptimizer::new(SolverConfig::fast());
        match optimizer.solve_with_deadline(&scenario, deadline) {
            Ok(outcome) => {
                prop_assert!(outcome.allocation.is_feasible(&scenario, 1e-5));
                prop_assert!(outcome.total_time_s <= deadline * 1.01,
                    "returned {} for deadline {deadline}", outcome.total_time_s);
            }
            Err(fedopt_core::CoreError::InfeasibleDeadline { achievable_s, .. }) => {
                prop_assert!(achievable_s > deadline * 0.99);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }
}

/// One cold solve's counters at a given device count, on the paper (Jong) path — the only
/// one that runs the `μ`-root search.
fn cold_solve_counters(devices: usize, superlinear: bool) -> fedopt_core::SolveCounters {
    let scenario = ScenarioBuilder::paper_default().with_devices(devices).build(11).unwrap();
    let paper = SolverConfig { polish_with_reference: false, ..SolverConfig::fast() };
    let cfg = paper.with_warm_start(false).with_superlinear_mu(superlinear);
    let mut ws = SolverWorkspace::with_capacity(devices);
    JointOptimizer::new(cfg)
        .solve_summary_with(&scenario, Weights::new(0.5, 0.5).unwrap(), &mut ws)
        .unwrap();
    ws.counters
}

/// The `μ`-root searches iterate in `μ`, not in `n`: quadrupling the device count must not
/// even double the per-solve `g'(μ)` evaluation count. This is the counter-level evidence
/// that per-evaluation work is the only thing that grows with the fleet size — the number
/// of evaluations stays flat — so whole solves scale `O(n)`–`O(n log n)`, not `O(n·evals)`
/// with `evals` itself creeping up.
#[test]
fn mu_eval_count_scales_sublinearly_in_device_count() {
    let small = cold_solve_counters(50, true);
    let large = cold_solve_counters(200, true);
    assert!(small.mu_bisect_evals > 0, "the small solve must exercise the μ-root search");
    assert!(
        large.mu_bisect_evals < 2 * small.mu_bisect_evals,
        "μ-evals grew superlinearly with n: {} at 200 devices vs {} at 50",
        large.mu_bisect_evals,
        small.mu_bisect_evals
    );
    // The step-4b (ρ, idx) sort happens once per parametric KKT solve, never per μ-eval.
    assert!(small.lp_sorts <= small.kkt_solves, "more sorts than KKT solves at n = 50");
    assert!(large.lp_sorts <= large.kkt_solves, "more sorts than KKT solves at n = 200");
}

/// The safeguarded-Brent `μ`-root step must spend strictly fewer `g'(μ)` evaluations than
/// the legacy pure bisection it replaced, on the same scenario and tolerances.
#[test]
fn brent_mu_root_beats_pure_bisection_on_evals() {
    for devices in [25usize, 100] {
        let brent = cold_solve_counters(devices, true);
        let bisect = cold_solve_counters(devices, false);
        assert!(
            brent.mu_bisect_evals < bisect.mu_bisect_evals,
            "Brent spent {} μ-evals, pure bisection {} at n = {devices}",
            brent.mu_bisect_evals,
            bisect.mu_bisect_evals
        );
    }
}
