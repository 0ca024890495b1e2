//! How every scheme the figures compare evaluates one cell.
//!
//! An arm is one column of a figure: the proposed joint optimizer (weighted or
//! deadline-constrained), the random benchmark, and each `baselines` allocator. The
//! serializable [`ArmSpec`] *is* the arm: it implements [`Arm`] directly, and
//! [`ArmKind::evaluate`] is the one match over the schemes that the sweep engine, the
//! serving loop and any other caller share. Adding a scheme means one [`ArmKind`] variant
//! plus one arm in [`ArmKind::evaluate`] and one in `ArmKind::default_label`.

use crate::engine::{Arm, CellContext, CellOutput};
use crate::spec::{ArmKind, ArmSpec, BenchmarkDraw, DeadlineSpec};
use baselines::{BenchmarkAllocator, CommOnlyAllocator, CompOnlyAllocator, Scheme1Allocator};
use fedopt_core::{CoreError, JointOptimizer, SolverConfig, SolverWorkspace};
use flsys::{Scenario, ScenarioBuilder};

impl ArmKind {
    /// The column label used when an arm carries no explicit label. Fixed deadlines print
    /// in shortest round-trip form, so `80` stays `80` and `80.2` stays `80.2`.
    fn default_label(&self) -> String {
        match self {
            Self::Proposed { weights } => {
                format!("proposed w1={:.1},w2={:.1}", weights.energy(), weights.time())
            }
            Self::DeadlineProposed { deadline: DeadlineSpec::Axis } => "proposed".to_string(),
            Self::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) } => {
                format!("proposed (T={t}s)")
            }
            Self::Benchmark { .. } => "benchmark".to_string(),
            Self::CommOnly => "communication only".to_string(),
            Self::CompOnly => "computation only".to_string(),
            Self::Scheme1 { deadline_s } => format!("scheme1 (T={deadline_s}s)"),
        }
    }

    /// Whether this scheme optimizes under the sweep point's x value read as a
    /// completion-time deadline (so it needs a `deadline_s` axis, or a request-level
    /// `deadline_s`).
    pub fn reads_axis_deadline(&self) -> bool {
        matches!(
            self,
            Self::DeadlineProposed { deadline: DeadlineSpec::Axis }
                | Self::CommOnly
                | Self::CompOnly
        )
    }

    /// Evaluates one cell of this scheme on `scenario`: `x` is the sweep point's value
    /// (the deadline of the schemes that [read it](Self::reads_axis_deadline)), `seed` the
    /// cell's base seed (the random benchmark draws from its derived stream,
    /// [`baselines::derive_stream_seed`]), and `solver` the fully resolved configuration.
    ///
    /// A missed deadline or a watchdog-degraded solve is an infeasible *cell*
    /// (`Ok(None)`), not an error: the aggregate records it through the sample count, and
    /// the solver's `degraded_solves` counter keeps a degraded solve loud in the run
    /// document. Every scheme runs its `*_summary` entry point, so a steady-state cell
    /// allocates nothing outside `workspace`.
    ///
    /// # Errors
    ///
    /// Any other [`CoreError`] of the underlying solver or allocator.
    pub fn evaluate(
        &self,
        scenario: &Scenario,
        x: f64,
        seed: u64,
        solver: &SolverConfig,
        workspace: &mut SolverWorkspace,
    ) -> Result<Option<CellOutput>, CoreError> {
        let totals = match self {
            Self::Proposed { weights } => JointOptimizer::new(*solver)
                .solve_summary_with(scenario, *weights, workspace)
                .map(|o| (o.total_energy_j, o.total_time_s)),
            Self::DeadlineProposed { deadline } => {
                let deadline_s = match deadline {
                    DeadlineSpec::Axis => x,
                    DeadlineSpec::FixedS(t) => *t,
                };
                JointOptimizer::new(*solver)
                    .solve_with_deadline_summary_in(scenario, deadline_s, workspace)
                    .map(|o| (o.total_energy_j, o.total_time_s))
            }
            Self::Benchmark { draw } => {
                let allocator = BenchmarkAllocator::new();
                let stream_seed = baselines::derive_stream_seed(seed);
                match draw {
                    BenchmarkDraw::Frequency => {
                        allocator.random_frequency_summary_with(scenario, stream_seed, workspace)
                    }
                    BenchmarkDraw::Power => {
                        allocator.random_power_summary_with(scenario, stream_seed, workspace)
                    }
                }
                .map(|s| (s.total_energy_j, s.total_time_s))
                .map_err(CoreError::from)
            }
            Self::CommOnly => CommOnlyAllocator::new(*solver)
                .allocate_summary_with(scenario, x, workspace)
                .map(|s| (s.total_energy_j, s.total_time_s)),
            Self::CompOnly => CompOnlyAllocator::new(*solver)
                .allocate_summary_with(scenario, x, workspace)
                .map(|s| (s.total_energy_j, s.total_time_s)),
            Self::Scheme1 { deadline_s } => Scheme1Allocator::new(*solver)
                .allocate_summary_with(scenario, *deadline_s, workspace)
                .map(|s| (s.total_energy_j, s.total_time_s)),
        };
        match totals {
            Ok((energy_j, time_s)) => Ok(Some(CellOutput::new(energy_j, time_s))),
            Err(CoreError::InfeasibleDeadline { .. } | CoreError::NonFiniteObjective { .. }) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

impl Arm for ArmSpec {
    fn name(&self) -> String {
        self.label.clone().unwrap_or_else(|| self.kind.default_label())
    }

    /// Applies the arm's scenario patch (how Figures 5 and 6 express per-series device and
    /// round counts).
    fn prepare(&self, builder: &ScenarioBuilder) -> ScenarioBuilder {
        match &self.scenario {
            Some(patch) => patch.apply(builder.clone()),
            None => builder.clone(),
        }
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        self.kind.evaluate(scenario, ctx.x, ctx.seed, ctx.solver, ctx.workspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepEngine, SweepGrid};
    use crate::spec::ScenarioSpec;
    use flsys::Weights;

    fn proposed() -> ArmSpec {
        ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
    }

    #[test]
    fn proposed_beats_benchmark_on_average() {
        // Port of the historical sweep-helper test: the energy-leaning proposed arm beats
        // the random benchmark on mean energy over the same scenario draws.
        let grid = SweepGrid::new(vec![1u64, 2])
            .with_solver(SolverConfig::fast())
            .point(12.0, ScenarioBuilder::paper_default().with_devices(6))
            .arm(proposed())
            .arm(ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }));
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        let row = &result.aggregates[0];
        assert!(row[0].mean_energy_j < row[1].mean_energy_j);
        assert_eq!(row[0].count, 2);
        assert_eq!(row[1].count, 2);
    }

    #[test]
    fn infeasible_deadline_yields_zero_count_not_nan_surprise() {
        let grid = |deadline_s: f64| {
            SweepGrid::new(vec![1u64])
                .with_solver(SolverConfig::fast())
                .point(deadline_s, ScenarioBuilder::paper_default().with_devices(5))
                .arm(ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis }))
        };
        let agg = SweepEngine::single_thread().run(&grid(1e-6)).unwrap().aggregates[0][0];
        assert_eq!(agg.count, 0);
        assert_eq!(agg.attempts, 1);
        assert!(agg.mean_energy_j.is_nan());
        // A loose deadline is feasible.
        let agg = SweepEngine::single_thread().run(&grid(200.0)).unwrap().aggregates[0][0];
        assert_eq!(agg.count, 1);
        assert!(agg.mean_energy_j.is_finite() && agg.mean_energy_j > 0.0);
    }

    #[test]
    fn configured_arm_renames_and_reconfigures() {
        let arm = proposed()
            .labeled("N = 3")
            .with_scenario(ScenarioSpec { devices: Some(3), ..ScenarioSpec::default() });
        assert_eq!(arm.name(), "N = 3");
        let base = ScenarioBuilder::paper_default();
        assert_eq!(arm.prepare(&base), base.clone().with_devices(3));
        assert_eq!(proposed().prepare(&base), base);
        let grid = SweepGrid::new(vec![1u64])
            .with_solver(SolverConfig::fast())
            .point(12.0, ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0))
            .arm(arm);
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        assert_eq!(result.arm_names, vec!["N = 3".to_string()]);
        assert!(result.aggregates[0][0].mean_energy_j > 0.0);
    }

    #[test]
    fn benchmark_arm_uses_the_derived_stream() {
        // The benchmark cell must reproduce BenchmarkAllocator::random_frequency with the
        // stream seed derived from the base seed — the historical `seed ^ 0x9e37_79b9`.
        let scenario = ScenarioBuilder::paper_default().with_devices(6).build(11).unwrap();
        let direct = BenchmarkAllocator::new()
            .random_frequency(&scenario, baselines::derive_stream_seed(11))
            .unwrap();
        let grid = SweepGrid::new(vec![11u64])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(6))
            .arm(ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }));
        let agg = SweepEngine::single_thread().run(&grid).unwrap().aggregates[0][0];
        assert_eq!(agg.mean_energy_j, direct.total_energy_j());
        assert_eq!(agg.mean_time_s, direct.total_time_s());
    }

    #[test]
    fn fixed_deadline_labels_keep_fractional_seconds() {
        let scheme1 = |deadline_s| ArmSpec::new(ArmKind::Scheme1 { deadline_s }).name();
        let proposed_at = |t| {
            ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }).name()
        };
        assert_eq!(scheme1(80.2), "scheme1 (T=80.2s)");
        assert_eq!(scheme1(80.4), "scheme1 (T=80.4s)");
        assert_eq!(proposed_at(0.5), "proposed (T=0.5s)");
        // Whole seconds print as before, so every preset label stays unchanged.
        assert_eq!(scheme1(80.0), "scheme1 (T=80s)");
        assert_eq!(proposed_at(150.0), "proposed (T=150s)");
    }
}
