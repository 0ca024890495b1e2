//! [`Arm`] implementations for every scheme the figures compare.
//!
//! An arm is one column of a figure: the proposed joint optimizer (weighted or
//! deadline-constrained), the random benchmark, and each `baselines` allocator. Figure
//! modules compose these into a [`crate::engine::SweepGrid`]; anything scheme-specific
//! (which builder knobs to turn, where the deadline comes from) lives here, not in the
//! engine.

use crate::engine::{Arm, CellContext, CellOutput};
use baselines::{BenchmarkAllocator, CommOnlyAllocator, CompOnlyAllocator, Scheme1Allocator};
use fedopt_core::{CoreError, JointOptimizer, SolverConfig};
use flsys::{CostSummary, Scenario, ScenarioBuilder, Weights};

/// Where a deadline-constrained arm reads its deadline from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineSource {
    /// The sweep point's x value is the deadline (Figure 7).
    FromX,
    /// A fixed deadline in seconds, one series per value (Figure 8).
    Fixed(f64),
}

impl DeadlineSource {
    fn deadline_s(self, ctx: &CellContext<'_>) -> f64 {
        match self {
            Self::FromX => ctx.x,
            Self::Fixed(deadline_s) => deadline_s,
        }
    }
}

/// The proposed joint optimizer at a fixed weight pair (Figures 2–6).
#[derive(Debug, Clone)]
pub struct ProposedArm {
    weights: Weights,
    solver: SolverConfig,
    name: String,
}

impl ProposedArm {
    /// Creates the arm with the paper's standard column label
    /// (`proposed w1=…,w2=…`).
    pub fn new(weights: Weights, solver: SolverConfig) -> Self {
        let name = format!("proposed w1={:.1},w2={:.1}", weights.energy(), weights.time());
        Self { weights, solver, name }
    }

    /// Overrides the column label (Figures 5 and 6 label series by N or R_g instead).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl Arm for ProposedArm {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        // The optimizer is rebuilt per cell (a copy of one plain-data config — free) so the
        // engine's warm-start switch gates the solver uniformly across every arm.
        let optimizer = JointOptimizer::new(ctx.solver_config(&self.solver));
        // The summary path: bit-identical totals to `solve_with`, but the cell performs
        // zero heap allocations in steady state (everything lives in the workspace).
        match optimizer.solve_summary_with(scenario, self.weights, ctx.workspace) {
            Ok(out) => Ok(Some(CellOutput::new(out.total_energy_j, out.total_time_s))),
            // A watchdog-degraded draw is an infeasible *cell*, not a sweep abort: the
            // aggregate records it through the sample count, and the solver's
            // `degraded_solves` counter keeps it loud in the run document.
            Err(CoreError::NonFiniteObjective { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The deadline-constrained proposed optimizer (Figures 7 and 8).
///
/// An infeasible deadline for a draw is an infeasible *cell* (`Ok(None)`), not an error —
/// the aggregate records it through the sample count.
#[derive(Debug, Clone)]
pub struct DeadlineProposedArm {
    deadline: DeadlineSource,
    solver: SolverConfig,
    name: String,
}

impl DeadlineProposedArm {
    /// Creates the arm; the label defaults to `"proposed"` for [`DeadlineSource::FromX`]
    /// and `"proposed (T=…s)"` for fixed deadlines.
    pub fn new(deadline: DeadlineSource, solver: SolverConfig) -> Self {
        let name = match deadline {
            DeadlineSource::FromX => "proposed".to_string(),
            DeadlineSource::Fixed(t) => format!("proposed (T={t:.0}s)"),
        };
        Self { deadline, solver, name }
    }
}

impl Arm for DeadlineProposedArm {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        let optimizer = JointOptimizer::new(ctx.solver_config(&self.solver));
        let deadline_s = self.deadline.deadline_s(ctx);
        match optimizer.solve_with_deadline_summary_in(scenario, deadline_s, ctx.workspace) {
            Ok(out) => Ok(Some(CellOutput::new(out.total_energy_j, out.total_time_s))),
            Err(CoreError::InfeasibleDeadline { .. } | CoreError::NonFiniteObjective { .. }) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// The random benchmark of Figures 2 and 3.
///
/// Draws its random frequencies/powers from the cell's decorrelated stream seed
/// ([`CellContext::stream_seed`], see [`baselines::derive_stream_seed`]).
#[derive(Debug, Clone, Copy)]
pub struct BenchmarkArm {
    random_frequency: bool,
}

impl BenchmarkArm {
    /// Fig. 2 variant: random CPU frequency at maximum power.
    pub fn random_frequency() -> Self {
        Self { random_frequency: true }
    }

    /// Fig. 3 variant: random transmit power at maximum frequency.
    pub fn random_power() -> Self {
        Self { random_frequency: false }
    }
}

impl Arm for BenchmarkArm {
    fn name(&self) -> String {
        "benchmark".to_string()
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        // The benchmark draws a random allocation and evaluates it once — no solver loop,
        // but the workspace still hosts the drawn allocation so the cell stays
        // allocation-free.
        let allocator = BenchmarkAllocator::new();
        let summary = if self.random_frequency {
            allocator.random_frequency_summary_with(scenario, ctx.stream_seed, ctx.workspace)?
        } else {
            allocator.random_power_summary_with(scenario, ctx.stream_seed, ctx.workspace)?
        };
        Ok(Some(CellOutput::new(summary.total_energy_j, summary.total_time_s)))
    }
}

/// A deadline baseline's outcome as a cell: a missed deadline is an infeasible cell
/// (`Ok(None)`), as for [`DeadlineProposedArm`].
fn deadline_cell(summary: Result<CostSummary, CoreError>) -> Result<Option<CellOutput>, CoreError> {
    match summary {
        Ok(s) => Ok(Some(CellOutput::new(s.total_energy_j, s.total_time_s))),
        Err(CoreError::InfeasibleDeadline { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Communication-only optimization under the sweep point's deadline (Figure 7).
#[derive(Debug, Clone)]
pub struct CommOnlyArm {
    solver: SolverConfig,
}

impl CommOnlyArm {
    /// Creates the arm.
    pub fn new(solver: SolverConfig) -> Self {
        Self { solver }
    }
}

impl Arm for CommOnlyArm {
    fn name(&self) -> String {
        "communication only".to_string()
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        let allocator = CommOnlyAllocator::new(ctx.solver_config(&self.solver));
        deadline_cell(allocator.allocate_summary_with(scenario, ctx.x, ctx.workspace))
    }
}

/// Computation-only optimization under the sweep point's deadline (Figure 7).
#[derive(Debug, Clone)]
pub struct CompOnlyArm {
    solver: SolverConfig,
}

impl CompOnlyArm {
    /// Creates the arm.
    pub fn new(solver: SolverConfig) -> Self {
        Self { solver }
    }
}

impl Arm for CompOnlyArm {
    fn name(&self) -> String {
        "computation only".to_string()
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        let allocator = CompOnlyAllocator::new(ctx.solver_config(&self.solver));
        deadline_cell(allocator.allocate_summary_with(scenario, ctx.x, ctx.workspace))
    }
}

/// Scheme 1 (Yang et al., IEEE TWC 2021) at a fixed deadline (Figure 8).
#[derive(Debug, Clone)]
pub struct Scheme1Arm {
    solver: SolverConfig,
    deadline_s: f64,
}

impl Scheme1Arm {
    /// Creates the arm for one deadline series.
    pub fn new(deadline_s: f64, solver: SolverConfig) -> Self {
        Self { solver, deadline_s }
    }
}

impl Arm for Scheme1Arm {
    fn name(&self) -> String {
        format!("scheme1 (T={:.0}s)", self.deadline_s)
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        let allocator = Scheme1Allocator::new(ctx.solver_config(&self.solver));
        deadline_cell(allocator.allocate_summary_with(scenario, self.deadline_s, ctx.workspace))
    }
}

/// Decorator that renames an arm and/or specialises its scenario builder — how Figures 5
/// and 6 express per-series device counts and global-round counts.
pub struct ConfiguredArm<A> {
    inner: A,
    name: Option<String>,
    configure: Box<dyn Fn(ScenarioBuilder) -> ScenarioBuilder + Send + Sync>,
}

impl<A: Arm> ConfiguredArm<A> {
    /// Wraps `inner` with an identity configuration.
    pub fn new(inner: A) -> Self {
        Self { inner, name: None, configure: Box::new(|b| b) }
    }

    /// Overrides the column label.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Applies `f` to the sweep point's builder before scenarios are drawn for this arm.
    #[must_use]
    pub fn with_builder(
        mut self,
        f: impl Fn(ScenarioBuilder) -> ScenarioBuilder + Send + Sync + 'static,
    ) -> Self {
        self.configure = Box::new(f);
        self
    }
}

impl<A: Arm> Arm for ConfiguredArm<A> {
    fn name(&self) -> String {
        self.name.clone().unwrap_or_else(|| self.inner.name())
    }

    fn prepare(&self, builder: &ScenarioBuilder) -> ScenarioBuilder {
        (self.configure)(self.inner.prepare(builder))
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        self.inner.evaluate(scenario, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepEngine, SweepGrid};

    fn quick_grid(arm: impl Arm + 'static) -> SweepGrid {
        SweepGrid::new(vec![1u64])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0))
            .arm(arm)
    }

    #[test]
    fn proposed_beats_benchmark_on_average() {
        // Port of the historical sweep-helper test: the energy-leaning proposed arm beats
        // the random benchmark on mean energy over the same scenario draws.
        let solver = SolverConfig::fast();
        let grid = SweepGrid::new(vec![1u64, 2])
            .point(12.0, ScenarioBuilder::paper_default().with_devices(6))
            .arm(ProposedArm::new(Weights::balanced(), solver))
            .arm(BenchmarkArm::random_frequency());
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        let row = &result.aggregates[0];
        assert!(row[0].mean_energy_j < row[1].mean_energy_j);
        assert_eq!(row[0].count, 2);
        assert_eq!(row[1].count, 2);
    }

    #[test]
    fn infeasible_deadline_yields_zero_count_not_nan_surprise() {
        let solver = SolverConfig::fast();
        let grid = SweepGrid::new(vec![1u64])
            .point(1e-6, ScenarioBuilder::paper_default().with_devices(5))
            .arm(DeadlineProposedArm::new(DeadlineSource::FromX, solver));
        let result = SweepEngine::single_thread().run(&grid).unwrap();
        let agg = result.aggregates[0][0];
        assert_eq!(agg.count, 0);
        assert_eq!(agg.attempts, 1);
        assert!(agg.mean_energy_j.is_nan());
        // A loose deadline is feasible.
        let grid = SweepGrid::new(vec![1u64])
            .point(200.0, ScenarioBuilder::paper_default().with_devices(5))
            .arm(DeadlineProposedArm::new(DeadlineSource::FromX, solver));
        let agg = SweepEngine::single_thread().run(&grid).unwrap().aggregates[0][0];
        assert_eq!(agg.count, 1);
        assert!(agg.mean_energy_j.is_finite() && agg.mean_energy_j > 0.0);
    }

    #[test]
    fn configured_arm_renames_and_reconfigures() {
        let solver = SolverConfig::fast();
        let arm = ConfiguredArm::new(ProposedArm::new(Weights::balanced(), solver))
            .named("N = 3")
            .with_builder(|b| b.with_devices(3));
        assert_eq!(arm.name(), "N = 3");
        let result = SweepEngine::single_thread().run(&quick_grid(arm)).unwrap();
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
            .arm(BenchmarkArm::random_frequency());
        let agg = SweepEngine::single_thread().run(&grid).unwrap().aggregates[0][0];
        assert_eq!(agg.mean_energy_j, direct.total_energy_j());
        assert_eq!(agg.mean_time_s, direct.total_time_s());
    }
}
