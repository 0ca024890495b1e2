//! Algorithm 2 — the complete resource-allocation algorithm.
//!
//! [`JointOptimizer::solve`] reproduces the paper's Algorithm 2: starting from a feasible
//! allocation, it alternates
//!
//! 1. **Subproblem 1** (frequencies + auxiliary round time `T`) for the current uplink times,
//! 2. **Subproblem 2** (powers + bandwidths) for the rate floors implied by that `T`,
//!
//! until the solution stops changing or the iteration cap `K` is hit. The weighted objective
//! `w1·E + w2·R_g·T` is evaluated through `flsys` after every outer iteration and the best
//! iterate is returned, so the reported allocation is never worse than the initial feasible
//! point.
//!
//! [`JointOptimizer::solve_with_deadline`] is the deadline-constrained variant used for the
//! comparisons of Figures 7 and 8 (`w1 = 1, w2 = 0`, completion time as a hard constraint):
//! the same alternation with Subproblem 1 replaced by an energy-optimal split of the round
//! deadline, run through the same private loop. [`JointOptimizer::minimize_round_time`] is
//! the pure delay-minimization path used when `w2 = 1`.
//!
//! Each variant has one workspace entry point ([`JointOptimizer::solve_summary_with`],
//! [`JointOptimizer::solve_with_deadline_summary_in`]) and one owned-result facade
//! ([`JointOptimizer::solve`], [`JointOptimizer::solve_with_deadline`]) that runs it on a
//! fresh workspace.

use crate::config::SolverConfig;
use crate::error::CoreError;
use crate::sp1;
use crate::sp2;
use crate::trace::{OuterIteration, Trace};
use crate::workspace::SolverWorkspace;
use flsys::{Allocation, CostBreakdown, Scenario, ScenarioArrays, Weights};
use wireless::channel::shannon_rate_raw;

/// The scalar outcome of a `*_summary_*` solve: everything the sweep hot path consumes,
/// with no owned buffers. The winning allocation itself stays in
/// [`SolverWorkspace::best`] and the convergence trace in [`SolverWorkspace::trace`] until
/// the next solve overwrites them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeSummary {
    /// The weighted objective `w1·E + w2·R_g·T` of the winning allocation.
    pub objective: f64,
    /// Total energy in joules.
    pub total_energy_j: f64,
    /// Total completion time in seconds.
    pub total_time_s: f64,
    /// Whether the outer loop met its tolerance before the iteration cap.
    pub converged: bool,
}

/// Result of a full resource-allocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The allocation the optimizer settled on (always feasible).
    pub allocation: Allocation,
    /// Cost breakdown of that allocation (energy, latency, per-device detail).
    pub cost: CostBreakdown,
    /// The weighted objective `w1·E + w2·R_g·T` of the returned allocation.
    pub objective: f64,
    /// Total energy in joules (convenience copy of `cost.total_energy_j`).
    pub total_energy_j: f64,
    /// Total completion time in seconds (convenience copy of `cost.total_time_s`).
    pub total_time_s: f64,
    /// The weights the run optimized for.
    pub weights: Weights,
    /// Convergence trace (one entry per outer iteration).
    pub trace: Trace,
    /// Whether the outer loop met its tolerance before the iteration cap.
    pub converged: bool,
}

/// What one run of Algorithm 2's alternation minimizes. The mode picks the frequency and
/// rate-floor step of every outer iteration and the rule for the best iterate; everything
/// else (the Subproblem-2 call, projection, cost, trace, convergence) is shared.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// The weighted problem (9): Subproblem 1 plus the rate floors its round time implies;
    /// the best iterate has the lowest weighted objective.
    Weighted(Weights),
    /// Energy under a per-round deadline (s): the energy-optimal compute/upload split; the
    /// best iterate has the lowest energy among those meeting the deadline.
    Deadline(f64),
}

/// The paper's resource-allocation algorithm (Algorithm 2) plus its deadline-constrained and
/// delay-only variants.
#[derive(Debug, Clone, Default)]
pub struct JointOptimizer {
    config: SolverConfig,
}

impl JointOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solves the weighted joint problem (9) for the given scenario and weights, on a fresh
    /// workspace, and returns the owned [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] for invalid inputs or [`CoreError::SolverFailure`] /
    /// [`CoreError::Numerical`] if both Subproblem-2 solvers fail (which the test-suite never
    /// observes on paper-like scenarios).
    pub fn solve(&self, scenario: &Scenario, weights: Weights) -> Result<Outcome, CoreError> {
        let mut ws = SolverWorkspace::new();
        let summary = self.solve_summary_with(scenario, weights, &mut ws)?;
        self.outcome_from_workspace(scenario, weights, &ws, summary)
    }

    /// Enforces the caller's wall-clock budget ([`SolverWorkspace::solve_deadline`]) at an
    /// outer-iteration boundary: past the instant, the solve is abandoned with the typed
    /// [`CoreError::DeadlineExpired`] degradation. `iterations` is the count of outer
    /// iterations already completed (what the error reports). A `None` budget — the
    /// default, and every non-serving caller — costs one branch.
    fn check_deadline(ws: &SolverWorkspace, iterations: usize) -> Result<(), CoreError> {
        if let Some(deadline) = ws.solve_deadline {
            if std::time::Instant::now() >= deadline {
                return Err(CoreError::DeadlineExpired { iterations });
            }
        }
        Ok(())
    }

    /// [`Self::solve`] against a caller-owned [`SolverWorkspace`], without materialising an
    /// [`Outcome`]: the hot path of sweeps, serving and the round simulation.
    ///
    /// Returns the scalar [`OutcomeSummary`] and leaves the winning allocation in
    /// [`SolverWorkspace::best`] (projected feasible) and the convergence trace in
    /// [`SolverWorkspace::trace`]. Repeated solves reuse one set of per-device buffers (the
    /// workspace is pure scratch — see [`crate::workspace`] for the reuse contract), which
    /// makes a whole figure cell **allocation-free in steady state** (after the workspace has
    /// grown to the scenario's device count once).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_summary_with(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &mut SolverWorkspace,
    ) -> Result<OutcomeSummary, CoreError> {
        ws.trace.clear();
        Self::check_deadline(ws, 0)?;
        if weights.time() >= 1.0 {
            // Pure delay minimization: energy plays no role, so Subproblem 2's objective is
            // degenerate. Solve the min-max completion-time problem directly.
            let (allocation, _round) = self.minimize_round_time(scenario)?;
            ws.best = allocation;
            return self.finish_summary(scenario, weights, ws, true);
        }

        // Outer-loop continuation (serving layers only; see `SolverConfig`): re-open at the
        // carried best allocation when it plausibly belongs to this scenario, so a repeat
        // of the same problem starts converged and SP2's fast path fires at k = 1. The
        // shape check is a guard against misuse, not the correctness argument — callers
        // must only enable this when the workspace last solved the *same* problem.
        let n = scenario.devices.len();
        let continued = self.config.warm_start
            && self.config.outer_continuation
            && ws.best.powers_w.len() == n
            && ws.best.frequencies_hz.len() == n
            && ws.best.bandwidths_hz.len() == n
            && ws.sp2.solution().powers_w.len() == n
            && ws.sp2.solution().bandwidths_hz.len() == n;
        if continued {
            let SolverWorkspace { allocation, best, .. } = &mut *ws;
            allocation.clone_from(best);
        } else {
            ws.allocation.set_equal_split_max(scenario);
        }
        ws.arrays.rebuild(scenario);
        let mut best = None;
        let converged =
            self.alternate(scenario, Mode::Weighted(weights), continued, &mut best, ws)?;

        if best.is_none() {
            // Every iteration in the budget produced a non-finite objective: degrade the
            // solve (typed error + counter) instead of panicking or returning garbage.
            // Sweep layers map this to an infeasible cell, so one pathological draw
            // cannot abort a whole shard.
            ws.counters.degraded_solves += 1;
            return Err(CoreError::NonFiniteObjective { iterations: ws.trace.len() });
        }
        self.finish_summary(scenario, weights, ws, converged)
    }

    /// Minimizes total energy subject to a hard completion-time deadline for the whole
    /// training process (the setting of Figures 7 and 8, `w1 = 1, w2 = 0`), on a fresh
    /// workspace, and returns the owned [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InfeasibleDeadline`] when the deadline cannot be met even with
    /// every resource at its maximum, and the same solver errors as [`JointOptimizer::solve`].
    pub fn solve_with_deadline(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
    ) -> Result<Outcome, CoreError> {
        let mut ws = SolverWorkspace::new();
        let summary = self.solve_with_deadline_summary_in(scenario, total_deadline_s, &mut ws)?;
        self.outcome_from_workspace(scenario, Weights::energy_only(), &ws, summary)
    }

    /// [`Self::solve_with_deadline`] against a caller-owned [`SolverWorkspace`], without
    /// materialising an [`Outcome`] — the sweep hot path of Figures 7 and 8, with the same
    /// workspace conventions as [`Self::solve_summary_with`] (winning allocation in
    /// [`SolverWorkspace::best`], trace in [`SolverWorkspace::trace`]).
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve_with_deadline`].
    pub fn solve_with_deadline_summary_in(
        &self,
        scenario: &Scenario,
        total_deadline_s: f64,
        ws: &mut SolverWorkspace,
    ) -> Result<OutcomeSummary, CoreError> {
        ws.trace.clear();
        if !(total_deadline_s.is_finite() && total_deadline_s > 0.0) {
            return Err(CoreError::Model(flsys::FlError::InvalidParameter {
                name: "total_deadline_s",
                value: total_deadline_s,
            }));
        }
        let round_deadline = total_deadline_s / scenario.params.rg();

        Self::check_deadline(ws, 0)?;
        let (fastest_alloc, fastest_round) = self.minimize_round_time(scenario)?;
        if round_deadline < fastest_round * (1.0 - 1e-9) {
            return Err(CoreError::InfeasibleDeadline {
                requested_s: total_deadline_s,
                achievable_s: fastest_round * scenario.params.rg(),
            });
        }

        // The alternation is a local search, and at fixed deadlines its quality depends on
        // the starting bandwidth split: the equal split is the better seed when the deadline
        // is loose, the time-optimal split (which hands far devices the bandwidth they need)
        // is the better seed when the deadline is tight. Run both seeds and keep the cheaper
        // feasible result (tracked across both runs in `ws.best`).
        ws.arrays.rebuild(scenario);
        let mut best = None;
        let mut converged = false;
        for tight_seed in [false, true] {
            if tight_seed {
                ws.allocation.clone_from(&fastest_alloc);
            } else {
                ws.allocation.set_equal_split_max(scenario);
            }
            converged |=
                self.alternate(scenario, Mode::Deadline(round_deadline), false, &mut best, ws)?;
        }

        if best.is_none() {
            // Every iterate somehow missed the deadline (only possible in pathological corner
            // cases): fall back to the fastest allocation, which was proven to meet it.
            ws.best.clone_from(&fastest_alloc);
        }
        self.finish_summary(scenario, Weights::energy_only(), ws, converged)
    }

    /// One run of Algorithm 2's alternation from the allocation staged in
    /// [`SolverWorkspace::allocation`], appending to [`SolverWorkspace::trace`] (its `k`
    /// continues the trace, so a second deadline seed numbers on from the first). Updates
    /// the best iterate across runs — its score in `best`, its allocation in
    /// [`SolverWorkspace::best`] — and returns whether the loop converged.
    ///
    /// `continued` extends the warm-start rule "keep the previous SP2 iterate staged" to
    /// `k = 1`; only the weighted outer continuation sets it.
    fn alternate(
        &self,
        scenario: &Scenario,
        mode: Mode,
        continued: bool,
        best: &mut Option<f64>,
        ws: &mut SolverWorkspace,
    ) -> Result<bool, CoreError> {
        let k_offset = ws.trace.len();
        for k in 1..=self.config.outer_max_iter {
            // Deadline watchdog: the caller's wall-clock budget is checked at every
            // outer-iteration boundary, so an expired budget costs at most one more
            // (bounded) iteration before the solve degrades to the typed error.
            Self::check_deadline(ws, k_offset + k - 1)?;
            ws.previous.clone_from(&ws.allocation);
            ws.counters.outer_iterations += 1;

            // Warm continuation keeps the previous SP2 iterate staged in the scratch
            // (un-projected, which is what the fast path recognises); the cold path restages
            // the projected allocation every iteration, as Algorithm 2 writes. Each deadline
            // seed restages at k = 1, preserving the dual-seed diversity the search relies on.
            let restage = !(self.config.warm_start && (k > 1 || continued));
            let sp2_sol = match self.subproblems(scenario, mode, restage, ws) {
                Ok(sol) => sol,
                // Watchdog: a non-finite subproblem objective (overflowed energy, NaN
                // cost) is a property of the draw, not a solver bug — degrade the whole
                // solve to the typed infeasibility instead of escalating a hard error
                // that would abort an entire sweep shard.
                Err(CoreError::Numerical(numopt::NumError::NonFiniteValue { .. })) => {
                    ws.counters.degraded_solves += 1;
                    return Err(CoreError::NonFiniteObjective { iterations: k });
                }
                Err(e) => return Err(e),
            };
            let SolverWorkspace {
                sp2,
                allocation,
                previous,
                best: best_alloc,
                trace,
                counters,
                arrays,
                ..
            } = &mut *ws;
            counters.record_sp2(&sp2_sol);
            allocation.powers_w.copy_from_slice(&sp2.solution().powers_w);
            allocation.bandwidths_hz.copy_from_slice(&sp2.solution().bandwidths_hz);
            allocation.project_feasible(scenario);

            // --- Bookkeeping. ---
            let cost = scenario.cost_summary_arrays(arrays, allocation)?;
            let (objective, eligible) = match mode {
                Mode::Weighted(weights) => (cost.objective(weights), true),
                // Energy counts only for allocations that actually meet the deadline (tiny
                // slack for the floating-point repairs in the sanitize pass).
                Mode::Deadline(round_deadline) => {
                    (cost.total_energy_j, cost.round_time_s <= round_deadline * (1.0 + 1e-3))
                }
            };
            let change = allocation.normalized_distance(previous);
            trace.push(OuterIteration {
                k: k_offset + k,
                objective,
                total_energy_j: cost.total_energy_j,
                total_time_s: cost.total_time_s,
                solution_change: change,
                sp2_converged: sp2_sol.converged,
                sp2_iterations: sp2_sol.iterations,
            });
            // Watchdog: a non-finite objective (overflowed energy, NaN cost) must never be
            // accepted as "best" — it would propagate straight into the summary totals.
            if objective.is_finite() && eligible && best.map_or(true, |b| objective < b) {
                *best = Some(objective);
                best_alloc.clone_from(allocation);
            }
            if change <= self.config.outer_tol {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The two subproblem steps of one outer iteration: the mode's frequency and rate-floor
    /// step (into [`SolverWorkspace::frequencies_hz`], copied into the working allocation,
    /// and [`SolverWorkspace::r_min_bps`]), then Subproblem 2 — powers and bandwidths under
    /// those floors — from the working allocation when `restage` is set and from the
    /// scratch's staged iterate otherwise.
    fn subproblems(
        &self,
        scenario: &Scenario,
        mode: Mode,
        restage: bool,
        ws: &mut SolverWorkspace,
    ) -> Result<sp2::Sp2Summary, CoreError> {
        let weights = match mode {
            Mode::Weighted(weights) => {
                // Subproblem 1: frequencies and the auxiliary round time T for the current
                // uplink times, then the rate floors implied by T.
                ws.allocation.rates_bps_into(scenario, &mut ws.rates_bps);
                ws.upload_times_from_rates(scenario);
                let SolverWorkspace {
                    uploads_s,
                    r_min_bps,
                    frequencies_hz,
                    counters,
                    arrays,
                    sp1_warm,
                    ..
                } = &mut *ws;
                let sp1_sol = sp1::solve_direct_with_arrays_in(
                    scenario,
                    arrays,
                    weights,
                    uploads_s,
                    &self.config,
                    frequencies_hz,
                    sp1_warm,
                    &mut counters.sp1_probe_evals,
                )?;
                rate_floors_into(
                    arrays,
                    scenario.params.rl(),
                    sp1_sol.round_time_s,
                    frequencies_hz,
                    weights,
                    r_min_bps,
                );
                weights
            }
            Mode::Deadline(round_deadline) => {
                // Split every device's round deadline between computation and upload so that
                // the *total* per-device energy (computation at the implied frequency plus
                // the cheapest transmission meeting the implied rate) is minimized, given the
                // current bandwidth shares. This plays the role Subproblem 1 plays in the
                // weighted problem.
                self.optimal_split_for_deadline(
                    scenario,
                    round_deadline,
                    &ws.allocation.bandwidths_hz,
                    &mut ws.frequencies_hz,
                    &mut ws.r_min_bps,
                );
                Weights::energy_only()
            }
        };
        let SolverWorkspace { r_min_bps, frequencies_hz, sp2, allocation, arrays, .. } = &mut *ws;
        allocation.frequencies_hz.copy_from_slice(frequencies_hz);
        if restage {
            sp2.stage_start(&allocation.powers_w, &allocation.bandwidths_hz);
        }
        sp2::solve_with_arrays_in(scenario, arrays, weights, r_min_bps, &self.config, sp2)
    }

    /// For a fixed round deadline and fixed bandwidth shares, chooses each device's
    /// computation/upload time split to minimize its per-round energy, writing the implied
    /// CPU frequencies and rate floors into the caller's buffers (cleared first).
    ///
    /// For device `n` with bandwidth `B_n`, an upload time `t` implies the frequency
    /// `f_n = R_l c_n D_n / (deadline − t)` and the cheapest power reaching rate `d_n / t`;
    /// the per-round energy `κ R_l c_n D_n f_n² + p(t)·t` is minimized over `t` by a scalar
    /// search (it is unimodal: computation energy falls and transmission energy rises as `t`
    /// shrinks the compute share).
    fn optimal_split_for_deadline(
        &self,
        scenario: &Scenario,
        round_deadline: f64,
        bandwidths_hz: &[f64],
        frequencies: &mut Vec<f64>,
        r_min: &mut Vec<f64>,
    ) {
        let params = &scenario.params;
        let rl = params.rl();
        let n0 = params.noise.watts_per_hz();
        frequencies.clear();
        r_min.clear();

        for (dev, &bandwidth_hz) in scenario.devices.iter().zip(bandwidths_hz) {
            let cycles = rl * dev.cycles_per_local_iteration();
            let b = bandwidth_hz.max(self.config.bandwidth_floor_hz);
            let g = dev.gain.value();
            let t_cmp_min = cycles / dev.f_max.value();
            let upload_budget_max = round_deadline - t_cmp_min;
            if upload_budget_max <= 0.0 {
                // The deadline leaves no room even at f_max: run flat out and hope the upload
                // squeezes through (the caller's feasibility check prevents this in practice).
                frequencies.push(dev.f_max.value());
                r_min.push(dev.upload_bits / 1e-6);
                continue;
            }
            // The shortest upload the device can manage with its current bandwidth is the one
            // at maximum power; restricting the search to [that, remaining budget] keeps every
            // candidate split power-feasible, so the objective below is finite and unimodal
            // (computation energy rises, transmission energy falls, as the upload shrinks the
            // compute share).
            let fastest_rate = wireless::channel::shannon_rate_raw(dev.p_max.value(), b, g, n0);
            let t_up_fastest =
                if fastest_rate > 0.0 { dev.upload_bits / fastest_rate } else { f64::INFINITY };
            if t_up_fastest >= upload_budget_max {
                // Even flat-out transmission cannot fit the deadline with this bandwidth
                // share: use the whole remaining budget and let the rate floor tell
                // Subproblem 2 that this device needs more bandwidth.
                frequencies.push(dev.f_max.value());
                r_min.push(dev.upload_bits / upload_budget_max);
                continue;
            }
            let energy_of_split = |t_up: f64| -> f64 {
                let f = dev.clamp_frequency(cycles / (round_deadline - t_up));
                let comp = params.kappa * rl * dev.cycles_per_local_iteration() * f * f;
                let rate = dev.upload_bits / t_up;
                let p_needed = wireless::channel::power_for_rate(rate, b, g, n0);
                let p = p_needed.clamp(dev.p_min.value(), dev.p_max.value());
                comp + p * t_up
            };
            let best = numopt::scalar::golden_section_min_with_endpoints(
                energy_of_split,
                t_up_fastest,
                upload_budget_max,
                self.config.scalar_tol * upload_budget_max,
                300,
            );
            let t_up = match best {
                Ok(m) => m.argmin,
                Err(_) => t_up_fastest,
            };
            frequencies.push(dev.clamp_frequency(cycles / (round_deadline - t_up)));
            r_min.push(dev.upload_bits / t_up);
        }
    }

    /// Minimizes the per-round completion time (every device at `f_max` / `p_max`, bandwidth
    /// split to equalize finish times). Returns the allocation and its round time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if the scenario rejects the allocation shape (cannot
    /// happen for scenarios built by `flsys`).
    pub fn minimize_round_time(&self, scenario: &Scenario) -> Result<(Allocation, f64), CoreError> {
        let n = scenario.devices.len();
        let n0 = scenario.params.noise.watts_per_hz();
        let b_total = scenario.params.total_bandwidth.value();
        let floor = self.config.bandwidth_floor_hz;
        let rl = scenario.params.rl();

        let t_cmp: Vec<f64> = scenario
            .devices
            .iter()
            .map(|d| rl * d.cycles_per_local_iteration() / d.f_max.value())
            .collect();

        // Bandwidth needed by device i to finish within round time t (at p_max).
        let bandwidth_needed = |i: usize, t: f64| -> f64 {
            let dev = &scenario.devices[i];
            let budget = t - t_cmp[i];
            if budget <= 0.0 {
                return f64::INFINITY;
            }
            let r_req = dev.upload_bits / budget;
            min_bandwidth_for_rate(dev.gain.value(), dev.p_max.value(), r_req, n0, b_total, floor)
        };
        let feasible = |t: f64| -> bool {
            let mut sum = 0.0;
            for i in 0..n {
                let b = bandwidth_needed(i, t);
                if !b.is_finite() {
                    return false;
                }
                sum += b;
                if sum > b_total {
                    return false;
                }
            }
            true
        };

        // Bracket the smallest feasible round time and bisect.
        let t_lo = t_cmp.iter().cloned().fold(0.0, f64::max);
        let mut hi = t_lo.max(1e-6) * 2.0 + 1e-3;
        let mut expansions = 0;
        while !feasible(hi) && expansions < 80 {
            hi *= 2.0;
            expansions += 1;
        }
        let mut lo = t_lo;
        for _ in 0..90 {
            let mid = 0.5 * (lo + hi);
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let t_star = hi;

        let mut bandwidths: Vec<f64> =
            (0..n).map(|i| bandwidth_needed(i, t_star).min(b_total)).collect();
        // Hand out any slack proportionally — extra bandwidth can only shorten uploads.
        let used: f64 = bandwidths.iter().sum();
        if used < b_total && used > 0.0 {
            let scale = b_total / used;
            for b in &mut bandwidths {
                *b *= scale;
            }
        }
        let mut allocation = Allocation::new(
            scenario.devices.iter().map(|d| d.p_max.value()).collect(),
            scenario.devices.iter().map(|d| d.f_max.value()).collect(),
            bandwidths,
        );
        allocation.project_feasible(scenario);
        let cost = scenario.cost(&allocation)?;
        Ok((allocation, cost.round_time_s))
    }

    /// Projects the winning allocation ([`SolverWorkspace::best`]) feasible and summarises
    /// its cost — the allocation-free tail of every `*_summary_*` path.
    fn finish_summary(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &mut SolverWorkspace,
        converged: bool,
    ) -> Result<OutcomeSummary, CoreError> {
        ws.best.project_feasible(scenario);
        let cost = scenario.cost_summary(&ws.best)?;
        Ok(OutcomeSummary {
            objective: cost.objective(weights),
            total_energy_j: cost.total_energy_j,
            total_time_s: cost.total_time_s,
            converged,
        })
    }

    /// Materialises a full [`Outcome`] (owned allocation, per-device cost breakdown,
    /// cloned trace) from the workspace state a `*_summary_*` solve left behind.
    fn outcome_from_workspace(
        &self,
        scenario: &Scenario,
        weights: Weights,
        ws: &SolverWorkspace,
        summary: OutcomeSummary,
    ) -> Result<Outcome, CoreError> {
        let allocation = ws.best.clone();
        let cost = scenario.cost(&allocation)?;
        Ok(Outcome {
            total_energy_j: cost.total_energy_j,
            total_time_s: cost.total_time_s,
            objective: cost.objective(weights),
            allocation,
            cost,
            weights,
            trace: Trace { iterations: ws.trace.clone() },
            converged: summary.converged,
        })
    }
}

/// Rate floors `r_n^min = d_n / (T − R_l c_n D_n / f_n)` implied by a round deadline `T`,
/// into a caller-owned buffer (cleared first). Reads the [`ScenarioArrays`] lanes (one zip,
/// no per-device struct chasing); `rl` is the scenario's local-iteration count `R_l`.
///
/// With no pressure on time (`w2 = 0` and no explicit deadline handling by the caller) the
/// floors are zero — the paper's constraint (9a) is slack in that regime.
fn rate_floors_into(
    arrays: &ScenarioArrays,
    rl: f64,
    round_time_s: f64,
    frequencies_hz: &[f64],
    weights: Weights,
    out: &mut Vec<f64>,
) {
    out.clear();
    let unconstrained = weights.time() <= 0.0 && round_time_s.is_infinite();
    out.extend(arrays.cycles_per_iter.iter().zip(&arrays.upload_bits).zip(frequencies_hz).map(
        |((&cd, &d_bits), &f)| {
            if unconstrained {
                return 0.0;
            }
            let t_cmp = rl * cd / f.max(1e-3);
            let budget = round_time_s - t_cmp;
            if budget <= 0.0 {
                // The deadline leaves no room for the upload: ask for the fastest rate the
                // device could possibly need; the sanitize pass will do its best.
                d_bits / 1e-6
            } else {
                d_bits / budget
            }
        },
    ));
}

/// Smallest bandwidth at which a device with channel gain `gain` can reach `r_min` at power
/// `p_max` (monotone bisection), capped at `b_total`.
fn min_bandwidth_for_rate(
    gain: f64,
    p_max: f64,
    r_min: f64,
    n0: f64,
    b_total: f64,
    floor: f64,
) -> f64 {
    if r_min <= 0.0 {
        return floor;
    }
    if shannon_rate_raw(p_max, b_total, gain, n0) < r_min {
        return f64::INFINITY;
    }
    let mut lo = floor;
    let mut hi = b_total;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if shannon_rate_raw(p_max, mid, gain, n0) >= r_min {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-10 {
            break;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::ScenarioBuilder;

    fn scenario(n: usize, seed: u64) -> Scenario {
        ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap()
    }

    fn optimizer() -> JointOptimizer {
        JointOptimizer::new(SolverConfig::fast())
    }

    #[test]
    fn solve_beats_equal_split_for_all_paper_weights() {
        let s = scenario(10, 31);
        let opt = optimizer();
        let naive = s.cost(&Allocation::equal_split_max(&s)).unwrap();
        for w in Weights::paper_sweep() {
            let out = opt.solve(&s, w).unwrap();
            assert!(out.allocation.is_feasible(&s, 1e-5), "infeasible at {w:?}");
            assert!(
                out.objective <= naive.objective(w) * (1.0 + 1e-9),
                "objective {} worse than naive {} at {w:?}",
                out.objective,
                naive.objective(w)
            );
        }
    }

    #[test]
    fn energy_decreases_as_w1_grows() {
        let s = scenario(10, 32);
        let opt = optimizer();
        let mut energies = Vec::new();
        let mut times = Vec::new();
        for w in Weights::paper_sweep() {
            let out = opt.solve(&s, w).unwrap();
            energies.push(out.total_energy_j);
            times.push(out.total_time_s);
        }
        // paper_sweep is ordered from w1 = 0.9 down to 0.1: energy should (weakly) increase
        // along the sweep and completion time should (weakly) decrease.
        for pair in energies.windows(2) {
            assert!(pair[1] >= pair[0] * (1.0 - 0.05), "energy not monotone: {energies:?}");
        }
        for pair in times.windows(2) {
            assert!(pair[1] <= pair[0] * (1.0 + 0.05), "time not monotone: {times:?}");
        }
    }

    #[test]
    fn watchdog_degrades_non_finite_objectives_to_a_typed_error() {
        // Frequencies around 1e169 Hz make κ·c·f² overflow to +inf for every feasible
        // frequency, so no outer iteration can produce a finite objective. The watchdog
        // must hand back the typed degradation (and count it) — never accept the
        // non-finite iterate as "best", never panic.
        let s = ScenarioBuilder::paper_default()
            .with_devices(4)
            .with_f_min_hz(1e160)
            .with_f_max_ghz(1e160)
            .build(7)
            .unwrap();
        let opt = optimizer();
        let mut ws = SolverWorkspace::new();
        let before = ws.counters;
        match opt.solve_summary_with(&s, Weights::new(0.5, 0.5).unwrap(), &mut ws) {
            Err(CoreError::NonFiniteObjective { iterations }) => {
                assert!(iterations >= 1, "the watchdog must have let the loop run");
            }
            other => panic!("expected NonFiniteObjective, got {other:?}"),
        }
        assert_eq!(ws.counters.since(&before).degraded_solves, 1);
        // The workspace stays usable: a healthy scenario solves fine right after.
        let healthy = scenario(4, 7);
        let out = opt.solve_summary_with(&healthy, Weights::new(0.5, 0.5).unwrap(), &mut ws);
        assert!(out.is_ok(), "degradation must not poison the workspace: {out:?}");
        assert_eq!(ws.counters.degraded_solves, 1, "healthy solve must not count");
    }

    #[test]
    fn an_expired_solve_deadline_degrades_without_poisoning_the_workspace() {
        let s = scenario(10, 35);
        let opt = optimizer();
        let mut ws = SolverWorkspace::new();
        let w = Weights::new(0.5, 0.5).unwrap();
        // A successful solve first, so a trace left over from it would show.
        opt.solve_summary_with(&s, w, &mut ws).unwrap();
        assert!(!ws.trace.is_empty());

        // A budget that is already in the past must stop the solve at the first boundary
        // check — zero outer iterations, typed error, no hang, and no stale trace.
        ws.solve_deadline = Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
        match opt.solve_with_deadline_summary_in(&s, 500.0, &mut ws) {
            Err(CoreError::DeadlineExpired { iterations }) => assert_eq!(iterations, 0),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert!(ws.trace.is_empty(), "an expired deadline solve left a stale trace");
        match opt.solve_summary_with(&s, w, &mut ws) {
            Err(CoreError::DeadlineExpired { iterations }) => assert_eq!(iterations, 0),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert!(ws.trace.is_empty(), "an expired weighted solve left a stale trace");
        // A deadline miss is a budget property, not workspace corruption: it must not be
        // counted as a degraded (non-finite) solve.
        assert_eq!(ws.counters.degraded_solves, 0);

        // The budget is a caller-managed input — clearing it restores normal behaviour,
        // and a generous budget never fires.
        ws.solve_deadline = None;
        opt.solve_summary_with(&s, w, &mut ws).unwrap();
        ws.solve_deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        opt.solve_summary_with(&s, w, &mut ws).unwrap();
        ws.solve_deadline = None;

        // An infeasible deadline is rejected at entry, again without a stale trace.
        assert!(!ws.trace.is_empty());
        match opt.solve_with_deadline_summary_in(&s, 1e-3, &mut ws) {
            Err(CoreError::InfeasibleDeadline { .. }) => {}
            other => panic!("expected InfeasibleDeadline, got {other:?}"),
        }
        assert!(ws.trace.is_empty(), "an infeasible deadline solve left a stale trace");
    }

    #[test]
    fn quarantine_reset_restores_fresh_workspace_behaviour() {
        let s = scenario(8, 36);
        let opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let mut ws = SolverWorkspace::new();
        let fresh = opt.solve_summary_with(&s, Weights::balanced(), &mut ws).unwrap();

        // Dirty everything a solve can dirty (plus the deadline input), then quarantine.
        let _ = opt.solve_summary_with(&s, Weights::balanced(), &mut ws);
        ws.solve_deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs(1));
        ws.quarantine_reset();
        assert!(ws.solve_deadline.is_none(), "quarantine must drop the pending budget");
        assert_eq!(
            ws.counters,
            crate::trace::SolveCounters::default(),
            "quarantine must zero the counters"
        );
        let after = opt.solve_summary_with(&s, Weights::balanced(), &mut ws).unwrap();
        assert_eq!(fresh, after, "a quarantined workspace must behave like a fresh one");
    }

    #[test]
    fn time_only_matches_min_round_time() {
        let s = scenario(8, 33);
        let opt = optimizer();
        let out = opt.solve(&s, Weights::time_only()).unwrap();
        let (_, fastest) = opt.minimize_round_time(&s).unwrap();
        assert!((out.cost.round_time_s - fastest).abs() / fastest < 0.05);
    }

    #[test]
    fn deadline_constrained_meets_deadline() {
        let s = scenario(10, 34);
        let opt = optimizer();
        let (_, fastest_round) = opt.minimize_round_time(&s).unwrap();
        let deadline = fastest_round * s.params.rg() * 2.0;
        let out = opt.solve_with_deadline(&s, deadline).unwrap();
        assert!(
            out.total_time_s <= deadline * 1.01,
            "missed deadline: {} > {}",
            out.total_time_s,
            deadline
        );
        assert!(out.allocation.is_feasible(&s, 1e-5));
    }

    #[test]
    fn looser_deadline_never_costs_more_energy() {
        let s = scenario(10, 35);
        let opt = optimizer();
        let (_, fastest_round) = opt.minimize_round_time(&s).unwrap();
        let base = fastest_round * s.params.rg();
        let tight = opt.solve_with_deadline(&s, base * 1.2).unwrap();
        let loose = opt.solve_with_deadline(&s, base * 3.0).unwrap();
        assert!(
            loose.total_energy_j <= tight.total_energy_j * (1.0 + 0.02),
            "loose {} vs tight {}",
            loose.total_energy_j,
            tight.total_energy_j
        );
    }

    #[test]
    fn impossible_deadline_is_reported() {
        let s = scenario(6, 36);
        let opt = optimizer();
        let err = opt.solve_with_deadline(&s, 1e-3).unwrap_err();
        assert!(matches!(err, CoreError::InfeasibleDeadline { .. }));
        let err = opt.solve_with_deadline(&s, -1.0).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn min_round_time_allocation_is_feasible_and_fast() {
        let s = scenario(12, 37);
        let opt = optimizer();
        let (alloc, round) = opt.minimize_round_time(&s).unwrap();
        assert!(alloc.is_feasible(&s, 1e-5));
        // It should be at least as fast as the naive equal split.
        let naive = s.cost(&Allocation::equal_split_max(&s)).unwrap();
        assert!(round <= naive.round_time_s * (1.0 + 1e-6));
    }

    #[test]
    fn trace_records_iterations_and_best_objective_is_returned() {
        let s = scenario(8, 38);
        let opt = optimizer();
        let out = opt.solve(&s, Weights::balanced()).unwrap();
        assert!(!out.trace.is_empty());
        let best_traced = out.trace.best_objective().unwrap();
        assert!(out.objective <= best_traced * (1.0 + 1e-9));
    }

    /// The paper (Jong) path's continuation: warm matches cold within `outer_tol` and
    /// spends fewer Jong iterations and `μ` evaluations.
    #[test]
    fn warm_start_matches_cold_within_outer_tol_and_saves_iterations() {
        let s = scenario(10, 40);
        let paper = SolverConfig { polish_with_reference: false, ..SolverConfig::fast() };
        let cold_opt = JointOptimizer::new(paper.with_warm_start(false));
        let warm_opt = JointOptimizer::new(paper.with_warm_start(true));
        for w in Weights::paper_sweep() {
            let mut cold_ws = SolverWorkspace::new();
            let mut warm_ws = SolverWorkspace::new();
            let cold = cold_opt.solve_summary_with(&s, w, &mut cold_ws).unwrap();
            let warm = warm_opt.solve_summary_with(&s, w, &mut warm_ws).unwrap();

            let rel = (warm.objective - cold.objective).abs() / cold.objective;
            assert!(
                rel <= cold_opt.config().outer_tol,
                "warm {} vs cold {} (rel {rel}) at {w:?}",
                warm.objective,
                cold.objective
            );
            assert_eq!(warm.converged, cold.converged, "convergence flags diverged at {w:?}");
            assert!(warm_ws.best.is_feasible(&s, 1e-5));

            // The continuation must do less inner work, not just different work.
            assert!(
                warm_ws.counters.jong_iterations <= cold_ws.counters.jong_iterations,
                "warm jong {} > cold {} at {w:?}",
                warm_ws.counters.jong_iterations,
                cold_ws.counters.jong_iterations
            );
            assert!(
                warm_ws.counters.mu_bisect_evals < cold_ws.counters.mu_bisect_evals,
                "warm μ evals {} not below cold {} at {w:?}",
                warm_ws.counters.mu_bisect_evals,
                cold_ws.counters.mu_bisect_evals
            );
        }
    }

    #[test]
    fn warm_start_deadline_variant_meets_deadline_and_matches_cold_energy() {
        let s = scenario(10, 41);
        let cold_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(false));
        let warm_opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let (_, fastest_round) = cold_opt.minimize_round_time(&s).unwrap();
        let deadline = fastest_round * s.params.rg() * 1.8;

        let cold = cold_opt.solve_with_deadline(&s, deadline).unwrap();
        let mut warm_ws = SolverWorkspace::new();
        let warm = warm_opt.solve_with_deadline_summary_in(&s, deadline, &mut warm_ws).unwrap();

        assert!(warm.total_time_s <= deadline * 1.01, "warm run missed the deadline");
        assert!(warm_ws.best.is_feasible(&s, 1e-5));
        let rel = (warm.total_energy_j - cold.total_energy_j).abs() / cold.total_energy_j;
        assert!(
            rel <= 1e-2,
            "warm deadline energy {} vs cold {} (rel {rel})",
            warm.total_energy_j,
            cold.total_energy_j
        );
    }

    #[test]
    fn warm_workspace_is_deterministic_after_reset() {
        // The engine's determinism hinges on reset_warm_start(): a reused warm workspace,
        // once reset, must reproduce the fresh-workspace warm result bit for bit.
        let opt = JointOptimizer::new(SolverConfig::fast().with_warm_start(true));
        let a = scenario(9, 42);
        let b = scenario(6, 43);

        let solve = |s: &Scenario, ws: &mut SolverWorkspace| {
            let summary = opt.solve_summary_with(s, Weights::balanced(), ws).unwrap();
            (summary, ws.best.clone(), ws.trace.clone())
        };
        let fresh = solve(&b, &mut SolverWorkspace::new());
        let mut reused = SolverWorkspace::new();
        solve(&a, &mut reused); // dirty the warm state
        reused.reset_warm_start();
        let after_reset = solve(&b, &mut reused);
        assert_eq!(after_reset, fresh, "reset_warm_start must restore fresh behaviour");
    }

    #[test]
    fn trace_records_sp2_iterations_and_fast_path_hits_are_counted() {
        let s = scenario(8, 44);
        let (_, fastest_round) = optimizer().minimize_round_time(&s).unwrap();
        let deadline = fastest_round * s.params.rg() * 1.8;
        // Both alternations, warm and cold, on both SP2 paths; the deadline runs trace both
        // of their seeds.
        for (warm, polish) in [(true, false), (false, false), (true, true), (false, true)] {
            let config = SolverConfig { polish_with_reference: polish, ..SolverConfig::fast() };
            let opt = JointOptimizer::new(config.with_warm_start(warm));
            for deadline_mode in [false, true] {
                let mut ws = SolverWorkspace::new();
                if deadline_mode {
                    opt.solve_with_deadline_summary_in(&s, deadline, &mut ws).unwrap();
                } else {
                    opt.solve_summary_with(&s, Weights::balanced(), &mut ws).unwrap();
                }
                let run = format!("warm {warm}, price path {polish}, deadline {deadline_mode}");
                assert!(!ws.trace.is_empty(), "{run}");
                assert_eq!(ws.counters.outer_iterations, ws.trace.len() as u64, "{run}");
                // Jong iterations recorded per outer iteration sum to the workspace total.
                let traced: u64 = ws.trace.iter().map(|it| it.sp2_iterations as u64).sum();
                assert_eq!(traced, ws.counters.jong_iterations, "{run}");
                assert_eq!(ws.counters.jong_iterations, ws.counters.kkt_solves, "{run}");
                // The price path never enters the Jong loop; the paper path always does.
                assert_eq!(ws.counters.jong_iterations == 0, polish, "{run}");
                let ks: Vec<usize> = ws.trace.iter().map(|it| it.k).collect();
                assert_eq!(ks, (1..=ws.trace.len()).collect::<Vec<_>>(), "{run}");
            }
        }
    }

    #[test]
    fn rate_floors_shrink_with_looser_deadline() {
        let s = scenario(5, 39);
        let arrays = ScenarioArrays::from_scenario(&s);
        let freqs: Vec<f64> = s.devices.iter().map(|d| d.f_max.value()).collect();
        let floors = |t: f64, out: &mut Vec<f64>| {
            rate_floors_into(&arrays, s.params.rl(), t, &freqs, Weights::balanced(), out)
        };
        let (mut tight, mut loose) = (Vec::new(), Vec::new());
        floors(0.1, &mut tight);
        floors(1.0, &mut loose);
        for (t, l) in tight.iter().zip(&loose) {
            assert!(t > l);
        }
    }
}
