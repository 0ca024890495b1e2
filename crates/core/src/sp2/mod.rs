//! Subproblem 2 — communication-energy minimization over `(p, B)` (a sum-of-ratios problem).
//!
//! With the frequencies and the round deadline `T` fixed by Subproblem 1, the remaining
//! problem (11) is
//!
//! ```text
//! min_{p, B}  w1·R_g·Σ_n p_n·d_n / G_n(p_n, B_n)
//! s.t.        p_n^min ≤ p_n ≤ p_n^max,
//!             Σ_n B_n ≤ B,
//!             G_n(p_n, B_n) ≥ r_n^min := d_n / (T − R_l c_n D_n / f_n).
//! ```
//!
//! [`solve_with_arrays_in`] solves it one of two ways, picked by
//! [`SolverConfig::polish_with_reference`]:
//!
//! * **Exact price solver (`true`, the default).** Once every power sits at its smallest
//!   feasible value the problem is separable and convex in bandwidth, so one bandwidth
//!   price solves it exactly ([`reference`](mod@reference)). No Newton-like loop, no `μ`
//!   root, no polish.
//! * **The paper's path (`false`).** Jong's Newton-like sum-of-ratios loop (the paper's
//!   Algorithm 1, generic outer loop in [`numopt::fractional`]) with the parametric inner
//!   problem `SP2_v2` (equation (21)) solved in closed form by the KKT construction of
//!   Theorem 2 — a root search on the bandwidth multiplier `μ`, the Lambert-W expression
//!   (A.4) for the per-device rate multipliers `τ_n`, closed-form bandwidth for
//!   rate-tight devices and the small LP (A.6) for the rest ([`kkt`]). Only this path
//!   reads [`SolverConfig::jong`], [`SolverConfig::superlinear_mu`],
//!   [`SolverConfig::adaptive_mu_bracket`] and the warm `μ` bracket; it falls back to the
//!   price solver only if the loop itself fails.
//!
//! [`SolverConfig::polish_with_reference`]: crate::SolverConfig
//! [`SolverConfig::jong`]: crate::SolverConfig
//! [`SolverConfig::superlinear_mu`]: crate::SolverConfig
//! [`SolverConfig::adaptive_mu_bracket`]: crate::SolverConfig

pub mod kkt;
pub mod reference;

use crate::config::SolverConfig;
use crate::error::CoreError;
use flsys::{Scenario, ScenarioArrays, Weights};
use kkt::KktScratch;
use numopt::fractional::{solve_sum_of_ratios_warm_in, FractionalProblem, JongScratch, WarmMode};
use numopt::scalar::clamp;
use numopt::NumError;
use std::cell::RefCell;
use wireless::channel::{power_for_rate, shannon_rate_raw};

/// A `(p, B)` point — the decision variables of Subproblem 2.
#[derive(Debug, PartialEq, Default)]
pub struct PowerBandwidth {
    /// Transmit power per device (W).
    pub powers_w: Vec<f64>,
    /// Bandwidth per device (Hz).
    pub bandwidths_hz: Vec<f64>,
}

// Hand-written so `clone_from` reuses capacity via `Vec::clone_from` (the derived fallback
// reallocates; see the equivalent impl on `flsys::Allocation`).
impl Clone for PowerBandwidth {
    fn clone(&self) -> Self {
        Self { powers_w: self.powers_w.clone(), bandwidths_hz: self.bandwidths_hz.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.powers_w.clone_from(&source.powers_w);
        self.bandwidths_hz.clone_from(&source.bandwidths_hz);
    }
}

impl PowerBandwidth {
    /// Creates a point from raw vectors.
    pub fn new(powers_w: Vec<f64>, bandwidths_hz: Vec<f64>) -> Self {
        Self { powers_w, bandwidths_hz }
    }
}

/// The complete scratch state of a Subproblem-2 solve: KKT buffers, the Newton-like outer
/// loop's multiplier/history vectors, the double-buffered `(p, B)` points, and the price
/// solver's per-device bounds.
///
/// Everything is pure scratch in the [`crate::workspace`] sense — [`solve_with_arrays_in`]
/// overwrites or clears each buffer before reading it and resizes per scenario, so one
/// instance serves scenarios of any device count back to back and only capacity survives.
/// The one flow-contract exception is the staged point: the caller stages the starting
/// `(p, B)` with [`Sp2Scratch::stage_start`] immediately before [`solve_with_arrays_in`],
/// and reads the solution back through [`Sp2Scratch::solution`] immediately after.
///
/// With [`SolverConfig::warm_start`] enabled, more pieces deliberately survive between
/// solves and seed the next one: the previous clearing price (price path), the Newton-like
/// loop's converged `(β, ν)` (in the [`JongScratch`]) and the previous `μ` root (in the
/// [`KktScratch`]) on the paper path, and on both the rate floors of the previous solve
/// (`warm_r_min`, gating the fast path). None of them are ever read on the cold path, and
/// [`Sp2Scratch::reset_warm_start`] drops them all — the sweep engine does so at every
/// cell-group boundary so warm-started sweeps stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct Sp2Scratch {
    /// Scratch of the Theorem-2 KKT construction (the parametric inner solver).
    pub kkt: KktScratch,
    /// Scratch of the Newton-like outer loop (the paper's Algorithm 1).
    jong: JongScratch,
    /// Start point in / solution out; doubles as the outer loop's primary point buffer.
    point: PowerBandwidth,
    /// Second half of the outer loop's point double-buffer.
    spare: PowerBandwidth,
    /// Per-device bandwidth bounds of the price solver.
    price_bounds: Vec<f64>,
    /// Warm-start price seed of the price solver.
    price_warm: reference::ReferenceWarmState,
    /// Whether the staged point is the price solver's own last solution (cleared by
    /// [`Sp2Scratch::stage_start`]): the price path's fast path may only return that point.
    price_point_staged: bool,
    /// Rate floors of the previous warm-start solve (the fast path fires only while the
    /// current floors are within [`SolverConfig::warm_rmin_tol`] of these).
    warm_r_min: Vec<f64>,
    /// Whether [`Sp2Scratch::warm_r_min`] holds the floors of a successful previous solve.
    warm_r_min_valid: bool,
}

impl Sp2Scratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages the starting `(p, B)` point for the next [`solve_with_arrays_in`] call
    /// (overwriting whatever point a previous solve left behind).
    ///
    /// Warm-started callers (Algorithm 2 with [`SolverConfig::warm_start`]) skip this
    /// between consecutive solves of the same scenario: the previous solution is already
    /// staged, un-projected — which is exactly what lets the fast path recognise it.
    pub fn stage_start(&mut self, powers_w: &[f64], bandwidths_hz: &[f64]) {
        self.point.powers_w.clear();
        self.point.powers_w.extend_from_slice(powers_w);
        self.point.bandwidths_hz.clear();
        self.point.bandwidths_hz.extend_from_slice(bandwidths_hz);
        self.price_point_staged = false;
    }

    /// The solution point left behind by the last successful [`solve_with_arrays_in`] call.
    pub fn solution(&self) -> &PowerBandwidth {
        &self.point
    }

    /// Drops every piece of carried warm-start state (clearing price, Jong multipliers,
    /// `μ` bracket, rate floors): the next solve behaves as if this scratch had never
    /// solved anything, even with [`SolverConfig::warm_start`] enabled.
    pub fn reset_warm_start(&mut self) {
        self.jong.invalidate_warm();
        self.kkt.reset_warm_start();
        self.price_warm.reset();
        self.warm_r_min_valid = false;
    }

    /// Whether a warm solve with floors `r_min_bps` may skip the solver: the floors are
    /// within [`SolverConfig::warm_rmin_tol`] of the previous successful solve's.
    fn floors_static(&self, r_min_bps: &[f64], config: &SolverConfig) -> bool {
        self.warm_r_min_valid
            && self.warm_r_min.len() == r_min_bps.len()
            && r_min_bps.iter().zip(&self.warm_r_min).all(|(&r, &prev)| {
                (r - prev).abs() <= config.warm_rmin_tol * r.abs().max(prev.abs()).max(1.0)
            })
    }

    /// Records the floors of a successful warm solve for the next fast-path check.
    fn remember_floors(&mut self, r_min_bps: &[f64]) {
        self.warm_r_min.clear();
        self.warm_r_min.extend_from_slice(r_min_bps);
        self.warm_r_min_valid = true;
    }
}

/// The scalar outcome of a Subproblem-2 solve ([`solve_with_arrays_in`]); the solution
/// point stays in the [`Sp2Scratch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sp2Summary {
    /// Per-round communication energy `Σ_n p_n d_n / r_n` at the solution (J), *not* scaled
    /// by `w1 R_g`.
    pub comm_energy_per_round_j: f64,
    /// Whether the solver converged: always on the price path, as reported by the
    /// Newton-like outer loop on the paper path.
    pub converged: bool,
    /// Outer (Algorithm-1) iterations used; `0` on the price path.
    pub iterations: usize,
    /// `true` when the warm-start fast path returned the staged previous solution without
    /// solving: the rate floors had not moved and — on the paper path — the carried
    /// multipliers still satisfied `phi_tol` at the staged point.
    pub fast_path: bool,
    /// Theorem-2 parametric (KKT) solves this call performed.
    pub kkt_solves: u64,
    /// `g'(μ)` evaluations the `μ` root searches of this call performed (bisection or
    /// Brent alike).
    pub mu_bisect_evals: u64,
    /// Step-4b `(ρ, idx)` key sorts this call performed — exactly one per parametric KKT
    /// solve (the LP ordering is `μ`-invariant and is never re-sorted per `g'(μ)` probe).
    pub lp_sorts: u64,
}

/// The Subproblem-2 instance handed to the sum-of-ratios machinery.
pub struct Sp2Problem<'a> {
    scenario: &'a Scenario,
    /// Struct-of-arrays lanes of `scenario` — the layout every hot per-device loop (the
    /// Theorem-2 KKT construction, the rate/energy evaluations of the Newton-like outer
    /// loop, the price solver) reads instead of walking the profile structs.
    arrays: &'a ScenarioArrays,
    /// Constant weight `w1·R_g` multiplying every ratio.
    weight: f64,
    /// Per-device minimum rate `r_n^min` (bit/s); `0` disables the rate constraint.
    r_min_bps: &'a [f64],
    config: &'a SolverConfig,
    /// KKT scratch buffers shared by every [`kkt::solve_parametric_into`] call on this instance
    /// (the Newton-like outer loop makes dozens). `RefCell` because the `FractionalProblem`
    /// trait hands the problem out by shared reference; `Sp2Problem` is not `Sync` and is
    /// never shared across threads.
    scratch: RefCell<KktScratch>,
}

impl<'a> Sp2Problem<'a> {
    /// Builds a Subproblem-2 instance over a scenario and its pre-built lane view
    /// (see [`ScenarioArrays::from_scenario`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Model`] if `r_min_bps` or `arrays` does not match the scenario
    /// size.
    pub fn new(
        scenario: &'a Scenario,
        arrays: &'a ScenarioArrays,
        weights: Weights,
        r_min_bps: &'a [f64],
        config: &'a SolverConfig,
    ) -> Result<Self, CoreError> {
        let n = scenario.devices.len();
        if r_min_bps.len() != n {
            return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
                devices: n,
                got: r_min_bps.len(),
            }));
        }
        if arrays.len() != n {
            return Err(CoreError::Model(flsys::FlError::AllocationSizeMismatch {
                devices: n,
                got: arrays.len(),
            }));
        }
        // A zero energy weight makes the ratio weights vanish and the parametric machinery
        // degenerate; the caller (Algorithm 2) special-cases that, but clamping here keeps
        // this type safe to use directly.
        let weight = (weights.energy() * scenario.params.rg()).max(1e-12);
        Ok(Self { scenario, arrays, weight, r_min_bps, config, scratch: RefCell::default() })
    }

    /// Mutable access to the KKT scratch buffers (for [`kkt::solve_parametric_into`]).
    pub(crate) fn scratch_mut(&self) -> std::cell::RefMut<'_, KktScratch> {
        self.scratch.borrow_mut()
    }

    /// The scenario this instance optimizes.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// The struct-of-arrays lane view of the scenario (same device order).
    pub fn arrays(&self) -> &ScenarioArrays {
        self.arrays
    }

    /// The per-device minimum rates (bit/s).
    pub fn r_min_bps(&self) -> &[f64] {
        self.r_min_bps
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        self.config
    }

    /// Noise power spectral density (W/Hz).
    pub fn n0(&self) -> f64 {
        self.scenario.params.noise.watts_per_hz()
    }

    /// Total bandwidth budget (Hz).
    pub fn total_bandwidth(&self) -> f64 {
        self.scenario.params.total_bandwidth.value()
    }

    /// Shannon rate of device `i` at a point, floored so it is always strictly positive.
    pub fn rate(&self, i: usize, point: &PowerBandwidth) -> f64 {
        let b = point.bandwidths_hz[i].max(self.config.bandwidth_floor_hz);
        let p = point.powers_w[i].max(self.arrays.p_min_w[i].max(1e-9));
        shannon_rate_raw(p, b, self.arrays.gain[i], self.n0()).max(1e-9)
    }

    /// Per-round communication energy `Σ_n p_n d_n / r_n` at a point (J).
    pub fn comm_energy(&self, point: &PowerBandwidth) -> f64 {
        (0..self.arrays.len())
            .map(|i| {
                let d = self.arrays.upload_bits[i];
                point.powers_w[i] * d / self.rate(i, point)
            })
            .sum()
    }

    /// Clamps a candidate point into the feasible set: power boxes, bandwidth floor, total
    /// bandwidth budget, and (best-effort) the per-device rate constraints.
    pub fn sanitize(&self, point: &mut PowerBandwidth) {
        let n = self.arrays.len();
        let floor = self.config.bandwidth_floor_hz;
        let b_total = self.total_bandwidth();
        for i in 0..n {
            let (p_min, p_max) = (self.arrays.p_min_w[i], self.arrays.p_max_w[i]);
            if !point.bandwidths_hz[i].is_finite() || point.bandwidths_hz[i] < floor {
                point.bandwidths_hz[i] = floor;
            }
            if !point.powers_w[i].is_finite() {
                point.powers_w[i] = p_max;
            }
            point.powers_w[i] = clamp(point.powers_w[i], p_min, p_max);
        }
        let sum: f64 = point.bandwidths_hz.iter().sum();
        if sum > b_total {
            let scale = b_total / sum;
            for b in &mut point.bandwidths_hz {
                *b = (*b * scale).max(floor.min(b_total / n as f64));
            }
        }
        // Best-effort rate repair: raise power (never bandwidth, which is budgeted) until the
        // rate constraint holds or the power box is exhausted.
        for i in 0..n {
            if self.r_min_bps[i] <= 0.0 {
                continue;
            }
            let b = point.bandwidths_hz[i];
            let needed = power_for_rate(self.r_min_bps[i], b, self.arrays.gain[i], self.n0());
            if needed > point.powers_w[i] {
                point.powers_w[i] = clamp(needed, self.arrays.p_min_w[i], self.arrays.p_max_w[i]);
            }
        }
    }
}

impl FractionalProblem for Sp2Problem<'_> {
    type Point = PowerBandwidth;

    fn len(&self) -> usize {
        self.scenario.devices.len()
    }

    fn ratio_weight(&self, _i: usize) -> f64 {
        self.weight
    }

    fn numerator(&self, i: usize, x: &PowerBandwidth) -> f64 {
        x.powers_w[i] * self.arrays.upload_bits[i]
    }

    fn denominator(&self, i: usize, x: &PowerBandwidth) -> f64 {
        self.rate(i, x)
    }

    fn solve_parametric_into(
        &self,
        nu: &[f64],
        beta: &[f64],
        out: &mut PowerBandwidth,
    ) -> Result<(), NumError> {
        kkt::solve_parametric_into(self, nu, beta, out)
    }
}

/// Solves Subproblem 2 from the point staged via [`Sp2Scratch::stage_start`] and leaves the
/// solution in [`Sp2Scratch::solution`], performing **zero heap allocations in steady
/// state** (after the scratch buffers have grown to the scenario's device count once).
///
/// With [`SolverConfig::polish_with_reference`] set (the default) this runs only the exact
/// price solver ([`reference::solve_reference_into`]); the staged point matters only to
/// the warm fast path. Otherwise it runs the paper's Algorithm 1 (Newton-like
/// sum-of-ratios loop with the Theorem-2 KKT inner solver) from the staged point, falling
/// back to the price solver if that loop fails. `arrays` is the caller-held lane view of
/// `scenario` (same devices, same order): Algorithm 2 builds it once per scenario and
/// reuses it across every outer iteration.
///
/// # Errors
///
/// Returns [`CoreError::Model`] for shape mismatches (`r_min_bps` or `arrays` against the
/// scenario), [`CoreError::Numerical`] if the price solver fails on the default path (only
/// on non-finite inputs), and [`CoreError::SolverFailure`] if both the Newton-like path
/// and its fallback fail. On error the staged point's contents are unspecified.
///
/// [`SolverConfig::polish_with_reference`]: crate::SolverConfig
pub fn solve_with_arrays_in(
    scenario: &Scenario,
    arrays: &ScenarioArrays,
    weights: Weights,
    r_min_bps: &[f64],
    config: &SolverConfig,
    scratch: &mut Sp2Scratch,
) -> Result<Sp2Summary, CoreError> {
    let problem = Sp2Problem::new(scenario, arrays, weights, r_min_bps, config)?;
    if config.polish_with_reference {
        solve_price_in(&problem, scratch)
    } else {
        solve_jong_in(&problem, scratch)
    }
}

/// The default path: the exact price solver, or — warm, with the floors within
/// [`SolverConfig::warm_rmin_tol`] of those it last solved for and its own solution still
/// staged — that solution, repaired to the current floors by the sanitize pass. The fast
/// path keeps the solved-for floors as its reference, so floors creeping across many
/// calls still force a solve.
fn solve_price_in(
    problem: &Sp2Problem<'_>,
    scratch: &mut Sp2Scratch,
) -> Result<Sp2Summary, CoreError> {
    let config = problem.config();
    let fast_path = config.warm_start
        && scratch.price_point_staged
        && scratch.floors_static(problem.r_min_bps(), config);
    scratch.price_point_staged = false; // set again below on success
    if fast_path {
        problem.sanitize(&mut scratch.point);
    } else {
        scratch.warm_r_min_valid = false;
        let Sp2Scratch { point, price_bounds, price_warm, .. } = &mut *scratch;
        reference::solve_reference_into(problem, point, price_bounds, price_warm)?;
        if config.warm_start {
            scratch.remember_floors(problem.r_min_bps());
        }
    }
    let energy = problem.comm_energy(&scratch.point);
    if !energy.is_finite() {
        return Err(CoreError::Numerical(NumError::NonFiniteValue { at: energy }));
    }
    scratch.price_point_staged = true;
    Ok(Sp2Summary {
        comm_energy_per_round_j: energy,
        converged: true,
        iterations: 0,
        fast_path,
        kkt_solves: 0,
        mu_bisect_evals: 0,
        lp_sorts: 0,
    })
}

/// The paper's path: Jong's Newton-like loop over Theorem-2 KKT solves, from the staged
/// point, with the price solver as the fallback should the loop fail.
fn solve_jong_in(
    problem: &Sp2Problem<'_>,
    scratch: &mut Sp2Scratch,
) -> Result<Sp2Summary, CoreError> {
    let config = problem.config();
    // Lend the caller's KKT buffers to this problem instance for the duration of the solve;
    // they are swapped back (with whatever capacity they grew) before returning.
    std::mem::swap(&mut *problem.scratch_mut(), &mut scratch.kkt);
    let kkt_solves_before = problem.scratch_mut().parametric_solves;
    let mu_evals_before = problem.scratch_mut().mu_bisect_evals;
    let lp_sorts_before = problem.scratch_mut().lp_sorts;
    scratch.price_point_staged = false;

    // Warm mode: carry the previous solve's (β, ν) whenever warm start is enabled; allow
    // the loop-skipping fast path only while the rate floors — the one part of the
    // constraint set ϕ cannot see — are still where the carried multipliers left them.
    let mode = if !config.warm_start {
        WarmMode::Cold
    } else if scratch.floors_static(problem.r_min_bps(), config) {
        WarmMode::FastPath
    } else {
        WarmMode::Multipliers
    };
    scratch.warm_r_min_valid = false; // revalidated below on success

    let Sp2Scratch { jong, point, spare, price_bounds, price_warm, .. } = &mut *scratch;
    problem.sanitize(point);
    // Newton-like path, running in place on the staged point (double-buffered with `spare`).
    let newton = solve_sum_of_ratios_warm_in(problem, point, spare, config.jong, jong, mode);

    let mut energy = f64::NAN;
    let mut converged = false;
    let mut iterations = 0;
    let mut fast_path = false;
    if let Ok(summary) = newton {
        problem.sanitize(point);
        energy = problem.comm_energy(point);
        fast_path = summary.iterations == 0 && summary.converged;
        converged = summary.converged;
        iterations = summary.iterations;
    }
    if !energy.is_finite()
        && reference::solve_reference_into(problem, point, price_bounds, price_warm).is_ok()
    {
        energy = problem.comm_energy(point);
        (converged, iterations, fast_path) = (false, 0, false);
    }

    std::mem::swap(&mut *problem.scratch_mut(), &mut scratch.kkt);
    if !energy.is_finite() {
        return Err(CoreError::SolverFailure(
            "both the Newton-like and the price Subproblem-2 solvers failed".to_string(),
        ));
    }
    if config.warm_start {
        scratch.remember_floors(problem.r_min_bps());
    }

    Ok(Sp2Summary {
        comm_energy_per_round_j: energy,
        converged,
        iterations,
        fast_path,
        kkt_solves: scratch.kkt.parametric_solves - kkt_solves_before,
        mu_bisect_evals: scratch.kkt.mu_bisect_evals - mu_evals_before,
        lp_sorts: scratch.kkt.lp_sorts - lp_sorts_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsys::{Allocation, ScenarioBuilder};

    fn setup(n: usize, seed: u64) -> (Scenario, SolverConfig) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        (s, SolverConfig::default())
    }

    fn equal_start(s: &Scenario) -> PowerBandwidth {
        let a = Allocation::equal_split_max(s);
        PowerBandwidth::new(a.powers_w, a.bandwidths_hz)
    }

    /// Solves from `start` on a fresh scratch: the summary and the solution point.
    fn solve(
        s: &Scenario,
        weights: Weights,
        r_min: &[f64],
        start: &PowerBandwidth,
        cfg: &SolverConfig,
    ) -> Result<(Sp2Summary, PowerBandwidth), CoreError> {
        let mut scratch = Sp2Scratch::new();
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let summary = solve_staged(s, weights, r_min, cfg, &mut scratch)?;
        Ok((summary, scratch.solution().clone()))
    }

    /// [`solve_with_arrays_in`] from the point already staged in `scratch`.
    fn solve_staged(
        s: &Scenario,
        weights: Weights,
        r_min: &[f64],
        cfg: &SolverConfig,
        scratch: &mut Sp2Scratch,
    ) -> Result<Sp2Summary, CoreError> {
        let arrays = ScenarioArrays::from_scenario(s);
        solve_with_arrays_in(s, &arrays, weights, r_min, cfg, scratch)
    }

    fn loose_r_min(s: &Scenario) -> Vec<f64> {
        // A rate floor that equal-split max power comfortably exceeds.
        vec![1.0e5; s.devices.len()]
    }

    #[test]
    fn solve_reduces_comm_energy_vs_start() {
        let (s, cfg) = setup(10, 1);
        let arrays = ScenarioArrays::from_scenario(&s);
        let start = equal_start(&s);
        let r_min = loose_r_min(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let start_energy = problem.comm_energy(&start);
        let (sol, _) = solve(&s, Weights::balanced(), &r_min, &start, &cfg).unwrap();
        assert!(
            sol.comm_energy_per_round_j <= start_energy * (1.0 + 1e-9),
            "sp2 {} should not exceed start {}",
            sol.comm_energy_per_round_j,
            start_energy
        );
    }

    #[test]
    fn solution_is_feasible() {
        let (s, cfg) = setup(12, 2);
        let (_, sol) =
            solve(&s, Weights::balanced(), &loose_r_min(&s), &equal_start(&s), &cfg).unwrap();
        let b_sum: f64 = sol.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        for (i, dev) in s.devices.iter().enumerate() {
            assert!(sol.powers_w[i] >= dev.p_min.value() - 1e-12);
            assert!(sol.powers_w[i] <= dev.p_max.value() + 1e-12);
            assert!(sol.bandwidths_hz[i] > 0.0);
        }
    }

    #[test]
    fn rate_constraints_respected_when_feasible() {
        let (s, cfg) = setup(8, 3);
        // Moderate rate floor: 28.1 kbit in at most 50 ms.
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        let (_, sol) = solve(&s, Weights::balanced(), &r_min, &equal_start(&s), &cfg).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let rate =
                shannon_rate_raw(sol.powers_w[i], sol.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(
                rate >= r_min[i] * (1.0 - 1e-3),
                "device {i}: rate {rate} below floor {}",
                r_min[i]
            );
        }
    }

    #[test]
    fn newton_and_reference_agree_roughly() {
        // Use a scarce band and a binding rate floor (the regime Algorithm 2 actually operates
        // in: the deadline from Subproblem 1 makes every device's rate constraint
        // meaningful). In the loose-constraint corner the Theorem-2 construction is known to
        // be weaker, one reason the exact price solver is the default.
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(4)
            .unwrap();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let start = equal_start(&s);

        let cfg_newton = SolverConfig { polish_with_reference: false, ..SolverConfig::default() };
        let (newton, _) = solve(&s, Weights::balanced(), &r_min, &start, &cfg_newton).unwrap();

        let cfg = SolverConfig::default();
        let arrays = ScenarioArrays::from_scenario(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let mut reference = PowerBandwidth::default();
        reference::solve_reference_into(
            &problem,
            &mut reference,
            &mut Vec::new(),
            &mut reference::ReferenceWarmState::default(),
        )
        .unwrap();
        let ref_energy = problem.comm_energy(&reference);

        let ratio = newton.comm_energy_per_round_j / ref_energy;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "newton {} vs reference {} (ratio {ratio})",
            newton.comm_energy_per_round_j,
            ref_energy
        );
    }

    #[test]
    fn mismatched_r_min_length_is_error() {
        let (s, cfg) = setup(4, 5);
        let err = solve(&s, Weights::balanced(), &[1.0; 3], &equal_start(&s), &cfg).unwrap_err();
        assert!(matches!(err, CoreError::Model(_)));
    }

    #[test]
    fn sanitize_repairs_pathological_points() {
        let (s, cfg) = setup(5, 6);
        let arrays = ScenarioArrays::from_scenario(&s);
        let r_min = loose_r_min(&s);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let n = s.devices.len();
        let mut bad = PowerBandwidth::new(vec![f64::NAN; n], vec![-1.0; n]);
        problem.sanitize(&mut bad);
        for i in 0..n {
            assert!(bad.powers_w[i].is_finite());
            assert!(bad.bandwidths_hz[i] >= cfg.bandwidth_floor_hz);
        }
        let b_sum: f64 = bad.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-9));
    }

    /// The paper (Jong) path's fast path: the carried multipliers satisfy `phi_tol` at the
    /// staged previous solution, so an unchanged problem skips the Newton loop.
    #[test]
    fn warm_start_fast_path_fires_on_a_repeated_solve() {
        let (s, cfg) = setup(10, 8);
        let cfg = SolverConfig { polish_with_reference: false, ..cfg.with_warm_start(true) };
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        let mut scratch = Sp2Scratch::new();
        let start = equal_start(&s);
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let first = solve_staged(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(!first.fast_path);
        assert!(first.kkt_solves >= 1);

        // Same floors, solution still staged: the carried multipliers satisfy phi at the
        // staged point, so the whole Newton loop is skipped.
        let second = solve_staged(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(second.fast_path, "expected the fast path on an unchanged problem");
        assert_eq!(second.iterations, 0);
        assert_eq!(second.kkt_solves, 0);
        assert_eq!(second.comm_energy_per_round_j, first.comm_energy_per_round_j);

        // Moving the rate floors beyond warm_rmin_tol must disarm the fast path.
        let moved: Vec<f64> = r_min.iter().map(|r| r * 1.05).collect();
        let third = solve_staged(&s, Weights::balanced(), &moved, &cfg, &mut scratch).unwrap();
        assert!(!third.fast_path, "5% floor move must force a real solve");

        // And a warm-state reset restores cold-start behaviour entirely.
        scratch.reset_warm_start();
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let fourth = solve_staged(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(!fourth.fast_path);
        assert!(fourth.iterations >= 1);
    }

    #[test]
    fn warm_and_cold_solves_agree_on_energy_within_tolerance() {
        let (s, cfg) = setup(12, 9);
        let cold_cfg = cfg.with_warm_start(false);
        let warm_cfg = cfg.with_warm_start(true);
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.04).collect();

        let mut cold_scratch = Sp2Scratch::new();
        let start = equal_start(&s);
        cold_scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let cold =
            solve_staged(&s, Weights::balanced(), &r_min, &cold_cfg, &mut cold_scratch).unwrap();

        // Dirty the warm scratch with a neighbouring problem first, then solve the real one:
        // the carried multipliers/brackets must not pull the result off the fixed point.
        let mut warm_scratch = Sp2Scratch::new();
        let near: Vec<f64> = r_min.iter().map(|r| r * 1.02).collect();
        warm_scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        solve_staged(&s, Weights::balanced(), &near, &warm_cfg, &mut warm_scratch).unwrap();
        let warm =
            solve_staged(&s, Weights::balanced(), &r_min, &warm_cfg, &mut warm_scratch).unwrap();

        let rel = (warm.comm_energy_per_round_j - cold.comm_energy_per_round_j).abs()
            / cold.comm_energy_per_round_j;
        assert!(
            rel <= 1e-3,
            "warm {} vs cold {} (rel {rel})",
            warm.comm_energy_per_round_j,
            cold.comm_energy_per_round_j
        );
    }

    /// The price path's fast path: a warm repeat with the solution still staged returns it
    /// without solving; moved floors, a restaged start or a reset force a real solve.
    #[test]
    fn price_path_fast_path_fires_on_a_repeated_solve() {
        let (s, cfg) = setup(10, 8);
        let cfg = cfg.with_warm_start(true);
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.05).collect();
        let mut scratch = Sp2Scratch::new();
        let start = equal_start(&s);
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let first = solve_staged(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(!first.fast_path);
        assert_eq!((first.iterations, first.kkt_solves, first.mu_bisect_evals), (0, 0, 0));
        let solved = scratch.solution().clone();

        let second = solve_staged(&s, Weights::balanced(), &r_min, &cfg, &mut scratch).unwrap();
        assert!(second.fast_path, "expected the fast path on an unchanged problem");
        assert_eq!(second.comm_energy_per_round_j, first.comm_energy_per_round_j);
        assert_eq!(scratch.solution(), &solved);

        // Floors creeping by 0.6·tol a call: the first step stays on the fast path, the
        // second is 1.2·tol from the floors last solved for and must solve.
        let creep = |k: f64| -> Vec<f64> {
            r_min.iter().map(|r| r * (1.0 + k * 0.6 * cfg.warm_rmin_tol)).collect()
        };
        let step1 = solve_staged(&s, Weights::balanced(), &creep(1.0), &cfg, &mut scratch);
        assert!(step1.unwrap().fast_path, "a sub-tolerance floor move keeps the fast path");
        let step2 = solve_staged(&s, Weights::balanced(), &creep(2.0), &cfg, &mut scratch);
        assert!(!step2.unwrap().fast_path, "creeping floors must not dodge a solve forever");

        let moved: Vec<f64> = r_min.iter().map(|r| r * 1.05).collect();
        let third = solve_staged(&s, Weights::balanced(), &moved, &cfg, &mut scratch).unwrap();
        assert!(!third.fast_path, "5% floor move must force a real solve");

        // A restaged start is not the solver's own point, so it must be solved from.
        scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
        let fourth = solve_staged(&s, Weights::balanced(), &moved, &cfg, &mut scratch).unwrap();
        assert!(!fourth.fast_path, "a restaged start must never be returned as the solution");

        scratch.reset_warm_start();
        let fifth = solve_staged(&s, Weights::balanced(), &moved, &cfg, &mut scratch).unwrap();
        assert!(!fifth.fast_path, "a warm-state reset must force a real solve");

        // Cold solves never take it.
        let cold = cfg.with_warm_start(false);
        solve_staged(&s, Weights::balanced(), &r_min, &cold, &mut scratch).unwrap();
        let again = solve_staged(&s, Weights::balanced(), &r_min, &cold, &mut scratch).unwrap();
        assert!(!again.fast_path);
    }

    /// No floor-meeting Jong point is cheaper than the price point: across seeds, device
    /// counts and windows, the paper path's answer either misses a floor or costs at least
    /// the price point's energy (to 1e-9 relative).
    #[test]
    fn no_floor_meeting_jong_point_beats_the_price_point() {
        let mut compared = 0;
        for (n, window) in [(3, 0.05), (10, 0.02), (10, 0.2), (50, 0.01), (50, 0.1)] {
            for seed in 0..8 {
                let (s, cfg) = setup(n, seed);
                let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / window).collect();
                let start = equal_start(&s);
                let jong_cfg = SolverConfig { polish_with_reference: false, ..cfg };
                let (jong, jong_point) =
                    solve(&s, Weights::balanced(), &r_min, &start, &jong_cfg).unwrap();
                let (price, _) = solve(&s, Weights::balanced(), &r_min, &start, &cfg).unwrap();
                let n0 = s.params.noise.watts_per_hz();
                let meets_floors = s.devices.iter().enumerate().all(|(i, dev)| {
                    let rate = shannon_rate_raw(
                        jong_point.powers_w[i],
                        jong_point.bandwidths_hz[i],
                        dev.gain.value(),
                        n0,
                    );
                    rate >= r_min[i] * (1.0 - cfg.feasibility_tol)
                });
                if meets_floors {
                    compared += 1;
                    assert!(
                        price.comm_energy_per_round_j
                            <= jong.comm_energy_per_round_j * (1.0 + 1e-9),
                        "n {n}, seed {seed}, window {window}: price {} above Jong {}",
                        price.comm_energy_per_round_j,
                        jong.comm_energy_per_round_j
                    );
                }
            }
        }
        assert!(compared >= 10, "only {compared} floor-meeting Jong points to compare against");
    }

    #[test]
    fn warm_start_spends_fewer_mu_bisection_evals() {
        let (s, cfg) = setup(10, 10);
        let cfg = SolverConfig { polish_with_reference: false, ..cfg };
        let cold_cfg = cfg.with_warm_start(false);
        let warm_cfg = cfg.with_warm_start(true);
        let start = equal_start(&s);

        let run = |cfg: &SolverConfig| -> (u64, u64) {
            let mut scratch = Sp2Scratch::new();
            let mut mu = 0;
            let mut kkt = 0;
            // Re-stage every time (so no fast path): isolate the μ-bracket carry.
            for window in [0.050, 0.0502, 0.0504] {
                let floors: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / window).collect();
                scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
                let out =
                    solve_staged(&s, Weights::balanced(), &floors, cfg, &mut scratch).unwrap();
                mu += out.mu_bisect_evals;
                kkt += out.kkt_solves;
            }
            (mu, kkt)
        };
        let (cold_mu, cold_kkt) = run(&cold_cfg);
        let (warm_mu, warm_kkt) = run(&warm_cfg);
        assert!(cold_kkt > 0 && warm_kkt > 0);
        assert!(
            warm_mu < cold_mu,
            "warm μ-bracket reuse must save g'(μ) evaluations: warm {warm_mu} vs cold {cold_mu}"
        );
    }

    /// Smallest bandwidth at which device `i` meets `r` at full power (bisection; the test
    /// oracle for "is this floor satisfiable at all").
    fn b_lo_at_p_max(s: &Scenario, i: usize, r: f64) -> f64 {
        let dev = &s.devices[i];
        let n0 = s.params.noise.watts_per_hz();
        let (mut lo, mut hi) = (0.0, s.params.total_bandwidth.value());
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if shannon_rate_raw(dev.p_max.value(), mid, dev.gain.value(), n0) >= r {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Regression: the default Subproblem-2 point must meet every rate floor whenever the
    /// floors fit in the band at full power. The Newton-plus-polish default kept a Jong
    /// point that missed one device's floor by 28% (seed 0) and 27.6% (seed 10) here,
    /// because it compared candidates on energy alone.
    #[test]
    fn default_point_meets_every_satisfiable_rate_floor() {
        for seed in [0, 10] {
            let (s, cfg) = setup(50, seed);
            let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.01).collect();
            let lo_sum: f64 = (0..s.devices.len()).map(|i| b_lo_at_p_max(&s, i, r_min[i])).sum();
            assert!(lo_sum < s.params.total_bandwidth.value(), "seed {seed}: floors unsatisfiable");
            let n0 = s.params.noise.watts_per_hz();
            for warm in [true, false] {
                let cfg = cfg.with_warm_start(warm);
                let (_, sol) =
                    solve(&s, Weights::balanced(), &r_min, &equal_start(&s), &cfg).unwrap();
                for (i, dev) in s.devices.iter().enumerate() {
                    let rate = shannon_rate_raw(
                        sol.powers_w[i],
                        sol.bandwidths_hz[i],
                        dev.gain.value(),
                        n0,
                    );
                    assert!(
                        rate >= r_min[i] * (1.0 - cfg.feasibility_tol),
                        "seed {seed}, warm {warm}, device {i}: rate {rate} misses floor {} by {:.3}%",
                        r_min[i],
                        100.0 * (1.0 - rate / r_min[i])
                    );
                }
            }
        }
    }

    #[test]
    fn tighter_rate_floor_costs_more_energy() {
        let (s, cfg) = setup(10, 7);
        let loose: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.2).collect();
        let tight: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.01).collect();
        let e_loose = solve(&s, Weights::balanced(), &loose, &equal_start(&s), &cfg)
            .unwrap()
            .0
            .comm_energy_per_round_j;
        let e_tight = solve(&s, Weights::balanced(), &tight, &equal_start(&s), &cfg)
            .unwrap()
            .0
            .comm_energy_per_round_j;
        assert!(
            e_tight >= e_loose * (1.0 - 1e-6),
            "tight deadline energy {e_tight} should be at least loose {e_loose}"
        );
    }
}
