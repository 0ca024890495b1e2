//! Solver configuration.

use numopt::JongConfig;
use serde::{Deserialize, Serialize};

/// Tunables of the resource-allocation solver (Algorithm 2 and its subproblem solvers).
///
/// The defaults reproduce the paper's setup; they are deliberately conservative so that the
/// evaluation harness never trips over a half-converged inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Maximum outer iterations `K` of Algorithm 2 (alternating Subproblem 1 / Subproblem 2).
    pub outer_max_iter: usize,
    /// Outer convergence tolerance `ε₀` on the normalized change of the solution vector.
    pub outer_tol: f64,
    /// Newton-like loop settings for Subproblem 2 (the paper's Algorithm 1).
    #[serde(skip, default = "default_jong")]
    pub jong: JongConfig,
    /// Relative tolerance of the root search that finds the bandwidth-budget multiplier `μ`
    /// (Brent by default, pure bisection with [`SolverConfig::superlinear_mu`] off),
    /// relative to the upper end of the conservative `μ` bracket.
    pub mu_tol: f64,
    /// Tolerance of the one-dimensional searches (Subproblem 1 over `T`, baselines).
    pub scalar_tol: f64,
    /// Feasibility tolerance used when validating the final allocation.
    pub feasibility_tol: f64,
    /// Lower floor on any device's bandwidth share in hertz (keeps Shannon rates strictly
    /// positive so the sum-of-ratios denominators never vanish).
    pub bandwidth_floor_hz: f64,
    /// If `true`, Subproblem 2 cross-checks the Newton-like (Theorem 2) solution against a
    /// direct reference solver and keeps whichever attains lower communication energy.
    pub polish_with_reference: bool,
    /// Enables the warm-start continuation through the solver stack: Subproblem 2 seeds its
    /// Newton-like loop with the previous solve's `(β, ν)` multipliers, reuses the previous
    /// `μ`-root bracket, skips the loop entirely once the rate floors stop moving (see
    /// [`SolverConfig::warm_rmin_tol`]), Subproblem 1 narrows its golden-section bracket
    /// around the previous round time, and Algorithm 2 carries the previous `(p, B)`
    /// iterate between outer iterations instead of restaging it.
    ///
    /// `true` (the default) is the production path: the solver converges to the same fixed
    /// point within the configured tolerances (`outer_tol`, `jong.phi_tol`) along a cheaper
    /// trajectory, so the last bits of the result may differ from the cold path; results
    /// can also depend on what a reused [`SolverWorkspace`](crate::SolverWorkspace) solved
    /// last (the sweep engine resets that state at every cell-group boundary to stay
    /// deterministic). `false` is the bit-exact cold reference path: no warm state is ever
    /// read and results are identical to a solver without the continuation — the sweep
    /// engine's `FEDOPT_WARM_START=0` escape hatch forces it sweep-wide.
    #[serde(default)]
    pub warm_start: bool,
    /// Finds the Theorem-2 bandwidth multiplier `μ` with the superlinear Brent iteration
    /// instead of pure bisection (same bracket, same tolerance, bisection safeguard inside
    /// the step — see `numopt::roots::brent`). `true` (the default) typically cuts the
    /// `g'(μ)` evaluation count by an order of magnitude; `false` is the legacy
    /// pure-bisection path, pinned bit-identical by regression goldens. Both paths clamp
    /// identically when the budget constraint is inactive, and the drift between them is
    /// bounded by the `mu_tol`-wide final bracket, i.e. within the solver's own tolerance.
    #[serde(default = "default_superlinear_mu")]
    pub superlinear_mu: bool,
    /// Carries the *width* of the converged warm `μ` bracket across parametric solves in
    /// addition to its center ([`KktScratch`](crate::KktScratch) already carries the
    /// previous root). The first warm bracket after a reset still opens at the
    /// conservative relative half-width `1e-3`; afterwards the width adapts to how far
    /// the root actually moved last time (clamped to `[1e-5, 1e-3]`), so near-stationary
    /// arms validate their bracket with probes that are three orders of magnitude
    /// tighter and the Brent refinement starts essentially converged. `true` (the
    /// default) only changes *which* bracket the warm path searches — the tolerance and
    /// the cold fallback are untouched, so drift stays within the solver's own `mu_tol`
    /// band; `false` restores the fixed-width warm bracket bit-exactly (the gate works
    /// like [`SolverConfig::superlinear_mu`]). Only read when
    /// [`SolverConfig::warm_start`] is set.
    #[serde(default = "default_adaptive_mu_bracket")]
    pub adaptive_mu_bracket: bool,
    /// Maximum relative drift of Subproblem 2's rate floors `r_n^min` (against the previous
    /// solve's floors) under which the warm-start fast path may skip the Newton-like loop.
    /// Only read when [`SolverConfig::warm_start`] is set. The fast path additionally
    /// requires the carried multipliers to satisfy `jong.phi_tol` at the staged point, so
    /// this bound caps the *constraint* staleness the skip can hide; the objective error it
    /// admits is of the same relative order. The defaults therefore track `outer_tol` — a
    /// rate-floor movement the outer alternation itself would already call converged is the
    /// natural definition of "the denominators stopped moving".
    #[serde(default = "default_warm_rmin_tol")]
    pub warm_rmin_tol: f64,
    /// Starts Algorithm 2's weighted outer loop from the workspace's carried best
    /// allocation ([`SolverWorkspace::best`](crate::SolverWorkspace::best)) instead of the
    /// equal-split initial point, when that allocation matches the scenario's device
    /// count. Combined with [`SolverConfig::warm_start`], a re-solve of the *same*
    /// problem then opens at the converged point with matching rate floors, Subproblem
    /// 2's fast path fires on the first outer iteration, and the loop converges
    /// immediately — zero Jong iterations for an identical repeat.
    ///
    /// `false` (the default) keeps the textbook initialization: every solve's trajectory
    /// is independent of what the workspace solved before, which is what sweeps pin
    /// their goldens against. Serving layers that key workspace reuse by request
    /// fingerprint are the intended consumer: they guarantee the carried best belongs to
    /// the same problem, so continuation is a pure speedup toward the same fixed point
    /// (within `outer_tol`). Only read when [`SolverConfig::warm_start`] is set.
    #[serde(default)]
    pub outer_continuation: bool,
}

fn default_jong() -> JongConfig {
    JongConfig::default()
}

fn default_warm_rmin_tol() -> f64 {
    1.0e-4
}

fn default_superlinear_mu() -> bool {
    true
}

fn default_adaptive_mu_bracket() -> bool {
    true
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            outer_max_iter: 25,
            outer_tol: 1.0e-4,
            jong: default_jong(),
            mu_tol: 1.0e-11,
            scalar_tol: 1.0e-7,
            feasibility_tol: 1.0e-6,
            bandwidth_floor_hz: 1.0,
            polish_with_reference: true,
            warm_start: true,
            warm_rmin_tol: default_warm_rmin_tol(),
            superlinear_mu: default_superlinear_mu(),
            adaptive_mu_bracket: default_adaptive_mu_bracket(),
            outer_continuation: false,
        }
    }
}

impl SolverConfig {
    /// A faster, looser configuration for benchmarks and large sweeps.
    pub fn fast() -> Self {
        Self {
            outer_max_iter: 10,
            outer_tol: 1.0e-3,
            jong: JongConfig { max_iter: 25, phi_tol: 1.0e-6, ..JongConfig::default() },
            mu_tol: 1.0e-9,
            scalar_tol: 1.0e-6,
            warm_rmin_tol: 1.0e-3,
            ..Self::default()
        }
    }

    /// This configuration with the warm-start continuation switched on or off.
    #[must_use]
    pub fn with_warm_start(self, warm_start: bool) -> Self {
        Self { warm_start, ..self }
    }

    /// This configuration with the superlinear `μ`-root step switched on or off
    /// (`false` = the legacy pure-bisection path; see [`SolverConfig::superlinear_mu`]).
    #[must_use]
    pub fn with_superlinear_mu(self, superlinear_mu: bool) -> Self {
        Self { superlinear_mu, ..self }
    }

    /// This configuration with the adaptive warm `μ`-bracket width switched on or off
    /// (`false` = the fixed `1e-3` warm bracket; see
    /// [`SolverConfig::adaptive_mu_bracket`]).
    #[must_use]
    pub fn with_adaptive_mu_bracket(self, adaptive_mu_bracket: bool) -> Self {
        Self { adaptive_mu_bracket, ..self }
    }

    /// This configuration with the outer-loop continuation switched on or off
    /// (`false` = the independent-trajectory initialization; see
    /// [`SolverConfig::outer_continuation`]).
    #[must_use]
    pub fn with_outer_continuation(self, outer_continuation: bool) -> Self {
        Self { outer_continuation, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sensible() {
        let c = SolverConfig::default();
        assert!(c.outer_max_iter >= 5);
        assert!(c.outer_tol > 0.0 && c.outer_tol < 1.0);
        assert!(c.bandwidth_floor_hz > 0.0);
        assert!(c.polish_with_reference);
    }

    #[test]
    fn fast_is_looser_than_default() {
        let fast = SolverConfig::fast();
        let def = SolverConfig::default();
        assert!(fast.outer_max_iter <= def.outer_max_iter);
        assert!(fast.outer_tol >= def.outer_tol);
    }

    #[test]
    fn warm_start_defaults_on_and_rmin_tol_tracks_outer_tol() {
        let def = SolverConfig::default();
        assert!(def.warm_start, "warm start is the library-wide default since PR 6");
        assert_eq!(def.warm_rmin_tol, def.outer_tol);
        let fast = SolverConfig::fast();
        assert!(fast.warm_start);
        assert_eq!(fast.warm_rmin_tol, fast.outer_tol);
        assert!(!SolverConfig::default().with_warm_start(false).warm_start);
    }

    #[test]
    fn superlinear_mu_defaults_on_with_a_legacy_gate() {
        assert!(SolverConfig::default().superlinear_mu);
        assert!(SolverConfig::fast().superlinear_mu);
        let legacy = SolverConfig::default().with_superlinear_mu(false);
        assert!(!legacy.superlinear_mu, "the pure-bisection gate must stay selectable");
        assert_eq!(legacy.with_superlinear_mu(true), SolverConfig::default());
    }
}
