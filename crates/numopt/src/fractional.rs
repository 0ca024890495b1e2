//! Generic sum-of-ratios (fractional programming) solver.
//!
//! Subproblem 2 of the paper,
//! `min Σ_n w·p_n d_n / G_n(p_n, B_n)`, is a *sum-of-ratios* problem — NP-hard in general but
//! tractable here because every numerator is convex, every denominator is concave and
//! positive, and the feasible set is convex. The paper (following Y. Jong, *"An efficient
//! global optimization algorithm for nonlinear sum-of-ratios problem"*, 2012) converts it to a
//! parametric subtractive form and drives the parameters `(β, ν)` to a fixed point with a
//! damped Newton step (the paper's Algorithm 1, equations (24)–(31)).
//!
//! This module implements that outer loop generically: the caller supplies the numerators,
//! denominators and a solver for the parametric subproblem
//! `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))`, and [`solve_sum_of_ratios_warm_in`] handles the
//! Newton-like updates, the damping line search (29), and convergence bookkeeping.

use crate::error::NumError;

/// A sum-of-ratios minimization problem `min_x Σ_i w_i · n_i(x) / d_i(x)` over a convex set.
///
/// Implementors must guarantee, for every feasible `x` they ever return from
/// [`FractionalProblem::solve_parametric_into`]:
///
/// * `d_i(x) > 0` (denominators strictly positive),
/// * numerators and denominators finite.
pub trait FractionalProblem {
    /// Decision-variable type (e.g. a vector of per-device `(p, B)` pairs).
    type Point: Clone;

    /// Number of ratios `i = 0..len`.
    fn len(&self) -> usize;

    /// Returns `true` if the problem has no ratios.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant weight `w_i` multiplying ratio `i` in the objective.
    fn ratio_weight(&self, i: usize) -> f64;

    /// Numerator `n_i(x)` (convex in `x`).
    fn numerator(&self, i: usize, x: &Self::Point) -> f64;

    /// Denominator `d_i(x)` (concave and strictly positive in `x`).
    fn denominator(&self, i: usize, x: &Self::Point) -> f64;

    /// Solves the parametric (subtractive-form) subproblem
    /// `min_x Σ_i ν_i (n_i(x) − β_i d_i(x))` over the feasible set, writing the minimizer
    /// into a caller-owned point so the outer loop can double-buffer two points instead of
    /// allocating one per iteration.
    ///
    /// `out` may hold an arbitrary (even wrongly-sized) previous point on entry;
    /// implementations must overwrite it completely.
    ///
    /// # Errors
    ///
    /// Implementations should return an error if the subproblem is infeasible or the inner
    /// solver fails; the outer loop aborts with that error.
    fn solve_parametric_into(
        &self,
        nu: &[f64],
        beta: &[f64],
        out: &mut Self::Point,
    ) -> Result<(), NumError>;
}

/// Configuration of the Newton-like outer loop (the paper's Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JongConfig {
    /// Damping base `ξ ∈ (0,1)` of the line search (29).
    pub xi: f64,
    /// Sufficient-decrease constant `ε ∈ (0,1)` of the line search (29).
    pub epsilon: f64,
    /// Maximum outer iterations `i₀`.
    pub max_iter: usize,
    /// Terminate when `‖ϕ(β,ν)‖∞` falls below this tolerance.
    pub phi_tol: f64,
    /// Maximum exponent `j` tried by the damping line search before accepting the last trial.
    pub max_damping: usize,
}

impl Default for JongConfig {
    fn default() -> Self {
        Self { xi: 0.5, epsilon: 0.01, max_iter: 60, phi_tol: 1e-9, max_damping: 40 }
    }
}

/// Reusable buffers of the Newton-like outer loop: the multipliers `(β, ν)`, their
/// full-Newton targets, the damping-line-search trials, and the objective history.
///
/// Every field is pure scratch for a [`WarmMode::Cold`] [`solve_sum_of_ratios_warm_in`]:
/// cleared or fully overwritten on entry, never read across calls, resized to the problem at
/// hand — one instance can serve problems of different sizes back to back and only `Vec`
/// capacity survives. After a successful solve, [`JongScratch::beta`] / [`JongScratch::nu`]
/// hold the final multipliers and [`JongScratch::history`] the per-iteration objectives.
///
/// The one deliberate exception is the warm-start continuation: with a
/// non-[`WarmMode::Cold`] mode the converged
/// `(β, ν)` of the *previous* solve seed the next one instead of being recomputed from the
/// starting point. The scratch tracks whether it holds such a valid seed;
/// [`JongScratch::invalidate_warm`] drops it (e.g. when the caller switches problems).
#[derive(Debug, Clone, Default)]
pub struct JongScratch {
    /// Final auxiliary ratio values `β_i = n_i / d_i` (output of the last solve).
    pub beta: Vec<f64>,
    /// Final multipliers `ν_i = w_i / d_i` (output of the last solve).
    pub nu: Vec<f64>,
    /// Objective value after every outer iteration of the last solve.
    pub history: Vec<f64>,
    beta_target: Vec<f64>,
    nu_target: Vec<f64>,
    trial_beta: Vec<f64>,
    trial_nu: Vec<f64>,
    /// `true` while `beta`/`nu` hold the final multipliers of a successful solve (set on
    /// success, cleared on entry and by [`JongScratch::invalidate_warm`]).
    warm_valid: bool,
}

impl JongScratch {
    /// Drops the carried `(β, ν)` warm seed: the next warm-mode solve cold-starts.
    pub fn invalidate_warm(&mut self) {
        self.warm_valid = false;
    }

    /// Whether the scratch holds a usable `(β, ν)` seed for an `n`-ratio problem.
    pub fn warm_available(&self, n: usize) -> bool {
        self.warm_valid && self.beta.len() == n && self.nu.len() == n
    }
}

/// How much state from the previous solve [`solve_sum_of_ratios_warm_in`] may reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmMode {
    /// Initialize `(β, ν)` from the starting point — the classic Algorithm-1 start. This is
    /// the reference path.
    Cold,
    /// Seed `(β, ν)` from the scratch's previous solve when
    /// [`JongScratch::warm_available`]; falls back to [`WarmMode::Cold`] otherwise. Safe
    /// whenever the problem *size* matches — stale multipliers only change the trajectory,
    /// never the fixed-point condition the loop converges to.
    Multipliers,
    /// [`WarmMode::Multipliers`], plus: return immediately (zero iterations, `converged`)
    /// when the carried multipliers already satisfy `‖ϕ‖∞ ≤ phi_tol` at the staged point.
    /// Only sound when the caller knows the parametric feasible set is unchanged since the
    /// solve that produced the carried multipliers — `ϕ` cannot see constraint drift
    /// (`fedopt-core`'s SP2 gates this on its rate floors being static).
    FastPath,
}

/// The scalar outcome of [`solve_sum_of_ratios_warm_in`] (the point lands in the caller's
/// buffer, the multipliers and history in the [`JongScratch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionalSummary {
    /// Objective value `Σ_i w_i n_i / d_i` at the final point.
    pub objective: f64,
    /// `‖ϕ(β,ν)‖∞` at termination — the Newton residual of the optimality system (22)–(23).
    pub residual: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the residual tolerance was reached.
    pub converged: bool,
}

fn phi_inf_norm<P, F>(problem: &F, x: &P, beta: &[f64], nu: &[f64]) -> f64
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    // The components of ϕ carry the physical units of the numerators/weights, which in the
    // paper's Subproblem 2 differ by many orders of magnitude from 1. Normalizing each
    // component makes `phi_tol` a relative tolerance and keeps the stopping rule meaningful
    // across problem scales.
    let mut norm: f64 = 0.0;
    for i in 0..problem.len() {
        let n = problem.numerator(i, x);
        let d = problem.denominator(i, x);
        let w = problem.ratio_weight(i);
        let phi1 = (-n + beta[i] * d) / n.abs().max(1e-300);
        let phi2 = (-w + nu[i] * d) / w.abs().max(1e-300);
        norm = norm.max(phi1.abs()).max(phi2.abs());
    }
    norm
}

fn objective_value<P, F>(problem: &F, x: &P) -> f64
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    (0..problem.len())
        .map(|i| problem.ratio_weight(i) * problem.numerator(i, x) / problem.denominator(i, x))
        .sum()
}

/// Runs the damped Newton-like algorithm of Jong (the paper's Algorithm 1) against
/// caller-owned buffers, optionally continuing from the scratch's previous solve.
///
/// `x` holds the feasible starting point on entry and the final point on return; `spare` is
/// a second point buffer of the same type (its contents are irrelevant — each
/// [`FractionalProblem::solve_parametric_into`] call overwrites it completely) that the
/// loop double-buffers against `x`, so no point is ever allocated. All `(β, ν)` vectors and
/// the objective history live in the [`JongScratch`]; with an in-place
/// `solve_parametric_into`, the whole outer loop performs zero heap allocations in steady
/// state.
///
/// Each outer iteration:
///
/// 1. sets `ν_i = w_i / d_i(x)` and `β_i = n_i(x) / d_i(x)` (step 3 of Algorithm 1),
/// 2. solves the parametric subproblem for a new `x` (step 4),
/// 3. takes the damped Newton step (29)–(31) on `(β, ν)`, which — because the Jacobian of `ϕ`
///    is `diag(d_i)` — reduces to moving `(β, ν)` a fraction `ξ^j` of the way toward
///    `(n_i/d_i, w_i/d_i)` evaluated at the new `x`.
///
/// The loop stops when `‖ϕ‖∞ ≤ phi_tol` or after `max_iter` iterations.
///
/// With [`WarmMode::Cold`] the warm state is never read: `(β, ν)` start from `x`, the
/// classic Algorithm-1 start. With [`WarmMode::Multipliers`] the converged `(β, ν)` of the
/// previous solve (when [`JongScratch::warm_available`]) replace the cold initialization,
/// so the first parametric solve already starts from the previous fixed point — worth
/// several Newton iterations when successive problems differ only slightly (the alternating
/// outer loop of `fedopt-core`'s Algorithm 2). [`WarmMode::FastPath`] additionally probes
/// `‖ϕ‖∞` at the staged point before the loop and returns immediately (zero iterations,
/// `converged = true`) when the carried multipliers still satisfy `phi_tol` — see the
/// soundness caveat on [`WarmMode::FastPath`].
///
/// Either warm mode converges to a point satisfying the same `phi_tol` fixed-point
/// condition as the cold path; only the trajectory (and hence the last-bits of the result)
/// may differ.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the problem has zero ratios.
/// * [`NumError::NonPositiveParameter`] if a denominator is not strictly positive at any
///   iterate, or the configuration constants are outside `(0,1)`.
/// * Errors returned by [`FractionalProblem::solve_parametric_into`] are propagated.
///
/// After an error the scratch's warm seed is invalid.
pub fn solve_sum_of_ratios_warm_in<P, F>(
    problem: &F,
    x: &mut P,
    spare: &mut P,
    config: JongConfig,
    scratch: &mut JongScratch,
    mode: WarmMode,
) -> Result<FractionalSummary, NumError>
where
    F: FractionalProblem<Point = P> + ?Sized,
{
    let n_ratios = problem.len();
    if n_ratios == 0 {
        return Err(NumError::DimensionMismatch { expected: 1, actual: 0 });
    }
    if !(config.xi > 0.0 && config.xi < 1.0) {
        return Err(NumError::NonPositiveParameter { name: "xi", value: config.xi });
    }
    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
        return Err(NumError::NonPositiveParameter { name: "epsilon", value: config.epsilon });
    }

    let warm = mode != WarmMode::Cold && scratch.warm_available(n_ratios);
    scratch.warm_valid = false; // an early error must not leave a half-valid seed behind
    let JongScratch { beta, nu, history, beta_target, nu_target, trial_beta, trial_nu, .. } =
        scratch;
    if warm {
        // Keep the carried (β, ν); only the private loop buffers need resizing.
        for buf in [&mut *beta_target, &mut *nu_target, &mut *trial_beta, &mut *trial_nu] {
            buf.clear();
            buf.resize(n_ratios, 0.0);
        }
    } else {
        for buf in [
            &mut *beta,
            &mut *nu,
            &mut *beta_target,
            &mut *nu_target,
            &mut *trial_beta,
            &mut *trial_nu,
        ] {
            buf.clear();
            buf.resize(n_ratios, 0.0);
        }
        // Initialize (β, ν) from the starting point.
        for i in 0..n_ratios {
            let d = problem.denominator(i, x);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NonPositiveParameter { name: "denominator", value: d });
            }
            beta[i] = problem.numerator(i, x) / d;
            nu[i] = problem.ratio_weight(i) / d;
        }
    }

    history.clear();
    history.reserve(config.max_iter + 1);
    history.push(objective_value(problem, x));

    if warm && mode == WarmMode::FastPath {
        // The carried multipliers still satisfy the optimality system (22)–(23) at the
        // staged point: the previous fixed point is still a fixed point, skip the loop.
        let residual0 = phi_inf_norm(problem, x, beta, nu);
        if residual0 <= config.phi_tol {
            let objective = *history.last().expect("pushed above");
            scratch.warm_valid = true;
            return Ok(FractionalSummary {
                objective,
                residual: residual0,
                iterations: 0,
                converged: true,
            });
        }
    }

    let mut residual = f64::INFINITY;
    let mut iterations = 0;
    let mut converged = false;

    for it in 0..config.max_iter {
        iterations = it + 1;

        // Step 4: solve the parametric subproblem at the current (β, ν), double-buffering
        // the point instead of allocating a fresh one.
        problem.solve_parametric_into(nu, beta, spare)?;
        std::mem::swap(x, spare);
        history.push(objective_value(problem, x));

        // Convergence check: ϕ(β, ν) evaluated at the *response* x(β, ν). At the fixed point
        // the parametric solution reproduces the ratios that generated it — exactly the
        // optimality system (22)–(23) of Theorem 1.
        residual = phi_inf_norm(problem, x, beta, nu);
        if residual <= config.phi_tol {
            converged = true;
            break;
        }

        // Full-Newton targets at the response point: β_i → n_i(x)/d_i(x), ν_i → w_i/d_i(x).
        for i in 0..n_ratios {
            let d = problem.denominator(i, x);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumError::NonPositiveParameter { name: "denominator", value: d });
            }
            beta_target[i] = problem.numerator(i, x) / d;
            nu_target[i] = problem.ratio_weight(i) / d;
        }

        // Steps 5–6: damped Newton update of (β, ν) with the Armijo-like rule (29). Because ϕ
        // is linear in (β, ν) at fixed x and the Jacobian diag(d_i) is exact, the full step
        // (j = 0) always satisfies the rule; the loop is kept for fidelity to Algorithm 1 and
        // as a safety net against inexact inner solutions. Every trial entry is rewritten
        // before it is read, so the trial buffers need no per-iteration reset.
        let phi_now = residual;
        let mut step = 1.0;
        for _j in 0..=config.max_damping {
            for i in 0..n_ratios {
                trial_beta[i] = beta[i] + step * (beta_target[i] - beta[i]);
                trial_nu[i] = nu[i] + step * (nu_target[i] - nu[i]);
            }
            let phi_trial = phi_inf_norm(problem, x, trial_beta, trial_nu);
            if phi_trial <= (1.0 - config.epsilon * step) * phi_now || phi_now == 0.0 {
                break;
            }
            step *= config.xi;
        }
        beta.copy_from_slice(trial_beta);
        nu.copy_from_slice(trial_nu);
    }

    scratch.warm_valid = true;
    Ok(FractionalSummary {
        objective: objective_value(problem, x),
        residual,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy sum-of-ratios problem with a known solution:
    /// minimize (x+1)/x + (x-3)^2/1 over x in [0.5, 5].
    /// Single variable, two ratios. The second "ratio" has denominator 1 so this is really
    /// min (x+1)/x + (x-3)^2, a convex problem whose optimum we can verify by grid search.
    struct Toy;

    impl FractionalProblem for Toy {
        type Point = f64;

        fn len(&self) -> usize {
            2
        }
        fn ratio_weight(&self, _i: usize) -> f64 {
            1.0
        }
        fn numerator(&self, i: usize, x: &f64) -> f64 {
            match i {
                0 => x + 1.0,
                _ => (x - 3.0) * (x - 3.0),
            }
        }
        fn denominator(&self, i: usize, x: &f64) -> f64 {
            match i {
                0 => *x,
                _ => 1.0,
            }
        }
        fn solve_parametric_into(
            &self,
            nu: &[f64],
            beta: &[f64],
            out: &mut f64,
        ) -> Result<(), NumError> {
            // min over x of nu0*((x+1) - beta0*x) + nu1*((x-3)^2 - beta1)
            // => derivative: nu0*(1-beta0) + 2*nu1*(x-3) = 0
            let x = 3.0 - nu[0] * (1.0 - beta[0]) / (2.0 * nu[1]);
            *out = x.clamp(0.5, 5.0);
            Ok(())
        }
    }

    /// A cold solve from `x0` on a fresh scratch: the final point, the summary and the
    /// scratch holding the multipliers and history.
    fn solve_cold<F: FractionalProblem<Point = f64>>(
        problem: &F,
        x0: f64,
        config: JongConfig,
    ) -> Result<(f64, FractionalSummary, JongScratch), NumError> {
        let (mut x, mut spare) = (x0, 0.0);
        let mut scratch = JongScratch::default();
        let summary = solve_sum_of_ratios_warm_in(
            problem,
            &mut x,
            &mut spare,
            config,
            &mut scratch,
            WarmMode::Cold,
        )?;
        Ok((x, summary, scratch))
    }

    #[test]
    fn toy_problem_matches_grid_search() {
        let (point, sol, _) = solve_cold(&Toy, 1.0, JongConfig::default()).unwrap();
        assert!(sol.converged, "residual {}", sol.residual);

        // Grid-search reference.
        let axes = vec![crate::grid::linspace(0.5, 5.0, 20_001).unwrap()];
        let reference = crate::grid::grid_min(&axes, |p| {
            let x = p[0];
            (x + 1.0) / x + (x - 3.0) * (x - 3.0)
        })
        .unwrap();
        assert!(
            (sol.objective - reference.value).abs() < 1e-4,
            "jong {} vs grid {}",
            sol.objective,
            reference.value
        );
        assert!((point - reference.argmin[0]).abs() < 1e-2);
    }

    #[test]
    fn optimality_system_holds_at_fixed_point() {
        let (point, _, scratch) = solve_cold(&Toy, 4.0, JongConfig::default()).unwrap();
        // (22)–(23): nu_i = w_i / d_i(x*), beta_i = n_i(x*) / d_i(x*).
        for i in 0..2 {
            let d = Toy.denominator(i, &point);
            let n = Toy.numerator(i, &point);
            assert!((scratch.nu[i] - 1.0 / d).abs() < 1e-6);
            assert!((scratch.beta[i] - n / d).abs() < 1e-6);
        }
    }

    #[test]
    fn history_is_recorded_and_mostly_decreasing() {
        let (_, _, scratch) = solve_cold(&Toy, 5.0, JongConfig::default()).unwrap();
        assert!(scratch.history.len() >= 2);
        assert!(scratch.history.last().unwrap() <= scratch.history.first().unwrap());
    }

    /// One default-config solve of [`Toy`] from `x0` (with `spare` as the second point
    /// buffer's garbage) against a carried scratch: the final point and the summary.
    fn toy_in(
        x0: f64,
        spare: f64,
        scratch: &mut JongScratch,
        mode: WarmMode,
    ) -> (f64, FractionalSummary) {
        let (mut x, mut spare) = (x0, spare);
        let config = JongConfig::default();
        let summary =
            solve_sum_of_ratios_warm_in(&Toy, &mut x, &mut spare, config, scratch, mode).unwrap();
        (x, summary)
    }

    #[test]
    fn in_place_driver_matches_allocating_wrapper_bitwise() {
        // A dirtied, reused scratch and a garbage spare must reproduce a fresh-scratch run
        // bit for bit (the reuse contract).
        let mut scratch = JongScratch::default();
        let first = toy_in(5.0, 0.0, &mut scratch, WarmMode::Cold);
        let (beta, nu, history) =
            (scratch.beta.clone(), scratch.nu.clone(), scratch.history.clone());
        assert_eq!(toy_in(5.0, -7.0, &mut scratch, WarmMode::Cold), first);
        assert_eq!((scratch.beta, scratch.nu, scratch.history), (beta, nu, history));
    }

    #[test]
    fn warm_multipliers_reach_the_same_fixed_point() {
        let (_, cold, _) = solve_cold(&Toy, 5.0, JongConfig::default()).unwrap();

        // First solve populates the warm seed; the second starts from a different point but
        // carries the converged multipliers — it must land on the same fixed point.
        let mut scratch = JongScratch::default();
        toy_in(5.0, 0.0, &mut scratch, WarmMode::Cold);
        let (_, s2) = toy_in(4.0, 0.0, &mut scratch, WarmMode::Multipliers);
        assert!(s2.converged);
        assert!(
            (s2.objective - cold.objective).abs() <= 1e-8 * cold.objective.abs(),
            "warm {} vs cold {}",
            s2.objective,
            cold.objective
        );
    }

    #[test]
    fn fast_path_skips_the_loop_when_multipliers_still_hold() {
        let mut scratch = JongScratch::default();
        let (x, first) = toy_in(5.0, 0.0, &mut scratch, WarmMode::Cold);
        assert!(first.converged);

        // Same point, carried multipliers, constraints unchanged: zero iterations.
        let (x, again) = toy_in(x, 0.0, &mut scratch, WarmMode::FastPath);
        assert!(again.converged);
        assert_eq!(again.iterations, 0, "fast path must skip the loop");
        assert_eq!(again.objective, first.objective);

        // An invalidated seed falls back to the cold start (and still solves).
        scratch.invalidate_warm();
        assert!(!scratch.warm_available(2));
        let (_, after_reset) = toy_in(x, 0.0, &mut scratch, WarmMode::FastPath);
        assert!(after_reset.iterations >= 1, "cold fallback must run the loop");
        assert!(after_reset.converged);
    }

    #[test]
    fn cold_mode_ignores_warm_state_bitwise() {
        let (reference_point, reference, reference_scratch) =
            solve_cold(&Toy, 5.0, JongConfig::default()).unwrap();

        // A scratch dirtied by a previous (different-start) solve, used in Cold mode, must
        // reproduce the fresh-scratch run bit for bit — the warm seed is never read.
        let mut scratch = JongScratch::default();
        toy_in(1.0, 0.0, &mut scratch, WarmMode::Cold);
        let (x, summary) = toy_in(5.0, 0.0, &mut scratch, WarmMode::Cold);
        assert_eq!(x, reference_point);
        assert_eq!(summary.objective, reference.objective);
        assert_eq!(summary.iterations, reference.iterations);
        assert_eq!(scratch.beta, reference_scratch.beta);
        assert_eq!(scratch.nu, reference_scratch.nu);
    }

    #[test]
    fn rejects_empty_problem() {
        struct Empty;
        impl FractionalProblem for Empty {
            type Point = f64;
            fn len(&self) -> usize {
                0
            }
            fn ratio_weight(&self, _: usize) -> f64 {
                1.0
            }
            fn numerator(&self, _: usize, _: &f64) -> f64 {
                0.0
            }
            fn denominator(&self, _: usize, _: &f64) -> f64 {
                1.0
            }
            fn solve_parametric_into(
                &self,
                _: &[f64],
                _: &[f64],
                out: &mut f64,
            ) -> Result<(), NumError> {
                *out = 0.0;
                Ok(())
            }
        }
        assert!(matches!(
            solve_cold(&Empty, 0.0, JongConfig::default()),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_config() {
        let bad_xi = JongConfig { xi: 1.5, ..Default::default() };
        assert!(solve_cold(&Toy, 1.0, bad_xi).is_err());
        let bad_eps = JongConfig { epsilon: 0.0, ..Default::default() };
        assert!(solve_cold(&Toy, 1.0, bad_eps).is_err());
    }

    #[test]
    fn rejects_nonpositive_denominator_start() {
        struct BadDen;
        impl FractionalProblem for BadDen {
            type Point = f64;
            fn len(&self) -> usize {
                1
            }
            fn ratio_weight(&self, _: usize) -> f64 {
                1.0
            }
            fn numerator(&self, _: usize, x: &f64) -> f64 {
                *x
            }
            fn denominator(&self, _: usize, _x: &f64) -> f64 {
                0.0
            }
            fn solve_parametric_into(
                &self,
                _: &[f64],
                _: &[f64],
                out: &mut f64,
            ) -> Result<(), NumError> {
                *out = 1.0;
                Ok(())
            }
        }
        assert!(matches!(
            solve_cold(&BadDen, 1.0, JongConfig::default()),
            Err(NumError::NonPositiveParameter { .. })
        ));
    }
}
