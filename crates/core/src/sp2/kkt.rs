//! The Theorem-2 KKT solver for the parametric subproblem `SP2_v2`.
//!
//! Given the multipliers `(ν, β)` fixed by the outer Newton-like loop, `SP2_v2` (equation
//! (21)) is
//!
//! ```text
//! min_{p, B}  Σ_n ν_n (p_n d_n − β_n G_n(p_n, B_n))
//! s.t.        p_n^min ≤ p_n ≤ p_n^max,  Σ_n B_n ≤ B,  G_n(p_n, B_n) ≥ r_n^min .
//! ```
//!
//! The paper derives its solution in Appendix B:
//!
//! 1. Stationarity in `p` gives the affine relation (A.1)
//!    `p_n = (Λ_n − 1)·N₀·B_n / g_n` with `Λ_n = (ν_nβ_n + τ_n)·g_n / (N₀ d_n ν_n ln 2)`.
//! 2. Eliminating `p` yields a dual in `(τ, μ)`; the stationarity condition (A.3) links
//!    `τ_n` to the bandwidth price `μ` through a Lambert-W expression (A.4):
//!    `τ_n = (μ − j_n) ln 2 / W₀((μ − j_n)/(e·j_n)) − ν_nβ_n`, `j_n = ν_n d_n N₀ / g_n`.
//! 3. `μ` is the root of the scalar concave dual derivative `g'(μ) = 0`, found by a
//!    safeguarded Brent iteration (or, behind
//!    [`SolverConfig::superlinear_mu`](crate::SolverConfig) `= false`, the paper's pure
//!    bisection).
//!    We use the algebraically simplified form
//!    `g'(μ) = Σ_n r_n^min·ln2 / (W₀((μ − j_n)/(e·j_n)) + 1) − B`,
//!    which is equivalent to the paper's expression but avoids the removable singularity at
//!    `μ = j_n`.
//! 4. Devices with `τ_n > 0` have a tight rate constraint: `B_n = r_n^min / log2(Λ_n)` and
//!    `p_n` from (A.1). The remaining devices solve the bounded linear program (A.6) in their
//!    bandwidths, which a greedy pass over the cost coefficients solves exactly.
//!
//! Box constraints on `p` (equation (38)) are applied by clamping, exactly as in the paper.

use super::{PowerBandwidth, Sp2Problem};
use numopt::lambertw::{lambert_w0, ratio_over_w0};
use numopt::roots::{brent_with_endpoints, root_of_decreasing, root_of_decreasing_brent};
use numopt::scalar::clamp;
use numopt::NumError;
use wireless::channel::power_for_rate;

const LN2: f64 = std::f64::consts::LN_2;

/// Per-device LP data of step 4b: cost coefficient `ρ_n` and the bandwidth bounds implied by
/// the power box under the affine relation (A.1) with `τ_n = 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LpEntry {
    idx: usize,
    rho: f64,
    b_lo: f64,
    b_hi: f64,
}

/// Reusable scratch buffers of the Theorem-2 KKT construction.
///
/// Every buffer is pure scratch: [`solve_parametric_into`] overwrites the contents on entry and
/// never reads state left by a previous call, so one instance can be reused across
/// arbitrarily many solves (and across scenarios of different device counts — the buffers
/// are resized per call). Reuse only saves the allocations.
///
/// Two kinds of *non-scratch* state ride along, neither of which affects the reference
/// path: cumulative work counters ([`KktScratch::parametric_solves`],
/// [`KktScratch::mu_bisect_evals`] — instrumentation only), and the warm-start `μ` seed —
/// the previous bisection root, read **only** when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is set, and droppable at any time via
/// [`KktScratch::reset_warm_start`].
#[derive(Debug, Clone, Default)]
pub struct KktScratch {
    /// `j_n = ν_n d_n N₀ / g_n` per device (the constant of Appendix B).
    j: Vec<f64>,
    /// Compacted `j_n` lane of the rate-constrained devices only (in device order) — the
    /// `g'(μ)` summation set. Built **once per parametric solve**, so every `μ` probe is a
    /// dense, branch-free `O(m)` walk (`m` = rate-constrained devices) instead of an
    /// `O(n)` scan that re-tests `r_n^min > 0` on every device.
    rc_j: Vec<f64>,
    /// Matching compacted `r_n^min · ln 2` lane (the constant numerator of each `g'` term,
    /// hoisted out of the per-probe loop; `(r·ln2)/denom` is bit-identical to
    /// `r·ln2/denom` — same left-to-right grouping).
    rc_rmin_ln2: Vec<f64>,
    /// LP entries of the devices whose rate constraint is slack (step 4b).
    entries: Vec<LpEntry>,
    /// Cumulative count of Theorem-2 parametric solves performed with this scratch.
    pub parametric_solves: u64,
    /// Cumulative count of `g'(μ)` evaluations spent in the `μ` root search (bracket
    /// validation, expansion and root refinement alike; bisection and Brent count the
    /// same way).
    pub mu_bisect_evals: u64,
    /// Cumulative count of step-4b `(ρ, idx)` key sorts. The LP ordering is `μ`-invariant,
    /// so this advances exactly once per parametric solve — never once per `g'(μ)`
    /// evaluation. The complexity audit asserts this ratio.
    pub lp_sorts: u64,
    /// The previous solve's bandwidth price `μ` — the warm-start bracket seed.
    warm_mu: f64,
    /// Whether [`KktScratch::warm_mu`] holds a usable seed.
    warm_mu_valid: bool,
    /// Adaptive relative half-width of the next warm bracket, learned from how far the
    /// root moved in the previous solve. `0.0` means "no history" — the warm path then
    /// opens at the conservative [`INITIAL_WARM_DELTA`]. Only read when
    /// [`SolverConfig::adaptive_mu_bracket`](crate::SolverConfig) is set.
    warm_delta: f64,
}

/// Relative half-width of the first warm `μ` bracket after a reset (and the fixed width
/// of every warm bracket when the adaptive carry is gated off).
const INITIAL_WARM_DELTA: f64 = 1e-3;
/// Floor of the adaptive warm-bracket half-width: the bracket never collapses below this
/// even for a root that did not move at all, so one pair of validation probes still has a
/// realistic chance of straddling the new root.
const MIN_WARM_DELTA: f64 = 1e-5;

impl KktScratch {
    /// Drops the carried `μ`-bracket seed: the next warm-start solve brackets from the
    /// full conservative interval again.
    pub fn reset_warm_start(&mut self) {
        self.warm_mu_valid = false;
        self.warm_delta = 0.0;
    }
}

/// Solves the parametric subproblem `SP2_v2` for fixed `(ν, β)` via the Theorem-2
/// construction, into a caller-owned point — the allocation-free hot-path form.
///
/// `out` is pure scratch: whatever it holds on entry (any device count, any values) is
/// discarded, its vectors are resized to the scenario and every entry is written before the
/// final sanitize pass reads it. Together with the pooled [`KktScratch`] buffers this makes
/// the whole Theorem-2 construction allocation-free in steady state.
///
/// # Errors
///
/// Returns an error if the Lambert-W evaluation or the `μ` root search fails on non-finite
/// inputs; callers treat that as "fall back to the reference solver".
pub fn solve_parametric_into(
    problem: &Sp2Problem<'_>,
    nu: &[f64],
    beta: &[f64],
    out: &mut PowerBandwidth,
) -> Result<(), NumError> {
    let arrays = problem.arrays();
    let n = arrays.len();
    let n0 = problem.n0();
    let b_total = problem.total_bandwidth();
    let floor = problem.config().bandwidth_floor_hz;
    let r_min = problem.r_min_bps();
    let mut scratch = problem.scratch_mut();
    let KktScratch {
        j,
        rc_j,
        rc_rmin_ln2,
        entries,
        parametric_solves,
        mu_bisect_evals,
        lp_sorts,
        warm_mu,
        warm_mu_valid,
        warm_delta,
    } = &mut *scratch;
    *parametric_solves += 1;

    // j_n = ν_n d_n N₀ / g_n (the constant of Appendix B), filled from the contiguous
    // lanes. The expression keeps the exact operand grouping of the struct walk
    // (ν·d·N₀/g, left to right over the raw per-device values), so the fill is
    // bit-identical to indexing the profiles.
    j.clear();
    j.extend(
        nu.iter()
            .zip(arrays.upload_bits.iter())
            .zip(arrays.gain.iter())
            .map(|((&nu_i, &d), &g)| (nu_i.max(1e-300)) * d * n0 / g),
    );

    // --- Step 3: bandwidth price μ from g'(μ) = 0 (root of a decreasing function). ---
    let has_rate_constraints = r_min.iter().any(|&r| r > 0.0);
    let warm_start = problem.config().warm_start;
    let superlinear = problem.config().superlinear_mu;
    let adaptive = problem.config().adaptive_mu_bracket;
    let mu = if has_rate_constraints {
        // Compact the summation set once per parametric solve: the μ search only ever
        // touches the rate-constrained devices, and their (j_n, r_n^min·ln2) pairs are
        // μ-invariant. Device order is preserved, so the per-probe sum below accumulates
        // the exact same terms in the exact same order as a full skip-scan would.
        rc_j.clear();
        rc_rmin_ln2.clear();
        for i in 0..n {
            if r_min[i] > 0.0 {
                rc_j.push(j[i]);
                rc_rmin_ln2.push(r_min[i] * LN2);
            }
        }
        let evals = std::cell::Cell::new(0u64);
        let g_prime = |mu: f64| -> f64 {
            evals.set(evals.get() + 1);
            let mut sum = 0.0;
            for (&ji, &rml) in rc_j.iter().zip(rc_rmin_ln2.iter()) {
                let arg = (mu - ji) / (std::f64::consts::E * ji);
                let w = lambert_w0(arg.max(-1.0 / std::f64::consts::E)).unwrap_or(0.0);
                // Simplified derivative term: r_min·ln2 / (W + 1).
                let denom = (w + 1.0).max(1e-12);
                sum += rml / denom;
            }
            sum - b_total
        };
        // Brent (superlinear, with a bisection safeguard inside the step) or the legacy
        // pure bisection — same bracket, same tolerance semantics either way.
        let find_root = |lo: f64, hi: f64, tol: f64| -> Result<f64, NumError> {
            if superlinear {
                root_of_decreasing_brent(&g_prime, lo, hi, tol, 300)
            } else {
                root_of_decreasing(&g_prime, lo, hi, tol, 300)
            }
        };
        let j_max = j.iter().cloned().fold(0.0_f64, f64::max).max(1e-300);
        let j_min = j.iter().cloned().fold(f64::INFINITY, f64::min).max(1e-300);

        // Warm start: the Newton-like outer loop moves (ν, β) — and with them the root of
        // g' — only a little per iteration, so bracket tightly around the previous root and
        // expand geometrically if that turned out stale. Signs are validated before
        // bisecting (g' decreasing ⇒ g'(lo) > 0 ≥ g'(hi)); any failure after a few
        // expansions falls back to the full conservative bracket below. The tolerance is
        // pinned to the *conservative* bracket's scale so a tight warm bracket saves
        // halvings instead of buying unasked-for accuracy.
        let mut warm_root = None;
        if warm_start && *warm_mu_valid && *warm_mu > 0.0 && warm_mu.is_finite() {
            let tol = problem.config().mu_tol * (10.0 * j_max);
            // Open at the adaptively carried half-width when there is movement history
            // (one extra escalation keeps the worst-case expansion reach identical),
            // otherwise at the conservative fixed width — which is also the gated-off
            // legacy path, probe for probe.
            let (mut delta, tries) = if adaptive && *warm_delta > 0.0 {
                (*warm_delta, 5)
            } else {
                (INITIAL_WARM_DELTA, 4)
            };
            for _ in 0..tries {
                let lo = (*warm_mu * (1.0 - delta)).max(1e-9 * j_min);
                let hi = *warm_mu * (1.0 + delta);
                let (g_lo, g_hi) = (g_prime(lo), g_prime(hi));
                if g_lo > 0.0 && g_hi <= 0.0 {
                    // A failed refinement (e.g. a non-finite interior probe) falls back to
                    // the conservative bracket below rather than failing the solve — the
                    // warm bracket is only ever a hint.
                    warm_root = if adaptive && superlinear && g_lo.is_finite() && g_hi.is_finite() {
                        // The validation probes double as Brent's endpoint values: the
                        // refinement starts with zero redundant `g'` evaluations (the
                        // wrapper-and-Brent entry probes used to re-evaluate both ends
                        // twice). `g_hi == 0.0` returns `hi` exactly like the wrapper's
                        // endpoint clamp.
                        brent_with_endpoints(&g_prime, lo, g_lo, hi, g_hi, tol, 300)
                            .map(|o| o.root)
                            .or_else(|_| find_root(lo, hi, tol))
                            .ok()
                    } else {
                        find_root(lo, hi, tol).ok()
                    };
                    break;
                }
                // A stale adaptive width first re-tries the proven fixed width before the
                // geometric escalation takes over.
                delta = if adaptive && delta < INITIAL_WARM_DELTA {
                    INITIAL_WARM_DELTA
                } else {
                    delta * 16.0
                };
            }
        }
        let mu = match warm_root {
            Some(mu) => mu,
            None => {
                let mu_lo = 1e-9 * j_min;
                // Expand the upper bracket until the derivative is negative.
                let mut mu_hi = 10.0 * j_max;
                let mut expansions = 0;
                while g_prime(mu_hi) > 0.0 && expansions < 200 {
                    mu_hi *= 4.0;
                    expansions += 1;
                }
                find_root(mu_lo, mu_hi, problem.config().mu_tol * mu_hi)?
            }
        };
        *mu_bisect_evals += evals.get();
        mu
    } else {
        0.0
    };
    if warm_start && mu > 0.0 {
        if adaptive && *warm_mu_valid && *warm_mu > 0.0 {
            // Next bracket's half-width: a small multiple of the observed relative root
            // movement, clamped so it neither collapses to nothing nor exceeds the
            // conservative opening width.
            let rel = (mu - *warm_mu).abs() / *warm_mu;
            *warm_delta = (16.0 * rel).clamp(MIN_WARM_DELTA, INITIAL_WARM_DELTA);
        }
        *warm_mu = mu;
        *warm_mu_valid = true;
    }

    // --- Step 2/4: per-device multipliers τ_n and the rate-tight closed form. Devices whose
    // rate constraint is slack get their LP data (previously a second pass) built inline.
    // The output point doubles as the (p, B) working buffers. ---
    out.powers_w.clear();
    out.powers_w.resize(n, 0.0);
    out.bandwidths_hz.clear();
    out.bandwidths_hz.resize(n, 0.0);
    let powers = &mut out.powers_w;
    let bandwidths = &mut out.bandwidths_hz;
    entries.clear();
    let mut budget_used = 0.0;

    for i in 0..n {
        let g = arrays.gain[i];
        let d = arrays.upload_bits[i];
        let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
        let tau = if r_min[i] > 0.0 && mu > 0.0 {
            (ratio_over_w0(mu - j[i], j[i])? * LN2 - nu[i] * beta[i]).max(0.0)
        } else {
            0.0
        };
        if tau > 0.0 {
            let lambda_n = (nu[i] * beta[i] + tau) * g / (n0 * d * nu[i].max(1e-300) * LN2);
            if lambda_n > 1.0 + 1e-9 && r_min[i] > 0.0 {
                let b = r_min[i] / lambda_n.log2();
                let p = (lambda_n - 1.0) * n0 * b / g;
                bandwidths[i] = b.max(floor);
                powers[i] = clamp(p, p_min, p_max);
                budget_used += bandwidths[i];
                continue;
            }
        }
        let lambda0 = beta[i] * g / (n0 * d * LN2);
        let (rho, b_lo, b_hi);
        if lambda0 > 1.0 + 1e-9 {
            rho = nu[i] * beta[i] / LN2 - n0 * d * nu[i] / g - nu[i] * beta[i] * lambda0.log2();
            let slope = (lambda0 - 1.0) * n0 / g; // p = slope · B
            let lo_from_pmin = p_min / slope;
            let hi_from_pmax = p_max / slope;
            let lo_from_rate = if r_min[i] > 0.0 { r_min[i] / lambda0.log2() } else { 0.0 };
            b_lo = lo_from_pmin.max(lo_from_rate).max(floor);
            b_hi = hi_from_pmax.max(b_lo);
        } else {
            // The unconstrained stationary power would be non-positive: the device sits at
            // p_min and simply wants as much bandwidth as the budget allows (the objective
            // is decreasing in B there). Its lower bound is whatever keeps the rate
            // constraint satisfiable at maximum power.
            rho = -nu[i] * beta[i]; // strictly negative ⇒ prioritized for leftover bandwidth
            b_lo = bandwidth_for_rate(g, p_max, r_min[i], n0, b_total, floor);
            b_hi = b_total;
        }
        entries.push(LpEntry { idx: i, rho, b_lo, b_hi });
    }

    // --- Step 4b: the bounded LP (A.6) over the devices whose rate constraint is slack. ---
    if !entries.is_empty() {
        let mut remaining = (b_total - budget_used).max(0.0);

        // Assign lower bounds first. Each floored share `(b_lo·scale).max(floor)` is computed
        // once and used both as the device's assignment and as its contribution to the spent
        // budget, so the two can never drift apart.
        let lo_sum: f64 = entries.iter().map(|e| e.b_lo).sum();
        let scale = if lo_sum > remaining && lo_sum > 0.0 { remaining / lo_sum } else { 1.0 };
        let mut assigned = 0.0;
        for e in entries.iter() {
            let share = (e.b_lo * scale).max(floor);
            bandwidths[e.idx] = share;
            assigned += share;
        }
        remaining = (remaining - assigned).max(0.0);

        // Spend the leftover on the devices with the most negative cost coefficient first.
        // `sort_unstable_by` with the `(ρ, idx)` key: ties on ρ resolve by device index —
        // exactly the order a stable sort would produce (entries are pushed in index order),
        // but the determinism no longer hinges on sort stability (and the unstable sort does
        // not allocate its merge buffer). The (ρ, idx) keys do not depend on μ's refinement
        // history, so this O(m log m) sort runs once per parametric solve — never per
        // g'(μ) probe; `lp_sorts` counts it as evidence.
        *lp_sorts += 1;
        entries.sort_unstable_by(|a, b| {
            (a.rho, a.idx).partial_cmp(&(b.rho, b.idx)).expect("finite coefficients")
        });
        for e in entries.iter() {
            if remaining <= 0.0 {
                break;
            }
            if e.rho < 0.0 {
                let extra = (e.b_hi - bandwidths[e.idx]).clamp(0.0, remaining);
                bandwidths[e.idx] += extra;
                remaining -= extra;
            }
        }

        // Recover powers from the affine relation (A.1), clamped into the box (38), and then
        // repaired upward if the rate constraint needs it.
        for e in entries.iter() {
            let i = e.idx;
            let g = arrays.gain[i];
            let d = arrays.upload_bits[i];
            let (p_min, p_max) = (arrays.p_min_w[i], arrays.p_max_w[i]);
            let lambda0 = beta[i] * g / (n0 * d * LN2);
            let p_raw =
                if lambda0 > 1.0 + 1e-9 { (lambda0 - 1.0) * n0 * bandwidths[i] / g } else { p_min };
            let mut p = clamp(p_raw, p_min, p_max);
            if r_min[i] > 0.0 {
                let needed = power_for_rate(r_min[i], bandwidths[i], g, n0);
                if needed > p {
                    p = clamp(needed, p_min, p_max);
                }
            }
            powers[i] = p;
        }
    }

    problem.sanitize(out);
    Ok(())
}

/// Smallest bandwidth at which a device with channel gain `g` can reach `r_min` at its
/// maximum power `p_max` (bisection on the monotone-increasing map `B ↦ G(p_max, B)`),
/// capped at `b_total`.
fn bandwidth_for_rate(g: f64, p_max: f64, r_min: f64, n0: f64, b_total: f64, floor: f64) -> f64 {
    if r_min <= 0.0 {
        return floor;
    }
    let rate_at = |b: f64| wireless::channel::shannon_rate_raw(p_max, b, g, n0);
    if rate_at(b_total) < r_min {
        // Not reachable even with the whole band: ask for the whole band (the sanitize pass
        // will scale it back together with everyone else).
        return b_total;
    }
    let mut lo = floor;
    let mut hi = b_total;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if rate_at(mid) >= r_min {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-9 {
            break;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use flsys::{Allocation, ScenarioArrays, ScenarioBuilder, Weights};
    use numopt::fractional::FractionalProblem;
    use wireless::channel::shannon_rate_raw;

    fn problem_fixture(
        n: usize,
        seed: u64,
        upload_window_s: f64,
    ) -> (flsys::Scenario, ScenarioArrays, SolverConfig, Vec<f64>) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / upload_window_s).collect();
        (s, arrays, cfg, r_min)
    }

    fn nominal_multipliers(
        problem: &Sp2Problem<'_>,
        start: &PowerBandwidth,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = problem.len();
        let mut nu = vec![0.0; n];
        let mut beta = vec![0.0; n];
        for i in 0..n {
            let d = problem.denominator(i, start);
            nu[i] = problem.ratio_weight(i) / d;
            beta[i] = problem.numerator(i, start) / d;
        }
        (nu, beta)
    }

    /// The Theorem-2 point for `(ν, β)`, solved into a fresh buffer.
    fn kkt_point(problem: &Sp2Problem<'_>, nu: &[f64], beta: &[f64]) -> PowerBandwidth {
        let mut point = PowerBandwidth::default();
        solve_parametric_into(problem, nu, beta, &mut point).unwrap();
        point
    }

    #[test]
    fn parametric_solution_is_feasible() {
        let (s, arrays, cfg, r_min) = problem_fixture(10, 11, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = kkt_point(&problem, &nu, &beta);

        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            assert!(point.powers_w[i] >= dev.p_min.value() - 1e-15);
            assert!(point.powers_w[i] <= dev.p_max.value() + 1e-15);
            assert!(point.bandwidths_hz[i] >= cfg.bandwidth_floor_hz);
            let rate =
                shannon_rate_raw(point.powers_w[i], point.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn parametric_solution_improves_parametric_objective() {
        // The KKT point should not be worse than the starting point on the subtractive
        // objective Σ ν(p·d − β·G).
        let (s, arrays, cfg, r_min) = problem_fixture(8, 13, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let parametric = |pt: &PowerBandwidth| -> f64 {
            (0..problem.len())
                .map(|i| nu[i] * (problem.numerator(i, pt) - beta[i] * problem.denominator(i, pt)))
                .sum()
        };
        let point = kkt_point(&problem, &nu, &beta);
        assert!(
            parametric(&point) <= parametric(&start) + 1e-9,
            "kkt point {} should improve on start {}",
            parametric(&point),
            parametric(&start)
        );
    }

    #[test]
    fn rate_tight_devices_hit_rate_floor() {
        // With a scarce band and a demanding rate floor, most devices should sit essentially
        // at r_min (the rate constraint is what drives their bandwidth share).
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(17)
            .unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = kkt_point(&problem, &nu, &beta);
        let n0 = s.params.noise.watts_per_hz();
        let mut tight = 0;
        for (i, dev) in s.devices.iter().enumerate() {
            let rate =
                shannon_rate_raw(point.powers_w[i], point.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(rate >= r_min[i] * (1.0 - 1e-3), "device {i} violates rate floor");
            if rate <= r_min[i] * 1.05 {
                tight += 1;
            }
        }
        assert!(tight >= s.devices.len() / 2, "expected most devices rate-tight, got {tight}");
    }

    #[test]
    fn no_rate_constraint_spends_whole_budget_mostly_at_low_power() {
        let (s, arrays, cfg, _) = problem_fixture(6, 19, 0.05);
        let r_min = vec![0.0; 6];
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = kkt_point(&problem, &nu, &beta);
        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(b_sum <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
        assert!(b_sum > 0.0);
    }

    #[test]
    fn into_variant_matches_allocating_variant_from_dirty_out() {
        let (s, arrays, cfg, r_min) = problem_fixture(10, 11, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let fresh = kkt_point(&problem, &nu, &beta);

        // A wrongly-sized, garbage-filled output point must be overwritten completely.
        let mut dirty = PowerBandwidth::new(vec![f64::NAN; 3], vec![-1.0; 17]);
        solve_parametric_into(&problem, &nu, &beta, &mut dirty).unwrap();
        assert_eq!(dirty, fresh);
        // And reusing the same buffer again stays bit-identical.
        solve_parametric_into(&problem, &nu, &beta, &mut dirty).unwrap();
        assert_eq!(dirty, fresh);
    }

    #[test]
    fn step4b_lower_bound_assignment_and_budget_deduction_agree() {
        // The floored share `(b_lo·scale).max(floor)` used to be computed twice — once for
        // the assignment, once (re-derived inside a sum) for the budget deduction. Guard the
        // single-computation refactor two ways. First, the arithmetic identity on a mixed
        // set of entries (floored and unfloored):
        let entries = [
            LpEntry { idx: 0, rho: -1.0, b_lo: 10.0, b_hi: 100.0 },
            LpEntry { idx: 1, rho: 0.5, b_lo: 0.1, b_hi: 50.0 },
            LpEntry { idx: 2, rho: -0.2, b_lo: 7.0, b_hi: 9.0 },
        ];
        let (floor, remaining) = (2.0, 12.0);
        let lo_sum: f64 = entries.iter().map(|e| e.b_lo).sum();
        let scale = if lo_sum > remaining && lo_sum > 0.0 { remaining / lo_sum } else { 1.0 };
        let mut assigned = 0.0;
        for e in &entries {
            assigned += (e.b_lo * scale).max(floor);
        }
        let recomputed: f64 = entries.iter().map(|e| (e.b_lo * scale).max(floor)).sum();
        assert_eq!(assigned, recomputed, "assignment and deduction drifted apart");

        // Second, end to end: with a scarce band the lower bounds are scaled to fit the
        // budget exactly, so any drift between assignment and deduction would leave the
        // solver under- or over-spending the band.
        let s = ScenarioBuilder::paper_default()
            .with_devices(10)
            .with_total_bandwidth(wireless::units::Hertz::from_mhz(2.0))
            .build(17)
            .unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min: Vec<f64> = s.devices.iter().map(|d| d.upload_bits / 0.02).collect();
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w, a.bandwidths_hz);
        let (nu, beta) = nominal_multipliers(&problem, &start);
        let point = kkt_point(&problem, &nu, &beta);
        let b_total = s.params.total_bandwidth.value();
        let b_sum: f64 = point.bandwidths_hz.iter().sum();
        assert!(
            (b_sum - b_total).abs() / b_total < 1e-6,
            "scarce band must be spent exactly: used {b_sum} of {b_total}"
        );
    }

    #[test]
    fn bandwidth_for_rate_is_inverse_of_rate() {
        let s = ScenarioBuilder::paper_default().with_devices(1).build(3).unwrap();
        let dev = &s.devices[0];
        let n0 = s.params.noise.watts_per_hz();
        let b_total = s.params.total_bandwidth.value();
        let r_min = 1.0e6;
        let b = bandwidth_for_rate(dev.gain.value(), dev.p_max.value(), r_min, n0, b_total, 1.0);
        let achieved = shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
        assert!((achieved - r_min).abs() / r_min < 1e-3);
        assert_eq!(
            bandwidth_for_rate(dev.gain.value(), dev.p_max.value(), 0.0, n0, b_total, 1.0),
            1.0
        );
    }
}
