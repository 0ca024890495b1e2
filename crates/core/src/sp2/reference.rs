//! Direct reference solver for Subproblem 2.
//!
//! This solver attacks the *original* ratio objective rather than the parametric form, using
//! two structural facts:
//!
//! 1. For a fixed bandwidth `B_n`, the per-device communication energy
//!    `E_n(p) = p·d_n / G_n(p, B_n)` is strictly increasing in `p` (because
//!    `G_n(p) ≥ p·∂G_n/∂p` for a concave function through the origin). The energy-optimal
//!    power is therefore the *smallest feasible* one: just enough to meet the rate floor
//!    `r_n^min`, clamped into the power box.
//! 2. With that power rule substituted in, every device's energy is decreasing in its
//!    bandwidth share, so the bandwidth budget binds and the allocation is a one-dimensional
//!    pricing problem: introduce a price `ω` on bandwidth, let every device pick its
//!    favourite `B_n(ω)` by a scalar search, and bisect `ω` until the picks add up to `B`.
//!
//! The result is a high-quality feasible point for the sum-of-ratios problem that does not
//! depend on the Newton-like machinery at all, which makes it a meaningful cross-check (the
//! role CVX played for the authors) and a robust fallback.

use super::{PowerBandwidth, Sp2Problem};
use numopt::scalar::{clamp, golden_section_min_with_endpoints};
use numopt::NumError;
use wireless::channel::{power_for_rate, shannon_rate_raw};

/// Warm-start carry-over of the reference solver: the bandwidth-price `ω` at which the
/// previous solve's aggregate demand cleared the budget.
///
/// Successive Subproblem-2 solves inside Algorithm 2's alternation differ only slightly, so
/// the clearing price barely moves; seeding the next search with a tight bracket around the
/// previous `ω` replaces both the cold path's geometric price expansion (from `10⁻¹²`, a
/// full aggregate-demand evaluation per quadrupling) and most of its fixed 60 bisection
/// halvings. Only read when [`SolverConfig::warm_start`](crate::SolverConfig) is enabled;
/// [`ReferenceWarmState::reset`] drops the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceWarmState {
    omega: f64,
    valid: bool,
}

impl ReferenceWarmState {
    /// Drops the carried price seed: the next solve brackets from scratch.
    pub fn reset(&mut self) {
        self.valid = false;
    }
}

/// Per-device energy under the "smallest feasible power" rule.
fn device_energy(problem: &Sp2Problem<'_>, i: usize, bandwidth: f64) -> f64 {
    let arrays = problem.arrays();
    let n0 = problem.n0();
    let g = arrays.gain[i];
    let d = arrays.upload_bits[i];
    let r_min = problem.r_min_bps()[i];
    let p = clamp(power_for_rate(r_min, bandwidth, g, n0), arrays.p_min_w[i], arrays.p_max_w[i]);
    let rate = shannon_rate_raw(p, bandwidth, g, n0);
    if rate <= 0.0 {
        return f64::INFINITY;
    }
    let mut energy = p * d / rate;
    // Soft penalty when even p_max cannot reach the rate floor with this bandwidth, so the
    // scalar search steers toward bandwidths that restore feasibility.
    if r_min > 0.0 && rate < r_min {
        energy *= 1.0 + 10.0 * (r_min - rate) / r_min;
    }
    energy
}

/// Smallest bandwidth at which the device can meet its rate floor at maximum power.
fn min_bandwidth(problem: &Sp2Problem<'_>, i: usize) -> f64 {
    let arrays = problem.arrays();
    let n0 = problem.n0();
    let g = arrays.gain[i];
    let p_max = arrays.p_max_w[i];
    let r_min = problem.r_min_bps()[i];
    let floor = problem.config().bandwidth_floor_hz;
    let b_total = problem.total_bandwidth();
    if r_min <= 0.0 {
        return floor;
    }
    if shannon_rate_raw(p_max, b_total, g, n0) < r_min {
        // Infeasible even with the whole band; claim an equal share and let the sanitize pass
        // arbitrate.
        return b_total / arrays.len() as f64;
    }
    let mut lo = floor;
    let mut hi = b_total;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if shannon_rate_raw(p_max, mid, g, n0) >= r_min {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-10 {
            break;
        }
    }
    hi.max(floor)
}

/// Bandwidth the device picks when bandwidth costs `ω` per hertz.
fn bandwidth_at_price(
    problem: &Sp2Problem<'_>,
    i: usize,
    omega: f64,
    b_lo: f64,
    b_hi: f64,
) -> Result<f64, NumError> {
    let pick = golden_section_min_with_endpoints(
        |b| device_energy(problem, i, b) + omega * b,
        b_lo,
        b_hi,
        problem.config().scalar_tol * b_hi,
        300,
    )?;
    Ok(pick.argmin)
}

/// Solves Subproblem 2 directly (see the module docs), writing a feasible `(p, B)` point
/// into caller-owned buffers — the allocation-free form used by the `polish_with_reference`
/// pass of every Subproblem-2 solve.
///
/// `out` and `b_lo_scratch` are pure scratch: overwritten completely, resized to the
/// scenario, never read across calls. `warm` carries the previous clearing price between
/// calls; it is only read (and only written) when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is enabled, so with warm start off —
/// or a freshly-reset `warm` — the result depends on `problem` alone. The warm search stops
/// at `scalar_tol` *relative* accuracy on `ω` instead of the cold path's fixed 60 absolute
/// halvings; the bandwidth picks depend smoothly on the price, so the points agree to the
/// same relative order.
///
/// # Errors
///
/// Propagates numerical errors from the scalar searches (which only trigger on non-finite
/// inputs); the caller treats any error as "keep the Newton-like solution". On error `out`
/// is unspecified.
pub fn solve_reference_into(
    problem: &Sp2Problem<'_>,
    out: &mut PowerBandwidth,
    b_lo_scratch: &mut Vec<f64>,
    warm: &mut ReferenceWarmState,
) -> Result<(), NumError> {
    let arrays = problem.arrays();
    let n = arrays.len();
    let b_total = problem.total_bandwidth();
    let n0 = problem.n0();
    let warm_on = problem.config().warm_start;

    b_lo_scratch.clear();
    b_lo_scratch.extend((0..n).map(|i| min_bandwidth(problem, i)));
    let b_lo: &[f64] = b_lo_scratch;
    let lo_sum: f64 = b_lo.iter().sum();

    out.bandwidths_hz.clear();
    out.bandwidths_hz.resize(n, 0.0);
    let bandwidths = &mut out.bandwidths_hz;
    if lo_sum >= b_total {
        // The rate floors alone exhaust (or exceed) the budget: hand out proportional shares.
        for (b, &lo) in bandwidths.iter_mut().zip(b_lo) {
            *b = lo / lo_sum * b_total;
        }
    } else {
        // Price the bandwidth and bisect the price until the budget clears.
        let demand = |omega: f64| -> Result<f64, NumError> {
            let mut total = 0.0;
            for (i, &lo) in b_lo.iter().enumerate() {
                total += bandwidth_at_price(problem, i, omega, lo, b_total)?;
            }
            Ok(total)
        };
        // Warm start: bracket tightly around the previous clearing price (validated — the
        // aggregate demand is decreasing in ω, so the bracket must straddle the budget) and
        // skip the cold geometric expansion entirely when it holds.
        let mut bracket = None;
        if warm_on && warm.valid && warm.omega > 0.0 && warm.omega.is_finite() {
            let lo = warm.omega * 0.25;
            let hi = warm.omega * 4.0;
            if demand(lo)? > b_total && demand(hi)? <= b_total {
                bracket = Some((lo, hi));
            }
        }
        let (mut omega_lo, mut omega_hi) = match bracket {
            Some(bracket) => bracket,
            None => {
                // Find an upper price at which demand fits inside the budget.
                let mut omega_hi = 1e-12;
                let mut tries = 0;
                while demand(omega_hi)? > b_total && tries < 80 {
                    omega_hi *= 4.0;
                    tries += 1;
                }
                (0.0, omega_hi)
            }
        };
        // Bisection on the (decreasing) aggregate demand. The cold path keeps its
        // historical fixed 60 halvings (bit-identity); the warm path stops at scalar_tol
        // relative accuracy on ω, which the smooth price→bandwidth map carries through.
        let omega_tol = if warm_on { problem.config().scalar_tol } else { 0.0 };
        for _ in 0..60 {
            if warm_on && (omega_hi - omega_lo) <= omega_tol * omega_hi {
                break;
            }
            let mid = 0.5 * (omega_lo + omega_hi);
            if demand(mid)? > b_total {
                omega_lo = mid;
            } else {
                omega_hi = mid;
            }
        }
        for i in 0..n {
            bandwidths[i] = bandwidth_at_price(problem, i, omega_hi, b_lo[i], b_total)?;
        }
        // Give any slack back to the devices proportionally to their demand (energy is
        // decreasing in bandwidth, so this can only help).
        let used: f64 = bandwidths.iter().sum();
        if used < b_total && used > 0.0 {
            let scale = b_total / used;
            for b in bandwidths.iter_mut() {
                *b *= scale;
            }
        }
        if warm_on {
            warm.omega = omega_hi;
            warm.valid = true;
        }
    }

    out.powers_w.clear();
    for i in 0..n {
        let p = clamp(
            power_for_rate(problem.r_min_bps()[i], out.bandwidths_hz[i], arrays.gain[i], n0),
            arrays.p_min_w[i],
            arrays.p_max_w[i],
        );
        out.powers_w.push(p);
    }

    problem.sanitize(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use flsys::{Allocation, ScenarioArrays, ScenarioBuilder, Weights};

    fn fixture(
        n: usize,
        seed: u64,
        window_s: f64,
    ) -> (flsys::Scenario, ScenarioArrays, SolverConfig, Vec<f64>) {
        let s = ScenarioBuilder::paper_default().with_devices(n).build(seed).unwrap();
        let arrays = ScenarioArrays::from_scenario(&s);
        let cfg = SolverConfig::default();
        let r_min = s.devices.iter().map(|d| d.upload_bits / window_s).collect();
        (s, arrays, cfg, r_min)
    }

    /// The reference point of `problem`, solved cold into fresh buffers.
    fn reference_point(problem: &Sp2Problem<'_>) -> PowerBandwidth {
        let mut point = PowerBandwidth::default();
        solve_reference_into(
            problem,
            &mut point,
            &mut Vec::new(),
            &mut ReferenceWarmState::default(),
        )
        .unwrap();
        point
    }

    #[test]
    fn reference_beats_equal_split_at_max_power() {
        let (s, arrays, cfg, r_min) = fixture(10, 21, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w.clone(), a.bandwidths_hz.clone());
        let reference = reference_point(&problem);
        assert!(
            problem.comm_energy(&reference) <= problem.comm_energy(&start) * (1.0 + 1e-9),
            "reference {} should beat start {}",
            problem.comm_energy(&reference),
            problem.comm_energy(&start)
        );
    }

    #[test]
    fn reference_uses_the_whole_band() {
        let (s, arrays, cfg, r_min) = fixture(8, 22, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let reference = reference_point(&problem);
        let used: f64 = reference.bandwidths_hz.iter().sum();
        assert!(used >= 0.95 * s.params.total_bandwidth.value(), "band under-used: {used}");
        assert!(used <= s.params.total_bandwidth.value() * (1.0 + 1e-6));
    }

    #[test]
    fn reference_meets_rate_floors() {
        let (s, arrays, cfg, r_min) = fixture(12, 23, 0.03);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let reference = reference_point(&problem);
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let rate = shannon_rate_raw(
                reference.powers_w[i],
                reference.bandwidths_hz[i],
                dev.gain.value(),
                n0,
            );
            assert!(rate >= r_min[i] * (1.0 - 1e-3), "device {i} rate {rate} < {}", r_min[i]);
        }
    }

    #[test]
    fn min_bandwidth_respects_rate_floor() {
        let (s, arrays, cfg, r_min) = fixture(5, 24, 0.02);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let b = min_bandwidth(&problem, i);
            let rate = shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
            assert!(rate >= r_min[i] * (1.0 - 1e-6));
        }
    }

    #[test]
    fn devices_with_better_channels_spend_less_energy() {
        // Aggregate sanity: the reference solution's total energy decreases if every channel
        // gain is improved by 6 dB.
        let (s, arrays, cfg, r_min) = fixture(10, 25, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let base = problem.comm_energy(&reference_point(&problem));

        let mut better = s.clone();
        for d in &mut better.devices {
            d.gain = wireless::channel::ChannelGain::new(d.gain.value() * 4.0);
        }
        let arrays2 = ScenarioArrays::from_scenario(&better);
        let problem2 =
            Sp2Problem::new(&better, &arrays2, Weights::balanced(), &r_min, &cfg).unwrap();
        let improved = problem2.comm_energy(&reference_point(&problem2));
        assert!(improved < base, "better channels should reduce energy ({improved} vs {base})");
    }
}
