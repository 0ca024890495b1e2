//! Exact price solver for Subproblem 2 — the default Subproblem-2 solver.
//!
//! This solver attacks the *original* ratio objective rather than the paper's parametric
//! form, using three structural facts:
//!
//! 1. For a fixed bandwidth `B_n`, the per-device communication energy
//!    `E_n(p) = p·d_n / G_n(p, B_n)` is strictly increasing in `p` (because
//!    `G_n(p) ≥ p·∂G_n/∂p` for a concave function through the origin). The energy-optimal
//!    power is therefore the *smallest feasible* one, `p_n = max(p_min, p_floor(B_n))`,
//!    where `p_floor(B)` meets the rate floor `r_n^min` exactly. SP2 becomes a separable
//!    problem over bandwidth alone, on `B_n ≥ b_lo`, the bandwidth at which `p_max` just
//!    meets the floor.
//! 2. Each device's energy `E_n(B)` is convex and decreasing in `B`. Below the `p_min`
//!    kink (where `p_floor(B) = p_min`) it is the perspective `(d N₀/(g r))·B·(2^{r/B} − 1)`
//!    of `2^x − 1`; above it, `p_min·d / G(p_min, B)`. The derivative only jumps *up* at
//!    the kink, so convexity holds across it.
//! 3. A convex separable problem with one budget is solved exactly by one price `ω` on
//!    bandwidth: every device takes the `B_n(ω)` at which its marginal energy `E_n'(B)`
//!    is `−ω` (clamped into `[b_lo, B]`), and `ω` is raised until the demands fit the band.
//!
//! At a price `ω`, a device on the floor branch demands the closed form
//! `B = r·ln2 / (1 + W₀((c − 1)/e))` with `c = ω·r·g/(d·N₀)`; above the kink, a
//! safeguarded 1-D root of `E'(B) = −ω` (Brent on `ln B`). The bandwidth `b_lo` and the
//! kink are computed once per device per call, by a monotone Newton iteration on the
//! rate equation. The aggregate demand is decreasing in `ω`, so the clearing price is a
//! Brent root on `ln ω` inside a bracket built from the devices' marginal energies — no
//! geometric expansion and no fixed halving count.

use super::{PowerBandwidth, Sp2Problem};
use numopt::lambertw::lambert_w0;
use numopt::roots::{brent, brent_with_endpoints};
use numopt::scalar::clamp;
use numopt::NumError;
use std::f64::consts::{E, LN_2};
use wireless::channel::{power_for_rate, shannon_rate_raw};

/// Iteration cap of every Brent search here; the bisection safeguard converges far sooner.
const MAX_ITER: usize = 200;

/// Warm-start carry-over of the price solver: the bandwidth price `ω` at which the
/// previous solve's aggregate demand cleared the budget.
///
/// Successive Subproblem-2 solves inside Algorithm 2's alternation differ only slightly,
/// so the clearing price barely moves. The next search probes the previous `ω` first and
/// brackets the root with steps that grow from `0.1%` outward, instead of the cold
/// bracket that spans every device's marginal energy. Only read (and only written) when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is enabled;
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

/// The physical constants of one device's uplink.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Channel gain `g`.
    gain: f64,
    /// Noise power spectral density `N₀` (W/Hz).
    n0: f64,
    /// `g / N₀` (1/W·Hz): the SNR per watt per hertz.
    g_over_n0: f64,
    /// Upload size `d` (bit).
    bits: f64,
    /// Rate floor `r` (bit/s); `0` disables it.
    r_min: f64,
    /// Minimum transmit power (W).
    p_min: f64,
}

impl Link {
    fn of(problem: &Sp2Problem<'_>, i: usize) -> Self {
        let arrays = problem.arrays();
        Self {
            gain: arrays.gain[i],
            n0: problem.n0(),
            g_over_n0: arrays.gain[i] / problem.n0(),
            bits: arrays.upload_bits[i],
            r_min: problem.r_min_bps()[i],
            p_min: arrays.p_min_w[i],
        }
    }

    /// Marginal saving `−E'(B)` on the floor branch (power just meets the rate floor).
    fn saving_floor(&self, b: f64) -> f64 {
        let x = self.r_min * LN_2 / b;
        self.bits / (self.g_over_n0 * self.r_min) * (x * x.exp() - x.exp_m1())
    }

    /// Marginal saving `−E'(B)` on the `p_min` branch (power pinned at `p_min`).
    fn saving_pmin(&self, b: f64) -> f64 {
        if self.p_min <= 0.0 {
            return 0.0;
        }
        let t = self.p_min * self.g_over_n0 / b;
        let l = t.ln_1p();
        self.p_min * self.bits * LN_2 * (l - t / (1.0 + t)) / (b * l * b * l)
    }

    /// The bandwidth at which the floor-branch marginal saving equals `ω`:
    /// `x = r·ln2/B` solves `x·eˣ − (eˣ − 1) = c`, i.e. `x = 1 + W₀((c − 1)/e)`.
    fn floor_demand(&self, omega: f64) -> Result<f64, NumError> {
        let c = omega * self.r_min * self.g_over_n0 / self.bits;
        let mut x = 1.0 + lambert_w0((c - 1.0) / E)?;
        if x < 0.5 {
            // Near W₀'s branch point `1 + W₀` loses digits; one Newton step on the
            // defining equation restores them.
            let ex = x.exp();
            x -= (x * ex - x.exp_m1() - c) / (x * ex);
        }
        Ok(self.r_min * LN_2 / x)
    }
}

/// Smallest bandwidth at which power `p` reaches `r` (bit/s), or `∞` when the rate
/// asymptote `p·g/(N₀ ln2)` lies at or below `r`.
///
/// With `t = p·g/(N₀·B)` the rate equation reads `ln(1 + t) = s·t`, `s = r·ln2·N₀/(p·g)`.
/// `h(t) = ln(1 + t) − s·t` is concave and decreasing past its root, so Newton from
/// `t₀ = 1/s² + 1` (where `ln(1 + t) ≤ √t` makes `h` negative) converges monotonically
/// from above. The last step nudges `B` up until the rate really meets `r`.
fn bandwidth_for_rate(link: &Link, p: f64) -> f64 {
    if link.r_min <= 0.0 {
        return 0.0;
    }
    let a = p * link.g_over_n0;
    let s = link.r_min * LN_2 / a;
    if s.is_nan() || s >= 1.0 {
        return f64::INFINITY;
    }
    let mut t = 1.0 / (s * s) + 1.0;
    for _ in 0..100 {
        let step = (t.ln_1p() - s * t) / (1.0 / (1.0 + t) - s);
        t -= step;
        if step.abs() <= 4.0 * f64::EPSILON * t {
            break;
        }
    }
    let mut b = a / t;
    let mut nudge = 1e-15;
    while shannon_rate_raw(p, b, link.gain, link.n0) < link.r_min && nudge < 1e-3 {
        b *= 1.0 + nudge;
        nudge *= 4.0;
    }
    b
}

/// Per-device constants of one call, packed `STRIDE` to a device into the caller's
/// scratch so the search allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    /// Lowest bandwidth the device may take (meets its rate floor at `p_max`).
    b_lo: f64,
    /// Highest bandwidth the device may take (`b_lo` for a device that cannot meet its
    /// floor at all).
    b_hi: f64,
    /// The `p_min` kink, clamped into `[b_lo, b_hi]`: the floor branch lies below it.
    kink: f64,
    /// Floor-branch marginal saving at the kink (unused when `kink == b_lo`).
    saving_floor_at_kink: f64,
    /// `p_min`-branch marginal saving at the kink.
    saving_pmin_at_kink: f64,
}

const STRIDE: usize = 5;

impl Bounds {
    fn new(problem: &Sp2Problem<'_>, link: &Link, i: usize) -> Self {
        let floor = problem.config().bandwidth_floor_hz;
        let b_total = problem.total_bandwidth();
        let b_lo = bandwidth_for_rate(link, problem.arrays().p_max_w[i]).max(floor);
        if b_lo > b_total {
            // Infeasible even with the whole band: claim an equal share and let the
            // sanitize pass arbitrate.
            let share = b_total / problem.arrays().len() as f64;
            return Self {
                b_lo: share,
                b_hi: share,
                kink: share,
                saving_floor_at_kink: 0.0,
                saving_pmin_at_kink: 0.0,
            };
        }
        let kink = clamp(bandwidth_for_rate(link, link.p_min), b_lo, b_total);
        Self {
            b_lo,
            b_hi: b_total,
            kink,
            saving_floor_at_kink: if kink > b_lo { link.saving_floor(kink) } else { 0.0 },
            saving_pmin_at_kink: link.saving_pmin(kink),
        }
    }

    fn read(chunk: &[f64]) -> Self {
        Self {
            b_lo: chunk[0],
            b_hi: chunk[1],
            kink: chunk[2],
            saving_floor_at_kink: chunk[3],
            saving_pmin_at_kink: chunk[4],
        }
    }

    fn write(&self, chunk: &mut [f64]) {
        chunk.copy_from_slice(&[
            self.b_lo,
            self.b_hi,
            self.kink,
            self.saving_floor_at_kink,
            self.saving_pmin_at_kink,
        ]);
    }

    /// Whether the device can take more than `b_lo` and spends energy that more bandwidth
    /// would save (a device with no rate floor and `p_min = 0` transmits for free).
    fn is_flexible(&self, link: &Link) -> bool {
        self.b_lo < self.b_hi && link.bits > 0.0 && (link.r_min > 0.0 || link.p_min > 0.0)
    }

    /// The device's marginal saving just above `b` (the right derivative at the kink).
    fn saving_above(&self, link: &Link, b: f64) -> f64 {
        if b < self.kink {
            link.saving_floor(b)
        } else {
            link.saving_pmin(b)
        }
    }

    /// The bandwidth the device picks when bandwidth costs `ω` per hertz.
    fn demand(&self, link: &Link, omega: f64, tol: f64) -> Result<f64, NumError> {
        if self.b_lo >= self.b_hi {
            return Ok(self.b_lo);
        }
        if self.kink > self.b_lo && omega >= self.saving_floor_at_kink {
            return Ok(clamp(link.floor_demand(omega)?, self.b_lo, self.kink));
        }
        if self.kink >= self.b_hi {
            return Ok(self.b_hi);
        }
        if omega >= self.saving_pmin_at_kink {
            return Ok(self.kink);
        }
        if link.saving_pmin(self.b_hi) >= omega {
            return Ok(self.b_hi);
        }
        // Interior of the p_min branch: the saving falls from above ω at the kink to below
        // it at b_hi; its logarithm is the better-conditioned root function.
        let ln_omega = omega.ln();
        let root = brent(
            |u| link.saving_pmin(u.exp()).ln() - ln_omega,
            self.kink.ln(),
            self.b_hi.ln(),
            tol,
            MAX_ITER,
        )?;
        Ok(clamp(root.root.exp(), self.kink, self.b_hi))
    }
}

/// Aggregate demand minus the budget at price `e^{ln_omega}` (decreasing in `ln_omega`);
/// NaN if a device's demand fails, which the Brent searches report as non-finite.
fn excess(problem: &Sp2Problem<'_>, bounds: &[f64], ln_omega: f64, tol: f64) -> f64 {
    let omega = ln_omega.exp();
    let mut total = 0.0;
    for (i, chunk) in bounds.chunks_exact(STRIDE).enumerate() {
        match Bounds::read(chunk).demand(&Link::of(problem, i), omega, tol) {
            Ok(b) => total += b,
            Err(_) => return f64::NAN,
        }
    }
    total - problem.total_bandwidth()
}

/// The clearing price's logarithm, searched from a warm seed: probe the seed, step outward
/// (from `0.1%`, growing 8× a step, never past the cold bracket `[lo, hi]`) until the
/// excess changes sign, then Brent on `ln ω` between the last two probes.
fn warm_ln_price(
    problem: &Sp2Problem<'_>,
    bounds: &[f64],
    (lo, hi): (f64, f64),
    seed: f64,
    tol: f64,
) -> Result<f64, NumError> {
    let f = |x: f64| excess(problem, bounds, x, tol);
    let mut x0 = clamp(seed, lo, hi);
    let mut f0 = f(x0);
    if !f0.is_finite() {
        return Err(NumError::NonFiniteValue { at: x0 });
    }
    if f0 == 0.0 {
        return Ok(x0);
    }
    // Demand above the budget means the price must rise.
    let up = f0 > 0.0;
    let mut step = 1e-3;
    loop {
        let x1 = if up { (x0 + step).min(hi) } else { (x0 - step).max(lo) };
        let f1 = f(x1);
        if !f1.is_finite() {
            return Err(NumError::NonFiniteValue { at: x1 });
        }
        if f1 == 0.0 {
            return Ok(x1);
        }
        if (f1 > 0.0) != (f0 > 0.0) || x1 == lo || x1 == hi {
            let (a, fa, b, fb) = if up { (x0, f0, x1, f1) } else { (x1, f1, x0, f0) };
            return Ok(brent_with_endpoints(f, a, fa, b, fb, tol, MAX_ITER)?.root);
        }
        (x0, f0) = (x1, f1);
        step *= 8.0;
    }
}

/// Solves Subproblem 2 exactly (see the module docs), writing the optimal `(p, B)` point
/// into caller-owned buffers — allocation-free once the buffers have grown. Returns the
/// clearing bandwidth price `ω` (J/Hz), or `None` when the rate floors alone exhaust the
/// band and every device gets its floor bandwidth scaled into the budget.
///
/// `out` and `bounds_scratch` are pure scratch: overwritten completely, resized to the
/// scenario, never read across calls (`bounds_scratch` holds each device's bandwidth
/// bounds, its `p_min` kink and its marginal savings there). `warm` carries the previous
/// clearing price between calls; it is only read (and only written) when
/// [`SolverConfig::warm_start`](crate::SolverConfig) is enabled, so with warm start off —
/// or a freshly-reset `warm` — the result depends on `problem` alone. The price search
/// stops at [`SolverConfig::mu_tol`](crate::SolverConfig) on `ln ω`, i.e. at that
/// relative accuracy on the price, warm or cold.
///
/// # Errors
///
/// Propagates numerical errors from the root searches, which only trigger on non-finite
/// inputs. On error `out` is unspecified.
pub fn solve_reference_into(
    problem: &Sp2Problem<'_>,
    out: &mut PowerBandwidth,
    bounds_scratch: &mut Vec<f64>,
    warm: &mut ReferenceWarmState,
) -> Result<Option<f64>, NumError> {
    let arrays = problem.arrays();
    let n = arrays.len();
    let b_total = problem.total_bandwidth();
    let tol = problem.config().mu_tol;
    let warm_on = problem.config().warm_start;

    bounds_scratch.clear();
    bounds_scratch.resize(n * STRIDE, 0.0);
    let (mut lo_sum, mut flexible) = (0.0, 0usize);
    for (i, chunk) in bounds_scratch.chunks_exact_mut(STRIDE).enumerate() {
        let link = Link::of(problem, i);
        let bounds = Bounds::new(problem, &link, i);
        bounds.write(chunk);
        lo_sum += bounds.b_lo;
        flexible += usize::from(bounds.is_flexible(&link));
    }
    let bounds: &[f64] = bounds_scratch;

    out.bandwidths_hz.clear();
    let mut price = None;
    if lo_sum >= b_total {
        // The rate floors alone exhaust (or exceed) the budget: hand out proportional shares.
        out.bandwidths_hz.extend(bounds.chunks_exact(STRIDE).map(|c| c[0] / lo_sum * b_total));
    } else if flexible == 0 {
        // No device can use more bandwidth, or none spends energy at all: any split is
        // optimal; keep the floors and share the slack out below.
        out.bandwidths_hz.extend(bounds.chunks_exact(STRIDE).map(|c| c[0]));
    } else {
        // The cold price bracket: at `hi` every device demands its b_lo (excess
        // `lo_sum − B < 0`), at `lo` every flexible device demands at least
        // max(b_lo, B/flexible), which covers the budget. Both carry a factor-2 margin
        // against round-off in the demands.
        let share = b_total / flexible as f64;
        let (mut omega_lo, mut omega_hi) = (f64::INFINITY, 0.0_f64);
        for (i, chunk) in bounds.chunks_exact(STRIDE).enumerate() {
            let (link, b) = (Link::of(problem, i), Bounds::read(chunk));
            if b.is_flexible(&link) {
                omega_hi = omega_hi.max(2.0 * b.saving_above(&link, b.b_lo));
                omega_lo = omega_lo.min(0.5 * b.saving_above(&link, b.b_lo.max(share)));
            }
        }
        let (lo, hi) = (omega_lo.ln(), omega_hi.ln());
        let ln_omega = match (warm_on && warm.valid).then(|| warm.omega.ln()) {
            Some(seed) => warm_ln_price(problem, bounds, (lo, hi), seed, tol)?,
            None => {
                let f = |x: f64| excess(problem, bounds, x, tol);
                brent_with_endpoints(f, lo, f(lo), hi, lo_sum - b_total, tol, MAX_ITER)?.root
            }
        };
        let omega = ln_omega.exp();
        for (i, chunk) in bounds.chunks_exact(STRIDE).enumerate() {
            out.bandwidths_hz.push(Bounds::read(chunk).demand(
                &Link::of(problem, i),
                omega,
                tol,
            )?);
        }
        if warm_on {
            warm.omega = omega;
            warm.valid = true;
        }
        price = Some(omega);
    }
    // The demands clear the budget to the price tolerance; scale the last sliver of slack
    // (or excess) out proportionally. Energy is decreasing in bandwidth, so handing out
    // slack can only help.
    let used: f64 = out.bandwidths_hz.iter().sum();
    if used > 0.0 && used != b_total {
        let scale = b_total / used;
        for b in &mut out.bandwidths_hz {
            *b *= scale;
        }
    }

    out.powers_w.clear();
    let n0 = problem.n0();
    out.powers_w.extend(out.bandwidths_hz.iter().enumerate().map(|(i, &b)| {
        clamp(
            power_for_rate(problem.r_min_bps()[i], b, arrays.gain[i], n0),
            arrays.p_min_w[i],
            arrays.p_max_w[i],
        )
    }));

    problem.sanitize(out);
    Ok(price)
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

    /// The price point of `problem`, solved cold into fresh buffers, and its price.
    fn price_point(problem: &Sp2Problem<'_>) -> (PowerBandwidth, Option<f64>) {
        let mut point = PowerBandwidth::default();
        let price = solve_reference_into(
            problem,
            &mut point,
            &mut Vec::new(),
            &mut ReferenceWarmState::default(),
        )
        .unwrap();
        (point, price)
    }

    /// Per-device energy at bandwidth `b` under the smallest-feasible-power rule (`∞`
    /// below the device's floor bandwidth at `p_max`).
    fn energy_at(problem: &Sp2Problem<'_>, i: usize, b: f64) -> f64 {
        let a = problem.arrays();
        let r = problem.r_min_bps()[i];
        let p = power_for_rate(r, b, a.gain[i], problem.n0()).max(a.p_min_w[i]);
        if p > a.p_max_w[i] * (1.0 + 1e-12) {
            return f64::INFINITY;
        }
        let p = p.min(a.p_max_w[i]);
        let rate = shannon_rate_raw(p, b, a.gain[i], problem.n0());
        if p == 0.0 {
            0.0
        } else {
            p * a.upload_bits[i] / rate
        }
    }

    #[test]
    fn reference_beats_equal_split_at_max_power() {
        let (s, arrays, cfg, r_min) = fixture(10, 21, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let a = Allocation::equal_split_max(&s);
        let start = PowerBandwidth::new(a.powers_w.clone(), a.bandwidths_hz.clone());
        let (point, _) = price_point(&problem);
        assert!(
            problem.comm_energy(&point) <= problem.comm_energy(&start) * (1.0 + 1e-9),
            "price point {} should beat start {}",
            problem.comm_energy(&point),
            problem.comm_energy(&start)
        );
    }

    #[test]
    fn reference_uses_the_whole_band() {
        let (s, arrays, cfg, r_min) = fixture(8, 22, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let used: f64 = price_point(&problem).0.bandwidths_hz.iter().sum();
        let b_total = s.params.total_bandwidth.value();
        assert!((used - b_total).abs() <= 1e-9 * b_total, "band use {used} of {b_total}");
    }

    #[test]
    fn reference_meets_rate_floors() {
        let (s, arrays, cfg, r_min) = fixture(12, 23, 0.03);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let (point, _) = price_point(&problem);
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let rate =
                shannon_rate_raw(point.powers_w[i], point.bandwidths_hz[i], dev.gain.value(), n0);
            assert!(rate >= r_min[i] * (1.0 - cfg.feasibility_tol), "device {i} rate {rate}");
        }
    }

    #[test]
    fn min_bandwidth_respects_rate_floor() {
        let (s, arrays, cfg, r_min) = fixture(5, 24, 0.02);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let n0 = s.params.noise.watts_per_hz();
        for (i, dev) in s.devices.iter().enumerate() {
            let b = bandwidth_for_rate(&Link::of(&problem, i), dev.p_max.value());
            let rate = |b: f64| shannon_rate_raw(dev.p_max.value(), b, dev.gain.value(), n0);
            assert!(rate(b) >= r_min[i], "device {i} misses its floor at b_lo");
            assert!(rate(b * (1.0 - 1e-9)) < r_min[i], "device {i}: b_lo {b} is not the least");
        }
    }

    #[test]
    fn floor_demand_zeroes_the_floor_branch_marginal() {
        let (s, arrays, cfg, r_min) = fixture(4, 26, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        for i in 0..4 {
            let link = Link::of(&problem, i);
            for omega in [1e-12, 1e-9, 1e-6, 1e-3] {
                let b = link.floor_demand(omega).unwrap();
                let saving = link.saving_floor(b);
                assert!((saving - omega).abs() <= 1e-9 * omega, "device {i}, ω {omega}: {saving}");
            }
        }
    }

    #[test]
    fn devices_with_better_channels_spend_less_energy() {
        // Aggregate sanity: the optimal energy decreases if every channel gain is improved
        // by 6 dB.
        let (s, arrays, cfg, r_min) = fixture(10, 25, 0.05);
        let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
        let base = problem.comm_energy(&price_point(&problem).0);

        let mut better = s.clone();
        for d in &mut better.devices {
            d.gain = wireless::channel::ChannelGain::new(d.gain.value() * 4.0);
        }
        let arrays2 = ScenarioArrays::from_scenario(&better);
        let problem2 =
            Sp2Problem::new(&better, &arrays2, Weights::balanced(), &r_min, &cfg).unwrap();
        let improved = problem2.comm_energy(&price_point(&problem2).0);
        assert!(improved < base, "better channels should reduce energy ({improved} vs {base})");
    }

    /// KKT certificate of the price point: every device strictly inside its bandwidth box
    /// has marginal energy `−ω` (at the `p_min` kink, `−ω` lies between the left and the
    /// right derivative), and every device held at `b_lo` has marginal energy at least
    /// `−ω` (it would not buy bandwidth at that price). Checked by one-sided differences of
    /// the per-device energy, across windows and device counts up to 50.
    #[test]
    fn price_point_carries_a_kkt_certificate() {
        for (n, seed, window) in [(3, 1, 0.05), (10, 2, 0.02), (50, 3, 0.01), (50, 4, 0.2)] {
            let (s, arrays, cfg, r_min) = fixture(n, seed, window);
            let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
            let mut bounds = Vec::new();
            let mut point = PowerBandwidth::default();
            let omega = solve_reference_into(
                &problem,
                &mut point,
                &mut bounds,
                &mut ReferenceWarmState::default(),
            )
            .unwrap()
            .expect("these floors leave slack in the band");
            let mut interior = 0;
            for (i, &b) in point.bandwidths_hz.iter().enumerate() {
                let b_lo = Bounds::read(&bounds[i * STRIDE..(i + 1) * STRIDE]).b_lo;
                let h = 1e-5 * b;
                let right = (energy_at(&problem, i, b + h) - energy_at(&problem, i, b)) / h;
                assert!(
                    right >= -omega * (1.0 + 1e-3),
                    "n {n}, device {i}: right marginal {right} below −ω {}",
                    -omega
                );
                if b > b_lo * (1.0 + 1e-6) {
                    interior += 1;
                    let left = (energy_at(&problem, i, b) - energy_at(&problem, i, b - h)) / h;
                    assert!(
                        left <= -omega * (1.0 - 1e-3),
                        "n {n}, device {i}: left marginal {left} above −ω {}",
                        -omega
                    );
                }
            }
            assert!(interior > 0, "n {n}: no interior device — the certificate tested nothing");
        }
    }

    /// Brute force at n ≤ 3: a `(p, B)` grid over every device (the last bandwidth takes
    /// the rest of the band) never finds a floor-meeting point below the price point.
    #[test]
    fn price_point_is_not_beaten_by_a_brute_force_grid() {
        for (n, seed, window) in [(2, 5, 0.05), (2, 6, 0.01), (3, 7, 0.03)] {
            let (s, arrays, cfg, r_min) = fixture(n, seed, window);
            let problem = Sp2Problem::new(&s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
            let best = problem.comm_energy(&price_point(&problem).0);
            let b_total = s.params.total_bandwidth.value();
            let n0 = s.params.noise.watts_per_hz();
            // ~10⁶ grid points either way: finer axes at n = 2 than at n = 3.
            let (powers, shares) = if n == 2 { (60, 300) } else { (16, 60) };
            let mut axes = Vec::new();
            for dev in &s.devices {
                axes.push(
                    numopt::grid::linspace(dev.p_min.value(), dev.p_max.value(), powers).unwrap(),
                );
            }
            for _ in 0..n - 1 {
                axes.push(
                    numopt::grid::linspace(b_total / shares as f64, b_total, shares).unwrap(),
                );
            }
            let grid = numopt::grid::grid_min(&axes, |x| {
                let (powers, shares) = x.split_at(n);
                let last = b_total - shares.iter().sum::<f64>();
                if last <= 0.0 {
                    return f64::INFINITY;
                }
                let mut energy = 0.0;
                for (i, dev) in s.devices.iter().enumerate() {
                    let b = if i < n - 1 { shares[i] } else { last };
                    let rate = shannon_rate_raw(powers[i], b, dev.gain.value(), n0);
                    if rate < r_min[i] {
                        return f64::INFINITY;
                    }
                    energy += powers[i] * dev.upload_bits / rate;
                }
                energy
            })
            .unwrap();
            assert!(
                best <= grid.value * (1.0 + 1e-9),
                "n {n}, seed {seed}: price point {best} above grid {}",
                grid.value
            );
            // And the grid is fine enough to come close: the two agree to grid resolution.
            assert!(grid.value <= best * 1.5, "grid {} far above {best}", grid.value);
        }
    }

    /// Degenerate inputs: `p_min = 0`, `p_min = p_max`, no rate floors, and floors that
    /// exhaust the band all end in a finite point inside the boxes and the budget.
    #[test]
    fn degenerate_inputs_end_in_a_valid_point() {
        let base = ScenarioBuilder::paper_default().with_devices(6).build(27).unwrap();
        let b_total = base.params.total_bandwidth.value();
        let floors = |s: &flsys::Scenario, window: f64| -> Vec<f64> {
            s.devices.iter().map(|d| d.upload_bits / window).collect()
        };
        let mut zero_pmin = base.clone();
        let mut fixed_power = base.clone();
        for (z, f) in zero_pmin.devices.iter_mut().zip(&mut fixed_power.devices) {
            z.p_min = wireless::units::Watts::new(0.0);
            f.p_min = f.p_max;
        }
        let cases: [(&str, &flsys::Scenario, Vec<f64>); 6] = [
            ("p_min = 0", &zero_pmin, floors(&zero_pmin, 0.05)),
            ("p_min = 0, no floors", &zero_pmin, vec![0.0; 6]),
            ("p_min = p_max", &fixed_power, floors(&fixed_power, 0.05)),
            ("no floors", &base, vec![0.0; 6]),
            ("floors exhaust the band", &base, floors(&base, 1e-4)),
            ("one unreachable floor", &base, {
                let mut r = floors(&base, 0.05);
                r[2] = 1e12;
                r
            }),
        ];
        for (name, s, r_min) in cases {
            let arrays = ScenarioArrays::from_scenario(s);
            let cfg = SolverConfig::default();
            let problem = Sp2Problem::new(s, &arrays, Weights::balanced(), &r_min, &cfg).unwrap();
            let (point, _) = price_point(&problem);
            let used: f64 = point.bandwidths_hz.iter().sum();
            assert!(used <= b_total * (1.0 + 1e-9), "{name}: band overspent ({used})");
            for (i, dev) in s.devices.iter().enumerate() {
                let (p, b) = (point.powers_w[i], point.bandwidths_hz[i]);
                assert!(p.is_finite() && b.is_finite() && b > 0.0, "{name}: device {i}");
                assert!(p >= dev.p_min.value() && p <= dev.p_max.value(), "{name}: power box");
            }
            assert!(problem.comm_energy(&point).is_finite(), "{name}: energy");
        }
    }
}
