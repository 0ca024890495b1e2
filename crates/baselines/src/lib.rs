//! # baselines
//!
//! Every comparison scheme used in the evaluation section (Section VII) of the ICDCS 2022
//! paper, scored through exactly the same `flsys` cost formulas as the proposed algorithm:
//!
//! * [`benchmark`] — the random **benchmark** of Figures 2 and 3: equal bandwidth split,
//!   maximum power with a random CPU frequency (power sweep) or maximum frequency with a
//!   random transmit power (frequency sweep).
//! * [`comm_only`] — **communication-only** optimization (Figure 7): frequencies pinned to
//!   the value that just meets the deadline under the initial uplink times, powers and
//!   bandwidths optimized.
//! * [`comp_only`] — **computation-only** optimization (Figure 7): powers and bandwidths
//!   pinned to `p_max` and `B/(2N)`, frequencies optimized.
//! * [`scheme1`] — **Scheme 1** (Figure 8): a reimplementation of the structure of Yang et
//!   al., *"Energy efficient federated learning over wireless communication networks"*
//!   (IEEE TWC 2021) — energy minimization under a hard deadline with a per-device time split
//!   fixed up front instead of re-optimized jointly with the bandwidth allocation.
//!
//! All baselines return a [`BaselineResult`] so the experiment harness can treat every scheme
//! uniformly. The three deadline baselines return [`fedopt_core::CoreError::InfeasibleDeadline`]
//! when their allocation misses the deadline by more than `SolverConfig::feasibility_tol`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmark;
pub mod comm_only;
pub mod comp_only;
pub mod result;
pub mod scheme1;
pub mod seeding;

pub use benchmark::BenchmarkAllocator;
pub use comm_only::CommOnlyAllocator;
pub use comp_only::CompOnlyAllocator;
pub use result::BaselineResult;
pub use scheme1::Scheme1Allocator;
pub use seeding::{derive_stream_seed, round_channel_seed, StreamDerivation};

use fedopt_core::{sp2, CoreError, SolverConfig, SolverWorkspace};
use flsys::{CostSummary, Scenario, Weights};

/// Rejects a deadline baseline's allocation whose total completion time overruns
/// `total_deadline_s` by more than `tol` (relative). The deadline baselines pin part of
/// the allocation up front, so a tight deadline can leave them with no allocation that
/// meets it; that is reported as [`CoreError::InfeasibleDeadline`], never as a number.
pub(crate) fn check_deadline(
    summary: CostSummary,
    total_deadline_s: f64,
    tol: f64,
) -> Result<CostSummary, CoreError> {
    if summary.total_time_s <= total_deadline_s * (1.0 + tol) {
        Ok(summary)
    } else {
        Err(CoreError::InfeasibleDeadline {
            requested_s: total_deadline_s,
            achievable_s: summary.total_time_s,
        })
    }
}

/// The shared tail of the deadline baselines that pin the CPU frequencies and optimize only
/// `(p, B)` (communication-only and Scheme 1). Given the frequencies in
/// [`SolverWorkspace::frequencies_hz`] and the starting `(p, B)` in
/// [`SolverWorkspace::allocation`], it minimizes transmission energy under the per-device
/// rate floors those frequencies leave within the round deadline, leaves the projected
/// allocation in [`SolverWorkspace::allocation`] and checks the deadline.
pub(crate) fn optimize_comm_under_deadline(
    scenario: &Scenario,
    total_deadline_s: f64,
    config: &SolverConfig,
    ws: &mut SolverWorkspace,
) -> Result<CostSummary, CoreError> {
    let round_deadline = total_deadline_s / scenario.params.rg();
    let rl = scenario.params.rl();
    ws.arrays.rebuild(scenario);
    let SolverWorkspace { r_min_bps, frequencies_hz, sp2, allocation, counters, arrays, .. } =
        &mut *ws;
    r_min_bps.clear();
    r_min_bps.extend(scenario.devices.iter().zip(frequencies_hz.iter()).map(|(d, &f)| {
        let t_cmp = rl * d.cycles_per_local_iteration() / f;
        let budget = (round_deadline - t_cmp).max(1e-6);
        d.upload_bits / budget
    }));
    sp2.stage_start(&allocation.powers_w, &allocation.bandwidths_hz);
    let sp2_sol = sp2::solve_with_arrays_in(
        scenario,
        arrays,
        Weights::energy_only(),
        r_min_bps,
        config,
        sp2,
    )?;
    counters.record_sp2(&sp2_sol);

    allocation.powers_w.copy_from_slice(&sp2.solution().powers_w);
    allocation.bandwidths_hz.copy_from_slice(&sp2.solution().bandwidths_hz);
    allocation.frequencies_hz.copy_from_slice(frequencies_hz);
    allocation.project_feasible(scenario);
    let summary = scenario.cost_summary(allocation).map_err(CoreError::from)?;
    check_deadline(summary, total_deadline_s, config.feasibility_tol)
}
