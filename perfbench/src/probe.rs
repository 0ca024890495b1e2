//! Timed calls into `flsys` and `fedopt_core`, outside any sweep: scenario builds, whole
//! solves recorded as `core.solve` spans, and the Algorithm-2 sub-calls (SP1, SP2 and the
//! SP2 reference polish) timed in isolation on a workload's own scenarios.

use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use fedopt_core::sp1::{self, Sp1WarmState};
use fedopt_core::sp2::reference::{solve_reference_into, ReferenceWarmState};
use fedopt_core::sp2::{self, PowerBandwidth, Sp2Problem};
use fedopt_core::{
    CoreError, JointOptimizer, OutcomeSummary, SolverConfig, SolverWorkspace, Sp2Scratch,
};
use flsys::{Scenario, ScenarioBuilder, Weights};
use std::hint::black_box;
use std::time::Instant;

/// Which Algorithm-2 entry point a scenario is solved with.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `solve_summary_with` at these weights.
    Weighted(Weights),
    /// `solve_with_deadline_summary_in` under this total deadline (s).
    Deadline(f64),
}

/// One scenario and how the workload solves it.
#[derive(Debug, Clone)]
pub struct Case {
    /// The scenario.
    pub scenario: Scenario,
    /// The solve it gets.
    pub kind: Kind,
}

/// Solves one case against `ws`, recording a `core.solve` span with the solver's counter
/// delta when a recorder is given.
pub fn solve(
    optimizer: &JointOptimizer,
    case: &Case,
    ws: &mut SolverWorkspace,
    recorder: Option<(&Recorder, Option<usize>)>,
) -> Result<OutcomeSummary, CoreError> {
    let before = ws.counters;
    let start = Instant::now();
    let out = match case.kind {
        Kind::Weighted(w) => optimizer.solve_summary_with(&case.scenario, w, ws),
        Kind::Deadline(t) => optimizer.solve_with_deadline_summary_in(&case.scenario, t, ws),
    };
    if let Some((rec, parent)) = recorder {
        let delta = ws.counters.since(&before);
        rec.record("core.solve", start, Instant::now(), parent, None, Some(delta));
    }
    out
}

/// Times `builder.build(seed)` for every pair; returns `(calls, total_ms)`.
pub fn time_builds(builds: &[(ScenarioBuilder, u64)]) -> Result<(usize, f64), String> {
    let mut total_ms = 0.0;
    for (builder, seed) in builds {
        let start = Instant::now();
        let scenario = builder.build(*seed).map_err(|e| format!("scenario build: {e}"))?;
        total_ms += start.elapsed().as_secs_f64() * 1e3;
        black_box(scenario);
    }
    Ok((builds.len(), total_ms))
}

/// Mean over cases of the median of `reps` isolated calls, microseconds; 0 when the
/// workload never makes the call.
#[derive(Debug, Default, Clone, Copy)]
pub struct SubCalls {
    /// `sp1::solve_direct_with_arrays_in`.
    pub sp1_us: f64,
    /// `sp2::solve_with_arrays_in` (includes the reference polish when it is enabled).
    pub sp2_us: f64,
    /// `sp2::reference::solve_reference_into`.
    pub reference_us: f64,
    /// Whether the workload's solver runs the polish on every SP2 solve.
    pub polish: bool,
    /// Measured share of whole-solve time the polish costs: `1 − Σ t_off / Σ t_on` over
    /// the cases, each solved from a fresh workspace with the polish on and off.
    pub share_ab: f64,
}

fn median_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Times the sub-calls (median of `reps` calls each; the polish on/off whole solves once
/// each) on the inputs each case's own solve ends with: the lane view, the
/// rate floors and upload times of its last outer iteration, and its final `(p, B)` as
/// the SP2 start. Warm state is reset before every call, so each is a from-scratch call
/// under the workload's solver configuration. The deadline alternation runs no SP1, so
/// deadline cases time SP2 and the polish only.
pub fn sub_calls(cases: &[Case], config: SolverConfig, reps: usize) -> Result<SubCalls, String> {
    let optimizer = JointOptimizer::new(config);
    let unpolished = JointOptimizer::new(SolverConfig { polish_with_reference: false, ..config });
    let (mut sp1_all, mut sp2_all, mut ref_all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut on_us, mut off_us) = (0.0, 0.0);
    for case in cases {
        let mut ws = SolverWorkspace::new();
        match solve(&optimizer, case, &mut ws, None) {
            Ok(_) => {}
            // An infeasible draw has no solve state to replay.
            Err(CoreError::InfeasibleDeadline { .. } | CoreError::NonFiniteObjective { .. }) => {
                continue
            }
            Err(e) => return Err(format!("probe solve: {e}")),
        }
        if config.polish_with_reference {
            let whole = |opt: &JointOptimizer| {
                median_us(1, || {
                    black_box(solve(opt, case, &mut SolverWorkspace::new(), None).is_ok());
                })
            };
            on_us += whole(&optimizer);
            off_us += whole(&unpolished);
        }
        let scenario = &case.scenario;
        let arrays = ws.arrays.clone();
        let r_min = ws.r_min_bps.clone();
        let start = PowerBandwidth::new(ws.best.powers_w.clone(), ws.best.bandwidths_hz.clone());
        let weights = match case.kind {
            Kind::Weighted(w) => {
                let uploads = ws.uploads_s.clone();
                let mut freqs = Vec::new();
                let mut warm = Sp1WarmState::default();
                let mut probes = 0u64;
                sp1_all.push(median_us(reps, || {
                    warm.reset();
                    let r = sp1::solve_direct_with_arrays_in(
                        scenario,
                        &arrays,
                        w,
                        &uploads,
                        &config,
                        &mut freqs,
                        &mut warm,
                        &mut probes,
                    );
                    black_box(r.is_ok());
                }));
                w
            }
            Kind::Deadline(_) => Weights::energy_only(),
        };
        let mut scratch = Sp2Scratch::new();
        sp2_all.push(median_us(reps, || {
            scratch.reset_warm_start();
            scratch.stage_start(&start.powers_w, &start.bandwidths_hz);
            let r = sp2::solve_with_arrays_in(
                scenario,
                &arrays,
                weights,
                &r_min,
                &config,
                &mut scratch,
            );
            black_box(r.is_ok());
        }));
        let problem = Sp2Problem::new(scenario, &arrays, weights, &r_min, &config)
            .map_err(|e| format!("sp2 problem: {e}"))?;
        let mut out = PowerBandwidth::new(Vec::new(), Vec::new());
        let (mut b_lo, mut warm) = (Vec::new(), ReferenceWarmState::default());
        ref_all.push(median_us(reps, || {
            warm.reset();
            let r = solve_reference_into(&problem, &mut out, &mut b_lo, &mut warm);
            black_box(r.is_ok());
        }));
    }
    Ok(SubCalls {
        sp1_us: stats::mean(&sp1_all),
        sp2_us: stats::mean(&sp2_all),
        reference_us: stats::mean(&ref_all),
        polish: config.polish_with_reference,
        share_ab: if on_us > 0.0 { 1.0 - off_us / on_us } else { 0.0 },
    })
}

/// Emits the `core.*` per-layer metrics from the `core.solve` spans and the sub-call
/// timings.
pub fn core_metrics(report: &mut Report, spans: &[Span], sub: SubCalls) {
    let us: Vec<f64> = trace::named(spans, "core.solve").map(Span::us).collect();
    let c = trace::counters(spans, "core.solve");
    let solve_us = us.iter().fold(0.0, |a, b| a + b);
    report.metric("core.solve.calls", us.len() as f64, "count");
    report.metric("core.solve.ms", solve_us / 1e3, "ms");
    report.metric("core.solve.p50_us", stats::median(&us), "us");
    report.metric("core.solve.tail_us", stats::tail(&us).1, "us");
    report.metric("core.outer_iters", c.outer_iterations as f64, "count");
    report.metric("core.jong_iters", c.jong_iterations as f64, "count");
    report.metric("core.kkt_solves", c.kkt_solves as f64, "count");
    report.metric("core.mu_evals", c.mu_bisect_evals as f64, "count");
    report.metric("core.sp1_probes", c.sp1_probe_evals as f64, "count");
    report.metric("core.fast_path_hits", c.sp2_fast_path_hits as f64, "count");
    report.metric("core.degraded", c.degraded_solves as f64, "count");
    report.metric("core.sp1.call_us", sub.sp1_us, "us");
    report.metric("core.sp2.call_us", sub.sp2_us, "us");
    report.metric("core.sp2.reference.call_us", sub.reference_us, "us");
    // With the polish on, every SP2 solve that misses the fast path runs it once, and
    // Algorithm 2 solves SP2 once per outer iteration.
    let polishes = if sub.polish {
        c.outer_iterations.saturating_sub(c.sp2_fast_path_hits) as f64
    } else {
        0.0
    };
    let share = if solve_us > 0.0 { sub.reference_us * polishes / solve_us } else { 0.0 };
    report.metric("core.sp2.reference.share_est", share, "ratio");
    report.metric("core.sp2.reference.share_ab", sub.share_ab, "ratio");
    report.note(format!(
        "core: {} solves, tail = p{} of {} samples; polish share estimate {:.3} \
         ({} polished SP2 solves x {:.1} us isolated reference call / {:.1} ms in solves)",
        us.len(),
        stats::tail(&us).0,
        us.len(),
        share,
        polishes,
        sub.reference_us,
        solve_us / 1e3
    ));
}
