//! The `sim-rounds` workload: the `rounds-paper` preset (10 devices × 40 rounds ×
//! {re_solve, static, fedaecs, elastic}) through `experiments::rounds`, with ten scenario
//! seeds per simulation drawn from the workload seed.
//!
//! The traced run times single-policy `simulate_with_engine` runs (`rounds.<policy>`),
//! `fedsim::RoundTrainer::step` calls on the simulation's own training task, and a
//! replica of the `re_solve`/`static` solve chain (round-0 solve, then warm re-solves on
//! each round's refaded channel) through the public `core` entry points.

use crate::probe::{self, Case, Kind};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder};
use crate::{for_budget, Args, THREADS};
use baselines::derive_stream_seed;
use experiments::rounds::simulate_with_engine;
use experiments::spec::{AxisKind, RoundPolicy, RoundsSpec, SeedSpec};
use experiments::{ExperimentSpec, RoundSimRun, SweepEngine};
use fedopt_core::{JointOptimizer, SolverConfig, SolverWorkspace};
use fedsim::{FederatedDataset, RoundTrainer, SyntheticConfig};
use flsys::{Scenario, ScenarioBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use wireless::{ChannelGain, LogNormalShadowing};

fn rounds_of(spec: &ExperimentSpec) -> Result<&RoundsSpec, String> {
    spec.rounds.as_ref().ok_or_else(|| "sim preset has no rounds section".to_string())
}

/// The simulated scenario point (the preset's one-value device axis).
fn template(spec: &ExperimentSpec) -> Result<ScenarioBuilder, String> {
    if spec.axis.kind != AxisKind::Devices || spec.axis.values.len() != 1 {
        return Err("sim preset must pin one device count on its axis".to_string());
    }
    let builder = spec.scenario.apply(ScenarioBuilder::paper_default());
    Ok(builder.with_devices(spec.axis.values[0] as usize))
}

/// Set-up: parse and validate the spec, build every seed's scenario and the synthetic
/// federated dataset the simulation trains on.
fn setup_once(text: &str, seeds: &[u64]) -> Result<ExperimentSpec, String> {
    let mut spec = ExperimentSpec::from_json_str(text).map_err(|e| format!("spec: {e}"))?;
    spec.seeds = SeedSpec::list(seeds.to_vec());
    spec.validate().map_err(|e| format!("spec: {e}"))?;
    let rounds = rounds_of(&spec)?;
    let builder = template(&spec)?;
    for &seed in seeds {
        let scenario = builder.build(seed).map_err(|e| format!("scenario build: {e}"))?;
        black_box(dataset(rounds, scenario.devices.len(), seed));
    }
    Ok(spec)
}

fn dataset(rounds: &RoundsSpec, devices: usize, seed: u64) -> FederatedDataset {
    FederatedDataset::synthetic(
        &SyntheticConfig::default()
            .with_devices(devices)
            .with_samples_per_device(rounds.training.samples_per_device as usize),
        derive_stream_seed(seed),
    )
}

fn draw_seeds(rng: &mut StdRng, count: usize) -> Vec<u64> {
    (0..count).map(|_| rng.gen::<u64>() >> 11).collect()
}

/// Checks one simulation's trajectories; returns the number of failed policy-round cells.
fn check(run: &RoundSimRun, report: &mut Report) -> u64 {
    let mut failed = 0;
    for policy in &run.policies {
        if policy.trajectory.len() != run.rounds as usize {
            report.check_failures.push(format!("{}: trajectory length", policy.kind));
            failed += (run.rounds as usize * run.seeds) as u64;
            continue;
        }
        let (mut energy, mut time) = (0.0, 0.0);
        for r in &policy.trajectory {
            let values = [
                r.participants,
                r.round_energy_j,
                r.round_time_s,
                r.cumulative_energy_j,
                r.cumulative_time_s,
                r.global_loss,
                r.test_accuracy,
            ];
            let ok = values.iter().all(|v| v.is_finite())
                && r.participants >= 0.0
                && r.participants <= run.devices as f64
                && r.cumulative_energy_j >= energy
                && r.cumulative_time_s >= time;
            if !ok {
                report.note(format!("{} round {}: check failed: {r:?}", policy.kind, r.round));
                failed += run.seeds as u64;
            }
            energy = r.cumulative_energy_j;
            time = r.cumulative_time_s;
        }
    }
    failed
}

fn energy_gap(run: &RoundSimRun) -> Option<f64> {
    let total =
        |kind: &str| run.policies.iter().find(|p| p.kind == kind).map(|p| p.totals.total_energy_j);
    Some(total("re_solve")? - total("static")?)
}

/// One simulation with output checks; returns `(cells, failed, secs)`.
fn simulate(
    spec: &ExperimentSpec,
    engine: &SweepEngine,
    report: &mut Report,
    gaps: &mut Vec<f64>,
) -> (u64, u64, f64) {
    let cells = rounds_of(spec).map_or(0, |r| r.policies.len() * r.rounds as usize)
        * spec.seeds.values().len();
    let start = Instant::now();
    let result = simulate_with_engine(spec, engine).map(|run| {
        let json = run.to_json_string();
        (run, black_box(json).len())
    });
    let secs = start.elapsed().as_secs_f64();
    match result {
        Ok((run, _)) => {
            gaps.extend(energy_gap(&run));
            (cells as u64, check(&run, report), secs)
        }
        Err(e) => {
            report.check_failures.push(format!("simulation failed: {e}"));
            (cells as u64, cells as u64, secs)
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut preset = experiments::presets::rounds_paper();
    preset.engine.threads = Some(THREADS);
    let text = preset.to_json_string();
    // As many fresh seeds per simulation as the preset averages over.
    let per_sim = preset.seeds.values().len();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let first = draw_seeds(&mut rng, per_sim);
    // Set-up is timed 5 times up front and once more before every simulation, so its
    // median spans the whole run rather than one instant of host load.
    let mut setups = Vec::new();
    let mut spec = None;
    for _ in 0..5 {
        let start = Instant::now();
        spec = Some(setup_once(&text, &first)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let spec = spec.expect("set-up ran");
    let engine = spec.engine.to_engine();
    let mut report = Report::default();
    let mut gaps = Vec::new();

    let mut draw = || {
        let seeds = draw_seeds(&mut rng, per_sim);
        let mut spec = spec.clone();
        spec.seeds = SeedSpec::list(seeds.clone());
        spec
    };

    if !args.trace {
        let (mut sims, mut cells, mut secs) = (0, 0, 0.0);
        for_budget(args.seconds, || {
            let start = Instant::now();
            if setup_once(&text, &first).is_ok() {
                setups.push(start.elapsed().as_secs_f64());
            }
            let (c, failed, s) = simulate(&draw(), &engine, &mut report, &mut gaps);
            report.count(c, failed);
            (sims, cells, secs) = (sims + 1, cells + c, secs + s);
        });
        report.note(format!(
            "sim-rounds: {sims} simulations of {per_sim} seeds, {} threads; re_solve - \
             static cumulative energy {:+.4e} J (mean over simulations, not gated)",
            engine.threads(),
            stats::mean(&gaps)
        ));
        report.note(format!("policy_rounds_per_s {:.4} 1/s", cells as f64 / secs));
        report.metric("setup_s", stats::median(&setups), "s");
        report.metric("ops_per_s", cells as f64 / secs, "1/s");
        return Ok(report);
    }

    // Traced run: each seed set simulated whole untraced, then once per policy with spans.
    let recorder = Recorder::default();
    let rounds = rounds_of(&spec)?.clone();
    let (mut plain_secs, mut traced_secs) = (0.0, 0.0);
    let mut seed_sets = Vec::new();
    for_budget(args.seconds.mul_f64(0.9), || {
        let whole = draw();
        let (cells, failed, secs) = simulate(&whole, &engine, &mut report, &mut gaps);
        report.count(cells, failed);
        plain_secs += secs;
        for policy in &rounds.policies {
            let mut single = whole.clone();
            if let Some(r) = single.rounds.as_mut() {
                r.policies = vec![policy.clone()];
            }
            let start = Instant::now();
            let (cells, failed, secs) = simulate(&single, &engine, &mut report, &mut Vec::new());
            let name = format!("rounds.{}", policy.policy.name());
            recorder.record(name, start, Instant::now(), None, None, None);
            report.count(cells, failed);
            traced_secs += secs;
        }
        seed_sets.push(whole.seeds.values());
    });

    let builder = template(&spec)?;
    let builds: Vec<(ScenarioBuilder, u64)> =
        seed_sets.iter().flat_map(|seeds| seeds.iter().map(|&s| (builder.clone(), s))).collect();
    let (build_calls, build_ms) = probe::time_builds(&builds)?;
    report.metric("flsys.build.calls", build_calls as f64, "count");
    report.metric("flsys.build.ms", build_ms, "ms");

    let config = spec
        .solver
        .resolve()
        .with_warm_start(engine.warm_starts())
        .with_superlinear_mu(engine.superlinear_mu())
        .with_adaptive_mu_bracket(engine.adaptive_mu_bracket())
        .with_outer_continuation(false);
    let probe_seeds = &seed_sets[0][..2];
    let mut cases = Vec::new();
    for &seed in probe_seeds {
        let scenario0 = builder.build(seed).map_err(|e| format!("scenario build: {e}"))?;
        replay_solves(&rounds, &scenario0, seed, config, &recorder)?;
        replay_steps(&rounds, &scenario0, seed, &recorder);
        cases.push(Case { scenario: scenario0, kind: Kind::Weighted(policy_weights(&rounds)) });
    }
    let spans = recorder.spans();
    let sub = probe::sub_calls(&cases, config, 3)?;
    probe::core_metrics(&mut report, &spans, sub);
    for kind in ["re_solve", "static", "fedaecs", "elastic"] {
        let name = format!("rounds.{kind}");
        report.metric(format!("{name}.ms"), trace::total_ms(&spans, &name), "ms");
    }
    let steps: Vec<f64> = trace::named(&spans, "fedsim.step").map(trace::Span::us).collect();
    report.metric("fedsim.step.calls", steps.len() as f64, "count");
    report.metric("fedsim.step.us", stats::mean(&steps), "us");
    report.metric("sim.resolve_minus_static_j", stats::mean(&gaps), "J");
    report.metric("trace.overhead", traced_secs / plain_secs, "ratio");
    report.note(format!(
        "sim-rounds: {} seed sets simulated whole in {plain_secs:.2} s and as single-policy \
         runs in {traced_secs:.2} s; core.* and fedsim.* replay seeds {probe_seeds:?}",
        seed_sets.len()
    ));
    trace::save(&recorder, "sim-rounds", args.seed);
    Ok(report)
}

/// The weights of the preset's solver policies.
fn policy_weights(rounds: &RoundsSpec) -> flsys::Weights {
    rounds
        .policies
        .iter()
        .find_map(|p| match p.policy {
            RoundPolicy::ReSolve { weights } | RoundPolicy::Static { weights } => Some(weights),
            _ => None,
        })
        .unwrap_or_else(flsys::Weights::energy_only)
}

/// Round `t`'s channel: every gain of the base realisation refaded by a log-normal draw
/// from the round's pinned stream, as the simulator draws it.
fn refade(scenario0: &Scenario, rounds: &RoundsSpec, seed: u64, round: u64) -> Scenario {
    let mut scenario = scenario0.clone();
    if rounds.refade_db > 0.0 {
        let mut rng = StdRng::seed_from_u64(rounds.channel_stream.derive_round(seed, round));
        let shadow = LogNormalShadowing::new(rounds.refade_db);
        for device in &mut scenario.devices {
            device.gain = ChannelGain::new(device.gain.value() * shadow.sample_linear(&mut rng));
        }
    }
    scenario
}

/// The solver work of one seed's `static` (one round-0 solve) and `re_solve` (a warm
/// solve per refaded round) policies, as `core.solve` spans.
fn replay_solves(
    rounds: &RoundsSpec,
    scenario0: &Scenario,
    seed: u64,
    config: SolverConfig,
    recorder: &Recorder,
) -> Result<(), String> {
    let optimizer = JointOptimizer::new(config);
    let kind = Kind::Weighted(policy_weights(rounds));
    let mut ws = SolverWorkspace::new();
    let solve = |scenario: Scenario, ws: &mut SolverWorkspace| {
        let case = Case { scenario, kind };
        probe::solve(&optimizer, &case, ws, Some((recorder, None)))
            .map(black_box)
            .map_err(|e| format!("replayed solve: {e}"))
    };
    solve(scenario0.clone(), &mut ws)?;
    ws.reset_warm_start();
    for round in 1..=u64::from(rounds.rounds) {
        solve(refade(scenario0, rounds, seed, round), &mut ws)?;
    }
    Ok(())
}

/// One `RoundTrainer::step` per policy and round on the seed's training task, every
/// device participating, as `fedsim.step` spans.
fn replay_steps(rounds: &RoundsSpec, scenario0: &Scenario, seed: u64, recorder: &Recorder) {
    let data = dataset(rounds, scenario0.devices.len(), seed);
    let everyone: Vec<usize> = (0..scenario0.devices.len()).collect();
    for _ in &rounds.policies {
        let mut trainer = RoundTrainer::new(
            &data,
            rounds.training.learning_rate,
            scenario0.params.local_iterations,
        );
        for _ in 0..rounds.rounds {
            let start = Instant::now();
            black_box(trainer.step(&everyone));
            recorder.record("fedsim.step", start, Instant::now(), None, None, None);
        }
    }
}
