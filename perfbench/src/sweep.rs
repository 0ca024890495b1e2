//! The `fig-weighted` and `fig-deadline` workloads: paper-protocol figure sweeps through
//! `experiments::engine`, with report rendering and JSON emission, at fewer draws.
//!
//! Every arm of the compiled grid is wrapped in a [`CheckedArm`] that checks each cell
//! (finite and positive, or counted infeasible) and, in the traced run only, records a
//! span with the solver counters the cell spent. The wrapper delegates `name`, `prepare`
//! and `evaluate` unchanged, so the sweep computes exactly what `fedopt run` computes.

use crate::probe::{self, Case, Kind};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder};
use crate::{for_budget, Args, THREADS};
use experiments::cli::run_document;
use experiments::engine::{Arm, CellContext, CellOutput};
use experiments::presets::{self, Variant};
use experiments::spec::{ArmKind, SeedSpec};
use experiments::{ExperimentSpec, SpecRun, SweepEngine, SweepGrid};
use fedopt_core::CoreError;
use flsys::{Scenario, ScenarioBuilder, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Share of the budget the traced run spends sweeping; the probes take the rest.
const TRACED_SHARE: f64 = 0.8;

/// Which figure protocol is swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2: 8 p_max points × (5 weight pairs + random benchmark), 50 devices.
    Weighted,
    /// Figures 7 + 8: deadline-constrained proposed vs comm-only, comp-only, Scheme 1.
    Deadline,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::Weighted => "fig-weighted",
            Self::Deadline => "fig-deadline",
        }
    }

    /// The paper presets swept, as the serialized spec text the program is handed.
    fn spec_texts(self) -> Vec<String> {
        let specs = match self {
            Self::Weighted => vec![presets::fig2(Variant::Paper)],
            Self::Deadline => vec![presets::fig7(Variant::Paper), presets::fig8(Variant::Paper)],
        };
        specs
            .into_iter()
            .map(|mut spec| {
                spec.engine.threads = Some(THREADS);
                spec.to_json_string()
            })
            .collect()
    }

    /// Scenario draws per sweep (the paper uses 100 per point).
    fn draws_per_sweep(self) -> usize {
        match self {
            Self::Weighted => 2,
            Self::Deadline => 1,
        }
    }
}

/// Cell outcomes shared by every wrapped arm of one compiled grid.
#[derive(Debug, Default)]
struct Tally {
    /// Cells with a finite, positive result or a clean infeasible verdict; every other
    /// cell (non-finite or non-positive result, error, or never evaluated) failed.
    good: AtomicU64,
    /// Span id of the running `engine.run` span.
    parent: AtomicUsize,
    /// Cell ids for span request ids.
    next_cell: AtomicU64,
}

/// An arm wrapper that checks every cell and, when tracing, records its span.
struct CheckedArm {
    inner: Box<dyn Arm>,
    layer: String,
    tally: Arc<Tally>,
    recorder: Option<Arc<Recorder>>,
}

impl Arm for CheckedArm {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn prepare(&self, builder: &ScenarioBuilder) -> ScenarioBuilder {
        self.inner.prepare(builder)
    }

    fn evaluate(
        &self,
        scenario: &Scenario,
        ctx: &mut CellContext<'_>,
    ) -> Result<Option<CellOutput>, CoreError> {
        let before = ctx.workspace.counters;
        let start = Instant::now();
        let out = self.inner.evaluate(scenario, ctx);
        if let Some(rec) = &self.recorder {
            let cell = self.tally.next_cell.fetch_add(1, Ordering::Relaxed);
            let parent = Some(self.tally.parent.load(Ordering::Relaxed));
            let delta = ctx.workspace.counters.since(&before);
            rec.record(self.layer.clone(), start, Instant::now(), parent, Some(cell), Some(delta));
        }
        let good = match &out {
            Ok(Some(c)) => valid(c.energy_j) && valid(c.time_s),
            Ok(None) => true,
            Err(_) => false,
        };
        if good {
            self.tally.good.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

fn valid(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

/// The span layer of an arm kind: Algorithm-2 arms are `core.solve`, the rest are the
/// `baselines` allocator they run.
fn layer(kind: &ArmKind) -> String {
    match kind {
        ArmKind::Proposed { .. } | ArmKind::DeadlineProposed { .. } => "core.solve".to_string(),
        ArmKind::Benchmark { .. } => "baselines.benchmark".to_string(),
        ArmKind::CommOnly => "baselines.comm_only".to_string(),
        ArmKind::CompOnly => "baselines.comp_only".to_string(),
        ArmKind::Scheme1 { .. } => "baselines.scheme1".to_string(),
    }
}

/// One spec ready to sweep: parsed, validated, compiled, arms wrapped.
struct Compiled {
    spec: ExperimentSpec,
    grid: SweepGrid,
    engine: SweepEngine,
    tally: Arc<Tally>,
}

/// Set-up: parse, validate and compile every spec text, and wrap the grid's arms.
fn compile(texts: &[String], recorder: Option<&Arc<Recorder>>) -> Result<Vec<Compiled>, String> {
    texts
        .iter()
        .map(|text| {
            let spec = ExperimentSpec::from_json_str(text).map_err(|e| format!("spec: {e}"))?;
            let mut grid = spec.grid().map_err(|e| format!("grid: {e}"))?;
            let tally = Arc::new(Tally::default());
            let arms = std::mem::take(&mut grid.arms);
            grid.arms = arms
                .into_iter()
                .zip(&spec.arms)
                .map(|(inner, arm_spec)| {
                    Box::new(CheckedArm {
                        inner,
                        layer: layer(&arm_spec.kind),
                        tally: Arc::clone(&tally),
                        recorder: recorder.cloned(),
                    }) as Box<dyn Arm>
                })
                .collect();
            let engine = spec.engine.to_engine();
            Ok(Compiled { spec, grid, engine, tally })
        })
        .collect()
}

/// Wall time of one set-up, seconds.
fn setup_s(texts: &[String]) -> Result<f64, String> {
    let start = Instant::now();
    black_box(compile(texts, None)?);
    Ok(start.elapsed().as_secs_f64())
}

/// What one sweep did.
#[derive(Debug, Default, Clone, Copy)]
struct SweepOutcome {
    cells: u64,
    failed: u64,
    secs: f64,
    json_bytes: usize,
}

/// Runs every compiled spec once over `seeds`: engine run, report rendering, and the
/// `fedopt run --json` document.
fn sweep(
    compiled: &mut [Compiled],
    seeds: &[u64],
    recorder: Option<&Recorder>,
    report: &mut Report,
) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    let start = Instant::now();
    for c in compiled.iter_mut() {
        c.grid.seeds = seeds.to_vec();
        c.spec.seeds = SeedSpec::list(seeds.to_vec());
        let cells = c.grid.num_cells() as u64;
        let good_before = c.tally.good.load(Ordering::Relaxed);

        let run_span = recorder.map(|r| r.open("engine.run", None));
        if let Some(id) = run_span {
            c.tally.parent.store(id, Ordering::Relaxed);
        }
        let result = c.engine.run(&c.grid);
        if let (Some(r), Some(id)) = (recorder, run_span) {
            r.close(id);
        }
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                report.check_failures.push(format!("{}: sweep aborted: {e}", c.spec.id));
                outcome.cells += cells;
                outcome.failed += cells - (c.tally.good.load(Ordering::Relaxed) - good_before);
                continue;
            }
        };
        for (x, row) in result.xs.iter().zip(&result.aggregates) {
            for (arm, agg) in result.arm_names.iter().zip(row) {
                let means_ok =
                    agg.count == 0 || (valid(agg.mean_energy_j) && valid(agg.mean_time_s));
                if agg.attempts != seeds.len() || agg.count > agg.attempts || !means_ok {
                    report.check_failures.push(format!(
                        "{} x={x} {arm}: aggregate {agg:?} over {} draws",
                        c.spec.id,
                        seeds.len()
                    ));
                }
            }
        }

        let render_start = Instant::now();
        let reports = c.spec.render_reports(&result);
        let render_end = Instant::now();
        let doc = run_document(&c.spec, &SpecRun { result, reports }).to_pretty_string();
        let emit_end = Instant::now();
        if let Some(r) = recorder {
            r.record("report.render", render_start, render_end, run_span, None, None);
            r.record("json.emit", render_end, emit_end, run_span, None, None);
        }
        outcome.json_bytes += black_box(doc).len();
        outcome.cells += cells;
        outcome.failed += cells - (c.tally.good.load(Ordering::Relaxed) - good_before);
    }
    outcome.secs = start.elapsed().as_secs_f64();
    outcome
}

/// Runs the workload.
pub fn run(workload: Workload, args: &Args) -> Result<Report, String> {
    let texts = workload.spec_texts();
    let mut report = Report::default();
    // Set-up is timed 20 times up front and once more before every sweep, so its median
    // spans the whole run rather than one instant of host load. Each later sample is the
    // third of three back-to-back set-ups: a sweep leaves the caches cold, and the first
    // set-up after it would time that instead.
    let mut setups = (0..20).map(|_| setup_s(&texts)).collect::<Result<Vec<_>, _>>()?;
    let warm_setup = || {
        let mut last = None;
        for _ in 0..3 {
            last = setup_s(&texts).ok();
        }
        last
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut draw = || -> Vec<u64> {
        (0..workload.draws_per_sweep()).map(|_| rng.gen::<u64>() >> 11).collect()
    };
    let mut compiled = compile(&texts, None)?;

    if !args.trace {
        let mut done = Vec::new();
        for_budget(args.seconds, || {
            setups.extend(warm_setup());
            done.push(sweep(&mut compiled, &draw(), None, &mut report));
        });
        for o in &done {
            report.count(o.cells, o.failed);
        }
        let cells: u64 = done.iter().map(|o| o.cells).sum();
        let secs: f64 = done.iter().map(|o| o.secs).sum();
        report.note(format!(
            "{}: {} sweeps of {} draws, {cells} cells in {secs:.2} s, {} threads",
            workload.name(),
            done.len(),
            workload.draws_per_sweep(),
            compiled[0].engine.threads()
        ));
        report.note(format!("cells_per_s {:.4} 1/s", cells as f64 / secs));
        report.metric("setup_s", stats::median(&setups), "s");
        report.metric("ops_per_s", cells as f64 / secs, "1/s");
        return Ok(report);
    }

    // Traced run: each draw swept untraced, then again with spans on.
    let recorder = Arc::new(Recorder::default());
    let mut traced_compiled = compile(&texts, Some(&recorder))?;
    let mut pairs: Vec<(Vec<u64>, SweepOutcome, SweepOutcome)> = Vec::new();
    for_budget(args.seconds.mul_f64(TRACED_SHARE), || {
        let seeds = draw();
        let plain = sweep(&mut compiled, &seeds, None, &mut report);
        let traced = sweep(&mut traced_compiled, &seeds, Some(&recorder), &mut report);
        pairs.push((seeds, plain, traced));
    });
    for (_, plain, traced) in &pairs {
        report.count(plain.cells + traced.cells, plain.failed + traced.failed);
    }
    let plain_secs: f64 = pairs.iter().map(|p| p.1.secs).sum();
    let traced_secs: f64 = pairs.iter().map(|p| p.2.secs).sum();
    let spans = recorder.spans();

    // Scenario builds the engine made: one per distinct prepared builder per (point, seed).
    let mut builds = Vec::new();
    for c in &traced_compiled {
        for point in &c.grid.points {
            let mut distinct: Vec<ScenarioBuilder> = Vec::new();
            for arm in &c.grid.arms {
                let b = arm.prepare(&point.builder);
                if !distinct.contains(&b) {
                    distinct.push(b);
                }
            }
            for (seeds, _, _) in &pairs {
                for b in &distinct {
                    builds.extend(seeds.iter().map(|&s| (b.clone(), s)));
                }
            }
        }
    }
    let (build_calls, build_ms) = probe::time_builds(&builds)?;
    report.metric("flsys.build.calls", build_calls as f64, "count");
    report.metric("flsys.build.ms", build_ms, "ms");

    let cases = probe_cases(workload, &traced_compiled, pairs[0].0[0])?;
    let c0 = &traced_compiled[0];
    let config = c0.spec.solver.resolve().with_warm_start(c0.engine.warm_starts());
    let sub = probe::sub_calls(&cases, config, 3)?;
    probe::core_metrics(&mut report, &spans, sub);

    let mut arm_ms = trace::total_ms(&spans, "core.solve");
    for kind in ["benchmark", "comm_only", "comp_only", "scheme1"] {
        let name = format!("baselines.{kind}");
        let ms = trace::total_ms(&spans, &name);
        arm_ms += ms;
        report.metric(format!("{name}.calls"), trace::named(&spans, &name).count() as f64, "count");
        report.metric(format!("{name}.ms"), ms, "ms");
    }
    let run_ms = trace::total_ms(&spans, "engine.run");
    let threads = c0.engine.threads() as f64;
    report.metric("engine.run_ms", run_ms, "ms");
    report.metric("engine.self_ms", threads * run_ms - arm_ms - build_ms, "ms");
    report.metric("engine.busy_share", (arm_ms + build_ms) / (threads * run_ms), "ratio");
    report.metric("report.render_ms", trace::total_ms(&spans, "report.render"), "ms");
    report.metric("json.emit_ms", trace::total_ms(&spans, "json.emit"), "ms");
    let json_bytes: usize = pairs.iter().map(|p| p.2.json_bytes).sum();
    report.metric("json.bytes", json_bytes as f64, "bytes");
    report.metric("trace.overhead", traced_secs / plain_secs, "ratio");
    report.note(format!(
        "{}: {} draws swept untraced in {plain_secs:.2} s and traced in {traced_secs:.2} s; \
         engine.self_ms and busy_share count {threads} threads x run time",
        workload.name(),
        pairs.len()
    ));
    trace::save(&recorder, workload.name(), args.seed);
    Ok(report)
}

/// The scenarios the sub-call probe replays: the sweep points of every spec at the first
/// traced draw, solved the way the workload's arms solve it.
fn probe_cases(workload: Workload, compiled: &[Compiled], seed: u64) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    // The deadline solves cost ~0.2 s each, so that workload probes every third point.
    let stride = if workload == Workload::Deadline { 3 } else { 1 };
    for c in compiled {
        for (i, point) in c.grid.points.iter().enumerate().step_by(stride) {
            let scenario = point.builder.build(seed).map_err(|e| format!("probe build: {e}"))?;
            let kind = match workload {
                Workload::Weighted => Kind::Weighted(Weights::paper_sweep()[i % 5]),
                Workload::Deadline => {
                    let deadlines: Vec<f64> = c
                        .spec
                        .arms
                        .iter()
                        .filter_map(|a| match a.kind {
                            ArmKind::Scheme1 { deadline_s } => Some(deadline_s),
                            _ => None,
                        })
                        .collect();
                    // Figure 7 sweeps the deadline on its axis; Figure 8 fixes it per arm.
                    Kind::Deadline(if deadlines.is_empty() {
                        point.x
                    } else {
                        deadlines[i % deadlines.len()]
                    })
                }
            };
            cases.push(Case { scenario, kind });
        }
    }
    Ok(cases)
}
