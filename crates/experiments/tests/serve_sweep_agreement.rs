//! Serving and sweeping are two callers of one scheme match (`ArmKind::evaluate`): a cold
//! serve request must answer, bit for bit, what a one-point, one-seed spec with the same
//! scenario patch, arm, seed and solver sweeps cold on one thread — for every scheme.

use experiments::json::Json;
use experiments::serve::{serve_session, RequestSpec, ServeOptions};
use experiments::spec::{
    ArmKind, ArmSpec, AxisKind, AxisSpec, BenchmarkDraw, DeadlineSpec, ExperimentSpec,
    ScenarioSpec, SeedSpec, SolverSpec,
};
use experiments::SweepEngine;
use flsys::Weights;
use std::sync::atomic::AtomicBool;

/// The completion-time deadline of the axis-reading schemes (the sweep's one x value).
const DEADLINE_S: f64 = 150.0;

fn served(req: &RequestSpec) -> (f64, f64) {
    let line = req.canonical_json().to_compact_string() + "\n";
    let opts = ServeOptions { workers: 1, warm_start: Some(false), ..ServeOptions::default() };
    let mut out = Vec::new();
    serve_session(line.as_bytes(), &mut out, &opts, &AtomicBool::new(false)).unwrap();
    let response = Json::parse(String::from_utf8(out).unwrap().trim()).unwrap();
    assert_eq!(response.get("status").and_then(Json::as_str), Some("ok"), "{response:?}");
    let num = |key: &str| response.get(key).and_then(Json::as_f64).unwrap();
    (num("energy_j"), num("time_s"))
}

fn swept(req: &RequestSpec) -> (f64, f64) {
    let axis = AxisSpec { kind: AxisKind::DeadlineS, values: vec![DEADLINE_S] };
    let mut spec = ExperimentSpec::new("agreement", axis);
    spec.scenario = req.scenario.clone();
    spec.arms = vec![req.arm.clone()];
    spec.seeds = SeedSpec::list(vec![req.seed]);
    spec.solver = req.solver.clone();
    let result = SweepEngine::single_thread().with_warm_start(false).run_spec(&spec).unwrap();
    let agg = result.aggregates[0][0];
    assert_eq!((agg.count, agg.attempts), (1, 1));
    (agg.mean_energy_j, agg.mean_time_s)
}

#[test]
fn a_cold_serve_request_matches_a_cold_one_cell_sweep_for_every_scheme() {
    let weights = Weights::new(0.9, 0.1).unwrap();
    let arms = [
        // The arm-level patch exercises `Arm::prepare` on both paths.
        ArmSpec::new(ArmKind::Proposed { weights })
            .with_scenario(ScenarioSpec { devices: Some(4), ..ScenarioSpec::default() }),
        ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis }),
        ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(120.0) }),
        ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }),
        ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Power }),
        ArmSpec::new(ArmKind::CommOnly),
        ArmSpec::new(ArmKind::CompOnly),
        ArmSpec::new(ArmKind::Scheme1 { deadline_s: 120.0 }),
    ];
    for (i, arm) in arms.into_iter().enumerate() {
        let req = RequestSpec {
            scenario: ScenarioSpec {
                devices: Some(6),
                p_max_dbm: Some(10.0),
                ..ScenarioSpec::default()
            },
            seed: 3 + i as u64,
            deadline_s: arm.kind.reads_axis_deadline().then_some(DEADLINE_S),
            arm,
            solver: SolverSpec::fast(),
            ..RequestSpec::default()
        };
        let (serve_e, serve_t) = served(&req);
        let (sweep_e, sweep_t) = swept(&req);
        let what = format!("{:?}", req.arm.kind);
        assert_eq!(serve_e.to_bits(), sweep_e.to_bits(), "{what}: energy {serve_e} vs {sweep_e}");
        assert_eq!(serve_t.to_bits(), sweep_t.to_bits(), "{what}: time {serve_t} vs {sweep_t}");
    }
}
