//! Byte pins of the wire formats that round-trip tests cannot see: a round trip passes
//! through any change that the writer and the reader make together, so these compare
//! against committed bytes instead. One golden file, `tests/golden/wire_golden.txt`,
//! holds:
//!
//! * per preset (figures 2–8 quick and paper, `large_n(10_000)`, `rounds-quick`,
//!   `rounds-paper`): the FNV-1a hash of `to_json_string()` and the shard cache key;
//! * the full `ShardResult` wire line of figure 2 quick at one seed (cold engine);
//! * `canonical_json()` and `fingerprint()` of three serve requests.
//!
//! Cache keys fold in the effective warm-start switch, which a `FEDOPT_WARM_START`
//! setting overrides; a preset's key is compared only when the environment agrees with
//! the switch the key was recorded under (the spec's own, else warm).
//!
//! Regenerate after an intentional format change (with `FEDOPT_WARM_START` unset) with:
//! `FEDOPT_BLESS=1 cargo test -p experiments --test wire_golden`.

use experiments::engine::{warm_start_env, SweepEngine};
use experiments::json::fnv1a_64;
use experiments::presets::{self, Variant};
use experiments::serve::RequestSpec;
use experiments::shard::{self, ShardResult};
use experiments::spec::{ArmKind, ArmSpec, ExperimentSpec, ScenarioSpec};
use flsys::Weights;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_golden.txt")
}

fn named_presets() -> Vec<(String, ExperimentSpec)> {
    let mut out = Vec::new();
    for (variant, tag) in [(Variant::Quick, "quick"), (Variant::Paper, "paper")] {
        for &fig in &presets::FIGURES {
            out.push((format!("fig{fig}_{tag}"), presets::spec(fig, variant).unwrap()));
        }
    }
    out.push(("large_n_10000".to_string(), presets::large_n(10_000)));
    for name in presets::SIM_PRESETS {
        out.push((name.to_string(), presets::sim(name).unwrap()));
    }
    out
}

/// The figure 2 quick shard result at one seed, on the cold single-thread engine. The key
/// is a fixed placeholder: cache keys are pinned per preset above, and this line pins
/// the document layout around the samples and counters.
fn fig2_shard_line() -> String {
    let mut spec = presets::spec(2, Variant::Quick).unwrap();
    spec.override_seed_count(1);
    let engine = SweepEngine::single_thread().with_warm_start(false);
    let cells = engine.run_cells(&spec.grid().unwrap()).unwrap();
    let mut result = ShardResult::from_cells(&spec, cells);
    result.key = "0000000000000000".to_string();
    result.to_json_string()
}

fn requests() -> Vec<(&'static str, RequestSpec)> {
    let comm_only = RequestSpec {
        arm: ArmSpec::new(ArmKind::CommOnly),
        deadline_s: Some(120.0),
        ..RequestSpec::default()
    };
    let labelled = RequestSpec {
        arm: ArmSpec::new(ArmKind::Proposed { weights: Weights::new(0.9, 0.1).unwrap() })
            .labeled("energy-heavy")
            .with_scenario(ScenarioSpec {
                devices: Some(7),
                radius_km: Some(0.25),
                ..ScenarioSpec::default()
            }),
        scenario: ScenarioSpec { devices: Some(5), ..ScenarioSpec::default() },
        seed: 11,
        ..RequestSpec::default()
    };
    vec![("default", RequestSpec::default()), ("comm_only", comm_only), ("labelled", labelled)]
}

/// One `spec <name> fnv=<hash> key=<cache key>` line per preset; the key column is
/// `-` when this environment's warm-start override changes it.
fn preset_lines(keys_comparable: impl Fn(&ExperimentSpec) -> bool) -> Vec<String> {
    named_presets()
        .into_iter()
        .map(|(name, spec)| {
            let fnv = fnv1a_64(spec.to_json_string().as_bytes());
            let key =
                if keys_comparable(&spec) { shard::cache_key(&spec) } else { "-".to_string() };
            format!("spec {name} fnv={fnv:016x} key={key}")
        })
        .collect()
}

fn render(keys_comparable: impl Fn(&ExperimentSpec) -> bool) -> String {
    let mut lines = preset_lines(keys_comparable);
    lines.push("shard_result fig2_quick seeds=1".to_string());
    lines.push(fig2_shard_line());
    for (name, request) in requests() {
        lines.push(format!("request {name} fingerprint={:016x}", request.fingerprint()));
        lines.push(request.canonical_json().to_compact_string());
    }
    lines.join("\n") + "\n"
}

#[test]
fn wire_formats_match_the_golden_bytes() {
    let env = warm_start_env();
    // The key was recorded under the spec's own switch, else warm; an environment
    // override that picks the same value leaves it unchanged.
    let comparable = |spec: &ExperimentSpec| {
        env.map_or(true, |warm| warm == spec.engine.warm_start.unwrap_or(true))
    };
    let path = golden_path();
    if std::env::var("FEDOPT_BLESS").is_ok() {
        assert!(env.is_none(), "bless with FEDOPT_WARM_START unset");
        std::fs::write(&path, render(comparable)).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let actual = render(comparable);
    let mut expected_lines: Vec<String> = golden.lines().map(str::to_string).collect();
    // Blank out the keys this environment cannot reproduce.
    for (line, ours) in expected_lines.iter_mut().zip(actual.lines()) {
        if ours.ends_with("key=-") {
            if let Some(cut) = line.rfind("key=") {
                line.replace_range(cut.., "key=-");
            }
        }
    }
    let expected = expected_lines.join("\n") + "\n";
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {path:?} differs", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "line count of {path:?}");
}
