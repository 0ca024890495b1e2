//! Golden-file pins of the CLI's machine-readable surfaces:
//!
//! * the `fedopt run --fig N --json` document of every figure's quick preset against
//!   `tests/golden/figN_quick.json` (`fig2_quick_seeds3.json` for figure 2, run with
//!   `--seeds 3`). Floats are compared **exactly** — sweep output is deterministic and the
//!   JSON writer is shortest-round-trip, so any byte difference is a real behaviour
//!   change. This mirrors the CI `cli-smoke` job's end-to-end diffs;
//! * the committed example spec `examples/specs/fig2_quick.json` against what
//!   `fedopt spec --fig 2` prints today (the README documents that file — it must never
//!   drift from the preset).
//!
//! Regenerate both after an intentional change with:
//! `FEDOPT_BLESS=1 cargo test -p experiments --test cli_golden`.

use experiments::cli;
use experiments::engine::SweepEngine;
use experiments::presets::{self, Variant};
use experiments::spec::ExperimentSpec;
use std::path::{Path, PathBuf};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(actual: &str, path: &Path, regenerate_hint: &str) {
    if std::env::var("FEDOPT_BLESS").is_ok() {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("blessing {path:?}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); {regenerate_hint}"));
    assert_eq!(actual, golden, "{path:?} is stale; {regenerate_hint}");
}

/// `(figure, seed-count override, golden file)` for every figure preset: the exact
/// documents the CI smoke job diffs (`fedopt run --fig N --json`, plus `--seeds 3` for
/// figure 2).
const FIGURE_GOLDENS: [(u8, Option<u64>, &str); 7] = [
    (2, Some(3), "fig2_quick_seeds3.json"),
    (3, None, "fig3_quick.json"),
    (4, None, "fig4_quick.json"),
    (5, None, "fig5_quick.json"),
    (6, None, "fig6_quick.json"),
    (7, None, "fig7_quick.json"),
    (8, None, "fig8_quick.json"),
];

/// Every figure's quick-preset run document on the cold solver path. The engine is pinned
/// explicitly (single thread, warm start off) so the pins hold under every CI matrix
/// entry; output is thread-count independent, so the CLI reproduces them at any
/// `--threads`.
#[test]
fn every_figure_quick_json_document_matches_golden() {
    let engine = SweepEngine::single_thread().with_warm_start(false);
    for (fig, seeds, file) in FIGURE_GOLDENS {
        let mut spec = presets::spec(fig, Variant::Quick).expect("figure exists");
        if let Some(count) = seeds {
            spec.override_seed_count(count);
        }
        let run = spec.run_with_engine(&engine).expect("quick preset must evaluate");
        let document = cli::run_document(&spec, &run).to_pretty_string();
        check_golden(
            &document,
            &manifest_dir().join("tests/golden").join(file),
            "regenerate with FEDOPT_BLESS=1 cargo test -p experiments --test cli_golden",
        );
        // The same document must also be exactly what the text renderer's JSON mode emits.
        assert_eq!(cli::render_run(&spec, &run, true), document, "fig{fig}");
    }
}

/// The legacy reference pin: the same document on the cold solver path with the
/// superlinear (Brent) `μ`-root step switched off must still reproduce the historical
/// pure-bisection golden **bit for bit**. This is the gate the PR 6 hot-path work hides
/// behind: the struct-of-arrays lanes, the hoisted constants and the once-per-solve
/// `(ρ, idx)` sort are all exact rewrites, so with Brent *and* warm start off nothing may
/// drift — any diff here is a real numerical regression, not an intentional re-bless.
///
/// `fig2_quick_seeds3_bisect.json` is frozen (copied from the pre-Brent golden); it is
/// deliberately **not** re-blessed by `FEDOPT_BLESS`.
#[test]
fn fig2_quick_seeds3_legacy_bisection_path_is_bit_identical() {
    let mut spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    spec.override_seed_count(3);
    let engine = SweepEngine::single_thread().with_warm_start(false).with_superlinear_mu(false);
    let run = spec.run_with_engine(&engine).expect("fig2 quick must evaluate");
    let document = cli::run_document(&spec, &run).to_pretty_string();
    let path = manifest_dir().join("tests/golden/fig2_quick_seeds3_bisect.json");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing frozen legacy golden {path:?} ({e})"));
    assert_eq!(
        document, golden,
        "the legacy cold+bisection path drifted — the SoA/complexity rewrites must be exact"
    );
}

/// The committed, README-documented example spec is exactly `fedopt spec --fig 2` today.
#[test]
fn committed_example_spec_is_fresh_and_parseable() {
    let spec = presets::spec(2, Variant::Quick).expect("figure 2 exists");
    let path = manifest_dir().join("../../examples/specs/fig2_quick.json");
    check_golden(
        &spec.to_json_string(),
        &path,
        "regenerate with FEDOPT_BLESS=1 cargo test -p experiments --test cli_golden",
    );
    if std::env::var("FEDOPT_BLESS").is_err() {
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
    }
}

/// The pipe the CI smoke job runs — `fedopt spec --fig 2 | fedopt run --spec -` — hinges
/// on the printed spec re-parsing to the same experiment; pin that equivalence at the
/// library level too (the subprocess half lives in CI).
#[test]
fn printed_spec_reparses_to_the_same_experiment() {
    for &fig in &presets::FIGURES {
        let args: Vec<String> =
            ["spec", "--fig", &fig.to_string()].iter().map(|s| s.to_string()).collect();
        let printed = cli::main_with(&args).expect("spec subcommand must print");
        let parsed = ExperimentSpec::from_json_str(&printed).expect("printed spec must parse");
        assert_eq!(parsed, presets::spec(fig, Variant::Quick).unwrap());
    }
}
