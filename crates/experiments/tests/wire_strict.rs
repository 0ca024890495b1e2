//! Strict reading of every wire document: a member no field table (or hand reader) names
//! is an error that names it, also where the document is otherwise intact.

use experiments::engine::{CellOutput, SweepCounters};
use experiments::json::{fnv1a_64, Json};
use experiments::presets::{self, Variant};
use experiments::serve::RequestSpec;
use experiments::shard::{ShardError, ShardResult};
use experiments::spec::{ExperimentSpec, SpecError};

fn small_result() -> ShardResult {
    ShardResult {
        spec_id: "tiny".to_string(),
        key: "0123456789abcdef".to_string(),
        xs: vec![5.0, 8.0],
        arm_names: vec!["proposed".to_string()],
        n_seeds: 1,
        samples: vec![Some(CellOutput::new(1.5, 20.0)), None],
        counters: SweepCounters { scenarios_built: 2, cells_evaluated: 2, ..Default::default() },
    }
}

/// Applies `edit` to a shard document and re-signs it, so only the edit can fail it.
fn edited_and_resigned(edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
    let Json::Obj(mut members) = small_result().to_json() else { panic!("an object") };
    members.retain(|(k, _)| k != "checksum");
    edit(&mut members);
    let checksum =
        format!("{:016x}", fnv1a_64(Json::Obj(members.clone()).to_compact_string().as_bytes()));
    members.push(("checksum".to_string(), Json::Str(checksum)));
    Json::Obj(members).to_compact_string()
}

fn codec_error(text: &str) -> String {
    match ShardResult::from_json_str(text) {
        Err(ShardError::Codec(message)) => message,
        other => panic!("expected a codec error, got {other:?}"),
    }
}

#[test]
fn shard_results_reject_unknown_members_by_name() {
    // Re-signing alone keeps the document valid, so each rejection below is the edit's.
    let text = edited_and_resigned(|_| {});
    assert_eq!(ShardResult::from_json_str(&text).unwrap(), small_result());

    let text = edited_and_resigned(|members| {
        members.push(("surprise".to_string(), Json::Bool(true)));
    });
    let message = codec_error(&text);
    assert!(message.contains("shard.surprise") && message.contains("unknown key"), "{message}");

    let text = edited_and_resigned(|members| {
        let (_, counters) = members.iter_mut().find(|(k, _)| k == "counters").unwrap();
        let Json::Obj(counters) = counters else { panic!("counters are an object") };
        counters.push(("bogus_counter".to_string(), Json::uint(1)));
    });
    let message = codec_error(&text);
    assert!(message.contains("shard.counters.bogus_counter"), "{message}");
}

fn spec_error(text: &str) -> (String, String) {
    match ExperimentSpec::from_json_str(text) {
        Err(SpecError::Invalid { path, message }) => (path, message),
        other => panic!("expected an invalid-spec error, got {other:?}"),
    }
}

#[test]
fn spec_errors_name_the_offending_key() {
    let text = presets::fig2(Variant::Quick).to_json_string();
    let extra = text.replacen('{', "{\"extra\": 1,", 1);
    let (path, message) = spec_error(&extra);
    assert_eq!(path, "spec.extra");
    assert!(message.starts_with("unknown key (allowed: schema_version, id,"), "{message}");

    // A misspelt payload key of a tagged union reports as unknown, not as the missing
    // key it was meant to be.
    let typo = text.replacen("\"w2\"", "\"W2\"", 1);
    assert_eq!(spec_error(&typo).0, "spec.arms[0].W2");

    let bad_version = text.replacen("\"schema_version\": 1", "\"schema_version\": 7", 1);
    let (path, message) = spec_error(&bad_version);
    assert_eq!(path, "spec.schema_version");
    assert!(message.contains("schema version 1, got 7"), "{message}");
}

#[test]
fn request_errors_name_the_offending_key() {
    let err =
        RequestSpec::from_json_str(r#"{"schema_version":1,"scenario":{"devcies":5}}"#).unwrap_err();
    assert!(err.contains("`request.scenario.devcies`"), "{err}");
    let err = RequestSpec::from_json_str(r#"{"schema_version":2}"#).unwrap_err();
    assert!(err.contains("`request.schema_version`"), "{err}");
    let err = RequestSpec::from_json_str(r#"{"schema_version":1,"seed":-1}"#).unwrap_err();
    assert!(err.contains("`request.seed`"), "{err}");
}
