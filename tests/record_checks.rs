//! `dra check` reads every record against its manifest cell. The
//! artifact digest covers only the spec, so a hand-edited record must
//! fail its kind's `check_record`: each test edits one field of the
//! first record of a committed artifact and expects validation to
//! reject it.

use dra::campaign::json::{parse, Json};
use dra::campaign::rareevent::RareCampaignSpec;
use dra::campaign::spec::CampaignSpec;
use dra::campaign::sweep::{validate, Sweep};
use dra::topo::spec::TopoSpec;
use std::fs;

/// The committed artifact `results/<name>.json`.
fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `text` with `key` of its first record set to `value`.
fn with_first_record(text: &str, key: &str, value: Json) -> String {
    let mut doc = parse(text).expect("committed artifacts parse");
    let Json::Obj(top) = &mut doc else {
        panic!("artifact is not an object")
    };
    let Some((_, Json::Arr(records))) = top.iter_mut().find(|(k, _)| k == "cells") else {
        panic!("artifact has no cells array")
    };
    let Json::Obj(record) = &mut records[0] else {
        panic!("record is not an object")
    };
    let field = record.iter_mut().find(|(k, _)| k == key);
    field.unwrap_or_else(|| panic!("record has no {key}")).1 = value;
    doc.to_string_pretty()
}

/// The committed artifact validates, and rejects each edit with an
/// error that names the edited key.
fn rejects_edits<S: Sweep>(name: &str, edits: &[(&str, &str)]) {
    let text = committed(name);
    assert!(validate::<S>(&text).is_ok(), "{name} as committed");
    for &(key, value) in edits {
        let edited = with_first_record(&text, key, Json::Str(value.to_string()));
        let err = validate::<S>(&edited).expect_err(&format!("{name}: {key} = {value:?}"));
        assert!(err.contains(key), "{name}: {key} = {value:?}: {err}");
    }
}

#[test]
fn campaign_records_are_checked_against_their_cells() {
    rejects_edits::<CampaignSpec>("faceoff", &[("arch", "nonsense")]);
}

#[test]
fn topo_records_are_checked_against_their_cells() {
    rejects_edits::<TopoSpec>(
        "topo_resilience",
        &[
            ("arch", "nonsense"),
            ("topology", "mesh-9x9"),
            ("delivery_ratio", "x"),
        ],
    );
}

#[test]
fn rare_event_records_are_checked_against_their_cells() {
    rejects_edits::<RareCampaignSpec>("rare_event", &[("method", "x")]);
}
