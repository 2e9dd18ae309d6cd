//! `dra check` reads every record against its manifest cell. The
//! artifact digest covers only the spec, so a hand-edited record must
//! fail to read as its kind's record or fail its `Record::check`: each
//! test edits one field of a record of a committed artifact and
//! expects validation to reject it.

use dra::campaign::json::{parse, Json};
use dra::campaign::rareevent::RareCellSpec;
use dra::campaign::spec::CellSpec;
use dra::campaign::sweep::{validate, Sweep};
use dra::topo::spec::TopoCellSpec;
use std::fs;

/// The committed artifact `results/<name>.json`.
fn committed(name: &str) -> String {
    let path = format!("{}/results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `text` with record `index` passed through `edit`.
fn with_record(text: &str, index: usize, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
    let mut doc = parse(text).expect("committed artifacts parse");
    let Json::Obj(top) = &mut doc else {
        panic!("artifact is not an object")
    };
    let Some((_, Json::Arr(records))) = top.iter_mut().find(|(k, _)| k == "cells") else {
        panic!("artifact has no cells array")
    };
    let Json::Obj(record) = &mut records[index] else {
        panic!("record is not an object")
    };
    edit(record);
    doc.to_string_pretty()
}

/// The value of `key` in `pairs`.
fn member<'a>(pairs: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
    let field = pairs.iter_mut().find(|(k, _)| k == key);
    &mut field.unwrap_or_else(|| panic!("no {key}")).1
}

/// `text` with `key` of its first record set to `value`.
fn with_first_record(text: &str, key: &str, value: Json) -> String {
    with_record(text, 0, |record| *member(record, key) = value)
}

/// `text` with `stat.field` of record `index` set to `value`.
fn with_stat_field(text: &str, index: usize, stat: &str, field: &str, value: Json) -> String {
    with_record(text, index, |record| {
        let Json::Obj(pairs) = member(record, stat) else {
            panic!("{stat} is not an object")
        };
        *member(pairs, field) = value;
    })
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
    rejects_edits::<CellSpec>("faceoff", &[("arch", "nonsense")]);
}

#[test]
fn topo_records_are_checked_against_their_cells() {
    rejects_edits::<TopoCellSpec>(
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
    rejects_edits::<RareCellSpec>("rare_event", &[("method", "x")]);
}

/// `text` with its manifest's master seed spelled `1e999`, a number
/// that overflows `f64`.
fn with_overflowing_seed(text: &str) -> String {
    let key = "\"master_seed\": ";
    let at = text.find(key).expect("a manifest master seed") + key.len();
    let end = at + text[at..].find(',').expect("more manifest members");
    format!("{}1e999{}", &text[..at], &text[end..])
}

/// An overflowing manifest number is an error, not a panic when the
/// manifest is re-rendered for its digest.
#[test]
fn an_overflowing_manifest_number_is_an_error_for_every_kind() {
    fn rejects<S: Sweep>(name: &str) {
        let edited = with_overflowing_seed(&committed(name));
        assert!(edited.contains("\"master_seed\": 1e999,"), "{name}");
        let err = validate::<S>(&edited).expect_err(name);
        assert!(err.contains("number out of range"), "{name}: {err}");
    }
    rejects::<CellSpec>("faceoff");
    rejects::<RareCellSpec>("rare_event");
    rejects::<TopoCellSpec>("topo_resilience");
}

/// A replication statistic must be `{n}` or a finite `{n, mean, ci95,
/// min, max}` with `min <= mean <= max`, `ci95 >= 0` and `n` at most
/// the cell's replications: each edit of a committed record breaks one
/// of those rules and must fail validation, naming the statistic.
#[test]
fn replication_statistics_are_checked() {
    let resilience = committed("topo_resilience");
    let scale = committed("topo_scale");
    let faceoff = committed("faceoff");
    let edits = [
        (
            "latency_s",
            with_stat_field(&resilience, 3, "latency_s", "mean", Json::Num(-1.0)),
        ),
        (
            "hops",
            with_record(&resilience, 3, |record| record.retain(|(k, _)| k != "hops")),
        ),
        (
            "hops",
            with_stat_field(&resilience, 3, "hops", "n", Json::Num(3.0)),
        ),
        (
            "flow_availability",
            with_stat_field(&scale, 3, "flow_availability", "min", Json::Null),
        ),
        (
            "delivery_ratio",
            with_stat_field(&scale, 3, "delivery_ratio", "ci95", Json::Num(-0.5)),
        ),
    ];
    for (key, edited) in &edits {
        let err = validate::<TopoCellSpec>(edited).expect_err(key);
        assert!(err.contains(key), "{key}: {err}");
    }
    let edits = [
        (
            "availability",
            with_stat_field(&faceoff, 3, "availability", "max", Json::Num(0.5)),
        ),
        (
            "latency_s",
            with_stat_field(&faceoff, 3, "latency_s", "n", Json::Num(2.5)),
        ),
    ];
    for (key, edited) in &edits {
        let err = validate::<CellSpec>(edited).expect_err(key);
        assert!(err.contains(key), "{key}: {err}");
    }
}
