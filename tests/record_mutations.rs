//! Every leaf of every record of the committed artifacts is mutated,
//! and `sweep::check_cell` (the per-record check `dra check` runs) must
//! catch each type change, each deletion and an extra key.
//!
//! The mutations are `null`, `"x"`, `-1`, `1e308` and deletion of the
//! leaf, plus one extra top-level key per record. A mutation is a type
//! change when its JSON type is not one the leaf takes in any record of
//! the same artifact (so `null` on a leaf that is sometimes `null` is
//! well typed). Well-typed mutations that the record's rules cannot
//! tell from real data (`max: 1e308`, say) are counted and printed,
//! not asserted: only an oracle that recomputes the values can catch
//! them.

use dra::campaign::json::{parse, Json};
use dra::campaign::rareevent::RareCellSpec;
use dra::campaign::spec::CellSpec;
use dra::campaign::sweep::{check_cell, Sweep};
use dra::topo::spec::TopoCellSpec;
use std::collections::{BTreeMap, BTreeSet};

/// One step from a value to a child: an object member or array element.
#[derive(Clone, Copy)]
enum Step {
    Member(usize),
    Element(usize),
}

/// The path of every leaf under `value`.
fn leaves(value: &Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        Json::Obj(members) if !members.is_empty() => {
            for (i, (_, v)) in members.iter().enumerate() {
                path.push(Step::Member(i));
                leaves(v, path, out);
                path.pop();
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                path.push(Step::Element(i));
                leaves(v, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

/// `path` rendered with keys and `[]` for any element, so the same
/// leaf of two records shares a name.
fn name(record: &Json, path: &[Step]) -> String {
    let mut node = record;
    let mut out = String::new();
    for step in path {
        match (step, node) {
            (Step::Member(i), Json::Obj(members)) => {
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(&members[*i].0);
                node = &members[*i].1;
            }
            (Step::Element(i), Json::Arr(items)) => {
                out.push_str("[]");
                node = &items[*i];
            }
            _ => unreachable!("paths come from the record"),
        }
    }
    out
}

/// The leaf at `path`.
fn at<'a>(record: &'a Json, path: &[Step]) -> &'a Json {
    path.iter().fold(record, |node, step| match (step, node) {
        (Step::Member(i), Json::Obj(members)) => &members[*i].1,
        (Step::Element(i), Json::Arr(items)) => &items[*i],
        _ => unreachable!("paths come from the record"),
    })
}

fn kind(value: &Json) -> &'static str {
    match value {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Num(_) | Json::Int(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

/// Replace (`Some`) or delete (`None`) the leaf at `path`.
fn mutate(record: &mut Json, path: &[Step], value: Option<Json>) {
    let (last, parents) = path.split_last().expect("a leaf below the record");
    let mut node = record;
    for step in parents {
        node = match (step, node) {
            (Step::Member(i), Json::Obj(members)) => &mut members[*i].1,
            (Step::Element(i), Json::Arr(items)) => &mut items[*i],
            _ => unreachable!("paths come from the record"),
        };
    }
    match (last, node, value) {
        (Step::Member(i), Json::Obj(members), Some(v)) => members[*i].1 = v,
        (Step::Member(i), Json::Obj(members), None) => drop(members.remove(*i)),
        (Step::Element(i), Json::Arr(items), Some(v)) => items[*i] = v,
        (Step::Element(i), Json::Arr(items), None) => drop(items.remove(*i)),
        _ => unreachable!("paths come from the record"),
    }
}

/// Mutate every leaf of every record of `results/<file>.json`; returns
/// the well-typed survivors as `(leaf, mutation) -> records`.
fn survivors<S: Sweep>(file: &str) -> BTreeMap<(String, String), usize> {
    let path = format!("{}/results/{file}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc = parse(&text).expect("committed artifacts parse");
    let records = doc.get("cells").and_then(Json::as_arr).expect("cells");
    let manifest = doc.get("spec").and_then(|s| s.get("cells"));
    let manifest = manifest.and_then(Json::as_arr).expect("manifest cells");

    // The JSON types each leaf takes across the artifact's records.
    let mut kinds: BTreeMap<String, BTreeSet<&str>> = BTreeMap::new();
    let mut paths = Vec::new();
    for record in records {
        let mut here = Vec::new();
        leaves(record, &mut Vec::new(), &mut here);
        for path in &here {
            let leaf_kind = kind(at(record, path));
            kinds
                .entry(name(record, path))
                .or_default()
                .insert(leaf_kind);
        }
        paths.push(here);
    }

    let mutations = [
        ("null", Json::Null),
        ("\"x\"", Json::Str("x".into())),
        ("-1", Json::Num(-1.0)),
        ("1e308", Json::Num(1e308)),
    ];
    let mut survived = BTreeMap::new();
    for (i, (record, here)) in records.iter().zip(&paths).enumerate() {
        let check = |mutated: &Json| check_cell::<S>(i, mutated, &manifest[i]);
        assert_eq!(check(record), Ok(true), "{file} cell {i} as committed");
        let mut extra = record.clone();
        if let Json::Obj(members) = &mut extra {
            members.push(("extra".into(), Json::Num(0.0)));
        }
        assert!(check(&extra).is_err(), "{file} cell {i}: extra key passed");
        for path in here {
            let leaf = name(record, path);
            let mut deleted = record.clone();
            mutate(&mut deleted, path, None);
            assert!(
                check(&deleted) != Ok(true),
                "{file} cell {i}: deleting {leaf} passed"
            );
            for (label, value) in &mutations {
                let typed = kinds[&leaf].contains(kind(value));
                let mut mutated = record.clone();
                mutate(&mut mutated, path, Some(value.clone()));
                let caught = check(&mutated) != Ok(true);
                assert!(
                    caught || typed,
                    "{file} cell {i}: {leaf} = {label} changes its type and passed"
                );
                if !caught {
                    *survived
                        .entry((leaf.clone(), label.to_string()))
                        .or_default() += 1;
                }
            }
        }
    }
    survived
}

#[test]
fn every_type_change_deletion_and_extra_key_fails_the_record_check() {
    let all = [
        ("faceoff", survivors::<CellSpec>("faceoff")),
        ("rare_event", survivors::<RareCellSpec>("rare_event")),
        (
            "topo_resilience",
            survivors::<TopoCellSpec>("topo_resilience"),
        ),
        ("topo_scale", survivors::<TopoCellSpec>("topo_scale")),
        ("topo_scale2", survivors::<TopoCellSpec>("topo_scale2")),
    ];
    for (file, survived) in all {
        let total: usize = survived.values().sum();
        println!("{file}: {total} well-typed mutations pass the record check");
        for ((leaf, label), records) in survived {
            println!("  {leaf} = {label} ({records} records)");
        }
    }
}
