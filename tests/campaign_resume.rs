//! Checkpoint/resume of the campaign engine: an interrupted campaign
//! (simulated with a cell budget) must resume by skipping finished
//! cells and produce an artifact byte-identical to an uninterrupted
//! run — the property that makes long campaigns safe to kill.

use dra::campaign::engine::{run, validate_artifact, RunOptions};
use dra::campaign::json::{parse, Json};
use dra::campaign::registry;
use dra::campaign::spec::CampaignSpec;
use dra::campaign::sweep::checkpoint_path;
use std::fs;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dra-campaign-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn quick_spec() -> CampaignSpec {
    registry::build("faceoff", true).expect("built-in spec")
}

#[test]
fn interrupted_campaign_resumes_to_identical_artifact() {
    let dir = temp_dir("resume");
    let spec = quick_spec();
    assert!(spec.cells.len() >= 2, "need at least 2 cells to interrupt");

    // Reference: one uninterrupted run.
    let full_path = dir.join("full.json");
    let full = run(
        &spec,
        &RunOptions {
            workers: 1,
            out: Some(full_path.clone()),
            ..RunOptions::default()
        },
    )
    .expect("full run");
    assert_eq!(full.remaining, 0);
    let full_text = fs::read_to_string(&full_path).expect("full artifact");

    // Interrupted run: budget of 1 cell, then finish in a second call.
    let part_path = dir.join("resumed.json");
    let first = run(
        &spec,
        &RunOptions {
            workers: 1,
            out: Some(part_path.clone()),
            cell_budget: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("budgeted run");
    assert_eq!(first.completed, 1);
    assert_eq!(first.remaining, spec.cells.len() - 1);
    assert!(first.artifact.is_none(), "incomplete run must not emit");
    assert!(!part_path.exists());
    assert!(
        checkpoint_path(&part_path).exists(),
        "finished cells must be checkpointed"
    );

    let second = run(
        &spec,
        &RunOptions {
            workers: 1,
            out: Some(part_path.clone()),
            ..RunOptions::default()
        },
    )
    .expect("resumed run");
    assert_eq!(second.resumed, 1, "checkpointed cell must be skipped");
    assert_eq!(second.completed, spec.cells.len() - 1);
    assert_eq!(second.remaining, 0);
    assert!(
        !checkpoint_path(&part_path).exists(),
        "checkpoint must be removed once the artifact lands"
    );

    let resumed_text = fs::read_to_string(&part_path).expect("resumed artifact");
    assert_eq!(
        resumed_text, full_text,
        "resumed artifact differs from an uninterrupted run"
    );
    let (cells, errors) = validate_artifact(&resumed_text).expect("valid artifact");
    assert_eq!((cells, errors), (spec.cells.len(), 0));

    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint line is resumed only when it is a well-formed record of
/// its cell: lines for cells past the grid, with another cell's id, or
/// with a mistyped field are re-run, so the resumed artifact is still
/// byte-identical to a fresh one.
#[test]
fn malformed_checkpoint_lines_are_rerun() {
    let dir = temp_dir("junk");
    let spec = quick_spec();
    let opts = |out: &str, cell_budget| RunOptions {
        workers: 1,
        out: Some(dir.join(out)),
        cell_budget,
        ..RunOptions::default()
    };
    let fresh = run(&spec, &opts("fresh.json", None)).expect("fresh run");
    let first = run(&spec, &opts("resumed.json", Some(1))).expect("budgeted run");
    assert_eq!(first.completed, 1);

    let doc = parse(&fresh.artifact_text).expect("artifact parses");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    let edited = |i: usize, key: &str, value: Json| {
        let mut record = cells[i].clone();
        if let Json::Obj(members) = &mut record {
            members.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
        }
        record.to_string_compact()
    };
    let junk = [
        edited(0, "cell", Json::Num(999.0)),
        edited(0, "cell", Json::Num(998.0)),
        edited(1, "id", Json::Str(spec.cells[0].id.clone())),
        edited(1, "replications", Json::Str("x".into())),
    ];
    let ckpt = checkpoint_path(&dir.join("resumed.json"));
    let mut text = fs::read_to_string(&ckpt).expect("checkpoint");
    for line in &junk {
        text.push_str(line);
        text.push('\n');
    }
    fs::write(&ckpt, text).expect("append junk");

    let resumed = run(&spec, &opts("resumed.json", None)).expect("resumed run");
    assert_eq!(resumed.resumed, 1, "only the real cell 0 line resumes");
    assert_eq!(resumed.completed, spec.cells.len() - 1);
    assert_eq!(resumed.remaining, 0);
    assert_eq!(
        fs::read_to_string(dir.join("resumed.json")).expect("resumed artifact"),
        fresh.artifact_text
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Checkpoint one cell of `stale`, then run `spec` at the same path:
/// the digest mismatch must force a clean start, not splice foreign
/// cells.
fn assert_stale_checkpoint_ignored(tag: &str, stale: &CampaignSpec, spec: &CampaignSpec) {
    let dir = temp_dir(tag);
    let out = dir.join("artifact.json");
    let first = run(
        stale,
        &RunOptions {
            workers: 1,
            out: Some(out.clone()),
            cell_budget: Some(1),
            ..RunOptions::default()
        },
    )
    .expect("budgeted run");
    assert_eq!(first.completed, 1);
    assert!(checkpoint_path(&out).exists());

    let outcome = run(
        spec,
        &RunOptions {
            workers: 1,
            out: Some(out.clone()),
            ..RunOptions::default()
        },
    )
    .expect("run over stale checkpoint");
    assert_eq!(
        outcome.resumed, 0,
        "{tag}: stale checkpoint must not resume"
    );
    assert_eq!(outcome.completed, spec.cells.len());
    let text = fs::read_to_string(&out).expect("artifact");
    let (cells, errors) = validate_artifact(&text).expect("valid artifact");
    assert_eq!((cells, errors), (spec.cells.len(), 0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoint_from_a_different_spec_is_ignored() {
    let fig8 = registry::build("fig8", true).expect("built-in spec");
    assert_stale_checkpoint_ignored("stale", &fig8, &quick_spec());

    // Seeds 2^53 and 2^53 + 1 are one f64: the manifest must still
    // tell them apart, or a resume would splice the other seed's cells.
    let mut low = quick_spec();
    low.master_seed = 1 << 53;
    let mut high = quick_spec();
    high.master_seed = (1 << 53) + 1;
    assert_stale_checkpoint_ignored("stale-seed", &low, &high);
}
