//! The rare-event artifact determinism contract, end to end: the
//! `dra-rareevent/v1` file written for a spec is **byte-identical** for
//! any worker count and across checkpoint/resume. This must hold
//! through the splitting estimator's trajectory-cloning path (whose
//! child RNG streams derive structurally from the cycle seed, never
//! from scheduling), which is why the registry's quick grid —
//! containing a splitting cell per config — is the fixture.

use dra_campaign::json::{parse, Json};
use dra_campaign::rareevent::{build, run, RareCellSpec};
use dra_campaign::sweep::{self, checkpoint_path, RunOptions, CHECKPOINT_FORMAT};
use std::fs;

#[test]
fn artifact_files_are_byte_identical_across_worker_counts() {
    let spec = build("rareevent", true).expect("quick rareevent spec");
    assert!(
        spec.cells.iter().any(|c| c.id.starts_with("splitting/")),
        "fixture must exercise the cloning path"
    );
    let dir = std::env::temp_dir().join(format!("dra-rare-det-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let run_to = |name: &str, workers: usize| {
        let path = dir.join(name);
        let out = run(
            &spec,
            &RunOptions {
                workers,
                out: Some(path.clone()),
                ..RunOptions::default()
            },
        )
        .expect("campaign runs");
        assert_eq!(out.failed, 0);
        (out, fs::read(&path).expect("artifact written"))
    };
    let (_, reference) = run_to("rare-w1.json", 1);
    for workers in [2usize, 4] {
        let (_, bytes) = run_to(&format!("rare-w{workers}.json"), workers);
        assert_eq!(
            bytes, reference,
            "artifact at {workers} workers differs from serial run"
        );
    }

    // Plant a checkpoint holding cell 0 of the full run: the resumed
    // run must skip it and still write the same bytes.
    let text = String::from_utf8(reference.clone()).unwrap();
    let doc = parse(&text).unwrap();
    let cell0 = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
    let resumed_path = dir.join("rare-resumed.json");
    let header = Json::obj(vec![
        ("format", Json::Str(CHECKPOINT_FORMAT.into())),
        ("digest", Json::Str(spec.digest())),
    ]);
    fs::write(
        checkpoint_path(&resumed_path),
        format!(
            "{}\n{}\n",
            header.to_string_compact(),
            cell0.to_string_compact()
        ),
    )
    .unwrap();
    let (out, bytes) = run_to("rare-resumed.json", 2);
    assert_eq!(out.resumed, 1, "planted cell must be skipped");
    assert_eq!(out.completed, spec.cells.len() - 1);
    assert_eq!(bytes, reference, "resumed artifact differs from a full run");
    assert!(!checkpoint_path(&resumed_path).exists());
    let _ = fs::remove_dir_all(&dir);

    // And the file that came out is a valid, fully CI-covered artifact.
    let (cells, misses) = sweep::validate::<RareCellSpec>(&text).expect("valid artifact");
    assert_eq!(cells, spec.cells.len());
    assert_eq!(misses, 0, "an estimator CI missed the exact answer");
}
