//! The sweep envelope: the one artifact layout, digest, checkpoint
//! format and envelope check shared by every sweep kind (packet
//! campaigns, rare-event campaigns, topo sweeps).
//!
//! A sweep kind implements [`Sweep`] on its cell type: a canonical JSON
//! manifest per cell and the [`Record`] a finished cell produces, which
//! carries its own rules. Its spec is a [`Grid`] of those cells plus a
//! master seed. [`run`] executes any such grid and [`validate`] checks
//! any such artifact:
//!
//! ```text
//! { "format": <Sweep::FORMAT>, "digest": <16 hex>,
//!   "spec":   { name, description, master seed, cells: [..] },
//!   "cells":  [ { "cell": i, "id": .., ..record.. } in index order ],
//!   "telemetry": { .. }   // optional dra-telemetry/v2, no profile
//! }
//! ```
//!
//! Telemetry (the only collection path): a run that asks for any
//! telemetry output arms a fresh hub around each cell, takes the cell's
//! document and trace, and disarms the hub. Documents merge and traces
//! concatenate in cell-index order into the requested outputs.
//!
//! Determinism contract: the artifact is a pure function of the spec
//! (master seed included). Worker count, scheduling order, resume
//! boundaries and cell budgets change only *when* cells run, never
//! what they compute: records are sorted by cell index before
//! assembly, and resumed records are spliced in from the checkpoint
//! verbatim (the JSON round-trips `f64` exactly), so a resumed
//! artifact is byte-identical to a fresh one.
//!
//! Crash safety: with an output path, finished records append to a
//! `<artifact>.partial.jsonl` checkpoint whose header carries the spec
//! digest; the artifact is validated, written to a temp file and
//! atomically renamed, so readers never see a torn artifact and an
//! interrupted sweep resumes by skipping the checkpointed cells.

use crate::json::{parse, Json};
use crate::pool::WorkerPool;
use crate::record::{declared, read, same, write, Cell, Record};
use dra_telemetry::{Snapshot, TraceEvent};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The checkpoint format identifier (first line of every checkpoint).
pub const CHECKPOINT_FORMAT: &str = "dra-campaign-checkpoint/v1";

/// A sweep spec: a named grid of cells that renders to one versioned
/// artifact.
#[derive(Debug, Clone)]
pub struct Grid<S> {
    /// Sweep name (also the default artifact file stem).
    pub name: String,
    /// One-line description for the manifest.
    pub description: String,
    /// Master seed; every RNG stream of the sweep derives from it.
    pub master_seed: u64,
    /// The grid.
    pub cells: Vec<S>,
}

/// A sweep kind, implemented on its cell type.
pub trait Sweep: Sync {
    /// Artifact format identifier; bump when the record layout changes.
    const FORMAT: &'static str;
    /// What a finished cell produces: its fields, table row and rules.
    type Record: Record;
    /// Dry-run table headers, one per [`Sweep::grid_row`] column.
    const GRID_HEADERS: &'static [&'static str];
    /// Prefix of the default artifact file stem.
    const STEM_PREFIX: &'static str = "";
    /// Cell id, unique within the sweep.
    fn id(&self) -> &str;
    /// Canonical JSON description (everything that affects the cell's
    /// record, `"id"` included).
    fn manifest(&self) -> Json;
    /// Reject a malformed cell (`index` is its position). [`check_spec`]
    /// applies the grid rules every kind shares first.
    fn validate(&self, index: usize) -> Result<(), String>;
    /// The cell's row in the expanded grid a dry run prints.
    fn grid_row(&self) -> Vec<String>;
}

impl<S: Sweep> Grid<S> {
    /// File stem of the default artifact path, `results/<stem>.json`.
    pub fn artifact_stem(&self) -> String {
        format!("{}{}", S::STEM_PREFIX, self.name)
    }

    /// Canonical manifest: name, description, seed, and every cell.
    pub fn manifest(&self) -> Json {
        // A JSON number is an f64, exact for integers only up to 2^53:
        // larger seeds are written as decimal strings, so two seeds
        // never share a manifest (and a digest).
        let seed = match self.master_seed {
            seed if seed > 1 << 53 => Json::Str(seed.to_string()),
            seed => Json::Num(seed as f64),
        };
        let cells = self.cells.iter().map(S::manifest).collect();
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            ("master_seed", seed),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// FNV-1a digest of the compact manifest (16 hex digits). Stamped
    /// into checkpoints and artifacts: a resume whose digest differs
    /// from the checkpoint's runs a different experiment and starts
    /// over, and `dra check` recomputes it from the embedded manifest.
    pub fn digest(&self) -> String {
        fnv1a_hex(&self.manifest().to_string_compact())
    }
}

fn fnv1a_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Knobs for one sweep invocation (not part of the spec: none of these
/// may affect the artifact's cells).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (1 ⇒ fully serial in the calling thread).
    pub workers: usize,
    /// Artifact path. `None` runs in memory: no checkpoint, no file.
    pub out: Option<PathBuf>,
    /// Stop after completing this many *new* cells (checkpointing
    /// them); `None` runs the whole grid. Used to bound invocation
    /// time and to test resume.
    pub cell_budget: Option<usize>,
    /// Ignore (and overwrite) any existing checkpoint.
    pub fresh: bool,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// Opt-in heartbeat on stderr as cells complete (done count,
    /// elapsed wall time, ETA). Writes only to stderr, so it cannot
    /// change the artifact.
    pub progress: bool,
    /// Embed the merged `dra-telemetry/v2` document, without its
    /// non-deterministic `profile`, as a `telemetry` section in the
    /// artifact.
    pub telemetry: bool,
    /// Write the merged `dra-telemetry/v2` document to this path as a
    /// standalone file, leaving the artifact byte-identical to a run
    /// without telemetry.
    pub telemetry_out: Option<PathBuf>,
    /// Write a Chrome `trace_event` JSON (Perfetto-loadable) of the
    /// sampled packets to this path.
    pub trace_out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: crate::pool::default_workers(),
            out: None,
            cell_budget: None,
            fresh: false,
            quiet: true,
            progress: false,
            telemetry: false,
            telemetry_out: None,
            trace_out: None,
        }
    }
}

impl RunOptions {
    /// Whether this run collects telemetry (any telemetry output set).
    pub(crate) fn collects_telemetry(&self) -> bool {
        self.telemetry || self.telemetry_out.is_some() || self.trace_out.is_some()
    }
}

/// What one sweep invocation accomplished.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The complete artifact, present only when every cell finished.
    pub artifact: Option<Json>,
    /// `artifact` rendered exactly as written (empty while cells remain).
    pub artifact_text: String,
    /// Where the artifact was written (when complete and `out` set).
    pub artifact_path: Option<PathBuf>,
    /// Cells computed by *this* invocation.
    pub completed: usize,
    /// Cells skipped because the checkpoint already had them.
    pub resumed: usize,
    /// Cells still missing (> 0 ⇔ budget exhausted, artifact absent).
    pub remaining: usize,
    /// Cells that failed with a panic (included in the artifact as
    /// error records).
    pub failed: usize,
}

/// Execute a sweep and assemble, validate and (with `opts.out`)
/// atomically write its artifact.
///
/// `run_cell(i)` computes cell `i`'s record, which the envelope
/// serializes; it is called once for each cell this invocation computes
/// (the grid less the checkpointed cells, cut to any cell budget), from
/// the worker threads. State a kind shares between cells (a topo
/// sweep's forwarding tables) is filled lazily by the cells that use
/// it, so a resumed or budgeted run builds only what its cells need. A
/// run that collects telemetry (see the module docs) neither resumes
/// from nor writes a checkpoint, because a merged document must cover
/// every cell.
///
/// A spec that fails [`check_spec`] is an
/// [`io::ErrorKind::InvalidInput`] error, and so is a `cell_budget` on
/// a run that collects telemetry (without a checkpoint a budgeted run
/// could never finish). An assembled artifact that fails [`validate`]
/// is [`io::ErrorKind::InvalidData`].
pub fn run<S: Sweep>(
    spec: &Grid<S>,
    opts: &RunOptions,
    run_cell: impl Fn(usize) -> S::Record + Sync,
) -> io::Result<Outcome> {
    check_spec(spec).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    if opts.cell_budget.is_some() && opts.collects_telemetry() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a cell budget cannot be combined with telemetry collection: \
             telemetry runs write no checkpoint, so the run could never finish",
        ));
    }
    let manifest = spec.manifest();
    let digest = fnv1a_hex(&manifest.to_string_compact());

    let ckpt_path = opts
        .out
        .as_deref()
        .filter(|_| !opts.collects_telemetry())
        .map(checkpoint_path);
    let mut done: BTreeMap<usize, Json> = BTreeMap::new();
    if let Some(path) = &ckpt_path {
        if opts.fresh {
            let _ = fs::remove_file(path);
        } else {
            done = load_checkpoint::<S>(path, &digest, &manifest, opts.quiet)?;
        }
    }
    let resumed = done.len();
    let mut pending: Vec<usize> = (0..spec.cells.len())
        .filter(|i| !done.contains_key(i))
        .collect();
    let total_pending = pending.len();
    if let Some(budget) = opts.cell_budget {
        pending.truncate(budget);
    }

    // Open the checkpoint before any work starts, so a kill mid-run
    // loses at most the in-flight cells.
    let ckpt: Option<Mutex<fs::File>> = match &ckpt_path {
        Some(path) if !pending.is_empty() => {
            if let Some(dir) = path.parent() {
                fs::create_dir_all(dir)?;
            }
            let f = if done.is_empty() {
                let mut f = fs::File::create(path)?;
                let header = Json::obj(vec![
                    ("format", Json::Str(CHECKPOINT_FORMAT.into())),
                    ("sweep", Json::Str(spec.name.clone())),
                    ("digest", Json::Str(digest.clone())),
                ]);
                append_line(&mut f, &header)?;
                f
            } else {
                fs::OpenOptions::new().append(true).open(path)?
            };
            Some(Mutex::new(f))
        }
        _ => None,
    };
    let checkpoint = |record: &Json| -> io::Result<()> {
        match &ckpt {
            Some(f) => append_line(&mut f.lock().expect("checkpoint lock"), record),
            None => Ok(()),
        }
    };

    let heartbeat_done = AtomicUsize::new(0);
    let heartbeat_start = Instant::now();
    let outcomes = WorkerPool::new(opts.workers).try_map(pending.clone(), |&i| {
        let (record, tele) = observed(opts, || run_cell(i));
        let record = cell_json(spec, i, record, None);
        checkpoint(&record).expect("checkpoint write");
        if !opts.quiet {
            eprintln!("  cell {i} ({}) done", spec.cells[i].id());
        }
        if opts.progress {
            let n = heartbeat_done.fetch_add(1, Ordering::Relaxed) + 1;
            let elapsed = heartbeat_start.elapsed().as_secs_f64();
            let eta = elapsed / n as f64 * (pending.len() - n) as f64;
            eprintln!(
                "[{}] {n}/{} cells, {elapsed:.1}s elapsed, eta {eta:.1}s",
                spec.name,
                pending.len()
            );
        }
        (record, tele)
    });

    // Slots are in cell-index order, so the trace concatenates in it.
    let mut doc = Snapshot::default();
    let mut trace = Vec::new();
    let mut failed = 0;
    for (slot, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((record, (cell_doc, cell_trace))) => {
                doc.merge(&cell_doc);
                trace.extend(cell_trace);
                done.insert(pending[slot], record);
            }
            Err(p) => {
                // The cell panicked before it could checkpoint; record
                // the failure so the artifact stays complete. Key it by
                // the index the panic carries, not by result position.
                failed += 1;
                let i = pending[p.index];
                let record = cell_json(spec, i, S::Record::default(), Some(p.message));
                checkpoint(&record)?;
                done.insert(i, record);
            }
        }
    }

    let remaining = spec.cells.len() - done.len();
    if remaining > 0 {
        return Ok(Outcome {
            completed: total_pending - remaining,
            resumed,
            remaining,
            failed,
            ..Outcome::default()
        });
    }

    let mut fields = vec![
        ("format", Json::Str(S::FORMAT.into())),
        ("digest", Json::Str(digest)),
        ("spec", manifest),
        ("cells", Json::Arr(done.into_values().collect())),
    ];
    if opts.collects_telemetry() {
        if let Some(path) = &opts.trace_out {
            write_atomic(path, &dra_telemetry::chrome_trace_json(&trace))?;
        }
        let mut section = doc.to_json();
        if let Some(path) = &opts.telemetry_out {
            write_atomic(path, &section.to_string_pretty())?;
        }
        if opts.telemetry {
            // The artifact stays a pure function of its spec.
            if let Json::Obj(members) = &mut section {
                members.retain(|(k, _)| k != "profile");
            }
            fields.push(("telemetry", section));
        }
    }
    let artifact = Json::obj(fields);
    let text = artifact.to_string_pretty();
    validate::<S>(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if let Some(out) = &opts.out {
        write_atomic(out, &text)?;
        if let Some(path) = &ckpt_path {
            let _ = fs::remove_file(path);
        }
    }
    Ok(Outcome {
        artifact: Some(artifact),
        artifact_text: text,
        artifact_path: opts.out.clone(),
        completed: total_pending,
        resumed,
        remaining: 0,
        failed,
    })
}

/// An artifact's `cells` array.
fn cells(artifact: &Json) -> Result<&[Json], String> {
    let cells = artifact.get("cells").and_then(Json::as_arr);
    cells.ok_or_else(|| "missing cells array".into())
}

/// Cell `i`'s artifact entry.
fn cell_json<S: Sweep>(spec: &Grid<S>, i: usize, record: S::Record, error: Option<String>) -> Json {
    let (index, id) = (i as u64, spec.cells[i].id().to_string());
    write(&mut Cell {
        index,
        id,
        error,
        record,
    })
}

/// Run one cell, on a fresh hub when the run collects telemetry; its
/// document and trace events are empty otherwise.
fn observed<R>(opts: &RunOptions, cell: impl FnOnce() -> R) -> (R, (Snapshot, Vec<TraceEvent>)) {
    if !opts.collects_telemetry() {
        return (cell(), Default::default());
    }
    /// Disarms the hub however the cell ends, panics included.
    struct Armed;
    impl Drop for Armed {
        fn drop(&mut self) {
            dra_telemetry::disable();
        }
    }
    dra_telemetry::enable(dra_telemetry::Config {
        collect_trace: opts.trace_out.is_some(),
        ..Default::default()
    });
    let _armed = Armed;
    let record = cell();
    let doc = dra_telemetry::snapshot().expect("the hub is armed");
    (record, (doc, dra_telemetry::take_trace_events()))
}

/// Check a spec as [`run`] does before any cell runs: the grid rules
/// every kind shares (at least one cell, no id twice), then
/// [`Sweep::validate`] on every cell.
pub fn check_spec<S: Sweep>(spec: &Grid<S>) -> Result<(), String> {
    check_grid(spec.cells.iter().map(S::id))?;
    let mut cells = spec.cells.iter().enumerate();
    cells.try_for_each(|(i, cell)| cell.validate(i))
}

/// The grid rules every sweep kind shares: at least one cell, and no
/// id twice. [`check_spec`] applies them to a spec, [`validate`] to an
/// artifact's embedded manifest.
fn check_grid<'a>(ids: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for id in ids {
        if !seen.insert(id) {
            return Err(format!("duplicate cell id {id:?}"));
        }
    }
    if seen.is_empty() {
        return Err("the grid has no cells".into());
    }
    Ok(())
}

fn append_line(f: &mut fs::File, record: &Json) -> io::Result<()> {
    writeln!(f, "{}", record.to_string_compact())?;
    f.flush()
}

/// The checkpoint path for an artifact path.
pub fn checkpoint_path(artifact: &Path) -> PathBuf {
    let mut name = artifact.file_name().unwrap_or_default().to_os_string();
    name.push(".partial.jsonl");
    artifact.with_file_name(name)
}

/// The records of the checkpoint at `path` that belong to the sweep
/// whose `digest` and `manifest` are given. A line is kept only when it
/// passes [`check_cell`] at its index, so a torn, foreign or malformed
/// line is simply re-run.
fn load_checkpoint<S: Sweep>(
    path: &Path,
    digest: &str,
    manifest: &Json,
    quiet: bool,
) -> io::Result<BTreeMap<usize, Json>> {
    let mut done = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(done),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    let header = match lines.next().and_then(|l| parse(l).ok()) {
        Some(h) => h,
        None => return Ok(done), // unreadable checkpoint: start over
    };
    let matches = header.get("format").and_then(Json::as_str) == Some(CHECKPOINT_FORMAT)
        && header.get("digest").and_then(Json::as_str) == Some(digest);
    if !matches {
        if !quiet {
            eprintln!(
                "  checkpoint at {} is for a different spec; ignoring",
                path.display()
            );
        }
        return Ok(done);
    }
    let cells = manifest.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    for record in lines.filter_map(|line| parse(line).ok()) {
        let Some(i) = record.get("cell").and_then(Json::as_u64) else {
            continue;
        };
        let i = i as usize;
        if i < cells.len() && check_cell::<S>(i, &record, &cells[i]).is_ok() {
            done.insert(i, record);
        }
    }
    Ok(done)
}

/// Write `text` to `path` through a synced temp file and a rename, so
/// readers see either the old file or the complete new one.
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Check an `S` artifact: format, digest against the embedded manifest,
/// the manifest's grid (at least one cell, unique ids), cell count,
/// then [`check_cell`] on every cell, and the shape of an embedded
/// telemetry section. Returns `(cells, flagged)`, where
/// `flagged` counts error cells plus records that failed their check.
pub fn validate<S: Sweep>(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let format = doc.get("format").and_then(Json::as_str);
    if format != Some(S::FORMAT) {
        return Err(format!("format is {format:?}, expected {:?}", S::FORMAT));
    }
    let digest = doc.get("digest").and_then(Json::as_str);
    let digest = digest.ok_or("missing digest")?;
    let spec = doc.get("spec").ok_or("missing spec manifest")?;
    let recomputed = fnv1a_hex(&spec.to_string_compact());
    if digest != recomputed {
        return Err(format!(
            "digest {digest} does not match the embedded spec manifest ({recomputed})"
        ));
    }
    let spec_cells = spec.get("cells").and_then(Json::as_arr);
    let spec_cells = spec_cells.ok_or("spec manifest has no cells")?;
    let ids: Vec<String> = spec_cells
        .iter()
        .map(|c| declared(c, "id"))
        .collect::<Result<_, _>>()?;
    check_grid(ids.iter().map(String::as_str)).map_err(|e| format!("spec manifest: {e}"))?;
    let cells = cells(&doc)?;
    if cells.len() != spec_cells.len() {
        return Err(format!(
            "artifact has {} cells but the spec declares {}",
            cells.len(),
            spec_cells.len()
        ));
    }
    let mut flagged = 0;
    for (i, (cell, declared)) in cells.iter().zip(spec_cells).enumerate() {
        if !check_cell::<S>(i, cell, declared).map_err(|e| format!("cell {i}: {e}"))? {
            flagged += 1;
        }
    }
    if let Some(t) = doc.get("telemetry") {
        let fmt = t.get("format").and_then(Json::as_str);
        if fmt != Some(dra_telemetry::SNAPSHOT_FORMAT) {
            return Err(format!(
                "telemetry section format is {fmt:?}, expected {:?}",
                dra_telemetry::SNAPSHOT_FORMAT
            ));
        }
        t.get("cells_merged")
            .and_then(Json::as_u64)
            .ok_or("telemetry section missing cells_merged")?;
        for scope in ["router", "network", "anomaly"] {
            if !matches!(t.get(scope), Some(Json::Null | Json::Obj(_))) {
                return Err(format!("telemetry section missing {scope}"));
            }
        }
    }
    Ok((cells.len(), flagged))
}

/// The check [`validate`] runs on artifact cell `i`, given its
/// manifest entry `manifest`: the cell must read as `{cell, id, error}`
/// or as `{cell, id, ..S::Record}`, carry index `i` and the declared
/// id, and a record must pass [`Record::check`]. `Ok(false)` flags an
/// error cell or a record that fails its check.
pub fn check_cell<S: Sweep>(i: usize, cell: &Json, manifest: &Json) -> Result<bool, String> {
    let cell: Cell<S::Record> = read(cell, String::new())?;
    same("cell", &cell.index, &(i as u64))?;
    same("id", &cell.id, &declared(manifest, "id")?)?;
    match cell.error {
        None => cell.record.check(manifest),
        Some(_) => Ok(false),
    }
}

/// An artifact's cells, typed (`Err` for a malformed cell).
pub fn records<S: Sweep>(artifact: &Json) -> Result<Vec<Cell<S::Record>>, String> {
    cells(artifact)?
        .iter()
        .map(|c| read(c, String::new()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_path_is_sibling() {
        let p = checkpoint_path(Path::new("results/faceoff.json"));
        assert_eq!(p, Path::new("results/faceoff.json.partial.jsonl"));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }

    /// A grid of bare ids whose empty records always pass their check.
    struct Id(&'static str);

    #[derive(Default)]
    struct Empty;

    impl crate::record::Schema for Empty {
        fn fields(&mut self, _: &mut crate::record::Fields) {}
    }

    impl Record for Empty {
        const HEADERS: &'static [&'static str] = &["id"];
        fn row(&self) -> Vec<String> {
            vec![]
        }
        fn check(&self, _: &Json) -> Result<bool, String> {
            Ok(true)
        }
    }

    impl Sweep for Id {
        const FORMAT: &'static str = "ids/v1";
        type Record = Empty;
        const GRID_HEADERS: &'static [&'static str] = &["id"];
        fn id(&self) -> &str {
            self.0
        }
        fn manifest(&self) -> Json {
            Json::obj(vec![("id", Json::Str(self.0.into()))])
        }
        fn validate(&self, _: usize) -> Result<(), String> {
            Ok(())
        }
        fn grid_row(&self) -> Vec<String> {
            vec![self.0.into()]
        }
    }

    /// A grid of bare ids whose empty records always pass their check.
    fn ids(ids: &[&'static str]) -> Grid<Id> {
        Grid {
            name: "ids".into(),
            description: "bare ids".into(),
            master_seed: 1,
            cells: ids.iter().map(|&id| Id(id)).collect(),
        }
    }

    /// A well-formed artifact for `ids` (correct digest, one record
    /// per manifest cell), assembled without going through [`run`].
    fn artifact(ids: Grid<Id>) -> String {
        let records = (0..ids.cells.len())
            .map(|i| {
                Json::obj(vec![
                    ("cell", Json::Num(i as f64)),
                    ("id", Json::Str(ids.cells[i].0.into())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("format", Json::Str(Id::FORMAT.into())),
            ("digest", Json::Str(ids.digest())),
            ("spec", ids.manifest()),
            ("cells", Json::Arr(records)),
        ])
        .to_string_pretty()
    }

    #[test]
    fn validate_checks_the_manifest_grid() {
        assert_eq!(validate::<Id>(&artifact(ids(&["a", "b"]))), Ok((2, 0)));
        let err = validate::<Id>(&artifact(ids(&[]))).unwrap_err();
        assert!(err.contains("no cells"), "{err}");
        let err = validate::<Id>(&artifact(ids(&["a", "b", "a"]))).unwrap_err();
        assert!(err.contains("duplicate cell id \"a\""), "{err}");
    }

    #[test]
    fn run_rejects_an_empty_grid_and_repeated_ids() {
        let opts = RunOptions {
            workers: 1,
            ..RunOptions::default()
        };
        for cells in [&[][..], &["a", "a"]] {
            let err = run(&ids(cells), &opts, |_| -> Empty {
                unreachable!("no cell may run")
            })
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        let done = run(&ids(&["a"]), &opts, |i| {
            assert_eq!(i, 0);
            Empty
        })
        .unwrap();
        assert_eq!(done.completed, 1);
    }
}
