//! The half of the public surface the compiler cannot guard.
//!
//! Items in `crates/*/src` are crate-private unless something outside
//! their crate's `src/` names them (CONTRIBUTING.md), so rustc's
//! dead-code lint already fails the build when a crate-private item
//! loses its last caller. What rustc cannot see is whether a `pub`
//! item still has a *production* caller in another crate: a `pub fn`
//! whose only outside callers are tests compiles warning-free. This
//! scan checks that: every `pub fn` in the production sources must have
//! a production caller, or sit on the keep-list below, which names the
//! test in another target that calls it.
//!
//! Production sources are `crates/*/src`, `src/` and `examples/`; code
//! in `benchmark/src` also counts as a caller. Each file is read up to
//! its first line-start `#[cfg(test)]`; files declared as `#[cfg(test)]`
//! modules, items marked `#[cfg(test)]`, comments, string literals and
//! `use` and `mod` declarations are skipped. A name is unreferenced
//! when its identifier occurs no more often than it is defined. The
//! scan is by name, so a function that shares its name with a called
//! one (`new`, `len`) passes unseen.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions no production path calls, each kept for the test
/// in another target that calls it.
const KEEP: &[(&str, &str)] = &[
    (
        "expm",
        "dra-markov's transient_expm test reference exponentiates with it",
    ),
    (
        "pointers",
        "tests/fabric_equivalence.rs: the scalar-crossbar differential",
    ),
    (
        "row_sums",
        "tests/markov_models.rs: every generator row sums to zero",
    ),
    (
        "segment",
        "tests/end_to_end.rs compares segment_cells with it",
    ),
    (
        "set_pointers",
        "tests/fabric_equivalence.rs: the scalar-crossbar differential",
    ),
    (
        "transient_rk45",
        "tests/markov_models.rs compares it with uniformization",
    ),
    (
        "vecmat",
        "dra-markov's transient_expm test reference multiplies by it",
    ),
    (
        "voq_len",
        "tests/fabric_comparison.rs reads VOQ depths through it",
    ),
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` without comments, with string and char literals emptied
/// (a name inside a message is not a call); line breaks are kept.
fn strip_literals(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let at = |i: usize, pat: &str| {
        pat.chars()
            .enumerate()
            .all(|(k, c)| chars.get(i + k) == Some(&c))
    };
    // Skip to just past `end`, keeping the line breaks on the way.
    let skip_to = |mut i: usize, end: &str, out: &mut String, escapes: bool| {
        while i < chars.len() && !at(i, end) {
            if chars[i] == '\n' {
                out.push('\n');
            }
            i += if escapes && chars[i] == '\\' { 2 } else { 1 };
        }
        i + end.len()
    };
    while i < chars.len() {
        if at(i, "//") {
            i = skip_to(i, "\n", &mut out, false) - 1;
        } else if at(i, "/*") {
            i = skip_to(i + 2, "*/", &mut out, false);
        } else if at(i, "r#\"") {
            i = skip_to(i + 3, "\"#", &mut out, false);
            out.push_str("\"\"");
        } else if chars[i] == '"' {
            i = skip_to(i + 1, "\"", &mut out, true);
            out.push_str("\"\"");
        } else if at(i, "'\"'") || at(i, "'\\\"'") || at(i, "'\\\\'") {
            i += if chars[i + 1] == '"' { 3 } else { 4 };
        } else {
            out.push(chars[i]);
            i += 1;
        }
    }
    out
}

/// `text` up to its first line-start `#[cfg(test)]`, without comments,
/// literals, `use` declarations (an import or re-export is not a call)
/// and items marked `#[cfg(test)]` inside it.
fn production_text(text: &str) -> String {
    let end = text.find("\n#[cfg(test)]").map_or(text.len(), |i| i + 1);
    let mut out = String::new();
    let mut skip_use = false;
    // Brace depth of a `#[cfg(test)]` item being skipped, and whether
    // its body has opened.
    let mut skip_item: Option<(i64, bool)> = None;
    for code in strip_literals(&text[..end]).lines() {
        let trimmed = code.trim();
        if let Some((depth, opened)) = skip_item.as_mut() {
            *opened |= code.contains('{');
            *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
            let ended = if *opened {
                *depth <= 0
            } else {
                trimmed.ends_with(';') || trimmed.ends_with(',')
            };
            if ended {
                skip_item = None;
            }
            continue;
        }
        if trimmed == "#[cfg(test)]" {
            skip_item = Some((0, false));
            continue;
        }
        if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
            skip_use = true;
        }
        // A module declaration names a file, not a function.
        if trimmed.ends_with(';') && trimmed.split_whitespace().any(|w| w == "mod") {
            continue;
        }
        if skip_use {
            skip_use = !trimmed.ends_with(';');
            continue;
        }
        out.push_str(code);
        out.push('\n');
    }
    out
}

/// Paths of the modules a file declares as `#[cfg(test)] mod name;`.
fn test_only_modules(path: &Path, text: &str) -> Vec<PathBuf> {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let dir = path.parent().expect("file has a directory");
    lines
        .windows(2)
        .filter(|w| w[0] == "#[cfg(test)]")
        .filter_map(|w| w[1].strip_prefix("mod ")?.strip_suffix(';'))
        .map(|name| dir.join(format!("{name}.rs")))
        .collect()
}

fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// The name after `pub fn` or `pub const fn` at the start of `line`.
fn defined_name(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let rest = line
        .strip_prefix("pub fn ")
        .or_else(|| line.strip_prefix("pub const fn "))?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Every `pub fn` name whose identifier occurs in production code only
/// where it is defined.
fn unreferenced_pub_fns(root: &Path) -> BTreeSet<String> {
    let mut defining = Vec::new();
    for dir in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rs_files(&dir.expect("readable").path().join("src"), &mut defining);
    }
    rs_files(&root.join("src"), &mut defining);
    rs_files(&root.join("examples"), &mut defining);
    let mut calling = defining.clone();
    rs_files(&root.join("benchmark").join("src"), &mut calling);

    let texts: Vec<(PathBuf, String)> = calling
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source");
            (p, text)
        })
        .collect();
    let skipped: BTreeSet<PathBuf> = texts
        .iter()
        .flat_map(|(p, t)| test_only_modules(p, t))
        .collect();

    let mut uses: BTreeMap<&str, usize> = BTreeMap::new();
    let mut defs: BTreeMap<String, usize> = BTreeMap::new();
    let prod: Vec<(&PathBuf, String)> = texts
        .iter()
        .filter(|(p, _)| !skipped.contains(p))
        .map(|(p, t)| (p, production_text(t)))
        .collect();
    for (path, text) in &prod {
        for id in identifiers(text) {
            *uses.entry(id).or_default() += 1;
        }
        if defining.contains(path) {
            for name in text.lines().filter_map(defined_name) {
                *defs.entry(name.to_string()).or_default() += 1;
            }
        }
    }
    defs.into_iter()
        .filter(|(name, n)| uses.get(name.as_str()).copied().unwrap_or(0) <= *n)
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn every_pub_fn_has_a_production_caller_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let found = unreferenced_pub_fns(root);
    let keep: BTreeSet<String> = KEEP.iter().map(|(n, _)| n.to_string()).collect();
    let new: Vec<_> = found.difference(&keep).collect();
    let stale: Vec<_> = keep.difference(&found).collect();
    assert!(
        new.is_empty() && stale.is_empty(),
        "pub fns without a production caller: {new:?} (give each a caller, \
         make it #[cfg(test)], delete it, or add it to KEEP with a reason); \
         KEEP entries that now have a caller or are gone: {stale:?}"
    );
}
