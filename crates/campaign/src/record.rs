//! Typed sweep records. A [`Schema`] names every member once, in
//! artifact key order, and [`Fields`] runs that one list either way:
//! writing renders the JSON object, reading fills a default value and
//! fails on the first missing, mistyped, reordered or extra key, naming
//! it. A sweep kind's [`Record`] adds its table row and its rules.

use crate::json::Json;
use crate::report::Table;
use dra_des::stats::Welford;
use std::fmt::Debug;

/// A type whose JSON form is one object with a fixed field list.
pub trait Schema: Default {
    /// Visit every field in key order.
    fn fields(&mut self, f: &mut Fields);
}

/// A sweep kind's cell record (a [`Cell`] wraps it).
pub trait Record: Schema {
    /// Result-table headers: the key columns, then [`Record::row`]'s.
    const HEADERS: &'static [&'static str];
    /// Whether the key columns start with the cell index before the id.
    const INDEX_COLUMN: bool = false;
    /// The record's result-table columns after the key columns.
    fn row(&self) -> Vec<String>;
    /// The kind's rules, given the cell's manifest entry: `Err` for a
    /// malformed record, `Ok(false)` for a well-formed one that fails
    /// its check (e.g. a CI that misses the exact answer).
    fn check(&self, cell: &Json) -> Result<bool, String>;
}

/// A value that is one member of a record.
pub trait Field: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;
    /// The value `json` holds, or an error naming `path`.
    fn from_json(json: &Json, path: &str) -> Result<Self, String>;
}

macro_rules! leaf {
    ($t:ty, $what:literal, |$x:ident| $write:expr, |$j:ident| $read:expr) => {
        impl Field for $t {
            fn to_json(&self) -> Json {
                let $x = self;
                $write
            }
            fn from_json($j: &Json, path: &str) -> Result<Self, String> {
                let read: Option<Self> = $read;
                read.ok_or_else(|| format!("{path} is not {}", $what))
            }
        }
    };
}

leaf!(u64, "a count", |x| Json::Num(*x as f64), |j| j.as_u64());
leaf!(f64, "a finite number", |x| Json::Num(*x), |j| j
    .as_f64()
    .filter(|x| x.is_finite()));
leaf!(String, "a string", |s| Json::Str(s.clone()), |j| j
    .as_str()
    .map(String::from));
leaf!(bool, "a boolean", |b| Json::Bool(*b), |j| match j {
    Json::Bool(b) => Some(*b),
    _ => None,
});

/// `null` stands for `None` (e.g. an estimate that is not finite).
impl<T: Field> Field for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::to_json)
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            _ => T::from_json(json, path).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Field::to_json).collect())
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, String> {
        let items = json
            .as_arr()
            .ok_or_else(|| format!("{path} is not a list"))?;
        let item = |(i, j)| T::from_json(j, &format!("{path}[{i}]"));
        items.iter().enumerate().map(item).collect()
    }
}

/// A field list being run: writing appends members to `out`; reading
/// consumes `input` in order and keeps the first error.
#[derive(Default)]
pub struct Fields<'a> {
    /// Dotted prefix of the object being visited (`""` or `"eib."`).
    path: String,
    out: Vec<(String, Json)>,
    input: Option<&'a [(String, Json)]>,
    error: Option<String>,
}

impl<'a> Fields<'a> {
    /// Run `body` over the object `json` at `path` (a dotted prefix):
    /// the first read error, or a member `body` left unread, fails it.
    fn read_in(json: &'a Json, path: String, body: impl FnOnce(&mut Self)) -> Result<(), String> {
        let Json::Obj(members) = json else {
            return Err(format!("{} is not an object", path.trim_end_matches('.')));
        };
        let mut f = Fields::default();
        (f.path, f.input) = (path, Some(&members[..]));
        body(&mut f);
        match (f.error, f.input) {
            (Some(e), _) => Err(e),
            (None, Some([(key, _), ..])) => Err(format!("unexpected key {}{key}", f.path)),
            _ => Ok(()),
        }
    }

    /// Consume the member `key`, which must come next.
    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let error = match self.input?.split_first() {
            _ if self.error.is_some() => return None,
            Some(((k, json), rest)) if k == key => {
                self.input = Some(rest);
                return Some(json);
            }
            Some(((k, _), _)) => format!("expected {}{key}, found {k:?}", self.path),
            None => format!("missing {}{key}", self.path),
        };
        self.error = Some(error);
        None
    }

    /// Read the member `key`, which must come next.
    fn read<T: Field>(&mut self, key: &str) -> Option<T> {
        let read = T::from_json(self.take(key)?, &format!("{}{key}", self.path));
        read.map_err(|e| self.error = Some(e)).ok()
    }

    /// The member `key`.
    pub fn field<T: Field>(&mut self, key: &str, value: &mut T) {
        if self.input.is_none() {
            self.out.push((key.to_string(), value.to_json()));
        } else if let Some(v) = self.read(key) {
            *value = v;
        }
    }

    /// The member `key` when present: written only when `Some`, read
    /// only when it comes next.
    pub fn optional<T: Field>(&mut self, key: &str, value: &mut Option<T>) {
        match (self.input, &value) {
            (None, Some(v)) => self.out.push((key.to_string(), v.to_json())),
            (Some([(k, _), ..]), _) if k == key => *value = self.read(key),
            _ => {}
        }
    }

    /// The nested object `key`, whose members `body` visits.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Fields<'a>)) {
        if self.input.is_none() {
            let mut inner = Fields::default();
            body(&mut inner);
            self.out.push((key.to_string(), Json::Obj(inner.out)));
        } else if let Some(json) = self.take(key) {
            self.error = Fields::read_in(json, format!("{}{key}.", self.path), body).err();
        }
    }

    /// The counts `values`, as an object keyed by `names` in order.
    pub fn counts(&mut self, key: &str, names: &[&str], values: &mut [u64]) {
        self.object(key, |f| {
            for (name, v) in names.iter().zip(values) {
                f.field(name, v);
            }
        });
    }
}

/// `value` as a JSON object.
pub(crate) fn write<T: Schema>(value: &mut T) -> Json {
    let mut f = Fields::default();
    value.fields(&mut f);
    Json::Obj(f.out)
}

/// The `T` in the object `json` at `path` (a dotted prefix, `""` at the
/// top); the error names the first bad key.
pub(crate) fn read<T: Schema>(json: &Json, path: String) -> Result<T, String> {
    let mut value = T::default();
    Fields::read_in(json, path, |f| value.fields(f)).map(|()| value)
}

/// A replication statistic: `{n}` when empty, else `{n, mean, ci95,
/// min, max}` (`ci95` is 0 below two samples).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    /// Samples.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the normal-approximation 95% interval of the mean.
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl From<&Welford> for Stat {
    fn from(w: &Welford) -> Stat {
        match w.count() {
            0 => Stat::default(),
            n => Stat {
                n,
                mean: w.mean(),
                ci95: if n >= 2 { w.ci_half_width(1.96) } else { 0.0 },
                min: w.min(),
                max: w.max(),
            },
        }
    }
}

impl Schema for Stat {
    fn fields(&mut self, f: &mut Fields) {
        f.field("n", &mut self.n);
        if self.n > 0 {
            f.field("mean", &mut self.mean);
            f.field("ci95", &mut self.ci95);
            f.field("min", &mut self.min);
            f.field("max", &mut self.max);
        }
    }
}

/// A nested object.
impl<T: Schema + Clone> Field for T {
    fn to_json(&self) -> Json {
        write(&mut self.clone())
    }
    fn from_json(json: &Json, path: &str) -> Result<Self, String> {
        read(json, format!("{path}."))
    }
}

impl Stat {
    /// `Err` unless the statistic `key` holds one sample per
    /// replication (`every`) or at most that many, with `0 ≤ min ≤ mean
    /// ≤ max` (every statistic here is a ratio, a time or a count) and
    /// `ci95 ≥ 0`.
    pub fn check(&self, key: &str, replications: u64, every: bool) -> Result<(), String> {
        let (n, mean, min, max) = (self.n, self.mean, self.min, self.max);
        if n != replications && (every || n > replications) {
            return Err(format!("{key}.n {n} for {replications} replications"));
        }
        if !(0.0 <= min && min <= mean && mean <= max) {
            return Err(format!("{key}: not 0 <= {min} <= {mean} <= {max}"));
        }
        if self.ci95 < 0.0 {
            return Err(format!("{key}.ci95 {} is negative", self.ci95));
        }
        Ok(())
    }

    /// `Err` unless every sample of the statistic `key` lies in `[0, 1]`.
    pub fn unit(&self, key: &str) -> Result<(), String> {
        if self.n == 0 || (self.min >= 0.0 && self.max <= 1.0) {
            return Ok(());
        }
        Err(format!("{key} outside [0, 1]"))
    }
}

/// The value at the dotted `path` of a manifest cell.
pub fn declared<T: Field>(cell: &Json, path: &str) -> Result<T, String> {
    let json = path.split('.').try_fold(cell, |j, key| j.get(key));
    let json = json.ok_or_else(|| format!("manifest has no {path}"))?;
    T::from_json(json, &format!("manifest {path}"))
}

/// `Err` unless the record's `key` holds what the manifest declares.
pub fn same<T: PartialEq + Debug>(key: &str, got: &T, declared: &T) -> Result<(), String> {
    if got == declared {
        return Ok(());
    }
    Err(format!("{key} {got:?} is not the manifest's {declared:?}"))
}

/// One artifact cell: `{cell, id, error}` when it panicked with that
/// message (`record` is then unset), else `{cell, id, ..record}`.
#[derive(Debug, Default)]
pub struct Cell<R> {
    /// Position in the grid.
    pub index: u64,
    /// Cell id.
    pub id: String,
    /// The panic message of a cell that failed.
    pub error: Option<String>,
    /// The record of a cell that finished.
    pub record: R,
}

impl<R: Schema> Schema for Cell<R> {
    fn fields(&mut self, f: &mut Fields) {
        f.field("cell", &mut self.index);
        f.field("id", &mut self.id);
        f.optional("error", &mut self.error);
        if self.error.is_none() {
            self.record.fields(f);
        }
    }
}

/// Cells as a table, one row per cell: the key columns, then the
/// record's row or the cell's error.
pub fn result_table<R: Record>(cells: &[Cell<R>]) -> Table {
    let rows = cells.iter().map(|c| {
        let mut row = Vec::with_capacity(R::HEADERS.len());
        if R::INDEX_COLUMN {
            row.push(c.index.to_string());
        }
        row.push(c.id.clone());
        match &c.error {
            None => row.extend(c.record.row()),
            Some(e) => row.push(format!("ERROR: {e}")),
        }
        row.resize(R::HEADERS.len(), String::new());
        row
    });
    (R::HEADERS.to_vec(), rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A record with a nested object, an optional member and a list.
    #[derive(Debug, Default, PartialEq)]
    struct Probe {
        name: String,
        stat: Stat,
        bound: Option<f64>,
        counts: Vec<u64>,
    }

    impl Schema for Probe {
        fn fields(&mut self, f: &mut Fields) {
            f.field("name", &mut self.name);
            f.object("inner", |f| {
                f.field("stat", &mut self.stat);
                f.optional("bound", &mut self.bound);
            });
            f.field("counts", &mut self.counts);
        }
    }

    fn probe(bound: Option<f64>) -> Probe {
        let mut w = Welford::new();
        w.push(0.25);
        w.push(0.75);
        let (name, stat, counts) = ("p".into(), Stat::from(&w), vec![1, 2]);
        Probe {
            name,
            stat,
            bound,
            counts,
        }
    }

    #[test]
    fn one_field_list_writes_and_reads_back() {
        for bound in [None, Some(0.5)] {
            let json = write(&mut probe(bound));
            assert_eq!(read::<Probe>(&json, String::new()), Ok(probe(bound)));
        }
        let empty = Stat::from(&Welford::new());
        assert_eq!(empty.to_json().to_string_compact(), r#"{"n":0}"#);
        assert_eq!(Stat::from_json(&empty.to_json(), "s"), Ok(empty));
    }

    #[test]
    fn a_read_error_names_the_first_bad_key() {
        let text = write(&mut probe(Some(0.5))).to_string_compact();
        let cases = [
            ("\"n\":2,", "\"n\":\"x\",", "inner.stat.n is not a count"),
            ("\"name\":\"p\",", "", "expected name, found \"inner\""),
            (",\"counts\":[1,2]", "", "missing counts"),
            ("[1,2]", "[1,-2]", "counts[1] is not a count"),
            ("[1,2]}", "[1,2],\"more\":0}", "unexpected key more"),
            (
                "\"bound\":0.5",
                "\"bound\":0.5,\"x\":1",
                "unexpected key inner.x",
            ),
            (
                "\"min\":0.25",
                "\"min\":null",
                "inner.stat.min is not a finite",
            ),
        ];
        for (from, to, want) in cases {
            let edited = parse(&text.replacen(from, to, 1)).unwrap();
            let err = read::<Probe>(&edited, String::new()).unwrap_err();
            assert!(err.contains(want), "{from} -> {to}: {err}");
        }
    }

    #[test]
    fn stat_rules() {
        let stat = probe(None).stat;
        assert_eq!(stat.check("s", 2, true), Ok(()));
        assert_eq!(stat.check("s", 3, false), Ok(()));
        assert!(stat.check("s", 3, true).unwrap_err().contains("s.n 2"));
        assert!(stat.check("s", 1, false).is_err());
        let above = Stat { max: 0.4, ..stat };
        assert!(above
            .check("s", 2, true)
            .unwrap_err()
            .contains("0.5 <= 0.4"));
        let negative = Stat { min: -1.0, ..stat };
        assert!(negative.check("s", 2, true).is_err());
        assert!(Stat { max: 1.5, ..stat }.unit("s").is_err());
        assert_eq!(stat.unit("s"), Ok(()));
    }

    impl Record for Probe {
        const HEADERS: &'static [&'static str] = &["cell", "id", "name", "n"];
        const INDEX_COLUMN: bool = true;
        fn row(&self) -> Vec<String> {
            vec![self.name.clone(), self.stat.n.to_string()]
        }
        fn check(&self, _: &Json) -> Result<bool, String> {
            Ok(true)
        }
    }

    #[test]
    fn result_table_handles_error_cells() {
        let cell = |index, error: Option<&str>| {
            let (id, error) = (format!("c{index}"), error.map(String::from));
            let record = if error.is_none() {
                probe(None)
            } else {
                Probe::default()
            };
            let json = write(&mut Cell {
                index,
                id,
                error,
                record,
            });
            read::<Cell<Probe>>(&json, String::new()).unwrap()
        };
        let (headers, rows) = result_table(&[cell(0, None), cell(1, Some("boom"))]);
        assert_eq!(headers, ["cell", "id", "name", "n"]);
        assert_eq!(rows[0], ["0", "c0", "p", "2"]);
        assert_eq!(rows[1], ["1", "c1", "ERROR: boom", ""]);
    }
}
