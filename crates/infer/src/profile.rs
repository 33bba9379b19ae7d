//! Per-path dataset profiling with fusion provenance.
//!
//! The fused schema says *what* a dataset looks like — a field is
//! optional, a path is a `Str + Null` union — but not *which records
//! made it so*. [`Profiling`] is a [`Fuser`] strategy whose accumulator
//! carries, next to the fused schema, one [`PathProfile`] per record
//! path: presence counts, a type-kind histogram, string/array/record
//! length histograms (the obs crate's log₂ buckets), numeric min/max,
//! and **provenance** lines:
//!
//! * the line that first saw the path (per kind — so each union branch
//!   has its own introducing line);
//! * the line whose *absence* of a key demoted it to optional.
//!
//! Everything in the accumulator is a commutative monoid — counts add,
//! lines combine by minimum ("smallest line wins"), histograms add
//! bucket-wise — so profiles merge associatively and commutatively and
//! ride the same parallel reduce as fusion itself (Theorems 5.4/5.5).
//! The result is independent of partitioning and thread count, and the
//! serialized report is byte-identical across runs.
//!
//! ## The absence monoid
//!
//! "Missing at line N" is the subtle part: a partition that has never
//! seen path `$.a.b` cannot know the line is missing anything. Two
//! rules cover sequential absorption into an accumulator:
//!
//! 1. a record at line `L` has object occurrences at parent `P` and a
//!    *known* child key `k` is absent from at least one of them → `k`
//!    was missing at `L`;
//! 2. a record at line `L` introduces a *new* key `k` under `P`, and
//!    the accumulator already has record occurrences at `P` → every one
//!    of those earlier objects lacked `k`, so `k` was missing at `P`'s
//!    first record line.
//!
//! and one rule covers cross-partition merges: if a child path exists
//! in only one side, the other side's record occurrences at the parent
//! all lacked it, so its first record line is an absence candidate. All
//! candidates combine by minimum, which is what makes the merge a true
//! monoid (verified by the `profile_laws` property tests).
//!
//! Absence is only counted against *record* occurrences at the parent:
//! a `Num` at `$.a` does not demote `$.a.b` — matching fusion, where
//! optionality lives inside the record branch of a union.

use crate::fuse::FuseConfig;
use crate::fuser::Fuser;
use crate::incremental::Incremental;
use std::collections::{BTreeMap, BTreeSet};
use typefuse_json::events::{Event, EventParser};
use typefuse_json::{ErrorKind, Parser, ParserOptions, Value};
use typefuse_obs::{JsonWriter, LogHistogram};
use typefuse_types::{ArrayType, Field, RecordType, Type, TypeKind};

const KINDS: usize = TypeKind::ALL.len();
const KIND_RECORD: usize = TypeKind::Record as usize;
/// Sentinel for "kind not seen yet" in the first-line table.
const NO_LINE: u64 = u64::MAX;

/// The mergeable per-path statistics and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PathProfile {
    /// Records containing the path at least once.
    pub count: u64,
    /// Value occurrences by kind (a path inside an array can occur many
    /// times per record), indexed by [`TypeKind`] code.
    kind_counts: [u64; KINDS],
    /// Smallest line that saw each kind ([`NO_LINE`] = never) — the
    /// union-branch provenance.
    kind_first_line: [u64; KINDS],
    /// Smallest line at which a record occurrence of the parent lacked
    /// this key; `None` means the path was never absent (mandatory).
    pub first_absent_line: Option<u64>,
    /// String value byte lengths.
    pub str_len: LogHistogram,
    /// Array value element counts.
    pub arr_len: LogHistogram,
    /// Record value field counts.
    pub rec_width: LogHistogram,
    /// Smallest numeric value seen.
    pub num_min: Option<f64>,
    /// Largest numeric value seen.
    pub num_max: Option<f64>,
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile {
            count: 0,
            kind_counts: [0; KINDS],
            kind_first_line: [NO_LINE; KINDS],
            first_absent_line: None,
            str_len: LogHistogram::new(),
            arr_len: LogHistogram::new(),
            rec_width: LogHistogram::new(),
            num_min: None,
            num_max: None,
        }
    }
}

impl PathProfile {
    /// Occurrences of the given kind at this path.
    pub fn kind_count(&self, kind: TypeKind) -> u64 {
        self.kind_counts[kind as usize]
    }

    /// The line that introduced the given kind at this path.
    pub fn first_line_of(&self, kind: TypeKind) -> Option<u64> {
        let line = self.kind_first_line[kind as usize];
        (line != NO_LINE).then_some(line)
    }

    /// The smallest line that saw this path at all.
    pub fn first_line(&self) -> Option<u64> {
        let line = *self.kind_first_line.iter().min().expect("non-empty");
        (line != NO_LINE).then_some(line)
    }

    /// The first line with a record (object) occurrence at this path —
    /// the reference point for child-absence provenance.
    pub fn record_first_line(&self) -> Option<u64> {
        self.first_line_of(TypeKind::Record)
    }

    /// Whether some parent occurrence lacked this key (the fused schema
    /// marks such fields optional).
    pub fn is_optional(&self) -> bool {
        self.first_absent_line.is_some()
    }

    /// The union branches present at this path: each seen kind with its
    /// occurrence count and introducing line, in paper kind order.
    pub fn branches(&self) -> Vec<(TypeKind, u64, u64)> {
        TypeKind::ALL
            .iter()
            .filter(|&&k| self.kind_counts[k as usize] > 0)
            .map(|&k| {
                (
                    k,
                    self.kind_counts[k as usize],
                    self.kind_first_line[k as usize],
                )
            })
            .collect()
    }

    fn note_absent(&mut self, line: u64) {
        self.first_absent_line = Some(self.first_absent_line.map_or(line, |l| l.min(line)));
    }

    fn merge(&mut self, other: &PathProfile) {
        self.count += other.count;
        for k in 0..KINDS {
            self.kind_counts[k] += other.kind_counts[k];
            self.kind_first_line[k] = self.kind_first_line[k].min(other.kind_first_line[k]);
        }
        if let Some(line) = other.first_absent_line {
            self.note_absent(line);
        }
        self.str_len.merge_from(&other.str_len);
        self.arr_len.merge_from(&other.arr_len);
        self.rec_width.merge_from(&other.rec_width);
        self.num_min = merge_opt(self.num_min, other.num_min, f64::min);
        self.num_max = merge_opt(self.num_max, other.num_max, f64::max);
    }

    fn write_json(&self, w: &mut JsonWriter, total: u64) {
        w.begin_object();
        w.key("count");
        w.number(self.count);
        w.key("ratio");
        w.float(if total == 0 {
            0.0
        } else {
            self.count as f64 / total as f64
        });
        if let Some(line) = self.first_line() {
            w.key("first_line");
            w.number(line);
        }
        w.key("optional");
        w.bool_value(self.is_optional());
        if let Some(line) = self.first_absent_line {
            w.key("first_absent_line");
            w.number(line);
        }
        w.key("kinds");
        w.begin_object();
        for (kind, count, line) in self.branches() {
            w.key(&kind.to_string());
            w.begin_object();
            w.key("count");
            w.number(count);
            w.key("first_line");
            w.number(line);
            w.end_object();
        }
        w.end_object();
        for (name, hist) in [
            ("str_len", &self.str_len),
            ("arr_len", &self.arr_len),
            ("rec_width", &self.rec_width),
        ] {
            if !hist.is_empty() {
                w.key(name);
                hist.report().write_json(w);
            }
        }
        if let (Some(min), Some(max)) = (self.num_min, self.num_max) {
            w.key("num_min");
            w.float(min);
            w.key("num_max");
            w.float(max);
        }
        w.end_object();
    }
}

fn merge_opt(a: Option<f64>, b: Option<f64>, pick: fn(f64, f64) -> f64) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Per-record observation of one path, before it is folded into the
/// accumulator. Built identically by the value walk and the event fold
/// (property-tested), which is what makes the two Map routes produce
/// byte-identical profiles.
#[derive(Debug, Default)]
struct RecordFacts {
    kinds: [u64; KINDS],
    str_lens: Vec<u64>,
    arr_lens: Vec<u64>,
    rec_widths: Vec<u64>,
    num_min: Option<f64>,
    num_max: Option<f64>,
    /// For record occurrences: key → occurrences containing it.
    present: BTreeMap<String, u64>,
}

impl RecordFacts {
    fn note_num(&mut self, value: f64) {
        self.num_min = merge_opt(self.num_min, Some(value), f64::min);
        self.num_max = merge_opt(self.num_max, Some(value), f64::max);
    }
}

type Facts = BTreeMap<String, RecordFacts>;

/// The [`Profiling`] accumulator: a fused schema plus per-path profiles
/// and the provenance index. Merge is associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileAcc {
    schema: Incremental,
    paths: BTreeMap<String, PathProfile>,
    /// Record paths → child key names ever seen present under them
    /// (rule 1 of the absence monoid needs the *known* children).
    children: BTreeMap<String, BTreeSet<String>>,
    /// Earliest malformed line, kept mergeable so a profiled run over
    /// parallel partitions reports the same first error as a sequential
    /// one.
    first_error: Option<(u64, typefuse_json::Error)>,
}

impl Default for ProfileAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileAcc {
    /// An empty accumulator with the default fusion configuration.
    pub fn new() -> Self {
        Self::with_config(FuseConfig::default())
    }

    /// An empty accumulator with an explicit fusion configuration.
    pub fn with_config(config: FuseConfig) -> Self {
        ProfileAcc {
            schema: Incremental::with_config(config),
            paths: BTreeMap::new(),
            children: BTreeMap::new(),
            first_error: None,
        }
    }

    /// Records absorbed (across merges).
    pub fn records(&self) -> u64 {
        self.schema.count()
    }

    /// The running fused schema.
    pub fn schema(&self) -> &Type {
        self.schema.schema()
    }

    /// The earliest malformed input line, if any was absorbed.
    pub fn first_error(&self) -> Option<(u64, &typefuse_json::Error)> {
        self.first_error.as_ref().map(|(line, e)| (*line, e))
    }

    /// Absorb one already-materialised value observed at `line`
    /// (1-based; for in-memory sources the record ordinal).
    pub fn absorb_value_at(&mut self, line: u64, value: &Value) {
        self.absorb_value_typed(line, value);
    }

    /// [`absorb_value_at`](Self::absorb_value_at), handing back the
    /// record's inferred type so a caller that also feeds a schema
    /// accumulator does not infer it twice.
    pub fn absorb_value_typed(&mut self, line: u64, value: &Value) -> Type {
        let mut facts = Facts::new();
        let mut path = String::from("$");
        observe_value(value, &mut path, &mut facts);
        let ty = crate::infer::infer_type(value);
        self.schema.absorb_type_ref(&ty);
        self.apply_facts(line, facts);
        ty
    }

    /// Absorb one NDJSON line through the event fold — no `Value` tree
    /// is materialised. Parse failures are recorded in the accumulator
    /// (mergeable, earliest line wins) rather than returned, so the
    /// partition fold keeps its infallible `absorb` shape.
    pub fn absorb_line(&mut self, line: u64, text: &str) {
        if let Err(e) = self.absorb_line_typed(line, text.as_bytes(), &ParserOptions::default()) {
            self.note_error(line, e);
        }
    }

    /// The event fold of [`absorb_line`](Self::absorb_line) under the
    /// caller's parser options: one tokenisation yields both the
    /// observation and the record's type, which is handed back. A parse
    /// failure is returned and leaves the accumulator untouched.
    pub fn absorb_line_typed(
        &mut self,
        line: u64,
        input: &[u8],
        options: &ParserOptions,
    ) -> typefuse_json::Result<Type> {
        if options.allow_duplicate_keys {
            // The event observer assumes strict keys; lenient input goes
            // through the value tree, where last-wins is settled.
            let value = Parser::with_options(input, options.clone()).parse_complete()?;
            return Ok(self.absorb_value_typed(line, &value));
        }
        let mut facts = Facts::new();
        let mut parser = EventParser::with_options(input, options.clone());
        let ty = observe_events_root(&mut parser, &mut facts)?;
        parser.finish()?;
        self.schema.absorb_type_ref(&ty);
        self.apply_facts(line, facts);
        Ok(ty)
    }

    /// Absorb one NDJSON line by materialising the `Value` tree first —
    /// the differential-testing twin of [`ProfileAcc::absorb_line`].
    pub fn absorb_line_as_value(&mut self, line: u64, text: &str) {
        match typefuse_json::parse_value(text) {
            Ok(value) => self.absorb_value_at(line, &value),
            Err(e) => self.note_error(line, e),
        }
    }

    /// Absorb an already inferred type: counts the record and fuses the
    /// schema but contributes no path statistics (they need the value).
    pub fn absorb_type_only(&mut self, ty: &Type) {
        self.schema.absorb_type(ty.clone());
    }

    fn note_error(&mut self, line: u64, error: typefuse_json::Error) {
        let replace = match &self.first_error {
            None => true,
            Some((l, e)) => (line, format!("{:?}", error.kind())) < (*l, format!("{:?}", e.kind())),
        };
        if replace {
            self.first_error = Some((line, error));
        }
    }

    /// Fold one record's observation in. Absence (phase A) is computed
    /// against the accumulator state *before* this record's presence
    /// lands (phase B), because rule 2 needs the parent's prior first
    /// record line.
    fn apply_facts(&mut self, line: u64, facts: Facts) {
        // Phase A: absence candidates.
        let mut absences: Vec<(String, u64)> = Vec::new();
        for (parent, f) in &facts {
            let obj_occ = f.kinds[KIND_RECORD];
            if obj_occ == 0 {
                continue;
            }
            let known = self.children.get(parent);
            let prior_record_first = self
                .paths
                .get(parent)
                .and_then(PathProfile::record_first_line);
            let mut names: BTreeSet<&str> = f.present.keys().map(String::as_str).collect();
            if let Some(known) = known {
                names.extend(known.iter().map(String::as_str));
            }
            for name in names {
                let present = f.present.get(name).copied().unwrap_or(0);
                let is_new = known.is_none_or(|s| !s.contains(name));
                // Rule 1: absent from some occurrence in this record.
                let mut candidate = (present < obj_occ).then_some(line);
                // Rule 2: new key, but the parent had earlier objects —
                // all of them lacked it.
                if is_new {
                    if let Some(earlier) = prior_record_first {
                        candidate = Some(candidate.map_or(earlier, |c| c.min(earlier)));
                    }
                }
                if let Some(c) = candidate {
                    absences.push((child_path(parent, name), c));
                }
            }
        }
        // Phase B: presence.
        for (path, f) in facts {
            if f.kinds[KIND_RECORD] > 0 {
                let kids = self.children.entry(path.clone()).or_default();
                for name in f.present.keys() {
                    kids.insert(name.clone());
                }
            }
            let entry = self.paths.entry(path).or_default();
            entry.count += 1;
            for k in 0..KINDS {
                entry.kind_counts[k] += f.kinds[k];
                if f.kinds[k] > 0 {
                    entry.kind_first_line[k] = entry.kind_first_line[k].min(line);
                }
            }
            for &len in &f.str_lens {
                entry.str_len.record(len);
            }
            for &len in &f.arr_lens {
                entry.arr_len.record(len);
            }
            for &width in &f.rec_widths {
                entry.rec_width.record(width);
            }
            entry.num_min = merge_opt(entry.num_min, f.num_min, f64::min);
            entry.num_max = merge_opt(entry.num_max, f.num_max, f64::max);
        }
        // Phase C: the candidates refer to paths that now exist.
        for (path, line) in absences {
            if let Some(entry) = self.paths.get_mut(&path) {
                entry.note_absent(line);
            }
        }
    }

    /// Merge another accumulator. The cross-partition absence rule runs
    /// against both *pre-merge* states: a child path present in only
    /// one side was absent from every record occurrence of its parent
    /// on the other side, whose first record line becomes a candidate.
    pub fn merge(&mut self, other: &ProfileAcc) {
        let mut fixes: Vec<(String, u64)> = Vec::new();
        for (parent, names) in &other.children {
            if let Some(line) = self
                .paths
                .get(parent)
                .and_then(PathProfile::record_first_line)
            {
                for name in names {
                    let child = child_path(parent, name);
                    if !self.paths.contains_key(&child) {
                        fixes.push((child, line));
                    }
                }
            }
        }
        for (parent, names) in &self.children {
            if let Some(line) = other
                .paths
                .get(parent)
                .and_then(PathProfile::record_first_line)
            {
                for name in names {
                    let child = child_path(parent, name);
                    if !other.paths.contains_key(&child) {
                        fixes.push((child, line));
                    }
                }
            }
        }
        for (path, profile) in &other.paths {
            self.paths.entry(path.clone()).or_default().merge(profile);
        }
        for (path, names) in &other.children {
            self.children
                .entry(path.clone())
                .or_default()
                .extend(names.iter().cloned());
        }
        self.schema.merge(&other.schema);
        if let Some((line, e)) = &other.first_error {
            self.note_error(*line, e.clone());
        }
        for (path, line) in fixes {
            if let Some(entry) = self.paths.get_mut(&path) {
                entry.note_absent(line);
            }
        }
    }

    /// Whether nothing (not even an error) has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.records() == 0 && self.paths.is_empty() && self.first_error.is_none()
    }

    /// Serialize the full accumulator state for a crash-recovery
    /// checkpoint. Every component round-trips exactly:
    /// the schema through the lossless [`typefuse_types::wire`] codec,
    /// integers as decimal strings, histograms via
    /// [`LogHistogram::to_compact`], numeric min/max as `f64::to_bits`,
    /// and the first error via [`typefuse_json::codec`] — so
    /// [`from_checkpoint_value`](ProfileAcc::from_checkpoint_value)
    /// restores a `==`-identical accumulator and the resumed fold is
    /// byte-identical to an uninterrupted one.
    pub fn checkpoint_value(&self) -> Value {
        use typefuse_json::codec::{error_to_value, u64_to_value};
        use typefuse_json::Map;
        let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let mut obj = Map::new();
        obj.insert(
            "schema",
            Value::from(typefuse_types::wire::to_wire(self.schema.schema())),
        );
        obj.insert("records", u64_to_value(self.schema.count()));
        if let Some((line, error)) = &self.first_error {
            let mut fe = Map::new();
            fe.insert("line", u64_to_value(*line));
            fe.insert("error", error_to_value(error));
            obj.insert("first_error", Value::Object(fe));
        }
        let mut children = Map::new();
        for (parent, names) in &self.children {
            let names: Vec<Value> = names.iter().map(|n| Value::from(n.clone())).collect();
            children.insert(parent.clone(), Value::Array(names));
        }
        obj.insert("children", Value::Object(children));
        let mut paths = Map::new();
        for (path, p) in &self.paths {
            let mut entry = Map::new();
            entry.insert("count", u64_to_value(p.count));
            entry.insert("kinds", Value::from(join(&p.kind_counts)));
            entry.insert("first", Value::from(join(&p.kind_first_line)));
            if let Some(line) = p.first_absent_line {
                entry.insert("absent", u64_to_value(line));
            }
            entry.insert("str_len", Value::from(p.str_len.to_compact()));
            entry.insert("arr_len", Value::from(p.arr_len.to_compact()));
            entry.insert("rec_width", Value::from(p.rec_width.to_compact()));
            if let Some(min) = p.num_min {
                entry.insert("num_min", u64_to_value(min.to_bits()));
            }
            if let Some(max) = p.num_max {
                entry.insert("num_max", u64_to_value(max.to_bits()));
            }
            paths.insert(path.clone(), Value::Object(entry));
        }
        obj.insert("paths", Value::Object(paths));
        Value::Object(obj)
    }

    /// Restore an accumulator serialized by
    /// [`checkpoint_value`](ProfileAcc::checkpoint_value), resuming
    /// fusion under `config` (the config is not checkpointed — the
    /// service re-derives it from its job configuration, and it must
    /// match the original run for the incremental ≡ batch law to hold).
    pub fn from_checkpoint_value(v: &Value, config: FuseConfig) -> Result<Self, String> {
        use typefuse_json::codec::{error_from_value, opt_u64_from_value, u64_from_value};
        let split = |text: &str| -> Result<[u64; KINDS], String> {
            let mut out = [0u64; KINDS];
            let parts: Vec<&str> = text.split(',').collect();
            if parts.len() != KINDS {
                return Err(format!("expected {KINDS} kind slots, got {}", parts.len()));
            }
            for (slot, part) in out.iter_mut().zip(parts) {
                *slot = part.parse().map_err(|e| format!("bad kind slot: {e}"))?;
            }
            Ok(out)
        };
        let str_field = |v: &Value, name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Value::as_str)
                .map(String::from)
                .ok_or_else(|| format!("profile path missing `{name}`"))
        };
        let schema = typefuse_types::wire::from_wire(
            v.get("schema")
                .and_then(Value::as_str)
                .ok_or_else(|| "profile missing `schema`".to_string())?,
        )?;
        let records = v
            .get("records")
            .ok_or_else(|| "profile missing `records`".to_string())
            .and_then(u64_from_value)?;
        let first_error = match v.get("first_error") {
            None | Some(Value::Null) => None,
            Some(fe) => {
                let line = fe
                    .get("line")
                    .ok_or_else(|| "first_error missing `line`".to_string())
                    .and_then(u64_from_value)?;
                let error = fe
                    .get("error")
                    .ok_or_else(|| "first_error missing `error`".to_string())
                    .and_then(error_from_value)?;
                Some((line, error))
            }
        };
        let mut children = BTreeMap::new();
        if let Some(map) = v.get("children").and_then(Value::as_object) {
            for (parent, names) in map.iter() {
                let names = names
                    .as_array()
                    .ok_or_else(|| "children value is not an array".to_string())?;
                let mut set = BTreeSet::new();
                for name in names {
                    set.insert(
                        name.as_str()
                            .ok_or_else(|| "child name is not a string".to_string())?
                            .to_string(),
                    );
                }
                children.insert(parent.to_string(), set);
            }
        }
        let mut paths = BTreeMap::new();
        let path_map = v
            .get("paths")
            .and_then(Value::as_object)
            .ok_or_else(|| "profile missing `paths`".to_string())?;
        for (path, entry) in path_map.iter() {
            let profile = PathProfile {
                count: entry
                    .get("count")
                    .ok_or_else(|| "profile path missing `count`".to_string())
                    .and_then(u64_from_value)?,
                kind_counts: split(&str_field(entry, "kinds")?)?,
                kind_first_line: split(&str_field(entry, "first")?)?,
                first_absent_line: opt_u64_from_value(entry.get("absent"))?,
                str_len: LogHistogram::from_compact(&str_field(entry, "str_len")?)?,
                arr_len: LogHistogram::from_compact(&str_field(entry, "arr_len")?)?,
                rec_width: LogHistogram::from_compact(&str_field(entry, "rec_width")?)?,
                num_min: opt_u64_from_value(entry.get("num_min"))?.map(f64::from_bits),
                num_max: opt_u64_from_value(entry.get("num_max"))?.map(f64::from_bits),
            };
            paths.insert(path.to_string(), profile);
        }
        Ok(ProfileAcc {
            schema: Incremental::resume(schema, records, config),
            paths,
            children,
            first_error,
        })
    }

    /// Finish into the immutable dataset profile.
    pub fn finish(self) -> ProfileReport {
        ProfileReport {
            records: self.schema.count(),
            schema: self.schema.into_schema(),
            paths: self.paths,
        }
    }
}

fn child_path(parent: &str, name: &str) -> String {
    format!("{parent}.{name}")
}

/// The profiling Reduce strategy: plug into the engine's trait-driven
/// reduce to get per-path profiles with the same topology code as plain
/// fusion.
///
/// Through the bare [`Fuser`] interface, `absorb_value` numbers records
/// by a per-accumulator ordinal (`records() + 1`), so provenance
/// "lines" are partition-local. Line-exact provenance comes from the
/// pipeline's profiled entry point, which feeds
/// [`ProfileAcc::absorb_line`] / [`ProfileAcc::absorb_value_at`] with
/// real input line numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profiling {
    /// Fusion configuration for the embedded schema.
    pub config: FuseConfig,
}

impl Fuser for Profiling {
    type Acc = ProfileAcc;

    fn empty(&self) -> ProfileAcc {
        ProfileAcc::with_config(self.config)
    }

    fn absorb_type(&self, acc: &mut ProfileAcc, ty: &Type) {
        acc.absorb_type_only(ty);
    }

    fn absorb_value(&self, acc: &mut ProfileAcc, value: &Value) {
        let ordinal = acc.records() + 1;
        acc.absorb_value_at(ordinal, value);
    }

    fn merge(&self, acc: &mut ProfileAcc, other: &ProfileAcc) {
        acc.merge(other);
    }

    fn is_empty_acc(&self, acc: &ProfileAcc) -> bool {
        acc.is_empty()
    }

    fn finish_schema(&self, acc: ProfileAcc) -> Type {
        acc.finish().schema
    }
}

/// A finished dataset profile: the fused schema plus one
/// [`PathProfile`] per record path, deterministically ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Total records profiled.
    pub records: u64,
    /// The fused schema.
    pub schema: Type,
    /// Per-path profiles, keyed by rendered path (`$`, `$.a`,
    /// `$.kw[].rank`). The root path `$` profiles the records
    /// themselves.
    pub paths: BTreeMap<String, PathProfile>,
}

impl ProfileReport {
    /// Look up one path's profile.
    pub fn get(&self, path: &str) -> Option<&PathProfile> {
        self.paths.get(path)
    }

    /// Profiles as rows sorted by descending presence count, then path
    /// — the "top-k presence" order.
    pub fn rows(&self) -> Vec<(&str, &PathProfile)> {
        let mut rows: Vec<(&str, &PathProfile)> =
            self.paths.iter().map(|(p, v)| (p.as_str(), v)).collect();
        rows.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(b.0)));
        rows
    }

    /// Serialize the profile report as one JSON object.
    ///
    /// Deterministic byte-for-byte: paths are `BTreeMap`-ordered, every
    /// aggregate is a min/max/sum (partition-order independent), and
    /// numbers go through the single shared
    /// [`JsonWriter`] formatter. CI diffs
    /// this output across thread counts and Map routes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("records");
        w.number(self.records);
        w.key("schema");
        w.string(&self.schema.to_string());
        w.key("paths");
        w.begin_object();
        for (path, profile) in &self.paths {
            w.key(path);
            profile.write_json(&mut w, self.records);
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

// ---------------------------------------------------------------------
// Observation builders: one per Map route, equal by property test.
// ---------------------------------------------------------------------

/// Tree route: walk a materialised value, collecting facts per path.
fn observe_value(v: &Value, path: &mut String, facts: &mut Facts) {
    match v {
        Value::Null => facts.entry(path.clone()).or_default().kinds[TypeKind::Null as usize] += 1,
        Value::Bool(_) => {
            facts.entry(path.clone()).or_default().kinds[TypeKind::Bool as usize] += 1
        }
        Value::Number(n) => {
            let f = facts.entry(path.clone()).or_default();
            f.kinds[TypeKind::Num as usize] += 1;
            f.note_num(n.as_f64());
        }
        Value::String(s) => {
            let f = facts.entry(path.clone()).or_default();
            f.kinds[TypeKind::Str as usize] += 1;
            f.str_lens.push(s.len() as u64);
        }
        Value::Object(map) => {
            {
                let f = facts.entry(path.clone()).or_default();
                f.kinds[KIND_RECORD] += 1;
                f.rec_widths.push(map.len() as u64);
                for (key, _) in map.iter() {
                    *f.present.entry(key.to_string()).or_insert(0) += 1;
                }
            }
            for (key, child) in map.iter() {
                let len = path.len();
                path.push('.');
                path.push_str(key);
                observe_value(child, path, facts);
                path.truncate(len);
            }
        }
        Value::Array(elems) => {
            {
                let f = facts.entry(path.clone()).or_default();
                f.kinds[TypeKind::Array as usize] += 1;
                f.arr_lens.push(elems.len() as u64);
            }
            let len = path.len();
            path.push_str("[]");
            for child in elems {
                observe_value(child, path, facts);
            }
            path.truncate(len);
        }
    }
}

/// Event route: fold the token stream into the record's type (exactly
/// like [`crate::streaming`]) while collecting the same facts as
/// [`observe_value`] — still no `Value` tree.
///
/// Assumes strict parser options (the pipeline default): duplicate keys
/// error out before they could desynchronise the two observation
/// builders.
fn observe_events_root(
    events: &mut EventParser<'_>,
    facts: &mut Facts,
) -> typefuse_json::Result<Type> {
    let first = next_or_eof(events)?;
    let mut path = String::from("$");
    observe_event_value(events, first, &mut path, facts)
}

fn next_or_eof<'a>(events: &mut EventParser<'a>) -> typefuse_json::Result<Event<'a>> {
    match events.next_event()? {
        Some(e) => Ok(e),
        None => Err(typefuse_json::Error::at(
            ErrorKind::UnexpectedEof,
            events.source_position(),
        )),
    }
}

fn observe_event_value<'a>(
    events: &mut EventParser<'a>,
    event: Event<'a>,
    path: &mut String,
    facts: &mut Facts,
) -> typefuse_json::Result<Type> {
    Ok(match event {
        Event::Null => {
            facts.entry(path.clone()).or_default().kinds[TypeKind::Null as usize] += 1;
            Type::Null
        }
        Event::Bool(_) => {
            facts.entry(path.clone()).or_default().kinds[TypeKind::Bool as usize] += 1;
            Type::Bool
        }
        Event::Number(n) => {
            let f = facts.entry(path.clone()).or_default();
            f.kinds[TypeKind::Num as usize] += 1;
            f.note_num(n.as_f64());
            Type::Num
        }
        Event::String(s) => {
            let f = facts.entry(path.clone()).or_default();
            f.kinds[TypeKind::Str as usize] += 1;
            f.str_lens.push(s.len() as u64);
            Type::Str
        }
        Event::ObjectStart => {
            let mut fields: Vec<Field> = Vec::with_capacity(8);
            loop {
                match next_or_eof(events)? {
                    Event::ObjectEnd => break,
                    Event::Key(name) => {
                        let first = next_or_eof(events)?;
                        let len = path.len();
                        path.push('.');
                        path.push_str(&name);
                        let ty = observe_event_value(events, first, path, facts)?;
                        path.truncate(len);
                        fields.push(Field::required(name.into_owned(), ty));
                    }
                    _ => unreachable!("parser yields only Key or ObjectEnd inside an object"),
                }
            }
            {
                let f = facts.entry(path.clone()).or_default();
                f.kinds[KIND_RECORD] += 1;
                f.rec_widths.push(fields.len() as u64);
                for field in &fields {
                    *f.present.entry(field.name.clone()).or_insert(0) += 1;
                }
            }
            Type::Record(RecordType::new(fields).expect("strict parser enforces key uniqueness"))
        }
        Event::ArrayStart => {
            let mut elems: Vec<Type> = Vec::new();
            let len = path.len();
            path.push_str("[]");
            loop {
                match next_or_eof(events)? {
                    Event::ArrayEnd => break,
                    e => elems.push(observe_event_value(events, e, path, facts)?),
                }
            }
            path.truncate(len);
            {
                let f = facts.entry(path.clone()).or_default();
                f.kinds[TypeKind::Array as usize] += 1;
                f.arr_lens.push(elems.len() as u64);
            }
            Type::Array(ArrayType::new(elems))
        }
        Event::Key(_) | Event::ObjectEnd | Event::ArrayEnd => {
            unreachable!("parser yields structurally balanced events")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    fn acc_of(lines: &[&str]) -> ProfileAcc {
        let mut acc = ProfileAcc::new();
        for (i, line) in lines.iter().enumerate() {
            acc.absorb_line(i as u64 + 1, line);
        }
        acc
    }

    #[test]
    fn counts_presence_and_kinds() {
        let acc = acc_of(&[r#"{"a": 1, "b": "xy"}"#, r#"{"a": 2}"#, r#"{"a": null}"#]);
        let profile = acc.finish();
        assert_eq!(profile.records, 3);
        let a = profile.get("$.a").unwrap();
        assert_eq!(a.count, 3);
        assert_eq!(a.kind_count(TypeKind::Num), 2);
        assert_eq!(a.kind_count(TypeKind::Null), 1);
        assert_eq!(a.first_line_of(TypeKind::Null), Some(3));
        assert_eq!(a.first_line(), Some(1));
        assert!(!a.is_optional(), "a is present in every record");
        let b = profile.get("$.b").unwrap();
        assert_eq!(b.count, 1);
        assert_eq!(b.str_len.count(), 1);
        let root = profile.get("$").unwrap();
        assert_eq!(root.count, 3);
        assert_eq!(root.rec_width.count(), 3);
    }

    #[test]
    fn absence_rule_1_known_key_missing_later() {
        // b is known from line 1; line 2 lacks it.
        let acc = acc_of(&[r#"{"a": 1, "b": 2}"#, r#"{"a": 3}"#]);
        let profile = acc.finish();
        assert_eq!(profile.get("$.b").unwrap().first_absent_line, Some(2));
        assert_eq!(profile.get("$.a").unwrap().first_absent_line, None);
    }

    #[test]
    fn absence_rule_2_new_key_demoted_by_earlier_records() {
        // b first appears at line 3, so lines 1 and 2 lacked it — the
        // earliest of them is the demoting line.
        let acc = acc_of(&[r#"{"a": 1}"#, r#"{"a": 2}"#, r#"{"a": 3, "b": true}"#]);
        assert_eq!(acc.finish().get("$.b").unwrap().first_absent_line, Some(1));
    }

    #[test]
    fn absence_within_one_record_across_array_elements() {
        let acc = acc_of(&[r#"{"kw": [{"rank": 1}, {}]}"#]);
        let profile = acc.finish();
        assert_eq!(
            profile.get("$.kw[].rank").unwrap().first_absent_line,
            Some(1)
        );
        assert_eq!(profile.get("$.kw[]").unwrap().count, 1);
        assert_eq!(
            profile.get("$.kw[]").unwrap().kind_count(TypeKind::Record),
            2
        );
    }

    #[test]
    fn non_record_parent_occurrences_do_not_demote() {
        // $.a is Num at line 1; that does not make $.a.x optional.
        let acc = acc_of(&[r#"{"a": 5}"#, r#"{"a": {"x": 1}}"#]);
        let profile = acc.finish();
        assert_eq!(profile.get("$.a.x").unwrap().first_absent_line, None);
        // But an empty object at line 3 does.
        let acc = acc_of(&[r#"{"a": 5}"#, r#"{"a": {"x": 1}}"#, r#"{"a": {}}"#]);
        assert_eq!(
            acc.finish().get("$.a.x").unwrap().first_absent_line,
            Some(3)
        );
    }

    #[test]
    fn merge_fixes_single_sided_paths() {
        // Partition A saw only {a}, partition B only {a, b}: after the
        // merge, b's demoting line is A's first record line.
        let mut a = ProfileAcc::new();
        a.absorb_line(1, r#"{"a": 1}"#);
        let mut b = ProfileAcc::new();
        b.absorb_line(2, r#"{"a": 2, "b": "x"}"#);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.clone().finish(), ba.clone().finish(), "commutative");
        assert_eq!(ab.finish().get("$.b").unwrap().first_absent_line, Some(1));
    }

    #[test]
    fn merge_matches_sequential_absorption() {
        let lines = [
            r#"{"a": 1, "b": "x"}"#,
            r#"{"a": null}"#,
            r#"{"a": 1, "c": [true, {"d": 2}]}"#,
            r#"{"a": "s", "c": []}"#,
        ];
        let sequential = acc_of(&lines).finish();
        for split in 1..lines.len() {
            let mut left = ProfileAcc::new();
            for (i, line) in lines[..split].iter().enumerate() {
                left.absorb_line(i as u64 + 1, line);
            }
            let mut right = ProfileAcc::new();
            for (i, line) in lines[split..].iter().enumerate() {
                right.absorb_line((split + i) as u64 + 1, line);
            }
            left.merge(&right);
            assert_eq!(left.finish(), sequential, "split at {split}");
        }
    }

    #[test]
    fn event_and_value_routes_agree() {
        let lines = [
            r#"{"a": 1, "b": ["x", {"c": null}], "d": {"e": [[true]]}}"#,
            r#"[1, "a", {"k": []}]"#,
            r#""scalar""#,
            r#"{"a": 2.5}"#,
        ];
        let mut via_events = ProfileAcc::new();
        let mut via_values = ProfileAcc::new();
        for (i, line) in lines.iter().enumerate() {
            via_events.absorb_line(i as u64 + 1, line);
            via_values.absorb_line_as_value(i as u64 + 1, line);
        }
        let a = via_events.finish();
        let b = via_values.finish();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn numeric_and_length_statistics() {
        let acc = acc_of(&[r#"{"n": 3, "s": "abcd"}"#, r#"{"n": -1.5, "s": ""}"#]);
        let profile = acc.finish();
        let n = profile.get("$.n").unwrap();
        assert_eq!(n.num_min, Some(-1.5));
        assert_eq!(n.num_max, Some(3.0));
        let s = profile.get("$.s").unwrap();
        let lens = s.str_len.report();
        assert_eq!((lens.count, lens.min, lens.max), (2, 0, 4));
    }

    #[test]
    fn parse_errors_are_mergeable_and_earliest_wins() {
        let mut acc = ProfileAcc::new();
        acc.absorb_line(5, "{broken");
        acc.absorb_line(2, "also broken");
        assert_eq!(acc.first_error().unwrap().0, 2);

        let mut other = ProfileAcc::new();
        other.absorb_line(1, "[1,]");
        acc.merge(&other);
        assert_eq!(acc.first_error().unwrap().0, 1);
        // Errors keep the accumulator non-empty so the engine's
        // identity filter cannot drop them.
        let mut error_only = ProfileAcc::new();
        error_only.absorb_line(1, "nope");
        assert!(!error_only.is_empty());
    }

    #[test]
    fn profiling_fuser_schema_matches_plain_fusion() {
        use crate::{fuse_all, infer_type};
        let values = [
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
        ];
        let profiling = Profiling::default();
        let mut acc = profiling.empty();
        for v in &values {
            profiling.absorb_value(&mut acc, v);
        }
        let types: Vec<Type> = values.iter().map(infer_type).collect();
        assert_eq!(profiling.finish_schema(acc), fuse_all(&types));
    }

    #[test]
    fn profile_json_shape() {
        let profile = acc_of(&[r#"{"a": 1}"#, r#"{"a": "xy", "b": null}"#]).finish();
        let json = profile.to_json();
        for needle in [
            r#""records":2"#,
            r#""schema":"{a: Num + Str, b: Null?}""#,
            r#""$.a":{"count":2"#,
            r#""first_absent_line":1"#,
            r#""kinds":{"Num":{"count":1,"first_line":1},"Str":{"count":1,"first_line":2}}"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // It parses with the workspace's own parser.
        typefuse_json::parse_value(&json).expect("profile JSON is valid JSON");
    }

    #[test]
    fn checkpoint_round_trips_and_resumes_identically() {
        let lines = [
            r#"{"a": 1, "b": "x"}"#,
            r#"{"a": null}"#,
            "not json at all",
            r#"{"a": 1, "c": [true, {"d": 2.5}]}"#,
            r#"{"a": "s", "c": []}"#,
        ];
        let full = acc_of(&lines);
        for cut in 0..lines.len() {
            let mut before = ProfileAcc::new();
            for (i, line) in lines[..cut].iter().enumerate() {
                before.absorb_line(i as u64 + 1, line);
            }
            let value = before.checkpoint_value();
            // Through a real serialize/parse cycle, as on disk.
            let reparsed = typefuse_json::parse_value(&value.to_string()).unwrap();
            let mut resumed =
                ProfileAcc::from_checkpoint_value(&reparsed, FuseConfig::default()).unwrap();
            assert_eq!(resumed, before, "restore at cut {cut} is exact");
            for (i, line) in lines[cut..].iter().enumerate() {
                resumed.absorb_line((cut + i) as u64 + 1, line);
            }
            assert_eq!(resumed, full, "resume at cut {cut} matches full fold");
            assert_eq!(
                resumed.clone().finish().to_json(),
                full.clone().finish().to_json(),
                "serialized profile at cut {cut}"
            );
        }
        assert!(ProfileAcc::from_checkpoint_value(
            &typefuse_json::parse_value("{}").unwrap(),
            FuseConfig::default()
        )
        .is_err());
    }

    #[test]
    fn rows_order_by_count_then_path() {
        let profile = acc_of(&[r#"{"a": 1, "z": 1}"#, r#"{"a": 2}"#]).finish();
        let rows = profile.rows();
        assert_eq!(rows[0].0, "$");
        assert_eq!(rows[1].0, "$.a");
        assert_eq!(rows[2].0, "$.z");
    }

    #[test]
    fn empty_accumulator_finishes_empty() {
        let profile = ProfileAcc::new().finish();
        assert_eq!(profile.records, 0);
        assert_eq!(profile.schema, Type::Bottom);
        assert!(profile.paths.is_empty());
        assert!(ProfileAcc::new().is_empty());
    }
}
