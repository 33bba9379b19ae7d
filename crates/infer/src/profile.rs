//! Per-path dataset profiling with fusion provenance.
//!
//! The fused schema says *what* a dataset looks like — a field is
//! optional, a path is a `Str + Null` union — but not *which records
//! made it so*. A [`ProfileAcc`] carries one [`PathProfile`] per record
//! path (the schema itself is fused by the fold it rides beside):
//! presence counts, a type-kind histogram, string/array/record length
//! histograms (the obs crate's log₂ buckets), numeric min/max, and
//! **provenance** lines:
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
//! ## The path trie
//!
//! The statistics hang on the schema tree's own nodes (as JSONoid's
//! do), not on a path-string index: an arena of nodes, each with its
//! profile, its known children (`key → node`, looked up by `&str`) and
//! its `[]` element node. An observer walks the trie beside the text
//! (as the [`Typer`]'s [`Observer`]) or the `Value` and logs `(node,
//! fact)` per value; only a record that parses to its end is replayed
//! into the nodes, so a truncated line leaves no trace, and a warm
//! accumulator absorbs a known-shape record without allocating. A
//! node's identity is its *rendered* path — the key `a.b` under `$` and
//! the key `b` under `$.a` share the node `$.a.b`, as they share a line
//! of the report — and the `rendered path → node` map, consulted when a
//! child index misses, orders every output (DESIGN §9).
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
//! monoid (verified by the `profile_laws` property tests). Each rule is
//! a loop over one node's children; "seen in this record" is an epoch
//! stamp on the child edge, bumped per record, never cleared.
//!
//! Absence is only counted against *record* occurrences at the parent:
//! a `Num` at `$.a` does not demote `$.a.b` — matching fusion, where
//! optionality lives inside the record branch of a union.

use crate::streaming;
use crate::typer::{Fact, Observer, Typer};
use std::collections::BTreeMap;
use std::sync::Arc;
use typefuse_json::{Parser, ParserOptions, Value};
use typefuse_obs::{JsonWriter, LogHistogram};
use typefuse_types::{Name, Type, TypeKind};

const KINDS: usize = TypeKind::ALL.len();
const KIND_RECORD: usize = TypeKind::Record as usize;
/// Sentinel for "kind not seen yet" in the first-line table.
const NO_LINE: u64 = u64::MAX;
/// A length histogram, allocated by its first sample (a path uses one
/// or two of the three, a scalar path none) and read as [`NO_SAMPLES`]
/// until then.
type LazyHistogram = Option<Box<LogHistogram>>;
static NO_SAMPLES: LogHistogram = LogHistogram::new();

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
    // `Some` only with at least one sample, so derived `==` is exact.
    str_len: LazyHistogram,
    arr_len: LazyHistogram,
    rec_width: LazyHistogram,
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
            str_len: None,
            arr_len: None,
            rec_width: None,
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

    /// String value byte lengths.
    pub fn str_len(&self) -> &LogHistogram {
        self.str_len.as_deref().unwrap_or(&NO_SAMPLES)
    }

    /// Array value element counts.
    pub fn arr_len(&self) -> &LogHistogram {
        self.arr_len.as_deref().unwrap_or(&NO_SAMPLES)
    }

    /// Record value field counts.
    pub fn rec_width(&self) -> &LogHistogram {
        self.rec_width.as_deref().unwrap_or(&NO_SAMPLES)
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

    /// Count one value of `fact`'s kind seen at `line`.
    fn note(&mut self, line: u64, fact: Fact) {
        let (kind, length) = match fact {
            Fact::Null => (TypeKind::Null, None),
            Fact::Bool => (TypeKind::Bool, None),
            Fact::Num(n) => {
                self.num_min = merge_opt(self.num_min, Some(n), f64::min);
                self.num_max = merge_opt(self.num_max, Some(n), f64::max);
                (TypeKind::Num, None)
            }
            Fact::Str(len) => (TypeKind::Str, Some((&mut self.str_len, len))),
            Fact::Array(len) => (TypeKind::Array, Some((&mut self.arr_len, len))),
            Fact::Record(width) => (TypeKind::Record, Some((&mut self.rec_width, width))),
        };
        if let Some((hist, n)) = length {
            hist.get_or_insert_with(Box::default).record(n);
        }
        self.kind_counts[kind as usize] += 1;
        self.kind_first_line[kind as usize] = self.kind_first_line[kind as usize].min(line);
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
        for (mine, theirs) in [
            (&mut self.str_len, &other.str_len),
            (&mut self.arr_len, &other.arr_len),
            (&mut self.rec_width, &other.rec_width),
        ] {
            if let Some(theirs) = theirs {
                mine.get_or_insert_with(Box::default).merge_from(theirs);
            }
        }
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
            ("str_len", self.str_len()),
            ("arr_len", self.arr_len()),
            ("rec_width", self.rec_width()),
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

/// A known child key of a record path.
#[derive(Debug, Clone)]
struct Kid {
    node: u32,
    /// Object occurrences of the parent holding this key in the record
    /// of epoch `seen_in` (scratch; stale once the epoch moves on).
    seen: u64,
    seen_in: u64,
}

impl Kid {
    fn to(node: u32) -> Kid {
        Kid {
            node,
            seen: 0,
            seen_in: 0,
        }
    }
}

/// One path of the trie.
#[derive(Debug, Clone, Default)]
struct Node {
    /// The rendered path — the node's identity.
    path: String,
    profile: PathProfile,
    /// Key names ever seen present in a record here (rule 1 of the
    /// absence monoid needs the *known* children), with their nodes.
    kids: BTreeMap<Name, Kid>,
    /// The `[]` node, once an array here has been walked.
    elem: Option<u32>,
    /// Per-record replay scratch, valid while `epoch` is the
    /// accumulator's: object occurrences in this record, and the first
    /// record line as it stood before this record.
    epoch: u64,
    occurrences: u64,
    prior_record_line: u64,
}

/// The profiling accumulator: the path trie of per-path profiles and
/// provenance — path statistics only. The schema a report shows is fused
/// by the record fold this rides beside, and a malformed line is that
/// fold's to report: here it leaves no trace. Merge is associative and
/// commutative; `==` compares what a report or checkpoint can show.
#[derive(Debug, Clone, Default)]
pub struct ProfileAcc {
    nodes: Vec<Node>,
    /// Rendered path → node: the authority on identity and order.
    by_path: BTreeMap<String, u32>,
    /// Per-record scratch, empty between records: the stamp of the
    /// record being observed, its observation log, and the child index
    /// entries it added as `(parent, key — None for a `[]` link, child)`:
    /// undone if the record fails to parse, rule 2's new keys if not.
    epoch: u64,
    log: Vec<(u32, Fact)>,
    new_edges: Vec<(u32, Option<Name>, u32)>,
    /// The text walk's scratch.
    typer: Typer,
}

impl PartialEq for ProfileAcc {
    fn eq(&self, other: &Self) -> bool {
        self.by_path.len() == other.by_path.len()
            && self.sorted().zip(other.sorted()).all(|(a, b)| {
                a.path == b.path && a.profile == b.profile && a.kids.keys().eq(b.kids.keys())
            })
    }
}

impl ProfileAcc {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records observed (across merges): the root path's presence count.
    pub fn records(&self) -> u64 {
        let root = self.by_path.get("$");
        root.map_or(0, |&id| self.nodes[id as usize].profile.count)
    }

    /// Observe one NDJSON line straight from its text — no `Value` tree
    /// is materialised. A malformed line leaves no trace.
    pub fn absorb_line(&mut self, line: u64, text: &str) {
        let _ = self.observe_line(line, text.as_bytes(), &ParserOptions::default());
    }

    /// Observe one line's path statistics and hand back its type for the
    /// caller to fuse: the direct [`Typer`] walks the text with the trie
    /// as its observer. A line it declines is forgotten and replayed —
    /// through the event fold first when keys are strict, so a malformed
    /// line reports what the plain route reports, then through the value
    /// tree, where escaped keys and lenient last-wins are settled. A
    /// parse failure is returned and leaves the accumulator untouched.
    pub fn observe_line(
        &mut self,
        line: u64,
        input: &[u8],
        options: &ParserOptions,
    ) -> typefuse_json::Result<Type> {
        let arena_len = self.nodes.len();
        let root = self.begin_record();
        let mut typer = std::mem::take(&mut self.typer);
        let typed = typer.type_line(input, options.max_depth, &mut TextWalk(self), root);
        self.typer = typer;
        if let Some(ty) = typed {
            self.commit_record(line);
            return Ok(ty);
        }
        self.abandon_record(arena_len);
        if !options.allow_duplicate_keys {
            streaming::event_fold(input, options)?;
        }
        let value = Parser::with_options(input, options.clone()).parse_complete()?;
        Ok(self.observe_value(line, &value))
    }

    /// The tree-walk twin of [`observe_line`](Self::observe_line).
    pub fn observe_value(&mut self, line: u64, value: &Value) -> Type {
        let root = self.begin_record();
        self.observe_tree(value, root);
        self.commit_record(line);
        crate::infer::infer_type(value)
    }

    /// Nodes in rendered-path order.
    fn sorted(&self) -> impl Iterator<Item = &Node> {
        self.by_path.values().map(|&id| &self.nodes[id as usize])
    }

    /// The node for a rendered path, created empty if the path is new.
    fn node_at(&mut self, path: &str) -> u32 {
        if let Some(&id) = self.by_path.get(path) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.by_path.insert(path.to_string(), id);
        let path = path.to_string();
        self.nodes.push(Node {
            path,
            ..Node::default()
        });
        id
    }

    /// Stamp a new record and return the root node.
    fn begin_record(&mut self) -> u32 {
        self.epoch += 1;
        self.node_at("$")
    }

    /// The node of `key` under the record at `parent`, counting one more
    /// occurrence holding it in this record.
    fn kid(&mut self, parent: u32, key: &str) -> u32 {
        let epoch = self.epoch;
        loop {
            if let Some(kid) = self.nodes[parent as usize].kids.get_mut(key) {
                if kid.seen_in != epoch {
                    (kid.seen, kid.seen_in) = (0, epoch);
                }
                kid.seen += 1;
                return kid.node;
            }
            self.link(parent, Some(key));
        }
    }

    /// The `[]` node under the array at `parent`.
    fn elem(&mut self, parent: u32) -> u32 {
        match self.nodes[parent as usize].elem {
            Some(node) => node,
            None => self.link(parent, None),
        }
    }

    /// A child index missed: find or create the child by its rendered
    /// path, index it, and keep the new edge for the end of the record.
    fn link(&mut self, parent: u32, key: Option<&str>) -> u32 {
        let path = &self.nodes[parent as usize].path;
        let path = match key {
            Some(key) => format!("{path}.{key}"),
            None => format!("{path}[]"),
        };
        let child = self.node_at(&path);
        let node = &mut self.nodes[parent as usize];
        let key = key.map(Name::from);
        match &key {
            Some(key) => drop(node.kids.insert(Arc::clone(key), Kid::to(child))),
            None => node.elem = Some(child),
        }
        self.new_edges.push((parent, key, child));
        child
    }

    /// Replay the record's log into the nodes. Absence is computed
    /// against the state *before* this record's presence landed: rule 2
    /// needs the parent's prior first record line, which the first
    /// touch of a node in this epoch sets aside.
    fn commit_record(&mut self, line: u64) {
        let epoch = self.epoch;
        for &(id, fact) in &self.log {
            let node = &mut self.nodes[id as usize];
            if node.epoch != epoch {
                node.epoch = epoch;
                node.occurrences = 0;
                node.prior_record_line = node.profile.kind_first_line[KIND_RECORD];
                node.profile.count += 1;
            }
            node.occurrences += u64::from(matches!(fact, Fact::Record(_)));
            node.profile.note(line, fact);
        }
        // Rule 1: a known key held by fewer occurrences than there were.
        for (id, _) in self.log.drain(..) {
            let occurrences = std::mem::take(&mut self.nodes[id as usize].occurrences);
            if occurrences == 0 {
                continue; // not a record here, or already done
            }
            let kids = std::mem::take(&mut self.nodes[id as usize].kids);
            for kid in kids.values() {
                if kid.seen_in != epoch || kid.seen < occurrences {
                    self.nodes[kid.node as usize].profile.note_absent(line);
                }
            }
            self.nodes[id as usize].kids = kids;
        }
        // Rule 2: a new key, but the parent had earlier objects — all of
        // them lacked it.
        for (parent, key, child) in self.new_edges.drain(..) {
            let earlier = self.nodes[parent as usize].prior_record_line;
            if key.is_some() && earlier != NO_LINE {
                self.nodes[child as usize].profile.note_absent(earlier);
            }
        }
    }

    /// Forget a record that failed to parse: its log, the index entries
    /// it added and the nodes it created (the arena's tail).
    fn abandon_record(&mut self, arena_len: usize) {
        self.log.clear();
        for (parent, key, _) in self.new_edges.drain(..) {
            let parent = &mut self.nodes[parent as usize];
            match key {
                Some(key) => drop(parent.kids.remove(&key)),
                None => parent.elem = None,
            }
        }
        for node in self.nodes.drain(arena_len..) {
            self.by_path.remove(&node.path);
        }
    }

    /// Merge another accumulator. The cross-partition absence rule runs
    /// against both *pre-merge* states: a child path present in only
    /// one side was absent from every record occurrence of its parent
    /// on the other side, whose first record line becomes a candidate.
    pub fn merge(&mut self, other: &ProfileAcc) {
        // Paths new to this side land at `arena_len..`.
        let arena_len = self.nodes.len() as u32;
        let ids: Vec<u32> = other.nodes.iter().map(|n| self.node_at(&n.path)).collect();
        let mut absent: Vec<(u32, u64)> = Vec::new();
        for (theirs, &id) in other.nodes.iter().zip(&ids) {
            let mine = &self.nodes[id as usize];
            if let Some(line) = mine.profile.record_first_line() {
                let only_theirs = theirs.kids.values().map(|kid| ids[kid.node as usize]);
                absent.extend(only_theirs.filter(|&c| c >= arena_len).map(|c| (c, line)));
            }
            if let Some(line) = theirs.profile.record_first_line() {
                let in_theirs = |c: &u32| other.by_path.contains_key(&self.nodes[*c as usize].path);
                let only_mine = mine.kids.values().map(|kid| kid.node);
                absent.extend(only_mine.filter(|c| !in_theirs(c)).map(|c| (c, line)));
            }
            for (child, line) in absent.drain(..) {
                self.nodes[child as usize].profile.note_absent(line);
            }
            let mine = &mut self.nodes[id as usize];
            mine.profile.merge(&theirs.profile);
            for (key, kid) in &theirs.kids {
                let kid = Kid::to(ids[kid.node as usize]);
                mine.kids.entry(key.clone()).or_insert(kid);
            }
        }
    }

    /// Serialize the full accumulator state for a crash-recovery
    /// checkpoint. Every component round-trips exactly: integers as
    /// decimal strings, histograms via [`LogHistogram::to_compact`] and
    /// numeric min/max as `f64::to_bits` — so
    /// [`from_checkpoint_value`](ProfileAcc::from_checkpoint_value)
    /// restores a `==`-identical accumulator and the resumed fold is
    /// byte-identical to an uninterrupted one.
    pub fn checkpoint_value(&self) -> Value {
        use typefuse_json::codec::u64_to_value;
        use typefuse_json::Map;
        let join = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let mut obj = Map::new();
        let mut children = Map::new();
        let mut paths = Map::new();
        for node in self.sorted() {
            let p = &node.profile;
            // Every path that was ever a record lists its keys, `{}` none.
            if p.kind_counts[KIND_RECORD] > 0 {
                let names = node.kids.keys().map(|k| Value::from(k.to_string()));
                children.insert(node.path.clone(), Value::Array(names.collect()));
            }
            let mut entry = Map::new();
            entry.insert("count", u64_to_value(p.count));
            entry.insert("kinds", Value::from(join(&p.kind_counts)));
            entry.insert("first", Value::from(join(&p.kind_first_line)));
            if let Some(line) = p.first_absent_line {
                entry.insert("absent", u64_to_value(line));
            }
            entry.insert("str_len", Value::from(p.str_len().to_compact()));
            entry.insert("arr_len", Value::from(p.arr_len().to_compact()));
            entry.insert("rec_width", Value::from(p.rec_width().to_compact()));
            if let Some(min) = p.num_min {
                entry.insert("num_min", u64_to_value(min.to_bits()));
            }
            if let Some(max) = p.num_max {
                entry.insert("num_max", u64_to_value(max.to_bits()));
            }
            paths.insert(node.path.clone(), Value::Object(entry));
        }
        obj.insert("children", Value::Object(children));
        obj.insert("paths", Value::Object(paths));
        Value::Object(obj)
    }

    /// Restore an accumulator serialized by
    /// [`checkpoint_value`](ProfileAcc::checkpoint_value). Fields a
    /// checkpoint may carry from before the profile only observed (a
    /// schema, a record count, a first error) are the fold's and are
    /// ignored.
    pub fn from_checkpoint_value(v: &Value) -> Result<Self, String> {
        use typefuse_json::codec::{opt_u64_from_value, u64_from_value};
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
        let histogram = |v: &Value, name: &str| -> Result<LazyHistogram, String> {
            let hist = LogHistogram::from_compact(&str_field(v, name)?)?;
            Ok((!hist.is_empty()).then(|| Box::new(hist)))
        };
        let mut acc = Self::new();
        let path_map = v
            .get("paths")
            .and_then(Value::as_object)
            .ok_or_else(|| "profile missing `paths`".to_string())?;
        for (path, entry) in path_map.iter() {
            let id = acc.node_at(path);
            acc.nodes[id as usize].profile = PathProfile {
                count: entry
                    .get("count")
                    .ok_or_else(|| "profile path missing `count`".to_string())
                    .and_then(u64_from_value)?,
                kind_counts: split(&str_field(entry, "kinds")?)?,
                kind_first_line: split(&str_field(entry, "first")?)?,
                first_absent_line: opt_u64_from_value(entry.get("absent"))?,
                str_len: histogram(entry, "str_len")?,
                arr_len: histogram(entry, "arr_len")?,
                rec_width: histogram(entry, "rec_width")?,
                num_min: opt_u64_from_value(entry.get("num_min"))?.map(f64::from_bits),
                num_max: opt_u64_from_value(entry.get("num_max"))?.map(f64::from_bits),
            };
        }
        // The child indexes come back through the path map (`[]` links
        // the same way, on their first miss).
        let children = v.get("children").and_then(Value::as_object);
        for (parent, names) in children.iter().flat_map(|map| map.iter()) {
            for name in names.as_array().ok_or("children value is not an array")? {
                let name = name.as_str().ok_or("child name is not a string")?;
                let node = |path: &str| {
                    let id = acc.by_path.get(path).copied();
                    id.ok_or_else(|| format!("child index names unprofiled path `{path}`"))
                };
                let (parent, node) = (node(parent)?, node(&format!("{parent}.{name}"))?);
                let kids = &mut acc.nodes[parent as usize].kids;
                kids.insert(name.into(), Kid::to(node));
            }
        }
        Ok(acc)
    }

    /// Finish into the immutable dataset profile beside `schema`, the
    /// fused schema of the records observed.
    pub fn finish(self, schema: Type) -> ProfileReport {
        ProfileReport {
            records: self.records(),
            schema,
            paths: self
                .nodes
                .into_iter()
                .map(|n| (n.path, n.profile))
                .collect(),
        }
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

    /// [`rows`](Self::rows) of record fields only: without the root `$`
    /// and the array-element paths (`…[]`) — the `infer --counting`
    /// table. A key whose own text ends in `[]` renders like an element
    /// path and is left out with them.
    pub fn field_rows(&self) -> Vec<(&str, &PathProfile)> {
        let mut rows = self.rows();
        rows.retain(|(path, _)| *path != "$" && !path.ends_with("[]"));
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

/// The trie as the [`Typer`]'s observer: the text walk logs the facts
/// the tree walk below logs (property-tested), one per value.
struct TextWalk<'a>(&'a mut ProfileAcc);

impl Observer for TextWalk<'_> {
    fn kid(&mut self, parent: u32, key: &str) -> u32 {
        self.0.kid(parent, key)
    }

    fn elem(&mut self, parent: u32) -> u32 {
        self.0.elem(parent)
    }

    fn fact(&mut self, node: u32, fact: Fact) {
        self.0.log.push((node, fact));
    }
}

impl ProfileAcc {
    /// Tree route: walk a materialised value.
    fn observe_tree(&mut self, v: &Value, node: u32) {
        let fact = match v {
            Value::Null => Fact::Null,
            Value::Bool(_) => Fact::Bool,
            Value::Number(n) => Fact::Num(n.as_f64()),
            Value::String(s) => Fact::Str(s.len() as u64),
            Value::Object(map) => {
                for (key, child) in map.iter() {
                    let kid = self.kid(node, key);
                    self.observe_tree(child, kid);
                }
                Fact::Record(map.len() as u64)
            }
            Value::Array(elems) => {
                for child in elems {
                    // Per element: an empty array has no `[]` path.
                    let elem = self.elem(node);
                    self.observe_tree(child, elem);
                }
                Fact::Array(elems.len() as u64)
            }
        };
        self.log.push((node, fact));
    }
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

    /// The report of `acc`, beside no schema: these tests read the paths.
    fn report(acc: ProfileAcc) -> ProfileReport {
        acc.finish(Type::Bottom)
    }

    #[test]
    fn counts_presence_and_kinds() {
        let acc = acc_of(&[r#"{"a": 1, "b": "xy"}"#, r#"{"a": 2}"#, r#"{"a": null}"#]);
        let profile = report(acc);
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
        assert_eq!(b.str_len().count(), 1);
        let root = profile.get("$").unwrap();
        assert_eq!(root.count, 3);
        assert_eq!(root.rec_width().count(), 3);
    }

    #[test]
    fn absence_rule_1_known_key_missing_later() {
        // b is known from line 1; line 2 lacks it.
        let acc = acc_of(&[r#"{"a": 1, "b": 2}"#, r#"{"a": 3}"#]);
        let profile = report(acc);
        assert_eq!(profile.get("$.b").unwrap().first_absent_line, Some(2));
        assert_eq!(profile.get("$.a").unwrap().first_absent_line, None);
    }

    #[test]
    fn absence_rule_2_new_key_demoted_by_earlier_records() {
        // b first appears at line 3, so lines 1 and 2 lacked it — the
        // earliest of them is the demoting line.
        let acc = acc_of(&[r#"{"a": 1}"#, r#"{"a": 2}"#, r#"{"a": 3, "b": true}"#]);
        assert_eq!(report(acc).get("$.b").unwrap().first_absent_line, Some(1));
    }

    #[test]
    fn absence_within_one_record_across_array_elements() {
        let acc = acc_of(&[r#"{"kw": [{"rank": 1}, {}]}"#]);
        let profile = report(acc);
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
        let profile = report(acc);
        assert_eq!(profile.get("$.a.x").unwrap().first_absent_line, None);
        // But an empty object at line 3 does.
        let acc = acc_of(&[r#"{"a": 5}"#, r#"{"a": {"x": 1}}"#, r#"{"a": {}}"#]);
        assert_eq!(report(acc).get("$.a.x").unwrap().first_absent_line, Some(3));
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
        assert_eq!(report(ab.clone()), report(ba.clone()), "commutative");
        assert_eq!(report(ab).get("$.b").unwrap().first_absent_line, Some(1));
    }

    #[test]
    fn merge_matches_sequential_absorption() {
        let lines = [
            r#"{"a": 1, "b": "x"}"#,
            r#"{"a": null}"#,
            r#"{"a": 1, "c": [true, {"d": 2}]}"#,
            r#"{"a": "s", "c": []}"#,
        ];
        let sequential = report(acc_of(&lines));
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
            assert_eq!(report(left), sequential, "split at {split}");
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
            let value = typefuse_json::parse_value(line).unwrap();
            via_values.observe_value(i as u64 + 1, &value);
        }
        let a = report(via_events);
        let b = report(via_values);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn numeric_and_length_statistics() {
        let acc = acc_of(&[r#"{"n": 3, "s": "abcd"}"#, r#"{"n": -1.5, "s": ""}"#]);
        let profile = report(acc);
        let n = profile.get("$.n").unwrap();
        assert_eq!(n.num_min, Some(-1.5));
        assert_eq!(n.num_max, Some(3.0));
        let s = profile.get("$.s").unwrap();
        let lens = s.str_len().report();
        assert_eq!((lens.count, lens.min, lens.max), (2, 0, 4));
    }

    #[test]
    fn profiling_fuser_schema_matches_plain_fusion() {
        use crate::{fuse_all, infer_type};
        let values = [
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
        ];
        // The types the text walk hands back are the plain route's.
        let mut acc = ProfileAcc::new();
        let observed: Vec<Type> = (1..)
            .zip(&values)
            .map(|(line, v)| {
                let text = v.to_string();
                acc.observe_line(line, text.as_bytes(), &ParserOptions::default())
                    .unwrap()
            })
            .collect();
        let types: Vec<Type> = values.iter().map(infer_type).collect();
        assert_eq!(fuse_all(&observed), fuse_all(&types));
        assert_eq!(acc.records(), 3);
    }

    #[test]
    fn presence_counts_add_across_a_merge() {
        // What `infer --counting` prints: partials absorb values, then
        // merge, and the presence counts add up.
        let mut acc = ProfileAcc::new();
        acc.observe_value(1, &json!({"a": 1}));
        acc.observe_value(2, &json!({"a": "x", "b": null}));
        let mut other = ProfileAcc::new();
        other.observe_value(3, &json!({"a": true}));
        acc.merge(&other);
        assert_eq!(acc.records(), 3);
        let profile = report(acc);
        assert_eq!(profile.records, 3);
        assert_eq!(profile.get("$.a").unwrap().count, 3);
        assert_eq!(profile.get("$.b").unwrap().count, 1);
    }

    #[test]
    fn profile_json_shape() {
        let schema = typefuse_types::parse_type("{a: Num + Str, b: Null?}").unwrap();
        let profile = acc_of(&[r#"{"a": 1}"#, r#"{"a": "xy", "b": null}"#]).finish(schema);
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
            let mut resumed = ProfileAcc::from_checkpoint_value(&reparsed).unwrap();
            assert_eq!(resumed, before, "restore at cut {cut} is exact");
            for (i, line) in lines[cut..].iter().enumerate() {
                resumed.absorb_line((cut + i) as u64 + 1, line);
            }
            assert_eq!(resumed, full, "resume at cut {cut} matches full fold");
            assert_eq!(
                report(resumed.clone()).to_json(),
                report(full.clone()).to_json(),
                "serialized profile at cut {cut}"
            );
        }
        let empty = typefuse_json::parse_value("{}").unwrap();
        assert!(ProfileAcc::from_checkpoint_value(&empty).is_err());
    }

    #[test]
    fn rows_order_by_count_then_path() {
        let profile = report(acc_of(&[r#"{"a": 1, "z": 1}"#, r#"{"a": 2}"#]));
        let rows = profile.rows();
        assert_eq!(rows[0].0, "$");
        assert_eq!(rows[1].0, "$.a");
        assert_eq!(rows[2].0, "$.z");
    }

    #[test]
    fn field_rows_leave_out_the_root_and_element_paths() {
        let profile = report(acc_of(&[
            r#"{"a": [{"b": 1}], "a[]": 2, "c": 3}"#,
            r#"{"c": 4}"#,
        ]));
        let paths: Vec<&str> = profile.field_rows().iter().map(|r| r.0).collect();
        // `$.a[]` is both `a`'s element path and the key `a[]`: a key
        // whose text ends in `[]` gets no row of its own.
        assert_eq!(paths, ["$.c", "$.a", "$.a[].b"]);
        assert_eq!(profile.get("$.a[]").unwrap().count, 1);
    }

    #[test]
    fn empty_accumulator_finishes_empty() {
        let profile = report(ProfileAcc::new());
        assert_eq!(profile.records, 0);
        assert_eq!(profile.schema, Type::Bottom);
        assert!(profile.paths.is_empty());
    }
}
