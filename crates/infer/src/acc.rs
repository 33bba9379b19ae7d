//! [`Acc`]: the one accumulator interface, and [`SchemaAcc`], the one
//! schema accumulator every record fold feeds.
//!
//! The paper's algorithm is one associative, commutative `Fuse`
//! (Theorems 5.4, 5.5), and every fold state in the workspace rides on
//! it the same way: an empty value that carries its configuration,
//! [`Acc::absorb`] for one item, [`Acc::merge`] for the state of the
//! input that follows, and — for the states a daemon persists —
//! [`Checkpoint::checkpoint`] / [`Checkpoint::restore`]. The laws they
//! obey are stated once, in `crates/infer/tests/acc_laws.rs`.
//!
//! A [`SchemaAcc`] absorbs per-record types into a running fused schema
//! by plain in-place fusion or through the shape-dedup interner and memo
//! cache ([`DedupAcc`]). Both produce the same schema byte for byte
//! (Theorems 5.3–5.5), so which one runs is a constant factor, picked by
//! a [`DedupMode`] — and `Auto` may switch mid-stream.

use crate::dedup::DedupAcc;
use crate::fuse::FuseConfig;
use crate::obs::fuse_into_recorded;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use typefuse_json::codec::u64_from_value;
use typefuse_json::Value;
use typefuse_obs::{JsonWriter, Recorder};
use typefuse_types::intern::FxHasher;
use typefuse_types::wire::{from_wire, to_wire};
use typefuse_types::Type;

/// A fold state: an identity (an empty value, built with whatever
/// configuration it absorbs under), a step and a merge.
///
/// The laws, for every implementor: merging an empty value changes
/// nothing; `merge` is associative, and commutative unless the type says
/// otherwise (states that keep input order, like a quarantine sidecar,
/// merge the input that *follows*); folding any cut of an input and
/// merging the parts in order equals folding it whole; absorbing an item
/// equals merging the fold of that item alone.
pub trait Acc: Clone {
    /// What one absorb takes.
    type Item<'a>;
    /// What one absorb reports: nothing, a verdict, or a type.
    type Outcome;

    /// Fold one item in.
    fn absorb(&mut self, item: Self::Item<'_>) -> Self::Outcome;

    /// Merge the state of the input that follows this one's.
    fn merge(&mut self, other: &Self);
}

/// An [`Acc`] that survives a restart. The law: `restore(checkpoint(a))`
/// is `a`, so merging restored states is merging the originals.
pub trait Checkpoint: Acc {
    /// Write the state's fields into the JSON object `w` has open, with
    /// no intermediate tree; `u64`s as decimal strings
    /// ([`JsonWriter::decimal`]), so they survive any round trip.
    fn write_checkpoint(&self, w: &mut JsonWriter);

    /// The state's payload: one object of
    /// [`write_checkpoint`](Self::write_checkpoint)'s fields.
    fn checkpoint(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        self.write_checkpoint(&mut w);
        w.end_object();
        w.finish()
    }

    /// Rebuild a state from a [`checkpoint`](Self::checkpoint), called on
    /// an empty value: the configuration is `self`'s, never the
    /// payload's. Total: a malformed payload is an `Err`, never a panic.
    fn restore(&self, payload: &Value) -> Result<Self, String>;
}

/// Whether a reduce rides the shape-dedup route: hash-consed type
/// interning plus memoized fusion, so each distinct `schema ⊔ shape`
/// step is computed once and duplicates replay it O(1). Output is
/// byte-identical to the plain route either way; the modes only trade
/// constant factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Sample the first records and dedup when the data looks redundant —
    /// see [`dedup_auto_sample`]. The default.
    #[default]
    Auto,
    /// Always dedup.
    On,
    /// Never dedup (plain fusion).
    Off,
}

/// `DedupMode::Auto` inspects this many leading types …
const SAMPLE: usize = 512;
/// … and never picks the dedup route on fewer than this.
const MIN_SAMPLE: usize = 64;

/// The leading-records sample behind `DedupMode::Auto`.
#[derive(Debug, Clone, Default)]
struct AutoSample {
    seen: usize,
    distinct: HashSet<u64>,
}

impl AutoSample {
    /// Note one type; `Some(verdict)` once the sample is full.
    fn note(&mut self, ty: &Type) -> Option<bool> {
        let mut hasher = FxHasher::default();
        ty.hash(&mut hasher);
        self.distinct.insert(hasher.finish());
        self.seen += 1;
        (self.seen >= SAMPLE).then(|| self.redundant())
    }

    fn redundant(&self) -> bool {
        self.seen >= MIN_SAMPLE && self.distinct.len() * 2 <= self.seen
    }
}

/// The `--dedup auto` heuristic: inspect up to the first 512 inferred
/// types and pick the dedup route when at least 64 were seen and at most
/// half of them are distinct. Tiny inputs and structurally unique
/// streams (every record its own shape, e.g. Wikidata's ids-as-keys
/// records) stay on the plain route, where interning would only add
/// overhead.
pub fn dedup_auto_sample<'a>(types: impl IntoIterator<Item = &'a Type>) -> bool {
    let mut sample = AutoSample::default();
    for ty in types {
        if let Some(verdict) = sample.note(ty) {
            return verdict;
        }
    }
    sample.redundant()
}

/// A running fused schema, its record count and revision, on either route.
#[derive(Debug, Clone)]
pub struct SchemaAcc {
    mode: DedupMode,
    config: FuseConfig,
    /// Counts the plain route's fusions and, once flushed, the dedup
    /// route's cache (batch only; disabled elsewhere).
    recorder: Recorder,
    route: Route,
    revision: u64,
}

#[derive(Debug, Clone)]
enum Route {
    /// Plain running fusion: the schema and its record count. The sample
    /// is present while `DedupMode::Auto` has not yet seen enough records
    /// to decide.
    Plain(Type, u64, Option<AutoSample>),
    /// Hash-consed interner + memoized fusion, kept warm across absorbs.
    Dedup(Box<DedupAcc>),
}

impl SchemaAcc {
    /// An empty accumulator.
    pub fn new(mode: DedupMode, config: FuseConfig) -> Self {
        SchemaAcc {
            mode,
            config,
            recorder: Recorder::disabled(),
            route: Route::resume(mode, Type::Bottom, 0),
            revision: 0,
        }
    }

    /// This accumulator, counting into `recorder`: `fuse.calls`,
    /// `fuse.widened` and `fuse.union_width` per plain fusion (a move into
    /// `ε` is not one), the dedup route's counters on
    /// [`flush_counters`](Self::flush_counters).
    pub fn recorded(self, recorder: Recorder) -> Self {
        SchemaAcc { recorder, ..self }
    }

    /// The current fused schema (`ε` if nothing has been absorbed).
    pub fn schema(&self) -> Type {
        match &self.route {
            Route::Plain(schema, ..) => schema.clone(),
            Route::Dedup(acc) => acc.schema(),
        }
    }

    /// The fused schema, moved out on the plain route.
    pub fn into_schema(self) -> Type {
        match self.route {
            Route::Plain(schema, ..) => schema,
            Route::Dedup(acc) => acc.schema(),
        }
    }

    /// Moves iff an absorb or merge changed the fused schema, on either
    /// route and across `Auto`'s switch (the plain route's exact changed
    /// flag from `fuse_into`, the dedup route's schema id); 0 on restore.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Records absorbed (across merges and restores).
    pub fn records(&self) -> u64 {
        match &self.route {
            Route::Plain(_, records, _) => *records,
            Route::Dedup(acc) => acc.records(),
        }
    }

    /// Distinct interned shapes held by the dedup route (0 on the plain
    /// route, which does not track shapes).
    pub fn distinct_shapes(&self) -> u64 {
        match &self.route {
            Route::Plain(..) => 0,
            Route::Dedup(acc) => acc.distinct_shapes() as u64,
        }
    }

    /// Whether the accumulator is on the dedup route right now.
    pub fn is_dedup(&self) -> bool {
        matches!(self.route, Route::Dedup(..))
    }

    /// On the dedup route, emit its counters ([`DedupAcc::flush_counters`]).
    pub fn flush_counters(&self) {
        if let Route::Dedup(acc) = &self.route {
            acc.flush_counters(&self.recorder);
        }
    }
}

impl Route {
    /// A route holding `schema` and `records`. The dedup route's interner
    /// and memo cache start cold (pure performance state).
    fn resume(mode: DedupMode, schema: Type, records: u64) -> Self {
        match mode {
            DedupMode::On => Route::Dedup(Box::new(DedupAcc::resume(&schema, records))),
            DedupMode::Auto | DedupMode::Off => Route::Plain(
                schema,
                records,
                (mode == DedupMode::Auto).then(AutoSample::default),
            ),
        }
    }
}

impl Acc for SchemaAcc {
    type Item<'a> = &'a Type;
    type Outcome = ();

    fn absorb(&mut self, ty: &Type) {
        let changed = match &mut self.route {
            Route::Dedup(acc) => acc.absorb_type(self.config, ty),
            Route::Plain(schema, records, sample) => {
                *records += 1;
                let changed = fuse_into_recorded(self.config, schema, ty, &self.recorder);
                match sample.as_mut().and_then(|s| s.note(ty)) {
                    Some(true) => {
                        let schema = std::mem::replace(schema, Type::Bottom);
                        self.route = Route::resume(DedupMode::On, schema, *records);
                    }
                    Some(false) => *sample = None,
                    None => {}
                }
                changed
            }
        };
        self.revision += u64::from(changed);
    }

    /// The sides may be on different routes — `Auto` resolves per
    /// accumulator — and the result stays on `self`'s.
    fn merge(&mut self, other: &SchemaAcc) {
        let (config, rec) = (self.config, &self.recorder);
        let changed = match (&mut self.route, &other.route) {
            (Route::Plain(schema, records, _), theirs) => {
                *records += other.records();
                match theirs {
                    Route::Plain(other, ..) => fuse_into_recorded(config, schema, other, rec),
                    Route::Dedup(acc) => fuse_into_recorded(config, schema, &acc.schema(), rec),
                }
            }
            (Route::Dedup(mine), Route::Dedup(theirs)) => mine.merge(config, theirs),
            (Route::Dedup(mine), Route::Plain(schema, records, _)) => {
                mine.merge(config, &DedupAcc::resume(schema, *records))
            }
        };
        self.revision += u64::from(changed);
    }
}

/// The schema (lossless wire form), its record count and the route, as
/// three fields a record fold's checkpoint carries at its top level.
impl Checkpoint for SchemaAcc {
    fn write_checkpoint(&self, w: &mut JsonWriter) {
        w.key("dedup").bool_value(self.is_dedup());
        w.key("schema").string(&match &self.route {
            Route::Plain(schema, ..) => to_wire(schema),
            Route::Dedup(acc) => to_wire(&acc.schema()),
        });
        w.key("records").decimal(self.records());
    }

    /// `auto` resumes on the route it had taken; `on` and `off` are the
    /// configuration's.
    fn restore(&self, payload: &Value) -> Result<Self, String> {
        let field = |name: &str| payload.get(name).ok_or(format!("missing {name}"));
        let dedup = field("dedup")?.as_bool().ok_or("dedup is not a bool")?;
        let schema = from_wire(field("schema")?.as_str().ok_or("schema is not a string")?)?;
        let records = u64_from_value(field("records")?)?;
        let mode = match self.mode {
            DedupMode::Auto if dedup => DedupMode::On,
            mode => mode,
        };
        Ok(SchemaAcc {
            route: Route::resume(mode, schema, records),
            revision: 0,
            ..self.clone()
        })
    }
}
