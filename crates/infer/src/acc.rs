//! [`SchemaAcc`]: the one schema accumulator every record fold feeds.
//!
//! A fold absorbs per-record types into a running fused schema by plain
//! in-place fusion ([`Incremental`]) or through the shape-dedup interner
//! and memo cache ([`DedupAcc`]). Both produce the same schema byte for
//! byte (Theorems 5.3–5.5), so which one runs is a constant factor,
//! picked by a [`DedupMode`] — and `Auto` may switch mid-stream.

use crate::dedup::DedupAcc;
use crate::fuse::FuseConfig;
use crate::incremental::Incremental;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use typefuse_types::intern::FxHasher;
use typefuse_types::Type;

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
pub struct AutoSample {
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
    route: Route,
    revision: u64,
}

#[derive(Debug, Clone)]
enum Route {
    /// Plain running fusion. The sample is present while
    /// `DedupMode::Auto` has not yet seen enough records to decide.
    Plain(Incremental, Option<AutoSample>),
    /// Hash-consed interner + memoized fusion, kept warm across absorbs.
    Dedup(Box<DedupAcc>, FuseConfig),
}

impl SchemaAcc {
    /// An empty accumulator.
    pub fn new(mode: DedupMode, config: FuseConfig) -> Self {
        Self::resume(mode, config, Type::Bottom, 0)
    }

    /// Resume from a computed schema and record count. The dedup route's
    /// interner and memo cache restart cold (pure performance state).
    pub fn resume(mode: DedupMode, config: FuseConfig, schema: Type, records: u64) -> Self {
        let route = match mode {
            DedupMode::On => Route::Dedup(Box::new(DedupAcc::resume(&schema, records)), config),
            DedupMode::Auto | DedupMode::Off => Route::Plain(
                Incremental::resume(schema, records, config),
                (mode == DedupMode::Auto).then(AutoSample::default),
            ),
        };
        SchemaAcc { route, revision: 0 }
    }

    /// Fold one inferred type in.
    pub fn absorb_type(&mut self, ty: &Type) {
        let changed = match &mut self.route {
            Route::Dedup(acc, config) => acc.absorb_type(*config, ty),
            Route::Plain(acc, sample) => {
                let changed = acc.absorb_type_ref(ty);
                match sample.as_mut().and_then(|s| s.note(ty)) {
                    Some(true) => {
                        let dedup = Box::new(DedupAcc::resume(acc.schema(), acc.count()));
                        self.route = Route::Dedup(dedup, acc.config());
                    }
                    Some(false) => *sample = None,
                    None => {}
                }
                changed
            }
        };
        self.revision += u64::from(changed);
    }

    /// Merge another accumulator (associative and commutative, like the
    /// fusion underneath). The sides may be on different routes — `Auto`
    /// resolves per accumulator — and the result stays on `self`'s.
    pub fn merge(&mut self, other: &SchemaAcc) {
        let changed = match (&mut self.route, &other.route) {
            (Route::Plain(mine, _), Route::Plain(theirs, _)) => mine.merge(theirs),
            (Route::Plain(mine, _), Route::Dedup(theirs, config)) => mine.merge(
                &Incremental::resume(theirs.schema(), theirs.records(), *config),
            ),
            (Route::Dedup(mine, config), Route::Dedup(theirs, _)) => mine.merge(*config, theirs),
            (Route::Dedup(mine, config), Route::Plain(theirs, _)) => {
                mine.merge(*config, &DedupAcc::resume(theirs.schema(), theirs.count()))
            }
        };
        self.revision += u64::from(changed);
    }

    /// The current fused schema (`ε` if nothing has been absorbed).
    pub fn schema(&self) -> Type {
        match &self.route {
            Route::Plain(acc, _) => acc.schema().clone(),
            Route::Dedup(acc, _) => acc.schema(),
        }
    }

    /// Moves iff an absorb or merge changed the fused schema, on either
    /// route and across `Auto`'s switch (the plain route's exact changed
    /// flag from `fuse_into`, the dedup route's schema id); 0 on resume.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Records absorbed (across merges and resumes).
    pub fn records(&self) -> u64 {
        match &self.route {
            Route::Plain(acc, _) => acc.count(),
            Route::Dedup(acc, _) => acc.records(),
        }
    }

    /// Distinct interned shapes held by the dedup route (0 on the plain
    /// route, which does not track shapes).
    pub fn distinct_shapes(&self) -> u64 {
        match &self.route {
            Route::Plain(..) => 0,
            Route::Dedup(acc, _) => acc.distinct_shapes() as u64,
        }
    }

    /// Whether the accumulator is on the dedup route right now.
    pub fn is_dedup(&self) -> bool {
        matches!(self.route, Route::Dedup(..))
    }
}
