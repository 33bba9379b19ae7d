//! The shape-dedup Reduce: weighted, memoized fusion over interned
//! [`TypeId`]s.
//!
//! Massive JSON datasets are structurally redundant — the paper's own
//! evaluation sees 1M GitHub values collapse to ~4.6K distinct inferred
//! types. Because `Fuse` is idempotent, commutative and associative
//! (Theorems 5.2–5.5) with `ε` as identity, the weighted reduce — fuse
//! each *distinct* type once, with a multiplicity — is semantically
//! equal to fusing every value's type, in any bracketing and order.
//!
//! One catch keeps this from being a literal skip-the-duplicates fold:
//! idempotence is only *semantic*. Syntactically,
//! `Fuse([Bool], [Bool]) = [Bool*]` — two positional array types
//! collapse whenever they meet (Figure 6 lines 4–7) — and this crate
//! promises byte-identical output across routes. The [`DedupAcc`]
//! therefore realises the weighted reduce through *memoization*: the Map
//! side folds every record to an interned [`TypeId`] and bumps a
//! per-shape multiplicity; the Reduce side still takes every
//! `schema ⊔ shape` step of the plain fold, but memoizes
//! `Fuse(id₁, id₂) → id` in a per-worker [`FuseCache`], so each
//! *distinct* step is computed once and every duplicate record replays
//! it as one interner lookup plus one O(1) cache hit. The schema-state
//! sequence is exactly the plain fold's, which is what makes the output
//! byte-identical rather than merely equivalent. The memo key is the
//! *unordered* pair — licensed by commutativity (Theorem 5.4) — so
//! `Fuse(a, b)` and `Fuse(b, a)` share an entry.
//!
//! Caches and interners are partition-local (no cross-thread locking);
//! [`DedupAcc::merge`] translates the other side's arena and memo table
//! through [`TypeInterner::absorb`] at combine time, which keeps every
//! cache entry valid because fusion results are structural facts about
//! shapes, not about the ids that happen to name them.

use crate::fuse::{ArrayFusion, FuseConfig};
use typefuse_obs::Recorder;
use typefuse_types::intern::{FieldShape, FxHashMap, ShapeRef};
use typefuse_types::{Type, TypeId, TypeInterner};

/// Memo table for id-level fusion: `Fuse(min(a,b), max(a,b)) → fused`,
/// plus hit/miss counters surfaced as `fuse.cache_hits` /
/// `fuse.cache_misses`.
///
/// A cache is only meaningful together with the [`TypeInterner`] whose
/// ids it stores and the [`FuseConfig`] under which its entries were
/// computed; [`DedupAcc`] owns all three as one unit.
#[derive(Debug, Clone, Default)]
pub struct FuseCache {
    memo: FxHashMap<(TypeId, TypeId), TypeId>,
    hits: u64,
    misses: u64,
}

impl FuseCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the memo table (or by idempotence).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to run a real structural fusion.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of memoized pairs.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// Whether the memo table is empty.
    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

/// `Fuse(T₁, T₂)` over interned ids, memoized in `cache`.
///
/// Mirrors `fuse_with` exactly (same six-slot KMatch/KUnmatch partition,
/// same `LFuse` cases) but at the id level: pass-through addends are
/// copied as `u32`s instead of cloned as subtrees, identical inputs
/// short-circuit by idempotence, and previously seen unordered pairs are
/// answered from the memo table. Sub-fusions (e.g. matched record fields)
/// recurse through this function too, so shared nested shapes hit the
/// cache even when their parents differ.
pub fn fuse_ids(
    cfg: FuseConfig,
    interner: &mut TypeInterner,
    cache: &mut FuseCache,
    t1: TypeId,
    t2: TypeId,
) -> TypeId {
    // ε is the identity of Fuse — `fuse_with` passes the other side's
    // addends through untouched, so returning the id is byte-identical.
    // Like the engine's fold-from-first semantics this is a move, counted
    // neither as hit nor miss.
    //
    // Note there is deliberately no `t1 == t2` shortcut: `Fuse` is only
    // *semantically* idempotent. Syntactically `Fuse([Bool], [Bool])`
    // collapses to `[Bool*]` (Figure 6 lines 4–7 fire whenever two array
    // types meet), so returning `t1` would diverge from the plain fold.
    // Equal pairs go through the memo like any other pair: computed once,
    // answered O(1) for every duplicate after that.
    if t1 == TypeId::BOTTOM {
        return t2;
    }
    if t2 == TypeId::BOTTOM {
        return t1;
    }
    let key = if t1 < t2 { (t1, t2) } else { (t2, t1) };
    if let Some(&fused) = cache.memo.get(&key) {
        cache.hits += 1;
        return fused;
    }
    cache.misses += 1;

    fn addends(interner: &TypeInterner, id: TypeId) -> Vec<TypeId> {
        match interner.shape(id) {
            ShapeRef::Union(ids) => ids.to_vec(),
            _ => vec![id],
        }
    }
    // KMatch / KUnmatch via the same kind-indexed six-slot table as
    // `fuse_with`; normality guarantees at most one addend per kind on
    // each side.
    let mut slots: [Option<TypeId>; 6] = [None; 6];
    for id in addends(interner, t1)
        .into_iter()
        .chain(addends(interner, t2))
    {
        let k = interner.kind(id).expect("union addends are kinded") as usize;
        slots[k] = Some(match slots[k].take() {
            None => id,
            Some(prev) => lfuse_ids(cfg, interner, cache, prev, id),
        });
    }
    let fused = interner.intern_union(slots.into_iter().flatten());
    cache.memo.insert(key, fused);
    fused
}

/// `LFuse` over ids — both arguments are non-union shapes of one kind.
fn lfuse_ids(
    cfg: FuseConfig,
    interner: &mut TypeInterner,
    cache: &mut FuseCache,
    t1: TypeId,
    t2: TypeId,
) -> TypeId {
    debug_assert_eq!(interner.kind(t1), interner.kind(t2));
    // Copy the one-level child-id lists out so the interner is free to be
    // mutated by the recursive fusions below; these are small Vec<u32>
    // copies, never subtree clones. Basic shapes return immediately
    // (Figure 6 line 2: equal kind ⟹ equal basic type).
    enum Node {
        Basic,
        Record(Vec<FieldShape>),
        Array(Vec<TypeId>),
        Star(TypeId),
    }
    fn node(interner: &TypeInterner, id: TypeId) -> Node {
        match interner.shape(id) {
            ShapeRef::Null | ShapeRef::Bool | ShapeRef::Num | ShapeRef::Str => Node::Basic,
            ShapeRef::Record(fields) => Node::Record(fields.to_vec()),
            ShapeRef::Array(elems) => Node::Array(elems.to_vec()),
            ShapeRef::Star(body) => Node::Star(body),
            _ => unreachable!("lfuse_ids on an ε or union shape"),
        }
    }
    match (node(interner, t1), node(interner, t2)) {
        // Line 2: identical basic types.
        (Node::Basic, Node::Basic) => {
            debug_assert_eq!(t1, t2);
            t1
        }

        // Line 3: record fusion.
        (Node::Record(f1), Node::Record(f2)) => lfuse_records_ids(cfg, interner, cache, &f1, &f2),

        // Lines 4–7: array fusion through collapse.
        (Node::Array(a1), Node::Array(a2)) => match cfg.array_fusion {
            ArrayFusion::PositionalWhenAligned if a1.len() == a2.len() => {
                let elems = a1
                    .iter()
                    .zip(&a2)
                    .map(|(&x, &y)| fuse_ids(cfg, interner, cache, x, y))
                    .collect();
                interner.intern_array(elems)
            }
            _ => {
                let b1 = collapse_ids(cfg, interner, cache, &a1);
                let b2 = collapse_ids(cfg, interner, cache, &a2);
                let body = fuse_ids(cfg, interner, cache, b1, b2);
                interner.intern_star(body)
            }
        },
        (Node::Star(body), Node::Array(a)) => {
            let collapsed = collapse_ids(cfg, interner, cache, &a);
            let body = fuse_ids(cfg, interner, cache, body, collapsed);
            interner.intern_star(body)
        }
        (Node::Array(a), Node::Star(body)) => {
            let collapsed = collapse_ids(cfg, interner, cache, &a);
            let body = fuse_ids(cfg, interner, cache, collapsed, body);
            interner.intern_star(body)
        }
        (Node::Star(b1), Node::Star(b2)) => {
            let body = fuse_ids(cfg, interner, cache, b1, b2);
            interner.intern_star(body)
        }

        _ => unreachable!("lfuse_ids on mismatched kinds"),
    }
}

/// Record fusion: the merge-join of `lfuse_records` over interned fields.
/// Name order is the string order of the interned names; equal ids
/// short-circuit the string comparison.
fn lfuse_records_ids(
    cfg: FuseConfig,
    interner: &mut TypeInterner,
    cache: &mut FuseCache,
    f1s: &[FieldShape],
    f2s: &[FieldShape],
) -> TypeId {
    use std::cmp::Ordering;
    let mut out: Vec<FieldShape> = Vec::with_capacity(f1s.len().max(f2s.len()));
    let (mut i, mut j) = (0, 0);
    while i < f1s.len() && j < f2s.len() {
        let (n1, t1, o1) = f1s[i];
        let (n2, t2, o2) = f2s[j];
        let ord = if n1 == n2 {
            Ordering::Equal
        } else {
            interner.name(n1).cmp(interner.name(n2))
        };
        match ord {
            Ordering::Equal => {
                // FMatch: fuse the types; min(m, n) cardinality with
                // ? < 1 means optional wins.
                let ty = fuse_ids(cfg, interner, cache, t1, t2);
                out.push((n1, ty, o1 || o2));
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                out.push((n1, t1, true));
                i += 1;
            }
            Ordering::Greater => {
                out.push((n2, t2, true));
                j += 1;
            }
        }
    }
    // FUnmatch tails: keys present on one side only become optional.
    out.extend(f1s[i..].iter().map(|&(n, t, _)| (n, t, true)));
    out.extend(f2s[j..].iter().map(|&(n, t, _)| (n, t, true)));
    interner.intern_record(out)
}

/// The array simplification (Figure 6 lines 8–9) over ids: fold
/// [`fuse_ids`] over the element types, yielding the body of the starred
/// form (`ε` for the empty array type).
fn collapse_ids(
    cfg: FuseConfig,
    interner: &mut TypeInterner,
    cache: &mut FuseCache,
    elems: &[TypeId],
) -> TypeId {
    elems.iter().fold(TypeId::BOTTOM, |acc, &e| {
        fuse_ids(cfg, interner, cache, acc, e)
    })
}

/// The shape-dedup accumulator: a partition-local interner, the running
/// fused schema as a [`TypeId`], per-shape multiplicities, and the fusion
/// memo-cache.
#[derive(Debug, Clone)]
pub struct DedupAcc {
    interner: TypeInterner,
    cache: FuseCache,
    schema: TypeId,
    counts: FxHashMap<TypeId, u64>,
    records: u64,
}

impl Default for DedupAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl DedupAcc {
    /// The identity accumulator (`ε`, nothing absorbed).
    pub fn new() -> Self {
        DedupAcc {
            interner: TypeInterner::new(),
            cache: FuseCache::new(),
            schema: TypeId::BOTTOM,
            counts: FxHashMap::default(),
            records: 0,
        }
    }

    /// Resume from a checkpointed schema and record count. The interner,
    /// memo cache, and per-shape multiplicities restart cold — they are
    /// pure performance state (the dedup route is byte-identical to the
    /// plain fold by construction), so `distinct_shapes()` counts only
    /// shapes seen since the resume. The schema sequence continues
    /// exactly where the checkpoint left off.
    pub fn resume(schema: &Type, records: u64) -> Self {
        let mut interner = TypeInterner::new();
        let schema = interner.intern(schema);
        DedupAcc {
            interner,
            cache: FuseCache::new(),
            schema,
            counts: FxHashMap::default(),
            records,
        }
    }

    /// Fold one inferred type in: intern it, bump its shape count, fuse
    /// its id into the running schema. Once the schema has saturated this
    /// is an interner lookup plus a memo hit per duplicate shape. Returns
    /// whether the schema changed (its id moved).
    pub fn absorb_type(&mut self, cfg: FuseConfig, ty: &Type) -> bool {
        let id = self.interner.intern(ty);
        *self.counts.entry(id).or_insert(0) += 1;
        self.records += 1;
        let before = self.schema;
        self.schema = fuse_ids(cfg, &mut self.interner, &mut self.cache, before, id);
        self.schema != before
    }

    /// Merge another partition's accumulator: translate its arena into
    /// ours, add multiplicities, carry over its memo table (entries stay
    /// valid — they are facts about shapes, re-keyed to our ids), and
    /// fuse the two schema ids. Returns whether the schema changed.
    pub fn merge(&mut self, cfg: FuseConfig, other: &DedupAcc) -> bool {
        let map = self.interner.absorb(&other.interner);
        for (&id, &n) in &other.counts {
            *self.counts.entry(map[id.index()]).or_insert(0) += n;
        }
        self.records += other.records;
        for (&(a, b), &fused) in &other.cache.memo {
            let (ta, tb) = (map[a.index()], map[b.index()]);
            let key = if ta < tb { (ta, tb) } else { (tb, ta) };
            self.cache.memo.entry(key).or_insert(map[fused.index()]);
        }
        self.cache.hits += other.cache.hits;
        self.cache.misses += other.cache.misses;
        let (before, theirs) = (self.schema, map[other.schema.index()]);
        self.schema = fuse_ids(cfg, &mut self.interner, &mut self.cache, before, theirs);
        self.schema != before
    }

    /// Number of values absorbed (with multiplicity).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Number of distinct top-level shapes absorbed — the
    /// `infer.distinct_shapes` counter, and the size of the weighted
    /// reduce that replaced `records()` fusions.
    pub fn distinct_shapes(&self) -> usize {
        self.counts.len()
    }

    /// The fusion memo-cache (hit/miss counters live here).
    pub fn cache(&self) -> &FuseCache {
        &self.cache
    }

    /// The fused schema as an owned [`Type`].
    pub fn schema(&self) -> Type {
        self.interner.resolve(self.schema)
    }

    /// Emit the dedup counters (`infer.distinct_shapes`,
    /// `fuse.cache_hits`, `fuse.cache_misses`, and `fuse.calls` — the
    /// number of real fusion computations, i.e. the misses).
    pub fn flush_counters(&self, rec: &Recorder) {
        if rec.is_enabled() {
            rec.add("infer.distinct_shapes", self.counts.len() as u64);
            rec.add("fuse.cache_hits", self.cache.hits);
            rec.add("fuse.cache_misses", self.cache.misses);
            rec.add("fuse.calls", self.cache.misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::{fuse_all, fuse_with};
    use crate::infer::infer_type;
    use typefuse_json::json;
    use typefuse_types::parse_type;

    fn values() -> Vec<typefuse_json::Value> {
        vec![
            json!({"a": 1, "b": "x"}),
            json!({"a": 2, "b": "y"}),
            json!({"a": null, "c": [1, 2]}),
            json!({"a": 1, "b": "x"}),
        ]
    }

    fn fuse_ids_oracle(a: &str, b: &str) -> (String, String) {
        let (ta, tb) = (parse_type(a).unwrap(), parse_type(b).unwrap());
        let cfg = FuseConfig::default();
        let mut interner = TypeInterner::new();
        let mut cache = FuseCache::new();
        let (ia, ib) = (interner.intern(&ta), interner.intern(&tb));
        let fused = fuse_ids(cfg, &mut interner, &mut cache, ia, ib);
        (
            interner.resolve(fused).to_string(),
            fuse_with(cfg, &ta, &tb).to_string(),
        )
    }

    #[test]
    fn fuse_ids_matches_fuse_with_on_paper_examples() {
        for (a, b) in [
            ("{A: Str, B: Num}", "{B: Bool, C: Str}"),
            ("{A: Str?, B: Bool + Num, C: Str?}", "{A: Null, B: Num}"),
            ("{l: Bool + Str + {A: Num}}", "{l: {A: Str, B: Num}}"),
            ("[]", "[Num, Num]"),
            ("[Num*]", "[Str, Num]"),
            ("Num + {a: [Num*]}", "{a: []} + Str"),
            ("[{x: Num}]", "[Str, {x: Bool, y: Null}]"),
        ] {
            let (dedup, plain) = fuse_ids_oracle(a, b);
            assert_eq!(dedup, plain, "fuse_ids vs fuse_with on ({a}, {b})");
        }
    }

    #[test]
    fn fuse_ids_positional_arrays_match() {
        let cfg = FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        };
        for (a, b) in [("[Num, Str]", "[Bool, Str]"), ("[Num, Str]", "[Num]")] {
            let (ta, tb) = (parse_type(a).unwrap(), parse_type(b).unwrap());
            let mut interner = TypeInterner::new();
            let mut cache = FuseCache::new();
            let (ia, ib) = (interner.intern(&ta), interner.intern(&tb));
            let fused = fuse_ids(cfg, &mut interner, &mut cache, ia, ib);
            assert_eq!(interner.resolve(fused), fuse_with(cfg, &ta, &tb));
        }
    }

    #[test]
    fn memo_cache_hits_on_repeats_and_swaps() {
        let cfg = FuseConfig::default();
        let mut interner = TypeInterner::new();
        let mut cache = FuseCache::new();
        let a = interner.intern(&parse_type("{x: Num}").unwrap());
        let b = interner.intern(&parse_type("{y: Str}").unwrap());
        let first = fuse_ids(cfg, &mut interner, &mut cache, a, b);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        let again = fuse_ids(cfg, &mut interner, &mut cache, a, b);
        let swapped = fuse_ids(cfg, &mut interner, &mut cache, b, a);
        assert_eq!(first, again);
        assert_eq!(first, swapped, "unordered key covers both orders");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
    }

    /// Absorb `types` into a fresh accumulator.
    fn fold(types: &[Type]) -> DedupAcc {
        let mut acc = DedupAcc::new();
        for t in types {
            acc.absorb_type(FuseConfig::default(), t);
        }
        acc
    }

    #[test]
    fn dedup_fuser_matches_fuse_all() {
        let types: Vec<Type> = values().iter().map(infer_type).collect();
        let acc = fold(&types);
        assert_eq!(acc.records(), 4);
        assert_eq!(acc.distinct_shapes(), 2, "two of four records repeat");
        assert!(acc.cache().hits() > 0, "duplicates hit the cache");
        assert_eq!(acc.schema(), fuse_all(&types));
    }

    #[test]
    fn merge_translates_the_memo_cache() {
        // Give the right side ids that cannot line up with the left's.
        let mut left = fold(&[parse_type("[Bool*]").unwrap()]);
        let right = fold(&[
            parse_type("{x: Num}").unwrap(),
            parse_type("{y: Str}").unwrap(),
        ]);
        assert!(!right.cache().is_empty());
        left.merge(FuseConfig::default(), &right);
        // The translated entry answers the same fusion on the merged side.
        let hits_before = left.cache.hits;
        let a = left.interner.intern(&parse_type("{x: Num}").unwrap());
        let b = left.interner.intern(&parse_type("{y: Str}").unwrap());
        let cfg = FuseConfig::default();
        let mut cache = left.cache.clone();
        fuse_ids(cfg, &mut left.interner.clone(), &mut cache, a, b);
        assert_eq!(cache.hits, hits_before + 1, "translated memo entry hit");
    }

    #[test]
    fn counters_flush_into_the_recorder() {
        let rec = Recorder::enabled();
        let types: Vec<Type> = values().iter().map(infer_type).collect();
        fold(&types).flush_counters(&rec);
        assert_eq!(rec.counter_value("infer.distinct_shapes"), 2);
        assert!(rec.counter_value("fuse.cache_hits") > 0);
        assert!(rec.counter_value("fuse.cache_misses") > 0);
        assert_eq!(
            rec.counter_value("fuse.calls"),
            rec.counter_value("fuse.cache_misses"),
            "a fuse call is a cache miss"
        );
    }
}
