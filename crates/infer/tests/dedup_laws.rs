//! Property tests for the shape-dedup reduce: the hash-consing interner
//! and the memoized id-level fusion must be invisible — every law is an
//! agreement with the plain (uninterned, unmemoized) operators.
//!
//! * Interner round-trip: `resolve(intern(t)) = t` exactly.
//! * `fuse_ids` ≡ `fuse_with` on arbitrary pairs, for both array-fusion
//!   configurations, *including* equal pairs (fusion is only
//!   semantically idempotent: `[Bool] ⊔ [Bool] = [Bool*]`, so the
//!   dedup route may not skip self-fusions — it memoizes them).
//! * The memo cache is transparent: repeats and swapped operand orders
//!   (the key is the unordered id pair, licensed by Theorem 5.4) return
//!   exactly the uncached answer.
//! * Self-fusion reaches its fixpoint in one step at the id level, the
//!   same law the plain operator satisfies.
//! * End-to-end: `DedupAcc` accumulation and arbitrary
//!   partition/merge splits equal `fuse_all` over the same stream.

use proptest::prelude::*;
use typefuse_infer::{
    fuse_all, fuse_ids, fuse_with, infer_type, ArrayFusion, DedupAcc, FuseCache, FuseConfig,
};
use typefuse_types::testkit::{arb_type, arb_value};
use typefuse_types::TypeInterner;

fn configs() -> [FuseConfig; 2] {
    [
        FuseConfig::default(),
        FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ---- Interner round-trip ---------------------------------------------

    #[test]
    fn intern_resolve_is_identity(t in arb_type()) {
        let mut interner = TypeInterner::new();
        let id = interner.intern(&t);
        prop_assert_eq!(interner.resolve(id), t);
    }

    // Hash-consing: equal trees get equal ids, and re-interning the
    // resolved type is stable.
    #[test]
    fn interning_is_stable(t in arb_type()) {
        let mut interner = TypeInterner::new();
        let id = interner.intern(&t);
        prop_assert_eq!(interner.intern(&t), id);
        let resolved = interner.resolve(id);
        prop_assert_eq!(interner.intern(&resolved), id);
    }

    // ---- fuse_ids ≡ fuse_with --------------------------------------------

    #[test]
    fn fuse_ids_agrees_with_fuse_with(t1 in arb_type(), t2 in arb_type()) {
        for cfg in configs() {
            let mut interner = TypeInterner::new();
            let mut cache = FuseCache::new();
            let id1 = interner.intern(&t1);
            let id2 = interner.intern(&t2);
            let fused = fuse_ids(cfg, &mut interner, &mut cache, id1, id2);
            prop_assert_eq!(interner.resolve(fused), fuse_with(cfg, &t1, &t2));
        }
    }

    // Equal pairs too: Fuse(T,T) is *not* syntactically T when T holds a
    // positional array, and the id route must reproduce that exactly.
    #[test]
    fn fuse_ids_agrees_with_fuse_with_on_equal_pairs(t in arb_type()) {
        for cfg in configs() {
            let mut interner = TypeInterner::new();
            let mut cache = FuseCache::new();
            let id = interner.intern(&t);
            let fused = fuse_ids(cfg, &mut interner, &mut cache, id, id);
            prop_assert_eq!(interner.resolve(fused), fuse_with(cfg, &t, &t));
        }
    }

    // ---- Memo transparency (Theorem 5.4 keys the unordered pair) ---------

    #[test]
    fn memo_cache_is_transparent(t1 in arb_type(), t2 in arb_type()) {
        let cfg = FuseConfig::default();
        let mut interner = TypeInterner::new();
        let mut cache = FuseCache::new();
        let id1 = interner.intern(&t1);
        let id2 = interner.intern(&t2);
        let first = fuse_ids(cfg, &mut interner, &mut cache, id1, id2);
        let hits_before = cache.hits();
        // Repeat and swap both replay from the cache…
        let repeat = fuse_ids(cfg, &mut interner, &mut cache, id1, id2);
        let swapped = fuse_ids(cfg, &mut interner, &mut cache, id2, id1);
        prop_assert_eq!(repeat, first);
        prop_assert_eq!(swapped, first);
        if id1 != typefuse_types::TypeId::BOTTOM && id2 != typefuse_types::TypeId::BOTTOM {
            prop_assert_eq!(cache.hits(), hits_before + 2);
        }
        // …and the cached answer is the uncached one.
        prop_assert_eq!(interner.resolve(first), fuse_with(cfg, &t1, &t2));
    }

    // ---- Idempotence at the fixpoint --------------------------------------

    #[test]
    fn id_self_fusion_reaches_fixpoint_in_one_step(t in arb_type()) {
        let cfg = FuseConfig::default();
        let mut interner = TypeInterner::new();
        let mut cache = FuseCache::new();
        let id = interner.intern(&t);
        let once = fuse_ids(cfg, &mut interner, &mut cache, id, id);
        let twice = fuse_ids(cfg, &mut interner, &mut cache, once, once);
        prop_assert_eq!(twice, once, "fuse(u,u) must equal u for u = fuse(t,t)");
    }

    // ---- End-to-end: DedupAcc ≡ fuse_all -----------------------------------

    #[test]
    fn dedup_accumulation_equals_fuse_all(values in prop::collection::vec(arb_value(), 0..12)) {
        let cfg = FuseConfig::default();
        let types: Vec<_> = values.iter().map(infer_type).collect();
        let mut acc = DedupAcc::new();
        for ty in &types {
            acc.absorb_type(cfg, ty);
        }
        prop_assert_eq!(acc.schema(), fuse_all(&types));
        prop_assert_eq!(acc.records(), types.len() as u64);
    }

    // Any split into partitions, merged in order, equals the single
    // stream — the law the batch reduce relies on.
    #[test]
    fn dedup_merge_is_partition_invariant(
        values in prop::collection::vec(arb_value(), 1..12),
        split in any::<prop::sample::Index>(),
    ) {
        let cfg = FuseConfig::default();
        let types: Vec<_> = values.iter().map(infer_type).collect();
        let mid = split.index(types.len() + 1);
        let mut left = DedupAcc::new();
        for ty in &types[..mid] {
            left.absorb_type(cfg, ty);
        }
        let mut right = DedupAcc::new();
        for ty in &types[mid..] {
            right.absorb_type(cfg, ty);
        }
        left.merge(cfg, &right);
        prop_assert_eq!(left.schema(), fuse_all(&types));
        prop_assert_eq!(left.records(), types.len() as u64);
    }
}
