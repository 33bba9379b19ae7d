//! Property tests for the paper's theorems.
//!
//! * Lemma 5.1  — soundness of inference: `v ∈ ⟦infer(v)⟧`.
//! * Theorem 5.2 — correctness of `Fuse`: `T₁ <: Fuse(T₁,T₂)` and
//!   `T₂ <: Fuse(T₁,T₂)` — checked both syntactically (`is_subtype`) and
//!   semantically (sampled members stay admitted).
//! * Theorem 5.4 — commutativity: `Fuse(T₁,T₂) = Fuse(T₂,T₁)`.
//! * Theorem 5.5 — associativity:
//!   `Fuse(Fuse(T₁,T₂),T₃) = Fuse(T₁,Fuse(T₂,T₃))`.
//! * Normality preservation: fusion outputs satisfy all structural
//!   invariants.
//! * Idempotence: `Fuse(T,T) = T` (not stated in the paper but implied by
//!   its examples, and required for the reduce to be stable under
//!   duplicated partitions).
//!
//! And the two other kernels against the specification `fuse_with`
//! (Figure 6 read literally): the in-place [`fuse_into`] — same result,
//! normal output, a truthful changed flag — and the id-level
//! [`fuse_ids`] of the shape-dedup route, whose interner round-trips
//! every type and whose memo cache is transparent. The accumulators
//! built on them are held to the monoid laws in `acc_laws.rs`.

use proptest::prelude::*;
use typefuse_infer::{
    fuse, fuse_all, fuse_ids, fuse_into, fuse_with, infer_type, Acc, ArrayFusion, FuseCache,
    FuseConfig, Incremental,
};
use typefuse_types::testkit::{arb_type, arb_type_sized, arb_value, sample_member};
use typefuse_types::{
    is_subtype, parse_type, ArrayType, Field, RecordType, Type, TypeId, TypeInterner,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ---- Lemma 5.1 -------------------------------------------------------

    #[test]
    fn inference_is_sound(v in arb_value()) {
        let t = infer_type(&v);
        prop_assert!(t.admits(&v), "{} does not admit {}", t, v);
        prop_assert!(t.check_invariants().is_ok());
    }

    // ---- Theorem 5.4 -----------------------------------------------------

    #[test]
    fn fuse_is_commutative(t1 in arb_type(), t2 in arb_type()) {
        prop_assert_eq!(fuse(&t1, &t2), fuse(&t2, &t1));
    }

    // ---- Theorem 5.5 -----------------------------------------------------

    #[test]
    fn fuse_is_associative(t1 in arb_type(), t2 in arb_type(), t3 in arb_type()) {
        let left = fuse(&fuse(&t1, &t2), &t3);
        let right = fuse(&t1, &fuse(&t2, &t3));
        prop_assert_eq!(left, right);
    }

    // ---- Theorem 5.2, syntactic ------------------------------------------

    #[test]
    fn fuse_is_correct_syntactically(t1 in arb_type(), t2 in arb_type()) {
        let fused = fuse(&t1, &t2);
        prop_assert!(is_subtype(&t1, &fused), "{} </: {}", t1, fused);
        prop_assert!(is_subtype(&t2, &fused), "{} </: {}", t2, fused);
    }

    // ---- Theorem 5.2, semantic -------------------------------------------

    #[test]
    fn fuse_preserves_membership(
        (t1, v) in arb_type().prop_flat_map(|t| {
            let s = sample_member(&t);
            (Just(t), s)
        }),
        t2 in arb_type(),
    ) {
        if let Some(v) = v {
            let fused = fuse(&t1, &t2);
            prop_assert!(fused.admits(&v), "{} lost member {} after fusing with {}", fused, v, t2);
        }
    }

    // ---- Structural properties -------------------------------------------

    #[test]
    fn fuse_preserves_normality(t1 in arb_type(), t2 in arb_type()) {
        prop_assert!(fuse(&t1, &t2).check_invariants().is_ok());
    }

    // Fusion is *not* syntactically idempotent on raw types: a positional
    // array meeting itself collapses to its starred form ([] ⊔ [] = [ε*]).
    // But self-fusion collapses every positional array, and on collapsed
    // types fusion is a true fixpoint — one self-fusion always stabilises.
    #[test]
    fn self_fusion_reaches_fixpoint_in_one_step(t in arb_type()) {
        let once = fuse(&t, &t);
        prop_assert!(is_subtype(&t, &once), "{} </: {}", t, once);
        prop_assert_eq!(fuse(&once, &once), once);
    }

    #[test]
    fn bottom_is_identity(t in arb_type()) {
        prop_assert_eq!(fuse(&Type::Bottom, &t), t.clone());
        prop_assert_eq!(fuse(&t, &Type::Bottom), t);
    }

    // Re-fusing an input into the result only moves upward in the subtype
    // order, and the fully collapsed form is an absorbing fixpoint.
    #[test]
    fn refusing_inputs_is_monotone(t1 in arb_type(), t2 in arb_type()) {
        let once = fuse(&t1, &t2);
        let again = fuse(&once, &t1);
        prop_assert!(is_subtype(&once, &again), "{} </: {}", once, again);
        let stable = fuse(&once, &once);
        prop_assert_eq!(fuse(&stable, &once), stable.clone());
        prop_assert_eq!(fuse(&stable, &stable), stable);
    }

    // ---- End-to-end: values in, one schema out ----------------------------

    #[test]
    fn fused_schema_admits_every_input(values in prop::collection::vec(arb_value(), 1..12)) {
        let types: Vec<Type> = values.iter().map(infer_type).collect();
        let schema = fuse_all(&types);
        for v in &values {
            prop_assert!(schema.admits(v), "{} does not admit {}", schema, v);
        }
        prop_assert!(schema.check_invariants().is_ok());
    }

    // Any parenthesisation/order of the reduce gives the same schema: the
    // property Spark relies on (Section 5.2).
    #[test]
    fn reduce_order_is_irrelevant(
        values in prop::collection::vec(arb_value(), 2..10),
        split in any::<prop::sample::Index>(),
    ) {
        let types: Vec<Type> = values.iter().map(infer_type).collect();
        let sequential = fuse_all(&types);

        // Tree shape: fuse two halves.
        let mid = 1 + split.index(types.len() - 1);
        let left = fuse_all(&types[..mid]);
        let right = fuse_all(&types[mid..]);
        prop_assert_eq!(fuse(&left, &right), sequential.clone());

        // Reversed order.
        let reversed = fuse_all(types.iter().rev());
        prop_assert_eq!(reversed, sequential);
    }

    #[test]
    fn incremental_equals_batch(values in prop::collection::vec(arb_value(), 0..10)) {
        let mut inc = Incremental::new();
        for v in &values {
            inc.absorb(v);
        }
        let batch = fuse_all(&values.iter().map(infer_type).collect::<Vec<_>>());
        prop_assert_eq!(inc.schema(), &batch);
        prop_assert_eq!(inc.count(), values.len() as u64);
    }

    // ---- In-place fusion agrees with by-reference fusion --------------------
    #[test]
    fn fuse_into_agrees_with_fuse(t1 in arb_type(), t2 in arb_type()) {
        let by_ref = fuse(&t1, &t2);
        let mut in_place = t1.clone();
        fuse_into(Default::default(), &mut in_place, &t2);
        prop_assert_eq!(in_place, by_ref);
    }

    // ---- Streaming inference agrees with tree inference ---------------------
    #[test]
    fn streaming_inference_agrees_with_tree(v in arb_value()) {
        let text = v.to_string();
        let direct = typefuse_infer::streaming::infer_type_from_str(&text).unwrap();
        prop_assert_eq!(direct, infer_type(&v));
    }

    // ---- Completeness (Section 1) ------------------------------------------
    // Every path traversable in any input value is traversable in the
    // fused schema — the property enabling schema-based query rewriting.
    #[test]
    fn fused_schema_covers_every_value_path(
        values in prop::collection::vec(arb_value(), 1..10)
    ) {
        let schema = fuse_all(&values.iter().map(infer_type).collect::<Vec<_>>());
        for v in &values {
            prop_assert!(
                typefuse_types::paths::covers_value_paths(&schema, v),
                "{} does not cover paths of {}", schema, v
            );
        }
    }

    // Fusion only adds paths, never removes them.
    #[test]
    fn fusion_is_path_monotone(t1 in arb_type(), t2 in arb_type()) {
        let fused = fuse(&t1, &t2);
        let fused_paths = typefuse_types::paths::type_paths(&fused);
        for p in typefuse_types::paths::type_paths(&t1) {
            prop_assert!(fused_paths.contains(&p), "path {} lost", p);
        }
    }

    // Fused size never exceeds the sum of input sizes plus the union node:
    // the succinctness guarantee that motivates fusion (Section 2).
    #[test]
    fn fusion_never_blows_up(t1 in arb_type(), t2 in arb_type()) {
        let fused = fuse(&t1, &t2);
        prop_assert!(
            fused.size() <= t1.size() + t2.size() + 1,
            "|{}| = {} > {} + {} + 1", fused, fused.size(), t1.size(), t2.size()
        );
    }
}

const MODES: [ArrayFusion; 2] = [ArrayFusion::Collapse, ArrayFusion::PositionalWhenAligned];

/// Hold one `fuse_into` step to the specification: same result, normal
/// output, truthful flag. Returns the fused accumulator.
fn check_step(cfg: FuseConfig, acc: &Type, other: &Type) -> Type {
    let expected = fuse_with(cfg, acc, other);
    let mut in_place = acc.clone();
    let changed = fuse_into(cfg, &mut in_place, other);
    assert_eq!(in_place, expected, "{cfg:?}: fuse_into({acc}, {other})");
    in_place
        .check_invariants()
        .unwrap_or_else(|e| panic!("{cfg:?}: fuse_into({acc}, {other}) = {in_place}: {e}"));
    assert_eq!(
        changed,
        in_place != *acc,
        "{cfg:?}: flag of fuse_into({acc}, {other}) = {in_place}"
    );
    in_place
}

fn check_both_modes(acc: &Type, other: &Type) {
    for array_fusion in MODES {
        check_step(FuseConfig { array_fusion }, acc, other);
    }
}

/// Records over a 40-key alphabet, wide enough that one side often
/// lacks more keys than the kernel inserts one by one, so the rebuild
/// path runs as well.
fn arb_wide_record() -> impl Strategy<Value = Type> {
    let field = (0..40usize, arb_type_sized(1, 3), any::<bool>());
    prop::collection::vec(field, 0..30).prop_map(|fields| {
        let mut seen = std::collections::HashSet::new();
        let unique = fields
            .into_iter()
            .filter(|(key, ..)| seen.insert(*key))
            .map(|(key, ty, optional)| Field {
                name: format!("k{key:02}").into(),
                ty,
                optional,
            })
            .collect();
        Type::Record(RecordType::new(unique).expect("keys deduplicated"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // ---- fuse_into ≡ fuse_with ----------------------------------------------

    // Unions, stars, positional arrays, optional fields, empty containers
    // on either side — the whole domain of the theorems.
    #[test]
    fn agrees_on_arbitrary_normal_types(t1 in arb_type(), t2 in arb_type()) {
        check_both_modes(&t1, &t2);
        check_both_modes(&t2, &t1);
    }

    // The first absorb of `t2` may leave a positional array of `t2`'s
    // in place and the second collapse it against itself; from then on
    // `t2` is admitted and absorbing it reports no change.
    #[test]
    fn an_admitted_type_changes_nothing(t1 in arb_type(), t2 in arb_type()) {
        for array_fusion in MODES {
            let cfg = FuseConfig { array_fusion };
            let once = check_step(cfg, &t1, &t2);
            let mut acc = check_step(cfg, &once, &t2);
            let settled = acc.clone();
            prop_assert!(!fuse_into(cfg, &mut acc, &t2), "third absorb of {}", t2);
            prop_assert_eq!(acc, settled);
        }
    }

    #[test]
    fn wide_records_insert_and_rebuild(r1 in arb_wide_record(), r2 in arb_wide_record()) {
        check_both_modes(&r1, &r2);
        check_both_modes(&r1.clone().plus(Type::Num), &r2);
        check_both_modes(&r1, &Type::star(Type::Str).plus(r2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // A long-lived accumulator: 200 absorbs, each held to the same fold
    // of the specification.
    #[test]
    fn a_chain_of_200_absorbs(types in prop::collection::vec(arb_type(), 200)) {
        for array_fusion in MODES {
            let cfg = FuseConfig { array_fusion };
            let mut acc = Type::Bottom;
            for ty in &types {
                acc = check_step(cfg, &acc, ty);
            }
        }
    }
}

/// `[T*] ⊔ [e₁,…,eₙ]` absorbs the elements one by one where the
/// specification collapses them first; so does a positional accumulator
/// meeting a star. Every star/array pair over a pool with nested
/// positional arrays, records, stars and unions, in both modes and both
/// directions: 10 bodies × 1 464 arrays × 2 × 2.
#[test]
fn star_against_array_enumeration() {
    let parse = |texts: &[&str]| -> Vec<Type> {
        texts
            .iter()
            .map(|t| parse_type(t).unwrap_or_else(|e| panic!("{t}: {e}")))
            .collect()
    };
    let elems = parse(&[
        "Num",
        "Str",
        "Null + Bool",
        "{a: Num}",
        "{a: Str?, b: [Num, Num]}",
        "[]",
        "[Num]",
        "[Num, Str]",
        "[[Num], [Str, Bool]]",
        "[{a: Bool}*]",
        "Num + [Str, [Null]]",
    ]);
    let mut bodies = parse(&[
        "Num",
        "Bool + Str",
        "{a: Num, c: Null}",
        "[Str]",
        "[Num, Bool]",
        "[[Num], [Num]]",
        "[Bool*]",
        "Str + {b: [Str, Str]?}",
        "Null + [[Str*], []]",
    ]);
    bodies.push(Type::Bottom);

    let mut arrays: Vec<Vec<Type>> = vec![Vec::new()];
    for len in 1..=3 {
        let shorter: Vec<Vec<Type>> = arrays
            .iter()
            .filter(|a| a.len() == len - 1)
            .cloned()
            .collect();
        for prefix in shorter {
            for e in &elems {
                let mut longer = prefix.clone();
                longer.push(e.clone());
                arrays.push(longer);
            }
        }
    }
    assert_eq!(arrays.len(), 1 + 11 + 121 + 1331);

    for body in &bodies {
        let star = Type::star(body.clone());
        for elems in &arrays {
            let array = Type::Array(ArrayType::new(elems.clone()));
            check_both_modes(&star, &array);
            check_both_modes(&array, &star);
        }
    }
}

/// Aligned and misaligned positional arrays, where the two modes part.
#[test]
fn positional_arrays_follow_the_mode() {
    for (a, b) in [
        ("[Num, Str]", "[Bool, Str]"),
        ("[Num, Str]", "[Bool]"),
        ("[[Num], {a: Num}]", "[[Str], {b: Str}]"),
        ("[[Num], [Num, Num]]", "[[Str, Str], [Str]]"),
        ("{x: [Num, [Str]]}", "{x: [Null, [Bool]]?}"),
        ("[]", "[]"),
        ("[]", "[Num]"),
    ] {
        let (ta, tb) = (parse_type(a).unwrap(), parse_type(b).unwrap());
        check_both_modes(&ta, &tb);
        check_both_modes(&tb, &ta);
    }
}

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
        if id1 != TypeId::BOTTOM && id2 != TypeId::BOTTOM {
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
}
