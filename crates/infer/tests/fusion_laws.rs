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

use proptest::prelude::*;
use typefuse_infer::{fuse, fuse_all, infer_type, Incremental};
use typefuse_types::testkit::{arb_type, arb_value, sample_member};
use typefuse_types::{is_subtype, Type};

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
        typefuse_infer::fuse_into(Default::default(), &mut in_place, &t2);
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
