//! Differential properties of the event fast path: folding a value's
//! serialized bytes through the streaming route (the direct typer, with
//! the event fold as its replay) must be indistinguishable
//! from materialising the tree and running Figure 4 on it. This is the
//! contract that lets the pipeline default to the event route while the
//! paper's correctness results are stated for the tree one.

use proptest::prelude::*;
use typefuse_infer::streaming::{
    infer_type_from_slice, infer_type_from_str, infer_type_from_str_recorded,
};
use typefuse_infer::{fuse_all, infer_type};
use typefuse_json::{to_string, to_string_pretty};
use typefuse_obs::Recorder;
use typefuse_types::testkit::arb_value;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The core equivalence: serialize → event fold == tree inference.
    #[test]
    fn event_fold_of_serialized_bytes_matches_tree_inference(v in arb_value()) {
        let bytes = to_string(&v).into_bytes();
        prop_assert_eq!(infer_type_from_slice(&bytes).unwrap(), infer_type(&v));
    }

    // Whitespace-insensitive: the pretty serialization (newlines and
    // indentation between tokens) folds to the same type.
    #[test]
    fn pretty_serialization_folds_identically(v in arb_value()) {
        let pretty = to_string_pretty(&v);
        prop_assert_eq!(infer_type_from_str(&pretty).unwrap(), infer_type(&v));
    }

    // Lemma 5.1 soundness holds on the event route: the inferred type
    // admits the value it came from.
    #[test]
    fn event_inferred_type_admits_the_value(v in arb_value()) {
        let ty = infer_type_from_str(&to_string(&v)).unwrap();
        prop_assert!(ty.admits(&v), "{} does not admit {}", ty, v);
    }

    // The recorded variant is observationally pure: same type, and one
    // `infer.types` tick per record regardless of the recorder state.
    #[test]
    fn recorded_event_fold_is_observationally_pure(v in arb_value()) {
        let enabled = Recorder::enabled();
        let text = to_string(&v);
        let ty = infer_type_from_str_recorded(&text, &enabled).unwrap();
        prop_assert_eq!(&ty, &infer_type(&v));
        prop_assert_eq!(enabled.counter_value("infer.types"), 1);
        prop_assert!(enabled.counter_value("infer.events") >= 1);

        let disabled = Recorder::disabled();
        prop_assert_eq!(
            infer_type_from_str_recorded(&text, &disabled).unwrap(),
            ty
        );
        prop_assert!(disabled.snapshot().counters.is_empty());
    }

    // End-to-end over a whole stream: fusing event-route types equals
    // fusing tree-route types — the schemas of the two Map paths are
    // byte-identical, not merely equivalent.
    #[test]
    fn fused_schemas_agree_across_routes(values in prop::collection::vec(arb_value(), 1..12)) {
        let via_events: Vec<_> = values
            .iter()
            .map(|v| infer_type_from_str(&to_string(v)).unwrap())
            .collect();
        let via_trees: Vec<_> = values.iter().map(infer_type).collect();
        let a = fuse_all(&via_events);
        let b = fuse_all(&via_trees);
        prop_assert_eq!(a.to_string(), b.to_string(), "schemas must render identically");
        prop_assert_eq!(a, b);
    }
}
