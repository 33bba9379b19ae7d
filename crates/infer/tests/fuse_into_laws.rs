//! The in-place kernel against the specification.
//!
//! [`fuse_into`] mutates the accumulator where it stands; [`fuse_with`]
//! is Figure 6 read literally and builds a fresh tree. They must agree
//! byte for byte on every pair of normal types, in both [`ArrayFusion`]
//! modes, and `fuse_into`'s return value must be exactly "the
//! accumulator differs from what it was".

use proptest::prelude::*;
use typefuse_infer::{fuse_into, fuse_with, ArrayFusion, FuseConfig};
use typefuse_types::testkit::{arb_type, arb_type_sized};
use typefuse_types::{parse_type, ArrayType, Field, RecordType, Type};

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

    // Unions, stars, positional arrays, optional fields, empty containers
    // on either side — the whole domain of the theorems.
    #[test]
    fn agrees_on_arbitrary_normal_types(t1 in arb_type(), t2 in arb_type()) {
        check_both_modes(&t1, &t2);
        check_both_modes(&t2, &t1);
    }

    #[test]
    fn bottom_is_the_identity_on_either_side(t in arb_type()) {
        for array_fusion in MODES {
            let cfg = FuseConfig { array_fusion };
            prop_assert_eq!(check_step(cfg, &Type::Bottom, &t), t.clone());
            prop_assert_eq!(check_step(cfg, &t, &Type::Bottom), t.clone());
        }
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
