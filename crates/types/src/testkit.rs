//! Proptest strategies for random *normal* types (feature `testkit`).
//!
//! The fusion laws (Theorems 5.2, 5.4, 5.5) are stated over normal types;
//! these strategies generate exactly those, so downstream property tests
//! can quantify over the full domain of the theorems — including starred
//! arrays, optional fields and kind-unique unions that plain inference
//! would only reach after several fusion steps.

use crate::ty::{ArrayType, Field, RecordType, Type};
use proptest::prelude::*;

pub use typefuse_json::testkit::{arb_key, arb_scalar, arb_value, arb_value_sized};

/// Strategy for basic types.
pub fn arb_basic_type() -> impl Strategy<Value = Type> {
    prop::sample::select(vec![Type::Null, Type::Bool, Type::Num, Type::Str])
}

/// Strategy for arbitrary normal types with bounded depth and width.
pub fn arb_type() -> impl Strategy<Value = Type> {
    arb_type_sized(3, 4)
}

/// Strategy with explicit recursion `depth` and container `width` bounds.
///
/// Every generated type satisfies [`Type::check_invariants`]; this is
/// itself asserted by a property test below.
pub fn arb_type_sized(depth: u32, width: usize) -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        8 => arb_basic_type(),
        1 => Just(Type::empty_record()),
        1 => Just(Type::empty_array()),
        1 => Just(Type::star(Type::Bottom)),
    ];
    leaf.prop_recursive(depth, 48, width as u32, move |inner| {
        let field =
            (arb_key(), inner.clone(), any::<bool>()).prop_map(|(name, ty, optional)| Field {
                name: name.into(),
                ty,
                optional,
            });
        let record = prop::collection::vec(field, 0..=width).prop_map(|fields| {
            // Deduplicate colliding keys, keeping the first occurrence.
            let mut seen = std::collections::HashSet::new();
            let unique: Vec<Field> = fields
                .into_iter()
                .filter(|f| seen.insert(f.name.clone()))
                .collect();
            Type::Record(RecordType::new(unique).expect("keys deduplicated"))
        });
        let array = prop::collection::vec(inner.clone(), 0..=width)
            .prop_map(|elems| Type::Array(ArrayType::new(elems)));
        let star = inner.clone().prop_map(Type::star);
        let union = prop::collection::vec(inner, 2..=4).prop_map(|addends| {
            // Keep at most one addend per kind to preserve normality.
            let mut by_kind: [Option<Type>; 6] = Default::default();
            for t in addends {
                for a in t.addends() {
                    let k = a.kind().expect("addends are kinded") as usize;
                    by_kind[k].get_or_insert_with(|| a.clone());
                }
            }
            Type::union(by_kind.into_iter().flatten()).expect("kinds unique")
        });
        prop_oneof![
            3 => record,
            2 => array,
            2 => star,
            2 => union,
        ]
    })
}

/// Strategy for a union-free, record-heavy type: the shape produced by the
/// Map phase (Figure 4), useful for tests that start "pre-fusion".
pub fn arb_inferred_shape(depth: u32, width: usize) -> impl Strategy<Value = Type> {
    arb_basic_type().prop_recursive(depth, 32, width as u32, move |inner| {
        let field = (arb_key(), inner.clone()).prop_map(|(name, ty)| Field::required(name, ty));
        let record = prop::collection::vec(field, 0..=width).prop_map(|fields| {
            let mut seen = std::collections::HashSet::new();
            let unique: Vec<Field> = fields
                .into_iter()
                .filter(|f| seen.insert(f.name.clone()))
                .collect();
            Type::Record(RecordType::new(unique).expect("keys deduplicated"))
        });
        let array = prop::collection::vec(inner, 0..=width)
            .prop_map(|elems| Type::Array(ArrayType::new(elems)));
        prop_oneof![2 => record, 1 => array]
    })
}

/// Strategy producing a value admitted by the given type, or `None` when
/// the type is empty (`ε` or `[…]` of an empty type).
///
/// This is a *sampler* for `⟦T⟧`, used to test that fusion only grows
/// value sets: sample `v ∈ ⟦T⟧`, then check `v ∈ ⟦Fuse(T, U)⟧`.
pub fn sample_member(t: &Type) -> BoxedStrategy<Option<typefuse_json::Value>> {
    use typefuse_json::{Map, Number, Value};
    match t {
        Type::Bottom => Just(None).boxed(),
        Type::Null => Just(Some(Value::Null)).boxed(),
        Type::Bool => any::<bool>().prop_map(|b| Some(Value::Bool(b))).boxed(),
        Type::Num => any::<i32>()
            .prop_map(|i| Some(Value::Number(Number::Int(i64::from(i)))))
            .boxed(),
        Type::Str => "[a-z]{0,6}".prop_map(|s| Some(Value::String(s))).boxed(),
        Type::Record(rt) => {
            let fields: Vec<_> = rt
                .fields()
                .iter()
                .map(|f| {
                    let name = f.name.clone();
                    let optional = f.optional;
                    (
                        Just(name),
                        sample_member(&f.ty),
                        any::<bool>().prop_map(move |skip| skip && optional),
                    )
                })
                .collect();
            fields
                .prop_map(|entries| {
                    let mut m = Map::new();
                    for (name, member, skip) in entries {
                        match member {
                            Some(v) if !skip => m.insert_unchecked(name.to_string(), v),
                            Some(_) => {} // optional field omitted
                            // A mandatory field of an empty type: the whole
                            // record type is uninhabited.
                            None if !skip => return None,
                            None => {}
                        }
                    }
                    Some(Value::Object(m))
                })
                .boxed()
        }
        Type::Array(at) => {
            let elems: Vec<_> = at.elems().iter().map(sample_member).collect();
            elems
                .prop_map(|members| {
                    members
                        .into_iter()
                        .collect::<Option<Vec<_>>>()
                        .map(Value::Array)
                })
                .boxed()
        }
        Type::Star(body) => {
            let body = body.clone();
            prop::collection::vec(sample_member(&body), 0..3)
                .prop_map(|members| {
                    // Uninhabited bodies still admit the empty list.
                    Some(Value::Array(members.into_iter().flatten().collect()))
                })
                .boxed()
        }
        Type::Union(u) => {
            let samplers: Vec<_> = u.addends().iter().map(sample_member).collect();
            let n = samplers.len();
            (0..n, samplers)
                .prop_map(move |(pick, members)| {
                    members
                        .into_iter()
                        .cycle()
                        .skip(pick)
                        .take(n)
                        .flatten()
                        .next()
                })
                .boxed()
        }
    }
}

/// Check that a sampled member really is admitted — used as a sanity
/// property on the sampler itself.
pub fn assert_sampler_sound(t: &Type, v: &Option<typefuse_json::Value>) -> bool {
    match v {
        Some(v) => t.admits(v),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest! {
        #[test]
        fn generated_types_are_normal(t in arb_type()) {
            prop_assert!(t.check_invariants().is_ok(), "not normal: {}", t);
        }

        #[test]
        fn inferred_shapes_are_normal_and_union_free(t in arb_inferred_shape(3, 4)) {
            prop_assert!(t.check_invariants().is_ok());
            fn union_free(t: &Type) -> bool {
                match t {
                    Type::Union(_) => false,
                    Type::Record(rt) => rt.fields().iter().all(|f| union_free(&f.ty)),
                    Type::Array(at) => at.elems().iter().all(union_free),
                    Type::Star(b) => union_free(b),
                    _ => true,
                }
            }
            prop_assert!(union_free(&t));
        }

        #[test]
        fn notation_round_trips_on_random_types(t in arb_type()) {
            // print → parse → print is a fixpoint (the first parse may
            // canonicalise [ε*] to [], nothing else).
            let once = crate::parse_type(&t.to_string()).unwrap();
            let twice = crate::parse_type(&once.to_string()).unwrap();
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn sampler_is_sound((t, v) in arb_type().prop_flat_map(|t| {
            let s = sample_member(&t);
            (Just(t), s)
        })) {
            prop_assert!(assert_sampler_sound(&t, &v), "type {} rejected sample {:?}", t, v);
        }

        #[test]
        fn subtype_reflexive_on_random_types(t in arb_type()) {
            prop_assert!(crate::is_subtype(&t, &t));
        }

        // Soundness of the syntactic subtype check against the semantics:
        // if T <: U syntactically, every sampled member of T is admitted
        // by U.
        #[test]
        fn subtype_is_semantically_sound(
            (t, v) in arb_type().prop_flat_map(|t| {
                let s = sample_member(&t);
                (Just(t), s)
            }),
            u in arb_type(),
        ) {
            if crate::is_subtype(&t, &u) {
                if let Some(v) = v {
                    prop_assert!(u.admits(&v), "{} <: {} but member {} rejected", t, u, v);
                }
            }
        }

        // Subtyping is transitive on the types we generate.
        #[test]
        fn subtype_transitive_via_unions(t in arb_type(), u in arb_type()) {
            // t <: t+u <: t+u (trivial) and t <: t+u when kinds allow.
            if let Ok(joined) = crate::Type::union([t.clone(), u.clone()]) {
                prop_assert!(crate::is_subtype(&t, &joined));
                prop_assert!(crate::is_subtype(&u, &joined));
            }
        }

        #[test]
        fn size_and_depth_agree_with_parse(t in arb_type()) {
            let reparsed = crate::parse_type(&t.to_string()).unwrap();
            // Canonicalisation can only shrink ([ε*] → []).
            prop_assert!(reparsed.size() <= t.size());
        }
    }
}
