//! Syntactic sub-typing (Definition 4.1: `T <: U ⟺ ⟦T⟧ ⊆ ⟦U⟧`).
//!
//! The paper uses sub-typing only to *state* correctness of fusion
//! (Theorem 5.2), not inside any algorithm. This module provides a
//! syntax-directed checker that is **sound** (`is_subtype(t, u)` implies
//! `⟦t⟧ ⊆ ⟦u⟧`) and complete enough to verify all of Theorem 5.2's
//! instances on normal types: because a normal union has at most one
//! addend per kind, the only completeness gaps left are pathological
//! (e.g. distributing a positional array over a union) and never arise
//! from inference or fusion.

use crate::ty::Type;
use std::cmp::Ordering;

/// Sound syntactic check of `⟦sub⟧ ⊆ ⟦sup⟧`.
pub fn is_subtype(sub: &Type, sup: &Type) -> bool {
    // ∘(sub) decomposition: each addend must be included in `sup`.
    sub.addends().iter().all(|t| addend_subtype(t, sup))
}

/// `t` is a non-union type; `sup` may be a union.
fn addend_subtype(t: &Type, sup: &Type) -> bool {
    sup.addends().iter().any(|u| simple_subtype(t, u))
}

/// Both sides are non-union types.
fn simple_subtype(t: &Type, u: &Type) -> bool {
    match (t, u) {
        (Type::Null, Type::Null)
        | (Type::Bool, Type::Bool)
        | (Type::Num, Type::Num)
        | (Type::Str, Type::Str) => true,

        (Type::Record(r1), Type::Record(r2)) => {
            // Every possible key of r1 must be declared in r2 with a
            // super-type; every mandatory key of r2 must be guaranteed
            // (mandatory) in r1. Both field lists are sorted by key, so
            // one merge pass decides it.
            let mut declared = r2.fields().iter();
            for f1 in r1.fields() {
                let matched = declared
                    .by_ref()
                    .find_map(|f2| match f2.name.cmp(&f1.name) {
                        Ordering::Less if f2.optional => None,
                        Ordering::Less | Ordering::Greater => Some(false),
                        Ordering::Equal => {
                            Some((f2.optional || !f1.optional) && is_subtype(&f1.ty, &f2.ty))
                        }
                    });
                if matched != Some(true) {
                    return false;
                }
            }
            declared.all(|f2| f2.optional)
        }

        (Type::Array(a1), Type::Array(a2)) => {
            a1.len() == a2.len()
                && a1
                    .elems()
                    .iter()
                    .zip(a2.elems())
                    .all(|(x, y)| is_subtype(x, y))
        }

        // [T₁,…,Tₙ] <: [U*] iff every Tᵢ <: U (n = 0 trivially holds).
        (Type::Array(a), Type::Star(body)) => a.elems().iter().all(|x| is_subtype(x, body)),

        (Type::Star(b1), Type::Star(b2)) => is_subtype(b1, b2),

        // ⟦[ε*]⟧ = {[]} = ⟦EArrT⟧.
        (Type::Star(body), Type::Array(a)) => a.is_empty() && matches!(body.as_ref(), Type::Bottom),

        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::{ArrayType, RecordBuilder, Type};

    fn sub(a: &str, b: &str) -> bool {
        is_subtype(
            &crate::parse_type(a).unwrap(),
            &crate::parse_type(b).unwrap(),
        )
    }

    #[test]
    fn reflexivity_on_samples() {
        for text in [
            "Null",
            "{a: Str?, b: Bool + Num}",
            "[Str, Num]",
            "[(Str + {})*]",
            "ε",
        ] {
            assert!(sub(text, text), "{text} <: {text}");
        }
    }

    #[test]
    fn bottom_is_least() {
        for text in ["Null", "{}", "[Num*]", "Num + Str"] {
            assert!(sub("ε", text));
            assert!(!sub(text, "ε"));
        }
    }

    #[test]
    fn union_inclusion() {
        assert!(sub("Num", "Num + Str"));
        assert!(sub("Num + Str", "Null + Num + Str"));
        assert!(!sub("Num + Bool", "Num + Str"));
        assert!(!sub("Num + Str", "Num"));
    }

    #[test]
    fn record_width_and_optionality() {
        // Adding an optional field is widening.
        assert!(sub("{a: Num}", "{a: Num, b: Str?}"));
        // Making a mandatory field optional is widening.
        assert!(sub("{a: Num}", "{a: Num?}"));
        // The reverse directions shrink.
        assert!(!sub("{a: Num, b: Str?}", "{a: Num}"));
        assert!(!sub("{a: Num?}", "{a: Num}"));
        // A missing mandatory field breaks inclusion.
        assert!(!sub("{a: Num}", "{a: Num, b: Str}"));
        // Records are closed: extra keys are not allowed.
        assert!(!sub("{a: Num, x: Bool}", "{a: Num}"));
    }

    #[test]
    fn record_depth() {
        assert!(sub("{a: {b: Num}}", "{a: {b: Num + Str, c: Bool?}}"));
        assert!(!sub("{a: {b: Num}}", "{a: {b: Str}}"));
    }

    #[test]
    fn positional_array_inclusion() {
        assert!(sub("[Num, Str]", "[Num + Bool, Str]"));
        assert!(!sub("[Num, Str]", "[Str, Num]"));
        assert!(!sub("[Num]", "[Num, Num]"));
    }

    #[test]
    fn array_into_star() {
        assert!(sub("[Num, Num]", "[Num*]"));
        assert!(sub("[Num, Str]", "[(Num + Str)*]"));
        assert!(sub("[]", "[Num*]"));
        assert!(!sub("[Num, Bool]", "[Num*]"));
        // Star into positional only for the empty cases.
        assert!(!sub("[Num*]", "[Num]"));
        assert!(sub("[Num*]", "[Num*]"));
    }

    #[test]
    fn star_bottom_equals_empty_array() {
        let star_bottom = Type::star(Type::Bottom);
        let empty = Type::empty_array();
        assert!(is_subtype(&star_bottom, &empty) && is_subtype(&empty, &star_bottom));
    }

    #[test]
    fn star_body_covariance() {
        assert!(sub("[Num*]", "[(Num + Str)*]"));
        assert!(!sub("[(Num + Str)*]", "[Num*]"));
    }

    #[test]
    fn kind_mismatches_fail() {
        assert!(!sub("Num", "Str"));
        assert!(!sub("{}", "[]"));
        assert!(!sub("[]", "{}"));
        assert!(!sub("Null", "Bool"));
    }

    #[test]
    fn transitivity_spot_checks() {
        let a = "{m: Num}";
        let b = "{m: Num, o: Str?}";
        let c = "{m: Num + Null, o: Str + Bool?}";
        assert!(sub(a, b) && sub(b, c) && sub(a, c));
    }

    #[test]
    fn equivalence_detects_field_order() {
        let t1 = RecordBuilder::new()
            .required("a", Type::Num)
            .required("b", Type::Str)
            .into_type();
        let t2 = RecordBuilder::new()
            .required("b", Type::Str)
            .required("a", Type::Num)
            .into_type();
        assert!(is_subtype(&t1, &t2) && is_subtype(&t2, &t1));
        assert_eq!(t1, t2, "canonical sorting makes them identical too");
    }

    #[test]
    fn mixed_positional_array_vs_star_union() {
        let at = Type::Array(ArrayType::new(vec![
            Type::Str,
            Type::Str,
            RecordBuilder::new()
                .required("E", Type::Str)
                .required("F", Type::Num)
                .into_type(),
        ]));
        let simplified = crate::parse_type("[(Str + {E: Str, F: Num})*]").unwrap();
        // The Section 2 simplification is a widening.
        assert!(is_subtype(&at, &simplified));
        assert!(!is_subtype(&simplified, &at));
    }
}
