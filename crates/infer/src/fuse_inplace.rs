//! In-place fusion: the accumulator-friendly variant of [`crate::fuse`].
//!
//! The Reduce phase folds millions of record types into one accumulator.
//! The by-reference [`fuse`](crate::fuse) clones *both* inputs' subtrees
//! on every step — O(|accumulator|) allocation per record even when the
//! record adds nothing new. On key-explosive datasets (Wikidata's
//! ids-as-keys) the accumulator grows into tens of thousands of nodes and
//! that clone dominates the whole pipeline.
//!
//! [`fuse_into`] instead *consumes* the accumulator: subtrees that the
//! incoming type does not touch are moved, not copied, so absorbing a
//! record costs O(|record| + touched accumulator nodes). The result is
//! bit-identical to the by-reference fusion (property-tested), because
//! both implement the same Figure 6 specification.

use crate::fuse::{fuse_with, ArrayFusion, FuseConfig};
use typefuse_types::{ArrayType, Field, RecordType, Type};

/// Fuse `other` into `acc` in place: `*acc = Fuse(*acc, other)`, moving
/// unchanged subtrees of `acc` instead of cloning them.
pub fn fuse_into(cfg: FuseConfig, acc: &mut Type, other: &Type) {
    let current = std::mem::replace(acc, Type::Bottom);
    *acc = fuse_owned(cfg, current, other);
}

/// Owned-left variant of `Fuse`.
fn fuse_owned(cfg: FuseConfig, left: Type, right: &Type) -> Type {
    // Kind-indexed slots, seeded by moving the left addends in.
    let mut slots: [Option<Type>; 6] = Default::default();
    for addend in left.into_addends() {
        let k = addend.kind().expect("union addends are kinded") as usize;
        debug_assert!(slots[k].is_none(), "left operand is normal");
        slots[k] = Some(addend);
    }
    for addend in right.addends() {
        let k = addend.kind().expect("union addends are kinded") as usize;
        slots[k] = Some(match slots[k].take() {
            None => addend.clone(),
            Some(prev) => lfuse_owned(cfg, prev, addend),
        });
    }
    Type::union(slots.into_iter().flatten()).expect("one addend per kind by construction")
}

/// Owned-left `LFuse`: both sides have the same kind; `left` is consumed.
fn lfuse_owned(cfg: FuseConfig, left: Type, right: &Type) -> Type {
    debug_assert_eq!(left.kind(), right.kind());
    match (left, right) {
        (l @ (Type::Null | Type::Bool | Type::Num | Type::Str), _) => l,

        (Type::Record(r1), Type::Record(r2)) => lfuse_records_owned(cfg, r1, r2),

        // Array cases: the collapse of the *borrowed* side is cold (it
        // happens at most once per array position before everything is
        // starred), so it reuses the by-reference machinery.
        (Type::Star(b1), Type::Star(b2)) => Type::star(fuse_owned(cfg, *b1, b2)),
        (Type::Star(b1), Type::Array(a2)) => {
            Type::star(fuse_owned(cfg, *b1, &collapse_ref(cfg, a2)))
        }
        (Type::Array(a1), Type::Star(b2)) => {
            let collapsed = collapse_owned(cfg, a1);
            Type::star(fuse_owned(cfg, collapsed, b2))
        }
        (Type::Array(a1), Type::Array(a2))
            if cfg.array_fusion == ArrayFusion::PositionalWhenAligned && a1.len() == a2.len() =>
        {
            let elems = a1.into_elems().into_iter().zip(a2.elems());
            Type::Array(ArrayType::new(
                elems.map(|(x, y)| fuse_owned(cfg, x, y)).collect(),
            ))
        }
        (Type::Array(a1), Type::Array(a2)) => {
            let collapsed = collapse_owned(cfg, a1);
            Type::star(fuse_owned(cfg, collapsed, &collapse_ref(cfg, a2)))
        }

        (l, r) => unreachable!("lfuse_owned on mismatched kinds: {l} vs {r}"),
    }
}

fn collapse_owned(cfg: FuseConfig, at: ArrayType) -> Type {
    // Consume the element types one by one; each element is moved into
    // the accumulator via the owned-right trick (swap sides — fusion is
    // commutative, Theorem 5.4, so Fuse(elem, acc) = Fuse(acc, elem)).
    let mut acc = Type::Bottom;
    for elem in at.into_elems() {
        acc = fuse_owned(cfg, elem, &acc);
    }
    acc
}

fn collapse_ref(cfg: FuseConfig, at: &ArrayType) -> Type {
    at.elems()
        .iter()
        .fold(Type::Bottom, |acc, t| fuse_with(cfg, &acc, t))
}

/// Record merge-join where the left fields are moved.
fn lfuse_records_owned(cfg: FuseConfig, r1: RecordType, r2: &RecordType) -> Type {
    let f2s = r2.fields();
    let mut out: Vec<Field> = Vec::with_capacity(r1.len().max(f2s.len()));
    let mut left_iter = r1.into_fields().into_iter().peekable();
    let mut j = 0;
    loop {
        match (left_iter.peek(), f2s.get(j)) {
            (Some(f1), Some(f2)) => match f1.name.cmp(&f2.name) {
                std::cmp::Ordering::Equal => {
                    let f1 = left_iter.next().expect("peeked");
                    out.push(Field {
                        name: f1.name,
                        ty: fuse_owned(cfg, f1.ty, &f2.ty),
                        optional: f1.optional || f2.optional,
                    });
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    let mut f1 = left_iter.next().expect("peeked");
                    f1.optional = true;
                    out.push(f1);
                }
                std::cmp::Ordering::Greater => {
                    out.push(Field {
                        name: f2.name.clone(),
                        ty: f2.ty.clone(),
                        optional: true,
                    });
                    j += 1;
                }
            },
            (Some(_), None) => {
                let mut f1 = left_iter.next().expect("peeked");
                f1.optional = true;
                out.push(f1);
            }
            (None, Some(f2)) => {
                out.push(Field {
                    name: f2.name.clone(),
                    ty: f2.ty.clone(),
                    optional: true,
                });
                j += 1;
            }
            (None, None) => break,
        }
    }
    Type::Record(RecordType::from_sorted(out).expect("merge-join keeps order"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fuse, fuse_all, infer_type};
    use typefuse_json::json;
    use typefuse_types::parse_type;

    fn check_pair(a: &str, b: &str) {
        let (ta, tb) = (parse_type(a).unwrap(), parse_type(b).unwrap());
        let by_ref = fuse(&ta, &tb);
        let mut in_place = ta.clone();
        fuse_into(FuseConfig::default(), &mut in_place, &tb);
        assert_eq!(in_place, by_ref, "fuse_into({a}, {b})");
    }

    #[test]
    fn agrees_with_by_reference_fusion() {
        for (a, b) in [
            ("Num", "Num"),
            ("Num", "Str"),
            ("{A: Str, B: Num}", "{B: Bool, C: Str}"),
            ("{A: Str?, B: Bool + Num, C: Str?}", "{A: Null, B: Num}"),
            ("[Num, Bool]", "[Str*]"),
            ("[]", "[]"),
            ("ε", "{a: Num}"),
            ("{a: Num}", "ε"),
            ("Num + {a: [Str, Str]}", "{a: []} + Bool"),
            (
                "[(Str + {E: Str, F: Num})*]",
                "[Str, Str, {E: Str, F: Num}]",
            ),
        ] {
            check_pair(a, b);
        }
    }

    #[test]
    fn accumulating_a_stream_matches_batch() {
        let values = [
            json!({"a": 1, "b": "x"}),
            json!({"a": null, "c": [1, {"d": true}]}),
            json!({"b": "y", "c": []}),
            json!(42),
        ];
        let mut acc = Type::Bottom;
        for v in &values {
            fuse_into(FuseConfig::default(), &mut acc, &infer_type(v));
        }
        let batch = fuse_all(&values.iter().map(infer_type).collect::<Vec<_>>());
        assert_eq!(acc, batch);
    }

    #[test]
    fn output_is_normal() {
        let mut acc = parse_type("{a: [Num, Num], b: Str}").unwrap();
        fuse_into(
            FuseConfig::default(),
            &mut acc,
            &parse_type("{a: [Bool*], c: {d: Null}}").unwrap(),
        );
        acc.check_invariants().unwrap();
        assert_eq!(
            acc.to_string(),
            "{a: [(Bool + Num)*], b: Str?, c: {d: Null}?}"
        );
    }
}
