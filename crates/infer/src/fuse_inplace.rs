//! In-place fusion: the accumulator kernel of the Reduce phase.
//!
//! [`fuse_into`] computes `acc ← Fuse(acc, other)` by mutating `acc`
//! where it stands; nothing of the accumulator is moved, copied or
//! re-verified. The by-reference [`fuse_with`](crate::fuse_with) stays
//! Figure 6's literal reading and the oracle every property suite holds
//! this kernel to; the two are byte-identical on all inputs.
//!
//! What one absorb does, per node of `other`:
//!
//! * **addends** — each addend of `other` is fused into the accumulator's
//!   addend of the same kind, found by a binary search over at most six
//!   slots; a kind the accumulator lacks is inserted as a clone.
//! * **records** — the *incoming* record's fields are walked against the
//!   accumulator's ([`RecordType::position`]): the accumulator field
//!   right after the previous match is tried first, the rest is
//!   binary-searched. A matched field's type is fused in place; the
//!   accumulator fields skipped over between two matches are flagged
//!   optional (a scan of their flags — the one cost proportional to the
//!   accumulator's width rather than the record's). Keys only `other`
//!   has are added as optional clones in a second walk: up to
//!   eight (`INSERT_MAX`) of them by `insert` (one `memmove` each), more by
//!   rebuilding the field vector once with a merge-join.
//! * **arrays** — `[T*] ⊔ [U*]` fuses the bodies in place. `[T*] ⊔
//!   [e₁,…,eₙ]` fuses the elements into `T` one by one instead of
//!   collapsing them into a temporary first: `T ⊔ (e₁ ⊔ … ⊔ eₙ) =
//!   (…(T ⊔ e₁) ⊔ …) ⊔ eₙ` by associativity (Theorem 5.5). A positional
//!   accumulator array is collapsed — once per array position, its
//!   elements moved, not cloned — unless both sides are positional, of
//!   one length, under [`ArrayFusion::PositionalWhenAligned`].
//!
//! So absorbing a record the schema already admits allocates nothing,
//! and a record that widens it allocates the new subtrees plus at most
//! one growth of each vector it lands in (`tests/fuse_allocs.rs`).

use crate::fuse::{ArrayFusion, FuseConfig};
use typefuse_types::{ArrayType, Field, RecordType, Type};

/// A record missing at most this many of the incoming keys gets them by
/// `Vec::insert`; beyond it, shifting the tail once per key costs more
/// than rebuilding the field vector once.
const INSERT_MAX: usize = 8;

/// Fuse `other` into `acc` in place: `*acc = Fuse(*acc, other)`.
///
/// Returns whether `acc` changed, exactly: `true` iff it now differs
/// (`!=`) from what it was — a new addend, a new key, a field turned
/// optional, a positional array collapsed, `ε` replaced.
pub fn fuse_into(cfg: FuseConfig, acc: &mut Type, other: &Type) -> bool {
    if matches!(acc, Type::Bottom) {
        *acc = other.clone();
        return !matches!(other, Type::Bottom);
    }
    let mut changed = false;
    for addend in other.addends() {
        changed |= fuse_addend(cfg, acc, addend);
    }
    changed
}

/// Fuse one non-union `addend` into a non-`ε` accumulator.
fn fuse_addend(cfg: FuseConfig, acc: &mut Type, addend: &Type) -> bool {
    let kind = addend.kind().expect("union addends are kinded");
    match acc {
        Type::Union(u) => u
            .update_addend(kind, |mine| lfuse_into(cfg, mine, addend))
            .unwrap_or_else(|| {
                u.insert_addend(addend.clone())
                    .expect("the kind was just found absent");
                true
            }),
        single if single.kind() == Some(kind) => lfuse_into(cfg, single, addend),
        single => {
            let mine = std::mem::replace(single, Type::Bottom);
            *single = Type::union([mine, addend.clone()]).expect("two distinct kinds");
            true
        }
    }
}

/// In-place `LFuse`: both sides are non-union types of one kind.
fn lfuse_into(cfg: FuseConfig, mine: &mut Type, theirs: &Type) -> bool {
    debug_assert_eq!(mine.kind(), theirs.kind());
    match (&mut *mine, theirs) {
        (Type::Null | Type::Bool | Type::Num | Type::Str, _) => false,
        (Type::Record(r1), Type::Record(r2)) => fuse_records_into(cfg, r1, r2),
        (Type::Star(body), _) => fuse_into_star(cfg, body, theirs),
        (Type::Array(a1), Type::Array(a2))
            if cfg.array_fusion == ArrayFusion::PositionalWhenAligned && a1.len() == a2.len() =>
        {
            let mut changed = false;
            for (x, y) in a1.elems_mut().iter_mut().zip(a2.elems()) {
                changed |= fuse_into(cfg, x, y);
            }
            changed
        }
        (Type::Array(a1), _) => {
            let mut body = collapse_taken(cfg, a1);
            fuse_into_star(cfg, &mut body, theirs);
            *mine = Type::star(body);
            true
        }
        (l, r) => unreachable!("lfuse_into on mismatched kinds: {l} vs {r}"),
    }
}

/// Fuse an array-kind type into the body of a starred accumulator.
fn fuse_into_star(cfg: FuseConfig, body: &mut Type, theirs: &Type) -> bool {
    match theirs {
        Type::Star(other) => fuse_into(cfg, body, other),
        Type::Array(at) => {
            let mut changed = false;
            for elem in at.elems() {
                changed |= fuse_into(cfg, body, elem);
            }
            changed
        }
        other => unreachable!("fuse_into_star on a non-array: {other}"),
    }
}

/// Collapse the accumulator's own positional array to the body of its
/// starred form, moving the elements out.
fn collapse_taken(cfg: FuseConfig, at: &mut ArrayType) -> Type {
    let mut elems = std::mem::take(at).into_elems().into_iter();
    let mut body = elems.next().unwrap_or(Type::Bottom);
    for elem in elems {
        fuse_into(cfg, &mut body, &elem);
    }
    body
}

/// In-place record fusion: walk `theirs` against `mine`.
fn fuse_records_into(cfg: FuseConfig, mine: &mut RecordType, theirs: &RecordType) -> bool {
    let mut changed = false;
    let (mut next, mut absent) = (0, 0);
    for f in theirs.fields() {
        match mine.position(&f.name, next) {
            Ok(i) => {
                changed |= mine.make_optional(next..i + usize::from(f.optional));
                changed |= fuse_into(cfg, mine.ty_mut(i), &f.ty);
                next = i + 1;
            }
            Err(i) => {
                changed |= mine.make_optional(next..i);
                next = i;
                absent += 1;
            }
        }
    }
    changed |= mine.make_optional(next..mine.len());
    if absent > 0 {
        add_absent(mine, theirs, absent);
    }
    changed || absent > 0
}

/// Add the `absent` keys only `theirs` has to `mine`, as optional clones.
fn add_absent(mine: &mut RecordType, theirs: &RecordType, absent: usize) {
    let as_optional = |f: &Field| Field::optional(f.name.clone(), f.ty.clone());
    if absent <= INSERT_MAX {
        let mut next = 0;
        for f in theirs.fields() {
            next = 1 + mine.position(&f.name, next).unwrap_or_else(|i| {
                mine.insert_at(i, as_optional(f));
                i
            });
        }
        return;
    }
    let mut left = std::mem::take(mine).into_fields().into_iter().peekable();
    let mut out = Vec::with_capacity(left.len() + absent);
    for f in theirs.fields() {
        while let Some(l) = left.next_if(|l| l.name < f.name) {
            out.push(l);
        }
        match left.next_if(|l| l.name == f.name) {
            Some(l) => out.push(l),
            None => out.push(as_optional(f)),
        }
    }
    out.extend(left);
    *mine = RecordType::from_sorted(out).expect("merge-join keeps order");
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
    fn absent_keys_are_inserted_or_merged_in_one_rebuild() {
        // One more absent key than INSERT_MAX takes the rebuild.
        for absent in [1, INSERT_MAX, INSERT_MAX + 1, 3 * INSERT_MAX] {
            let mine = "{k03: Num, k10: Str?, k17: {a: Num}}";
            let theirs: Vec<String> = (0..absent)
                .map(|i| format!("k{:02}: [Num, Str]", 2 * i))
                .chain(["k03: Null".to_string(), "k17: {b: Str}".to_string()])
                .collect();
            check_pair(mine, &format!("{{{}}}", theirs.join(", ")));
        }
    }

    #[test]
    fn reports_whether_the_accumulator_changed() {
        let cfg = FuseConfig::default();
        let mut acc = Type::Bottom;
        for (other, changes) in [
            ("ε", false),
            ("{a: Num, b: [Num, Num]}", true), // ε → something
            ("{a: Num, b: [Num, Num]}", true), // the array collapses
            ("{a: Num, b: [Num*]}", false),
            ("{a: Num}", true), // b turns optional
            ("{a: Num, b: []}", false),
            ("{a: Str, b: [Num]?}", true), // a gains an addend
            ("{a: Str, c: Null}", true),   // a new key
            ("{a: Num + Str, c: Null?}", false),
            ("Bool", true), // a new top-level addend
            ("Bool + {a: Str, b: [Num]}", false),
        ] {
            let before = acc.clone();
            let changed = fuse_into(cfg, &mut acc, &parse_type(other).unwrap());
            assert_eq!(changed, changes, "absorbing {other} into {before}");
            assert_eq!(changed, acc != before);
        }
        assert_eq!(
            acc.to_string(),
            "Bool + {a: Num + Str, b: [Num*]?, c: Null?}"
        );
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
