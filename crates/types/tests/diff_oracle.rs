//! The tree-walking diff typefuse shipped before `diff` was re-expressed
//! over interned ids, kept here as the oracle the id-level walk is held
//! to: same changes, same order, byte for byte.

use proptest::prelude::*;
use std::collections::BTreeSet;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{fuse, infer_type};
use typefuse_types::diff::{diff, diff_ids, SchemaChange};
use typefuse_types::testkit::arb_type;
use typefuse_types::{parse_type, RecordType, Type, TypeInterner, TypeKind};

// ---- the oracle: `crates/types/src/diff.rs` as of 0.7.0, verbatim ----

fn oracle(old: &Type, new: &Type) -> Vec<SchemaChange> {
    let mut changes = Vec::new();
    diff_at(old, new, "$", &mut changes);
    changes.sort_by(|a, b| {
        a.path()
            .cmp(b.path())
            .then_with(|| order_key(a).cmp(&order_key(b)))
    });
    changes
}

fn order_key(c: &SchemaChange) -> u8 {
    match c {
        SchemaChange::Removed { .. } => 0,
        SchemaChange::Added { .. } => 1,
        SchemaChange::KindsChanged { .. } => 2,
        SchemaChange::OptionalityChanged { .. } => 3,
    }
}

fn kinds_of(t: &Type) -> Vec<TypeKind> {
    t.addends().iter().filter_map(Type::kind).collect()
}

fn diff_at(old: &Type, new: &Type, path: &str, out: &mut Vec<SchemaChange>) {
    let (old_kinds, new_kinds) = (kinds_of(old), kinds_of(new));
    if old_kinds != new_kinds {
        out.push(SchemaChange::KindsChanged {
            path: path.to_string(),
            old: old_kinds.clone(),
            new: new_kinds.clone(),
        });
    }

    // Records: compare field sets on the record addend of each side.
    let old_rec = record_addend(old);
    let new_rec = record_addend(new);
    if let (Some(o), Some(n)) = (old_rec, new_rec) {
        let old_keys: BTreeSet<&str> = o.fields().iter().map(|f| &*f.name).collect();
        let new_keys: BTreeSet<&str> = n.fields().iter().map(|f| &*f.name).collect();
        for key in old_keys.difference(&new_keys) {
            let child = format!("{path}.{key}");
            out.push(SchemaChange::Removed {
                path: child.clone(),
            });
            collect_paths_as(&o.field(key).expect("present").ty, &child, false, out);
        }
        for key in new_keys.difference(&old_keys) {
            let child = format!("{path}.{key}");
            out.push(SchemaChange::Added {
                path: child.clone(),
            });
            collect_paths_as(&n.field(key).expect("present").ty, &child, true, out);
        }
        for key in old_keys.intersection(&new_keys) {
            let (fo, fn_) = (
                o.field(key).expect("present"),
                n.field(key).expect("present"),
            );
            let child_path = format!("{path}.{key}");
            if fo.optional != fn_.optional {
                out.push(SchemaChange::OptionalityChanged {
                    path: child_path.clone(),
                    was_optional: fo.optional,
                });
            }
            diff_at(&fo.ty, &fn_.ty, &child_path, out);
        }
    } else if let (None, Some(n)) = (old_rec, new_rec) {
        for f in n.fields() {
            out.push(SchemaChange::Added {
                path: format!("{path}.{}", f.name),
            });
        }
    } else if let (Some(o), None) = (old_rec, new_rec) {
        for f in o.fields() {
            out.push(SchemaChange::Removed {
                path: format!("{path}.{}", f.name),
            });
        }
    }

    // Arrays: recurse into the collapsed element views.
    match (array_body(old), array_body(new)) {
        (Some(o), Some(n)) => diff_at(&o, &n, &format!("{path}[]"), out),
        (None, Some(n)) => {
            // An array became possible here; its inner structure is new.
            if !matches!(n, Type::Bottom) {
                collect_paths_as(&n, &format!("{path}[]"), true, out);
            }
        }
        (Some(o), None) => {
            if !matches!(o, Type::Bottom) {
                collect_paths_as(&o, &format!("{path}[]"), false, out);
            }
        }
        (None, None) => {}
    }
}

fn record_addend(t: &Type) -> Option<&RecordType> {
    t.addends().iter().find_map(|a| match a {
        Type::Record(rt) => Some(rt),
        _ => None,
    })
}

/// A uniform element view of the array addend, if any: positional arrays
/// are viewed through the union of their element kinds' paths (without
/// fusing, to stay allocation-light we approximate with a collapsed
/// clone).
fn array_body(t: &Type) -> Option<Type> {
    t.addends().iter().find_map(|a| match a {
        Type::Star(body) => Some((**body).clone()),
        Type::Array(at) if !at.is_empty() => {
            // Build a best-effort union view: first element per kind.
            let mut by_kind: [Option<&Type>; 6] = Default::default();
            for elem in at.elems() {
                for addend in elem.addends() {
                    let k = addend.kind().expect("kinded") as usize;
                    by_kind[k].get_or_insert(addend);
                }
            }
            Type::union(by_kind.into_iter().flatten().cloned()).ok()
        }
        Type::Array(_) => Some(Type::Bottom),
        _ => None,
    })
}

/// Record all record paths under `t` as Added or Removed.
fn collect_paths_as(t: &Type, prefix: &str, added: bool, out: &mut Vec<SchemaChange>) {
    if let Some(rt) = record_addend(t) {
        for f in rt.fields() {
            let path = format!("{prefix}.{}", f.name);
            out.push(if added {
                SchemaChange::Added { path: path.clone() }
            } else {
                SchemaChange::Removed { path: path.clone() }
            });
            collect_paths_as(&f.ty, &path, added, out);
        }
    }
    if let Some(body) = array_body(t) {
        collect_paths_as(&body, &format!("{prefix}[]"), added, out);
    }
}

// ---- the comparison ----

/// Both diffs, rendered; panics where they disagree (order included).
fn agreed(old: &Type, new: &Type) -> Vec<String> {
    let expected = oracle(old, new);
    assert_eq!(diff(old, new), expected, "diff({old}, {new})");
    expected.iter().map(SchemaChange::to_string).collect()
}

fn t(text: &str) -> Type {
    parse_type(text).unwrap()
}

#[test]
fn variants_of_one_type_agree_with_the_oracle() {
    let base = "{id: Num, tags: [Str*], user: {name: Str, bio: Str?}, pos: [Num, Num]}";
    let variants = [
        // widened
        "{id: Num, tags: [Str*], user: {name: Str, bio: Str?, url: Str?}, pos: [Num, Num], geo: {lat: Num, lon: [Num*]}?}",
        "{id: Null + Num, tags: [(Num + Str)*], user: {name: Str, bio: Str?}, pos: [Num, Num]}",
        // narrowed
        "{id: Num, user: {name: Str}}",
        "{tags: [Str*]}",
        // kind changed
        "{id: Str, tags: {n: Num}, user: [{name: Str}*], pos: Bool}",
        "Num",
        "[{id: Num}*]",
        "Str + {id: Num, tags: [Str*]}",
        // optionality flipped
        "{id: Num?, tags: [Str*]?, user: {name: Str?, bio: Str}, pos: [Num, Num]}",
        // positional vs star
        "{id: Num, tags: [Str, Str], user: {name: Str, bio: Str?}, pos: [Num*]}",
        "{id: Num, tags: [Str*], user: {name: Str, bio: Str?}, pos: [Num, {x: Num}, Str, {y: Num}]}",
        "{id: Num, tags: [Str*], user: {name: Str, bio: Str?}, pos: [[Num], [{x: Num}*]]}",
        // empty arrays
        "{id: Num, tags: [], user: {name: Str, bio: Str?}, pos: []}",
        "{id: Num, tags: [ε*], user: {name: Str, bio: Str?}, pos: [[]]}",
        "ε",
    ];
    let base = t(base);
    assert!(agreed(&base, &base).is_empty());
    for text in variants {
        let variant = t(text);
        assert!(agreed(&variant, &variant).is_empty(), "diff(a, a): {text}");
        let forward = agreed(&base, &variant);
        let backward = agreed(&variant, &base);
        assert_eq!(forward.len(), backward.len(), "{text}");
    }
    for a in variants {
        for b in variants {
            agreed(&t(a), &t(b));
        }
    }
}

#[test]
fn the_two_spellings_of_the_empty_array_do_not_diff() {
    let record = |body: Type| {
        Type::Record(RecordType::new(vec![typefuse_types::Field::required("x", body)]).unwrap())
    };
    let (starred, positional) = (
        record(Type::star(Type::Bottom)),
        record(Type::empty_array()),
    );
    assert_ne!(starred, positional);
    assert!(agreed(&starred, &positional).is_empty());
    assert!(agreed(&positional, &starred).is_empty());
}

#[test]
fn keys_that_render_like_path_syntax_keep_the_oracles_order() {
    // `$.a[]` is both the key "a[]" and the elements of "a"; `$.a.b` is
    // both the key "a.b" and field b of a. Ties in (path, change kind)
    // are broken by emission order, which must match.
    let field = typefuse_types::Field::required;
    let record =
        |fields: Vec<typefuse_types::Field>| Type::Record(RecordType::new(fields).unwrap());
    let old = record(vec![
        field("a", Type::star(Type::Num)),
        field("a[]", Type::Str),
        field("a.b", Type::Bool),
        field("c", record(vec![field("d", Type::Num)])),
    ]);
    let new = record(vec![
        field(
            "a",
            Type::star(Type::Str.plus(record(vec![field("b", Type::Null)]))),
        ),
        field("a[]", Type::Null),
        field("a.b", Type::Num),
        field("c", Type::Num),
        field("c.d", Type::Str),
    ]);
    assert!(!agreed(&old, &new).is_empty());
    assert!(!agreed(&new, &old).is_empty());
}

#[test]
fn consecutive_fold_states_of_the_four_corpora_agree_with_the_oracle() {
    for profile in Profile::ALL {
        // One interner for the whole sequence, as the registry keeps it.
        let mut interner = TypeInterner::new();
        let mut schema = Type::Bottom;
        let mut versions = 0;
        for value in profile.generate(11, 300) {
            let next = fuse(&schema, &infer_type(&value));
            if next != schema {
                let expected = oracle(&schema, &next);
                let (a, b) = (interner.intern(&schema), interner.intern(&next));
                assert_eq!(diff_ids(&interner, a, b), expected, "{profile} v{versions}");
                assert_eq!(diff_ids(&interner, b, a), oracle(&next, &schema));
                versions += 1;
            }
            schema = next;
        }
        assert!(versions > 0, "{profile} never changed its schema");
        assert!(diff(&schema, &schema).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_pairs_agree_with_the_oracle(a in arb_type(), b in arb_type()) {
        prop_assert_eq!(diff(&a, &b), oracle(&a, &b));
        prop_assert_eq!(diff(&b, &a), oracle(&b, &a));
        prop_assert!(diff(&a, &a).is_empty());
    }

    /// A fused pair shares most of its structure — the pruned walk's
    /// home ground.
    #[test]
    fn a_type_and_its_fusion_agree_with_the_oracle(a in arb_type(), b in arb_type()) {
        let widened = fuse(&a, &b);
        prop_assert_eq!(diff(&a, &widened), oracle(&a, &widened));
        prop_assert_eq!(diff(&widened, &a), oracle(&widened, &a));
    }
}
