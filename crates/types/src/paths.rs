//! Path enumeration — the paper's *completeness* property made checkable.
//!
//! Section 1: "each path that can be traversed in the tree-structure of
//! each input JSON value can be traversed in the inferred schema as
//! well. This property is crucial to enable a series of query
//! optimization tasks" (wildcard expansion, projection pushdown, …).
//!
//! A path is a sequence of steps from the root: a record field name or an
//! array descent. Rendered like `$.headline.main` and `$.keywords[].rank`
//! (the same notation as the path profile in `typefuse-infer`).

use crate::ty::Type;
use std::collections::BTreeSet;
use typefuse_json::Value;

/// One navigation step.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathStep {
    /// Descend into a record field.
    Field(String),
    /// Descend into any array element.
    Item,
}

/// Render a step sequence as `$.a.b[].c`.
pub fn render_path(steps: &[PathStep]) -> String {
    let mut s = String::from("$");
    for step in steps {
        match step {
            PathStep::Field(name) => {
                s.push('.');
                s.push_str(name);
            }
            PathStep::Item => s.push_str("[]"),
        }
    }
    s
}

/// Parse a rendered path (`$`, `$.a.b[].c`) back into steps.
///
/// The inverse of [`render_path`] for the paths the inference pipeline
/// emits; field names are taken verbatim between separators, so names
/// containing `.` or `[]` — which the rendering cannot distinguish
/// anyway — parse as nested steps. A leading `$` is optional, so
/// `.user.url` works as CLI shorthand. Returns `None` for syntactically
/// empty segments (`$..a`, a trailing `.`).
pub fn parse_path(text: &str) -> Option<Vec<PathStep>> {
    let mut rest = text.strip_prefix('$').unwrap_or(text);
    let mut steps = Vec::new();
    while !rest.is_empty() {
        if let Some(r) = rest.strip_prefix("[]") {
            steps.push(PathStep::Item);
            rest = r;
        } else if let Some(r) = rest.strip_prefix('.') {
            let end = r
                .char_indices()
                .find(|&(i, c)| c == '.' || r[i..].starts_with("[]"))
                .map(|(i, _)| i)
                .unwrap_or(r.len());
            if end == 0 {
                return None;
            }
            steps.push(PathStep::Field(r[..end].to_string()));
            rest = &r[end..];
        } else {
            return None;
        }
    }
    Some(steps)
}

/// All subtrees of `t` reachable by following `steps`.
///
/// Unions are transparent: a [`PathStep::Field`] descends through the
/// record addend, a [`PathStep::Item`] through the array or star
/// addend(s) — mirroring how [`type_paths`] accumulates union paths.
/// Positional arrays contribute every element type, so the result is a
/// list; an unreachable path yields an empty one. The caller decides
/// how to combine multiple candidates (e.g. fuse them).
pub fn types_at_path<'a>(t: &'a Type, steps: &[PathStep]) -> Vec<&'a Type> {
    let mut frontier = vec![t];
    for step in steps {
        let mut next: Vec<&Type> = Vec::new();
        for t in frontier {
            descend(t, step, &mut next);
        }
        // Dedup structurally, keeping first-seen order (kind-unique
        // unions make real fan-out small, so the quadratic scan is
        // irrelevant; pointer-based orderings would not be
        // deterministic).
        let mut deduped: Vec<&Type> = Vec::with_capacity(next.len());
        for t in next {
            if !deduped.contains(&t) {
                deduped.push(t);
            }
        }
        frontier = deduped;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

fn descend<'a>(t: &'a Type, step: &PathStep, out: &mut Vec<&'a Type>) {
    match (t, step) {
        (Type::Record(rt), PathStep::Field(name)) => {
            if let Some(f) = rt.field(name) {
                out.push(&f.ty);
            }
        }
        (Type::Array(at), PathStep::Item) => out.extend(at.elems()),
        (Type::Star(body), PathStep::Item) if !matches!(body.as_ref(), Type::Bottom) => {
            out.push(body);
        }
        (Type::Union(u), step) => {
            for addend in u.addends() {
                descend(addend, step, out);
            }
        }
        _ => {}
    }
}

/// All paths traversable in a type (rendered). Unions contribute the
/// paths of all their addends; optionality does not restrict
/// traversability.
pub fn type_paths(t: &Type) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut prefix = Vec::new();
    walk_type(t, &mut prefix, &mut out);
    out
}

fn walk_type(t: &Type, prefix: &mut Vec<PathStep>, out: &mut BTreeSet<String>) {
    match t {
        Type::Bottom | Type::Null | Type::Bool | Type::Num | Type::Str => {}
        Type::Record(rt) => {
            for f in rt.fields() {
                prefix.push(PathStep::Field(f.name.to_string()));
                out.insert(render_path(prefix));
                walk_type(&f.ty, prefix, out);
                prefix.pop();
            }
        }
        Type::Array(at) if !at.is_empty() => {
            prefix.push(PathStep::Item);
            out.insert(render_path(prefix));
            for elem in at.elems() {
                walk_type(elem, prefix, out);
            }
            prefix.pop();
        }
        Type::Array(_) => {}
        Type::Star(body) if !matches!(body.as_ref(), Type::Bottom) => {
            prefix.push(PathStep::Item);
            out.insert(render_path(prefix));
            walk_type(body, prefix, out);
            prefix.pop();
        }
        Type::Star(_) => {}
        Type::Union(u) => {
            for addend in u.addends() {
                walk_type(addend, prefix, out);
            }
        }
    }
}

/// All paths traversable in a concrete value (rendered).
pub fn value_paths(v: &Value) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut prefix = Vec::new();
    walk_value(v, &mut prefix, &mut out);
    out
}

fn walk_value(v: &Value, prefix: &mut Vec<PathStep>, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(map) => {
            for (key, child) in map.iter() {
                prefix.push(PathStep::Field(key.to_string()));
                out.insert(render_path(prefix));
                walk_value(child, prefix, out);
                prefix.pop();
            }
        }
        Value::Array(elems) if !elems.is_empty() => {
            prefix.push(PathStep::Item);
            out.insert(render_path(prefix));
            for child in elems {
                walk_value(child, prefix, out);
            }
            prefix.pop();
        }
        _ => {}
    }
}

/// The completeness check of Section 1: every path of `v` is a path of
/// `t`. Holds whenever `t.admits(v)` — property-tested in the infer
/// crate against inference + fusion.
pub fn covers_value_paths(t: &Type, v: &Value) -> bool {
    let tp = type_paths(t);
    value_paths(v).is_subset(&tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_type;
    use typefuse_json::json;

    fn paths_of(text: &str) -> Vec<String> {
        type_paths(&parse_type(text).unwrap()).into_iter().collect()
    }

    #[test]
    fn scalar_types_have_no_paths() {
        assert!(paths_of("Num").is_empty());
        assert!(paths_of("ε").is_empty());
        assert!(paths_of("{}").is_empty());
        assert!(paths_of("[]").is_empty());
    }

    #[test]
    fn record_paths() {
        assert_eq!(
            paths_of("{a: Num, b: {c: Str}}"),
            vec!["$.a", "$.b", "$.b.c"]
        );
    }

    #[test]
    fn optional_fields_are_still_traversable() {
        assert_eq!(paths_of("{a: Num?}"), vec!["$.a"]);
    }

    #[test]
    fn array_paths() {
        assert_eq!(paths_of("[{a: Num}*]"), vec!["$[]", "$[].a"]);
        assert_eq!(paths_of("[Num, {b: Str}]"), vec!["$[]", "$[].b"]);
    }

    #[test]
    fn union_paths_accumulate() {
        assert_eq!(
            paths_of("Num + {a: Str} + [{b: Bool}*]"),
            vec!["$.a", "$[]", "$[].b"]
        );
    }

    #[test]
    fn value_paths_match_rendering() {
        let v = json!({"a": {"b": 1}, "c": [{"d": 2}, 3]});
        let paths: Vec<String> = value_paths(&v).into_iter().collect();
        assert_eq!(paths, vec!["$.a", "$.a.b", "$.c", "$.c[]", "$.c[].d"]);
    }

    #[test]
    fn empty_array_contributes_no_item_path() {
        assert!(value_paths(&json!({"a": []})).contains("$.a"));
        assert!(!value_paths(&json!({"a": []})).contains("$.a[]"));
        assert!(paths_of("{a: []}").contains(&"$.a".to_string()));
    }

    #[test]
    fn completeness_on_a_fused_like_type() {
        let t = parse_type("{a: Null + Num, b: Str?, c: [(Num + {d: Bool})*]?}").unwrap();
        for v in [
            json!({"a": 1}),
            json!({"a": null, "b": "x"}),
            json!({"a": 1, "c": [1, {"d": true}]}),
        ] {
            assert!(t.admits(&v));
            assert!(covers_value_paths(&t, &v), "paths of {v} not covered");
        }
    }

    #[test]
    fn non_covering_detected() {
        let t = parse_type("{a: Num}").unwrap();
        assert!(!covers_value_paths(&t, &json!({"z": 1})));
    }

    #[test]
    fn parse_path_round_trips_rendered_paths() {
        for text in ["$", "$.a", "$.a.b", "$.kw[].rank", "$[]", "$[][].x"] {
            let steps = parse_path(text).unwrap();
            assert_eq!(render_path(&steps), text, "round trip of {text}");
        }
        // CLI shorthand: the leading `$` may be dropped.
        assert_eq!(
            parse_path(".user.url").unwrap(),
            parse_path("$.user.url").unwrap()
        );
        assert!(parse_path("$..a").is_none());
        assert!(parse_path("$.").is_none());
        assert!(parse_path("a").is_none());
    }

    #[test]
    fn types_at_path_navigates_records_arrays_and_unions() {
        let t = parse_type("{a: Null + Num, b: {c: [Str*]}, d: [Num, Bool]}").unwrap();
        let at = |p: &str| {
            types_at_path(&t, &parse_path(p).unwrap())
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(at("$.a"), ["Null + Num"]);
        assert_eq!(at("$.b.c"), ["[Str*]"]);
        assert_eq!(at("$.b.c[]"), ["Str"]);
        assert_eq!(at("$.d[]"), ["Num", "Bool"], "positional arrays fan out");
        assert!(at("$.missing").is_empty());
        assert_eq!(at("$"), [t.to_string()]);

        // Field access through a union's record addend.
        let u = parse_type("Num + {x: Str?}").unwrap();
        assert_eq!(
            types_at_path(&u, &parse_path("$.x").unwrap())
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
            ["Str"]
        );
    }
}
