//! The static type checker: verify a pipeline against a schema and
//! predict the output schema.
//!
//! This is where a *complete* inferred schema pays off (Section 1 of the
//! paper): a typo'd path, a comparison against the wrong scalar kind, or
//! a `flatten` of a non-array is rejected before any data is read —
//! exactly the "stronger type checking of Pig Latin scripts" use case
//! the paper cites for its schemas.

use crate::ast::{Comparison, Literal, Op, Path, Pipeline, Predicate, Step};
use std::fmt;
use typefuse_infer::fuse_all;
use typefuse_types::{Field, RecordType, Type, TypeKind};

/// A static error found by [`Pipeline::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A path names a route the schema proves cannot exist.
    UnknownPath {
        /// The full path as written in the query.
        path: String,
        /// The longest resolvable prefix.
        resolved_prefix: String,
    },
    /// A comparison can never succeed: the schema admits no value of the
    /// literal's kind at the path.
    KindMismatch {
        /// The compared path.
        path: String,
        /// The kind required by the literal/operator.
        expected: TypeKind,
        /// The kinds the schema allows at the path.
        found: Vec<TypeKind>,
    },
    /// `flatten` on a path whose schema has no array component.
    FlattenNonArray {
        /// The flattened path.
        path: String,
        /// The kinds the schema allows at the path.
        found: Vec<TypeKind>,
    },
    /// `flatten` paths must not traverse arrays (`[]` steps).
    FlattenThroughArray {
        /// The offending path.
        path: String,
    },
    /// `project` with no paths would produce empty rows.
    EmptyProject,
    /// `<`/`>` against a literal kind that has no ordering.
    UnorderedComparison {
        /// The comparison literal's kind.
        kind: TypeKind,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownPath {
                path,
                resolved_prefix,
            } => write!(
                f,
                "path {path} does not exist in the schema (resolved up to {resolved_prefix})"
            ),
            CheckError::KindMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{path} can never be {expected}: the schema allows only {found:?}"
            ),
            CheckError::FlattenNonArray { path, found } => {
                write!(f, "cannot flatten {path}: the schema allows only {found:?}")
            }
            CheckError::FlattenThroughArray { path } => {
                write!(f, "flatten path {path} must not contain [] steps")
            }
            CheckError::EmptyProject => write!(f, "project needs at least one path"),
            CheckError::UnorderedComparison { kind } => {
                write!(f, "</> cannot compare values of kind {kind}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

impl Pipeline {
    /// Statically check this pipeline against `schema`, returning the
    /// output schema it will produce.
    pub fn check(&self, schema: &Type) -> Result<Type, CheckError> {
        let mut current = schema.clone();
        for op in &self.ops {
            current = check_op(op, &current)?;
        }
        Ok(current)
    }
}

fn check_op(op: &Op, schema: &Type) -> Result<Type, CheckError> {
    match op {
        Op::Limit(_) | Op::Distinct => Ok(schema.clone()),
        Op::Count => Ok(Type::Record(
            RecordType::new(vec![Field::required("count", Type::Num)]).expect("single field"),
        )),
        Op::Filter(pred) => {
            check_pred(pred, schema)?;
            // Sound approximation: filtering never widens the value set.
            Ok(schema.clone())
        }
        Op::Project(paths) => {
            if paths.is_empty() {
                return Err(CheckError::EmptyProject);
            }
            for p in paths {
                resolve(schema, p)?;
            }
            Ok(project_schema(schema, paths))
        }
        Op::Flatten(path) => {
            if path.steps().iter().any(|s| matches!(s, Step::Item)) {
                return Err(CheckError::FlattenThroughArray {
                    path: path.to_string(),
                });
            }
            let at = resolve(schema, path)?;
            let elem = match element_view(&at) {
                Some(elem) => elem,
                None => {
                    return Err(CheckError::FlattenNonArray {
                        path: path.to_string(),
                        found: kinds(&at),
                    })
                }
            };
            Ok(narrow_along_path(schema, path.steps(), &elem))
        }
    }
}

fn check_pred(pred: &Predicate, schema: &Type) -> Result<(), CheckError> {
    match pred {
        Predicate::Exists(path) => resolve(schema, path).map(|_| ()),
        Predicate::Compare(path, cmp, literal) => {
            let at = resolve(schema, path)?;
            let expected = literal_kind(literal);
            if matches!(cmp, Comparison::Lt | Comparison::Gt)
                && !matches!(expected, TypeKind::Num | TypeKind::Str)
            {
                return Err(CheckError::UnorderedComparison { kind: expected });
            }
            // `!=` is satisfiable even when the kind never occurs; every
            // other comparison needs the kind to be possible.
            if !matches!(cmp, Comparison::Ne) && !kinds(&at).contains(&expected) {
                return Err(CheckError::KindMismatch {
                    path: path.to_string(),
                    expected,
                    found: kinds(&at),
                });
            }
            Ok(())
        }
        Predicate::Not(inner) => check_pred(inner, schema),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            check_pred(a, schema)?;
            check_pred(b, schema)
        }
    }
}

fn kinds(t: &Type) -> Vec<TypeKind> {
    t.addends().iter().filter_map(Type::kind).collect()
}

pub(crate) fn literal_kind(l: &Literal) -> TypeKind {
    match l {
        Literal::Number(_) => TypeKind::Num,
        Literal::String(_) => TypeKind::Str,
        Literal::Bool(_) => TypeKind::Bool,
        Literal::Null => TypeKind::Null,
    }
}

/// The uniform element type of the array component of `t`, if any:
/// starred arrays yield their body, positional arrays the fusion of
/// their element types (`ε` for the empty array type).
pub(crate) fn element_view(t: &Type) -> Option<Type> {
    t.addends().iter().find_map(|a| match a {
        Type::Star(body) => Some((**body).clone()),
        Type::Array(at) => Some(fuse_all(at.elems())),
        _ => None,
    })
}

/// Navigate the schema along `path`, returning the type at its end.
pub(crate) fn resolve(schema: &Type, path: &Path) -> Result<Type, CheckError> {
    let mut current = schema.clone();
    for (i, step) in path.steps().iter().enumerate() {
        let next = match step {
            Step::Field(name) => current.addends().iter().find_map(|a| match a {
                Type::Record(rt) => rt.field(name).map(|f| f.ty.clone()),
                _ => None,
            }),
            Step::Item => element_view(&current).filter(|e| !matches!(e, Type::Bottom)),
        };
        current = next.ok_or_else(|| CheckError::UnknownPath {
            path: path.to_string(),
            resolved_prefix: Path::new(path.steps()[..i].to_vec()).to_string(),
        })?;
    }
    Ok(current)
}

/// Keep only the parts of the schema lying on one of the requested
/// routes. Fields named exactly by a path keep their whole type.
pub(crate) fn project_schema(schema: &Type, paths: &[Path]) -> Type {
    project_rel(schema, &paths.iter().map(|p| p.steps()).collect::<Vec<_>>())
}

fn project_rel(schema: &Type, routes: &[&[Step]]) -> Type {
    // A route that is exhausted means "keep this whole subtree".
    if routes.iter().any(|r| r.is_empty()) {
        return schema.clone();
    }
    let addends = schema.addends().iter().map(|a| match a {
        Type::Record(rt) => {
            let mut fields = Vec::new();
            for f in rt.fields() {
                let sub: Vec<&[Step]> = routes
                    .iter()
                    .filter_map(|r| match r.first() {
                        Some(Step::Field(name)) if **name == *f.name => Some(&r[1..]),
                        _ => None,
                    })
                    .collect();
                if !sub.is_empty() {
                    fields.push(Field {
                        name: f.name.clone(),
                        ty: project_rel(&f.ty, &sub),
                        optional: f.optional,
                    });
                }
            }
            Type::Record(RecordType::new(fields).expect("subset of unique keys"))
        }
        Type::Star(_) | Type::Array(_) => {
            let sub: Vec<&[Step]> = routes
                .iter()
                .filter_map(|r| match r.first() {
                    Some(Step::Item) => Some(&r[1..]),
                    _ => None,
                })
                .collect();
            if sub.is_empty() {
                // The array itself is not on any route: it can only appear
                // here because a sibling addend is; keep it as-is.
                a.clone()
            } else {
                match a {
                    Type::Star(body) => Type::star(project_rel(body, &sub)),
                    Type::Array(at) => Type::Array(typefuse_types::ArrayType::new(
                        at.elems().iter().map(|e| project_rel(e, &sub)).collect(),
                    )),
                    _ => unreachable!(),
                }
            }
        }
        scalar => scalar.clone(),
    });
    Type::union(addends.collect::<Vec<_>>()).expect("kinds preserved")
}

/// Rebuild the schema for rows that survived `flatten path`: every level
/// along the path keeps only its record addend, the traversed fields
/// become mandatory, and the final field's type becomes `elem`.
fn narrow_along_path(schema: &Type, steps: &[Step], elem: &Type) -> Type {
    match steps {
        [] => elem.clone(),
        [Step::Field(name), rest @ ..] => {
            let rt = schema
                .addends()
                .iter()
                .find_map(|a| match a {
                    Type::Record(rt) => Some(rt),
                    _ => None,
                })
                .expect("checked by resolve");
            let fields = rt
                .fields()
                .iter()
                .map(|f| {
                    if *f.name == **name {
                        Field {
                            name: f.name.clone(),
                            ty: narrow_along_path(&f.ty, rest, elem),
                            optional: false, // survivors always have it
                        }
                    } else {
                        f.clone()
                    }
                })
                .collect();
            Type::Record(RecordType::new(fields).expect("same keys"))
        }
        [Step::Item, ..] => unreachable!("flatten paths contain no [] steps"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_types::parse_type;

    fn schema() -> Type {
        parse_type(
            "{id: Num, name: Str?, tags: [Str*]?, user: {login: Str, site_admin: Bool}, \
             mixed: Null + Num + Str, ks: [{v: Str, rank: Num + Str}*]}",
        )
        .unwrap()
    }

    fn check(text: &str) -> Result<Type, CheckError> {
        Pipeline::parse(text).unwrap().check(&schema())
    }

    #[test]
    fn resolve_navigates_records_arrays_unions() {
        let s = schema();
        let t = resolve(&s, &Path::root().field("user").field("login")).unwrap();
        assert_eq!(t, Type::Str);
        let t = resolve(&s, &Path::root().field("ks").item().field("rank")).unwrap();
        assert_eq!(t.to_string(), "Num + Str");
    }

    #[test]
    fn unknown_paths_are_static_errors() {
        let err = check("project $.nope").unwrap_err();
        assert!(matches!(err, CheckError::UnknownPath { .. }));
        let err = check("filter exists $.user.nope").unwrap_err();
        match err {
            CheckError::UnknownPath {
                resolved_prefix, ..
            } => {
                assert_eq!(resolved_prefix, "$.user");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Items through a non-array.
        assert!(matches!(
            check("project $.id[]"),
            Err(CheckError::UnknownPath { .. })
        ));
    }

    #[test]
    fn kind_mismatches_are_static_errors() {
        let err = check("filter $.id == \"x\"").unwrap_err();
        assert!(matches!(
            err,
            CheckError::KindMismatch {
                expected: TypeKind::Str,
                ..
            }
        ));
        // Union paths accept any member kind.
        assert!(check("filter $.mixed == 3").is_ok());
        assert!(check("filter $.mixed == \"s\"").is_ok());
        assert!(check("filter $.mixed == null").is_ok());
        assert!(matches!(
            check("filter $.mixed == true"),
            Err(CheckError::KindMismatch { .. })
        ));
        // != is satisfiable regardless of kind.
        assert!(check("filter $.id != \"x\"").is_ok());
    }

    #[test]
    fn ordering_needs_ordered_kinds() {
        assert!(check("filter $.id > 3").is_ok());
        assert!(check("filter $.name < \"m\"").is_ok());
        assert!(matches!(
            check("filter $.mixed > null"),
            Err(CheckError::UnorderedComparison {
                kind: TypeKind::Null
            })
        ));
    }

    #[test]
    fn project_output_schema() {
        let out = check("project $.id, $.user.login").unwrap();
        assert_eq!(out.to_string(), "{id: Num, user: {login: Str}}");
        // Projecting a whole subtree keeps it intact.
        let out = check("project $.user").unwrap();
        assert_eq!(out.to_string(), "{user: {login: Str, site_admin: Bool}}");
        // Optionality survives projection.
        let out = check("project $.name").unwrap();
        assert_eq!(out.to_string(), "{name: Str?}");
        // Through arrays.
        let out = check("project $.ks[].v").unwrap();
        assert_eq!(out.to_string(), "{ks: [{v: Str}*]}");
    }

    #[test]
    fn flatten_output_schema() {
        let out = check("flatten $.tags").unwrap();
        match &out {
            Type::Record(rt) => {
                let f = rt.field("tags").unwrap();
                assert!(!f.optional, "survivors always have tags");
                assert_eq!(f.ty, Type::Str);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn flatten_errors() {
        assert!(matches!(
            check("flatten $.id"),
            Err(CheckError::FlattenNonArray { .. })
        ));
        assert!(matches!(
            check("flatten $.ks[].v"),
            Err(CheckError::FlattenThroughArray { .. })
        ));
    }

    #[test]
    fn empty_project_rejected() {
        let p = Pipeline::new().then(Op::Project(vec![]));
        assert_eq!(p.check(&schema()), Err(CheckError::EmptyProject));
    }

    #[test]
    fn pipelines_compose() {
        let out = check("flatten $.ks\nproject $.ks.v\nlimit 3").unwrap();
        assert_eq!(out.to_string(), "{ks: {v: Str}}");
        // After flatten, $.ks is the element record: [] no longer resolves.
        assert!(matches!(
            check("flatten $.ks\nproject $.ks[].v"),
            Err(CheckError::UnknownPath { .. })
        ));
    }
}

#[cfg(test)]
mod distinct_count_check_tests {
    use super::*;
    use typefuse_types::parse_type;

    #[test]
    fn count_output_schema_is_fixed() {
        let p = Pipeline::parse("count").unwrap();
        let out = p.check(&parse_type("{a: Num}").unwrap()).unwrap();
        assert_eq!(out.to_string(), "{count: Num}");
        // …and composes: paths after count resolve against it.
        let p = Pipeline::parse("count\nproject $.count").unwrap();
        assert!(p.check(&parse_type("{a: Num}").unwrap()).is_ok());
        let p = Pipeline::parse("count\nproject $.a").unwrap();
        assert!(p.check(&parse_type("{a: Num}").unwrap()).is_err());
    }

    #[test]
    fn distinct_preserves_schema() {
        let schema = parse_type("{a: Num, b: Str?}").unwrap();
        let p = Pipeline::parse("distinct").unwrap();
        assert_eq!(p.check(&schema).unwrap(), schema);
    }
}
