//! Structural schema diffing — drift detection between two schemas.
//!
//! Section 3 of the paper discusses Scherzinger et al. \[21\], whose
//! NoSQL-mapping checker "is currently limited to only detect mismatches
//! between base types … a wider knowledge of schema information is needed
//! to enable the detection of other kinds of changes, like the removal or
//! renaming of attributes". With complete fused schemas those changes
//! *are* detectable: this module reports, path by path, what changed
//! between an old and a new schema — the operational tool behind
//! `typefuse diff`.

use crate::intern::{FieldShape, ShapeRef, TypeId, TypeInterner};
use crate::kind::TypeKind;
use crate::ty::Type;
use std::cmp::Ordering;
use std::fmt;

/// One detected change at a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaChange {
    /// A field/path exists in the new schema but not the old.
    Added {
        /// The path, e.g. `$.user.avatar`.
        path: String,
    },
    /// A field/path existed in the old schema but not the new.
    Removed {
        /// The path.
        path: String,
    },
    /// The set of scalar/container kinds possible at the path changed.
    KindsChanged {
        /// The path.
        path: String,
        /// Kinds admitted by the old schema at this path.
        old: Vec<TypeKind>,
        /// Kinds admitted by the new schema at this path.
        new: Vec<TypeKind>,
    },
    /// A record field changed between mandatory and optional.
    OptionalityChanged {
        /// The path.
        path: String,
        /// Whether the field was optional in the old schema.
        was_optional: bool,
    },
}

impl SchemaChange {
    /// The path the change is anchored at.
    pub fn path(&self) -> &str {
        match self {
            SchemaChange::Added { path }
            | SchemaChange::Removed { path }
            | SchemaChange::KindsChanged { path, .. }
            | SchemaChange::OptionalityChanged { path, .. } => path,
        }
    }
}

impl fmt::Display for SchemaChange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaChange::Added { path } => write!(f, "+ {path} (new)"),
            SchemaChange::Removed { path } => write!(f, "- {path} (removed)"),
            SchemaChange::KindsChanged { path, old, new } => {
                write!(f, "~ {path}: ")?;
                write_kinds(f, old)?;
                write!(f, " → ")?;
                write_kinds(f, new)
            }
            SchemaChange::OptionalityChanged { path, was_optional } => {
                if *was_optional {
                    write!(f, "! {path}: optional → mandatory")
                } else {
                    write!(f, "! {path}: mandatory → optional")
                }
            }
        }
    }
}

fn write_kinds(f: &mut fmt::Formatter<'_>, kinds: &[TypeKind]) -> fmt::Result {
    for (i, k) in kinds.iter().enumerate() {
        if i > 0 {
            write!(f, "+")?;
        }
        write!(f, "{k}")?;
    }
    Ok(())
}

/// Compare two schemas, reporting every added/removed path, every change
/// in the kinds possible at a shared path, and every optionality flip.
/// Changes are sorted by path.
pub fn diff(old: &Type, new: &Type) -> Vec<SchemaChange> {
    let mut interner = TypeInterner::new();
    let (old, new) = (interner.intern(old), interner.intern(new));
    diff_ids(&interner, old, new)
}

/// [`diff`] over two shapes of one interner. Hash-consing makes "same
/// subtree" an id comparison, so the walk only descends where the two
/// schemas differ and only renders the paths it reports: the cost is
/// proportional to the change, not to the schemas.
pub fn diff_ids(interner: &TypeInterner, old: TypeId, new: TypeId) -> Vec<SchemaChange> {
    let mut walk = Walk {
        interner,
        path: String::from("$"),
        out: Vec::new(),
    };
    walk.diff_at(walk.view(old), walk.view(new));
    let mut changes = walk.out;
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

/// What a path admits: its (kind-unique) addends, indexed by kind code.
/// `ε` is the empty view.
type View = [Option<TypeId>; 6];

fn kinds_of(view: &View) -> Vec<TypeKind> {
    let present = TypeKind::ALL.into_iter().zip(view);
    present.filter_map(|(k, a)| a.map(|_| k)).collect()
}

struct Walk<'a> {
    interner: &'a TypeInterner,
    /// The path of the node being compared; segments are pushed on the
    /// way down and truncated on the way up.
    path: String,
    out: Vec<SchemaChange>,
}

impl<'a> Walk<'a> {
    fn view(&self, id: TypeId) -> View {
        let mut view = View::default();
        match self.interner.shape(id) {
            ShapeRef::Bottom => {}
            ShapeRef::Union(addends) => {
                for &a in addends {
                    view[self.kind_index(a)] = Some(a);
                }
            }
            _ => view[self.kind_index(id)] = Some(id),
        }
        view
    }

    fn kind_index(&self, addend: TypeId) -> usize {
        self.interner.kind(addend).expect("addends are kinded") as usize
    }

    fn fields(&self, view: &View) -> Option<&'a [FieldShape]> {
        match self.interner.shape(view[TypeKind::Record as usize]?) {
            ShapeRef::Record(fields) => Some(fields),
            _ => unreachable!("the record slot holds a record"),
        }
    }

    /// A uniform element view of the array addend, if any: `[T*]` is
    /// viewed through `T`, a positional array through the first addend
    /// of each kind among its elements, `[]` through `ε`.
    fn elements(&self, view: &View) -> Option<View> {
        match self.interner.shape(view[TypeKind::Array as usize]?) {
            ShapeRef::Star(body) => Some(self.view(body)),
            ShapeRef::Array(elems) => {
                let mut first = View::default();
                for &elem in elems {
                    for (slot, addend) in first.iter_mut().zip(self.view(elem)) {
                        *slot = slot.or(addend);
                    }
                }
                Some(first)
            }
            _ => unreachable!("the array slot holds an array"),
        }
    }

    /// Run `f` with `segment` appended to the path.
    fn under(&mut self, dot: bool, segment: &str, f: impl FnOnce(&mut Self)) {
        let len = self.path.len();
        if dot {
            self.path.push('.');
        }
        self.path.push_str(segment);
        f(self);
        self.path.truncate(len);
    }

    fn under_field(&mut self, field: &FieldShape, f: impl FnOnce(&mut Self)) {
        let name = self.interner.name(field.0);
        self.under(true, name, f)
    }

    /// Report `field` and every record path below it as added or removed.
    fn field_as(&mut self, field: &FieldShape, change: fn(String) -> SchemaChange) {
        self.under_field(field, |w| {
            w.push(change);
            w.collect_paths_as(w.view(field.1), change);
        });
    }

    fn push(&mut self, change: fn(String) -> SchemaChange) {
        self.out.push(change(self.path.clone()));
    }

    fn diff_at(&mut self, old: View, new: View) {
        if old == new {
            return;
        }
        let (old_kinds, new_kinds) = (kinds_of(&old), kinds_of(&new));
        if old_kinds != new_kinds {
            self.out.push(SchemaChange::KindsChanged {
                path: self.path.clone(),
                old: old_kinds,
                new: new_kinds,
            });
        }

        // Records: merge-join the (name-sorted) field lists.
        match (self.fields(&old), self.fields(&new)) {
            (Some(o), Some(n)) => self.diff_fields(o, n),
            (None, Some(n)) => {
                for f in n {
                    self.under_field(f, |w| w.push(added));
                }
            }
            (Some(o), None) => {
                for f in o {
                    self.under_field(f, |w| w.push(removed));
                }
            }
            (None, None) => {}
        }

        // Arrays: recurse into the element views.
        match (self.elements(&old), self.elements(&new)) {
            (Some(o), Some(n)) => self.under(false, "[]", |w| w.diff_at(o, n)),
            // An array became possible (or impossible) here; its inner
            // structure is new (or gone).
            (None, Some(n)) => self.under(false, "[]", |w| w.collect_paths_as(n, added)),
            (Some(o), None) => self.under(false, "[]", |w| w.collect_paths_as(o, removed)),
            (None, None) => {}
        }
    }

    fn diff_fields(&mut self, old: &[FieldShape], new: &[FieldShape]) {
        let (mut o, mut n) = (old.iter().peekable(), new.iter().peekable());
        loop {
            let order = match (o.peek(), n.peek()) {
                (None, None) => return,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(fo), Some(fn_)) if fo.0 == fn_.0 => Ordering::Equal,
                (Some(fo), Some(fn_)) => self.interner.name(fo.0).cmp(self.interner.name(fn_.0)),
            };
            match order {
                Ordering::Less => self.field_as(o.next().expect("peeked"), removed),
                Ordering::Greater => self.field_as(n.next().expect("peeked"), added),
                Ordering::Equal => {
                    let (fo, fn_) = (o.next().expect("peeked"), n.next().expect("peeked"));
                    if (fo.1, fo.2) == (fn_.1, fn_.2) {
                        continue;
                    }
                    self.under_field(fo, |w| {
                        if fo.2 != fn_.2 {
                            w.out.push(SchemaChange::OptionalityChanged {
                                path: w.path.clone(),
                                was_optional: fo.2,
                            });
                        }
                        w.diff_at(w.view(fo.1), w.view(fn_.1));
                    });
                }
            }
        }
    }

    /// Record all record paths under `view` as added or removed.
    fn collect_paths_as(&mut self, view: View, change: fn(String) -> SchemaChange) {
        for f in self.fields(&view).unwrap_or_default() {
            self.field_as(f, change);
        }
        if let Some(elements) = self.elements(&view) {
            self.under(false, "[]", |w| w.collect_paths_as(elements, change));
        }
    }
}

fn added(path: String) -> SchemaChange {
    SchemaChange::Added { path }
}

fn removed(path: String) -> SchemaChange {
    SchemaChange::Removed { path }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_type;

    fn d(old: &str, new: &str) -> Vec<String> {
        diff(&parse_type(old).unwrap(), &parse_type(new).unwrap())
            .iter()
            .map(|c| c.to_string())
            .collect()
    }

    #[test]
    fn identical_schemas_have_no_diff() {
        assert!(d("{a: Num, b: Str?}", "{a: Num, b: Str?}").is_empty());
        assert!(d("Num + Str", "Num + Str").is_empty());
    }

    #[test]
    fn added_and_removed_fields() {
        assert_eq!(d("{a: Num}", "{a: Num, b: Str}"), vec!["+ $.b (new)"]);
        assert_eq!(d("{a: Num, b: Str}", "{a: Num}"), vec!["- $.b (removed)"]);
    }

    #[test]
    fn kind_changes() {
        assert_eq!(d("{a: Num}", "{a: Str}"), vec!["~ $.a: Num → Str"]);
        assert_eq!(
            d("{a: Num}", "{a: Null + Num}"),
            vec!["~ $.a: Num → Null+Num"]
        );
    }

    #[test]
    fn optionality_changes() {
        assert_eq!(
            d("{a: Num}", "{a: Num?}"),
            vec!["! $.a: mandatory → optional"]
        );
        assert_eq!(
            d("{a: Num?}", "{a: Num}"),
            vec!["! $.a: optional → mandatory"]
        );
    }

    #[test]
    fn nested_changes_carry_paths() {
        assert_eq!(
            d("{u: {id: Num, bio: Str}}", "{u: {id: Str, avatar: Str}}"),
            vec![
                "+ $.u.avatar (new)",
                "- $.u.bio (removed)",
                "~ $.u.id: Num → Str"
            ]
        );
    }

    #[test]
    fn array_element_changes() {
        assert_eq!(
            d("{ks: [{name: Str}*]}", "{ks: [{name: Str, rank: Num}*]}"),
            vec!["+ $.ks[].rank (new)"]
        );
        assert_eq!(d("[Num*]", "[Str*]"), vec!["~ $[]: Num → Str"]);
    }

    #[test]
    fn top_level_kind_change() {
        assert_eq!(d("Num", "Str"), vec!["~ $: Num → Str"]);
    }

    #[test]
    fn record_appears_in_a_union() {
        let changes = d("Str", "Str + {a: Num}");
        assert!(changes.contains(&"~ $: Str → Str+Record".to_string()));
        assert!(changes.contains(&"+ $.a (new)".to_string()));
    }

    #[test]
    fn array_appears_where_there_was_none() {
        let changes = d("{a: Num}", "{a: Num, b: [{c: Str}*]}");
        assert!(changes.contains(&"+ $.b (new)".to_string()));
        // Inner structure of the new array is reported too.
        assert!(changes.contains(&"+ $.b[].c (new)".to_string()));
    }

    #[test]
    fn diff_of_fused_schemas_detects_drift() {
        use typefuse_json::json;
        let old_batch = [json!({"id": 1, "name": "a"}), json!({"id": 2, "name": "b"})];
        let new_batch = [json!({"id": "3", "name": "c", "tags": ["x"]})];
        let fuse_all = |vals: &[typefuse_json::Value]| {
            vals.iter()
                .map(|v| {
                    // local inference to avoid a circular dev-dependency
                    fn infer(v: &typefuse_json::Value) -> Type {
                        match v {
                            typefuse_json::Value::Null => Type::Null,
                            typefuse_json::Value::Bool(_) => Type::Bool,
                            typefuse_json::Value::Number(_) => Type::Num,
                            typefuse_json::Value::String(_) => Type::Str,
                            typefuse_json::Value::Array(a) => Type::Array(
                                crate::ty::ArrayType::new(a.iter().map(infer).collect()),
                            ),
                            typefuse_json::Value::Object(m) => Type::Record(
                                crate::ty::RecordType::new(
                                    m.iter()
                                        .map(|(k, c)| crate::ty::Field::required(k, infer(c)))
                                        .collect(),
                                )
                                .unwrap(),
                            ),
                        }
                    }
                    infer(v)
                })
                .reduce(|_a, b| b) // single shapes here; last is fine
                .unwrap()
        };
        let changes = diff(&fuse_all(&old_batch), &fuse_all(&new_batch));
        let rendered: Vec<String> = changes.iter().map(|c| c.to_string()).collect();
        assert!(rendered.contains(&"+ $.tags (new)".to_string()));
        assert!(rendered.contains(&"~ $.id: Num → Str".to_string()));
    }
}
