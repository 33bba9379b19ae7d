//! Hash-consed type interning: an arena of structurally shared type
//! shapes addressed by small integer [`TypeId`]s.
//!
//! Massive JSON datasets are structurally redundant — the paper's own
//! evaluation sees 1M GitHub values collapse to a few thousand distinct
//! inferred types — so representing every per-record type as an owned
//! [`Type`] tree wastes both memory and, worse, comparison time. The
//! [`TypeInterner`] stores each distinct shape exactly once: a shape's
//! children are `TypeId`s into the same arena, so structural equality of
//! whole trees is `u32` equality, and hashing a shape only touches one
//! node, not the subtree below it. Field-name strings are interned in a
//! parallel [`NameId`] pool shared across all record shapes.
//!
//! Interning is bottom-up ([`TypeInterner::intern`] interns children
//! before parents), which yields the arena ordering invariant exploited
//! throughout: **every shape's children have smaller ids than the shape
//! itself**. Merging two interners ([`TypeInterner::absorb`]) is therefore
//! a single linear walk of the other arena in id order, translating child
//! ids through an already-complete prefix of the translation table.

use crate::kind::TypeKind;
use crate::ty::{ArrayType, Field, Name, RecordType, Type};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A fast, non-cryptographic hasher in the FxHash family
/// (multiply-rotate-xor over word-sized chunks).
///
/// Interning hashes one small shape node per JSON value absorbed, so the
/// std `HashMap`'s SipHash is a measurable tax; this hasher is the usual
/// answer and is vendored here because the workspace takes no external
/// dependencies. Not DoS-resistant — use only for in-process tables whose
/// keys the process itself constructs.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — the table flavour used by the
/// interner and by the fusion memo-cache in `typefuse-infer`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Handle to an interned type shape. Ids are dense indices into one
/// [`TypeInterner`]'s arena and are meaningless across interners (use
/// [`TypeInterner::absorb`] to translate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(u32);

impl TypeId {
    /// The empty type `ε` — pre-interned in every interner.
    pub const BOTTOM: TypeId = TypeId(0);
    /// `Null` — pre-interned in every interner.
    pub const NULL: TypeId = TypeId(1);
    /// `Bool` — pre-interned in every interner.
    pub const BOOL: TypeId = TypeId(2);
    /// `Num` — pre-interned in every interner.
    pub const NUM: TypeId = TypeId(3);
    /// `Str` — pre-interned in every interner.
    pub const STR: TypeId = TypeId(4);

    /// The arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an interned field-name string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The name-pool index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned record field: name, field type, optionality — the
/// id-level image of [`Field`].
pub type FieldShape = (NameId, TypeId, bool);

/// One arena node. Children are ids, so equality and hashing are shallow.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Shape {
    Bottom,
    Null,
    Bool,
    Num,
    Str,
    Record(Vec<FieldShape>),
    Array(Vec<TypeId>),
    Star(TypeId),
    Union(Vec<TypeId>),
}

/// A borrowed view of an interned shape, one level deep. Children are
/// [`TypeId`]s to be looked up in the same interner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeRef<'a> {
    /// The empty type `ε`.
    Bottom,
    /// `Null`.
    Null,
    /// `Bool`.
    Bool,
    /// `Num`.
    Num,
    /// `Str`.
    Str,
    /// A record: fields sorted by (interned) key, keys unique.
    Record(&'a [FieldShape]),
    /// A positional array.
    Array(&'a [TypeId]),
    /// A starred array `[T*]`.
    Star(TypeId),
    /// A flat kind-unique union, sorted by kind, ≥ 2 addends.
    Union(&'a [TypeId]),
}

/// The hash-consing arena: each distinct type shape is stored once and
/// addressed by a [`TypeId`].
///
/// Cloning an interner clones the arena — the accumulators that carry
/// one are `Clone` through it. An interner is not shareable across
/// threads while being mutated; per-worker interners are
/// merged with [`TypeInterner::absorb`] at combine time instead.
#[derive(Debug, Clone)]
pub struct TypeInterner {
    shapes: Vec<Shape>,
    /// Structural hash → the newest shape with that hash; `same_hash`
    /// links each shape to the previous one sharing its hash. The arena
    /// is the only owner of a shape: a wide record costs its field list
    /// once, not once more as a map key.
    by_hash: FxHashMap<u64, TypeId>,
    same_hash: Vec<Option<TypeId>>,
    names: Vec<Name>,
    name_ids: FxHashMap<Name, NameId>,
}

impl Default for TypeInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeInterner {
    /// An interner with the five constant shapes (`ε` and the four basic
    /// types) pre-interned at their fixed [`TypeId`] constants.
    pub fn new() -> Self {
        let mut interner = TypeInterner {
            shapes: Vec::new(),
            by_hash: FxHashMap::default(),
            same_hash: Vec::new(),
            names: Vec::new(),
            name_ids: FxHashMap::default(),
        };
        for (shape, expect) in [
            (Shape::Bottom, TypeId::BOTTOM),
            (Shape::Null, TypeId::NULL),
            (Shape::Bool, TypeId::BOOL),
            (Shape::Num, TypeId::NUM),
            (Shape::Str, TypeId::STR),
        ] {
            let id = interner.intern_shape(shape);
            debug_assert_eq!(id, expect);
        }
        interner
    }

    /// Number of distinct shapes in the arena (including the five
    /// pre-interned constants).
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the arena is empty. Never true: the constants are always
    /// present. Provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    fn intern_shape(&mut self, shape: Shape) -> TypeId {
        use std::hash::BuildHasher;
        let hash = FxBuildHasher::default().hash_one(&shape);
        let newest = self.by_hash.get(&hash).copied();
        let mut candidate = newest;
        while let Some(id) = candidate {
            if self.shapes[id.index()] == shape {
                return id;
            }
            candidate = self.same_hash[id.index()];
        }
        let id = TypeId(u32::try_from(self.shapes.len()).expect("type arena overflow"));
        self.shapes.push(shape);
        self.same_hash.push(newest);
        self.by_hash.insert(hash, id);
        id
    }

    /// Intern a field name, returning its pool id. Equal strings always
    /// map to equal ids within one interner. On first sight the pool
    /// keeps `name` itself, not a copy of its text.
    pub fn intern_name(&mut self, name: &Name) -> NameId {
        if let Some(&id) = self.name_ids.get(&**name) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name pool overflow"));
        self.names.push(Arc::clone(name));
        self.name_ids.insert(Arc::clone(name), id);
        id
    }

    /// The string behind a [`NameId`].
    pub fn name(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// Intern a full [`Type`] tree bottom-up, returning the id of its
    /// root shape. Structurally equal trees always yield the same id.
    pub fn intern(&mut self, ty: &Type) -> TypeId {
        match ty {
            Type::Bottom => TypeId::BOTTOM,
            Type::Null => TypeId::NULL,
            Type::Bool => TypeId::BOOL,
            Type::Num => TypeId::NUM,
            Type::Str => TypeId::STR,
            Type::Record(rt) => {
                let fields: Vec<FieldShape> = rt
                    .fields()
                    .iter()
                    .map(|f| (self.intern_name(&f.name), self.intern(&f.ty), f.optional))
                    .collect();
                self.intern_record(fields)
            }
            Type::Array(at) => {
                let elems: Vec<TypeId> = at.elems().iter().map(|e| self.intern(e)).collect();
                self.intern_array(elems)
            }
            Type::Star(body) => {
                let body = self.intern(body);
                self.intern_star(body)
            }
            Type::Union(u) => {
                let addends: Vec<TypeId> = u.addends().iter().map(|a| self.intern(a)).collect();
                self.intern_union(addends)
            }
        }
    }

    /// Intern a record shape from already-interned fields, which must be
    /// strictly sorted by field-name string (the merge-join in fusion
    /// produces exactly this order).
    pub fn intern_record(&mut self, fields: Vec<FieldShape>) -> TypeId {
        debug_assert!(
            fields
                .windows(2)
                .all(|w| self.name(w[0].0) < self.name(w[1].0)),
            "record fields must be strictly sorted by name"
        );
        debug_assert!(fields.iter().all(|f| f.1.index() < self.shapes.len()));
        self.intern_shape(Shape::Record(fields))
    }

    /// Intern a positional array shape from already-interned elements.
    pub fn intern_array(&mut self, elems: Vec<TypeId>) -> TypeId {
        debug_assert!(elems.iter().all(|e| e.index() < self.shapes.len()));
        self.intern_shape(Shape::Array(elems))
    }

    /// Intern a starred array shape `[body*]`.
    pub fn intern_star(&mut self, body: TypeId) -> TypeId {
        debug_assert!(body.index() < self.shapes.len());
        self.intern_shape(Shape::Star(body))
    }

    /// Intern a union of already-interned, kind-unique addends, applying
    /// the usual normalisation: `ε` addends are dropped, the rest sorted
    /// by kind; zero addends yield `ε`, one yields the addend itself.
    ///
    /// The caller must uphold kind-uniqueness (fusion does by
    /// construction: it fuses same-kind addends instead of listing them
    /// twice); that invariant is checked only in debug builds.
    pub fn intern_union(&mut self, addends: impl IntoIterator<Item = TypeId>) -> TypeId {
        let mut flat: Vec<TypeId> = addends
            .into_iter()
            .filter(|&a| a != TypeId::BOTTOM)
            .collect();
        flat.sort_by_key(|&a| {
            self.kind(a)
                .expect("union addends are non-union, non-ε shapes")
                .code()
        });
        flat.dedup();
        debug_assert!(
            flat.windows(2).all(|w| self.kind(w[0]) != self.kind(w[1])),
            "union addends must be kind-unique"
        );
        match flat.len() {
            0 => TypeId::BOTTOM,
            1 => flat[0],
            _ => self.intern_shape(Shape::Union(flat)),
        }
    }

    /// The kind of an interned shape; `None` for `ε` and unions, exactly
    /// as [`Type::kind`].
    pub fn kind(&self, id: TypeId) -> Option<TypeKind> {
        match &self.shapes[id.index()] {
            Shape::Bottom | Shape::Union(_) => None,
            Shape::Null => Some(TypeKind::Null),
            Shape::Bool => Some(TypeKind::Bool),
            Shape::Num => Some(TypeKind::Num),
            Shape::Str => Some(TypeKind::Str),
            Shape::Record(_) => Some(TypeKind::Record),
            Shape::Array(_) | Shape::Star(_) => Some(TypeKind::Array),
        }
    }

    /// A one-level view of an interned shape.
    pub fn shape(&self, id: TypeId) -> ShapeRef<'_> {
        match &self.shapes[id.index()] {
            Shape::Bottom => ShapeRef::Bottom,
            Shape::Null => ShapeRef::Null,
            Shape::Bool => ShapeRef::Bool,
            Shape::Num => ShapeRef::Num,
            Shape::Str => ShapeRef::Str,
            Shape::Record(fields) => ShapeRef::Record(fields),
            Shape::Array(elems) => ShapeRef::Array(elems),
            Shape::Star(body) => ShapeRef::Star(*body),
            Shape::Union(addends) => ShapeRef::Union(addends),
        }
    }

    /// Reconstruct the owned [`Type`] tree behind an id. The result is
    /// normal by the same invariants the interning constructors maintain;
    /// its field names are the pool's own, shared, not copied.
    pub fn resolve(&self, id: TypeId) -> Type {
        match &self.shapes[id.index()] {
            Shape::Bottom => Type::Bottom,
            Shape::Null => Type::Null,
            Shape::Bool => Type::Bool,
            Shape::Num => Type::Num,
            Shape::Str => Type::Str,
            Shape::Record(fields) => {
                let fields = fields
                    .iter()
                    .map(|&(name, ty, optional)| Field {
                        name: Arc::clone(&self.names[name.index()]),
                        ty: self.resolve(ty),
                        optional,
                    })
                    .collect();
                Type::Record(
                    RecordType::from_sorted(fields).expect("interned record fields are sorted"),
                )
            }
            Shape::Array(elems) => Type::Array(ArrayType::new(
                elems.iter().map(|&e| self.resolve(e)).collect(),
            )),
            Shape::Star(body) => Type::star(self.resolve(*body)),
            Shape::Union(addends) => Type::union(addends.iter().map(|&a| self.resolve(a)))
                .expect("interned unions are normal"),
        }
    }

    /// Merge another interner's arena into this one, returning the
    /// translation table `map` with `map[other_id.index()]` = the
    /// corresponding id in `self`.
    ///
    /// Runs in one linear pass over `other`'s arena: bottom-up interning
    /// guarantees each shape's children precede it, so their translations
    /// are already in `map` when the shape itself is reached.
    pub fn absorb(&mut self, other: &TypeInterner) -> Vec<TypeId> {
        let name_map: Vec<NameId> = other
            .names
            .iter()
            .map(|name| self.intern_name(name))
            .collect();
        let mut map: Vec<TypeId> = Vec::with_capacity(other.shapes.len());
        for shape in &other.shapes {
            let translated = match shape {
                Shape::Bottom => Shape::Bottom,
                Shape::Null => Shape::Null,
                Shape::Bool => Shape::Bool,
                Shape::Num => Shape::Num,
                Shape::Str => Shape::Str,
                Shape::Record(fields) => Shape::Record(
                    fields
                        .iter()
                        .map(|&(name, ty, optional)| {
                            (name_map[name.index()], map[ty.index()], optional)
                        })
                        .collect(),
                ),
                Shape::Array(elems) => Shape::Array(elems.iter().map(|e| map[e.index()]).collect()),
                Shape::Star(body) => Shape::Star(map[body.index()]),
                Shape::Union(addends) => {
                    Shape::Union(addends.iter().map(|a| map[a.index()]).collect())
                }
            };
            map.push(self.intern_shape(translated));
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::RecordBuilder;

    fn sample() -> Type {
        RecordBuilder::new()
            .required("id", Type::Num)
            .optional("tags", Type::star(Type::Str.plus(Type::Null)))
            .required(
                "actor",
                RecordBuilder::new()
                    .required("id", Type::Num)
                    .required("login", Type::Str)
                    .into_type(),
            )
            .into_type()
    }

    #[test]
    fn constants_are_fixed() {
        let mut interner = TypeInterner::new();
        assert_eq!(interner.intern(&Type::Bottom), TypeId::BOTTOM);
        assert_eq!(interner.intern(&Type::Null), TypeId::NULL);
        assert_eq!(interner.intern(&Type::Bool), TypeId::BOOL);
        assert_eq!(interner.intern(&Type::Num), TypeId::NUM);
        assert_eq!(interner.intern(&Type::Str), TypeId::STR);
        assert_eq!(interner.len(), 5);
    }

    #[test]
    fn intern_resolve_round_trip() {
        let mut interner = TypeInterner::new();
        let ty = sample();
        let id = interner.intern(&ty);
        assert_eq!(interner.resolve(id), ty);
        assert_eq!(interner.kind(id), ty.kind());
    }

    #[test]
    fn equal_trees_share_ids() {
        let mut interner = TypeInterner::new();
        let a = interner.intern(&sample());
        let before = interner.len();
        let b = interner.intern(&sample());
        assert_eq!(a, b);
        assert_eq!(interner.len(), before, "re-interning allocates nothing");
    }

    #[test]
    fn shared_subtrees_are_stored_once() {
        let mut interner = TypeInterner::new();
        let inner = RecordBuilder::new().required("x", Type::Num).into_type();
        let t1 = RecordBuilder::new()
            .required("a", inner.clone())
            .into_type();
        let t2 = RecordBuilder::new()
            .required("b", inner.clone())
            .into_type();
        interner.intern(&t1);
        let before = interner.len();
        interner.intern(&t2);
        // Only t2's root is new; the shared inner record is reused.
        assert_eq!(interner.len(), before + 1);
    }

    #[test]
    fn structural_hash_is_stable_across_interners() {
        let mut a = TypeInterner::new();
        let mut b = TypeInterner::new();
        // Interleave unrelated shapes into b so ids diverge.
        b.intern(&Type::star(Type::Bool));
        let ia = a.intern(&sample());
        let ib = b.intern(&sample());
        assert_ne!(ia, ib);
        // Hashes differ (children hashed as ids), but resolution agrees.
        assert_eq!(a.resolve(ia), b.resolve(ib));
    }

    #[test]
    fn union_constructor_normalises() {
        let mut interner = TypeInterner::new();
        assert_eq!(interner.intern_union([]), TypeId::BOTTOM);
        assert_eq!(interner.intern_union([TypeId::NUM]), TypeId::NUM);
        assert_eq!(
            interner.intern_union([TypeId::BOTTOM, TypeId::NUM]),
            TypeId::NUM
        );
        let u1 = interner.intern_union([TypeId::STR, TypeId::NUM]);
        let u2 = interner.intern_union([TypeId::NUM, TypeId::STR]);
        assert_eq!(u1, u2, "addend order does not matter");
        assert_eq!(interner.resolve(u1), Type::Num.plus(Type::Str));
    }

    #[test]
    fn absorb_translates_ids() {
        let mut left = TypeInterner::new();
        let mut right = TypeInterner::new();
        left.intern(&Type::star(Type::Num));
        let r1 = right.intern(&sample());
        let r2 = right.intern(&Type::star(Type::Num));
        let map = left.absorb(&right);
        assert_eq!(left.resolve(map[r1.index()]), sample());
        assert_eq!(left.resolve(map[r2.index()]), Type::star(Type::Num));
        // Shapes already present in `left` translate to their existing ids.
        let mut probe = left.clone();
        assert_eq!(probe.intern(&Type::star(Type::Num)), map[r2.index()]);
    }

    #[test]
    fn absorb_into_empty_is_identity() {
        let mut right = TypeInterner::new();
        right.intern(&sample());
        let mut left = TypeInterner::new();
        let map = left.absorb(&right);
        assert_eq!(map.len(), right.len());
        for (i, &id) in map.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn name_interning_dedups() {
        let mut interner = TypeInterner::new();
        let a = interner.intern_name(&"login".into());
        let b = interner.intern_name(&"login".into());
        let c = interner.intern_name(&"id".into());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(interner.name(a), "login");
    }

    #[test]
    fn fx_hasher_smoke() {
        use std::hash::{BuildHasher, Hash};
        let build = FxBuildHasher::default();
        let hash = |v: &dyn Fn(&mut FxHasher)| {
            let mut h = build.build_hasher();
            v(&mut h);
            h.finish()
        };
        assert_eq!(
            hash(&|h| 42u64.hash(h)),
            hash(&|h| 42u64.hash(h)),
            "deterministic"
        );
        assert_ne!(hash(&|h| 1u64.hash(h)), hash(&|h| 2u64.hash(h)));
        assert_ne!(hash(&|h| "ab".hash(h)), hash(&|h| "ba".hash(h)));
    }
}
