//! An absorb costs what it adds, not what is already there.
//!
//! [`fuse_into`] widens the accumulator where it stands, so the
//! allocator sees only the subtrees a record brings and the growth of
//! the vectors they land in — nothing proportional to the schema. The
//! by-reference [`fuse_with`] builds a fresh tree per call and is the
//! yardstick.
//!
//! This file is its own test binary because it installs a counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use typefuse_infer::{fuse_into, fuse_with, FuseConfig};
use typefuse_types::{Field, RecordType, Type};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    CALLS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s without destructors, so
// touching them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` asked of the allocator: (result, calls, bytes).
fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let out = work();
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    (out, calls - before.0, bytes - before.1)
}

const CFG: FuseConfig = FuseConfig {
    array_fusion: typefuse_infer::ArrayFusion::Collapse,
};

/// One field per key: a string, a nested record, a starred array of
/// records and a union take turns, so every kind of node is touched.
fn field(key: String) -> Field {
    let nested = |name: &str| {
        Type::Record(RecordType::new(vec![Field::required(name, Type::Num)]).expect("one key"))
    };
    let ty = match key.len() % 4 {
        0 => Type::Str,
        1 => nested("value"),
        2 => Type::star(nested("id")),
        _ => Type::Num.plus(Type::Null),
    };
    Field::optional(key, ty)
}

fn record(keys: impl Iterator<Item = String>) -> Type {
    Type::Record(RecordType::new(keys.map(field).collect()).expect("distinct keys"))
}

/// A 2 000-field schema: keys `P0`…`P1999`, all optional.
fn wide_schema() -> Type {
    record((0..2000).map(|i| format!("P{i}")))
}

#[test]
fn absorbing_an_admitted_record_allocates_nothing() {
    let mut schema = wide_schema();
    let admitted = record((0..2000).step_by(97).map(|i| format!("P{i}")));
    let before = schema.clone();
    let (changed, calls, bytes) = allocations(|| fuse_into(CFG, &mut schema, &admitted));
    assert!(!changed);
    assert_eq!(schema, before);
    assert_eq!((calls, bytes), (0, 0), "an admitted record is free");
    // The yardstick does allocate: the spec rebuilds the field vector
    // and clones the 1 110 field types that own a vector or a box (the
    // names are shared, so their clones are reference counts).
    let (_, spec_calls, spec_bytes) = allocations(|| fuse_with(CFG, &before, &admitted));
    let field_vector = 2000 * std::mem::size_of::<Field>() as u64;
    assert!(
        spec_calls > 1000 && spec_bytes > field_vector,
        "the allocator is counting"
    );
}

#[test]
fn absorbing_one_new_key_allocates_its_subtree_and_one_growth() {
    let mut schema = wide_schema();
    let fields = match &schema {
        Type::Record(r) => r.len(),
        _ => unreachable!(),
    };
    let newcomer = record(["P1", "P1000", "Q7"].into_iter().map(String::from));
    let new_field = field("Q7".to_string());
    let (_, subtree_calls, subtree_bytes) = allocations(|| new_field.clone());
    let (changed, calls, bytes) = allocations(|| fuse_into(CFG, &mut schema, &newcomer));
    assert!(changed);
    assert_eq!(schema, fuse_with(CFG, &wide_schema(), &newcomer));
    // The subtree's clone (its key is shared), plus the field vector
    // growing once (to at most twice its length) if it was full.
    assert!(
        calls <= subtree_calls + 1,
        "{calls} allocations for a {subtree_calls}-allocation subtree"
    );
    let growth = 2 * (fields + 1) * std::mem::size_of::<Field>();
    assert!(
        bytes <= subtree_bytes + growth as u64,
        "{bytes} bytes for a {subtree_bytes}-byte subtree and a {fields}-field record"
    );
}

#[test]
fn merging_wide_schemas_allocates_a_fraction_of_the_spec() {
    // Two partitions' schemas: 1 900 shared keys, 100 of its own each.
    let left = record((0..2000).map(|i| format!("P{i}")));
    let right = record((100..2100).map(|i| format!("P{i}")));
    let (expected, spec_calls, spec_bytes) = allocations(|| fuse_with(CFG, &left, &right));
    let mut merged = left.clone();
    let (changed, calls, bytes) = allocations(|| fuse_into(CFG, &mut merged, &right));
    assert!(changed);
    assert_eq!(merged, expected);
    // The spec clones every key and subtree of both sides and builds a
    // union per matched field; the kernel clones the 100 new fields and
    // rebuilds one field vector (301 calls / 142 KB against 7 323 /
    // 847 KB when this was written).
    assert!(
        calls * 4 < spec_calls,
        "{calls} allocations against the spec's {spec_calls}"
    );
    assert!(
        bytes * 4 < spec_bytes,
        "{bytes} bytes against the spec's {spec_bytes}"
    );
}
