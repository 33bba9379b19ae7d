//! A version costs the shapes it does not share, not a tree.
//!
//! The index stores versions as ids into one hash-consing interner:
//! widening a 2 000-field record by one field adds one record shape (a
//! field list of ids) to the arena, while the tree of the previous
//! version is dropped when the new one becomes the subject's `latest`.
//!
//! This file is its own test binary because it installs a byte-counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use typefuse_registry::{CompatMode, MemoryRegistry, Registry, RegistryStore};
use typefuse_types::{Field, RecordType, Type};

struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `work`'s result and the bytes still allocated because of it.
fn retained<T>(work: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = work();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

const FIELDS: usize = 2_000;
const WIDENINGS: usize = 200;

/// A record of `FIELDS` mandatory fields and `extra` optional ones.
fn wide_record(extra: usize) -> Type {
    let base = (0..FIELDS).map(|i| Field::required(format!("f{i:04}"), Type::Num));
    let extras = (0..extra).map(|i| Field::optional(format!("g{i:04}"), Type::Str));
    Type::Record(RecordType::new(base.chain(extras).collect()).unwrap())
}

/// Publish the base record and its `WIDENINGS` successive widenings;
/// returns the bytes one resolved tree holds and the bytes each version
/// after the first left behind.
fn publish_widenings(store: &mut dyn RegistryStore) -> (i64, i64) {
    store
        .publish_schema("s", wide_record(0), CompatMode::Backward)
        .unwrap();
    let (tree, tree_bytes) = retained(|| store.entry("s", 1).unwrap().schema);
    assert_eq!(tree, wide_record(0));
    drop(tree);
    let ((), grown) = retained(|| {
        for extra in 1..=WIDENINGS {
            let outcome = store
                .publish_schema("s", wide_record(extra), CompatMode::Backward)
                .unwrap();
            assert_eq!(
                (outcome.version, outcome.unchanged),
                (extra as u64 + 1, false)
            );
        }
    });
    (tree_bytes, grown / WIDENINGS as i64)
}

#[test]
fn a_version_retains_a_fraction_of_a_tree() {
    let mut store = MemoryRegistry::new();
    let (tree_bytes, per_version) = publish_widenings(&mut store);
    assert!(
        tree_bytes > 100_000,
        "the allocator is counting: {tree_bytes}"
    );
    assert!(
        per_version * 4 <= tree_bytes,
        "{per_version} bytes retained per version, one resolved tree is {tree_bytes}"
    );
    // Every version stays addressable.
    assert_eq!(store.entry("s", 101).unwrap().schema, wide_record(100));
    assert_eq!(store.changes("s", 1, 201).unwrap().len(), WIDENINGS);
}

#[test]
fn reopening_a_log_retains_no_tree_per_version_either() {
    let dir = std::env::temp_dir().join("typefuse-registry-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("version-allocs.ndjson");
    let _ = std::fs::remove_file(&path);
    let tree_bytes = publish_widenings(&mut Registry::open(&path).unwrap()).0;

    let (reopened, held) = retained(|| Registry::open(&path).unwrap());
    assert_eq!(reopened.latest("s").unwrap().version, WIDENINGS as u64 + 1);
    // One tree (the latest) plus a fraction of one per version.
    assert!(
        (held - tree_bytes) * 4 <= tree_bytes * (WIDENINGS as i64 + 1),
        "{held} bytes held for {} versions, one resolved tree is {tree_bytes}",
        WIDENINGS + 1
    );
}
