//! A key costs one allocation per distinct name, not one per occurrence.
//!
//! Once a [`Typer`] has seen a record's keys, typing another record of
//! that shape costs one allocation per non-empty object or array — the
//! vector the type keeps — and nothing per key: the names come out of
//! the typer's table. The two other places a schema's keys used to be
//! copied share them instead: [`TypeInterner::resolve`] hands out the
//! interner's names and [`fuse_into`] the incoming record's. And the
//! table is bounded: whatever the input, a typer holds about 1 MiB.
//!
//! This file is its own test binary because it installs a counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::typer::{NAMES_MAX, NAME_BYTES_MAX};
use typefuse_infer::{fuse_all, fuse_into, infer_type, FuseConfig, Typer};
use typefuse_json::Value;
use typefuse_types::{Field, RecordBuilder, RecordType, Type, TypeInterner};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(calls: u64, bytes: usize, live: i64) {
    CALLS.with(|n| n.set(n.get() + calls));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
    LIVE.with(|n| n.set(n.get() + live));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s without destructors, so
// touching them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
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

fn github(n: usize) -> Vec<Value> {
    Profile::GitHub.generate(41, n).collect()
}

/// Non-empty objects and arrays: the vectors a value's type owns.
fn containers(v: &Value) -> u64 {
    match v {
        Value::Object(m) => {
            u64::from(!m.is_empty()) + m.iter().map(|(_, v)| containers(v)).sum::<u64>()
        }
        Value::Array(a) => u64::from(!a.is_empty()) + a.iter().map(containers).sum::<u64>(),
        _ => 0,
    }
}

fn keys(v: &Value) -> u64 {
    match v {
        Value::Object(m) => m.iter().map(|(_, v)| 1 + keys(v)).sum(),
        Value::Array(a) => a.iter().map(keys).sum(),
        _ => 0,
    }
}

#[test]
fn a_warm_typer_allocates_for_containers_and_not_for_names() {
    let records = github(200);
    let types: Vec<Type> = records.iter().map(infer_type).collect();
    // Two different records of one shape: the second one's keys are all
    // in the table once the first is typed.
    let (first, second) = (0..records.len())
        .flat_map(|i| (i + 1..records.len()).map(move |j| (i, j)))
        .find(|&(i, j)| types[i] == types[j] && records[i] != records[j])
        .expect("the profile repeats its shapes");
    let (first_text, second_text) = (records[first].to_string(), records[second].to_string());
    // Past its first line, a typer keeps the names it types.
    let mut typer = Typer::default();
    typer.type_line(b"{}", 512, &mut (), 0).unwrap();
    typer
        .type_line(first_text.as_bytes(), 512, &mut (), 0)
        .unwrap();
    let (typed, calls, _) =
        allocations(|| typer.type_line(second_text.as_bytes(), 512, &mut (), 0));
    assert_eq!(typed.as_ref(), Some(&types[second]));
    let value = &records[second];
    assert_eq!(calls, containers(value), "one per non-empty container");
    assert!(calls < 20, "{calls} allocations for a github record");
    // A one-shot typer builds no table: it pays one name per key, and
    // the growth of its scratch stacks.
    let (_, cold, _) =
        allocations(|| Typer::default().type_line(second_text.as_bytes(), 512, &mut (), 0));
    assert!(cold >= calls + keys(value), "{cold} one-shot, {calls} warm");
}

/// `ty` with every key `rename`d, the structure untouched.
fn rename(ty: &Type, rename: &impl Fn(&str) -> String) -> Type {
    match ty {
        Type::Record(r) => Type::Record(
            RecordType::new(
                r.fields()
                    .iter()
                    .map(|f| Field {
                        name: rename(&f.name).into(),
                        ty: self::rename(&f.ty, rename),
                        optional: f.optional,
                    })
                    .collect(),
            )
            .unwrap(),
        ),
        Type::Array(a) => Type::Array(typefuse_types::ArrayType::new(
            a.elems().iter().map(|e| self::rename(e, rename)).collect(),
        )),
        Type::Star(body) => Type::star(self::rename(body, rename)),
        Type::Union(u) => Type::union(u.addends().iter().map(|a| self::rename(a, rename))).unwrap(),
        basic => basic.clone(),
    }
}

fn github_schema() -> Type {
    fuse_all(&github(200).iter().map(infer_type).collect::<Vec<_>>())
}

#[test]
fn resolving_an_interned_schema_allocates_no_name_bytes() {
    let schema = github_schema();
    let long = rename(&schema, &|k| format!("{k}{}", "_".repeat(1_000)));
    let mut interner = TypeInterner::new();
    let (id, long_id) = (interner.intern(&schema), interner.intern(&long));
    let (resolved, calls, bytes) = allocations(|| interner.resolve(id));
    assert_eq!(resolved, schema);
    assert!(calls > 0, "the allocator is counting");
    // Keys 1 000 bytes longer cost not one byte more: no key is copied.
    let (long_resolved, long_calls, long_bytes) = allocations(|| interner.resolve(long_id));
    assert_eq!(long_resolved, long);
    assert_eq!((long_calls, long_bytes), (calls, bytes));
    // Every resolution hands out the interner's own names.
    let (Type::Record(r), Type::Record(again)) = (&resolved, &interner.resolve(id)) else {
        panic!("a record")
    };
    for (mine, theirs) in r.fields().iter().zip(again.fields()) {
        assert!(Arc::ptr_eq(&mine.name, &theirs.name), "{}", mine.name);
    }
}

#[test]
fn fusing_in_a_new_field_allocates_no_name_bytes() {
    let schema = github_schema();
    let absorb = |key: &str| {
        let newcomer = RecordBuilder::new().required(key, Type::Num).into_type();
        let mut acc = schema.clone();
        let (changed, calls, bytes) =
            allocations(|| fuse_into(FuseConfig::default(), &mut acc, &newcomer));
        assert!(changed);
        let Type::Record(r) = &newcomer else {
            panic!("a record")
        };
        let Type::Record(a) = &acc else {
            panic!("a record")
        };
        let added = &a.field(key).expect("the new key").name;
        assert!(
            Arc::ptr_eq(added, &r.fields()[0].name),
            "shared, not copied"
        );
        (calls, bytes)
    };
    let (calls, bytes) = absorb(&"z".repeat(1 << 16));
    assert!(bytes < 1 << 16, "{bytes} bytes for a 64 KiB key");
    assert_eq!(absorb("zz"), (calls, bytes), "a key's length costs nothing");
}

#[test]
fn a_typer_holds_about_a_mebibyte_whatever_the_input() {
    let live = || LIVE.with(Cell::get);
    let before = live();
    let mut typer = Typer::default();
    let mut peak = 0;
    // 40 lines of 256 distinct keys of the longest length kept: the
    // table fills, is cleared and fills again.
    for line in 0..40 {
        let text = {
            let keys: Vec<String> = (0..256)
                .map(|i| format!("\"{:0>NAME_BYTES_MAX$}\":1", line * 256 + i))
                .collect();
            format!("{{{}}}", keys.join(","))
        };
        let ty = typer.type_line(text.as_bytes(), 512, &mut (), 0);
        assert!(matches!(ty, Some(Type::Record(r)) if r.len() == 256));
        drop(text);
        peak = peak.max(live() - before);
        assert!(typer.names_held() <= NAMES_MAX);
    }
    // 4 096 names of 256 bytes and their index: ≈ 1.2 MiB at the fullest.
    assert!(peak >= 1 << 20, "the table filled up: {peak} bytes");
    assert!(peak <= 5 << 18, "{peak} bytes held by one typer");
}
