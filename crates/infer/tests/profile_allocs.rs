//! A warm profiler costs no allocation of its own.
//!
//! Once an accumulator knows a record's paths, observing another record
//! of that shape walks the trie by `&str`, appends to a log that has
//! its capacity, and bumps counters in place: the only allocations left
//! are the ones that build the record's `Type` — the same ones
//! `streaming::infer_type_from_slice` makes on the same line.
//!
//! This file is its own test binary because it installs a counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{streaming, ProfileAcc};
use typefuse_json::ParserOptions;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn observing_a_known_shape_allocates_no_more_than_typing_it() {
    let options = ParserOptions::default();
    let lines: Vec<String> = Profile::GitHub
        .generate(11, 200)
        .map(|record| record.to_string())
        .collect();
    let mut acc = ProfileAcc::new();
    for (i, line) in lines.iter().enumerate() {
        acc.absorb_line(i as u64 + 1, line);
    }
    // Every shape is known now; the same lines again are the warm case.
    for (i, line) in lines.iter().enumerate() {
        let at = (lines.len() + i) as u64 + 1;
        let (typed, typing) = allocations(|| streaming::infer_type_from_slice(line.as_bytes()));
        let (observed, observing) = allocations(|| acc.observe_line(at, line.as_bytes(), &options));
        assert_eq!(observed.unwrap(), typed.unwrap());
        assert!(typing > 0, "the allocator is counting");
        assert!(
            observing <= typing,
            "line {}: observing allocated {observing} times, typing {typing}",
            i + 1
        );
    }
}
