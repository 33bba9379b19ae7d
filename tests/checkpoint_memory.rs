//! A checkpoint costs its payload, not a multiple of it.
//!
//! The daemon writes each checkpoint straight from the fold state into
//! one payload buffer per source, with no intermediate `Value` tree and
//! no copy of the frame. The law: while a profiled fold of 300
//! Wikidata-profile records (every record its own shape, the bulk of the
//! payload in the profile) writes its checkpoint, the live heap grows by
//! at most 1.25 × the payload + 256 KiB — the buffer holding the payload
//! plus transients (the wire form of the schema, per-path scratch).
//!
//! This file is its own test binary because it installs a counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count) that keeps the live bytes and their high-water
//! mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use typefuse::fold::{Origin, RecordFold};
use typefuse::prelude::*;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_obs::JsonWriter;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let live = LIVE.with(|n| {
        n.set(n.get() + by);
        n.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are const-initialised thread-local `Cell`s without destructors, so
// touching them neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` returns, and the most its live heap on this thread grew
/// by while it ran.
fn peak_growth<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = work();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

#[test]
fn writing_a_checkpoint_costs_at_most_a_quarter_more_than_its_payload() {
    let mut fold = RecordFold::new(&JobConfig::new(), true);
    for (i, record) in Profile::Wikidata.generate(3, 300).enumerate() {
        let line = record.to_string();
        fold.absorb((Origin::Line(i as u64 + 1), line.as_bytes(), false))
            .unwrap();
    }
    let expected = fold.checkpoint();
    // The daemon's buffer already holds a payload from the tick before;
    // here it is allocated, payload-sized, inside the measurement.
    let (payload, peak) = peak_growth(|| {
        let mut w = JsonWriter::with_buffer(String::with_capacity(expected.len()));
        w.begin_object();
        fold.write_checkpoint(&mut w);
        w.end_object();
        w.finish()
    });
    assert!(
        payload == expected,
        "the streamed payload is the checkpoint"
    );
    let bound = payload.len() + payload.len() / 4 + (256 << 10);
    eprintln!(
        "payload {} bytes, peak live growth {peak} bytes, bound {bound}",
        payload.len()
    );
    assert!(
        peak <= bound,
        "writing a {}-byte checkpoint grew the live heap by {peak} bytes (bound {bound})",
        payload.len()
    );
}
