//! The error path is linear: a bad line costs the same however many came
//! before it.
//!
//! Each driver judges a bad line in O(1) — a count, the earliest record,
//! and under quarantine one rendered sidecar line appended in input
//! order — so four times the input asks four times the allocations of
//! it, under skip and under quarantine, on every driver: the batch run,
//! the stdin fold and the byte-range splits (all with one worker, so the
//! work stays on the calling thread).
//!
//! This file is its own test binary because it installs a counting
//! global allocator (per thread, so the harness's own threads do not
//! disturb the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use typefuse::fold::fold_stream;
use typefuse::pipeline::Source;
use typefuse::{splits, ErrorPolicy, JobConfig};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `work` made on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    work();
    CALLS.with(Cell::get) - before
}

/// `lines` lines alternating a record and a malformed one.
fn alternating(lines: usize) -> String {
    (0..lines)
        .map(|i| match i % 2 {
            0 => "{\"a\":1}\n",
            _ => "{bad\n",
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Driver {
    Batch,
    Stdin,
    Splits,
}

/// Allocator calls of one run of `driver` over `input` (also written to
/// `path`), checking it skipped every bad line.
fn run(driver: Driver, policy: &ErrorPolicy, input: &str, path: &Path) -> u64 {
    std::fs::write(path, input).unwrap();
    let bad = input.lines().filter(|line| *line == "{bad").count() as u64;
    let job = JobConfig::new()
        .workers(1)
        .without_type_stats()
        .on_error(policy.clone())
        .build();
    let mut skipped = 0;
    let calls = allocations(|| {
        skipped = match driver {
            Driver::Batch => job.run(Source::ndjson(input.as_bytes())).unwrap().errors,
            Driver::Stdin => fold_stream(&mut input.as_bytes(), job.config(), false)
                .unwrap()
                .report()
                .clone(),
            Driver::Splits => splits::infer_file(path, &job).unwrap().errors,
        }
        .skipped();
    });
    assert_eq!(skipped, bad, "{driver:?} {policy:?}");
    calls
}

#[test]
fn four_times_the_bad_lines_cost_at_most_four_and_a_half_times_the_allocations() {
    let dir = std::env::temp_dir().join(format!("typefuse-error-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("input.ndjson");
    let policies = [
        ErrorPolicy::skip(),
        ErrorPolicy::quarantine(dir.join("sidecar.ndjson")),
    ];
    const N: usize = 2_000;
    let (small, large) = (alternating(N), alternating(4 * N));
    for policy in &policies {
        for driver in [Driver::Batch, Driver::Stdin, Driver::Splits] {
            let at_n = run(driver, policy, &small, &input);
            let at_4n = run(driver, policy, &large, &input);
            assert!(
                at_4n as f64 <= 4.5 * at_n as f64,
                "{driver:?} {policy:?}: {at_n} allocations for {N} lines, {at_4n} for {}",
                4 * N
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
