//! Fault-tolerant ingestion, end to end: error policies, quarantine,
//! retries, panic isolation — driven by the `typefuse-json` testkit's
//! fault-injection harness.
//!
//! That a corpus with k bad lines under `Skip`/`Quarantine` yields
//! exactly the clean subset's schema, report and sidecar for every
//! driver, worker count, map path and dedup setting is the route
//! matrix's job (`crates/serve/tests/route_matrix.rs`); this file keeps
//! what it cannot see — reader faults, panics, depth limits, random
//! corpora, the report monoid itself, and the online verdict at scale:
//! a sidecar that loses nothing, a stopped run's prefix, and fail-fast
//! that stops reading.

use std::io::BufReader;

use proptest::prelude::*;
use typefuse::json::testkit::{Fault, FaultyReader};
use typefuse::pipeline::DedupMode;
use typefuse::prelude::*;
use typefuse::{BadRecord, Error, IoSite};
use typefuse_json::{ErrorKind, Position};

/// A dirty corpus and its clean subset.
fn dirty_corpus(records: usize, bad_every: usize) -> (String, String, u64) {
    let mut dirty = String::new();
    let mut clean = String::new();
    let mut bad = 0;
    for i in 0..records {
        if i % bad_every == bad_every - 1 {
            dirty.push_str("{definitely not json\n");
            bad += 1;
        } else {
            let line = format!(
                "{{\"id\":{i},\"name\":\"u{i}\",\"tags\":[{}],\"active\":{}}}\n",
                i % 3,
                i % 2 == 0
            );
            dirty.push_str(&line);
            clean.push_str(&line);
        }
    }
    (dirty, clean, bad)
}

fn job(workers: usize, map_path: MapPath, dedup: DedupMode) -> JobConfig {
    JobConfig::new()
        .workers(workers)
        .map_path(map_path)
        .dedup(dedup)
        .without_type_stats()
}

#[test]
fn fail_fast_is_the_default_and_stops_at_the_earliest_line() {
    let (dirty, _, _) = dirty_corpus(40, 5);
    for workers in [1, 4] {
        let err = JobConfig::new()
            .workers(workers)
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap_err();
        match err {
            Error::Parse(e) => assert_eq!(e.span().start.line, 5, "earliest bad line wins"),
            other => panic!("expected a parse error, got {other}"),
        }
    }
}

#[test]
fn truncated_final_line_with_and_without_newline() {
    // A final line that is valid JSON parses whether or not the stream
    // ends in a newline; a *cut-off* final record is an error —
    // fail-fast aborts, skip drops exactly that record.
    for map_path in [MapPath::Events, MapPath::Shape] {
        for tail_newline in [true, false] {
            let mut good = String::from("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}");
            if tail_newline {
                good.push('\n');
            }
            let result = job(2, map_path, DedupMode::Off)
                .build()
                .run(Source::ndjson(good.as_bytes()))
                .unwrap();
            assert_eq!(result.records, 2, "{map_path:?} newline={tail_newline}");

            let mut cut = String::from("{\"a\":1}\n{\"a\":2,\"b\":");
            if tail_newline {
                cut.push('\n');
            }
            let err = job(2, map_path, DedupMode::Off)
                .build()
                .run(Source::ndjson(cut.as_bytes()))
                .unwrap_err();
            assert!(
                matches!(err, Error::Parse(_)),
                "{map_path:?} newline={tail_newline}: {err}"
            );

            let skipped = job(2, map_path, DedupMode::Off)
                .on_error(ErrorPolicy::skip())
                .build()
                .run(Source::ndjson(cut.as_bytes()))
                .unwrap();
            assert_eq!(skipped.records, 1);
            assert_eq!(skipped.errors.skipped(), 1);
            assert_eq!(skipped.errors.first().unwrap().at, 2);
        }
    }
}

#[test]
fn injected_worker_panic_surfaces_as_an_error_not_an_abort() {
    let (dirty, _, _) = dirty_corpus(64, 1000); // all clean
    for map_path in [MapPath::Events, MapPath::Shape] {
        let rec = Recorder::enabled();
        let err = JobConfig::new()
            .workers(4)
            .map_path(map_path)
            .recorder(rec.clone())
            .chaos_panic_at(17)
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap_err();
        match &err {
            Error::Worker(p) => {
                assert!(p.message.contains("injected chaos panic at line 17"), "{p}");
            }
            other => panic!("{map_path:?}: expected Error::Worker, got {other}"),
        }
        assert!(err.is_worker());
        assert!(rec.snapshot().counters["ingest.worker_panics"] >= 1);
    }
}

#[test]
fn transient_read_faults_are_retried_to_success() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    let rec = Recorder::enabled();
    let reader = FaultyReader::new(
        data.as_bytes(),
        vec![
            Fault::TransientAt {
                offset: 8,
                kind: std::io::ErrorKind::Interrupted,
                times: 2,
            },
            Fault::TransientAt {
                offset: 16,
                kind: std::io::ErrorKind::WouldBlock,
                times: 1,
            },
        ],
    );
    let result = JobConfig::new()
        .recorder(rec.clone())
        .retry(RetryPolicy::default())
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap();
    assert_eq!(result.records, 3);
    assert_eq!(rec.snapshot().counters["ingest.retries"], 3);
}

#[test]
fn exhausted_retries_surface_as_io_with_the_line() {
    let data = "{\"a\":1}\n{\"a\":2}\n";
    let reader = FaultyReader::new(
        data.as_bytes(),
        vec![Fault::TransientAt {
            offset: 8,
            kind: std::io::ErrorKind::Interrupted,
            times: 100,
        }],
    );
    let err = JobConfig::new()
        .retry(RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        })
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap_err();
    assert!(err.is_io(), "{err}");
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn permanent_read_faults_are_io_errors_under_every_policy() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    for policy in [ErrorPolicy::FailFast, ErrorPolicy::skip()] {
        let reader = FaultyReader::new(
            data.as_bytes(),
            vec![Fault::FailAt {
                offset: 12,
                kind: std::io::ErrorKind::ConnectionReset,
            }],
        );
        let err = JobConfig::new()
            .on_error(policy.clone())
            .build()
            .run(Source::ndjson(BufReader::new(reader)))
            .unwrap_err();
        assert!(err.is_io(), "{policy:?}: {err}");
    }
}

#[test]
fn corrupt_bytes_and_truncation_degrade_per_policy() {
    let data = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
    // Corrupt one byte inside record 2: `{"a"X2}` is a parse error.
    let corrupted = || {
        FaultyReader::new(
            data.as_bytes(),
            vec![Fault::CorruptByte {
                offset: 12,
                byte: b'X',
            }],
        )
    };
    let err = JobConfig::new()
        .build()
        .run(Source::ndjson(BufReader::new(corrupted())))
        .unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err}");

    let result = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(corrupted())))
        .unwrap();
    assert_eq!(result.records, 2);
    assert_eq!(result.errors.first().unwrap().at, 2);

    // Truncate the stream mid-record: the torn tail is one bad record.
    let truncated = FaultyReader::new(data.as_bytes(), vec![Fault::TruncateAt { offset: 12 }]);
    let result = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(truncated)))
        .unwrap();
    assert_eq!(result.records, 1);
    assert_eq!(result.errors.skipped(), 1);
}

#[test]
fn short_reads_change_nothing() {
    let (dirty, clean, _) = dirty_corpus(50, 6);
    let expect = JobConfig::new()
        .build()
        .run(Source::ndjson(clean.as_bytes()))
        .unwrap();
    let reader = FaultyReader::new(dirty.as_bytes(), vec![Fault::ShortReads { max: 3 }]);
    let got = JobConfig::new()
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(BufReader::new(reader)))
        .unwrap();
    assert_eq!(got.schema, expect.schema);
}

#[test]
fn oversized_lines_follow_the_policy() {
    let data = "{\"a\":1}\n{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\":2}\n";
    let err = JobConfig::new()
        .max_line_bytes(32)
        .build()
        .run(Source::ndjson(data.as_bytes()))
        .unwrap_err();
    assert!(err.to_string().contains("line-size guard"), "{err}");

    let result = JobConfig::new()
        .max_line_bytes(32)
        .on_error(ErrorPolicy::skip())
        .build()
        .run(Source::ndjson(data.as_bytes()))
        .unwrap();
    assert_eq!(result.records, 2);
    assert_eq!(result.errors.skipped(), 1);
    assert_eq!(result.errors.first().unwrap().at, 2);
}

#[test]
fn an_over_cap_line_straddling_split_boundaries_keeps_ownership_intact() {
    use typefuse::splits::{plan_splits, read_split_with};
    // One 400-byte line in the middle of short ones: with 7 or 13 parts
    // it spans several whole splits. The cap bounds only the buffer, so
    // its owner still consumes it to the newline and every other line
    // starts where it would without a cap.
    let short = |i: usize| format!("{{\"n\":{i}}}\n");
    let long = format!("{{\"pad\":\"{}\"}}\n", "x".repeat(390));
    let contents: String = (0..20)
        .map(short)
        .chain([long])
        .chain((20..40).map(short))
        .collect();
    let path = std::env::temp_dir().join(format!("typefuse-capped-{}.ndjson", std::process::id()));
    std::fs::write(&path, &contents).unwrap();
    for parts in [1, 2, 3, 7, 13] {
        let mut seen: Vec<(u64, bool)> = Vec::new();
        for split in plan_splits(contents.len() as u64, parts) {
            let (retry, rec) = (RetryPolicy::none(), Recorder::disabled());
            read_split_with(&path, split, Some(16), retry, &rec, |offset, line, cut| {
                assert!(line.len() <= 16);
                seen.push((offset, cut));
                true
            })
            .unwrap();
        }
        assert_eq!(seen.len(), 41, "parts = {parts}");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 41, "duplicate ownership with {parts} parts");
        let truncated = seen.iter().filter(|(_, cut)| *cut).count();
        assert_eq!(truncated, 1, "parts = {parts}");
    }
    // The same file through the whole split driver: 40 records, the
    // capped line skipped with the configured cap in its error.
    for workers in [1, 3] {
        let job = JobConfig::new()
            .workers(workers)
            .max_line_bytes(16)
            .on_error(ErrorPolicy::skip())
            .build();
        let file = typefuse::splits::infer_file(&path, &job).unwrap();
        assert_eq!((file.records, file.errors.skipped()), (40, 1));
        let bad = file.errors.first().unwrap();
        assert_eq!(bad.error.kind(), &ErrorKind::RecordTooLarge(16));
        assert_eq!(bad.at, 10 * 8 + 10 * 9, "byte offset of the long line");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn nesting_at_the_depth_limit_fits_a_worker_stack_on_every_route() {
    use typefuse::types::wire::{from_wire, to_wire};
    use typefuse_json::ParserOptions;
    let limit = ParserOptions::MAX_DEPTH_LIMIT;
    assert_eq!(
        JobConfig::new()
            .max_depth(limit + 1)
            .parser_options
            .max_depth,
        limit
    );
    let nest = |open: &str, close: &str, levels: usize, leaf: &str| {
        format!("{}{leaf}{}\n", open.repeat(levels), close.repeat(levels))
    };
    // Two leaves per shape, so fusion walks to the bottom; the last line
    // is one level too deep.
    let data = [
        nest("[", "]", limit, "1"),
        nest("[", "]", limit, "\"s\""),
        nest("{\"a\":", "}", limit, "1"),
        nest("{\"a\":", "}", limit, "null"),
        nest("[", "]", limit + 1, "1"),
    ]
    .concat();
    let path = std::env::temp_dir().join(format!("typefuse-deep-{}.ndjson", std::process::id()));
    std::fs::write(&path, &data).unwrap();
    // Asking for more than the limit changes nothing: the walkers clamp.
    let unbounded = ParserOptions {
        max_depth: usize::MAX,
        ..ParserOptions::default()
    };
    let check = |label: &str, schema: Type, records: u64, errors: &ErrorReport| {
        assert_eq!((records, errors.skipped()), (4, 1), "{label}");
        let kind = errors.first().unwrap().error.kind();
        assert_eq!(kind, &ErrorKind::RecursionLimitExceeded, "{label}");
        assert_eq!(schema.depth(), limit + 1, "{label}");
        assert!(schema.to_string().len() > 2 * limit, "{label}");
        assert!(typefuse::types::print::pretty(&schema).len() > 2 * limit);
        assert_eq!(from_wire(&to_wire(&schema)).unwrap(), schema, "{label}");
    };
    // 2 MiB is what every pool worker, daemon poller and test thread gets.
    std::thread::scope(|scope| {
        let walk = || {
            for map_path in [MapPath::Events, MapPath::Shape] {
                for (workers, dedup) in [(1, DedupMode::Off), (2, DedupMode::On)] {
                    let label = format!("{map_path:?} workers={workers}");
                    let job = job(workers, map_path, dedup)
                        .parser_options(unbounded.clone())
                        .on_error(ErrorPolicy::skip())
                        .build();
                    let batch = job.run(Source::ndjson(data.as_bytes())).unwrap();
                    check(&label, batch.schema, batch.records, &batch.errors);
                    let file = typefuse::splits::infer_file(&path, &job).unwrap();
                    check(&label, file.schema, file.records, &file.errors);
                    let profiled = job.run_profiled(Source::ndjson(data.as_bytes())).unwrap();
                    assert!(profiled.profile.to_json().len() > 2 * limit, "{label}");
                    let schema = profiled.profile.schema;
                    check(&label, schema, profiled.records, &profiled.errors);
                }
            }
        };
        let worker = std::thread::Builder::new().stack_size(2 << 20);
        worker.spawn_scoped(scope, walk).unwrap().join().unwrap();
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn io_site_formats_all_coordinates() {
    let err = Error::io_at(
        std::io::Error::other("boom"),
        IoSite::offset(123).in_split(4),
    );
    let msg = err.to_string();
    assert!(msg.contains("byte 123") && msg.contains("split 4"), "{msg}");
}

// ---- The online verdict ----------------------------------------------

/// How a run reads its input: line-numbered drivers first, then the
/// byte-range splits (their bad records sit at byte offsets).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reader {
    Batch(usize),
    Profiled(usize),
    Stdin,
    Values,
    Splits(usize),
}

const READERS: [Reader; 8] = [
    Reader::Batch(1),
    Reader::Batch(4),
    Reader::Profiled(4),
    Reader::Stdin,
    Reader::Values,
    Reader::Splits(1),
    Reader::Splits(4),
    Reader::Splits(2),
];

impl Reader {
    fn counts_lines(self) -> bool {
        !matches!(self, Reader::Splits(_))
    }

    /// Run over `input` (also at `path`) under `policy`: the skip count
    /// or the error's text, and the recorder.
    fn run(
        self,
        policy: &ErrorPolicy,
        input: &str,
        path: &std::path::Path,
    ) -> (Result<u64, String>, Recorder) {
        let rec = Recorder::enabled();
        let workers = match self {
            Reader::Batch(w) | Reader::Profiled(w) | Reader::Splits(w) => w,
            Reader::Stdin | Reader::Values => 1,
        };
        let job = JobConfig::new()
            .workers(workers)
            .without_type_stats()
            .on_error(policy.clone())
            .recorder(rec.clone())
            .build();
        let bytes = input.as_bytes();
        let skipped = match self {
            Reader::Batch(_) => job.run(Source::ndjson(bytes)).map(|r| r.errors),
            Reader::Profiled(_) => job.run_profiled(Source::ndjson(bytes)).map(|r| r.errors),
            Reader::Stdin => typefuse::fold::fold_stream(&mut &bytes[..], job.config(), false)
                .map(|f| f.report().clone()),
            Reader::Values => typefuse::fold::for_each_value(&mut &bytes[..], job.config(), |_| {}),
            Reader::Splits(_) => typefuse::splits::infer_file(path, &job).map(|f| f.errors),
        };
        (skipped.map(|r| r.skipped()).map_err(|e| e.to_string()), rec)
    }
}

/// `lines` lines, every other one malformed (the first is a record).
fn alternating(lines: usize) -> String {
    (0..lines)
        .map(|i| if i % 2 == 0 { "{\"a\":1}\n" } else { "{bad\n" })
        .collect()
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("typefuse-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn quarantine_loses_nothing_past_a_hundred_thousand_bad_lines() {
    const BAD: u64 = 100_050;
    let dir = scratch_dir("no-loss");
    let input = alternating(2 * BAD as usize);
    let path = dir.join("input.ndjson");
    std::fs::write(&path, &input).unwrap();
    let readers = [
        Reader::Batch(1),
        Reader::Batch(4),
        Reader::Stdin,
        Reader::Splits(1),
        Reader::Splits(4),
    ];
    let mut sidecars: Vec<(Reader, Vec<u8>)> = Vec::new();
    for reader in readers {
        let sink = dir.join(format!("{reader:?}.sidecar"));
        let (skipped, rec) = reader.run(&ErrorPolicy::quarantine(&sink), &input, &path);
        let sidecar = std::fs::read(&sink).unwrap();
        let lines = sidecar.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(skipped, Ok(BAD), "{reader:?}");
        assert_eq!(lines, BAD, "{reader:?}");
        assert_eq!(rec.counter_value("ingest.quarantined"), BAD, "{reader:?}");
        assert_eq!(rec.counter_value("ingest.skipped"), BAD, "{reader:?}");
        sidecars.push((reader, sidecar));
    }
    // One coordinate family, one sidecar.
    for family in [true, false] {
        let mut same = sidecars.iter().filter(|(r, _)| r.counts_lines() == family);
        let (first, bytes) = same.next().unwrap();
        for (other, theirs) in same {
            assert!(
                bytes == theirs,
                "{first:?} and {other:?} wrote different sidecars"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_run_stopped_by_its_budget_leaves_a_prefix_of_the_full_sidecar() {
    let dir = scratch_dir("budget-prefix");
    let input = alternating(400);
    let path = dir.join("input.ndjson");
    std::fs::write(&path, &input).unwrap();
    for limit in [0, 7, 150] {
        let mut errors: Vec<(Reader, String)> = Vec::new();
        for reader in READERS {
            let full = dir.join(format!("{reader:?}.full"));
            let (skipped, _) = reader.run(&ErrorPolicy::quarantine(&full), &input, &path);
            assert_eq!(skipped, Ok(200), "{reader:?}");
            let sink = dir.join(format!("{reader:?}.capped"));
            let capped = ErrorPolicy::Quarantine {
                sink: sink.clone(),
                max_errors: Some(limit),
            };
            let (outcome, _) = reader.run(&capped, &input, &path);
            let error = outcome.expect_err("over budget");
            assert!(
                error.starts_with("error budget exceeded"),
                "{reader:?}: {error}"
            );
            if reader == Reader::Values {
                // The value driver writes its sidecar too.
                assert!(sink.exists(), "{reader:?}");
            }
            let (full, capped) = (std::fs::read(&full).unwrap(), std::fs::read(&sink).unwrap());
            let kept = capped.iter().filter(|&&b| b == b'\n').count() as u64;
            assert!(kept > limit, "{reader:?} limit {limit}: {kept} lines");
            assert!(
                full.starts_with(&capped),
                "{reader:?} limit {limit}: not a prefix"
            );
            errors.push((reader, error));
        }
        for family in [true, false] {
            let mut same = errors.iter().filter(|(r, _)| r.counts_lines() == family);
            let (first, text) = same.next().unwrap();
            for (other, theirs) in same {
                assert_eq!(text, theirs, "{first:?} vs {other:?}, limit {limit}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fail_fast_stops_reading_at_the_bad_line() {
    let dir = scratch_dir("fail-fast-stops");
    let input: String = std::iter::once("{bad\n".to_string())
        .chain((1..10_000).map(|i| format!("{{\"n\":{i}}}\n")))
        .collect();
    let path = dir.join("input.ndjson");
    std::fs::write(&path, &input).unwrap();
    for reader in [Reader::Stdin, Reader::Values, Reader::Splits(1)] {
        let (outcome, rec) = reader.run(&ErrorPolicy::FailFast, &input, &path);
        let error = outcome.expect_err("line 1 is bad");
        assert!(error.starts_with("parse error"), "{reader:?}: {error}");
        let lines = rec.counter_value("json.lines");
        match reader {
            Reader::Splits(_) => {
                let ranges = rec.counter_value("streaming.splits");
                assert!(
                    lines <= ranges,
                    "{reader:?}: {lines} lines over {ranges} ranges"
                );
            }
            _ => assert_eq!(lines, 1, "{reader:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_verdict_stops_at_the_first_line_past_the_policy_and_a_stop_takes_no_more() {
    let dir = scratch_dir("bad-lines");
    let lines = [bad_record(1, 0), bad_record(2, 1), bad_record(3, 2)];
    let budget = |limit| ErrorPolicy::Skip {
        max_errors: Some(limit),
    };
    for (policy, stop) in [
        (ErrorPolicy::FailFast, Some(0)),
        (budget(1), Some(1)),
        (ErrorPolicy::skip(), None),
    ] {
        let mut judged = typefuse::faults::BadLines::new(policy.clone());
        let verdicts: Vec<bool> = lines
            .iter()
            .map(|line| judged.absorb(line).is_ok())
            .collect();
        assert_eq!(verdicts.iter().position(|ok| !ok), stop, "{policy:?}");
        assert_eq!(judged.stopped(), stop.is_some(), "{policy:?}");
    }
    // Merged in input order, a stopped run keeps its prefix and nothing
    // after it; merging a stopped one in stops the result.
    let sink = dir.join("sidecar.ndjson");
    let policy = ErrorPolicy::Quarantine {
        sink: sink.clone(),
        max_errors: Some(1),
    };
    let judged = |records: &[BadRecord]| {
        let mut out = typefuse::faults::BadLines::new(policy.clone());
        for record in records {
            let _ = out.absorb(record);
        }
        out
    };
    let (a, b, c) = (
        judged(&lines[..1]),
        judged(&lines[1..]),
        judged(&lines[2..]),
    );
    assert!(!a.stopped() && b.stopped());
    let mut ab = a.clone();
    ab.merge(&b);
    let before = ab.report().clone();
    ab.merge(&c);
    assert!(ab.stopped());
    assert_eq!(ab.report(), &before, "nothing follows a stop");
    assert_eq!((before.skipped(), before.first().unwrap().at), (3, 1));
    let err = ab.settle(&Recorder::disabled()).unwrap_err();
    let first = lines[0].error.to_string();
    let expected = format!("error budget exceeded: more than 1 bad records; first: {first}");
    assert_eq!(err.to_string(), expected);
    let written = typefuse::faults::read_quarantine(&sink).unwrap();
    let at: Vec<u64> = written.iter().map(|entry| entry.0).collect();
    assert_eq!(at, [1, 2, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- Property tests ---------------------------------------------------

fn bad_record(at: u64, tag: u8) -> BadRecord {
    BadRecord {
        at,
        error: typefuse_json::Error::at(
            ErrorKind::RecordTooLarge(tag as usize),
            Position {
                offset: at as usize,
                line: at as u32,
                column: 1,
            },
        ),
        text: Some(format!("line-{at}-{tag}")),
    }
}

proptest! {
    /// A random corpus with bad lines under Skip yields exactly the
    /// clean subset's schema for any worker count and map path.
    #[test]
    fn skip_equals_clean_subset_for_random_corpora(
        lines in prop::collection::vec(0usize..6, 1..40),
        workers in 1usize..5,
        shape in any::<bool>(),
    ) {
        const POOL: [&str; 6] = [
            "{\"a\":1}",
            "{\"a\":\"x\",\"b\":[1,2]}",
            "{\"b\":[],\"c\":{\"d\":true}}",
            "{oops",          // bad
            "[1,,2]",         // bad
            "nul",            // bad
        ];
        let map_path = if shape { MapPath::Shape } else { MapPath::Events };
        let mut dirty = String::new();
        let mut clean = String::new();
        for &i in &lines {
            dirty.push_str(POOL[i]);
            dirty.push('\n');
            if i < 3 {
                clean.push_str(POOL[i]);
                clean.push('\n');
            }
        }
        let expect = job(workers, map_path, DedupMode::Auto)
            .build()
            .run(Source::ndjson(clean.as_bytes()))
            .unwrap();
        let got = job(workers, map_path, DedupMode::Auto)
            .on_error(ErrorPolicy::skip())
            .build()
            .run(Source::ndjson(dirty.as_bytes()))
            .unwrap();
        prop_assert_eq!(got.schema, expect.schema);
        prop_assert_eq!(got.records, expect.records);
        let bad = lines.iter().filter(|&&i| i >= 3).count() as u64;
        prop_assert_eq!(got.errors.skipped(), bad);
    }
}
