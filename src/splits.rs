//! Parallel NDJSON file ingestion via byte-range splits.
//!
//! Spark reads HDFS files as block-aligned *input splits*: each task
//! seeks to its byte range and snaps to the next newline so every record
//! is processed exactly once. This module reproduces that mechanism for
//! local NDJSON files, so `SchemaJob`-style inference can run all cores
//! on one big file without first loading it into memory:
//!
//! * [`plan_splits`] — cut `[0, len)` into `n` ranges;
//! * [`read_split_with`] — the snap-to-newline rule: a split owns every
//!   line that *starts* within its range (the first split also owns
//!   offset 0);
//! * [`infer_file`] — one [`RecordFold`] per split (the job's Map
//!   route, dedup mode, fuse configuration, parser limits and line-size
//!   guard; memory stays O(schema) per split), merged in range order.
//!   Bad records ride each fold's [`ErrorReport`] and the policy is
//!   enforced on the merged report, so schema and skip/quarantine
//!   outcomes are byte-identical for any split count, by associativity.
//! * [`infer_file_schema_with`] — the same over an [`IngestOptions`]
//!   bundle (error policy, transient-I/O retry, parser limits) with
//!   every other knob at its default.
//!
//! The line-size guard composes with split ownership: a capped line is
//! still consumed to its newline (only the buffer is bounded), so the
//! next line starts where it would without the cap.

use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::Path;

use crate::error::{Error, IoSite};
use crate::faults::{ErrorPolicy, ErrorReport, RetryPolicy};
use crate::fold::{count_lines, Origin, RecordFold};
use crate::pipeline::SchemaJob;
use typefuse_engine::Runtime;
use typefuse_json::ndjson::read_line_bounded;
use typefuse_json::ParserOptions;
use typefuse_obs::{span, Recorder};
use typefuse_types::Type;

/// A byte range `[start, end)` of the input file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

/// Cut `[0, file_len)` into at most `parts` contiguous ranges of roughly
/// equal size (at least one byte each; fewer ranges for tiny files).
pub fn plan_splits(file_len: u64, parts: usize) -> Vec<Split> {
    if file_len == 0 {
        return Vec::new();
    }
    let parts = (parts.max(1) as u64).min(file_len);
    let base = file_len / parts;
    let rem = file_len % parts;
    let mut splits = Vec::with_capacity(parts as usize);
    let mut start = 0;
    for i in 0..parts {
        let len = base + u64::from(i < rem);
        splits.push(Split {
            start,
            end: start + len,
        });
        start += len;
    }
    splits
}

/// Fault-tolerance knobs for file-split ingestion, shared by every
/// split worker of one [`infer_file_schema_with`] run.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// What to do with records that fail to parse.
    pub policy: ErrorPolicy,
    /// Retry budget for transient I/O errors (`Interrupted`,
    /// `WouldBlock`); retries count towards `ingest.retries`.
    pub retry: RetryPolicy,
    /// Parser limits (recursion depth, duplicate-key handling).
    pub parser: ParserOptions,
}

/// Read the lines owned by `split`: every line *starting* inside
/// `[start, end)`. A split with `start > 0` first skips the tail of the
/// line that began in the previous split; a line straddling `end` is
/// still read to completion by its owner.
///
/// Each read failure is retried per `retry` (counting `ingest.retries`
/// on `rec`) before surfacing as [`Error::Io`] with the byte offset of
/// the failed read. `on_line` gets the line's absolute offset, its
/// content as read, without the newline (blank lines included; capped
/// at `max_line_bytes`) and whether the cap cut it. Invalid UTF-8
/// arrives verbatim, so the parser reports it as a positioned parse
/// error instead of a bare I/O error. Counts the split's `json.lines`
/// once, when it is read.
pub fn read_split_with(
    path: &Path,
    split: Split,
    max_line_bytes: Option<usize>,
    retry: RetryPolicy,
    rec: &Recorder,
    mut on_line: impl FnMut(u64, &[u8], bool),
) -> Result<(), Error> {
    let file = File::open(path).map_err(|e| Error::io_at(e, IoSite::offset(split.start)))?;
    let mut reader = BufReader::new(file);
    let mut pos = split.start;
    if split.start > 0 {
        reader
            .seek(SeekFrom::Start(split.start - 1))
            .map_err(|e| Error::io_at(e, IoSite::offset(split.start - 1)))?;
        // Skip the (possibly empty) remainder of the previous line. If
        // the byte before our range is itself a newline, the line starts
        // exactly at `start` and belongs to us: the skip consumes just
        // that newline byte.
        let mut skipped = Vec::new();
        let raw = read_line_bounded(&mut reader, &mut skipped, None, retry, rec)
            .map_err(|e| Error::io_at(e, IoSite::offset(split.start - 1)))?;
        pos = split.start - 1 + raw.consumed as u64;
    }
    let (mut line, mut lines) = (Vec::new(), 0u64);
    let read = loop {
        if pos >= split.end {
            break Ok(());
        }
        line.clear();
        match read_line_bounded(&mut reader, &mut line, max_line_bytes, retry, rec) {
            Ok(raw) if raw.consumed == 0 => break Ok(()), // EOF
            Ok(raw) => {
                lines += 1;
                on_line(pos, &line, raw.truncated);
                pos += raw.consumed as u64;
            }
            Err(e) => break Err(Error::io_at(e, IoSite::offset(pos))),
        }
    };
    count_lines(rec, lines);
    read
}

/// Outcome of [`infer_file_schema`].
#[derive(Debug, Clone)]
pub struct FileSchema {
    /// The fused schema of every record in the file.
    pub schema: Type,
    /// Number of records.
    pub records: u64,
    /// Splits processed.
    pub splits: usize,
    /// Records skipped or quarantined by the error policy (empty under
    /// fail-fast). `BadRecord::at` is the absolute byte offset of the
    /// offending line.
    pub errors: ErrorReport,
}

/// Infer the schema of an NDJSON file with `runtime.workers()` parallel
/// splits and default job settings (memory stays O(schema) per split).
pub fn infer_file_schema(path: &Path, runtime: &Runtime) -> Result<FileSchema, Error> {
    let options = IngestOptions {
        retry: RetryPolicy::none(),
        ..IngestOptions::default()
    };
    infer_file_schema_with(path, runtime, &options, &Recorder::disabled())
}

/// [`infer_file`] for callers that hold an [`IngestOptions`] bundle
/// instead of a job: every other knob is [`SchemaJob::new`]'s default.
pub fn infer_file_schema_with(
    path: &Path,
    runtime: &Runtime,
    options: &IngestOptions,
    rec: &Recorder,
) -> Result<FileSchema, Error> {
    let job = SchemaJob {
        runtime: runtime.clone(),
        recorder: rec.clone(),
        error_policy: options.policy.clone(),
        retry: options.retry,
        parser_options: options.parser.clone(),
        ..SchemaJob::new()
    };
    infer_file(path, &job)
}

/// Infer the schema of an NDJSON file over `4 × workers` byte-range
/// splits of `job.runtime`, one [`RecordFold`] per split, configured
/// like the batch route (`map_path`, `dedup`, `fuse_config`,
/// `parser_options`, `max_line_bytes`, `retry`).
///
/// The job's error policy decides whether a bad record aborts the run
/// (fail-fast, the default), is dropped, or is quarantined. Per-split
/// [`ErrorReport`]s are merged before the policy is enforced, so — like
/// the fused schema itself — the outcome is byte-identical for every
/// worker and split count; [`BadRecord::at`](crate::BadRecord::at) is
/// the line's absolute byte offset. A panicking split worker surfaces
/// as [`Error::Worker`] instead of tearing down the process.
///
/// Counts `streaming.splits`, per-split `json.bytes` / `json.lines` /
/// `json.records` and the final `records`, and wraps each split in a `split.N` span so
/// the trace shows how evenly the byte ranges load the workers.
pub fn infer_file(path: &Path, job: &SchemaJob) -> Result<FileSchema, Error> {
    let rec = &job.recorder;
    let len = std::fs::metadata(path)
        .map_err(|e| Error::io_at(e, IoSite::default()))?
        .len();
    let splits = plan_splits(len, job.runtime.workers() * 4);
    rec.add("streaming.splits", splits.len() as u64);
    let config = job.fold_config(false);
    let (outcome, _) = job.runtime.try_run_indexed(&splits, |i, &split| {
        let _span = span!(rec, "split", i);
        let mut fold = RecordFold::new(config.clone(), rec.clone());
        let result = read_split_with(
            path,
            split,
            job.max_line_bytes,
            job.retry,
            rec,
            |offset, line, truncated| fold.absorb_noting(Origin::Offset(offset), line, truncated),
        );
        fold.flush_counters();
        rec.add("json.bytes", split.end - split.start);
        result.map(|()| fold)
    });
    let folds = outcome.map_err(|p| {
        rec.add("ingest.worker_panics", p.panics as u64);
        Error::Worker(p)
    })?;
    let split_count = folds.len();
    // Splits are ordered by byte range, so the first per-split I/O error
    // is the earliest failure in the file deterministically.
    let mut total = RecordFold::new(config, rec.clone());
    for fold in folds {
        total.merge(&fold?);
    }
    let (schema, records, errors, _) = total.finish();
    job.error_policy.enforce(&errors, rec)?;
    rec.add("records", records);
    Ok(FileSchema {
        schema,
        records,
        splits: split_count,
        errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::DatasetProfile;
    use std::io::Write;
    use std::path::PathBuf;

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("typefuse-splits-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(contents.as_bytes()).unwrap();
        path
    }

    /// The lines a split owns, uncapped, as text.
    fn read_all(path: &Path, split: Split, mut on_line: impl FnMut(u64, &str)) {
        let (retry, rec) = (RetryPolicy::none(), Recorder::disabled());
        read_split_with(path, split, None, retry, &rec, |offset, line, _| {
            on_line(offset, std::str::from_utf8(line).unwrap())
        })
        .unwrap();
    }

    #[test]
    fn plan_covers_the_file_exactly() {
        for (len, parts) in [(100u64, 4usize), (7, 3), (1, 8), (10, 1)] {
            let splits = plan_splits(len, parts);
            assert_eq!(splits[0].start, 0);
            assert_eq!(splits.last().unwrap().end, len);
            for pair in splits.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gapless");
            }
            assert!(splits.len() <= parts);
        }
        assert!(plan_splits(0, 4).is_empty());
    }

    #[test]
    fn every_line_is_owned_by_exactly_one_split() {
        let contents: String = (0..50).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        let path = temp_file("ownership.ndjson", &contents);
        for parts in [1, 2, 3, 7, 13] {
            let splits = plan_splits(contents.len() as u64, parts);
            let mut seen: Vec<u64> = Vec::new();
            for split in splits {
                read_all(&path, split, |offset, _| seen.push(offset));
            }
            seen.sort_unstable();
            assert_eq!(seen.len(), 50, "parts = {parts}");
            seen.dedup();
            assert_eq!(seen.len(), 50, "duplicate ownership with {parts} parts");
        }
    }

    #[test]
    fn split_boundaries_mid_line_are_handled() {
        // Construct lines of very different lengths so boundaries fall
        // everywhere, including immediately after newlines.
        let contents = "{\"a\":1}\n{\"long\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{}\n";
        let path = temp_file("straddle.ndjson", contents);
        for parts in 1..=contents.len() {
            let splits = plan_splits(contents.len() as u64, parts);
            let mut count = 0;
            for split in splits {
                read_all(&path, split, |_, line| {
                    assert!(
                        typefuse_json::parse_value(line).is_ok(),
                        "torn line {line:?}"
                    );
                    count += 1;
                });
            }
            assert_eq!(count, 3, "parts = {parts}");
        }
    }

    #[test]
    fn file_schema_matches_in_memory_pipeline() {
        let values: Vec<typefuse_json::Value> =
            crate::datagen::Profile::Twitter.generate(3, 200).collect();
        let mut contents = Vec::new();
        typefuse_json::ndjson::write_ndjson(&mut contents, &values).unwrap();
        let path = temp_file("twitter.ndjson", std::str::from_utf8(&contents).unwrap());

        let from_file = infer_file_schema(&path, &Runtime::new(4)).unwrap();
        let in_memory = crate::config::JobConfig::new()
            .without_type_stats()
            .build()
            .run_values(values);
        assert_eq!(from_file.schema, in_memory.schema);
        assert_eq!(from_file.records, in_memory.records);
        assert!(from_file.splits >= 1);
        assert!(from_file.errors.is_empty());
    }

    #[test]
    fn recorded_file_inference_counts_splits_and_records() {
        let contents: String = (0..40).map(|i| format!("{{\"n\":{i}}}\n")).collect();
        let path = temp_file("recorded.ndjson", &contents);
        let rec = Recorder::enabled();
        let job = crate::JobConfig::new()
            .workers(2)
            .recorder(rec.clone())
            .build();
        let fs = infer_file(&path, &job).unwrap();
        let report = rec.snapshot();
        assert_eq!(report.counters["streaming.splits"], fs.splits as u64);
        assert_eq!(report.counters["json.records"], 40);
        assert_eq!(report.counters["records"], 40);
        assert_eq!(report.counters["json.bytes"], contents.len() as u64);
        // One span per split, named split.0 .. split.N-1.
        let split_spans = report
            .spans
            .keys()
            .filter(|k| k.starts_with("split."))
            .count();
        assert_eq!(split_spans, fs.splits);
    }

    #[test]
    fn parse_errors_carry_file_offsets() {
        let contents = "{\"ok\":1}\n{broken\n";
        let path = temp_file("bad.ndjson", contents);
        let err = infer_file_schema(&path, &Runtime::sequential()).unwrap_err();
        // The bad record starts at byte 9; the offending byte is inside it.
        let span = err.span().expect("parse error carries a span");
        assert!(span.start.offset >= 9, "offset {}", span.start.offset);
    }

    #[test]
    fn empty_and_blank_files() {
        let path = temp_file("empty.ndjson", "");
        let fs = infer_file_schema(&path, &Runtime::sequential()).unwrap();
        assert_eq!(fs.records, 0);
        assert_eq!(fs.schema, Type::Bottom);

        let path = temp_file("blank.ndjson", "\n\n  \n");
        let fs = infer_file_schema(&path, &Runtime::new(2)).unwrap();
        assert_eq!(fs.records, 0);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = infer_file_schema(
            Path::new("/nonexistent/typefuse.ndjson"),
            &Runtime::sequential(),
        )
        .unwrap_err();
        assert!(err.is_io());
    }

    #[test]
    fn skip_policy_matches_the_clean_subset_for_any_worker_count() {
        let mut contents = String::new();
        let mut clean = String::new();
        for i in 0..60 {
            if i % 7 == 3 {
                contents.push_str("{broken!!\n");
            } else {
                let line = format!("{{\"n\":{i},\"s\":\"x\"}}\n");
                contents.push_str(&line);
                clean.push_str(&line);
            }
        }
        let dirty = temp_file("skip-dirty.ndjson", &contents);
        let clean_path = temp_file("skip-clean.ndjson", &clean);
        let expect = infer_file_schema(&clean_path, &Runtime::sequential()).unwrap();

        let options = IngestOptions {
            policy: ErrorPolicy::skip(),
            ..IngestOptions::default()
        };
        let mut reports = Vec::new();
        for workers in [1, 2, 3, 8] {
            let rec = Recorder::enabled();
            let fs =
                infer_file_schema_with(&dirty, &Runtime::new(workers), &options, &rec).unwrap();
            assert_eq!(fs.schema, expect.schema, "workers = {workers}");
            assert_eq!(fs.records, expect.records, "workers = {workers}");
            assert_eq!(fs.errors.skipped(), 9, "workers = {workers}");
            assert_eq!(rec.snapshot().counters["ingest.skipped"], 9);
            reports.push(fs.errors);
        }
        // Bad-record reports are byte-identical across worker counts.
        for pair in reports.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
        // `at` is the absolute byte offset of each bad line.
        let offsets: Vec<u64> = reports[0].records().iter().map(|r| r.at).collect();
        let mut expected_offsets = Vec::new();
        let mut pos = 0u64;
        for line in contents.split_inclusive('\n') {
            if line.starts_with("{broken") {
                expected_offsets.push(pos);
            }
            pos += line.len() as u64;
        }
        assert_eq!(offsets, expected_offsets);
    }

    #[test]
    fn split_budget_is_enforced_after_merging() {
        let mut contents = String::new();
        for i in 0..20 {
            if i % 5 == 0 {
                contents.push_str("nope\n");
            } else {
                contents.push_str(&format!("{{\"n\":{i}}}\n"));
            }
        }
        let path = temp_file("budget.ndjson", &contents);
        // 4 bad lines: a budget of 4 passes, 3 fails — for any workers.
        for workers in [1, 4] {
            let ok = IngestOptions {
                policy: ErrorPolicy::Skip {
                    max_errors: Some(4),
                },
                ..IngestOptions::default()
            };
            infer_file_schema_with(&path, &Runtime::new(workers), &ok, &Recorder::disabled())
                .unwrap();
            let tight = IngestOptions {
                policy: ErrorPolicy::Skip {
                    max_errors: Some(3),
                },
                ..IngestOptions::default()
            };
            let err = infer_file_schema_with(
                &path,
                &Runtime::new(workers),
                &tight,
                &Recorder::disabled(),
            )
            .unwrap_err();
            assert!(err.is_budget(), "workers = {workers}: {err}");
        }
    }

    #[test]
    fn quarantined_splits_write_the_sidecar() {
        let contents = "{\"a\":1}\n{oops\n{\"a\":2}\n";
        let path = temp_file("quarantine-src.ndjson", contents);
        let sink = std::env::temp_dir()
            .join("typefuse-splits-tests")
            .join("quarantine-sink.ndjson");
        let options = IngestOptions {
            policy: ErrorPolicy::quarantine(&sink),
            ..IngestOptions::default()
        };
        let rec = Recorder::enabled();
        let fs = infer_file_schema_with(&path, &Runtime::new(2), &options, &rec).unwrap();
        assert_eq!(fs.records, 2);
        assert_eq!(fs.errors.skipped(), 1);
        assert_eq!(rec.snapshot().counters["ingest.quarantined"], 1);
        let entries = crate::faults::read_quarantine(&sink).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, 8); // byte offset of the bad line
        assert_eq!(entries[0].2.as_deref(), Some("{oops"));
        std::fs::remove_file(&sink).ok();
    }

    #[test]
    fn parser_options_flow_into_split_inference() {
        let contents = "{\"a\":{\"b\":{\"c\":1}}}\n";
        let path = temp_file("depth.ndjson", contents);
        let shallow = IngestOptions {
            parser: ParserOptions {
                max_depth: 2,
                ..ParserOptions::default()
            },
            ..IngestOptions::default()
        };
        let err = infer_file_schema_with(
            &path,
            &Runtime::sequential(),
            &shallow,
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}
