//! The record-fold kernel: raw line bytes → type or anchored error →
//! accumulator.
//!
//! Every text-ingesting driver — batch, byte-range splits, stdin
//! streaming, the profiled pass, the resident daemon — does the same
//! per input line: size guard, trim, blank test, parse by Map route,
//! re-anchor the error at the line's [`Origin`], feed the accumulator,
//! bump the counters. That step lives here once: one private framing
//! function decides what a line *is* (record, blank or bad record),
//! [`LineTyper`] types what it frames (batch's Map closure calls it
//! before the materialised reduce), [`RecordFold`] adds the accumulators
//! and is the monoid the other drivers fold into and merge,
//! [`for_each_line`] reads plain streams, [`fold_stream`] is the
//! one-fold driver over them and [`for_each_value`] the driver for
//! commands that read values (`check`, `stats`, `query`).
//!
//! On the default route "parse" is the direct typer
//! ([`typefuse_infer::Typer`]): the [`LineTyper`] owns its scratch, a
//! profiled fold runs the same walk with the profile trie observing,
//! and only a line the typer declines reaches the pull-event fold, for
//! its error or its lenient type (DESIGN "The record fold").
//!
//! A bad line is judged where it is framed, in the fold's [`BadLines`]
//! under the job's [`ErrorPolicy`]; once the verdict fails the fold stops
//! and its driver stops reading. The driver decides where bytes come from.

use std::io::BufRead;

use crate::config::JobConfig;
use crate::error::{Error, IoSite};
use crate::faults::{BadLines, BadRecord, ErrorPolicy, ErrorReport, RetryPolicy};
use crate::pipeline::MapPath;
use typefuse_infer::{
    streaming, Acc, Checkpoint, ProfileAcc, ProfileReport, SchemaAcc, ShapeCache, Typer,
};
use typefuse_json::codec::u64_from_value;
use typefuse_json::ndjson::{read_line_bounded, trim_ascii_bytes};
use typefuse_json::{ErrorKind, Parser, Position, Value};
use typefuse_obs::{Counter, JsonWriter, Recorder};
use typefuse_types::Type;

/// Where a line sits in its input: what errors are re-anchored at and
/// [`BadRecord::at`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// 1-based line number of a stream (the column is kept).
    Line(u64),
    /// Byte offset of the line's start in a file read by byte ranges,
    /// where line numbers are unknowable: the position keeps the absolute
    /// offset and the column, and its line is 0 (unknown).
    Offset(u64),
}

impl Origin {
    /// The input-order coordinate.
    pub fn at(self) -> u64 {
        match self {
            Origin::Line(at) | Origin::Offset(at) => at,
        }
    }

    /// Move a position relative to the line's content to this origin.
    fn anchor(self, start: Position) -> Position {
        match self {
            Origin::Line(line) => Position {
                line: line as u32,
                ..start
            },
            Origin::Offset(offset) => Position {
                offset: offset as usize + start.offset,
                line: 0,
                column: (start.offset + 1) as u32,
            },
        }
    }
}

/// What one input line turned into.
#[derive(Debug, Clone, PartialEq)]
pub enum Absorbed<T = ()> {
    /// A record (for [`LineTyper`]: its inferred type).
    Record(T),
    /// ASCII whitespace only: not a record, not an error.
    Blank,
    /// A malformed or oversized line, anchored at its origin.
    Bad(BadRecord),
}

/// Decide what one raw line is — the one place every driver does: the
/// size guard (`RecordTooLarge` at the configured cap), the ASCII trim,
/// the blank test, then `parse` on the trimmed content. A failure is
/// anchored at `origin` with its column counted from the raw line's
/// start, trimmed prefix included, and keeps the trimmed text (the
/// guarded bytes for an oversized line) when the job's policy wants it.
/// Counts `json.parse_errors`; counting records is the caller's.
fn frame<T>(
    job: &JobConfig,
    origin: Origin,
    raw: &[u8],
    truncated: bool,
    parse: impl FnOnce(&[u8]) -> typefuse_json::Result<T>,
) -> Absorbed<T> {
    let (kind, start, text) = if truncated {
        let cap = job.max_line_bytes.unwrap_or(usize::MAX);
        (ErrorKind::RecordTooLarge(cap), Position::start(), raw)
    } else {
        let line = trim_ascii_bytes(raw);
        if line.is_empty() {
            return Absorbed::Blank;
        }
        let e = match parse(line) {
            Ok(record) => return Absorbed::Record(record),
            Err(e) => e,
        };
        // The trimmed prefix is ASCII whitespace: one byte, one column.
        let lead = raw.iter().take_while(|b| b.is_ascii_whitespace()).count();
        let start = e.span().start;
        let start = Position {
            offset: start.offset + lead,
            column: start.column + lead as u32,
            ..start
        };
        (e.kind().clone(), start, line)
    };
    job.recorder.add("json.parse_errors", 1);
    Absorbed::Bad(BadRecord {
        at: origin.at(),
        error: typefuse_json::Error::at(kind, origin.anchor(start)),
        text: job
            .error_policy
            .keeps_text()
            .then(|| String::from_utf8_lossy(text).into_owned()),
    })
}

/// The per-line half of the kernel: types lines by the job's Map route
/// under its parser options and line cap, counting into its recorder.
#[derive(Debug, Clone)]
pub struct LineTyper {
    job: JobConfig,
    /// The direct typer's scratch (the events route).
    typer: Typer,
    /// The shape route's memo, warm for this typer's lifetime (a
    /// partition, a split, a daemon source).
    shape: Option<ShapeCache>,
    /// `json.records`; registered by the first record, so an idle typer leaves no zero.
    records: Option<Counter>,
}

impl LineTyper {
    /// A typer for `job`. `profile` is the driver's choice: a profile
    /// reads every value, so it turns the shape route's cache into the
    /// direct typer.
    pub fn new(job: &JobConfig, profile: bool) -> Self {
        let shape = (job.map_path == MapPath::Shape && !profile).then(ShapeCache::new);
        LineTyper {
            job: job.clone(),
            typer: Typer::default(),
            shape,
            records: None,
        }
    }

    /// Type one raw line (content without its newline; `truncated` as
    /// the reader reported it). A `profile` observes the record in the
    /// same walk of the text: its own walk yields the type, which it
    /// leaves to the caller to fuse.
    pub fn type_line(
        &mut self,
        origin: Origin,
        raw: &[u8],
        truncated: bool,
        profile: Option<&mut ProfileAcc>,
    ) -> Absorbed<Type> {
        let (job, rec) = (&self.job, &self.job.recorder);
        let (typer, shape) = (&mut self.typer, &mut self.shape);
        let absorbed = frame(job, origin, raw, truncated, |line| {
            let parser = &job.parser_options;
            match (profile, shape) {
                (Some(profile), _) => profile.observe_line(origin.at(), line, parser),
                (None, Some(shape)) => shape.infer_line(line, parser, rec),
                (None, None) => streaming::infer_line(typer, line, parser, rec),
            }
        });
        if let Absorbed::Record(_) = absorbed {
            let records = &mut self.records;
            records
                .get_or_insert_with(|| rec.counter("json.records"))
                .inc(1);
        }
        absorbed
    }

    /// Flush `infer.shape_hits` / `infer.shape_misses` to the recorder
    /// and reset them — once per partition or split.
    pub fn flush_counters(&mut self) {
        if let Some(cache) = &mut self.shape {
            cache.flush_counters(&self.job.recorder);
        }
    }
}

/// The whole kernel: a [`LineTyper`] feeding a schema accumulator, an
/// optional profile, the judged [`BadLines`] and a line counter. A record
/// is fused once, into the schema accumulator, and a bad line is judged
/// once; the profile only observes the path statistics. Folds merge like
/// the fusion underneath — associatively and, until a verdict stops one
/// or a quarantine sidecar orders them, commutatively — so any split of
/// the input yields the same state.
#[derive(Debug, Clone)]
pub struct RecordFold {
    typer: LineTyper,
    acc: SchemaAcc,
    profile: Option<ProfileAcc>,
    bad: BadLines,
    lines: u64,
}

/// One raw input line: where it sits, its content without the newline,
/// and whether the reader truncated it at the line cap.
pub type Line<'a> = (Origin, &'a [u8], bool);

impl RecordFold {
    /// An empty fold under `job`, carrying a [`ProfileAcc`] beside the
    /// schema when the driver asks for `profile`.
    pub fn new(job: &JobConfig, profile: bool) -> Self {
        RecordFold {
            acc: SchemaAcc::new(job.dedup, job.fuse_config),
            profile: profile.then(ProfileAcc::new),
            bad: BadLines::new(job.error_policy.clone()),
            lines: 0,
            typer: LineTyper::new(job, profile),
        }
    }

    /// Whether the policy's verdict stopped this fold.
    pub fn stopped(&self) -> bool {
        self.bad.stopped()
    }

    /// End a run on this (merged) fold: [`BadLines::settle`].
    pub fn settle(&mut self) -> Result<(), Error> {
        self.bad.settle(&self.typer.job.recorder)
    }

    /// A daemon's poll batch: append to the sidecar ([`BadLines::flush`]).
    pub fn flush_sidecar(&mut self) -> std::io::Result<()> {
        self.bad.flush(true, &self.typer.job.recorder)
    }

    /// The job's error policy.
    pub fn policy(&self) -> &ErrorPolicy {
        self.bad.policy()
    }

    /// The current fused schema.
    pub fn schema(&self) -> Type {
        self.acc.schema()
    }

    /// See [`SchemaAcc::revision`]: moves iff [`schema`](Self::schema)
    /// changed, on either route.
    pub fn schema_revision(&self) -> u64 {
        self.acc.revision()
    }

    /// Records folded so far.
    pub fn records(&self) -> u64 {
        self.acc.records()
    }

    /// Input lines consumed so far (blank and bad ones included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The bad records judged so far.
    pub fn report(&self) -> &ErrorReport {
        self.bad.report()
    }

    /// The bad lines judged so far, with the sidecar entries not yet
    /// flushed.
    pub fn bad_lines(&self) -> &BadLines {
        &self.bad
    }

    /// The profile this fold carries, if any.
    pub fn profile(&self) -> Option<&ProfileAcc> {
        self.profile.as_ref()
    }

    /// The profile report so far, if this fold carries a profile.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        Some(self.profile()?.clone().finish(self.schema()))
    }

    /// Distinct shapes held by the dedup route (0 on the plain route).
    pub fn distinct_shapes(&self) -> u64 {
        self.acc.distinct_shapes()
    }

    /// The shape route's signature cache (`None` off that route).
    pub fn shape_cache(&self) -> Option<&ShapeCache> {
        self.typer.shape.as_ref()
    }

    /// See [`LineTyper::flush_counters`].
    pub fn flush_counters(&mut self) {
        self.typer.flush_counters();
    }

    /// Take the fold apart once the input is exhausted.
    pub fn finish(self) -> (Type, u64, ErrorReport, Option<ProfileReport>) {
        let records = self.acc.records();
        let schema = self.acc.into_schema();
        let profile = self.profile.map(|p| p.finish(schema.clone()));
        (schema, records, self.bad.report().clone(), profile)
    }
}

/// Absorb folds one raw line in. A bad line is judged and comes back; the
/// one that fails the verdict stops the fold and comes back as its `Err`,
/// as does every line offered after it. Merge takes the fold of the input
/// that follows this one's (its caches stay behind; a stopped fold takes
/// no more, see [`BadLines`]).
impl Acc for RecordFold {
    type Item<'a> = Line<'a>;
    type Outcome = Result<Absorbed, Error>;

    fn absorb(&mut self, (origin, raw, truncated): Line<'_>) -> Result<Absorbed, Error> {
        if self.bad.stopped() {
            self.policy().verdict(self.report())?;
        }
        self.lines += 1;
        match self
            .typer
            .type_line(origin, raw, truncated, self.profile.as_mut())
        {
            Absorbed::Record(ty) => {
                self.acc.absorb(&ty);
                Ok(Absorbed::Record(()))
            }
            Absorbed::Blank => Ok(Absorbed::Blank),
            Absorbed::Bad(bad) => {
                self.bad.absorb(&bad)?;
                Ok(Absorbed::Bad(bad))
            }
        }
    }

    fn merge(&mut self, other: &RecordFold) {
        if self.bad.stopped() {
            return;
        }
        self.acc.merge(&other.acc);
        if let (Some(mine), Some(theirs)) = (&mut self.profile, &other.profile) {
            mine.merge(theirs);
        }
        self.bad.merge(&other.bad);
        self.lines += other.lines;
    }
}

/// Its parts' checkpoints put together: the line count, the schema
/// accumulator's fields, the profile and the report. The job and the
/// `profile` choice are the empty fold's, *not* the payload's: resume
/// under the ones that wrote the checkpoint, or the incremental ≡ batch
/// law breaks. Dedup interner and shape cache restart cold.
impl Checkpoint for RecordFold {
    fn write_checkpoint(&self, w: &mut JsonWriter) {
        w.key("lines").decimal(self.lines);
        self.acc.write_checkpoint(w);
        if let Some(profile) = &self.profile {
            w.key("profile");
            w.begin_object();
            profile.write_checkpoint(w);
            w.end_object();
        }
        w.key("report");
        w.begin_object();
        self.bad.write_checkpoint(w);
        w.end_object();
    }

    fn restore(&self, payload: &Value) -> Result<Self, String> {
        let field = |name: &str| payload.get(name).ok_or(format!("missing {name}"));
        let profile = match &self.profile {
            Some(empty) => Some(empty.restore(field("profile")?)?),
            None => None,
        };
        Ok(RecordFold {
            acc: self.acc.restore(payload)?,
            profile,
            bad: self.bad.restore(field("report")?)?,
            lines: u64_from_value(field("lines")?)?,
            typer: self.typer.clone(),
        })
    }
}

/// The one-pass stream driver (`typefuse infer - --streaming`): fold
/// the lines of `reader` into one [`RecordFold`] under `job` (carrying a
/// profile when asked) until the input ends or the fold stops, then
/// [`settle`](RecordFold::settle) it. Memory is O(schema), not O(input).
pub fn fold_stream<R: BufRead + ?Sized>(
    reader: &mut R,
    job: &JobConfig,
    profile: bool,
) -> Result<RecordFold, Error> {
    let rec = &job.recorder;
    let mut fold = RecordFold::new(job, profile);
    for_each_line(
        reader,
        job.max_line_bytes,
        job.retry,
        rec,
        |line, bytes, truncated| fold.absorb((Origin::Line(line), bytes, truncated)).is_ok(),
    )?;
    fold.flush_counters();
    fold.settle()?;
    rec.add("records", fold.records());
    Ok(fold)
}

/// The value driver (`typefuse check`, `stats`, `query`): read `reader`
/// like [`fold_stream`], frame every line the way every fold does, parse
/// each record to a [`Value`] under the job's parser options and hand it
/// to `visit`. Bad lines are judged as a fold judges them, and the
/// settled report comes back for the caller to show.
pub fn for_each_value<R: BufRead + ?Sized>(
    reader: &mut R,
    job: &JobConfig,
    mut visit: impl FnMut(Value),
) -> Result<ErrorReport, Error> {
    let rec = &job.recorder;
    let (mut bad_lines, mut records) = (BadLines::new(job.error_policy.clone()), 0);
    let parse =
        |line: &[u8]| Parser::with_options(line, job.parser_options.clone()).parse_complete();
    for_each_line(
        reader,
        job.max_line_bytes,
        job.retry,
        rec,
        |line, raw, truncated| match frame(job, Origin::Line(line), raw, truncated, parse) {
            Absorbed::Record(value) => {
                records += 1;
                visit(value);
                true
            }
            Absorbed::Blank => true,
            Absorbed::Bad(bad) => bad_lines.absorb(&bad).is_ok(),
        },
    )?;
    if records > 0 {
        rec.add("json.records", records);
    }
    bad_lines.settle(rec)?;
    Ok(bad_lines.report().clone())
}

/// Read `reader` one bounded line at a time, retrying transient I/O
/// errors per `retry`, and hand each line to `on_line` as `(1-based line
/// number, content without the newline, truncated)` until the input ends
/// or `on_line` returns `false`. Counts `json.bytes` per line and `json.lines`
/// once per read; an unrecoverable read error surfaces as [`Error::Io`]
/// with the line it happened at.
pub fn for_each_line<R: BufRead + ?Sized>(
    reader: &mut R,
    max_line_bytes: Option<usize>,
    retry: RetryPolicy,
    rec: &Recorder,
    mut on_line: impl FnMut(u64, &[u8], bool) -> bool,
) -> Result<(), Error> {
    let mut buf: Vec<u8> = Vec::new();
    let mut line_no = 0u64;
    let read = loop {
        buf.clear();
        match read_line_bounded(reader, &mut buf, max_line_bytes, retry, rec) {
            Ok(raw) if raw.consumed == 0 => break Ok(()),
            Ok(raw) => {
                rec.add("json.bytes", raw.consumed as u64);
                line_no += 1;
                if !on_line(line_no, &buf, raw.truncated) {
                    break Ok(());
                }
            }
            Err(e) => break Err(Error::io_at(e, IoSite::line(line_no as u32 + 1))),
        }
    };
    count_lines(rec, line_no);
    read
}

/// Add a reader's line count to `json.lines` (blank and bad lines
/// included) — one recorder call per read, and none for an empty one.
pub(crate) fn count_lines(rec: &Recorder, lines: u64) {
    if lines > 0 {
        rec.add("json.lines", lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn bad_lines_are_anchored_at_their_raw_column() {
        // The key is missing at byte 4 of the raw line, column 5: the
        // three leading spaces count, though the parser never sees them.
        let raw = b"   {bad  ";
        let routes = [
            (MapPath::Events, false),
            (MapPath::Shape, false),
            (MapPath::Events, true),
        ];
        let job = JobConfig::new().on_error(ErrorPolicy::quarantine("unused.ndjson"));
        for (route, profile) in routes {
            let mut typer = LineTyper::new(&job.clone().map_path(route), profile);
            let mut acc = ProfileAcc::new();
            let mut bad = |origin| {
                let observer = profile.then_some(&mut acc);
                match typer.type_line(origin, raw, false, observer) {
                    Absorbed::Bad(bad) => bad,
                    other => panic!("{route:?}: {other:?}"),
                }
            };
            let on_line = bad(Origin::Line(2));
            let start = on_line.error.span().start;
            assert_eq!(
                (start.offset, start.line, start.column),
                (4, 2, 5),
                "{route:?}"
            );
            assert_eq!((on_line.at, on_line.text.as_deref()), (2, Some("{bad")));
            let at_offset = bad(Origin::Offset(8));
            let start = at_offset.error.span().start;
            assert_eq!(
                (start.offset, start.line, start.column),
                (12, 0, 5),
                "{route:?}"
            );
            assert_eq!(at_offset.at, 8);
        }
    }

    /// The values and the report [`for_each_value`] yields for `input`.
    fn values_of(input: &str, job: &JobConfig) -> Result<(Vec<Value>, ErrorReport), Error> {
        let mut values = Vec::new();
        let report = for_each_value(&mut input.as_bytes(), job, |v| values.push(v))?;
        Ok((values, report))
    }

    fn skipping() -> JobConfig {
        JobConfig::new().on_error(ErrorPolicy::skip())
    }

    #[test]
    fn for_each_value_skips_blank_lines() {
        let (values, report) = values_of("{\"a\":1}\n\n   \n{\"a\":2}", &JobConfig::new()).unwrap();
        assert_eq!(values, [json!({"a": 1}), json!({"a": 2})]);
        assert!(report.is_empty());
    }

    #[test]
    fn for_each_value_over_empty_input_visits_nothing() {
        for input in ["", "\n\n"] {
            let (values, report) = values_of(input, &JobConfig::new()).unwrap();
            assert!(values.is_empty() && report.is_empty(), "{input:?}");
        }
    }

    #[test]
    fn for_each_value_anchors_errors_at_the_file_line() {
        let input = "{\"a\":1}\n{\"bad\n{\"a\":2}\n";
        // Reading goes on past a bad line; the report holds it.
        let (values, report) = values_of(input, &skipping()).unwrap();
        assert_eq!(values, [json!({"a": 1}), json!({"a": 2})]);
        let bad = report.first().unwrap();
        assert_eq!((report.skipped(), bad.at), (1, 2));
        assert_eq!(bad.error.span().start.line, 2);
        // Fail-fast reports the same error.
        let err = values_of(input, &JobConfig::new()).unwrap_err();
        assert!(matches!(&err, Error::Parse(e) if *e == bad.error), "{err}");
    }

    #[test]
    fn for_each_value_rejects_trailing_garbage() {
        let err = values_of("{} {}\n", &JobConfig::new()).unwrap_err();
        assert!(
            matches!(&err, Error::Parse(e) if *e.kind() == ErrorKind::TrailingCharacters),
            "{err}"
        );
    }

    struct FailingReader;

    impl std::io::Read for FailingReader {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn for_each_value_surfaces_an_unreadable_stream() {
        let mut reader = std::io::BufReader::new(FailingReader);
        let outcome = for_each_value(&mut reader, &skipping(), |_| panic!("no value"));
        assert!(matches!(outcome, Err(Error::Io { .. })), "{outcome:?}");
    }

    #[test]
    fn for_each_value_counts_bytes_lines_records_and_errors() {
        let input = "{\"a\":1}\n\n{\"bad\n{\"a\":2}\n";
        let rec = Recorder::enabled();
        let job = skipping().recorder(rec.clone());
        let (values, _) = values_of(input, &job).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(rec.counter_value("json.bytes"), input.len() as u64);
        assert_eq!(rec.counter_value("json.lines"), 4, "blank lines count");
        assert_eq!(rec.counter_value("json.records"), 2);
        assert_eq!(rec.counter_value("json.parse_errors"), 1);
    }
}
