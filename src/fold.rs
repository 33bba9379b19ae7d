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
//! The driver keeps two decisions: where bytes come from, and what a bad
//! record *means* (the [`ErrorPolicy`](crate::ErrorPolicy) — note and
//! enforce after the merge, or serve's per-record verdict).

use std::io::BufRead;

use crate::error::{Error, IoSite};
use crate::faults::{BadRecord, ErrorReport, RetryPolicy};
use crate::pipeline::{MapPath, SchemaJob};
use typefuse_infer::{
    streaming, DedupMode, FuseConfig, ProfileAcc, ProfileReport, SchemaAcc, ShapeCache, Typer,
};
use typefuse_json::codec::{u64_from_value, u64_to_value};
use typefuse_json::ndjson::{read_line_bounded, trim_ascii_bytes};
use typefuse_json::{ErrorKind, Map, Parser, ParserOptions, Position, Value};
use typefuse_obs::{Counter, Recorder};
use typefuse_types::Type;

/// Where a line sits in its input: what errors are re-anchored at and
/// [`BadRecord::at`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// 1-based line number of a stream (the column is kept).
    Line(u64),
    /// Byte offset of the line's start in a file read by byte ranges,
    /// where line numbers are unknowable.
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
                line: 1,
                column: (start.offset + 1) as u32,
            },
        }
    }
}

/// What the kernel needs to know about a job
/// ([`SchemaJob::fold_config`](crate::pipeline::SchemaJob::fold_config)
/// derives it); `profile` is the driver's choice, never a user's.
#[derive(Debug, Clone)]
pub struct FoldConfig {
    /// Map route for records.
    pub map_path: MapPath,
    /// Reduce route of the schema accumulator.
    pub dedup: DedupMode,
    /// Fusion configuration (array strategy).
    pub fuse_config: FuseConfig,
    /// Parser limits.
    pub parser: ParserOptions,
    /// Whether bad records keep their (lossy UTF-8) text.
    pub keeps_text: bool,
    /// The reader's line-size cap, reported by `RecordTooLarge`.
    pub max_line_bytes: Option<usize>,
    /// Carry a [`ProfileAcc`] beside the schema. A profile reads every
    /// value, so it turns the shape route's cache into the direct typer.
    pub profile: bool,
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
/// guarded bytes for an oversized line) when the policy wants it.
/// Counts `json.parse_errors`; counting records is the caller's.
fn frame<T>(
    config: &FoldConfig,
    rec: &Recorder,
    origin: Origin,
    raw: &[u8],
    truncated: bool,
    parse: impl FnOnce(&[u8]) -> typefuse_json::Result<T>,
) -> Absorbed<T> {
    let (kind, start, text) = if truncated {
        let cap = config.max_line_bytes.unwrap_or(usize::MAX);
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
    rec.add("json.parse_errors", 1);
    Absorbed::Bad(BadRecord {
        at: origin.at(),
        error: typefuse_json::Error::at(kind, origin.anchor(start)),
        text: config
            .keeps_text
            .then(|| String::from_utf8_lossy(text).into_owned()),
    })
}

/// The per-line half of the kernel.
#[derive(Debug, Clone)]
pub struct LineTyper {
    config: FoldConfig,
    recorder: Recorder,
    /// The direct typer's scratch (the events route).
    typer: Typer,
    /// The shape route's memo, warm for this typer's lifetime (a
    /// partition, a split, a daemon source).
    shape: Option<ShapeCache>,
    /// `json.records`; registered by the first record, so an idle typer leaves no zero.
    records: Option<Counter>,
}

impl LineTyper {
    /// A typer for `config`, counting into `recorder`.
    pub fn new(config: FoldConfig, recorder: Recorder) -> Self {
        let shape = (config.map_path == MapPath::Shape && !config.profile).then(ShapeCache::new);
        LineTyper {
            config,
            recorder,
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
        let (config, rec) = (&self.config, &self.recorder);
        let (typer, shape) = (&mut self.typer, &mut self.shape);
        let absorbed = frame(config, rec, origin, raw, truncated, |line| {
            let parser = &config.parser;
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
            cache.flush_counters(&self.recorder);
        }
    }
}

/// The whole kernel: a [`LineTyper`] feeding a schema accumulator, an
/// optional profile, an error report and a line counter. A record is
/// fused once, into the schema accumulator, and a bad line is noted once,
/// in the report; the profile only observes the path statistics. Folds
/// merge like the fusion underneath — associatively and commutatively —
/// so any split of the input over any folds yields the same state.
#[derive(Debug, Clone)]
pub struct RecordFold {
    typer: LineTyper,
    acc: SchemaAcc,
    profile: Option<ProfileAcc>,
    report: ErrorReport,
    lines: u64,
}

impl RecordFold {
    /// An empty fold.
    pub fn new(config: FoldConfig, recorder: Recorder) -> Self {
        RecordFold {
            acc: SchemaAcc::new(config.dedup, config.fuse_config),
            profile: config.profile.then(ProfileAcc::new),
            report: ErrorReport::new(),
            lines: 0,
            typer: LineTyper::new(config, recorder),
        }
    }

    /// Fold one raw line in. A bad line comes back to the caller, whose
    /// policy decides whether it is [`note`](Self::note)d.
    pub fn absorb_line(&mut self, origin: Origin, raw: &[u8], truncated: bool) -> Absorbed {
        self.lines += 1;
        match self
            .typer
            .type_line(origin, raw, truncated, self.profile.as_mut())
        {
            Absorbed::Record(ty) => {
                self.acc.absorb_type(&ty);
                Absorbed::Record(())
            }
            Absorbed::Blank => Absorbed::Blank,
            Absorbed::Bad(bad) => Absorbed::Bad(bad),
        }
    }

    /// Record a skipped bad record in the fold's report.
    pub fn note(&mut self, bad: BadRecord) {
        self.report.note(bad);
    }

    /// [`absorb_line`](Self::absorb_line) for drivers that enforce their
    /// policy on the merged report: note a bad line and go on.
    pub fn absorb_noting(&mut self, origin: Origin, raw: &[u8], truncated: bool) {
        if let Absorbed::Bad(bad) = self.absorb_line(origin, raw, truncated) {
            self.note(bad);
        }
    }

    /// Merge another fold of the same job (its caches stay behind).
    pub fn merge(&mut self, other: &RecordFold) {
        self.acc.merge(&other.acc);
        if let (Some(mine), Some(theirs)) = (&mut self.profile, &other.profile) {
            mine.merge(theirs);
        }
        self.report.merge(&other.report);
        self.lines += other.lines;
    }

    /// The current fused schema.
    pub fn schema(&self) -> Type {
        self.acc.schema()
    }

    /// See [`SchemaAcc::revision`]: moves iff [`schema`](Self::schema)
    /// changed; `None` when only comparing schemas can tell.
    pub fn schema_revision(&self) -> Option<u64> {
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

    /// The bad records noted so far.
    pub fn report(&self) -> &ErrorReport {
        &self.report
    }

    /// The profile report so far, if this fold carries a profile.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        let profile = self.profile.clone()?;
        Some(profile.finish(self.schema()))
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
        let (schema, records) = (self.acc.schema(), self.acc.records());
        let profile = self.profile.map(|p| p.finish(schema.clone()));
        (schema, records, self.report, profile)
    }

    /// Write the resumable state into a checkpoint object: line count,
    /// schema (lossless wire form), record count, route, profile and
    /// report; `u64`s as decimal strings (`typefuse_json::codec`).
    pub fn checkpoint_into(&self, m: &mut Map) {
        m.insert("lines", u64_to_value(self.lines));
        m.insert("dedup", Value::Bool(self.acc.is_dedup()));
        let schema = typefuse_types::wire::to_wire(&self.schema());
        m.insert("schema", Value::from(schema));
        m.insert("records", u64_to_value(self.records()));
        if let Some(profile) = &self.profile {
            m.insert("profile", profile.checkpoint_value());
        }
        m.insert("report", self.report.checkpoint_value());
    }

    /// Rebuild a fold from a checkpoint object. The configuration is
    /// *not* persisted: resume under the one that wrote the checkpoint,
    /// or the incremental ≡ batch law breaks. Dedup interner and shape
    /// cache restart cold; schema, profile and report resume exactly.
    pub fn restore(
        config: FoldConfig,
        recorder: Recorder,
        payload: &Value,
    ) -> Result<Self, String> {
        let field = |name: &str| payload.get(name).ok_or(format!("missing {name}"));
        let schema = typefuse_types::wire::from_wire(
            field("schema")?.as_str().ok_or("schema is not a string")?,
        )?;
        let records = u64_from_value(field("records")?)?;
        let profile = match config.profile {
            true => Some(ProfileAcc::from_checkpoint_value(field("profile")?)?),
            false => None,
        };
        Ok(RecordFold {
            acc: SchemaAcc::resume(config.dedup, config.fuse_config, schema, records),
            profile,
            report: ErrorReport::from_checkpoint_value(field("report")?)?,
            lines: u64_from_value(field("lines")?)?,
            typer: LineTyper::new(config, recorder),
        })
    }
}

/// The one-pass stream driver (`typefuse infer - --streaming`): fold
/// every line of `reader` into one [`RecordFold`] under `job` (carrying a
/// profile when asked), then apply the job's error policy to the fold's
/// report and count `records`. Memory is O(schema), not O(input).
pub fn fold_stream<R: BufRead + ?Sized>(
    reader: &mut R,
    job: &SchemaJob,
    profile: bool,
) -> Result<RecordFold, Error> {
    let rec = &job.recorder;
    let mut fold = RecordFold::new(job.fold_config(profile), rec.clone());
    for_each_line(
        reader,
        job.max_line_bytes,
        job.retry,
        rec,
        |line, bytes, truncated| fold.absorb_noting(Origin::Line(line), bytes, truncated),
    )?;
    fold.flush_counters();
    job.error_policy.enforce(fold.report(), rec)?;
    rec.add("records", fold.records());
    Ok(fold)
}

/// The value driver (`typefuse check`, `stats`, `query`): read `reader`
/// like [`fold_stream`], frame every line the way every fold does, parse
/// each record to a [`Value`] under the job's parser options and hand it
/// to `visit`. Bad lines are noted and the job's error policy is
/// enforced on the report once the input is read, as [`fold_stream`]
/// does; the report comes back for the caller to show.
pub fn for_each_value<R: BufRead + ?Sized>(
    reader: &mut R,
    job: &SchemaJob,
    mut visit: impl FnMut(Value),
) -> Result<ErrorReport, Error> {
    let (rec, config) = (&job.recorder, job.fold_config(false));
    let (mut report, mut records) = (ErrorReport::new(), 0);
    let parse = |line: &[u8]| Parser::with_options(line, config.parser.clone()).parse_complete();
    for_each_line(
        reader,
        job.max_line_bytes,
        job.retry,
        rec,
        |line, raw, truncated| match frame(&config, rec, Origin::Line(line), raw, truncated, parse)
        {
            Absorbed::Record(value) => {
                records += 1;
                visit(value);
            }
            Absorbed::Blank => {}
            Absorbed::Bad(bad) => report.note(bad),
        },
    )?;
    if records > 0 {
        rec.add("json.records", records);
    }
    job.error_policy.enforce(&report, rec)?;
    Ok(report)
}

/// Read `reader` to its end one bounded line at a time, retrying
/// transient I/O errors per `retry`, and hand each line to `on_line` as
/// `(1-based line number, content without the newline, truncated)`.
/// Counts `json.bytes` per line and `json.lines` once per read; an
/// unrecoverable read error surfaces as [`Error::Io`] with the line it
/// happened at.
pub fn for_each_line<R: BufRead + ?Sized>(
    reader: &mut R,
    max_line_bytes: Option<usize>,
    retry: RetryPolicy,
    rec: &Recorder,
    mut on_line: impl FnMut(u64, &[u8], bool),
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
                on_line(line_no, &buf, raw.truncated);
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
    use crate::{ErrorPolicy, JobConfig};
    use typefuse_json::json;

    fn config(map_path: MapPath, profile: bool) -> FoldConfig {
        FoldConfig {
            map_path,
            dedup: DedupMode::Off,
            fuse_config: FuseConfig::default(),
            parser: ParserOptions::default(),
            keeps_text: true,
            max_line_bytes: None,
            profile,
        }
    }

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
        for (route, profile) in routes {
            let mut typer = LineTyper::new(config(route, profile), Recorder::disabled());
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
                (12, 1, 5),
                "{route:?}"
            );
            assert_eq!(at_offset.at, 8);
        }
    }

    /// The values and the report [`for_each_value`] yields for `input`.
    fn values_of(input: &str, job: &SchemaJob) -> Result<(Vec<Value>, ErrorReport), Error> {
        let mut values = Vec::new();
        let report = for_each_value(&mut input.as_bytes(), job, |v| values.push(v))?;
        Ok((values, report))
    }

    fn skipping() -> SchemaJob {
        JobConfig::new().on_error(ErrorPolicy::skip()).build()
    }

    #[test]
    fn for_each_value_skips_blank_lines() {
        let (values, report) = values_of("{\"a\":1}\n\n   \n{\"a\":2}", &SchemaJob::new()).unwrap();
        assert_eq!(values, [json!({"a": 1}), json!({"a": 2})]);
        assert!(report.is_empty());
    }

    #[test]
    fn for_each_value_over_empty_input_visits_nothing() {
        for input in ["", "\n\n"] {
            let (values, report) = values_of(input, &SchemaJob::new()).unwrap();
            assert!(values.is_empty() && report.is_empty(), "{input:?}");
        }
    }

    #[test]
    fn for_each_value_anchors_errors_at_the_file_line() {
        let input = "{\"a\":1}\n{\"bad\n{\"a\":2}\n";
        // Reading goes on past a bad line; the report holds it.
        let (values, report) = values_of(input, &skipping()).unwrap();
        assert_eq!(values, [json!({"a": 1}), json!({"a": 2})]);
        let bad = &report.records()[0];
        assert_eq!((report.skipped(), bad.at), (1, 2));
        assert_eq!(bad.error.span().start.line, 2);
        // Fail-fast reports the same error.
        let err = values_of(input, &SchemaJob::new()).unwrap_err();
        assert!(matches!(&err, Error::Parse(e) if *e == bad.error), "{err}");
    }

    #[test]
    fn for_each_value_rejects_trailing_garbage() {
        let err = values_of("{} {}\n", &SchemaJob::new()).unwrap_err();
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
        let job = JobConfig::new()
            .on_error(ErrorPolicy::skip())
            .recorder(rec.clone())
            .build();
        let (values, _) = values_of(input, &job).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(rec.counter_value("json.bytes"), input.len() as u64);
        assert_eq!(rec.counter_value("json.lines"), 4, "blank lines count");
        assert_eq!(rec.counter_value("json.records"), 2);
        assert_eq!(rec.counter_value("json.parse_errors"), 1);
    }
}
