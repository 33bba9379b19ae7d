//! The record-fold kernel: raw line bytes → type or anchored error →
//! accumulator.
//!
//! Every text-ingesting driver — batch, byte-range splits, stdin
//! streaming, the profiled pass, the resident daemon — does the same
//! per input line: size guard, trim, blank test, parse by Map route,
//! re-anchor the error at the line's [`Origin`], feed the accumulator,
//! bump the counters. That step lives here once: [`LineTyper`] is its
//! per-line half (batch's Map closure calls it before the materialised
//! reduce), [`RecordFold`] adds the accumulators and is the monoid the
//! other drivers fold into and merge, [`for_each_line`] reads plain
//! streams and [`fold_stream`] is the one-fold driver over them.
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
use typefuse_infer::{streaming, DedupMode, FuseConfig, ProfileAcc, SchemaAcc, ShapeCache, Typer};
use typefuse_json::codec::{u64_from_value, u64_to_value};
use typefuse_json::ndjson::{read_line_bounded, trim_ascii_bytes};
use typefuse_json::{ErrorKind, Map, ParserOptions, Position, Value};
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
        if truncated {
            let cap = self.config.max_line_bytes.unwrap_or(usize::MAX);
            return self.bad(
                origin,
                ErrorKind::RecordTooLarge(cap),
                Position::start(),
                raw,
            );
        }
        let line = trim_ascii_bytes(raw);
        if line.is_empty() {
            return Absorbed::Blank;
        }
        let (rec, parser) = (&self.recorder, &self.config.parser);
        let typed = match (profile, self.config.map_path) {
            (Some(profile), _) => profile.observe_line(origin.at(), line, parser),
            (None, MapPath::Events) => streaming::infer_line(&mut self.typer, line, parser, rec),
            (None, MapPath::Shape) => self
                .shape
                .as_mut()
                .expect("the shape route carries its cache")
                .infer_line(line, parser, rec),
        };
        match typed {
            Ok(ty) => {
                let records = &mut self.records;
                let records = records.get_or_insert_with(|| rec.counter("json.records"));
                records.inc(1);
                Absorbed::Record(ty)
            }
            Err(e) => self.bad(origin, e.kind().clone(), e.span().start, line),
        }
    }

    fn bad(&self, origin: Origin, kind: ErrorKind, start: Position, text: &[u8]) -> Absorbed<Type> {
        self.recorder.add("json.parse_errors", 1);
        Absorbed::Bad(BadRecord {
            at: origin.at(),
            error: typefuse_json::Error::at(kind, origin.anchor(start)),
            text: self
                .config
                .keeps_text
                .then(|| String::from_utf8_lossy(text).into_owned()),
        })
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
/// fused once, into the schema accumulator; the profile only observes,
/// and takes schema and count along when it leaves the fold
/// ([`ProfileAcc::with_schema`]). Folds merge
/// like the fusion underneath — associatively and commutatively — so
/// any split of the input over any folds yields the same state.
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
            profile: config
                .profile
                .then(|| ProfileAcc::with_config(config.fuse_config)),
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

    /// A copy of the profile component, if this fold carries one.
    pub fn profile(&self) -> Option<ProfileAcc> {
        let profile = self.profile.clone()?;
        Some(profile.with_schema(self.schema(), self.records()))
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
    pub fn finish(self) -> (Type, u64, ErrorReport, Option<ProfileAcc>) {
        let (schema, records) = (self.acc.schema(), self.acc.records());
        let profile = self.profile.map(|p| p.with_schema(schema.clone(), records));
        (schema, records, self.report, profile)
    }

    /// Write the resumable state into a checkpoint object: line count,
    /// schema (lossless wire form), record count, route, profile and
    /// report; `u64`s as decimal strings (`typefuse_json::codec`).
    pub fn checkpoint_into(&self, m: &mut Map) {
        let schema = self.schema();
        m.insert("lines", u64_to_value(self.lines));
        m.insert("dedup", Value::Bool(self.acc.is_dedup()));
        m.insert(
            "schema",
            Value::from(typefuse_types::wire::to_wire(&schema)),
        );
        m.insert("records", u64_to_value(self.records()));
        if let Some(profile) = &self.profile {
            let profile = profile.checkpoint_with(&schema, self.records());
            m.insert("profile", profile);
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
        // The profile's own copy of the schema is the one just read.
        let profile = match config.profile {
            true => Some(
                ProfileAcc::from_checkpoint_value(field("profile")?, config.fuse_config)?
                    .with_schema(Type::Bottom, 0),
            ),
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
