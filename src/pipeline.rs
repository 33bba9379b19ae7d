//! The end-to-end schema-inference pipeline: the paper's two phases wired
//! onto the execution engine, plus the measurements its evaluation
//! reports.
//!
//! Every ingestion route goes through one entry point,
//! [`SchemaJob::run`], fed by a [`Source`]:
//!
//! ```
//! use typefuse::pipeline::Source;
//! use typefuse::JobConfig;
//!
//! let data = "{\"a\":1}\n{\"a\":\"x\",\"b\":null}\n";
//! let result = JobConfig::new().build().run(Source::ndjson(data.as_bytes())).unwrap();
//! assert_eq!(result.schema.to_string(), "{a: Num + Str, b: Null?}");
//! assert_eq!(result.records, 2);
//! ```
//!
//! For text sources the Map phase defaults to [`MapPath::Events`]: each
//! line is typed straight from its bytes by the direct validating typer
//! ([`typefuse_infer::Typer`], via
//! [`streaming::infer_line`](typefuse_infer::streaming::infer_line)),
//! never allocating the intermediate [`Value`] tree; a line the typer
//! declines is replayed through the pull-event fold, which is where
//! errors come from. The paper's literal two steps — parse a [`Value`],
//! then infer — are what [`Source::values`] runs; the route matrix
//! (`crates/serve/tests/route_matrix.rs`) holds every text route and
//! driver to them byte for byte.
//!
//! The per-line step of every text route — size guard, trim, blank
//! test, route dispatch, error anchoring, counters — is the
//! [record-fold kernel](crate::fold); this module only reads, partitions
//! and reduces. Every Reduce is the same one: each partition folds into
//! an accumulator on the [`Runtime`], and the partials are merged
//! pairwise ([`combine`]) — the accumulators are the monoids, so no
//! strategy object sits between them and the runtime.

use std::collections::HashSet;
use std::io::BufRead;
use std::time::{Duration, Instant};

use crate::config::JobConfig;
use crate::engine::{combine, Runtime, WorkerPanic};
use crate::error::Error;
use crate::faults::{BadLines, ErrorReport};
use crate::fold::{for_each_line, Absorbed, Line, LineTyper, Origin, RecordFold};
use typefuse_infer::{infer_type_recorded, Acc, ProfileAcc, ProfileReport, SchemaAcc};
use typefuse_json::Value;
use typefuse_obs::{Recorder, RunReport, StageReport};
use typefuse_types::intern::FxBuildHasher;
use typefuse_types::Type;

pub use typefuse_infer::{dedup_auto_sample, DedupMode};

/// An input for [`SchemaJob::run`]: where the records come from.
///
/// The variants differ in what the Map phase can see. Text sources
/// ([`Source::Ndjson`]) support every Map route; value sources are
/// already trees, so they always use tree inference.
pub enum Source<'a> {
    /// In-memory values, partitioned by the job's `partitions` setting.
    Values(Vec<Value>),
    /// An NDJSON byte stream: one record per non-blank line.
    Ndjson(Box<dyn BufRead + 'a>),
}

impl<'a> Source<'a> {
    /// An NDJSON stream source.
    pub fn ndjson<R: BufRead + 'a>(reader: R) -> Self {
        Source::Ndjson(Box::new(reader))
    }

    /// An in-memory value source.
    pub fn values(values: Vec<Value>) -> Self {
        Source::Values(values)
    }
}

impl std::fmt::Debug for Source<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Source::Values(v) => f.debug_tuple("Values").field(&v.len()).finish(),
            Source::Ndjson(_) => f.write_str("Ndjson(..)"),
        }
    }
}

/// Which Map-phase route text sources take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapPath {
    /// Type each line straight from its text — no `Value` trees: the
    /// direct typer, with the pull-event fold replaying whatever it
    /// declines (the route keeps the name of that fold). The default.
    #[default]
    Events,
    /// Raw-shape fast path: hash each record's structural skeleton off
    /// the stage-1 SWAR scan and serve repeats from a per-partition
    /// signature → type cache ([`typefuse_infer::ShapeCache`]); misses
    /// are typed as [`MapPath::Events`] types them, so output is
    /// byte-identical to that route's.
    Shape,
}

/// A batch job: the [`JobConfig`] it was built from, bound to the
/// machine ([`JobConfig::build`] works out the worker pool and the
/// partition count). Every setting is read from the configuration.
#[derive(Debug, Clone)]
pub struct SchemaJob {
    pub(crate) config: JobConfig,
    pub(crate) runtime: Runtime,
    pub(crate) partitions: usize,
}

impl SchemaJob {
    /// The configuration this job was built from.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// Run the pipeline over any [`Source`].
    ///
    /// In-memory sources cannot fail on input; NDJSON sources fail on an
    /// unreadable chunk ([`Error::Io`], with the line it stopped at)
    /// and handle malformed records per the configured
    /// [`ErrorPolicy`](crate::ErrorPolicy): fail fast at the earliest bad line
    /// ([`Error::Parse`], anchored at its 1-based line number), skip, or
    /// quarantine — skipped records are reported in
    /// [`SchemaResult::errors`]. A panicking worker surfaces as
    /// [`Error::Worker`] on every route.
    pub fn run(&self, source: Source<'_>) -> Result<SchemaResult, Error> {
        match source {
            Source::Values(values) => self.run_value_parts(partition(values, self.partitions)),
            Source::Ndjson(reader) => self.run_lines(reader),
        }
    }

    /// Run over an in-memory value collection.
    pub fn run_values(&self, values: Vec<Value>) -> SchemaResult {
        self.run(Source::Values(values))
            .expect("in-memory sources cannot fail")
    }

    /// Run over an NDJSON stream, failing on the first malformed record.
    /// With an enabled recorder, reading counts `json.bytes` /
    /// `json.lines` / `json.records` under a `pipeline.read` span.
    pub fn run_ndjson<R: BufRead>(&self, reader: R) -> Result<SchemaResult, Error> {
        self.run(Source::ndjson(reader))
    }

    /// Run the **profiled** pipeline over any [`Source`]: one fused
    /// Map+Reduce pass over a schema and a [`ProfileAcc`], producing a
    /// [`ProfileReport`] — the fused schema plus per-path presence
    /// counts, kind/length/numeric statistics and provenance lines.
    ///
    /// Records are numbered by their 1-based input line (NDJSON) or
    /// ordinal (in-memory sources), and those numbers survive the
    /// parallel reduce unchanged: every provenance aggregate is a
    /// minimum, so the profile — and its serialized report — is
    /// byte-identical for any worker count, partitioning and Map route
    /// (text is observed by the typer's walk, in-memory values by the
    /// tree walk; both observe identically). In-memory values fold a
    /// `(schema, profile)` pair: the type each observation hands back is
    /// fused beside it.
    ///
    /// Text sources fold one profile-carrying [`RecordFold`] per
    /// partition and merge the folds in input order; each fold judges its
    /// bad lines under the job's [`ErrorPolicy`](crate::ErrorPolicy) and the merged fold is
    /// judged once more, so the verdict is [`SchemaJob::run`]'s.
    pub fn run_profiled(&self, source: Source<'_>) -> Result<ProfiledResult, Error> {
        let wall_start = Instant::now();
        let rec = &self.config.recorder;
        match source {
            Source::Values(values) => {
                let numbered: Vec<(u64, &Value)> = (1..).zip(&values).collect();
                let parts = partition(numbered, self.partitions);
                let schema = SchemaAcc::new(DedupMode::Off, self.config.fuse_config);
                let empty = Profiled(schema, ProfileAcc::new());
                let (acc, fold_stage) = {
                    let _span = rec.span("pipeline.profile");
                    self.reduce("profile.local_fold", &parts, &empty)?
                };
                let Profiled(schema, profile) = acc.unwrap_or(empty);
                let (profile, errors) = (profile.finish(schema.into_schema()), ErrorReport::new());
                self.finish_profiled(profile, errors, parts.len(), fold_stage, wall_start)
            }
            Source::Ndjson(reader) => {
                let records = partition(self.read_records(reader)?, self.partitions);
                let empty = RecordFold::new(&self.config, true);
                let (fold, fold_stage) = {
                    let _span = rec.span("pipeline.profile");
                    self.reduce("profile.local_fold", &records, &empty)?
                };
                let mut fold = fold.unwrap_or(empty);
                fold.settle()?;
                let (_, _, report, profile) = fold.finish();
                let profile = profile.expect("a profiled fold carries a profile");
                self.finish_profiled(profile, report, records.len(), fold_stage, wall_start)
            }
        }
    }

    /// Shared tail of the profiled routes.
    fn finish_profiled(
        &self,
        profile: ProfileReport,
        errors: ErrorReport,
        partitions: usize,
        fold_stage: StageReport,
        wall_start: Instant,
    ) -> Result<ProfiledResult, Error> {
        let records = profile.records;
        self.config.recorder.add("records", records);
        Ok(ProfiledResult {
            profile,
            records,
            partitions,
            wall: wall_start.elapsed(),
            fold_stage,
            errors,
        })
    }

    /// The tree Map phase: infer one type per materialised value
    /// (Figure 4), then hand off to the shared Reduce tail.
    fn run_value_parts(&self, parts: Vec<Vec<Value>>) -> Result<SchemaResult, Error> {
        let wall_start = Instant::now();
        let rec = &self.config.recorder;
        let map_start = Instant::now();
        let (types, map_stage) = {
            let _span = rec.span("pipeline.map");
            self.stage("map", &parts, |part: &Vec<Value>| {
                let infer = |v| infer_type_recorded(v, rec);
                part.iter().map(infer).collect::<Vec<Type>>()
            })?
        };
        let records = parts.iter().map(Vec::len).sum::<usize>() as u64;
        let (errors, map_time) = (ErrorReport::new(), map_start.elapsed());
        self.finish(types, records, errors, wall_start, map_time, map_stage)
    }

    /// The text route for every Map path: read lines (retry, line-size
    /// guard), type each in parallel through the kernel's per-line half
    /// (one [`LineTyper`] per partition, so the shape route's cache is
    /// partition-local), then judge the bad lines in input order.
    /// Counters: `json.bytes` / `json.lines` at read time; the kernel's
    /// at parse time; `ingest.skipped` / `ingest.quarantined` /
    /// `ingest.retries` / `ingest.worker_panics` for fault tolerance.
    fn run_lines(&self, reader: Box<dyn BufRead + '_>) -> Result<SchemaResult, Error> {
        let wall_start = Instant::now();
        let rec = &self.config.recorder;
        let records = partition(self.read_records(reader)?, self.partitions);

        let map_start = Instant::now();
        let chaos = self.config.chaos_panic_at;
        let (typed, map_stage) = {
            let _span = rec.span("pipeline.map");
            self.stage("map", &records, |part: &Vec<RawRecord>| {
                let mut typer = LineTyper::new(&self.config, false);
                let out: Vec<Absorbed<Type>> = part
                    .iter()
                    .map(|record| {
                        if chaos == Some(record.line) {
                            panic!("injected chaos panic at line {}", record.line);
                        }
                        let origin = Origin::Line(record.line.into());
                        typer.type_line(origin, &record.bytes, record.truncated, None)
                    })
                    .collect();
                typer.flush_counters();
                out
            })?
        };
        let map_time = map_start.elapsed();

        // Split the outcomes into clean types and bad lines, judging each
        // bad line in input order as a fold does, up to the one that
        // stops the run. The outcomes are gathered whole first: batch
        // memory is a benchmarked figure, and it changes only with the
        // materialising driver itself.
        let typed: Vec<Absorbed<Type>> = typed.into_iter().flatten().collect();
        let mut types: Vec<Type> = Vec::new();
        let mut bad_lines = BadLines::new(self.config.error_policy.clone());
        for outcome in typed {
            match outcome {
                Absorbed::Record(ty) => types.push(ty),
                Absorbed::Bad(bad) if bad_lines.absorb(&bad).is_err() => break,
                Absorbed::Bad(_) | Absorbed::Blank => {}
            }
        }
        bad_lines.settle(rec)?;
        let report = bad_lines.report().clone();

        let records = types.len() as u64;
        let types = partition(types, self.partitions);
        self.finish(types, records, report, wall_start, map_time, map_stage)
    }

    /// Read the raw lines of a text source under a `pipeline.read` span
    /// ([`for_each_line`] counts them). Every line is kept, blank or
    /// oversized: what a line *is* gets decided by the kernel, in input
    /// order.
    fn read_records(&self, mut reader: Box<dyn BufRead + '_>) -> Result<Vec<RawRecord>, Error> {
        let (config, rec) = (&self.config, &self.config.recorder);
        let _span = rec.span("pipeline.read");
        let mut out = Vec::new();
        for_each_line(
            &mut reader,
            config.max_line_bytes,
            config.retry,
            rec,
            |line, bytes, truncated| {
                out.push(RawRecord {
                    line: line as u32,
                    bytes: bytes.to_vec(),
                    truncated,
                });
                true
            },
        )?;
        Ok(out)
    }

    /// Count and convert an isolated worker panic.
    fn surface_worker<T>(&self, result: Result<T, WorkerPanic>) -> Result<T, Error> {
        result.map_err(|p| {
            self.config
                .recorder
                .add("ingest.worker_panics", p.panics as u64);
            Error::Worker(p)
        })
    }

    /// Run one task per item on the runtime, as the stage `name` of the
    /// run report; an isolated worker panic is counted and surfaced.
    fn stage<T: Sync, R: Send>(
        &self,
        name: &str,
        items: &[T],
        task: impl Fn(&T) -> R + Sync,
    ) -> Result<(Vec<R>, StageReport), Error> {
        let (outcome, mut stage) = self.runtime.try_run_indexed(items, |_, item| task(item));
        stage.name = name.to_string();
        Ok((self.surface_worker(outcome)?, stage))
    }

    /// The one Reduce: fold each partition into a clone of `empty` on the
    /// runtime, as the stage `name`, then merge the partials pairwise
    /// ([`combine`]). An empty partition would fold to the identity and
    /// is dropped instead, so `None` means there was nothing to fold.
    fn reduce<T: Part<A>, A: Acc + Send + Sync>(
        &self,
        name: &str,
        parts: &[Vec<T>],
        empty: &A,
    ) -> Result<(Option<A>, StageReport), Error> {
        let (partials, stage) = self.stage(name, parts, |part: &Vec<T>| {
            (!part.is_empty()).then(|| {
                let mut acc = empty.clone();
                part.iter().for_each(|item| _ = acc.absorb(item.item()));
                acc
            })
        })?;
        let partials = partials.into_iter().flatten().collect();
        let merged = combine(
            &self.runtime,
            partials,
            |mut acc, other| {
                acc.merge(other);
                acc
            },
            &self.config.recorder,
        );
        Ok((self.surface_worker(merged)?, stage))
    }

    /// The shared tail of every route: type statistics, the Reduce
    /// (Figure 6: a [`SchemaAcc`] on the plain route, or on the
    /// shape-dedup one when [`DedupMode`] resolves on), and result
    /// assembly.
    fn finish(
        &self,
        types: Vec<Vec<Type>>,
        records: u64,
        errors: ErrorReport,
        wall_start: Instant,
        map_time: Duration,
        map_stage: StageReport,
    ) -> Result<SchemaResult, Error> {
        let rec = &self.config.recorder;

        // ---- Type statistics (the Tables 2–5 columns). ----------------
        let type_stats = {
            let _span = rec.span("pipeline.stats");
            let stats_source: Vec<&Type> = if self.config.type_stats != Some(false) {
                types.iter().flatten().collect()
            } else {
                Vec::new()
            };
            TypeStats::measure(stats_source)
        };

        // ---- Reduce phase: fuse (Figure 6). ----------------------------
        // Both routes produce byte-identical schemas; dedup only changes
        // constants. `auto` is resolved here, once, so no partition
        // switches route mid-reduce.
        let mode = match self.config.dedup {
            DedupMode::Auto if dedup_auto_sample(types.iter().flatten()) => DedupMode::On,
            DedupMode::Auto => DedupMode::Off,
            mode => mode,
        };
        let empty = SchemaAcc::new(mode, self.config.fuse_config).recorded(rec.clone());
        let reduce_start = Instant::now();
        let (fused, reduce_stage) = {
            let _span = rec.span("pipeline.reduce");
            if mode == DedupMode::On {
                rec.add("infer.dedup", 1);
            }
            let (acc, stage) = self.reduce("reduce.local_fold", &types, &empty)?;
            let schema = acc.map(|acc| {
                acc.flush_counters();
                acc.into_schema()
            });
            (schema, stage)
        };
        let reduce_time = reduce_start.elapsed();

        rec.add("records", records);
        let schema = fused.unwrap_or(Type::Bottom);
        Ok(SchemaResult {
            fused_size: schema.size(),
            schema,
            records,
            partitions: types.len(),
            type_stats,
            errors,
            map_time,
            reduce_time,
            wall: wall_start.elapsed(),
            map_stage,
            reduce_stage,
        })
    }
}

/// Split `items` into `n` (at least one) contiguous partitions, the
/// first `len % n` of them one item longer: concatenated in order they
/// are the input, so any associative merge of their folds is the fold of
/// the whole.
fn partition<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let n = n.max(1);
    let (base, rem) = (items.len() / n, items.len() % n);
    let mut items = items.into_iter();
    (0..n)
        .map(|p| items.by_ref().take(base + usize::from(p < rem)).collect())
        .collect()
}

/// One raw input line as read: content without its newline, capped by
/// the line-size guard when `truncated`.
#[derive(Debug, Clone)]
struct RawRecord {
    /// 1-based input line number.
    line: u32,
    bytes: Vec<u8>,
    truncated: bool,
}

/// A partition element, as the [`Acc`] a Reduce folds it into takes it.
trait Part<A: Acc>: Sync {
    fn item(&self) -> A::Item<'_>;
}

impl Part<SchemaAcc> for Type {
    fn item(&self) -> &Type {
        self
    }
}

impl Part<RecordFold> for RawRecord {
    fn item(&self) -> Line<'_> {
        (Origin::Line(self.line.into()), &self.bytes, self.truncated)
    }
}

impl Part<Profiled> for (u64, &Value) {
    fn item(&self) -> (u64, &Value) {
        *self
    }
}

/// An in-memory source's profiled fold: the profile walks each numbered
/// value's tree and the schema fuses the type that walk hands back.
#[derive(Debug, Clone)]
struct Profiled(SchemaAcc, ProfileAcc);

impl Acc for Profiled {
    type Item<'a> = (u64, &'a Value);
    type Outcome = ();

    fn absorb(&mut self, (line, value): (u64, &Value)) {
        self.0.absorb(&self.1.observe_value(line, value));
    }

    fn merge(&mut self, other: &Profiled) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }
}

/// Distinct-type statistics — the "Inferred types size" columns of
/// Tables 2–5.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeStats {
    /// Number of distinct inferred types.
    pub distinct: usize,
    /// Smallest inferred type size.
    pub min_size: usize,
    /// Largest inferred type size.
    pub max_size: usize,
    /// Mean inferred type size over *all* records (not just distinct).
    pub avg_size: f64,
}

impl TypeStats {
    fn measure<'a>(types: Vec<&'a Type>) -> TypeStats {
        if types.is_empty() {
            return TypeStats::default();
        }
        let mut distinct: HashSet<&'a Type, FxBuildHasher> =
            HashSet::with_capacity_and_hasher(types.len() / 4, FxBuildHasher::default());
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        let mut sum = 0u64;
        for t in &types {
            let size = t.size();
            min_size = min_size.min(size);
            max_size = max_size.max(size);
            sum += size as u64;
            distinct.insert(t);
        }
        TypeStats {
            distinct: distinct.len(),
            min_size,
            max_size,
            avg_size: sum as f64 / types.len() as f64,
        }
    }
}

/// The outcome of a schema-inference run.
#[derive(Debug, Clone)]
pub struct SchemaResult {
    /// The fused schema.
    pub schema: Type,
    /// Size of the fused schema (AST nodes) — the "Fused types size"
    /// column.
    pub fused_size: usize,
    /// Number of input records.
    pub records: u64,
    /// Partitions processed.
    pub partitions: usize,
    /// Distinct / min / max / avg inferred-type statistics.
    pub type_stats: TypeStats,
    /// Records skipped or quarantined under the job's [`ErrorPolicy`](crate::ErrorPolicy)
    /// (always empty for `FailFast` — the run errors instead).
    pub errors: ErrorReport,
    /// Wall time of the Map (inference) phase.
    pub map_time: Duration,
    /// Wall time of the Reduce (fusion) phase.
    pub reduce_time: Duration,
    /// Total wall time including statistics collection.
    pub wall: Duration,
    /// Per-partition timings of the Map phase, as the `map` stage.
    pub map_stage: StageReport,
    /// Per-partition timings of the partition-local fold, as the
    /// `reduce.local_fold` stage.
    pub reduce_stage: StageReport,
}

impl SchemaResult {
    /// The succinctness ratio the paper discusses: fused size over the
    /// average inferred size (≤ 1.4 for GitHub, ≤ 4 for Twitter, larger
    /// for Wikidata).
    pub fn compaction_ratio(&self) -> f64 {
        if self.type_stats.avg_size == 0.0 {
            0.0
        } else {
            self.fused_size as f64 / self.type_stats.avg_size
        }
    }

    /// Assemble the full structured run report: the recorder's counters,
    /// gauges, histograms, spans and trace, plus this result's
    /// per-stage task timings (`map` and `reduce.local_fold`, each with
    /// per-task queue-wait vs execute split) and headline values.
    ///
    /// Pass the same recorder the job ran with; a disabled recorder
    /// still yields the stage timings and headline values.
    pub fn run_report(&self, recorder: &Recorder) -> RunReport {
        let mut report = recorder.snapshot();
        report.counters.insert("records".to_string(), self.records);
        report.stages.push(self.map_stage.clone());
        report.stages.push(self.reduce_stage.clone());
        report
            .values
            .insert("wall_seconds".to_string(), self.wall.as_secs_f64());
        report
            .values
            .insert("map_seconds".to_string(), self.map_time.as_secs_f64());
        report
            .values
            .insert("reduce_seconds".to_string(), self.reduce_time.as_secs_f64());
        report
            .values
            .insert("fused_size".to_string(), self.fused_size as f64);
        report
            .values
            .insert("compaction_ratio".to_string(), self.compaction_ratio());
        report
            .meta
            .insert("partitions".to_string(), self.partitions.to_string());
        report
            .meta
            .insert("schema".to_string(), self.schema.to_string());
        report
    }
}

/// The outcome of a profiled run ([`SchemaJob::run_profiled`]).
#[derive(Debug, Clone)]
pub struct ProfiledResult {
    /// The per-path profile, including the fused schema.
    pub profile: ProfileReport,
    /// Number of input records.
    pub records: u64,
    /// Partitions processed.
    pub partitions: usize,
    /// Total wall time.
    pub wall: Duration,
    /// Per-partition timings of the profiled fold, as the
    /// `profile.local_fold` stage.
    pub fold_stage: StageReport,
    /// The bad records a lenient [`ErrorPolicy`](crate::ErrorPolicy) skipped (text sources
    /// only; they leave no trace in the profile).
    pub errors: ErrorReport,
}

impl ProfiledResult {
    /// Assemble a structured run report for this profiled run, mirroring
    /// [`SchemaResult::run_report`]: recorder state plus the fold's
    /// per-task timings and headline values.
    pub fn run_report(&self, recorder: &Recorder) -> RunReport {
        let mut report = recorder.snapshot();
        report.counters.insert("records".to_string(), self.records);
        report.stages.push(self.fold_stage.clone());
        report
            .values
            .insert("wall_seconds".to_string(), self.wall.as_secs_f64());
        report.values.insert(
            "profiled_paths".to_string(),
            self.profile.paths.len() as f64,
        );
        report
            .meta
            .insert("partitions".to_string(), self.partitions.to_string());
        report
            .meta
            .insert("schema".to_string(), self.profile.schema.to_string());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    fn values() -> Vec<Value> {
        vec![
            json!({"a": 1, "b": "x"}),
            json!({"a": 2, "b": "y"}),
            json!({"a": null, "c": [1, 2]}),
            json!({"a": 1, "b": "x"}),
        ]
    }

    fn as_ndjson(values: &[Value]) -> String {
        let mut buf = Vec::new();
        typefuse_json::ndjson::write_ndjson(&mut buf, values).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn end_to_end_schema() {
        let r = JobConfig::new().partitions(2).build().run_values(values());
        assert_eq!(
            r.schema.to_string(),
            "{a: Null + Num, b: Str?, c: [Num, Num]?}"
        );
        assert_eq!(r.records, 4);
        assert_eq!(r.partitions, 2);
        for v in values() {
            assert!(r.schema.admits(&v));
        }
    }

    #[test]
    fn type_stats_columns() {
        let r = JobConfig::new().build().run_values(values());
        // 2 distinct types: three of the four records infer {a: Num, b: Str}.
        assert_eq!(r.type_stats.distinct, 2);
        assert!(r.type_stats.min_size <= r.type_stats.max_size);
        assert!(r.type_stats.avg_size >= r.type_stats.min_size as f64);
        assert!(r.type_stats.avg_size <= r.type_stats.max_size as f64);
        assert_eq!(r.fused_size, r.schema.size());
        assert!(r.compaction_ratio() > 0.0);
    }

    #[test]
    fn partitioning_does_not_change_the_schema() {
        let base = JobConfig::new()
            .partitions(1)
            .build()
            .run_values(values())
            .schema;
        for parts in [2, 3, 7, 64] {
            let r = JobConfig::new()
                .partitions(parts)
                .build()
                .run_values(values());
            assert_eq!(r.schema, base, "partitions = {parts}");
        }
    }

    #[test]
    fn partition_splits_into_contiguous_chunks() {
        let parts = partition((0..10).collect::<Vec<_>>(), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 3, 3]);
        // Concatenated partitions reproduce the input order.
        assert_eq!(parts.concat(), (0..10).collect::<Vec<_>>());
        // More partitions than items leave the tail empty.
        assert_eq!(partition(vec![1], 3), [vec![1], vec![], vec![]]);
    }

    #[test]
    fn partition_clamps_zero_partitions_to_one() {
        assert_eq!(partition(vec![1, 2], 0), [vec![1, 2]]);
        assert_eq!(partition(Vec::<u8>::new(), 0).len(), 1);
    }

    #[test]
    fn empty_input() {
        let r = JobConfig::new().build().run_values(vec![]);
        assert_eq!(r.schema, Type::Bottom);
        assert_eq!(r.records, 0);
        assert_eq!(r.type_stats, TypeStats::default());
        assert_eq!(r.compaction_ratio(), 0.0);
    }

    #[test]
    fn ndjson_entry_point() {
        let data = "{\"a\":1}\n{\"a\":\"x\"}\n";
        let r = JobConfig::new()
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        assert_eq!(r.schema.to_string(), "{a: Num + Str}");

        let bad = "{\"a\":1}\nnot json\n";
        assert!(JobConfig::new().build().run_ndjson(bad.as_bytes()).is_err());
    }

    #[test]
    fn map_paths_agree_on_every_source_shape() {
        let data = as_ndjson(&values());
        let in_memory = JobConfig::new().build().run_values(values());
        for path in [MapPath::Events, MapPath::Shape] {
            let via_text = JobConfig::new()
                .map_path(path)
                .build()
                .run_ndjson(data.as_bytes())
                .unwrap();
            assert_eq!(via_text.schema, in_memory.schema, "{path:?}");
            assert_eq!(via_text.records, 4, "{path:?}");
            assert_eq!(via_text.type_stats, in_memory.type_stats, "{path:?}");
        }
    }

    #[test]
    fn events_path_errors_carry_line_numbers() {
        let bad = "{\"a\":1}\n\n{broken\n";
        let err = JobConfig::new()
            .build()
            .run_ndjson(bad.as_bytes())
            .unwrap_err();
        match err {
            Error::Parse(e) => assert_eq!(e.span().start.line, 3),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn events_path_reports_earliest_bad_line() {
        let bad = "{\"ok\":1}\n{bad1\n{\"ok\":2}\n{bad2\n";
        let err = JobConfig::new()
            .partitions(4)
            .build()
            .run_ndjson(bad.as_bytes())
            .unwrap_err();
        assert_eq!(err.span().unwrap().start.line, 2);
    }

    #[test]
    fn recorded_run_produces_a_full_report() {
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_values(values());
        let report = r.run_report(&rec);

        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.counters["infer.types"], 4);
        // 4 records in 2 partitions: 2 fuses in the local folds, then 1
        // combining the two partials.
        assert_eq!(report.counters["fuse.calls"], 3);
        assert_eq!(report.histograms["fuse.union_width"].count, 3);
        assert_eq!(report.histograms["infer.record_width"].count, 4);
        assert!(report.gauges["infer.max_depth"] >= 2);
        assert!(report.spans.contains_key("pipeline.map"));
        assert!(report.spans.contains_key("pipeline.reduce"));
        assert!(report.spans.contains_key("reduce.level.0"));

        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["map", "reduce.local_fold"]);
        for stage in &report.stages {
            assert_eq!(stage.tasks.len(), 2, "one task per partition");
        }
        assert!(report.values.contains_key("wall_seconds"));

        // The report serializes, and the trace is non-empty Chrome JSON.
        let json = report.to_json();
        assert!(json.contains("\"fuse.calls\""));
        assert!(rec.chrome_trace_json().contains("\"traceEvents\""));
    }

    /// Four records of four different shapes.
    fn distinct_values() -> Vec<Value> {
        vec![
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
            json!({"a": "s"}),
        ]
    }

    #[test]
    fn recorded_reduce_counts_fusions_not_moves() {
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .workers(2)
            .partitions(2)
            .dedup(DedupMode::Off)
            .recorder(rec.clone())
            .build()
            .run_values(distinct_values());
        let types: Vec<Type> = distinct_values()
            .iter()
            .map(typefuse_infer::infer_type)
            .collect();
        assert_eq!(r.schema, typefuse_infer::fuse_all(&types));
        // 4 records in 2 partitions: one in-partition fusion each (the
        // first absorb is a move into ε), plus one cross-partition merge.
        assert_eq!(rec.counter_value("fuse.calls"), 3);
    }

    #[test]
    fn recorded_events_run_mirrors_the_value_report() {
        let data = as_ndjson(&values());
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        let report = r.run_report(&rec);
        // Same Map/Reduce metric names as the tree route...
        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.counters["infer.types"], 4);
        assert_eq!(report.counters["fuse.calls"], 3);
        assert_eq!(report.histograms["infer.record_width"].count, 4);
        // ...plus the events route's extras.
        assert!(report.counters["infer.events"] > 0);
        assert_eq!(report.histograms["infer.frames"].count, 4);
        assert!(report.spans.contains_key("pipeline.read"));
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["map", "reduce.local_fold"]);
    }

    #[test]
    fn disabled_recorder_report_still_has_stages_and_records() {
        let r = JobConfig::new().partitions(2).build().run_values(values());
        let report = r.run_report(&Recorder::disabled());
        assert_eq!(report.counters["records"], 4);
        assert_eq!(report.stages.len(), 2);
        assert!(report.histograms.is_empty());
    }

    #[test]
    fn recorded_ndjson_counts_io() {
        let data = "{\"a\":1}\n{\"a\":\"x\"}\n";
        for path in [MapPath::Events, MapPath::Shape] {
            let rec = Recorder::enabled();
            let r = JobConfig::new()
                .map_path(path)
                .recorder(rec.clone())
                .build()
                .run_ndjson(data.as_bytes())
                .unwrap();
            let report = r.run_report(&rec);
            assert_eq!(report.counters["json.bytes"], data.len() as u64, "{path:?}");
            assert_eq!(report.counters["json.lines"], 2, "{path:?}");
            assert_eq!(report.counters["json.records"], 2, "{path:?}");
            assert!(report.spans.contains_key("pipeline.read"), "{path:?}");
        }
    }

    #[test]
    fn profiled_run_matches_plain_schema_and_counts() {
        let data = as_ndjson(&values());
        let plain = JobConfig::new()
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        let profiled = JobConfig::new()
            .build()
            .run_profiled(Source::ndjson(data.as_bytes()))
            .unwrap();
        assert_eq!(profiled.profile.schema, plain.schema);
        assert_eq!(profiled.records, 4);
        let a = profiled.profile.get("$.a").unwrap();
        assert_eq!(a.count, 4);
        // b is present at lines 1, 2 and 4; line 3 demoted it.
        let b = profiled.profile.get("$.b").unwrap();
        assert_eq!(b.count, 3);
        assert_eq!(b.first_absent_line, Some(3));
        // c's Array branch was introduced at line 3.
        let c = profiled.profile.get("$.c").unwrap();
        assert_eq!(c.first_line(), Some(3));
    }

    #[test]
    fn profiled_run_is_invariant_across_workers_partitions_and_routes() {
        let data = as_ndjson(&values());
        let baseline = JobConfig::new()
            .workers(1)
            .partitions(1)
            .build()
            .run_profiled(Source::ndjson(data.as_bytes()))
            .unwrap()
            .profile;
        let baseline_json = baseline.to_json();
        for workers in [1, 4] {
            for parts in [1, 3, 7] {
                for path in [MapPath::Events, MapPath::Shape] {
                    let p = JobConfig::new()
                        .workers(workers)
                        .partitions(parts)
                        .map_path(path)
                        .build()
                        .run_profiled(Source::ndjson(data.as_bytes()))
                        .unwrap()
                        .profile;
                    assert_eq!(p, baseline, "{workers}w {parts}p {path:?}");
                    assert_eq!(p.to_json(), baseline_json);
                }
            }
        }
        // In-memory sources number records by ordinal, matching the
        // NDJSON line numbers of the same records.
        for parts in [1, 3] {
            let via_values = JobConfig::new()
                .partitions(parts)
                .build()
                .run_profiled(Source::values(values()))
                .unwrap()
                .profile;
            assert_eq!(via_values.to_json(), baseline_json, "{parts}p");
        }
    }

    #[test]
    fn profiled_reduce_keeps_line_provenance_across_partitions() {
        let profile_with = |workers: usize, parts: usize| {
            JobConfig::new()
                .workers(workers)
                .partitions(parts)
                .build()
                .run_profiled(Source::values(distinct_values()))
                .unwrap()
                .profile
        };
        let baseline = profile_with(1, 1);
        // b appears only at line 1, so line 2 demoted it.
        assert_eq!(baseline.get("$.b").unwrap().first_absent_line, Some(2));
        assert_eq!(baseline.get("$.a").unwrap().first_absent_line, None);
        for parts in 2..=5 {
            let profile = profile_with(4, parts);
            assert_eq!(profile, baseline, "{parts} partitions");
            assert_eq!(profile.to_json(), baseline.to_json());
        }
    }

    #[test]
    fn profiled_run_reports_earliest_bad_line() {
        let bad = "{\"ok\":1}\n{bad1\n{\"ok\":2}\n{bad2\n";
        for path in [MapPath::Events, MapPath::Shape] {
            let err = JobConfig::new()
                .partitions(4)
                .map_path(path)
                .build()
                .run_profiled(Source::ndjson(bad.as_bytes()))
                .unwrap_err();
            assert_eq!(err.span().unwrap().start.line, 2, "{path:?}");
        }
    }

    #[test]
    fn profiled_run_report_has_fold_stage() {
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .recorder(rec.clone())
            .build()
            .run_profiled(Source::values(values()))
            .unwrap();
        let report = r.run_report(&rec);
        assert_eq!(report.counters["records"], 4);
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["profile.local_fold"]);
        assert!(report.spans.contains_key("pipeline.profile"));
        assert_eq!(
            report.values["profiled_paths"], 5.0,
            "$, $.a, $.b, $.c, $.c[]"
        );
    }

    #[test]
    fn dedup_modes_agree_byte_for_byte() {
        // Enough repetition that Auto resolves on, with an array-bearing
        // record so positional-array collapse is exercised.
        let vals: Vec<Value> = values().into_iter().cycle().take(200).collect();
        let data = as_ndjson(&vals);
        let baseline = JobConfig::new()
            .dedup(DedupMode::Off)
            .build()
            .run_ndjson(data.as_bytes())
            .unwrap();
        for mode in [DedupMode::On, DedupMode::Auto] {
            for path in [MapPath::Events, MapPath::Shape] {
                for workers in [1, 4] {
                    let r = JobConfig::new()
                        .dedup(mode)
                        .map_path(path)
                        .workers(workers)
                        .build()
                        .run_ndjson(data.as_bytes())
                        .unwrap();
                    assert_eq!(
                        r.schema.to_string(),
                        baseline.schema.to_string(),
                        "{mode:?} {path:?} {workers}w"
                    );
                    assert_eq!(r.records, baseline.records);
                }
            }
        }
    }

    #[test]
    fn auto_picks_dedup_on_redundant_streams_only() {
        // 200 records, 2 distinct shapes → dedup.
        let redundant: Vec<Type> = values()
            .iter()
            .cycle()
            .take(200)
            .map(typefuse_infer::infer_type)
            .collect();
        assert!(dedup_auto_sample(
            redundant.iter().take(2).chain(&redundant)
        ));
        // Tiny inputs stay plain regardless of redundancy.
        assert!(!dedup_auto_sample(redundant.iter().take(10)));
        // Every shape unique → plain.
        let unique: Vec<Type> = (0..100)
            .map(|i| {
                let v = typefuse_json::parse_value(&format!("{{\"k{i}\": {i}}}")).unwrap();
                typefuse_infer::infer_type(&v)
            })
            .collect();
        assert!(!dedup_auto_sample(unique.iter()));
    }

    #[test]
    fn dedup_run_reports_cache_and_shape_counters() {
        let vals: Vec<Value> = values().into_iter().cycle().take(200).collect();
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .partitions(2)
            .dedup(DedupMode::On)
            .recorder(rec.clone())
            .build()
            .run_values(vals);
        let report = r.run_report(&rec);
        assert_eq!(report.counters["records"], 200);
        assert_eq!(report.counters["infer.dedup"], 1);
        assert_eq!(report.counters["infer.distinct_shapes"], 2);
        assert!(report.counters["fuse.cache_hits"] > 150, "duplicates hit");
        assert!(report.counters["fuse.calls"] > 0);
        assert_eq!(
            report.counters["fuse.calls"],
            report.counters["fuse.cache_misses"]
        );
        assert!(report.spans.contains_key("pipeline.reduce"));
    }

    #[test]
    fn dedup_reduce_emits_cache_and_shape_counters() {
        // Repeat the values so shapes actually dedup.
        let vals: Vec<Value> = distinct_values().into_iter().cycle().take(20).collect();
        let rec = Recorder::enabled();
        let r = JobConfig::new()
            .workers(2)
            .partitions(2)
            .dedup(DedupMode::On)
            .recorder(rec.clone())
            .build()
            .run_values(vals);
        assert_eq!(r.records, 20);
        assert_eq!(rec.counter_value("infer.distinct_shapes"), 4);
        assert!(rec.counter_value("fuse.cache_hits") > 0, "repeats hit");
        assert!(rec.counter_value("fuse.calls") > 0);
    }

    #[test]
    fn without_stats_still_fuses() {
        let r = JobConfig::new()
            .without_type_stats()
            .build()
            .run_values(values());
        assert_eq!(r.type_stats.distinct, 0);
        assert_eq!(
            r.schema.to_string(),
            "{a: Null + Num, b: Str?, c: [Num, Num]?}"
        );
    }
}
