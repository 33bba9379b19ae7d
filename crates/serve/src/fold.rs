//! Per-source folding state: the warm accumulator a poller feeds and
//! the protocol reads.
//!
//! Exactness rests on the fusion laws (Section 5 of the paper): fuse is
//! associative, commutative and idempotent, so absorbing appended
//! records one batch at a time produces byte-identically the schema a
//! batch run over the whole file would. The accumulator is kept *warm*
//! across batches — when shape dedup is on, the hash-consed interner
//! and memoized fuse cache carry over, so a redundant feed pays the
//! inference cost once per distinct shape, not once per record.

use std::collections::VecDeque;
use std::time::Instant;
use typefuse::fold::{Absorbed, Origin, RecordFold};
use typefuse::pipeline::MapPath;
use typefuse::{ErrorPolicy, ErrorReport, JobConfig};
use typefuse_infer::{Acc, Checkpoint, ShapeCache};
use typefuse_json::Value;
use typefuse_obs::{
    series_key, EventLog, JsonWriter, Level, Recorder, TelemetryCell, TelemetryHub,
};
use typefuse_registry::{CompatMode, Registry};
use typefuse_types::diff::SchemaChange;
use typefuse_types::Type;

/// Whether a source's fold carries a profile under `job`: on every route
/// but `shape`, which never reads record values, so it cannot feed one.
fn profiled(job: &JobConfig) -> bool {
    job.map_path != MapPath::Shape
}

/// How many drift alerts a source keeps (the most recent ones); older
/// alerts survive only in its `drift_total` count and the event log.
pub(crate) const DRIFT_ALERTS_KEPT: usize = 256;

/// A source's health, as reported by the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceStatus {
    /// Folding normally.
    Active,
    /// The source stopped folding: fail-fast hit a bad record, the
    /// error budget ran out, or input I/O failed permanently.
    Failed(String),
}

/// Everything the daemon knows about one source. The poller thread
/// mutates it behind a mutex; protocol sessions read it.
pub(crate) struct SourceState {
    pub(crate) name: String,
    /// The warm record fold: schema accumulator, profile (every route
    /// but `shape`), judged bad lines under the job's error policy, line
    /// counter and the shape route's signature cache — all kept across
    /// poll batches.
    fold: RecordFold,
    /// Latest registry version holding this source's schema.
    pub(crate) version: Option<u64>,
    /// The most recent [`DRIFT_ALERTS_KEPT`] drift alerts, oldest
    /// first: one rendered line per structural change between
    /// consecutive published versions.
    pub(crate) drift: VecDeque<String>,
    /// Alerts ever raised, the ones `drift` has dropped included.
    pub(crate) drift_total: u64,
    /// The fold's schema revision the registry last answered for; a
    /// batch that leaves it in place has nothing to publish.
    published: Option<u64>,
    /// Batches whose publish was a no-op (the schema had not changed).
    pub(crate) publish_skipped: u64,
    /// The schema in the paper's notation, and the revision it was
    /// rendered for (`None`: not rendered yet).
    schema_text: (Option<u64>, String),
    pub(crate) status: SourceStatus,
    /// Unix-millisecond timestamp of the last batch that brought any
    /// line (folded or bad); `None` until the source first produces.
    pub(crate) last_activity_ms: Option<u64>,
    /// Tail-resume info, mirrored from the poller's reader under this
    /// state's mutex right after every fold, so a checkpoint written
    /// from another thread always pairs the folded schema with the
    /// exact byte position it covers.
    pub(crate) tail_offset: u64,
    pub(crate) tail_pending: Vec<u8>,
    pub(crate) tail_pending_overflow: bool,
    /// Bumped on every change worth persisting; the checkpointer skips
    /// sources whose revision it has already written.
    pub(crate) ckpt_rev: u64,
    recorder: Recorder,
    events: EventLog,
    /// The per-source record counter's name, `ingest.records.<name>`.
    records_key: String,
    /// The `typefuse_source_*` series a haul moves, once registered on
    /// the daemon's hub by [`SourceState::export_to`].
    series: Option<Series>,
}

/// The telemetry cells [`SourceState::export`] sets after every haul.
struct Series {
    records: TelemetryCell,
    skipped: TelemetryCell,
    quarantined: TelemetryCell,
    shapes: TelemetryCell,
    version: TelemetryCell,
    shape_hits: TelemetryCell,
    shape_misses: TelemetryCell,
    publish_skipped: TelemetryCell,
    publish_us: TelemetryCell,
}

impl SourceState {
    /// A fresh source folding under `job` (`auto` dedup samples the
    /// leading records as batch does), counting into the job's recorder.
    pub(crate) fn new(name: &str, job: &JobConfig, events: EventLog) -> Self {
        let fold = RecordFold::new(job, profiled(job));
        Self::around(name, fold, job.recorder.clone(), events)
    }

    /// A fresh, active source around `fold`.
    fn around(name: &str, fold: RecordFold, recorder: Recorder, events: EventLog) -> Self {
        SourceState {
            name: name.to_string(),
            fold,
            version: None,
            drift: VecDeque::new(),
            drift_total: 0,
            published: None,
            publish_skipped: 0,
            schema_text: (None, String::new()),
            status: SourceStatus::Active,
            last_activity_ms: None,
            tail_offset: 0,
            tail_pending: Vec::new(),
            tail_pending_overflow: false,
            ckpt_rev: 0,
            recorder,
            events,
            records_key: format!("ingest.records.{name}"),
            series: None,
        }
    }

    /// Register this source's `typefuse_source_*` series on `hub`.
    pub(crate) fn export_to(mut self, hub: &TelemetryHub) -> Self {
        let key = |metric: &str| series_key(metric, &[("source", &self.name)]);
        self.series = Some(Series {
            records: hub.counter(key("typefuse_source_records")),
            skipped: hub.gauge(key("typefuse_source_skipped")),
            quarantined: hub.gauge(key("typefuse_source_quarantined")),
            shapes: hub.gauge(key("typefuse_source_distinct_shapes")),
            version: hub.gauge(key("typefuse_source_version")),
            shape_hits: hub.gauge(key("typefuse_source_shape_hits")),
            shape_misses: hub.gauge(key("typefuse_source_shape_misses")),
            publish_skipped: hub.gauge(key("typefuse_source_publish_skipped")),
            publish_us: hub.approx_gauge(key("typefuse_source_publish_us")),
        });
        self
    }

    /// Bring the registered series up to date at the end of a haul that
    /// absorbed `absorbed` records, after its publish; `folded` is when
    /// its fold ended, so `typefuse_source_publish_us` times the rest.
    pub(crate) fn export(&self, absorbed: u64, folded: Instant) {
        let Some(series) = &self.series else {
            return;
        };
        series.records.add(absorbed);
        series.skipped.set(self.report().skipped());
        series.quarantined.set(self.quarantined());
        series.shapes.set(self.fold.distinct_shapes());
        series.version.set(self.version.unwrap_or(0));
        series.shape_hits.set(self.shape_hits());
        series.shape_misses.set(self.shape_misses());
        series.publish_skipped.set(self.publish_skipped);
        series.publish_us.set(folded.elapsed().as_micros() as u64);
    }

    /// The current fused schema.
    pub(crate) fn schema(&self) -> Type {
        self.fold.schema()
    }

    /// The current fused schema in the paper's notation, rendered once
    /// per schema revision and served from the cache until it moves.
    pub(crate) fn schema_text(&mut self) -> &str {
        let revision = Some(self.fold.schema_revision());
        if revision != self.schema_text.0 {
            self.schema_text = (revision, self.schema().to_string());
        }
        &self.schema_text.1
    }

    /// Records successfully folded so far.
    pub(crate) fn records(&self) -> u64 {
        self.fold.records()
    }

    /// The bad records skipped or quarantined so far.
    pub(crate) fn report(&self) -> &ErrorReport {
        self.fold.report()
    }

    /// Records written to the quarantine sidecar for this source: under
    /// quarantine, every skipped one.
    pub(crate) fn quarantined(&self) -> u64 {
        match self.fold.policy() {
            ErrorPolicy::Quarantine { .. } => self.report().skipped(),
            _ => 0,
        }
    }

    /// A point-in-time profile report (presence, kinds, provenance), or
    /// why this source has none: the shape route folds types off a
    /// signature cache and never reads the values a profile is made of.
    pub(crate) fn profile_report(&self) -> Result<typefuse_infer::ProfileReport, String> {
        self.fold.profile_report().ok_or_else(|| {
            format!(
                "source `{}` keeps no profile: --map-path shape never reads record values",
                self.name
            )
        })
    }

    pub(crate) fn is_active(&self) -> bool {
        matches!(self.status, SourceStatus::Active)
    }

    /// 1-based count of input lines consumed so far (bad lines
    /// included) — the line counter a resumed tail reader continues.
    pub(crate) fn lines(&self) -> u64 {
        self.fold.lines()
    }

    /// Mirror the poller's tail position into the state (see the field
    /// docs) and mark the state dirty if anything moved.
    pub(crate) fn sync_tail(&mut self, offset: u64, pending: &[u8], overflow: bool) {
        if self.tail_offset == offset
            && self.tail_pending == pending
            && self.tail_pending_overflow == overflow
        {
            return;
        }
        self.tail_offset = offset;
        self.tail_pending = pending.to_vec();
        self.tail_pending_overflow = overflow;
        self.ckpt_rev += 1;
    }

    /// Mark the state dirty without a tail position (TCP sources, whose
    /// producers cannot be resumed by offset).
    pub(crate) fn mark_dirty(&mut self) {
        self.ckpt_rev += 1;
    }

    /// Forget the tail position of a file that was rotated out from
    /// under it (`len` is what the path holds now, `read` how far it was
    /// read), so the next open reads the new file from byte 0. The fused
    /// schema is kept: fusion is idempotent, so re-reading a recreated
    /// file only re-confirms it.
    pub(crate) fn rewind(&mut self, len: u64, read: u64) {
        self.recorder.add("serve.rotations", 1);
        self.events.log(
            Level::Warn,
            &self.name,
            "ingest",
            format!(
                "source file replaced or shrunk (length {len}, read {read}): \
                 rotation assumed, re-reading from byte 0"
            ),
        );
        self.sync_tail(0, &[], false);
    }

    /// Serialize everything a restart needs to resume this source
    /// exactly into `buf`, replacing its contents: the fold (schema +
    /// record count, profile, error report, line count), the tail
    /// position, and publish bookkeeping. All `u64`s travel as decimal
    /// strings so values above 2^53 survive the JSON round trip. The
    /// checkpointer hands in the same buffer every tick.
    pub(crate) fn write_checkpoint(&self, buf: &mut String) {
        let mut w = JsonWriter::with_buffer(std::mem::take(buf));
        w.begin_object();
        w.key("v").number(1);
        w.key("name").string(&self.name);
        self.fold.write_checkpoint(&mut w);
        w.key("tail_offset").decimal(self.tail_offset);
        w.key("tail_pending").string(&to_hex(&self.tail_pending));
        w.key("tail_pending_overflow")
            .bool_value(self.tail_pending_overflow);
        if let Some(version) = self.version {
            w.key("version").decimal(version);
        }
        w.key("drift");
        w.begin_array();
        self.drift.iter().for_each(|alert| w.string(alert));
        w.end_array();
        if self.drift_total > self.drift.len() as u64 {
            w.key("drift_total").decimal(self.drift_total);
        }
        w.key("status");
        match &self.status {
            SourceStatus::Active => w.string("active"),
            SourceStatus::Failed(reason) => {
                w.string("failed");
                w.key("status_reason").string(reason);
            }
        }
        if let Some(at) = self.last_activity_ms {
            w.key("last_activity_ms").decimal(at);
        }
        w.end_object();
        *buf = w.finish();
    }

    /// Rebuild a source from a checkpoint payload. Takes the same job as
    /// [`SourceState::new`] — the job, error policy included, is *not*
    /// persisted; a resumed daemon must run the same job configuration
    /// as the one that wrote the checkpoint, or the incremental ≡ batch
    /// law breaks (see [`RecordFold`]'s `restore`). An older payload's
    /// `quarantined` count is not read: the report's skips under
    /// quarantine are that count.
    pub(crate) fn restore(
        name: &str,
        job: &JobConfig,
        events: EventLog,
        payload: &Value,
    ) -> Result<Self, String> {
        use typefuse_json::codec::{opt_u64_from_value, u64_from_value};
        let version_tag = payload
            .get("v")
            .and_then(Value::as_i64)
            .ok_or("missing checkpoint version")?;
        if version_tag != 1 {
            return Err(format!("unsupported checkpoint version {version_tag}"));
        }
        let stored_name = payload
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing name")?;
        if stored_name != name {
            return Err(format!(
                "checkpoint belongs to source `{stored_name}`, not `{name}`"
            ));
        }
        let fold = RecordFold::new(job, profiled(job)).restore(payload)?;
        let tail_offset = u64_from_value(payload.get("tail_offset").ok_or("missing tail_offset")?)?;
        let tail_pending = from_hex(
            payload
                .get("tail_pending")
                .and_then(Value::as_str)
                .ok_or("missing tail_pending")?,
        )?;
        let tail_pending_overflow = payload
            .get("tail_pending_overflow")
            .and_then(Value::as_bool)
            .ok_or("missing tail_pending_overflow")?;
        let version = opt_u64_from_value(payload.get("version"))?;
        // A payload without `drift_total` lists every alert raised; one
        // written before the list was bounded may list more than are kept.
        let listed = payload
            .get("drift")
            .and_then(Value::as_array)
            .ok_or("missing drift")?;
        let drift_total = opt_u64_from_value(payload.get("drift_total"))?
            .unwrap_or(listed.len() as u64)
            .max(listed.len() as u64);
        let drift = listed[listed.len().saturating_sub(DRIFT_ALERTS_KEPT)..]
            .iter()
            .map(|d| {
                d.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string drift alert".to_string())
            })
            .collect::<Result<VecDeque<String>, String>>()?;
        let status = match payload.get("status").and_then(Value::as_str) {
            Some("active") => SourceStatus::Active,
            Some("failed") => SourceStatus::Failed(
                payload
                    .get("status_reason")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown failure")
                    .to_string(),
            ),
            other => return Err(format!("bad status {other:?}")),
        };
        let last_activity_ms = opt_u64_from_value(payload.get("last_activity_ms"))?;
        Ok(SourceState {
            version,
            drift,
            drift_total,
            status,
            last_activity_ms,
            tail_offset,
            tail_pending,
            tail_pending_overflow,
            ..Self::around(name, fold, job.recorder.clone(), events)
        })
    }

    /// Fold one batch of tailed lines. Returns how many records were
    /// absorbed; `false` activity means nothing changed. The line that
    /// fails the policy's verdict (fail-fast, exhausted budget) flips the
    /// source to [`SourceStatus::Failed`] with the verdict's text and
    /// stops folding — a daemon must keep serving its other sources. The
    /// batch's quarantine entries are appended to the sidecar at its end.
    pub(crate) fn fold_batch(&mut self, lines: &[typefuse_json::TailLine]) -> u64 {
        let mut absorbed = 0u64;
        if !lines.is_empty() {
            self.last_activity_ms = Some(unix_ms());
        }
        let skipped = self.report().skipped();
        for line in lines {
            if !self.is_active() {
                break;
            }
            // Anchor errors at the stream line so alerts point at the
            // right append.
            let origin = Origin::Line(self.fold.lines() + 1);
            match self.fold.absorb((origin, &line.content, line.truncated)) {
                Ok(Absorbed::Record(())) => absorbed += 1,
                Ok(Absorbed::Blank) => {}
                Ok(Absorbed::Bad(bad)) => self.events.log(
                    Level::Warn,
                    &self.name,
                    "ingest",
                    format!("bad record at line {}: {}", bad.at, bad.error),
                ),
                Err(verdict) => self.fail(verdict.to_string()),
            }
        }
        // Once per batch, not per record: a one-shot add is a mutex, a
        // `String` and a map probe. Fail-fast skips nothing: its bad line
        // parks the source.
        let skipped = self.report().skipped() - skipped;
        if let Err(e) = self.fold.flush_sidecar() {
            self.fail(format!("cannot quarantine: {e}"));
        } else if skipped > 0 && !self.fold.policy().is_fail_fast() {
            self.recorder.add("ingest.skipped", skipped);
        }
        if absorbed > 0 {
            self.recorder.add("ingest.records", absorbed);
            self.recorder.add(&self.records_key, absorbed);
        }
        absorbed
    }

    /// Signature-cache hits so far (0 off the shape route).
    pub(crate) fn shape_hits(&self) -> u64 {
        self.fold.shape_cache().map_or(0, ShapeCache::hits)
    }

    /// Signature-cache misses so far (0 off the shape route).
    pub(crate) fn shape_misses(&self) -> u64 {
        self.fold.shape_cache().map_or(0, ShapeCache::misses)
    }

    /// Flip the source to [`SourceStatus::Failed`] with an error event.
    pub(crate) fn fail(&mut self, reason: String) {
        self.events
            .log(Level::Error, &self.name, "ingest", reason.clone());
        self.status = SourceStatus::Failed(reason);
    }

    /// Publish the current schema as a new registry snapshot and record
    /// drift. Idempotent: an unchanged schema publishes as the existing
    /// version with no new entry and no alert — and when the fold's
    /// schema revision has not moved since the registry last answered,
    /// without resolving the schema or asking the registry at all. A
    /// compatibility rejection becomes a drift alert (the feed *did*
    /// drift — in a way the gate forbids) but keeps the source folding,
    /// and is retried by the next batch.
    pub(crate) fn publish(&mut self, registry: &mut Registry, compat: CompatMode) {
        let revision = Some(self.fold.schema_revision());
        if revision == self.published {
            self.skip_publish();
            return;
        }
        let schema = self.schema();
        if schema == Type::Bottom {
            return;
        }
        let previous = self.version;
        match registry.publish(&self.name, schema, compat) {
            Ok(outcome) => {
                self.version = Some(outcome.version);
                self.published = revision;
                if outcome.unchanged {
                    self.skip_publish();
                    return;
                }
                self.recorder.add("serve.publishes", 1);
                self.events.log(
                    Level::Info,
                    &self.name,
                    "publish",
                    format!("published version {}", outcome.version),
                );
                if let Some(prev) = previous {
                    if let Ok(changes) = registry.diff(&self.name, prev, outcome.version) {
                        self.record_drift(prev, outcome.version, &changes);
                    }
                }
            }
            Err(e) => {
                self.recorder.add("serve.publish_rejected", 1);
                let alert = format!("publish rejected ({compat:?}): {e}");
                self.events
                    .log(Level::Warn, &self.name, "publish", alert.clone());
                self.alert(alert);
            }
        }
    }

    fn skip_publish(&mut self) {
        self.recorder.add("serve.publish_skipped", 1);
        self.publish_skipped += 1;
    }

    fn record_drift(&mut self, from: u64, to: u64, changes: &[SchemaChange]) {
        self.recorder.add("serve.drift", changes.len() as u64);
        for change in changes {
            let alert = format!("v{from}→v{to}: {change}");
            self.events
                .log(Level::Warn, &self.name, "drift", alert.clone());
            self.alert(alert);
        }
    }

    fn alert(&mut self, alert: String) {
        if self.drift.len() == DRIFT_ALERTS_KEPT {
            self.drift.pop_front();
        }
        self.drift.push_back(alert);
        self.drift_total += 1;
    }
}

/// Hex-encode arbitrary bytes (the carried partial line may be invalid
/// UTF-8, so it cannot ride in a JSON string as-is).
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

pub(crate) fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    (0..text.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(text.get(i..i + 2).ok_or("non-ascii hex")?, 16)
                .map_err(|e| format!("bad hex byte at {i}: {e}"))
        })
        .collect()
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse::pipeline::DedupMode;
    use typefuse_json::{Map, TailLine};

    /// The checkpoint `s` writes, parsed.
    fn payload(s: &SourceState) -> Value {
        let mut text = String::new();
        s.write_checkpoint(&mut text);
        typefuse_json::parse_value(&text).unwrap()
    }

    fn lines(texts: &[&str]) -> Vec<TailLine> {
        texts
            .iter()
            .map(|t| TailLine {
                content: t.as_bytes().to_vec(),
                truncated: false,
            })
            .collect()
    }

    fn state(dedup: bool, policy: ErrorPolicy) -> SourceState {
        state_on(dedup, MapPath::Events, policy)
    }

    fn job(dedup: bool, map_path: MapPath, policy: ErrorPolicy) -> JobConfig {
        let dedup = if dedup { DedupMode::On } else { DedupMode::Off };
        let job = JobConfig::new().map_path(map_path).dedup(dedup);
        job.on_error(policy).recorder(Recorder::enabled())
    }

    fn restore(
        name: &str,
        (dedup, map_path, policy): (bool, MapPath, ErrorPolicy),
        payload: &Value,
    ) -> Result<SourceState, String> {
        let events = EventLog::new(64, Level::Debug);
        SourceState::restore(name, &job(dedup, map_path, policy), events, payload)
    }

    fn state_on(dedup: bool, map_path: MapPath, policy: ErrorPolicy) -> SourceState {
        let events = EventLog::new(64, Level::Debug);
        SourceState::new("s", &job(dedup, map_path, policy), events)
    }

    #[test]
    fn incremental_fold_matches_batch_schema() {
        let texts = [r#"{"a": 1}"#, r#"{"a": "x", "b": true}"#, r#"{"b": false}"#];
        for dedup in [false, true] {
            let mut s = state(dedup, ErrorPolicy::FailFast);
            // Two batches, like two polls of a growing file.
            assert_eq!(s.fold_batch(&lines(&texts[..1])), 1);
            assert_eq!(s.fold_batch(&lines(&texts[1..])), 2);
            let batch = typefuse::JobConfig::new()
                .build()
                .run_ndjson(texts.join("\n").as_bytes())
                .unwrap();
            assert_eq!(s.schema(), batch.schema, "dedup={dedup}");
            assert_eq!(s.records(), 3);
        }
    }

    #[test]
    fn shape_route_fold_matches_batch_schema_and_keeps_the_cache_warm() {
        let texts = [
            r#"{"a": 1}"#,
            r#"{"a": 2}"#,
            r#"{"a": "x", "b": true}"#,
            r#"{"a": 3}"#,
        ];
        for dedup in [false, true] {
            let mut s = state_on(dedup, MapPath::Shape, ErrorPolicy::FailFast);
            assert_eq!(s.fold_batch(&lines(&texts[..2])), 2);
            assert_eq!(s.fold_batch(&lines(&texts[2..])), 2);
            let batch = typefuse::JobConfig::new()
                .build()
                .run_ndjson(texts.join("\n").as_bytes())
                .unwrap();
            assert_eq!(s.schema(), batch.schema, "dedup={dedup}");
            assert_eq!(s.records(), 4);
            // {"a":1}, {"a":2} and {"a":3} share one signature; the
            // cache stayed warm across the two polls.
            assert_eq!((s.shape_hits(), s.shape_misses()), (2, 2));
        }
    }

    #[test]
    fn shape_route_applies_the_error_policy_per_record() {
        let mut s = state_on(
            false,
            MapPath::Shape,
            ErrorPolicy::Skip {
                max_errors: Some(10),
            },
        );
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "not json", r#"{"a": 2}"#]));
        assert!(s.is_active());
        assert_eq!(s.records(), 2);
        assert_eq!(s.report().skipped(), 1);
        assert_eq!(s.shape_hits(), 1, "bad record never pollutes the cache");
    }

    #[test]
    fn fail_fast_marks_the_source_failed_but_keeps_prior_schema() {
        let mut s = state(false, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "not json", r#"{"b": 2}"#]));
        assert!(matches!(s.status, SourceStatus::Failed(_)));
        assert_eq!(
            s.schema().to_string(),
            "{a: Num}",
            "folding stopped at the bad line"
        );
    }

    #[test]
    fn skip_policy_drops_bad_records_and_enforces_the_budget() {
        let mut s = state(
            false,
            ErrorPolicy::Skip {
                max_errors: Some(1),
            },
        );
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "bad", r#"{"a": 2}"#]));
        assert!(s.is_active());
        assert_eq!(s.records(), 2);
        assert_eq!(s.report().skipped(), 1);
        s.fold_batch(&lines(&["worse"]));
        assert!(
            matches!(s.status, SourceStatus::Failed(_)),
            "budget of 1 exhausted"
        );
    }

    #[test]
    fn quarantine_appends_across_batches() {
        let dir = std::env::temp_dir().join("typefuse-serve-fold-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sink = dir.join("quarantine.ndjson");
        let _ = std::fs::remove_file(&sink);
        let mut s = state(false, ErrorPolicy::quarantine(&sink));
        s.fold_batch(&lines(&["bad one"]));
        s.fold_batch(&lines(&["bad two"]));
        let replayed = typefuse::faults::read_quarantine(&sink).unwrap();
        assert_eq!(replayed.len(), 2, "second batch appended, not replaced");
    }

    #[test]
    fn publish_assigns_versions_and_reports_drift() {
        let mut registry = Registry::in_memory();
        let mut s = state(false, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"id": 1}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(1));
        assert!(s.drift.is_empty());
        // Same schema again: no new version, no drift.
        s.fold_batch(&lines(&[r#"{"id": 2}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(1));
        assert!(s.drift.is_empty());
        // A new field drifts the schema to v2.
        s.fold_batch(&lines(&[r#"{"id": 3, "tag": "x"}"#]));
        s.publish(&mut registry, CompatMode::None);
        assert_eq!(s.version, Some(2));
        assert!(!s.drift.is_empty());
        assert!(s.drift[0].contains("v1→v2"), "{:?}", s.drift);
    }

    #[test]
    fn folding_emits_structured_events() {
        let mut registry = Registry::in_memory();
        let mut s = state(
            false,
            ErrorPolicy::Skip {
                max_errors: Some(10),
            },
        );
        s.fold_batch(&lines(&[r#"{"id": 1}"#, "not json"]));
        assert!(s.last_activity_ms.is_some(), "batch stamps activity");
        s.publish(&mut registry, CompatMode::None);
        s.fold_batch(&lines(&[r#"{"id": 2, "tag": "x"}"#]));
        s.publish(&mut registry, CompatMode::None);
        let events = s.events.recent(16);
        assert!(
            events
                .iter()
                .any(|e| e.level == Level::Warn && e.span == "ingest"),
            "bad record warns: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.level == Level::Info && e.span == "publish"),
            "publish informs: {events:?}"
        );
        assert!(
            events.iter().any(|e| e.level == Level::Warn
                && e.span == "drift"
                && e.message.contains("v1→v2")),
            "drift warns: {events:?}"
        );
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_for_every_cut() {
        let texts = [
            r#"{"a": 1}"#,
            "not json",
            r#"{"a": "x", "b": [1, null]}"#,
            r#"{"b": {"c": 1.5}}"#,
            r#"{"a": 2}"#,
        ];
        let policy = || ErrorPolicy::Skip {
            max_errors: Some(10),
        };
        for dedup in [false, true] {
            for map_path in [MapPath::Events, MapPath::Shape] {
                let mut full = state_on(dedup, map_path, policy());
                full.fold_batch(&lines(&texts));
                for cut in 0..=texts.len() {
                    let mut head = state_on(dedup, map_path, policy());
                    head.fold_batch(&lines(&texts[..cut]));
                    head.sync_tail(17, b"{\"part", false);
                    let mut resumed =
                        restore("s", (dedup, map_path, policy()), &payload(&head)).unwrap();
                    assert_eq!(resumed.tail_offset, 17);
                    assert_eq!(resumed.tail_pending, b"{\"part");
                    assert_eq!(resumed.lines(), head.lines());
                    resumed.fold_batch(&lines(&texts[cut..]));
                    let ctx = format!("dedup={dedup} map_path={map_path:?} cut={cut}");
                    assert_eq!(
                        resumed.schema().to_string(),
                        full.schema().to_string(),
                        "schema ({ctx})"
                    );
                    assert_eq!(resumed.records(), full.records(), "records ({ctx})");
                    assert_eq!(
                        resumed.report().checkpoint(),
                        full.report().checkpoint(),
                        "report ({ctx})"
                    );
                    assert_eq!(
                        resumed.profile_report().map(|p| p.to_json()),
                        full.profile_report().map(|p| p.to_json()),
                        "profile ({ctx})"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoint_restore_rejects_foreign_and_malformed_payloads() {
        let mut s = state(false, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"a": 1}"#]));
        let written = payload(&s);
        let restore = |name: &str, payload: &Value| {
            restore(
                name,
                (false, MapPath::Events, ErrorPolicy::FailFast),
                payload,
            )
        };
        match restore("other", &written) {
            Err(message) => assert!(message.contains("belongs to source"), "{message}"),
            Ok(_) => panic!("foreign checkpoint accepted"),
        }
        assert!(restore("s", &Value::Object(Map::new())).is_err());
        assert!(restore("s", &written).is_ok());
    }

    #[test]
    fn hex_round_trips_arbitrary_bytes() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn failed_status_survives_the_checkpoint_round_trip() {
        let mut s = state(false, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"a": 1}"#, "boom"]));
        assert!(matches!(s.status, SourceStatus::Failed(_)));
        let resumed = restore(
            "s",
            (false, MapPath::Events, ErrorPolicy::FailFast),
            &payload(&s),
        )
        .unwrap();
        assert_eq!(resumed.status, s.status, "a parked source stays parked");
        assert_eq!(resumed.schema().to_string(), "{a: Num}");
    }

    #[test]
    fn an_unmoved_revision_skips_the_publish_and_serves_the_cached_text() {
        // Both routes keep a revision.
        for dedup in [true, false] {
            let mut registry = Registry::in_memory();
            let mut s = state(dedup, ErrorPolicy::FailFast);
            s.fold_batch(&lines(&[r#"{"id": 1}"#]));
            s.publish(&mut registry, CompatMode::None);
            assert_eq!((s.version, s.publish_skipped), (Some(1), 0));
            let rendered = s.schema_text().as_ptr();

            // Same shape again: the revision stays, so the registry is not
            // asked (a fresh one would have `s` published into it) and the
            // text is the one already rendered.
            s.fold_batch(&lines(&[r#"{"id": 2}"#]));
            let mut elsewhere = Registry::in_memory();
            s.publish(&mut elsewhere, CompatMode::None);
            assert!(elsewhere.names().is_empty(), "dedup={dedup}: asked");
            assert_eq!((s.version, s.publish_skipped), (Some(1), 1));
            assert_eq!(s.recorder.counter_value("serve.publishes"), 1);
            assert_eq!(s.recorder.counter_value("serve.publish_skipped"), 1);
            assert_eq!(s.schema_text().as_ptr(), rendered, "dedup={dedup}");
            assert_eq!(s.schema_text(), "{id: Num}");

            s.fold_batch(&lines(&[r#"{"id": 3, "tag": "x"}"#]));
            s.publish(&mut registry, CompatMode::None);
            assert_eq!((s.version, s.publish_skipped), (Some(2), 1));
            assert_eq!(s.schema_text(), "{id: Num, tag: Str?}");
        }
    }

    #[test]
    fn drift_alerts_are_a_ring_with_a_total() {
        let mut registry = Registry::in_memory();
        let mut s = state(true, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"k0": 1}"#]));
        s.publish(&mut registry, CompatMode::None);
        // One alert per batch: a new optional field each time.
        for k in 1..=(DRIFT_ALERTS_KEPT + 10) {
            s.fold_batch(&lines(&[&format!(r#"{{"k0": 1, "n{k:04}": 1}}"#)]));
            s.publish(&mut registry, CompatMode::None);
        }
        assert_eq!(s.drift.len(), DRIFT_ALERTS_KEPT);
        assert_eq!(s.drift_total, DRIFT_ALERTS_KEPT as u64 + 10);
        assert!(s.drift[0].ends_with("+ $.n0011 (new)"), "{}", s.drift[0]);

        let written = payload(&s);
        assert_eq!(
            written
                .get("drift")
                .and_then(Value::as_array)
                .unwrap()
                .len(),
            DRIFT_ALERTS_KEPT
        );
        let restore = |payload: &Value| {
            restore("s", (true, MapPath::Events, ErrorPolicy::FailFast), payload).unwrap()
        };
        let resumed = restore(&written);
        assert_eq!(
            (&resumed.drift, resumed.drift_total),
            (&s.drift, s.drift_total)
        );

        // A payload from before the list was bounded carries every
        // alert and no total: its tail is kept, its length is the total.
        let Value::Object(mut unbounded) = written else {
            panic!("checkpoint payloads are objects")
        };
        let all: Vec<Value> = (0..1000)
            .map(|i| Value::from(format!("alert {i}")))
            .collect();
        unbounded.insert("drift", Value::Array(all));
        unbounded.remove("drift_total");
        let resumed = restore(&Value::Object(unbounded));
        assert_eq!(resumed.drift_total, 1000);
        assert_eq!(resumed.drift.len(), DRIFT_ALERTS_KEPT);
        assert_eq!(
            resumed.drift[0],
            format!("alert {}", 1000 - DRIFT_ALERTS_KEPT)
        );

        // Below the bound nothing is dropped and no total is written.
        let mut registry = Registry::in_memory();
        let mut few = state(true, ErrorPolicy::FailFast);
        few.fold_batch(&lines(&[r#"{"a": 1}"#]));
        few.publish(&mut registry, CompatMode::None);
        few.fold_batch(&lines(&[r#"{"a": 1, "b": 2}"#]));
        few.publish(&mut registry, CompatMode::None);
        assert!(few.drift_total > 0);
        assert!(payload(&few).get("drift_total").is_none());
    }

    #[test]
    fn compat_rejection_becomes_a_drift_alert_and_folding_continues() {
        let mut registry = Registry::in_memory();
        let mut s = state(false, ErrorPolicy::FailFast);
        s.fold_batch(&lines(&[r#"{"id": 1, "name": "a"}"#]));
        s.publish(&mut registry, CompatMode::Backward);
        assert_eq!(s.version, Some(1));
        // Numbers joining a string field breaks backward compatibility
        // for readers of v1? No — widening admits more. Force a reject
        // by switching the whole record shape through Forward mode:
        // new <: old must fail once a mandatory field appears.
        s.fold_batch(&lines(&[r#"{"id": 2, "name": "b", "extra": true}"#]));
        s.publish(&mut registry, CompatMode::Forward);
        assert_eq!(s.version, Some(1), "rejected publish keeps the old version");
        assert!(s.drift.iter().any(|d| d.contains("publish rejected")));
        assert!(s.is_active());
        // The gate is asked again by every batch, moved revision or not.
        for dedup in [false, true] {
            let mut registry = Registry::in_memory();
            let mut s = state(dedup, ErrorPolicy::FailFast);
            s.fold_batch(&lines(&[r#"{"id": 1}"#]));
            s.publish(&mut registry, CompatMode::Backward);
            for rejections in 1..=2 {
                s.fold_batch(&lines(&[r#"{"id": 2, "extra": true}"#]));
                s.publish(&mut registry, CompatMode::Forward);
                assert_eq!(s.drift_total, rejections, "dedup={dedup}");
            }
        }
    }
}
