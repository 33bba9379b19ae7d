//! Fault-tolerant ingestion: error policies, the mergeable
//! [`ErrorReport`], the [`BadLines`] a run judges, and quarantine
//! sidecars.
//!
//! The paper's premise is *massive* real-world JSON (Section 6), and at
//! that scale dirty data is the norm. Because the paper's fusion is
//! commutative and associative (Theorem 5.5), skipping or quarantining
//! one record is a purely *local* decision: removing a record from any
//! partition yields exactly the schema of the clean subset, regardless
//! of how the input was partitioned. The [`ErrorPolicy`] on `SchemaJob`
//! exploits this online: each bad line is judged as it arrives
//! ([`BadLines`]' absorb, through the one [`ErrorPolicy::verdict`]), and
//! a run stops reading at the line that fails the verdict.
//!
//! * [`ErrorPolicy::FailFast`] — stop at the earliest bad record
//!   (default; byte-identical to the pre-policy behaviour).
//! * [`ErrorPolicy::Skip`] — drop bad records; with a budget, stop at
//!   the first one beyond it.
//! * [`ErrorPolicy::Quarantine`] — like `Skip`, but every bad line is
//!   written with its position and error to a sidecar NDJSON file for
//!   later repair; [`read_quarantine`] replays the sidecar.
//!
//! What a run keeps of its bad lines is small and mergeable — the
//! [`ErrorReport`] is a count and the earliest bad record — while the
//! quarantined lines themselves go to the sidecar, in input order.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use typefuse_json::{Map, Value};
use typefuse_obs::{JsonWriter, Recorder};

use crate::Error;
use typefuse_infer::{Acc, Checkpoint};
pub use typefuse_json::RetryPolicy;

/// How the ingestion pipeline treats records that fail to parse.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Abort the run at the earliest bad record (in input order).
    #[default]
    FailFast,
    /// Drop bad records and keep going. With `max_errors: Some(k)`, the
    /// bad record after the `k`th stops the run with
    /// [`Error::Budget`].
    Skip {
        /// Maximum tolerated bad records (`None` = unlimited).
        max_errors: Option<u64>,
    },
    /// Like `Skip`, but write each bad record's text, position and
    /// error to a sidecar NDJSON file.
    Quarantine {
        /// Path of the sidecar NDJSON file (overwritten per run).
        sink: PathBuf,
        /// Maximum tolerated bad records (`None` = unlimited).
        max_errors: Option<u64>,
    },
}

impl ErrorPolicy {
    /// `Skip` with an unlimited budget.
    pub fn skip() -> Self {
        ErrorPolicy::Skip { max_errors: None }
    }

    /// `Quarantine` into `sink` with an unlimited budget.
    pub fn quarantine(sink: impl Into<PathBuf>) -> Self {
        ErrorPolicy::Quarantine {
            sink: sink.into(),
            max_errors: None,
        }
    }

    /// Whether this is the fail-fast policy.
    pub fn is_fail_fast(&self) -> bool {
        matches!(self, ErrorPolicy::FailFast)
    }

    /// The configured error budget, if any.
    pub fn max_errors(&self) -> Option<u64> {
        match self {
            ErrorPolicy::FailFast => None,
            ErrorPolicy::Skip { max_errors } => *max_errors,
            ErrorPolicy::Quarantine { max_errors, .. } => *max_errors,
        }
    }

    /// Whether bad-record text must be retained (quarantine writes it
    /// to the sidecar; skip and fail-fast don't need it).
    pub fn keeps_text(&self) -> bool {
        matches!(self, ErrorPolicy::Quarantine { .. })
    }

    /// The one verdict on a report, asked after each bad line and of a
    /// merged report: fail-fast fails on any bad record, a budget on one
    /// more than its limit. It neither writes nor counts.
    pub fn verdict(&self, report: &ErrorReport) -> Result<(), Error> {
        let Some(first) = report.first() else {
            return Ok(());
        };
        match (self, self.max_errors()) {
            (ErrorPolicy::FailFast, _) => Err(Error::Parse(first.error.clone())),
            (_, Some(limit)) if report.skipped() > limit => Err(Error::Budget {
                limit,
                first: Box::new(first.error.clone()),
            }),
            _ => Ok(()),
        }
    }
}

/// One record that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRecord {
    /// Input-order coordinate: the 1-based line number for NDJSON
    /// streams, the absolute byte offset for split file reads. Total
    /// input order is what makes merged reports deterministic.
    pub at: u64,
    /// What went wrong.
    pub error: typefuse_json::Error,
    /// The offending line's text, when the policy keeps it (lossy
    /// UTF-8; capped by the line-size guard).
    pub text: Option<String>,
}

impl BadRecord {
    /// Input order; the error text and the line only break a tie, which
    /// no single input has.
    fn precedes(&self, other: &BadRecord) -> bool {
        let tie =
            || (self.error.to_string(), &self.text).cmp(&(other.error.to_string(), &other.text));
        self.at.cmp(&other.at).then_with(tie).is_lt()
    }
}

/// A mergeable, commutative summary of the records a run skipped: how
/// many, and the earliest.
///
/// `ErrorReport` is an [`Acc`] with [`ErrorReport::default`] as identity:
/// counts add and the earliest record (by input position) wins, so
/// reports are byte-identical across worker counts and partitionings,
/// exactly like the fused schema itself. Absorb and merge are O(1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorReport {
    first: Option<BadRecord>,
    skipped: u64,
}

impl ErrorReport {
    /// An empty report (the monoid identity).
    pub fn new() -> Self {
        ErrorReport::default()
    }

    fn keep_earliest(&mut self, record: &BadRecord) {
        if self
            .first
            .as_ref()
            .is_none_or(|first| record.precedes(first))
        {
            self.first = Some(record.clone());
        }
    }

    /// The earliest bad record, if any.
    pub fn first(&self) -> Option<&BadRecord> {
        self.first.as_ref()
    }

    /// Total number of records skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Whether no record was skipped.
    pub fn is_empty(&self) -> bool {
        self.skipped == 0
    }
}

/// Absorb counts one bad record, keeping it if it is the earliest so
/// far. Merge is commutative: both operand orders and any grouping yield
/// the same report.
impl Acc for ErrorReport {
    type Item<'a> = &'a BadRecord;
    type Outcome = ();

    fn absorb(&mut self, record: &BadRecord) {
        self.skipped += 1;
        self.keep_earliest(record);
    }

    fn merge(&mut self, other: &ErrorReport) {
        self.skipped += other.skipped;
        if let Some(record) = &other.first {
            self.keep_earliest(record);
        }
    }
}

/// The skip tally and the earliest record (in a `records` list of at
/// most one) with its exact error (kind + span, via
/// [`typefuse_json::codec`]).
impl Checkpoint for ErrorReport {
    fn write_checkpoint(&self, w: &mut JsonWriter) {
        w.key("skipped").decimal(self.skipped);
        w.key("records");
        w.begin_array();
        if let Some(bad) = &self.first {
            w.begin_object();
            w.key("at").decimal(bad.at);
            w.key("error");
            typefuse_json::codec::write_error(w, &bad.error);
            if let Some(text) = &bad.text {
                w.key("text").string(text);
            }
            w.end_object();
        }
        w.end_array();
    }

    /// A checkpoint that lists more records (older ones kept up to
    /// 100 000) restores to its earliest.
    fn restore(&self, v: &Value) -> Result<Self, String> {
        use typefuse_json::codec::{error_from_value, u64_from_value};
        fn field<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
            v.get(name).ok_or(format!("report missing `{name}`"))
        }
        let entries = field(v, "records")?
            .as_array()
            .ok_or("report records not an array")?;
        let mut report = ErrorReport {
            first: None,
            skipped: u64_from_value(field(v, "skipped")?)?,
        };
        for entry in entries {
            let at = u64_from_value(field(entry, "at")?)?;
            let error = error_from_value(field(entry, "error")?)?;
            let text = entry.get("text").and_then(Value::as_str).map(String::from);
            report.keep_earliest(&BadRecord { at, error, text });
        }
        Ok(report)
    }
}

/// The bad lines of one fold, judged as they arrive under the fold's
/// [`ErrorPolicy`]: the [`ErrorReport`] the verdict reads and, under
/// quarantine, each line's sidecar entry in input order. A verdict that
/// stops the run stops its `BadLines` too: no more lines, no more merges,
/// and merging a stopped one in stops the result — so merged in input
/// order, the entries are a prefix of an unstopped run's.
#[derive(Debug, Clone, Default)]
pub struct BadLines {
    policy: ErrorPolicy,
    report: ErrorReport,
    sidecar: Vec<u8>,
    stopped: bool,
}

impl BadLines {
    /// No bad lines yet, judged under `policy`.
    pub fn new(policy: ErrorPolicy) -> Self {
        BadLines {
            policy,
            ..BadLines::default()
        }
    }

    /// Whether a verdict stopped the run.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// The policy the lines are judged under.
    pub fn policy(&self) -> &ErrorPolicy {
        &self.policy
    }

    /// The report the verdict reads.
    pub fn report(&self) -> &ErrorReport {
        &self.report
    }

    /// Under quarantine, write the entries judged since the last flush to
    /// the sink — a run creates it, a daemon appends once per poll batch —
    /// and count them as `ingest.quarantined`.
    pub fn flush(&mut self, append: bool, rec: &Recorder) -> std::io::Result<()> {
        let ErrorPolicy::Quarantine { sink, .. } = &self.policy else {
            return Ok(());
        };
        if append && self.sidecar.is_empty() {
            return Ok(());
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(sink)?;
        file.write_all(&self.sidecar)?;
        let entries = self.sidecar.iter().filter(|&&b| b == b'\n').count();
        rec.add("ingest.quarantined", entries as u64);
        self.sidecar.clear();
        Ok(())
    }

    /// End a run on its merged lines: create the sidecar, count
    /// `ingest.skipped` (unless failing fast), return the verdict.
    pub fn settle(&mut self, rec: &Recorder) -> Result<(), Error> {
        self.flush(false, rec)?;
        if !self.policy.is_fail_fast() {
            rec.add("ingest.skipped", self.report.skipped());
        }
        self.policy.verdict(&self.report)
    }
}

/// Absorb judges one bad line: notes it, renders its sidecar entry under
/// quarantine, and returns the verdict — `Err` once the line stops the
/// run. Merge appends the bad lines that follow this fold's: associative,
/// and not commutative (the sidecar keeps input order).
impl Acc for BadLines {
    type Item<'a> = &'a BadRecord;
    type Outcome = Result<(), Error>;

    fn absorb(&mut self, bad: &BadRecord) -> Result<(), Error> {
        self.report.absorb(bad);
        if self.policy.keeps_text() {
            sidecar_line(bad, &mut self.sidecar);
        }
        let verdict = self.policy.verdict(&self.report);
        self.stopped = verdict.is_err();
        verdict
    }

    fn merge(&mut self, other: &BadLines) {
        if !self.stopped {
            self.report.merge(&other.report);
            self.sidecar.extend_from_slice(&other.sidecar);
            self.stopped = other.stopped;
        }
    }
}

/// The report's checkpoint, with the entries not yet flushed as a
/// `sidecar` string when there are any. A restored fold is not stopped:
/// a daemon parks a stopped source by its own status.
impl Checkpoint for BadLines {
    fn write_checkpoint(&self, w: &mut JsonWriter) {
        self.report.write_checkpoint(w);
        if !self.sidecar.is_empty() {
            w.key("sidecar")
                .string(&String::from_utf8_lossy(&self.sidecar));
        }
    }

    fn restore(&self, v: &Value) -> Result<Self, String> {
        let sidecar = match v.get("sidecar") {
            None => Vec::new(),
            Some(text) => text.as_str().ok_or("sidecar is not a string")?.into(),
        };
        Ok(BadLines {
            policy: self.policy.clone(),
            report: self.report.restore(v)?,
            sidecar,
            stopped: false,
        })
    }
}

/// Render one bad record as its sidecar entry — an NDJSON object with
/// `at`, `error` and (when kept) `text` — onto `out`.
fn sidecar_line(bad: &BadRecord, out: &mut Vec<u8>) {
    let mut obj = Map::new();
    obj.insert("at", Value::from(bad.at as i64));
    obj.insert("error", Value::from(bad.error.to_string()));
    if let Some(text) = &bad.text {
        obj.insert("text", Value::from(text.clone()));
    }
    out.extend_from_slice(typefuse_json::to_string(&Value::Object(obj)).as_bytes());
    out.push(b'\n');
}

/// Replay a quarantine sidecar: parse each entry back into its
/// position, error message and (when kept) text — error kinds don't
/// round-trip through text.
pub fn read_quarantine(path: &Path) -> std::io::Result<Vec<(u64, String, Option<String>)>> {
    let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut entries = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v = typefuse_json::parse_value(&line).map_err(|e| invalid(&e.to_string()))?;
        let at = match v.get("at") {
            Some(Value::Number(n)) => n.as_f64() as u64,
            _ => return Err(invalid("quarantine entry missing numeric `at`")),
        };
        let error = v.get("error").and_then(Value::as_str);
        let error = error.ok_or_else(|| invalid("quarantine entry missing `error`"))?;
        let text = v.get("text").and_then(Value::as_str).map(String::from);
        entries.push((at, error.to_string(), text));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::parse_value;

    fn bad(at: u64, input: &str) -> BadRecord {
        BadRecord {
            at,
            error: parse_value(input).unwrap_err(),
            text: Some(input.to_string()),
        }
    }

    fn report(records: &[BadRecord]) -> ErrorReport {
        let mut r = ErrorReport::new();
        records.iter().for_each(|record| r.absorb(record));
        r
    }

    #[test]
    fn duplicate_notes_dedup_but_count() {
        let a = report(&[bad(4, "{x")]);
        let mut b = a.clone();
        b.merge(&a);
        // One record is kept, but both sightings count towards the tally.
        assert_eq!(b.first(), a.first());
        assert_eq!(b.skipped(), 2);
        // At one position the error breaks the tie, whatever the order.
        let (x, y) = (bad(4, "{x"), bad(4, "}"));
        assert_eq!(report(&[x.clone(), y.clone()]), report(&[y, x]));
    }

    #[test]
    fn first_is_the_earliest_position() {
        let r = report(&[bad(100, "{x"), bad(7, "}")]);
        assert_eq!(r.first().unwrap().at, 7);
        assert!(!r.is_empty());
        assert!(ErrorReport::new().is_empty());
    }

    #[test]
    fn an_older_checkpoint_restores_to_its_earliest_record() {
        // Reports once kept up to 100 000 records; the earliest wins.
        let entry = |at, input| {
            let value = parse_value(&report(&[bad(at, input)]).checkpoint()).unwrap();
            value.get("records").and_then(Value::as_array).unwrap()[0].clone()
        };
        let mut old = Map::new();
        old.insert("skipped", Value::from("17"));
        old.insert("records", Value::Array(vec![entry(9, "}"), entry(2, "{x")]));
        let back = ErrorReport::new().restore(&Value::Object(old)).unwrap();
        assert_eq!((back.skipped(), back.first().unwrap().at), (17, 2));
    }

    #[test]
    fn quarantine_round_trip() {
        let dir = std::env::temp_dir().join("typefuse-faults-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine-round-trip.ndjson");
        let rec = Recorder::enabled();
        let mut lines = BadLines::new(ErrorPolicy::quarantine(&path));
        lines.absorb(&bad(3, "{\"a\": nul}")).unwrap();
        lines.absorb(&bad(12, "[1, 2,")).unwrap();
        lines.settle(&rec).unwrap();
        assert_eq!(rec.counter_value("ingest.quarantined"), 2);
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, 3);
        assert_eq!(back[1].0, 12);
        assert_eq!(back[1].2.as_deref(), Some("[1, 2,"));
        assert!(back[0].1.contains("invalid literal"), "{}", back[0].1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn policy_accessors() {
        assert!(ErrorPolicy::default().is_fail_fast());
        assert_eq!(ErrorPolicy::skip().max_errors(), None);
        assert!(!ErrorPolicy::skip().keeps_text());
        let q = ErrorPolicy::Quarantine {
            sink: PathBuf::from("q.ndjson"),
            max_errors: Some(5),
        };
        assert!(q.keeps_text());
        assert_eq!(q.max_errors(), Some(5));
    }
}
