//! `typefuse-obs`: zero-dependency tracing and metrics for the typefuse
//! pipeline.
//!
//! The schema-inference pipeline is a map/reduce over partitions whose
//! schemas merge through an associative, commutative `fuse`. This crate
//! applies the same algebraic discipline to observability:
//!
//! * a [`Recorder`] owns named counters, max-gauges, log₂-bucketed
//!   [`histogram`]s and span statistics; per-thread or per-partition
//!   recorders [`Recorder::merge_from`] associatively, so metrics can be
//!   collected exactly like partial schemas and combined at the end;
//! * [`span!`] opens a hierarchical timed span whose guard records
//!   wall-clock duration on drop and emits a Chrome `trace_event`
//!   (viewable in Perfetto via `chrome://tracing` JSON) with per-thread
//!   track ids, so nested spans render as a flame graph;
//! * [`RunReport`] is the structured end-of-run summary — counters,
//!   gauges, histograms, spans, per-stage task timings — serialized to
//!   JSON without any external dependency;
//! * for resident services, [`TelemetryHub`] keeps live counter/gauge
//!   series that poller and session threads bump lock-free, sampled on
//!   demand into versioned byte-deterministic snapshots (JSON or
//!   Prometheus text exposition 0.0.4), and [`EventLog`] is a bounded,
//!   leveled, structured event ring with an optional JSONL sink.
//!
//! A disabled recorder (the default) reduces every operation to a
//! branch on `None`; handles ([`Counter`], [`Gauge`], [`Histogram`])
//! can be hoisted out of hot loops so the per-record cost is a single
//! relaxed atomic add when enabled and nothing measurable when not.
//!
//! Counter names are dynamic strings, so subsystems add their own
//! without touching this crate. The fault-tolerant ingestion layer
//! reports `ingest.skipped` (records dropped by an error policy),
//! `ingest.quarantined` (records written to a quarantine sidecar),
//! `ingest.retries` (transient I/O reads retried) and
//! `ingest.worker_panics` (isolated worker panics), all visible in
//! `--metrics-json` alongside the `json.*` parse counters.
//!
//! ```
//! use typefuse_obs::{span, Recorder};
//!
//! let rec = Recorder::enabled();
//! let records = rec.counter("json.records");
//! {
//!     let _outer = span!(rec, "reduce");
//!     let _inner = span!(rec, "reduce.level", 0);
//!     records.inc(3);
//! }
//! let report = rec.snapshot();
//! assert_eq!(report.counters["json.records"], 3);
//! assert_eq!(report.spans["reduce.level.0"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod eventlog;
pub mod histogram;
pub mod recorder;
pub mod report;
pub mod span;
pub mod telemetry;
pub mod trace;

pub mod json;

pub use envelope::{envelope, ENVELOPE_VERSION};
pub use eventlog::{Event, EventLog, Level};
pub use histogram::{bucket_bounds, bucket_index, Histogram, LogHistogram, BUCKETS};
pub use json::JsonWriter;
pub use recorder::{Counter, Gauge, Recorder};
pub use report::{BucketCount, HistogramReport, RunReport, SpanReport, StageReport, TaskReport};
pub use span::SpanGuard;
pub use telemetry::{series_key, TelemetryCell, TelemetryHub, TelemetrySnapshot};
pub use trace::TraceEvent;

/// Open a timed span on a [`Recorder`].
///
/// The first form names the span directly; additional arguments are
/// appended dot-separated, so `span!(rec, "reduce.level", 2)` opens a
/// span named `reduce.level.2`. Bind the guard (`let _span = …`) — the
/// span closes, and its duration is recorded, when the guard drops.
#[macro_export]
macro_rules! span {
    ($recorder:expr, $name:expr) => {
        $recorder.span($name)
    };
    ($recorder:expr, $name:expr, $($part:expr),+ $(,)?) => {
        $recorder.span({
            let mut __name = ::std::string::String::from($name);
            $(
                __name.push('.');
                __name.push_str(&$part.to_string());
            )+
            __name
        })
    };
}
