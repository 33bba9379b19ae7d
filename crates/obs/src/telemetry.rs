//! The [`TelemetryHub`]: live, samplable metrics for resident services.
//!
//! The [`Recorder`](crate::Recorder) is built for *runs*: metrics
//! accumulate while a job executes and are snapshotted once at the end
//! into a [`RunReport`](crate::RunReport). A resident daemon
//! (`typefuse serve`) needs the complementary shape: a set of series
//! that poller and session threads update lock-free while the process
//! keeps running, sampled *on demand* — by a protocol request, a
//! streaming `watch` subscription, or a Prometheus scrape — into a
//! versioned snapshot.
//!
//! The hub keeps three families of series, all `u64` cells behind
//! relaxed atomics:
//!
//! * **counters** — monotonically increasing totals (records folded,
//!   sessions accepted);
//! * **gauges** — last-write-wins instantaneous values derived from the
//!   fold state (tail offset, lag bytes, published version, distinct
//!   shapes);
//! * **approx gauges** — wall-clock-derived values (uptime, sliding
//!   window records/s) kept in their own section so the deterministic
//!   sections stay byte-comparable.
//!
//! Series keys are Prometheus series identities — `name{label="v"}`,
//! built with [`series_key`] — so one key space serves both the JSON
//! snapshot and the text exposition. Sampling is a pure function of the
//! hub's atomic state plus a snapshot sequence number: for a fixed
//! update sequence, [`TelemetrySnapshot::to_json`] is byte-deterministic
//! (the `counters`/`gauges` sections, and the whole document when no
//! approx series were touched).
//!
//! ```
//! use typefuse_obs::telemetry::{series_key, TelemetryHub};
//!
//! let hub = TelemetryHub::new();
//! let folded = hub.counter(series_key(
//!     "typefuse_source_records",
//!     &[("source", "events")],
//! ));
//! folded.add(3);
//! let snap = hub.sample();
//! assert_eq!(snap.version, 1);
//! assert_eq!(
//!     snap.counters["typefuse_source_records{source=\"events\"}"],
//!     3
//! );
//! ```

use crate::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which family a series belongs to (decides its Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Counter,
    Gauge,
    Approx,
}

#[derive(Debug, Default)]
struct HubInner {
    /// Snapshot sequence number; bumped by every [`TelemetryHub::sample`].
    version: AtomicU64,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    approx: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

/// A shared registry of live metric series. Cloning is cheap and shares
/// state; registration takes a short mutex, updates through the
/// returned [`TelemetryCell`] are a single relaxed atomic op.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHub {
    inner: Arc<HubInner>,
}

/// Hot-path handle to one series cell.
#[derive(Debug, Clone)]
pub struct TelemetryCell(Arc<AtomicU64>);

impl TelemetryCell {
    /// Add `n` (counters).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with `v` (gauges).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Render a Prometheus series identity: `name{label="value"}` (or bare
/// `name` without labels). Label values are escaped per the text
/// exposition format 0.0.4 (`\\`, `\"`, `\n`). The caller keeps `name`
/// and label names to `[a-zA-Z_][a-zA-Z0-9_]*`.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (label, value)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(label);
        key.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => key.push_str("\\\\"),
                '"' => key.push_str("\\\""),
                '\n' => key.push_str("\\n"),
                c => key.push(c),
            }
        }
        key.push('"');
    }
    key.push('}');
    key
}

impl TelemetryHub {
    /// An empty hub at snapshot version 0.
    pub fn new() -> Self {
        TelemetryHub::default()
    }

    fn cell(map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>, key: String) -> TelemetryCell {
        TelemetryCell(Arc::clone(
            map.lock()
                .expect("telemetry registry poisoned")
                .entry(key)
                .or_default(),
        ))
    }

    /// Handle to a monotonically increasing counter series, created at
    /// zero. Hoist handles out of hot loops.
    pub fn counter(&self, key: impl Into<String>) -> TelemetryCell {
        Self::cell(&self.inner.counters, key.into())
    }

    /// Handle to a last-write-wins gauge series, created at zero.
    pub fn gauge(&self, key: impl Into<String>) -> TelemetryCell {
        Self::cell(&self.inner.gauges, key.into())
    }

    /// Handle to a wall-clock-derived gauge series (uptime, rates).
    /// Kept in a separate snapshot section so `counters`/`gauges` stay
    /// byte-deterministic for a fixed fold sequence.
    pub fn approx_gauge(&self, key: impl Into<String>) -> TelemetryCell {
        Self::cell(&self.inner.approx, key.into())
    }

    fn read(map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>) -> BTreeMap<String, u64> {
        map.lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Sample every series into a snapshot, bumping the snapshot
    /// sequence number. The first sample of a hub has `version == 1`.
    pub fn sample(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            version: self.inner.version.fetch_add(1, Ordering::Relaxed) + 1,
            counters: Self::read(&self.inner.counters),
            gauges: Self::read(&self.inner.gauges),
            approx: Self::read(&self.inner.approx),
        }
    }
}

/// One point-in-time sample of a [`TelemetryHub`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Snapshot sequence number (1-based, one per [`TelemetryHub::sample`]).
    pub version: u64,
    /// Monotonic counter series, sorted by key.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauge series, sorted by key.
    pub gauges: BTreeMap<String, u64>,
    /// Wall-clock-derived series (uptime, rates), sorted by key.
    pub approx: BTreeMap<String, u64>,
}

impl TelemetrySnapshot {
    /// Byte-deterministic JSON rendering:
    /// `{"version":N,"counters":{…},"gauges":{…},"approx":{…}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("version").number(self.version);
        for (section, map) in [
            ("counters", &self.counters),
            ("gauges", &self.gauges),
            ("approx", &self.approx),
        ] {
            w.key(section);
            w.begin_object();
            for (key, value) in map {
                w.key(key).number(*value);
            }
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// Render as Prometheus text exposition format 0.0.4: one `# TYPE`
    /// line per metric family (the key prefix before `{`), then every
    /// series of that family, families and series in sorted order. The
    /// snapshot sequence number rides along as
    /// `typefuse_telemetry_snapshot_version`.
    pub fn to_prometheus(&self) -> String {
        type FamilySeries<'a> = (Family, Vec<(&'a str, u64)>);
        let mut out = String::new();
        let mut families: BTreeMap<&str, FamilySeries> = BTreeMap::new();
        for (family, map) in [
            (Family::Counter, &self.counters),
            (Family::Gauge, &self.gauges),
            (Family::Approx, &self.approx),
        ] {
            for (key, value) in map {
                let name = key.split('{').next().unwrap_or(key);
                families
                    .entry(name)
                    .or_insert((family, Vec::new()))
                    .1
                    .push((key, *value));
            }
        }
        for (name, (family, series)) in &families {
            let kind = match family {
                Family::Counter => "counter",
                Family::Gauge | Family::Approx => "gauge",
            };
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            for (key, value) in series {
                out.push_str(key);
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out.push_str("# TYPE typefuse_telemetry_snapshot_version gauge\n");
        out.push_str(&format!(
            "typefuse_telemetry_snapshot_version {}\n",
            self.version
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_render_and_escape_labels() {
        assert_eq!(series_key("up", &[]), "up");
        assert_eq!(
            series_key("a_total", &[("source", "events"), ("kind", "file")]),
            "a_total{source=\"events\",kind=\"file\"}"
        );
        assert_eq!(
            series_key("a", &[("s", "q\"b\\c\nd")]),
            "a{s=\"q\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn cells_are_lock_free_handles_into_shared_state() {
        let hub = TelemetryHub::new();
        let c = hub.counter("n_total");
        let same = hub.clone().counter("n_total");
        c.add(2);
        same.add(3);
        hub.gauge("depth").set(7);
        hub.gauge("depth").set(4); // last write wins
        let snap = hub.sample();
        assert_eq!(snap.counters["n_total"], 5);
        assert_eq!(snap.gauges["depth"], 4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn sampling_bumps_the_version() {
        let hub = TelemetryHub::new();
        assert_eq!(hub.sample().version, 1);
        assert_eq!(hub.sample().version, 2);
    }

    #[test]
    fn snapshots_are_byte_deterministic_for_a_fixed_update_sequence() {
        let build = || {
            let hub = TelemetryHub::new();
            for source in ["a", "b"] {
                let key = series_key("typefuse_source_records", &[("source", source)]);
                hub.counter(key).add(5);
                hub.gauge(series_key(
                    "typefuse_source_lag_bytes",
                    &[("source", source)],
                ))
                .set(128);
            }
            hub
        };
        let (one, two) = (build().sample(), build().sample());
        assert_eq!(one.to_json(), two.to_json());
        assert_eq!(one.to_prometheus(), two.to_prometheus());
    }

    #[test]
    fn json_shape_is_stable() {
        let hub = TelemetryHub::new();
        hub.counter("b_total").add(1);
        hub.counter("a_total").add(2);
        hub.approx_gauge("uptime_ms").set(9);
        assert_eq!(
            hub.sample().to_json(),
            r#"{"version":1,"counters":{"a_total":2,"b_total":1},"gauges":{},"approx":{"uptime_ms":9}}"#
        );
    }

    #[test]
    fn prometheus_exposition_golden() {
        let hub = TelemetryHub::new();
        hub.counter(series_key(
            "typefuse_source_records",
            &[("source", "events")],
        ))
        .add(5);
        hub.counter(series_key("typefuse_source_records", &[("source", "feed")]))
            .add(2);
        hub.gauge(series_key(
            "typefuse_source_lag_bytes",
            &[("source", "events")],
        ))
        .set(64);
        hub.approx_gauge("typefuse_uptime_ms").set(1500);
        let expected = "\
# TYPE typefuse_source_lag_bytes gauge
typefuse_source_lag_bytes{source=\"events\"} 64
# TYPE typefuse_source_records counter
typefuse_source_records{source=\"events\"} 5
typefuse_source_records{source=\"feed\"} 2
# TYPE typefuse_uptime_ms gauge
typefuse_uptime_ms 1500
# TYPE typefuse_telemetry_snapshot_version gauge
typefuse_telemetry_snapshot_version 1
";
        assert_eq!(hub.sample().to_prometheus(), expected);
    }
}
