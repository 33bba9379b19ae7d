//! `typefuse watch` — live per-source telemetry tables from a running
//! daemon.
//!
//! Connects to a `typefuse serve` protocol address, subscribes with
//! `{"op":"watch","interval_ms":N}` and renders each streamed
//! `telemetry` envelope as a per-source table (records, records/s, tail
//! lag, skipped/quarantined, distinct shapes, published version, the
//! last batch's fold-to-published time) plus
//! the daemon-level series. `--raw` prints the envelopes verbatim
//! instead, one JSON line per snapshot — the form scripts want.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use typefuse_json::{Envelope, Value};

/// One source's row, assembled from `typefuse_source_*{source="…"}`
/// series.
#[derive(Default)]
struct SourceRow {
    records: u64,
    rate: u64,
    lag: u64,
    offset: u64,
    skipped: u64,
    quarantined: u64,
    shapes: u64,
    shape_hits: u64,
    shape_misses: u64,
    version: u64,
    publish_us: u64,
    breaker: u64,
    restarts: u64,
    ckpt_bytes: Option<u64>,
    ckpt_age_ms: Option<u64>,
}

impl SourceRow {
    /// Shape-cache hit rate as a whole percentage, `"-"` off the shape
    /// route (both counters zero).
    fn hit_rate(&self) -> String {
        let total = self.shape_hits + self.shape_misses;
        match (self.shape_hits * 100).checked_div(total) {
            Some(pct) => format!("{pct}%"),
            None => "-".to_string(),
        }
    }

    /// The supervisor's circuit-breaker state for this source.
    fn breaker_state(&self) -> &'static str {
        match self.breaker {
            0 => "ok",
            1 => "backoff",
            _ => "tripped",
        }
    }

    /// `"-"` until the first checkpoint is written (or when
    /// checkpointing is off).
    fn opt(value: Option<u64>) -> String {
        value.map_or_else(|| "-".to_string(), |v| v.to_string())
    }
}

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let addr = args
        .next_positional()
        .ok_or_else(|| CliError::usage("watch needs a daemon address: typefuse watch ADDR"))?;
    let interval_ms: u64 = args.parsed_option("--interval-ms")?.unwrap_or(1000);
    let count: Option<u64> = args.parsed_option("--count")?;
    let raw = args.flag("--raw");
    args.finish()?;
    if interval_ms == 0 {
        return Err(CliError::usage("--interval-ms must be positive"));
    }

    let stream = TcpStream::connect(&addr)
        .map_err(|e| CliError::runtime(format!("cannot connect to {addr}: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| CliError::runtime(format!("cannot clone connection: {e}")))?;
    writeln!(writer, "{{\"op\":\"watch\",\"interval_ms\":{interval_ms}}}")
        .map_err(|e| CliError::runtime(format!("cannot subscribe: {e}")))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut seen = 0u64;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // daemon stopped
            Ok(_) => {}
            Err(e) => return Err(CliError::runtime(format!("stream read failed: {e}"))),
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if raw {
            println!("{trimmed}");
        } else {
            let envelope = Envelope::expect_kind(trimmed, "telemetry")
                .map_err(|e| CliError::runtime(format!("unexpected response: {e}")))?;
            print!("{}", render_snapshot(&envelope.payload));
        }
        std::io::stdout().flush().ok();
        seen += 1;
        if count.is_some_and(|n| seen >= n) {
            break;
        }
    }
    Ok(())
}

/// Render one telemetry snapshot payload as a header plus a per-source
/// table.
fn render_snapshot(payload: &Value) -> String {
    let mut rows: BTreeMap<String, SourceRow> = BTreeMap::new();
    let mut daemon: BTreeMap<String, u64> = BTreeMap::new();
    for section in ["counters", "gauges", "approx"] {
        let Some(map) = payload.get(section).and_then(Value::as_object) else {
            continue;
        };
        for (key, value) in map.iter() {
            let Some(value) = value.as_i64().filter(|v| *v >= 0).map(|v| v as u64) else {
                continue;
            };
            match split_source_series(key) {
                Some((metric, source)) => {
                    let row = rows.entry(source).or_default();
                    match metric {
                        "typefuse_source_records" => row.records = value,
                        "typefuse_source_records_per_sec" => row.rate = value,
                        "typefuse_source_lag_bytes" => row.lag = value,
                        "typefuse_source_offset_bytes" => row.offset = value,
                        "typefuse_source_skipped" => row.skipped = value,
                        "typefuse_source_quarantined" => row.quarantined = value,
                        "typefuse_source_distinct_shapes" => row.shapes = value,
                        "typefuse_source_shape_hits" => row.shape_hits = value,
                        "typefuse_source_shape_misses" => row.shape_misses = value,
                        "typefuse_source_version" => row.version = value,
                        "typefuse_source_publish_us" => row.publish_us = value,
                        "typefuse_source_breaker" => row.breaker = value,
                        "typefuse_source_restarts" => row.restarts = value,
                        "typefuse_source_checkpoint_bytes" => row.ckpt_bytes = Some(value),
                        "typefuse_source_checkpoint_age_ms" => row.ckpt_age_ms = Some(value),
                        _ => {}
                    }
                }
                None => {
                    daemon.insert(key.to_string(), value);
                }
            }
        }
    }

    let mut out = String::new();
    let version = payload.get("version").and_then(Value::as_i64).unwrap_or(0);
    out.push_str(&format!(
        "snapshot #{version}  uptime {}s  sessions {}  requests {}  restarts {}\n",
        daemon.get("typefuse_uptime_ms").copied().unwrap_or(0) / 1000,
        daemon.get("typefuse_sessions_total").copied().unwrap_or(0),
        daemon.get("typefuse_requests_total").copied().unwrap_or(0),
        daemon
            .get("typefuse_supervisor_restarts_total")
            .copied()
            .unwrap_or(0),
    ));
    out.push_str(&format!(
        "{:<20} {:>10} {:>8} {:>12} {:>8} {:>12} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9} {:>11}\n",
        "SOURCE",
        "RECORDS",
        "REC/S",
        "LAG(B)",
        "SKIPPED",
        "QUARANTINED",
        "SHAPES",
        "HIT%",
        "VERSION",
        "PUB(µs)",
        "BREAKER",
        "RESTARTS",
        "CKPT(B)",
        "CKPT-AGE(MS)"
    ));
    for (source, row) in &rows {
        out.push_str(&format!(
            "{:<20} {:>10} {:>8} {:>12} {:>8} {:>12} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9} {:>11}\n",
            source,
            row.records,
            row.rate,
            row.lag,
            row.skipped,
            row.quarantined,
            row.shapes,
            row.hit_rate(),
            row.version,
            row.publish_us,
            row.breaker_state(),
            row.restarts,
            SourceRow::opt(row.ckpt_bytes),
            SourceRow::opt(row.ckpt_age_ms)
        ));
    }
    out.push('\n');
    out
}

/// Split `metric{source="name"}` into `(metric, name)`; `None` for
/// series without a `source` label. Label values were escaped by
/// `series_key` (`\\`, `\"`, `\n`), undone here.
fn split_source_series(key: &str) -> Option<(&str, String)> {
    let (metric, rest) = key.split_once('{')?;
    let rest = rest.strip_suffix("\"}")?;
    let escaped = rest.strip_prefix("source=\"")?;
    let mut source = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            source.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => source.push('\n'),
            Some(other) => source.push(other),
            None => break,
        }
    }
    Some((metric, source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_source_series_keys() {
        assert_eq!(
            split_source_series("typefuse_source_records{source=\"events\"}"),
            Some(("typefuse_source_records", "events".to_string()))
        );
        assert_eq!(
            split_source_series("a{source=\"q\\\"b\\\\c\\nd\"}"),
            Some(("a", "q\"b\\c\nd".to_string()))
        );
        assert_eq!(split_source_series("typefuse_uptime_ms"), None);
        assert_eq!(split_source_series("m{level=\"warn\"}"), None);
    }

    #[test]
    fn renders_a_table_from_a_snapshot_payload() {
        let payload = typefuse_json::parse_value(
            r#"{"version":3,
                "counters":{"typefuse_source_records{source=\"events\"}":42,
                            "typefuse_requests_total":7},
                "gauges":{"typefuse_source_lag_bytes{source=\"events\"}":128,
                          "typefuse_source_breaker{source=\"events\"}":1,
                          "typefuse_source_checkpoint_bytes{source=\"events\"}":77,
                          "typefuse_source_version{source=\"events\"}":2},
                "approx":{"typefuse_uptime_ms":5500,
                          "typefuse_source_publish_us{source=\"events\"}":913,
                          "typefuse_source_records_per_sec{source=\"events\"}":6}}"#,
        )
        .unwrap();
        let table = render_snapshot(&payload);
        assert!(table.starts_with("snapshot #3  uptime 5s"), "{table}");
        assert!(table.contains("requests 7"), "{table}");
        let row = table.lines().find(|l| l.starts_with("events")).unwrap();
        assert!(row.contains("42"), "{row}");
        assert!(row.contains("128"), "{row}");
        assert!(row.contains('6'), "{row}");
        assert!(row.contains("backoff"), "{row}");
        assert!(row.contains("77"), "{row}");
        assert!(table.contains("PUB(µs)") && row.contains("913"), "{table}");
        // No checkpoint-age series in the payload → placeholder.
        assert!(row.trim_end().ends_with('-'), "{row}");
    }
}
