//! Leveled structured event log for resident services.
//!
//! A daemon's metrics say *how much*; its events say *what happened* —
//! a drift alert, a source failing its error budget, a session panic.
//! [`EventLog`] records those as structured JSONL records (sequence
//! number, unix-millisecond timestamp, level, source, span context,
//! message) into a bounded in-memory ring buffer, optionally teeing
//! every record to an append-only sink file. Records below the
//! configured minimum level are dropped at the call site.
//!
//! Cloning an [`EventLog`] shares state, exactly like
//! [`Recorder`](crate::Recorder): the daemon hands clones to source
//! folders and session threads, and they all feed one ring.

use crate::JsonWriter;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Event severity, ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Chatty diagnostics (per-batch folds).
    Debug,
    /// Normal lifecycle (startup, publishes).
    Info,
    /// Something drifted or was dropped but the daemon is fine.
    Warn,
    /// A source or session failed.
    Error,
}

impl Level {
    /// Parse a level name (`debug`, `info`, `warn`, `error`).
    pub fn from_name(name: &str) -> Option<Level> {
        match name {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// The lowercase level name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            Level::Debug => 0,
            Level::Info => 1,
            Level::Warn => 2,
            Level::Error => 3,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, 1-based per log.
    pub seq: u64,
    /// Milliseconds since the unix epoch at record time.
    pub unix_ms: u64,
    /// Severity.
    pub level: Level,
    /// Which component emitted it (a source name, `daemon`, `session`).
    pub source: String,
    /// Span context: what the component was doing (`poll`, `publish`,
    /// `request`).
    pub span: String,
    /// Human-readable detail.
    pub message: String,
}

impl Event {
    /// One JSONL record:
    /// `{"seq":N,"ts_ms":N,"level":L,"source":S,"span":P,"message":M}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("seq").number(self.seq);
        w.key("ts_ms").number(self.unix_ms);
        w.key("level").string(self.level.name());
        w.key("source").string(&self.source);
        w.key("span").string(&self.span);
        w.key("message").string(&self.message);
        w.end_object();
        w.finish()
    }
}

#[derive(Debug)]
struct LogInner {
    seq: AtomicU64,
    min_level: Level,
    capacity: usize,
    ring: Mutex<VecDeque<Event>>,
    /// Accepted events per level (drops by the ring don't decrement —
    /// these count what *happened*, the ring holds what's *retained*).
    counts: [AtomicU64; 4],
    sink: Option<Mutex<std::fs::File>>,
}

/// A bounded, leveled, shareable structured event log.
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<LogInner>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(1024, Level::Info)
    }
}

impl EventLog {
    /// A log retaining the most recent `capacity` events at or above
    /// `min_level`, in memory only.
    pub fn new(capacity: usize, min_level: Level) -> EventLog {
        EventLog {
            inner: Arc::new(LogInner {
                seq: AtomicU64::new(0),
                min_level,
                capacity: capacity.max(1),
                ring: Mutex::new(VecDeque::new()),
                counts: Default::default(),
                sink: None,
            }),
        }
    }

    /// Like [`EventLog::new`], additionally appending every accepted
    /// event as one JSONL line to `path` (created if missing).
    pub fn with_sink(capacity: usize, min_level: Level, path: &Path) -> std::io::Result<EventLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut log = EventLog::new(capacity, min_level);
        Arc::get_mut(&mut log.inner)
            .expect("freshly created log is unshared")
            .sink = Some(Mutex::new(file));
        Ok(log)
    }

    /// The configured minimum level.
    pub fn min_level(&self) -> Level {
        self.inner.min_level
    }

    /// Record one event. Below-min-level events are dropped without a
    /// sequence number; everything else enters the ring (evicting the
    /// oldest record past capacity) and the sink, if any.
    pub fn log(&self, level: Level, source: &str, span: &str, message: impl Into<String>) {
        if level < self.inner.min_level {
            return;
        }
        let event = Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1,
            unix_ms: unix_ms(),
            level,
            source: source.to_string(),
            span: span.to_string(),
            message: message.into(),
        };
        self.inner.counts[level.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.inner.sink {
            let mut line = event.to_json();
            line.push('\n');
            let mut file = sink.lock().expect("event sink poisoned");
            let _ = file.write_all(line.as_bytes());
        }
        let mut ring = self.inner.ring.lock().expect("event ring poisoned");
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// The most recent `n` retained events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let ring = self.inner.ring.lock().expect("event ring poisoned");
        ring.iter()
            .skip(ring.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// How many events of `level` were accepted (including evicted ones).
    pub fn count(&self, level: Level) -> u64 {
        self.inner.counts[level.index()].load(Ordering::Relaxed)
    }

    /// Total accepted events across all levels.
    pub fn total(&self) -> u64 {
        self.inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
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

    #[test]
    fn levels_order_parse_and_render() {
        assert!(Level::Debug < Level::Info && Level::Warn < Level::Error);
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::from_name(level.name()), Some(level));
        }
        assert_eq!(Level::from_name("loud"), None);
        assert_eq!(Level::Warn.to_string(), "warn");
    }

    #[test]
    fn min_level_filters_and_counts_track_levels() {
        let log = EventLog::new(8, Level::Warn);
        log.log(Level::Debug, "s", "x", "dropped");
        log.log(Level::Info, "s", "x", "dropped");
        log.log(Level::Warn, "s", "x", "kept");
        log.log(Level::Error, "s", "x", "kept");
        assert_eq!(log.total(), 2);
        assert_eq!(log.count(Level::Warn), 1);
        assert_eq!(log.count(Level::Error), 1);
        assert_eq!(log.count(Level::Info), 0);
        let events = log.recent(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 1, "dropped events take no sequence number");
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let log = EventLog::new(3, Level::Debug);
        for i in 0..10 {
            log.log(Level::Info, "s", "tick", format!("event {i}"));
        }
        let events = log.recent(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].message, "event 7");
        assert_eq!(events[2].message, "event 9");
        assert_eq!(log.total(), 10, "counts survive eviction");
        assert_eq!(log.recent(1).len(), 1);
    }

    #[test]
    fn clones_share_the_ring() {
        let log = EventLog::new(4, Level::Debug);
        let clone = log.clone();
        clone.log(Level::Info, "a", "x", "one");
        log.log(Level::Info, "b", "y", "two");
        assert_eq!(log.recent(10).len(), 2);
        assert_eq!(clone.recent(10)[1].seq, 2);
    }

    #[test]
    fn event_json_is_structured_jsonl() {
        let event = Event {
            seq: 4,
            unix_ms: 1700000000000,
            level: Level::Warn,
            source: "events".to_string(),
            span: "publish".to_string(),
            message: "v1→v2: added $.tags".to_string(),
        }
        .to_json();
        assert_eq!(
            event,
            "{\"seq\":4,\"ts_ms\":1700000000000,\"level\":\"warn\",\
             \"source\":\"events\",\"span\":\"publish\",\
             \"message\":\"v1→v2: added $.tags\"}"
        );
    }

    #[test]
    fn sink_appends_one_json_line_per_event() {
        let path = std::env::temp_dir().join(format!(
            "typefuse-eventlog-test-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let log = EventLog::with_sink(8, Level::Info, &path).unwrap();
        log.log(Level::Debug, "s", "x", "filtered out of the sink too");
        log.log(Level::Info, "s", "boot", "started");
        log.log(Level::Error, "s", "poll", "read failed");
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"level\":\"info\""), "{}", lines[0]);
        assert!(lines[1].contains("\"span\":\"poll\""), "{}", lines[1]);
        std::fs::remove_file(&path).ok();
    }
}
