//! Chrome `trace_event` export.
//!
//! The output is the JSON object format Perfetto and `chrome://tracing`
//! accept: `{"traceEvents": [...]}` where each event is a "complete"
//! event (`"ph": "X"`) with microsecond timestamp and duration. All
//! events share `pid` 1; `tid` is the per-thread track id assigned by
//! [`crate::span`](mod@crate::span).

use crate::json::JsonWriter;

/// One completed span on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dotted span name, e.g. `reduce.level.2`.
    pub name: String,
    /// Start, in microseconds since the recorder's epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Thread track id.
    pub tid: u64,
}

/// Serialize events as a Chrome trace JSON document.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for event in events {
        w.begin_object();
        w.key("name").string(&event.name);
        w.key("cat").string("typefuse");
        w.key("ph").string("X");
        w.key("ts").number(event.ts_us);
        w.key("dur").number(event.dur_us);
        w.key("pid").number(1);
        w.key("tid").number(event.tid);
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit").string("ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(
            to_chrome_json(&[]),
            r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
        );
    }

    #[test]
    fn events_carry_all_required_fields() {
        let json = to_chrome_json(&[TraceEvent {
            name: "map \"quoted\"".to_string(),
            ts_us: 10,
            dur_us: 5,
            tid: 3,
        }]);
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"map \\\"quoted\\\"\",\"cat\":\"typefuse\",\
             \"ph\":\"X\",\"ts\":10,\"dur\":5,\"pid\":1,\"tid\":3}],\
             \"displayTimeUnit\":\"ms\"}"
        );
    }
}
