//! The traced run's span recorder: spans are opened from the harness,
//! around calls into each layer's public functions, kept in memory and
//! written as Chrome-trace JSON when the run ends.

use std::time::{Duration, Instant};
use typefuse::obs::JsonWriter;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Single-threaded span recorder; every span of one tracer belongs to
/// one workload, which is the identifier the spans share.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the span that is
    /// open now. Returns `f`'s result and the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        let span = &mut self.spans[index];
        span.start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        (out, end.duration_since(start))
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += self_ns,
                None => totals.push((span.name.clone(), self_ns)),
            }
        }
        totals
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its parent, self time and workload
    /// in `args`.
    pub fn chrome_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("traceEvents");
        w.begin_array();
        for (i, span) in self.spans.iter().enumerate() {
            w.begin_object();
            w.key("name");
            w.string(&span.name);
            w.key("ph");
            w.string("X");
            w.key("pid");
            w.number(1);
            w.key("tid");
            w.number(1);
            w.key("ts");
            w.float(span.start_ns as f64 / 1e3);
            w.key("dur");
            w.float((span.end_ns - span.start_ns) as f64 / 1e3);
            w.key("args");
            w.begin_object();
            w.key("workload");
            w.string(&self.workload);
            w.key("id");
            w.number(i as u64);
            w.key("parent");
            match span.parent {
                Some(p) => w.number(p as u64),
                None => w.raw("null"),
            }
            w.key("self_us");
            w.float(selfs[i] as f64 / 1e3);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),
            span("z", 190, 230, Some(0)),
        ];
        // Covered: 110..170 and 190..200.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let by_name = t.self_time_by_name();
        assert_eq!(by_name.len(), 2);
        let total: u64 = by_name.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
        assert!(t.chrome_json().contains("\"traceEvents\""));
    }
}
