//! The metric tables: every metric the harness reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root must list
//! exactly these (a unit test compares the two); README.md defines them.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics with the relative worsening that counts as a
/// regression. `failed_ratio` is not here: it is 0 on a healthy run, and
/// the result line carries `attempted`/`failed` instead. The `schema`
/// request latencies and the tail of the visible latency are per-layer
/// metrics: on this kind of box they do not repeat within any bound a
/// gate could use (README.md, "Noise").
pub const END_TO_END: [(MetricDef, f64); 7] = [
    (lo("setup_s", "s"), 0.25),
    (hi("infer_mb_s", "MB/s"), 0.2),
    (lo("infer_cpu_s_per_gb", "s/GB"), 0.2),
    (lo("infer_peak_rss_mb", "MB"), 0.05),
    (hi("serve_catchup_mb_s", "MB/s"), 0.2),
    (lo("serve_visible_p50_ms", "ms"), 0.25),
    (lo("serve_peak_rss_mb", "MB"), 0.25),
];

/// Per-layer metrics of the traced run; the prefix is the module name.
pub const PER_LAYER: [MetricDef; 57] = [
    hi("io.read_mb_s", "MB/s"),
    hi("json.scan.mb_s", "MB/s"),
    lo("json.ndjson.ns_per_rec", "ns"),
    lo("json.tail.ns_per_rec", "ns"),
    lo("json.events.ns_per_rec", "ns"),
    lo("json.events.events_per_rec", "count"),
    lo("json.parse.ns_per_rec", "ns"),
    lo("json.parse.allocs_per_rec", "count"),
    lo("infer.infer.ns_per_rec", "ns"),
    lo("infer.streaming.ns_per_rec", "ns"),
    lo("infer.streaming.allocs_per_rec", "count"),
    lo("infer.shape.ns_per_rec", "ns"),
    hi("infer.shape.hit_ratio", "ratio"),
    lo("infer.shape.allocs_per_rec", "count"),
    lo("infer.fuse.ns_per_rec", "ns"),
    lo("infer.fuse.allocs_per_rec", "count"),
    lo("infer.dedup.ns_per_rec", "ns"),
    hi("infer.dedup.cache_hit_ratio", "ratio"),
    lo("infer.dedup.distinct_shapes", "count"),
    lo("infer.profile.ns_per_rec", "ns"),
    lo("types.print.ms", "ms"),
    lo("types.print.bytes", "bytes"),
    lo("types.wire.encode_ms", "ms"),
    lo("types.wire.decode_ms", "ms"),
    lo("types.wire.bytes", "bytes"),
    lo("faults.skipped_records", "count"),
    lo("pipeline.wall_ms_w1", "ms"),
    lo("pipeline.wall_ms_w2", "ms"),
    lo("pipeline.read_ms", "ms"),
    lo("pipeline.map_ms", "ms"),
    lo("pipeline.reduce_ms", "ms"),
    hi("pipeline.speedup_w2", "ratio"),
    lo("pipeline.allocs_per_rec", "count"),
    lo("pipeline.alloc_bytes_per_input_byte", "ratio"),
    lo("pipeline.shape_wall_ms_w2", "ms"),
    lo("pipeline.unattributed_ratio", "ratio"),
    lo("splits.wall_ms_w1", "ms"),
    lo("splits.wall_ms_w2", "ms"),
    hi("splits.speedup_w2", "ratio"),
    lo("splits.allocs_per_rec", "count"),
    lo("cli.overhead_ms", "ms"),
    lo("obs.recorder_overhead_ratio", "ratio"),
    hi("serve.catchup_krec_s", "krec/s"),
    hi("serve.catchup_shape_krec_s", "krec/s"),
    hi("serve.catchup_nockpt_krec_s", "krec/s"),
    hi("serve.batch_ratio", "ratio"),
    lo("serve.idle_rtt_ms", "ms"),
    lo("serve.schema_bytes", "bytes"),
    lo("serve.visible_p95_ms", "ms"),
    lo("serve.visible_max_ms", "ms"),
    lo("serve.request_p50_ms", "ms"),
    lo("serve.request_p95_ms", "ms"),
    lo("serve.request_max_ms", "ms"),
    lo("serve.gen_late_p95_ms", "ms"),
    lo("serve.checkpoint_bytes", "bytes"),
    lo("trace.overhead_ratio", "ratio"),
    hi("datagen.mb_s", "MB/s"),
];

fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .map(|(def, _)| def)
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    find(name).map_or("", |def| def.unit)
}

/// `"<unit>, <direction> is better"` of a metric of either table.
pub fn describe(name: &str) -> String {
    find(name).map_or_else(String::new, |def| {
        format!("{}, {} is better", def.unit, def.better.name())
    })
}

/// The regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(def, _)| def.name == name)
        .map(|(_, bound)| *bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse::json::{parse_value, Value};

    fn listed(doc: &Value, table: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(table)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{table}` array"))
            .iter()
            .map(|m| {
                let text = |key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
                let bound = m.get("bound").and_then(Value::as_f64);
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_the_harness_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();

        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|(d, bound)| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    Some(*bound),
                )
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), ours);

        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed(&doc, "per_layer"), ours);

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::corpus::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_i64),
            Some(crate::RUN_SECONDS as i64)
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
