//! Recorded variants of the inference and fusion entry points.
//!
//! [`infer_type`] and [`fuse`](crate::fuse) are pure
//! functions — the paper's correctness results (Theorem 5.5 in
//! particular) are stated for them as algebra, and the property-test
//! suites exercise them as such. Instrumentation therefore lives in
//! wrappers rather than in the algorithms: the pipeline calls these
//! `*_recorded` functions, everything else (and every law test) keeps
//! calling the pure ones.
//!
//! Metrics emitted (all no-ops with a disabled [`Recorder`]):
//!
//! | name                 | kind      | meaning                                   |
//! |----------------------|-----------|-------------------------------------------|
//! | `infer.types`        | counter   | values mapped to types (Map phase)        |
//! | `infer.record_width` | histogram | field count of each top-level record type |
//! | `infer.max_depth`    | gauge     | deepest inferred type seen (max-merged)   |
//! | `fuse.calls`         | counter   | binary fusions performed (Reduce phase)   |
//! | `fuse.widened`       | counter   | of those, the ones that changed the schema |
//! | `fuse.union_width`   | histogram | addend count of each fusion result        |

use typefuse_json::Value;
use typefuse_obs::Recorder;
use typefuse_types::Type;

use crate::{fuse_into, infer_type, FuseConfig};

/// Width of a type at its top level: the number of union addends, or 1
/// for any non-union type (`Bottom` counts as 0 — no value inhabits it).
pub(crate) fn union_width(t: &Type) -> u64 {
    match t {
        Type::Bottom => 0,
        Type::Union(u) => u.addends().len() as u64,
        _ => 1,
    }
}

/// [`infer_type`] plus per-record metrics: counts `infer.types`, records
/// the top-level record width in the `infer.record_width` histogram and
/// max-merges the type's depth into the `infer.max_depth` gauge.
pub fn infer_type_recorded(value: &Value, rec: &Recorder) -> Type {
    let ty = infer_type(value);
    if rec.is_enabled() {
        rec.add("infer.types", 1);
        if let Type::Record(r) = &ty {
            rec.record("infer.record_width", r.len() as u64);
        }
        rec.gauge_max("infer.max_depth", ty.depth() as u64);
    }
    ty
}

/// [`fuse_into`] plus per-call metrics: counts `fuse.calls`, counts
/// `fuse.widened` when `acc` changed (a run whose `fuse.widened` stops
/// far short of `fuse.calls` saw its schema settle early) and records
/// the result's top-level union width in the `fuse.union_width`
/// histogram. Absorbing into `ε` is a move, not a fusion, and is not
/// counted.
pub fn fuse_into_recorded(cfg: FuseConfig, acc: &mut Type, other: &Type, rec: &Recorder) {
    if matches!(acc, Type::Bottom) {
        *acc = other.clone();
        return;
    }
    let widened = fuse_into(cfg, acc, other);
    if rec.is_enabled() {
        rec.add("fuse.calls", 1);
        rec.add("fuse.widened", u64::from(widened));
        rec.record("fuse.union_width", union_width(acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn recorded_infer_matches_pure_and_counts() {
        let rec = Recorder::enabled();
        let values = [
            json!({"a": 1, "b": {"c": [1, 2]}}),
            json!({"a": "x"}),
            json!(42),
        ];
        for v in &values {
            assert_eq!(infer_type_recorded(v, &rec), infer_type(v));
        }
        let report = rec.snapshot();
        assert_eq!(report.counters["infer.types"], 3);
        // Two top-level records (widths 2 and 1); the bare number has none.
        let widths = &report.histograms["infer.record_width"];
        assert_eq!(widths.count, 2);
        assert_eq!(widths.sum, 3);
        assert_eq!(
            report.gauges["infer.max_depth"],
            infer_type(&values[0]).depth() as u64
        );
    }

    #[test]
    fn recorded_fuse_matches_pure_and_tracks_union_width() {
        let rec = Recorder::enabled();
        let cfg = FuseConfig::default();
        let types = [json!(1), json!("s"), json!(true), json!(true)].map(|v| infer_type(&v));
        let mut acc = Type::Bottom;
        for t in &types {
            fuse_into_recorded(cfg, &mut acc, t, &rec);
        }
        assert_eq!(acc, crate::fuse_all(&types));
        let report = rec.snapshot();
        // The first absorb is a move into ε; the last one admits its type.
        assert_eq!(report.counters["fuse.calls"], 3);
        assert_eq!(report.counters["fuse.widened"], 2);
        let widths = &report.histograms["fuse.union_width"];
        assert_eq!(widths.count, 3);
        assert_eq!(widths.sum, 2 + 3 + 3, "Num+Str, then Num+Str+Bool twice");
    }

    #[test]
    fn recorded_fuse_counts_only_real_fusions() {
        let rec = Recorder::enabled();
        let cfg = FuseConfig::default();
        let types = [
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
        ]
        .map(|v| infer_type(&v));
        let mut acc = Type::Bottom;
        for t in &types {
            fuse_into_recorded(cfg, &mut acc, t, &rec);
        }
        // First absorb is a move into ε, then two fusions, both of
        // which widen; absorbing an admitted type again is a call only.
        assert_eq!(rec.counter_value("fuse.calls"), 2);
        assert_eq!(rec.counter_value("fuse.widened"), 2);
        fuse_into_recorded(cfg, &mut acc, &types[1], &rec);
        assert_eq!(rec.counter_value("fuse.calls"), 3);
        assert_eq!(rec.counter_value("fuse.widened"), 2);
        assert_eq!(acc, crate::fuse_all(&types));
    }

    #[test]
    fn disabled_recorder_is_free_of_side_effects() {
        let rec = Recorder::disabled();
        let v = json!({"k": null});
        assert_eq!(infer_type_recorded(&v, &rec), infer_type(&v));
        assert!(rec.snapshot().counters.is_empty());
    }

    #[test]
    fn union_width_edge_cases() {
        assert_eq!(union_width(&Type::Bottom), 0);
        assert_eq!(union_width(&Type::Num), 1);
        assert_eq!(
            union_width(&infer_type(&json!([1, "a"]))),
            1,
            "array, not union"
        );
    }
}
