//! The [`Fuser`] trait: one interface for every Reduce-phase strategy.
//!
//! The crate has several concrete entry points for the same algebraic
//! operation — [`fuse`](crate::fuse) / [`fuse_with`](crate::fuse_with)
//! (by-reference binary fusion), [`fuse_into`] (in-place accumulator
//! fusion), the shape-dedup [`DedupFuser`](crate::DedupFuser) and the
//! per-path [`Profiling`](crate::Profiling) strategy. This trait captures
//! their common shape (identity, absorb, merge, extract) so the engine's
//! reduce is written once against it (see `typefuse_engine`'s
//! `reduce_fused` / `reduce_items`) and strategies compose with any
//! topology.
//!
//! All implementations must satisfy the paper's laws: `merge` is
//! associative and commutative (Theorems 5.4/5.5) with [`empty`] as
//! identity, which is exactly what licenses partition-order-independent
//! reduction.
//!
//! [`empty`]: Fuser::empty

use crate::fuse::FuseConfig;
use crate::fuse_inplace::fuse_into;
use crate::obs::union_width;
use typefuse_obs::Recorder;
use typefuse_types::Type;

/// A Reduce-phase strategy: how per-record types fold into a
/// partition-local accumulator and how accumulators combine.
pub trait Fuser: Sync {
    /// Partition-local accumulator.
    type Acc: Send;

    /// The identity accumulator (the paper's `ε`).
    fn empty(&self) -> Self::Acc;

    /// Fold one inferred type into the accumulator.
    fn absorb_type(&self, acc: &mut Self::Acc, ty: &Type);

    /// Merge another accumulator in (associative and commutative).
    fn merge(&self, acc: &mut Self::Acc, other: &Self::Acc);

    /// Whether the accumulator is still the identity — such partials
    /// can be dropped before combining (empty dataset partitions).
    fn is_empty_acc(&self, acc: &Self::Acc) -> bool;

    /// Extract the fused schema.
    fn finish_schema(&self, acc: Self::Acc) -> Type;
}

/// The canonical strategy: Figure 6 fusion under a [`FuseConfig`], with
/// a bare [`Type`] accumulator. `absorb_type` and `merge` are both
/// [`fuse_into`](crate::fuse_into): the accumulator is widened where it
/// stands, and only what the other side adds is cloned.
impl Fuser for FuseConfig {
    type Acc = Type;

    fn empty(&self) -> Type {
        Type::Bottom
    }

    fn absorb_type(&self, acc: &mut Type, ty: &Type) {
        fuse_into(*self, acc, ty);
    }

    fn merge(&self, acc: &mut Type, other: &Type) {
        fuse_into(*self, acc, other);
    }

    fn is_empty_acc(&self, acc: &Type) -> bool {
        matches!(acc, Type::Bottom)
    }

    fn finish_schema(&self, acc: Type) -> Type {
        acc
    }
}

/// [`FuseConfig`]'s strategy plus the pipeline's fusion metrics:
/// `fuse.calls` and the `fuse.union_width` histogram, as emitted by
/// [`fuse_with_recorded`](crate::fuse_with_recorded), and `fuse.widened`,
/// the calls that changed their accumulator (a run whose `fuse.widened`
/// stopped far short of `fuse.calls` saw its schema settle early).
/// Absorbing into the identity accumulator is a move, not a fusion, and
/// is not counted — matching the engine's historical "fold from the
/// first element" semantics.
#[derive(Debug, Clone)]
pub struct RecordedFuser {
    cfg: FuseConfig,
    rec: Recorder,
}

impl RecordedFuser {
    /// A recorded fuser sharing `rec` with the rest of the run.
    pub fn new(cfg: FuseConfig, rec: Recorder) -> Self {
        RecordedFuser { cfg, rec }
    }

    fn fuse_counted(&self, acc: &mut Type, other: &Type) {
        let widened = fuse_into(self.cfg, acc, other);
        if self.rec.is_enabled() {
            self.rec.add("fuse.calls", 1);
            self.rec.add("fuse.widened", u64::from(widened));
            self.rec.record("fuse.union_width", union_width(acc));
        }
    }
}

impl Fuser for RecordedFuser {
    type Acc = Type;

    fn empty(&self) -> Type {
        Type::Bottom
    }

    fn absorb_type(&self, acc: &mut Type, ty: &Type) {
        if matches!(acc, Type::Bottom) {
            *acc = ty.clone();
            return;
        }
        self.fuse_counted(acc, ty);
    }

    fn merge(&self, acc: &mut Type, other: &Type) {
        self.fuse_counted(acc, other);
    }

    fn is_empty_acc(&self, acc: &Type) -> bool {
        matches!(acc, Type::Bottom)
    }

    fn finish_schema(&self, acc: Type) -> Type {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse_all;
    use crate::infer::infer_type;
    use typefuse_json::json;

    fn types() -> Vec<Type> {
        [
            json!({"a": 1, "b": "x"}),
            json!({"a": null}),
            json!({"a": 1, "c": [true]}),
        ]
        .iter()
        .map(infer_type)
        .collect()
    }

    #[test]
    fn config_fuser_matches_fuse_all() {
        let cfg = FuseConfig::default();
        let mut acc = Fuser::empty(&cfg);
        for t in &types() {
            cfg.absorb_type(&mut acc, t);
        }
        assert_eq!(cfg.finish_schema(acc), fuse_all(&types()));
    }

    #[test]
    fn merge_of_split_streams_matches_one_stream() {
        let cfg = FuseConfig::default();
        let ts = types();
        let mut left = Fuser::empty(&cfg);
        cfg.absorb_type(&mut left, &ts[0]);
        let mut right = Fuser::empty(&cfg);
        cfg.absorb_type(&mut right, &ts[1]);
        cfg.absorb_type(&mut right, &ts[2]);
        cfg.merge(&mut left, &right);
        assert_eq!(left, fuse_all(&ts));
    }

    #[test]
    fn recorded_fuser_counts_only_real_fusions() {
        let rec = Recorder::enabled();
        let fuser = RecordedFuser::new(FuseConfig::default(), rec.clone());
        let mut acc = fuser.empty();
        for t in &types() {
            fuser.absorb_type(&mut acc, t);
        }
        // First absorb is a move into ε, then two fusions, both of
        // which widen; absorbing an admitted type again is a call only.
        assert_eq!(rec.counter_value("fuse.calls"), 2);
        assert_eq!(rec.counter_value("fuse.widened"), 2);
        fuser.absorb_type(&mut acc, &types()[1]);
        assert_eq!(rec.counter_value("fuse.calls"), 3);
        assert_eq!(rec.counter_value("fuse.widened"), 2);
        assert_eq!(fuser.finish_schema(acc), fuse_all(&types()));
    }

    #[test]
    fn empty_accumulators_are_detected() {
        let cfg = FuseConfig::default();
        let acc = Fuser::empty(&cfg);
        assert!(cfg.is_empty_acc(&acc));
        let mut acc = acc;
        cfg.absorb_type(&mut acc, &Type::Num);
        assert!(!cfg.is_empty_acc(&acc));
    }

    #[test]
    fn counting_strategy_through_the_trait() {
        // The profiling strategy, whose presence counts `infer
        // --counting` prints: path statistics need the record, so
        // partials absorb values and combine through the trait.
        let profiling = crate::Profiling::default();
        let mut acc = profiling.empty();
        acc.absorb_value_at(1, &json!({"a": 1}));
        acc.absorb_value_at(2, &json!({"a": "x", "b": null}));
        assert!(!profiling.is_empty_acc(&acc));
        let mut other = profiling.empty();
        other.absorb_value_at(3, &json!({"a": true}));
        profiling.merge(&mut acc, &other);
        assert_eq!(acc.records(), 3);
        let profile = acc.finish();
        assert_eq!(profile.get("$.a").unwrap().count, 3);
        assert_eq!(
            profile.schema.to_string(),
            "{a: Bool + Num + Str, b: Null?}"
        );
    }
}
