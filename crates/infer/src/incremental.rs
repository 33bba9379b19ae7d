//! Incremental schema maintenance (Section 7).
//!
//! "Another benefit of our approach is its ability to perform type
//! inference in an incremental fashion. This is possible because the core
//! of our technique, fusion, is incremental by essence."
//!
//! [`Incremental`] keeps a running fused schema. Appending a record is
//! `schema ⊔ infer(record)`; merging two independently maintained schemas
//! (e.g. one per partition of an updated dataset) is a single `Fuse` —
//! exactly the maintenance story the paper gives for partitioned data.

use crate::fuse::FuseConfig;
use crate::fuse_inplace::fuse_into;
use crate::infer::infer_type;
use typefuse_json::Value;
use typefuse_types::Type;

/// A running fused schema over a stream of JSON values.
///
/// ```
/// use typefuse_infer::Incremental;
/// use typefuse_json::parse_value;
///
/// let mut inc = Incremental::new();
/// inc.absorb(&parse_value(r#"{"a": 1}"#).unwrap());
/// inc.absorb(&parse_value(r#"{"a": "x", "b": true}"#).unwrap());
/// assert_eq!(inc.schema().to_string(), "{a: Num + Str, b: Bool?}");
/// assert_eq!(inc.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Incremental {
    schema: Type,
    count: u64,
    config: FuseConfig,
}

impl Default for Incremental {
    fn default() -> Self {
        Self::new()
    }
}

impl Incremental {
    /// An empty accumulator: the schema starts at `ε`, the identity of
    /// `Fuse`.
    pub fn new() -> Self {
        Self::with_config(FuseConfig::default())
    }

    /// An empty accumulator with an explicit fusion configuration.
    pub fn with_config(config: FuseConfig) -> Self {
        Incremental {
            schema: Type::Bottom,
            count: 0,
            config,
        }
    }

    /// Resume from a previously computed schema (e.g. loaded from disk)
    /// and record count, fusing further records under `config`.
    ///
    /// The config is part of the construction, not per-`absorb`: a warm
    /// accumulator resumed by a long-running service must keep honoring
    /// the same fusion options the original batch run used, or the
    /// incremental ≡ batch law breaks.
    pub fn resume(schema: Type, count: u64, config: FuseConfig) -> Self {
        Incremental {
            schema,
            count,
            config,
        }
    }

    /// The fusion configuration this accumulator absorbs under.
    pub fn config(&self) -> FuseConfig {
        self.config
    }

    /// Absorb one JSON value: infer its type and fuse it in.
    pub fn absorb(&mut self, value: &Value) {
        self.absorb_type(infer_type(value));
    }

    /// Absorb an already inferred type. Uses in-place fusion, so nothing
    /// of the running schema is copied.
    pub fn absorb_type(&mut self, ty: Type) {
        self.absorb_type_ref(&ty);
    }

    /// [`absorb_type`](Self::absorb_type) by reference, for callers that
    /// keep the type (fusion only ever reads it). Returns whether the
    /// schema changed, exactly.
    pub fn absorb_type_ref(&mut self, ty: &Type) -> bool {
        self.count += 1;
        fuse_into(self.config, &mut self.schema, ty)
    }

    /// Merge another accumulator (e.g. from a different partition), in
    /// place. Thanks to associativity and commutativity of fusion, the
    /// result is the same as if all values had been absorbed by one
    /// accumulator, in any order. Returns whether the schema changed.
    pub fn merge(&mut self, other: &Incremental) -> bool {
        self.count += other.count;
        fuse_into(self.config, &mut self.schema, &other.schema)
    }

    /// The current fused schema. `ε` if nothing has been absorbed.
    pub fn schema(&self) -> &Type {
        &self.schema
    }

    /// Number of values absorbed (across merges).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Consume the accumulator, returning the schema.
    pub fn into_schema(self) -> Type {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn empty_accumulator_is_bottom() {
        let inc = Incremental::new();
        assert_eq!(inc.schema(), &Type::Bottom);
        assert_eq!(inc.count(), 0);
    }

    #[test]
    fn absorb_matches_batch_fusion() {
        let values = [
            json!({"a": 1}),
            json!({"a": null, "b": [1, "x"]}),
            json!({"b": []}),
        ];
        let mut inc = Incremental::new();
        for v in &values {
            inc.absorb(v);
        }
        let batch = crate::fuse_all(&values.iter().map(crate::infer_type).collect::<Vec<_>>());
        assert_eq!(inc.schema(), &batch);
        assert_eq!(inc.count(), 3);
    }

    #[test]
    fn merge_equals_single_stream() {
        let left = [json!({"a": 1}), json!({"b": "x"})];
        let right = [json!({"a": true}), json!({"c": null})];

        let mut part1 = Incremental::new();
        left.iter().for_each(|v| part1.absorb(v));
        let mut part2 = Incremental::new();
        right.iter().for_each(|v| part2.absorb(v));

        let mut merged = part1.clone();
        merged.merge(&part2);

        let mut sequential = Incremental::new();
        left.iter().chain(&right).for_each(|v| sequential.absorb(v));

        assert_eq!(merged.schema(), sequential.schema());
        assert_eq!(merged.count(), 4);

        // Commutativity: merge in the other direction too.
        let mut merged_rev = part2.clone();
        merged_rev.merge(&part1);
        assert_eq!(merged_rev.schema(), sequential.schema());
    }

    #[test]
    fn resume_continues_from_snapshot() {
        let mut inc = Incremental::new();
        inc.absorb(&json!({"a": 1}));
        let snapshot = inc.schema().clone();

        let mut resumed = Incremental::resume(snapshot, inc.count(), inc.config());
        resumed.absorb(&json!({"a": "x"}));
        assert_eq!(resumed.schema().to_string(), "{a: Num + Str}");
        assert_eq!(resumed.count(), 2);
    }

    #[test]
    fn resume_keeps_the_given_config() {
        let config = FuseConfig::default();
        let resumed = Incremental::resume(Type::Bottom, 0, config);
        assert_eq!(resumed.config(), config);
    }

    #[test]
    fn update_only_changed_partition() {
        // The paper's maintenance scenario: re-infer only the updated
        // partition, then fuse with the stale schemas of the others.
        let stable = [json!({"id": 1, "tag": "x"}), json!({"id": 2, "tag": "y"})];
        let updated_old = [json!({"id": 3})];
        let updated_new = [json!({"id": 3}), json!({"id": 4, "extra": true})];

        let mut stable_acc = Incremental::new();
        stable.iter().for_each(|v| stable_acc.absorb(v));

        let mut full = Incremental::new();
        stable
            .iter()
            .chain(&updated_new)
            .for_each(|v| full.absorb(v));

        // Incremental path: reuse stable_acc, re-infer only the updated part.
        let mut updated_acc = Incremental::new();
        updated_new.iter().for_each(|v| updated_acc.absorb(v));
        let mut maintained = stable_acc.clone();
        maintained.merge(&updated_acc);

        assert_eq!(maintained.schema(), full.schema());
        // The old content of the updated partition never mattered.
        let _ = updated_old;
    }
}
