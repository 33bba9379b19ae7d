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

use crate::acc::Acc;
use crate::fuse::FuseConfig;
use crate::fuse_inplace::fuse_into;
use crate::infer::infer_type;
use typefuse_json::Value;
use typefuse_types::Type;

/// A running fused schema over a stream of JSON values: an [`Acc`] whose
/// item is a value (inferred, then fused in place).
///
/// ```
/// use typefuse_infer::{Acc, Incremental};
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

    /// An empty accumulator that fuses under `config`.
    pub fn with_config(config: FuseConfig) -> Self {
        Incremental {
            schema: Type::Bottom,
            count: 0,
            config,
        }
    }

    /// Absorb an already inferred type. Uses in-place fusion, so nothing
    /// of the running schema is copied.
    pub fn absorb_type(&mut self, ty: Type) {
        self.count += 1;
        fuse_into(self.config, &mut self.schema, &ty);
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

impl Acc for Incremental {
    type Item<'a> = &'a Value;
    type Outcome = ();

    fn absorb(&mut self, value: &Value) {
        self.absorb_type(infer_type(value));
    }

    /// Thanks to associativity and commutativity of fusion, the result is
    /// the same as if all values had been absorbed by one accumulator, in
    /// any order — the paper's maintenance story for partitioned data.
    fn merge(&mut self, other: &Incremental) {
        self.count += other.count;
        fuse_into(self.config, &mut self.schema, &other.schema);
    }
}
