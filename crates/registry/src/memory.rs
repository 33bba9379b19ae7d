//! The resident (in-memory) registry backend.
//!
//! A long-running service that only needs drift detection within its
//! own lifetime — or a test that wants registry semantics without a
//! scratch file — uses [`MemoryRegistry`]: the same index, the same
//! compatibility gates, the same version/dedup semantics as the on-disk
//! [`Registry`](crate::Registry), with nothing persisted.

use crate::store::{
    CompatMode, Entry, Index, PublishOutcome, RegistryError, RegistryStats, RegistryStore,
};
use typefuse_types::diff::SchemaChange;
use typefuse_types::Type;

/// An in-memory [`RegistryStore`]: versions live only as long as the
/// process.
#[derive(Debug, Default)]
pub struct MemoryRegistry {
    index: Index,
}

impl MemoryRegistry {
    /// An empty in-memory registry.
    pub fn new() -> Self {
        MemoryRegistry::default()
    }
}

impl RegistryStore for MemoryRegistry {
    fn subject_names(&self) -> Vec<String> {
        self.index.names().into_iter().map(str::to_string).collect()
    }

    fn entry(&self, name: &str, version: u64) -> Option<Entry> {
        self.index.get(name, version)
    }

    fn entries(&self, name: &str) -> Result<Vec<Entry>, RegistryError> {
        self.index.history(name)
    }

    fn changes(&self, name: &str, from: u64, to: u64) -> Result<Vec<SchemaChange>, RegistryError> {
        self.index.diff(name, from, to)
    }

    fn publish_schema(
        &mut self,
        name: &str,
        schema: Type,
        mode: CompatMode,
    ) -> Result<PublishOutcome, RegistryError> {
        self.index.publish(name, schema, mode, |_, _| Ok(()))
    }

    fn latest_version(&self, name: &str) -> Option<u64> {
        self.index.latest_version(name)
    }

    fn stats(&self) -> RegistryStats {
        self.index.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_types::parse_type;

    fn t(text: &str) -> Type {
        parse_type(text).unwrap()
    }

    #[test]
    fn mirrors_on_disk_semantics() {
        let mut reg = MemoryRegistry::new();
        assert_eq!(
            reg.publish_schema("a", t("{x: Num}"), CompatMode::Backward)
                .unwrap(),
            PublishOutcome {
                version: 1,
                unchanged: false
            }
        );
        // Equivalent republish dedups.
        assert!(
            reg.publish_schema("a", t("{x: Num}"), CompatMode::Backward)
                .unwrap()
                .unchanged
        );
        // Widening passes the backward gate, narrowing does not.
        assert_eq!(
            reg.publish_schema("a", t("{x: Num, y: Str?}"), CompatMode::Backward)
                .unwrap()
                .version,
            2
        );
        assert!(matches!(
            reg.publish_schema("a", t("{x: Num}"), CompatMode::Backward),
            Err(RegistryError::Incompatible {
                against_version: 2,
                ..
            })
        ));
        assert_eq!(reg.latest_version("a"), Some(2));
        assert_eq!(reg.entries("a").unwrap().len(), 2);
        assert_eq!(reg.changes("a", 1, 2).unwrap().len(), 1);
        assert_eq!(reg.entry("a", 1).unwrap().schema, t("{x: Num}"));
        assert!(reg.entry("a", 9).is_none());
        assert!(matches!(
            reg.entries("zzz"),
            Err(RegistryError::NotFound { .. })
        ));
    }
}
