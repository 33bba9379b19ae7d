//! # typefuse-registry
//!
//! A versioned, compatibility-gated store for inferred schemas.
//!
//! The paper's related work (Section 3, Wang et al. \[22\]) studies
//! "efficiently managing a schema repository for JSON document stores";
//! this crate is the operational piece a production deployment of
//! typefuse needs around that idea: producers publish the schema they
//! infer from each batch, the registry assigns versions, and a
//! [`CompatMode`] gate rejects publishes that would break consumers —
//! using the same sound subtyping that backs Theorem 5.2.
//!
//! * **Backward** compatible: the new schema admits everything the old
//!   one did (`old <: new`) — readers written against the new schema can
//!   still process archived data.
//! * **Forward** compatible: `new <: old` — readers written against the
//!   old schema keep working on new data.
//! * **Full**: both. **None**: no gate.
//!
//! Storage is a human-auditable append-only NDJSON log: one entry per
//! version, schemas in the paper's notation. No timestamps or machine
//! identifiers — the log is deterministic and diff-friendly.
//!
//! ```
//! use typefuse_registry::{CompatMode, Registry};
//! use typefuse_types::parse_type;
//!
//! let dir = std::env::temp_dir().join("typefuse-registry-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("doc.registry.ndjson");
//! let _ = std::fs::remove_file(&path);
//!
//! let mut reg = Registry::open(&path).unwrap();
//! let v1 = parse_type("{id: Num, name: Str}").unwrap();
//! let v2 = parse_type("{id: Num, name: Str, tags: [Str*]?}").unwrap();
//!
//! assert_eq!(reg.publish("events", v1, CompatMode::Backward).unwrap().version, 1);
//! // Adding an optional field is backward compatible:
//! assert_eq!(reg.publish("events", v2, CompatMode::Backward).unwrap().version, 2);
//! // Dropping a field is not:
//! let narrowed = parse_type("{id: Num}").unwrap();
//! assert!(reg.publish("events", narrowed, CompatMode::Backward).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memory;
mod store;

pub use memory::MemoryRegistry;
pub use store::{
    CompatMode, Entry, PublishOutcome, Registry, RegistryError, RegistryStats, RegistryStore,
};
