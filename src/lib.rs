//! # typefuse
//!
//! A Rust reproduction of *Schema Inference for Massive JSON Datasets*
//! (Baazizi, Ben Lahmar, Colazzo, Ghelli, Sartiani — EDBT 2017).
//!
//! This façade crate re-exports the workspace crates so that downstream
//! users can depend on a single crate:
//!
//! * [`json`] — JSON value model, parser, serializer, NDJSON streaming.
//! * [`types`] — the paper's type language (Figure 3): records with
//!   optional fields, positional and starred arrays, kind-unique unions.
//! * [`infer`] — type inference (Figure 4) and type fusion (Figure 6).
//! * [`engine`] — the parallel map/reduce runtime standing in for Spark
//!   (a module of this crate; the rest are re-exported crates).
//! * [`datagen`] — synthetic dataset generators matching the structural
//!   profiles of the paper's four evaluation datasets.
//! * [`obs`] — zero-dependency observability: mergeable counters,
//!   histograms and timed spans, exportable as structured run reports
//!   and Chrome/Perfetto traces (see DESIGN.md § Observability).
//!
//! ## Quickstart
//!
//! ```
//! use typefuse::prelude::*;
//!
//! let records = [
//!     r#"{"a": "x", "b": 1}"#,
//!     r#"{"b": true, "c": "y"}"#,
//! ];
//! let schema = records
//!     .iter()
//!     .map(|line| infer_type(&parse_value(line).unwrap()))
//!     .reduce(|a, b| fuse(&a, &b))
//!     .unwrap();
//! assert_eq!(schema.to_string(), "{a: Str?, b: Bool + Num, c: Str?}");
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod faults;
pub mod fold;
pub mod pipeline;
pub mod splits;

pub use config::JobConfig;
pub use error::{Error, IoSite};
pub use faults::{BadRecord, ErrorPolicy, ErrorReport, RetryPolicy};

pub use typefuse_datagen as datagen;
pub use typefuse_infer as infer;
pub use typefuse_json as json;
pub use typefuse_obs as obs;
pub use typefuse_query as query;
pub use typefuse_registry as registry;
pub use typefuse_types as types;

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use crate::config::JobConfig;
    pub use crate::engine::Runtime;
    pub use crate::error::Error;
    pub use crate::faults::{ErrorPolicy, ErrorReport, RetryPolicy};
    pub use crate::pipeline::{
        DedupMode, MapPath, ProfiledResult, SchemaJob, SchemaResult, Source,
    };
    pub use typefuse_datagen::{DatasetProfile, Profile};
    pub use typefuse_infer::{fuse, infer_type, Acc, Checkpoint, Incremental, ProfileReport};
    pub use typefuse_json::{parse_value, Value};
    pub use typefuse_obs::{Recorder, RunReport};
    pub use typefuse_query::Pipeline;
    pub use typefuse_types::{Type, TypeKind};
}
