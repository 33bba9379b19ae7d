//! # typefuse-bench
//!
//! The experiment harness that regenerates every table of the paper's
//! evaluation (Section 6). The heavy lifting lives here so it can be
//! shared by the `tables` binary and the golden test that pins its
//! numbers (`tests/tables_golden.rs`).
//!
//! Unlike [`typefuse::pipeline::SchemaJob`], the [`run_scale`] runner is
//! *streaming*: records are generated, inferred and fused partition by
//! partition without ever materialising the dataset, so the paper's
//! 1M-record scale fits in a laptop's memory. This mirrors what Spark
//! does — the RDD of values never lives in one place either.
//!
//! Tables 7 and 8 are cluster phenomena; [`sim`] is the deterministic
//! cluster simulator that reproduces them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod sim;
pub mod tables;

pub use runner::{run_scale, PartitionAcc, ScaleConfig, ScaleResult};
pub use tables::{Scale, DEFAULT_SCALES};
