//! # typefuse-engine
//!
//! The execution substrate standing in for Apache Spark.
//!
//! The paper (Section 5.2) needs exactly two things from Spark:
//!
//! 1. **A parallel map + associative reduce** over a partitioned
//!    collection. [`Runtime`] (a work-stealing-free, queue-fed thread
//!    pool) runs one task per partition with panic isolation, and
//!    [`combine`] merges the per-partition partials in parallel rounds
//!    of pairs, like Spark's `treeReduce`. Associativity of the reduce
//!    operator is what makes every bracketing equivalent, so the
//!    pipeline folds and merges its accumulators directly on these two
//!    (see `typefuse::pipeline`).
//! 2. **A cluster whose data placement governs utilisation** — Section 6.2
//!    observes that with all HDFS blocks on one node, only two of six
//!    nodes did any work, and that explicit partitioning restores
//!    locality. Real hardware like that is not available here, so the
//!    [`sim`] module provides a deterministic discrete-event cluster
//!    simulator (nodes × cores, block placement, locality-aware
//!    scheduling, network cost) that reproduces that behaviour for the
//!    Table 7 / Table 8 experiments.
//!
//! Every parallel stage reports [`metrics`] (per-task wall time and
//! queue wait) so the bench harness can print per-partition rows like
//! the paper's Table 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod reduce;
pub mod runtime;
pub mod sim;

pub use metrics::{StageMetrics, TaskMetrics};
pub use reduce::combine;
pub use runtime::{Runtime, WorkerPanic};
