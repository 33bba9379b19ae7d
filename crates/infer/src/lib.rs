//! # typefuse-infer
//!
//! The two algorithmic phases of *Schema Inference for Massive JSON
//! Datasets* (EDBT 2017):
//!
//! 1. **Type inference** ([`infer_type`], Figure 4): map each JSON value to
//!    the type isomorphic to it. This is the Map phase.
//! 2. **Type fusion** ([`fuse`], Figure 6): a commutative, associative
//!    binary operator that merges two normal types into a succinct common
//!    super-type. This is the Reduce phase; associativity (Theorem 5.5) is
//!    what allows the engine to split the reduce across threads, nodes and
//!    partitions in any order.
//!
//! The module also provides:
//!
//! * [`collapse`] — the array-simplification of Section 2 / Figure 6
//!   lines 8–9, exposed separately for the ablation study;
//! * [`FuseConfig`] — the paper's collapse strategy plus a
//!   positional-when-aligned variant used by the precision/succinctness
//!   ablation bench;
//! * [`Incremental`] — the incremental schema maintenance sketched in
//!   Section 7 ("fusion is incremental by essence");
//! * [`SchemaAcc`] — the one schema accumulator record folds feed:
//!   plain or shape-dedup fusion behind one absorb/merge interface;
//! * [`profile`] — the statistics enrichment named as future work in
//!   Section 7: per-path presence counts, kind histograms,
//!   length/numeric statistics and provenance lines (which input line
//!   introduced each union branch, which one demoted a field to
//!   optional), mergeable with the same monoid laws as fusion;
//! * [`dedup`] — the shape-dedup Reduce: hash-consed interning plus
//!   weighted, memoized fusion, which the idempotence/commutativity/
//!   associativity theorems (5.3–5.5) license to fuse each *distinct*
//!   shape once instead of every value.
//!
//! Every accumulator here — [`Incremental`], [`SchemaAcc`], [`DedupAcc`],
//! [`ProfileAcc`], and a bare [`Type`](typefuse_types::Type) under
//! [`fuse_into`] — is a commutative monoid: an identity, an absorb step
//! and an associative, commutative `merge`. Drivers fold and merge them
//! directly; no strategy object stands between an accumulator and the
//! runtime that reduces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acc;
pub mod dedup;
mod fuse;
pub mod fuse_inplace;
pub mod incremental;
pub mod infer;
pub mod maplike;
pub mod obs;
pub mod profile;
pub mod shape;
pub mod streaming;
pub mod typer;

pub use acc::{dedup_auto_sample, AutoSample, DedupMode, SchemaAcc};
pub use dedup::{fuse_ids, DedupAcc, FuseCache};
pub use fuse::{collapse, fuse, fuse_all, fuse_with, kinds_present, ArrayFusion, FuseConfig};
pub use fuse_inplace::fuse_into;
pub use incremental::Incremental;
pub use infer::infer_type;
pub use maplike::{find_map_like, MapLikeConfig, MapLikeSite};
pub use obs::{fuse_into_recorded, infer_type_recorded};
pub use profile::{PathProfile, ProfileAcc, ProfileReport};
pub use shape::{shape_signature, ShapeCache};
pub use typer::{Fact, Observer, Typer};
