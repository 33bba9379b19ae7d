//! # typefuse-types
//!
//! The JSON type language of *Schema Inference for Massive JSON Datasets*
//! (EDBT 2017), Figure 3:
//!
//! ```text
//! T   ::= BT | RT | AT | SAT | ε | T + T          top-level types
//! BT  ::= Null | Bool | Num | Str                  basic types
//! RT  ::= {l₁: T₁ [?], …, lₙ: Tₙ [?]}              record types (opt. fields)
//! AT  ::= [T₁, …, Tₙ]                              positional array types
//! SAT ::= [T*]                                     simplified array types
//! ```
//!
//! The central invariant is *normality* (Section 5.2): in every union, each
//! [`TypeKind`] occurs **at most once** — so a union has at most six
//! addends, and fusing two normal types always yields a normal type. The
//! [`Type`] constructors in this crate enforce normality, record-key
//! uniqueness and sortedness, union flatness and minimality (no nested, no
//! unary, no `ε` addends), so that every reachable `Type` value is normal
//! by construction.
//!
//! The crate also provides the paper's companion notions:
//!
//! * [`Type::size`] — the AST-node count used by Tables 2–5,
//! * [`Type::admits`] — the semantics `V ∈ ⟦T⟧` (Section 4),
//! * [`subtype::is_subtype`] — a sound syntactic subtype check backing
//!   Definition 4.1 / Theorem 5.2,
//! * a [printer](mod@print) and [parser](notation) for the paper's schema
//!   notation,
//! * a [hash-consing interner](intern) that deduplicates structurally
//!   equal types into integer [`TypeId`]s — the substrate
//!   of the shape-dedup reduce, and
//! * a [JSON Schema exporter](export) for ecosystem interop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admits;
pub mod diff;
pub mod export;
pub mod intern;
pub mod kind;
pub mod notation;
pub mod paths;
pub mod print;
pub mod subtype;
#[cfg(any(feature = "testkit", test))]
pub mod testkit;
mod ty;
pub mod wire;

pub use intern::{NameId, TypeId, TypeInterner};
pub use kind::TypeKind;
pub use notation::parse_type;
pub use subtype::is_subtype;
pub use ty::{ArrayType, Field, Name, RecordBuilder, RecordType, Type, TypeError, Union};
