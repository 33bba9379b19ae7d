//! # typefuse-json
//!
//! A from-scratch JSON substrate for the typefuse schema-inference system.
//!
//! The EDBT 2017 paper parses its input collections with the Json4s Scala
//! library before running type inference. This crate plays that role: it
//! provides
//!
//! * a [`Value`] tree that mirrors the paper's data model (Figure 2):
//!   basic values (`null`, booleans, numbers, strings), records (sets of
//!   key/value pairs with unique keys) and arrays (ordered lists),
//! * a byte-level, span-carrying recursive-descent [parser](parse) for
//!   RFC 8259 JSON,
//! * a compact and a pretty [serializer](ser), and
//! * a bounded [NDJSON](ndjson) (newline-delimited JSON) line reader, the
//!   on-disk layout used for all the paper's datasets.
//!
//! The parser is deliberately strict: duplicate keys within one object are
//! rejected, because the paper's data model (Section 4) only admits
//! *well-formed* records. A lenient mode keeping the last binding is
//! available through [`parse::ParserOptions`].
//!
//! ```
//! use typefuse_json::{parse_value, Value};
//!
//! let v = parse_value(r#"{"name": "edbt", "year": 2017, "tags": ["json", "schema"]}"#).unwrap();
//! assert_eq!(v.get("year"), Some(&Value::from(2017)));
//! assert_eq!(v.to_string(), r#"{"name":"edbt","year":2017,"tags":["json","schema"]}"#);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod envelope;
pub mod error;
pub mod events;
pub mod ndjson;
pub mod number;
pub mod parse;
pub mod scan;
pub mod ser;
pub mod tail;
#[cfg(any(feature = "testkit", test))]
pub mod testkit;
pub mod value;

pub use envelope::{parse_envelope, Envelope};
pub use error::{Error, ErrorKind, Position, Result, Span};
pub use ndjson::RetryPolicy;
pub use number::Number;
pub use parse::{parse_value, Parser, ParserOptions};
pub use scan::{scan, ScanIndex};
pub use ser::{to_string, to_string_pretty};
pub use tail::{TailLine, TailReader, TailStatus};
pub use value::{Map, Value};
