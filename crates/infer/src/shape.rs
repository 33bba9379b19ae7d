//! Raw-shape signature cache: the Map phase as a hash lookup.
//!
//! The dedup PR showed that massive real-world NDJSON collections
//! collapse to a few hundred distinct *types*; this module exploits the
//! stronger fact that they collapse to few distinct *raw shapes* — byte
//! skeletons where only the values differ. [`shape_signature`] hashes a
//! record's structural skeleton straight off the stage-1
//! [`scan`](mod@typefuse_json::scan) index (punctuation and key bytes
//! verbatim, value bytes masked to their kind), and [`ShapeCache`] memoizes
//! signature → inferred [`Type`], backed by the hash-consing
//! [`TypeInterner`]. A hit skips event parsing and inference entirely; a
//! miss types the line the ordinary way ([`streaming::infer_line`]) and
//! inserts.
//!
//! # Signature definition
//!
//! Walking the token stream of the structural index:
//!
//! * structural punctuation (`{ } [ ] : ,`) is hashed verbatim;
//! * a string followed by `:` is an object **key** and is hashed verbatim
//!   (raw bytes, quotes included — `"a"` and `"a"` are distinct
//!   signatures, each cached correctly);
//! * any other string **value** is masked to one kind byte `S`;
//! * a scalar token is masked to `n` (null), `b` (true/false) or `d`
//!   (number) — the paper's type language has a single `Num` type, so
//!   every valid number masks alike.
//!
//! Whitespace never reaches the hash, so reformatted records share a
//! signature; field order, key spelling and value kinds all distinguish.
//!
//! # Cache invariants (why hits are sound)
//!
//! The cache may only be consulted when *equal signature implies equal
//! inferred type and equal parse outcome*. Masking is therefore gated on
//! **local token validity**, checked by the direct typer's own token
//! scanners ([`crate::typer`]) against exactly the parser's
//! grammar: a number must match the strict RFC 8259 number grammar *and*
//! be in range for [`parse_decimal`](typefuse_json::number::parse_decimal)
//! (so `1e999` can never collide with `1`); a string must contain no raw
//! control bytes, only legal escapes (with full surrogate-pair
//! validation) and valid UTF-8; literals must be exactly `null`, `true`
//! or `false`. Any other token — and any record with an unterminated
//! string — is *unsignable*: [`shape_signature`] returns `None`, and the
//! record takes the miss path. Two records with equal signatures thus
//! have identical token sequences up to masked value bytes, which the
//! grammar maps to identical types — and identical *success*: structural
//! errors (mismatched brackets, duplicate keys, depth overflow) depend
//! only on the token sequence, so an erroring record can never share a
//! signature with a cached one. Errors are never cached: the miss path
//! ends in the real event fold, which reports byte-identical errors.
//!
//! Signatures are 64-bit hashes, so distinct shapes can collide at
//! ~2⁻⁶⁴ per pair — the same acceptance the distinct-shape counters
//! already make.

use std::hash::Hasher;

use typefuse_json::scan::{scan_into, tokens, ScanIndex, Token};
use typefuse_json::{ParserOptions, Result};
use typefuse_obs::Recorder;
use typefuse_types::intern::{FxHashMap, FxHasher};
use typefuse_types::{Type, TypeId, TypeInterner};

use crate::streaming;
use crate::typer::{scan_number, scan_string, Typer};

/// Compute the raw-shape signature of one JSON record, or `None` when
/// the record is unsignable (any locally invalid token) and must take
/// the ordinary parse path.
pub fn shape_signature(input: &[u8]) -> Option<u64> {
    let mut index = ScanIndex::default();
    shape_signature_with(input, &mut index)
}

/// [`shape_signature`] against a caller-owned scratch [`ScanIndex`],
/// reusing its offset buffers across records — the allocation-free form
/// used by [`ShapeCache`] on its per-record hot path.
pub fn shape_signature_with(input: &[u8], scratch: &mut ScanIndex) -> Option<u64> {
    scan_into(input, scratch);
    if scratch.unterminated {
        return None;
    }
    let mut h = FxHasher::default();
    // One-token lookbehind: a string is a key only once we see its `:`.
    let mut pending_str: Option<&[u8]> = None;
    let mut any = false;
    for tok in tokens(input, scratch) {
        any = true;
        match tok {
            Token::Punct(b':') => {
                if let Some(s) = pending_str.take() {
                    // Key: raw bytes, quotes included.
                    h.write(s);
                }
                h.write_u8(b':');
            }
            Token::Punct(c) => {
                if pending_str.take().is_some() {
                    h.write_u8(b'S');
                }
                h.write_u8(c);
            }
            Token::Str(s) => {
                if pending_str.take().is_some() {
                    h.write_u8(b'S');
                }
                if !valid_string(s) {
                    return None;
                }
                pending_str = Some(s);
            }
            Token::Scalar(s) => {
                if pending_str.take().is_some() {
                    h.write_u8(b'S');
                }
                h.write_u8(classify_scalar(s)?);
            }
        }
    }
    if pending_str.take().is_some() {
        h.write_u8(b'S');
    }
    if !any {
        // Empty / whitespace-only input: the parser reports EOF; replay.
        return None;
    }
    Some(h.finish())
}

/// Mask a scalar token to its kind byte, or `None` when it is not a
/// valid literal or in-range number.
fn classify_scalar(s: &[u8]) -> Option<u8> {
    match s {
        b"null" => Some(b'n'),
        b"true" | b"false" => Some(b'b'),
        _ if valid_number(s) => Some(b'd'),
        _ => None,
    }
}

/// Exactly the parser's number acceptance over the whole token: the
/// typer's number scanner must take all of it.
fn valid_number(s: &[u8]) -> bool {
    scan_number(s, 0).is_some_and(|(end, _)| end == s.len())
}

/// Exactly the parser's string acceptance over the raw token (quotes
/// included): the typer's string scanner must close on its last quote.
fn valid_string(tok: &[u8]) -> bool {
    debug_assert!(tok.len() >= 2 && tok[0] == b'"' && tok[tok.len() - 1] == b'"');
    scan_string(tok, 1).is_some_and(|string| string.end == tok.len())
}

/// Signature → inferred-type memo for the `MapPath::Shape` route.
///
/// One instance per partition (or per `serve` source): lookups and the
/// hit/miss counters are then deterministic for a fixed partitioning.
/// Interning the cached types through the shared hash-consing
/// [`TypeInterner`] keeps structurally equal types (reached via
/// different signatures) at one allocation.
#[derive(Debug, Default, Clone)]
pub struct ShapeCache {
    interner: TypeInterner,
    map: FxHashMap<u64, (TypeId, Type)>,
    scratch: ScanIndex,
    /// The miss path's scratch.
    typer: Typer,
    /// Holds the fold result of an unsignable-but-successful record so
    /// [`ShapeCache::infer_line_ref`] can hand out a reference for it.
    spill: Option<Type>,
    hits: u64,
    misses: u64,
}

impl ShapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Infer the type of one record through the cache.
    ///
    /// A hit returns the memoized type without touching the parser and
    /// mirrors the events route's `infer.types` / `infer.record_width` /
    /// `infer.max_depth` metrics (but not `infer.events`/`infer.frames`,
    /// which count only replayed folds). A miss — including every
    /// unsignable record — goes through [`streaming::infer_line`] so
    /// results and errors are byte-identical to the events route; only
    /// successful folds of signable records are inserted.
    pub fn infer_line(
        &mut self,
        input: &[u8],
        options: &ParserOptions,
        rec: &Recorder,
    ) -> Result<Type> {
        self.infer_line_ref(input, options, rec).cloned()
    }

    /// [`infer_line`](Self::infer_line) without materializing an owned
    /// type: a hit returns a reference to the cached type directly.
    ///
    /// This is the absorb-by-reference hot path for callers that fold
    /// the result straight into an accumulator schema — the whole point
    /// of a hit is that nothing new needs to be allocated.
    pub fn infer_line_ref(
        &mut self,
        input: &[u8],
        options: &ParserOptions,
        rec: &Recorder,
    ) -> Result<&Type> {
        use std::collections::hash_map::Entry;
        let Some(sig) = shape_signature_with(input, &mut self.scratch) else {
            self.misses += 1;
            let ty = streaming::infer_line(&mut self.typer, input, options, rec)?;
            return Ok(self.spill.insert(ty));
        };
        match self.map.entry(sig) {
            Entry::Occupied(slot) => {
                self.hits += 1;
                let (_, ty) = slot.into_mut();
                if rec.is_enabled() {
                    rec.add("infer.types", 1);
                    if let Type::Record(r) = ty {
                        rec.record("infer.record_width", r.len() as u64);
                    }
                    rec.gauge_max("infer.max_depth", ty.depth() as u64);
                }
                Ok(ty)
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                let ty = streaming::infer_line(&mut self.typer, input, options, rec)?;
                let id = self.interner.intern(&ty);
                let (_, ty) = slot.insert((id, ty));
                Ok(ty)
            }
        }
    }

    /// Records served straight from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Records that replayed the event fold (unsignable or first-seen).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct signatures cached.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Flush the `infer.shape_hits` / `infer.shape_misses` counters to a
    /// recorder and reset them (called once per partition or poll batch).
    pub fn flush_counters(&mut self, rec: &Recorder) {
        if rec.is_enabled() {
            rec.add("infer.shape_hits", self.hits);
            rec.add("infer.shape_misses", self.misses);
        }
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    fn sig(s: &str) -> Option<u64> {
        shape_signature(s.as_bytes())
    }

    #[test]
    fn whitespace_and_value_bytes_do_not_distinguish() {
        let a = sig(r#"{"id": 12345, "name": "alice", "ok": true}"#).unwrap();
        let b = sig(r#"{ "id":9,"name":"b" ,  "ok": false }"#).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn keys_kinds_and_order_do_distinguish() {
        let base = sig(r#"{"a": 1}"#).unwrap();
        assert_ne!(base, sig(r#"{"b": 1}"#).unwrap(), "key bytes");
        assert_ne!(base, sig(r#"{"a": "1"}"#).unwrap(), "value kind");
        assert_ne!(base, sig(r#"{"a": null}"#).unwrap(), "null kind");
        assert_ne!(base, sig(r#"{"a": [1]}"#).unwrap(), "nesting");
        assert_ne!(
            sig(r#"{"a": 1, "b": 2}"#).unwrap(),
            sig(r#"{"b": 2, "a": 1}"#).unwrap(),
            "field order is part of the raw shape"
        );
    }

    #[test]
    fn numbers_mask_alike_only_when_the_parser_accepts_them() {
        let n = sig(r#"{"a": 1}"#).unwrap();
        assert_eq!(n, sig(r#"{"a": -2.75e10}"#).unwrap());
        assert_eq!(n, sig(r#"{"a": 0}"#).unwrap());
        // Leading zeros and out-of-range numbers are parser errors and
        // must not collide with valid numbers.
        assert_eq!(sig(r#"{"a": 01}"#), None);
        assert_eq!(sig(r#"{"a": 1e999}"#), None);
        assert_eq!(sig(r#"{"a": -}"#), None);
        assert_eq!(sig(r#"{"a": tru}"#), None);
    }

    #[test]
    fn string_validation_mirrors_the_parser() {
        assert!(sig(r#"{"a": "x\"y\\zé"}"#).is_some());
        assert!(sig(r#"{"a": "😀"}"#).is_some(), "surrogate pair");
        assert_eq!(sig(r#"{"a": "\q"}"#), None, "bad escape");
        assert_eq!(sig(r#"{"a": "\ud800"}"#), None, "lone high surrogate");
        assert_eq!(sig(r#"{"a": "\ude00"}"#), None, "lone low surrogate");
        assert_eq!(sig("{\"a\": \"x\u{1}y\"}"), None, "raw control byte");
        assert_eq!(sig(r#"{"a": "open"#), None, "unterminated");
    }

    #[test]
    fn escaped_and_raw_key_spellings_are_distinct_but_both_signable() {
        let raw = sig(r#"{"a": 1}"#).unwrap();
        let esc = sig("{\"\\u0061\": 1}").unwrap();
        assert_ne!(raw, esc);
    }

    #[test]
    fn cache_hits_return_the_replayed_fold_result() {
        let mut cache = ShapeCache::new();
        let rec = Recorder::disabled();
        let opts = ParserOptions::default();
        let a = cache
            .infer_line(br#"{"id": 1, "tags": ["x"]}"#, &opts, &rec)
            .unwrap();
        let b = cache
            .infer_line(br#"{"id": 999, "tags": ["yyyy"]}"#, &opts, &rec)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{id: Num, tags: [Str]}");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.distinct(), 1);
    }

    #[test]
    fn errors_are_never_cached_and_stay_byte_identical() {
        let mut cache = ShapeCache::new();
        let rec = Recorder::disabled();
        let opts = ParserOptions::default();
        // Structurally broken record: unsignable, so it replays the fold.
        let bad = br#"{"a": 1,}"#;
        let direct = streaming::infer_with_options(bad, opts.clone()).unwrap_err();
        let via_cache = cache.infer_line(bad, &opts, &rec).unwrap_err();
        assert_eq!(via_cache.to_string(), direct.to_string());
        assert_eq!(cache.distinct(), 0);
        // And a later identical record errors again, identically.
        let again = cache.infer_line(bad, &opts, &rec).unwrap_err();
        assert_eq!(again.to_string(), direct.to_string());
    }

    #[test]
    fn signature_agreement_with_full_inference_on_generated_values() {
        // Same signature ⇒ same inferred type, across a grid of nearby
        // records.
        let values = [
            json!({"a": 1, "b": "x"}),
            json!({"a": 2.5, "b": "yyy"}),
            json!({"a": 1, "b": null}),
            json!({"a": [1, 2], "b": "x"}),
            json!({"a": [1], "b": "x"}),
            json!({"b": "x", "a": 1}),
            json!([{"k": true}, {"k": false}]),
            json!([{"k": true}, {"k": null}]),
        ];
        for v in &values {
            for w in &values {
                let (sv, sw) = (v.to_string(), w.to_string());
                let (gv, gw) = (sig(&sv), sig(&sw));
                if let (Some(gv), Some(gw)) = (gv, gw) {
                    if gv == gw {
                        assert_eq!(
                            streaming::infer_type_from_str(&sv).unwrap(),
                            streaming::infer_type_from_str(&sw).unwrap(),
                            "{sv} vs {sw}"
                        );
                    }
                }
            }
        }
    }
}
