//! Property tests for the raw-shape signature cache (`MapPath::Shape`):
//! the SWAR structural scan against its scalar reference, and signature
//! soundness on adversarial escape, unicode, and block-boundary inputs.
//! That the shape route prints what every other route prints, for every
//! driver and policy, is the route matrix's job
//! (`crates/serve/tests/route_matrix.rs`).

use proptest::prelude::*;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_json::scan::{scan, scan_scalar};
use typefuse_json::ParserOptions;
use typefuse_obs::Recorder;

proptest! {
    /// The SWAR scan agrees with the byte-at-a-time reference on
    /// arbitrary bytes — structural positions, quote positions,
    /// newlines, and the unterminated flag.
    #[test]
    fn swar_scan_matches_the_scalar_reference(input in proptest::collection::vec(any::<u8>(), 0..400)) {
        let fast = scan(&input);
        let slow = scan_scalar(&input);
        prop_assert_eq!(fast.structurals, slow.structurals);
        prop_assert_eq!(fast.quotes, slow.quotes);
        prop_assert_eq!(fast.newlines, slow.newlines);
        prop_assert_eq!(fast.unterminated, slow.unterminated);
    }

    /// Backslash runs ending in a quote, slid across every alignment of
    /// the 8-byte word and 64-byte block boundaries. Odd runs escape
    /// the quote (string stays open); even runs leave it meaningful.
    #[test]
    fn escape_runs_survive_any_block_alignment(pad in 0usize..130, run in 0usize..10) {
        let mut input = Vec::new();
        input.push(b'"');
        input.resize(1 + pad, b'x');
        input.resize(1 + pad + run, b'\\');
        input.push(b'"');
        input.extend_from_slice(b" {\"k\": [1, true]}");
        let fast = scan(&input);
        let slow = scan_scalar(&input);
        prop_assert_eq!(&fast.structurals, &slow.structurals);
        prop_assert_eq!(&fast.quotes, &slow.quotes);
        prop_assert_eq!(fast.unterminated, slow.unterminated);
        // Odd-length runs escape the closing quote: the string swallows
        // the rest of the input and never terminates.
        prop_assert_eq!(fast.unterminated, run % 2 == 1);
    }

    /// Signature soundness on adversarial records: equal signatures
    /// must never merge records the parser treats differently, so the
    /// cached fold stays byte-identical to the direct fold — including
    /// on records far longer than one 64-byte scan block, keys with
    /// unicode escapes, and deep nesting.
    #[test]
    fn cache_matches_the_direct_fold_on_generated_records(
        seed in any::<u64>(),
        n in 1usize..40,
        profile_idx in 0usize..4,
        filler in 0usize..300,
    ) {
        let profile = Profile::ALL[profile_idx];
        let mut lines: Vec<String> = profile
            .generate(seed, n)
            .map(|v| typefuse_json::to_string(&v))
            .collect();
        // One record longer than any scan block, with escapes near the
        // tail so the escape carry crosses block boundaries.
        lines.push(format!(
            "{{\"long\": \"{}\\\\\\\"tail\", \"\\u00e9\": [0.5, null, {{}}]}}",
            "x".repeat(filler)
        ));
        let opts = ParserOptions::default();
        let rec = Recorder::disabled();
        let mut cache = typefuse_infer::ShapeCache::new();
        for line in &lines {
            // Twice per line: the second pass exercises the hit path.
            let direct = typefuse_infer::streaming::infer_type_from_str(line).unwrap();
            let cached = cache.infer_line(line.as_bytes(), &opts, &rec).unwrap();
            let hit = cache.infer_line(line.as_bytes(), &opts, &rec).unwrap();
            prop_assert_eq!(&cached, &direct, "miss path diverged on {}", line);
            prop_assert_eq!(&hit, &direct, "hit path diverged on {}", line);
        }
        prop_assert!(cache.hits() >= lines.len() as u64);
    }
}
