//! Golden outputs of the profiler: the finished report's JSON and the
//! checkpoint serialization for 300 records of each datagen profile
//! (seed 11), reproduced byte for byte.
//!
//! The fixtures were written by this test at the commit *before* the
//! profiler moved from a path-string index to the path trie
//! (`TYPEFUSE_BLESS=1 cargo test -p typefuse-infer --test
//! profile_golden`), so they pin the observable result — path order,
//! provenance lines, the `children` index, histogram encodings — to what
//! the old observation path produced. Re-bless only when the *format* is
//! meant to change — as the checkpoints did once, when the profile began
//! to leave the schema and the record count to the fold beside it and
//! lost exactly those two fields.

use std::path::PathBuf;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{Incremental, ProfileAcc};
use typefuse_json::ParserOptions;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("TYPEFUSE_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read fixture");
    // Not assert_eq!: a mismatch would print megabytes.
    assert!(
        expected == actual,
        "{name} differs from the golden file (first difference at byte {})",
        expected
            .bytes()
            .zip(actual.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(expected.len().min(actual.len()))
    );
}

#[test]
fn report_and_checkpoint_match_the_golden_files() {
    for profile in Profile::ALL {
        // The profile observes; the schema beside it is fused apart.
        let (mut acc, mut schema) = (ProfileAcc::new(), Incremental::new());
        for (i, record) in profile.generate(11, 300).enumerate() {
            let text = record.to_string();
            let ty = acc.observe_line(i as u64 + 1, text.as_bytes(), &ParserOptions::default());
            schema.absorb_type(ty.unwrap());
        }
        let checkpoint = acc.checkpoint_value().to_string();
        check(&format!("{}-300.ckpt.json", profile.name()), &checkpoint);
        // The checkpoint restores the state that wrote it.
        let restored =
            ProfileAcc::from_checkpoint_value(&typefuse_json::parse_value(&checkpoint).unwrap())
                .unwrap();
        assert!(restored == acc, "{}: restore is exact", profile.name());
        assert_eq!(restored.checkpoint_value().to_string(), checkpoint);
        let report = acc.finish(schema.into_schema()).to_json();
        check(&format!("{}-300.profile.json", profile.name()), &report);
    }
}
