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
//! meant to change.

use std::path::PathBuf;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{FuseConfig, ProfileAcc};

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
        let mut acc = ProfileAcc::new();
        for (i, record) in profile.generate(11, 300).enumerate() {
            acc.absorb_line(i as u64 + 1, &record.to_string());
        }
        let checkpoint = acc.checkpoint_value().to_string();
        check(&format!("{}-300.ckpt.json", profile.name()), &checkpoint);
        // The checkpoint restores the state that wrote it.
        let restored = ProfileAcc::from_checkpoint_value(
            &typefuse_json::parse_value(&checkpoint).unwrap(),
            FuseConfig::default(),
        )
        .unwrap();
        assert!(restored == acc, "{}: restore is exact", profile.name());
        assert_eq!(restored.checkpoint_value().to_string(), checkpoint);
        let report = acc.finish().to_json();
        check(&format!("{}-300.profile.json", profile.name()), &report);
    }
}
