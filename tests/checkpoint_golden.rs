//! Golden checkpoint payloads of the record fold: the exact bytes a
//! daemon writes for a fold on either Reduce route, with a profile, and
//! with a skip or a quarantine report (escaped text, a line cut at the
//! size cap, a pending sidecar).
//!
//! The fixtures under `tests/fixtures/checkpoint-*.json` were written
//! (`TYPEFUSE_BLESS=1 cargo test --test checkpoint_golden`) by the code
//! that still built each checkpoint as a `Value` tree and serialized it,
//! so they pin the streamed writers to that layout byte for byte.
//! Re-bless only when the checkpoint *format* is meant to change.

use std::path::PathBuf;
use typefuse::fold::{Origin, RecordFold};
use typefuse::prelude::*;
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::DedupMode;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("TYPEFUSE_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read fixture");
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

/// `lines` folded in order under `job`; a line longer than the job's
/// size cap arrives truncated, the way the line reader delivers it.
fn fold(job: &JobConfig, profile: bool, lines: &[Vec<u8>], cap: usize) -> RecordFold {
    let mut fold = RecordFold::new(job, profile);
    for (i, line) in lines.iter().enumerate() {
        let truncated = line.len() > cap;
        let line = &line[..line.len().min(cap)];
        fold.absorb((Origin::Line(i as u64 + 1), line, truncated))
            .unwrap();
    }
    fold
}

fn generated(profile: Profile, records: usize) -> Vec<Vec<u8>> {
    let records = profile.generate(5, records);
    records.map(|r| r.to_string().into_bytes()).collect()
}

#[test]
fn record_fold_checkpoints_match_the_golden_files() {
    let nytimes = generated(Profile::NYTimes, 80);
    for (mode, name) in [(DedupMode::Off, "off"), (DedupMode::On, "on")] {
        let job = JobConfig::new().dedup(mode);
        let payload = fold(&job, false, &nytimes, usize::MAX).checkpoint();
        check(
            &format!("checkpoint-dedup-{name}.json"),
            &payload.to_string(),
        );
    }
    let twitter = generated(Profile::Twitter, 40);
    let payload = fold(&JobConfig::new(), true, &twitter, usize::MAX).checkpoint();
    check("checkpoint-profile.json", &payload.to_string());

    // Bad lines whose text needs escaping, one that is not UTF-8 and one
    // cut at the size cap, among records.
    let dirty: Vec<Vec<u8>> = vec![
        b"{\"a\": 1, \"b\": \"x\"}".to_vec(),
        b"{\"quote\": \"\\\"\", \"tab\":\t".to_vec(),
        b"{\"a\": 2}".to_vec(),
        b"\x01{\"ctrl\"}".to_vec(),
        b"{\"bytes\": \"\xff\xfe\"}".to_vec(),
        format!("{{\"long\": \"{}\"}}", "y".repeat(80)).into_bytes(),
        b"   {bad".to_vec(),
        b"{\"c\": [1, null], \"a\": \"z\"}".to_vec(),
    ];
    let dir = std::env::temp_dir().join(format!("typefuse-ckpt-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policies = [
        ("skip", ErrorPolicy::skip()),
        ("quarantine", ErrorPolicy::quarantine(dir.join("sidecar"))),
    ];
    for (name, policy) in policies {
        let job = JobConfig::new().on_error(policy).max_line_bytes(64);
        let payload = fold(&job, false, &dirty, 64).checkpoint();
        check(&format!("checkpoint-{name}.json"), &payload.to_string());
    }
    std::fs::remove_dir_all(&dir).ok();
}
