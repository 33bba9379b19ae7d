//! The `TFC1` payload of a profile-carrying [`RecordFold`], pinned.
//!
//! `fixtures/fold-twitter-60.ckpt.json` is what the commit *before* the
//! path-trie profiler wrote (`TYPEFUSE_BLESS=1 cargo test --test
//! fold_checkpoint`) after folding the first 60 lines of the corpus
//! below — a fold whose `ProfileAcc` still fused its own schema. The
//! one-schema fold must write the same bytes, restore them, and resume
//! to the state of a fold that never stopped.

use typefuse::datagen::{DatasetProfile, Profile};
use typefuse::fold::{Origin, RecordFold};
use typefuse::pipeline::{DedupMode, MapPath};
use typefuse::{ErrorPolicy, JobConfig};
use typefuse_json::{Map, Value};
use typefuse_obs::Recorder;

const CUT: usize = 60;

/// 100 Twitter-profile lines, every 17th replaced by a malformed one.
fn corpus() -> Vec<String> {
    Profile::Twitter
        .generate(11, 100)
        .enumerate()
        .map(|(i, v)| match i % 17 {
            5 => r#"{"id": 1, "user": {"name": "#.to_string(),
            _ => v.to_string(),
        })
        .collect()
}

fn fold_over(mut fold: RecordFold, first_line: usize, lines: &[String]) -> RecordFold {
    for (i, line) in lines.iter().enumerate() {
        let origin = Origin::Line((first_line + i) as u64 + 1);
        fold.absorb_noting(origin, line.as_bytes(), false);
    }
    fold
}

fn checkpoint(fold: &RecordFold) -> String {
    let mut m = Map::new();
    fold.checkpoint_into(&mut m);
    Value::Object(m).to_string()
}

#[test]
fn the_parents_fold_checkpoint_is_rewritten_restored_and_resumed_byte_identically() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/fold-twitter-60.ckpt.json");
    let lines = corpus();
    for (map_path, dedup) in [
        (MapPath::Events, DedupMode::On),
        (MapPath::Values, DedupMode::Off),
    ] {
        let config = JobConfig::new()
            .map_path(map_path)
            .dedup(dedup)
            .on_error(ErrorPolicy::skip())
            .build()
            .fold_config(true);
        let empty = || RecordFold::new(config.clone(), Recorder::disabled());
        let head = checkpoint(&fold_over(empty(), 0, &lines[..CUT]));
        if std::env::var_os("TYPEFUSE_BLESS").is_some() && dedup == DedupMode::On {
            std::fs::write(&path, &head).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap();
        // `dedup` records the route and is the one field that differs.
        let golden = golden.replace(
            r#""dedup":true"#,
            &format!(r#""dedup":{}"#, dedup == DedupMode::On),
        );
        assert!(head == golden, "{map_path:?}: the layout moved");

        let payload = typefuse_json::parse_value(&golden).unwrap();
        let restored = RecordFold::restore(config.clone(), Recorder::disabled(), &payload).unwrap();
        assert!(checkpoint(&restored) == golden, "restore is exact");
        let resumed = fold_over(restored, CUT, &lines[CUT..]);
        let full = fold_over(empty(), 0, &lines);
        assert!(
            checkpoint(&resumed) == checkpoint(&full),
            "{map_path:?}: resumed ≠ never stopped"
        );
        let report = |fold: RecordFold| fold.finish().3.unwrap().finish().to_json();
        assert_eq!(report(resumed), report(full));
    }
}
