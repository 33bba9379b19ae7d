//! The id index publishes what the tree index did.
//!
//! `fixtures/publish-sequence.tsv` is a publish sequence (subject, gate,
//! schema) over two subjects: new versions, exact and `[ε*]`-vs-`[]`
//! re-publishes, and rejections by every gate. The 0.7.0 binary — the
//! last one whose index kept a tree per version — ran it through
//! `typefuse registry publish`; its on-disk log and its output are the
//! two other fixtures. The same sequence through today's index must
//! leave the same log bytes and the same verdicts, versions and
//! `Incompatible { changes }` payloads.

use std::path::PathBuf;
use typefuse_registry::{CompatMode, MemoryRegistry, Registry, RegistryError, RegistryStore};
use typefuse_types::parse_type;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Publish the fixture sequence, rendering each outcome the way
/// `typefuse registry publish` prints it.
fn replay(store: &mut dyn RegistryStore) -> String {
    let mut transcript = String::new();
    for step in fixture("publish-sequence.tsv").lines() {
        let [subject, mode, schema] = step.split('\t').collect::<Vec<_>>()[..] else {
            panic!("malformed step {step:?}");
        };
        let mode = CompatMode::from_name(mode).unwrap();
        match store.publish_schema(subject, parse_type(schema).unwrap(), mode) {
            Ok(outcome) if outcome.unchanged => {
                transcript += &format!("{subject}: unchanged (version {})\n", outcome.version)
            }
            Ok(outcome) => {
                transcript += &format!("{subject}: published version {}\n", outcome.version)
            }
            Err(RegistryError::Incompatible {
                mode,
                against_version,
                changes,
            }) => {
                transcript +=
                    &format!("{subject}: not {mode}-compatible with version {against_version}:\n");
                for change in changes {
                    transcript += &format!("  {change}\n");
                }
            }
            Err(other) => panic!("{step:?}: {other}"),
        }
    }
    transcript
}

#[test]
fn the_on_disk_log_and_every_verdict_match_the_parents() {
    let dir = std::env::temp_dir().join("typefuse-registry-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parent-log.ndjson");
    let _ = std::fs::remove_file(&path);

    let mut registry = Registry::open(&path).unwrap();
    assert_eq!(
        replay(&mut registry),
        fixture("publish-sequence.transcript")
    );
    let log = std::fs::read_to_string(&path).unwrap();
    assert_eq!(log, fixture("publish-sequence.registry.ndjson"));

    // The in-memory backend answers the same, and a reopened log is the
    // same registry: every version, every pairwise diff.
    let mut memory = MemoryRegistry::new();
    assert_eq!(replay(&mut memory), fixture("publish-sequence.transcript"));
    let reopened = Registry::open(&path).unwrap();
    assert_eq!(reopened.stats().versions, log.lines().count() as u64);
    for subject in ["arrays", "events"] {
        let entries = registry.history(subject).unwrap();
        assert_eq!(
            entries.len() as u64,
            registry.latest(subject).unwrap().version
        );
        for a in &entries {
            // `[ε*]` is logged as `[]`: compare what a log can hold.
            let logged = reopened.get(subject, a.version).unwrap().schema;
            assert_eq!(logged.to_string(), a.schema.to_string());
            assert_eq!(memory.entry(subject, a.version).unwrap(), *a);
            for b in &entries {
                let expected = typefuse_types::diff::diff(&a.schema, &b.schema);
                for store in [&registry as &dyn RegistryStore, &reopened, &memory] {
                    let changes = store.changes(subject, a.version, b.version).unwrap();
                    assert_eq!(changes, expected, "{subject} v{}→v{}", a.version, b.version);
                }
            }
        }
    }
}
