//! What `Registry::open` does with a bad last line of its log.
//!
//! `append` writes a line and its `\n` in one write, so only a final
//! fragment with no newline after it can be a torn append: that one is
//! dropped and the recovery reported, and the first publish truncates
//! the log back to the last good record; opening writes nothing. A
//! complete bad line is corruption, wherever it sits: the open fails
//! and the file keeps every byte.

use std::path::PathBuf;
use typefuse_registry::{CompatMode, Registry, RegistryError};
use typefuse_types::Type;

const GOOD: &str = "{\"name\":\"a\",\"version\":1,\"schema\":\"Num\"}\n";

fn log_with(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("typefuse-open-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn a_complete_bad_final_line_is_corrupt_and_leaves_the_log_untouched() {
    let text = format!("{GOOD}{{\"name\":\"a\",\"version\":2,\"schema\":\"[[[Num\"}}\n");
    let path = log_with("complete.ndjson", &text);
    match Registry::open(&path) {
        Err(RegistryError::Corrupt { line: 2, .. }) => {}
        other => panic!("expected a corrupt line 2, got {other:?}"),
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    // Blank lines after it change nothing.
    let path = log_with("blank-tail.ndjson", &format!("{text}\n  \n"));
    assert!(matches!(
        Registry::open(&path),
        Err(RegistryError::Corrupt { line: 2, .. })
    ));
}

#[test]
fn an_unterminated_final_fragment_is_a_torn_append_and_is_truncated() {
    let torn = format!("{GOOD}{{\"name\":\"a\",\"vers");
    let path = log_with("torn.ndjson", &torn);
    let mut registry = Registry::open(&path).unwrap();
    let warning = registry.recovered().expect("the recovery is reported");
    assert!(
        warning.contains("torn trailing record at line 2"),
        "{warning}"
    );
    assert_eq!(registry.names(), ["a"]);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), torn);
    registry.publish("b", Type::Num, CompatMode::None).unwrap();
    let b = "{\"name\":\"b\",\"version\":1,\"schema\":\"Num\"}\n";
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{GOOD}{b}")
    );
    assert!(Registry::open(&path).unwrap().recovered().is_none());
}
