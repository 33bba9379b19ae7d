//! The registry store: an index/gate core and the append-only on-disk
//! log it may persist to.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use typefuse_json::{Map, Value};
use typefuse_types::diff::{diff_ids, SchemaChange};
use typefuse_types::{is_subtype, parse_type, Type, TypeId, TypeInterner};

/// Compatibility gate applied at publish time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompatMode {
    /// New schema must admit all data of the previous one (`old <: new`).
    #[default]
    Backward,
    /// Previous schema must admit all data of the new one (`new <: old`).
    Forward,
    /// Both directions (schemas equivalent up to syntax).
    Full,
    /// No gate.
    None,
}

impl CompatMode {
    /// Parse the CLI-facing name.
    pub fn from_name(name: &str) -> Option<CompatMode> {
        match name.to_ascii_lowercase().as_str() {
            "backward" => Some(CompatMode::Backward),
            "forward" => Some(CompatMode::Forward),
            "full" => Some(CompatMode::Full),
            "none" => Some(CompatMode::None),
            _ => None,
        }
    }

    fn allows(self, old: &Type, new: &Type) -> bool {
        match self {
            CompatMode::Backward => is_subtype(old, new),
            CompatMode::Forward => is_subtype(new, old),
            CompatMode::Full => is_subtype(old, new) && is_subtype(new, old),
            CompatMode::None => true,
        }
    }
}

impl fmt::Display for CompatMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompatMode::Backward => "backward",
            CompatMode::Forward => "forward",
            CompatMode::Full => "full",
            CompatMode::None => "none",
        })
    }
}

/// One stored schema version.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Subject name (e.g. a topic or dataset id).
    pub name: String,
    /// 1-based version within the subject.
    pub version: u64,
    /// The schema.
    pub schema: Type,
}

/// Result of a publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Version now associated with the schema.
    pub version: u64,
    /// `true` when the schema was already registered under this subject
    /// (syntactically identical to the latest version); no entry was
    /// appended.
    pub unchanged: bool,
}

/// Registry failures.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The log contains a malformed entry (line number, description).
    Corrupt {
        /// 1-based log line.
        line: usize,
        /// What is wrong with it.
        message: String,
    },
    /// The publish violates the requested compatibility mode.
    Incompatible {
        /// The gate that failed.
        mode: CompatMode,
        /// Version the schema was checked against.
        against_version: u64,
        /// The structural changes, for the error report.
        changes: Vec<SchemaChange>,
    },
    /// Subject (or version) not present.
    NotFound {
        /// The requested subject.
        name: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::Corrupt { line, message } => {
                write!(f, "corrupt registry log at line {line}: {message}")
            }
            RegistryError::Incompatible {
                mode,
                against_version,
                changes,
            } => {
                write!(
                    f,
                    "schema is not {mode}-compatible with version {against_version} \
                     ({} structural changes)",
                    changes.len()
                )
            }
            RegistryError::NotFound { name } => write!(f, "unknown subject {name:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// How many versions and distinct shapes a registry holds — what its
/// memory is proportional to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Versions across all subjects.
    pub versions: u64,
    /// Distinct interned type shapes behind them. Consecutive versions
    /// of a drifting feed share all but the shapes on the changed paths.
    pub shapes: u64,
}

/// One subject: every version as a shape id, plus the latest version as
/// a tree for the equivalence and compatibility walks.
#[derive(Debug)]
struct Subject {
    versions: Vec<TypeId>,
    latest: Type,
}

/// The in-memory version index plus the compatibility gate — the part
/// of a [`Registry`] that is independent of whether entries persist.
///
/// Versions are ids into one hash-consing [`TypeInterner`], so a version
/// costs the shapes it does not share with the others, "same schema" is
/// an id comparison, and a diff descends only where two versions differ.
/// [`Entry`]s are resolved on demand.
#[derive(Debug, Default)]
pub(crate) struct Index {
    interner: TypeInterner,
    subjects: BTreeMap<String, Subject>,
}

impl Index {
    pub(crate) fn names(&self) -> Vec<&str> {
        self.subjects.keys().map(String::as_str).collect()
    }

    pub(crate) fn latest_version(&self, name: &str) -> Option<u64> {
        self.subjects.get(name).map(|s| s.versions.len() as u64)
    }

    pub(crate) fn get(&self, name: &str, version: u64) -> Option<Entry> {
        let id = self.id(name, version)?;
        Some(Entry {
            name: name.to_string(),
            version,
            schema: self.interner.resolve(id),
        })
    }

    fn id(&self, name: &str, version: u64) -> Option<TypeId> {
        let versions = &self.subjects.get(name)?.versions;
        versions.get(version.checked_sub(1)? as usize).copied()
    }

    pub(crate) fn history(&self, name: &str) -> Result<Vec<Entry>, RegistryError> {
        let latest = self
            .latest_version(name)
            .ok_or_else(|| RegistryError::NotFound {
                name: name.to_string(),
            })?;
        Ok((1..=latest).filter_map(|v| self.get(name, v)).collect())
    }

    pub(crate) fn diff(
        &self,
        name: &str,
        from: u64,
        to: u64,
    ) -> Result<Vec<SchemaChange>, RegistryError> {
        let id = |version| {
            self.id(name, version)
                .ok_or_else(|| RegistryError::NotFound {
                    name: format!("{name} v{version}"),
                })
        };
        Ok(diff_ids(&self.interner, id(from)?, id(to)?))
    }

    pub(crate) fn stats(&self) -> RegistryStats {
        RegistryStats {
            versions: self
                .subjects
                .values()
                .map(|s| s.versions.len() as u64)
                .sum(),
            shapes: self.interner.len() as u64,
        }
    }

    /// Load one already-versioned entry (from a log); versions must
    /// arrive in sequence per subject.
    pub(crate) fn insert_loaded(&mut self, entry: Entry) -> Result<(), String> {
        let expected = self.latest_version(&entry.name).map_or(1, |v| v + 1);
        if entry.version != expected {
            return Err(format!(
                "version {} out of sequence (expected {expected})",
                entry.version
            ));
        }
        let id = self.interner.intern(&entry.schema);
        self.commit(&entry.name, id, entry.schema);
        Ok(())
    }

    /// Publish `schema` under `name` with gate `mode`: a no-op (schema
    /// equivalent to the latest version), an incompatibility error, or a
    /// new version — which `persist` must accept (version, schema) before
    /// the index records it.
    pub(crate) fn publish(
        &mut self,
        name: &str,
        schema: Type,
        mode: CompatMode,
        persist: impl FnOnce(u64, &Type) -> Result<(), RegistryError>,
    ) -> Result<PublishOutcome, RegistryError> {
        let id = self.interner.intern(&schema);
        let mut version = 1;
        if let Some(subject) = self.subjects.get(name) {
            let against_version = subject.versions.len() as u64;
            let latest_id = *subject.versions.last().expect("a subject has a version");
            // Equal ids are equal trees; different ids may still be two
            // spellings of one schema (`[ε*]` and `[]`). Fusion only
            // widens, so of the two inclusions `new <: latest` is the
            // one that usually fails, and fails early.
            let equivalent = id == latest_id
                || (is_subtype(&schema, &subject.latest) && is_subtype(&subject.latest, &schema));
            if equivalent {
                return Ok(PublishOutcome {
                    version: against_version,
                    unchanged: true,
                });
            }
            if !mode.allows(&subject.latest, &schema) {
                return Err(RegistryError::Incompatible {
                    mode,
                    against_version,
                    changes: diff_ids(&self.interner, latest_id, id),
                });
            }
            version = against_version + 1;
        }
        persist(version, &schema)?;
        self.commit(name, id, schema);
        Ok(PublishOutcome {
            version,
            unchanged: false,
        })
    }

    fn commit(&mut self, name: &str, id: TypeId, schema: Type) {
        if let Some(subject) = self.subjects.get_mut(name) {
            subject.versions.push(id);
            subject.latest = schema;
        } else {
            let (versions, latest) = (vec![id], schema);
            let subject = Subject { versions, latest };
            self.subjects.insert(name.to_string(), subject);
        }
    }
}

/// The registry: an in-memory index over an append-only NDJSON log, or
/// over nothing at all ([`Registry::in_memory`]) for a service that only
/// needs drift detection within its own lifetime.
#[derive(Debug)]
pub struct Registry {
    /// The log versions are appended to; `None` persists nothing.
    path: Option<PathBuf>,
    index: Index,
    recovered: Option<String>,
}

impl Registry {
    /// An empty registry that persists nothing: the same index, gates and
    /// version/dedup semantics as a log-backed one, for as long as the
    /// process lives.
    pub fn in_memory() -> Registry {
        Registry {
            path: None,
            index: Index::default(),
            recovered: None,
        }
    }

    /// Open (or create) a registry log at `path`.
    ///
    /// A malformed *final* record is treated as a torn append (the
    /// writer died mid-`write`): it is dropped, the log is truncated
    /// back to the last good record, and [`Registry::recovered`]
    /// reports what happened. Corruption anywhere *before* the tail
    /// cannot be a torn append and still fails with
    /// [`RegistryError::Corrupt`].
    pub fn open(path: impl AsRef<Path>) -> Result<Registry, RegistryError> {
        let path = path.as_ref().to_path_buf();
        let mut index = Index::default();
        let mut recovered = None;
        let mut data = Vec::new();
        match std::fs::File::open(&path) {
            Ok(mut file) => {
                file.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // Byte-accurate line scan (rather than BufRead::lines) so a
        // torn tail can be truncated away at its exact start offset.
        let mut pos = 0usize;
        let mut line_no = 0usize;
        while pos < data.len() {
            let start = pos;
            let (raw, next) = match data[pos..].iter().position(|&b| b == b'\n') {
                Some(i) => (&data[pos..pos + i], pos + i + 1),
                None => (&data[pos..], data.len()),
            };
            line_no += 1;
            pos = next;
            let parsed = std::str::from_utf8(raw)
                .map_err(|_| "invalid UTF-8".to_string())
                .and_then(|line| {
                    if line.trim().is_empty() {
                        Ok(None)
                    } else {
                        parse_entry(line).map(Some)
                    }
                });
            let message = match parsed {
                Ok(None) => continue,
                Ok(Some(entry)) => match index.insert_loaded(entry) {
                    Ok(()) => continue,
                    Err(message) => message,
                },
                Err(message) => message,
            };
            let tail_is_blank = data[pos..].iter().all(|b| b.is_ascii_whitespace());
            if !tail_is_blank {
                return Err(RegistryError::Corrupt {
                    line: line_no,
                    message,
                });
            }
            // Torn final record: drop it and truncate the log so the
            // next append starts at a clean boundary.
            OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(start as u64)?;
            recovered = Some(format!(
                "registry log recovered: dropped torn trailing record at line {line_no} \
                 ({message}); truncated to {start} bytes"
            ));
            break;
        }
        Ok(Registry {
            path: Some(path),
            index,
            recovered,
        })
    }

    /// What `open` did to recover the log, if anything: a description
    /// of the torn trailing record it dropped, or `None` when the log
    /// loaded cleanly.
    pub fn recovered(&self) -> Option<&str> {
        self.recovered.as_deref()
    }

    /// All subject names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.index.names()
    }

    /// The latest entry of a subject.
    pub fn latest(&self, name: &str) -> Option<Entry> {
        self.index.get(name, self.index.latest_version(name)?)
    }

    /// A specific version of a subject.
    pub fn get(&self, name: &str, version: u64) -> Option<Entry> {
        self.index.get(name, version)
    }

    /// Every version of a subject, oldest first.
    pub fn history(&self, name: &str) -> Result<Vec<Entry>, RegistryError> {
        self.index.history(name)
    }

    /// Structural changes between two versions of a subject.
    pub fn diff(&self, name: &str, from: u64, to: u64) -> Result<Vec<SchemaChange>, RegistryError> {
        self.index.diff(name, from, to)
    }

    /// Publish a schema under `name`, gated by `mode` against the latest
    /// version. Publishing a schema *equivalent* to the latest one
    /// (mutual subtype — e.g. `[ε*]` vs `[]` — or syntactically identical)
    /// is a no-op returning the existing version, so re-publishing the
    /// inferred schema of unchanged data never churns versions.
    pub fn publish(
        &mut self,
        name: &str,
        schema: Type,
        mode: CompatMode,
    ) -> Result<PublishOutcome, RegistryError> {
        let path = self.path.as_deref();
        self.index
            .publish(name, schema, mode, |version, schema| match path {
                Some(path) => append(path, name, version, schema),
                None => Ok(()),
            })
    }

    /// The latest version number of a subject — the watch primitive: a
    /// poller remembers the last version it saw and treats an increase
    /// as "schema drifted, diff the two versions".
    pub fn latest_version(&self, name: &str) -> Option<u64> {
        self.index.latest_version(name)
    }

    /// How much the registry holds.
    pub fn stats(&self) -> RegistryStats {
        self.index.stats()
    }
}

fn append(path: &Path, name: &str, version: u64, schema: &Type) -> Result<(), RegistryError> {
    let mut m = Map::new();
    m.insert("name", name.to_string());
    m.insert("version", version as i64);
    m.insert("schema", schema.to_string());
    let line = typefuse_json::to_string(&Value::Object(m));
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.write_all(b"\n")?;
    Ok(())
}

fn parse_entry(line: &str) -> Result<Entry, String> {
    let value = typefuse_json::parse_value(line).map_err(|e| e.to_string())?;
    let name = value
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?
        .to_string();
    let version = value
        .get("version")
        .and_then(Value::as_i64)
        .filter(|v| *v >= 1)
        .ok_or("missing or invalid version")? as u64;
    let schema_text = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema")?;
    let schema = parse_type(schema_text).map_err(|e| format!("bad schema: {e}"))?;
    Ok(Entry {
        name,
        version,
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fresh(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("typefuse-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn t(text: &str) -> Type {
        parse_type(text).unwrap()
    }

    #[test]
    fn in_memory_mirrors_on_disk_semantics() {
        let mut reg = Registry::in_memory();
        assert_eq!(
            reg.publish("a", t("{x: Num}"), CompatMode::Backward)
                .unwrap(),
            PublishOutcome {
                version: 1,
                unchanged: false
            }
        );
        // Equivalent republish dedups.
        let again = reg.publish("a", t("{x: Num}"), CompatMode::Backward);
        assert!(again.unwrap().unchanged);
        // Widening passes the backward gate, narrowing does not.
        let widened = reg.publish("a", t("{x: Num, y: Str?}"), CompatMode::Backward);
        assert_eq!(widened.unwrap().version, 2);
        assert!(matches!(
            reg.publish("a", t("{x: Num}"), CompatMode::Backward),
            Err(RegistryError::Incompatible {
                against_version: 2,
                ..
            })
        ));
        assert_eq!(reg.latest_version("a"), Some(2));
        assert_eq!(reg.history("a").unwrap().len(), 2);
        assert_eq!(reg.diff("a", 1, 2).unwrap().len(), 1);
        assert_eq!(reg.get("a", 1).unwrap().schema, t("{x: Num}"));
        assert!(reg.get("a", 9).is_none());
        assert!(matches!(
            reg.history("zzz"),
            Err(RegistryError::NotFound { .. })
        ));
        assert_eq!(reg.recovered(), None);
    }

    #[test]
    fn publish_assigns_sequential_versions() {
        let mut reg = Registry::open(fresh("seq.ndjson")).unwrap();
        assert_eq!(
            reg.publish("a", t("{x: Num}"), CompatMode::None).unwrap(),
            PublishOutcome {
                version: 1,
                unchanged: false
            }
        );
        assert_eq!(
            reg.publish("a", t("{x: Num, y: Str?}"), CompatMode::None)
                .unwrap()
                .version,
            2
        );
        assert_eq!(
            reg.publish("b", t("Num"), CompatMode::None)
                .unwrap()
                .version,
            1
        );
        assert_eq!(reg.names(), vec!["a", "b"]);
    }

    #[test]
    fn identical_schema_is_a_noop() {
        let mut reg = Registry::open(fresh("noop.ndjson")).unwrap();
        reg.publish("a", t("{x: Num}"), CompatMode::Backward)
            .unwrap();
        let again = reg
            .publish("a", t("{x: Num}"), CompatMode::Backward)
            .unwrap();
        assert_eq!(
            again,
            PublishOutcome {
                version: 1,
                unchanged: true
            }
        );
        assert_eq!(reg.history("a").unwrap().len(), 1);
    }

    #[test]
    fn backward_gate() {
        let mut reg = Registry::open(fresh("backward.ndjson")).unwrap();
        reg.publish("a", t("{x: Num}"), CompatMode::Backward)
            .unwrap();
        // Widening is fine…
        reg.publish("a", t("{x: Null + Num, y: Str?}"), CompatMode::Backward)
            .unwrap();
        // …but narrowing is rejected, with the changes attached.
        let err = reg
            .publish("a", t("{x: Num}"), CompatMode::Backward)
            .unwrap_err();
        match err {
            RegistryError::Incompatible {
                against_version: 2,
                changes,
                ..
            } => {
                assert!(!changes.is_empty());
            }
            other => panic!("unexpected {other}"),
        }
        // The failed publish appended nothing.
        assert_eq!(reg.latest("a").unwrap().version, 2);
    }

    #[test]
    fn forward_and_full_gates() {
        let mut reg = Registry::open(fresh("forward.ndjson")).unwrap();
        reg.publish("a", t("{x: Num, y: Str?}"), CompatMode::None)
            .unwrap();
        // Forward allows narrowing…
        reg.publish("a", t("{x: Num}"), CompatMode::Forward)
            .unwrap();
        // …but not widening.
        assert!(reg
            .publish("a", t("{x: Num, z: Bool?}"), CompatMode::Forward)
            .is_err());
        // Full only allows equivalents (e.g. [ε*] vs []).
        reg.publish("b", t("{x: []}"), CompatMode::None).unwrap();
        let starred = Type::Record(
            typefuse_types::RecordType::new(vec![typefuse_types::Field::required(
                "x",
                Type::star(Type::Bottom),
            )])
            .unwrap(),
        );
        let outcome = reg.publish("b", starred, CompatMode::Full).unwrap();
        assert!(outcome.unchanged, "equivalent schemas dedup");
        assert_eq!(outcome.version, 1);
        assert!(reg
            .publish("b", t("{x: [], y: Num?}"), CompatMode::Full)
            .is_err());
    }

    #[test]
    fn reopening_restores_state() {
        let path = fresh("reopen.ndjson");
        {
            let mut reg = Registry::open(&path).unwrap();
            reg.publish("a", t("{x: Num}"), CompatMode::None).unwrap();
            reg.publish("a", t("{x: Num, y: Str?}"), CompatMode::None)
                .unwrap();
        }
        let reg = Registry::open(&path).unwrap();
        assert_eq!(reg.latest("a").unwrap().version, 2);
        assert_eq!(reg.get("a", 1).unwrap().schema, t("{x: Num}"));
        assert_eq!(reg.history("a").unwrap().len(), 2);
        // The gate still works across restarts.
        let mut reg = reg;
        assert!(reg.publish("a", t("Num"), CompatMode::Backward).is_err());
    }

    #[test]
    fn diff_between_versions() {
        let path = fresh("diff.ndjson");
        let mut reg = Registry::open(&path).unwrap();
        reg.publish("a", t("{x: Num}"), CompatMode::None).unwrap();
        reg.publish("a", t("{x: Str}"), CompatMode::None).unwrap();
        let changes = reg.diff("a", 1, 2).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].to_string(), "~ $.x: Num → Str");
        assert!(reg.diff("a", 1, 9).is_err());
        assert!(reg.diff("zzz", 1, 1).is_err());
    }

    #[test]
    fn corrupt_logs_are_rejected() {
        // Corruption *before* the tail cannot be a torn append: reject.
        let path = fresh("corrupt.ndjson");
        std::fs::write(
            &path,
            "not json\n{\"name\":\"a\",\"version\":1,\"schema\":\"Num\"}\n",
        )
        .unwrap();
        assert!(matches!(
            Registry::open(&path),
            Err(RegistryError::Corrupt { line: 1, .. })
        ));

        let path = fresh("skip.ndjson");
        std::fs::write(
            &path,
            "{\"name\":\"a\",\"version\":2,\"schema\":\"Num\"}\n\
             {\"name\":\"a\",\"version\":3,\"schema\":\"Num\"}\n",
        )
        .unwrap();
        assert!(
            matches!(Registry::open(&path), Err(RegistryError::Corrupt { .. })),
            "out-of-sequence version"
        );
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_reported() {
        let path = fresh("torn.ndjson");
        // Publish two entries, then simulate a crash mid-append by
        // hand-truncating the final record.
        {
            let mut reg = Registry::open(&path).unwrap();
            reg.publish("a", t("{x: Num}"), CompatMode::None).unwrap();
            reg.publish("a", t("{x: Str}"), CompatMode::None).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let cut = full.len() - 7;
        std::fs::write(&path, &full[..cut]).unwrap();

        let reg = Registry::open(&path).unwrap();
        let warning = reg.recovered().expect("recovery reported");
        assert!(warning.contains("torn trailing record"), "{warning}");
        assert_eq!(reg.latest("a").unwrap().version, 1, "v2 was torn away");
        // The file itself was truncated back to the last good record…
        let kept = std::fs::read(&path).unwrap();
        assert!(kept.len() < cut);
        assert!(kept.ends_with(b"\n"));
        // …so the next open is clean and the next publish appends at a
        // record boundary.
        let mut reg = Registry::open(&path).unwrap();
        assert!(reg.recovered().is_none());
        reg.publish("a", t("{x: Str}"), CompatMode::None).unwrap();
        let reg = Registry::open(&path).unwrap();
        assert!(reg.recovered().is_none());
        assert_eq!(reg.latest("a").unwrap().version, 2);
    }

    #[test]
    fn lone_torn_record_recovers_to_an_empty_registry() {
        let path = fresh("lone-torn.ndjson");
        std::fs::write(&path, "{\"name\":\"a\",\"ver").unwrap();
        let reg = Registry::open(&path).unwrap();
        assert!(reg.recovered().is_some());
        assert!(reg.names().is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn missing_subject_errors() {
        let reg = Registry::open(fresh("missing.ndjson")).unwrap();
        assert!(reg.latest("nope").is_none());
        assert!(matches!(
            reg.history("nope"),
            Err(RegistryError::NotFound { .. })
        ));
    }

    #[test]
    fn a_registry_shared_across_threads_publishes_through_the_on_disk_log() {
        // What the daemon holds: one registry behind a mutex.
        let path = fresh("shared.ndjson");
        let shared = std::sync::Mutex::new(Registry::open(&path).unwrap());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut reg = shared.lock().unwrap();
                reg.publish("a", t("{x: Num}"), CompatMode::Backward)
                    .unwrap();
                reg.publish("a", t("{x: Num, y: Str?}"), CompatMode::Backward)
                    .unwrap();
            });
        });
        let reg = shared.into_inner().unwrap();
        assert_eq!(reg.latest_version("a"), Some(2));
        assert_eq!(reg.names(), ["a"]);
        assert_eq!(reg.stats().versions, 2);
        // The writes land in the same log a reopen sees.
        let reopened = Registry::open(&path).unwrap();
        assert_eq!(reopened.latest("a").unwrap().version, 2);
        assert_eq!(reopened.stats(), reg.stats());
    }

    #[test]
    fn fused_profile_schemas_round_trip_through_the_log() {
        use typefuse_datagen::{DatasetProfile, Profile};
        use typefuse_infer::{fuse_all, infer_type};

        let path = fresh("profiles.ndjson");
        let mut reg = Registry::open(&path).unwrap();
        for profile in Profile::ALL {
            let values: Vec<_> = profile.generate(5, 100).collect();
            let schema = fuse_all(&values.iter().map(infer_type).collect::<Vec<_>>());
            reg.publish(profile.name(), schema, CompatMode::None)
                .unwrap();
        }
        let reopened = Registry::open(&path).unwrap();
        for profile in Profile::ALL {
            let values: Vec<_> = profile.generate(5, 100).collect();
            let schema = fuse_all(&values.iter().map(infer_type).collect::<Vec<_>>());
            // `[ε*]` prints as `[]` and reparses as the (semantically
            // equal) empty positional array type, so compare the printed
            // canonical forms.
            assert_eq!(
                reopened.latest(profile.name()).unwrap().schema.to_string(),
                schema.to_string(),
                "{profile} schema survives the notation round trip"
            );
        }
    }
}
