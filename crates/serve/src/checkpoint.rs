//! Durable per-source checkpoints.
//!
//! A checkpoint file is a sequence of self-verifying frames:
//!
//! ```text
//! ┌───────┬──────────────┬────────────────┬──────────────┐
//! │ magic │ len (u64 LE) │ payload (JSON) │ fnv64 (u64 LE)│
//! └───────┴──────────────┴────────────────┴──────────────┘
//! ```
//!
//! Steady state appends one frame per dirty interval and fsyncs it — a
//! crash mid-append leaves a torn *tail*, never a torn prefix, so the
//! loader scans from the start and keeps the last frame whose length
//! and checksum verify, parsing only that frame's JSON. Periodically
//! (and on clean shutdown) the file is compacted to a single frame via
//! write-temp → fsync → atomic rename, so it never grows without bound
//! and a replacement is all-or-nothing. The payload itself is the JSON
//! [`SourceState::write_checkpoint`] streams from the fold state, with
//! no intermediate tree (schema in the exact wire notation, `u64`s as
//! decimal strings), into one buffer per source that every tick reuses;
//! the frame's four parts go to the file straight from it.

use crate::fold::SourceState;
use crate::lock;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use typefuse_json::{parse_value, Value};
use typefuse_obs::{series_key, EventLog, Level, Recorder, TelemetryCell, TelemetryHub};

/// Frame prefix; bump the digit when the frame layout changes.
const MAGIC: [u8; 4] = *b"TFC1";
/// A frame longer than this is torn garbage, not a checkpoint.
const MAX_PAYLOAD: u64 = 64 << 20;
/// Appends between compactions.
const COMPACT_EVERY: u32 = 16;

/// FNV-1a, the same construction the shape signature cache uses —
/// plenty for torn-write detection (we defend against crashes, not
/// adversaries).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// Where a source's checkpoint lives: a sanitized name plus a hash of
/// the exact name, so `a/b` and `a_b` never collide.
pub(crate) fn checkpoint_path(dir: &Path, source: &str) -> PathBuf {
    let safe: String = source
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!(
        "{safe}-{:08x}.ckpt",
        fnv64(source.as_bytes()) as u32
    ))
}

/// Write one frame: magic, length, `payload`, checksum.
fn write_frame(file: &mut File, payload: &[u8]) -> std::io::Result<()> {
    file.write_all(&MAGIC)?;
    file.write_all(&(payload.len() as u64).to_le_bytes())?;
    file.write_all(payload)?;
    file.write_all(&fnv64(payload).to_le_bytes())
}

/// Append one fsynced frame.
pub(crate) fn append_frame(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    write_frame(&mut file, payload)?;
    file.sync_data()
}

/// Replace the file with a single frame, atomically: write a sibling
/// temp file, fsync it, rename over the target, fsync the directory so
/// the rename itself is durable.
pub(crate) fn rewrite(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut file = File::create(&tmp)?;
        write_frame(&mut file, payload)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(dir) = File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// What the loader found.
pub(crate) struct Loaded {
    /// The last usable frame's payload.
    pub(crate) payload: Value,
    /// `true` when bytes after the frame used were dropped (a torn
    /// append, or verified frames that are not JSON) — worth a warning,
    /// not an error.
    pub(crate) torn: bool,
}

/// Scan every frame, checking magic, length and checksum, up to the
/// first that fails; then parse the last verified frame, falling back
/// frame by frame to earlier ones whose payload is not JSON. `Ok(None)`
/// means no usable frame (missing file, or a file with no valid frame —
/// the caller starts fresh).
pub(crate) fn load(path: &Path) -> std::io::Result<Option<Loaded>> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut at = 0usize;
    let mut frames = Vec::new();
    while data.len() - at >= MAGIC.len() + 16 {
        if data[at..at + 4] != MAGIC {
            break;
        }
        let len = u64::from_le_bytes(data[at + 4..at + 12].try_into().expect("8 bytes"));
        if len > MAX_PAYLOAD || (data.len() - at - 20) < len as usize {
            break;
        }
        let payload = at + 12..at + 12 + len as usize;
        let sum = u64::from_le_bytes(
            data[payload.end..payload.end + 8]
                .try_into()
                .expect("8 bytes"),
        );
        if sum != fnv64(&data[payload.clone()]) {
            break;
        }
        at = payload.end + 8;
        frames.push(payload);
    }
    let parsed = frames.iter().rev().enumerate().find_map(|(later, range)| {
        let text = std::str::from_utf8(&data[range.clone()]).ok()?;
        let payload = parse_value(text).ok()?;
        let torn = later > 0 || at < data.len();
        Some(Loaded { payload, torn })
    });
    Ok(parsed)
}

/// One source's slot in the checkpointer.
struct Slot {
    name: String,
    path: PathBuf,
    state: Arc<Mutex<SourceState>>,
    /// `ckpt_rev` of the last frame durably written; unchanged state
    /// costs no I/O.
    written_rev: u64,
    /// The payload buffer, reused across ticks.
    payload: String,
    appends: u32,
    last_write: Option<Instant>,
    m_bytes: TelemetryCell,
    m_lines: TelemetryCell,
    m_age: TelemetryCell,
}

/// The periodic checkpoint writer: one instance serves every source,
/// driven by the daemon's ticker thread, with a final compacting sync on
/// clean shutdown.
pub(crate) struct Checkpointer {
    slots: Vec<Slot>,
    recorder: Recorder,
    events: EventLog,
    /// Chaos hook: fail this many upcoming writes with an injected I/O
    /// error (the write is retried on the next tick).
    fail_budget: u32,
}

impl Checkpointer {
    pub(crate) fn new(
        dir: &Path,
        sources: &BTreeMap<String, Arc<Mutex<SourceState>>>,
        hub: &TelemetryHub,
        recorder: Recorder,
        events: EventLog,
        inject_failures: u32,
    ) -> Self {
        let slots = sources
            .iter()
            .map(|(name, state)| {
                let series = |metric: &str| series_key(metric, &[("source", name)]);
                Slot {
                    path: checkpoint_path(dir, name),
                    state: Arc::clone(state),
                    written_rev: 0,
                    payload: String::new(),
                    appends: 0,
                    last_write: None,
                    m_bytes: hub.gauge(series("typefuse_source_checkpoint_bytes")),
                    m_lines: hub.gauge(series("typefuse_source_checkpoint_lines")),
                    m_age: hub.approx_gauge(series("typefuse_source_checkpoint_age_ms")),
                    name: name.clone(),
                }
            })
            .collect();
        Checkpointer {
            slots,
            recorder,
            events,
            fail_budget: inject_failures,
        }
    }

    /// Take one dirty snapshot per source and append it (every
    /// [`COMPACT_EVERY`] appends, compact instead).
    pub(crate) fn tick(&mut self) {
        for slot in &mut self.slots {
            if let Some(cut) = slot.snapshot(false) {
                let injected = self.fail_budget > 0;
                self.fail_budget = self.fail_budget.saturating_sub(1);
                let result = if injected {
                    Err(std::io::Error::other("injected checkpoint write failure"))
                } else {
                    slot.write(slot.appends >= COMPACT_EVERY, cut)
                };
                match result {
                    Ok(()) => self.recorder.add("serve.checkpoints", 1),
                    Err(e) => {
                        self.recorder.add("serve.checkpoint_failures", 1);
                        self.events.log(
                            Level::Warn,
                            &slot.name,
                            "checkpoint",
                            format!("checkpoint write failed (will retry): {e}"),
                        );
                    }
                }
            }
            // Age stays unset until the first durable write, so a
            // watch table shows "-" rather than a giant sentinel.
            if let Some(at) = slot.last_write {
                slot.m_age.set(at.elapsed().as_millis() as u64);
            }
        }
    }

    /// Final checkpoint on clean shutdown: compact every source to one
    /// frame regardless of dirtiness, so a restart resumes instantly
    /// from a single-frame file.
    pub(crate) fn final_sync(&mut self) {
        for slot in &mut self.slots {
            let cut = slot
                .snapshot(true)
                .expect("a forced snapshot is always taken");
            if let Err(e) = slot.write(true, cut) {
                let message = format!("final checkpoint failed: {e}");
                self.events
                    .log(Level::Warn, &slot.name, "checkpoint", message);
            }
        }
    }
}

impl Slot {
    /// Serialise the source into the payload buffer when it changed
    /// since the last durable write, or when `force`d: under the source
    /// mutex, so the tail offset and the folded schema are one
    /// consistent cut. Returns the cut's revision and line count.
    fn snapshot(&mut self, force: bool) -> Option<(u64, u64)> {
        let state = lock(&self.state);
        (force || state.ckpt_rev != self.written_rev).then(|| {
            state.write_checkpoint(&mut self.payload);
            (state.ckpt_rev, state.lines())
        })
    }

    /// Write the payload as one frame, after the source lock is dropped:
    /// appended, or `compact`ing the file to that one frame.
    fn write(&mut self, compact: bool, (rev, lines): (u64, u64)) -> std::io::Result<()> {
        let payload = self.payload.as_bytes();
        if compact {
            rewrite(&self.path, payload)?;
        } else {
            append_frame(&self.path, payload)?;
        }
        self.written_rev = rev;
        self.appends = if compact { 0 } else { self.appends + 1 };
        self.last_write = Some(Instant::now());
        self.m_bytes.set(payload.len() as u64);
        self.m_lines.set(lines);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("typefuse-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn last_valid_frame_wins_and_torn_tails_fall_back() {
        let path = fresh("frames.ckpt");
        append_frame(&path, br#"{"n":1}"#).unwrap();
        append_frame(&path, br#"{"n":2}"#).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.payload.get("n").and_then(Value::as_i64), Some(2));
        assert!(!loaded.torn);

        // A torn third append: half a frame of garbage.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"TFC1\x05\x00\x00").unwrap();
        drop(file);
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(
            loaded.payload.get("n").and_then(Value::as_i64),
            Some(2),
            "falls back to the last good frame"
        );
        assert!(loaded.torn);
    }

    #[test]
    fn corrupt_checksum_and_garbage_files_load_as_none() {
        let path = fresh("corrupt.ckpt");
        append_frame(&path, br#"{"n":1}"#).unwrap();
        // Flip a payload byte: the checksum no longer matches.
        let mut data = std::fs::read(&path).unwrap();
        data[14] ^= 0xff;
        std::fs::write(&path, &data).unwrap();
        assert!(load(&path).unwrap().is_none());

        let path = fresh("garbage.ckpt");
        std::fs::write(&path, b"this is not a checkpoint").unwrap();
        assert!(load(&path).unwrap().is_none());

        assert!(load(&fresh("missing.ckpt")).unwrap().is_none());
    }

    #[test]
    fn rewrite_replaces_every_prior_frame() {
        let path = fresh("rewrite.ckpt");
        for n in 0..5 {
            append_frame(&path, format!("{{\"n\":{n}}}").as_bytes()).unwrap();
        }
        rewrite(&path, br#"{"n":99}"#).unwrap();
        let loaded = load(&path).unwrap().unwrap();
        assert_eq!(loaded.payload.get("n").and_then(Value::as_i64), Some(99));
        assert!(!loaded.torn);
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 40, "single frame after compaction, got {size}");
    }

    #[test]
    fn checkpoint_paths_never_collide_on_sanitization() {
        let dir = PathBuf::from("/tmp");
        assert_ne!(
            checkpoint_path(&dir, "a/b"),
            checkpoint_path(&dir, "a_b"),
            "hash suffix disambiguates"
        );
        assert!(checkpoint_path(&dir, "feed")
            .to_string_lossy()
            .contains("feed-"));
    }
}
