//! The reading end of a source. One [`SourceTail`] owns every decision
//! about a source's input: waiting for a watched file that does not
//! exist yet, resuming it from the checkpointed position, the haul
//! budget, the rotation rule, and adopting a TCP source's producer
//! connections. The poller only polls it and folds what it returns.

use crate::daemon::{SourceInput, SourceSpec};
use crate::fold::SourceState;
use crate::lock;
use std::fs::{File, Metadata};
use std::io::{Read, Seek, SeekFrom};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use typefuse::JobConfig;
use typefuse_json::{TailLine, TailReader, TailStatus};
use typefuse_obs::{series_key, TelemetryCell, TelemetryHub};

/// What one poll of a watched file, or of one producer connection,
/// reads before its lines are folded: a daemon started on a large
/// backlog, or fed faster than it folds, holds one haul in memory, not
/// all of it, and serves the partial fold between hauls.
const HAUL_BUDGET_BYTES: usize = 8 << 20;

/// A file's identity on its device, `(dev, ino)`; `None` where the
/// platform has none to offer, which leaves rotation to the length rule.
type FileId = Option<(u64, u64)>;

#[cfg(unix)]
fn file_id(meta: &Metadata) -> FileId {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn file_id(_: &Metadata) -> FileId {
    None
}

/// The tailing end of one source, owned by its poller incarnation.
pub(crate) struct SourceTail {
    input: Input,
    job: JobConfig,
    /// The file position last mirrored into the source state
    /// (`u64::MAX`: none since the file was opened).
    synced: u64,
    m_offset: TelemetryCell,
    m_lag: TelemetryCell,
}

enum Input {
    /// A watched regular file, and its reader once the path exists.
    File(PathBuf, Option<OpenFile>),
    /// A TCP listener plus every live producer connection.
    Tcp {
        listener: TcpListener,
        conns: Vec<TailReader<TcpStream>>,
        /// Bytes consumed by connections that have since closed.
        closed_bytes: u64,
    },
}

/// An open watched file, with the identity it had when it was opened.
struct OpenFile {
    reader: TailReader<File>,
    id: FileId,
}

/// The one constructor of both kinds of reader: the haul budget and the
/// job's retry policy, recorder and line cap.
fn tail_reader<R: Read>(input: R, job: &JobConfig) -> TailReader<R> {
    let tail = TailReader::new(input)
        .with_haul_budget(HAUL_BUDGET_BYTES)
        .with_retry(job.retry)
        .with_recorder(job.recorder.clone());
    match job.max_line_bytes {
        Some(cap) => tail.with_max_line_bytes(cap),
        None => tail,
    }
}

/// The rotation rule, applied when a file is opened (against the
/// position it resumes from) and on every poll (against what was read,
/// and the identity of the open file): the path names a file shorter
/// than that position, or a different file. Either way the input was
/// truncated or replaced, and the position means nothing in it.
fn rotated(now: &Metadata, read: u64, open: Option<FileId>) -> bool {
    now.len() < read || open.is_some_and(|id| id != file_id(now))
}

/// Why a watched path that is not a regular file is refused: a FIFO
/// blocks the open until a writer attaches, and its length of 0 would
/// fire the rotation rule on every poll.
fn not_regular(path: &Path) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!(
            "{} is not a regular file; a watched path must be one \
             (stream pipes and sockets through --tcp-source)",
            path.display()
        ),
    )
}

/// Open the watched file at the position `state` resumes from: seek to
/// the remembered offset and restore the carried partial line. `None`
/// while the path does not exist; an error if it is not a regular file.
fn open_file(
    path: &Path,
    state: &Mutex<SourceState>,
    job: &JobConfig,
) -> std::io::Result<Option<OpenFile>> {
    match std::fs::metadata(path) {
        Ok(meta) if !meta.is_file() => return Err(not_regular(path)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        _ => {}
    }
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let meta = file.metadata()?;
    let mut state = lock(state);
    let offset = state.tail_offset;
    if rotated(&meta, offset, None) {
        state.rewind(meta.len(), offset);
    }
    if state.tail_offset > 0 {
        file.seek(SeekFrom::Start(state.tail_offset))?;
    }
    let reader = tail_reader(file, job).with_resume_state(
        state.tail_pending.clone(),
        state.tail_pending_overflow,
        state.tail_offset,
        state.lines(),
    );
    Ok(Some(OpenFile {
        reader,
        id: file_id(&meta),
    }))
}

impl SourceTail {
    /// Open the input of `source`: bind a TCP source's listener, or open
    /// a watched file at the position `state` resumes from. A file that
    /// does not exist yet is waited for, not an error.
    pub(crate) fn open(
        source: &SourceSpec,
        state: &Mutex<SourceState>,
        job: &JobConfig,
        hub: &TelemetryHub,
    ) -> std::io::Result<SourceTail> {
        let input = match &source.input {
            SourceInput::File(path) => Input::File(path.clone(), open_file(path, state, job)?),
            SourceInput::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Input::Tcp {
                    listener,
                    conns: Vec::new(),
                    closed_bytes: 0,
                }
            }
        };
        let series = |metric: &str| hub.gauge(series_key(metric, &[("source", &source.name)]));
        Ok(SourceTail {
            input,
            job: job.clone(),
            synced: u64::MAX,
            m_offset: series("typefuse_source_offset_bytes"),
            m_lag: series("typefuse_source_lag_bytes"),
        })
    }

    /// Read the next haul's complete lines into `lines`. Returns whether
    /// the input is still behind (a file's lag, a connection's spent
    /// budget), so the caller polls again now instead of sleeping; `Err`
    /// is why the poller must crash.
    pub(crate) fn poll(
        &mut self,
        state: &Mutex<SourceState>,
        lines: &mut Vec<TailLine>,
    ) -> Result<bool, String> {
        match &mut self.input {
            Input::File(path, open) => {
                // Stat before the read: the lag is what the read left.
                let meta = std::fs::metadata(&*path).ok();
                if meta.as_ref().is_some_and(|meta| !meta.is_file()) {
                    return Err(not_regular(path).to_string());
                }
                if let (Some(meta), Some(file)) = (&meta, &*open) {
                    let read = file.reader.bytes_read();
                    if rotated(meta, read, Some(file.id)) {
                        lock(state).rewind(meta.len(), read);
                        *open = None;
                    }
                }
                if open.is_none() {
                    *open = open_file(path, state, &self.job)
                        .map_err(|e| format!("cannot open source: {e}"))?;
                    self.synced = u64::MAX;
                }
                let Some(file) = open else {
                    return Ok(false);
                };
                file.reader
                    .poll(lines)
                    .map_err(|e| format!("read error: {e}"))?;
                let offset = file.reader.bytes_read();
                let lag = meta.map_or(offset, |m| m.len()).saturating_sub(offset);
                self.m_offset.set(offset);
                self.m_lag.set(lag);
                Ok(lag > 0)
            }
            Input::Tcp {
                listener,
                conns,
                closed_bytes,
            } => {
                // Adopt any new producer connections.
                while let Ok((conn, _)) = listener.accept() {
                    if conn.set_nonblocking(true).is_ok() {
                        self.job.recorder.add("ingest.connections", 1);
                        conns.push(tail_reader(conn, &self.job).close_on_eof());
                    }
                }
                let mut behind = false;
                conns.retain_mut(|conn| match conn.poll(lines) {
                    Ok(TailStatus::Idle) => true,
                    Ok(TailStatus::Budget) => {
                        behind = true;
                        true
                    }
                    Ok(TailStatus::Closed) => {
                        // Flush an unterminated final record.
                        lines.extend(conn.take_pending());
                        *closed_bytes += conn.bytes_read();
                        false
                    }
                    Err(_) => {
                        *closed_bytes += conn.bytes_read();
                        false
                    }
                });
                let open: u64 = conns.iter().map(TailReader::bytes_read).sum();
                self.m_offset.set(*closed_bytes + open);
                Ok(behind)
            }
        }
    }

    /// Whether a file's position moved since the last [`sync`](Self::sync):
    /// a poll with no complete line may still have consumed bytes into
    /// the partial-line carry, and the checkpointable position must
    /// keep up with it.
    pub(crate) fn moved(&self) -> bool {
        matches!(&self.input, Input::File(_, Some(file)) if file.reader.bytes_read() != self.synced)
    }

    /// Mirror the tail position into `state`, under the lock the
    /// checkpointer serialises under. A TCP source, whose producers
    /// cannot be resumed by offset, only marks the state dirty.
    pub(crate) fn sync(&mut self, state: &mut SourceState) {
        match &self.input {
            Input::File(_, Some(file)) => {
                let reader = &file.reader;
                state.sync_tail(
                    reader.bytes_read(),
                    reader.pending(),
                    reader.pending_overflow(),
                );
                self.synced = reader.bytes_read();
            }
            Input::File(_, None) => {}
            Input::Tcp { .. } => state.mark_dirty(),
        }
    }
}
