//! Tailing line reader for growing and non-seekable NDJSON inputs.
//!
//! [`read_line_bounded`](crate::ndjson::read_line_bounded) treats
//! end-of-input as final — the right model for a batch run over a
//! finished file. A resident
//! service (`typefuse serve`) instead watches sources that *keep
//! growing*: a log file under append, a FIFO, a TCP stream. For those,
//! "no more bytes right now" is not "no more bytes ever", and a line
//! may arrive split across many reads, so the reader must buffer the
//! unterminated tail and only surface *complete* lines.
//!
//! [`TailReader`] does exactly that: each [`poll`](TailReader::poll)
//! drains whatever bytes the underlying stream has (stopping at
//! end-of-data, `WouldBlock` or its
//! [haul budget](TailReader::with_haul_budget)), appends them to an
//! internal carry buffer, and returns every newline-terminated line's
//! content. The partial trailing line stays buffered until a later poll
//! completes it. This makes the reader safe over plain `File`s that other
//! processes append to (reads past EOF return fresh data on the next
//! poll), FIFOs, and non-blocking sockets alike — no seeking required.

use crate::ndjson::RetryPolicy;
use std::io::Read;
use typefuse_obs::Recorder;

/// One complete line surfaced by [`TailReader::poll`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailLine {
    /// Line content without the trailing newline (and without a
    /// trailing `\r`, so CRLF inputs behave like LF).
    pub content: Vec<u8>,
    /// The line exceeded the configured `max_line_bytes` cap; `content`
    /// holds only the first `max_line_bytes` bytes.
    pub truncated: bool,
}

/// Whether the stream can still produce data after this poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The stream is drained for now but may grow (EOF on a regular
    /// file, `WouldBlock` on a non-blocking source). Poll again later.
    Idle,
    /// The poll spent its [haul budget](TailReader::with_haul_budget)
    /// and more bytes may be waiting: poll again now.
    Budget,
    /// The stream is permanently closed: a read returned 0 on a
    /// source the caller declared finite via [`TailReader::close_on_eof`].
    Closed,
}

/// A buffering line reader over a possibly-growing byte stream.
pub struct TailReader<R> {
    reader: R,
    /// Carry buffer for the unterminated trailing line.
    pending: Vec<u8>,
    /// Bytes of the pending line dropped by the size cap.
    pending_overflow: bool,
    max_line_bytes: Option<usize>,
    haul_budget: Option<usize>,
    retry: RetryPolicy,
    recorder: Recorder,
    lines: u64,
    bytes: u64,
    close_on_eof: bool,
    closed: bool,
}

impl<R: Read> TailReader<R> {
    /// Wrap a raw reader. By default EOF means "idle, poll again".
    pub fn new(reader: R) -> Self {
        TailReader {
            reader,
            pending: Vec::new(),
            pending_overflow: false,
            max_line_bytes: None,
            haul_budget: None,
            retry: RetryPolicy::none(),
            recorder: Recorder::disabled(),
            lines: 0,
            bytes: 0,
            close_on_eof: false,
            closed: false,
        }
    }

    /// Cap a single line's buffered content at `cap` bytes. Oversized
    /// lines surface with [`TailLine::truncated`] set instead of
    /// growing the carry buffer without bound.
    pub fn with_max_line_bytes(mut self, cap: usize) -> Self {
        self.max_line_bytes = Some(cap);
        self
    }

    /// End a [`poll`](Self::poll) once it has read `bytes` bytes, so a
    /// caller catching up on a large backlog holds one haul of lines at
    /// a time instead of all of them. Unbounded by default: one poll
    /// reads to the end of the data.
    pub fn with_haul_budget(mut self, bytes: usize) -> Self {
        self.haul_budget = Some(bytes);
        self
    }

    /// Retry transient I/O errors (`Interrupted`) per `policy` before
    /// surfacing them; retries count `ingest.retries` on the recorder.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Attach a recorder: counts `json.bytes` (raw bytes consumed) and
    /// `ingest.retries`.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Treat a zero-byte read as a permanent close (right for TCP
    /// connections and one-shot pipes, wrong for growing files).
    pub fn close_on_eof(mut self) -> Self {
        self.close_on_eof = true;
        self
    }

    /// Restore checkpointed progress: the partial-line carry buffer
    /// (with its overflow flag) and the byte/line counters. The caller
    /// is responsible for positioning the underlying stream at byte
    /// `bytes` (e.g. `Seek` after re-opening a file); from there the
    /// reader continues exactly where the checkpointed one stopped —
    /// same line numbering, same pending tail, same truncation state.
    pub fn with_resume_state(
        mut self,
        pending: Vec<u8>,
        pending_overflow: bool,
        bytes: u64,
        lines: u64,
    ) -> Self {
        self.pending = pending;
        self.pending_overflow = pending_overflow;
        self.bytes = bytes;
        self.lines = lines;
        self
    }

    /// Whether the pending tail overflowed the line-size cap (part of
    /// the state a checkpoint must persist).
    pub fn pending_overflow(&self) -> bool {
        self.pending_overflow
    }

    /// Complete lines surfaced so far.
    pub fn lines_read(&self) -> u64 {
        self.lines
    }

    /// Raw bytes consumed so far (including newlines).
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }

    /// The buffered content of the current unterminated line, if any.
    pub fn pending(&self) -> &[u8] {
        &self.pending
    }

    /// Take the unterminated tail as a final line (for shutdown: a
    /// finished file whose last record lacks a newline). Returns `None`
    /// when nothing is buffered.
    pub fn take_pending(&mut self) -> Option<TailLine> {
        if self.pending.is_empty() && !self.pending_overflow {
            return None;
        }
        self.lines += 1;
        Some(TailLine {
            content: std::mem::take(&mut self.pending),
            truncated: std::mem::take(&mut self.pending_overflow),
        })
    }

    /// Drain currently-available bytes (up to the
    /// [haul budget](Self::with_haul_budget)) and append every completed
    /// line to `out`. Returns the stream status: [`TailStatus::Idle`]
    /// when the source may still grow, [`TailStatus::Budget`] when the
    /// poll stopped on its budget, [`TailStatus::Closed`] once a
    /// [`close_on_eof`](Self::close_on_eof) source hits EOF.
    pub fn poll(&mut self, out: &mut Vec<TailLine>) -> std::io::Result<TailStatus> {
        if self.closed {
            return Ok(TailStatus::Closed);
        }
        let mut chunk = [0u8; 8192];
        let mut attempts = 0u32;
        let mut hauled = 0usize;
        loop {
            match self.reader.read(&mut chunk) {
                Ok(0) => {
                    if self.close_on_eof {
                        self.closed = true;
                        return Ok(TailStatus::Closed);
                    }
                    return Ok(TailStatus::Idle);
                }
                Ok(n) => {
                    attempts = 0;
                    self.bytes += n as u64;
                    self.recorder.add("json.bytes", n as u64);
                    self.absorb(&chunk[..n], out);
                    hauled += n;
                    if self.haul_budget.is_some_and(|budget| hauled >= budget) {
                        return Ok(TailStatus::Budget);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(TailStatus::Idle);
                }
                Err(e)
                    if RetryPolicy::is_transient(e.kind()) && attempts < self.retry.max_retries =>
                {
                    self.recorder.add("ingest.retries", 1);
                    std::thread::sleep(self.retry.backoff(attempts));
                    attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn absorb(&mut self, mut bytes: &[u8], out: &mut Vec<TailLine>) {
        while let Some(i) = bytes.iter().position(|&b| b == b'\n') {
            self.push_content(&bytes[..i]);
            let mut content = std::mem::take(&mut self.pending);
            if content.last() == Some(&b'\r') {
                content.pop();
            }
            self.lines += 1;
            out.push(TailLine {
                content,
                truncated: std::mem::take(&mut self.pending_overflow),
            });
            bytes = &bytes[i + 1..];
        }
        self.push_content(bytes);
    }

    fn push_content(&mut self, content: &[u8]) {
        match self.max_line_bytes {
            Some(cap) => {
                let room = cap.saturating_sub(self.pending.len());
                if content.len() > room {
                    self.pending_overflow = true;
                }
                self.pending
                    .extend_from_slice(&content[..content.len().min(room)]);
            }
            None => self.pending.extend_from_slice(content),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, Read};

    fn contents(lines: &[TailLine]) -> Vec<String> {
        lines
            .iter()
            .map(|l| String::from_utf8(l.content.clone()).unwrap())
            .collect()
    }

    /// A stream the test grows between polls: reads drain `data`, then
    /// report EOF until more is pushed.
    struct Growing {
        data: Vec<u8>,
        pos: usize,
    }

    impl Growing {
        fn append(&mut self, more: &[u8]) {
            self.data.extend_from_slice(more);
        }
    }

    impl Read for Growing {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn completes_lines_across_polls() {
        let mut src = Growing {
            data: b"{\"a\":1}\n{\"a\"".to_vec(),
            pos: 0,
        };
        let mut out = Vec::new();
        // First poll: one complete line, partial tail held back.
        {
            let mut tail = TailReader::new(&mut src);
            assert_eq!(tail.poll(&mut out).unwrap(), TailStatus::Idle);
            assert_eq!(contents(&out), vec!["{\"a\":1}"]);
            assert_eq!(tail.pending(), b"{\"a\"");
        }
        // "File grew": rebuild the reader state by replaying — instead,
        // drive one reader over a growing source directly below.
        let mut src = Growing {
            data: b"{\"a\":1}\n{\"a\"".to_vec(),
            pos: 0,
        };
        let mut out = Vec::new();
        let mut tail = TailReader::new(Growing {
            data: Vec::new(),
            pos: 0,
        });
        std::mem::swap(&mut tail.reader, &mut src);
        assert_eq!(tail.poll(&mut out).unwrap(), TailStatus::Idle);
        tail.reader.append(b":2}\n");
        assert_eq!(tail.poll(&mut out).unwrap(), TailStatus::Idle);
        assert_eq!(contents(&out), vec!["{\"a\":1}", "{\"a\":2}"]);
        assert_eq!(tail.lines_read(), 2);
        assert!(tail.pending().is_empty());
    }

    #[test]
    fn crlf_is_normalized_and_blank_lines_surface_empty() {
        let mut tail = TailReader::new(&b"a\r\n\nb\n"[..]);
        let mut out = Vec::new();
        tail.poll(&mut out).unwrap();
        assert_eq!(contents(&out), vec!["a", "", "b"]);
    }

    #[test]
    fn close_on_eof_reports_closed_once_drained() {
        let mut tail = TailReader::new(&b"x\n"[..]).close_on_eof();
        let mut out = Vec::new();
        assert_eq!(tail.poll(&mut out).unwrap(), TailStatus::Closed);
        assert_eq!(contents(&out), vec!["x"]);
        assert_eq!(tail.poll(&mut out).unwrap(), TailStatus::Closed);
    }

    #[test]
    fn take_pending_flushes_the_unterminated_tail() {
        let mut tail = TailReader::new(&b"a\nlast"[..]);
        let mut out = Vec::new();
        tail.poll(&mut out).unwrap();
        assert_eq!(contents(&out), vec!["a"]);
        let last = tail.take_pending().unwrap();
        assert_eq!(last.content, b"last");
        assert!(!last.truncated);
        assert!(tail.take_pending().is_none());
        assert_eq!(tail.lines_read(), 2);
    }

    #[test]
    fn resume_state_continues_mid_line() {
        // Uninterrupted reference run.
        let data: &[u8] = b"{\"a\":1}\n{\"b\"\n{\"c\":3}\n";
        let mut whole = TailReader::new(data);
        let mut expected = Vec::new();
        whole.poll(&mut expected).unwrap();

        // Crash after the first 10 bytes (mid-line), checkpoint the
        // reader state, resume over the remaining bytes.
        let mut before = TailReader::new(&data[..10]);
        let mut out = Vec::new();
        before.poll(&mut out).unwrap();
        let (pending, overflow, bytes, lines) = (
            before.pending().to_vec(),
            before.pending_overflow(),
            before.bytes_read(),
            before.lines_read(),
        );
        let mut resumed = TailReader::new(&data[bytes as usize..])
            .with_resume_state(pending, overflow, bytes, lines);
        resumed.poll(&mut out).unwrap();
        assert_eq!(out, expected);
        assert_eq!(resumed.lines_read(), whole.lines_read());
        assert_eq!(resumed.bytes_read(), whole.bytes_read());
    }

    #[test]
    fn a_haul_budget_splits_a_backlog_without_changing_it() {
        let data: Vec<u8> = (0..5000)
            .flat_map(|i| format!("{{\"n\":{i}}}\n").into_bytes())
            .collect();
        let mut whole = Vec::new();
        TailReader::new(&data[..]).poll(&mut whole).unwrap();

        let budget = data.len() / 3;
        let mut tail = TailReader::new(&data[..]).with_haul_budget(budget);
        let (mut out, mut hauls) = (Vec::new(), 0);
        let mut status = TailStatus::Budget;
        while status == TailStatus::Budget {
            let before = tail.bytes_read();
            status = tail.poll(&mut out).unwrap();
            let hauled = (tail.bytes_read() - before) as usize;
            // One read chunk past the budget at most, and a poll that
            // stopped short of it found the end of the data.
            assert!(hauled < budget + 8192, "hauled {hauled}");
            assert_eq!(status == TailStatus::Budget, hauled >= budget);
            hauls += 1;
        }
        assert_eq!(status, TailStatus::Idle);
        assert_eq!(tail.bytes_read(), data.len() as u64);
        assert!(hauls >= 3, "{hauls} hauls");
        assert_eq!(out, whole);
        assert_eq!(tail.lines_read(), 5000);
        assert!(tail.pending().is_empty());
    }

    #[test]
    fn oversized_lines_are_capped_and_flagged() {
        let data = b"0123456789abcdef\nok\n";
        let mut tail = TailReader::new(&data[..]).with_max_line_bytes(4);
        let mut out = Vec::new();
        tail.poll(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].truncated);
        assert_eq!(out[0].content, b"0123");
        assert!(!out[1].truncated);
        assert_eq!(out[1].content, b"ok");
    }

    /// `WouldBlock` then data, to model a non-blocking socket.
    struct Blocky {
        data: Vec<u8>,
        pos: usize,
        block_next: bool,
    }

    impl Read for Blocky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
            }
            self.block_next = true;
            let n = buf.len().min(2).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn would_block_yields_idle_and_resumes() {
        let mut tail = TailReader::new(Blocky {
            data: b"{\"k\":true}\n".to_vec(),
            pos: 0,
            block_next: true,
        });
        let mut out = Vec::new();
        for _ in 0..32 {
            if tail.poll(&mut out).unwrap() == TailStatus::Idle && !out.is_empty() {
                break;
            }
        }
        assert_eq!(contents(&out), vec!["{\"k\":true}"]);
    }

    #[test]
    fn interrupted_reads_are_retried_and_counted() {
        struct Flaky {
            data: Vec<u8>,
            pos: usize,
            fail_next: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.fail_next && self.pos < self.data.len() {
                    self.fail_next = false;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
                }
                self.fail_next = true;
                let n = buf.len().min(3).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let rec = Recorder::enabled();
        let mut tail = TailReader::new(Flaky {
            data: b"{\"a\":1}\n".to_vec(),
            pos: 0,
            fail_next: true,
        })
        .with_retry(RetryPolicy {
            max_retries: 8,
            base_backoff: std::time::Duration::ZERO,
        })
        .with_recorder(rec.clone());
        let mut out = Vec::new();
        tail.poll(&mut out).unwrap();
        assert_eq!(contents(&out), vec!["{\"a\":1}"]);
        assert!(rec.counter_value("ingest.retries") > 0);
        assert_eq!(rec.counter_value("json.bytes"), 8);
    }
}
