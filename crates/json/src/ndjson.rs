//! Newline-delimited JSON (NDJSON) lines.
//!
//! All four datasets in the paper's evaluation (GitHub, Twitter, Wikidata,
//! NYTimes) are stored as one JSON object per line. This module reads
//! such streams a line at a time into a reusable buffer; what a line *is*
//! (record, blank or bad record) is decided by the record-fold kernel of
//! the `typefuse` crate, which every driver reads through.
//!
//! Because the paper's inputs are remote multi-gigabyte dumps, the line
//! reader is also where ingestion fault tolerance starts:
//!
//! * [`RetryPolicy`] — bounded retry with exponential backoff for
//!   *transient* I/O errors ([`std::io::ErrorKind::Interrupted`] /
//!   [`std::io::ErrorKind::WouldBlock`]), counted as `ingest.retries`;
//! * [`read_line_bounded`] — a `fill_buf`-level line reader with an
//!   optional `max_line_bytes` guard, so one pathological line degrades
//!   into a [`RecordTooLarge`](crate::ErrorKind::RecordTooLarge) record
//!   instead of ballooning memory.

use crate::value::Value;
use std::io::BufRead;
use std::time::Duration;
use typefuse_obs::Recorder;

/// Bounded retry with exponential backoff for transient I/O errors.
///
/// Only [`std::io::ErrorKind::Interrupted`] and
/// [`std::io::ErrorKind::WouldBlock`] are considered transient; every
/// other error kind fails immediately. Retrying a buffered line read is
/// safe because partial data already appended to the line buffer is kept
/// — the next attempt continues exactly where the stream stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries per failing read (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt (capped at
    /// 100 ms).
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four retries starting at 2 ms — enough to ride out signal
    /// interruptions and momentary `WouldBlock`s without stalling a
    /// genuinely dead source for long.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Never retry: every I/O error is surfaced immediately.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::ZERO,
        }
    }

    /// Whether an error kind is worth retrying.
    pub fn is_transient(kind: std::io::ErrorKind) -> bool {
        matches!(
            kind,
            std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
        )
    }

    /// Backoff before retry number `attempt` (0-based): exponential from
    /// `base_backoff`, capped at 100 ms.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let cap = Duration::from_millis(100);
        self.base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(cap)
    }
}

/// Outcome of [`read_line_bounded`]: how many raw bytes the line consumed
/// from the stream (including its newline) and whether the content was cut
/// off by the `max_line_bytes` guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawLine {
    /// Raw bytes consumed, including the trailing newline if present.
    /// Zero means end of input (no line).
    pub consumed: usize,
    /// The line exceeded `max_line_bytes`; `buf` holds only the first
    /// `max_line_bytes` bytes of its content.
    pub truncated: bool,
}

/// Read one line's *content* (no trailing newline) into `buf`, retrying
/// transient I/O errors per `policy` (each retry counts `ingest.retries`
/// on `rec`) and capping the buffered content at `max_line_bytes`.
///
/// Oversized lines are still consumed from the stream to the next
/// newline — only the buffer is bounded — so the reader stays positioned
/// on record boundaries and can keep going under a skip/quarantine
/// policy.
pub fn read_line_bounded<R: BufRead + ?Sized>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max_line_bytes: Option<usize>,
    policy: RetryPolicy,
    rec: &Recorder,
) -> std::io::Result<RawLine> {
    let mut consumed = 0usize;
    let mut truncated = false;
    let mut attempts = 0u32;
    loop {
        let (take, done) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => {
                    attempts = 0;
                    chunk
                }
                Err(e) if RetryPolicy::is_transient(e.kind()) && attempts < policy.max_retries => {
                    rec.add("ingest.retries", 1);
                    std::thread::sleep(policy.backoff(attempts));
                    attempts += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(RawLine {
                    consumed,
                    truncated,
                });
            }
            let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (chunk.len(), false),
            };
            let content = if done { take - 1 } else { take };
            match max_line_bytes {
                Some(cap) => {
                    let room = cap.saturating_sub(buf.len());
                    if content > room {
                        truncated = true;
                    }
                    buf.extend_from_slice(&chunk[..content.min(room)]);
                }
                None => buf.extend_from_slice(&chunk[..content]),
            }
            (take, done)
        };
        reader.consume(take);
        consumed += take;
        if done {
            return Ok(RawLine {
                consumed,
                truncated,
            });
        }
    }
}

/// Trim ASCII whitespace from both ends of a byte slice.
/// (A local stand-in for `slice::trim_ascii`, which is newer than this
/// workspace's MSRV.)
pub fn trim_ascii_bytes(mut bytes: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = bytes {
        if first.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = bytes {
        if last.is_ascii_whitespace() {
            bytes = rest;
        } else {
            break;
        }
    }
    bytes
}

/// Serialize an iterator of values as NDJSON into a writer.
pub fn write_ndjson<'a, W, I>(mut writer: W, values: I) -> std::io::Result<u64>
where
    W: std::io::Write,
    I: IntoIterator<Item = &'a Value>,
{
    let mut bytes = 0u64;
    for v in values {
        let line = crate::ser::to_string(v);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        bytes += line.len() as u64 + 1;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::io::{self, Read};

    /// Every line of `reader` as `(content, truncated)`, the way the
    /// record-fold kernel reads them.
    fn lines_of<R: BufRead>(
        mut reader: R,
        cap: Option<usize>,
        policy: RetryPolicy,
        rec: &Recorder,
    ) -> io::Result<Vec<(Vec<u8>, bool)>> {
        let mut out = Vec::new();
        loop {
            let mut buf = Vec::new();
            let raw = read_line_bounded(&mut reader, &mut buf, cap, policy, rec)?;
            if raw.consumed == 0 {
                return Ok(out);
            }
            out.push((buf, raw.truncated));
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let values = vec![json!({"k": [1, 2.5, "s"]}), json!(null), json!([{}])];
        let mut buf = Vec::new();
        let bytes = write_ndjson(&mut buf, &values).unwrap();
        assert_eq!(bytes, buf.len() as u64);
        let lines = lines_of(&buf[..], None, RetryPolicy::none(), &Recorder::disabled());
        let back: Vec<Value> = lines
            .unwrap()
            .iter()
            .map(|(line, _)| crate::parse_value(std::str::from_utf8(line).unwrap()).unwrap())
            .collect();
        assert_eq!(back, values);
    }

    #[test]
    fn lines_read_counts_blanks() {
        let lines = lines_of(
            "\n{}\n".as_bytes(),
            None,
            RetryPolicy::none(),
            &Recorder::disabled(),
        );
        assert_eq!(lines.unwrap(), [(vec![], false), (b"{}".to_vec(), false)]);
    }

    /// Yields `Interrupted`/`WouldBlock` before every real chunk.
    struct Flaky<'a> {
        data: &'a [u8],
        pos: usize,
        fail_next: bool,
        kind: io::ErrorKind,
    }

    impl Read for Flaky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.fail_next && self.pos < self.data.len() {
                self.fail_next = false;
                return Err(io::Error::new(self.kind, "transient"));
            }
            self.fail_next = true;
            let n = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn transient_errors_are_retried_and_counted() {
        for kind in [io::ErrorKind::Interrupted, io::ErrorKind::WouldBlock] {
            let data = "{\"a\":1}\n{\"a\":2}\n";
            let rec = typefuse_obs::Recorder::enabled();
            let flaky = Flaky {
                data: data.as_bytes(),
                pos: 0,
                fail_next: true,
                kind,
            };
            let policy = RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::ZERO,
            };
            let lines = lines_of(io::BufReader::with_capacity(4, flaky), None, policy, &rec);
            let lines: Vec<Vec<u8>> = lines.unwrap().into_iter().map(|(l, _)| l).collect();
            assert_eq!(lines, [&b"{\"a\":1}"[..], b"{\"a\":2}"], "{kind:?}");
            assert!(rec.counter_value("ingest.retries") > 0, "{kind:?}");
        }
    }

    #[test]
    fn exhausted_retries_surface_the_io_error() {
        let flaky = Flaky {
            data: b"{\"a\":1}\n",
            pos: 0,
            fail_next: true,
            kind: io::ErrorKind::WouldBlock,
        };
        let reader = io::BufReader::with_capacity(4, flaky);
        let err = lines_of(reader, None, RetryPolicy::none(), &Recorder::disabled()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn oversized_line_degrades_to_record_too_large() {
        let data = "{\"small\":1}\n{\"large\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"small\":2}\n";
        let lines = lines_of(
            data.as_bytes(),
            Some(16),
            RetryPolicy::none(),
            &Recorder::disabled(),
        );
        // The guard bounds the buffer and flags the line (the kernel turns
        // the flag into `RecordTooLarge`); the line is fully consumed, so
        // reading goes on at the next record.
        let lines = lines.unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], (b"{\"small\":1}".to_vec(), false));
        assert_eq!(lines[1], (b"{\"large\":\"xxxxxx".to_vec(), true));
        assert_eq!(lines[2], (b"{\"small\":2}".to_vec(), false));
    }

    #[test]
    fn bounded_reader_handles_missing_final_newline() {
        let mut buf = Vec::new();
        let mut reader: &[u8] = b"{\"a\":1}";
        let raw = read_line_bounded(
            &mut reader,
            &mut buf,
            None,
            RetryPolicy::none(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(raw.consumed, 7);
        assert!(!raw.truncated);
        assert_eq!(buf, b"{\"a\":1}");
    }

    #[test]
    fn trim_ascii_bytes_trims_both_ends() {
        assert_eq!(trim_ascii_bytes(b"  {} \r\n"), b"{}");
        assert_eq!(trim_ascii_bytes(b"\t\n "), b"");
        assert_eq!(trim_ascii_bytes(b""), b"");
    }
}
