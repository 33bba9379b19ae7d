//! The façade crate's unified error type.
//!
//! The pipeline entry points used to leak `typefuse_json::Error` (which
//! smuggled I/O failures through `ErrorKind::Io(String)`); the CLI then
//! re-wrapped both into its own error. [`Error`] consolidates the
//! failure modes every ingestion path actually has — the input could not
//! be *read*, a record could not be *parsed*, an error-policy budget was
//! exhausted, or a worker thread panicked — so `SchemaJob::run`, the
//! split reader and the CLI all speak one type.

use std::fmt;

use typefuse_json::Span;

/// Where in the input stream a mid-stream I/O failure happened.
///
/// NDJSON line readers know the 1-based line they were on; the split
/// reader knows the byte offset and the split index. Carrying whichever
/// coordinates are available makes "the read failed" actionable on a
/// multi-gigabyte file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSite {
    /// Absolute byte offset in the input, when known.
    pub offset: Option<u64>,
    /// 1-based line number, when known (NDJSON streams).
    pub line: Option<u32>,
    /// Split index, when the input was read in parallel splits.
    pub split: Option<usize>,
}

impl IoSite {
    /// A site known only by line number.
    pub fn line(line: u32) -> Self {
        IoSite {
            line: Some(line),
            ..IoSite::default()
        }
    }

    /// A site known only by byte offset.
    pub fn offset(offset: u64) -> Self {
        IoSite {
            offset: Some(offset),
            ..IoSite::default()
        }
    }

    /// Attach the split index.
    pub fn in_split(mut self, split: usize) -> Self {
        self.split = Some(split);
        self
    }

    fn is_known(&self) -> bool {
        self.offset.is_some() || self.line.is_some() || self.split.is_some()
    }
}

impl fmt::Display for IoSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(offset) = self.offset {
            write!(f, "byte {offset}")?;
            sep = ", ";
        }
        if let Some(line) = self.line {
            write!(f, "{sep}line {line}")?;
            sep = ", ";
        }
        if let Some(split) = self.split {
            write!(f, "{sep}split {split}")?;
        }
        Ok(())
    }
}

/// Any failure of a pipeline run: I/O on the input, a malformed record,
/// an exhausted error budget, or a panicking worker.
#[derive(Debug)]
pub enum Error {
    /// A record failed to parse. The inner error's position is anchored
    /// to the input (line number for NDJSON streams, byte offset for
    /// file splits).
    Parse(typefuse_json::Error),
    /// The input could not be read. `site` locates the failed read in
    /// the stream when the reader knows where it was.
    Io {
        /// The underlying I/O error.
        source: std::io::Error,
        /// Stream coordinates of the failed read, when known.
        site: IoSite,
    },
    /// A `Skip`/`Quarantine` error policy ran out of budget: the run
    /// stopped at the bad record after the `limit`th. `first` is the
    /// earliest bad record (deterministic under any partitioning).
    Budget {
        /// The configured `max_errors` that was exceeded.
        limit: u64,
        /// The earliest parse error in input order.
        first: Box<typefuse_json::Error>,
    },
    /// A worker thread panicked; the run was isolated and aborted
    /// cleanly instead of tearing down the process.
    Worker(crate::engine::WorkerPanic),
}

impl Error {
    /// An I/O error with known stream coordinates.
    pub fn io_at(source: std::io::Error, site: IoSite) -> Self {
        Error::Io { source, site }
    }

    /// The input span of the offending record (`None` for I/O and
    /// worker errors). A budget error reports the span of the earliest
    /// bad record.
    pub fn span(&self) -> Option<Span> {
        match self {
            Error::Parse(e) => Some(e.span()),
            Error::Budget { first, .. } => Some(first.span()),
            Error::Io { .. } | Error::Worker(_) => None,
        }
    }

    /// Whether this is an I/O (read) failure.
    pub fn is_io(&self) -> bool {
        matches!(self, Error::Io { .. })
    }

    /// Whether this is an exhausted error budget.
    pub fn is_budget(&self) -> bool {
        matches!(self, Error::Budget { .. })
    }

    /// Whether this is an isolated worker panic.
    pub fn is_worker(&self) -> bool {
        matches!(self, Error::Worker(_))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Io { source, site } if site.is_known() => {
                write!(f, "input error at {site}: {source}")
            }
            Error::Io { source, .. } => write!(f, "input error: {source}"),
            Error::Budget { limit, first } => write!(
                f,
                "error budget exceeded: more than {limit} bad records; first: {first}"
            ),
            Error::Worker(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Io { source, .. } => Some(source),
            Error::Budget { first, .. } => Some(first),
            Error::Worker(p) => Some(p),
        }
    }
}

impl From<typefuse_json::Error> for Error {
    fn from(e: typefuse_json::Error) -> Self {
        Error::Parse(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(source: std::io::Error) -> Self {
        Error::Io {
            source,
            site: IoSite::default(),
        }
    }
}

impl From<crate::engine::WorkerPanic> for Error {
    fn from(p: crate::engine::WorkerPanic) -> Self {
        Error::Worker(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::parse_value;

    #[test]
    fn parse_errors_keep_their_span() {
        let inner = parse_value("{oops").unwrap_err();
        let span = inner.span();
        let err = Error::from(inner);
        assert_eq!(err.span(), Some(span));
        assert!(!err.is_io());
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn io_errors_have_no_span() {
        let err = Error::from(std::io::Error::other("disk on fire"));
        assert!(err.is_io());
        assert_eq!(err.span(), None);
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn io_site_appears_in_the_message() {
        let err = Error::io_at(
            std::io::Error::other("reset by peer"),
            IoSite::offset(4096).in_split(3),
        );
        let msg = err.to_string();
        assert!(msg.contains("byte 4096"), "{msg}");
        assert!(msg.contains("split 3"), "{msg}");
        assert!(msg.contains("reset by peer"), "{msg}");

        let err = Error::io_at(std::io::Error::other("gone"), IoSite::line(17));
        assert!(err.to_string().contains("line 17"));
    }

    #[test]
    fn budget_error_reports_count_limit_and_first() {
        let first = parse_value("{oops").unwrap_err();
        let span = first.span();
        let err = Error::Budget {
            limit: 10,
            first: Box::new(first),
        };
        assert!(err.is_budget());
        assert_eq!(err.span(), Some(span));
        let msg = err.to_string();
        assert!(msg.contains("more than 10 bad records"), "{msg}");
        assert!(msg.contains("first: "), "{msg}");
    }

    #[test]
    fn worker_panics_convert() {
        let err = Error::from(crate::engine::WorkerPanic {
            partition: 2,
            message: "boom".into(),
            panics: 1,
        });
        assert!(err.is_worker());
        assert!(err.to_string().contains("partition 2"));
    }
}
