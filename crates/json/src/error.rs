//! Parse errors with precise source positions.
//!
//! Every error produced by the [parser](crate::parse) carries a [`Span`]
//! (byte offsets plus line/column of the start) so that malformed records in
//! a multi-gigabyte NDJSON dump can be located exactly. This matters for
//! the paper's workloads: a single bad record among millions must be
//! reportable without re-scanning the input.

use std::fmt;

/// A convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// A position in the input text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Position {
    /// Byte offset from the start of the input (0-based).
    pub offset: usize,
    /// Line number (1-based); 0 when unknown, as for a line read by byte
    /// range, which the offset locates instead.
    pub line: u32,
    /// Column number in bytes (1-based).
    pub column: u32,
}

impl Position {
    /// The position of the first byte of an input.
    pub const fn start() -> Self {
        Position {
            offset: 0,
            line: 1,
            column: 1,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "byte {}, column {}", self.offset, self.column),
            line => write!(f, "line {line}, column {}", self.column),
        }
    }
}

/// A half-open byte range `[start, end)` in the input, with the line/column
/// of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Where the offending token starts.
    pub start: Position,
    /// Byte offset one past the end of the offending token.
    pub end: usize,
}

impl Span {
    /// A span covering a single byte at `pos`.
    pub fn point(pos: Position) -> Self {
        Span {
            start: pos,
            end: pos.offset + 1,
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start.offset)
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected construct.
    UnexpectedByte(u8),
    /// A literal (`true`, `false`, `null`) was misspelt.
    InvalidLiteral,
    /// A number violated the RFC 8259 grammar (e.g. `01`, `1.`, `+5`).
    InvalidNumber,
    /// A number was syntactically valid but does not fit any supported
    /// representation (overflowing exponent etc.).
    NumberOutOfRange,
    /// A string contained an invalid escape sequence.
    InvalidEscape,
    /// A `\u` escape did not form a valid Unicode scalar value (lone
    /// surrogate or malformed hex digits).
    InvalidUnicodeEscape,
    /// A raw control character (U+0000..=U+001F) appeared inside a string.
    ControlCharacterInString,
    /// The input was not valid UTF-8.
    InvalidUtf8,
    /// An object contained the same key twice; the data model requires
    /// unique keys (Section 4 of the paper).
    DuplicateKey(String),
    /// Nesting exceeded the configured recursion limit.
    RecursionLimitExceeded,
    /// Extra non-whitespace input after a complete value.
    TrailingCharacters,
    /// A comma with nothing after it, e.g. `[1,]`.
    TrailingComma,
    /// A colon or comma was expected.
    ExpectedSeparator(char),
    /// An object key (a string) was expected.
    ExpectedKey,
    /// An I/O error from the underlying reader (NDJSON streaming).
    Io(String),
    /// A single record line exceeded the configured size guard
    /// (`max_line_bytes`); the payload is the configured cap.
    RecordTooLarge(usize),
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ErrorKind::UnexpectedByte(b) => {
                if b.is_ascii_graphic() {
                    write!(f, "unexpected character `{}`", *b as char)
                } else {
                    write!(f, "unexpected byte 0x{b:02x}")
                }
            }
            ErrorKind::InvalidLiteral => write!(f, "invalid literal"),
            ErrorKind::InvalidNumber => write!(f, "invalid number"),
            ErrorKind::NumberOutOfRange => write!(f, "number out of range"),
            ErrorKind::InvalidEscape => write!(f, "invalid escape sequence"),
            ErrorKind::InvalidUnicodeEscape => write!(f, "invalid \\u escape"),
            ErrorKind::ControlCharacterInString => {
                write!(f, "raw control character in string")
            }
            ErrorKind::InvalidUtf8 => write!(f, "invalid UTF-8"),
            ErrorKind::DuplicateKey(k) => write!(f, "duplicate object key {k:?}"),
            ErrorKind::RecursionLimitExceeded => write!(f, "recursion limit exceeded"),
            ErrorKind::TrailingCharacters => write!(f, "trailing characters after value"),
            ErrorKind::TrailingComma => write!(f, "trailing comma"),
            ErrorKind::ExpectedSeparator(c) => write!(f, "expected `{c}`"),
            ErrorKind::ExpectedKey => write!(f, "expected object key"),
            ErrorKind::Io(e) => write!(f, "I/O error: {e}"),
            ErrorKind::RecordTooLarge(cap) => {
                write!(f, "record exceeds the line-size guard of {cap} bytes")
            }
        }
    }
}

/// A parse error: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    span: Span,
}

impl Error {
    /// Create an error at a span.
    pub fn new(kind: ErrorKind, span: Span) -> Self {
        Error { kind, span }
    }

    /// Create an error covering the single byte at `pos`.
    pub fn at(kind: ErrorKind, pos: Position) -> Self {
        Error {
            kind,
            span: Span::point(pos),
        }
    }

    /// The error category.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// The source location of the error.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.kind, self.span.start)
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::at(ErrorKind::Io(e.to_string()), Position::start())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_display() {
        let p = Position {
            offset: 10,
            line: 2,
            column: 5,
        };
        assert_eq!(p.to_string(), "line 2, column 5");
        let unknown_line = Position { line: 0, ..p };
        assert_eq!(unknown_line.to_string(), "byte 10, column 5");
    }

    #[test]
    fn span_point_len() {
        let s = Span::point(Position {
            offset: 3,
            line: 1,
            column: 4,
        });
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn error_display_includes_location() {
        let e = Error::at(ErrorKind::UnexpectedEof, Position::start());
        assert_eq!(e.to_string(), "unexpected end of input at line 1, column 1");
    }

    #[test]
    fn error_display_graphic_byte() {
        let e = Error::at(ErrorKind::UnexpectedByte(b'}'), Position::start());
        assert!(e.to_string().contains("unexpected character `}`"));
    }

    #[test]
    fn error_display_nongraphic_byte() {
        let e = Error::at(ErrorKind::UnexpectedByte(0x07), Position::start());
        assert!(e.to_string().contains("0x07"));
    }

    #[test]
    fn duplicate_key_names_the_key() {
        let e = Error::at(ErrorKind::DuplicateKey("id".into()), Position::start());
        assert!(e.to_string().contains("\"id\""));
    }
}
