//! A client session of the serve protocol: one JSON request per line,
//! one response envelope per line, over TCP.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;
use typefuse::json::{Envelope, Value};

pub const HEALTH: &str = r#"{"op":"health"}"#;
pub const METRICS: &str = r#"{"op":"metrics"}"#;
pub const SCHEMA: &str = r#"{"op":"schema","source":"s"}"#;
pub const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;

/// A request that gets no answer for this long has failed.
const TIMEOUT: Duration = Duration::from_secs(10);

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

pub struct Client {
    reader: BufReader<TcpStream>,
    quick_ack: bool,
}

impl Client {
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream),
            quick_ack: false,
        })
    }

    /// A session that measures the daemon, not TCP: acknowledge every
    /// segment at once. The daemon writes a response in two segments
    /// without `TCP_NODELAY`, so an ordinary client's delayed ACK holds
    /// the second one back for about 40 ms, which would quantise every
    /// time read off this session.
    pub fn connect_probe(addr: &str) -> io::Result<Client> {
        let mut client = Client::connect(addr)?;
        client.quick_ack = true;
        Ok(client)
    }

    /// Send one request line and read the one-line response.
    pub fn request(&mut self, request: &str) -> io::Result<String> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{request}\n").as_bytes())?;
        if self.quick_ack {
            // Linux clears the option as it sees fit, so set it per request.
            const IPPROTO_TCP: i32 = 6;
            const TCP_QUICKACK: i32 = 12;
            let on = 1i32;
            // SAFETY: the descriptor is this open socket's, `on` outlives
            // the call and its size is the length passed.
            let set = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
            if set != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the session",
            ));
        }
        Ok(line)
    }
}

/// Lines the daemon has consumed from source `s` according to a
/// `health` response: folded records plus skipped ones.
pub fn health_lines(response: &str) -> Result<u64, String> {
    let envelope = Envelope::expect_kind(response, "health")?;
    let source = envelope
        .payload
        .get("sources")
        .and_then(|s| s.get_index(0))
        .ok_or("health response lists no source")?;
    let field = |name: &str| {
        source
            .get(name)
            .and_then(Value::as_i64)
            .ok_or(format!("health source has no numeric `{name}`"))
    };
    Ok((field("records")? + field("skipped")?) as u64)
}

/// The same count from a `metrics` response, whose size does not grow
/// with the source's history as a `health` response's does (it lists
/// every drift alert since the start): the one to poll.
pub fn metrics_lines(response: &str) -> Result<u64, String> {
    let envelope = Envelope::expect_kind(response, "telemetry")?;
    let series = |family: &str, name: &str| {
        envelope
            .payload
            .get(family)
            .and_then(|f| f.get(name))
            .and_then(Value::as_i64)
            .ok_or(format!("telemetry has no numeric {family} `{name}`"))
    };
    let records = series("counters", r#"typefuse_source_records{source="s"}"#)?;
    let skipped = series("gauges", r#"typefuse_source_skipped{source="s"}"#)?;
    Ok((records + skipped) as u64)
}

/// `(schema text, skipped count)` of a `schema` response.
pub fn schema_payload(response: &str) -> Result<(String, u64), String> {
    let envelope = Envelope::expect_kind(response, "schema")?;
    let schema = envelope
        .payload
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("schema response has no `schema` string")?;
    let skipped = envelope
        .payload
        .get("skipped")
        .and_then(Value::as_i64)
        .ok_or("schema response has no numeric `skipped`")?;
    Ok((schema.to_string(), skipped as u64))
}

/// Whether a response line is an envelope of `kind`, judged from its
/// head — the reader session checks every response without parsing a
/// schema of hundreds of kilobytes each time.
pub fn is_kind(response: &str, kind: &str) -> bool {
    let head = &response.as_bytes()[..response.len().min(80)];
    let needle = format!(r#""kind":"{kind}""#);
    head.windows(needle.len()).any(|w| w == needle.as_bytes())
}
