//! # typefuse-serve
//!
//! The resident half of typefuse: a long-running daemon that *keeps*
//! inferring.
//!
//! The batch pipeline ([`typefuse::pipeline::SchemaJob`]) answers "what
//! is the schema of this finished dataset". Real feeds are never
//! finished — logs grow, producers reconnect, shapes drift. The paper's
//! fusion operator is associative, commutative and idempotent
//! (Section 5), which makes *incremental* inference exact: folding each
//! new record into the running schema yields byte-identically the same
//! type a batch run over all bytes would produce. This crate turns that
//! law into a service:
//!
//! * **Sources** — growing NDJSON files ([`SourceInput::File`])
//!   and TCP listeners ([`SourceInput::Tcp`]) are tailed with
//!   [`typefuse_json::TailReader`]; each source folds new records into
//!   a warm accumulator (the shape-dedup interner when dedup is on, a
//!   plain [`typefuse_infer::Incremental`] otherwise) plus a running
//!   per-path profile.
//! * **Snapshots** — whenever a batch of appends changes the schema,
//!   the new version is published to a [`typefuse_registry::Registry`]
//!   (logged on disk or held in memory), and
//!   the structural diff against the previous version becomes a drift
//!   alert.
//! * **Protocol** — clients connect over TCP and speak line-delimited
//!   JSON: one request object per line, one versioned response envelope
//!   per line (see [`protocol`]). Concurrent sessions are served by
//!   plain threads.
//! * **Fault tolerance** — malformed records follow the configured
//!   [`typefuse::ErrorPolicy`] (skip, quarantine to a sidecar, or mark
//!   the source failed), transient I/O errors retry with bounded
//!   backoff, and a panicking poll is caught and counted without taking
//!   the daemon down.
//!
//! ```no_run
//! use typefuse_serve::{Daemon, ServeConfig};
//!
//! let config = ServeConfig::new()
//!     .listen("127.0.0.1:0")
//!     .watch_file("events", "/var/log/events.ndjson");
//! let daemon = Daemon::start(config).unwrap();
//! println!("serving on {}", daemon.addr());
//! daemon.wait();
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod daemon;
mod fold;
pub mod protocol;
mod supervisor;
mod tail;

pub use daemon::{ChaosConfig, Daemon, PollerPanic, ServeConfig, SourceInput, SourceSpec};
pub use fold::SourceStatus;
pub use supervisor::SupervisorPolicy;

/// Lock a source's state or the registry even if a poller panicked
/// while holding it: the supervisor restarts that poller from the state
/// as it stands, and the other sources and the protocol keep serving.
fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
