//! The resident daemon: supervised source pollers, durable checkpoints,
//! the registry publisher, and the TCP protocol listener.

use crate::checkpoint::{self, Checkpointer};
use crate::fold::SourceState;
use crate::protocol::{self, MetricsFormat, Request};
use crate::supervisor::{
    sliced_sleep, spawn_supervised, spawn_ticker, Exit, Supervised, SupervisorCells,
    SupervisorPolicy,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use typefuse::JobConfig;
use typefuse_json::{TailLine, TailReader, TailStatus};
use typefuse_obs::{envelope, series_key, EventLog, JsonWriter, Level, Recorder, TelemetryHub};
use typefuse_registry::{CompatMode, Registry};

/// Sliding window over which `typefuse_source_records_per_sec` averages.
const RATE_WINDOW: Duration = Duration::from_secs(5);

/// What one poll of a watched file, or of one producer connection,
/// reads before its lines are folded: a daemon started on a large
/// backlog, or fed faster than it folds, holds one haul in memory, not
/// all of it, and serves the partial fold between hauls.
const HAUL_BUDGET_BYTES: usize = 8 << 20;

/// Where a source's NDJSON bytes come from.
#[derive(Debug, Clone)]
pub enum SourceInput {
    /// A growing file or FIFO, tailed from the start.
    File(PathBuf),
    /// A TCP listener address; every accepted connection streams NDJSON
    /// into the source.
    Tcp(String),
}

/// One named NDJSON source.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// The source (and registry subject) name.
    pub name: String,
    /// Where the bytes come from.
    pub input: SourceInput,
}

/// Injected poller fault: panic the named source's poll loop.
#[derive(Debug, Clone)]
pub struct PollerPanic {
    /// The source whose poller crashes.
    pub source: String,
    /// Panic once the source's folded record count reaches this.
    pub at_records: u64,
    /// How many times to crash before behaving (so tests can observe
    /// both bounded restarts and the eventual recovery).
    pub times: u32,
}

/// Daemon-level fault injection, for the chaos tests. All fields
/// default to "no faults"; production configs never set them.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic a source's poll loop at a record count, N times.
    pub poller_panic: Option<PollerPanic>,
    /// Fail this many checkpoint writes with an injected I/O error
    /// (each failed write is retried on the next checkpoint tick).
    pub checkpoint_write_failures: u32,
}

/// Daemon configuration. The ingest knobs (error policy, parser
/// limits, fuse configuration, dedup mode, recorder) come from the same
/// [`JobConfig`] the batch pipeline uses — one configuration surface
/// for batch and resident alike.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Protocol listener address (use port 0 for an ephemeral port).
    pub listen: String,
    /// How often each source is polled for new bytes.
    pub poll_interval: Duration,
    /// Shared ingest configuration.
    pub job: JobConfig,
    /// On-disk registry log; `None` keeps snapshots in memory.
    pub registry_path: Option<PathBuf>,
    /// Compatibility gate applied to every published snapshot.
    pub compat: CompatMode,
    /// The sources to fold.
    pub sources: Vec<SourceSpec>,
    /// Tee every accepted event to this JSONL file.
    pub log_sink: Option<PathBuf>,
    /// Minimum event level retained by the event log.
    pub log_level: Level,
    /// How many events the in-memory ring retains.
    pub event_capacity: usize,
    /// Open a Chrome-trace span per poll fold and protocol request.
    /// Off by default: a resident daemon would grow the trace buffer
    /// without bound; the CLI enables it only under `--trace-json`.
    pub trace_spans: bool,
    /// Persist per-source checkpoints under this directory and resume
    /// from them at startup; `None` disables durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// How often dirty sources are checkpointed.
    pub checkpoint_interval: Duration,
    /// Concurrent protocol sessions beyond which new connections are
    /// rejected with an error envelope.
    pub max_sessions: usize,
    /// Close a session that has not sent a request for this long;
    /// `None` keeps idle sessions open forever.
    pub session_idle: Option<Duration>,
    /// Write timeout on session sockets, bounding how long a slow or
    /// stalled client can pin a session (or watch) thread.
    pub write_timeout: Option<Duration>,
    /// Poller restart/backoff/breaker thresholds.
    pub supervisor: SupervisorPolicy,
    /// Fault injection (tests only).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            poll_interval: Duration::from_millis(50),
            job: JobConfig::new(),
            registry_path: None,
            compat: CompatMode::None,
            sources: Vec::new(),
            log_sink: None,
            log_level: Level::Info,
            event_capacity: 1024,
            trace_spans: false,
            checkpoint_dir: None,
            checkpoint_interval: Duration::from_millis(1000),
            max_sessions: 256,
            session_idle: None,
            write_timeout: Some(Duration::from_secs(10)),
            supervisor: SupervisorPolicy::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The default configuration: loopback ephemeral port, 50 ms polls,
    /// in-memory registry, no sources.
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// Set the protocol listener address.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Set the source poll interval.
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.poll_interval = interval;
        self
    }

    /// Set the shared ingest configuration.
    pub fn job(mut self, job: JobConfig) -> Self {
        self.job = job;
        self
    }

    /// Persist snapshots to an on-disk registry log.
    pub fn registry(mut self, path: impl Into<PathBuf>) -> Self {
        self.registry_path = Some(path.into());
        self
    }

    /// Gate snapshot publishes with a compatibility mode.
    pub fn compat(mut self, mode: CompatMode) -> Self {
        self.compat = mode;
        self
    }

    /// Watch a growing NDJSON file (or FIFO) as a named source.
    pub fn watch_file(mut self, name: impl Into<String>, path: impl Into<PathBuf>) -> Self {
        self.sources.push(SourceSpec {
            name: name.into(),
            input: SourceInput::File(path.into()),
        });
        self
    }

    /// Listen on `addr` for NDJSON-producing TCP connections as a
    /// named source.
    pub fn tcp_source(mut self, name: impl Into<String>, addr: impl Into<String>) -> Self {
        self.sources.push(SourceSpec {
            name: name.into(),
            input: SourceInput::Tcp(addr.into()),
        });
        self
    }

    /// Tee every accepted event to `path` as JSONL.
    pub fn log_sink(mut self, path: impl Into<PathBuf>) -> Self {
        self.log_sink = Some(path.into());
        self
    }

    /// Set the minimum retained event level.
    pub fn log_level(mut self, level: Level) -> Self {
        self.log_level = level;
        self
    }

    /// Set how many events the in-memory ring retains.
    pub fn event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Open Chrome-trace spans for poll folds and protocol requests.
    pub fn trace_spans(mut self, on: bool) -> Self {
        self.trace_spans = on;
        self
    }

    /// Persist per-source checkpoints under `dir` and resume from them.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Set how often dirty sources are checkpointed.
    pub fn checkpoint_interval(mut self, interval: Duration) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Cap concurrent protocol sessions.
    pub fn max_sessions(mut self, cap: usize) -> Self {
        self.max_sessions = cap;
        self
    }

    /// Close sessions idle for longer than `timeout`.
    pub fn session_idle_timeout(mut self, timeout: Duration) -> Self {
        self.session_idle = Some(timeout);
        self
    }

    /// Bound how long a write to a slow client may block.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }

    /// Set poller restart/backoff/breaker thresholds.
    pub fn supervisor(mut self, policy: SupervisorPolicy) -> Self {
        self.supervisor = policy;
        self
    }

    /// Inject daemon-level faults (tests only).
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }
}

/// Shared daemon state: protocol sessions read it, pollers write it.
struct Shared {
    stop: Arc<AtomicBool>,
    started: Instant,
    recorder: Recorder,
    hub: TelemetryHub,
    events: EventLog,
    trace_spans: bool,
    compat: CompatMode,
    max_sessions: usize,
    session_idle: Option<Duration>,
    write_timeout: Option<Duration>,
    sources: BTreeMap<String, Arc<Mutex<SourceState>>>,
    registry: Mutex<Registry>,
}

/// How the session loop delivers a response: one envelope, or a
/// telemetry stream (the `watch` op) that keeps writing until the
/// client disconnects or the daemon stops.
enum Reply {
    One(String),
    Watch { interval: Duration },
}

impl Shared {
    fn source(&self, name: &str) -> Result<&Arc<Mutex<SourceState>>, String> {
        self.sources.get(name).ok_or_else(|| {
            let known: Vec<&str> = self.sources.keys().map(String::as_str).collect();
            format!("unknown source `{name}` (known: {})", known.join(", "))
        })
    }

    /// Route one parsed request to its reply.
    fn respond(&self, request: &Request) -> Reply {
        let result = match request {
            Request::Schema { source } => self.source(source).map(|s| {
                protocol::schema_response(
                    &mut s.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
                )
            }),
            Request::Profile { source } => self.source(source).and_then(|s| {
                protocol::profile_response(
                    &s.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
                )
            }),
            Request::Explain { source, path } => self.source(source).and_then(|s| {
                protocol::explain_response(
                    &s.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
                    path,
                )
            }),
            Request::Health => Ok(self.health_response()),
            Request::Diff { source, from, to } => self.source(source).and_then(|_| {
                let registry = self
                    .registry
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                registry
                    .diff(source, *from, *to)
                    .map(|changes| protocol::diff_response(source, *from, *to, &changes))
                    .map_err(|e| e.to_string())
            }),
            Request::Metrics { format } => Ok(match format {
                MetricsFormat::Json => self.metrics_response(),
                MetricsFormat::Prometheus => self.prometheus_response(),
            }),
            Request::Watch { interval_ms } => {
                return Reply::Watch {
                    interval: Duration::from_millis(*interval_ms),
                }
            }
            Request::Shutdown => {
                self.stop.store(true, Ordering::Release);
                Ok(envelope("ok", "{\"stopping\":true}"))
            }
        };
        Reply::One(result.unwrap_or_else(|message| protocol::error_response(&message)))
    }

    fn health_response(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("uptime_ms")
            .number(self.started.elapsed().as_millis() as u64);
        w.key("records");
        w.number(
            self.sources
                .values()
                .map(|s| {
                    s.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .records()
                })
                .sum::<u64>(),
        );
        w.key("sources");
        w.begin_array();
        for state in self.sources.values() {
            protocol::write_source_health(
                &mut w,
                &state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        w.end_array();
        w.end_object();
        envelope("health", &w.finish())
    }

    /// Refresh the daemon-level series a sample should carry: uptime
    /// (approx — wall clock) and per-level event counts (deterministic
    /// for a fixed fold sequence, so they live in `gauges`).
    fn refresh_daemon_series(&self) {
        self.hub
            .approx_gauge("typefuse_uptime_ms")
            .set(self.started.elapsed().as_millis() as u64);
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            self.hub
                .gauge(series_key("typefuse_events", &[("level", level.name())]))
                .set(self.events.count(level));
        }
    }

    /// One `telemetry` snapshot envelope.
    fn metrics_response(&self) -> String {
        self.refresh_daemon_series();
        envelope("telemetry", &self.hub.sample().to_json())
    }

    /// One `prometheus` envelope: the text exposition 0.0.4 document as
    /// a JSON string payload, so the response stays one line.
    fn prometheus_response(&self) -> String {
        self.refresh_daemon_series();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("content_type").string("text/plain; version=0.0.4");
        w.key("text").string(&self.hub.sample().to_prometheus());
        w.end_object();
        envelope("prometheus", &w.finish())
    }
}

/// The tailing end of one source, owned by its poller incarnation.
enum SourceTail {
    /// A file that may not exist yet; reopened each tick until it does.
    PendingFile(PathBuf),
    /// An open growing file / FIFO, keeping the path so the poller can
    /// stat it for tail lag and rotation detection.
    File(PathBuf, TailReader<std::fs::File>),
    /// A TCP listener plus every live producer connection.
    Tcp {
        listener: TcpListener,
        conns: Vec<TailReader<TcpStream>>,
        /// Bytes consumed by connections that have since closed.
        closed_bytes: u64,
    },
}

/// A running `typefuse serve` daemon.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    pollers: Vec<Supervised>,
    checkpointer: Option<Arc<Mutex<Checkpointer>>>,
    checkpoint_task: Option<Supervised>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    recorder: Recorder,
}

impl Daemon {
    /// Bind the protocol listener, open the registry, load per-source
    /// checkpoints (when a checkpoint dir is configured), and start one
    /// supervised poller per source. Returns once everything is
    /// listening.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        let recorder = config.job.recorder.clone();
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let events = match &config.log_sink {
            Some(path) => EventLog::with_sink(config.event_capacity, config.log_level, path)
                .map_err(|e| {
                    std::io::Error::other(format!("cannot open event log sink {path:?}: {e}"))
                })?,
            None => EventLog::new(config.event_capacity, config.log_level),
        };
        events.log(
            Level::Info,
            "daemon",
            "boot",
            format!("listening on {addr}"),
        );

        let registry = match &config.registry_path {
            Some(path) => {
                let registry = Registry::open(path).map_err(|e| {
                    std::io::Error::other(format!("cannot open registry {path:?}: {e}"))
                })?;
                if let Some(warning) = registry.recovered() {
                    recorder.add("serve.registry_recovered", 1);
                    events.log(Level::Warn, "daemon", "registry", warning.to_string());
                }
                registry
            }
            None => Registry::in_memory(),
        };

        let hub = TelemetryHub::new();

        if let Some(dir) = &config.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut sources = BTreeMap::new();
        for spec in &config.sources {
            let state = load_or_new_state(spec, &config, &events);
            if sources
                .insert(spec.name.clone(), Arc::new(Mutex::new(state)))
                .is_some()
            {
                return Err(std::io::Error::other(format!(
                    "duplicate source name `{}`",
                    spec.name
                )));
            }
        }

        let shared = Arc::new(Shared {
            stop: Arc::clone(&stop),
            started: Instant::now(),
            recorder: recorder.clone(),
            hub,
            events,
            trace_spans: config.trace_spans,
            compat: config.compat,
            max_sessions: config.max_sessions,
            session_idle: config.session_idle,
            write_timeout: config.write_timeout,
            sources,
            registry: Mutex::new(registry),
        });

        let mut pollers = Vec::new();
        for spec in &config.sources {
            pollers.push(spawn_source_poller(
                spec,
                &config,
                Arc::clone(&shared),
                Arc::clone(&stop),
            )?);
        }

        let mut checkpointer = None;
        let mut checkpoint_task = None;
        if let Some(dir) = &config.checkpoint_dir {
            let cp = Arc::new(Mutex::new(Checkpointer::new(
                dir,
                shared
                    .sources
                    .iter()
                    .map(|(name, state)| (name.clone(), Arc::clone(state))),
                &shared.hub,
                recorder.clone(),
                shared.events.clone(),
                config.chaos.checkpoint_write_failures,
            )));
            let tick_cp = Arc::clone(&cp);
            checkpoint_task = Some(spawn_ticker(
                "checkpoint",
                config.checkpoint_interval,
                Arc::clone(&stop),
                recorder.clone(),
                move || tick_cp.lock().expect("checkpointer lock").tick(),
            ));
            checkpointer = Some(cp);
        }

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = spawn_accept_loop(
            listener,
            Arc::clone(&shared),
            Arc::clone(&stop),
            Arc::clone(&sessions),
        );

        Ok(Daemon {
            addr,
            stop,
            shared,
            pollers,
            checkpointer,
            checkpoint_task,
            accept: Some(accept),
            sessions,
            recorder,
        })
    }

    /// The bound protocol address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's shared recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The current `health` envelope, rendered without a protocol
    /// round-trip — the same payload a connected client would get.
    pub fn health_json(&self) -> String {
        self.shared.health_response()
    }

    /// The current `telemetry` snapshot envelope, rendered without a
    /// protocol round-trip (samples the hub: bumps the version).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_response()
    }

    /// The daemon's live telemetry hub.
    pub fn hub(&self) -> TelemetryHub {
        self.shared.hub.clone()
    }

    /// The daemon's structured event log.
    pub fn events(&self) -> EventLog {
        self.shared.events.clone()
    }

    /// Whether a stop has been requested (by [`Daemon::stop`] or a
    /// protocol `shutdown`).
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Request a stop without waiting.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Block until a stop is requested.
    pub fn wait(&self) {
        while !self.stopping() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stop and join every thread: pollers, the checkpointer (with a
    /// final compacting checkpoint), the accept loop, and all protocol
    /// sessions.
    pub fn shutdown(mut self) {
        self.stop();
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.sessions.lock().expect("sessions lock"));
        for handle in handles {
            let _ = handle.join();
        }
        for poller in self.pollers.drain(..) {
            poller.join();
        }
        if let Some(task) = self.checkpoint_task.take() {
            task.join();
        }
        if let Some(cp) = self.checkpointer.take() {
            cp.lock().expect("checkpointer lock").final_sync();
        }
    }
}

/// Build a source's state: resume from its checkpoint when one is
/// configured and loadable, start fresh otherwise. Never fails — a
/// corrupt or unusable checkpoint degrades to a cold start with a
/// warning, because refusing to serve is the worse failure.
fn load_or_new_state(spec: &SourceSpec, config: &ServeConfig, events: &EventLog) -> SourceState {
    let (job, recorder) = (&config.job, &config.job.recorder);
    let fresh = || SourceState::new(&spec.name, job, events.clone());
    let Some(dir) = &config.checkpoint_dir else {
        return fresh();
    };
    let path = checkpoint::checkpoint_path(dir, &spec.name);
    match checkpoint::load(&path) {
        Ok(Some(loaded)) => {
            if loaded.torn {
                recorder.add("serve.checkpoint_torn", 1);
                events.log(
                    Level::Warn,
                    &spec.name,
                    "checkpoint",
                    "torn checkpoint tail: resuming from the last good frame",
                );
            }
            match SourceState::restore(&spec.name, job, events.clone(), &loaded.payload) {
                Ok(state) => {
                    recorder.add("serve.checkpoint_resumed", 1);
                    events.log(
                        Level::Info,
                        &spec.name,
                        "checkpoint",
                        format!(
                            "resumed from checkpoint: {} records, line {}, offset {}",
                            state.records(),
                            state.lines(),
                            state.tail_offset
                        ),
                    );
                    state
                }
                Err(e) => {
                    events.log(
                        Level::Warn,
                        &spec.name,
                        "checkpoint",
                        format!("unusable checkpoint ({e}); starting fresh from byte 0"),
                    );
                    fresh()
                }
            }
        }
        Ok(None) => {
            if path.exists() {
                recorder.add("serve.checkpoint_torn", 1);
                events.log(
                    Level::Warn,
                    &spec.name,
                    "checkpoint",
                    "checkpoint file has no valid frame; starting fresh from byte 0",
                );
            }
            fresh()
        }
        Err(e) => {
            events.log(
                Level::Warn,
                &spec.name,
                "checkpoint",
                format!("cannot read checkpoint: {e}; starting fresh from byte 0"),
            );
            fresh()
        }
    }
}

/// Open a file source honoring the tail-resume position in `state`:
/// seek to the remembered offset and restore the carried partial line.
/// A file shorter than the remembered offset was rotated or truncated
/// out from under us — reset to byte 0 with a warning (the fused
/// schema is kept; fusion is idempotent, so re-reading a recreated
/// file only re-confirms it).
fn open_file_tail(
    path: &Path,
    state: &Arc<Mutex<SourceState>>,
    job: &JobConfig,
    events: &EventLog,
) -> std::io::Result<SourceTail> {
    let recorder = &job.recorder;
    let len = match std::fs::metadata(path) {
        Ok(metadata) => metadata.len(),
        // Not-yet-created files are watched, not fatal: keep trying.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(SourceTail::PendingFile(path.to_path_buf()))
        }
        Err(e) => return Err(e),
    };
    let (offset, pending, overflow, lines) = {
        let mut state = state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if len < state.tail_offset {
            recorder.add("serve.rotations", 1);
            events.log(
                Level::Warn,
                &state.name,
                "ingest",
                format!(
                    "source file shrank below the resume offset ({len} < {}): \
                     rotation assumed, re-reading from byte 0",
                    state.tail_offset
                ),
            );
            state.sync_tail(0, &[], false);
        }
        (
            state.tail_offset,
            state.tail_pending.clone(),
            state.tail_pending_overflow,
            state.lines(),
        )
    };
    let mut file = std::fs::File::open(path)?;
    if offset > 0 {
        file.seek(SeekFrom::Start(offset))?;
    }
    let mut tail = TailReader::new(file)
        .with_haul_budget(HAUL_BUDGET_BYTES)
        .with_retry(job.retry)
        .with_recorder(recorder.clone())
        .with_resume_state(pending, overflow, offset, lines);
    if let Some(cap) = job.max_line_bytes {
        tail = tail.with_max_line_bytes(cap);
    }
    Ok(SourceTail::File(path.to_path_buf(), tail))
}

fn build_tail(
    input: &SourceInput,
    state: &Arc<Mutex<SourceState>>,
    job: &JobConfig,
    events: &EventLog,
) -> std::io::Result<SourceTail> {
    match input {
        SourceInput::File(path) => open_file_tail(path, state, job, events),
        SourceInput::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Ok(SourceTail::Tcp {
                listener,
                conns: Vec::new(),
                closed_bytes: 0,
            })
        }
    }
}

/// Spawn the supervised poller for one source. Each incarnation
/// reopens the input from the shared state's resume position, folds
/// new lines, mirrors the tail position back into the state (for the
/// checkpointer), publishes snapshots and records drift. A crash —
/// fatal read error or a panic anywhere in the loop — ends the
/// incarnation and the supervisor restarts it with backoff; repeated
/// crashes trip the per-source breaker.
fn spawn_source_poller(
    spec: &SourceSpec,
    config: &ServeConfig,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Supervised> {
    let recorder = shared.recorder.clone();
    let events = shared.events.clone();
    let job = config.job.clone();
    let state = Arc::clone(shared.source(&spec.name).expect("source registered"));
    let compat = shared.compat;
    let poll_recorder = recorder.clone();
    let name = spec.name.clone();
    let trace_spans = shared.trace_spans;
    let poll_interval = config.poll_interval;

    // Hot-path telemetry handles, hoisted out of the poll loop.
    let source_series = |metric: &str| series_key(metric, &[("source", &spec.name)]);
    let m_records = shared.hub.counter(source_series("typefuse_source_records"));
    let m_skipped = shared.hub.gauge(source_series("typefuse_source_skipped"));
    let m_quarantined = shared
        .hub
        .gauge(source_series("typefuse_source_quarantined"));
    let m_offset = shared
        .hub
        .gauge(source_series("typefuse_source_offset_bytes"));
    let m_lag = shared.hub.gauge(source_series("typefuse_source_lag_bytes"));
    let m_shapes = shared
        .hub
        .gauge(source_series("typefuse_source_distinct_shapes"));
    let m_version = shared.hub.gauge(source_series("typefuse_source_version"));
    let m_publish_skipped = shared
        .hub
        .gauge(source_series("typefuse_source_publish_skipped"));
    let m_publish_us = shared
        .hub
        .approx_gauge(source_series("typefuse_source_publish_us"));
    let m_registry_versions = shared.hub.gauge("typefuse_registry_versions");
    let m_registry_shapes = shared.hub.gauge("typefuse_registry_shapes");
    let m_shape_hits = shared
        .hub
        .gauge(source_series("typefuse_source_shape_hits"));
    let m_shape_misses = shared
        .hub
        .gauge(source_series("typefuse_source_shape_misses"));
    let m_rate = shared
        .hub
        .approx_gauge(source_series("typefuse_source_records_per_sec"));
    let cells = SupervisorCells {
        breaker: shared.hub.gauge(source_series("typefuse_source_breaker")),
        restarts: shared
            .hub
            .counter(source_series("typefuse_source_restarts")),
        total_restarts: shared.hub.counter("typefuse_supervisor_restarts_total"),
    };
    let mut window: VecDeque<(Instant, u64)> = VecDeque::new();

    // Probe the input once so a misconfigured source (unbindable TCP
    // address, unreadable file) still fails `Daemon::start`.
    let mut initial = Some(build_tail(&spec.input, &state, &job, &events)?);

    let chaos = config
        .chaos
        .poller_panic
        .clone()
        .filter(|p| p.source == spec.name);
    let chaos_budget = Arc::new(AtomicU32::new(chaos.as_ref().map_or(0, |p| p.times)));

    let input = spec.input.clone();
    let group_stop = Arc::clone(&stop);
    let incarnation_shared = Arc::clone(&shared);
    let incarnation_events = events.clone();
    let trip_state = Arc::clone(&state);

    let incarnation = move |own: &AtomicBool| -> Exit {
        let stopped = || group_stop.load(Ordering::Acquire) || own.load(Ordering::Acquire);
        let mut tail = match initial.take() {
            Some(tail) => tail,
            None => match build_tail(&input, &state, &job, &incarnation_events) {
                Ok(tail) => tail,
                Err(e) => return Exit::Crash(format!("cannot reopen source: {e}")),
            },
        };
        let publish = |state: &mut SourceState| {
            let mut registry = incarnation_shared
                .registry
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let before = state.version;
            state.publish(&mut registry, compat);
            if state.version != before {
                let stats = registry.stats();
                m_registry_versions.set(stats.versions);
                m_registry_shapes.set(stats.shapes);
            }
        };
        // Re-publish a restored schema so a fresh (in-memory) registry
        // sees it before any new record arrives; idempotent when the
        // registry already holds it.
        {
            let mut state = state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if state.records() > 0 && state.is_active() {
                publish(&mut state);
            }
        }
        let mut last_synced_offset = u64::MAX;
        loop {
            if stopped() {
                return Exit::Stop;
            }

            // Rotation check: the file shrinking below what we already
            // read means it was replaced or truncated — reopen at 0.
            let mut file_len = None;
            if let SourceTail::File(path, reader) = &tail {
                let len = std::fs::metadata(path).map(|m| m.len()).ok();
                file_len = len;
                if len.is_some_and(|len| len < reader.bytes_read()) {
                    poll_recorder.add("serve.rotations", 1);
                    incarnation_events.log(
                        Level::Warn,
                        &name,
                        "ingest",
                        format!(
                            "source file shrank ({} < {}): rotation assumed, \
                             re-reading from byte 0",
                            len.unwrap_or(0),
                            reader.bytes_read()
                        ),
                    );
                    {
                        let mut state = state
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        state.sync_tail(0, &[], false);
                    }
                    let path = path.clone();
                    tail = match open_file_tail(&path, &state, &job, &incarnation_events) {
                        Ok(tail) => tail,
                        Err(e) => return Exit::Crash(format!("cannot reopen rotated file: {e}")),
                    };
                    last_synced_offset = u64::MAX;
                    file_len = None;
                }
            }

            let mut lines: Vec<TailLine> = Vec::new();
            // A poll that stopped on its haul budget left bytes unread.
            let mut behind = false;
            match &mut tail {
                SourceTail::PendingFile(path) => {
                    let path = path.clone();
                    match open_file_tail(&path, &state, &job, &incarnation_events) {
                        Ok(opened) => tail = opened,
                        Err(e) => return Exit::Crash(format!("cannot open source: {e}")),
                    }
                    sliced_sleep(poll_interval, &stopped);
                    continue;
                }
                SourceTail::File(_, reader) => {
                    if let Err(e) = reader.poll(&mut lines) {
                        return Exit::Crash(format!("read error: {e}"));
                    }
                }
                SourceTail::Tcp {
                    listener,
                    conns,
                    closed_bytes,
                } => {
                    // Adopt any new producer connections.
                    loop {
                        match listener.accept() {
                            Ok((conn, _)) => {
                                if conn.set_nonblocking(true).is_ok() {
                                    poll_recorder.add("ingest.connections", 1);
                                    conns.push(make_file_tail_tcp(conn, &job));
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => break,
                        }
                    }
                    conns.retain_mut(|conn| match conn.poll(&mut lines) {
                        Ok(TailStatus::Idle) => true,
                        Ok(TailStatus::Budget) => {
                            behind = true;
                            true
                        }
                        Ok(TailStatus::Closed) => {
                            // Flush an unterminated final record.
                            if let Some(last) = conn.take_pending() {
                                lines.push(last);
                            }
                            *closed_bytes += conn.bytes_read();
                            false
                        }
                        Err(_) => {
                            *closed_bytes += conn.bytes_read();
                            false
                        }
                    });
                }
            }

            // Tail position: how far we've read and how far behind the
            // input we are (files only — a TCP source has no length).
            match &tail {
                SourceTail::PendingFile(_) => {}
                SourceTail::File(_, reader) => {
                    let offset = reader.bytes_read();
                    let lag = file_len.unwrap_or(offset).saturating_sub(offset);
                    m_offset.set(offset);
                    m_lag.set(lag);
                    behind = lag > 0;
                }
                SourceTail::Tcp {
                    conns,
                    closed_bytes,
                    ..
                } => {
                    m_offset.set(closed_bytes + conns.iter().map(|c| c.bytes_read()).sum::<u64>());
                }
            }

            let absorbed = if lines.is_empty() {
                // No complete line, but the reader may still have
                // consumed bytes into its partial-line carry — keep the
                // checkpointable position current.
                if let SourceTail::File(_, reader) = &tail {
                    if reader.bytes_read() != last_synced_offset {
                        let mut state = state
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        state.sync_tail(
                            reader.bytes_read(),
                            reader.pending(),
                            reader.pending_overflow(),
                        );
                        last_synced_offset = reader.bytes_read();
                    }
                }
                0
            } else {
                let mut state = state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                let _span = trace_spans.then(|| poll_recorder.span(format!("serve.fold.{name}")));
                let absorbed = state.fold_batch(&lines);
                let folded = Instant::now();
                // Pair the folded schema with the exact tail position
                // it covers, under the same lock the checkpointer
                // serializes under.
                match &tail {
                    SourceTail::File(_, reader) => {
                        state.sync_tail(
                            reader.bytes_read(),
                            reader.pending(),
                            reader.pending_overflow(),
                        );
                        last_synced_offset = reader.bytes_read();
                    }
                    SourceTail::Tcp { .. } => state.mark_dirty(),
                    SourceTail::PendingFile(_) => {}
                }
                if absorbed > 0 {
                    publish(&mut state);
                }
                m_records.add(absorbed);
                m_skipped.set(state.report().skipped());
                m_quarantined.set(state.quarantined());
                m_shapes.set(state.distinct_shapes());
                m_version.set(state.version.unwrap_or(0));
                m_shape_hits.set(state.shape_hits());
                m_shape_misses.set(state.shape_misses());
                m_publish_skipped.set(state.publish_skipped);
                m_publish_us.set(folded.elapsed().as_micros() as u64);
                if !state.is_active() {
                    return Exit::Stop;
                }
                absorbed
            };

            // Fault injection: panic once the folded record count
            // reaches the trigger. Checked outside the state lock (so
            // the mutex is never poisoned by the injected crash) and
            // against the *live* count, so an input that keeps the
            // trigger satisfied re-crashes each incarnation until the
            // budget drains — which is how the breaker tests exercise
            // repeated failures.
            if let Some(panic_at) = &chaos {
                if chaos_budget.load(Ordering::Acquire) > 0
                    && state
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .records()
                        >= panic_at.at_records
                {
                    chaos_budget.fetch_sub(1, Ordering::AcqRel);
                    panic!(
                        "chaos: injected poller panic at record {}",
                        panic_at.at_records
                    );
                }
            }

            // Sliding-window throughput: absorbed records over the last
            // RATE_WINDOW, decayed even on idle ticks.
            let now = Instant::now();
            if absorbed > 0 {
                window.push_back((now, absorbed));
            }
            while window
                .front()
                .is_some_and(|(at, _)| now.duration_since(*at) > RATE_WINDOW)
            {
                window.pop_front();
            }
            let in_window: u64 = window.iter().map(|(_, n)| n).sum();
            m_rate.set(in_window / RATE_WINDOW.as_secs());

            // Behind the input (a file's lag, a connection's spent
            // budget): fold the next haul now, not one interval later.
            if !behind {
                sliced_sleep(poll_interval, &stopped);
            }
        }
    };

    Ok(spawn_supervised(
        &spec.name,
        config.supervisor,
        stop,
        recorder,
        events,
        cells,
        move |alert| {
            trip_state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .fail(alert);
        },
        incarnation,
    ))
}

fn make_file_tail_tcp(conn: TcpStream, job: &JobConfig) -> TailReader<TcpStream> {
    let mut tail = TailReader::new(conn)
        .with_haul_budget(HAUL_BUDGET_BYTES)
        .with_retry(job.retry)
        .with_recorder(job.recorder.clone())
        .close_on_eof();
    if let Some(cap) = job.max_line_bytes {
        tail = tail.with_max_line_bytes(cap);
    }
    tail
}

/// Accept protocol connections until stopped; each session runs on its
/// own thread with panic isolation. The session cap bounds how many
/// concurrent clients can pin threads; beyond it a connection gets one
/// error envelope and is closed.
fn spawn_accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let m_sessions = shared.hub.counter("typefuse_sessions_total");
    let m_rejected = shared.hub.counter("typefuse_sessions_rejected_total");
    std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            while !stop.load(Ordering::Acquire) {
                let (mut stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) => continue,
                };
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let _ = stream.set_write_timeout(shared.write_timeout);
                // Responses and `watch` snapshots are whole messages:
                // nothing to coalesce, so never wait for an ACK to send.
                let _ = stream.set_nodelay(true);
                let at_capacity = {
                    let mut sessions = sessions.lock().expect("sessions lock");
                    // Reap finished sessions so the vec stays bounded.
                    sessions.retain(|h| !h.is_finished());
                    sessions.len() >= shared.max_sessions
                };
                if at_capacity {
                    shared.recorder.add("serve.sessions_rejected", 1);
                    m_rejected.add(1);
                    shared.events.log(
                        Level::Warn,
                        "daemon",
                        "session",
                        format!(
                            "session limit reached ({}); rejecting connection",
                            shared.max_sessions
                        ),
                    );
                    let _ = write_line(
                        &mut stream,
                        &protocol::error_response(&format!(
                            "session limit reached ({})",
                            shared.max_sessions
                        )),
                    );
                    continue;
                }
                shared.recorder.add("serve.sessions", 1);
                m_sessions.add(1);
                let session_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("serve-session".to_string())
                    .spawn(move || {
                        let recorder = session_shared.recorder.clone();
                        let events = session_shared.events.clone();
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            run_session(stream, &session_shared)
                        }));
                        if outcome.is_err() {
                            recorder.add("serve.session_panics", 1);
                            events.log(
                                Level::Error,
                                "session",
                                "request",
                                "session thread panicked; connection dropped",
                            );
                        }
                    })
                    .expect("spawn session thread");
                let mut sessions = sessions.lock().expect("sessions lock");
                sessions.push(handle);
            }
        })
        .expect("spawn accept thread")
}

/// One protocol session: read request lines, write response envelopes.
/// The read timeout keeps the thread responsive to daemon shutdown and
/// drives the idle-session timeout. A `watch` request turns the
/// session into a telemetry stream: one snapshot envelope per interval
/// until the client disconnects or the daemon stops.
fn run_session(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let recorder = shared.recorder.clone();
    let m_requests = shared.hub.counter("typefuse_requests_total");
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut last_request = Instant::now();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if shared
                    .session_idle
                    .is_some_and(|limit| last_request.elapsed() >= limit)
                {
                    recorder.add("serve.sessions_idle_closed", 1);
                    let _ = write_line(
                        &mut writer,
                        &protocol::error_response("session idle timeout; closing"),
                    );
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        last_request = Instant::now();
        recorder.add("serve.requests", 1);
        m_requests.add(1);
        recorder.record("serve.request_bytes", trimmed.len() as u64);
        let started = Instant::now();
        let reply = {
            let _span = shared.trace_spans.then(|| recorder.span("serve.request"));
            match protocol::parse_request(trimmed) {
                Ok(request) => {
                    recorder.add(&format!("serve.requests.{}", request_name(&request)), 1);
                    shared.respond(&request)
                }
                Err(message) => {
                    recorder.add("serve.requests.invalid", 1);
                    Reply::One(protocol::error_response(&message))
                }
            }
        };
        if !shared.trace_spans {
            recorder.record_span("serve.request", started.elapsed());
        }
        match reply {
            Reply::One(response) => {
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            Reply::Watch { interval } => {
                run_watch(&mut writer, shared, interval);
                return;
            }
        }
    }
}

/// Stream telemetry snapshots: one envelope immediately, then one per
/// interval. Ends when the client disconnects (write fails) or the
/// daemon stops; the interval sleep is sliced so shutdown stays fast.
fn run_watch(writer: &mut TcpStream, shared: &Shared, interval: Duration) {
    loop {
        if write_line(writer, &shared.metrics_response()).is_err() {
            return;
        }
        let deadline = Instant::now() + interval;
        loop {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
        }
    }
}

/// One response line in one write: two segments on a socket would cost
/// an ordinary client a delayed-ACK period (≈ 40 ms) per request.
fn write_line(writer: &mut TcpStream, response: &str) -> std::io::Result<()> {
    writer.write_all(format!("{response}\n").as_bytes())?;
    writer.flush()
}

fn request_name(request: &Request) -> &'static str {
    match request {
        Request::Schema { .. } => "schema",
        Request::Profile { .. } => "profile",
        Request::Explain { .. } => "explain",
        Request::Health => "health",
        Request::Diff { .. } => "diff",
        Request::Metrics { .. } => "metrics",
        Request::Watch { .. } => "watch",
        Request::Shutdown => "shutdown",
    }
}
