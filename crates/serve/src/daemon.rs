//! The resident daemon: supervised source pollers, durable checkpoints,
//! the registry publisher, and the TCP protocol listener.

use crate::checkpoint::{self, Checkpointer};
use crate::fold::SourceState;
use crate::lock;
use crate::protocol::{self, MetricsFormat, Request};
use crate::supervisor::{
    sliced_sleep, spawn_supervised, spawn_ticker, Exit, Supervised, SupervisorCells,
    SupervisorPolicy,
};
use crate::tail::SourceTail;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use typefuse::JobConfig;
use typefuse_obs::{
    envelope, series_key, EventLog, JsonWriter, Level, Recorder, TelemetryCell, TelemetryHub,
};
use typefuse_registry::{CompatMode, Registry};

/// Sliding window over which `typefuse_source_records_per_sec` averages.
const RATE_WINDOW: Duration = Duration::from_secs(5);

/// How many events the in-memory ring retains.
const EVENT_CAPACITY: usize = 1024;

/// Write timeout on session sockets, bounding how long a slow or
/// stalled client can pin a session (or watch) thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a source's NDJSON bytes come from.
#[derive(Debug, Clone)]
pub enum SourceInput {
    /// A growing regular file, tailed from the start. Pipes and sockets
    /// are refused; stream them through a [`SourceInput::Tcp`] source.
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
            trace_spans: false,
            checkpoint_dir: None,
            checkpoint_interval: Duration::from_millis(1000),
            max_sessions: 256,
            session_idle: None,
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

    /// Watch a growing NDJSON regular file as a named source.
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
    sources: BTreeMap<String, Arc<Mutex<SourceState>>>,
    registry: Mutex<Registry>,
    registry_versions: TelemetryCell,
    registry_shapes: TelemetryCell,
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
            Request::Schema { source } => self
                .source(source)
                .map(|s| protocol::schema_response(&mut lock(s))),
            Request::Profile { source } => self
                .source(source)
                .and_then(|s| protocol::profile_response(&lock(s))),
            Request::Explain { source, path } => self
                .source(source)
                .and_then(|s| protocol::explain_response(&lock(s), path)),
            Request::Health => Ok(self.health_response()),
            Request::Diff { source, from, to } => self.source(source).and_then(|_| {
                lock(&self.registry)
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

    /// The `health` envelope. Each source is locked once, so the total
    /// is the sum of the entries listed beside it.
    fn health_response(&self) -> String {
        let mut records = 0;
        let mut sources = JsonWriter::new();
        sources.begin_array();
        for state in self.sources.values() {
            let state = lock(state);
            records += state.records();
            protocol::write_source_health(&mut sources, &state);
        }
        sources.end_array();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("uptime_ms")
            .number(self.started.elapsed().as_millis() as u64);
        w.key("records").number(records);
        w.key("sources").raw(&sources.finish());
        w.end_object();
        envelope("health", &w.finish())
    }

    /// Publish `state`'s schema to the registry, and the registry's size
    /// when that made a new version.
    fn publish(&self, state: &mut SourceState) {
        let mut registry = lock(&self.registry);
        let before = state.version;
        state.publish(&mut registry, self.compat);
        if state.version != before {
            let stats = registry.stats();
            self.registry_versions.set(stats.versions);
            self.registry_shapes.set(stats.shapes);
        }
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

/// A running `typefuse serve` daemon.
pub struct Daemon {
    addr: SocketAddr,
    shared: Arc<Shared>,
    pollers: Vec<Supervised>,
    /// The checkpointer's ticker, and the checkpointer for the final sync.
    checkpoint: Option<(Supervised, Arc<Mutex<Checkpointer>>)>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
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

        let events = match &config.log_sink {
            Some(path) => {
                EventLog::with_sink(EVENT_CAPACITY, config.log_level, path).map_err(|e| {
                    std::io::Error::other(format!("cannot open event log sink {path:?}: {e}"))
                })?
            }
            None => EventLog::new(EVENT_CAPACITY, config.log_level),
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
            let state = load_or_new_state(spec, &config, &events, &hub);
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
            stop: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            recorder: recorder.clone(),
            events,
            trace_spans: config.trace_spans,
            compat: config.compat,
            max_sessions: config.max_sessions,
            session_idle: config.session_idle,
            sources,
            registry: Mutex::new(registry),
            registry_versions: hub.gauge("typefuse_registry_versions"),
            registry_shapes: hub.gauge("typefuse_registry_shapes"),
            hub,
        });

        let mut pollers = Vec::new();
        for spec in &config.sources {
            pollers.push(spawn_source_poller(spec, &config, Arc::clone(&shared))?);
        }

        let checkpoint = config.checkpoint_dir.as_ref().map(|dir| {
            let cp = Arc::new(Mutex::new(Checkpointer::new(
                dir,
                &shared.sources,
                &shared.hub,
                recorder.clone(),
                shared.events.clone(),
                config.chaos.checkpoint_write_failures,
            )));
            let tick_cp = Arc::clone(&cp);
            let task = spawn_ticker(
                "checkpoint",
                config.checkpoint_interval,
                Arc::clone(&shared.stop),
                recorder.clone(),
                move || tick_cp.lock().expect("checkpointer lock").tick(),
            );
            (task, cp)
        });

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = spawn_accept_loop(listener, Arc::clone(&shared), Arc::clone(&sessions));

        Ok(Daemon {
            addr,
            shared,
            pollers,
            checkpoint,
            accept: Some(accept),
            sessions,
        })
    }

    /// The bound protocol address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current `health` envelope, rendered without a protocol
    /// round-trip — the same payload a connected client would get.
    pub fn health_json(&self) -> String {
        self.shared.health_response()
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
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Request a stop without waiting.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
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
        if let Some((task, cp)) = self.checkpoint.take() {
            task.join();
            cp.lock().expect("checkpointer lock").final_sync();
        }
    }
}

/// Build a source's state: resume from its checkpoint when one is
/// configured and loadable, start fresh otherwise. Never fails — a
/// corrupt or unusable checkpoint degrades to a cold start with a
/// warning, because refusing to serve is the worse failure.
fn load_or_new_state(
    spec: &SourceSpec,
    config: &ServeConfig,
    events: &EventLog,
    hub: &TelemetryHub,
) -> SourceState {
    let state = resume(spec, config, events).unwrap_or_else(|why| {
        if let Some(why) = why {
            let message = format!("{why}; starting fresh from byte 0");
            events.log(Level::Warn, &spec.name, "checkpoint", message);
        }
        SourceState::new(&spec.name, &config.job, events.clone())
    });
    state.export_to(hub)
}

/// The source's state as its checkpoint left it, or why it cannot be
/// resumed (`None`: there is no checkpoint to resume, and nothing to
/// warn about).
fn resume(
    spec: &SourceSpec,
    config: &ServeConfig,
    events: &EventLog,
) -> Result<SourceState, Option<String>> {
    let (job, recorder) = (&config.job, &config.job.recorder);
    let dir = config.checkpoint_dir.as_ref().ok_or(None)?;
    let path = checkpoint::checkpoint_path(dir, &spec.name);
    let loaded = match checkpoint::load(&path) {
        Ok(Some(loaded)) => loaded,
        Ok(None) if path.exists() => {
            recorder.add("serve.checkpoint_torn", 1);
            return Err(Some("checkpoint file has no valid frame".to_string()));
        }
        Ok(None) => return Err(None),
        Err(e) => return Err(Some(format!("cannot read checkpoint: {e}"))),
    };
    if loaded.torn {
        recorder.add("serve.checkpoint_torn", 1);
        events.log(
            Level::Warn,
            &spec.name,
            "checkpoint",
            "torn checkpoint tail: resuming from the last good frame",
        );
    }
    let state = SourceState::restore(&spec.name, job, events.clone(), &loaded.payload)
        .map_err(|e| Some(format!("unusable checkpoint ({e})")))?;
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
    Ok(state)
}

/// Spawn the supervised poller for one source. Each incarnation
/// reopens the input from the shared state's resume position, then
/// loops: poll the tail; fold what it brought, mirror the tail position,
/// publish and export under one lock of the state; check the injected
/// fault; update the rate window; sleep unless the tail is behind. A
/// crash — fatal read error or a panic anywhere in the loop — ends the
/// incarnation and the supervisor restarts it with backoff; repeated
/// crashes trip the per-source breaker.
fn spawn_source_poller(
    spec: &SourceSpec,
    config: &ServeConfig,
    shared: Arc<Shared>,
) -> std::io::Result<Supervised> {
    let state = Arc::clone(shared.source(&spec.name).expect("source registered"));
    let (source, job, hub) = (spec.clone(), config.job.clone(), shared.hub.clone());
    let open = move |state: &Mutex<SourceState>| SourceTail::open(&source, state, &job, &hub);
    // Probe the input once so a misconfigured source (unbindable TCP
    // address, unreadable file) still fails `Daemon::start`.
    let mut initial = Some(open(&state)?);

    let series = |metric: &str| series_key(metric, &[("source", &spec.name)]);
    let m_rate = shared
        .hub
        .approx_gauge(series("typefuse_source_records_per_sec"));
    let cells = SupervisorCells {
        breaker: shared.hub.gauge(series("typefuse_source_breaker")),
        restarts: shared.hub.counter(series("typefuse_source_restarts")),
        total_restarts: shared.hub.counter("typefuse_supervisor_restarts_total"),
    };
    let mut window: VecDeque<(Instant, u64)> = VecDeque::new();
    let mut chaos = config
        .chaos
        .poller_panic
        .clone()
        .filter(|p| p.source == spec.name);
    let (stop, trip_state) = (Arc::clone(&shared.stop), Arc::clone(&state));
    let (recorder, events) = (shared.recorder.clone(), shared.events.clone());
    let (fold_span, poll_interval) = (format!("serve.fold.{}", spec.name), config.poll_interval);

    let incarnation = move |own: &AtomicBool| -> Exit {
        let stopped = || shared.stop.load(Ordering::Acquire) || own.load(Ordering::Acquire);
        let mut tail = match initial.take().map_or_else(|| open(&state), Ok) {
            Ok(tail) => tail,
            Err(e) => return Exit::Crash(format!("cannot reopen source: {e}")),
        };
        // Re-publish a restored schema so a fresh (in-memory) registry
        // sees it before any new record arrives; idempotent when the
        // registry already holds it.
        {
            let mut state = lock(&state);
            if state.records() > 0 && state.is_active() {
                shared.publish(&mut state);
            }
        }
        loop {
            if stopped() {
                return Exit::Stop;
            }
            let mut lines = Vec::new();
            let behind = match tail.poll(&state, &mut lines) {
                Ok(behind) => behind,
                Err(reason) => return Exit::Crash(reason),
            };
            let absorbed = if lines.is_empty() {
                if tail.moved() {
                    tail.sync(&mut lock(&state));
                }
                0
            } else {
                let mut state = lock(&state);
                let _span = shared
                    .trace_spans
                    .then(|| shared.recorder.span(fold_span.clone()));
                let absorbed = state.fold_batch(&lines);
                let folded = Instant::now();
                // Pair the folded schema with the exact tail position
                // it covers, under the same lock the checkpointer
                // serializes under.
                tail.sync(&mut state);
                if absorbed > 0 {
                    shared.publish(&mut state);
                }
                state.export(absorbed, folded);
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
            if let Some(panic_at) = chaos.as_mut().filter(|p| p.times > 0) {
                if lock(&state).records() >= panic_at.at_records {
                    panic_at.times -= 1;
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
        move |alert| lock(&trip_state).fail(alert),
        incarnation,
    ))
}

/// Accept protocol connections until stopped; each session runs on its
/// own thread with panic isolation. The session cap bounds how many
/// concurrent clients can pin threads; beyond it a connection gets one
/// error envelope and is closed.
fn spawn_accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> JoinHandle<()> {
    let m_sessions = shared.hub.counter("typefuse_sessions_total");
    let m_rejected = shared.hub.counter("typefuse_sessions_rejected_total");
    std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            let stopped = || shared.stop.load(Ordering::Acquire);
            while !stopped() {
                let (mut stream, _) = match listener.accept() {
                    Ok(accepted) => accepted,
                    Err(_) => continue,
                };
                if stopped() {
                    break;
                }
                let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
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
                    let limit = format!("session limit reached ({})", shared.max_sessions);
                    let rejecting = format!("{limit}; rejecting connection");
                    shared
                        .events
                        .log(Level::Warn, "daemon", "session", rejecting);
                    let _ = write_line(&mut stream, &protocol::error_response(&limit));
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
    let stopped = || shared.stop.load(Ordering::Acquire);
    while write_line(writer, &shared.metrics_response()).is_ok() {
        sliced_sleep(interval, &stopped);
        if stopped() {
            return;
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
