//! End-to-end daemon tests: a resident `typefuse serve` on loopback,
//! fed by file appends and TCP producers, answering the line protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use typefuse::pipeline::DedupMode;
use typefuse::JobConfig;
use typefuse_json::{Envelope, Value};
use typefuse_obs::Recorder;
use typefuse_serve::{Daemon, ServeConfig};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("typefuse-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// One protocol session.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "daemon closed mid-request");
        response.trim().to_string()
    }

    /// Poll `schema` until the daemon has folded `want` records.
    fn wait_for_records(&mut self, source: &str, want: i64) -> Envelope {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = self.request(&format!(r#"{{"op":"schema","source":"{source}"}}"#));
            let env = Envelope::expect_kind(&text, "schema").unwrap();
            let records = env.payload.get("records").and_then(Value::as_i64);
            if records == Some(want) {
                return env;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want} records (at {records:?})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn fast(config: ServeConfig) -> ServeConfig {
    config
        .listen("127.0.0.1:0")
        .poll_interval(Duration::from_millis(5))
}

#[test]
fn watched_file_serves_batch_identical_schemas_and_reports_drift() {
    let path = temp_path("events.ndjson");
    let first = "{\"user\":\"ada\",\"n\":1}\n{\"user\":\"kay\",\"n\":2}\n{\"user\":null,\"n\":3}\n";
    let second =
        "{\"user\":\"lin\",\"n\":4,\"tags\":[\"a\",\"b\"]}\n{\"user\":\"tad\",\"n\":5.5}\n";
    std::fs::write(&path, first).unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &path),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());

    // The pre-existing content is folded and published as version 1.
    let env = client.wait_for_records("events", 3);
    assert_eq!(env.payload.get("version").and_then(Value::as_i64), Some(1));

    // Append while the daemon is live; the tail picks it up.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(second.as_bytes()).unwrap();
    file.flush().unwrap();
    let env = client.wait_for_records("events", 5);
    assert_eq!(env.payload.get("version").and_then(Value::as_i64), Some(2));
    let served = env
        .payload
        .get("schema")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // The law behind the daemon: incremental folding is byte-identical
    // to a cold batch run over all bytes.
    let batch = JobConfig::new()
        .build()
        .run_ndjson(BufReader::new(std::fs::File::open(&path).unwrap()))
        .unwrap();
    assert_eq!(served, batch.schema.to_string());

    // `diff` replays the registry changes between the two snapshots.
    let text = client.request(r#"{"op":"diff","source":"events","from":1,"to":2}"#);
    let env = Envelope::expect_kind(&text, "diff").unwrap();
    let changes = env.payload.get("changes").unwrap();
    let rendered = typefuse_json::to_string(changes);
    assert!(rendered.contains("$.tags"), "diff changes: {rendered}");

    // `explain` exposes provenance: tags first appeared at line 4.
    let text = client.request(r#"{"op":"explain","source":"events","path":"$.tags"}"#);
    let env = Envelope::expect_kind(&text, "explain").unwrap();
    assert_eq!(env.payload.get("count").and_then(Value::as_i64), Some(1));
    assert_eq!(
        env.payload.get("optional").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        env.payload.get("first_line").and_then(Value::as_i64),
        Some(4)
    );

    // `profile` is the full per-path report.
    let text = client.request(r#"{"op":"profile","source":"events"}"#);
    let env = Envelope::expect_kind(&text, "profile").unwrap();
    assert_eq!(env.payload.get("records").and_then(Value::as_i64), Some(5));

    // `health` aggregates every source, with the drift alert attached.
    let text = client.request(r#"{"op":"health"}"#);
    let env = Envelope::expect_kind(&text, "health").unwrap();
    let health = typefuse_json::to_string(&env.payload);
    assert!(health.contains("\"source\":\"events\""), "health: {health}");
    assert!(health.contains("v1→v2"), "drift alert in: {health}");

    // Bad requests get error envelopes, and the session survives them.
    let text = client.request(r#"{"op":"schema","source":"nope"}"#);
    let env = Envelope::expect_kind(&text, "error").unwrap();
    let message = env.payload.get("message").and_then(Value::as_str).unwrap();
    assert!(message.contains("unknown source"), "{message}");
    let text = client.request("not json at all");
    Envelope::expect_kind(&text, "error").unwrap();
    client.wait_for_records("events", 5);

    daemon.shutdown();
    let report = recorder.snapshot();
    assert!(report.counters["ingest.records"] >= 5);
    assert!(report.counters["serve.requests"] >= 5);
    assert_eq!(report.counters["serve.publishes"], 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn tcp_sources_fold_producer_connections_and_shutdown_op_stops_the_daemon() {
    let daemon = Daemon::start(fast(ServeConfig::new().tcp_source("feed", "127.0.0.1:0"))).unwrap();
    // The producer address is fixed by the config, so bind a concrete
    // port for this test by asking the OS first.
    drop(daemon);
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let feed_addr = probe.local_addr().unwrap();
    drop(probe);
    let daemon = Daemon::start(fast(
        ServeConfig::new().tcp_source("feed", feed_addr.to_string()),
    ))
    .unwrap();

    // Two producers, one with an unterminated final record (flushed on
    // disconnect), one clean.
    let mut producer = TcpStream::connect(feed_addr).unwrap();
    producer
        .write_all(b"{\"id\":1}\n{\"id\":2,\"ok\":true}")
        .unwrap();
    drop(producer);
    let mut producer = TcpStream::connect(feed_addr).unwrap();
    producer.write_all(b"{\"id\":3}\n").unwrap();
    producer.flush().unwrap();

    let mut client = Client::connect(daemon.addr());
    let env = client.wait_for_records("feed", 3);
    let schema = env.payload.get("schema").and_then(Value::as_str).unwrap();
    assert!(schema.contains("ok"), "schema: {schema}");
    drop(producer);

    // Concurrent sessions: each gets its own thread and sees the same
    // state.
    let addr = daemon.addr();
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for _ in 0..5 {
                    let text = c.request(r#"{"op":"health"}"#);
                    Envelope::expect_kind(&text, "health").unwrap();
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    // A protocol shutdown acknowledges, then stops the daemon.
    let text = client.request(r#"{"op":"shutdown"}"#);
    Envelope::expect_kind(&text, "ok").unwrap();
    daemon.wait();
    assert!(daemon.stopping());
    daemon.shutdown();
}

#[test]
fn metrics_op_reports_per_source_series_that_agree_with_the_fold() {
    let path = temp_path("metrics.ndjson");
    std::fs::write(&path, "{\"a\":1}\n{\"a\":2}\n{\"a\":3,\"b\":true}\n").unwrap();

    let daemon = Daemon::start(fast(ServeConfig::new().watch_file("events", &path))).unwrap();
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 3);

    let text = client.request(r#"{"op":"metrics"}"#);
    let env = Envelope::expect_kind(&text, "telemetry").unwrap();
    let counters = env.payload.get("counters").unwrap();
    assert_eq!(
        counters
            .get("typefuse_source_records{source=\"events\"}")
            .and_then(Value::as_i64),
        Some(3),
        "per-source counter agrees with folded records: {text}"
    );
    let gauges = env.payload.get("gauges").unwrap();
    assert_eq!(
        gauges
            .get("typefuse_source_version{source=\"events\"}")
            .and_then(Value::as_i64),
        Some(1)
    );
    assert_eq!(
        gauges
            .get("typefuse_source_lag_bytes{source=\"events\"}")
            .and_then(Value::as_i64),
        Some(0),
        "fully caught-up tail has no lag"
    );
    assert!(
        env.payload
            .get("approx")
            .and_then(|a| a.get("typefuse_uptime_ms"))
            .and_then(Value::as_i64)
            .is_some(),
        "wall-clock series live in the approx section"
    );
    let first_version = env.payload.get("version").and_then(Value::as_i64).unwrap();

    // Determinism for a fixed fold sequence: a second sample renders
    // the fold-driven sections byte-identically; only the snapshot
    // sequence number and the request counter (this very request)
    // advance.
    let text2 = client.request(r#"{"op":"metrics"}"#);
    let env2 = Envelope::expect_kind(&text2, "telemetry").unwrap();
    assert_eq!(
        env2.payload.get("version").and_then(Value::as_i64),
        Some(first_version + 1)
    );
    assert_eq!(
        typefuse_json::to_string(env.payload.get("gauges").unwrap()),
        typefuse_json::to_string(env2.payload.get("gauges").unwrap()),
        "gauges section is byte-deterministic"
    );
    let counters2 = env2.payload.get("counters").unwrap();
    for (key, value) in counters.as_object().unwrap().iter() {
        let second = counters2.get(key).and_then(Value::as_i64);
        if key == "typefuse_requests_total" {
            assert_eq!(second, value.as_i64().map(|v| v + 1), "one more request");
        } else {
            assert_eq!(second, value.as_i64(), "counter {key} drifted with no fold");
        }
    }

    // Prometheus exposition rides inside a one-line envelope.
    let text = client.request(r#"{"op":"metrics","format":"prometheus"}"#);
    let env = Envelope::expect_kind(&text, "prometheus").unwrap();
    assert_eq!(
        env.payload.get("content_type").and_then(Value::as_str),
        Some("text/plain; version=0.0.4")
    );
    let exposition = env.payload.get("text").and_then(Value::as_str).unwrap();
    assert!(
        exposition.contains("# TYPE typefuse_source_records counter"),
        "{exposition}"
    );
    assert!(
        exposition.contains("typefuse_source_records{source=\"events\"} 3"),
        "{exposition}"
    );
    assert!(
        exposition.contains("# TYPE typefuse_uptime_ms gauge"),
        "{exposition}"
    );
    assert!(
        exposition.contains("typefuse_sessions_total"),
        "{exposition}"
    );

    // Structured events recorded the boot and the publish.
    let events = daemon.events();
    let recent = events.recent(16);
    assert!(
        recent.iter().any(|e| e.span == "boot"),
        "boot event: {recent:?}"
    );
    assert!(
        recent
            .iter()
            .any(|e| e.span == "publish" && e.message.contains("version 1")),
        "publish event: {recent:?}"
    );

    daemon.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn watch_streams_snapshots_and_a_disconnect_leaves_the_daemon_healthy() {
    let path = temp_path("watch.ndjson");
    std::fs::write(&path, "{\"n\":1}\n{\"n\":2}\n").unwrap();

    let daemon = Daemon::start(fast(ServeConfig::new().watch_file("events", &path))).unwrap();
    Client::connect(daemon.addr()).wait_for_records("events", 2);

    // Subscribe and read a few streamed envelopes.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(b"{\"op\":\"watch\",\"interval_ms\":20}\n")
        .unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut versions = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let env = Envelope::expect_kind(line.trim(), "telemetry").unwrap();
        assert_eq!(
            env.payload
                .get("counters")
                .and_then(|c| c.get("typefuse_source_records{source=\"events\"}"))
                .and_then(Value::as_i64),
            Some(2)
        );
        versions.push(env.payload.get("version").and_then(Value::as_i64).unwrap());
    }
    assert!(
        versions.windows(2).all(|w| w[1] > w[0]),
        "snapshot versions advance: {versions:?}"
    );
    drop(reader);
    drop(writer);

    // The abandoned stream must not wedge the daemon: a fresh session
    // still gets answers, and health carries the new totals.
    let mut client = Client::connect(daemon.addr());
    let text = client.request(r#"{"op":"health"}"#);
    let env = Envelope::expect_kind(&text, "health").unwrap();
    assert_eq!(env.payload.get("records").and_then(Value::as_i64), Some(2));
    assert!(env
        .payload
        .get("uptime_ms")
        .and_then(Value::as_i64)
        .is_some());
    let sources = typefuse_json::to_string(env.payload.get("sources").unwrap());
    assert!(
        sources.contains("\"last_activity_ms\":") && !sources.contains("\"last_activity_ms\":null"),
        "per-source activity stamp: {sources}"
    );

    daemon.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn watched_file_may_not_exist_yet_and_quarantine_collects_bad_records() {
    let path = temp_path("late.ndjson");
    let sink = temp_path("late.quarantine.ndjson");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&sink).ok();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(
                JobConfig::new()
                    .recorder(recorder.clone())
                    .on_error(typefuse::ErrorPolicy::quarantine(&sink)),
            )
            .watch_file("late", &path),
    ))
    .unwrap();

    // The file appears only after the daemon is up.
    std::thread::sleep(Duration::from_millis(30));
    std::fs::write(&path, "{\"a\":1}\nnot json\n{\"a\":2}\n").unwrap();

    let mut client = Client::connect(daemon.addr());
    let env = client.wait_for_records("late", 2);
    assert_eq!(env.payload.get("skipped").and_then(Value::as_i64), Some(1));

    daemon.shutdown();
    let entries = typefuse::faults::read_quarantine(&sink).unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].0, 2, "quarantined at its stream line");
    assert_eq!(entries[0].2.as_deref(), Some("not json"));
    assert_eq!(recorder.snapshot().counters["ingest.quarantined"], 1);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&sink).ok();
}

/// A FIFO would block the open until a writer attaches; the daemon
/// refuses it up front instead, naming the path and the alternative.
#[cfg(unix)]
#[test]
fn a_watched_fifo_is_refused_at_start_not_waited_on() {
    let path = temp_path("events.fifo");
    std::fs::remove_file(&path).ok();
    let made = std::process::Command::new("mkfifo").arg(&path).status();
    assert!(made.unwrap().success());

    let (tx, rx) = std::sync::mpsc::channel();
    let watched = path.clone();
    std::thread::spawn(move || {
        let started = Daemon::start(fast(ServeConfig::new().watch_file("pipe", watched)));
        tx.send(started.map(Daemon::shutdown).map_err(|e| e.to_string()))
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("Daemon::start returns instead of blocking in the open");
    let err = outcome.expect_err("a FIFO is not a watchable file");
    let named = err.contains(&path.display().to_string());
    assert!(named && err.contains("--tcp-source"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn shape_route_answers_profile_and_explain_with_the_reason_not_an_empty_report() {
    let path = temp_path("shape.ndjson");
    std::fs::write(&path, "{\"a\":1}\n{\"a\":2}\n").unwrap();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().map_path(typefuse::pipeline::MapPath::Shape))
            .watch_file("events", &path),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 2);

    for request in [
        r#"{"op":"profile","source":"events"}"#,
        r#"{"op":"explain","source":"events","path":"$.a"}"#,
    ] {
        let env = Envelope::expect_kind(&client.request(request), "error").unwrap();
        let message = env.payload.get("message").and_then(Value::as_str).unwrap();
        assert!(
            message.contains("keeps no profile") && message.contains("--map-path shape"),
            "{request}: {message}"
        );
    }
    // The session survives the error and the schema is still served.
    client.wait_for_records("events", 2);

    daemon.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Pollers and sessions run on default 2 MiB stacks, where an overflow
/// would take the whole daemon down: nesting at the depth limit folds,
/// publishes, checkpoints and prints; one level deeper is a bad record.
#[test]
fn nesting_at_the_depth_limit_is_served_and_deeper_is_a_bad_record() {
    let limit = typefuse_json::ParserOptions::MAX_DEPTH_LIMIT;
    let nest = |open: &str, close: &str, levels: usize, leaf: &str| {
        format!("{}{leaf}{}\n", open.repeat(levels), close.repeat(levels))
    };
    let data = [
        nest("[", "]", limit, "1"),
        nest("{\"a\":", "}", limit, "1"),
        nest("[", "]", limit + 1, "1"),
        nest("[", "]", limit, "\"s\""),
        nest("{\"a\":", "}", limit, "null"),
    ]
    .concat();
    let path = temp_path("deep.ndjson");
    let checkpoints = temp_path("deep.ckpt");
    std::fs::remove_dir_all(&checkpoints).ok();
    std::fs::write(&path, &data).unwrap();
    // A caller cannot raise the limit: the walkers clamp.
    let job = JobConfig::new()
        .parser_options(typefuse_json::ParserOptions {
            max_depth: usize::MAX,
            ..Default::default()
        })
        .on_error(typefuse::ErrorPolicy::skip());
    let batch = job.build().run_ndjson(data.as_bytes()).unwrap();
    // The second incarnation resumes from the first one's checkpoint.
    for _ in 0..2 {
        let daemon = Daemon::start(fast(
            ServeConfig::new()
                .job(job.clone())
                .checkpoint_dir(&checkpoints)
                .watch_file("deep", &path),
        ))
        .unwrap();
        let mut client = Client::connect(daemon.addr());
        let env = client.wait_for_records("deep", 4);
        assert_eq!(env.payload.get("skipped").and_then(Value::as_i64), Some(1));
        assert_eq!(
            env.payload.get("schema").and_then(Value::as_str),
            Some(batch.schema.to_string().as_str())
        );
        let text = client.request(r#"{"op":"profile","source":"deep"}"#);
        let env = Envelope::expect_kind(&text, "profile").unwrap();
        assert_eq!(env.payload.get("records").and_then(Value::as_i64), Some(4));
        Envelope::expect_kind(&client.request(r#"{"op":"health"}"#), "health").unwrap();
        daemon.shutdown();
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&checkpoints).ok();
}

/// A response leaves in one segment on a `TCP_NODELAY` socket. Written
/// as body then `\n`, the second write waits for the client's ACK of
/// the first, which an ordinary client (no `TCP_QUICKACK`) delays by
/// about 40 ms — on every request.
#[test]
fn an_ordinary_client_does_not_wait_out_a_delayed_ack_per_request() {
    let path = temp_path("rtt.ndjson");
    std::fs::write(&path, "{\"a\":1}\n").unwrap();
    let daemon = Daemon::start(fast(ServeConfig::new().watch_file("events", &path))).unwrap();
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    let started = Instant::now();
    for _ in 0..20 {
        writer.write_all(b"{\"op\":\"health\"}\n").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        Envelope::expect_kind(response.trim(), "health").unwrap();
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(20 * 40 / 2),
        "20 health round trips took {elapsed:?}"
    );
    daemon.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_batch_that_leaves_the_schema_alone_publishes_nothing() {
    let path = temp_path("steady.ndjson");
    std::fs::write(
        &path,
        "{\"id\":1,\"tags\":[\"a\"]}\n{\"id\":2,\"tags\":[]}\n",
    )
    .unwrap();
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("steady", &path),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    let schema_of = |env: &Envelope| {
        env.payload
            .get("schema")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let before = client.wait_for_records("steady", 2);
    let (publishes, skipped) = (
        recorder.counter_value("serve.publishes"),
        recorder.counter_value("serve.publish_skipped"),
    );
    assert_eq!(publishes, 1);

    // A record of a known shape: folded, counted, nothing to publish.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(b"{\"id\":3,\"tags\":[\"b\",\"c\"]}\n")
        .unwrap();
    file.flush().unwrap();
    let after = client.wait_for_records("steady", 3);
    assert_eq!(recorder.counter_value("serve.publishes"), publishes);
    assert_eq!(recorder.counter_value("serve.publish_skipped"), skipped + 1);
    assert_eq!(after.payload.get("version"), before.payload.get("version"));
    assert_eq!(schema_of(&after), schema_of(&before));
    assert_eq!(
        schema_of(&after).as_deref(),
        Some("{id: Num, tags: [Str*]}")
    );

    // The skip is on the telemetry plane too, with the registry's size
    // and the last batch's fold-to-published time.
    let text = client.request(r#"{"op":"metrics"}"#);
    let telemetry = Envelope::expect_kind(&text, "telemetry").unwrap();
    let gauge = |family: &str, key: &str| {
        let series = telemetry.payload.get(family).and_then(|f| f.get(key));
        series
            .and_then(Value::as_i64)
            .unwrap_or_else(|| panic!("no {family} {key} in {text}"))
    };
    assert_eq!(
        gauge(
            "gauges",
            r#"typefuse_source_publish_skipped{source="steady"}"#
        ) as u64,
        skipped + 1
    );
    assert_eq!(gauge("gauges", "typefuse_registry_versions"), 1);
    assert!(gauge("gauges", "typefuse_registry_shapes") > 5);
    gauge("approx", r#"typefuse_source_publish_us{source="steady"}"#);

    // A widening record moves the revision: one more publish.
    file.write_all(b"{\"id\":4,\"tags\":[],\"geo\":null}\n")
        .unwrap();
    file.flush().unwrap();
    let widened = client.wait_for_records("steady", 4);
    assert_eq!(recorder.counter_value("serve.publishes"), publishes + 1);
    assert_eq!(
        schema_of(&widened).as_deref(),
        Some("{geo: Null?, id: Num, tags: [Str*]}")
    );
    daemon.shutdown();
}

/// A daemon started on a backlog larger than one haul (8 MiB of a
/// watched file per poll, `HAUL_BUDGET_BYTES` in `daemon.rs`) folds it
/// haul by haul: what is folded so far is served in between, and the
/// end state — schema, counts, profile, the checkpoint a restart
/// resumes from — is that of folding the file whole.
#[test]
fn a_backlog_is_folded_in_hauls_and_served_in_between() {
    const HAUL: usize = 8 << 20;
    let path = temp_path("backlog.ndjson");
    let ckpt = temp_path("backlog.ckpt");
    std::fs::remove_dir_all(&ckpt).ok();
    let pad = "x".repeat(400);
    let mut data: Vec<u8> = Vec::with_capacity(3 * HAUL + (1 << 20));
    let mut total = 0i64;
    while data.len() < 3 * HAUL + (HAUL >> 3) {
        total += 1;
        match total % 1000 {
            0 => writeln!(data, "not json {total}").unwrap(),
            1 => writeln!(data, r#"{{"id":{total},"note":null}}"#).unwrap(),
            _ => writeln!(data, r#"{{"id":{total},"pad":"{pad}"}}"#).unwrap(),
        }
    }
    let skipped = total / 1000;
    std::fs::write(&path, &data).unwrap();

    let job = JobConfig::new().on_error(typefuse::ErrorPolicy::skip());
    let start = |recorder: &Recorder| {
        Daemon::start(fast(
            ServeConfig::new()
                .job(job.clone().recorder(recorder.clone()))
                .watch_file("backlog", &path)
                .checkpoint_dir(&ckpt),
        ))
        .unwrap()
    };
    let recorder = Recorder::enabled();
    let daemon = start(&recorder);
    let mut client = Client::connect(daemon.addr());

    // Ask without pause until the backlog is folded; every answer in
    // between is a partial fold.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut partial = std::collections::BTreeSet::new();
    loop {
        let text = client.request(r#"{"op":"metrics"}"#);
        let env = Envelope::expect_kind(&text, "telemetry").unwrap();
        let counters = env.payload.get("counters").unwrap();
        let records = counters
            .get("typefuse_source_records{source=\"backlog\"}")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        if records == total - skipped {
            break;
        }
        if records > 0 {
            partial.insert(records);
        }
        assert!(Instant::now() < deadline, "stuck at {records} of {total}");
    }
    assert!(
        !partial.is_empty(),
        "nothing was served between the first haul and the last"
    );
    let counters = recorder.snapshot().counters;
    let batches = counters["serve.publishes"] + counters["serve.publish_skipped"];
    assert!(batches >= 3, "{batches} batches for more than three hauls");

    // The end state is the whole file's.
    let batch = job
        .build()
        .run_profiled(typefuse::pipeline::Source::ndjson(&data[..]))
        .unwrap();
    let served = client.wait_for_records("backlog", total - skipped);
    assert_eq!(
        served.payload.get("schema").and_then(Value::as_str),
        Some(batch.profile.schema.to_string().as_str())
    );
    assert_eq!(
        served.payload.get("skipped").and_then(Value::as_i64),
        Some(skipped)
    );
    let profile = |client: &mut Client| client.request(r#"{"op":"profile","source":"backlog"}"#);
    let served_profile = profile(&mut client);
    assert!(
        served_profile.contains(&batch.profile.to_json()),
        "the served profile is the batch profile"
    );

    // And so is the checkpoint: a restart resumes at the end of the
    // file, with every count and the profile in place.
    drop(client);
    daemon.shutdown();
    let recorder = Recorder::enabled();
    let daemon = start(&recorder);
    let mut client = Client::connect(daemon.addr());
    let resumed = client.wait_for_records("backlog", total - skipped);
    assert_eq!(recorder.snapshot().counters["serve.checkpoint_resumed"], 1);
    assert_eq!(resumed.payload.get("schema"), served.payload.get("schema"));
    assert_eq!(
        resumed.payload.get("skipped"),
        served.payload.get("skipped")
    );
    assert_eq!(profile(&mut client), served_profile);
    assert_eq!(
        recorder.snapshot().counters.get("json.bytes"),
        None,
        "nothing was read twice"
    );
    daemon.shutdown();
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

/// The TCP twin of `a_backlog_is_folded_in_hauls_and_served_in_between`:
/// a producer that writes faster than the daemon folds does not make one
/// poll read everything it sends. A connection is polled 8 MiB at a time
/// (`HAUL_BUDGET_BYTES`), what is folded so far is served in between,
/// and the end state is that of folding the stream whole.
#[test]
fn a_fast_producer_is_folded_in_hauls_and_served_in_between() {
    const HAUL: usize = 8 << 20;
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let feed_addr = probe.local_addr().unwrap();
    drop(probe);
    let pad = "x".repeat(400);
    let mut data: Vec<u8> = Vec::with_capacity(3 * HAUL + (1 << 20));
    let mut total = 0i64;
    while data.len() < 3 * HAUL + (HAUL >> 3) {
        total += 1;
        match total % 1000 {
            0 => writeln!(data, "not json {total}").unwrap(),
            1 => writeln!(data, r#"{{"id":{total},"note":null}}"#).unwrap(),
            _ => writeln!(data, r#"{{"id":{total},"pad":"{pad}"}}"#).unwrap(),
        }
    }
    let skipped = total / 1000;

    let job = JobConfig::new().on_error(typefuse::ErrorPolicy::skip());
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(job.clone().recorder(recorder.clone()))
            .tcp_source("feed", feed_addr.to_string()),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    let producer = {
        let data = data.clone();
        std::thread::spawn(move || {
            let mut conn = TcpStream::connect(feed_addr).unwrap();
            conn.write_all(&data).unwrap();
        })
    };

    // Ask without pause until the stream is folded; every answer in
    // between is a partial fold.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut partial = std::collections::BTreeSet::new();
    loop {
        let text = client.request(r#"{"op":"metrics"}"#);
        let env = Envelope::expect_kind(&text, "telemetry").unwrap();
        let counters = env.payload.get("counters").unwrap();
        let records = counters
            .get("typefuse_source_records{source=\"feed\"}")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        if records == total - skipped {
            break;
        }
        if records > 0 {
            partial.insert(records);
        }
        assert!(Instant::now() < deadline, "stuck at {records} of {total}");
    }
    producer.join().unwrap();
    assert!(
        !partial.is_empty(),
        "nothing was served between the first haul and the last"
    );
    let counters = recorder.snapshot().counters;
    let batches = counters["serve.publishes"] + counters["serve.publish_skipped"];
    assert!(batches >= 3, "{batches} batches for more than three hauls");

    // The end state is the whole stream's.
    let batch = job
        .build()
        .run_profiled(typefuse::pipeline::Source::ndjson(&data[..]))
        .unwrap();
    let served = client.wait_for_records("feed", total - skipped);
    assert_eq!(
        served.payload.get("schema").and_then(Value::as_str),
        Some(batch.profile.schema.to_string().as_str())
    );
    assert_eq!(
        served.payload.get("skipped").and_then(Value::as_i64),
        Some(skipped)
    );
    let profile = client.request(r#"{"op":"profile","source":"feed"}"#);
    assert!(
        profile.contains(&batch.profile.to_json()),
        "the served profile is the batch profile"
    );
    daemon.shutdown();
}

/// What a daemon served over a feed appended in phases, and how it got
/// there.
struct Served {
    /// `schema` text, registry log bytes and drift alerts: what must not
    /// depend on the Reduce route.
    answers: (String, Vec<u8>, String),
    distinct_shapes: i64,
    publish_skipped: u64,
}

/// Serve `phases` (each appended in one write once the previous one is
/// folded; the first one is there before the daemon starts) under
/// `dedup`, with a registry log.
fn serve_in_phases(name: &str, dedup: DedupMode, phases: &[Vec<String>]) -> Served {
    let path = temp_path(&format!("{name}-{dedup:?}.ndjson"));
    let registry = temp_path(&format!("{name}-{dedup:?}.registry"));
    std::fs::remove_file(&registry).ok();
    let text = |lines: &[String]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    std::fs::write(&path, text(&phases[0])).unwrap();
    let recorder = Recorder::enabled();
    // Registry versions follow the poll batches: a slow poll makes it
    // unlikely to catch an append half-written.
    let config = ServeConfig::new()
        .job(JobConfig::new().dedup(dedup).recorder(recorder.clone()))
        .registry(&registry)
        .watch_file("s", &path);
    let daemon = Daemon::start(fast(config).poll_interval(Duration::from_millis(50))).unwrap();
    let mut client = Client::connect(daemon.addr());
    let mut records = phases[0].len();
    client.wait_for_records("s", records as i64);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for phase in &phases[1..] {
        file.write_all(text(phase).as_bytes()).unwrap();
        records += phase.len();
        client.wait_for_records("s", records as i64);
    }
    let schema = client.wait_for_records("s", records as i64).payload;
    let health = Envelope::expect_kind(&client.request(r#"{"op":"health"}"#), "health")
        .unwrap()
        .payload;
    let drift = health.get("sources").and_then(|s| s.as_array()).unwrap()[0]
        .get("drift")
        .unwrap()
        .to_string();
    let metrics = client.request(r#"{"op":"metrics"}"#);
    let distinct_shapes = Envelope::expect_kind(&metrics, "telemetry")
        .unwrap()
        .payload
        .get("gauges")
        .and_then(|g| g.get(r#"typefuse_source_distinct_shapes{source="s"}"#))
        .and_then(Value::as_i64)
        .unwrap();
    daemon.shutdown();
    let served = Served {
        answers: (
            schema.get("schema").and_then(Value::as_str).unwrap().into(),
            std::fs::read(&registry).unwrap(),
            drift,
        ),
        distinct_shapes,
        publish_skipped: recorder.counter_value("serve.publish_skipped"),
    };
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&registry).ok();
    served
}

/// A default daemon (`--dedup auto`) samples its feed's first 512
/// records as batch does: a feed of unique shapes stays on the plain
/// route (no shapes interned, and still no publish for a batch that
/// does not widen the schema), a repetitive one switches to dedup.
/// Either way it serves what a `--dedup on` daemon serves, byte for
/// byte: the schema, every registry version and the drift alerts.
#[test]
fn a_default_daemon_samples_its_feed_and_serves_what_a_dedup_daemon_serves() {
    let unique: Vec<String> = (0..600)
        .map(|i| format!(r#"{{"id": {i}, "k{i}": true}}"#))
        .collect();
    let repetitive: Vec<String> = (0..600)
        .map(|i| match i % 3 {
            0 => format!(r#"{{"id": {i}}}"#),
            1 => format!(r#"{{"id": {i}, "tag": "x"}}"#),
            _ => format!(r#"{{"id": {i}, "tags": [{i}]}}"#),
        })
        .collect();
    for (name, feed, switches) in [("unique", unique, false), ("repetitive", repetitive, true)] {
        // The sample fills in the last phase; the middle one widens
        // nothing.
        let phases = [
            feed[..500].to_vec(),
            vec![r#"{"id": 0}"#.to_string()],
            feed[500..].to_vec(),
        ];
        let auto = serve_in_phases(name, DedupMode::Auto, &phases);
        let on = serve_in_phases(name, DedupMode::On, &phases);
        assert_eq!(auto.answers, on.answers, "{name}");
        assert_eq!(auto.distinct_shapes > 0, switches, "{name}");
        assert!(on.distinct_shapes > 0, "{name}");
        // Unique shapes widen in the last phase; repetitive ones do not.
        let skipped = if switches { 2 } else { 1 };
        assert_eq!(auto.publish_skipped, skipped, "{name}");
        assert_eq!(on.publish_skipped, skipped, "{name}");
    }
}
