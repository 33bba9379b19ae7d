//! Daemon fault-injection tests: durable checkpoints across restarts,
//! supervised poller crashes, circuit breaking, rotation, and
//! checkpoint corruption. The common claim under test: no fault short
//! of losing the data itself changes the schema the daemon serves.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use typefuse::JobConfig;
use typefuse_json::{Envelope, Value};
use typefuse_obs::{series_key, Recorder};
use typefuse_serve::{ChaosConfig, Daemon, PollerPanic, ServeConfig, SupervisorPolicy};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("typefuse-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast(config: ServeConfig) -> ServeConfig {
    config
        .listen("127.0.0.1:0")
        .poll_interval(Duration::from_millis(5))
        .checkpoint_interval(Duration::from_millis(10))
}

/// A supervisor that restarts almost instantly, for tests that crash
/// pollers on purpose.
fn fast_supervisor(max_failures: u32) -> SupervisorPolicy {
    SupervisorPolicy {
        max_failures,
        window: Duration::from_secs(60),
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(10),
    }
}

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

/// Poll a hub series (gauge or counter) until it reaches `want`.
fn wait_series(daemon: &Daemon, key: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let sample = daemon.hub().sample();
        let got = sample
            .gauges
            .get(key)
            .or_else(|| sample.counters.get(key))
            .copied();
        if got == Some(want) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {key} == {want} (at {got:?})"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn batch_schema(path: &Path) -> String {
    JobConfig::new()
        .build()
        .run_ndjson(BufReader::new(std::fs::File::open(path).unwrap()))
        .unwrap()
        .schema
        .to_string()
}

fn append(path: &Path, text: &str) {
    let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    file.write_all(text.as_bytes()).unwrap();
    file.flush().unwrap();
}

#[test]
fn clean_shutdown_checkpoint_resumes_byte_identically_with_no_rereads() {
    let feed = temp_path("clean.ndjson");
    let ckpt = fresh_dir("clean-ckpt");
    std::fs::write(&feed, "{\"a\":1}\n{\"a\":2,\"b\":true}\n{\"a\":3}\n").unwrap();

    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let first = Client::connect(daemon.addr())
        .wait_for_records("events", 3)
        .payload;
    daemon.shutdown();

    // Appends land while the daemon is down.
    append(&feed, "{\"a\":4,\"c\":\"x\"}\n{\"a\":null}\n");

    // Restart with a fresh recorder: its ingest counter sees only what
    // this incarnation actually reads.
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    let resumed = client.wait_for_records("events", 5).payload;

    let served = resumed.get("schema").and_then(Value::as_str).unwrap();
    assert_eq!(served, batch_schema(&feed), "resume == uninterrupted batch");
    // The old schema was a prefix of this run, not a re-read: only the
    // two post-restart records passed through the parser.
    assert_eq!(recorder.snapshot().counters["ingest.records"], 2);
    // The restored version survived (v1 from the first run), and the
    // drift to v2 is relative to it.
    assert_eq!(first.get("version").and_then(Value::as_i64), Some(1));

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn uncontrolled_stop_resumes_from_the_last_periodic_checkpoint() {
    let feed = temp_path("kill.ndjson");
    let ckpt = fresh_dir("kill-ckpt");
    std::fs::write(&feed, "{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n").unwrap();

    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    // Wait until a periodic checkpoint covers all three lines, then
    // tear the daemon down *without* shutdown(): no final compacting
    // sync runs, exactly like a crash after the last tick.
    wait_series(
        &daemon,
        &series_key("typefuse_source_checkpoint_lines", &[("source", "events")]),
        3,
    );
    daemon.stop();
    drop(daemon);

    append(&feed, "{\"n\":4,\"late\":true}\n");
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let env = Client::connect(daemon.addr())
        .wait_for_records("events", 4)
        .payload;
    assert_eq!(
        env.get("schema").and_then(Value::as_str).unwrap(),
        batch_schema(&feed)
    );
    assert_eq!(
        recorder.snapshot().counters["ingest.records"],
        1,
        "only the post-crash append is re-read"
    );
    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn injected_poller_panic_restarts_the_poller_and_keeps_serving() {
    let feed = temp_path("panic.ndjson");
    std::fs::write(&feed, "{\"x\":1}\n{\"x\":2}\n{\"x\":3}\n").unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .supervisor(fast_supervisor(5))
            .chaos(ChaosConfig {
                poller_panic: Some(PollerPanic {
                    source: "events".to_string(),
                    at_records: 3,
                    times: 1,
                }),
                checkpoint_write_failures: 0,
            }),
    ))
    .unwrap();

    // The poller folds all three records, then the injected panic
    // kills that incarnation; the supervisor restarts it.
    wait_series(
        &daemon,
        &series_key("typefuse_source_restarts", &[("source", "events")]),
        1,
    );
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 3);

    // The restarted incarnation is a working poller, not a zombie:
    // fresh appends still fold.
    append(&feed, "{\"x\":4}\n{\"x\":5,\"y\":\"z\"}\n");
    let env = client.wait_for_records("events", 5).payload;
    assert_eq!(
        env.get("schema").and_then(Value::as_str).unwrap(),
        batch_schema(&feed)
    );
    // Healthy again after the backoff: breaker gauge back to 0.
    wait_series(
        &daemon,
        &series_key("typefuse_source_breaker", &[("source", "events")]),
        0,
    );
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counters["serve.poller_crashes"], 1);
    assert_eq!(
        daemon
            .hub()
            .sample()
            .counters
            .get("typefuse_supervisor_restarts_total")
            .copied(),
        Some(1)
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
}

#[test]
fn repeated_crashes_trip_the_breaker_and_park_the_source_without_killing_the_daemon() {
    let feed = temp_path("trip.ndjson");
    std::fs::write(&feed, "{\"x\":1}\n").unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .supervisor(fast_supervisor(2))
            .chaos(ChaosConfig {
                // The trigger stays satisfied after every restart, so
                // the poller crashes until the breaker trips.
                poller_panic: Some(PollerPanic {
                    source: "events".to_string(),
                    at_records: 1,
                    times: 99,
                }),
                checkpoint_write_failures: 0,
            }),
    ))
    .unwrap();

    wait_series(
        &daemon,
        &series_key("typefuse_source_breaker", &[("source", "events")]),
        2,
    );
    // The breaker parked the source (visible in health), but the
    // daemon itself keeps answering.
    let mut client = Client::connect(daemon.addr());
    let text = client.request(r#"{"op":"health"}"#);
    let health = typefuse_json::to_string(&Envelope::expect_kind(&text, "health").unwrap().payload);
    assert!(
        health.contains("\"status\":\"failed"),
        "parked source in: {health}"
    );
    assert!(
        health.contains("circuit breaker tripped"),
        "alert in: {health}"
    );
    // The schema folded before the first crash is still served.
    let text = client.request(r#"{"op":"schema","source":"events"}"#);
    let env = Envelope::expect_kind(&text, "schema").unwrap();
    assert_eq!(env.payload.get("records").and_then(Value::as_i64), Some(1));

    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counters["serve.breaker_trips"], 1);
    assert!(snapshot.counters["serve.poller_crashes"] >= 2);
    let events = daemon.events();
    assert!(
        events
            .recent(64)
            .iter()
            .any(|e| e.span == "supervisor" && e.message.contains("circuit breaker tripped")),
        "trip alert event"
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
}

#[test]
fn corrupt_and_torn_checkpoints_degrade_to_a_serving_daemon() {
    let feed = temp_path("corrupt.ndjson");
    let ckpt = fresh_dir("corrupt-ckpt");
    std::fs::write(&feed, "{\"k\":1}\n{\"k\":2}\n").unwrap();

    // Seed a valid single-frame checkpoint via a clean shutdown.
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    Client::connect(daemon.addr()).wait_for_records("events", 2);
    daemon.shutdown();
    let file = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("checkpoint written");

    // Torn tail: garbage appended after the good frame. The loader
    // falls back to the frame; only the new record is re-read.
    let good = std::fs::read(&file).unwrap();
    append(&file, "TFC1 torn garbage after the valid frame");
    append(&feed, "{\"k\":3}\n");
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let env = Client::connect(daemon.addr())
        .wait_for_records("events", 3)
        .payload;
    assert_eq!(
        env.get("schema").and_then(Value::as_str).unwrap(),
        batch_schema(&feed)
    );
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counters["serve.checkpoint_torn"], 1);
    assert_eq!(snapshot.counters["serve.checkpoint_resumed"], 1);
    assert_eq!(snapshot.counters["ingest.records"], 1, "no re-read");
    daemon.shutdown();

    // Fully corrupt file: every byte garbage. The daemon starts cold,
    // re-reads everything, and still serves the right schema.
    std::fs::write(&file, vec![0xAAu8; good.len()]).unwrap();
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let env = Client::connect(daemon.addr())
        .wait_for_records("events", 3)
        .payload;
    assert_eq!(
        env.get("schema").and_then(Value::as_str).unwrap(),
        batch_schema(&feed)
    );
    assert_eq!(recorder.snapshot().counters["ingest.records"], 3, "cold");
    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn recreated_smaller_source_file_is_reread_from_byte_zero() {
    let feed = temp_path("rotate.ndjson");
    std::fs::write(
        &feed,
        "{\"r\":1,\"tag\":\"aaaa\"}\n{\"r\":2,\"tag\":\"bbbb\"}\n",
    )
    .unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 2);

    // Rotate: same name, new (smaller) file. The poller's stat sees
    // the length fall below its offset and resets to byte 0.
    std::fs::remove_file(&feed).unwrap();
    std::fs::write(&feed, "{\"r\":3}\n").unwrap();
    client.wait_for_records("events", 3);
    assert!(recorder.snapshot().counters["serve.rotations"] >= 1);
    assert!(
        daemon
            .events()
            .recent(64)
            .iter()
            .any(|e| e.message.contains("rotation assumed")),
        "rotation warning logged"
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
}

#[test]
fn a_source_file_replaced_by_a_longer_one_is_reread_from_byte_zero() {
    let feed = temp_path("replace.ndjson");
    let old = "{\"r\":1}\n{\"r\":2}\n";
    std::fs::write(&feed, old).unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 2);

    // Rotate to a file longer than what was read: the length rule
    // cannot see it, only the path now naming another file.
    std::fs::remove_file(&feed).unwrap();
    let new: String = (3..8)
        .map(|r| format!("{{\"r\":{r},\"tag\":\"{}\"}}\n", "t".repeat(24)))
        .collect();
    std::fs::write(&feed, &new).unwrap();
    let served = client.wait_for_records("events", 7).payload;
    assert!(recorder.snapshot().counters["serve.rotations"] >= 1);
    let both = JobConfig::new()
        .build()
        .run_ndjson(format!("{old}{new}").as_bytes())
        .unwrap();
    assert_eq!(
        served.get("schema").and_then(Value::as_str),
        Some(both.schema.to_string().as_str())
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
}

#[test]
fn a_source_file_replaced_while_the_daemon_is_down_is_reread_on_resume() {
    let feed = temp_path("down-rotate.ndjson");
    let ckpt = fresh_dir("down-rotate-ckpt");
    let old = "{\"id\":1,\"tag\":\"aaaaaaaaaaaa\"}\n{\"id\":2,\"tag\":\"bbbbbbbbbbbb\"}\n";
    std::fs::write(&feed, old).unwrap();
    let start = |recorder: &Recorder| {
        Daemon::start(fast(
            ServeConfig::new()
                .job(JobConfig::new().recorder(recorder.clone()))
                .watch_file("events", &feed)
                .checkpoint_dir(&ckpt),
        ))
        .unwrap()
    };
    let daemon = start(&Recorder::enabled());
    Client::connect(daemon.addr()).wait_for_records("events", 2);
    daemon.shutdown();

    // Replaced by a shorter file while the daemon is down: the
    // checkpointed offset lies past its end.
    std::fs::remove_file(&feed).unwrap();
    let new = "{\"id\":3,\"new\":true}\n";
    std::fs::write(&feed, new).unwrap();

    let recorder = Recorder::enabled();
    let daemon = start(&recorder);
    let served = Client::connect(daemon.addr())
        .wait_for_records("events", 3)
        .payload;
    let counters = recorder.snapshot().counters;
    assert_eq!(counters["serve.checkpoint_resumed"], 1);
    assert_eq!(counters["serve.rotations"], 1);
    assert_eq!(counters["ingest.records"], 1, "the new file, from byte 0");
    let warnings: Vec<String> = daemon
        .events()
        .recent(64)
        .into_iter()
        .map(|e| e.message)
        .filter(|m| m.contains("rotation assumed"))
        .collect();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert!(
        warnings[0].contains("re-reading from byte 0"),
        "{warnings:?}"
    );
    // The fold kept what it had and added the new file's records.
    let both = JobConfig::new()
        .build()
        .run_ndjson(format!("{old}{new}").as_bytes())
        .unwrap();
    assert_eq!(
        served.get("schema").and_then(Value::as_str),
        Some(both.schema.to_string().as_str())
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn injected_checkpoint_write_failures_are_retried_until_durable() {
    let feed = temp_path("ckptfail.ndjson");
    let ckpt = fresh_dir("ckptfail-ckpt");
    std::fs::write(&feed, "{\"w\":1}\n{\"w\":2}\n").unwrap();

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt)
            .chaos(ChaosConfig {
                poller_panic: None,
                checkpoint_write_failures: 2,
            }),
    ))
    .unwrap();
    // Two ticks fail with the injected error, then the third lands.
    wait_series(
        &daemon,
        &series_key("typefuse_source_checkpoint_lines", &[("source", "events")]),
        2,
    );
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counters["serve.checkpoint_failures"], 2);
    assert!(snapshot.counters["serve.checkpoints"] >= 1);
    assert!(
        daemon
            .events()
            .recent(64)
            .iter()
            .any(|e| e.span == "checkpoint" && e.message.contains("will retry")),
        "failure warning logged"
    );
    daemon.shutdown();

    // The eventually-durable checkpoint is a working resume point.
    let recorder = Recorder::enabled();
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(JobConfig::new().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    Client::connect(daemon.addr()).wait_for_records("events", 2);
    assert_eq!(recorder.snapshot().counters.get("ingest.records"), None);
    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

#[test]
fn session_limit_rejects_and_idle_sessions_are_closed() {
    let feed = temp_path("sessions.ndjson");
    std::fs::write(&feed, "{\"s\":1}\n").unwrap();

    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .watch_file("events", &feed)
            .max_sessions(2)
            .session_idle_timeout(Duration::from_millis(300)),
    ))
    .unwrap();

    // Fill both session slots.
    let mut a = Client::connect(daemon.addr());
    a.wait_for_records("events", 1);
    let mut b = Client::connect(daemon.addr());
    b.request(r#"{"op":"health"}"#);
    // The third connection is rejected: the error envelope arrives
    // unprompted and the daemon closes the connection.
    let stream = TcpStream::connect(daemon.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let env = Envelope::expect_kind(line.trim(), "error").unwrap();
    assert!(
        env.payload
            .get("message")
            .and_then(Value::as_str)
            .unwrap()
            .contains("session limit"),
        "{line}"
    );

    // Idle sessions are reaped: after the timeout both held sessions
    // are closed (each gets a parting error envelope) and a new
    // connection is accepted again. Probes racing the close may hit a
    // broken pipe or read the rejection envelope — both mean "retry".
    let try_health = |addr: std::net::SocketAddr| -> Option<String> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
        let mut writer = stream.try_clone().ok()?;
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"health\"}\n").ok()?;
        writer.flush().ok()?;
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        Some(line.trim().to_string())
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let accepted = try_health(daemon.addr())
            .is_some_and(|text| Envelope::expect_kind(&text, "health").is_ok());
        if accepted {
            break;
        }
        assert!(Instant::now() < deadline, "idle reaping never freed a slot");
        std::thread::sleep(Duration::from_millis(50));
    }

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
}

/// `fixtures/events-c6bb7d04.ckpt` is the checkpoint file a daemon of
/// the last release before the record-fold kernel (hand-written `v: 1`
/// payload) left behind on clean shutdown, `--on-error skip`, after the
/// first 55 bytes of the feed below: three lines folded, a fourth
/// half-read.
#[test]
fn a_checkpoint_file_written_before_the_fold_kernel_resumes_byte_identically() {
    let feed = temp_path("legacy.ndjson");
    let ckpt = fresh_dir("legacy-ckpt");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/events-c6bb7d04.ckpt");
    std::fs::copy(&fixture, ckpt.join("events-c6bb7d04.ckpt")).unwrap();
    std::fs::write(
        &feed,
        "{\"a\": 1}\nnot json\n{\"a\": \"x\", \"b\": [1, null]}\n{\"b\": {\"c\": 1.5}}\nnor this\n{\"d\": []}\n",
    )
    .unwrap();

    let recorder = Recorder::enabled();
    let job = || JobConfig::new().on_error(typefuse::ErrorPolicy::skip());
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(job().recorder(recorder.clone()))
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    let served = client.wait_for_records("events", 4).payload;

    let read = || BufReader::new(std::fs::File::open(&feed).unwrap());
    let batch = job().build().run_ndjson(read()).unwrap();
    assert_eq!(
        served.get("schema").and_then(Value::as_str).unwrap(),
        batch.schema.to_string()
    );
    assert_eq!(served.get("skipped").and_then(Value::as_i64), Some(2));
    assert_eq!(served.get("version").and_then(Value::as_i64), Some(2));
    let counters = recorder.snapshot().counters;
    assert_eq!(counters["serve.checkpoint_resumed"], 1);
    assert_eq!(
        counters["ingest.records"], 2,
        "the first 55 bytes are not re-read"
    );

    // The profile resumed too: provenance lines span both incarnations.
    let profiled = job()
        .build()
        .run_profiled(typefuse::pipeline::Source::ndjson(read()))
        .unwrap();
    let text = client.request(r#"{"op":"profile","source":"events"}"#);
    assert!(
        text.contains(&profiled.profile.to_json()),
        "served {text}\n batch {}",
        profiled.profile.to_json()
    );

    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

/// The single frame a clean shutdown left in `dir`: its file and payload.
fn only_frame(dir: &Path) -> (PathBuf, Vec<u8>) {
    let file = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("checkpoint written");
    let data = std::fs::read(&file).unwrap();
    assert_eq!(&data[..4], b"TFC1");
    let len = u64::from_le_bytes(data[4..12].try_into().unwrap()) as usize;
    assert_eq!(data.len(), 20 + len, "one frame after a clean shutdown");
    (file, data[12..12 + len].to_vec())
}

/// `fixtures/source-events.ckpt.json` is the payload a daemon wrote on
/// clean shutdown (`last_activity_ms` zeroed) when every checkpoint was
/// still built as a `Value` tree and serialized: a profiled source under
/// `--on-error skip` with a skipped line, two versions and their drift
/// alert, and half a line pending at the tail. Re-bless with
/// `TYPEFUSE_BLESS=1` only when the format is meant to change.
#[test]
fn the_source_checkpoint_payload_matches_the_golden_file() {
    let feed = temp_path("golden.ndjson");
    let ckpt = fresh_dir("golden-ckpt");
    std::fs::write(&feed, "{\"id\": 1, \"tags\": [\"a\"]}\nnot json\n").unwrap();
    let job = JobConfig::new().on_error(typefuse::ErrorPolicy::skip());
    let daemon = Daemon::start(fast(
        ServeConfig::new()
            .job(job)
            .watch_file("events", &feed)
            .checkpoint_dir(&ckpt),
    ))
    .unwrap();
    let mut client = Client::connect(daemon.addr());
    client.wait_for_records("events", 1);
    append(&feed, "{\"id\": 2, \"name\": \"x\\ty\"}\n{\"partial\": ");
    client.wait_for_records("events", 2);
    daemon.shutdown();

    let (_, payload) = only_frame(&ckpt);
    let mut payload = String::from_utf8(payload).unwrap();
    let key = "\"last_activity_ms\":\"";
    let at = payload.find(key).expect("activity stamped") + key.len();
    let end = at + payload[at..].find('"').unwrap();
    payload.replace_range(at..end, "0");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/source-events.ckpt.json");
    if std::env::var_os("TYPEFUSE_BLESS").is_some() {
        std::fs::write(&golden, &payload).unwrap();
    }
    assert_eq!(payload, std::fs::read_to_string(&golden).unwrap());
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}

/// A frame whose checksum verifies but whose payload is not JSON (a
/// writer bug, not a torn write) is passed over for the frame before it.
#[test]
fn a_verified_last_frame_that_is_not_json_falls_back_to_the_frame_before() {
    let feed = temp_path("badjson.ndjson");
    let ckpt = fresh_dir("badjson-ckpt");
    std::fs::write(&feed, "{\"k\":1}\n{\"k\":2}\n").unwrap();
    let config = |recorder: &Recorder| {
        fast(
            ServeConfig::new()
                .job(JobConfig::new().recorder(recorder.clone()))
                .watch_file("events", &feed)
                .checkpoint_dir(&ckpt),
        )
    };
    let daemon = Daemon::start(config(&Recorder::disabled())).unwrap();
    Client::connect(daemon.addr()).wait_for_records("events", 2);
    daemon.shutdown();

    let (file, _) = only_frame(&ckpt);
    let bad = br#"{"v":1,"name":"#;
    let sum = bad.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    });
    let mut frame = b"TFC1".to_vec();
    frame.extend_from_slice(&(bad.len() as u64).to_le_bytes());
    frame.extend_from_slice(bad);
    frame.extend_from_slice(&sum.to_le_bytes());
    std::fs::OpenOptions::new()
        .append(true)
        .open(&file)
        .unwrap()
        .write_all(&frame)
        .unwrap();
    append(&feed, "{\"k\":3}\n");

    let recorder = Recorder::enabled();
    let daemon = Daemon::start(config(&recorder)).unwrap();
    let env = Client::connect(daemon.addr())
        .wait_for_records("events", 3)
        .payload;
    assert_eq!(
        env.get("schema").and_then(Value::as_str).unwrap(),
        batch_schema(&feed)
    );
    let counters = recorder.snapshot().counters;
    assert_eq!(counters["serve.checkpoint_torn"], 1);
    assert_eq!(counters["serve.checkpoint_resumed"], 1);
    assert_eq!(
        counters["ingest.records"], 1,
        "resumed from the first frame"
    );
    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
}
