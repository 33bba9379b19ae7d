//! Cross-driver equivalence of the record-fold kernel.
//!
//! Batch (`SchemaJob::run`), stdin-style streaming (`for_each_line` →
//! `RecordFold`), byte-range splits (`splits::infer_file`) and a real
//! resident daemon (fed in batch cuts, shut down and resumed from its
//! checkpoint at one of them) are four drivers over one kernel. For any
//! route × dedup mode × fuse configuration they must report the same
//! schema text, record count and skipped count — and, where the fold
//! carries a profile, the same profile JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use typefuse::datagen::{DatasetProfile, Profile};
use typefuse::fold::{for_each_line, Origin, RecordFold};
use typefuse::infer::{ArrayFusion, FuseConfig};
use typefuse::pipeline::{DedupMode, MapPath, SchemaJob, Source};
use typefuse::{splits, BadRecord, ErrorPolicy, JobConfig, RetryPolicy};
use typefuse_json::{ErrorKind, Value};
use typefuse_obs::Recorder;
use typefuse_serve::{Daemon, ServeConfig};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("typefuse-fold-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The records as NDJSON with a malformed line (four kinds in rotation,
/// one of them not UTF-8) in place of every `bad_every`th. Returns the
/// bytes and how many lines are bad.
fn corpus(values: impl Iterator<Item = Value>, bad_every: usize) -> (Vec<u8>, u64) {
    const BAD: [&[u8]; 4] = [b"{\"a\":", b"\xff\xfe", b"oops", b"[1, 2"];
    let (mut bytes, mut bad) = (Vec::new(), 0);
    for (i, value) in values.enumerate() {
        if i % bad_every == bad_every / 2 {
            bytes.extend_from_slice(BAD[bad as usize % BAD.len()]);
            bad += 1;
        } else {
            bytes.extend_from_slice(typefuse_json::to_string(&value).as_bytes());
        }
        bytes.push(b'\n');
    }
    (bytes, bad)
}

/// What every driver must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    schema: String,
    records: u64,
    skipped: u64,
}

/// The stdin-streaming driver, as `typefuse infer - --streaming` runs it.
fn stream(job: &SchemaJob, profile: bool, input: &[u8]) -> (Outcome, Option<String>) {
    let rec = &job.recorder;
    let mut fold = RecordFold::new(job.fold_config(profile), rec.clone());
    for_each_line(
        &mut &input[..],
        job.max_line_bytes,
        job.retry,
        rec,
        |line, bytes, truncated| fold.absorb_noting(Origin::Line(line), bytes, truncated),
    )
    .unwrap();
    let (schema, records, report, profile) = fold.finish();
    job.error_policy.enforce(&report, rec).unwrap();
    let outcome = Outcome {
        schema: schema.to_string(),
        records,
        skipped: report.skipped(),
    };
    (outcome, profile.map(|p| p.finish().to_json()))
}

/// One protocol session against a daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(daemon: &Daemon) -> Client {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// The raw response line (an envelope) for one request line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "daemon closed mid-request");
        response.trim().to_string()
    }

    /// The served schema, record count and skipped count.
    fn outcome(&mut self) -> Outcome {
        let text = self.request(r#"{"op":"schema","source":"s"}"#);
        let payload = typefuse_json::Envelope::expect_kind(&text, "schema")
            .unwrap()
            .payload;
        let count = |key: &str| payload.get(key).and_then(Value::as_i64).unwrap() as u64;
        Outcome {
            schema: payload
                .get("schema")
                .and_then(Value::as_str)
                .unwrap()
                .into(),
            records: count("records"),
            skipped: count("skipped"),
        }
    }
}

/// Wait (in process: a TCP round trip costs a delayed ACK) until the
/// daemon's one source has folded or skipped `lines` lines.
fn wait_for_lines(daemon: &Daemon, lines: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = typefuse_json::Envelope::expect_kind(&daemon.health_json(), "health")
            .unwrap()
            .payload;
        let source = health.get("sources").and_then(|s| s.get_index(0)).unwrap();
        let count = |key: &str| source.get(key).and_then(Value::as_i64).unwrap() as u64;
        if count("records") + count("skipped") == lines {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon stuck before {lines} lines"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn append(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    file.write_all(bytes).unwrap();
}

/// The resident driver: a real daemon tailing a file that grows in
/// three cuts (at line boundaries picked from `seed`), shut down after
/// one of them and restarted from its checkpoint.
fn serve(config: &JobConfig, input: &[u8], seed: u64, tag: &str) -> (Outcome, Option<String>) {
    let feed = scratch(&format!("{tag}.ndjson"));
    let ckpt = scratch(&format!("{tag}.ckpt"));
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();

    let line_ends: Vec<usize> = (0..input.len()).filter(|&i| input[i] == b'\n').collect();
    // The daemon reports records + skipped, which leaves blank lines out.
    let consumed = |end: usize| {
        let lines = input[..end].split(|&b| b == b'\n');
        lines
            .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
            .count() as u64
    };
    let mut state = seed;
    let mut pick = |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize % bound
    };
    let mut cuts = [pick(line_ends.len()), pick(line_ends.len())];
    cuts.sort_unstable();
    // Cut k ends after line `cuts[k]` (0-based); the last one is the rest.
    let cuts = [cuts[0] + 1, cuts[1] + 1, line_ends.len()];
    let restart_after = pick(2);

    let start = |recorder: &Recorder| {
        Daemon::start(
            ServeConfig::new()
                .listen("127.0.0.1:0")
                .poll_interval(Duration::from_millis(2))
                .checkpoint_interval(Duration::from_millis(10))
                .job(config.clone().recorder(recorder.clone()))
                .watch_file("s", &feed)
                .checkpoint_dir(&ckpt),
        )
        .unwrap()
    };
    let mut recorder = Recorder::enabled();
    let mut daemon = start(&recorder);
    let mut written = 0;
    for (k, &lines) in cuts.iter().enumerate() {
        let end = line_ends[lines - 1] + 1;
        append(&feed, &input[written..end]);
        written = end;
        wait_for_lines(&daemon, consumed(end));
        if k == restart_after {
            daemon.shutdown();
            recorder = Recorder::enabled();
            daemon = start(&recorder);
        }
    }
    let mut client = Client::connect(&daemon);
    let outcome = client.outcome();
    assert_eq!(
        recorder.snapshot().counters["serve.checkpoint_resumed"],
        1,
        "{tag}: the second daemon resumed from the first one's checkpoint"
    );
    let profile = (config.map_path != MapPath::Shape).then(|| {
        let text = client.request(r#"{"op":"profile","source":"s"}"#);
        let payload = text
            .strip_prefix(r#"{"schema_version":1,"kind":"profile","payload":"#)
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("{tag}: not a profile envelope: {text}"));
        payload.to_string()
    });
    daemon.shutdown();
    std::fs::remove_file(&feed).ok();
    std::fs::remove_dir_all(&ckpt).ok();
    (outcome, profile)
}

/// Every driver over every route × fuse configuration × the given dedup
/// modes.
fn assert_drivers_agree(name: &str, input: &[u8], bad: u64, dedups: &[DedupMode]) {
    let path = scratch(&format!("{name}.ndjson"));
    std::fs::write(&path, input).unwrap();
    let positional = FuseConfig {
        array_fusion: ArrayFusion::PositionalWhenAligned,
    };
    let mut seed = input.len() as u64;
    for route in [MapPath::Events, MapPath::Values, MapPath::Shape] {
        for fuse in [FuseConfig::default(), positional] {
            // The profile does not depend on the reduce route: one
            // batch reference per (route, fuse).
            let reference = JobConfig::new()
                .map_path(route)
                .fuse_config(fuse)
                .on_error(ErrorPolicy::skip());
            let profile = reference
                .clone()
                .workers(2)
                .partitions(5)
                .build()
                .run_profiled(Source::ndjson(input))
                .unwrap()
                .profile
                .to_json();
            for &dedup in dedups {
                let ctx = format!("{name} {route:?} {dedup:?} {:?}", fuse.array_fusion);
                let config = reference.clone().dedup(dedup);
                let batch = config
                    .clone()
                    .workers(2)
                    .partitions(5)
                    .build()
                    .run(Source::ndjson(input))
                    .unwrap();
                let expect = Outcome {
                    schema: batch.schema.to_string(),
                    records: batch.records,
                    skipped: batch.errors.skipped(),
                };
                assert_eq!(expect.skipped, bad, "{ctx}");

                // A fold with a profile on is the daemon's shape; without,
                // the CLI's. One of each per configuration.
                let with_profile = dedup != DedupMode::Off;
                let (streamed, streamed_profile) = stream(&config.build(), with_profile, input);
                assert_eq!(streamed, expect, "stream ({ctx})");
                if let Some(streamed_profile) = streamed_profile {
                    assert_eq!(streamed_profile, profile, "stream profile ({ctx})");
                }

                for workers in [1, 3, 8] {
                    let job = config.clone().workers(workers).build();
                    let file = splits::infer_file(&path, &job).unwrap();
                    let got = Outcome {
                        schema: file.schema.to_string(),
                        records: file.records,
                        skipped: file.errors.skipped(),
                    };
                    assert_eq!(got, expect, "splits w{workers} ({ctx})");
                }

                seed += 1;
                let tag = format!("{name}-{seed}");
                let (served, served_profile) = serve(&config, input, seed, &tag);
                assert_eq!(served, expect, "serve ({ctx})");
                if let Some(served_profile) = served_profile {
                    assert_eq!(served_profile, profile, "serve profile ({ctx})");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

const ALL_DEDUPS: [DedupMode; 3] = [DedupMode::On, DedupMode::Off, DedupMode::Auto];

/// The datagen profiles, sized for a debug-build test run: two bad
/// lines each.
fn assert_profile_agrees(profile: Profile, name: &str, records: usize) {
    let (input, bad) = corpus(profile.generate(11, records), records / 2);
    assert_eq!(bad, 2);
    assert_drivers_agree(name, &input, bad, &ALL_DEDUPS);
}

#[test]
fn github_drivers_agree() {
    assert_profile_agrees(Profile::GitHub, "github", 48);
}

#[test]
fn twitter_drivers_agree() {
    assert_profile_agrees(Profile::Twitter, "twitter", 60);
}

#[test]
fn wikidata_drivers_agree() {
    assert_profile_agrees(Profile::Wikidata, "wikidata", 24);
}

#[test]
fn nytimes_drivers_agree() {
    assert_profile_agrees(Profile::NYTimes, "nytimes", 60);
}

/// Small records, few shapes, 1 % bad lines, long enough that `--dedup
/// auto` fills its 512-record sample and switches route in the middle of
/// a fold (the stream's, the daemon's, the single split's).
#[test]
fn drivers_agree_across_a_mid_stream_dedup_switch() {
    let values = (0..600u32).map(|i| {
        let text = match i % 3 {
            0 => format!(r#"{{"id":{i},"tags":["a","b"]}}"#),
            1 => format!(r#"{{"id":{i},"ok":true,"at":[{i},2]}}"#),
            _ => format!(r#"{{"id":"{i}","ok":null}}"#),
        };
        typefuse_json::parse_value(&text).unwrap()
    });
    let (input, bad) = corpus(values, 100);
    assert_drivers_agree("small", &input, bad, &[DedupMode::Auto]);
}

/// One line-front rule on every driver: blank means ASCII whitespace
/// only, non-UTF-8 bytes are the parser's to position, and an oversized
/// line reports the configured cap.
#[test]
fn every_driver_reads_the_front_of_a_line_the_same_way() {
    const CAP: usize = 48;
    let lines: [&[u8]; 8] = [
        b"{\"a\":1}",
        "\u{a0}".as_bytes(),
        "\u{2028}".as_bytes(),
        b"\t \r",
        b"{\"a\":2}\xff",
        b"{\"s\":\"\xc3\x28\"}",
        b"{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}",
        b"  {\"b\":true}",
    ];
    let input = lines.join(&b'\n');
    let input = [&input[..], b"\n"].concat();
    let path = scratch("front.ndjson");
    std::fs::write(&path, &input).unwrap();

    let config = JobConfig::new()
        .max_line_bytes(CAP)
        .retry(RetryPolicy::none())
        .on_error(ErrorPolicy::skip());
    // A bad record modulo its origin: what went wrong, at which column,
    // in input order.
    let shape = |bad: &BadRecord| (bad.error.kind().clone(), bad.error.span().start.column);
    let batch = config.build().run(Source::ndjson(&input[..])).unwrap();
    let expect: Vec<_> = batch.errors.records().iter().map(shape).collect();
    let kinds: Vec<&ErrorKind> = expect.iter().map(|(kind, _)| kind).collect();
    assert_eq!(batch.records, 2, "{}", batch.schema);
    assert_eq!(batch.schema.to_string(), "{a: Num?, b: Bool?}");
    assert_eq!(
        kinds,
        [
            &ErrorKind::UnexpectedByte(0xc2),
            &ErrorKind::UnexpectedByte(0xe2),
            &ErrorKind::TrailingCharacters,
            &ErrorKind::InvalidUtf8,
            &ErrorKind::RecordTooLarge(CAP),
        ],
        "blank is the `\\t \\r` line alone"
    );
    let ats: Vec<u64> = batch.errors.records().iter().map(|bad| bad.at).collect();
    assert_eq!(ats, [2, 3, 5, 6, 7]);

    // Streaming reports the very same records, line origin included.
    let job = config.build();
    let mut fold = RecordFold::new(job.fold_config(false), Recorder::disabled());
    for_each_line(
        &mut &input[..],
        job.max_line_bytes,
        job.retry,
        &job.recorder,
        |line, bytes, truncated| fold.absorb_noting(Origin::Line(line), bytes, truncated),
    )
    .unwrap();
    assert_eq!(fold.records(), 2);
    assert_eq!(fold.report(), &batch.errors);

    // Splits report them at byte offsets, same kinds and columns.
    for workers in [1, 2, 5] {
        let file = splits::infer_file(&path, &config.clone().workers(workers).build()).unwrap();
        assert_eq!(file.records, 2, "w{workers}");
        let got: Vec<_> = file.errors.records().iter().map(shape).collect();
        assert_eq!(got, expect, "w{workers}");
    }

    // The daemon quarantines exactly what batch quarantines.
    let sinks = [scratch("front.batch.q"), scratch("front.serve.q")];
    let quarantined = |sink: &Path| config.clone().on_error(ErrorPolicy::quarantine(sink));
    quarantined(&sinks[0])
        .build()
        .run(Source::ndjson(&input[..]))
        .unwrap();
    let (served, _) = serve(&quarantined(&sinks[1]), &input, 3, "front-serve");
    assert_eq!((served.records, served.skipped), (2, 5));
    let [from_batch, from_serve] =
        sinks.map(|sink| typefuse::faults::read_quarantine(&sink).unwrap());
    assert_eq!(from_serve, from_batch);
    std::fs::remove_file(&path).ok();
}
