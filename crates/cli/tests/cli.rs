//! Integration tests driving the real `typefuse` binary.

use std::io::Write;
use std::process::{Command, Output, Stdio};
use typefuse_json::Value;

/// `/a/b/c` lookups into the reports and envelopes these tests read
/// (object keys only).
trait Pointer {
    fn pointer(&self, path: &str) -> Option<&Value>;
}

impl Pointer for Value {
    fn pointer(&self, path: &str) -> Option<&Value> {
        path.split('/').skip(1).try_fold(self, |v, key| v.get(key))
    }
}

fn typefuse(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_typefuse"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd.stdin(if stdin.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    let mut child = cmd.spawn().expect("binary spawns");
    if let Some(input) = stdin {
        // The binary may exit (e.g. on a usage error) before reading all
        // of stdin; a broken pipe here is expected, not a test failure.
        let _ = child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes());
    }
    child.wait_with_output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let out = typefuse(&["help"], None);
    assert!(out.status.success());
    let usage = stdout(&out);
    assert!(usage.contains("USAGE"));
    // `perf/` is the benchmark; the CLI has no `bench` and no exit code 6.
    assert!(
        !usage.contains("bench") && !usage.contains("6  "),
        "{usage}"
    );
}

#[test]
fn no_args_is_a_usage_error() {
    let out = typefuse(&[], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    for args in [&["frobnicate"][..], &["bench"], &["bench", "compare"]] {
        let out = typefuse(args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("unknown command"), "{args:?}");
    }
}

#[test]
fn infer_from_stdin_text_format() {
    let out = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":\"x\",\"b\":true}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).trim(), "{a: Num + Str, b: Bool?}");
}

#[test]
fn infer_stats_go_to_stderr() {
    let out = typefuse(
        &["infer", "-", "--format", "text", "--stats"],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success());
    let err = stderr(&out);
    assert!(err.contains("records           2"), "stderr: {err}");
    assert!(err.contains("distinct types    1"));
}

#[test]
fn infer_json_schema_format() {
    let out = typefuse(
        &["infer", "-", "--format", "json-schema"],
        Some("{\"a\":1}\n"),
    );
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("\"$schema\""));
    assert!(text.contains("\"properties\""));
}

#[test]
fn infer_rejects_bad_json() {
    let out = typefuse(&["infer", "-"], Some("{oops\n"));
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    assert!(stderr(&out).contains("parse error"));
}

#[test]
fn infer_rejects_unknown_format() {
    let out = typefuse(&["infer", "-", "--format", "yaml"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn the_retired_value_map_path_is_a_usage_error() {
    for args in [&["infer", "-"][..], &["explain", "$.a"]] {
        let out = typefuse(&[args, &["--map-path", "value"]].concat(), Some("{}\n"));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("events") && err.contains("shape"), "{err}");
    }
}

#[test]
fn generate_then_infer_pipe() {
    let gen = typefuse(
        &[
            "generate",
            "--profile",
            "github",
            "--records",
            "50",
            "--seed",
            "3",
        ],
        None,
    );
    assert!(gen.status.success());
    let ndjson = stdout(&gen);
    assert_eq!(ndjson.lines().count(), 50);

    let inf = typefuse(&["infer", "-", "--format", "text"], Some(&ndjson));
    assert!(inf.status.success());
    let schema = stdout(&inf);
    assert!(schema.contains("merged_at"), "schema: {schema}");
}

#[test]
fn generate_is_deterministic() {
    let a = typefuse(
        &["generate", "--profile", "twitter", "--records", "5"],
        None,
    );
    let b = typefuse(
        &["generate", "--profile", "twitter", "--records", "5"],
        None,
    );
    assert_eq!(stdout(&a), stdout(&b));
}

#[test]
fn generate_requires_profile() {
    let out = typefuse(&["generate"], None);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--profile"));
}

#[test]
fn generate_rejects_unknown_profile() {
    let out = typefuse(&["generate", "--profile", "hackernews"], None);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn stats_reports_counts() {
    let out = typefuse(&["stats", "-"], Some("{\"a\":1}\n{\"a\":{\"b\":2}}\n"));
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("records     2"));
    assert!(text.contains("max depth   3"));
}

#[test]
fn check_accepts_conforming_data() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-ok");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.txt");
    std::fs::write(&schema_path, "{a: Num, b: Str?}\n").unwrap();

    let out = typefuse(
        &["check", "-", "--schema", schema_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("2 of 2 records conform"));
}

#[test]
fn check_rejects_nonconforming_data() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.txt");
    std::fs::write(&schema_path, "{a: Num}\n").unwrap();

    let out = typefuse(
        &["check", "-", "--schema", schema_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":\"nope\"}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("record 2"));
}

/// A schema file that cannot be read exits 4 and one that does not
/// parse exits 3 — not 1, which means "does not conform" or "drift".
#[test]
fn a_broken_schema_file_exits_with_its_own_code() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-broken-schema");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("one.ndjson");
    std::fs::write(&data, "{\"a\": 1}\n").unwrap();
    let (data, bad) = (data.to_str().unwrap(), dir.join("bad.schema"));
    std::fs::write(&bad, "{a Num}\n").unwrap();
    let bad = bad.to_str().unwrap();
    let cases: [(&[&str], i32, &str); 4] = [
        (
            &["check", data, "--schema", "/nonexistent"],
            4,
            "cannot read /nonexistent",
        ),
        (&["check", data, "--schema", bad], 3, "invalid schema in"),
        (&["diff", bad, bad, "--schemas"], 3, "invalid schema in"),
        (&["diff", data, bad, "--schemas"], 3, "invalid schema in"),
    ];
    for (args, code, message) in cases {
        let out = typefuse(args, None);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
    }
}

/// `typefuse registry` says on stderr when opening the log dropped a
/// torn append, and refuses a log whose complete last line is corrupt;
/// a read-only command leaves either log as it found it.
#[test]
fn registry_commands_report_recovery_and_keep_a_corrupt_log() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-registry-open");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("reg.ndjson");
    let good = "{\"name\":\"a\",\"version\":1,\"schema\":\"Num\"}\n";
    let torn = format!("{good}{{\"name\":\"a\",\"ver");
    std::fs::write(&log, &torn).unwrap();
    let args = ["registry", "names", "--log", log.to_str().unwrap()];
    let out = typefuse(&args, None);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "a\n");
    assert!(
        stderr(&out).contains("torn trailing record at line 2"),
        "{}",
        stderr(&out)
    );
    assert_eq!(std::fs::read_to_string(&log).unwrap(), torn);

    let corrupt = format!("{good}{{\"name\":\"a\",\"version\":2,\"schema\":\"[[[Num\"}}\n");
    std::fs::write(&log, &corrupt).unwrap();
    let out = typefuse(&args, None);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    assert_eq!(std::fs::read_to_string(&log).unwrap(), corrupt);
}

#[test]
fn unexpected_argument_is_reported() {
    const GONE_FLAG: &str = concat!("--sequential", "-reduce");
    for (args, flag) in [
        (["stats", "-", "--bogus"], "--bogus"),
        // A flag that no longer exists (it picked the combine's topology).
        (["infer", "-", GONE_FLAG], GONE_FLAG),
    ] {
        let out = typefuse(&args, None);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn diff_reports_drift_between_datasets() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.ndjson");
    let new = dir.join("new.ndjson");
    std::fs::write(&old, "{\"id\":1,\"name\":\"a\"}\n").unwrap();
    std::fs::write(&new, "{\"id\":\"x\",\"name\":\"a\",\"tags\":[1]}\n").unwrap();
    let out = typefuse(
        &["diff", old.to_str().unwrap(), new.to_str().unwrap()],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "drift exits non-zero");
    let text = stdout(&out);
    assert!(text.contains("+ $.tags (new)"), "output: {text}");
    assert!(text.contains("~ $.id: Num"), "output: {text}");
}

#[test]
fn diff_of_identical_data_is_clean() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff2");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("same.ndjson");
    std::fs::write(&f, "{\"a\":1}\n").unwrap();
    let out = typefuse(&["diff", f.to_str().unwrap(), f.to_str().unwrap()], None);
    assert!(out.status.success());
    assert!(stdout(&out).contains("no structural changes"));
}

#[test]
fn diff_schemas_mode() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-diff3");
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.schema");
    let new = dir.join("new.schema");
    std::fs::write(&old, "{a: Num}\n").unwrap();
    std::fs::write(&new, "{a: Num?}\n").unwrap();
    let out = typefuse(
        &[
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--schemas",
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("mandatory → optional"));
}

#[test]
fn streaming_infer_matches_batch() {
    let data = "{\"a\":1}\n{\"a\":\"x\",\"b\":[1,2]}\n{\"b\":[]}\n";
    let batch = typefuse(&["infer", "-", "--format", "text"], Some(data));
    let streaming = typefuse(
        &["infer", "-", "--format", "text", "--streaming"],
        Some(data),
    );
    assert!(batch.status.success() && streaming.status.success());
    assert_eq!(stdout(&batch), stdout(&streaming));
}

#[test]
fn streaming_rejects_stats() {
    let out = typefuse(&["infer", "-", "--streaming", "--stats"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn streaming_reports_line_numbers_on_errors() {
    let out = typefuse(&["infer", "-", "--streaming"], Some("{}\n{bad\n"));
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    assert!(stderr(&out).contains("line 2"), "stderr: {}", stderr(&out));
}

#[test]
fn query_runs_checked_pipelines() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    std::fs::write(&script, "filter $.n > 1\nproject $.n\n").unwrap();
    let out = typefuse(
        &["query", "-", "--script", script.to_str().unwrap()],
        Some("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), "{\"n\":2}\n{\"n\":3}\n");
    assert!(stderr(&out).contains("output schema: {n: Num}"));
}

#[test]
fn query_rejects_bad_paths_statically() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query2");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    std::fs::write(&script, "project $.typo\n").unwrap();
    let out = typefuse(
        &[
            "query",
            "-",
            "--script",
            script.to_str().unwrap(),
            "--check-only",
        ],
        Some("{\"n\":1}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("type error"));
}

#[test]
fn query_against_explicit_schema() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-query3");
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("q.tfq");
    let schema = dir.join("s.schema");
    std::fs::write(&script, "filter exists $.extra\n").unwrap();
    std::fs::write(&schema, "{n: Num}\n").unwrap();
    let out = typefuse(
        &[
            "query",
            "-",
            "--script",
            script.to_str().unwrap(),
            "--schema",
            schema.to_str().unwrap(),
            "--check-only",
        ],
        Some("{\"n\":1}\n"),
    );
    // $.extra is unknown in the declared schema even though checking data
    // alone would also reject it here; the point is the schema wins.
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn streaming_file_uses_parallel_splits() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-splits");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.ndjson");
    let contents: String = (0..200)
        .map(|i| format!("{{\"n\":{i},\"s\":\"{}\"}}\n", "x".repeat(i % 40)))
        .collect();
    std::fs::write(&path, &contents).unwrap();

    let parallel = typefuse(
        &[
            "infer",
            path.to_str().unwrap(),
            "--streaming",
            "--format",
            "text",
        ],
        None,
    );
    let batch = typefuse(&["infer", path.to_str().unwrap(), "--format", "text"], None);
    assert!(parallel.status.success(), "stderr: {}", stderr(&parallel));
    assert_eq!(stdout(&parallel), stdout(&batch));
}

/// Flag combinations `--streaming` used to reject or ignore: each must
/// now be accepted on a file (splits) and on stdin (one fold), and agree
/// with the non-streaming run of the same flags.
#[test]
fn streaming_honours_dedup_map_path_fuse_config_and_the_line_guard() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-streaming-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.ndjson");
    // Aligned positional arrays (so --positional-arrays changes the
    // schema) and one line over the 64-byte cap used below.
    let mut contents: String = (0..200)
        .map(|i| format!("{{\"n\":{i},\"p\":[{i},\"s\"],\"t\":{}}}\n", i % 2 == 0))
        .collect();
    contents.push_str(&format!("{{\"pad\":\"{}\"}}\n", "x".repeat(80)));
    std::fs::write(&path, &contents).unwrap();
    let file = path.to_str().unwrap();

    for flags in [
        &["--dedup", "on"][..],
        &["--dedup", "off"],
        &["--map-path", "shape"],
        &["--map-path", "shape", "--dedup", "on"],
        &["--positional-arrays"],
        &["--max-line-bytes", "64", "--on-error", "skip"],
    ] {
        let run = |input: &str, streaming: bool| {
            let mut args = vec!["infer", input, "--format", "text"];
            args.extend(streaming.then_some("--streaming"));
            args.extend(flags);
            let out = typefuse(&args, (input == "-").then_some(&contents));
            assert!(out.status.success(), "{args:?}: {}", stderr(&out));
            (stdout(&out), stderr(&out))
        };
        let batch = run(file, false);
        assert_eq!(run(file, true), batch, "splits {flags:?}");
        assert_eq!(run("-", true), batch, "stdin {flags:?}");
    }
    let positional = typefuse(
        &[
            "infer",
            file,
            "--format",
            "text",
            "--streaming",
            "--positional-arrays",
        ],
        None,
    );
    assert!(
        stdout(&positional).contains("p: [Num, Str]"),
        "{}",
        stdout(&positional)
    );
}

#[test]
fn registry_publish_and_gate() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-registry");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("reg.ndjson");
    let _ = std::fs::remove_file(&log);
    let log = log.to_str().unwrap();

    // v1 inferred from data.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1,\"name\":\"a\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("published version 1"));

    // Widened v2 passes the backward gate.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1,\"name\":\"a\",\"tags\":[\"x\"]}\n{\"id\":2,\"name\":\"b\"}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("published version 2"));

    // Narrowing is rejected with the changes listed.
    let out = typefuse(
        &["registry", "publish", "events", "-", "--log", log],
        Some("{\"id\":1}\n"),
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("not backward-compatible"));
    assert!(stderr(&out).contains("$.name"), "stderr: {}", stderr(&out));

    // History and diff work.
    let out = typefuse(&["registry", "history", "events", "--log", log], None);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 2);

    let out = typefuse(
        &["registry", "diff", "events", "1", "2", "--log", log],
        None,
    );
    assert!(out.status.success());
    assert!(stdout(&out).contains("+ $.tags (new)"));

    let out = typefuse(&["registry", "names", "--log", log], None);
    assert_eq!(stdout(&out).trim(), "events");

    let out = typefuse(&["registry", "latest", "events", "--log", log], None);
    assert!(stdout(&out).contains("tags"));
}

#[test]
fn registry_usage_errors() {
    let out = typefuse(&["registry"], None);
    assert_eq!(out.status.code(), Some(2));
    let out = typefuse(&["registry", "frobnicate"], None);
    assert_eq!(out.status.code(), Some(2));
    let out = typefuse(&["registry", "publish"], None);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn infer_metrics_json_emits_a_structured_report() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ndjson");
    let contents: String = (0..50)
        .map(|i| format!("{{\"n\":{i},\"tags\":[\"a\",\"b\"]}}\n"))
        .collect();
    std::fs::write(&data, &contents).unwrap();
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");

    let out = typefuse(
        &[
            "infer",
            data.to_str().unwrap(),
            "--format",
            "text",
            "--metrics-json",
            metrics.to_str().unwrap(),
            "--trace-json",
            trace.to_str().unwrap(),
        ],
        None,
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The report is a versioned envelope with the promised keys and
    // real counts under /payload.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let envelope =
        typefuse_json::Envelope::expect_kind(&text, "metrics").expect("metrics envelope parses");
    assert_eq!(envelope.schema_version, 1);
    let report = typefuse_json::parse_value(&text).expect("metrics report is valid JSON");
    assert_eq!(
        report
            .pointer("/payload/counters/records")
            .unwrap()
            .as_i64(),
        Some(50)
    );
    assert_eq!(
        report
            .pointer("/payload/counters/json.records")
            .unwrap()
            .as_i64(),
        Some(50)
    );
    assert_eq!(
        report
            .pointer("/payload/counters/json.bytes")
            .unwrap()
            .as_i64(),
        Some(contents.len() as i64)
    );
    assert!(
        report
            .pointer("/payload/counters/fuse.calls")
            .unwrap()
            .as_i64()
            .unwrap()
            > 0
    );
    assert!(report
        .pointer("/payload/histograms/fuse.union_width/count")
        .is_some());
    assert!(report
        .pointer("/payload/histograms/infer.record_width/count")
        .is_some());
    assert!(report
        .pointer("/payload/spans/pipeline.map/total_ns")
        .is_some());
    let stages = report
        .pointer("/payload/stages")
        .unwrap()
        .as_array()
        .unwrap();
    let names: Vec<&str> = stages
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["map", "reduce.local_fold"]);
    let task = stages[0].get("tasks").unwrap().as_array().unwrap()[0].clone();
    assert!(task.get("queue_wait_ns").is_some());
    assert!(task.get("execute_ns").is_some());

    // The trace is valid Chrome trace-event JSON with complete events.
    let trace = typefuse_json::parse_value(&std::fs::read_to_string(&trace).unwrap())
        .expect("trace is valid JSON");
    let events = trace.pointer("/traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
    }
    assert!(events
        .iter()
        .any(|e| e.get("name").unwrap().as_str() == Some("pipeline.reduce")));
}

#[test]
fn infer_streaming_metrics_count_splits() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-metrics-streaming");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ndjson");
    let contents: String = (0..80).map(|i| format!("{{\"n\":{i}}}\n")).collect();
    std::fs::write(&data, &contents).unwrap();
    let metrics = dir.join("metrics.json");

    let out = typefuse(
        &[
            "infer",
            data.to_str().unwrap(),
            "--streaming",
            "--format",
            "text",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ],
        None,
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let report = typefuse_json::parse_value(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        report
            .pointer("/payload/counters/records")
            .unwrap()
            .as_i64(),
        Some(80)
    );
    assert!(
        report
            .pointer("/payload/counters/streaming.splits")
            .unwrap()
            .as_i64()
            .unwrap()
            >= 1
    );
}

#[test]
fn counting_reports_the_real_record_total() {
    let out = typefuse(
        &["infer", "-", "--counting", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":2,\"b\":[1]}\n{\"a\":3}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("records 3"), "stderr: {err}");
    assert!(err.contains("path"), "stderr: {err}");
    // The profiled pass prints no pipeline timings.
    assert!(!err.contains("map 0.000s"), "stderr: {err}");
}

/// `--counting`'s table is the `--profile-json` written by the same run:
/// each record field with its presence count, by count then path.
#[test]
fn counting_rows_are_the_profile_json_field_rows() {
    let data = "{\"a\":1,\"kw\":[{\"rank\":1},{\"rank\":2}]}\n\
                {\"a\":\"x\",\"b\":{\"c\":null}}\n\
                [{\"d\":true}]\n\
                {\"b\":{}}\n";
    for map_path in ["events", "shape"] {
        let path = std::env::temp_dir().join(format!(
            "typefuse-test-counting-{}-{map_path}.json",
            std::process::id()
        ));
        let out = typefuse(
            &[
                "infer",
                "-",
                "--counting",
                "--map-path",
                map_path,
                "--profile-json",
                path.to_str().unwrap(),
            ],
            Some(data),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let report = std::fs::read_to_string(&path).expect("profile written");
        let _ = std::fs::remove_file(&path);
        let profile = typefuse_json::Envelope::expect_kind(&report, "profile").unwrap();
        let records = profile.payload.get("records").unwrap().as_i64().unwrap();
        let paths = profile.payload.get("paths").unwrap().as_object().unwrap();
        let mut rows: Vec<(i64, &str)> = paths
            .iter()
            .filter(|(path, _)| *path != "$" && !path.ends_with("[]"))
            .map(|(path, p)| (-p.get("count").unwrap().as_i64().unwrap(), path))
            .collect();
        rows.sort();
        let mut expected = format!("\nrecords {records}\n");
        expected += &format!("{:<40} {:>10} {:>8}\n", "path", "count", "ratio");
        for (count, path) in rows {
            let ratio = -count as f64 / records as f64 * 100.0;
            expected += &format!("{path:<40} {:>10} {ratio:>7.1}%\n", -count);
        }
        assert_eq!(stderr(&out), expected, "{map_path}");
        assert!(expected.contains("$.kw[].rank"), "{expected}");
    }
}

#[test]
fn counting_follows_the_profile_json_rules() {
    // It composes with the profiled pass's other views...
    let out = typefuse(
        &[
            "infer",
            "-",
            "--counting",
            "--maplike",
            "--format",
            "json-schema",
        ],
        Some("{\"a\":1}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("$.a"), "{}", stderr(&out));
    // ...and names the line and error the plain route names.
    let out = typefuse(
        &["infer", "-", "--counting"],
        Some("{\"a\":1,\"a\":[1,]}\n"),
    );
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let plain = typefuse(&["infer", "-"], Some("{\"a\":1,\"a\":[1,]}\n"));
    assert_eq!(stderr(&out), stderr(&plain));
    assert!(
        stderr(&out).contains("duplicate object key"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn progress_flag_is_accepted() {
    let out = typefuse(
        &["infer", "-", "--progress", "--format", "text"],
        Some("{\"a\":1}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("{a: Num}"));
}

// ---- profiling & explain (data-plane observability) ---------------------

/// Synthetic dataset with one missing key and one mixed-type field at
/// exactly known lines: `b` is absent starting at line 2, and `a`'s
/// `Str` branch is introduced at line 4.
const PROVENANCE_DATA: &str = "\
{\"a\":1,\"b\":true}\n\
{\"a\":2}\n\
{\"a\":3,\"b\":false}\n\
{\"a\":\"x\",\"b\":true}\n";

#[test]
fn explain_reports_exact_provenance_lines() {
    let mut expected = None;
    for workers in ["1", "4"] {
        let out = typefuse(
            &["explain", ".a", "--workers", workers, "--partitions", "3"],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("$.a: Num + Str"), "stdout: {text}");
        assert!(
            text.contains("present in 4/4 records (100.0%), first seen at line 1"),
            "stdout: {text}"
        );
        assert!(text.contains("required:"), "stdout: {text}");
        assert!(
            text.contains("branch Num: introduced at line 1 (3 occurrences)"),
            "stdout: {text}"
        );
        assert!(
            text.contains("branch Str: introduced at line 4 (1 occurrence)"),
            "stdout: {text}"
        );
        // Thread count cannot change the output.
        match &expected {
            None => expected = Some(text),
            Some(prev) => assert_eq!(&text, prev, "workers={workers} differs"),
        }
    }
}

#[test]
fn explain_reports_the_demoting_line() {
    for workers in ["1", "4"] {
        let out = typefuse(
            &["explain", "$.b", "--workers", workers],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("$.b: Bool"), "stdout: {text}");
        assert!(
            text.contains("optional: missing at line 2"),
            "workers={workers}, stdout: {text}"
        );
        assert!(text.contains("(optional)"), "stdout: {text}");
    }
}

#[test]
fn explain_rejects_bad_and_missing_paths() {
    let out = typefuse(&["explain", "$..broken"], Some(PROVENANCE_DATA));
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("malformed path"));

    let out = typefuse(&["explain", ".nope"], Some(PROVENANCE_DATA));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("does not occur"));
}

#[test]
fn explain_requires_a_path() {
    let out = typefuse(&["explain"], Some("{}\n"));
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("requires a path"));
}

/// The profile is byte-identical for any worker count, map route and
/// dedup route: the profiled pass folds through the record fold, whose
/// schema accumulator honours `--dedup`.
#[test]
fn profile_json_is_identical_across_workers_and_map_paths() {
    let dir = std::env::temp_dir();
    let mut reports = Vec::new();
    for (i, (workers, map_path, dedup)) in [
        ("1", "events", "off"),
        ("4", "events", "on"),
        ("1", "shape", "on"),
        ("4", "shape", "off"),
        ("2", "events", "auto"),
    ]
    .iter()
    .enumerate()
    {
        let path = dir.join(format!(
            "typefuse-test-profile-{}-{i}.json",
            std::process::id()
        ));
        let path_str = path.to_str().unwrap();
        let out = typefuse(
            &[
                "infer",
                "-",
                "--format",
                "text",
                "--workers",
                workers,
                "--partitions",
                "3",
                "--map-path",
                map_path,
                "--dedup",
                dedup,
                "--profile-json",
                path_str,
            ],
            Some(PROVENANCE_DATA),
        );
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert_eq!(stdout(&out).trim(), "{a: Num + Str, b: Bool?}");
        reports.push(std::fs::read_to_string(&path).expect("profile written"));
        let _ = std::fs::remove_file(&path);
    }
    for report in &reports[1..] {
        assert_eq!(report, &reports[0], "profile JSON must be byte-identical");
    }
    let envelope =
        typefuse_json::Envelope::expect_kind(&reports[0], "profile").expect("profile envelope");
    assert_eq!(envelope.schema_version, 1);
    assert!(
        reports[0].contains("\"first_absent_line\":2"),
        "{}",
        reports[0]
    );
    assert!(reports[0].contains("\"records\":4"));
}

/// The profiled pass honours the job's error policy and parser guards:
/// a skipped line leaves no trace in the profile, and provenance keeps
/// the *input* line numbers of the records around it.
#[test]
fn profile_json_honours_on_error_max_depth_and_max_line_bytes() {
    // Each case puts one bad line after PROVENANCE_DATA's first.
    let deep = "{\"a\":{\"b\":{\"c\":1}}}";
    let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(64));
    let quarantine = std::env::temp_dir().join(format!("typefuse-test-pq-{}", std::process::id()));
    // (the bad line, the guard that makes it bad, the lenient policy)
    let cases: [(&str, &[&str], &[&str]); 4] = [
        ("not json", &[], &["--on-error", "skip"]),
        (deep, &["--max-depth", "2"], &["--on-error", "skip"]),
        (&long, &["--max-line-bytes", "32"], &["--on-error", "skip"]),
        ("[1,", &[], &["--quarantine", quarantine.to_str().unwrap()]),
    ];
    let mut reports = Vec::new();
    for (i, (bad, guard, policy)) in cases.iter().enumerate() {
        let data = PROVENANCE_DATA.replacen('\n', &format!("\n{bad}\n"), 1);
        let path = std::env::temp_dir().join(format!(
            "typefuse-test-profile-lenient-{}-{i}.json",
            std::process::id()
        ));
        let mut args = vec!["infer", "-", "--format", "text", "--workers", "2"];
        args.extend_from_slice(&["--profile-json", path.to_str().unwrap()]);
        args.extend_from_slice(guard);
        // Under the default policy the bad line fails the run.
        let out = typefuse(&args, Some(&data));
        assert_eq!(out.status.code(), Some(3), "{args:?}: {}", stderr(&out));

        args.extend_from_slice(policy);
        let out = typefuse(&args, Some(&data));
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(stdout(&out).trim(), "{a: Num + Str, b: Bool?}", "{args:?}");
        assert!(
            stderr(&out).contains("skipped 1 bad record(s)"),
            "{args:?}: {}",
            stderr(&out)
        );
        reports.push(std::fs::read_to_string(&path).expect("profile written"));
        let _ = std::fs::remove_file(&path);
    }
    let quarantined = std::fs::read_to_string(&quarantine).expect("sidecar written");
    let _ = std::fs::remove_file(&quarantine);
    assert!(quarantined.contains("[1,"), "{quarantined}");
    // Whatever the bad line was, the profile is that of the four good
    // records at input lines 1, 3, 4, 5.
    for report in &reports {
        assert_eq!(report, &reports[0]);
        assert!(report.contains("\"records\":4"), "{report}");
        assert!(report.contains("\"first_absent_line\":3"), "{report}");
        assert!(
            report.contains("\"Str\":{\"count\":1,\"first_line\":5}"),
            "{report}"
        );
        for trace in ["pad", "$.a.b", "not json"] {
            assert!(!report.contains(trace), "{trace} in {report}");
        }
    }
}

#[test]
fn profiled_pass_conflicts_with_streaming_and_stats() {
    for flag in [&["--profile-json", "/tmp/unused.json"][..], &["--counting"]] {
        for extra in [&["--streaming"][..], &["--stats"]] {
            let mut args = vec!["infer", "-"];
            args.extend(flag);
            args.extend(extra);
            let out = typefuse(&args, Some("{}\n"));
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(stderr(&out).contains(flag[0]), "{args:?}: {}", stderr(&out));
        }
    }
    // The two views of the profiled pass compose, on any dedup route.
    let path = std::env::temp_dir().join(format!("typefuse-test-both-{}.json", std::process::id()));
    let out = typefuse(
        &[
            "infer",
            "-",
            "--counting",
            "--dedup",
            "on",
            "--profile-json",
            path.to_str().unwrap(),
        ],
        Some("{}\n"),
    );
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn stats_and_check_write_metrics_json() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let stats_path = dir.join(format!("typefuse-test-stats-{pid}.json"));
    let out = typefuse(
        &["stats", "-", "--metrics-json", stats_path.to_str().unwrap()],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let metrics = std::fs::read_to_string(&stats_path).expect("metrics written");
    let _ = std::fs::remove_file(&stats_path);
    typefuse_json::Envelope::expect_kind(&metrics, "metrics").expect("stats metrics envelope");
    assert!(metrics.contains("\"records\":2"), "{metrics}");
    assert!(metrics.contains("stats.read"), "{metrics}");

    let schema_path = dir.join(format!("typefuse-test-schema-{pid}.txt"));
    std::fs::write(&schema_path, "{a: Num}").unwrap();
    let check_path = dir.join(format!("typefuse-test-check-{pid}.json"));
    let out = typefuse(
        &[
            "check",
            "-",
            "--schema",
            schema_path.to_str().unwrap(),
            "--metrics-json",
            check_path.to_str().unwrap(),
        ],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let metrics = std::fs::read_to_string(&check_path).expect("metrics written");
    let _ = std::fs::remove_file(&schema_path);
    let _ = std::fs::remove_file(&check_path);
    typefuse_json::Envelope::expect_kind(&metrics, "metrics").expect("check metrics envelope");
    assert!(metrics.contains("\"check.conforming\":2"), "{metrics}");
    assert!(metrics.contains("\"check.failures\":0"), "{metrics}");
}

// ---- Fault-tolerant ingestion (--on-error and friends) ----------------

const DIRTY: &str = "{\"a\":1}\n{oops\n{\"a\":2,\"b\":\"x\"}\nnot json\n{\"b\":\"y\"}\n";

#[test]
fn skip_policy_infers_the_clean_subset() {
    let skipped = typefuse(
        &["infer", "-", "--format", "text", "--on-error", "skip"],
        Some(DIRTY),
    );
    assert!(skipped.status.success(), "stderr: {}", stderr(&skipped));
    let clean = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":2,\"b\":\"x\"}\n{\"b\":\"y\"}\n"),
    );
    assert_eq!(stdout(&skipped), stdout(&clean));
    assert!(
        stderr(&skipped).contains("skipped 2 bad record(s)"),
        "stderr: {}",
        stderr(&skipped)
    );
}

#[test]
fn skip_policy_agrees_across_routes() {
    for route in [
        vec!["--map-path", "events"],
        vec!["--map-path", "shape"],
        vec!["--dedup", "on"],
        vec!["--streaming"],
    ] {
        let mut args = vec!["infer", "-", "--format", "text", "--on-error", "skip"];
        args.extend(&route);
        let out = typefuse(&args, Some(DIRTY));
        assert!(out.status.success(), "{route:?}: {}", stderr(&out));
        let baseline = typefuse(
            &["infer", "-", "--format", "text", "--on-error", "skip"],
            Some(DIRTY),
        );
        assert_eq!(stdout(&out), stdout(&baseline), "route {route:?}");
    }
}

#[test]
fn max_errors_budget_exits_5() {
    let out = typefuse(
        &["infer", "-", "--on-error", "skip", "--max-errors", "1"],
        Some(DIRTY),
    );
    assert_eq!(out.status.code(), Some(5), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("error budget exceeded"));

    let out = typefuse(
        &["infer", "-", "--on-error", "skip", "--max-errors", "2"],
        Some(DIRTY),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn quarantine_writes_the_sidecar() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-quarantine");
    std::fs::create_dir_all(&dir).unwrap();
    let sink = dir.join(format!("bad-{}.ndjson", std::process::id()));
    let out = typefuse(
        &["infer", "-", "--quarantine", sink.to_str().unwrap()],
        Some(DIRTY),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("quarantined to"), "{}", stderr(&out));
    let sidecar = std::fs::read_to_string(&sink).expect("sidecar written");
    let _ = std::fs::remove_file(&sink);
    let lines: Vec<&str> = sidecar.lines().collect();
    assert_eq!(lines.len(), 2, "{sidecar}");
    assert!(lines[0].contains("{oops"), "{sidecar}");
    assert!(lines[1].contains("not json"), "{sidecar}");
}

#[test]
fn contradictory_error_flags_are_usage_errors() {
    for args in [
        vec!["infer", "-", "--max-errors", "3"],
        vec!["infer", "-", "--on-error", "quarantine"],
        vec![
            "infer",
            "-",
            "--on-error",
            "skip",
            "--quarantine",
            "q.ndjson",
        ],
        vec!["infer", "-", "--on-error", "nonsense"],
    ] {
        let out = typefuse(&args, Some("{}\n"));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn max_depth_guards_recursion() {
    let deep = "{\"a\":{\"b\":{\"c\":{\"d\":1}}}}\n";
    let out = typefuse(&["infer", "-", "--max-depth", "2"], Some(deep));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("recursion limit"), "{}", stderr(&out));

    let out = typefuse(&["infer", "-", "--max-depth", "16"], Some(deep));
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // stats/check accept the same guard.
    let out = typefuse(&["stats", "-", "--max-depth", "2"], Some(deep));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));

    // The guard can be tightened, never lifted: above the limit the flag
    // is refused before any input is read (stdin is closed here).
    for command in ["infer", "stats", "serve"] {
        let out = typefuse(&[command, "--max-depth", "513"], None);
        assert_eq!(out.status.code(), Some(2), "{command}: {}", stderr(&out));
        assert!(stderr(&out).contains("at most 512"), "{}", stderr(&out));
    }
    let out = typefuse(&["infer", "-", "--max-depth", "512"], Some(deep));
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn max_line_bytes_degrades_per_policy() {
    let data = "{\"a\":1}\n{\"padding\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}\n{\"a\":2}\n";
    let out = typefuse(&["infer", "-", "--max-line-bytes", "32"], Some(data));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("line-size guard"), "{}", stderr(&out));

    let out = typefuse(
        &[
            "infer",
            "-",
            "--format",
            "text",
            "--max-line-bytes",
            "32",
            "--on-error",
            "skip",
        ],
        Some(data),
    );
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let clean = typefuse(
        &["infer", "-", "--format", "text"],
        Some("{\"a\":1}\n{\"a\":2}\n"),
    );
    assert_eq!(stdout(&out), stdout(&clean));
}

/// Every command that reads NDJSON exits 3 on a malformed record and
/// names its line.
#[test]
fn malformed_input_exits_3_in_diff_registry_and_query() {
    let dir = std::env::temp_dir().join(format!("typefuse-test-exit3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.ndjson");
    std::fs::write(&bad, "{\"a\":1}\n{oops\n").unwrap();
    let (bad, log, script) = (
        bad.to_str().unwrap(),
        dir.join("reg.ndjson"),
        dir.join("q.tfq"),
    );
    std::fs::write(&script, "project $.a\n").unwrap();
    for args in [
        vec!["diff", bad, bad],
        vec![
            "registry",
            "publish",
            "x",
            bad,
            "--log",
            log.to_str().unwrap(),
        ],
        vec!["query", bad, "--script", script.to_str().unwrap()],
    ] {
        let out = typefuse(&args, None);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("line 2"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `infer`, `check`, `stats` and `query` read every line through the
/// one record-fold kernel: over one dirty corpus the quarantine sidecars
/// and the `skipped` lines are byte-identical, and under fail-fast every
/// command stops with `infer`'s message and exit code — columns counted
/// from the raw line's start, the trimmed text in the sidecar.
#[test]
fn every_command_frames_dirty_lines_like_infer() {
    let dir = std::env::temp_dir().join(format!("typefuse-test-dirty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut corpus = b"{\"a\":1}\n   {bad  \n\n{\"a\":[1,]}\n\xff\xfe\n".to_vec();
    corpus.extend(format!("{{\"a\":\"{}\"}}\n{{\"a\":2}}\n", "x".repeat(64)).bytes());
    let (data, schema, script, sink) = (
        dir.join("dirty.ndjson"),
        dir.join("schema.txt"),
        dir.join("q.tfq"),
        dir.join("bad.ndjson"),
    );
    std::fs::write(&data, &corpus).unwrap();
    std::fs::write(&schema, "{a: Num}\n").unwrap();
    std::fs::write(&script, "project $.a\n").unwrap();
    let (data, schema, script, sink) = (
        data.to_str().unwrap(),
        schema.to_str().unwrap(),
        script.to_str().unwrap(),
        sink.to_str().unwrap(),
    );
    let commands = [
        vec!["infer", data, "--format", "text"],
        vec!["check", data, "--schema", schema],
        vec!["stats", data],
    ];
    let quarantine = ["--quarantine", sink, "--max-line-bytes", "32"];
    let mut runs = Vec::new();
    for args in &commands {
        let _ = std::fs::remove_file(sink);
        let out = typefuse(&[&args[..], &quarantine[..]].concat(), None);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let skipped: Vec<String> = stderr(&out)
            .lines()
            .filter(|line| line.starts_with("skipped"))
            .map(String::from)
            .collect();
        runs.push((skipped, std::fs::read(sink).unwrap()));
    }
    let (skipped, sidecar) = &runs[0];
    assert_eq!(
        skipped,
        &[format!("skipped 4 bad record(s); quarantined to {sink}")]
    );
    let sidecar = String::from_utf8_lossy(sidecar);
    let first = sidecar.lines().next().unwrap();
    assert!(first.contains("line 2, column 5") && first.contains(r#""text":"{bad""#));
    for (args, run) in commands.iter().zip(&runs).skip(1) {
        assert!(run == &runs[0], "{args:?} drifted from infer");
    }

    let infer = typefuse(&["infer", data], None);
    assert_eq!(infer.status.code(), Some(3));
    assert!(
        stderr(&infer).contains("line 2, column 5"),
        "{}",
        stderr(&infer)
    );
    for args in [
        &commands[1][..],
        &commands[2][..],
        &["query", data, "--script", script],
    ] {
        let out = typefuse(args, None);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), stderr(&infer), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file that cannot be opened is an input I/O error on every command,
/// as is an unreadable stream on the split reader.
#[test]
fn io_errors_exit_4() {
    let missing = "/nonexistent/typefuse-input.ndjson";
    for args in [
        vec!["infer", missing],
        vec!["infer", missing, "--streaming"],
        vec!["stats", missing],
    ] {
        let out = typefuse(&args, None);
        assert_eq!(out.status.code(), Some(4), "{args:?}: {}", stderr(&out));
    }
}

// ---- serve: resident daemon end-to-end --------------------------------

#[test]
fn serve_folds_appends_and_answers_the_protocol() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    let dir = std::env::temp_dir().join("typefuse-cli-test-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let data = dir.join(format!("events-{pid}.ndjson"));
    let metrics = dir.join(format!("metrics-{pid}.json"));
    std::fs::write(&data, "{\"id\":1,\"tags\":[\"a\"]}\n").unwrap();

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_typefuse"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--watch",
            &format!("events={}", data.display()),
            "--poll-ms",
            "5",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");

    // The first stdout line is the `listening` envelope with the bound
    // address (essential with port 0).
    let mut daemon_out = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    daemon_out.read_line(&mut line).unwrap();
    let listening =
        typefuse_json::Envelope::expect_kind(&line, "listening").expect("listening envelope");
    let addr = typefuse_json::parse_value(&line)
        .unwrap()
        .pointer("/payload/addr")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(listening.schema_version, 1);

    let request = |payload: &str| -> String {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply
    };

    let wait_for_records = |n: i64| -> typefuse_json::Envelope {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let reply = request("{\"op\":\"schema\",\"source\":\"events\"}");
            let envelope = typefuse_json::Envelope::expect_kind(&reply, "schema").expect("schema");
            if envelope.payload.pointer("/records").unwrap().as_i64() == Some(n) {
                return envelope;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fold timed out at {n}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    };

    // Wait for the pre-existing record to fold (and publish v1) before
    // appending, so the append lands in its own snapshot (v2).
    wait_for_records(1);

    // Append a drifting record and wait for the daemon to fold it.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&data)
            .unwrap();
        f.write_all(b"{\"id\":2,\"name\":\"x\",\"tags\":[\"b\"]}\n")
            .unwrap();
    }
    let envelope = wait_for_records(2);
    // The served schema matches a batch run over the same file.
    let batch = typefuse(&["infer", data.to_str().unwrap(), "--format", "text"], None);
    let served = envelope
        .payload
        .pointer("/schema")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(served, stdout(&batch).trim(), "daemon == batch");

    // Drift between the two published snapshots mentions the new field.
    let reply = request("{\"op\":\"diff\",\"source\":\"events\",\"from\":1,\"to\":2}");
    let diff = typefuse_json::Envelope::expect_kind(&reply, "diff").expect("diff");
    assert!(reply.contains("name"), "{reply}");
    assert_eq!(diff.schema_version, 1);

    // A clean `shutdown` op stops the process with exit code 0 and the
    // run report lands as a metrics envelope.
    let reply = request("{\"op\":\"shutdown\"}");
    typefuse_json::Envelope::expect_kind(&reply, "ok").expect("shutdown ack");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    let report = std::fs::read_to_string(&metrics).expect("metrics written");
    typefuse_json::Envelope::expect_kind(&report, "metrics").expect("metrics envelope");
    assert!(report.contains("ingest.records"), "{report}");

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&metrics);
}

/// The crash-safety contract, end to end through the release binary:
/// SIGKILL the daemon mid-run, restart it on the same checkpoint
/// directory, and the served schema is byte-identical to a batch
/// `typefuse infer` over the whole file — with the checkpointed prefix
/// never re-read (the per-source records counter starts at zero each
/// process, so it counts only post-restart folds).
#[test]
fn serve_checkpoint_survives_sigkill_and_resumes_without_rereading() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::process::Child;

    fn spawn_daemon(data: &std::path::Path, ckpt: &std::path::Path) -> (Child, String) {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_typefuse"))
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--watch",
                &format!("events={}", data.display()),
                "--poll-ms",
                "5",
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--checkpoint-interval-ms",
                "25",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let mut daemon_out = BufReader::new(daemon.stdout.take().unwrap());
        let mut line = String::new();
        daemon_out.read_line(&mut line).unwrap();
        typefuse_json::Envelope::expect_kind(&line, "listening").expect("listening envelope");
        let addr = typefuse_json::parse_value(&line)
            .unwrap()
            .pointer("/payload/addr")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        (daemon, addr)
    }

    fn request(addr: &str, payload: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(payload.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).unwrap();
        reply
    }

    /// One series from a `metrics` snapshot, whichever section holds it.
    fn series(addr: &str, key: &str) -> Option<i64> {
        let reply = request(addr, "{\"op\":\"metrics\"}");
        let env = typefuse_json::Envelope::expect_kind(&reply, "telemetry").ok()?;
        for section in ["counters", "gauges"] {
            if let Some(v) = env.payload.get(section).and_then(|s| s.get(key)) {
                return v.as_i64();
            }
        }
        None
    }

    fn wait_series(addr: &str, key: &str, want: i64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if series(addr, key) == Some(want) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {key} == {want}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    let dir = std::env::temp_dir().join("typefuse-cli-test-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let pid = std::process::id();
    let data = dir.join(format!("events-kill-{pid}.ndjson"));
    let ckpt = dir.join(format!("ckpt-{pid}"));
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::write(
        &data,
        "{\"id\":1}\n{\"id\":2,\"tags\":[\"a\"]}\n{\"id\":3,\"name\":\"x\"}\n",
    )
    .unwrap();

    let records = "typefuse_source_records{source=\"events\"}";
    let ckpt_lines = "typefuse_source_checkpoint_lines{source=\"events\"}";

    // First life: fold all three records and wait until a durable
    // checkpoint covers them, then SIGKILL — no shutdown hook runs.
    let (mut daemon, addr) = spawn_daemon(&data, &ckpt);
    wait_series(&addr, records, 3);
    wait_series(&addr, ckpt_lines, 3);
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("killed daemon reaped");

    // The file keeps growing while the daemon is down.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&data)
            .unwrap();
        f.write_all(b"{\"id\":4,\"name\":\"y\",\"extra\":true}\n{\"id\":5}\n")
            .unwrap();
    }

    // Second life: resume from the checkpoint. Only the two new
    // records are read — the counter is per-process, so 2 (not 5)
    // proves the checkpointed prefix was never re-ingested.
    let (mut daemon, addr) = spawn_daemon(&data, &ckpt);
    wait_series(&addr, records, 2);

    let reply = request(&addr, "{\"op\":\"schema\",\"source\":\"events\"}");
    let envelope = typefuse_json::Envelope::expect_kind(&reply, "schema").expect("schema");
    assert_eq!(
        envelope
            .payload
            .pointer("/records")
            .and_then(|v| v.as_i64()),
        Some(5),
        "restored 3 + appended 2: {reply}"
    );
    let served = envelope
        .payload
        .pointer("/schema")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    let batch = typefuse(&["infer", data.to_str().unwrap(), "--format", "text"], None);
    assert_eq!(
        served,
        stdout(&batch).trim(),
        "post-crash schema == uninterrupted batch run"
    );

    let reply = request(&addr, "{\"op\":\"shutdown\"}");
    typefuse_json::Envelope::expect_kind(&reply, "ok").expect("shutdown ack");
    assert!(daemon.wait().expect("daemon exits").success());

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// One error format whatever reads the file: batch, splits, the stdin
/// fold and the value readers all stop at the first line and say so
/// alike, the byte-range split read naming the byte offset where the
/// others name the line.
#[test]
fn a_bad_first_line_is_one_error_on_every_reader() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-one-error");
    std::fs::create_dir_all(&dir).unwrap();
    let data = "{bad\n{\"a\":1}\n";
    let file = dir.join("bad.ndjson");
    std::fs::write(&file, data).unwrap();
    let schema = dir.join("schema.txt");
    std::fs::write(&schema, "{a: Num}\n").unwrap();
    let script = dir.join("q.tfq");
    std::fs::write(&script, "project $.a\n").unwrap();
    let (file, schema, script) = (
        file.to_str().unwrap(),
        schema.to_str().unwrap(),
        script.to_str().unwrap(),
    );
    let at_line = "typefuse: parse error: expected object key at line 1, column 2\n";
    let at_byte = "typefuse: parse error: expected object key at byte 1, column 2\n";
    let runs: [(&[&str], Option<&str>, &str); 6] = [
        (&["infer", file], None, at_line),
        (&["infer", file, "--streaming"], None, at_byte),
        (&["infer", "-", "--streaming"], Some(data), at_line),
        (&["check", file, "--schema", schema], None, at_line),
        (&["stats", file], None, at_line),
        (&["query", file, "--script", script], None, at_line),
    ];
    for (args, stdin, expected) in runs {
        let out = typefuse(args, stdin);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert_eq!(stderr(&out), expected, "{args:?}");
    }
}

/// A byte-range split cannot know a line's number: on a file whose 5th
/// line (at byte 32) is bad, batch and the stdin fold say line 5, and
/// the split read says byte 33 — never "line 1" — in its message and in
/// its sidecar, whose `at` is the line's start.
#[test]
fn a_split_read_names_the_byte_offset_not_a_line() {
    let dir = std::env::temp_dir().join("typefuse-cli-test-split-offset");
    std::fs::create_dir_all(&dir).unwrap();
    let data = "{\"a\":1}\n".repeat(4) + "{bad\n{\"a\":2}\n";
    let file = dir.join("bad5.ndjson");
    std::fs::write(&file, &data).unwrap();
    let file = file.to_str().unwrap();
    let at_line = "typefuse: parse error: expected object key at line 5, column 2\n";
    let at_byte = "typefuse: parse error: expected object key at byte 33, column 2\n";
    let runs: [(&[&str], Option<&str>, &str); 3] = [
        (&["infer", file], None, at_line),
        (&["infer", file, "--streaming"], None, at_byte),
        (&["infer", "-", "--streaming"], Some(&data), at_line),
    ];
    for (args, stdin, expected) in runs {
        let out = typefuse(args, stdin);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert_eq!(stderr(&out), expected, "{args:?}");
    }
    let sidecar = dir.join("bad5.quarantine.ndjson");
    let _ = std::fs::remove_file(&sidecar);
    let sink = sidecar.to_str().unwrap();
    let out = typefuse(&["infer", file, "--streaming", "--quarantine", sink], None);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let entry = typefuse_json::parse_value(std::fs::read_to_string(&sidecar).unwrap().trim())
        .expect("one sidecar entry");
    assert_eq!(entry.get("at").and_then(Value::as_i64), Some(32));
    assert_eq!(
        entry.get("error").and_then(Value::as_str),
        Some("expected object key at byte 33, column 2")
    );
}
