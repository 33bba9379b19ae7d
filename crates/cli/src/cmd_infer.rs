//! `typefuse infer` — the full pipeline over an NDJSON input.

use crate::args::ArgStream;
use crate::job_args::JobFlags;
use crate::{CliError, CliResult};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read};
use typefuse::fold::fold_stream;
use typefuse::pipeline::{DedupMode, SchemaJob, Source};
use typefuse::{ErrorPolicy, ErrorReport};
use typefuse_infer::{maplike, ArrayFusion, FuseConfig, MapLikeConfig, ProfileReport};
use typefuse_json::Value;
use typefuse_obs::Recorder;
use typefuse_types::export::to_json_schema_document;
use typefuse_types::Type;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let format = args
        .option("--format")?
        .unwrap_or_else(|| "pretty".to_string());
    let stats = args.flag("--stats");
    let counting = args.flag("--counting");
    let positional_arrays = args.flag("--positional-arrays");
    let streaming = args.flag("--streaming");
    let maplike = args.flag("--maplike");
    let profile_json = args.option("--profile-json")?;
    let metrics_json = args.option("--metrics-json")?;
    let trace_json = args.option("--trace-json")?;
    let progress = args.flag("--progress");
    let flags = JobFlags::parse(args)?;
    args.finish()?;

    let dedup = flags.dedup;
    let policy = flags.policy.clone();

    let observing = metrics_json.is_some() || trace_json.is_some() || progress;
    let recorder = if observing {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let heartbeat = progress.then(|| Heartbeat::start(recorder.clone()));

    // `--profile-json` and `--counting` are two views of one profiled pass.
    let profiled_by = match (&profile_json, counting) {
        (Some(_), _) => Some("--profile-json"),
        (None, true) => Some("--counting"),
        (None, false) => None,
    };
    if let Some(flag) = profiled_by {
        if streaming || stats {
            return Err(CliError::usage(format!(
                "{flag} runs its own fused pass and is incompatible with \
                 --streaming/--stats (the profile report supersedes them)"
            )));
        }
        if dedup == DedupMode::On {
            return Err(CliError::usage(format!(
                "--dedup on has no effect on the profiled pass; drop {flag} or --dedup"
            )));
        }
    }
    if streaming && stats {
        return Err(CliError::usage("--streaming is incompatible with --stats"));
    }

    let mut config = flags.config(recorder.clone());
    if positional_arrays {
        config = config.fuse_config(FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        });
    }
    if !stats {
        config = config.without_type_stats();
    }
    let job = config.build();

    if streaming {
        let outcome = run_streaming(input.as_deref(), &job);
        if let Some(hb) = heartbeat {
            hb.finish();
        }
        let (schema, errors) = outcome?;
        print_schema(&schema, &format)?;
        report_skipped(&errors, &policy);
        // Streaming has no pipeline stages; the report is the
        // recorder's own counters, histograms, spans and trace.
        write_observability(&recorder.snapshot(), &recorder, &metrics_json, &trace_json)?;
        return Ok(());
    }

    // The profiled route replaces the plain pipeline entirely: one
    // fused Map+Reduce pass produces the schema, the per-path profile
    // report (provenance lines, presence counts, kind/length/numeric
    // statistics) and the run report. Output is byte-identical for any
    // worker/partition count and --map-path (the route matrix checks it).
    if profiled_by.is_some() {
        let reader = open_input(input.as_deref())?;
        let outcome = job.run_profiled(Source::ndjson(reader));
        if let Some(hb) = heartbeat {
            hb.finish();
        }
        let profiled = outcome.map_err(crate::ingest_error)?;
        print_fused(&profiled.profile.schema, maplike, &format)?;
        report_skipped(&profiled.errors, &policy);
        if counting {
            print_presence(&profiled.profile);
        }
        if let Some(path) = &profile_json {
            crate::job_args::write_envelope(path, "profile", &profiled.profile.to_json())?;
        }
        write_observability(
            &profiled.run_report(&recorder),
            &recorder,
            &metrics_json,
            &trace_json,
        )?;
        return Ok(());
    }

    let reader = open_input(input.as_deref())?;
    let outcome = job.run(Source::ndjson(reader));
    if let Some(hb) = heartbeat {
        hb.finish();
    }
    let result = outcome.map_err(crate::ingest_error)?;
    print_fused(&result.schema, maplike, &format)?;
    report_skipped(&result.errors, &policy);

    if stats {
        eprintln!();
        eprintln!("records           {}", result.records);
        eprintln!("partitions        {}", result.partitions);
        eprintln!("distinct types    {}", result.type_stats.distinct);
        eprintln!(
            "type size         min {}  max {}  avg {:.1}",
            result.type_stats.min_size, result.type_stats.max_size, result.type_stats.avg_size
        );
        eprintln!("fused type size   {}", result.fused_size);
        eprintln!("compaction ratio  {:.2}", result.compaction_ratio());
        eprintln!(
            "map {:.3}s  reduce {:.3}s  total {:.3}s",
            result.map_time.as_secs_f64(),
            result.reduce_time.as_secs_f64(),
            result.wall.as_secs_f64()
        );
    }

    write_observability(
        &result.run_report(&recorder),
        &recorder,
        &metrics_json,
        &trace_json,
    )
}

/// `--counting`: the profile's presence count of each record field, the
/// 40 most frequent first.
fn print_presence(profile: &ProfileReport) {
    eprintln!();
    eprintln!("records {}", profile.records);
    eprintln!("{:<40} {:>10} {:>8}", "path", "count", "ratio");
    for (path, p) in profile.field_rows().into_iter().take(40) {
        let ratio = p.count as f64 / profile.records as f64;
        eprintln!("{path:<40} {:>10} {:>7.1}%", p.count, ratio * 100.0);
    }
}

/// Tell the operator on stderr what the error policy dropped.
fn report_skipped(report: &ErrorReport, policy: &ErrorPolicy) {
    if report.is_empty() {
        return;
    }
    match policy {
        ErrorPolicy::Quarantine { sink, .. } => eprintln!(
            "skipped {} bad record(s); quarantined to {}",
            report.skipped(),
            sink.display()
        ),
        _ => eprintln!("skipped {} bad record(s)", report.skipped()),
    }
}

/// Write the structured report and/or Chrome trace, if requested. The
/// report rides the shared response envelope (kind `metrics`); the
/// trace keeps the Chrome trace-event layout Perfetto expects.
fn write_observability(
    report: &typefuse_obs::RunReport,
    recorder: &Recorder,
    metrics_json: &Option<String>,
    trace_json: &Option<String>,
) -> CliResult {
    if let Some(path) = metrics_json {
        crate::job_args::write_envelope(path, "metrics", &report.to_json())?;
    }
    if let Some(path) = trace_json {
        std::fs::write(path, recorder.chrome_trace_json())
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}

/// The `--progress` heartbeat: a background thread that prints
/// records/s and bytes/s to stderr once a second, computed from the
/// shared recorder's `json.records` / `json.bytes` counters.
struct Heartbeat {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Heartbeat {
    fn start(recorder: Recorder) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut last_tick = Instant::now();
            let (mut last_records, mut last_bytes) = (0u64, 0u64);
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                if last_tick.elapsed() < Duration::from_secs(1) {
                    continue;
                }
                let dt = last_tick.elapsed().as_secs_f64();
                last_tick = Instant::now();
                let records = recorder.counter_value("json.records");
                let bytes = recorder.counter_value("json.bytes");
                eprintln!(
                    "progress: {records} records ({:.0}/s), {:.1} MB ({:.1} MB/s), {:.0}s elapsed",
                    (records - last_records) as f64 / dt,
                    bytes as f64 / 1e6,
                    (bytes - last_bytes) as f64 / dt / 1e6,
                    started.elapsed().as_secs_f64(),
                );
                (last_records, last_bytes) = (records, bytes);
            }
        });
        Heartbeat { stop, handle }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// The schema on stdout, or with `--maplike` its map-like summary.
fn print_fused(schema: &Type, maplike: bool, format: &str) -> CliResult {
    if maplike {
        let summary = maplike::summarize(schema, MapLikeConfig::default());
        println!("{summary}");
        return Ok(());
    }
    print_schema(schema, format)
}

fn print_schema(schema: &Type, format: &str) -> CliResult {
    match format {
        "text" => println!("{schema}"),
        "pretty" => println!("{}", typefuse_types::print::pretty(schema)),
        "json-schema" => println!(
            "{}",
            typefuse_json::to_string_pretty(&to_json_schema_document(schema))
        ),
        other => {
            return Err(CliError::usage(format!(
                "unknown format `{other}` (expected text, pretty or json-schema)"
            )))
        }
    }
    Ok(())
}

/// Constant-memory path: fold each line straight into a running record
/// fold under the job's Map route, dedup mode and fuse configuration.
/// Real files are processed with parallel byte-range splits
/// (`typefuse::splits`); stdin is one sequential fold ([`fold_stream`]).
fn run_streaming(input: Option<&str>, job: &SchemaJob) -> Result<(Type, ErrorReport), CliError> {
    if let Some(path) = input.filter(|p| *p != "-") {
        let fs = typefuse::splits::infer_file(std::path::Path::new(path), job).map_err(|e| {
            let mapped = crate::ingest_error(e);
            CliError::with_code(format!("{path}: {}", mapped.message), mapped.code)
        })?;
        return Ok((fs.schema, fs.errors));
    }
    let fold =
        fold_stream(&mut BufReader::new(io::stdin()), job, false).map_err(crate::ingest_error)?;
    let (schema, _, report, _) = fold.finish();
    Ok((schema, report))
}

/// Open NDJSON input (file path, `-`, or absent = stdin) as a buffered
/// reader. A file that cannot be opened is an input I/O error (exit 4).
pub(crate) fn open_input(input: Option<&str>) -> Result<Box<dyn BufRead>, CliError> {
    let reader: Box<dyn Read> = match input {
        None | Some("-") => Box::new(io::stdin()),
        Some(path) => Box::new(
            File::open(path)
                .map_err(|e| CliError::with_code(format!("cannot open {path}: {e}"), 4))?,
        ),
    };
    Ok(Box::new(BufReader::new(reader)))
}

/// Visit the records of NDJSON from a file path or stdin (`-` or absent)
/// one at a time through the record-fold kernel under `job`'s parser
/// options, line-size guard and error policy (with the documented exit
/// codes on failure), then tell the operator what the policy dropped.
pub(crate) fn for_each_value(
    input: Option<&str>,
    job: &SchemaJob,
    visit: impl FnMut(Value),
) -> CliResult {
    let mut reader = open_input(input)?;
    let report = typefuse::fold::for_each_value(&mut reader, job, visit);
    report_skipped(&report.map_err(crate::ingest_error)?, &job.error_policy);
    Ok(())
}

/// The fused schema of NDJSON from a file path or stdin (`-` or absent)
/// under the default job, streamed through the pipeline like `infer`.
pub(crate) fn infer_schema(input: Option<&str>) -> Result<Type, CliError> {
    let job = typefuse::JobConfig::new().without_type_stats().build();
    let result = job.run(Source::ndjson(open_input(input)?));
    Ok(result.map_err(crate::ingest_error)?.schema)
}
