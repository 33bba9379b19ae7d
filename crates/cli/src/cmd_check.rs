//! `typefuse check` — validate NDJSON records against a schema.
//!
//! The use case from the paper's introduction: once a schema has been
//! inferred, downstream producers can be checked against it, catching
//! structural drift (new fields, type changes) before it breaks queries.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse_obs::Recorder;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let schema_path = args
        .option("--schema")?
        .ok_or_else(|| CliError::usage("check requires --schema FILE"))?;
    let max_failures: usize = args.parsed_option("--max-failures")?.unwrap_or(10);
    let metrics_json = args.option("--metrics-json")?;
    let config = crate::job_args::parse_ingest(args)?;
    args.finish()?;

    let recorder = if metrics_json.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };

    let schema = crate::read_schema(&schema_path)?;

    // Each record is tested as it is read; only the first
    // `max_failures` record numbers are kept, and printed once the input
    // has been read (a bad line under the default policy fails the run
    // before any of them).
    let (mut records, mut failures) = (0usize, 0usize);
    let mut reported = Vec::new();
    let job = config.recorder(recorder.clone());
    {
        let _span = recorder.span("check.read");
        crate::cmd_infer::for_each_value(input.as_deref(), &job, |v| {
            records += 1;
            if !schema.admits(&v) {
                failures += 1;
                if failures <= max_failures {
                    reported.push(records);
                }
            }
        })?;
    }
    for record in reported {
        eprintln!("record {record}: not admitted by the schema");
    }
    if failures > max_failures {
        eprintln!("… and {} more", failures - max_failures);
    }
    println!("{} of {} records conform", records - failures, records);

    if let Some(path) = metrics_json {
        recorder.add("records", records as u64);
        recorder.add("check.failures", failures as u64);
        recorder.add("check.conforming", (records - failures) as u64);
        crate::job_args::write_envelope(&path, "metrics", &recorder.snapshot().to_json())?;
    }

    if failures > 0 {
        return Err(CliError::runtime(format!(
            "{failures} records do not conform"
        )));
    }
    Ok(())
}
