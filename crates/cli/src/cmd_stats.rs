//! `typefuse stats` — Table-1-style dataset statistics.

use crate::args::ArgStream;
use crate::job_args::JobFlags;
use crate::CliResult;
use std::collections::HashSet;
use typefuse_datagen::stats::DatasetStats;
use typefuse_obs::Recorder;
use typefuse_types::TypeInterner;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let dedup = args.flag("--dedup");
    let metrics_json = args.option("--metrics-json")?;
    let flags = JobFlags::parse_ingest(args)?;
    args.finish()?;

    let recorder = if metrics_json.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // One pass: every record is measured as it is read, and with
    // `--dedup` its Figure-4 type and raw-shape signature are added to
    // the distinct sets.
    //
    // Distinct shapes measure redundancy through the hash-consing
    // interner: a high records/shape ratio is what makes the
    // shape-dedup reduce (`infer --dedup`) pay off. Raw-shape signatures
    // predict the `--map-path shape` cache: every record after the first
    // with a given signature is a cache hit. They are computed over the
    // canonical serialization, so whitespace-only variation in the raw
    // input is collapsed — this is the hit rate the shape route
    // converges to, not necessarily its first-pass one.
    let mut stats = DatasetStats::default();
    let mut interner = TypeInterner::new();
    let (mut shapes, mut signatures) = (HashSet::new(), HashSet::new());
    let job = flags.config(recorder.clone()).build();
    {
        let _span = recorder.span("stats.read");
        crate::cmd_infer::for_each_value(input.as_deref(), &job, |value| {
            stats.add(&value);
            if dedup {
                shapes.insert(interner.intern(&typefuse_infer::infer_type(&value)));
                let line = typefuse_json::to_string(&value);
                if let Some(sig) = typefuse_infer::shape_signature(line.as_bytes()) {
                    signatures.insert(sig);
                }
            }
        })?;
    }

    println!("records     {}", stats.records);
    println!("bytes       {} ({})", stats.bytes, stats.human_bytes());
    println!("max depth   {}", stats.max_depth);
    println!("avg depth   {:.2}", stats.avg_depth());
    println!("avg nodes   {:.1}", stats.avg_nodes());

    let distinct_shapes = dedup.then_some(shapes.len() as u64);
    let raw_signatures = dedup.then_some(signatures.len() as u64);
    if let Some(distinct) = distinct_shapes {
        println!("shapes      {distinct}");
        if distinct > 0 {
            println!(
                "redundancy  {:.1} records/shape",
                stats.records as f64 / distinct as f64
            );
        }
    }
    if let Some(distinct) = raw_signatures {
        println!("signatures  {distinct}");
        if distinct > 0 && stats.records > 0 {
            println!(
                "shape-cache {:.1}% hit rate at steady state",
                (stats.records.saturating_sub(distinct)) as f64 / stats.records as f64 * 100.0
            );
        }
    }

    if let Some(path) = metrics_json {
        recorder.add("records", stats.records);
        recorder.gauge_max("stats.max_depth", stats.max_depth as u64);
        if let Some(distinct) = distinct_shapes {
            recorder.add("infer.distinct_shapes", distinct);
        }
        if let Some(distinct) = raw_signatures {
            recorder.add("infer.distinct_signatures", distinct);
        }
        crate::job_args::write_envelope(&path, "metrics", &recorder.snapshot().to_json())?;
    }
    Ok(())
}
