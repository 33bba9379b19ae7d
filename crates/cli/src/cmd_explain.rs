//! `typefuse explain` — why the fused schema looks the way it does at
//! one path.
//!
//! Runs the profiled pipeline (`SchemaJob::run_profiled`) over the
//! dataset and prints, for the requested path: the fused type, presence
//! statistics, the provenance lines (which input line introduced each
//! union branch, which line's missing key demoted the field to
//! optional), value-shape histograms, and a top-k presence table for
//! orientation. Line numbers are exact and identical for any
//! `--workers`/`--partitions` setting — provenance merges by minimum,
//! so parallelism cannot change the answer.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::pipeline::Source;
use typefuse::JobConfig;
use typefuse_infer::fuse_all;
use typefuse_obs::LogHistogram;
use typefuse_types::paths::{parse_path, render_path, types_at_path};
use typefuse_types::Type;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let path_text = args.next_positional().ok_or_else(|| {
        CliError::usage(
            "explain requires a path, e.g. `typefuse explain .user.url --dataset data.ndjson`",
        )
    })?;
    let dataset = args.option("--dataset")?;
    let top: usize = args.parsed_option("--top")?.unwrap_or(10);
    let partitions: Option<usize> = args.parsed_option("--partitions")?;
    let workers: Option<usize> = args.parsed_option("--workers")?;
    let map_path = args
        .option("--map-path")?
        .as_deref()
        .map(crate::job_args::parse_map_path)
        .transpose()?;
    args.finish()?;

    let steps = parse_path(&path_text)
        .ok_or_else(|| CliError::usage(format!("malformed path `{path_text}`")))?;
    let rendered = render_path(&steps);

    let config = JobConfig {
        workers,
        partitions,
        map_path: map_path.unwrap_or_default(),
        ..JobConfig::new()
    };
    let reader = crate::cmd_infer::open_input(dataset.as_deref())?;
    let profiled = config.build().run_profiled(Source::ndjson(reader))?;
    let profile = &profiled.profile;

    let profile_entry = profile.get(&rendered).ok_or_else(|| {
        CliError::runtime(format!(
            "path {rendered} does not occur in the dataset ({} records, {} paths; \
             try `typefuse infer --profile-json` for the full path list)",
            profile.records,
            profile.paths.len(),
        ))
    })?;

    // The fused type at the path. Positional arrays can fan out to
    // several element types; fuse them back into one view.
    let hits = types_at_path(&profile.schema, &steps);
    let fused_at_path = match hits.len() {
        0 => None,
        1 => Some(hits[0].clone()),
        _ => {
            let owned: Vec<Type> = hits.into_iter().cloned().collect();
            Some(fuse_all(&owned))
        }
    };

    match &fused_at_path {
        Some(ty) => println!("{rendered}: {ty}"),
        None => println!("{rendered}: (not reachable in the fused schema)"),
    }
    let ratio = if profile.records == 0 {
        0.0
    } else {
        profile_entry.count as f64 / profile.records as f64 * 100.0
    };
    let first_seen = profile_entry
        .first_line()
        .map_or_else(|| "never".to_string(), |l| format!("line {l}"));
    println!(
        "  present in {}/{} records ({ratio:.1}%), first seen at {first_seen}",
        profile_entry.count, profile.records,
    );
    match profile_entry.first_absent_line {
        Some(line) => println!("  optional: missing at line {line}"),
        None => println!("  required: present in every record occurrence"),
    }
    for (kind, count, line) in profile_entry.branches() {
        let noun = if count == 1 {
            "occurrence"
        } else {
            "occurrences"
        };
        println!("  branch {kind}: introduced at line {line} ({count} {noun})");
    }
    print_histogram("str length", profile_entry.str_len());
    print_histogram("array length", profile_entry.arr_len());
    print_histogram("record width", profile_entry.rec_width());
    if let (Some(min), Some(max)) = (profile_entry.num_min, profile_entry.num_max) {
        println!("  num range: [{min}, {max}]");
    }

    if top > 0 {
        println!();
        println!("top {top} paths by presence:");
        println!("  {:<40} {:>10} {:>8}", "path", "count", "ratio");
        for (path, entry) in profile.rows().into_iter().take(top) {
            let ratio = if profile.records == 0 {
                0.0
            } else {
                entry.count as f64 / profile.records as f64 * 100.0
            };
            println!(
                "  {:<40} {:>10} {:>7.1}%{}",
                path,
                entry.count,
                ratio,
                if entry.is_optional() {
                    "  (optional)"
                } else {
                    ""
                },
            );
        }
    }
    Ok(())
}

fn print_histogram(label: &str, hist: &LogHistogram) {
    if hist.is_empty() {
        return;
    }
    let report = hist.report();
    println!(
        "  {label}: min {}  p50 {:.1}  p90 {:.1}  p99 {:.1}  max {}",
        report.min,
        report.p50(),
        report.p90(),
        report.p99(),
        report.max,
    );
}
