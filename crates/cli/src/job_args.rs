//! Shared job flags: every subcommand that ingests NDJSON parses the
//! same options straight into a [`JobConfig`], so `infer`, `stats`,
//! `check` and `serve` cannot drift apart in how they spell or resolve
//! a knob.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::pipeline::{DedupMode, MapPath};
use typefuse::{ErrorPolicy, JobConfig};
use typefuse_json::ParserOptions;

/// Parse the full job flag set into a [`JobConfig`]: `--workers`,
/// `--partitions`, plus everything [`parse_routed`] reads.
pub(crate) fn parse(args: &mut ArgStream) -> Result<JobConfig, CliError> {
    let workers = args.parsed_option("--workers")?;
    let partitions = args.parsed_option("--partitions")?;
    let mut config = parse_routed(args)?;
    config.workers = workers;
    config.partitions = partitions;
    Ok(config)
}

/// The routes, `--map-path` and `--dedup` (absent: `auto`, which batch
/// and serve both resolve by sampling the leading records), plus
/// everything [`parse_ingest`] reads: `serve`'s set.
pub(crate) fn parse_routed(args: &mut ArgStream) -> Result<JobConfig, CliError> {
    let map_path = args
        .option("--map-path")?
        .as_deref()
        .map(parse_map_path)
        .transpose()?;
    let dedup = match args.option("--dedup")?.as_deref() {
        None | Some("auto") => DedupMode::Auto,
        Some("on") => DedupMode::On,
        Some("off") => DedupMode::Off,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown dedup mode `{other}` (expected auto, on or off)"
            )))
        }
    };
    Ok(JobConfig {
        map_path: map_path.unwrap_or_default(),
        dedup,
        ..parse_ingest(args)?
    })
}

/// Parse only the ingest flags (`--on-error`, `--quarantine`,
/// `--max-errors`, `--max-depth`, `--max-line-bytes`) into a
/// [`JobConfig`]; every other setting keeps its default.
pub(crate) fn parse_ingest(args: &mut ArgStream) -> Result<JobConfig, CliError> {
    let on_error = args.option("--on-error")?;
    let quarantine = args.option("--quarantine")?;
    let max_errors: Option<u64> = args.parsed_option("--max-errors")?;
    let max_depth: Option<usize> = args.parsed_option("--max-depth")?;
    if max_depth.is_some_and(|depth| depth > ParserOptions::MAX_DEPTH_LIMIT) {
        return Err(CliError::usage(format!(
            "`--max-depth` can be at most {}: deeper nesting could overflow a worker's stack",
            ParserOptions::MAX_DEPTH_LIMIT
        )));
    }
    let max_line_bytes: Option<usize> = args.parsed_option("--max-line-bytes")?;
    let policy = resolve_policy(on_error.as_deref(), quarantine.as_deref(), max_errors)?;
    let mut config = JobConfig {
        error_policy: policy,
        max_line_bytes,
        ..JobConfig::new()
    };
    if let Some(depth) = max_depth {
        config.parser_options.max_depth = depth;
    }
    Ok(config)
}

/// Parse one `--map-path` value — shared by every subcommand that
/// selects a Map route, so the accepted spellings cannot drift.
pub(crate) fn parse_map_path(value: &str) -> Result<MapPath, CliError> {
    match value {
        "events" => Ok(MapPath::Events),
        "shape" => Ok(MapPath::Shape),
        other => Err(CliError::usage(format!(
            "unknown map path `{other}` (expected events or shape)"
        ))),
    }
}

/// Resolve `--on-error`/`--quarantine`/`--max-errors` into an
/// [`ErrorPolicy`], rejecting contradictory combinations.
fn resolve_policy(
    on_error: Option<&str>,
    quarantine: Option<&str>,
    max_errors: Option<u64>,
) -> Result<ErrorPolicy, CliError> {
    let policy = match (on_error, quarantine) {
        (None | Some("quarantine"), Some(sink)) => ErrorPolicy::Quarantine {
            sink: sink.into(),
            max_errors,
        },
        (Some("quarantine"), None) => {
            return Err(CliError::usage(
                "--on-error quarantine requires --quarantine FILE",
            ))
        }
        (Some("skip"), None) => ErrorPolicy::Skip { max_errors },
        (Some("skip"), Some(_)) => {
            return Err(CliError::usage(
                "--quarantine implies --on-error quarantine; drop --on-error skip",
            ))
        }
        (None | Some("fail"), None) => {
            if max_errors.is_some() {
                return Err(CliError::usage(
                    "--max-errors needs --on-error skip or quarantine",
                ));
            }
            ErrorPolicy::FailFast
        }
        (Some("fail"), Some(_)) => {
            return Err(CliError::usage(
                "--quarantine implies --on-error quarantine; drop --on-error fail",
            ))
        }
        (Some(other), _) => {
            return Err(CliError::usage(format!(
                "unknown error policy `{other}` (expected fail, skip or quarantine)"
            )))
        }
    };
    Ok(policy)
}

/// Write `payload` to `path` wrapped in the workspace response envelope
/// (`{"schema_version", "kind", "payload"}`) — the one shape every
/// JSON-emitting subcommand and the serve protocol share.
pub(crate) fn write_envelope(path: &str, kind: &str, payload: &str) -> CliResult {
    std::fs::write(path, typefuse_obs::envelope(kind, payload))
        .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse::RetryPolicy;

    #[test]
    fn full_parse_covers_the_execution_matrix() {
        let mut args = ArgStream::from_vec(&[
            "--workers",
            "3",
            "--partitions",
            "8",
            "--map-path",
            "events",
            "--dedup",
            "on",
            "--on-error",
            "skip",
            "--max-errors",
            "2",
            "--max-depth",
            "64",
            "--max-line-bytes",
            "4096",
        ]);
        let config = parse(&mut args).unwrap();
        args.finish().unwrap();
        assert_eq!(config.workers, Some(3));
        assert_eq!(config.partitions, Some(8));
        assert_eq!(config.map_path, MapPath::Events);
        assert_eq!(config.dedup, DedupMode::On);
        assert!(matches!(
            config.error_policy,
            ErrorPolicy::Skip {
                max_errors: Some(2)
            }
        ));
        assert_eq!(config.parser_options.max_depth, 64);
        assert_eq!(config.max_line_bytes, Some(4096));
        assert_eq!(config.retry, RetryPolicy::default());
    }

    #[test]
    fn ingest_parse_rejects_contradictions() {
        let mut args = ArgStream::from_vec(&["--max-errors", "3"]);
        assert!(parse_ingest(&mut args).is_err());
        let mut args = ArgStream::from_vec(&["--on-error", "quarantine"]);
        assert!(parse_ingest(&mut args).is_err());
        let mut args = ArgStream::from_vec(&["--on-error", "nonsense"]);
        assert!(parse_ingest(&mut args).is_err());
    }
}
