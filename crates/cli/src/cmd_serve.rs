//! `typefuse serve` — the resident incremental-inference daemon.
//!
//! Boots [`typefuse_serve::Daemon`] from the same shared job flags the
//! batch commands use, prints a `listening` envelope with the bound
//! address on stdout (line one — scripts read it to find the ephemeral
//! port), then blocks until a protocol `shutdown` request stops the
//! daemon.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use std::io::Write;
use std::time::Duration;
use typefuse_obs::{Level, Recorder};
use typefuse_registry::CompatMode;
use typefuse_serve::{Daemon, ServeConfig};

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let listen = args
        .option("--listen")?
        .unwrap_or_else(|| "127.0.0.1:7411".to_string());
    let watches = args.multi_option("--watch")?;
    let tcp_sources = args.multi_option("--tcp-source")?;
    let poll_ms: u64 = args.parsed_option("--poll-ms")?.unwrap_or(50);
    let registry = args.option("--registry")?;
    let compat = match args.option("--compat")?.as_deref() {
        None => CompatMode::None,
        Some(name) => CompatMode::from_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown compat mode `{name}` (expected backward, forward, full or none)"
            ))
        })?,
    };
    let checkpoint_dir = args.option("--checkpoint-dir")?;
    let checkpoint_interval_ms: u64 = args
        .parsed_option("--checkpoint-interval-ms")?
        .unwrap_or(1000);
    let max_sessions: usize = args.parsed_option("--max-sessions")?.unwrap_or(256);
    let session_idle_ms: Option<u64> = args.parsed_option("--session-idle-ms")?;
    let metrics_json = args.option("--metrics-json")?;
    let trace_json = args.option("--trace-json")?;
    let log_json = args.option("--log-json")?;
    let log_level = match args.option("--log-level")?.as_deref() {
        None => Level::Info,
        Some(name) => Level::from_name(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown log level `{name}` (expected debug, info, warn or error)"
            ))
        })?,
    };
    let job = crate::job_args::parse_routed(args)?;
    args.finish()?;

    if watches.is_empty() && tcp_sources.is_empty() {
        return Err(CliError::usage(
            "serve needs at least one source: --watch NAME=PATH or --tcp-source NAME=ADDR",
        ));
    }

    let recorder = Recorder::enabled();
    let job = job.recorder(recorder.clone());
    let mut config = ServeConfig::new()
        .listen(listen)
        .poll_interval(Duration::from_millis(poll_ms.max(1)))
        .compat(compat)
        .log_level(log_level)
        .trace_spans(trace_json.is_some())
        .checkpoint_interval(Duration::from_millis(checkpoint_interval_ms.max(1)))
        .max_sessions(max_sessions.max(1))
        .job(job);
    if let Some(dir) = checkpoint_dir {
        config = config.checkpoint_dir(dir);
    }
    if let Some(ms) = session_idle_ms {
        config = config.session_idle_timeout(Duration::from_millis(ms.max(1)));
    }
    if let Some(path) = registry {
        config = config.registry(path);
    }
    if let Some(path) = log_json {
        config = config.log_sink(path);
    }
    for spec in &watches {
        let (name, path) = split_spec(spec, "--watch", "NAME=PATH")?;
        config = config.watch_file(name, path);
    }
    for spec in &tcp_sources {
        let (name, addr) = split_spec(spec, "--tcp-source", "NAME=ADDR")?;
        config = config.tcp_source(name, addr);
    }

    let daemon =
        Daemon::start(config).map_err(|e| CliError::runtime(format!("cannot start: {e}")))?;

    // Line one on stdout: where the daemon actually listens. With
    // `--listen 127.0.0.1:0` this is the only way to learn the port.
    let mut w = typefuse_obs::JsonWriter::new();
    w.begin_object();
    w.key("addr").string(&daemon.addr().to_string());
    w.end_object();
    println!("{}", typefuse_obs::envelope("listening", &w.finish()));
    std::io::stdout().flush().ok();
    eprintln!(
        "serving {} source(s) on {}; send {{\"op\":\"shutdown\"}} to stop",
        watches.len() + tcp_sources.len(),
        daemon.addr()
    );

    daemon.wait();
    daemon.shutdown();
    eprintln!("stopped");

    if let Some(path) = metrics_json {
        crate::job_args::write_envelope(&path, "metrics", &recorder.snapshot().to_json())?;
    }
    if let Some(path) = trace_json {
        std::fs::write(&path, recorder.chrome_trace_json())
            .map_err(|e| CliError::runtime(format!("cannot write trace to {path}: {e}")))?;
    }
    Ok(())
}

/// Split a `NAME=VALUE` source spec.
fn split_spec<'a>(
    spec: &'a str,
    option: &str,
    shape: &str,
) -> Result<(&'a str, &'a str), CliError> {
    match spec.split_once('=') {
        Some((name, value)) if !name.is_empty() && !value.is_empty() => Ok((name, value)),
        _ => Err(CliError::usage(format!(
            "`{option}` takes {shape}, got `{spec}`"
        ))),
    }
}
