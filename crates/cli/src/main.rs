//! `typefuse` — schema inference for massive JSON datasets from the
//! command line.
//!
//! ```text
//! typefuse infer data.ndjson --format pretty --stats
//! typefuse generate --profile twitter --records 10000 | typefuse infer -
//! typefuse stats data.ndjson
//! typefuse check --schema schema.txt data.ndjson
//! typefuse sim --placement single --blocks 24
//! typefuse serve --watch events=/var/log/events.ndjson --listen 127.0.0.1:7411
//! typefuse help
//! ```

#![forbid(unsafe_code)]

mod args;
mod cmd_check;
mod cmd_diff;
mod cmd_explain;
mod cmd_generate;
mod cmd_infer;
mod cmd_query;
mod cmd_registry;
mod cmd_serve;
mod cmd_sim;
mod cmd_stats;
mod cmd_watch;
mod job_args;

use args::ArgStream;
use std::process::ExitCode;

/// A CLI failure: message plus exit code.
#[derive(Debug)]
pub(crate) struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    pub(crate) fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }

    pub(crate) fn with_code(message: impl Into<String>, code: u8) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }
}

impl<E: std::error::Error> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError::runtime(e.to_string())
    }
}

/// Map an ingestion failure to its documented exit code: 3 for a parse
/// error, 4 for an I/O error, 5 for an exhausted `--max-errors` budget
/// (worker panics keep the generic 1). The blanket `From` above routes
/// everything to code 1, so ingestion call sites map explicitly.
pub(crate) fn ingest_error(e: typefuse::Error) -> CliError {
    let code = match &e {
        typefuse::Error::Parse(_) => 3,
        typefuse::Error::Io { .. } => 4,
        typefuse::Error::Budget { .. } => 5,
        typefuse::Error::Worker(_) => 1,
    };
    CliError::with_code(e.to_string(), code)
}

pub(crate) type CliResult = Result<(), CliError>;

const USAGE: &str = "\
typefuse — schema inference for massive JSON datasets (EDBT 2017)

USAGE:
    typefuse <COMMAND> [OPTIONS]

COMMANDS:
    infer [FILE|-]       infer a schema from NDJSON input (default: stdin)
        --partitions N     dataset partitions (default: 4 x workers)
        --workers N        worker threads (default: all cores)
        --format F         text | pretty | json-schema  (default: pretty)
        --stats            print type statistics (Tables 2-5 columns)
        --counting         print the top 40 record fields by presence
                           (count and ratio) on stderr: the presence
                           column of the profiled pass (see
                           --profile-json, with which it composes)
        --map-path P       events | value: Map phase folds parser events
                           directly into types (default) or materialises
                           value trees first (differential testing)
        --dedup M          auto | on | off: reduce over distinct shapes
                           only (hash-consed interning + memoized
                           fusion); auto samples the input and dedups
                           when shapes repeat. Output is byte-identical
                           either way (default: auto)
        --positional-arrays  keep aligned positional arrays (ablation)
        --streaming          constant-memory fold, no materialised reduce:
                             byte-range splits on a file, one pass on
                             stdin; honours --map-path, --dedup,
                             --positional-arrays and --max-line-bytes
        --maplike            summarise ids-as-keys records as {<key>: T}
        --profile-json F     run the profiled pipeline and write the
                             per-path dataset profile (presence, kinds,
                             length histograms, provenance lines) to F;
                             byte-identical for any --workers/--map-path;
                             honours --on-error/--quarantine, --max-depth
                             and --max-line-bytes (a skipped line leaves
                             no trace in the profile)
        --metrics-json F     write a structured run report (counters,
                             histograms, per-task timings) as JSON to F
        --trace-json F       write a Chrome trace to F (load in Perfetto
                             or chrome://tracing)
        --progress           heartbeat on stderr: records/s and bytes/s
        --on-error P         fail | skip | quarantine: abort on the first
                             malformed record (default), drop bad records,
                             or drop them and write each to the sidecar
                             given by --quarantine (default: fail)
        --quarantine F       sidecar NDJSON file for bad records (implies
                             --on-error quarantine)
        --max-errors N       with skip/quarantine: fail (exit 5) once more
                             than N records are bad
        --max-depth N        parser recursion limit (default and maximum: 512)
        --max-line-bytes N   treat lines longer than N bytes as bad
                             records (subject to --on-error)

    explain PATH         why the fused schema looks that way at PATH
                         (e.g. `.user.url` or `$.kw[].rank`): fused type,
                         presence ratio, which line introduced each union
                         branch, which line demoted the field to optional
        --dataset F        NDJSON input (default: stdin)
        --top N            also list the top-N paths by presence (default 10)
        --workers N        worker threads (provenance is thread-invariant)
        --partitions N     dataset partitions
        --map-path P       events | value

    generate             emit a synthetic dataset as NDJSON on stdout
        --profile P        github | twitter | wikidata | nytimes (required)
        --records N        number of records (default: 1000)
        --seed S           generator seed (default: 42)

    stats [FILE|-]       dataset statistics (records, bytes, depth)
        --dedup            also count distinct type shapes (redundancy)
        --max-depth N      parser recursion limit (default and maximum: 512)
        --metrics-json F   write read/measure metrics as JSON to F
        plus the shared ingest flags: --on-error, --quarantine,
        --max-errors, --max-line-bytes (see infer)

    check [FILE|-]       validate records against a schema
        --schema FILE      schema in typefuse notation (required)
        --max-failures N   stop reporting after N failures (default: 10)
        --max-depth N      parser recursion limit (default and maximum: 512)
        --metrics-json F   write conformance metrics as JSON to F
        plus the shared ingest flags: --on-error, --quarantine,
        --max-errors, --max-line-bytes (see infer)

    diff OLD NEW         structural drift between two NDJSON datasets
        --schemas          treat OLD/NEW as schema files instead of data

    query [FILE|-]       run a schema-checked pipeline over NDJSON data
        --script FILE      pipeline script (required; see typefuse-query)
        --schema FILE      check against this schema instead of inferring
        --check-only       type-check without evaluating

    registry ACTION      versioned schema store (--log FILE, default
                         typefuse.registry.ndjson)
        publish NAME [DATA] [--schema FILE] [--compat backward|forward|full|none]
        latest NAME | history NAME | diff NAME FROM TO | names

    serve                resident incremental-inference daemon: tail
                         NDJSON sources, fold new records into per-source
                         schemas (byte-identical to a batch re-run),
                         publish versioned snapshots with drift alerts,
                         and answer schema/profile/explain/health/diff
                         requests as line-delimited JSON over TCP
        --listen ADDR      protocol address (default: 127.0.0.1:7411;
                           port 0 picks an ephemeral port, reported in
                           the first stdout line)
        --watch NAME=PATH  tail a growing NDJSON file or FIFO
                           (repeatable; the file may not exist yet)
        --tcp-source NAME=ADDR  accept NDJSON-producing TCP connections
                           (repeatable)
        --poll-ms N        source poll interval (default: 50)
        --registry F       persist snapshots to an on-disk registry log
                           (default: in-memory)
        --compat MODE      backward | forward | full | none: gate each
                           published snapshot (default: none)
        --dedup M          auto | on | off (as in infer)
        --checkpoint-dir D persist per-source checkpoints under D and
                           resume from them on restart (crash-safe: a
                           SIGKILL loses at most the records since the
                           last checkpoint tick, never the schema)
        --checkpoint-interval-ms N  checkpoint cadence (default: 1000)
        --max-sessions N   reject protocol sessions beyond N (default: 256)
        --session-idle-ms N  close sessions idle for N ms (default: keep)
        --metrics-json F   write the run report on shutdown
        --trace-json F     write a Chrome trace of poller/session spans
                           on shutdown (load in Perfetto)
        --log-json F       tee structured events (drift alerts, bad
                           records, failures) to F as JSONL
        --log-level L      debug | info | warn | error: minimum event
                           level kept (default: info)
        plus the shared ingest flags: --on-error, --quarantine,
        --max-errors, --max-depth, --max-line-bytes (see infer)
        Live telemetry over the protocol: {\"op\":\"metrics\"} returns one
        snapshot, {\"op\":\"metrics\",\"format\":\"prometheus\"} the text
        exposition, {\"op\":\"watch\",\"interval_ms\":N} a snapshot stream

    watch ADDR           live per-source telemetry tables from a running
                         daemon (records, records/s, tail lag, skipped,
                         quarantined, shapes, published version, breaker
                         state, restarts, checkpoint size and age)
        --interval-ms N    snapshot interval (default: 1000)
        --count N          stop after N snapshots (default: stream until
                           the daemon stops)
        --raw              print the telemetry envelopes verbatim

    sim                  simulate the 6-node cluster experiment
        --placement P      single | spread   (default: single)
        --blocks N         number of input blocks (default: 176)
        --block-mb M       block size in MB (default: 128)
        --records-per-block N  (default: 7000)
        --relaxed          allow non-local tasks (network reads)

    help                 print this message

EXIT CODES:
    0  success        2  usage error      4  input I/O error
    1  other failure  3  parse error      5  --max-errors budget exceeded
";

fn main() -> ExitCode {
    let mut args = ArgStream::from_env();
    let command = match args.next_positional() {
        Some(c) => c,
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "infer" => cmd_infer::run(&mut args),
        "explain" => cmd_explain::run(&mut args),
        "generate" => cmd_generate::run(&mut args),
        "stats" => cmd_stats::run(&mut args),
        "check" => cmd_check::run(&mut args),
        "diff" => cmd_diff::run(&mut args),
        "query" => cmd_query::run(&mut args),
        "registry" => cmd_registry::run(&mut args),
        "serve" => cmd_serve::run(&mut args),
        "watch" => cmd_watch::run(&mut args),
        "sim" => cmd_sim::run(&mut args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("typefuse: {}", e.message);
            if e.code == 2 {
                eprintln!("run `typefuse help` for usage");
            }
            ExitCode::from(e.code)
        }
    }
}
