//! The traced run's layer budget: time calls into each layer's public
//! functions from outside, one span per call, over the leading lines
//! of the corpus (`Sizes::layers`). Single thread unless the metric says `_w2`; the
//! reported value is the median over the passes.

use crate::alloc;
use crate::client::{self, Client};
use crate::e2e::Tally;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::path::Path;
use std::time::{Duration, Instant};
use typefuse::engine::Runtime;
use typefuse::infer::streaming::infer_type_from_slice;
use typefuse::infer::{infer_type, DedupAcc, FuseConfig, Incremental, ProfileAcc, ShapeCache};
use typefuse::json::events::EventParser;
use typefuse::json::ndjson::read_line_bounded;
use typefuse::json::scan::scan_into;
use typefuse::json::{parse_value, ParserOptions, ScanIndex, TailReader, Value};
use typefuse::obs::Recorder;
use typefuse::pipeline::{dedup_auto_sample, DedupMode, MapPath, SchemaResult, Source};
use typefuse::splits::{infer_file_schema_with, IngestOptions};
use typefuse::types::wire::{from_wire, to_wire};
use typefuse::types::Type;
use typefuse::{ErrorPolicy, JobConfig, RetryPolicy};
use typefuse_serve::{Daemon, ServeConfig};

/// Records handed to a layer per span where the input of the call must
/// be prepared outside the clock.
const CHUNK: usize = 1024;

/// What the traced run measures over.
pub struct Input<'a> {
    /// The prefix file, warm in the page cache.
    pub path: &'a Path,
    pub data: &'a [u8],
    /// Printed schema of the prefix.
    pub oracle: &'a str,
    /// Malformed lines in the prefix.
    pub injected: u64,
    /// The workload runs with `--on-error skip`.
    pub dirty: bool,
    /// Scratch directory for checkpoint files.
    pub dir: &'a Path,
}

/// Per-pass values of each metric.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median over the passes, if `name` was measured at all.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|values| crate::stats::median(values))
    }
}

/// Time and heap traffic of one measured call.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    secs: f64,
    allocs: f64,
    bytes: f64,
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.secs += other.secs;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

/// Run `f` in a span named after the layer and account its cost.
fn measure<T>(t: &mut Tracer, layer: &str, f: impl FnOnce() -> T) -> (T, Cost) {
    let before = alloc::snapshot();
    let (out, took) = t.span(layer, |_| f());
    let after = alloc::snapshot();
    let cost = Cost {
        secs: took.as_secs_f64(),
        allocs: (after.0 - before.0) as f64,
        bytes: (after.1 - before.1) as f64,
    };
    (out, cost)
}

fn policy(dirty: bool) -> ErrorPolicy {
    if dirty {
        ErrorPolicy::skip()
    } else {
        ErrorPolicy::FailFast
    }
}

/// The job `typefuse infer FILE --workers W [--on-error skip]` builds.
fn job(input: &Input, workers: usize, map_path: MapPath, recorder: Recorder) -> JobConfig {
    JobConfig::new()
        .workers(workers)
        .map_path(map_path)
        .dedup(DedupMode::Auto)
        .on_error(policy(input.dirty))
        .retry(RetryPolicy::default())
        .without_type_stats()
        .recorder(recorder)
}

fn run_job(input: &Input, config: &JobConfig) -> io::Result<SchemaResult> {
    let reader = BufReader::new(File::open(input.path)?);
    config
        .build()
        .run(Source::ndjson(reader))
        .map_err(|e| io::Error::other(format!("pipeline failed: {e}")))
}

/// One pass over every layer. `samples` gains one value per metric.
pub fn pass(
    input: &Input,
    t: &mut Tracer,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let mb = input.data.len() as f64 / 1e6;
    let lines: Vec<&[u8]> = input
        .data
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let n = lines.len() as f64;
    let per_rec = |cost: Cost| cost.secs * 1e9 / n;
    let rec_off = Recorder::disabled();

    // ---- Ceilings: raw read, SWAR scan alone. -------------------------
    let (read, cost) = measure(t, "io", || std::fs::read(input.path));
    black_box(read?);
    samples.put("io.read_mb_s", mb / cost.secs);

    let mut index = ScanIndex::default();
    scan_into(input.data, &mut index); // size the offset buffers once
    let ((), cost) = measure(t, "json.scan", || {
        scan_into(black_box(input.data), &mut index)
    });
    black_box(&index);
    samples.put("json.scan.mb_s", mb / cost.secs);

    // ---- Line readers. -------------------------------------------------
    let (read, cost) = measure(t, "json.ndjson", || -> io::Result<usize> {
        let mut reader = BufReader::new(File::open(input.path)?);
        let mut buf = Vec::new();
        let mut count = 0;
        loop {
            buf.clear();
            let raw =
                read_line_bounded(&mut reader, &mut buf, None, RetryPolicy::none(), &rec_off)?;
            if raw.consumed == 0 {
                return Ok(count);
            }
            black_box(&buf);
            count += 1;
        }
    });
    tally.check(read? == lines.len(), || {
        "json.ndjson: line count differs".into()
    });
    samples.put("json.ndjson.ns_per_rec", per_rec(cost));
    let ndjson_s = cost.secs;

    let (read, cost) = measure(t, "json.tail", || -> io::Result<usize> {
        let mut tail = TailReader::new(File::open(input.path)?);
        let mut out = Vec::new();
        tail.poll(&mut out)?;
        Ok(out.len())
    });
    tally.check(read? == lines.len(), || {
        "json.tail: line count differs".into()
    });
    samples.put("json.tail.ns_per_rec", per_rec(cost));

    // ---- Tokenize, parse, infer. ---------------------------------------
    let (events, cost) = measure(t, "json.events", || {
        let mut events = 0u64;
        for line in &lines {
            let mut parser = EventParser::new(line);
            while let Ok(Some(event)) = parser.next_event() {
                black_box(event);
                events += 1;
            }
        }
        events
    });
    samples.put("json.events.ns_per_rec", per_rec(cost));
    samples.put("json.events.events_per_rec", events as f64 / n);

    let (bad, cost) = measure(t, "json.parse", || {
        lines
            .iter()
            .filter(|line| {
                let parsed = std::str::from_utf8(line).map(parse_value);
                !matches!(black_box(parsed), Ok(Ok(_)))
            })
            .count()
    });
    tally.check(bad as u64 == input.injected, || {
        format!(
            "json.parse rejected {bad} lines, {} were injected",
            input.injected
        )
    });
    samples.put("json.parse.ns_per_rec", per_rec(cost));
    samples.put("json.parse.allocs_per_rec", cost.allocs / n);

    // `infer_type` wants trees: build each chunk's outside its span.
    let mut types: Vec<Type> = Vec::with_capacity(lines.len());
    let mut infer_cost = Cost::default();
    for chunk in lines.chunks(CHUNK) {
        let values: Vec<Value> = chunk
            .iter()
            .filter_map(|l| parse_value(std::str::from_utf8(l).ok()?).ok())
            .collect();
        let (inferred, cost) = measure(t, "infer.infer", || {
            values.iter().map(infer_type).collect::<Vec<Type>>()
        });
        infer_cost += cost;
        types.extend(inferred);
    }
    let good = types.len() as f64;
    samples.put("infer.infer.ns_per_rec", infer_cost.secs * 1e9 / good);

    let ((), cost) = measure(t, "infer.streaming", || {
        for line in &lines {
            let _ = black_box(infer_type_from_slice(line));
        }
    });
    samples.put("infer.streaming.ns_per_rec", per_rec(cost));
    samples.put("infer.streaming.allocs_per_rec", cost.allocs / n);
    let streaming_s = cost.secs;

    let options = ParserOptions::default();
    let (cache, cost) = measure(t, "infer.shape", || {
        let mut cache = ShapeCache::new();
        for line in &lines {
            let _ = black_box(cache.infer_line(line, &options, &rec_off));
        }
        cache
    });
    samples.put("infer.shape.ns_per_rec", per_rec(cost));
    samples.put("infer.shape.allocs_per_rec", cost.allocs / n);
    samples.put(
        "infer.shape.hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
    );
    drop(cache);

    // ---- Reduce kernels. -----------------------------------------------
    // `Incremental` consumes its argument: clone each chunk outside.
    let mut plain = Incremental::new();
    let mut fuse_cost = Cost::default();
    for chunk in types.chunks(CHUNK) {
        let owned = chunk.to_vec();
        let ((), cost) = measure(t, "infer.fuse", || {
            owned.into_iter().for_each(|ty| plain.absorb_type(ty))
        });
        fuse_cost += cost;
    }
    samples.put("infer.fuse.ns_per_rec", fuse_cost.secs * 1e9 / good);
    samples.put("infer.fuse.allocs_per_rec", fuse_cost.allocs / good);
    let schema = plain.into_schema();

    let (dedup, cost) = measure(t, "infer.dedup", || {
        let mut acc = DedupAcc::new();
        for ty in &types {
            acc.absorb_type(FuseConfig::default(), ty);
        }
        acc
    });
    let dedup_s = cost.secs;
    let lookups = dedup.cache().hits() + dedup.cache().misses();
    samples.put("infer.dedup.ns_per_rec", cost.secs * 1e9 / good);
    samples.put(
        "infer.dedup.cache_hit_ratio",
        dedup.cache().hits() as f64 / lookups.max(1) as f64,
    );
    samples.put(
        "infer.dedup.distinct_shapes",
        dedup.distinct_shapes() as f64,
    );
    tally.check(dedup.schema() == schema, || {
        "dedup and plain fuse disagree".into()
    });
    drop(dedup);
    // The reduce kernel `--dedup auto` picks for this data.
    let reduce_s = if dedup_auto_sample(types.iter()) {
        dedup_s
    } else {
        fuse_cost.secs
    };
    drop(types);

    let (profiled, cost) = measure(t, "infer.profile", || {
        let mut acc = ProfileAcc::new();
        for (i, line) in lines.iter().enumerate() {
            if let Ok(text) = std::str::from_utf8(line) {
                acc.absorb_line(i as u64 + 1, text);
            }
        }
        acc.records()
    });
    tally.check(profiled as f64 == good, || {
        "infer.profile: record count differs".into()
    });
    samples.put("infer.profile.ns_per_rec", per_rec(cost));

    // ---- Emit. -----------------------------------------------------------
    let (printed, cost) = measure(t, "types.print", || schema.to_string());
    tally.check(printed == input.oracle, || {
        "in-process fold differs from the oracle".into()
    });
    samples.put("types.print.ms", cost.secs * 1e3);
    samples.put("types.print.bytes", printed.len() as f64);
    let print_s = cost.secs;

    let (wire, cost) = measure(t, "types.wire", || to_wire(&schema));
    samples.put("types.wire.encode_ms", cost.secs * 1e3);
    samples.put("types.wire.bytes", wire.len() as f64);
    let (decoded, cost) = measure(t, "types.wire", || from_wire(&wire));
    tally.check(decoded.as_ref() == Ok(&schema), || {
        "wire round trip changed the schema".into()
    });
    samples.put("types.wire.decode_ms", cost.secs * 1e3);

    // ---- The batch pipeline the CLI runs, and its variants. -------------
    let mut pipeline =
        |t: &mut Tracer, span: &str, config: JobConfig| -> io::Result<(SchemaResult, Cost)> {
            let (result, cost) = measure(t, span, || run_job(input, &config));
            let result = result?;
            tally.check(result.schema.to_string() == input.oracle, || {
                format!("{span}: schema differs from the oracle")
            });
            Ok((result, cost))
        };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    let (w1, cost) = pipeline(
        t,
        "pipeline.w1",
        job(input, 1, MapPath::Events, rec_off.clone()),
    )?;
    samples.put("faults.skipped_records", w1.errors.skipped() as f64);
    samples.put("pipeline.wall_ms_w1", ms(w1.wall));
    samples.put("pipeline.map_ms", ms(w1.map_time));
    samples.put("pipeline.reduce_ms", ms(w1.reduce_time));
    samples.put(
        "pipeline.read_ms",
        ms(w1.wall.saturating_sub(w1.map_time + w1.reduce_time)),
    );
    samples.put("pipeline.allocs_per_rec", cost.allocs / n);
    samples.put(
        "pipeline.alloc_bytes_per_input_byte",
        cost.bytes / input.data.len() as f64,
    );
    let attributed = ndjson_s + streaming_s + reduce_s + print_s;
    samples.put(
        "pipeline.unattributed_ratio",
        1.0 - attributed / w1.wall.as_secs_f64(),
    );

    let (w2, _) = pipeline(
        t,
        "pipeline.w2",
        job(input, 2, MapPath::Events, rec_off.clone()),
    )?;
    samples.put("pipeline.wall_ms_w2", ms(w2.wall));
    samples.put(
        "pipeline.speedup_w2",
        w1.wall.as_secs_f64() / w2.wall.as_secs_f64(),
    );
    let (shape, _) = pipeline(
        t,
        "pipeline.shape_w2",
        job(input, 2, MapPath::Shape, rec_off.clone()),
    )?;
    samples.put("pipeline.shape_wall_ms_w2", ms(shape.wall));

    let (recorded, _) = pipeline(
        t,
        "pipeline.recorded",
        job(input, 1, MapPath::Events, Recorder::enabled()),
    )?;
    samples.put(
        "obs.recorder_overhead_ratio",
        recorded.wall.as_secs_f64() / w1.wall.as_secs_f64(),
    );

    // The same job with the harness's own instrumentation off: no span,
    // no allocation counting.
    alloc::set_counting(false);
    let untraced = run_job(input, &job(input, 1, MapPath::Events, rec_off.clone()));
    alloc::set_counting(true);
    samples.put(
        "trace.overhead_ratio",
        w1.wall.as_secs_f64() / untraced?.wall.as_secs_f64(),
    );

    // ---- The file-split route. ------------------------------------------
    let ingest = IngestOptions {
        policy: policy(input.dirty),
        retry: RetryPolicy::default(),
        parser: ParserOptions::default(),
    };
    let mut split_s = [0.0; 2];
    for workers in [1, 2] {
        let (result, cost) = measure(t, "splits", || {
            infer_file_schema_with(input.path, &Runtime::new(workers), &ingest, &rec_off)
        });
        let result = result.map_err(|e| io::Error::other(format!("splits failed: {e}")))?;
        tally.check(result.schema.to_string() == input.oracle, || {
            format!("splits w{workers}: schema differs from the oracle")
        });
        split_s[workers - 1] = cost.secs;
        if workers == 1 {
            samples.put("splits.allocs_per_rec", cost.allocs / n);
        }
    }
    samples.put("splits.wall_ms_w1", split_s[0] * 1e3);
    samples.put("splits.wall_ms_w2", split_s[1] * 1e3);
    samples.put("splits.speedup_w2", split_s[0] / split_s[1]);

    // ---- The daemon, in process. -----------------------------------------
    let checkpoints = input.dir.join("layer-checkpoints");
    let krec_s = |took: Duration| n / 1e3 / took.as_secs_f64();
    let default = serve_catchup(
        input,
        t,
        None,
        Some(&checkpoints),
        lines.len(),
        samples,
        tally,
    )?;
    samples.put("serve.catchup_krec_s", krec_s(default));
    samples.put(
        "serve.batch_ratio",
        w1.wall.as_secs_f64() / default.as_secs_f64(),
    );
    let shape = serve_catchup(
        input,
        t,
        Some(MapPath::Shape),
        Some(&checkpoints),
        lines.len(),
        samples,
        tally,
    )?;
    samples.put("serve.catchup_shape_krec_s", krec_s(shape));
    let no_checkpoint = serve_catchup(input, t, None, None, lines.len(), samples, tally)?;
    samples.put("serve.catchup_nockpt_krec_s", krec_s(no_checkpoint));
    Ok(())
}

/// Start an in-process daemon on the prefix file the way `typefuse
/// serve` configures it and time `Daemon::start` → `health` showing
/// every line. The default-route daemon also answers the idle requests
/// behind `serve.idle_rtt_ms` and `serve.schema_bytes`.
fn serve_catchup(
    input: &Input,
    t: &mut Tracer,
    map_path: Option<MapPath>,
    checkpoints: Option<&Path>,
    lines: usize,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<Duration> {
    let mut job = JobConfig::new()
        .recorder(Recorder::enabled())
        .dedup(DedupMode::Auto)
        .on_error(ErrorPolicy::skip())
        .retry(RetryPolicy::default());
    if let Some(path) = map_path {
        job = job.map_path(path);
    }
    let mut config = ServeConfig::new()
        .listen("127.0.0.1:0")
        .poll_interval(Duration::from_millis(5))
        .job(job)
        .watch_file("s", input.path);
    if let Some(dir) = checkpoints {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        config = config.checkpoint_dir(dir);
    }

    let ((daemon, caught_up), took) = t.span("serve", |_| -> (io::Result<Daemon>, bool) {
        let started = Instant::now();
        let daemon = match Daemon::start(config) {
            Ok(daemon) => daemon,
            Err(e) => return (Err(e), false),
        };
        while started.elapsed() < Duration::from_secs(120) {
            if client::health_lines(&daemon.health_json()) == Ok(lines as u64) {
                return (Ok(daemon), true);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (Ok(daemon), false)
    });
    let daemon = daemon?;
    tally.check(caught_up, || "in-process daemon never caught up".into());

    // Idle requests: the floor under both serve latency medians.
    let (idle, _) = t.span("serve.idle", |_| -> io::Result<()> {
        let mut session = Client::connect(&daemon.addr().to_string())?;
        let response = session.request(client::SCHEMA)?;
        let served = client::schema_payload(&response).map(|(schema, _)| schema);
        tally.check(served.as_deref() == Ok(input.oracle), || {
            "in-process daemon's schema differs from the oracle".into()
        });
        if map_path.is_none() && checkpoints.is_some() {
            samples.put("serve.schema_bytes", response.len() as f64);
            let rtts: Vec<f64> = (0..15)
                .map(|_| {
                    let sent = Instant::now();
                    session
                        .request(client::HEALTH)
                        .map(|_| sent.elapsed().as_secs_f64() * 1e3)
                })
                .collect::<io::Result<_>>()?;
            samples.put("serve.idle_rtt_ms", crate::stats::median(&rtts));
        }
        Ok(())
    });
    daemon.shutdown();
    idle.map(|()| took)
}
