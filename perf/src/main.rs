//! typefuse's end-to-end + layer-budget benchmark. See README.md.
//!
//! `--trace 0|1` makes one measured run of one workload and ends with
//! the result line the benchmark contract asks for; without `--trace`
//! the harness re-runs itself that way for every workload (end-to-end
//! first, then traced), `--sets K` times, and writes `out/results.json`.

mod alloc;
mod client;
mod corpus;
mod cpus;
mod e2e;
mod layers;
mod metrics;
mod pacer;
mod proc;
mod stats;
mod trace;

use corpus::{Corpus, Workload, WORKLOADS};
use cpus::Cpus;
use e2e::Tally;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;
use typefuse::json::{parse_value, Value};
use typefuse::obs::JsonWriter;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of BENCHMARK.json: the `--seconds` at which the
/// workload sizes in `corpus::WORKLOADS` apply unscaled.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--sets K] [--quick]";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: None,
        sets: 1,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known =
                    corpus::workload(&value).ok_or(format!("unknown workload `{value}`"))?;
                args.workload = Some(known);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--sets" => args.sets = value.parse().ok().filter(|k| *k >= 1).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

/// One step of the end-to-end run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    /// Materialise the corpus (again: same seed, same bytes).
    Setup,
    /// One `typefuse infer` process over the whole corpus, for its memory.
    Whole,
    /// One `typefuse infer` process over the slice, then one fresh daemon
    /// catching up on the prefix and, if `paced`, serving a paced phase.
    Round { paced: bool },
}

/// Timed repetitions of each kind in the measured run.
const ROUNDS: usize = 24;

/// The measured run: 24 rounds of one short batch repetition and one
/// short catch-up each, every sixth daemon going on to a paced phase,
/// with 5 set-ups and 2 whole-corpus batch runs in between. What slows
/// this box down arrives in stretches of 5 to 25 s, so no kind of
/// repetition is made back to back: each is spread over the whole run
/// and meets the slow stretches and the fast ones alike.
fn full_run() -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..ROUNDS {
        if round % 6 == 0 {
            steps.push(Step::Setup);
        }
        if round % 12 == 6 {
            steps.push(Step::Whole);
        }
        steps.push(Step::Round {
            paced: round % 6 == 3,
        });
    }
    steps.push(Step::Setup);
    steps
}

/// The `--quick` smoke run: does it build, does the oracle still match.
fn quick_run() -> Vec<Step> {
    vec![Step::Setup, Step::Whole, Step::Round { paced: true }]
}

/// How much one run does. Sizes scale with `scale` only; repetitions
/// are fixed, except for the `--quick` smoke run.
struct Plan {
    scale: f64,
    steps: Vec<Step>,
    /// Passes over the layers, and CLI runs, in the traced run.
    passes: usize,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        if args.quick {
            Plan {
                scale: 0.05,
                steps: quick_run(),
                passes: 1,
            }
        } else {
            Plan {
                scale: args.seconds / RUN_SECONDS as f64,
                steps: full_run(),
                passes: 3,
            }
        }
    }
}

fn perf_dir() -> &'static Path {
    // run.sh builds the harness in the checkout it then runs in.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The release `typefuse` binary run.sh built beside this one.
fn typefuse_bin() -> io::Result<PathBuf> {
    let bin = std::env::current_exe()?.with_file_name("typefuse");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "{} is missing: start the benchmark through perf/run.sh, which builds it",
            bin.display()
        )))
    }
}

/// What one run measured.
struct RunResult {
    metrics: Vec<(&'static str, f64)>,
    tally: Tally,
}

fn materialise(
    w: &Workload,
    args: &Args,
    plan: &Plan,
    boundaries: &[usize],
    tracer: &mut Tracer,
) -> io::Result<Corpus> {
    let dir = perf_dir().join("work").join(w.name);
    corpus::materialise(w, args.seed, plan.scale, &dir, boundaries, tracer)
}

/// The sampled `admits` checks of the oracle count as operations.
fn tally_admits(corpus: &Corpus, tally: &mut Tally) {
    let (made, failed) = corpus.admits;
    tally.attempted += made;
    if failed > 0 {
        tally.failed += failed;
        tally.incorrect = true;
        tally.notes.push(format!(
            "the oracle schema does not admit {failed} of {made} sampled records"
        ));
    }
}

/// The file the timed batch repetitions read: the corpus's first lines.
fn slice_path(corpus: &Corpus) -> PathBuf {
    corpus.dir.join("slice.ndjson")
}

fn need<'a>(values: &'a [f64], what: &str) -> io::Result<&'a [f64]> {
    if values.is_empty() {
        Err(io::Error::other(format!("no {what} was measured")))
    } else {
        Ok(values)
    }
}

/// The untraced run: every end-to-end metric, from subprocesses only.
fn run_end_to_end(w: &Workload, args: &Args, plan: &Plan) -> io::Result<RunResult> {
    let bin = typefuse_bin()?;
    let cpus = Cpus::detect();
    let product = e2e::Product {
        bin: &bin,
        cpus: &cpus,
    };
    let sizes = w.sizes(plan.scale);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut setup_pace = Vec::new();
    let mut whole = e2e::Batch::default();
    let mut timed = e2e::Batch::default();
    let mut serve = e2e::Serve::default();
    let mut corpus: Option<Corpus> = None;
    for step in &plan.steps {
        if let Step::Setup = step {
            // Free the previous copy first: the harness's own high-water
            // mark has to stay below the children's.
            drop(corpus.take());
            let boundaries = [sizes.slice, sizes.served()];
            let (made, placed) = cpus
                .on_fastest(|| materialise(w, args, plan, &boundaries, &mut Tracer::new(w.name)));
            let made = made?;
            setup_s.push(made.timing.total_s);
            setup_pace.push(cpus.pace(&placed));
            std::fs::write(slice_path(&made), made.line_range(0, sizes.slice))?;
            corpus = Some(made);
            continue;
        }
        let corpus = corpus.as_ref().expect("every run starts with a set-up");
        let mut batch_rep = |file: &Path, lines: usize, batch: &mut e2e::Batch| {
            e2e::batch_rep(
                &product,
                file,
                corpus.oracle_at(lines),
                w.dirty.then(|| corpus.injected_before(lines)),
                &corpus.dir,
                batch,
                &mut tally,
            )
        };
        match step {
            Step::Setup => unreachable!("handled above"),
            Step::Whole => batch_rep(&corpus.path, corpus.lines(), &mut whole)?,
            Step::Round { paced } => {
                batch_rep(&slice_path(corpus), sizes.slice, &mut timed)?;
                e2e::serve_daemon(&product, corpus, &sizes, *paced, &mut serve, &mut tally)?;
            }
        }
    }
    let corpus = corpus.expect("every run starts with a set-up");
    tally_admits(&corpus, &mut tally);
    let slice_bytes = corpus.line_range(0, sizes.slice).len() as f64;

    let visible = need(&serve.visible_ms, "visible latency")?;
    let request = need(&serve.request_ms, "request latency")?;
    let (visible_p, visible_tail) = stats::tail_percentile(visible, 0.95);
    let (request_p, request_tail) = stats::tail_percentile(request, 0.95);
    let floor = cpus.floor_s();
    let slowdowns: Vec<f64> = (timed.pace.iter().chain(&serve.catchup_pace))
        .map(|pace| pace.slowdown(floor))
        .collect();
    eprintln!(
        "{}: {} timed and {} whole batch runs, {} catch-ups, {} visible samples (p{:.0} {:.1} ms), \
         {} schema requests (p50 {:.1} ms, p{:.0} {:.1} ms), generator late p95 {:.3} ms; probe \
         {:.3} ms undisturbed, {:.2} times that around the median repetition",
        w.name,
        timed.wall_s.len(),
        whole.wall_s.len(),
        serve.catchup_s.len(),
        visible.len(),
        visible_p * 100.0,
        visible_tail,
        request.len(),
        stats::median(request),
        request_p * 100.0,
        request_tail,
        stats::tail_percentile(need(&serve.late_ms, "append")?, 0.95).1,
        floor * 1e3,
        stats::median(&slowdowns),
    );
    // Linux floors a child's `ru_maxrss` at its parent's resident set at
    // exec, so the figure is only the child's while ours stays below it.
    let infer_rss_mb = stats::median(need(&whole.peak_rss_mb, "whole-corpus batch run")?);
    let own_rss_mb = proc::vm_hwm_mb(std::process::id()).unwrap_or(f64::INFINITY);
    if own_rss_mb >= infer_rss_mb {
        return Err(io::Error::other(format!(
            "the harness's own peak RSS ({own_rss_mb:.0} MB) reaches the measured \
             infer_peak_rss_mb ({infer_rss_mb:.0} MB), which therefore measures the harness"
        )));
    }
    // Times as on the undisturbed box (see `cpus`).
    let wall = |times: &[f64], paces: &[cpus::Pace]| -> Vec<f64> {
        let paced = times.iter().zip(paces);
        paced
            .map(|(&t, pace)| pace.wall_at_full_speed(t, floor))
            .collect()
    };
    let infer_wall_s = wall(need(&timed.wall_s, "batch run")?, &timed.pace);
    let infer_cpu_s: Vec<f64> = (timed.cpu_s.iter().zip(&timed.pace))
        .map(|(&t, pace)| pace.cpu_at_full_speed(t, floor))
        .collect();
    let catchup_s = wall(need(&serve.catchup_s, "catch-up")?, &serve.catchup_pace);
    let metrics = vec![
        ("setup_s", stats::median(&wall(&setup_s, &setup_pace))),
        (
            "infer_mb_s",
            slice_bytes / 1e6 / stats::fastest_quarter_mean(&infer_wall_s),
        ),
        (
            "infer_cpu_s_per_gb",
            stats::fastest_quarter_mean(&infer_cpu_s) / (slice_bytes / 1e9),
        ),
        ("infer_peak_rss_mb", infer_rss_mb),
        (
            "serve_catchup_mb_s",
            serve.prefix_bytes as f64 / 1e6 / stats::fastest_quarter_mean(&catchup_s),
        ),
        ("serve_visible_p50_ms", stats::median(visible)),
        (
            "serve_peak_rss_mb",
            stats::median(need(&serve.peak_rss_mb, "paced daemon")?),
        ),
    ];
    Ok(RunResult { metrics, tally })
}

/// The traced run: every per-layer metric, spans written to
/// `out/trace-<workload>.json`. No end-to-end metric comes from here.
fn run_traced(w: &Workload, args: &Args, plan: &Plan) -> io::Result<RunResult> {
    let bin = typefuse_bin()?;
    let cpus = Cpus::detect();
    let product = e2e::Product {
        bin: &bin,
        cpus: &cpus,
    };
    let sizes = w.sizes(plan.scale);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(w.name);
    let mut samples = layers::Samples::default();

    // One paced phase of twice the length, for the extremes reported here.
    let paced = corpus::Sizes {
        batches: sizes.batches * 2,
        ..sizes
    };
    let corpus = materialise(w, args, plan, &[sizes.layers, paced.served()], &mut tracer)?;
    tally_admits(&corpus, &mut tally);
    samples.put(
        "datagen.mb_s",
        corpus.data.len() as f64 / 1e6 / corpus.timing.generate_s,
    );

    let prefix_path = corpus.dir.join("prefix.ndjson");
    let prefix = corpus.line_range(0, sizes.layers);
    std::fs::write(&prefix_path, prefix)?;
    let input = layers::Input {
        path: &prefix_path,
        data: prefix,
        oracle: corpus.oracle_at(sizes.layers),
        injected: corpus.injected_before(sizes.layers),
        dirty: w.dirty,
        dir: &corpus.dir,
    };
    alloc::set_counting(true);
    for pass in 0..plan.passes {
        let (done, _) = tracer.span(&format!("pass.{pass}"), |t| {
            layers::pass(&input, t, &mut samples, &mut tally)
        });
        done?;
    }
    alloc::set_counting(false);

    // The same file through the real CLI: what a process costs on top
    // of the in-process pipeline.
    let mut batch = e2e::Batch::default();
    for _ in 0..plan.passes {
        let (done, _) = tracer.span("cli", |_| {
            e2e::batch_rep(
                &product,
                &prefix_path,
                input.oracle,
                w.dirty.then_some(input.injected),
                &corpus.dir,
                &mut batch,
                &mut tally,
            )
        });
        done?;
    }
    let cli_ms = stats::median(need(&batch.wall_s, "batch run")?) * 1e3;
    let pipeline_ms = samples
        .median("pipeline.wall_ms_w2")
        .expect("every pass measures the pipeline");
    samples.put("cli.overhead_ms", cli_ms - pipeline_ms);

    // One paced phase against a real daemon, for the serve extremes.
    let mut serve = e2e::Serve::default();
    let (done, _) = tracer.span("serve.paced", |_| {
        e2e::serve_daemon(&product, &corpus, &paced, true, &mut serve, &mut tally)
    });
    done?;
    let max = |v: &[f64]| v.iter().copied().fold(f64::NAN, f64::max);
    let visible = need(&serve.visible_ms, "visible latency")?;
    let request = need(&serve.request_ms, "request latency")?;
    samples.put(
        "serve.visible_p95_ms",
        stats::tail_percentile(visible, 0.95).1,
    );
    samples.put("serve.visible_max_ms", max(visible));
    samples.put("serve.request_p50_ms", stats::median(request));
    samples.put(
        "serve.request_p95_ms",
        stats::tail_percentile(request, 0.95).1,
    );
    samples.put("serve.request_max_ms", max(request));
    samples.put(
        "serve.gen_late_p95_ms",
        stats::tail_percentile(need(&serve.late_ms, "append")?, 0.95).1,
    );
    samples.put("serve.checkpoint_bytes", serve.checkpoint_bytes as f64);

    let out = perf_dir().join("out");
    std::fs::create_dir_all(&out)?;
    std::fs::write(
        out.join(format!("trace-{}.json", w.name)),
        tracer.chrome_json(),
    )?;
    eprintln!("{}: self time by span, ms", w.name);
    for (name, ns) in tracer.self_time_by_name() {
        eprintln!("  {name:<24} {:>12.3}", ns as f64 / 1e6);
    }

    // Report in the table's order.
    let metrics = metrics::PER_LAYER
        .iter()
        .map(|def| {
            let median = samples.median(def.name);
            median
                .map(|value| (def.name, value))
                .ok_or_else(|| io::Error::other(format!("{} was not measured", def.name)))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok(RunResult { metrics, tally })
}

/// Print every metric by name with its unit, then the contract's result
/// line as the last line of stdout.
fn print_result(result: &RunResult) {
    let tally = &result.tally;
    for (name, value) in &result.metrics {
        println!("{name:<36} {value:>16.4} {}", metrics::describe(name));
    }
    println!(
        "{:<36} {:>16.6} ratio ({} of {} failed)",
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for note in &tally.notes {
        eprintln!("FAILED: {note}");
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.bool_value(!tally.incorrect);
    w.key("attempted");
    w.number(tally.attempted.max(1));
    w.key("failed");
    w.number(tally.failed);
    w.key("metrics");
    w.begin_object();
    for (name, value) in &result.metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.float(*value);
        w.key("unit");
        w.string(metrics::unit_of(name));
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
}

/// One child run's parsed result line.
struct ChildResult {
    workload: &'static str,
    traced: bool,
    correct: bool,
    attempted: i64,
    failed: i64,
    metrics: Vec<(String, f64)>,
}

/// Re-run this binary for one `(workload, trace)` cell, so each cell is
/// measured exactly the way the benchmark contract runs it — in a fresh
/// process whose own memory high-water mark cannot leak into the next.
fn run_child(w: &Workload, args: &Args, traced: bool) -> io::Result<ChildResult> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| parse_value(line).ok());
    let result = parsed
        .filter(|_| output.status.success())
        .ok_or_else(|| io::Error::other(format!("{} run (trace {traced}) failed", w.name)))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .map(|m| {
            m.iter()
                .filter_map(|(name, v)| Some((name.to_string(), v.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildResult {
        workload: w.name,
        traced,
        correct: result.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: result.get("attempted").and_then(Value::as_i64).unwrap_or(0),
        failed: result.get("failed").and_then(Value::as_i64).unwrap_or(0),
        metrics,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The full report: every workload, end to end and traced, `sets`
/// times. Fails if a run fails, or if two sets of the same code disagree
/// on an end-to-end metric by more than its bound.
fn run_all(args: &Args) -> io::Result<bool> {
    let workloads: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for set in 0..args.sets {
        let mut cells = Vec::new();
        for w in &workloads {
            for traced in [false, true] {
                eprintln!(
                    "== set {}/{}: {} (trace {}) ==",
                    set + 1,
                    args.sets,
                    w.name,
                    u8::from(traced)
                );
                cells.push(run_child(w, args, traced)?);
            }
        }
        sets.push(cells);
    }

    let mut ok = true;
    for (i, first) in sets[0].iter().enumerate() {
        println!(
            "\n{} — {}",
            first.workload,
            if first.traced {
                "per layer (traced run)"
            } else {
                "end to end"
            }
        );
        println!(
            "{:<36} {:>14} {:>14} {:>14}  unit",
            "metric", "min", "median", "max"
        );
        for (m, (name, _)) in first.metrics.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|cells| cells[i].metrics[m].1).collect();
            let (min, median, max) = stats::min_median_max(&values);
            let unit = metrics::describe(name);
            print!("{name:<36} {min:>14.4} {median:>14.4} {max:>14.4}  {unit}");
            match metrics::bound_of(name) {
                Some(bound) if (max - min) / min > bound => {
                    ok = false;
                    println!(
                        "  SETS DISAGREE by {:.1} % (bound {:.0} %)",
                        (max - min) / min * 100.0,
                        bound * 100.0
                    );
                }
                _ => println!(),
            }
        }
        let attempted: i64 = sets.iter().map(|cells| cells[i].attempted).sum();
        let failed: i64 = sets.iter().map(|cells| cells[i].failed).sum();
        println!(
            "{:<36} {:>44.6}  ratio ({failed} of {attempted} failed)",
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64
        );
        if failed > 0 || sets.iter().any(|cells| !cells[i].correct) {
            ok = false;
            println!("RUN FAILED: see the FAILED lines above");
        }
    }

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("environment");
    w.begin_object();
    w.key("nproc");
    w.number(std::thread::available_parallelism().map_or(0, |n| n.get() as u64));
    w.key("kernel");
    w.string(
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .unwrap_or_default()
            .trim(),
    );
    w.key("rustc");
    w.string(&command_line("rustc", &["-V"]));
    w.key("git_sha");
    w.string(&command_line(
        "git",
        &["-C", &perf_dir().display().to_string(), "rev-parse", "HEAD"],
    ));
    w.key("seed");
    w.number(args.seed);
    w.key("seconds");
    w.float(args.seconds);
    w.key("quick");
    w.bool_value(args.quick);
    w.end_object();
    w.key("sets");
    w.begin_array();
    for cells in &sets {
        w.begin_array();
        for cell in cells {
            w.begin_object();
            w.key("workload");
            w.string(cell.workload);
            w.key("traced");
            w.bool_value(cell.traced);
            w.key("correct");
            w.bool_value(cell.correct);
            w.key("attempted");
            w.number(cell.attempted as u64);
            w.key("failed");
            w.number(cell.failed as u64);
            w.key("metrics");
            w.begin_object();
            for (name, value) in &cell.metrics {
                w.key(name);
                w.float(*value);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
    }
    w.end_array();
    w.end_object();
    let out = perf_dir().join("out");
    std::fs::create_dir_all(&out)?;
    std::fs::write(out.join("results.json"), w.finish())?;
    println!("\nwrote {}", out.join("results.json").display());
    Ok(ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run perf/run.sh, which builds --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Some(w), Some(traced)) => {
            let plan = Plan::new(&args);
            let run = if traced { run_traced } else { run_end_to_end };
            run(w, &args, &plan).map(|result| {
                print_result(&result);
                true
            })
        }
        _ => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
