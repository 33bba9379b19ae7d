//! The end-to-end traffic: (a) batch `typefuse infer` runs, (b) fresh
//! daemons catching up on a prefix, (c) an open-loop paced append phase
//! against some of those daemons. Everything here drives subprocesses of the
//! real release binary and checks what they return against the oracle.

use crate::client::{self, Client};
use crate::corpus::{Corpus, Sizes};
use crate::cpus::{Cpus, Pace};
use crate::pacer::{self, Schedule};
use crate::proc::{self, Daemon};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// An appended batch that no `health` response shows within this long
/// after the last batch was due was never visible.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(10);
/// A daemon that has not caught up by then has failed.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(120);

/// Operations attempted and failed, and whether any output was wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Some output differed from the oracle.
    pub incorrect: bool,
    /// One line per failure, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// One attempted comparison against the oracle.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt();
        if !ok {
            self.incorrect = true;
            self.fail(what());
        }
    }
}

/// The program under test: the release binary, and the CPUs its
/// processes are placed on.
pub struct Product<'a> {
    pub bin: &'a Path,
    pub cpus: &'a Cpus,
}

/// Per-repetition costs of phase (a).
#[derive(Debug, Default)]
pub struct Batch {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    /// How disturbed each repetition's CPU was.
    pub pace: Vec<Pace>,
}

/// One repetition of phase (a) over `file`: `typefuse infer FILE --format text
/// --workers 2` (plus `--on-error skip` when `skipped` is given) in a
/// process of its own. Its stdout must equal `oracle`; with `skipped`,
/// the count the CLI reports on stderr must equal it.
pub fn batch_rep(
    product: &Product,
    file: &Path,
    oracle: &str,
    skipped: Option<u64>,
    dir: &Path,
    batch: &mut Batch,
    tally: &mut Tally,
) -> io::Result<()> {
    let out_path = dir.join("infer.out");
    let err_path = dir.join("infer.err");
    let mut command = Command::new(product.bin);
    command.arg("infer").arg(file);
    command.args(["--format", "text", "--workers", "2"]);
    if skipped.is_some() {
        command.args(["--on-error", "skip"]);
    }
    command
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);
    let usage = proc::run_to_exit(&mut command, product.cpus)?;
    batch.wall_s.push(usage.wall_s);
    batch.cpu_s.push(usage.cpu_s);
    batch.peak_rss_mb.push(usage.peak_rss_mb);
    batch.pace.push(usage.pace);

    let rep = batch.wall_s.len();
    let stderr = std::fs::read_to_string(&err_path)?;
    tally.attempt();
    if !usage.success {
        tally.fail(format!("infer run {rep}: non-zero exit: {}", stderr.trim()));
        return Ok(());
    }
    let stdout = std::fs::read(&out_path)?;
    let matches = stdout.strip_suffix(b"\n") == Some(oracle.as_bytes());
    tally.check(matches, || {
        format!("infer run {rep}: stdout differs from the oracle")
    });
    if let Some(expected) = skipped {
        let reported = reported_skipped(&stderr);
        tally.check(reported == expected, || {
            format!("infer run {rep}: skipped {reported} lines, {expected} were injected")
        });
    }
    Ok(())
}

/// The N of the CLI's `skipped N bad record(s)` stderr line (0 if absent).
fn reported_skipped(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("skipped ")?.split(' ').next()?.parse().ok())
        .unwrap_or(0)
}

/// What the serve phases measured.
#[derive(Debug, Default)]
pub struct Serve {
    /// `listening` line → `metrics` shows the whole prefix, per daemon.
    pub catchup_s: Vec<f64>,
    /// How disturbed each catch-up's CPU was.
    pub catchup_pace: Vec<Pace>,
    /// Bytes of the prefix.
    pub prefix_bytes: usize,
    /// Append due time → visible, per batch that became visible.
    pub visible_ms: Vec<f64>,
    /// `schema` round trips during the paced phases.
    pub request_ms: Vec<f64>,
    /// How late the appender wrote each batch.
    pub late_ms: Vec<f64>,
    /// `VmHWM` of each paced daemon just before shutdown.
    pub peak_rss_mb: Vec<f64>,
    /// Bytes in the last paced daemon's checkpoint directory after
    /// shutdown.
    pub checkpoint_bytes: u64,
}

/// One fresh daemon: phase (b), catching up on the prefix, and — with
/// `paced` — phase (c) on the same daemon, which must end on the oracle
/// schema of everything it was fed.
pub fn serve_daemon(
    product: &Product,
    corpus: &Corpus,
    sizes: &Sizes,
    paced: bool,
    serve: &mut Serve,
    tally: &mut Tally,
) -> io::Result<()> {
    let file = corpus.dir.join("served.ndjson");
    let checkpoints = corpus.dir.join("checkpoints");
    let prefix = corpus.line_range(0, sizes.prefix);
    serve.prefix_bytes = prefix.len();
    std::fs::write(&file, prefix)?;
    if checkpoints.exists() {
        std::fs::remove_dir_all(&checkpoints)?;
    }
    let errors = corpus.dir.join("serve.err");
    let daemon = Daemon::spawn(product.bin, &file, &checkpoints, &errors, product.cpus)?;
    let mut session = Client::connect_probe(&daemon.addr)?;
    tally.attempt();
    match await_lines(
        &mut session,
        sizes.prefix as u64,
        daemon.listening_at,
        tally,
    )? {
        Some(took) => {
            serve.catchup_s.push(took.as_secs_f64());
            serve.catchup_pace.push(product.cpus.pace(&daemon.placed));
        }
        None => tally.fail("a daemon never caught up on the prefix".into()),
    }
    if paced {
        paced_phase(&daemon, &mut session, &file, corpus, sizes, serve, tally)?;
        serve
            .peak_rss_mb
            .push(proc::vm_hwm_mb(daemon.pid()).unwrap_or(f64::NAN));
    }
    tally.attempt();
    let acked = session
        .request(client::SHUTDOWN)
        .is_ok_and(|r| client::is_kind(&r, "ok"));
    if !(acked && daemon.wait_exit()) {
        tally.fail("a daemon did not shut down cleanly".into());
    }
    if paced {
        serve.checkpoint_bytes = dir_bytes(&checkpoints);
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| if m.is_file() { m.len() } else { 0 })
        .sum()
}

/// Poll `metrics` (1 ms think time) until the daemon has consumed
/// `lines` lines; the time since `since`, or `None` on the deadline.
fn await_lines(
    session: &mut Client,
    lines: u64,
    since: Instant,
    tally: &mut Tally,
) -> io::Result<Option<Duration>> {
    while since.elapsed() < CATCHUP_DEADLINE {
        tally.attempt();
        let response = session.request(client::METRICS)?;
        let at = since.elapsed();
        match client::metrics_lines(&response) {
            Ok(seen) if seen >= lines => return Ok(Some(at)),
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => tally.fail(format!("metrics: {e}")),
        }
    }
    Ok(None)
}

/// Phase (c). Open loop: the appender thread writes batch `k` at its due
/// time whatever the daemon is doing. Two client sessions run beside it:
/// this thread polls `metrics` (5 ms think time, the daemon's own poll
/// interval) to see each batch become visible, a reader thread issues `schema` with 10 ms think time.
fn paced_phase(
    daemon: &Daemon,
    watcher: &mut Client,
    file: &Path,
    corpus: &Corpus,
    sizes: &Sizes,
    serve: &mut Serve,
    tally: &mut Tally,
) -> io::Result<()> {
    let schedule = Schedule {
        start_lines: sizes.prefix as u64,
        per_batch: sizes.per_batch as u64,
        batches: sizes.batches,
        interval: Duration::from_millis(sizes.batch_ms as u64),
    };
    let tail = corpus.line_range(sizes.prefix, sizes.served());
    // Byte offset in `tail` where each batch ends.
    let base = corpus.line_range(0, sizes.prefix).len();
    let ends: Vec<usize> = (0..sizes.batches)
        .map(|k| corpus.line_range(0, schedule.cumulative(k) as usize).len() - base)
        .collect();

    let mut reader = Client::connect(&daemon.addr)?;
    let mut appended = OpenOptions::new().append(true).open(file)?;
    let done = AtomicBool::new(false);
    // The origin lies a little ahead so all three loops are running
    // before the first batch is due.
    let origin = Instant::now() + Duration::from_millis(20);

    let (late_ms, requests, observations) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| -> io::Result<Vec<f64>> {
            let mut late_ms = Vec::with_capacity(ends.len());
            let mut start = 0;
            for (k, &end) in ends.iter().enumerate() {
                let due = origin + schedule.due(k);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                appended.write_all(&tail[start..end])?;
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                start = end;
            }
            Ok(late_ms)
        });
        let reading = scope.spawn(|| {
            let mut rtt_ms = Vec::new();
            let mut failures = Vec::new();
            while !done.load(Ordering::Acquire) {
                let sent = Instant::now();
                match reader.request(client::SCHEMA) {
                    Ok(r) if client::is_kind(&r, "schema") => {
                        rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3)
                    }
                    Ok(r) => failures.push(format!("schema: unexpected response {:.80}", r)),
                    Err(e) => {
                        failures.push(format!("schema: {e}"));
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            (rtt_ms, failures)
        });

        // The watcher: record every change of the visible line count.
        let deadline = schedule.due(sizes.batches - 1) + VISIBLE_DEADLINE;
        let mut observations: Vec<(Duration, u64)> = Vec::new();
        let mut last = schedule.start_lines;
        let watched = (|| -> io::Result<()> {
            while last < schedule.final_lines() && origin.elapsed() < deadline {
                tally.attempt();
                let response = watcher.request(client::METRICS)?;
                let at = origin.elapsed();
                match client::metrics_lines(&response) {
                    Ok(seen) if seen > last => {
                        observations.push((at, seen));
                        last = seen;
                    }
                    Ok(_) => {}
                    Err(e) => tally.fail(format!("metrics: {e}")),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        })();
        let late_ms = appender.join().expect("appender thread panicked");
        // Release: the reader's next `done` load sees every append.
        done.store(true, Ordering::Release);
        let requests = reading.join().expect("reader thread panicked");
        watched
            .and(late_ms)
            .map(|late| (late, requests, observations))
    })?;

    let (rtt_ms, failures) = requests;
    tally.attempted += (rtt_ms.len() + failures.len()) as u64;
    failures.into_iter().for_each(|f| tally.fail(f));
    serve.request_ms.extend(rtt_ms);
    serve.late_ms.extend(late_ms);

    let mut visible_ms = Vec::with_capacity(sizes.batches);
    for (k, latency) in pacer::visible_latencies(&schedule, &observations)
        .into_iter()
        .enumerate()
    {
        tally.attempt();
        match latency {
            Some(l) => visible_ms.push(l.as_secs_f64() * 1e3),
            None => tally.fail(format!("batch {k} was never visible")),
        }
    }
    tally.attempt();
    if pacer::backlog_grew(&visible_ms, sizes.batch_ms as f64) {
        tally.fail(
            "backlog grew: every batch of the last quarter took over twice the first \
             quarter's median, and over five batch intervals, to become visible"
                .into(),
        );
    }
    serve.visible_ms.extend(visible_ms);

    // The daemon has now folded exactly the served lines, and `health`
    // has to say so too.
    tally.attempt();
    match watcher
        .request(client::HEALTH)
        .map_err(|e| e.to_string())
        .and_then(|r| client::health_lines(&r))
    {
        Ok(lines) if lines == schedule.final_lines() => {}
        Ok(lines) => tally.fail(format!(
            "health counts {lines} lines, {} were served",
            schedule.final_lines()
        )),
        Err(e) => tally.fail(format!("final health: {e}")),
    }
    tally.attempt();
    match watcher
        .request(client::SCHEMA)
        .map_err(|e| e.to_string())
        .and_then(|r| client::schema_payload(&r))
    {
        Ok((schema, skipped)) => {
            let served = sizes.served();
            tally.check(schema == corpus.oracle_at(served), || {
                "served schema differs from the oracle".to_string()
            });
            let injected = corpus.injected_before(served);
            tally.check(skipped == injected, || {
                format!("daemon skipped {skipped} lines, {injected} were injected")
            });
        }
        Err(e) => tally.fail(format!("final schema: {e}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipped_count_is_read_from_the_cli_stderr_line() {
        assert_eq!(reported_skipped("skipped 37 bad record(s)\n"), 37);
        assert_eq!(
            reported_skipped("warning\nskipped 2 bad record(s); quarantined to q\n"),
            2
        );
        assert_eq!(reported_skipped(""), 0);
    }

    #[test]
    fn tally_separates_wrong_outputs_from_other_failures() {
        let mut tally = Tally::default();
        tally.attempt();
        tally.fail("timeout".into());
        assert!(!tally.incorrect);
        tally.check(false, || "mismatch".into());
        assert!(tally.incorrect);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
    }
}
