//! The route matrix: every way the product folds NDJSON into a schema,
//! held to one oracle.
//!
//! Fusion is associative and commutative (the paper's Theorem 5.5), so
//! the driver, the Map route, the Reduce route, the worker count, the
//! partitioning and the moment a fold is checkpointed and resumed must
//! not show in anything a run reports. A *cell* is one corpus × route
//! ([`MapPath`]) × dedup ([`DedupMode`]) × array fusion
//! ([`ArrayFusion`]) × error [`Policy`]. Every cell runs its
//! [`Driver`]s — those that take a worker count at counts rotating
//! through [`WORKERS`] — and each run's [`Observed`] tuple (schema text, profile JSON, the
//! deterministic counters, the bad-record report and the quarantine
//! sidecar bytes, or the error a failing run reports) must equal the
//! oracle's for that driver.
//!
//! The oracle is the paper's literal algorithm: `Parser` →
//! `infer_type` → `fuse_with`, with the profile built by
//! `ProfileAcc::observe_value`, under the NDJSON framing every driver
//! shares (line-size guard, ASCII trim, blank lines, error columns
//! counted from the raw line's start). One reference per
//! input is enough once every accumulator is a monoid (JSONoid, arXiv
//! 2307.03113). Retiring a route means deleting its entry in [`ROUTES`].
//!
//! Corpora are built in process from a seed: `PROPTEST_SEED` when it is
//! set (CI rotates it), otherwise [`FIXTURE_SEED`], the only seed under
//! which the twitter corpus starts with the lines the parent-written
//! checkpoint fixture folded (the [`Driver::Fixture`] cells).

use std::cell::OnceCell;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use typefuse::datagen::{DatasetProfile, Profile};
use typefuse::fold::{fold_stream, Origin, RecordFold};
use typefuse::infer::{
    fuse_with, infer_type, Acc, ArrayFusion, Checkpoint, FuseConfig, ProfileAcc,
};
use typefuse::pipeline::{DedupMode, MapPath, Source};
use typefuse::{splits, BadRecord, Error, ErrorPolicy, ErrorReport, JobConfig};
use typefuse_json::ndjson::trim_ascii_bytes;
use typefuse_json::{ErrorKind, Map, Parser, ParserOptions, Position, Value};
use typefuse_obs::Recorder;
use typefuse_serve::{Daemon, ServeConfig};
use typefuse_types::Type;

const ROUTES: [MapPath; 2] = [MapPath::Events, MapPath::Shape];
const DEDUPS: [DedupMode; 3] = [DedupMode::Off, DedupMode::On, DedupMode::Auto];
const ARRAYS: [ArrayFusion; 2] = [ArrayFusion::Collapse, ArrayFusion::PositionalWhenAligned];
const POLICIES: [Policy; 6] = [
    Policy::FailFast,
    Policy::Skip,
    Policy::Budget,
    Policy::OverBudget,
    Policy::Quarantine,
    Policy::Capped,
];
/// The policies of the bulk corpora, whose records are many and bad
/// lines few: the verdicts (fail-fast, budgets) are the small corpora's.
const BULK_POLICIES: [Policy; 2] = [Policy::Skip, Policy::Capped];
/// Worker counts of the drivers that take one (`JobConfig`'s default
/// partitioning: 4 partitions or byte ranges per worker).
const WORKERS: [usize; 2] = [1, 4];

/// The counters every batch-side driver reports the same.
const COUNTERS: [&str; 5] = [
    "records",
    "json.records",
    "json.lines",
    "ingest.skipped",
    "ingest.quarantined",
];

/// The daemon's counters: `records` and `ingest.skipped` as served, the
/// rest summed over both lives.
const DAEMON_COUNTERS: [&str; 4] = [
    "records",
    "json.records",
    "ingest.skipped",
    "ingest.quarantined",
];

/// The generator seed `tests/fixtures/fold-twitter-60.ckpt.json` was
/// written with, and the corpus seed when `PROPTEST_SEED` is unset.
const FIXTURE_SEED: u64 = 11;
/// How many twitter lines the fixture folded.
const FIXTURE_CUT: usize = 60;

fn seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(FIXTURE_SEED)
}

/// What a bad line means, including the error budget and the line-size
/// guard.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Policy {
    /// The default: the earliest bad line fails the run.
    FailFast,
    /// Drop bad lines.
    Skip,
    /// Drop them under a budget of exactly the corpus's bad lines.
    Budget,
    /// Drop them under a budget one short: the run fails with
    /// [`Error::Budget`].
    OverBudget,
    /// Drop them and write each to a sidecar.
    Quarantine,
    /// Quarantine under a line-size guard that cuts the corpus's
    /// longest line.
    Capped,
}

impl Policy {
    fn quarantines(self) -> bool {
        matches!(self, Policy::Quarantine | Policy::Capped)
    }
}

/// How records reach the fold.
#[derive(Debug, Clone, Copy)]
enum Driver {
    /// `SchemaJob::run` with this many workers.
    Batch(usize),
    /// `SchemaJob::run_profiled` with this many workers.
    Profiled(usize),
    /// `splits::infer_file` with this many workers.
    Splits(usize),
    /// `fold::fold_stream` (`infer - --streaming`), carrying a profile
    /// or not.
    Stdin(bool),
    /// A real daemon tailing the corpus as it grows in three cuts,
    /// restarted from its checkpoint after one of them.
    Daemon,
    /// The fold the parent commit checkpointed after
    /// [`FIXTURE_CUT`] twitter lines, restored and resumed.
    Fixture,
}

/// Where a bad record is anchored: stream drivers count lines,
/// byte-range splits count bytes.
#[derive(Debug, Clone, Copy)]
enum Coords {
    Line,
    Offset,
}

/// Everything a run reports that must not depend on how it ran.
#[derive(Debug, PartialEq)]
enum Observed {
    Ran {
        schema: String,
        profile: Option<String>,
        counters: Vec<(&'static str, u64)>,
        report: Option<ErrorReport>,
        sidecar: Option<String>,
    },
    Failed(String),
}

// ---- The oracle --------------------------------------------------------

/// One bad line, relative to its raw line (leading whitespace counts).
struct Bad {
    line: u64,
    offset: u64,
    kind: ErrorKind,
    start: Position,
    text: String,
}

/// The literal algorithm's answer for one corpus under one fusion
/// strategy and line-size guard.
struct Oracle {
    schema: String,
    profile: String,
    records: u64,
    lines: u64,
    /// Lines that reached a parser: neither blank nor over the guard.
    parsed: u64,
    bad: Vec<Bad>,
}

impl Oracle {
    fn new(input: &[u8], arrays: ArrayFusion, cap: Option<usize>) -> Oracle {
        let cfg = FuseConfig {
            array_fusion: arrays,
        };
        let options = ParserOptions::default();
        let (mut types, mut profile) = (Vec::new(), ProfileAcc::new());
        let (mut records, mut lines, mut parsed, mut offset) = (0, 0, 0, 0);
        let mut bad = Vec::new();
        for raw in lines_of(input) {
            lines += 1;
            let mut note = |kind, start, text: &[u8]| {
                bad.push(Bad {
                    line: lines,
                    offset,
                    kind,
                    start,
                    text: String::from_utf8_lossy(text).into_owned(),
                })
            };
            let text = trim_ascii_bytes(raw);
            match cap {
                Some(cap) if raw.len() > cap => note(
                    ErrorKind::RecordTooLarge(cap),
                    Position::start(),
                    &raw[..cap],
                ),
                _ if text.is_empty() => {}
                _ => {
                    parsed += 1;
                    match Parser::with_options(text, options.clone()).parse_complete() {
                        Ok(value) => {
                            types.push(infer_type(&value));
                            profile.observe_value(lines, &value);
                            records += 1;
                        }
                        Err(e) => {
                            let start = e.span().start;
                            let lead = raw.iter().take_while(|b| b.is_ascii_whitespace()).count();
                            let start = Position {
                                offset: start.offset + lead,
                                column: start.column + lead as u32,
                                ..start
                            };
                            note(e.kind().clone(), start, text)
                        }
                    }
                }
            }
            offset += raw.len() as u64 + 1;
        }
        // The Reduce, pairwise: associativity lets it be a tree.
        while types.len() > 1 {
            let pairs = types.chunks(2).map(|pair| match pair {
                [a, b] => fuse_with(cfg, a, b),
                [a] => a.clone(),
                _ => unreachable!(),
            });
            types = pairs.collect();
        }
        let schema = types.pop().unwrap_or(Type::Bottom);
        Oracle {
            schema: schema.to_string(),
            profile: profile.finish(schema).to_json(),
            records,
            lines,
            parsed,
            bad,
        }
    }

    /// The bad records, in input order, as a driver anchored at
    /// `coords` judges them.
    fn bad_records(&self, coords: Coords, keeps_text: bool) -> Vec<BadRecord> {
        let records = self.bad.iter().map(|bad| {
            let (at, position) = match coords {
                Coords::Line => (
                    bad.line,
                    Position {
                        line: bad.line as u32,
                        ..bad.start
                    },
                ),
                Coords::Offset => (
                    bad.offset,
                    Position {
                        offset: bad.offset as usize + bad.start.offset,
                        line: 0,
                        column: bad.start.offset as u32 + 1,
                    },
                ),
            };
            BadRecord {
                at,
                error: typefuse_json::Error::at(bad.kind.clone(), position),
                text: keeps_text.then(|| bad.text.clone()),
            }
        });
        records.collect()
    }

    /// The report of the bad records: how many, and the earliest.
    fn report(&self, coords: Coords, keeps_text: bool) -> ErrorReport {
        let mut report = ErrorReport::new();
        for bad in self.bad_records(coords, keeps_text) {
            report.absorb(&bad);
        }
        report
    }

    /// The quarantine sidecar: one `{"at":…,"error":…,"text":…}` line
    /// per bad line, in input order.
    fn sidecar(&self, coords: Coords) -> String {
        let line = |bad: BadRecord| {
            let mut entry = Map::new();
            entry.insert("at", Value::from(bad.at as i64));
            entry.insert("error", Value::from(bad.error.to_string()));
            entry.insert("text", Value::from(bad.text.unwrap()));
            typefuse_json::to_string(&Value::Object(entry)) + "\n"
        };
        self.bad_records(coords, true)
            .into_iter()
            .map(line)
            .collect()
    }
}

/// The lines of an NDJSON input, without their newlines (none for an
/// empty input; a last line may lack its newline).
fn lines_of(input: &[u8]) -> impl Iterator<Item = &[u8]> {
    let body = input.strip_suffix(b"\n").unwrap_or(input);
    body.split(|&b| b == b'\n')
        .filter(move |_| !input.is_empty())
}

// ---- Corpora -----------------------------------------------------------

struct Corpus {
    name: &'static str,
    bytes: Vec<u8>,
    dir: PathBuf,
    /// The input as a file, for the splits driver.
    path: PathBuf,
    /// The guard [`Policy::Capped`] runs under.
    cap: usize,
    /// Whether this corpus starts with the fixture's lines.
    fixture: bool,
    policies: &'static [Policy],
    /// Computed when first asked for; indexed by `[array fusion][capped]`.
    oracles: [[OnceCell<Oracle>; 2]; 2],
}

impl Corpus {
    fn new(
        name: &'static str,
        bytes: Vec<u8>,
        cap: Option<usize>,
        policies: &'static [Policy],
    ) -> Corpus {
        assert!(
            bytes.ends_with(b"\n"),
            "{name}: the daemon folds whole lines"
        );
        let longest = lines_of(&bytes).map(<[u8]>::len).max().unwrap();
        let cap = cap.unwrap_or(longest - 1);
        let dir = std::env::temp_dir()
            .join(format!("typefuse-route-matrix-{}", std::process::id()))
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.ndjson");
        std::fs::write(&path, &bytes).unwrap();
        let corpus = Corpus {
            name,
            bytes,
            dir,
            path,
            cap,
            fixture: false,
            policies,
            oracles: Default::default(),
        };
        assert!(
            !corpus.oracle(ArrayFusion::Collapse, false).bad.is_empty(),
            "{name}: every policy needs a bad line to act on"
        );
        corpus
    }

    fn oracle(&self, arrays: ArrayFusion, capped: bool) -> &Oracle {
        let index = ARRAYS.iter().position(|&a| a == arrays).unwrap();
        let cap = capped.then_some(self.cap);
        self.oracles[index][usize::from(capped)]
            .get_or_init(|| Oracle::new(&self.bytes, arrays, cap))
    }

    /// Every cell of the matrix on this corpus.
    fn assert_cells_agree(&self) {
        let mut index = 0;
        for route in ROUTES {
            for dedup in DEDUPS {
                for arrays in ARRAYS {
                    for &policy in self.policies {
                        let cell = Cell {
                            corpus: self,
                            route,
                            dedup,
                            arrays,
                            policy,
                            index,
                        };
                        cell.assert_drivers_agree();
                        index += 1;
                    }
                }
            }
        }
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// `values` as NDJSON with one malformed line (four kinds in rotation,
/// one of them not UTF-8) in place of every `bad_every`th.
fn with_bad_lines(values: impl Iterator<Item = Value>, bad_every: usize) -> Vec<u8> {
    const BAD: [&[u8]; 4] = [b"{\"a\":", b"\xff\xfe", b"oops", b"[1, 2"];
    let mut bytes = Vec::new();
    for (i, value) in values.enumerate() {
        match i % bad_every == bad_every / 2 {
            true => bytes.extend_from_slice(BAD[i / bad_every % BAD.len()]),
            false => bytes.extend_from_slice(typefuse_json::to_string(&value).as_bytes()),
        }
        bytes.push(b'\n');
    }
    bytes
}

fn datagen(profile: Profile, name: &'static str, records: usize) -> Corpus {
    let values = profile.generate(seed(), records);
    let bytes = with_bad_lines(values, records / 2);
    Corpus::new(name, bytes, None, &BULK_POLICIES)
}

// ---- Cells -------------------------------------------------------------

struct Cell<'a> {
    corpus: &'a Corpus,
    route: MapPath,
    dedup: DedupMode,
    arrays: ArrayFusion,
    policy: Policy,
    index: usize,
}

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (seed {}) cell {}: {:?} dedup {:?} {:?} {:?}",
            self.corpus.name,
            seed(),
            self.index,
            self.route,
            self.dedup,
            self.arrays,
            self.policy
        )
    }
}

impl Cell<'_> {
    fn oracle(&self) -> &Oracle {
        self.corpus
            .oracle(self.arrays, self.policy == Policy::Capped)
    }

    fn drivers(&self) -> Vec<Driver> {
        // Worker counts rotate so that each policy meets each of them.
        let turn = self.index + self.index / 2;
        let [w, other] = [turn, turn + 1].map(|t| WORKERS[t % WORKERS.len()]);
        let mut drivers = vec![
            Driver::Batch(w),
            Driver::Splits(other),
            Driver::Stdin(self.dedup != DedupMode::Off),
        ];
        match self.dedup {
            // `infer.distinct_shapes` must not move with the workers.
            DedupMode::On => drivers.push(Driver::Batch(other)),
            // The profiled pass, which the CLI runs under `--dedup auto`.
            DedupMode::Auto => drivers.push(Driver::Profiled(other)),
            DedupMode::Off => {}
        }
        // A daemon per route and per policy that keeps a source folding,
        // the two routes on opposite corners of dedup × arrays, and the
        // default `auto`, which samples the leading records as batch does
        // (a restart resumes on the route the fold had taken, and samples
        // afresh if it had not yet switched).
        let corners: &[_] = match self.route {
            MapPath::Events => &[
                (DedupMode::On, ArrayFusion::PositionalWhenAligned),
                (DedupMode::Auto, ArrayFusion::Collapse),
            ],
            MapPath::Shape => &[(DedupMode::Off, ArrayFusion::Collapse)],
        };
        // The verdicts too: a daemon's source parks as `failed`.
        let daemon_policy = matches!(
            self.policy,
            Policy::Skip | Policy::Capped | Policy::FailFast | Policy::OverBudget
        );
        if daemon_policy && corners.contains(&(self.dedup, self.arrays)) {
            drivers.push(Driver::Daemon);
        }
        let fixture = self.corpus.fixture && seed() == FIXTURE_SEED;
        if fixture && self.policy == Policy::Skip && self.arrays == ArrayFusion::Collapse {
            drivers.push(Driver::Fixture);
        }
        drivers
    }

    fn assert_drivers_agree(&self) {
        let mut distinct_shapes = Vec::new();
        for driver in self.drivers() {
            let rec = Recorder::enabled();
            let got = self.run(driver, &rec);
            assert_eq!(got, self.expect(driver), "{self} {driver:?}");
            let counter = |name: &str| rec.counter_value(name);
            // The shape route answers every parsed line from its cache or
            // by typing it; a profile reads values, so it turns the cache
            // off. A run the policy stopped parsed a prefix.
            let cached = matches!(
                driver,
                Driver::Batch(_) | Driver::Splits(_) | Driver::Stdin(false)
            );
            if self.route == MapPath::Shape && cached {
                let served = counter("infer.shape_hits") + counter("infer.shape_misses");
                let parsed = self.oracle().parsed;
                match got {
                    Observed::Ran { .. } => assert_eq!(served, parsed, "{self} {driver:?}"),
                    Observed::Failed(_) => assert!(served <= parsed, "{self} {driver:?}"),
                }
            }
            if self.dedup == DedupMode::On && matches!(driver, Driver::Batch(_)) {
                if let Observed::Ran { .. } = got {
                    assert_eq!(counter("infer.dedup"), 1, "{self} {driver:?}");
                    let calls = counter("fuse.calls");
                    assert_eq!(calls, counter("fuse.cache_misses"), "{self} {driver:?}");
                    distinct_shapes.push(counter("infer.distinct_shapes"));
                }
            }
        }
        assert!(
            distinct_shapes.windows(2).all(|w| w[0] == w[1]),
            "{self}: infer.distinct_shapes varies with workers: {distinct_shapes:?}"
        );
    }

    fn job(&self, rec: &Recorder, sink: &Path) -> JobConfig {
        let bad = self.oracle().bad.len() as u64;
        let policy = match self.policy {
            Policy::FailFast => ErrorPolicy::FailFast,
            Policy::Skip => ErrorPolicy::skip(),
            Policy::Budget => ErrorPolicy::Skip {
                max_errors: Some(bad),
            },
            Policy::OverBudget => ErrorPolicy::Skip {
                max_errors: Some(bad - 1),
            },
            Policy::Quarantine | Policy::Capped => ErrorPolicy::quarantine(sink),
        };
        let config = JobConfig::new()
            .map_path(self.route)
            .dedup(self.dedup)
            .fuse_config(FuseConfig {
                array_fusion: self.arrays,
            })
            .on_error(policy)
            .recorder(rec.clone());
        match self.policy {
            Policy::Capped => config.max_line_bytes(self.corpus.cap),
            _ => config,
        }
    }

    fn scratch(&self, driver: Driver, what: &str) -> PathBuf {
        let driver = format!("{driver:?}").replace(['(', ')'], "");
        let path = self
            .corpus
            .dir
            .join(format!("{}-{driver}.{what}", self.index));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&path).ok();
        path
    }

    /// Run one driver.
    fn run(&self, driver: Driver, rec: &Recorder) -> Observed {
        let sink = self.scratch(driver, "quarantine.ndjson");
        let config = self.job(rec, &sink);
        let input = &self.corpus.bytes[..];
        let outcome = match driver {
            Driver::Batch(workers) => config
                .workers(workers)
                .build()
                .run(Source::ndjson(input))
                .map(|run| (run.schema, None, run.errors)),
            Driver::Profiled(workers) => config
                .workers(workers)
                .build()
                .run_profiled(Source::ndjson(input))
                .map(|run| (run.profile.schema.clone(), Some(run.profile), run.errors)),
            Driver::Splits(workers) => {
                let job = config.workers(workers).build();
                splits::infer_file(&self.corpus.path, &job)
                    .map(|file| (file.schema, None, file.errors))
            }
            Driver::Stdin(profile) => fold_stream(&mut &input[..], &config, profile).map(|fold| {
                let (schema, _, report, profile) = fold.finish();
                (schema, profile, report)
            }),
            Driver::Daemon => return self.serve(config, &sink),
            Driver::Fixture => return self.resume_fixture(config),
        };
        match outcome {
            Ok((schema, profile, report)) => Observed::Ran {
                schema: schema.to_string(),
                profile: profile.map(|p| p.to_json()),
                counters: COUNTERS.map(|c| (c, rec.counter_value(c))).to_vec(),
                report: Some(report),
                sidecar: read_sidecar(&sink),
            },
            Err(e) => Observed::Failed(e.to_string()),
        }
    }

    /// What the oracle says `driver` must observe.
    fn expect(&self, driver: Driver) -> Observed {
        let oracle = self.oracle();
        let coords = match driver {
            Driver::Splits(_) => Coords::Offset,
            _ => Coords::Line,
        };
        let bad = oracle.bad.len() as u64;
        let first = || oracle.report(coords, false).first().unwrap().error.clone();
        match self.policy {
            Policy::FailFast => return Observed::Failed(Error::Parse(first()).to_string()),
            Policy::OverBudget => {
                let limit = bad - 1;
                let first = Box::new(first());
                let error = Error::Budget { limit, first };
                return Observed::Failed(error.to_string());
            }
            _ => {}
        }
        let quarantined = if self.policy.quarantines() { bad } else { 0 };
        let counters = |names: &[&'static str]| {
            let value = |name| match name {
                "records" | "json.records" => oracle.records,
                "json.lines" => oracle.lines,
                "ingest.skipped" => bad,
                "ingest.quarantined" => quarantined,
                other => unreachable!("{other}"),
            };
            names.iter().map(|&name| (name, value(name))).collect()
        };
        let report = oracle.report(coords, self.policy.quarantines());
        let sidecar = self.policy.quarantines().then(|| oracle.sidecar(coords));
        let profiled = match driver {
            Driver::Batch(_) | Driver::Splits(_) | Driver::Stdin(false) => false,
            Driver::Daemon => self.route != MapPath::Shape,
            Driver::Profiled(_) | Driver::Stdin(true) | Driver::Fixture => true,
        };
        let profile = profiled.then(|| oracle.profile.clone());
        let schema = oracle.schema.clone();
        match driver {
            Driver::Daemon => Observed::Ran {
                schema,
                profile,
                counters: counters(&DAEMON_COUNTERS),
                report: None,
                sidecar,
            },
            Driver::Fixture => Observed::Ran {
                schema,
                profile,
                counters: counters(&["records"]),
                report: Some(report),
                sidecar: None,
            },
            _ => Observed::Ran {
                schema,
                profile,
                counters: counters(&COUNTERS),
                report: Some(report),
                sidecar,
            },
        }
    }

    /// The resident driver: a daemon tails the corpus as it is appended
    /// in three cuts (at line boundaries picked from the cell), is shut
    /// down after one of them and restarted from its checkpoint. A
    /// source the policy stops reports the reason it parked with.
    fn serve(&self, config: JobConfig, sink: &Path) -> Observed {
        let feed = self.scratch(Driver::Daemon, "feed.ndjson");
        let ckpt = self.scratch(Driver::Daemon, "ckpt");
        let input = &self.corpus.bytes;
        let line_ends: Vec<usize> = (0..input.len()).filter(|&i| input[i] == b'\n').collect();
        // The daemon reports records + skipped, which leaves blank lines out.
        let consumed = |end: usize| {
            let lines = lines_of(&input[..end]);
            lines
                .filter(|line| !trim_ascii_bytes(line).is_empty())
                .count() as u64
        };
        let mut state = seed() ^ self.index as u64;
        let mut pick = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut cuts = [pick(line_ends.len()), pick(line_ends.len())];
        cuts.sort_unstable();
        // Cut k ends after line `cuts[k]` (0-based); the last one is the rest.
        let cuts = [cuts[0] + 1, cuts[1] + 1, line_ends.len()];
        let restart_after = pick(2);

        // The restart resumes from the checkpoint shutdown writes; what a
        // crash between periodic ones leaves is the chaos suite's.
        let start = |recorder: &Recorder| {
            Daemon::start(
                ServeConfig::new()
                    .listen("127.0.0.1:0")
                    .poll_interval(Duration::from_millis(2))
                    .checkpoint_interval(Duration::from_millis(200))
                    .job(config.clone().recorder(recorder.clone()))
                    .watch_file("s", &feed)
                    .checkpoint_dir(&ckpt),
            )
            .unwrap()
        };
        let mut recorders = vec![Recorder::enabled()];
        let mut daemon = start(&recorders[0]);
        let mut written = 0;
        for (k, &lines) in cuts.iter().enumerate() {
            let end = line_ends[lines - 1] + 1;
            append(&feed, &input[written..end]);
            written = end;
            wait_for_lines(&daemon, consumed(end), &self.to_string());
            if k == restart_after {
                daemon.shutdown();
                recorders.push(Recorder::enabled());
                daemon = start(&recorders[1]);
            }
        }
        if let Some(reason) = parked(&daemon) {
            daemon.shutdown();
            return Observed::Failed(reason);
        }
        let mut client = Client::connect(&daemon);
        let served = client.request(r#"{"op":"schema","source":"s"}"#);
        let served = typefuse_json::Envelope::expect_kind(&served, "schema")
            .unwrap()
            .payload;
        let count = |key: &str| served.get(key).and_then(Value::as_i64).unwrap() as u64;
        let profile = (self.route != MapPath::Shape).then(|| {
            let text = client.request(r#"{"op":"profile","source":"s"}"#);
            let payload = text
                .strip_prefix(r#"{"schema_version":1,"kind":"profile","payload":"#)
                .and_then(|rest| rest.strip_suffix('}'))
                .unwrap_or_else(|| panic!("{self}: not a profile envelope: {text}"));
            payload.to_string()
        });
        daemon.shutdown();
        assert_eq!(
            recorders[1].counter_value("serve.checkpoint_resumed"),
            1,
            "{self}: the second daemon resumed from the first one's checkpoint"
        );
        let total = |name: &str| recorders.iter().map(|r| r.counter_value(name)).sum();
        let counters = DAEMON_COUNTERS.map(|name| {
            let value = match name {
                "records" => count("records"),
                "ingest.skipped" => count("skipped"),
                other => total(other),
            };
            (name, value)
        });
        Observed::Ran {
            schema: served.get("schema").and_then(Value::as_str).unwrap().into(),
            profile,
            counters: counters.to_vec(),
            report: None,
            sidecar: read_sidecar(sink),
        }
    }

    /// Restore the fold the parent commit checkpointed after
    /// [`FIXTURE_CUT`] lines and resume it over the rest of the corpus.
    /// Folding the same lines afresh must write the fixture's bytes.
    fn resume_fixture(&self, config: JobConfig) -> Observed {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/fold-twitter-60.ckpt.json");
        // `dedup` records which Reduce route the schema accumulator is on
        // (`auto` has not decided after 60 records): the one field a
        // cell may change.
        let golden = std::fs::read_to_string(path).unwrap().replace(
            r#""dedup":true"#,
            &format!(r#""dedup":{}"#, self.dedup == DedupMode::On),
        );
        // The profile has since stopped keeping its own copy of the
        // schema and the record count, the fold's own being beside it,
        // and the report keeps the earliest bad record only: a checkpoint
        // written now is the parent's without those two fields and with
        // the first of its four bad records.
        let payload = typefuse_json::parse_value(&golden).unwrap();
        let mut current = payload.as_object().unwrap().clone();
        let Some(Value::Object(profile)) = current.get_mut("profile") else {
            panic!("{self}: the fixture folds a profile")
        };
        assert!(profile.remove("schema").is_some() && profile.remove("records").is_some());
        let Some(Value::Object(report)) = current.get_mut("report") else {
            panic!("{self}: the fixture checkpoints a report")
        };
        let Some(Value::Array(records)) = report.get_mut("records") else {
            panic!("{self}: the report lists its records")
        };
        assert_eq!(records.len(), 4, "{self}: the fixture skipped four lines");
        records.truncate(1);
        let current = Value::Object(current).to_string();
        let config = config.recorder(Recorder::disabled());
        let lines: Vec<&[u8]> = lines_of(&self.corpus.bytes).collect();
        let fresh = RecordFold::new(&config, true);
        let head = fold_over(fresh.clone(), 0, &lines[..FIXTURE_CUT]);
        assert!(checkpoint(&head) == current, "{self}: the layout moved");
        let restored = fresh.restore(&payload).unwrap();
        assert!(checkpoint(&restored) == current, "{self}: restore is exact");
        let resumed = fold_over(restored, FIXTURE_CUT, &lines[FIXTURE_CUT..]);
        let (schema, records, report, profile) = resumed.finish();
        Observed::Ran {
            schema: schema.to_string(),
            profile: profile.map(|p| p.to_json()),
            counters: vec![("records", records)],
            report: Some(report),
            sidecar: None,
        }
    }
}

fn read_sidecar(path: &Path) -> Option<String> {
    let bytes = std::fs::read(path).ok()?;
    Some(String::from_utf8(bytes).expect("sidecars are UTF-8"))
}

fn fold_over(mut fold: RecordFold, first_line: usize, lines: &[&[u8]]) -> RecordFold {
    for (i, line) in lines.iter().enumerate() {
        let origin = Origin::Line((first_line + i) as u64 + 1);
        fold.absorb((origin, line, false)).unwrap();
    }
    fold
}

fn checkpoint(fold: &RecordFold) -> String {
    fold.checkpoint().to_string()
}

fn append(path: &Path, bytes: &[u8]) {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    file.write_all(bytes).unwrap();
}

/// The daemon's one source's health entry.
fn source_health(daemon: &Daemon) -> Value {
    let health = typefuse_json::Envelope::expect_kind(&daemon.health_json(), "health")
        .unwrap()
        .payload;
    health
        .get("sources")
        .and_then(|s| s.get_index(0))
        .unwrap()
        .clone()
}

/// Why the daemon's one source parked, if it did.
fn parked(daemon: &Daemon) -> Option<String> {
    let health = source_health(daemon);
    let status = health.get("status").and_then(Value::as_str).unwrap();
    status.strip_prefix("failed: ").map(str::to_string)
}

/// Wait until the daemon's one source has folded or skipped `lines`
/// lines, or parked.
fn wait_for_lines(daemon: &Daemon, lines: u64, cell: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let source = source_health(daemon);
        let count = |key: &str| source.get(key).and_then(Value::as_i64).unwrap() as u64;
        if count("records") + count("skipped") == lines || parked(daemon).is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{cell}: daemon stuck before {lines} lines"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One protocol session against a daemon.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(daemon: &Daemon) -> Client {
        let stream = TcpStream::connect(daemon.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// The raw response line (an envelope) for one request line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "daemon closed mid-request");
        response.trim().to_string()
    }
}

// ---- The corpora's tests ----------------------------------------------

#[test]
fn github_drivers_agree() {
    datagen(Profile::GitHub, "github", 48).assert_cells_agree();
}

/// The twitter corpus is the checkpoint fixture's: `records` records,
/// every 17th replaced by a cut-off one.
fn twitter(records: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, value) in Profile::Twitter.generate(seed(), records).enumerate() {
        match i % 17 {
            5 => bytes.extend_from_slice(br#"{"id": 1, "user": {"name": "#),
            _ => bytes.extend_from_slice(value.to_string().as_bytes()),
        }
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn twitter_drivers_agree() {
    let mut corpus = Corpus::new("twitter", twitter(100), None, &BULK_POLICIES);
    corpus.fixture = true;
    corpus.assert_cells_agree();
}

/// The size knob of the key-explosion corpora: they hold `KEYS` and
/// `4 * KEYS` records.
const KEYS: usize = 32;

/// One new key per record (ROADMAP item 2's cliff: the schema and the
/// profile grow a path per line) at two sizes, behind the fixture's
/// twitter lines so that every driver folds it, the resumed fixture
/// included.
#[test]
fn key_explosion_drivers_agree() {
    let base = seed() as usize % 1000 * 10_000;
    for (name, records) in [("key-explosion", KEYS), ("key-explosion-4x", 4 * KEYS)] {
        let mut bytes = twitter(FIXTURE_CUT);
        for i in base..base + records {
            bytes.extend_from_slice(format!("{{\"id\": {i}, \"k{i}\": \"v\"}}\n").as_bytes());
        }
        // Skip is the policy every driver runs under, the fixture included.
        let mut corpus = Corpus::new(name, bytes, None, &[Policy::Skip]);
        corpus.fixture = true;
        corpus.assert_cells_agree();
    }
}

#[test]
fn wikidata_drivers_agree() {
    datagen(Profile::Wikidata, "wikidata", 24).assert_cells_agree();
}

#[test]
fn nytimes_drivers_agree() {
    datagen(Profile::NYTimes, "nytimes", 60).assert_cells_agree();
}

/// Small records in three shapes with aligned positional arrays, and
/// 1 % bad lines, non-UTF-8 among them: long enough that `--dedup auto`
/// fills its 512-record sample and switches route in the middle of a
/// fold (the stream's, the daemon's, a single split's).
#[test]
fn malformed_mix_drivers_agree() {
    let shift = seed() as usize;
    let values = (0..600).map(|i| {
        let text = match (i + shift) % 3 {
            0 => format!(r#"{{"id":{i},"tags":["a","b"]}}"#),
            1 => format!(r#"{{"id":{i},"ok":true,"at":[{i},2]}}"#),
            _ => format!(r#"{{"id":"{i}","ok":null}}"#),
        };
        typefuse_json::parse_value(&text).unwrap()
    });
    let bytes = with_bad_lines(values, 100);
    Corpus::new("malformed-mix", bytes, None, &POLICIES).assert_cells_agree();
}

/// Every way a line can be malformed, beside escaped and duplicate keys.
#[test]
fn hand_list_drivers_agree() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../infer/tests/fixtures/hand_list.ndjson");
    let bytes = std::fs::read(path).unwrap();
    Corpus::new("hand-list", bytes, None, &POLICIES).assert_cells_agree();
}

/// More distinct keys than a typer's name table holds (4 096; cleared
/// when full), names reused at another depth, and keys around its
/// 256-byte cap: the table must be invisible. The fresh keys are spread
/// over 40 sub-records, so no schema record grows wider than 210 fields.
#[test]
fn name_table_drivers_agree() {
    let base = seed() as usize % 1000 * 10_000;
    let mut bytes = Vec::new();
    let mut keys = std::collections::HashSet::new();
    for i in 0..700 {
        let mut group = Map::new();
        for j in 0..12 {
            group.insert(format!("id{}", base + 12 * i + j), Value::from(j as i64));
        }
        let mut nested = Map::new();
        nested.insert(format!("id{}", base + 12 * (i % 64)), Value::from(i as i64));
        nested.insert("é", Value::Array(vec![Value::from(i as i64)]));
        if i % 7 == 0 {
            nested.insert("k".repeat(250 + i % 20), Value::Null);
        }
        let mut record = Map::new();
        record.insert(format!("g{}", i % 40), Value::Object(group.clone()));
        record.insert("nested", Value::Object(nested.clone()));
        if i % 50 == 0 {
            record.insert("x".repeat(256 + i % 3), Value::from("edge of the cap"));
        }
        for map in [&group, &nested, &record] {
            keys.extend(map.iter().map(|(key, _)| key.to_string()));
        }
        let line = match i {
            350 => "{\"nested\": {\"é\": [".to_string(),
            _ => typefuse_json::to_string(&Value::Object(record)),
        };
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    assert!(keys.len() > 8192, "only {} distinct keys", keys.len());
    // The table is the typer's: no policy but the plainest is its business.
    Corpus::new("name-table", bytes, None, &[Policy::Skip]).assert_cells_agree();
}

/// One line-front rule on every driver: blank means ASCII whitespace
/// only, non-UTF-8 bytes are the parser's to position, and an oversized
/// line reports the configured cap.
#[test]
fn line_front_drivers_agree() {
    const CAP: usize = 48;
    let lines: [&[u8]; 8] = [
        b"{\"a\":1}",
        "\u{a0}".as_bytes(),
        "\u{2028}".as_bytes(),
        b"\t \r",
        b"{\"a\":2}\xff",
        b"{\"s\":\"\xc3\x28\"}",
        b"{\"pad\":\"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\"}",
        b"  {\"b\":true}",
    ];
    let bytes = [&lines.join(&b'\n')[..], b"\n"].concat();
    let corpus = Corpus::new("line-front", bytes, Some(CAP), &POLICIES);
    // The oracle itself, pinned: what went wrong on which line.
    let capped = corpus.oracle(ArrayFusion::Collapse, true);
    let bad: Vec<(&ErrorKind, u64)> = capped.bad.iter().map(|b| (&b.kind, b.line)).collect();
    assert_eq!(
        bad,
        [
            (&ErrorKind::UnexpectedByte(0xc2), 2),
            (&ErrorKind::UnexpectedByte(0xe2), 3),
            (&ErrorKind::TrailingCharacters, 5),
            (&ErrorKind::InvalidUtf8, 6),
            (&ErrorKind::RecordTooLarge(CAP), 7),
        ],
        "blank is the `\\t \\r` line alone"
    );
    assert_eq!(
        (capped.records, &capped.schema[..]),
        (2, "{a: Num?, b: Bool?}")
    );
    corpus.assert_cells_agree();
}
