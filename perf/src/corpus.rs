//! Workload definitions and the corpus materialiser: generate the lines
//! from the seed, inject the dirty ones, write the file, compute the
//! oracle and warm the page cache. The product only ever sees the files.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use typefuse::datagen::{DatasetProfile, Profile};
use typefuse::infer::{fuse, infer_type};
use typefuse::json::parse_value;
use typefuse::obs::JsonWriter;
use typefuse::types::Type;

/// Length of one paced serve phase at scale 1, milliseconds.
pub const PACED_MS: usize = 2_000;

enum Generator {
    Profile(Profile),
    Logs,
}

/// One workload: a corpus on disk plus the serve traffic sizes. All
/// counts are lines at scale 1 (`--seconds 20`) and scale together.
pub struct Workload {
    pub name: &'static str,
    generator: Generator,
    /// Lines in the corpus; the memory repetitions of phase (a) read
    /// all of them.
    pub lines: usize,
    /// Leading lines the timed repetitions of phase (a) read.
    pub slice: usize,
    /// Leading lines a fresh daemon catches up on (phase b).
    pub prefix: usize,
    /// Leading lines the traced run passes through every layer.
    pub layers: usize,
    /// Lines per appended batch in a paced phase (phase c).
    pub per_batch: usize,
    /// Milliseconds between two batches' due times.
    pub batch_ms: usize,
    /// Inject 1 % malformed lines and run with `--on-error skip`.
    pub dirty: bool,
}

/// The four workloads; BENCHMARK.json and README.md say why each exists.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "github",
        generator: Generator::Profile(Profile::GitHub),
        lines: 10_000,
        slice: 3_000,
        prefix: 1_500,
        layers: 8_000,
        per_batch: 15,
        batch_ms: 10,
        dirty: false,
    },
    Workload {
        name: "wikidata",
        generator: Generator::Profile(Profile::Wikidata),
        lines: 3_000,
        slice: 800,
        prefix: 300,
        layers: 600,
        per_batch: 1,
        batch_ms: 20,
        dirty: false,
    },
    Workload {
        name: "twitter-dirty",
        generator: Generator::Profile(Profile::Twitter),
        lines: 10_000,
        slice: 3_000,
        prefix: 2_000,
        layers: 8_000,
        per_batch: 15,
        batch_ms: 10,
        dirty: true,
    },
    Workload {
        name: "logs-small",
        generator: Generator::Logs,
        lines: 100_000,
        slice: 40_000,
        prefix: 30_000,
        layers: 80_000,
        per_batch: 150,
        batch_ms: 10,
        dirty: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's sizes at one scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub lines: usize,
    pub slice: usize,
    pub prefix: usize,
    pub layers: usize,
    pub per_batch: usize,
    pub batches: usize,
    pub batch_ms: usize,
}

impl Sizes {
    /// Lines in the served file once the paced phase has ended.
    pub fn served(&self) -> usize {
        self.prefix + self.per_batch * self.batches
    }
}

impl Workload {
    pub fn sizes(&self, scale: f64) -> Sizes {
        let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        let prefix = scaled(self.prefix);
        let per_batch = self.per_batch;
        let batches = scaled(PACED_MS / self.batch_ms);
        Sizes {
            // Scaling never leaves the paced phases short of lines, the
            // traced run's double-length one included.
            lines: scaled(self.lines).max(prefix + per_batch * batches * 2),
            slice: scaled(self.slice),
            prefix,
            layers: scaled(self.layers),
            per_batch,
            batches,
            batch_ms: self.batch_ms,
        }
    }
}

/// SplitMix64: the harness's own generator for log events and dirty-line
/// positions, so corpora depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn log_event(rng: &mut Rng, index: u64, out: &mut Vec<u8>) {
    const LEVELS: [&str; 4] = ["debug", "info", "warn", "error"];
    const SERVICES: [&str; 6] = ["auth", "billing", "search", "ingest", "api", "mailer"];
    const TAGS: [&str; 5] = ["canary", "retry", "eu", "batch", "slow"];
    let ts = 1_700_000_000_000 + index * 7 + rng.below(7);
    let level = LEVELS[rng.below(4) as usize];
    let svc = SERVICES[rng.below(6) as usize];
    write!(out, r#"{{"ts":{ts},"level":"{level}","svc":"{svc}","ms":"#).expect("write to Vec");
    if rng.below(10) == 0 {
        out.extend_from_slice(b"null");
    } else {
        write!(out, "{}", rng.below(900)).expect("write to Vec");
    }
    if rng.below(5) == 0 {
        let code = 400 + rng.below(200);
        write!(
            out,
            r#","err":{{"code":{code},"msg":"upstream {svc} failed"}}"#
        )
        .expect("write to Vec");
    }
    if rng.below(10) == 0 {
        out.extend_from_slice(br#","tags":["#);
        for i in 0..rng.below(4) {
            if i > 0 {
                out.push(b',');
            }
            write!(out, r#""{}""#, TAGS[rng.below(5) as usize]).expect("write to Vec");
        }
        out.push(b']');
    }
    out.push(b'}');
}

/// The four malformed-line kinds, in the rotation they are injected.
const BAD_KINDS: [&str; 4] = ["truncated", "stray-byte", "bare-word", "unbalanced"];

/// Turn the well-formed record in `line` into a malformed line.
fn spoil(kind: &str, line: &mut Vec<u8>) {
    match kind {
        "truncated" => line.truncate(line.len() / 2),
        // Not UTF-8, and not JSON either.
        "stray-byte" => line[1] = 0xFF,
        "bare-word" => *line = b"oops".to_vec(),
        "unbalanced" => *line.last_mut().expect("non-empty record") = b']',
        other => unreachable!("unknown bad-line kind {other}"),
    }
}

/// The reference computation, with the paper's literal operators: `fuse`
/// over `infer_type(parse_value(line))`. Types are combined as a
/// balanced tree — a different association order from any product route,
/// which Theorem 5.5 says cannot matter — so a 200 KB running schema is
/// not re-fused once per record.
#[derive(Default)]
struct TreeFuse {
    /// `(height, fused type)` of complete subtrees, heights descending.
    stack: Vec<(u32, Type)>,
}

impl TreeFuse {
    fn push(&mut self, mut ty: Type) {
        let mut height = 0;
        while matches!(self.stack.last(), Some((h, _)) if *h == height) {
            let (_, left) = self.stack.pop().expect("matched above");
            ty = fuse(&left, &ty);
            height += 1;
        }
        self.stack.push((height, ty));
    }

    fn total(&self) -> Type {
        self.stack
            .iter()
            .rev()
            .map(|(_, ty)| ty.clone())
            .reduce(|right, left| fuse(&left, &right))
            .unwrap_or(Type::Bottom)
    }
}

/// Seconds one materialisation took; the spans carry the breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTiming {
    /// Generating the lines.
    pub generate_s: f64,
    /// Generate + write + oracle + warm read.
    pub total_s: f64,
}

/// A materialised corpus.
pub struct Corpus {
    /// The workload's scratch directory (`perf/work/<workload>`).
    pub dir: PathBuf,
    /// The corpus file.
    pub path: PathBuf,
    pub data: Vec<u8>,
    /// Offset just past the newline of each line.
    line_ends: Vec<usize>,
    /// 0-based line numbers of the injected malformed lines, ascending.
    injected: Vec<usize>,
    /// Line count → printed schema of the first that many lines.
    oracle: BTreeMap<usize, String>,
    /// Sampled `admits` checks of the oracle schema: `(made, failed)`.
    pub admits: (u64, u64),
    pub timing: SetupTiming,
}

impl Corpus {
    pub fn lines(&self) -> usize {
        self.line_ends.len()
    }

    /// The bytes of lines `from..to`.
    pub fn line_range(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 {
            0
        } else {
            self.line_ends[from - 1]
        };
        let end = if to == 0 { 0 } else { self.line_ends[to - 1] };
        &self.data[start..end]
    }

    /// Malformed lines among the first `lines` lines.
    pub fn injected_before(&self, lines: usize) -> u64 {
        self.injected.partition_point(|&l| l < lines) as u64
    }

    /// The printed schema of the first `lines` lines; `lines` must have
    /// been a boundary given to [`materialise`] (or the whole corpus).
    pub fn oracle_at(&self, lines: usize) -> &str {
        &self.oracle[&lines]
    }
}

/// Generate, write, check and warm one corpus. Deterministic in
/// `(workload, seed, scale)`; `boundaries` are the line counts (besides
/// the whole corpus) whose prefix schema the run will compare against.
pub fn materialise(
    workload: &Workload,
    seed: u64,
    scale: f64,
    dir: &Path,
    boundaries: &[usize],
    tracer: &mut Tracer,
) -> io::Result<Corpus> {
    let lines = workload.sizes(scale).lines;
    let mut timing = SetupTiming::default();

    let ((data, line_ends, injected), took) = tracer.span("datagen", |_| {
        let mut rng = Rng(seed ^ 0x7065_7266);
        let mut data = Vec::new();
        let mut line_ends = Vec::with_capacity(lines);
        let mut injected = Vec::new();
        let mut line = Vec::new();
        for index in 0..lines {
            line.clear();
            match &workload.generator {
                Generator::Profile(p) => {
                    write!(line, "{}", p.record(seed, index as u64)).expect("write to Vec")
                }
                Generator::Logs => log_event(&mut rng, index as u64, &mut line),
            }
            if workload.dirty && rng.below(100) == 0 {
                spoil(BAD_KINDS[injected.len() % BAD_KINDS.len()], &mut line);
                injected.push(index);
            }
            data.extend_from_slice(&line);
            data.push(b'\n');
            line_ends.push(data.len());
        }
        (data, line_ends, injected)
    });
    timing.generate_s = took.as_secs_f64();
    timing.total_s = timing.generate_s;

    let path = dir.join("corpus.ndjson");
    let (written, took) = tracer.span("setup.write", |_| -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, &data)?;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workload");
        w.string(workload.name);
        w.key("seed");
        w.number(seed);
        w.key("scale");
        w.float(scale);
        w.key("lines");
        w.number(lines as u64);
        w.key("bytes");
        w.number(data.len() as u64);
        w.key("injected");
        w.begin_array();
        for (n, line) in injected.iter().enumerate() {
            w.begin_object();
            w.key("line");
            w.number(*line as u64 + 1);
            w.key("kind");
            w.string(BAD_KINDS[n % BAD_KINDS.len()]);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        std::fs::write(dir.join("manifest.json"), w.finish())
    });
    written?;
    timing.total_s += took.as_secs_f64();

    let mut corpus = Corpus {
        dir: dir.to_path_buf(),
        path,
        data,
        line_ends,
        injected,
        oracle: BTreeMap::new(),
        admits: (0, 0),
        timing,
    };

    let (result, took) = tracer.span("setup.oracle", |_| run_oracle(&corpus, boundaries));
    let (oracle, admits) = result.map_err(io::Error::other)?;
    corpus.oracle = oracle;
    corpus.admits = admits;
    corpus.timing.total_s += took.as_secs_f64();

    let (read, took) = tracer.span("setup.warm", |_| std::fs::read(&corpus.path));
    if read?.len() != corpus.data.len() {
        return Err(io::Error::other("corpus file changed while warming it"));
    }
    corpus.timing.total_s += took.as_secs_f64();
    Ok(corpus)
}

type Oracle = (BTreeMap<usize, String>, (u64, u64));

/// Fold every non-injected line with the paper's operators, printing the
/// schema at each boundary, then check that the final schema admits
/// every 100th record (Theorem 5.2).
fn run_oracle(corpus: &Corpus, boundaries: &[usize]) -> Result<Oracle, String> {
    let parse = |line: usize| {
        let bytes = corpus.line_range(line, line + 1);
        let text = std::str::from_utf8(bytes).map_err(|e| format!("line {}: {e}", line + 1))?;
        parse_value(text.trim_end()).map_err(|e| format!("line {}: {e}", line + 1))
    };
    let good = |line: &usize| corpus.injected.binary_search(line).is_err();

    let mut tree = TreeFuse::default();
    let mut oracle = BTreeMap::new();
    for line in (0..corpus.lines()).filter(good) {
        // A boundary counts lines, so it is reached just before the
        // first good line at or past it is folded.
        for b in boundaries.iter().filter(|&&b| b <= line) {
            oracle.entry(*b).or_insert_with(|| tree.total().to_string());
        }
        tree.push(infer_type(&parse(line)?));
    }
    let schema = tree.total();
    for b in boundaries {
        oracle.entry(*b).or_insert_with(|| schema.to_string());
    }
    oracle.insert(corpus.lines(), schema.to_string());

    let mut admits = (0, 0);
    for line in (0..corpus.lines()).filter(good).step_by(100) {
        admits.0 += 1;
        if !schema.admits(&parse(line)?) {
            admits.1 += 1;
        }
    }
    Ok((oracle, admits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_together_and_always_cover_the_paced_phase() {
        for w in &WORKLOADS {
            for scale in [1.0, 0.05, 2.0] {
                let s = w.sizes(scale);
                assert!(s.served() <= s.lines, "{} at {scale}", w.name);
                assert!(s.slice <= s.lines && s.layers <= s.lines);
                assert!(s.prefix >= 1 && s.batches >= 1);
            }
        }
        let s = workload("github").unwrap().sizes(1.0);
        assert_eq!(
            (s.lines, s.slice, s.prefix, s.per_batch, s.batches),
            (10_000, 3_000, 1_500, 15, 200)
        );
    }

    #[test]
    fn log_events_are_json_objects_of_a_few_shapes() {
        let mut rng = Rng(1);
        let mut shapes = std::collections::BTreeSet::new();
        for i in 0..2_000 {
            let mut line = Vec::new();
            log_event(&mut rng, i, &mut line);
            let value = parse_value(std::str::from_utf8(&line).unwrap()).unwrap();
            shapes.insert(infer_type(&value).to_string());
        }
        assert!(
            shapes.len() > 4 && shapes.len() <= 20,
            "{} shapes",
            shapes.len()
        );
    }

    #[test]
    fn every_spoiled_line_is_malformed() {
        let good = br#"{"delete":{"status":{"id":1}}}"#;
        for kind in BAD_KINDS {
            let mut line = good.to_vec();
            spoil(kind, &mut line);
            let parsed = std::str::from_utf8(&line).map(parse_value);
            assert!(!matches!(parsed, Ok(Ok(_))), "{kind} still parses");
        }
    }

    #[test]
    fn tree_fuse_equals_the_left_fold() {
        let types: Vec<Type> = [
            r#"{"a":1}"#,
            r#"{"a":"x","b":null}"#,
            r#"{"c":[1]}"#,
            "[]",
            "3",
        ]
        .iter()
        .map(|text| infer_type(&parse_value(text).unwrap()))
        .collect();
        for n in 0..=types.len() {
            let mut tree = TreeFuse::default();
            types[..n].iter().for_each(|t| tree.push(t.clone()));
            let fold = types[..n].iter().fold(Type::Bottom, |acc, t| fuse(&acc, t));
            assert_eq!(tree.total().to_string(), fold.to_string(), "first {n}");
        }
    }

    #[test]
    fn materialise_is_deterministic_and_records_what_it_injected() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{}", std::process::id()));
        let w = workload("twitter-dirty").unwrap();
        let mut tracer = Tracer::new("test");
        let a = materialise(w, 3, 0.05, &dir, &[400], &mut tracer).unwrap();
        let b = materialise(w, 3, 0.05, &dir, &[400], &mut tracer).unwrap();
        let c = materialise(w, 4, 0.05, &dir, &[400], &mut tracer).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
        assert_eq!(a.lines(), 500);
        assert!(a.injected_before(a.lines()) > 0);
        assert_eq!(a.injected_before(0), 0);
        assert_eq!(a.admits.1, 0);
        assert_ne!(a.oracle_at(400), "ε");
        assert_eq!(a.line_range(0, a.lines()), &a.data[..]);
    }
}
