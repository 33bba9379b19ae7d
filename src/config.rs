//! [`JobConfig`]: the one place a job setting is declared, defaulted
//! and read.
//!
//! Every driver reads its settings from a `JobConfig`: the batch
//! pipeline ([`SchemaJob`], which [`JobConfig::build`] binds to a
//! worker pool and a partition count), the byte-range splits, the stdin
//! fold, the value readers behind `check`, `stats` and `query`, and the
//! resident daemon's per-source folds. No driver keeps a copy of a
//! setting, so a knob means the same thing on every route.
//!
//! ```
//! use typefuse::prelude::*;
//! use typefuse::JobConfig;
//!
//! let job = JobConfig::new().partitions(2).build();
//! let result = job.run(Source::ndjson("{\"a\":1}\n".as_bytes())).unwrap();
//! assert_eq!(result.schema.to_string(), "{a: Num}");
//! ```

use crate::engine::Runtime;
use crate::faults::ErrorPolicy;
use crate::pipeline::{DedupMode, MapPath, SchemaJob};
use typefuse_infer::FuseConfig;
use typefuse_json::{ParserOptions, RetryPolicy};
use typefuse_obs::Recorder;

/// Declarative configuration for schema-inference work — batch or
/// resident. [`Default`] is every setting's default; `None` for
/// `workers`/`partitions` means "derive from the machine" (all cores,
/// 4 partitions per worker).
#[derive(Debug, Clone, Default)]
pub struct JobConfig {
    /// Worker threads; `None` uses every available core.
    pub workers: Option<usize>,
    /// Partitions; `None` derives 4 × workers.
    pub partitions: Option<usize>,
    /// Fusion configuration (array strategy, the paper's one setting).
    pub fuse_config: FuseConfig,
    /// Map-phase route for text sources (default: [`MapPath::Events`]).
    pub map_path: MapPath,
    /// Whether the Reduce dedups shapes (default: [`DedupMode::Auto`]).
    pub dedup: DedupMode,
    /// Collect per-record type statistics (distinct types, min/max/avg
    /// sizes — the Tables 2–5 columns; one hash-set insert per record).
    /// `None` means on; turn off for maximum throughput.
    pub type_stats: Option<bool>,
    /// Observability recorder shared by every phase of the run (disabled
    /// by default, which costs nothing).
    pub recorder: Recorder,
    /// How records that fail to parse are treated (default:
    /// [`ErrorPolicy::FailFast`]). Skipped or quarantined records
    /// surface in the driver's report; counters `ingest.skipped` and
    /// `ingest.quarantined` track them.
    pub error_policy: ErrorPolicy,
    /// Retry policy for transient I/O errors on text sources (retries
    /// count `ingest.retries`).
    pub retry: RetryPolicy,
    /// Parser options for text sources: recursion limit (`max_depth`,
    /// default 512) and duplicate-key handling.
    pub parser_options: ParserOptions,
    /// Per-line size guard for text sources: a longer line degrades into
    /// a `RecordTooLarge` parse error handled per `error_policy` instead
    /// of ballooning memory (default: no cap).
    pub max_line_bytes: Option<usize>,
    /// Fault-injection hook: panic inside the batch Map closure when it
    /// reaches this 1-based input line. Exercises worker panic isolation
    /// ([`Error::Worker`](crate::Error::Worker)) end to end; `None` in
    /// production.
    pub chaos_panic_at: Option<u32>,
}

impl JobConfig {
    /// The default configuration.
    pub fn new() -> Self {
        JobConfig::default()
    }

    /// Set the worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Set the partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = Some(partitions.max(1));
        self
    }

    /// Set the fusion configuration.
    pub fn fuse_config(mut self, cfg: FuseConfig) -> Self {
        self.fuse_config = cfg;
        self
    }

    /// Set the Map-phase route for text sources.
    pub fn map_path(mut self, path: MapPath) -> Self {
        self.map_path = path;
        self
    }

    /// Set the Reduce-phase dedup mode.
    pub fn dedup(mut self, mode: DedupMode) -> Self {
        self.dedup = mode;
        self
    }

    /// Disable per-record type statistics for maximum throughput.
    pub fn without_type_stats(mut self) -> Self {
        self.type_stats = Some(false);
        self
    }

    /// Attach an observability recorder (clones share state).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Set the error policy for records that fail to parse.
    pub fn on_error(mut self, policy: ErrorPolicy) -> Self {
        self.error_policy = policy;
        self
    }

    /// Set the retry policy for transient I/O errors on text sources.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Set the full parser options for text sources.
    pub fn parser_options(mut self, options: ParserOptions) -> Self {
        self.parser_options = options;
        self
    }

    /// Set the parser's recursion limit for text sources, at most
    /// [`ParserOptions::MAX_DEPTH_LIMIT`].
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.parser_options.max_depth = depth.min(ParserOptions::MAX_DEPTH_LIMIT);
        self
    }

    /// Cap a single input line at `cap` bytes.
    pub fn max_line_bytes(mut self, cap: usize) -> Self {
        self.max_line_bytes = Some(cap);
        self
    }

    /// Fault injection: panic in the Map phase at this 1-based input
    /// line.
    pub fn chaos_panic_at(mut self, line: u32) -> Self {
        self.chaos_panic_at = Some(line);
        self
    }

    /// Bind this configuration to the machine: a batch [`SchemaJob`]
    /// with its worker pool and partition count worked out.
    pub fn build(&self) -> SchemaJob {
        let runtime = match self.workers {
            Some(w) => Runtime::new(w),
            None => Runtime::default(),
        };
        let partitions = self.partitions.unwrap_or(runtime.workers() * 4).max(1);
        SchemaJob {
            config: self.clone(),
            runtime,
            partitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn default_build_derives_workers_and_partitions_from_the_machine() {
        let built = JobConfig::new().build();
        let workers = crate::engine::available_workers();
        assert_eq!(built.runtime.workers(), workers);
        assert_eq!(built.partitions, workers * 4);
        // The job reads every other setting from the configuration.
        assert_eq!(built.config().map_path, MapPath::Events);
        assert_eq!(built.config().dedup, DedupMode::Auto);
        assert_eq!(built.config().type_stats, None);
        assert_eq!(built.config().max_line_bytes, None);
    }

    #[test]
    fn builder_knobs_land_in_the_job() {
        let job = JobConfig::new()
            .workers(2)
            .partitions(7)
            .map_path(MapPath::Shape)
            .dedup(DedupMode::On)
            .without_type_stats()
            .max_depth(9)
            .max_line_bytes(1024)
            .chaos_panic_at(3)
            .build();
        assert_eq!(job.runtime.workers(), 2);
        assert_eq!(job.partitions, 7);
        let config = job.config();
        assert_eq!(config.map_path, MapPath::Shape);
        assert_eq!(config.dedup, DedupMode::On);
        assert_eq!(config.type_stats, Some(false));
        assert_eq!(config.parser_options.max_depth, 9);
        assert_eq!(config.max_line_bytes, Some(1024));
        assert_eq!(config.chaos_panic_at, Some(3));
    }

    #[test]
    fn one_config_drives_many_jobs() {
        let config = JobConfig::new().partitions(2);
        let a = config.build().run_values(vec![json!({"a": 1})]);
        let b = config
            .build()
            .run_ndjson("{\"a\":true}\n".as_bytes())
            .unwrap();
        assert_eq!(a.schema.to_string(), "{a: Num}");
        assert_eq!(b.schema.to_string(), "{a: Bool}");
    }
}
