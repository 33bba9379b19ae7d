//! [`JobConfig`]: the one builder every inference entry point shares.
//!
//! [`SchemaJob`] accreted a knob per PR — workers, partitions, map
//! route, dedup mode, error policy, retries, parser limits, chaos
//! hooks — each with its own chained setter, and every consumer
//! (`infer`, `stats`, `check`, and now the resident `serve`
//! daemon) re-plumbed the subset it knew about. `JobConfig` collapses
//! that accretion into a single declarative configuration with
//! [`Default`]: build one, hand copies to batch jobs
//! ([`JobConfig::build`]) and to warm incremental accumulators alike,
//! and every consumer honors the same options the same way.
//!
//! ```
//! use typefuse::prelude::*;
//! use typefuse::JobConfig;
//!
//! let job = JobConfig::new().partitions(2).build();
//! let result = job.run(Source::ndjson("{\"a\":1}\n".as_bytes())).unwrap();
//! assert_eq!(result.schema.to_string(), "{a: Num}");
//! ```

use crate::faults::ErrorPolicy;
use crate::pipeline::{DedupMode, MapPath, SchemaJob};
use typefuse_engine::Runtime;
use typefuse_infer::FuseConfig;
use typefuse_json::{ParserOptions, RetryPolicy};
use typefuse_obs::Recorder;

/// Declarative configuration for schema-inference work — batch or
/// resident.
///
/// Field semantics and defaults are identical to [`SchemaJob::new`];
/// `None` for `workers`/`partitions` means "derive from the machine"
/// (all cores, 4 partitions per worker).
#[derive(Debug, Clone, Default)]
pub struct JobConfig {
    /// Worker threads; `None` uses every available core.
    pub workers: Option<usize>,
    /// Partitions; `None` derives 4 × workers.
    pub partitions: Option<usize>,
    /// Fusion configuration (array strategy).
    pub fuse_config: FuseConfig,
    /// Map-phase route for text sources.
    pub map_path: MapPath,
    /// Reduce-phase shape dedup mode.
    pub dedup: DedupMode,
    /// Collect per-record type statistics (on by default; turn off for
    /// maximum throughput).
    pub type_stats: Option<bool>,
    /// Observability recorder shared by every phase.
    pub recorder: Recorder,
    /// How records that fail to parse are treated.
    pub error_policy: ErrorPolicy,
    /// Retry policy for transient I/O errors on text sources.
    pub retry: RetryPolicy,
    /// Parser options for text sources.
    pub parser_options: ParserOptions,
    /// Per-line size guard for text sources.
    pub max_line_bytes: Option<usize>,
    /// Fault-injection hook: panic in the Map phase at this input line.
    pub chaos_panic_at: Option<u32>,
}

impl JobConfig {
    /// The default configuration (same behaviour as `SchemaJob::new()`).
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

    /// Materialize a batch [`SchemaJob`] from this configuration.
    pub fn build(&self) -> SchemaJob {
        let runtime = match self.workers {
            Some(w) => Runtime::new(w),
            None => Runtime::default(),
        };
        let partitions = self.partitions.unwrap_or(runtime.workers() * 4).max(1);
        SchemaJob {
            runtime,
            partitions,
            fuse_config: self.fuse_config,
            map_path: self.map_path,
            dedup: self.dedup,
            collect_type_stats: self.type_stats.unwrap_or(true),
            recorder: self.recorder.clone(),
            error_policy: self.error_policy.clone(),
            retry: self.retry,
            parser_options: self.parser_options.clone(),
            max_line_bytes: self.max_line_bytes,
            chaos_panic_at: self.chaos_panic_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typefuse_json::json;

    #[test]
    fn default_build_matches_schema_job_new() {
        let built = JobConfig::new().build();
        let legacy = SchemaJob::new();
        assert_eq!(built.runtime.workers(), legacy.runtime.workers());
        assert_eq!(built.partitions, legacy.partitions);
        assert_eq!(built.fuse_config, legacy.fuse_config);
        assert_eq!(built.map_path, legacy.map_path);
        assert_eq!(built.dedup, legacy.dedup);
        assert_eq!(built.collect_type_stats, legacy.collect_type_stats);
        assert_eq!(built.max_line_bytes, legacy.max_line_bytes);
        assert_eq!(built.chaos_panic_at, legacy.chaos_panic_at);
    }

    #[test]
    fn builder_knobs_land_in_the_job() {
        let job = JobConfig::new()
            .workers(2)
            .partitions(7)
            .map_path(MapPath::Values)
            .dedup(DedupMode::On)
            .without_type_stats()
            .max_depth(9)
            .max_line_bytes(1024)
            .chaos_panic_at(3)
            .build();
        assert_eq!(job.runtime.workers(), 2);
        assert_eq!(job.partitions, 7);
        assert_eq!(job.map_path, MapPath::Values);
        assert_eq!(job.dedup, DedupMode::On);
        assert!(!job.collect_type_stats);
        assert_eq!(job.parser_options.max_depth, 9);
        assert_eq!(job.max_line_bytes, Some(1024));
        assert_eq!(job.chaos_panic_at, Some(3));
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
