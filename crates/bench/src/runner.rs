//! The streaming experiment runner: generate → infer → fuse, partition by
//! partition, at paper scale.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use typefuse::engine::{available_workers, Runtime};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{infer_type, Acc, DedupMode, FuseConfig, SchemaAcc};
use typefuse_json::Value;
use typefuse_types::Type;

/// Configuration of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Dataset profile to generate.
    pub profile: Profile,
    /// Generator seed.
    pub seed: u64,
    /// Number of records.
    pub records: u64,
    /// Number of partitions (each processed as one streamed task).
    pub partitions: usize,
    /// Worker threads.
    pub workers: usize,
    /// Fusion configuration.
    pub fuse_config: FuseConfig,
    /// Also serialize every record to count dataset bytes (Table 1).
    /// Costs roughly as much as parsing; off for the type-statistics
    /// tables.
    pub measure_bytes: bool,
}

impl ScaleConfig {
    /// Defaults for a profile at a record count.
    pub fn new(profile: Profile, records: u64) -> Self {
        let workers = available_workers();
        ScaleConfig {
            profile,
            seed: 20170321,
            records,
            partitions: (workers * 4).max(1),
            workers,
            fuse_config: FuseConfig::default(),
            measure_bytes: false,
        }
    }

    /// Builder: set the worker count (and leave partitions to the caller).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder: set the partition count.
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions.max(1);
        self
    }

    /// Builder: measure serialized bytes too.
    pub fn measure_bytes(mut self) -> Self {
        self.measure_bytes = true;
        self
    }
}

/// Per-partition accumulator: everything Tables 2–8 need, O(1) memory in
/// the partition length (plus the distinct-hash set). An [`Acc`] over
/// generated values; merge is commutative.
#[derive(Debug, Clone)]
pub struct PartitionAcc {
    measure_bytes: bool,
    records: u64,
    bytes: u64,
    distinct_hashes: HashSet<u64>,
    min_size: usize,
    max_size: usize,
    size_sum: u64,
    schema: SchemaAcc,
    infer_time: Duration,
    fuse_time: Duration,
}

impl PartitionAcc {
    /// The empty accumulator of a run under `config`.
    pub fn empty(config: &ScaleConfig) -> Self {
        PartitionAcc {
            measure_bytes: config.measure_bytes,
            records: 0,
            bytes: 0,
            distinct_hashes: HashSet::new(),
            min_size: usize::MAX,
            max_size: 0,
            size_sum: 0,
            schema: SchemaAcc::new(DedupMode::Off, config.fuse_config),
            infer_time: Duration::ZERO,
            fuse_time: Duration::ZERO,
        }
    }

    /// This state as the result of a run: its Tables 2–5 columns and CPU
    /// times, with no wall time or partition rows.
    pub fn result(&self) -> ScaleResult {
        let schema = self.schema.schema();
        ScaleResult {
            records: self.records,
            bytes: self.bytes,
            distinct_types: self.distinct_hashes.len(),
            min_size: if self.records > 0 { self.min_size } else { 0 },
            max_size: self.max_size,
            avg_size: self.size_sum as f64 / self.records.max(1) as f64,
            fused_size: schema.size(),
            schema,
            infer_cpu: self.infer_time,
            fuse_cpu: self.fuse_time,
            wall: Duration::ZERO,
            partition_rows: Vec::new(),
        }
    }
}

impl Acc for PartitionAcc {
    type Item<'a> = &'a Value;
    type Outcome = ();

    fn absorb(&mut self, value: &Value) {
        if self.measure_bytes {
            self.bytes += typefuse_json::to_string(value).len() as u64 + 1;
        }
        let t0 = Instant::now();
        let ty = infer_type(value);
        self.infer_time += t0.elapsed();

        let size = ty.size();
        self.min_size = self.min_size.min(size);
        self.max_size = self.max_size.max(size);
        self.size_sum += size as u64;
        self.distinct_hashes.insert(type_hash(&ty));
        self.records += 1;

        let t1 = Instant::now();
        self.schema.absorb(&ty);
        self.fuse_time += t1.elapsed();
    }

    /// Distinct sets union, min/max/sum fold, schemas fuse (the cheap
    /// final step the paper highlights, timed into `fuse_time`).
    fn merge(&mut self, other: &PartitionAcc) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.min_size = self.min_size.min(other.min_size);
        self.max_size = self.max_size.max(other.max_size);
        self.size_sum += other.size_sum;
        self.distinct_hashes.extend(&other.distinct_hashes);
        self.infer_time += other.infer_time;
        self.fuse_time += other.fuse_time;
        let t = Instant::now();
        self.schema.merge(&other.schema);
        self.fuse_time += t.elapsed();
    }
}

/// The outcome of a scale run — one row of Tables 2–5 plus the timing
/// columns of Table 6 and the byte column of Table 1.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Records processed.
    pub records: u64,
    /// Serialized dataset size in bytes (0 unless `measure_bytes`).
    pub bytes: u64,
    /// Number of distinct inferred types (hash-based, collision odds
    /// ≈ n²/2⁶⁴ — irrelevant at 10⁶ records).
    pub distinct_types: usize,
    /// Minimum inferred type size.
    pub min_size: usize,
    /// Maximum inferred type size.
    pub max_size: usize,
    /// Mean inferred type size.
    pub avg_size: f64,
    /// Size of the fused type.
    pub fused_size: usize,
    /// The fused schema itself.
    pub schema: Type,
    /// CPU time spent generating + inferring (summed over partitions).
    pub infer_cpu: Duration,
    /// CPU time spent fusing (summed over partitions).
    pub fuse_cpu: Duration,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-partition `(records, distinct, wall)` — the Table 8 rows.
    pub partition_rows: Vec<(u64, usize, Duration)>,
}

impl ScaleResult {
    /// Fused size over average inferred size — the paper's succinctness
    /// ratio.
    pub fn compaction_ratio(&self) -> f64 {
        if self.avg_size == 0.0 {
            0.0
        } else {
            self.fused_size as f64 / self.avg_size
        }
    }
}

fn type_hash(t: &Type) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Run one experiment: stream `records` records of `profile` through
/// inference and fusion across `partitions` parallel partitions.
pub fn run_scale(config: &ScaleConfig) -> ScaleResult {
    let runtime = Runtime::new(config.workers);
    let wall_start = Instant::now();

    // Partition index ranges (contiguous, like HDFS splits).
    let per_part = config.records / config.partitions as u64;
    let remainder = config.records % config.partitions as u64;
    let ranges: Vec<(u64, u64)> = (0..config.partitions as u64)
        .map(|p| {
            let extra = p.min(remainder);
            let start = p * per_part + extra;
            let len = per_part + u64::from(p < remainder);
            (start, start + len)
        })
        .collect();

    let (accs, _) = runtime.run_indexed(&ranges, |_, &(start, end)| {
        let mut acc = PartitionAcc::empty(config);
        for index in start..end {
            acc.absorb(&config.profile.record(config.seed, index));
        }
        acc
    });

    // Per-partition rows before merging (Table 8).
    let partition_rows: Vec<(u64, usize, Duration)> = accs
        .iter()
        .map(|a| {
            (
                a.records,
                a.distinct_hashes.len(),
                a.infer_time + a.fuse_time,
            )
        })
        .collect();

    let mut merged = PartitionAcc::empty(config);
    accs.iter().for_each(|acc| merged.merge(acc));

    let totals = merged.result();
    ScaleResult {
        wall: wall_start.elapsed(),
        partition_rows,
        ..totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_materialised_pipeline() {
        let n = 300u64;
        let streamed = run_scale(&ScaleConfig::new(Profile::Twitter, n).partitions(4));
        let values: Vec<_> = Profile::Twitter.generate(20170321, n as usize).collect();
        let materialised = typefuse::JobConfig::new().build().run_values(values);
        assert_eq!(streamed.schema, materialised.schema);
        assert_eq!(streamed.records, n);
        assert_eq!(streamed.distinct_types, materialised.type_stats.distinct);
        assert_eq!(streamed.min_size, materialised.type_stats.min_size);
        assert_eq!(streamed.max_size, materialised.type_stats.max_size);
        assert!((streamed.avg_size - materialised.type_stats.avg_size).abs() < 1e-9);
    }

    #[test]
    fn event_route_matches_value_route() {
        // The runner infers the generated trees; the pipeline's default
        // route types the same records from their NDJSON text.
        for profile in [Profile::GitHub, Profile::NYTimes] {
            let config = ScaleConfig::new(profile, 150).partitions(5).measure_bytes();
            let via_values = run_scale(&config);
            let values: Vec<_> = profile.generate(config.seed, 150).collect();
            let mut text = Vec::new();
            typefuse_json::ndjson::write_ndjson(&mut text, &values).unwrap();
            let via_events = typefuse::JobConfig::new()
                .build()
                .run_ndjson(&text[..])
                .unwrap();
            assert_eq!(via_events.schema, via_values.schema, "{profile}");
            assert_eq!(via_events.type_stats.distinct, via_values.distinct_types);
            assert_eq!(via_events.records, via_values.records);
            assert_eq!(text.len() as u64, via_values.bytes);
        }
    }

    #[test]
    fn partition_rows_sum_to_total() {
        let r = run_scale(&ScaleConfig::new(Profile::GitHub, 100).partitions(7));
        assert_eq!(r.partition_rows.len(), 7);
        let total: u64 = r.partition_rows.iter().map(|(n, _, _)| n).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn bytes_only_when_requested() {
        let without = run_scale(&ScaleConfig::new(Profile::GitHub, 20));
        assert_eq!(without.bytes, 0);
        let with = run_scale(&ScaleConfig::new(Profile::GitHub, 20).measure_bytes());
        assert!(with.bytes > 10_000, "bytes = {}", with.bytes);
    }

    #[test]
    fn zero_records() {
        let r = run_scale(&ScaleConfig::new(Profile::NYTimes, 0));
        assert_eq!(r.records, 0);
        assert_eq!(r.fused_size, 1, "ε has size 1");
        assert_eq!(r.distinct_types, 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let a = run_scale(
            &ScaleConfig::new(Profile::Wikidata, 120)
                .workers(1)
                .partitions(6),
        );
        let b = run_scale(
            &ScaleConfig::new(Profile::Wikidata, 120)
                .workers(4)
                .partitions(6),
        );
        assert_eq!(a.schema, b.schema);
        assert_eq!(a.distinct_types, b.distinct_types);
    }

    #[test]
    fn uneven_partitioning_covers_every_record() {
        // 10 records over 3 partitions: 4+3+3.
        let r = run_scale(&ScaleConfig::new(Profile::GitHub, 10).partitions(3));
        let sizes: Vec<u64> = r.partition_rows.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }
}
