//! One function per table of the paper's evaluation. Each returns
//! structured rows; the `tables` binary formats them and EXPERIMENTS.md
//! records them.

use crate::runner::{run_scale, ScaleConfig, ScaleResult};
use crate::sim::{simulate, ClusterSpec, Placement, SimReport, Workload};
use std::time::Duration;
use typefuse_datagen::Profile;

/// A record-count scale with its paper-style label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Paper label (`1K`, `10K`, `100K`, `1M`).
    pub label: &'static str,
    /// Number of records.
    pub records: u64,
}

/// The paper's four sub-dataset scales.
pub const DEFAULT_SCALES: [Scale; 4] = [
    Scale {
        label: "1K",
        records: 1_000,
    },
    Scale {
        label: "10K",
        records: 10_000,
    },
    Scale {
        label: "100K",
        records: 100_000,
    },
    Scale {
        label: "1M",
        records: 1_000_000,
    },
];

/// Table 1: serialized sub-dataset sizes for every profile and scale.
pub fn table1(scales: &[Scale]) -> Vec<(Profile, Scale, u64)> {
    let mut rows = Vec::new();
    for profile in Profile::ALL {
        for &scale in scales {
            let r = run_scale(&ScaleConfig::new(profile, scale.records).measure_bytes());
            rows.push((profile, scale, r.bytes));
        }
    }
    rows
}

/// Tables 2–5: distinct/min/max/avg/fused columns for one profile across
/// the scales. (Table 2 = GitHub, 3 = Twitter, 4 = Wikidata, 5 = NYTimes.)
pub fn table_types(profile: Profile, scales: &[Scale]) -> Vec<(Scale, ScaleResult)> {
    scales
        .iter()
        .map(|&scale| (scale, run_scale(&ScaleConfig::new(profile, scale.records))))
        .collect()
}

/// Table 6: inference + fusion wall-clock times for GitHub, Twitter and
/// Wikidata across the scales, single machine.
pub fn table6(scales: &[Scale]) -> Vec<(Profile, Scale, Duration, Duration, Duration)> {
    let mut rows = Vec::new();
    for profile in [Profile::GitHub, Profile::Twitter, Profile::Wikidata] {
        for &scale in scales {
            let r = run_scale(&ScaleConfig::new(profile, scale.records));
            rows.push((profile, scale, r.infer_cpu, r.fuse_cpu, r.wall));
        }
    }
    rows
}

/// The simulated NYTimes-at-22GB workload shared by Tables 7 and 8.
///
/// `cpu_secs_per_record` should come from [`calibrate_cpu_cost`] so the
/// simulated seconds reflect this machine's real inference speed.
fn nytimes_cluster_workload(placement: Placement, cpu_secs_per_record: f64) -> Workload {
    // 1.2M records / 22 GB in 128 MB blocks ⇒ 172 blocks of ~7k records.
    let blocks = 172;
    let payloads = vec![(128_000_000u64, 1_200_000 / blocks as u64); blocks];
    Workload {
        blocks: placement.place(&payloads, ClusterSpec::default().nodes),
        cpu_secs_per_record,
    }
}

/// Measure this machine's single-core cost of generate+infer+fuse per
/// NYTimes record, for honest simulated seconds.
pub fn calibrate_cpu_cost(sample: u64) -> f64 {
    let r = run_scale(
        &ScaleConfig::new(Profile::NYTimes, sample)
            .workers(1)
            .partitions(1),
    );
    (r.infer_cpu + r.fuse_cpu).as_secs_f64() / sample.max(1) as f64
}

/// Table 7: the naive single-node block placement on the 6-node cluster —
/// reproduces "the computation was performed on two nodes while the
/// remaining four were idle".
pub fn table7(cpu_secs_per_record: f64) -> SimReport {
    let spec = ClusterSpec::default();
    simulate(
        &spec,
        &nytimes_cluster_workload(
            Placement::SingleNode {
                node: 0,
                replication: 2,
            },
            cpu_secs_per_record,
        ),
    )
}

/// Table 8, simulated leg: the same job with explicitly partitioned
/// (spread) data — every node works, makespan drops.
pub fn table8_sim(cpu_secs_per_record: f64) -> SimReport {
    let spec = ClusterSpec::default();
    simulate(
        &spec,
        &nytimes_cluster_workload(
            Placement::RoundRobin { replication: 2 },
            cpu_secs_per_record,
        ),
    )
}

/// Table 8, measured leg: process an NYTimes dataset in four isolated
/// partitions on this machine (objects / distinct types / time per
/// partition, like the paper's rows), then fuse the four schemas.
pub fn table8_local(records: u64) -> Vec<(u64, usize, Duration)> {
    run_scale(&ScaleConfig::new(Profile::NYTimes, records).partitions(4)).partition_rows
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: [Scale; 2] = [
        Scale {
            label: "100",
            records: 100,
        },
        Scale {
            label: "300",
            records: 300,
        },
    ];

    #[test]
    fn table1_bytes_grow_with_scale() {
        let rows = table1(&SMALL);
        assert_eq!(rows.len(), 8);
        for pair in rows.chunks(2) {
            let (p, _, small) = pair[0];
            let (_, _, large) = pair[1];
            assert!(large > small * 2, "{p}: {small} → {large}");
        }
    }

    #[test]
    fn table_types_columns_are_consistent() {
        for profile in Profile::ALL {
            for (scale, r) in table_types(profile, &SMALL) {
                assert_eq!(r.records, scale.records);
                assert!(r.min_size <= r.max_size);
                assert!(r.avg_size >= r.min_size as f64);
                assert!(r.avg_size <= r.max_size as f64);
                assert!(r.distinct_types >= 1);
                assert!(r.fused_size >= 1);
            }
        }
    }

    #[test]
    fn table6_reports_three_profiles() {
        let rows = table6(&SMALL[..1]);
        assert_eq!(rows.len(), 3);
        for (_, _, infer, fuse, wall) in rows {
            assert!(wall >= Duration::ZERO);
            assert!(infer > Duration::ZERO);
            assert!(fuse > Duration::ZERO);
        }
    }

    #[test]
    fn table7_reproduces_idle_nodes() {
        let report = table7(25e-6);
        assert_eq!(report.busy_nodes(), 2);
        assert_eq!(report.idle_nodes(), 4);
    }

    #[test]
    fn table8_sim_uses_whole_cluster_and_is_faster() {
        let naive = table7(25e-6);
        let spread = table8_sim(25e-6);
        assert_eq!(spread.idle_nodes(), 0);
        assert!(spread.makespan < naive.makespan);
    }

    #[test]
    fn table8_local_rows() {
        let rows = table8_local(400);
        assert_eq!(rows.len(), 4);
        let total: u64 = rows.iter().map(|(n, _, _)| n).sum();
        assert_eq!(total, 400);
        for (n, distinct, _) in rows {
            assert!(distinct <= n as usize);
        }
    }

    #[test]
    fn calibration_is_positive() {
        assert!(calibrate_cpu_cost(200) > 0.0);
    }
}
