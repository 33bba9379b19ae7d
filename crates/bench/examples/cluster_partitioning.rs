//! The cluster experiment of Section 6.2 (Tables 7 and 8), on the
//! deterministic cluster simulator.
//!
//! The paper loaded 22 GB of NYTimes data into HDFS from one machine;
//! all blocks landed on one node, "the computation was performed on two
//! nodes while the remaining four nodes were idle". Explicitly
//! partitioning the input restored locality and brought processing to
//! ~2.85 minutes per 300k-record partition.
//!
//! ```sh
//! cargo run -p typefuse-bench --example cluster_partitioning
//! ```

use typefuse::prelude::*;
use typefuse_bench::sim::{simulate, ClusterSpec, Placement, SimReport, Workload};

fn main() {
    // Calibrate the CPU cost of infer+fuse from a real local run over the
    // NYTimes profile, so the simulation speaks in honest seconds.
    let sample: Vec<Value> = Profile::NYTimes.generate(1, 2000).collect();
    let t0 = std::time::Instant::now();
    let result = JobConfig::new()
        .workers(1)
        .without_type_stats()
        .build()
        .run_values(sample);
    let cpu_secs_per_record = t0.elapsed().as_secs_f64() / result.records as f64;
    println!(
        "calibration: {:.1} µs per record (single-core infer+fuse)",
        cpu_secs_per_record * 1e6
    );

    // The paper's job: ~1.2M records / 22 GB in 128 MB HDFS blocks.
    let blocks = 176;
    let payloads = vec![(128_000_000u64, 1_200_000 / blocks as u64); blocks];
    let spec = ClusterSpec::default(); // 6 nodes x 20 cores, strict locality

    // ---- Naive load: every block on the ingestion node ------------------
    let naive = Workload {
        blocks: Placement::SingleNode {
            node: 0,
            replication: 2,
        }
        .place(&payloads, spec.nodes),
        cpu_secs_per_record,
    };
    let naive_report = simulate(&spec, &naive);
    println!("\n=== single-node block placement (the paper's Table 7 situation) ===");
    print_report(&naive_report, &spec);

    // ---- Manual partitioning: blocks spread over the cluster ------------
    let spread = Workload {
        blocks: Placement::RoundRobin { replication: 2 }.place(&payloads, spec.nodes),
        cpu_secs_per_record,
    };
    let spread_report = simulate(&spec, &spread);
    println!("\n=== partitioned placement (the paper's Table 8 strategy) ===");
    print_report(&spread_report, &spec);

    println!(
        "\npartitioning speeds the job up {:.1}x — \"this simple yet effective optimization \
         is possible thanks to the associativity of our fusion process\"",
        naive_report.makespan / spread_report.makespan
    );

    // The final step of the paper's strategy: fuse the per-partition
    // schemas. This is cheap because each schema is tiny.
    let per_partition: Vec<Type> = (0..4u64)
        .map(|p| {
            let part: Vec<Value> = Profile::NYTimes.generate(100 + p, 500).collect();
            JobConfig::new()
                .without_type_stats()
                .build()
                .run_values(part)
                .schema
        })
        .collect();
    let t0 = std::time::Instant::now();
    let global = typefuse::infer::fuse_all(&per_partition);
    println!(
        "fusing the 4 per-partition schemas took {:.2} ms and produced a schema of size {}",
        t0.elapsed().as_secs_f64() * 1e3,
        global.size()
    );
}

fn print_report(report: &SimReport, spec: &ClusterSpec) {
    println!(
        "makespan {:>7.1} s ({:.2} min)   busy nodes {} of {}   utilization {:.0}%",
        report.makespan,
        report.makespan / 60.0,
        report.busy_nodes(),
        spec.nodes,
        report.utilization() * 100.0
    );
    for (node, busy) in report.node_busy.iter().enumerate() {
        let width = if report.max_node_busy() > 0.0 {
            ((busy / report.max_node_busy()) * 40.0).round() as usize
        } else {
            0
        };
        println!("  node {node}: {:>8.1} core-s  {}", busy, "#".repeat(width));
    }
}
