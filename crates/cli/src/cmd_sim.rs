//! `typefuse sim` — the cluster-placement experiment from Section 6.2.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse_engine::sim::{simulate, ClusterSpec, LocalityPolicy, Placement, Workload};

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let placement_name = args
        .option("--placement")?
        .unwrap_or_else(|| "single".to_string());
    let blocks: usize = args.parsed_option("--blocks")?.unwrap_or(176);
    let block_mb: u64 = args.parsed_option("--block-mb")?.unwrap_or(128);
    let records_per_block: u64 = args.parsed_option("--records-per-block")?.unwrap_or(7000);
    let relaxed = args.flag("--relaxed");
    args.finish()?;

    let placement = match placement_name.as_str() {
        "single" => Placement::SingleNode {
            node: 0,
            replication: 2,
        },
        "spread" => Placement::RoundRobin { replication: 2 },
        other => {
            return Err(CliError::usage(format!(
                "unknown placement `{other}` (expected single or spread)"
            )))
        }
    };

    let spec = ClusterSpec {
        locality: if relaxed {
            LocalityPolicy::Relaxed
        } else {
            LocalityPolicy::Strict
        },
        ..ClusterSpec::default()
    };
    let payloads = vec![(block_mb * 1_000_000, records_per_block); blocks];
    let workload = Workload {
        blocks: placement.place(&payloads, spec.nodes),
        cpu_secs_per_record: 25e-6,
    };
    let report = simulate(&spec, &workload);

    println!(
        "cluster      {} nodes x {} cores, placement {placement_name}, locality {:?}",
        spec.nodes, spec.cores_per_node, spec.locality
    );
    println!(
        "workload     {} blocks x {} MB, {} records/block",
        blocks, block_mb, records_per_block
    );
    println!(
        "makespan     {:.1} s ({:.2} min)",
        report.makespan,
        report.makespan / 60.0
    );
    println!(
        "locality     {} local / {} remote tasks",
        report.local_tasks(),
        report.remote_tasks()
    );
    println!(
        "busy nodes   {} of {} ({} idle)",
        report.busy_nodes(),
        spec.nodes,
        report.idle_nodes()
    );
    println!("utilization  {:.1}%", report.utilization() * 100.0);
    for (node, busy) in report.node_busy.iter().enumerate() {
        let bar_len = if report.makespan > 0.0 {
            ((busy / report.makespan) * 40.0).round() as usize
        } else {
            0
        };
        println!(
            "  node {node}  {:>8.1} s  {}",
            busy,
            "#".repeat(bar_len.min(60))
        );
    }
    Ok(())
}
