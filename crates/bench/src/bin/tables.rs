//! `tables` — regenerate every table of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p typefuse-bench --bin tables            # all tables, 100K scale
//! cargo run --release -p typefuse-bench --bin tables -- --max-records 1000000
//! cargo run --release -p typefuse-bench --bin tables -- table3 table7
//! ```
//!
//! Output is the paper's table layout with our measured values; paste the
//! results into EXPERIMENTS.md next to the paper's numbers.

#![forbid(unsafe_code)]

use typefuse_bench::report::{human_count, human_duration, TextTable};
use typefuse_bench::sim::SimReport;
use typefuse_bench::tables;
use typefuse_bench::{Scale, DEFAULT_SCALES};
use typefuse_datagen::Profile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut max_records: u64 = 100_000;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--max-records" => {
                max_records = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-records needs a number"));
            }
            "--help" | "-h" => {
                eprintln!("usage: tables [--max-records N] [table1 table2 ... table8]");
                return;
            }
            t if t.starts_with("table") => wanted.push(t.to_string()),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let scales: Vec<Scale> = DEFAULT_SCALES
        .iter()
        .copied()
        .filter(|s| s.records <= max_records)
        .collect();
    if scales.is_empty() {
        die("--max-records below 1000 leaves no scales to run");
    }
    let all = wanted.is_empty();
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    println!(
        "typefuse experiment harness — scales: {}\n",
        scales
            .iter()
            .map(|s| s.label)
            .collect::<Vec<_>>()
            .join(", ")
    );

    if want("table1") {
        print_table1(&scales);
    }
    for (name, profile, paper) in [
        ("table2", Profile::GitHub, "Table 2 (GitHub)"),
        ("table3", Profile::Twitter, "Table 3 (Twitter)"),
        ("table4", Profile::Wikidata, "Table 4 (Wikidata)"),
        ("table5", Profile::NYTimes, "Table 5 (NYTimes)"),
    ] {
        if want(name) {
            print_table_types(paper, profile, &scales);
        }
    }
    if want("table6") {
        print_table6(&scales);
    }
    if want("table7") || want("table8") {
        let sample = 2_000.min(max_records).max(200);
        let cpu = tables::calibrate_cpu_cost(sample);
        println!(
            "cluster simulation calibrated at {:.1} µs/record (measured on this machine)\n",
            cpu * 1e6
        );
        if want("table7") {
            print_sim(
                "Table 7 — NYTimes on the cluster, single-node block placement",
                tables::table7(cpu),
            );
        }
        if want("table8") {
            print_sim(
                "Table 8a — same job with partitioned (spread) placement",
                tables::table8_sim(cpu),
            );
            print_table8_local(max_records.min(200_000));
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tables: {msg}");
    std::process::exit(2)
}

fn print_table1(scales: &[Scale]) {
    println!("Table 1 — (sub-)dataset sizes (synthetic profiles, serialized NDJSON)");
    let mut t = TextTable::new(
        std::iter::once("Dataset".to_string())
            .chain(scales.iter().map(|s| s.label.to_string()))
            .collect(),
    );
    let rows = tables::table1(scales);
    for profile in Profile::ALL {
        let mut cells = vec![profile.to_string()];
        for (p, _, bytes) in rows.iter().filter(|(p, _, _)| *p == profile) {
            debug_assert_eq!(*p, profile);
            cells.push(typefuse_datagen::stats::human_bytes(*bytes));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

fn print_table_types(title: &str, profile: Profile, scales: &[Scale]) {
    println!("{title} — inferred vs fused type sizes");
    let mut t = TextTable::new(vec![
        "scale",
        "# types",
        "min",
        "max",
        "avg",
        "fused size",
        "ratio",
    ]);
    for (scale, r) in tables::table_types(profile, scales) {
        t.row(vec![
            scale.label.to_string(),
            human_count(r.distinct_types as u64),
            r.min_size.to_string(),
            r.max_size.to_string(),
            format!("{:.1}", r.avg_size),
            human_count(r.fused_size as u64),
            format!("{:.2}", r.compaction_ratio()),
        ]);
    }
    println!("{}", t.render());
}

fn print_table6(scales: &[Scale]) {
    println!("Table 6 — typing execution times (this machine, all cores)");
    let mut t = TextTable::new(vec![
        "dataset",
        "scale",
        "infer (cpu)",
        "fuse (cpu)",
        "wall",
    ]);
    for (profile, scale, infer, fuse, wall) in tables::table6(scales) {
        t.row(vec![
            profile.to_string(),
            scale.label.to_string(),
            human_duration(infer),
            human_duration(fuse),
            human_duration(wall),
        ]);
    }
    println!("{}", t.render());
}

fn print_sim(title: &str, report: SimReport) {
    println!("{title}");
    println!(
        "  makespan {}   busy nodes {} of {}   local tasks {} / remote {}   utilization {:.0}%",
        human_duration(std::time::Duration::from_secs_f64(report.makespan)),
        report.busy_nodes(),
        report.node_busy.len(),
        report.local_tasks(),
        report.remote_tasks(),
        report.utilization() * 100.0,
    );
    for (node, busy) in report.node_busy.iter().enumerate() {
        let width = if report.max_node_busy() > 0.0 {
            ((busy / report.max_node_busy()) * 32.0).round() as usize
        } else {
            0
        };
        println!(
            "    node {node}  {:>9.1} core-s  {}",
            busy,
            "#".repeat(width)
        );
    }
    println!();
}

fn print_table8_local(records: u64) {
    println!(
        "Table 8b — partition-at-a-time processing measured locally ({} NYTimes records, 4 partitions)",
        human_count(records)
    );
    let rows = tables::table8_local(records);
    let mut t = TextTable::new(vec!["partition", "objects", "types", "time"]);
    for (i, (objects, types, time)) in rows.iter().enumerate() {
        t.row(vec![
            format!("partition {}", i + 1),
            human_count(*objects),
            human_count(*types as u64),
            human_duration(*time),
        ]);
    }
    println!("{}", t.render());
}
