//! Golden numbers of the paper's reproduction: the deterministic columns
//! of Tables 1–8 as the `tables` harness computes them, reproduced
//! exactly.
//!
//! The fixtures were written by this test before the criterion benches
//! and `tables --dedup` / `--metrics-json` were retired
//! (`TYPEFUSE_BLESS=1 cargo test -p typefuse-bench --test
//! tables_golden`), so a refactor that moves any of these numbers —
//! Table 4's fused size, Table 1's bytes, the simulator's placement —
//! fails here. Timings are not pinned; everything below is a function
//! of the generator seed. Re-bless only when a number is *meant* to
//! change, and say why in the change log.

use std::fmt::Write;
use std::path::PathBuf;
use typefuse_bench::sim::SimReport;
use typefuse_bench::tables::{self, Scale};
use typefuse_bench::{run_scale, ScaleConfig, ScaleResult};
use typefuse_datagen::{DatasetProfile, Profile};
use typefuse_infer::{ArrayFusion, FuseConfig};

/// 1K and 10K: the two paper scales a debug build runs in seconds.
const SCALES: [Scale; 2] = [tables::DEFAULT_SCALES[0], tables::DEFAULT_SCALES[1]];

/// Simulated seconds per record for Tables 7 and 8a. The harness
/// calibrates this on the machine; the golden fixes it so the
/// simulator's output is a pure function of the placement.
const CPU_SECS_PER_RECORD: f64 = 25e-6;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("TYPEFUSE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read fixture");
    assert_eq!(expected, actual, "{name} differs from the golden file");
}

/// The six columns of Tables 2–5: # types, min, max, avg, fused size,
/// ratio.
fn type_columns(out: &mut String, table: &str, scale: Scale, r: &ScaleResult) {
    writeln!(
        out,
        "{table} {} types={} min={} max={} avg={} fused={} ratio={}",
        scale.label,
        r.distinct_types,
        r.min_size,
        r.max_size,
        r.avg_size,
        r.fused_size,
        r.compaction_ratio()
    )
    .unwrap();
}

fn sim_rows(out: &mut String, table: &str, r: &SimReport) {
    writeln!(
        out,
        "{table} makespan={} busy_nodes={} local={} remote={} utilization={}",
        r.makespan,
        r.busy_nodes(),
        r.local_tasks(),
        r.remote_tasks(),
        r.utilization()
    )
    .unwrap();
    for (node, busy) in r.node_busy.iter().enumerate() {
        writeln!(out, "{table} node {node} busy={busy}").unwrap();
    }
}

#[test]
fn table1_bytes_at_1k() {
    let mut out = String::new();
    for (profile, scale, bytes) in tables::table1(&SCALES[..1]) {
        writeln!(
            out,
            "table1 {} {} bytes={bytes}",
            profile.name(),
            scale.label
        )
        .unwrap();
    }
    check("table1.txt", &out);
}

#[test]
fn tables_2_to_5_and_the_array_ablation() {
    let mut out = String::new();
    for (table, profile) in [
        ("table2", Profile::GitHub),
        ("table3", Profile::Twitter),
        ("table4", Profile::Wikidata),
        ("table5", Profile::NYTimes),
    ] {
        for (scale, r) in tables::table_types(profile, &SCALES) {
            type_columns(&mut out, table, scale, &r);
        }
    }
    // The ablation the paper discusses in Section 2: keep aligned
    // positional arrays instead of collapsing them to `[T*]`.
    for scale in SCALES {
        let mut config = ScaleConfig::new(Profile::Twitter, scale.records);
        config.fuse_config = FuseConfig {
            array_fusion: ArrayFusion::PositionalWhenAligned,
        };
        let r = run_scale(&config);
        writeln!(
            out,
            "ablation twitter positional-when-aligned {} fused={}",
            scale.label, r.fused_size
        )
        .unwrap();
    }
    check("tables2-5.txt", &out);
}

#[test]
fn tables_7_and_8a_simulator() {
    let mut out = String::new();
    sim_rows(&mut out, "table7", &tables::table7(CPU_SECS_PER_RECORD));
    sim_rows(
        &mut out,
        "table8a",
        &tables::table8_sim(CPU_SECS_PER_RECORD),
    );
    check("tables7-8a.txt", &out);
}

#[test]
fn table8b_partitions_at_10k() {
    let mut out = String::new();
    let rows = tables::table8_local(SCALES[1].records);
    for (i, (objects, types, _time)) in rows.iter().enumerate() {
        writeln!(
            out,
            "table8b partition {} objects={objects} types={types}",
            i + 1
        )
        .unwrap();
    }
    check("table8b.txt", &out);
}
