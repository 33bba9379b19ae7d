//! Dataset exploration: the paper's motivating scenario (Section 1).
//!
//! You receive a large, undocumented NDJSON feed (here: the synthetic
//! NYTimes profile). Before writing a single query you want to know:
//! (i) every field that can occur, (ii) which are optional, (iii) which
//! are always there — without scanning the data by hand.
//!
//! ```sh
//! cargo run --example log_exploration
//! ```

use typefuse::prelude::*;

fn main() {
    // An "unknown" feed of 3000 article-metadata records.
    let feed: Vec<Value> = Profile::NYTimes.generate(2024, 3000).collect();

    // One pass: fused schema + per-path presence statistics (the
    // statistical enrichment sketched in the paper's future work).
    let profile = JobConfig::new()
        .build()
        .run_profiled(Source::values(feed.clone()))
        .expect("in-memory sources cannot fail")
        .profile;
    let total = profile.records;
    let rows = profile.field_rows();

    println!("=== fused schema ({total} records) ===");
    println!("{}", typefuse::types::print::pretty(&profile.schema));

    // Property (iii): fields that can always be selected — present in
    // every record (rows of equal count come in path order).
    println!("\n=== always-present paths (safe to SELECT) ===");
    for (path, _) in rows.iter().filter(|(_, p)| p.count == total).take(15) {
        println!("  {path}");
    }

    // Property (ii): optional fields, with how optional they are — this
    // is what tells you `headline.kicker` and `headline.print_headline`
    // are variants, without reading a million records.
    println!("\n=== partially-present paths ===");
    println!("{:<42} {:>8} {:>8}", "path", "count", "ratio");
    for (path, p) in rows.iter().filter(|(_, p)| p.count < total).take(15) {
        let ratio = p.count as f64 / total as f64;
        println!("{path:<42} {:>8} {:>7.1}%", p.count, ratio * 100.0);
    }

    // The schema is a complete description: every record conforms.
    assert!(feed.iter().all(|v| profile.schema.admits(v)));

    // And it is succinct: compare with the naive alternative of keeping
    // every distinct type.
    let result = JobConfig::new().build().run_values(feed);
    println!(
        "\n{} distinct per-record types (avg size {:.0}) collapsed into one schema of size {}",
        result.type_stats.distinct, result.type_stats.avg_size, result.fused_size
    );
}
