//! Incremental schema maintenance (Section 7 of the paper).
//!
//! JSON sources are dynamic: new records arrive with shapes never seen
//! before. Associativity of fusion means the schema can be maintained
//! without ever reprocessing old data:
//!
//! * **append**: fuse the running schema with the new record's type;
//! * **partition update**: re-infer only the changed partition and fuse
//!   its schema with the stale schemas of the untouched partitions.
//!
//! ```sh
//! cargo run --example incremental_updates
//! ```

use typefuse::prelude::*;

fn main() {
    // ---- Appends -------------------------------------------------------
    let stream: Vec<Value> = Profile::Twitter.generate(7, 500).collect();

    let mut live = Incremental::new();
    let mut last_size = 0usize;
    for (i, record) in stream.iter().enumerate() {
        live.absorb(record);
        let size = live.schema().size();
        if size != last_size {
            println!("record {:>4}: schema size {:>4} (changed)", i + 1, size);
            last_size = size;
        }
    }
    println!(
        "\nafter {} records the schema has stabilised at size {}",
        live.count(),
        last_size
    );

    // The incremental schema equals the batch schema over the same data.
    let batch = JobConfig::new().build().run_values(stream.clone());
    assert_eq!(live.schema(), &batch.schema);
    println!("incremental schema == batch schema ✓");

    // ---- Partitioned update ---------------------------------------------
    // The dataset is kept in 4 partitions; partition 2 is rewritten.
    let partitions: Vec<Vec<Value>> = stream.chunks(125).map(|c| c.to_vec()).collect();
    let mut partial: Vec<Incremental> = partitions
        .iter()
        .map(|part| {
            let mut acc = Incremental::new();
            part.iter().for_each(|v| acc.absorb(v));
            acc
        })
        .collect();

    // New content for partition 2, including a shape never seen before.
    let mut updated: Vec<Value> = Profile::Twitter.generate(8, 100).collect();
    updated.push(parse_value(r#"{"scrub_geo": {"user_id": 1, "up_to_status_id": 2}}"#).unwrap());

    // Re-infer ONLY the updated partition…
    let mut fresh = Incremental::new();
    updated.iter().for_each(|v| fresh.absorb(v));
    partial[2] = fresh;

    // …and fuse the four per-partition schemas (fast: four small types).
    let mut maintained = Incremental::new();
    for acc in &partial {
        maintained.merge(acc);
    }

    // Same result as recomputing everything from scratch.
    let mut from_scratch: Vec<Value> = Vec::new();
    for (i, part) in partitions.iter().enumerate() {
        if i == 2 {
            from_scratch.extend(updated.iter().cloned());
        } else {
            from_scratch.extend(part.iter().cloned());
        }
    }
    let recomputed = JobConfig::new().build().run_values(from_scratch);
    assert_eq!(maintained.schema(), &recomputed.schema);
    println!(
        "partition-update maintenance == full recomputation ✓ ({} records, schema size {})",
        maintained.count(),
        maintained.schema().size()
    );

    // The never-seen shape surfaced as a new optional field.
    let printed = maintained.schema().to_string();
    assert!(printed.contains("scrub_geo"));
    println!("new `scrub_geo` shape absorbed as an optional field ✓");
}
