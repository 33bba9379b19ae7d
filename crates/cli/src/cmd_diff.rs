//! `typefuse diff` — structural drift between two datasets or schemas.

use crate::args::ArgStream;
use crate::cmd_infer::infer_schema;
use crate::{CliError, CliResult};
use typefuse_types::diff::diff;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let old_input = args
        .next_positional()
        .ok_or_else(|| CliError::usage("diff requires OLD and NEW inputs"))?;
    let new_input = args
        .next_positional()
        .ok_or_else(|| CliError::usage("diff requires OLD and NEW inputs"))?;
    let as_schemas = args.flag("--schemas");
    args.finish()?;

    let (old, new) = if as_schemas {
        (
            crate::read_schema(&old_input)?,
            crate::read_schema(&new_input)?,
        )
    } else {
        (
            infer_schema(Some(&old_input))?,
            infer_schema(Some(&new_input))?,
        )
    };

    let changes = diff(&old, &new);
    if changes.is_empty() {
        println!("no structural changes");
        return Ok(());
    }
    for change in &changes {
        println!("{change}");
    }
    println!("\n{} change(s)", changes.len());
    // Non-zero exit so CI pipelines can gate on drift.
    Err(CliError::runtime(format!(
        "{} structural changes detected",
        changes.len()
    )))
}
