//! `typefuse query` — run a schema-checked pipeline over NDJSON data.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse::JobConfig;
use typefuse_query::Pipeline;
use typefuse_types::parse_type;

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let input = args.next_positional();
    let script_path = args
        .option("--script")?
        .ok_or_else(|| CliError::usage("query requires --script FILE"))?;
    let schema_path = args.option("--schema")?;
    let check_only = args.flag("--check-only");
    args.finish()?;

    let script = std::fs::read_to_string(&script_path)
        .map_err(|e| CliError::runtime(format!("cannot read {script_path}: {e}")))?;
    let pipeline =
        Pipeline::parse(&script).map_err(|e| CliError::runtime(format!("{script_path}: {e}")))?;

    // With --check-only and an explicit schema no data is needed at all —
    // do not touch the input (reading stdin would block).
    let mut values = Vec::new();
    if !(check_only && schema_path.is_some()) {
        let job = JobConfig::new().build();
        crate::cmd_infer::for_each_value(input.as_deref(), &job, |v| values.push(v))?;
    }

    // Schema: explicit file, or inferred from the data itself.
    let schema = match &schema_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
            parse_type(text.trim())
                .map_err(|e| CliError::runtime(format!("invalid schema: {e}")))?
        }
        None => {
            JobConfig::new()
                .without_type_stats()
                .build()
                .run_values(values.clone())
                .schema
        }
    };

    let out_schema = pipeline
        .check(&schema)
        .map_err(|e| CliError::runtime(format!("type error: {e}")))?;
    eprintln!("output schema: {out_schema}");
    if check_only {
        return Ok(());
    }

    let out = pipeline
        .eval(&values)
        .map_err(|e| CliError::runtime(format!("evaluation failed: {e}")))?;
    for row in &out {
        println!("{row}");
    }
    eprintln!("{} row(s)", out.len());
    Ok(())
}
