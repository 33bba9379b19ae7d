//! `typefuse registry` — versioned, compatibility-gated schema storage.

use crate::args::ArgStream;
use crate::{CliError, CliResult};
use typefuse_registry::{CompatMode, Registry};

pub(crate) fn run(args: &mut ArgStream) -> CliResult {
    let action = args.next_positional().ok_or_else(|| {
        CliError::usage("registry needs an action: publish, latest, history, diff or names")
    })?;
    let log = args
        .option("--log")?
        .unwrap_or_else(|| "typefuse.registry.ndjson".to_string());

    match action.as_str() {
        "publish" => {
            let subject = args
                .next_positional()
                .ok_or_else(|| CliError::usage("publish needs a subject name"))?;
            let input = args.next_positional();
            let schema_path = args.option("--schema")?;
            let compat = args
                .option("--compat")?
                .unwrap_or_else(|| "backward".to_string());
            args.finish()?;
            let mode = CompatMode::from_name(&compat).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown compat mode `{compat}` (expected backward, forward, full or none)"
                ))
            })?;

            // Schema from a file, or inferred from the data input.
            let schema = match schema_path {
                Some(path) => crate::read_schema(&path)?,
                None => crate::cmd_infer::infer_schema(input.as_deref())?,
            };

            let mut reg = open(&log)?;
            match reg.publish(&subject, schema, mode) {
                Ok(outcome) if outcome.unchanged => {
                    println!("{subject}: unchanged (version {})", outcome.version);
                }
                Ok(outcome) => println!("{subject}: published version {}", outcome.version),
                Err(typefuse_registry::RegistryError::Incompatible {
                    mode,
                    against_version,
                    changes,
                }) => {
                    eprintln!("{subject}: not {mode}-compatible with version {against_version}:");
                    for change in &changes {
                        eprintln!("  {change}");
                    }
                    return Err(CliError::runtime("publish rejected".to_string()));
                }
                Err(e) => return Err(CliError::runtime(e.to_string())),
            }
            Ok(())
        }
        "latest" => {
            let subject = args
                .next_positional()
                .ok_or_else(|| CliError::usage("latest needs a subject name"))?;
            args.finish()?;
            let reg = open(&log)?;
            let entry = reg
                .latest(&subject)
                .ok_or_else(|| CliError::runtime(format!("unknown subject {subject:?}")))?;
            eprintln!("# {} version {}", entry.name, entry.version);
            println!("{}", entry.schema);
            Ok(())
        }
        "history" => {
            let subject = args
                .next_positional()
                .ok_or_else(|| CliError::usage("history needs a subject name"))?;
            args.finish()?;
            let reg = open(&log)?;
            for entry in reg
                .history(&subject)
                .map_err(|e| CliError::runtime(e.to_string()))?
            {
                println!(
                    "v{}  size {}  {}",
                    entry.version,
                    entry.schema.size(),
                    entry.schema
                );
            }
            Ok(())
        }
        "diff" => {
            let subject = args
                .next_positional()
                .ok_or_else(|| CliError::usage("diff needs a subject name"))?;
            let from: u64 = args
                .next_positional()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CliError::usage("diff needs FROM and TO versions"))?;
            let to: u64 = args
                .next_positional()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| CliError::usage("diff needs FROM and TO versions"))?;
            args.finish()?;
            let reg = open(&log)?;
            let changes = reg
                .diff(&subject, from, to)
                .map_err(|e| CliError::runtime(e.to_string()))?;
            if changes.is_empty() {
                println!("no structural changes");
            }
            for change in changes {
                println!("{change}");
            }
            Ok(())
        }
        "names" => {
            args.finish()?;
            let reg = open(&log)?;
            for name in reg.names() {
                println!("{name}");
            }
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown registry action `{other}`"
        ))),
    }
}

/// Open the log, saying on stderr what recovering a torn append did.
fn open(log: &str) -> Result<Registry, CliError> {
    let registry = Registry::open(log).map_err(|e| CliError::runtime(e.to_string()))?;
    if let Some(warning) = registry.recovered() {
        eprintln!("typefuse: {warning}");
    }
    Ok(registry)
}
