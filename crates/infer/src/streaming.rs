//! Text-to-type inference: one line in, its Figure 4 type out, no
//! [`Value`](typefuse_json::Value) tree in between.
//!
//! The hot path is the direct [`Typer`]: every function here tries it
//! first. A line it declines — malformed, or holding an escaped or a
//! duplicate key — is replayed through the event fold below
//! ([`event_fold`], over the pull [`EventParser`]), which is where
//! every error (kind, span, line) and the lenient last-wins type come
//! from, and which is the reference the typer is tested against.

use crate::typer::Typer;
use typefuse_json::events::{Event, EventParser};
use typefuse_json::{ErrorKind, ParserOptions, Result};
use typefuse_obs::Recorder;
use typefuse_types::{ArrayType, Field, RecordType, Type};

/// Infer the type of one complete JSON text without materialising the
/// value.
///
/// Equivalent to `infer_type(&parse_value(text)?)` — property-tested —
/// but allocation-free for scalars and string *contents* (keys still
/// allocate once per distinct key: they become part of the type).
///
/// ```
/// use typefuse_infer::streaming::infer_type_from_str;
/// let t = infer_type_from_str(r#"{"a": 1, "b": ["x"]}"#).unwrap();
/// assert_eq!(t.to_string(), "{a: Num, b: [Str]}");
/// ```
pub fn infer_type_from_str(text: &str) -> Result<Type> {
    infer_type_from_slice(text.as_bytes())
}

/// Byte-slice variant of [`infer_type_from_str`].
pub fn infer_type_from_slice(input: &[u8]) -> Result<Type> {
    infer_with_options(input, ParserOptions::default())
}

/// Variant with explicit parser options.
pub fn infer_with_options(input: &[u8], options: ParserOptions) -> Result<Type> {
    infer_line(
        &mut Typer::default(),
        input,
        &options,
        &Recorder::disabled(),
    )
}

/// [`infer_with_options`] plus per-record metrics; see [`infer_line`].
pub fn infer_with_options_recorded(
    input: &[u8],
    options: ParserOptions,
    rec: &Recorder,
) -> Result<Type> {
    infer_line(&mut Typer::default(), input, &options, rec)
}

/// Type one line with a caller-owned [`Typer`] — what a fold over many
/// lines calls, so the scratch is allocated once. The typer goes first;
/// a line it declines is replayed through the event fold for its error
/// or its lenient type. With an enabled recorder it counts, whichever of
/// the two typed the line:
///
/// | name                 | kind      | meaning                                  |
/// |----------------------|-----------|------------------------------------------|
/// | `infer.events`       | counter   | parse events folded                      |
/// | `infer.frames`       | histogram | peak frame-stack depth per record        |
/// | `infer.types`        | counter   | records folded to types (Map phase)      |
/// | `infer.record_width` | histogram | field count of each top-level record     |
/// | `infer.max_depth`    | gauge     | deepest inferred type seen (max-merged)  |
///
/// `infer.types` / `infer.record_width` / `infer.max_depth` mirror the
/// value-path metrics of [`crate::obs::infer_type_recorded`], so run
/// reports from either Map-phase route are directly comparable.
pub fn infer_line(
    typer: &mut Typer,
    input: &[u8],
    options: &ParserOptions,
    rec: &Recorder,
) -> Result<Type> {
    let (ty, stats) = match typer.type_line(input, options.max_depth, &mut (), 0) {
        Some(ty) => {
            let stats = FoldStats {
                events: typer.events(),
                peak_frames: typer.frames(),
            };
            (ty, stats)
        }
        None => {
            let mut stats = FoldStats::default();
            (replay(input, options, &mut stats)?, stats)
        }
    };
    if rec.is_enabled() {
        rec.add("infer.events", stats.events);
        rec.record("infer.frames", stats.peak_frames);
        rec.add("infer.types", 1);
        if let Type::Record(r) = &ty {
            rec.record("infer.record_width", r.len() as u64);
        }
        rec.gauge_max("infer.max_depth", ty.depth() as u64);
    }
    Ok(ty)
}

/// [`infer_type_from_str`] with the metrics of
/// [`infer_with_options_recorded`].
pub fn infer_type_from_str_recorded(text: &str, rec: &Recorder) -> Result<Type> {
    infer_with_options_recorded(text.as_bytes(), ParserOptions::default(), rec)
}

/// What a record's fold counted, for the recorder.
#[derive(Debug, Default)]
struct FoldStats {
    events: u64,
    peak_frames: u64,
}

/// The pure event fold of one complete JSON text, trailing characters
/// refused: the replay path of [`infer_line`] and of the profiler, and
/// the reference the direct typer is held to.
pub fn event_fold(input: &[u8], options: &ParserOptions) -> Result<Type> {
    replay(input, options, &mut FoldStats::default())
}

fn replay(input: &[u8], options: &ParserOptions, stats: &mut FoldStats) -> Result<Type> {
    let mut parser = EventParser::with_options(input, options.clone());
    let ty = fold_events(&mut parser, stats)?;
    parser.finish()?;
    Ok(ty)
}

fn fold_events(events: &mut EventParser<'_>, stats: &mut FoldStats) -> Result<Type> {
    // In strict mode (the default) the parser rejects duplicate keys, so
    // every completed field can be pushed without looking back; only the
    // lenient mode needs last-wins overwrite semantics.
    let dedup_keys = events.options().allow_duplicate_keys;
    let first = next_or_eof(events, stats)?;
    fold_value(events, first, stats, dedup_keys, 0)
}

fn next_or_eof<'a>(events: &mut EventParser<'a>, stats: &mut FoldStats) -> Result<Event<'a>> {
    match events.next_event()? {
        Some(e) => {
            stats.events += 1;
            Ok(e)
        }
        None => Err(typefuse_json::Error::at(
            ErrorKind::UnexpectedEof,
            events.source_position(),
        )),
    }
}

/// Fold the value whose first event is `event`. Recursion mirrors the
/// tree inferrer's shape, so the frame "stack" is the machine stack;
/// `depth` counts enclosing containers for the `infer.frames` metric.
/// Recursion depth is bounded by the parser's `max_depth` option.
fn fold_value<'a>(
    events: &mut EventParser<'a>,
    event: Event<'a>,
    stats: &mut FoldStats,
    dedup_keys: bool,
    depth: u64,
) -> Result<Type> {
    Ok(match event {
        Event::Null => Type::Null,
        Event::Bool(_) => Type::Bool,
        Event::Number(_) => Type::Num,
        Event::String(_) => Type::Str,
        Event::ObjectStart => {
            stats.peak_frames = stats.peak_frames.max(depth + 1);
            // Unlike the tree route there is no size hint; 8 covers most
            // real-world records without a mid-object regrow.
            let mut fields: Vec<Field> = Vec::with_capacity(8);
            loop {
                match next_or_eof(events, stats)? {
                    Event::ObjectEnd => break,
                    Event::Key(name) => {
                        let first = next_or_eof(events, stats)?;
                        let ty = fold_value(events, first, stats, dedup_keys, depth + 1)?;
                        // Under lenient options the parser admits
                        // duplicate keys; keep last-wins semantics like
                        // the tree parser.
                        if dedup_keys {
                            if let Some(existing) = fields.iter_mut().find(|f| *f.name == *name) {
                                existing.ty = ty;
                                continue;
                            }
                        }
                        fields.push(Field::required(&*name, ty));
                    }
                    _ => unreachable!("parser yields only Key or ObjectEnd inside an object"),
                }
            }
            Type::Record(RecordType::new(fields).expect("parser enforces key uniqueness"))
        }
        Event::ArrayStart => {
            stats.peak_frames = stats.peak_frames.max(depth + 1);
            let mut elems: Vec<Type> = Vec::new();
            loop {
                match next_or_eof(events, stats)? {
                    Event::ArrayEnd => break,
                    e => elems.push(fold_value(events, e, stats, dedup_keys, depth + 1)?),
                }
            }
            Type::Array(ArrayType::new(elems))
        }
        Event::Key(_) | Event::ObjectEnd | Event::ArrayEnd => {
            unreachable!("parser yields structurally balanced events")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_type;
    use typefuse_json::parse_value;

    #[test]
    fn agrees_with_tree_inference() {
        for text in [
            "null",
            "0",
            r#""s""#,
            "{}",
            "[]",
            r#"{"a": 1, "b": ["x", {"c": null}], "d": {"e": [[true]]}}"#,
            r#"[1, "a", {"k": []}]"#,
        ] {
            let direct = infer_type_from_str(text).unwrap();
            let via_tree = infer_type(&parse_value(text).unwrap());
            assert_eq!(direct, via_tree, "for {text}");
        }
    }

    #[test]
    fn reports_parse_errors() {
        assert!(infer_type_from_str("{oops").is_err());
        assert!(infer_type_from_str("[1,]").is_err());
        assert!(infer_type_from_str("{} trailing").is_err());
        assert!(infer_type_from_str(r#"{"a":1,"a":2}"#).is_err());
        assert!(infer_type_from_str("").is_err());
    }

    #[test]
    fn lenient_options_pass_through() {
        let opts = typefuse_json::ParserOptions {
            allow_duplicate_keys: true,
            ..Default::default()
        };
        let t = infer_with_options(br#"{"a":1,"a":"x"}"#, opts).unwrap();
        // Last binding wins in lenient mode, but the *type* records the
        // surviving field once.
        assert_eq!(t.to_string(), "{a: Str}");
    }

    #[test]
    fn recorded_fold_matches_and_counts() {
        let rec = Recorder::enabled();
        let text = r#"{"a": 1, "b": ["x", {"c": null}]}"#;
        let ty = infer_type_from_str_recorded(text, &rec).unwrap();
        assert_eq!(ty, infer_type_from_str(text).unwrap());
        let report = rec.snapshot();
        // ObjectStart, Key a, 1, Key b, ArrayStart, "x", ObjectStart,
        // Key c, null, ObjectEnd, ArrayEnd, ObjectEnd = 12 events.
        assert_eq!(report.counters["infer.events"], 12);
        assert_eq!(report.counters["infer.types"], 1);
        let frames = &report.histograms["infer.frames"];
        assert_eq!(frames.count, 1);
        assert_eq!(frames.sum, 3, "outer object, array, inner object");
        assert_eq!(report.histograms["infer.record_width"].sum, 2);
        assert_eq!(report.gauges["infer.max_depth"], ty.depth() as u64);
    }

    #[test]
    fn disabled_recorder_fold_is_identical() {
        let rec = Recorder::disabled();
        let text = r#"[{"k": [1, 2]}, null]"#;
        assert_eq!(
            infer_type_from_str_recorded(text, &rec).unwrap(),
            infer_type_from_str(text).unwrap()
        );
        assert!(rec.snapshot().counters.is_empty());
    }

    #[test]
    fn deep_nesting_respects_limit() {
        let deep: String = std::iter::repeat_n('[', 600)
            .chain(std::iter::repeat_n(']', 600))
            .collect();
        assert!(matches!(
            infer_type_from_str(&deep).unwrap_err().kind(),
            ErrorKind::RecursionLimitExceeded
        ));
    }
}
