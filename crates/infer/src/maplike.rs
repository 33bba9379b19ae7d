//! Detection of *map-like* record types — the Wikidata pathology.
//!
//! Section 6.2 diagnoses why Wikidata fuses badly: "user identifiers are
//! directly encoded as keys, whereas a clean design would suggest
//! encoding this information as a value". Key-based fusion then piles up
//! thousands of optional fields whose types are all alike — the fused
//! type is huge but carries almost no extra information.
//!
//! This module mechanises that diagnosis (the paper's §7 future work on
//! the "relationship between precision and efficiency"): a record type is
//! **map-like** when it has many fields, almost all optional, whose types
//! fuse into a body that every field type already fits into. Reporting
//! `{<key>: T}` instead of the exploded record loses only the key names —
//! which were data, not schema, to begin with.
//!
//! [`find_map_like`] walks a schema and returns every map-like site with
//! its statistics; [`summarize`] rewrites those sites into a compact
//! star-keyed *description string* for human consumption (the type
//! language itself has no wildcard constructor, on purpose — normality
//! and fusion stay untouched).

use crate::fuse::fuse_all;
use typefuse_types::{is_subtype, RecordType, Type};

/// Tunables for map-likeness.
#[derive(Debug, Clone, Copy)]
pub struct MapLikeConfig {
    /// Minimum number of fields before a record can be map-like.
    pub min_fields: usize,
    /// Minimum fraction of optional fields (keys-as-data makes nearly
    /// every field optional).
    pub min_optional_ratio: f64,
}

impl Default for MapLikeConfig {
    fn default() -> Self {
        MapLikeConfig {
            min_fields: 12,
            min_optional_ratio: 0.9,
        }
    }
}

/// One detected map-like record site.
#[derive(Debug, Clone, PartialEq)]
pub struct MapLikeSite {
    /// Where in the schema (path notation, `$.claims`).
    pub path: String,
    /// Number of keys the record accumulated.
    pub keys: usize,
    /// The fused value type common to all fields.
    pub value_type: Type,
    /// AST size of the exploded record.
    pub exploded_size: usize,
    /// AST size of the `{<key>: T}` summary (1 map node + 1 key + |T|).
    pub summary_size: usize,
}

impl MapLikeSite {
    /// Size reduction factor of summarising this site.
    pub fn compression(&self) -> f64 {
        if self.summary_size == 0 {
            0.0
        } else {
            self.exploded_size as f64 / self.summary_size as f64
        }
    }
}

/// Scan a schema for map-like record sites.
pub fn find_map_like(schema: &Type, config: MapLikeConfig) -> Vec<MapLikeSite> {
    let mut out = Vec::new();
    walk(schema, "$", config, &mut out);
    out.sort_by_key(|site| std::cmp::Reverse(site.exploded_size));
    out
}

fn walk(t: &Type, path: &str, config: MapLikeConfig, out: &mut Vec<MapLikeSite>) {
    for addend in t.addends() {
        match addend {
            Type::Record(rt) => {
                if let Some(site) = classify(rt, path, config) {
                    out.push(site);
                    // A summarised site still gets its children scanned
                    // through the fused value type below; do not descend
                    // into each exploded field again.
                    if let Some(site) = out.last() {
                        walk(
                            &site.value_type.clone(),
                            &format!("{path}.<key>"),
                            config,
                            out,
                        );
                    }
                } else {
                    for f in rt.fields() {
                        walk(&f.ty, &format!("{path}.{}", f.name), config, out);
                    }
                }
            }
            Type::Star(body) => walk(body, &format!("{path}[]"), config, out),
            Type::Array(at) => {
                for e in at.elems() {
                    walk(e, &format!("{path}[]"), config, out);
                }
            }
            _ => {}
        }
    }
}

fn classify(rt: &RecordType, path: &str, config: MapLikeConfig) -> Option<MapLikeSite> {
    if rt.len() < config.min_fields {
        return None;
    }
    let optional = rt.optional_fields().count();
    if (optional as f64) < config.min_optional_ratio * rt.len() as f64 {
        return None;
    }
    // All field types must fit under their fusion — i.e. the fusion does
    // not need per-key distinctions beyond what one body expresses.
    let body = fuse_all(rt.fields().iter().map(|f| &f.ty));
    if !rt.fields().iter().all(|f| is_subtype(&f.ty, &body)) {
        return None;
    }
    let exploded = Type::Record(rt.clone()).size();
    let summary_size = 2 + body.size();
    Some(MapLikeSite {
        path: path.to_string(),
        keys: rt.len(),
        value_type: body,
        exploded_size: exploded,
        summary_size,
    })
}

/// Human-readable schema description with map-like sites summarised as
/// `{<key>: T}` and everything else printed normally.
pub fn summarize(schema: &Type, config: MapLikeConfig) -> String {
    let sites = find_map_like(schema, config);
    if sites.is_empty() {
        return schema.to_string();
    }
    let mut text = render(schema, "$", &sites);
    // Append the compression report.
    text.push_str("\n\n# map-like sites:");
    for site in &sites {
        text.push_str(&format!(
            "\n#   {}: {} keys, {}x smaller as {{<key>: …}}",
            site.path,
            site.keys,
            site.compression().round()
        ));
    }
    text
}

fn render(t: &Type, path: &str, sites: &[MapLikeSite]) -> String {
    let parts: Vec<String> = t
        .addends()
        .iter()
        .map(|addend| match addend {
            Type::Record(rt) => {
                if let Some(site) = sites.iter().find(|s| s.path == path) {
                    format!(
                        "{{<key>: {}}}",
                        render(&site.value_type, &format!("{path}.<key>"), sites)
                    )
                } else {
                    let fields: Vec<String> = rt
                        .fields()
                        .iter()
                        .map(|f| {
                            format!(
                                "{}: {}{}",
                                f.name,
                                render(&f.ty, &format!("{path}.{}", f.name), sites),
                                if f.optional { "?" } else { "" }
                            )
                        })
                        .collect();
                    format!("{{{}}}", fields.join(", "))
                }
            }
            Type::Star(body) => {
                let inner = render(body, &format!("{path}[]"), sites);
                if body.addends().len() > 1 {
                    format!("[({inner})*]")
                } else {
                    format!("[{inner}*]")
                }
            }
            Type::Array(at) => {
                let elems: Vec<String> = at
                    .elems()
                    .iter()
                    .map(|e| render(e, &format!("{path}[]"), sites))
                    .collect();
                format!("[{}]", elems.join(", "))
            }
            scalar => scalar.to_string(),
        })
        .collect();
    parts.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{infer_type, Acc, Incremental};
    use typefuse_json::{json, Map, Value};

    /// A record keyed by ids, all values the same shape.
    fn keyed_record(n: usize) -> Value {
        let mut m = Map::new();
        for i in 0..n {
            m.insert_unchecked(format!("P{i:04}"), json!({"v": 1, "w": "x"}));
        }
        Value::Object(m)
    }

    fn fused_over_keyed(records: usize, keys_each: usize) -> Type {
        let mut inc = Incremental::new();
        for r in 0..records {
            let mut m = Map::new();
            for i in 0..keys_each {
                m.insert_unchecked(
                    format!("P{:04}", r * keys_each + i),
                    json!({"v": 1, "w": "x"}),
                );
            }
            inc.absorb(&Value::Object(m));
        }
        inc.into_schema()
    }

    #[test]
    fn detects_ids_as_keys() {
        let schema = fused_over_keyed(10, 5); // 50 distinct keys, all optional
        let sites = find_map_like(&schema, MapLikeConfig::default());
        assert_eq!(sites.len(), 1, "schema: {schema}");
        let site = &sites[0];
        assert_eq!(site.path, "$");
        assert_eq!(site.keys, 50);
        assert_eq!(site.value_type.to_string(), "{v: Num, w: Str}");
        assert!(
            site.compression() > 10.0,
            "compression {}",
            site.compression()
        );
    }

    #[test]
    fn ignores_normal_records() {
        let schema = infer_type(&json!({
            "id": 1, "name": "x", "meta": {"a": 1, "b": 2}
        }));
        assert!(find_map_like(&schema, MapLikeConfig::default()).is_empty());
    }

    #[test]
    fn mandatory_fields_block_detection() {
        // A wide but fully mandatory record is a real schema, not a map.
        let v = keyed_record(30);
        let schema = infer_type(&v); // single record ⇒ all mandatory
        assert!(find_map_like(&schema, MapLikeConfig::default()).is_empty());
    }

    #[test]
    fn heterogeneous_values_block_detection() {
        // Keys whose values have incompatible shapes are not map-like.
        let mut inc = Incremental::new();
        for i in 0..30 {
            let mut m = Map::new();
            if i % 2 == 0 {
                m.insert_unchecked(format!("k{i:03}"), json!({"v": 1}));
            } else {
                m.insert_unchecked(format!("k{i:03}"), json!(i as i64));
            }
            inc.absorb(&Value::Object(m));
        }
        let schema = inc.into_schema();
        // The fused body is {v: Num} + Num; each field type is one of the
        // two, which *is* a subtype of the union — so this is detected.
        // Heterogeneity in the subtype sense means a field whose type
        // escapes the fused body, which cannot happen by construction of
        // fusion. The guard that actually discriminates is the optional
        // ratio and min_fields; verify detection here is intentional.
        let sites = find_map_like(&schema, MapLikeConfig::default());
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].value_type.to_string(), "Num + {v: Num}");
    }

    #[test]
    fn nested_sites_are_found_with_paths() {
        let mut inc = Incremental::new();
        for r in 0..10 {
            let mut claims = Map::new();
            for i in 0..4 {
                claims.insert_unchecked(format!("P{:03}", r * 4 + i), json!([{"rank": "normal"}]));
            }
            let mut top = Map::new();
            top.insert_unchecked("id", format!("Q{r}"));
            top.insert_unchecked("claims", Value::Object(claims));
            inc.absorb(&Value::Object(top));
        }
        let schema = inc.into_schema();
        let sites = find_map_like(&schema, MapLikeConfig::default());
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].path, "$.claims");
        assert_eq!(sites[0].keys, 40);
    }

    #[test]
    fn summarize_renders_compactly() {
        let schema = fused_over_keyed(10, 5);
        let text = summarize(&schema, MapLikeConfig::default());
        assert!(
            text.starts_with("{<key>: {v: Num, w: Str}}"),
            "text: {text}"
        );
        assert!(text.contains("map-like sites"));
        assert!(text.contains("50 keys"));
        // Without sites the original printing is used.
        let plain = infer_type(&json!({"a": 1}));
        assert_eq!(summarize(&plain, MapLikeConfig::default()), "{a: Num}");
    }

    #[test]
    fn thresholds_are_respected() {
        let schema = fused_over_keyed(3, 2); // only 6 keys
        assert!(find_map_like(&schema, MapLikeConfig::default()).is_empty());
        let lax = MapLikeConfig {
            min_fields: 4,
            ..Default::default()
        };
        assert_eq!(find_map_like(&schema, lax).len(), 1);
    }
}
