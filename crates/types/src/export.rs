//! Export a [`Type`] as a JSON Schema document.
//!
//! The paper (Section 3) positions its language as "a core part of the
//! JSON Schema language" of Pezoa et al. \[20\]; this module realises the
//! embedding so inferred schemas can be consumed by standard validators.
//!
//! Mapping:
//!
//! | typefuse                 | JSON Schema                                           |
//! |--------------------------|-------------------------------------------------------|
//! | `Null/Bool/Num/Str`      | `{"type": "null"/"boolean"/"number"/"string"}`        |
//! | `{l: T, m: U?}`          | `object` + `properties` + `required` + closed         |
//! | `[T₁,…,Tₙ]`              | `array` + `prefixItems` + `items: false` + exact size |
//! | `[T*]`                   | `array` + `items`                                     |
//! | `T + U`                  | `anyOf`                                               |
//! | `ε`                      | `false` (the unsatisfiable schema)                    |

use crate::ty::Type;
use typefuse_json::{Map, Value};

/// Convert a type to a JSON Schema document (as a JSON value).
pub fn to_json_schema(t: &Type) -> Value {
    match t {
        Type::Bottom => Value::Bool(false),
        Type::Null => type_object("null"),
        Type::Bool => type_object("boolean"),
        Type::Num => type_object("number"),
        Type::Str => type_object("string"),
        Type::Record(rt) => {
            let mut schema = Map::new();
            schema.insert("type", "object");
            let mut props = Map::new();
            let mut required: Vec<Value> = Vec::new();
            for f in rt.fields() {
                props.insert(f.name.to_string(), to_json_schema(&f.ty));
                if !f.optional {
                    required.push(Value::String(f.name.to_string()));
                }
            }
            schema.insert("properties", Value::Object(props));
            if !required.is_empty() {
                schema.insert("required", Value::Array(required));
            }
            // The paper's record types are closed (complete descriptions).
            schema.insert("additionalProperties", false);
            Value::Object(schema)
        }
        Type::Array(at) => {
            let mut schema = Map::new();
            schema.insert("type", "array");
            schema.insert(
                "prefixItems",
                Value::Array(at.elems().iter().map(to_json_schema).collect()),
            );
            schema.insert("items", false);
            schema.insert("minItems", at.len() as i64);
            schema.insert("maxItems", at.len() as i64);
            Value::Object(schema)
        }
        Type::Star(body) => {
            let mut schema = Map::new();
            schema.insert("type", "array");
            match body.as_ref() {
                // [ε*] admits only []: express as maxItems 0.
                Type::Bottom => {
                    schema.insert("maxItems", 0i64);
                }
                other => {
                    schema.insert("items", to_json_schema(other));
                }
            }
            Value::Object(schema)
        }
        Type::Union(u) => {
            let mut schema = Map::new();
            schema.insert(
                "anyOf",
                Value::Array(u.addends().iter().map(to_json_schema).collect()),
            );
            Value::Object(schema)
        }
    }
}

/// Wrap with the `$schema` preamble for a standalone document.
pub fn to_json_schema_document(t: &Type) -> Value {
    let mut doc = Map::new();
    doc.insert("$schema", "https://json-schema.org/draft/2020-12/schema");
    match to_json_schema(t) {
        Value::Object(m) => {
            for (k, v) in m {
                doc.insert(k, v);
            }
        }
        Value::Bool(false) => {
            doc.insert("not", Value::Object(Map::new()));
        }
        other => {
            doc.insert("allOf", Value::Array(vec![other]));
        }
    }
    Value::Object(doc)
}

fn type_object(name: &str) -> Value {
    let mut m = Map::new();
    m.insert("type", name);
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_type;
    use typefuse_json::json;

    fn export(text: &str) -> Value {
        to_json_schema(&parse_type(text).unwrap())
    }

    #[test]
    fn basics() {
        assert_eq!(export("Null"), json!({"type": "null"}));
        assert_eq!(export("Bool"), json!({"type": "boolean"}));
        assert_eq!(export("Num"), json!({"type": "number"}));
        assert_eq!(export("Str"), json!({"type": "string"}));
        assert_eq!(export("ε"), json!(false));
    }

    #[test]
    fn record_with_optional() {
        let s = export("{a: Num, b: Str?}");
        assert_eq!(
            s,
            json!({
                "type": "object",
                "properties": {
                    "a": {"type": "number"},
                    "b": {"type": "string"}
                },
                "required": ["a"],
                "additionalProperties": false
            })
        );
    }

    #[test]
    fn all_optional_record_omits_required() {
        let s = export("{a: Num?}");
        assert!(s.get("required").is_none());
    }

    #[test]
    fn star_array() {
        assert_eq!(
            export("[Num*]"),
            json!({"type": "array", "items": {"type": "number"}})
        );
    }

    #[test]
    fn empty_star_is_zero_length() {
        let s = to_json_schema(&Type::star(Type::Bottom));
        assert_eq!(s, json!({"type": "array", "maxItems": 0}));
    }

    #[test]
    fn positional_array_uses_prefix_items() {
        let s = export("[Str, Num]");
        assert_eq!(
            s,
            json!({
                "type": "array",
                "prefixItems": [{"type": "string"}, {"type": "number"}],
                "items": false,
                "minItems": 2,
                "maxItems": 2
            })
        );
    }

    #[test]
    fn union_is_any_of() {
        let s = export("Num + Str");
        assert_eq!(
            s,
            json!({"anyOf": [{"type": "number"}, {"type": "string"}]})
        );
    }

    #[test]
    fn document_preamble() {
        let d = to_json_schema_document(&parse_type("{a: Num}").unwrap());
        assert_eq!(
            d.get("$schema").and_then(|v| v.as_str()),
            Some("https://json-schema.org/draft/2020-12/schema")
        );
        assert!(d.get("properties").is_some());
    }

    #[test]
    fn bottom_document_is_unsatisfiable() {
        let d = to_json_schema_document(&Type::Bottom);
        assert_eq!(d.get("not"), Some(&json!({})));
    }
}
