//! Forward-compatible JSON aggregation for fan-in of backend stats.
//!
//! `rpc-ctl stats` / `cbir stats` against a router must aggregate what N
//! backends report **without** the router having to know every field —
//! a newer backend may expose counters an older router has never heard
//! of, and erroring on them (or silently dropping them) would couple
//! every deployment's upgrade order. The merge here is structural:
//!
//! * objects union their keys (first document's key order, unknown keys
//!   appended), merging values recursively;
//! * numbers **sum** — exact for the counters that dominate these
//!   documents; quantile estimates also sum, which is documented as an
//!   aggregation artifact rather than silently dropped;
//! * booleans OR (`enabled` is true if any backend records);
//! * strings keep the first value (they are names/labels, not data);
//! * equal-length arrays merge element-wise (the fixed per-index and
//!   per-stage tables), unequal-length arrays concatenate (lists of
//!   samples, e.g. traces or per-replica rows);
//! * `null` yields to the other side; mismatched types keep the first.
//!
//! The value type and its parser are [`cbir_obs::Json`], re-exported
//! here because the benchmark crate (`e2e/`) imports it by this path.

pub use cbir_obs::Json;

/// Merge two parsed documents under the rules in the module docs.
pub fn merge(a: Json, b: Json) -> Json {
    match (a, b) {
        (Json::Null, b) => b,
        (a, Json::Null) => a,
        (Json::Num(x), Json::Num(y)) => Json::Num(x + y),
        (Json::Bool(x), Json::Bool(y)) => Json::Bool(x || y),
        (Json::Obj(af), Json::Obj(bf)) => {
            let mut out = af;
            for (k, bv) in bf {
                if let Some(slot) = out.iter_mut().find(|(ok, _)| *ok == k) {
                    let existing = std::mem::replace(&mut slot.1, Json::Null);
                    slot.1 = merge(existing, bv);
                } else {
                    out.push((k, bv));
                }
            }
            Json::Obj(out)
        }
        (Json::Arr(ai), Json::Arr(bi)) => {
            if ai.len() == bi.len() {
                Json::Arr(ai.into_iter().zip(bi).map(|(x, y)| merge(x, y)).collect())
            } else {
                let mut out = ai;
                out.extend(bi);
                Json::Arr(out)
            }
        }
        // Strings and mismatched types: first wins.
        (a, _) => a,
    }
}

/// Parse a set of JSON documents and merge them, in order, into `base`
/// (errors name the failing document by position).
pub fn merge_documents(base: Json, docs: &[String]) -> Result<Json, String> {
    docs.iter().enumerate().try_fold(base, |merged, (i, doc)| {
        let v = Json::parse(doc).map_err(|e| format!("document {i}: {e}"))?;
        Ok(merge(merged, v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_unknown_fields_survive() {
        let old = r#"{"requests": 10, "errors": 1, "latency": {"p50": 5}}"#.to_string();
        // A newer backend exposes a field the router has never heard of.
        let new = r#"{"requests": 4, "errors": 0, "latency": {"p50": 7}, "shiny_new_counter": 99}"#
            .to_string();
        let merged = merge_documents(Json::Null, &[old, new]).unwrap();
        assert_eq!(merged.get("requests"), Some(&Json::Num(14.0)));
        assert_eq!(merged.get("shiny_new_counter"), Some(&Json::Num(99.0)));
        assert_eq!(
            merged.get("latency").unwrap().get("p50"),
            Some(&Json::Num(12.0))
        );
    }

    #[test]
    fn equal_length_arrays_merge_elementwise_unequal_concatenate() {
        let a = r#"{"indexes": [{"queries": 1}, {"queries": 2}], "traces": [1]}"#.to_string();
        let b = r#"{"indexes": [{"queries": 10}, {"queries": 20}], "traces": [2, 3]}"#.to_string();
        let merged = merge_documents(Json::Null, &[a, b]).unwrap();
        assert_eq!(
            merged.get("indexes"),
            Some(&Json::Arr(vec![
                Json::Obj(vec![("queries".into(), Json::Num(11.0))]),
                Json::Obj(vec![("queries".into(), Json::Num(22.0))]),
            ]))
        );
        assert_eq!(
            merged.get("traces"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.0),
                Json::Num(3.0)
            ]))
        );
    }

    #[test]
    fn bools_or_strings_keep_first_nulls_yield() {
        let merged = merge_documents(
            Json::Null,
            &[
                r#"{"enabled": false, "name": "a", "x": null}"#.to_string(),
                r#"{"enabled": true, "name": "b", "x": 5}"#.to_string(),
            ],
        )
        .unwrap();
        assert_eq!(merged.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(merged.get("name"), Some(&Json::Str("a".into())));
        assert_eq!(merged.get("x"), Some(&Json::Num(5.0)));
    }

    #[test]
    fn malformed_documents_are_named_by_position() {
        let err = merge_documents(Json::Null, &["{}".to_string(), "{".to_string()]).unwrap_err();
        assert!(err.contains("document 1"), "{err}");
        assert_eq!(merge_documents(Json::Null, &[]), Ok(Json::Null));
    }
}
