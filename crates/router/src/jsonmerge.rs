//! Fan-in of `ObsStats` documents: a router's own and its backends'.
//!
//! `rpc-ctl stats` / `cbir stats` against a router must aggregate what N
//! backends report **without** the router having to know every field —
//! a newer backend may expose counters an older router has never heard
//! of, and erroring on them (or silently dropping them) would couple
//! every deployment's upgrade order. [`cbir_obs::merge_json`] merges
//! each counter a table names by its kind, exactly as the process view
//! of a node's registries does (counts and gauges sum, high-water marks
//! take the larger, flags OR), reads latency quantiles off the summed
//! histogram buckets every document carries, and merges what no table
//! knows structurally, so an unknown field still shows.
//!
//! The value type and its parser are [`cbir_obs::Json`], re-exported
//! here because the benchmark crate (`e2e/`) imports it by this path.

pub use cbir_obs::Json;

/// Parse a set of JSON documents and merge them, in order, into `base`
/// (errors name the failing document by position).
pub fn merge_documents(base: Json, docs: &[String]) -> Result<Json, String> {
    docs.iter().enumerate().try_fold(base, |merged, (i, doc)| {
        let v = Json::parse(doc).map_err(|e| format!("document {i}: {e}"))?;
        Ok(cbir_obs::merge_json(merged, v))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_counters_merge_by_kind_and_unknown_fields_survive() {
        let old =
            r#"{"requests": 10, "max_pipeline_depth": 3, "errors": 1, "latency": {"p50": 5}}"#
                .to_string();
        // A newer backend exposes a field the router has never heard of.
        let new = r#"{"requests": 4, "max_pipeline_depth": 2, "errors": 0, "latency": {"p50": 7}, "shiny_new_counter": 99}"#
            .to_string();
        let merged = merge_documents(Json::Null, &[old, new]).unwrap();
        // A table's counter sums, its high-water mark takes the larger.
        assert_eq!(merged.get("requests"), Some(&Json::Num(14.0)));
        assert_eq!(merged.get("max_pipeline_depth"), Some(&Json::Num(3.0)));
        // A number no table names keeps the first document's value.
        assert_eq!(merged.get("errors"), Some(&Json::Num(1.0)));
        assert_eq!(
            merged.get("latency").unwrap().get("p50"),
            Some(&Json::Num(5.0))
        );
        assert_eq!(merged.get("shiny_new_counter"), Some(&Json::Num(99.0)));
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
