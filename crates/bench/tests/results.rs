//! The checked-in `results/BENCH_*.json` files: each parses with the
//! workspace's one JSON value, names its experiment, and came from a
//! full run (`write_results` writes nothing under `--quick`).

use cbir_obs::Json;

/// Whether any object in `v` carries `"quick": true`.
fn quick_anywhere(v: &Json) -> bool {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .any(|(k, v)| (k == "quick" && *v == Json::Bool(true)) || quick_anywhere(v)),
        Json::Arr(items) => items.iter().any(quick_anywhere),
        _ => false,
    }
}

#[test]
fn checked_in_results_parse_name_their_experiment_and_are_not_quick() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("results dir") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            matches!(doc.get("experiment"), Some(Json::Str(_))),
            "{name}: no \"experiment\" key"
        );
        assert!(
            !quick_anywhere(&doc),
            "{name} was written by a --quick run; re-run it in full"
        );
        checked += 1;
    }
    assert!(checked > 0, "no results/BENCH_*.json found in {dir}");
}
