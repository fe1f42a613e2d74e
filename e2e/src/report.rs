//! Metric names and units (the same table `BENCHMARK.json` holds), and
//! the result a run prints.

use cbir_router::jsonmerge::Json;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed by every workload
/// with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("recall_at_10", "ratio"),
    ("stored_bytes_per_row", "B"),
];

/// `(name, unit)` of every per-layer metric, printed by every workload
/// with `--trace 1`; a workload that never enters a layer prints `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.extract_ms_per_image", "ms"),
    ("features.stage_hit_ratio", "ratio"),
    ("index.antipole_build_ms", "ms"),
    ("index.antipole_query_us", "us"),
    ("index.antipole_dist_evals_per_query", "count"),
    ("index.antipole_pruned_share", "ratio"),
    ("core.persist_save_ms", "ms"),
    ("core.persist_load_ms", "ms"),
    ("distance.memcpy_gbps", "GB/s"),
    ("distance.l1_scan_gbps", "GB/s"),
    ("distance.l2_scan_gbps", "GB/s"),
    ("distance.l1_dists_per_s", "1/s"),
    ("index.linear_batch_us_per_query", "us"),
    ("index.linear_single_us_per_query", "us"),
    ("index.coarse_scan_us_per_query", "us"),
    ("index.rerank_us_per_query", "us"),
    ("index.coarse_candidates_per_query", "count"),
    ("index.rerank_evals_per_query", "count"),
    ("core.engine_us_per_query", "us"),
    ("server.ping_rtt_us", "us"),
    ("server.protocol_us_per_op", "us"),
    ("server.mean_batch", "count"),
    ("server.shed", "count"),
    ("server.overhead_us", "us"),
    ("router.ping_rtt_us", "us"),
    ("router.merge_us_per_reply", "us"),
    ("router.overhead_us", "us"),
    ("router.failovers", "count"),
    ("router.hedges_fired", "count"),
    ("core.store_open_us", "us"),
    ("core.store_insert_us", "us"),
    ("core.store_snapshot_us", "us"),
    ("core.store_compact_ms", "ms"),
    ("core.store_bytes_rewritten_per_compaction", "count"),
    ("core.store_segments_end", "count"),
    ("core.store_peak_rss_mb", "MB"),
    ("client.p95_ms", "ms"),
    ("client.p99_ms", "ms"),
    ("client.insert_p50_ms", "ms"),
    ("client.insert_p95_ms", "ms"),
    ("client.paced_p50_ms", "ms"),
    ("client.paced_p95_ms", "ms"),
    ("client.paced75_p95_ms", "ms"),
    ("client.paced_lag_p95_ms", "ms"),
    ("client.paced_backlog_end", "count"),
    ("client.failed_share", "ratio"),
    ("obs.traced_throughput_ratio", "ratio"),
    ("unattributed_share", "ratio"),
];

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Ops issued in the measured phases.
    pub attempted: u64,
    /// Ops that errored, were refused, or came back malformed.
    pub failed: u64,
    /// Named checks; the run is correct when all held and nothing failed.
    pub checks: Vec<(&'static str, bool)>,
    values: BTreeMap<&'static str, f64>,
    /// Context printed before the result line: sample counts, every
    /// slice, generator lag, frozen configuration.
    pub notes: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        assert!(value.is_finite(), "{name} is not finite");
        self.values.insert(name, value);
    }

    pub fn check(&mut self, name: &'static str, held: bool) {
        self.checks.push((name, held));
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, held)| *held)
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of the
    /// mode that ran.
    pub fn result(&self, traced: bool) -> Json {
        let metrics = if traced { PER_LAYER } else { END_TO_END }
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let entry = vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.into())),
                ];
                (name.to_string(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// A JSON array of numbers.
pub fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}
