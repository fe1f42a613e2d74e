//! Export surfaces: the JSON documents (built as [`Json`] values) and
//! Prometheus text exposition.

use crate::trace::QueryTrace;
use crate::{obj, Json, LatencySummary, ObsSnapshot};

fn latency(l: &LatencySummary) -> Json {
    obj! { "count": l.count, "sum_us": l.sum_us, "p50_us": l.p50_us, "p95_us": l.p95_us,
    "p99_us": l.p99_us }
}

/// A registry snapshot as a JSON object.
///
/// Top-level keys: `enabled`, `trace_sample_n`, `queue_depth`, `indexes`
/// (array, one object per [`crate::INDEX_NAMES`] slot), `stages` (array,
/// one object per [`crate::Stage`]), `latency` (object with `knn` and
/// `range` summaries), `store`, `event_loop` (the serving instance's
/// epoll counters), `router` (array, one object per
/// registered router backend replica; empty outside a router process),
/// `router_tier` (hedging/degradation counters; all-zero outside a
/// router), `trace_count`.
pub fn to_json(snap: &ObsSnapshot) -> Json {
    let indexes = snap.indexes.iter().map(|s| {
        obj! { "index": s.index, "queries": s.queries,
        "distance_evaluations": s.distance_evaluations, "nodes_visited": s.nodes_visited,
        "subtrees_pruned": s.subtrees_pruned,
        "postfilter_candidates": s.postfilter_candidates,
        "coarse_candidates": s.coarse_candidates,
        "rerank_evaluations": s.rerank_evaluations, "results": s.results }
    });
    let stages = snap.stages.iter().map(|s| {
        obj! { "stage": s.stage, "hits": s.hits, "misses": s.misses, "nanos": s.nanos }
    });
    let router = snap.router.iter().map(|r| {
        obj! { "shard": r.shard, "replica": r.role.as_str(), "requests": r.requests,
        "failures": r.failures, "failovers": r.failovers, "shed": r.shed,
        "healthy": r.healthy, "breaker_open": r.breaker_open,
        "probe_rejoins": r.probe_rejoins, "latency": latency(&r.latency) }
    });
    let (store, event_loop, tier) = (&snap.store, &snap.event_loop, &snap.router_tier);
    obj! {
        "enabled": snap.enabled,
        "trace_sample_n": snap.trace_sample_n,
        "queue_depth": snap.queue_depth,
        "indexes": Json::Arr(indexes.collect()),
        "stages": Json::Arr(stages.collect()),
        "latency": obj! { "knn": latency(&snap.knn_latency),
                          "range": latency(&snap.range_latency) },
        "store": obj! { "inserts": store.inserts, "deletes": store.deletes,
                        "compactions": store.compactions, "segments": store.segments,
                        "memtable_rows": store.memtable_rows, "tombstones": store.tombstones,
                        "epoch": store.epoch },
        "event_loop": obj! { "epoll_wakeups": event_loop.epoll_wakeups,
                             "open_conns": event_loop.open_conns,
                             "max_pipeline_depth": event_loop.max_pipeline_depth },
        "router": Json::Arr(router.collect()),
        "router_tier": obj! { "hedges_fired": tier.hedges_fired,
                              "hedges_won": tier.hedges_won,
                              "degraded_replies": tier.degraded_replies,
                              "breaker_opens": tier.breaker_opens,
                              "retry_budget_exhausted": tier.retry_budget_exhausted,
                              "probe_failures": tier.probe_failures,
                              "probe_latency": latency(&tier.probe_latency) },
        "trace_count": snap.trace_count,
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP`/`# TYPE` comment pairs followed by
/// `name{labels} value` sample lines, ending with a trailing newline.
pub fn to_prometheus(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    let mut counter = |name: &str, help: &str, rows: &[(String, u64)]| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for (labels, value) in rows {
            out.push_str(&format!("{name}{labels} {value}\n"));
        }
    };

    let idx_rows = |f: &dyn Fn(&crate::IndexCounters) -> u64| -> Vec<(String, u64)> {
        snap.indexes
            .iter()
            .map(|s| (format!("{{index=\"{}\"}}", prom_escape(s.index)), f(s)))
            .collect()
    };
    counter(
        "cbir_index_queries_total",
        "Queries flushed per index kind.",
        &idx_rows(&|s| s.queries),
    );
    counter(
        "cbir_index_distance_evaluations_total",
        "Full distance evaluations per index kind.",
        &idx_rows(&|s| s.distance_evaluations),
    );
    counter(
        "cbir_index_nodes_visited_total",
        "Index nodes visited per index kind.",
        &idx_rows(&|s| s.nodes_visited),
    );
    counter(
        "cbir_index_subtrees_pruned_total",
        "Subtrees excluded by a pruning bound per index kind.",
        &idx_rows(&|s| s.subtrees_pruned),
    );
    counter(
        "cbir_index_postfilter_candidates_total",
        "Candidates surfaced for exact-distance evaluation per index kind.",
        &idx_rows(&|s| s.postfilter_candidates),
    );
    counter(
        "cbir_index_coarse_candidates_total",
        "Coarse-stage candidates from two-stage approximate queries per index kind.",
        &idx_rows(&|s| s.coarse_candidates),
    );
    counter(
        "cbir_index_rerank_evaluations_total",
        "Exact rerank evaluations from two-stage approximate queries per index kind.",
        &idx_rows(&|s| s.rerank_evaluations),
    );
    counter(
        "cbir_index_results_total",
        "Result rows returned per index kind.",
        &idx_rows(&|s| s.results),
    );

    let stage_rows = |f: &dyn Fn(&crate::StageCounters) -> u64| -> Vec<(String, u64)> {
        snap.stages
            .iter()
            .map(|s| (format!("{{stage=\"{}\"}}", prom_escape(s.stage)), f(s)))
            .collect()
    };
    counter(
        "cbir_stage_hits_total",
        "Extraction-planner requests answered from cached intermediates.",
        &stage_rows(&|s| s.hits),
    );
    counter(
        "cbir_stage_misses_total",
        "Extraction-planner stage computes.",
        &stage_rows(&|s| s.misses),
    );
    counter(
        "cbir_stage_nanoseconds_total",
        "Nanoseconds spent computing each extraction stage.",
        &stage_rows(&|s| s.nanos),
    );

    if !snap.router.is_empty() {
        let replica_rows =
            |f: &dyn Fn(&crate::RouterReplicaCounters) -> u64| -> Vec<(String, u64)> {
                snap.router
                    .iter()
                    .map(|r| {
                        (
                            format!(
                                "{{shard=\"{}\",replica=\"{}\"}}",
                                r.shard,
                                prom_escape(&r.role)
                            ),
                            f(r),
                        )
                    })
                    .collect()
            };
        counter(
            "cbir_router_requests_total",
            "Requests answered per router backend replica.",
            &replica_rows(&|r| r.requests),
        );
        counter(
            "cbir_router_failures_total",
            "Failed attempts per router backend replica.",
            &replica_rows(&|r| r.failures),
        );
        counter(
            "cbir_router_failovers_total",
            "Failovers away from each router backend replica onto a sibling.",
            &replica_rows(&|r| r.failovers),
        );
        counter(
            "cbir_router_shed_total",
            "Overloaded sheds observed per router backend replica.",
            &replica_rows(&|r| r.shed),
        );
        counter(
            "cbir_router_replica_probe_rejoins_total",
            "Probe-driven rejoins per router backend replica.",
            &replica_rows(&|r| r.probe_rejoins),
        );
        out.push_str(
            "# HELP cbir_router_replica_healthy Whether the router currently considers the \
             replica healthy.\n# TYPE cbir_router_replica_healthy gauge\n",
        );
        for (labels, v) in replica_rows(&|r| r.healthy as u64) {
            out.push_str(&format!("cbir_router_replica_healthy{labels} {v}\n"));
        }
        out.push_str(
            "# HELP cbir_router_replica_breaker_open Whether the replica's circuit breaker \
             is currently open.\n# TYPE cbir_router_replica_breaker_open gauge\n",
        );
        for (labels, v) in replica_rows(&|r| r.breaker_open as u64) {
            out.push_str(&format!("cbir_router_replica_breaker_open{labels} {v}\n"));
        }
        out.push_str(
            "# HELP cbir_router_replica_latency_microseconds Per-replica request latency \
             (log-linear bucket bound, at most 1/16 over).\n\
             # TYPE cbir_router_replica_latency_microseconds summary\n",
        );
        for r in &snap.router {
            let labels = format!("shard=\"{}\",replica=\"{}\"", r.shard, prom_escape(&r.role));
            let l = &r.latency;
            for (q, v) in [("0.5", l.p50_us), ("0.95", l.p95_us), ("0.99", l.p99_us)] {
                out.push_str(&format!(
                    "cbir_router_replica_latency_microseconds{{{labels},quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!(
                "cbir_router_replica_latency_microseconds_sum{{{labels}}} {}\n",
                l.sum_us
            ));
            out.push_str(&format!(
                "cbir_router_replica_latency_microseconds_count{{{labels}}} {}\n",
                l.count
            ));
        }

        let tier = &snap.router_tier;
        for (name, help, value) in [
            (
                "cbir_router_hedges_fired_total",
                "Hedged requests fired (second replica raced after the hedge delay).",
                tier.hedges_fired,
            ),
            (
                "cbir_router_hedges_won_total",
                "Hedged requests won by the hedge (second attempt answered first).",
                tier.hedges_won,
            ),
            (
                "cbir_router_degraded_replies_total",
                "Degraded (partial shard coverage) replies sent to front clients.",
                tier.degraded_replies,
            ),
            (
                "cbir_router_breaker_opens_total",
                "Circuit-breaker open transitions across all replicas.",
                tier.breaker_opens,
            ),
            (
                "cbir_router_retry_budget_exhausted_total",
                "Failover attempts suppressed by an exhausted global retry budget.",
                tier.retry_budget_exhausted,
            ),
            (
                "cbir_router_probe_failures_total",
                "Health probes that timed out or errored.",
                tier.probe_failures,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        out.push_str(
            "# HELP cbir_router_probe_latency_microseconds Successful health-probe round-trip \
             latency (log-linear bucket bound, at most 1/16 over).\n\
             # TYPE cbir_router_probe_latency_microseconds summary\n",
        );
        let l = &tier.probe_latency;
        for (q, v) in [("0.5", l.p50_us), ("0.95", l.p95_us), ("0.99", l.p99_us)] {
            out.push_str(&format!(
                "cbir_router_probe_latency_microseconds{{quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "cbir_router_probe_latency_microseconds_sum {}\n",
            l.sum_us
        ));
        out.push_str(&format!(
            "cbir_router_probe_latency_microseconds_count {}\n",
            l.count
        ));
    }

    out.push_str(
        "# HELP cbir_query_latency_microseconds Engine call latency \
         (log-linear bucket bound, at most 1/16 over).\n\
         # TYPE cbir_query_latency_microseconds summary\n",
    );
    for (op, l) in [("knn", &snap.knn_latency), ("range", &snap.range_latency)] {
        for (q, v) in [("0.5", l.p50_us), ("0.95", l.p95_us), ("0.99", l.p99_us)] {
            out.push_str(&format!(
                "cbir_query_latency_microseconds{{op=\"{op}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "cbir_query_latency_microseconds_sum{{op=\"{op}\"}} {}\n",
            l.sum_us
        ));
        out.push_str(&format!(
            "cbir_query_latency_microseconds_count{{op=\"{op}\"}} {}\n",
            l.count
        ));
    }

    for (name, help, value) in [
        (
            "cbir_store_inserts_total",
            "Rows inserted through the live segment store.",
            snap.store.inserts,
        ),
        (
            "cbir_store_deletes_total",
            "Rows tombstoned through the live segment store.",
            snap.store.deletes,
        ),
        (
            "cbir_store_compactions_total",
            "Compactions committed by the live segment store.",
            snap.store.compactions,
        ),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, help, value) in [
        (
            "cbir_store_segments",
            "Live immutable segments.",
            snap.store.segments,
        ),
        (
            "cbir_store_memtable_rows",
            "Rows currently in the store memtable.",
            snap.store.memtable_rows,
        ),
        (
            "cbir_store_tombstones",
            "Tombstoned rows awaiting compaction.",
            snap.store.tombstones,
        ),
        (
            "cbir_store_epoch",
            "Store epoch at the last published snapshot.",
            snap.store.epoch,
        ),
    ] {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {value}\n"));
    }

    out.push_str(
        "# HELP cbir_queue_depth Requests admitted but not yet dispatched.\n\
         # TYPE cbir_queue_depth gauge\n",
    );
    out.push_str(&format!("cbir_queue_depth {}\n", snap.queue_depth));
    out.push_str(
        "# HELP cbir_epoll_wakeups_total epoll_wait returns in the event loop.\n\
         # TYPE cbir_epoll_wakeups_total counter\n",
    );
    out.push_str(&format!(
        "cbir_epoll_wakeups_total {}\n",
        snap.event_loop.epoll_wakeups
    ));
    out.push_str(
        "# HELP cbir_event_loop_conns Connections currently held by the event loop.\n\
         # TYPE cbir_event_loop_conns gauge\n",
    );
    out.push_str(&format!(
        "cbir_event_loop_conns {}\n",
        snap.event_loop.open_conns
    ));
    out.push_str(
        "# HELP cbir_pipeline_depth_max High-water mark of requests in flight on one \
         connection.\n\
         # TYPE cbir_pipeline_depth_max gauge\n",
    );
    out.push_str(&format!(
        "cbir_pipeline_depth_max {}\n",
        snap.event_loop.max_pipeline_depth
    ));
    out.push_str(
        "# HELP cbir_traces_held Traces currently in the sampling ring.\n\
         # TYPE cbir_traces_held gauge\n",
    );
    out.push_str(&format!("cbir_traces_held {}\n", snap.trace_count));
    out
}

/// One trace as a JSON object. Keys: `seq`, `op`, `index`,
/// `queries`, `total_ns`, `spans` (array of `{name, start_ns, dur_ns}`),
/// `distance_evaluations`, `nodes_visited`, `subtrees_pruned`,
/// `postfilter_candidates`, `coarse_candidates`, `rerank_evaluations`,
/// `results`.
pub fn trace_to_json(t: &QueryTrace) -> Json {
    let spans = t.spans.iter().map(|s| {
        obj! { "name": s.name, "start_ns": s.start_ns, "dur_ns": s.dur_ns }
    });
    obj! {
        "seq": t.seq, "op": t.op, "index": t.index, "queries": t.queries,
        "total_ns": t.total_ns, "spans": Json::Arr(spans.collect()),
        "distance_evaluations": t.distance_evaluations, "nodes_visited": t.nodes_visited,
        "subtrees_pruned": t.subtrees_pruned, "postfilter_candidates": t.postfilter_candidates,
        "coarse_candidates": t.coarse_candidates, "rerank_evaluations": t.rerank_evaluations,
        "results": t.results,
    }
}

/// A list of traces as a JSON object `{"traces": [...]}` (the `explain`
/// RPC payload; empty list when nothing has been sampled).
pub fn traces_to_json(traces: &[QueryTrace]) -> Json {
    obj! { "traces": Json::Arr(traces.iter().map(trace_to_json).collect()) }
}

/// Render one trace as a human-readable stage timeline.
pub fn render_trace(t: &QueryTrace) -> String {
    let mut out = format!(
        "trace #{} — {} on {} ({} quer{}, {:.3} ms total)\n",
        t.seq,
        t.op,
        t.index,
        t.queries,
        if t.queries == 1 { "y" } else { "ies" },
        t.total_ns as f64 / 1e6
    );
    for s in &t.spans {
        let share = if t.total_ns > 0 {
            s.dur_ns as f64 / t.total_ns as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<10} +{:>9.3} ms  {:>9.3} ms  {share:>5.1}%\n",
            s.name,
            s.start_ns as f64 / 1e6,
            s.dur_ns as f64 / 1e6,
        ));
    }
    out.push_str(&format!(
        "  counters: {} distance evaluations, {} nodes visited, {} subtrees pruned, \
         {} postfilter candidates, {} results\n",
        t.distance_evaluations,
        t.nodes_visited,
        t.subtrees_pruned,
        t.postfilter_candidates,
        t.results
    ));
    if t.coarse_candidates > 0 || t.rerank_evaluations > 0 {
        out.push_str(&format!(
            "  approx: {} coarse candidates, {} rerank evaluations\n",
            t.coarse_candidates, t.rerank_evaluations
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSpan;
    use crate::{IndexCounters, StageCounters};

    fn snap() -> ObsSnapshot {
        ObsSnapshot {
            enabled: true,
            trace_sample_n: 1,
            queue_depth: 2,
            indexes: vec![IndexCounters {
                index: "vp-tree",
                queries: 3,
                distance_evaluations: 40,
                nodes_visited: 12,
                subtrees_pruned: 7,
                postfilter_candidates: 33,
                coarse_candidates: 21,
                rerank_evaluations: 20,
                results: 9,
            }],
            stages: vec![StageCounters {
                stage: "resize",
                hits: 1,
                misses: 2,
                nanos: 5000,
            }],
            knn_latency: LatencySummary {
                count: 3,
                sum_us: 900,
                p50_us: 255,
                p95_us: 511,
                p99_us: 511,
            },
            range_latency: LatencySummary::default(),
            store: crate::StoreCounters {
                inserts: 11,
                deletes: 2,
                compactions: 1,
                segments: 3,
                memtable_rows: 7,
                tombstones: 1,
                epoch: 14,
            },
            event_loop: crate::EventLoopCounters {
                epoll_wakeups: 17,
                open_conns: 4,
                max_pipeline_depth: 3,
            },
            router: vec![
                crate::RouterReplicaCounters {
                    shard: 0,
                    role: "primary".to_string(),
                    requests: 42,
                    failures: 1,
                    failovers: 1,
                    shed: 2,
                    healthy: true,
                    breaker_open: false,
                    probe_rejoins: 0,
                    latency: LatencySummary {
                        count: 42,
                        sum_us: 8400,
                        p50_us: 127,
                        p95_us: 255,
                        p99_us: 255,
                    },
                },
                crate::RouterReplicaCounters {
                    shard: 1,
                    role: "backup-1".to_string(),
                    requests: 5,
                    failures: 0,
                    failovers: 0,
                    shed: 0,
                    healthy: false,
                    breaker_open: true,
                    probe_rejoins: 3,
                    latency: LatencySummary::default(),
                },
            ],
            router_tier: crate::RouterTierCounters {
                hedges_fired: 6,
                hedges_won: 4,
                degraded_replies: 2,
                breaker_opens: 1,
                retry_budget_exhausted: 5,
                probe_failures: 7,
                probe_latency: LatencySummary {
                    count: 9,
                    sum_us: 1800,
                    p50_us: 127,
                    p95_us: 255,
                    p99_us: 255,
                },
            },
            trace_count: 1,
        }
    }

    /// `to_json(&snap())` as the hand-formatted writer rendered it at
    /// the parent of the commit that made it build a `Json` value.
    const GOLDEN_STATS: &str = r#"{
  "enabled": true,
  "trace_sample_n": 1,
  "queue_depth": 2,
  "indexes": [
    {"index": "vp-tree", "queries": 3, "distance_evaluations": 40, "nodes_visited": 12, "subtrees_pruned": 7, "postfilter_candidates": 33, "coarse_candidates": 21, "rerank_evaluations": 20, "results": 9}
  ],
  "stages": [
    {"stage": "resize", "hits": 1, "misses": 2, "nanos": 5000}
  ],
  "latency": {"knn": {"count": 3, "sum_us": 900, "p50_us": 255, "p95_us": 511, "p99_us": 511}, "range": {"count": 0, "sum_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0}},
  "store": {"inserts": 11, "deletes": 2, "compactions": 1, "segments": 3, "memtable_rows": 7, "tombstones": 1, "epoch": 14},
  "event_loop": {"epoll_wakeups": 17, "open_conns": 4, "max_pipeline_depth": 3},
  "router": [
    {"shard": 0, "replica": "primary", "requests": 42, "failures": 1, "failovers": 1, "shed": 2, "healthy": true, "breaker_open": false, "probe_rejoins": 0, "latency": {"count": 42, "sum_us": 8400, "p50_us": 127, "p95_us": 255, "p99_us": 255}},
    {"shard": 1, "replica": "backup-1", "requests": 5, "failures": 0, "failovers": 0, "shed": 0, "healthy": false, "breaker_open": true, "probe_rejoins": 3, "latency": {"count": 0, "sum_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0}}
  ],
  "router_tier": {"hedges_fired": 6, "hedges_won": 4, "degraded_replies": 2, "breaker_opens": 1, "retry_budget_exhausted": 5, "probe_failures": 7, "probe_latency": {"count": 9, "sum_us": 1800, "p50_us": 127, "p95_us": 255, "p99_us": 255}},
  "trace_count": 1
}"#;

    /// `traces_to_json(&[trace()])`, captured the same way.
    const GOLDEN_TRACES: &str = r#"{"traces": [
  {"seq": 4, "op": "knn", "index": "kd-tree", "queries": 1, "total_ns": 2000000, "spans": [{"name": "extract", "start_ns": 0, "dur_ns": 1500000}, {"name": "search", "start_ns": 1500000, "dur_ns": 500000}], "distance_evaluations": 20, "nodes_visited": 8, "subtrees_pruned": 3, "postfilter_candidates": 16, "coarse_candidates": 0, "rerank_evaluations": 0, "results": 10}
]}"#;

    #[test]
    fn json_matches_the_hand_formatted_golden() {
        // Same keys, same key order, same numbers.
        assert_eq!(Json::parse(GOLDEN_STATS), Ok(to_json(&snap())));
        assert_eq!(
            Json::parse(GOLDEN_TRACES),
            Ok(traces_to_json(std::slice::from_ref(&trace())))
        );
        // router_tier is always present, even with no registered replicas.
        let mut bare = snap();
        bare.router.clear();
        let bare = to_json(&bare);
        assert_eq!(bare.get("router"), Some(&Json::Arr(vec![])));
        assert!(bare.get("router_tier").is_some());
        assert_eq!(traces_to_json(&[]).render(), r#"{"traces": []}"#);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let p = to_prometheus(&snap());
        assert!(p.ends_with('\n'));
        for line in p.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            // Sample lines: metric_name[{labels}] value
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line}"
            );
            if let Some(rest) = name_part.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                }
            }
        }
        assert!(p.contains("cbir_index_subtrees_pruned_total{index=\"vp-tree\"} 7"));
        assert!(p.contains("cbir_index_coarse_candidates_total{index=\"vp-tree\"} 21"));
        assert!(p.contains("cbir_index_rerank_evaluations_total{index=\"vp-tree\"} 20"));
        assert!(p.contains("cbir_queue_depth 2"));
        assert!(p.contains("quantile=\"0.99\""));
        assert!(p.contains("cbir_store_inserts_total 11"));
        assert!(p.contains("cbir_store_segments 3"));
        assert!(p.contains("cbir_store_epoch 14"));
    }

    // Schema test for the router metric family: every metric name the
    // router tier adds must appear with the shard + replica-role labels,
    // and the labels must carry the fixture's values.
    #[test]
    fn prometheus_router_metrics_carry_shard_and_replica_labels() {
        let p = to_prometheus(&snap());
        for name in [
            "cbir_router_requests_total",
            "cbir_router_failures_total",
            "cbir_router_failovers_total",
            "cbir_router_shed_total",
            "cbir_router_replica_probe_rejoins_total",
            "cbir_router_replica_healthy",
            "cbir_router_replica_breaker_open",
        ] {
            assert!(
                p.contains(&format!("{name}{{shard=\"0\",replica=\"primary\"}}")),
                "missing primary sample for {name}"
            );
            assert!(
                p.contains(&format!("{name}{{shard=\"1\",replica=\"backup-1\"}}")),
                "missing backup sample for {name}"
            );
        }
        assert!(p.contains("cbir_router_requests_total{shard=\"0\",replica=\"primary\"} 42"));
        assert!(p.contains("cbir_router_replica_healthy{shard=\"1\",replica=\"backup-1\"} 0"));
        assert!(p.contains(
            "cbir_router_replica_latency_microseconds{shard=\"0\",replica=\"primary\",quantile=\"0.5\"} 127"
        ));
        assert!(p.contains(
            "cbir_router_replica_latency_microseconds_count{shard=\"0\",replica=\"primary\"} 42"
        ));
        assert!(p.contains("cbir_router_replica_breaker_open{shard=\"1\",replica=\"backup-1\"} 1"));
        assert!(p.contains(
            "cbir_router_replica_probe_rejoins_total{shard=\"1\",replica=\"backup-1\"} 3"
        ));
        // Tier-level hedging/degradation counters ride in the same
        // router-gated family.
        assert!(p.contains("cbir_router_hedges_fired_total 6"));
        assert!(p.contains("cbir_router_hedges_won_total 4"));
        assert!(p.contains("cbir_router_degraded_replies_total 2"));
        assert!(p.contains("cbir_router_breaker_opens_total 1"));
        assert!(p.contains("cbir_router_retry_budget_exhausted_total 5"));
        assert!(p.contains("cbir_router_probe_failures_total 7"));
        assert!(p.contains("cbir_router_probe_latency_microseconds{quantile=\"0.99\"} 255"));
        assert!(p.contains("cbir_router_probe_latency_microseconds_count 9"));
        // A snapshot with no registered replicas emits no router family
        // at all (no empty HELP/TYPE stubs).
        let mut bare = snap();
        bare.router.clear();
        assert!(!to_prometheus(&bare).contains("cbir_router_"));
    }

    fn trace() -> QueryTrace {
        QueryTrace {
            seq: 4,
            op: "knn",
            index: "kd-tree",
            queries: 1,
            total_ns: 2_000_000,
            spans: vec![
                TraceSpan {
                    name: "extract",
                    start_ns: 0,
                    dur_ns: 1_500_000,
                },
                TraceSpan {
                    name: "search",
                    start_ns: 1_500_000,
                    dur_ns: 500_000,
                },
            ],
            distance_evaluations: 20,
            nodes_visited: 8,
            subtrees_pruned: 3,
            postfilter_candidates: 16,
            coarse_candidates: 0,
            rerank_evaluations: 0,
            results: 10,
        }
    }

    #[test]
    fn trace_rendering() {
        let r = render_trace(&trace());
        assert!(r.contains("extract"));
        assert!(r.contains("75.0%"));
    }

    #[test]
    fn escaping() {
        assert_eq!(prom_escape("r*-tree"), "r*-tree");
        assert_eq!(prom_escape("a\"b"), "a\\\"b");
    }
}
