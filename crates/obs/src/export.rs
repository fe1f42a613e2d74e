//! Export surfaces: the JSON documents (built as [`Json`] values) and
//! Prometheus text exposition.

use crate::trace::QueryTrace;
use crate::{obj, Counters, Json, Kind, LatencySummary, ObsSnapshot, SnapshotCounter};
use crate::{EventLoopCounters, IndexCounters, StageCounters, StoreCounters};
use crate::{RouterReplicaCounters, RouterTierCounters};
use std::fmt::Write as _;

fn latency(l: &LatencySummary) -> Json {
    let pair = |&(b, c): &(u64, u64)| Json::Arr(vec![b.into(), c.into()]);
    obj! { "count": l.count, "sum_us": l.sum_us, "p50_us": l.p50_us, "p95_us": l.p95_us,
    "p99_us": l.p99_us, "buckets": Json::Arr(l.buckets.iter().map(pair).collect()) }
}

/// The summary a [`latency`] object holds, read back from its buckets;
/// `None` for anything else.
fn latency_of(members: &[(String, Json)]) -> Option<LatencySummary> {
    let get = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let num = |v: &Json| match v {
        Json::Num(n) => Some(*n as u64),
        _ => None,
    };
    let Some(Json::Arr(pairs)) = get("buckets") else {
        return None;
    };
    let buckets = pairs.iter().map(|p| match p {
        Json::Arr(p) if p.len() == 2 => Some((num(&p[0])?, num(&p[1])?)),
        _ => None,
    });
    Some(LatencySummary::of_buckets(
        buckets.collect::<Option<_>>()?,
        num(get("sum_us")?)?,
    ))
}

/// The [`Kind`] of the counter `key` names in a snapshot's tables.
fn kind_of(key: &str) -> Option<Kind> {
    [
        ObsSnapshot::TABLE,
        IndexCounters::TABLE,
        StageCounters::TABLE,
        StoreCounters::TABLE,
        EventLoopCounters::TABLE,
        RouterReplicaCounters::TABLE,
        RouterTierCounters::TABLE,
    ]
    .into_iter()
    .flatten()
    .find(|f| f.key == key)
    .map(|f| f.kind)
}

/// Merge two [`to_json`] documents (a router's fan-in of its own and its
/// backends') by [`ObsSnapshot::merge`]'s rules: a number under a key
/// some counter table names merges by its [`Kind`], and a latency
/// summary's buckets add by bound, its quantiles read off the sum. What
/// no table knows merges structurally, so a field this build has never
/// heard of still shows: objects union their keys (first document's
/// order, new keys appended), equal-length arrays merge element-wise
/// (the fixed per-index and per-stage rows), unequal ones — and the
/// per-replica `router` rows always — concatenate, booleans OR, `null`
/// yields, and anything else (a string, a number no table names,
/// mismatched types) keeps the first document's value.
pub fn merge_json(a: Json, b: Json) -> Json {
    match (a, b) {
        (Json::Null, b) => b,
        (a, Json::Null) => a,
        (Json::Bool(x), Json::Bool(y)) => Json::Bool(x || y),
        (Json::Obj(mut out), Json::Obj(bf)) => {
            let summary = latency_of(&out).zip(latency_of(&bf)).map(|(mut x, y)| {
                x.merge(&y);
                latency(&x)
            });
            let slot = |out: &[(String, Json)], k: &str| out.iter().position(|(ok, _)| ok == k);
            for (k, bv) in bf {
                let Some(i) = slot(&out, &k) else {
                    out.push((k, bv));
                    continue;
                };
                out[i].1 = match (kind_of(&k), std::mem::take(&mut out[i].1), bv) {
                    (Some(kind), Json::Num(x), Json::Num(y)) => {
                        Json::from(kind.merge(x as u64, y as u64))
                    }
                    // A replica row belongs to one router, however many
                    // rows the other document has.
                    (_, Json::Arr(mut x), Json::Arr(y)) if k == "router" => {
                        x.extend(y);
                        Json::Arr(x)
                    }
                    (_, av, bv) => merge_json(av, bv),
                };
            }
            if let Some(Json::Obj(known)) = summary {
                for (k, v) in known {
                    let i = slot(&out, &k).expect("a merged summary keeps its keys");
                    out[i].1 = v;
                }
            }
            Json::Obj(out)
        }
        (Json::Arr(ai), Json::Arr(bi)) if ai.len() == bi.len() => Json::Arr(
            ai.into_iter()
                .zip(bi)
                .map(|(x, y)| merge_json(x, y))
                .collect(),
        ),
        (Json::Arr(mut ai), Json::Arr(bi)) => {
            ai.extend(bi);
            Json::Arr(ai)
        }
        (a, _) => a,
    }
}

/// A JSON object of `head`'s members, then `c`'s counters in table
/// order (a flag as a boolean), then `tail`'s members.
fn counters_obj<C: Counters>(head: Json, c: &C, tail: Json) -> Json {
    let counters = C::TABLE.iter().zip(c.values()).map(|(f, v)| {
        let v = if f.kind == Kind::Flag {
            Json::Bool(v != 0)
        } else {
            Json::from(v)
        };
        (f.key.to_string(), v)
    });
    let members = |part: Json| match part {
        Json::Obj(members) => members,
        _ => Vec::new(),
    };
    let mut out = members(head);
    out.extend(counters);
    out.extend(members(tail));
    Json::Obj(out)
}

/// A registry snapshot as a JSON object.
///
/// Top-level keys: `enabled`, `trace_sample_n`, `queue_depth`, `indexes`
/// (array, one object per [`crate::INDEX_NAMES`] slot), `stages` (array,
/// one object per [`crate::Stage`]), `latency` (object with `knn` and
/// `range` summaries), `store`, `event_loop` (the serving instance's
/// epoll counters), `router` (array, one object per
/// registered router backend replica; empty outside a router),
/// `router_tier` (hedging/degradation counters; all-zero outside a
/// router), `trace_count`. Counter members are named and ordered by
/// their family's table. A latency summary carries its histogram as
/// `buckets`, `[inclusive upper bound, count]` pairs, so documents merge
/// exactly ([`merge_json`]).
pub fn to_json(snap: &ObsSnapshot) -> Json {
    let indexes = snap
        .indexes
        .iter()
        .map(|s| counters_obj(obj! { "index": s.index }, s, obj! {}));
    let stages = snap
        .stages
        .iter()
        .map(|s| counters_obj(obj! { "stage": s.stage }, s, obj! {}));
    let router = snap.router.iter().map(|r| {
        counters_obj(
            obj! { "shard": r.shard, "replica": r.role.as_str() },
            r,
            obj! { "latency": latency(&r.latency) },
        )
    });
    let tier = &snap.router_tier;
    obj! {
        "enabled": snap.enabled,
        "trace_sample_n": snap.trace_sample_n,
        "queue_depth": snap.queue_depth,
        "indexes": Json::Arr(indexes.collect()),
        "stages": Json::Arr(stages.collect()),
        "latency": obj! { "knn": latency(&snap.knn_latency),
                          "range": latency(&snap.range_latency) },
        "store": counters_obj(obj! {}, &snap.store, obj! {}),
        "event_loop": counters_obj(obj! {}, &snap.event_loop, obj! {}),
        "router": Json::Arr(router.collect()),
        "router_tier": counters_obj(obj! {}, tier,
                                    obj! { "probe_latency": latency(&tier.probe_latency) }),
        "trace_count": snap.trace_count,
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One sample line; `labels` is the inside of the braces, if any.
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// A counter family: its counters, then its gauges, each in table
/// order, one sample per labelled member.
fn family<C: Counters>(out: &mut String, members: &[(String, &C)]) {
    let values: Vec<Vec<u64>> = members.iter().map(|(_, c)| c.values()).collect();
    for counters in [true, false] {
        for (i, f) in C::TABLE.iter().enumerate() {
            if (f.kind == Kind::Counter) != counters {
                continue;
            }
            header(
                out,
                f.prom,
                f.help,
                if counters { "counter" } else { "gauge" },
            );
            for ((labels, _), v) in members.iter().zip(&values) {
                sample(out, f.prom, labels, v[i]);
            }
        }
    }
}

/// A latency summary family: p50/p95/p99, sum and count per member.
fn summary(out: &mut String, name: &str, help: &str, members: &[(&str, &LatencySummary)]) {
    header(
        out,
        name,
        &format!("{help} (log-linear bucket bound, at most 1/16 over)."),
        "summary",
    );
    for &(labels, l) in members {
        let sep = if labels.is_empty() { "" } else { "," };
        for (q, v) in [("0.5", l.p50_us), ("0.95", l.p95_us), ("0.99", l.p99_us)] {
            sample(out, name, &format!("{labels}{sep}quantile=\"{q}\""), v);
        }
        sample(out, &format!("{name}_sum"), labels, l.sum_us);
        sample(out, &format!("{name}_count"), labels, l.count);
    }
}

/// Render a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP`/`# TYPE` comment pairs followed by
/// `name{labels} value` sample lines, ending with a trailing newline.
/// Counter names and help texts come from the families' tables.
pub fn to_prometheus(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    let labelled = |key: &str, value: &str| format!("{key}=\"{}\"", prom_escape(value));
    let indexes: Vec<_> = snap
        .indexes
        .iter()
        .map(|s| (labelled("index", s.index), s))
        .collect();
    family(&mut out, &indexes);
    let stages: Vec<_> = snap
        .stages
        .iter()
        .map(|s| (labelled("stage", s.stage), s))
        .collect();
    family(&mut out, &stages);

    if !snap.router.is_empty() {
        let replicas: Vec<_> = snap
            .router
            .iter()
            .map(|r| {
                (
                    format!("shard=\"{}\",{}", r.shard, labelled("replica", &r.role)),
                    r,
                )
            })
            .collect();
        family(&mut out, &replicas);
        let latencies: Vec<_> = replicas
            .iter()
            .map(|(l, r)| (l.as_str(), &r.latency))
            .collect();
        summary(
            &mut out,
            "cbir_router_replica_latency_microseconds",
            "Per-replica request latency",
            &latencies,
        );
        family(&mut out, &[(String::new(), &snap.router_tier)]);
        summary(
            &mut out,
            "cbir_router_probe_latency_microseconds",
            "Successful health-probe round-trip latency",
            &[("", &snap.router_tier.probe_latency)],
        );
    }

    summary(
        &mut out,
        "cbir_query_latency_microseconds",
        "Engine call latency",
        &[
            ("op=\"knn\"", &snap.knn_latency),
            ("op=\"range\"", &snap.range_latency),
        ],
    );
    family(&mut out, &[(String::new(), &snap.store)]);
    let gauge = |out: &mut String, row: SnapshotCounter| {
        let f = &ObsSnapshot::TABLE[row as usize];
        header(out, f.prom, f.help, "gauge");
        sample(out, f.prom, "", snap.values()[row as usize]);
    };
    gauge(&mut out, SnapshotCounter::QueueDepth);
    family(&mut out, &[(String::new(), &snap.event_loop)]);
    gauge(&mut out, SnapshotCounter::TraceCount);
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
                buckets: vec![(255, 2), (511, 1)],
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
                        buckets: vec![(127, 21), (255, 21)],
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
                    buckets: vec![(127, 5), (255, 4)],
                },
            },
            trace_count: 1,
        }
    }

    /// `to_json(&snap())` as the hand-formatted writer rendered it at
    /// the parent of the commit that made it build a `Json` value, plus
    /// the `buckets` member every latency summary has carried since.
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
  "latency": {"knn": {"count": 3, "sum_us": 900, "p50_us": 255, "p95_us": 511, "p99_us": 511, "buckets": [[255, 2], [511, 1]]}, "range": {"count": 0, "sum_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0, "buckets": []}},
  "store": {"inserts": 11, "deletes": 2, "compactions": 1, "segments": 3, "memtable_rows": 7, "tombstones": 1, "epoch": 14},
  "event_loop": {"epoll_wakeups": 17, "open_conns": 4, "max_pipeline_depth": 3},
  "router": [
    {"shard": 0, "replica": "primary", "requests": 42, "failures": 1, "failovers": 1, "shed": 2, "healthy": true, "breaker_open": false, "probe_rejoins": 0, "latency": {"count": 42, "sum_us": 8400, "p50_us": 127, "p95_us": 255, "p99_us": 255, "buckets": [[127, 21], [255, 21]]}},
    {"shard": 1, "replica": "backup-1", "requests": 5, "failures": 0, "failovers": 0, "shed": 0, "healthy": false, "breaker_open": true, "probe_rejoins": 3, "latency": {"count": 0, "sum_us": 0, "p50_us": 0, "p95_us": 0, "p99_us": 0, "buckets": []}}
  ],
  "router_tier": {"hedges_fired": 6, "hedges_won": 4, "degraded_replies": 2, "breaker_opens": 1, "retry_budget_exhausted": 5, "probe_failures": 7, "probe_latency": {"count": 9, "sum_us": 1800, "p50_us": 127, "p95_us": 255, "p99_us": 255, "buckets": [[127, 5], [255, 4]]}},
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
    fn merge_json_agrees_with_the_snapshot_merge() {
        let a = snap();
        let mut b = snap();
        b.event_loop.max_pipeline_depth = 9;
        b.knn_latency = LatencySummary::of_buckets(vec![(7, 4), (511, 1)], 541);
        b.router[0].healthy = false;
        b.trace_sample_n = 4;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merge_json(to_json(&a), to_json(&b)), to_json(&merged));
        // Counters sum, peaks take the larger, flags OR, replica rows
        // append, and quantiles come from the summed buckets.
        assert_eq!(merged.indexes[0].queries, 6);
        assert_eq!(merged.event_loop.max_pipeline_depth, 9);
        assert_eq!(merged.trace_sample_n, 4);
        assert_eq!(merged.router.len(), 4);
        assert!(merged.router[0].healthy && !merged.router[2].healthy);
        let knn = &merged.knn_latency;
        assert_eq!(knn.buckets, vec![(7, 4), (255, 2), (511, 2)]);
        assert_eq!(
            (knn.count, knn.sum_us, knn.p50_us, knn.p95_us),
            (8, 1441, 7, 511)
        );
        // A key no table names keeps the first document's value, and a
        // key only one side has still shows.
        let with = |key: &str, v: u64| match to_json(&a) {
            Json::Obj(mut m) => {
                m.push((key.to_string(), Json::from(v)));
                Json::Obj(m)
            }
            _ => unreachable!(),
        };
        let m = merge_json(with("shiny", 1), with("shiny", 2));
        assert_eq!(m.get("shiny"), Some(&Json::Num(1.0)));
        let m = merge_json(to_json(&a), with("newer", 5));
        assert_eq!(m.get("newer"), Some(&Json::Num(5.0)));
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

    /// `to_prometheus(&snap())` byte for byte, as the hand-written
    /// exporter rendered it: family order, HELP/TYPE pairs, label order
    /// and the trailing newline.
    #[test]
    fn prometheus_matches_the_golden_text() {
        assert_eq!(
            to_prometheus(&snap()),
            include_str!("../tests/data/snap.prom")
        );
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
