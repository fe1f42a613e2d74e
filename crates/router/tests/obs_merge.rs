//! A tier's `ObsStats` add up: each node and router records into its
//! own registry, so a router and its backends in one process count a
//! query once, and the router's merged document combines each counter
//! by its table kind and each latency by its buckets.

use cbir_core::{split_database, ImageDatabase, ImageMeta, IndexKind, QueryEngine, ShardPlan};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_obs::Json;
use cbir_router::jsonmerge::merge_documents;
use cbir_router::{Router, RouterConfig, RouterHandle, ROUTE_WORKERS};
use cbir_server::chaosnet::{ChaosHandle, ChaosProxy, WireMode};
use cbir_server::protocol::{Request, Response};
use cbir_server::{Client, SchedulerConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// A 24-row corpus split over two shards, each served by one `Linear`
/// node in this process.
fn tier() -> (ImageDatabase, ShardPlan, Vec<ServerHandle>) {
    let pipeline = Pipeline::color_histogram_default();
    let dim = pipeline.dim();
    let rows = cbir_workload::histograms(24, dim, 1.0, 7);
    let metas = (0..rows.len())
        .map(|i| ImageMeta {
            name: format!("img-{i}"),
            label: None,
        })
        .collect();
    let union = ImageDatabase::from_parts(pipeline, false, rows.concat(), metas).unwrap();
    let plan = ShardPlan::new(cbir_core::ShardScheme::Mod, dim, 24, 2).unwrap();
    let backends = split_database(&union, &plan)
        .unwrap()
        .into_iter()
        .map(|db| {
            let engine = Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap());
            Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default()).unwrap()
        })
        .collect();
    (union, plan, backends)
}

fn route(plan: &ShardPlan, addrs: Vec<String>, config: RouterConfig) -> RouterHandle {
    let addrs = addrs.into_iter().map(|a| vec![a]).collect();
    Router::spawn(plan.clone(), addrs, "127.0.0.1:0", config).unwrap()
}

fn addrs(backends: &[ServerHandle]) -> Vec<String> {
    backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect()
}

/// Send the first four rows as k-NN queries through `router`.
fn four_knn(router: &RouterHandle, union: &ImageDatabase) {
    let mut client = Client::connect(router.local_addr()).unwrap();
    for id in 0..4 {
        let q = union.descriptor(id).unwrap();
        assert_eq!(client.knn(q, 3, 0, 1.0).unwrap().len(), 3);
    }
}

fn num(doc: &Json, path: &[&str]) -> u64 {
    let v = path
        .iter()
        .fold(doc, |v, k| v.get(k).unwrap_or_else(|| panic!("no {k}")));
    match v {
        Json::Num(n) => *n as u64,
        other => panic!("{path:?} is {other:?}"),
    }
}

fn linear_queries(doc: &Json) -> u64 {
    let Some(Json::Arr(rows)) = doc.get("indexes") else {
        panic!("no indexes in {doc:?}");
    };
    let linear = rows
        .iter()
        .find(|r| r.get("index") == Some(&Json::Str("linear".into())))
        .expect("a linear row");
    num(linear, &["queries"])
}

/// A latency summary's `buckets` as `(bound, count)` pairs.
fn buckets(summary: &Json) -> Vec<(u64, u64)> {
    let Some(Json::Arr(pairs)) = summary.get("buckets") else {
        panic!("no buckets in {summary:?}");
    };
    pairs
        .iter()
        .map(|p| match p {
            Json::Arr(p) => match (&p[0], &p[1]) {
                (Json::Num(b), Json::Num(c)) => (*b as u64, *c as u64),
                other => panic!("bad bucket {other:?}"),
            },
            other => panic!("bad bucket {other:?}"),
        })
        .collect()
}

/// `doc` without the sections that reading the parts moves: every
/// fetch is one more wake of each loop (`event_loop`) and, through the
/// router, one more request per replica (`router`).
fn stable(doc: Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "event_loop" && k != "router")
                .collect(),
        ),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn routed_obs_stats_count_each_query_once_and_merge_by_kind() {
    let (union, plan, backends) = tier();
    let router = route(&plan, addrs(&backends), RouterConfig::default());
    four_knn(&router, &union);

    let mut client = Client::connect(router.local_addr()).unwrap();
    let routed = Json::parse(&client.obs_stats(false).unwrap()).unwrap();
    let parts: Vec<Json> = backends
        .iter()
        .map(|b| {
            let doc = Client::connect(b.local_addr())
                .unwrap()
                .obs_stats(false)
                .unwrap();
            Json::parse(&doc).unwrap()
        })
        .collect();
    let own = router.snapshot();

    // Every k-NN runs on both shards: 8 engine calls, each counted once.
    let executed: u64 = backends.iter().map(|b| b.metrics().executed).sum();
    assert_eq!(executed, 8);
    assert_eq!(linear_queries(&routed), executed);
    assert_eq!(num(&routed, &["latency", "knn", "count"]), 8);
    // The quantile is read off the summed buckets.
    let mut summed: Vec<(u64, u64)> = Vec::new();
    for part in &parts {
        for (bound, count) in buckets(part.get("latency").unwrap().get("knn").unwrap()) {
            match summed.iter_mut().find(|(b, _)| *b == bound) {
                Some((_, c)) => *c += count,
                None => summed.push((bound, count)),
            }
        }
    }
    summed.sort_unstable();
    let knn = routed.get("latency").unwrap().get("knn").unwrap();
    assert_eq!(buckets(knn), summed);
    let mut seen = 0;
    let p50 = summed
        .iter()
        .find(|&&(_, c)| {
            seen += c;
            seen >= 4
        })
        .unwrap()
        .0;
    assert_eq!(num(knn, &["p50_us"]), p50);
    // A high-water mark is the largest part's, not their sum.
    let depths = parts
        .iter()
        .map(|p| num(p, &["event_loop", "max_pipeline_depth"]))
        .chain([own.event_loop.max_pipeline_depth]);
    assert_eq!(
        num(&routed, &["event_loop", "max_pipeline_depth"]),
        depths.max().unwrap()
    );
    // And the routed document is the merge of its parts.
    let replicas = match routed.get("router") {
        Some(Json::Arr(rows)) => rows.len(),
        other => panic!("no router section: {other:?}"),
    };
    assert_eq!(replicas, 2, "one row per registered replica");
    let parts: Vec<String> = parts.iter().map(Json::render).collect();
    let merged = merge_documents(cbir_obs::to_json(&own), &parts).unwrap();
    assert_eq!(stable(routed), stable(merged));

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn two_routers_in_one_process_keep_their_own_replica_rows() {
    let (union, plan, backends) = tier();
    let used = route(&plan, addrs(&backends), RouterConfig::default());
    let idle = route(&plan, addrs(&backends), RouterConfig::default());
    four_knn(&used, &union);

    let (used_rows, idle_rows) = (used.snapshot().router, idle.snapshot().router);
    assert_eq!((used_rows.len(), idle_rows.len()), (2, 2));
    assert!(used_rows.iter().all(|r| r.requests == 4), "{used_rows:?}");
    assert!(idle_rows.iter().all(|r| r.requests == 0), "{idle_rows:?}");

    used.shutdown();
    idle.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn the_process_view_keeps_a_routers_rows_after_it_stops() {
    let (union, plan, backends) = tier();
    // Shard 1 at an address nobody listens on: every reply is degraded.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap().to_string();
    drop(dead);
    let config = RouterConfig {
        allow_partial: true,
        ..RouterConfig::default()
    };
    let router = route(&plan, vec![addrs(&backends)[0].clone(), dead_addr], config);
    four_knn(&router, &union);
    let own = router.snapshot();
    router.shutdown();

    assert_eq!(own.router_tier.degraded_replies, 4);
    let process = cbir_obs::snapshot();
    for row in &own.router {
        assert!(process.router.contains(row), "{row:?} missing");
    }
    assert!(process.router_tier.degraded_replies >= 4);
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn a_router_reports_its_route_queue_depth() {
    let (union, plan, backends) = tier();
    // Every backend round trip waits on the proxies, so a burst longer
    // than the route workers leaves requests queued.
    let proxies: Vec<ChaosHandle> = addrs(&backends)
        .into_iter()
        .map(|a| {
            ChaosProxy::spawn(a, WireMode::Delay(Duration::from_millis(20)), "127.0.0.1:0").unwrap()
        })
        .collect();
    let proxied = proxies.iter().map(|p| p.local_addr().to_string()).collect();
    let router = route(&plan, proxied, RouterConfig::default());

    let mut client = Client::connect(router.local_addr()).unwrap();
    let query = union.descriptor(0).unwrap().to_vec();
    let burst = ROUTE_WORKERS + 8;
    for i in 0..2 * burst + 1 {
        let request = if i == burst {
            // The router's own export: its JSON adds its backends'.
            Request::ObsStats { prometheus: true }
        } else {
            Request::Knn {
                k: 3,
                deadline_us: 0,
                recall_target: 1.0,
                descriptor: query.clone(),
            }
        };
        client.send(&request).unwrap();
    }
    let mut depth = None;
    for i in 0..2 * burst + 1 {
        match client.recv().unwrap() {
            Response::ObsText(text) if i == burst => {
                let line = text.lines().find(|l| l.starts_with("cbir_queue_depth "));
                depth = line.and_then(|l| l[17..].parse::<u64>().ok());
            }
            Response::Hits { hits, .. } => assert_eq!(hits.len(), 3),
            other => panic!("reply {i}: {other:?}"),
        }
    }
    let depth = depth.expect("the ObsStats reply");
    assert!(
        depth > 0,
        "queue_depth {depth} with {burst} requests behind it"
    );

    router.shutdown();
    for p in proxies {
        p.shutdown();
    }
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn a_routed_explain_lists_each_backends_traces_once() {
    let (union, plan, backends) = tier();
    let router = route(&plan, addrs(&backends), RouterConfig::default());
    cbir_obs::set_trace_sample_n(1);
    four_knn(&router, &union);

    let explain = Client::connect(router.local_addr())
        .unwrap()
        .explain()
        .unwrap();
    let traces = match Json::parse(&explain).unwrap().get("traces") {
        Some(Json::Arr(traces)) => traces.len(),
        other => panic!("no traces: {other:?}"),
    };
    // One per backend per query.
    assert_eq!(traces, 8, "{explain}");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
