//! A router's merged `ObsStats` document is the merge of its parts: its
//! own snapshot plus each backend's document, under `jsonmerge::merge`.
//! Alone in its test binary so nothing else records into the
//! process-wide registry while the parts are read.

use cbir_core::{split_database, ImageDatabase, ImageMeta, IndexKind, QueryEngine, ShardPlan};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_obs::Json;
use cbir_router::jsonmerge::merge_documents;
use cbir_router::{Router, RouterConfig};
use cbir_server::{Client, SchedulerConfig, Server};
use std::sync::Arc;

/// `doc` without the sections that reading the parts moves: every
/// fetch is one more wake of each backend's loop (`event_loop`) and,
/// through the router, one more request per replica (`router`).
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
fn router_obs_stats_equal_the_merge_of_its_parts() {
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
    let backends: Vec<_> = split_database(&union, &plan)
        .unwrap()
        .into_iter()
        .map(|db| {
            let engine = Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap());
            Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default()).unwrap()
        })
        .collect();
    let addrs = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    for id in 0..4 {
        let q = union.descriptor(id).unwrap();
        assert_eq!(client.knn(q, 3, 0, 1.0).unwrap().len(), 3);
    }

    let routed = Json::parse(&client.obs_stats(false).unwrap()).unwrap();
    let parts: Vec<String> = backends
        .iter()
        .map(|b| {
            Client::connect(b.local_addr())
                .unwrap()
                .obs_stats(false)
                .unwrap()
        })
        .collect();
    let own = cbir_obs::to_json(&cbir_obs::snapshot());
    let merged = merge_documents(own, &parts).unwrap();

    let replicas = match routed.get("router") {
        Some(Json::Arr(rows)) => rows.len(),
        other => panic!("no router section: {other:?}"),
    };
    assert_eq!(replicas, 2, "one row per registered replica");
    assert_eq!(stable(routed), stable(merged));

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
