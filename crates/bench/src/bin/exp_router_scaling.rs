//! **F15 — scatter-gather scaling and failover: the router tier.**
//!
//! The union corpus (synthetic histograms with deliberate bit-exact
//! duplicate rows, so distance ties cross shard boundaries) is split by
//! the deterministic [`ShardPlan`] arithmetic and served three ways: one
//! node, 2 shards, 4 shards — each shard a single-threaded linear-scan
//! backend behind the router. Per-query work is a full scan of the
//! shard, so the tier's promise is concrete: 4 shards scan a quarter of
//! the rows each, in parallel.
//!
//! Two scaling gates, because co-located shards are not a cluster:
//!
//! * **Per-node work** (asserted everywhere): the rows one query makes a
//!   backend score — bounded from the L1 filter's codes or evaluated in
//!   full, `subtrees_pruned + distance_evaluations` of the process-wide
//!   `cbir_obs` registry per sub-request — must drop >= 3x from 1 shard
//!   to 4: exactly the quantity a deployment's per-node latency and
//!   capacity follow. (Full evaluations alone no longer do: a shard over
//!   the filter's row threshold evaluates a few hundred survivors
//!   whatever its size. They are reported beside it.)
//! * **Wall-clock QPS** (asserted on machines with >= 4 cores): >= 3x
//!   aggregate throughput at 4 shards vs 1. Backend processes sharing
//!   one core serialize on the CPU and on memory bandwidth, so on
//!   smaller machines the ratio is reported but not gated.
//!
//! Before any timing, router replies are asserted **frame-level
//! bit-identical** to the single node serving the union corpus — the
//! raw reply payload bytes, not a parsed comparison — across a request
//! mix of tie-heavy k-NN, k > corpus, range, knn-by-id, point reads,
//! and ping.
//!
//! A separate failover leg runs 2 shards x 2 replicas, kills shard 0's
//! primary outright mid-run, and requires **zero failed queries**: the
//! router retries the failover-classified errors on the sibling replica
//! and the kill is visible only in the per-replica observability
//! counters (failovers > 0), never in a client-facing error or a
//! changed reply byte.
//!
//! Writes `results/BENCH_router_scaling.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_router_scaling [--quick]`

use cbir_bench::{
    closed_loop, median, raw_call, rounded, spawn_backend, union_db, write_results,
    UNION_DIM as DIM,
};
use cbir_core::{split_database, ImageDatabase, ShardPlan, ShardScheme};
use cbir_obs::{obj, Json};
use cbir_router::{Router, RouterConfig, RouterHandle};
use cbir_server::protocol::Request;
use cbir_server::{Client, ServerHandle};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const K: usize = 10;
const CLIENTS: usize = 8;

/// Split the union into `shards` parts with `replicas` backends each and
/// put a router in front. Returns the backend handles (outer index =
/// shard) and the router.
fn spawn_tier(
    union: &ImageDatabase,
    shards: usize,
    replicas: usize,
) -> (Vec<Vec<ServerHandle>>, RouterHandle) {
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, shards)
        .expect("shard plan");
    let parts = split_database(union, &plan).expect("split database");
    let backends: Vec<Vec<ServerHandle>> = parts
        .into_iter()
        .map(|part| (0..replicas).map(|_| spawn_backend(part.clone())).collect())
        .collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|group| group.iter().map(|b| b.local_addr().to_string()).collect())
        .collect();
    let router = Router::spawn(
        plan,
        addrs,
        "127.0.0.1:0",
        RouterConfig {
            cooldown: Duration::from_millis(250),
            ..RouterConfig::default()
        },
    )
    .expect("spawn router");
    (backends, router)
}

/// The bit-identity gate: the raw reply bytes from `router_addr` must
/// equal, byte for byte, what the single node answers for a request mix
/// covering tie-heavy k-NN, k > corpus, range, knn-by-id, point reads,
/// and ping.
fn assert_bit_identity(router_addr: SocketAddr, single_addr: SocketAddr, union: &ImageDatabase) {
    let n = union.len();
    let q_dup = union.descriptor(3).expect("descriptor").to_vec();
    let q_other = union.descriptor(n - 1).expect("descriptor").to_vec();
    let mix = vec![
        Request::Knn {
            k: K as u32,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q_dup.clone(),
        },
        Request::Knn {
            k: (n + 50) as u32,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q_other.clone(),
        },
        Request::Range {
            radius: 0.4,
            deadline_us: 0,
            descriptor: q_dup,
        },
        Request::KnnById {
            k: K as u32,
            deadline_us: 0,
            recall_target: 1.0,
            id: (n / 2) as u64,
        },
        Request::GetDescriptor { id: 7 },
        Request::Ping,
    ];
    for req in &mix {
        let want = raw_call(single_addr, req);
        let got = raw_call(router_addr, req);
        assert_eq!(got, want, "reply bytes diverged for {req:?}");
    }
}

/// Drive `CLIENTS` concurrent synchronous clients against `addr`,
/// return queries/second. Synchronous (one in-flight request per
/// connection) because the router scatters each request across every
/// shard — concurrency comes from the client count.
fn run_load(addr: SocketAddr, streams: &[Vec<Vec<f32>>]) -> f64 {
    closed_loop(addr, streams, K, 1, |hits| {
        std::hint::black_box(hits);
    })
}

/// The failover leg: 2 shards x 2 replicas, kill shard 0's primary
/// while the load is in flight. Every query must succeed; the kill may
/// only show up in the router's per-replica counters.
fn run_failover_leg(
    union: &ImageDatabase,
    streams: &[Vec<Vec<f32>>],
    single_addr: SocketAddr,
) -> (u64, u64) {
    let (mut backends, router) = spawn_tier(union, 2, 2);
    let addr = router.local_addr();
    assert_bit_identity(addr, single_addr, union);

    let failed = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let barrier = Arc::new(Barrier::new(streams.len() + 1));
    std::thread::scope(|scope| {
        for stream in streams {
            let barrier = Arc::clone(&barrier);
            let (failed, answered) = (&failed, &answered);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for q in stream {
                    match client.knn(q, K, 0, 1.0) {
                        Ok(hits) => {
                            std::hint::black_box(&hits);
                            answered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        barrier.wait();
        // Let the load get going, then kill shard 0's primary outright:
        // pooled router connections to it die mid-stream, fresh dials
        // are refused.
        std::thread::sleep(Duration::from_millis(50));
        let primary = backends[0].remove(0);
        primary.shutdown();
    });

    // The replies after the kill are still bit-identical.
    assert_bit_identity(addr, single_addr, union);

    let snap = cbir_obs::snapshot();
    let failovers: u64 = snap.router.iter().map(|r| r.failovers).sum();
    router.shutdown();
    for group in backends {
        for b in group {
            b.shutdown();
        }
    }
    (failed.load(Ordering::Relaxed), failovers)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 6_000 } else { 120_000 };
    let per_client: usize = if quick { 12 } else { 60 };
    let iters = if quick { 1 } else { 3 };
    let cores = std::thread::available_parallelism().map_or(1, |t| t.get());

    let union = union_db(n, 0xF15);
    let streams = cbir_workload::query_streams(
        &cbir_workload::duplicated_histograms(n, DIM, 1.0, 3, 0xF15),
        CLIENTS,
        per_client,
        0.02,
        29,
    );

    println!(
        "F15: scatter-gather scaling, N={n}, d={DIM}, k={K}, {CLIENTS} clients x {per_client} \
         queries, linear scan per shard, {cores} core(s)\n"
    );

    // Single node serving the union corpus: the baseline for both the
    // bit-identity gate and the throughput ratio.
    let single = spawn_backend(union.clone());
    let single_addr = single.local_addr();

    // (shards, qps, vs_single, rows scored and full evaluations per
    // backend sub-request)
    let mut rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    let mut single_qps = 0.0;
    for shards in [1usize, 2, 4] {
        let (backends, router) = spawn_tier(&union, shards, 1);
        // Correctness before timing, per topology.
        assert_bit_identity(router.local_addr(), single_addr, &union);
        let before = cbir_bench::linear_counters();
        // Warm pools and page cache at full concurrency, then measure.
        run_load(router.local_addr(), &streams);
        let mut rates: Vec<f64> = (0..iters)
            .map(|_| run_load(router.local_addr(), &streams))
            .collect();
        let qps = median(&mut rates);
        if shards == 1 {
            single_qps = qps;
        }
        let vs_single = qps / single_qps;
        // The per-node work a query costs — rows a backend scores per
        // sub-request — is the quantity sharding divides, and unlike
        // wall-clock it does not depend on how many cores this machine
        // happens to give the co-located backends. Every backend lives
        // in this process, so the registry's `linear` slot holds exactly
        // the topology's sub-requests since `before`.
        let after = cbir_bench::linear_counters();
        let sub_requests = (after.queries - before.queries).max(1) as f64;
        let evaluated = (after.distance_evaluations - before.distance_evaluations) as f64;
        let pruned = (after.subtrees_pruned - before.subtrees_pruned) as f64;
        let work_per_subrequest = (evaluated + pruned) / sub_requests;
        let evals_per_subrequest = evaluated / sub_requests;
        if shards == 1 {
            // The one-shard backend holds the whole corpus, over the
            // filter's row threshold in quick mode too.
            assert!(
                pruned > 0.0,
                "the L1 filter never engaged on the union node"
            );
        }
        let mut probe = Client::connect(router.local_addr()).expect("connect");
        let snap = probe.stats().expect("stats");
        let mean_batch = if snap.batches == 0 {
            0.0
        } else {
            snap.executed as f64 / snap.batches as f64
        };
        println!(
            "  {shards} shard(s): {qps:8.0} q/s  ({vs_single:.2}x vs 1 shard)  \
             {work_per_subrequest:9.0} rows scored/query/node \
             ({evals_per_subrequest:.0} evaluated in full)  \
             [bit-identity OK; backend mean batch {mean_batch:.1}, p50 {}us, p95 {}us]",
            snap.latency_p50_us, snap.latency_p95_us
        );
        rows.push((
            shards,
            qps,
            vs_single,
            work_per_subrequest,
            evals_per_subrequest,
        ));
        router.shutdown();
        for group in backends {
            for b in group {
                b.shutdown();
            }
        }
    }

    let (failed, failovers) = run_failover_leg(&union, &streams, single_addr);
    println!(
        "\nfailover: killed shard 0 primary mid-run -> {failed} failed queries, \
         {failovers} recorded failover(s), replies still bit-identical"
    );
    assert_eq!(failed, 0, "replica kill must be invisible to clients");
    assert!(
        failovers > 0,
        "covering a killed replica must be recorded in the router counters"
    );

    single.shutdown();

    let (_, _, speedup4, work4, _) = rows
        .iter()
        .copied()
        .find(|r| r.0 == 4)
        .expect("4-shard row");
    let work1 = rows[0].3;
    let work_reduction4 = work1 / work4.max(1.0);

    // The machine-independent scaling gate: 4 shards must cut the
    // per-node work a query costs by >= 3x (exactly 4x up to the mod
    // split's rounding), while the aggregate work stays the union scan.
    println!(
        "\nper-node work: {work1:.0} rows scored/query on 1 shard -> {work4:.0} on 4 shards \
         ({work_reduction4:.2}x reduction)"
    );
    assert!(
        work_reduction4 >= 3.0,
        "4 shards cut per-node work only {work_reduction4:.2}x (need >= 3x)"
    );

    // The wall-clock gate needs real parallel hardware: co-located
    // backend processes sharing fewer than 4 cores serialize on the
    // CPU (and on memory bandwidth), so the >= 3x QPS claim is only
    // asserted where the shards actually get their own core.
    let qps_gate = cores >= 4 && !quick;
    if qps_gate {
        assert!(
            speedup4 >= 3.0,
            "4 shards delivered only {speedup4:.2}x QPS over 1 shard (need >= 3x on {cores} cores)"
        );
    } else if !quick {
        println!(
            "qps ratio at 4 shards: {speedup4:.2}x — not gated on {cores} core(s); \
             sharding divides per-node work, and this machine cannot run 4 backends in parallel"
        );
    }

    // Quick mode exists for the correctness and failover gates;
    // reduced sizes make the scaling ratios meaningless.
    let topologies = rows.iter().map(|&(shards, qps, vs_single, work, evals)| {
        obj! { "shards": shards, "qps": rounded(qps, 1), "vs_single_shard": rounded(vs_single, 2),
        "rows_scored_per_query_per_node": rounded(work, 0),
        "distance_computations_per_query_per_node": rounded(evals, 0) }
    });
    let doc = obj! {
        "experiment": "router_scaling", "n": n, "dim": DIM, "k": K, "clients": CLIENTS,
        "per_client": per_client, "cores": cores, "index": "linear", "measure": "l1",
        "scheme": "mod",
        "exactness": "router replies asserted frame-level bit-identical to a single node over \
                      the union corpus, before timing and after the replica kill",
        "topologies": Json::Arr(topologies.collect()),
        "failover": obj! { "shards": 2u64, "replicas": 2u64, "killed": "shard 0 primary",
                           "failed_queries": failed, "recorded_failovers": failovers },
        "per_node_work_reduction_4_shards": rounded(work_reduction4, 2),
        "qps_ratio_4_shards": rounded(speedup4, 2),
        "qps_ratio_gated": qps_gate,
    };
    println!();
    write_results("router_scaling", quick, &doc);
}
