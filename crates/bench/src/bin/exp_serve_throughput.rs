//! **F9 — served query throughput: micro-batched vs single-dispatch.**
//!
//! The serving-layer counterpart of F8: 8 concurrent pipelined clients
//! drive a live TCP server over real sockets, once with the dispatcher
//! pinned to one request per dispatch (`max_batch = 1`, no delay) and
//! once with dynamic micro-batching enabled. Both modes run the *same*
//! scheduler code path, so the difference is exactly what batching
//! amortizes. The corpus is sized well past the last-level cache
//! (250k 64-bin histograms, 64 MB of descriptors, the paper's own
//! feature shape) over a sequential scan, so a single-request dispatch
//! must stream the whole dataset from memory per query while a
//! micro-batch streams it once per batch through the cache-blocked
//! [`LinearScan`](cbir_index::LinearScan) kernel — the same group-serving
//! economics that motivate batched scans in database engines.
//!
//! Before any timing, server responses are asserted bit-identical to
//! direct [`cbir_core::CorpusSnapshot::knn_batch`] calls, and a
//! saturation run against a deliberately tiny admission queue checks
//! that overload is shed with explicit replies rather than unbounded
//! queueing. The batched-over-single ratio is reported, not gated: what
//! buys it, a drained queue dispatched in full batches whose replies are
//! the unbatched ones, is counted in `cargo test` (`cbir-server`'s
//! `scheduler::tests::a_drained_queue_runs_in_full_batches_with_unbatched_replies`).
//!
//! Writes `results/BENCH_serve_throughput.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_serve_throughput [--quick]`

use cbir_bench::{closed_loop, median, rounded, write_results, Table};
use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use cbir_obs::obj;
use cbir_server::{Client, ClientError, Rejection, SchedulerConfig, Server, StatsSnapshot};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const DIM: usize = 64;
const K: usize = 10;
const CLIENTS: usize = 8;
const WINDOW: usize = 16;

/// Engine over `n` synthetic histogram descriptors (same construction as
/// the serving end-to-end tests).
fn engine(n: usize, kind: IndexKind) -> Arc<QueryEngine> {
    let pipeline = Pipeline::new(
        DIM as u32,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
            bins: DIM as u32,
        })],
    )
    .expect("static pipeline");
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(n, DIM, 1.0, 42)
        .into_iter()
        .enumerate()
    {
        db.insert_descriptor(
            ImageMeta {
                name: format!("img-{i:05}"),
                label: Some((i % 7) as u32),
            },
            v,
        )
        .expect("insert descriptor");
    }
    Arc::new(QueryEngine::build(db, kind, Measure::L1).expect("build engine"))
}

/// Drive one mode: spawn a server, run every client stream with `WINDOW`
/// pipelined in-flight requests, return (queries/second, final counters).
fn run_mode(
    engine: &Arc<QueryEngine>,
    config: SchedulerConfig,
    streams: &[Vec<Vec<f32>>],
) -> (f64, StatsSnapshot) {
    let handle =
        Server::spawn_shared(Arc::clone(engine), "127.0.0.1:0", config).expect("spawn server");
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let qps = closed_loop(handle.local_addr(), streams, K, WINDOW, |hits| {
        std::hint::black_box(hits);
    });
    let snap = handle.shutdown();
    assert_eq!(snap.executed, total as u64, "server dropped admitted work");
    (qps, snap)
}

/// Bit-identity gate: every server reply must match the direct engine
/// batch call exactly, including distance bit patterns.
fn assert_equivalence(engine: &Arc<QueryEngine>, queries: &[Vec<f32>]) {
    let handle = Server::spawn_shared(
        Arc::clone(engine),
        "127.0.0.1:0",
        SchedulerConfig::default(),
    )
    .expect("spawn server");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut stats = BatchStats::new();
    let direct = engine
        .knn_batch(queries, K, 1, &mut stats)
        .expect("direct knn");
    for (q, want) in queries.iter().zip(&direct) {
        let got = client.knn(q, K, 0, 1.0).expect("served knn");
        assert_eq!(got.len(), want.len(), "hit count diverges");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.id, w.id as u64, "id diverges");
            assert_eq!(
                g.distance.to_bits(),
                w.distance.to_bits(),
                "distance bits diverge"
            );
        }
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Saturation gate: a tiny admission queue must shed overload with
/// explicit overloaded replies — never silent drops, never unbounded
/// queueing.
fn assert_saturation_sheds(engine: &Arc<QueryEngine>, queries: &[Vec<f32>]) -> u64 {
    let handle = Server::spawn_shared(
        Arc::clone(engine),
        "127.0.0.1:0",
        SchedulerConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_cap: 2,
            exec_threads: 1,
            ..SchedulerConfig::default()
        },
    )
    .expect("spawn server");
    let flood = 256usize;
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for i in 0..flood {
        client
            .send_knn(&queries[i % queries.len()], K, 0, 1.0)
            .expect("send");
    }
    client.flush().expect("flush");
    let (mut answered, mut shed) = (0u64, 0u64);
    for _ in 0..flood {
        match client.recv_hits() {
            Ok(hits) => {
                assert_eq!(hits.len(), K);
                answered += 1;
            }
            Err(ClientError::Rejected(Rejection::Overloaded(_))) => shed += 1,
            Err(e) => panic!("unexpected reply under saturation: {e}"),
        }
    }
    let snap = handle.shutdown();
    assert_eq!(answered + shed, flood as u64, "replies lost under overload");
    assert_eq!(snap.shed, shed, "server shed count disagrees with clients");
    assert!(
        shed > 0,
        "flooding a queue of 2 with {flood} pipelined requests shed nothing"
    );
    assert_eq!(snap.executed, answered, "executed != answered");
    shed
}

/// Transport floor: ping round-trips per second with `clients` concurrent
/// connections. Pings are answered inline by the connection reader, so
/// this isolates framing + sockets + reply-queue cost from execution.
fn ping_floor(engine: &Arc<QueryEngine>, clients: usize, per_client: usize) -> f64 {
    let handle = Server::spawn_shared(
        Arc::clone(engine),
        "127.0.0.1:0",
        SchedulerConfig::default(),
    )
    .expect("spawn server");
    let addr = handle.local_addr();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let elapsed = std::thread::scope(|scope| {
        for _ in 0..clients {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                for _ in 0..per_client {
                    std::hint::black_box(client.ping().expect("ping"));
                }
            });
        }
        barrier.wait();
        Instant::now()
    })
    .elapsed();
    handle.shutdown();
    (clients * per_client) as f64 / elapsed.as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 20_000 } else { 250_000 };
    let per_client: usize = if quick { 20 } else { 50 };
    let iters = if quick { 1 } else { 3 };
    let exec_threads = std::thread::available_parallelism().map_or(1, |t| t.get());

    let engine = engine(n, IndexKind::Linear);
    let streams = cbir_workload::query_streams(
        &cbir_workload::histograms(n, DIM, 1.0, 42),
        CLIENTS,
        per_client,
        0.02,
        17,
    );

    println!(
        "F9: served k-NN throughput, N={n}, d={DIM}, k={K}, {CLIENTS} clients x {per_client} \
         queries, window {WINDOW}\n"
    );

    // Correctness gates before any timing.
    assert_equivalence(&engine, &streams[0][..32.min(streams[0].len())]);
    println!("equivalence: server replies bit-identical to direct engine calls");
    let saturation_shed = assert_saturation_sheds(&engine, &streams[0]);
    println!("saturation: queue_cap=2 shed {saturation_shed} requests with explicit replies");
    let floor = ping_floor(&engine, CLIENTS, per_client);
    println!("transport floor: {floor:.0} ping round-trips/s at {CLIENTS} clients\n");

    let single_config = SchedulerConfig {
        max_batch: 1,
        max_delay: Duration::ZERO,
        queue_cap: 4096,
        exec_threads: 1,
        ..SchedulerConfig::default()
    };
    let batched_config = SchedulerConfig {
        max_batch: 64,
        max_delay: Duration::from_micros(300),
        queue_cap: 4096,
        exec_threads,
        ..SchedulerConfig::default()
    };

    // Warm up both paths (page cache, allocator, listener teardown).
    run_mode(&engine, single_config.clone(), &streams);
    run_mode(&engine, batched_config.clone(), &streams);

    let mut single_rates = Vec::new();
    let mut single_snap = None;
    for _ in 0..iters {
        let (rate, snap) = run_mode(&engine, single_config.clone(), &streams);
        single_rates.push(rate);
        single_snap = Some(snap);
    }
    let mut batched_rates = Vec::new();
    let mut batched_snap = None;
    for _ in 0..iters {
        let (rate, snap) = run_mode(&engine, batched_config.clone(), &streams);
        batched_rates.push(rate);
        batched_snap = Some(snap);
    }
    // Both modes ran the exact L1 filter (the corpus is over its row
    // threshold in quick mode too): the registry's `linear` slot must
    // show rows excluded by their bound.
    let linear = cbir_bench::linear_counters();
    assert!(
        linear.subtrees_pruned > 0,
        "the L1 filter never engaged on the served corpus"
    );
    let pruned_share = linear.subtrees_pruned as f64
        / (linear.subtrees_pruned + linear.distance_evaluations) as f64;
    println!(
        "exact L1 filter: {pruned_share:.4} of the rows scored were excluded by their bound\n"
    );
    let single_qps = median(&mut single_rates);
    let batched_qps = median(&mut batched_rates);
    let single_snap = single_snap.expect("single mode ran");
    let batched_snap = batched_snap.expect("batched mode ran");
    let speedup = batched_qps / single_qps;

    let mean_batch = |s: &StatsSnapshot| {
        if s.batches == 0 {
            0.0
        } else {
            s.executed as f64 / s.batches as f64
        }
    };
    let mut table = Table::new(&["mode", "q/s", "mean-batch", "p50-us", "p95-us", "vs-single"]);
    table.row(vec![
        "single-dispatch".into(),
        format!("{single_qps:.0}"),
        format!("{:.1}", mean_batch(&single_snap)),
        single_snap.latency_p50_us.to_string(),
        single_snap.latency_p95_us.to_string(),
        "1.00x".into(),
    ]);
    table.row(vec![
        "micro-batched".into(),
        format!("{batched_qps:.0}"),
        format!("{:.1}", mean_batch(&batched_snap)),
        batched_snap.latency_p50_us.to_string(),
        batched_snap.latency_p95_us.to_string(),
        format!("{speedup:.2}x"),
    ]);
    table.print();
    println!("\nExpected shape: with {CLIENTS} pipelined clients the admission");
    println!("queue stays full, so the dispatcher claims large batches and the");
    println!("dominant per-query cost — streaming a larger-than-cache corpus");
    println!("through the scan — is paid once per batch by the cache-blocked");
    println!("kernel; single-dispatch streams the corpus from memory per query.");

    // Quick mode exists for the correctness gates; its reduced sizes
    // make the timings meaningless, so it writes nothing.
    let mode = |config: &SchedulerConfig, qps: f64, snap: &StatsSnapshot| {
        obj! { "max_batch": config.max_batch, "max_delay_us": config.max_delay.as_micros() as u64,
        "qps": rounded(qps, 1), "mean_batch": rounded(mean_batch(snap), 2),
        "latency_p50_us": snap.latency_p50_us, "latency_p95_us": snap.latency_p95_us }
    };
    let doc = obj! {
        "experiment": "serve_throughput", "n": n, "dim": DIM, "k": K, "clients": CLIENTS,
        "per_client": per_client, "window": WINDOW, "index": "linear", "measure": "l1",
        "exactness": "server replies asserted bit-identical to direct engine batch calls",
        "saturation_shed": saturation_shed,
        "single": mode(&single_config, single_qps, &single_snap),
        "batched": mode(&batched_config, batched_qps, &batched_snap),
        "speedup": rounded(speedup, 2),
    };
    println!();
    write_results("serve_throughput", quick, &doc);
}
