//! `serve_scan`: one `serve` node answering exact k-NN by linear scan
//! over a corpus larger than the cache. The distance kernels and the
//! blocked scan do the work; the scheduler's batching decides how well
//! they are fed. No approximate path, router or store is entered.

use crate::config::{scheduler, ORACLE_EVERY, SERVE_SCAN, WARMUP_OPS};
use crate::inputs::{knn_queries, sub_seed, vector_db, vector_rows};
use crate::load::K;
use crate::report::Report;
use crate::served::{
    closed_summary, knn_closed, knn_paced, oracle_verdict, peak_rss_mb, reset_peak_rss,
    timed_setups, Ctx,
};
use crate::workloads::traced;
use cbir_core::persist::{load_file, save_file};
use cbir_core::{IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_index::BatchStats;
use cbir_server::{Server, ServerHandle};
use std::path::Path;
use std::sync::Arc;

pub struct Stack {
    pub engine: Arc<QueryEngine>,
    pub server: ServerHandle,
}

/// What `cbir serve db.cbir --index linear --measure l1` does, then a
/// warm-up through the socket.
fn setup(path: &Path, warm: &[Vec<f32>]) -> Stack {
    let db = load_file(path).expect("load the saved corpus");
    let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("build engine");
    let engine = Arc::new(engine);
    let server = Server::spawn_shared(Arc::clone(&engine), "127.0.0.1:0", scheduler())
        .expect("spawn server");
    knn_closed(server.local_addr(), warm, 1.0, u32::MAX);
    Stack { engine, server }
}

pub fn run(ctx: &Ctx, trace: bool) -> Report {
    let mut report = Report::default();
    let sizes = &SERVE_SCAN;
    let n = ctx.rows(sizes);
    let closed_n = ctx.closed_ops(sizes, trace);
    let paced = traced::paced_counts(ctx, sizes);
    let paced_n = paced.0 + paced.1;
    let path = ctx.run_dir.join("corpus.cbir");
    let queries = {
        let rows = vector_rows(n, sub_seed(ctx.seed, 1));
        save_file(&vector_db(&rows), &path).expect("save corpus");
        knn_queries(
            &rows,
            WARMUP_OPS + closed_n + paced_n,
            sub_seed(ctx.seed, 2),
            false,
        )
    };
    let (warm, rest) = queries.split_at(WARMUP_OPS);
    let (closed_q, paced_q) = rest.split_at(closed_n);
    let file_bytes = std::fs::metadata(&path).expect("stat corpus").len();
    report.set("stored_bytes_per_row", file_bytes as f64 / n as f64);

    reset_peak_rss();
    let stack = timed_setups(
        &mut report,
        trace,
        || setup(&path, warm),
        |s: Stack| drop(s.server.shutdown()),
    );
    let addr = stack.server.local_addr();
    if trace {
        traced_leg(ctx, &mut report, &stack, closed_q, paced_q);
    } else {
        let (logs, samples, _) = knn_closed(addr, closed_q, 1.0, ORACLE_EVERY);
        closed_summary(&mut report, &samples, |_| true);
        report.set("peak_rss_mb", peak_rss_mb());
        let verdict = oracle_verdict(&stack.engine, &logs, |op| &closed_q[op as usize]);
        report.check(
            "sampled exact replies are bit-identical to knn_batch",
            verdict.all_identical(),
        );
        report.set("recall_at_10", verdict.recall());
    }
    let stats = stack.server.shutdown();
    report.check("nothing shed, expired or errored", {
        stats.shed + stats.expired + stats.errors == 0
    });
    report
}

/// Per-layer leg: see the table in `e2e/README.md`.
fn traced_leg(
    ctx: &Ctx,
    report: &mut Report,
    stack: &Stack,
    closed_q: &[Vec<f32>],
    paced_q: &[Vec<f32>],
) {
    let addr = stack.server.local_addr();
    let metrics = || {
        let s = stack.server.metrics();
        (s.executed, s.batches, s.shed)
    };
    let mut t = traced::Leg::new(ctx, "serve_scan");
    let halves = closed_q.split_at(closed_q.len() / 2);
    let pass = t.closed_passes(
        report,
        |half| knn_closed(addr, [halves.0, halves.1][half], 1.0, u32::MAX),
        metrics,
        |_| true,
    );
    t.paced_passes(report, ctx, &SERVE_SCAN, |ops, rate| {
        knn_paced(addr, &paced_q[ops], 1.0, rate, ctx.seed)
    });
    report.set("server.mean_batch", pass.mean_batch);
    report.set("server.shed", pass.shed as f64);

    // The roofline: how fast the corpus can be read at all, and how
    // fast the two kernels get through it.
    let flat = stack.engine.database().flat_descriptors();
    let rows = stack.engine.database().len();
    let mut copy = vec![0.0f32; flat.len()];
    let mut dists = vec![0.0f32; rows];
    let gb = std::mem::size_of_val(flat) as f64 / 1e9;
    let q = &closed_q[0];
    let memcpy_s = t.best_of_3("distance.memcpy", || copy.copy_from_slice(flat));
    let l1_s = t.best_of_3("distance.l1_scan", || {
        Measure::L1.dist_to_many(q, flat, &mut dists)
    });
    let l2_s = t.best_of_3("distance.l2_scan", || {
        Measure::L2.dist_to_many(q, flat, &mut dists)
    });
    std::hint::black_box((&copy, &dists));
    report.set("distance.memcpy_gbps", gb / memcpy_s);
    report.set("distance.l1_scan_gbps", gb / l1_s);
    report.set("distance.l2_scan_gbps", gb / l2_s);
    report.set("distance.l1_dists_per_s", rows as f64 / l1_s);

    // The scan at batch 64 and at batch 1, one thread, then the engine
    // call the scheduler made: the observed mean batch on its two
    // execution threads.
    let replay = traced::subsample(closed_q);
    let knn = |batch: &[Vec<f32>], threads: usize| {
        let out = stack
            .engine
            .knn_batch(batch, K, threads, &mut BatchStats::new());
        std::hint::black_box(out.expect("replayed queries have the corpus's dim"));
    };
    let batch64 = t.per_query_us("index.linear_batch", &replay, 64, |b| knn(b, 1));
    let single = t.per_query_us(
        "index.linear_single",
        &replay[..replay.len().min(64)],
        1,
        |b| knn(b, 1),
    );
    let observed = (pass.mean_batch.round() as usize).max(1);
    let engine = t.per_query_us("core.engine", &replay, observed, |b| {
        knn(b, scheduler().exec_threads)
    });
    report.set("index.linear_batch_us_per_query", batch64);
    report.set("index.linear_single_us_per_query", single);
    report.set("core.engine_us_per_query", engine);

    let ping = t.ping("server.ping", addr);
    let protocol = t.protocol(&replay, 1.0);
    report.set("server.ping_rtt_us", ping);
    report.set("server.protocol_us_per_op", protocol);
    // A request is answered when its whole batch is: the engine's share
    // of its latency is the batch's time, not a query's.
    let batch_us = engine * pass.mean_batch;
    report.set("server.overhead_us", pass.mean_latency_us - batch_us);
    report.set(
        "unattributed_share",
        1.0 - (batch_us + protocol + ping) / pass.mean_latency_us,
    );
    t.finish(report);
}
