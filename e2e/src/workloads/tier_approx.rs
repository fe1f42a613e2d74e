//! `tier_approx`: two shards of two replicas behind the router,
//! answering approximate k-NN (coarse Haar scan, exact rerank). A
//! request computes a tenth of what `serve_scan`'s does, so protocol,
//! scheduler, connection engine and the router's scatter and merge hold
//! the largest share; a speed-up that sheds recall shows in
//! `recall_at_10`.

use crate::config::{
    scheduler, DIM, ORACLE_EVERY, RECALL_FLOOR, RECALL_TARGET, REPLICAS, SHARDS, TIER_APPROX,
    WARMUP_OPS,
};
use crate::inputs::{knn_queries, sub_seed, vector_db, vector_rows};
use crate::load::K;
use crate::report::Report;
use crate::served::{
    closed_summary, knn_closed, knn_paced, oracle_verdict, peak_rss_mb, reset_peak_rss,
    timed_setups, Ctx,
};
use crate::workloads::traced;
use cbir_core::persist::{load_file, save_file};
use cbir_core::{
    merge_shards, plan_candidate_budget, split_database, IndexKind, QueryEngine, ShardPlan,
    ShardScheme,
};
use cbir_distance::Measure;
use cbir_index::{
    rerank_exact, ApproxScratch, ApproxSearch, BatchStats, CoarseHaarIndex, Dataset, SearchStats,
};
use cbir_router::{merge_topk, Router, RouterConfig, RouterHandle};
use cbir_server::protocol::Hit;
use cbir_server::{Client, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::Arc;

struct Stack {
    engines: Vec<Arc<QueryEngine>>,
    /// `backends[shard][replica]`.
    backends: Vec<Vec<ServerHandle>>,
    router: RouterHandle,
}

impl Stack {
    fn shutdown(self) {
        self.router.shutdown();
        for backend in self.backends.into_iter().flatten() {
            backend.shutdown();
        }
    }
}

/// Load each shard file, serve it from [`REPLICAS`] nodes sharing one
/// engine, put the router in front (no hedging, probing or partial
/// results), and warm the tier up through the router.
fn setup(plan: &ShardPlan, shard_files: &[PathBuf], warm: &[Vec<f32>]) -> Stack {
    let engines: Vec<Arc<QueryEngine>> = shard_files
        .iter()
        .map(|path| {
            let db = load_file(path).expect("load shard");
            Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("build shard"))
        })
        .collect();
    let backends: Vec<Vec<ServerHandle>> = engines
        .iter()
        .map(|engine| {
            (0..REPLICAS)
                .map(|_| {
                    Server::spawn_shared(Arc::clone(engine), "127.0.0.1:0", scheduler())
                        .expect("spawn backend")
                })
                .collect()
        })
        .collect();
    let addrs = backends
        .iter()
        .map(|group| group.iter().map(|b| b.local_addr().to_string()).collect())
        .collect();
    let router = Router::spawn(plan.clone(), addrs, "127.0.0.1:0", RouterConfig::default())
        .expect("spawn router");
    knn_closed(router.local_addr(), warm, RECALL_TARGET, u32::MAX);
    Stack {
        engines,
        backends,
        router,
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Report {
    let mut report = Report::default();
    let sizes = &TIER_APPROX;
    let n = ctx.rows(sizes);
    let closed_n = ctx.closed_ops(sizes, trace);
    let paced = traced::paced_counts(ctx, sizes);
    let paced_n = paced.0 + paced.1;
    let plan = ShardPlan::new(ShardScheme::Mod, DIM, n as u64, SHARDS).expect("shard plan");
    let shard_file = |s: usize| ctx.run_dir.join(format!("shard-{s}.cbir"));
    let queries = {
        let rows = vector_rows(n, sub_seed(ctx.seed, 1));
        let parts = split_database(&vector_db(&rows), &plan).expect("split corpus");
        for (s, part) in parts.iter().enumerate() {
            save_file(part, shard_file(s)).expect("save shard");
        }
        knn_queries(
            &rows,
            WARMUP_OPS + closed_n + paced_n,
            sub_seed(ctx.seed, 2),
            true,
        )
    };
    let (warm, rest) = queries.split_at(WARMUP_OPS);
    let (closed_q, paced_q) = rest.split_at(closed_n);
    let shard_files: Vec<PathBuf> = (0..SHARDS).map(shard_file).collect();
    let stored: u64 = shard_files
        .iter()
        .map(|p| std::fs::metadata(p).expect("stat shard").len())
        .sum();
    report.set("stored_bytes_per_row", stored as f64 / n as f64);

    reset_peak_rss();
    let stack = timed_setups(
        &mut report,
        trace,
        || setup(&plan, &shard_files, warm),
        Stack::shutdown,
    );
    let addr = stack.router.local_addr();
    if trace {
        traced_leg(ctx, &mut report, &stack, closed_q, paced_q);
    } else {
        let (logs, samples, _) = knn_closed(addr, closed_q, RECALL_TARGET, ORACLE_EVERY);
        closed_summary(&mut report, &samples, |_| true);
        report.set("peak_rss_mb", peak_rss_mb());
        // The oracle: an exact scan of the union corpus, in this process.
        let parts: Vec<_> = shard_files
            .iter()
            .map(|path| load_file(path).expect("reload shard"))
            .collect();
        let union = merge_shards(&parts, &plan).expect("merge shards");
        let oracle = QueryEngine::build(union, IndexKind::Linear, Measure::L1).expect("oracle");
        let verdict = oracle_verdict(&oracle, &logs, |op| &closed_q[op as usize]);
        report.check(
            "every sampled hit the oracle also found has the oracle's distance bits",
            verdict.checked > 0 && verdict.distance_mismatches == 0,
        );
        report.check("recall_at_10 >= 0.85", verdict.recall() >= RECALL_FLOOR);
        report.set("recall_at_10", verdict.recall());
    }
    let tier = cbir_obs::snapshot();
    report.check("no failover, hedge or degraded reply", {
        tier.router.iter().all(|r| r.failovers + r.failures == 0)
            && tier.router_tier.hedges_fired + tier.router_tier.degraded_replies == 0
    });
    stack.shutdown();
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
    let addr = stack.router.local_addr();
    let metrics = || {
        stack.backends.iter().flatten().fold((0, 0, 0), |acc, b| {
            let s = b.metrics();
            (acc.0 + s.executed, acc.1 + s.batches, acc.2 + s.shed)
        })
    };
    let mut t = traced::Leg::new(ctx, "tier_approx");
    let halves = closed_q.split_at(closed_q.len() / 2);
    let pass = t.closed_passes(
        report,
        |half| knn_closed(addr, [halves.0, halves.1][half], RECALL_TARGET, u32::MAX),
        metrics,
        |_| true,
    );
    t.paced_passes(report, ctx, &TIER_APPROX, |ops, rate| {
        knn_paced(addr, &paced_q[ops], RECALL_TARGET, rate, ctx.seed)
    });
    report.set("server.mean_batch", pass.mean_batch);
    report.set("server.shed", pass.shed as f64);
    let replies = pass.samples.len() as f64;
    let sum = |f: fn(&crate::load::ReplyLog) -> u64| pass.logs.iter().map(f).sum::<u64>() as f64;
    report.set(
        "index.coarse_candidates_per_query",
        sum(|l| l.coarse_candidates) / replies,
    );
    report.set(
        "index.rerank_evals_per_query",
        sum(|l| l.rerank_evaluations) / replies,
    );

    // The two stages of one shard's approximate search, one query at a
    // time, as `QueryEngine::query_by_descriptor_approx` runs them.
    let replay = traced::subsample(closed_q);
    let shard = &stack.engines[0];
    let flat = shard.database().flat_descriptors().to_vec();
    let dataset = Dataset::from_flat(shard.database().dim(), flat).expect("shard dataset");
    let coarse = CoarseHaarIndex::build(
        &dataset,
        CoarseHaarIndex::default_coefficients(dataset.dim()),
    )
    .expect("coarse table");
    let budget = plan_candidate_budget(dataset.len(), K, RECALL_TARGET).expect("approximate");
    let (mut stats, mut scratch) = (SearchStats::new(), ApproxScratch::new());
    let (mut candidates, mut hits) = (Vec::new(), Vec::new());
    for (op, q) in replay.iter().enumerate() {
        let op = op as u32;
        t.tracer.span("index.approx", None, op, |tr, me| {
            candidates.clear();
            tr.span("index.coarse_scan", Some(me), op, |_, _| {
                coarse.coarse_candidates(q, budget, &mut stats, &mut candidates)
            });
            tr.span("index.rerank", Some(me), op, |_, _| {
                let m = Measure::L1;
                rerank_exact(
                    &dataset,
                    &m,
                    q,
                    K,
                    &candidates,
                    &mut scratch,
                    &mut stats,
                    &mut hits,
                )
            });
        });
    }
    report.set(
        "index.coarse_scan_us_per_query",
        t.tracer.mean_self_us("index.coarse_scan"),
    );
    report.set(
        "index.rerank_us_per_query",
        t.tracer.mean_self_us("index.rerank"),
    );
    let observed = (pass.mean_batch.round() as usize).max(1);
    let engine = t.per_query_us("core.engine", &replay, observed, |batch| {
        let threads = scheduler().exec_threads;
        let out = shard.knn_batch_approx(batch, K, RECALL_TARGET, threads, &mut BatchStats::new());
        std::hint::black_box(out.expect("replayed queries have the corpus's dim"));
    });
    report.set("core.engine_us_per_query", engine);

    // The router against its backends: the same op through the tier and
    // to each shard's primary directly, one at a time.
    let mut through = Client::connect(addr).expect("connect to router");
    let mut direct: Vec<Client> = stack
        .backends
        .iter()
        .map(|group| Client::connect(group[0].local_addr()).expect("connect to backend"))
        .collect();
    let (mut tier_us, mut slowest_us, mut merge_lists) = (0.0, 0.0, Vec::new());
    for (op, q) in replay.iter().enumerate() {
        let op = op as u32;
        let (id, _) = t.tracer.span("router.op", None, op, |_, _| {
            through
                .knn_detailed(q, K, 0, RECALL_TARGET)
                .expect("tier knn")
        });
        tier_us += t.tracer.span_us(id);
        let mut slowest = 0.0f64;
        merge_lists.clear();
        for backend in &mut direct {
            let (id, reply) = t.tracer.span("server.op", None, op, |_, _| {
                backend
                    .knn_detailed(q, K, 0, RECALL_TARGET)
                    .expect("backend knn")
            });
            slowest = slowest.max(t.tracer.span_us(id));
            merge_lists.push(reply.hits);
        }
        slowest_us += slowest;
        t.tracer.span("router.merge", None, op, |_, _| {
            std::hint::black_box::<Vec<Hit>>(merge_topk(&merge_lists, K))
        });
    }
    let merge = t.tracer.mean_self_us("router.merge");
    report.set("router.merge_us_per_reply", merge);
    report.set(
        "router.overhead_us",
        (tier_us - slowest_us) / replay.len() as f64,
    );
    let router_ping = t.ping("router.ping", addr);
    let server_ping = t.ping("server.ping", stack.backends[0][0].local_addr());
    let protocol = t.protocol(&replay, RECALL_TARGET);
    report.set("router.ping_rtt_us", router_ping);
    report.set("server.ping_rtt_us", server_ping);
    report.set("server.protocol_us_per_op", protocol);
    let tier = cbir_obs::snapshot();
    report.set(
        "router.failovers",
        tier.router.iter().map(|r| r.failovers).sum::<u64>() as f64,
    );
    report.set("router.hedges_fired", tier.router_tier.hedges_fired as f64);
    let batch_us = engine * pass.mean_batch;
    report.set("server.overhead_us", pass.mean_latency_us - batch_us);
    // An op crosses the protocol twice (client-router, router-backend)
    // and waits for one backend batch and one merge.
    report.set(
        "unattributed_share",
        1.0 - (batch_us + 2.0 * protocol + merge + router_ping) / pass.mean_latency_us,
    );
    t.finish(report);
}
