//! `live_rw`: one node serving a live `CorpusStore` (mmap segments plus
//! memtable) while both connections mix exact k-NN with inserts and
//! deletes and one of them compacts at fixed op indexes. The same engine
//! as `serve_scan`, used differently: memtable republish, snapshot
//! pinning and the compaction rewrite run nowhere else.

use crate::config::{
    scheduler, COMPACTIONS, DELETE_PCT, INSERT_PCT, LANES, LIVE_RW, PROBE_QUERIES, SEG_ROWS,
    WARMUP_OPS, WINDOW,
};
use crate::inputs::{knn_queries, sub_seed, vector_db, vector_rows};
use crate::load::{closed_loop, ns_since, Lane, ReplyLog, K};
use crate::report::Report;
use crate::served::{
    closed_summary, deal, dir_bytes, knn_closed, knn_paced, latencies_ms, oracle_verdict,
    peak_rss_mb, reset_peak_rss, timed_setups, Ctx,
};
use crate::stats::{percentile, Sample};
use crate::workloads::traced;
use cbir_core::{CorpusStore, ImageMeta, IndexKind, QueryEngine, ServedCorpus, StoreOptions};
use cbir_distance::Measure;
use cbir_index::BatchStats;
use cbir_server::{Client, Server, ServerHandle};
use cbir_workload::Pcg32;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    /// Exact k-NN for `queries[i]`.
    Knn(u32),
    /// Insert `inserts[i]`.
    Insert(u32),
    /// Tombstone this global id.
    Delete(u64),
}

/// The op sequence of one closed-loop phase.
struct Plan {
    ops: Vec<Op>,
    inserts: usize,
    deletes: usize,
}

/// `n` ops in seeded order with exact shares: [`INSERT_PCT`] % inserts,
/// [`DELETE_PCT`] % deletes, the rest k-NN. Deletes name ids
/// `delete_base..`, each once, so none can hit a row already tombstoned.
fn plan(n: usize, seed: u64, delete_base: u64) -> Plan {
    let inserts = n * INSERT_PCT / 100;
    let deletes = n * DELETE_PCT / 100;
    let mut kinds: Vec<u8> = (0..n)
        .map(|i| match i {
            i if i < inserts => 1,
            i if i < inserts + deletes => 2,
            _ => 0,
        })
        .collect();
    let mut rng = Pcg32::new(seed);
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let (mut q, mut ins, mut del) = (0u32, 0u32, delete_base);
    let ops = kinds
        .iter()
        .map(|kind| match kind {
            0 => {
                q += 1;
                Op::Knn(q - 1)
            }
            1 => {
                ins += 1;
                Op::Insert(ins - 1)
            }
            _ => {
                del += 1;
                Op::Delete(del - 1)
            }
        })
        .collect();
    Plan {
        ops,
        inserts,
        deletes,
    }
}

/// One closed-loop connection running a [`Plan`]: k-NN pipelined through
/// `send_knn`, mutations through the client's synchronous calls. The
/// completion, counted over both connections, that brings the phase to
/// the middle of another `every` tells the compactor to go.
struct LiveLane<'a> {
    client: Client,
    ops: &'a [Op],
    queries: &'a [Vec<f32>],
    inserts: &'a [Vec<f32>],
    log: ReplyLog,
    progress: &'a AtomicUsize,
    every: usize,
    compact_now: mpsc::Sender<()>,
}

impl Lane for LiveLane<'_> {
    fn send(&mut self, op: u32) {
        if let Op::Knn(q) = self.ops[op as usize] {
            let sent = self.client.send_knn(&self.queries[q as usize], K, 0, 1.0);
            let _ = sent.is_ok() && self.client.flush().is_ok();
        }
    }

    fn recv(&mut self, op: u32) -> bool {
        let ok = match self.ops[op as usize] {
            Op::Knn(_) => match self.client.recv_hits_detailed() {
                Ok(reply) => self.log.check(op, &reply),
                Err(_) => false,
            },
            Op::Insert(row) => {
                let name = format!("live-{op:06}");
                self.client
                    .insert(&name, None, &self.inserts[row as usize])
                    .is_ok()
            }
            Op::Delete(id) => self.client.delete(id).is_ok(),
        };
        // A count, publishing nothing: relaxed is enough.
        let done = self.progress.fetch_add(1, Ordering::Relaxed) + 1;
        if done % self.every == self.every / 2 {
            let _ = self.compact_now.send(());
        }
        ok
    }

    fn is_barrier(&self, op: u32) -> bool {
        !matches!(self.ops[op as usize], Op::Knn(_))
    }
}

/// Run `plan` on both connections while a third compacts the store
/// [`COMPACTIONS`] times, each begun in the middle of a slice: by op
/// count and never by the clock, so that every slice of the phase holds
/// one whole compaction with rows to fold. Compactions come back as
/// samples with ops past the plan's.
fn run_plan(
    addr: SocketAddr,
    plan: &Plan,
    queries: &[Vec<f32>],
    inserts: &[Vec<f32>],
) -> (Vec<ReplyLog>, Vec<Sample>, Instant) {
    let n = plan.ops.len();
    let progress = AtomicUsize::new(0);
    let (compact_now, go) = mpsc::channel::<()>();
    let lanes: Vec<LiveLane> = (0..LANES)
        .map(|_| LiveLane {
            client: Client::connect(addr).expect("connect to the live node"),
            ops: &plan.ops,
            queries,
            inserts,
            log: ReplyLog::new(u32::MAX),
            progress: &progress,
            every: (n / COMPACTIONS).max(1),
            compact_now: compact_now.clone(),
        })
        .collect();
    drop(compact_now);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let compactor = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connect the compactor");
            go.iter()
                .take(COMPACTIONS)
                .enumerate()
                .map(|(i, ())| {
                    let sent_ns = ns_since(t0);
                    let ok = client.compact().is_ok();
                    Sample {
                        op: (n + i) as u32,
                        intended_ns: sent_ns,
                        sent_ns,
                        done_ns: ns_since(t0),
                        ok,
                    }
                })
                .collect::<Vec<Sample>>()
        });
        let (lanes, mut samples) = closed_loop(lanes, &deal(0..n), WINDOW, t0);
        // Dropping the lanes drops the last senders and ends the compactor.
        let logs = lanes.into_iter().map(|l| l.log).collect();
        samples.extend(compactor.join().expect("compactor thread panicked"));
        (logs, samples, t0)
    })
}

fn options(quick: bool) -> StoreOptions {
    StoreOptions {
        // Compaction happens when the plan says so, never because the
        // memtable filled.
        memtable_limit: usize::MAX,
        max_seg_rows: if quick { SEG_ROWS / 20 } else { SEG_ROWS },
        ..StoreOptions::new(IndexKind::Linear, Measure::L1)
    }
}

struct Stack {
    store: Arc<CorpusStore>,
    server: ServerHandle,
    open_us: f64,
}

/// What `cbir serve <segment dir>` does, then a read-only warm-up that
/// faults the mapped segments in.
fn setup(dir: &Path, quick: bool, warm: &[Vec<f32>]) -> Stack {
    let t = Instant::now();
    let store = CorpusStore::open(dir, options(quick)).expect("open store");
    let open_us = t.elapsed().as_secs_f64() * 1e6;
    let corpus = ServedCorpus::Live(Arc::clone(&store));
    let server = Server::spawn_corpus(corpus, "127.0.0.1:0", scheduler()).expect("spawn server");
    knn_closed(server.local_addr(), warm, 1.0, u32::MAX);
    Stack {
        store,
        server,
        open_us,
    }
}

pub fn run(ctx: &Ctx, trace: bool) -> Report {
    let mut report = Report::default();
    let sizes = &LIVE_RW;
    let n = ctx.rows(sizes);
    let closed_n = ctx.closed_ops(sizes, trace);
    let paced = traced::paced_counts(ctx, sizes);
    let paced_n = paced.0 + paced.1;
    // The traced leg runs the closed phase as two plans of half the ops.
    let plans: Vec<Plan> = if trace {
        let first = plan(closed_n / 2, sub_seed(ctx.seed, 3), 0);
        let base = first.deletes as u64;
        vec![first, plan(closed_n / 2, sub_seed(ctx.seed, 4), base)]
    } else {
        vec![plan(closed_n, sub_seed(ctx.seed, 3), 0)]
    };
    let dir = ctx.run_dir.join("store");
    let (queries, inserts) = {
        let rows = vector_rows(n, sub_seed(ctx.seed, 1));
        CorpusStore::create_from_database(&dir, &vector_db(&rows), options(ctx.quick))
            .expect("seed the store");
        let need = WARMUP_OPS + closed_n + paced_n + PROBE_QUERIES;
        (
            knn_queries(&rows, need, sub_seed(ctx.seed, 2), false),
            knn_queries(
                &rows,
                closed_n * INSERT_PCT / 100 + 1,
                sub_seed(ctx.seed, 5),
                true,
            ),
        )
    };
    let (warm, rest) = queries.split_at(WARMUP_OPS);
    let (closed_q, rest) = rest.split_at(closed_n);
    let (paced_q, probe_q) = rest.split_at(paced_n);

    reset_peak_rss();
    let stack = timed_setups(
        &mut report,
        trace,
        || setup(&dir, ctx.quick, warm),
        |s: Stack| drop(s.server.shutdown()),
    );
    let addr = stack.server.local_addr();
    if !trace {
        // Read here and not after the timed phase: what 20 compactions
        // leave mapped and unreturned swings with allocator timing (243
        // or 298 MB over ten runs). The run's whole peak is the traced
        // leg's `core.store_peak_rss_mb`.
        report.set("peak_rss_mb", peak_rss_mb());
    }
    let is_knn = |plan: &Plan, s: &Sample| matches!(plan.ops.get(s.op as usize), Some(Op::Knn(_)));
    let mut leg = None;
    if trace {
        let metrics = || {
            let s = stack.server.metrics();
            (s.executed, s.batches, s.shed)
        };
        let mut t = traced::Leg::new(ctx, "live_rw");
        let half_q = closed_q.split_at(closed_q.len() / 2);
        let half_i = inserts.split_at(plans[0].inserts);
        // Both plans share their shape, so one classifies both passes.
        let pass = t.closed_passes(
            &mut report,
            |half| {
                let (q, i) = [(half_q.0, half_i.0), (half_q.1, half_i.1)][half];
                run_plan(addr, &plans[half], q, i)
            },
            metrics,
            |s| is_knn(&plans[1], s),
        );
        let insert_ms = latencies_ms(&pass.samples, |s| {
            matches!(plans[1].ops.get(s.op as usize), Some(Op::Insert(_)))
        });
        report.set("client.insert_p50_ms", percentile(&insert_ms, 50.0));
        report.set("client.insert_p95_ms", percentile(&insert_ms, 95.0));
        report.set("server.mean_batch", pass.mean_batch);
        report.set("server.shed", pass.shed as f64);
        let ping = t.ping("server.ping", addr);
        report.set("server.ping_rtt_us", ping);
        t.paced_passes(&mut report, ctx, sizes, |ops, rate| {
            knn_paced(addr, &paced_q[ops], 1.0, rate, ctx.seed)
        });
        leg = Some((t, pass));
    } else {
        let (_, samples, _) = run_plan(addr, &plans[0], closed_q, &inserts);
        closed_summary(&mut report, &samples, |s| is_knn(&plans[0], s));
    }

    // Final parity: fold what is left, then the served store must answer
    // a probe bit-identically to an offline engine over the final rows.
    let mut client = Client::connect(addr).expect("connect for the final compaction");
    report.check("final compaction acknowledged", client.compact().is_ok());
    let snapshot = stack.store.snapshot();
    let (ins, del): (usize, usize) = plans
        .iter()
        .fold((0, 0), |acc, p| (acc.0 + p.inserts, acc.1 + p.deletes));
    report.check(
        "live rows = seeded + inserted - deleted",
        snapshot.len() == n + ins - del,
    );
    let offline = snapshot.materialize().expect("materialize the final rows");
    let offline = QueryEngine::build(offline, IndexKind::Linear, Measure::L1).expect("offline");
    let (probe_logs, probe, _) = knn_closed(addr, probe_q, 1.0, 1);
    let verdict = oracle_verdict(&offline, &probe_logs, |op| &probe_q[op as usize]);
    report.check(
        "final probe bit-identical to an offline engine over the final rows",
        probe.iter().all(|s| s.ok) && verdict.all_identical(),
    );
    report.set("recall_at_10", verdict.recall());
    report.set(
        "stored_bytes_per_row",
        dir_bytes(&dir) as f64 / snapshot.len() as f64,
    );
    let stats = stack.server.shutdown();
    report.check("nothing shed, expired or errored", {
        stats.shed + stats.expired + stats.errors == 0
    });

    if let Some((mut t, pass)) = leg {
        // The store's own calls, one at a time, on the store the run left.
        report.set("core.store_open_us", stack.open_us);
        for (op, row) in inserts.iter().take(200).enumerate() {
            t.tracer.span("core.store_insert", None, op as u32, |_, _| {
                let meta = ImageMeta {
                    name: format!("replay-{op:06}"),
                    label: None,
                };
                stack
                    .store
                    .insert(meta, row.clone())
                    .expect("replayed insert")
            });
            t.tracer
                .span("core.store_snapshot", None, op as u32, |_, _| {
                    std::hint::black_box(stack.store.snapshot())
                });
        }
        let (id, compaction) = t.tracer.span("core.store_compact", None, 0, |_, _| {
            stack.store.compact().expect("replayed compaction")
        });
        report.set(
            "core.store_insert_us",
            t.tracer.mean_self_us("core.store_insert"),
        );
        report.set(
            "core.store_snapshot_us",
            t.tracer.mean_self_us("core.store_snapshot"),
        );
        report.set("core.store_compact_ms", t.tracer.span_us(id) / 1e3);
        report.set(
            "core.store_bytes_rewritten_per_compaction",
            compaction.bytes_written as f64,
        );
        report.set("core.store_segments_end", compaction.segments as f64);
        let replay = traced::subsample(closed_q);
        let pinned = stack.store.snapshot();
        let observed = (pass.mean_batch.round() as usize).max(1);
        let engine = t.per_query_us("core.engine", &replay, observed, |batch| {
            let threads = scheduler().exec_threads;
            let out = pinned.knn_batch(batch, K, threads, &mut BatchStats::new());
            std::hint::black_box(out.expect("replayed queries have the corpus's dim"));
        });
        report.set("core.engine_us_per_query", engine);
        let protocol = t.protocol(&replay, 1.0);
        report.set("server.protocol_us_per_op", protocol);
        let batch_us = engine * pass.mean_batch;
        report.set("server.overhead_us", pass.mean_latency_us - batch_us);
        report.set(
            "unattributed_share",
            1.0 - (batch_us + protocol) / pass.mean_latency_us,
        );
        t.finish(&mut report);
    }
    report
}
