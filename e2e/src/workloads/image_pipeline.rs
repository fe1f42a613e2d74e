//! `image_pipeline`: the paper's own loop. Images are made searchable
//! (extract, insert, build the antipole tree, save), then held-out
//! images are queried by example. Feature extraction does nearly all
//! the work; the index is exercised by *building* it, where the other
//! workloads only read; server, router and store are never entered.

use crate::config::{
    CHUNK_BASE, EXTRACT_THREADS, IMAGE_PIPELINE, INGEST_PER_S, LANES, ORACLE_EVERY, SLICES,
    VARIANTS,
};
use crate::inputs::{image_chunk, variant};
use crate::load::{closed_loop, open_loop, Lane, RecvHalf, ReplyLog, SendHalf, K};
use crate::report::{nums, Report};
use crate::served::{
    closed_summary, deal, oracle_verdict, paced_schedule, peak_rss_mb, timed_setups, Ctx,
};
use crate::stats::{highest, Sample};
use crate::workloads::traced;
use cbir_core::persist::{load_file, save_file};
use cbir_core::{BatchItem, ImageDatabase, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{ExtractScratch, Pipeline};
use cbir_image::RgbImage;
use cbir_index::SearchStats;
use cbir_router::jsonmerge::Json;
use cbir_server::scheduler::ranked_to_hits;
use cbir_server::HitsReply;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Query images are drawn round-robin from a pool of this many base
/// images in every orientation: rendering one per query would cost more
/// than answering it.
const POOL_BASE: usize = 100;
const POOL_VARIANTS: usize = 4;
/// Closed-loop queries in every set-up.
const WARM_QUERIES: usize = 200;

const ANTIPOLE: IndexKind = IndexKind::Antipole { diameter: None };

/// One `query_by_example`, checked like a served reply.
fn query(engine: &QueryEngine, pool: &[RgbImage], op: u32, log: &mut ReplyLog) -> bool {
    let img = &pool[op as usize % pool.len()];
    match engine.query_by_example(img, K, &mut SearchStats::new()) {
        Ok(ranked) => log.check(op, &HitsReply::full(ranked_to_hits(ranked), 0, 0)),
        Err(_) => false,
    }
}

/// An in-process closed-loop worker: `send` is free, `recv` runs the
/// query, so the window is always one.
struct ExampleLane<'a> {
    engine: &'a QueryEngine,
    pool: &'a [RgbImage],
    log: ReplyLog,
}

impl Lane for ExampleLane<'_> {
    fn send(&mut self, _op: u32) {}

    fn recv(&mut self, op: u32) -> bool {
        query(self.engine, self.pool, op, &mut self.log)
    }
}

fn closed(
    engine: &QueryEngine,
    pool: &[RgbImage],
    ops: std::ops::Range<usize>,
    keep_every: u32,
) -> (Vec<ReplyLog>, Vec<Sample>, Instant) {
    let lanes = (0..LANES)
        .map(|_| ExampleLane {
            engine,
            pool,
            log: ReplyLog::new(keep_every),
        })
        .collect();
    let t0 = Instant::now();
    let (lanes, samples) = closed_loop(lanes, &deal(ops), 1, t0);
    (lanes.into_iter().map(|l| l.log).collect(), samples, t0)
}

/// Open loop: arrivals queue in a channel per worker.
fn paced(
    engine: &QueryEngine,
    pool: &[RgbImage],
    count: usize,
    rate_per_s: usize,
    seed: u64,
) -> Vec<Sample> {
    let mut logs: Vec<ReplyLog> = (0..LANES).map(|_| ReplyLog::new(u32::MAX)).collect();
    let lanes = logs
        .iter_mut()
        .map(|log| {
            let (tx, rx) = mpsc::channel::<u32>();
            let send: SendHalf = Box::new(move |op| tx.send(op).expect("worker is alive"));
            let recv: RecvHalf = Box::new(move |_| {
                let op = rx.recv().expect("sender is alive");
                query(engine, pool, op, log)
            });
            (send, recv)
        })
        .collect();
    open_loop(&paced_schedule(seed, rate_per_s, count), lanes)
}

/// A restart: load the saved collection, rebuild the tree, warm up.
fn setup(path: &Path, pool: &[RgbImage]) -> QueryEngine {
    let db = load_file(path).expect("load the saved collection");
    let engine = QueryEngine::build(db, ANTIPOLE, Measure::L1).expect("build antipole tree");
    closed(&engine, pool, 0..WARM_QUERIES, u32::MAX);
    engine
}

pub fn run(ctx: &Ctx, trace: bool) -> Report {
    let mut report = Report::default();
    let sizes = &IMAGE_PIPELINE;
    let base = if ctx.quick {
        CHUNK_BASE / 5
    } else {
        CHUNK_BASE
    };
    // Whole chunks, each base image in every orientation, and a count of
    // batches that [`SLICES`] divides.
    let chunks = 5 * (INGEST_PER_S * ctx.seconds).div_ceil(5 * CHUNK_BASE * VARIANTS);
    let closed_n = ctx.closed_ops(sizes, trace);
    let mut leg = trace.then(|| traced::Leg::new(ctx, "image_pipeline"));
    let pipeline = Pipeline::full_default();
    let (mut scratch, mut out) = (ExtractScratch::new(), Vec::new());
    cbir_obs::reset();

    // Ingest. Rendering and turning the images is input preparation and
    // is not timed; extraction, insertion, build and save are.
    let mut db = ImageDatabase::new(pipeline.clone());
    let mut batch_s: Vec<f64> = Vec::new();
    for chunk in 0..chunks {
        let rendered = image_chunk(ctx.seed, chunk, 5, ctx.quick);
        for v in 0..VARIANTS {
            let images: Vec<RgbImage> =
                rendered[..base].iter().map(|img| variant(img, v)).collect();
            let first = db.len();
            let items: Vec<BatchItem> = images
                .iter()
                .enumerate()
                .map(|(i, image)| BatchItem {
                    name: format!("img-{:06}", first + i),
                    label: None,
                    image,
                })
                .collect();
            let t = Instant::now();
            db.insert_batch(&items, EXTRACT_THREADS)
                .expect("ingest a batch");
            batch_s.push(t.elapsed().as_secs_f64());
            if let Some(leg) = &mut leg {
                // The same extraction, one image at a time on this thread.
                for (i, image) in images.iter().enumerate().step_by(traced::REPLAY_EVERY) {
                    leg.tracer
                        .span("features.extract", None, (first + i) as u32, |_, _| {
                            pipeline
                                .extract_balanced_into(image, &mut scratch, &mut out)
                                .expect("replayed extraction")
                        });
                }
            }
        }
    }
    let path = ctx.run_dir.join("collection.cbir");
    let t = Instant::now();
    let ingest_engine = QueryEngine::build(db.clone(), ANTIPOLE, Measure::L1).expect("build");
    let build_s = t.elapsed().as_secs_f64();
    save_file(&db, &path).expect("save the collection");
    let tail_s = t.elapsed().as_secs_f64();
    drop(ingest_engine);
    // One image made searchable = its share of extract + insert, plus
    // its share of the build and the save.
    let per_slice = batch_s.len() / SLICES;
    let images_per_slice = (per_slice * base) as f64;
    let ingest: Vec<f64> = batch_s
        .chunks(per_slice)
        .map(|s| images_per_slice / (s.iter().sum::<f64>() + tail_s / SLICES as f64))
        .collect();
    report.attempted += db.len() as u64;
    report.note("images", Json::Num(db.len() as f64));
    report.note("descriptor_dim", Json::Num(db.dim() as f64));
    report.note("ingest_slices_per_s", nums(&ingest));
    report.note("build_and_save_s", Json::Num(tail_s));
    let file_bytes = std::fs::metadata(&path).expect("stat collection").len();
    report.set("stored_bytes_per_row", file_bytes as f64 / db.len() as f64);

    // Query by example, on images the collection has not seen.
    // One image from each of as many classes, four orientations each:
    // a pool of few classes would make query cost a property of the seed.
    let pool: Vec<RgbImage> = image_chunk(ctx.seed, 1_000_000, 1, ctx.quick)
        .iter()
        .take(POOL_BASE)
        .flat_map(|img| (0..POOL_VARIANTS).map(move |v| variant(img, v)))
        .collect();
    let engine = timed_setups(&mut report, trace, || setup(&path, &pool), drop);

    if let Some(mut t) = leg {
        let half = closed_n / 2;
        let pass = t.closed_passes(
            &mut report,
            |h| closed(&engine, &pool, h * half..(h + 1) * half, u32::MAX),
            || (0, 0, 0),
            |_| true,
        );
        t.paced_passes(&mut report, ctx, sizes, |ops, rate| {
            paced(&engine, &pool, ops.len(), rate, ctx.seed)
        });
        let stages = cbir_obs::snapshot().stages;
        let (hits, misses) = stages
            .iter()
            .fold((0, 0), |a, s| (a.0 + s.hits, a.1 + s.misses));
        report.set(
            "features.stage_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "features.extract_ms_per_image",
            t.tracer.mean_self_us("features.extract") / 1e3,
        );
        report.set("index.antipole_build_ms", build_s * 1e3);
        report.set("core.persist_save_ms", (tail_s - build_s) * 1e3);
        let (id, _) = t.tracer.span("core.persist_load", None, 0, |_, _| {
            std::hint::black_box(load_file(&path).expect("reload the collection"))
        });
        report.set("core.persist_load_ms", t.tracer.span_us(id) / 1e3);

        // One replayed query = extract, then search and rank.
        let rows = engine.database().len() as f64;
        let mut stats = SearchStats::new();
        let replayed = (0..half)
            .step_by(traced::REPLAY_EVERY)
            .map(|op| &pool[op % pool.len()]);
        for (op, image) in replayed.enumerate() {
            let op = op as u32;
            t.tracer.span("replay.op", None, op, |tr, me| {
                tr.span("features.extract_query", Some(me), op, |_, _| {
                    pipeline
                        .extract_balanced_into(image, &mut scratch, &mut out)
                        .expect("replayed extraction")
                });
                tr.span("core.engine", Some(me), op, |_, _| {
                    std::hint::black_box(engine.query_by_descriptor(&out, K, &mut stats))
                        .expect("replayed search")
                });
            });
        }
        let replays = t.tracer.self_time()["core.engine"].0 as f64;
        let search = t.tracer.mean_self_us("core.engine");
        let extract = t.tracer.mean_self_us("features.extract_query");
        let evals = stats.distance_computations as f64 / replays;
        report.set("index.antipole_query_us", search);
        report.set("core.engine_us_per_query", search);
        report.set("index.antipole_dist_evals_per_query", evals);
        report.set("index.antipole_pruned_share", 1.0 - evals / rows);
        report.set(
            "unattributed_share",
            1.0 - (extract + search) / pass.mean_latency_us,
        );
        t.finish(&mut report);
    } else {
        let (logs, samples, _) = closed(&engine, &pool, 0..closed_n, ORACLE_EVERY);
        closed_summary(&mut report, &samples, |_| true);
        report.set("peak_rss_mb", peak_rss_mb());
        // Throughput is the ingest's; the queries give the latencies.
        report.set("throughput_per_s", highest(ingest.iter().copied()));
        // The oracle: an exact linear scan over the same rows.
        let images: Vec<&RgbImage> = pool.iter().collect();
        let asked = db
            .extract_batch(&images, EXTRACT_THREADS)
            .expect("extract the pool");
        let oracle = QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("build oracle");
        let v = oracle_verdict(&oracle, &logs, |op| &asked[op as usize % asked.len()]);
        report.check(
            "sampled antipole replies are bit-identical to a linear scan",
            v.all_identical(),
        );
        report.set("recall_at_10", v.recall());
    }
    report
}
