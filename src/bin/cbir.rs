//! `cbir` — command-line interface to the content-based image indexing
//! system.
//!
//! ```text
//! cbir generate <dir> [--classes N] [--per-class M] [--size S] [--seed K]
//! cbir index <dir> --db <file> [--pipeline full|color|texture|shape] [--threads N]
//! cbir query <db> <image>... [-k N] [--measure M] [--index I] [--threads N]
//! cbir info <db>
//! cbir fsck <db>
//! cbir evaluate <db> [-k N] [--measure M] [--index I] [--threads N]
//! cbir trace <db> <image> [-k N] [--format text|json]
//! cbir stats <addr> [--format json|prometheus]
//! ```
//!
//! Images are read in any supported container (PPM/PGM/PBM/BMP). Class
//! labels are inferred from a `class-<n>-` file-name prefix when present,
//! so corpora written by `generate` evaluate out of the box.

use cbir::core::persist;
use cbir::image::codec::{decode, encode_ppm, PnmEncoding};
use cbir::image::RgbImage;
use cbir::router::{Router, RouterConfig};
use cbir::server::protocol::{decode_response, encode_request, read_frame, write_frame};
use cbir::server::{
    ChaosProxy, Client, HitsReply, Request, Response, RetryPolicy, RetryingClient, SchedulerConfig,
    Server, StatsSnapshot, WireMode,
};
use cbir::workload::{Corpus, CorpusSpec};
use cbir::{
    evaluate_engine, merge_shards, split_database, BatchItem, BatchStats, CorpusStore, FeatureSpec,
    ImageDatabase, ImageMeta, IndexKind, Measure, Pipeline, QueryEngine, SearchStats, ServedCorpus,
    ShardPlan, ShardScheme, StoreOptions,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage:
  cbir generate <dir> [--classes N] [--per-class M] [--size S] [--seed K]
      write a deterministic synthetic corpus as PPM files

  cbir index <dir> --db <file> [--pipeline full|color|texture|shape] [--threads N]
      extract signatures from every image in <dir> and save a database

  cbir query <db> <image>... [-k N] [--measure l1|l2|linf|chisq|match|cosine|intersect]
                             [--index linear|kd|vp|antipole|rstar|mtree] [--threads N]
                             [--trace-sample-n N] [--recall-target R]
      rank database images by similarity to the example image(s);
      multiple images run as one batch; --trace-sample-n 1 prints a
      per-query stage trace to stderr (stdout stays byte-identical);
      --recall-target R in (0,1] trades recall for speed via two-stage
      coarse-to-fine search (1.0, the default, is exact); under l1 with
      --index linear a query the exact filter serves is answered exactly
      and prints (answered exactly)

  cbir info <db>
      print database statistics

  cbir evaluate <db> [-k N] [--measure M] [--index I] [--threads N]
      leave-one-out retrieval evaluation over the database's class labels

  cbir trace <db> <image> [-k N] [--measure M] [--index I] [--format text|json]
      run one traced query and print its stage timeline plus pruning
      counters (text renders a timeline, json emits the raw trace)

  cbir stats <addr> [--format json|prometheus]
      fetch a running server's observability snapshot (per-index pruning
      counters, stage cache hits, latency quantiles, queue depth)

  cbir fsck <db-or-segdir>
      validate a database file — or a whole segment directory (manifest
      plus every referenced segment) — section by section (checksums,
      lengths); prints per-file per-section status and exits nonzero on
      the first corruption

  cbir ingest <imgdir> --store <segdir> [--pipeline full|color|texture|shape]
                       [--threads N] [--memtable-limit N]
      extract signatures from every image in <imgdir> into a live segment
      store (created with --pipeline if <segdir> has no MANIFEST yet),
      then compact the memtable into immutable segments

  cbir compact <segdir-or-addr>
      fold a store's memtable and tombstones into fresh immutable
      segments; a target containing ':' is treated as a running server's
      address and compacted over RPC

  cbir serve <db-or-segdir> [--mmap] [--port P] [--addr-file F] [--measure M] [--index I]
                  [--max-batch N] [--max-delay-us N] [--queue-cap N] [--threads N]
                  [--idle-timeout-ms N] [--write-timeout-ms N] [--trace-sample-n N]
                  [--recall-target R]
      serve the database over TCP (CBIRRPC1) with dynamic micro-batching;
      a segment directory (or --mmap, which migrates a database file to
      <db>.seg/ on first use) serves mmap-backed segments with live
      insert/delete/compact RPCs enabled; --port 0 picks an ephemeral
      port, --addr-file writes the bound address; timeout 0 disables
      idle reaping / write timeouts; --trace-sample-n N samples every
      Nth query into the trace ring (see rpc-ctl explain);
      --recall-target R forces every k-NN request to recall target R,
      overriding what clients ask for; one epoll thread serves every
      connection (linux), up to 8192 at once

  cbir shard-plan <db> [--shards N] [--scheme mod|range] [--out-dir DIR]
      split a database file into N per-shard databases plus a PLAN.txt
      under --out-dir (default <db>.shards/), verifying that merging the
      shards back reproduces the input bit-for-bit; each shard file is
      served by an ordinary `cbir serve`, the plan feeds `cbir route`

  cbir route <plan> <shard0-replicas> <shard1-replicas>... [--port P] [--addr-file F]
                    [--cooldown-ms N] [--read-timeout-ms N] [--hedge-ms N] [--probe-ms N]
                    [--allow-partial] [--breaker-threshold N] [--retry-budget N]
      serve the union corpus over TCP (CBIRRPC1) by scatter-gathering
      across backend servers: one positional argument per shard, each a
      comma-separated replica address list (primary first); replies on
      the exact path are frame-level bit-identical to a single node
      serving the union corpus, and a replica failing with a transient
      error fails over to a sibling (cooldown --cooldown-ms, default
      1000); any cbir client/tool works against the router unchanged.
      Front connections share one epoll thread (linux), as on serve;
      --read-timeout-ms N reaps a front connection idle for N ms
      (default 0: never).
      Degraded-mode knobs: --hedge-ms N sends a hedged duplicate to a
      sibling replica when a shard reply is slower than max(N, observed
      p99); --probe-ms N health-probes every replica each N ms and
      rejoins recovered ones; --allow-partial answers scatter queries
      from the shards that are up (replies carry answered/total shard
      coverage) instead of failing; --breaker-threshold N opens a
      replica's circuit breaker after N consecutive failures (0 = off,
      default 5); --retry-budget N caps concurrent failover retries
      (token bucket, default 100)

  cbir chaos-proxy <upstream> [--port P] [--addr-file F] [--mode M]
      wire-level fault-injection proxy for chaos drills: forwards every
      connection to <upstream> under --mode, one of pass, drop,
      blackhole, delay-ms:N, throttle:BYTES_PER_SEC, torn:SEED:MAXPREFIX
      (tear replies after a seeded prefix), flip:SEED:WINDOW (flip one
      seeded bit in flight); mode choices are deterministic per seed and
      accept order, so drills replay

  cbir rpc-query <addr> [<image>...] --db <file-or-segdir> [-k N] [--radius R] [--deadline-us D]
  cbir rpc-query <addr> --id N [-k N] [--deadline-us D] [--retries N] [--recall-target R]
      query a running server; example images are extracted locally with
      the pipeline stored in --db (a database file or segment store
      directory), or --id queries by database image id; --retries > 0
      reconnects and resends on transient failures; --recall-target R
      in (0,1] requests approximate search (a reply reports its query's
      coarse/rerank candidate counts, or (answered exactly) where the
      server's exact l1 filter served it)

  cbir rpc-storm <addr> [--conns N] [--requests N] [-k N] [--seed S]
      open N connections (default 64), pipeline --requests knn-by-id
      queries on each (write every frame, then read every reply), and
      print a digest over all reply frame bytes in (connection, request)
      order; the digest depends only on the corpus and the storm shape,
      so two builds of the server (a parent commit and a change) serving
      one database must print the same digest

  cbir rpc-insert <addr> <image>... --db <file-or-segdir>
      insert example images into a live server, extracted locally with
      the pipeline in --db; class labels inferred from file names

  cbir rpc-ctl <addr> ping|stats|explain|shutdown|abort
  cbir rpc-ctl <addr> delete --id N
      probe, inspect counters, dump sampled query traces as JSON
      (explain), gracefully stop a running server, tombstone a live
      store row by global id (delete), or abort: open a connection,
      send a deliberately truncated frame, and vanish (exercises the
      server's torn-client handling)"
    );
    std::process::exit(2);
}

/// Minimal flag parser: positional args plus `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Flags that are pure switches: present or absent, never taking a value.
const BOOL_FLAGS: &[&str] = &["mmap", "allow-partial"];

impl Args {
    fn parse(args: &[String]) -> Self {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
                if BOOL_FLAGS.contains(&name) {
                    flags.insert(name.to_string(), "true".to_string());
                    continue;
                }
                // A following "--flag" is a missing value, not a value.
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().expect("peeked"),
                    _ => usage(),
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// Exit with an error naming the first flag `cmd` does not take: a
    /// tuning flag that is silently ignored reads as one that took hold.
    fn reject_unknown(&self, cmd: &str, known: &[&str]) {
        if let Some(name) = self.flags.keys().find(|f| !known.contains(&f.as_str())) {
            eprintln!("error: unknown flag --{name} for {cmd}");
            std::process::exit(2);
        }
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.flag(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value for --{name}: {v}");
                std::process::exit(2);
            }),
        }
    }
}

fn pipeline_by_name(name: &str) -> Pipeline {
    match name {
        "full" => Pipeline::full_default(),
        "color" => Pipeline::color_histogram_default(),
        "texture" => Pipeline::new(
            64,
            vec![
                FeatureSpec::Glcm { levels: 16 },
                FeatureSpec::Tamura,
                FeatureSpec::Wavelet { levels: 3 },
            ],
        )
        .expect("static pipeline"),
        "shape" => Pipeline::new(
            64,
            vec![
                FeatureSpec::HuMoments,
                FeatureSpec::ShapeSummary,
                FeatureSpec::RegionShape,
                FeatureSpec::EdgeOrientation { bins: 16 },
            ],
        )
        .expect("static pipeline"),
        other => {
            eprintln!("error: unknown pipeline {other:?} (full|color|texture|shape)");
            std::process::exit(2);
        }
    }
}

fn measure_by_name(name: &str) -> Measure {
    match name {
        "l1" => Measure::L1,
        "l2" => Measure::L2,
        "linf" => Measure::LInf,
        "chisq" => Measure::ChiSquare,
        "match" => Measure::Match,
        "cosine" => Measure::Cosine,
        "intersect" => Measure::Intersection,
        other => {
            eprintln!("error: unknown measure {other:?}");
            std::process::exit(2);
        }
    }
}

fn index_by_name(name: &str) -> IndexKind {
    match name {
        "linear" => IndexKind::Linear,
        "kd" => IndexKind::KdTree,
        "vp" => IndexKind::VpTree,
        "antipole" => IndexKind::Antipole { diameter: None },
        "rstar" => IndexKind::RStar,
        "mtree" => IndexKind::MTree,
        other => {
            eprintln!("error: unknown index {other:?}");
            std::process::exit(2);
        }
    }
}

fn label_from_name(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("class-")?;
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn list_images(dir: &Path) -> Result<Vec<PathBuf>, Box<dyn std::error::Error>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("ppm" | "pgm" | "pbm" | "bmp")
            )
        })
        .collect();
    out.sort();
    Ok(out)
}

fn cmd_generate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = PathBuf::from(args.positional.first().unwrap_or_else(|| usage()));
    let classes: usize = args.flag_parse("classes", 8);
    let per_class: usize = args.flag_parse("per-class", 16);
    let size: u32 = args.flag_parse("size", 64);
    let seed: u64 = args.flag_parse("seed", 7);
    std::fs::create_dir_all(&dir)?;
    let corpus = Corpus::generate(CorpusSpec {
        classes,
        images_per_class: per_class,
        image_size: size,
        jitter: 0.5,
        noise: 0.05,
        seed,
    });
    for (i, img) in corpus.images.iter().enumerate() {
        let label = corpus.labels[i];
        let path = dir.join(format!("class-{label}-{i:04}.ppm"));
        std::fs::write(path, encode_ppm(img, PnmEncoding::Binary))?;
    }
    println!(
        "wrote {} images ({classes} classes x {per_class}) to {}",
        corpus.len(),
        dir.display()
    );
    Ok(())
}

fn cmd_index(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = PathBuf::from(args.positional.first().unwrap_or_else(|| usage()));
    let db_path = args.flag("db").unwrap_or_else(|| usage()).to_string();
    let pipeline = pipeline_by_name(args.flag("pipeline").unwrap_or("full"));
    let threads: usize = args.flag_parse(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );

    let paths = list_images(&dir)?;
    if paths.is_empty() {
        return Err(format!("no images (.ppm/.pgm/.pbm/.bmp) in {}", dir.display()).into());
    }
    let start = std::time::Instant::now();
    let mut decoded = Vec::with_capacity(paths.len());
    for p in &paths {
        let bytes = std::fs::read(p)?;
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        decoded.push((name, decode(&bytes)?.into_rgb()));
    }
    let items: Vec<BatchItem> = decoded
        .iter()
        .map(|(name, image)| BatchItem {
            name: name.clone(),
            label: label_from_name(name),
            image,
        })
        .collect();
    let mut db = ImageDatabase::new(pipeline);
    db.insert_batch(&items, threads)?;
    persist::save_file(&db, &db_path)?;
    println!(
        "indexed {} images (dim {}) into {} in {:.2}s using {threads} threads",
        db.len(),
        db.dim(),
        db_path,
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let img_paths = &args.positional[1..];
    if img_paths.is_empty() {
        usage();
    }
    let k: usize = args.flag_parse("k", 10);
    let measure = measure_by_name(args.flag("measure").unwrap_or("l1"));
    let kind = index_by_name(args.flag("index").unwrap_or("antipole"));
    let threads: usize = args.flag_parse(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let recall_target: f32 = args.flag_parse("recall-target", 1.0);

    let trace_every: u64 = args.flag_parse("trace-sample-n", 0);
    if trace_every > 0 {
        cbir::obs::set_trace_sample_n(trace_every);
    }

    let db = persist::load_file(db_path)?;
    let n = db.len();
    let engine = QueryEngine::build(db, kind, measure)?;
    let mut images = Vec::with_capacity(img_paths.len());
    for p in img_paths {
        images.push(decode(&std::fs::read(p)?)?.into_rgb());
    }
    let refs: Vec<&_> = images.iter().collect();
    let queries = engine.database().extract_batch(&refs, threads)?;
    let mut stats = BatchStats::new();
    let results = engine.knn_batch_approx(&queries, k, recall_target, threads, &mut stats)?;

    // Traces go to stderr so stdout stays byte-identical with and
    // without sampling (verified by scripts/verify.sh).
    if trace_every > 0 {
        for t in cbir::obs::traces() {
            eprint!("{}", cbir::obs::render_trace(&t));
        }
    }

    for ((hits, img_path), own) in results.iter().zip(img_paths).zip(stats.per_query()) {
        if img_paths.len() > 1 {
            println!("query: {img_path}");
        }
        println!("{:<28} {:>7} {:>9}", "name", "label", "distance");
        for h in hits {
            println!(
                "{:<28} {:>7} {:>9.4}",
                h.name,
                h.label.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
                h.distance
            );
        }
        println!();
        if recall_target < 1.0 && own.coarse_candidates == 0 && own.rerank_evaluations == 0 {
            println!("(answered exactly)");
        }
    }
    println!(
        "{} distance computations over {n} images, {} quer{} ({} index)",
        stats.total().distance_computations,
        stats.queries(),
        if stats.queries() == 1 { "y" } else { "ies" },
        engine.index_kind().name(),
    );
    let totals = stats.total();
    if totals.coarse_candidates > 0 {
        println!(
            "approx search (recall target {recall_target}): {} coarse candidates, \
             {} rerank evaluations",
            totals.coarse_candidates, totals.rerank_evaluations,
        );
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let db = persist::load_file(db_path)?;
    println!("database: {db_path}");
    println!("images:   {}", db.len());
    println!("dim:      {}", db.dim());
    println!("balanced: {}", db.is_balanced());
    println!("canonical: {}px", db.pipeline().canonical_size());
    println!("features:");
    for seg in db.layout() {
        println!(
            "  {:<14} [{:>4}..{:>4})  ({} components)",
            seg.kind.name(),
            seg.start,
            seg.end,
            seg.len()
        );
    }
    let labeled = db.metas().iter().filter(|m| m.label.is_some()).count();
    println!("labeled:  {labeled}/{}", db.len());
    Ok(())
}

fn print_fsck_sections(report: &persist::FsckReport, indent: &str) {
    for s in &report.sections {
        match &s.error {
            None => println!(
                "{indent}{:<12} offset {:>8} len {:>10}  ok",
                s.name, s.offset, s.len
            ),
            Some(e) => println!(
                "{indent}{:<12} offset {:>8} len {:>10}  CORRUPT: {e}",
                s.name, s.offset, s.len
            ),
        }
    }
    if let Some(e) = &report.error {
        println!("{indent}error: {e}");
    }
}

fn fsck_verdict(report: &persist::FsckReport) -> Result<(), Box<dyn std::error::Error>> {
    if report.is_ok() {
        println!("ok: all sections validate");
        Ok(())
    } else {
        match report.first_corrupt_offset {
            Some(off) => Err(format!("corrupt: first corrupt offset {off}").into()),
            None => Err("corrupt: file does not validate".into()),
        }
    }
}

/// Validate a segment directory: the manifest, then every referenced
/// segment file (full checksum pass, per-file per-section report).
fn fsck_dir(dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let report = persist::fsck_dir(dir)?;
    println!("store:    {}", dir.display());
    println!("manifest: format {}", report.manifest.format);
    print_fsck_sections(&report.manifest, "  ");
    for (name, seg) in &report.segments {
        println!("{name}: format {}", seg.format);
        print_fsck_sections(seg, "  ");
    }
    for (name, err) in &report.missing {
        println!("{name}: MISSING: {err}");
    }
    for name in &report.orphans {
        println!("{name}: orphan (not referenced by the manifest; reclaimed at next compaction)");
    }
    if report.is_ok() {
        println!(
            "ok: manifest and {} segment file(s) validate",
            report.segments.len()
        );
        return Ok(());
    }
    let first_offset = std::iter::once(&report.manifest)
        .chain(report.segments.iter().map(|(_, r)| r))
        .filter_map(|r| r.first_corrupt_offset)
        .next();
    match first_offset {
        Some(off) => Err(format!("corrupt: first corrupt offset {off}").into()),
        None => Err("corrupt: store does not validate".into()),
    }
}

fn cmd_fsck(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    if Path::new(db_path).is_dir() {
        return fsck_dir(Path::new(db_path));
    }
    let report = persist::fsck_file(db_path)?;
    println!("database: {db_path}");
    println!("format:   {}", report.format);
    print_fsck_sections(&report, "  ");
    fsck_verdict(&report)
}

fn cmd_evaluate(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let k: usize = args.flag_parse("k", 10);
    let measure = measure_by_name(args.flag("measure").unwrap_or("l1"));
    let kind = index_by_name(args.flag("index").unwrap_or("linear"));
    let threads: usize = args.flag_parse(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let db = persist::load_file(db_path)?;
    let n = db.len();
    let engine = QueryEngine::build(db, kind, measure)?;
    let report = evaluate_engine(&engine, k, threads)?;

    println!(
        "leave-one-out evaluation over {} labeled queries (of {n} images, {threads} threads):",
        report.evaluated
    );
    println!("  P@{k}:        {:.3}", report.precision_at_k);
    println!("  mAP:         {:.3}", report.mean_average_precision);
    println!("  R-precision: {:.3}", report.r_precision);
    println!("  nDCG@{k}:     {:.3}", report.ndcg_at_k);
    println!(
        "  cost:        {:.0} distance computations/query mean, p50 {}, p95 {} ({} index, {} measure)",
        report.stats.mean_comps(),
        report.stats.p50_comps(),
        report.stats.p95_comps(),
        engine.index_kind().name(),
        engine.measure().name(),
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let img_path = args.positional.get(1).unwrap_or_else(|| usage());
    let k: usize = args.flag_parse("k", 10);
    let measure = measure_by_name(args.flag("measure").unwrap_or("l1"));
    let kind = index_by_name(args.flag("index").unwrap_or("antipole"));
    let format = args.flag("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        eprintln!("error: unknown format {format:?} (text|json)");
        std::process::exit(2);
    }

    let db = persist::load_file(db_path)?;
    let engine = QueryEngine::build(db, kind, measure)?;
    let image = decode(&std::fs::read(img_path)?)?.into_rgb();
    cbir::obs::set_trace_sample_n(1);
    let mut stats = SearchStats::new();
    engine.query_by_example(&image, k, &mut stats)?;
    let trace = cbir::obs::latest_trace()
        .ok_or("no trace captured (observability disabled in this build?)")?;
    match format {
        "json" => println!("{}", cbir::obs::trace_to_json(&trace).render()),
        _ => print!("{}", cbir::obs::render_trace(&trace)),
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.positional.first().unwrap_or_else(|| usage());
    let format = args.flag("format").unwrap_or("json");
    let prometheus = match format {
        "json" => false,
        "prometheus" => true,
        other => {
            eprintln!("error: unknown format {other:?} (json|prometheus)");
            std::process::exit(2);
        }
    };
    let mut client = Client::connect(addr)?;
    // JSON arrives compact with no newline (node or router alike);
    // Prometheus text already ends in one.
    println!("{}", client.obs_stats(prometheus)?.trim_end());
    Ok(())
}

fn print_server_stats(snap: &StatsSnapshot) {
    println!(
        "requests {} (admitted {}, shed {}, refused-shutdown {}), executed {} in {} batches, \
         expired {}, errors {}",
        snap.requests,
        snap.admitted,
        snap.shed,
        snap.rejected_shutdown,
        snap.executed,
        snap.batches,
        snap.expired,
        snap.errors,
    );
    println!(
        "latency p50 {}us p95 {}us, {} distance computations, queue depth {}",
        snap.latency_p50_us, snap.latency_p95_us, snap.distance_computations, snap.queue_depth,
    );
    println!(
        "io timeouts {}, panics isolated {}, epoll wakeups {}, max pipeline depth {}",
        snap.io_timeouts, snap.panics_isolated, snap.epoll_wakeups, snap.max_pipeline_depth,
    );
    let hist: Vec<String> = snap
        .batch_hist
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(bound, count)| {
            if *bound == u64::MAX {
                format!("larger: {count}")
            } else {
                format!("<={bound}: {count}")
            }
        })
        .collect();
    if !hist.is_empty() {
        println!("batch sizes: {}", hist.join(", "));
    }
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.reject_unknown(
        "serve",
        &[
            "mmap",
            "port",
            "addr-file",
            "measure",
            "index",
            "max-batch",
            "max-delay-us",
            "queue-cap",
            "threads",
            "idle-timeout-ms",
            "write-timeout-ms",
            "trace-sample-n",
            "recall-target",
        ],
    );
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let port: u16 = args.flag_parse("port", 7878);
    let measure = measure_by_name(args.flag("measure").unwrap_or("l1"));
    let kind = index_by_name(args.flag("index").unwrap_or("vp"));
    let defaults = SchedulerConfig::default();
    // Timeout flags take milliseconds; 0 disables the timeout entirely.
    let timeout_flag = |name: &str, default: Option<Duration>| -> Option<Duration> {
        let default_ms = default.map_or(0, |d| d.as_millis() as u64);
        match args.flag_parse(name, default_ms) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    };
    let config = SchedulerConfig {
        max_batch: args.flag_parse("max-batch", defaults.max_batch),
        max_delay: Duration::from_micros(
            args.flag_parse("max-delay-us", defaults.max_delay.as_micros() as u64),
        ),
        queue_cap: args.flag_parse("queue-cap", defaults.queue_cap),
        exec_threads: args.flag_parse("threads", defaults.exec_threads),
        idle_timeout: timeout_flag("idle-timeout-ms", defaults.idle_timeout),
        write_timeout: timeout_flag("write-timeout-ms", defaults.write_timeout),
        recall_target_override: args.flag("recall-target").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid value for --recall-target: {v}");
                std::process::exit(2);
            })
        }),
    };

    let trace_every: u64 = args.flag_parse("trace-sample-n", 0);
    if trace_every > 0 {
        cbir::obs::set_trace_sample_n(trace_every);
    }

    let open_start = std::time::Instant::now();
    let serve_live = Path::new(db_path).is_dir() || args.has("mmap");
    let (corpus, mode) = if serve_live {
        let store = open_serving_store(Path::new(db_path), StoreOptions::new(kind, measure))?;
        let snap = store.snapshot();
        let mode = format!(
            "live store: {} segment(s) + {} memtable row(s), epoch {}",
            snap.segments_len(),
            snap.memtable_rows(),
            snap.epoch()
        );
        (ServedCorpus::Live(store), mode)
    } else {
        let db = persist::load_file(db_path)?;
        let mode = format!("{} index, static", kind.name());
        let engine = QueryEngine::build(db, kind, measure)?;
        (ServedCorpus::Static(Arc::new(engine)), mode)
    };
    // Static or live, the server reads the corpus through one pinned view.
    let n = corpus.pin().len();
    let handle = Server::spawn_corpus(corpus, ("127.0.0.1", port), config)?;
    let addr = handle.local_addr();
    println!(
        "listening on {addr} ({n} images, {mode}, opened in {:.1}ms)",
        open_start.elapsed().as_secs_f64() * 1e3
    );
    if let Some(addr_file) = args.flag("addr-file") {
        std::fs::write(addr_file, addr.to_string())?;
    }
    // Blocks until a client sends the shutdown op.
    let snap = handle.join();
    println!("server stopped; final counters:");
    print_server_stats(&snap);
    Ok(())
}

fn cmd_shard_plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let db_path = args.positional.first().unwrap_or_else(|| usage());
    let shards: usize = args.flag_parse("shards", 2);
    let scheme = match args.flag("scheme").unwrap_or("mod") {
        "mod" => ShardScheme::Mod,
        "range" => ShardScheme::Range,
        other => {
            eprintln!("error: unknown scheme {other:?} (mod|range)");
            std::process::exit(2);
        }
    };
    let out_dir = args
        .flag("out-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{db_path}.shards")));

    let db = persist::load_file(db_path)?;
    let plan = ShardPlan::new(scheme, db.dim(), db.len() as u64, shards)?;
    let parts = split_database(&db, &plan)?;

    // A plan is only worth deploying if it reassembles the corpus
    // exactly — check before writing anything.
    let rebuilt = merge_shards(&parts, &plan)?;
    if rebuilt.len() != db.len() {
        return Err("shard round-trip changed the row count".into());
    }
    for g in 0..db.len() {
        let (a, b) = (rebuilt.descriptor(g)?, db.descriptor(g)?);
        if a.len() != b.len() || !a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()) {
            return Err(format!("shard round-trip diverged at row {g}").into());
        }
    }

    std::fs::create_dir_all(&out_dir)?;
    plan.save(out_dir.join("PLAN.txt"))?;
    println!(
        "plan: {} scheme, {} rows x {} dim -> {} shard(s), saved {}",
        match scheme {
            ShardScheme::Mod => "mod",
            ShardScheme::Range => "range",
        },
        plan.total_rows(),
        plan.dim(),
        plan.shards(),
        out_dir.join("PLAN.txt").display()
    );
    for (s, part) in parts.iter().enumerate() {
        let path = out_dir.join(format!("shard-{s}.db"));
        persist::save_file(part, &path)?;
        println!(
            "  shard {s}: {} row(s) -> {}",
            plan.rows_of(s),
            path.display()
        );
    }
    println!(
        "serve each shard with `cbir serve`, then `cbir route {}`",
        out_dir.join("PLAN.txt").display()
    );
    Ok(())
}

fn cmd_route(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    args.reject_unknown(
        "route",
        &[
            "port",
            "addr-file",
            "cooldown-ms",
            "read-timeout-ms",
            "hedge-ms",
            "probe-ms",
            "allow-partial",
            "breaker-threshold",
            "retry-budget",
        ],
    );
    if args.positional.len() < 2 {
        usage();
    }
    let plan = ShardPlan::load(&args.positional[0])?;
    let groups: Vec<Vec<String>> = args.positional[1..]
        .iter()
        .map(|g| g.split(',').map(|a| a.trim().to_string()).collect())
        .collect();
    let port: u16 = args.flag_parse("port", 7979);
    let opt_ms = |name: &str| match args.flag_parse(name, 0u64) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let config = RouterConfig {
        cooldown: Duration::from_millis(args.flag_parse("cooldown-ms", 1000)),
        read_timeout: opt_ms("read-timeout-ms"),
        hedge: opt_ms("hedge-ms"),
        probe_interval: opt_ms("probe-ms"),
        allow_partial: args.has("allow-partial"),
        breaker_threshold: args.flag_parse("breaker-threshold", 5),
        retry_budget: args.flag_parse("retry-budget", 100),
        ..RouterConfig::default()
    };
    let degraded_knobs = [
        config.hedge.map(|d| format!("hedge {}ms", d.as_millis())),
        config
            .probe_interval
            .map(|d| format!("probe {}ms", d.as_millis())),
        config.allow_partial.then(|| "partial results".to_string()),
    ]
    .into_iter()
    .flatten()
    .collect::<Vec<_>>()
    .join(", ");
    let replicas: usize = groups.iter().map(Vec::len).sum();
    let handle = Router::spawn(plan.clone(), groups, ("127.0.0.1", port), config)?;
    let addr = handle.local_addr();
    println!(
        "routing on {addr} ({} rows, {} shard(s), {replicas} replica(s))",
        plan.total_rows(),
        plan.shards()
    );
    if !degraded_knobs.is_empty() {
        println!("degraded-mode serving on: {degraded_knobs}");
    }
    if let Some(addr_file) = args.flag("addr-file") {
        std::fs::write(addr_file, addr.to_string())?;
    }
    // Blocks until a client sends the shutdown op; backends keep running.
    handle.join();
    println!("router stopped (backends left running)");
    Ok(())
}

/// Parse a `--mode` string for `cbir chaos-proxy`.
fn parse_wire_mode(s: &str) -> Result<WireMode, Box<dyn std::error::Error>> {
    let bad =
        |what: &str| -> Box<dyn std::error::Error> { format!("invalid --mode {s}: {what}").into() };
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    let mut num = |what: &'static str| -> Result<u64, Box<dyn std::error::Error>> {
        parts
            .next()
            .ok_or_else(|| bad(what))?
            .parse()
            .map_err(|_| bad(what))
    };
    let mode = match head {
        "pass" => WireMode::Pass,
        "drop" => WireMode::Drop,
        "blackhole" => WireMode::BlackHole,
        "delay-ms" => WireMode::Delay(Duration::from_millis(num("expected delay-ms:N")?)),
        "throttle" => WireMode::Throttle {
            bytes_per_sec: num("expected throttle:BYTES_PER_SEC")?.max(1),
        },
        "torn" => WireMode::TornReply {
            seed: num("expected torn:SEED:MAXPREFIX")?,
            max_prefix: num("expected torn:SEED:MAXPREFIX")?.max(1),
        },
        "flip" => WireMode::FlipBit {
            seed: num("expected flip:SEED:WINDOW")?,
            window: num("expected flip:SEED:WINDOW")?.max(1),
        },
        _ => return Err(bad("unknown mode")),
    };
    if parts.next().is_some() {
        return Err(bad("trailing fields"));
    }
    Ok(mode)
}

fn cmd_chaos_proxy(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let upstream = args.positional.first().unwrap_or_else(|| usage()).clone();
    let mode = parse_wire_mode(args.flag("mode").unwrap_or("pass"))?;
    let port: u16 = args.flag_parse("port", 0);
    let handle = ChaosProxy::spawn(upstream.clone(), mode.clone(), ("127.0.0.1", port))?;
    let addr = handle.local_addr();
    println!("chaos proxy on {addr} -> {upstream} (mode: {mode:?})");
    if let Some(addr_file) = args.flag("addr-file") {
        std::fs::write(addr_file, addr.to_string())?;
    }
    // The proxy has no in-band shutdown op (it is transparent by
    // design); it runs until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Open a live segment store for serving: a directory opens directly; a
/// database file is migrated (once) into a `<file>.seg/` sibling store,
/// which is opened on every subsequent serve.
fn open_serving_store(
    path: &Path,
    options: StoreOptions,
) -> Result<Arc<CorpusStore>, Box<dyn std::error::Error>> {
    if path.is_dir() {
        return Ok(CorpusStore::open(path, options)?);
    }
    let seg_dir = PathBuf::from(format!("{}.seg", path.display()));
    if seg_dir.join(persist::MANIFEST_FILE).is_file() {
        return Ok(CorpusStore::open(&seg_dir, options)?);
    }
    let db = persist::load_file(path)?;
    eprintln!(
        "migrating {} ({} images) into segment store {}",
        path.display(),
        db.len(),
        seg_dir.display()
    );
    Ok(CorpusStore::create_from_database(&seg_dir, &db, options)?)
}

/// Extract query descriptors with the pipeline stored in `db_ref` — a
/// database file or a segment store directory (whose manifest carries
/// the same pipeline config).
fn extract_descriptors(
    db_ref: &str,
    images: &[RgbImage],
) -> Result<Vec<Vec<f32>>, Box<dyn std::error::Error>> {
    let path = Path::new(db_ref);
    if path.is_dir() {
        let manifest = persist::parse_manifest(&persist::read_file_bytes(
            path.join(persist::MANIFEST_FILE),
        )?)?;
        let mut out = Vec::with_capacity(images.len());
        for img in images {
            out.push(if manifest.balanced {
                manifest.pipeline.extract_balanced(img)?
            } else {
                manifest.pipeline.extract(img)?
            });
        }
        Ok(out)
    } else {
        let db = persist::load_file(path)?;
        let refs: Vec<&_> = images.iter().collect();
        Ok(db.extract_batch(&refs, 1)?)
    }
}

fn cmd_ingest(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let dir = PathBuf::from(args.positional.first().unwrap_or_else(|| usage()));
    let store_dir = PathBuf::from(args.flag("store").unwrap_or_else(|| usage()));
    let threads: usize = args.flag_parse(
        "threads",
        std::thread::available_parallelism().map_or(4, |n| n.get()),
    );
    let mut options = StoreOptions::new(IndexKind::VpTree, Measure::L1);
    options.memtable_limit = args.flag_parse("memtable-limit", options.memtable_limit);

    let store = if store_dir.join(persist::MANIFEST_FILE).is_file() {
        CorpusStore::open(&store_dir, options)?
    } else {
        let pipeline = pipeline_by_name(args.flag("pipeline").unwrap_or("full"));
        CorpusStore::create(&store_dir, pipeline, false, options)?
    };

    let paths = list_images(&dir)?;
    if paths.is_empty() {
        return Err(format!("no images (.ppm/.pgm/.pbm/.bmp) in {}", dir.display()).into());
    }
    let start = std::time::Instant::now();
    let mut decoded = Vec::with_capacity(paths.len());
    for p in &paths {
        let bytes = std::fs::read(p)?;
        let name = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        decoded.push((name, decode(&bytes)?.into_rgb()));
    }

    // Extract in parallel against the store's pipeline, then land the
    // whole batch on the memtable and compact it into segments.
    let snap = store.snapshot();
    let threads = threads.clamp(1, decoded.len());
    let chunk_len = decoded.len().div_ceil(threads);
    let mut descriptors: Vec<Vec<f32>> = Vec::with_capacity(decoded.len());
    let chunks: Vec<Result<Vec<Vec<f32>>, cbir::CoreError>> = std::thread::scope(|s| {
        let snap = &snap;
        let handles: Vec<_> = decoded
            .chunks(chunk_len)
            .map(|chunk| s.spawn(move || chunk.iter().map(|(_, img)| snap.extract(img)).collect()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("extract worker panicked"))
            .collect()
    });
    for chunk in chunks {
        descriptors.extend(chunk?);
    }

    let items: Vec<(ImageMeta, Vec<f32>)> = decoded
        .iter()
        .zip(descriptors)
        .map(|((name, _), desc)| {
            (
                ImageMeta {
                    name: name.clone(),
                    label: label_from_name(name),
                },
                desc,
            )
        })
        .collect();
    let n = items.len();
    store.insert_batch(items)?;
    let stats = store.compact()?;
    println!(
        "ingested {n} images into {} in {:.2}s using {threads} threads \
         ({} segment(s), {} rows, epoch {})",
        store_dir.display(),
        start.elapsed().as_secs_f64(),
        stats.segments,
        stats.rows,
        stats.epoch
    );
    Ok(())
}

fn cmd_compact(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let target = args.positional.first().unwrap_or_else(|| usage());
    if target.contains(':') {
        let mut client = Client::connect(target.as_str())?;
        let (epoch, segments, rows) = client.compact()?;
        println!("compacted over rpc: epoch {epoch}, {segments} segment(s), {rows} rows");
        return Ok(());
    }
    // Index/measure choice is irrelevant to compaction itself; open with
    // cheap defaults rather than requiring flags.
    let store = CorpusStore::open(target, StoreOptions::new(IndexKind::Linear, Measure::L1))?;
    let stats = store.compact()?;
    if stats.skipped {
        println!(
            "nothing to compact: epoch {}, {} segment(s), {} rows",
            stats.epoch, stats.segments, stats.rows
        );
    } else {
        println!(
            "compacted: epoch {}, {} segment(s), {} rows, {} bytes written, {} segment(s) kept",
            stats.epoch, stats.segments, stats.rows, stats.bytes_written, stats.segments_kept
        );
    }
    Ok(())
}

fn cmd_rpc_insert(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.positional.first().unwrap_or_else(|| usage());
    let img_paths = &args.positional[1..];
    if img_paths.is_empty() {
        usage();
    }
    let db_ref = args.flag("db").ok_or(
        "rpc-insert needs --db <file-or-segdir> (the corpus the server was started from) \
         to extract descriptors",
    )?;
    let mut names = Vec::with_capacity(img_paths.len());
    let mut images = Vec::with_capacity(img_paths.len());
    for p in img_paths {
        names.push(
            Path::new(p)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.clone()),
        );
        images.push(decode(&std::fs::read(p)?)?.into_rgb());
    }
    let descriptors = extract_descriptors(db_ref, &images)?;
    let mut client = Client::connect(addr.as_str())?;
    for (name, desc) in names.iter().zip(&descriptors) {
        let (id, epoch) = client.insert(name, label_from_name(name), desc)?;
        println!("inserted {name} as id {id} (epoch {epoch})");
    }
    Ok(())
}

/// The line after a k-NN's hits that says which path answered it: the
/// two-stage search's candidate counts if it ran, else — if the request
/// asked for recall below 1.0 — that the exact filter answered it.
fn print_approx_path(coarse_candidates: u64, rerank_evaluations: u64, asked_approx: bool) {
    if coarse_candidates > 0 || rerank_evaluations > 0 {
        println!(
            "(approx: {coarse_candidates} coarse candidates, {rerank_evaluations} rerank evaluations)"
        );
    } else if asked_approx {
        println!("(answered exactly)");
    }
}

/// One reply as `rpc-query` prints it: the hits, then which path answered
/// an approximate k-NN (`asked_approx`: it asked for recall below 1.0),
/// then shard coverage if a router answered from fewer shards than its
/// plan — exact, full-coverage replies stay byte-for-byte what a single
/// node would print.
fn print_reply(reply: &HitsReply, asked_approx: bool) {
    println!("{:<28} {:>7} {:>9}", "name", "label", "distance");
    for h in &reply.hits {
        println!(
            "{:<28} {:>7} {:>9.4}",
            h.name,
            h.label.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
            h.distance
        );
    }
    println!();
    print_approx_path(
        reply.coarse_candidates,
        reply.rerank_evaluations,
        asked_approx,
    );
    if reply.degraded {
        println!(
            "(degraded: answered by {}/{} shards)",
            reply.shards_answered, reply.shards_total
        );
    }
}

fn report_retries(client: &RetryingClient) {
    let stats = client.retry_stats();
    if stats.retries > 0 || stats.reconnects > 0 {
        println!(
            "(recovered from transient failures: {} retries, {} reconnects)",
            stats.retries, stats.reconnects
        );
    }
}

fn cmd_rpc_query(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.positional.first().unwrap_or_else(|| usage());
    let k: usize = args.flag_parse("k", 10);
    let deadline_us: u64 = args.flag_parse("deadline-us", 0);
    let recall_target: f32 = args.flag_parse("recall-target", 1.0);
    // One client for every --retries value: 0 is a single attempt.
    let policy = RetryPolicy {
        max_retries: args.flag_parse("retries", 0),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new_disconnected(addr.as_str(), policy);

    if let Some(id) = args.flag("id") {
        let id: usize = id.parse().map_err(|_| format!("invalid --id: {id}"))?;
        let reply = client.call(deadline_us, |c, remaining_us| {
            c.knn_by_id_detailed(id, k, remaining_us, recall_target)
        })?;
        print_reply(&reply, recall_target < 1.0);
        report_retries(&client);
        return Ok(());
    }

    let img_paths = &args.positional[1..];
    if img_paths.is_empty() {
        usage();
    }
    // The server speaks raw descriptors; the stored pipeline turns the
    // example images into descriptors of the dimension the server expects.
    let db_path = args.flag("db").ok_or(
        "rpc-query with images needs --db <file-or-segdir> (the corpus the server was \
         started from) to extract descriptors",
    )?;
    let mut images = Vec::with_capacity(img_paths.len());
    for p in img_paths {
        images.push(decode(&std::fs::read(p)?)?.into_rgb());
    }
    let queries = extract_descriptors(db_path, &images)?;

    let radius: Option<f32> = match args.flag("radius") {
        Some(r) => Some(r.parse().map_err(|_| format!("invalid --radius: {r}"))?),
        None => None,
    };
    for (query, img_path) in queries.iter().zip(img_paths) {
        if img_paths.len() > 1 {
            println!("query: {img_path}");
        }
        let reply = client.call(deadline_us, |c, remaining_us| match radius {
            Some(r) => c.range_detailed(query, r, remaining_us),
            None => c.knn_detailed(query, k, remaining_us, recall_target),
        })?;
        print_reply(&reply, radius.is_none() && recall_target < 1.0);
    }
    report_retries(&client);
    Ok(())
}

/// Simulate a client dying mid-request: open a connection, send a frame
/// header that promises more payload than ever arrives, and vanish. A
/// hardened server must reap the torn connection without disturbing
/// other clients.
fn rpc_abort(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(b"CBIRRPC1")?;
    // Claim a 4096-byte payload, deliver 3 bytes, hang up.
    stream.write_all(&4096u32.to_le_bytes())?;
    stream.write_all(&[0xde, 0xad, 0x01])?;
    stream.flush()?;
    drop(stream);
    println!("sent truncated frame to {addr} and dropped the connection");
    Ok(())
}

/// Pipelined load storm: N connections each write a burst of knn-by-id
/// request frames, then read every reply back. The FNV-1a digest over
/// all reply frame bytes (folded in connection/request order) is
/// deterministic for a given corpus and storm shape, so the same storm
/// against two builds of the server must print the same digest — the
/// wire-level evidence that a change left reply bytes alone.
fn cmd_rpc_storm(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.positional.first().unwrap_or_else(|| usage()).clone();
    let conns: usize = args.flag_parse("conns", 64);
    let per_conn: usize = args.flag_parse("requests", 32);
    let k: u32 = args.flag_parse("k", 8);
    let seed: u64 = args.flag_parse("seed", 1);

    let mut probe = Client::connect(&addr)?;
    let (db_len, _dim) = probe.ping()?;
    drop(probe);
    if db_len == 0 {
        return Err("rpc-storm needs a non-empty corpus".into());
    }

    let start = std::time::Instant::now();
    let mut workers = Vec::new();
    for c in 0..conns {
        let addr = addr.clone();
        workers.push(std::thread::spawn(
            move || -> Result<(u64, usize), String> {
                let mut stream = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
                let _ = stream.set_nodelay(true);
                for i in 0..per_conn {
                    let id = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(((c as u64) << 32) | i as u64)
                        % db_len;
                    let req = Request::KnnById {
                        k,
                        deadline_us: 0,
                        recall_target: 1.0,
                        id,
                    };
                    write_frame(&mut stream, &encode_request(&req)).map_err(|e| e.to_string())?;
                }
                let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
                let mut hits = 0usize;
                let mut reader = std::io::BufReader::new(stream);
                for i in 0..per_conn {
                    let payload = read_frame(&mut reader)
                        .map_err(|e| e.to_string())?
                        .ok_or_else(|| format!("server closed after {i} of {per_conn} replies"))?;
                    for &b in &payload {
                        digest ^= b as u64;
                        digest = digest.wrapping_mul(0x0100_0000_01b3);
                    }
                    match decode_response(&payload).map_err(|e| e.to_string())? {
                        Response::Hits { hits: h, .. } => hits += h.len(),
                        other => return Err(format!("unexpected reply: {other:?}")),
                    }
                }
                Ok((digest, hits))
            },
        ));
    }
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hits = 0usize;
    for (c, w) in workers.into_iter().enumerate() {
        let (d, h) = w
            .join()
            .map_err(|_| format!("storm connection {c} panicked"))?
            .map_err(|e| format!("storm connection {c}: {e}"))?;
        for &b in &d.to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
        hits += h;
    }
    let elapsed = start.elapsed();
    let total = conns * per_conn;
    println!("digest {digest:016x}");
    println!(
        "{total} replies ({hits} hits) over {conns} connections in {:.1}ms ({:.0} req/s)",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    Ok(())
}

fn cmd_rpc_ctl(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args.positional.first().unwrap_or_else(|| usage());
    let op = args
        .positional
        .get(1)
        .map(|s| s.as_str())
        .unwrap_or_else(|| usage());
    if op == "abort" {
        return rpc_abort(addr);
    }
    let mut client = Client::connect(addr)?;
    match op {
        "ping" => {
            let (db_len, dim) = client.ping()?;
            println!("server at {addr}: {db_len} images, dim {dim}");
        }
        "stats" => {
            let snap = client.stats()?;
            print_server_stats(&snap);
        }
        "explain" => {
            println!("{}", client.explain()?);
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server at {addr} acknowledged shutdown");
        }
        "delete" => {
            let id: u64 = args
                .flag("id")
                .unwrap_or_else(|| usage())
                .parse()
                .map_err(|_| "invalid --id")?;
            let epoch = client.delete(id)?;
            println!("deleted id {id} (epoch {epoch})");
        }
        _ => usage(),
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw[0].as_str();
    let args = Args::parse(&raw[1..]);
    let result = match cmd {
        "generate" => cmd_generate(&args),
        "index" => cmd_index(&args),
        "query" => cmd_query(&args),
        "info" => cmd_info(&args),
        "evaluate" => cmd_evaluate(&args),
        "trace" => cmd_trace(&args),
        "stats" => cmd_stats(&args),
        "fsck" => cmd_fsck(&args),
        "ingest" => cmd_ingest(&args),
        "compact" => cmd_compact(&args),
        "serve" => cmd_serve(&args),
        "shard-plan" => cmd_shard_plan(&args),
        "route" => cmd_route(&args),
        "chaos-proxy" => cmd_chaos_proxy(&args),
        "rpc-query" => cmd_rpc_query(&args),
        "rpc-storm" => cmd_rpc_storm(&args),
        "rpc-insert" => cmd_rpc_insert(&args),
        "rpc-ctl" => cmd_rpc_ctl(&args),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
