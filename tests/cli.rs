//! Integration tests for the `cbir` command-line tool: generate → index →
//! info → query → evaluate over real files, exercising the compiled binary.

use cbir::obs::Json;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cbir")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn cbir binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn temp_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbir_cli_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_generate_index_query_evaluate() {
    let dir = temp_workspace("flow");
    let corpus = dir.join("corpus");
    let db = dir.join("db.cbir");
    let corpus_s = corpus.to_str().unwrap();
    let db_s = db.to_str().unwrap();

    // generate
    let (ok, stdout, stderr) = run(&[
        "generate",
        corpus_s,
        "--classes",
        "4",
        "--per-class",
        "5",
        "--size",
        "32",
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("wrote 20 images"), "{stdout}");
    let ppms = std::fs::read_dir(&corpus).unwrap().count();
    assert_eq!(ppms, 20);

    // index
    let (ok, stdout, stderr) = run(&[
        "index",
        corpus_s,
        "--db",
        db_s,
        "--pipeline",
        "color",
        "--threads",
        "2",
    ]);
    assert!(ok, "index failed: {stderr}");
    assert!(stdout.contains("indexed 20 images"), "{stdout}");
    assert!(db.exists());

    // info
    let (ok, stdout, _) = run(&["info", db_s]);
    assert!(ok);
    assert!(stdout.contains("images:   20"), "{stdout}");
    assert!(stdout.contains("color-hist"), "{stdout}");
    assert!(stdout.contains("labeled:  20/20"), "{stdout}");

    // query with a corpus member: itself must rank first at distance 0.
    let query_img = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("class-2")
        })
        .unwrap();
    let (ok, stdout, stderr) = run(&[
        "query",
        db_s,
        query_img.to_str().unwrap(),
        "-k",
        "3",
        "--index",
        "vp",
    ]);
    assert!(ok, "query failed: {stderr}");
    assert!(stdout.contains("0.0000"), "self-match missing: {stdout}");
    assert!(stdout.contains("vp-tree"), "{stdout}");

    // evaluate
    let (ok, stdout, stderr) = run(&["evaluate", db_s, "-k", "4", "--index", "antipole"]);
    assert!(ok, "evaluate failed: {stderr}");
    assert!(stdout.contains("mAP"), "{stdout}");
    assert!(stdout.contains("antipole"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = temp_workspace("errs");
    let db = dir.join("missing.cbir");

    // Query against a missing database.
    let (ok, _, stderr) = run(&["query", db.to_str().unwrap(), "nope.ppm"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");

    // Index an empty directory.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let (ok, _, stderr) = run(&[
        "index",
        empty.to_str().unwrap(),
        "--db",
        dir.join("out.cbir").to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("no images"), "{stderr}");

    // Unknown subcommand exits with usage.
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");

    // Corrupt database file.
    let bad = dir.join("bad.cbir");
    std::fs::write(&bad, b"not a database").unwrap();
    let (ok, _, stderr) = run(&["info", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Exit status, stdout and stderr of one `cbir` run in `cwd`.
fn run_status(cwd: &std::path::Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin())
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("spawn cbir binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every subcommand names a flag it does not take, with status 2, before
/// it does anything: a mistyped flag must not read as one that took hold
/// (`route --hedge 5` must not leave hedging off unnoticed), and the
/// connection-engine flags `serve` once took are gone with the second
/// engine.
#[test]
fn every_subcommand_rejects_a_flag_it_does_not_take() {
    // Run in an empty directory, where nothing the commands name exists.
    let dir = temp_workspace("flags");
    let cases: &[&[&str]] = &[
        &["generate", "out", "--class", "3"],
        &["index", "imgs", "--db", "x.cbir", "--thread", "2"],
        &["query", "x.cbir", "q.ppm", "--recall", "0.9"],
        &["info", "x.cbir", "--verbose", "1"],
        &["evaluate", "x.cbir", "--measures", "l2"],
        &["trace", "x.cbir", "q.ppm", "--fmt", "json"],
        &["stats", "127.0.0.1:1", "--formats", "json"],
        &["fsck", "x.cbir", "--repair", "1"],
        &["ingest", "imgs", "--store", "s.seg", "--memtable", "8"],
        &["compact", "s.seg", "--force", "1"],
        &["serve", "x.cbir", "--max-batches", "8"],
        &["serve", "x.cbir", "--event-loop", "1"],
        &["serve", "x.cbir", "--max-conns", "1"],
        &["serve", "x.cbir", "--mutation-workers", "1"],
        &["shard-plan", "x.cbir", "--shard", "3"],
        &["route", "PLAN.txt", "127.0.0.1:1", "--hedge", "5"],
        // An invalid port stops the proxy if the mistyped flag is ignored.
        &[
            "chaos-proxy",
            "127.0.0.1:1",
            "--port",
            "99999",
            "--modes",
            "pass",
        ],
        &["rpc-query", "127.0.0.1:1", "--id", "0", "--recall", "0.9"],
        &["rpc-storm", "127.0.0.1:1", "--connections", "4"],
        &["rpc-insert", "127.0.0.1:1", "q.ppm", "--database", "x.cbir"],
        &["rpc-ctl", "127.0.0.1:1", "delete", "--ids", "0"],
    ];
    for &args in cases {
        let (cmd, flag) = (args[0], args[args.len() - 2]);
        let (status, stdout, stderr) = run_status(&dir, args);
        assert_eq!(status, Some(2), "{args:?}: {stdout}{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag} for {cmd}")),
            "{args:?}: {stderr}"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a command wrote files"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `shard-plan` names the scheme it planned, and an unknown scheme exits
/// with status 2 before any file is written.
#[test]
fn shard_plan_names_its_scheme_and_rejects_an_unknown_one() {
    let dir = temp_workspace("scheme");
    let (corpus, db) = (dir.join("corpus"), dir.join("db.cbir"));
    let (corpus_s, db_s) = (corpus.to_str().unwrap(), db.to_str().unwrap());
    let (ok, _, stderr) = run(&["generate", corpus_s, "--classes", "2", "--per-class", "2"]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) = run(&["index", corpus_s, "--db", db_s, "--pipeline", "color"]);
    assert!(ok, "index failed: {stderr}");
    let out_dir = dir.join("shards");
    let out_s = out_dir.to_str().unwrap();
    let (ok, stdout, stderr) = run(&["shard-plan", db_s, "--scheme", "range", "--out-dir", out_s]);
    assert!(ok, "shard-plan failed: {stderr}");
    assert!(stdout.starts_with("plan: range scheme, 4 rows"), "{stdout}");

    let other = dir.join("other");
    let other_s = other.to_str().unwrap();
    let (status, _, stderr) = run_status(
        &dir,
        &["shard-plan", db_s, "--scheme", "hash", "--out-dir", other_s],
    );
    assert_eq!(status, Some(2), "{stderr}");
    assert!(stderr.contains("unknown shard scheme \"hash\""), "{stderr}");
    assert!(!other.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bmp_ingest_works_too() {
    let dir = temp_workspace("bmp");
    // Write a few BMP images directly through the library.
    use cbir::image::codec::encode_bmp_rgb;
    use cbir::image::{Rgb, RgbImage};
    for i in 0..3u32 {
        let img = RgbImage::filled(24, 24, Rgb::new((i * 80) as u8, 30, 200));
        std::fs::write(dir.join(format!("class-{i}-img.bmp")), encode_bmp_rgb(&img)).unwrap();
    }
    let db = dir.join("db.cbir");
    let (ok, stdout, stderr) = run(&[
        "index",
        dir.to_str().unwrap(),
        "--db",
        db.to_str().unwrap(),
        "--pipeline",
        "color",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("indexed 3 images"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Observability surface: `cbir trace`, `cbir stats`, `rpc-ctl explain`.
//
// The JSON these commands emit is consumed by scripts, so the tests parse
// it with the workspace's one JSON value (`cbir::obs::Json`) and assert
// the documented schema key by key.
// ---------------------------------------------------------------------------

/// Panicking accessors, so a schema check reads as one line per key.
trait Schema {
    fn expect(&self, key: &str) -> &Json;
    fn as_arr(&self) -> &[Json];
    fn as_num(&self) -> f64;
    fn as_bool(&self) -> bool;
    fn as_str(&self) -> &str;
}

impl Schema for Json {
    fn expect(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}"))
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_bool(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            other => panic!("expected bool, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

/// Build a tiny indexed database for the observability tests; returns the
/// workspace dir, db path, and one corpus image path.
fn obs_fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = temp_workspace(tag);
    let corpus = dir.join("corpus");
    let db = dir.join("db.cbir");
    let (ok, _, stderr) = run(&[
        "generate",
        corpus.to_str().unwrap(),
        "--classes",
        "3",
        "--per-class",
        "4",
        "--size",
        "32",
    ]);
    assert!(ok, "generate failed: {stderr}");
    let (ok, _, stderr) = run(&[
        "index",
        corpus.to_str().unwrap(),
        "--db",
        db.to_str().unwrap(),
        "--pipeline",
        "color",
    ]);
    assert!(ok, "index failed: {stderr}");
    let img = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ppm"))
        .unwrap();
    (dir, db, img)
}

const TRACE_KEYS: &[&str] = &[
    "seq",
    "op",
    "index",
    "queries",
    "total_ns",
    "spans",
    "distance_evaluations",
    "nodes_visited",
    "subtrees_pruned",
    "postfilter_candidates",
    "results",
];

fn assert_trace_schema(trace: &Json) {
    for key in TRACE_KEYS {
        trace.expect(key);
    }
    let spans = trace.expect("spans").as_arr();
    assert!(!spans.is_empty(), "trace has no spans");
    for span in spans {
        span.expect("name").as_str();
        span.expect("start_ns").as_num();
        span.expect("dur_ns").as_num();
    }
}

#[test]
fn trace_command_emits_documented_schema() {
    let (dir, db, img) = obs_fixture("trace");
    let db_s = db.to_str().unwrap();
    let img_s = img.to_str().unwrap();

    // JSON format parses and carries every documented key.
    let (ok, stdout, stderr) = run(&["trace", db_s, img_s, "-k", "3", "--format", "json"]);
    assert!(ok, "trace --format json failed: {stderr}");
    let trace = Json::parse(&stdout).unwrap_or_else(|e| panic!("bad trace JSON: {e}\n{stdout}"));
    assert_trace_schema(&trace);
    assert_eq!(trace.expect("op").as_str(), "knn");
    assert_eq!(trace.expect("queries").as_num(), 1.0);
    // query_by_example runs extract → search → rank.
    let names: Vec<&str> = trace
        .expect("spans")
        .as_arr()
        .iter()
        .map(|s| s.expect("name").as_str())
        .collect();
    assert_eq!(names, ["extract", "search", "rank"], "{stdout}");

    // Text format renders a timeline with the counters footer.
    let (ok, stdout, stderr) = run(&["trace", db_s, img_s, "-k", "3", "--index", "vp"]);
    assert!(ok, "trace text failed: {stderr}");
    assert!(stdout.contains("trace #"), "{stdout}");
    assert!(stdout.contains("vp-tree"), "{stdout}");
    assert!(stdout.contains("counters:"), "{stdout}");
    assert!(stdout.contains("distance evaluations"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_query_stdout_is_bit_identical() {
    let (dir, db, img) = obs_fixture("bitid");
    let db_s = db.to_str().unwrap();
    let img_s = img.to_str().unwrap();

    let (ok, plain, stderr) = run(&["query", db_s, img_s, "-k", "5"]);
    assert!(ok, "untraced query failed: {stderr}");
    let (ok, traced, traced_err) = run(&["query", db_s, img_s, "-k", "5", "--trace-sample-n", "1"]);
    assert!(ok, "traced query failed: {traced_err}");
    assert_eq!(plain, traced, "tracing changed query stdout");
    assert!(
        traced_err.contains("trace #"),
        "traces should land on stderr: {traced_err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_and_explain_rpcs_emit_documented_schemas() {
    let (dir, db, img) = obs_fixture("stats");
    let db_s = db.to_str().unwrap();
    let addr_file = dir.join("addr.txt");

    let mut server = Command::new(bin())
        .args([
            "serve",
            db_s,
            "--port",
            "0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--trace-sample-n",
            "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cbir serve");

    // Wait for the server to write its bound address.
    let mut addr = String::new();
    for _ in 0..100 {
        if let Ok(s) = std::fs::read_to_string(&addr_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(!addr.is_empty(), "server never wrote its address");

    // Drive one query through so the counters are non-zero.
    let (ok, _, stderr) = run(&[
        "rpc-query",
        &addr,
        img.to_str().unwrap(),
        "--db",
        db_s,
        "-k",
        "3",
    ]);
    assert!(ok, "rpc-query failed: {stderr}");

    // JSON stats: every documented section, with the query visible.
    let (ok, stdout, stderr) = run(&["stats", &addr]);
    assert!(ok, "stats failed: {stderr}");
    let snap = Json::parse(&stdout).unwrap_or_else(|e| panic!("bad stats JSON: {e}\n{stdout}"));
    for key in [
        "enabled",
        "trace_sample_n",
        "queue_depth",
        "indexes",
        "stages",
        "latency",
        "trace_count",
    ] {
        snap.expect(key);
    }
    assert!(snap.expect("enabled").as_bool(), "counters should be on");
    let indexes = snap.expect("indexes").as_arr();
    assert!(!indexes.is_empty());
    let mut queries_total = 0.0;
    for row in indexes {
        for key in [
            "index",
            "queries",
            "distance_evaluations",
            "nodes_visited",
            "subtrees_pruned",
            "postfilter_candidates",
            "results",
        ] {
            row.expect(key);
        }
        queries_total += row.expect("queries").as_num();
    }
    assert!(queries_total >= 1.0, "rpc query not counted: {stdout}");
    for row in snap.expect("stages").as_arr() {
        for key in ["stage", "hits", "misses", "nanos"] {
            row.expect(key);
        }
    }
    for op in ["knn", "range"] {
        let lat = snap.expect("latency").expect(op);
        for key in ["count", "sum_us", "p50_us", "p95_us", "p99_us"] {
            lat.expect(key);
        }
    }
    assert!(snap.expect("trace_count").as_num() >= 1.0, "{stdout}");

    // Prometheus format: well-formed text exposition.
    let (ok, prom, stderr) = run(&["stats", &addr, "--format", "prometheus"]);
    assert!(ok, "stats --format prometheus failed: {stderr}");
    let mut samples = 0usize;
    for line in prom.lines() {
        if line.is_empty() || line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        // Every sample line is `metric{labels} value` or `metric value`.
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value: {line:?}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name: {line:?}"
        );
        if let Some(rest) = name_part.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "bad label block: {line:?}"
                );
            }
        }
        samples += 1;
    }
    assert!(samples > 20, "suspiciously few samples:\n{prom}");
    for metric in [
        "cbir_index_queries_total",
        "cbir_index_distance_evaluations_total",
        "cbir_index_subtrees_pruned_total",
        "cbir_stage_hits_total",
        "cbir_query_latency_microseconds",
        "cbir_queue_depth",
    ] {
        assert!(prom.contains(metric), "missing metric {metric}:\n{prom}");
    }

    // explain: a JSON object holding the sampled traces.
    let (ok, stdout, stderr) = run(&["rpc-ctl", &addr, "explain"]);
    assert!(ok, "explain failed: {stderr}");
    let traces = Json::parse(&stdout).unwrap_or_else(|e| panic!("bad explain JSON: {e}\n{stdout}"));
    let list = traces.expect("traces").as_arr();
    assert!(!list.is_empty(), "server sampled no traces: {stdout}");
    for t in list {
        assert_trace_schema(t);
    }

    let (ok, _, stderr) = run(&["rpc-ctl", &addr, "shutdown"]);
    assert!(ok, "shutdown failed: {stderr}");
    server.wait().expect("server exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn a `cbir` subcommand that serves until shutdown, wait for its
/// `--addr-file`, and return (child, bound address).
fn spawn_serving(args: &[&str], addr_file: &PathBuf) -> (std::process::Child, String) {
    let child = Command::new(bin())
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cbir");
    let mut addr = String::new();
    for _ in 0..100 {
        if let Ok(s) = std::fs::read_to_string(addr_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(!addr.is_empty(), "process never wrote {addr_file:?}");
    (child, addr)
}

/// The routing tier's degraded-mode metrics are part of the documented
/// stats schema: the JSON export always carries a `router_tier` section
/// plus per-replica health/breaker rows, and the Prometheus exposition
/// from a router process carries the matching families.
#[test]
fn router_stats_emit_degraded_mode_schema() {
    let (dir, db, _img) = obs_fixture("routerstats");
    let shards_dir = dir.join("shards");
    let (ok, _, stderr) = run(&[
        "shard-plan",
        db.to_str().unwrap(),
        "--shards",
        "2",
        "--out-dir",
        shards_dir.to_str().unwrap(),
    ]);
    assert!(ok, "shard-plan failed: {stderr}");

    let mut backends = Vec::new();
    let mut backend_addrs = Vec::new();
    for s in 0..2 {
        let shard_db = shards_dir.join(format!("shard-{s}.db"));
        let addr_file = dir.join(format!("shard-{s}.addr"));
        let (child, addr) = spawn_serving(
            &[
                "serve",
                shard_db.to_str().unwrap(),
                "--port",
                "0",
                "--addr-file",
                addr_file.to_str().unwrap(),
            ],
            &addr_file,
        );
        backends.push(child);
        backend_addrs.push(addr);
    }

    let route_addr_file = dir.join("route.addr");
    let (mut router, route_addr) = spawn_serving(
        &[
            "route",
            shards_dir.join("PLAN.txt").to_str().unwrap(),
            &backend_addrs[0],
            &backend_addrs[1],
            "--port",
            "0",
            "--addr-file",
            route_addr_file.to_str().unwrap(),
            "--hedge-ms",
            "50",
            "--probe-ms",
            "25",
            "--allow-partial",
        ],
        &route_addr_file,
    );

    // Route one query so the per-replica counters move.
    let (ok, _, stderr) = run(&["rpc-query", &route_addr, "--id", "0", "-k", "3"]);
    assert!(ok, "routed rpc-query failed: {stderr}");

    // JSON: per-replica rows carry health/breaker/probe fields, and the
    // tier-wide degraded-mode section is always present.
    let (ok, stdout, stderr) = run(&["stats", &route_addr]);
    assert!(ok, "stats via router failed: {stderr}");
    let snap = Json::parse(&stdout).unwrap_or_else(|e| panic!("bad stats JSON: {e}\n{stdout}"));
    let replicas = snap.expect("router").as_arr();
    assert_eq!(replicas.len(), 2, "one row per backend replica: {stdout}");
    for row in replicas {
        for key in [
            "shard",
            "replica",
            "requests",
            "failures",
            "failovers",
            "shed",
            "healthy",
            "breaker_open",
            "probe_rejoins",
            "latency",
        ] {
            row.expect(key);
        }
        assert!(
            row.expect("healthy").as_bool(),
            "replica unhealthy: {stdout}"
        );
        assert!(
            !row.expect("breaker_open").as_bool(),
            "breaker open: {stdout}"
        );
    }
    let tier = snap.expect("router_tier");
    for key in [
        "hedges_fired",
        "hedges_won",
        "degraded_replies",
        "breaker_opens",
        "retry_budget_exhausted",
        "probe_failures",
        "probe_latency",
    ] {
        tier.expect(key);
    }
    // Healthy topology: nothing degraded, no breaker opened, no budget
    // exhausted, no probe failed.
    assert_eq!(tier.expect("degraded_replies").as_num(), 0.0, "{stdout}");
    assert_eq!(tier.expect("breaker_opens").as_num(), 0.0, "{stdout}");
    assert_eq!(tier.expect("probe_failures").as_num(), 0.0, "{stdout}");
    // The 25ms prober has had time to run at least once.
    let probe_count = tier.expect("probe_latency").expect("count").as_num();
    assert!(probe_count >= 1.0, "prober never ran: {stdout}");

    // Prometheus from the router process carries the new families.
    let (ok, prom, stderr) = run(&["stats", &route_addr, "--format", "prometheus"]);
    assert!(ok, "stats --format prometheus via router failed: {stderr}");
    for metric in [
        "cbir_router_requests_total",
        "cbir_router_replica_healthy",
        "cbir_router_replica_breaker_open",
        "cbir_router_replica_probe_rejoins_total",
        "cbir_router_hedges_fired_total",
        "cbir_router_hedges_won_total",
        "cbir_router_degraded_replies_total",
        "cbir_router_breaker_opens_total",
        "cbir_router_retry_budget_exhausted_total",
        "cbir_router_probe_failures_total",
        "cbir_router_probe_latency_microseconds",
    ] {
        assert!(prom.contains(metric), "missing metric {metric}:\n{prom}");
    }

    let (ok, _, stderr) = run(&["rpc-ctl", &route_addr, "shutdown"]);
    assert!(ok, "router shutdown failed: {stderr}");
    router.wait().expect("router exit");
    for (addr, mut child) in backend_addrs.iter().zip(backends) {
        let (ok, _, stderr) = run(&["rpc-ctl", addr, "shutdown"]);
        assert!(ok, "backend shutdown failed: {stderr}");
        child.wait().expect("backend exit");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A database the exact L1 filter serves: 4,480 clustered rows (the
/// benchmark's corpus shape) under the color pipeline, one cluster moved
/// so that its centre is the returned image's descriptor.
fn filterable_fixture(tag: &str) -> (PathBuf, PathBuf, PathBuf) {
    use cbir::core::{persist, ImageDatabase, ImageMeta};
    let dir = temp_workspace(tag);
    let corpus = dir.join("corpus");
    let (ok, _, stderr) = run(&[
        "generate",
        corpus.to_str().unwrap(),
        "--classes",
        "1",
        "--per-class",
        "1",
        "--size",
        "32",
    ]);
    assert!(ok, "generate failed: {stderr}");
    let img = std::fs::read_dir(&corpus)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let image = cbir::image::codec::decode(&std::fs::read(&img).unwrap()).unwrap();
    let empty = ImageDatabase::new(cbir::features::Pipeline::color_histogram_default());
    let centre = empty.extract(&image.into_rgb()).unwrap();
    let (n, clusters, dim) = (4480, 70, empty.dim());
    let mut rows = cbir::workload::clustered_smooth(n, dim, clusters, 10.0, 100.0, 8, 5);
    let members = || (0..n).step_by(clusters);
    let mut mean = vec![0.0f32; dim];
    for i in members() {
        for (m, x) in mean.iter_mut().zip(&rows[i]) {
            *m += x / (n / clusters) as f32;
        }
    }
    for i in members() {
        for ((x, m), c) in rows[i].iter_mut().zip(&mean).zip(&centre) {
            *x += c - m;
        }
    }
    let metas = (0..n).map(|i| ImageMeta {
        name: format!("row-{i}"),
        label: None,
    });
    let db = ImageDatabase::from_parts(
        empty.pipeline().clone(),
        empty.is_balanced(),
        rows.concat(),
        metas.collect(),
    )
    .unwrap();
    let path = dir.join("big.cbir");
    persist::save_file(&db, &path).unwrap();
    (dir, path, img)
}

/// Which path answered an approximate k-NN is on stdout: `(answered
/// exactly)` where the exact L1 filter served it, the candidate counts
/// where the two-stage search ran, and nothing for an exact request.
#[test]
fn approximate_queries_say_when_they_were_answered_exactly() {
    let (dir, db, img) = filterable_fixture("exactly");
    let (db_s, img_s) = (db.to_str().unwrap(), img.to_str().unwrap());
    let query = |index: &str, recall: &str| {
        let (ok, stdout, stderr) = run(&[
            "query",
            db_s,
            img_s,
            "-k",
            "5",
            "--index",
            index,
            "--measure",
            "l1",
            "--recall-target",
            recall,
        ]);
        assert!(ok, "query failed: {stderr}");
        stdout
    };
    let served = query("linear", "0.9");
    assert!(served.contains("\n(answered exactly)\n"), "{served}");
    assert!(!served.contains("approx"), "{served}");
    let exact = query("linear", "1.0");
    assert!(!exact.contains("answered exactly"), "{exact}");
    // The same hits, and one line more.
    assert_eq!(served.replace("(answered exactly)\n", ""), exact);
    // A vp-tree has no exact filter: the two-stage search runs.
    let two_stage = query("vp", "0.9");
    assert!(
        two_stage.contains("approx search (recall target 0.9)"),
        "{two_stage}"
    );
    assert!(!two_stage.contains("answered exactly"), "{two_stage}");

    let addr_file = dir.join("serve.addr");
    let (mut server, addr) = spawn_serving(
        &[
            "serve",
            db_s,
            "--port",
            "0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--index",
            "linear",
            "--measure",
            "l1",
        ],
        &addr_file,
    );
    let rpc = |recall: &str| {
        let (ok, stdout, stderr) = run(&[
            "rpc-query",
            &addr,
            "--id",
            "70",
            "-k",
            "5",
            "--recall-target",
            recall,
        ]);
        assert!(ok, "rpc-query failed: {stderr}");
        stdout
    };
    let served = rpc("0.9");
    assert!(served.ends_with("\n\n(answered exactly)\n"), "{served}");
    assert_eq!(served.replace("(answered exactly)\n", ""), rpc("1.0"));
    let (ok, _, stderr) = run(&["rpc-ctl", &addr, "shutdown"]);
    assert!(ok, "shutdown failed: {stderr}");
    server.wait().expect("server exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--retries` selects a retry budget, not a different client: the
/// approximate-search counts and the degraded-coverage line a reply
/// carries are printed at every value.
#[test]
fn rpc_query_prints_approx_counts_and_degraded_coverage_under_retries() {
    let (dir, db, _img) = obs_fixture("retriesprint");
    let shards_dir = dir.join("shards");
    let (ok, _, stderr) = run(&[
        "shard-plan",
        db.to_str().unwrap(),
        "--shards",
        "2",
        "--out-dir",
        shards_dir.to_str().unwrap(),
    ]);
    assert!(ok, "shard-plan failed: {stderr}");
    let backend_addr_file = dir.join("shard-0.addr");
    let (mut backend, backend_addr) = spawn_serving(
        &[
            "serve",
            shards_dir.join("shard-0.db").to_str().unwrap(),
            "--port",
            "0",
            "--addr-file",
            backend_addr_file.to_str().unwrap(),
        ],
        &backend_addr_file,
    );
    // Shard 1 points at a dead address: every reply is degraded 1/2.
    let route_addr_file = dir.join("route.addr");
    let (mut router, route_addr) = spawn_serving(
        &[
            "route",
            shards_dir.join("PLAN.txt").to_str().unwrap(),
            &backend_addr,
            "127.0.0.1:1",
            "--port",
            "0",
            "--addr-file",
            route_addr_file.to_str().unwrap(),
            "--allow-partial",
        ],
        &route_addr_file,
    );

    let query = |retries: &str| {
        let (ok, stdout, stderr) = run(&[
            "rpc-query",
            &route_addr,
            "--id",
            "0",
            "-k",
            "3",
            "--recall-target",
            "0.9",
            "--retries",
            retries,
        ]);
        assert!(ok, "rpc-query --retries {retries} failed: {stderr}");
        stdout
    };
    let plain = query("0");
    assert!(plain.contains("(approx: "), "{plain}");
    assert!(
        plain.contains("(degraded: answered by 1/2 shards)"),
        "{plain}"
    );
    assert_eq!(query("1"), plain);

    let (ok, _, stderr) = run(&["rpc-ctl", &route_addr, "shutdown"]);
    assert!(ok, "router shutdown failed: {stderr}");
    router.wait().expect("router exit");
    let (ok, _, stderr) = run(&["rpc-ctl", &backend_addr, "shutdown"]);
    assert!(ok, "backend shutdown failed: {stderr}");
    backend.wait().expect("backend exit");
    std::fs::remove_dir_all(&dir).ok();
}
