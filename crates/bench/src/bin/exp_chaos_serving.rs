//! **F16 — graceful degradation under chaos: the router's failure
//! drills.**
//!
//! A 2-shard x 2-replica tier is pushed through four wire-level fault
//! scenarios, each injected by the in-tree [`ChaosProxy`] sitting in
//! front of selected replicas, each with a hard gate:
//!
//! * **Slow replica, hedged requests.** Every shard's primary sits
//!   behind a 60ms delay proxy. Without hedging the scatter inherits
//!   the stall; with `--hedge-ms`-style hedging (p99-derived delay,
//!   first valid reply wins) the tail must collapse: **hedging cuts
//!   client p99 by >= 2x**, and the hedges fired/won counters move.
//! * **Flapping replica, probe-driven rejoin.** Shard 0's primary
//!   drops every connection for a stretch, then recovers. With passive
//!   cooldown pushed out to an hour, only the active health prober can
//!   bring it back: the gate is **zero failed queries across the flap**
//!   plus **>= 1 recorded probe-driven rejoin**.
//! * **Full shard loss, partial results.** Both replicas of shard 1
//!   are killed outright. With partial-results serving on, every query
//!   must come back a **well-formed degraded reply**: wire status
//!   `HitsPartial`, coverage 1/2, hits bit-identical to what the
//!   surviving shard's backend answers (ids mapped through the plan) —
//!   and **zero errors**.
//! * **Torn-frame storm.** Every primary tears its replies mid-frame
//!   at a seeded prefix. The router must absorb the torn reads and
//!   fail over: **zero corrupt replies**, checked byte-for-byte against
//!   a single node serving the union corpus.
//!
//! Writes `results/BENCH_chaos_serving.json` (full runs only: `--quick`
//! runs every gate but leaves `results/` alone, as `scripts/verify.sh`
//! runs it on every verify).
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_chaos_serving [--quick]`

use cbir_bench::{raw_call, rounded, spawn_backend, union_db, write_results, UNION_DIM as DIM};
use cbir_core::{split_database, ImageDatabase, ShardPlan, ShardScheme};
use cbir_obs::obj;
use cbir_router::{Router, RouterConfig, RouterHandle};
use cbir_server::chaosnet::{ChaosHandle, ChaosProxy, WireMode};
use cbir_server::protocol::Request;
use cbir_server::{Client, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const K: usize = 10;
const SHARDS: usize = 2;

/// The drill topology: 2 shards x 2 replicas, every shard's **primary**
/// reached through its own [`ChaosProxy`] (initially `Pass`), the backup
/// dialed directly. Returns `(backends[shard][replica], proxies[shard],
/// router)`.
fn spawn_chaos_tier(
    union: &ImageDatabase,
    config: RouterConfig,
) -> (Vec<Vec<ServerHandle>>, Vec<ChaosHandle>, RouterHandle) {
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, SHARDS)
        .expect("shard plan");
    let parts = split_database(union, &plan).expect("split database");
    let backends: Vec<Vec<ServerHandle>> = parts
        .into_iter()
        .map(|part| (0..2).map(|_| spawn_backend(part.clone())).collect())
        .collect();
    let proxies: Vec<ChaosHandle> = backends
        .iter()
        .map(|group| {
            ChaosProxy::spawn(
                group[0].local_addr().to_string(),
                WireMode::Pass,
                "127.0.0.1:0",
            )
            .expect("spawn chaos proxy")
        })
        .collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .zip(&proxies)
        .map(|(group, proxy)| {
            vec![
                proxy.local_addr().to_string(),
                group[1].local_addr().to_string(),
            ]
        })
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", config).expect("spawn router");
    (backends, proxies, router)
}

fn shutdown_tier(
    backends: Vec<Vec<ServerHandle>>,
    proxies: Vec<ChaosHandle>,
    router: RouterHandle,
) {
    router.shutdown();
    for proxy in proxies {
        proxy.shutdown();
    }
    for group in backends {
        for b in group {
            b.shutdown();
        }
    }
}

/// Client-observed p99 (microseconds) over `queries` k-NN calls.
fn measure_p99(addr: SocketAddr, queries: &[Vec<f32>]) -> u64 {
    let mut client = Client::connect(addr).expect("connect");
    let mut lat_us: Vec<u64> = queries
        .iter()
        .map(|q| {
            let start = Instant::now();
            let hits = client.knn(q, K, 0, 1.0).expect("knn");
            std::hint::black_box(&hits);
            start.elapsed().as_micros() as u64
        })
        .collect();
    lat_us.sort_unstable();
    lat_us[(lat_us.len() * 99) / 100]
}

/// Scenario 1: every primary is 60ms slow. Hedging must collapse the
/// tail by >= 2x, and the hedge counters must move.
fn run_hedge_leg(union: &ImageDatabase, queries: &[Vec<f32>]) -> (u64, u64, u64, u64) {
    let delayed = |config: RouterConfig| {
        let (backends, proxies, router) = spawn_chaos_tier(union, config);
        for p in &proxies {
            p.set_mode(WireMode::Delay(Duration::from_millis(60)));
        }
        (backends, proxies, router)
    };

    let (backends, proxies, router) = delayed(RouterConfig::default());
    let p99_plain = measure_p99(router.local_addr(), queries);
    shutdown_tier(backends, proxies, router);

    let before = cbir_obs::snapshot().router_tier;
    let (backends, proxies, router) = delayed(RouterConfig {
        hedge: Some(Duration::from_millis(5)),
        ..RouterConfig::default()
    });
    let p99_hedged = measure_p99(router.local_addr(), queries);
    shutdown_tier(backends, proxies, router);
    let after = cbir_obs::snapshot().router_tier;

    (
        p99_plain,
        p99_hedged,
        after.hedges_fired - before.hedges_fired,
        after.hedges_won - before.hedges_won,
    )
}

/// Sum of probe-driven rejoins recorded for `shard` across the obs
/// replica slots.
fn probe_rejoins_of(shard: u32) -> u64 {
    cbir_obs::snapshot()
        .router
        .iter()
        .filter(|r| r.shard == shard)
        .map(|r| r.probe_rejoins)
        .sum()
}

/// Scenario 2: shard 0's primary flaps (drops every connection, then
/// recovers). Passive cooldown is an hour, so only the prober can bring
/// it back. Returns (failed queries, probe rejoins observed).
fn run_flap_leg(union: &ImageDatabase, queries: &[Vec<f32>]) -> (u64, u64) {
    let (backends, proxies, router) = spawn_chaos_tier(
        union,
        RouterConfig {
            probe_interval: Some(Duration::from_millis(25)),
            cooldown: Duration::from_secs(3600),
            ..RouterConfig::default()
        },
    );
    let addr = router.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut failed = 0u64;
    let mut run = |queries: &[Vec<f32>], failed: &mut u64| {
        for q in queries {
            match client.knn(q, K, 0, 1.0) {
                Ok(hits) => {
                    std::hint::black_box(&hits);
                }
                Err(_) => *failed += 1,
            }
        }
    };

    let third = queries.len() / 3;
    run(&queries[..third], &mut failed);
    let rejoins_before = probe_rejoins_of(0);
    // Flap down: every connection through the proxy dies immediately.
    proxies[0].set_mode(WireMode::Drop);
    run(&queries[third..2 * third], &mut failed);
    // Flap up: only the prober may notice (cooldown is an hour).
    proxies[0].set_mode(WireMode::Pass);
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe_rejoins_of(0) == rejoins_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    let rejoins = probe_rejoins_of(0) - rejoins_before;
    run(&queries[2 * third..], &mut failed);
    shutdown_tier(backends, proxies, router);
    (failed, rejoins)
}

/// Scenario 3: both replicas of shard 1 die. With partial results on,
/// every reply must be well-formed degraded output: `HitsPartial` on the
/// wire, 1/2 coverage, hits bit-identical to the surviving shard's own
/// answer. Returns (degraded replies, errors).
fn run_shard_loss_leg(union: &ImageDatabase, queries: &[Vec<f32>]) -> (u64, u64) {
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, SHARDS)
        .expect("shard plan");
    let (mut backends, proxies, router) = spawn_chaos_tier(
        union,
        RouterConfig {
            allow_partial: true,
            cooldown: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    );
    let addr = router.local_addr();
    let survivor = backends[0][0].local_addr();
    // Kill shard 1 outright: both replicas, listener and all.
    for b in backends.pop().expect("shard 1 group") {
        b.shutdown();
    }

    let mut client = Client::connect(addr).expect("connect");
    let mut reference = Client::connect(survivor).expect("connect survivor");
    let (mut degraded, mut errors) = (0u64, 0u64);
    for q in queries {
        let reply = match client.knn_detailed(q, K, 0, 1.0) {
            Ok(r) => r,
            Err(_) => {
                errors += 1;
                continue;
            }
        };
        assert!(reply.degraded, "shard loss must be reported as degraded");
        assert_eq!(
            (reply.shards_answered, reply.shards_total),
            (1, SHARDS as u32),
            "coverage accounting"
        );
        // The degraded hits are exactly the surviving shard's answer
        // with ids mapped through the plan — bit-for-bit.
        let want = reference.knn(q, K, 0, 1.0).expect("survivor knn");
        assert_eq!(reply.hits.len(), want.len());
        for (got, local) in reply.hits.iter().zip(&want) {
            let global = plan.to_global(0, local.id).expect("map id");
            assert_eq!(got.id, global, "degraded hit id");
            assert_eq!(
                got.distance.to_bits(),
                local.distance.to_bits(),
                "degraded hit distance bits"
            );
        }
        degraded += 1;
    }
    // And on the wire it is the HitsPartial status, not a bare Hits.
    let raw = raw_call(
        addr,
        &Request::Knn {
            k: K as u32,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: queries[0].clone(),
        },
    );
    assert_eq!(raw[0], 13, "degraded replies use the HitsPartial status");
    shutdown_tier(backends, proxies, router);
    (degraded, errors)
}

/// Scenario 4: every primary tears its replies mid-frame at a seeded
/// prefix. Gate: zero corrupt replies — every routed reply byte-equal
/// to the single union node's. Returns the number of replies checked.
fn run_torn_leg(union: &ImageDatabase, queries: &[Vec<f32>], single_addr: SocketAddr) -> u64 {
    let (backends, proxies, router) = spawn_chaos_tier(
        union,
        RouterConfig {
            cooldown: Duration::from_millis(50),
            ..RouterConfig::default()
        },
    );
    for (s, p) in proxies.iter().enumerate() {
        p.set_mode(WireMode::TornReply {
            seed: 0xF16_0000 + s as u64,
            max_prefix: 200,
        });
    }
    let addr = router.local_addr();
    let mut checked = 0u64;
    for (i, q) in queries.iter().enumerate() {
        let req = Request::Knn {
            k: (K + i % 5) as u32,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q.clone(),
        };
        let want = raw_call(single_addr, &req);
        let got = raw_call(addr, &req);
        assert_eq!(got, want, "reply bytes corrupted under torn-frame storm");
        checked += 1;
    }
    shutdown_tier(backends, proxies, router);
    checked
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: usize = if quick { 2_000 } else { 20_000 };
    let per_leg: usize = if quick { 36 } else { 120 };
    let union = union_db(n, 0xF16);
    let queries: Vec<Vec<f32>> = cbir_workload::duplicated_histograms(n, DIM, 1.0, 3, 0x5EED)
        .into_iter()
        .take(per_leg)
        .collect();

    println!(
        "F16: graceful degradation under chaos, N={n}, d={DIM}, k={K}, {SHARDS} shards x 2 \
         replicas, {per_leg} queries per leg\n"
    );

    let (p99_plain, p99_hedged, hedges_fired, hedges_won) = run_hedge_leg(&union, &queries);
    let tail_cut = p99_plain as f64 / p99_hedged.max(1) as f64;
    println!(
        "  hedge: slow primaries p99 {p99_plain}us -> hedged p99 {p99_hedged}us \
         ({tail_cut:.1}x cut; {hedges_fired} fired, {hedges_won} won)"
    );
    assert!(
        tail_cut >= 2.0,
        "hedging cut p99 only {tail_cut:.2}x (need >= 2x)"
    );
    assert!(hedges_fired > 0, "no hedges fired against 60ms primaries");
    assert!(hedges_won > 0, "no hedge ever won against 60ms primaries");

    let (flap_failed, rejoins) = run_flap_leg(&union, &queries);
    println!(
        "  flap: {flap_failed} failed queries across the flap, {rejoins} probe-driven rejoin(s)"
    );
    assert_eq!(flap_failed, 0, "a flapping replica must be invisible");
    assert!(rejoins >= 1, "recovery must come from the health prober");

    let (degraded, loss_errors) = run_shard_loss_leg(&union, &queries);
    println!(
        "  shard loss: {degraded}/{per_leg} well-formed degraded replies (coverage 1/2), \
         {loss_errors} errors"
    );
    assert_eq!(loss_errors, 0, "full shard loss must degrade, not error");
    assert_eq!(degraded as usize, per_leg, "every reply must be degraded");

    let single = spawn_backend(union.clone());
    let torn_checked = run_torn_leg(&union, &queries, single.local_addr());
    single.shutdown();
    println!("  torn storm: {torn_checked} replies checked, zero corrupt\n");

    let doc = obj! {
        "experiment": "chaos_serving", "n": n, "dim": DIM, "k": K, "shards": SHARDS,
        "replicas": 2u64, "queries_per_leg": per_leg,
        "hedge": obj! { "p99_us_plain": p99_plain, "p99_us_hedged": p99_hedged,
                        "tail_cut": rounded(tail_cut, 2), "hedges_fired": hedges_fired,
                        "hedges_won": hedges_won },
        "flap": obj! { "failed_queries": flap_failed, "probe_rejoins": rejoins },
        "shard_loss": obj! { "degraded_replies": degraded, "errors": loss_errors,
                             "coverage": "1/2" },
        "torn_storm": obj! { "replies_checked": torn_checked, "corrupt_replies": 0u64 },
    };
    write_results("chaos_serving", quick, &doc);
}
