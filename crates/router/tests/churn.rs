//! Connection churn against the router's front side.
//!
//! A front connection costs the router one registered socket while it is
//! open and nothing once it is gone: no thread per connection (256 idle
//! connections leave the process's thread count where it was), and no fd
//! after 500 connect/abort/query cycles — most complete a query cleanly,
//! a seeded fraction abort mid-request (half a frame written, then the
//! socket slammed shut) or connect and leave without a byte. Nor does a
//! shard, probing or a hedge cost a thread: over 1, 2 or 4 shards, with
//! probing on or off, and while hedges race a slow replica, a router
//! holds its route workers and its loop thread.
//!
//! Backends and router run in-process, so `/proc/self/fd` and the
//! `Threads:` line of `/proc/self/status` count all of them. One test
//! function, so no other test's threads or sockets move the counts.

#![cfg(target_os = "linux")]

use cbir_core::{
    split_database, ImageDatabase, ImageMeta, IndexKind, QueryEngine, ShardPlan, ShardScheme,
};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_router::{Router, RouterConfig, ROUTE_WORKERS};
use cbir_server::protocol::{encode_request, write_frame, Request};
use cbir_server::{ChaosProxy, Client, SchedulerConfig, Server, ServerHandle, WireMode};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

/// The process's threads besides the chaos proxies', whose count follows
/// the connections they carry. A thread that exits mid-count is skipped.
fn threads_but_proxies() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter(|task| {
            let comm = std::fs::read_to_string(task.as_ref().unwrap().path().join("comm"));
            comm.is_ok_and(|name| !name.starts_with("cbir-chaos"))
        })
        .count()
}

/// xorshift64* for seeded abort decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One backend per shard of `plan` over `union`, and their addresses as
/// one single-replica group per shard.
fn spawn_backends(
    union: &ImageDatabase,
    plan: &ShardPlan,
) -> (Vec<ServerHandle>, Vec<Vec<String>>) {
    let backends: Vec<ServerHandle> = split_database(union, plan)
        .unwrap()
        .into_iter()
        .map(|db| {
            let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap();
            Server::spawn_shared(Arc::new(engine), "127.0.0.1:0", SchedulerConfig::default())
                .unwrap()
        })
        .collect();
    let addrs = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    (backends, addrs)
}

/// Wait up to 5 s for `count` to read `want` threads; the last count
/// read. A thread joined a moment ago may still be counted.
fn threads_settle_at(count: fn() -> usize, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = count();
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A default router over 1, 2 or 4 shards adds `ROUTE_WORKERS + 1`
/// threads — its route workers and its loop — with probing off or on,
/// while it answers a query; its shutdown gives them back. The backends
/// are the caller's to shut down once no later count can see their
/// threads exit.
fn router_threads_do_not_grow_with_shards(union: &ImageDatabase) -> Vec<ServerHandle> {
    let tiers: Vec<_> = [1, 2, 4]
        .map(|shards| ShardPlan::new(ShardScheme::Mod, 16, 64, shards).unwrap())
        .into_iter()
        .map(|plan| {
            let (backends, addrs) = spawn_backends(union, &plan);
            (plan, backends, addrs)
        })
        .collect();
    let query = union.descriptor(5).unwrap();
    let baseline = thread_count();
    for (plan, _, addrs) in &tiers {
        for probe_interval in [None, Some(Duration::from_millis(50))] {
            let config = RouterConfig {
                probe_interval,
                ..RouterConfig::default()
            };
            let (shards, probing) = (plan.shards(), probe_interval.is_some());
            let want = baseline + ROUTE_WORKERS + 1;
            let router = Router::spawn(plan.clone(), addrs.clone(), "127.0.0.1:0", config).unwrap();
            let mut client = Client::connect(router.local_addr()).unwrap();
            assert_eq!(client.knn(query, 3, 0, 1.0).unwrap().len(), 3);
            assert_eq!(
                threads_settle_at(thread_count, want),
                want,
                "{shards} shards, probing {probing}: threads beyond workers + loop"
            );
            drop(client);
            router.shutdown();
            assert_eq!(
                threads_settle_at(thread_count, baseline),
                baseline,
                "{shards} shards: threads left behind"
            );
        }
    }
    tiers
        .into_iter()
        .flat_map(|(_, backends, _)| backends)
        .collect()
}

/// A hedging router adds `ROUTE_WORKERS + 1` threads too, sampled every
/// millisecond while hedged requests are in flight. Every shard's primary
/// answers through a proxy that delays each reply chunk well past the
/// hedge floor, so a request that starts there fires a hedge onto the
/// backup, which wins; the losing attempt would run on until the delayed
/// reply came. Backends run single-threaded batches, so nothing else
/// starts a thread while the sampler watches. The router's and the
/// proxies' shutdowns give every thread back; the backends are the
/// caller's.
fn hedged_races_start_no_threads(union: &ImageDatabase) -> Vec<ServerHandle> {
    let plan = ShardPlan::new(ShardScheme::Mod, 16, 64, 2).unwrap();
    let spawn = |db: ImageDatabase| {
        let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap();
        let config = SchedulerConfig {
            exec_threads: 1,
            ..SchedulerConfig::default()
        };
        Server::spawn_shared(Arc::new(engine), "127.0.0.1:0", config).unwrap()
    };
    // Each shard's primary, then its backup.
    let backends: Vec<ServerHandle> = split_database(union, &plan)
        .unwrap()
        .into_iter()
        .flat_map(|db| [spawn(db.clone()), spawn(db)])
        .collect();
    let without_proxies = thread_count();
    let slow: Vec<_> = backends
        .iter()
        .step_by(2)
        .map(|primary| {
            let addr = primary.local_addr().to_string();
            let delay = WireMode::Delay(Duration::from_millis(120));
            ChaosProxy::spawn(addr, delay, "127.0.0.1:0").unwrap()
        })
        .collect();
    let addrs = slow
        .iter()
        .zip(backends.iter().skip(1).step_by(2))
        .map(|(slow, backup)| {
            vec![
                slow.local_addr().to_string(),
                backup.local_addr().to_string(),
            ]
        })
        .collect();
    let query = union.descriptor(5).unwrap();
    // Not `threads_but_proxies()`: a thread takes its name only once it
    // runs, so a proxy's acceptor may still carry this thread's.
    let baseline = without_proxies;
    let config = RouterConfig {
        hedge: Some(Duration::from_millis(10)),
        ..RouterConfig::default()
    };
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let want_hits = client.knn(query, 3, 0, 1.0).unwrap();
    let before = cbir_obs::snapshot().router_tier;

    let stop = AtomicBool::new(false);
    let seen = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut seen = BTreeSet::new();
            while !stop.load(Ordering::Relaxed) {
                seen.insert(threads_but_proxies());
                std::thread::sleep(Duration::from_millis(1));
            }
            seen
        });
        // Windows of pipelined requests, each routed on its own worker.
        for _ in 0..4 {
            for _ in 0..4 {
                client.send_knn(query, 3, 0, 1.0).unwrap();
            }
            client.flush().unwrap();
            for _ in 0..4 {
                assert_eq!(client.recv_hits().unwrap(), want_hits, "hedged hits");
            }
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });
    let after = cbir_obs::snapshot().router_tier;
    assert!(
        after.hedges_fired > before.hedges_fired && after.hedges_won > before.hedges_won,
        "no hedge raced: fired {} -> {}, won {} -> {}",
        before.hedges_fired,
        after.hedges_fired,
        before.hedges_won,
        after.hedges_won
    );
    // The sampler is one thread more.
    let want = baseline + ROUTE_WORKERS + 1 + 1;
    assert_eq!(
        seen,
        BTreeSet::from([want]),
        "threads while hedges race, besides the proxies' (want {want})"
    );
    drop(client);
    router.shutdown();
    assert_eq!(
        threads_settle_at(threads_but_proxies, baseline),
        baseline,
        "hedging router: threads left behind"
    );
    for proxy in slow {
        proxy.shutdown();
    }
    assert_eq!(
        threads_settle_at(thread_count, without_proxies),
        without_proxies,
        "proxies: threads left behind"
    );
    backends
}

#[test]
fn router_threads_and_fds_do_not_grow_with_connections() {
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let mut union = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(64, 16, 1.0, 7)
        .into_iter()
        .enumerate()
    {
        let meta = ImageMeta {
            name: format!("img-{i}"),
            label: None,
        };
        union.insert_descriptor(meta, v).unwrap();
    }
    let mut idle_backends = router_threads_do_not_grow_with_shards(&union);
    idle_backends.extend(hedged_races_start_no_threads(&union));

    let plan = ShardPlan::new(ShardScheme::Mod, 16, 64, 2).unwrap();
    let (backends, addrs) = spawn_backends(&union, &plan);
    let config = RouterConfig {
        // Tight idle reap so aborted half-frames are collected within the
        // test's lifetime.
        read_timeout: Some(Duration::from_millis(500)),
        ..RouterConfig::default()
    };
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", config).unwrap();
    let addr = router.local_addr();

    // Warm the backend pools, then take the baselines with the warm
    // client still open.
    let query = union.descriptor(5).unwrap().to_vec();
    let mut warm = Client::connect(addr).unwrap();
    let want = warm.knn(&query, 3, 0, 1.0).unwrap();
    let (fd_baseline, thread_baseline) = (fd_count(), thread_count());

    // Idle front connections, each answered once so the loop has
    // accepted it: not one thread more.
    let idle: Vec<Client> = (0..256)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            c.ping().unwrap();
            c
        })
        .collect();
    assert_eq!(
        thread_count(),
        thread_baseline,
        "threads grew with {} idle connections",
        idle.len()
    );
    drop(idle);

    let mut rng = Rng(0xC0FF_EE42);
    let mut aborted = 0usize;
    for cycle in 0..500 {
        match rng.next() % 4 {
            // Mid-request abort: half a knn frame, then vanish.
            0 => {
                let mut raw = TcpStream::connect(addr).unwrap();
                let mut frame = Vec::new();
                let req = Request::Knn {
                    k: 3,
                    deadline_us: 0,
                    recall_target: 1.0,
                    descriptor: query.clone(),
                };
                write_frame(&mut frame, &encode_request(&req)).unwrap();
                let cut = 1 + (rng.next() as usize % (frame.len() - 1));
                raw.write_all(&frame[..cut]).unwrap();
                drop(raw); // RST or FIN mid-frame, peer's choice
                aborted += 1;
            }
            // Connect and immediately disconnect without a byte.
            1 => {
                drop(TcpStream::connect(addr).unwrap());
                aborted += 1;
            }
            // Clean connect → query → disconnect cycle.
            _ => {
                let mut c = Client::connect(addr).unwrap();
                let hits = c.knn(&query, 3, 0, 1.0).unwrap();
                assert_eq!(hits, want, "cycle {cycle}: wrong hits");
            }
        }
    }
    assert!(
        aborted > 50,
        "seed produced too few aborts to mean anything"
    );
    assert_eq!(thread_count(), thread_baseline, "threads grew with churn");

    // Give the reaper time to collect aborted half-open connections, then
    // the fd count must settle back to baseline (small slack for
    // connections the kernel is still tearing down).
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let n = fd_count();
        if n <= fd_baseline + 2 || Instant::now() > deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        settled <= fd_baseline + 2,
        "fd leak: baseline {fd_baseline}, settled at {settled} after churn"
    );

    let mut after = Client::connect(addr).unwrap();
    assert_eq!(after.knn(&query, 3, 0, 1.0).unwrap(), want);
    drop((warm, after));
    router.shutdown();
    for b in backends.into_iter().chain(idle_backends) {
        b.shutdown();
    }
}
