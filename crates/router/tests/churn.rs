//! Connection churn against the router's front side.
//!
//! A front connection costs the router one registered socket while it is
//! open and nothing once it is gone: no thread per connection (256 idle
//! connections leave the process's thread count where it was), and no fd
//! after 500 connect/abort/query cycles — most complete a query cleanly,
//! a seeded fraction abort mid-request (half a frame written, then the
//! socket slammed shut) or connect and leave without a byte. Nor does a
//! shard cost a thread: over 1, 2 or 4 shards a router holds its route
//! workers and its loop thread, plus the prober when probing.
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
use cbir_router::{Router, RouterConfig};
use cbir_server::protocol::{encode_request, write_frame, Request};
use cbir_server::{Client, SchedulerConfig, Server, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
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

/// Wait up to 5 s for the process to hold `want` threads; the last
/// count read. A thread joined a moment ago may still be counted.
fn threads_settle_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = thread_count();
        if n == want || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A default router over 1, 2 or 4 shards adds `pool_per_replica + 1`
/// threads — its route workers and its loop — and one more with
/// probing on, while it answers a query; its shutdown gives them back.
fn router_threads_do_not_grow_with_shards(union: &ImageDatabase) {
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
            let want = baseline + config.pool_per_replica + 1 + usize::from(probing);
            let router = Router::spawn(plan.clone(), addrs.clone(), "127.0.0.1:0", config).unwrap();
            let mut client = Client::connect(router.local_addr()).unwrap();
            assert_eq!(client.knn(query, 3, 0, 1.0).unwrap().len(), 3);
            assert_eq!(
                threads_settle_at(want),
                want,
                "{shards} shards, probing {probing}: threads beyond workers + loop"
            );
            drop(client);
            router.shutdown();
            assert_eq!(
                threads_settle_at(baseline),
                baseline,
                "{shards} shards: threads left behind"
            );
        }
    }
    for b in tiers.into_iter().flat_map(|(_, backends, _)| backends) {
        b.shutdown();
    }
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
    router_threads_do_not_grow_with_shards(&union);

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
    for b in backends {
        b.shutdown();
    }
}
