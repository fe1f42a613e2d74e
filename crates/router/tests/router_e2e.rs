//! End-to-end bit-identity and failover tests: real backend servers,
//! a real router, and **frame-level** comparisons — the reply payload
//! bytes a client reads from the router must equal, byte for byte, the
//! bytes a single node serving the union corpus would have sent, one
//! request per connection, pipelined on one connection, and across a
//! storm of concurrent connections.

use cbir_core::{
    split_database, CorpusStore, ImageDatabase, ImageMeta, IndexKind, QueryEngine, ServedCorpus,
    ShardPlan, ShardScheme, StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_router::{Router, RouterConfig};
use cbir_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, Hit, Request, Response,
};
use cbir_server::{ChaosProxy, Client, SchedulerConfig, Server, ServerHandle, WireMode};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A union corpus with deliberate exact-duplicate rows, so distance
/// ties across shard boundaries — the case the `(distance, id)`
/// tie-break exists for — are the norm rather than a fluke.
fn union_db(n: usize) -> ImageDatabase {
    let pipeline = Pipeline::color_histogram_default();
    let dim = pipeline.dim();
    let base = cbir_workload::histograms(n, dim, 1.0, 0xC0FFEE);
    let mut descriptors = Vec::with_capacity(n * dim);
    let mut metas = Vec::with_capacity(n);
    for (g, v) in base.iter().enumerate() {
        // Every third row duplicates an earlier row bit-for-bit.
        let row = if g % 3 == 0 && g > 0 { &base[g / 3] } else { v };
        descriptors.extend_from_slice(row);
        metas.push(ImageMeta {
            name: format!("img-{g}"),
            label: (g % 4 != 0).then_some((g % 11) as u32),
        });
    }
    ImageDatabase::from_parts(pipeline, false, descriptors, metas).unwrap()
}

fn spawn_backend(db: ImageDatabase) -> ServerHandle {
    let engine = Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap());
    Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default()).unwrap()
}

/// Send one encoded request frame, return the raw reply payload bytes.
fn raw_call(addr: SocketAddr, req: &Request) -> Vec<u8> {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write_frame(&mut writer, &encode_request(req)).unwrap();
    read_frame(&mut BufReader::new(stream)).unwrap().unwrap()
}

fn frame_of(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(request)).unwrap();
    frame
}

/// Write every request down one fresh connection in a single burst,
/// then read the reply payloads in order.
fn pipelined(addr: SocketAddr, requests: &[Request]) -> Vec<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let burst: Vec<u8> = requests.iter().flat_map(frame_of).collect();
    stream.write_all(&burst).unwrap();
    (0..requests.len())
        .map(|_| read_frame(&mut stream).unwrap().expect("reply frame"))
        .collect()
}

/// The request mix every topology is checked against: searches with
/// heavy ties, k larger than the corpus, range, knn-by-id on ids owned
/// by different shards (one at the wire's largest k), point reads, and
/// liveness.
fn request_mix(db: &ImageDatabase) -> Vec<Request> {
    let n = db.len();
    let q_dup = db.descriptor(3).unwrap().to_vec(); // duplicated row
    let q_other = db.descriptor(n - 1).unwrap().to_vec();
    vec![
        Request::Knn {
            k: 1,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q_dup.clone(),
        },
        Request::Knn {
            k: 7,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q_dup.clone(),
        },
        Request::Knn {
            k: (n + 50) as u32, // k > total hits
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q_other.clone(),
        },
        Request::Range {
            radius: 0.6,
            deadline_us: 0,
            descriptor: q_dup,
        },
        Request::Range {
            radius: 0.0, // exact duplicates only
            deadline_us: 0,
            descriptor: q_other,
        },
        Request::KnnById {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            id: 0,
        },
        Request::KnnById {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            id: (n - 2) as u64,
        },
        // Every other row: the router's k + 1 over-fetch must not wrap.
        Request::KnnById {
            k: u32::MAX,
            deadline_us: 0,
            recall_target: 1.0,
            id: 1,
        },
        Request::GetDescriptor { id: 7 },
        Request::Ping,
    ]
}

#[test]
fn router_replies_are_frame_level_bit_identical_to_single_node() {
    let union = union_db(61);
    let single = spawn_backend(union.clone());
    for scheme in [ShardScheme::Mod, ShardScheme::Range] {
        for shards in [2usize, 4] {
            let plan = ShardPlan::new(scheme, union.dim(), union.len() as u64, shards).unwrap();
            let parts = split_database(&union, &plan).unwrap();
            let backends: Vec<ServerHandle> = parts.into_iter().map(spawn_backend).collect();
            let addrs: Vec<Vec<String>> = backends
                .iter()
                .map(|b| vec![b.local_addr().to_string()])
                .collect();
            let router =
                Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();
            let mix = request_mix(&union);
            let want: Vec<Vec<u8>> = mix
                .iter()
                .map(|req| raw_call(single.local_addr(), req))
                .collect();
            for (req, want) in mix.iter().zip(&want) {
                let got = raw_call(router.local_addr(), req);
                assert_eq!(
                    got, *want,
                    "{scheme} x{shards}: reply bytes diverged for {req:?}"
                );
            }
            assert_eq!(
                pipelined(router.local_addr(), &mix),
                want,
                "{scheme} x{shards}: pipelined reply bytes diverged"
            );
            router.shutdown();
            for b in backends {
                b.shutdown();
            }
        }
    }
    single.shutdown();
}

/// Connections the storm may hold: two descriptors each (both ends live
/// in this process) under the soft `RLIMIT_NOFILE`, less room for the
/// harness, the backends and the tests running beside this one.
fn storm_conns() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let soft = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next())
        .map_or(usize::MAX, |v| v.parse().unwrap_or(usize::MAX));
    let fits = soft.saturating_sub(256) / 2;
    assert!(
        fits >= 128,
        "RLIMIT_NOFILE {soft} cannot hold 128 connections"
    );
    let conns = 1024.min(1 << fits.ilog2());
    println!("storm: {conns} concurrent connections (RLIMIT_NOFILE {soft})");
    conns
}

#[test]
fn a_storm_of_concurrent_connections_gets_the_single_nodes_bytes() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 8;
    const ROWS: usize = 256;
    let union = union_db(ROWS);
    let single = spawn_backend(union.clone());
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), ROWS as u64, 2).unwrap();
    let backends: Vec<ServerHandle> = split_database(&union, &plan)
        .unwrap()
        .into_iter()
        .map(spawn_backend)
        .collect();
    let addrs = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();
    let requests: Vec<Request> = (0..ROWS as u64)
        .map(|id| Request::KnnById {
            k: 8,
            deadline_us: 0,
            recall_target: 1.0,
            id,
        })
        .collect();
    let frames: Vec<Vec<u8>> = requests.iter().map(frame_of).collect();
    let want = pipelined(single.local_addr(), &requests);

    let per_thread = storm_conns() / THREADS;
    let addr = router.local_addr();
    // Every connection is open before the first request goes out.
    let all_open = std::sync::Barrier::new(THREADS);
    let diverging: usize = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (frames, want, all_open) = (&frames, &want, &all_open);
                scope.spawn(move || {
                    let mut conns: Vec<TcpStream> = (0..per_thread)
                        .map(|_| {
                            let s = TcpStream::connect(addr).unwrap();
                            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                            s
                        })
                        .collect();
                    all_open.wait();
                    let mut bad = 0;
                    for round in 0..ROUNDS {
                        let pick = |c: usize| (t * per_thread + c + round * 97) % ROWS;
                        for (c, s) in conns.iter_mut().enumerate() {
                            s.write_all(&frames[pick(c)]).unwrap();
                        }
                        for (c, s) in conns.iter_mut().enumerate() {
                            let got = read_frame(s).unwrap().expect("reply frame");
                            bad += usize::from(got != want[pick(c)]);
                        }
                    }
                    bad
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let sent = THREADS * per_thread * ROUNDS;
    assert_eq!(diverging, 0, "of {sent} replies");
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    single.shutdown();
}

/// Over clustered L1 shards above the filter's row threshold, the exact
/// filter serves every approximate request on every shard: the router's
/// reply frames at targets 0.5, 0.9 and 0.95 are its recall-1.0 frames,
/// which are the single node's, byte for byte.
#[test]
fn approximate_replies_the_filter_serves_are_the_single_nodes_exact_frames() {
    const ROWS: usize = 9000;
    let pipeline = Pipeline::color_histogram_default();
    let dim = pipeline.dim();
    let rows = cbir_workload::clustered_smooth(ROWS, dim, ROWS / 64, 10.0, 100.0, 8, 5);
    let metas = (0..ROWS).map(|g| ImageMeta {
        name: format!("img-{g}"),
        label: Some((g % 11) as u32),
    });
    let union = ImageDatabase::from_parts(pipeline, false, rows.concat(), metas.collect()).unwrap();
    let single = spawn_backend(union.clone());
    let plan = ShardPlan::new(ShardScheme::Mod, dim, ROWS as u64, 2).unwrap();
    let backends: Vec<ServerHandle> = split_database(&union, &plan)
        .unwrap()
        .into_iter()
        .map(spawn_backend)
        .collect();
    let addrs = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();
    let asked = |recall_target: f32| -> Vec<Request> {
        let knn = cbir_workload::queries(&rows, 8, 5.0, 4).into_iter();
        let knn = knn.map(|descriptor| Request::Knn {
            k: 10,
            deadline_us: 0,
            recall_target,
            descriptor,
        });
        let by_id = [0u64, 1, 4500, 8999].map(|id| Request::KnnById {
            k: 10,
            deadline_us: 0,
            recall_target,
            id,
        });
        knn.chain(by_id).collect()
    };
    let want: Vec<Vec<u8>> = asked(1.0)
        .iter()
        .map(|req| raw_call(single.local_addr(), req))
        .collect();
    for recall_target in [1.0, 0.5, 0.9, 0.95] {
        let requests = asked(recall_target);
        for (req, want) in requests.iter().zip(&want) {
            assert_eq!(raw_call(router.local_addr(), req), *want, "{req:?}");
        }
        assert_eq!(
            pipelined(router.local_addr(), &requests),
            want,
            "recall {recall_target}: pipelined"
        );
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    single.shutdown();
}

/// `[Delete id, Knn for that row]` pipelined through the router over
/// live-store backends: the delete is a barrier on the router's front
/// connection as on a node's, so the query never runs ahead of it.
#[test]
fn a_query_pipelined_behind_a_delete_never_sees_the_deleted_row() {
    let union = union_db(48);
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 2).unwrap();
    let dir = std::env::temp_dir().join(format!("cbir-router-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions::new(IndexKind::Linear, Measure::L1);
    let backends: Vec<ServerHandle> = split_database(&union, &plan)
        .unwrap()
        .iter()
        .enumerate()
        .map(|(s, part)| {
            let shard_dir = dir.join(format!("shard-{s}"));
            let store =
                CorpusStore::create_from_database(shard_dir, part, options.clone()).unwrap();
            let config = SchedulerConfig::default();
            Server::spawn_corpus(ServedCorpus::Live(store), "127.0.0.1:0", config).unwrap()
        })
        .collect();
    let addrs = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let deleted: Vec<u64> = (0..24).map(|i| i * 2 + 1).collect();
    let requests: Vec<Request> = deleted
        .iter()
        .flat_map(|&id| {
            [
                Request::Delete { id },
                Request::Knn {
                    k: 3,
                    deadline_us: 0,
                    recall_target: 1.0,
                    descriptor: union.descriptor(id as usize).unwrap().to_vec(),
                },
            ]
        })
        .collect();
    let replies = pipelined(router.local_addr(), &requests);
    for (pair, id) in replies.chunks(2).zip(&deleted) {
        let ack = decode_response(&pair[0]).unwrap();
        assert!(matches!(ack, Response::DeleteAck { .. }), "{id}: {ack:?}");
        match decode_response(&pair[1]).unwrap() {
            Response::Hits { hits, .. } => {
                assert_eq!(hits.len(), 3);
                assert!(hits.iter().all(|h| h.id != *id), "{id} ran ahead: {hits:?}");
            }
            other => panic!("query for {id}: {other:?}"),
        }
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_failure_mid_run_is_invisible_in_reply_bytes() {
    let union = union_db(40);
    let single = spawn_backend(union.clone());
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 2).unwrap();
    let parts = split_database(&union, &plan).unwrap();
    // Two replicas per shard: each replica serves its own engine over
    // the same shard rows.
    let backends: Vec<Vec<ServerHandle>> = parts
        .into_iter()
        .map(|db| vec![spawn_backend(db.clone()), spawn_backend(db)])
        .collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|group| group.iter().map(|b| b.local_addr().to_string()).collect())
        .collect();
    let router = Router::spawn(
        plan,
        addrs,
        "127.0.0.1:0",
        RouterConfig {
            cooldown: Duration::from_millis(200),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let mix = request_mix(&union);
    // Warm the pools (and the baseline) while every replica is alive.
    for req in &mix {
        assert_eq!(
            raw_call(router.local_addr(), req),
            raw_call(single.local_addr(), req)
        );
    }

    // Kill shard 0's primary outright. Pooled connections to it die
    // mid-stream; fresh dials are refused. Every query must still
    // answer, bit-identically, via the backup replica.
    let shard0_primary_addr = backends[0][0].local_addr();
    let mut groups = backends;
    let primary = groups[0].remove(0);
    primary.shutdown();
    // The socket is really gone.
    assert!(
        Client::connect(shard0_primary_addr).is_err() || {
            // A TIME_WAIT accept backlog can still accept; a ping must fail.
            let mut c = Client::connect(shard0_primary_addr).unwrap();
            c.ping().is_err()
        }
    );

    // Several rounds so the round-robin rotation lands on the dead
    // primary first at least once (2 replicas alternate start points).
    for _ in 0..4 {
        for req in &mix {
            assert_eq!(
                raw_call(router.local_addr(), req),
                raw_call(single.local_addr(), req),
                "reply bytes diverged after killing shard 0 primary"
            );
        }
    }

    // The failover is visible where it should be: the per-replica
    // observability slots (shard 0 primary marked unhealthy and/or
    // failed, with failovers recorded on the replicas that covered).
    let snap = cbir_obs::snapshot();
    let s0p = snap
        .router
        .iter()
        .find(|r| r.shard == 0 && r.role == "primary")
        .expect("router obs slot for shard 0 primary");
    assert!(
        s0p.failures > 0 || !s0p.healthy,
        "killing shard 0 primary must be recorded: {s0p:?}"
    );
    let total_failovers: u64 = snap.router.iter().map(|r| r.failovers).sum();
    assert!(
        total_failovers > 0,
        "covering the dead replica counts as failover"
    );

    router.shutdown();
    for group in groups {
        for b in group {
            b.shutdown();
        }
    }
    single.shutdown();
}

#[test]
fn stats_through_router_aggregate_every_replica() {
    let union = union_db(30);
    let plan = ShardPlan::new(ShardScheme::Range, union.dim(), union.len() as u64, 2).unwrap();
    let parts = split_database(&union, &plan).unwrap();
    let backends: Vec<ServerHandle> = parts.into_iter().map(spawn_backend).collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    let q = union.descriptor(0).unwrap().to_vec();
    for _ in 0..3 {
        let hits = client.knn(&q, 4, 0, 1.0).unwrap();
        assert_eq!(hits.len(), 4);
    }

    // Binary stats: the router's snapshot is the sum of what each
    // backend reports individually (stats ops themselves don't count
    // as query requests, so the comparison is race-free once the
    // queries above have been answered).
    let via_router = client.stats().unwrap();
    let mut direct_requests = 0;
    for b in &backends {
        let mut c = Client::connect(b.local_addr()).unwrap();
        direct_requests += c.stats().unwrap().requests;
    }
    assert_eq!(via_router.requests, direct_requests);
    assert_eq!(via_router.requests, 6, "3 scatters x 2 shards");
    assert!(via_router.executed >= 6);

    // JSON obs stats: forward-compatible merge of backend documents
    // plus the router's own (which carries the per-replica section).
    let json = client.obs_stats(false).unwrap();
    assert!(
        json.contains("\"router\""),
        "merged doc keeps the router section"
    );
    assert!(
        json.contains("\"queue\"") || json.contains("\"store\""),
        "backend sections survive the merge: {json}"
    );

    // Prometheus exposition from the router carries the labelled
    // per-shard serving series.
    let prom = client.obs_stats(true).unwrap();
    assert!(
        prom.contains("cbir_router_requests_total{shard=\"0\",replica=\"primary\"}"),
        "router exposition must label shard/replica:\n{prom}"
    );

    // Explain through the router concatenates backend traces into one
    // well-formed document.
    let explain = client.explain().unwrap();
    assert!(explain.contains("\"traces\""), "{explain}");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn router_rejects_inserts_and_routes_point_ops() {
    let union = union_db(12);
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 3).unwrap();
    let parts = split_database(&union, &plan).unwrap();
    let backends: Vec<ServerHandle> = parts.into_iter().map(spawn_backend).collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router =
        Router::spawn(plan.clone(), addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();

    let mut client = Client::connect(router.local_addr()).unwrap();
    let err = client
        .insert("new-img", None, &vec![0.1; union.dim()])
        .unwrap_err();
    assert!(
        err.to_string().contains("shard plan"),
        "insert must be refused with a routing explanation: {err}"
    );

    // GetDescriptor through the router translates global to local:
    // every row must come back bit-for-bit.
    for g in 0..union.len() {
        let got = client.get_descriptor(g as u64).unwrap();
        let want = union.descriptor(g).unwrap();
        assert_eq!(got.len(), want.len());
        assert!(got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
    // Unknown id: clean error, connection stays usable.
    assert!(client.get_descriptor(union.len() as u64 + 5).is_err());
    assert!(client.ping().is_ok());

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A union corpus built from [`cbir_workload::duplicated_histograms`],
/// so cross-shard distance ties (the `(distance, id)` tie-break's whole
/// reason to exist) are guaranteed, not incidental.
fn tied_union_db(n: usize) -> ImageDatabase {
    let pipeline = Pipeline::color_histogram_default();
    let dim = pipeline.dim();
    let rows = cbir_workload::duplicated_histograms(n, dim, 1.0, 3, 0xD15EA5E);
    let mut descriptors = Vec::with_capacity(n * dim);
    let mut metas = Vec::with_capacity(n);
    for (g, v) in rows.iter().enumerate() {
        descriptors.extend_from_slice(v);
        metas.push(ImageMeta {
            name: format!("img-{g}"),
            label: None,
        });
    }
    ImageDatabase::from_parts(pipeline, false, descriptors, metas).unwrap()
}

/// The reply a degraded merge over exactly `live` shards must produce:
/// query each live backend directly, translate ids to global, merge
/// under the documented `(distance, id)` order, truncate to `k`.
fn expected_partial_hits(
    plan: &ShardPlan,
    live: &[(usize, SocketAddr)],
    query: &[f32],
    k: usize,
) -> Vec<Hit> {
    let mut all: Vec<Hit> = Vec::new();
    for &(s, addr) in live {
        let mut c = Client::connect(addr).unwrap();
        for mut h in c.knn(query, k, 0, 1.0).unwrap() {
            h.id = plan.to_global(s, h.id).unwrap();
            all.push(h);
        }
    }
    all.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.id.cmp(&b.id))
    });
    all.truncate(k);
    all
}

fn assert_hits_bit_identical(got: &[Hit], want: &[Hit], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: hit count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id, "{ctx}: id order");
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{ctx}: distance bits for id {}",
            g.id
        );
    }
}

#[test]
fn partial_results_degrade_through_shard_loss_with_exact_accounting() {
    let union = tied_union_db(60);
    let k = 9;
    let query = union.descriptor(3).unwrap().to_vec(); // a duplicated row: ties guaranteed
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 3).unwrap();
    let parts = split_database(&union, &plan).unwrap();
    let backends: Vec<ServerHandle> = parts.into_iter().map(spawn_backend).collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let backend_addrs: Vec<SocketAddr> = backends.iter().map(ServerHandle::local_addr).collect();
    let router = Router::spawn(
        plan.clone(),
        addrs,
        "127.0.0.1:0",
        RouterConfig {
            allow_partial: true,
            cooldown: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    // Full coverage with allow_partial ON: the reply is still the plain
    // Hits frame, byte-identical to a single node serving the union.
    let single = spawn_backend(union.clone());
    let req = Request::Knn {
        k: k as u32,
        deadline_us: 0,
        recall_target: 1.0,
        descriptor: query.clone(),
    };
    assert_eq!(
        raw_call(router.local_addr(), &req),
        raw_call(single.local_addr(), &req),
        "healthy partial-mode replies must stay bit-identical"
    );
    single.shutdown();

    let degraded_before = cbir_obs::snapshot().router_tier.degraded_replies;
    let mut backends = backends;

    // All-but-one shards answering: kill shard 1.
    backends.remove(1).shutdown();
    let mut client = Client::connect(router.local_addr()).unwrap();
    let reply = client.knn_detailed(&query, k, 0, 1.0).unwrap();
    assert!(reply.degraded);
    assert_eq!((reply.shards_answered, reply.shards_total), (2, 3));
    let live = [(0usize, backend_addrs[0]), (2usize, backend_addrs[2])];
    let want = expected_partial_hits(&plan, &live, &query, k);
    assert_hits_bit_identical(&reply.hits, &want, "2/3 shards");
    // On the wire the reply is the HitsPartial frame, not Hits.
    let payload = raw_call(router.local_addr(), &req);
    assert_eq!(payload[0], 13, "degraded replies carry the partial tag");

    // knn-by-id whose owner shard is alive degrades the same way; one
    // whose owner is gone cannot even fetch the query row.
    let owned_by_live = (0..union.len())
        .find(|&g| plan.to_local(g as u64).unwrap().0 == 0)
        .unwrap();
    let by_id = client.knn_by_id_detailed(owned_by_live, k, 0, 1.0).unwrap();
    assert!(by_id.degraded);
    assert_eq!((by_id.shards_answered, by_id.shards_total), (2, 3));
    let owned_by_dead = (0..union.len())
        .find(|&g| plan.to_local(g as u64).unwrap().0 == 1)
        .unwrap();
    assert!(client.knn_by_id(owned_by_dead, k, 0, 1.0).is_err());

    // One shard answering.
    backends.pop().unwrap().shutdown(); // shard 2
    let reply = client.knn_detailed(&query, k, 0, 1.0).unwrap();
    assert_eq!((reply.shards_answered, reply.shards_total), (1, 3));
    let want = expected_partial_hits(&plan, &[(0, backend_addrs[0])], &query, k);
    assert_hits_bit_identical(&reply.hits, &want, "1/3 shards");

    // Zero shards answering: partial mode refuses to fake an empty
    // result; the query errors.
    backends.pop().unwrap().shutdown(); // shard 0
    assert!(client.knn(&query, k, 0, 1.0).is_err());

    let degraded_after = cbir_obs::snapshot().router_tier.degraded_replies;
    assert!(
        degraded_after >= degraded_before + 4,
        "each partial reply counts: {degraded_before} -> {degraded_after}"
    );
    router.shutdown();
}

#[test]
fn hedged_requests_rescue_a_slow_replica() {
    let union = union_db(40);
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 1).unwrap();
    let fast = spawn_backend(union.clone());
    let slow_backend = spawn_backend(union.clone());
    // The primary answers through a proxy that delays every reply chunk
    // well past the hedge floor.
    let slow = ChaosProxy::spawn(
        slow_backend.local_addr().to_string(),
        WireMode::Delay(Duration::from_millis(120)),
        "127.0.0.1:0",
    )
    .unwrap();
    let router = Router::spawn(
        plan,
        vec![vec![
            slow.local_addr().to_string(),
            fast.local_addr().to_string(),
        ]],
        "127.0.0.1:0",
        RouterConfig {
            hedge: Some(Duration::from_millis(10)),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let tier_before = cbir_obs::snapshot().router_tier;
    let mut client = Client::connect(router.local_addr()).unwrap();
    let query = union.descriptor(0).unwrap().to_vec();
    let mut direct = Client::connect(fast.local_addr()).unwrap();
    let want = direct.knn(&query, 5, 0, 1.0).unwrap();
    for _ in 0..12 {
        let hits = client.knn(&query, 5, 0, 1.0).unwrap();
        assert_hits_bit_identical(&hits, &want, "hedged");
    }
    let tier_after = cbir_obs::snapshot().router_tier;
    assert!(
        tier_after.hedges_fired > tier_before.hedges_fired,
        "round-robin must land on the slow replica and outlive the floor"
    );
    assert!(
        tier_after.hedges_won > tier_before.hedges_won,
        "the fast sibling must win at least one race"
    );

    router.shutdown();
    slow.shutdown();
    slow_backend.shutdown();
    fast.shutdown();
}

#[test]
fn probe_driven_rejoin_brings_a_flapped_replica_back() {
    let union = union_db(30);
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 1).unwrap();
    let primary_backend = spawn_backend(union.clone());
    let backup = spawn_backend(union.clone());
    let proxy = ChaosProxy::spawn(
        primary_backend.local_addr().to_string(),
        WireMode::Pass,
        "127.0.0.1:0",
    )
    .unwrap();
    // Hour-long cooldown: if the replica comes back, it can only be the
    // prober's doing.
    let router = Router::spawn(
        plan,
        vec![vec![
            proxy.local_addr().to_string(),
            backup.local_addr().to_string(),
        ]],
        "127.0.0.1:0",
        RouterConfig {
            probe_interval: Some(Duration::from_millis(50)),
            cooldown: Duration::from_secs(3600),
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let rejoins = |snap: &cbir_obs::ObsSnapshot| {
        snap.router
            .iter()
            .filter(|r| r.shard == 0)
            .map(|r| r.probe_rejoins)
            .sum::<u64>()
    };
    let before = rejoins(&cbir_obs::snapshot());

    let mut client = Client::connect(router.local_addr()).unwrap();
    let query = union.descriptor(0).unwrap().to_vec();
    assert_eq!(client.knn(&query, 3, 0, 1.0).unwrap().len(), 3);

    // Take the primary's wire down. Every query must keep answering via
    // the backup — zero failures surface to the client.
    proxy.set_mode(WireMode::Drop);
    std::thread::sleep(Duration::from_millis(150)); // let a probe fail
    for _ in 0..6 {
        assert_eq!(client.knn(&query, 3, 0, 1.0).unwrap().len(), 3);
    }

    // Wire back up: a probe success must rejoin the replica despite the
    // hour-long cooldown.
    proxy.set_mode(WireMode::Pass);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if rejoins(&cbir_obs::snapshot()) > before {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no probe-driven rejoin within 5s"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(client.knn(&query, 3, 0, 1.0).unwrap().len(), 3);

    router.shutdown();
    proxy.shutdown();
    primary_backend.shutdown();
    backup.shutdown();
}
