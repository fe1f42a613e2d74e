//! End-to-end tests over real TCP sockets: response equivalence with
//! direct engine calls, concurrent pipelined clients, overload shedding,
//! deadline expiry, per-connection error isolation, live-store mutation
//! ops, and graceful drain-on-shutdown.

use cbir_core::{
    CorpusStore, ImageDatabase, ImageMeta, IndexKind, QueryEngine, Ranked, ServedCorpus,
    StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use cbir_server::{Client, ClientError, Hit, Rejection, SchedulerConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic engine over `n` synthetic histogram descriptors.
fn engine(n: usize, kind: IndexKind) -> Arc<QueryEngine> {
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(n, 16, 1.0, 42)
        .into_iter()
        .enumerate()
    {
        db.insert_descriptor(
            ImageMeta {
                name: format!("img-{i:05}"),
                label: Some((i % 7) as u32),
            },
            v,
        )
        .unwrap();
    }
    Arc::new(QueryEngine::build(db, kind, Measure::L1).unwrap())
}

fn spawn(engine: &Arc<QueryEngine>, config: SchedulerConfig) -> ServerHandle {
    Server::spawn_shared(Arc::clone(engine), "127.0.0.1:0", config).expect("spawn server")
}

fn assert_hits_match(got: &[Hit], want: &[Ranked], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: hit count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id as u64, "{what}: id");
        assert_eq!(g.name, w.name, "{what}: name");
        assert_eq!(g.label, w.label, "{what}: label");
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{what}: distance bits"
        );
    }
}

#[test]
fn responses_bit_identical_to_direct_engine_calls() {
    let engine = engine(64, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let (db_len, dim) = client.ping().unwrap();
    assert_eq!(db_len, 64);
    assert_eq!(dim as usize, engine.database().dim());

    let queries: Vec<Vec<f32>> = (0..16)
        .map(|i| engine.database().descriptor(i).unwrap().to_vec())
        .collect();

    let mut stats = BatchStats::new();
    let direct_knn = engine.knn_batch(&queries, 5, 1, &mut stats).unwrap();
    for (q, want) in queries.iter().zip(&direct_knn) {
        let got = client.knn(q, 5, 0, 1.0).unwrap();
        assert_hits_match(&got, want, "knn");
    }

    let mut stats = BatchStats::new();
    let direct_range = engine.range_batch(&queries, 0.4, 1, &mut stats).unwrap();
    for (q, want) in queries.iter().zip(&direct_range) {
        let got = client.range(q, 0.4, 0).unwrap();
        assert_hits_match(&got, want, "range");
    }

    let ids: Vec<u64> = (0..8).collect();
    let mut stats = BatchStats::new();
    let direct_by_id = engine.knn_batch_by_ids(&ids, 3, 1, &mut stats).unwrap();
    for (&id, want) in ids.iter().zip(&direct_by_id) {
        let got = client.knn_by_id(id as usize, 3, 0, 1.0).unwrap();
        assert_hits_match(&got, want, "knn_by_id");
    }

    let snap = handle.shutdown();
    assert_eq!(snap.requests, 16 + 16 + 8);
    assert_eq!(snap.executed, 16 + 16 + 8);
    assert_eq!(snap.shed, 0);
    assert!(snap.batches >= 1);
    assert!(snap.distance_computations > 0);
}

#[test]
fn concurrent_pipelined_clients_get_correct_ordered_replies() {
    let engine = engine(48, IndexKind::VpTree);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            max_batch: 16,
            max_delay: Duration::from_micros(300),
            ..SchedulerConfig::default()
        },
    );
    let addr = handle.local_addr();

    let n_clients = 4;
    let per_client = 40;
    let window = 8;
    std::thread::scope(|scope| {
        for c in 0..n_clients {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let queries: Vec<Vec<f32>> = (0..per_client)
                    .map(|i| {
                        engine
                            .database()
                            .descriptor((c * 11 + i * 7) % engine.database().len())
                            .unwrap()
                            .to_vec()
                    })
                    .collect();
                let mut stats = BatchStats::new();
                let want = engine.knn_batch(&queries, 4, 1, &mut stats).unwrap();
                let mut client = Client::connect(addr).unwrap();
                for chunk in queries.chunks(window) {
                    for q in chunk {
                        client.send_knn(q, 4, 0, 1.0).unwrap();
                    }
                    client.flush().unwrap();
                    let base = queries
                        .chunks(window)
                        .take_while(|c2| !std::ptr::eq(*c2, chunk))
                        .map(|c2| c2.len())
                        .sum::<usize>();
                    for (j, _) in chunk.iter().enumerate() {
                        let got = client.recv_hits().unwrap();
                        assert_hits_match(&got, &want[base + j], "pipelined knn");
                    }
                }
            });
        }
    });

    let snap = handle.shutdown();
    assert_eq!(snap.requests, (n_clients * per_client) as u64);
    assert_eq!(snap.executed, (n_clients * per_client) as u64);
    // Pipelined concurrent clients must actually coalesce: strictly
    // fewer dispatches than requests.
    assert!(
        snap.batches < snap.executed,
        "no batching happened: {} batches for {} requests",
        snap.batches,
        snap.executed
    );
    let hist_total: u64 = snap.batch_hist.iter().map(|&(_, c)| c).sum();
    assert_eq!(hist_total, snap.batches);
}

#[test]
fn bounded_queue_sheds_with_explicit_overload_reply() {
    // A deliberately expensive engine (linear scan, larger db) with a
    // tiny queue and single-request dispatch: a pipelined flood must
    // overflow admission and be shed explicitly, not stall.
    let engine = engine(4096, IndexKind::Linear);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_cap: 2,
            exec_threads: 1,
            ..SchedulerConfig::default()
        },
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let q = engine.database().descriptor(0).unwrap().to_vec();
    let flood = 200;
    for _ in 0..flood {
        client.send_knn(&q, 10, 0, 1.0).unwrap();
    }
    client.flush().unwrap();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for _ in 0..flood {
        match client.recv_hits() {
            Ok(hits) => {
                assert!(!hits.is_empty());
                ok += 1;
            }
            Err(ClientError::Rejected(Rejection::Overloaded(msg))) => {
                assert!(msg.contains("queue full"), "{msg}");
                shed += 1;
            }
            Err(other) => panic!("unexpected reply: {other}"),
        }
    }
    assert_eq!(ok + shed, flood);
    assert!(shed > 0, "flood never overflowed the bounded queue");
    assert!(ok > 0, "admission control let nothing through");

    let snap = handle.shutdown();
    assert_eq!(snap.shed, shed);
    assert_eq!(snap.executed, ok);
}

#[test]
fn queued_requests_past_their_deadline_get_explicit_expiry() {
    let engine = engine(4096, IndexKind::Linear);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_cap: 1024,
            exec_threads: 1,
            ..SchedulerConfig::default()
        },
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Pipeline enough ~ms-scale queries that late ones sit in the queue
    // well past a 1ms budget.
    let q = engine.database().descriptor(1).unwrap().to_vec();
    let flood = 100;
    for _ in 0..flood {
        client.send_knn(&q, 10, 1_000, 1.0).unwrap();
    }
    client.flush().unwrap();

    let mut executed = 0u64;
    let mut expired = 0u64;
    for _ in 0..flood {
        match client.recv_hits() {
            Ok(_) => executed += 1,
            Err(ClientError::Rejected(Rejection::DeadlineExpired(_))) => expired += 1,
            Err(other) => panic!("unexpected reply: {other}"),
        }
    }
    assert_eq!(executed + expired, flood);
    assert!(expired > 0, "no deadline ever expired under sustained load");

    let snap = handle.shutdown();
    assert_eq!(snap.expired, expired);
}

#[test]
fn per_connection_errors_are_isolated() {
    let engine = engine(32, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let addr = handle.local_addr();

    // A bad request (wrong dim) is answered and the connection survives.
    let mut client = Client::connect(addr).unwrap();
    match client.knn(&[0.5; 3], 2, 0, 1.0) {
        Err(ClientError::Rejected(Rejection::Error(msg))) => {
            assert!(msg.contains("dim"), "{msg}")
        }
        other => panic!("expected dim error, got {other:?}"),
    }
    let good = engine.database().descriptor(0).unwrap().to_vec();
    assert!(!client.knn(&good, 2, 0, 1.0).unwrap().is_empty());

    match client.knn_by_id(10_000, 2, 0, 1.0) {
        Err(ClientError::Rejected(Rejection::Error(msg))) => {
            assert!(msg.contains("not in database"), "{msg}")
        }
        other => panic!("expected id error, got {other:?}"),
    }

    // A garbage byte stream kills only its own connection...
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"this is not a CBIRRPC1 frame at all....")
            .unwrap();
        raw.flush().unwrap();
        // The server answers with an error frame, then closes.
        let mut buf = Vec::new();
        let _ = raw.read_to_end(&mut buf);
        assert!(!buf.is_empty(), "no error reply before close");
    }

    // ...while existing and new connections keep working.
    assert!(!client.knn(&good, 2, 0, 1.0).unwrap().is_empty());
    let mut fresh = Client::connect(addr).unwrap();
    assert!(fresh.ping().is_ok());

    handle.shutdown();
}

#[test]
fn client_shutdown_drains_pipelined_work_then_acks_in_order() {
    let engine = engine(64, IndexKind::VpTree);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            ..SchedulerConfig::default()
        },
    );
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let q = engine.database().descriptor(3).unwrap().to_vec();
    let in_flight = 30;
    for _ in 0..in_flight {
        client.send_knn(&q, 5, 0, 1.0).unwrap();
    }
    // Shutdown rides the same pipeline, queued behind the 30 requests:
    // every admitted request must be answered with hits, in order,
    // before the ack arrives.
    client.send_shutdown().unwrap();
    client.flush().unwrap();
    for i in 0..in_flight {
        let hits = client
            .recv_hits()
            .unwrap_or_else(|e| panic!("pipelined request {i} not answered before ack: {e}"));
        assert!(!hits.is_empty());
    }
    client
        .recv_shutdown_ack()
        .expect("shutdown ack after drained work");
    // Wait for full teardown before inspecting counters.
    let snap = handle.join();
    assert_eq!(snap.executed, in_flight, "admitted work was not drained");
    assert_eq!(snap.queue_depth, 0);
}

#[test]
fn requests_after_shutdown_are_refused_explicitly() {
    let engine = engine(32, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let addr = handle.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let q = engine.database().descriptor(0).unwrap().to_vec();
    assert!(!a.knn(&q, 2, 0, 1.0).unwrap().is_empty());

    // b asks for shutdown; a's read half is closed by the server, so a
    // subsequent request on a fails at the transport (its write may
    // succeed into the socket buffer, but no reply will come) — while
    // the server never silently drops anything it admitted.
    b.shutdown().unwrap();
    let snap = handle.join();
    assert_eq!(snap.executed, 1);

    // Connection torn down — explicit at the transport level.
    assert!(
        a.knn(&q, 2, 0, 1.0).is_err(),
        "server answered after shutdown completed"
    );
}

#[test]
fn live_store_mutations_over_rpc() {
    let dir = std::env::temp_dir().join(format!("cbir-e2e-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let store = CorpusStore::create(
        &dir,
        pipeline,
        false,
        StoreOptions::new(IndexKind::VpTree, Measure::L1),
    )
    .unwrap();
    let descs = cbir_workload::histograms(20, 16, 1.0, 7);
    let handle = Server::spawn_corpus(
        ServedCorpus::Live(Arc::clone(&store)),
        "127.0.0.1:0",
        SchedulerConfig::default(),
    )
    .expect("spawn server");
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Empty store pings as empty, then grows with each acked insert.
    assert_eq!(client.ping().unwrap().0, 0);
    for (i, d) in descs.iter().enumerate() {
        let (id, epoch) = client
            .insert(&format!("live-{i:03}"), Some((i % 3) as u32), d)
            .unwrap();
        assert_eq!(id, i as u64);
        assert!(epoch >= 1);
    }
    assert_eq!(client.ping().unwrap().0, 20);

    // Queries see the inserted rows, and hits match the store's own
    // snapshot bit-for-bit.
    let got = client.knn(&descs[0], 5, 0, 1.0).unwrap();
    let mut stats = BatchStats::new();
    let want = store
        .snapshot()
        .knn_batch(&[descs[0].clone()], 5, 1, &mut stats)
        .unwrap()
        .remove(0);
    assert_hits_match(&got, &want, "live knn");

    // Delete tombstones the row: it vanishes from results and ping.
    let victim = got[0].id;
    client.delete(victim).unwrap();
    assert_eq!(client.ping().unwrap().0, 19);
    let after = client.knn(&descs[0], 5, 0, 1.0).unwrap();
    assert!(
        after.iter().all(|h| h.id != victim),
        "tombstoned row served"
    );
    // Deleting it again is a per-request error; the connection survives.
    assert!(matches!(
        client.delete(victim),
        Err(ClientError::Rejected(Rejection::Error(_)))
    ));

    // Compaction folds memtable + tombstone into segments and renumbers.
    let (epoch, segments, rows) = client.compact().unwrap();
    assert!(epoch >= 2);
    assert!(segments >= 1);
    assert_eq!(rows, 19);
    assert_eq!(client.ping().unwrap().0, 19);
    let compacted = client.knn(&descs[0], 5, 0, 1.0).unwrap();
    let names: Vec<&str> = compacted.iter().map(|h| h.name.as_str()).collect();
    let want_names: Vec<&str> = after.iter().map(|h| h.name.as_str()).collect();
    assert_eq!(names, want_names, "compaction changed result contents");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_server_refuses_mutations() {
    let engine = engine(16, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let d = engine.database().descriptor(0).unwrap().to_vec();
    for result in [
        client.insert("nope", None, &d).map(|_| ()),
        client.delete(0).map(|_| ()),
        client.compact().map(|_| ()),
    ] {
        match result {
            Err(ClientError::Rejected(Rejection::Error(msg))) => {
                assert!(msg.contains("static"), "{msg}")
            }
            other => panic!("expected static-corpus refusal, got {other:?}"),
        }
    }
    // The connection is still usable for queries afterwards.
    assert!(!client.knn(&d, 3, 0, 1.0).unwrap().is_empty());
    handle.shutdown();
}

#[test]
fn stats_op_reports_live_counters() {
    let engine = engine(32, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let q = engine.database().descriptor(5).unwrap().to_vec();
    for _ in 0..7 {
        client.knn(&q, 3, 0, 1.0).unwrap();
    }
    let snap = client.stats().unwrap();
    assert_eq!(snap.requests, 7);
    assert_eq!(snap.executed, 7);
    assert_eq!(snap.admitted, 7);
    assert!(snap.batches >= 1 && snap.batches <= 7);
    assert!(snap.distance_computations > 0);
    assert_eq!(
        snap.batch_hist.iter().map(|&(_, c)| c).sum::<u64>(),
        snap.batches
    );

    handle.shutdown();
}

#[test]
fn recall_target_one_reply_is_byte_identical_to_exact_over_the_wire() {
    use cbir_server::protocol::{
        encode_request, encode_response, read_frame, write_frame, Request, Response,
    };
    use std::net::TcpStream;

    let engine = engine(64, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();

    let queries: Vec<Vec<f32>> = (0..6)
        .map(|i| engine.database().descriptor(i * 7).unwrap().to_vec())
        .collect();
    let mut stats = BatchStats::new();
    let direct = engine.knn_batch(&queries, 5, 1, &mut stats).unwrap();

    for (q, want) in queries.iter().zip(&direct) {
        // Raw frame exchange: no client-side decode/re-encode in the
        // loop, so this compares the server's actual reply bytes.
        let req = Request::Knn {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: q.clone(),
        };
        write_frame(&mut stream, &encode_request(&req)).unwrap();
        let reply = read_frame(&mut stream).unwrap().expect("reply frame");

        // The exact serving path encodes the engine's ranked hits with
        // both approximate-search counters at zero. A recall target of
        // 1.0 must produce those bytes exactly.
        let hits: Vec<Hit> = want
            .iter()
            .map(|r| Hit {
                id: r.id as u64,
                name: r.name.clone(),
                label: r.label,
                distance: r.distance,
            })
            .collect();
        let exact_payload = encode_response(&Response::Hits {
            hits,
            coarse_candidates: 0,
            rerank_evaluations: 0,
        });
        assert_eq!(
            reply, exact_payload,
            "recall_target=1.0 reply bytes differ from the exact path"
        );
    }

    // Sanity check the contrast: on a corpus the exact filter cannot
    // serve (a vp-tree over 64 rows), an approximate request runs the
    // two-stage path (nonzero counters, coarse stage truncates the
    // candidate set below the 64-row corpus), so its bytes differ.
    let req = Request::Knn {
        k: 5,
        deadline_us: 0,
        recall_target: 0.9,
        descriptor: queries[0].clone(),
    };
    write_frame(&mut stream, &encode_request(&req)).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("reply frame");
    match cbir_server::protocol::decode_response(&reply).unwrap() {
        Response::Hits {
            hits,
            coarse_candidates,
            rerank_evaluations,
        } => {
            assert!(coarse_candidates > 0);
            assert!(rerank_evaluations > 0);
            assert!(rerank_evaluations < 64, "coarse stage pruned the corpus");
            assert_eq!(hits.len(), 5);
            // The query is database row 0 itself: an L1-self-match at
            // distance zero sorts first in any candidate set containing
            // it, and the coarse stage always surfaces the exact query.
            assert_eq!(hits[0].id, 0);
            assert_eq!(hits[0].distance, 0.0);
        }
        other => panic!("expected hits, got {other:?}"),
    }

    drop(stream);
    handle.shutdown();
}

/// On a clustered L1 corpus over the filter's row threshold, the exact
/// filter serves every approximate request: its reply frame — hits and
/// zero counts — is the recall-1.0 frame, byte for byte, at every target,
/// by descriptor and by id, one request at a time and pipelined.
#[test]
fn approximate_replies_the_filter_serves_are_the_exact_frames() {
    use cbir_server::protocol::{encode_request, read_frame, write_frame, Request};
    use std::io::Write;
    use std::net::TcpStream;

    let rows = cbir_workload::clustered_smooth(5000, 16, 78, 10.0, 100.0, 8, 3);
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let mut db = ImageDatabase::new(pipeline);
    for (i, row) in rows.iter().enumerate() {
        let meta = ImageMeta {
            name: format!("row-{i:05}"),
            label: Some((i % 7) as u32),
        };
        db.insert_descriptor(meta, row.clone()).unwrap();
    }
    let engine = Arc::new(QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap());
    let handle = spawn(&engine, SchedulerConfig::default());
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    let mut call = |req: &Request| {
        write_frame(&mut stream, &encode_request(req)).unwrap();
        read_frame(&mut stream).unwrap().expect("reply frame")
    };
    let asked = |recall_target: f32| -> Vec<Request> {
        let knn = cbir_workload::queries(&rows, 8, 5.0, 4).into_iter();
        let knn = knn.map(|descriptor| Request::Knn {
            k: 10,
            deadline_us: 0,
            recall_target,
            descriptor,
        });
        let by_id = [0u64, 7, 2500, 4999].map(|id| Request::KnnById {
            k: 10,
            deadline_us: 0,
            recall_target,
            id,
        });
        knn.chain(by_id).collect()
    };
    let exact: Vec<Vec<u8>> = asked(1.0).iter().map(&mut call).collect();
    for recall_target in [0.5, 0.9, 0.95] {
        let requests = asked(recall_target);
        for (req, want) in requests.iter().zip(&exact) {
            assert_eq!(call(req), *want, "{req:?}");
        }
        // The same requests in one burst, so they batch.
        let mut burst = TcpStream::connect(handle.local_addr()).unwrap();
        let frames: Vec<u8> = requests
            .iter()
            .flat_map(|req| {
                let mut frame = Vec::new();
                write_frame(&mut frame, &encode_request(req)).unwrap();
                frame
            })
            .collect();
        burst.write_all(&frames).unwrap();
        for want in &exact {
            assert_eq!(read_frame(&mut burst).unwrap().expect("reply"), *want);
        }
    }
    let snap = handle.shutdown();
    assert_eq!(snap.executed, 4 * 12 + 3 * 12);
}

#[test]
fn each_server_reports_its_own_event_loop_and_queue_gauges() {
    use cbir_obs::Json;
    let engine = engine(32, IndexKind::Linear);
    let busy = spawn(&engine, SchedulerConfig::default());
    let quiet = spawn(&engine, SchedulerConfig::default());

    // Busy: three connections, one of them pipelining a burst of 8.
    let mut idle: Vec<Client> = (0..2)
        .map(|_| Client::connect(busy.local_addr()).unwrap())
        .collect();
    for c in &mut idle {
        c.ping().unwrap();
    }
    let mut client = Client::connect(busy.local_addr()).unwrap();
    let q = engine.database().descriptor(3).unwrap().to_vec();
    for _ in 0..8 {
        client.send_knn(&q, 3, 0, 1.0).unwrap();
    }
    client.flush().unwrap();
    for _ in 0..8 {
        client.recv_hits().unwrap();
    }
    // Quiet: one connection, one ping.
    let mut lone = Client::connect(quiet.local_addr()).unwrap();
    lone.ping().unwrap();

    let gauges = |c: &mut Client| {
        let doc = Json::parse(&c.obs_stats(false).unwrap()).unwrap();
        let num = |v: Option<&Json>| match v {
            Some(Json::Num(n)) => *n as u64,
            other => panic!("expected a number, got {other:?}"),
        };
        let event_loop = doc.get("event_loop").unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(num(doc.get("queue_depth")), 0, "idle queue");
        // The document's wakeups are this server's own: never more
        // than its own binary counter read just after.
        let wakeups = num(event_loop.get("epoll_wakeups"));
        assert!(wakeups > 0 && wakeups <= stats.epoll_wakeups, "{wakeups}");
        (
            num(event_loop.get("open_conns")),
            num(event_loop.get("max_pipeline_depth")),
        )
    };
    let (busy_conns, busy_depth) = gauges(&mut client);
    let (quiet_conns, quiet_depth) = gauges(&mut lone);
    assert_eq!(busy_conns, 3);
    assert_eq!(quiet_conns, 1);
    assert!(busy_depth >= 2, "pipelined burst: depth {busy_depth}");
    assert!(
        quiet_depth <= 1,
        "one request at a time: depth {quiet_depth}"
    );

    busy.shutdown();
    quiet.shutdown();
}
