//! Reply bytes over real sockets against bytes built here from direct
//! [`QueryEngine`] calls: a mixed stream pipelined and one connection per
//! request, a storm of a thousand concurrent connections, and the
//! read-your-write order a mutation barrier gives one connection.

use cbir_core::{
    CorpusStore, ImageDatabase, ImageMeta, IndexKind, QueryEngine, Ranked, ServedCorpus,
    StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use cbir_server::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
};
use cbir_server::scheduler::ranked_to_hits;
use cbir_server::{SchedulerConfig, Server};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 16;
const K: usize = 8;

fn pipeline() -> Pipeline {
    let bins = DIM as u32;
    Pipeline::new(
        bins,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins })],
    )
    .unwrap()
}

fn engine(n: usize) -> Arc<QueryEngine> {
    let mut db = ImageDatabase::new(pipeline());
    for (i, v) in cbir_workload::histograms(n, DIM, 1.0, 42)
        .into_iter()
        .enumerate()
    {
        let meta = ImageMeta {
            name: format!("img-{i:05}"),
            label: Some((i % 7) as u32),
        };
        db.insert_descriptor(meta, v).unwrap();
    }
    Arc::new(QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap())
}

fn frame_of(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &encode_request(request)).unwrap();
    frame
}

/// The payload an exact-path hit list must arrive as.
fn hits_payload(ranked: Vec<Ranked>) -> Vec<u8> {
    encode_response(&Response::Hits {
        hits: ranked_to_hits(ranked),
        coarse_candidates: 0,
        rerank_evaluations: 0,
    })
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

#[test]
fn mixed_stream_replies_are_the_bytes_direct_engine_calls_encode_to() {
    let engine = engine(64);
    let db = engine.database();
    let d = |i: usize| db.descriptor(i).unwrap().to_vec();
    let requests = [
        Request::Ping,
        Request::Knn {
            k: K as u32,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: d(0),
        },
        Request::KnnById {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            id: 3,
        },
        Request::Range {
            radius: 0.4,
            deadline_us: 0,
            descriptor: d(1),
        },
        Request::GetDescriptor { id: 2 },
        Request::Delete { id: 2 }, // refused: the corpus is static
        Request::Ping,
    ];
    let mut stats = BatchStats::new();
    let pong = encode_response(&Response::Pong {
        db_len: db.len() as u64,
        dim: DIM as u32,
    });
    let want = [
        pong.clone(),
        hits_payload(
            engine
                .knn_batch(&[d(0)], K, 1, &mut stats)
                .unwrap()
                .remove(0),
        ),
        hits_payload(
            engine
                .knn_batch_by_ids(&[3], 5, 1, &mut stats)
                .unwrap()
                .remove(0),
        ),
        hits_payload(
            engine
                .range_batch(&[d(1)], 0.4, 1, &mut stats)
                .unwrap()
                .remove(0),
        ),
        encode_response(&Response::Descriptor { descriptor: d(2) }),
        encode_response(&Response::Error(
            "server is serving a static database; mutations require serving a segment store \
             (serve --mmap)"
                .into(),
        )),
        pong,
    ];

    let handle = Server::spawn_shared(
        Arc::clone(&engine),
        "127.0.0.1:0",
        SchedulerConfig::default(),
    )
    .unwrap();
    let addr = handle.local_addr();
    let burst = pipelined(addr, &requests);
    for (i, request) in requests.iter().enumerate() {
        assert_eq!(burst[i], want[i], "request {i} pipelined: {request:?}");
        let alone = pipelined(addr, std::slice::from_ref(request)).remove(0);
        assert_eq!(alone, want[i], "request {i} on its own connection");
    }
    handle.shutdown();
}

/// Connections the storm may hold: two descriptors each (both ends live
/// in this process) under the soft `RLIMIT_NOFILE`, less room for the
/// harness and the tests running beside this one.
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
fn storm_of_concurrent_connections_gets_every_reply_byte_exact() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 8;
    const POOL: usize = 256;
    let engine = engine(2048);
    let frames: Vec<Vec<u8>> = (0..POOL as u64)
        .map(|id| {
            frame_of(&Request::KnnById {
                k: K as u32,
                deadline_us: 0,
                recall_target: 1.0,
                id,
            })
        })
        .collect();
    let ids: Vec<u64> = (0..POOL as u64).collect();
    let mut stats = BatchStats::new();
    let want: Vec<Vec<u8>> = engine
        .knn_batch_by_ids(&ids, K, 1, &mut stats)
        .unwrap()
        .into_iter()
        .map(hits_payload)
        .collect();

    let per_thread = storm_conns() / THREADS;
    let config = SchedulerConfig {
        queue_cap: 4096, // every connection in flight at once, none shed
        ..SchedulerConfig::default()
    };
    let handle = Server::spawn_shared(engine, "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();
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
                        let pick = |c: usize| (t * per_thread + c + round * 7919) % POOL;
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
    let snap = handle.shutdown();
    let sent = (THREADS * per_thread * ROUNDS) as u64;
    assert_eq!(diverging, 0, "of {sent} replies");
    assert_eq!((snap.executed, snap.shed, snap.errors), (sent, 0, 0));
}

/// An `Insert` and, without waiting for its ack, a ping and a k-NN for
/// the inserted descriptor on the same connection: the mutation is a
/// dispatch barrier, so both replies must already show the row sent just
/// ahead of them — the ping, answered inline on the loop thread, is the
/// one that would overtake an insert still on its way to the worker.
#[test]
fn a_query_pipelined_behind_an_insert_sees_the_inserted_row() {
    let dir = std::env::temp_dir().join(format!("cbir-wire-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions::new(IndexKind::VpTree, Measure::L1);
    let store = CorpusStore::create(&dir, pipeline(), false, options).unwrap();
    let handle = Server::spawn_corpus(
        ServedCorpus::Live(store),
        "127.0.0.1:0",
        SchedulerConfig::default(),
    )
    .unwrap();

    let rows = cbir_workload::histograms(24, DIM, 1.0, 7);
    let requests: Vec<Request> = rows
        .iter()
        .enumerate()
        .flat_map(|(i, d)| {
            [
                Request::Insert {
                    name: format!("live-{i:03}"),
                    label: None,
                    descriptor: d.clone(),
                },
                Request::Ping,
                Request::Knn {
                    k: 1,
                    deadline_us: 0,
                    recall_target: 1.0,
                    descriptor: d.clone(),
                },
            ]
        })
        .collect();
    let replies = pipelined(handle.local_addr(), &requests);
    for (i, triple) in replies.chunks(3).enumerate() {
        let id = match decode_response(&triple[0]).unwrap() {
            Response::InsertAck { id, .. } => id,
            other => panic!("insert {i}: {other:?}"),
        };
        match decode_response(&triple[1]).unwrap() {
            Response::Pong { db_len, .. } => {
                assert_eq!(db_len, i as u64 + 1, "ping {i} ran ahead of its insert")
            }
            other => panic!("ping {i}: {other:?}"),
        }
        match decode_response(&triple[2]).unwrap() {
            Response::Hits { hits, .. } => {
                assert_eq!(hits[0].id, id, "query {i} ran ahead of its insert");
                assert_eq!(hits[0].distance, 0.0);
            }
            other => panic!("query {i}: {other:?}"),
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
