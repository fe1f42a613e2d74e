//! Serving-path hardening, end to end over real TCP sockets: panic
//! isolation, idle-connection reaping, torn-client cleanup, transparent
//! client reconnect with backoff, and deadline-bounded retries.

use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine, Ranked};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::BatchStats;
use cbir_server::{
    Client, ClientError, Hit, Rejection, RetryPolicy, RetryingClient, SchedulerConfig, Server,
    ServerHandle,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        assert_eq!(
            g.distance.to_bits(),
            w.distance.to_bits(),
            "{what}: distance bits"
        );
    }
}

#[test]
fn panic_during_execution_poisons_one_request_not_the_server() {
    let engine = engine(48, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let q = engine.database().descriptor(5).unwrap().to_vec();

    // Arm the trap: the next executed request group panics inside the
    // engine call. The server must isolate it to an Error reply.
    handle.trip_panic_trap();
    let err = a.knn(&q, 4, 0, 1.0).expect_err("trapped request must fail");
    match err {
        ClientError::Rejected(Rejection::Error(m)) => {
            assert!(
                m.contains("isolated"),
                "error should say the panic was isolated: {m}"
            );
        }
        other => panic!("expected a per-request Error reply, got {other}"),
    }

    // The poisoned connection is still usable: the panic was confined to
    // that one request, not the connection or the dispatcher.
    let mut stats = BatchStats::new();
    let want = engine
        .knn_batch(std::slice::from_ref(&q), 4, 1, &mut stats)
        .unwrap();
    let got = a
        .knn(&q, 4, 0, 1.0)
        .expect("same connection works after panic");
    assert_hits_match(&got, &want[0], "post-panic same connection");

    // And an unrelated connection is untouched and bit-identical.
    let got = b.knn(&q, 4, 0, 1.0).expect("other connection unaffected");
    assert_hits_match(&got, &want[0], "post-panic other connection");

    // The isolation is visible on the wire counters.
    let snap = b.stats().unwrap();
    assert_eq!(snap.panics_isolated, 1, "one panic must be counted");
    assert_eq!(snap.errors, 1, "the trapped request counts as an error");

    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let engine = engine(24, IndexKind::Linear);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..SchedulerConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut idle = Client::connect(addr).unwrap();
    idle.ping().expect("fresh connection answers");

    // Go quiet for longer than the idle timeout; the server reaps the
    // connection silently (a courtesy frame would desync framing).
    std::thread::sleep(Duration::from_millis(600));

    let err = idle.ping().expect_err("reaped connection must fail");
    assert!(
        matches!(err, ClientError::ConnectionLost(_)),
        "reap surfaces as the typed ConnectionLost, got: {err}"
    );
    assert!(err.is_transient(), "a reaped connection is retryable");

    // A fresh connection still works, and the reap shows up in the
    // io-timeout counter.
    let mut fresh = Client::connect(addr).unwrap();
    fresh.ping().expect("server is still serving");
    let snap = fresh.stats().unwrap();
    assert!(
        snap.io_timeouts >= 1,
        "idle reap must increment io_timeouts, got {}",
        snap.io_timeouts
    );

    handle.shutdown();
}

#[test]
fn torn_client_does_not_disturb_other_connections() {
    let engine = engine(24, IndexKind::VpTree);
    let handle = spawn(&engine, SchedulerConfig::default());
    let addr = handle.local_addr();
    let mut healthy = Client::connect(addr).unwrap();
    let q = engine.database().descriptor(1).unwrap().to_vec();

    // A client that promises a 4096-byte payload, delivers 3 bytes, and
    // vanishes mid-frame (what `cbir rpc-ctl <addr> abort` does).
    let mut torn = std::net::TcpStream::connect(addr).unwrap();
    torn.write_all(b"CBIRRPC1").unwrap();
    torn.write_all(&4096u32.to_le_bytes()).unwrap();
    torn.write_all(&[0xde, 0xad, 0x01]).unwrap();
    torn.flush().unwrap();
    drop(torn);

    // The healthy connection keeps getting correct answers.
    let mut stats = BatchStats::new();
    let want = engine
        .knn_batch(std::slice::from_ref(&q), 3, 1, &mut stats)
        .unwrap();
    for _ in 0..3 {
        let got = healthy
            .knn(&q, 3, 0, 1.0)
            .expect("healthy client still served");
        assert_hits_match(&got, &want[0], "after torn client");
    }

    handle.shutdown();
}

#[test]
fn retrying_client_reconnects_transparently_after_reap() {
    let engine = engine(24, IndexKind::Linear);
    let handle = spawn(
        &engine,
        SchedulerConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..SchedulerConfig::default()
        },
    );
    let addr = handle.local_addr().to_string();

    let mut client = RetryingClient::connect(
        addr,
        RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(8),
            ..RetryPolicy::default()
        },
    )
    .expect("initial connect");

    let q = engine.database().descriptor(2).unwrap().to_vec();
    let mut stats = BatchStats::new();
    let want = engine
        .knn_batch(std::slice::from_ref(&q), 5, 1, &mut stats)
        .unwrap();

    // Let the server reap us, then query anyway: the retry layer must
    // notice the lost connection, reconnect, resend, and return hits
    // bit-identical to a direct engine call.
    std::thread::sleep(Duration::from_millis(600));
    let got = client.knn(&q, 5, 0, 1.0).expect("transparent reconnect");
    assert_hits_match(&got, &want[0], "after transparent reconnect");

    let rstats = client.retry_stats();
    assert!(
        rstats.retries >= 1,
        "the resend must be counted: {rstats:?}"
    );
    assert!(
        rstats.reconnects >= 1,
        "the fresh connection must be counted: {rstats:?}"
    );

    handle.shutdown();
}

#[test]
fn retry_honors_the_caller_deadline() {
    // A port with nothing listening: every connect is refused, which is
    // transient, so only the deadline can stop the retry loop early.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let mut client = RetryingClient::new_disconnected(
        addr,
        RetryPolicy {
            max_retries: 50,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
            ..RetryPolicy::default()
        },
    );
    let started = Instant::now();
    // 50 retries at 50..400ms backoff would take > 10 s; a 60 ms
    // deadline must cut the loop off at the first backoff that would
    // overrun it.
    let err = client
        .knn(&[0.0; 16], 3, 60_000, 1.0)
        .expect_err("dead server must fail");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline must bound the retry loop, took {elapsed:?}"
    );
    assert!(
        err.is_transient() || matches!(err, ClientError::Rejected(_)),
        "surfaced error reflects the transient failure or the expired deadline: {err}"
    );
}

// ---------------------------------------------------------------------
// Failover-path classification, end to end: the three failure shapes a
// scatter-gather router leans on when it moves a request to a sibling
// replica — backend down at connect, a connection killed mid-stream,
// and a backend shedding with Overloaded — must surface as *transient*
// errors that the retry layer rides out.

/// A hand-rolled CBIRRPC1 backend for failure injection: answers pings,
/// sheds the first `shed` search requests with `Overloaded`, then
/// serves a canned hit list. Runs until the listener is dropped.
fn spawn_shedding_backend(
    shed: usize,
    canned: Vec<Hit>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use cbir_server::protocol::{
        decode_request, encode_response, read_frame, write_frame, Request, Response,
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut remaining = shed;
        for stream in listener.incoming().take(4) {
            let Ok(stream) = stream else { break };
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(Some(payload)) = read_frame(&mut reader) {
                let resp = match decode_request(&payload) {
                    Ok(Request::Ping) => Response::Pong { db_len: 1, dim: 16 },
                    Ok(Request::Knn { .. }) => {
                        if remaining > 0 {
                            remaining -= 1;
                            Response::Overloaded("synthetic shed".into())
                        } else {
                            Response::Hits {
                                hits: canned.clone(),
                                coarse_candidates: 0,
                                rerank_evaluations: 0,
                            }
                        }
                    }
                    _ => Response::Error("unsupported in fake".into()),
                };
                if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                    break;
                }
                let _ = std::io::Write::flush(&mut writer);
            }
        }
    });
    (addr, handle)
}

#[test]
fn backend_down_at_connect_is_ridden_out_by_the_retry_layer() {
    // Reserve an address, leave it dead, and bring the real backend up
    // on it only after the client has started retrying — the "replica
    // not up yet / just restarted" arm of router failover.
    let engine = engine(16, IndexKind::Linear);
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let late = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(250));
            Server::spawn_shared(engine, addr, SchedulerConfig::default()).expect("late spawn")
        })
    };

    let mut client = RetryingClient::new_disconnected(
        addr.to_string(),
        RetryPolicy {
            max_retries: 60,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
    );
    let q = engine.database().descriptor(2).unwrap().to_vec();
    let mut stats = BatchStats::new();
    let want = engine
        .knn_batch(std::slice::from_ref(&q), 3, 1, &mut stats)
        .unwrap();
    let got = client
        .knn(&q, 3, 0, 1.0)
        .expect("retry loop must outlast the dead-connect window");
    assert_hits_match(&got, &want[0], "after late backend start");
    assert!(
        client.retry_stats().retries >= 1,
        "the refused connects must have been retried: {:?}",
        client.retry_stats()
    );
    late.join().unwrap().shutdown();
}

#[test]
fn overload_shedding_is_transient_and_retried_until_admitted() {
    let canned = vec![
        Hit {
            id: 3,
            name: "img-3".into(),
            label: Some(1),
            distance: 0.25,
        },
        Hit {
            id: 9,
            name: "img-9".into(),
            label: None,
            distance: 0.25,
        },
    ];
    let (addr, fake) = spawn_shedding_backend(2, canned.clone());
    let mut client = RetryingClient::connect(
        addr.to_string(),
        RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
    )
    .expect("fake backend answers the connect ping");

    // Two sheds, then admission: the Overloaded replies are classified
    // transient and resent on the SAME connection (an explicit reply
    // leaves the stream in sync — no reconnect needed).
    let got = client
        .knn(&[0.0; 16], 2, 0, 1.0)
        .expect("retried past shed");
    assert_eq!(got.len(), canned.len());
    for (g, w) in got.iter().zip(&canned) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.distance.to_bits(), w.distance.to_bits());
    }
    let rstats = client.retry_stats();
    assert!(rstats.retries >= 2, "both sheds retried: {rstats:?}");
    assert_eq!(rstats.reconnects, 0, "shed must not burn the connection");
    drop(client);
    drop(fake); // listener thread ends with its accept budget
}

#[test]
fn connection_killed_mid_stream_reconnects_and_resends() {
    use cbir_server::protocol::{encode_response, read_frame, write_frame, Response};
    // First connection: answer the connect ping, then hang up without
    // replying to the search — the client has a request on the wire
    // when the stream dies (a crashing replica, mid-conversation).
    // Second connection: serve the canned reply.
    let canned = Response::Hits {
        hits: vec![Hit {
            id: 1,
            name: "img-1".into(),
            label: None,
            distance: 0.5,
        }],
        coarse_candidates: 0,
        rerank_evaluations: 0,
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = {
        let canned = canned.clone();
        std::thread::spawn(move || {
            // Connection 1: ping answered, then abrupt close on the
            // first search frame.
            let (s, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
            let mut writer = s;
            let _ = read_frame(&mut reader); // ping
            let _ = write_frame(
                &mut writer,
                &encode_response(&Response::Pong { db_len: 1, dim: 16 }),
            );
            let _ = std::io::Write::flush(&mut writer);
            let _ = read_frame(&mut reader); // the search request...
            drop(reader); // ...dies unanswered: close BOTH halves so the
            drop(writer); // client sees EOF, not a stalled stream

            // Connection 2: the resend gets a real reply.
            let (s, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
            let mut writer = s;
            let _ = read_frame(&mut reader);
            let _ = write_frame(&mut writer, &encode_response(&canned));
            let _ = std::io::Write::flush(&mut writer);
        })
    };

    let mut client = RetryingClient::connect(
        addr.to_string(),
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..RetryPolicy::default()
        },
    )
    .expect("connect ping");
    let got = client
        .knn(&[0.0; 16], 1, 0, 1.0)
        .expect("mid-stream loss must be survived by reconnect + resend");
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].id, 1);
    let rstats = client.retry_stats();
    assert!(rstats.retries >= 1, "{rstats:?}");
    assert!(
        rstats.reconnects >= 1,
        "a lost stream must be replaced, not resynchronized: {rstats:?}"
    );
    fake.join().unwrap();
}

/// Wire-fault classification: a client living behind a chaos proxy must
/// classify each failure shape (late replies, torn replies, black holes)
/// as the retry and failover layers expect — a server that shifted a
/// torn reply from `ConnectionLost` to `Protocol` would break failover.
#[test]
fn chaos_faults_classify_as_the_retry_layer_expects() {
    use cbir_server::{ChaosProxy, WireMode};

    fn classify(r: &Result<Vec<Hit>, ClientError>) -> &'static str {
        match r {
            Ok(_) => "answered",
            Err(ClientError::ConnectionLost(_)) => "connection-lost",
            Err(ClientError::Io(_)) => "io",
            Err(ClientError::Protocol(_)) => "protocol",
            Err(ClientError::Rejected(_)) => "rejected",
        }
    }

    let engine = engine(32, IndexKind::VpTree);
    let server = spawn(&engine, SchedulerConfig::default());
    let query = engine.database().descriptor(0).unwrap().to_vec();
    let mut stats = BatchStats::new();
    let direct = engine
        .knn_batch(std::slice::from_ref(&query), 3, 1, &mut stats)
        .unwrap();

    let modes: [(WireMode, &str); 3] = [
        // Late but intact: answered, and answered correctly.
        (WireMode::Delay(Duration::from_millis(30)), "answered"),
        // Reply torn mid-frame: the peer vanished, a transient loss.
        (
            WireMode::TornReply {
                seed: 11,
                max_prefix: 6,
            },
            "connection-lost",
        ),
        // Accepted, read, never answered: the client's read times out.
        (WireMode::BlackHole, "io"),
    ];

    for (mode, want) in modes {
        let proxy = ChaosProxy::spawn(server.local_addr().to_string(), mode.clone(), "127.0.0.1:0")
            .expect("spawn chaos proxy");
        let mut client = Client::connect_timeout(proxy.local_addr(), Duration::from_millis(750))
            .expect("connect through proxy");
        let got = client.knn(&query, 3, 0, 1.0);
        assert_eq!(classify(&got), want, "{mode:?} misclassified: {got:?}");
        match &got {
            Ok(hits) => assert_hits_match(hits, &direct[0], "through a delaying proxy"),
            Err(e) => assert!(e.is_transient(), "{mode:?}: {e} must stay retryable"),
        }
        drop(client);
        proxy.shutdown();
    }

    server.shutdown();
}
