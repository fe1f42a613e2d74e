//! **F17 — epoll event-loop serving: wire fidelity and connection scale.**
//!
//! The blocking engine spends two OS threads per connection; the epoll
//! engine multiplexes every connection onto one readiness-driven loop
//! feeding the same micro-batch scheduler. This experiment pins down the
//! two claims that justify the second engine:
//!
//! 1. **Wire fidelity.** Reply frames are bit-identical to the blocking
//!    engine's — for a mixed pipelined request stream and sequentially,
//!    frame payload for frame payload. Asserted before any timing, and
//!    again for every reply received during the storm (each storm reply
//!    is byte-compared against a blocking-engine reference).
//! 2. **Connection scale.** A storm of 1024 concurrent connections, each
//!    with a request in flight, completes with zero corrupted replies;
//!    client-observed p50/p99 latency is reported. A 256-connection leg
//!    runs against both engines to report the throughput ratio.
//!
//! Writes `results/BENCH_epoll_serving.json`.
//!
//! Run: `cargo run --release -p cbir-bench --bin exp_epoll_serving [--quick]`

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("F17 exercises the epoll engine (linux/x86_64 only); skipping");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    imp::main();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use cbir_bench::Table;
    use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine, ServedCorpus};
    use cbir_distance::Measure;
    use cbir_features::{FeatureSpec, Pipeline, Quantizer};
    use cbir_server::protocol::{
        decode_response, encode_request, read_frame, write_frame, Request, Response,
    };
    use cbir_server::{EventLoopConfig, SchedulerConfig, Server, ServerHandle};
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    const DIM: usize = 64;
    const K: usize = 8;
    const STORM_THREADS: usize = 16;
    const STORM_CONNS_PER_THREAD: usize = 64; // 1024 concurrent connections
    const RATIO_CONNS_PER_THREAD: usize = 16; // 256 concurrent connections

    fn engine(n: usize) -> Arc<QueryEngine> {
        let pipeline = Pipeline::new(
            DIM as u32,
            vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
                bins: DIM as u32,
            })],
        )
        .expect("static pipeline");
        let mut db = ImageDatabase::new(pipeline);
        for (i, v) in cbir_workload::histograms(n, DIM, 1.0, 42)
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
            .expect("insert descriptor");
        }
        // VP-tree keeps per-query compute small so the measurement
        // isolates the connection layer, not the scan kernel (F9 covers
        // that axis).
        Arc::new(QueryEngine::build(db, IndexKind::VpTree, Measure::L1).expect("build engine"))
    }

    fn sched() -> SchedulerConfig {
        SchedulerConfig {
            max_batch: 64,
            max_delay: Duration::from_micros(200),
            queue_cap: 4096,
            exec_threads: std::thread::available_parallelism().map_or(1, |t| t.get()),
            ..SchedulerConfig::default()
        }
    }

    fn spawn_blocking(engine: &Arc<QueryEngine>) -> ServerHandle {
        Server::spawn_shared(Arc::clone(engine), "127.0.0.1:0", sched()).expect("spawn blocking")
    }

    fn spawn_event(engine: &Arc<QueryEngine>) -> ServerHandle {
        Server::spawn_event_corpus(
            ServedCorpus::Static(Arc::clone(engine)),
            "127.0.0.1:0",
            sched(),
            EventLoopConfig::default(),
        )
        .expect("spawn event")
    }

    /// Send every request down one connection in a single pipelined
    /// burst, then collect the reply frame payloads in order.
    fn pipelined_payloads(addr: SocketAddr, requests: &[Request]) -> Vec<Vec<u8>> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut burst = Vec::new();
        for r in requests {
            write_frame(&mut burst, &encode_request(r)).expect("encode");
        }
        stream.write_all(&burst).expect("send burst");
        (0..requests.len())
            .map(|_| read_frame(&mut stream).expect("read").expect("reply"))
            .collect()
    }

    /// One fresh connection per request: the unpipelined reference.
    fn sequential_payloads(addr: SocketAddr, requests: &[Request]) -> Vec<Vec<u8>> {
        requests
            .iter()
            .map(|r| pipelined_payloads(addr, std::slice::from_ref(r)).remove(0))
            .collect()
    }

    /// Frame-level bit-identity gate: a deterministic mixed stream must
    /// produce byte-identical reply payloads from both engines, whether
    /// pipelined or issued one connection per request.
    fn assert_wire_identity(engine: &Arc<QueryEngine>) {
        let d = |i: usize| engine.database().descriptor(i).unwrap().to_vec();
        let requests = vec![
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
            Request::Knn {
                k: 1,
                deadline_us: 0,
                recall_target: 1.0,
                descriptor: d(2),
            },
            Request::KnnById {
                k: K as u32,
                deadline_us: 0,
                recall_target: 1.0,
                id: 0,
            },
            Request::Ping,
        ];
        let blocking = spawn_blocking(engine);
        let event = spawn_event(engine);
        let want = pipelined_payloads(blocking.local_addr(), &requests);
        let got_pipelined = pipelined_payloads(event.local_addr(), &requests);
        let got_sequential = sequential_payloads(event.local_addr(), &requests);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(
                *w, got_pipelined[i],
                "request {i}: pipelined epoll reply diverges from blocking"
            );
            assert_eq!(
                *w, got_sequential[i],
                "request {i}: sequential epoll reply diverges from blocking"
            );
        }
        blocking.shutdown();
        event.shutdown();
    }

    /// Precompute the request frames and their blocking-engine reply
    /// payloads for a pool of by-id queries; every storm reply is
    /// byte-compared against this reference.
    fn reference_replies(
        engine: &Arc<QueryEngine>,
        pool_size: usize,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let blocking = spawn_blocking(engine);
        let mut stream = TcpStream::connect(blocking.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut frames = Vec::with_capacity(pool_size);
        let mut replies = Vec::with_capacity(pool_size);
        for id in 0..pool_size {
            let req = Request::KnnById {
                k: K as u32,
                deadline_us: 0,
                recall_target: 1.0,
                id: id as u64,
            };
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_request(&req)).expect("encode");
            stream.write_all(&frame).expect("send");
            let payload = read_frame(&mut stream).expect("read").expect("reply");
            frames.push(frame);
            replies.push(payload);
        }
        match decode_response(&replies[0]).expect("decode reference") {
            Response::Hits { hits, .. } => assert_eq!(hits.len(), K, "reference reply shape"),
            other => panic!("reference reply is not Hits: {other:?}"),
        }
        blocking.shutdown();
        (frames, replies)
    }

    struct StormOutcome {
        qps: f64,
        p50_us: u64,
        p99_us: u64,
        corrupted: u64,
    }

    /// Hold `threads * conns_per_thread` connections open concurrently,
    /// each with one request in flight per round; byte-compare every
    /// reply against the blocking-engine reference.
    fn storm(
        addr: SocketAddr,
        threads: usize,
        conns_per_thread: usize,
        rounds: usize,
        frames: &[Vec<u8>],
        expected: &[Vec<u8>],
    ) -> StormOutcome {
        let barrier = Arc::new(Barrier::new(threads + 1));
        let start = Arc::new(std::sync::Mutex::new(None::<Instant>));
        let (elapsed, per_thread) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let mut conns: Vec<TcpStream> = (0..conns_per_thread)
                            .map(|_| {
                                let s = TcpStream::connect(addr).expect("connect");
                                s.set_nodelay(true).expect("nodelay");
                                s.set_read_timeout(Some(Duration::from_secs(30)))
                                    .expect("timeout");
                                s
                            })
                            .collect();
                        barrier.wait();
                        let mut lats = Vec::with_capacity(conns_per_thread * rounds);
                        let mut bad = 0u64;
                        let mut sent = vec![(0usize, Instant::now()); conns_per_thread];
                        for round in 0..rounds {
                            for (c, s) in conns.iter_mut().enumerate() {
                                let idx = (t * conns_per_thread + c + round * 7919) % frames.len();
                                s.write_all(&frames[idx]).expect("send");
                                sent[c] = (idx, Instant::now());
                            }
                            for (c, s) in conns.iter_mut().enumerate() {
                                let payload =
                                    read_frame(s).expect("read reply").expect("reply frame");
                                let (idx, at) = sent[c];
                                lats.push(at.elapsed().as_micros() as u64);
                                if payload != expected[idx] {
                                    bad += 1;
                                }
                            }
                        }
                        (lats, bad)
                    })
                })
                .collect();
            barrier.wait();
            *start.lock().unwrap() = Some(Instant::now());
            let per_thread: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let elapsed = start.lock().unwrap().unwrap().elapsed();
            (elapsed, per_thread)
        });
        let mut lats: Vec<u64> = Vec::new();
        let mut corrupted = 0u64;
        for (l, bad) in per_thread {
            lats.extend(l);
            corrupted += bad;
        }
        lats.sort_unstable();
        let pctl = |p: f64| lats[((lats.len() as f64 * p) as usize).min(lats.len() - 1)];
        StormOutcome {
            qps: lats.len() as f64 / elapsed.as_secs_f64(),
            p50_us: pctl(0.50),
            p99_us: pctl(0.99),
            corrupted,
        }
    }

    pub fn main() {
        let quick = std::env::args().any(|a| a == "--quick");
        let n: usize = if quick { 4_096 } else { 50_000 };
        let storm_rounds = if quick { 2 } else { 8 };
        let ratio_rounds = if quick { 4 } else { 32 };
        let storm_conns = STORM_THREADS * STORM_CONNS_PER_THREAD;
        let ratio_conns = STORM_THREADS * RATIO_CONNS_PER_THREAD;

        let engine = engine(n);
        println!(
            "F17: epoll serving, N={n}, d={DIM}, k={K}, storm {storm_conns} conns x \
             {storm_rounds} rounds, ratio leg {ratio_conns} conns x {ratio_rounds} rounds\n"
        );

        assert_wire_identity(&engine);
        println!(
            "wire identity: epoll reply frames bit-identical to blocking (pipelined + sequential)"
        );
        let (frames, expected) = reference_replies(&engine, 256.min(n));
        println!(
            "reference: {} by-id replies captured from the blocking engine\n",
            frames.len()
        );

        // The headline gate: >= 1k concurrent connections, every reply
        // byte-compared against the blocking reference.
        assert!(
            storm_conns >= 1000,
            "storm must hold at least 1k connections"
        );
        let event = spawn_event(&engine);
        let storm_out = storm(
            event.local_addr(),
            STORM_THREADS,
            STORM_CONNS_PER_THREAD,
            storm_rounds,
            &frames,
            &expected,
        );
        event.shutdown();
        assert_eq!(
            storm_out.corrupted, 0,
            "storm produced corrupted replies under {storm_conns} connections"
        );

        // Throughput ratio at a load both engines handle comfortably.
        let blocking = spawn_blocking(&engine);
        let ratio_blocking = storm(
            blocking.local_addr(),
            STORM_THREADS,
            RATIO_CONNS_PER_THREAD,
            ratio_rounds,
            &frames,
            &expected,
        );
        blocking.shutdown();
        let event = spawn_event(&engine);
        let ratio_event = storm(
            event.local_addr(),
            STORM_THREADS,
            RATIO_CONNS_PER_THREAD,
            ratio_rounds,
            &frames,
            &expected,
        );
        event.shutdown();
        assert_eq!(ratio_blocking.corrupted, 0, "blocking ratio leg corrupted");
        assert_eq!(ratio_event.corrupted, 0, "event ratio leg corrupted");
        let ratio = ratio_event.qps / ratio_blocking.qps;

        let mut table = Table::new(&["leg", "engine", "conns", "q/s", "p50-us", "p99-us"]);
        table.row(vec![
            "storm".into(),
            "epoll".into(),
            storm_conns.to_string(),
            format!("{:.0}", storm_out.qps),
            storm_out.p50_us.to_string(),
            storm_out.p99_us.to_string(),
        ]);
        table.row(vec![
            "ratio".into(),
            "blocking".into(),
            ratio_conns.to_string(),
            format!("{:.0}", ratio_blocking.qps),
            ratio_blocking.p50_us.to_string(),
            ratio_blocking.p99_us.to_string(),
        ]);
        table.row(vec![
            "ratio".into(),
            "epoll".into(),
            ratio_conns.to_string(),
            format!("{:.0}", ratio_event.qps),
            ratio_event.p50_us.to_string(),
            ratio_event.p99_us.to_string(),
        ]);
        table.print();
        println!("\nthroughput ratio (epoll / blocking) at {ratio_conns} conns: {ratio:.2}x");
        println!(
            "storm corruption: 0 of {} replies diverged from the blocking reference",
            { storm_conns * storm_rounds }
        );

        if quick {
            // Quick mode exists for the gates; reduced sizes make the
            // timings meaningless, so write nothing.
            println!("\nquick mode: skipping results/BENCH_epoll_serving.json");
            return;
        }
        let json = format!(
            "{{\n  \"experiment\": \"epoll_serving\",\n  \"n\": {n},\n  \"dim\": {DIM},\n  \"k\": {K},\n  \"index\": \"vptree\",\n  \"measure\": \"l1\",\n  \"wire_identity\": \"epoll reply frames bit-identical to blocking, pipelined and sequential\",\n  \"storm\": {{\"conns\": {storm_conns}, \"rounds\": {storm_rounds}, \"qps\": {:.1}, \"latency_p50_us\": {}, \"latency_p99_us\": {}, \"corrupted\": {}}},\n  \"ratio_leg\": {{\"conns\": {ratio_conns}, \"rounds\": {ratio_rounds}, \"blocking_qps\": {:.1}, \"event_qps\": {:.1}, \"blocking_p99_us\": {}, \"event_p99_us\": {}, \"throughput_ratio\": {ratio:.3}}}\n}}\n",
            storm_out.qps,
            storm_out.p50_us,
            storm_out.p99_us,
            storm_out.corrupted,
            ratio_blocking.qps,
            ratio_event.qps,
            ratio_blocking.p99_us,
            ratio_event.p99_us,
        );
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/BENCH_epoll_serving.json", json).expect("write results");
        println!("\nwrote results/BENCH_epoll_serving.json");
    }
}
