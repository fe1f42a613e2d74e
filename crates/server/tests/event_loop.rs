//! Deterministic connection-level harness for the connection loop.
//!
//! No sockets, no threads, no epoll: a scripted transport hands the
//! [`Connection`] state machine exact byte chunks (with `WouldBlock`s and
//! EOFs wherever the script says), and requests dispatch through the
//! [`Service`] trait — a node's own [`NodeService`], whose scheduler runs
//! admitted work synchronously through its `drain_queued` test hook and
//! whose mutation worker the harness plays itself, or a scripted fake
//! service that holds every reply until the test fills it. That makes
//! every interesting interleaving — a frame split at any byte boundary,
//! a partial write wedged mid-length-prefix, replies completing out of
//! request order — exactly reproducible.

use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine, ServedCorpus};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_server::conn::{control_response, dispatch_ready, is_mutation, ReadStatus, WriteStatus};
use cbir_server::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request, Response,
};
use cbir_server::{
    Completions, Connection, Metrics, NodeService, ReplyCell, Scheduler, SchedulerConfig, Service,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scripted readiness episode on the read side.
enum ReadStep {
    /// `read()` returns these bytes (possibly fewer than asked).
    Chunk(Vec<u8>),
    /// `read()` returns `WouldBlock` — the socket drained.
    Drained,
    /// `read()` returns 0 — the peer closed.
    Eof,
}

/// A transport whose readiness is a script, not a kernel.
struct Scripted {
    reads: VecDeque<ReadStep>,
    /// Byte budgets for successive `write()` calls; `0` means the call
    /// would block. Exhausted budgets accept everything.
    write_budgets: VecDeque<usize>,
    written: Vec<u8>,
}

impl Scripted {
    fn new() -> Scripted {
        Scripted {
            reads: VecDeque::new(),
            write_budgets: VecDeque::new(),
            written: Vec::new(),
        }
    }

    fn script_read(mut self, step: ReadStep) -> Scripted {
        self.reads.push_back(step);
        self
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.reads.front_mut() {
                None => return Err(ErrorKind::WouldBlock.into()),
                Some(ReadStep::Eof) => return Ok(0),
                Some(ReadStep::Drained) => {
                    self.reads.pop_front();
                    return Err(ErrorKind::WouldBlock.into());
                }
                // An exhausted (or scripted-empty) chunk moves on to the
                // next step — a 0-byte read here would read as EOF.
                Some(ReadStep::Chunk(bytes)) if bytes.is_empty() => {
                    self.reads.pop_front();
                }
                Some(ReadStep::Chunk(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    bytes.drain(..n);
                    if bytes.is_empty() {
                        self.reads.pop_front();
                    }
                    return Ok(n);
                }
            }
        }
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let budget = self.write_budgets.pop_front().unwrap_or(usize::MAX);
        if budget == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = budget.min(buf.len());
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Deterministic engine over `n` synthetic histogram descriptors.
fn engine(n: usize) -> Arc<QueryEngine> {
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
    Arc::new(QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap())
}

/// A node's service over `engine`, with the receiving end of its
/// mutation queue: the harness stands in for the mutation worker.
struct Node {
    scheduler: Arc<Scheduler>,
    service: NodeService,
    mutations: Receiver<(Request, Arc<ReplyCell>)>,
}

impl Node {
    /// Run every offloaded mutation, as the worker would; how many ran.
    fn run_mutations(&self) -> usize {
        let mut ran = 0;
        while let Ok((req, cell)) = self.mutations.try_recv() {
            cell.fill(control_response(&self.scheduler, req));
            ran += 1;
        }
        ran
    }
}

fn node(engine: &Arc<QueryEngine>) -> Node {
    let scheduler = Arc::new(Scheduler::new(
        ServedCorpus::Static(Arc::clone(engine)),
        SchedulerConfig::default(),
        Arc::new(Metrics::new()),
    ));
    let (tx, mutations) = channel();
    let service = NodeService {
        scheduler: Arc::clone(&scheduler),
        mutations: tx,
    };
    Node {
        scheduler,
        service,
        mutations,
    }
}

/// Wire bytes of a request stream, as a client would send it.
fn stream_of(requests: &[Request]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in requests {
        write_frame(&mut bytes, &encode_request(r)).unwrap();
    }
    bytes
}

/// Drive one connection over a scripted transport to quiescence: read,
/// dispatch, execute everything the scheduler admitted, pump, write.
/// Returns the reply bytes the "peer" observed.
fn run_to_quiescence(io: &mut Scripted, node: &Node) -> (Connection, Vec<u8>) {
    let now = Instant::now();
    let completions = Arc::new(Completions::new());
    let mut conn = Connection::new(0, now);
    let mut scratch = [0u8; 11]; // deliberately tiny and prime-sized
    loop {
        match conn.read_from(io, &mut scratch, now) {
            ReadStatus::Open => {}
            ReadStatus::Eof => conn.close_read(),
            ReadStatus::Corrupt(e) => conn.set_corrupt(e),
            ReadStatus::Gone => panic!("scripted transport never dies"),
        }
        // Dispatch until quiescent, standing in for the mutation worker
        // synchronously: a completed mutation clears its barrier, so
        // dispatch must re-run to release the frames queued behind it.
        loop {
            dispatch_ready(&mut conn, &node.service, &completions);
            if node.run_mutations() == 0 {
                break;
            }
        }
        // Stand in for the dispatcher thread, synchronously.
        node.scheduler.drain_queued();
        let _ = completions.drain();
        conn.pump();
        assert_eq!(conn.write_to(io, now), WriteStatus::Open);
        if conn.read_closed() || io.reads.is_empty() {
            // Settle any replies completed by the final drain.
            conn.pump();
            assert_eq!(conn.write_to(io, now), WriteStatus::Open);
            break;
        }
    }
    let written = std::mem::take(&mut io.written);
    (conn, written)
}

/// Reference reply bytes: the same requests answered one at a time, in
/// order, with no pipelining and no split boundaries.
fn sequential_reference(requests: &[Request], node: &Node) -> Vec<u8> {
    let mut all = Vec::new();
    for r in requests {
        let mut io = Scripted::new()
            .script_read(ReadStep::Chunk(stream_of(std::slice::from_ref(r))))
            .script_read(ReadStep::Eof);
        let (_, written) = run_to_quiescence(&mut io, node);
        all.extend(written);
    }
    all
}

/// A representative pipelined request mix: control ops, queries of both
/// shapes, and a mutation (refused on a static corpus, but still a
/// barriered op exercising the offload path).
fn request_mix(engine: &QueryEngine) -> Vec<Request> {
    let d0 = engine.database().descriptor(0).unwrap().to_vec();
    let d3 = engine.database().descriptor(3).unwrap().to_vec();
    vec![
        Request::Ping,
        Request::KnnById {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            id: 7,
        },
        Request::Knn {
            k: 3,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: d0,
        },
        Request::Delete { id: 2 },
        Request::Range {
            radius: 0.4,
            deadline_us: 0,
            descriptor: d3,
        },
        Request::KnnById {
            k: 2,
            deadline_us: 0,
            recall_target: 1.0,
            id: 11,
        },
        Request::GetDescriptor { id: 5 },
    ]
}

#[test]
fn every_byte_boundary_split_replays_bit_identically() {
    let engine = engine(32);
    let node = node(&engine);
    let requests = request_mix(&engine);
    let bytes = stream_of(&requests);
    let want = sequential_reference(&requests, &node);

    for split in 0..=bytes.len() {
        let mut io = Scripted::new()
            .script_read(ReadStep::Chunk(bytes[..split].to_vec()))
            .script_read(ReadStep::Drained)
            .script_read(ReadStep::Chunk(bytes[split..].to_vec()))
            .script_read(ReadStep::Eof);
        let (conn, written) = run_to_quiescence(&mut io, &node);
        assert!(conn.finished(), "split {split}: connection not drained");
        assert_eq!(
            written,
            want,
            "split at byte {split}/{} changed the reply bytes",
            bytes.len()
        );
    }
}

#[test]
fn one_byte_drip_and_full_coalesce_replay_bit_identically() {
    let engine = engine(32);
    let node = node(&engine);
    let requests = request_mix(&engine);
    let bytes = stream_of(&requests);
    let want = sequential_reference(&requests, &node);

    // Worst case: every read returns one byte, with a drained socket
    // between every pair.
    let mut drip = Scripted::new();
    for &b in &bytes {
        drip = drip
            .script_read(ReadStep::Chunk(vec![b]))
            .script_read(ReadStep::Drained);
    }
    let mut drip = drip.script_read(ReadStep::Eof);
    let (_, written) = run_to_quiescence(&mut drip, &node);
    assert_eq!(written, want, "1-byte drip changed the reply bytes");

    // Best case: the whole pipelined burst lands in one readiness event.
    let mut coalesced = Scripted::new()
        .script_read(ReadStep::Chunk(bytes))
        .script_read(ReadStep::Eof);
    let (_, written) = run_to_quiescence(&mut coalesced, &node);
    assert_eq!(written, want, "coalesced burst changed the reply bytes");
}

#[test]
fn partial_writes_at_every_byte_boundary_flush_identical_bytes() {
    // Three replies of distinct sizes queued at once, then flushed
    // through every possible first-write cutoff with a WouldBlock after
    // each: the cursor must resume exactly where the transport stopped.
    let replies = [
        Response::Pong { db_len: 9, dim: 16 },
        Response::Error("an error reply of some length".into()),
        Response::ShutdownAck,
    ];
    let mut want = Vec::new();
    for r in &replies {
        write_frame(&mut want, &encode_response(r)).unwrap();
    }

    for cut in 0..=want.len() {
        let now = Instant::now();
        let mut conn = Connection::new(0, now);
        for r in &replies {
            conn.push_ready(r.clone());
        }
        assert_eq!(conn.pump(), replies.len());

        let mut io = Scripted::new();
        // A zero-byte cutoff is already a blocked first write; a larger
        // one writes `cut` bytes and then blocks.
        io.write_budgets = if cut == 0 {
            VecDeque::from(vec![0])
        } else {
            VecDeque::from(vec![cut, 0])
        };
        assert_eq!(conn.write_to(&mut io, now), WriteStatus::Open);
        assert_eq!(io.written.len(), cut, "cutoff {cut} wrote past budget");
        assert_eq!(conn.wants_write(), cut < want.len());

        // Readiness returns: the rest must flush and match bit-for-bit.
        assert_eq!(conn.write_to(&mut io, now), WriteStatus::Open);
        assert!(!conn.wants_write());
        assert_eq!(io.written, want, "cutoff {cut} corrupted the stream");
    }
}

#[test]
fn shuffled_completion_order_still_replies_in_request_order() {
    // Claim N pipelined cells, complete them in a deterministically
    // shuffled order, and pump after every completion: nothing may be
    // encoded until the head finishes, and the final bytes must equal
    // the in-order reference for every rotation of the shuffle.
    let n = 9usize;
    let replies: Vec<Response> = (0..n)
        .map(|i| Response::Error(format!("reply-{i}")))
        .collect();
    let mut want = Vec::new();
    for r in &replies {
        write_frame(&mut want, &encode_response(r)).unwrap();
    }

    for rotation in 0..n {
        let now = Instant::now();
        let mut conn = Connection::new(0, now);
        let cells: Vec<Arc<ReplyCell>> = (0..n).map(|_| conn.push_cell(None)).collect();
        assert_eq!(conn.max_inflight(), n);

        // A fixed permutation (multiplicative stride over Z/nZ), rotated.
        let order: Vec<usize> = (0..n).map(|i| ((i + rotation) * 4) % n).collect();
        let mut done = vec![false; n];
        let mut io = Scripted::new();
        for &idx in &order {
            cells[idx].fill(replies[idx].clone());
            done[idx] = true;
            conn.pump();
            assert_eq!(conn.write_to(&mut io, now), WriteStatus::Open);
            // Exactly the contiguous done-prefix may be on the wire.
            let prefix = done.iter().take_while(|&&d| d).count();
            let mut expect = Vec::new();
            for r in &replies[..prefix] {
                write_frame(&mut expect, &encode_response(r)).unwrap();
            }
            assert_eq!(
                io.written, expect,
                "rotation {rotation}: replies left out of request order"
            );
        }
        assert_eq!(io.written, want, "rotation {rotation}: final bytes differ");
        assert_eq!(conn.inflight_len(), 0);
    }
}

#[test]
fn pipelined_burst_through_the_scheduler_matches_sequential_execution() {
    // The full event-path flow — burst in, batch execution completing
    // cells in whatever order the scheduler groups them, head-of-line
    // pump out — must be bit-identical to the same requests answered one
    // at a time.
    let engine = engine(48);
    let node = node(&engine);
    let requests: Vec<Request> = (0..24)
        .map(|i| Request::KnnById {
            k: 4,
            deadline_us: 0,
            recall_target: 1.0,
            id: (i * 5 % 48) as u64,
        })
        .collect();
    let want = sequential_reference(&requests, &node);

    let mut io = Scripted::new()
        .script_read(ReadStep::Chunk(stream_of(&requests)))
        .script_read(ReadStep::Eof);
    let (conn, written) = run_to_quiescence(&mut io, &node);
    assert_eq!(
        conn.max_inflight(),
        requests.len(),
        "burst did not pipeline"
    );
    assert_eq!(written, want, "pipelined replies differ from sequential");
}

#[test]
fn torn_streams_report_the_blocking_readers_exact_errors() {
    // Truncate a two-frame stream at every byte: EOF at a frame boundary
    // is a clean close; EOF anywhere else must produce exactly the error
    // reply the blocking `read_frame` path would have produced.
    let engine = engine(16);
    let node = node(&engine);
    let requests = vec![
        Request::Ping,
        Request::KnnById {
            k: 2,
            deadline_us: 0,
            recall_target: 1.0,
            id: 3,
        },
    ];
    let bytes = stream_of(&requests);
    let boundaries = [0usize, {
        let mut one = Vec::new();
        write_frame(&mut one, &encode_request(&requests[0])).unwrap();
        one.len()
    }];

    for cut in 0..bytes.len() {
        let mut io = Scripted::new()
            .script_read(ReadStep::Chunk(bytes[..cut].to_vec()))
            .script_read(ReadStep::Eof);
        let (conn, written) = run_to_quiescence(&mut io, &node);
        assert!(conn.finished(), "cut {cut}: not drained");

        // Oracle: the blocking reader over the same truncated bytes.
        let mut oracle = std::io::Cursor::new(bytes[..cut].to_vec());
        let mut oracle_err = None;
        loop {
            match read_frame(&mut oracle) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    oracle_err = Some(format!("malformed frame: {e}"));
                    break;
                }
            }
        }

        if boundaries.contains(&cut) {
            assert!(oracle_err.is_none());
            continue; // clean EOF; replies (if any) already compared above
        }
        let err = oracle_err.expect("mid-frame cut must error in the oracle");
        let mut reader = std::io::Cursor::new(written);
        let mut last = None;
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            last = Some(cbir_server::protocol::decode_response(&frame).unwrap());
        }
        match last {
            Some(Response::Error(msg)) => {
                assert_eq!(msg, err, "cut {cut}: error text differs from blocking path")
            }
            other => panic!("cut {cut}: expected trailing error reply, got {other:?}"),
        }
    }
}

#[test]
fn mutation_barrier_holds_later_frames_until_the_worker_finishes() {
    let engine = engine(16);
    let node = node(&engine);
    let completions = Arc::new(Completions::new());
    let now = Instant::now();
    let mut conn = Connection::new(0, now);

    let requests = vec![
        Request::Delete { id: 1 }, // refused on a static corpus, but barriered
        Request::Ping,
        Request::Ping,
    ];
    let mut io = Scripted::new()
        .script_read(ReadStep::Chunk(stream_of(&requests)))
        .script_read(ReadStep::Drained);
    let mut scratch = [0u8; 64];
    assert!(matches!(
        conn.read_from(&mut io, &mut scratch, now),
        ReadStatus::Open
    ));

    assert!(!dispatch_ready(&mut conn, &node.service, &completions));
    // The two pings must NOT have dispatched past the barrier: exactly
    // one cell (the mutation's) is in flight and nothing is writable.
    assert_eq!(conn.inflight_len(), 1);
    assert_eq!(conn.pump(), 0);

    // Worker finishes; the barrier clears and the pings dispatch.
    assert_eq!(node.run_mutations(), 1, "mutation not offloaded");
    assert!(!dispatch_ready(&mut conn, &node.service, &completions));
    assert_eq!(node.run_mutations(), 0, "no further mutations");
    assert_eq!(conn.inflight_len(), 3);
    assert_eq!(conn.pump(), 3, "barrier did not release queued frames");

    assert_eq!(conn.write_to(&mut io, now), WriteStatus::Open);
    let kinds = replies_in(std::mem::take(&mut io.written));
    assert!(matches!(kinds[0], Response::Error(ref m) if m.contains("static")));
    assert!(matches!(kinds[1], Response::Pong { .. }));
    assert!(matches!(kinds[2], Response::Pong { .. }));
}

/// Every reply frame in `bytes`, decoded.
fn replies_in(bytes: Vec<u8>) -> Vec<Response> {
    let mut reader = std::io::Cursor::new(bytes);
    let mut replies = Vec::new();
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        replies.push(decode_response(&frame).unwrap());
    }
    replies
}

/// A scripted fake service that answers nothing itself: every request
/// claims a cell the test fills later, mutations as barriers — the shape
/// of a service that hands all of its work to other threads.
#[derive(Default)]
struct Deferred {
    held: RefCell<Vec<(Request, Arc<ReplyCell>)>>,
    metrics: Metrics,
}

impl Service for Deferred {
    fn dispatch(
        &self,
        conn: &mut Connection,
        completions: &Arc<Completions>,
        request: Request,
    ) -> Option<Arc<ReplyCell>> {
        let cell = conn.push_cell(Some(Arc::clone(completions)));
        let barrier = is_mutation(&request).then(|| Arc::clone(&cell));
        self.held.borrow_mut().push((request, cell));
        barrier
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
        (None, None)
    }

    fn begin_shutdown(&self) {}
}

#[test]
fn a_deferring_service_is_answered_in_request_order_behind_its_barrier() {
    let requests = vec![
        Request::Ping,
        Request::GetDescriptor { id: 4 },
        Request::Compact,
        Request::Stats,
        Request::Delete { id: 9 },
        Request::Shutdown,
        Request::Ping, // behind the shutdown: never dispatched
    ];
    let service = Deferred::default();
    let completions = Arc::new(Completions::new());
    let now = Instant::now();
    let mut conn = Connection::new(7, now);
    let mut io = Scripted::new().script_read(ReadStep::Chunk(stream_of(&requests)));
    assert!(matches!(
        conn.read_from(&mut io, &mut [0u8; 64], now),
        ReadStatus::Open
    ));
    let fill = |i: usize| {
        let held = service.held.borrow();
        held[i].1.fill(Response::Error(format!("reply-{i}")));
    };

    // Up to and including the first barrier; completions out of order.
    assert!(!dispatch_ready(&mut conn, &service, &completions));
    assert_eq!(service.held.borrow().len(), 3);
    fill(1);
    assert_eq!(conn.pump(), 0, "reply 1 overtook reply 0");
    fill(0);
    assert_eq!(conn.pump(), 2);
    assert!(!dispatch_ready(&mut conn, &service, &completions));
    assert_eq!(
        service.held.borrow().len(),
        3,
        "dispatched past the barrier"
    );

    // The barrier clears: the next barrier holds again, then the
    // shutdown is acknowledged in its place and ends dispatch.
    fill(2);
    assert!(!dispatch_ready(&mut conn, &service, &completions));
    assert_eq!(service.held.borrow().len(), 5);
    fill(4);
    assert!(dispatch_ready(&mut conn, &service, &completions));
    fill(3);
    assert_eq!(conn.pump(), 4);
    assert_eq!(conn.write_to(&mut io, now), WriteStatus::Open);
    assert!(conn.finished());

    let held: Vec<Request> = service.held.take().into_iter().map(|(r, _)| r).collect();
    assert_eq!(held, requests[..5], "the service saw other requests");
    let mut want: Vec<Response> = (0..5)
        .map(|i| Response::Error(format!("reply-{i}")))
        .collect();
    want.push(Response::ShutdownAck);
    assert_eq!(replies_in(io.written), want);
    // Every deferred fill woke the loop for this connection's token.
    assert_eq!(completions.drain(), vec![7; 5]);
}

#[test]
fn shutdown_frame_stops_dispatch_and_acks_after_prior_replies() {
    let engine = engine(16);
    let node = node(&engine);
    let requests = vec![
        Request::KnnById {
            k: 3,
            deadline_us: 0,
            recall_target: 1.0,
            id: 1,
        },
        Request::Shutdown,
        Request::Ping, // must never be answered
    ];
    let mut io = Scripted::new()
        .script_read(ReadStep::Chunk(stream_of(&requests)))
        .script_read(ReadStep::Drained);
    let (conn, written) = run_to_quiescence(&mut io, &node);
    assert!(conn.read_closed(), "shutdown did not stop dispatch");

    let mut reader = std::io::Cursor::new(written);
    let mut replies = Vec::new();
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        replies.push(cbir_server::protocol::decode_response(&frame).unwrap());
    }
    assert_eq!(replies.len(), 2, "frame after shutdown was answered");
    assert!(matches!(replies[0], Response::Hits { .. }));
    assert!(matches!(replies[1], Response::ShutdownAck));
}
