//! Transport-agnostic connection state for every server in the tier.
//!
//! The epoll loop (`crate::event_loop`) and the deterministic test
//! harness both drive the same [`Connection`] state machine: incremental
//! frame reassembly in, an in-order queue of single-use reply cells out,
//! partial writes tracked by a cursor. Nothing here touches a socket —
//! the transport is any `Read`/`Write` pair — which is what lets the
//! harness replay arbitrary byte-boundary splits, partial writes, and
//! completion interleavings without real I/O.
//!
//! What a decoded request *does* is a [`Service`]'s business: a node's
//! ([`NodeService`]) or the router's. Framing, reply order, the mutation
//! barrier and the corrupt-stream reply are the same for both.
//!
//! ## Reply ordering
//!
//! Every request — including rejections and control ops — claims exactly
//! one [`ReplyCell`] in arrival order *before* the next frame is
//! dispatched. Compute may finish cells in any order (that is the point
//! of pipelining), but [`Connection::pump`] only encodes the head of the
//! queue once it is done, so responses leave in request order.

use crate::metrics::Metrics;
pub use crate::protocol::is_mutation;
use crate::protocol::{
    decode_request, encode_response, write_frame, FrameDecoder, Request, Response, Stat,
    MAX_FRAME_LEN,
};
use crate::scheduler::{Pending, Scheduler};
use cbir_core::ImageMeta;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Completion mailbox shared by every connection on one event loop.
///
/// Compute threads (the dispatcher, mutation workers) finish a
/// [`ReplyCell`] and post its connection token here; the loop drains the
/// mailbox on its next wakeup and pumps exactly those connections. The
/// one-byte waker write is collapsed by the `signaled` flag so a burst
/// of completions costs one syscall, not one per reply.
#[derive(Debug, Default)]
pub struct Completions {
    ready: Mutex<Vec<u64>>,
    signaled: AtomicBool,
    waker: Mutex<Option<UnixStream>>,
}

impl Completions {
    /// A mailbox with no waker (the deterministic harness polls).
    pub fn new() -> Completions {
        Completions::default()
    }

    /// Attach the write end of the loop's waker pipe.
    pub fn set_waker(&self, w: UnixStream) {
        *self.waker.lock().expect("waker lock") = Some(w);
    }

    /// Post a completion for connection `token` and wake the loop if it
    /// has not already been signaled since its last drain.
    pub fn notify(&self, token: u64) {
        self.ready.lock().expect("completions lock").push(token);
        if !self.signaled.swap(true, Ordering::AcqRel) {
            if let Some(w) = self.waker.lock().expect("waker lock").as_mut() {
                // A full pipe means a wakeup is already pending: fine.
                let _ = w.write(&[1u8]);
            }
        }
    }

    /// Take every posted token. Clearing `signaled` *before* taking the
    /// vector means a completion racing this drain either lands in the
    /// taken batch or re-signals — never gets lost.
    pub fn drain(&self) -> Vec<u64> {
        self.signaled.store(false, Ordering::Release);
        std::mem::take(&mut *self.ready.lock().expect("completions lock"))
    }
}

/// A single-use reply slot owned by one connection, completed by one
/// compute thread. Filling it never blocks and never fails: a cell whose
/// connection died first is simply never read.
#[derive(Debug)]
pub struct ReplyCell {
    token: u64,
    slot: Mutex<Option<Response>>,
    done: AtomicBool,
    completions: Option<Arc<Completions>>,
}

impl ReplyCell {
    /// Store the response and (if attached) wake the owning loop.
    pub fn fill(&self, resp: Response) {
        *self.slot.lock().expect("reply slot lock") = Some(resp);
        self.done.store(true, Ordering::Release);
        if let Some(c) = &self.completions {
            c.notify(self.token);
        }
    }

    /// Whether the response has been stored.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub(crate) fn take(&self) -> Option<Response> {
        if !self.is_done() {
            return None;
        }
        self.slot.lock().expect("reply slot lock").take()
    }
}

/// What a readiness-driven read pass concluded about the stream.
#[derive(Debug)]
pub enum ReadStatus {
    /// Socket drained (would block); the connection stays open.
    Open,
    /// Peer closed cleanly at a frame boundary.
    Eof,
    /// The stream is corrupt (bad magic, oversized frame, or EOF inside
    /// a frame): answer with this error — phrased exactly as
    /// [`crate::protocol::read_frame`] phrases it — then stop reading.
    Corrupt(std::io::Error),
    /// Transport failure (reset, aborted): close silently.
    Gone,
}

/// How far a flush pass got.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteStatus {
    /// Everything buffered so far is on the wire (or the socket would
    /// block; check [`Connection::wants_write`]).
    Open,
    /// Transport failure: close the connection.
    Gone,
}

/// Per-connection state machine: frame reassembly in, ordered replies
/// out. Transport-agnostic; see the module docs.
#[derive(Debug)]
pub struct Connection {
    token: u64,
    decoder: FrameDecoder,
    frames: VecDeque<Vec<u8>>,
    inflight: VecDeque<Arc<ReplyCell>>,
    /// A dispatched-but-unfinished mutation; no later frame on this
    /// connection may dispatch past it, so a request sent after a
    /// mutation on the same connection always observes it.
    barrier: Option<Arc<ReplyCell>>,
    /// Error text of a corrupt-stream reply still owed to the peer. It
    /// queues *after* every frame reassembled before the corruption:
    /// those frames arrived intact and are answered first.
    corrupt: Option<String>,
    outbuf: Vec<u8>,
    out_at: usize,
    read_closed: bool,
    last_activity: Instant,
    last_progress: Instant,
    max_inflight: usize,
}

impl Connection {
    /// Fresh connection state; `token` identifies it in the loop's table
    /// and in completion notifications.
    pub fn new(token: u64, now: Instant) -> Connection {
        Connection {
            token,
            decoder: FrameDecoder::new(),
            frames: VecDeque::new(),
            inflight: VecDeque::new(),
            barrier: None,
            corrupt: None,
            outbuf: Vec::new(),
            out_at: 0,
            read_closed: false,
            last_activity: now,
            last_progress: now,
            max_inflight: 0,
        }
    }

    /// Read until the transport would block (or ends), feeding every
    /// chunk through the frame decoder. Completed frames queue up for
    /// [`Connection::next_frame`].
    pub fn read_from<T: Read>(
        &mut self,
        io: &mut T,
        scratch: &mut [u8],
        now: Instant,
    ) -> ReadStatus {
        loop {
            match io.read(scratch) {
                Ok(0) => {
                    return if self.decoder.at_boundary() {
                        ReadStatus::Eof
                    } else {
                        ReadStatus::Corrupt(self.decoder.eof_error())
                    };
                }
                Ok(n) => {
                    self.last_activity = now;
                    let mut at = 0;
                    while at < n {
                        match self.decoder.feed(&scratch[at..n]) {
                            Ok((used, frame)) => {
                                at += used;
                                if let Some(f) = frame {
                                    self.frames.push_back(f);
                                }
                            }
                            Err(e) => return ReadStatus::Corrupt(e),
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return ReadStatus::Open,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return ReadStatus::Gone,
            }
        }
    }

    /// Pop the next completely reassembled, not-yet-dispatched frame.
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        self.frames.pop_front()
    }

    /// Drop frames that were reassembled but will never dispatch (the
    /// connection is closing).
    pub fn discard_frames(&mut self) {
        self.frames.clear();
    }

    /// Claim the next in-order reply cell. Pass the loop's completion
    /// mailbox when a compute thread fills the cell later; `None` for a
    /// cell the caller fills immediately.
    pub fn push_cell(&mut self, completions: Option<Arc<Completions>>) -> Arc<ReplyCell> {
        let cell = Arc::new(ReplyCell {
            token: self.token,
            slot: Mutex::new(None),
            done: AtomicBool::new(false),
            completions,
        });
        self.inflight.push_back(Arc::clone(&cell));
        self.max_inflight = self.max_inflight.max(self.inflight.len());
        cell
    }

    /// Claim a cell and fill it in one step (inline control replies).
    pub fn push_ready(&mut self, resp: Response) {
        let cell = self.push_cell(None);
        cell.fill(resp);
    }

    /// Encode every completed head-of-line reply into the output buffer,
    /// preserving request order; a reply over [`MAX_FRAME_LEN`] goes out
    /// as a [`Response::Error`] naming its size. Returns how many replies
    /// were encoded.
    pub fn pump(&mut self) -> usize {
        let mut encoded = 0;
        while let Some(head) = self.inflight.front() {
            let Some(resp) = head.take() else { break };
            self.inflight.pop_front();
            let mut payload = encode_response(&resp);
            // A reply the peer's reader would refuse as a corrupt stream
            // is answered with this request's error instead.
            if payload.len() > MAX_FRAME_LEN {
                payload = encode_response(&Response::Error(format!(
                    "reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
                    payload.len()
                )));
            }
            write_frame(&mut self.outbuf, &payload).expect("Vec<u8> writes are infallible");
            encoded += 1;
        }
        encoded
    }

    /// Flush the output buffer as far as the transport allows, tracking
    /// the partial-write cursor across calls.
    pub fn write_to<T: Write>(&mut self, io: &mut T, now: Instant) -> WriteStatus {
        while self.out_at < self.outbuf.len() {
            match io.write(&self.outbuf[self.out_at..]) {
                Ok(0) => return WriteStatus::Gone,
                Ok(n) => {
                    self.out_at += n;
                    self.last_progress = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteStatus::Open,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return WriteStatus::Gone,
            }
        }
        self.outbuf.clear();
        self.out_at = 0;
        self.last_progress = now;
        WriteStatus::Open
    }

    /// Whether flushed-but-unwritten bytes remain (EPOLLOUT interest).
    pub fn wants_write(&self) -> bool {
        self.out_at < self.outbuf.len()
    }

    /// Requests dispatched but not yet encoded onto the wire.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// High-water mark of concurrently in-flight requests (pipeline
    /// depth) over the connection's lifetime.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Stop reading from this connection (EOF, idle reap, or server
    /// drain). Frames already reassembled still dispatch — every
    /// complete frame received before an EOF is answered — and in-flight
    /// replies still complete and flush. Callers that must
    /// also abandon undispatched frames (drain, reap) follow up with
    /// [`Connection::discard_frames`].
    pub fn close_read(&mut self) {
        self.read_closed = true;
    }

    /// Record a torn/garbled stream: reading stops now, and the error
    /// reply — `malformed frame:` plus the framing error's text — is owed
    /// to the peer *after* the frames reassembled ahead of the corruption
    /// (queued by the next [`dispatch_ready`] pass).
    pub fn set_corrupt(&mut self, e: std::io::Error) {
        self.corrupt = Some(format!("malformed frame: {e}"));
        self.read_closed = true;
    }

    /// Whether reading has stopped.
    pub fn read_closed(&self) -> bool {
        self.read_closed
    }

    /// Fully drained: reading stopped, every claimed reply delivered,
    /// no error reply still owed, nothing left to flush. The loop closes
    /// the socket at this point.
    pub fn finished(&self) -> bool {
        self.read_closed
            && self.inflight.is_empty()
            && self.frames.is_empty()
            && self.corrupt.is_none()
            && !self.wants_write()
    }

    /// How long since the peer last delivered bytes (idle-reap clock).
    pub fn idle_for(&self, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_activity)
    }

    /// How long since a flush last made progress while output is
    /// pending; `None` when nothing is waiting to flush
    /// (write-stall clock).
    pub fn stalled_for(&self, now: Instant) -> Option<Duration> {
        self.wants_write()
            .then(|| now.saturating_duration_since(self.last_progress))
    }
}

/// The request-handling side of a connection loop: what one server does
/// with a decoded request. Two implement it — a node ([`NodeService`])
/// and the router — and [`dispatch_ready`] drives both the same way.
pub trait Service {
    /// Claim `request`'s reply cell on `conn`: [`Connection::push_ready`]
    /// to answer inline, or [`Connection::push_cell`] with `completions`
    /// for a cell another thread fills. Return that cell when no later
    /// frame on this connection may dispatch until it is filled (a
    /// mutation barrier). `Shutdown` never gets here: [`dispatch_ready`]
    /// acknowledges it itself.
    fn dispatch(
        &self,
        conn: &mut Connection,
        completions: &Arc<Completions>,
        request: Request,
    ) -> Option<Arc<ReplyCell>>;

    /// The counters the loop reports into: wakeups, open connections,
    /// pipeline depth, reaped peers.
    fn metrics(&self) -> &Metrics;

    /// Idle-reap and write-stall bounds for every connection; `None`
    /// disables either.
    fn timeouts(&self) -> (Option<Duration>, Option<Duration>);

    /// The loop started its graceful drain: stop taking new work.
    fn begin_shutdown(&self);
}

/// Dispatch every reassembled frame that is allowed to run, in arrival
/// order, stopping at a mutation barrier, a malformed frame, or a
/// shutdown op. `true` when a `Shutdown` was acknowledged and the caller
/// drains the whole server. Both the epoll loop and the deterministic
/// harness call this.
pub fn dispatch_ready(
    conn: &mut Connection,
    service: &impl Service,
    completions: &Arc<Completions>,
) -> bool {
    loop {
        if let Some(b) = &conn.barrier {
            if !b.is_done() {
                return false;
            }
            conn.barrier = None;
        }
        let Some(payload) = conn.next_frame() else {
            // Every frame ahead of a stream corruption has been
            // answered; now the owed error reply takes its in-order
            // place behind them.
            if let Some(msg) = conn.corrupt.take() {
                conn.push_ready(Response::Error(msg));
            }
            return false;
        };
        let (reply, shutdown) = match decode_request(&payload) {
            Ok(Request::Shutdown) => (Response::ShutdownAck, true),
            Ok(request) => {
                conn.barrier = service.dispatch(conn, completions, request);
                continue;
            }
            Err(e) => (Response::Error(format!("malformed request: {e}")), false),
        };
        // Nothing after a shutdown or a malformed request is trusted:
        // drop the later frames (and any corruption they contained). A
        // malformed request closes only this connection.
        conn.push_ready(reply);
        conn.close_read();
        conn.discard_frames();
        conn.corrupt = None;
        return shutdown;
    }
}

/// A node's request handling: queries into the micro-batch
/// [`Scheduler`], control ops answered inline on the loop thread, and
/// mutations handed to the mutation worker behind a barrier, so a
/// compaction never runs on the loop thread.
pub struct NodeService {
    /// Admits the queries; control ops read its corpus.
    pub scheduler: Arc<Scheduler>,
    /// Where mutation ops go: the worker on the other end fills each
    /// cell with [`control_response`].
    pub mutations: Sender<(Request, Arc<ReplyCell>)>,
}

impl Service for NodeService {
    fn dispatch(
        &self,
        conn: &mut Connection,
        completions: &Arc<Completions>,
        request: Request,
    ) -> Option<Arc<ReplyCell>> {
        if is_mutation(&request) {
            let cell = conn.push_cell(Some(Arc::clone(completions)));
            let _ = self.mutations.send((request, Arc::clone(&cell)));
            return Some(cell);
        }
        let Some(deadline_us) = request.deadline_us() else {
            conn.push_ready(control_response(&self.scheduler, request));
            return None;
        };
        let now = Instant::now();
        self.scheduler.submit(Pending {
            request,
            deadline: (deadline_us > 0).then(|| now + Duration::from_micros(deadline_us)),
            enqueued: now,
            reply: conn.push_cell(Some(Arc::clone(completions))),
        });
        None
    }

    fn metrics(&self) -> &Metrics {
        self.scheduler.metrics()
    }

    fn timeouts(&self) -> (Option<Duration>, Option<Duration>) {
        let cfg = self.scheduler.config();
        (cfg.idle_timeout, cfg.write_timeout)
    }

    fn begin_shutdown(&self) {
        self.scheduler.begin_shutdown();
    }
}

/// Answer a control or mutation op against the scheduler's corpus: on
/// the loop thread for reads, on the mutation worker for mutations.
pub fn control_response(scheduler: &Scheduler, req: Request) -> Response {
    let metrics = scheduler.metrics();
    match req {
        Request::Ping => {
            let view = scheduler.corpus().pin();
            Response::Pong {
                db_len: view.len() as u64,
                dim: view.dim() as u32,
            }
        }
        Request::Stats => Response::Stats(metrics.snapshot(scheduler.queue_depth())),
        Request::ObsStats { prometheus } => {
            let snap = metrics.obs_snapshot(scheduler.queue_depth());
            Response::ObsText(if prometheus {
                cbir_obs::to_prometheus(&snap)
            } else {
                cbir_obs::to_json(&snap).render()
            })
        }
        Request::Explain => {
            let traces = metrics.registry().enter(cbir_obs::traces);
            Response::ObsText(cbir_obs::traces_to_json(&traces).render())
        }
        Request::Shutdown => Response::ShutdownAck,
        // Mutations take the store's writer lock, publish a new
        // snapshot, and ack. Queries already admitted keep executing
        // against their pinned (pre-mutation) snapshots.
        Request::Insert {
            name,
            label,
            descriptor,
        } => match scheduler.corpus().store() {
            None => static_corpus_error(),
            Some(store) => match store.insert(ImageMeta { name, label }, descriptor) {
                Ok(id) => Response::InsertAck {
                    id,
                    epoch: store.snapshot().epoch(),
                },
                Err(e) => {
                    metrics.count(Stat::Errors);
                    Response::Error(e.to_string())
                }
            },
        },
        Request::Delete { id } => match scheduler.corpus().store() {
            None => static_corpus_error(),
            Some(store) => match store.delete(id) {
                Ok(()) => Response::DeleteAck {
                    epoch: store.snapshot().epoch(),
                },
                Err(e) => {
                    metrics.count(Stat::Errors);
                    Response::Error(e.to_string())
                }
            },
        },
        Request::Compact => match scheduler.corpus().store() {
            None => static_corpus_error(),
            Some(store) => match store.compact() {
                Ok(stats) => Response::CompactAck {
                    epoch: stats.epoch,
                    segments: stats.segments as u32,
                    rows: stats.rows,
                },
                Err(e) => {
                    metrics.count(Stat::Errors);
                    Response::Error(e.to_string())
                }
            },
        },
        // Row fetch runs inline: a point read against a pinned view.
        Request::GetDescriptor { id } => match scheduler.corpus().pin().descriptor(id) {
            Ok(descriptor) => Response::Descriptor { descriptor },
            Err(e) => {
                metrics.count(Stat::Errors);
                Response::Error(e.to_string())
            }
        },
        query => unreachable!("queries go through the scheduler, got {query:?}"),
    }
}

/// The refusal every mutation op gets when the server fronts an
/// immutable offline-built engine instead of a live segment store.
pub(crate) fn static_corpus_error() -> Response {
    Response::Error(
        "server is serving a static database; mutations require serving a segment store \
         (serve --mmap)"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, read_frame, Hit};

    #[test]
    fn a_reply_over_the_frame_cap_goes_out_as_its_requests_error() {
        let now = Instant::now();
        let mut conn = Connection::new(0, now);
        let hit = Hit {
            id: 0,
            name: String::new(),
            label: None,
            distance: 0.0,
        };
        // 1 + 4 + 17 × 1,000,000 + 16 bytes: over the 16 MiB cap.
        conn.push_ready(Response::Hits {
            hits: vec![hit; 1_000_000],
            coarse_candidates: 0,
            rerank_evaluations: 0,
        });
        conn.push_ready(Response::Pong { db_len: 1, dim: 2 });
        assert_eq!(conn.pump(), 2);
        let mut wire = Vec::new();
        assert_eq!(conn.write_to(&mut wire, now), WriteStatus::Open);
        let mut stream = std::io::Cursor::new(wire);
        let mut next = || decode_response(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        assert_eq!(
            next(),
            Response::Error("reply of 17000021 bytes exceeds the 16777216-byte frame limit".into())
        );
        // The stream stays in sync: the next reply reads as itself.
        assert_eq!(next(), Response::Pong { db_len: 1, dim: 2 });
    }
}
