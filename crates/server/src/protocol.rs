//! The `CBIRRPC1` wire protocol: length-prefixed little-endian binary
//! frames over a byte stream.
//!
//! Every frame, in both directions, is:
//!
//! ```text
//! [8 bytes magic "CBIRRPC1"] [u32 LE payload length] [payload bytes]
//! ```
//!
//! A request payload is an op tag followed by an op-specific body; a
//! response payload is a status tag followed by a status-specific body.
//! All multi-byte integers and floats are little-endian. Strings are a
//! `u32` byte length followed by UTF-8 bytes. See [`Request`] and
//! [`Response`] for the exact bodies.
//!
//! The format is self-describing enough for per-connection error
//! isolation: a malformed frame produces a [`WireError`] which the server
//! answers with [`Response::Error`] before closing that connection,
//! leaving every other connection untouched.

use cbir_obs::Counters;
use std::io::{Read, Write};

/// Frame magic; doubles as a protocol version stamp.
pub const MAGIC: &[u8; 8] = b"CBIRRPC1";

/// Upper bound on a frame payload (16 MiB); anything larger is treated as
/// a corrupt stream rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Upper bound on a query descriptor's dimensionality on the wire.
pub const MAX_WIRE_DIM: usize = 1 << 20;

/// A malformed frame or payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// A client-to-server operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline with [`Response::Pong`].
    Ping,
    /// k-nearest-neighbour search over a raw descriptor.
    ///
    /// Body: `u32 k`, `u64 deadline_us` (0 = no deadline; a relative
    /// budget measured from server receipt), `f32 recall_target`
    /// (`1.0` = exact search; below `1.0` opts into the two-stage
    /// approximate path), `u32 dim`, `dim × f32`.
    Knn {
        /// Number of neighbours requested.
        k: u32,
        /// Relative deadline in microseconds (0 = none).
        deadline_us: u64,
        /// Recall target in `(0, 1]`; `1.0` requests the exact path.
        recall_target: f32,
        /// Query descriptor.
        descriptor: Vec<f32>,
    },
    /// Range search over a raw descriptor.
    ///
    /// Body: `f32 radius`, `u64 deadline_us`, `u32 dim`, `dim × f32`.
    Range {
        /// Inclusive distance threshold.
        radius: f32,
        /// Relative deadline in microseconds (0 = none).
        deadline_us: u64,
        /// Query descriptor.
        descriptor: Vec<f32>,
    },
    /// k-NN by database image id, excluding the query image itself.
    ///
    /// Body: `u32 k`, `u64 deadline_us`, `f32 recall_target`, `u64 id`.
    KnnById {
        /// Number of neighbours requested.
        k: u32,
        /// Relative deadline in microseconds (0 = none).
        deadline_us: u64,
        /// Recall target in `(0, 1]`; `1.0` requests the exact path.
        recall_target: f32,
        /// Database image id.
        id: u64,
    },
    /// Server counter snapshot; answered inline with [`Response::Stats`].
    Stats,
    /// Graceful shutdown: drain admitted requests, answer them, then stop.
    Shutdown,
    /// Observability registry snapshot, rendered server-side; answered
    /// inline with [`Response::ObsText`].
    ///
    /// Body: `u8 format` (`0` = JSON, `1` = Prometheus text exposition).
    ObsStats {
        /// `true` renders Prometheus text exposition instead of JSON.
        prometheus: bool,
    },
    /// Sampled query traces (JSON), for `cbir rpc-ctl explain`; answered
    /// inline with [`Response::ObsText`].
    Explain,
    /// Insert one precomputed descriptor into a live store; answered
    /// inline with [`Response::InsertAck`] (or [`Response::Error`] when
    /// the server is serving a static database).
    ///
    /// Body: string name, `u8 has_label` (`1` followed by `u32 label`,
    /// or `0`), `u32 dim`, `dim × f32`.
    Insert {
        /// External name of the image.
        name: String,
        /// Optional class label.
        label: Option<u32>,
        /// The precomputed descriptor.
        descriptor: Vec<f32>,
    },
    /// Tombstone one row of a live store by global id; answered inline
    /// with [`Response::DeleteAck`].
    ///
    /// Body: `u64 id`.
    Delete {
        /// Global id at the server's current epoch.
        id: u64,
    },
    /// Merge the live store's memtable and segments into fresh segments
    /// (the durability point); answered inline with
    /// [`Response::CompactAck`].
    Compact,
    /// Fetch the stored descriptor of one row by id; answered inline with
    /// [`Response::Descriptor`]. A scatter-gather router uses this to
    /// resolve a knn-by-id against the shard that owns the query row
    /// before fanning the search out to every shard.
    ///
    /// Body: `u64 id`.
    GetDescriptor {
        /// Row id at the server's current epoch.
        id: u64,
    },
}

const OP_PING: u8 = 0;
const OP_KNN: u8 = 1;
const OP_RANGE: u8 = 2;
const OP_KNN_BY_ID: u8 = 3;
const OP_STATS: u8 = 4;
const OP_SHUTDOWN: u8 = 5;
const OP_OBS_STATS: u8 = 6;
const OP_EXPLAIN: u8 = 7;
const OP_INSERT: u8 = 8;
const OP_DELETE: u8 = 9;
const OP_COMPACT: u8 = 10;
const OP_GET_DESCRIPTOR: u8 = 11;

/// One retrieval hit on the wire; mirrors `cbir_core::Ranked`.
///
/// Body: `u64 id`, string name, `u8 has_label` (`1` followed by
/// `u32 label`, or `0`), `f32 distance`.
#[derive(Clone, Debug, PartialEq)]
pub struct Hit {
    /// Image id in the server's database.
    pub id: u64,
    /// External name of the image.
    pub name: String,
    /// Class label if the image has one.
    pub label: Option<u32>,
    /// Distance from the query under the server's measure.
    pub distance: f32,
}

cbir_obs::counter_table! {
    /// Snapshot of the server-side counters (see `metrics` module for the
    /// semantics of each field). The table's rows are the `Stats` frame's
    /// fields in wire order, and each row's kind is how the router
    /// combines replicas: counters and gauges sum, peaks take the worst.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct StatsSnapshot / Stat {
        /// Batch-size histogram as `(inclusive upper bound, count)` pairs.
        pub batch_hist: Vec<(u64, u64)>,
    }
    Requests => requests: u64 = Counter ""
        "Query requests decoded (knn/range/knn-by-id; control ops excluded).";
    Admitted => admitted: u64 = Counter "" "Requests admitted to the queue.";
    Shed => shed: u64 = Counter "" "Requests shed with `Response::Overloaded` (queue full).";
    RejectedShutdown => rejected_shutdown: u64 = Counter ""
        "Requests refused because the server was shutting down.";
    Expired => expired: u64 = Counter ""
        "Admitted requests whose deadline expired before execution.";
    Executed => executed: u64 = Counter "" "Requests executed through the engine.";
    Errors => errors: u64 = Counter ""
        "Requests answered with `Response::Error` (validation or engine).";
    Batches => batches: u64 = Counter "" "Micro-batches dispatched.";
    QueueDepth => queue_depth: u64 = Gauge "" "Queue depth at snapshot time.";
    /// Over executed requests; the value is its histogram bucket's upper
    /// bound, at most 1/16 above the sample.
    LatencyP50Us => latency_p50_us: u64 = Peak ""
        "p50 of enqueue-to-reply latency over the server's lifetime, microseconds.";
    LatencyP95Us => latency_p95_us: u64 = Peak ""
        "p95 of enqueue-to-reply latency, read like `latency_p50_us`.";
    /// A linear scan under its exact L1 filter evaluates only the rows
    /// its code bound could not exclude, so this is not rows scanned there.
    DistanceComputations => distance_computations: u64 = Counter ""
        "Total full distance evaluations performed by the engine.";
    IoTimeouts => io_timeouts: u64 = Counter ""
        "Connections reaped after a read/write timeout (idle or stuck).";
    PanicsIsolated => panics_isolated: u64 = Counter ""
        "Batch-execution panics caught and converted to error replies.";
    EpollWakeups => epoll_wakeups: u64 = Counter "" "`epoll_wait` returns in the event loop.";
    MaxPipelineDepth => max_pipeline_depth: u64 = Peak ""
        "High-water mark of requests concurrently in flight on one connection.";
}

/// A server-to-client reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ranked hits for a knn/range/knn-by-id request.
    ///
    /// Body: `u32 n`, `n` hit bodies, `u64 coarse_candidates`,
    /// `u64 rerank_evaluations`. Both counters are zero when the request
    /// executed on the exact path — so a `recall_target = 1.0` reply is
    /// byte-identical to an exact reply, not merely equivalent.
    Hits {
        /// The ranked hits.
        hits: Vec<Hit>,
        /// Coarse-stage candidates this query surfaced (zero on the
        /// exact path).
        coarse_candidates: u64,
        /// Exact rerank evaluations this query performed (zero on the
        /// exact path).
        rerank_evaluations: u64,
    },
    /// Answer to [`Request::Ping`]: database size and descriptor dim.
    Pong {
        /// Number of images in the served database.
        db_len: u64,
        /// Descriptor dimensionality the server expects.
        dim: u32,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Acknowledges [`Request::Shutdown`]; sent before the server drains.
    ShutdownAck,
    /// Per-request failure (bad dimension, unknown id, engine error). The
    /// connection stays usable.
    Error(String),
    /// Admission control shed this request: the bounded queue was full.
    Overloaded(String),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown(String),
    /// The request's deadline expired while it waited in the queue.
    DeadlineExpired(String),
    /// Rendered observability text (JSON or Prometheus exposition),
    /// answering [`Request::ObsStats`] and [`Request::Explain`].
    ObsText(String),
    /// Answer to [`Request::Insert`].
    InsertAck {
        /// Global id assigned to the inserted row.
        id: u64,
        /// Store epoch after the insert.
        epoch: u64,
    },
    /// Answer to [`Request::Delete`].
    DeleteAck {
        /// Store epoch after the delete.
        epoch: u64,
    },
    /// Answer to [`Request::Compact`].
    CompactAck {
        /// Store epoch after the compaction.
        epoch: u64,
        /// Live segments after the compaction.
        segments: u32,
        /// Live rows after the compaction.
        rows: u64,
    },
    /// Answer to [`Request::GetDescriptor`].
    ///
    /// Body: `u32 dim`, `dim × f32`.
    Descriptor {
        /// The stored descriptor, bit-for-bit as the server holds it.
        descriptor: Vec<f32>,
    },
    /// Ranked hits from a **degraded** scatter-gather reply: one or more
    /// shards were unreachable (every replica down or circuit-open) and
    /// the router, running with partial results enabled, merged what the
    /// live shards returned instead of failing the query.
    ///
    /// Body: the full [`Response::Hits`] body, then `u32 shards_answered`,
    /// `u32 shards_total`. A router only ever emits this status when
    /// `shards_answered < shards_total`; full-coverage replies keep the
    /// plain `Hits` status so the healthy exact path stays frame-level
    /// byte-identical to a single union node.
    HitsPartial {
        /// The ranked hits merged over the shards that answered.
        hits: Vec<Hit>,
        /// Coarse-stage candidates summed over answering shards.
        coarse_candidates: u64,
        /// Exact rerank evaluations summed over answering shards.
        rerank_evaluations: u64,
        /// Shards that contributed hits to this reply.
        shards_answered: u32,
        /// Shards the plan declares; `shards_answered < shards_total`.
        shards_total: u32,
    },
}

const ST_HITS: u8 = 0;
const ST_PONG: u8 = 1;
const ST_STATS: u8 = 2;
const ST_SHUTDOWN_ACK: u8 = 3;
const ST_ERROR: u8 = 4;
const ST_OVERLOADED: u8 = 5;
const ST_SHUTTING_DOWN: u8 = 6;
const ST_DEADLINE_EXPIRED: u8 = 7;
const ST_OBS_TEXT: u8 = 8;
const ST_INSERT_ACK: u8 = 9;
const ST_DELETE_ACK: u8 = 10;
const ST_COMPACT_ACK: u8 = 11;
const ST_DESCRIPTOR: u8 = 12;
const ST_HITS_PARTIAL: u8 = 13;

// ---------------------------------------------------------------------------
// Payload writer/reader (little-endian, length-prefixed strings).
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct PayloadReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        PayloadReader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .bytes
            .get(self.at..self.at.saturating_add(n))
            .ok_or_else(|| wire_err("unexpected end of payload"))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_LEN {
            return Err(wire_err(format!("string length {n} implausible")));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| wire_err("invalid UTF-8 in string field"))
    }

    fn descriptor(&mut self) -> Result<Vec<f32>, WireError> {
        let dim = self.u32()? as usize;
        if dim == 0 || dim > MAX_WIRE_DIM {
            return Err(wire_err(format!("descriptor dim {dim} out of range")));
        }
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            v.push(self.f32()?);
        }
        Ok(v)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(wire_err(format!(
                "{} trailing bytes after payload",
                self.bytes.len() - self.at
            )))
        }
    }
}

fn write_descriptor(w: &mut PayloadWriter, d: &[f32]) {
    w.u32(d.len() as u32);
    for &v in d {
        w.f32(v);
    }
}

/// The shared body of [`Response::Hits`] and [`Response::HitsPartial`]:
/// `u32 n`, `n` hit bodies, `u64 coarse_candidates`,
/// `u64 rerank_evaluations`. Factored so the two statuses can never
/// drift apart byte-wise.
fn write_hits_body(w: &mut PayloadWriter, hits: &[Hit], coarse: u64, rerank: u64) {
    w.u32(hits.len() as u32);
    for h in hits {
        w.u64(h.id);
        w.str(&h.name);
        match h.label {
            Some(l) => {
                w.u8(1);
                w.u32(l);
            }
            None => w.u8(0),
        }
        w.f32(h.distance);
    }
    w.u64(coarse);
    w.u64(rerank);
}

/// Inverse of [`write_hits_body`].
fn read_hits_body(r: &mut PayloadReader<'_>) -> Result<(Vec<Hit>, u64, u64), WireError> {
    let n = r.u32()? as usize;
    if n > MAX_FRAME_LEN / 17 {
        return Err(wire_err(format!("hit count {n} implausible")));
    }
    let mut hits = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u64()?;
        let name = r.str()?;
        let label = if r.u8()? != 0 { Some(r.u32()?) } else { None };
        let distance = r.f32()?;
        hits.push(Hit {
            id,
            name,
            label,
            distance,
        });
    }
    let coarse = r.u64()?;
    let rerank = r.u64()?;
    Ok((hits, coarse, rerank))
}

// ---------------------------------------------------------------------------
// Request encode/decode.
// ---------------------------------------------------------------------------

/// Serialize a request into a frame payload (no magic / length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = PayloadWriter::default();
    match req {
        Request::Ping => w.u8(OP_PING),
        Request::Knn {
            k,
            deadline_us,
            recall_target,
            descriptor,
        } => {
            w.u8(OP_KNN);
            w.u32(*k);
            w.u64(*deadline_us);
            w.f32(*recall_target);
            write_descriptor(&mut w, descriptor);
        }
        Request::Range {
            radius,
            deadline_us,
            descriptor,
        } => {
            w.u8(OP_RANGE);
            w.f32(*radius);
            w.u64(*deadline_us);
            write_descriptor(&mut w, descriptor);
        }
        Request::KnnById {
            k,
            deadline_us,
            recall_target,
            id,
        } => {
            w.u8(OP_KNN_BY_ID);
            w.u32(*k);
            w.u64(*deadline_us);
            w.f32(*recall_target);
            w.u64(*id);
        }
        Request::Stats => w.u8(OP_STATS),
        Request::Shutdown => w.u8(OP_SHUTDOWN),
        Request::ObsStats { prometheus } => {
            w.u8(OP_OBS_STATS);
            w.u8(u8::from(*prometheus));
        }
        Request::Explain => w.u8(OP_EXPLAIN),
        Request::Insert {
            name,
            label,
            descriptor,
        } => {
            w.u8(OP_INSERT);
            w.str(name);
            match label {
                Some(l) => {
                    w.u8(1);
                    w.u32(*l);
                }
                None => w.u8(0),
            }
            write_descriptor(&mut w, descriptor);
        }
        Request::Delete { id } => {
            w.u8(OP_DELETE);
            w.u64(*id);
        }
        Request::Compact => w.u8(OP_COMPACT),
        Request::GetDescriptor { id } => {
            w.u8(OP_GET_DESCRIPTOR);
            w.u64(*id);
        }
    }
    w.buf
}

/// Parse a frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = PayloadReader::new(payload);
    let req = match r.u8()? {
        OP_PING => Request::Ping,
        OP_KNN => Request::Knn {
            k: r.u32()?,
            deadline_us: r.u64()?,
            recall_target: r.f32()?,
            descriptor: r.descriptor()?,
        },
        OP_RANGE => Request::Range {
            radius: r.f32()?,
            deadline_us: r.u64()?,
            descriptor: r.descriptor()?,
        },
        OP_KNN_BY_ID => Request::KnnById {
            k: r.u32()?,
            deadline_us: r.u64()?,
            recall_target: r.f32()?,
            id: r.u64()?,
        },
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_OBS_STATS => match r.u8()? {
            0 => Request::ObsStats { prometheus: false },
            1 => Request::ObsStats { prometheus: true },
            f => return Err(wire_err(format!("unknown obs-stats format {f}"))),
        },
        OP_EXPLAIN => Request::Explain,
        OP_INSERT => {
            let name = r.str()?;
            let label = if r.u8()? != 0 { Some(r.u32()?) } else { None };
            Request::Insert {
                name,
                label,
                descriptor: r.descriptor()?,
            }
        }
        OP_DELETE => Request::Delete { id: r.u64()? },
        OP_COMPACT => Request::Compact,
        OP_GET_DESCRIPTOR => Request::GetDescriptor { id: r.u64()? },
        t => return Err(wire_err(format!("unknown request op {t}"))),
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Response encode/decode.
// ---------------------------------------------------------------------------

/// Serialize a response into a frame payload (no magic / length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = PayloadWriter::default();
    match resp {
        Response::Hits {
            hits,
            coarse_candidates,
            rerank_evaluations,
        } => {
            w.u8(ST_HITS);
            write_hits_body(&mut w, hits, *coarse_candidates, *rerank_evaluations);
        }
        Response::HitsPartial {
            hits,
            coarse_candidates,
            rerank_evaluations,
            shards_answered,
            shards_total,
        } => {
            w.u8(ST_HITS_PARTIAL);
            write_hits_body(&mut w, hits, *coarse_candidates, *rerank_evaluations);
            w.u32(*shards_answered);
            w.u32(*shards_total);
        }
        Response::Pong { db_len, dim } => {
            w.u8(ST_PONG);
            w.u64(*db_len);
            w.u32(*dim);
        }
        Response::Stats(s) => {
            w.u8(ST_STATS);
            for v in s.values() {
                w.u64(v);
            }
            w.u32(s.batch_hist.len() as u32);
            for &(bound, count) in &s.batch_hist {
                w.u64(bound);
                w.u64(count);
            }
        }
        Response::ShutdownAck => w.u8(ST_SHUTDOWN_ACK),
        Response::Error(msg) => {
            w.u8(ST_ERROR);
            w.str(msg);
        }
        Response::Overloaded(msg) => {
            w.u8(ST_OVERLOADED);
            w.str(msg);
        }
        Response::ShuttingDown(msg) => {
            w.u8(ST_SHUTTING_DOWN);
            w.str(msg);
        }
        Response::DeadlineExpired(msg) => {
            w.u8(ST_DEADLINE_EXPIRED);
            w.str(msg);
        }
        Response::ObsText(text) => {
            w.u8(ST_OBS_TEXT);
            w.str(text);
        }
        Response::InsertAck { id, epoch } => {
            w.u8(ST_INSERT_ACK);
            w.u64(*id);
            w.u64(*epoch);
        }
        Response::DeleteAck { epoch } => {
            w.u8(ST_DELETE_ACK);
            w.u64(*epoch);
        }
        Response::CompactAck {
            epoch,
            segments,
            rows,
        } => {
            w.u8(ST_COMPACT_ACK);
            w.u64(*epoch);
            w.u32(*segments);
            w.u64(*rows);
        }
        Response::Descriptor { descriptor } => {
            w.u8(ST_DESCRIPTOR);
            write_descriptor(&mut w, descriptor);
        }
    }
    w.buf
}

/// Parse a frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = PayloadReader::new(payload);
    let resp = match r.u8()? {
        ST_HITS => {
            let (hits, coarse_candidates, rerank_evaluations) = read_hits_body(&mut r)?;
            Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            }
        }
        ST_HITS_PARTIAL => {
            let (hits, coarse_candidates, rerank_evaluations) = read_hits_body(&mut r)?;
            Response::HitsPartial {
                hits,
                coarse_candidates,
                rerank_evaluations,
                shards_answered: r.u32()?,
                shards_total: r.u32()?,
            }
        }
        ST_PONG => Response::Pong {
            db_len: r.u64()?,
            dim: r.u32()?,
        },
        ST_STATS => {
            let values = StatsSnapshot::TABLE
                .iter()
                .map(|_| r.u64())
                .collect::<Result<Vec<_>, _>>()?;
            let n = r.u32()? as usize;
            if n > 1024 {
                return Err(wire_err(format!("histogram bucket count {n} implausible")));
            }
            let batch_hist = (0..n)
                .map(|_| Ok((r.u64()?, r.u64()?)))
                .collect::<Result<_, WireError>>()?;
            Response::Stats(
                StatsSnapshot {
                    batch_hist,
                    ..Default::default()
                }
                .with_values(&values),
            )
        }
        ST_SHUTDOWN_ACK => Response::ShutdownAck,
        ST_ERROR => Response::Error(r.str()?),
        ST_OVERLOADED => Response::Overloaded(r.str()?),
        ST_SHUTTING_DOWN => Response::ShuttingDown(r.str()?),
        ST_DEADLINE_EXPIRED => Response::DeadlineExpired(r.str()?),
        ST_OBS_TEXT => Response::ObsText(r.str()?),
        ST_INSERT_ACK => Response::InsertAck {
            id: r.u64()?,
            epoch: r.u64()?,
        },
        ST_DELETE_ACK => Response::DeleteAck { epoch: r.u64()? },
        ST_COMPACT_ACK => Response::CompactAck {
            epoch: r.u64()?,
            segments: r.u32()?,
            rows: r.u64()?,
        },
        ST_DESCRIPTOR => Response::Descriptor {
            descriptor: r.descriptor()?,
        },
        t => return Err(wire_err(format!("unknown response status {t}"))),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

/// Write one frame (magic, length, payload) to a stream. One `write_all`
/// per field; callers wrap the stream in a `BufWriter` and flush per
/// frame or per batch.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame from a stream. Returns `Ok(None)` on clean EOF at a
/// frame boundary; a bad magic, an implausible length, or EOF inside a
/// frame is an `InvalidData` error carrying a [`WireError`] message.
///
/// Transport errors other than EOF — notably `TimedOut`/`WouldBlock`
/// from a socket read timeout — are propagated with their original
/// [`std::io::ErrorKind`] so callers can tell an idle peer apart from a
/// corrupt stream.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut magic = [0u8; 8];
    // Hand-rolled first read so EOF before any byte is a clean end of
    // stream rather than an error.
    let mut filled = 0;
    while filled < magic.len() {
        let n = r.read(&mut magic[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(invalid_data("EOF inside frame magic"));
        }
        filled += n;
    }
    if &magic != MAGIC {
        return Err(invalid_data("bad frame magic (not a CBIRRPC1 stream)"));
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)
        .map_err(|e| eof_as_invalid_data(e, "EOF inside frame length"))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(invalid_data(format!("frame length {len} exceeds limit")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| eof_as_invalid_data(e, "EOF inside frame payload"))?;
    Ok(Some(payload))
}

/// Rewrap only mid-frame EOF as a [`WireError`]; any other transport
/// failure keeps its kind (a timeout must stay classifiable).
fn eof_as_invalid_data(e: std::io::Error, msg: &str) -> std::io::Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        invalid_data(msg)
    } else {
        e
    }
}

pub(crate) fn invalid_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, WireError(msg.into()))
}

// ---------------------------------------------------------------------------
// Incremental (nonblocking) frame reassembly.
// ---------------------------------------------------------------------------

/// Incremental frame-reassembly state machine: the nonblocking
/// counterpart of [`read_frame`].
///
/// A readiness-driven reader cannot block until a frame is complete;
/// bytes arrive in arbitrary chunks at arbitrary boundaries. The decoder
/// accepts whatever the socket produced, remembers how far into the
/// current frame it is, and emits each payload exactly once — with the
/// *same* validation outcomes as the blocking reader (bad magic and
/// oversized length prefixes are corrupt streams; EOF is clean only at a
/// frame boundary), so the two paths can be asserted byte-equivalent.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Magic + length prefix under assembly (`header_filled < 12`).
    header: [u8; 12],
    header_filled: usize,
    /// Payload under assembly once the header validated; `None` while
    /// still inside the header.
    payload: Option<Vec<u8>>,
    payload_filled: usize,
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Whether the decoder sits exactly at a frame boundary (EOF here is
    /// a clean close; anywhere else the frame was torn).
    pub fn at_boundary(&self) -> bool {
        self.header_filled == 0 && self.payload.is_none()
    }

    /// The error an EOF at the current position amounts to, phrased
    /// exactly as the blocking [`read_frame`] would phrase it.
    pub fn eof_error(&self) -> std::io::Error {
        if self.payload.is_some() {
            invalid_data("EOF inside frame payload")
        } else if self.header_filled >= 8 {
            invalid_data("EOF inside frame length")
        } else {
            invalid_data("EOF inside frame magic")
        }
    }

    /// Consume bytes from `chunk`, returning how many were consumed and
    /// the completed frame payload, if this call finished one. Call in a
    /// loop until it consumes the whole chunk; a return of
    /// `(consumed, Some(payload))` with `consumed < chunk.len()` means
    /// more frames (or a partial one) follow in the same chunk.
    ///
    /// Errors carry the same messages as [`read_frame`] (bad magic,
    /// implausible length); after an error the stream is corrupt and the
    /// decoder must not be fed again.
    pub fn feed(&mut self, chunk: &[u8]) -> std::io::Result<(usize, Option<Vec<u8>>)> {
        let mut at = 0;
        // Header phase: assemble 8 bytes of magic + 4 of length.
        if self.payload.is_none() {
            let want = self.header.len() - self.header_filled;
            let take = want.min(chunk.len());
            self.header[self.header_filled..self.header_filled + take]
                .copy_from_slice(&chunk[..take]);
            self.header_filled += take;
            at += take;
            if self.header_filled < self.header.len() {
                return Ok((at, None));
            }
            if &self.header[..8] != MAGIC {
                return Err(invalid_data("bad frame magic (not a CBIRRPC1 stream)"));
            }
            let len = u32::from_le_bytes(self.header[8..12].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN {
                return Err(invalid_data(format!("frame length {len} exceeds limit")));
            }
            self.header_filled = 0;
            self.payload = Some(Vec::with_capacity(len.min(64 << 10)));
            self.payload_filled = len;
        }
        // Payload phase: `payload_filled` holds the bytes still owed.
        let buf = self.payload.as_mut().expect("payload phase");
        let take = self.payload_filled.min(chunk.len() - at);
        buf.extend_from_slice(&chunk[at..at + take]);
        self.payload_filled -= take;
        at += take;
        if self.payload_filled == 0 {
            let frame = self.payload.take().expect("complete payload");
            return Ok((at, Some(frame)));
        }
        Ok((at, None))
    }
}

/// Whether a transport error is a frame torn by mid-frame EOF: the peer
/// (or something on the wire) severed the stream partway through a
/// frame. Both ends of the protocol care about the distinction. A torn
/// frame means the conversation died and can be retried on a fresh
/// connection — the in-flight exchange never completed — whereas the
/// other [`WireError`] shapes (bad magic, oversized length) are
/// evidence the peer does not speak `CBIRRPC1` at all, which no
/// reconnect will fix.
pub fn is_torn_frame(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::InvalidData
        && e.get_ref()
            .and_then(|inner| inner.downcast_ref::<WireError>())
            .is_some_and(|w| w.0.starts_with("EOF inside frame"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Knn {
            k: 10,
            deadline_us: 5_000,
            recall_target: 1.0,
            descriptor: vec![0.25, -1.5, 3.0],
        });
        roundtrip_request(Request::Knn {
            k: 10,
            deadline_us: 0,
            recall_target: 0.9,
            descriptor: vec![0.25; 4],
        });
        roundtrip_request(Request::Range {
            radius: 0.75,
            deadline_us: 0,
            descriptor: vec![1.0; 16],
        });
        roundtrip_request(Request::KnnById {
            k: 3,
            deadline_us: 42,
            recall_target: 0.95,
            id: 7,
        });
        roundtrip_request(Request::ObsStats { prometheus: false });
        roundtrip_request(Request::ObsStats { prometheus: true });
        roundtrip_request(Request::Explain);
        roundtrip_request(Request::Insert {
            name: "new-img.ppm".into(),
            label: Some(3),
            descriptor: vec![0.5, 0.25],
        });
        roundtrip_request(Request::Insert {
            name: "unlabeled".into(),
            label: None,
            descriptor: vec![1.0; 8],
        });
        roundtrip_request(Request::Delete { id: 12 });
        roundtrip_request(Request::Compact);
        roundtrip_request(Request::GetDescriptor { id: 31 });
    }

    #[test]
    fn obs_stats_rejects_unknown_format() {
        let mut w = PayloadWriter::default();
        w.u8(OP_OBS_STATS);
        w.u8(7);
        assert!(decode_request(&w.buf).is_err());
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Hits {
            hits: vec![
                Hit {
                    id: 3,
                    name: "class-1-0003.ppm".into(),
                    label: Some(1),
                    distance: 0.125,
                },
                Hit {
                    id: 9,
                    name: "unlabeled".into(),
                    label: None,
                    distance: 2.5,
                },
            ],
            coarse_candidates: 0,
            rerank_evaluations: 0,
        });
        roundtrip_response(Response::Hits {
            hits: Vec::new(),
            coarse_candidates: 128,
            rerank_evaluations: 120,
        });
        roundtrip_response(Response::Pong { db_len: 12, dim: 4 });
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Error("bad dim".into()));
        roundtrip_response(Response::Overloaded("queue full".into()));
        roundtrip_response(Response::ShuttingDown("draining".into()));
        roundtrip_response(Response::DeadlineExpired("5ms budget".into()));
        roundtrip_response(Response::ObsText("{\"traces\": []}\n".into()));
        roundtrip_response(Response::InsertAck { id: 41, epoch: 7 });
        roundtrip_response(Response::DeleteAck { epoch: 8 });
        roundtrip_response(Response::CompactAck {
            epoch: 9,
            segments: 2,
            rows: 40,
        });
        roundtrip_response(Response::Descriptor {
            descriptor: vec![0.0, -1.5, 3.25, f32::MIN_POSITIVE],
        });
        roundtrip_response(Response::Stats(StatsSnapshot {
            requests: 100,
            admitted: 90,
            shed: 10,
            rejected_shutdown: 0,
            expired: 2,
            executed: 88,
            errors: 1,
            batches: 12,
            queue_depth: 3,
            latency_p50_us: 150,
            latency_p95_us: 900,
            distance_computations: 123_456,
            io_timeouts: 2,
            panics_isolated: 1,
            epoll_wakeups: 7_000,
            max_pipeline_depth: 32,
            batch_hist: vec![(1, 4), (2, 3), (u64::MAX, 5)],
        }));
    }

    /// The `Stats` frame's bytes: the status byte, the sixteen scalar
    /// counters as little-endian `u64`s in wire order (each field holds
    /// its wire position plus 100, so a swapped pair shows), then the
    /// batch-size histogram as a `u32` count and `(bound, count)` pairs.
    #[test]
    fn stats_frame_bytes_are_pinned() {
        let snap = StatsSnapshot {
            requests: 101,
            admitted: 102,
            shed: 103,
            rejected_shutdown: 104,
            expired: 105,
            executed: 106,
            errors: 107,
            batches: 108,
            queue_depth: 109,
            latency_p50_us: 110,
            latency_p95_us: 111,
            distance_computations: 112,
            io_timeouts: 113,
            panics_isolated: 114,
            epoll_wakeups: 115,
            max_pipeline_depth: 116,
            batch_hist: crate::metrics::BATCH_HIST_BOUNDS
                .iter()
                .enumerate()
                .map(|(i, &bound)| (bound, 201 + i as u64))
                .collect(),
        };
        let mut want = vec![2u8];
        for v in 101..=116u64 {
            want.extend_from_slice(&v.to_le_bytes());
        }
        want.extend_from_slice(&9u32.to_le_bytes());
        for (i, bound) in [1u64, 2, 4, 8, 16, 32, 64, 128, u64::MAX]
            .into_iter()
            .enumerate()
        {
            want.extend_from_slice(&bound.to_le_bytes());
            want.extend_from_slice(&(201 + i as u64).to_le_bytes());
        }
        let resp = Response::Stats(snap);
        assert_eq!(encode_response(&resp), want);
        assert_eq!(decode_response(&want).unwrap(), resp);
    }

    #[test]
    fn hits_partial_roundtrips_and_extends_hits_bytes() {
        let hits = vec![
            Hit {
                id: 5,
                name: "class-2-0005.ppm".into(),
                label: Some(2),
                distance: 0.5,
            },
            Hit {
                id: 11,
                name: "unlabeled".into(),
                label: None,
                distance: 1.25,
            },
        ];
        let partial = Response::HitsPartial {
            hits: hits.clone(),
            coarse_candidates: 7,
            rerank_evaluations: 6,
            shards_answered: 1,
            shards_total: 3,
        };
        roundtrip_response(partial.clone());
        roundtrip_response(Response::HitsPartial {
            hits: Vec::new(),
            coarse_candidates: 0,
            rerank_evaluations: 0,
            shards_answered: 0,
            shards_total: 2,
        });

        // The degraded status is the Hits body plus a coverage suffix:
        // byte 0 differs (status tag) and the last 8 bytes are the two
        // u32 counters; everything between is the exact Hits encoding.
        // This pins the healthy path's bytes against drift.
        let full = encode_response(&Response::Hits {
            hits,
            coarse_candidates: 7,
            rerank_evaluations: 6,
        });
        let degraded = encode_response(&partial);
        assert_eq!(degraded[0], 13, "degraded status tag");
        assert_eq!(full[0], 0, "hits status tag");
        assert_eq!(&degraded[1..degraded.len() - 8], &full[1..]);
        assert_eq!(
            &degraded[degraded.len() - 8..],
            &[1u8, 0, 0, 0, 3, 0, 0, 0][..]
        );

        // Truncating the coverage suffix must fail decode.
        let mut torn = encode_response(&partial);
        torn.truncate(torn.len() - 4);
        assert!(decode_response(&torn).is_err());
    }

    #[test]
    fn read_frame_survives_maximally_fragmented_streams() {
        // Deliver a frame one byte at a time through the fault harness:
        // the reader must reassemble it exactly.
        let payload = encode_request(&Request::Knn {
            k: 4,
            deadline_us: 7,
            recall_target: 1.0,
            descriptor: vec![0.25; 16],
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut fragmented = cbir_core::faults::FaultFile::throttled(std::io::Cursor::new(buf), 1);
        assert_eq!(read_frame(&mut fragmented).unwrap().unwrap(), payload);
        assert!(read_frame(&mut fragmented).unwrap().is_none());
    }

    #[test]
    fn read_frame_preserves_timeout_error_kinds() {
        use cbir_core::faults::{FaultFile, StreamFault};
        let payload = encode_request(&Request::Ping);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();

        // Timeout before any byte: must surface as TimedOut, not be
        // swallowed into InvalidData (idle-reaping depends on it).
        let mut stream = FaultFile::new(
            std::io::Cursor::new(buf.clone()),
            vec![StreamFault::Error {
                op: 0,
                kind: std::io::ErrorKind::TimedOut,
            }],
        );
        assert_eq!(
            read_frame(&mut stream).unwrap_err().kind(),
            std::io::ErrorKind::TimedOut
        );

        // Timeout later, inside the payload read: kind still preserved.
        let mut stream = FaultFile::new(
            std::io::Cursor::new(buf),
            vec![
                StreamFault::Short { op: 0, max: 8 },
                StreamFault::Short { op: 1, max: 4 },
                StreamFault::Error {
                    op: 2,
                    kind: std::io::ErrorKind::WouldBlock,
                },
            ],
        );
        assert_eq!(
            read_frame(&mut stream).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );

        // Genuine truncation still reads as a corrupt stream.
        let mut partial = Vec::new();
        write_frame(&mut partial, &encode_request(&Request::Ping)).unwrap();
        partial.truncate(partial.len() - 1);
        let mut cursor = std::io::Cursor::new(partial);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99]).is_err());
        assert!(decode_response(&[99]).is_err());
        // Truncated knn body.
        let mut payload = encode_request(&Request::Knn {
            k: 5,
            deadline_us: 0,
            recall_target: 1.0,
            descriptor: vec![1.0, 2.0],
        });
        payload.truncate(payload.len() - 3);
        assert!(decode_request(&payload).is_err());
        // Trailing bytes.
        let mut payload = encode_request(&Request::Ping);
        payload.push(0);
        assert!(decode_request(&payload).is_err());
        // Zero-dim descriptor.
        let mut w = PayloadWriter::default();
        w.u8(OP_KNN);
        w.u32(1);
        w.u64(0);
        w.f32(1.0); // recall target
        w.u32(0); // dim = 0
        assert!(decode_request(&w.buf).is_err());
        // Zero-dim get-descriptor reply.
        let mut w = PayloadWriter::default();
        w.u8(ST_DESCRIPTOR);
        w.u32(0);
        assert!(decode_response(&w.buf).is_err());
    }

    #[test]
    fn frame_io_roundtrips_and_rejects_garbage() {
        let payload = encode_request(&Request::Knn {
            k: 2,
            deadline_us: 0,
            recall_target: 0.9,
            descriptor: vec![0.5; 8],
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &encode_request(&Request::Ping)).unwrap();

        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
        assert_eq!(
            read_frame(&mut cursor).unwrap().unwrap(),
            encode_request(&Request::Ping)
        );
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // Bad magic.
        let mut cursor = std::io::Cursor::new(b"NOTMAGIC\x00\x00\x00\x00".to_vec());
        assert!(read_frame(&mut cursor).is_err());

        // EOF mid-frame.
        let mut partial = Vec::new();
        write_frame(&mut partial, &payload).unwrap();
        partial.truncate(partial.len() - 2);
        let mut cursor = std::io::Cursor::new(partial);
        assert!(read_frame(&mut cursor).is_err());

        // Implausible length.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// Feed `stream` to a fresh decoder in chunks of `sizes` (cycled),
    /// returning the decoded payloads.
    fn decode_chunked(stream: &[u8], sizes: &[usize]) -> Vec<Vec<u8>> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut at = 0;
        let mut step = 0;
        while at < stream.len() {
            let take = sizes[step % sizes.len()].max(1).min(stream.len() - at);
            step += 1;
            let chunk = &stream[at..at + take];
            let mut used_total = 0;
            while used_total < chunk.len() {
                let (used, frame) = dec.feed(&chunk[used_total..]).unwrap();
                used_total += used;
                if let Some(f) = frame {
                    out.push(f);
                }
            }
            at += take;
        }
        assert!(dec.at_boundary(), "stream ends at a frame boundary");
        out
    }

    #[test]
    fn frame_decoder_matches_blocking_reader_at_every_split() {
        // Two back-to-back frames; the blocking reader is the oracle.
        let payloads = [
            encode_request(&Request::Knn {
                k: 3,
                deadline_us: 9,
                recall_target: 0.9,
                descriptor: vec![0.125; 8],
            }),
            encode_request(&Request::Ping),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream.clone());
        let oracle = [
            read_frame(&mut cursor).unwrap().unwrap(),
            read_frame(&mut cursor).unwrap().unwrap(),
        ];
        assert_eq!(oracle[0], payloads[0]);
        assert_eq!(oracle[1], payloads[1]);

        // Every split point of the whole two-frame stream, plus a
        // one-byte drip and whole-stream coalescing.
        for split in 0..=stream.len() {
            let got = decode_chunked(&stream, &[split.max(1), stream.len()]);
            assert_eq!(got.len(), 2, "split at {split}");
            assert_eq!(got[0], oracle[0], "split at {split}");
            assert_eq!(got[1], oracle[1], "split at {split}");
        }
        assert_eq!(decode_chunked(&stream, &[1]), oracle.to_vec());
        assert_eq!(decode_chunked(&stream, &[stream.len()]), oracle.to_vec());
    }

    #[test]
    fn frame_decoder_reports_eof_position_like_the_blocking_reader() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &encode_request(&Request::Ping)).unwrap();
        // Truncate at every point inside the frame; the decoder must
        // name the same region the blocking reader names.
        for cut in 0..stream.len() {
            let mut dec = FrameDecoder::new();
            let mut fed = 0;
            while fed < cut {
                let (used, _) = dec.feed(&stream[fed..cut]).unwrap();
                fed += used;
            }
            let mut cursor = std::io::Cursor::new(stream[..cut].to_vec());
            let oracle = read_frame(&mut cursor);
            if cut == 0 {
                assert!(dec.at_boundary());
                assert!(oracle.unwrap().is_none(), "EOF at boundary is clean");
                continue;
            }
            assert!(!dec.at_boundary(), "cut at {cut}");
            let want = oracle.unwrap_err().to_string();
            assert_eq!(dec.eof_error().to_string(), want, "cut at {cut}");
        }
    }

    #[test]
    fn frame_decoder_rejects_garbage_like_the_blocking_reader() {
        // Bad magic, delivered one byte at a time.
        let mut dec = FrameDecoder::new();
        let bad = b"NOTMAGIC\x00\x00\x00\x00";
        let mut err = None;
        for b in bad.iter() {
            match dec.feed(&[*b]) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let mut cursor = std::io::Cursor::new(bad.to_vec());
        assert_eq!(
            err.expect("bad magic detected").to_string(),
            read_frame(&mut cursor).unwrap_err().to_string()
        );

        // Implausible length.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        let got = dec.feed(&huge).unwrap_err();
        let mut cursor = std::io::Cursor::new(huge);
        assert_eq!(
            got.to_string(),
            read_frame(&mut cursor).unwrap_err().to_string()
        );
    }
}
