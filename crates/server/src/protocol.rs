//! The `CBIRRPC1` wire protocol: length-prefixed little-endian binary
//! frames over a byte stream.
//!
//! Every frame, in both directions, is:
//!
//! ```text
//! [8 bytes magic "CBIRRPC1"] [u32 LE payload length] [payload bytes]
//! ```
//!
//! A request payload is an op tag followed by that op's fields; a
//! response payload is a status tag followed by that status's fields.
//! The two `frame_table!`s below are the frame list. A row gives one
//! frame its tag, its variant and its fields in wire order; the
//! [`Request`] and [`Response`] enums, each variant's "On the wire" doc
//! line, and [`encode_request`], [`decode_request`], [`encode_response`]
//! and [`decode_response`] are generated from the rows. Each field type
//! has one codec:
//!
//! - `u8`, `u32`, `u64`, `f32`: little-endian;
//! - `String`: a `u32` byte length (at most [`MAX_FRAME_LEN`]), then UTF-8;
//! - `Option<u32>`: `u8` `1` then the `u32`, or `u8` `0`;
//! - `bool`: the `ObsStats` format byte, `0` (JSON) or `1` (Prometheus);
//! - `Vec<f32>`: a descriptor, a `u32` dim in `1..=`[`MAX_WIRE_DIM`],
//!   then `dim` `f32`s;
//! - `Vec<Hit>`: a `u32` count (at most `MAX_FRAME_LEN / 17`), then per
//!   hit its `u64 id`, `String name`, `Option<u32> label`,
//!   `f32 distance`;
//! - `StatsSnapshot`: its counter table's values as `u64`s in table
//!   order, then a `u32` bucket count (at most 1,024) and that many
//!   `u64` bound, `u64` count pairs.
//!
//! The format is self-describing enough for per-connection error
//! isolation: a malformed frame produces a [`WireError`] which the server
//! answers with [`Response::Error`] before closing that connection,
//! leaving every other connection untouched. A reply whose payload would
//! exceed [`MAX_FRAME_LEN`] goes out as that request's [`Response::Error`]
//! instead (`conn::Connection::pump`), so the peer's reader stays in sync.

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

/// The unread rest of a payload.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .0
            .split_at_checked(n)
            .ok_or_else(|| wire_err("unexpected end of payload"))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    fn finish(self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(wire_err(format!("{n} trailing bytes after payload"))),
        }
    }
}

/// A field type's codec (the list is in the module docs).
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_le!(u8, u32, u64, f32);

/// A count or length, as a `u32`.
fn put_len(n: usize, out: &mut Vec<u8>) {
    (n as u32).put(out);
}

/// A count or length; one over `cap` is refused as implausible.
fn get_len(r: &mut Reader<'_>, cap: usize, what: &str) -> Result<usize, WireError> {
    let n = u32::get(r)? as usize;
    if n > cap {
        return Err(wire_err(format!("{what} {n} implausible")));
    }
    Ok(n)
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = get_len(r, MAX_FRAME_LEN, "string length")?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| wire_err("invalid UTF-8 in string field"))
    }
}

impl Wire for Option<u32> {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(self.is_some()).put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if u8::get(r)? != 0 {
            Some(u32::get(r)?)
        } else {
            None
        })
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            f => Err(wire_err(format!("unknown obs-stats format {f}"))),
        }
    }
}

impl Wire for Vec<f32> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim = u32::get(r)? as usize;
        if dim == 0 || dim > MAX_WIRE_DIM {
            return Err(wire_err(format!("descriptor dim {dim} out of range")));
        }
        let bytes = r.take(dim * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }
}

impl Wire for Vec<Hit> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for h in self {
            h.id.put(out);
            h.name.put(out);
            h.label.put(out);
            h.distance.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = get_len(r, MAX_FRAME_LEN / 17, "hit count")?;
        let mut hits = Vec::with_capacity(n);
        for _ in 0..n {
            hits.push(Hit {
                id: Wire::get(r)?,
                name: Wire::get(r)?,
                label: Wire::get(r)?,
                distance: Wire::get(r)?,
            });
        }
        Ok(hits)
    }
}

impl Wire for StatsSnapshot {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self.values() {
            v.put(out);
        }
        put_len(self.batch_hist.len(), out);
        for (bound, count) in &self.batch_hist {
            bound.put(out);
            count.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let values = Self::TABLE
            .iter()
            .map(|_| u64::get(r))
            .collect::<Result<Vec<_>, _>>()?;
        let n = get_len(r, 1024, "histogram bucket count")?;
        let batch_hist = (0..n)
            .map(|_| Ok((u64::get(r)?, u64::get(r)?)))
            .collect::<Result<_, WireError>>()?;
        Ok(StatsSnapshot {
            batch_hist,
            ..Default::default()
        }
        .with_values(&values))
    }
}

/// Declares one direction's frames: the enum with one variant per row,
/// and its encoder and decoder. A row is `tag => Variant`,
/// `tag => Variant(Type)` or `tag => Variant { field: Type, .. }` with
/// the fields in wire order. A payload is the tag byte, then each field
/// by its type's codec; decoding an unknown tag fails with
/// `unknown <what> <tag>`.
macro_rules! frame_table {
    (@bind $b:ident $t:ty) => { $b };
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $what:literal, $encode:ident, $decode:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                    $( ($ty:ty) )?
                    $( { $( $(#[$fmeta:meta])* $field:ident: $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])*
            #[doc = ""]
            #[doc = concat!(
                "On the wire: tag `", $tag, "`"
                $(, ", `", stringify!($ty), "`")?
                $($(, ", `", stringify!($field), ": ", stringify!($fty), "`")*)?
                , "."
            )]
            $variant $( ($ty) )? $( { $( $(#[$fmeta])* $field: $fty ),* } )?,
        )*}

        #[doc = concat!(
            "Serialize a [`", stringify!($name), "`] into a frame payload (no magic / length prefix)."
        )]
        pub fn $encode(frame: &$name) -> Vec<u8> {
            let mut out = Vec::new();
            match frame {$(
                $name::$variant
                    $( (frame_table!(@bind value $ty)) )?
                    $( { $($field),* } )? => {
                    out.push($tag);
                    $( <$ty as Wire>::put(value, &mut out); )?
                    $( $( <$fty as Wire>::put($field, &mut out); )* )?
                }
            )*}
            out
        }

        #[doc = concat!("Parse a frame payload as a [`", stringify!($name), "`].")]
        pub fn $decode(payload: &[u8]) -> Result<$name, WireError> {
            let mut r = Reader(payload);
            let frame = match u8::get(&mut r)? {
                $(
                    $tag => $name::$variant
                        $( (<$ty as Wire>::get(&mut r)?) )?
                        $( { $( $field: <$fty as Wire>::get(&mut r)? ),* } )?,
                )*
                t => return Err(wire_err(format!("unknown {} {t}", $what))),
            };
            r.finish()?;
            Ok(frame)
        }
    };
}

frame_table! {
    /// A client-to-server operation.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request: "request op", encode_request, decode_request {
        /// Liveness probe; answered inline with [`Response::Pong`].
        0 => Ping,
        /// k-nearest-neighbour search over a raw descriptor.
        1 => Knn {
            /// Number of neighbours requested.
            k: u32,
            /// Relative deadline in microseconds, measured from server
            /// receipt (0 = none).
            deadline_us: u64,
            /// Recall target in `(0, 1]`; `1.0` requests the exact path,
            /// below it opts into the two-stage approximate path.
            recall_target: f32,
            /// Query descriptor.
            descriptor: Vec<f32>,
        },
        /// Range search over a raw descriptor.
        2 => Range {
            /// Inclusive distance threshold.
            radius: f32,
            /// Relative deadline in microseconds (0 = none).
            deadline_us: u64,
            /// Query descriptor.
            descriptor: Vec<f32>,
        },
        /// k-NN by database image id, excluding the query image itself.
        3 => KnnById {
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
        4 => Stats,
        /// Graceful shutdown: drain admitted requests, answer them, then stop.
        5 => Shutdown,
        /// Observability registry snapshot, rendered server-side; answered
        /// inline with [`Response::ObsText`].
        6 => ObsStats {
            /// `true` renders Prometheus text exposition instead of JSON.
            prometheus: bool,
        },
        /// Sampled query traces (JSON), for `cbir rpc-ctl explain`; answered
        /// inline with [`Response::ObsText`].
        7 => Explain,
        /// Insert one precomputed descriptor into a live store; answered
        /// inline with [`Response::InsertAck`] (or [`Response::Error`] when
        /// the server is serving a static database).
        8 => Insert {
            /// External name of the image.
            name: String,
            /// Optional class label.
            label: Option<u32>,
            /// The precomputed descriptor.
            descriptor: Vec<f32>,
        },
        /// Tombstone one row of a live store by global id; answered inline
        /// with [`Response::DeleteAck`].
        9 => Delete {
            /// Global id at the server's current epoch.
            id: u64,
        },
        /// Merge the live store's memtable and segments into fresh segments
        /// (the durability point); answered inline with
        /// [`Response::CompactAck`].
        10 => Compact,
        /// Fetch the stored descriptor of one row by id; answered inline with
        /// [`Response::Descriptor`]. A scatter-gather router uses this to
        /// resolve a knn-by-id against the shard that owns the query row
        /// before fanning the search out to every shard.
        11 => GetDescriptor {
            /// Row id at the server's current epoch.
            id: u64,
        },
    }
}

impl Request {
    /// A search's deadline (`Knn`, `Range` and `KnnById`, the ops the
    /// scheduler batches and the router hedges); `None` for every other op.
    pub fn deadline_us(&self) -> Option<u64> {
        match *self {
            Request::Knn { deadline_us, .. }
            | Request::Range { deadline_us, .. }
            | Request::KnnById { deadline_us, .. } => Some(deadline_us),
            _ => None,
        }
    }

    /// [`Request::deadline_us`], to cut it; `Some` for the same ops.
    pub fn deadline_us_mut(&mut self) -> Option<&mut u64> {
        match self {
            Request::Knn { deadline_us, .. }
            | Request::Range { deadline_us, .. }
            | Request::KnnById { deadline_us, .. } => Some(deadline_us),
            _ => None,
        }
    }
}

/// Whether an op mutates the store: the ops a `Service` dispatches
/// behind a per-connection barrier.
pub fn is_mutation(req: &Request) -> bool {
    matches!(
        req,
        Request::Insert { .. } | Request::Delete { .. } | Request::Compact
    )
}

/// One retrieval hit on the wire; mirrors `cbir_core::Ranked`.
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

frame_table! {
    /// A server-to-client reply.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Response: "response status", encode_response, decode_response {
        /// Ranked hits for a knn/range/knn-by-id request. Both counters
        /// are zero when the request executed on the exact path — so a
        /// `recall_target = 1.0` reply is byte-identical to an exact
        /// reply, not merely equivalent.
        0 => Hits {
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
        1 => Pong {
            /// Number of images in the served database.
            db_len: u64,
            /// Descriptor dimensionality the server expects.
            dim: u32,
        },
        /// Answer to [`Request::Stats`].
        2 => Stats(StatsSnapshot),
        /// Acknowledges [`Request::Shutdown`]; sent before the server drains.
        3 => ShutdownAck,
        /// Per-request failure (bad dimension, unknown id, engine error, a
        /// reply over [`MAX_FRAME_LEN`]). The connection stays usable.
        4 => Error(String),
        /// Admission control shed this request: the bounded queue was full.
        5 => Overloaded(String),
        /// The server is shutting down and no longer admits requests.
        6 => ShuttingDown(String),
        /// The request's deadline expired while it waited in the queue.
        7 => DeadlineExpired(String),
        /// Rendered observability text (JSON or Prometheus exposition),
        /// answering [`Request::ObsStats`] and [`Request::Explain`].
        8 => ObsText(String),
        /// Answer to [`Request::Insert`].
        9 => InsertAck {
            /// Global id assigned to the inserted row.
            id: u64,
            /// Store epoch after the insert.
            epoch: u64,
        },
        /// Answer to [`Request::Delete`].
        10 => DeleteAck {
            /// Store epoch after the delete.
            epoch: u64,
        },
        /// Answer to [`Request::Compact`].
        11 => CompactAck {
            /// Store epoch after the compaction.
            epoch: u64,
            /// Live segments after the compaction.
            segments: u32,
            /// Live rows after the compaction.
            rows: u64,
        },
        /// Answer to [`Request::GetDescriptor`].
        12 => Descriptor {
            /// The stored descriptor, bit-for-bit as the server holds it.
            descriptor: Vec<f32>,
        },
        /// Ranked hits from a **degraded** scatter-gather reply: one or more
        /// shards were unreachable (every replica down or circuit-open) and
        /// the router, running with partial results enabled, merged what the
        /// live shards returned instead of failing the query.
        ///
        /// Its fields start with [`Response::Hits`]' fields, so past the tag
        /// its payload is a `Hits` payload plus the coverage pair. A router
        /// only ever emits this status when `shards_answered < shards_total`;
        /// full-coverage replies keep the plain `Hits` status so the healthy
        /// exact path stays frame-level byte-identical to a single union node.
        13 => HitsPartial {
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
        assert!(decode_request(&hex("06 07")).is_err());
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
        // Zero-dim descriptor: k 1, no deadline, recall target 1.0, dim 0.
        let knn = hex("01 01000000 0000000000000000 0000803f 00000000");
        assert!(decode_request(&knn).is_err());
        // Zero-dim get-descriptor reply.
        assert!(decode_response(&hex("0c 00000000")).is_err());
    }

    /// Bytes from a hex string; spaces are ignored.
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    fn cat(parts: &[&[u8]]) -> Vec<u8> {
        parts.concat()
    }

    /// One request per op with its payload bytes, written out by hand
    /// so the codec is checked against bytes it did not produce. Each
    /// field's value differs from its neighbours', so two swapped
    /// fields change the bytes.
    fn request_goldens() -> Vec<(Request, Vec<u8>)> {
        vec![
            (Request::Ping, hex("00")),
            (
                Request::Knn {
                    k: 10,
                    deadline_us: 5_000,
                    recall_target: 0.5,
                    descriptor: vec![1.0, -2.0],
                },
                hex("01 0a000000 8813000000000000 0000003f 02000000 0000803f 000000c0"),
            ),
            (
                Request::Range {
                    radius: 0.75,
                    deadline_us: 7,
                    descriptor: vec![0.25],
                },
                hex("02 0000403f 0700000000000000 01000000 0000803e"),
            ),
            (
                Request::KnnById {
                    k: 3,
                    deadline_us: 42,
                    recall_target: 0.25,
                    id: 9,
                },
                hex("03 03000000 2a00000000000000 0000803e 0900000000000000"),
            ),
            (Request::Stats, hex("04")),
            (Request::Shutdown, hex("05")),
            (Request::ObsStats { prometheus: true }, hex("06 01")),
            (Request::ObsStats { prometheus: false }, hex("06 00")),
            (Request::Explain, hex("07")),
            (
                Request::Insert {
                    name: "a.ppm".into(),
                    label: Some(3),
                    descriptor: vec![0.5],
                },
                hex("08 05000000 612e70706d 01 03000000 01000000 0000003f"),
            ),
            (
                Request::Insert {
                    name: String::new(),
                    label: None,
                    descriptor: vec![2.0],
                },
                hex("08 00000000 00 01000000 00000040"),
            ),
            (Request::Delete { id: 12 }, hex("09 0c00000000000000")),
            (Request::Compact, hex("0a")),
            (
                Request::GetDescriptor { id: 31 },
                hex("0b 1f00000000000000"),
            ),
        ]
    }

    /// One reply per status with its payload bytes, as
    /// [`request_goldens`] writes them.
    fn response_goldens() -> Vec<(Response, Vec<u8>)> {
        let hit = |id, name: &str, label, distance| Hit {
            id,
            name: name.into(),
            label,
            distance,
        };
        let stats = StatsSnapshot {
            batch_hist: vec![(2, 17), (u64::MAX, 18)],
            ..Default::default()
        }
        .with_values(&(1..=16).collect::<Vec<u64>>());
        let mut stats_bytes = vec![2u8];
        for v in 1..=16u64 {
            stats_bytes.extend_from_slice(&v.to_le_bytes());
        }
        stats_bytes.extend(hex(
            "02000000 0200000000000000 1100000000000000 ffffffffffffffff 1200000000000000",
        ));
        vec![
            (
                Response::Hits {
                    hits: vec![hit(3, "x", Some(1), 0.125), hit(9, "", None, 2.5)],
                    coarse_candidates: 128,
                    rerank_evaluations: 120,
                },
                hex("00 02000000 \
                     0300000000000000 01000000 78 01 01000000 0000003e \
                     0900000000000000 00000000 00 00002040 \
                     8000000000000000 7800000000000000"),
            ),
            (
                Response::Pong { db_len: 12, dim: 4 },
                hex("01 0c00000000000000 04000000"),
            ),
            (Response::Stats(stats), stats_bytes),
            (Response::ShutdownAck, hex("03")),
            (Response::Error("bad".into()), hex("04 03000000 626164")),
            (
                Response::Overloaded("full".into()),
                hex("05 04000000 66756c6c"),
            ),
            (
                Response::ShuttingDown("bye".into()),
                hex("06 03000000 627965"),
            ),
            (
                Response::DeadlineExpired("late".into()),
                hex("07 04000000 6c617465"),
            ),
            (Response::ObsText("{}".into()), hex("08 02000000 7b7d")),
            (
                Response::InsertAck { id: 41, epoch: 7 },
                hex("09 2900000000000000 0700000000000000"),
            ),
            (Response::DeleteAck { epoch: 8 }, hex("0a 0800000000000000")),
            (
                Response::CompactAck {
                    epoch: 9,
                    segments: 2,
                    rows: 40,
                },
                hex("0b 0900000000000000 02000000 2800000000000000"),
            ),
            (
                Response::Descriptor {
                    descriptor: vec![0.0, -1.5],
                },
                hex("0c 02000000 00000000 0000c0bf"),
            ),
            (
                Response::HitsPartial {
                    hits: vec![hit(5, "y", Some(2), 0.5)],
                    coarse_candidates: 7,
                    rerank_evaluations: 6,
                    shards_answered: 1,
                    shards_total: 3,
                },
                hex("0d 01000000 \
                     0500000000000000 01000000 79 01 02000000 0000003f \
                     0700000000000000 0600000000000000 01000000 03000000"),
            ),
        ]
    }

    #[test]
    fn every_frame_encodes_to_and_decodes_from_its_golden_bytes() {
        let requests = request_goldens();
        let mut ops: Vec<u8> = requests.iter().map(|(_, b)| b[0]).collect();
        ops.dedup();
        assert_eq!(ops, (0..12).collect::<Vec<u8>>(), "one golden per op");
        for (req, bytes) in requests {
            assert_eq!(encode_request(&req), bytes, "{req:?}");
            assert_eq!(decode_request(&bytes).unwrap(), req);
        }
        let responses = response_goldens();
        let statuses: Vec<u8> = responses.iter().map(|(_, b)| b[0]).collect();
        assert_eq!(
            statuses,
            (0..14).collect::<Vec<u8>>(),
            "one golden per status"
        );
        for (resp, bytes) in responses {
            assert_eq!(encode_response(&resp), bytes, "{resp:?}");
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn exactly_the_searches_carry_a_deadline() {
        for (mut req, _) in request_goldens() {
            let search = matches!(
                req,
                Request::Knn { .. } | Request::Range { .. } | Request::KnnById { .. }
            );
            assert_eq!(req.deadline_us().is_some(), search, "{req:?}");
            assert_eq!(req.deadline_us_mut().is_some(), search, "{req:?}");
        }
    }

    #[test]
    fn malformed_payloads_fail_with_their_exact_messages() {
        let request_err = |b: &[u8]| decode_request(b).unwrap_err().0;
        let response_err = |b: &[u8]| decode_response(b).unwrap_err().0;
        // Every proper prefix of every golden ends early, and one byte
        // past any of them is left over.
        for (_, bytes) in request_goldens() {
            for cut in 0..bytes.len() {
                assert_eq!(request_err(&bytes[..cut]), "unexpected end of payload");
            }
            let long = cat(&[&bytes, &[0]]);
            assert_eq!(request_err(&long), "1 trailing bytes after payload");
        }
        for (_, bytes) in response_goldens() {
            for cut in 0..bytes.len() {
                assert_eq!(response_err(&bytes[..cut]), "unexpected end of payload");
            }
            let long = cat(&[&bytes, &[0]]);
            assert_eq!(response_err(&long), "1 trailing bytes after payload");
        }

        let le32 = |v: usize| (v as u32).to_le_bytes();
        let knn_head = hex("01 0a000000 0000000000000000 0000803f");
        let string_reply = |n: usize, body: &[u8]| cat(&[&[4], &le32(n), body]);
        let hits_reply = |n: usize| cat(&[&[0], &le32(n)]);
        let stats_reply = |n: usize| cat(&[&[2], &[0; 16 * 8], &le32(n)]);
        let cases: Vec<(Vec<u8>, bool, String)> = vec![
            (
                cat(&[&knn_head, &le32(0)]),
                true,
                "descriptor dim 0 out of range".into(),
            ),
            (
                cat(&[&knn_head, &le32(MAX_WIRE_DIM + 1)]),
                true,
                format!("descriptor dim {} out of range", MAX_WIRE_DIM + 1),
            ),
            // The largest dim passes the check and runs out of bytes.
            (
                cat(&[&knn_head, &le32(MAX_WIRE_DIM)]),
                true,
                "unexpected end of payload".into(),
            ),
            (
                cat(&[&[12], &le32(0)]),
                false,
                "descriptor dim 0 out of range".into(),
            ),
            (
                cat(&[&[8], &le32(1), b"n", &[0], &le32(MAX_WIRE_DIM + 1)]),
                true,
                format!("descriptor dim {} out of range", MAX_WIRE_DIM + 1),
            ),
            (
                string_reply(MAX_FRAME_LEN + 1, &[]),
                false,
                format!("string length {} implausible", MAX_FRAME_LEN + 1),
            ),
            (
                string_reply(MAX_FRAME_LEN, &[]),
                false,
                "unexpected end of payload".into(),
            ),
            (
                string_reply(2, &[0xc3, 0x28]),
                false,
                "invalid UTF-8 in string field".into(),
            ),
            (
                cat(&[&[8], &le32(1), &[0xff], &[0], &le32(1), &[0; 4]]),
                true,
                "invalid UTF-8 in string field".into(),
            ),
            (
                hits_reply(MAX_FRAME_LEN / 17 + 1),
                false,
                format!("hit count {} implausible", MAX_FRAME_LEN / 17 + 1),
            ),
            (
                hits_reply(MAX_FRAME_LEN / 17),
                false,
                "unexpected end of payload".into(),
            ),
            (
                stats_reply(1025),
                false,
                "histogram bucket count 1025 implausible".into(),
            ),
            (stats_reply(1024), false, "unexpected end of payload".into()),
            (hex("06 02"), true, "unknown obs-stats format 2".into()),
            (hex("0c"), true, "unknown request op 12".into()),
            (hex("ff"), true, "unknown request op 255".into()),
            (hex("0e"), false, "unknown response status 14".into()),
            (hex("ff"), false, "unknown response status 255".into()),
        ];
        for (bytes, request, want) in cases {
            let got = if request {
                request_err(&bytes)
            } else {
                response_err(&bytes)
            };
            assert_eq!(got, want, "{bytes:02x?}");
        }
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
