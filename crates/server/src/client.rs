//! Blocking client for the `CBIRRPC1` protocol.
//!
//! [`Client`] offers one-call request/response methods (`knn`, `range`,
//! `knn_by_id`, `ping`, `stats`, `shutdown`) plus a pipelined pair
//! (`send_*` / `recv_hits`) used by load generators: send a window of
//! requests before reading any reply, and the server — whose replies are
//! always in request order — keeps its micro-batches full. Under both sit
//! the untyped halves [`Client::send`] and [`Client::recv`], which a
//! router uses to put a request on every shard before reading any reply.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Hit, Request, Response,
    StatsSnapshot, WireError,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request did not return hits.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server closed the connection mid-conversation (process
    /// death, idle reaping, network partition). Distinguished from
    /// [`ClientError::Io`] so retry logic can treat it as transient:
    /// reconnect and resend.
    ConnectionLost(String),
    /// The peer sent something that is not a valid response frame, or a
    /// response of an unexpected kind.
    Protocol(String),
    /// The server rejected or failed the request with an explicit reply.
    Rejected(Rejection),
}

impl ClientError {
    /// Whether retrying the request (possibly on a fresh connection) can
    /// plausibly succeed: lost connections, timeouts, refused connects,
    /// and overload shedding are transient; protocol violations and
    /// explicit server errors are not.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::ConnectionLost(_) => true,
            ClientError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::Interrupted
            ),
            ClientError::Rejected(Rejection::Overloaded(_)) => true,
            _ => false,
        }
    }

    /// A reply of the wrong kind for the request it answers.
    pub fn unexpected(expected: &str, got: Response) -> ClientError {
        ClientError::Protocol(format!("expected {expected}, got {got:?}"))
    }
}

/// An explicit rejection reply as the error it stands for; every other
/// reply passes through.
fn rejection(reply: Response) -> ClientResult<Response> {
    let rejected = match reply {
        Response::Error(m) => Rejection::Error(m),
        Response::Overloaded(m) => Rejection::Overloaded(m),
        Response::ShuttingDown(m) => Rejection::ShuttingDown(m),
        Response::DeadlineExpired(m) => Rejection::DeadlineExpired(m),
        other => return Ok(other),
    };
    Err(ClientError::Rejected(rejected))
}

/// An explicit non-hit server reply, preserved so callers can tell
/// overload shedding apart from failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// Per-request failure; the connection is still usable.
    Error(String),
    /// Admission control shed the request (queue full).
    Overloaded(String),
    /// The server is draining and no longer admits requests.
    ShuttingDown(String),
    /// The request's deadline expired before execution.
    DeadlineExpired(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::ConnectionLost(msg) => write!(f, "connection lost: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Rejected(r) => match r {
                Rejection::Error(m) => write!(f, "server error: {m}"),
                Rejection::Overloaded(m) => write!(f, "server overloaded: {m}"),
                Rejection::ShuttingDown(m) => write!(f, "server shutting down: {m}"),
                Rejection::DeadlineExpired(m) => write!(f, "deadline expired: {m}"),
            },
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        // A reply torn by mid-frame EOF is the connection dying, not the
        // server speaking a different protocol — classify it with the
        // other peer-vanished shapes so failover and retry cover it.
        if crate::protocol::is_torn_frame(&e) {
            return ClientError::ConnectionLost(format!("{} ({})", e, e.kind()));
        }
        match e.kind() {
            // The peer vanished under us — typed so retry logic can
            // tell "reconnect and resend" apart from a fatal failure.
            std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::UnexpectedEof => {
                ClientError::ConnectionLost(format!("{} ({})", e, e.kind()))
            }
            _ => ClientError::Io(e),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Protocol(e.0)
    }
}

/// Convenience alias.
pub type ClientResult<T> = Result<T, ClientError>;

/// A hits reply with its per-query approximate-search counters. Both
/// counters are zero when the server executed the exact path (always the
/// case at `recall_target = 1.0`).
#[derive(Clone, Debug, PartialEq)]
pub struct HitsReply {
    /// The ranked hits.
    pub hits: Vec<Hit>,
    /// Coarse-stage candidates the query surfaced (zero on the exact
    /// path).
    pub coarse_candidates: u64,
    /// Exact rerank evaluations the query performed (zero on the exact
    /// path).
    pub rerank_evaluations: u64,
    /// `true` when this reply came back as `HitsPartial`: a router
    /// running in partial-results mode merged only the shards that were
    /// reachable. Always `false` from a single backend.
    pub degraded: bool,
    /// Shards that contributed to a degraded reply; `0` when
    /// [`HitsReply::degraded`] is `false` (full coverage is implied).
    pub shards_answered: u32,
    /// Shards the router's plan declares; `0` from a single backend.
    pub shards_total: u32,
}

impl HitsReply {
    /// A full-coverage reply body (the non-degraded constructor every
    /// single-backend path uses).
    pub fn full(hits: Vec<Hit>, coarse_candidates: u64, rerank_evaluations: u64) -> HitsReply {
        HitsReply {
            hits,
            coarse_candidates,
            rerank_evaluations,
            degraded: false,
            shards_answered: 0,
            shards_total: 0,
        }
    }
}

impl TryFrom<Response> for HitsReply {
    type Error = ClientError;

    /// The body of a `Hits` or `HitsPartial` reply; any other reply is a
    /// protocol error.
    fn try_from(reply: Response) -> ClientResult<HitsReply> {
        match reply {
            Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            } => Ok(HitsReply::full(hits, coarse_candidates, rerank_evaluations)),
            Response::HitsPartial {
                hits,
                coarse_candidates,
                rerank_evaluations,
                shards_answered,
                shards_total,
            } => Ok(HitsReply {
                hits,
                coarse_candidates,
                rerank_evaluations,
                degraded: true,
                shards_answered,
                shards_total,
            }),
            other => Err(ClientError::unexpected("hits", other)),
        }
    }
}

/// `k` as the wire's `u32`, refused rather than wrapped when it does not
/// fit (a wrapped `k` would ask for a different, possibly zero, count).
fn wire_k(k: usize) -> ClientResult<u32> {
    u32::try_from(k)
        .map_err(|_| ClientError::Protocol(format!("k = {k} does not fit the wire's u32")))
}

/// A blocking connection to a `cbir` query server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server address (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`Client::connect`] with a bound on every blocking step: the dial,
    /// each read, and each write all time out after `timeout`. This is
    /// the connect a health prober wants — a black-holed peer (accepts,
    /// then never answers) must cost at most `timeout`, not hang the
    /// probe loop forever.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last_err = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    let writer = BufWriter::new(stream.try_clone()?);
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    /// Buffer a request frame without flushing it.
    fn write(&mut self, request: &Request) -> std::io::Result<()> {
        write_frame(&mut self.writer, &encode_request(request))
    }

    /// Flush buffered request frames to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    /// Send half of an exchange: put `request` on the wire without
    /// reading its reply.
    pub fn send(&mut self, request: &Request) -> ClientResult<()> {
        self.write(request)?;
        Ok(self.flush()?)
    }

    /// Receive half: the next in-order reply, with an explicit rejection
    /// (`Error`, `Overloaded`, `ShuttingDown`, `DeadlineExpired`) returned
    /// as [`ClientError::Rejected`].
    pub fn recv(&mut self) -> ClientResult<Response> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::ConnectionLost("server closed the connection mid-conversation".into())
        })?;
        rejection(decode_response(&payload)?)
    }

    /// Wait up to `timeout` (rounded up to whole milliseconds; `None`: for
    /// ever) for a reply's first byte on any of `clients`, consuming
    /// nothing: the index of one that has it, `None` if none came. A
    /// reply, an EOF or a transport error ends the wait, for
    /// [`Client::recv`] to read. It is one epoll wait: a socket read
    /// timeout watches one connection, rounded to the kernel's tick. Off
    /// Linux, where nothing routes, it names the first connection at once.
    pub fn await_reply(clients: &[&Client], timeout: Option<Duration>) -> Option<usize> {
        let buffered = clients.iter().position(|c| !c.reader.buffer().is_empty());
        #[cfg(target_os = "linux")]
        if buffered.is_none() {
            use crate::sys::{Epoll, EpollEvent, EPOLLIN};
            use std::os::fd::AsRawFd;
            let ms = timeout.map_or(-1, |t| {
                t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
            });
            let mut fired = [EpollEvent::default()];
            let waited = Epoll::new().and_then(|ep| {
                for (i, c) in clients.iter().enumerate() {
                    ep.add(c.reader.get_ref().as_raw_fd(), EPOLLIN, i as u64)?;
                }
                ep.wait(&mut fired, ms)
            });
            // A failed wait names the first connection, whose read then
            // blocks as it would with no wait at all.
            return waited.map_or(Some(0), |n| (n > 0).then(|| fired[0].data as usize));
        }
        let _ = timeout;
        buffered.or((!clients.is_empty()).then_some(0))
    }

    fn call(&mut self, request: &Request) -> ClientResult<Response> {
        self.send(request)?;
        self.recv()
    }

    /// k-NN over a raw descriptor. `deadline_us` is a relative budget in
    /// microseconds (0 = no deadline); `recall_target` in `(0, 1]`
    /// selects the exact path at `1.0` and the two-stage approximate
    /// path below it.
    pub fn knn(
        &mut self,
        descriptor: &[f32],
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<Vec<Hit>> {
        Ok(self
            .knn_detailed(descriptor, k, deadline_us, recall_target)?
            .hits)
    }

    /// [`Client::knn`] keeping the reply's approximate-search counters.
    pub fn knn_detailed(
        &mut self,
        descriptor: &[f32],
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<HitsReply> {
        self.send_knn(descriptor, k, deadline_us, recall_target)?;
        self.flush()?;
        self.recv_hits_detailed()
    }

    /// Range search over a raw descriptor.
    pub fn range(
        &mut self,
        descriptor: &[f32],
        radius: f32,
        deadline_us: u64,
    ) -> ClientResult<Vec<Hit>> {
        Ok(self.range_detailed(descriptor, radius, deadline_us)?.hits)
    }

    /// [`Client::range`] keeping the reply's counters (always zero today
    /// — range search has no approximate path — but a gathering router
    /// forwards them rather than assuming so).
    pub fn range_detailed(
        &mut self,
        descriptor: &[f32],
        radius: f32,
        deadline_us: u64,
    ) -> ClientResult<HitsReply> {
        HitsReply::try_from(self.call(&Request::Range {
            radius,
            deadline_us,
            descriptor: descriptor.to_vec(),
        })?)
    }

    /// Self-excluding k-NN by database image id.
    pub fn knn_by_id(
        &mut self,
        id: usize,
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<Vec<Hit>> {
        Ok(self
            .knn_by_id_detailed(id, k, deadline_us, recall_target)?
            .hits)
    }

    /// [`Client::knn_by_id`] keeping the reply's approximate-search
    /// counters.
    pub fn knn_by_id_detailed(
        &mut self,
        id: usize,
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<HitsReply> {
        HitsReply::try_from(self.call(&Request::KnnById {
            k: wire_k(k)?,
            deadline_us,
            recall_target,
            id: id as u64,
        })?)
    }

    /// Pipelined send half of [`Client::knn`]: buffers the request
    /// without reading a reply. Call [`Client::flush`] after the window
    /// and [`Client::recv_hits`] once per outstanding request, in order.
    pub fn send_knn(
        &mut self,
        descriptor: &[f32],
        k: usize,
        deadline_us: u64,
        recall_target: f32,
    ) -> ClientResult<()> {
        Ok(self.write(&Request::Knn {
            k: wire_k(k)?,
            deadline_us,
            recall_target,
            descriptor: descriptor.to_vec(),
        })?)
    }

    /// Pipelined receive half: the next in-order hits reply.
    pub fn recv_hits(&mut self) -> ClientResult<Vec<Hit>> {
        Ok(self.recv_hits_detailed()?.hits)
    }

    /// Pipelined receive half keeping the reply's approximate-search
    /// counters.
    pub fn recv_hits_detailed(&mut self) -> ClientResult<HitsReply> {
        HitsReply::try_from(self.recv()?)
    }

    /// Liveness probe; returns `(database length, descriptor dim)`.
    pub fn ping(&mut self) -> ClientResult<(u64, u32)> {
        match self.call(&Request::Ping)? {
            Response::Pong { db_len, dim } => Ok((db_len, dim)),
            other => Err(ClientError::unexpected("pong", other)),
        }
    }

    /// Server counter snapshot.
    pub fn stats(&mut self) -> ClientResult<StatsSnapshot> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::unexpected("stats", other)),
        }
    }

    /// Server-side observability snapshot, rendered as JSON (or
    /// Prometheus text exposition when `prometheus` is set).
    pub fn obs_stats(&mut self, prometheus: bool) -> ClientResult<String> {
        match self.call(&Request::ObsStats { prometheus })? {
            Response::ObsText(text) => Ok(text),
            other => Err(ClientError::unexpected("obs text", other)),
        }
    }

    /// The server's sampled query traces, rendered as JSON.
    pub fn explain(&mut self) -> ClientResult<String> {
        match self.call(&Request::Explain)? {
            Response::ObsText(text) => Ok(text),
            other => Err(ClientError::unexpected("obs text", other)),
        }
    }

    /// Insert one descriptor into a live store; returns the assigned
    /// global id and the store epoch after the insert. Servers fronting
    /// a static database answer with a rejection.
    pub fn insert(
        &mut self,
        name: &str,
        label: Option<u32>,
        descriptor: &[f32],
    ) -> ClientResult<(u64, u64)> {
        match self.call(&Request::Insert {
            name: name.to_string(),
            label,
            descriptor: descriptor.to_vec(),
        })? {
            Response::InsertAck { id, epoch } => Ok((id, epoch)),
            other => Err(ClientError::unexpected("insert ack", other)),
        }
    }

    /// Tombstone the row with global id `id`; returns the store epoch
    /// after the delete.
    pub fn delete(&mut self, id: u64) -> ClientResult<u64> {
        match self.call(&Request::Delete { id })? {
            Response::DeleteAck { epoch } => Ok(epoch),
            other => Err(ClientError::unexpected("delete ack", other)),
        }
    }

    /// Fold the store's memtable and tombstones into fresh immutable
    /// segments; returns `(epoch, segments, rows)` after compaction.
    pub fn compact(&mut self) -> ClientResult<(u64, u32, u64)> {
        match self.call(&Request::Compact)? {
            Response::CompactAck {
                epoch,
                segments,
                rows,
            } => Ok((epoch, segments, rows)),
            other => Err(ClientError::unexpected("compact ack", other)),
        }
    }

    /// Fetch the stored descriptor of row `id`, bit-for-bit as the server
    /// holds it.
    pub fn get_descriptor(&mut self, id: u64) -> ClientResult<Vec<f32>> {
        match self.call(&Request::GetDescriptor { id })? {
            Response::Descriptor { descriptor } => Ok(descriptor),
            other => Err(ClientError::unexpected("descriptor", other)),
        }
    }

    /// Ask the server to drain and stop; returns once acknowledged.
    ///
    /// Must not be called with pipelined requests still unread: replies
    /// are in request order, so drain every outstanding
    /// [`Client::recv_hits`] first (or use the pipelined
    /// [`Client::send_shutdown`] / [`Client::recv_shutdown_ack`] pair).
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.send_shutdown()?;
        self.flush()?;
        self.recv_shutdown_ack()
    }

    /// Pipelined send half of [`Client::shutdown`]: buffers the shutdown
    /// op behind any outstanding requests without reading a reply.
    pub fn send_shutdown(&mut self) -> ClientResult<()> {
        Ok(self.write(&Request::Shutdown)?)
    }

    /// Pipelined receive half of [`Client::shutdown`]: expects the next
    /// in-order reply to be the shutdown acknowledgement.
    pub fn recv_shutdown_ack(&mut self) -> ClientResult<()> {
        match self.recv()? {
            Response::ShutdownAck => Ok(()),
            other => Err(ClientError::unexpected("shutdown ack", other)),
        }
    }
}
