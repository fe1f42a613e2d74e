//! The TCP server: accept loop, per-connection framing, and lifecycle.
//!
//! Two interchangeable connection engines sit behind one
//! [`ServerHandle`]:
//!
//! * **Blocking** ([`Server::spawn_corpus`]): each connection gets a
//!   reader thread (decode frames, admit work) and a writer thread
//!   (encode replies in request order).
//! * **Event-driven** ([`Server::spawn_event_corpus`]): a single epoll
//!   loop thread owns every socket and reassembles frames incrementally;
//!   see [`crate::event_loop`]. Linux/x86-64 only.
//!
//! Both engines speak the same wire protocol, share the same scheduler,
//! and produce bit-identical query replies — the event engine is a
//! capacity upgrade, not a behavior change. Either serves a
//! [`ServedCorpus`]: the scheduler reads a static and a live one alike,
//! through one pinned snapshot per batch; static refuses mutation ops.
//!
//! In either engine the connection layer never blocks on execution:
//! every request — including admission rejections and control ops —
//! produces exactly one reply slot pushed onto the connection's in-order
//! reply queue, so a connection may keep many requests in flight
//! (pipelining) and responses still arrive in the order the requests
//! were sent.
//!
//! Failures are isolated per connection: a malformed frame is answered
//! with an error reply and closes only that connection; a per-request
//! validation failure is answered and the connection stays usable.
//!
//! Graceful shutdown (client `shutdown` op or [`ServerHandle::shutdown`])
//! stops admission and accepting, shuts down the *read* half of every
//! connection, drains everything already admitted through the dispatcher,
//! flushes every queued reply, then joins all threads.

use crate::conn::{control_response, query_work};
use crate::metrics::Metrics;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, StatsSnapshot,
};
use crate::scheduler::{Pending, QueryWork, ReplySink, Scheduler, SchedulerConfig};
use cbir_core::{QueryEngine, ServedCorpus};
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection registry: read-half handles used to unblock reader threads
/// at shutdown, plus the closing flag that stops new registrations.
/// Entries are keyed by a connection token so a finished connection can
/// drop its clone — otherwise the registry would hold every socket open
/// (and leak one fd per connection) for the server's whole lifetime.
struct ConnRegistry {
    streams: Vec<(u64, TcpStream)>,
    next_token: u64,
    closing: bool,
}

/// Shared shutdown switch: idempotently stops admission, accepting, and
/// reading, leaving write halves open so queued replies still flush.
struct Controller {
    scheduler: Arc<Scheduler>,
    conns: Mutex<ConnRegistry>,
    local_addr: SocketAddr,
    triggered: AtomicBool,
}

impl Controller {
    /// Register a live connection; `None` means the server is closing
    /// and the stream should be dropped instead of served. The returned
    /// token must be passed to [`Controller::deregister`] when the
    /// connection ends.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let mut reg = self.conns.lock().expect("conn registry lock");
        if reg.closing {
            return None;
        }
        let token = reg.next_token;
        reg.next_token += 1;
        if let Ok(clone) = stream.try_clone() {
            reg.streams.push((token, clone));
        }
        Some(token)
    }

    /// Drop the registry's clone of a finished connection so the socket
    /// actually closes when the reader and writer halves are done.
    fn deregister(&self, token: u64) {
        let mut reg = self.conns.lock().expect("conn registry lock");
        reg.streams.retain(|(t, _)| *t != token);
    }

    fn trigger(&self) {
        if self.triggered.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop admitting; the dispatcher will drain what remains.
        self.scheduler.begin_shutdown();
        {
            let mut reg = self.conns.lock().expect("conn registry lock");
            reg.closing = true;
            for (_, s) in &reg.streams {
                // Read half only: readers see EOF, writers keep flushing.
                let _ = s.shutdown(Shutdown::Read);
            }
        }
        // Unblock the accept loop; the dummy connection is refused by
        // `register` and dropped.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// Tuning knobs for the event-driven engine
/// ([`Server::spawn_event_corpus`]).
#[derive(Clone, Debug)]
pub struct EventLoopConfig {
    /// Hard cap on simultaneously open connections; new sockets beyond
    /// the cap are accepted and immediately closed so the kernel backlog
    /// cannot grow unbounded.
    pub max_conns: usize,
    /// Threads servicing mutation ops (`insert`/`delete`/`compact`).
    /// Mutations serialize on the store's writer lock anyway, so one is
    /// usually right; the point is keeping them off the loop thread.
    pub mutation_workers: usize,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            max_conns: 8192,
            mutation_workers: 1,
        }
    }
}

/// Which connection engine is running behind a [`ServerHandle`].
enum Engine {
    /// Thread-per-connection reader/writer pairs.
    Blocking {
        controller: Arc<Controller>,
        acceptor: JoinHandle<()>,
        dispatcher: JoinHandle<()>,
        conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    },
    /// Single epoll loop plus a compute worker pool.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Event {
        control: Arc<crate::event_loop::EventControl>,
        threads: Vec<JoinHandle<()>>,
    },
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::join`] detaches the
/// worker threads (they keep serving until the process exits).
pub struct ServerHandle {
    local_addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    metrics: Arc<Metrics>,
    engine: Engine,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live counter snapshot.
    pub fn metrics(&self) -> StatsSnapshot {
        self.metrics.snapshot(self.scheduler.queue_depth())
    }

    /// Make the next executed batch group panic mid-execution. Test
    /// hook for exercising panic isolation over a real connection.
    #[doc(hidden)]
    pub fn trip_panic_trap(&self) {
        self.scheduler.trip_panic_trap();
    }

    /// Initiate graceful shutdown and wait for it to complete; returns
    /// the final counter snapshot.
    pub fn shutdown(self) -> StatsSnapshot {
        match &self.engine {
            Engine::Blocking { controller, .. } => controller.trigger(),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Engine::Event { control, .. } => control.trigger(),
        }
        self.join()
    }

    /// Wait for the server to finish (a client `shutdown` op, or a prior
    /// [`ServerHandle::shutdown`] call); returns the final counters.
    pub fn join(self) -> StatsSnapshot {
        let ServerHandle {
            metrics, engine, ..
        } = self;
        match engine {
            Engine::Blocking {
                acceptor,
                dispatcher,
                conn_threads,
                ..
            } => {
                let _ = acceptor.join();
                let _ = dispatcher.join();
                // Connection readers exit on EOF/read-shutdown; each
                // joins its own writer after the reply queue drains.
                let handles = std::mem::take(&mut *conn_threads.lock().expect("conn threads lock"));
                for h in handles {
                    let _ = h.join();
                }
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Engine::Event { threads, .. } => {
                // The loop thread exits once drained; dropping its side
                // of the mutation queue then releases the workers, and
                // `begin_shutdown` releases the dispatcher.
                for t in threads {
                    let _ = t.join();
                }
            }
        }
        metrics.snapshot(0)
    }
}

/// The serving entry point.
pub struct Server;

impl Server {
    /// [`Server::spawn_corpus`] over a static engine, which the caller
    /// may keep a handle to (tests compare server responses against
    /// direct engine calls). Mutation ops are refused: the engine is
    /// immutable.
    pub fn spawn_shared(
        engine: Arc<QueryEngine>,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::spawn_corpus(ServedCorpus::Static(engine), addr, config)
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// a [`ServedCorpus`] until shutdown: a static engine, or a live
    /// store whose `Insert`/`Delete`/`Compact` ops are answered inline on
    /// the connection thread (queries keep flowing through the scheduler
    /// against pinned snapshots).
    pub fn spawn_corpus(
        corpus: ServedCorpus,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let scheduler = Arc::new(Scheduler::new(corpus, config, Arc::clone(&metrics)));
        let controller = Arc::new(Controller {
            scheduler: Arc::clone(&scheduler),
            conns: Mutex::new(ConnRegistry {
                streams: Vec::new(),
                next_token: 0,
                closing: false,
            }),
            local_addr,
            triggered: AtomicBool::new(false),
        });
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let dispatcher = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::Builder::new()
                .name("cbir-dispatch".into())
                .spawn(move || scheduler.run())?
        };

        let acceptor = {
            let controller = Arc::clone(&controller);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("cbir-accept".into())
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // The writer already coalesces replies via
                            // BufWriter + explicit flushes; Nagle on top
                            // of that only delays flushed segments.
                            let _ = stream.set_nodelay(true);
                            let Some(token) = controller.register(&stream) else {
                                break; // shutting down
                            };
                            let controller = Arc::clone(&controller);
                            let spawned = std::thread::Builder::new()
                                .name("cbir-conn".into())
                                .spawn(move || serve_connection(stream, controller, token));
                            if let Ok(h) = spawned {
                                conn_threads.lock().expect("conn threads lock").push(h);
                            }
                        }
                        Err(e) => {
                            if controller.triggered.load(Ordering::SeqCst) {
                                break;
                            }
                            // Transient accept failures (EMFILE/ENFILE
                            // under fd pressure, aborted handshakes)
                            // must not kill the listener: log, pause
                            // briefly so an exhausted-fd condition does
                            // not hot-spin, and keep accepting.
                            eprintln!("cbir-server: accept error (continuing): {e}");
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                })?
        };

        Ok(ServerHandle {
            local_addr,
            scheduler,
            metrics,
            engine: Engine::Blocking {
                controller,
                acceptor,
                dispatcher,
                conn_threads,
            },
        })
    }

    /// [`Server::spawn_corpus`] on the event-driven epoll engine: one loop
    /// thread owns every socket instead of two threads per connection.
    /// Linux/x86-64 only; other targets get `ErrorKind::Unsupported`.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub fn spawn_event_corpus(
        corpus: ServedCorpus,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
        event_config: EventLoopConfig,
    ) -> std::io::Result<ServerHandle> {
        let parts = crate::event_loop::spawn(corpus, addr, config, event_config)?;
        Ok(ServerHandle {
            local_addr: parts.local_addr,
            scheduler: parts.scheduler,
            metrics: parts.metrics,
            engine: Engine::Event {
                control: parts.control,
                threads: parts.threads,
            },
        })
    }

    /// Stub on targets without the raw-epoll backend.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub fn spawn_event_corpus(
        corpus: ServedCorpus,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
        event_config: EventLoopConfig,
    ) -> std::io::Result<ServerHandle> {
        let _ = (corpus, addr, config, event_config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the event-loop engine requires linux/x86-64; use the blocking engine",
        ))
    }
}

/// Reader half of one connection: decode frames, admit work, and push one
/// in-order reply slot per request. Spawns and finally joins the writer.
fn serve_connection(stream: TcpStream, controller: Arc<Controller>, token: u64) {
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            controller.deregister(token);
            return;
        }
    };
    // Bound both directions: an idle peer is reaped by the read
    // timeout, a peer that stops draining responses by the write
    // timeout. Neither can wedge a connection thread forever.
    let metrics = controller.scheduler.shared_metrics();
    {
        let config = controller.scheduler.config();
        let _ = stream.set_read_timeout(config.idle_timeout);
        let _ = writer_stream.set_write_timeout(config.write_timeout);
    }
    let (slots_tx, slots_rx): (Sender<Receiver<Response>>, _) = channel();
    let writer = {
        let metrics = Arc::clone(&metrics);
        std::thread::Builder::new()
            .name("cbir-write".into())
            .spawn(move || write_replies(writer_stream, slots_rx, metrics))
    };

    let scheduler = &controller.scheduler;
    let mut reader = BufReader::new(stream);
    // Every request produces exactly one slot, pushed before the next
    // frame is read, so replies leave in request order.
    let respond_now = |resp: Response| {
        let (tx, rx) = sync_channel(1);
        let _ = tx.send(resp);
        let _ = slots_tx.send(rx);
    };
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break, // clean EOF (or read-half shutdown)
            Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                // Idle (or stalled) peer: reap the connection silently.
                // No courtesy error frame — an unsolicited reply would
                // desync the client's request/response pairing if a
                // request did arrive later.
                metrics.on_io_timeout();
                break;
            }
            Err(e) => {
                // Corrupt stream: answer if possible, then isolate the
                // failure by closing only this connection.
                respond_now(Response::Error(format!("malformed frame: {e}")));
                break;
            }
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                respond_now(Response::Error(format!("malformed request: {e}")));
                break;
            }
        };
        match request {
            Request::Shutdown => {
                respond_now(Response::ShutdownAck);
                controller.trigger();
                break;
            }
            req => match query_work(req) {
                Ok((work, deadline_us)) => submit_query(scheduler, &slots_tx, work, deadline_us),
                // Control ops and mutations are answered inline on the
                // connection thread: mutations take the store's writer
                // lock and publish a new snapshot, while queries already
                // admitted keep executing against their pinned
                // (pre-mutation) snapshots. Shared with the event
                // engine so both paths reply byte-for-byte alike.
                Err(req) => respond_now(control_response(scheduler, req)),
            },
        }
    }
    // Close the slot queue; the writer flushes what remains and exits.
    drop(slots_tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
    controller.deregister(token);
}

fn submit_query(
    scheduler: &Scheduler,
    slots_tx: &Sender<Receiver<Response>>,
    work: QueryWork,
    deadline_us: u64,
) {
    let now = Instant::now();
    let (tx, rx) = sync_channel(1);
    let _ = slots_tx.send(rx);
    scheduler.submit(Pending {
        work,
        deadline: (deadline_us > 0).then(|| now + Duration::from_micros(deadline_us)),
        enqueued: now,
        reply: ReplySink::Channel(tx),
    });
}

/// Writer half: emit replies in slot order, flushing whenever the next
/// reply isn't immediately ready (batched syscalls under load, prompt
/// delivery when idle).
///
/// A write failure closes the whole connection: the socket is shut down
/// both ways so the reader (possibly blocked on a quiet peer) wakes up
/// instead of lingering until its own timeout. Timeouts — a peer that
/// stopped draining — are counted in `io_timeouts`.
fn write_replies(stream: TcpStream, slots: Receiver<Receiver<Response>>, metrics: Arc<Metrics>) {
    let mut out = BufWriter::new(stream);
    let mut dirty = false;
    let abort = |out: &BufWriter<TcpStream>, e: &std::io::Error| {
        if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
            metrics.on_io_timeout();
        }
        let _ = out.get_ref().shutdown(Shutdown::Both);
    };
    loop {
        let slot = match slots.try_recv() {
            Ok(s) => s,
            Err(TryRecvError::Empty) => {
                if dirty {
                    if let Err(e) = out.flush() {
                        abort(&out, &e);
                        return;
                    }
                }
                dirty = false;
                match slots.recv() {
                    Ok(s) => s,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let response = match slot.try_recv() {
            Ok(r) => r,
            Err(_) => {
                // About to block on an executing request: flush what is
                // already encoded so finished replies reach the client.
                if dirty {
                    if let Err(e) = out.flush() {
                        abort(&out, &e);
                        return;
                    }
                }
                slot.recv()
                    .unwrap_or_else(|_| Response::Error("internal: reply dropped".into()))
            }
        };
        if let Err(e) = write_frame(&mut out, &encode_response(&response)) {
            abort(&out, &e);
            return;
        }
        dirty = true;
    }
    if let Err(e) = out.flush() {
        abort(&out, &e);
    }
}
