//! The TCP server: lifecycle around the connection event loop.
//!
//! [`Server::spawn_corpus`] binds a listener and starts three kinds of
//! thread: the epoll **loop** that owns every socket (`crate::event_loop`
//! driving one [`crate::conn::Connection`] per client), the
//! **dispatcher** running [`Scheduler::run`] over the admission queue,
//! and one **mutation worker** that keeps `insert`/`delete`/`compact` off
//! the loop thread: a compaction rewrites only the segments that change,
//! but one that rewrites a 50,000-row segment still takes 65–80 ms, and
//! inserts queue behind it on the worker. The loop is built
//! on epoll, so serving requires Linux; elsewhere `spawn_corpus` returns
//! `ErrorKind::Unsupported`.
//!
//! A [`ServedCorpus`] is served the same way whether static or live: the
//! scheduler reads it through one pinned snapshot per batch; a static
//! corpus refuses mutation ops.
//!
//! The connection layer never blocks on execution: every request —
//! including admission rejections and control ops — claims exactly one
//! reply cell on its connection's in-order queue, so a connection may
//! keep many requests in flight (pipelining) and responses still arrive
//! in the order the requests were sent.
//!
//! Failures are isolated per connection: a malformed frame is answered
//! with an error reply and closes only that connection; a per-request
//! validation failure is answered and the connection stays usable.
//!
//! Graceful shutdown (client `shutdown` op or [`ServerHandle::shutdown`])
//! stops admission and accepting, shuts down the *read* half of every
//! connection, drains everything already admitted through the dispatcher,
//! flushes every queued reply, then joins all threads.

use crate::conn::Completions;
use crate::metrics::Metrics;
use crate::protocol::StatsSnapshot;
use crate::scheduler::{Scheduler, SchedulerConfig};
use cbir_core::{QueryEngine, ServedCorpus};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Completion token [`EventControl::trigger`] posts (not a connection).
pub(crate) const CONTROL_TOKEN: u64 = u64::MAX - 2;

/// Shutdown switch for a running connection loop, a node's or the
/// router's.
#[derive(Default)]
pub struct EventControl {
    pub(crate) stop: AtomicBool,
    pub(crate) completions: Arc<Completions>,
}

impl EventControl {
    /// Ask the loop to drain and exit. Idempotent; safe from any thread.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.completions.notify(CONTROL_TOKEN);
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] or [`ServerHandle::join`] detaches the
/// worker threads (they keep serving until the process exits).
pub struct ServerHandle {
    local_addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    metrics: Arc<Metrics>,
    control: Arc<EventControl>,
    threads: Vec<JoinHandle<()>>,
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
        self.control.trigger();
        self.join()
    }

    /// Wait for the server to finish (a client `shutdown` op, or a prior
    /// [`ServerHandle::shutdown`] call); returns the final counters.
    pub fn join(self) -> StatsSnapshot {
        // The loop thread exits once drained; dropping its side of the
        // mutation queue then releases the worker, and `begin_shutdown`
        // releases the dispatcher.
        for t in self.threads {
            let _ = t.join();
        }
        self.metrics.snapshot(0)
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
    /// store whose `Insert`/`Delete`/`Compact` ops run on the mutation
    /// worker while queries keep flowing through the scheduler against
    /// pinned snapshots.
    #[cfg(target_os = "linux")]
    pub fn spawn_corpus(
        corpus: ServedCorpus,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
    ) -> std::io::Result<ServerHandle> {
        use crate::conn::{control_response, NodeService};
        use crate::event_loop::Loop;
        use std::thread::Builder;

        let listener = std::net::TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let registry = metrics.registry().clone();
        if let Some(store) = corpus.store() {
            // The gauges it set when opened went to the opener's registry.
            registry.enter(|| store.snapshot().record_state());
        }
        let scheduler = Arc::new(Scheduler::new(corpus, config, Arc::clone(&metrics)));
        let (mutations, mutate_rx) = std::sync::mpsc::channel();
        let node = NodeService {
            scheduler: Arc::clone(&scheduler),
            mutations,
        };
        let lp = Loop::new(listener, node)?;
        let control = lp.control();

        let dispatcher = Arc::clone(&scheduler);
        let mutator = Arc::clone(&scheduler);
        // Every thread records into the instance's registry.
        let threads = vec![
            Builder::new()
                .name("cbir-dispatch".into())
                .spawn(move || dispatcher.metrics().registry().enter(|| dispatcher.run()))?,
            // One worker: mutations serialize on the store's writer lock
            // anyway; the point is keeping them off the loop thread.
            Builder::new().name("cbir-mutate".into()).spawn(move || {
                mutator.metrics().registry().enter(|| {
                    for (req, cell) in mutate_rx {
                        cell.fill(control_response(&mutator, req));
                    }
                })
            })?,
            Builder::new()
                .name("cbir-eloop".into())
                .spawn(move || registry.enter(|| lp.run()))?,
        ];

        Ok(ServerHandle {
            local_addr,
            scheduler,
            metrics,
            control,
            threads,
        })
    }

    /// Serving is built on epoll: no connection loop on this target.
    #[cfg(not(target_os = "linux"))]
    pub fn spawn_corpus(
        corpus: ServedCorpus,
        addr: impl ToSocketAddrs,
        config: SchedulerConfig,
    ) -> std::io::Result<ServerHandle> {
        let _ = (corpus, addr, config);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "the connection loop is built on epoll; serving requires linux",
        ))
    }
}
