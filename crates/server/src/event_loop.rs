//! The connection event loop: one thread, every socket — a node's or
//! the router's.
//!
//! The loop thread accepts, reassembles frames incrementally
//! ([`crate::protocol::FrameDecoder`]), hands decoded requests to its
//! [`Service`] (a node answers control ops inline and sends queries to
//! the micro-batch scheduler and mutations to its mutation worker; the
//! router hands every request to its route workers), and flushes each
//! connection's in-order reply queue as sockets become writable. Compute
//! threads never touch a socket: they fill [`crate::conn::ReplyCell`]s,
//! which post the connection token to a [`crate::conn::Completions`]
//! mailbox and wake the loop through a pipe.
//!
//! A connection costs one registered fd and a [`Connection`] struct, so
//! thousands of concurrent, pipelined connections fit in one process.
//! The contracts the loop keeps — replies in request order, a mutation
//! as a per-connection dispatch barrier, frames reassembled before an
//! EOF or a corrupt byte still answered with the error reply queued
//! behind them, silent idle reaping, bounded write stalls, graceful
//! drain — are pinned over real sockets by
//! `tests/{serve_e2e,hardening,churn,wire}.rs` (and the router's
//! `router_e2e` and `churn`) and byte-exactly by the scripted-transport
//! harness in `tests/event_loop.rs`.

use crate::conn::{dispatch_ready, Connection, ReadStatus, Service, WriteStatus};
use crate::protocol::Stat;
use crate::server::{EventControl, CONTROL_TOKEN};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loop token of the listener socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Loop token of the waker pipe's read end.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: u64 = 0;
/// Hard cap on simultaneously open connections; sockets beyond it are
/// accepted and immediately closed so neither the kernel backlog nor the
/// connection table can grow unbounded.
const MAX_CONNS: usize = 8192;

/// One registered connection: its socket, state machine, and the
/// interest mask currently programmed into epoll.
struct Entry {
    stream: TcpStream,
    conn: Connection,
    interest: u32,
}

/// The loop thread's state: the epoll instance, what is registered with
/// it, and the service dispatch hands requests to.
pub struct Loop<S> {
    epoll: Epoll,
    listener: TcpListener,
    waker_rx: UnixStream,
    conns: HashMap<u64, Entry>,
    next_token: u64,
    service: S,
    control: Arc<EventControl>,
    draining: bool,
}

impl<S: Service> Loop<S> {
    /// Register `listener` and a fresh waker pipe (whose write end the
    /// loop's completion mailbox gets) with a new epoll instance. Every
    /// thread that fills a reply cell wakes the loop through the mailbox.
    pub fn new(listener: TcpListener, service: S) -> std::io::Result<Loop<S>> {
        listener.set_nonblocking(true)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let control = Arc::new(EventControl::default());
        control.completions.set_waker(waker_tx);

        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(waker_rx.as_raw_fd(), EPOLLIN, WAKER_TOKEN)?;
        Ok(Loop {
            epoll,
            listener,
            waker_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            service,
            control,
            draining: false,
        })
    }

    /// This loop's shutdown switch.
    pub fn control(&self) -> Arc<EventControl> {
        Arc::clone(&self.control)
    }

    /// Serve until drained after a shutdown request, then drop the
    /// service (which is how a node's mutation worker and the router's
    /// route workers learn to exit).
    pub fn run(mut self) {
        let sweep_every = self.sweep_interval();
        let mut last_sweep = Instant::now();
        let mut events = vec![EpollEvent::default(); 512];
        let mut scratch = vec![0u8; 64 << 10];
        loop {
            let timeout_ms = if self.draining {
                10
            } else {
                sweep_every.as_millis() as i32
            };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("cbir-server: epoll_wait failed, stopping loop: {e}");
                    return;
                }
            };
            self.service.metrics().count(Stat::EpollWakeups);
            let now = Instant::now();

            let fired: Vec<(u64, u32)> = events[..n].iter().map(|e| (e.data, e.events)).collect();
            for (token, bits) in fired {
                match token {
                    LISTENER_TOKEN => self.accept_ready(now),
                    WAKER_TOKEN => self.drain_waker(),
                    t => self.conn_event(t, bits, now, &mut scratch),
                }
            }

            // Completions posted by compute threads since the last pass:
            // pump exactly those connections (and dispatch frames a
            // cleared mutation barrier was holding back).
            for token in self.control.completions.drain() {
                if token == CONTROL_TOKEN {
                    continue; // handled via the stop flag below
                }
                self.progress(token, now);
            }

            if self.control.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }

            if now.saturating_duration_since(last_sweep) >= sweep_every {
                last_sweep = now;
                self.sweep(now);
            }

            self.service.metrics().set_open_conns(self.conns.len());
            if self.draining && self.conns.is_empty() {
                return;
            }
        }
    }

    /// Reap-granularity: a quarter of the tightest configured timeout,
    /// clamped to [25ms, 1s].
    fn sweep_interval(&self) -> Duration {
        let (idle, write) = self.service.timeouts();
        let tightest = [idle, write]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Duration::from_secs(4));
        (tightest / 4).clamp(Duration::from_millis(25), Duration::from_secs(1))
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // refused: dropped immediately
                    }
                    if self.conns.len() >= MAX_CONNS {
                        // At capacity: close immediately rather than
                        // queue unbounded connection state.
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Entry {
                            stream,
                            conn: Connection::new(token, now),
                            interest,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    // Transient accept failures (EMFILE under fd
                    // pressure, aborted handshakes) must not kill the
                    // loop; pause briefly so an exhausted-fd condition
                    // does not hot-spin (level-triggered epoll will
                    // re-report the listener).
                    eprintln!("cbir-server: accept error (continuing): {e}");
                    std::thread::sleep(Duration::from_millis(10));
                    return;
                }
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.waker_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Handle readiness on one connection, then settle it.
    fn conn_event(&mut self, token: u64, bits: u32, now: Instant, scratch: &mut [u8]) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return; // already closed; stale event
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            // Socket error or full hangup: nothing we read or write goes
            // anywhere, and both conditions are level-triggered — keeping
            // the fd registered would spin the loop. Drop it.
            self.remove(token);
            return;
        }
        let mut shutdown_requested = false;
        let mut dead = false;

        if bits & EPOLLOUT != 0 && entry.conn.wants_write() {
            dead = entry.conn.write_to(&mut &entry.stream, now) == WriteStatus::Gone;
        }
        if !dead {
            if !entry.conn.read_closed() {
                match entry.conn.read_from(&mut &entry.stream, scratch, now) {
                    ReadStatus::Open => {}
                    ReadStatus::Eof => entry.conn.close_read(),
                    // Corrupt stream: frames ahead of the corruption are
                    // answered by the dispatch below, then the error
                    // reply closes only this connection.
                    ReadStatus::Corrupt(e) => entry.conn.set_corrupt(e),
                    ReadStatus::Gone => dead = true,
                }
            }
            if !dead {
                shutdown_requested =
                    dispatch_ready(&mut entry.conn, &self.service, &self.control.completions);
                let depth = entry.conn.inflight_len() as u64;
                self.service.metrics().on_pipeline_depth(depth);
            }
        }

        if dead {
            self.remove(token);
        } else {
            self.settle(token, now);
        }
        if shutdown_requested {
            self.begin_drain();
        }
    }

    /// A compute thread finished something for `token`: flush completed
    /// replies and dispatch anything a mutation barrier was holding.
    fn progress(&mut self, token: u64, now: Instant) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        // Even after reading stopped, a cleared mutation barrier may be
        // holding reassembled frames (or an owed corrupt-stream error)
        // that still need to dispatch.
        let shutdown_requested =
            dispatch_ready(&mut entry.conn, &self.service, &self.control.completions);
        self.settle(token, now);
        if shutdown_requested {
            self.begin_drain();
        }
    }

    /// Pump completed replies into the buffer, flush opportunistically,
    /// reconcile epoll interest, and close the connection once finished.
    fn settle(&mut self, token: u64, now: Instant) {
        let Some(entry) = self.conns.get_mut(&token) else {
            return;
        };
        entry.conn.pump();
        if entry.conn.wants_write()
            && entry.conn.write_to(&mut &entry.stream, now) == WriteStatus::Gone
        {
            self.remove(token);
            return;
        }
        let entry = self.conns.get_mut(&token).expect("entry still present");
        if entry.conn.finished() {
            self.remove(token);
            return;
        }
        let want = if entry.conn.read_closed() {
            0
        } else {
            EPOLLIN | EPOLLRDHUP
        } | if entry.conn.wants_write() {
            EPOLLOUT
        } else {
            0
        };
        if want != entry.interest {
            if self
                .epoll
                .modify(entry.stream.as_raw_fd(), want, token)
                .is_err()
            {
                self.remove(token);
                return;
            }
            entry.interest = want;
        }
    }

    fn remove(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(&token) {
            let _ = self.epoll.del(entry.stream.as_raw_fd());
            // Dropping the stream closes the fd.
        }
    }

    /// Start the graceful drain: stop admitting and accepting, stop
    /// reading on every connection, and let in-flight replies flush.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.service.begin_shutdown();
        let _ = self.epoll.del(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let now = Instant::now();
        for token in tokens {
            if let Some(entry) = self.conns.get_mut(&token) {
                entry.conn.close_read();
                entry.conn.discard_frames();
                // Read half only: the peer sees EOF; queued replies
                // still flush through the write half.
                let _ = entry.stream.shutdown(Shutdown::Read);
            }
            self.settle(token, now);
        }
    }

    /// Periodic pass: reap idle peers, bound write stalls, and collect
    /// connections that finished while no event was pending.
    fn sweep(&mut self, now: Instant) {
        let (idle_timeout, write_timeout) = self.service.timeouts();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(entry) = self.conns.get_mut(&token) else {
                continue;
            };
            if let Some(limit) = idle_timeout {
                if !entry.conn.read_closed() && entry.conn.idle_for(now) >= limit {
                    // Idle peer: reap silently. No courtesy error frame
                    // — an unsolicited reply would desync the client's
                    // request/response pairing if a request did arrive
                    // later. In-flight replies (if any) still flush
                    // before the socket closes.
                    self.service.metrics().count(Stat::IoTimeouts);
                    entry.conn.close_read();
                    entry.conn.discard_frames();
                    let _ = entry.stream.shutdown(Shutdown::Read);
                }
            }
            if let Some(limit) = write_timeout {
                if entry.conn.stalled_for(now).is_some_and(|d| d >= limit) {
                    // A peer that stopped draining responses: counted
                    // and closed both ways.
                    self.service.metrics().count(Stat::IoTimeouts);
                    let _ = entry.stream.shutdown(Shutdown::Both);
                    self.remove(token);
                    continue;
                }
            }
            self.settle(token, now);
        }
    }
}
