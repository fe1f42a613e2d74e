//! A small idle-connection pool over [`Client`].
//!
//! A scatter-gather router serves many concurrent front-side connections,
//! and each request fans out to every shard backend; opening a fresh TCP
//! connection per fan-out leg would put a connect round-trip on every
//! query *and* defeat the backend's micro-batch scheduler (batches form
//! from concurrent in-flight requests on established connections). The
//! pool keeps connections that finished a request warm for the next one.
//!
//! The discipline is **check out / check in**: [`ClientPool::get`] pops
//! an idle connection (or dials a new one), and the caller returns it
//! with [`ClientPool::put`] only after a successful exchange. A
//! connection that saw any error is simply dropped — the next `get`
//! dials a replacement — so a poisoned stream (half-written frame,
//! desynced reply order) can never be handed to another request.

use crate::client::Client;
use std::sync::Mutex;

/// An idle-connection pool for one backend address.
pub struct ClientPool {
    addr: String,
    idle: Mutex<Vec<Client>>,
    max_idle: usize,
}

impl ClientPool {
    /// A pool dialing `addr`, keeping at most `max_idle` warm connections
    /// (returns beyond the cap are dropped and close their socket).
    pub fn new(addr: impl Into<String>, max_idle: usize) -> ClientPool {
        ClientPool {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
            max_idle,
        }
    }

    /// Check out a connection: an idle one when available, otherwise a
    /// fresh dial. Fails only when dialing fails.
    pub fn get(&self) -> std::io::Result<Client> {
        if let Some(c) = self.idle.lock().unwrap().pop() {
            return Ok(c);
        }
        Client::connect(&self.addr)
    }

    /// Check a connection back in after a *successful* exchange. Never
    /// return a connection that saw an error — drop it instead.
    pub fn put(&self, client: Client) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }

    /// Warm connections currently parked in the pool.
    #[cfg(test)]
    fn idle_len(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    /// Drop every idle connection (e.g. when a replica is marked
    /// unhealthy: parked streams to a dead process would all fail their
    /// next request anyway).
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    // The pool only needs an accepting socket; no protocol traffic flows
    // in these tests.
    fn listener() -> (TcpListener, String) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        (l, addr)
    }

    #[test]
    fn connections_are_reused_and_capped() {
        let (listener, addr) = listener();
        let accept = std::thread::spawn(move || {
            // Park accepted sockets so they stay open for the test body.
            let mut held = Vec::new();
            for stream in listener.incoming().take(3) {
                held.push(stream.unwrap());
            }
            // Wait for the far end to close everything down.
            for s in &mut held {
                let _ = s.read(&mut [0u8; 1]);
            }
        });
        let pool = ClientPool::new(&addr, 2);
        assert_eq!(pool.idle_len(), 0);
        let a = pool.get().unwrap();
        let b = pool.get().unwrap();
        let c = pool.get().unwrap();
        pool.put(a);
        pool.put(b);
        pool.put(c); // beyond max_idle: dropped
        assert_eq!(pool.idle_len(), 2);
        // Reuse does not dial: take both warm connections back out.
        let _a = pool.get().unwrap();
        let _b = pool.get().unwrap();
        assert_eq!(pool.idle_len(), 0);
        pool.clear();
        drop((_a, _b));
        accept.join().unwrap();
    }

    #[test]
    fn get_fails_when_nobody_listens() {
        let (listener, addr) = listener();
        drop(listener);
        let pool = ClientPool::new(&addr, 4);
        assert!(pool.get().is_err());
    }
}
