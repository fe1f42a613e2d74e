//! # `cbir-server` — the network query-serving layer
//!
//! A long-running TCP server that keeps a built corpus hot — a
//! [`cbir_core::QueryEngine`] or a live [`cbir_core::CorpusStore`], read
//! through the [`cbir_core::CorpusSnapshot`] it pins per batch — and
//! answers similarity queries over the `CBIRRPC1` length-prefixed binary
//! protocol, plus the matching blocking [`Client`].
//!
//! The serving model is **dynamic micro-batching**: decoded query
//! [`Request`]s land, as they are, in a bounded admission queue; a
//! dispatcher claims up to `max_batch` of them (waiting at most
//! `max_delay` for stragglers) and executes the whole batch through the
//! snapshot's amortized `knn_batch`/`range_batch` path. Under load, per-request dispatch
//! overhead — wakeups, scratch setup, allocator traffic — is paid once
//! per batch instead of once per query; responses stay **bit-identical**
//! to direct engine calls because the batched path itself is
//! bit-identical to the single-query path (the PR 1 contract).
//!
//! Overload is handled by **admission control**, not queueing: when the
//! bounded queue is full, requests are shed immediately with an explicit
//! overloaded reply, and per-request deadlines expire queued work that
//! can no longer be answered in time. Shutdown is graceful — admitted
//! work is drained and answered before the server stops.
//!
//! Connections are served by one epoll loop thread driving a
//! transport-agnostic [`Connection`] state machine per socket (see
//! [`server`]), so serving requires Linux; the client, protocol, retry,
//! pool and chaos-proxy modules build on any Unix. What the loop does
//! with a decoded request is a [`Service`]: [`NodeService`] here, the
//! router's in `cbir-router`, which runs the same loop.
//!
//! ```no_run
//! use cbir_core::{ImageDatabase, IndexKind, QueryEngine};
//! use cbir_distance::Measure;
//! use cbir_features::Pipeline;
//! use cbir_server::{Client, SchedulerConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let db = ImageDatabase::new(Pipeline::color_histogram_default());
//! // ... insert images ...
//! let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1)?;
//! let engine = std::sync::Arc::new(engine);
//! let handle = Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default())?;
//!
//! let mut client = Client::connect(handle.local_addr())?;
//! let (db_len, dim) = client.ping()?;
//! let hits = client.knn(&vec![0.0; dim as usize], 10, 0, 1.0)?;
//! client.shutdown()?;
//! handle.join();
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod chaosnet;
pub mod client;
pub mod conn;
#[cfg(target_os = "linux")]
pub mod event_loop;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod retry;
pub mod scheduler;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;

pub use chaosnet::{ChaosHandle, ChaosProxy, ChaosStats, WireMode};
pub use client::{Client, ClientError, ClientResult, HitsReply, Rejection};
pub use conn::{Completions, Connection, NodeService, ReplyCell, Service};
pub use metrics::Metrics;
pub use pool::ClientPool;
pub use protocol::{FrameDecoder, Hit, Request, Response, StatsSnapshot, WireError};
pub use retry::{RetryPolicy, RetryStats, RetryingClient};
pub use scheduler::{Pending, Scheduler, SchedulerConfig};
pub use server::{EventControl, Server, ServerHandle};
