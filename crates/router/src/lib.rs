//! # `cbir-router` — the sharded, replicated scatter-gather serving tier
//!
//! A [`Router`] is a `CBIRRPC1` server whose backends are `CBIRRPC1`
//! servers: it speaks the existing wire protocol on both sides, so every
//! client and tool in this workspace works against a router unchanged.
//! A corpus is split into per-shard stores by the deterministic
//! [`cbir_core::ShardPlan`] arithmetic (the `cbir shard-plan` tool);
//! each shard is served by a replica group of ordinary `cbir serve`
//! processes; the router fans searches out, translates per-shard ids
//! back to global ids, and k-way-merges the per-shard top-k under the
//! same `(distance, id)` tie-break the backends sort with. Its front
//! side is the servers' epoll connection loop, so routing, like
//! serving, requires Linux.
//!
//! Two properties carry the tier:
//!
//! * **Bit-identity** — on the exact path (`recall_target = 1.0`) a
//!   router reply is frame-level byte-identical to a single node
//!   serving the union corpus (see [`merge`] and the e2e tests).
//! * **Failover** — a replica that fails a request under the transient
//!   classification (plus a draining backend's `ShuttingDown`) is
//!   retried on a sibling replica and put on cooldown; queries keep
//!   answering, bit-identically, while a replica is down
//!   (see [`backend`]).
//!
//! Per-shard/per-replica health, failover, shed, and latency counters
//! flow through `cbir_obs` and come out of `stats --format prometheus`
//! with `{shard=…,replica=…}` labels.
//!
//! ```no_run
//! use cbir_core::{ShardPlan, ShardScheme};
//! use cbir_router::{Router, RouterConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let plan = ShardPlan::new(ShardScheme::Mod, 64, 10_000, 2).unwrap();
//! let handle = Router::spawn(
//!     plan,
//!     vec![
//!         vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()], // shard 0
//!         vec!["127.0.0.1:7003".into(), "127.0.0.1:7004".into()], // shard 1
//!     ],
//!     "127.0.0.1:7878",
//!     RouterConfig::default(),
//! )?;
//! // Any CBIRRPC1 client can now query the union corpus through
//! // handle.local_addr().
//! # drop(handle); Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod jsonmerge;
pub mod merge;
pub mod router;

pub use backend::{should_failover, Replica, ShardClient};
pub use merge::{hit_order, kway_merge, merge_topk};
pub use router::{Router, RouterConfig, RouterHandle, ROUTE_WORKERS};
