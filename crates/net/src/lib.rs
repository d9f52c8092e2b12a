//! `broadmatch-net`: a real TCP cluster layer for the broad-match serving
//! runtime.
//!
//! `broadmatch-netsim` (Section VII-B of the paper) *predicts* what a
//! multi-server deployment of the index would do; this crate *builds* one
//! and measures it, over loopback or a real network, using only `std`:
//!
//! * [`wire`] — a versioned, length-prefixed binary protocol. Every
//!   operation of the serving runtime (query, insert, remove, compact,
//!   metrics, health, op-log subscribe) is one frame; the decoder is total
//!   and panic-free on arbitrary bytes.
//! * [`server`] — a backend: thread-per-connection TCP server with a
//!   bounded accept budget, handing decoded frames to an embedded
//!   [`broadmatch_serve::ServeRuntime`] and reusing its admission control
//!   (overload surfaces as a wire-level `Overloaded` error with the same
//!   retry-after hint).
//! * [`router`] — the front end: scatter-gathers a query across shard
//!   backends with per-backend deadlines and one hedged retry for
//!   stragglers; backend failure degrades the response (partial results,
//!   `degraded` flag, per-shard status) instead of failing it.
//! * [`replica`] — update shipping: replicas poll the primary runtime's
//!   op log ([`broadmatch_serve::ServeRuntime::log_since`], every
//!   insert/remove in commit order) and replay it locally, converging to
//!   bit-identical answers.
//!
//! Everything reports through `broadmatch-telemetry` (`net_*` families),
//! and `experiments net-throughput` closes the loop against the netsim
//! prediction for the same topology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod replica;
pub mod router;
pub mod server;
pub mod wire;

pub use metrics::NetMetrics;
pub use replica::{ReplicaConfig, ReplicaSyncer};
pub use router::{partition_of, RoutedResponse, Router, RouterConfig, ShardState, ShardStatus};
pub use server::{call, Backend, BackendConfig};
pub use wire::{ErrorCode, ErrorReply, Frame, Opcode, QueryReply, Request, Response, WireError};
