//! `broadmatch-serve`: a lock-free-read serving runtime for the ICDE 2009
//! broad-match index.
//!
//! The paper's data structure answers a broad-match query by probing a
//! hash directory with every subset (up to the locator bound) of the query
//! word set. This crate serves that structure to many concurrent callers,
//! resting on one property: **the index is immutable between rebuilds.**
//! Reoptimization (remapping, maintenance compaction) produces a *new*
//! index, which [`ServeRuntime::publish`] swaps in atomically via an
//! RCU-style [`ArcSwap`]: readers take **zero locks** on the index, never
//! block on a publish, and each query sees exactly one consistent
//! snapshot.
//!
//! Each query runs whole on the thread that submitted it, as on the
//! paper's index server (§VII-B): plan, execute, finish, then merge the
//! delta overlay of online updates ([`UpdateConfig`]). Results are
//! bit-identical to single-threaded execution — hits, order and
//! statistics. In front sits one admission gate: at most `n_workers`
//! queries execute at once, at most `queue_capacity` more wait, and past
//! that a caller is refused with a retry-after hint instead of queueing
//! unboundedly. A full `broadmatch-telemetry` registry records end-to-end
//! and execution latency histograms ([`LatencyHistogram`], re-exported
//! from the telemetry crate; log-linear, resolving the µs regime queries
//! run in, and the same type the `broadmatch-netsim` simulator reports
//! Fig. 9 from — so measured service times feed straight back into the
//! paper's network-capacity model) — plus
//! probe/scan counters, wait-line depth and snapshot-age gauges, a
//! sampling span tracer, and Prometheus text exposition via
//! [`ServeRuntime::prometheus`].
//!
//! ```
//! use std::sync::Arc;
//! use broadmatch::{AdInfo, IndexBuilder, MatchType};
//! use broadmatch_serve::{ServeConfig, ServeRuntime};
//!
//! let mut builder = IndexBuilder::new();
//! builder.add("cheap used books", AdInfo::with_bid(1, 25)).unwrap();
//! let index = Arc::new(builder.build().unwrap());
//!
//! let runtime = ServeRuntime::start(index, ServeConfig::default());
//! let resp = runtime.query("cheap used books online", MatchType::Broad).unwrap();
//! assert_eq!(resp.hits.len(), 1);
//! assert_eq!(resp.version, 1);
//! ```
//!
//! Unsafe code is confined to [`arcswap`] (the core crate forbids unsafe
//! entirely); everything here is std-only.

#![warn(missing_docs)]

pub mod arcswap;
pub mod poison;
pub mod runtime;
pub mod update;

pub use arcswap::ArcSwap;
// The latency histogram lives in `broadmatch-telemetry` so every crate
// shares one implementation; re-exported for `ServeMetrics` users.
pub use broadmatch_telemetry::LatencyHistogram;
pub use runtime::{QueryResponse, ServeConfig, ServeError, ServeMetrics, ServeRuntime};
pub use update::{UpdateConfig, UpdateOp};
