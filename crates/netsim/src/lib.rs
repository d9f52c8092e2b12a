//! Discrete-event simulation of the two-server ad-retrieval deployment
//! (Section VII-B).
//!
//! When the corpus outgrows one machine, the paper splits the index and the
//! advertisement data across servers, so *every* query pays network latency
//! between an index server and an ad server. The experiment's point: the
//! hash structure's CPU-side win survives — CPU utilization fell 98% → 42%,
//! requests/s rose 2274 → 5775, and the latency distribution shifted left
//! (75% of requests under 10 ms vs 32%, Fig. 9).
//!
//! We reproduce the deployment as an open-loop discrete-event simulation:
//! Poisson arrivals → network hop → queue at the index server (`c` workers,
//! service time drawn from a measured per-query cost distribution) →
//! network hop → queue at the ad server → done. [`saturate`] searches for
//! the arrival rate at which throughput stops improving, which is how the
//! paper loads its servers ("we set the inter-arrival time between queries
//! as high as possible until one of the structures did not increase in
//! throughput").
//!
//! The [`fanout`] module extends the same machinery to the sharded
//! scatter-gather topology that `broadmatch-net` builds for real: one
//! query fans out to every shard backend and completes on the slowest
//! leg. `experiments net-throughput` runs both — a measured loopback
//! cluster and [`run_fanout`] with the same topology and calibrated
//! service times — and puts measured vs predicted side by side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod des;
pub mod fanout;
mod model;

pub use des::EventQueue;
pub use fanout::{run_fanout, saturate_fanout, FanoutConfig, FanoutReport};
pub use model::{run_simulation, saturate};
pub use model::{ServiceDist, SimReport, TwoServerConfig};
