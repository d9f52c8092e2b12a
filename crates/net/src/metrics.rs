//! The `net_*` telemetry families.
//!
//! Backends register into the *embedded runtime's* registry, so one
//! `Metrics` frame (or `ServeRuntime::prometheus`) exposes the serve and
//! net families together. The router keeps its own registry (it has no
//! runtime) with per-backend latency histograms of the same log-linear
//! type as `serve_query_latency_ms` and netsim's reports — measured
//! cluster latencies feed straight into the capacity-model comparison.

use std::sync::Arc;

use broadmatch_telemetry::{Counter, Gauge, Histogram, Registry};

/// Pre-registered handles for a backend server.
#[derive(Debug)]
pub struct NetMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections_total: Arc<Counter>,
    /// Connections currently open.
    pub connections_active: Arc<Gauge>,
    /// Connections refused because the accept budget was exhausted.
    pub connections_refused_total: Arc<Counter>,
    /// Frames decoded off the wire.
    pub frames_in_total: Arc<Counter>,
    /// Frames written to the wire.
    pub frames_out_total: Arc<Counter>,
    /// Frames that failed to decode (bad magic/version/opcode/payload).
    pub decode_errors_total: Arc<Counter>,
    /// Error responses sent (admission rejects, bad requests, ...).
    pub errors_out_total: Arc<Counter>,
}

impl NetMetrics {
    /// Register the backend families in `registry`.
    pub fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            connections_total: registry.counter(
                "net_connections_total",
                "Connections accepted over the server's lifetime",
                &[],
            ),
            connections_active: registry.gauge(
                "net_connections_active",
                "Connections currently open",
                &[],
            ),
            connections_refused_total: registry.counter(
                "net_connections_refused_total",
                "Connections refused by the accept budget",
                &[],
            ),
            frames_in_total: registry.counter(
                "net_frames_in_total",
                "Frames decoded off the wire",
                &[],
            ),
            frames_out_total: registry.counter(
                "net_frames_out_total",
                "Frames written to the wire",
                &[],
            ),
            decode_errors_total: registry.counter(
                "net_decode_errors_total",
                "Frames that failed to decode",
                &[],
            ),
            errors_out_total: registry.counter("net_errors_out_total", "Error responses sent", &[]),
        }
    }
}

/// Pre-registered handles for the scatter-gather router.
#[derive(Debug)]
pub struct RouterMetrics {
    /// Queries routed.
    pub requests_total: Arc<Counter>,
    /// Per-backend requests that hit their deadline.
    pub timeouts_total: Arc<Counter>,
    /// Hedged retries dispatched after the hedge threshold.
    pub hedges_total: Arc<Counter>,
    /// Responses returned with the degraded flag set.
    pub degraded_total: Arc<Counter>,
    /// End-to-end routed query latency.
    pub query_latency: Arc<Histogram>,
    /// Per-backend round-trip latency.
    pub backend_latency: Vec<Arc<Histogram>>,
    /// Per-backend failures (connect/transport/decode, not overload).
    pub backend_failures: Vec<Arc<Counter>>,
}

impl RouterMetrics {
    /// Register the router families in `registry` for `n_backends`.
    pub fn register(registry: &Registry, n_backends: usize) -> RouterMetrics {
        let mut backend_latency = Vec::with_capacity(n_backends);
        let mut backend_failures = Vec::with_capacity(n_backends);
        for b in 0..n_backends {
            let label = b.to_string();
            backend_latency.push(registry.histogram(
                "net_backend_latency_ms",
                "Per-backend round-trip latency",
                &[("backend", &label)],
            ));
            backend_failures.push(registry.counter(
                "net_backend_failures_total",
                "Per-backend connect/transport/decode failures",
                &[("backend", &label)],
            ));
        }
        RouterMetrics {
            requests_total: registry.counter("net_router_requests_total", "Queries routed", &[]),
            timeouts_total: registry.counter(
                "net_router_timeouts_total",
                "Per-backend requests that hit their deadline",
                &[],
            ),
            hedges_total: registry.counter(
                "net_router_hedges_total",
                "Hedged retries dispatched",
                &[],
            ),
            degraded_total: registry.counter(
                "net_router_degraded_total",
                "Responses returned degraded",
                &[],
            ),
            query_latency: registry.histogram(
                "net_router_query_latency_ms",
                "End-to-end routed query latency",
                &[],
            ),
            backend_latency,
            backend_failures,
        }
    }
}

/// Pre-registered handles for a replica syncer.
#[derive(Debug)]
pub struct ReplicaMetrics {
    /// Op-log entries applied locally.
    pub ops_applied_total: Arc<Counter>,
    /// Ops behind the primary's head at the last poll.
    pub lag_ops: Arc<Gauge>,
    /// Times the subscription connection was re-established.
    pub reconnects_total: Arc<Counter>,
}

impl ReplicaMetrics {
    /// Register the replica families in `registry`.
    pub fn register(registry: &Registry) -> ReplicaMetrics {
        ReplicaMetrics {
            ops_applied_total: registry.counter(
                "net_replica_ops_applied_total",
                "Op-log entries applied locally",
                &[],
            ),
            lag_ops: registry.gauge(
                "net_replica_lag_ops",
                "Ops behind the primary's head at the last poll",
                &[],
            ),
            reconnects_total: registry.counter(
                "net_replica_reconnects_total",
                "Times the subscription connection was re-established",
                &[],
            ),
        }
    }
}
