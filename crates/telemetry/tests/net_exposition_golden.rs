//! Golden test: the `net_*` metric families render a byte-stable
//! Prometheus exposition.
//!
//! This locks the *names, help strings, types, and label sets* that
//! `broadmatch-net` registers — the contract a scrape config and the CI
//! exposition greps depend on. Renaming a family, changing its help
//! text, or dropping a label is a breaking change to dashboards and must
//! show up here as a deliberate golden update.

use broadmatch_net::metrics::{NetMetrics, ReplicaMetrics, RouterMetrics};
use broadmatch_telemetry::Registry;

/// The `le` bounds every histogram renders, in ms: the octave edges
/// 1 µs·2^k up to ≈67 s.
const LE_BOUNDS: [&str; 27] = [
    "0.001",
    "0.002",
    "0.004",
    "0.008",
    "0.016",
    "0.032",
    "0.064",
    "0.128",
    "0.256",
    "0.512",
    "1.024",
    "2.048",
    "4.096",
    "8.192",
    "16.384",
    "32.768",
    "65.536",
    "131.072",
    "262.144",
    "524.288",
    "1048.576",
    "2097.152",
    "4194.304",
    "8388.608",
    "16777.216",
    "33554.432",
    "67108.864",
];

/// The exposition of a freshly registered (empty) histogram family
/// sample: 27 cumulative octave-edge buckets, `+Inf`, sum and count — all
/// zero. `labels` is the canonical label body (`""` for none).
fn empty_histogram(name: &str, labels: &str) -> String {
    let mut out = String::new();
    let body = |extra: &str| {
        if labels.is_empty() {
            format!("{{{extra}}}")
        } else {
            format!("{{{labels},{extra}}}")
        }
    };
    for le in LE_BOUNDS {
        out.push_str(&format!(
            "{name}_bucket{} 0\n",
            body(&format!("le=\"{le}\""))
        ));
    }
    out.push_str(&format!("{name}_bucket{} 0\n", body("le=\"+Inf\"")));
    let scalar = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{scalar} 0\n"));
    out.push_str(&format!("{name}_count{scalar} 0\n"));
    out
}

#[test]
fn net_families_render_a_stable_exposition() {
    let registry = Registry::new();
    let _backend = NetMetrics::register(&registry);
    let _router = RouterMetrics::register(&registry, 2);
    let _replica = ReplicaMetrics::register(&registry);

    let mut expected = String::new();
    expected.push_str(
        "# HELP net_backend_failures_total Per-backend connect/transport/decode failures\n\
         # TYPE net_backend_failures_total counter\n\
         net_backend_failures_total{backend=\"0\"} 0\n\
         net_backend_failures_total{backend=\"1\"} 0\n",
    );
    expected.push_str(
        "# HELP net_backend_latency_ms Per-backend round-trip latency\n\
         # TYPE net_backend_latency_ms histogram\n",
    );
    expected.push_str(&empty_histogram("net_backend_latency_ms", "backend=\"0\""));
    expected.push_str(&empty_histogram("net_backend_latency_ms", "backend=\"1\""));
    expected.push_str(
        "# HELP net_connections_active Connections currently open\n\
         # TYPE net_connections_active gauge\n\
         net_connections_active 0\n",
    );
    expected.push_str(
        "# HELP net_connections_refused_total Connections refused by the accept budget\n\
         # TYPE net_connections_refused_total counter\n\
         net_connections_refused_total 0\n",
    );
    expected.push_str(
        "# HELP net_connections_total Connections accepted over the server's lifetime\n\
         # TYPE net_connections_total counter\n\
         net_connections_total 0\n",
    );
    expected.push_str(
        "# HELP net_decode_errors_total Frames that failed to decode\n\
         # TYPE net_decode_errors_total counter\n\
         net_decode_errors_total 0\n",
    );
    expected.push_str(
        "# HELP net_errors_out_total Error responses sent\n\
         # TYPE net_errors_out_total counter\n\
         net_errors_out_total 0\n",
    );
    expected.push_str(
        "# HELP net_frames_in_total Frames decoded off the wire\n\
         # TYPE net_frames_in_total counter\n\
         net_frames_in_total 0\n",
    );
    expected.push_str(
        "# HELP net_frames_out_total Frames written to the wire\n\
         # TYPE net_frames_out_total counter\n\
         net_frames_out_total 0\n",
    );
    expected.push_str(
        "# HELP net_replica_lag_ops Ops behind the primary's head at the last poll\n\
         # TYPE net_replica_lag_ops gauge\n\
         net_replica_lag_ops 0\n",
    );
    expected.push_str(
        "# HELP net_replica_ops_applied_total Op-log entries applied locally\n\
         # TYPE net_replica_ops_applied_total counter\n\
         net_replica_ops_applied_total 0\n",
    );
    expected.push_str(
        "# HELP net_replica_reconnects_total Times the subscription connection was \
         re-established\n\
         # TYPE net_replica_reconnects_total counter\n\
         net_replica_reconnects_total 0\n",
    );
    expected.push_str(
        "# HELP net_router_degraded_total Responses returned degraded\n\
         # TYPE net_router_degraded_total counter\n\
         net_router_degraded_total 0\n",
    );
    expected.push_str(
        "# HELP net_router_hedges_total Hedged retries dispatched\n\
         # TYPE net_router_hedges_total counter\n\
         net_router_hedges_total 0\n",
    );
    expected.push_str(
        "# HELP net_router_query_latency_ms End-to-end routed query latency\n\
         # TYPE net_router_query_latency_ms histogram\n",
    );
    expected.push_str(&empty_histogram("net_router_query_latency_ms", ""));
    expected.push_str(
        "# HELP net_router_requests_total Queries routed\n\
         # TYPE net_router_requests_total counter\n\
         net_router_requests_total 0\n",
    );
    expected.push_str(
        "# HELP net_router_timeouts_total Per-backend requests that hit their deadline\n\
         # TYPE net_router_timeouts_total counter\n\
         net_router_timeouts_total 0\n",
    );

    let rendered = registry.render_prometheus();
    if rendered != expected {
        // Line-level diff makes a golden mismatch reviewable.
        for (i, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
            assert_eq!(got, want, "exposition diverges at line {}", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            expected.lines().count(),
            "exposition has extra or missing lines"
        );
    }
}

#[test]
fn net_counters_and_histograms_render_recorded_values() {
    let registry = Registry::new();
    let net = NetMetrics::register(&registry);
    let router = RouterMetrics::register(&registry, 1);
    net.connections_total.inc();
    net.connections_total.inc();
    net.frames_in_total.add(5);
    router.query_latency.record(7.25);
    router.query_latency.record(203.0);
    router.query_latency.record(0.031);

    let out = registry.render_prometheus();
    assert!(out.contains("net_connections_total 2\n"));
    assert!(out.contains("net_frames_in_total 5\n"));
    assert!(out.contains("net_router_query_latency_ms_bucket{le=\"0.016\"} 0\n"));
    assert!(out.contains("net_router_query_latency_ms_bucket{le=\"0.032\"} 1\n"));
    assert!(out.contains("net_router_query_latency_ms_bucket{le=\"8.192\"} 2\n"));
    assert!(out.contains("net_router_query_latency_ms_bucket{le=\"262.144\"} 3\n"));
    assert!(out.contains("net_router_query_latency_ms_bucket{le=\"+Inf\"} 3\n"));
    assert!(out.contains("net_router_query_latency_ms_sum 210.281\n"));
    assert!(out.contains("net_router_query_latency_ms_count 3\n"));
}
