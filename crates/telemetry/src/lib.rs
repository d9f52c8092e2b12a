//! Dependency-free observability for the broad-match stack.
//!
//! König et al. (ICDE 2009) argue from a main-memory cost model —
//! `Cost_Random` per hash probe vs a monotone `Cost_Scan(m)` per
//! sequentially scanned node — and calibrate it against measured memory
//! access counters. This crate is the runtime half of that argument: it
//! lets the live serving path expose the same quantities the model prices
//! (probes issued, nodes scanned, bytes consumed, remapped-node hits) next
//! to measured wall-clock, so predicted-vs-measured fit is a continuously
//! observable number rather than an offline claim.
//!
//! Three pieces, all std-only (atomics + mutexes, no external crates):
//!
//! - [`Registry`] — named, label-aware [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s with consistent snapshots and Prometheus text
//!   exposition ([`Registry::render_prometheus`]).
//! - [`LatencyHistogram`] — log-linear buckets over integer nanoseconds
//!   (< 1% relative error from 1 µs to ≈68 s): the one histogram type
//!   serve, net, core, bench and netsim record latencies into.
//! - [`Tracer`] — a 1-in-N sampling span tracer producing per-query
//!   [`QueryTrace`]s with probe-level statistics, in a bounded ring.
//!
//! Policy: this crate must remain dependency-free so every workspace
//! member (including leaf crates like `memcost` and `netsim`) can depend
//! on it without cycles; `scripts/check_no_external_deps.sh` enforces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod trace;

pub use histogram::LatencyHistogram;
pub use registry::{
    Counter, FamilySnapshot, Gauge, Histogram, MetricKind, MetricsSnapshot, Registry, Sample,
    SampleValue,
};
pub use trace::{
    ProbeTraceStats, QueryTrace, SpanGuard, SpanRecord, TraceBuilder, Tracer, DEFAULT_RING_CAP,
    DEFAULT_SAMPLE_EVERY,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    /// Satellite: N writer threads increment labeled counters while a
    /// reader snapshots; every snapshot must be internally consistent
    /// (counter <= writes issued so far is unobservable directly, but
    /// monotonicity across snapshots and the exact final total are).
    /// Writers and reader start together behind one barrier, and the reader
    /// leaves its loop only after a checked snapshot, so it runs at least
    /// once however the host schedules the threads.
    #[test]
    fn concurrent_registry_snapshots_are_monotone_and_consistent() {
        const WRITERS: usize = 8;
        const INCS: u64 = 20_000;
        let registry = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(WRITERS + 1));

        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let registry = Arc::clone(&registry);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let shard = format!("{}", w % 4);
                    let c = registry.counter(
                        "stress_ops_total",
                        "Stress operations",
                        &[("shard", &shard)],
                    );
                    let g = registry.gauge("stress_depth", "Stress depth", &[]);
                    for i in 0..INCS {
                        c.inc();
                        if i % 1024 == 0 {
                            g.set(i as f64);
                        }
                    }
                })
            })
            .collect();

        let reader = {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut last_total = 0u64;
                let mut last_per_label = std::collections::BTreeMap::new();
                let mut iterations = 0u64;
                start.wait();
                loop {
                    // Read before the snapshot, so the last one sees every write.
                    let done = stop.load(Ordering::Relaxed);
                    let snap = registry.snapshot();
                    let total = snap.counter_total("stress_ops_total");
                    assert!(
                        total >= last_total,
                        "total went backwards: {last_total} -> {total}"
                    );
                    last_total = total;
                    if let Some(fam) = snap.families.iter().find(|f| f.name == "stress_ops_total") {
                        let mut sum = 0u64;
                        for s in &fam.samples {
                            let v = match s.value {
                                SampleValue::Counter(v) => v,
                                _ => panic!("wrong kind"),
                            };
                            let prev = last_per_label.insert(s.labels.clone(), v).unwrap_or(0);
                            assert!(v >= prev, "label {} went backwards", s.labels);
                            sum += v;
                        }
                        // Internal consistency: the per-label values the
                        // snapshot reports must sum to what it reports as
                        // the family total (same frozen copy).
                        assert_eq!(sum, total);
                    }
                    iterations += 1;
                    if done {
                        break;
                    }
                }
                iterations
            })
        };

        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let iterations = reader.join().expect("reader panicked");
        assert!(iterations > 0, "reader never ran");

        let final_total = registry.snapshot().counter_total("stress_ops_total");
        assert_eq!(final_total, WRITERS as u64 * INCS);
    }

    /// Satellite: golden test for the Prometheus text exposition format.
    #[test]
    fn prometheus_exposition_golden() {
        let registry = Registry::new();
        registry
            .counter(
                "broadmatch_probes_total",
                "Hash probes issued",
                &[("shard", "0")],
            )
            .add(41);
        registry
            .counter(
                "broadmatch_probes_total",
                "Hash probes issued",
                &[("shard", "1")],
            )
            .add(1);
        registry
            .gauge("serve_snapshot_version", "Published index version", &[])
            .set(3.0);
        let h = registry.histogram("serve_query_latency_ms", "End-to-end query latency", &[]);
        h.record(0.008);
        h.record(1.0);
        h.record(6.0);
        h.record(100.0);

        let expected = "\
# HELP broadmatch_probes_total Hash probes issued
# TYPE broadmatch_probes_total counter
broadmatch_probes_total{shard=\"0\"} 41
broadmatch_probes_total{shard=\"1\"} 1
# HELP serve_query_latency_ms End-to-end query latency
# TYPE serve_query_latency_ms histogram
serve_query_latency_ms_bucket{le=\"0.001\"} 0
serve_query_latency_ms_bucket{le=\"0.002\"} 0
serve_query_latency_ms_bucket{le=\"0.004\"} 0
serve_query_latency_ms_bucket{le=\"0.008\"} 1
serve_query_latency_ms_bucket{le=\"0.016\"} 1
serve_query_latency_ms_bucket{le=\"0.032\"} 1
serve_query_latency_ms_bucket{le=\"0.064\"} 1
serve_query_latency_ms_bucket{le=\"0.128\"} 1
serve_query_latency_ms_bucket{le=\"0.256\"} 1
serve_query_latency_ms_bucket{le=\"0.512\"} 1
serve_query_latency_ms_bucket{le=\"1.024\"} 2
serve_query_latency_ms_bucket{le=\"2.048\"} 2
serve_query_latency_ms_bucket{le=\"4.096\"} 2
serve_query_latency_ms_bucket{le=\"8.192\"} 3
serve_query_latency_ms_bucket{le=\"16.384\"} 3
serve_query_latency_ms_bucket{le=\"32.768\"} 3
serve_query_latency_ms_bucket{le=\"65.536\"} 3
serve_query_latency_ms_bucket{le=\"131.072\"} 4
serve_query_latency_ms_bucket{le=\"262.144\"} 4
serve_query_latency_ms_bucket{le=\"524.288\"} 4
serve_query_latency_ms_bucket{le=\"1048.576\"} 4
serve_query_latency_ms_bucket{le=\"2097.152\"} 4
serve_query_latency_ms_bucket{le=\"4194.304\"} 4
serve_query_latency_ms_bucket{le=\"8388.608\"} 4
serve_query_latency_ms_bucket{le=\"16777.216\"} 4
serve_query_latency_ms_bucket{le=\"33554.432\"} 4
serve_query_latency_ms_bucket{le=\"67108.864\"} 4
serve_query_latency_ms_bucket{le=\"+Inf\"} 4
serve_query_latency_ms_sum 107.008
serve_query_latency_ms_count 4
# HELP serve_snapshot_version Published index version
# TYPE serve_snapshot_version gauge
serve_snapshot_version 3
";
        assert_eq!(registry.render_prometheus(), expected);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global().counter("global_smoke_total", "smoke", &[]);
        let b = Registry::global().counter("global_smoke_total", "smoke", &[]);
        a.inc();
        assert_eq!(b.get(), a.get());
    }
}
