//! net-throughput — a real loopback cluster (3 shard backends behind the
//! scatter-gather router, every byte over TCP) measured against the
//! netsim fan-out model of the *same* topology.
//!
//! Closed-loop clients replay a trace through
//! [`broadmatch_net::Router::query`]; the measured per-backend service
//! times and per-hop network latency then parameterize
//! [`broadmatch_netsim::FanoutConfig`], and the simulator re-predicts
//! the cluster — once at the measured arrival rate (latency comparison)
//! and once saturated (capacity comparison). The model deliberately
//! omits hedging, so measured hedge/timeout counts are reported
//! alongside to make any gap attributable.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use broadmatch::MatchType;
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd, QueryGenConfig, Workload};
use broadmatch_net::{
    partition_of, Backend, BackendConfig, Request, Response, Router, RouterConfig,
};
use broadmatch_netsim::{run_fanout, saturate_fanout, FanoutConfig, ServiceDist};
use broadmatch_serve::{ServeConfig, ServeRuntime};
use broadmatch_telemetry::Registry;

use crate::table::{fi, Table};
use crate::Scale;

/// Shard backends in the loopback cluster.
const N_BACKENDS: usize = 3;

/// Worker threads per backend runtime (also the station width handed to
/// the fan-out model).
const BACKEND_WORKERS: usize = 2;

/// Concurrent closed-loop clients driving the router.
const N_CLIENTS: usize = 8;

/// Quantiles of each backend's execution-latency histogram that seed the
/// model's service-time distribution.
const SERVICE_QUANTILES: usize = 1_000;

/// Measured cluster behaviour vs the fan-out model's prediction.
#[derive(Debug, Clone)]
pub struct NetThroughputReport {
    /// Aggregate routed queries per second over the replay.
    pub measured_qps: f64,
    /// Measured median end-to-end latency, ms.
    pub measured_p50_ms: f64,
    /// Measured 99th-percentile end-to-end latency, ms.
    pub measured_p99_ms: f64,
    /// Model latency prediction at the measured arrival rate, median ms.
    pub predicted_p50_ms: f64,
    /// Model latency prediction at the measured arrival rate, p99 ms.
    pub predicted_p99_ms: f64,
    /// Model capacity prediction (saturation search), queries/second.
    pub predicted_qps: f64,
    /// Hedged retries the router dispatched during the replay.
    pub hedges: u64,
    /// Per-backend deadline expirations during the replay.
    pub timeouts: u64,
    /// Responses returned with the degraded flag set.
    pub degraded: u64,
}

/// Generate the corpus, split it by [`partition_of`] — the same function
/// the router uses to route mutations — and sample a replay trace over
/// the *whole* corpus so broad matches land on every shard.
fn build_scenario(scale: Scale, seed: u64) -> (Vec<Vec<GeneratedAd>>, Vec<String>) {
    let n_ads = match scale {
        Scale::Small => 9_000,
        _ => 60_000,
    };
    let trace_len = match scale {
        Scale::Small => 2_000,
        _ => 20_000,
    };
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_ads, seed));
    let workload = Workload::generate(
        QueryGenConfig::benchmark(n_ads / 10, seed.wrapping_add(1)),
        &corpus,
    );
    let mut parts = vec![Vec::new(); N_BACKENDS];
    for ad in corpus.ads() {
        parts[partition_of(&ad.phrase, N_BACKENDS)].push(ad.clone());
    }
    let trace = workload
        .sample_trace(trace_len, seed ^ 0x5E57)
        .into_iter()
        .map(str::to_string)
        .collect();
    (parts, trace)
}

fn start_backend(ads: &[GeneratedAd]) -> Backend {
    let mut builder = broadmatch::IndexBuilder::new();
    for ad in ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("generated phrases are valid");
    }
    let index = Arc::new(builder.build().expect("valid config"));
    let runtime = ServeRuntime::start(
        index,
        ServeConfig {
            n_workers: BACKEND_WORKERS,
            queue_capacity: 512,
            trace_sample_every: 0,
            ..ServeConfig::default()
        },
    );
    Backend::bind("127.0.0.1:0", Arc::new(runtime), BackendConfig::default())
        .expect("bind loopback")
}

/// Estimate per-hop network latency from Health round trips: the Health
/// opcode does no index work, so `rtt / 2` is one hop plus the fixed
/// frame + dispatch overhead — exactly what the model's `hop()` should
/// cost. Returns `(floor_ms, jitter_ms)` for the exponential hop model.
fn measure_hop(router: &Router) -> (f64, f64) {
    let mut rtts = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        if matches!(
            router.call_backend(0, &Request::Health),
            Ok(Response::Health { .. })
        ) {
            rtts.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    if rtts.is_empty() {
        return (0.05, 0.0);
    }
    let min = rtts.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
    ((min / 2.0).max(1e-4), ((mean - min) / 2.0).max(0.0))
}

/// Run the loopback cluster vs the fan-out model; prints the comparison
/// and returns the data.
pub fn run(scale: Scale, seed: u64) -> NetThroughputReport {
    println!("== net-throughput: loopback TCP cluster vs netsim fan-out model ==");
    let (parts, trace) = build_scenario(scale, seed);
    let backends: Vec<Backend> = parts.iter().map(|p| start_backend(p)).collect();
    let registry = Arc::new(Registry::new());
    let router = Router::new(
        backends.iter().map(Backend::local_addr).collect(),
        RouterConfig::default(),
        Arc::clone(&registry),
    );
    println!(
        "cluster: {N_BACKENDS} backends x {BACKEND_WORKERS} workers, shard sizes {:?}, \
         trace of {} queries, {N_CLIENTS} closed-loop clients",
        parts.iter().map(Vec::len).collect::<Vec<_>>(),
        trace.len()
    );

    // Hop calibration before the load run, on an idle cluster.
    let (hop_floor_ms, hop_jitter_ms) = measure_hop(&router);
    println!(
        "hop calibration from Health RTTs: {hop_floor_ms:.4} ms floor + \
         {hop_jitter_ms:.4} ms mean jitter per one-way hop"
    );

    // The measured leg: closed-loop clients over real sockets.
    let next = AtomicUsize::new(0);
    let degraded = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..N_CLIENTS {
            s.spawn(|| loop {
                // ORDER: Relaxed — work-distribution counter; uniqueness from fetch_add, no memory published through it.
                let i = next.fetch_add(1, Relaxed);
                let Some(query) = trace.get(i) else { return };
                let routed = router.query(query, MatchType::Broad);
                std::hint::black_box(routed.hits.len());
                if routed.degraded {
                    // ORDER: Relaxed — benchmark statistic; exactness from the RMW, ordering irrelevant.
                    degraded.fetch_add(1, Relaxed);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let measured_qps = trace.len() as f64 / wall;

    let routed_latency = registry
        .histogram(
            "net_router_query_latency_ms",
            "End-to-end routed query latency",
            &[],
        )
        .snapshot();
    let snap = registry.snapshot();
    let hedges = snap.counter_total("net_router_hedges_total");
    let timeouts = snap.counter_total("net_router_timeouts_total");
    // ORDER: Relaxed — final single-threaded readback after the scope joins.
    let degraded = degraded.load(Relaxed);

    // Service-time calibration: what one backend's execution slot spends
    // per query, measured under the real concurrent load. The station's
    // service time is `exec_latency` (admission → finish, wait excluded);
    // the model adds its own queueing, so seeding it with the wait-included
    // `query_latency` would count the wait twice. Each backend's histogram
    // is sampled at evenly spaced quantiles. The wire encode/decode and
    // connection-handler time around the runtime — per-backend RTT minus
    // two hops minus the runtime's whole `query_latency` — is spent in
    // per-connection threads, which scale with connections rather than
    // with the execution slots, so it belongs in the model's hop term, not
    // in the station service time: folding it into service would wrongly
    // cap modeled capacity at workers / (service + wire).
    let mut service_samples = Vec::new();
    let mut serve_mean_sum = 0.0;
    for b in &backends {
        let m = b.runtime().metrics();
        serve_mean_sum += m.query_latency.mean_ms();
        service_samples.extend((1..=SERVICE_QUANTILES).map(|i| {
            m.exec_latency
                .percentile_ms((i as f64 - 0.5) / SERVICE_QUANTILES as f64)
        }));
    }
    let serve_mean = serve_mean_sum / backends.len() as f64;
    let backend_rtt_mean = {
        let mut sum = 0.0;
        let mut n = 0u64;
        for i in 0..N_BACKENDS {
            let label = i.to_string();
            let h = registry
                .histogram(
                    "net_backend_latency_ms",
                    "Per-backend round-trip latency",
                    &[("backend", &label)],
                )
                .snapshot();
            if h.total() > 0 {
                sum += h.mean_ms() * h.total() as f64;
                n += h.total();
            }
        }
        sum / n.max(1) as f64
    };
    let hop_mean = hop_floor_ms + hop_jitter_ms;
    let wire_overhead_ms = (backend_rtt_mean - 2.0 * hop_mean - serve_mean).max(0.0);
    let service = ServiceDist::from_samples(service_samples);
    println!(
        "service calibration: {:.3} ms mean exec time from {SERVICE_QUANTILES} \
         histogram quantiles per backend ({serve_mean:.3} ms mean in the runtime, \
         wait included); \
         {wire_overhead_ms:.3} ms per-leg wire overhead (backend RTT mean \
         {backend_rtt_mean:.3} ms) folded into the hop term",
        service.mean()
    );

    // The predicted leg: same topology through the fan-out model. Each
    // leg pays two hops, so the per-leg wire overhead splits across them.
    let fanout = FanoutConfig {
        net_latency_ms: hop_floor_ms + wire_overhead_ms / 2.0,
        net_jitter_ms: hop_jitter_ms,
        n_backends: N_BACKENDS,
        backend_workers: BACKEND_WORKERS,
        backend_service: service,
        seed,
    };
    let n_sim = (trace.len() as u32).max(2_000);
    let at_measured_rate = run_fanout(&fanout, measured_qps.max(1.0), n_sim);
    let saturated = saturate_fanout(&fanout, n_sim, 2.0);

    let mut t = Table::new(&["", "qps", "p50 ms", "p99 ms", "mean ms"]);
    t.row_owned(vec![
        "measured (loopback TCP)".into(),
        fi(measured_qps),
        format!("{:.3}", routed_latency.percentile_ms(0.50)),
        format!("{:.3}", routed_latency.percentile_ms(0.99)),
        format!("{:.3}", routed_latency.mean_ms()),
    ]);
    t.row_owned(vec![
        "predicted @ measured rate".into(),
        fi(measured_qps),
        format!("{:.3}", at_measured_rate.latency.percentile_ms(0.50)),
        format!("{:.3}", at_measured_rate.latency.percentile_ms(0.99)),
        format!("{:.3}", at_measured_rate.mean_latency_ms),
    ]);
    t.row_owned(vec![
        "predicted @ saturation".into(),
        fi(saturated.throughput_qps),
        format!("{:.3}", saturated.latency.percentile_ms(0.50)),
        format!("{:.3}", saturated.latency.percentile_ms(0.99)),
        format!("{:.3}", saturated.mean_latency_ms),
    ]);
    t.print();
    println!(
        "tail control during the replay: {hedges} hedges, {timeouts} timeouts, \
         {degraded} degraded responses over {} queries\n\
         (the model is unhedged — measured tails below prediction are the hedges working)\n",
        trace.len()
    );

    NetThroughputReport {
        measured_qps,
        measured_p50_ms: routed_latency.percentile_ms(0.50),
        measured_p99_ms: routed_latency.percentile_ms(0.99),
        predicted_p50_ms: at_measured_rate.latency.percentile_ms(0.50),
        predicted_p99_ms: at_measured_rate.latency.percentile_ms(0.99),
        predicted_qps: saturated.throughput_qps,
        hedges,
        timeouts,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_cluster_measures_and_predicts() {
        let r = run(Scale::Small, 41);
        assert!(r.measured_qps > 0.0, "cluster served the trace");
        assert!(r.measured_p50_ms >= 0.0 && r.measured_p99_ms >= r.measured_p50_ms);
        assert!(r.predicted_qps > 0.0, "model produced a capacity estimate");
        // Percentiles resolve µs, so the model's latency spread shows.
        assert!(
            r.predicted_p50_ms < r.predicted_p99_ms,
            "model p50 {} < p99 {}",
            r.predicted_p50_ms,
            r.predicted_p99_ms
        );
        // A healthy loopback cluster may hedge stragglers but must not
        // lose shards outright.
        assert_eq!(r.degraded, 0, "healthy loopback cluster degraded");
    }
}
