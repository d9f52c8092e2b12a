//! A scatter-gather fan-out queueing model — the simulated twin of the
//! `broadmatch-net` router + backend topology.
//!
//! One query fans out to **all** `n_backends` shard backends (probe
//! spaces partition, so every backend owns part of the answer); the
//! response leaves the router only when the **slowest** leg returns.
//! Each leg is: hop to the backend → FIFO service at a `c`-worker
//! station → hop back. End-to-end latency is therefore
//!
//! ```text
//! hop(client→router) + max_b [ hop + wait_b + service_b + hop ] + hop(router→client)
//! ```
//!
//! which makes the fan-out *tail-bound*: p50 of the cluster tracks the
//! per-backend p50 plus hops, but the max over `n` legs drags the
//! cluster median toward the per-backend tail — exactly the effect the
//! `net-throughput` experiment measures on the real loopback cluster,
//! and the reason the real router hedges stragglers.
//!
//! The model deliberately omits hedging: it predicts the *unhedged*
//! topology, and the comparison table reports measured hedges separately
//! so the gap is attributable.

use broadmatch_rng::{Pcg32, RandomSource};
use broadmatch_telemetry::LatencyHistogram;

use crate::des::EventQueue;
use crate::model::{ServiceDist, Station};

/// Configuration of a fan-out deployment.
#[derive(Debug, Clone)]
pub struct FanoutConfig {
    /// One-way network latency floor per hop, ms.
    pub net_latency_ms: f64,
    /// Mean of the exponential jitter added to each hop, ms (0 = none).
    pub net_jitter_ms: f64,
    /// Shard backends a query fans out to.
    pub n_backends: usize,
    /// Worker threads per backend.
    pub backend_workers: usize,
    /// Per-backend, per-query service times (one leg's work).
    pub backend_service: ServiceDist,
    /// RNG seed.
    pub seed: u64,
}

/// Results of one fan-out simulation run.
#[derive(Debug, Clone)]
pub struct FanoutReport {
    /// Completed queries.
    pub completed: u64,
    /// Achieved throughput, queries/second.
    pub throughput_qps: f64,
    /// Mean backend CPU utilization in `[0, 1]`.
    pub backend_cpu_util: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// End-to-end latency distribution.
    pub latency: LatencyHistogram,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// One leg of a query reaches its backend's queue.
    ArriveBackend(u32, u16),
    /// That backend finished its leg.
    BackendDone(u32, u16),
    /// The gathered response reached the client.
    Complete(u32),
}

fn hop<R: RandomSource + ?Sized>(rng: &mut R, config: &FanoutConfig) -> f64 {
    config.net_latency_ms + rng.gen_exp(config.net_jitter_ms)
}

/// Run the open-loop fan-out simulation: Poisson arrivals at
/// `arrival_qps`, exactly `n_queries` queries, simulated to drain.
///
/// # Panics
/// Panics on zero backends/workers/queries or a non-positive rate.
pub fn run_fanout(config: &FanoutConfig, arrival_qps: f64, n_queries: u32) -> FanoutReport {
    assert!(config.n_backends > 0 && config.backend_workers > 0);
    assert!(arrival_qps > 0.0 && n_queries > 0);
    let mut rng = Pcg32::seed_from_u64(config.seed);
    let mut queue: EventQueue<Event> = EventQueue::new();

    // Poisson arrivals. The client→router hop happens once; each leg then
    // takes its own router→backend hop.
    let mean_gap_ms = 1000.0 / arrival_qps;
    let mut send_time = vec![0.0f64; n_queries as usize];
    let mut t = 0.0;
    for (i, st) in send_time.iter_mut().enumerate() {
        t += rng.gen_exp(mean_gap_ms);
        *st = t;
        let at_router = t + hop(&mut rng, config);
        for b in 0..config.n_backends {
            let leg = at_router + hop(&mut rng, config);
            queue.push(leg, Event::ArriveBackend(i as u32, b as u16));
        }
    }

    let mut backends: Vec<Station> = (0..config.n_backends)
        .map(|_| Station::new(config.backend_workers))
        .collect();
    let mut legs_left = vec![config.n_backends as u16; n_queries as usize];
    let mut latency = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut total_latency = 0.0;
    let mut last_completion = 0.0f64;

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::ArriveBackend(q, b) => {
                if let Some(s) = backends[b as usize].offer(q, &config.backend_service, &mut rng) {
                    queue.push(now + s, Event::BackendDone(q, b));
                }
            }
            Event::BackendDone(q, b) => {
                if let Some((q2, s2)) =
                    backends[b as usize].release(&config.backend_service, &mut rng)
                {
                    queue.push(now + s2, Event::BackendDone(q2, b));
                }
                // Leg returns to the router; the response leaves when the
                // last leg is in. Fold the return hop into the gather by
                // scheduling Complete off the final leg only — a constant
                // +hop for the router→client trip.
                legs_left[q as usize] -= 1;
                if legs_left[q as usize] == 0 {
                    let back = hop(&mut rng, config) + hop(&mut rng, config);
                    queue.push(now + back, Event::Complete(q));
                }
            }
            Event::Complete(q) => {
                let l = now - send_time[q as usize];
                latency.record(l);
                total_latency += l;
                completed += 1;
                last_completion = last_completion.max(now);
            }
        }
    }

    let makespan_ms = last_completion.max(f64::MIN_POSITIVE);
    let busy: f64 = backends.iter().map(Station::busy_time_ms).sum();
    let report = FanoutReport {
        completed,
        throughput_qps: completed as f64 / (makespan_ms / 1000.0),
        backend_cpu_util: (busy
            / (makespan_ms * (config.n_backends * config.backend_workers) as f64))
            .min(1.0),
        mean_latency_ms: total_latency / completed.max(1) as f64,
        latency,
    };
    record_fanout_telemetry(&report);
    report
}

/// Saturation search for the fan-out topology, mirroring
/// [`crate::saturate`]: double the rate to a plateau, then rerun at 95%
/// of peak so the latency distribution is taken at a stable point.
pub fn saturate_fanout(config: &FanoutConfig, n_queries: u32, plateau_pct: f64) -> FanoutReport {
    let mut rate = 100.0;
    let mut best = run_fanout(config, rate, n_queries);
    for _ in 0..20 {
        rate *= 2.0;
        let next = run_fanout(config, rate, n_queries);
        let improved = next.throughput_qps > best.throughput_qps;
        let plateaued = next.throughput_qps < best.throughput_qps * (1.0 + plateau_pct / 100.0);
        if improved {
            best = next;
        }
        if plateaued {
            break;
        }
    }
    run_fanout(config, best.throughput_qps * 0.95, n_queries)
}

/// Fold one fan-out run into the global telemetry registry (the
/// `netsim_*` convention of [`crate::model`]).
fn record_fanout_telemetry(report: &FanoutReport) {
    let registry = broadmatch_telemetry::Registry::global();
    registry
        .counter(
            "netsim_fanout_runs_total",
            "Fan-out simulation runs executed",
            &[],
        )
        .inc();
    registry
        .gauge(
            "netsim_fanout_last_throughput_qps",
            "Throughput achieved by the most recent fan-out run",
            &[],
        )
        .set(report.throughput_qps);
    registry
        .gauge(
            "netsim_fanout_last_mean_latency_ms",
            "Mean end-to-end latency of the most recent fan-out run",
            &[],
        )
        .set(report.mean_latency_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_backends: usize, service_ms: f64, seed: u64) -> FanoutConfig {
        FanoutConfig {
            net_latency_ms: 1.0,
            net_jitter_ms: 0.0,
            n_backends,
            backend_workers: 2,
            backend_service: ServiceDist::constant(service_ms),
            seed,
        }
    }

    #[test]
    fn all_queries_complete_once() {
        let r = run_fanout(&config(3, 1.0, 1), 200.0, 2_000);
        assert_eq!(r.completed, 2_000);
        assert_eq!(r.latency.total(), 2_000);
    }

    #[test]
    fn light_load_latency_is_hops_plus_service() {
        // No queueing at low rate, constant service: latency = 4 hops +
        // service (legs are symmetric, so the max adds nothing).
        let r = run_fanout(&config(3, 2.0, 2), 5.0, 500);
        let floor = 4.0 * 1.0 + 2.0;
        assert!(r.mean_latency_ms >= floor - 1e-9);
        assert!(
            r.mean_latency_ms < floor + 0.5,
            "mean {}",
            r.mean_latency_ms
        );
    }

    #[test]
    fn capacity_scales_with_workers_not_backends() {
        // Every query visits every backend, so adding backends does NOT
        // add throughput — the per-backend station stays the bottleneck
        // (capacity = workers / service). This is the defining difference
        // from a load-balanced replica pool.
        let narrow = saturate_fanout(&config(2, 1.0, 3), 10_000, 2.0);
        let wide = saturate_fanout(&config(6, 1.0, 3), 10_000, 2.0);
        let per_station = 2.0 / 0.001; // workers / service_s = 2000 qps
        for r in [&narrow, &wide] {
            assert!(
                (r.throughput_qps - per_station).abs() < 0.25 * per_station,
                "throughput {} vs station capacity {per_station}",
                r.throughput_qps
            );
        }
    }

    #[test]
    fn fanout_tail_grows_with_backend_count() {
        // With jittery service, max over more legs ⇒ fatter median: the
        // straggler effect the router's hedging exists to cut.
        let mut jittery = config(2, 1.0, 4);
        jittery.backend_service = ServiceDist::from_samples(vec![0.5, 0.5, 0.5, 8.0]);
        let few = run_fanout(&jittery, 50.0, 4_000);
        jittery.n_backends = 8;
        let many = run_fanout(&jittery, 50.0, 4_000);
        assert!(
            many.mean_latency_ms > few.mean_latency_ms + 1.0,
            "fanout {} vs {}",
            many.mean_latency_ms,
            few.mean_latency_ms
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_fanout(&config(3, 1.0, 9), 300.0, 3_000);
        let b = run_fanout(&config(3, 1.0, 9), 300.0, 3_000);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    }
}
