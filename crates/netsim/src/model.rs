//! The two-server queueing model and its reports.

use broadmatch_rng::{Pcg32, RandomSource};
use broadmatch_telemetry::LatencyHistogram;

use crate::des::EventQueue;

/// A per-query service-time distribution: samples uniformly from an
/// empirical pool of measured costs (milliseconds). This is how measured
/// index costs feed the simulation — run the real index over a trace,
/// collect per-query times, hand them here.
#[derive(Debug, Clone)]
pub struct ServiceDist {
    samples: Vec<f64>,
}

impl ServiceDist {
    /// Build from measured per-query times (ms).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains non-finite/negative values.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite() && *s >= 0.0),
            "service times must be finite and non-negative"
        );
        ServiceDist { samples }
    }

    /// A constant service time.
    pub fn constant(ms: f64) -> Self {
        Self::from_samples(vec![ms])
    }

    /// Mean of the pool.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    fn draw<R: RandomSource + ?Sized>(&self, rng: &mut R) -> f64 {
        self.samples[rng.gen_index(self.samples.len())]
    }
}

/// Configuration of the Section VII-B deployment.
#[derive(Debug, Clone)]
pub struct TwoServerConfig {
    /// One-way network latency floor, ms.
    pub net_latency_ms: f64,
    /// Mean of the exponential jitter added to each hop, ms (0 = none).
    pub net_jitter_ms: f64,
    /// Worker threads at the index server.
    pub index_workers: usize,
    /// Worker threads at the ad server.
    pub ad_workers: usize,
    /// Index-server service times (the structure under test).
    pub index_service: ServiceDist,
    /// Ad-server service times (fetch + filter; structure-independent).
    pub ad_service: ServiceDist,
    /// RNG seed.
    pub seed: u64,
}

impl TwoServerConfig {
    /// A deployment shaped like the paper's testbed: 4-core servers, ~2 ms
    /// one-way network latency.
    pub fn paper_like(index_service: ServiceDist, ad_service: ServiceDist, seed: u64) -> Self {
        TwoServerConfig {
            net_latency_ms: 2.0,
            net_jitter_ms: 0.5,
            index_workers: 4,
            ad_workers: 4,
            index_service,
            ad_service,
            seed,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completed queries.
    pub completed: u64,
    /// Achieved throughput, queries/second.
    pub throughput_qps: f64,
    /// Index-server CPU utilization in `[0, 1]`.
    pub index_cpu_util: f64,
    /// Ad-server CPU utilization in `[0, 1]`.
    pub ad_cpu_util: f64,
    /// Mean end-to-end latency, ms.
    pub mean_latency_ms: f64,
    /// End-to-end latency distribution; Fig. 9's 5 ms ranges are
    /// differences of [`LatencyHistogram::fraction_below`].
    pub latency: LatencyHistogram,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Query reaches the index server's queue.
    ArriveIndex(u32),
    /// Index service finished.
    IndexDone(u32),
    /// Query reaches the ad server's queue.
    ArriveAd(u32),
    /// Ad service finished.
    AdDone(u32),
    /// Response reached the client.
    Complete(u32),
}

/// A `c`-worker FIFO service station.
pub(crate) struct Station {
    workers: usize,
    busy: usize,
    waiting: std::collections::VecDeque<u32>,
    busy_time_ms: f64,
}

impl Station {
    pub(crate) fn new(workers: usize) -> Self {
        Station {
            workers,
            busy: 0,
            waiting: std::collections::VecDeque::new(),
            busy_time_ms: 0.0,
        }
    }

    /// Total busy worker-time accumulated (for utilization accounting).
    pub(crate) fn busy_time_ms(&self) -> f64 {
        self.busy_time_ms
    }

    /// Offer `q` to the station; start service if a worker is free.
    /// Returns the service time if started.
    pub(crate) fn offer<R: RandomSource + ?Sized>(
        &mut self,
        q: u32,
        dist: &ServiceDist,
        rng: &mut R,
    ) -> Option<f64> {
        if self.busy < self.workers {
            self.busy += 1;
            let s = dist.draw(rng);
            self.busy_time_ms += s;
            Some(s)
        } else {
            self.waiting.push_back(q);
            None
        }
    }

    /// A worker finished; pull the next waiting query if any. Returns
    /// `(query, service_time)` if a new service starts.
    pub(crate) fn release<R: RandomSource + ?Sized>(
        &mut self,
        dist: &ServiceDist,
        rng: &mut R,
    ) -> Option<(u32, f64)> {
        self.busy -= 1;
        let q = self.waiting.pop_front()?;
        self.busy += 1;
        let s = dist.draw(rng);
        self.busy_time_ms += s;
        Some((q, s))
    }
}

/// Run the open-loop simulation: Poisson arrivals at `arrival_qps`, exactly
/// `n_queries` queries, simulated to drain.
///
/// # Panics
/// Panics on zero workers, zero queries or a non-positive arrival rate.
pub fn run_simulation(config: &TwoServerConfig, arrival_qps: f64, n_queries: u32) -> SimReport {
    assert!(config.index_workers > 0 && config.ad_workers > 0);
    assert!(arrival_qps > 0.0 && n_queries > 0);
    let mut rng = Pcg32::seed_from_u64(config.seed);
    let mut queue: EventQueue<Event> = EventQueue::new();

    // Poisson arrivals; each query first crosses the network to the index
    // server.
    let mean_gap_ms = 1000.0 / arrival_qps;
    let mut send_time = vec![0.0f64; n_queries as usize];
    let mut t = 0.0;
    for (i, st) in send_time.iter_mut().enumerate() {
        t += exp_sample(&mut rng, mean_gap_ms);
        *st = t;
        let hop = config.net_latency_ms + exp_sample(&mut rng, config.net_jitter_ms);
        queue.push(t + hop, Event::ArriveIndex(i as u32));
    }

    let mut index = Station::new(config.index_workers);
    let mut ad = Station::new(config.ad_workers);
    let mut latency = LatencyHistogram::new();
    let mut completed = 0u64;
    let mut total_latency = 0.0;
    let mut last_completion = 0.0f64;

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::ArriveIndex(q) => {
                if let Some(s) = index.offer(q, &config.index_service, &mut rng) {
                    queue.push(now + s, Event::IndexDone(q));
                }
            }
            Event::IndexDone(q) => {
                if let Some((q2, s2)) = index.release(&config.index_service, &mut rng) {
                    queue.push(now + s2, Event::IndexDone(q2));
                }
                let hop = config.net_latency_ms + exp_sample(&mut rng, config.net_jitter_ms);
                queue.push(now + hop, Event::ArriveAd(q));
            }
            Event::ArriveAd(q) => {
                if let Some(s) = ad.offer(q, &config.ad_service, &mut rng) {
                    queue.push(now + s, Event::AdDone(q));
                }
            }
            Event::AdDone(q) => {
                if let Some((q2, s2)) = ad.release(&config.ad_service, &mut rng) {
                    queue.push(now + s2, Event::AdDone(q2));
                }
                let hop = config.net_latency_ms + exp_sample(&mut rng, config.net_jitter_ms);
                queue.push(now + hop, Event::Complete(q));
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
    let report = SimReport {
        completed,
        throughput_qps: completed as f64 / (makespan_ms / 1000.0),
        index_cpu_util: (index.busy_time_ms / (makespan_ms * config.index_workers as f64)).min(1.0),
        ad_cpu_util: (ad.busy_time_ms / (makespan_ms * config.ad_workers as f64)).min(1.0),
        mean_latency_ms: total_latency / completed.max(1) as f64,
        latency,
    };
    record_run_telemetry(&report);
    report
}

/// Fold one simulation run into the global telemetry registry, so
/// `experiments` dumps show how much simulated work backed a report.
fn record_run_telemetry(report: &SimReport) {
    let registry = broadmatch_telemetry::Registry::global();
    registry
        .counter(
            "netsim_sim_runs_total",
            "Discrete-event simulation runs executed",
            &[],
        )
        .inc();
    registry
        .counter(
            "netsim_sim_queries_total",
            "Queries completed across all simulation runs",
            &[],
        )
        .add(report.completed);
    registry
        .gauge(
            "netsim_last_throughput_qps",
            "Throughput achieved by the most recent simulation run",
            &[],
        )
        .set(report.throughput_qps);
    registry
        .gauge(
            "netsim_last_mean_latency_ms",
            "Mean end-to-end latency of the most recent simulation run",
            &[],
        )
        .set(report.mean_latency_ms);
}

fn exp_sample<R: RandomSource + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    rng.gen_exp(mean)
}

/// Search for the operating point the paper loads its servers to ("we set
/// the inter-arrival time between queries as high as possible until one of
/// the structures did not increase in throughput"): double the arrival rate
/// until throughput improves by less than `plateau_pct` percent, then rerun
/// just below the plateau (95% of the peak) so queues stay finite and the
/// latency distribution is meaningful.
pub fn saturate(config: &TwoServerConfig, n_queries: u32, plateau_pct: f64) -> SimReport {
    let mut rate = 100.0;
    let mut best = run_simulation(config, rate, n_queries);
    for _ in 0..20 {
        rate *= 2.0;
        let next = run_simulation(config, rate, n_queries);
        let improved = next.throughput_qps > best.throughput_qps;
        let plateaued = next.throughput_qps < best.throughput_qps * (1.0 + plateau_pct / 100.0);
        if improved {
            best = next;
        }
        if plateaued {
            break;
        }
    }
    run_simulation(config, best.throughput_qps * 0.95, n_queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(index_ms: f64, seed: u64) -> TwoServerConfig {
        TwoServerConfig {
            net_latency_ms: 2.0,
            net_jitter_ms: 0.0,
            index_workers: 4,
            ad_workers: 4,
            index_service: ServiceDist::constant(index_ms),
            ad_service: ServiceDist::constant(0.5),
            seed,
        }
    }

    #[test]
    fn all_queries_complete() {
        let r = run_simulation(&config(1.0, 1), 500.0, 2_000);
        assert_eq!(r.completed, 2_000);
        assert_eq!(r.latency.total(), 2_000);
    }

    #[test]
    fn light_load_latency_is_network_plus_service() {
        // At low rate there is no queueing: latency ≈ 3 hops + services.
        let r = run_simulation(&config(1.0, 2), 10.0, 1_000);
        let floor = 3.0 * 2.0 + 1.0 + 0.5;
        assert!(r.mean_latency_ms >= floor - 1e-9);
        assert!(
            r.mean_latency_ms < floor + 1.0,
            "mean {}",
            r.mean_latency_ms
        );
    }

    #[test]
    fn utilization_tracks_load() {
        // util ≈ λ·E[S]/c = (rate/1000) * 1.0 / 4 per ms.
        let r = run_simulation(&config(1.0, 3), 1_000.0, 20_000);
        let expected = 1_000.0 / 1000.0 * 1.0 / 4.0;
        assert!(
            (r.index_cpu_util - expected).abs() < 0.05,
            "util {} vs expected {}",
            r.index_cpu_util,
            expected
        );
        assert!(r.ad_cpu_util < r.index_cpu_util);
    }

    #[test]
    fn saturation_throughput_matches_bottleneck() {
        // Bottleneck: index, 4 workers × 1 ms ⇒ ~4000 qps.
        let r = saturate(&config(1.0, 4), 20_000, 2.0);
        assert!(
            (3_000.0..5_000.0).contains(&r.throughput_qps),
            "throughput {}",
            r.throughput_qps
        );
        assert!(
            r.index_cpu_util > 0.9,
            "bottleneck near 100%: {}",
            r.index_cpu_util
        );
    }

    #[test]
    fn faster_index_means_more_throughput_lower_util_lower_latency() {
        // The Section VII-B comparison in miniature: a 4x faster index
        // server yields higher saturation throughput; at a fixed feasible
        // rate it yields lower CPU utilization and better latency.
        let slow = saturate(&config(2.0, 5), 20_000, 2.0);
        let fast = saturate(&config(0.5, 5), 20_000, 2.0);
        assert!(fast.throughput_qps > 2.0 * slow.throughput_qps);

        let rate = 1_500.0; // feasible for both (slow capacity = 2000 qps)
        let slow_fixed = run_simulation(&config(2.0, 6), rate, 30_000);
        let fast_fixed = run_simulation(&config(0.5, 6), rate, 30_000);
        assert!(fast_fixed.index_cpu_util < 0.6 * slow_fixed.index_cpu_util);
        assert!(fast_fixed.mean_latency_ms < slow_fixed.mean_latency_ms);
        assert!(fast_fixed.latency.fraction_below(10.0) > slow_fixed.latency.fraction_below(10.0));
    }

    #[test]
    fn histogram_buckets() {
        let mut h = LatencyHistogram::new();
        for ms in [1.0, 4.9, 5.0, 23.0] {
            h.record(ms);
        }
        assert!((h.fraction_below(10.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn p99_grows_with_load() {
        let c = config(1.0, 21);
        let light = run_simulation(&c, 200.0, 10_000);
        let heavy = run_simulation(&c, 3_500.0, 10_000);
        assert!(heavy.latency.percentile_ms(0.99) > light.latency.percentile_ms(0.99));
    }

    /// Fig. 9's view of one deterministic run, pinned to the exact
    /// per-sample fractions below each 5 ms edge: interpolating within a
    /// log-linear bucket must stay within 0.005 of them.
    #[test]
    fn fig9_view_matches_exact_five_ms_buckets() {
        let c = TwoServerConfig::paper_like(
            ServiceDist::constant(0.8),
            ServiceDist::constant(0.69),
            17,
        );
        let r = run_simulation(&c, 4_800.0, 30_000);
        let pinned = [0.0, 0.334700, 0.919700, 0.995467, 1.0, 1.0, 1.0, 1.0];
        for (b, want) in pinned.into_iter().enumerate() {
            let ms = 5.0 * (b + 1) as f64;
            let got = r.latency.fraction_below(ms);
            assert!(
                (got - want).abs() <= 0.005,
                "below {ms} ms: {got} vs {want}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_simulation(&config(1.0, 9), 800.0, 5_000);
        let b = run_simulation(&config(1.0, 9), 800.0, 5_000);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    }

    #[test]
    fn service_dist_sampling() {
        let d = ServiceDist::from_samples(vec![1.0, 3.0]);
        assert_eq!(d.mean(), 2.0);
        let mut rng = Pcg32::seed_from_u64(0);
        for _ in 0..100 {
            let s = d.draw(&mut rng);
            assert!(s == 1.0 || s == 3.0);
        }
    }
}
