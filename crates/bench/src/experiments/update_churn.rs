//! update-churn — serving latency and throughput under online maintenance
//! (Section VI at serve scale).
//!
//! Three phases against the same corpus and replay trace:
//!
//! 1. **static** — a plain runtime, no mutations: the latency baseline.
//! 2. **churn** — a maintained runtime while writer threads insert a
//!    held-out ad pool and delete base ads; the background worker folds
//!    the delta overlay whenever its thresholds trip, so readers cross
//!    multiple compactions mid-replay.
//! 3. **post-compaction** — after the writers quiesce and a final
//!    [`ServeRuntime::compact_now`], the same trace again: the overlay is
//!    empty and every surviving ad lives in the rebuilt base.
//!
//! Latencies are measured client-side (each successful query timed at the
//! submitting thread), so the churn numbers include overlay consultation,
//! tombstone filtering, and any snapshot-swap cache effects. The headline
//! check: churn p99 within 2× the static baseline.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use broadmatch::{BroadMatchIndex, IndexConfig, MatchType, RemapMode};
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd, QueryGenConfig, Workload};
use broadmatch_serve::{ServeConfig, ServeError, ServeRuntime, UpdateConfig};

use crate::table::{fi, Table};
use crate::Scale;

/// Concurrent closed-loop reader clients in every phase.
const N_READERS: usize = 4;
/// Writer threads during the churn phase.
const N_WRITERS: usize = 2;
/// Pause between writer operations (paces the mutation rate so reads and
/// writes genuinely interleave instead of the writers finishing first).
const WRITE_PACE: Duration = Duration::from_micros(100);
/// Every this-many inserts, a writer also deletes one base ad.
const REMOVE_EVERY: usize = 3;

/// Client-side latency summary for one phase.
#[derive(Debug, Clone)]
pub struct PhaseLatency {
    /// Phase label ("static", "churn", "post-compaction").
    pub phase: &'static str,
    /// Successful queries measured.
    pub queries: usize,
    /// Aggregate queries per second over the phase.
    pub qps: f64,
    /// Median query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile query latency, milliseconds.
    pub p99_ms: f64,
    /// Admission-control rejections (each retried).
    pub rejected: u64,
}

/// Everything `update-churn` measures.
#[derive(Debug, Clone)]
pub struct UpdateChurnReport {
    /// Per-phase latency summaries, in phase order.
    pub phases: Vec<PhaseLatency>,
    /// Ads inserted during the churn phase.
    pub inserts: usize,
    /// Ads removed during the churn phase.
    pub removes: usize,
    /// Background + final compactions observed.
    pub compactions: u64,
    /// Live overlay ads after the final compaction (should be 0).
    pub residual_overlay_ads: usize,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Corpus + held-out churn pool + delete victims + replay trace.
type Scenario = (
    Arc<BroadMatchIndex>,
    Vec<GeneratedAd>,
    Vec<GeneratedAd>,
    Vec<String>,
);

fn build_scenario(scale: Scale, seed: u64) -> Scenario {
    let (n_base, n_pool, trace_len) = match scale {
        Scale::Small => (20_000, 2_000, 3_000),
        _ => (100_000, 10_000, 20_000),
    };
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_base + n_pool, seed));
    let (base_ads, pool) = corpus.ads().split_at(n_base);
    let workload = Workload::generate(
        QueryGenConfig::benchmark(n_base / 10, seed.wrapping_add(1)),
        &corpus,
    );
    let config = IndexConfig {
        remap: RemapMode::LongOnly,
        ..IndexConfig::default()
    };
    let mut builder = broadmatch::IndexBuilder::with_config(config);
    for ad in base_ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("generated phrases are valid");
    }
    builder.set_workload(workload.to_builder_workload());
    let index = Arc::new(builder.build().expect("valid config"));
    let trace: Vec<String> = workload
        .sample_trace(trace_len, seed ^ 0x5E57)
        .into_iter()
        .map(str::to_string)
        .collect();
    // Deletes target the front of the base corpus: ads the trace can
    // actually query, so tombstone filtering is exercised on the hot path.
    let victims = base_ads[..n_pool].to_vec();
    (index, pool.to_vec(), victims, trace)
}

/// Replay `trace` once through `runtime` with closed-loop readers, timing
/// each successful query client-side.
fn replay_once(runtime: &ServeRuntime, trace: &[String], phase: &'static str) -> PhaseLatency {
    let next = AtomicUsize::new(0);
    let rejected = AtomicU64::new(0);
    let samples: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(trace.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..N_READERS {
            s.spawn(|| {
                let mut local = Vec::with_capacity(trace.len() / N_READERS + 1);
                loop {
                    // ORDER: Relaxed — work-distribution counter; uniqueness from fetch_add, no memory published through it.
                    let i = next.fetch_add(1, Relaxed);
                    let Some(query) = trace.get(i) else { break };
                    loop {
                        let t0 = Instant::now();
                        match runtime.query(query, MatchType::Broad) {
                            Ok(resp) => {
                                std::hint::black_box(resp.hits.len());
                                local.push(t0.elapsed().as_secs_f64() * 1e3);
                                break;
                            }
                            Err(ServeError::Overloaded { retry_after }) => {
                                // ORDER: Relaxed — benchmark statistic; exactness from the RMW, ordering irrelevant.
                                rejected.fetch_add(1, Relaxed);
                                std::thread::sleep(retry_after.min(Duration::from_micros(500)));
                            }
                        }
                    }
                }
                samples.lock().expect("sample lock").extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by(|a, b| a.total_cmp(b));
    PhaseLatency {
        phase,
        queries: samples.len(),
        qps: samples.len() as f64 / wall,
        p50_ms: percentile(&samples, 0.50),
        p99_ms: percentile(&samples, 0.99),
        // ORDER: Relaxed — final single-threaded readback after the scope joins.
        rejected: rejected.load(Relaxed),
    }
}

/// Churn phase: writers push the whole held-out pool (deleting a base ad
/// every [`REMOVE_EVERY`] inserts) while readers loop the trace until the
/// writers finish, so every measured read races live mutations and
/// background compactions.
fn run_churn(
    runtime: &ServeRuntime,
    trace: &[String],
    pool: &[GeneratedAd],
    victims: &[GeneratedAd],
) -> (PhaseLatency, usize, usize) {
    let writers_done = AtomicBool::new(false);
    let writers_left = AtomicUsize::new(N_WRITERS);
    let inserts = AtomicUsize::new(0);
    let removes = AtomicUsize::new(0);
    let rejected = AtomicU64::new(0);
    let samples: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..N_WRITERS {
            let writers_done = &writers_done;
            let writers_left = &writers_left;
            let inserts = &inserts;
            let removes = &removes;
            s.spawn(move || {
                let mine = pool.iter().skip(w).step_by(N_WRITERS);
                let mut my_victims = victims.iter().skip(w).step_by(N_WRITERS).cycle();
                for (k, ad) in mine.enumerate() {
                    runtime
                        .insert(&ad.phrase, ad.info)
                        .expect("generated phrases are valid");
                    // ORDER: Relaxed — benchmark statistic; exactness from the RMW, ordering irrelevant.
                    inserts.fetch_add(1, Relaxed);
                    if k % REMOVE_EVERY == REMOVE_EVERY - 1 {
                        let victim = my_victims.next().expect("victims nonempty");
                        // ORDER: Relaxed — benchmark statistic; exactness from the RMW, ordering irrelevant.
                        removes.fetch_add(
                            runtime.remove(&victim.phrase, victim.info.listing_id),
                            Relaxed,
                        );
                    }
                    std::thread::sleep(WRITE_PACE);
                }
                // ORDER: Relaxed — last-writer detection only needs the RMW count; readers poll the flag below.
                if writers_left.fetch_sub(1, Relaxed) == 1 {
                    // ORDER: Relaxed — stop flag with no data published through it; readers only exit their loop.
                    writers_done.store(true, Relaxed);
                }
            });
        }
        for _ in 0..N_READERS {
            let writers_done = &writers_done;
            let rejected = &rejected;
            let samples = &samples;
            s.spawn(move || {
                let mut local = Vec::new();
                let mut i = 0usize;
                // ORDER: Relaxed — pairs with the stop-flag store; see above.
                while !writers_done.load(Relaxed) {
                    let query = &trace[i % trace.len()];
                    i += 1;
                    let t0 = Instant::now();
                    match runtime.query(query, MatchType::Broad) {
                        Ok(resp) => {
                            std::hint::black_box(resp.hits.len());
                            local.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        Err(ServeError::Overloaded { retry_after }) => {
                            // ORDER: Relaxed — benchmark statistic; exactness from the RMW, ordering irrelevant.
                            rejected.fetch_add(1, Relaxed);
                            std::thread::sleep(retry_after.min(Duration::from_micros(500)));
                        }
                    }
                }
                samples.lock().expect("sample lock").extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by(|a, b| a.total_cmp(b));
    let lat = PhaseLatency {
        phase: "churn",
        queries: samples.len(),
        qps: samples.len() as f64 / wall,
        p50_ms: percentile(&samples, 0.50),
        p99_ms: percentile(&samples, 0.99),
        // ORDER: Relaxed — final single-threaded readback after the scope joins.
        rejected: rejected.load(Relaxed),
    };
    // ORDER: Relaxed — final single-threaded readback after the scope joins.
    (lat, inserts.load(Relaxed), removes.load(Relaxed))
}

/// Run the experiment; prints the table plus the maintenance telemetry
/// families and returns the data.
pub fn run(scale: Scale, seed: u64) -> UpdateChurnReport {
    println!("== update-churn: serving under online insert/delete + compaction ==");
    let (index, pool, victims, trace) = build_scenario(scale, seed);
    let stats = index.stats();
    println!(
        "corpus: {} base ads, {} held-out churn ads, trace of {} queries, \
         {N_READERS} readers / {N_WRITERS} writers",
        stats.ads,
        pool.len(),
        trace.len()
    );
    let serve_config = ServeConfig {
        n_workers: 4,
        queue_capacity: 512,
        trace_sample_every: 64,
        ..ServeConfig::default()
    };

    // Phase 1: static baseline — same pool geometry, no mutations.
    let baseline = {
        let runtime = ServeRuntime::start(Arc::clone(&index), serve_config.clone());
        replay_once(&runtime, &trace, "static")
    };

    // Phases 2 and 3 share one maintained runtime.
    let update_config = UpdateConfig {
        max_overlay_ads: match scale {
            Scale::Small => 256,
            _ => 1024,
        },
        check_interval: Duration::from_millis(5),
        ..UpdateConfig::default()
    };
    let runtime = ServeRuntime::start_maintained(Arc::clone(&index), serve_config, update_config);

    let (churn, inserts, removes) = run_churn(&runtime, &trace, &pool, &victims);

    // Quiesce: one final fold, then the clean re-measure.
    runtime.compact_now().expect("compaction succeeds");
    let post = replay_once(&runtime, &trace, "post-compaction");
    let metrics = runtime.metrics();

    let mut t = Table::new(&["phase", "queries", "qps", "p50 ms", "p99 ms", "rejected"]);
    for lat in [&baseline, &churn, &post] {
        t.row_owned(vec![
            lat.phase.to_string(),
            lat.queries.to_string(),
            fi(lat.qps),
            format!("{:.3}", lat.p50_ms),
            format!("{:.3}", lat.p99_ms),
            lat.rejected.to_string(),
        ]);
    }
    t.print();
    println!(
        "churn: {inserts} inserts, {removes} removes, {} compactions; \
         churn p99 {:.3} ms vs static p99 {:.3} ms ({:.2}x; target < 2x)\n",
        metrics.compactions,
        churn.p99_ms,
        baseline.p99_ms,
        churn.p99_ms / baseline.p99_ms.max(1e-9),
    );

    // Maintenance telemetry families (consumed by the CI smoke grep).
    let text = runtime.prometheus();
    for line in text
        .lines()
        .filter(|l| l.contains("overlay") || l.contains("compaction") || l.contains("tombstone"))
    {
        println!("{line}");
    }
    println!();

    UpdateChurnReport {
        phases: vec![baseline, churn, post],
        inserts,
        removes,
        compactions: metrics.compactions,
        residual_overlay_ads: metrics.overlay_ads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_stays_within_latency_budget() {
        let r = run(Scale::Small, 77);
        assert_eq!(r.phases.len(), 3);
        assert!(r.phases.iter().all(|p| p.queries > 0 && p.qps > 0.0));
        assert_eq!(r.inserts, 2_000, "writers pushed the whole pool");
        assert!(r.removes > 0);
        assert!(
            r.compactions >= 1,
            "background worker or final fold must have compacted"
        );
        assert_eq!(r.residual_overlay_ads, 0, "final fold emptied the overlay");

        // Acceptance: p99 under active compaction within 2x the static
        // baseline (with a 1 ms additive floor so micro-latency jitter on
        // loaded CI hosts can't fail the ratio on sub-ms baselines). The
        // claim rests on reads being lock-free while the fold runs on
        // another core; a single-core host serializes the compactor with
        // the readers, so — as with the serve-throughput scaling claim —
        // it needs real cores to be measurable.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores >= 4 {
            let static_p99 = r.phases[0].p99_ms;
            let churn_p99 = r.phases[1].p99_ms;
            assert!(
                churn_p99 <= (2.0 * static_p99).max(static_p99 + 1.0),
                "churn p99 {churn_p99:.3} ms vs static p99 {static_p99:.3} ms"
            );
        }
    }
}
