//! Shared scaffolding for the serving-latency tests: a benchmark-shaped
//! corpus and closed-loop reader clients.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use broadmatch::{BroadMatchIndex, IndexBuilder, IndexConfig, MatchType, RemapMode};
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd, QueryGenConfig, Workload};
use broadmatch_serve::ServeRuntime;

/// Whether the host has the 4 cores latency and scaling bounds need: on
/// fewer, clients, writers and the compactor time-slice one another.
pub fn timing_cores_available() -> bool {
    std::thread::available_parallelism().map_or(1, |n| n.get()) >= 4
}

/// `n_base + n_held_out` generated ads, an index over the first `n_base`
/// (long-only remap tuned to a generated workload), and a `trace_len`
/// query replay trace drawn from that workload.
pub fn scenario(
    n_base: usize,
    n_held_out: usize,
    trace_len: usize,
    seed: u64,
) -> (Arc<BroadMatchIndex>, Vec<GeneratedAd>, Vec<String>) {
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_base + n_held_out, seed));
    let workload = Workload::generate(
        QueryGenConfig::benchmark(n_base / 10, seed.wrapping_add(1)),
        &corpus,
    );
    let mut builder = IndexBuilder::with_config(IndexConfig {
        remap: RemapMode::LongOnly,
        ..IndexConfig::default()
    });
    for ad in &corpus.ads()[..n_base] {
        builder.add(&ad.phrase, ad.info).unwrap();
    }
    builder.set_workload(workload.to_builder_workload());
    let trace = workload.sample_trace(trace_len, seed ^ 0x5E57);
    (
        Arc::new(builder.build().unwrap()),
        corpus.ads().to_vec(),
        trace.into_iter().map(str::to_string).collect(),
    )
}

/// `n_clients` closed-loop clients: each takes the next query number `i`
/// and sends `trace[i % trace.len()]` until `done(i)`. Returns queries per
/// second and each query's latency in ms, sorted.
pub fn closed_loop(
    runtime: &ServeRuntime,
    trace: &[String],
    n_clients: usize,
    done: impl Fn(usize) -> bool + Sync,
) -> (f64, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..n_clients {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, SeqCst);
                    if done(i) {
                        break;
                    }
                    let t0 = Instant::now();
                    let resp = runtime.query(&trace[i % trace.len()], MatchType::Broad);
                    resp.expect("the wait line outnumbers the clients");
                    local.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                samples.lock().unwrap().extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut latencies_ms = samples.into_inner().unwrap();
    latencies_ms.sort_by(f64::total_cmp);
    (latencies_ms.len() as f64 / wall, latencies_ms)
}
