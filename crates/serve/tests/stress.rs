//! Concurrent-correctness stress test: readers hammer broad/exact/phrase
//! queries while a writer republishes reoptimized indexes, and every
//! response must be **bit-identical** to single-threaded execution against
//! the snapshot version the response reports. Corpora are version-tagged
//! (listing ids encode the snapshot version) so a torn read — hits mixing
//! two snapshots — cannot go undetected. A last test checks that
//! execution slots scale read throughput.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use broadmatch::{
    AdInfo, BroadMatchIndex, IndexBuilder, IndexConfig, MatchHit, MatchType, QueryStats, RemapMode,
};
use broadmatch_rng::{Pcg32, RandomSource};
use broadmatch_serve::{ServeConfig, ServeRuntime};

const VERSIONS: u64 = 16;
const READERS: usize = 4;

fn word(i: usize) -> String {
    format!("w{i}")
}

/// Build snapshot `version`: a stable core (so every query matches
/// something in every version) plus version-specific ads whose listing ids
/// encode the version. Alternating remap modes stand in for live
/// reoptimization — consecutive snapshots have different physical layouts.
fn build_version(version: u64) -> Arc<BroadMatchIndex> {
    let config = IndexConfig {
        remap: match version % 3 {
            0 => RemapMode::None,
            1 => RemapMode::LongOnly,
            _ => RemapMode::Full,
        },
        ..IndexConfig::default()
    };
    let mut builder = IndexBuilder::with_config(config);
    // Stable ads, identical metadata in every version.
    builder
        .add("cheap used books", AdInfo::with_bid(1, 11))
        .unwrap();
    builder.add("used books", AdInfo::with_bid(2, 22)).unwrap();
    builder.add("talk talk", AdInfo::with_bid(3, 33)).unwrap();
    // Version-tagged ads over a small shared vocabulary: phrases overlap
    // heavily across versions, metadata never does.
    let mut rng = Pcg32::seed_from_u64(version);
    for i in 0..60u64 {
        let len = rng.gen_range_inclusive(1..=4);
        let phrase: Vec<String> = (0..len).map(|_| word(rng.gen_index(12))).collect();
        builder
            .add(
                &phrase.join(" "),
                AdInfo::with_bid(version * 10_000 + i, 10),
            )
            .unwrap();
    }
    Arc::new(builder.build().unwrap())
}

fn query_set() -> Vec<(String, MatchType)> {
    let mut queries = vec![
        ("cheap used books online".to_string(), MatchType::Broad),
        ("used books".to_string(), MatchType::Exact),
        ("buy used books today".to_string(), MatchType::Phrase),
        ("talk talk talk".to_string(), MatchType::Phrase),
    ];
    // Word-soup queries over the shared vocabulary hit the version-tagged
    // ads; every match type exercises its own scan path.
    let mut rng = Pcg32::seed_from_u64(0xC0FFEE);
    for _ in 0..24 {
        let len = rng.gen_range_inclusive(1..=5);
        let text: Vec<String> = (0..len).map(|_| word(rng.gen_index(12))).collect();
        let mt = match rng.gen_index(3) {
            0 => MatchType::Broad,
            1 => MatchType::Exact,
            _ => MatchType::Phrase,
        };
        queries.push((text.join(" "), mt));
    }
    queries
}

type Reference = HashMap<(u64, usize), (Vec<MatchHit>, QueryStats)>;

#[test]
fn readers_see_snapshot_consistent_results_during_live_republish() {
    let indexes: Vec<Arc<BroadMatchIndex>> = (1..=VERSIONS).map(build_version).collect();
    let queries = query_set();

    // Single-threaded ground truth per (version, query).
    let mut reference: Reference = HashMap::new();
    for (v, index) in indexes.iter().enumerate() {
        for (qi, (q, mt)) in queries.iter().enumerate() {
            reference.insert((v as u64 + 1, qi), index.query_with_stats(q, *mt));
        }
    }

    let runtime = ServeRuntime::start(
        Arc::clone(&indexes[0]),
        ServeConfig {
            n_workers: 4,
            ..ServeConfig::default()
        },
    );

    let writer_done = AtomicBool::new(false);
    let checked = AtomicU64::new(0);
    let versions_seen = AtomicU64::new(0); // bitmask of observed versions
    std::thread::scope(|s| {
        for reader_id in 0..READERS {
            let runtime = &runtime;
            let reference = &reference;
            let queries = &queries;
            let writer_done = &writer_done;
            let checked = &checked;
            let versions_seen = &versions_seen;
            s.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(0xEAD + reader_id as u64);
                let mut last_version = 0u64;
                loop {
                    let stop = writer_done.load(SeqCst);
                    let qi = rng.gen_index(queries.len());
                    let (q, mt) = &queries[qi];
                    let resp = runtime.query(q, *mt).expect("capacity is ample");

                    // The version a response reports fully determines its
                    // results: any mixing of snapshots would surface here
                    // as metadata from the wrong version.
                    let (want_hits, want_stats) = &reference[&(resp.version, qi)];
                    assert_eq!(&resp.hits, want_hits, "v{} q{qi} {q:?}", resp.version);
                    assert_eq!(&resp.stats, want_stats, "v{} q{qi} {q:?}", resp.version);
                    // Publication order is monotone for each reader.
                    assert!(
                        resp.version >= last_version,
                        "version went backwards: {} after {last_version}",
                        resp.version
                    );
                    last_version = resp.version;
                    versions_seen.fetch_or(1 << resp.version, SeqCst);
                    checked.fetch_add(1, SeqCst);
                    if stop {
                        return;
                    }
                }
            });
        }

        // The writer republishes every version while readers run.
        for index in &indexes[1..] {
            std::thread::sleep(std::time::Duration::from_millis(2));
            runtime.publish(Arc::clone(index));
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        writer_done.store(true, SeqCst);
    });

    let total = checked.load(SeqCst);
    let mask = versions_seen.load(SeqCst);
    assert!(total > 100, "only {total} queries verified");
    assert!(
        mask.count_ones() >= 2,
        "readers never overlapped a republish (mask {mask:#b})"
    );
    // The final snapshot is the last one published.
    let (_, version) = runtime.current();
    assert_eq!(version, VERSIONS);
    let final_resp = runtime.query("cheap used books", MatchType::Exact).unwrap();
    assert_eq!(final_resp.version, VERSIONS);
}

/// Maintenance-shaped churn: each republished snapshot derives from the
/// previous one's exported ads (inserts + withdrawals), mimicking the
/// paper's §IV-C maintenance cycle implemented as rebuild-and-swap.
#[test]
fn derived_rebuilds_stay_queryable_and_consistent() {
    let mut base = IndexBuilder::new();
    base.add("cheap used books", AdInfo::with_bid(1, 10))
        .unwrap();
    for i in 0..40u64 {
        base.add(
            &format!("w{} w{}", i % 8, (i * 3) % 8),
            AdInfo::with_bid(100 + i, 10),
        )
        .unwrap();
    }
    let mut current = Arc::new(base.build().unwrap());
    let runtime = ServeRuntime::start(
        Arc::clone(&current),
        ServeConfig {
            n_workers: 2,
            ..ServeConfig::default()
        },
    );

    for round in 0..6u64 {
        // Derive: drop a slice of listings, add fresh ones tagged by round.
        let survivors: Vec<(String, AdInfo)> = current
            .export_ads()
            .into_iter()
            .filter(|(_, _, info)| info.listing_id % 5 != round % 5 || info.listing_id == 1)
            .map(|(phrase, _, info)| (phrase, info))
            .collect();
        let mut builder = IndexBuilder::new();
        for (phrase, info) in &survivors {
            builder.add(phrase, *info).unwrap();
        }
        for i in 0..10u64 {
            builder
                .add(
                    &format!("w{} fresh{round}", i % 8),
                    AdInfo::with_bid(10_000 * (round + 1) + i, 10),
                )
                .unwrap();
        }
        let next = Arc::new(builder.build().unwrap());
        let expect = next.query_with_stats("cheap used books for sale", MatchType::Broad);
        let version = runtime.publish(Arc::clone(&next));

        let resp = runtime
            .query("cheap used books for sale", MatchType::Broad)
            .unwrap();
        assert_eq!(resp.version, version);
        assert_eq!(resp.hits, expect.0);
        assert_eq!(resp.stats, expect.1);
        current = next;
    }
}

/// Each query runs whole on its caller's thread behind the admission gate,
/// so execution slots are what parallelism a runtime allows: 8 closed-loop
/// clients through 4 slots must reach 1.5x the throughput they reach
/// through 1. The bound needs at least 4 cores.
#[test]
fn execution_slots_scale_read_throughput() {
    const CLIENTS: usize = 8;
    let (index, _, trace) = common::scenario(20_000, 0, 3_000, 77);
    let qps_through = |n_workers: usize| {
        let config = ServeConfig {
            n_workers,
            ..ServeConfig::default()
        };
        let runtime = ServeRuntime::start(Arc::clone(&index), config);
        common::closed_loop(&runtime, &trace, CLIENTS, |i| i >= trace.len()).0
    };
    let one_slot = qps_through(1);
    let four_slots = qps_through(4);
    if common::timing_cores_available() {
        assert!(
            four_slots >= 1.5 * one_slot,
            "4-slot qps {four_slots:.0} vs 1-slot {one_slot:.0}"
        );
    }
}
