//! Cross-crate optimizer properties: mapping invariants hold on generated
//! corpora, and the model-predicted cost ordering matches the paper's
//! claims.

use sponsored_search::broadmatch::{IndexBuilder, IndexConfig, QueryWorkload, RemapMode};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};

fn build_index(
    corpus: &AdCorpus,
    workload: &Workload,
    remap: RemapMode,
    max_words: usize,
) -> sponsored_search::broadmatch::BroadMatchIndex {
    let config = IndexConfig {
        remap,
        max_words,
        ..IndexConfig::default()
    };
    let mut builder = IndexBuilder::with_config(config);
    for ad in corpus.ads() {
        builder.add(&ad.phrase, ad.info).expect("valid phrase");
    }
    builder.set_workload(workload.to_builder_workload());
    builder.build().expect("valid config")
}

#[test]
fn mapping_invariants_hold_on_generated_corpora() {
    for seed in [1u64, 2, 3] {
        let corpus = AdCorpus::generate(CorpusConfig::small(seed));
        let workload = Workload::generate(QueryGenConfig::small(seed), &corpus);
        for remap in [
            RemapMode::LongOnly,
            RemapMode::Full,
            RemapMode::FullWithWithdrawals,
        ] {
            let index = build_index(&corpus, &workload, remap, 4);
            let mapping = index.mapping();
            mapping
                .validate(index.group_words(), 4, false)
                .unwrap_or_else(|e| panic!("seed {seed} {remap:?}: {e}"));
            let stats = index.mapping_stats();
            assert_eq!(stats.groups, index.group_words().len());
            assert!(stats.nodes <= stats.groups);
        }
    }
}

/// FNV-1a over the little-endian bytes of every group's locator `wordhash`,
/// in group order: one number that changes if any group moves node.
fn mapping_fingerprint(index: &sponsored_search::broadmatch::BroadMatchIndex) -> u64 {
    let mapping = index.mapping();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in 0..mapping.len() {
        for b in mapping.locator(g).hash().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The optimizer's layout is pinned: any change to candidate generation,
/// weights, tie-breaking or the set-cover solver that moves a group or
/// resizes the index shows here. Each row is (seed, mode, mapping
/// fingerprint, arena + directory bytes).
#[test]
fn optimizer_layout_is_pinned() {
    const PINNED: [(u64, RemapMode, u64, usize); 9] = [
        (1, RemapMode::LongOnly, 0x97bef7fdacaedb51, 109332),
        (1, RemapMode::Full, 0xdf5f1cab9ac13da6, 109332),
        (
            1,
            RemapMode::FullWithWithdrawals,
            0x64278f116a856268,
            109332,
        ),
        (2, RemapMode::LongOnly, 0x06b1abfb4b1d3827, 108727),
        (2, RemapMode::Full, 0x877983383fc9c4a1, 108727),
        (
            2,
            RemapMode::FullWithWithdrawals,
            0x99e74f4fe1634d9a,
            108727,
        ),
        (3, RemapMode::LongOnly, 0xd1cbc753244a650c, 108596),
        (3, RemapMode::Full, 0x85c17a15185d9f1f, 108596),
        (
            3,
            RemapMode::FullWithWithdrawals,
            0xd1cbc753244a650c,
            108596,
        ),
    ];
    let mut actual = Vec::new();
    for &(seed, remap, _, _) in &PINNED {
        let corpus = AdCorpus::generate(CorpusConfig::small(seed));
        let workload = Workload::generate(QueryGenConfig::small(seed), &corpus);
        let index = build_index(&corpus, &workload, remap, 4);
        let stats = index.stats();
        actual.push((
            seed,
            remap,
            mapping_fingerprint(&index),
            stats.arena_bytes + stats.directory_bytes,
        ));
    }
    assert_eq!(actual, PINNED, "optimizer layout moved");
}

#[test]
fn full_remap_model_cost_is_at_most_long_only() {
    let corpus = AdCorpus::generate(CorpusConfig::small(9));
    let workload = Workload::generate(QueryGenConfig::small(9), &corpus);
    let long_only = build_index(&corpus, &workload, RemapMode::LongOnly, 4);
    let full = build_index(&corpus, &workload, RemapMode::Full, 4);

    let wl = QueryWorkload::from_texts(
        full.vocab(),
        workload.entries().iter().map(|(q, f)| (q.as_str(), *f)),
    );
    let c_long = long_only.modeled_cost(&wl);
    let c_full = full.modeled_cost(&wl);
    assert!(
        c_full.breakdown.node_cost <= c_long.breakdown.node_cost * 1.001,
        "full {} vs long-only {}",
        c_full.breakdown.node_cost,
        c_long.breakdown.node_cost
    );
    // Hash cost is independent of the mapping (Section V-A).
    assert!((c_full.breakdown.hash_cost - c_long.breakdown.hash_cost).abs() < 1e-6);
    // Fewer (or equal) nodes after merging.
    assert!(c_full.nodes <= c_long.nodes);
}

#[test]
fn remapping_never_changes_results_on_generated_workloads() {
    let corpus = AdCorpus::generate(CorpusConfig::small(17));
    let workload = Workload::generate(QueryGenConfig::small(17), &corpus);
    let indexes: Vec<_> = [RemapMode::None, RemapMode::LongOnly, RemapMode::Full]
        .into_iter()
        .map(|m| build_index(&corpus, &workload, m, 4))
        .collect();
    for q in workload.sample_trace(2_000, 5) {
        let reference: Vec<u64> = {
            let mut v: Vec<u64> = indexes[0]
                .query(q, sponsored_search::broadmatch::MatchType::Broad)
                .iter()
                .map(|h| h.info.listing_id)
                .collect();
            v.sort_unstable();
            v
        };
        for index in &indexes[1..] {
            let mut v: Vec<u64> = index
                .query(q, sponsored_search::broadmatch::MatchType::Broad)
                .iter()
                .map(|h| h.info.listing_id)
                .collect();
            v.sort_unstable();
            assert_eq!(v, reference, "query {q:?}");
        }
    }
}

#[cfg(feature = "proptest-tests")]
mod props {
    use super::*;
    use proptest::prelude::*;
    use sponsored_search::broadmatch::AdInfo;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Long phrases are always findable regardless of max_words: the
        /// Section IV-B re-mapping invariant.
        #[test]
        fn long_phrases_stay_reachable(max_words in 1usize..6, seed in 0u64..1000) {
            let config = IndexConfig {
                max_words,
                remap: RemapMode::LongOnly,
                probe_cap: 1 << 20,
                ..IndexConfig::default()
            };
            let mut builder = IndexBuilder::with_config(config);
            // One long phrase plus filler.
            let long = "alpha beta gamma delta epsilon zeta eta theta";
            builder.add(long, AdInfo::with_bid(99, 10)).expect("valid");
            for i in 0..(seed % 20) {
                builder
                    .add(&format!("filler{i} alpha"), AdInfo::with_bid(i, 5))
                    .expect("valid");
            }
            let index = builder.build().expect("valid");
            let query = format!("{long} iota kappa");
            let hits = index.query(&query, sponsored_search::broadmatch::MatchType::Broad);
            prop_assert!(
                hits.iter().any(|h| h.info.listing_id == 99),
                "long phrase lost at max_words={}",
                max_words
            );
        }
    }
}
