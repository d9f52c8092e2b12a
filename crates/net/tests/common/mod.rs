//! Shared scaffolding for the loopback-cluster integration tests.

use std::net::SocketAddr;
use std::sync::Arc;

use broadmatch::{IndexBuilder, MatchHit, MatchType};
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd};
use broadmatch_net::router::partition_of;
use broadmatch_net::{Backend, BackendConfig};
use broadmatch_serve::{ServeConfig, ServeRuntime};

/// A small deterministic corpus, split across `n` backends by the same
/// partition function the router uses for mutations.
pub fn partitioned_corpus(n: usize, seed: u64) -> Vec<Vec<GeneratedAd>> {
    let corpus = AdCorpus::generate(CorpusConfig::small(seed));
    let mut parts = vec![Vec::new(); n];
    for ad in corpus.ads() {
        parts[partition_of(&ad.phrase, n)].push(ad.clone());
    }
    parts
}

/// A compact serve runtime over `ads` (2 shards, 2 workers).
pub fn runtime_over(ads: &[GeneratedAd]) -> Arc<ServeRuntime> {
    let mut builder = IndexBuilder::new();
    for ad in ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("valid corpus phrase");
    }
    let index = Arc::new(builder.build().expect("non-empty partition"));
    let config = ServeConfig {
        n_workers: 2,
        queue_capacity: 256,
        trace_sample_every: 0,
        ..ServeConfig::default()
    };
    Arc::new(ServeRuntime::start(index, config))
}

/// Bind a backend on an ephemeral loopback port over `ads`.
pub fn backend_over(ads: &[GeneratedAd]) -> Backend {
    Backend::bind(
        "127.0.0.1:0".parse::<SocketAddr>().expect("literal addr"),
        runtime_over(ads),
        BackendConfig::default(),
    )
    .expect("bind loopback")
}

/// Single-threaded ground truth over an arbitrary ad list.
pub fn truth_hits(ads: &[GeneratedAd], query: &str, match_type: MatchType) -> Vec<MatchHit> {
    let mut builder = IndexBuilder::new();
    for ad in ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("valid corpus phrase");
    }
    builder
        .build()
        .expect("non-empty ad list")
        .query(query, match_type)
}

/// Order-independent identity of a hit list: sorted listing ids (listing
/// ids are unique corpus-wide, and `AdId`s are backend-local so they
/// cannot be compared across topologies).
pub fn listing_multiset(hits: &[MatchHit]) -> Vec<u64> {
    let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
    ids.sort_unstable();
    ids
}

/// Queries likely to hit several partitions: the first words of corpus
/// phrases combined into broad queries.
pub fn probe_queries(parts: &[Vec<GeneratedAd>], n: usize) -> Vec<String> {
    let mut queries = Vec::new();
    let mut i = 0;
    'outer: loop {
        for part in parts {
            if let Some(ad) = part.get(i) {
                // A broad query is a superset of the bid phrase's word
                // set; append a word that exists nowhere in the corpus.
                queries.push(format!("{} zzfiller", ad.phrase));
                if queries.len() >= n {
                    break 'outer;
                }
            }
        }
        i += 1;
        if i > 10_000 {
            break;
        }
    }
    queries
}
