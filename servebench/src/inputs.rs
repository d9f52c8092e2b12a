//! Inputs made from the seed: one corpus, a held-out insert pool, a
//! Zipf-weighted query workload and the replay trace. The program under
//! test sees only these generated inputs, never the seed.

use std::collections::HashMap;

use broadmatch::{BroadMatchIndex, IndexBuilder, IndexConfig, RemapMode};
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd, QueryGenConfig, Workload};

/// Corpus size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size: 100K base ads, 10K pool, 10K distinct queries.
    Full,
    /// A few thousand ads, for the benchmark's own tests.
    Tiny,
}

impl Scale {
    /// `(base ads, pool ads, distinct queries, trace length, traced sample)`.
    pub fn sizes(self) -> (usize, usize, usize, usize, usize) {
        match self {
            Scale::Full => (100_000, 10_000, 10_000, 200_000, 5_000),
            Scale::Tiny => (3_000, 600, 300, 3_000, 200),
        }
    }
}

/// Everything a run needs, derived from `(scale, seed)` alone.
#[derive(Debug)]
pub struct Inputs {
    /// Corpus size.
    pub scale: Scale,
    /// Ads the index is built from.
    pub base: Vec<GeneratedAd>,
    /// Held-out ads that serve-churn inserts, in insertion order.
    pub pool: Vec<GeneratedAd>,
    /// Distinct query texts; a query id indexes this.
    pub queries: Vec<String>,
    /// `(query, frequency)` handed to the set-cover re-mapping.
    pub workload: Vec<(String, u64)>,
    /// The replay trace: query ids sampled by frequency.
    pub trace: Vec<u32>,
    /// Length of the traced-phase sample (a prefix of `trace`).
    pub traced_sample: usize,
}

impl Inputs {
    /// Generate the inputs for `seed`.
    pub fn generate(scale: Scale, seed: u64) -> Inputs {
        let (n_base, n_pool, n_queries, trace_len, traced_sample) = scale.sizes();
        let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_base + n_pool, seed));
        let split = n_base.min(corpus.len());
        let (base, pool) = corpus.ads().split_at(split);
        let generated = Workload::generate(
            QueryGenConfig::benchmark(n_queries, seed.wrapping_add(1)),
            &corpus,
        );
        let queries: Vec<String> = generated.entries().iter().map(|(q, _)| q.clone()).collect();
        let ids: HashMap<&str, u32> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q.as_str(), i as u32))
            .collect();
        let trace = generated
            .sample_trace(trace_len, seed ^ 0x5E57)
            .into_iter()
            .map(|q| ids[q])
            .collect();
        Inputs {
            scale,
            base: base.to_vec(),
            pool: pool.to_vec(),
            queries,
            workload: generated.to_builder_workload(),
            trace,
            traced_sample,
        }
    }

    /// The query text of trace position `i` (the trace repeats).
    pub fn trace_query(&self, i: usize) -> (u32, &str) {
        let qid = self.trace[i % self.trace.len()];
        (qid, &self.queries[qid as usize])
    }
}

/// The index configuration every workload builds with: full set-cover
/// re-mapping under the query workload, as `ad_server` ships it.
pub fn index_config() -> IndexConfig {
    IndexConfig {
        remap: RemapMode::Full,
        ..IndexConfig::default()
    }
}

/// Build an index over `ads` with [`index_config`] and `workload`.
pub fn build_index<'a>(
    ads: impl IntoIterator<Item = &'a GeneratedAd>,
    workload: &[(String, u64)],
) -> BroadMatchIndex {
    let mut builder = IndexBuilder::with_config(index_config());
    for ad in ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("generated phrases are valid");
    }
    builder.set_workload(workload.to_vec());
    builder.build().expect("valid index config")
}
