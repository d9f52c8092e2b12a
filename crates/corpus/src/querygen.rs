//! Synthetic query workloads (the paper's 5M-query web-trace stand-in).

use broadmatch_rng::{Pcg32, RandomSource};

use crate::vocabgen::word_string;
use crate::zipf::ZipfSampler;
use crate::AdCorpus;

/// Configuration for [`Workload::generate`].
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Number of distinct queries.
    pub distinct_queries: usize,
    /// Zipf exponent of query frequencies ("search query frequencies are
    /// known to follow a power-law distribution", Section V).
    pub freq_zipf: f64,
    /// Fraction of queries built as supersets of a corpus bid word set
    /// (these produce broad matches; the rest are noise misses).
    pub superset_fraction: f64,
    /// Maximum extra words appended to a superset query.
    pub max_extra_words: usize,
    /// Length range of pure-noise queries.
    pub noise_len: (usize, usize),
    /// RNG seed.
    pub seed: u64,
}

impl QueryGenConfig {
    /// A workload sized for tests and examples.
    pub fn small(seed: u64) -> Self {
        QueryGenConfig {
            distinct_queries: 500,
            freq_zipf: 1.0,
            superset_fraction: 0.7,
            max_extra_words: 3,
            noise_len: (1, 6),
            seed,
        }
    }

    /// A workload sized for benchmarks.
    pub fn benchmark(distinct_queries: usize, seed: u64) -> Self {
        QueryGenConfig {
            distinct_queries,
            freq_zipf: 1.0,
            superset_fraction: 0.7,
            max_extra_words: 3,
            noise_len: (1, 8),
            seed,
        }
    }
}

/// A synthetic query workload: distinct weighted queries, plus trace
/// sampling for throughput experiments.
#[derive(Debug, Clone)]
pub struct Workload {
    entries: Vec<(String, u64)>,
    config: QueryGenConfig,
}

impl Workload {
    /// Generate a workload against `corpus`.
    ///
    /// Superset queries take a random bid word set and append up to
    /// `max_extra_words` vocabulary words; noise queries are random word
    /// strings (mostly misses). Frequencies are Zipf over a shuffled rank
    /// order so popularity and match-behavior are independent.
    pub fn generate(config: QueryGenConfig, corpus: &AdCorpus) -> Self {
        assert!(config.distinct_queries > 0);
        let mut rng = Pcg32::seed_from_u64(config.seed ^ 0xBADC_0FFE);
        let vocab_size = corpus.config().vocab_size;
        let word_sampler = ZipfSampler::new(vocab_size, 1.0);
        let seeds = corpus.wordset_phrases();

        let mut texts = Vec::with_capacity(config.distinct_queries);
        let mut seen = std::collections::HashSet::with_capacity(config.distinct_queries);
        let mut guard = 0usize;
        while texts.len() < config.distinct_queries {
            guard += 1;
            if guard > config.distinct_queries * 50 {
                break; // tiny corpora cannot yield enough distinct queries
            }
            let text = if !seeds.is_empty() && rng.gen_f64() < config.superset_fraction {
                let base = rng.choose(seeds).expect("non-empty");
                let mut words: Vec<String> = base.split_whitespace().map(str::to_string).collect();
                let extra = rng.gen_range_inclusive(0..=config.max_extra_words);
                for _ in 0..extra {
                    words.push(word_string(word_sampler.sample(&mut rng) as u64));
                }
                rng.shuffle(&mut words);
                words.join(" ")
            } else {
                let (lo, hi) = config.noise_len;
                let len = rng.gen_range_inclusive(lo..=hi.max(lo));
                (0..len)
                    .map(|_| word_string(word_sampler.sample(&mut rng) as u64))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            if seen.insert(text.clone()) {
                texts.push(text);
            }
        }

        // Zipf frequencies over shuffled ranks.
        let freq_sampler = ZipfSampler::new(texts.len(), config.freq_zipf);
        let mut freqs = freq_sampler.expected_counts(texts.len() as u64 * 100, 1);
        rng.shuffle(&mut freqs);
        let entries = texts.into_iter().zip(freqs).collect();
        Workload { entries, config }
    }

    /// Assemble a workload from explicit entries (file loading, tests).
    pub(crate) fn from_parts(entries: Vec<(String, u64)>, config: QueryGenConfig) -> Self {
        Workload { entries, config }
    }

    /// The distinct `(query, frequency)` pairs.
    pub fn entries(&self) -> &[(String, u64)] {
        &self.entries
    }

    /// The generating configuration.
    pub fn config(&self) -> &QueryGenConfig {
        &self.config
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clone the entries in the form `IndexBuilder::set_workload` expects.
    pub fn to_builder_workload(&self) -> Vec<(String, u64)> {
        self.entries.clone()
    }

    /// Sample a trace of `n` query strings by frequency — the replayable
    /// equivalent of the paper's web trace.
    pub fn sample_trace(&self, n: usize, seed: u64) -> Vec<&str> {
        assert!(!self.entries.is_empty());
        let mut rng = Pcg32::seed_from_u64(seed);
        // CDF over frequencies.
        let mut cdf = Vec::with_capacity(self.entries.len());
        let mut acc = 0u64;
        for (_, f) in &self.entries {
            acc += *f;
            cdf.push(acc);
        }
        (0..n)
            .map(|_| {
                let u = rng.gen_index(acc as usize) as u64;
                let i = cdf.partition_point(|&c| c <= u);
                self.entries[i].0.as_str()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusConfig;
    use broadmatch::{AdInfo, IndexBuilder, MatchType};

    fn setup() -> (AdCorpus, Workload) {
        let corpus = AdCorpus::generate(CorpusConfig::small(3));
        let workload = Workload::generate(QueryGenConfig::small(3), &corpus);
        (corpus, workload)
    }

    #[test]
    fn generates_distinct_queries() {
        let (_, wl) = setup();
        assert_eq!(wl.len(), 500);
        let mut texts: Vec<&str> = wl.entries().iter().map(|(t, _)| t.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 500);
    }

    #[test]
    fn superset_queries_produce_matches() {
        let (corpus, wl) = setup();
        let mut builder = IndexBuilder::new();
        for ad in corpus.ads() {
            builder.add(&ad.phrase, ad.info).unwrap();
        }
        let index = builder.build().unwrap();
        let matched = wl
            .entries()
            .iter()
            .filter(|(q, _)| !index.query(q, MatchType::Broad).is_empty())
            .count();
        // ~70% are superset queries; nearly all of those must match.
        assert!(
            matched as f64 / wl.len() as f64 > 0.5,
            "only {matched}/500 queries matched"
        );
        let _ = AdInfo::default();
    }

    #[test]
    fn frequencies_are_power_law() {
        let (_, wl) = setup();
        let mut freqs: Vec<u64> = wl.entries().iter().map(|&(_, f)| f).collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            freqs[0] > 20 * freqs[400],
            "head {} tail {}",
            freqs[0],
            freqs[400]
        );
    }

    #[test]
    fn trace_respects_frequencies() {
        let (_, wl) = setup();
        let trace = wl.sample_trace(20_000, 9);
        assert_eq!(trace.len(), 20_000);
        // The most frequent query appears far more often than a random one.
        let (top_q, _) = wl.entries().iter().max_by_key(|&&(_, f)| f).unwrap();
        let top_count = trace.iter().filter(|&&q| q == top_q).count();
        assert!(top_count > 100, "top query sampled only {top_count} times");
    }

    #[test]
    fn deterministic_per_seed() {
        let corpus = AdCorpus::generate(CorpusConfig::small(3));
        let a = Workload::generate(QueryGenConfig::small(1), &corpus);
        let b = Workload::generate(QueryGenConfig::small(1), &corpus);
        assert_eq!(a.entries(), b.entries());
    }
}
