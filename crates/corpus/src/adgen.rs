//! The synthetic advertisement corpus generator.

use broadmatch::AdInfo;
use broadmatch_rng::{Pcg32, RandomSource};

use crate::vocabgen::word_string;
use crate::zipf::{zipf_counts, ZipfSampler};

/// Configuration for [`AdCorpus::generate`].
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Target number of advertisements (actual count may differ by rounding
    /// of the per-word-set deal-out; see [`AdCorpus::len`]).
    pub n_ads: usize,
    /// Number of distinct bid word sets.
    pub distinct_wordsets: usize,
    /// Vocabulary size words are drawn from.
    pub vocab_size: usize,
    /// Probability weights of phrase lengths `1..=weights.len()`. The
    /// default is calibrated to Fig. 1: peak at 3 words, 62% ≤ 3,
    /// 96% ≤ 5, 99.8% ≤ 8.
    pub length_weights: Vec<f64>,
    /// Zipf exponent of word usage (Fig. 7's keyword skew).
    pub word_zipf: f64,
    /// Zipf exponent of ads-per-word-set. The default 0.55 matches the
    /// log-log slope of the paper's Fig. 2 (top combination ≈ 0.2% of ads).
    pub wordset_zipf: f64,
    /// Fraction of ads whose phrase shuffles its word order (distinct
    /// phrases over the same word set — exercises phrase/exact match).
    pub reorder_fraction: f64,
    /// RNG seed; same config + seed ⇒ identical corpus.
    pub seed: u64,
}

impl CorpusConfig {
    /// The Fig. 1-calibrated length weights for bid phrases.
    pub fn paper_length_weights() -> Vec<f64> {
        vec![
            0.080,  // 1 word
            0.220,  // 2
            0.320,  // 3  <- peak; cumulative 62%
            0.220,  // 4
            0.120,  // 5  <- cumulative 96%
            0.025,  // 6
            0.009,  // 7
            0.004,  // 8  <- cumulative 99.8%
            0.0012, // 9
            0.0005, // 10
            0.0002, // 11
            0.0001, // 12
        ]
    }

    /// A corpus sized for unit tests and examples.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            n_ads: 2_000,
            distinct_wordsets: 800,
            vocab_size: 500,
            length_weights: Self::paper_length_weights(),
            word_zipf: 1.0,
            wordset_zipf: 0.55,
            reorder_fraction: 0.1,
            seed,
        }
    }

    /// A corpus sized for benchmarks (hundreds of thousands of ads).
    ///
    /// The vocabulary grows with the square root of the corpus (Heaps'
    /// law): real ad corpora reuse words heavily, which is what gives the
    /// inverted baselines their long posting lists (Section VII-A's
    /// "several thousand elements" under popular keys).
    pub fn benchmark(n_ads: usize, seed: u64) -> Self {
        CorpusConfig {
            n_ads,
            distinct_wordsets: (n_ads / 3).max(1),
            vocab_size: ((3.0 * (n_ads as f64).sqrt()) as usize).clamp(300, 100_000),
            length_weights: Self::paper_length_weights(),
            word_zipf: 1.0,
            wordset_zipf: 0.55,
            reorder_fraction: 0.05,
            seed,
        }
    }
}

/// One generated advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedAd {
    /// The bid phrase.
    pub phrase: String,
    /// Its metadata.
    pub info: AdInfo,
}

/// A generated corpus of advertisements.
#[derive(Debug, Clone)]
pub struct AdCorpus {
    ads: Vec<GeneratedAd>,
    /// Distinct word-set phrases (canonical word order), one per set —
    /// kept for workload generation (queries are built as supersets).
    wordset_phrases: Vec<String>,
    config: CorpusConfig,
}

impl AdCorpus {
    /// Generate a corpus from `config`.
    ///
    /// Pipeline: (1) draw `distinct_wordsets` word sets — a Fig. 1 length,
    /// then that many distinct words from a Zipf(`word_zipf`) vocabulary;
    /// (2) deal `n_ads` out to the sets by Zipf(`wordset_zipf`) rank
    /// (Fig. 2); (3) emit each ad with its phrase (sometimes reordered) and
    /// synthetic metadata.
    ///
    /// # Panics
    /// Panics on a zero-sized configuration.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(config.n_ads > 0 && config.distinct_wordsets > 0 && config.vocab_size > 0);
        assert!(!config.length_weights.is_empty());
        let mut rng = Pcg32::seed_from_u64(config.seed);
        let word_sampler = ZipfSampler::new(config.vocab_size, config.word_zipf);

        // Length CDF.
        let total_w: f64 = config.length_weights.iter().sum();
        let mut len_cdf = Vec::with_capacity(config.length_weights.len());
        let mut acc = 0.0;
        for w in &config.length_weights {
            acc += w / total_w;
            len_cdf.push(acc);
        }

        // (1) distinct word sets.
        let mut seen = std::collections::HashSet::with_capacity(config.distinct_wordsets);
        let mut wordsets: Vec<Vec<u64>> = Vec::with_capacity(config.distinct_wordsets);
        while wordsets.len() < config.distinct_wordsets {
            let u = rng.gen_f64();
            let len = len_cdf.partition_point(|&c| c < u) + 1;
            let len = len.min(config.vocab_size);
            let mut words = std::collections::BTreeSet::new();
            let mut attempts = 0;
            while words.len() < len && attempts < len * 30 {
                words.insert(word_sampler.sample(&mut rng) as u64);
                attempts += 1;
            }
            if words.len() < len {
                continue; // tiny vocabularies: retry with a fresh draw
            }
            let set: Vec<u64> = words.into_iter().collect();
            if seen.insert(set.clone()) {
                wordsets.push(set);
            }
        }

        // (2) ads per set: floor-1 Zipf counts (so the head set stays a
        // small fraction of the corpus, as in Fig. 2), then assigned to
        // sets so that the *ad-level* length histogram matches the Fig. 1
        // weights. The correction matters because short word sets are
        // capped by the vocabulary (there are only `vocab_size` possible
        // 1-word sets), so the distinct-set mix under-represents them; in
        // real corpora those few sets simply carry more ads each.
        let mut counts = zipf_counts(
            config.n_ads as u64,
            config.distinct_wordsets,
            config.wordset_zipf,
        );
        rng.shuffle(&mut counts);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total_ads: u64 = counts.iter().sum();

        // Deal the largest counts to the length bucket with the biggest
        // remaining deficit, picking a random unassigned set of that length.
        let max_len = config.length_weights.len();
        let mut deficit: Vec<f64> = (0..=max_len)
            .map(|l| {
                if l == 0 {
                    0.0
                } else {
                    config.length_weights[l - 1] / total_w * total_ads as f64
                }
            })
            .collect();
        let mut by_len: Vec<Vec<usize>> = vec![Vec::new(); max_len + 1];
        for (i, set) in wordsets.iter().enumerate() {
            by_len[set.len().min(max_len)].push(i);
        }
        for lst in &mut by_len {
            rng.shuffle(lst);
        }
        let mut assigned_counts: Vec<u64> = vec![0; wordsets.len()];
        for &count in &counts {
            // Most-deficient length bucket that still has unassigned sets.
            let target = (1..=max_len)
                .filter(|&l| !by_len[l].is_empty())
                .max_by(|&a, &b| {
                    deficit[a]
                        .partial_cmp(&deficit[b])
                        .expect("finite deficits")
                })
                .expect("some bucket still has sets");
            let set_idx = by_len[target].pop().expect("non-empty bucket");
            assigned_counts[set_idx] = count;
            deficit[target] -= count as f64;
        }
        let counts = assigned_counts;

        // (3) materialize ads.
        let mut ads = Vec::with_capacity(config.n_ads);
        let mut wordset_phrases = Vec::with_capacity(wordsets.len());
        let mut listing = 1u64;
        for (set_idx, (set, &count)) in wordsets.iter().zip(&counts).enumerate() {
            let canonical: Vec<String> = set.iter().map(|&w| word_string(w)).collect();
            wordset_phrases.push(canonical.join(" "));
            for _ in 0..count {
                let mut words = canonical.clone();
                if rng.gen_f64() < config.reorder_fraction {
                    rng.shuffle(&mut words);
                }
                // Bid prices: heavy-tailed around a small mode, like real
                // keyword auctions.
                let bid_cents = (10.0 + 90.0 * rng.gen_f64().powi(3) * 10.0) as u32;
                ads.push(GeneratedAd {
                    phrase: words.join(" "),
                    info: AdInfo {
                        listing_id: listing,
                        campaign_id: set_idx as u32,
                        bid_micros: bid_cents as u64 * 10_000,
                    },
                });
                listing += 1;
            }
        }
        rng.shuffle(&mut ads);

        AdCorpus {
            ads,
            wordset_phrases,
            config,
        }
    }

    /// Assemble a corpus from explicit parts (file loading, tests).
    pub(crate) fn from_parts(
        ads: Vec<GeneratedAd>,
        wordset_phrases: Vec<String>,
        config: CorpusConfig,
    ) -> Self {
        AdCorpus {
            ads,
            wordset_phrases,
            config,
        }
    }

    /// The generated ads.
    pub fn ads(&self) -> &[GeneratedAd] {
        &self.ads
    }

    /// Number of ads actually generated.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True if the corpus has no ads (never, for valid configs).
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// One canonical phrase per distinct word set (workload seeds).
    pub fn wordset_phrases(&self) -> &[String] {
        &self.wordset_phrases
    }

    /// The generating configuration.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Iterator over phrase strings.
    pub fn phrases(&self) -> impl Iterator<Item = &str> {
        self.ads.iter().map(|a| a.phrase.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch::CorpusStats;

    fn small_corpus() -> AdCorpus {
        AdCorpus::generate(CorpusConfig::small(7))
    }

    #[test]
    fn generates_roughly_requested_size() {
        let c = small_corpus();
        let n = c.len() as f64;
        assert!((n - 2000.0).abs() / 2000.0 < 0.25, "got {n}");
        assert_eq!(c.wordset_phrases().len(), 800);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = AdCorpus::generate(CorpusConfig::small(1));
        let b = AdCorpus::generate(CorpusConfig::small(1));
        let c = AdCorpus::generate(CorpusConfig::small(2));
        assert_eq!(a.ads(), b.ads());
        assert_ne!(a.ads(), c.ads());
    }

    #[test]
    fn length_distribution_matches_fig1() {
        let corpus = AdCorpus::generate(CorpusConfig {
            n_ads: 30_000,
            distinct_wordsets: 15_000,
            vocab_size: 20_000,
            ..CorpusConfig::small(3)
        });
        let stats = CorpusStats::from_phrases(corpus.phrases());
        let le3 = stats.fraction_with_at_most(3);
        let le5 = stats.fraction_with_at_most(5);
        let le8 = stats.fraction_with_at_most(8);
        assert!((le3 - 0.62).abs() < 0.06, "<=3 words: {le3}");
        assert!((le5 - 0.96).abs() < 0.03, "<=5 words: {le5}");
        assert!(le8 > 0.99, "<=8 words: {le8}");
        // Peak at 3 words.
        let peak = stats
            .length_histogram
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .unwrap()
            .0;
        assert_eq!(peak, 3);
    }

    #[test]
    fn wordset_counts_are_long_tailed() {
        let corpus = AdCorpus::generate(CorpusConfig {
            n_ads: 50_000,
            distinct_wordsets: 5_000,
            ..CorpusConfig::small(11)
        });
        let stats = CorpusStats::from_phrases(corpus.phrases());
        let slope = CorpusStats::zipf_slope(&stats.wordset_frequencies, 2_000);
        assert!(
            (-1.0..=-0.25).contains(&slope),
            "word-set Zipf slope {slope} not long-tailed"
        );
    }

    #[test]
    fn keywords_more_skewed_than_wordsets() {
        // The Fig. 7 gap: the top keyword covers far more phrases than the
        // top word set.
        let corpus = AdCorpus::generate(CorpusConfig {
            n_ads: 20_000,
            distinct_wordsets: 8_000,
            vocab_size: 3_000,
            ..CorpusConfig::small(5)
        });
        let stats = CorpusStats::from_phrases(corpus.phrases());
        assert!(
            stats.keyword_frequencies[0] > 4 * stats.wordset_frequencies[0],
            "keyword head {} vs wordset head {}",
            stats.keyword_frequencies[0],
            stats.wordset_frequencies[0]
        );
    }

    #[test]
    fn metadata_is_populated() {
        let c = small_corpus();
        assert!(c.ads().iter().all(|a| a.info.listing_id > 0));
        assert!(c.ads().iter().all(|a| a.info.bid_micros >= 100_000));
        // Listing ids unique.
        let mut ids: Vec<u64> = c.ads().iter().map(|a| a.info.listing_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.len());
    }
}
