//! Index construction: grouping, re-mapping, node layout, directory build.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use broadmatch_memcost::CostModel;

use crate::arena::Arena;
use crate::directory::{
    HashTableDirectory, NodeDirectory, SortedArrayDirectory, SuccinctNodeDirectory,
};
use crate::hash::FxBuildHasher;
use crate::index::BroadMatchIndex;
use crate::node::{encode_node, Codec, NodeEntry, PhraseGroup};
use crate::optimize::{remap_full, remap_long_only, GroupMeta, Mapping, OptimizerInput};
use crate::{AdId, AdInfo, BuildError, QueryWorkload, Vocabulary, WordSet};

/// Which re-mapping strategy the builder applies (the three variants of the
/// paper's Fig. 10, plus withdrawals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemapMode {
    /// No re-mapping: every distinct word set keys its own node; queries
    /// must enumerate all subsets up to the longest locator present
    /// (Fig. 10 variant (a)).
    None,
    /// Re-map only phrases longer than `max_words`, each to its cheapest
    /// destination (Fig. 10 variant (b)).
    #[default]
    LongOnly,
    /// Full workload-driven set-cover optimization (Fig. 10 variant (c)).
    Full,
    /// [`RemapMode::Full`] followed by withdrawal steps (Section V-B).
    FullWithWithdrawals,
}

/// Which node directory the index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryKind {
    /// Open-addressing hash table (the paper's default structure, Fig. 4).
    #[default]
    HashTable,
    /// The compressed `B^sig`/`B^off` structure of Section VI.
    Succinct,
    /// The tree-structured lookup table of Section III-B, realized as a
    /// sorted array with binary search (logarithmic probes, minimal space).
    SortedArray,
}

/// Build-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// `max_words`: longest node locator; phrases with more words are
    /// re-mapped (Section IV-B). The paper's evaluation uses 10.
    pub max_words: usize,
    /// Hard cap on directory probes per query — the paper's "heuristic
    /// cutoff for extremely long queries". Subsets are enumerated smallest
    /// first, so the cap sheds only the least selective probes.
    pub probe_cap: usize,
    /// Re-mapping strategy.
    pub remap: RemapMode,
    /// Directory implementation.
    pub directory: DirectoryKind,
    /// Encode nodes with the Section VI compression.
    pub compress_nodes: bool,
    /// Cost model driving the optimizer.
    pub cost: CostModel,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            max_words: 10,
            probe_cap: 4096,
            remap: RemapMode::LongOnly,
            directory: DirectoryKind::HashTable,
            compress_nodes: false,
            cost: CostModel::dram(),
        }
    }
}

impl IndexConfig {
    /// Set the `max_words` locator bound (Section IV-B).
    pub fn with_max_words(mut self, max_words: usize) -> Self {
        self.max_words = max_words;
        self
    }

    /// Set the per-query probe cap (the long-query heuristic cutoff).
    pub fn with_probe_cap(mut self, probe_cap: usize) -> Self {
        self.probe_cap = probe_cap;
        self
    }

    /// Set the re-mapping strategy.
    pub fn with_remap(mut self, remap: RemapMode) -> Self {
        self.remap = remap;
        self
    }

    /// Set the directory implementation.
    pub fn with_directory(mut self, directory: DirectoryKind) -> Self {
        self.directory = directory;
        self
    }

    /// Enable/disable the Section VI node compression.
    pub fn with_compressed_nodes(mut self, compress: bool) -> Self {
        self.compress_nodes = compress;
        self
    }

    /// Set the cost model driving the optimizer.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }
}

#[derive(Debug, Default)]
struct GroupData {
    phrases: Vec<PhraseGroup>,
}

/// Accumulates advertisements (and optionally a query workload) and builds a
/// [`BroadMatchIndex`].
///
/// # Examples
///
/// ```
/// use broadmatch::{AdInfo, IndexBuilder, IndexConfig, MatchType, RemapMode};
///
/// let mut cfg = IndexConfig::default();
/// cfg.remap = RemapMode::Full;
/// let mut builder = IndexBuilder::with_config(cfg);
/// builder.add("red shoes", AdInfo::with_bid(1, 30));
/// builder.add("red running shoes", AdInfo::with_bid(2, 45));
/// builder.set_workload(vec![("red running shoes sale".into(), 50)]);
/// let index = builder.build().unwrap();
/// assert_eq!(index.query("buy red running shoes", MatchType::Broad).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    config: IndexConfig,
    vocab: Vocabulary,
    groups: HashMap<WordSet, GroupData, FxBuildHasher>,
    n_ads: u32,
    workload_texts: Vec<(String, u64)>,
    exclusions: HashMap<AdId, WordSet, FxBuildHasher>,
}

impl IndexBuilder {
    /// Builder with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with an explicit configuration.
    pub fn with_config(config: IndexConfig) -> Self {
        IndexBuilder {
            config,
            ..Self::default()
        }
    }

    /// The configuration this builder will apply.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Number of ads added so far.
    pub fn len(&self) -> usize {
        self.n_ads as usize
    }

    /// True if no ads were added.
    pub fn is_empty(&self) -> bool {
        self.n_ads == 0
    }

    /// Add one advertisement bid phrase. Returns the assigned [`AdId`].
    ///
    /// # Errors
    /// [`BuildError::EmptyPhrase`] if the phrase tokenizes to nothing;
    /// [`BuildError::PhraseTooLong`] beyond 255 words.
    pub fn add(&mut self, phrase: &str, info: AdInfo) -> Result<AdId, BuildError> {
        let (words, raw) = self.vocab.intern_phrase(phrase);
        if words.is_empty() {
            return Err(BuildError::EmptyPhrase {
                phrase: phrase.to_string(),
            });
        }
        if raw.len() > u8::MAX as usize {
            return Err(BuildError::PhraseTooLong {
                phrase: phrase.to_string(),
                words: raw.len(),
            });
        }
        let ad_id = AdId(self.n_ads);
        self.n_ads += 1;

        let group = match self.groups.entry(words) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                for &w in e.key().ids() {
                    self.vocab.bump_phrase_freq(w);
                }
                e.insert(GroupData::default())
            }
        };
        match group.phrases.iter_mut().find(|p| p.raw == raw) {
            Some(p) => p.ads.push((ad_id, info)),
            None => group.phrases.push(PhraseGroup {
                raw,
                ads: vec![(ad_id, info)],
            }),
        }
        Ok(ad_id)
    }

    /// Add an advertisement with *exclusion phrases* (paper, Section I:
    /// "additional exclusion phrases that may be specified with each ad and
    /// are used to exclude ads if they match (part of) the query"). The ad
    /// is suppressed from results whenever any exclusion word occurs in the
    /// query.
    ///
    /// # Errors
    /// Same as [`IndexBuilder::add`].
    pub fn add_with_exclusions(
        &mut self,
        phrase: &str,
        info: AdInfo,
        exclusions: &[&str],
    ) -> Result<AdId, BuildError> {
        let ad_id = self.add(phrase, info)?;
        let mut ids = Vec::new();
        for text in exclusions {
            let (set, _) = self.vocab.intern_phrase(text);
            ids.extend_from_slice(set.ids());
        }
        if !ids.is_empty() {
            self.exclusions.insert(ad_id, WordSet::from_unsorted(ids));
        }
        Ok(ad_id)
    }

    /// Supply the observed query workload (distinct query text, frequency)
    /// that the `Full` re-mapping strategies optimize for. Resolved against
    /// the final vocabulary at [`IndexBuilder::build`] time.
    pub fn set_workload(&mut self, queries: Vec<(String, u64)>) {
        self.workload_texts = queries;
    }

    /// Build the index, consuming the builder.
    ///
    /// # Errors
    /// [`BuildError::InvalidConfig`] for nonsensical configuration.
    pub fn build(self) -> Result<BroadMatchIndex, BuildError> {
        let IndexBuilder {
            config,
            vocab,
            groups,
            n_ads,
            workload_texts,
            exclusions,
        } = self;
        if config.max_words == 0 {
            return Err(BuildError::InvalidConfig {
                reason: "max_words must be at least 1".into(),
            });
        }
        if config.probe_cap == 0 {
            return Err(BuildError::InvalidConfig {
                reason: "probe_cap must be at least 1".into(),
            });
        }

        // Deterministic group order.
        let mut group_list: Vec<(WordSet, GroupData)> = groups.into_iter().collect();
        group_list.sort_by(|a, b| a.0.cmp(&b.0));
        let group_words: Vec<WordSet> = group_list.iter().map(|(w, _)| w.clone()).collect();
        let entries: Vec<NodeEntry> = group_list
            .into_iter()
            .map(|(words, data)| NodeEntry {
                words,
                phrases: data.phrases,
            })
            .collect();
        let group_bytes: Vec<usize> = entries.iter().map(|e| e.plain_encoded_bytes()).collect();

        // Resolve the workload; fall back to "each word set queried once".
        let workload = if workload_texts.is_empty() {
            QueryWorkload::uniform_over(group_words.iter().cloned())
        } else {
            QueryWorkload::from_texts(&vocab, workload_texts.iter().map(|(t, f)| (t.as_str(), *f)))
        };

        // Compute the mapping.
        let word_freq = |w: crate::WordId| vocab.phrase_freq(w);
        let metas: Vec<GroupMeta> = group_words
            .iter()
            .zip(&group_bytes)
            .map(|(words, &bytes)| GroupMeta { words, bytes })
            .collect();
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &config.cost,
            max_words: config.max_words,
            probe_cap: config.probe_cap,
            word_freq: &word_freq,
        };
        let mapping = match config.remap {
            RemapMode::None => Mapping::identity(&group_words),
            RemapMode::LongOnly => remap_long_only(&input),
            RemapMode::Full => remap_full(&input, false),
            RemapMode::FullWithWithdrawals => remap_full(&input, true),
        };
        drop(metas);
        if config.remap != RemapMode::None {
            debug_assert!(
                mapping
                    .validate(&group_words, config.max_words, false)
                    .is_ok(),
                "optimizer produced an invalid mapping: {:?}",
                mapping.validate(&group_words, config.max_words, false)
            );
        }

        let codec = if config.compress_nodes {
            Codec::Compressed
        } else {
            Codec::Plain
        };

        // Gather entries per node key.
        let max_locator_len = (0..group_words.len())
            .map(|g| mapping.locator(g).len())
            .max()
            .unwrap_or(0);

        let (arena, directory) = match config.directory {
            DirectoryKind::HashTable | DirectoryKind::SortedArray => {
                // Key = full 64-bit wordhash of the locator.
                let mut nodes: HashMap<u64, Vec<NodeEntry>, FxBuildHasher> = HashMap::default();
                for (g, entry) in entries.into_iter().enumerate() {
                    nodes
                        .entry(mapping.locator(g).hash())
                        .or_default()
                        .push(entry);
                }
                let mut keys: Vec<u64> = nodes.keys().copied().collect();
                keys.sort_unstable();
                let mut arena = Arena::new();
                let mut items = Vec::with_capacity(keys.len());
                for key in keys {
                    let mut node_entries = nodes.remove(&key).expect("key from map");
                    let start = arena.len() as u32;
                    encode_node(&mut node_entries, codec, &mut arena);
                    items.push((key, start, arena.len() as u32 - start));
                }
                let directory = if config.directory == DirectoryKind::SortedArray {
                    NodeDirectory::Sorted(SortedArrayDirectory::new(items))
                } else {
                    NodeDirectory::Hash(HashTableDirectory::new(&items))
                };
                (arena, directory)
            }
            DirectoryKind::Succinct => {
                // Key = s-bit suffix of the locator hash; suffix collisions
                // merge into one node (Section VI). The width resolves the
                // paper's "selecting the suffix-size s" trade-off: the
                // narrowest s whose collision-induced extra scan stays well
                // under the cost model's random/scan break-even.
                let n_nodes = mapping.distinct_nodes().max(1);
                let avg_node_bytes = (group_bytes.iter().sum::<usize>() / n_nodes).max(1) as u64;
                let tolerance = (config.cost.break_even_scan_bytes() as f64 * 0.05).max(1.0);
                let suffix_bits = broadmatch_succinct::pick_suffix_bits_by_model(
                    n_nodes as u64,
                    avg_node_bytes,
                    tolerance,
                )
                .max(SuccinctNodeDirectory::pick_suffix_bits(n_nodes));
                let mask = (1u64 << suffix_bits) - 1;
                let mut nodes: HashMap<u64, Vec<NodeEntry>, FxBuildHasher> = HashMap::default();
                for (g, entry) in entries.into_iter().enumerate() {
                    nodes
                        .entry(mapping.locator(g).hash() & mask)
                        .or_default()
                        .push(entry);
                }
                let mut keys: Vec<u64> = nodes.keys().copied().collect();
                keys.sort_unstable();
                let mut arena = Arena::new();
                let mut items = Vec::with_capacity(keys.len());
                for key in keys {
                    let mut node_entries = nodes.remove(&key).expect("key from map");
                    let start = arena.len();
                    encode_node(&mut node_entries, codec, &mut arena);
                    items.push((key, (arena.len() - start) as u64));
                }
                let dir = broadmatch_succinct::CompressedDirectory::new(suffix_bits, &items);
                (
                    arena,
                    NodeDirectory::Succinct(SuccinctNodeDirectory::new(dir)),
                )
            }
        };

        Ok(BroadMatchIndex::assemble(
            config,
            vocab,
            arena,
            directory,
            codec,
            mapping,
            group_words,
            group_bytes,
            n_ads,
            max_locator_len,
        )
        .with_exclusions(exclusions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchType;

    #[test]
    fn empty_phrase_rejected() {
        let mut b = IndexBuilder::new();
        assert!(matches!(
            b.add("!!!", AdInfo::default()),
            Err(BuildError::EmptyPhrase { .. })
        ));
    }

    #[test]
    fn too_long_phrase_rejected() {
        let mut b = IndexBuilder::new();
        let long: String = (0..300).map(|i| format!("w{i} ")).collect();
        assert!(matches!(
            b.add(&long, AdInfo::default()),
            Err(BuildError::PhraseTooLong { .. })
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = IndexConfig {
            max_words: 0,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        b.add("x", AdInfo::default()).unwrap();
        assert!(matches!(b.build(), Err(BuildError::InvalidConfig { .. })));
    }

    #[test]
    fn empty_builder_builds_empty_index() {
        let index = IndexBuilder::new().build().unwrap();
        assert!(index.query("anything at all", MatchType::Broad).is_empty());
        assert_eq!(index.stats().ads, 0);
    }

    #[test]
    fn duplicate_phrases_share_a_group() {
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("books used", AdInfo::with_bid(3, 30)).unwrap();
        let index = b.build().unwrap();
        let stats = index.stats();
        assert_eq!(stats.ads, 3);
        assert_eq!(stats.groups, 1, "same word set, one group");
        assert_eq!(index.query("used books", MatchType::Broad).len(), 3);
        // Exact match distinguishes word order.
        assert_eq!(index.query("used books", MatchType::Exact).len(), 2);
        assert_eq!(index.query("books used", MatchType::Exact).len(), 1);
    }

    #[test]
    fn fluent_config_builders() {
        let cfg = IndexConfig::default()
            .with_max_words(5)
            .with_probe_cap(1 << 16)
            .with_remap(RemapMode::Full)
            .with_directory(DirectoryKind::Succinct)
            .with_compressed_nodes(true)
            .with_cost(CostModel::disk_like());
        assert_eq!(cfg.max_words, 5);
        assert_eq!(cfg.probe_cap, 1 << 16);
        assert_eq!(cfg.remap, RemapMode::Full);
        assert_eq!(cfg.directory, DirectoryKind::Succinct);
        assert!(cfg.compress_nodes);
        assert_eq!(cfg.cost, CostModel::disk_like());
    }

    #[test]
    fn exclusion_phrases_suppress_matches() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(1, 50), &["cheap", "free"])
            .unwrap();
        b.add("running shoes", AdInfo::with_bid(2, 40)).unwrap();
        let index = b.build().unwrap();

        // Both match a neutral query.
        assert_eq!(index.query("red running shoes", MatchType::Broad).len(), 2);
        // The excluded ad disappears when an exclusion word is present.
        for q in ["cheap running shoes", "free running shoes today"] {
            let hits = index.query(q, MatchType::Broad);
            assert_eq!(hits.len(), 1, "query {q:?}");
            assert_eq!(hits[0].info.listing_id, 2);
        }
        // Exclusions apply to exact and phrase match too.
        assert_eq!(index.query("running shoes", MatchType::Exact).len(), 2);
        assert_eq!(
            index.query("cheap running shoes", MatchType::Phrase).len(),
            1
        );
    }

    #[test]
    fn empty_exclusion_list_is_a_plain_add() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("x y", AdInfo::with_bid(1, 5), &[])
            .unwrap();
        let index = b.build().unwrap();
        assert_eq!(index.query("x y z", MatchType::Broad).len(), 1);
    }

    #[test]
    fn ad_ids_are_sequential() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add("a", AdInfo::default()).unwrap(), AdId(0));
        assert_eq!(b.add("b", AdInfo::default()).unwrap(), AdId(1));
        assert_eq!(b.len(), 2);
    }
}
