//! The re-mapping optimizer (Section V): choosing where each distinct word
//! set lives, cast as weighted set cover.
//!
//! Terminology: a **group** is one distinct folded word set together with
//! all its phrases/ads — condition (IV) of the paper makes groups atomic, so
//! they are the elements of the cover. A **locator** is the word set keying
//! a data node; validity requires `locator ⊆ words(g)` for every group `g`
//! mapped to it (condition III), and every locator has at most `max_words`
//! words so that query-time subset enumeration stays bounded (Section IV-B).
//!
//! For long groups with no short sub-phrase in the corpus, the paper inserts
//! additional node locators ("such additional node-locators can be inserted
//! easily"); we call these *synthetic* locators and pick the `max_words`
//! rarest words of the group (rare words minimize the frequency with which
//! unrelated queries visit the node).

use std::collections::HashMap;

use broadmatch_memcost::CostModel;
use broadmatch_setcover::CandidateSet;

use crate::costmodel::AccTable;
use crate::hash::FxBuildHasher;
use crate::{QueryWorkload, WordId, WordSet};

/// Hard cap on how many groups one candidate node may hold; far above what
/// the DRAM cost model's break-even admits, it only guards degenerate
/// configurations.
const MAX_NODE_GROUPS: usize = 64;

/// Cap on candidate locators considered per group.
const MAX_LOCATORS_PER_GROUP: usize = 24;

/// An assignment of every group to a node locator — the paper's mapping
/// `M : A → 2^W`, restricted to distinct word sets (condition IV).
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    locators: Vec<WordSet>,
}

impl Mapping {
    /// Wrap explicit locators (one per group, index-aligned).
    pub fn new(locators: Vec<WordSet>) -> Self {
        Mapping { locators }
    }

    /// The identity mapping: every group keyed by its own word set.
    pub fn identity(group_words: &[WordSet]) -> Self {
        Mapping {
            locators: group_words.to_vec(),
        }
    }

    /// The locator of group `g`.
    pub fn locator(&self, g: usize) -> &WordSet {
        &self.locators[g]
    }

    /// Number of groups mapped.
    pub fn len(&self) -> usize {
        self.locators.len()
    }

    /// True if the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.locators.is_empty()
    }

    /// The mapping's distinct locators in order of first use, and each
    /// group's index into them: the keys and rows of an [`AccTable`] that
    /// prices this mapping.
    pub(crate) fn interned(&self) -> (Vec<&WordSet>, Vec<u32>) {
        let mut ids: HashMap<&WordSet, u32, FxBuildHasher> = HashMap::default();
        let mut distinct = Vec::new();
        let rows = self
            .locators
            .iter()
            .map(|locator| {
                *ids.entry(locator).or_insert_with(|| {
                    distinct.push(locator);
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        (distinct, rows)
    }

    /// Number of distinct data nodes this mapping produces.
    pub fn distinct_nodes(&self) -> usize {
        let mut set: std::collections::HashSet<&WordSet, FxBuildHasher> =
            std::collections::HashSet::default();
        set.extend(self.locators.iter());
        set.len()
    }

    /// Check the operational mapping invariants (Section V-A):
    ///
    /// * (I)/(II) — every group has exactly one locator (by construction);
    /// * (III′) — `locator(g) ⊆ words(g)` (broad-match correctness);
    /// * bounded locators — `|locator(g)| ≤ max_words` whenever
    ///   `|words(g)| > max_words` (long phrases must be reachable), and in
    ///   `strict` mode for *all* groups;
    /// * (IV) is structural: one locator per group entry.
    pub fn validate(
        &self,
        group_words: &[WordSet],
        max_words: usize,
        strict: bool,
    ) -> Result<(), String> {
        if self.locators.len() != group_words.len() {
            return Err(format!(
                "mapping covers {} groups, corpus has {}",
                self.locators.len(),
                group_words.len()
            ));
        }
        for (g, locator) in self.locators.iter().enumerate() {
            if !locator.is_subset_of(&group_words[g]) {
                return Err(format!("group {g}: locator is not a subset of its words"));
            }
            if locator.is_empty() {
                return Err(format!("group {g}: empty locator"));
            }
            let long_group = group_words[g].len() > max_words;
            if (strict || long_group) && locator.len() > max_words {
                return Err(format!(
                    "group {g}: locator has {} words, exceeding max_words={max_words}",
                    locator.len()
                ));
            }
        }
        Ok(())
    }

    /// Summary statistics for reporting.
    pub fn stats(&self, group_words: &[WordSet]) -> MappingStats {
        let mut remapped = 0;
        let mut locator_set: std::collections::HashSet<&WordSet, FxBuildHasher> =
            std::collections::HashSet::default();
        let group_set: std::collections::HashSet<&WordSet, FxBuildHasher> =
            group_words.iter().collect();
        let mut synthetic = 0;
        for (g, locator) in self.locators.iter().enumerate() {
            if locator != &group_words[g] {
                remapped += 1;
            }
            if locator_set.insert(locator) && !group_set.contains(locator) {
                synthetic += 1;
            }
        }
        MappingStats {
            groups: self.locators.len(),
            nodes: locator_set.len(),
            remapped_groups: remapped,
            synthetic_locators: synthetic,
        }
    }
}

/// Statistics describing a [`Mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingStats {
    /// Distinct word-set groups mapped.
    pub groups: usize,
    /// Distinct data nodes produced.
    pub nodes: usize,
    /// Groups stored somewhere other than their own word set.
    pub remapped_groups: usize,
    /// Locators that are not the word set of any group (inserted for long
    /// phrases with no short sub-phrase in the corpus).
    pub synthetic_locators: usize,
}

/// Everything the optimizer needs to know about one group.
pub(crate) struct GroupMeta<'a> {
    pub words: &'a WordSet,
    /// Plain-encoded size of the group's node entry in bytes.
    pub bytes: usize,
}

/// Context shared by the remap strategies.
pub(crate) struct OptimizerInput<'a> {
    pub groups: &'a [GroupMeta<'a>],
    pub workload: &'a QueryWorkload,
    pub cost: &'a CostModel,
    pub max_words: usize,
    pub probe_cap: usize,
    /// Per-word corpus phrase frequency, for the rare-word synthetic
    /// locator heuristic.
    pub word_freq: &'a dyn Fn(WordId) -> u64,
}

/// Pick a synthetic locator for a long group: its `max_words` rarest words.
pub(crate) fn synthetic_locator(
    words: &WordSet,
    max_words: usize,
    word_freq: &dyn Fn(WordId) -> u64,
) -> WordSet {
    let mut ids: Vec<WordId> = words.ids().to_vec();
    ids.sort_by_key(|&w| (word_freq(w), w));
    ids.truncate(max_words.max(1));
    WordSet::from_unsorted(ids)
}

/// weight({g} alone at locator L): one random access per visiting query plus
/// the scan of g's bytes for queries long enough to reach it.
fn standalone_weight(locator: u32, meta: &GroupMeta<'_>, acc: &AccTable, cost: &CostModel) -> f64 {
    acc.acc_total(locator) as f64 * cost.cost_random
        + acc.acc_ge(locator, meta.words.len()) as f64 * cost.cost_scan(meta.bytes)
}

/// The locators the optimizer can place, interned to dense ids, with each
/// group's candidate destinations and the co-access table that prices them.
///
/// Group `g`'s own word set has id `g`; the synthetic locators of long
/// groups follow from `n` on. Equal word sets share one id, and an id is
/// its locator's row in `acc`, so pricing a locator hashes nothing.
struct Locators<'a> {
    groups: &'a [GroupMeta<'a>],
    synthetic: Vec<WordSet>,
    /// Candidate locator ids of each group that asked for them, cheapest
    /// standalone first; empty for the others.
    candidates: Vec<Vec<u32>>,
    acc: AccTable,
}

impl<'a> Locators<'a> {
    /// Intern the candidates of every group `wanted` selects and build the
    /// co-access table over all interned locators.
    fn build(input: &OptimizerInput<'a>, wanted: impl Fn(&GroupMeta<'_>) -> bool) -> Self {
        let groups = input.groups;
        let n = groups.len();
        let group_index: HashMap<&[WordId], u32, FxBuildHasher> = groups
            .iter()
            .enumerate()
            .map(|(g, meta)| (meta.words.ids(), g as u32))
            .collect();
        let mut synthetic_ids: HashMap<WordSet, u32, FxBuildHasher> = HashMap::default();
        let mut synthetic = Vec::new();
        let mut candidates: Vec<Vec<u32>> = groups
            .iter()
            .enumerate()
            .map(|(g, meta)| {
                if !wanted(meta) {
                    return Vec::new();
                }
                let mut out = candidate_ids(g, meta, input.max_words, &group_index);
                if out.is_empty() {
                    let locator = synthetic_locator(meta.words, input.max_words, input.word_freq);
                    // Past the subset budget a synthetic locator may still
                    // be some group's word set: it then has that group's id.
                    let id = match group_index.get(locator.ids()) {
                        Some(&id) => id,
                        None => *synthetic_ids.entry(locator).or_insert_with_key(|locator| {
                            synthetic.push(locator.clone());
                            (n + synthetic.len() - 1) as u32
                        }),
                    };
                    out.push(id);
                }
                out
            })
            .collect();
        let keys: Vec<&WordSet> = groups
            .iter()
            .map(|meta| meta.words)
            .chain(&synthetic)
            .collect();
        let acc = AccTable::build(input.workload, &keys, input.max_words, input.probe_cap);
        for (meta, ids) in groups.iter().zip(&mut candidates) {
            let mut keyed: Vec<(f64, u32)> = ids
                .iter()
                .map(|&id| (standalone_weight(id, meta, &acc, input.cost), id))
                .collect();
            // A stable sort: equal weights keep enumeration order.
            keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite weights"));
            keyed.truncate(MAX_LOCATORS_PER_GROUP);
            *ids = keyed.into_iter().map(|(_, id)| id).collect();
        }
        Locators {
            groups,
            synthetic,
            candidates,
            acc,
        }
    }

    /// The word set of locator `id`.
    fn words(&self, id: u32) -> &WordSet {
        let id = id as usize;
        match self.groups.get(id) {
            Some(meta) => meta.words,
            None => &self.synthetic[id - self.groups.len()],
        }
    }

    /// The group whose own word set locator `id` is, if any.
    fn owner(&self, id: u32) -> Option<usize> {
        ((id as usize) < self.groups.len()).then_some(id as usize)
    }

    /// The cheapest standalone destination of group `g`.
    fn best(&self, g: usize) -> u32 {
        self.candidates[g][0]
    }

    /// Materialise a mapping given as locator ids.
    fn mapping(&self, ids: &[u32]) -> Mapping {
        Mapping::new(ids.iter().map(|&id| self.words(id).clone()).collect())
    }
}

/// Candidate destination locators of a group, in enumeration order: its own
/// word set when short enough, then the subsets of its words (size
/// `1..=max_words`, at most 4096 enumerated) that are another group's word
/// set. Empty when there is none; the caller then adds a synthetic one.
fn candidate_ids(
    g: usize,
    meta: &GroupMeta<'_>,
    max_words: usize,
    group_index: &HashMap<&[WordId], u32, FxBuildHasher>,
) -> Vec<u32> {
    let mut out = Vec::new();
    if meta.words.len() <= max_words {
        out.push(g as u32);
    }
    let mut iter = meta.words.subsets(max_words);
    let mut budget = 4096usize;
    while let Some(subset) = iter.next_subset() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        if subset.len() == meta.words.len() {
            continue; // identity handled above
        }
        if let Some(&id) = group_index.get(subset) {
            out.push(id);
        }
    }
    out
}

/// The *long-only* strategy (Fig. 10 variant (b)): groups short enough to be
/// probed directly keep their identity locator; longer groups move to their
/// cheapest candidate destination. Also the local heuristic used when
/// inserting new ads at runtime (Section VI, maintenance).
pub(crate) fn remap_long_only(input: &OptimizerInput<'_>) -> Mapping {
    let locators = Locators::build(input, |meta| meta.words.len() > input.max_words);
    let ids: Vec<u32> = (0..input.groups.len())
        .map(|g| {
            if locators.candidates[g].is_empty() {
                g as u32
            } else {
                locators.best(g)
            }
        })
        .collect();
    locators.mapping(&ids)
}

/// The *full* strategy (Fig. 10 variant (c)): weighted set cover over
/// candidate node contents, solved with the lazy greedy (optionally followed
/// by withdrawal steps).
pub(crate) fn remap_full(input: &OptimizerInput<'_>, withdrawals: bool) -> Mapping {
    let n = input.groups.len();
    if n == 0 {
        return Mapping::new(Vec::new());
    }
    let started = std::time::Instant::now();
    let locators = Locators::build(input, |_| true);
    let acc = &locators.acc;

    // Per-group standalone cost at its best locator (for the §V-B pruning).
    let standalone: Vec<f64> = (0..n)
        .map(|g| standalone_weight(locators.best(g), &input.groups[g], acc, input.cost))
        .collect();

    // Locator -> groups that can live there. Keyed by word set: the family
    // below follows this map's iteration order, and with it the greedy's
    // tie-breaks, which `tests/optimizer.rs` pins.
    let mut members: HashMap<&WordSet, (u32, Vec<usize>), FxBuildHasher> = HashMap::default();
    for (g, cands) in locators.candidates.iter().enumerate() {
        for &id in cands {
            members
                .entry(locators.words(id))
                .or_insert_with(|| (id, Vec::new()))
                .1
                .push(g);
        }
    }

    // Build the candidate family: for each locator, nested prefixes of its
    // members ordered by marginal scan weight, pruned by the paper's
    // "cheaper alone" rule, plus singletons for guaranteed coverage. A
    // candidate's tag is its locator id.
    let mut candidates: Vec<CandidateSet> = Vec::new();
    for &(id, ref group_list) in members.values() {
        let tag = u64::from(id);
        let base = acc.acc_total(id) as f64 * input.cost.cost_random;
        // Marginal scan weight of each member at this locator (equation (2)
        // charges Cost_Scan per stored entry).
        let marginal = |g: usize| {
            let meta = &input.groups[g];
            acc.acc_ge(id, meta.words.len()) as f64 * input.cost.cost_scan(meta.bytes)
        };
        let mut scored: Vec<(f64, usize)> = group_list.iter().map(|&g| (marginal(g), g)).collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

        // The locator's owner group (if any) anchors every prefix.
        let owner = locators.owner(id);
        let mut prefix: Vec<u32> = Vec::new();
        let mut weight = base;
        if let Some(o) = owner {
            prefix.push(o as u32);
            weight += marginal(o);
            candidates.push(CandidateSet::new(prefix.clone(), weight, tag));
        }
        for &(m, g) in &scored {
            if Some(g) == owner {
                continue;
            }
            // Singleton candidate: g alone at this locator.
            candidates.push(CandidateSet::new(vec![g as u32], base + m, tag));

            // Grow the prefix unless the §V-B rule says g is cheaper alone.
            if prefix.len() < MAX_NODE_GROUPS && m < standalone[g] {
                prefix.push(g as u32);
                weight += m;
                candidates.push(CandidateSet::new(prefix.clone(), weight, tag));
            }
        }
    }

    let solution = if withdrawals {
        broadmatch_setcover::with_withdrawals(n as u32, &candidates, 3)
    } else {
        broadmatch_setcover::greedy_cover(n as u32, &candidates)
    }
    .expect("instance is coverable by construction (singletons exist)");

    // Assignment pass: greedy chosen order; prefer assigning a group to the
    // node where it is the locator owner (keeps condition III wherever
    // possible; leftovers become synthetic-locator nodes, which broad-match
    // correctness does not depend on).
    let mut assigned: Vec<Option<u32>> = vec![None; n];
    for &ci in &solution.chosen {
        let id = candidates[ci].tag as u32;
        let owner = locators.owner(id);
        for &g in &candidates[ci].elements {
            let g = g as usize;
            match assigned[g] {
                None => assigned[g] = Some(id),
                Some(_) if owner == Some(g) => assigned[g] = Some(id),
                Some(_) => {}
            }
        }
    }
    // Unreachable in practice; fall back to the group's best locator.
    let optimized: Vec<u32> = (0..n)
        .map(|g| assigned[g].unwrap_or_else(|| locators.best(g)))
        .collect();

    // Greedy is an H_k approximation, not a guarantee of beating the
    // identity layout; keep whichever the model prefers. (Long groups may
    // not use the identity mapping — substitute their best candidate.)
    let baseline: Vec<u32> = (0..n)
        .map(|g| {
            if input.groups[g].words.len() <= input.max_words {
                g as u32
            } else {
                locators.best(g)
            }
        })
        .collect();
    let evaluate = |ids: &[u32]| {
        crate::costmodel::evaluate_mapping(input.groups, ids, input.workload, acc, input.cost)
    };
    let kept_baseline =
        evaluate(&optimized).breakdown.node_cost > evaluate(&baseline).breakdown.node_cost;
    crate::telemetry::record_remap_run(
        if withdrawals { "withdrawals" } else { "greedy" },
        candidates.len(),
        solution.chosen.len(),
        kept_baseline,
        started.elapsed(),
    );
    locators.mapping(if kept_baseline { &baseline } else { &optimized })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::evaluate_mapping;
    use crate::WeightedQuery;

    fn ws(ids: &[u32]) -> WordSet {
        WordSet::from_unsorted(ids.iter().map(|&i| WordId(i)).collect())
    }

    fn wl(queries: &[(&[u32], u64)]) -> QueryWorkload {
        let mut w = QueryWorkload::new();
        for &(ids, freq) in queries {
            w.push(WeightedQuery {
                set: ws(ids),
                total_len: ids.len(),
                freq,
            });
        }
        w
    }

    fn freq_uniform(_: WordId) -> u64 {
        1
    }

    #[test]
    fn mapping_validate_accepts_identity() {
        let groups = vec![ws(&[1]), ws(&[2, 3])];
        let m = Mapping::identity(&groups);
        m.validate(&groups, 8, true).unwrap();
        assert_eq!(m.distinct_nodes(), 2);
    }

    #[test]
    fn mapping_validate_rejects_non_subset() {
        let groups = vec![ws(&[1])];
        let m = Mapping::new(vec![ws(&[2])]);
        assert!(m.validate(&groups, 8, true).is_err());
    }

    #[test]
    fn mapping_validate_rejects_long_locator_for_long_group() {
        let groups = vec![ws(&[1, 2, 3, 4])];
        let m = Mapping::identity(&groups);
        assert!(m.validate(&groups, 3, false).is_err());
        m.validate(&groups, 4, false).unwrap();
    }

    #[test]
    fn synthetic_locator_prefers_rare_words() {
        let words = ws(&[1, 2, 3]);
        let freq = |w: WordId| match w.0 {
            1 => 100u64,
            2 => 1,
            3 => 50,
            _ => 0,
        };
        let l = synthetic_locator(&words, 2, &freq);
        assert_eq!(l, ws(&[2, 3]));
    }

    #[test]
    fn long_only_keeps_short_groups() {
        let groups_ws = [ws(&[1]), ws(&[2, 3]), ws(&[1, 2, 3, 4, 5])];
        let metas: Vec<GroupMeta> = groups_ws
            .iter()
            .map(|w| GroupMeta {
                words: w,
                bytes: 40,
            })
            .collect();
        let workload = wl(&[(&[1, 2, 3, 4, 5], 5), (&[1], 10)]);
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &CostModel::dram(),
            max_words: 3,
            probe_cap: 4096,
            word_freq: &freq_uniform,
        };
        let m = remap_long_only(&input);
        m.validate(&groups_ws, 3, false).unwrap();
        assert_eq!(m.locator(0), &groups_ws[0]);
        assert_eq!(m.locator(1), &groups_ws[1]);
        assert!(m.locator(2).len() <= 3, "long group must be remapped");
    }

    #[test]
    fn long_only_prefers_existing_subset_locator() {
        // Long group {1,2,3,4} has existing subset group {1,2}.
        let groups_ws = [ws(&[1, 2]), ws(&[1, 2, 3, 4])];
        let metas: Vec<GroupMeta> = groups_ws
            .iter()
            .map(|w| GroupMeta {
                words: w,
                bytes: 40,
            })
            .collect();
        let workload = wl(&[(&[1, 2, 3, 4], 3)]);
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &CostModel::dram(),
            max_words: 3,
            probe_cap: 4096,
            word_freq: &freq_uniform,
        };
        let m = remap_long_only(&input);
        assert_eq!(m.locator(1), &ws(&[1, 2]));
        // No synthetic locators needed.
        assert_eq!(m.stats(&groups_ws).synthetic_locators, 0);
    }

    #[test]
    fn full_remap_merges_coaccessed_groups() {
        // {1} and {1,2} always queried together by {1,2}: the optimizer
        // should merge them into the node at {1}.
        let groups_ws = [ws(&[1]), ws(&[1, 2])];
        let metas: Vec<GroupMeta> = groups_ws
            .iter()
            .map(|w| GroupMeta {
                words: w,
                bytes: 40,
            })
            .collect();
        let workload = wl(&[(&[1, 2], 100)]);
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &CostModel::dram(),
            max_words: 8,
            probe_cap: 4096,
            word_freq: &freq_uniform,
        };
        let m = remap_full(&input, false);
        m.validate(&groups_ws, 8, false).unwrap();
        assert_eq!(m.locator(0), &ws(&[1]));
        assert_eq!(m.locator(1), &ws(&[1]), "co-accessed group should merge");
        assert_eq!(m.distinct_nodes(), 1);
    }

    #[test]
    fn full_remap_keeps_cold_giants_separate() {
        // {2} hot and tiny; {1,2} cold and huge. Keep them apart.
        let groups_ws = [ws(&[2]), ws(&[1, 2])];
        let metas = vec![
            GroupMeta {
                words: &groups_ws[0],
                bytes: 10,
            },
            GroupMeta {
                words: &groups_ws[1],
                bytes: 100_000,
            },
        ];
        let workload = wl(&[(&[2, 9], 1000), (&[1, 2], 1)]);
        let input = OptimizerInput {
            groups: &metas,
            workload: &workload,
            cost: &CostModel::dram(),
            max_words: 8,
            probe_cap: 4096,
            word_freq: &freq_uniform,
        };
        let m = remap_full(&input, false);
        m.validate(&groups_ws, 8, false).unwrap();
        assert_eq!(m.distinct_nodes(), 2, "cold giant must stay separate");
    }

    #[test]
    fn full_remap_never_worse_than_identity_under_model() {
        // Randomized comparison on small instances.
        let mut state = 777u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let n_groups = 3 + (rng() % 8) as usize;
            let mut sets = Vec::new();
            while sets.len() < n_groups {
                let len = 1 + (rng() % 4) as usize;
                let ids: Vec<u32> = (0..len).map(|_| (rng() % 10) as u32).collect();
                let s = ws(&ids);
                if !s.is_empty() && !sets.contains(&s) {
                    sets.push(s);
                }
            }
            let bytes: Vec<usize> = (0..n_groups).map(|_| 20 + (rng() % 200) as usize).collect();
            let metas: Vec<GroupMeta> = sets
                .iter()
                .zip(&bytes)
                .map(|(w, &b)| GroupMeta { words: w, bytes: b })
                .collect();
            let mut workload = QueryWorkload::new();
            for _ in 0..10 {
                let base = &sets[(rng() % n_groups as u64) as usize];
                let mut ids: Vec<WordId> = base.ids().to_vec();
                ids.push(WordId((rng() % 10) as u32));
                let set = WordSet::from_unsorted(ids);
                workload.push(WeightedQuery {
                    total_len: set.len(),
                    set,
                    freq: 1 + rng() % 50,
                });
            }
            let input = OptimizerInput {
                groups: &metas,
                workload: &workload,
                cost: &CostModel::dram(),
                max_words: 8,
                probe_cap: 4096,
                word_freq: &freq_uniform,
            };
            let full = remap_full(&input, true);
            full.validate(&sets, 8, false).unwrap();
            // Price both on one table keyed by every locator either uses.
            let mut keys: Vec<&WordSet> = sets.iter().collect();
            let full_rows: Vec<u32> = (0..n_groups)
                .map(|g| {
                    let locator = full.locator(g);
                    let row = keys.iter().position(|&k| k == locator).unwrap_or_else(|| {
                        keys.push(locator);
                        keys.len() - 1
                    });
                    row as u32
                })
                .collect();
            let identity: Vec<u32> = (0..n_groups as u32).collect();
            let acc = AccTable::build(&workload, &keys, 8, 4096);
            let cost = CostModel::dram();
            let c_full = evaluate_mapping(&metas, &full_rows, &workload, &acc, &cost);
            let c_id = evaluate_mapping(&metas, &identity, &workload, &acc, &cost);
            assert!(
                c_full.breakdown.node_cost <= c_id.breakdown.node_cost + 1e-6,
                "optimized node cost {} exceeds identity {}",
                c_full.breakdown.node_cost,
                c_id.breakdown.node_cost
            );
        }
    }
}
