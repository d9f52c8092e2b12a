//! The paper's workload cost formulas (Section V-A): `Cost_Hash(WL, M)`,
//! `Cost_Node(WL, M)` and the per-node `weight(S)` of equation (2).
//!
//! With the affine `Cost_Scan` of `broadmatch-memcost` the node cost
//! decomposes per entry, which both the evaluator here and the optimizer's
//! weight function exploit:
//!
//! ```text
//! weight(S at L) = acc(L) · Cost_Random
//!                + Σ_{g ∈ S} acc_ge(L, |g|) · Cost_Scan(bytes(g))
//! ```
//!
//! where `acc(L) = Σ_{Q ⊇ L} frq(Q)` is the frequency mass of queries that
//! must visit a node with locator `L`, and `acc_ge(L, ℓ)` restricts that to
//! queries with at least `ℓ` words (shorter queries stop scanning before an
//! `ℓ`-word entry thanks to the in-node ordering).
//!
//! Both functions come from one [`AccTable`], the co-access table: one
//! enumeration of every workload query's bounded subsets. It is the largest
//! input of the optimizer, so an index build makes it once and hands the
//! same table to candidate pricing, the set-cover weights and both
//! [`evaluate_mapping`] calls of the greedy-vs-baseline check. It holds a
//! row only for the locators its caller will price (the optimizer's
//! interned locators, or a mapping's distinct locators); a row is addressed
//! by the locator's dense id, and the rows are flat in one `u64` array. The
//! enumeration probes the keys by borrowed subset slices, so a subset that
//! is no key costs one lookup and no allocation.

use std::collections::HashMap;

use broadmatch_memcost::CostModel;

use crate::directory::SLOT_BYTES;
use crate::hash::FxBuildHasher;
use crate::optimize::GroupMeta;
use crate::wordset::subset_count;
use crate::{QueryWorkload, WordId, WordSet};

/// Longest query length tracked exactly by the accumulator; longer queries
/// are clamped (they are vanishingly rare and the clamp only affects which
/// entries are assumed scanned).
pub(crate) const MAX_TRACKED_LEN: usize = 32;

/// Co-access table: for every key word set, the frequency mass of workload
/// queries that reach it among their first `probe_cap` subsets of at most
/// `max_words` words, bucketed by query length.
///
/// Key `i` owns row `i`: `acc[i * stride..][..stride]`, whose slot `ℓ`
/// holds `acc_ge(key, ℓ)`. The stride is one more than the longest
/// (clamped) workload query, so every slot a query can fill exists and any
/// `ℓ` past the row reads 0.
#[derive(Debug)]
pub(crate) struct AccTable {
    acc: Vec<u64>,
    stride: usize,
    /// The subset enumeration bounds the table was built with.
    max_words: usize,
    probe_cap: usize,
}

impl AccTable {
    /// Enumerate each workload query's subsets (sizes `1..=max_words`,
    /// capped at `probe_cap` per query — mirroring the query-time cutoff)
    /// and accumulate the frequencies of those in `keys`, which must be
    /// distinct. Row `i` answers for `keys[i]`.
    pub(crate) fn build(
        workload: &QueryWorkload,
        keys: &[&WordSet],
        max_words: usize,
        probe_cap: usize,
    ) -> Self {
        let stride = workload
            .queries()
            .iter()
            .map(|q| q.total_len.min(MAX_TRACKED_LEN))
            .max()
            .unwrap_or(0)
            + 1;
        let rows: HashMap<&[WordId], u32, FxBuildHasher> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| (key.ids(), u32::try_from(i).expect("fewer than 2^32 keys")))
            .collect();
        assert_eq!(rows.len(), keys.len(), "co-access keys must be distinct");
        let mut acc = vec![0u64; keys.len() * stride];
        for q in workload.queries() {
            let len_bucket = q.total_len.min(MAX_TRACKED_LEN);
            let mut iter = q.set.subsets(max_words);
            let mut probes = 0usize;
            while let Some(subset) = iter.next_subset() {
                if probes >= probe_cap {
                    break;
                }
                probes += 1;
                if let Some(&row) = rows.get(subset) {
                    acc[row as usize * stride + len_bucket] += q.freq;
                }
            }
        }
        // Turn each row's length histogram into suffix sums, in place.
        for row in acc.chunks_exact_mut(stride) {
            for i in (0..stride - 1).rev() {
                row[i] += row[i + 1];
            }
        }
        AccTable {
            acc,
            stride,
            max_words,
            probe_cap,
        }
    }

    /// Number of keys (rows) the table answers for.
    pub(crate) fn rows(&self) -> usize {
        self.acc.len() / self.stride
    }

    /// `acc(L)`: total frequency of workload queries containing key `row`.
    pub(crate) fn acc_total(&self, row: u32) -> u64 {
        self.acc_ge(row, 0)
    }

    /// `acc_ge(L, len)`: frequency of workload queries containing key `row`
    /// with at least `len` words (`len` clamped to [`MAX_TRACKED_LEN`]).
    pub(crate) fn acc_ge(&self, row: u32, len: usize) -> u64 {
        let i = len.min(MAX_TRACKED_LEN);
        if i < self.stride {
            self.acc[row as usize * self.stride + i]
        } else {
            0
        }
    }
}

/// The two components of `Cost(WL, M)` (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// `Cost_Hash(WL, M)`: directory probes (independent of the mapping).
    pub hash_cost: f64,
    /// `Cost_Node(WL, M)`: random accesses to data nodes plus scans.
    pub node_cost: f64,
}

impl CostBreakdown {
    /// `Cost(WL, M) = Cost_Hash + Cost_Node`.
    pub fn total(&self) -> f64 {
        self.hash_cost + self.node_cost
    }
}

/// Model-predicted cost of executing a workload against a mapping, plus
/// summary statistics. Produced by [`crate::BroadMatchIndex::modeled_cost`]
/// and by the optimizer ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingCost {
    /// Cost components.
    pub breakdown: CostBreakdown,
    /// Number of data nodes under the mapping.
    pub nodes: usize,
    /// Expected node random accesses per unit workload frequency.
    pub expected_node_accesses: f64,
}

/// Evaluate `Cost(WL, M)` for `groups` under a mapping given as each
/// group's locator id, a row of `acc`.
///
/// `acc` must be [`AccTable::build`] of the same `workload`; its subset
/// bounds price the hash probes too. Callers that price several mappings
/// build the table once, keyed by every locator either mapping uses. Node
/// costs are summed in group order, so the result does not depend on how
/// the locators were numbered.
pub(crate) fn evaluate_mapping(
    groups: &[GroupMeta<'_>],
    locators: &[u32],
    workload: &QueryWorkload,
    acc: &AccTable,
    cost: &CostModel,
) -> MappingCost {
    assert_eq!(groups.len(), locators.len());

    // Cost_Hash: each query pays (subset lookups) probes, each a random
    // access reading mem_hash bytes.
    let mut hash_cost = 0.0;
    for q in workload.queries() {
        let lookups = subset_count(q.total_len, acc.max_words).min(acc.probe_cap as u64);
        hash_cost +=
            q.freq as f64 * lookups as f64 * (cost.cost_random + cost.cost_scan(SLOT_BYTES));
    }

    // Cost_Node: weight(S) of every node, its random access charged at the
    // node's first group.
    let mut seen = vec![false; acc.rows()];
    let mut nodes = 0;
    let mut node_cost = 0.0;
    let mut expected_node_accesses = 0.0;
    for (meta, &locator) in groups.iter().zip(locators) {
        if !std::mem::replace(&mut seen[locator as usize], true) {
            let visits = acc.acc_total(locator) as f64;
            node_cost += visits * cost.cost_random;
            expected_node_accesses += visits;
            nodes += 1;
        }
        // Equation (2) charges Cost_Scan per stored phrase; entries are
        // contiguous, so the per-entry scan term is exact under any
        // monotone Cost_Scan.
        let scanned = acc.acc_ge(locator, meta.words.len()) as f64;
        node_cost += scanned * cost.cost_scan(meta.bytes);
    }

    MappingCost {
        breakdown: CostBreakdown {
            hash_cost,
            node_cost,
        },
        nodes,
        expected_node_accesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WeightedQuery, WordId};

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

    /// A table keyed by `keys`: key `i` is row `i`.
    fn table(workload: &QueryWorkload, keys: &[WordSet], max_words: usize, cap: usize) -> AccTable {
        let keys: Vec<&WordSet> = keys.iter().collect();
        AccTable::build(workload, &keys, max_words, cap)
    }

    fn metas<'a>(words: &'a [WordSet], bytes: &[usize]) -> Vec<GroupMeta<'a>> {
        words
            .iter()
            .zip(bytes)
            .map(|(words, &bytes)| GroupMeta { words, bytes })
            .collect()
    }

    #[test]
    fn acc_table_counts_supersets() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5), (&[4], 7)]);
        let keys = [ws(&[1]), ws(&[1, 2]), ws(&[1, 2, 3]), ws(&[4]), ws(&[5])];
        let acc = table(&workload, &keys, 3, 1 << 20);
        let totals: Vec<u64> = (0..5).map(|row| acc.acc_total(row)).collect();
        assert_eq!(totals, [15, 15, 10, 7, 0]);
        assert_eq!(acc.rows(), 5);
    }

    #[test]
    fn acc_ge_respects_query_length() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5)]);
        let acc = table(&workload, &[ws(&[1])], 3, 1 << 20);
        // Queries containing {1}: both. With >= 3 words: only the first.
        assert_eq!(acc.acc_ge(0, 2), 15);
        assert_eq!(acc.acc_ge(0, 3), 10);
        assert_eq!(acc.acc_ge(0, 4), 0);
    }

    #[test]
    fn acc_table_respects_max_words() {
        let workload = wl(&[(&[1, 2, 3], 1)]);
        let acc = table(&workload, &[ws(&[1, 2]), ws(&[1, 2, 3])], 2, 1 << 20);
        assert_eq!(acc.acc_total(0), 1);
        assert_eq!(acc.acc_total(1), 0, "size-3 subsets not enumerated");
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_keys_are_rejected() {
        let workload = wl(&[(&[1], 1)]);
        table(&workload, &[ws(&[1]), ws(&[1])], 2, 1 << 20);
    }

    #[test]
    fn identity_mapping_cost_components() {
        let groups = vec![ws(&[1]), ws(&[1, 2])];
        let metas = metas(&groups, &[50, 80]);
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel {
            cost_random: 100.0,
            scan_base: 0.0,
            scan_byte: 1.0,
        };
        let acc = table(&workload, &groups, 8, 1 << 20);
        let mc = evaluate_mapping(&metas, &[0, 1], &workload, &acc, &cost);
        // Hash: 3 subsets * (100 + 16) * 10.
        assert!((mc.breakdown.hash_cost - 10.0 * 3.0 * 116.0).abs() < 1e-6);
        // Nodes: both visited 10x => 2 * 10 * 100 random + scans 10*(50+80).
        assert!((mc.breakdown.node_cost - (2000.0 + 1300.0)).abs() < 1e-6);
        assert_eq!(mc.nodes, 2);
    }

    #[test]
    fn merging_coaccessed_nodes_reduces_model_cost() {
        // Groups {1} and {1,2}; every query is {1,2}: merging the second
        // group into locator {1} saves a random access per query.
        let groups = vec![ws(&[1]), ws(&[1, 2])];
        let metas = metas(&groups, &[50, 80]);
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel::dram();

        let acc = table(&workload, &groups, 8, 1 << 20);
        let c_id = evaluate_mapping(&metas, &[0, 1], &workload, &acc, &cost);
        let c_mg = evaluate_mapping(&metas, &[0, 0], &workload, &acc, &cost);
        assert!(
            c_mg.breakdown.node_cost < c_id.breakdown.node_cost,
            "merged {} !< identity {}",
            c_mg.breakdown.node_cost,
            c_id.breakdown.node_cost
        );
        assert_eq!(c_mg.nodes, 1);
        // Hash cost is mapping-independent.
        assert_eq!(c_mg.breakdown.hash_cost, c_id.breakdown.hash_cost);
    }

    #[test]
    fn merging_rarely_coaccessed_nodes_increases_model_cost() {
        // Group {2} is hot via query {2}; group {1,2} is huge and cold.
        // Merging the cold giant under locator {2} forces the hot queries
        // to scan it... but only if their length allows: use query {2,3}
        // (length 2 >= |{1,2}|) so the scan actually happens.
        let groups = vec![ws(&[2]), ws(&[1, 2])];
        let metas = metas(&groups, &[10, 10_000]);
        let workload = wl(&[(&[2, 3], 100), (&[1, 2], 1)]);
        let cost = CostModel::dram();

        let acc = table(&workload, &groups, 8, 1 << 20);
        let c_id = evaluate_mapping(&metas, &[0, 1], &workload, &acc, &cost);
        let c_mg = evaluate_mapping(&metas, &[0, 0], &workload, &acc, &cost);
        assert!(c_mg.breakdown.node_cost > c_id.breakdown.node_cost);
    }

    #[test]
    fn acc_ge_past_the_longest_query_reads_zero() {
        // Longest query has 3 words, so rows have 4 slots (0..=3).
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5)]);
        let acc = table(&workload, &[ws(&[1]), ws(&[1, 2, 3])], 3, 1 << 20);
        assert_eq!(acc.stride, 4);
        assert_eq!(acc.acc_ge(0, 3), 10, "at the longest query");
        for len in [4, 5, MAX_TRACKED_LEN, MAX_TRACKED_LEN + 1, 1000] {
            assert_eq!(acc.acc_ge(0, len), 0, "len {len}");
            assert_eq!(acc.acc_ge(1, len), 0, "len {len}");
        }
    }

    #[test]
    fn lengths_past_max_tracked_len_clamp() {
        // 40 folded words, 2 of them known: counts as MAX_TRACKED_LEN long.
        let mut workload = wl(&[(&[1], 3)]);
        workload.push(WeightedQuery {
            set: ws(&[1, 2]),
            total_len: 40,
            freq: 7,
        });
        let acc = table(&workload, &[ws(&[1]), ws(&[1, 2])], 2, 1 << 20);
        assert_eq!(acc.stride, MAX_TRACKED_LEN + 1);
        assert_eq!(acc.acc_total(0), 10);
        assert_eq!(acc.acc_ge(0, 2), 7);
        assert_eq!(acc.acc_ge(0, MAX_TRACKED_LEN), 7);
        // Any longer length clamps to MAX_TRACKED_LEN, as entry lengths do.
        assert_eq!(acc.acc_ge(0, MAX_TRACKED_LEN + 1), 7);
        assert_eq!(acc.acc_ge(1, 40), 7);
    }

    #[test]
    fn probe_cap_counts_only_the_first_subsets() {
        // Enumeration is by size, then lexicographic: {1}, {2}, {3}, {1,2}...
        // With a cap of 2, the keys {3} and {1,2} are never reached.
        let workload = wl(&[(&[1, 2, 3], 4)]);
        let keys = [ws(&[1]), ws(&[2]), ws(&[3]), ws(&[1, 2])];
        let acc = table(&workload, &keys, 3, 2);
        let totals: Vec<u64> = (0..4).map(|row| acc.acc_total(row)).collect();
        assert_eq!(totals, [4, 4, 0, 0]);
        // The cap also bounds the priced hash probes.
        let groups = vec![ws(&[1])];
        let cost = CostModel {
            cost_random: 1.0,
            scan_base: 0.0,
            scan_byte: 0.0,
        };
        let mc = evaluate_mapping(&metas(&groups, &[10]), &[0], &workload, &acc, &cost);
        assert_eq!(mc.breakdown.hash_cost, 4.0 * 2.0);
    }

    /// The first `cap` subsets of `ids` with at most `max_words` words, by
    /// size and then lexicographically, built without `SubsetIter`.
    fn first_subsets(ids: &[u32], max_words: usize, cap: usize) -> Vec<Vec<u32>> {
        fn extend(ids: &[u32], size: usize, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if prefix.len() == size {
                out.push(prefix.clone());
                return;
            }
            for (i, &id) in ids.iter().enumerate() {
                prefix.push(id);
                extend(&ids[i + 1..], size, prefix, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        for size in 1..=max_words.min(ids.len()) {
            extend(ids, size, &mut Vec::new(), &mut out);
        }
        out.truncate(cap);
        out
    }

    #[test]
    fn keyed_table_matches_brute_force() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let random_set = |rng: &mut dyn FnMut(u64) -> u64, max_len: u64| {
            let len = 1 + rng(max_len);
            ws(&(0..len).map(|_| rng(9) as u32).collect::<Vec<_>>())
        };
        for round in 0..200 {
            let max_words = 1 + rng(4) as usize;
            let cap = [1, 2, 3, 5, 8, 1 << 20][rng(6) as usize];
            let mut workload = QueryWorkload::new();
            for _ in 0..1 + rng(12) {
                let set = random_set(&mut rng, 6);
                // Unknown words lengthen a query; some pass the clamp.
                let extra = [0, 0, 1, 3, 30, 40][rng(6) as usize];
                workload.push(WeightedQuery {
                    total_len: set.len() + extra,
                    set,
                    freq: 1 + rng(20),
                });
            }
            let mut keys: Vec<WordSet> = Vec::new();
            for _ in 0..1 + rng(10) {
                let key = random_set(&mut rng, 4);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            let acc = table(&workload, &keys, max_words, cap);
            for (row, key) in keys.iter().enumerate() {
                for len in [0, 1, 2, 3, 5, MAX_TRACKED_LEN - 1, MAX_TRACKED_LEN, 40] {
                    let expected: u64 = workload
                        .queries()
                        .iter()
                        .filter(|q| {
                            let ids: Vec<u32> = q.set.ids().iter().map(|w| w.0).collect();
                            let key: Vec<u32> = key.ids().iter().map(|w| w.0).collect();
                            first_subsets(&ids, max_words, cap).contains(&key)
                                && q.total_len.min(MAX_TRACKED_LEN) >= len.min(MAX_TRACKED_LEN)
                        })
                        .map(|q| q.freq)
                        .sum();
                    assert_eq!(
                        acc.acc_ge(row as u32, len),
                        expected,
                        "round {round}, key {key:?}, len {len}, max_words {max_words}, cap {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_table_prices_like_modeled_cost() {
        let mut builder = crate::IndexBuilder::with_config(crate::IndexConfig {
            remap: crate::RemapMode::Full,
            max_words: 2,
            ..crate::IndexConfig::default()
        });
        for (i, phrase) in [
            "red shoes",
            "cheap red shoes",
            "running shoes for men",
            "shoes",
            "red running shoes sale",
        ]
        .iter()
        .enumerate()
        {
            builder
                .add(phrase, crate::AdInfo::with_bid(i as u64, 10))
                .unwrap();
        }
        let index = builder.build().unwrap();
        let workload = QueryWorkload::from_texts(
            index.vocab(),
            [
                ("red shoes", 9),
                ("cheap red running shoes", 4),
                ("shoes for men running fast today", 2),
            ],
        );
        // Key one table by both mappings' locators, the groups' own word
        // sets first, as the optimizer numbers them.
        let group_words = index.group_words();
        let mut keys: Vec<&WordSet> = group_words.iter().collect();
        let chosen: Vec<u32> = (0..group_words.len())
            .map(|g| {
                let locator = index.mapping().locator(g);
                let row = keys.iter().position(|&k| k == locator).unwrap_or_else(|| {
                    keys.push(locator);
                    keys.len() - 1
                });
                row as u32
            })
            .collect();
        assert!(
            chosen.iter().enumerate().any(|(g, &row)| row != g as u32),
            "the optimizer moved some group"
        );
        let acc = AccTable::build(
            &workload,
            &keys,
            index.stats().max_locator_len.max(1),
            index.config().probe_cap,
        );
        let cost = &index.config().cost;
        let groups = metas(group_words, index.group_bytes());
        // Price another mapping on the same table first: sharing must not
        // leave state behind.
        let identity: Vec<u32> = (0..group_words.len() as u32).collect();
        evaluate_mapping(&groups, &identity, &workload, &acc, cost);
        let shared = evaluate_mapping(&groups, &chosen, &workload, &acc, cost);
        // modeled_cost numbers the locators by first use instead: the
        // result must not depend on the numbering.
        let own = index.modeled_cost(&workload);
        let bits = |c: &MappingCost| {
            (
                c.breakdown.hash_cost.to_bits(),
                c.breakdown.node_cost.to_bits(),
                c.expected_node_accesses.to_bits(),
                c.nodes,
            )
        };
        assert!(own.breakdown.node_cost > 0.0);
        assert_eq!(bits(&shared), bits(&own));
    }
}
