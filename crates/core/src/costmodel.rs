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
//! [`evaluate_mapping`] calls of the greedy-vs-baseline check. Its rows are
//! flat — a row id per word set into one `u64` array — and the table is
//! probed by borrowed subset slices, so building it allocates a key only for
//! a word set seen for the first time.

use std::collections::HashMap;

use broadmatch_memcost::CostModel;

use crate::directory::SLOT_BYTES;
use crate::hash::FxBuildHasher;
use crate::optimize::Mapping;
use crate::wordset::subset_count;
use crate::{QueryWorkload, WordSet};

/// Longest query length tracked exactly by the accumulator; longer queries
/// are clamped (they are vanishingly rare and the clamp only affects which
/// entries are assumed scanned).
pub(crate) const MAX_TRACKED_LEN: usize = 32;

/// Co-access table: for every word set that occurs as a subset of some
/// workload query (bounded by `max_words`), the frequency mass of queries
/// containing it, bucketed by query length.
///
/// Rows are flat: the set's row id `r` owns `acc[r * stride..][..stride]`,
/// and slot `ℓ` of a row holds `acc_ge(L, ℓ)`. The stride is one more than
/// the longest (clamped) workload query, so every slot a query can fill
/// exists and any `ℓ` past the row reads 0.
#[derive(Debug, Default)]
pub(crate) struct AccTable {
    rows: HashMap<WordSet, u32, FxBuildHasher>,
    acc: Vec<u64>,
    stride: usize,
    /// The subset enumeration bounds the table was built with.
    max_words: usize,
    probe_cap: usize,
}

impl AccTable {
    /// Enumerate each workload query's subsets (sizes `1..=max_words`,
    /// capped at `probe_cap` per query — mirroring the query-time cutoff)
    /// and accumulate frequencies.
    pub(crate) fn build(workload: &QueryWorkload, max_words: usize, probe_cap: usize) -> Self {
        let stride = workload
            .queries()
            .iter()
            .map(|q| q.total_len.min(MAX_TRACKED_LEN))
            .max()
            .unwrap_or(0)
            + 1;
        let mut rows: HashMap<WordSet, u32, FxBuildHasher> = HashMap::default();
        let mut acc: Vec<u64> = Vec::new();
        for q in workload.queries() {
            let len_bucket = q.total_len.min(MAX_TRACKED_LEN);
            let mut iter = q.set.subsets(max_words);
            let mut probes = 0usize;
            while let Some(subset) = iter.next_subset() {
                if probes >= probe_cap {
                    break;
                }
                probes += 1;
                let row = match rows.get(subset) {
                    Some(&row) => row,
                    None => {
                        let row = u32::try_from(rows.len()).expect("fewer than 2^32 word sets");
                        rows.insert(WordSet::from_sorted(subset.to_vec()), row);
                        acc.resize(acc.len() + stride, 0);
                        row
                    }
                };
                acc[row as usize * stride + len_bucket] += q.freq;
            }
        }
        // Turn each row's length histogram into suffix sums, in place.
        for row in acc.chunks_exact_mut(stride) {
            for i in (0..stride - 1).rev() {
                row[i] += row[i + 1];
            }
        }
        AccTable {
            rows,
            acc,
            stride,
            max_words,
            probe_cap,
        }
    }

    /// `acc(L)`: total frequency of workload queries containing `set`.
    pub(crate) fn acc_total(&self, set: &WordSet) -> u64 {
        self.acc_ge(set, 0)
    }

    /// `acc_ge(L, len)`: frequency of workload queries containing `set`
    /// with at least `len` words (`len` clamped to [`MAX_TRACKED_LEN`]).
    pub(crate) fn acc_ge(&self, set: &WordSet, len: usize) -> u64 {
        let i = len.min(MAX_TRACKED_LEN);
        match self.rows.get(set) {
            Some(&row) if i < self.stride => self.acc[row as usize * self.stride + i],
            _ => 0,
        }
    }

    #[allow(dead_code)] // used by optimizer diagnostics
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
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

/// Evaluate `Cost(WL, M)` for `groups` under `mapping`.
///
/// `group_bytes[i]` is the encoded size of group `i`'s node entry. `acc`
/// must be [`AccTable::build`] of the same `workload`; its subset bounds
/// price the hash probes too. Callers that price several mappings build
/// the table once.
pub(crate) fn evaluate_mapping(
    group_words: &[WordSet],
    group_bytes: &[usize],
    mapping: &Mapping,
    workload: &QueryWorkload,
    acc: &AccTable,
    cost: &CostModel,
) -> MappingCost {
    assert_eq!(group_words.len(), group_bytes.len());

    // Cost_Hash: each query pays (subset lookups) probes, each a random
    // access reading mem_hash bytes.
    let mut hash_cost = 0.0;
    for q in workload.queries() {
        let lookups = subset_count(q.total_len, acc.max_words).min(acc.probe_cap as u64);
        hash_cost +=
            q.freq as f64 * lookups as f64 * (cost.cost_random + cost.cost_scan(SLOT_BYTES));
    }

    // Cost_Node: group nodes by locator and apply weight(S).
    let mut nodes: HashMap<&WordSet, Vec<usize>, FxBuildHasher> = HashMap::default();
    for g in 0..group_words.len() {
        nodes.entry(mapping.locator(g)).or_default().push(g);
    }
    let mut node_cost = 0.0;
    let mut expected_node_accesses = 0.0;
    for (locator, members) in &nodes {
        let visits = acc.acc_total(locator) as f64;
        node_cost += visits * cost.cost_random;
        expected_node_accesses += visits;
        for &g in members {
            // Equation (2) charges Cost_Scan per stored phrase; entries are
            // contiguous, so the per-entry scan term is exact under any
            // monotone Cost_Scan.
            let scanned = acc.acc_ge(locator, group_words[g].len()) as f64;
            node_cost += scanned * cost.cost_scan(group_bytes[g]);
        }
    }

    MappingCost {
        breakdown: CostBreakdown {
            hash_cost,
            node_cost,
        },
        nodes: nodes.len(),
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

    #[test]
    fn acc_table_counts_supersets() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5), (&[4], 7)]);
        let acc = AccTable::build(&workload, 3, 1 << 20);
        assert_eq!(acc.acc_total(&ws(&[1])), 15);
        assert_eq!(acc.acc_total(&ws(&[1, 2])), 15);
        assert_eq!(acc.acc_total(&ws(&[1, 2, 3])), 10);
        assert_eq!(acc.acc_total(&ws(&[4])), 7);
        assert_eq!(acc.acc_total(&ws(&[5])), 0);
    }

    #[test]
    fn acc_ge_respects_query_length() {
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5)]);
        let acc = AccTable::build(&workload, 3, 1 << 20);
        // Queries containing {1}: both. With >= 3 words: only the first.
        assert_eq!(acc.acc_ge(&ws(&[1]), 2), 15);
        assert_eq!(acc.acc_ge(&ws(&[1]), 3), 10);
        assert_eq!(acc.acc_ge(&ws(&[1]), 4), 0);
    }

    #[test]
    fn acc_table_respects_max_words() {
        let workload = wl(&[(&[1, 2, 3], 1)]);
        let acc = AccTable::build(&workload, 2, 1 << 20);
        assert_eq!(acc.acc_total(&ws(&[1, 2])), 1);
        assert_eq!(
            acc.acc_total(&ws(&[1, 2, 3])),
            0,
            "size-3 subsets not enumerated"
        );
    }

    #[test]
    fn identity_mapping_cost_components() {
        let groups = vec![ws(&[1]), ws(&[1, 2])];
        let bytes = vec![50usize, 80];
        let mapping = Mapping::identity(&groups);
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel {
            cost_random: 100.0,
            scan_base: 0.0,
            scan_byte: 1.0,
        };
        let acc = AccTable::build(&workload, 8, 1 << 20);
        let mc = evaluate_mapping(&groups, &bytes, &mapping, &workload, &acc, &cost);
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
        let bytes = vec![50usize, 80];
        let workload = wl(&[(&[1, 2], 10)]);
        let cost = CostModel::dram();

        let identity = Mapping::identity(&groups);
        let merged = Mapping::new(vec![ws(&[1]), ws(&[1])]);
        let acc = AccTable::build(&workload, 8, 1 << 20);
        let c_id = evaluate_mapping(&groups, &bytes, &identity, &workload, &acc, &cost);
        let c_mg = evaluate_mapping(&groups, &bytes, &merged, &workload, &acc, &cost);
        assert!(
            c_mg.breakdown.node_cost < c_id.breakdown.node_cost,
            "merged {} !< identity {}",
            c_mg.breakdown.node_cost,
            c_id.breakdown.node_cost
        );
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
        let bytes = vec![10usize, 10_000];
        let workload = wl(&[(&[2, 3], 100), (&[1, 2], 1)]);
        let cost = CostModel::dram();

        let identity = Mapping::identity(&groups);
        let merged = Mapping::new(vec![ws(&[2]), ws(&[2])]);
        let acc = AccTable::build(&workload, 8, 1 << 20);
        let c_id = evaluate_mapping(&groups, &bytes, &identity, &workload, &acc, &cost);
        let c_mg = evaluate_mapping(&groups, &bytes, &merged, &workload, &acc, &cost);
        assert!(c_mg.breakdown.node_cost > c_id.breakdown.node_cost);
    }

    #[test]
    fn acc_ge_past_the_longest_query_reads_zero() {
        // Longest query has 3 words, so rows have 4 slots (0..=3).
        let workload = wl(&[(&[1, 2, 3], 10), (&[1, 2], 5)]);
        let acc = AccTable::build(&workload, 3, 1 << 20);
        assert_eq!(acc.stride, 4);
        assert_eq!(acc.acc_ge(&ws(&[1]), 3), 10, "at the longest query");
        for len in [4, 5, MAX_TRACKED_LEN, MAX_TRACKED_LEN + 1, 1000] {
            assert_eq!(acc.acc_ge(&ws(&[1]), len), 0, "len {len}");
            assert_eq!(acc.acc_ge(&ws(&[1, 2, 3]), len), 0, "len {len}");
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
        let acc = AccTable::build(&workload, 2, 1 << 20);
        assert_eq!(acc.stride, MAX_TRACKED_LEN + 1);
        assert_eq!(acc.acc_total(&ws(&[1])), 10);
        assert_eq!(acc.acc_ge(&ws(&[1]), 2), 7);
        assert_eq!(acc.acc_ge(&ws(&[1]), MAX_TRACKED_LEN), 7);
        // Any longer length clamps to MAX_TRACKED_LEN, as entry lengths do.
        assert_eq!(acc.acc_ge(&ws(&[1]), MAX_TRACKED_LEN + 1), 7);
        assert_eq!(acc.acc_ge(&ws(&[1, 2]), 40), 7);
    }

    #[test]
    fn probe_cap_counts_only_the_first_subsets() {
        // Enumeration is by size, then lexicographic: {1}, {2}, {3}, {1,2}...
        let workload = wl(&[(&[1, 2, 3], 4)]);
        let acc = AccTable::build(&workload, 3, 2);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.acc_total(&ws(&[1])), 4);
        assert_eq!(acc.acc_total(&ws(&[2])), 4);
        assert_eq!(acc.acc_total(&ws(&[3])), 0);
        assert_eq!(acc.acc_total(&ws(&[1, 2])), 0);
        // The cap also bounds the priced hash probes.
        let groups = vec![ws(&[1])];
        let mapping = Mapping::identity(&groups);
        let cost = CostModel {
            cost_random: 1.0,
            scan_base: 0.0,
            scan_byte: 0.0,
        };
        let mc = evaluate_mapping(&groups, &[10], &mapping, &workload, &acc, &cost);
        assert_eq!(mc.breakdown.hash_cost, 4.0 * 2.0);
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
        let acc = AccTable::build(
            &workload,
            index.stats().max_locator_len.max(1),
            index.config().probe_cap,
        );
        let cost = &index.config().cost;
        // Price another mapping on the same table first: sharing must not
        // leave state behind.
        let identity = Mapping::identity(index.group_words());
        evaluate_mapping(
            index.group_words(),
            index.group_bytes(),
            &identity,
            &workload,
            &acc,
            cost,
        );
        let shared = evaluate_mapping(
            index.group_words(),
            index.group_bytes(),
            index.mapping(),
            &workload,
            &acc,
            cost,
        );
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
