//! The lazy greedy algorithm (Chvátal) and withdrawal-step improvement.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{CandidateSet, CoverError, CoverSolution};

/// Heap entry ordered by ascending price (min-heap via reversed `Ord`).
struct Entry {
    price: f64,
    uncovered_when_scored: usize,
    idx: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.price == other.price && self.idx == other.idx
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest price first.
        other
            .price
            .partial_cmp(&self.price)
            .expect("weights validated finite")
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

fn validate_weights(candidates: &[CandidateSet]) -> Result<(), CoverError> {
    for (i, c) in candidates.iter().enumerate() {
        if !c.weight.is_finite() || c.weight < 0.0 {
            return Err(CoverError::InvalidWeight { candidate: i });
        }
    }
    Ok(())
}

fn check_coverable(universe: u32, candidates: &[CandidateSet]) -> Result<(), CoverError> {
    let mut coverable = vec![false; universe as usize];
    for c in candidates {
        for &e in &c.elements {
            if let Some(slot) = coverable.get_mut(e as usize) {
                *slot = true;
            }
        }
    }
    if let Some(e) = coverable.iter().position(|&c| !c) {
        return Err(CoverError::Uncoverable { element: e as u32 });
    }
    Ok(())
}

/// Greedy weighted set cover over elements `0..universe`.
///
/// Repeatedly chooses the candidate with the lowest *price* —
/// `weight / #newly-covered-elements` — using the standard lazy-evaluation
/// trick: prices only increase as elements get covered, so a heap entry is
/// re-scored only when popped. Runs in `O(Σ|S| log |candidates|)`.
///
/// For instances whose sets have at most `k` elements the result is within
/// `H_k` of optimal (paper, Section V-B; Chvátal '79).
///
/// # Errors
/// [`CoverError::Uncoverable`] if some element is in no set;
/// [`CoverError::InvalidWeight`] for negative/NaN weights.
///
/// # Examples
///
/// ```
/// use broadmatch_setcover::{greedy_cover, CandidateSet};
///
/// let candidates = vec![
///     CandidateSet::new(vec![0, 1, 2], 3.5, 0),
///     CandidateSet::new(vec![0], 1.0, 1),
///     CandidateSet::new(vec![1], 1.0, 2),
///     CandidateSet::new(vec![2], 1.0, 3),
/// ];
/// let sol = greedy_cover(3, &candidates).unwrap();
/// // The bundle (price 3.5/3 ≈ 1.17) loses to three singletons at price 1.0.
/// assert_eq!(sol.total_weight, 3.0);
/// ```
pub fn greedy_cover(
    universe: u32,
    candidates: &[CandidateSet],
) -> Result<CoverSolution, CoverError> {
    validate_weights(candidates)?;
    check_coverable(universe, candidates)?;

    // One mark per element, all false between uses: counting a set's
    // distinct uncovered elements marks each once, then clears the marks.
    // Sized to the largest element named, not only the universe, because
    // `check_coverable` tolerates elements outside it.
    let mark_len = candidates
        .iter()
        .flat_map(|c| c.elements.iter())
        .map(|&e| e as usize + 1)
        .max()
        .unwrap_or(0)
        .max(universe as usize);
    let mut marks = vec![false; mark_len];
    let mut covered = vec![false; universe as usize];
    let mut covered_count = 0u32;
    let mut heap = BinaryHeap::with_capacity(candidates.len());
    for (i, c) in candidates.iter().enumerate() {
        let distinct = count_distinct(&c.elements, &mut marks, |_| false);
        if distinct > 0 {
            heap.push(Entry {
                price: c.weight / distinct as f64,
                uncovered_when_scored: distinct,
                idx: i,
            });
        }
    }

    let mut chosen = Vec::new();
    let mut total_weight = 0.0;
    while covered_count < universe {
        let entry = heap.pop().expect("coverable instance cannot exhaust heap");
        let c = &candidates[entry.idx];
        let fresh = count_distinct(&c.elements, &mut marks, |e| covered[e]);
        if fresh == 0 {
            continue;
        }
        if fresh < entry.uncovered_when_scored {
            // Stale score: re-push with the current price.
            heap.push(Entry {
                price: c.weight / fresh as f64,
                uncovered_when_scored: fresh,
                idx: entry.idx,
            });
            continue;
        }
        // Fresh count can only shrink, so an up-to-date entry is optimal now.
        chosen.push(entry.idx);
        total_weight += c.weight;
        for &e in &c.elements {
            let slot = &mut covered[e as usize];
            if !*slot {
                *slot = true;
                covered_count += 1;
            }
        }
    }

    Ok(CoverSolution {
        chosen,
        total_weight,
    })
}

/// Number of distinct elements `e` in `elements` with `!skip(e)`, counted
/// without allocating: each is marked on first sight and every mark is
/// cleared again before returning. `marks` must be all false on entry.
fn count_distinct(elements: &[u32], marks: &mut [bool], skip: impl Fn(usize) -> bool) -> usize {
    let mut count = 0;
    for &e in elements {
        let e = e as usize;
        if !marks[e] && !skip(e) {
            marks[e] = true;
            count += 1;
        }
    }
    for &e in elements {
        marks[e as usize] = false;
    }
    count
}

/// Greedy cover followed by *withdrawal steps* — the local improvement the
/// paper points to via Hassin–Levin '05 ("through the use of withdrawal
/// steps this approximation factor can be reduced further").
///
/// Each step tentatively **adds** one unchosen candidate, then **withdraws**
/// every chosen set made fully redundant by it (all of its elements covered
/// at multiplicity ≥ 2, heaviest first); the move is kept iff it lowers the
/// total weight. Rounds repeat until a fixpoint or `max_rounds`.
///
/// Never returns a worse cover than [`greedy_cover`], and the result is
/// always a valid cover (withdrawals only remove redundant sets).
pub fn with_withdrawals(
    universe: u32,
    candidates: &[CandidateSet],
    max_rounds: usize,
) -> Result<CoverSolution, CoverError> {
    let mut sol = greedy_cover(universe, candidates)?;
    if universe == 0 {
        return Ok(sol);
    }

    let mut in_solution = vec![false; candidates.len()];
    for &i in &sol.chosen {
        in_solution[i] = true;
    }
    // Coverage multiplicity under the current solution.
    let mut cover_count = vec![0u32; universe as usize];
    for &i in &sol.chosen {
        for &e in &dedup(&candidates[i].elements) {
            cover_count[e as usize] += 1;
        }
    }

    for _ in 0..max_rounds {
        let mut improved = false;

        // Prune pass: drop chosen sets that are already fully redundant
        // (can happen after earlier accepted moves).
        for pos in (0..sol.chosen.len()).rev() {
            let v = sol.chosen[pos];
            let elems = dedup(&candidates[v].elements);
            if !elems.is_empty() && elems.iter().all(|&e| cover_count[e as usize] >= 2) {
                for &e in &elems {
                    cover_count[e as usize] -= 1;
                }
                in_solution[v] = false;
                sol.chosen.swap_remove(pos);
                sol.total_weight -= candidates[v].weight;
                improved = true;
            }
        }

        // element -> chosen sets currently covering it. Adding a candidate
        // can only make *overlapping* chosen sets redundant (coverage
        // counts change on the added elements alone), so victims are found
        // through this map instead of scanning the whole solution.
        let mut covering: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for &i in &sol.chosen {
            for &e in &dedup(&candidates[i].elements) {
                covering.entry(e).or_default().push(i);
            }
        }

        for add in 0..candidates.len() {
            if in_solution[add] || candidates[add].elements.is_empty() {
                continue;
            }
            let add_elems = dedup(&candidates[add].elements);
            // Victim candidates: chosen sets overlapping the added one,
            // heaviest first (maximizes savings under sequential checks).
            let mut victims: Vec<usize> = add_elems
                .iter()
                .flat_map(|e| covering.get(e).into_iter().flatten().copied())
                .filter(|&i| in_solution[i] && i != add)
                .collect();
            victims.sort_unstable();
            victims.dedup();
            if victims.is_empty() {
                continue;
            }
            victims.sort_by(|&a, &b| {
                candidates[b]
                    .weight
                    .partial_cmp(&candidates[a].weight)
                    .expect("weights validated finite")
            });
            // Quick reject: even withdrawing every overlapping set cannot
            // pay for the addition.
            let max_saving: f64 = victims.iter().map(|&v| candidates[v].weight).sum();
            if max_saving <= candidates[add].weight + 1e-12 {
                continue;
            }

            // Multiplicities as if `add` were installed.
            for &e in &add_elems {
                cover_count[e as usize] += 1;
            }
            let mut withdrawn = Vec::new();
            let mut saved = 0.0;
            for v in victims {
                let elems = dedup(&candidates[v].elements);
                if elems.iter().all(|&e| cover_count[e as usize] >= 2) {
                    for &e in &elems {
                        cover_count[e as usize] -= 1;
                    }
                    withdrawn.push(v);
                    saved += candidates[v].weight;
                }
            }
            if saved > candidates[add].weight + 1e-12 {
                // Keep the move.
                in_solution[add] = true;
                sol.chosen.push(add);
                for &v in &withdrawn {
                    in_solution[v] = false;
                    for &e in &dedup(&candidates[v].elements) {
                        if let Some(list) = covering.get_mut(&e) {
                            list.retain(|&i| i != v);
                        }
                    }
                }
                for &e in &add_elems {
                    covering.entry(e).or_default().push(add);
                }
                sol.chosen.retain(|&i| in_solution[i]);
                sol.total_weight += candidates[add].weight - saved;
                improved = true;
            } else {
                // Roll back.
                for &v in withdrawn.iter().rev() {
                    for &e in &dedup(&candidates[v].elements) {
                        cover_count[e as usize] += 1;
                    }
                }
                for &e in &add_elems {
                    cover_count[e as usize] -= 1;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Recompute the weight exactly to avoid drift from incremental updates.
    sol.total_weight = sol.chosen.iter().map(|&i| candidates[i].weight).sum();
    Ok(sol)
}

fn dedup(elements: &[u32]) -> Vec<u32> {
    let mut v = elements.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singletons(n: u32, weight: f64) -> Vec<CandidateSet> {
        (0..n)
            .map(|e| CandidateSet::new(vec![e], weight, e as u64))
            .collect()
    }

    #[test]
    fn trivial_universe() {
        let sol = greedy_cover(0, &[]).unwrap();
        assert!(sol.chosen.is_empty());
        assert_eq!(sol.total_weight, 0.0);
    }

    #[test]
    fn picks_cheap_bundle_over_singletons() {
        let mut candidates = singletons(4, 1.0);
        candidates.push(CandidateSet::new(vec![0, 1, 2, 3], 2.0, 99));
        let sol = greedy_cover(4, &candidates).unwrap();
        sol.validate(4, &candidates).unwrap();
        assert_eq!(sol.chosen, vec![4]);
        assert_eq!(sol.total_weight, 2.0);
    }

    #[test]
    fn uncoverable_detected() {
        let candidates = singletons(2, 1.0);
        match greedy_cover(3, &candidates) {
            Err(CoverError::Uncoverable { element: 2 }) => {}
            other => panic!("expected Uncoverable(2), got {other:?}"),
        }
    }

    #[test]
    fn invalid_weight_detected() {
        let candidates = vec![CandidateSet::new(vec![0], -1.0, 0)];
        assert!(matches!(
            greedy_cover(1, &candidates),
            Err(CoverError::InvalidWeight { candidate: 0 })
        ));
        let candidates = vec![CandidateSet::new(vec![0], f64::NAN, 0)];
        assert!(matches!(
            greedy_cover(1, &candidates),
            Err(CoverError::InvalidWeight { candidate: 0 })
        ));
    }

    #[test]
    fn duplicate_elements_do_not_distort_price() {
        // A set listing element 0 three times still covers only one element:
        // its true price is 1.2, not 0.4. If duplicates inflated the price
        // denominator, greedy would pick it first and end at weight 2.1.
        let candidates = vec![
            CandidateSet::new(vec![0, 0, 0], 1.2, 0),
            CandidateSet::new(vec![0, 1], 1.0, 1),
            CandidateSet::new(vec![1], 0.9, 2),
        ];
        let sol = greedy_cover(2, &candidates).unwrap();
        sol.validate(2, &candidates).unwrap();
        assert_eq!(sol.chosen, vec![1]);
        assert_eq!(sol.total_weight, 1.0);
    }

    #[test]
    fn greedy_classic_worst_case_then_withdrawal_fixes_it() {
        // Classic H_k example: elements 0..3; greedy is lured by big sets.
        // Singletons with weights 1/1, and one set covering everything at 2.2,
        // plus a decoy covering {0,1,2} at 1.4 (price 0.466) that forces a
        // two-set solution costing 1.4 + 1.0 = 2.4 > 2.2.
        let candidates = vec![
            CandidateSet::new(vec![0, 1, 2], 1.4, 0),
            CandidateSet::new(vec![3], 1.0, 1),
            CandidateSet::new(vec![0, 1, 2, 3], 2.2, 2),
        ];
        let greedy = greedy_cover(4, &candidates).unwrap();
        assert!((greedy.total_weight - 2.4).abs() < 1e-9);

        let improved = with_withdrawals(4, &candidates, 10).unwrap();
        improved.validate(4, &candidates).unwrap();
        assert!((improved.total_weight - 2.2).abs() < 1e-9);
    }

    #[test]
    fn withdrawal_never_worsens() {
        let candidates = vec![
            CandidateSet::new(vec![0, 1], 1.0, 0),
            CandidateSet::new(vec![1, 2], 1.0, 1),
            CandidateSet::new(vec![2, 0], 1.0, 2),
        ];
        let g = greedy_cover(3, &candidates).unwrap();
        let w = with_withdrawals(3, &candidates, 10).unwrap();
        w.validate(3, &candidates).unwrap();
        assert!(w.total_weight <= g.total_weight + 1e-9);
    }

    #[test]
    fn zero_weight_sets_are_free() {
        let candidates = vec![
            CandidateSet::new(vec![0, 1, 2], 0.0, 0),
            CandidateSet::new(vec![0], 1.0, 1),
        ];
        let sol = greedy_cover(3, &candidates).unwrap();
        assert_eq!(sol.total_weight, 0.0);
        assert_eq!(sol.chosen, vec![0]);
    }

    /// Textbook eager greedy: every round rescans every set, takes the
    /// lowest price `weight / #distinct uncovered elements`, ties to the
    /// lowest index.
    fn eager_greedy(universe: u32, candidates: &[CandidateSet]) -> Vec<usize> {
        let mut covered = vec![false; universe as usize];
        let mut chosen = Vec::new();
        while covered.iter().any(|&c| !c) {
            let mut best: Option<(f64, usize)> = None;
            for (i, c) in candidates.iter().enumerate() {
                let fresh = dedup(&c.elements)
                    .iter()
                    .filter(|&&e| !covered[e as usize])
                    .count();
                if fresh == 0 {
                    continue;
                }
                let price = c.weight / fresh as f64;
                if best.is_none_or(|(p, _)| price < p) {
                    best = Some((price, i));
                }
            }
            let (_, i) = best.expect("coverable");
            for &e in &candidates[i].elements {
                covered[e as usize] = true;
            }
            chosen.push(i);
        }
        chosen
    }

    #[test]
    fn lazy_greedy_chooses_exactly_what_eager_greedy_chooses() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..300 {
            let universe = 1 + rng(12) as u32;
            let mut candidates: Vec<CandidateSet> = Vec::new();
            for _ in 0..1 + rng(20) {
                // Up to 6 draws from a small universe: duplicates are common.
                let elements: Vec<u32> = (0..1 + rng(6))
                    .map(|_| rng(universe as u64) as u32)
                    .collect();
                // Few distinct weights, including 0, so price ties happen.
                let weight = [0.0, 1.0, 2.0, 3.0, 0.5][rng(5) as usize];
                let tag = candidates.len() as u64;
                candidates.push(CandidateSet::new(elements, weight, tag));
            }
            for e in 0..universe {
                if !candidates.iter().any(|c| c.elements.contains(&e)) {
                    candidates.push(CandidateSet::new(vec![e, e], 1.0, 99));
                }
            }
            let lazy = greedy_cover(universe, &candidates).unwrap();
            lazy.validate(universe, &candidates).unwrap();
            assert_eq!(
                lazy.chosen,
                eager_greedy(universe, &candidates),
                "case {case}: {candidates:?}"
            );
        }
    }
}
