//! Answer checks: response fingerprints against a reference computed
//! before the measured window, and a naive string-level broad-match
//! oracle for a fixed sample of queries.

use std::collections::{HashMap, HashSet};

use broadmatch::{fold_duplicates, tokenize, BroadMatchIndex, MatchHit, MatchType};
use broadmatch_corpus::GeneratedAd;

/// An order-insensitive digest of a hit list: the hit count and a
/// wrapping sum of per-hit hashes. Dropping, adding or altering any hit
/// changes it; concatenating two lists adds their digests, so a routed
/// response's digest is the sum of its backends' digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    count: u64,
    sum: u64,
}

impl Fingerprint {
    /// Digest `hits`.
    pub fn of(hits: &[MatchHit]) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for h in hits {
            fp.count += 1;
            fp.sum = fp.sum.wrapping_add(mix(h.info.listing_id
                ^ u64::from(h.ad.raw()).rotate_left(40)
                ^ h.info.bid_micros.rotate_left(20)
                ^ u64::from(h.info.campaign_id).rotate_left(52)));
        }
        fp
    }

    /// The digest of both lists concatenated.
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        Fingerprint {
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reference fingerprints, one per distinct query, and the tally of
/// answers checked against them.
#[derive(Debug, Clone)]
pub struct Checker {
    refs: Vec<Fingerprint>,
    /// Answers checked.
    pub checked: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
}

impl Checker {
    /// Reference = direct `query` on each of `indexes`, combined (one index
    /// for a runtime, one per backend for a cluster).
    pub fn new(queries: &[String], indexes: &[&BroadMatchIndex]) -> Checker {
        let refs = queries
            .iter()
            .map(|q| {
                indexes.iter().fold(Fingerprint::default(), |fp, index| {
                    fp.combine(Fingerprint::of(&index.query(q, MatchType::Broad)))
                })
            })
            .collect();
        Checker {
            refs,
            checked: 0,
            wrong: 0,
        }
    }

    /// Check one answer to query `qid`; returns whether it matched.
    pub fn check(&mut self, qid: u32, got: Fingerprint) -> bool {
        self.checked += 1;
        let ok = self.refs[qid as usize] == got;
        if !ok {
            self.wrong += 1;
        }
        ok
    }
}

/// Naive broad match at the string level: an ad matches when every
/// folded token of its phrase (word plus multiplicity, from the public
/// `tokenize` and `fold_duplicates`) is a folded token of the query. Ads
/// are bucketed by their first folded token only to keep the scan short.
#[derive(Debug)]
pub struct Oracle {
    buckets: HashMap<String, Vec<(Vec<String>, u64)>>,
}

impl Oracle {
    /// An oracle over `ads`.
    pub fn new<'a>(ads: impl IntoIterator<Item = &'a GeneratedAd>) -> Oracle {
        let mut buckets: HashMap<String, Vec<(Vec<String>, u64)>> = HashMap::new();
        for ad in ads {
            let keys = folded_keys(&ad.phrase);
            if let Some(first) = keys.first() {
                buckets
                    .entry(first.clone())
                    .or_default()
                    .push((keys, ad.info.listing_id));
            }
        }
        Oracle { buckets }
    }

    /// Sorted listing ids of every ad broad-matching `query`.
    pub fn matches(&self, query: &str) -> Vec<u64> {
        let qkeys: HashSet<String> = folded_keys(query).into_iter().collect();
        let mut out = Vec::new();
        for key in &qkeys {
            for (keys, listing) in self.buckets.get(key).into_iter().flatten() {
                if keys.iter().all(|k| qkeys.contains(k)) {
                    out.push(*listing);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

fn folded_keys(text: &str) -> Vec<String> {
    let mut keys: Vec<String> = fold_duplicates(&tokenize(text))
        .iter()
        .map(|t| t.key())
        .collect();
    keys.sort_unstable();
    keys
}

/// Sorted listing ids of a hit list.
pub fn listings(hits: &[MatchHit]) -> Vec<u64> {
    let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
    ids.sort_unstable();
    ids
}

/// Query ids of a fixed, evenly spread sample of `n` distinct queries.
pub fn sample_ids(n_queries: usize, n: usize) -> impl Iterator<Item = u32> {
    let step = (n_queries / n.max(1)).max(1);
    (0..n_queries).step_by(step).map(|i| i as u32)
}

/// Compare each index's answers with the oracle on a sample of queries.
/// Queries whose plan the probe cap truncated on any index are skipped.
/// Returns `(compared, mismatched)`.
pub fn oracle_check(
    oracle: &Oracle,
    queries: &[String],
    indexes: &[&BroadMatchIndex],
    sample: usize,
) -> (u64, u64) {
    let (mut compared, mut mismatched) = (0, 0);
    for qid in sample_ids(queries.len(), sample) {
        let q = &queries[qid as usize];
        let truncated = indexes.iter().any(|index| {
            index
                .plan_query(q, MatchType::Broad)
                .is_some_and(|p| p.is_truncated())
        });
        if truncated {
            continue;
        }
        let mut got: Vec<u64> = indexes
            .iter()
            .flat_map(|index| index.query(q, MatchType::Broad))
            .map(|h| h.info.listing_id)
            .collect();
        got.sort_unstable();
        compared += 1;
        if got != oracle.matches(q) {
            mismatched += 1;
        }
    }
    (compared, mismatched)
}
