//! The generational delta overlay: the one implementation of Section VI
//! maintenance.
//!
//! The paper's scheme is cheap inserts, deletes located by a
//! broad-match-shaped probe, and periodic re-optimization. [`DeltaOverlay`]
//! realizes it without mutating the base [`BroadMatchIndex`], so it works
//! over every directory kind (including the static Section VI compressed
//! directory) and suits `broadmatch-serve`, where readers take zero locks
//! against an immutable snapshot. Recent mutations accumulate on the side:
//!
//! * **inserts** go into a small string-keyed side index, consulted after
//!   the base so new ads are visible immediately;
//! * **removes** of base ads become entries in a **tombstone set** (the ad
//!   stays physically present in the base arena; queries filter it), after
//!   the paper's query-shaped delete locates the victim ad ids;
//! * **[`DeltaOverlay::fold`]** periodically compacts: rebuild a fresh base
//!   from the surviving base ads plus the overlay inserts, re-running the
//!   greedy set-cover re-mapping and reclaiming the tombstoned (dead)
//!   bytes.
//!
//! The overlay matches at the *string* level (folded-token keys, raw token
//! sequences), not through the base vocabulary: an inserted ad whose words
//! the base has never seen must still match — exactly as it would after a
//! rebuild — and the base vocabulary is immutable here by design. Because
//! folded-token keys encode duplicate multiplicity (`talk talk` →
//! `"talk\u{1F}2"`), the overlay reproduces broad/exact/phrase semantics
//! bit-identically to a fresh rebuild containing the same ads.

use std::collections::HashSet;

use crate::build::IndexBuilder;
use crate::text::{fold_duplicates, tokenize};
use crate::{AdId, AdInfo, BroadMatchIndex, BuildError, MatchHit, MatchType};

/// One distinct folded word set held by the overlay, with its phrases.
#[derive(Debug, Clone)]
struct OverlayEntry {
    /// Folded-token keys, sorted ascending (the multiplicity separator
    /// `\u{1F}` sorts below every alphanumeric, so key order equals the
    /// word order `fold_duplicates` already produces).
    folded: Vec<String>,
    phrases: Vec<OverlayPhrase>,
}

/// One raw phrase (order-sensitive) within an entry, with its ads.
#[derive(Debug, Clone)]
struct OverlayPhrase {
    raw: Vec<String>,
    ads: Vec<(AdId, AdInfo)>,
}

/// A small mutable side-index of recent inserts plus a tombstone set of
/// deleted base ads, layered over an immutable [`BroadMatchIndex`].
///
/// Query results of base-then-overlay (see
/// [`BroadMatchIndex::query_with_overlay`]) are equal, as a set of
/// listings, to rebuilding the index from scratch with the same surviving
/// ads.
///
/// # Examples
///
/// ```
/// use broadmatch::{AdInfo, DeltaOverlay, IndexBuilder, MatchType};
///
/// let mut b = IndexBuilder::new();
/// b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
/// let base = b.build().unwrap();
///
/// let mut overlay = DeltaOverlay::for_base(&base);
/// overlay.insert("cheap flights", AdInfo::with_bid(2, 99)).unwrap();
/// assert_eq!(overlay.remove(&base, "used books", 1), 1);
///
/// let (hits, _) = base.query_with_overlay(&overlay, "cheap flights today", MatchType::Broad);
/// assert_eq!(hits.len(), 1);
/// let (hits, _) = base.query_with_overlay(&overlay, "used books", MatchType::Broad);
/// assert!(hits.is_empty());
///
/// // Folding produces a fresh base with the overlay applied.
/// let folded = overlay.fold(&base, None).unwrap();
/// assert_eq!(folded.stats().ads, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    entries: Vec<OverlayEntry>,
    tombstones: HashSet<AdId, crate::hash::FxBuildHasher>,
    /// Live ads across all entries (maintained, not recounted).
    n_ads: usize,
    /// Next overlay-assigned ad id; starts above the base's high water so
    /// overlay ids never collide with live base ids.
    next_ad: u32,
}

impl DeltaOverlay {
    /// Arena bytes a tombstoned base ad keeps dead until the next fold: its
    /// id/info payload (phrase raw words are shared across ads of a phrase
    /// group and are not attributed per ad).
    pub const TOMBSTONE_COST: usize = 4 + AdInfo::ENCODED_BYTES;

    /// An empty overlay whose ad ids start above `base`'s high water mark.
    pub fn for_base(base: &BroadMatchIndex) -> Self {
        DeltaOverlay {
            next_ad: base.ad_id_high_water(),
            ..DeltaOverlay::default()
        }
    }

    /// Insert one advertisement into the overlay, returning its id.
    ///
    /// # Errors
    /// Same phrase validation as [`IndexBuilder::add`].
    pub fn insert(&mut self, phrase: &str, info: AdInfo) -> Result<AdId, BuildError> {
        let raw = tokenize(phrase);
        if raw.is_empty() {
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
        let folded = folded_keys(&raw);
        let id = AdId(self.next_ad);
        self.next_ad += 1;
        let entry = match self.entries.iter_mut().find(|e| e.folded == folded) {
            Some(e) => e,
            None => {
                self.entries.push(OverlayEntry {
                    folded,
                    phrases: Vec::new(),
                });
                self.entries.last_mut().expect("just pushed")
            }
        };
        match entry.phrases.iter_mut().find(|p| p.raw == raw) {
            Some(p) => p.ads.push((id, info)),
            None => entry.phrases.push(OverlayPhrase {
                raw,
                ads: vec![(id, info)],
            }),
        }
        self.n_ads += 1;
        Ok(id)
    }

    /// Remove every ad bidding exactly `phrase` (same words, same order)
    /// with `listing_id`: overlay inserts are dropped, and matching *base*
    /// ads — located with the paper's query-shaped delete probe against
    /// `base` — are tombstoned. Returns the number of ads removed.
    pub fn remove(&mut self, base: &BroadMatchIndex, phrase: &str, listing_id: u64) -> usize {
        self.remove_local(phrase, listing_id)
            + self.tombstone_ads(resolve_exact(base, phrase, listing_id))
    }

    /// Drop matching ads from the overlay's own inserts only (no base
    /// resolution). Returns the number dropped.
    fn remove_local(&mut self, phrase: &str, listing_id: u64) -> usize {
        let raw = tokenize(phrase);
        if raw.is_empty() {
            return 0;
        }
        let mut removed = 0usize;
        for entry in &mut self.entries {
            for p in &mut entry.phrases {
                if p.raw == raw {
                    let before = p.ads.len();
                    p.ads.retain(|(_, i)| i.listing_id != listing_id);
                    removed += before - p.ads.len();
                }
            }
            entry.phrases.retain(|p| !p.ads.is_empty());
        }
        self.entries.retain(|e| !e.phrases.is_empty());
        self.n_ads -= removed;
        removed
    }

    /// Add base ad ids to the tombstone set. Returns how many were newly
    /// tombstoned (ids already tombstoned are not counted again).
    fn tombstone_ads(&mut self, ads: impl IntoIterator<Item = AdId>) -> usize {
        let before = self.tombstones.len();
        self.tombstones.extend(ads);
        self.tombstones.len() - before
    }

    /// Is this base ad deleted?
    pub fn is_tombstoned(&self, ad: AdId) -> bool {
        self.tombstones.contains(&ad)
    }

    /// Drop tombstoned base ads from `hits`, returning how many were
    /// filtered.
    pub fn filter_tombstones(&self, hits: &mut Vec<MatchHit>) -> usize {
        if self.tombstones.is_empty() {
            return 0;
        }
        let before = hits.len();
        hits.retain(|h| !self.tombstones.contains(&h.ad));
        before - hits.len()
    }

    /// Append the overlay's own matches for `query_text` under `match_type`
    /// to `hits`, returning how many were added. Matching is string-level,
    /// so ads whose words the base vocabulary has never seen still match —
    /// exactly as they would after a rebuild.
    pub fn consult(
        &self,
        query_text: &str,
        match_type: MatchType,
        hits: &mut Vec<MatchHit>,
    ) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let q_raw = tokenize(query_text);
        if q_raw.is_empty() {
            return 0;
        }
        let q_folded = folded_keys(&q_raw);
        let before = hits.len();
        for entry in &self.entries {
            match match_type {
                MatchType::Broad => {
                    if is_sorted_str_subset(&entry.folded, &q_folded) {
                        for p in &entry.phrases {
                            hits.extend(p.ads.iter().map(|&(ad, info)| MatchHit { ad, info }));
                        }
                    }
                }
                MatchType::Exact => {
                    for p in &entry.phrases {
                        if p.raw == q_raw {
                            hits.extend(p.ads.iter().map(|&(ad, info)| MatchHit { ad, info }));
                        }
                    }
                }
                MatchType::Phrase => {
                    for p in &entry.phrases {
                        if contains_str_window(&q_raw, &p.raw) {
                            hits.extend(p.ads.iter().map(|&(ad, info)| MatchHit { ad, info }));
                        }
                    }
                }
            }
        }
        hits.len() - before
    }

    /// Live ads held by the overlay's side index.
    pub fn ads(&self) -> usize {
        self.n_ads
    }

    /// Deleted base ads awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Arena bytes kept dead by tombstoned base ads
    /// (`tombstone_count × TOMBSTONE_COST`), reclaimed by
    /// [`DeltaOverlay::fold`].
    pub fn dead_bytes(&self) -> usize {
        self.tombstones.len() * Self::TOMBSTONE_COST
    }

    /// True when the overlay holds no inserts and no tombstones — queries
    /// through an empty overlay are byte-identical to base-only queries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.tombstones.is_empty()
    }

    /// The overlay's own ads as `(phrase text, info)` pairs, in insertion
    /// order within each phrase.
    pub fn export_ads(&self) -> Vec<(String, AdInfo)> {
        let mut out = Vec::with_capacity(self.n_ads);
        for entry in &self.entries {
            for p in &entry.phrases {
                let text = p.raw.join(" ");
                out.extend(p.ads.iter().map(|&(_, info)| (text.clone(), info)));
            }
        }
        out
    }

    /// Compact: build a fresh index from `base` minus tombstoned ads plus
    /// the overlay's inserts, with `base`'s configuration — re-running the
    /// greedy set-cover re-mapping (under `workload`, when given) and
    /// reclaiming every dead byte. Works for any base directory kind, since
    /// the base is only read.
    ///
    /// Ad ids are reassigned by the rebuild; listing ids are the stable
    /// keys. Base exclusion word sets survive, resolved back to text.
    ///
    /// # Errors
    /// Propagates [`IndexBuilder::build`] failures.
    pub fn fold(
        &self,
        base: &BroadMatchIndex,
        workload: Option<Vec<(String, u64)>>,
    ) -> Result<BroadMatchIndex, BuildError> {
        let mut builder = IndexBuilder::with_config(*base.config());
        let old_exclusions = base.exclusions().clone();
        for (phrase, old_id, info) in base.export_ads() {
            if self.tombstones.contains(&old_id) {
                continue;
            }
            match old_exclusions.get(&old_id) {
                Some(set) => {
                    let words: Vec<&str> = set
                        .ids()
                        .iter()
                        .filter_map(|&w| base.vocab().resolve(w))
                        .collect();
                    builder.add_with_exclusions(&phrase, info, &words)?;
                }
                None => {
                    builder.add(&phrase, info)?;
                }
            }
        }
        for (phrase, info) in self.export_ads() {
            builder.add(&phrase, info)?;
        }
        if let Some(w) = workload {
            builder.set_workload(w);
        }
        builder.build()
    }
}

/// Resolve the base ads a query-shaped delete targets: plan `phrase` as an
/// exact-match query, execute every probe, and collect the hits carrying
/// `listing_id`. Exclusion filtering is deliberately skipped — deletion
/// must find the ad even when the phrase contains one of its own exclusion
/// words.
fn resolve_exact(base: &BroadMatchIndex, phrase: &str, listing_id: u64) -> Vec<AdId> {
    let Some(plan) = base.plan_query(phrase, MatchType::Exact) else {
        return Vec::new();
    };
    let batch = base.execute_probes(&plan, 0..plan.probe_count());
    let mut out: Vec<AdId> = batch
        .nodes
        .iter()
        .flat_map(|n| n.hits.iter())
        .filter(|h| h.info.listing_id == listing_id)
        .map(|h| h.ad)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Sorted folded-token keys of a raw token sequence.
fn folded_keys(raw: &[String]) -> Vec<String> {
    let keys: Vec<String> = fold_duplicates(raw).iter().map(|t| t.key()).collect();
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted by word");
    keys
}

/// Is `sub` a subset of `sup`? Both sorted ascending, both duplicate-free.
fn is_sorted_str_subset(sub: &[String], sup: &[String]) -> bool {
    let mut it = sup.iter();
    'outer: for s in sub {
        for t in it.by_ref() {
            if t == s {
                continue 'outer;
            }
            if t.as_str() > s.as_str() {
                return false;
            }
        }
        return false;
    }
    true
}

/// Does `needle` appear in `haystack` as a contiguous run?
fn contains_str_window(haystack: &[String], needle: &[String]) -> bool {
    if needle.is_empty() || needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexBuilder;

    fn base() -> BroadMatchIndex {
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("cheap used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("talk talk", AdInfo::with_bid(3, 30)).unwrap();
        b.build().unwrap()
    }

    fn listings(hits: &[MatchHit]) -> Vec<u64> {
        let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn overlay_inserts_are_visible_with_all_semantics() {
        let base = base();
        let mut ov = DeltaOverlay::for_base(&base);
        ov.insert("red shoes", AdInfo::with_bid(10, 1)).unwrap();
        ov.insert("shoes red", AdInfo::with_bid(11, 1)).unwrap();
        ov.insert("ping ping", AdInfo::with_bid(12, 1)).unwrap();
        // Same phrase validation as the builder.
        assert!(ov.insert("***", AdInfo::default()).is_err());
        assert_eq!(ov.ads(), 3);

        let q = |text: &str, mt| {
            let (hits, _) = base.query_with_overlay(&ov, text, mt);
            listings(&hits)
        };
        // Broad: order-free, multiplicity exact.
        assert_eq!(q("buy red shoes", MatchType::Broad), vec![10, 11]);
        assert_eq!(q("ping", MatchType::Broad), Vec::<u64>::new());
        assert_eq!(q("ping ping", MatchType::Broad), vec![12]);
        assert_eq!(q("ping ping ping", MatchType::Broad), Vec::<u64>::new());
        // Exact: same words same order.
        assert_eq!(q("red shoes", MatchType::Exact), vec![10]);
        assert_eq!(q("shoes red", MatchType::Exact), vec![11]);
        // Phrase: contiguous in-order window.
        assert_eq!(q("buy red shoes now", MatchType::Phrase), vec![10]);
        assert_eq!(q("ping ping ping", MatchType::Phrase), vec![12]);
        // Base hits still flow through.
        assert_eq!(q("cheap used books online", MatchType::Broad), vec![1, 2]);
    }

    #[test]
    fn overlay_matches_words_unknown_to_base_vocab() {
        // The base plan for a query of entirely-unknown words is None; the
        // overlay must still answer, because a rebuild would.
        let base = base();
        let mut ov = DeltaOverlay::for_base(&base);
        ov.insert("zephyr quark", AdInfo::with_bid(77, 5)).unwrap();
        let (hits, stats) = base.query_with_overlay(&ov, "zephyr quark flux", MatchType::Broad);
        assert_eq!(listings(&hits), vec![77]);
        assert_eq!(stats.overlay_hits, 1);
        assert_eq!(stats.hits, 1);

        let folded = ov.fold(&base, None).unwrap();
        assert_eq!(
            listings(&folded.query("zephyr quark flux", MatchType::Broad)),
            vec![77]
        );
    }

    #[test]
    fn remove_tombstones_base_and_drops_overlay_inserts() {
        let base = base();
        let mut ov = DeltaOverlay::for_base(&base);
        ov.insert("used books", AdInfo::with_bid(50, 9)).unwrap();

        // Base ad: tombstoned, not physically removed.
        assert_eq!(ov.remove(&base, "used books", 1), 1);
        assert_eq!(ov.tombstone_count(), 1);
        // Overlay ad: physically dropped.
        assert_eq!(ov.remove(&base, "used books", 50), 1);
        assert_eq!(ov.ads(), 0);
        // Unknown listing: no-op.
        assert_eq!(ov.remove(&base, "used books", 999), 0);
        // Idempotent on the tombstoned ad.
        assert_eq!(ov.remove(&base, "used books", 1), 0);

        let (hits, stats) = base.query_with_overlay(&ov, "used books", MatchType::Broad);
        assert!(hits.is_empty());
        assert_eq!(stats.tombstone_hits, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn overlay_ad_ids_never_collide_with_base_ids() {
        let base = base();
        let live: std::collections::HashSet<AdId> =
            base.iter_all_ads().into_iter().map(|(id, _)| id).collect();
        let mut ov = DeltaOverlay::for_base(&base);
        for i in 0..10u64 {
            let id = ov
                .insert(&format!("fresh{i} item"), AdInfo::with_bid(100 + i, 1))
                .unwrap();
            assert!(!live.contains(&id), "overlay id {id:?} collides with base");
        }
    }

    #[test]
    fn dead_bytes_pinned_to_tombstone_count() {
        let base = base();
        let mut ov = DeltaOverlay::for_base(&base);
        assert_eq!(ov.dead_bytes(), 0);
        ov.remove(&base, "used books", 1);
        assert_eq!(ov.dead_bytes(), DeltaOverlay::TOMBSTONE_COST);
        ov.remove(&base, "cheap used books", 2);
        assert_eq!(ov.dead_bytes(), 2 * DeltaOverlay::TOMBSTONE_COST);
        // Fold reclaims everything.
        let folded = ov.fold(&base, None).unwrap();
        let fresh = DeltaOverlay::for_base(&folded);
        assert_eq!(fresh.dead_bytes(), 0);
        assert_eq!(folded.stats().ads, 1);
    }

    #[test]
    fn fold_equals_fresh_rebuild() {
        let base = base();
        let mut ov = DeltaOverlay::for_base(&base);
        ov.insert("red shoes", AdInfo::with_bid(10, 1)).unwrap();
        ov.insert("zephyr quark", AdInfo::with_bid(11, 2)).unwrap();
        ov.remove(&base, "talk talk", 3);

        let folded = ov.fold(&base, None).unwrap();
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("cheap used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("red shoes", AdInfo::with_bid(10, 1)).unwrap();
        b.add("zephyr quark", AdInfo::with_bid(11, 2)).unwrap();
        let rebuilt = b.build().unwrap();

        for q in [
            "cheap used books online",
            "talk talk",
            "red shoes sale",
            "zephyr quark flux",
        ] {
            for mt in [MatchType::Broad, MatchType::Exact, MatchType::Phrase] {
                assert_eq!(
                    listings(&folded.query(q, mt)),
                    listings(&rebuilt.query(q, mt)),
                    "{q:?} ({mt:?})"
                );
            }
        }
    }

    #[test]
    fn fold_preserves_base_exclusions() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(1, 50), &["cheap"])
            .unwrap();
        b.add("running shoes", AdInfo::with_bid(2, 40)).unwrap();
        let base = b.build().unwrap();
        let mut ov = DeltaOverlay::for_base(&base);
        ov.insert("running socks", AdInfo::with_bid(3, 5)).unwrap();
        let folded = ov.fold(&base, None).unwrap();
        let hits = folded.query("cheap running shoes", MatchType::Broad);
        assert_eq!(listings(&hits), vec![2]);
        assert_eq!(folded.query("running shoes", MatchType::Broad).len(), 2);
    }

    #[test]
    fn remove_finds_excluded_base_ads() {
        // Deleting "cheap running shoes" style phrases must work even when
        // the phrase contains the ad's own exclusion word.
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(1, 50), &["running"])
            .unwrap();
        let base = b.build().unwrap();
        let mut ov = DeltaOverlay::for_base(&base);
        assert_eq!(ov.remove(&base, "running shoes", 1), 1);
        let folded = ov.fold(&base, None).unwrap();
        assert_eq!(folded.stats().ads, 0);
    }

    #[test]
    fn empty_overlay_changes_nothing() {
        let base = base();
        let ov = DeltaOverlay::for_base(&base);
        assert!(ov.is_empty());
        for q in ["cheap used books online", "talk talk", "zzz"] {
            let (want_hits, want_stats) = base.query_with_stats(q, MatchType::Broad);
            let (hits, stats) = base.query_with_overlay(&ov, q, MatchType::Broad);
            assert_eq!(hits, want_hits);
            assert_eq!(stats, want_stats);
        }
    }
}
