//! Data-node layout: encoding, decoding and scanning.
//!
//! A **data node** (paper, Section III-B) holds every phrase mapped to one
//! node locator, grouped by distinct folded word set (an *entry*), with
//! entries ordered by word count so that a query of `q` words stops scanning
//! at the first entry with more than `q` words ("whenever we encounter a
//! phrase containing more words than Q in a data node, the remainder of this
//! node is irrelevant for this query").
//!
//! Within an entry, phrases sharing the word set but differing in word order
//! are kept as separate *phrase groups* (phrase- and exact-match need the
//! original order), each with its list of ads.
//!
//! Two codecs share the layout:
//!
//! * [`Codec::Plain`] — fixed-width little-endian fields;
//! * [`Codec::Compressed`] — the Section VI node compression: word sets are
//!   front-coded against the previous entry and gap-encoded, counts and ids
//!   are varints, and bid prices are zigzag-delta encoded.

use broadmatch_memcost::AccessTracker;

use crate::arena::{unzigzag, zigzag, Arena, Cursor};
use crate::{AdId, AdInfo, WordId, WordSet};

/// Which node encoding an index uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Codec {
    Plain,
    Compressed,
}

/// Phrases sharing one word set and one word order, with their ads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PhraseGroup {
    /// Raw (unfolded) word ids in original phrase order.
    pub raw: Vec<WordId>,
    /// Ads bidding exactly this phrase.
    pub ads: Vec<(AdId, AdInfo)>,
}

/// One entry: a distinct folded word set with all its phrase groups.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeEntry {
    pub words: WordSet,
    pub phrases: Vec<PhraseGroup>,
}

impl NodeEntry {
    /// Encoded size in bytes under the plain codec — the quantity
    /// `size(phrase(A_i))` + `size(info(A_i))` sums the cost model needs
    /// without actually encoding.
    pub(crate) fn plain_encoded_bytes(&self) -> usize {
        let mut n = 1 + 4 * self.words.len() + 2;
        for p in &self.phrases {
            n += 1 + 4 * p.raw.len() + 2 + p.ads.len() * (4 + AdInfo::ENCODED_BYTES);
        }
        n
    }
}

/// Encode `entries` (already grouped) as one node, appending to `arena`.
///
/// Entries are sorted by `(word_count, words)` here, enforcing the early
/// termination invariant regardless of caller order.
///
/// # Panics
/// Panics if an entry exceeds the format's count limits (255 words per set,
/// 65535 phrase groups per entry, 255 raw words, 65535 ads per phrase) —
/// these are far beyond anything the corpus generator or paper distributions
/// produce, so they are programmer errors, not data errors.
pub(crate) fn encode_node(entries: &mut [NodeEntry], codec: Codec, arena: &mut Arena) {
    entries.sort_by(|a, b| {
        a.words
            .len()
            .cmp(&b.words.len())
            .then_with(|| a.words.cmp(&b.words))
    });
    let mut prev_words: &[WordId] = &[];
    for entry in entries.iter() {
        assert!(entry.words.len() <= u8::MAX as usize, "word set too large");
        assert!(
            entry.phrases.len() <= u16::MAX as usize,
            "too many phrase groups"
        );
        match codec {
            Codec::Plain => encode_entry_plain(entry, arena),
            Codec::Compressed => encode_entry_compressed(entry, prev_words, arena),
        }
        prev_words = entry.words.ids();
    }
}

fn encode_entry_plain(entry: &NodeEntry, arena: &mut Arena) {
    arena.push_u8(entry.words.len() as u8);
    for &WordId(id) in entry.words.ids() {
        arena.push_u32(id);
    }
    arena.push_u16(entry.phrases.len() as u16);
    for p in &entry.phrases {
        assert!(p.raw.len() <= u8::MAX as usize, "phrase too long");
        assert!(
            p.ads.len() <= u16::MAX as usize,
            "too many ads in phrase group"
        );
        arena.push_u8(p.raw.len() as u8);
        for &WordId(id) in &p.raw {
            arena.push_u32(id);
        }
        arena.push_u16(p.ads.len() as u16);
        for &(AdId(ad), info) in &p.ads {
            arena.push_u32(ad);
            arena.push_u64(info.listing_id);
            arena.push_u32(info.campaign_id);
            arena.push_u64(info.bid_micros);
        }
    }
}

fn encode_entry_compressed(entry: &NodeEntry, prev_words: &[WordId], arena: &mut Arena) {
    arena.push_u8(entry.words.len() as u8);
    // Front-code against the previous entry's word list (§VI: "representing
    // them relative to phrases stored before them in the same data node").
    let words = entry.words.ids();
    let shared = words
        .iter()
        .zip(prev_words)
        .take_while(|(a, b)| a == b)
        .count()
        .min(u8::MAX as usize);
    arena.push_u8(shared as u8);
    let mut prev_id = if shared > 0 {
        words[shared - 1].0 as u64
    } else {
        0
    };
    for (i, &WordId(id)) in words.iter().enumerate().skip(shared) {
        // Gap from the previous id; the very first id is stored absolutely.
        if i == 0 {
            arena.push_varint(id as u64);
        } else {
            arena.push_varint(id as u64 - prev_id - 1);
        }
        prev_id = id as u64;
    }
    arena.push_varint(entry.phrases.len() as u64);
    for p in &entry.phrases {
        assert!(p.raw.len() <= u8::MAX as usize, "phrase too long");
        arena.push_u8(p.raw.len() as u8);
        for &WordId(id) in &p.raw {
            arena.push_varint(id as u64);
        }
        // Ads sorted by id for delta coding; bid prices zigzag-delta coded.
        let mut ads = p.ads.clone();
        ads.sort_by_key(|&(id, _)| id);
        arena.push_varint(ads.len() as u64);
        let mut prev_ad = 0u64;
        let mut prev_bid = 0i64;
        for (i, &(AdId(ad), info)) in ads.iter().enumerate() {
            if i == 0 {
                arena.push_varint(ad as u64);
            } else {
                arena.push_varint(ad as u64 - prev_ad);
            }
            prev_ad = ad as u64;
            arena.push_varint(info.listing_id);
            arena.push_varint(info.campaign_id as u64);
            arena.push_varint(zigzag(info.bid_micros as i64 - prev_bid));
            prev_bid = info.bid_micros as i64;
        }
    }
}

/// Reusable scratch buffers so node scans stay allocation-free.
#[derive(Debug, Default)]
pub(crate) struct ScanScratch {
    words: Vec<WordId>,
    raw: Vec<WordId>,
    prev_words: Vec<WordId>,
}

/// What one node scan physically did — the raw quantities the paper's
/// scan-cost term `Cost_Scan(m)` prices and the telemetry layer exports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScanSummary {
    /// Entries decoded (including non-matching ones the scan passed over).
    pub entries: u32,
    /// Ads decoded across all phrase groups.
    pub ads: u32,
    /// Bytes consumed from the node's byte run.
    pub bytes: u32,
    /// Whether the `word_count > |Q|` rule cut the scan short.
    pub early_terminated: bool,
}

/// Scan one node, invoking `on_ad` for every ad in entries whose word set
/// passes `filter`, and stopping at the first entry with more than
/// `max_word_count` words (the early-termination rule).
///
/// Entries failing `filter` are still *decoded* (their bytes are read and
/// accounted): the node is a contiguous byte run, so a scan physically
/// passes over them — exactly the sequential-scan cost the paper's equation
/// (2) charges.
///
/// Returns a [`ScanSummary`] of what the scan physically touched.
#[allow(clippy::too_many_arguments)] // hot path: explicit args beat a params struct here
pub(crate) fn scan_node<T, F, S>(
    bytes: &[u8],
    base_addr: u64,
    codec: Codec,
    max_word_count: usize,
    scratch: &mut ScanScratch,
    tracker: &mut T,
    mut filter: F,
    mut on_ad: S,
) -> ScanSummary
where
    T: AccessTracker,
    F: FnMut(&[WordId]) -> bool,
    S: FnMut(&[WordId], &[WordId], AdId, AdInfo),
{
    let mut summary = ScanSummary::default();
    let mut cur = Cursor::new(bytes, base_addr, tracker);
    scratch.prev_words.clear();
    while cur.remaining() > 0 {
        let word_count = cur.read_u8() as usize;
        if word_count > max_word_count {
            // Entries are sorted by word count: nothing further can match.
            cur.tracker().branch(SITE_EARLY_TERM, true);
            summary.early_terminated = true;
            summary.bytes = (bytes.len() - cur.remaining()) as u32;
            return summary;
        }
        cur.tracker().branch(SITE_EARLY_TERM, false);
        summary.entries += 1;

        scratch.words.clear();
        match codec {
            Codec::Plain => {
                for _ in 0..word_count {
                    scratch.words.push(WordId(cur.read_u32()));
                }
            }
            Codec::Compressed => {
                let shared = cur.read_u8() as usize;
                debug_assert!(shared <= word_count && shared <= scratch.prev_words.len());
                scratch
                    .words
                    .extend_from_slice(&scratch.prev_words[..shared]);
                let mut prev_id = if shared > 0 {
                    scratch.words[shared - 1].0 as u64
                } else {
                    0
                };
                for i in shared..word_count {
                    let delta = cur.read_varint();
                    let id = if i == 0 { delta } else { prev_id + 1 + delta };
                    prev_id = id;
                    scratch.words.push(WordId(id as u32));
                }
            }
        }
        scratch.prev_words.clear();
        scratch.prev_words.extend_from_slice(&scratch.words);

        let matches = filter(&scratch.words);
        cur.tracker().branch(SITE_ENTRY_MATCH, matches);

        let n_phrases = match codec {
            Codec::Plain => cur.read_u16() as usize,
            Codec::Compressed => cur.read_varint() as usize,
        };
        for _ in 0..n_phrases {
            let n_raw = cur.read_u8() as usize;
            scratch.raw.clear();
            for _ in 0..n_raw {
                let id = match codec {
                    Codec::Plain => cur.read_u32(),
                    Codec::Compressed => cur.read_varint() as u32,
                };
                scratch.raw.push(WordId(id));
            }
            let n_ads = match codec {
                Codec::Plain => cur.read_u16() as usize,
                Codec::Compressed => cur.read_varint() as usize,
            };
            let mut prev_ad = 0u64;
            let mut prev_bid = 0i64;
            for i in 0..n_ads {
                let (ad_id, info) = match codec {
                    Codec::Plain => {
                        let ad = cur.read_u32();
                        let listing_id = cur.read_u64();
                        let campaign_id = cur.read_u32();
                        let bid_micros = cur.read_u64();
                        (
                            AdId(ad),
                            AdInfo {
                                listing_id,
                                campaign_id,
                                bid_micros,
                            },
                        )
                    }
                    Codec::Compressed => {
                        let ad = if i == 0 {
                            cur.read_varint()
                        } else {
                            prev_ad + cur.read_varint()
                        };
                        prev_ad = ad;
                        let listing_id = cur.read_varint();
                        let campaign_id = cur.read_varint() as u32;
                        let bid = prev_bid + unzigzag(cur.read_varint());
                        prev_bid = bid;
                        (
                            AdId(ad as u32),
                            AdInfo {
                                listing_id,
                                campaign_id,
                                bid_micros: bid as u64,
                            },
                        )
                    }
                };
                summary.ads += 1;
                if matches {
                    on_ad(&scratch.words, &scratch.raw, ad_id, info);
                }
            }
        }
    }
    summary.bytes = (bytes.len() - cur.remaining()) as u32;
    summary
}

/// Branch-site ids reported to the tracker (for the §VII-C branch counter).
/// The node-scan early-termination branch ("word_count > |Q|").
pub const SITE_EARLY_TERM: u32 = 1;
/// The per-entry subset/match test inside a node scan.
pub const SITE_ENTRY_MATCH: u32 = 2;
/// Directory-probe hit/miss branch, reported by the query loop.
pub const SITE_PROBE: u32 = 3;

/// Fully decode a node back into entries (maintenance and tests).
pub(crate) fn decode_node(bytes: &[u8], codec: Codec) -> Vec<NodeEntry> {
    let mut out = Vec::new();
    let mut scratch = ScanScratch::default();
    let mut tracker = broadmatch_memcost::NullTracker;
    // Reuse the scanner with an always-true filter, collecting per-ad calls
    // back into the grouped representation.
    scan_node(
        bytes,
        0,
        codec,
        usize::MAX,
        &mut scratch,
        &mut tracker,
        |_| true,
        |words, raw, ad_id, info| {
            let ws = WordSet::from_sorted(words.to_vec());
            if out.last().is_none_or(|e: &NodeEntry| e.words != ws) {
                out.push(NodeEntry {
                    words: ws.clone(),
                    phrases: Vec::new(),
                });
            }
            let entry = out.last_mut().expect("just pushed");
            if entry.phrases.last().is_none_or(|p| p.raw != raw) {
                entry.phrases.push(PhraseGroup {
                    raw: raw.to_vec(),
                    ads: Vec::new(),
                });
            }
            entry
                .phrases
                .last_mut()
                .expect("just pushed")
                .ads
                .push((ad_id, info));
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch_memcost::{CountingTracker, NullTracker};

    fn sample_entries() -> Vec<NodeEntry> {
        let w = |ids: &[u32]| WordSet::from_unsorted(ids.iter().map(|&i| WordId(i)).collect());
        let raw = |ids: &[u32]| ids.iter().map(|&i| WordId(i)).collect::<Vec<_>>();
        vec![
            NodeEntry {
                words: w(&[3, 7]),
                phrases: vec![
                    PhraseGroup {
                        raw: raw(&[7, 3]),
                        ads: vec![
                            (AdId(1), AdInfo::with_bid(100, 50)),
                            (AdId(4), AdInfo::with_bid(101, 75)),
                        ],
                    },
                    PhraseGroup {
                        raw: raw(&[3, 7]),
                        ads: vec![(AdId(2), AdInfo::with_bid(102, 60))],
                    },
                ],
            },
            NodeEntry {
                words: w(&[3, 7, 20]),
                phrases: vec![PhraseGroup {
                    raw: raw(&[20, 3, 7]),
                    ads: vec![(AdId(3), AdInfo::with_bid(103, 10))],
                }],
            },
        ]
    }

    fn round_trip(codec: Codec) {
        let mut entries = sample_entries();
        let mut arena = Arena::new();
        encode_node(&mut entries, codec, &mut arena);
        let decoded = decode_node(arena.as_slice(), codec);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn plain_round_trip() {
        round_trip(Codec::Plain);
    }

    #[test]
    fn compressed_round_trip() {
        round_trip(Codec::Compressed);
    }

    #[test]
    fn compressed_is_smaller() {
        let mut entries = sample_entries();
        let mut plain = Arena::new();
        encode_node(&mut entries, Codec::Plain, &mut plain);
        let mut compressed = Arena::new();
        encode_node(&mut entries, Codec::Compressed, &mut compressed);
        assert!(
            compressed.len() < plain.len(),
            "compressed {} >= plain {}",
            compressed.len(),
            plain.len()
        );
    }

    #[test]
    fn entries_sorted_by_word_count_regardless_of_input_order() {
        let mut entries = sample_entries();
        entries.reverse();
        let mut arena = Arena::new();
        encode_node(&mut entries, Codec::Plain, &mut arena);
        let decoded = decode_node(arena.as_slice(), Codec::Plain);
        assert!(decoded
            .windows(2)
            .all(|w| w[0].words.len() <= w[1].words.len()));
    }

    #[test]
    fn early_termination_stops_reading() {
        let mut entries = sample_entries();
        let mut arena = Arena::new();
        encode_node(&mut entries, Codec::Plain, &mut arena);

        // max_word_count = 2: the 3-word entry must not be decoded.
        let mut full = CountingTracker::new();
        let mut scratch = ScanScratch::default();
        scan_node(
            arena.as_slice(),
            0,
            Codec::Plain,
            usize::MAX,
            &mut scratch,
            &mut full,
            |_| true,
            |_, _, _, _| {},
        );
        let mut cut = CountingTracker::new();
        scan_node(
            arena.as_slice(),
            0,
            Codec::Plain,
            2,
            &mut scratch,
            &mut cut,
            |_| true,
            |_, _, _, _| {},
        );
        assert!(cut.bytes_total() < full.bytes_total());
    }

    #[test]
    fn filter_suppresses_ads_but_scan_continues() {
        let mut entries = sample_entries();
        let mut arena = Arena::new();
        encode_node(&mut entries, Codec::Plain, &mut arena);
        let mut scratch = ScanScratch::default();
        let mut tracker = NullTracker;
        let mut seen = Vec::new();
        scan_node(
            arena.as_slice(),
            0,
            Codec::Plain,
            usize::MAX,
            &mut scratch,
            &mut tracker,
            |words| words.len() == 3, // only the long entry
            |_, _, ad, _| seen.push(ad),
        );
        assert_eq!(seen, vec![AdId(3)]);
    }

    #[test]
    fn plain_encoded_bytes_matches_actual() {
        for entry in sample_entries() {
            let mut entries = vec![entry.clone()];
            let mut arena = Arena::new();
            encode_node(&mut entries, Codec::Plain, &mut arena);
            assert_eq!(arena.len(), entry.plain_encoded_bytes());
        }
    }

    #[test]
    fn front_coding_shares_prefixes() {
        // Two entries sharing a long id prefix compress much better than
        // two unrelated ones.
        let mk = |ids: &[u32]| NodeEntry {
            words: WordSet::from_unsorted(ids.iter().map(|&i| WordId(i)).collect()),
            phrases: vec![PhraseGroup {
                raw: ids.iter().map(|&i| WordId(i)).collect(),
                ads: vec![(AdId(0), AdInfo::default())],
            }],
        };
        let mut related = vec![mk(&[1, 2, 3, 4, 5]), mk(&[1, 2, 3, 4, 5, 6])];
        let mut unrelated = vec![mk(&[1, 2, 3, 4, 5]), mk(&[100, 200, 300, 400, 500, 600])];
        let mut a = Arena::new();
        encode_node(&mut related, Codec::Compressed, &mut a);
        let mut b = Arena::new();
        encode_node(&mut unrelated, Codec::Compressed, &mut b);
        assert!(a.len() < b.len());
        // And both decode correctly.
        assert_eq!(decode_node(a.as_slice(), Codec::Compressed), related);
        assert_eq!(decode_node(b.as_slice(), Codec::Compressed), unrelated);
    }
}
