//! Index persistence: a dependency-free, versioned, checksummed binary
//! format.
//!
//! Production ad platforms build the mapping offline ("potentially on a
//! separate machine", Section VI) and ship the finished structure to
//! serving fleets; [`BroadMatchIndex::save`]/[`BroadMatchIndex::load`] are
//! that shipping format. Everything is little-endian; variable-length
//! integers use LEB128; the trailer carries an FNV-1a checksum of the whole
//! payload.

use std::io::{self, Read, Write};

use broadmatch_memcost::CostModel;

use crate::arena::Arena;
use crate::build::{DirectoryKind, IndexConfig, RemapMode};
use crate::directory::{
    HashTableDirectory, NodeDirectory, SortedArrayDirectory, SuccinctNodeDirectory,
};
use crate::node::Codec;
use crate::optimize::Mapping;
use crate::{BroadMatchIndex, Vocabulary, WordId, WordSet};

const MAGIC: &[u8; 4] = b"BMIX";
// Version 2 added the ad-id high-water mark after the ad count, so a
// reloaded index keeps the no-id-reuse guarantee across maintenance.
const VERSION: u32 = 2;

/// Errors from [`BroadMatchIndex::save`] / [`BroadMatchIndex::load`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a broadmatch index file.
    BadMagic,
    /// The file was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The payload checksum does not match (truncation or corruption).
    ChecksumMismatch,
    /// Structurally invalid content (counts or tags out of range).
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a broadmatch index file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt file)"),
            PersistError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Buffered writer that maintains the running checksum.
struct Sink<'a, W: Write> {
    inner: &'a mut W,
    fnv: Fnv,
}

impl<'a, W: Write> Sink<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        Sink {
            inner,
            fnv: Fnv::new(),
        }
    }

    fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.fnv.update(b);
        self.inner.write_all(b)
    }

    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.bytes(&[v])
    }

    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn f64(&mut self, v: f64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    fn varint(&mut self, mut v: u64) -> io::Result<()> {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                return self.u8(byte);
            }
            self.u8(byte | 0x80)?;
        }
    }

    fn str(&mut self, s: &str) -> io::Result<()> {
        self.varint(s.len() as u64)?;
        self.bytes(s.as_bytes())
    }

    fn wordset(&mut self, set: &WordSet) -> io::Result<()> {
        self.varint(set.len() as u64)?;
        for &WordId(id) in set.ids() {
            self.varint(id as u64)?;
        }
        Ok(())
    }
}

/// Reader with running checksum.
struct Source<'a, R: Read> {
    inner: &'a mut R,
    fnv: Fnv,
}

impl<'a, R: Read> Source<'a, R> {
    fn new(inner: &'a mut R) -> Self {
        Source {
            inner,
            fnv: Fnv::new(),
        }
    }

    fn bytes(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        self.inner.read_exact(buf)?;
        self.fnv.update(buf);
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        let mut b = [0u8; 1];
        self.bytes(&mut b)?;
        Ok(b[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        let mut b = [0u8; 8];
        self.bytes(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    fn varint(&mut self) -> Result<u64, PersistError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(PersistError::Corrupt("overlong varint"));
            }
        }
    }

    fn str(&mut self) -> Result<String, PersistError> {
        let len = self.varint()? as usize;
        if len > 1 << 20 {
            return Err(PersistError::Corrupt("oversized string"));
        }
        let mut buf = vec![0u8; len];
        self.bytes(&mut buf)?;
        String::from_utf8(buf).map_err(|_| PersistError::Corrupt("invalid utf-8"))
    }

    fn wordset(&mut self) -> Result<WordSet, PersistError> {
        let n = self.varint()? as usize;
        if n > u8::MAX as usize + 1 {
            return Err(PersistError::Corrupt("oversized word set"));
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(WordId(self.varint()? as u32));
        }
        Ok(WordSet::from_unsorted(ids))
    }
}

impl BroadMatchIndex {
    /// Serialize the complete index (vocabulary, nodes, directory, mapping
    /// metadata) to `writer`.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn save<W: Write>(&self, writer: &mut W) -> Result<(), PersistError> {
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        let mut w = Sink::new(writer);

        // Config.
        let cfg = self.config();
        w.u32(cfg.max_words as u32)?;
        w.u64(cfg.probe_cap as u64)?;
        w.u8(match cfg.remap {
            RemapMode::None => 0,
            RemapMode::LongOnly => 1,
            RemapMode::Full => 2,
            RemapMode::FullWithWithdrawals => 3,
        })?;
        w.u8(match cfg.directory {
            DirectoryKind::HashTable => 0,
            DirectoryKind::Succinct => 1,
            DirectoryKind::SortedArray => 2,
        })?;
        w.u8(cfg.compress_nodes as u8)?;
        w.f64(cfg.cost.cost_random)?;
        w.f64(cfg.cost.scan_base)?;
        w.f64(cfg.cost.scan_byte)?;

        // Vocabulary (words in id order; the map is rebuilt on load).
        let vocab = self.vocab();
        w.varint(vocab.len() as u64)?;
        for i in 0..vocab.len() {
            let word = vocab
                .resolve(WordId(i as u32))
                .expect("dense vocabulary ids");
            w.str(word)?;
            w.varint(vocab.phrase_freq(WordId(i as u32)))?;
        }

        // Arena.
        let arena = self.arena();
        w.varint(arena.len() as u64)?;
        w.bytes(arena.as_slice())?;

        // Directory.
        match self.directory() {
            NodeDirectory::Hash(h) => {
                w.u8(0)?;
                let mut items = h.live_nodes();
                items.sort_unstable();
                w.varint(items.len() as u64)?;
                for (hash, start, len) in items {
                    w.u64(hash)?;
                    w.u32(start)?;
                    w.u32(len)?;
                }
            }
            NodeDirectory::Sorted(s) => {
                w.u8(2)?;
                w.varint(s.items().len() as u64)?;
                for &(hash, start, len) in s.items() {
                    w.u64(hash)?;
                    w.u32(start)?;
                    w.u32(len)?;
                }
            }
            NodeDirectory::Succinct(s) => {
                w.u8(1)?;
                let inner = s.inner();
                w.u32(inner.suffix_bits())?;
                w.varint(inner.len())?;
                for r in 0..inner.len() {
                    let (start, end) = inner.extent_by_rank(r);
                    w.varint(inner.suffix_by_rank(r))?;
                    w.varint(end - start)?;
                }
            }
        }

        // Group metadata and mapping.
        w.varint(self.group_words().len() as u64)?;
        for (g, words) in self.group_words().iter().enumerate() {
            w.wordset(words)?;
            w.varint(self.group_bytes()[g] as u64)?;
            w.wordset(self.mapping().locator(g))?;
        }

        w.varint(self.stats().ads as u64)?;
        w.varint(self.ad_id_high_water() as u64)?;
        w.varint(self.stats().max_locator_len as u64)?;

        // Exclusion phrases (sorted by ad id for determinism).
        let mut exclusions: Vec<(&crate::AdId, &WordSet)> = self.exclusions().iter().collect();
        exclusions.sort_by_key(|(id, _)| **id);
        w.varint(exclusions.len() as u64)?;
        for (ad, set) in exclusions {
            w.varint(ad.raw() as u64)?;
            w.wordset(set)?;
        }

        let checksum = w.fnv.0;
        writer.write_all(&checksum.to_le_bytes())?;
        Ok(())
    }

    /// Deserialize an index previously written by [`BroadMatchIndex::save`].
    ///
    /// # Errors
    /// Fails on malformed input, version mismatch or checksum failure.
    pub fn load<R: Read>(reader: &mut R) -> Result<BroadMatchIndex, PersistError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let mut version = [0u8; 4];
        reader.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let mut r = Source::new(reader);

        // Config.
        let max_words = r.u32()? as usize;
        let probe_cap = r.u64()? as usize;
        let remap = match r.u8()? {
            0 => RemapMode::None,
            1 => RemapMode::LongOnly,
            2 => RemapMode::Full,
            3 => RemapMode::FullWithWithdrawals,
            _ => return Err(PersistError::Corrupt("remap tag")),
        };
        let directory_kind = match r.u8()? {
            0 => DirectoryKind::HashTable,
            1 => DirectoryKind::Succinct,
            2 => DirectoryKind::SortedArray,
            _ => return Err(PersistError::Corrupt("directory tag")),
        };
        let compress_nodes = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Corrupt("compress flag")),
        };
        let cost = CostModel {
            cost_random: r.f64()?,
            scan_base: r.f64()?,
            scan_byte: r.f64()?,
        };
        let config = IndexConfig {
            max_words,
            probe_cap,
            remap,
            directory: directory_kind,
            compress_nodes,
            cost,
        };

        // Vocabulary.
        let n_words = r.varint()? as usize;
        if n_words > u32::MAX as usize {
            return Err(PersistError::Corrupt("vocabulary too large"));
        }
        let mut vocab = Vocabulary::new();
        for i in 0..n_words {
            let word = r.str()?;
            let id = vocab.intern(&word);
            if id != WordId(i as u32) {
                return Err(PersistError::Corrupt("duplicate vocabulary word"));
            }
            let freq = r.varint()?;
            for _ in 0..freq {
                vocab.bump_phrase_freq(id);
            }
        }

        // Arena.
        let arena_len = r.varint()? as usize;
        let mut arena_bytes = vec![0u8; arena_len];
        r.bytes(&mut arena_bytes)?;
        let mut arena = Arena::new();
        arena.push_bytes(&arena_bytes);

        // Directory.
        let directory = match r.u8()? {
            0 => {
                let n = r.varint()? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let hash = r.u64()?;
                    let start = r.u32()?;
                    let len = r.u32()?;
                    if start as usize + len as usize > arena_len {
                        return Err(PersistError::Corrupt("node extent out of bounds"));
                    }
                    items.push((hash, start, len));
                }
                NodeDirectory::Hash(HashTableDirectory::new(&items))
            }
            1 => {
                let suffix_bits = r.u32()?;
                if suffix_bits > 48 {
                    return Err(PersistError::Corrupt("suffix bits out of range"));
                }
                let n = r.varint()? as usize;
                let mut nodes = Vec::with_capacity(n);
                let mut total = 0u64;
                for _ in 0..n {
                    let suffix = r.varint()?;
                    let len = r.varint()?;
                    total += len;
                    nodes.push((suffix, len));
                }
                if total as usize != arena_len {
                    return Err(PersistError::Corrupt("directory does not tile the arena"));
                }
                NodeDirectory::Succinct(SuccinctNodeDirectory::new(
                    broadmatch_succinct::CompressedDirectory::new(suffix_bits, &nodes),
                ))
            }
            2 => {
                let n = r.varint()? as usize;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let hash = r.u64()?;
                    let start = r.u32()?;
                    let len = r.u32()?;
                    if start as usize + len as usize > arena_len {
                        return Err(PersistError::Corrupt("node extent out of bounds"));
                    }
                    items.push((hash, start, len));
                }
                NodeDirectory::Sorted(SortedArrayDirectory::new(items))
            }
            _ => return Err(PersistError::Corrupt("directory tag")),
        };

        // Groups and mapping.
        let n_groups = r.varint()? as usize;
        let mut group_words = Vec::with_capacity(n_groups);
        let mut group_bytes = Vec::with_capacity(n_groups);
        let mut locators = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            group_words.push(r.wordset()?);
            group_bytes.push(r.varint()? as usize);
            locators.push(r.wordset()?);
        }
        let mapping = Mapping::new(locators);

        let n_ads = r.varint()? as u32;
        let ad_id_floor = r.varint()? as u32;
        let max_locator_len = r.varint()? as usize;

        let n_exclusions = r.varint()? as usize;
        let mut exclusions: std::collections::HashMap<
            crate::AdId,
            WordSet,
            crate::hash::FxBuildHasher,
        > = std::collections::HashMap::default();
        for _ in 0..n_exclusions {
            let ad = crate::AdId(r.varint()? as u32);
            exclusions.insert(ad, r.wordset()?);
        }

        let expected = r.fnv.0;
        let mut checksum = [0u8; 8];
        reader.read_exact(&mut checksum)?;
        if u64::from_le_bytes(checksum) != expected {
            return Err(PersistError::ChecksumMismatch);
        }

        let codec = if compress_nodes {
            Codec::Compressed
        } else {
            Codec::Plain
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
        .with_ad_id_floor(ad_id_floor)
        .with_exclusions(exclusions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdId, AdInfo, IndexBuilder, MatchType};

    fn sample_index(directory: DirectoryKind, compress: bool) -> BroadMatchIndex {
        let config = IndexConfig {
            directory,
            compress_nodes: compress,
            remap: RemapMode::Full,
            max_words: 3,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(config);
        // Under Miri, shrink the corpus so the round-trip tests stay in the
        // interpretable-time budget; 60 still covers every query below
        // (the deepest fixed listing referenced is unique37).
        let n = if cfg!(miri) { 60u32 } else { 300u32 };
        for i in 0..n {
            let phrase = format!("shared{} word{} unique{}", i % 4, i % 30, i);
            b.add(&phrase, AdInfo::with_bid(i as u64, 10 + i)).unwrap();
        }
        b.add("talk talk", AdInfo::with_bid(9999, 55)).unwrap();
        b.build().unwrap()
    }

    fn round_trip(directory: DirectoryKind, compress: bool) {
        let index = sample_index(directory, compress);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = BroadMatchIndex::load(&mut buf.as_slice()).unwrap();

        assert_eq!(index.stats(), loaded.stats());
        for q in [
            "shared1 word7 unique37 extra",
            "talk talk",
            "talk",
            "shared0 word0 unique0",
            "nothing here",
        ] {
            for mt in [MatchType::Broad, MatchType::Exact, MatchType::Phrase] {
                let mut a: Vec<u64> = index
                    .query(q, mt)
                    .iter()
                    .map(|h| h.info.listing_id)
                    .collect();
                let mut b: Vec<u64> = loaded
                    .query(q, mt)
                    .iter()
                    .map(|h| h.info.listing_id)
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "query {q:?} ({mt:?})");
            }
        }
        // Mapping metadata survives.
        assert_eq!(index.mapping_stats(), loaded.mapping_stats());
    }

    #[test]
    fn round_trip_hash_plain() {
        round_trip(DirectoryKind::HashTable, false);
    }

    #[test]
    fn round_trip_hash_compressed() {
        round_trip(DirectoryKind::HashTable, true);
    }

    #[test]
    fn round_trip_succinct_plain() {
        round_trip(DirectoryKind::Succinct, false);
    }

    #[test]
    fn round_trip_succinct_compressed() {
        round_trip(DirectoryKind::Succinct, true);
    }

    #[test]
    fn round_trip_sorted_array() {
        round_trip(DirectoryKind::SortedArray, false);
        round_trip(DirectoryKind::SortedArray, true);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = b"NOPE....".to_vec();
        data.extend_from_slice(&[0; 64]);
        assert!(matches!(
            BroadMatchIndex::load(&mut data.as_slice()),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let index = sample_index(DirectoryKind::HashTable, false);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            BroadMatchIndex::load(&mut buf.as_slice()),
            Err(PersistError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn detects_corruption() {
        let index = sample_index(DirectoryKind::HashTable, false);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        match BroadMatchIndex::load(&mut buf.as_slice()) {
            Err(_) => {}
            Ok(_) => panic!("corrupted payload must not load"),
        }
    }

    #[test]
    fn detects_truncation() {
        let index = sample_index(DirectoryKind::HashTable, false);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(BroadMatchIndex::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn exclusions_survive_round_trip() {
        let mut b = IndexBuilder::new();
        b.add_with_exclusions("running shoes", AdInfo::with_bid(1, 50), &["cheap"])
            .unwrap();
        b.add("running shoes", AdInfo::with_bid(2, 40)).unwrap();
        let index = b.build().unwrap();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = BroadMatchIndex::load(&mut buf.as_slice()).unwrap();
        let hits = loaded.query("cheap running shoes", MatchType::Broad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].info.listing_id, 2);
        assert_eq!(loaded.query("running shoes", MatchType::Broad).len(), 2);
    }

    #[test]
    fn loaded_index_is_maintainable() {
        let index = sample_index(DirectoryKind::HashTable, false);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = BroadMatchIndex::load(&mut buf.as_slice()).unwrap();
        let live: std::collections::HashSet<AdId> = loaded
            .iter_all_ads()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let mut overlay = crate::DeltaOverlay::for_base(&loaded);
        let id = overlay
            .insert("fresh phrase", AdInfo::with_bid(777, 30))
            .unwrap();
        assert!(!live.contains(&id), "fresh {id:?} collides with a live ad");
        let (hits, _) = loaded.query_with_overlay(&overlay, "fresh phrase", MatchType::Broad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].ad, id);
    }
}
