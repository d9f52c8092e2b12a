//! Compression reporting (Section VI).
//!
//! Two orthogonal compressions exist: node contents (front-coded word sets,
//! varint ids, delta-coded bids — chosen at build time via
//! `IndexConfig::compress_nodes`) and the directory (the succinct
//! `B^sig`/`B^off` structure vs. the plain hash table). This module measures
//! both, producing the numbers behind the paper's ≈9:1 example.

use crate::arena::Arena;
use crate::directory::{HashTableDirectory, NodeDirectory, SLOT_BYTES};
use crate::node::{encode_node, Codec};
use crate::BroadMatchIndex;

/// Space comparison between the plain and compressed encodings of an index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionReport {
    /// Node storage under the plain codec.
    pub node_plain_bytes: usize,
    /// Node storage under the compressed codec.
    pub node_compressed_bytes: usize,
    /// Directory size as built.
    pub directory_bytes: usize,
    /// Size a plain hash-table directory would need for this node count.
    pub hash_directory_bytes: usize,
    /// Directory entries (nodes).
    pub entries: usize,
}

impl CompressionReport {
    /// Node compression ratio (plain : compressed).
    pub fn node_ratio(&self) -> f64 {
        if self.node_compressed_bytes == 0 {
            return 1.0;
        }
        self.node_plain_bytes as f64 / self.node_compressed_bytes as f64
    }

    /// Directory compression ratio (hash table : actual directory) — the
    /// paper's `bit_size(H) : (n·H₀(B^sig) + n·H₀(B^off))` comparison,
    /// measured on real structures rather than entropy bounds.
    pub fn directory_ratio(&self) -> f64 {
        if self.directory_bytes == 0 {
            return 1.0;
        }
        self.hash_directory_bytes as f64 / self.directory_bytes as f64
    }
}

impl BroadMatchIndex {
    /// Measure both node and directory compression by re-encoding every
    /// node under both codecs.
    pub fn compression_report(&self) -> CompressionReport {
        let mut plain = Arena::new();
        let mut compressed = Arena::new();
        for (start, end) in self.directory().extents() {
            let bytes = self.arena().slice(start as usize, end as usize);
            let mut entries = crate::node::decode_node(bytes, self.codec());
            encode_node(&mut entries, Codec::Plain, &mut plain);
            let mut entries2 = entries;
            encode_node(&mut entries2, Codec::Compressed, &mut compressed);
        }
        let entries = self.directory().entries();
        // A plain hash table sized like the builder's.
        let hash_directory_bytes = HashTableDirectory::capacity(entries) * SLOT_BYTES;
        CompressionReport {
            node_plain_bytes: plain.len(),
            node_compressed_bytes: compressed.len(),
            directory_bytes: self.directory().size_bytes(),
            hash_directory_bytes,
            entries,
        }
    }

    /// Space accounting of the succinct directory, if this index uses one.
    pub fn succinct_space(&self) -> Option<broadmatch_succinct::DirectorySpace> {
        match self.directory() {
            NodeDirectory::Succinct(s) => Some(s.inner().space()),
            NodeDirectory::Hash(_) | NodeDirectory::Sorted(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AdInfo, DirectoryKind, IndexBuilder, IndexConfig};

    fn build(compress: bool, directory: DirectoryKind) -> crate::BroadMatchIndex {
        let cfg = IndexConfig {
            compress_nodes: compress,
            directory,
            ..IndexConfig::default()
        };
        let mut b = IndexBuilder::with_config(cfg);
        for i in 0..200u32 {
            let phrase = format!("common{} word{} extra{}", i % 5, i % 40, i);
            b.add(&phrase, AdInfo::with_bid(i as u64, 10 + i)).unwrap();
        }
        b.build().unwrap()
    }

    // The four tests below each build a 200-phrase index (twice, for the
    // codec-independence one) to make the ratio assertions meaningful;
    // they measure space, not memory safety, so skip them under Miri.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn compressed_nodes_shrink() {
        let report = build(false, DirectoryKind::HashTable).compression_report();
        assert!(report.node_ratio() > 1.2, "ratio {}", report.node_ratio());
        assert!(report.node_plain_bytes > report.node_compressed_bytes);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn report_is_codec_independent() {
        // The report re-encodes, so building compressed or plain gives the
        // same node numbers.
        let a = build(false, DirectoryKind::HashTable).compression_report();
        let b = build(true, DirectoryKind::HashTable).compression_report();
        assert_eq!(a.node_plain_bytes, b.node_plain_bytes);
        assert_eq!(a.node_compressed_bytes, b.node_compressed_bytes);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn succinct_directory_beats_hash_table() {
        let report = build(false, DirectoryKind::Succinct).compression_report();
        assert!(
            report.directory_ratio() > 2.0,
            "directory ratio {}",
            report.directory_ratio()
        );
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn succinct_space_accessor() {
        assert!(build(false, DirectoryKind::Succinct)
            .succinct_space()
            .is_some());
        assert!(build(false, DirectoryKind::HashTable)
            .succinct_space()
            .is_none());
    }
}
