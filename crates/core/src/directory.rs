//! Node directories: the structure mapping `wordhash` values to data-node
//! byte extents.
//!
//! Two implementations, selectable per index:
//!
//! * [`HashTableDirectory`] — the paper's default: an open-addressing hash
//!   table `H` (Fig. 4). A lookup costs one random access reading
//!   `mem_hash` bytes (plus sequential probe steps under linear probing).
//! * [`SuccinctNodeDirectory`] — the Section VI compressed replacement,
//!   wrapping `broadmatch_succinct::CompressedDirectory`. Nodes whose
//!   `wordhash` values share the `s`-bit suffix are merged by the builder.

use broadmatch_memcost::AccessTracker;
use broadmatch_succinct::CompressedDirectory;

/// Logical base address of directory storage; arena addresses start at 0 and
/// this keeps the two regions disjoint for the hardware simulator.
pub(crate) const DIR_BASE: u64 = 1 << 40;

/// Byte extent of a node inside the arena.
pub(crate) type NodeExtent = (u32, u32);

/// Open-addressing (linear probing) hash table from 64-bit `wordhash`
/// values to node extents, built once from the builder's (or loader's)
/// node list and immutable afterwards. Section VI maintenance never
/// mutates it: updates go to a [`crate::DeltaOverlay`] and `fold` builds a
/// fresh index.
#[derive(Debug, Clone)]
pub(crate) struct HashTableDirectory {
    /// Slot = (hash, start, len); `start == EMPTY` marks an empty slot.
    slots: Vec<(u64, u32, u32)>,
    mask: usize,
    entries: usize,
}

/// Bytes read per hash-table slot probe — the paper's `mem_hash`.
pub(crate) const SLOT_BYTES: usize = 16;

/// Sentinel `start` value for an empty slot.
const EMPTY: u32 = u32::MAX;

impl HashTableDirectory {
    /// Slot count for `n_nodes` entries: the next power of two at or above
    /// twice the node count (at least 16), so the load factor stays at or
    /// below one half.
    pub(crate) fn capacity(n_nodes: usize) -> usize {
        (n_nodes * 2).next_power_of_two().max(16)
    }

    /// Build from unique `(hash, start, len)` triples, with
    /// [`HashTableDirectory::capacity`] slots.
    ///
    /// # Panics
    /// Panics on duplicate hashes (the builder merges same-hash word sets
    /// into one node before construction).
    pub(crate) fn new(items: &[(u64, u32, u32)]) -> Self {
        let capacity = Self::capacity(items.len());
        let mask = capacity - 1;
        let mut slots = vec![(0u64, EMPTY, 0u32); capacity];
        for &(hash, start, len) in items {
            debug_assert!(start != EMPTY, "start collides with the empty sentinel");
            let mut i = (hash as usize) & mask;
            while slots[i].1 != EMPTY {
                assert!(slots[i].0 != hash, "duplicate hash inserted into directory");
                i = (i + 1) & mask;
            }
            slots[i] = (hash, start, len);
        }
        HashTableDirectory {
            slots,
            mask,
            entries: items.len(),
        }
    }

    /// Probe for `hash`. Accounts one random access for the home slot and a
    /// sequential read per further probe step.
    #[inline]
    pub(crate) fn lookup<T: AccessTracker>(
        &self,
        hash: u64,
        tracker: &mut T,
    ) -> Option<NodeExtent> {
        let mut i = (hash as usize) & self.mask;
        let mut first = true;
        loop {
            let addr = DIR_BASE + (i * SLOT_BYTES) as u64;
            if first {
                tracker.random_access(addr, SLOT_BYTES);
                first = false;
            } else {
                tracker.sequential_read(addr, SLOT_BYTES);
            }
            let (h, start, len) = self.slots[i];
            if start == EMPTY {
                return None;
            }
            if h == hash {
                return Some((start, start + len));
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Byte extents of all live nodes, with their hashes.
    pub(crate) fn live_nodes(&self) -> Vec<(u64, u32, u32)> {
        self.slots
            .iter()
            .filter(|&&(_, s, _)| s != EMPTY)
            .copied()
            .collect()
    }

    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// In-memory size in bytes (slot array only).
    pub(crate) fn size_bytes(&self) -> usize {
        self.slots.len() * SLOT_BYTES
    }
}

/// The compressed directory of Section VI. Lookup keys are the `s`-bit
/// suffixes of `wordhash` values; the builder merges colliding nodes.
#[derive(Debug, Clone)]
pub(crate) struct SuccinctNodeDirectory {
    inner: CompressedDirectory,
}

impl SuccinctNodeDirectory {
    /// Wrap a built compressed directory.
    pub(crate) fn new(inner: CompressedDirectory) -> Self {
        SuccinctNodeDirectory { inner }
    }

    /// Choose a suffix width for `n` nodes: roughly 3 bits of slack over
    /// `log2(n)` keeps extra suffix collisions rare (the paper's example
    /// uses a 1:13 ratio of suffixes to distinct hashes).
    pub(crate) fn pick_suffix_bits(n_nodes: usize) -> u32 {
        let needed = (n_nodes.max(1) as u64).ilog2() + 4;
        needed.clamp(8, 40)
    }

    #[inline]
    pub(crate) fn lookup<T: AccessTracker>(
        &self,
        hash: u64,
        tracker: &mut T,
    ) -> Option<NodeExtent> {
        let suffix = self.inner.suffix_of(hash);
        // One random access into the bit structures; the rank/select reads
        // touch a handful of cache lines near the suffix position.
        tracker.random_access(DIR_BASE + suffix / 8, SLOT_BYTES);
        self.inner
            .lookup(suffix)
            .map(|(start, end)| (start as u32, end as u32))
    }

    pub(crate) fn entries(&self) -> usize {
        self.inner.len() as usize
    }

    pub(crate) fn size_bytes(&self) -> usize {
        (self.inner.space().total_bits() / 8) as usize
    }

    pub(crate) fn inner(&self) -> &CompressedDirectory {
        &self.inner
    }
}

/// The tree-structured lookup table of Section III-B ("it is possible to
/// use the same re-mapping scheme in cases where the associative data
/// structure used is a tree as opposed to a hash-table"), realized as a
/// sorted array with binary search — the cache-friendliest static tree.
///
/// Every binary-search step is a dependent random access, so a lookup costs
/// `⌈log₂ n⌉` random probes where the hash table pays ~1: exactly the
/// constant-vs-logarithmic trade-off the paper cites when dismissing suffix
/// arrays for this workload (Section II). The `directory-kind` ablation
/// measures it.
#[derive(Debug, Clone)]
pub(crate) struct SortedArrayDirectory {
    /// Sorted by hash.
    items: Vec<(u64, u32, u32)>,
}

impl SortedArrayDirectory {
    /// Build from unique `(hash, start, len)` triples.
    pub(crate) fn new(mut items: Vec<(u64, u32, u32)>) -> Self {
        items.sort_unstable();
        debug_assert!(
            items.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate hash in sorted directory"
        );
        SortedArrayDirectory { items }
    }

    #[inline]
    pub(crate) fn lookup<T: AccessTracker>(
        &self,
        hash: u64,
        tracker: &mut T,
    ) -> Option<NodeExtent> {
        let (mut lo, mut hi) = (0usize, self.items.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Each probe lands on an unpredictable slot: a random access.
            tracker.random_access(DIR_BASE + (mid * SLOT_BYTES) as u64, SLOT_BYTES);
            let (h, start, len) = self.items[mid];
            match h.cmp(&hash) {
                std::cmp::Ordering::Equal => return Some((start, start + len)),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    pub(crate) fn entries(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.items.len() * SLOT_BYTES
    }

    pub(crate) fn items(&self) -> &[(u64, u32, u32)] {
        &self.items
    }
}

/// The directory variant an index carries. One instance exists per index,
/// so the size difference between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum NodeDirectory {
    Hash(HashTableDirectory),
    Succinct(SuccinctNodeDirectory),
    Sorted(SortedArrayDirectory),
}

impl NodeDirectory {
    #[inline]
    pub(crate) fn lookup<T: AccessTracker>(
        &self,
        hash: u64,
        tracker: &mut T,
    ) -> Option<NodeExtent> {
        match self {
            NodeDirectory::Hash(h) => h.lookup(hash, tracker),
            NodeDirectory::Succinct(s) => s.lookup(hash, tracker),
            NodeDirectory::Sorted(s) => s.lookup(hash, tracker),
        }
    }

    pub(crate) fn entries(&self) -> usize {
        match self {
            NodeDirectory::Hash(h) => h.entries(),
            NodeDirectory::Succinct(s) => s.entries(),
            NodeDirectory::Sorted(s) => s.entries(),
        }
    }

    /// Byte extents of all live nodes in the arena.
    pub(crate) fn extents(&self) -> Vec<NodeExtent> {
        match self {
            NodeDirectory::Hash(h) => h
                .live_nodes()
                .into_iter()
                .map(|(_, start, len)| (start, start + len))
                .collect(),
            NodeDirectory::Succinct(s) => (0..s.inner().len())
                .map(|r| {
                    let (start, end) = s.inner().extent_by_rank(r);
                    (start as u32, end as u32)
                })
                .collect(),
            NodeDirectory::Sorted(s) => s
                .items()
                .iter()
                .map(|&(_, start, len)| (start, start + len))
                .collect(),
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            NodeDirectory::Hash(h) => h.size_bytes(),
            NodeDirectory::Succinct(s) => s.size_bytes(),
            NodeDirectory::Sorted(s) => s.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch_memcost::{CountingTracker, NullTracker};

    #[test]
    fn hash_directory_round_trip() {
        let items: Vec<(u64, u32, u32)> = (0..100u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i * 10) as u32, 10))
            .collect();
        let dir = HashTableDirectory::new(&items);
        let mut t = NullTracker;
        for &(h, start, len) in &items {
            assert_eq!(dir.lookup(h, &mut t), Some((start, start + len)));
        }
        assert_eq!(dir.lookup(12345, &mut t), None);
        assert_eq!(dir.entries(), 100);
    }

    #[test]
    fn hash_directory_accounts_probes() {
        let items = vec![(42u64, 0u32, 8u32)];
        let dir = HashTableDirectory::new(&items);
        let mut t = CountingTracker::new();
        dir.lookup(42, &mut t);
        assert_eq!(t.random_accesses, 1);
        assert_eq!(t.bytes_random as usize, SLOT_BYTES);
    }

    #[test]
    fn hash_directory_handles_colliding_home_slots() {
        // Same low bits, different hashes: linear probing must separate them.
        let capacity_hint = 16u64;
        let items = vec![
            (capacity_hint, 0u32, 4u32),
            (capacity_hint * 2, 4u32, 4u32),
            (capacity_hint * 3, 8u32, 4u32),
        ];
        let dir = HashTableDirectory::new(&items);
        let mut t = NullTracker;
        for &(h, start, len) in &items {
            assert_eq!(dir.lookup(h, &mut t), Some((start, start + len)));
        }
    }

    #[test]
    fn sorted_directory_round_trip() {
        let items: Vec<(u64, u32, u32)> = (0..100u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i * 10) as u32, 10))
            .collect();
        let dir = SortedArrayDirectory::new(items.clone());
        let mut t = NullTracker;
        for &(h, start, len) in &items {
            assert_eq!(dir.lookup(h, &mut t), Some((start, start + len)));
        }
        assert_eq!(dir.lookup(42, &mut t), None);
        assert_eq!(dir.entries(), 100);
    }

    #[test]
    fn sorted_directory_pays_logarithmic_probes() {
        let items: Vec<(u64, u32, u32)> = (0..1024u64).map(|i| (i * 7, 0, 1)).collect();
        let dir = SortedArrayDirectory::new(items);
        let mut t = CountingTracker::new();
        dir.lookup(7 * 512, &mut t);
        assert!(
            (1..=11).contains(&t.random_accesses),
            "expected <= log2(1024)+1 probes, got {}",
            t.random_accesses
        );
        let mut t2 = CountingTracker::new();
        dir.lookup(3, &mut t2); // miss
        assert!(t2.random_accesses >= 9, "miss walks the full search path");
    }

    #[test]
    fn suffix_bits_scale_with_nodes() {
        assert!(SuccinctNodeDirectory::pick_suffix_bits(1) >= 8);
        let s1m = SuccinctNodeDirectory::pick_suffix_bits(1_000_000);
        assert!((20..=28).contains(&s1m), "got {s1m}");
        assert!(SuccinctNodeDirectory::pick_suffix_bits(usize::MAX / 2) <= 40);
    }

    #[test]
    fn succinct_directory_lookup() {
        let inner = CompressedDirectory::new(8, &[(3, 10), (200, 5)]);
        let dir = SuccinctNodeDirectory::new(inner);
        let mut t = NullTracker;
        // Hash whose low 8 bits are 3.
        assert_eq!(dir.lookup(0xAB03, &mut t), Some((0, 10)));
        assert_eq!(dir.lookup(0xC8, &mut t), Some((10, 15))); // 0xC8 = 200
        assert_eq!(dir.lookup(0x04, &mut t), None);
    }
}
