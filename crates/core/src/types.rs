//! Identifier and metadata types shared across the index.

/// Interned word identifier assigned by a [`crate::Vocabulary`].
///
/// Folded duplicate tokens (see [`crate::fold_duplicates`]) get their own
/// ids, distinct from the base word's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WordId(pub u32);

impl WordId {
    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Identifier of one advertisement within an index (dense, assigned at
/// build/insert time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AdId(pub u32);

impl AdId {
    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Advertisement metadata — the paper's `info(A_i)`.
///
/// The paper stores per-ad metadata (listing id, campaign id, bid price,
/// competitive-exclusion data, …) inside the data node, or a pointer to it
/// when shared. We inline the fields that the evaluation's secondary
/// filtering needs; their serialized size is what the cost model's
/// `size(info(A_i))` measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AdInfo {
    /// Listing identifier (external key chosen by the caller).
    pub listing_id: u64,
    /// Campaign grouping; ads of one campaign are often mutually exclusive
    /// on a result page.
    pub campaign_id: u32,
    /// Bid in micro-currency units (the auction's ranking input).
    pub bid_micros: u64,
}

impl AdInfo {
    /// Metadata with just a listing id and a bid in whole cents.
    pub fn with_bid(listing_id: u64, bid_cents: u32) -> Self {
        AdInfo {
            listing_id,
            campaign_id: 0,
            bid_micros: bid_cents as u64 * 10_000,
        }
    }

    /// Serialized size in bytes inside a data node (`size(info(A_i))`).
    pub const ENCODED_BYTES: usize = 8 + 4 + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_bid_converts_cents() {
        let info = AdInfo::with_bid(42, 150);
        assert_eq!(info.listing_id, 42);
        assert_eq!(info.bid_micros, 1_500_000);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(WordId(1) < WordId(2));
        assert!(AdId(9) > AdId(3));
        assert_eq!(WordId(7).raw(), 7);
        assert_eq!(AdId(7).raw(), 7);
    }
}
