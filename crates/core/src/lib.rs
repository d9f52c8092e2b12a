//! # broadmatch — the ICDE 2009 sponsored-search index
//!
//! This crate implements the primary contribution of A. C. König, K. Church
//! and M. Markov, *"A Data Structure for Sponsored Search"* (ICDE 2009): an
//! in-memory index answering **broad-match** queries over a corpus of
//! advertisement bid phrases.
//!
//! ## Broad match
//!
//! Given a search query `Q` (a set of words), return every advertisement `A`
//! with `words(A) ⊆ Q` — the *reverse* of classical IR containment, which is
//! why inverted files serve it poorly (Sections I, VII-A; the baselines live
//! in the `broadmatch-invidx` crate).
//!
//! ## The structure
//!
//! * Every distinct word set in the corpus maps through [`wordhash`] to a
//!   **data node** holding all phrases sharing that set plus their metadata,
//!   ordered by phrase word count so scans terminate early (Section III-B).
//! * A query enumerates the subsets of its words (at most
//!   `Σ C(|Q|, i), i ≤ max_words` after re-mapping of long phrases —
//!   Section IV-B) and probes a node directory for each.
//! * **Re-mapping** moves ads to nodes keyed by *subsets* of their words,
//!   trading random accesses for sequential scans under the
//!   `broadmatch-memcost` cost model; the optimal mapping reduces to
//!   weighted set cover (Section V), solved greedily in
//!   `broadmatch-setcover`.
//! * The directory is either an open-addressing hash table or the
//!   compressed rank/select structure of Section VI
//!   (`broadmatch-succinct`).
//!
//! ## Quick start
//!
//! ```
//! use broadmatch::{AdInfo, IndexBuilder, MatchType};
//!
//! let mut builder = IndexBuilder::new();
//! builder.add("used books", AdInfo::with_bid(1, 120));
//! builder.add("cheap used books", AdInfo::with_bid(2, 95));
//! builder.add("comic books", AdInfo::with_bid(3, 200));
//! let index = builder.build().unwrap();
//!
//! // Broad match: every bid whose words all appear in the query.
//! let hits = index.query("cheap used books online", MatchType::Broad);
//! let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
//! ids.sort_unstable();
//! assert_eq!(ids, vec![1, 2]);
//!
//! // "books" alone matches nothing: every bid has extra words.
//! assert!(index.query("books", MatchType::Broad).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod build;
mod compress;
mod costmodel;
mod delta;
mod directory;
mod error;
mod hash;
mod index;
mod node;
mod optimize;
mod persist;
mod stats;
mod telemetry;
mod text;
mod types;
mod vocab;
mod wordset;
mod workload;

pub use build::{DirectoryKind, IndexBuilder, IndexConfig, RemapMode};
pub use costmodel::{CostBreakdown, MappingCost};
pub use delta::DeltaOverlay;
pub use error::BuildError;
pub use hash::{wordhash, FxBuildHasher, FxHasher};
pub use index::{
    BroadMatchIndex, IndexStats, MatchHit, MatchType, ProbeBatch, QueryPlan, QueryStats,
    ScannedNode,
};
pub use node::{SITE_EARLY_TERM, SITE_ENTRY_MATCH, SITE_PROBE};
pub use optimize::{Mapping, MappingStats};
pub use persist::PersistError;
pub use stats::CorpusStats;
pub use telemetry::{probe_trace_stats, OverlayCounters, QueryCounters};
pub use text::{fold_duplicates, tokenize, FoldedToken};
pub use types::{AdId, AdInfo, WordId};
pub use vocab::Vocabulary;
pub use wordset::{subset_count, SubsetIter, WordSet};
pub use workload::{QueryWorkload, WeightedQuery};
