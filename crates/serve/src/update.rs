//! The serving-side update pipeline (Section VI at serve scale).
//!
//! Mutations never touch the published base index. Instead,
//! [`crate::ServeRuntime::insert`] / [`crate::ServeRuntime::remove`] clone
//! the current (small) [`DeltaOverlay`], apply the change, and republish
//! the same base with the new overlay through the ArcSwap snapshot path —
//! readers stay lock-free and see each update atomically. Writers are
//! serialized by one update mutex, which also guards the **op log**: every
//! effective mutation since the runtime started, appended in commit order.
//! An op's sequence number is its 1-based position in the log, assigned
//! under the same lock that commits it, so the log order *is* the commit
//! order. Replicas ship the log from [`crate::ServeRuntime::log_since`]
//! and replay it over the base the runtime started from.
//!
//! A background **compaction worker** ([`spawn_compactor`], started by
//! [`crate::ServeRuntime::start_maintained`]) watches overlay-size and
//! dead-bytes thresholds ([`UpdateConfig`]). When one trips, [`compact`]
//! folds the overlay into a rebuilt base — re-running the greedy set-cover
//! re-mapping and reclaiming the tombstoned bytes — *without holding the
//! update lock*; mutations that race the rebuild are logged past the fold's
//! cut and replayed onto a fresh overlay against the new base before the
//! swap, so no update is ever lost and readers never block. Neither a fold
//! nor a [`crate::ServeRuntime::publish`] truncates the log.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use broadmatch::{AdInfo, BuildError, DeltaOverlay};

use crate::poison;
use crate::runtime::{Generation, Inner};

/// Thresholds and cadence of the background compaction worker.
#[derive(Debug, Clone)]
pub struct UpdateConfig {
    /// Fold when the overlay holds at least this many live inserts.
    pub max_overlay_ads: usize,
    /// Fold when tombstones keep at least this many arena bytes dead.
    pub max_dead_bytes: usize,
    /// How often the worker re-checks the thresholds.
    pub check_interval: Duration,
    /// Workload handed to the set-cover re-optimizer on every fold (`None`
    /// keeps the builder's default mapping heuristics).
    pub workload: Option<Vec<(String, u64)>>,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            max_overlay_ads: 4096,
            max_dead_bytes: 1 << 20,
            check_interval: Duration::from_millis(50),
            workload: None,
        }
    }
}

/// One logged mutation: an entry of the runtime's op log, replayed onto
/// the rebuilt base when a compaction races with concurrent updates and
/// shipped to replicas in commit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// An overlay insert.
    Insert {
        /// Bid phrase.
        phrase: String,
        /// Ad metadata.
        info: AdInfo,
    },
    /// A query-shaped delete that removed at least one ad.
    Remove {
        /// Bid phrase.
        phrase: String,
        /// Listing to remove.
        listing_id: u64,
    },
}

/// Fold the current overlay into a rebuilt base and republish.
///
/// Protocol: under the update lock, note the op-log cut and the generation
/// to fold; release the lock and rebuild offline (the expensive set-cover
/// re-mapping runs with no locks held); retake the lock, replay the ops
/// logged after the cut onto a fresh overlay against the new base, and
/// swap. If another base swap (an external [`crate::ServeRuntime::publish`]
/// or a concurrent compaction) landed mid-fold, the stale fold is dropped
/// and the whole protocol retried against the fresh state — so on return
/// the overlay observed at *some* cut after the call began has been
/// folded. Returns the published version, or `None` when the overlay was
/// already empty.
///
/// # Errors
/// Propagates rebuild failures; the overlay is left untouched.
pub(crate) fn compact(
    inner: &Inner,
    workload: Option<Vec<(String, u64)>>,
) -> Result<Option<u64>, BuildError> {
    loop {
        let t0 = Instant::now();
        let (cut, base_gen) = {
            let log = poison::lock(&inner.log);
            (log.len(), inner.snapshot.load())
        };
        if base_gen.overlay.is_empty() {
            return Ok(None);
        }
        let folded = Arc::new(base_gen.overlay.fold(&base_gen.index, workload.clone())?);
        let folded_ads = folded.stats().ads;

        let log = poison::lock(&inner.log);
        let current = inner.snapshot.load();
        if current.base_epoch != base_gen.base_epoch {
            continue; // base swapped under the fold: re-cut and try again
        }
        let mut overlay = DeltaOverlay::for_base(&folded);
        for op in &log[cut..] {
            match op {
                UpdateOp::Insert { phrase, info } => {
                    let _ = overlay.insert(phrase, *info); // validated when first applied
                }
                UpdateOp::Remove { phrase, listing_id } => {
                    overlay.remove(&folded, phrase, *listing_id);
                }
            }
        }
        // ORDER: SeqCst — the version counter and the snapshot store below
        // form the publish point other threads read via ArcSwap; keeping
        // every publish-path atomic in the single SeqCst total order is the
        // model-checked configuration (see tests/conccheck_models.rs).
        let version = inner.version.fetch_add(1, SeqCst) + 1;
        inner.handles.overlay.set_overlay_state(&overlay);
        inner.snapshot.store(Arc::new(Generation {
            index: folded,
            overlay: Arc::new(overlay),
            version,
            base_epoch: current.base_epoch + 1,
        }));
        *poison::lock(&inner.published_at) = Instant::now();
        inner.handles.snapshot_version.set(version as f64);
        inner
            .handles
            .overlay
            .record_compaction(t0.elapsed(), folded_ads);
        return Ok(Some(version));
    }
}

/// Shared stop flag for the compaction worker.
pub(crate) type StopSignal = (Mutex<bool>, Condvar);

/// Spawn the background compaction worker: every `check_interval` it
/// compares the live overlay against the thresholds and folds when one is
/// exceeded. Signal the returned thread through the stop flag (set `true`,
/// notify) and join it to shut down.
pub(crate) fn spawn_compactor(
    inner: Arc<Inner>,
    cfg: UpdateConfig,
    stop: Arc<StopSignal>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-compactor".into())
        .spawn(move || {
            let (lock, cv) = &*stop;
            let mut stopped = poison::lock(lock);
            loop {
                let (guard, _timeout) = poison::wait_timeout(cv, stopped, cfg.check_interval);
                stopped = guard;
                if *stopped {
                    return;
                }
                let generation = inner.snapshot.load();
                let due = generation.overlay.ads() >= cfg.max_overlay_ads
                    || generation.overlay.dead_bytes() >= cfg.max_dead_bytes;
                drop(stopped);
                if due {
                    // A failure here would equally fail a foreground
                    // reoptimize; keep serving from the overlay and retry
                    // on the next tick.
                    let _ = compact(&inner, cfg.workload.clone());
                }
                stopped = poison::lock(lock);
            }
        })
        // lint: allow(panic) — inability to spawn the maintenance thread at
        // startup is a fatal configuration error, not a serving-time state.
        .expect("spawn compactor")
}
