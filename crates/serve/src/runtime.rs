//! The serving runtime: each query runs whole on the calling thread
//! against the currently published snapshot, behind one admission gate.
//!
//! The paper's index server (§VII-B) answers a query with no parallelism
//! inside it, and every caller of this runtime blocks on its answer, so a
//! query is planned, executed, finished and merged with the delta overlay
//! on the thread that asked. What the runtime adds is bounded admission:
//! at most `n_workers` queries execute at once, at most `queue_capacity`
//! more wait for a slot, and past that a caller is refused at once with a
//! retry-after hint instead of joining an unbounded backlog. An index swap
//! while a query runs is invisible to it — it keeps the snapshot it loaded
//! when admitted.
//!
//! All counters and histograms live in a `broadmatch-telemetry`
//! [`Registry`] owned by the runtime: one set of `serve_*` and
//! `broadmatch_*` metric families instead of parallel hand-rolled stats
//! structs, rendered to Prometheus text by [`ServeRuntime::prometheus`].
//! A sampling [`Tracer`] records per-query span traces (wait, plan,
//! execute, finish, overlay) with probe-level statistics.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use broadmatch::{
    probe_trace_stats, AdId, AdInfo, BroadMatchIndex, BuildError, DeltaOverlay, MatchHit,
    MatchType, OverlayCounters, QueryCounters, QueryStats,
};
use broadmatch_telemetry::{
    Counter, Gauge, Histogram, LatencyHistogram, Registry, Tracer, DEFAULT_SAMPLE_EVERY,
};

use crate::arcswap::ArcSwap;
use crate::poison;
use crate::update::{self, StopSignal, UpdateConfig, UpdateOp};

/// Runtime sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// No effect; kept only so existing initializers still compile.
    #[deprecated(note = "no effect; removed when servebench is next redefined")]
    pub n_shards: usize,
    /// Queries allowed to execute at once.
    pub n_workers: usize,
    /// Callers allowed to wait for an execution slot; one more is refused
    /// at admission.
    pub queue_capacity: usize,
    /// Span-trace one in this many queries (0 disables tracing).
    pub trace_sample_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        #[allow(deprecated)]
        ServeConfig {
            n_shards: 4,
            n_workers: 4,
            queue_capacity: 1024,
            trace_sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// A successful query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Matching ads, bit-identical to single-threaded execution.
    pub hits: Vec<MatchHit>,
    /// Processing statistics, likewise identical.
    pub stats: QueryStats,
    /// Version of the snapshot that served this query.
    pub version: u64,
}

/// Why the runtime refused a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: every execution slot is busy and the wait line
    /// is full. Retry after the hint — roughly the time for the callers
    /// ahead of you to drain.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A point-in-time copy of the runtime's counters and histograms,
/// assembled from the telemetry registry.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Queries admitted and completed.
    pub accepted: u64,
    /// Queries refused by admission control.
    pub rejected: u64,
    /// Currently published snapshot version.
    pub version: u64,
    /// End-to-end query latency (arrival → answer, wait included).
    pub query_latency: LatencyHistogram,
    /// Execution latency (admission → finish, wait excluded): the service
    /// time behind retry-after hints. Rejected queries record nothing.
    pub exec_latency: LatencyHistogram,
    /// Compactions completed (overlay folds into a rebuilt base).
    pub compactions: u64,
    /// Live inserts in the current delta overlay.
    pub overlay_ads: usize,
    /// Tombstoned base ads in the current delta overlay.
    pub overlay_tombstones: usize,
    /// Arena bytes kept dead by those tombstones, reclaimed at the next
    /// compaction.
    pub overlay_dead_bytes: usize,
}

/// One published snapshot generation: the immutable base plus the delta
/// overlay of updates applied since that base was built. Readers consult
/// the overlay after the base, so results match a fresh rebuild.
#[derive(Debug)]
pub(crate) struct Generation {
    pub(crate) index: Arc<BroadMatchIndex>,
    pub(crate) overlay: Arc<DeltaOverlay>,
    pub(crate) version: u64,
    /// Bumped whenever the *base* index changes (publish or compaction);
    /// overlay-only republishes keep it. Lets a compaction detect that the
    /// base it folded was swapped out from under it.
    pub(crate) base_epoch: u64,
}

/// Admission control: at most `n_workers` queries run at once and at most
/// `queue_capacity` callers wait for a slot; anyone past that is refused.
/// Modeled in `tests/conccheck_models.rs` (admission gate).
struct Gate {
    /// `(running, waiting)` callers.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    n_workers: usize,
    queue_capacity: usize,
}

/// An execution slot; dropping it frees the slot and wakes one waiter.
struct Slot<'a>(&'a Gate);

impl Gate {
    /// Take a slot, waiting for one while the wait line has room. On
    /// refusal returns how many callers were already waiting.
    fn admit(&self) -> Result<Slot<'_>, usize> {
        let mut st = poison::lock(&self.state);
        if st.0 >= self.n_workers {
            if st.1 >= self.queue_capacity {
                return Err(st.1);
            }
            st.1 += 1;
            while st.0 >= self.n_workers {
                st = poison::wait(&self.freed, st);
            }
            st.1 -= 1;
        }
        st.0 += 1;
        Ok(Slot(self))
    }

    /// Callers currently waiting for a slot.
    fn waiting(&self) -> usize {
        poison::lock(&self.state).1
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        poison::lock(&self.0.state).0 -= 1;
        self.0.freed.notify_one();
    }
}

/// Pre-registered handles into the runtime's registry: the hot path pays
/// one atomic (or one short histogram lock), never a registry lookup.
pub(crate) struct Handles {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    query_latency: Arc<Histogram>,
    exec_latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    publish_ms: Arc<Histogram>,
    pub(crate) snapshot_version: Arc<Gauge>,
    snapshot_age_seconds: Arc<Gauge>,
    query_counters: QueryCounters,
    pub(crate) overlay: OverlayCounters,
}

impl Handles {
    fn register(registry: &Registry) -> Self {
        Handles {
            accepted: registry.counter(
                "serve_queries_accepted_total",
                "Queries admitted and completed",
                &[],
            ),
            rejected: registry.counter(
                "serve_queries_rejected_total",
                "Queries refused by admission control",
                &[],
            ),
            query_latency: registry.histogram(
                "serve_query_latency_ms",
                "End-to-end query latency (arrival to answer)",
                &[],
            ),
            exec_latency: registry.histogram(
                "serve_exec_latency_ms",
                "Query execution latency (admission to finish)",
                &[],
            ),
            queue_depth: registry.gauge(
                "serve_queue_depth",
                "Callers waiting for an execution slot",
                &[],
            ),
            publish_ms: registry.histogram(
                "serve_publish_duration_ms",
                "Duration of snapshot publishes (atomic swap)",
                &[],
            ),
            snapshot_version: registry.gauge(
                "serve_snapshot_version",
                "Currently published snapshot version",
                &[],
            ),
            snapshot_age_seconds: registry.gauge(
                "serve_snapshot_age_seconds",
                "Seconds since the current snapshot was published",
                &[],
            ),
            query_counters: QueryCounters::register(registry),
            overlay: OverlayCounters::register(registry),
        }
    }
}

/// Shared state between the runtime handle and the background compaction
/// worker.
pub(crate) struct Inner {
    pub(crate) snapshot: ArcSwap<Generation>,
    gate: Gate,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    pub(crate) handles: Handles,
    pub(crate) version: AtomicU64,
    pub(crate) published_at: Mutex<Instant>,
    /// The op log: every effective mutation in commit order. Its mutex is
    /// the update lock — it serializes all mutations and base swaps, and
    /// an op's 1-based position is its sequence number. Readers never
    /// take it.
    pub(crate) log: Mutex<Vec<UpdateOp>>,
}

/// The serving runtime. Queries are safe to submit from any number of
/// threads; [`ServeRuntime::publish`] swaps the index underneath them
/// without blocking reads. Dropping the runtime stops and joins the
/// compaction worker, the only thread it owns.
pub struct ServeRuntime {
    inner: Arc<Inner>,
    config: ServeConfig,
    update_config: Option<UpdateConfig>,
    compactor: Option<std::thread::JoinHandle<()>>,
    compactor_stop: Option<Arc<StopSignal>>,
}

impl ServeRuntime {
    /// Start a runtime serving `index`, with a private metric registry.
    pub fn start(index: Arc<BroadMatchIndex>, config: ServeConfig) -> Self {
        ServeRuntime::start_with_registry(index, config, Arc::new(Registry::new()))
    }

    /// Start a runtime recording its metrics into `registry` (share one
    /// registry across runtimes, or pass `Registry::global()`-backed
    /// arcs from embedding applications).
    pub fn start_with_registry(
        index: Arc<BroadMatchIndex>,
        config: ServeConfig,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(config.n_workers > 0, "need at least one worker");
        let handles = Handles::register(&registry);
        handles.snapshot_version.set(1.0);
        let overlay = DeltaOverlay::for_base(&index);
        let inner = Arc::new(Inner {
            snapshot: ArcSwap::new(Arc::new(Generation {
                index,
                overlay: Arc::new(overlay),
                version: 1,
                base_epoch: 1,
            })),
            gate: Gate {
                state: Mutex::new((0, 0)),
                freed: Condvar::new(),
                n_workers: config.n_workers,
                queue_capacity: config.queue_capacity,
            },
            registry,
            tracer: Arc::new(Tracer::new(
                config.trace_sample_every,
                broadmatch_telemetry::DEFAULT_RING_CAP,
            )),
            handles,
            version: AtomicU64::new(1),
            published_at: Mutex::new(Instant::now()),
            log: Mutex::new(Vec::new()),
        });
        ServeRuntime {
            inner,
            config,
            update_config: None,
            compactor: None,
            compactor_stop: None,
        }
    }

    /// Start with the default configuration.
    pub fn with_defaults(index: Arc<BroadMatchIndex>) -> Self {
        ServeRuntime::start(index, ServeConfig::default())
    }

    /// Start a runtime with online maintenance: [`ServeRuntime::insert`]
    /// and [`ServeRuntime::remove`] mutate through the delta overlay, and a
    /// background worker folds the overlay into a rebuilt base whenever the
    /// `update` thresholds trip.
    pub fn start_maintained(
        index: Arc<BroadMatchIndex>,
        config: ServeConfig,
        update: UpdateConfig,
    ) -> Self {
        let mut runtime = ServeRuntime::start(index, config);
        let stop = Arc::new(StopSignal::default());
        runtime.compactor = Some(update::spawn_compactor(
            Arc::clone(&runtime.inner),
            update.clone(),
            Arc::clone(&stop),
        ));
        runtime.compactor_stop = Some(stop);
        runtime.update_config = Some(update);
        runtime
    }

    /// The runtime configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The metric registry this runtime records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// The sampling span tracer (drain recent traces with
    /// [`Tracer::recent`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    /// Run a query on the calling thread once admission grants a slot:
    /// plan, execute every probe, finish, then merge the delta overlay.
    /// Returns results bit-identical to running the same query
    /// single-threaded against the snapshot current at admission.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when every slot is busy and the wait
    /// line is full.
    pub fn query(
        &self,
        query_text: &str,
        match_type: MatchType,
    ) -> Result<QueryResponse, ServeError> {
        let t0 = Instant::now();
        let h = &self.inner.handles;
        let trace = self.inner.tracer.maybe_trace();
        let admitted = {
            let _span = trace.as_ref().map(|t| t.span("wait"));
            self.inner.gate.admit()
        };
        let _slot = match admitted {
            Ok(slot) => slot,
            Err(waiting) => {
                h.rejected.inc();
                return Err(ServeError::Overloaded {
                    retry_after: self.retry_after(waiting),
                });
            }
        };
        let t_exec = Instant::now();
        let snapshot = self.inner.snapshot.load();
        let index = &snapshot.index;
        let plan = {
            let _span = trace.as_ref().map(|t| t.span("plan"));
            index.plan_query(query_text, match_type)
        };
        // No plan means the base cannot match; the overlay still may, as
        // it knows words the base vocabulary has never seen.
        let (mut hits, mut stats) = match plan {
            Some(plan) => {
                let batch = {
                    let _span = trace.as_ref().map(|t| t.span("execute"));
                    index.execute_probes(&plan, 0..plan.probe_count())
                };
                let _span = trace.as_ref().map(|t| t.span("finish"));
                index.finish_query(&plan, [batch])
            }
            None => (Vec::new(), QueryStats::default()),
        };
        if !snapshot.overlay.is_empty() {
            let _span = trace.as_ref().map(|t| t.span("overlay"));
            stats.tombstone_hits = snapshot.overlay.filter_tombstones(&mut hits);
            stats.overlay_hits = snapshot.overlay.consult(query_text, match_type, &mut hits);
            stats.hits = hits.len();
        }
        h.exec_latency.record(t_exec.elapsed().as_secs_f64() * 1e3);
        h.accepted.inc();
        h.query_counters.record(&stats);
        h.query_latency.record(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(t) = trace {
            self.inner.tracer.finish(t, probe_trace_stats(&stats));
        }
        Ok(QueryResponse {
            hits,
            stats,
            version: snapshot.version,
        })
    }

    /// Atomically publish a new index. In-flight and future queries each
    /// see exactly one snapshot; none block, none see a partial swap.
    /// Any pending delta overlay is discarded — the new index is the new
    /// source of truth. The op log is kept: it still records, in order,
    /// every mutation since the runtime started.
    /// Returns the new version number.
    pub fn publish(&self, index: Arc<BroadMatchIndex>) -> u64 {
        let t0 = Instant::now();
        let log = poison::lock(&self.inner.log);
        let base_epoch = self.inner.snapshot.load().base_epoch + 1;
        let overlay = DeltaOverlay::for_base(&index);
        self.inner.handles.overlay.set_overlay_state(&overlay);
        // ORDER: SeqCst — version bump and snapshot store form the publish
        // point; one total order across publish/read is the model-checked
        // configuration (serve/tests/conccheck_models.rs, republish model).
        let version = self.inner.version.fetch_add(1, SeqCst) + 1;
        self.inner.snapshot.store(Arc::new(Generation {
            index,
            overlay: Arc::new(overlay),
            version,
            base_epoch,
        }));
        drop(log);
        *poison::lock(&self.inner.published_at) = Instant::now();
        self.inner.handles.snapshot_version.set(version as f64);
        self.inner
            .handles
            .publish_ms
            .record(t0.elapsed().as_secs_f64() * 1e3);
        version
    }

    /// Insert a new ad phrase. The mutation lands in the delta overlay and
    /// republishes immediately (same base, new overlay): every query
    /// submitted after this returns sees the ad. Returns its id.
    ///
    /// # Errors
    /// [`BuildError::EmptyPhrase`] / [`BuildError::PhraseTooLong`] when the
    /// phrase fails the same validation the offline builder applies.
    pub fn insert(&self, phrase: &str, info: AdInfo) -> Result<AdId, BuildError> {
        let mut log = poison::lock(&self.inner.log);
        let snapshot = self.inner.snapshot.load();
        let mut overlay = (*snapshot.overlay).clone();
        let id = overlay.insert(phrase, info)?;
        log.push(UpdateOp::Insert {
            phrase: phrase.to_string(),
            info,
        });
        self.inner.handles.overlay.inserts.inc();
        self.publish_overlay(&snapshot, overlay);
        Ok(id)
    }

    /// Remove every ad with this exact phrase and listing id — the paper's
    /// query-shaped delete. Overlay inserts are dropped outright; base ads
    /// are tombstoned (hidden from queries, bytes reclaimed at the next
    /// compaction). Returns how many ads were removed.
    pub fn remove(&self, phrase: &str, listing_id: u64) -> usize {
        let mut log = poison::lock(&self.inner.log);
        let snapshot = self.inner.snapshot.load();
        let mut overlay = (*snapshot.overlay).clone();
        let removed = overlay.remove(&snapshot.index, phrase, listing_id);
        if removed == 0 {
            return 0; // nothing changed; skip the republish and the log
        }
        log.push(UpdateOp::Remove {
            phrase: phrase.to_string(),
            listing_id,
        });
        self.inner.handles.overlay.removes.inc();
        self.publish_overlay(&snapshot, overlay);
        removed
    }

    /// Republish `base`'s generation with a new overlay (base unchanged,
    /// so the epoch carries over). Caller holds the update lock.
    fn publish_overlay(&self, base: &Generation, overlay: DeltaOverlay) -> u64 {
        // ORDER: SeqCst — same publish point as publish(); see above.
        let version = self.inner.version.fetch_add(1, SeqCst) + 1;
        self.inner.handles.overlay.set_overlay_state(&overlay);
        self.inner.snapshot.store(Arc::new(Generation {
            index: Arc::clone(&base.index),
            overlay: Arc::new(overlay),
            version,
            base_epoch: base.base_epoch,
        }));
        self.inner.handles.snapshot_version.set(version as f64);
        version
    }

    /// Fold the current overlay into a rebuilt base right now, without
    /// waiting for the background worker's thresholds. If the fold races a
    /// concurrent base swap it is retried, so on return the pending
    /// overlay has been folded (or discarded by an intervening
    /// [`ServeRuntime::publish`]). Returns the new version, or `None` when
    /// there was nothing to fold.
    ///
    /// # Errors
    /// Propagates index-rebuild failures; serving state is unchanged.
    pub fn compact_now(&self) -> Result<Option<u64>, BuildError> {
        update::compact(
            &self.inner,
            self.update_config.as_ref().and_then(|c| c.workload.clone()),
        )
    }

    /// The currently published snapshot and its version.
    pub fn current(&self) -> (Arc<BroadMatchIndex>, u64) {
        let snapshot = self.inner.snapshot.load();
        (Arc::clone(&snapshot.index), snapshot.version)
    }

    /// The base epoch of the currently published snapshot. Bumped whenever
    /// the *base* index changes (an external publish or a compaction fold);
    /// overlay-only republishes keep it. The op log does not depend on it:
    /// a fold changes the base's representation, not its answers, and the
    /// log is never truncated.
    pub fn base_epoch(&self) -> u64 {
        self.inner.snapshot.load().base_epoch
    }

    /// Sequence number of the newest logged mutation: the number of
    /// effective inserts and removes since the runtime started (0 when
    /// none). Folds and publishes leave it unchanged.
    pub fn log_head(&self) -> u64 {
        poison::lock(&self.inner.log).len() as u64
    }

    /// Up to `max_ops` logged mutations with sequence `> from_seq`, in
    /// commit order, plus the sequence of the last op returned and the
    /// current head. A `from_seq` past the head clamps to it (empty batch).
    ///
    /// The log is relative to the base the runtime started from: replaying
    /// it from sequence 0 over that base, through [`ServeRuntime::insert`]
    /// and [`ServeRuntime::remove`], reproduces this runtime's answers —
    /// unless [`ServeRuntime::publish`] has since replaced the base.
    pub fn log_since(&self, from_seq: u64, max_ops: usize) -> (Vec<UpdateOp>, u64, u64) {
        let log = poison::lock(&self.inner.log);
        let head = log.len() as u64;
        let start = from_seq.min(head) as usize;
        let end = start.saturating_add(max_ops).min(log.len());
        (log[start..end].to_vec(), end as u64, head)
    }

    /// Copy out counters and histograms (assembled from the registry).
    pub fn metrics(&self) -> ServeMetrics {
        let h = &self.inner.handles;
        let snapshot = self.inner.snapshot.load();
        ServeMetrics {
            accepted: h.accepted.get(),
            rejected: h.rejected.get(),
            // ORDER: SeqCst — reads the publish-point counter; see publish().
            version: self.inner.version.load(SeqCst),
            query_latency: h.query_latency.snapshot(),
            exec_latency: h.exec_latency.snapshot(),
            compactions: h.overlay.compactions.get(),
            overlay_ads: snapshot.overlay.ads(),
            overlay_tombstones: snapshot.overlay.tombstone_count(),
            overlay_dead_bytes: snapshot.overlay.dead_bytes(),
        }
    }

    /// Render every metric in Prometheus text exposition format, after
    /// refreshing the point-in-time gauges (wait-line depth, snapshot
    /// age).
    pub fn prometheus(&self) -> String {
        let h = &self.inner.handles;
        h.queue_depth.set(self.inner.gate.waiting() as f64);
        let age = poison::lock(&self.inner.published_at).elapsed();
        h.snapshot_age_seconds.set(age.as_secs_f64());
        h.overlay
            .set_overlay_state(&self.inner.snapshot.load().overlay);
        self.inner.registry.render_prometheus()
    }

    /// Backoff hint for a query refused while `waiting` callers queue:
    /// roughly the time for them and this caller to drain through
    /// `n_workers` slots at the observed mean execution time.
    fn retry_after(&self, waiting: usize) -> Duration {
        let mean_ms = self.inner.handles.exec_latency.mean_ms();
        // Before any query is measured the hint still must not be zero.
        let per_query_ms = if mean_ms > 0.0 { mean_ms } else { 0.05 };
        let ms = (waiting + 1) as f64 * per_query_ms / self.config.n_workers as f64;
        Duration::from_secs_f64(ms / 1e3)
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        if let Some(stop) = self.compactor_stop.take() {
            let (lock, cv) = &*stop;
            *poison::lock(lock) = true;
            cv.notify_all();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
    }
}

impl std::fmt::Debug for ServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime")
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch::{AdInfo, IndexBuilder};

    fn sample() -> Arc<BroadMatchIndex> {
        let mut b = IndexBuilder::new();
        b.add("used books", AdInfo::with_bid(1, 10)).unwrap();
        b.add("cheap used books", AdInfo::with_bid(2, 20)).unwrap();
        b.add("books", AdInfo::with_bid(3, 30)).unwrap();
        b.add("talk talk", AdInfo::with_bid(4, 40)).unwrap();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn pool_results_match_single_threaded() {
        let index = sample();
        let queries = [
            ("cheap used books online", MatchType::Broad),
            ("used books", MatchType::Exact),
            ("buy used books now", MatchType::Phrase),
            ("talk talk talk", MatchType::Phrase),
            ("zzz unknown", MatchType::Broad),
        ];
        for workers in [1, 2, 4] {
            let runtime = ServeRuntime::start(
                index.clone(),
                ServeConfig {
                    n_workers: workers,
                    ..ServeConfig::default()
                },
            );
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let (runtime, index) = (&runtime, &index);
                    s.spawn(move || {
                        for _ in 0..25 {
                            for (q, mt) in queries {
                                let (want_hits, want_stats) = index.query_with_stats(q, mt);
                                let resp = runtime.query(q, mt).expect("admitted");
                                assert_eq!(resp.hits, want_hits, "{q} on {workers} workers");
                                assert_eq!(resp.stats, want_stats, "{q} on {workers} workers");
                                assert_eq!(resp.version, 1);
                            }
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn publish_bumps_version_and_changes_results() {
        let runtime = ServeRuntime::with_defaults(sample());
        assert_eq!(runtime.query("books", MatchType::Broad).unwrap().version, 1);

        let mut b = IndexBuilder::new();
        b.add("fresh books", AdInfo::with_bid(9, 90)).unwrap();
        let v2 = runtime.publish(Arc::new(b.build().unwrap()));
        assert_eq!(v2, 2);

        let resp = runtime
            .query("fresh books today", MatchType::Broad)
            .unwrap();
        assert_eq!(resp.version, 2);
        assert_eq!(resp.hits.len(), 1);
        assert_eq!(resp.hits[0].info.listing_id, 9);
        // The old corpus is gone.
        assert!(runtime
            .query("used books", MatchType::Exact)
            .unwrap()
            .hits
            .is_empty());
    }

    #[test]
    fn admission_control_rejects_when_saturated() {
        // One execution slot and room for one waiter, hammered by eight
        // concurrent submitters: every attempt is either answered
        // correctly or refused with a non-zero retry hint.
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let rejected = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let runtime = &runtime;
                let rejected = &rejected;
                s.spawn(move || {
                    for _ in 0..200 {
                        match runtime.query("cheap used books online", MatchType::Broad) {
                            Ok(resp) => assert_eq!(resp.hits.len(), 3),
                            Err(ServeError::Overloaded { retry_after }) => {
                                assert!(retry_after > Duration::ZERO);
                                rejected.fetch_add(1, SeqCst);
                            }
                        }
                    }
                });
            }
        });
        let metrics = runtime.metrics();
        assert_eq!(metrics.rejected, rejected.load(SeqCst));
        assert!(metrics.accepted + metrics.rejected == 1600);
    }

    #[test]
    fn gate_waits_for_a_slot_then_refuses_past_capacity() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_workers: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        let held = runtime.inner.gate.admit().expect("free slot");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| runtime.query("cheap used books online", MatchType::Broad));
            let deadline = Instant::now() + Duration::from_secs(10);
            while runtime.inner.gate.waiting() == 0 {
                assert!(Instant::now() < deadline, "caller never queued");
                std::thread::yield_now();
            }
            assert!(runtime.prometheus().contains("serve_queue_depth 1\n"));
            // The wait line is full: the next caller is refused at once,
            // with a hint covering itself and the one caller ahead.
            let Err(ServeError::Overloaded { retry_after }) =
                runtime.query("books", MatchType::Broad)
            else {
                panic!("admitted past a full wait line");
            };
            assert_eq!(retry_after, Duration::from_micros(100));
            drop(held);
            let resp = waiter
                .join()
                .unwrap()
                .expect("admitted once the slot freed");
            assert_eq!(resp.hits.len(), 3);
        });
        let m = runtime.metrics();
        assert_eq!((m.accepted, m.rejected), (1, 1));
        assert_eq!(runtime.inner.gate.waiting(), 0);
    }

    #[test]
    fn rejected_query_records_no_exec_latency() {
        // A refused query did no work: it must not add a ~0 ms sample to
        // the execution histogram whose mean prices the retry-after hints,
        // or the hints would collapse exactly when admission fires.
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_workers: 1,
                queue_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let held = runtime.inner.gate.admit().expect("free slot");
        assert!(runtime
            .query("cheap used books online", MatchType::Broad)
            .is_err());
        let m = runtime.metrics();
        assert_eq!((m.accepted, m.rejected), (0, 1));
        assert_eq!(m.exec_latency.total(), 0, "no service-time sample");
        assert_eq!(m.query_latency.total(), 0);

        drop(held);
        runtime
            .query("cheap used books online", MatchType::Broad)
            .expect("slot free again");
        let m = runtime.metrics();
        assert_eq!(m.exec_latency.total(), 1);
        assert!(runtime
            .prometheus()
            .contains("serve_queries_rejected_total 1\n"));
    }

    #[test]
    fn metrics_track_work() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_workers: 2,
                ..ServeConfig::default()
            },
        );
        for _ in 0..50 {
            runtime
                .query("cheap used books online", MatchType::Broad)
                .unwrap();
        }
        let m = runtime.metrics();
        assert_eq!(m.accepted, 50);
        assert_eq!(m.version, 1);
        assert_eq!(m.query_latency.total(), 50);
        // Every admitted query was measured.
        assert_eq!(m.exec_latency.total(), m.accepted);
    }

    #[test]
    fn prometheus_exposition_covers_live_queries() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_workers: 2,
                trace_sample_every: 4,
                ..ServeConfig::default()
            },
        );
        for _ in 0..20 {
            runtime
                .query("cheap used books online", MatchType::Broad)
                .unwrap();
        }
        let text = runtime.prometheus();
        for family in [
            "broadmatch_probes_total",
            "broadmatch_nodes_scanned_total",
            "broadmatch_scan_bytes_total",
            "broadmatch_remap_hits_total",
            "serve_queries_accepted_total 20",
            "serve_queue_depth 0",
            "serve_exec_latency_ms_count 20",
            "serve_snapshot_version 1",
            "serve_snapshot_age_seconds",
            "serve_query_latency_ms_count 20",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // The probe counters reflect actual query work.
        let snap = runtime.registry().snapshot();
        assert_eq!(snap.counter("broadmatch_queries_total", ""), Some(20));
        assert!(snap.counter_total("broadmatch_probes_total") > 0);
        assert!(snap.counter_total("broadmatch_scan_bytes_total") > 0);
    }

    #[test]
    fn inserts_and_removes_are_immediately_visible() {
        let runtime = ServeRuntime::with_defaults(sample());

        // Insert: visible to the very next query, including words the base
        // vocabulary has never seen.
        let id = runtime
            .insert("quantum books", AdInfo::with_bid(7, 70))
            .unwrap();
        let resp = runtime
            .query("cheap quantum books online", MatchType::Broad)
            .unwrap();
        assert!(resp.hits.iter().any(|h| h.ad == id));
        assert!(resp.stats.overlay_hits >= 1);
        assert_eq!(resp.version, 2, "insert republished the snapshot");

        // Remove a base ad: tombstoned, filtered from every match type.
        assert_eq!(runtime.remove("used books", 1), 1);
        let resp = runtime
            .query("cheap used books online", MatchType::Broad)
            .unwrap();
        assert!(resp.hits.iter().all(|h| h.info.listing_id != 1));
        assert!(resp.stats.tombstone_hits >= 1);

        // Remove of the overlay insert drops it without a tombstone.
        assert_eq!(runtime.remove("quantum books", 7), 1);
        assert!(runtime
            .query("quantum books", MatchType::Exact)
            .unwrap()
            .hits
            .is_empty());

        // A miss mutates nothing and does not republish.
        let version_before = runtime.metrics().version;
        assert_eq!(runtime.remove("used books", 999), 0);
        assert_eq!(runtime.metrics().version, version_before);
    }

    #[test]
    fn compaction_folds_overlay_and_preserves_results() {
        let runtime = ServeRuntime::with_defaults(sample());
        runtime
            .insert("quantum books", AdInfo::with_bid(7, 70))
            .unwrap();
        assert_eq!(runtime.remove("books", 3), 1);
        let before: Vec<u64> = runtime
            .query("cheap quantum used books online", MatchType::Broad)
            .unwrap()
            .hits
            .iter()
            .map(|h| h.info.listing_id)
            .collect();

        let version = runtime.compact_now().unwrap().expect("folded");
        let m = runtime.metrics();
        assert_eq!(m.version, version);
        assert_eq!(m.compactions, 1);
        assert_eq!(m.overlay_ads, 0, "overlay folded into the base");
        assert_eq!(m.overlay_tombstones, 0);
        assert_eq!(m.overlay_dead_bytes, 0);

        // Same answers, now from the rebuilt base (no overlay work).
        let resp = runtime
            .query("cheap quantum used books online", MatchType::Broad)
            .unwrap();
        let after: Vec<u64> = resp.hits.iter().map(|h| h.info.listing_id).collect();
        assert_eq!(
            {
                let mut b = before.clone();
                b.sort_unstable();
                b
            },
            {
                let mut a = after.clone();
                a.sort_unstable();
                a
            }
        );
        assert_eq!(resp.stats.overlay_hits, 0);
        assert_eq!(resp.stats.tombstone_hits, 0);
        assert!(runtime
            .query("books", MatchType::Exact)
            .unwrap()
            .hits
            .is_empty());

        // Nothing left to fold.
        assert_eq!(runtime.compact_now().unwrap(), None);
    }

    fn ins(n: u64) -> UpdateOp {
        UpdateOp::Insert {
            phrase: format!("phrase {n}"),
            info: AdInfo::with_bid(100 + n, 10),
        }
    }

    #[test]
    fn log_since_pages_through_in_order() {
        let runtime = ServeRuntime::with_defaults(sample());
        assert_eq!(runtime.log_head(), 0);
        for n in 0..5 {
            runtime
                .insert(&format!("phrase {n}"), AdInfo::with_bid(100 + n, 10))
                .unwrap();
            assert_eq!(runtime.log_head(), n + 1);
        }

        let (ops, next, head) = runtime.log_since(0, 2);
        assert_eq!((ops.len(), next, head), (2, 2, 5));
        assert_eq!(ops[0], ins(0));

        let (ops, next, head) = runtime.log_since(next, 100);
        assert_eq!((ops.len(), next, head), (3, 5, 5));
        assert_eq!(ops[2], ins(4));

        let (ops, next, head) = runtime.log_since(5, 100);
        assert!(ops.is_empty());
        assert_eq!((next, head), (5, 5));

        // A stale or hostile from_seq past the head clamps safely.
        for from in [999, u64::MAX] {
            let (ops, next, head) = runtime.log_since(from, 100);
            assert!(ops.is_empty());
            assert_eq!((next, head), (5, 5));
        }
    }

    #[test]
    fn log_survives_folds_and_publishes_and_skips_noop_removes() {
        let runtime = ServeRuntime::with_defaults(sample());
        runtime
            .insert("quantum books", AdInfo::with_bid(7, 70))
            .unwrap();
        assert_eq!(runtime.remove("books", 3), 1);
        assert_eq!(runtime.log_head(), 2);

        // A remove that removes nothing logs nothing.
        assert_eq!(runtime.remove("used books", 999), 0);
        assert_eq!(runtime.log_head(), 2);

        runtime.compact_now().unwrap().expect("folded");
        assert_eq!(runtime.log_head(), 2, "a fold keeps the log");

        let mut b = IndexBuilder::new();
        b.add("fresh books", AdInfo::with_bid(9, 90)).unwrap();
        runtime.publish(Arc::new(b.build().unwrap()));
        assert_eq!(runtime.log_head(), 2, "a publish keeps the log");

        let (ops, _, _) = runtime.log_since(0, 10);
        assert_eq!(
            ops,
            [
                UpdateOp::Insert {
                    phrase: "quantum books".into(),
                    info: AdInfo::with_bid(7, 70),
                },
                UpdateOp::Remove {
                    phrase: "books".into(),
                    listing_id: 3,
                },
            ]
        );
    }

    #[test]
    fn publish_discards_pending_overlay() {
        let runtime = ServeRuntime::with_defaults(sample());
        runtime
            .insert("quantum books", AdInfo::with_bid(7, 70))
            .unwrap();
        let mut b = IndexBuilder::new();
        b.add("fresh books", AdInfo::with_bid(9, 90)).unwrap();
        runtime.publish(Arc::new(b.build().unwrap()));
        // The published index is the whole truth: the pending insert died.
        assert!(runtime
            .query("quantum books", MatchType::Exact)
            .unwrap()
            .hits
            .is_empty());
        assert_eq!(runtime.metrics().overlay_ads, 0);
        assert_eq!(runtime.compact_now().unwrap(), None);
    }

    #[test]
    fn background_compactor_trips_on_overlay_size() {
        let runtime = ServeRuntime::start_maintained(
            sample(),
            ServeConfig::default(),
            UpdateConfig {
                max_overlay_ads: 4,
                check_interval: Duration::from_millis(2),
                ..UpdateConfig::default()
            },
        );
        for i in 0..16 {
            runtime
                .insert(&format!("gadget model{i}"), AdInfo::with_bid(100 + i, 10))
                .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.metrics().compactions == 0 {
            assert!(Instant::now() < deadline, "compactor never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Every insert survives, wherever compaction left it.
        for i in 0..16 {
            let hits = runtime
                .query(&format!("gadget model{i}"), MatchType::Exact)
                .unwrap()
                .hits;
            assert_eq!(hits.len(), 1, "ad {i} lost across compaction");
        }

        // Drain the overlay so the compactor stays idle below, then leave
        // one tombstone over a base ad and one live overlay insert, and
        // query through both.
        runtime.compact_now().unwrap();
        assert_eq!(runtime.remove("talk talk", 4), 1);
        runtime
            .insert("gadget spare", AdInfo::with_bid(200, 10))
            .unwrap();
        let resp = runtime.query("talk talk", MatchType::Exact).unwrap();
        assert!(resp.hits.is_empty(), "tombstoned base ad still served");
        assert_eq!(resp.stats.tombstone_hits, 1);
        let resp = runtime.query("gadget spare", MatchType::Exact).unwrap();
        assert_eq!(resp.hits.len(), 1);
        assert_eq!(resp.stats.overlay_hits, 1);

        // Every maintenance family is exported, with the values above.
        let text = runtime.prometheus();
        let value = |family: &str| -> f64 {
            let prefix = format!("{family} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .unwrap_or_else(|| panic!("missing {family} in exposition"))
                .parse()
                .unwrap()
        };
        assert_eq!(value("broadmatch_overlay_inserts_total"), 17.0);
        assert_eq!(value("broadmatch_overlay_removes_total"), 1.0);
        assert_eq!(value("broadmatch_overlay_ads"), 1.0);
        assert_eq!(value("broadmatch_overlay_tombstones"), 1.0);
        assert!(value("broadmatch_overlay_dead_bytes") > 0.0);
        assert!(value("broadmatch_overlay_hits_total") >= 1.0);
        assert!(value("broadmatch_compactions_total") >= 1.0);
        assert!(value("broadmatch_compaction_duration_ms_count") >= 1.0);
        assert!(value("broadmatch_compaction_ads_folded_total") >= 16.0);
        assert_eq!(value("broadmatch_tombstone_hits_total"), 1.0);
    }

    #[test]
    fn tracer_samples_spans() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                trace_sample_every: 2,
                ..ServeConfig::default()
            },
        );
        for _ in 0..10 {
            runtime
                .query("cheap used books online", MatchType::Broad)
                .unwrap();
        }
        let traces = runtime.tracer().recent(16);
        assert_eq!(traces.len(), 5, "1-in-2 sampling over 10 queries");
        let t = traces.last().expect("nonempty");
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        for required in ["wait", "plan", "execute", "finish"] {
            assert!(names.contains(&required), "missing span {required}");
        }
        assert!(t.probe.probes > 0);
        assert!(t.probe.nodes_scanned > 0);
        assert!(t.probe.scanned_bytes > 0);
    }
}
