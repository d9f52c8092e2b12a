//! The serving runtime: a worker pool executing planned probes against the
//! currently published snapshot.
//!
//! A query is planned once on the submitting thread, then its probes
//! scatter to per-shard bounded queues; pool workers execute each shard's
//! slice against the snapshot captured at submission (so an index swap
//! mid-query is invisible — snapshot consistency), and the submitting
//! thread gathers the batches into final hits. Full queues reject at
//! admission with a retry-after hint instead of building unbounded backlog.
//!
//! All counters and histograms live in a `broadmatch-telemetry`
//! [`Registry`] owned by the runtime: one set of `serve_*` and
//! `broadmatch_*` metric families instead of parallel hand-rolled stats
//! structs, rendered to Prometheus text by [`ServeRuntime::prometheus`].
//! A sampling [`Tracer`] records per-query span traces (plan, scatter,
//! gather, finish) with probe-level statistics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use broadmatch::{
    probe_trace_stats, AdId, AdInfo, BroadMatchIndex, BuildError, DeltaOverlay, MatchHit,
    MatchType, OverlayCounters, ProbeBatch, QueryCounters, QueryPlan, QueryStats,
};
use broadmatch_telemetry::{
    Counter, Gauge, Histogram, LatencyHistogram, Registry, Tracer, DEFAULT_SAMPLE_EVERY,
};

use crate::arcswap::ArcSwap;
use crate::poison;
use crate::queue::{BoundedQueue, PopResult, PushError};
use crate::shard::ShardedIndex;
use crate::update::{self, StopSignal, UpdateConfig, UpdateOp, UpdateState};

/// Runtime sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Probe-space partitions (`wordhash % n_shards`).
    pub n_shards: usize,
    /// Pool threads. Workers share shard queues (MPMC) when there are more
    /// workers than shards, and round-robin several shards when there are
    /// fewer.
    pub n_workers: usize,
    /// Per-shard queue bound; a full queue rejects at admission.
    pub queue_capacity: usize,
    /// Max tasks a worker drains per wakeup (amortizes lock traffic).
    pub batch_size: usize,
    /// Span-trace one in this many queries (0 disables tracing).
    pub trace_sample_every: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            n_shards: 4,
            n_workers: 4,
            queue_capacity: 1024,
            batch_size: 8,
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
    /// Admission control: a shard queue is full. Retry after the hint —
    /// roughly the time for the backlog ahead of you to drain.
    Overloaded {
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
    /// The runtime is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {retry_after:?}")
            }
            ServeError::ShuttingDown => write!(f, "runtime shutting down"),
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
    /// End-to-end query latency (plan → gather), netsim bucket geometry.
    pub query_latency: LatencyHistogram,
    /// Per-shard probe-execution latency, netsim bucket geometry.
    pub shard_latency: Vec<LatencyHistogram>,
    /// Per-shard tasks executed.
    pub shard_tasks: Vec<u64>,
    /// Per-shard admission rejects (which shard's full queue refused the
    /// query) — the previously invisible half of admission control.
    pub shard_rejects: Vec<u64>,
    /// Per-shard tasks of rejected queries that were drained without
    /// execution (the cancelled siblings of a partially scattered query).
    /// Kept out of `shard_tasks`/`shard_latency` so the service-rate
    /// estimate behind retry-after hints only averages real work.
    pub shard_cancelled: Vec<u64>,
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

/// One published snapshot generation: the immutable sharded base plus the
/// delta overlay of updates applied since that base was built. Readers
/// consult the overlay after the base, so results match a fresh rebuild.
#[derive(Debug)]
pub(crate) struct Generation {
    pub(crate) sharded: ShardedIndex,
    pub(crate) overlay: Arc<DeltaOverlay>,
    pub(crate) version: u64,
    /// Bumped whenever the *base* index changes (publish or compaction);
    /// overlay-only republishes keep it. Lets a compaction detect that the
    /// base it folded was swapped out from under it.
    pub(crate) base_epoch: u64,
}

/// Scatter/gather rendezvous for one query.
struct Gather {
    slots: Mutex<GatherSlots>,
    done: Condvar,
    cancelled: AtomicBool,
}

struct GatherSlots {
    batches: Vec<Option<ProbeBatch>>,
    remaining: usize,
}

impl Gather {
    fn new(n_shards: usize, dispatched: usize) -> Self {
        Gather {
            slots: Mutex::new(GatherSlots {
                batches: (0..n_shards).map(|_| None).collect(),
                remaining: dispatched,
            }),
            done: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }

    fn complete(&self, shard: usize, batch: ProbeBatch) {
        let mut slots = poison::lock(&self.slots);
        slots.batches[shard] = Some(batch);
        slots.remaining -= 1;
        if slots.remaining == 0 {
            drop(slots);
            self.done.notify_all();
        }
    }

    /// Mark the query abandoned (admission failure mid-scatter): workers
    /// skip execution for already-enqueued siblings.
    fn cancel(&self) {
        // ORDER: SeqCst — the flag races scatter-side enqueues; the strict
        // order is cheap (cancellation is the cold path) and keeps the
        // cancel/complete reasoning one total order, as in arcswap.rs.
        self.cancelled.store(true, SeqCst);
    }

    fn is_cancelled(&self) -> bool {
        // ORDER: SeqCst — pairs with cancel(); see above.
        self.cancelled.load(SeqCst)
    }

    /// Block until every dispatched shard has reported, then hand back the
    /// batches in shard order (deterministic gather).
    fn wait(&self) -> Vec<ProbeBatch> {
        let mut slots = poison::lock(&self.slots);
        while slots.remaining > 0 {
            slots = poison::wait(&self.done, slots);
        }
        slots.batches.iter_mut().filter_map(Option::take).collect()
    }
}

/// A unit of shard work: execute `probe_indices` of `plan` against the
/// snapshot captured at submission.
struct ShardTask {
    snapshot: Arc<Generation>,
    plan: Arc<QueryPlan>,
    shard: usize,
    probe_indices: Vec<usize>,
    gather: Arc<Gather>,
}

/// Pre-registered handles into the runtime's registry: the hot path pays
/// one atomic (or one short histogram lock), never a registry lookup.
pub(crate) struct Handles {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    query_latency: Arc<Histogram>,
    publish_ms: Arc<Histogram>,
    pub(crate) snapshot_version: Arc<Gauge>,
    snapshot_age_seconds: Arc<Gauge>,
    shard_tasks: Vec<Arc<Counter>>,
    shard_rejects: Vec<Arc<Counter>>,
    shard_cancelled: Vec<Arc<Counter>>,
    shard_latency: Vec<Arc<Histogram>>,
    shard_queue_depth: Vec<Arc<Gauge>>,
    query_counters: QueryCounters,
    pub(crate) overlay: OverlayCounters,
}

impl Handles {
    fn register(registry: &Registry, n_shards: usize) -> Self {
        let mut shard_tasks = Vec::with_capacity(n_shards);
        let mut shard_rejects = Vec::with_capacity(n_shards);
        let mut shard_cancelled = Vec::with_capacity(n_shards);
        let mut shard_latency = Vec::with_capacity(n_shards);
        let mut shard_queue_depth = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let label = shard.to_string();
            let labels = [("shard", label.as_str())];
            shard_tasks.push(registry.counter(
                "serve_shard_tasks_total",
                "Shard tasks executed by pool workers",
                &labels,
            ));
            shard_rejects.push(registry.counter(
                "serve_shard_rejects_total",
                "Queries refused because this shard's queue was full",
                &labels,
            ));
            shard_cancelled.push(registry.counter(
                "serve_shard_cancelled_total",
                "Tasks of rejected queries drained without execution",
                &labels,
            ));
            shard_latency.push(registry.histogram(
                "serve_shard_latency_ms",
                "Per-shard probe-execution latency",
                &labels,
            ));
            shard_queue_depth.push(registry.gauge(
                "serve_shard_queue_depth",
                "Tasks currently waiting in this shard's queue",
                &labels,
            ));
        }
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
                "End-to-end query latency (plan to gather)",
                &[],
            ),
            publish_ms: registry.histogram(
                "serve_publish_duration_ms",
                "Duration of snapshot publishes (shard + atomic swap)",
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
            shard_tasks,
            shard_rejects,
            shard_cancelled,
            shard_latency,
            shard_queue_depth,
            query_counters: QueryCounters::register(registry),
            overlay: OverlayCounters::register(registry),
        }
    }
}

/// Shared state between the runtime handle, its workers, and the
/// background compaction worker.
pub(crate) struct Inner {
    pub(crate) snapshot: ArcSwap<Generation>,
    queues: Vec<BoundedQueue<ShardTask>>,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    pub(crate) handles: Handles,
    pub(crate) version: AtomicU64,
    pub(crate) published_at: Mutex<Instant>,
    /// Writer-side state: the op log and base epoch, guarded by one mutex
    /// that serializes all mutations (readers never take it).
    pub(crate) update: Mutex<UpdateState>,
}

/// The serving runtime. Queries are safe to submit from any number of
/// threads; [`ServeRuntime::publish`] swaps the index underneath them
/// without blocking reads. Dropping the runtime drains and joins the pool.
pub struct ServeRuntime {
    inner: Arc<Inner>,
    config: ServeConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
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
        assert!(config.n_shards > 0, "need at least one shard");
        assert!(config.n_workers > 0, "need at least one worker");
        let handles = Handles::register(&registry, config.n_shards);
        handles.snapshot_version.set(1.0);
        let overlay = DeltaOverlay::for_base(&index);
        let inner = Arc::new(Inner {
            snapshot: ArcSwap::new(Arc::new(Generation {
                sharded: ShardedIndex::new(index, config.n_shards),
                overlay: Arc::new(overlay),
                version: 1,
                base_epoch: 1,
            })),
            queues: (0..config.n_shards)
                .map(|_| BoundedQueue::new(config.queue_capacity))
                .collect(),
            registry,
            tracer: Arc::new(Tracer::new(
                config.trace_sample_every,
                broadmatch_telemetry::DEFAULT_RING_CAP,
            )),
            handles,
            version: AtomicU64::new(1),
            published_at: Mutex::new(Instant::now()),
            update: Mutex::new(UpdateState {
                log: Vec::new(),
                base_epoch: 1,
            }),
        });

        let workers = (0..config.n_workers)
            .map(|worker_id| {
                let inner = Arc::clone(&inner);
                let batch_size = config.batch_size.max(1);
                let n_shards = config.n_shards;
                let n_workers = config.n_workers;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{worker_id}"))
                    .spawn(move || worker_loop(&inner, worker_id, n_shards, n_workers, batch_size))
                    // lint: allow(panic) — failing to start the worker pool
                    // is a fatal startup error, not a serving-time state.
                    .expect("spawn worker")
            })
            .collect();

        ServeRuntime {
            inner,
            config,
            workers,
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
            runtime.config.n_shards,
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

    /// Run a query through the pool: plan once, scatter the probes to their
    /// owning shards, gather. Returns results bit-identical to running the
    /// same query single-threaded against the snapshot current at
    /// submission.
    pub fn query(
        &self,
        query_text: &str,
        match_type: MatchType,
    ) -> Result<QueryResponse, ServeError> {
        let t0 = Instant::now();
        let trace = self.inner.tracer.maybe_trace();
        let snapshot = self.inner.snapshot.load();
        let plan = {
            let _span = trace.as_ref().map(|t| t.span("plan"));
            snapshot.sharded.plan(query_text, match_type)
        };
        let Some(plan) = plan else {
            // The base can't match — but the overlay may know words the
            // base vocabulary has never seen, so still consult it.
            let mut hits = Vec::new();
            let mut stats = QueryStats::default();
            if !snapshot.overlay.is_empty() {
                stats.overlay_hits = snapshot.overlay.consult(query_text, match_type, &mut hits);
                stats.hits = hits.len();
            }
            self.inner.handles.accepted.inc();
            self.inner.handles.query_counters.record(&stats);
            self.inner
                .handles
                .query_latency
                .record(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(t) = trace {
                self.inner.tracer.finish(t, probe_trace_stats(&stats));
            }
            return Ok(QueryResponse {
                hits,
                stats,
                version: snapshot.version,
            });
        };
        let plan = Arc::new(plan);

        // Route each probe to its owning shard; skip shards with no work.
        let n_shards = self.config.n_shards;
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (i, &h) in plan.probe_hashes().iter().enumerate() {
            per_shard[(h % n_shards as u64) as usize].push(i);
        }
        let dispatched: Vec<usize> = (0..n_shards)
            .filter(|&s| !per_shard[s].is_empty())
            .collect();
        let gather = Arc::new(Gather::new(n_shards, dispatched.len()));

        {
            let _span = trace.as_ref().map(|t| t.span("scatter"));
            for &shard in &dispatched {
                let task = ShardTask {
                    snapshot: Arc::clone(&snapshot),
                    plan: Arc::clone(&plan),
                    shard,
                    probe_indices: std::mem::take(&mut per_shard[shard]),
                    gather: Arc::clone(&gather),
                };
                if let Err(err) = self.inner.queues[shard].try_push(task) {
                    // Already-enqueued siblings will see the cancel flag and
                    // complete trivially; nobody waits on this gather.
                    gather.cancel();
                    self.inner.handles.rejected.inc();
                    self.inner.handles.shard_rejects[shard].inc();
                    return Err(match err {
                        PushError::Full(_) => ServeError::Overloaded {
                            retry_after: self.retry_after(shard),
                        },
                        PushError::Closed(_) => ServeError::ShuttingDown,
                    });
                }
            }
        }

        let batches = {
            let _span = trace.as_ref().map(|t| t.span("gather"));
            gather.wait()
        };
        let (mut hits, mut stats) = {
            let _span = trace.as_ref().map(|t| t.span("finish"));
            snapshot.sharded.finish(&plan, batches)
        };
        if !snapshot.overlay.is_empty() {
            let _span = trace.as_ref().map(|t| t.span("overlay"));
            stats.tombstone_hits = snapshot.overlay.filter_tombstones(&mut hits);
            stats.overlay_hits = snapshot.overlay.consult(query_text, match_type, &mut hits);
            stats.hits = hits.len();
        }
        self.inner.handles.accepted.inc();
        self.inner.handles.query_counters.record(&stats);
        self.inner
            .handles
            .query_latency
            .record(t0.elapsed().as_secs_f64() * 1e3);
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
    /// source of truth — and the op log is cleared.
    /// Returns the new version number.
    pub fn publish(&self, index: Arc<BroadMatchIndex>) -> u64 {
        let t0 = Instant::now();
        let mut st = poison::lock(&self.inner.update);
        st.log.clear();
        st.base_epoch += 1;
        let overlay = DeltaOverlay::for_base(&index);
        self.inner.handles.overlay.set_overlay_state(&overlay);
        // ORDER: SeqCst — version bump and snapshot store form the publish
        // point; one total order across publish/read is the model-checked
        // configuration (serve/tests/conccheck_models.rs, republish model).
        let version = self.inner.version.fetch_add(1, SeqCst) + 1;
        self.inner.snapshot.store(Arc::new(Generation {
            sharded: ShardedIndex::new(index, self.config.n_shards),
            overlay: Arc::new(overlay),
            version,
            base_epoch: st.base_epoch,
        }));
        drop(st);
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
        let mut st = poison::lock(&self.inner.update);
        let snapshot = self.inner.snapshot.load();
        let mut overlay = (*snapshot.overlay).clone();
        let id = overlay.insert(phrase, info)?;
        st.log.push(UpdateOp::Insert {
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
        let mut st = poison::lock(&self.inner.update);
        let snapshot = self.inner.snapshot.load();
        let mut overlay = (*snapshot.overlay).clone();
        let removed = overlay.remove(snapshot.sharded.index(), phrase, listing_id);
        if removed == 0 {
            return 0; // nothing changed; skip the republish and the log
        }
        st.log.push(UpdateOp::Remove {
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
            sharded: base.sharded.clone(),
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
            self.config.n_shards,
            self.update_config.as_ref().and_then(|c| c.workload.clone()),
        )
    }

    /// The currently published snapshot and its version.
    pub fn current(&self) -> (Arc<BroadMatchIndex>, u64) {
        let snapshot = self.inner.snapshot.load();
        (Arc::clone(snapshot.sharded.index()), snapshot.version)
    }

    /// The base epoch of the currently published snapshot. Bumped whenever
    /// the *base* index changes (an external publish or a compaction fold);
    /// overlay-only republishes keep it. Replica shipping tags op-log
    /// batches with this so a follower can tell "same base, more ops" from
    /// "the primary rebuilt underneath me".
    pub fn base_epoch(&self) -> u64 {
        self.inner.snapshot.load().base_epoch
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
            shard_latency: h.shard_latency.iter().map(|s| s.snapshot()).collect(),
            shard_tasks: h.shard_tasks.iter().map(|c| c.get()).collect(),
            shard_rejects: h.shard_rejects.iter().map(|c| c.get()).collect(),
            shard_cancelled: h.shard_cancelled.iter().map(|c| c.get()).collect(),
            compactions: h.overlay.compactions.get(),
            overlay_ads: snapshot.overlay.ads(),
            overlay_tombstones: snapshot.overlay.tombstone_count(),
            overlay_dead_bytes: snapshot.overlay.dead_bytes(),
        }
    }

    /// Render every metric in Prometheus text exposition format, after
    /// refreshing the point-in-time gauges (shard queue depths, snapshot
    /// age).
    pub fn prometheus(&self) -> String {
        let h = &self.inner.handles;
        for (shard, gauge) in h.shard_queue_depth.iter().enumerate() {
            gauge.set(self.inner.queues[shard].len() as f64);
        }
        let age = poison::lock(&self.inner.published_at).elapsed();
        h.snapshot_age_seconds.set(age.as_secs_f64());
        h.overlay
            .set_overlay_state(&self.inner.snapshot.load().overlay);
        self.inner.registry.render_prometheus()
    }

    /// Backoff hint for a rejected query: roughly the time for `shard`'s
    /// current backlog to drain at the recently observed service rate.
    fn retry_after(&self, shard: usize) -> Duration {
        let depth = self.inner.queues[shard].len() as f64;
        let mean_ms = self.inner.handles.shard_latency[shard].snapshot().mean_ms();
        // Unmeasured queues still get a non-zero hint.
        let per_task_ms = if mean_ms > 0.0 { mean_ms } else { 0.05 };
        Duration::from_micros(((depth + 1.0) * per_task_ms * 1e3) as u64)
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        // Stop the compactor first: it may be mid-fold, about to republish
        // through the snapshot the workers still serve from.
        if let Some(stop) = self.compactor_stop.take() {
            let (lock, cv) = &*stop;
            *poison::lock(lock) = true;
            cv.notify_all();
        }
        if let Some(compactor) = self.compactor.take() {
            let _ = compactor.join();
        }
        for queue in &self.inner.queues {
            queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime")
            .field("config", &self.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Worker thread body. Each worker owns the shards congruent to its id
/// modulo the pool size; a worker with a single shard blocks on that
/// queue, one with several polls them round-robin with a short timeout.
/// With more workers than shards, the extra workers join the queue of
/// shard `worker_id % n_shards` (the queues are MPMC).
fn worker_loop(
    inner: &Inner,
    worker_id: usize,
    n_shards: usize,
    n_workers: usize,
    batch_size: usize,
) {
    let mut my_shards: Vec<usize> = (0..n_shards)
        .filter(|s| s % n_workers == worker_id)
        .collect();
    if my_shards.is_empty() {
        my_shards.push(worker_id % n_shards);
    }
    let timeout = if my_shards.len() == 1 {
        None // sole queue: block until work or close
    } else {
        Some(Duration::from_micros(200))
    };

    let mut closed = vec![false; my_shards.len()];
    while !closed.iter().all(|&c| c) {
        for (k, &shard) in my_shards.iter().enumerate() {
            if closed[k] {
                continue;
            }
            match inner.queues[shard].pop_batch(batch_size, timeout) {
                PopResult::Items(tasks) => {
                    for task in tasks {
                        run_task(inner, task);
                    }
                }
                PopResult::TimedOut => {}
                PopResult::Closed => closed[k] = true,
            }
        }
    }
}

fn run_task(inner: &Inner, task: ShardTask) {
    if task.gather.is_cancelled() {
        // A cancelled sibling of a rejected query: complete the rendezvous
        // (nobody waits, but the slot accounting must balance) WITHOUT
        // touching the task counter or the latency histogram. Recording
        // these ~0 ms non-executions used to drag the mean shard service
        // time toward zero under multi-connection bursts — exactly when
        // admission control fires — so the retry-after hints derived from
        // that mean collapsed and rejected clients hammered straight back.
        inner.handles.shard_cancelled[task.shard].inc();
        task.gather.complete(task.shard, ProbeBatch::default());
        return;
    }
    let t0 = Instant::now();
    let batch = task
        .snapshot
        .sharded
        .index()
        .execute_probes(&task.plan, task.probe_indices.iter().copied());
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    inner.handles.shard_latency[task.shard].record(elapsed_ms);
    inner.handles.shard_tasks[task.shard].inc();
    task.gather.complete(task.shard, batch);
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
        for (shards, workers) in [(1, 1), (2, 1), (4, 2), (3, 6)] {
            let runtime = ServeRuntime::start(
                index.clone(),
                ServeConfig {
                    n_shards: shards,
                    n_workers: workers,
                    ..ServeConfig::default()
                },
            );
            for (q, mt) in [
                ("cheap used books online", MatchType::Broad),
                ("used books", MatchType::Exact),
                ("buy used books now", MatchType::Phrase),
                ("talk talk talk", MatchType::Phrase),
                ("zzz unknown", MatchType::Broad),
            ] {
                let (want_hits, want_stats) = index.query_with_stats(q, mt);
                let resp = runtime.query(q, mt).expect("admitted");
                assert_eq!(resp.hits, want_hits, "{q} on {shards}x{workers}");
                assert_eq!(resp.stats, want_stats, "{q} on {shards}x{workers}");
                assert_eq!(resp.version, 1);
            }
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
        // A runtime whose single worker is starved by a tiny queue: fill it
        // beyond capacity from this thread without waiting, and at least
        // one push must be refused with a retry hint.
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_shards: 1,
                n_workers: 1,
                queue_capacity: 1,
                batch_size: 1,
                ..ServeConfig::default()
            },
        );
        // Single-threaded submission can't overrun a live worker reliably,
        // so drive the queue directly through many concurrent submitters.
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
                            Err(e) => panic!("{e}"),
                        }
                    }
                });
            }
        });
        let metrics = runtime.metrics();
        assert_eq!(metrics.rejected, rejected.load(SeqCst));
        assert!(metrics.accepted + metrics.rejected == 1600);
        // Per-shard reject attribution sums to the total (satellite fix:
        // rejects used to be invisible beyond the retry-after hint).
        let per_shard: u64 = metrics.shard_rejects.iter().sum();
        assert_eq!(per_shard, metrics.rejected);
    }

    #[test]
    fn cancelled_tasks_stay_out_of_service_accounting() {
        // A cancelled sibling of a rejected query must be drained (slot
        // freed, rendezvous completed) but must NOT count as executed
        // work: the shard latency histogram and task counter only see real
        // executions, so the mean service time feeding retry-after hints
        // is not dragged toward zero by ~0 ms no-ops exactly when
        // admission control is firing. Drive the worker body directly so
        // the cancelled/executed split is deterministic.
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_shards: 2,
                n_workers: 1,
                ..ServeConfig::default()
            },
        );
        let snapshot = runtime.inner.snapshot.load();
        let plan = Arc::new(
            snapshot
                .sharded
                .plan("cheap used books online", MatchType::Broad)
                .expect("plannable query"),
        );

        // One cancelled task on shard 0 (nobody waits on its gather)...
        let cancelled_gather = Arc::new(Gather::new(2, 1));
        cancelled_gather.cancel();
        run_task(
            &runtime.inner,
            ShardTask {
                snapshot: Arc::clone(&snapshot),
                plan: Arc::clone(&plan),
                shard: 0,
                probe_indices: vec![0],
                gather: Arc::clone(&cancelled_gather),
            },
        );
        // ...and one live task on shard 1.
        let live_gather = Arc::new(Gather::new(2, 1));
        run_task(
            &runtime.inner,
            ShardTask {
                snapshot: Arc::clone(&snapshot),
                plan,
                shard: 1,
                probe_indices: vec![0],
                gather: live_gather,
            },
        );

        let m = runtime.metrics();
        assert_eq!(m.shard_cancelled, vec![1, 0]);
        assert_eq!(m.shard_tasks, vec![0, 1], "cancelled drain is not a task");
        assert_eq!(
            m.shard_latency[0].total(),
            0,
            "no service-time sample for the no-op"
        );
        assert_eq!(m.shard_latency[1].total(), 1);
        // The rendezvous still completed for the cancelled slot.
        assert!(cancelled_gather.is_cancelled());
        assert_eq!(poison::lock(&cancelled_gather.slots).remaining, 0);
        let text = runtime.prometheus();
        assert!(text.contains("serve_shard_cancelled_total{shard=\"0\"} 1"));
    }

    #[test]
    fn metrics_track_work() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_shards: 2,
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
        assert_eq!(m.shard_latency.len(), 2);
        // Every dispatched shard task was measured.
        let measured: u64 = m.shard_latency.iter().map(|h| h.total()).sum();
        let tasks: u64 = m.shard_tasks.iter().sum();
        assert_eq!(measured, tasks);
        assert!(tasks >= 50, "each query dispatches at least one shard task");
    }

    #[test]
    fn prometheus_exposition_covers_live_queries() {
        let runtime = ServeRuntime::start(
            sample(),
            ServeConfig {
                n_shards: 2,
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
            "serve_shard_queue_depth{shard=\"0\"}",
            "serve_shard_tasks_total{shard=\"1\"}",
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
        let text = runtime.prometheus();
        assert!(text.contains("broadmatch_compactions_total"));
        assert!(text.contains("broadmatch_overlay_inserts_total 16"));
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
        for required in ["plan", "scatter", "gather", "finish"] {
            assert!(names.contains(&required), "missing span {required}");
        }
        assert!(t.probe.probes > 0);
        assert!(t.probe.nodes_scanned > 0);
        assert!(t.probe.scanned_bytes > 0);
    }
}
