//! Registry-backed observability for the query and maintenance paths.
//!
//! [`QueryStats`] stays the cheap, `Copy`, bit-identical-across-shards
//! per-query record; this module is the single place that folds those
//! records into the shared `broadmatch-telemetry` registry, so core, the
//! serving runtime and the experiment drivers all export one
//! `broadmatch_*` metric family set instead of parallel hand-rolled stats
//! structs.

use std::sync::Arc;

use broadmatch_telemetry::{Counter, Gauge, Histogram, ProbeTraceStats, Registry};

use crate::QueryStats;

/// Handles to the `broadmatch_*` query-side counter families.
///
/// Register once (per registry), then [`QueryCounters::record`] each
/// query's [`QueryStats`] — a handful of relaxed atomic adds on the hot
/// path.
#[derive(Debug, Clone)]
pub struct QueryCounters {
    queries: Arc<Counter>,
    probes: Arc<Counter>,
    probe_hits: Arc<Counter>,
    nodes_scanned: Arc<Counter>,
    entries_examined: Arc<Counter>,
    ads_examined: Arc<Counter>,
    scan_bytes: Arc<Counter>,
    early_terminations: Arc<Counter>,
    remap_hits: Arc<Counter>,
    remap_scan_bytes: Arc<Counter>,
    truncated: Arc<Counter>,
    hits: Arc<Counter>,
    tombstone_hits: Arc<Counter>,
    overlay_hits: Arc<Counter>,
}

impl QueryCounters {
    /// Register the `broadmatch_*` families in `registry` and return
    /// handles (idempotent: re-registering returns the same counters).
    pub fn register(registry: &Registry) -> Self {
        QueryCounters {
            queries: registry.counter(
                "broadmatch_queries_total",
                "Queries executed against the broad-match index",
                &[],
            ),
            probes: registry.counter(
                "broadmatch_probes_total",
                "Directory hash probes issued (subset enumeration)",
                &[],
            ),
            probe_hits: registry.counter(
                "broadmatch_probe_hits_total",
                "Directory probes that found a data node",
                &[],
            ),
            nodes_scanned: registry.counter(
                "broadmatch_nodes_scanned_total",
                "Distinct data nodes scanned",
                &[],
            ),
            entries_examined: registry.counter(
                "broadmatch_entries_examined_total",
                "Word-set entries decoded during node scans",
                &[],
            ),
            ads_examined: registry.counter(
                "broadmatch_ads_examined_total",
                "Ads decoded during node scans",
                &[],
            ),
            scan_bytes: registry.counter(
                "broadmatch_scan_bytes_total",
                "Bytes consumed by sequential node scans",
                &[],
            ),
            early_terminations: registry.counter(
                "broadmatch_early_terminations_total",
                "Node scans cut short by the word-count early-termination rule",
                &[],
            ),
            remap_hits: registry.counter(
                "broadmatch_remap_hits_total",
                "Scanned nodes that were shared (set-cover re-mapped) nodes",
                &[],
            ),
            remap_scan_bytes: registry.counter(
                "broadmatch_remap_scan_bytes_total",
                "Bytes scanned inside re-mapped nodes",
                &[],
            ),
            truncated: registry.counter(
                "broadmatch_queries_truncated_total",
                "Queries whose subset enumeration hit the probe cap",
                &[],
            ),
            hits: registry.counter(
                "broadmatch_hits_total",
                "Matching ads returned after exclusion filtering",
                &[],
            ),
            tombstone_hits: registry.counter(
                "broadmatch_tombstone_hits_total",
                "Base hits dropped because a delta-overlay tombstone marked the ad deleted",
                &[],
            ),
            overlay_hits: registry.counter(
                "broadmatch_overlay_hits_total",
                "Hits contributed by the delta overlay's side index of recent inserts",
                &[],
            ),
        }
    }

    /// Fold one query's statistics into the counters.
    pub fn record(&self, stats: &QueryStats) {
        self.queries.inc();
        self.probes.add(stats.probes as u64);
        self.probe_hits.add(stats.probe_hits as u64);
        self.nodes_scanned.add(stats.nodes_visited as u64);
        self.entries_examined.add(stats.entries_examined as u64);
        self.ads_examined.add(stats.ads_examined as u64);
        self.scan_bytes.add(stats.scanned_bytes as u64);
        self.early_terminations.add(stats.early_terminations as u64);
        self.remap_hits.add(stats.remapped_nodes as u64);
        self.remap_scan_bytes.add(stats.remapped_scan_bytes as u64);
        if stats.truncated {
            self.truncated.inc();
        }
        self.hits.add(stats.hits as u64);
        self.tombstone_hits.add(stats.tombstone_hits as u64);
        self.overlay_hits.add(stats.overlay_hits as u64);
    }
}

/// Handles to the `broadmatch_overlay_*` / `broadmatch_compaction*`
/// families — the observable state of a delta overlay and its background
/// compaction worker. Register once per registry (idempotent), refresh the
/// gauges with [`OverlayCounters::set_overlay_state`] whenever the overlay
/// changes, and record each fold with [`OverlayCounters::record_compaction`].
#[derive(Debug, Clone)]
pub struct OverlayCounters {
    /// Overlay mutations accepted (`broadmatch_overlay_inserts_total`).
    pub inserts: Arc<Counter>,
    /// Remove operations that removed at least one ad
    /// (`broadmatch_overlay_removes_total`).
    pub removes: Arc<Counter>,
    /// Live ads in the overlay side index (`broadmatch_overlay_ads`).
    pub overlay_ads: Arc<Gauge>,
    /// Tombstoned base ads awaiting compaction
    /// (`broadmatch_overlay_tombstones`).
    pub overlay_tombstones: Arc<Gauge>,
    /// Arena bytes kept dead by tombstones
    /// (`broadmatch_overlay_dead_bytes`).
    pub overlay_dead_bytes: Arc<Gauge>,
    /// Completed compactions (`broadmatch_compactions_total`).
    pub compactions: Arc<Counter>,
    /// Wall-clock fold + republish duration
    /// (`broadmatch_compaction_duration_ms`).
    pub compaction_ms: Arc<Histogram>,
    /// Ads carried into rebuilt bases by compactions
    /// (`broadmatch_compaction_ads_folded_total`).
    pub ads_folded: Arc<Counter>,
}

impl OverlayCounters {
    /// Register the overlay/compaction families in `registry` and return
    /// handles (idempotent: re-registering returns the same instruments).
    pub fn register(registry: &Registry) -> Self {
        OverlayCounters {
            inserts: registry.counter(
                "broadmatch_overlay_inserts_total",
                "Ads inserted into the delta overlay",
                &[],
            ),
            removes: registry.counter(
                "broadmatch_overlay_removes_total",
                "Remove operations that dropped or tombstoned at least one ad",
                &[],
            ),
            overlay_ads: registry.gauge(
                "broadmatch_overlay_ads",
                "Live ads held by the delta overlay's side index",
                &[],
            ),
            overlay_tombstones: registry.gauge(
                "broadmatch_overlay_tombstones",
                "Tombstoned base ads awaiting compaction",
                &[],
            ),
            overlay_dead_bytes: registry.gauge(
                "broadmatch_overlay_dead_bytes",
                "Arena bytes kept dead by overlay tombstones",
                &[],
            ),
            compactions: registry.counter(
                "broadmatch_compactions_total",
                "Overlay folds into a rebuilt base (background or manual)",
                &[],
            ),
            compaction_ms: registry.histogram(
                "broadmatch_compaction_duration_ms",
                "Wall-clock duration of overlay compactions (fold + republish)",
                &[],
            ),
            ads_folded: registry.counter(
                "broadmatch_compaction_ads_folded_total",
                "Ads carried into rebuilt bases by compactions",
                &[],
            ),
        }
    }

    /// Refresh the point-in-time overlay gauges.
    pub fn set_overlay_state(&self, overlay: &crate::DeltaOverlay) {
        self.overlay_ads.set(overlay.ads() as f64);
        self.overlay_tombstones
            .set(overlay.tombstone_count() as f64);
        self.overlay_dead_bytes.set(overlay.dead_bytes() as f64);
    }

    /// Record one completed compaction.
    pub fn record_compaction(&self, duration: std::time::Duration, ads_folded: usize) {
        self.compactions.inc();
        self.compaction_ms.record(duration.as_secs_f64() * 1e3);
        self.ads_folded.add(ads_folded as u64);
    }
}

/// Convert per-query statistics into the tracer's probe-trace form.
pub fn probe_trace_stats(stats: &QueryStats) -> ProbeTraceStats {
    ProbeTraceStats {
        probes: stats.probes,
        probe_hits: stats.probe_hits,
        nodes_scanned: stats.nodes_visited,
        entries_examined: stats.entries_examined,
        ads_examined: stats.ads_examined,
        scanned_bytes: stats.scanned_bytes,
        early_terminations: stats.early_terminations,
        remapped_nodes: stats.remapped_nodes,
        remapped_scan_bytes: stats.remapped_scan_bytes,
        truncated: stats.truncated,
    }
}

/// Record one greedy set-cover optimizer run against the global registry
/// (`broadmatch_remap_*` families).
pub(crate) fn record_remap_run(
    mode: &str,
    candidates: usize,
    chosen: usize,
    kept_baseline: bool,
    duration: std::time::Duration,
) {
    let registry = Registry::global();
    let labels = [("mode", mode)];
    registry
        .counter(
            "broadmatch_remap_runs_total",
            "Set-cover re-mapping optimizer runs",
            &labels,
        )
        .inc();
    registry
        .counter(
            "broadmatch_remap_candidates_total",
            "Candidate node sets generated for the greedy cover",
            &labels,
        )
        .add(candidates as u64);
    registry
        .counter(
            "broadmatch_remap_chosen_total",
            "Candidate sets chosen by the greedy cover",
            &labels,
        )
        .add(chosen as u64);
    if kept_baseline {
        registry
            .counter(
                "broadmatch_remap_baseline_kept_total",
                "Runs where the identity-style baseline beat the greedy cover",
                &labels,
            )
            .inc();
    }
    registry
        .histogram(
            "broadmatch_remap_duration_ms",
            "Wall-clock duration of optimizer runs",
            &labels,
        )
        .record(duration.as_secs_f64() * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_counters_accumulate_stats() {
        let registry = Registry::new();
        let counters = QueryCounters::register(&registry);
        counters.record(&QueryStats {
            probes: 7,
            probe_hits: 3,
            nodes_visited: 2,
            truncated: true,
            hits: 4,
            entries_examined: 9,
            ads_examined: 11,
            scanned_bytes: 123,
            early_terminations: 1,
            remapped_nodes: 1,
            remapped_scan_bytes: 60,
            tombstone_hits: 2,
            overlay_hits: 5,
        });
        counters.record(&QueryStats::default());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("broadmatch_queries_total", ""), Some(2));
        assert_eq!(snap.counter("broadmatch_probes_total", ""), Some(7));
        assert_eq!(snap.counter("broadmatch_scan_bytes_total", ""), Some(123));
        assert_eq!(snap.counter("broadmatch_remap_hits_total", ""), Some(1));
        assert_eq!(
            snap.counter("broadmatch_queries_truncated_total", ""),
            Some(1)
        );
        assert_eq!(snap.counter("broadmatch_tombstone_hits_total", ""), Some(2));
        assert_eq!(snap.counter("broadmatch_overlay_hits_total", ""), Some(5));
    }

    #[test]
    fn overlay_counters_track_state_and_compactions() {
        let registry = Registry::new();
        let counters = OverlayCounters::register(&registry);
        let mut b = crate::IndexBuilder::new();
        b.add("used books", crate::AdInfo::with_bid(1, 10)).unwrap();
        let base = b.build().unwrap();
        let mut overlay = crate::DeltaOverlay::for_base(&base);
        overlay
            .insert("red shoes", crate::AdInfo::with_bid(2, 5))
            .unwrap();
        overlay.remove(&base, "used books", 1);
        counters.inserts.inc();
        counters.removes.inc();
        counters.set_overlay_state(&overlay);
        counters.record_compaction(std::time::Duration::from_millis(3), 2);

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("broadmatch_overlay_inserts_total", ""),
            Some(1)
        );
        assert_eq!(
            snap.counter("broadmatch_overlay_removes_total", ""),
            Some(1)
        );
        assert_eq!(snap.counter("broadmatch_compactions_total", ""), Some(1));
        assert_eq!(
            snap.counter("broadmatch_compaction_ads_folded_total", ""),
            Some(2)
        );
        let text = registry.render_prometheus();
        assert!(text.contains("broadmatch_overlay_ads 1"));
        assert!(text.contains("broadmatch_overlay_tombstones 1"));
        assert!(text.contains(&format!(
            "broadmatch_overlay_dead_bytes {}",
            crate::DeltaOverlay::TOMBSTONE_COST
        )));
        assert!(text.contains("broadmatch_compaction_duration_ms"));
    }

    #[test]
    fn probe_trace_stats_round_trips_fields() {
        let stats = QueryStats {
            probes: 5,
            probe_hits: 2,
            nodes_visited: 2,
            truncated: false,
            hits: 1,
            entries_examined: 3,
            ads_examined: 4,
            scanned_bytes: 99,
            early_terminations: 1,
            remapped_nodes: 1,
            remapped_scan_bytes: 44,
            tombstone_hits: 0,
            overlay_hits: 0,
        };
        let t = probe_trace_stats(&stats);
        assert_eq!(t.probes, 5);
        assert_eq!(t.nodes_scanned, 2);
        assert_eq!(t.scanned_bytes, 99);
        assert_eq!(t.remapped_scan_bytes, 44);
        assert!(!t.truncated);
    }
}
