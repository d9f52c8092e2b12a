//! The metric registry: named, label-aware counters, gauges and latency
//! histograms, with consistent point-in-time snapshots and Prometheus text
//! exposition.
//!
//! Registration (name + label resolution) takes a lock once and hands back
//! an `Arc` handle; the hot path then touches only one atomic (counters,
//! gauges) or one short mutex (histograms). Counters are monotone, so a
//! reader snapshotting concurrently with writers always observes values
//! between "when the snapshot started" and "when it finished" — never a
//! torn or decreasing one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::histogram::LatencyHistogram;

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        // ORDER: Relaxed — standalone monotone counter; no other memory is
        // published through it, and fetch_add keeps it exact.
        self.value.fetch_add(1, Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDER: Relaxed — as in inc(): exact count, no ordering role.
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDER: Relaxed — snapshots tolerate slightly-stale counts (see
        // module docs); monotonicity comes from fetch_add, not ordering.
        self.value.load(Relaxed)
    }
}

/// A metric that can go up and down, stored as `f64` bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        // ORDER: Relaxed — last-writer-wins point-in-time value; readers
        // need no ordering with any other metric.
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        // ORDER: Relaxed — see set(); a torn read is impossible (one word).
        f64::from_bits(self.bits.load(Relaxed))
    }

    /// Add `delta` (compare-and-swap loop; gauges are not hot-path).
    pub fn add(&self, delta: f64) {
        // ORDER: Relaxed — the CAS loop only needs atomicity of the
        // read-modify-write on this one word, not ordering with others.
        let mut cur = self.bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            // ORDER: Relaxed — same single-word argument as above.
            match self.bits.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A shared, thread-safe wrapper around [`LatencyHistogram`].
///
/// Serve and net record into these on every query, where panics are
/// banned, so a poisoned lock is recovered rather than propagated: a
/// histogram stays consistent whatever a panicking holder left undone.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<LatencyHistogram>,
}

impl Histogram {
    fn lock(&self) -> MutexGuard<'_, LatencyHistogram> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one observation in milliseconds.
    pub fn record(&self, ms: f64) {
        self.lock().record(ms);
    }

    /// Clone out the current state.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.lock().clone()
    }

    /// Mean observation in milliseconds (0 when empty), read under the
    /// lock without cloning the buckets as [`Self::snapshot`] does.
    pub fn mean_ms(&self) -> f64 {
        self.lock().mean_ms()
    }
}

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Latency histogram.
    Histogram,
}

impl MetricKind {
    fn prom_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Canonical rendered label body (e.g. `shard="0"`) -> metric.
    metrics: BTreeMap<String, Metric>,
}

/// One sample in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Canonical label body, empty for unlabeled metrics.
    pub labels: String,
    /// The sampled value.
    pub value: SampleValue,
}

/// The value of one [`Sample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram state.
    Histogram(LatencyHistogram),
}

/// One metric family in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family (metric) name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Metric kind.
    pub kind: MetricKind,
    /// Samples sorted by label body.
    pub samples: Vec<Sample>,
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Look up a counter value by family name and label body.
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .samples
            .iter()
            .find(|s| s.labels == labels)
            .and_then(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
    }

    /// Sum of every sample of a counter family.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| {
                f.samples
                    .iter()
                    .map(|s| match &s.value {
                        SampleValue::Counter(v) => *v,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }
}

/// A registry of named metric families.
///
/// ```
/// use broadmatch_telemetry::Registry;
///
/// let registry = Registry::new();
/// let hits = registry.counter("probe_hits_total", "Probes that found a node", &[]);
/// hits.add(3);
/// let text = registry.render_prometheus();
/// assert!(text.contains("probe_hits_total 3"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

/// Canonical label body: `k1="v1",k2="v2"` with keys sorted.
fn label_body(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        assert!(valid_name(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide default registry. Library code that has no natural
    /// place to thread a registry through (index maintenance, the
    /// re-mapping optimizer, the network simulator) records here.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let body = label_body(labels);
        // The kind assert below panics with this guard held. It mutates
        // nothing first, so the map stays whole and a poisoned lock is
        // recovered: scrapes (which may not panic) keep working after it.
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            metrics: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered with a different kind"
        );
        family.metrics.entry(body).or_insert_with(make).clone()
    }

    /// Register (or fetch) a counter. Re-registration with identical name,
    /// kind and labels returns the same underlying counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// Register (or fetch) a latency histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Metric::Histogram(Arc::default())
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked during registration"),
        }
    }

    /// A point-in-time copy of every metric, families and samples in
    /// deterministic (sorted) order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            families: families
                .iter()
                .map(|(name, fam)| FamilySnapshot {
                    name: name.clone(),
                    help: fam.help.clone(),
                    kind: fam.kind,
                    samples: fam
                        .metrics
                        .iter()
                        .map(|(body, metric)| Sample {
                            labels: body.clone(),
                            value: match metric {
                                Metric::Counter(c) => SampleValue::Counter(c.get()),
                                Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                                Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Render every metric in the Prometheus text exposition format
    /// (version 0.0.4). Every histogram renders the same cumulative `le`
    /// bounds, in milliseconds (metric names carry an `_ms` suffix by
    /// convention): the octave edges 1 µs·2^k up to ≈67 s, then `+Inf`.
    pub fn render_prometheus(&self) -> String {
        let snapshot = self.snapshot();
        let mut out = String::new();
        for fam in &snapshot.families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.prom_name()));
            for sample in &fam.samples {
                match &sample.value {
                    SampleValue::Counter(v) => {
                        out.push_str(&render_line(&fam.name, &sample.labels, &v.to_string()));
                    }
                    SampleValue::Gauge(v) => {
                        out.push_str(&render_line(&fam.name, &sample.labels, &fmt_f64(*v)));
                    }
                    SampleValue::Histogram(h) => {
                        let bounds = h.cumulative_at_le_bounds().map(|(le, n)| (fmt_f64(le), n));
                        let inf = std::iter::once(("+Inf".to_string(), h.total()));
                        for (le, cum) in bounds.chain(inf) {
                            let body = if sample.labels.is_empty() {
                                format!("le=\"{le}\"")
                            } else {
                                format!("{},le=\"{le}\"", sample.labels)
                            };
                            out.push_str(&render_line(
                                &format!("{}_bucket", fam.name),
                                &body,
                                &cum.to_string(),
                            ));
                        }
                        out.push_str(&render_line(
                            &format!("{}_sum", fam.name),
                            &sample.labels,
                            &fmt_f64(h.sum_ms()),
                        ));
                        out.push_str(&render_line(
                            &format!("{}_count", fam.name),
                            &sample.labels,
                            &h.total().to_string(),
                        ));
                    }
                }
            }
        }
        out
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_line(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_monotone() {
        let r = Registry::new();
        let a = r.counter("requests_total", "Requests", &[("shard", "0")]);
        let b = r.counter("requests_total", "Requests", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(
            r.snapshot().counter("requests_total", "shard=\"0\""),
            Some(3)
        );
    }

    #[test]
    fn label_bodies_are_canonical() {
        assert_eq!(
            label_body(&[("b", "2"), ("a", "1")]),
            "a=\"1\",b=\"2\"",
            "labels sort by key"
        );
        assert_eq!(label_body(&[("k", "a\"b\\c")]), "k=\"a\\\"b\\\\c\"");
        assert_eq!(label_body(&[]), "");
    }

    #[test]
    fn gauges_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("depth", "Queue depth", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("x_total", "x", &[]);
        r.gauge("x_total", "x", &[]);
    }

    #[test]
    fn a_kind_conflict_does_not_break_later_scrapes() {
        let r = Registry::new();
        r.counter("x_total", "x", &[]).inc();
        let conflict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.gauge("x_total", "x", &[]);
        }));
        assert!(conflict.is_err(), "the conflict still panics");
        assert!(r.families.is_poisoned(), "it panicked holding the lock");
        assert_eq!(r.snapshot().counter("x_total", ""), Some(1));
        r.counter("y_total", "y", &[]).add(2);
        let snapshot = r.snapshot();
        assert_eq!(snapshot.counter("x_total", ""), Some(1));
        assert_eq!(snapshot.counter("y_total", ""), Some(2));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("9starts_with_digit", "bad", &[]);
    }

    #[test]
    fn histogram_mean_matches_snapshot_mean() {
        let r = Registry::new();
        let h = r.histogram("lat_ms", "Latency", &[]);
        assert_eq!(h.mean_ms(), 0.0, "empty histogram");
        assert_eq!(h.mean_ms(), h.snapshot().mean_ms());
        for ms in [0.25, 1.5, 7.0, 12.125] {
            h.record(ms);
            assert_eq!(h.mean_ms(), h.snapshot().mean_ms());
        }
        assert_eq!(h.mean_ms(), (0.25 + 1.5 + 7.0 + 12.125) / 4.0);
    }

    #[test]
    fn counter_total_sums_labels() {
        let r = Registry::new();
        r.counter("t_total", "t", &[("shard", "0")]).add(2);
        r.counter("t_total", "t", &[("shard", "1")]).add(5);
        assert_eq!(r.snapshot().counter_total("t_total"), 7);
    }
}
