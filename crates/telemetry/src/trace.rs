//! A lightweight sampling span tracer for per-query probe traces.
//!
//! The serving hot path cannot afford to trace every query, so the tracer
//! samples 1 in N: [`Tracer::maybe_trace`] is one `fetch_add` for the
//! N-1 untraced queries and only allocates for the sampled one. A sampled
//! query gets a [`TraceBuilder`]; instrumented stages open [`SpanGuard`]s
//! around their work (admission wait, plan, execute, finish, overlay) and
//! the guard's `Drop` records a monotonic start/duration pair. Finished
//! traces land in a bounded ring buffer that callers (the `ad_server`
//! `:trace` command, experiment reports) drain at leisure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Per-query probe-level statistics attached to a [`QueryTrace`].
///
/// These mirror the paper's cost drivers: hash probes issued (random
/// accesses), nodes scanned sequentially, bytes consumed by those scans,
/// and how much of the scanning was spent in remapped (set-cover
/// materialized) nodes versus single-subset nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTraceStats {
    /// Hash-table probes issued (subsets enumerated that were looked up).
    pub probes: usize,
    /// Probes that found a node in the directory.
    pub probe_hits: usize,
    /// Distinct nodes scanned after deduplication.
    pub nodes_scanned: usize,
    /// Word-set entries examined across all scanned nodes.
    pub entries_examined: usize,
    /// Ad ids examined across all scanned nodes.
    pub ads_examined: usize,
    /// Bytes consumed by sequential node scans.
    pub scanned_bytes: usize,
    /// Scans cut short by the `max_word_count` early-termination test.
    pub early_terminations: usize,
    /// Scanned nodes that were remapped (shared, set-cover) nodes.
    pub remapped_nodes: usize,
    /// Bytes scanned inside remapped nodes.
    pub remapped_scan_bytes: usize,
    /// Whether subset enumeration was truncated by the query-length cap.
    pub truncated: bool,
}

/// One closed span inside a query trace.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (e.g. `plan`, `execute`, `finish`, `shard`).
    pub name: &'static str,
    /// Microseconds from the trace origin to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// A finished, sampled query trace.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Sequence number of the query among all queries seen by the tracer
    /// (not just the sampled ones).
    pub seq: u64,
    /// Total wall-clock from trace creation to finish, in microseconds.
    pub total_us: u64,
    /// Closed spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Probe-level statistics for the traced query.
    pub probe: ProbeTraceStats,
}

/// Records spans for one sampled query. Created by
/// [`Tracer::maybe_trace`]; finished with [`Tracer::finish`].
#[derive(Debug)]
pub struct TraceBuilder {
    seq: u64,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceBuilder {
    /// Open a named span; it closes (and is recorded) when the returned
    /// guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            builder: self,
            name,
            start: Instant::now(),
        }
    }

    fn push(&self, name: &'static str, start: Instant, end: Instant) {
        let start_us = start.duration_since(self.origin).as_micros() as u64;
        let dur_us = end.duration_since(start).as_micros() as u64;
        self.spans
            .lock()
            .expect("trace span lock poisoned")
            .push(SpanRecord {
                name,
                start_us,
                dur_us,
            });
    }
}

/// Closes its span on drop. Tied to the [`TraceBuilder`] that created it.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    builder: &'a TraceBuilder,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.builder.push(self.name, self.start, Instant::now());
    }
}

/// Default sampling rate: trace 1 in this many queries.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Default capacity of the finished-trace ring buffer.
pub const DEFAULT_RING_CAP: usize = 256;

/// A sampling tracer with a bounded ring of finished traces.
#[derive(Debug)]
pub struct Tracer {
    /// Trace 1 in `sample_every` queries; 0 disables tracing entirely.
    sample_every: u64,
    seen: AtomicU64,
    ring: Mutex<VecDeque<QueryTrace>>,
    ring_cap: usize,
}

impl Tracer {
    /// A tracer sampling 1 in `sample_every` queries (0 = disabled),
    /// keeping the most recent `ring_cap` finished traces.
    pub fn new(sample_every: u64, ring_cap: usize) -> Self {
        Tracer {
            sample_every,
            seen: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            ring_cap,
        }
    }

    /// A tracer that never samples (every `maybe_trace` returns `None`).
    pub fn disabled() -> Self {
        Tracer::new(0, 0)
    }

    /// The configured sampling interval (0 = disabled).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Queries observed so far (sampled or not).
    pub fn seen(&self) -> u64 {
        // ORDER: Relaxed — observability counter; staleness is acceptable
        // and no other state is published through it.
        self.seen.load(Relaxed)
    }

    /// Count one query; returns a builder iff this query is sampled.
    /// The first query is always sampled so short-lived processes still
    /// produce at least one trace.
    pub fn maybe_trace(&self) -> Option<TraceBuilder> {
        if self.sample_every == 0 {
            return None;
        }
        // ORDER: Relaxed — the fetch_add only needs to hand out unique
        // sequence numbers; sampling decisions need no cross-thread order.
        let seq = self.seen.fetch_add(1, Relaxed);
        if !seq.is_multiple_of(self.sample_every) {
            return None;
        }
        Some(TraceBuilder {
            seq,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Close a sampled trace, attach its probe statistics, and push it
    /// into the ring (evicting the oldest trace when full).
    pub fn finish(&self, builder: TraceBuilder, probe: ProbeTraceStats) {
        let total_us = builder.origin.elapsed().as_micros() as u64;
        let spans = builder
            .spans
            .into_inner()
            .expect("trace span lock poisoned");
        let trace = QueryTrace {
            seq: builder.seq,
            total_us,
            spans,
            probe,
        };
        let mut ring = self.ring.lock().expect("trace ring lock poisoned");
        if self.ring_cap == 0 {
            return;
        }
        if ring.len() == self.ring_cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The most recent finished traces, oldest first (up to `limit`).
    pub fn recent(&self, limit: usize) -> Vec<QueryTrace> {
        let ring = self.ring.lock().expect("trace ring lock poisoned");
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Number of traces currently buffered.
    pub fn buffered(&self) -> usize {
        self.ring.lock().expect("trace ring lock poisoned").len()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_SAMPLE_EVERY, DEFAULT_RING_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_one_in_n() {
        let tracer = Tracer::new(4, 16);
        let mut sampled = 0;
        for _ in 0..16 {
            if let Some(t) = tracer.maybe_trace() {
                sampled += 1;
                tracer.finish(t, ProbeTraceStats::default());
            }
        }
        assert_eq!(sampled, 4);
        assert_eq!(tracer.seen(), 16);
        assert_eq!(tracer.buffered(), 4);
    }

    #[test]
    fn disabled_tracer_never_samples() {
        let tracer = Tracer::disabled();
        for _ in 0..8 {
            assert!(tracer.maybe_trace().is_none());
        }
        assert_eq!(tracer.seen(), 0);
    }

    #[test]
    fn spans_record_names_and_nest() {
        let tracer = Tracer::new(1, 8);
        let t = tracer.maybe_trace().expect("first query is sampled");
        {
            let _outer = t.span("execute");
            let _inner = t.span("shard");
        }
        tracer.finish(
            t,
            ProbeTraceStats {
                probes: 7,
                ..Default::default()
            },
        );
        let traces = tracer.recent(8);
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        // Guards drop inner-first.
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["shard", "execute"]);
        assert_eq!(trace.probe.probes, 7);
        assert!(trace.spans.iter().all(|s| s.start_us <= trace.total_us));
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let tracer = Tracer::new(1, 3);
        for _ in 0..10 {
            let t = tracer.maybe_trace().unwrap();
            tracer.finish(t, ProbeTraceStats::default());
        }
        let traces = tracer.recent(10);
        assert_eq!(traces.len(), 3);
        let seqs: Vec<u64> = traces.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
    }
}
