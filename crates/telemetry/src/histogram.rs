//! The one latency histogram every latency family records into.
//!
//! Log-linear (HDR-style) buckets over integer nanoseconds: each
//! power-of-two octave is split into [`SUB`] equal sub-buckets, so a
//! bucket is never wider than 1/128 (< 0.8%) of the values it holds from
//! 256 ns up to the top of the range (2^36 ns ≈ 68.7 s); values below
//! 256 ns get 1 ns buckets. The geometry is fixed: a serve query at 8 µs,
//! a routed query at 124 µs and a simulated Fig. 9 request at 10 ms are
//! all resolved to within 1% by the same type. Count, sum and maximum are
//! exact.
//!
//! The paper's Fig. 9 5 ms ranges are a view of this distribution:
//! [`LatencyHistogram::fraction_below`] at two range edges.

/// log2 of the linear sub-buckets per octave.
const SUB_BITS: u32 = 7;
/// Linear sub-buckets per power-of-two octave.
const SUB: usize = 1 << SUB_BITS;
/// The last nanosecond on the bucket grid (2^36 ns ≈ 68.7 s); larger
/// values (and +∞) clamp into the top bucket.
const MAX_NS: u64 = (1 << 36) - 1;

/// The bucket index of `ns` on the `[lo, lo + width)` grid, with
/// `width = 2^shift`: values below `2 * SUB` sit in 1 ns buckets, and each
/// octave above adds one to `shift`. Recorded values are placed with
/// [`bucket_holding`], which makes buckets upper-inclusive.
const fn bucket_of(ns: u64) -> usize {
    let ns = if ns > MAX_NS { MAX_NS } else { ns };
    let shift = (u64::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
    shift as usize * SUB + (ns >> shift) as usize
}

/// The bucket a recorded value of `ns` lands in: bucket `i` holds
/// `(lo, hi]` of [`bucket_range`] (bucket 0 also holds 0), so every
/// observation at or below an edge sits in a bucket below it, as a
/// Prometheus `le` bound requires.
fn bucket_holding(ns: u64) -> usize {
    bucket_of(ns.saturating_sub(1))
}

/// `(lo, hi)` in nanoseconds of bucket `i` (the inverse of [`bucket_of`]).
fn bucket_range(i: usize) -> (u64, u64) {
    let shift = (i / SUB).saturating_sub(1);
    let lo = ((i - shift * SUB) as u64) << shift;
    (lo, lo + (1 << shift))
}

/// A log-linear latency histogram with exact count, sum and maximum.
///
/// ```
/// use broadmatch_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for _ in 0..100 {
///     h.record(0.008); // 8 µs
/// }
/// assert!((h.percentile_ms(0.5) - 0.008).abs() < 0.008 * 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// `counts[i]` = observations in bucket `i`; grows to the highest
    /// bucket recorded, so a µs-only histogram stays small to copy.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one latency observation, in milliseconds. Never panics: NaN
    /// and negative values count as 0, +∞ and values past ≈68.7 s land in
    /// the top bucket, and every call adds one to the count.
    pub fn record(&mut self, ms: f64) {
        // To the nearest ns; `as` saturates: NaN and negatives become 0,
        // +∞ becomes u64::MAX.
        let ns = (ms * 1e6).round() as u64;
        let i = bucket_holding(ns);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations in milliseconds (Prometheus `_sum`).
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms() / self.total as f64
        }
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }

    /// Percentile (`0.0..=1.0`) by linear interpolation within the bucket
    /// holding that rank, capped at the maximum. Returns 0 when empty.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, hi) = bucket_range(i);
                let within = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                let ns = lo as f64 + within * (hi - lo) as f64;
                return ns.min(self.max_ns as f64) / 1e6;
            }
            below += c;
        }
        self.max_ms()
    }

    /// Fraction of observations below `ms`, interpolating linearly within
    /// the bucket `ms` falls in (0 when empty). Fig. 9's 5 ms range
    /// `[a, b)` is `fraction_below(b) - fraction_below(a)`.
    pub fn fraction_below(&self, ms: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let x = (ms * 1e6).max(0.0);
        let i = bucket_holding(x.ceil() as u64);
        let (lo, hi) = bucket_range(i);
        let within = ((x - lo as f64) / (hi - lo) as f64).clamp(0.0, 1.0);
        let c = self.counts.get(i).copied().unwrap_or(0);
        (self.count_below(i) as f64 + within * c as f64) / self.total as f64
    }

    /// Observations in buckets below bucket `i`.
    fn count_below(&self, i: usize) -> u64 {
        self.counts.iter().take(i).sum()
    }

    /// Cumulative counts at the Prometheus `le` bounds: the octave edges
    /// 1 µs·2^k up to ≈67 s, as `(bound_ms, observations ≤ bound)`. Each
    /// bound is an exact bucket edge, so the counts are exact.
    pub(crate) fn cumulative_at_le_bounds(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..27).map(move |k| {
            let edge_ns = 1_000u64 << k;
            (edge_ns as f64 / 1e6, self.count_below(bucket_of(edge_ns)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of buckets covering `[0, MAX_NS]`.
    const BUCKETS: usize = bucket_of(MAX_NS) + 1;

    /// splitmix64: a seeded stream for the accuracy tests.
    fn uniform_stream(seed: u64) -> impl Iterator<Item = f64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        })
    }

    /// Log-uniform over 1 µs – 10 s, in ms.
    fn log_uniform_ms(n: usize) -> Vec<f64> {
        uniform_stream(42)
            .take(n)
            .map(|u| 1e-3 * 10f64.powf(7.0 * u))
            .collect()
    }

    #[test]
    fn buckets_and_moments() {
        let mut h = LatencyHistogram::new();
        for ms in [1.0, 2.0, 6.0, 12.0, 999.0] {
            h.record(ms);
        }
        assert_eq!(h.total(), 5);
        assert!((h.mean_ms() - 204.0).abs() < 1e-9);
        assert_eq!(h.max_ms(), 999.0);
        assert_eq!(h.sum_ms(), 1020.0);
    }

    #[test]
    fn geometry_is_contiguous_and_within_one_percent() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} leaves a gap");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            if lo >= 1_000 {
                assert!((hi - lo) as f64 <= 0.01 * lo as f64, "bucket {i} too wide");
            }
            next = hi;
        }
        assert_eq!(next, MAX_NS + 1);
        assert!(MAX_NS as f64 >= 60e9, "range reaches a minute");
    }

    #[test]
    fn le_bounds_are_exact_bucket_edges() {
        let h = LatencyHistogram::new();
        for (ms, _) in h.cumulative_at_le_bounds() {
            let ns = (ms * 1e6).round() as u64;
            assert_eq!(bucket_range(bucket_of(ns)).0, ns, "{ms} ms is not an edge");
        }
    }

    #[test]
    fn a_value_on_an_edge_counts_at_that_le_bound() {
        let mut h = LatencyHistogram::new();
        h.record(0.008);
        h.record(0.0081);
        let at = |le: f64| {
            h.cumulative_at_le_bounds()
                .find(|&(b, _)| b == le)
                .unwrap()
                .1
        };
        assert_eq!(at(0.004), 0);
        assert_eq!(at(0.008), 1, "8 µs is ≤ le=0.008");
        assert_eq!(at(0.016), 2);
        assert_eq!(h.fraction_below(0.008), 0.5);
    }

    #[test]
    fn constant_streams_resolve_to_one_percent() {
        for ms in [0.008, 0.124, 900.0] {
            let mut h = LatencyHistogram::new();
            for _ in 0..1_000 {
                h.record(ms);
            }
            for p in [0.5, 0.99] {
                let v = h.percentile_ms(p);
                assert!((v - ms).abs() <= 0.01 * ms, "p{p} of {ms} ms reads {v}");
            }
        }
    }

    #[test]
    fn log_uniform_percentiles_match_exact_quantiles() {
        let mut samples = log_uniform_ms(100_000);
        let mut h = LatencyHistogram::new();
        for &ms in &samples {
            h.record(ms);
        }
        samples.sort_by(f64::total_cmp);
        for p in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let exact = samples[((p * samples.len() as f64).ceil() as usize).max(1) - 1];
            let v = h.percentile_ms(p);
            assert!(
                (v - exact).abs() <= 0.01 * exact,
                "p{p}: histogram {v} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fraction_below_is_within_its_bucket_mass() {
        let samples = log_uniform_ms(20_000);
        let mut h = LatencyHistogram::new();
        for &ms in &samples {
            h.record(ms);
        }
        let n = samples.len() as f64;
        for x in [0.0015, 0.05, 1.0, 5.0, 10.0, 123.4, 4_000.0] {
            let exact = samples.iter().filter(|&&s| s < x).count() as f64 / n;
            let i = bucket_holding((x * 1e6).ceil() as u64);
            let mass = h.counts.get(i).copied().unwrap_or(0) as f64 / n;
            let got = h.fraction_below(x);
            assert!(
                (got - exact).abs() <= mass + 1e-12,
                "fraction_below({x}) = {got}, exact {exact}, bucket mass {mass}"
            );
        }
        assert_eq!(h.fraction_below(1e9), 1.0);
        assert_eq!(h.fraction_below(-1.0), 0.0);
    }

    #[test]
    fn non_finite_and_negative_input_is_counted_not_fatal() {
        let mut h = LatencyHistogram::new();
        for ms in [f64::NAN, -3.0, f64::NEG_INFINITY] {
            h.record(ms);
        }
        assert_eq!(h.total(), 3);
        assert_eq!(h.sum_ms(), 0.0);
        assert_eq!(h.percentile_ms(1.0), 0.0, "all three count as 0");
        h.record(f64::INFINITY);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts.len(), BUCKETS, "+inf lands in the top bucket");
        assert_eq!(h.counts[BUCKETS - 1], 1);
        assert!(h.mean_ms().is_finite());
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // 0..100ms uniform
        }
        let p50 = h.percentile_ms(0.5);
        let p95 = h.percentile_ms(0.95);
        let p99 = h.percentile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!((p50 - 50.0).abs() < 0.5, "p50 {p50}");
        assert!((p95 - 95.0).abs() < 1.0, "p95 {p95}");
    }

    #[test]
    fn exact_overflow_boundary_lands_in_overflow_bucket() {
        // The first value past the range and the last value inside it
        // share the top bucket; beyond it nothing grows.
        let top_ms = (MAX_NS + 1) as f64 / 1e6;
        let mut h = LatencyHistogram::new();
        h.record(top_ms);
        assert_eq!(h.counts.len(), BUCKETS);
        let mut g = LatencyHistogram::new();
        g.record(top_ms - 1e-6);
        assert_eq!(g.counts.len(), BUCKETS);
        // The sole observation is both in the top bucket and the max:
        // every percentile reports a value within 1% of it.
        for p in [0.0, 0.5, 1.0] {
            let v = h.percentile_ms(p);
            assert!(v <= top_ms && v >= 0.99 * top_ms, "p{p} {v}");
        }
    }

    #[test]
    fn overflow_percentiles_interpolate_and_stay_monotone() {
        let mut h = LatencyHistogram::new();
        for ms in [1.0, 21.0, 30.0, 100.0, 80_000.0, 200_000.0] {
            h.record(ms);
        }
        let mut prev = 0.0;
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let v = h.percentile_ms(p);
            assert!(v >= prev, "quantile not monotone at p={p}: {v} < {prev}");
            assert!(v <= h.max_ms());
            prev = v;
        }
        // Past-range values clamp into the top bucket, so ranks there
        // read within the range, not the 200 s maximum.
        assert!(h.percentile_ms(1.0) <= (MAX_NS + 1) as f64 / 1e6);
        assert_eq!(h.max_ms(), 200_000.0);
    }
}
