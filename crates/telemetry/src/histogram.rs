//! Latency histograms in the same 5 ms buckets the network simulator
//! reports (paper Fig. 9), plus a raw-sample reservoir so measured service
//! times can seed `broadmatch-netsim`'s empirical service distribution.
//!
//! Promoted out of `broadmatch-serve` so every crate (serve, bench,
//! examples) shares one histogram type through the telemetry registry.

/// Default bucket width — matches `broadmatch-netsim`'s reporting buckets.
pub const DEFAULT_BUCKET_MS: f64 = 5.0;

/// Raw samples kept for calibration (reservoir-sampled beyond this).
const RESERVOIR_CAP: usize = 4096;

/// Minimal PCG-XSH-RR 64/32 for reservoir sampling. Inlined (rather than
/// depending on `broadmatch-rng`) because this crate must stay
/// dependency-free; the constants and output function match O'Neill's
/// reference implementation, so the stream is identical to
/// `broadmatch_rng::Pcg32` for the same seed.
#[derive(Debug, Clone)]
struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (0xda3e_39cb_94b9_5bdb << 1) | 1,
        };
        rng.state = rng.inc.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    fn next_u64(&mut self) -> u64 {
        (self.next_u32() as u64) << 32 | self.next_u32() as u64
    }

    /// Uniform in `[0, n)` by multiply-shift (bias < 2^-32 for the small
    /// `n` reservoir sampling uses).
    fn gen_index(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A fixed-width latency histogram with an overflow bucket and a uniform
/// reservoir of raw samples.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    bucket_ms: f64,
    /// `counts[i]` covers `[i*bucket_ms, (i+1)*bucket_ms)`; the last slot
    /// is the overflow bucket covering `[buckets*bucket_ms, ∞)`.
    counts: Vec<u64>,
    total: u64,
    sum_ms: f64,
    max_ms: f64,
    reservoir: Vec<f64>,
    rng: Pcg32,
}

impl LatencyHistogram {
    /// A histogram with `buckets` regular buckets of `bucket_ms` width
    /// (plus one overflow bucket).
    pub fn new(bucket_ms: f64, buckets: usize) -> Self {
        assert!(bucket_ms > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        LatencyHistogram {
            bucket_ms,
            counts: vec![0; buckets + 1],
            total: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
            reservoir: Vec::new(),
            rng: Pcg32::seed_from_u64(0x004C_4154_454E_4359), // "LATENCY"
        }
    }

    /// The netsim-compatible default: 40 buckets of 5 ms (0–200 ms span).
    pub fn netsim_default() -> Self {
        LatencyHistogram::new(DEFAULT_BUCKET_MS, 40)
    }

    /// Record one latency observation, in milliseconds.
    pub fn record(&mut self, ms: f64) {
        let ms = ms.max(0.0);
        // A value landing exactly on `buckets * bucket_ms` belongs to the
        // overflow bucket: regular bucket `i` is half-open at the top.
        let bucket = ((ms / self.bucket_ms) as usize).min(self.counts.len() - 1);
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        if self.reservoir.len() < RESERVOIR_CAP {
            self.reservoir.push(ms);
        } else {
            // Vitter's algorithm R: keep a uniform sample of everything seen.
            let j = self.rng.gen_index(self.total as usize);
            if j < RESERVOIR_CAP {
                self.reservoir[j] = ms;
            }
        }
    }

    /// Fold another histogram into this one (must share bucket geometry).
    ///
    /// Counts, moments and the maximum merge exactly, so
    /// [`LatencyHistogram::percentile_ms`] of the merged histogram equals
    /// the percentile of a histogram that recorded both streams directly.
    /// The reservoir merge keeps each side's samples in proportion to its
    /// observation count, so the merged reservoir stays (approximately)
    /// uniform over the union of both streams.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.bucket_ms, other.bucket_ms, "bucket width mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        let self_total_before = self.total;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
        // Each of `other`'s reservoir samples stands for an equal share of
        // `other.total` observations; admit it with the probability a
        // combined-stream reservoir would have retained it.
        let p_other = if self.total == 0 {
            0.0
        } else {
            other.total as f64 / (self_total_before + other.total) as f64
        };
        for &s in &other.reservoir {
            if self.reservoir.len() < RESERVOIR_CAP {
                self.reservoir.push(s);
            } else if self.rng.gen_f64() < p_other {
                let j = self.rng.gen_index(RESERVOIR_CAP);
                self.reservoir[j] = s;
            }
        }
    }

    /// Bucket width in milliseconds.
    pub fn bucket_ms(&self) -> f64 {
        self.bucket_ms
    }

    /// Per-bucket counts (last slot is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations in milliseconds (Prometheus `_sum`).
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms / self.total as f64
        }
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Approximate percentile (`0.0..=1.0`) by linear interpolation within
    /// the containing bucket. Returns 0 when empty.
    ///
    /// Ranks landing in the overflow bucket interpolate between the
    /// overflow boundary (`buckets * bucket_ms`) and the observed maximum,
    /// instead of jumping straight to the maximum — this keeps the quantile
    /// function monotone across the boundary and makes merged and unmerged
    /// histograms agree (both depend only on counts and the maximum).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = p * self.total as f64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = acc + c;
            if next as f64 >= rank {
                let within = ((rank - acc as f64) / c as f64).clamp(0.0, 1.0);
                let lo = i as f64 * self.bucket_ms;
                let hi = if i == self.counts.len() - 1 {
                    // Overflow bucket: spans [boundary, max observed].
                    self.max_ms.max(lo)
                } else {
                    lo + self.bucket_ms
                };
                return lo + within * (hi - lo);
            }
            acc = next;
        }
        self.max_ms
    }

    /// The raw-sample reservoir (uniform over all observations) — feeds
    /// `broadmatch_netsim::ServiceDist::from_samples` for calibration at
    /// sub-bucket resolution.
    pub fn samples(&self) -> &[f64] {
        &self.reservoir
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::netsim_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_moments() {
        let mut h = LatencyHistogram::new(5.0, 4);
        for ms in [1.0, 2.0, 6.0, 12.0, 999.0] {
            h.record(ms);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.total(), 5);
        assert!((h.mean_ms() - 204.0).abs() < 1e-9);
        assert_eq!(h.max_ms(), 999.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new(5.0, 4);
        let mut b = LatencyHistogram::new(5.0, 4);
        a.record(1.0);
        b.record(7.0);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1, 0, 0, 0]);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::netsim_default();
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // 0..100ms uniform
        }
        let p50 = h.percentile_ms(0.5);
        let p95 = h.percentile_ms(0.95);
        let p99 = h.percentile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!((p50 - 50.0).abs() < 5.0, "p50 {p50}");
        assert!((p95 - 95.0).abs() < 5.0, "p95 {p95}");
    }

    #[test]
    fn exact_overflow_boundary_lands_in_overflow_bucket() {
        // 4 regular buckets of 5 ms span [0, 20); exactly 20.0 ms is the
        // first value of the overflow bucket.
        let mut h = LatencyHistogram::new(5.0, 4);
        h.record(20.0);
        assert_eq!(h.counts(), &[0, 0, 0, 0, 1]);
        // Just below the boundary stays in the last regular bucket.
        let mut g = LatencyHistogram::new(5.0, 4);
        g.record(20.0 - 1e-9);
        assert_eq!(g.counts(), &[0, 0, 0, 1, 0]);
        // The sole observation is both the boundary and the max: every
        // percentile must report a value in [20, 20].
        assert!((h.percentile_ms(0.5) - 20.0).abs() < 1e-9);
        assert!((h.percentile_ms(1.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_percentiles_interpolate_and_stay_monotone() {
        let mut h = LatencyHistogram::new(5.0, 4);
        for ms in [1.0, 21.0, 30.0, 100.0] {
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
        // A mid-overflow rank must not report the maximum.
        let p_mid = h.percentile_ms(0.5);
        assert!((20.0..100.0).contains(&p_mid), "p50 {p_mid}");
    }

    #[test]
    fn merged_and_unmerged_quantiles_agree() {
        let stream_a: Vec<f64> = (0..500).map(|i| i as f64 / 7.0).collect();
        let stream_b: Vec<f64> = (0..300).map(|i| 30.0 + i as f64 / 3.0).collect();

        let mut merged = LatencyHistogram::new(5.0, 8);
        let mut part = LatencyHistogram::new(5.0, 8);
        let mut direct = LatencyHistogram::new(5.0, 8);
        for &ms in &stream_a {
            merged.record(ms);
            direct.record(ms);
        }
        for &ms in &stream_b {
            part.record(ms);
            direct.record(ms);
        }
        merged.merge(&part);
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let m = merged.percentile_ms(p);
            let d = direct.percentile_ms(p);
            assert!(
                (m - d).abs() < 1e-9,
                "p{p}: merged {m} vs direct {d} diverge"
            );
        }
    }

    #[test]
    fn merge_reservoir_is_proportional() {
        // 12K low samples merged with 4K high samples: the merged reservoir
        // should hold roughly 25% high samples, not ~100% as a naive
        // always-replace merge would produce.
        let mut a = LatencyHistogram::netsim_default();
        for _ in 0..12_000 {
            a.record(1.0);
        }
        let mut b = LatencyHistogram::netsim_default();
        for _ in 0..4_000 {
            b.record(100.0);
        }
        a.merge(&b);
        assert_eq!(a.samples().len(), 4096);
        let high = a.samples().iter().filter(|&&s| s > 50.0).count();
        let frac = high as f64 / 4096.0;
        assert!(
            (frac - 0.25).abs() < 0.08,
            "merged reservoir skewed: {frac}"
        );
    }

    #[test]
    fn reservoir_is_capped_and_representative() {
        let mut h = LatencyHistogram::netsim_default();
        for i in 0..20_000 {
            h.record(if i % 2 == 0 { 1.0 } else { 100.0 });
        }
        assert_eq!(h.samples().len(), 4096);
        let low = h.samples().iter().filter(|&&s| s < 50.0).count();
        let frac = low as f64 / 4096.0;
        assert!((frac - 0.5).abs() < 0.1, "reservoir skewed: {frac}");
    }
}
