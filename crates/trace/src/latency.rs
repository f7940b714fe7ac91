//! Log-linear histograms of `u64` samples: one bucket layout at two
//! resolutions.
//!
//! Every power of two is a *group* of `2^SUB_BITS` equal-width sub-buckets
//! (the HdrHistogram layout) and values below `2^SUB_BITS` get a bucket
//! each, so the quantization error of a recorded value — and therefore of
//! a reported percentile — is at most `2^-SUB_BITS` of it:
//!
//! * [`Histogram`], 0 sub-bucket bits: plain log2 buckets, one histogram
//!   per trace-event kind. Fine for event magnitudes, but a p999 read off
//!   it can be off by ~2x.
//! * [`LatencyHistogram`], 5 bits: ~3.1% worst-case error, for
//!   per-transaction tail latency.
//!
//! Everything here is integer bucket arithmetic over `u64` cycle counts;
//! two runs that record the same samples produce bit-identical
//! summaries, which the determinism suite relies on.

/// Fixed-point percentile summary of a latency distribution, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Histogram with `2^SUB_BITS` linear sub-buckets per power of two, held
/// inline: `BUCKETS` must be `(64 - SUB_BITS + 1) << SUB_BITS` (one exact
/// group below `2^SUB_BITS`, then one group per remaining power of two),
/// which construction checks at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram<const SUB_BITS: u32, const BUCKETS: usize> {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

/// Log2-bucketed histogram: bucket 0 is `[0,0]` and bucket `i` is
/// `[2^(i-1), 2^i - 1]`.
pub type Histogram = LogHistogram<0, 65>;

/// Histogram with `2^-5` (~3.1%) worst-case relative quantization error.
pub type LatencyHistogram = LogHistogram<5, 1920>;

impl<const SUB_BITS: u32, const BUCKETS: usize> Default for LogHistogram<SUB_BITS, BUCKETS> {
    fn default() -> Self {
        const { assert!(BUCKETS == (64 - SUB_BITS as usize + 1) << SUB_BITS) };
        LogHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl<const SUB_BITS: u32, const BUCKETS: usize> LogHistogram<SUB_BITS, BUCKETS> {
    /// Sub-buckets per group.
    const SUB: usize = 1 << SUB_BITS;

    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for value `v`: its top `SUB_BITS + 1` significant bits
    /// pick the sub-bucket, the `shift` that exposes them picks the group.
    /// Below `2^SUB_BITS` the shift is 0 and the index is the value.
    fn index(v: u64) -> usize {
        let shift = (v | Self::SUB as u64).ilog2() - SUB_BITS;
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }

    /// Inclusive value range covered by bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        let group = i >> SUB_BITS;
        let within = (i % Self::SUB) as u64;
        if group == 0 {
            (within, within)
        } else {
            let width = 1u64 << (group - 1);
            let lo = (Self::SUB as u64 + within) * width;
            (lo, lo + (width - 1))
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Fold another histogram's samples into this one (bucket-wise sum;
    /// equivalent to having observed the other's samples here).
    pub fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Any samples recorded?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimate the `p`-th percentile (`p` in 0..=100, e.g. `99.9`).
    ///
    /// Walks the cumulative distribution to the covering bucket and
    /// interpolates linearly inside it, assuming samples spread uniformly
    /// there. The result is clamped to `[bucket_lo, max]`, so single-value
    /// buckets report exactly, the error is bounded by the bucket width
    /// and the top of the distribution never exceeds the observed maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // 1-based rank of the sample that sits at the requested quantile.
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= target {
                let (lo, hi) = Self::bucket_range(i);
                let frac = ((target - cum) as f64 - 0.5) / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est.round() as u64).clamp(lo, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Non-empty `(bucket_low, bucket_high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, *c)
            })
            .collect()
    }

    /// Count / mean / max / p50 / p99 / p999 in one call.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            max: self.max,
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.observe(v);
        }
        // Group 0 stores each value in its own bucket: percentiles of a
        // uniform 0..32 distribution land on the true rank's value.
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.count(), 32);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn index_and_range_roundtrip() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, (1 << 20) + 12345, u64::MAX] {
            let i = LatencyHistogram::index(v);
            assert!(i < 1920, "index {i} out of range for v={v}");
            let (lo, hi) = LatencyHistogram::bucket_range(i);
            assert!(lo <= v && v <= hi, "v={v} not in bucket [{lo},{hi}]");
            // Bounded relative width: (hi - lo) <= lo / 32 for group >= 1.
            if v >= 32 {
                assert!(hi - lo <= lo >> 5, "bucket [{lo},{hi}] too wide");
            }
        }
    }

    #[test]
    fn indexes_are_monotone_and_contiguous() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = LatencyHistogram::index(v);
            assert!(i == prev || i == prev + 1, "index jumped {prev} -> {i} at v={v}");
            prev = i;
        }
    }

    #[test]
    fn percentile_error_is_bounded() {
        // 10_000 samples spread over several decades; the reported pXX
        // must sit within 1/32 relative error of the true order statistic.
        let mut h = LatencyHistogram::new();
        let mut vals: Vec<u64> = (0..10_000u64).map(|i| (i * i) / 7 + 100).collect();
        for &v in &vals {
            h.observe(v);
        }
        vals.sort_unstable();
        for p in [0.0, 50.0, 90.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * vals.len() as f64).ceil().max(1.0) as usize - 1;
            let truth = vals[rank] as f64;
            let got = h.percentile(p) as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 1.0 / 32.0 + 1e-9, "p{p}: got {got}, true {truth}, rel err {rel}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut u = LatencyHistogram::new();
        for v in 0..500u64 {
            let x = v * 37 + 11;
            if v % 2 == 0 {
                a.observe(x);
            } else {
                b.observe(x);
            }
            u.observe(x);
        }
        a.merge(&b);
        assert_eq!(a, u);
        assert_eq!(a.summary(), u.summary());
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = LatencyHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p999, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn zeroth_percentile_does_not_underflow() {
        // p = 0.0 used to produce a rank of ceil(0) - 1, underflowing the
        // subtraction; the target is clamped to the first sample instead.
        assert_eq!(LatencyHistogram::new().percentile(0.0), 0);
        let mut h = LatencyHistogram::new();
        h.observe(7);
        h.observe(900);
        assert_eq!(h.percentile(0.0), 7);
        assert_eq!(h.percentile(100.0), h.max());
    }

    /// Every value at which either layout starts or ends a bucket group.
    fn boundaries() -> Vec<u64> {
        let mut v = vec![0, 1, 31, 32, 33, u64::MAX];
        for k in 1..64 {
            v.extend([(1u64 << k) - 1, 1 << k]);
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Both layouts at every bucket boundary. The percentile literals were
    /// read off the two separate implementations this type replaced, which
    /// this test matched on index, range and p50 / p99 / p999 at every
    /// boundary before they were deleted.
    #[test]
    fn both_layouts_are_pinned_at_every_bucket_boundary() {
        let (mut log2, mut lat) = (Histogram::new(), LatencyHistogram::new());
        for v in boundaries() {
            // bucket(0) = 0, bucket(v) = 1 + floor(log2 v).
            let i = Histogram::index(v);
            assert_eq!(i, (64 - v.leading_zeros()) as usize, "log2 index of {v}");
            let floor = if i == 0 { 0 } else { 1u64 << (i - 1) };
            assert_eq!(Histogram::bucket_range(i), (floor, floor + floor.saturating_sub(1)));
            let (lo, hi) = LatencyHistogram::bucket_range(LatencyHistogram::index(v));
            assert!(lo <= v && v <= hi && hi - lo <= lo >> 5, "{v} in [{lo},{hi}]");

            // One sample alone reads back from inside its bucket, never
            // above itself.
            let (mut one, mut one_lat) = (Histogram::new(), LatencyHistogram::new());
            one.observe(v);
            one_lat.observe(v);
            for p in [50.0, 99.0, 99.9] {
                assert!((floor..=v).contains(&one.percentile(p)), "log2 p{p} of [{v}]");
                assert!((lo..=v).contains(&one_lat.percentile(p)), "latency p{p} of [{v}]");
            }
            // The running distribution, while the sample sum fits a u64.
            if v < 1 << 57 {
                log2.observe(v);
                lat.observe(v);
            }
        }
        assert_eq!(
            [50.0, 99.0, 99.9].map(|p| log2.percentile(p)),
            [335_544_320, 90_071_992_547_409_920, 126_100_789_566_373_888]
        );
        let s = lat.summary();
        assert_eq!(
            (s.p50, s.p99, s.p999),
            (272_629_760, 73_183_493_944_770_560, 142_989_288_169_013_248)
        );
    }
}
