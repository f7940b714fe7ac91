//! Counter / histogram metrics registry.
//!
//! `BTreeMap` keys give deterministic iteration order, so reports and JSON
//! dumps are stable across runs — the same property the rest of the
//! simulator guarantees for its statistics.

use crate::latency::Histogram;

#[expect(clippy::disallowed_types, reason = "off the access path: report order is key order")]
type ByName<V> = std::collections::BTreeMap<String, V>;

/// Named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: ByName<u64>,
    histograms: ByName<Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `by` to counter `name` (created at zero on first use).
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Record `v` into histogram `name` (created on first use).
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merge a pre-accumulated histogram into histogram `name` (used by
    /// hot paths that tally into flat arrays and fold once at the end).
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) => mine.merge(h),
            None => {
                self.histograms.insert(name.to_string(), h.clone());
            }
        }
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in deterministic (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, in deterministic (sorted) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 1);
        m.inc("a", 2);
        m.inc("b", 5);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("b"), 5);
        assert_eq!(m.counter("missing"), 0);
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"], "deterministic order");
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.sum(), 1049);
        let buckets = h.nonzero_buckets();
        // 0 -> [0,0]; 1 -> [1,1]; 2,3 -> [2,3]; 4,7 -> [4,7]; 8 -> [8,15];
        // 1024 -> [1024,2047].
        assert_eq!(
            buckets,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 2), (8, 15, 1), (1024, 2047, 1)]
        );
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Histogram::default().mean(), 0.0);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(Histogram::default().percentile(50.0), 0);
        assert_eq!(Histogram::default().percentile(99.9), 0);
    }

    #[test]
    fn percentile_exact_for_single_value_buckets() {
        // Buckets 0 and 1 cover exactly one value, so no interpolation
        // error is possible.
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(0);
        }
        for _ in 0..10 {
            h.observe(1);
        }
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(90.0), 0);
        assert_eq!(h.percentile(95.0), 1);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn percentile_stays_inside_covering_bucket() {
        let mut h = Histogram::default();
        for v in 1..=1024u64 {
            h.observe(v);
        }
        // True p50 is ~512, in bucket [512,1023]; interpolation may land
        // anywhere inside that bucket but never outside it.
        let p50 = h.percentile(50.0);
        assert!((512..=1023).contains(&p50), "p50={p50}");
        // True p99 is ~1014, in bucket [512,1023].
        let p99 = h.percentile(99.0);
        assert!((512..=1024).contains(&p99), "p99={p99}");
        // Monotone in p, and never above the observed max.
        assert!(h.percentile(50.0) <= h.percentile(99.0));
        assert!(h.percentile(99.0) <= h.percentile(99.9));
        assert!(h.percentile(99.9) <= h.max());
        assert_eq!(h.percentile(100.0), 1024);
    }

    #[test]
    fn percentile_never_exceeds_observed_max() {
        let mut h = Histogram::default();
        h.observe(600); // bucket [512,1023], max 600
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!((512..=600).contains(&v), "p{p}={v} escaped [bucket_lo, max]");
        }
    }
}
