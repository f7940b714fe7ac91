//! Summary statistics, the simulated-result fingerprint and the seeded
//! stream the layer probes draw addresses from.

/// Median of the samples (mean of the middle two for an even count).
///
/// # Panics
/// On an empty slice or a NaN sample: both are harness bugs.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean; 0 for an empty slice (mirrors `suv_bench::geomean`).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a, the hash behind `sim_fingerprint`: two commits that
/// simulate the same cells to the same cycles, commits and aborts print
/// the same sixteen hex digits.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Seeded xorshift64* stream for probe address sequences: the same seed
/// gives the same stream on every host.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// `salt` decorrelates the probes that share one `--seed`.
    pub fn new(seed: u64, salt: u64) -> Self {
        // splitmix64 finaliser, so seeds 1, 2, 3... start far apart and
        // the state is never 0.
        let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Stream((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5, 1.5, 1.5]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_is_fnv1a_and_order_sensitive() {
        // Published FNV-1a 64 test vector.
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn stream_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed, salt| {
            let mut s = Stream::new(seed, salt);
            (0..4).map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 7), draw(1, 7));
        assert_ne!(draw(1, 7), draw(2, 7));
        assert_ne!(draw(1, 7), draw(1, 8));
        let mut s = Stream::new(0, 0);
        assert!((0..100).all(|_| s.below(10) < 10));
    }
}
