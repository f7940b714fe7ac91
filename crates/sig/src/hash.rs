//! Hash functions for signatures.
//!
//! Hardware signature proposals (LogTM-SE, Notary) use H3 or bit-selection
//! hash families. We use multiplicative (Fibonacci-style) hashing with
//! per-function odd constants derived from a seed: cheap, well-distributed
//! for the power-of-two bit counts signatures use, and deterministic.

/// A family of `k` independent hash functions mapping a line address to a
/// bit index in `[0, nbits)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    constants: Vec<u64>,
    nbits: usize,
    shift: u32,
}

/// SplitMix64 step, used only to derive the per-function constants.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl HashFamily {
    /// Fixed seed so every simulator run sees identical signature behaviour.
    pub const DEFAULT_SEED: u64 = 0x5201_20c0_ffee;

    /// `k` hash functions onto `nbits` bits (must be a power of two).
    pub fn new(nbits: usize, k: usize) -> Self {
        Self::with_seed(nbits, k, Self::DEFAULT_SEED)
    }

    /// Seeded constructor (for tests that need distinct families).
    pub fn with_seed(nbits: usize, k: usize, seed: u64) -> Self {
        assert!(nbits.is_power_of_two(), "signature bit count must be a power of two");
        assert!(k >= 1, "need at least one hash function");
        let mut state = seed;
        let constants = (0..k).map(|_| splitmix64(&mut state) | 1).collect();
        HashFamily { constants, nbits, shift: 64 - nbits.trailing_zeros() }
    }

    /// Number of hash functions.
    pub fn k(&self) -> usize {
        self.constants.len()
    }

    /// Output range.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Bit index produced by function `i` for `key`.
    #[inline]
    pub fn hash(&self, i: usize, key: u64) -> usize {
        (key.wrapping_mul(self.constants[i]) >> self.shift) as usize
    }

    /// Iterate over all `k` bit indices for `key`.
    #[inline]
    pub fn indices(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        self.constants.iter().map(move |c| (key.wrapping_mul(*c) >> self.shift) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = HashFamily::new(2048, 4);
        let b = HashFamily::new(2048, 4);
        for key in [0u64, 1, 0x40, 0xdead_beef] {
            for i in 0..4 {
                assert_eq!(a.hash(i, key), b.hash(i, key));
            }
        }
    }

    #[test]
    fn in_range() {
        let h = HashFamily::new(256, 3);
        for key in 0..10_000u64 {
            for i in 0..3 {
                assert!(h.hash(i, key) < 256);
            }
        }
    }

    #[test]
    fn functions_differ() {
        let h = HashFamily::new(2048, 4);
        let mut all_same = true;
        for key in 1..100u64 {
            let first = h.hash(0, key);
            if (1..4).any(|i| h.hash(i, key) != first) {
                all_same = false;
                break;
            }
        }
        assert!(!all_same, "hash functions must be independent");
    }

    #[test]
    fn reasonable_distribution() {
        // Insert sequential line addresses; no bucket should collect a
        // wildly disproportionate share.
        let h = HashFamily::new(256, 1);
        let mut counts = vec![0u32; 256];
        for key in 0..25_600u64 {
            counts[h.hash(0, key)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 400, "max bucket {max} too heavy");
        assert!(min > 10, "min bucket {min} too light");
    }

    #[test]
    fn seeded_families_differ() {
        let a = HashFamily::with_seed(2048, 2, 1);
        let b = HashFamily::with_seed(2048, 2, 2);
        let differs = (0..100u64).any(|k| a.hash(0, k) != b.hash(0, k));
        assert!(differs);
    }
}
