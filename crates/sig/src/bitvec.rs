//! A fixed-width bit vector backed by `u64` words.

/// Fixed-size bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    nbits: usize,
}

impl BitVec {
    /// All-zero bit vector of `nbits` bits.
    pub fn new(nbits: usize) -> Self {
        BitVec { words: vec![0; nbits.div_ceil(64)], nbits }
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.nbits);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Population count.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut b = BitVec::new(100);
        assert!(!b.get(63));
        b.set(63);
        b.set(64);
        b.set(99);
        assert!(b.get(63) && b.get(64) && b.get(99));
        assert_eq!(b.count_ones(), 3);
        b.unset(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn non_multiple_of_64_width() {
        let mut b = BitVec::new(2048);
        b.set(2047);
        assert!(b.get(2047));
        assert_eq!(b.count_ones(), 1);
    }
}
