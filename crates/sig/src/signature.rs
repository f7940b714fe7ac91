//! Read/write Bloom-filter signatures (LogTM-SE style).

use crate::{BitVec, HashFamily};
use suv_types::{line_of, Addr};

#[expect(clippy::disallowed_types, reason = "only the perfect-signature ablation has an exact set")]
type ExactSet = std::collections::HashSet<u64>;

/// A Bloom-filter signature over cache-line addresses.
///
/// `insert`/`contains` mask their argument to line granularity, so callers
/// may pass raw byte addresses. `contains` may report false positives
/// (conservative conflicts) but never false negatives — the property eager
/// conflict detection depends on.
///
/// A *perfect* signature (exact set, no false positives) can be requested
/// instead — physically unrealizable hardware, used as the ablation
/// baseline for measuring how much of the conflict traffic is false
/// (paper SIV.A: "false conflicts account for a large portion of the
/// total conflicts").
#[derive(Debug, Clone)]
pub struct Signature {
    bits: BitVec,
    hashes: HashFamily,
    inserted: u64,
    exact: Option<ExactSet>,
}

impl Signature {
    /// Signature of `nbits` bits with `k` hash functions.
    pub fn new(nbits: usize, k: usize) -> Self {
        Signature {
            bits: BitVec::new(nbits),
            hashes: HashFamily::new(nbits, k),
            inserted: 0,
            exact: None,
        }
    }

    /// An exact (false-positive-free) signature — the ablation ideal.
    pub fn perfect(nbits: usize, k: usize) -> Self {
        let mut s = Self::new(nbits, k);
        s.exact = Some(ExactSet::new());
        s
    }

    /// Is this the exact-set variant?
    pub fn is_perfect(&self) -> bool {
        self.exact.is_some()
    }

    /// Add the line containing `addr`.
    pub fn insert(&mut self, addr: Addr) {
        let key = line_of(addr) >> 6;
        for i in self.hashes.indices(key) {
            self.bits.set(i);
        }
        if let Some(set) = &mut self.exact {
            set.insert(key);
        }
        self.inserted += 1;
    }

    /// Might the line containing `addr` be in the set? Exact signatures
    /// answer precisely; Bloom signatures may report false positives.
    pub fn contains(&self, addr: Addr) -> bool {
        let key = line_of(addr) >> 6;
        match &self.exact {
            Some(set) => set.contains(&key),
            None => self.hashes.indices(key).all(|i| self.bits.get(i)),
        }
    }

    /// Flash-clear (transaction begin/end).
    pub fn clear(&mut self) {
        self.bits.clear();
        if let Some(set) = &mut self.exact {
            set.clear();
        }
        self.inserted = 0;
    }

    /// True when nothing was ever inserted since the last clear.
    pub fn is_clear(&self) -> bool {
        self.bits.all_zero()
    }

    /// Could the two signatures share an address? (bitwise AND non-zero).
    ///
    /// This is the *hardware* conflict test between a request signature and
    /// a transaction signature; it is conservative with respect to the true
    /// set intersection.
    pub fn intersects(&self, other: &Signature) -> bool {
        match (&self.exact, &other.exact) {
            (Some(a), Some(b)) => a.iter().any(|k| b.contains(k)),
            _ => self.bits.intersects(&other.bits),
        }
    }

    /// OR `other` into `self` (summary-signature construction for context
    /// switch support, LogTM-SE style).
    pub fn union_with(&mut self, other: &Signature) {
        self.bits.union_with(&other.bits);
        if let (Some(a), Some(b)) = (&mut self.exact, &other.exact) {
            a.extend(b.iter().copied());
        }
        self.inserted += other.inserted;
    }

    /// Number of `insert` calls since the last clear (not distinct lines).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Occupancy: fraction of bits set.
    pub fn fill(&self) -> f64 {
        f64::from(self.bits.count_ones()) / self.bits.len() as f64
    }

    /// Borrow the underlying bits (for the summary signature OR update).
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut s = Signature::new(2048, 4);
        for i in 0..100u64 {
            s.insert(i * 64);
        }
        for i in 0..100u64 {
            assert!(s.contains(i * 64));
            // Any byte within the line matches too.
            assert!(s.contains(i * 64 + 17));
        }
    }

    #[test]
    fn clear_resets() {
        let mut s = Signature::new(256, 2);
        s.insert(0x40);
        assert!(!s.is_clear());
        s.clear();
        assert!(s.is_clear());
        assert_eq!(s.inserted(), 0);
    }

    #[test]
    fn disjoint_small_sets_rarely_intersect() {
        let mut a = Signature::new(2048, 4);
        let mut b = Signature::new(2048, 4);
        a.insert(0x0);
        b.insert(0x10000);
        // With 2 Kbit and 4 hashes, two single-line signatures colliding on
        // all bits is vanishingly unlikely for this fixed seed.
        assert!(!a.intersects(&b));
        b.insert(0x0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn union_is_superset() {
        let mut a = Signature::new(1024, 2);
        let mut b = Signature::new(1024, 2);
        a.insert(0x40);
        b.insert(0x80);
        a.union_with(&b);
        assert!(a.contains(0x40) && a.contains(0x80));
    }

    #[test]
    fn fill_grows_with_inserts() {
        let mut s = Signature::new(2048, 4);
        let f0 = s.fill();
        for i in 0..64u64 {
            s.insert(i * 64);
        }
        assert!(s.fill() > f0);
        assert!(s.fill() <= 1.0);
    }

    #[test]
    fn false_positive_rate_sane() {
        // 64 lines in a 2Kbit/4-hash signature: the false-positive rate on
        // 10_000 probes of *other* lines should be small (<5%).
        let mut s = Signature::new(2048, 4);
        for i in 0..64u64 {
            s.insert(i * 64);
        }
        let fps = (1000u64..11_000).filter(|i| s.contains(i * 64)).count();
        assert!(fps < 500, "false-positive count {fps} too high");
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The superset property: every inserted address tests positive,
        /// through arbitrary interleavings of inserts.
        #[test]
        fn superset_property(addrs in proptest::collection::vec(any::<u64>(), 1..200)) {
            let mut s = Signature::new(2048, 4);
            for a in &addrs {
                s.insert(*a);
            }
            for a in &addrs {
                prop_assert!(s.contains(*a));
            }
        }

        /// Hardware intersection is conservative: if the true sets share a
        /// line, the signatures must intersect.
        #[test]
        fn intersection_conservative(xs in proptest::collection::vec(0u64..1000, 1..50),
                                     ys in proptest::collection::vec(0u64..1000, 1..50)) {
            let mut a = Signature::new(2048, 4);
            let mut b = Signature::new(2048, 4);
            let xset: std::collections::HashSet<u64> = xs.iter().map(|x| x * 64).collect();
            let yset: std::collections::HashSet<u64> = ys.iter().map(|y| y * 64).collect();
            for x in &xset { a.insert(*x); }
            for y in &yset { b.insert(*y); }
            if xset.intersection(&yset).next().is_some() {
                prop_assert!(a.intersects(&b));
            }
        }
    }
}
