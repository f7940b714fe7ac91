//! A standalone read/write Bloom-filter signature (LogTM-SE style).

use crate::{BitVec, HashFamily};
use suv_types::{line_of, Addr};

/// A Bloom-filter signature over cache-line addresses.
///
/// `insert`/`contains` mask their argument to line granularity, so callers
/// may pass raw byte addresses. `contains` may report false positives
/// (conservative conflicts) but never false negatives — the property eager
/// conflict detection depends on.
///
/// The machine keeps no `Signature`: a core's signatures are its columns of
/// the signature index in `suv-htm`, hashed by the same [`HashFamily`]. The
/// type stays for the host-cost probes of `benchmark/` (`sig.insert_ns`,
/// `sig.contains_ns`).
#[derive(Debug, Clone)]
pub struct Signature {
    bits: BitVec,
    hashes: HashFamily,
    inserted: u64,
}

impl Signature {
    /// Signature of `nbits` bits with `k` hash functions.
    pub fn new(nbits: usize, k: usize) -> Self {
        Signature { bits: BitVec::new(nbits), hashes: HashFamily::new(nbits, k), inserted: 0 }
    }

    /// Add the line containing `addr`.
    pub fn insert(&mut self, addr: Addr) {
        for i in self.hashes.indices(line_of(addr) >> 6) {
            self.bits.set(i);
        }
        self.inserted += 1;
    }

    /// Might the line containing `addr` be in the set? False positives
    /// possible, false negatives never.
    pub fn contains(&self, addr: Addr) -> bool {
        self.hashes.indices(line_of(addr) >> 6).all(|i| self.bits.get(i))
    }

    /// Number of `insert` calls (not distinct lines).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Borrow the underlying bits.
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
    fn inserted_counts_calls_not_lines() {
        let mut s = Signature::new(2048, 4);
        s.insert(0x40);
        s.insert(0x40 + 8);
        assert_eq!(s.inserted(), 2);
        assert!((1..=4).contains(&s.bits().count_ones()), "one line sets at most k bits");
    }

    /// Do the two signatures share a set bit? The hardware conflict test,
    /// which the signature index makes as the AND of a line's rows.
    pub(super) fn share_a_bit(a: &Signature, b: &Signature, nbits: usize) -> bool {
        (0..nbits).any(|i| a.bits().get(i) && b.bits().get(i))
    }

    #[test]
    fn disjoint_small_sets_rarely_intersect() {
        let mut a = Signature::new(2048, 4);
        let mut b = Signature::new(2048, 4);
        a.insert(0x0);
        b.insert(0x10000);
        // With 2 Kbit and 4 hashes, two single-line signatures colliding on
        // a bit is unlikely, and this fixed seed has no collision.
        assert!(!share_a_bit(&a, &b, 2048));
        b.insert(0x0);
        assert!(share_a_bit(&a, &b, 2048));
    }

    #[test]
    fn union_is_superset() {
        // One signature fed both sets holds exactly the OR of their bits:
        // the column a core keeps over its open nesting levels.
        let mut a = Signature::new(1024, 2);
        let mut b = Signature::new(1024, 2);
        let mut u = Signature::new(1024, 2);
        a.insert(0x40);
        b.insert(0x80);
        u.insert(0x40);
        u.insert(0x80);
        assert!(u.contains(0x40) && u.contains(0x80));
        assert!((0..1024).all(|i| u.bits().get(i) == (a.bits().get(i) || b.bits().get(i))));
    }

    #[test]
    fn fill_grows_with_inserts() {
        let mut s = Signature::new(2048, 4);
        assert_eq!(s.bits().count_ones(), 0);
        for i in 0..64u64 {
            s.insert(i * 64);
        }
        assert!(s.bits().count_ones() > 0);
        assert!(s.bits().count_ones() <= 2048);
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
    use super::tests::share_a_bit;
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

        /// The hardware test is conservative: if the true sets share a
        /// line, the signatures share a bit.
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
                prop_assert!(share_a_bit(&a, &b, 2048));
            }
        }
    }
}
