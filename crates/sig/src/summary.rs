//! The SUV redirect summary signature (paper §IV.A–B, Figure 5).
//!
//! Every memory access in SUV-TM must, in principle, look up the redirect
//! table; the summary signature filters out un-redirected addresses with no
//! lookup at all. Because committed redirect entries are also *deleted*
//! (the redirect-back optimization), a plain Bloom filter is not enough:
//! the paper adds "another bit vector to record which bits are only written
//! once", turning the pair into a deletable Bloom counter:
//!
//! * **add(a)**: for each hash bit `b` of `a`: if `sig[b]` was 0, set
//!   `sig[b]` and `once[b]`; otherwise clear `once[b]` (written more than
//!   once).
//! * **delete(a)**: for each hash bit `b` of `a`: if `once[b]` is set,
//!   clear both `sig[b]` and `once[b]`; bits shared with other addresses
//!   stay set.
//!
//! Incomplete removal leaves the signature a *superset* of the redirected
//! addresses, which costs wasteful lookups but never correctness.

use crate::{BitVec, HashFamily};
use suv_types::{line_of, Addr};

/// Deletable Bloom filter tracking the set of redirected line addresses.
#[derive(Debug, Clone)]
pub struct SummarySignature {
    sig: BitVec,
    once: BitVec,
    hashes: HashFamily,
    /// Queries answered "definitely not redirected" (stats).
    filtered: u64,
    /// Queries answered "maybe redirected" (stats).
    maybe: u64,
}

impl SummarySignature {
    /// Summary of `nbits` bits with `k` hash functions.
    pub fn new(nbits: usize, k: usize) -> Self {
        SummarySignature {
            sig: BitVec::new(nbits),
            once: BitVec::new(nbits),
            hashes: HashFamily::new(nbits, k),
            filtered: 0,
            maybe: 0,
        }
    }

    fn key(addr: Addr) -> u64 {
        line_of(addr) >> 6
    }

    /// Add the line containing `addr` to the redirected set.
    pub fn add(&mut self, addr: Addr) {
        let key = Self::key(addr);
        for i in 0..self.hashes.k() {
            let b = self.hashes.hash(i, key);
            if self.sig.get(b) {
                self.once.unset(b); // written more than once
            } else {
                self.sig.set(b);
                self.once.set(b);
            }
        }
    }

    /// Remove the line containing `addr`.
    ///
    /// Callers must only delete addresses previously added (SUV deletes the
    /// summary entry exactly when it deletes the redirect-table entry, so
    /// the invariant holds by construction). Bits not uniquely owned stay
    /// set, preserving the superset property.
    pub fn delete(&mut self, addr: Addr) {
        let key = Self::key(addr);
        debug_assert!(
            (0..self.hashes.k()).all(|i| self.sig.get(self.hashes.hash(i, key))),
            "deleting an address that is not in the summary signature"
        );
        for i in 0..self.hashes.k() {
            let b = self.hashes.hash(i, key);
            if self.once.get(b) {
                self.sig.unset(b);
                self.once.unset(b);
            }
        }
    }

    /// Might the line containing `addr` be redirected? Counts filter stats.
    /// On every access of an SUV machine, hence inlined into its caller.
    #[inline]
    pub fn query(&mut self, addr: Addr) -> bool {
        let hit = self.contains(addr);
        if hit {
            self.maybe += 1;
        } else {
            self.filtered += 1;
        }
        hit
    }

    /// Non-counting query.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.hashes.indices(Self::key(addr)).all(|b| self.sig.get(b))
    }

    /// Accesses filtered out (no table lookup needed).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Accesses that required a table lookup.
    pub fn maybe_count(&self) -> u64 {
        self.maybe
    }

    /// The raw signature bits (for display/tests).
    pub fn sig_bits(&self) -> &BitVec {
        &self.sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduce Figure 5 of the paper exactly, including its hash
    /// functions `H1(x) = x mod 8` and `H2(x) = (x xor 2x) mod 8`.
    ///
    /// We emulate the figure by driving the same add/delete sequence and
    /// checking each intermediate state of both bit arrays.
    #[test]
    fn figure5_walkthrough() {
        // Build an 8-bit summary whose two hash functions match the figure.
        // Our HashFamily is multiplicative; instead we drive the raw
        // algorithm through a tiny local mirror implementing the figure's
        // hashes, and check it agrees with SummarySignature under a
        // same-output family: the multiplicative family can't express
        // `x mod 8`, so we verify the *algorithm* on the mirror and the
        // *structure* on SummarySignature separately below.
        #[derive(Default)]
        struct Mirror {
            sig: [bool; 8],
            once: [bool; 8],
        }
        let h1 = |x: u64| (x % 8) as usize;
        let h2 = |x: u64| ((x ^ (2 * x)) % 8) as usize;
        impl Mirror {
            fn add(&mut self, bits: [usize; 2]) {
                for b in bits {
                    if self.sig[b] {
                        self.once[b] = false;
                    } else {
                        self.sig[b] = true;
                        self.once[b] = true;
                    }
                }
            }
            fn delete(&mut self, bits: [usize; 2]) {
                for b in bits {
                    if self.once[b] {
                        self.sig[b] = false;
                        self.once[b] = false;
                    }
                }
            }
            fn as_u8(bits: [bool; 8]) -> u8 {
                bits.iter().enumerate().map(|(i, b)| u8::from(*b) << i).sum()
            }
        }
        let mut m = Mirror::default();
        // Initialization: all zero.
        assert_eq!(Mirror::as_u8(m.sig), 0b0000_0000);
        // Adding @1: H1=1, H2=3 -> sig {1,3}, once {1,3}.
        m.add([h1(1), h2(1)]);
        assert_eq!(Mirror::as_u8(m.sig), 0b0000_1010);
        assert_eq!(Mirror::as_u8(m.once), 0b0000_1010);
        // Adding @3: H1=3, H2=5 -> sig {1,3,5}; bit 3 no longer unique.
        m.add([h1(3), h2(3)]);
        assert_eq!(Mirror::as_u8(m.sig), 0b0010_1010);
        assert_eq!(Mirror::as_u8(m.once), 0b0010_0010);
        // Inquiring @1 changes nothing.
        assert!(m.sig[h1(1)] && m.sig[h2(1)]);
        assert_eq!(Mirror::as_u8(m.sig), 0b0010_1010);
        // Deleting @1: unique bit 1 cleared; shared bit 3 stays.
        m.delete([h1(1), h2(1)]);
        assert_eq!(Mirror::as_u8(m.sig), 0b0010_1000);
        assert_eq!(Mirror::as_u8(m.once), 0b0010_0000);
        // @3 still tests positive (superset property).
        assert!(m.sig[h1(3)] && m.sig[h2(3)]);
    }

    #[test]
    fn add_query_delete() {
        let mut s = SummarySignature::new(2048, 2);
        assert!(!s.query(0x90));
        s.add(0x90);
        assert!(s.query(0x90));
        s.delete(0x90);
        assert!(!s.query(0x90));
        assert_eq!(s.filtered(), 2);
        assert_eq!(s.maybe_count(), 1);
    }

    #[test]
    fn delete_preserves_other_members() {
        let mut s = SummarySignature::new(2048, 2);
        let addrs: Vec<u64> = (0..50).map(|i| 0x1000 + i * 64).collect();
        for a in &addrs {
            s.add(*a);
        }
        // Delete every other address; the rest must still test positive.
        for a in addrs.iter().step_by(2) {
            s.delete(*a);
        }
        for a in addrs.iter().skip(1).step_by(2) {
            assert!(s.contains(*a), "member {a:#x} lost after unrelated delete");
        }
    }

    #[test]
    fn double_add_then_delete_leaves_superset() {
        let mut s = SummarySignature::new(256, 2);
        s.add(0x40);
        s.add(0x40); // second add marks bits non-unique
        s.delete(0x40);
        // Bits could not be cleared (written "twice"); superset retained.
        assert!(s.contains(0x40));
    }

    #[test]
    fn line_granularity() {
        let mut s = SummarySignature::new(2048, 2);
        s.add(0x1000);
        assert!(s.contains(0x1004));
        assert!(s.contains(0x103f));
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Superset invariant under random add/delete interleavings: any
        /// address that is currently a member (added, not deleted) always
        /// tests positive.
        #[test]
        fn superset_under_interleaving(
            ops in proptest::collection::vec((0u64..128, any::<bool>()), 1..400)
        ) {
            let mut s = SummarySignature::new(2048, 2);
            let mut members = std::collections::HashMap::<u64, u32>::new();
            for (slot, is_add) in ops {
                let addr = 0x4000 + slot * 64;
                if is_add {
                    s.add(addr);
                    *members.entry(addr).or_insert(0) += 1;
                } else if members.get(&addr).copied().unwrap_or(0) > 0 {
                    s.delete(addr);
                    *members.get_mut(&addr).unwrap() -= 1;
                }
                for (a, n) in &members {
                    if *n > 0 {
                        prop_assert!(s.contains(*a), "live member {a:#x} lost");
                    }
                }
            }
        }
    }
}
