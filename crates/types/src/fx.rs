//! Deterministic, fast hashing for simulator-internal maps.
//!
//! `std::collections::HashMap` defaults to SipHash with a per-process
//! random key. The key only affects bucket order — lookups stay correct —
//! but SipHash is far slower than needed for the trusted integer keys the
//! simulator uses (line addresses, page numbers), and the randomized
//! iteration order is a determinism hazard for any caller that lets order
//! escape. [`FxHasher`] is the rustc-style multiply-xor hash: seedless,
//! deterministic across processes, and a fraction of SipHash's cost on
//! 8-byte keys. Hot-path state (`Memory` pages, the sharer directory)
//! hashes with it.
//!
//! The hash is one multiply, and hashbrown picks the bucket from the *low*
//! bits of the result, so a key whose low bits are always zero — a
//! 64-byte-aligned line address, an 8-byte-aligned word address — would
//! leave the low hash bits zero too and pile every key into a fraction of
//! the buckets. Such keys go through [`LineMap`] / [`LineSet`] /
//! [`WordMap`], which hash the line or word *index* instead. (A finalizer
//! inside [`FxHasher`] would fix the same thing for every key at the cost
//! of the page-number maps, whose sequential keys the bare multiply
//! already spreads perfectly.)

use crate::addr::{Addr, LineAddr, LINE_SHIFT, WORD_BYTES};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit spread constant (2^64 / phi), as used by rustc's FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc FxHash function: per-word rotate, xor, multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }
}

/// `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by the deterministic [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// [`FxHasher`] for `u64` address keys aligned to `1 << SHIFT` bytes: it
/// hashes `key >> SHIFT`, so the always-zero low bits never reach the
/// multiply. A misaligned key still looks up correctly (equality compares
/// the whole key); it merely shares a bucket with its aligned neighbour.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlignedFxHasher<const SHIFT: u32>(FxHasher);

impl<const SHIFT: u32> Hasher for AlignedFxHasher<SHIFT> {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0.write_u64(n >> SHIFT);
    }
}

type LineBuild = BuildHasherDefault<AlignedFxHasher<LINE_SHIFT>>;
type WordBuild = BuildHasherDefault<AlignedFxHasher<{ WORD_BYTES.trailing_zeros() }>>;

/// Deterministic map keyed by line-aligned addresses.
pub type LineMap<V> = HashMap<LineAddr, V, LineBuild>;

/// Deterministic set of line-aligned addresses.
pub type LineSet = HashSet<LineAddr, LineBuild>;

/// Deterministic map keyed by word-aligned addresses.
pub type WordMap<V> = HashMap<Addr, V, WordBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_one(0x1234_5678u64), hash_one(0x1234_5678u64));
        assert_ne!(hash_one(1u64), hash_one(2u64));
    }

    #[test]
    fn golden_values_pin_the_function() {
        // Changing the hash function silently reorders map internals; these
        // pins make any such change an explicit test edit.
        assert_eq!(hash_one(0u64), 0);
        assert_eq!(hash_one(1u64), SEED.wrapping_mul(1));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn aligned_keys_fill_the_low_hash_bits() {
        // The defect LineMap exists for: under the bare multiply every
        // line address hashes to a multiple of 64, so the 6 bits hashbrown
        // indexes small tables with are constant.
        fn low6_of<H: Hasher + Default>(keys: impl Iterator<Item = u64>) -> FxHashSet<u64> {
            keys.map(|k| {
                let mut h = H::default();
                h.write_u64(k);
                h.finish() & 63
            })
            .collect()
        }
        let lines = || (0..64u64).map(|i| i * 64);
        let seen_bare = low6_of::<FxHasher>(lines());
        let seen_line = low6_of::<AlignedFxHasher<LINE_SHIFT>>(lines());
        assert_eq!(seen_bare.len(), 1, "bare FxHash: aligned keys share their low hash bits");
        assert_eq!(seen_line.len(), 64, "index hashing: sequential lines are a bijection");
    }

    #[test]
    fn line_and_word_maps_roundtrip_misaligned_keys_too() {
        let mut m: LineMap<u64> = LineMap::default();
        let mut w: WordMap<u64> = WordMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
            w.insert(i * 8, i);
        }
        // Same line / word index, different key: distinct entries.
        m.insert(64 + 8, 7777);
        w.insert(8 + 1, 8888);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
            assert_eq!(w.get(&(i * 8)), Some(&i));
        }
        assert_eq!(m.get(&(64 + 8)), Some(&7777));
        assert_eq!(w.get(&(8 + 1)), Some(&8888));
        assert_eq!((m.len(), w.len()), (1001, 1001));
    }

    #[test]
    fn byte_stream_matches_word_writes() {
        // Line addresses hash through write_u64; ensure the byte path used
        // by derived Hash impls of composite keys is also deterministic.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
    }
}
