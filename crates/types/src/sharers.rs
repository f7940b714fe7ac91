//! Wide sharer bit-sets for the directory and coherence layers.
//!
//! The paper's 16-core machine fits a sharer vector in one word, and the
//! first simulator versions hard-coded that: `1u64 << core` silently wraps
//! for core >= 64, so a 65-core directory would corrupt core 1's sharer
//! bit. [`SharerSet`] keeps two words inline — every machine up to 128
//! cores, the widest the benchmark and the figures run, never touches the
//! heap — and spills to a vector above, which is what unlocks the
//! 256..1024-core scaling studies.

use crate::CoreId;

/// Bits per sharer-vector word.
const WORD_BITS: usize = 64;

/// Words held inline: cores `0..128`.
const INLINE_WORDS: usize = 2;

/// Largest core id the set accepts. Far above any simulated machine; the
/// guard exists to catch garbage ids (e.g. a wrapped subtraction) before
/// they allocate an absurd extension vector.
pub const MAX_SHARER_CORE: usize = 1 << 16;

/// A set of core ids, used for directory sharer vectors.
///
/// Cores `0..128` live in two inline words; cores `128..` spill into an
/// extension slice whose word `i` covers cores `64*(i+2)..64*(i+3)`. The
/// extension is kept *canonical* — it ends in a non-zero word — so the
/// derived `PartialEq`/`Hash` treat equal sets as equal regardless of
/// their mutation history, and a machine of at most 128 cores never
/// allocates (an empty boxed slice holds no heap block). A boxed slice,
/// not a `Vec`: the set stays four words, what the one-inline-word set was,
/// and the directory holds one per tracked line.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SharerSet {
    inline: [u64; INLINE_WORDS],
    ext: Box<[u64]>,
}

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// The singleton set `{c}`.
    #[must_use]
    pub fn solo(c: CoreId) -> Self {
        let mut s = SharerSet::new();
        s.insert(c);
        s
    }

    /// A set holding cores `0..64` as the given word (conversion shim for
    /// fixed-width model state, e.g. the verify model checker's `u8`
    /// sharer bitmaps).
    #[must_use]
    pub fn from_word(w: u64) -> Self {
        SharerSet { inline: [w, 0], ..SharerSet::new() }
    }

    /// The first word (cores `0..64`), `None` when the set holds a core
    /// `>= 64` and therefore does not fit one word.
    #[must_use]
    pub fn to_word(&self) -> Option<u64> {
        (self.inline[1] == 0 && self.ext.is_empty()).then_some(self.inline[0])
    }

    /// Word `i` of the vector (word 0 = cores `0..64`); 0 beyond the
    /// stored extent. Fixed-index access for state fingerprinting.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        match self.inline.get(i) {
            Some(w) => *w,
            None => self.ext.get(i - INLINE_WORDS).copied().unwrap_or(0),
        }
    }

    /// Words needed to cover core ids `0..n_cores`.
    #[must_use]
    pub fn words_for(n_cores: usize) -> usize {
        n_cores.div_ceil(WORD_BITS).max(1)
    }

    fn split(c: CoreId) -> (usize, u64) {
        debug_assert!(c < MAX_SHARER_CORE, "core id {c} out of sharer-set range");
        (c / WORD_BITS, 1u64 << (c % WORD_BITS))
    }

    /// Resize the extension to `words` words. Out of line: only a set
    /// above 128 cores gets here, and the inline-word paths around it stay
    /// small.
    #[inline(never)]
    fn resize_ext(&mut self, words: usize) {
        if words != self.ext.len() {
            let mut ext = std::mem::take(&mut self.ext).into_vec();
            ext.resize(words, 0);
            self.ext = ext.into_boxed_slice();
        }
    }

    /// Every stored word, in order.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.inline.iter().chain(&*self.ext).copied()
    }

    /// Is core `c` in the set?
    #[must_use]
    pub fn contains(&self, c: CoreId) -> bool {
        let (w, bit) = Self::split(c);
        self.word(w) & bit != 0
    }

    /// Add core `c`. Returns true when it was newly inserted.
    pub fn insert(&mut self, c: CoreId) -> bool {
        let (w, bit) = Self::split(c);
        let slot = if w < INLINE_WORDS {
            &mut self.inline[w]
        } else {
            if self.ext.len() <= w - INLINE_WORDS {
                self.resize_ext(w - INLINE_WORDS + 1);
            }
            &mut self.ext[w - INLINE_WORDS]
        };
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Remove core `c`. Returns true when it was present.
    pub fn remove(&mut self, c: CoreId) -> bool {
        let (w, bit) = Self::split(c);
        let slot = if w < INLINE_WORDS {
            &mut self.inline[w]
        } else if let Some(slot) = self.ext.get_mut(w - INLINE_WORDS) {
            slot
        } else {
            return false;
        };
        let present = *slot & bit != 0;
        *slot &= !bit;
        if w >= INLINE_WORDS {
            // Canonical form: the extension ends in its last non-zero word.
            self.resize_ext(self.ext.iter().rposition(|w| *w != 0).map_or(0, |i| i + 1));
        }
        present
    }

    /// Number of cores in the set.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.words().map(u64::count_ones).sum()
    }

    /// Is the set empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline == [0; INLINE_WORDS] && self.ext.is_empty()
    }

    /// Remove every core.
    pub fn clear(&mut self) {
        *self = SharerSet::new();
    }

    /// The set minus core `c` (the "all other sharers" victim set).
    #[must_use]
    pub fn without(&self, c: CoreId) -> SharerSet {
        let mut s = self.clone();
        s.remove(c);
        s
    }

    /// Add every core of `other` to this set (directory merge on a
    /// sharer-vector union).
    pub fn union_with(&mut self, other: &SharerSet) {
        if self.ext.len() < other.ext.len() {
            self.resize_ext(other.ext.len());
        }
        for (mine, theirs) in self.inline.iter_mut().chain(&mut *self.ext).zip(other.words()) {
            *mine |= theirs;
        }
    }

    /// Is every core of `self` also in `other`?
    #[must_use]
    pub fn is_subset(&self, other: &SharerSet) -> bool {
        self.words().enumerate().all(|(i, w)| w & !other.word(i) == 0)
    }

    /// Iterate the member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let (mut word, mut bits) = (0, self.inline[0]);
        std::iter::from_fn(move || {
            while bits == 0 {
                word += 1;
                if word >= INLINE_WORDS + self.ext.len() {
                    return None;
                }
                bits = self.word(word);
            }
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(word * WORD_BITS + bit)
        })
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> Self {
        let mut s = SharerSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_basics() {
        let s = SharerSet::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.to_word(), Some(0));
        assert!(!s.contains(0));
        assert!(!s.contains(1000));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn word_boundary_ops() {
        // The exact boundary the old `1u64 << core` representation broke
        // at: 63 is the last inline bit, 64 the first extension bit.
        for c in [0usize, 1, 62, 63, 64, 65, 127, 128, 255] {
            let mut s = SharerSet::new();
            assert!(s.insert(c), "insert {c}");
            assert!(s.contains(c), "contains {c}");
            assert!(!s.insert(c), "double insert {c}");
            assert_eq!(s.count(), 1, "count after insert {c}");
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![c]);
            assert_eq!(s, SharerSet::solo(c));
            // No aliasing: 64 + c must never look like c (the old wrap bug).
            assert!(!s.contains(c + 64) || c + 64 == c);
            assert!(c < 64 || !s.contains(c - 64), "core {c} aliased {}", c - 64);
            assert!(s.remove(c));
            assert!(s.is_empty(), "canonical empty after remove {c}");
            assert_eq!(s, SharerSet::new(), "trimmed form equals fresh empty");
        }
    }

    #[test]
    fn sixty_four_does_not_wrap_onto_zero() {
        // The regression this type exists for: with a bare u64,
        // `1u64 << 64` wraps and core 64 aliases core 0.
        let mut s = SharerSet::solo(64);
        assert!(!s.contains(0), "core 64 must not alias core 0");
        s.insert(0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64]);
        assert!(s.remove(0));
        assert!(s.contains(64));
        assert_eq!(s.to_word(), None, "a >=64 member does not fit one word");
    }

    #[test]
    fn iteration_is_ascending_across_words() {
        let s: SharerSet = [200usize, 3, 64, 63, 65, 128].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 65, 128, 200]);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn without_and_subset() {
        let s: SharerSet = [1usize, 63, 64, 130].into_iter().collect();
        let v = s.without(64);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 63, 130]);
        assert!(v.is_subset(&s));
        assert!(!s.is_subset(&v));
        assert!(s.is_subset(&s));
        assert!(SharerSet::new().is_subset(&s));
        // Removing the sole high member must re-canonicalize so equality
        // with an inline-only set holds.
        let w = v.without(130);
        assert_eq!(w, [1usize, 63].into_iter().collect::<SharerSet>());
        assert_eq!(w.to_word(), Some((1 << 1) | (1 << 63)));
    }

    #[test]
    fn union_merges_words() {
        let mut a: SharerSet = [0usize, 70].into_iter().collect();
        let b: SharerSet = [1usize, 70, 200].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 70, 200]);
    }

    #[test]
    fn word_accessors_are_stable() {
        let s: SharerSet = [2usize, 66, 150].into_iter().collect();
        assert_eq!(s.word(0), 1 << 2);
        assert_eq!(s.word(1), 1 << 2); // 66 - 64
        assert_eq!(s.word(2), 1 << 22); // 150 - 128
        assert_eq!(s.word(3), 0);
        assert_eq!(SharerSet::words_for(1), 1);
        assert_eq!(SharerSet::words_for(64), 1);
        assert_eq!(SharerSet::words_for(65), 2);
        assert_eq!(SharerSet::words_for(128), 2);
        assert_eq!(SharerSet::words_for(129), 3);
    }

    #[test]
    fn from_word_round_trips() {
        let s = SharerSet::from_word(0xdead_beef);
        assert_eq!(s.to_word(), Some(0xdead_beef));
        assert_eq!(s.count(), 0xdead_beef_u64.count_ones());
    }
}
