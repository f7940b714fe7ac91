//! Wide sharer bit-sets for the directory and coherence layers.
//!
//! The paper's 16-core machine fits a sharer vector in one word, and the
//! first simulator versions hard-coded that: `1u64 << core` silently wraps
//! for core >= 64, so a 65-core directory would corrupt core 1's sharer
//! bit. [`SharerSet`] keeps the one-word representation (and its cost) for
//! machines up to 64 cores and spills to a multi-word vector above, which
//! is what unlocks the 256..1024-core scaling studies in ROADMAP item 1.

use crate::CoreId;

/// Bits per sharer-vector word.
const WORD_BITS: usize = 64;

/// Largest core id the set accepts. Far above any simulated machine; the
/// guard exists to catch garbage ids (e.g. a wrapped subtraction) before
/// they allocate an absurd extension vector.
pub const MAX_SHARER_CORE: usize = 1 << 16;

/// A set of core ids, used for directory sharer vectors.
///
/// Cores `0..64` live in one inline word; cores `64..` spill into an
/// extension vector whose word `i` covers cores `64*(i+1)..64*(i+2)`. The
/// extension is kept *canonical* — trailing all-zero words are trimmed —
/// so the derived `PartialEq`/`Hash` treat equal sets as equal regardless
/// of their mutation history, and a sub-64-core machine never allocates
/// (an empty `Vec` holds no heap block).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SharerSet {
    inline: u64,
    ext: Vec<u64>,
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
        SharerSet { inline: w, ext: Vec::new() }
    }

    /// The inline word (cores `0..64`), `None` when the set holds a core
    /// `>= 64` and therefore does not fit one word.
    #[must_use]
    pub fn to_word(&self) -> Option<u64> {
        if self.ext.is_empty() {
            Some(self.inline)
        } else {
            None
        }
    }

    /// Word `i` of the vector (word 0 = cores `0..64`); 0 beyond the
    /// stored extent. Fixed-index access for state fingerprinting.
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        if i == 0 {
            self.inline
        } else {
            self.ext.get(i - 1).copied().unwrap_or(0)
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

    /// Drop trailing all-zero extension words (canonical form).
    fn trim(&mut self) {
        while self.ext.last() == Some(&0) {
            self.ext.pop();
        }
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
        let slot = if w == 0 {
            &mut self.inline
        } else {
            if self.ext.len() < w {
                self.ext.resize(w, 0);
            }
            &mut self.ext[w - 1]
        };
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }

    /// Remove core `c`. Returns true when it was present.
    pub fn remove(&mut self, c: CoreId) -> bool {
        let (w, bit) = Self::split(c);
        if w == 0 {
            let present = self.inline & bit != 0;
            self.inline &= !bit;
            present
        } else if let Some(slot) = self.ext.get_mut(w - 1) {
            let present = *slot & bit != 0;
            *slot &= !bit;
            self.trim();
            present
        } else {
            false
        }
    }

    /// Number of cores in the set.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.inline.count_ones() + self.ext.iter().map(|w| w.count_ones()).sum::<u32>()
    }

    /// Is the set empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inline == 0 && self.ext.is_empty()
    }

    /// Remove every core.
    pub fn clear(&mut self) {
        self.inline = 0;
        self.ext.clear();
    }

    /// Keep only the cores for which `keep` returns true, visiting members
    /// in ascending order (in-place filter: no clone of a spilled set).
    pub fn retain(&mut self, mut keep: impl FnMut(CoreId) -> bool) {
        let words = std::iter::once(&mut self.inline).chain(self.ext.iter_mut());
        for (wi, w) in words.enumerate() {
            let mut bits = *w;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !keep(wi * WORD_BITS + bit) {
                    *w &= !(1u64 << bit);
                }
            }
        }
        self.trim();
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
        self.inline |= other.inline;
        if self.ext.len() < other.ext.len() {
            self.ext.resize(other.ext.len(), 0);
        }
        for (mine, theirs) in self.ext.iter_mut().zip(&other.ext) {
            *mine |= *theirs;
        }
    }

    /// Is every core of `self` also in `other`?
    #[must_use]
    pub fn is_subset(&self, other: &SharerSet) -> bool {
        if self.inline & !other.inline != 0 {
            return false;
        }
        self.ext.iter().enumerate().all(|(i, w)| w & !other.word(i + 1) == 0)
    }

    /// Iterate the member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        std::iter::once(self.inline).chain(self.ext.iter().copied()).enumerate().flat_map(
            |(wi, mut w)| {
                std::iter::from_fn(move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + bit)
                })
            },
        )
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
    fn retain_filters_in_order_and_stays_canonical() {
        let mut s: SharerSet = [1usize, 63, 64, 130, 200].into_iter().collect();
        let mut visited = Vec::new();
        s.retain(|c| {
            visited.push(c);
            c % 2 == 1
        });
        assert_eq!(visited, vec![1, 63, 64, 130, 200], "ascending visit order");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 63]);
        assert_eq!(s, [1usize, 63].into_iter().collect::<SharerSet>(), "extension trimmed");
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
