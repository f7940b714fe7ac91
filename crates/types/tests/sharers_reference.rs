//! `SharerSet` against a `BTreeSet<usize>` across its word boundaries.
//!
//! Core ids cluster on 63/64, 127/128/129 and a few far ones, so every
//! storage tier the set has — however many words it keeps inline — is
//! crossed in both directions. Whatever the representation, equal sets must
//! be `==` and hash alike regardless of how they were reached (the
//! directory compares and the checkers fingerprint them), iteration is
//! ascending, and `word(i)` / `to_word` expose the same 64-core words.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use suv_types::SharerSet;

const IDS: [usize; 16] = [0, 1, 5, 62, 63, 64, 65, 126, 127, 128, 129, 130, 191, 192, 255, 700];

fn hash_of(s: &SharerSet) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(s)
}

/// Every observable of `s` equals the model's.
fn check(s: &SharerSet, model: &BTreeSet<usize>) {
    assert_eq!(s.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    assert_eq!(s.count() as usize, model.len());
    assert_eq!(s.is_empty(), model.is_empty());
    for c in IDS {
        assert_eq!(s.contains(c), model.contains(&c), "contains {c}");
    }
    for w in 0..12 {
        let want = model.iter().filter(|c| *c / 64 == w).fold(0u64, |a, c| a | 1 << (c % 64));
        assert_eq!(s.word(w), want, "word {w}");
    }
    let one_word = model.iter().all(|c| *c < 64);
    assert_eq!(s.to_word(), one_word.then(|| s.word(0)));
    // Canonical: a set built fresh from the members is indistinguishable.
    let fresh: SharerSet = model.iter().copied().collect();
    assert_eq!(s, &fresh, "history leaked into Eq");
    assert_eq!(hash_of(s), hash_of(&fresh), "history leaked into Hash");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_observable_matches_a_btreeset(
        ops in proptest::collection::vec((0u8..7, 0usize..IDS.len(), 0usize..IDS.len()), 1..300),
    ) {
        let (mut a, mut b) = (SharerSet::new(), SharerSet::new());
        let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
        for (op, i, j) in ops {
            let (c, d) = (IDS[i], IDS[j]);
            match op {
                0 | 1 => prop_assert_eq!(a.insert(c), ma.insert(c)),
                2 => prop_assert_eq!(a.remove(c), ma.remove(&c)),
                3 => prop_assert_eq!(b.insert(d), mb.insert(d)),
                4 => prop_assert_eq!(b.remove(d), mb.remove(&d)),
                5 => {
                    let (w, mut mw) = (a.without(c), ma.clone());
                    mw.remove(&c);
                    check(&w, &mw);
                    prop_assert!(w.is_subset(&a));
                }
                _ => {
                    a.union_with(&b);
                    ma.extend(&mb);
                }
            }
            check(&a, &ma);
            check(&b, &mb);
            prop_assert_eq!(a.is_subset(&b), ma.is_subset(&mb));
            prop_assert_eq!(b.is_subset(&a), mb.is_subset(&ma));
            prop_assert_eq!(a == b, ma == mb);
            prop_assert_eq!(SharerSet::solo(c).iter().collect::<Vec<_>>(), vec![c]);
        }
        a.clear();
        check(&a, &BTreeSet::new());
        prop_assert_eq!(&a, &SharerSet::new());
    }
}
