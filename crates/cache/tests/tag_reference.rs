//! `TagArray` against a plain `Vec<Vec<_>>` reference model.
//!
//! The model is the textbook structure — one growable vector of ways per
//! set, a new line pushed at the back, a victim `swap_remove`d — written
//! out with no cleverness. Whatever layout `TagArray` uses inside, every
//! observable must match it: each hit and miss, each eviction's victim,
//! dirty bit and metadata, the order `resident_lines()` and `metas_mut()`
//! walk the array in, and the `(hits, misses)` counters. The victim and the
//! iteration order reach simulated timing (LRU decides what a fill evicts;
//! the invariant sweep reports the first violation in that order), so they
//! are pinned here rather than left to the goldens.

use proptest::prelude::*;
use suv_cache::{Eviction, TagArray};
use suv_types::CacheGeom;

#[derive(Clone)]
struct RefWay {
    line: u64,
    dirty: bool,
    lru: u64,
    meta: u32,
}

/// The reference: `sets[s]` lists the resident ways of set `s`.
struct RefArray {
    sets: Vec<Vec<RefWay>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl RefArray {
    fn new(geom: &CacheGeom) -> Self {
        RefArray {
            sets: vec![Vec::new(); geom.sets()],
            ways: geom.ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<RefWay> {
        let s = (line / 64) as usize % self.sets.len();
        &mut self.sets[s]
    }

    fn find(&mut self, line: u64) -> Option<&mut RefWay> {
        self.set(line).iter_mut().find(|w| w.line == line)
    }

    /// `hit_load` / `touch` (and, with `store`, `hit_store`).
    fn hit(&mut self, line: u64, store: bool) -> Option<&mut u32> {
        self.tick += 1;
        let tick = self.tick;
        if self.find(line).is_none() {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        let w = self.find(line).expect("just found");
        w.lru = tick;
        w.dirty |= store;
        Some(&mut w.meta)
    }

    /// `hit_if`: a hit only when `grant` accepts the resident metadata; a
    /// refusal or an absent line counts nothing and stamps nothing.
    fn hit_if(&mut self, line: u64, store: bool, grant: impl FnOnce(&mut u32) -> bool) -> bool {
        let tick = self.tick + 1;
        let Some(w) = self.find(line) else { return false };
        if !grant(&mut w.meta) {
            return false;
        }
        w.lru = tick;
        w.dirty |= store;
        self.tick = tick;
        self.hits += 1;
        true
    }

    fn insert(&mut self, line: u64, dirty: bool) -> Option<Eviction<u32>> {
        self.tick += 1;
        let (tick, ways) = (self.tick, self.ways);
        if let Some(w) = self.find(line) {
            w.lru = tick;
            w.dirty |= dirty;
            return None;
        }
        let set = self.set(line);
        let mut evicted = None;
        if set.len() == ways {
            // The first way with the smallest stamp.
            let mut victim = 0;
            for (i, w) in set.iter().enumerate() {
                if w.lru < set[victim].lru {
                    victim = i;
                }
            }
            let w = set.swap_remove(victim);
            evicted = Some(Eviction { line: w.line, dirty: w.dirty, meta: w.meta });
        }
        set.push(RefWay { line, dirty, lru: tick, meta: 0 });
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<(bool, u32)> {
        let set = self.set(line);
        let i = set.iter().position(|w| w.line == line)?;
        let w = set.swap_remove(i);
        Some((w.dirty, w.meta))
    }

    fn resident(&self) -> Vec<u64> {
        self.sets.iter().flatten().map(|w| w.line).collect()
    }

    fn metas(&self) -> Vec<u32> {
        self.sets.iter().flatten().map(|w| w.meta).collect()
    }
}

/// The geometries the sweep covers: direct-mapped, 2-way, the paper's
/// 4-way shape shrunk to 4 sets, and a single fully associative set.
const GEOMS: [(u64, usize); 4] = [(256, 1), (512, 2), (1024, 4), (512, 8)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_observable_matches_the_reference(
        shape in 0usize..GEOMS.len(),
        ops in proptest::collection::vec((0u8..14, 0u64..40, any::<u32>()), 1..600),
    ) {
        let (capacity_bytes, ways) = GEOMS[shape];
        let geom = CacheGeom { capacity_bytes, ways };
        let mut real: TagArray<u32> = TagArray::new(&geom);
        let mut model = RefArray::new(&geom);
        for (op, l, v) in ops {
            let line = l * 64;
            match op {
                0 | 1 => prop_assert_eq!(real.insert(line, op == 1), model.insert(line, op == 1)),
                2 => prop_assert_eq!(real.touch(line), model.hit(line, false).is_some()),
                3 => prop_assert_eq!(real.hit_load(line).copied(), model.hit(line, false).copied()),
                4 => {
                    // A store hit hands out the metadata: write through it.
                    let (r, m) = (real.hit_store(line), model.hit(line, true));
                    prop_assert_eq!(r.is_some(), m.is_some());
                    if let (Some(r), Some(m)) = (r, m) {
                        (*r, *m) = (v, v);
                    }
                }
                5 => prop_assert_eq!(real.invalidate(line), model.invalidate(line)),
                6 => {
                    let want = model.find(line).is_some_and(|w| std::mem::take(&mut w.dirty));
                    prop_assert_eq!(real.take_dirty(line), want);
                }
                7 => {
                    let want = model.find(line).map(|w| w.dirty = true).is_some();
                    prop_assert_eq!(real.mark_dirty(line), want);
                }
                8 => {
                    let want = model.find(line).map(|w| w.dirty = false).is_some();
                    prop_assert_eq!(real.clean(line), want);
                }
                9 => {
                    let (r, m) = (real.meta_mut(line), model.find(line));
                    prop_assert_eq!(r.is_some(), m.is_some());
                    if let (Some(r), Some(m)) = (r, m) {
                        (*r, m.meta) = (v, v);
                    }
                }
                10 => {
                    for (r, w) in real.metas_mut().zip(model.sets.iter_mut().flatten()) {
                        *r = r.wrapping_add(v);
                        w.meta = w.meta.wrapping_add(v);
                    }
                }
                11 | 12 => {
                    // Grant even metadata, and leave a mark when granting.
                    let grant = |m: &mut u32| {
                        let ok = m.is_multiple_of(2);
                        *m = m.wrapping_add(2 * u32::from(ok));
                        ok
                    };
                    let store = op == 12;
                    prop_assert_eq!(real.hit_if(line, store, grant), model.hit_if(line, store, grant));
                }
                _ => {
                    let want = model.find(line).map(|w| (w.dirty, w.meta));
                    prop_assert_eq!(real.contains(line), want.is_some());
                    prop_assert_eq!(real.is_dirty(line), want.is_some_and(|w| w.0));
                    prop_assert_eq!(real.meta(line).copied(), want.map(|w| w.1));
                }
            }
            prop_assert_eq!(real.resident_lines().collect::<Vec<_>>(), model.resident());
            prop_assert_eq!(real.metas_mut().map(|m| *m).collect::<Vec<_>>(), model.metas());
            prop_assert_eq!(real.hit_stats(), (model.hits, model.misses));
            prop_assert_eq!(real.len(), model.resident().len());
            prop_assert_eq!(real.is_empty(), model.resident().is_empty());
        }
        // Drain through evictions: every dirty bit and metadata word the
        // array still holds must come out as the reference's does.
        for l in 40..40 + 2 * geom.lines() as u64 {
            prop_assert_eq!(real.insert(l * 64, false), model.insert(l * 64, false));
        }
    }
}
