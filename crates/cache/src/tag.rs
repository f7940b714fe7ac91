//! Generic set-associative tag array with true-LRU replacement.

use suv_types::{CacheGeom, LineAddr, LINE_SHIFT};

/// One way of one set. The default — all zeroes — is an empty way, so a
/// fresh array is one zeroed allocation whose pages the host never touches
/// until a set in them is used (two whole words and no padding when `M` is
/// `()`, which is what lets the 131 072-way L2 array be exactly that).
#[derive(Debug, Clone, Default)]
struct Way<M> {
    /// [`tag_of`] the resident line; 0 = an empty way.
    tag: u64,
    /// `tick << 1 | dirty`: the LRU stamp (larger = more recently used;
    /// ticks are unique, so the low bit never decides an order) with the
    /// dirty bit beneath it. 0 in an empty way.
    stamp: u64,
    meta: M,
}

impl<M> Way<M> {
    fn dirty(&self) -> bool {
        self.stamp & 1 != 0
    }

    /// Stamp the way used at `tick`; `dirty` ORs into its dirty bit.
    fn touch(&mut self, tick: u64, dirty: bool) {
        self.stamp = tick << 1 | (self.stamp & 1) | u64::from(dirty);
    }
}

/// The address bits of a tag.
const LINE: u64 = !((1 << LINE_SHIFT) - 1);

/// A resident line's tag: its address with the valid bit in bit 0, which a
/// 64-byte-aligned address leaves free. Never 0, whatever the line.
fn tag_of(line: LineAddr) -> u64 {
    debug_assert_eq!(line & !LINE, 0, "{line:#x} is not a line address");
    (line & LINE) | 1
}

/// A line evicted to make room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction<M> {
    /// Address of the evicted line.
    pub line: LineAddr,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
    /// Its per-line metadata at eviction time.
    pub meta: M,
}

/// Set-associative tag array, generic over per-line metadata `M`.
///
/// One allocation holds every way: set `s` owns `slots[s * ways..][..ways]`,
/// its resident lines packed at the front and empty ways behind them, so a
/// lookup is one scan of the set with nothing else to load, and what the
/// scan finds — stamp, dirty bit, metadata — sits in the way it matched.
/// Within a set the order is the one a growable vector of ways would keep —
/// a new line goes at the back, a removed line's place is taken by the
/// last — because that order is observable: it breaks no LRU tie (stamps
/// are unique) but it is the order [`TagArray::resident_lines`] reports,
/// which `crates/cache/tests/tag_reference.rs` pins against exactly that
/// model.
#[derive(Debug, Clone)]
pub struct TagArray<M> {
    slots: Vec<Way<M>>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<M: Clone + Default> TagArray<M> {
    /// Build from a geometry. The set count must be a power of two.
    pub fn new(geom: &CacheGeom) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        TagArray {
            slots: vec![Way::default(); sets * geom.ways],
            ways: geom.ways,
            set_mask: sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        ((line >> LINE_SHIFT) & self.set_mask) as usize
    }

    /// The set index a line maps to (exposed for SUV's entry encoding,
    /// which stores "L1 cache set index bits" in redirect entries).
    pub fn set_index(&self, line: LineAddr) -> usize {
        self.set_of(line)
    }

    /// Where in `slots` the ways of the set `line` maps to are.
    fn set(&self, line: LineAddr) -> std::ops::Range<usize> {
        let base = self.set_of(line) * self.ways;
        base..base + self.ways
    }

    fn find(&self, line: LineAddr) -> Option<&Way<M>> {
        let tag = tag_of(line);
        self.slots[self.set(line)].iter().find(|w| w.tag == tag)
    }

    fn find_mut(&mut self, line: LineAddr) -> Option<&mut Way<M>> {
        let (set, tag) = (self.set(line), tag_of(line));
        self.slots[set].iter_mut().find(|w| w.tag == tag)
    }

    /// Is the line resident?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Touch the line (LRU update). Returns true on hit. Counts hit/miss.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        self.hit_load(line).is_some()
    }

    /// Service a load hit in one set scan: LRU touch plus metadata access.
    /// Counts hit/miss exactly as [`TagArray::touch`] does.
    pub fn hit_load(&mut self, line: LineAddr) -> Option<&mut M> {
        self.hit(line, false)
    }

    /// Service a store hit in one set scan: LRU touch, dirty mark, and
    /// metadata access (replaces a `touch` + `meta_mut` + `mark_dirty`
    /// triple scan on the hottest cache path). Counts hit/miss.
    pub fn hit_store(&mut self, line: LineAddr) -> Option<&mut M> {
        self.hit(line, true)
    }

    fn hit(&mut self, line: LineAddr, store: bool) -> Option<&mut M> {
        self.tick += 1;
        let (tick, set, tag) = (self.tick, self.set(line), tag_of(line));
        // (Not `find_mut`: the counters are updated beside the borrow.)
        if let Some(w) = self.slots[set].iter_mut().find(|w| w.tag == tag) {
            w.touch(tick, store);
            self.hits += 1;
            Some(&mut w.meta)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Service a hit only if `grant` accepts the resident line's metadata:
    /// one set scan decides residency, permission and the LRU touch. An
    /// accepted line is touched, counted as a hit and (with `store`) marked
    /// dirty; an absent or refused one changes and counts nothing — the
    /// caller goes on to a coherence request, whose [`TagArray::insert`]
    /// does the touching.
    pub fn hit_if(
        &mut self,
        line: LineAddr,
        store: bool,
        grant: impl FnOnce(&mut M) -> bool,
    ) -> bool {
        let tick = self.tick + 1;
        let granted = self.find_mut(line).is_some_and(|w| {
            let ok = grant(&mut w.meta);
            if ok {
                w.touch(tick, store);
            }
            ok
        });
        if granted {
            self.tick = tick;
            self.hits += 1;
        }
        granted
    }

    /// Clear a resident line's dirty bit and report whether it was dirty,
    /// in one set scan (replaces an `is_dirty` + `clean` pair). A
    /// non-resident line reports `false`.
    pub fn take_dirty(&mut self, line: LineAddr) -> bool {
        self.find_mut(line).is_some_and(|w| {
            let was = w.dirty();
            w.stamp &= !1;
            was
        })
    }

    /// Insert (or touch) the line; returns the eviction needed to make
    /// room, if any. `dirty` ORs into the line's dirty bit.
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction<M>> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = (self.set(line), tag_of(line));
        let set = &mut self.slots[set];
        // One pass finds the line itself, else where the new line goes: the
        // first way with the smallest stamp. An empty way's stamp is 0 and
        // a resident's at least 1, so that is the first empty way — the
        // back of the resident run — while there is one, the LRU line after.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (i, w) in set.iter_mut().enumerate() {
            if w.tag == tag {
                w.touch(tick, dirty);
                return None;
            }
            if w.stamp < oldest {
                (victim, oldest) = (i, w.stamp);
            }
        }
        let new = Way { tag, stamp: tick << 1 | u64::from(dirty), meta: M::default() };
        if set[victim].tag == 0 {
            set[victim] = new;
            return None;
        }
        // Full: the last way takes the victim's place, the new line the back.
        let last = set.len() - 1;
        set.swap(victim, last);
        let w = std::mem::replace(&mut set[last], new);
        Some(Eviction { line: w.tag & LINE, dirty: w.dirty(), meta: w.meta })
    }

    /// Remove a line (coherence invalidation). Returns its metadata and
    /// dirty bit if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(bool, M)> {
        let (set, tag) = (self.set(line), tag_of(line));
        let set = &mut self.slots[set];
        let i = set.iter().position(|w| w.tag == tag)?;
        // The last resident way takes its place.
        let last = set.iter().rposition(|w| w.tag != 0).expect("way i is resident");
        set.swap(i, last);
        let w = std::mem::take(&mut set[last]);
        Some((w.dirty(), w.meta))
    }

    /// Mark a resident line dirty. Returns false if not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        self.find_mut(line).map(|w| w.stamp |= 1).is_some()
    }

    /// Clear a resident line's dirty bit (after write-back).
    pub fn clean(&mut self, line: LineAddr) -> bool {
        self.find_mut(line).map(|w| w.stamp &= !1).is_some()
    }

    /// Is the line resident and dirty?
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.find(line).is_some_and(Way::dirty)
    }

    /// Mutable metadata access for a resident line.
    pub fn meta_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        self.find_mut(line).map(|w| &mut w.meta)
    }

    /// Metadata access for a resident line.
    pub fn meta(&self, line: LineAddr) -> Option<&M> {
        self.find(line).map(|w| &w.meta)
    }

    /// Iterate over all resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.slots.iter().filter(|w| w.tag != 0).map(|w| w.tag & LINE)
    }

    /// Iterate mutably over every resident line's metadata (gang
    /// operations like FasTM's speculative-bit clear, without re-finding
    /// each line by address).
    pub fn metas_mut(&mut self) -> impl Iterator<Item = &mut M> + '_ {
        self.slots.iter_mut().filter(|w| w.tag != 0).map(|w| &mut w.meta)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident_lines().count()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.resident_lines().next().is_none()
    }

    /// (hits, misses) recorded by [`TagArray::touch`].
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::CacheGeom;

    fn small() -> TagArray<()> {
        // 4 sets x 2 ways.
        TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn hit_and_miss() {
        let mut c = small();
        assert!(!c.touch(0x0));
        c.insert(0x0, false);
        assert!(c.touch(0x0));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0x000, 0x100, 0x200 all map to set 0 (4 sets * 64B = stride 0x100).
        assert!(c.insert(0x000, false).is_none());
        assert!(c.insert(0x100, false).is_none());
        c.touch(0x000); // make 0x100 the LRU way
        let ev = c.insert(0x200, true).expect("eviction");
        assert_eq!(ev.line, 0x100);
        assert!(!ev.dirty);
        assert!(c.contains(0x000));
        assert!(c.contains(0x200));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = small();
        c.insert(0x000, false);
        assert!(c.mark_dirty(0x000));
        c.insert(0x100, false);
        let ev = c.insert(0x200, false).expect("eviction");
        assert_eq!(ev.line, 0x000);
        assert!(ev.dirty, "dirty bit must survive to eviction");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.insert(0x40, true);
        let (dirty, ()) = c.invalidate(0x40).expect("resident");
        assert!(dirty);
        assert!(!c.contains(0x40));
        assert!(c.invalidate(0x40).is_none());
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = small();
        c.insert(0x40, true);
        assert!(c.is_dirty(0x40));
        assert!(c.clean(0x40));
        assert!(!c.is_dirty(0x40));
    }

    #[test]
    fn metadata_per_line() {
        let mut c: TagArray<u32> =
            TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 });
        c.insert(0x80, false);
        *c.meta_mut(0x80).unwrap() = 7;
        assert_eq!(c.meta(0x80), Some(&7));
        assert_eq!(c.meta(0xc0), None);
        // Re-inserting an already-resident line keeps its metadata.
        c.insert(0x80, true);
        assert_eq!(c.meta(0x80), Some(&7));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(c.insert(i * 64, false).is_none());
        }
        assert_eq!(c.len(), 4);
        for i in 0..4u64 {
            assert!(c.contains(i * 64));
        }
    }

    #[test]
    fn hit_store_is_touch_plus_dirty_plus_meta() {
        let mut c: TagArray<u32> =
            TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 });
        assert!(c.hit_store(0x40).is_none(), "miss counted");
        c.insert(0x40, false);
        *c.hit_store(0x40).expect("resident") = 9;
        assert!(c.is_dirty(0x40));
        assert_eq!(c.meta(0x40), Some(&9));
        assert_eq!(c.hit_stats(), (1, 1));
        // LRU is refreshed: after a newer line joins the set, a store hit
        // on 0x40 makes 0x140 the LRU way again.
        c.insert(0x140, false);
        c.hit_store(0x40);
        let ev = c.insert(0x240, false).expect("eviction");
        assert_eq!(ev.line, 0x140, "hit_store must refresh LRU");
    }

    #[test]
    fn take_dirty_clears_and_reports() {
        let mut c = small();
        assert!(!c.take_dirty(0x40), "non-resident is not dirty");
        c.insert(0x40, true);
        assert!(c.take_dirty(0x40));
        assert!(!c.is_dirty(0x40));
        assert!(!c.take_dirty(0x40), "second take sees a clean line");
        assert!(c.contains(0x40), "take_dirty must not evict");
    }

    #[test]
    fn metas_mut_visits_every_resident_line() {
        let mut c: TagArray<u32> =
            TagArray::new(&CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 });
        for i in 0..4u64 {
            c.insert(i * 64, false);
        }
        for m in c.metas_mut() {
            *m += 1;
        }
        for i in 0..4u64 {
            assert_eq!(c.meta(i * 64), Some(&1));
        }
        assert_eq!(c.metas_mut().count(), 4);
    }

    #[test]
    fn paper_l1_geometry() {
        let c: TagArray<()> = TagArray::new(&CacheGeom::l1_default());
        assert_eq!(c.set_index(0x0), 0);
        // 128 sets: set index bits are addr[12:6].
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(127 * 64), 127);
        assert_eq!(c.set_index(128 * 64), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_types::CacheGeom;

    proptest! {
        /// Residency never exceeds capacity, and a just-inserted line is
        /// always resident.
        #[test]
        fn capacity_invariant(lines in proptest::collection::vec(0u64..64, 1..500)) {
            let geom = CacheGeom { capacity_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 };
            let mut c: TagArray<()> = TagArray::new(&geom);
            for l in lines {
                let line = l * 64;
                c.insert(line, false);
                prop_assert!(c.contains(line));
                prop_assert!(c.len() <= geom.lines());
            }
        }

        /// The most recently used line in a set is never the one evicted.
        #[test]
        fn mru_survives(lines in proptest::collection::vec(0u64..32, 2..200)) {
            let geom = CacheGeom { capacity_bytes: 512, ways: 2, line_bytes: 64, latency: 1 };
            let mut c: TagArray<()> = TagArray::new(&geom);
            let mut last: Option<u64> = None;
            for l in lines {
                let line = l * 64;
                if let Some(ev) = c.insert(line, false) {
                    if let Some(prev) = last {
                        prop_assert_ne!(ev.line, prev, "evicted the MRU line");
                    }
                }
                last = Some(line);
            }
        }
    }
}
