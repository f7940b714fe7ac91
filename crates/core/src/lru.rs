//! An exact true-LRU set of line addresses in O(1) per operation.
//!
//! The first-level redirect table is one 512-way fully-associative set.
//! Modelled as a [`suv_cache::TagArray`] it costs a 512-way scan per
//! lookup and two per evicting insert; here a hash index finds the entry
//! and an intrusive doubly-linked recency list (most recent at the head)
//! names the victim. Each resident line carries a `u32` tag the owner may
//! read and rewrite on a hit; the set never interprets it.
//!
//! A touch of the line already at the head is answered from the head node
//! without consulting the index: moving the head to the head changes
//! nothing, so the short-cut is the same operation, not an approximation
//! of it. Most lookups of a core ask for the line it looked up last.
//!
//! The replacement decisions are those of `TagArray`'s LRU stamps, not an
//! approximation of them. `TagArray` stamps a way with a fresh, strictly
//! increasing tick on every hit and every insert and evicts the minimum
//! stamp; the stamps of resident lines are therefore distinct, and sorting
//! the lines by stamp gives exactly the order of this list, which moves a
//! line to the head on the same two events. The minimum stamp is the tail.
//!
//! The index is a fixed open-addressed table of node slots (linear probing,
//! at most half full, deletion by backward shift) rather than a `LineMap`:
//! a full set replaces one key per insert for as long as it runs, and under
//! that churn a tombstoning table keeps doubling until it is a quarter
//! full. This one is `capacity` nodes plus `2 * capacity` slot numbers —
//! the footprint of the ways it replaces — and never reallocates.

use std::hash::Hasher;
use suv_types::{FxHasher, LineAddr, LINE_SHIFT};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    line: LineAddr,
    /// Towards the head (more recently used).
    prev: u32,
    /// Towards the tail (less recently used).
    next: u32,
    /// The owner's per-line datum.
    tag: u32,
}

/// Fully-associative set of at most `capacity` lines with true-LRU
/// replacement.
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    /// Open-addressed index: `0` is empty, `n + 1` names `nodes[n]`. A
    /// line probes linearly from its home position.
    table: Vec<u32>,
    /// `home = hash >> home_shift`: the top bits of the multiplicative
    /// hash, which are its best ones.
    home_shift: u32,
    /// Slab of list nodes; grows to `capacity`, then slots are recycled.
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
}

impl LruSet {
    /// Empty set holding up to `capacity` lines.
    ///
    /// # Panics
    /// When `capacity` is zero or does not fit the 32-bit slot index.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity < NIL as usize / 2,
            "LRU capacity {capacity} out of range"
        );
        let positions = (2 * capacity).next_power_of_two();
        LruSet {
            capacity,
            table: vec![0; positions],
            home_shift: u64::BITS - positions.trailing_zeros(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no line is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Is the line resident? (No recency update.)
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Mark a resident line most recently used and hand out its tag;
    /// `None` on a miss.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut u32> {
        let slot = match self.nodes.get(self.head as usize) {
            Some(head) if head.line == line => self.head,
            _ => {
                let (_, slot) = self.find(line)?;
                self.move_to_head(slot);
                slot
            }
        };
        Some(&mut self.nodes[slot as usize].tag)
    }

    /// Insert the line as most recently used with the given tag (or touch
    /// it and retag it when resident); returns the least recently used
    /// line when one had to make room.
    pub fn insert(&mut self, line: LineAddr, tag: u32) -> Option<LineAddr> {
        if let Some(resident) = self.touch(line) {
            *resident = tag;
            return None;
        }
        if self.nodes.len() < self.capacity {
            let slot = self.nodes.len() as u32;
            self.nodes.push(Node { line, prev: NIL, next: NIL, tag });
            self.index(line, slot);
            self.link_at_head(slot);
            return None;
        }
        // Full: the tail's slot is recycled for the new line.
        let slot = self.tail;
        let victim = self.nodes[slot as usize].line;
        let (at, _) = self.find(victim).expect("the tail line is indexed");
        self.unindex(at);
        let node = &mut self.nodes[slot as usize];
        node.line = line;
        node.tag = tag;
        self.index(line, slot);
        self.move_to_head(slot);
        Some(victim)
    }

    fn home(&self, line: LineAddr) -> usize {
        let mut h = FxHasher::default();
        h.write_u64(line >> LINE_SHIFT);
        (h.finish() >> self.home_shift) as usize
    }

    /// The table position and node slot of a resident line.
    fn find(&self, line: LineAddr) -> Option<(usize, u32)> {
        let mask = self.table.len() - 1;
        let mut at = self.home(line);
        loop {
            let slot = self.table[at].checked_sub(1)?;
            if self.nodes[slot as usize].line == line {
                return Some((at, slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// Enter a non-resident line into the index.
    fn index(&mut self, line: LineAddr, slot: u32) {
        let mask = self.table.len() - 1;
        let mut at = self.home(line);
        while self.table[at] != 0 {
            at = (at + 1) & mask;
        }
        self.table[at] = slot + 1;
    }

    /// Empty position `hole`, moving the entries of the probe run behind it
    /// back so that each is still reachable from its home position.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let Some(slot) = self.table[at].checked_sub(1) else { break };
            let origin = self.home(self.nodes[slot as usize].line);
            // Movable unless its home position lies in `(hole, at]`, cyclically.
            if (at.wrapping_sub(origin) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[at];
                hole = at;
            }
        }
        self.table[hole] = 0;
    }

    fn move_to_head(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_at_head(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_at_head(&mut self, slot: u32) {
        let old = self.head;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.nodes[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut s = LruSet::new(2);
        assert_eq!(s.insert(0x000, 0), None);
        assert_eq!(s.insert(0x040, 0), None);
        assert!(s.touch(0x000).is_some()); // 0x040 is now the LRU line
        assert_eq!(s.insert(0x080, 0), Some(0x040));
        assert!(s.contains(0x000) && s.contains(0x080) && !s.contains(0x040));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reinsert_is_a_touch() {
        let mut s = LruSet::new(2);
        s.insert(0x000, 0);
        s.insert(0x040, 0);
        assert_eq!(s.insert(0x000, 0), None, "resident: no eviction");
        assert_eq!(s.insert(0x080, 0), Some(0x040), "the re-insert refreshed 0x000");
    }

    #[test]
    fn capacity_one_always_evicts_the_previous_line() {
        let mut s = LruSet::new(1);
        assert_eq!(s.insert(0x40, 0), None);
        assert!(s.touch(0x80).is_none());
        assert_eq!(s.insert(0x80, 0), Some(0x40));
        assert_eq!(s.insert(0x80, 0), None);
        assert_eq!(s.insert(0x40, 0), Some(0x80));
    }

    #[test]
    fn tags_follow_their_lines() {
        let mut s = LruSet::new(2);
        s.insert(0x000, 7);
        s.insert(0x040, 8);
        assert_eq!(s.touch(0x000).copied(), Some(7), "found through the index");
        *s.touch(0x000).expect("resident") = 9; // through the head short-cut
        assert_eq!(s.touch(0x040).copied(), Some(8));
        assert_eq!(s.touch(0x000).copied(), Some(9));
        s.insert(0x000, 1);
        assert_eq!(s.touch(0x000).copied(), Some(1), "a re-insert retags");
        assert_eq!(s.insert(0x080, 2), Some(0x040));
        assert_eq!(s.touch(0x080).copied(), Some(2), "the recycled slot took the new tag");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_cache::TagArray;
    use suv_types::CacheGeom;

    /// The scan model the set replaced: one set of `ways` ways.
    fn reference(ways: usize) -> TagArray<()> {
        TagArray::new(&CacheGeom { capacity_bytes: ways as u64 * 64, ways })
    }

    impl LruSet {
        /// `touch` without the head short-cut: always through the index.
        fn touch_plain(&mut self, line: LineAddr) -> bool {
            match self.find(line) {
                Some((_, slot)) => {
                    self.move_to_head(slot);
                    true
                }
                None => false,
            }
        }
    }

    /// A stream in which a draw repeats the previous line `repeat` times
    /// in 8, as a core's lookups do.
    fn with_runs(
        raw: Vec<(bool, u64, u8)>,
        repeat: u8,
        span: u64,
        stride: u64,
    ) -> Vec<(bool, u64)> {
        let mut last = 0;
        raw.into_iter()
            .map(|(is_insert, r, again)| {
                if again % 8 >= repeat {
                    last = (r % span) * stride * 64;
                }
                (is_insert, last)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Same hit/miss per `touch` and same evicted line per `insert` as
        /// a fully-associative `TagArray`, at the degenerate, a small and
        /// the paper's capacity. The address range is a little wider than
        /// the capacity so full sets keep evicting; `stride` spaces the
        /// lines out so the index sees other probe patterns than those of
        /// consecutive lines.
        #[test]
        fn matches_fully_associative_tag_array(
            which in 0usize..3,
            stride in prop_oneof![Just(1u64), Just(37), Just((1 << 20) + 1)],
            ops in proptest::collection::vec((any::<bool>(), 0u64..1 << 16), 1..3000),
        ) {
            let capacity = [1usize, 4, 512][which];
            let span = capacity as u64 * 3 / 2 + 2;
            let mut lru = LruSet::new(capacity);
            let mut tags = reference(capacity);
            for (is_insert, raw) in ops {
                let line = (raw % span) * stride * 64;
                if is_insert {
                    let want = tags.insert(line, false).map(|ev| ev.line);
                    prop_assert_eq!(lru.insert(line, 0), want, "insert {:#x}", line);
                } else {
                    prop_assert_eq!(lru.touch(line).is_some(), tags.touch(line), "touch {:#x}", line);
                }
                prop_assert_eq!(lru.len(), tags.len());
            }
        }

        /// The head short-cut is the plain `find` + `move_to_head`: two
        /// sets fed one stream, one touching through the short-cut and one
        /// always through the index, agree on every hit and every victim,
        /// whether the stream never, sometimes or mostly repeats a line.
        #[test]
        fn head_short_cut_is_the_plain_touch(
            which in 0usize..3,
            repeat in prop_oneof![Just(0u8), Just(3), Just(7)],
            stride in prop_oneof![Just(1u64), Just(37)],
            raw in proptest::collection::vec((any::<bool>(), 0u64..1 << 16, any::<u8>()), 1..3000),
        ) {
            let capacity = [1usize, 4, 512][which];
            let span = capacity as u64 * 3 / 2 + 2;
            let mut short = LruSet::new(capacity);
            let mut plain = LruSet::new(capacity);
            for (is_insert, line) in with_runs(raw, repeat, span, stride) {
                if is_insert {
                    // `insert` on the plain side is its touch, then the
                    // shared miss path (which never meets a resident line).
                    let want = if plain.touch_plain(line) { None } else { plain.insert(line, 0) };
                    prop_assert_eq!(short.insert(line, 0), want, "victim of {:#x}", line);
                } else {
                    prop_assert_eq!(
                        short.touch(line).is_some(), plain.touch_plain(line), "touch {:#x}", line
                    );
                }
                prop_assert_eq!(short.head, plain.head);
                prop_assert_eq!(short.tail, plain.tail);
            }
        }
    }
}
