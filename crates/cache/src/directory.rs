//! Bit-vector sharer directory (Table III: "L2 Directory — bit vector of
//! sharers, 6-cycle latency").
//!
//! The directory tracks, per line, which cores hold the line and which (if
//! any) owns it exclusively. It is the filter the coherence protocol uses to
//! decide which cores must see a GETS/GETM request. Sharer vectors are
//! [`SharerSet`]s: two inline words up to 128 cores, spilled above, so core
//! ids never wrap the way a bare `1u64 << core` did.

use suv_types::{CoreId, FxHashMap, LineAddr, SharerSet};

/// Directory state for one line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Cores that may hold the line.
    pub sharers: SharerSet,
    /// Core holding the line in M/E, if any.
    pub owner: Option<CoreId>,
}

impl DirEntry {
    /// Is core `c` a sharer?
    pub fn is_sharer(&self, c: CoreId) -> bool {
        self.sharers.contains(c)
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count()
    }
}

/// The full directory.
///
/// Keyed by the deterministic [`FxHashMap`]: the directory is consulted on
/// every coherence request, and the trusted line-address keys need none of
/// SipHash's DoS hardening. Entry *values* are unchanged, so timing and
/// protocol behaviour are bit-identical to the SipHash representation.
///
/// Deliberately *not* a `LineMap`. Every L1 miss inserts an entry and
/// removes another, and hashbrown answers that churn differently by hash
/// quality: bare FxHash funnels the 64-byte-aligned keys through a few
/// probe chains, where a new key soon reuses a removed one's tombstone,
/// so the table stays at the size its entry count needs; index hashing
/// spreads the keys, tombstones go unreclaimed until the growth allowance
/// is spent, and the table — 56-byte buckets — doubles. Measured:
/// `cache.dir_ns` 19 → 13 ns and ~1 % of `stamp_eager` host time, for
/// +7.6 % `peak_rss_mb` on `overflow_stm`, against a bound of 8 %.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: FxHashMap<LineAddr, DirEntry>,
    lookups: u64,
    /// What an untracked line reads as: lookups hand out borrows, and a
    /// miss needs an entry to lend.
    unshared: DirEntry,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Look up a line (counted for stats). Missing lines are unshared.
    pub fn lookup(&mut self, line: LineAddr) -> &DirEntry {
        self.lookups += 1;
        self.peek(line)
    }

    /// Peek without counting a lookup.
    pub fn peek(&self, line: LineAddr) -> &DirEntry {
        self.entries.get(&line).unwrap_or(&self.unshared)
    }

    /// Record that core `c` obtained a shared copy. Any existing exclusive
    /// owner is downgraded to a plain sharer (M/E -> S on a remote GETS).
    pub fn add_sharer(&mut self, line: LineAddr, c: CoreId) {
        let e = self.entries.entry(line).or_default();
        e.sharers.insert(c);
        e.owner = None;
    }

    /// Record that core `c` obtained exclusive ownership: all other sharers
    /// are invalidated. Returns the set of cores that were invalidated.
    pub fn set_owner(&mut self, line: LineAddr, c: CoreId) -> SharerSet {
        let e = self.entries.entry(line).or_default();
        let mut invalidated = std::mem::replace(&mut e.sharers, SharerSet::solo(c));
        invalidated.remove(c);
        e.owner = Some(c);
        invalidated
    }

    /// Core `c` dropped its copy (eviction or invalidation).
    pub fn remove_sharer(&mut self, line: LineAddr, c: CoreId) {
        if let Some(e) = self.entries.get_mut(&line) {
            e.sharers.remove(c);
            if e.owner == Some(c) {
                e.owner = None;
            }
            if e.sharers.is_empty() {
                self.entries.remove(&line);
            }
        }
    }

    /// Directory lookups performed (stats).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }

    /// Iterate over every tracked line and its entry (checker support;
    /// iteration order is unspecified, callers must not let it reach
    /// timing).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> + '_ {
        self.entries.iter().map(|(l, e)| (*l, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_line_is_unshared() {
        let mut d = Directory::new();
        let e = d.lookup(0x40);
        assert!(e.sharers.is_empty());
        assert_eq!(e.owner, None);
        assert_eq!(d.lookups(), 1);
    }

    #[test]
    fn sharers_accumulate() {
        let mut d = Directory::new();
        d.add_sharer(0x40, 0);
        d.add_sharer(0x40, 3);
        let e = d.peek(0x40);
        assert!(e.is_sharer(0));
        assert!(e.is_sharer(3));
        assert!(!e.is_sharer(1));
        assert_eq!(e.sharer_count(), 2);
        assert_eq!(e.owner, None);
    }

    #[test]
    fn ownership_invalidates_others() {
        let mut d = Directory::new();
        d.add_sharer(0x80, 0);
        d.add_sharer(0x80, 1);
        d.add_sharer(0x80, 2);
        let inv = d.set_owner(0x80, 1);
        assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0, 2], "cores 0 and 2 invalidated");
        let e = d.peek(0x80);
        assert_eq!(e.owner, Some(1));
        assert_eq!(e.sharers, SharerSet::solo(1));
    }

    #[test]
    fn downgrade_owner_on_shared_read() {
        let mut d = Directory::new();
        d.set_owner(0xc0, 2);
        d.add_sharer(0xc0, 2); // owner re-reads => still fine
        assert_eq!(d.peek(0xc0).owner, None, "owner adding itself as sharer downgrades");
        d.set_owner(0xc0, 2);
        d.add_sharer(0xc0, 5);
        let e = d.peek(0xc0);
        assert!(e.is_sharer(2) && e.is_sharer(5));
    }

    #[test]
    fn remove_sharer_cleans_up() {
        let mut d = Directory::new();
        d.set_owner(0x100, 4);
        d.remove_sharer(0x100, 4);
        assert_eq!(d.peek(0x100), &DirEntry::default());
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn remove_nonsharer_is_noop() {
        let mut d = Directory::new();
        d.add_sharer(0x140, 1);
        d.remove_sharer(0x140, 2);
        assert!(d.peek(0x140).is_sharer(1));
    }

    #[test]
    fn boundary_cores_do_not_alias() {
        // Before SharerSet, `1u64 << 64` wrapped and core 64 aliased
        // core 0; 65 aliased 1; 128 aliased 0 again.
        let mut d = Directory::new();
        for c in [0usize, 63, 64, 65, 127, 128] {
            d.add_sharer(0x40, c);
        }
        let e = d.peek(0x40);
        assert_eq!(e.sharer_count(), 6);
        assert_eq!(e.sharers.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 127, 128]);
        d.remove_sharer(0x40, 64);
        let e = d.peek(0x40);
        assert!(e.is_sharer(0), "removing 64 must not evict core 0");
        assert!(!e.is_sharer(64));
        let inv = d.set_owner(0x40, 128);
        assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0, 63, 65, 127]);
        assert_eq!(d.peek(0x40).sharers, SharerSet::solo(128));
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        AddSharer(u64, usize),
        SetOwner(u64, usize),
        Remove(u64, usize),
    }

    /// Core ids concentrated on the word boundaries where the old `u64`
    /// representation wrapped (63/64/65, 127/128), plus low ids.
    fn core_strategy() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..16,
            Just(62usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(127usize),
            Just(128usize),
        ]
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..8, core_strategy()).prop_map(|(l, c)| Op::AddSharer(l * 64, c)),
            (0u64..8, core_strategy()).prop_map(|(l, c)| Op::SetOwner(l * 64, c)),
            (0u64..8, core_strategy()).prop_map(|(l, c)| Op::Remove(l * 64, c)),
        ]
    }

    proptest! {
        /// Invariant: whenever a line has an owner, the owner is the sole
        /// sharer — including across the 64-core word boundary.
        #[test]
        fn owner_implies_sole_sharer(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut d = Directory::new();
            let mut lines = std::collections::HashSet::new();
            let mut model: std::collections::HashMap<u64, std::collections::BTreeSet<usize>> =
                std::collections::HashMap::new();
            for op in ops {
                match op {
                    Op::AddSharer(l, c) => {
                        d.add_sharer(l, c);
                        lines.insert(l);
                        model.entry(l).or_default().insert(c);
                    }
                    Op::SetOwner(l, c) => {
                        d.set_owner(l, c);
                        lines.insert(l);
                        let s = model.entry(l).or_default();
                        s.clear();
                        s.insert(c);
                    }
                    Op::Remove(l, c) => {
                        d.remove_sharer(l, c);
                        if let Some(s) = model.get_mut(&l) { s.remove(&c); }
                    }
                }
                for &l in &lines {
                    let e = d.peek(l);
                    if let Some(o) = e.owner {
                        prop_assert_eq!(&e.sharers, &SharerSet::solo(o));
                    }
                    // The directory must agree with a reference BTreeSet
                    // model at every step (no wrap aliasing).
                    let want: Vec<usize> =
                        model.get(&l).map(|s| s.iter().copied().collect()).unwrap_or_default();
                    prop_assert_eq!(e.sharers.iter().collect::<Vec<_>>(), want);
                }
            }
        }
    }
}
