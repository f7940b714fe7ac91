//! The two-level redirect table.
//!
//! Logically the table is one chip-wide map from original line addresses to
//! redirect state — a committed target plus any transient (per-transaction)
//! operations. Physically, entries are cached in a per-core zero-latency
//! fully-associative first-level table and a shared, slower second-level
//! table; entries evicted from both are "swapped out" to main memory, where
//! a software-managed search finds them. A lookup that misses both hardware
//! levels *speculatively proceeds with the original address* (paper §IV.A),
//! so only lookups whose entry genuinely lives in memory pay the search.
//!
//! On the host a lookup is one probe (DESIGN.md §13.2). The entries sit in
//! a slab; a transaction's own transients live in its core's hashed
//! `line -> (transient, slab slot)` map, which answers "did this
//! transaction touch the line" and "with what" together; and each
//! first-level way remembers the slab slot of the line it caches, checked
//! against the slot's line before use, so a first-level hit needs no second
//! search for the entry.

use crate::entry::EntryState;
use crate::lru::LruSet;
use std::collections::hash_map::Entry;
use suv_cache::TagArray;
use suv_mem::PoolAllocator;
use suv_sig::SummarySignature;
use suv_trace::RedirectLevel;
use suv_types::config::MEM_SEARCH_CYCLES;
use suv_types::{
    CacheGeom, CoreId, Cycle, LineAddr, LineMap, LineSet, RedirectStats, SharerSet, SuvConfig,
    LINE_SHIFT,
};

/// A transaction's in-flight operation on one line's redirect state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transient {
    /// A new redirection to a pool slot (entry state `LOCAL_VALID`).
    New {
        /// The pool line holding the speculative new value.
        slot: LineAddr,
    },
    /// Deletion of the committed redirection — the *redirect-back*
    /// optimization: the new value is written to the original address and
    /// the entry is reclaimed on commit (entry state `GLOBAL_DELETING`).
    DeleteGlobal,
}

impl Transient {
    /// The Table II state this transient corresponds to.
    pub fn state(self) -> EntryState {
        match self {
            Transient::New { .. } => EntryState::LOCAL_VALID,
            Transient::DeleteGlobal => EntryState::GLOBAL_DELETING,
        }
    }
}

/// The `line` of a slab slot on the free list: not a line address, so no
/// first-level way's remembered slot can mistake it for its line.
const FREE: LineAddr = LineAddr::MAX;

/// First-level tag of a line cached without a known slab slot.
const NO_SLOT: u32 = u32::MAX;

/// Redirect state of one line: a slot of the entry slab — 64 bytes,
/// aligned so that a lookup's slot is one host cache line, not two.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct LineEntry {
    /// The line this slot describes, [`FREE`] while it describes none.
    line: LineAddr,
    /// Committed redirection target, if any (`GLOBAL_VALID`).
    committed: Option<LineAddr>,
    /// The cores whose live transaction holds a transient on the line
    /// (more than one only under lazy conflict detection). What each holds
    /// is in its own `tx_entries` map (INV-6).
    holders: SharerSet,
    /// The holder whose transient is `DeleteGlobal` (at most one, INV-7).
    deleter: Option<u32>,
}

impl LineEntry {
    fn is_empty(&self) -> bool {
        self.committed.is_none() && self.holders.is_empty()
    }
}

/// One of a transaction's own transients.
#[derive(Debug, Clone, Copy)]
struct Own {
    transient: Transient,
    /// Slab slot of the line's entry, which a holder keeps alive.
    entry: u32,
}

/// What a lookup tells the requesting core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupHit {
    /// The committed redirection target, if any.
    pub committed: Option<LineAddr>,
    /// The requesting core's own transient operation, if any.
    pub own: Option<Transient>,
    /// Some other live transaction is deleting the committed entry
    /// (possible only under lazy conflict detection); a new writer must
    /// then take a fresh pool slot instead of redirecting back.
    pub foreign_delete: bool,
}

/// The chip-wide redirect table with its two hardware levels.
///
/// The second level is sharded into address-interleaved banks
/// ([`SuvConfig::l2_bank_count`]): one bank — the paper's single shared
/// table — up to 16 cores, more on larger machines so the shared level
/// does not become a single serialization point. Bank selection is a pure
/// function of the line address, so it is deterministic and needs no
/// inter-bank coordination.
#[derive(Clone)]
pub struct RedirectTable {
    /// Entry slab; `index` names the slot of every line that has state,
    /// `free` the slots that describe none.
    entries: Vec<LineEntry>,
    index: LineMap<u32>,
    free: Vec<u32>,
    /// Per-core first level: one fully-associative true-LRU set, each way
    /// tagged with the slab slot its line had when last seen.
    l1: Vec<LruSet>,
    /// Second-level banks; each way remembers a slab slot as the first
    /// level's do (0, checked like any other, until a lookup learns it).
    l2: Vec<TagArray<u32>>,
    /// Per-core transients of the running transaction. Emptied, never
    /// dropped, when it ends, so a core's map is sized once.
    tx_entries: Vec<LineMap<Own>>,
    /// Scratch of [`RedirectTable::flash`] (kept for its capacity).
    batch: Vec<(LineAddr, Own)>,
    ovf_l1: Vec<bool>,
    ovf_mem: Vec<bool>,
    cfg: SuvConfig,
    stats: RedirectStats,
    /// Swap-out trace log: lines spilled to memory since the last drain.
    /// Populated only when logging is enabled (tracing on), and drained by
    /// the SUV version manager with every lookup it traces.
    swap_log: Vec<LineAddr>,
    log_swaps: bool,
}

impl RedirectTable {
    /// Build the table for `n_cores` cores.
    pub fn new(n_cores: usize, cfg: &SuvConfig) -> Self {
        // The configured entry budget is split evenly across the banks;
        // with one bank (<=16 cores) this is exactly the unbanked table.
        let banks = cfg.l2_bank_count(n_cores);
        let l2_geom = CacheGeom {
            capacity_bytes: (cfg.l2_entries / banks).max(cfg.l2_ways) as u64 * 64,
            ways: cfg.l2_ways,
        };
        RedirectTable {
            entries: Vec::new(),
            index: LineMap::default(),
            free: Vec::new(),
            l1: (0..n_cores).map(|_| LruSet::new(cfg.l1_entries)).collect(),
            l2: (0..banks).map(|_| TagArray::new(&l2_geom)).collect(),
            tx_entries: (0..n_cores).map(|_| LineMap::default()).collect(),
            batch: Vec::new(),
            ovf_l1: vec![false; n_cores],
            ovf_mem: vec![false; n_cores],
            cfg: *cfg,
            stats: RedirectStats::default(),
            swap_log: Vec::new(),
            log_swaps: false,
        }
    }

    /// Enable/disable the swap-out trace log.
    pub fn set_swap_logging(&mut self, on: bool) {
        self.log_swaps = on;
        if !on {
            self.swap_log.clear();
        }
    }

    /// Drain the swap-out trace log (empty unless logging is enabled).
    pub fn drain_swap_log(&mut self) -> impl Iterator<Item = LineAddr> + '_ {
        self.swap_log.drain(..)
    }

    /// The transient `core`'s running transaction holds on `line`, if any.
    /// (The Figure 4 "check the write signature first" step, made exact.)
    pub fn own_transient(&self, core: CoreId, line: LineAddr) -> Option<Transient> {
        self.tx_entries[core].get(&line).map(|own| own.transient)
    }

    /// Second-level bank holding `line` (address-interleaved).
    fn bank_of(&self, line: LineAddr) -> usize {
        (line >> LINE_SHIFT) as usize % self.l2.len()
    }

    /// Number of second-level banks (stats / tests).
    pub fn l2_banks(&self) -> usize {
        self.l2.len()
    }

    /// The slab slot of `line`'s entry for a lookup that found the line in
    /// a cache way, which remembers the slot the line had when last seen in
    /// `tag`: that slot while it still describes the line (entries come and
    /// go under a cached line, and slots are recycled), else whatever the
    /// index says. `known` is the slot when the caller already has it. The
    /// way remembers the answer.
    fn cached_slot(
        entries: &[LineEntry],
        index: &LineMap<u32>,
        line: LineAddr,
        known: Option<u32>,
        tag: &mut u32,
    ) -> Option<u32> {
        let slot = known.or_else(|| {
            if entries.get(*tag as usize).is_some_and(|e| e.line == line) {
                Some(*tag)
            } else {
                index.get(&line).copied()
            }
        });
        if let Some(slot) = slot {
            *tag = slot;
        }
        slot
    }

    /// Cache `line` in `core`'s first level after a lookup or insert,
    /// flagging the overflow when a line of its transaction falls out.
    /// `slot` is its entry's slab slot, when it has an entry.
    fn install_l1(&mut self, core: CoreId, line: LineAddr, slot: Option<u32>) {
        if let Some(victim) = self.l1[core].insert(line, slot.unwrap_or(NO_SLOT)) {
            if self.tx_entries[core].contains_key(&victim) {
                self.ovf_l1[core] = true;
            }
        }
    }

    /// Cache `line` in its second-level bank (or refresh it there); an
    /// entry that falls out is swapped out to main memory.
    fn install_l2(&mut self, line: LineAddr, slot: Option<u32>) {
        let bank = self.bank_of(line);
        let evicted = self.l2[bank].insert(line, false);
        if let (Some(slot), Some(tag)) = (slot, self.l2[bank].meta_mut(line)) {
            *tag = slot;
        }
        if let Some(mut ev) = evicted {
            if let Some(out) =
                Self::cached_slot(&self.entries, &self.index, ev.line, None, &mut ev.meta)
            {
                if self.log_swaps {
                    self.swap_log.push(ev.line);
                }
                // The transactions whose entry this is are exactly its
                // holders (INV-6).
                for c in self.entries[out as usize].holders.iter() {
                    self.ovf_mem[c] = true;
                }
            }
        }
    }

    /// One lookup's walk down the hierarchy on behalf of `core`: counts it,
    /// installs the line where the hardware would, and returns the latency,
    /// the level that served it and the slab slot of the line's entry, if
    /// it has one. `known` is that slot when the caller already has it.
    #[inline]
    fn walk(
        &mut self,
        core: CoreId,
        line: LineAddr,
        known: Option<u32>,
    ) -> (Cycle, RedirectLevel, Option<u32>) {
        self.stats.l1_lookups += 1;
        if let Some(tag) = self.l1[core].touch(line) {
            let slot = Self::cached_slot(&self.entries, &self.index, line, known, tag);
            return (0, RedirectLevel::L1, slot);
        }
        self.stats.l1_misses += 1;
        let bank = self.bank_of(line);
        if let Some(tag) = self.l2[bank].hit_load(line) {
            // The hit stamped the way most recently used; installing the
            // line there again would only stamp it once more.
            let slot = Self::cached_slot(&self.entries, &self.index, line, known, tag);
            self.install_l1(core, line, slot);
            return (self.cfg.l2_latency, RedirectLevel::L2, slot);
        }
        let slot = known.or_else(|| self.index.get(&line).copied());
        if slot.is_none() {
            // No entry anywhere: the speculative original-address bypass
            // overlaps the second-level probe and the memory search
            // entirely — the access proceeds with the original address at
            // no extra cost (paper SIV.A).
            return (0, RedirectLevel::L1, None);
        }
        // Swapped out: the software search in main memory.
        self.stats.mem_lookups += 1;
        self.install_l1(core, line, slot);
        self.install_l2(line, slot);
        let lat = self.cfg.l2_latency + MEM_SEARCH_CYCLES;
        (lat, RedirectLevel::Memory, slot)
    }

    /// Look up a line's redirect state on behalf of `core`. Returns the
    /// core's view and the lookup latency.
    pub fn lookup(&mut self, core: CoreId, line: LineAddr) -> (Option<LookupHit>, Cycle) {
        let (hit, lat, _) = self.lookup_leveled(core, line);
        (hit, lat)
    }

    /// [`lookup`](Self::lookup), also reporting which table level served
    /// the request (for tracing).
    pub fn lookup_leveled(
        &mut self,
        core: CoreId,
        line: LineAddr,
    ) -> (Option<LookupHit>, Cycle, RedirectLevel) {
        let (lat, level, slot) = self.walk(core, line, None);
        let hit = slot.map(|slot| {
            let e = &self.entries[slot as usize];
            LookupHit {
                committed: e.committed,
                own: if e.holders.contains(core) { self.own_transient(core, line) } else { None },
                foreign_delete: e.deleter.is_some_and(|d| d as CoreId != core),
            }
        });
        (hit, lat, level)
    }

    /// The lookup of a line `core`'s running transaction may already hold
    /// a transient on: `None`, with nothing counted, when it holds none;
    /// otherwise that transient and the lookup's latency and level — one
    /// probe of the core's own map, which also names the entry.
    pub fn lookup_own(
        &mut self,
        core: CoreId,
        line: LineAddr,
    ) -> Option<(Transient, Cycle, RedirectLevel)> {
        let own = *self.tx_entries[core].get(&line)?;
        let (lat, level, _) = self.walk(core, line, Some(own.entry));
        Some((own.transient, lat, level))
    }

    /// Record a transient operation by `core` on `line`.
    pub fn insert_transient(&mut self, core: CoreId, line: LineAddr, t: Transient) {
        let slot = match self.index.entry(line) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => *v.insert(if let Some(slot) = self.free.pop() {
                // A released slot is empty but for its line.
                self.entries[slot as usize].line = line;
                slot
            } else {
                self.entries.push(LineEntry {
                    line,
                    committed: None,
                    holders: SharerSet::new(),
                    deleter: None,
                });
                u32::try_from(self.entries.len() - 1).expect("entry slab fits 32 bits")
            }),
        };
        let e = &mut self.entries[slot as usize];
        let fresh_holder = e.holders.insert(core);
        debug_assert!(fresh_holder, "core {core} already has a transient on {line:#x}");
        if matches!(t, Transient::DeleteGlobal) {
            debug_assert!(e.committed.is_some(), "redirect-back needs a committed entry");
            debug_assert!(e.deleter.is_none(), "{line:#x} is already being redirected back");
            e.deleter = Some(core as u32);
            self.stats.entries_redirected_back += 1;
        } else {
            self.stats.entries_added += 1;
        }
        self.tx_entries[core].insert(line, Own { transient: t, entry: slot });
        self.install_l1(core, line, Some(slot));
        self.install_l2(line, Some(slot));
    }

    /// End `core`'s transaction: apply `rule` to each of its transients in
    /// ascending line order — the order the flashes free pool slots and
    /// update the summary in, which the pool's free list makes observable —
    /// leaving its map empty. Returns how many there were.
    fn flash(&mut self, core: CoreId, mut rule: impl FnMut(&mut Self, LineAddr, Own)) -> usize {
        let mut batch = std::mem::take(&mut self.batch);
        batch.extend(self.tx_entries[core].drain());
        batch.sort_unstable_by_key(|&(line, _)| line);
        for &(line, own) in &batch {
            rule(self, line, own);
        }
        let n = batch.len();
        batch.clear();
        self.batch = batch;
        n
    }

    /// Remove `core`'s transient from its line's entry, for the caller to
    /// apply or discard; [`release`](Self::release) follows.
    fn detach(&mut self, core: CoreId, line: LineAddr, own: Own) -> &mut LineEntry {
        let e = &mut self.entries[own.entry as usize];
        debug_assert_eq!(e.line, line, "a holder keeps its entry's slot");
        e.holders.remove(core);
        if e.deleter == Some(core as u32) {
            e.deleter = None;
        }
        e
    }

    /// Reclaim the entry in `slot` once nothing is left in it.
    fn release(&mut self, line: LineAddr, slot: u32) {
        let e = &mut self.entries[slot as usize];
        if e.is_empty() {
            e.line = FREE;
            self.free.push(slot);
            self.index.remove(&line);
        }
    }

    /// Flash-commit `core`'s transients (Table II commit rule), updating
    /// the summary signature and recycling pool slots. Returns the number
    /// of entries processed.
    pub fn commit(
        &mut self,
        core: CoreId,
        summary: &mut SummarySignature,
        pool: &mut PoolAllocator,
    ) -> usize {
        self.flash(core, |table, line, own| {
            let e = table.detach(core, line, own);
            match own.transient {
                Transient::New { slot } => {
                    // LOCAL_VALID -> GLOBAL_VALID.
                    if let Some(old) = e.committed.replace(slot) {
                        // A previous committed redirection is superseded
                        // (lazy mode); its slot is reclaimed and the
                        // summary already contains the line.
                        pool.free_slot(old);
                    } else {
                        summary.add(line);
                    }
                }
                Transient::DeleteGlobal => {
                    // GLOBAL_DELETING -> DEAD: the entry is reclaimed.
                    let old = e.committed.take().expect("redirect-back had a committed entry");
                    pool.free_slot(old);
                    summary.delete(line);
                }
            }
            table.release(line, own.entry);
        })
    }

    /// Flash-abort `core`'s transients (Table II abort rule): new
    /// redirections die, deletions revert to `GLOBAL_VALID`.
    pub fn abort(&mut self, core: CoreId, pool: &mut PoolAllocator) -> usize {
        self.flash(core, |table, line, own| table.discard(core, line, own, pool))
    }

    /// Flash-abort a specific subset of `core`'s transients (partial
    /// abort of a nested level). Lines not in the subset stay live.
    pub fn abort_lines(&mut self, core: CoreId, lines: &[LineAddr], pool: &mut PoolAllocator) {
        for &line in lines {
            if let Some(own) = self.tx_entries[core].remove(&line) {
                self.discard(core, line, own, pool);
            }
        }
    }

    /// The abort rule for one transient.
    fn discard(&mut self, core: CoreId, line: LineAddr, own: Own, pool: &mut PoolAllocator) {
        self.detach(core, line, own);
        if let Transient::New { slot } = own.transient {
            pool.free_slot(slot);
        }
        self.release(line, own.entry);
    }

    /// Report and reset the per-transaction overflow flags for `core`.
    pub fn take_overflow(&mut self, core: CoreId) -> (bool, bool) {
        (std::mem::take(&mut self.ovf_l1[core]), std::mem::take(&mut self.ovf_mem[core]))
    }

    /// Live entries (committed or transient).
    pub fn live_entries(&self) -> usize {
        self.index.len()
    }

    /// Lookup statistics (Figures 7/8).
    pub fn stats(&self) -> RedirectStats {
        self.stats
    }

    /// Count a summary-signature false positive (lookup found nothing).
    pub fn note_false_positive(&mut self) {
        self.stats.summary_false_positives += 1;
    }

    /// Audit the table against its invariants (INV-5..INV-8 and INV-10 in
    /// DESIGN.md). `Err` describes the first violation found. Iteration
    /// order never reaches timing — this is a pure oracle.
    pub fn check_invariants(
        &self,
        summary: &SummarySignature,
        pool: &PoolAllocator,
    ) -> Result<(), String> {
        let mut live_slots = LineSet::default();
        let mut claim_slot = |line: LineAddr, slot: LineAddr, what: &str| -> Result<(), String> {
            // INV-5: no two live mappings share a pool slot.
            if !live_slots.insert(slot) {
                return Err(format!("INV-5 line {line:#x}: {what} slot {slot:#x} aliased"));
            }
            // INV-8: a live slot must be one the pool actually handed out
            // and has not simultaneously put back on its free list.
            if !pool.region().contains(slot) {
                return Err(format!("INV-8 line {line:#x}: {what} slot {slot:#x} outside pool"));
            }
            if pool.is_unallocated(slot) {
                return Err(format!(
                    "INV-8 line {line:#x}: {what} slot {slot:#x} live but available in the pool"
                ));
            }
            Ok(())
        };
        for (&line, &at) in &self.index {
            let e = &self.entries[at as usize];
            // INV-7: flash commit/abort leaves zero dangling (empty) entries,
            // and an indexed slab slot describes the line that names it.
            if e.line != line {
                return Err(format!("INV-7 line {line:#x}: indexed slot describes {:#x}", e.line));
            }
            if e.is_empty() {
                return Err(format!("INV-7 line {line:#x}: dangling empty entry"));
            }
            if let Some(slot) = e.committed {
                claim_slot(line, slot, "committed")?;
                // INV-10: the summary signature is a superset of the
                // committed redirect set (a false negative would silently
                // read stale data).
                if !summary.contains(line) {
                    return Err(format!("INV-10 line {line:#x}: committed but not in summary"));
                }
            }
            for c in e.holders.iter() {
                // INV-6: every holder is a live transaction that tracks the
                // line, at this slot, in its tx-entry map.
                let Some(own) = self.tx_entries[c].get(&line).filter(|own| own.entry == at) else {
                    return Err(format!(
                        "INV-6 line {line:#x}: core {c} transient not in its tx-entry set"
                    ));
                };
                match own.transient {
                    Transient::New { slot } => claim_slot(line, slot, "transient")?,
                    Transient::DeleteGlobal if e.deleter != Some(c as u32) => {
                        return Err(format!("INV-7 line {line:#x}: concurrent deletions"));
                    }
                    Transient::DeleteGlobal => {}
                }
            }
            if let Some(d) = e.deleter {
                if e.committed.is_none() {
                    return Err(format!(
                        "INV-7 line {line:#x}: GLOBAL_DELETING without a committed entry"
                    ));
                }
                if self.own_transient(d as CoreId, line) != Some(Transient::DeleteGlobal) {
                    return Err(format!(
                        "INV-6 line {line:#x}: core {d} deletes without a transient"
                    ));
                }
            }
        }
        // INV-6, reverse direction: every tracked tx entry is held.
        for (c, own_lines) in self.tx_entries.iter().enumerate() {
            for (&line, own) in own_lines {
                let held = self.index.get(&line) == Some(&own.entry)
                    && self.entries[own.entry as usize].holders.contains(c);
                if !held {
                    return Err(format!(
                        "INV-6 line {line:#x}: core {c} tx entry without a transient"
                    ));
                }
            }
        }
        // INV-12: no pool slot leaks across an abort (overflow or normal)
        // and none is freed twice — the pool's free list must audit clean
        // and its live-slot count must equal the number of slots the table
        // references (committed targets + New transients).
        pool.check_consistency().map_err(|e| format!("INV-12 pool audit: {e}"))?;
        let live = pool.live_slots();
        if live != live_slots.len() as u64 {
            return Err(format!(
                "INV-12: pool holds {live} live slots but the table references {}",
                live_slots.len()
            ));
        }
        Ok(())
    }

    /// Fault injection for checker self-tests: drop `core`'s bookkeeping
    /// for `line` from its tx-entry map while the entry still names the
    /// core a holder — the commit flash would then leave a dangling
    /// transient (the seeded INV-6 bug the oracle must catch).
    pub fn inject_forget_tx_entry(&mut self, core: CoreId, line: LineAddr) {
        self.tx_entries[core].remove(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_mem::Region;

    pub(super) fn small_cfg() -> SuvConfig {
        SuvConfig {
            l1_entries: 4,
            l2_entries: 16,
            l2_ways: 2,
            l2_latency: 10,
            summary_bits: 256,
            summary_hashes: 2,
        }
    }

    fn setup() -> (RedirectTable, SummarySignature, PoolAllocator) {
        (
            RedirectTable::new(2, &small_cfg()),
            SummarySignature::new(256, 2),
            PoolAllocator::new(Region::pool()),
        )
    }

    #[test]
    fn new_entry_commit_becomes_global() {
        let (mut t, mut sum, mut pool) = setup();
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, 0x1000, Transient::New { slot });
        // The owner sees its transient; another core sees nothing usable.
        let (hit, _) = t.lookup(0, 0x1000);
        assert_eq!(hit.unwrap().own, Some(Transient::New { slot }));
        let (hit1, _) = t.lookup(1, 0x1000);
        let h1 = hit1.unwrap();
        assert_eq!(h1.own, None);
        assert_eq!(h1.committed, None);
        t.commit(0, &mut sum, &mut pool);
        // Now committed and visible to everyone.
        let (hit1, _) = t.lookup(1, 0x1000);
        assert_eq!(hit1.unwrap().committed, Some(slot));
        assert!(sum.contains(0x1000));
    }

    #[test]
    fn new_entry_abort_disappears_and_recycles_slot() {
        let (mut t, sum, mut pool) = setup();
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, 0x2000, Transient::New { slot });
        t.abort(0, &mut pool);
        let (hit, _) = t.lookup(0, 0x2000);
        assert!(hit.is_none());
        assert!(!sum.contains(0x2000));
        assert_eq!(pool.free_slots(), 1, "slot recycled");
        assert_eq!(t.live_entries(), 0);
    }

    #[test]
    fn redirect_back_commit_deletes_entry() {
        let (mut t, mut sum, mut pool) = setup();
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, 0x3000, Transient::New { slot });
        t.commit(0, &mut sum, &mut pool);
        // Second transaction redirects back.
        t.insert_transient(1, 0x3000, Transient::DeleteGlobal);
        let (hit, _) = t.lookup(1, 0x3000);
        assert_eq!(hit.unwrap().own, Some(Transient::DeleteGlobal));
        t.commit(1, &mut sum, &mut pool);
        let (hit, _) = t.lookup(1, 0x3000);
        assert!(hit.is_none(), "entry deleted on redirect-back commit");
        assert!(!sum.contains(0x3000), "summary entry deleted");
        assert_eq!(pool.free_slots(), 1, "old slot reclaimed");
        assert_eq!(t.stats().entries_redirected_back, 1);
    }

    #[test]
    fn redirect_back_abort_restores_global() {
        let (mut t, mut sum, mut pool) = setup();
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, 0x4000, Transient::New { slot });
        t.commit(0, &mut sum, &mut pool);
        t.insert_transient(1, 0x4000, Transient::DeleteGlobal);
        t.abort(1, &mut pool);
        let (hit, _) = t.lookup(0, 0x4000);
        assert_eq!(hit.unwrap().committed, Some(slot), "GLOBAL_VALID restored");
        assert!(sum.contains(0x4000));
    }

    #[test]
    fn lookup_latencies_by_level() {
        let (mut t, mut sum, mut pool) = setup();
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, 0x5000, Transient::New { slot });
        t.commit(0, &mut sum, &mut pool);
        // Core 0 cached it at insert: first-level hit, zero latency.
        let (_, lat) = t.lookup(0, 0x5000);
        assert_eq!(lat, 0);
        // Core 1 misses its first level, hits the shared second level.
        let (_, lat1) = t.lookup(1, 0x5000);
        assert_eq!(lat1, 10);
        // Now cached in core 1's first level too.
        let (_, lat2) = t.lookup(1, 0x5000);
        assert_eq!(lat2, 0);
    }

    #[test]
    fn missing_entry_is_free_via_speculation() {
        let (mut t, _, _) = setup();
        let (hit, lat) = t.lookup(0, 0x9999_0000);
        assert!(hit.is_none());
        assert_eq!(lat, 0, "speculative bypass overlaps the whole search");
    }

    #[test]
    fn swapped_out_entry_pays_memory_search() {
        let cfg = small_cfg();
        let (mut t, mut sum, mut pool) = setup();
        // Commit far more entries than the 16-entry second level holds,
        // all from core 0 (4-entry L1 keeps only the last few).
        for i in 0..64u64 {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(0, 0x10_0000 + i * 64, Transient::New { slot });
            t.commit(0, &mut sum, &mut pool);
        }
        // The first line went in 63 inserts ago: its two-way set has been
        // refilled since, so it lives in memory. Look it up from core 1.
        let (hit, lat) = t.lookup(1, 0x10_0000);
        assert!(hit.is_some());
        assert_eq!(lat, cfg.l2_latency + MEM_SEARCH_CYCLES);
        assert_eq!(t.stats().mem_lookups, 1);
        // The search brought it back into both hardware levels.
        assert_eq!(t.lookup(1, 0x10_0000).1, 0);
        assert_eq!(t.lookup(0, 0x10_0000).1, cfg.l2_latency);
    }

    #[test]
    fn tx_overflow_flags() {
        let (mut t, _, mut pool) = setup();
        // 5 transients into a 4-entry first level: one must spill.
        for i in 0..5u64 {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(0, 0x20_0000 + i * 64, Transient::New { slot });
        }
        let (l1_ovf, _) = t.take_overflow(0);
        assert!(l1_ovf, "first-level redirect table overflow must be flagged");
        let (l1_ovf2, _) = t.take_overflow(0);
        assert!(!l1_ovf2, "flags reset after take");
        t.abort(0, &mut pool);
    }

    #[test]
    fn paper_machine_keeps_one_shared_bank() {
        let t = RedirectTable::new(16, &small_cfg());
        assert_eq!(t.l2_banks(), 1, "<=16 cores must behave exactly like the unbanked table");
    }

    #[test]
    fn banked_table_keeps_flash_semantics() {
        // A 128-core machine shards the second level (128/16 = 8 banks);
        // commit/abort flashes and lookup levels must behave identically,
        // just with line->bank interleaving underneath.
        let mut cfg = small_cfg();
        cfg.l2_entries = 64;
        let mut t = RedirectTable::new(128, &cfg);
        assert_eq!(t.l2_banks(), 8);
        let mut sum = SummarySignature::new(256, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        // Lines chosen to land in distinct banks ((line >> 6) % 8).
        let lines: Vec<LineAddr> = (0..8u64).map(|i| 0x8000 + i * 64).collect();
        for (i, &line) in lines.iter().enumerate() {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(100 + i, line, Transient::New { slot });
        }
        t.check_invariants(&sum, &pool).expect("clean with live transients");
        for (i, &line) in lines.iter().enumerate() {
            t.commit(100 + i, &mut sum, &mut pool);
            let (hit, lat) = t.lookup(0, line);
            assert!(hit.unwrap().committed.is_some(), "{line:#x} committed");
            assert_eq!(lat, cfg.l2_latency, "core 0 hits the shared level");
        }
        t.check_invariants(&sum, &pool).expect("clean after flash commits");
    }

    #[test]
    fn concurrent_transients_from_lazy_mode() {
        let (mut t, mut sum, mut pool) = setup();
        let (s0, _) = pool.alloc_slot();
        let (s1, _) = pool.alloc_slot();
        t.insert_transient(0, 0x6000, Transient::New { slot: s0 });
        t.insert_transient(1, 0x6000, Transient::New { slot: s1 });
        // Each core sees its own transient.
        assert_eq!(t.lookup(0, 0x6000).0.unwrap().own, Some(Transient::New { slot: s0 }));
        assert_eq!(t.lookup(1, 0x6000).0.unwrap().own, Some(Transient::New { slot: s1 }));
        // Core 1 commits first; core 0 aborts (doomed).
        t.commit(1, &mut sum, &mut pool);
        t.abort(0, &mut pool);
        assert_eq!(t.lookup(0, 0x6000).0.unwrap().committed, Some(s1));
        assert_eq!(pool.free_slots(), 1, "loser's slot recycled");
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_mem::Region;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model-checking the table against a simple reference map under
        /// single-core (eager) operation: after any sequence of
        /// write+commit / write+abort transactions, the committed view
        /// matches the model and no pool slot is leaked or double-used.
        #[test]
        fn eager_model_equivalence(txs in proptest::collection::vec(
            (proptest::collection::vec(0u64..16, 1..6), any::<bool>()), 1..40))
        {
            let cfg = super::tests::small_cfg();
            let mut t = RedirectTable::new(1, &cfg);
            let mut sum = SummarySignature::new(256, 2);
            let mut pool = PoolAllocator::new(Region::pool());
            // Model: line -> currently redirected?
            let mut model = std::collections::HashMap::<u64, bool>::new();
            for (lines, commit) in txs {
                let mut touched = std::collections::HashSet::new();
                for l in lines {
                    let line = 0x7000 + l * 64;
                    if !touched.insert(line) {
                        continue; // one transient per line per tx
                    }
                    let (hit, _) = t.lookup(0, line);
                    let committed = hit.and_then(|h| h.committed);
                    if t.own_transient(0, line).is_some() {
                        continue;
                    }
                    if committed.is_some() {
                        t.insert_transient(0, line, Transient::DeleteGlobal);
                    } else {
                        let (slot, _) = pool.alloc_slot();
                        t.insert_transient(0, line, Transient::New { slot });
                    }
                }
                if commit {
                    for line in &touched {
                        let e = model.entry(*line).or_insert(false);
                        *e = !*e; // New toggles on; DeleteGlobal toggles off
                    }
                    t.commit(0, &mut sum, &mut pool);
                } else {
                    t.abort(0, &mut pool);
                }
                // Check the committed view against the model.
                for (line, redirected) in &model {
                    let (hit, _) = t.lookup(0, *line);
                    let has = hit.is_some_and(|h| h.committed.is_some());
                    prop_assert_eq!(has, *redirected, "line {:#x}", line);
                    if *redirected {
                        prop_assert!(sum.contains(*line), "summary superset violated");
                    }
                }
            }
        }

        /// The per-transaction entry maps against a `BTreeMap` reference
        /// kept here, on two cores that may hold transients on one line:
        /// the same membership after every insert / `abort_lines` /
        /// commit / abort, the same committed view, and the same pool
        /// slots freed in the same order — that of a walk of the reference
        /// in ascending line order, which is what the sort at the end of a
        /// transaction has to restore.
        #[test]
        fn tx_entry_map_matches_an_ordered_reference(
            ops in proptest::collection::vec((0usize..2, 0u8..10, 0u64..24, any::<u32>()), 1..120)
        ) {
            use std::collections::BTreeMap;
            const LINES: u64 = 24;
            let line_at = |i: u64| 0x9000 + i * 64;
            let mut t = RedirectTable::new(2, &super::tests::small_cfg());
            let mut sum = SummarySignature::new(256, 2);
            let mut pool = PoolAllocator::new(Region::pool());
            let mut committed = BTreeMap::<LineAddr, LineAddr>::new();
            let mut own = [BTreeMap::<LineAddr, Transient>::new(), BTreeMap::new()];
            for (core, kind, l, bits) in ops {
                let mut freed = Vec::new();
                match kind {
                    // Write a line: redirect back when the table allows it.
                    0..=5 => {
                        let line = line_at(l);
                        if !own[core].contains_key(&line) {
                            let deleting = own.iter().any(|o| o.get(&line) == Some(&Transient::DeleteGlobal));
                            let transient = if committed.contains_key(&line) && !deleting {
                                Transient::DeleteGlobal
                            } else {
                                Transient::New { slot: pool.alloc_slot().0 }
                            };
                            t.insert_transient(core, line, transient);
                            own[core].insert(line, transient);
                        }
                    }
                    // Partial abort of an arbitrary list of lines, with
                    // strangers and repeats, in no particular order.
                    6 => {
                        let lines: Vec<LineAddr> = (0..LINES)
                            .filter(|i| bits >> i & 1 == 1)
                            .chain([l, l])
                            .map(|i| line_at(i * 7 % LINES))
                            .collect();
                        for line in &lines {
                            if let Some(Transient::New { slot }) = own[core].remove(line) {
                                freed.push(slot);
                            }
                        }
                        t.abort_lines(core, &lines, &mut pool);
                    }
                    7 => {
                        let held = std::mem::take(&mut own[core]);
                        for transient in held.values() {
                            if let Transient::New { slot } = *transient {
                                freed.push(slot);
                            }
                        }
                        prop_assert_eq!(t.abort(core, &mut pool), held.len());
                    }
                    _ => {
                        for (line, transient) in std::mem::take(&mut own[core]) {
                            freed.extend(match transient {
                                Transient::New { slot } => committed.insert(line, slot),
                                Transient::DeleteGlobal => committed.remove(&line),
                            });
                        }
                        t.commit(core, &mut sum, &mut pool);
                    }
                }
                // The newest entries of the pool's LIFO free list are the
                // slots just freed, last one on top; put them back as found.
                let top: Vec<LineAddr> = freed.iter().map(|_| pool.alloc_slot().0).collect();
                for &slot in top.iter().rev() {
                    pool.free_slot(slot);
                }
                freed.reverse();
                prop_assert_eq!(top, freed, "pool slots freed in another order");
                for (c, held) in own.iter().enumerate() {
                    for line in (0..LINES).map(line_at) {
                        prop_assert_eq!(
                            t.own_transient(c, line), held.get(&line).copied(),
                            "core {} line {:#x}", c, line
                        );
                    }
                }
                for line in (0..LINES).map(line_at) {
                    let seen = t.lookup(core, line).0.and_then(|h| h.committed);
                    prop_assert_eq!(seen, committed.get(&line).copied(), "line {:#x}", line);
                }
                let audit = t.check_invariants(&sum, &pool);
                prop_assert!(audit.is_ok(), "{:?}", audit);
            }
        }
    }
}
