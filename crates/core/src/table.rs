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

use crate::entry::EntryState;
use crate::lru::LruSet;
use std::collections::BTreeSet;
use suv_cache::TagArray;
use suv_mem::PoolAllocator;
use suv_sig::SummarySignature;
use suv_trace::RedirectLevel;
use suv_types::{
    CacheGeom, CoreId, Cycle, LineAddr, LineMap, LineSet, RedirectStats, SuvConfig, LINE_SHIFT,
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

/// Redirect state of one line.
#[derive(Debug, Default, Clone)]
struct LineEntry {
    /// Committed redirection target, if any (`GLOBAL_VALID`).
    committed: Option<LineAddr>,
    /// Live transactions' transient operations (more than one only under
    /// lazy conflict detection).
    transients: Vec<(CoreId, Transient)>,
}

impl LineEntry {
    fn is_empty(&self) -> bool {
        self.committed.is_none() && self.transients.is_empty()
    }
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
pub struct RedirectTable {
    map: LineMap<LineEntry>,
    /// Per-core first level: one fully-associative true-LRU set.
    l1: Vec<LruSet>,
    l2: Vec<TagArray<()>>,
    in_memory: LineSet,
    tx_entries: Vec<BTreeSet<LineAddr>>,
    ovf_l1: Vec<bool>,
    ovf_mem: Vec<bool>,
    cfg: SuvConfig,
    stats: RedirectStats,
    /// Swap-out trace log: lines spilled to memory since the last drain.
    /// Populated only when logging is enabled (tracing on), and drained by
    /// the SUV version manager on every table operation.
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
            line_bytes: 64,
            latency: cfg.l2_latency,
        };
        RedirectTable {
            map: LineMap::default(),
            l1: (0..n_cores).map(|_| LruSet::new(cfg.l1_entries)).collect(),
            l2: (0..banks).map(|_| TagArray::new(&l2_geom)).collect(),
            in_memory: LineSet::default(),
            tx_entries: (0..n_cores).map(|_| BTreeSet::new()).collect(),
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
    pub fn take_swap_log(&mut self) -> Vec<LineAddr> {
        std::mem::take(&mut self.swap_log)
    }

    /// Did the given core's running transaction touch this line's entry?
    /// (The Figure 4 "check the write signature first" step, made exact.)
    pub fn tx_touched(&self, core: CoreId, line: LineAddr) -> bool {
        self.tx_entries[core].contains(&line)
    }

    /// Second-level bank holding `line` (address-interleaved).
    fn bank_of(&self, line: LineAddr) -> usize {
        (line >> LINE_SHIFT) as usize % self.l2.len()
    }

    /// Number of second-level banks (stats / tests).
    pub fn l2_banks(&self) -> usize {
        self.l2.len()
    }

    /// Install `line` into the caching hierarchy after a lookup or insert,
    /// tracking redirect-table overflow events.
    fn install(&mut self, core: CoreId, line: LineAddr) {
        if let Some(victim) = self.l1[core].insert(line) {
            if self.tx_entries[core].contains(&victim) {
                self.ovf_l1[core] = true;
            }
        }
        let bank = self.bank_of(line);
        if let Some(ev) = self.l2[bank].insert(line, false) {
            if let Some(e) = self.map.get(&ev.line) {
                self.in_memory.insert(ev.line);
                if self.log_swaps {
                    self.swap_log.push(ev.line);
                }
                // The transactions whose entry this is are exactly the
                // owners of its transients (INV-6).
                for &(c, _) in &e.transients {
                    self.ovf_mem[c] = true;
                }
            }
        }
        self.in_memory.remove(&line);
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
        self.stats.l1_lookups += 1;
        let lat;
        let level;
        if self.l1[core].touch(line) {
            lat = self.cfg.l1_latency;
            level = RedirectLevel::L1;
        } else {
            self.stats.l1_misses += 1;
            let bank = self.bank_of(line);
            if self.l2[bank].touch(line) {
                lat = self.cfg.l1_latency + self.cfg.l2_latency;
                level = RedirectLevel::L2;
                self.install(core, line);
            } else if self.map.contains_key(&line) {
                // Swapped out: the software search in main memory.
                self.stats.mem_lookups += 1;
                lat = self.cfg.l1_latency + self.cfg.l2_latency + self.cfg.mem_search_cycles;
                level = RedirectLevel::Memory;
                self.install(core, line);
            } else {
                // No entry anywhere: the speculative original-address
                // bypass overlaps the second-level probe and the memory
                // search entirely — the access proceeds with the original
                // address at no extra cost (paper SIV.A).
                lat = self.cfg.l1_latency;
                level = RedirectLevel::L1;
            }
        }
        let hit = self.map.get(&line).map(|e| LookupHit {
            committed: e.committed,
            own: e.transients.iter().find(|(c, _)| *c == core).map(|(_, t)| *t),
            foreign_delete: e
                .transients
                .iter()
                .any(|(c, t)| *c != core && matches!(t, Transient::DeleteGlobal)),
        });
        (hit, lat, level)
    }

    /// Record a transient operation by `core` on `line`.
    pub fn insert_transient(&mut self, core: CoreId, line: LineAddr, t: Transient) {
        let e = self.map.entry(line).or_default();
        debug_assert!(
            !e.transients.iter().any(|(c, _)| *c == core),
            "core {core} already has a transient on {line:#x}"
        );
        if matches!(t, Transient::DeleteGlobal) {
            debug_assert!(e.committed.is_some(), "redirect-back needs a committed entry");
            self.stats.entries_redirected_back += 1;
        } else {
            self.stats.entries_added += 1;
        }
        e.transients.push((core, t));
        self.tx_entries[core].insert(line);
        self.install(core, line);
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
        let lines = std::mem::take(&mut self.tx_entries[core]);
        let n = lines.len();
        for line in lines {
            let e = self.map.get_mut(&line).expect("tx entry must exist");
            let idx =
                e.transients.iter().position(|(c, _)| *c == core).expect("tx transient must exist");
            let (_, t) = e.transients.swap_remove(idx);
            match t {
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
            if e.is_empty() {
                self.map.remove(&line);
                self.in_memory.remove(&line);
            }
        }
        n
    }

    /// Flash-abort `core`'s transients (Table II abort rule): new
    /// redirections die, deletions revert to `GLOBAL_VALID`.
    pub fn abort(&mut self, core: CoreId, pool: &mut PoolAllocator) -> usize {
        let lines = std::mem::take(&mut self.tx_entries[core]);
        let n = lines.len();
        for line in lines {
            let e = self.map.get_mut(&line).expect("tx entry must exist");
            let idx =
                e.transients.iter().position(|(c, _)| *c == core).expect("tx transient must exist");
            let (_, t) = e.transients.swap_remove(idx);
            if let Transient::New { slot } = t {
                pool.free_slot(slot);
            }
            if e.is_empty() {
                self.map.remove(&line);
                self.in_memory.remove(&line);
            }
        }
        n
    }

    /// Flash-abort a specific subset of `core`'s transients (partial
    /// abort of a nested level). Lines not in the subset stay live.
    pub fn abort_lines(&mut self, core: CoreId, lines: &[LineAddr], pool: &mut PoolAllocator) {
        for line in lines {
            if !self.tx_entries[core].remove(line) {
                continue;
            }
            let e = self.map.get_mut(line).expect("tx entry must exist");
            let idx =
                e.transients.iter().position(|(c, _)| *c == core).expect("tx transient must exist");
            let (_, t) = e.transients.swap_remove(idx);
            if let Transient::New { slot } = t {
                pool.free_slot(slot);
            }
            if e.is_empty() {
                self.map.remove(line);
                self.in_memory.remove(line);
            }
        }
    }

    /// Report and reset the per-transaction overflow flags for `core`.
    pub fn take_overflow(&mut self, core: CoreId) -> (bool, bool) {
        (std::mem::take(&mut self.ovf_l1[core]), std::mem::take(&mut self.ovf_mem[core]))
    }

    /// Live entries (committed or transient).
    pub fn live_entries(&self) -> usize {
        self.map.len()
    }

    /// Entries currently swapped out to main memory.
    pub fn swapped_out(&self) -> usize {
        self.in_memory.len()
    }

    /// Lookup statistics (Figures 7/8).
    pub fn stats(&self) -> RedirectStats {
        self.stats
    }

    /// Count a summary-signature false positive (lookup found nothing).
    pub fn note_false_positive(&mut self) {
        self.stats.summary_false_positives += 1;
    }

    /// Fold the summary signature's filter counters into the stats.
    pub fn absorb_summary_stats(&mut self, summary: &SummarySignature) {
        self.stats.summary_filtered = summary.filtered();
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
        for (&line, e) in &self.map {
            // INV-7: flash commit/abort leaves zero dangling (empty) entries.
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
            let mut deletes = 0;
            for &(c, t) in &e.transients {
                // INV-6: every transient belongs to exactly one live
                // transaction and is tracked in its tx-entry set.
                if e.transients.iter().filter(|(c2, _)| *c2 == c).count() > 1 {
                    return Err(format!("INV-6 line {line:#x}: core {c} has two transients"));
                }
                if !self.tx_entries[c].contains(&line) {
                    return Err(format!(
                        "INV-6 line {line:#x}: core {c} transient not in its tx-entry set"
                    ));
                }
                match t {
                    Transient::New { slot } => claim_slot(line, slot, "transient")?,
                    Transient::DeleteGlobal => {
                        deletes += 1;
                        if e.committed.is_none() {
                            return Err(format!(
                                "INV-7 line {line:#x}: GLOBAL_DELETING without a committed entry"
                            ));
                        }
                    }
                }
            }
            if deletes > 1 {
                return Err(format!("INV-7 line {line:#x}: {deletes} concurrent deletions"));
            }
        }
        // INV-6, reverse direction: every tracked tx entry has a transient.
        for (c, set) in self.tx_entries.iter().enumerate() {
            for &line in set {
                let ok = self
                    .map
                    .get(&line)
                    .is_some_and(|e| e.transients.iter().any(|(c2, _)| *c2 == c));
                if !ok {
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
    /// for `line` from its tx-entry set while the transient stays live —
    /// the commit flash would then leave a dangling transient (the seeded
    /// INV-6 bug the oracle must catch).
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
            l1_latency: 0,
            l2_entries: 16,
            l2_ways: 2,
            l2_latency: 10,
            mem_search_cycles: 150,
            pool_page_alloc_cycles: 30,
            summary_bits: 256,
            summary_hashes: 2,
            l2_banks: 0,
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
        assert!(t.swapped_out() > 0, "second level must have spilled");
        // Find a line that is in memory and look it up from core 1.
        let spilled = *t.in_memory.iter().next().unwrap();
        let (hit, lat) = t.lookup(1, spilled);
        assert!(hit.is_some());
        assert_eq!(lat, cfg.l2_latency + cfg.mem_search_cycles);
        assert!(t.stats().mem_lookups >= 1);
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
                    if t.tx_touched(0, line) {
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
    }
}
