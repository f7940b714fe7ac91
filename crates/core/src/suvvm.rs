//! The SUV version manager.
//!
//! Wires the redirect table, the preserved pool and the redirect summary
//! signature into the [`VersionManager`] interface. The access paths follow
//! Figure 4 of the paper:
//!
//! * a load first checks its own transaction's entry set and the summary
//!   signature; only a positive sends it to the redirect table, whose
//!   first level is zero-latency;
//! * a transactional store either extends an existing redirection, creates
//!   a new one into a fresh pool slot, or — when the line is already
//!   globally redirected — *redirects back* to the original address,
//!   scheduling the entry (and its slot) for deletion at commit;
//! * commit and abort are flash transitions over the transaction's entries
//!   (plus summary-signature add/delete at commit) — constant time, the
//!   titular *single update*.

use crate::table::{LookupHit, RedirectTable, Transient};
use suv_htm::vm::{LevelOp, LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use suv_mem::{LineData, PoolAllocator, Region};
use suv_sig::SummarySignature;
use suv_trace::{RedirectLevel, TraceEvent};
use suv_types::config::POOL_PAGE_ALLOC_CYCLES;
use suv_types::{line_of, Addr, CoreId, Cycle, LineAddr, RedirectStats, SchemeKind, SuvConfig};

/// Flash commit/abort cost: the gang state-bit transition plus the summary
/// update, independent of the write-set size.
const FLASH_CYCLES: Cycle = 2;

/// One nested level's rollback state (the LogTM-Nested stacked frame SUV
/// inherits, paper SIV.C): the redirect entries this level created, plus
/// saved pre-level values for lines an *outer* level had already
/// redirected (the level writes into the same slot, so the slot's prior
/// contents must be restorable).
#[derive(Debug, Default, Clone)]
struct LevelFrame {
    new_lines: Vec<LineAddr>,
    saves: Vec<(LineAddr, LineData)>,
    saved_lines: Vec<LineAddr>,
}

/// SUV-TM's version manager.
#[derive(Clone)]
pub struct SuvVm {
    table: RedirectTable,
    summary: SummarySignature,
    pool: PoolAllocator,
    /// Open nested-level frames, per core.
    // nested-vec-ok: one stack of frames per core, touched at level begin/end only
    levels: Vec<Vec<LevelFrame>>,
}

impl SuvVm {
    /// Build for `n_cores` cores with the redirect pool clamped to at most
    /// `pool_pages` pages (0 = unbounded). A dry pool turns fresh-slot
    /// stores into [`StoreTarget::Overflow`].
    pub fn new(n_cores: usize, cfg: &SuvConfig, pool_pages: u64) -> Self {
        SuvVm {
            table: RedirectTable::new(n_cores, cfg),
            summary: SummarySignature::new(cfg.summary_bits, cfg.summary_hashes),
            pool: PoolAllocator::bounded(Region::pool(), pool_pages),
            levels: (0..n_cores).map(|_| Vec::new()).collect(),
        }
    }

    /// Borrow the redirect table (tests, ablation benches).
    pub fn table(&self) -> &RedirectTable {
        &self.table
    }

    /// Pool pages allocated so far.
    pub fn pool_pages(&self) -> u64 {
        self.pool.pages()
    }

    /// Fault injection for checker self-tests: make the redirect table
    /// forget that `core`'s transaction touched `line` while its transient
    /// survives — the seeded INV-6 bug the audit must catch.
    pub fn inject_forget_tx_entry(&mut self, core: CoreId, line: LineAddr) {
        self.table.inject_forget_tx_entry(core, line);
    }

    /// Resolve the current version's location for a read (or a
    /// non-transactional write): own transient first, then the committed
    /// redirection, else the original address.
    fn resolve(&mut self, env: &mut VmEnv, core: CoreId, addr: Addr, in_tx: bool) -> (Addr, Cycle) {
        let line = line_of(addr);
        let off = addr - line;
        if in_tx {
            if let Some((own, lat, level)) = self.table.lookup_own(core, line) {
                self.trace_lookup(env, core, level);
                return (Self::own_target(own, addr), lat);
            }
        }
        let (hit, lat) = self.lookup_committed(env, core, addr);
        (hit.and_then(|h| h.committed).map_or(addr, |p| p + off), lat)
    }

    /// Where a transaction that holds `own` on `addr`'s line finds the word:
    /// in its pool slot, or — redirecting back — at the original address.
    fn own_target(own: Transient, addr: Addr) -> Addr {
        match own {
            Transient::New { slot } => slot + (addr - line_of(addr)),
            Transient::DeleteGlobal => addr,
        }
    }

    /// The lookup of a line the core's transaction holds no transient on:
    /// the summary signature first, the table only on a positive.
    fn lookup_committed(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
    ) -> (Option<LookupHit>, Cycle) {
        if !self.summary.query(addr) {
            env.tracer.emit(
                env.now,
                core,
                TraceEvent::RedirectLookup { level: RedirectLevel::Filtered },
            );
            return (None, 0);
        }
        let (hit, lat, level) = self.table.lookup_leveled(core, line_of(addr));
        self.trace_lookup(env, core, level);
        if hit.is_none() {
            self.table.note_false_positive();
        }
        (hit, lat)
    }

    /// Trace one table lookup and the swap-outs it caused.
    fn trace_lookup(&mut self, env: &mut VmEnv, core: CoreId, level: RedirectLevel) {
        if env.tracer.on() {
            env.tracer.emit(env.now, core, TraceEvent::RedirectLookup { level });
            for line in self.table.drain_swap_log() {
                env.tracer.emit(env.now, core, TraceEvent::TableSwapOut { line });
            }
        }
    }

    /// Copy the current version of `line` (which may live at `from`) into
    /// `to`, so that partially-written lines keep their unwritten words.
    fn seed_line(env: &mut VmEnv, from: LineAddr, to: LineAddr) {
        if from != to {
            let data = env.mem.read_line(from);
            env.mem.write_line(to, data);
        }
    }
}

impl VersionManager for SuvVm {
    fn kind(&self) -> SchemeKind {
        SchemeKind::SuvTm
    }

    fn begin(&mut self, env: &mut VmEnv, core: CoreId, _lazy: bool) -> Cycle {
        self.levels[core].clear();
        self.table.set_swap_logging(env.tracer.on());
        0
    }

    fn resolve_load(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        in_tx: bool,
    ) -> (LoadTarget, Cycle) {
        let (target, lat) = self.resolve(env, core, addr, in_tx);
        (LoadTarget::Mem(target), lat)
    }

    /// The committed redirection without the summary test or the walk: a
    /// summary negative means no committed entry (INV-10), and otherwise
    /// the walk answers this same entry's target.
    fn committed_location(&self, addr: Addr) -> Addr {
        let line = line_of(addr);
        self.table.committed(line).map_or(addr, |p| p + (addr - line))
    }

    fn prepare_store(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        _value: u64,
        mode: StoreMode,
    ) -> (StoreTarget, Cycle) {
        if mode == StoreMode::NonTx {
            // Non-transactional stores write wherever the current version
            // lives; they never create redirections.
            let (target, lat) = self.resolve(env, core, addr, false);
            return (StoreTarget::Mem(target), lat);
        }
        let line = line_of(addr);
        let off = addr - line;
        // Already redirected by this transaction? Keep using its target —
        // but if a nested level is open and this line belongs to an outer
        // level, save the target's current contents into the stacked
        // frame first so a partial abort can restore the outer level's
        // speculative value.
        if let Some((own, mut lat, level)) = self.table.lookup_own(core, line) {
            self.trace_lookup(env, core, level);
            let target = Self::own_target(own, addr);
            let target_line = line_of(target);
            if let Some(frame) = self.levels[core].last_mut() {
                let mine = frame.new_lines.contains(&line);
                if !mine && !frame.saved_lines.contains(&line) {
                    frame.saves.push((target_line, env.mem.read_line(target_line)));
                    frame.saved_lines.push(line);
                    lat += 2; // stacked-frame save in private space
                }
            }
            return (StoreTarget::Mem(target), lat);
        }
        // First transactional write to this line: consult summary + table.
        let (hit, mut lat) = self.lookup_committed(env, core, addr);
        let committed = hit.and_then(|h| h.committed);
        let foreign_delete = hit.is_some_and(|h| h.foreign_delete);
        if mode == StoreMode::Irrevocable && (committed.is_none() || foreign_delete) {
            // An irrevocable store with no redirect-back opportunity: write in
            // place at the current version's location, with no transient
            // and no pool allocation. The transaction is guaranteed to
            // commit, so no rollback mapping is needed — this is what lets
            // an escalated transaction finish with the pool completely dry.
            let p = committed.unwrap_or(line);
            return (StoreTarget::Mem(p + off), lat);
        }
        let target = match committed {
            Some(p) if !foreign_delete => {
                // Redirect back: the original space is reclaimed for the
                // new value; the entry dies at commit. Seed the original
                // line with the current version first so unwritten words
                // survive.
                env.tracer.emit(env.now, core, TraceEvent::RedirectBack);
                Self::seed_line(env, p, line);
                self.table.insert_transient(core, line, Transient::DeleteGlobal);
                if let Some(frame) = self.levels[core].last_mut() {
                    frame.new_lines.push(line);
                }
                addr
            }
            current => {
                // New redirection into a fresh pool slot; a dry pool
                // surfaces as Overflow with no bookkeeping done (INV-12:
                // nothing to leak across the resulting abort).
                let Ok((slot, fresh_page)) = self.pool.try_alloc_slot() else {
                    return (StoreTarget::Overflow, lat);
                };
                env.tracer.emit(env.now, core, TraceEvent::PoolAlloc { fresh_page });
                if fresh_page {
                    lat += POOL_PAGE_ALLOC_CYCLES;
                }
                Self::seed_line(env, current.unwrap_or(line), slot);
                self.table.insert_transient(core, line, Transient::New { slot });
                if let Some(frame) = self.levels[core].last_mut() {
                    frame.new_lines.push(line);
                }
                slot + off
            }
        };
        (StoreTarget::Mem(target), lat)
    }

    fn commit(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        self.levels[core].clear();
        self.table.commit(core, &mut self.summary, &mut self.pool);
        FLASH_CYCLES
    }

    fn abort(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        // Full abort needs no value restoration at all: every entry flash
        // reverts to the pre-transaction mapping (the saved frames exist
        // only for *partial* aborts).
        self.levels[core].clear();
        self.table.abort(core, &mut self.pool);
        FLASH_CYCLES
    }

    fn supports_partial_abort(&self) -> bool {
        true
    }

    fn level(&mut self, env: &mut VmEnv, core: CoreId, op: LevelOp) -> Cycle {
        let levels = &mut self.levels[core];
        let f = match op {
            LevelOp::Begin => {
                levels.push(LevelFrame::default());
                return 1;
            }
            LevelOp::Commit => {
                let f = levels.pop().expect("no level to merge");
                if let Some(parent) = levels.last_mut() {
                    // The parent inherits the committed level's entries;
                    // the saves are pre-inner values and die with it.
                    parent.new_lines.extend(f.new_lines);
                }
                return 1;
            }
            LevelOp::Abort => levels.pop().expect("no level to abort"),
        };
        // Entries this level created die (flash); lines an outer level
        // owned get their saved pre-level contents back.
        self.table.abort_lines(core, &f.new_lines, &mut self.pool);
        for (target_line, data) in f.saves.iter().rev() {
            env.mem.write_line(*target_line, *data);
        }
        FLASH_CYCLES + f.saves.len() as Cycle
    }

    fn take_rt_overflow(&mut self, core: CoreId) -> (bool, bool) {
        self.table.take_overflow(core)
    }

    fn redirect_stats(&self) -> RedirectStats {
        let mut s = self.table.stats();
        s.summary_filtered = self.summary.filtered();
        s
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants(&self.summary, &self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_coherence::MemorySystem;
    use suv_htm::machine::HtmMachine;
    use suv_htm::script::{Op, Run, Script};
    use suv_mem::Memory;
    use suv_trace::Tracer;
    use suv_types::{MachineConfig, TxSite};

    fn setup() -> (Memory, MemorySystem, SuvVm) {
        let mc = MachineConfig::small_test();
        (Memory::new(), MemorySystem::new(&mc), SuvVm::new(mc.n_cores, &mc.suv, 0))
    }

    /// The small-test machine with the SUV differential driver's table: a
    /// 4-entry first level and a 16-entry two-way second level, which a
    /// few dozen redirected lines overflow into memory.
    pub(super) fn small_table() -> MachineConfig {
        let mut mc = MachineConfig::small_test();
        mc.suv.l1_entries = 4;
        mc.suv.l2_entries = 16;
        mc.suv.l2_ways = 2;
        mc
    }

    /// Figure 4 walkthrough: un-redirected load, un-redirected store,
    /// redirected load, redirect-back store, commit, abort.
    #[test]
    fn figure4_walkthrough() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x00, 12); // @0x00 holds 12 (Fig 4 initial state)
        mem.write_word(0x90, 54); // @0x90's current version (will redirect)
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };

        // (a) a previous transaction left @0x90 redirected.
        vm.begin(&mut env, 0, false);
        let (t, _) = vm.prepare_store(&mut env, 0, 0x90, 54, StoreMode::Tx);
        let slot90 = match t {
            StoreTarget::Mem(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(Region::pool().contains(slot90), "store redirected into the pool");
        env.mem.write_word(slot90, 54);
        vm.commit(&mut env, 0);

        // (b) un-redirected transactional load of @0x00 reads in place.
        vm.begin(&mut env, 0, false);
        let (lt, lat) = vm.resolve_load(&mut env, 0, 0x00, true);
        assert_eq!(lt, LoadTarget::Mem(0x00));
        assert_eq!(lat, 0, "summary filters the lookup entirely");

        // (c) un-redirected store to @0x40 goes to a fresh slot.
        let (t, _) = vm.prepare_store(&mut env, 0, 0x40, 99, StoreMode::Tx);
        let slot40 = match t {
            StoreTarget::Mem(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(Region::pool().contains(slot40));
        env.mem.write_word(slot40, 99);

        // (d) redirected load of @0x90 follows the committed entry...
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x90, true);
        assert_eq!(lt, LoadTarget::Mem(slot90));
        assert_eq!(env.mem.read_word(slot90), 54);
        // ...and a store to @0x90 redirects *back* to the original.
        let (t, _) = vm.prepare_store(&mut env, 0, 0x90, 55, StoreMode::Tx);
        assert_eq!(t, StoreTarget::Mem(0x90), "redirect-back targets the original");
        env.mem.write_word(0x90, 55);
        // Within the transaction the load now resolves to the original.
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x90, true);
        assert_eq!(lt, LoadTarget::Mem(0x90));

        // (e) commit makes everything visible at the right places.
        let c = vm.commit(&mut env, 0);
        assert_eq!(c, FLASH_CYCLES, "commit is O(1)");
        let (lt, _) = vm.resolve_load(&mut env, 1, 0x40, false);
        assert_eq!(lt, LoadTarget::Mem(slot40), "committed redirection visible to others");
        let (lt, _) = vm.resolve_load(&mut env, 1, 0x90, false);
        assert_eq!(lt, LoadTarget::Mem(0x90), "redirect-back deleted the entry");
        assert_eq!(env.mem.read_word(0x90), 55);
    }

    #[test]
    fn abort_is_single_update() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x1000, 7);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        for i in 0..50u64 {
            let (t, _) = vm.prepare_store(&mut env, 0, 0x1000 + i * 64, i, StoreMode::Tx);
            if let StoreTarget::Mem(p) = t {
                env.mem.write_word(p, i);
            }
        }
        let a = vm.abort(&mut env, 0);
        assert_eq!(a, FLASH_CYCLES, "abort is O(1) regardless of write-set size");
        // The old value is still at the original address.
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x1000, false);
        assert_eq!(lt, LoadTarget::Mem(0x1000));
        assert_eq!(env.mem.read_word(0x1000), 7);
    }

    #[test]
    fn unwritten_words_survive_redirection() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x2000, 10);
        mem.write_word(0x2008, 20);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        // Write only the second word of the line.
        let (t, _) = vm.prepare_store(&mut env, 0, 0x2008, 99, StoreMode::Tx);
        let slot = match t {
            StoreTarget::Mem(p) => p,
            other => panic!("{other:?}"),
        };
        env.mem.write_word(slot, 99);
        // The first word must read 10 through the redirection.
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x2000, true);
        match lt {
            LoadTarget::Mem(p) => assert_eq!(env.mem.read_word(p), 10),
            other => panic!("{other:?}"),
        }
        vm.commit(&mut env, 0);
        let (lt, _) = vm.resolve_load(&mut env, 1, 0x2000, false);
        match lt {
            LoadTarget::Mem(p) => assert_eq!(env.mem.read_word(p), 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slot_reuse_after_redirect_back_cycles() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        // Repeatedly update the same variable from alternating transactions:
        // entry count must not grow (the paper's entry-reduction feature).
        for round in 0..10u64 {
            vm.begin(&mut env, 0, false);
            let (t, _) = vm.prepare_store(&mut env, 0, 0x3000, round, StoreMode::Tx);
            if let StoreTarget::Mem(p) = t {
                env.mem.write_word(p, round);
            }
            vm.commit(&mut env, 0);
        }
        assert!(
            vm.table().live_entries() <= 1,
            "redirect-back must keep the entry count bounded, got {}",
            vm.table().live_entries()
        );
        let s = vm.redirect_stats();
        assert!(s.entries_redirected_back >= 4, "alternating rounds redirect back");
        // The final value is visible.
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x3000, false);
        if let LoadTarget::Mem(p) = lt {
            assert_eq!(env.mem.read_word(p), 9);
        }
    }

    #[test]
    fn nontx_store_follows_committed_redirection() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let (t, _) = vm.prepare_store(&mut env, 0, 0x4000, 1, StoreMode::Tx);
        let slot = match t {
            StoreTarget::Mem(p) => p,
            other => panic!("{other:?}"),
        };
        env.mem.write_word(slot, 1);
        vm.commit(&mut env, 0);
        // A non-transactional store from another core updates the pool
        // slot (current version), not the stale original.
        let (t, _) = vm.prepare_store(&mut env, 1, 0x4000, 2, StoreMode::NonTx);
        assert_eq!(t, StoreTarget::Mem(slot));
    }

    #[test]
    fn overflow_flags_reach_the_machine_interface() {
        let mc = MachineConfig::small_test(); // 32-entry first-level table
        let (mut mem, mut sys, mut vm) =
            (Memory::new(), MemorySystem::new(&mc), SuvVm::new(mc.n_cores, &mc.suv, 0));
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        for i in 0..40u64 {
            vm.prepare_store(&mut env, 0, 0x10_0000 + i * 64, i, StoreMode::Tx);
        }
        vm.commit(&mut env, 0);
        let (l1_ovf, _) = vm.take_rt_overflow(0);
        assert!(l1_ovf, "40 entries must overflow a 32-entry first level");
    }

    #[test]
    fn resolution_latency_reflects_table_levels() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let (t, _) = vm.prepare_store(&mut env, 0, 0x5000, 1, StoreMode::Tx);
        if let StoreTarget::Mem(p) = t {
            env.mem.write_word(p, 1);
        }
        vm.commit(&mut env, 0);
        // Owner core: first-level hit, zero cycles.
        let (_, lat0) = vm.resolve_load(&mut env, 0, 0x5000, false);
        assert_eq!(lat0, 0);
        // Another core: second-level lookup at its configured latency.
        let (_, lat1) = vm.resolve_load(&mut env, 1, 0x5000, false);
        assert_eq!(lat1, MachineConfig::small_test().suv.l2_latency);
    }

    #[test]
    fn clamped_pool_overflows_then_irrevocable_writes_in_place() {
        let mc = MachineConfig::small_test();
        let (mut mem, mut sys) = (Memory::new(), MemorySystem::new(&mc));
        // One pool page = 64 slots.
        let mut vm = SuvVm::new(mc.n_cores, &mc.suv, 1);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let mut overflowed = false;
        for i in 0..100u64 {
            let (t, _) = vm.prepare_store(&mut env, 0, 0x9000 + i * 64, i, StoreMode::Tx);
            if t == StoreTarget::Overflow {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "65th fresh slot must overflow a 1-page pool");
        vm.abort(&mut env, 0);
        vm.check_invariants().expect("abort reclaimed every slot");
        // Escalated retry: irrevocable stores write in place, no slots.
        vm.begin(&mut env, 0, false);
        for i in 0..100u64 {
            let (t, _) = vm.prepare_store(&mut env, 0, 0x9000 + i * 64, i, StoreMode::Irrevocable);
            assert_eq!(t, StoreTarget::Mem(0x9000 + i * 64), "in-place under irrevocable");
            env.mem.write_word(0x9000 + i * 64, i);
        }
        vm.commit(&mut env, 0);
        vm.check_invariants().expect("irrevocable commit left the table consistent");
        let (lt, _) = vm.resolve_load(&mut env, 1, 0x9000 + 64, false);
        assert_eq!(lt, LoadTarget::Mem(0x9000 + 64));
        assert_eq!(env.mem.read_word(0x9000 + 64), 1);
    }

    #[test]
    fn summary_filters_untouched_addresses() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        for i in 0..100u64 {
            let (lt, lat) = vm.resolve_load(&mut env, 0, 0x90_0000 + i * 64, false);
            assert_eq!(lt, LoadTarget::Mem(0x90_0000 + i * 64));
            assert_eq!(lat, 0, "never-redirected addresses are filtered");
        }
        let s = vm.redirect_stats();
        assert_eq!(s.summary_filtered, 100);
        assert_eq!(s.l1_lookups, 0);
    }

    /// A peek is untimed: a sweep of them over redirected lines, swapped-out
    /// ones included, moves no redirect statistic, and the timed loads that
    /// follow answer what they answer without it, latency included.
    #[test]
    fn a_sweep_of_peeks_moves_no_statistic_and_no_latency() {
        let mc = small_table();
        let lines: Vec<Addr> = (0..40).map(|i| 0x10_0000 + i * 64).collect();
        let mut script: Script = Vec::new();
        for (i, chunk) in lines.chunks(4).enumerate() {
            let core = i % 2;
            script.push((core, Op::Begin { site: TxSite(1) }));
            script.extend(chunk.iter().map(|&a| (core, Op::Store(a, i as u64 + 1))));
            script.push((core, Op::Commit));
        }
        let mut quiet = Run::new(HtmMachine::new(&mc, SuvVm::new(mc.n_cores, &mc.suv, 0)));
        quiet.play(&script).expect("legal");
        let mut peeked = quiet.clone();
        for _ in 0..3 {
            for (i, &a) in lines.iter().enumerate() {
                assert_eq!(peeked.m.peek(a), i as u64 / 4 + 1);
            }
        }
        assert_eq!(peeked.m.vm().redirect_stats(), quiet.m.vm().redirect_stats());
        let loads: Script = lines.iter().map(|&a| (0, Op::NonTxLoad(a))).collect();
        assert_eq!(peeked.play(&loads), quiet.play(&loads));
        assert!(quiet.m.vm().redirect_stats().mem_lookups > 0, "some loads searched memory");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_coherence::MemorySystem;
    use suv_mem::Memory;
    use suv_trace::Tracer;

    const LINES: u64 = 24;

    fn line_at(i: u64) -> LineAddr {
        0x9000 + i * 64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `committed_location` against the timed non-transactional lookup,
        /// run on a clone so its walk does not steer the history, after
        /// every step of a random two-core history of transactional stores
        /// (redirect-backs included), nested levels whose partial aborts
        /// free lines one by one, commits, aborts, non-transactional stores
        /// and timed loads — on a table small enough to swap entries out.
        #[test]
        fn committed_location_is_the_timed_lookups_answer(
            ops in proptest::collection::vec((0usize..2, 0u8..12, 0u64..LINES * 8), 1..150)
        ) {
            let mc = super::tests::small_table();
            let (mut mem, mut sys) = (Memory::new(), MemorySystem::new(&mc));
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            let mut vm = SuvVm::new(mc.n_cores, &mc.suv, 0);
            let (mut in_tx, mut depth) = ([false; 2], [0usize; 2]);
            for (core, kind, w) in ops {
                let addr = line_at(w / 8) + w % 8 * 8;
                // Eager conflict detection refuses a store to a line the
                // other core's transaction holds.
                let free = vm.table().own_transient(1 - core, line_of(addr)).is_none();
                match kind {
                    0..=4 if free => {
                        if !in_tx[core] {
                            vm.begin(&mut env, core, false);
                            in_tx[core] = true;
                        }
                        if let (StoreTarget::Mem(p), _) =
                            vm.prepare_store(&mut env, core, addr, w, StoreMode::Tx)
                        {
                            env.mem.write_word(p, w);
                        }
                    }
                    5 if in_tx[core] => {
                        vm.level(&mut env, core, LevelOp::Begin);
                        depth[core] += 1;
                    }
                    6 | 7 if depth[core] > 0 => {
                        let op = if kind == 6 { LevelOp::Abort } else { LevelOp::Commit };
                        vm.level(&mut env, core, op);
                        depth[core] -= 1;
                    }
                    8 | 9 if in_tx[core] => {
                        if kind == 8 {
                            vm.commit(&mut env, core);
                        } else {
                            vm.abort(&mut env, core);
                        }
                        (in_tx[core], depth[core]) = (false, 0);
                    }
                    10 if free && !in_tx[core] => {
                        if let (StoreTarget::Mem(p), _) =
                            vm.prepare_store(&mut env, core, addr, w, StoreMode::NonTx)
                        {
                            env.mem.write_word(p, w);
                        }
                    }
                    _ => {
                        vm.resolve_load(&mut env, core, addr, in_tx[core]);
                    }
                }
                let mut timed = vm.clone();
                for line in (0..LINES).map(line_at) {
                    for addr in [line, line + 56] {
                        let (target, _) = timed.resolve_load(&mut env, core, addr, false);
                        prop_assert_eq!(
                            target, LoadTarget::Mem(vm.committed_location(addr)), "{:#x}", addr
                        );
                    }
                }
            }
        }
    }
}
