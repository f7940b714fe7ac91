//! FasTM version management.
//!
//! FasTM exploits the inconsistency between the L1 and the lower levels of
//! the hierarchy: speculative new values live only in the L1; the old value
//! stays in the L2 (which requires writing back a dirty line before its
//! first speculative update). Abort is then a fast gang-invalidate of the
//! speculatively-written L1 lines — the old values reappear from the L2 —
//! *unless* a speculative line was evicted, in which case the transaction
//! degenerates to LogTM-SE behaviour: log maintenance for subsequent writes
//! and a software walk on abort.
//!
//! The old values are kept in LogTM-SE's [`UndoLog`]: a record is free
//! while the transaction is fast and costs one log-record store once it
//! has degenerated, and only then does the log's write pointer advance.

use crate::undo::UndoLog;
use crate::vm::{LevelOp, LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use suv_coherence::{AccessKind, L1Evict};
use suv_trace::TraceEvent;
use suv_types::config::SOFTWARE_TRAP_CYCLES;
use suv_types::{line_of, Addr, CoreId, Cycle, SchemeKind};

/// Fixed cost of the fast abort path: gang-invalidate the speculative L1
/// lines and switch the FSM, independent of the write-set size.
const FAST_ABORT_CYCLES: Cycle = 10;

/// FasTM.
#[derive(Clone)]
pub struct FasTm {
    /// Per core, the old values of the lines its transaction wrote
    /// (conceptually the L2 copies), with one frame per nested level.
    logs: Vec<UndoLog>,
    /// Per core, whether its transaction lost a speculative line from the
    /// L1 and fell back to LogTM-SE behaviour.
    degenerate: Vec<bool>,
    /// Degenerate-mode log byte budget (0 = unbounded); shares the
    /// `FaultSpec::log_bytes` clamp with LogTM-SE.
    log_bytes: Addr,
}

impl FasTm {
    /// Per-core state for `n_cores`, with the degenerate-mode log capped at
    /// `log_bytes` bytes (0 = unbounded).
    #[must_use]
    pub fn new(n_cores: usize, log_bytes: Addr) -> Self {
        FasTm {
            logs: (0..n_cores).map(UndoLog::new).collect(),
            degenerate: vec![false; n_cores],
            log_bytes,
        }
    }
}

impl VersionManager for FasTm {
    fn kind(&self) -> SchemeKind {
        SchemeKind::FasTm
    }

    fn begin(&mut self, _env: &mut VmEnv, core: CoreId, _lazy: bool) -> Cycle {
        debug_assert!(self.logs[core].is_empty(), "log must be empty at begin");
        self.degenerate[core] = false;
        0
    }

    fn resolve_load(
        &mut self,
        _env: &mut VmEnv,
        _core: CoreId,
        addr: Addr,
        _in_tx: bool,
    ) -> (LoadTarget, Cycle) {
        (LoadTarget::Mem(addr), 0)
    }

    fn prepare_store(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        _value: u64,
        mode: StoreMode,
    ) -> (StoreTarget, Cycle) {
        let (log, line) = (&mut self.logs[core], line_of(addr));
        if mode == StoreMode::NonTx || log.has_logged(line) {
            return (StoreTarget::Mem(addr), 0);
        }
        let degenerate = self.degenerate[core];
        if degenerate && mode == StoreMode::Tx && log.would_overflow(addr, self.log_bytes) {
            // Degenerate-mode log budget exhausted before any
            // bookkeeping: abort and escalate.
            return (StoreTarget::Overflow, 0);
        }
        // First speculative write to this line at this level: the old value
        // must be safe in the L2, so a dirty L1 copy is written back first.
        let mut lat = env.sys.writeback_line(env.now, core, addr);
        log.record(env.mem, line);
        if degenerate {
            // Fallback mode: pay LogTM-style log maintenance.
            let rec = log.claim_slot();
            lat += env.sys.access(env.now + lat, core, rec, AccessKind::Store);
        }
        (StoreTarget::Mem(addr), lat)
    }

    fn commit(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        self.logs[core].reset();
        self.degenerate[core] = false;
        1
    }

    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        let log = &mut self.logs[core];
        let entries = log.len() as u64;
        if std::mem::take(&mut self.degenerate[core]) {
            // LogTM-SE path: software trap, then walk every written line,
            // reading the log record and storing the old value in place.
            env.tracer.emit(env.now, core, TraceEvent::UndoWalk { entries });
            SOFTWARE_TRAP_CYCLES
                + log.unwind(env.mem, env.sys, env.now + SOFTWARE_TRAP_CYCLES, core)
        } else {
            // Fast path: gang-invalidate the speculative L1 lines; the L2
            // still holds the old values, which the functional restore
            // makes visible. Later accesses re-fetch from the L2 (the
            // extra misses emerge from the invalidations).
            env.tracer.emit(env.now, core, TraceEvent::GangInvalidate { lines: entries });
            log.gang_restore(env.mem, env.sys, core);
            FAST_ABORT_CYCLES
        }
    }

    fn on_eviction(&mut self, core: CoreId, ev: &L1Evict) {
        if ev.speculative {
            self.degenerate[core] = true;
        }
    }

    fn supports_partial_abort(&self) -> bool {
        true
    }

    fn level(&mut self, env: &mut VmEnv, core: CoreId, op: LevelOp) -> Cycle {
        let log = &mut self.logs[core];
        match op {
            LevelOp::Begin => log.push_level(),
            LevelOp::Commit => log.merge_level(),
            // A degenerate level walks its frame of the log in software.
            LevelOp::Abort if self.degenerate[core] => {
                let walk = log.unwind_level(env.mem, env.sys, env.now + SOFTWARE_TRAP_CYCLES, core);
                return SOFTWARE_TRAP_CYCLES + walk;
            }
            LevelOp::Abort => {
                log.gang_restore_level(env.mem, env.sys, core);
                return FAST_ABORT_CYCLES;
            }
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_coherence::MemorySystem;
    use suv_mem::Memory;
    use suv_trace::Tracer;
    use suv_types::MachineConfig;

    fn setup() -> (Memory, MemorySystem, FasTm) {
        let mc = MachineConfig::small_test();
        (Memory::new(), MemorySystem::new(&mc), FasTm::new(mc.n_cores, 0))
    }

    #[test]
    fn fast_abort_restores_old_values_in_constant_time() {
        let (mut mem, mut sys, mut vm) = setup();
        for i in 0..20u64 {
            mem.write_word(0x1000 + i * 64, i + 1);
        }
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            vm.begin(&mut env, 0, false);
            for i in 0..20u64 {
                vm.prepare_store(&mut env, 0, 0x1000 + i * 64, 777, StoreMode::Tx);
            }
        }
        for i in 0..20u64 {
            mem.write_word(0x1000 + i * 64, 777);
        }
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 100, tracer: &mut tr };
        let lat = vm.abort(&mut env, 0);
        assert_eq!(lat, FAST_ABORT_CYCLES, "fast abort is O(1)");
        for i in 0..20u64 {
            assert_eq!(mem.read_word(0x1000 + i * 64), i + 1);
        }
    }

    #[test]
    fn degenerate_abort_is_slow() {
        let (mut mem, mut sys, mut vm) = setup();
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            vm.begin(&mut env, 0, false);
            vm.prepare_store(&mut env, 0, 0x2000, 1, StoreMode::Tx);
            vm.prepare_store(&mut env, 0, 0x2040, 2, StoreMode::Tx);
        }
        // Simulate a speculative line being evicted.
        vm.on_eviction(0, &L1Evict { line: 0x2000, dirty: true, speculative: true });
        assert!(vm.degenerate[0]);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 100, tracer: &mut tr };
        let lat = vm.abort(&mut env, 0);
        assert!(lat > FAST_ABORT_CYCLES + 50, "degenerate abort must pay trap + walk, got {lat}");
        assert!(!vm.degenerate[0], "flag cleared for the next attempt");
    }

    #[test]
    fn degenerate_partial_abort_gives_its_log_records_back() {
        // A budget of two records.
        let mc = MachineConfig::small_test();
        let (mut mem, mut sys) = (Memory::new(), MemorySystem::new(&mc));
        let mut vm = FasTm::new(mc.n_cores, 144);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        let (a, b, c) = (0x1000, 0x2000, 0x3000);
        env.mem.write_word(b, 5);
        vm.begin(&mut env, 0, false);
        vm.on_eviction(0, &L1Evict { line: 0x40, dirty: true, speculative: true });
        assert_eq!(vm.prepare_store(&mut env, 0, a, 1, StoreMode::Tx).0, StoreTarget::Mem(a));
        env.mem.write_word(a, 1);
        vm.level(&mut env, 0, LevelOp::Begin);
        assert_eq!(vm.prepare_store(&mut env, 0, b, 2, StoreMode::Tx).0, StoreTarget::Mem(b));
        env.mem.write_word(b, 2);
        vm.level(&mut env, 0, LevelOp::Abort);
        assert_eq!(env.mem.read_word(b), 5, "B's old value is back");
        let (target, _) = vm.prepare_store(&mut env, 0, c, 3, StoreMode::Tx);
        assert_eq!(target, StoreTarget::Mem(c), "B's record was unwound: C fits the budget");
    }

    #[test]
    fn non_speculative_eviction_does_not_degenerate() {
        let (_, _, mut vm) = setup();
        vm.on_eviction(0, &L1Evict { line: 0x40, dirty: true, speculative: false });
        assert!(!vm.degenerate[0]);
    }

    #[test]
    fn dirty_line_written_back_before_first_speculative_write() {
        let (mut mem, mut sys, mut vm) = setup();
        // Make the line dirty in core 0's L1 (pre-transactional store).
        sys.fill(0, 0, 0x3000, AccessKind::Store);
        sys.access_hit(0, 0x3000, AccessKind::Store);
        assert!(sys.is_dirty_in_l1(0, 0x3000));
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 10, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let (_, lat) = vm.prepare_store(&mut env, 0, 0x3000, 9, StoreMode::Tx);
        assert!(lat > 0, "write-back of the dirty old value must be charged");
        assert!(!sys.is_dirty_in_l1(0, 0x3000));
    }

    #[test]
    fn second_write_to_same_line_is_free() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x4000, 1, StoreMode::Tx);
        let (_, lat) = vm.prepare_store(&mut env, 0, 0x4008, 2, StoreMode::Tx);
        assert_eq!(lat, 0);
    }

    #[test]
    fn commit_clears_state() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x5000, 1, StoreMode::Tx);
        let lat = vm.commit(&mut env, 0);
        assert!(lat <= 2);
        // A new transaction starts clean.
        vm.begin(&mut env, 0, false);
        assert!(!vm.degenerate[0]);
    }
}
