//! LogTM-SE version management (the paper's baseline).
//!
//! Eager: new values are written in place; old values go to a per-thread
//! undo log in cacheable virtual memory. Commit is trivial (discard the
//! log); abort traps into a software handler that walks the log restoring
//! old values — a long repair window under big write sets, during which
//! the transaction's signatures keep NACKing everyone else.

use crate::undo::UndoLog;
use crate::vm::{LevelOp, LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use suv_trace::TraceEvent;
use suv_types::config::SOFTWARE_TRAP_CYCLES;
use suv_types::{Addr, CoreId, Cycle, SchemeKind};

/// LogTM-SE.
#[derive(Clone)]
pub struct LogTmSe {
    logs: Vec<UndoLog>,
    /// Per-core undo-log byte budget (0 = unbounded). A transactional
    /// store that would exceed it becomes [`StoreTarget::Overflow`]; an
    /// irrevocable one bypasses it (it is guaranteed to commit, so the log
    /// is discarded anyway).
    log_bytes: Addr,
}

impl LogTmSe {
    /// One undo log per core, capped at `log_bytes` bytes (0 = unbounded).
    #[must_use]
    pub fn new(n_cores: usize, log_bytes: Addr) -> Self {
        LogTmSe { logs: (0..n_cores).map(UndoLog::new).collect(), log_bytes }
    }
}

impl VersionManager for LogTmSe {
    fn kind(&self) -> SchemeKind {
        SchemeKind::LogTmSe
    }

    fn begin(&mut self, _env: &mut VmEnv, core: CoreId, lazy: bool) -> Cycle {
        debug_assert!(!lazy, "LogTM-SE is an eager-only scheme");
        debug_assert!(self.logs[core].is_empty(), "log must be empty at begin");
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
        if mode == StoreMode::NonTx {
            return (StoreTarget::Mem(addr), 0);
        }
        if mode == StoreMode::Tx && self.logs[core].would_overflow(addr, self.log_bytes) {
            // Log budget exhausted before any bookkeeping: abort and
            // escalate (nothing was logged, so nothing leaks).
            return (StoreTarget::Overflow, 0);
        }
        // Read the old value and append it to the undo log: the "one load
        // and one store on commit" per-write overhead.
        let lat = self.logs[core].log_old_value(env.mem, env.sys, env.now, core, addr);
        (StoreTarget::Mem(addr), lat)
    }

    fn commit(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        // Discarding the log is a pointer reset.
        self.logs[core].reset();
        1
    }

    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        // Trap into the software handler, then walk the log backwards.
        env.tracer.emit(
            env.now,
            core,
            TraceEvent::UndoWalk { entries: self.logs[core].len() as u64 },
        );
        let walk = self.logs[core].unwind(env.mem, env.sys, env.now + SOFTWARE_TRAP_CYCLES, core);
        SOFTWARE_TRAP_CYCLES + walk
    }

    fn supports_partial_abort(&self) -> bool {
        true
    }

    fn level(&mut self, env: &mut VmEnv, core: CoreId, op: LevelOp) -> Cycle {
        let log = &mut self.logs[core];
        match op {
            LevelOp::Begin => log.push_level(),
            LevelOp::Commit => log.merge_level(),
            // Partial aborts replay only the top log frame — still a
            // software walk, but over the inner level's writes alone.
            LevelOp::Abort => {
                let walk = log.unwind_level(env.mem, env.sys, env.now + SOFTWARE_TRAP_CYCLES, core);
                return SOFTWARE_TRAP_CYCLES + walk;
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

    fn setup() -> (Memory, MemorySystem, LogTmSe) {
        let mc = MachineConfig::small_test();
        (Memory::new(), MemorySystem::new(&mc), LogTmSe::new(mc.n_cores, 0))
    }

    #[test]
    fn store_logs_then_machine_updates_in_place() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x100, 11);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let (tgt, lat) = vm.prepare_store(&mut env, 0, 0x100, 99, StoreMode::Tx);
        assert_eq!(tgt, StoreTarget::Mem(0x100), "in-place update");
        assert!(lat > 0, "log maintenance must cost cycles");
        assert_eq!(vm.logs[0].len(), 1);
        // The machine performs the actual write; emulate it.
        env.mem.write_word(0x100, 99);
        assert_eq!(env.mem.read_word(0x100), 99);
    }

    #[test]
    fn abort_restores_and_costs_trap_plus_walk() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x200, 5);
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            vm.begin(&mut env, 1, false);
            vm.prepare_store(&mut env, 1, 0x200, 50, StoreMode::Tx);
        }
        mem.write_word(0x200, 50);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 100, tracer: &mut tr };
        let repair = vm.abort(&mut env, 1);
        assert!(repair >= 100, "at least the software trap ({repair})");
        assert_eq!(mem.read_word(0x200), 5, "old value restored");
    }

    #[test]
    fn commit_is_cheap_and_keeps_new_values() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x300, 1);
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            vm.begin(&mut env, 0, false);
            vm.prepare_store(&mut env, 0, 0x300, 2, StoreMode::Tx);
        }
        mem.write_word(0x300, 2);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 10, tracer: &mut tr };
        let c = vm.commit(&mut env, 0);
        assert!(c <= 2, "commit must be O(1), got {c}");
        assert_eq!(mem.read_word(0x300), 2);
        assert_eq!(vm.logs[0].len(), 0);
    }

    #[test]
    fn nontx_store_does_not_log() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        let (_, lat) = vm.prepare_store(&mut env, 0, 0x400, 1, StoreMode::NonTx);
        assert_eq!(lat, 0);
        assert_eq!(vm.logs[0].len(), 0);
    }

    #[test]
    fn abort_repair_scales_with_write_set() {
        let (mut mem, mut sys, mut vm) = setup();
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
            vm.begin(&mut env, 0, false);
            for i in 0..32u64 {
                vm.prepare_store(&mut env, 0, 0x8000 + i * 64, i, StoreMode::Tx);
            }
        }
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 500, tracer: &mut tr };
        let big = vm.abort(&mut env, 0);
        {
            let mut tr = Tracer::disabled();
            let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 1000, tracer: &mut tr };
            vm.begin(&mut env, 0, false);
            vm.prepare_store(&mut env, 0, 0x8000, 1, StoreMode::Tx);
        }
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 2000, tracer: &mut tr };
        let small = vm.abort(&mut env, 0);
        assert!(big > small, "repair time must grow with the write set");
    }
}
