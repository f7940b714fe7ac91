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

use crate::vm::{LoadTarget, StoreTarget, VersionManager, VmEnv};
use suv_coherence::{AccessKind, L1Evict};
use suv_mem::{LineData, Region};
use suv_trace::TraceEvent;
use suv_types::{line_of, Addr, CoreId, Cycle, HtmConfig, LineAddr, SchemeKind, LINE_BYTES};

/// Fixed cost of the fast abort path: gang-invalidate the speculative L1
/// lines and switch the FSM, independent of the write-set size.
const FAST_ABORT_CYCLES: Cycle = 10;

#[derive(Debug, Default, Clone)]
struct CoreState {
    /// Old line values (conceptually the L2 copies), in write order.
    old: Vec<(LineAddr, LineData)>,
    /// The transaction lost a speculative line from the L1 and fell back
    /// to LogTM-SE behaviour.
    degenerate: bool,
    /// Log write pointer for charging degenerate-mode log maintenance.
    log_ptr: Addr,
    /// Per-nested-level watermarks into `old` (stacked frames).
    marks: Vec<usize>,
}

impl CoreState {
    /// Saved at the *current* nesting level? Inner levels re-save lines an
    /// outer level wrote so partial abort can restore the outer value.
    fn has_old(&self, line: LineAddr) -> bool {
        let start = self.marks.last().copied().unwrap_or(0);
        self.old[start..].iter().any(|(l, _)| *l == line)
    }
}

/// FasTM.
#[derive(Clone)]
pub struct FasTm {
    cores: Vec<CoreState>,
    cfg: HtmConfig,
    /// Degenerate-mode log byte budget (0 = unbounded); shares the
    /// `RobustnessConfig::log_bytes` knob with LogTM-SE.
    log_bytes: Addr,
    /// Cores in irrevocable serialized mode bypass the budget.
    irrevocable: Vec<bool>,
}

impl FasTm {
    /// Per-core state for `n_cores`, unbounded degenerate log.
    #[must_use]
    pub fn new(n_cores: usize, cfg: HtmConfig) -> Self {
        Self::with_log_bytes(n_cores, cfg, 0)
    }

    /// Per-core state with the degenerate-mode log capped at `log_bytes`
    /// bytes (0 = unbounded).
    #[must_use]
    pub fn with_log_bytes(n_cores: usize, cfg: HtmConfig, log_bytes: Addr) -> Self {
        FasTm {
            cores: (0..n_cores).map(|_| CoreState::default()).collect(),
            cfg,
            log_bytes,
            irrevocable: vec![false; n_cores],
        }
    }

    /// Has the core's current transaction degenerated? (tests)
    #[must_use]
    pub fn is_degenerate(&self, core: CoreId) -> bool {
        self.cores[core].degenerate
    }
}

impl VersionManager for FasTm {
    fn kind(&self) -> SchemeKind {
        SchemeKind::FasTm
    }

    fn begin(&mut self, _env: &mut VmEnv, core: CoreId, _lazy: bool) -> Cycle {
        let st = &mut self.cores[core];
        st.old.clear();
        st.degenerate = false;
        st.log_ptr = 0;
        st.marks.clear();
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
        in_tx: bool,
    ) -> (StoreTarget, Cycle) {
        if !in_tx {
            return (StoreTarget::Mem(addr), 0);
        }
        let line = line_of(addr);
        let mut lat = 0;
        if !self.cores[core].has_old(line) {
            if self.cores[core].degenerate
                && self.log_bytes != 0
                && !self.irrevocable[core]
                && self.cores[core].log_ptr + LINE_BYTES + 8 > self.log_bytes
            {
                // Degenerate-mode log budget exhausted before any
                // bookkeeping: abort and escalate.
                return (StoreTarget::Overflow, 0);
            }
            // First speculative write to this line: the old value must be
            // safe in the L2, so a dirty L1 copy is written back first.
            lat += env.sys.writeback_line(env.now, core, addr);
            let old = env.mem.read_line(line);
            self.cores[core].old.push((line, old));
            if self.cores[core].degenerate {
                // Fallback mode: pay LogTM-style log maintenance.
                let st = &mut self.cores[core];
                let rec = Region::log(core).base + st.log_ptr;
                st.log_ptr += LINE_BYTES + 8;
                lat += env.sys.access(env.now + lat, core, rec, AccessKind::Store);
            }
        }
        (StoreTarget::Mem(addr), lat)
    }

    fn commit(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        let st = &mut self.cores[core];
        st.old.clear();
        st.degenerate = false;
        st.log_ptr = 0;
        st.marks.clear();
        env.sys.clear_speculative(core);
        1
    }

    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        let degenerate = self.cores[core].degenerate;
        let old = std::mem::take(&mut self.cores[core].old);
        self.cores[core].degenerate = false;
        let mut lat;
        if degenerate {
            // LogTM-SE path: software trap, then walk every written line,
            // reading the log record and storing the old value in place.
            env.tracer.emit(env.now, core, TraceEvent::UndoWalk { entries: old.len() as u64 });
            lat = self.cfg.software_trap_cycles;
            let mut log_ptr = self.cores[core].log_ptr;
            for (line, data) in old.iter().rev() {
                log_ptr = log_ptr.saturating_sub(LINE_BYTES + 8);
                let rec = Region::log(core).base + log_ptr;
                lat += env.sys.access(env.now + lat, core, rec, AccessKind::Load);
                lat += env.sys.access(env.now + lat, core, *line, AccessKind::Store);
                env.mem.write_line(*line, *data);
            }
            self.cores[core].log_ptr = 0;
        } else {
            // Fast path: gang-invalidate the speculative L1 lines; the L2
            // still holds the old values, which the functional restore
            // makes visible. Later accesses re-fetch from the L2 (the
            // extra misses emerge from the invalidations).
            env.tracer.emit(env.now, core, TraceEvent::GangInvalidate { lines: old.len() as u64 });
            lat = FAST_ABORT_CYCLES;
            for (line, data) in old.iter().rev() {
                env.sys.invalidate_local(core, *line);
                env.mem.write_line(*line, *data);
            }
        }
        env.sys.clear_speculative(core);
        lat
    }

    fn on_eviction(&mut self, core: CoreId, ev: &L1Evict) {
        if ev.speculative {
            self.cores[core].degenerate = true;
        }
    }

    fn set_irrevocable(&mut self, core: CoreId, on: bool) {
        self.irrevocable[core] = on;
    }

    fn supports_partial_abort(&self) -> bool {
        true
    }

    fn begin_level(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        let st = &mut self.cores[core];
        st.marks.push(st.old.len());
        1
    }

    fn commit_level(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        self.cores[core].marks.pop().expect("no level to merge");
        1
    }

    fn abort_level(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        let mark = self.cores[core].marks.pop().expect("no level to abort");
        let degenerate = self.cores[core].degenerate;
        let frame: Vec<(LineAddr, LineData)> = self.cores[core].old.split_off(mark);
        let mut lat = if degenerate { self.cfg.software_trap_cycles } else { FAST_ABORT_CYCLES };
        for (line, data) in frame.iter().rev() {
            if degenerate {
                lat += env.sys.access(env.now + lat, core, *line, AccessKind::Store);
            } else {
                env.sys.invalidate_local(core, *line);
            }
            env.mem.write_line(*line, *data);
        }
        lat
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
        (Memory::new(), MemorySystem::new(&mc), FasTm::new(mc.n_cores, mc.htm))
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
                vm.prepare_store(&mut env, 0, 0x1000 + i * 64, 777, true);
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
            vm.prepare_store(&mut env, 0, 0x2000, 1, true);
            vm.prepare_store(&mut env, 0, 0x2040, 2, true);
        }
        // Simulate a speculative line being evicted.
        vm.on_eviction(0, &L1Evict { line: 0x2000, dirty: true, speculative: true });
        assert!(vm.is_degenerate(0));
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 100, tracer: &mut tr };
        let lat = vm.abort(&mut env, 0);
        assert!(lat > FAST_ABORT_CYCLES + 50, "degenerate abort must pay trap + walk, got {lat}");
        assert!(!vm.is_degenerate(0), "flag cleared for the next attempt");
    }

    #[test]
    fn non_speculative_eviction_does_not_degenerate() {
        let (_, _, mut vm) = setup();
        vm.on_eviction(0, &L1Evict { line: 0x40, dirty: true, speculative: false });
        assert!(!vm.is_degenerate(0));
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
        let (_, lat) = vm.prepare_store(&mut env, 0, 0x3000, 9, true);
        assert!(lat > 0, "write-back of the dirty old value must be charged");
        assert!(!sys.is_dirty_in_l1(0, 0x3000));
    }

    #[test]
    fn second_write_to_same_line_is_free() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x4000, 1, true);
        let (_, lat) = vm.prepare_store(&mut env, 0, 0x4008, 2, true);
        assert_eq!(lat, 0);
    }

    #[test]
    fn commit_clears_state() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x5000, 1, true);
        let lat = vm.commit(&mut env, 0);
        assert!(lat <= 2);
        // A new transaction starts clean.
        vm.begin(&mut env, 0, false);
        assert!(!vm.is_degenerate(0));
    }
}
