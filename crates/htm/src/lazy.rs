//! Lazy (TCC/LTM-style) version management: the write buffer.
//!
//! Speculative stores are buffered privately; loads snoop the local buffer
//! first. Commit merges the buffer into memory line by line, acquiring
//! ownership of each line — the *merge* time that stretches the isolation
//! window of lazy schemes (Figure 1's merge pathology). Abort just drops
//! the buffer. Alone it is the always-lazy Lazy(TCC) baseline; DynTM uses
//! it as its lazy execution mode.

use crate::vm::{LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use std::collections::hash_map::Entry;
use suv_coherence::AccessKind;
use suv_trace::TraceEvent;
use suv_types::{line_of, Addr, CoreId, Cycle, LineAddr, LineMap, SchemeKind, TxSite};

#[derive(Debug, Default, Clone)]
struct Buffer {
    /// Per buffered line, its eight words and the mask of the written ones:
    /// one probe answers the budget test, the store and a load's snoop.
    slots: LineMap<([u64; 8], u8)>,
    /// Lines touched, in first-write order (merge order is deterministic).
    lines: Vec<LineAddr>,
}

/// Write-buffer lazy VM.
#[derive(Clone)]
pub struct LazyVm {
    bufs: Vec<Buffer>,
    /// Distinct-buffered-lines budget per transaction (0 = unbounded); a
    /// transactional store to a new line past the budget becomes
    /// [`StoreTarget::Overflow`], an irrevocable one bypasses it.
    buffer_lines: usize,
}

impl LazyVm {
    /// One buffer per core, capped at `buffer_lines` distinct lines per
    /// transaction (0 = unbounded).
    #[must_use]
    pub fn new(n_cores: usize, buffer_lines: usize) -> Self {
        LazyVm { bufs: (0..n_cores).map(|_| Buffer::default()).collect(), buffer_lines }
    }
}

impl VersionManager for LazyVm {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Lazy
    }

    /// TCC: every transaction runs lazy.
    fn choose_mode(&mut self, _core: CoreId, _site: TxSite) -> bool {
        true
    }

    fn begin(&mut self, _env: &mut VmEnv, core: CoreId, _lazy: bool) -> Cycle {
        let b = &mut self.bufs[core];
        b.slots.clear();
        b.lines.clear();
        0
    }

    fn resolve_load(
        &mut self,
        _env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        in_tx: bool,
    ) -> (LoadTarget, Cycle) {
        if in_tx {
            let w = (addr >> 3) as usize & 7;
            if let Some((words, _)) =
                self.bufs[core].slots.get(&line_of(addr)).filter(|s| s.1 >> w & 1 != 0)
            {
                return (LoadTarget::Value(words[w]), 0);
            }
        }
        (LoadTarget::Mem(addr), 0)
    }

    fn prepare_store(
        &mut self,
        _env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        value: u64,
        mode: StoreMode,
    ) -> (StoreTarget, Cycle) {
        if mode == StoreMode::NonTx {
            return (StoreTarget::Mem(addr), 0);
        }
        let b = &mut self.bufs[core];
        let (words, written) = match b.slots.entry(line_of(addr)) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                if self.buffer_lines != 0
                    && mode == StoreMode::Tx
                    && b.lines.len() >= self.buffer_lines
                {
                    // Buffer budget exhausted before any bookkeeping: abort
                    // and escalate.
                    return (StoreTarget::Overflow, 0);
                }
                b.lines.push(line_of(addr));
                slot.insert(([0; 8], 0))
            }
        };
        let w = (addr >> 3) as usize & 7;
        words[w] = value;
        *written |= 1 << w;
        (StoreTarget::Buffered, 0)
    }

    fn commit(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        // Merge: acquire ownership of each written line and write the
        // buffered words through. This is the commit-side data movement
        // lazy schemes pay.
        let b = &mut self.bufs[core];
        env.tracer.emit(
            env.now,
            core,
            TraceEvent::WriteBufferDrain { lines: b.lines.len() as u64 },
        );
        let mut lat = 0;
        for line in b.lines.drain(..) {
            lat += env.sys.access(env.now + lat, core, line, AccessKind::Store);
            let (words, written) = b.slots[&line];
            for w in (0..8).filter(|w| written >> w & 1 != 0) {
                env.mem.write_word(line + 8 * w as Addr, words[w]);
            }
        }
        b.slots.clear();
        lat
    }

    fn abort(&mut self, _env: &mut VmEnv, core: CoreId) -> Cycle {
        // Discard the buffer: single-cycle flash clear.
        let b = &mut self.bufs[core];
        b.slots.clear();
        b.lines.clear();
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

    fn setup() -> (Memory, MemorySystem, LazyVm) {
        let mc = MachineConfig::small_test();
        (Memory::new(), MemorySystem::new(&mc), LazyVm::new(mc.n_cores, 0))
    }

    #[test]
    fn stores_invisible_until_commit() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x100, 5);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        let (tgt, _) = vm.prepare_store(&mut env, 0, 0x100, 9, StoreMode::Tx);
        assert_eq!(tgt, StoreTarget::Buffered);
        assert_eq!(env.mem.read_word(0x100), 5, "memory untouched before commit");
        // The writing core sees its own buffered value.
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x100, true);
        assert_eq!(lt, LoadTarget::Value(9));
        // Another core still resolves to memory.
        let (lt1, _) = vm.resolve_load(&mut env, 1, 0x100, true);
        assert_eq!(lt1, LoadTarget::Mem(0x100));
    }

    #[test]
    fn commit_merges_and_costs_per_line() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        for i in 0..8u64 {
            vm.prepare_store(&mut env, 0, 0x2000 + i * 64, i, StoreMode::Tx);
        }
        let big = vm.commit(&mut env, 0);
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x8000, 42, StoreMode::Tx);
        let small = vm.commit(&mut env, 0);
        assert!(big > small, "merge time scales with write set ({big} vs {small})");
        for i in 0..8u64 {
            assert_eq!(mem.read_word(0x2000 + i * 64), i);
        }
        assert_eq!(mem.read_word(0x8000), 42);
    }

    #[test]
    fn abort_discards_cheaply() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x300, 1);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x300, 2, StoreMode::Tx);
        let lat = vm.abort(&mut env, 0);
        assert_eq!(lat, 1, "lazy abort is a flash discard");
        assert_eq!(env.mem.read_word(0x300), 1);
        assert_eq!(vm.bufs[0].lines.len(), 0);
    }

    #[test]
    fn word_granularity_merge_preserves_unwritten_words() {
        let (mut mem, mut sys, mut vm) = setup();
        mem.write_word(0x400, 10);
        mem.write_word(0x408, 20);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.prepare_store(&mut env, 0, 0x408, 99, StoreMode::Tx);
        vm.commit(&mut env, 0);
        assert_eq!(mem.read_word(0x400), 10, "unwritten word survives the merge");
        assert_eq!(mem.read_word(0x408), 99);
    }

    #[test]
    fn buffers_are_per_core() {
        let (mut mem, mut sys, mut vm) = setup();
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false);
        vm.begin(&mut env, 1, false);
        vm.prepare_store(&mut env, 0, 0x500, 1, StoreMode::Tx);
        vm.prepare_store(&mut env, 1, 0x540, 2, StoreMode::Tx);
        assert_eq!(vm.bufs[0].lines.len(), 1);
        assert_eq!(vm.bufs[1].lines.len(), 1);
        vm.abort(&mut env, 0);
        assert_eq!(vm.bufs[1].lines.len(), 1, "core 1's buffer unaffected");
    }
}
