//! The LogTM-style undo log.
//!
//! An append-only log of `(line address, old line data)` records kept in
//! the owning thread's private memory region. Maintaining it costs real
//! hierarchy accesses (the per-store overhead the paper charges LogTM-SE
//! with), and the software abort walk replays it *backwards*, restoring
//! old values through the memory system — which is exactly the *repair*
//! time that stretches the isolation window.
//!
//! FasTM keeps its old values in the same log: a record costs nothing
//! while the old value is still safe in the L2, one record store once the
//! transaction has degenerated, and a fast abort puts the records back by
//! gang-invalidating the L1 copies instead of walking the log.

use suv_coherence::{AccessKind, MemorySystem};
use suv_mem::{LineData, Memory, Region};
use suv_types::{line_of, Addr, CoreId, Cycle, LineAddr, LINE_BYTES};

/// One undo record.
#[derive(Debug, Clone, Copy)]
struct UndoRecord {
    line: LineAddr,
    old: LineData,
}

/// Per-thread undo log.
#[derive(Debug, Clone)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
    /// Base of the thread's private log region (for charging accesses).
    base: Addr,
    /// Next log write position (byte offset from `base`).
    write_ptr: Addr,
    /// Record-count watermarks, one per open nested level (LogTM-Nested
    /// log frames).
    level_marks: Vec<usize>,
}

/// Bytes one record occupies in the log: the old line plus its address
/// (64 + 8, padded to 72 — matching LogTM's layout).
const RECORD_BYTES: Addr = LINE_BYTES + 8;

impl UndoLog {
    /// Log for thread `core` in its private region.
    #[must_use]
    pub fn new(core: CoreId) -> Self {
        let base = Region::log(core).base;
        UndoLog { records: Vec::new(), base, write_ptr: 0, level_marks: Vec::new() }
    }

    /// Has the line already been logged *at the current nesting level*?
    /// (A line written by an outer level is re-logged by an inner one so
    /// a partial abort can restore the outer level's speculative value.)
    #[must_use]
    pub fn has_logged(&self, line: LineAddr) -> bool {
        let start = self.level_marks.last().copied().unwrap_or(0);
        self.records[start..].iter().any(|r| r.line == line)
    }

    /// Open a nested-level log frame.
    pub fn push_level(&mut self) {
        self.level_marks.push(self.records.len());
    }

    /// Close the top log frame on inner commit: the records fold into the
    /// parent frame (replaying them on a later abort is still correct —
    /// the reverse walk restores the oldest value last).
    pub fn merge_level(&mut self) {
        self.level_marks.pop().expect("no log frame to merge");
    }

    /// Partial abort: replay and discard only the top frame's records.
    /// Returns the walk latency.
    pub fn unwind_level(
        &mut self,
        mem: &mut Memory,
        sys: &mut MemorySystem,
        now: Cycle,
        core: CoreId,
    ) -> Cycle {
        let mark = self.level_marks.pop().expect("no log frame to unwind");
        self.unwind_from(mem, sys, now, core, mark)
    }

    /// Append an undo record for `addr`'s line, capturing its current
    /// contents, and charge the log-write accesses through the hierarchy.
    /// Returns the charged latency. No-op (0 cycles) if already logged.
    pub fn log_old_value(
        &mut self,
        mem: &Memory,
        sys: &mut MemorySystem,
        now: Cycle,
        core: CoreId,
        addr: Addr,
    ) -> Cycle {
        let line = line_of(addr);
        if self.has_logged(line) {
            return 0;
        }
        self.record(mem, line);
        // Charge the stores that place the record in the (cached) log:
        // the record spans up to two log lines.
        let mut lat = 0;
        let start = self.claim_slot();
        let end = start + RECORD_BYTES - 1;
        for log_line in [line_of(start), line_of(end)] {
            lat += sys.access(now + lat, core, log_line, AccessKind::Store);
            if line_of(start) == line_of(end) {
                break;
            }
        }
        lat
    }

    /// Append a record of `line`'s current contents without charging it or
    /// moving the write pointer (the caller has checked
    /// [`Self::has_logged`]).
    pub fn record(&mut self, mem: &Memory, line: LineAddr) {
        self.records.push(UndoRecord { line, old: mem.read_line(line) });
    }

    /// Claim the next record slot in the log region: returns the address
    /// of its first byte and advances the write pointer past it.
    pub fn claim_slot(&mut self) -> Addr {
        let start = self.base + self.write_ptr;
        self.write_ptr += RECORD_BYTES;
        start
    }

    /// Would logging `addr`'s line push the log past `cap_bytes`?
    /// (`cap_bytes == 0` means unbounded; an already-logged line never
    /// grows the log.)
    #[must_use]
    pub fn would_overflow(&self, addr: Addr, cap_bytes: Addr) -> bool {
        cap_bytes != 0
            && !self.has_logged(line_of(addr))
            && self.write_ptr + RECORD_BYTES > cap_bytes
    }

    /// Number of logged lines this transaction.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Discard the log (commit).
    pub fn reset(&mut self) {
        self.records.clear();
        self.write_ptr = 0;
        self.level_marks.clear();
    }

    /// Software abort walk: restore every logged line, newest first,
    /// through the memory hierarchy. Returns the total repair latency.
    pub fn unwind(
        &mut self,
        mem: &mut Memory,
        sys: &mut MemorySystem,
        now: Cycle,
        core: CoreId,
    ) -> Cycle {
        self.level_marks.clear();
        self.unwind_from(mem, sys, now, core, 0)
    }

    /// Hardware restore (FasTM's fast abort): put every logged line back,
    /// newest first, invalidating `core`'s L1 copy so the old value is
    /// re-fetched from the L2, then discard the log. Nothing is walked, so
    /// nothing is charged.
    pub fn gang_restore(&mut self, mem: &mut Memory, sys: &mut MemorySystem, core: CoreId) {
        self.gang_restore_from(mem, sys, core, 0);
        self.reset();
    }

    /// [`Self::gang_restore`] of the top frame only (partial abort).
    pub fn gang_restore_level(&mut self, mem: &mut Memory, sys: &mut MemorySystem, core: CoreId) {
        let mark = self.level_marks.pop().expect("no log frame to restore");
        self.gang_restore_from(mem, sys, core, mark);
    }

    fn gang_restore_from(
        &mut self,
        mem: &mut Memory,
        sys: &mut MemorySystem,
        core: CoreId,
        mark: usize,
    ) {
        for rec in self.records.drain(mark..).rev() {
            sys.invalidate_local(core, rec.line);
            mem.write_line(rec.line, rec.old);
        }
    }

    /// Replay and discard records `[mark..]`, newest first.
    fn unwind_from(
        &mut self,
        mem: &mut Memory,
        sys: &mut MemorySystem,
        now: Cycle,
        core: CoreId,
        mark: usize,
    ) -> Cycle {
        let mut lat = 0;
        for rec in self.records[mark..].iter().rev() {
            // Read the record from the log...
            let rec_start = self.base + self.write_ptr.saturating_sub(RECORD_BYTES);
            lat += sys.access(now + lat, core, rec_start, AccessKind::Load);
            self.write_ptr = self.write_ptr.saturating_sub(RECORD_BYTES);
            // ...and write the old value back in place.
            lat += sys.access(now + lat, core, rec.line, AccessKind::Store);
            mem.write_line(rec.line, rec.old);
        }
        self.records.truncate(mark);
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::MachineConfig;

    fn setup() -> (Memory, MemorySystem, UndoLog) {
        (Memory::new(), MemorySystem::new(&MachineConfig::small_test()), UndoLog::new(0))
    }

    #[test]
    fn logs_once_per_line() {
        let (mut mem, mut sys, mut log) = setup();
        mem.write_word(0x100, 7);
        let l1 = log.log_old_value(&mem, &mut sys, 0, 0, 0x100);
        assert!(l1 > 0, "first log write must cost cycles");
        let l2 = log.log_old_value(&mem, &mut sys, 10, 0, 0x108); // same line
        assert_eq!(l2, 0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn unwind_restores_old_values() {
        let (mut mem, mut sys, mut log) = setup();
        mem.write_word(0x100, 7);
        mem.write_word(0x140, 9);
        log.log_old_value(&mem, &mut sys, 0, 0, 0x100);
        mem.write_word(0x100, 100); // speculative update
        log.log_old_value(&mem, &mut sys, 5, 0, 0x140);
        mem.write_word(0x140, 200);
        let repair = log.unwind(&mut mem, &mut sys, 50, 0);
        assert!(repair > 0, "the walk must take time");
        assert_eq!(mem.read_word(0x100), 7);
        assert_eq!(mem.read_word(0x140), 9);
        assert!(log.is_empty());
    }

    #[test]
    fn repair_time_scales_with_write_set() {
        let (mut mem, mut sys, mut log) = setup();
        // Large write set.
        for i in 0..64u64 {
            log.log_old_value(&mem, &mut sys, i, 0, 0x4000 + i * 64);
            mem.write_word(0x4000 + i * 64, i);
        }
        let big = log.unwind(&mut mem, &mut sys, 1000, 0);
        // Small write set, unwound after the big walk has fully drained
        // (the memory banks hold queuing state, so time must move forward).
        let mut log2 = UndoLog::new(0);
        let later = 1000 + big + 10_000;
        for i in 0..4u64 {
            log2.log_old_value(&mem, &mut sys, later + i, 0, 0x9000 + i * 64);
        }
        let small = log2.unwind(&mut mem, &mut sys, later + 100, 0);
        assert!(big > small * 4, "repair ~ O(write set): {big} vs {small}");
    }

    #[test]
    fn reset_discards_without_restoring() {
        let (mut mem, mut sys, mut log) = setup();
        mem.write_word(0x200, 1);
        log.log_old_value(&mem, &mut sys, 0, 0, 0x200);
        mem.write_word(0x200, 2);
        log.reset();
        assert!(log.is_empty());
        assert_eq!(mem.read_word(0x200), 2, "commit keeps the new value");
    }

    #[test]
    fn log_lives_in_private_region() {
        let log0 = UndoLog::new(0);
        let log1 = UndoLog::new(1);
        assert!(Region::log(0).contains(log0.base));
        assert!(Region::log(1).contains(log1.base));
        assert_ne!(log0.base, log1.base);
    }
}
