//! The STM-mode software fallback tier ([`SwVm`]).
//!
//! When the escalation ladder runs in `FallbackMode::Stm`, a transaction
//! that exhausts its hardware retry budget re-executes in *software*: reads
//! are value-logged against committed memory, writes are buffered in a
//! per-core redo log, and commit acquires per-line ownership records
//! (locks), re-validates every read by value, and publishes the buffered
//! writes — while hardware transactions keep running concurrently on the
//! other cores. This is the NOrec/hybrid-TM shape the cost-of-concurrency
//! literature studies: no hardware capacity is consumed (a software
//! transaction can be arbitrarily large even with the redirect pool
//! clamped to one page), at the price of software-overhead cycles on every
//! access and value validation at commit.
//!
//! The conflict rules between the tiers — who NACKs, who dooms, who loses,
//! each a [`ConflictDir`](suv_trace::ConflictDir) — and INV-13 (no line is
//! ever both in a live eager hardware write set and software-locked) are
//! tabulated in DESIGN.md §9; the machine enforces them, not this module.
//!
//! [`SwVm`] is *not* a [`VersionManager`](crate::vm::VersionManager): it
//! holds only the software tier's own state (redo logs, value-logged read
//! sets, ownership records) behind inherent methods. The
//! [`HtmMachine`](crate::machine::HtmMachine) drives it from the software
//! tier's stage sequences and orchestrates the cross-tier conflict
//! detection; committed data locations are still resolved by the hardware
//! scheme's version manager.

use suv_types::{line_of, Addr, CoreId, Cycle, LineAddr, LineMap, LineSet, SharerSet, WordMap};

/// Fixed software cost of entering the fallback tier (checkpointing the
/// retry context and installing the STM dispatch).
pub const SW_BEGIN_CYCLES: Cycle = 10;
/// Software bookkeeping charged per read/write barrier (ownership-record
/// hash plus value logging) on top of the memory access itself.
pub const SW_ACCESS_CYCLES: Cycle = 6;
/// Fixed cost of a software commit (fence + ownership-record publish).
pub const SW_COMMIT_BASE_CYCLES: Cycle = 20;
/// Per written line cost of a software commit (lock, validate, write back).
pub const SW_COMMIT_PER_LINE_CYCLES: Cycle = 8;
/// Cost of discarding a software attempt (redo log reset; no repair —
/// software transactions never write in place before commit).
pub const SW_ABORT_CYCLES: Cycle = 10;

/// A published ownership record: `owner`'s software commit holds `line`
/// until `until` (the commit window).
#[derive(Debug, Clone, Copy)]
struct SwLock {
    owner: CoreId,
    until: Cycle,
}

/// Per-core software transaction descriptor.
#[derive(Debug, Default, Clone)]
struct SwTx {
    doomed: bool,
    begin_time: Cycle,
    /// Value-based read log, in program order: `(word address, observed
    /// committed value)`.
    reads: Vec<(Addr, u64)>,
    /// Distinct lines read (hardware-commit invalidation checks).
    read_lines: LineSet,
    /// Redo log: latest value per word address, in first-write order.
    writes: Vec<(Addr, u64)>,
    write_index: WordMap<usize>,
    /// Distinct lines written.
    write_lines: LineSet,
}

impl SwTx {
    fn reset(&mut self) {
        self.doomed = false;
        self.reads.clear();
        self.read_lines.clear();
        self.writes.clear();
        self.write_index.clear();
        self.write_lines.clear();
    }
}

/// The software fallback version manager: one instance per machine, all
/// cores, alongside the hardware scheme (which keeps resolving *committed*
/// data locations — on SUV a software read still follows redirect entries).
#[derive(Clone)]
pub struct SwVm {
    txs: Vec<SwTx>,
    /// Cores inside a software transaction. Empty on every run that never
    /// escalates, which is what lets the hardware commit path skip its
    /// software-reader invalidation without looking at any core.
    active: SharerSet,
    locks: LineMap<SwLock>,
    /// Latest `until` of any lock ever published; `lock_owner` is a single
    /// compare before this instant, so hardware paths pay one predictable
    /// branch when the software tier is idle (the default).
    locks_live_until: Cycle,
}

impl SwVm {
    /// Software tier for an `n_cores` machine.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        SwVm {
            txs: (0..n_cores).map(|_| SwTx::default()).collect(),
            active: SharerSet::new(),
            locks: LineMap::default(),
            locks_live_until: 0,
        }
    }

    /// Is `core` inside a software transaction?
    #[must_use]
    pub fn active(&self, core: CoreId) -> bool {
        self.active.contains(core)
    }

    /// Was `core`'s software transaction invalidated by a hardware commit?
    #[must_use]
    pub fn doomed(&self, core: CoreId) -> bool {
        self.txs[core].doomed
    }

    /// Invalidate `core`'s in-flight software transaction.
    pub fn doom(&mut self, core: CoreId) {
        self.txs[core].doomed = true;
    }

    /// Begin a software attempt for `core` at time `now`.
    pub fn begin_sw(&mut self, core: CoreId, now: Cycle) {
        let fresh = self.active.insert(core);
        debug_assert!(fresh, "core {core} begins a software tx while one is active");
        let t = &mut self.txs[core];
        t.reset();
        t.begin_time = now;
    }

    /// Begin time of `core`'s software transaction.
    #[must_use]
    pub fn begin_time(&self, core: CoreId) -> Cycle {
        self.txs[core].begin_time
    }

    /// Log a validated read of `addr` observing `value`.
    pub fn note_read(&mut self, core: CoreId, addr: Addr, value: u64) {
        let t = &mut self.txs[core];
        t.reads.push((addr, value));
        t.read_lines.insert(line_of(addr));
    }

    /// Does `core`'s software read set cover `line`?
    #[must_use]
    pub fn reads_line(&self, core: CoreId, line: LineAddr) -> bool {
        self.txs[core].read_lines.contains(&line)
    }

    /// The in-flight, not yet doomed software transactions other than
    /// `core`'s whose read set covers one of `lines`, each with the lowest
    /// such line, in ascending core order. Empty — without looking at
    /// `lines` — when no software transaction is active.
    #[must_use]
    pub fn readers_of(
        &self,
        core: CoreId,
        lines: &(impl Iterator<Item = LineAddr> + Clone),
    ) -> Vec<(CoreId, LineAddr)> {
        self.active
            .iter()
            .filter(|&c| c != core && !self.doomed(c))
            .filter_map(|c| {
                let lowest = lines.clone().filter(|&l| self.reads_line(c, l)).min();
                lowest.map(|l| (c, l))
            })
            .collect()
    }

    /// The value-based read log, in program order.
    #[must_use]
    pub fn reads(&self, core: CoreId) -> &[(Addr, u64)] {
        &self.txs[core].reads
    }

    /// The redo log (latest value per address, first-write order).
    #[must_use]
    pub fn writes(&self, core: CoreId) -> &[(Addr, u64)] {
        &self.txs[core].writes
    }

    /// Distinct written lines, sorted (deterministic lock order).
    #[must_use]
    pub fn write_lines_sorted(&self, core: CoreId) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self.txs[core].write_lines.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Redo-log hit for `addr` (software read-own-write).
    #[must_use]
    pub fn buffered_value(&self, core: CoreId, addr: Addr) -> Option<u64> {
        let t = &self.txs[core];
        t.write_index.get(&addr).map(|&i| t.writes[i].1)
    }

    /// Buffer a software store.
    pub fn buffer_store(&mut self, core: CoreId, addr: Addr, value: u64) {
        let t = &mut self.txs[core];
        match t.write_index.get(&addr) {
            Some(&i) => t.writes[i].1 = value,
            None => {
                t.write_index.insert(addr, t.writes.len());
                t.writes.push((addr, value));
                t.write_lines.insert(line_of(addr));
            }
        }
    }

    /// Publish ownership records for `lines` until `until` (the software
    /// commit window). Expired records are reclaimed on the way.
    pub fn lock(&mut self, core: CoreId, lines: &[LineAddr], now: Cycle, until: Cycle) {
        if now >= self.locks_live_until {
            self.locks.clear(); // every record expired
        } else {
            self.locks.retain(|_, l| now < l.until);
        }
        for &line in lines {
            self.locks.insert(line, SwLock { owner: core, until });
        }
        self.locks_live_until = self.locks_live_until.max(until);
    }

    /// The core whose live ownership record covers `line` at `now`, if any
    /// (a core's own record never conflicts with it).
    #[must_use]
    pub fn lock_owner(&self, now: Cycle, line: LineAddr, requester: CoreId) -> Option<CoreId> {
        if now >= self.locks_live_until {
            return None;
        }
        match self.locks.get(&line) {
            Some(l) if l.owner != requester && now < l.until => Some(l.owner),
            _ => None,
        }
    }

    /// All live ownership records at `now`, sorted by line (INV-13 audit).
    #[must_use]
    pub fn live_locks(&self, now: Cycle) -> Vec<(LineAddr, CoreId)> {
        if now >= self.locks_live_until {
            return Vec::new();
        }
        let mut v: Vec<(LineAddr, CoreId)> = self
            .locks
            .iter()
            .filter(|(_, l)| now < l.until)
            .map(|(&line, l)| (line, l.owner))
            .collect();
        v.sort_unstable();
        v
    }

    /// End `core`'s software transaction (commit or abort).
    pub fn finish(&mut self, core: CoreId) {
        self.txs[core].reset();
        self.active.remove(core);
    }

    /// Audit the descriptors: a retired transaction keeps no logs, and the
    /// redo log and its index agree. Called by the machine at software
    /// transaction boundaries when `CheckLevel >= Cheap`.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (core, t) in self.txs.iter().enumerate() {
            if !self.active(core) && (!t.reads.is_empty() || !t.writes.is_empty()) {
                return Err(format!("core {core}: retired software tx kept its logs"));
            }
            if t.writes.len() != t.write_index.len() {
                return Err(format!("core {core}: software redo log and index diverge"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redo_log_keeps_latest_value_and_first_write_order() {
        let mut sw = SwVm::new(2);
        sw.begin_sw(0, 0);
        sw.buffer_store(0, 0x100, 1);
        sw.buffer_store(0, 0x200, 2);
        sw.buffer_store(0, 0x100, 3);
        assert_eq!(sw.buffered_value(0, 0x100), Some(3));
        assert_eq!(sw.writes(0), &[(0x100, 3), (0x200, 2)]);
        assert_eq!(sw.write_lines_sorted(0), vec![line_of(0x100), line_of(0x200)]);
    }

    #[test]
    fn ownership_records_expire_and_ignore_their_owner() {
        let mut sw = SwVm::new(2);
        sw.lock(0, &[0x40], 100, 150);
        assert_eq!(sw.lock_owner(120, 0x40, 1), Some(0));
        assert_eq!(sw.lock_owner(120, 0x40, 0), None, "own record never conflicts");
        assert_eq!(sw.lock_owner(150, 0x40, 1), None, "record expired");
        assert_eq!(sw.lock_owner(120, 0x80, 1), None, "other lines are free");
        assert_eq!(sw.live_locks(120), vec![(0x40, 0)]);
        assert!(sw.live_locks(150).is_empty());
    }

    #[test]
    fn doom_marks_and_finish_clears() {
        let mut sw = SwVm::new(2);
        sw.begin_sw(1, 10);
        assert_eq!(sw.begin_time(1), 10);
        sw.note_read(1, 0x100, 7);
        assert!(sw.reads_line(1, line_of(0x100)));
        assert_eq!(sw.reads(1), &[(0x100, 7)]);
        sw.doom(1);
        assert!(sw.doomed(1));
        sw.finish(1);
        assert!(!sw.active(1));
        assert!(!sw.doomed(1));
        assert!(sw.check_invariants().is_ok(), "a retired transaction keeps no logs");
    }
}
