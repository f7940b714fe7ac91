//! The composed memory system: L1s, L2, directory, mesh, memory banks.

use crate::mesi::Mesi;
use suv_cache::{DirEntry, Directory, TagArray};
use suv_noc::Mesh;
use suv_trace::{TraceEvent, Tracer};
use suv_types::{line_of, Addr, CheckLevel, CoreId, Cycle, LineAddr, MachineConfig, SharerSet};

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
}

/// Per-line L1 metadata: MESI state plus the HTM speculative-write mark
/// (used by FasTM to keep new values L1-resident and detect overflow).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Meta {
    state: Mesi,
    speculative: bool,
}

/// An L1 line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Evict {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it was dirty (a write-back was charged).
    pub dirty: bool,
    /// Whether it was marked speculatively written (FasTM overflow event).
    pub speculative: bool,
}

/// Result of a coherence fill.
#[derive(Debug, Clone)]
pub struct FillOutcome {
    /// Total latency of the miss, in cycles.
    pub latency: Cycle,
    /// L1 line evicted to make room, if any.
    pub evicted: Option<L1Evict>,
    /// True when the request was served from another core's cache.
    pub cache_to_cache: bool,
    /// True when the request went to a memory bank.
    pub from_memory: bool,
}

/// Aggregate memory-system statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// L1 load/store hits with sufficient permission.
    pub l1_hits: u64,
    /// L1 misses and permission upgrades (coherence requests issued).
    pub l1_misses: u64,
    /// Requests that missed the L2 and went to memory.
    pub l2_misses: u64,
    /// Cache-to-cache transfers.
    pub c2c_transfers: u64,
    /// Remote L1 invalidations performed by GETM requests.
    pub invalidations: u64,
    /// Dirty-line write-backs charged (evictions + downgrades).
    pub writebacks: u64,
}

/// The memory hierarchy of the simulated CMP.
#[derive(Clone)]
pub struct MemorySystem {
    cfg: MachineConfig,
    l1s: Vec<TagArray<L1Meta>>,
    /// Per core, the lines marked speculative since the last gang-clear.
    /// A superset of the currently marked lines (a mark dies with its line
    /// on eviction or invalidation), so the clear visits these instead of
    /// sweeping the whole tag array.
    // nested-vec-ok: one append-only list per core, drained at transaction end
    spec_lines: Vec<Vec<LineAddr>>,
    l2: TagArray<()>,
    dir: Directory,
    mesh: Mesh,
    /// Per-bank time at which the bank is next free (deterministic queuing).
    bank_busy: Vec<Cycle>,
    /// Fixed service time a bank is occupied per request.
    bank_occupancy: Cycle,
    stats: MemStats,
}

impl MemorySystem {
    /// Build the hierarchy from a machine configuration.
    #[must_use]
    pub fn new(cfg: &MachineConfig) -> Self {
        MemorySystem {
            cfg: *cfg,
            l1s: (0..cfg.n_cores).map(|_| TagArray::new(&cfg.l1)).collect(),
            spec_lines: vec![Vec::new(); cfg.n_cores],
            l2: TagArray::new(&cfg.l2),
            dir: Directory::new(),
            mesh: Mesh::new(cfg),
            bank_busy: vec![0; cfg.mem_banks],
            bank_occupancy: 20,
            stats: MemStats::default(),
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// MESI state of `addr`'s line in `core`'s L1 (None = Invalid).
    #[must_use]
    pub fn l1_state(&self, core: CoreId, addr: Addr) -> Option<Mesi> {
        self.l1s[core].meta(line_of(addr)).map(|m| m.state)
    }

    /// Does `core` hold the line with enough permission for `kind`?
    #[must_use]
    pub fn has_permission(&self, core: CoreId, addr: Addr, kind: AccessKind) -> bool {
        match self.l1_state(core, addr) {
            None => false,
            Some(s) => match kind {
                AccessKind::Load => s.grants_load(),
                AccessKind::Store => s.grants_store(),
            },
        }
    }

    /// Is the line dirty in `core`'s L1? (FasTM consults this before its
    /// first speculative write to decide whether a write-back of the old
    /// value is needed.)
    #[must_use]
    pub fn is_dirty_in_l1(&self, core: CoreId, addr: Addr) -> bool {
        self.l1s[core].is_dirty(line_of(addr))
    }

    /// Serve the access from `core`'s L1 if it holds the line with enough
    /// permission: the permission test, the LRU touch and the dirty/M
    /// update in one tag-array scan (the hottest operation in the
    /// simulator). Returns the hit latency, or `None` — nothing touched,
    /// nothing counted — when a coherence request is needed.
    pub fn try_hit(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> Option<Cycle> {
        let store = kind == AccessKind::Store;
        let hit = self.l1s[core].hit_if(line_of(addr), store, |m| {
            let granted = if store { m.state.grants_store() } else { m.state.grants_load() };
            if granted && store {
                m.state = Mesi::Modified;
            }
            granted
        });
        hit.then(|| {
            self.stats.l1_hits += 1;
            self.cfg.l1.latency
        })
    }

    /// [`Self::try_hit`] for a caller that already knows the answer.
    ///
    /// # Panics
    /// When [`Self::has_permission`] does not hold.
    pub fn access_hit(&mut self, core: CoreId, addr: Addr, kind: AccessKind) -> Cycle {
        self.try_hit(core, addr, kind).expect("access_hit without permission")
    }

    /// One hierarchy access with no conflict checks — an L1 hit, else a
    /// coherence fill — for traffic no transaction can contend for (thread-
    /// private log space) or that has already won its conflicts (abort
    /// restoration, a committing write buffer's drain). Returns its latency.
    pub fn access(&mut self, now: Cycle, core: CoreId, addr: Addr, kind: AccessKind) -> Cycle {
        match self.try_hit(core, addr, kind) {
            Some(hit) => hit,
            None => self.fill(now, core, addr, kind).latency,
        }
    }

    /// Latency of receiving a NACK for a request to `line`: the request
    /// travels to the directory, is forwarded to the conflicting core, and
    /// the NACK returns to the requester — three one-way legs, one
    /// [`Mesh::relay`]. No cache or directory state changes; the mesh counts
    /// the legs as messages and, under `noc_contention`, reserves their links.
    pub fn nack_latency(&mut self, now: Cycle, core: CoreId, addr: Addr, nacker: CoreId) -> Cycle {
        let dir = self.mesh.bank_of(line_of(addr));
        self.cfg.l1.latency + self.cfg.dir_latency + self.mesh.relay(now, [core, dir, nacker, core])
    }

    /// Resolve a miss (or upgrade) for `core` on `addr` with a full
    /// coherence transaction. The caller has already performed its conflict
    /// checks and decided to proceed.
    ///
    /// Every mesh leg is one-way; the legs composed here are, in order:
    /// request `core -> dir`, then either `dir -> owner -> core`
    /// (cache-to-cache) or `dir -> mem ctrl -> dir -> core` (L2/memory
    /// fill, the middle leg only on an L2 miss), plus for stores the
    /// farthest `dir -> sharer -> core` invalidation/ack pair. No leg is
    /// charged twice and none is skipped.
    pub fn fill(&mut self, now: Cycle, core: CoreId, addr: Addr, kind: AccessKind) -> FillOutcome {
        let line = line_of(addr);
        self.stats.l1_misses += 1;

        // Request: core -> home L2 bank, directory lookup.
        let mut latency = self.cfg.l1.latency + self.cfg.dir_latency;
        let dir_node = self.mesh.bank_of(line);
        latency += self.mesh.relay(now, [core, dir_node]);
        let entry = self.dir.lookup(line);

        let mut cache_to_cache = false;
        let mut from_memory = false;

        // Locate the data.
        let remote_owner = entry.owner.filter(|o| *o != core);
        // Does anyone else hold a copy? (Decides S vs E for a load.)
        let others = remote_owner.is_some()
            || entry.sharers.count() > u32::from(entry.sharers.contains(core));
        if let Some(owner) = remote_owner {
            // Forward to owner; cache-to-cache transfer to the requester.
            latency +=
                self.mesh.relay(now + latency, [dir_node, owner, core]) + self.cfg.l1.latency;
            cache_to_cache = true;
            self.stats.c2c_transfers += 1;
            // Owner's copy: downgraded on GETS, invalidated on GETM.
            match kind {
                AccessKind::Load => {
                    // M -> S: dirty data written back to L2.
                    if self.l1s[owner].take_dirty(line) {
                        self.stats.writebacks += 1;
                    }
                    if let Some(m) = self.l1s[owner].meta_mut(line) {
                        m.state = Mesi::Shared;
                    }
                }
                AccessKind::Store => {
                    self.l1s[owner].invalidate(line);
                    self.stats.invalidations += 1;
                }
            }
            // The transferred line now lives in the L2 as well.
            self.l2.insert(line, kind == AccessKind::Load);
        } else {
            // Served by the L2 bank or memory.
            latency += self.cfg.l2.latency;
            if !self.l2.touch(line) {
                // L2 miss: go to the line's memory bank (banked by address),
                // with deterministic queuing on the bank.
                self.stats.l2_misses += 1;
                from_memory = true;
                let bank = ((line >> 6) as usize) % self.cfg.mem_banks;
                let ctrl = self.mesh.mem_ctrl(bank);
                latency += self.mesh.relay(now + latency, [dir_node, ctrl]);
                let ready = now + latency;
                let free = self.bank_busy[bank].max(ready);
                latency += free - ready + self.cfg.mem_latency;
                self.bank_busy[bank] = free + self.bank_occupancy;
                // The fetched line travels back to its home bank (it is
                // installed in the L2 there) before being forwarded to the
                // requester — a previously un-charged leg.
                latency += self.mesh.relay(now + latency, [ctrl, dir_node]);
                self.l2.insert(line, false);
            }
            // Data returns to the requester.
            latency += self.mesh.relay(now + latency, [dir_node, core]);
        }

        // Invalidate remote sharers on a store (parallel; pay the farthest
        // invalidation + acknowledgement chain — the store cannot complete
        // until the last sharer's ack reaches the requester; the ack leg
        // was previously un-charged).
        if kind == AccessKind::Store {
            let mut worst = 0;
            for v in entry.sharers.iter().filter(|v| *v != core && Some(*v) != remote_owner) {
                self.l1s[v].invalidate(line);
                self.stats.invalidations += 1;
                worst = worst.max(self.mesh.relay(now + latency, [dir_node, v, core]));
            }
            latency += worst;
        }

        // Update the directory and install in the requester's L1.
        let new_state = match kind {
            AccessKind::Store => {
                self.dir.set_owner(line, core);
                Mesi::Modified
            }
            AccessKind::Load => {
                if others {
                    self.dir.add_sharer(line, core);
                    Mesi::Shared
                } else {
                    // Sole copy: grant E. Track ownership so remote
                    // requests are forwarded here.
                    self.dir.set_owner(line, core);
                    Mesi::Exclusive
                }
            }
        };
        let evicted = self.l1s[core].insert(line, kind == AccessKind::Store).map(|ev| {
            self.dir.remove_sharer(ev.line, core);
            if ev.dirty {
                self.stats.writebacks += 1;
                self.l2.insert(ev.line, true);
            }
            L1Evict { line: ev.line, dirty: ev.dirty, speculative: ev.meta.speculative }
        });
        let meta = self.l1s[core].meta_mut(line).expect("just inserted");
        meta.state = new_state;

        // Runtime invariant checking (never charged simulated cycles).
        if self.cfg.check >= CheckLevel::Cheap {
            self.assert_line_ok(line);
            if let Some(ev) = &evicted {
                self.assert_line_ok(ev.line);
            }
            // Full level additionally sweeps the whole directory, throttled
            // to every 64th miss to keep test wall-time bounded (the HTM
            // layer also sweeps at every transaction boundary).
            if self.cfg.check >= CheckLevel::Full && self.stats.l1_misses.is_multiple_of(64) {
                if let Err(v) = self.check_invariants() {
                    panic!("coherence invariant violated after fill: {v}");
                }
            }
        }

        FillOutcome { latency, evicted, cache_to_cache, from_memory }
    }

    fn assert_line_ok(&self, line: LineAddr) {
        if let Err(v) = self.check_line_invariants(line) {
            panic!("coherence invariant violated after fill: {v}");
        }
    }

    /// Check the MESI/directory invariants for one line (INV-1..INV-4 in
    /// DESIGN.md). Returns a description of the first violation found.
    pub fn check_line_invariants(&self, line: LineAddr) -> Result<(), String> {
        let entry = self.dir.peek(line);
        let mut holders = SharerSet::new();
        let mut exclusive: Option<CoreId> = None;
        for c in 0..self.cfg.n_cores {
            if let Some(m) = self.l1s[c].meta(line) {
                holders.insert(c);
                if matches!(m.state, Mesi::Modified | Mesi::Exclusive) {
                    // INV-1: at most one core in M/E.
                    if let Some(first) = exclusive {
                        return Err(format!(
                            "INV-1 line {line:#x}: cores {first} and {c} both exclusive"
                        ));
                    }
                    exclusive = Some(c);
                }
            }
        }
        // INV-2: an exclusive holder is the sole holder.
        if let Some(o) = exclusive {
            if holders.count() != 1 {
                return Err(format!(
                    "INV-2 line {line:#x}: core {o} exclusive but holders={holders:?}"
                ));
            }
            if entry.owner != Some(o) {
                return Err(format!(
                    "INV-4 line {line:#x}: core {o} in M/E but directory owner is {:?}",
                    entry.owner
                ));
            }
        }
        // INV-3: the directory sharer set is a superset of the real holders.
        if !holders.is_subset(&entry.sharers) {
            return Err(format!(
                "INV-3 line {line:#x}: holders {holders:?} not covered by sharers {:?}",
                entry.sharers
            ));
        }
        // INV-4: a recorded owner actually holds the line in M or E.
        if let Some(o) = entry.owner {
            match self.l1s[o].meta(line).map(|m| m.state) {
                Some(Mesi::Modified | Mesi::Exclusive) => {}
                other => {
                    return Err(format!(
                        "INV-4 line {line:#x}: directory owner {o} holds {other:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sweep every directory-tracked line and every L1-resident line
    /// through [`Self::check_line_invariants`]. `Err` carries the first
    /// violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Sort so the *first* violation reported is independent of map
        // iteration order (the checker is off the timing path; the sort is
        // free as far as simulated cycles are concerned).
        let mut lines: Vec<LineAddr> = self.dir.iter().map(|(l, _)| l).collect();
        lines.sort_unstable();
        for line in lines {
            self.check_line_invariants(line)?;
        }
        // Lines resident in an L1 but absent from the directory would be
        // skipped above (a dropped sharer bit erases the entry), so sweep
        // the caches too.
        for c in 0..self.cfg.n_cores {
            let mut resident: Vec<LineAddr> = self.l1s[c].resident_lines().collect();
            resident.sort_unstable();
            for line in resident {
                self.check_line_invariants(line)?;
            }
        }
        Ok(())
    }

    /// Fault injection for checker self-tests: silently drop `core`'s
    /// sharer bit from the directory while leaving its L1 copy resident —
    /// the seeded INV-3 bug the oracle must catch.
    pub fn inject_drop_sharer(&mut self, addr: Addr, core: CoreId) {
        self.dir.remove_sharer(line_of(addr), core);
    }

    /// [`fill`](Self::fill), plus trace events for the miss: an `L1Miss`
    /// always, an `L2Miss` when the request went to a memory bank. The
    /// disabled-tracer path costs one predictable branch per event.
    pub fn fill_traced(
        &mut self,
        now: Cycle,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
        tracer: &mut Tracer,
    ) -> FillOutcome {
        let f = self.fill(now, core, addr, kind);
        let line = line_of(addr);
        tracer.emit(now, core, TraceEvent::L1Miss { line });
        if f.from_memory {
            tracer.emit(now, core, TraceEvent::L2Miss { line });
        }
        f
    }

    /// Mark `core`'s copy of the line as speculatively written (FasTM).
    /// Returns false when the line is not resident.
    pub fn mark_speculative(&mut self, core: CoreId, addr: Addr) -> bool {
        let line = line_of(addr);
        match self.l1s[core].meta_mut(line) {
            Some(m) => {
                if !m.speculative {
                    m.speculative = true;
                    self.spec_lines[core].push(line);
                }
                true
            }
            None => false,
        }
    }

    /// Clear all speculative marks in `core`'s L1; returns how many lines
    /// were marked (the gang-clear at commit/abort). Visits only the lines
    /// marked since the previous clear: a line that lost its mark meanwhile
    /// (evicted or invalidated, perhaps refilled clean) or was recorded
    /// twice (marked, displaced, refilled, marked again) counts at most
    /// once, exactly as a sweep of the tag array would count it.
    pub fn clear_speculative(&mut self, core: CoreId) -> u64 {
        let l1 = &mut self.l1s[core];
        let mut n = 0;
        for line in self.spec_lines[core].drain(..) {
            if let Some(m) = l1.meta_mut(line) {
                n += u64::from(std::mem::take(&mut m.speculative));
            }
        }
        n
    }

    /// Invalidate `core`'s copy of the line (FasTM abort discards the
    /// speculative L1 copy so the old value in L2 becomes visible).
    pub fn invalidate_local(&mut self, core: CoreId, addr: Addr) {
        let line = line_of(addr);
        if self.l1s[core].invalidate(line).is_some() {
            self.dir.remove_sharer(line, core);
        }
    }

    /// Write back `core`'s dirty copy of the line to the L2 and mark it
    /// clean. Returns the charged latency (FasTM's old-value write-back
    /// before the first speculative update of a dirty line). The single
    /// `core -> bank` leg is deliberate: a write-back is posted, the core
    /// does not wait for an acknowledgement.
    pub fn writeback_line(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Cycle {
        let line = line_of(addr);
        if self.l1s[core].take_dirty(line) {
            self.l2.insert(line, true);
            self.stats.writebacks += 1;
            self.cfg.l2.latency + self.mesh.core_to_bank(now, core, line)
        } else {
            0
        }
    }

    /// Directory entry for `addr`'s line (checker state fingerprinting).
    #[must_use]
    pub fn dir_entry(&self, addr: Addr) -> &DirEntry {
        self.dir.peek(line_of(addr))
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Borrow the mesh (for latency estimates by the HTM layer).
    pub fn mesh_mut(&mut self) -> &mut Mesh {
        &mut self.mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::MachineConfig;

    fn sys() -> MemorySystem {
        MemorySystem::new(&MachineConfig::default())
    }

    #[test]
    fn cold_load_comes_from_memory() {
        let mut s = sys();
        assert!(!s.has_permission(0, 0x1000, AccessKind::Load));
        let f = s.fill(0, 0, 0x1000, AccessKind::Load);
        assert!(f.from_memory);
        assert!(f.latency >= s.config().mem_latency, "must pay memory latency");
        assert_eq!(s.l1_state(0, 0x1000), Some(Mesi::Exclusive), "sole copy gets E");
        assert!(s.has_permission(0, 0x1000, AccessKind::Load));
        assert!(s.has_permission(0, 0x1000, AccessKind::Store), "E grants silent store");
    }

    #[test]
    fn second_sharer_gets_s_via_c2c() {
        let mut s = sys();
        s.fill(0, 0, 0x1000, AccessKind::Load);
        let f = s.fill(100, 1, 0x1000, AccessKind::Load);
        assert!(f.cache_to_cache, "owner (E) forwards the line");
        assert_eq!(s.l1_state(1, 0x1000), Some(Mesi::Shared));
        assert_eq!(s.l1_state(0, 0x1000), Some(Mesi::Shared), "owner downgraded");
        assert!(!s.has_permission(1, 0x1000, AccessKind::Store));
    }

    #[test]
    fn store_invalidates_sharers() {
        let mut s = sys();
        s.fill(0, 0, 0x2000, AccessKind::Load);
        s.fill(10, 1, 0x2000, AccessKind::Load);
        s.fill(20, 2, 0x2000, AccessKind::Load);
        let f = s.fill(30, 3, 0x2000, AccessKind::Store);
        assert!(f.latency > 0);
        assert_eq!(s.l1_state(3, 0x2000), Some(Mesi::Modified));
        assert_eq!(s.l1_state(0, 0x2000), None);
        assert_eq!(s.l1_state(1, 0x2000), None);
        assert_eq!(s.l1_state(2, 0x2000), None);
        assert!(s.stats().invalidations >= 3);
    }

    #[test]
    fn store_hit_in_m_is_silent() {
        let mut s = sys();
        s.fill(0, 0, 0x3000, AccessKind::Store);
        assert!(s.has_permission(0, 0x3000, AccessKind::Store));
        let lat = s.access_hit(0, 0x3000, AccessKind::Store);
        assert_eq!(lat, 1, "L1 hit latency per Table III");
        assert!(s.is_dirty_in_l1(0, 0x3000));
    }

    #[test]
    fn dirty_owner_serves_load_and_writes_back() {
        let mut s = sys();
        s.fill(0, 0, 0x4000, AccessKind::Store);
        s.access_hit(0, 0x4000, AccessKind::Store);
        let wb_before = s.stats().writebacks;
        let f = s.fill(50, 1, 0x4000, AccessKind::Load);
        assert!(f.cache_to_cache);
        assert!(s.stats().writebacks > wb_before, "M->S writes dirty data back");
        assert!(!s.is_dirty_in_l1(0, 0x4000));
    }

    #[test]
    fn l2_hit_is_cheaper_than_memory() {
        let mut s = sys();
        // First access installs the line in L2 and core 0's L1.
        let cold = s.fill(0, 0, 0x5000, AccessKind::Load).latency;
        // Invalidate core 0's copy wholesale, then re-fetch: L2 hit.
        s.invalidate_local(0, 0x5000);
        let warm = s.fill(1000, 0, 0x5000, AccessKind::Load);
        assert!(!warm.from_memory);
        assert!(warm.latency < cold, "L2 hit {} !< cold miss {}", warm.latency, cold);
    }

    #[test]
    fn eviction_reports_speculative_mark() {
        let mut cfg = MachineConfig::small_test();
        cfg.l1.capacity_bytes = 128; // 1 set x 2 ways
        cfg.l1.ways = 2;
        let mut s = MemorySystem::new(&cfg);
        s.fill(0, 0, 0x0, AccessKind::Store);
        assert!(s.mark_speculative(0, 0x0));
        s.fill(10, 0, 0x40, AccessKind::Load);
        // Third distinct line in the same (only) set evicts the LRU line 0x0.
        let f = s.fill(20, 0, 0x80, AccessKind::Load);
        let ev = f.evicted.expect("eviction");
        assert_eq!(ev.line, 0x0);
        assert!(ev.speculative, "speculative mark must surface at eviction");
        assert!(ev.dirty);
    }

    #[test]
    fn clear_speculative_counts() {
        let mut s = sys();
        s.fill(0, 0, 0x100, AccessKind::Store);
        s.fill(0, 0, 0x140, AccessKind::Store);
        s.mark_speculative(0, 0x100);
        s.mark_speculative(0, 0x140);
        assert_eq!(s.clear_speculative(0), 2);
        assert_eq!(s.clear_speculative(0), 0);
    }

    #[test]
    fn writeback_line_only_when_dirty() {
        let mut s = sys();
        s.fill(0, 0, 0x200, AccessKind::Load);
        assert_eq!(s.writeback_line(10, 0, 0x200), 0, "clean line: no write-back");
        s.access_hit(0, 0x200, AccessKind::Store);
        assert!(s.writeback_line(20, 0, 0x200) > 0);
        assert!(!s.is_dirty_in_l1(0, 0x200));
    }

    #[test]
    fn nack_latency_roundtrip() {
        let mut s = sys();
        let lat = s.nack_latency(0, 0, 0x40, 15);
        // At minimum: L1 detect + directory + some mesh hops.
        assert!(lat > s.config().dir_latency);
    }

    #[test]
    fn nack_latency_is_its_three_legs() {
        let mut s = sys();
        let mut legs = Mesh::new(s.config());
        for core in 0..16 {
            for bank in 0..16u64 {
                for nacker in 0..16 {
                    let (c, d, n) = (
                        legs.core_node(core),
                        legs.core_node(legs.bank_of(bank * 64)),
                        legs.core_node(nacker),
                    );
                    let want = s.config().l1.latency
                        + legs.route(0, c, d)
                        + s.config().dir_latency
                        + legs.route(0, d, n)
                        + legs.route(0, n, c);
                    assert_eq!(s.nack_latency(0, core, bank * 64 + 8, nacker), want);
                }
            }
        }
        assert_eq!(s.mesh_mut().messages(), legs.messages(), "zero-hop legs are not messages");
    }

    #[test]
    fn bank_queuing_is_deterministic() {
        let mut s = sys();
        // Two back-to-back memory fills to lines in the same bank: the
        // second waits for the bank.
        let banks = s.config().mem_banks as u64;
        let a = s.fill(0, 0, 0x10_0000, AccessKind::Load).latency;
        let b = s.fill(0, 1, 0x10_0000 + banks * 64, AccessKind::Load).latency;
        assert!(b >= a, "queued access can't be faster ({b} < {a})");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use suv_types::MachineConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Single-writer invariant: after any access sequence, a line in M
        /// or E at one core is resident at no other core.
        #[test]
        fn single_writer(ops in proptest::collection::vec(
            (0usize..4, 0u64..8, any::<bool>()), 1..200))
        {
            let mut s = MemorySystem::new(&MachineConfig::small_test());
            let mut now = 0u64;
            for (core, l, is_store) in ops {
                let addr = l * 64;
                let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
                if s.has_permission(core, addr, kind) {
                    s.access_hit(core, addr, kind);
                } else {
                    now += s.fill(now, core, addr, kind).latency;
                }
                for line in 0u64..8 {
                    let a = line * 64;
                    let holders: Vec<usize> = (0..4).filter(|c| s.l1_state(*c, a).is_some()).collect();
                    let exclusive: Vec<usize> = holders.iter().copied()
                        .filter(|c| matches!(s.l1_state(*c, a), Some(Mesi::Modified | Mesi::Exclusive)))
                        .collect();
                    if !exclusive.is_empty() {
                        prop_assert_eq!(holders.len(), 1,
                            "line {:#x}: exclusive holder with other copies", a);
                    }
                }
                now += 1;
            }
        }

        /// `clear_speculative` visits only the recorded lines; its count and
        /// its effect must equal a sweep over every resident way, whatever
        /// happened to the marked lines in between: eviction by the core's
        /// own fills (a 2-way L1), invalidation by a remote store or a
        /// local discard, a clean refill, a second mark.
        #[test]
        fn clear_speculative_equals_full_sweep(ops in proptest::collection::vec(
            (0u8..6, 0usize..2, 0u64..12), 1..300))
        {
            let mut cfg = MachineConfig::small_test();
            cfg.l1.capacity_bytes = 256; // 2 sets x 2 ways: constant eviction
            cfg.l1.ways = 2;
            let mut s = MemorySystem::new(&cfg);
            let marked = |s: &mut MemorySystem, core: usize| {
                s.l1s[core].metas_mut().filter(|m| m.speculative).count() as u64
            };
            for (now, (op, core, l)) in ops.into_iter().enumerate() {
                let addr = l * 64;
                match op {
                    0 => { s.fill(now as u64, core, addr, AccessKind::Load); }
                    1 => { s.fill(now as u64, core, addr, AccessKind::Store); }
                    2 | 3 => { s.mark_speculative(core, addr); }
                    4 => s.invalidate_local(core, addr),
                    _ => {
                        let want = marked(&mut s, core);
                        prop_assert_eq!(s.clear_speculative(core), want);
                        prop_assert_eq!(marked(&mut s, core), 0, "a mark survived the clear");
                    }
                }
            }
            for core in 0..2 {
                let want = marked(&mut s, core);
                prop_assert_eq!(s.clear_speculative(core), want);
                prop_assert_eq!(marked(&mut s, core), 0);
            }
        }

        /// Latency sanity: hits are exactly the L1 latency; fills are
        /// always strictly larger.
        #[test]
        fn latency_ordering(ops in proptest::collection::vec((0usize..4, 0u64..16), 1..100)) {
            let mut s = MemorySystem::new(&MachineConfig::small_test());
            let mut now = 0u64;
            for (core, l) in ops {
                let addr = l * 64;
                if s.has_permission(core, addr, AccessKind::Load) {
                    prop_assert_eq!(s.access_hit(core, addr, AccessKind::Load), 1);
                } else {
                    let f = s.fill(now, core, addr, AccessKind::Load);
                    prop_assert!(f.latency > 1);
                }
                now += 7;
            }
        }
    }
}
