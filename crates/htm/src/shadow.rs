//! Shadow-memory isolation oracle (`CheckLevel::Full`).
//!
//! The oracle maintains a version-manager-independent model of what every
//! load *must* observe: a map of committed word values plus, per core, a
//! stack of pending-write frames mirroring the machine's nesting frames
//! exactly (one frame per outermost transaction, one more per
//! partial-abort nesting level). A transactional load must see its own
//! pending writes newest-frame-first, then the committed state; a
//! non-transactional load must see only committed state (strong
//! isolation — INV-9 in DESIGN.md). Because the model is maintained from
//! the machine's *logical* operations and never consults the version
//! manager, any scheme that loses, leaks or exposes a speculative value
//! diverges from it and is caught at the first wrong load.
//!
//! Known blind spot: partial aborts (`abort_nested`) emit no trace
//! events, so the *offline* serializability oracle in `suv-check` cannot
//! see them — this runtime oracle can, which is why both exist.

use suv_types::{word_of, Addr, CoreId, WordMap};

/// The shadow model. All addresses are normalized to word addresses.
#[derive(Debug, Clone)]
pub struct ShadowOracle {
    /// Committed word values; absent words are 0, matching the sparse
    /// functional [`suv_mem::Memory`].
    committed: WordMap<u64>,
    /// Per-core pending-write frames, innermost last. Empty = not in a
    /// transaction.
    // nested-vec-ok: the Full-check oracle's per-core stack of nesting levels
    frames: Vec<Vec<WordMap<u64>>>,
}

impl ShadowOracle {
    /// Fresh oracle for `n_cores` cores over an all-zero memory.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        ShadowOracle { committed: WordMap::default(), frames: vec![Vec::new(); n_cores] }
    }

    /// A non-transactional (or setup `poke`) store became visible.
    pub fn note_nontx_store(&mut self, addr: Addr, value: u64) {
        self.committed.insert(word_of(addr), value);
    }

    /// An outermost transaction began on `core`.
    pub fn begin(&mut self, core: CoreId) {
        debug_assert!(self.frames[core].is_empty(), "core {core} began while frames pending");
        self.frames[core].clear();
        self.frames[core].push(WordMap::default());
    }

    /// A partial-abort nesting level was pushed on `core`.
    pub fn push_level(&mut self, core: CoreId) {
        self.frames[core].push(WordMap::default());
    }

    /// The innermost nesting level committed into its parent.
    pub fn merge_level(&mut self, core: CoreId) {
        if let Some(top) = self.frames[core].pop() {
            if let Some(parent) = self.frames[core].last_mut() {
                parent.extend(top);
            } else {
                self.frames[core].push(top);
            }
        }
    }

    /// The innermost nesting level partially aborted.
    pub fn drop_level(&mut self, core: CoreId) {
        self.frames[core].pop();
    }

    /// `core`'s transaction stored `value` to `addr`.
    pub fn record_store(&mut self, core: CoreId, addr: Addr, value: u64) {
        if let Some(top) = self.frames[core].last_mut() {
            top.insert(word_of(addr), value);
        }
    }

    /// `core`'s transaction ended; on commit every pending frame becomes
    /// committed state (outermost first), on abort all of it is discarded.
    pub fn finish(&mut self, core: CoreId, committed: bool) {
        let frames = std::mem::take(&mut self.frames[core]);
        if committed {
            for frame in frames {
                self.committed.extend(frame);
            }
        }
    }

    /// What `core` must observe when loading `addr` transactionally.
    #[must_use]
    pub fn expected_tx(&self, core: CoreId, addr: Addr) -> u64 {
        let w = word_of(addr);
        for frame in self.frames[core].iter().rev() {
            if let Some(v) = frame.get(&w) {
                return *v;
            }
        }
        self.committed.get(&w).copied().unwrap_or(0)
    }

    /// What a non-transactional load of `addr` must observe.
    #[must_use]
    pub fn expected_nontx(&self, addr: Addr) -> u64 {
        self.committed.get(&word_of(addr)).copied().unwrap_or(0)
    }

    /// Validate a transactional load result.
    pub fn check_tx_load(&self, core: CoreId, addr: Addr, value: u64) -> Result<(), String> {
        let want = self.expected_tx(core, addr);
        if value == want {
            Ok(())
        } else {
            Err(format!(
                "INV-9 core {core} tx load {addr:#x}: observed {value}, shadow expects {want}"
            ))
        }
    }

    /// Validate a non-transactional load result (strong isolation).
    pub fn check_nontx_load(&self, core: CoreId, addr: Addr, value: u64) -> Result<(), String> {
        let want = self.expected_nontx(addr);
        if value == want {
            Ok(())
        } else {
            Err(format!(
                "INV-9 core {core} non-tx load {addr:#x}: observed {value}, \
                 shadow expects committed {want}"
            ))
        }
    }

    /// True when no core has pending speculative writes (safe to compare
    /// `peek` results against committed state).
    pub fn quiescent(&self) -> bool {
        self.frames.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_and_pending_views() {
        let mut s = ShadowOracle::new(2);
        s.note_nontx_store(0x100, 7);
        assert_eq!(s.expected_nontx(0x100), 7);
        s.begin(0);
        s.record_store(0, 0x100, 8);
        // Own pending write visible transactionally, invisible outside.
        assert_eq!(s.expected_tx(0, 0x100), 8);
        assert_eq!(s.expected_tx(1, 0x100), 7);
        assert_eq!(s.expected_nontx(0x100), 7);
        assert!(!s.quiescent());
        s.finish(0, true);
        assert_eq!(s.expected_nontx(0x100), 8);
        assert!(s.quiescent());
    }

    #[test]
    fn abort_discards_pending() {
        let mut s = ShadowOracle::new(1);
        s.begin(0);
        s.record_store(0, 0x40, 1);
        s.finish(0, false);
        assert_eq!(s.expected_nontx(0x40), 0);
        assert!(s.quiescent());
    }

    #[test]
    fn nesting_levels_merge_and_drop() {
        let mut s = ShadowOracle::new(1);
        s.begin(0);
        s.record_store(0, 0x40, 1);
        s.push_level(0);
        s.record_store(0, 0x40, 2);
        s.record_store(0, 0x80, 3);
        assert_eq!(s.expected_tx(0, 0x40), 2);
        s.drop_level(0);
        assert_eq!(s.expected_tx(0, 0x40), 1, "outer speculative value restored");
        assert_eq!(s.expected_tx(0, 0x80), 0, "inner-only write rolled back");
        s.push_level(0);
        s.record_store(0, 0x80, 4);
        s.merge_level(0);
        s.finish(0, true);
        assert_eq!(s.expected_nontx(0x40), 1);
        assert_eq!(s.expected_nontx(0x80), 4);
    }

    #[test]
    fn check_reports_divergence() {
        let mut s = ShadowOracle::new(1);
        s.note_nontx_store(0x40, 5);
        assert!(s.check_nontx_load(0, 0x40, 5).is_ok());
        let err = s.check_nontx_load(0, 0x40, 6).unwrap_err();
        assert!(err.contains("INV-9"), "{err}");
        s.begin(0);
        s.record_store(0, 0x40, 9);
        assert!(s.check_tx_load(0, 0x40, 9).is_ok());
        assert!(s.check_tx_load(0, 0x40, 5).is_err());
    }
}
