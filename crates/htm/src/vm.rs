//! The version-manager interface.
//!
//! A [`VersionManager`] decides *where* transactional data lives and *what
//! it costs* to get there: it resolves load/store targets (identity for
//! in-place schemes, pool addresses for SUV, buffer hits for lazy schemes),
//! performs its bookkeeping (undo logging, redirect-entry management, write
//! buffering) against the functional memory, and implements commit/abort.
//!
//! Conflict detection, signatures, NACK policy and statistics plumbing are
//! *not* the version manager's business — the
//! [`HtmMachine`](crate::machine::HtmMachine) handles those uniformly so
//! the schemes differ only in the dimension the paper studies.

use suv_coherence::{L1Evict, MemorySystem};
use suv_mem::Memory;
use suv_trace::Tracer;
use suv_types::{Addr, CoreId, Cycle, RedirectStats, SchemeKind, TxSite};

/// Mutable view of the machine a version manager operates through.
pub struct VmEnv<'a> {
    /// Functional memory (real data values).
    pub mem: &'a mut Memory,
    /// Timing model (caches, directory, NoC, memory banks).
    pub sys: &'a mut MemorySystem,
    /// Current simulated time of the acting core.
    pub now: Cycle,
    /// Event sink; a disabled tracer costs one predictable branch per
    /// emission, so version managers emit unconditionally except where
    /// computing the payload itself is expensive (gate those on
    /// [`Tracer::on`]).
    pub tracer: &'a mut Tracer,
}

/// Where a load's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTarget {
    /// Read memory at this (possibly redirected) word address. This is the
    /// *functional* location only: the machine charges coherence and
    /// caching on the original address (SUV issues GETS/GETM on the
    /// original block and merely lands the data elsewhere).
    Mem(Addr),
    /// The value comes straight from a private buffer (lazy write buffer
    /// hit); only an L1-latency charge applies.
    Value(u64),
}

/// Where a store's data goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTarget {
    /// Write memory at this (possibly redirected) word address — the
    /// functional location only; coherence is charged on the original
    /// address (see [`LoadTarget::Mem`]).
    Mem(Addr),
    /// The version manager consumed the value into a private buffer; the
    /// machine charges only an L1 access and skips the memory write.
    Buffered,
    /// The version manager ran out of capacity (redirect pool dry, undo
    /// log full, write buffer full) and performed *no* bookkeeping for
    /// this store. The machine must abort the transaction; retrying it
    /// climbs the escalation ladder (backoff, then irrevocable mode).
    Overflow,
}

/// One step of closed nesting with partial abort, on the core's innermost
/// level (see [`VersionManager::level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOp {
    /// A nested level begins: push a rollback watermark.
    Begin,
    /// The innermost level commits: merge its tracking into the parent.
    Commit,
    /// Partially abort the innermost level: restore only the data that
    /// level wrote.
    Abort,
}

/// A pluggable version-management scheme.
///
/// One instance manages *all* cores (SUV's second-level redirect table is
/// shared chip-wide), with per-core internal state keyed by `CoreId`. The
/// scheme set is closed and the machine generic over it, so every scheme
/// call is static: `Clone` (forking the machine forks its scheme) makes
/// `dyn VersionManager` a compile error.
pub trait VersionManager: Clone + Send {
    /// Which scheme this is (for reporting).
    fn kind(&self) -> SchemeKind;

    /// Decide the execution mode for a transaction about to begin at
    /// `site`. `true` = lazy conflict detection: always under Lazy(TCC),
    /// by prediction under DynTM; the default is eager. The machine counts
    /// the lazy begins (`HtmMachine::lazy_txns`).
    fn choose_mode(&mut self, _core: CoreId, _site: TxSite) -> bool {
        false
    }

    /// Outermost transaction begin. Returns extra begin latency on top of
    /// the framework's checkpoint cost.
    fn begin(&mut self, env: &mut VmEnv, core: CoreId, lazy: bool) -> Cycle;

    /// Resolve the target of a load of `addr` and return any extra
    /// resolution latency (e.g. SUV redirect-table lookups). Called for
    /// both transactional (`in_tx`) and non-transactional accesses (strong
    /// isolation puts the lookup on every path).
    fn resolve_load(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        in_tx: bool,
    ) -> (LoadTarget, Cycle);

    /// Perform version-management bookkeeping for a store of `value` to
    /// `addr` and return the target plus extra latency. For transactional
    /// stores this is where undo logging / redirect-entry insertion / write
    /// buffering happens; the machine performs the actual functional write
    /// for `StoreTarget::Mem` targets *after* this returns.
    fn prepare_store(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        value: u64,
        in_tx: bool,
    ) -> (StoreTarget, Cycle);

    /// Commit the core's transaction: make its updates globally visible
    /// (for lazy schemes this is the merge). Returns the commit duration;
    /// the machine keeps the isolation window open for that long.
    fn commit(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle;

    /// Abort the core's transaction: restore pre-transactional state.
    /// Returns the abort duration (the *repair* time); the machine keeps
    /// the isolation window open for that long.
    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle;

    /// Notification that a fill on behalf of `core` evicted an L1 line.
    /// FasTM uses the speculative mark to detect overflow/degeneration.
    fn on_eviction(&mut self, _core: CoreId, _ev: &L1Evict) {}

    /// Report and reset the per-transaction redirect-table overflow flags:
    /// `(overflowed first-level table, overflowed into memory)`. Called by
    /// the machine when a transaction ends.
    fn take_rt_overflow(&mut self, _core: CoreId) -> (bool, bool) {
        (false, false)
    }

    /// Does this version manager support per-level rollback (closed
    /// nesting with partial abort)? When `false`, the machine flattens
    /// nested transactions into the outermost one.
    fn supports_partial_abort(&self) -> bool {
        false
    }

    /// Apply one nesting step and return its extra latency: the
    /// stacked-frame save, the merge, or the rollback duration. Called only
    /// when [`Self::supports_partial_abort`] holds; one exhaustive `match`
    /// implements all three steps or none.
    fn level(&mut self, _env: &mut VmEnv, _core: CoreId, _op: LevelOp) -> Cycle {
        unreachable!("level called on a VM without partial-abort support")
    }

    /// Predictor feedback (DynTM): the transaction at `site` finished.
    fn tx_finished(&mut self, _core: CoreId, _site: TxSite, _committed: bool) {}

    /// The machine switched `core` into (or out of) irrevocable serialized
    /// mode. An irrevocable transaction is guaranteed to commit, so the VM
    /// may bypass its capacity limits — and must never return
    /// [`StoreTarget::Overflow`] — while the flag is set. The default
    /// (capacity-unlimited VMs) ignores it.
    fn set_irrevocable(&mut self, _core: CoreId, _on: bool) {}

    /// Redirect-table statistics (SUV; zero elsewhere).
    fn redirect_stats(&self) -> RedirectStats {
        RedirectStats::default()
    }

    /// Audit the version manager's own data structures for internal
    /// consistency (SUV's redirect-table invariants INV-5..INV-8 in
    /// DESIGN.md). Called by the machine at every transaction boundary
    /// when `CheckLevel >= Cheap`; never charged simulated cycles. The
    /// default has nothing to check.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_types::MachineConfig;

    /// A trivial in-place VM used to exercise the trait's defaults.
    #[derive(Clone)]
    struct Nop;
    impl VersionManager for Nop {
        fn kind(&self) -> SchemeKind {
            SchemeKind::LogTmSe
        }
        fn begin(&mut self, _: &mut VmEnv, _: CoreId, _: bool) -> Cycle {
            0
        }
        fn resolve_load(
            &mut self,
            _: &mut VmEnv,
            _: CoreId,
            addr: Addr,
            _: bool,
        ) -> (LoadTarget, Cycle) {
            (LoadTarget::Mem(addr), 0)
        }
        fn prepare_store(
            &mut self,
            _: &mut VmEnv,
            _: CoreId,
            addr: Addr,
            _: u64,
            _: bool,
        ) -> (StoreTarget, Cycle) {
            (StoreTarget::Mem(addr), 0)
        }
        fn commit(&mut self, _: &mut VmEnv, _: CoreId) -> Cycle {
            0
        }
        fn abort(&mut self, _: &mut VmEnv, _: CoreId) -> Cycle {
            0
        }
    }

    #[test]
    fn trait_defaults() {
        let mut vm = Nop;
        assert!(!vm.choose_mode(0, TxSite(1)));
        assert!(!vm.supports_partial_abort(), "`level` is never called on it");
        assert_eq!(vm.take_rt_overflow(0), (false, false));
        assert_eq!(vm.redirect_stats(), RedirectStats::default());
        vm.set_irrevocable(0, true); // default is a no-op
        vm.set_irrevocable(0, false);
        let mut mem = Memory::new();
        let mut sys = MemorySystem::new(&MachineConfig::small_test());
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        assert_eq!(vm.begin(&mut env, 0, false), 0);
        assert_eq!(vm.resolve_load(&mut env, 0, 0x40, true), (LoadTarget::Mem(0x40), 0));
    }
}
