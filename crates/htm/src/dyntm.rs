//! DynTM: dynamically adaptable HTM (Lupon et al., MICRO'10).
//!
//! A history-based selector predicts, per static transaction site, whether
//! the next execution is likely to abort. Likely-aborting transactions run
//! in *lazy* mode (buffered writes, commit-time conflicts — cheap aborts);
//! the rest run *eager* (FasTM-style — cheap commits). The paper's "D+S"
//! configuration replaces the version-management halves with SUV: because
//! SUV's redirection works identically under eager and lazy conflict
//! detection, a single SUV instance serves both modes and both commit and
//! abort become O(1) flash operations.

use crate::lazy::LazyVm;
use crate::vm::{LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use suv_coherence::L1Evict;
use suv_types::config::{LAZY_THRESHOLD, PREDICTOR_SITES};
use suv_types::{Addr, CoreId, Cycle, RedirectStats, SchemeKind, TxSite};

/// Per-site 2-bit saturating abort predictor.
#[derive(Debug, Clone)]
struct Selector {
    counters: Vec<u8>,
}

impl Selector {
    /// [`PREDICTOR_SITES`] predictor entries, all predicting eager.
    fn new() -> Self {
        Selector { counters: vec![0; PREDICTOR_SITES] }
    }

    fn idx(&self, site: TxSite) -> usize {
        site.0 as usize % self.counters.len()
    }

    /// Should a transaction at `site` run lazy?
    fn predict_lazy(&self, site: TxSite) -> bool {
        self.counters[self.idx(site)] >= LAZY_THRESHOLD
    }

    /// Record an outcome for `site`.
    fn update(&mut self, site: TxSite, committed: bool) {
        let i = self.idx(site);
        let c = &mut self.counters[i];
        if committed {
            *c = c.saturating_sub(1);
        } else {
            *c = (*c + 1).min(3);
        }
    }
}

/// DynTM composite version manager.
///
/// `eager` handles eager-mode transactions (and, when `lazy_vm` is `None`,
/// lazy-mode ones too — the D+S configuration where SUV serves both modes).
/// It is held by value: neither the machine's call into the composite nor
/// the composite's into its halves is an indirect one.
#[derive(Clone)]
pub struct DynTm<E> {
    eager: E,
    lazy_vm: Option<LazyVm>,
    selector: Selector,
    /// Current mode of each core's transaction.
    mode_lazy: Vec<bool>,
}

impl<E: VersionManager> DynTm<E> {
    /// Original DynTM: FasTM eager half + write-buffer lazy half, the
    /// buffer capped at `buffer_lines` distinct lines per transaction
    /// (0 = unbounded).
    #[must_use]
    pub fn original(eager: E, n_cores: usize, buffer_lines: usize) -> Self {
        DynTm {
            eager,
            lazy_vm: Some(LazyVm::new(n_cores, buffer_lines)),
            selector: Selector::new(),
            mode_lazy: vec![false; n_cores],
        }
    }

    /// DynTM with SUV version management in both modes ("D+S").
    #[must_use]
    pub fn with_suv(suv: E, n_cores: usize) -> Self {
        DynTm {
            eager: suv,
            lazy_vm: None,
            selector: Selector::new(),
            mode_lazy: vec![false; n_cores],
        }
    }

    fn use_lazy_vm(&self, core: CoreId, in_tx: bool) -> bool {
        in_tx && self.mode_lazy[core] && self.lazy_vm.is_some()
    }
}

impl<E: VersionManager> VersionManager for DynTm<E> {
    fn kind(&self) -> SchemeKind {
        if self.lazy_vm.is_none() {
            SchemeKind::DynTmSuv
        } else {
            SchemeKind::DynTm
        }
    }

    fn choose_mode(&mut self, core: CoreId, site: TxSite) -> bool {
        let lazy = self.selector.predict_lazy(site);
        self.mode_lazy[core] = lazy;
        lazy
    }

    fn begin(&mut self, env: &mut VmEnv, core: CoreId, lazy: bool) -> Cycle {
        self.mode_lazy[core] = lazy;
        if self.use_lazy_vm(core, true) {
            self.lazy_vm.as_mut().expect("checked").begin(env, core, lazy)
        } else {
            self.eager.begin(env, core, lazy)
        }
    }

    fn resolve_load(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        in_tx: bool,
    ) -> (LoadTarget, Cycle) {
        if self.use_lazy_vm(core, in_tx) {
            self.lazy_vm.as_mut().expect("checked").resolve_load(env, core, addr, in_tx)
        } else {
            self.eager.resolve_load(env, core, addr, in_tx)
        }
    }

    fn committed_location(&self, addr: Addr) -> Addr {
        self.eager.committed_location(addr)
    }

    fn prepare_store(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        value: u64,
        mode: StoreMode,
    ) -> (StoreTarget, Cycle) {
        if self.use_lazy_vm(core, mode != StoreMode::NonTx) {
            self.lazy_vm.as_mut().expect("checked").prepare_store(env, core, addr, value, mode)
        } else {
            self.eager.prepare_store(env, core, addr, value, mode)
        }
    }

    fn commit(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        if self.use_lazy_vm(core, true) {
            self.lazy_vm.as_mut().expect("checked").commit(env, core)
        } else {
            self.eager.commit(env, core)
        }
    }

    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        if self.use_lazy_vm(core, true) {
            self.lazy_vm.as_mut().expect("checked").abort(env, core)
        } else {
            self.eager.abort(env, core)
        }
    }

    fn on_eviction(&mut self, core: CoreId, ev: &L1Evict) {
        if !self.use_lazy_vm(core, true) {
            self.eager.on_eviction(core, ev);
        }
    }

    fn take_rt_overflow(&mut self, core: CoreId) -> (bool, bool) {
        self.eager.take_rt_overflow(core)
    }

    fn tx_finished(&mut self, core: CoreId, site: TxSite, committed: bool) {
        self.selector.update(site, committed);
        self.mode_lazy[core] = false;
        self.eager.tx_finished(core, site, committed);
    }

    fn redirect_stats(&self) -> RedirectStats {
        self.eager.redirect_stats()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.eager.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastm::FasTm;
    use suv_coherence::MemorySystem;
    use suv_mem::Memory;
    use suv_trace::Tracer;
    use suv_types::MachineConfig;

    fn dyntm() -> DynTm<FasTm> {
        let mc = MachineConfig::small_test();
        DynTm::original(FasTm::new(mc.n_cores, 0), mc.n_cores, 0)
    }

    #[test]
    fn selector_learns_from_aborts() {
        let mut s = Selector::new();
        let site = TxSite(7);
        assert!(!s.predict_lazy(site), "fresh sites start eager");
        s.update(site, false);
        s.update(site, false);
        assert!(s.predict_lazy(site), "two aborts flip to lazy");
        s.update(site, true);
        s.update(site, true);
        assert!(!s.predict_lazy(site), "commits flip back to eager");
    }

    #[test]
    fn selector_saturates() {
        let mut s = Selector::new();
        let site = TxSite(1);
        for _ in 0..10 {
            s.update(site, false);
        }
        // Three commits must be enough to leave lazy mode after any
        // number of aborts (counter saturates at 3).
        s.update(site, true);
        s.update(site, true);
        assert!(!s.predict_lazy(site));
    }

    #[test]
    fn mode_dispatch_routes_to_lazy_buffer() {
        let mut vm = dyntm();
        let mut mem = Memory::new();
        let mut sys = MemorySystem::new(&MachineConfig::small_test());
        mem.write_word(0x100, 5);
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, true); // lazy
        let (tgt, _) = vm.prepare_store(&mut env, 0, 0x100, 9, StoreMode::Tx);
        assert_eq!(tgt, StoreTarget::Buffered);
        assert_eq!(env.mem.read_word(0x100), 5);
        let (lt, _) = vm.resolve_load(&mut env, 0, 0x100, true);
        assert_eq!(lt, LoadTarget::Value(9));
    }

    #[test]
    fn eager_mode_updates_in_place() {
        let mut vm = dyntm();
        let mut mem = Memory::new();
        let mut sys = MemorySystem::new(&MachineConfig::small_test());
        let mut tr = Tracer::disabled();
        let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tr };
        vm.begin(&mut env, 0, false); // eager
        let (tgt, _) = vm.prepare_store(&mut env, 0, 0x200, 9, StoreMode::Tx);
        assert_eq!(tgt, StoreTarget::Mem(0x200));
    }

    #[test]
    fn choose_mode_counts_lazy_transactions() {
        let mc = MachineConfig::small_test();
        let mut m = crate::HtmMachine::new(&mc, dyntm());
        let site = TxSite(3);
        let mut now = 0;
        for _ in 0..2 {
            now += m.begin_tx(now, 0, site);
            now += m.abort_tx(now, 0);
        }
        assert_eq!(m.lazy_txns(), 0, "both training begins ran eager");
        m.begin_tx(now, 0, site);
        assert_eq!(m.lazy_txns(), 1, "the machine counts the begin it ran lazy");
    }

    #[test]
    fn kind_distinguishes_ds() {
        let mc = MachineConfig::small_test();
        let d = dyntm();
        assert_eq!(d.kind(), SchemeKind::DynTm);
        let ds = DynTm::with_suv(FasTm::new(mc.n_cores, 0), mc.n_cores); // stand-in inner VM
        assert_eq!(ds.kind(), SchemeKind::DynTmSuv);
    }
}
