//! The closed world of version managers: the [`Vm`] enum and its factory.
//! It lives in the lowest crate that sees all six schemes (`suv-core`
//! depends on `suv-htm` for the trait), under a machine that is generic, so
//! `HtmMachine<Vm>` is monomorphised here, next to the engine that drives
//! it, and every scheme call is a `match` (DESIGN.md §13.6).

use suv_coherence::L1Evict;
use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::vm::{LevelOp, LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use suv_types::{Addr, CoreId, Cycle, MachineConfig, RedirectStats, SchemeKind, TxSite};

/// The version manager of a machine: one variant per [`SchemeKind`], named
/// after the scheme it holds.
#[derive(Clone)]
pub enum Vm {
    LogTm(LogTmSe),
    FasTm(FasTm),
    Suv(SuvVm),
    /// The pure TCC-like ablation baseline: every transaction runs lazy.
    Lazy(LazyVm),
    DynTm(DynTm<FasTm>),
    DynTmSuv(DynTm<SuvVm>),
}

/// Run `$call` on the scheme inside `$vm`, whichever it is.
macro_rules! on_scheme {
    ($vm:expr, $v:ident => $call:expr) => {
        match $vm {
            Vm::LogTm($v) => $call,
            Vm::FasTm($v) => $call,
            Vm::Suv($v) => $call,
            Vm::Lazy($v) => $call,
            Vm::DynTm($v) => $call,
            Vm::DynTmSuv($v) => $call,
        }
    };
}

/// Define the listed trait methods (`ref`: taking `&self`, `mut`: taking
/// `&mut self`) as the same call on the scheme inside.
macro_rules! forward {
    (ref { $(fn $r:ident($($ra:ident: $rt:ty),*) -> $rr:ty;)* }
     mut { $(fn $m:ident($($ma:ident: $mt:ty),*) $(-> $mr:ty)?;)* }) => {
        $(#[inline]
        fn $r(&self, $($ra: $rt),*) -> $rr {
            on_scheme!(self, v => v.$r($($ra),*))
        })*
        $(#[inline]
        fn $m(&mut self, $($ma: $mt),*) $(-> $mr)? {
            on_scheme!(self, v => v.$m($($ma),*))
        })*
    };
}

/// Every method of the trait is spelled out (clippy denies a missing one):
/// an inherited default here would switch a scheme's own override off
/// without a compile error.
#[deny(clippy::missing_trait_methods)]
impl VersionManager for Vm {
    forward! {
        ref {
            fn kind() -> SchemeKind;
            fn supports_partial_abort() -> bool;
            fn committed_location(addr: Addr) -> Addr;
            fn redirect_stats() -> RedirectStats;
            fn check_invariants() -> Result<(), String>;
        }
        mut {
            fn choose_mode(core: CoreId, site: TxSite) -> bool;
            fn begin(env: &mut VmEnv, core: CoreId, lazy: bool) -> Cycle;
            fn resolve_load(env: &mut VmEnv, core: CoreId, addr: Addr, in_tx: bool)
                -> (LoadTarget, Cycle);
            fn prepare_store(env: &mut VmEnv, core: CoreId, addr: Addr, value: u64, mode: StoreMode)
                -> (StoreTarget, Cycle);
            fn commit(env: &mut VmEnv, core: CoreId) -> Cycle;
            fn abort(env: &mut VmEnv, core: CoreId) -> Cycle;
            fn on_eviction(core: CoreId, ev: &L1Evict);
            fn take_rt_overflow(core: CoreId) -> (bool, bool);
            fn level(env: &mut VmEnv, core: CoreId, op: LevelOp) -> Cycle;
            fn tx_finished(core: CoreId, site: TxSite, committed: bool);
        }
    }
}

/// Build the version manager implementing `scheme` for the configured
/// machine.
pub fn build_vm(scheme: SchemeKind, cfg: &MachineConfig) -> Vm {
    let n = cfg.n_cores;
    // Capacity clamps come from an installed fault spec's `pool=` / `log=`
    // / `wb=` (0 = unbounded, the default — healthy runs are unaffected).
    let spec = cfg.robust.faults.unwrap_or_default();
    let (pool_pages, log_bytes) = (spec.pool_pages, spec.log_bytes);
    let buf_lines = spec.write_buffer_lines as usize;
    match scheme {
        SchemeKind::LogTmSe => Vm::LogTm(LogTmSe::new(n, log_bytes)),
        SchemeKind::FasTm => Vm::FasTm(FasTm::new(n, log_bytes)),
        SchemeKind::SuvTm => Vm::Suv(SuvVm::new(n, &cfg.suv, pool_pages)),
        SchemeKind::Lazy => Vm::Lazy(LazyVm::new(n, buf_lines)),
        SchemeKind::DynTm => Vm::DynTm(DynTm::original(FasTm::new(n, log_bytes), n, buf_lines)),
        SchemeKind::DynTmSuv => {
            Vm::DynTmSuv(DynTm::with_suv(SuvVm::new(n, &cfg.suv, pool_pages), n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_scheme() {
        let cfg = MachineConfig::small_test();
        for k in SchemeKind::ALL {
            let vm = build_vm(k, &cfg);
            assert_eq!(vm.kind(), k);
        }
    }
}
