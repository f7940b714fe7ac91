//! Version-manager factory.

use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::vm::VersionManager;
use suv_types::{MachineConfig, SchemeKind};

/// A lazy VM whose transactions all run in lazy mode (the pure TCC-like
/// ablation baseline).
struct AlwaysLazy(LazyVm, u64);

impl VersionManager for AlwaysLazy {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Lazy
    }
    fn choose_mode(&mut self, _core: usize, _site: suv_types::TxSite) -> bool {
        self.1 += 1;
        true
    }
    fn begin(&mut self, env: &mut suv_htm::vm::VmEnv, core: usize, lazy: bool) -> suv_types::Cycle {
        self.0.begin(env, core, lazy)
    }
    fn resolve_load(
        &mut self,
        env: &mut suv_htm::vm::VmEnv,
        core: usize,
        addr: u64,
        in_tx: bool,
    ) -> (suv_htm::vm::LoadTarget, suv_types::Cycle) {
        self.0.resolve_load(env, core, addr, in_tx)
    }
    fn prepare_store(
        &mut self,
        env: &mut suv_htm::vm::VmEnv,
        core: usize,
        addr: u64,
        value: u64,
        in_tx: bool,
    ) -> (suv_htm::vm::StoreTarget, suv_types::Cycle) {
        self.0.prepare_store(env, core, addr, value, in_tx)
    }
    fn commit(&mut self, env: &mut suv_htm::vm::VmEnv, core: usize) -> suv_types::Cycle {
        self.0.commit(env, core)
    }
    fn abort(&mut self, env: &mut suv_htm::vm::VmEnv, core: usize) -> suv_types::Cycle {
        self.0.abort(env, core)
    }
    fn set_irrevocable(&mut self, core: usize, on: bool) {
        self.0.set_irrevocable(core, on);
    }
    fn lazy_tx_count(&self) -> u64 {
        self.1
    }
}

/// Build the version manager implementing `scheme` for the configured
/// machine.
pub fn build_vm(scheme: SchemeKind, cfg: &MachineConfig) -> Box<dyn VersionManager> {
    let n = cfg.n_cores;
    // Capacity clamps from the robustness config (0 = unbounded, the
    // default — healthy runs are unaffected).
    let pool_pages = cfg.robust.pool_pages;
    let log_bytes = cfg.robust.log_bytes;
    let buf_lines = cfg.robust.write_buffer_lines as usize;
    match scheme {
        SchemeKind::LogTmSe => Box::new(LogTmSe::with_log_bytes(n, cfg.htm, log_bytes)),
        SchemeKind::FasTm => Box::new(FasTm::with_log_bytes(n, cfg.htm, log_bytes)),
        SchemeKind::SuvTm => Box::new(SuvVm::with_pool_pages(n, &cfg.suv, pool_pages)),
        SchemeKind::Lazy => Box::new(AlwaysLazy(LazyVm::with_buffer_lines(n, buf_lines), 0)),
        SchemeKind::DynTm => Box::new(DynTm::original_with_buffer(
            FasTm::with_log_bytes(n, cfg.htm, log_bytes),
            n,
            &cfg.dyntm,
            buf_lines,
        )),
        SchemeKind::DynTmSuv => Box::new(DynTm::with_suv(
            SuvVm::with_pool_pages(n, &cfg.suv, pool_pages),
            n,
            &cfg.dyntm,
        )),
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
