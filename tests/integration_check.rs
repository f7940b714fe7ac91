//! Checker-subsystem integration: the STAMP suite under full runtime
//! checking, the offline oracles over real traces, and seeded-bug tests
//! proving each checker actually catches the corruption it exists for.
#![allow(clippy::disallowed_methods, reason = "times the host, never the simulation")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use suv::coherence::{AccessKind, MemorySystem};
use suv::core::SuvVm;
use suv::htm::logtm::LogTmSe;
use suv::htm::machine::{Access, HtmMachine};
use suv::htm::vm::{LoadTarget, StoreTarget, VersionManager, VmEnv};
use suv::mem::Memory;
use suv::prelude::*;
use suv::stamp::WORKLOAD_NAMES;
use suv::types::{Addr, CoreId, Cycle};

/// The four schemes the checker matrix runs end to end (the remaining
/// two get a spot check — their version-management halves are reused from
/// these four).
const CHECKED_SCHEMES: [SchemeKind; 4] =
    [SchemeKind::LogTmSe, SchemeKind::FasTm, SchemeKind::SuvTm, SchemeKind::DynTm];

fn cfg_with(check: CheckLevel) -> MachineConfig {
    let mut cfg = MachineConfig::small_test();
    cfg.check = check;
    cfg
}

/// Run `app` under `scheme` at the given check level, traced, and put the
/// trace through the offline serializability oracle.
fn run_checked(app: &str, scheme: SchemeKind, check: CheckLevel) -> RunResult {
    let mut w = by_name(app, SuiteScale::Tiny).expect("known app");
    let r = run_workload_traced(&cfg_with(check), scheme, w.as_mut(), Some(TraceConfig::default()));
    let out = r.trace.as_ref().expect("traced run");
    let s = suv_check::check_trace(out);
    assert!(s.ok(), "{app}/{scheme:?}: serializability violated: {:?}", s.violations());
    assert_eq!(
        s.committed as u64, r.stats.tx.commits,
        "{app}/{scheme:?}: oracle and machine disagree on commit count"
    );
    assert_eq!(
        s.aborted as u64, r.stats.tx.aborts,
        "{app}/{scheme:?}: oracle and machine disagree on abort count"
    );
    r
}

#[test]
fn stamp_suite_clean_under_full_check() {
    // Every STAMP application, under every checked scheme, with every
    // runtime checker armed (shadow isolation oracle, MESI assertions,
    // redirect-table audits) and the offline serializability oracle over
    // the recorded trace: zero violations. Workload `verify` panics on
    // functional corruption independently.
    for app in WORKLOAD_NAMES {
        for scheme in CHECKED_SCHEMES {
            let r = run_checked(app, scheme, CheckLevel::Full);
            assert!(r.stats.tx.commits > 0, "{app}/{scheme:?}: no commits");
        }
    }
}

#[test]
fn remaining_schemes_spot_checked_under_full() {
    for app in ["intruder", "vacation"] {
        for scheme in [SchemeKind::Lazy, SchemeKind::DynTmSuv] {
            run_checked(app, scheme, CheckLevel::Full);
        }
    }
}

#[test]
fn live_set_audit_is_clean_on_the_wide_and_software_paths() {
    // `CheckLevel::Full` cross-checks every indexed signature search
    // against the all-cores scan and audits INV-14 and INV-15 at each
    // transaction boundary. The STAMP matrix above exercises that on 4
    // cores; these two cells add a spilled (two-word) live set and
    // signature index with the banked redirect table — 66 cores: just
    // past the word boundary, since the Full-level sweeps cost O(cores)
    // per transaction — and the software tier's own active-core set.
    // CI's `checked-run` job runs 128-core cells in a release build.
    let mut cfg = MachineConfig { n_cores: 66, check: CheckLevel::Full, ..Default::default() };
    let mut w = by_name("oltp", SuiteScale::Tiny).expect("known app");
    let r = run_workload(&cfg, SchemeKind::DynTmSuv, w.as_mut());
    assert!(r.stats.tx.commits > 0 && r.stats.tx.aborts > 0, "the cell must contend");

    cfg.n_cores = 8;
    cfg.robust.fallback = FallbackMode::Stm;
    cfg.robust.faults = Some(parse_fault_spec("seed=7,overflow=25").expect("valid spec"));
    let mut w = by_name("oltp-storm", SuiteScale::Tiny).expect("known app");
    let r = run_workload(&cfg, SchemeKind::DynTmSuv, w.as_mut());
    assert!(r.stats.tx.sw_commits > 0, "the software tier must run");
}

#[test]
fn checking_never_perturbs_the_simulation() {
    // The oracles observe; they must not change a single simulated cycle.
    // Identical runs at Off and Full must produce identical results.
    for scheme in CHECKED_SCHEMES {
        let mut w_off = by_name("genome", SuiteScale::Tiny).expect("known app");
        let t0 = Instant::now();
        let off = run_workload(&cfg_with(CheckLevel::Off), scheme, w_off.as_mut());
        let t_off = t0.elapsed();

        let mut w_full = by_name("genome", SuiteScale::Tiny).expect("known app");
        let t1 = Instant::now();
        let full = run_workload(&cfg_with(CheckLevel::Full), scheme, w_full.as_mut());
        let t_full = t1.elapsed();

        assert_eq!(off.stats.cycles, full.stats.cycles, "{scheme:?}: checkers changed timing");
        assert_eq!(off.stats.tx.commits, full.stats.tx.commits);
        assert_eq!(off.stats.tx.aborts, full.stats.tx.aborts);
        // Checker overhead is host wall-time only; record it in the test
        // output (run with --nocapture to see it).
        println!(
            "genome/{scheme:?}: check=off {t_off:?}, check=full {t_full:?} ({:.2}x wall-time)",
            t_full.as_secs_f64() / t_off.as_secs_f64().max(1e-9)
        );
    }
}

#[test]
fn mesi_reachability_fixpoint_is_clean() {
    let m = suv_check::check_mesi_reachability();
    assert!(m.ok(), "violations: {:?}", m.violations);
    println!("MESI reachability: {} states, {} transitions", m.states_explored, m.transitions);
}

#[test]
fn partial_nesting_is_clean_under_full_check() {
    // STAMP never nests, so exercise the shadow oracle's level stack
    // explicitly: outer write, inner overwrite + fresh write, partial
    // abort, then commit — no false isolation alarms allowed.
    for scheme in [SchemeKind::LogTmSe, SchemeKind::SuvTm] {
        let cfg = cfg_with(CheckLevel::Full);
        let mut m = HtmMachine::new(&cfg, suv::sim::build_vm(scheme, &cfg));
        m.poke(0x100, 1);
        m.poke(0x140, 2);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        t += done(m.tx_store(t, 0, 0x100, 10));
        t += m.begin_tx(t, 0, TxSite(2));
        t += done(m.tx_store(t, 0, 0x100, 20));
        t += done(m.tx_store(t, 0, 0x140, 21));
        t += m.abort_nested(t, 0).expect("partial abort supported");
        assert_eq!(load(&mut m, t, 0x100), 10, "{scheme:?}: outer speculative value");
        assert_eq!(load(&mut m, t, 0x140), 2, "{scheme:?}: inner write rolled back");
        m.commit_tx(t + 10, 0);
        assert_eq!(m.peek(0x100), 10);
        assert_eq!(m.peek(0x140), 2);
    }
}

fn done(a: Access) -> u64 {
    match a {
        Access::Done { latency, .. } => latency,
        other => panic!("expected Done, got {other:?}"),
    }
}

fn load(m: &mut HtmMachine<suv::sim::Vm>, t: Cycle, addr: Addr) -> u64 {
    match m.tx_load(t, 0, addr) {
        Access::Done { value, .. } => value,
        other => panic!("expected Done, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Seeded bugs: each checker must catch the corruption it exists for.
// ---------------------------------------------------------------------

/// A deliberately broken LogTM-SE: abort discards the undo log *without*
/// walking it, leaving the transaction's in-place writes visible — the
/// classic version-management bug the shadow oracle (INV-9) exists for.
#[derive(Clone)]
struct NoUndoLogTm(LogTmSe);

impl VersionManager for NoUndoLogTm {
    fn kind(&self) -> SchemeKind {
        self.0.kind()
    }
    fn begin(&mut self, env: &mut VmEnv, core: CoreId, lazy: bool) -> Cycle {
        self.0.begin(env, core, lazy)
    }
    fn resolve_load(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        in_tx: bool,
    ) -> (LoadTarget, Cycle) {
        self.0.resolve_load(env, core, addr, in_tx)
    }
    fn prepare_store(
        &mut self,
        env: &mut VmEnv,
        core: CoreId,
        addr: Addr,
        value: u64,
        in_tx: bool,
    ) -> (StoreTarget, Cycle) {
        self.0.prepare_store(env, core, addr, value, in_tx)
    }
    fn commit(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        self.0.commit(env, core)
    }
    fn abort(&mut self, env: &mut VmEnv, core: CoreId) -> Cycle {
        // BUG (seeded): reset the log as if committing — the undo walk
        // that should restore pre-transaction values never happens.
        self.0.commit(env, core)
    }
}

#[test]
fn shadow_oracle_catches_skipped_undo_walk() {
    fn drive<V: VersionManager>(cfg: &MachineConfig, vm: V) -> u64 {
        let mut m = HtmMachine::new(cfg, vm);
        m.poke(0x100, 7);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        t += done(m.tx_store(t, 0, 0x100, 99));
        t += m.abort_tx(t, 0);
        // After a (supposed) rollback the pre-transaction value must be
        // back; the shadow oracle panics when the machine diverges.
        match m.nontx_load(t, 0, 0x100) {
            Access::Done { value, .. } => value,
            other => panic!("expected Done, got {other:?}"),
        }
    }
    let cfg = cfg_with(CheckLevel::Full);

    // Control: the real LogTM-SE rolls back and reads 7.
    let n = cfg.n_cores;
    assert_eq!(drive(&cfg, LogTmSe::new(n, 0)), 7);

    // Seeded bug: the shadow oracle must panic with an INV-9 report.
    let result = catch_unwind(AssertUnwindSafe(|| drive(&cfg, NoUndoLogTm(LogTmSe::new(n, 0)))));
    let panic_msg = match result {
        Ok(v) => panic!("corrupted abort went undetected (read {v})"),
        Err(e) => e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(std::string::ToString::to_string))
            .unwrap_or_default(),
    };
    assert!(panic_msg.contains("INV-9"), "unexpected panic: {panic_msg}");
}

#[test]
fn coherence_audit_catches_dropped_sharer_bit() {
    let mut sys = MemorySystem::new(&MachineConfig::small_test());
    sys.fill(0, 0, 0x1000, AccessKind::Load);
    sys.fill(10, 1, 0x1000, AccessKind::Load);
    assert!(sys.check_invariants().is_ok(), "two clean sharers are legal");
    // Seeded bug: the directory silently forgets core 1's copy.
    sys.inject_drop_sharer(0x1000, 1);
    let err = sys.check_invariants().expect_err("dropped bit must be caught");
    assert!(err.contains("INV-3"), "unexpected report: {err}");
}

#[test]
fn redirect_audit_catches_forgotten_tx_entry() {
    let cfg = MachineConfig::small_test();
    let mut vm = SuvVm::new(cfg.n_cores, &cfg.suv, 0);
    let mut mem = Memory::new();
    let mut sys = MemorySystem::new(&cfg);
    let mut tracer = Tracer::disabled();
    let mut env = VmEnv { mem: &mut mem, sys: &mut sys, now: 0, tracer: &mut tracer };
    vm.begin(&mut env, 0, false);
    vm.prepare_store(&mut env, 0, 0x2000, 5, true);
    assert!(vm.check_invariants().is_ok(), "a live redirection is legal");
    // Seeded bug: the entry set forgets the line while its transient lives.
    vm.inject_forget_tx_entry(0, 0x2000);
    let err = vm.check_invariants().expect_err("orphan transient must be caught");
    assert!(err.contains("INV-6"), "unexpected report: {err}");
}

#[test]
fn serializability_oracle_catches_seeded_cycle() {
    use suv::trace::TraceEvent as E;
    let rec = |t: u64, core: usize, ev: E| suv::trace::TraceRecord { t, core, ev };
    // Write skew committed by a broken machine: r0(A) r1(B) w0(B) w1(A).
    let trace = vec![
        rec(0, 0, E::TxBegin { site: 0, lazy: false }),
        rec(0, 1, E::TxBegin { site: 1, lazy: false }),
        rec(1, 0, E::TxRead { line: 0xA00 }),
        rec(2, 1, E::TxRead { line: 0xB00 }),
        rec(3, 0, E::TxWrite { line: 0xB00 }),
        rec(4, 1, E::TxWrite { line: 0xA00 }),
        rec(5, 0, E::TxCommit { window: 1, committing: 0 }),
        rec(6, 1, E::TxCommit { window: 1, committing: 0 }),
    ];
    let s = suv_check::check_serializability(&trace);
    assert!(!s.ok(), "the seeded cycle must be reported");
    assert!(s.violations().iter().any(|v| v.contains("INV-11")));
}
