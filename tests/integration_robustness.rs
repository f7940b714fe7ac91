//! Graceful-degradation integration tests: resource exhaustion must end in
//! the overflow → retry → irrevocable escalation ladder, never in a wedged
//! or panicking simulation; the livelock watchdog must bound retry storms;
//! and the fault injector must be bit-deterministic under a fixed seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use suv::prelude::*;
use suv::types::Addr;

const STAMP_APPS: [&str; 8] =
    ["bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"];

fn run_scaled(
    app: &str,
    scheme: SchemeKind,
    scale: SuiteScale,
    robust: RobustnessConfig,
) -> RunResult {
    let mut cfg = MachineConfig::small_test();
    cfg.robust = robust;
    let mut w = by_name(app, scale).expect("known app");
    // Workload `verify` runs inside run_workload and panics on violation,
    // so completion here means the degraded run stayed correct.
    run_workload(&cfg, scheme, w.as_mut())
}

fn run_with(app: &str, scheme: SchemeKind, robust: RobustnessConfig) -> RunResult {
    run_scaled(app, scheme, SuiteScale::Tiny, robust)
}

/// The headline acceptance criterion: every STAMP application completes —
/// and still verifies — under SUV with the version pool clamped to 4
/// pages, and the fallback machinery visibly engages across the suite.
/// Paper-scale inputs are required to pressure the pool: tiny runs never
/// hold 256 live redirect slots at once.
#[test]
fn all_stamp_apps_complete_with_a_four_page_pool() {
    let robust = RobustnessConfig { pool_pages: 4, ..Default::default() };
    let mut overflow_aborts = 0;
    let mut irrevocable_commits = 0;
    for app in STAMP_APPS {
        let r = run_scaled(app, SchemeKind::SuvTm, SuiteScale::Paper, robust);
        assert!(r.stats.tx.commits > 0, "{app}: no commits under a 4-page pool");
        overflow_aborts += r.stats.tx.overflow_aborts;
        irrevocable_commits += r.stats.tx.irrevocable_commits;
    }
    assert!(overflow_aborts > 0, "a 4-page pool must overflow somewhere in the suite");
    assert!(irrevocable_commits > 0, "pool overflow must escalate to irrevocable commits");
}

/// DynTM+SUV shares the pool-overflow path through its SUV inner manager.
#[test]
fn dyntm_suv_survives_pool_clamp() {
    let robust = RobustnessConfig { pool_pages: 4, ..Default::default() };
    let r = run_with("vacation", SchemeKind::DynTmSuv, robust);
    assert!(r.stats.tx.commits > 0);
}

/// A one-record undo log forces every multi-line writer through the
/// ladder on LogTM-SE (which logs on every first write to a line).
#[test]
fn log_clamp_escalates_to_irrevocable_on_logtm() {
    let robust = RobustnessConfig { log_bytes: 72, ..Default::default() };
    let r = run_with("kmeans", SchemeKind::LogTmSe, robust);
    assert!(r.stats.tx.commits > 0, "no commits with a clamped log");
    assert!(r.stats.tx.overflow_aborts > 0, "clamped log never overflowed");
    assert!(r.stats.tx.irrevocable_commits > 0, "ladder never escalated");
}

/// FasTM only touches its log in degenerate (overflow) mode, so a clamped
/// log is rarely exercised — but it must never break a run.
#[test]
fn log_clamp_is_harmless_on_fastm() {
    let robust = RobustnessConfig { log_bytes: 72, ..Default::default() };
    let r = run_with("kmeans", SchemeKind::FasTm, robust);
    assert!(r.stats.tx.commits > 0);
}

/// A two-line write buffer forces the lazy scheme through the same ladder
/// (vacation's transactions write well past two distinct lines).
#[test]
fn write_buffer_clamp_escalates_to_irrevocable_on_lazy() {
    let robust = RobustnessConfig { write_buffer_lines: 2, ..Default::default() };
    let r = run_with("vacation", SchemeKind::Lazy, robust);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.overflow_aborts > 0);
    assert!(r.stats.tx.irrevocable_commits > 0);
}

/// With `max_tx_aborts: 1` the abort-count watchdog fires on the first
/// retry; the run must still complete with every commit accounted for.
#[test]
fn abort_count_watchdog_escalates_and_completes() {
    let robust = RobustnessConfig { max_tx_aborts: 1, ..Default::default() };
    let r = run_with("intruder", SchemeKind::SuvTm, robust);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.aborts > 0, "intruder must see contention for this test to bite");
    assert!(r.stats.tx.watchdog_escalations > 0, "watchdog never fired at max_tx_aborts=1");
    assert!(r.stats.tx.irrevocable_commits > 0, "escalated transactions must commit");
    // Reason code 1 (abort-count) must be the attributed trigger.
    assert!(r.stats.tx.esc_abort_watchdog > 0, "escalations not attributed to reason 1");
    assert_eq!(r.stats.tx.esc_overflow, 0, "no pool pressure in this run");
}

/// The starvation watchdog (cycles since the first attempt) is the other
/// trigger; a 1-cycle budget escalates any transaction that retries.
#[test]
fn starvation_watchdog_escalates_and_completes() {
    let robust = RobustnessConfig { max_starvation_cycles: 1, ..Default::default() };
    let r = run_with("intruder", SchemeKind::SuvTm, robust);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.watchdog_escalations > 0, "starvation watchdog never fired");
    // Reason code 2 (starvation-cycles) must be the attributed trigger.
    assert!(r.stats.tx.esc_starvation > 0, "escalations not attributed to reason 2");
}

/// Watchdog thresholds of 0 disable the corresponding trigger: a run with
/// everything disabled must finish identically to the default config.
#[test]
fn disabled_watchdogs_change_nothing() {
    let defaults = run_with("kmeans", SchemeKind::SuvTm, RobustnessConfig::default());
    let disabled = RobustnessConfig {
        overflow_retries: 0,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = run_with("kmeans", SchemeKind::SuvTm, disabled);
    assert_eq!(r.stats.cycles, defaults.stats.cycles);
    assert_eq!(r.stats.tx, defaults.stats.tx);
    assert_eq!(r.stats.tx.watchdog_escalations, 0);
    assert_eq!(r.stats.tx.irrevocable_commits, 0);
}

fn faulted_run(app: &str, scheme: SchemeKind, spec: &str) -> RunResult {
    let mut cfg = MachineConfig::small_test();
    cfg.robust.faults = Some(parse_fault_spec(spec).expect("valid spec"));
    let mut w = by_name(app, SuiteScale::Tiny).expect("known app");
    run_workload_traced(&cfg, scheme, w.as_mut(), Some(TraceConfig::default()))
}

/// Same seed, same spec → the whole perturbed run is bit-identical:
/// trace hash, cycle count, and abort count all reproduce.
#[test]
fn fault_injection_is_bit_deterministic() {
    let spec = "seed=7,nack=10,delay=5:40";
    for scheme in [SchemeKind::SuvTm, SchemeKind::LogTmSe, SchemeKind::Lazy] {
        let a = faulted_run("genome", scheme, spec);
        let b = faulted_run("genome", scheme, spec);
        assert_eq!(a.trace_hash, b.trace_hash, "{scheme:?}: faulted trace hash drifted");
        assert_eq!(a.stats.cycles, b.stats.cycles, "{scheme:?}: faulted cycles drifted");
        assert_eq!(a.stats.tx, b.stats.tx, "{scheme:?}: faulted tx stats drifted");
        assert!(a.stats.tx.commits > 0, "{scheme:?}: faulted run must still complete");
    }
}

/// A different seed must steer the perturbation — with a 10% NACK rate over
/// thousands of accesses, identical results would mean the seed is ignored.
#[test]
fn fault_seed_steers_the_run() {
    let a = faulted_run("genome", SchemeKind::SuvTm, "seed=7,nack=10,delay=5:40");
    let b = faulted_run("genome", SchemeKind::SuvTm, "seed=8,nack=10,delay=5:40");
    assert_ne!(
        (a.trace_hash, a.stats.cycles),
        (b.trace_hash, b.stats.cycles),
        "different fault seeds produced an identical run"
    );
}

/// `--faults` injection events are visible in the trace stream.
#[test]
fn fault_injection_events_are_traced() {
    let r = faulted_run("genome", SchemeKind::SuvTm, "seed=7,nack=25");
    let out = r.trace.as_ref().expect("traced run");
    let injected =
        out.records.iter().filter(|rec| matches!(rec.ev, TraceEvent::FaultInjected { .. })).count();
    assert!(injected > 0, "a 25% NACK rate must leave FaultInjected events in the trace");
}

/// The `pool=` clamp inside a fault spec reaches the version pool from
/// the installed spec alone: ssca2 never overflows an unclamped pool, and
/// under `pool=1` it does.
#[test]
fn fault_spec_pool_clamp_reaches_the_allocator() {
    let overflow_aborts = |spec: &str| {
        let mut cfg = MachineConfig::small_test();
        cfg.robust.faults = Some(parse_fault_spec(spec).expect("valid spec"));
        let mut w = by_name("ssca2", SuiteScale::Tiny).expect("known app");
        let r = run_workload(&cfg, SchemeKind::SuvTm, w.as_mut());
        assert!(r.stats.tx.commits > 0);
        r.stats.tx.overflow_aborts
    };
    assert_eq!(overflow_aborts("seed=3"), 0);
    assert!(overflow_aborts("seed=3,pool=1") > 0, "a one-page pool must overflow");
}

fn faulted_robust_run(
    app: &str,
    scheme: SchemeKind,
    spec: &str,
    mut robust: RobustnessConfig,
) -> RunResult {
    robust.faults = Some(parse_fault_spec(spec).expect("valid spec"));
    let mut cfg = MachineConfig::small_test();
    cfg.robust = robust;
    let mut w = by_name(app, SuiteScale::Tiny).expect("known app");
    run_workload_traced(&cfg, scheme, w.as_mut(), Some(TraceConfig::default()))
}

/// Escalation-only triggers disabled: every watchdog off, so the ladder
/// never fires even under spurious pool-exhaustion faults (`overflow=P`
/// aborts retry on the hardware tier until the roll passes).
#[test]
fn overflow_retries_zero_disables_the_overflow_trigger() {
    let off = RobustnessConfig {
        overflow_retries: 0,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = faulted_robust_run("genome", SchemeKind::SuvTm, "seed=7,overflow=20", off);
    assert!(r.stats.tx.commits > 0, "retry-only run must still complete");
    assert!(r.stats.tx.overflow_aborts > 0, "a 20% overflow rate must abort somewhere");
    assert_eq!(r.stats.tx.watchdog_escalations, 0, "disabled ladder must never escalate");
    assert_eq!(r.stats.tx.irrevocable_commits, 0);
    assert_eq!(r.stats.tx.sw_commits, 0);
}

/// `overflow_retries = 1` escalates on the very first capacity abort: with
/// a 100% spurious-overflow rate, every writing transaction climbs the
/// ladder and commits irrevocably (the injector is fenced off on the
/// irrevocable tier, which can never abort).
#[test]
fn overflow_retries_one_escalates_on_the_first_overflow() {
    let eager = RobustnessConfig {
        overflow_retries: 1,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = faulted_robust_run("genome", SchemeKind::SuvTm, "seed=7,overflow=100", eager);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.overflow_aborts > 0);
    assert!(r.stats.tx.esc_overflow > 0, "reason code 0 (overflow) must be attributed");
    assert!(r.stats.tx.irrevocable_commits > 0, "every escalated writer must commit");
}

/// Spurious overflow faults are deterministic: same seed, same spec, same
/// run — including the escalation counters the faults drive.
#[test]
fn overflow_fault_injection_is_bit_deterministic() {
    let spec = "seed=11,overflow=25";
    for scheme in [SchemeKind::SuvTm, SchemeKind::DynTm] {
        let a = faulted_run("genome", scheme, spec);
        let b = faulted_run("genome", scheme, spec);
        assert_eq!(a.trace_hash, b.trace_hash, "{scheme:?}: overflow-faulted hash drifted");
        assert_eq!(a.stats.cycles, b.stats.cycles, "{scheme:?}: overflow-faulted cycles drifted");
        assert_eq!(a.stats.tx, b.stats.tx, "{scheme:?}: overflow-faulted tx stats drifted");
        assert!(a.stats.tx.overflow_aborts > 0, "{scheme:?}: the fault never fired");
    }
}

/// The full three-tier ladder under `--fallback stm`: spuriously
/// overflowing transactions re-execute as software transactions and
/// commit concurrently with the hardware ones, and the mixed HW/SW
/// history passes the offline serializability oracle.
#[test]
fn stm_fallback_commits_software_transactions_concurrently() {
    let stm = RobustnessConfig {
        overflow_retries: 1,
        fallback: FallbackMode::Stm,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = faulted_robust_run("genome", SchemeKind::SuvTm, "seed=7,overflow=100", stm);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.esc_overflow > 0, "the ladder must engage");
    assert!(r.stats.tx.sw_commits > 0, "escalated writers must commit in software");
    assert!(
        r.stats.tx.sw_commits < r.stats.tx.commits,
        "read-only transactions must stay on the hardware tier"
    );
    let out = r.trace.as_ref().expect("traced run");
    let fallback_begins =
        out.records.iter().filter(|rec| matches!(rec.ev, TraceEvent::FallbackBegin { .. })).count();
    assert!(fallback_begins > 0, "software episodes must be visible in the trace");
    let s = suv_check::check_trace(out);
    assert!(s.ok(), "mixed HW/SW history must serialize: {:?}", s.violations());
}

/// The software tier's own retry budget: with `sw_retries = 1` a single
/// software abort escalates to the irrevocable token (reason 3), and the
/// run still completes.
#[test]
fn sw_retry_budget_escalates_to_irrevocable() {
    let tight = RobustnessConfig {
        overflow_retries: 1,
        fallback: FallbackMode::Stm,
        sw_retries: 1,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = faulted_robust_run("intruder", SchemeKind::SuvTm, "seed=7,overflow=100", tight);
    assert!(r.stats.tx.commits > 0);
    assert!(r.stats.tx.sw_commits > 0, "the software tier must carry some commits");
    // Deterministic run: intruder's contention makes some software attempt
    // lose validation or a HW conflict, spending the 1-attempt budget.
    assert!(r.stats.tx.sw_aborts > 0, "no software aborts — the budget never bites");
    assert!(r.stats.tx.esc_sw_validation > 0, "reason code 3 must be attributed");
    assert!(r.stats.tx.irrevocable_commits > 0, "budget-exhausted transactions must commit");
}

/// A cell that panics while its core holds the chip-wide irrevocable
/// token must be quarantined cleanly (the same `catch_unwind` the sweep
/// engine uses): the token dies with the cell's scheduler, and a fresh
/// cell escalates and claims its own token without interference.
#[test]
fn quarantined_cell_releases_the_irrevocable_token() {
    struct PanicMidIrrevocable {
        word: Addr,
        calls: AtomicU32,
    }
    impl Workload for PanicMidIrrevocable {
        fn name(&self) -> &'static str {
            "panic-mid-irrevocable"
        }
        fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
            self.word = ctx.alloc_words(1);
        }
        fn run<'a>(&'a self, _tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
            Box::pin(async move {
                ctx.txn(TxSite(1), async |tx| {
                    // Attempt 1 dies of the injected overflow; attempt 2
                    // (overflow_retries = 1) runs irrevocable — the token
                    // is held when the body panics mid-transaction.
                    if self.calls.fetch_add(1, Ordering::Relaxed) >= 1 {
                        panic!("seeded panic mid-irrevocable");
                    }
                    tx.store(self.word, 1).await?;
                    Ok(())
                })
                .await;
            })
        }
    }

    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = 1;
    cfg.robust.overflow_retries = 1;
    cfg.robust.max_tx_aborts = 0;
    cfg.robust.max_starvation_cycles = 0;
    cfg.robust.faults = Some(parse_fault_spec("seed=1,overflow=100").expect("valid spec"));
    let mut w = PanicMidIrrevocable { word: 0, calls: AtomicU32::new(0) };
    let payload = catch_unwind(AssertUnwindSafe(|| run_workload(&cfg, SchemeKind::SuvTm, &mut w)))
        .expect_err("the seeded panic must surface through the executor");
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(msg.contains("mid-irrevocable"), "unexpected panic payload: {msg}");

    // A subsequent cell starts with a free token: the same escalation
    // path acquires it and commits irrevocably.
    let eager = RobustnessConfig {
        overflow_retries: 1,
        max_tx_aborts: 0,
        max_starvation_cycles: 0,
        ..Default::default()
    };
    let r = faulted_robust_run("genome", SchemeKind::SuvTm, "seed=1,overflow=100", eager);
    assert!(r.stats.tx.irrevocable_commits > 0, "fresh cell must claim the token");
}

/// The headline degradation scenario: every STAMP application plus the
/// OLTP workload completes — and verifies — at paper scale with the SUV
/// redirect pool clamped to a single page and the STM fallback tier
/// enabled, with software commits carrying part of the load instead of
/// the whole chip serializing behind the irrevocable token.
#[test]
fn stamp_and_oltp_complete_with_a_one_page_pool_under_stm_fallback() {
    let robust =
        RobustnessConfig { pool_pages: 1, fallback: FallbackMode::Stm, ..Default::default() };
    let mut sw_commits = 0;
    let mut hw_sw_conflicts = 0;
    for app in STAMP_APPS.iter().copied().chain(["oltp"]) {
        let r = run_scaled(app, SchemeKind::SuvTm, SuiteScale::Paper, robust);
        assert!(r.stats.tx.commits > 0, "{app}: no commits under a 1-page pool + stm");
        sw_commits += r.stats.tx.sw_commits;
        hw_sw_conflicts += r.stats.tx.hw_sw_conflicts;
    }
    assert!(sw_commits > 0, "a 1-page pool must push some transactions into software");
    assert!(hw_sw_conflicts > 0, "concurrent HW and SW transactions must collide somewhere");
}
