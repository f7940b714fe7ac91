//! Schedule-equivalence tests for the execution engine.
//!
//! The event-loop engine (one host thread, coroutine cores, horizon fast
//! path, parked waiters) must produce *bit-identical* schedules to the
//! original per-access-lock engine: the fast path only elides work whose
//! outcome is already decided, and a parked core skips only polls that
//! touch nothing, so trace hashes, cycle counts and abort counts may not
//! move by a single event. The golden tuples below were captured from the
//! pre-change engine (PR 3, commit `bf5438d`) and are asserted against
//! every future engine.
//!
//! The probe workload is a randomized mix of transactional and plain
//! reads/writes over a small shared array, driven entirely by seeded
//! per-thread RNGs — deterministic by construction, contended enough to
//! exercise NACK stalls, aborts, backoff and barriers on every scheme.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suv::prelude::*;
use suv::sim::{SetupCtx, ThreadCtx};
use suv::types::{Addr, TxStats};

/// Randomized mixed read/write workload over `slots` shared words.
struct MixedWorkload {
    seed: u64,
    slots: u64,
    iters: u64,
    base: Addr,
    expected_sum: u64,
}

impl MixedWorkload {
    fn new(seed: u64) -> Self {
        MixedWorkload { seed, slots: 32, iters: 40, base: 0, expected_sum: 0 }
    }
}

impl Workload for MixedWorkload {
    fn name(&self) -> &'static str {
        "mixed"
    }

    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.base = ctx.alloc_words(self.slots);
        for i in 0..self.slots {
            ctx.poke(self.base + i * 8, 0);
        }
        // Every committed transaction adds exactly 1 to one slot, so the
        // final sum across slots is the global transaction count.
        self.expected_sum = ctx.n_cores() as u64 * self.iters;
    }

    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (0xA5A5 + tid as u64 * 0x1F3F));
            for _ in 0..self.iters {
                // A little private think time between transactions.
                ctx.work(1 + rng.random_range(0..16u64));
                // Occasionally touch a private slot non-transactionally.
                if rng.random_range(0..4u32) == 0 {
                    let probe = self.base + rng.random_range(0..self.slots) * 8;
                    let _ = ctx.load(probe).await;
                }
                // Pre-draw the access pattern so it does not depend on the
                // number of attempts (the RNG does not rewind on abort).
                let reads: Vec<Addr> = (0..rng.random_range(1..5u32))
                    .map(|_| self.base + rng.random_range(0..self.slots) * 8)
                    .collect();
                let bump = self.base + rng.random_range(0..self.slots) * 8;
                let think: u64 = rng.random_range(0..8u64);
                ctx.txn(TxSite(7), async |tx| {
                    let mut acc = 0u64;
                    for &a in &reads {
                        acc = acc.wrapping_add(tx.load(a).await?);
                    }
                    tx.work(1 + (acc % 3) + think);
                    let v = tx.load(bump).await?;
                    tx.store(bump, v + 1).await?;
                    Ok(())
                })
                .await;
            }
            ctx.barrier().await;
        })
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        let sum: u64 = (0..self.slots).map(|i| ctx.peek(self.base + i * 8)).sum();
        assert_eq!(sum, self.expected_sum, "lost or duplicated transactional updates");
    }
}

/// The scheduler's three handoff counters — `sched.handoffs_taken`,
/// `sched.handoffs_elided`, `sched.barrier_arrivals` — as the runner folds
/// them into a traced run's metrics. Two engines can agree on every
/// simulated number and still disagree here (an elision counted twice on a
/// resume moves no cycle), so each golden row pins them too.
type Handoffs = [u64; 3];

fn handoffs(r: &RunResult) -> Handoffs {
    ["sched.handoffs_taken", "sched.handoffs_elided", "sched.barrier_arrivals"]
        .map(|name| sched_counter(r, name))
}

fn sched_counter(r: &RunResult, name: &str) -> u64 {
    r.trace.as_ref().expect("golden cells run traced").metrics.counter(name)
}

/// Waiting for the irrevocable token costs the host O(releases), not
/// O(cycles waited) — a relation between a run's own counters, with no
/// stored constant. A core parks once when its escalation finds the token
/// taken, and again only after a release woke it and another core won;
/// a release can wake at most every other core.
fn assert_token_waits_are_bounded_by_releases(r: &RunResult, cores: usize, fallback: FallbackMode) {
    let t = &r.stats.tx;
    let to_irrevocable = match fallback {
        FallbackMode::Stm => t.esc_sw_validation,
        _ => t.esc_overflow + t.esc_abort_watchdog + t.esc_starvation,
    };
    assert_eq!(to_irrevocable, t.irrevocable_commits, "every escalation to the last rung commits");
    let parks = sched_counter(r, "sched.token_parks");
    let contended = sched_counter(r, "sched.token_contended");
    assert!(contended <= t.irrevocable_commits, "more contended releases than releases");
    assert!(
        parks <= to_irrevocable + contended * (cores as u64 - 1),
        "{parks} parks for {to_irrevocable} escalations and {contended} contended releases"
    );
}

/// One golden cell: (scheme, cores, seed) -> (trace_hash, cycles, aborts,
/// handoff counters).
type Golden = (SchemeKind, usize, u64, u64, u64, u64, Handoffs);

/// Captured from the pre-change per-access-lock engine; the new engine
/// must reproduce every tuple exactly.
const GOLDEN: &[Golden] = &[
    // (scheme, cores, seed, trace_hash, cycles, aborts, [taken, elided, barrier])
    (SchemeKind::SuvTm, 1, 1, 0x76f85a0f7a3aecc8, 1727, 0, [0, 264, 1]),
    (SchemeKind::SuvTm, 2, 1, 0x5591b68080cd80c8, 5825, 22, [363, 425, 2]),
    (SchemeKind::SuvTm, 4, 1, 0xacf71ce761d4ed1d, 21291, 229, [2247, 1337, 4]),
    (SchemeKind::SuvTm, 8, 1, 0xa7f2041c858ede8f, 70799, 916, [8697, 3928, 8]),
    (SchemeKind::SuvTm, 16, 1, 0xa69acd5d20b47a82, 262685, 3664, [38773, 11641, 16]),
    (SchemeKind::LogTmSe, 4, 2, 0xf7410514135960b0, 39161, 246, [3097, 1565, 4]),
    (SchemeKind::LogTmSe, 16, 2, 0xb2fee4e9d015c628, 816701, 6041, [100452, 20472, 16]),
    (SchemeKind::FasTm, 8, 3, 0xb43a6e857fcc766a, 99951, 1130, [11460, 4587, 8]),
    (SchemeKind::Lazy, 8, 4, 0x3266793920ff21eb, 27130, 138, [1192, 2039, 8]),
    (SchemeKind::DynTm, 16, 5, 0x02fae6b85892d57e, 74364, 1314, [10361, 5346, 16]),
    (SchemeKind::DynTmSuv, 16, 6, 0xa2108b08af889350, 57292, 1261, [9366, 5681, 16]),
];

fn run_mixed(scheme: SchemeKind, cores: usize, seed: u64) -> RunResult {
    let cfg = MachineConfig { n_cores: cores, ..Default::default() };
    let mut w = MixedWorkload::new(seed);
    run_workload_traced(&cfg, scheme, &mut w, Some(TraceConfig::default()))
}

/// The robustness column of a wide golden cell: the ladder mode, the
/// `--faults` spec (`""` = unarmed), the threshold overrides applied over
/// the `RobustnessConfig` defaults, and a counter the cell exists to
/// exercise (asserted non-zero, so a row cannot silently stop covering
/// its rung or hook).
type Robust = (FallbackMode, &'static str, fn(&mut RobustnessConfig), fn(&TxStats) -> u64);

/// No faults, default thresholds, nothing beyond a commit to prove.
const PLAIN: Robust = (FallbackMode::IrrevocableOnly, "", |_| {}, |t| t.commits);
/// The overflow storm that drives the ladder, and the same storm with
/// spurious NACKs and NoC delays on top (every retry loop's fault hooks,
/// hardware and software).
const STORM: &str = "seed=7,overflow=25";
const MIX: &str = "seed=3,nack=10,delay=10:30,overflow=25";
const STM: Robust = (FallbackMode::Stm, STORM, |_| {}, |t| t.sw_commits);
const STM_MIX: Robust = (FallbackMode::Stm, MIX, |_| {}, |t| t.sw_commits);
const IRREVOCABLE: Robust =
    (FallbackMode::IrrevocableOnly, STORM, |_| {}, |t| t.irrevocable_commits);
/// One software abort exhausts the software rung: Sw → Irrevocable.
const SW_EXHAUSTED: Robust =
    (FallbackMode::Stm, STORM, |r| r.sw_retries = 1, |t| t.esc_sw_validation);
/// The abort-count watchdog, with no fault armed.
const WATCHDOG: Robust =
    (FallbackMode::IrrevocableOnly, "", |r| r.max_tx_aborts = 2, |t| t.esc_abort_watchdog);

/// One wide golden cell: `(name, scheme, cores, robust)` →
/// `(trace_hash, cycles, aborts, handoff counters)`.
type WideGolden = (&'static str, SchemeKind, usize, Robust, u64, u64, u64, Handoffs);

/// Golden cells beyond the STAMP-style 1–16-core matrix: the open-loop
/// OLTP latency path (request arrival cycles, latency histograms), two
/// 128-core many-core cells (SUV-TM, and DynTM+SUV for the banked
/// second-level redirect table under lazy conflict detection), and one
/// cell per ladder rung and fault hook — the software tier, the
/// irrevocable-only ladder under the same storm, the fault mix on an
/// eager and a lazy scheme, the Sw → Irrevocable escalation and the
/// abort-count watchdog — pinned so the engine is proven trace-hash
/// identical on those paths too.
#[rustfmt::skip] // one row per line
const GOLDEN_WIDE: &[WideGolden] = &[
    ("oltp-storm", SchemeKind::SuvTm, 8, PLAIN, 0xeb87c97894052f90, 36871, 236, [3685, 1756, 8]),
    ("oltp-storm", SchemeKind::LogTmSe, 8, PLAIN, 0xdcfda137c6054d7f, 66145, 320, [5441, 2158, 8]),
    ("vacation", SchemeKind::SuvTm, 128, PLAIN, 0xf8efc6775bdb6e66, 8955699, 209115, [6136506, 517124, 128]),
    ("oltp", SchemeKind::DynTmSuv, 128, PLAIN, 0xa768f3df6dac35e9, 31895, 746, [25785, 3114, 128]),
    ("oltp-storm", SchemeKind::DynTmSuv, 8, STM, 0x19cb1d0c05a9269e, 23442, 245, [2372, 2050, 8]),
    ("oltp-storm", SchemeKind::DynTmSuv, 8, IRREVOCABLE, 0xe35104e3aeef1726, 26262, 292, [1747, 2668, 8]),
    ("oltp-storm", SchemeKind::LogTmSe, 8, STM_MIX, 0xc43cdb70c59aa6b8, 37899, 327, [6148, 1564, 8]),
    ("oltp-storm", SchemeKind::Lazy, 8, STM_MIX, 0x04900448c3d78334, 26000, 247, [2800, 1905, 8]),
    ("oltp-storm", SchemeKind::SuvTm, 8, SW_EXHAUSTED, 0x34c56961d672ddc1, 33416, 308, [3081, 2100, 8]),
    ("oltp-storm", SchemeKind::LogTmSe, 8, WATCHDOG, 0x7b2782861ad0905c, 33770, 77, [1460, 1551, 8]),
];

fn run_named(name: &str, scheme: SchemeKind, cores: usize, robust: Robust) -> RunResult {
    let (fallback, faults, overrides, _) = robust;
    let mut cfg = MachineConfig { n_cores: cores, ..Default::default() };
    cfg.robust.fallback = fallback;
    if !faults.is_empty() {
        cfg.robust.faults = Some(parse_fault_spec(faults).expect("valid spec"));
    }
    overrides(&mut cfg.robust);
    let mut w = by_name(name, SuiteScale::Tiny).expect("registered workload");
    run_workload_traced(&cfg, scheme, w.as_mut(), Some(TraceConfig::default()))
}

#[test]
fn oltp_and_many_core_schedules_match_goldens() {
    for (row, &(name, scheme, cores, robust, hash, cycles, aborts, sched)) in
        GOLDEN_WIDE.iter().enumerate()
    {
        let r = run_named(name, scheme, cores, robust);
        assert_eq!(
            (r.trace_hash, r.stats.cycles, r.stats.tx.aborts, handoffs(&r)),
            (hash, cycles, aborts, sched),
            "row {row} ({name}/{scheme:?}/{cores}c/{}/`{}`): schedule diverged (got hash \
             {:#018x}, {} cycles, {} aborts, handoffs {:?})",
            robust.0.name(),
            robust.1,
            r.trace_hash,
            r.stats.cycles,
            r.stats.tx.aborts,
            handoffs(&r),
        );
        if name.starts_with("oltp") {
            assert!(r.latency.is_some(), "open-loop cell must record latency");
        }
        assert!(robust.3(&r.stats.tx) > 0, "row {row} no longer exercises what it pins");
        assert_token_waits_are_bounded_by_releases(&r, cores, robust.0);
        assert_eq!(
            r.stats.tx.sw_commits > 0,
            robust.0 == FallbackMode::Stm,
            "row {row}: the software tier runs exactly in the stm cells"
        );
    }
}

#[test]
fn schedule_matches_preupgrade_goldens() {
    for &(scheme, cores, seed, hash, cycles, aborts, sched) in GOLDEN {
        let r = run_mixed(scheme, cores, seed);
        assert_eq!(
            (r.trace_hash, r.stats.cycles, r.stats.tx.aborts, handoffs(&r)),
            (hash, cycles, aborts, sched),
            "{scheme:?}/{cores}c/seed{seed}: schedule diverged from the \
             pre-change engine (got hash {:#018x}, {} cycles, {} aborts, handoffs {:?})",
            r.trace_hash,
            r.stats.cycles,
            r.stats.tx.aborts,
            handoffs(&r),
        );
    }
}

#[test]
fn schedule_identical_across_repeated_runs() {
    for &(scheme, cores, seed) in
        &[(SchemeKind::SuvTm, 16, 9), (SchemeKind::LogTmSe, 8, 10), (SchemeKind::Lazy, 4, 11)]
    {
        let a = run_mixed(scheme, cores, seed);
        let b = run_mixed(scheme, cores, seed);
        assert_eq!(a.trace_hash, b.trace_hash, "{scheme:?}/{cores}c: hash unstable");
        assert_eq!(a.stats.cycles, b.stats.cycles, "{scheme:?}/{cores}c: cycles unstable");
        assert_eq!(a.stats.tx.aborts, b.stats.tx.aborts, "{scheme:?}/{cores}c: aborts unstable");
    }
}

/// Temporary golden-capture helper: `cargo test -p suv --release
/// --test integration_engine print_goldens -- --ignored --nocapture`.
#[test]
#[ignore = "golden-capture helper; run explicitly with --ignored"]
fn print_goldens() {
    for &(scheme, cores, seed, ..) in GOLDEN {
        let r = run_mixed(scheme, cores, seed);
        println!(
            "    (SchemeKind::{scheme:?}, {cores}, {seed}, {:#018x}, {}, {}, {:?}),",
            r.trace_hash,
            r.stats.cycles,
            r.stats.tx.aborts,
            handoffs(&r)
        );
    }
    // The robustness column is not printable (it holds fn pointers):
    // paste the numbers into the row by position.
    for (row, &(name, scheme, cores, robust, ..)) in GOLDEN_WIDE.iter().enumerate() {
        let r = run_named(name, scheme, cores, robust);
        let t = &r.stats.tx;
        println!(
            "    row {row} {name}/{scheme:?}/{cores}c/{}/`{}`: {:#018x}, {}, {}, {:?}   \
             [probe={} sw_commits={} irrevocable={} esc={}/{}/{}/{} parks={} contended={}]",
            robust.0.name(),
            robust.1,
            r.trace_hash,
            r.stats.cycles,
            t.aborts,
            handoffs(&r),
            robust.3(t),
            t.sw_commits,
            t.irrevocable_commits,
            t.esc_overflow,
            t.esc_abort_watchdog,
            t.esc_starvation,
            t.esc_sw_validation,
            sched_counter(&r, "sched.token_parks"),
            sched_counter(&r, "sched.token_contended"),
        );
    }
}
