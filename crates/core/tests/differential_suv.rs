//! Fixed-seed differential pin of SUV's redirect bookkeeping.
//!
//! Drives [`HtmMachine`] over a [`SuvVm`] (alone and as DynTM's version
//! manager) directly — no engine, no workload — with generated operation
//! sequences and pins an FNV-1a digest of everything the redirect table can
//! influence, per configuration: every `Access` / `CommitOutcome`, the
//! redirect-table overflow pair the machine collects at each transaction
//! end, the final [`RedirectStats`], the trace stream (which orders every
//! `RedirectLookup` / `PoolAlloc` / `RedirectBack` / `TableSwapOut`) and the
//! swapped-out lines themselves. All runs are under `CheckLevel::Full`, so
//! the INV-5..8 / 10 / 12 audits run at every transaction boundary.
//!
//! The table is tiny (4-entry first level, 16-entry 2-way second level) and
//! the pool is one page, so first-level evictions, swap-outs to memory,
//! memory searches, `Overflow` stores and redirect-back all happen within a
//! few thousand steps; under DynTM+SUV repeatedly aborting sites turn lazy,
//! which is the only way two cores hold transients on one line.
//!
//! One interleaving is kept out of the sequences because the machine does not
//! isolate it (ROADMAP open item 9): a *lazy* transaction's store skips the
//! conflict check, so it may write a line a live *eager* transaction has
//! already written; if the eager one then commits first, the lazy one's pool
//! slot — seeded before that commit — replaces the line and the eager words
//! are lost, which the shadow oracle reports as INV-9. The driver knows each
//! transaction's mode and write set and issues a load instead (which the
//! eager writer NACKs).
//!
//! `crates/htm/tests/differential_machine.rs` pins the conflict searches for
//! LogTM-SE / Lazy / DynTM; nothing else pins SUV below the goldens. A change
//! that moves a digest changed what the table answered, what it evicted or
//! the order it recycled pool slots in. Re-pin only when the change says why;
//! the failure message prints the whole table.
//!
//! The same driver pins `HtmMachine: Clone` over SUV: a machine cloned
//! mid-sequence and its original, fed the same remaining operations, must
//! answer alike and agree with a run that never forked.

#![allow(clippy::unreadable_literal)] // the pinned digests are pasted as printed

use std::fmt::Write as _;
use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::{Access, CommitOutcome, HtmMachine, VersionManager};
use suv_trace::{TraceEvent, Tracer};
use suv_types::{line_of, CheckLevel, CoreId, Cycle, MachineConfig, TxSite};

const STEPS: usize = 6000;
/// A few hot lines for conflicts and redirect-back, and a cold range wider
/// than the one-page pool (64 slots) so that it runs dry.
const HOT_LINES: u64 = 6;
const LINES: u64 = 160;
const BASE: u64 = 0x10_0000;
/// Retains every event of a run (a run emits well under this many).
const RING: usize = 1 << 18;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scheme {
    Suv,
    DynTmSuv,
}

#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 33) % n
    }

    /// Runs of the same line are common, as in the workloads: a third of
    /// the draws repeat the core's previous line.
    fn addr(&mut self, last: &mut u64) -> u64 {
        let line = match self.below(6) {
            0 | 1 => *last,
            2 | 3 => self.below(HOT_LINES),
            _ => self.below(LINES),
        };
        *last = line;
        BASE + line * 64 + self.below(4) * 8
    }
}

#[derive(Clone)]
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }

    fn access(&mut self, a: Access) {
        match a {
            Access::Done { value, latency } => self.words(&[1, value, latency]),
            Access::Nacked { nacker, latency, must_abort } => {
                self.words(&[2, nacker as u64, latency, u64::from(must_abort)]);
            }
            Access::MustAbort { latency } => self.words(&[3, latency]),
            Access::Overflow { latency } => self.words(&[4, latency]),
        }
    }
}

/// What the driver knows about a core: enough to issue only legal calls.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Tx { depth: usize, irrevocable: bool, lazy: bool },
}

/// How often each interesting outcome occurred (coverage, not pinned).
#[derive(Default, Debug, Clone)]
struct Seen {
    nacks: u64,
    pool_overflows: u64,
    partial_aborts: u64,
    lazy_txs: u64,
    lazy_commit_losses: u64,
    lazy_stores_withheld: u64,
    irrevocable_commits: u64,
    rt_l1_overflows: u64,
    rt_mem_overflows: u64,
    swap_outs: u64,
    mem_lookups: u64,
    redirect_backs: u64,
    false_positives: u64,
}

#[derive(Clone)]
struct Driver<V> {
    m: HtmMachine<V>,
    rng: Rng,
    d: Digest,
    phase: Vec<Phase>,
    /// Earliest cycle at which each core may issue its next call.
    ready: Vec<Cycle>,
    /// Each core's previously drawn line.
    last: Vec<u64>,
    /// The line addresses each core's running transaction has stored to.
    written: Vec<Vec<u64>>,
    seen: Seen,
    now: Cycle,
}

impl<V: VersionManager> Driver<V> {
    /// A transaction ended: fold the redirect-table overflow pair the
    /// machine took from the version manager (as running totals).
    fn tx_ended(&mut self, c: CoreId) {
        let o = self.m.overflow_stats();
        self.d.words(&[o.rt_l1_overflow_txns, o.rt_full_overflow_txns]);
        self.phase[c] = Phase::Idle;
        self.written[c].clear();
    }

    /// Outermost begin; the version manager's lazy count says which mode
    /// the transaction got.
    fn begin(&mut self, now: Cycle, c: CoreId, site: TxSite, irrevocable: bool) -> Cycle {
        let lazy_before = self.m.vm().lazy_tx_count();
        let lat = if irrevocable {
            self.m.begin_tx_irrevocable(now, c, site)
        } else {
            self.m.begin_tx(now, c, site)
        };
        let lazy = self.m.vm().lazy_tx_count() > lazy_before;
        self.phase[c] = Phase::Tx { depth: 1, irrevocable, lazy };
        lat
    }

    /// Has a live eager transaction on another core stored to `addr`'s line?
    fn eagerly_written_elsewhere(&self, c: CoreId, addr: u64) -> bool {
        self.phase.iter().zip(&self.written).enumerate().any(|(o, (p, w))| {
            o != c && matches!(p, Phase::Tx { lazy: false, .. }) && w.contains(&line_of(addr))
        })
    }

    fn full_abort(&mut self, now: Cycle, c: CoreId) -> Cycle {
        let lat = self.m.abort_tx(now, c);
        self.d.words(&[20, lat]);
        self.tx_ended(c);
        lat
    }

    /// Fold an access outcome and do what the sim layer would.
    fn access(&mut self, now: Cycle, c: CoreId, a: Access, irrevocable: bool) -> Cycle {
        self.d.access(a);
        match a {
            Access::Done { latency, .. } => latency,
            Access::Nacked { latency, must_abort, .. } => {
                self.seen.nacks += 1;
                assert!(!(must_abort && irrevocable), "an irrevocable owner was told to abort");
                if must_abort {
                    latency + self.full_abort(now, c)
                } else {
                    latency
                }
            }
            Access::MustAbort { latency } => latency + self.full_abort(now, c),
            Access::Overflow { latency } => {
                assert!(!irrevocable, "an irrevocable store overflowed");
                self.seen.pool_overflows += 1;
                latency + self.full_abort(now, c)
            }
        }
    }

    fn step_idle(&mut self, now: Cycle, c: CoreId) -> Cycle {
        let site = TxSite(1 + self.rng.below(6) as u32);
        match self.rng.below(100) {
            0..=69 => self.begin(now, c, site, false),
            70..=75 => {
                let taken =
                    self.phase.iter().any(|p| matches!(p, Phase::Tx { irrevocable: true, .. }));
                if taken {
                    return 1;
                }
                self.begin(now, c, site, true)
            }
            76..=87 => {
                let addr = self.rng.addr(&mut self.last[c]);
                let a = self.m.nontx_load(now, c, addr);
                self.access(now, c, a, false)
            }
            _ => {
                let (addr, v) = (self.rng.addr(&mut self.last[c]), self.rng.next());
                let a = self.m.nontx_store(now, c, addr, v);
                self.access(now, c, a, false)
            }
        }
    }

    fn step_tx(
        &mut self,
        now: Cycle,
        c: CoreId,
        depth: usize,
        irrevocable: bool,
        lazy: bool,
    ) -> Cycle {
        match self.rng.below(100) {
            0..=29 => {
                let addr = self.rng.addr(&mut self.last[c]);
                let a = self.m.tx_load(now, c, addr);
                self.access(now, c, a, irrevocable)
            }
            30..=69 => {
                let (addr, v) = (self.rng.addr(&mut self.last[c]), self.rng.next());
                let a = if lazy && self.eagerly_written_elsewhere(c, addr) {
                    self.seen.lazy_stores_withheld += 1;
                    self.m.tx_load(now, c, addr)
                } else {
                    let a = self.m.tx_store(now, c, addr, v);
                    if matches!(a, Access::Done { .. }) {
                        self.written[c].push(line_of(addr));
                    }
                    a
                };
                self.access(now, c, a, irrevocable)
            }
            70..=76 if depth < 4 => {
                self.phase[c] = Phase::Tx { depth: depth + 1, irrevocable, lazy };
                self.m.begin_tx(now, c, TxSite(7))
            }
            77..=83 if depth > 1 && !irrevocable => {
                if let Some(lat) = self.m.abort_nested(now, c) {
                    self.seen.partial_aborts += 1;
                    self.d.words(&[22, lat]);
                    self.phase[c] = Phase::Tx { depth: depth - 1, irrevocable, lazy };
                    lat
                } else {
                    self.d.word(23);
                    self.full_abort(now, c)
                }
            }
            84..=87 if !irrevocable => self.full_abort(now, c),
            _ => match self.m.commit_tx(now, c) {
                CommitOutcome::Committed { latency, committing } => {
                    self.d.words(&[10, latency, committing]);
                    if depth > 1 {
                        self.phase[c] = Phase::Tx { depth: depth - 1, irrevocable, lazy };
                    } else {
                        self.seen.irrevocable_commits += u64::from(irrevocable);
                        self.tx_ended(c);
                    }
                    latency
                }
                CommitOutcome::MustAbort { latency } => {
                    self.seen.lazy_commit_losses += 1;
                    self.d.words(&[11, latency]);
                    latency + self.full_abort(now, c)
                }
            },
        }
    }

    /// Issue the next `n` generated steps. The machine must see calls in
    /// global time order; a core whose last call has not finished yet sits
    /// the step out.
    fn steps(&mut self, n: usize) {
        let cores = self.phase.len() as u64;
        for _ in 0..n {
            self.now += 1 + self.rng.below(4);
            let (now, c) = (self.now, self.rng.below(cores) as usize);
            if self.ready[c] > now {
                continue;
            }
            self.d.words(&[now, c as u64]);
            let lat = match self.phase[c] {
                Phase::Idle => self.step_idle(now, c),
                Phase::Tx { depth, irrevocable, lazy } => {
                    self.step_tx(now, c, depth, irrevocable, lazy)
                }
            };
            self.ready[c] = now + lat;
        }
    }

    /// Fold the final statistics and the trace: `(outcome digest, trace
    /// digest)`, the latter 0 for an untraced run.
    fn finish(mut self, traced: bool) -> (u64, u64, Seen) {
        let tx = self.m.tx_stats();
        self.d.words(&[tx.commits, tx.aborts, tx.nacks_received, tx.lazy_validation_aborts]);
        let rt = self.m.vm().redirect_stats();
        self.d.words(&[
            rt.l1_lookups,
            rt.l1_misses,
            rt.mem_lookups,
            rt.entries_added,
            rt.entries_redirected_back,
            rt.summary_false_positives,
            rt.summary_filtered,
        ]);
        let ovf = self.m.overflow_stats();
        self.seen.lazy_txs += self.m.vm().lazy_tx_count();
        self.seen.rt_l1_overflows += ovf.rt_l1_overflow_txns;
        self.seen.rt_mem_overflows += ovf.rt_full_overflow_txns;
        self.seen.mem_lookups += rt.mem_lookups;
        self.seen.redirect_backs += rt.entries_redirected_back;
        self.seen.false_positives += rt.summary_false_positives;

        let out = self.m.take_tracer().finish();
        let mut trace = Digest(0xcbf2_9ce4_8422_2325);
        if traced {
            assert_eq!(out.dropped, 0, "the ring must retain the whole run");
            trace.words(&[out.hash, out.events]);
            for rec in &out.records {
                if let TraceEvent::TableSwapOut { line } = rec.ev {
                    self.seen.swap_outs += 1;
                    trace.words(&[rec.t, rec.core as u64, line]);
                }
            }
        }
        (self.d.0, if traced { trace.0 } else { 0 }, self.seen)
    }
}

/// One configuration over `vm`, traced or not. With `fork_at`, the machine
/// is cloned after that many steps and the clone fed the same remaining
/// steps: it must end where the original does, trace included.
fn drive<V: VersionManager + Clone>(
    cfg: &MachineConfig,
    vm: V,
    rng_seed: u64,
    traced: bool,
    fork_at: Option<usize>,
    seen: Seen,
) -> (u64, u64, Seen) {
    let mut m = HtmMachine::new(cfg, vm);
    if traced {
        m.set_tracer(Tracer::ring(RING));
    }
    for l in 0..LINES {
        for w in 0..4 {
            m.poke(BASE + l * 64 + w * 8, l * 4 + w);
        }
    }
    let mut d = Driver {
        m,
        rng: Rng(rng_seed),
        d: Digest(0xcbf2_9ce4_8422_2325),
        phase: vec![Phase::Idle; cfg.n_cores],
        ready: vec![0; cfg.n_cores],
        last: vec![0; cfg.n_cores],
        written: vec![Vec::new(); cfg.n_cores],
        seen,
        now: 0,
    };
    let Some(at) = fork_at else {
        d.steps(STEPS);
        return d.finish(traced);
    };
    d.steps(at);
    let mut fork = d.clone();
    d.steps(STEPS - at);
    fork.steps(STEPS - at);
    assert_eq!(d.m.tx_stats(), fork.m.tx_stats());
    assert_eq!(d.m.vm().redirect_stats(), fork.m.vm().redirect_stats());
    for vm in [d.m.vm(), fork.m.vm()] {
        assert_eq!(vm.check_invariants(), Ok(()));
    }
    let (outcomes, trace, _) = fork.finish(traced);
    let whole = d.finish(traced);
    assert_eq!((outcomes, trace), (whole.0, whole.1), "the clone ended elsewhere");
    whole
}

/// One configuration, traced or not: `(outcome digest, trace digest)`. The
/// outcome digest folds nothing the tracer produced, so it must not depend
/// on `traced`; the trace digest is 0 for an untraced run.
fn run(
    cores: usize,
    scheme: Scheme,
    partial: bool,
    traced: bool,
    fork_at: Option<usize>,
    seen: &mut Seen,
) -> (u64, u64) {
    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = cores;
    cfg.check = CheckLevel::Full;
    cfg.htm.partial_nesting = partial;
    cfg.suv.l1_entries = 4;
    cfg.suv.l2_entries = 16;
    cfg.suv.l2_ways = 2;
    cfg.suv.summary_bits = 256;
    let rng_seed =
        0x5EED_5075 ^ ((cores as u64) << 8) ^ ((scheme as u64) << 4) ^ u64::from(partial);
    let suv = SuvVm::with_pool_pages(cores, &cfg.suv, 1);
    let before = std::mem::take(seen);
    let (outcomes, trace, after) = match scheme {
        Scheme::Suv => drive(&cfg, suv, rng_seed, traced, fork_at, before),
        Scheme::DynTmSuv => {
            drive(&cfg, DynTm::with_suv(suv, cores, &cfg.dyntm), rng_seed, traced, fork_at, before)
        }
    };
    *seen = after;
    (outcomes, trace)
}

/// `(cores, scheme, partial_nesting, outcome digest, trace digest)`.
#[rustfmt::skip]
const PINS: &[(usize, Scheme, bool, u64, u64)] = &[
    (3, Scheme::Suv, false, 0x9f0fe610dd78b02c, 0x731febc0e1f068c9),
    (3, Scheme::Suv, true, 0xe9c66d4666b36b7b, 0xfc7052336b244aed),
    (3, Scheme::DynTmSuv, false, 0x9cd7661d26a08586, 0x3848a72bbb4ec1cb),
    (3, Scheme::DynTmSuv, true, 0x5cfeda75677c29b5, 0x7899bab54d7942e5),
    (16, Scheme::Suv, false, 0xceb672c5a0cd185d, 0x8e1a4ad33d262510),
    (16, Scheme::Suv, true, 0x7c204742bf68b432, 0x8501ac40ff37821e),
    (16, Scheme::DynTmSuv, false, 0xed84b21827abd5f5, 0x656a3cdbd803421a),
    (16, Scheme::DynTmSuv, true, 0x2eb1f2d2ba0c6604, 0x3db777f8a5e698b2),
];

#[test]
fn suv_outcomes_are_pinned_per_configuration() {
    let mut table = String::new();
    let mut seen = Seen::default();
    let mut actual = Vec::new();
    for cores in [3, 16] {
        for scheme in [Scheme::Suv, Scheme::DynTmSuv] {
            for partial in [false, true] {
                let (outcomes, trace) = run(cores, scheme, partial, true, None, &mut seen);
                // Swap logging is off without a tracer; nothing simulated
                // may depend on it.
                let (untraced, _) = run(cores, scheme, partial, false, None, &mut Seen::default());
                assert_eq!(
                    outcomes, untraced,
                    "{cores} cores, {scheme:?}, partial={partial}: tracing changed an outcome"
                );
                writeln!(
                    table,
                    "    ({cores}, Scheme::{scheme:?}, {partial}, {outcomes:#018x}, {trace:#018x}),"
                )
                .expect("writing to a String");
                actual.push((cores, scheme, partial, outcomes, trace));
            }
        }
    }
    // The pin is only worth something if the sequences reach every path.
    let reached = [
        seen.nacks,
        seen.pool_overflows,
        seen.partial_aborts,
        seen.lazy_txs,
        seen.lazy_commit_losses,
        seen.lazy_stores_withheld,
        seen.irrevocable_commits,
        seen.rt_l1_overflows,
        seen.rt_mem_overflows,
        seen.swap_outs,
        seen.mem_lookups,
        seen.redirect_backs,
        seen.false_positives,
    ];
    assert!(reached.iter().all(|&n| n > 0), "a path was never generated: {seen:?}");
    assert_eq!(actual, PINS, "SUV outcomes moved ({seen:?}); the table now reads:\n{table}");
}

#[test]
fn a_machine_cloned_mid_sequence_ends_where_its_original_does() {
    for &(cores, scheme, partial, outcomes, trace) in PINS {
        let forked = run(cores, scheme, partial, true, Some(STEPS / 2), &mut Seen::default());
        assert_eq!(forked, (outcomes, trace), "{cores} cores, {scheme:?}, partial={partial}");
    }
}
