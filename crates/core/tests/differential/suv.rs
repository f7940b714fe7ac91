//! SUV's redirect bookkeeping, pinned under generated nested, lazy,
//! irrevocable and dry-pool sequences.
//!
//! Over a [`SuvVm`] (alone and as DynTM's version manager) the digests cover
//! everything the redirect table can influence: every `Access` /
//! `CommitOutcome`, the redirect-table overflow pair the machine collects at
//! each transaction end, the final [`RedirectStats`], the trace stream
//! (which orders every `RedirectLookup` / `PoolAlloc` / `RedirectBack` /
//! `TableSwapOut`) and the swapped-out lines themselves. Under
//! `CheckLevel::Full` the INV-5..8 / 10 / 12 audits run at every
//! transaction boundary.
//!
//! The table is tiny (4-entry first level, 16-entry 2-way second level) and
//! the pool is one page, so first-level evictions, swap-outs to memory,
//! memory searches, `Overflow` stores and redirect-back all happen within a
//! few thousand steps; under DynTM+SUV repeatedly aborting sites turn lazy,
//! which is the only way two cores hold transients on one line.
//!
//! One interleaving is kept out of the sequences because the machine does not
//! isolate it (B9, ROADMAP item 2): a *lazy* transaction's store skips the
//! conflict check, so it may write a line a live *eager* transaction has
//! already written; if the eager one then commits first, the lazy one's pool
//! slot — seeded before that commit — replaces the line and the eager words
//! are lost, which the shadow oracle reports as INV-9. The mix knows each
//! transaction's mode and write set and draws a load instead (which the
//! eager writer NACKs). `scripts::B9` is that interleaving, checked in.
//!
//! [`RedirectStats`]: suv_types::RedirectStats

use super::{drive, pin_row, Digest, Rng, BASE};
use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::script::{Answer, Op, Outcome, Phase, Run};
use suv_htm::{Access, CommitOutcome, HtmMachine, VersionManager};
use suv_trace::{TraceEvent, Tracer};
use suv_types::{line_of, CheckLevel, CoreId, Cycle, MachineConfig, TxSite};

const STEPS: usize = 6000;
/// A few hot lines for conflicts and redirect-back, and a cold range wider
/// than the one-page pool (64 slots) so that it runs dry.
const HOT_LINES: u64 = 6;
const LINES: u64 = 160;
/// Retains every event of a run (a run emits well under this many).
const RING: usize = 1 << 18;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scheme {
    Suv,
    DynTmSuv,
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
struct Mix {
    /// Each core's previously drawn line.
    last: Vec<u64>,
    /// The line addresses each core's running transaction has stored to.
    written: Vec<Vec<u64>>,
    traced: bool,
    seen: Seen,
}

impl Mix {
    /// Runs of the same line are common, as in the workloads: a third of
    /// the draws repeat the core's previous line.
    fn addr(&mut self, rng: &mut Rng, c: CoreId) -> u64 {
        let line = match rng.below(6) {
            0 | 1 => self.last[c],
            2 | 3 => rng.below(HOT_LINES),
            _ => rng.below(LINES),
        };
        self.last[c] = line;
        BASE + line * 64 + rng.below(4) * 8
    }

    /// Has a live eager transaction on another core stored to `addr`'s line?
    fn eagerly_written_elsewhere<V: VersionManager>(
        &self,
        run: &Run<V>,
        c: CoreId,
        addr: u64,
    ) -> bool {
        self.written.iter().enumerate().any(|(o, w)| {
            o != c
                && matches!(run.phase(o), Phase::Hw { lazy: false, .. })
                && w.contains(&line_of(addr))
        })
    }
}

impl super::Mix for Mix {
    const GAP: u64 = 4;

    fn draw<V: VersionManager>(&mut self, rng: &mut Rng, run: &Run<V>, c: CoreId) -> Option<Op> {
        Some(match run.phase(c) {
            Phase::Idle => {
                let site = TxSite(1 + rng.below(6) as u32);
                match rng.below(100) {
                    0..=69 => Op::Begin { site },
                    70..=75 if run.irrevocable_owner().is_some() => return None,
                    70..=75 => Op::BeginIrrevocable { site },
                    76..=87 => Op::NonTxLoad(self.addr(rng, c)),
                    _ => Op::NonTxStore(self.addr(rng, c), rng.next()),
                }
            }
            Phase::Hw { depth, irrevocable, lazy } => match rng.below(100) {
                0..=29 => Op::Load(self.addr(rng, c)),
                30..=69 => {
                    let (addr, v) = (self.addr(rng, c), rng.next());
                    if lazy && self.eagerly_written_elsewhere(run, c, addr) {
                        self.seen.lazy_stores_withheld += 1;
                        Op::Load(addr)
                    } else {
                        Op::Store(addr, v)
                    }
                }
                70..=76 if depth < 4 => Op::NestedBegin { site: TxSite(7) },
                77..=83 if depth > 1 && !irrevocable => Op::AbortNested,
                84..=87 if !irrevocable => Op::Abort,
                _ => Op::Commit,
            },
            Phase::Sw => unreachable!("this mix begins no software transaction"),
        })
    }

    fn saw<V: VersionManager>(
        &mut self,
        run: &Run<V>,
        _: Cycle,
        c: CoreId,
        op: Op,
        out: &Outcome,
        d: &mut Digest,
    ) {
        let s = &mut self.seen;
        match (op, out.answer) {
            (Op::Store(addr, _), Answer::Access(Access::Done { .. })) => {
                self.written[c].push(line_of(addr));
            }
            (_, Answer::Access(Access::Nacked { .. })) => s.nacks += 1,
            (_, Answer::Access(Access::Overflow { .. })) => s.pool_overflows += 1,
            (_, Answer::NestedAbort(Some(_))) => s.partial_aborts += 1,
            (_, Answer::Commit(CommitOutcome::MustAbort { .. })) => s.lazy_commit_losses += 1,
            (_, Answer::Commit(CommitOutcome::Committed { .. })) if out.after == Phase::Idle => {
                s.irrevocable_commits +=
                    u64::from(matches!(out.before, Phase::Hw { irrevocable: true, .. }));
            }
            _ => {}
        }
        // A transaction ended: fold the redirect-table overflow pair the
        // machine took from the version manager (as running totals).
        if out.before != Phase::Idle && out.after == Phase::Idle {
            let o = run.m.overflow_stats();
            d.words(&[o.rt_l1_overflow_txns, o.rt_full_overflow_txns]);
            self.written[c].clear();
        }
    }

    /// The final statistics, then the trace: its hash and every swapped-out
    /// line.
    fn finish<V: VersionManager>(&mut self, m: &mut HtmMachine<V>, d: &mut Digest) -> u64 {
        let tx = m.tx_stats();
        d.words(&[tx.commits, tx.aborts, tx.nacks_received, tx.lazy_validation_aborts]);
        let rt = m.vm().redirect_stats();
        d.words(&[
            rt.l1_lookups,
            rt.l1_misses,
            rt.mem_lookups,
            rt.entries_added,
            rt.entries_redirected_back,
            rt.summary_false_positives,
            rt.summary_filtered,
        ]);
        let ovf = m.overflow_stats();
        let s = &mut self.seen;
        s.lazy_txs += m.lazy_txns();
        s.rt_l1_overflows += ovf.rt_l1_overflow_txns;
        s.rt_mem_overflows += ovf.rt_full_overflow_txns;
        s.mem_lookups += rt.mem_lookups;
        s.redirect_backs += rt.entries_redirected_back;
        s.false_positives += rt.summary_false_positives;

        let out = m.take_tracer().finish();
        if !self.traced {
            return 0;
        }
        assert_eq!(out.dropped, 0, "the ring must retain the whole run");
        let mut trace = Digest::new();
        trace.words(&[out.hash, out.events]);
        for rec in &out.records {
            if let TraceEvent::TableSwapOut { line } = rec.ev {
                s.swap_outs += 1;
                trace.words(&[rec.t, rec.core as u64, line]);
            }
        }
        trace.0
    }
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
    let mix = Mix {
        last: vec![0; cores],
        written: vec![Vec::new(); cores],
        traced,
        seen: std::mem::take(seen),
    };
    let suv = SuvVm::new(cores, &cfg.suv, 1);
    macro_rules! over {
        ($vm:expr) => {{
            let mut m = HtmMachine::new(&cfg, $vm);
            if traced {
                m.set_tracer(Tracer::ring(RING));
            }
            drive(m, (LINES, 64), rng_seed, mix, STEPS, fork_at)
        }};
    }
    let (outcomes, trace, mix) = match scheme {
        Scheme::Suv => over!(suv),
        Scheme::DynTmSuv => over!(DynTm::with_suv(suv, cores)),
    };
    *seen = mix.seen;
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
                let config = format!("{cores}, Scheme::{scheme:?}, {partial}");
                pin_row(&mut table, &config, &[outcomes, trace]);
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
