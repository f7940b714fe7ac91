//! Fixed-seed differential pin of the machine's conflict searches.
//!
//! Drives [`HtmMachine`] directly — no engine, no workload — with generated
//! operation sequences over a handful of lines and pins an FNV-1a digest of
//! every outcome the machine returns, per configuration. The signatures are
//! 64 bits with 2 hashes, so false positives are the common case and which
//! core answers a request depends on every bit of every level's signature.
//! All runs are under `CheckLevel::Full`.
//!
//! What this covers that no golden does: stacked nesting frames with partial
//! abort (STAMP never nests), the software commit's hardware-conflict and
//! reader-doom searches, irrevocable owners, and the three shapes of the
//! per-core bit vectors (3 and 16 cores in one word, 70 cores in two).
//!
//! A change that moves a digest changed who conflicts with whom. Re-pin only
//! when the change says why; the failure message prints the whole table.
//!
//! The same driver pins `HtmMachine: Clone`: a machine cloned mid-sequence
//! and its original, fed the same remaining operations, must answer alike
//! and agree with a run that never forked.

#![allow(clippy::unreadable_literal)] // the pinned digests are pasted as printed

use std::fmt::Write as _;
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::{Access, CommitOutcome, HtmMachine, SwCommitOutcome, VersionManager};
use suv_trace::FallbackAbortReason;
use suv_types::{CheckLevel, CoreId, Cycle, MachineConfig, TxSite};

const STEPS: usize = 2500;
/// Distinct lines the generated accesses touch: few enough that real
/// conflicts are frequent, enough that 64-bit signatures alias.
const LINES: u64 = 24;
const BASE: u64 = 0x10_0000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scheme {
    LogTm,
    Lazy,
    DynTm,
    /// Forked only, not pinned (last, so the pinned schemes keep their seeds).
    FasTm,
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

    fn addr(&mut self) -> u64 {
        BASE + self.below(LINES) * 64 + self.below(4) * 8
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
    Hw { depth: usize, irrevocable: bool },
    Sw,
}

/// How often each interesting outcome occurred (coverage, not pinned).
#[derive(Default, Debug, Clone)]
struct Seen {
    nacks: u64,
    doomed: u64,
    partial_aborts: u64,
    lazy_commit_losses: u64,
    sw_commits: u64,
    sw_hw_conflicts: u64,
    sw_validation_failures: u64,
    sw_busy: u64,
    irrevocable_commits: u64,
    /// Lazy commits granted the token after another core's isolation window
    /// closed but requested while it was still open: validation must test
    /// each window against the grant time, not the request time.
    lazy_commits_past_a_window: u64,
}

#[derive(Clone)]
struct Driver<V> {
    m: HtmMachine<V>,
    rng: Rng,
    d: Digest,
    phase: Vec<Phase>,
    /// Earliest cycle at which each core may issue its next call.
    ready: Vec<Cycle>,
    /// When each core's last abort or outermost commit stops defending.
    window_end: Vec<Cycle>,
    seen: Seen,
    now: Cycle,
}

impl<V: VersionManager> Driver<V> {
    fn full_abort(&mut self, now: Cycle, c: CoreId) -> Cycle {
        let lat = self.m.abort_tx(now, c);
        self.d.words(&[20, lat]);
        self.phase[c] = Phase::Idle;
        self.window_end[c] = now + lat;
        lat
    }

    fn sw_abort(&mut self, now: Cycle, c: CoreId, reason: FallbackAbortReason) -> Cycle {
        let lat = self.m.abort_sw_tx(now, c, reason);
        self.d.words(&[21, lat]);
        self.phase[c] = Phase::Idle;
        lat
    }

    /// Fold a hardware access outcome and do what the sim layer would.
    fn hw_access(&mut self, now: Cycle, c: CoreId, a: Access, irrevocable: bool) -> Cycle {
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
            Access::MustAbort { latency } | Access::Overflow { latency } => {
                self.seen.doomed += 1;
                latency + self.full_abort(now, c)
            }
        }
    }

    fn step_idle(&mut self, now: Cycle, c: CoreId) -> Cycle {
        let site = TxSite(1 + self.rng.below(6) as u32);
        match self.rng.below(100) {
            0..=59 => {
                self.phase[c] = Phase::Hw { depth: 1, irrevocable: false };
                self.m.begin_tx(now, c, site)
            }
            60..=64 => {
                let taken =
                    self.phase.iter().any(|p| matches!(p, Phase::Hw { irrevocable: true, .. }));
                if taken {
                    return 1;
                }
                self.phase[c] = Phase::Hw { depth: 1, irrevocable: true };
                self.m.begin_tx_irrevocable(now, c, site)
            }
            65..=79 => {
                self.phase[c] = Phase::Sw;
                self.m.begin_sw_tx(now, c, site, 1)
            }
            80..=89 => {
                let a = self.m.nontx_load(now, c, self.rng.addr());
                self.hw_access(now, c, a, false)
            }
            _ => {
                let (addr, v) = (self.rng.addr(), self.rng.next());
                let a = self.m.nontx_store(now, c, addr, v);
                self.hw_access(now, c, a, false)
            }
        }
    }

    fn step_hw(&mut self, now: Cycle, c: CoreId, depth: usize, irrevocable: bool) -> Cycle {
        match self.rng.below(100) {
            0..=34 => {
                let a = self.m.tx_load(now, c, self.rng.addr());
                self.hw_access(now, c, a, irrevocable)
            }
            35..=64 => {
                let (addr, v) = (self.rng.addr(), self.rng.next());
                let a = self.m.tx_store(now, c, addr, v);
                self.hw_access(now, c, a, irrevocable)
            }
            65..=72 if depth < 4 => {
                self.phase[c] = Phase::Hw { depth: depth + 1, irrevocable };
                self.m.begin_tx(now, c, TxSite(7))
            }
            73..=80 if depth > 1 && !irrevocable => match self.m.abort_nested(now, c) {
                Some(lat) => {
                    self.seen.partial_aborts += 1;
                    self.d.words(&[22, lat]);
                    self.phase[c] = Phase::Hw { depth: depth - 1, irrevocable };
                    lat
                }
                None => {
                    self.d.word(23);
                    self.full_abort(now, c)
                }
            },
            81..=84 if !irrevocable => self.full_abort(now, c),
            _ => match self.m.commit_tx(now, c) {
                CommitOutcome::Committed { latency, committing } => {
                    self.d.words(&[10, latency, committing]);
                    self.phase[c] = if depth > 1 {
                        Phase::Hw { depth: depth - 1, irrevocable }
                    } else {
                        self.seen.irrevocable_commits += u64::from(irrevocable);
                        // A lazy commit validates no earlier than this.
                        let grant = now + self.m.config().dyntm.commit_arbitration_cycles;
                        let past = |&end: &Cycle| now < end && end <= grant;
                        if committing > 0 && self.window_end.iter().any(past) {
                            self.seen.lazy_commits_past_a_window += 1;
                        }
                        self.window_end[c] = now + latency;
                        Phase::Idle
                    };
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

    fn step_sw(&mut self, now: Cycle, c: CoreId) -> Cycle {
        let a = match self.rng.below(100) {
            0..=39 => self.m.sw_load(now, c, self.rng.addr()),
            40..=69 => {
                let (addr, v) = (self.rng.addr(), self.rng.next());
                self.m.sw_store(now, c, addr, v)
            }
            70..=74 => return self.sw_abort(now, c, FallbackAbortReason::HwConflict),
            _ => {
                return match self.m.commit_sw_tx(now, c) {
                    SwCommitOutcome::Committed { latency } => {
                        self.seen.sw_commits += 1;
                        self.d.words(&[12, latency]);
                        self.phase[c] = Phase::Idle;
                        latency
                    }
                    SwCommitOutcome::Busy { nacker, latency } => {
                        self.seen.sw_busy += 1;
                        self.d.words(&[13, nacker as u64, latency]);
                        latency
                    }
                    SwCommitOutcome::MustAbort { reason, latency } => {
                        match reason {
                            FallbackAbortReason::HwConflict => self.seen.sw_hw_conflicts += 1,
                            FallbackAbortReason::ValidationFailed => {
                                self.seen.sw_validation_failures += 1;
                            }
                        }
                        self.d.words(&[14, reason.id(), latency]);
                        latency + self.sw_abort(now, c, reason)
                    }
                }
            }
        };
        self.d.access(a);
        match a {
            Access::Done { latency, .. } => latency,
            Access::Nacked { latency, .. } => {
                self.seen.nacks += 1;
                latency
            }
            Access::MustAbort { latency } | Access::Overflow { latency } => {
                self.seen.doomed += 1;
                latency + self.sw_abort(now, c, FallbackAbortReason::HwConflict)
            }
        }
    }

    /// Issue the next `n` generated steps. The machine must see calls in
    /// global time order; a core whose last call has not finished yet sits
    /// the step out.
    fn steps(&mut self, n: usize) {
        let cores = self.phase.len() as u64;
        for _ in 0..n {
            self.now += 1 + self.rng.below(6);
            let (now, c) = (self.now, self.rng.below(cores) as usize);
            if self.ready[c] > now {
                continue;
            }
            self.d.words(&[now, c as u64]);
            let lat = match self.phase[c] {
                Phase::Idle => self.step_idle(now, c),
                Phase::Hw { depth, irrevocable } => self.step_hw(now, c, depth, irrevocable),
                Phase::Sw => self.step_sw(now, c),
            };
            self.ready[c] = now + lat;
        }
    }

    /// Fold the final statistics; the digest of the whole run.
    fn finish(mut self) -> (u64, Seen) {
        let s = self.m.tx_stats();
        self.d.words(&[
            s.commits,
            s.aborts,
            s.nacks_received,
            s.cycle_aborts,
            s.lazy_validation_aborts,
            s.sw_commits,
            s.sw_aborts,
            s.hw_sw_conflicts,
        ]);
        (self.d.0, self.seen)
    }
}

/// One configuration's digest over `vm`; with `fork_at`, the machine is
/// cloned after that many steps and the clone fed the same remaining steps:
/// it must end where the original does.
fn drive<V: VersionManager + Clone>(
    cfg: &MachineConfig,
    vm: V,
    rng_seed: u64,
    fork_at: Option<usize>,
    seen: Seen,
) -> (u64, Seen) {
    let mut m = HtmMachine::new(cfg, vm);
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
        window_end: vec![0; cfg.n_cores],
        seen,
        now: 0,
    };
    let Some(at) = fork_at else {
        d.steps(STEPS);
        return d.finish();
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
    assert_eq!(d.d.0, fork.d.0, "the clone answered differently from its original");
    d.finish()
}

/// One configuration's digest; `seen` accumulates across configurations.
fn run(
    cores: usize,
    scheme: Scheme,
    partial: bool,
    perfect: bool,
    fork_at: Option<usize>,
    seen: Seen,
) -> (u64, Seen) {
    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = cores;
    cfg.check = CheckLevel::Full;
    cfg.htm.signature_bits = 64;
    cfg.htm.signature_hashes = 2;
    cfg.htm.partial_nesting = partial;
    cfg.htm.perfect_signatures = perfect;
    let rng_seed = 0x5EED_0000
        ^ ((cores as u64) << 8)
        ^ ((scheme as u64) << 4)
        ^ (u64::from(partial) << 1)
        ^ u64::from(perfect);
    let fastm = FasTm::new(cores, cfg.htm);
    match scheme {
        Scheme::LogTm => drive(&cfg, LogTmSe::new(cores, cfg.htm), rng_seed, fork_at, seen),
        Scheme::Lazy => drive(&cfg, LazyVm::new(cores), rng_seed, fork_at, seen),
        Scheme::DynTm => {
            drive(&cfg, DynTm::original(fastm, cores, &cfg.dyntm), rng_seed, fork_at, seen)
        }
        Scheme::FasTm => drive(&cfg, fastm, rng_seed, fork_at, seen),
    }
}

/// `(cores, scheme, partial_nesting, perfect_signatures, digest)`.
#[rustfmt::skip]
const PINS: &[(usize, Scheme, bool, bool, u64)] = &[
    (3, Scheme::LogTm, false, false, 0x810c99772c158cf3),
    (3, Scheme::LogTm, false, true, 0x8418c8814f895a9f),
    (3, Scheme::LogTm, true, false, 0x382b2c8def82abff),
    (3, Scheme::LogTm, true, true, 0xd1c5afdd2a884ec2),
    (3, Scheme::Lazy, false, false, 0x3b268e803433439a),
    (3, Scheme::Lazy, false, true, 0x57beee39e7595468),
    (3, Scheme::Lazy, true, false, 0x349a911878f8c034),
    (3, Scheme::Lazy, true, true, 0xc9bf2e56fe3b736b),
    (3, Scheme::DynTm, false, false, 0x4b0bd03a26f94db0),
    (3, Scheme::DynTm, false, true, 0x54dd4213efe48cc8),
    (3, Scheme::DynTm, true, false, 0xa52f3b1267166351),
    (3, Scheme::DynTm, true, true, 0x6d1beae540f0adae),
    (16, Scheme::LogTm, false, false, 0xc4d009ea6b79f10e),
    (16, Scheme::LogTm, false, true, 0xfac3ef6d0cb69d4f),
    (16, Scheme::LogTm, true, false, 0x94eb267a7dfbd843),
    (16, Scheme::LogTm, true, true, 0xbfdd17f66ccf6cce),
    (16, Scheme::Lazy, false, false, 0x9640fd67ce0ef521),
    (16, Scheme::Lazy, false, true, 0x5cb43dc8319348ba),
    (16, Scheme::Lazy, true, false, 0x8ad669de4ff3cd58),
    (16, Scheme::Lazy, true, true, 0xbace7b93817d9bc6),
    (16, Scheme::DynTm, false, false, 0xd859cf29ed0fc24a),
    (16, Scheme::DynTm, false, true, 0x89bae0cf383f430a),
    (16, Scheme::DynTm, true, false, 0x71b349238e73aee3),
    (16, Scheme::DynTm, true, true, 0x3fda766c0604cac2),
    (70, Scheme::LogTm, false, false, 0x1c3155e674e4ffcf),
    (70, Scheme::LogTm, false, true, 0x10d118d39c4b024b),
    (70, Scheme::LogTm, true, false, 0xe34824434ba3ee6a),
    (70, Scheme::LogTm, true, true, 0xa9a64c0a5d91d952),
    (70, Scheme::Lazy, false, false, 0x01d40fa79ddb9651),
    (70, Scheme::Lazy, false, true, 0xf38ba183a8646ee4),
    (70, Scheme::Lazy, true, false, 0x9bf640913b742d92),
    (70, Scheme::Lazy, true, true, 0xcc9d9dc265ebeb99),
    (70, Scheme::DynTm, false, false, 0x9d599789615315a4),
    (70, Scheme::DynTm, false, true, 0x4deff12606841c0b),
    (70, Scheme::DynTm, true, false, 0xd0bf34f479247fc3),
    (70, Scheme::DynTm, true, true, 0xb7aefb9ec0a5f5cf),
];

#[test]
fn machine_outcomes_are_pinned_per_configuration() {
    let mut table = String::new();
    let mut total = Seen::default();
    let mut actual = Vec::new();
    for cores in [3, 16, 70] {
        for scheme in [Scheme::LogTm, Scheme::Lazy, Scheme::DynTm] {
            for partial in [false, true] {
                for perfect in [false, true] {
                    let (digest, seen) = run(cores, scheme, partial, perfect, None, total);
                    total = seen;
                    writeln!(
                        table,
                        "    ({cores}, Scheme::{scheme:?}, {partial}, {perfect}, {digest:#018x}),"
                    )
                    .expect("writing to a String");
                    actual.push((cores, scheme, partial, perfect, digest));
                }
            }
        }
    }
    // The pin is only worth something if the sequences reach every search.
    let reached = [
        total.nacks,
        total.doomed,
        total.partial_aborts,
        total.lazy_commit_losses,
        total.sw_commits,
        total.sw_hw_conflicts,
        total.sw_validation_failures,
        total.sw_busy,
        total.irrevocable_commits,
        total.lazy_commits_past_a_window,
    ];
    assert!(reached.iter().all(|&n| n > 0), "an outcome was never generated: {total:?}");
    assert_eq!(actual, PINS, "machine outcomes moved; the table now reads:\n{table}");
}

#[test]
fn a_machine_cloned_mid_sequence_ends_where_its_original_does() {
    for scheme in [Scheme::LogTm, Scheme::FasTm, Scheme::Lazy, Scheme::DynTm] {
        for (cores, partial) in [(3, true), (16, false), (70, true)] {
            let whole = run(cores, scheme, partial, false, None, Seen::default()).0;
            let forked = run(cores, scheme, partial, false, Some(STEPS / 2), Seen::default()).0;
            assert_eq!(forked, whole, "{cores} cores, {scheme:?}: forking changed the run");
        }
    }
}
