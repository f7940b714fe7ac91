//! The conflict searches, pinned under generated nested, software and
//! irrevocable sequences.
//!
//! Accesses fall on a handful of lines; the signatures are 64 bits with 2
//! hashes, so false positives are the common case and which core answers a
//! request depends on every bit of every level's signature.
//!
//! What this covers that no golden does: stacked nesting frames with partial
//! abort (STAMP never nests), the software commit's hardware-conflict and
//! reader-doom searches, irrevocable owners, and the three shapes of the
//! per-core bit vectors (3 and 16 cores in one word, 70 cores in two).
//!
//! The main rows spread their lines over as many L1 sets; the one-set rows
//! put every line in one set of the two-way L1, so speculative lines are
//! evicted and FasTM (alone and under DynTM) takes its degenerate path, one
//! of them with a degenerate-mode log budget that binds.

use super::{drive, pin_row, Digest, Rng, BASE};
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::script::{Answer, Op, Outcome, Phase, Run};
use suv_htm::{Access, CommitOutcome, HtmMachine, SwCommitOutcome, VersionManager};
use suv_trace::FallbackAbortReason;
use suv_types::{CheckLevel, CoreId, Cycle, MachineConfig, TxSite};

const STEPS: usize = 2500;
/// Distinct lines the generated accesses touch: few enough that real
/// conflicts are frequent, enough that 64-bit signatures alias.
const LINES: u64 = 24;
/// The small-test L1 (4 KiB, two ways) indexes its 32 sets by these bits
/// of a line address: lines this far apart share one set.
const ONE_SET: u64 = 2048;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scheme {
    LogTm,
    Lazy,
    DynTm,
    /// Last, so the schemes pinned before it keep their seeds.
    FasTm,
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
    overflows: u64,
    speculative_evictions: u64,
}

#[derive(Clone)]
struct Mix {
    /// Bytes between two of the lines the accesses touch.
    stride: u64,
    /// When each core's last abort or outermost commit stops defending.
    window_end: Vec<Cycle>,
    seen: Seen,
}

impl Mix {
    fn addr(&self, rng: &mut Rng) -> u64 {
        BASE + rng.below(LINES) * self.stride + rng.below(4) * 8
    }
}

impl super::Mix for Mix {
    const GAP: u64 = 6;

    fn draw<V: VersionManager>(&mut self, rng: &mut Rng, run: &Run<V>, c: CoreId) -> Option<Op> {
        Some(match run.phase(c) {
            Phase::Idle => {
                let site = TxSite(1 + rng.below(6) as u32);
                match rng.below(100) {
                    0..=59 => Op::Begin { site },
                    60..=64 if run.irrevocable_owner().is_some() => return None,
                    60..=64 => Op::BeginIrrevocable { site },
                    65..=79 => Op::SwBegin { site, attempt: 1 },
                    80..=89 => Op::NonTxLoad(self.addr(rng)),
                    _ => Op::NonTxStore(self.addr(rng), rng.next()),
                }
            }
            Phase::Hw { depth, irrevocable, .. } => match rng.below(100) {
                0..=34 => Op::Load(self.addr(rng)),
                35..=64 => Op::Store(self.addr(rng), rng.next()),
                65..=72 if depth < 4 => Op::NestedBegin { site: TxSite(7) },
                73..=80 if depth > 1 && !irrevocable => Op::AbortNested,
                81..=84 if !irrevocable => Op::Abort,
                _ => Op::Commit,
            },
            Phase::Sw => match rng.below(100) {
                0..=39 => Op::SwLoad(self.addr(rng)),
                40..=69 => Op::SwStore(self.addr(rng), rng.next()),
                70..=74 => Op::SwAbort { reason: FallbackAbortReason::HwConflict },
                _ => Op::SwCommit,
            },
        })
    }

    fn saw<V: VersionManager>(
        &mut self,
        _: &Run<V>,
        now: Cycle,
        c: CoreId,
        _: Op,
        out: &Outcome,
        _: &mut Digest,
    ) {
        let s = &mut self.seen;
        match out.answer {
            Answer::Access(Access::Nacked { .. }) => s.nacks += 1,
            Answer::Access(Access::MustAbort { .. }) => s.doomed += 1,
            Answer::Access(Access::Overflow { .. }) => s.overflows += 1,
            Answer::NestedAbort(Some(_)) => s.partial_aborts += 1,
            Answer::Commit(CommitOutcome::MustAbort { .. }) => s.lazy_commit_losses += 1,
            Answer::Commit(CommitOutcome::Committed { latency, committing })
                if out.after == Phase::Idle =>
            {
                s.irrevocable_commits +=
                    u64::from(matches!(out.before, Phase::Hw { irrevocable: true, .. }));
                // A lazy commit validates no earlier than this.
                let grant = now + suv_types::config::COMMIT_ARBITRATION_CYCLES;
                let past = |&end: &Cycle| now < end && end <= grant;
                if committing > 0 && self.window_end.iter().any(past) {
                    s.lazy_commits_past_a_window += 1;
                }
                self.window_end[c] = now + latency;
            }
            Answer::SwCommit(SwCommitOutcome::Committed { .. }) => s.sw_commits += 1,
            Answer::SwCommit(SwCommitOutcome::Busy { .. }) => s.sw_busy += 1,
            Answer::SwCommit(SwCommitOutcome::MustAbort { reason, .. }) => match reason {
                FallbackAbortReason::HwConflict => s.sw_hw_conflicts += 1,
                FallbackAbortReason::ValidationFailed => s.sw_validation_failures += 1,
            },
            _ => {}
        }
        if let (Phase::Hw { .. }, Some(window)) = (out.before, out.aborted) {
            self.window_end[c] = now + window;
        }
    }

    fn finish<V: VersionManager>(&mut self, m: &mut HtmMachine<V>, d: &mut Digest) -> u64 {
        let s = m.tx_stats();
        d.words(&[
            s.commits,
            s.aborts,
            s.nacks_received,
            s.cycle_aborts,
            s.lazy_validation_aborts,
            s.sw_commits,
            s.sw_aborts,
            s.hw_sw_conflicts,
        ]);
        self.seen.speculative_evictions += m.overflow_stats().speculative_evictions;
        0
    }
}

/// Where a row's lines sit, and FasTM's degenerate-mode log budget in
/// bytes (0 = unbounded).
#[derive(Clone, Copy)]
struct Layout {
    stride: u64,
    log_bytes: u64,
}

/// The main rows' layout: each line in a set of its own.
const SPREAD: Layout = Layout { stride: 64, log_bytes: 0 };

/// One configuration's digest; `seen` accumulates across configurations.
fn run(
    (cores, scheme, partial, perfect): (usize, Scheme, bool, bool),
    layout: Layout,
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
    let mix = Mix { stride: layout.stride, window_end: vec![0; cores], seen };
    let fastm = FasTm::new(cores, layout.log_bytes);
    let lines = (LINES, layout.stride);
    macro_rules! over {
        ($vm:expr) => {
            drive(HtmMachine::new(&cfg, $vm), lines, rng_seed, mix, STEPS, fork_at)
        };
    }
    let (digest, _, mix) = match scheme {
        Scheme::LogTm => over!(LogTmSe::new(cores, 0)),
        Scheme::Lazy => over!(LazyVm::new(cores, 0)),
        Scheme::DynTm => over!(DynTm::original(fastm, cores, 0)),
        Scheme::FasTm => over!(fastm),
    };
    (digest, mix.seen)
}

/// `(cores, scheme, partial_nesting, perfect_signatures, digest)`.
#[rustfmt::skip]
const PINS: &[(usize, Scheme, bool, bool, u64)] = &[
    (3, Scheme::LogTm, false, false, 0x810c99772c158cf3),
    (3, Scheme::LogTm, false, true, 0x8418c8814f895a9f),
    (3, Scheme::LogTm, true, false, 0x382b2c8def82abff),
    (3, Scheme::LogTm, true, true, 0xd1c5afdd2a884ec2),
    (3, Scheme::Lazy, false, false, 0xb5b0d26784c6c5fa),
    (3, Scheme::Lazy, false, true, 0xbf46f388ab1195bd),
    (3, Scheme::Lazy, true, false, 0xa627d6b565c52991),
    (3, Scheme::Lazy, true, true, 0x220ec1359be74672),
    (3, Scheme::DynTm, false, false, 0x4b0bd03a26f94db0),
    (3, Scheme::DynTm, false, true, 0x54dd4213efe48cc8),
    (3, Scheme::DynTm, true, false, 0xa52f3b1267166351),
    (3, Scheme::DynTm, true, true, 0x6d1beae540f0adae),
    (3, Scheme::FasTm, false, false, 0x206c75d2b555acfc),
    (3, Scheme::FasTm, false, true, 0x1bc94f786fba7c1f),
    (3, Scheme::FasTm, true, false, 0x6301ac550b520734),
    (3, Scheme::FasTm, true, true, 0x05f6306edb62cc09),
    (16, Scheme::LogTm, false, false, 0xc4d009ea6b79f10e),
    (16, Scheme::LogTm, false, true, 0xfac3ef6d0cb69d4f),
    (16, Scheme::LogTm, true, false, 0x94eb267a7dfbd843),
    (16, Scheme::LogTm, true, true, 0xbfdd17f66ccf6cce),
    (16, Scheme::Lazy, false, false, 0x60d169d90f69e395),
    (16, Scheme::Lazy, false, true, 0x0141d9c6d18c7159),
    (16, Scheme::Lazy, true, false, 0xb24cc921ca3d93d2),
    (16, Scheme::Lazy, true, true, 0x79bcaa005a21d5e8),
    (16, Scheme::DynTm, false, false, 0xd859cf29ed0fc24a),
    (16, Scheme::DynTm, false, true, 0x89bae0cf383f430a),
    (16, Scheme::DynTm, true, false, 0x71b349238e73aee3),
    (16, Scheme::DynTm, true, true, 0x3fda766c0604cac2),
    (16, Scheme::FasTm, false, false, 0xe88a61e48fd2d5ee),
    (16, Scheme::FasTm, false, true, 0x47ceef2527d70756),
    (16, Scheme::FasTm, true, false, 0xcd59e54ffcff8a34),
    (16, Scheme::FasTm, true, true, 0x3ef504e581d5c53b),
    (70, Scheme::LogTm, false, false, 0x1c3155e674e4ffcf),
    (70, Scheme::LogTm, false, true, 0x10d118d39c4b024b),
    (70, Scheme::LogTm, true, false, 0xe34824434ba3ee6a),
    (70, Scheme::LogTm, true, true, 0xa9a64c0a5d91d952),
    (70, Scheme::Lazy, false, false, 0x576df7f2f25766c8),
    (70, Scheme::Lazy, false, true, 0xc23cc2c5356c647b),
    (70, Scheme::Lazy, true, false, 0x8f7978f071699837),
    (70, Scheme::Lazy, true, true, 0x8973fed02766e2e5),
    (70, Scheme::DynTm, false, false, 0x9d599789615315a4),
    (70, Scheme::DynTm, false, true, 0x4deff12606841c0b),
    (70, Scheme::DynTm, true, false, 0xd0bf34f479247fc3),
    (70, Scheme::DynTm, true, true, 0xb7aefb9ec0a5f5cf),
    (70, Scheme::FasTm, false, false, 0x75226f687f712dae),
    (70, Scheme::FasTm, false, true, 0x2655dc37ce4b5e7b),
    (70, Scheme::FasTm, true, false, 0x88eedec27214bc90),
    (70, Scheme::FasTm, true, true, 0xf0b8ec910e56e490),
];

#[test]
fn machine_outcomes_are_pinned_per_configuration() {
    let mut table = String::new();
    let mut total = Seen::default();
    let mut actual = Vec::new();
    for cores in [3, 16, 70] {
        for scheme in [Scheme::LogTm, Scheme::Lazy, Scheme::DynTm, Scheme::FasTm] {
            for partial in [false, true] {
                for perfect in [false, true] {
                    let row = (cores, scheme, partial, perfect);
                    let (digest, seen) = run(row, SPREAD, None, total);
                    total = seen;
                    let config = format!("{cores}, Scheme::{scheme:?}, {partial}, {perfect}");
                    pin_row(&mut table, &config, &[digest]);
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

/// `(cores, scheme, partial_nesting, log_bytes, digest)` with every line in
/// one L1 set.
#[rustfmt::skip]
const ONE_SET_PINS: &[(usize, Scheme, bool, u64, u64)] = &[
    (3, Scheme::FasTm, false, 0, 0xe31b423e298a65d9),
    (3, Scheme::FasTm, true, 0, 0x5ed7a21c937b847d),
    (16, Scheme::FasTm, false, 0, 0x7b01eefaf8c32175),
    (16, Scheme::FasTm, true, 0, 0x58374b2f556b1cbb),
    (3, Scheme::DynTm, false, 0, 0x2b4dafc885a2cb7f),
    (3, Scheme::DynTm, true, 0, 0x59f45e04fcf5f5cf),
    (16, Scheme::DynTm, false, 0, 0xa68c1ce971ea1410),
    (16, Scheme::DynTm, true, 0, 0x315193c3d627ae9d),
    (16, Scheme::FasTm, false, 144, 0x252b7283ea33585b),
];

#[test]
fn speculative_evictions_are_pinned_with_every_line_in_one_set() {
    let mut table = String::new();
    let mut actual = Vec::new();
    let rows = [Scheme::FasTm, Scheme::DynTm]
        .into_iter()
        .flat_map(|s| [3, 16].map(|c| (c, s)))
        .flat_map(|(c, s)| [false, true].map(|p| (c, s, p, 0)))
        .chain([(16, Scheme::FasTm, false, 144)]);
    for (cores, scheme, partial, log_bytes) in rows {
        let layout = Layout { stride: ONE_SET, log_bytes };
        let (digest, seen) = run((cores, scheme, partial, false), layout, None, Seen::default());
        let config = format!("{cores}, Scheme::{scheme:?}, {partial}, {log_bytes}");
        assert!(seen.speculative_evictions > 0, "{config}: no speculative line evicted");
        assert!(log_bytes == 0 || seen.overflows > 0, "{config}: the log budget never bound");
        pin_row(&mut table, &config, &[digest]);
        actual.push((cores, scheme, partial, log_bytes, digest));
    }
    assert_eq!(actual, ONE_SET_PINS, "one-set outcomes moved; the table now reads:\n{table}");
}

#[test]
fn a_machine_cloned_mid_sequence_ends_where_its_original_does() {
    for scheme in [Scheme::LogTm, Scheme::FasTm, Scheme::Lazy, Scheme::DynTm] {
        for (cores, partial) in [(3, true), (16, false), (70, true)] {
            let row = (cores, scheme, partial, false);
            let whole = run(row, SPREAD, None, Seen::default()).0;
            let forked = run(row, SPREAD, Some(STEPS / 2), Seen::default()).0;
            assert_eq!(forked, whole, "{cores} cores, {scheme:?}: forking changed the run");
        }
    }
}
