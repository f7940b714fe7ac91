//! Every schedule of two transactions, on the machine that runs.
//!
//! Core 0 runs a fixed program — a hardware transaction, or a
//! non-transactional store — and core 1 a fixed software-tier or hardware
//! transaction. Core `c`'s transactions begin at site `c + 1`, so DynTM's
//! predictor can run one core's site lazy and leave the other's eager. A
//! depth-first walk issues their ops in every order, each through
//! [`Run::play`] at its earliest legal cycle, under `CheckLevel::Full`:
//!
//! * an attempt that aborted ([`Outcome::aborted`]) restarts its program;
//! * a NACKed access or a `Busy` software commit retries only once the other
//!   core has moved, or when it is the only core left, so a retry against an
//!   unchanged opponent adds no branch;
//! * a branch in which a core aborts [`MAX_ATTEMPTS`] times is cut and
//!   counted: it starves the other core;
//! * a branch that issues [`MAX_REFUSALS`] refused ops in a row, with no
//!   completed op or abort between them, fails as a livelock.
//!
//! At every leaf each touched word must hold what one of the two serial
//! orders leaves there. The walk keeps no visited set: two cores with one
//! transaction each stay within a few thousand schedules per shape.

use super::BASE;
use std::fmt::Write as _;
use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::script::{Answer, Op, Outcome, Phase, Run};
use suv_htm::{Access, CommitOutcome, HtmMachine, SwCommitOutcome, VersionManager};
use suv_trace::FallbackAbortReason;
use suv_types::{Addr, CheckLevel, CoreId, MachineConfig, TxSite};

/// A core's third abort cuts the branch.
const MAX_ATTEMPTS: u32 = 3;
/// Refused ops in a row that make a livelock (the longest streak any shape
/// reaches under every scheme is 16).
const MAX_REFUSALS: u32 = 64;
/// Two words of one line, and a word of the next line.
const A: Addr = BASE;
const A2: Addr = BASE + 8;
const B: Addr = BASE + 64;

/// One access of a program.
#[derive(Clone, Copy)]
enum Step {
    Read(Addr),
    /// Store what this attempt read from the word, plus `k`.
    Add(Addr, u64),
    /// A blind store.
    Put(Addr, u64),
}
use Step::{Add, Put, Read};

#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Hw,
    NonTx,
    Sw,
}

#[derive(Clone, Copy)]
struct Program {
    tier: Tier,
    body: &'static [Step],
}

impl Program {
    /// Ops per attempt: the body, bracketed by begin and commit in a
    /// transaction.
    fn len(self) -> usize {
        self.body.len() + if self.tier == Tier::NonTx { 0 } else { 2 }
    }

    /// Core `c`'s op at `pc`, given the values this attempt has read.
    fn op(self, c: CoreId, pc: usize, seen: &[(Addr, u64)], aborts: u32) -> Op {
        let body = if self.tier == Tier::NonTx { pc } else { pc.wrapping_sub(1) };
        let Some(&step) = self.body.get(body) else {
            return match (self.tier, pc) {
                (Tier::Hw, 0) => Op::Begin { site: site(c) },
                (Tier::Sw, 0) => Op::SwBegin { site: site(c), attempt: aborts + 1 },
                (Tier::Hw, _) => Op::Commit,
                _ => Op::SwCommit,
            };
        };
        let (addr, value) = match step {
            Read(addr) => {
                return match self.tier {
                    Tier::Hw => Op::Load(addr),
                    Tier::NonTx => Op::NonTxLoad(addr),
                    Tier::Sw => Op::SwLoad(addr),
                }
            }
            Add(addr, k) => (addr, read(seen, addr) + k),
            Put(addr, v) => (addr, v),
        };
        match self.tier {
            Tier::Hw => Op::Store(addr, value),
            Tier::NonTx => Op::NonTxStore(addr, value),
            Tier::Sw => Op::SwStore(addr, value),
        }
    }
}

fn site(c: CoreId) -> TxSite {
    TxSite(c as u32 + 1)
}

fn read(words: &[(Addr, u64)], addr: Addr) -> u64 {
    words.iter().find(|w| w.0 == addr).expect("a program stores only a word it read").1
}

/// Two programs, core 0's first.
struct Shape {
    name: &'static str,
    programs: [Program; 2],
}

const fn hw(body: &'static [Step]) -> Program {
    Program { tier: Tier::Hw, body }
}

const fn sw(body: &'static [Step]) -> Program {
    Program { tier: Tier::Sw, body }
}

const SHAPES: [Shape; 12] = [
    Shape {
        name: "+10 / +1, one word",
        programs: [hw(&[Read(A), Add(A, 10)]), sw(&[Read(A), Add(A, 1)])],
    },
    Shape {
        name: "+10 / +1, two words",
        programs: [hw(&[Read(A), Add(A, 10)]), sw(&[Read(A2), Add(A2, 1)])],
    },
    Shape {
        name: "A,B / B,A, one line",
        programs: [
            hw(&[Read(A), Add(A, 10), Read(A2), Add(A2, 10)]),
            sw(&[Read(A2), Add(A2, 1), Read(A), Add(A, 1)]),
        ],
    },
    Shape {
        name: "A,B / B,A, two lines",
        programs: [
            hw(&[Read(A), Add(A, 10), Read(B), Add(B, 10)]),
            sw(&[Read(B), Add(B, 1), Read(A), Add(A, 1)]),
        ],
    },
    Shape { name: "blind HW / +1", programs: [hw(&[Put(A, 100)]), sw(&[Read(A), Add(A, 1)])] },
    Shape { name: "+10 / blind SW", programs: [hw(&[Read(A), Add(A, 10)]), sw(&[Put(A, 100)])] },
    Shape {
        name: "blind non-tx / +1",
        programs: [Program { tier: Tier::NonTx, body: &[Put(A, 100)] }, sw(&[Read(A), Add(A, 1)])],
    },
    Shape {
        name: "HW +10 / +1, one word",
        programs: [hw(&[Read(A), Add(A, 10)]), hw(&[Read(A), Add(A, 1)])],
    },
    Shape {
        name: "HW +10 / +1, two words",
        programs: [hw(&[Read(A), Add(A, 10)]), hw(&[Read(A2), Add(A2, 1)])],
    },
    Shape {
        name: "HW A,B / B,A, two lines",
        programs: [
            hw(&[Read(A), Add(A, 10), Read(B), Add(B, 10)]),
            hw(&[Read(B), Add(B, 1), Read(A), Add(A, 1)]),
        ],
    },
    Shape { name: B9.1, programs: [hw(&[Put(A, 100)]), hw(&[Put(A2, 200)])] },
    Shape {
        name: "HW blind A / +1 A2, A",
        programs: [hw(&[Put(A, 100)]), hw(&[Read(A2), Add(A2, 1), Read(A), Add(A, 1)])],
    },
];

/// B9 (ROADMAP item 2), the one scheme × shape the main walk leaves out: a
/// lazy store loses an eager transaction's committed word.
const B9: (&str, &str) = ("DynTM+SUV trained", "HW blind / blind, two words");

impl Shape {
    /// The core whose site a trained scheme runs lazy: the last hardware
    /// program's.
    fn trained(&self) -> CoreId {
        usize::from(self.programs[1].tier == Tier::Hw)
    }

    /// The words the programs touch, ascending.
    fn words(&self) -> Vec<Addr> {
        let mut words: Vec<Addr> = self
            .programs
            .iter()
            .flat_map(|p| p.body)
            .map(|s| match *s {
                Read(a) | Add(a, _) | Put(a, _) => a,
            })
            .collect();
        words.sort_unstable();
        words.dedup();
        words
    }

    /// What the two programs leave in [`Shape::words`] run one after the
    /// other, `first`'s first.
    fn serial(&self, first: usize) -> Vec<u64> {
        let mut mem: Vec<(Addr, u64)> = self.words().into_iter().map(|a| (a, initial(a))).collect();
        for p in [first, 1 - first] {
            let mut seen = Vec::new();
            for &step in self.programs[p].body {
                let (addr, value) = match step {
                    Read(a) => {
                        seen.push((a, read(&mem, a)));
                        continue;
                    }
                    Add(a, k) => (a, read(&seen, a) + k),
                    Put(a, v) => (a, v),
                };
                mem.iter_mut().find(|w| w.0 == addr).expect("a touched word").1 = value;
            }
        }
        mem.into_iter().map(|w| w.1).collect()
    }
}

/// Distinct per word, so a read of the wrong word shows.
fn initial(addr: Addr) -> u64 {
    (addr - BASE) / 8 + 1
}

/// One core's place in its program.
#[derive(Clone, Default)]
struct Core {
    pc: usize,
    /// What this attempt has read.
    seen: Vec<(Addr, u64)>,
    aborts: u32,
    /// NACKed or `Busy`: waits for the other core to move.
    blocked: bool,
    done: bool,
}

#[derive(Clone)]
struct Node<V> {
    run: Run<V>,
    cores: [Core; 2],
    /// The ops issued so far, for the failure message.
    script: Vec<(CoreId, Op)>,
    /// Refused ops since the last completed op or abort.
    refusals: u32,
}

/// What the walks reached (coverage), and how many schedules ended.
#[derive(Default, Debug)]
struct Tally {
    schedules: u64,
    cut: u64,
    nacks: u64,
    longest_refusal_streak: u32,
    cycle_aborts: u64,
    doomed_hw: u64,
    sw_lost_to_hw: u64,
    lost_lazy_commits: u64,
    sw_validation_failures: u64,
}

impl Tally {
    fn saw(&mut self, out: &Outcome) {
        let (hw, lazy) =
            (out.before != Phase::Sw, matches!(out.before, Phase::Hw { lazy: true, .. }));
        match out.answer {
            Answer::Access(Access::Nacked { must_abort, .. }) => {
                self.nacks += 1;
                self.cycle_aborts += u64::from(must_abort && hw);
            }
            Answer::Access(Access::MustAbort { .. }) if hw => self.doomed_hw += 1,
            Answer::Commit(CommitOutcome::MustAbort { .. }) if lazy => self.lost_lazy_commits += 1,
            Answer::Commit(CommitOutcome::MustAbort { .. }) => self.doomed_hw += 1,
            Answer::SwCommit(SwCommitOutcome::MustAbort { reason, .. }) => match reason {
                FallbackAbortReason::HwConflict => self.sw_lost_to_hw += 1,
                FallbackAbortReason::ValidationFailed => self.sw_validation_failures += 1,
            },
            _ => {}
        }
    }
}

/// Issue core `c`'s next op on `node`. `false` when the branch is cut.
fn advance<V: VersionManager>(
    shape: &Shape,
    lazy: [bool; 2],
    node: &mut Node<V>,
    c: CoreId,
    tally: &mut Tally,
) -> bool {
    let program = shape.programs[c];
    let core = &node.cores[c];
    let op = program.op(c, core.pc, &core.seen, core.aborts);
    let out = node.run.play(&[(c, op)]).expect("the walk issues legal ops only")[0];
    if matches!(op, Op::Begin { .. }) && core.aborts == 0 {
        let lazy = lazy[c];
        assert_eq!(out.after, Phase::Hw { depth: 1, irrevocable: false, lazy }, "{}", shape.name);
    }
    node.script.push((c, op));
    node.cores[1 - c].blocked = false;
    tally.saw(&out);
    let refused = out.aborted.is_none()
        && matches!(
            out.answer,
            Answer::Access(Access::Nacked { .. }) | Answer::SwCommit(SwCommitOutcome::Busy { .. })
        );
    node.refusals = if refused { node.refusals + 1 } else { 0 };
    tally.longest_refusal_streak = tally.longest_refusal_streak.max(node.refusals);
    assert!(
        node.refusals < MAX_REFUSALS,
        "{}: livelock, {MAX_REFUSALS} refused ops in a row; schedule {:?}",
        shape.name,
        node.script
    );
    let core = &mut node.cores[c];
    if out.aborted.is_some() {
        core.aborts += 1;
        (core.pc, core.blocked) = (0, false);
        core.seen.clear();
        if core.aborts == MAX_ATTEMPTS {
            tally.cut += 1;
            return false;
        }
    } else if refused {
        core.blocked = true;
    } else {
        if let (Op::Load(addr) | Op::NonTxLoad(addr) | Op::SwLoad(addr), Some(v)) =
            (op, out.value())
        {
            core.seen.push((addr, v));
        }
        core.pc += 1;
        core.done = core.pc == program.len();
    }
    true
}

/// Walk every schedule of `shape` from `run`; `lazy[c]` is the mode core
/// `c`'s first hardware attempt must begin in.
fn walk<V: VersionManager>(
    scheme: &str,
    shape: &Shape,
    lazy: [bool; 2],
    run: Run<V>,
    tally: &mut Tally,
) {
    let words = shape.words();
    let serial = [shape.serial(0), shape.serial(1)];
    let mut stack = vec![Node { run, cores: Default::default(), script: Vec::new(), refusals: 0 }];
    while let Some(mut node) = stack.pop() {
        let enabled: Vec<CoreId> = (0..2)
            .filter(|&c| {
                let (me, other) = (&node.cores[c], &node.cores[1 - c]);
                !me.done && (!me.blocked || other.done)
            })
            .collect();
        let Some((&last, rest)) = enabled.split_last() else {
            let got: Vec<u64> = words.iter().map(|&a| node.run.m.peek(a)).collect();
            assert!(
                serial.contains(&got),
                "{scheme}, {}: words {words:x?} hold {got:?}, the serial orders leave {serial:?}; \
                 schedule {:?}",
                shape.name,
                node.script
            );
            tally.schedules += 1;
            continue;
        };
        for &c in rest {
            let mut next = node.clone();
            if advance(shape, lazy, &mut next, c, tally) {
                stack.push(next);
            }
        }
        if advance(shape, lazy, &mut node, last, tally) {
            stack.push(node);
        }
    }
}

/// Every shape `keep` lets through under one scheme; `lazy` says every
/// hardware transaction runs lazy, and `train` first aborts the site of
/// [`Shape::trained`] on its core until DynTM's predictor runs it lazy, the
/// way `scripts::B9` trains it.
fn scheme<V: VersionManager>(
    name: &str,
    vm: V,
    (lazy, train): (bool, bool),
    keep: impl Fn(&str, &Shape) -> bool,
    table: &mut String,
    tally: &mut Tally,
) {
    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = 2;
    cfg.check = CheckLevel::Full;
    let base = Run::new(HtmMachine::new(&cfg, vm));
    for shape in SHAPES.iter().filter(|s| keep(name, s)) {
        let mut run = base.clone();
        let t = shape.trained();
        if train {
            let again = [(t, Op::Begin { site: site(t) }), (t, Op::Abort)];
            for _ in 0..cfg.dyntm.lazy_threshold {
                run.play(&again).expect("legal");
            }
        }
        let lazy =
            [0, 1].map(|c| shape.programs[c].tier == Tier::Hw && (lazy || (train && c == t)));
        for a in shape.words() {
            run.m.poke(a, initial(a));
        }
        let (schedules, cut) = (tally.schedules, tally.cut);
        walk(name, shape, lazy, run, tally);
        let (schedules, cut) = (tally.schedules - schedules, tally.cut - cut);
        writeln!(table, "{name:<18} {:<27} {schedules:>5} schedules {cut:>4} cut", shape.name)
            .expect("writing to a String");
        assert!(schedules > 0, "{name}, {}: no schedule finished", shape.name);
    }
}

/// Every scheme: all six untrained, and DynTM and DynTM+SUV trained.
fn all_schemes(keep: impl Fn(&str, &Shape) -> bool + Copy, table: &mut String, t: &mut Tally) {
    let cfg = MachineConfig::small_test();
    let n = 2;
    let suv = SuvVm::new(n, &cfg.suv);
    let dyntm = || DynTm::original(FasTm::new(n, cfg.htm), n, &cfg.dyntm);
    let dyntm_suv = || DynTm::with_suv(suv.clone(), n, &cfg.dyntm);
    let (eager, lazy, trained) = ((false, false), (true, false), (false, true));
    scheme("LogTM-SE", LogTmSe::new(n, cfg.htm), eager, keep, table, t);
    scheme("FasTM", FasTm::new(n, cfg.htm), eager, keep, table, t);
    scheme("SUV-TM", suv.clone(), eager, keep, table, t);
    scheme("Lazy(TCC)", LazyVm::new(n), lazy, keep, table, t);
    scheme("DynTM", dyntm(), eager, keep, table, t);
    scheme("DynTM trained", dyntm(), trained, keep, table, t);
    scheme("DynTM+SUV", dyntm_suv(), eager, keep, table, t);
    scheme("DynTM+SUV trained", dyntm_suv(), trained, keep, table, t);
}

#[test]
fn every_hw_sw_schedule_ends_in_a_serial_outcome_under_all_six_schemes() {
    let (mut table, mut t) = (String::new(), Tally::default());
    all_schemes(|scheme, shape| (scheme, shape.name) != B9, &mut table, &mut t);
    println!("{table}{t:?}");
    // The walk is only worth something if it reaches every conflict rule.
    let reached = [
        t.nacks,
        t.cycle_aborts,
        t.doomed_hw,
        t.sw_lost_to_hw,
        t.lost_lazy_commits,
        t.sw_validation_failures,
    ];
    assert!(reached.iter().all(|&n| n > 0), "an outcome was never reached: {t:?}\n{table}");
}

/// The failing-test-first half of B9 in the walk: some schedule of two
/// blind stores to two words of one line, core 1's run lazy under DynTM+SUV,
/// leaves core 0's committed word overwritten with its old value.
#[test]
#[should_panic(expected = "INV-9")]
fn b9_the_walk_finds_a_lazy_store_losing_an_eager_commit() {
    let (mut table, mut t) = (String::new(), Tally::default());
    all_schemes(|scheme, shape| (scheme, shape.name) == B9, &mut table, &mut t);
}
