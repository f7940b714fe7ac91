//! Every schedule of one hardware and one software transaction, on the
//! machine that runs.
//!
//! Core 0 runs a fixed program — a hardware transaction, or a
//! non-transactional store — and core 1 a fixed software-tier transaction. A
//! depth-first walk issues their ops in every order, each through
//! [`Run::play`] at its earliest legal cycle, under `CheckLevel::Full`:
//!
//! * an attempt that aborted ([`Outcome::aborted`]) restarts its program;
//! * a NACKed access or a `Busy` software commit retries only once the other
//!   core has moved, or when it is the only core left, so a retry against an
//!   unchanged opponent adds no branch;
//! * a branch in which a core aborts [`MAX_ATTEMPTS`] times is cut and
//!   counted: it starves the other core.
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
const SITE: TxSite = TxSite(1);
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

    /// The op at `pc`, given the values this attempt has read.
    fn op(self, pc: usize, seen: &[(Addr, u64)], aborts: u32) -> Op {
        let body = if self.tier == Tier::NonTx { pc } else { pc.wrapping_sub(1) };
        let Some(&step) = self.body.get(body) else {
            return match (self.tier, pc) {
                (Tier::Hw, 0) => Op::Begin { site: SITE },
                (Tier::Sw, 0) => Op::SwBegin { site: SITE, attempt: aborts + 1 },
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

const SHAPES: [Shape; 7] = [
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
];

impl Shape {
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
}

/// What the walks reached (coverage), and how many schedules ended.
#[derive(Default, Debug)]
struct Tally {
    schedules: u64,
    cut: u64,
    nacks: u64,
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
            Answer::Access(Access::Nacked { .. }) => self.nacks += 1,
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
    lazy: bool,
    node: &mut Node<V>,
    c: CoreId,
    tally: &mut Tally,
) -> bool {
    let program = shape.programs[c];
    let core = &node.cores[c];
    let op = program.op(core.pc, &core.seen, core.aborts);
    let out = node.run.play(&[(c, op)]).expect("the walk issues legal ops only")[0];
    if matches!(op, Op::Begin { .. }) && core.aborts == 0 {
        assert_eq!(out.after, Phase::Hw { depth: 1, irrevocable: false, lazy }, "{}", shape.name);
    }
    node.script.push((c, op));
    node.cores[1 - c].blocked = false;
    tally.saw(&out);
    let core = &mut node.cores[c];
    if out.aborted.is_some() {
        core.aborts += 1;
        (core.pc, core.blocked) = (0, false);
        core.seen.clear();
        if core.aborts == MAX_ATTEMPTS {
            tally.cut += 1;
            return false;
        }
    } else if matches!(
        out.answer,
        Answer::Access(Access::Nacked { .. }) | Answer::SwCommit(SwCommitOutcome::Busy { .. })
    ) {
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

/// Walk every schedule of `shape` from `run`; `lazy` is the mode core 0's
/// first hardware attempt must begin in.
fn walk<V: VersionManager>(
    scheme: &str,
    shape: &Shape,
    lazy: bool,
    run: Run<V>,
    tally: &mut Tally,
) {
    let words = shape.words();
    let serial = [shape.serial(0), shape.serial(1)];
    let mut stack = vec![Node { run, cores: Default::default(), script: Vec::new() }];
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

/// Every shape under one scheme; `train` first aborts core 0's site until
/// DynTM's predictor runs it lazy, the way `scripts::B9` trains it.
fn scheme<V: VersionManager>(
    name: &str,
    vm: V,
    lazy: bool,
    train: bool,
    table: &mut String,
    tally: &mut Tally,
) {
    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = 2;
    cfg.check = CheckLevel::Full;
    let mut base = Run::new(HtmMachine::new(&cfg, vm));
    if train {
        let again = [(0, Op::Begin { site: SITE }), (0, Op::Abort)];
        for _ in 0..cfg.dyntm.lazy_threshold {
            base.play(&again).expect("legal");
        }
    }
    for shape in &SHAPES {
        let mut run = base.clone();
        for a in shape.words() {
            run.m.poke(a, initial(a));
        }
        let (schedules, cut) = (tally.schedules, tally.cut);
        walk(name, shape, lazy, run, tally);
        let (schedules, cut) = (tally.schedules - schedules, tally.cut - cut);
        writeln!(table, "{name:<18} {:<22} {schedules:>5} schedules {cut:>4} cut", shape.name)
            .expect("writing to a String");
        assert!(schedules > 0, "{name}, {}: no schedule finished", shape.name);
    }
}

#[test]
fn every_hw_sw_schedule_ends_in_a_serial_outcome_under_all_six_schemes() {
    let cfg = MachineConfig::small_test();
    let n = 2;
    let suv = SuvVm::new(n, &cfg.suv);
    let dyntm = || DynTm::original(FasTm::new(n, cfg.htm), n, &cfg.dyntm);
    let dyntm_suv = || DynTm::with_suv(suv.clone(), n, &cfg.dyntm);
    let (mut table, mut t) = (String::new(), Tally::default());
    scheme("LogTM-SE", LogTmSe::new(n, cfg.htm), false, false, &mut table, &mut t);
    scheme("FasTM", FasTm::new(n, cfg.htm), false, false, &mut table, &mut t);
    scheme("SUV-TM", suv.clone(), false, false, &mut table, &mut t);
    scheme("Lazy(TCC)", LazyVm::new(n), true, false, &mut table, &mut t);
    scheme("DynTM", dyntm(), false, false, &mut table, &mut t);
    scheme("DynTM trained", dyntm(), true, true, &mut table, &mut t);
    scheme("DynTM+SUV", dyntm_suv(), false, false, &mut table, &mut t);
    scheme("DynTM+SUV trained", dyntm_suv(), true, true, &mut table, &mut t);
    println!("{table}{t:?}");
    // The walk is only worth something if it reaches every cross-tier rule.
    let reached =
        [t.nacks, t.doomed_hw, t.sw_lost_to_hw, t.lost_lazy_commits, t.sw_validation_failures];
    assert!(reached.iter().all(|&n| n > 0), "an outcome was never reached: {t:?}\n{table}");
}
