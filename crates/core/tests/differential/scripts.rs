//! Hand-written scripts: one known-bad interleaving, and every bad op.

use suv_core::SuvVm;
use suv_htm::dyntm::DynTm;
use suv_htm::fastm::FasTm;
use suv_htm::lazy::LazyVm;
use suv_htm::logtm::LogTmSe;
use suv_htm::script::{Illegal, Op, Phase, Run};
use suv_htm::{HtmMachine, VersionManager};
use suv_trace::FallbackAbortReason;
use suv_types::{CheckLevel, CoreId, MachineConfig, TxSite};

/// A line nobody else touches.
const L: u64 = super::BASE;
const SITE: TxSite = TxSite(1);
/// The site the B9 script trains lazy.
const HOT: TxSite = TxSite(2);

fn config() -> MachineConfig {
    let mut cfg = MachineConfig::small_test();
    cfg.n_cores = 2;
    cfg.check = CheckLevel::Full;
    cfg
}

/// B9 (ROADMAP item 2): under DynTM+SUV a lazy store can lose an eager
/// transaction's committed words. `HOT` aborts until the predictor runs it
/// lazy; eager `Te` on core 0 and lazy `Tl` on core 1 then store different
/// words of `L` — the lazy store skips the conflict check — and commit in
/// that order. Neither commit is refused; `Tl`'s pool slot, seeded before
/// `Te` committed, replaces the line, and the last op reads `Te`'s word back.
const B9: &[(CoreId, Op)] = &[
    (1, Op::Begin { site: HOT }),
    (1, Op::Abort),
    (1, Op::Begin { site: HOT }),
    (1, Op::Abort),
    (0, Op::Begin { site: SITE }),
    (1, Op::Begin { site: HOT }),
    (0, Op::Store(L, 1)),
    (1, Op::Store(L + 8, 2)),
    (0, Op::Commit),
    (1, Op::Commit),
    (0, Op::NonTxLoad(L)),
];

/// The failing-test-first half of B9: the shadow oracle sees core 0 read 0
/// where `Te` committed 1. The fix turns this into a refused store or commit.
#[test]
#[should_panic(expected = "INV-9")]
fn b9_a_lazy_store_loses_an_eager_commit_under_dyntm_suv() {
    let cfg = config();
    let vm = DynTm::with_suv(SuvVm::new(2, &cfg.suv), 2, &cfg.dyntm);
    let mut run = Run::new(HtmMachine::new(&cfg, vm));
    let (interleaving, read_back) = B9.split_at(B9.len() - 1);
    let out = run.play(interleaving).expect("every op of the script is legal");
    assert_eq!(out[5].after, Phase::Hw { depth: 1, irrevocable: false, lazy: true });
    let _ = run.play(read_back);
}

const OPS: [Op; 15] = [
    Op::Begin { site: SITE },
    Op::BeginIrrevocable { site: SITE },
    Op::NestedBegin { site: SITE },
    Op::Load(L),
    Op::Store(L, 7),
    Op::Commit,
    Op::Abort,
    Op::AbortNested,
    Op::NonTxLoad(L),
    Op::NonTxStore(L, 7),
    Op::SwBegin { site: SITE, attempt: 1 },
    Op::SwLoad(L),
    Op::SwStore(L, 7),
    Op::SwCommit,
    Op::SwAbort { reason: FallbackAbortReason::ValidationFailed },
];

/// How core 0 gets into each phase.
const PHASES: [&[(CoreId, Op)]; 5] = [
    &[],
    &[(0, Op::Begin { site: SITE })],
    &[(0, Op::Begin { site: SITE }), (0, Op::NestedBegin { site: SITE })],
    &[(0, Op::BeginIrrevocable { site: SITE })],
    &[(0, Op::SwBegin { site: SITE, attempt: 1 })],
];

/// The calling protocol, as a table.
fn legal(phase: Phase, op: Op) -> bool {
    match op {
        Op::Begin { .. }
        | Op::BeginIrrevocable { .. }
        | Op::SwBegin { .. }
        | Op::NonTxLoad(_)
        | Op::NonTxStore(..) => phase == Phase::Idle,
        Op::NestedBegin { .. } | Op::Load(_) | Op::Store(..) | Op::Commit => {
            matches!(phase, Phase::Hw { .. })
        }
        Op::Abort | Op::AbortNested => matches!(phase, Phase::Hw { irrevocable: false, .. }),
        Op::SwLoad(_) | Op::SwStore(..) | Op::SwCommit | Op::SwAbort { .. } => phase == Phase::Sw,
    }
}

/// Every op in every phase is issued or refused as [`legal`] says, with no
/// assertion of the machine firing; then the refusals that depend on more
/// than the core's own phase.
fn every_bad_op_is_illegal<V: VersionManager + Clone>(vm: V) {
    let fresh = Run::new(HtmMachine::new(&config(), vm));
    for setup in PHASES {
        let mut base = fresh.clone();
        base.play(setup).expect("the setup is legal");
        let phase = base.phase(0);
        for op in OPS {
            let mut run = base.clone();
            let stats = run.m.tx_stats();
            match run.play(&[(0, op)]) {
                Ok(_) => assert!(legal(phase, op), "{op:?} went through in {phase:?}"),
                Err(e) => {
                    assert!(!legal(phase, op), "{op:?} was refused in {phase:?}");
                    assert_eq!(e, Illegal { core: 0, op, phase });
                    assert_eq!(run.m.tx_stats(), stats, "a refused op reached the machine");
                }
            }
        }
    }

    let mut run = fresh.clone();
    let began = run.step(10, 0, Op::BeginIrrevocable { site: SITE }).expect("the token is free");
    let second = Op::BeginIrrevocable { site: SITE };
    let refused = Illegal { core: 1, op: second, phase: Phase::Idle };
    assert_eq!(run.step(10, 1, second), Err(refused), "a second irrevocable owner");
    assert!(run.step(9, 1, Op::NonTxLoad(L)).is_err(), "a step back in time");
    assert!(began.latency() > 1 && run.step(11, 0, Op::Load(L)).is_err(), "a core not ready");
    assert!(run.step(11, 2, Op::NonTxLoad(L)).is_err(), "a core the machine does not have");
    assert!(run.step(11, 1, Op::NonTxLoad(L)).is_ok(), "none of which disturbed the run");

    let mut run = fresh;
    let depth = run.m.config().htm.max_nest_depth;
    let nest = vec![(0, Op::NestedBegin { site: SITE }); depth - 1];
    run.play(&[(0, Op::Begin { site: SITE })]).expect("legal");
    run.play(&nest).expect("nesting up to the limit is legal");
    assert!(run.play(&[(0, Op::NestedBegin { site: SITE })]).is_err(), "nesting past the limit");
}

#[test]
fn step_answers_every_bad_op_with_illegal_under_all_six_schemes() {
    let cfg = config();
    let (n, suv) = (cfg.n_cores, SuvVm::new(cfg.n_cores, &cfg.suv));
    every_bad_op_is_illegal(LogTmSe::new(n, cfg.htm));
    every_bad_op_is_illegal(FasTm::new(n, cfg.htm));
    every_bad_op_is_illegal(LazyVm::new(n));
    every_bad_op_is_illegal(DynTm::original(FasTm::new(n, cfg.htm), n, &cfg.dyntm));
    every_bad_op_is_illegal(suv.clone());
    every_bad_op_is_illegal(DynTm::with_suv(suv, n, &cfg.dyntm));
}
