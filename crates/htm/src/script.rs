//! The script level: the machine's calling protocol as data.
//!
//! [`HtmMachine`] has thirteen tier-specific entry points and expects its
//! caller to keep a protocol: calls arrive in global time order, a core
//! issues nothing before its previous call has finished, `tx_*` only inside
//! a hardware transaction and `sw_*` only inside a software one, at most one
//! irrevocable owner, and after a `MustAbort` / `Overflow` / cycle-rule NACK
//! / lost commit the caller owes the machine an abort. The sim layer keeps
//! that protocol for workloads; [`Run::step`] keeps it for everything that
//! drives the machine directly — an [`Op`] is one call, a [`Script`] is a
//! sequence of them, and an op the protocol forbids is an [`Illegal`] value,
//! never a tripped assertion inside the machine.
//!
//! A [`Run`] is `Clone` when its version manager is, so *script prefix +
//! clone* is a checkpoint of the whole simulated state (DESIGN.md §14).

use crate::machine::{Access, CommitOutcome, HtmMachine, SwCommitOutcome};
use crate::vm::VersionManager;
use suv_trace::FallbackAbortReason;
use suv_types::{Addr, CoreId, Cycle, TxSite};

/// One call a core makes on the machine. `Begin` lets the version manager
/// pick eager or lazy. `NestedBegin` adds a level (flattened or a stacked
/// frame, as configured) that `Commit` or `AbortNested` pops; where the
/// machine wants a full abort instead of a partial one, the step issues it.
/// `Abort` ends the whole hardware transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Begin { site: TxSite },
    BeginIrrevocable { site: TxSite },
    NestedBegin { site: TxSite },
    Load(Addr),
    Store(Addr, u64),
    Commit,
    Abort,
    AbortNested,
    NonTxLoad(Addr),
    NonTxStore(Addr, u64),
    SwBegin { site: TxSite, attempt: u32 },
    SwLoad(Addr),
    SwStore(Addr, u64),
    SwCommit,
    SwAbort { reason: FallbackAbortReason },
}

/// A sequence of calls, each by the core that makes it.
pub type Script = Vec<(CoreId, Op)>;

/// What a core is inside of, which decides the ops it may issue next: a
/// hardware transaction `depth` levels deep (`lazy` is read off
/// [`VersionManager::lazy_tx_count`] at the outermost begin), a software
/// one, or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Idle,
    Hw { depth: usize, irrevocable: bool, lazy: bool },
    Sw,
}

/// An op the calling protocol forbids `core` in `phase`, or at that time.
/// The machine was not called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Illegal {
    pub core: CoreId,
    pub op: Op,
    pub phase: Phase,
}

/// What the machine returned to the op itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Any begin: its latency.
    Begun(Cycle),
    /// A load or store of any tier.
    Access(Access),
    Commit(CommitOutcome),
    SwCommit(SwCommitOutcome),
    /// `AbortNested`: the partial rollback's duration, or `None` where the
    /// machine asked for a full abort.
    NestedAbort(Option<Cycle>),
    /// `Abort` / `SwAbort`: the duration is [`Outcome::aborted`].
    Abort,
}

/// Everything the machine answered in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The core's phase when the op was issued.
    pub before: Phase,
    pub answer: Answer,
    /// Duration of the `abort_tx` / `abort_sw_tx` the step issued: the op
    /// asked for it, or the answer left the caller owing it.
    pub aborted: Option<Cycle>,
    /// The core's phase once the step is done.
    pub after: Phase,
}

impl Outcome {
    /// Cycles until the core may issue its next op.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        let answered = match self.answer {
            Answer::Begun(latency)
            | Answer::Access(
                Access::Done { latency, .. }
                | Access::Nacked { latency, .. }
                | Access::MustAbort { latency }
                | Access::Overflow { latency },
            )
            | Answer::Commit(
                CommitOutcome::Committed { latency, .. } | CommitOutcome::MustAbort { latency },
            )
            | Answer::SwCommit(
                SwCommitOutcome::Committed { latency }
                | SwCommitOutcome::Busy { latency, .. }
                | SwCommitOutcome::MustAbort { latency, .. },
            ) => latency,
            Answer::NestedAbort(partial) => partial.unwrap_or(0),
            Answer::Abort => 0,
        };
        answered + self.aborted.unwrap_or(0)
    }

    /// The loaded value, if the op was a load that completed.
    #[must_use]
    pub fn value(&self) -> Option<u64> {
        match self.answer {
            Answer::Access(Access::Done { value, .. }) => Some(value),
            _ => None,
        }
    }

    /// The canonical encoding: a tagged word group for the answer, then one
    /// for the abort the step issued. Tags are stable — digests pin them.
    #[must_use]
    pub fn words(&self) -> Vec<u64> {
        let mut w = match self.answer {
            Answer::Begun(latency) => vec![30, latency],
            Answer::Access(Access::Done { value, latency }) => vec![1, value, latency],
            Answer::Access(Access::Nacked { nacker, latency, must_abort }) => {
                vec![2, nacker as u64, latency, u64::from(must_abort)]
            }
            Answer::Access(Access::MustAbort { latency }) => vec![3, latency],
            Answer::Access(Access::Overflow { latency }) => vec![4, latency],
            Answer::Commit(CommitOutcome::Committed { latency, committing }) => {
                vec![10, latency, committing]
            }
            Answer::Commit(CommitOutcome::MustAbort { latency }) => vec![11, latency],
            Answer::SwCommit(SwCommitOutcome::Committed { latency }) => vec![12, latency],
            Answer::SwCommit(SwCommitOutcome::Busy { nacker, latency }) => {
                vec![13, nacker as u64, latency]
            }
            Answer::SwCommit(SwCommitOutcome::MustAbort { reason, latency }) => {
                vec![14, reason.id(), latency]
            }
            Answer::NestedAbort(Some(latency)) => vec![22, latency],
            Answer::NestedAbort(None) => vec![23],
            Answer::Abort => Vec::new(),
        };
        if let Some(latency) = self.aborted {
            w.extend([if self.before == Phase::Sw { 21 } else { 20 }, latency]);
        }
        w
    }
}

/// A machine plus what the calling protocol needs remembered about it.
#[derive(Clone)]
pub struct Run<V> {
    /// The machine: public for setup and inspection; a direct call bypasses the protocol.
    pub m: HtmMachine<V>,
    phase: Vec<Phase>,
    /// Earliest cycle at which each core's previous op has finished.
    ready: Vec<Cycle>,
    /// Time of the last op issued.
    now: Cycle,
}

impl<V: VersionManager> Run<V> {
    /// Every core idle at cycle 0.
    #[must_use]
    pub fn new(m: HtmMachine<V>) -> Self {
        let n = m.config().n_cores;
        Run { m, phase: vec![Phase::Idle; n], ready: vec![0; n], now: 0 }
    }

    #[must_use]
    pub fn phase(&self, core: CoreId) -> Phase {
        self.phase[core]
    }

    /// The earliest cycle at which `core` may issue its next op.
    #[must_use]
    pub fn ready(&self, core: CoreId) -> Cycle {
        self.ready[core]
    }

    /// The core running an irrevocable transaction, if any.
    #[must_use]
    pub fn irrevocable_owner(&self) -> Option<CoreId> {
        self.phase.iter().position(|p| matches!(p, Phase::Hw { irrevocable: true, .. }))
    }

    /// Issue `op` on `core` at cycle `now`, then whatever abort the answer
    /// leaves the caller owing. `Illegal` if the protocol forbids the op in
    /// the core's phase (a second irrevocable owner and nesting past
    /// `max_nest_depth` included), if `now` lies before the last op issued,
    /// or before `core` is ready; the machine is untouched then.
    pub fn step(&mut self, now: Cycle, core: CoreId, op: Op) -> Result<Outcome, Illegal> {
        use Phase::{Hw, Idle, Sw};
        let before = self.phase.get(core).copied().unwrap_or(Idle);
        let illegal = Err(Illegal { core, op, phase: before });
        if core >= self.phase.len() || now < self.now || now < self.ready[core] {
            return illegal;
        }
        let token_free =
            !matches!(op, Op::BeginIrrevocable { .. }) || self.irrevocable_owner().is_none();
        let m = &mut self.m;
        let max_depth = m.config().htm.max_nest_depth;
        let lazy_before = m.vm().lazy_tx_count();
        let answer = match (before, op) {
            (Idle, Op::Begin { site }) => Answer::Begun(m.begin_tx(now, core, site)),
            (Idle, Op::BeginIrrevocable { site }) if token_free => {
                Answer::Begun(m.begin_tx_irrevocable(now, core, site))
            }
            (Idle, Op::SwBegin { site, attempt }) => {
                Answer::Begun(m.begin_sw_tx(now, core, site, attempt))
            }
            (Idle, Op::NonTxLoad(addr)) => Answer::Access(m.nontx_load(now, core, addr)),
            (Idle, Op::NonTxStore(addr, v)) => Answer::Access(m.nontx_store(now, core, addr, v)),
            (Hw { depth, .. }, Op::NestedBegin { site }) if depth < max_depth => {
                Answer::Begun(m.begin_tx(now, core, site))
            }
            (Hw { .. }, Op::Load(addr)) => Answer::Access(m.tx_load(now, core, addr)),
            (Hw { .. }, Op::Store(addr, v)) => Answer::Access(m.tx_store(now, core, addr, v)),
            (Hw { .. }, Op::Commit) => Answer::Commit(m.commit_tx(now, core)),
            (Hw { irrevocable: false, .. }, Op::AbortNested) => {
                Answer::NestedAbort(m.abort_nested(now, core))
            }
            (Hw { irrevocable: false, .. }, Op::Abort) | (Sw, Op::SwAbort { .. }) => Answer::Abort,
            (Sw, Op::SwLoad(addr)) => Answer::Access(m.sw_load(now, core, addr)),
            (Sw, Op::SwStore(addr, v)) => Answer::Access(m.sw_store(now, core, addr, v)),
            (Sw, Op::SwCommit) => Answer::SwCommit(m.commit_sw_tx(now, core)),
            _ => return illegal,
        };
        // What the sim layer does next: abort a transaction that asked to
        // be, was doomed, overflowed, lost its commit or is the younger side
        // of a possible cycle. A NACK never aborts the software tier (lock
        // windows close unconditionally) nor non-transactional code.
        let nack_aborts = matches!(before, Hw { .. });
        let owes_abort = match answer {
            Answer::Abort
            | Answer::NestedAbort(None)
            | Answer::Access(Access::MustAbort { .. } | Access::Overflow { .. })
            | Answer::Commit(CommitOutcome::MustAbort { .. })
            | Answer::SwCommit(SwCommitOutcome::MustAbort { .. }) => true,
            Answer::Access(Access::Nacked { must_abort, .. }) => must_abort && nack_aborts,
            _ => false,
        };
        let aborted = owes_abort.then(|| match (before, op, answer) {
            (Sw, Op::SwAbort { reason }, _)
            | (Sw, _, Answer::SwCommit(SwCommitOutcome::MustAbort { reason, .. })) => {
                m.abort_sw_tx(now, core, reason)
            }
            (Sw, ..) => m.abort_sw_tx(now, core, FallbackAbortReason::HwConflict),
            _ => m.abort_tx(now, core),
        });
        let after = match (before, op, answer) {
            _ if owes_abort => Idle,
            (Idle, Op::SwBegin { .. }, _) => Sw,
            (Idle, _, Answer::Begun(_)) => Hw {
                depth: 1,
                irrevocable: matches!(op, Op::BeginIrrevocable { .. }),
                lazy: m.vm().lazy_tx_count() > lazy_before,
            },
            (Hw { depth, irrevocable, lazy }, _, Answer::Begun(_)) => {
                Hw { depth: depth + 1, irrevocable, lazy }
            }
            (Hw { depth: 1, .. }, _, Answer::Commit(_))
            | (Sw, _, Answer::SwCommit(SwCommitOutcome::Committed { .. })) => Idle,
            (Hw { depth, irrevocable, lazy }, _, Answer::Commit(_) | Answer::NestedAbort(_)) => {
                Hw { depth: depth - 1, irrevocable, lazy }
            }
            _ => before,
        };
        let out = Outcome { before, answer, aborted, after };
        self.phase[core] = after;
        self.ready[core] = now + out.latency();
        self.now = now;
        Ok(out)
    }

    /// Issue a script, each op at the earliest legal cycle: when its core
    /// is ready, and no earlier than the op before it. Stops at the first
    /// illegal op.
    pub fn play(&mut self, script: &[(CoreId, Op)]) -> Result<Vec<Outcome>, Illegal> {
        let at = |r: &Self, core: CoreId| r.now.max(r.ready.get(core).copied().unwrap_or(0));
        script.iter().map(|&(core, op)| self.step(at(self, core), core, op)).collect()
    }
}
