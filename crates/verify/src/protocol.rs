//! Engine (a): the protocol model checker.
//!
//! A small-scope exhaustive product machine — {2 cores × 2 addresses} ×
//! MESI line state × transaction read/write-set membership × redirect-table
//! entry lifecycle (free → old/new pair → flash-committed → reclaimed) —
//! parameterized by all six schemes in `crates/htm`. The model is a
//! *specification*, not a copy of the simulator: each scheme's version
//! management is reduced to where speculative and committed values live,
//! and the conflict policy mirrors `machine.rs` (LogTM possible-cycle
//! rule, lazy doom-on-arbitration, committer-wins).
//!
//! Safety is checked two ways:
//! * **state predicates** ([`ProtocolModel::check`]) — MESI exclusivity
//!   (INV-1/INV-2), redirect pool consistency (INV-5/INV-7/INV-8),
//!   transient↔write-set bijection (INV-6), and committed-location sync
//!   ("no reader observes a pre-flash value after commit", INV-9);
//! * **action-level checks** — every modeled load recomputes the value a
//!   real load would return and compares it against the architectural
//!   value (INV-9 at the instant of the read).
//!
//! Liveness is the explorer's deadlock rule: every reachable non-terminal
//! state must have an enabled action. Attempted accesses that are NACKed
//! without changing any flag are suppressed as self-loops, so a NACK
//! cycle that the possible-cycle rule fails to break becomes a genuine
//! deadlock with a concrete counterexample trace.
//!
//! [`ProtocolMutation`] seeds deliberately broken variants (skipped flash,
//! skipped undo walk, leaked pool slot, disabled cycle abort, disabled
//! W-W detection, dropped invalidation) that the checker must catch — the
//! mutation tests at the bottom are the checker's own regression suite.

use crate::explore::{explore, ExploreReport, Model};
use suv_trace::{TraceEvent, TraceRecord};
use suv_types::{SchemeKind, SharerSet};

/// Cores in the small scope.
pub const NCORES: usize = 2;
/// Addresses in the small scope.
pub const NADDRS: usize = 2;
/// Redirect pool slots — 4 suffices: at most `NCORES × NADDRS` live
/// speculative versions plus committed mappings never exceed it.
pub const NSLOTS: usize = 4;
/// Begins per core: one initial attempt plus one retry after an abort.
const MAX_ATTEMPTS: u8 = 2;

/// The value core `c` writes (distinct per core, distinct from initial 0).
fn wval(c: usize) -> u8 {
    10 + c as u8
}

fn bit(a: usize) -> u8 {
    1 << a
}

/// Directory sharer-bitmap operations, routed through the production
/// [`SharerSet`] type. The model's state stays a `u8` (it must be
/// `Copy + Hash + Ord` for BFS dedup, and `NCORES` is 2), but membership
/// and sole-sharer semantics — where the simulator's old `1u64 << core`
/// shifts went wrong — are computed by the same code the real directory
/// uses, core-id range assertions included.
fn sharers_insert(bm: u8, c: usize) -> u8 {
    let mut s = SharerSet::from_word(u64::from(bm));
    s.insert(c);
    s.to_word().expect("NCORES sharers fit one word") as u8
}

fn sharers_solo(c: usize) -> u8 {
    SharerSet::solo(c).to_word().expect("NCORES sharers fit one word") as u8
}

fn sharers_is_solo(bm: u8, c: usize) -> bool {
    SharerSet::from_word(u64::from(bm)) == SharerSet::solo(c)
}

/// A deliberately seeded protocol bug the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMutation {
    /// SUV flash commit updates the architectural value but never moves
    /// the committed location — readers observe the pre-flash version.
    SkipFlash,
    /// LogTM-SE abort skips the undo walk — speculative values stay in
    /// memory after the transaction is gone.
    SkipUndo,
    /// SUV flash abort drops the transient entry but never frees its
    /// pool slot — the slot leaks.
    LeakSlot,
    /// The possible-cycle must-abort rule never fires — a NACK cycle
    /// between two eager transactions deadlocks.
    NoCycleAbort,
    /// Eager conflict detection ignores the defender's write set on
    /// writes — two in-place writers corrupt each other's undo.
    NoWwDetect,
    /// A write takes ownership without invalidating existing sharers —
    /// MESI single-writer exclusivity breaks.
    DropInvalidate,
}

/// All seeded protocol mutations, in CLI order.
pub const ALL_PROTOCOL_MUTATIONS: [ProtocolMutation; 6] = [
    ProtocolMutation::SkipFlash,
    ProtocolMutation::SkipUndo,
    ProtocolMutation::LeakSlot,
    ProtocolMutation::NoCycleAbort,
    ProtocolMutation::NoWwDetect,
    ProtocolMutation::DropInvalidate,
];

impl ProtocolMutation {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMutation::SkipFlash => "skip-flash",
            ProtocolMutation::SkipUndo => "skip-undo",
            ProtocolMutation::LeakSlot => "leak-slot",
            ProtocolMutation::NoCycleAbort => "no-cycle-abort",
            ProtocolMutation::NoWwDetect => "no-ww-detect",
            ProtocolMutation::DropInvalidate => "drop-invalidate",
        }
    }

    /// The scheme whose model exposes this bug most directly.
    pub fn target_scheme(self) -> SchemeKind {
        match self {
            ProtocolMutation::SkipFlash | ProtocolMutation::LeakSlot => SchemeKind::SuvTm,
            ProtocolMutation::SkipUndo
            | ProtocolMutation::NoCycleAbort
            | ProtocolMutation::NoWwDetect => SchemeKind::LogTmSe,
            ProtocolMutation::DropInvalidate => SchemeKind::FasTm,
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<ProtocolMutation> {
        ALL_PROTOCOL_MUTATIONS.iter().copied().find(|m| m.name() == s)
    }
}

/// One transactional operation a core may issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Transactional load of an address.
    Read(u8),
    /// Transactional store of an address (value is `wval(core)`).
    Write(u8),
    /// Attempt to commit.
    Commit,
}

/// Where a core is in its transaction lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Phase {
    /// Between transactions (retry budget may remain).
    Idle,
    /// Inside a transaction, issuing operations.
    Active,
    /// Lazy commit won arbitration; draining the write buffer line by
    /// line (`merged` = already-drained write-set bits).
    Committing { merged: u8 },
    /// Abort in progress (`undone` = already-restored write-set bits;
    /// only the in-place scheme takes per-line undo steps).
    Aborting { undone: u8 },
    /// Finished for good (committed, or retry budget exhausted).
    Done,
}

/// A redirect-table transient entry owned by one core for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Transient {
    /// New speculative version lives in pool slot `slot`; the committed
    /// version stays wherever it was (the old/new pair).
    New { slot: u8 },
    /// Redirect-back (DeleteGlobal): the committed version lives in a
    /// slot, so the new speculative version went to the home location.
    Delete,
}

/// Where a scheme keeps speculative values (the model's whole notion of
/// version management).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vm {
    /// LogTM-SE: write in place, old value to the undo log (`local`).
    InPlace,
    /// FasTM / DynTM eager: speculative value in the private cache
    /// (`local`); memory untouched until commit.
    InCache,
    /// SUV: speculative value in a redirect pool slot (or the home
    /// location on redirect-back), flipped by a single flash update.
    Redirect,
    /// Lazy/TCC: write buffer (`local`), drained at commit.
    Buffer,
}

/// Per-core model state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Core {
    phase: Phase,
    /// Lazy (deferred) conflict detection for this transaction?
    lazy: bool,
    /// LogTM timestamp: begin order, kept across retries. 0 = unassigned.
    ts: u8,
    /// Begins consumed.
    attempts: u8,
    /// Read-set membership bitmap over addresses.
    rset: u8,
    /// Write-set membership bitmap over addresses.
    wset: u8,
    /// The chosen-but-not-yet-completed operation. A NACKed operation
    /// stays pending, so an unbreakable NACK cycle is a real deadlock.
    pending: Option<Op>,
    /// LogTM possible-cycle flag (set when this core NACKs an older
    /// requester).
    possible_cycle: bool,
    /// Committer-wins: a lazy arbitration or eager access marked this
    /// transaction dead; it must abort at its next attempt.
    doomed: bool,
    /// Scheme-interpreted per-address value: undo-log old value
    /// (InPlace), cache speculative value (InCache), or write-buffer
    /// value (Buffer). Unused by Redirect (the pool holds values).
    local: [Option<u8>; NADDRS],
}

const CORE0: Core = Core {
    phase: Phase::Idle,
    lazy: false,
    ts: 0,
    attempts: 0,
    rset: 0,
    wset: 0,
    pending: None,
    possible_cycle: false,
    doomed: false,
    local: [None; NADDRS],
};

/// Per-address model state: architectural value, home-location value,
/// redirect mapping, per-core transients, and MESI bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Line {
    /// The architectural (committed) value — what any reader outside a
    /// writing transaction must observe.
    committed: u8,
    /// The value at the home memory location.
    mem: u8,
    /// SUV: the pool slot holding the committed version (None = home).
    committed_slot: Option<u8>,
    /// Redirect transients, one per core (old/new pair lifecycle).
    transient: [Option<Transient>; NCORES],
    /// MESI: exclusive (M/E) holder, if any.
    owner: Option<u8>,
    /// MESI: sharer bitmap over cores.
    sharers: u8,
}

const LINE0: Line = Line {
    committed: 0,
    mem: 0,
    committed_slot: None,
    transient: [None; NCORES],
    owner: None,
    sharers: 0,
};

/// The full product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProtocolState {
    cores: [Core; NCORES],
    lines: [Line; NADDRS],
    /// Pool slot contents; `None` = free.
    pool: [Option<u8>; NSLOTS],
    /// Next LogTM timestamp to hand out (begin order).
    next_ts: u8,
}

/// One transition of the product machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolAction {
    /// Begin a transaction (mode chosen here for DynTM schemes).
    Begin { core: u8, lazy: bool },
    /// Pick the next operation (program nondeterminism).
    Choose { core: u8, op: Op },
    /// Try to complete the pending operation: conflict-check, then
    /// perform / stall / abort.
    Attempt { core: u8, op: Op },
    /// Restore one undo-log line (in-place abort walk).
    UndoStep { core: u8 },
    /// Finish an abort: release isolation, flash-abort transients.
    AbortEnd { core: u8 },
    /// Drain one write-buffer line (lazy commit merge).
    CommitStep { core: u8 },
    /// Finish a lazy commit: release isolation.
    CommitEnd { core: u8 },
}

impl ProtocolAction {
    fn core(self) -> usize {
        match self {
            ProtocolAction::Begin { core, .. }
            | ProtocolAction::Choose { core, .. }
            | ProtocolAction::Attempt { core, .. }
            | ProtocolAction::UndoStep { core }
            | ProtocolAction::AbortEnd { core }
            | ProtocolAction::CommitStep { core }
            | ProtocolAction::CommitEnd { core } => core as usize,
        }
    }
}

/// The checker: a scheme plus an optional seeded mutation.
pub struct ProtocolModel {
    pub scheme: SchemeKind,
    pub mutation: Option<ProtocolMutation>,
}

/// MESI read: demote a foreign owner to sharer, add the reader.
fn mesi_read(line: &mut Line, c: usize) {
    if let Some(d) = line.owner {
        if d as usize != c {
            line.owner = None;
            line.sharers = sharers_insert(line.sharers, d as usize);
        }
    }
    line.sharers = sharers_insert(line.sharers, c);
}

/// Enter the abort path: drop the pending op, start the undo walk.
fn start_abort(s: &mut ProtocolState, c: usize) {
    s.cores[c].phase = Phase::Aborting { undone: 0 };
    s.cores[c].pending = None;
}

impl ProtocolModel {
    pub fn new(scheme: SchemeKind) -> ProtocolModel {
        ProtocolModel { scheme, mutation: None }
    }

    pub fn mutated(scheme: SchemeKind, m: ProtocolMutation) -> ProtocolModel {
        ProtocolModel { scheme, mutation: Some(m) }
    }

    fn is(&self, m: ProtocolMutation) -> bool {
        self.mutation == Some(m)
    }

    /// Which version manager a core with the given mode runs.
    fn vm(&self, lazy: bool) -> Vm {
        if lazy {
            return Vm::Buffer;
        }
        match self.scheme {
            SchemeKind::LogTmSe => Vm::InPlace,
            SchemeKind::FasTm | SchemeKind::DynTm => Vm::InCache,
            SchemeKind::SuvTm | SchemeKind::DynTmSuv => Vm::Redirect,
            SchemeKind::Lazy => Vm::Buffer,
        }
    }

    /// Modes a fresh transaction may begin in.
    fn modes(&self) -> &'static [bool] {
        match self.scheme {
            SchemeKind::Lazy => &[true],
            SchemeKind::DynTm | SchemeKind::DynTmSuv => &[false, true],
            _ => &[false],
        }
    }

    /// Cores whose isolation an access by `c` to address `a` violates.
    /// Eager transactions defend their sets while Active or Aborting;
    /// lazy transactions defend only their write set while Committing
    /// (the drain window).
    fn defenders(&self, s: &ProtocolState, c: usize, a: usize, is_write: bool) -> Vec<usize> {
        let requester_lazy = s.cores[c].lazy;
        let mut out = Vec::new();
        for (d, core) in s.cores.iter().enumerate() {
            if d == c {
                continue;
            }
            let conflict = if core.lazy {
                matches!(core.phase, Phase::Committing { .. }) && core.wset & bit(a) != 0
            } else if matches!(core.phase, Phase::Active | Phase::Aborting { .. }) {
                let set = if is_write {
                    if requester_lazy {
                        // A buffered write only collides with an
                        // in-flight eager version of the same line.
                        core.wset
                    } else if self.is(ProtocolMutation::NoWwDetect) {
                        core.rset
                    } else {
                        core.rset | core.wset
                    }
                } else {
                    core.wset
                };
                set & bit(a) != 0
            } else {
                false
            };
            if conflict {
                out.push(d);
            }
        }
        out
    }

    /// The value a load by `c` of address `a` returns, per the scheme's
    /// version-management mechanics. `Err` = INV-9 violated at the read.
    fn load_value(&self, s: &ProtocolState, c: usize, a: usize) -> Result<u8, String> {
        let core = &s.cores[c];
        let line = &s.lines[a];
        if core.wset & bit(a) != 0 {
            // Own speculative version.
            let got = match self.vm(core.lazy) {
                Vm::InPlace => line.mem,
                Vm::InCache | Vm::Buffer => core.local[a].unwrap_or(line.mem),
                Vm::Redirect => match line.transient[c] {
                    Some(Transient::New { slot }) => s.pool[slot as usize].unwrap_or(line.mem),
                    Some(Transient::Delete) | None => line.mem,
                },
            };
            if got == wval(c) {
                Ok(got)
            } else {
                Err(format!(
                    "INV-9: core {c} lost its own speculative version of address {a} \
                     (loaded {got}, wrote {})",
                    wval(c)
                ))
            }
        } else {
            // Committed version, wherever it lives.
            let got = match line.committed_slot {
                Some(slot) => s.pool[slot as usize].unwrap_or(line.mem),
                None => line.mem,
            };
            if got == line.committed {
                Ok(got)
            } else {
                Err(format!(
                    "INV-9: core {c} read address {a} and observed {got}, but the \
                     architectural (committed) value is {} — a pre-flash or \
                     un-rolled-back version is visible",
                    line.committed
                ))
            }
        }
    }

    fn mesi_write(&self, line: &mut Line, c: usize) {
        line.owner = Some(c as u8);
        if self.is(ProtocolMutation::DropInvalidate) {
            line.sharers = sharers_insert(line.sharers, c);
        } else {
            line.sharers = sharers_solo(c);
        }
    }

    /// Instant eager commit (in-place / in-cache / flash).
    fn eager_commit(&self, s: &mut ProtocolState, c: usize) {
        let vm = self.vm(false);
        for a in 0..NADDRS {
            if s.cores[c].wset & bit(a) == 0 {
                continue;
            }
            match vm {
                Vm::InPlace => {
                    // Memory already holds the new value.
                    s.lines[a].committed = wval(c);
                }
                Vm::InCache => {
                    s.lines[a].mem = s.cores[c].local[a].unwrap_or(s.lines[a].mem);
                    s.lines[a].committed = wval(c);
                }
                Vm::Redirect => {
                    // The single flash update: every transient flips at
                    // once (one action = one atomic update).
                    match s.lines[a].transient[c] {
                        Some(Transient::New { slot }) => {
                            if self.is(ProtocolMutation::SkipFlash) {
                                // Bug: drop the new version, leave the
                                // committed mapping pointing at the old.
                                s.pool[slot as usize] = None;
                            } else {
                                if let Some(old) = s.lines[a].committed_slot {
                                    s.pool[old as usize] = None;
                                }
                                s.lines[a].committed_slot = Some(slot);
                            }
                        }
                        Some(Transient::Delete) => {
                            // Redirect-back: the new value is home; the
                            // old slot-resident version is reclaimed.
                            if let Some(old) = s.lines[a].committed_slot.take() {
                                s.pool[old as usize] = None;
                            }
                        }
                        None => {}
                    }
                    s.lines[a].transient[c] = None;
                    s.lines[a].committed = wval(c);
                }
                Vm::Buffer => unreachable!("eager commit on a lazy transaction"),
            }
        }
        Self::finish_tx(&mut s.cores[c]);
    }

    fn finish_tx(core: &mut Core) {
        core.phase = Phase::Done;
        core.rset = 0;
        core.wset = 0;
        core.pending = None;
        core.possible_cycle = false;
        core.doomed = false;
        core.local = [None; NADDRS];
    }
}

impl Model for ProtocolModel {
    type State = ProtocolState;
    type Action = ProtocolAction;

    fn initial(&self) -> ProtocolState {
        ProtocolState {
            cores: [CORE0; NCORES],
            lines: [LINE0; NADDRS],
            pool: [None; NSLOTS],
            next_ts: 1,
        }
    }

    fn actions(&self, s: &ProtocolState, out: &mut Vec<ProtocolAction>) {
        for (c, core) in s.cores.iter().enumerate() {
            let c8 = c as u8;
            match core.phase {
                Phase::Idle => {
                    if core.attempts < MAX_ATTEMPTS {
                        for &lazy in self.modes() {
                            out.push(ProtocolAction::Begin { core: c8, lazy });
                        }
                    }
                }
                Phase::Active => {
                    if let Some(op) = core.pending {
                        let a = ProtocolAction::Attempt { core: c8, op };
                        // Suppress pure-stall self-loops: once a NACKed
                        // attempt can make no progress (not even a
                        // possible-cycle flag), it is not an enabled
                        // action — mutual stall becomes a deadlock.
                        match self.step(s, a) {
                            Ok(next) if next == *s => {}
                            _ => out.push(a),
                        }
                    } else {
                        for addr in 0..NADDRS {
                            if core.rset & bit(addr) == 0 {
                                out.push(ProtocolAction::Choose {
                                    core: c8,
                                    op: Op::Read(addr as u8),
                                });
                            }
                            if core.wset & bit(addr) == 0 {
                                out.push(ProtocolAction::Choose {
                                    core: c8,
                                    op: Op::Write(addr as u8),
                                });
                            }
                        }
                        out.push(ProtocolAction::Choose { core: c8, op: Op::Commit });
                    }
                }
                Phase::Aborting { undone } => {
                    let walk = self.vm(core.lazy) == Vm::InPlace;
                    if walk && core.wset & !undone != 0 {
                        out.push(ProtocolAction::UndoStep { core: c8 });
                    } else {
                        out.push(ProtocolAction::AbortEnd { core: c8 });
                    }
                }
                Phase::Committing { merged } => {
                    if core.wset & !merged != 0 {
                        out.push(ProtocolAction::CommitStep { core: c8 });
                    } else {
                        out.push(ProtocolAction::CommitEnd { core: c8 });
                    }
                }
                Phase::Done => {}
            }
        }
    }

    fn step(&self, s: &ProtocolState, act: ProtocolAction) -> Result<ProtocolState, String> {
        let mut n = *s;
        let c = act.core();
        match act {
            ProtocolAction::Begin { lazy, .. } => {
                let core = &mut n.cores[c];
                core.phase = Phase::Active;
                core.lazy = lazy;
                core.possible_cycle = false;
                core.doomed = false;
                if core.ts == 0 {
                    core.ts = n.next_ts;
                    n.next_ts += 1;
                }
            }
            ProtocolAction::Choose { op, .. } => {
                n.cores[c].pending = Some(op);
            }
            ProtocolAction::Attempt { op, .. } => {
                if n.cores[c].doomed {
                    start_abort(&mut n, c);
                    return Ok(n);
                }
                match op {
                    Op::Read(addr) | Op::Write(addr) => {
                        let a = addr as usize;
                        let is_write = matches!(op, Op::Write(_));
                        let defs = self.defenders(s, c, a, is_write);
                        if !defs.is_empty() {
                            // NACKed: the LogTM possible-cycle rule.
                            let mut must_abort = false;
                            for &d in &defs {
                                let eager_active =
                                    !s.cores[d].lazy && s.cores[d].phase == Phase::Active;
                                if !eager_active {
                                    continue;
                                }
                                if s.cores[c].ts < s.cores[d].ts {
                                    n.cores[d].possible_cycle = true;
                                }
                                if s.cores[d].ts < s.cores[c].ts && s.cores[c].possible_cycle {
                                    must_abort = true;
                                }
                            }
                            if must_abort && !self.is(ProtocolMutation::NoCycleAbort) {
                                start_abort(&mut n, c);
                            }
                            return Ok(n);
                        }
                        // Proceeding eager accesses doom conflicting lazy
                        // transactions (their conflict detection is
                        // deferred; committer/requester wins).
                        if !s.cores[c].lazy {
                            for d in 0..NCORES {
                                if d == c || !s.cores[d].lazy || s.cores[d].phase != Phase::Active {
                                    continue;
                                }
                                let set = if is_write {
                                    s.cores[d].rset | s.cores[d].wset
                                } else {
                                    s.cores[d].wset
                                };
                                if set & bit(a) != 0 {
                                    n.cores[d].doomed = true;
                                }
                            }
                        }
                        if is_write {
                            let lazy = s.cores[c].lazy;
                            match self.vm(lazy) {
                                Vm::InPlace => {
                                    if n.cores[c].local[a].is_none() {
                                        n.cores[c].local[a] = Some(n.lines[a].mem);
                                    }
                                    n.lines[a].mem = wval(c);
                                }
                                Vm::InCache | Vm::Buffer => {
                                    n.cores[c].local[a] = Some(wval(c));
                                }
                                Vm::Redirect => {
                                    if n.lines[a].committed_slot.is_some() {
                                        // Redirect-back: committed version
                                        // is slot-resident, reuse home.
                                        n.lines[a].transient[c] = Some(Transient::Delete);
                                        n.lines[a].mem = wval(c);
                                    } else {
                                        let slot = n.pool.iter().position(Option::is_none);
                                        let Some(slot) = slot else {
                                            return Err("redirect pool exhausted at 2x2 scope \
                                                 (model bug: cannot happen)"
                                                .into());
                                        };
                                        n.pool[slot] = Some(wval(c));
                                        n.lines[a].transient[c] =
                                            Some(Transient::New { slot: slot as u8 });
                                    }
                                }
                            }
                            n.cores[c].wset |= bit(a);
                            if !lazy {
                                self.mesi_write(&mut n.lines[a], c);
                            }
                        } else {
                            self.load_value(&n, c, a)?;
                            n.cores[c].rset |= bit(a);
                            mesi_read(&mut n.lines[a], c);
                        }
                        n.cores[c].pending = None;
                    }
                    Op::Commit => {
                        if s.cores[c].lazy {
                            // Arbitration: wait for overlapping drains,
                            // then doom every conflicting active tx.
                            for d in 0..NCORES {
                                if d != c
                                    && matches!(s.cores[d].phase, Phase::Committing { .. })
                                    && s.cores[d].wset & s.cores[c].wset != 0
                                {
                                    return Ok(n); // stall (self-loop)
                                }
                            }
                            for d in 0..NCORES {
                                if d == c || s.cores[d].phase != Phase::Active {
                                    continue;
                                }
                                let dset = if s.cores[d].lazy {
                                    s.cores[d].rset | s.cores[d].wset
                                } else {
                                    // Eager writers can't overlap (guarded
                                    // at issue time); drain invalidations
                                    // kill eager readers.
                                    s.cores[d].rset
                                };
                                if dset & s.cores[c].wset != 0 {
                                    n.cores[d].doomed = true;
                                }
                            }
                            n.cores[c].phase = Phase::Committing { merged: 0 };
                            n.cores[c].pending = None;
                        } else {
                            self.eager_commit(&mut n, c);
                        }
                    }
                }
            }
            ProtocolAction::UndoStep { .. } => {
                let Phase::Aborting { undone } = s.cores[c].phase else {
                    unreachable!("undo step outside abort");
                };
                let a = (0..NADDRS)
                    .find(|&a| s.cores[c].wset & !undone & bit(a) != 0)
                    .expect("undo step with nothing left");
                if !self.is(ProtocolMutation::SkipUndo) {
                    n.lines[a].mem = s.cores[c].local[a].unwrap_or(s.lines[a].committed);
                }
                n.cores[c].phase = Phase::Aborting { undone: undone | bit(a) };
            }
            ProtocolAction::AbortEnd { .. } => {
                // Flash abort for redirect transients: one atomic flip.
                for a in 0..NADDRS {
                    if let Some(t) = n.lines[a].transient[c].take() {
                        match t {
                            Transient::New { slot } => {
                                if !self.is(ProtocolMutation::LeakSlot) {
                                    n.pool[slot as usize] = None;
                                }
                            }
                            // Committed version stays slot-resident; the
                            // home location keeps dead (unreachable) data.
                            Transient::Delete => {}
                        }
                    }
                }
                let core = &mut n.cores[c];
                core.attempts += 1;
                let spent = core.attempts >= MAX_ATTEMPTS;
                Self::finish_tx(core);
                if !spent {
                    n.cores[c].phase = Phase::Idle;
                }
            }
            ProtocolAction::CommitStep { .. } => {
                let Phase::Committing { merged } = s.cores[c].phase else {
                    unreachable!("commit step outside drain");
                };
                let a = (0..NADDRS)
                    .find(|&a| s.cores[c].wset & !merged & bit(a) != 0)
                    .expect("commit step with nothing left");
                let v = s.cores[c].local[a].unwrap_or(wval(c));
                // Drain into wherever the committed version lives, and
                // publish the architectural value in the same step.
                match n.lines[a].committed_slot {
                    Some(slot) => n.pool[slot as usize] = Some(v),
                    None => n.lines[a].mem = v,
                }
                n.lines[a].committed = v;
                self.mesi_write(&mut n.lines[a], c);
                n.cores[c].phase = Phase::Committing { merged: merged | bit(a) };
            }
            ProtocolAction::CommitEnd { .. } => {
                Self::finish_tx(&mut n.cores[c]);
            }
        }
        Ok(n)
    }

    fn check(&self, s: &ProtocolState) -> Result<(), String> {
        // INV-1 / INV-2: an M/E holder is the only holder.
        for (a, line) in s.lines.iter().enumerate() {
            if let Some(d) = line.owner {
                if !sharers_is_solo(line.sharers, d as usize) {
                    return Err(format!(
                        "INV-1/INV-2: address {a} owned by core {d} but sharer bitmap is \
                         {:#04b} — invalidation was dropped",
                        line.sharers
                    ));
                }
            }
        }
        // Redirect pool consistency: INV-5 (no shared slot), INV-8 (no
        // live mapping into a free slot), INV-7 (no leaked slot).
        let mut refs = [0u8; NSLOTS];
        for (a, line) in s.lines.iter().enumerate() {
            let mut note = |slot: u8, what: &str| -> Result<(), String> {
                refs[slot as usize] += 1;
                if refs[slot as usize] > 1 {
                    return Err(format!(
                        "INV-5: pool slot {slot} reached by two live redirect mappings \
                         (second: {what} for address {a})"
                    ));
                }
                if s.pool[slot as usize].is_none() {
                    return Err(format!(
                        "INV-8: {what} for address {a} points at freed pool slot {slot}"
                    ));
                }
                Ok(())
            };
            if let Some(slot) = line.committed_slot {
                note(slot, "committed mapping")?;
            }
            for t in line.transient {
                if let Some(Transient::New { slot }) = t {
                    note(slot, "transient entry")?;
                }
            }
        }
        for (slot, v) in s.pool.iter().enumerate() {
            if v.is_some() && refs[slot] == 0 {
                return Err(format!(
                    "INV-7: pool slot {slot} is allocated but no redirect mapping \
                     references it — flash abort leaked it"
                ));
            }
        }
        // INV-6: transient entries ↔ per-tx write sets are a bijection
        // while the owning transaction is live; INV-7: none outside.
        for (c, core) in s.cores.iter().enumerate() {
            let live = !core.lazy
                && self.vm(false) == Vm::Redirect
                && matches!(core.phase, Phase::Active | Phase::Aborting { .. });
            for (a, line) in s.lines.iter().enumerate() {
                let has = line.transient[c].is_some();
                if live {
                    if has != (core.wset & bit(a) != 0) {
                        return Err(format!(
                            "INV-6: core {c} transient entries and write set disagree on \
                             address {a} (transient={has}, wset bit={})",
                            core.wset & bit(a) != 0
                        ));
                    }
                } else if has {
                    return Err(format!(
                        "INV-7: dangling transient entry for address {a} after core {c} \
                         finished (flash commit/abort must leave zero)"
                    ));
                }
            }
        }
        // INV-9 (state form): the committed location must hold the
        // architectural value whenever no in-place speculation covers it.
        for (a, line) in s.lines.iter().enumerate() {
            if let Some(slot) = line.committed_slot {
                if let Some(v) = s.pool[slot as usize] {
                    if v != line.committed {
                        return Err(format!(
                            "INV-9: address {a} committed value is {} but its \
                             committed location (slot {slot}) holds {v} — a reader \
                             observes a pre-flash value after commit",
                            line.committed
                        ));
                    }
                }
            } else {
                let speculated = s.cores.iter().enumerate().any(|(c, core)| {
                    let in_place = !core.lazy && self.vm(false) == Vm::InPlace;
                    let redirect_home = matches!(line.transient[c], Some(Transient::Delete));
                    (in_place || redirect_home)
                        && matches!(core.phase, Phase::Active | Phase::Aborting { .. })
                        && core.wset & bit(a) != 0
                });
                if !speculated && line.mem != line.committed {
                    return Err(format!(
                        "INV-9: address {a} home location holds {} but the \
                         architectural value is {} — an abort failed to roll back \
                         or a commit failed to publish",
                        line.mem, line.committed
                    ));
                }
            }
        }
        Ok(())
    }

    fn is_terminal(&self, s: &ProtocolState) -> bool {
        s.cores.iter().all(|c| c.phase == Phase::Done)
    }

    fn describe(&self, a: ProtocolAction, step: usize) -> TraceRecord {
        let core = a.core();
        let ev = match a {
            ProtocolAction::Begin { lazy, .. } => TraceEvent::TxBegin { site: core as u32, lazy },
            ProtocolAction::Choose { op, .. } | ProtocolAction::Attempt { op, .. } => match op {
                Op::Read(addr) => TraceEvent::TxRead { line: u64::from(addr) },
                Op::Write(addr) => TraceEvent::TxWrite { line: u64::from(addr) },
                Op::Commit => {
                    if matches!(a, ProtocolAction::Choose { .. }) {
                        TraceEvent::CommitArbitration { wait: 0 }
                    } else {
                        TraceEvent::TxCommit { window: 0, committing: 0 }
                    }
                }
            },
            ProtocolAction::UndoStep { .. } => TraceEvent::UndoWalk { entries: 1 },
            ProtocolAction::AbortEnd { .. } => TraceEvent::TxAbort { window: 0 },
            ProtocolAction::CommitStep { .. } => TraceEvent::WriteBufferDrain { lines: 1 },
            ProtocolAction::CommitEnd { .. } => TraceEvent::TxCommit { window: 0, committing: 1 },
        };
        TraceRecord { t: step as u64, core, ev }
    }
}

/// Exhaustively check one scheme (optionally mutated) at the 2×2 scope.
pub fn check_protocol(
    scheme: SchemeKind,
    mutation: Option<ProtocolMutation>,
    max_states: usize,
) -> ExploreReport {
    explore(&ProtocolModel { scheme, mutation }, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 4_000_000;

    #[test]
    fn all_schemes_pass_clean() {
        for scheme in SchemeKind::ALL {
            let r = check_protocol(scheme, None, CAP);
            assert!(
                r.ok(),
                "{}: {}",
                scheme.name(),
                r.violations
                    .first()
                    .map_or("truncated".into(), super::super::explore::Counterexample::render)
            );
            assert!(r.states > 100, "{}: trivial state space ({})", scheme.name(), r.states);
        }
    }

    fn assert_caught(m: ProtocolMutation, expect: &str) {
        let r = check_protocol(m.target_scheme(), Some(m), CAP);
        assert!(
            !r.violations.is_empty(),
            "mutation {} on {} not caught",
            m.name(),
            m.target_scheme().name()
        );
        let v = &r.violations[0];
        assert!(
            v.message.contains(expect),
            "mutation {}: expected {expect:?} in message, got: {}",
            m.name(),
            v.message
        );
        assert!(!v.trace.is_empty(), "mutation {}: empty counterexample", m.name());
    }

    #[test]
    fn mutation_skip_flash_caught() {
        assert_caught(ProtocolMutation::SkipFlash, "INV-9");
    }

    #[test]
    fn mutation_skip_undo_caught() {
        assert_caught(ProtocolMutation::SkipUndo, "INV-9");
    }

    #[test]
    fn mutation_leak_slot_caught() {
        assert_caught(ProtocolMutation::LeakSlot, "INV-7");
    }

    #[test]
    fn mutation_no_cycle_abort_deadlocks() {
        assert_caught(ProtocolMutation::NoCycleAbort, "deadlock");
    }

    #[test]
    fn mutation_no_ww_detect_caught() {
        assert_caught(ProtocolMutation::NoWwDetect, "INV-9");
    }

    #[test]
    fn mutation_drop_invalidate_caught() {
        assert_caught(ProtocolMutation::DropInvalidate, "INV-1");
    }

    #[test]
    fn counterexample_uses_trace_vocabulary() {
        let r = check_protocol(SchemeKind::SuvTm, Some(ProtocolMutation::SkipFlash), CAP);
        let text = r.violations[0].render();
        assert!(text.contains("tx_commit") || text.contains("tx_write"), "{text}");
    }
}
