//! The typed event vocabulary.
//!
//! Events are small `Copy` values: the hot path moves at most three words.
//! Every event answers three questions — *when* (cycle), *where* (core) and
//! *what* (the variant + payload). Scheme-specific detail rides in the
//! payload: undo-log walk lengths for LogTM-SE, redirect hit levels and
//! pool allocations for SUV, commit-arbitration windows for lazy/DynTM.

use suv_types::{CoreId, Cycle, TxStats};

/// Which level of the redirect structure answered a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectLevel {
    /// The summary signature filtered the access (no lookup at all).
    Filtered = 0,
    /// Per-core L1 redirect table hit.
    L1 = 1,
    /// Shared L2 redirect table hit.
    L2 = 2,
    /// Entry had been swapped out; resolved from the in-memory table.
    Memory = 3,
}

impl RedirectLevel {
    /// Stable small id (hashing / export): the declared discriminant.
    pub fn id(self) -> u64 {
        self as u64
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            RedirectLevel::Filtered => "filtered",
            RedirectLevel::L1 => "l1",
            RedirectLevel::L2 => "l2",
            RedirectLevel::Memory => "memory",
        }
    }
}

/// Why a transaction left its rung of the escalation ladder (Hw → Sw,
/// Hw → Irrevocable or Sw → Irrevocable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationReason {
    /// `RobustnessConfig::overflow_retries` capacity-overflow aborts spent.
    OverflowBudget = 0,
    /// Abort-count watchdog: `RobustnessConfig::max_tx_aborts` aborts of
    /// one dynamic transaction.
    AbortWatchdog = 1,
    /// Starvation watchdog: `RobustnessConfig::max_starvation_cycles`
    /// since the transaction's first begin.
    StarvationWatchdog = 2,
    /// `RobustnessConfig::sw_retries` software-tier aborts spent (repeated
    /// validation failures or hardware conflicts): Sw → Irrevocable.
    SwBudget = 3,
}

impl EscalationReason {
    /// Every reason, in id order.
    pub const ALL: [Self; 4] =
        [Self::OverflowBudget, Self::AbortWatchdog, Self::StarvationWatchdog, Self::SwBudget];

    /// Stable small id (hashing / export): the declared discriminant.
    pub fn id(self) -> u64 {
        self as u64
    }

    /// The reason's key in the `--json` `resilience.escalations` block.
    pub fn key(self) -> &'static str {
        match self {
            Self::OverflowBudget => "overflow",
            Self::AbortWatchdog => "abort_watchdog",
            Self::StarvationWatchdog => "starvation_watchdog",
            Self::SwBudget => "sw_validation_failure",
        }
    }

    /// The reason's own `TxStats::esc_*` counter.
    pub fn counter(self, stats: &mut TxStats) -> &mut u64 {
        match self {
            Self::OverflowBudget => &mut stats.esc_overflow,
            Self::AbortWatchdog => &mut stats.esc_abort_watchdog,
            Self::StarvationWatchdog => &mut stats.esc_starvation,
            Self::SwBudget => &mut stats.esc_sw_validation,
        }
    }

    /// Escalations `stats` recorded for this reason ([`Self::counter`] is
    /// the one reason → field map; this reads it through a copy).
    pub fn count(self, stats: &TxStats) -> u64 {
        *self.counter(&mut { *stats })
    }
}

/// Why a software-fallback attempt aborted. (A busy commit lock is not a
/// reason: the committer stalls and retries, it never aborts.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackAbortReason {
    /// Commit-time value validation failed.
    ValidationFailed = 0,
    /// A hardware transaction won: a live owner refused the commit, or a
    /// hardware commit invalidated the read set.
    HwConflict = 2,
}

impl FallbackAbortReason {
    /// Stable small id (hashing / export): the declared discriminant. 1
    /// is retired, never reuse it.
    pub fn id(self) -> u64 {
        self as u64
    }
}

/// What the deterministic fault injector did to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A spurious NACK consumed the access's issue slot.
    SpuriousNack = 0,
    /// Extra NoC cycles on a completed access.
    NocDelay = 1,
    /// A hardware transactional store spuriously reported pool exhaustion.
    SpuriousOverflow = 2,
}

impl FaultKind {
    /// Stable small id (hashing / export): the declared discriminant.
    pub fn id(self) -> u64 {
        self as u64
    }
}

/// Direction of a hardware/software cross-tier conflict (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictDir {
    /// A hardware or non-transactional access was NACKed by a software
    /// commit lock (a lazy committer finding one loses instead).
    SwLockBlocksHw = 0,
    /// A hardware commit invalidated a software read set.
    HwCommitDoomsSw = 1,
    /// A software commit met hardware: refused by a live owner, or — when
    /// it went through — dooming a hardware reader of a published line.
    SwCommitVsHw = 2,
    /// A software commit invalidated another *software* read set (the
    /// line-granular doom that word-granular value validation cannot see).
    SwCommitDoomsSw = 3,
}

impl ConflictDir {
    /// Stable small id (hashing / export): the declared discriminant.
    pub fn id(self) -> u64 {
        self as u64
    }
}

/// One simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Outermost transaction began at static `site` (lazy = deferred
    /// conflict detection, the DynTM lazy mode).
    TxBegin {
        /// Static transaction site id.
        site: u32,
        /// Running in lazy mode?
        lazy: bool,
    },
    /// Transactional load completed on `line`.
    TxRead {
        /// Cache line (byte address of the line base).
        line: u64,
    },
    /// Transactional store completed on `line`.
    TxWrite {
        /// Cache line (byte address of the line base).
        line: u64,
    },
    /// This core's transaction NACKed a request from `requester`
    /// (attributed to the *defending* core; pairs with the requester's
    /// [`TraceEvent::Stall`]).
    Nack {
        /// The core whose request was refused.
        requester: u32,
        /// Possible-cycle rule fired: the requester must abort.
        must_abort: bool,
    },
    /// The core's access to `line` was NACKed and it stalls `cycles`.
    /// Emitted exactly once per `nacks_received` increment.
    Stall {
        /// Conflicting line.
        line: u64,
        /// Stall duration charged for this retry.
        cycles: u64,
    },
    /// Outermost transaction aborted; isolation window stays open `window`
    /// cycles (the version manager's repair time).
    TxAbort {
        /// Abort/repair window length.
        window: u64,
    },
    /// Outermost transaction committed.
    TxCommit {
        /// Total commit latency.
        window: u64,
        /// Portion attributable to lazy arbitration + merge.
        committing: u64,
    },
    /// Randomized exponential backoff after an abort.
    Backoff {
        /// Backoff length drawn.
        cycles: u64,
    },
    /// Lazy committer waited `wait` cycles for the chip-wide commit token
    /// (includes the fixed arbitration latency).
    CommitArbitration {
        /// Arbitration wait.
        wait: u64,
    },
    /// LogTM-SE-style software abort walked `entries` undo-log records.
    UndoWalk {
        /// Undo records replayed.
        entries: u64,
    },
    /// FasTM fast abort gang-invalidated `lines` speculative L1 lines.
    GangInvalidate {
        /// Lines invalidated.
        lines: u64,
    },
    /// Lazy commit drained `lines` write-buffer lines into memory.
    WriteBufferDrain {
        /// Lines merged.
        lines: u64,
    },
    /// SUV redirect lookup answered at `level`.
    RedirectLookup {
        /// Answering level.
        level: RedirectLevel,
    },
    /// SUV allocated a pool slot for a new redirected line.
    PoolAlloc {
        /// The allocation opened a fresh pool page (extra OS cost).
        fresh_page: bool,
    },
    /// SUV redirect-back: a store hit a committed redirect entry and
    /// reclaimed the original location instead of allocating a slot.
    RedirectBack,
    /// A redirect-table entry for `line` was swapped out to the in-memory
    /// table (L2 redirect table full).
    TableSwapOut {
        /// Affected line.
        line: u64,
    },
    /// L1 miss on `line` (fill issued to L2/directory).
    L1Miss {
        /// Missing line.
        line: u64,
    },
    /// L2 miss on `line` (fill served from memory).
    L2Miss {
        /// Missing line.
        line: u64,
    },
    /// A speculatively-written L1 line was evicted mid-transaction (the
    /// overflow path that degenerates FasTM and fills Table V).
    SpecEviction {
        /// Evicted line.
        line: u64,
    },
    /// Thread waited `cycles` at the program barrier.
    BarrierWait {
        /// Wait length.
        cycles: u64,
    },
    /// The version manager ran out of capacity on a store to `line`
    /// (redirect pool dry, undo log full, write buffer full); the
    /// transaction aborts and climbs the escalation ladder.
    OverflowAbort {
        /// The line whose store overflowed.
        line: u64,
    },
    /// A transaction was escalated to the next rung of the ladder (the
    /// software tier or irrevocable serialized mode).
    WatchdogEscalation {
        /// Which budget or watchdog fired.
        reason: EscalationReason,
    },
    /// An irrevocable transaction committed and released the chip-wide
    /// irrevocable token.
    IrrevocableCommit {
        /// Total commit latency (same as the paired `TxCommit` window).
        window: u64,
    },
    /// The deterministic fault injector perturbed this core.
    FaultInjected {
        /// What was injected.
        kind: FaultKind,
        /// Cycles the fault cost this core.
        cycles: u64,
    },
    /// A transaction entered (or re-entered) the STM-mode software
    /// fallback tier of the escalation ladder.
    FallbackBegin {
        /// Software attempt number of this dynamic transaction (1-based).
        attempt: u32,
    },
    /// A software-fallback transaction validated and committed; its commit
    /// locks defend for the paired `TxCommit` window.
    FallbackCommit {
        /// Distinct lines written back at commit.
        writes: u64,
    },
    /// A software-fallback attempt aborted.
    FallbackAbort {
        /// Why it lost.
        reason: FallbackAbortReason,
    },
    /// A hardware/software cross-tier conflict on `line`.
    HwSwConflict {
        /// Conflicting line.
        line: u64,
        /// Which tier lost to which.
        dir: ConflictDir,
    },
}

/// Number of distinct kind ids, including the unused id 0 — sized so that
/// `kind_id()` always indexes a `[_; KIND_COUNT]` table.
pub const KIND_COUNT: usize = 29;

/// Kind name by kind id (index 0 is unused padding); the
/// `kind_tables_agree` test keeps it as long as the id space.
pub const KIND_NAMES: [&str; KIND_COUNT] = [
    "",
    "tx_begin",
    "tx_read",
    "tx_write",
    "nack",
    "stall",
    "tx_abort",
    "tx_commit",
    "backoff",
    "commit_arbitration",
    "undo_walk",
    "gang_invalidate",
    "write_buffer_drain",
    "redirect_lookup",
    "pool_alloc",
    "redirect_back",
    "table_swap_out",
    "l1_miss",
    "l2_miss",
    "spec_eviction",
    "barrier_wait",
    "overflow_abort",
    "watchdog_escalation",
    "irrevocable_commit",
    "fault_injected",
    "fallback_begin",
    "fallback_commit",
    "fallback_abort",
    "hw_sw_conflict",
];

/// Everything the tracer derives from one event, by [`TraceEvent::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Stable kind id (hashing; never reorder existing entries).
    pub kind: u64,
    /// Two payload words folded into the trace hash (exhaustive over every
    /// field so any behavioural divergence changes the hash).
    pub payload: (u64, u64),
    /// The event's magnitude, if it has one (drives the automatic
    /// histograms: stall lengths, backoff draws, undo-walk lengths, ...).
    pub magnitude: Option<u64>,
}

/// An event with no magnitude.
const fn plain(kind: u64, p0: u64, p1: u64) -> Decoded {
    Decoded { kind, payload: (p0, p1), magnitude: None }
}

/// An event whose histogram observes `magnitude`.
const fn sized(kind: u64, p0: u64, p1: u64, magnitude: u64) -> Decoded {
    Decoded { kind, payload: (p0, p1), magnitude: Some(magnitude) }
}

impl TraceEvent {
    /// Kind id, payload words and magnitude in one match: the tracer pays
    /// one dispatch on the variant per event, and a new variant cannot be
    /// wired into one of the three and forgotten in another (every variant
    /// is named here: clippy denies a catch-all arm, whether it absorbs one
    /// variant or several).
    #[inline]
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn decode(&self) -> Decoded {
        match *self {
            TraceEvent::TxBegin { site, lazy } => plain(1, u64::from(site), u64::from(lazy)),
            TraceEvent::TxRead { line } => plain(2, line, 0),
            TraceEvent::TxWrite { line } => plain(3, line, 0),
            TraceEvent::Nack { requester, must_abort } => {
                plain(4, u64::from(requester), u64::from(must_abort))
            }
            TraceEvent::Stall { line, cycles } => sized(5, line, cycles, cycles),
            TraceEvent::TxAbort { window } => sized(6, window, 0, window),
            TraceEvent::TxCommit { window, committing } => sized(7, window, committing, window),
            TraceEvent::Backoff { cycles } => sized(8, cycles, 0, cycles),
            TraceEvent::CommitArbitration { wait } => sized(9, wait, 0, wait),
            TraceEvent::UndoWalk { entries } => sized(10, entries, 0, entries),
            TraceEvent::GangInvalidate { lines } => sized(11, lines, 0, lines),
            TraceEvent::WriteBufferDrain { lines } => sized(12, lines, 0, lines),
            TraceEvent::RedirectLookup { level } => plain(13, level.id(), 0),
            TraceEvent::PoolAlloc { fresh_page } => plain(14, u64::from(fresh_page), 0),
            TraceEvent::RedirectBack => plain(15, 0, 0),
            TraceEvent::TableSwapOut { line } => plain(16, line, 0),
            TraceEvent::L1Miss { line } => plain(17, line, 0),
            TraceEvent::L2Miss { line } => plain(18, line, 0),
            TraceEvent::SpecEviction { line } => plain(19, line, 0),
            TraceEvent::BarrierWait { cycles } => sized(20, cycles, 0, cycles),
            TraceEvent::OverflowAbort { line } => plain(21, line, 0),
            TraceEvent::WatchdogEscalation { reason } => plain(22, reason.id(), 0),
            TraceEvent::IrrevocableCommit { window } => sized(23, window, 0, window),
            TraceEvent::FaultInjected { kind, cycles } => sized(24, kind.id(), cycles, cycles),
            TraceEvent::FallbackBegin { attempt } => plain(25, u64::from(attempt), 0),
            TraceEvent::FallbackCommit { writes } => sized(26, writes, 0, writes),
            TraceEvent::FallbackAbort { reason } => plain(27, reason.id(), 0),
            TraceEvent::HwSwConflict { line, dir } => plain(28, line, dir.id()),
        }
    }

    /// Stable kind id ([`Decoded::kind`]).
    pub fn kind_id(&self) -> u64 {
        self.decode().kind
    }

    /// Stable kind name (metrics keys, summaries, Chrome event names).
    pub fn kind_name(&self) -> &'static str {
        KIND_NAMES[self.kind_id() as usize]
    }

    /// The two hashed payload words ([`Decoded::payload`]).
    pub fn payload(&self) -> (u64, u64) {
        self.decode().payload
    }
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global cycle at which the event happened.
    pub t: Cycle,
    /// Core (== simulated thread) the event is attributed to.
    pub core: CoreId,
    /// The event.
    pub ev: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every kind.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TxBegin { site: 0, lazy: false },
            TraceEvent::TxRead { line: 0 },
            TraceEvent::TxWrite { line: 0 },
            TraceEvent::Nack { requester: 0, must_abort: false },
            TraceEvent::Stall { line: 0, cycles: 0 },
            TraceEvent::TxAbort { window: 0 },
            TraceEvent::TxCommit { window: 0, committing: 0 },
            TraceEvent::Backoff { cycles: 0 },
            TraceEvent::CommitArbitration { wait: 0 },
            TraceEvent::UndoWalk { entries: 0 },
            TraceEvent::GangInvalidate { lines: 0 },
            TraceEvent::WriteBufferDrain { lines: 0 },
            TraceEvent::RedirectLookup { level: RedirectLevel::L1 },
            TraceEvent::PoolAlloc { fresh_page: false },
            TraceEvent::RedirectBack,
            TraceEvent::TableSwapOut { line: 0 },
            TraceEvent::L1Miss { line: 0 },
            TraceEvent::L2Miss { line: 0 },
            TraceEvent::SpecEviction { line: 0 },
            TraceEvent::BarrierWait { cycles: 0 },
            TraceEvent::OverflowAbort { line: 0 },
            TraceEvent::WatchdogEscalation { reason: EscalationReason::OverflowBudget },
            TraceEvent::IrrevocableCommit { window: 0 },
            TraceEvent::FaultInjected { kind: FaultKind::SpuriousNack, cycles: 0 },
            TraceEvent::FallbackBegin { attempt: 0 },
            TraceEvent::FallbackCommit { writes: 0 },
            TraceEvent::FallbackAbort { reason: FallbackAbortReason::ValidationFailed },
            TraceEvent::HwSwConflict { line: 0, dir: ConflictDir::SwLockBlocksHw },
        ]
    }

    #[test]
    fn kind_ids_are_unique() {
        let events = one_of_each();
        let mut ids: Vec<u64> = events.iter().map(super::TraceEvent::kind_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), events.len(), "duplicate kind ids");
        let mut names: Vec<&str> = events.iter().map(super::TraceEvent::kind_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), events.len(), "duplicate kind names");
    }

    /// The typed vocabulary hashes and exports exactly as the `u32` codes
    /// it replaced: this table is the only place those integers appear.
    #[test]
    fn reason_ids_counters_and_keys_are_stable() {
        use {ConflictDir as D, EscalationReason as E, FallbackAbortReason as A, FaultKind as K};
        assert_eq!(E::ALL.map(E::id), [0, 1, 2, 3]);
        assert_eq!([A::ValidationFailed, A::HwConflict].map(A::id), [0, 2]);
        assert_eq!([K::SpuriousNack, K::NocDelay, K::SpuriousOverflow].map(K::id), [0, 1, 2]);
        assert_eq!(
            [D::SwLockBlocksHw, D::HwCommitDoomsSw, D::SwCommitVsHw, D::SwCommitDoomsSw].map(D::id),
            [0, 1, 2, 3]
        );
        // Each reason bumps exactly its own counter and keeps its JSON key.
        type Counter = fn(&mut TxStats) -> &mut u64;
        let fields: [(Counter, &str); 4] = [
            (|t| &mut t.esc_overflow, "overflow"),
            (|t| &mut t.esc_abort_watchdog, "abort_watchdog"),
            (|t| &mut t.esc_starvation, "starvation_watchdog"),
            (|t| &mut t.esc_sw_validation, "sw_validation_failure"),
        ];
        for (reason, (field, key)) in E::ALL.into_iter().zip(fields) {
            let (mut got, mut want) = (TxStats::default(), TxStats::default());
            *reason.counter(&mut got) += 1;
            *field(&mut want) += 1;
            assert_eq!(got, want, "{reason:?} bumped the wrong counter");
            assert_eq!(reason.key(), key);
        }
    }

    #[test]
    fn kind_tables_agree() {
        let events = one_of_each();
        assert_eq!(events.len() + 1, KIND_COUNT);
        for e in events {
            assert!((e.kind_id() as usize) < KIND_COUNT);
            assert!(!e.kind_name().is_empty(), "kind {} has no name", e.kind_id());
        }
    }

    #[test]
    fn payload_distinguishes_fields() {
        let a = TraceEvent::TxCommit { window: 10, committing: 3 };
        let b = TraceEvent::TxCommit { window: 10, committing: 4 };
        assert_ne!(a.payload(), b.payload());
    }
}
