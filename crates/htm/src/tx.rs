//! Per-core transaction descriptors.

use suv_types::{Cycle, LineAddr, LineSet, TxSite};

/// Lifecycle of a core's hardware transaction.
///
/// `Aborting` and `Committing` carry the end of the isolation window: until
/// that time the transaction's sets keep defending its read/write
/// sets — this is the repair/merge pathology mechanism of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxStatus {
    /// No transaction in flight.
    #[default]
    Idle,
    /// Executing transactional work.
    Active,
    /// Rolling back; isolation held until the given cycle.
    Aborting { until: Cycle },
    /// Making updates visible; isolation held until the given cycle.
    Committing { until: Cycle },
}

/// One nesting level's exact sets (LogTM-Nested stacked frame). The
/// outermost level lives directly in [`TxState`]; each nested level pushes
/// a frame.
#[derive(Debug, Clone, Default)]
pub struct NestFrame {
    /// This level's exact write set.
    pub write_set: LineSet,
    /// This level's exact read set.
    pub read_set: LineSet,
}

/// State of (at most) one transaction per core. Its read and write
/// signatures are the core's two columns of the machine's signature index,
/// kept from the levels' exact sets.
#[derive(Debug, Clone)]
pub struct TxState {
    /// Lifecycle stage.
    pub status: TxStatus,
    /// Total order for conflict resolution: smaller = older. Assigned at
    /// the *first* attempt of a dynamic transaction and retained across
    /// retries so the oldest transaction eventually wins (LogTM rule).
    pub timestamp: u64,
    /// Static transaction site (for DynTM's predictor).
    pub site: TxSite,
    /// Running with lazy conflict detection (DynTM lazy mode)?
    pub lazy: bool,
    /// A committing lazy transaction decided this one must abort.
    pub doomed: bool,
    /// Running in irrevocable serialized mode (escalation ladder): holds
    /// the chip-wide irrevocable token, never receives a must-abort NACK
    /// verdict, and is guaranteed to commit. At most one core chip-wide
    /// (INV-11).
    pub irrevocable: bool,
    /// LogTM possible-cycle flag: set when this transaction NACKs an older
    /// requester; if it is then NACKed itself by an older transaction, it
    /// aborts to break a potential dependence cycle.
    pub possible_cycle: bool,
    /// Nesting depth (0 = not in a transaction).
    pub depth: usize,
    /// Exact write set (distinct lines) — used for lazy commit validation
    /// and overflow statistics; the signatures remain the *detection*
    /// mechanism.
    pub write_set: LineSet,
    /// Distinct lines read.
    pub read_set: LineSet,
    /// Consecutive aborts of the current dynamic transaction (backoff).
    pub attempts: u32,
    /// Cycle at which the current attempt began.
    pub begin_time: Cycle,
    /// The current attempt speculatively wrote a line that was evicted
    /// from the L1 (transactional data overflow; Table V).
    pub overflowed_l1: bool,
    /// Stacked frames for nested levels (empty when flattening or at
    /// depth <= 1). `frames.len() == depth - 1` when partial-abort
    /// nesting is active.
    pub frames: Vec<NestFrame>,
}

impl Default for TxState {
    fn default() -> Self {
        TxState {
            status: TxStatus::Idle,
            timestamp: u64::MAX,
            site: TxSite::ANON,
            lazy: false,
            doomed: false,
            irrevocable: false,
            possible_cycle: false,
            depth: 0,
            write_set: LineSet::default(),
            read_set: LineSet::default(),
            attempts: 0,
            begin_time: 0,
            overflowed_l1: false,
            frames: Vec::new(),
        }
    }
}

impl TxState {
    /// Push a stacked frame for a nested level.
    pub fn push_frame(&mut self) {
        self.frames.push(NestFrame::default());
    }

    /// Pop the top frame, merging it into the level below (closed-nest
    /// commit: the inner sets become part of the parent's).
    pub fn merge_top_frame(&mut self) {
        let f = self.frames.pop().expect("no frame to merge");
        let (reads, writes) = match self.frames.last_mut() {
            Some(parent) => (&mut parent.read_set, &mut parent.write_set),
            None => (&mut self.read_set, &mut self.write_set),
        };
        reads.extend(f.read_set);
        writes.extend(f.write_set);
    }

    /// Drop the top frame and return it (partial abort: its sets stop defending).
    pub fn drop_top_frame(&mut self) -> NestFrame {
        self.frames.pop().expect("no frame to drop")
    }

    /// Every nesting level's exact `(read, write)` sets, outermost first.
    pub fn levels(&self) -> impl Iterator<Item = (&LineSet, &LineSet)> {
        std::iter::once((&self.read_set, &self.write_set))
            .chain(self.frames.iter().map(|f| (&f.read_set, &f.write_set)))
    }

    /// Record a read (with `write`, a write) at the current level. True when
    /// the line is new to the level's exact set: its bits must then enter
    /// the core's signature (else they are set already).
    pub fn note(&mut self, write: bool, line: LineAddr) -> bool {
        let set = match (self.frames.last_mut(), write) {
            (Some(f), false) => &mut f.read_set,
            (Some(f), true) => &mut f.write_set,
            (None, false) => &mut self.read_set,
            (None, true) => &mut self.write_set,
        };
        set.insert(line)
    }

    /// Exact: has any level of this transaction read this line?
    #[must_use]
    pub fn reads_contain(&self, line: LineAddr) -> bool {
        self.read_set.contains(&line) || self.frames.iter().any(|f| f.read_set.contains(&line))
    }

    /// Exact: has any level of this transaction written this line?
    #[must_use]
    pub fn writes_contain(&self, line: LineAddr) -> bool {
        self.write_set.contains(&line) || self.frames.iter().any(|f| f.write_set.contains(&line))
    }

    /// Every written line of every level, in no particular order and with
    /// a line repeated when several levels wrote it. Callers must reduce
    /// it order-free (`any`, `min`): the order is the hash table's.
    pub fn write_lines(&self) -> impl Iterator<Item = LineAddr> + Clone + '_ {
        self.write_set.iter().chain(self.frames.iter().flat_map(|f| &f.write_set)).copied()
    }

    /// Number of distinct written lines across levels (statistics).
    #[must_use]
    pub fn write_line_count(&self) -> usize {
        if self.frames.is_empty() {
            return self.write_set.len();
        }
        let mut all = self.write_set.clone();
        all.extend(self.frames.iter().flat_map(|f| &f.write_set));
        all.len()
    }

    /// Is the transaction currently defending its sets at time `now`?
    /// (Active always; Aborting/Committing until the window closes.)
    #[must_use]
    pub fn isolation_live(&self, now: Cycle) -> bool {
        match self.status {
            TxStatus::Idle => false,
            TxStatus::Active => true,
            TxStatus::Aborting { until } | TxStatus::Committing { until } => now < until,
        }
    }

    /// Does the transaction refuse conflicting requests while its isolation
    /// is live? Active lazy transactions are invisible until they commit;
    /// aborting/committing windows always defend.
    #[must_use]
    pub fn defends(&self) -> bool {
        match self.status {
            TxStatus::Active => !self.lazy,
            TxStatus::Aborting { .. } | TxStatus::Committing { .. } => true,
            TxStatus::Idle => false,
        }
    }

    /// Reset per-attempt state (after the isolation window closes).
    pub fn clear_attempt(&mut self) {
        self.status = TxStatus::Idle;
        self.lazy = false;
        self.doomed = false;
        self.irrevocable = false;
        self.possible_cycle = false;
        self.depth = 0;
        self.write_set.clear();
        self.read_set.clear();
        self.overflowed_l1 = false;
        self.frames.clear();
    }

    /// Reset everything including retry bookkeeping (after a commit).
    pub fn clear_dynamic(&mut self) {
        self.clear_attempt();
        self.attempts = 0;
        self.timestamp = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_idle() {
        let t = TxState::default();
        assert_eq!(t.status, TxStatus::Idle);
        assert!(!t.isolation_live(0));
        assert_eq!(t.depth, 0);
    }

    #[test]
    fn isolation_window_semantics() {
        let mut t = TxState { status: TxStatus::Active, ..TxState::default() };
        assert!(t.isolation_live(123));
        t.status = TxStatus::Aborting { until: 100 };
        assert!(t.isolation_live(99));
        assert!(!t.isolation_live(100));
        t.status = TxStatus::Committing { until: 50 };
        assert!(t.isolation_live(49));
        assert!(!t.isolation_live(51));
    }

    #[test]
    fn clear_attempt_keeps_retry_state() {
        let mut t = TxState {
            status: TxStatus::Active,
            attempts: 3,
            timestamp: 42,
            possible_cycle: true,
            ..TxState::default()
        };
        t.note(true, 0x40);
        t.clear_attempt();
        assert_eq!(t.status, TxStatus::Idle);
        assert!(!t.writes_contain(0x40));
        assert!(!t.possible_cycle);
        assert_eq!(t.attempts, 3, "retry count survives an attempt");
        assert_eq!(t.timestamp, 42, "age survives an attempt (LogTM rule)");
    }

    #[test]
    fn sets_follow_the_nesting_levels() {
        let mut t = TxState::default();
        assert!(t.note(false, 0x40));
        t.push_frame();
        assert!(t.note(false, 0x40), "new to the nested level");
        assert!(t.note(true, 0x80));
        assert!(t.reads_contain(0x40) && t.writes_contain(0x80));
        assert!(t.drop_top_frame().write_set.contains(&0x80));
        assert!(t.reads_contain(0x40) && !t.writes_contain(0x80), "the outer read survives");
        t.push_frame();
        t.note(true, 0xc0);
        t.merge_top_frame();
        assert!(t.frames.is_empty() && !t.note(true, 0xc0), "merged into the outer level");
    }

    #[test]
    fn clear_dynamic_resets_everything() {
        let mut t = TxState { attempts: 5, timestamp: 7, ..TxState::default() };
        t.clear_dynamic();
        assert_eq!(t.attempts, 0);
        assert_eq!(t.timestamp, u64::MAX);
    }
}
