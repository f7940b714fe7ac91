//! Per-core transaction descriptors.

use suv_sig::Signature;
use suv_types::{Cycle, LineAddr, LineSet, TxSite};

/// Lifecycle of a core's hardware transaction.
///
/// `Aborting` and `Committing` carry the end of the isolation window: until
/// that time the transaction's signatures keep defending its read/write
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

/// One nesting level's conflict-detection state (LogTM-Nested stacked
/// frame). The outermost level lives directly in [`TxState`]; each nested
/// level pushes a frame.
#[derive(Debug, Clone)]
pub struct NestFrame {
    /// This level's read signature.
    pub rsig: Signature,
    /// This level's write signature.
    pub wsig: Signature,
    /// This level's exact write set.
    pub write_set: LineSet,
    /// This level's exact read set.
    pub read_set: LineSet,
}

/// State of (at most) one transaction per core.
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
    /// Read signature.
    pub rsig: Signature,
    /// Write signature.
    pub wsig: Signature,
    /// Exact write set (distinct lines) — used for lazy commit validation
    /// and overflow statistics; the signatures remain the *detection*
    /// mechanism.
    pub write_set: LineSet,
    /// Distinct lines read (statistics only).
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
    /// Signature geometry, for allocating new frames.
    sig_geom: (usize, usize, bool),
}

impl TxState {
    /// Fresh descriptor; `perfect` selects exact-set signatures (ablation).
    #[must_use]
    pub fn with_mode(sig_bits: usize, sig_hashes: usize, perfect: bool) -> Self {
        let make = if perfect { Signature::perfect } else { Signature::new };
        TxState {
            status: TxStatus::Idle,
            timestamp: u64::MAX,
            site: TxSite::ANON,
            lazy: false,
            doomed: false,
            irrevocable: false,
            possible_cycle: false,
            depth: 0,
            rsig: make(sig_bits, sig_hashes),
            wsig: make(sig_bits, sig_hashes),
            write_set: LineSet::default(),
            read_set: LineSet::default(),
            attempts: 0,
            begin_time: 0,
            overflowed_l1: false,
            frames: Vec::new(),
            sig_geom: (sig_bits, sig_hashes, perfect),
        }
    }

    fn make_sig(&self) -> Signature {
        let (bits, k, perfect) = self.sig_geom;
        if perfect {
            Signature::perfect(bits, k)
        } else {
            Signature::new(bits, k)
        }
    }

    /// Push a stacked frame for a nested level.
    pub fn push_frame(&mut self) {
        self.frames.push(NestFrame {
            rsig: self.make_sig(),
            wsig: self.make_sig(),
            write_set: LineSet::default(),
            read_set: LineSet::default(),
        });
    }

    /// Pop the top frame, merging it into the level below (closed-nest
    /// commit: the inner sets become part of the parent's).
    pub fn merge_top_frame(&mut self) {
        let f = self.frames.pop().expect("no frame to merge");
        match self.frames.last_mut() {
            Some(parent) => {
                parent.rsig.union_with(&f.rsig);
                parent.wsig.union_with(&f.wsig);
                parent.write_set.extend(f.write_set);
                parent.read_set.extend(f.read_set);
            }
            None => {
                self.rsig.union_with(&f.rsig);
                self.wsig.union_with(&f.wsig);
                self.write_set.extend(f.write_set);
                self.read_set.extend(f.read_set);
            }
        }
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
    /// the line is new to the level's exact set (else its bits are set already).
    pub fn note(&mut self, write: bool, line: LineAddr) -> bool {
        let (sig, set) = match (self.frames.last_mut(), write) {
            (Some(f), false) => (&mut f.rsig, &mut f.read_set),
            (Some(f), true) => (&mut f.wsig, &mut f.write_set),
            (None, false) => (&mut self.rsig, &mut self.read_set),
            (None, true) => (&mut self.wsig, &mut self.write_set),
        };
        let fresh = set.insert(line);
        if fresh {
            sig.insert(line);
        }
        fresh
    }

    /// Does any level's read signature cover this line?
    #[must_use]
    pub fn rsig_hit(&self, line: LineAddr) -> bool {
        self.rsig.contains(line) || self.frames.iter().any(|f| f.rsig.contains(line))
    }

    /// Does any level's write signature cover this line?
    #[must_use]
    pub fn wsig_hit(&self, line: LineAddr) -> bool {
        self.wsig.contains(line) || self.frames.iter().any(|f| f.wsig.contains(line))
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
        self.rsig.clear();
        self.wsig.clear();
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

    fn tx() -> TxState {
        TxState::with_mode(256, 2, false)
    }

    #[test]
    fn fresh_state_idle() {
        let t = tx();
        assert_eq!(t.status, TxStatus::Idle);
        assert!(!t.isolation_live(0));
        assert_eq!(t.depth, 0);
    }

    #[test]
    fn isolation_window_semantics() {
        let mut t = tx();
        t.status = TxStatus::Active;
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
        let mut t = tx();
        t.status = TxStatus::Active;
        t.attempts = 3;
        t.timestamp = 42;
        t.wsig.insert(0x40);
        t.write_set.insert(0x40);
        t.possible_cycle = true;
        t.clear_attempt();
        assert_eq!(t.status, TxStatus::Idle);
        assert!(t.wsig.is_clear());
        assert!(t.write_set.is_empty());
        assert!(!t.possible_cycle);
        assert_eq!(t.attempts, 3, "retry count survives an attempt");
        assert_eq!(t.timestamp, 42, "age survives an attempt (LogTM rule)");
    }

    #[test]
    fn clear_dynamic_resets_everything() {
        let mut t = tx();
        t.attempts = 5;
        t.timestamp = 7;
        t.clear_dynamic();
        assert_eq!(t.attempts, 0);
        assert_eq!(t.timestamp, u64::MAX);
    }
}
