//! Statistics containers.
//!
//! The central artifact is the execution-time [`Breakdown`] used by Figures
//! 6 and 9 of the paper: every simulated cycle of every thread is attributed
//! to exactly one component.

use crate::Cycle;

/// The execution-time components of Figures 6 and 9.
///
/// * `NoTrans`, `Trans` and `Barrier` are necessary costs;
/// * `Backoff`, `Stalled`, `Wasted`, `Aborting` and `Committing` are
///   serialization overheads introduced by the TM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakdownKind {
    /// Non-transactional work.
    NoTrans,
    /// Un-stalled transactional work that eventually committed.
    Trans,
    /// Waiting on a barrier.
    Barrier,
    /// Stalling after an abort (randomized exponential backoff).
    Backoff,
    /// Stalling to resolve a conflict (NACK/retry).
    Stalled,
    /// Work performed inside attempts that later aborted.
    Wasted,
    /// Rolling back during abort (undo-log walk, checkpoint restore, ...).
    Aborting,
    /// Committing (lazy write-back + arbitration; DynTM only in the paper).
    Committing,
}

impl BreakdownKind {
    /// All components, in the plotting order of Figure 6/9 (bottom to top).
    pub const ALL: [BreakdownKind; 8] = [
        BreakdownKind::NoTrans,
        BreakdownKind::Trans,
        BreakdownKind::Barrier,
        BreakdownKind::Backoff,
        BreakdownKind::Stalled,
        BreakdownKind::Wasted,
        BreakdownKind::Aborting,
        BreakdownKind::Committing,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BreakdownKind::NoTrans => "NoTrans",
            BreakdownKind::Trans => "Trans",
            BreakdownKind::Barrier => "Barrier",
            BreakdownKind::Backoff => "Backoff",
            BreakdownKind::Stalled => "Stalled",
            BreakdownKind::Wasted => "Wasted",
            BreakdownKind::Aborting => "Aborting",
            BreakdownKind::Committing => "Committing",
        }
    }
}

/// Per-thread (or aggregated) execution-time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    pub no_trans: Cycle,
    pub trans: Cycle,
    pub barrier: Cycle,
    pub backoff: Cycle,
    pub stalled: Cycle,
    pub wasted: Cycle,
    pub aborting: Cycle,
    pub committing: Cycle,
}

impl Breakdown {
    /// Add `cycles` to the given component.
    pub fn add(&mut self, kind: BreakdownKind, cycles: Cycle) {
        *self.get_mut(kind) += cycles;
    }

    /// Mutable access by component.
    pub fn get_mut(&mut self, kind: BreakdownKind) -> &mut Cycle {
        match kind {
            BreakdownKind::NoTrans => &mut self.no_trans,
            BreakdownKind::Trans => &mut self.trans,
            BreakdownKind::Barrier => &mut self.barrier,
            BreakdownKind::Backoff => &mut self.backoff,
            BreakdownKind::Stalled => &mut self.stalled,
            BreakdownKind::Wasted => &mut self.wasted,
            BreakdownKind::Aborting => &mut self.aborting,
            BreakdownKind::Committing => &mut self.committing,
        }
    }

    /// Read access by component.
    pub fn get(&self, kind: BreakdownKind) -> Cycle {
        match kind {
            BreakdownKind::NoTrans => self.no_trans,
            BreakdownKind::Trans => self.trans,
            BreakdownKind::Barrier => self.barrier,
            BreakdownKind::Backoff => self.backoff,
            BreakdownKind::Stalled => self.stalled,
            BreakdownKind::Wasted => self.wasted,
            BreakdownKind::Aborting => self.aborting,
            BreakdownKind::Committing => self.committing,
        }
    }

    /// Total attributed cycles.
    pub fn total(&self) -> Cycle {
        BreakdownKind::ALL.iter().map(|k| self.get(*k)).sum()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Breakdown) {
        for k in BreakdownKind::ALL {
            self.add(k, other.get(k));
        }
    }
}

/// Transaction-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// NACKs received while requesting (each causes a stall-retry).
    pub nacks_received: u64,
    /// NACKs sent to other cores' requests.
    pub nacks_sent: u64,
    /// Aborts triggered by the possible-cycle deadlock-avoidance rule.
    pub cycle_aborts: u64,
    /// Aborts of lazy transactions at commit-time validation.
    pub lazy_validation_aborts: u64,
    /// Transactional loads executed (including in aborted attempts).
    pub tx_loads: u64,
    /// Transactional stores executed (including in aborted attempts).
    pub tx_stores: u64,
    /// Maximum write-set size (distinct lines) observed in any attempt.
    pub max_write_set: u64,
    /// Sum over committed transactions of (commit_time - begin_time); used
    /// to report mean transaction length as in Table IV.
    pub committed_tx_cycles: u64,
    /// Aborts caused by a version-management capacity overflow (redirect
    /// pool dry, undo log full, write buffer full).
    pub overflow_aborts: u64,
    /// Transactions that committed in irrevocable (serialized) mode after
    /// climbing the escalation ladder.
    pub irrevocable_commits: u64,
    /// Transactions that committed in the STM-mode software fallback tier.
    pub sw_commits: u64,
    /// Software-fallback attempts that aborted (failed value validation
    /// or hardware conflicts; a busy commit lock stalls, never aborts).
    pub sw_aborts: u64,
    /// Hardware/software cross-tier conflicts: hardware accesses NACKed by
    /// a software commit lock, software transactions invalidated by a
    /// hardware commit, and software commits refused by hardware owners.
    pub hw_sw_conflicts: u64,
    /// Escalations triggered by the overflow retry budget (`EscalationReason::OverflowBudget`).
    pub esc_overflow: u64,
    /// Escalations triggered by the abort-count watchdog (`AbortWatchdog`).
    pub esc_abort_watchdog: u64,
    /// Escalations triggered by the starvation-cycles watchdog
    /// (`StarvationWatchdog`).
    pub esc_starvation: u64,
    /// Escalations out of the software tier after repeated validation
    /// failures or hardware conflicts (`SwBudget`).
    pub esc_sw_validation: u64,
}

impl TxStats {
    /// Abort ratio = aborts / (aborts + commits).
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.aborts + self.commits;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Mean length (cycles) of committed transactions.
    pub fn mean_tx_len(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.committed_tx_cycles as f64 / self.commits as f64
        }
    }

    /// Escalations to the next ladder rung — the software tier or
    /// irrevocable mode — for every reason: the sum of the `esc_*` fields.
    pub fn watchdog_escalations(&self) -> u64 {
        self.esc_overflow + self.esc_abort_watchdog + self.esc_starvation + self.esc_sw_validation
    }

    /// Element-wise accumulation (max for `max_write_set`).
    pub fn merge(&mut self, o: &TxStats) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.nacks_received += o.nacks_received;
        self.nacks_sent += o.nacks_sent;
        self.cycle_aborts += o.cycle_aborts;
        self.lazy_validation_aborts += o.lazy_validation_aborts;
        self.tx_loads += o.tx_loads;
        self.tx_stores += o.tx_stores;
        self.max_write_set = self.max_write_set.max(o.max_write_set);
        self.committed_tx_cycles += o.committed_tx_cycles;
        self.overflow_aborts += o.overflow_aborts;
        self.irrevocable_commits += o.irrevocable_commits;
        self.sw_commits += o.sw_commits;
        self.sw_aborts += o.sw_aborts;
        self.hw_sw_conflicts += o.hw_sw_conflicts;
        self.esc_overflow += o.esc_overflow;
        self.esc_abort_watchdog += o.esc_abort_watchdog;
        self.esc_starvation += o.esc_starvation;
        self.esc_sw_validation += o.esc_sw_validation;
    }
}

/// Overflow statistics (Table V).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverflowStats {
    /// Transactions whose speculatively-written lines overflowed the L1
    /// data cache (the event that makes FasTM degenerate to LogTM-SE and
    /// that forces LogTM-SE's sticky/summary handling).
    pub l1_data_overflow_txns: u64,
    /// Transactions that overflowed the first-level redirect table into the
    /// shared second-level table (SUV only).
    pub rt_l1_overflow_txns: u64,
    /// Transactions that overflowed the two-level redirect table into main
    /// memory (SUV only).
    pub rt_full_overflow_txns: u64,
    /// Lines evicted from L1 while speculatively written.
    pub speculative_evictions: u64,
}

impl OverflowStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, o: &OverflowStats) {
        self.l1_data_overflow_txns += o.l1_data_overflow_txns;
        self.rt_l1_overflow_txns += o.rt_l1_overflow_txns;
        self.rt_full_overflow_txns += o.rt_full_overflow_txns;
        self.speculative_evictions += o.speculative_evictions;
    }
}

/// Redirect-table behaviour statistics (Figures 7 and 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RedirectStats {
    /// Lookups that consulted the first-level table.
    pub l1_lookups: u64,
    /// Lookups that missed the first-level table.
    pub l1_misses: u64,
    /// Lookups that had to go to main memory (missed both tables).
    pub mem_lookups: u64,
    /// Redirect entries created.
    pub entries_added: u64,
    /// Redirect entries removed via the redirect-back optimization.
    pub entries_redirected_back: u64,
    /// Summary-signature false positives (lookup found no entry anywhere).
    pub summary_false_positives: u64,
    /// Accesses filtered out by the summary signature (no lookup needed).
    pub summary_filtered: u64,
}

impl RedirectStats {
    /// First-level miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_lookups == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_lookups as f64
        }
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, o: &RedirectStats) {
        self.l1_lookups += o.l1_lookups;
        self.l1_misses += o.l1_misses;
        self.mem_lookups += o.mem_lookups;
        self.entries_added += o.entries_added;
        self.entries_redirected_back += o.entries_redirected_back;
        self.summary_false_positives += o.summary_false_positives;
        self.summary_filtered += o.summary_filtered;
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Wall-clock of the simulated region, in cycles (max over threads).
    pub cycles: Cycle,
    /// Per-thread execution-time breakdowns.
    pub per_thread: Vec<Breakdown>,
    /// Per-thread end-of-run clocks; `per_thread[i].total()` must equal
    /// `per_thread_cycles[i]` (every consumed cycle is attributed to
    /// exactly one breakdown component — the reconciliation the runner's
    /// accounting test enforces).
    pub per_thread_cycles: Vec<Cycle>,
    /// Aggregated transaction counters.
    pub tx: TxStats,
    /// Aggregated overflow counters.
    pub overflow: OverflowStats,
    /// Aggregated redirect-table counters (zero for non-SUV schemes).
    pub redirect: RedirectStats,
    /// L1 data-cache misses (all cores).
    pub l1_misses: u64,
    /// L2 misses (to memory).
    pub l2_misses: u64,
    /// Transactions executed in lazy mode (DynTM).
    pub lazy_txns: u64,
    /// Transactions executed in eager mode (DynTM).
    pub eager_txns: u64,
}

impl MachineStats {
    /// Breakdown summed over all threads.
    pub fn total_breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for t in &self.per_thread {
            b.merge(t);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_roundtrip() {
        let mut b = Breakdown::default();
        for (i, k) in BreakdownKind::ALL.iter().enumerate() {
            b.add(*k, (i as u64 + 1) * 10);
        }
        for (i, k) in BreakdownKind::ALL.iter().enumerate() {
            assert_eq!(b.get(*k), (i as u64 + 1) * 10);
        }
        assert_eq!(b.total(), (1..=8).map(|i| i * 10).sum::<u64>());
    }

    #[test]
    fn breakdown_merge() {
        let mut a = Breakdown { trans: 5, ..Default::default() };
        let b = Breakdown { trans: 7, stalled: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.trans, 12);
        assert_eq!(a.stalled, 3);
    }

    #[test]
    fn abort_ratio() {
        let mut t = TxStats::default();
        assert_eq!(t.abort_ratio(), 0.0);
        t.commits = 3;
        t.aborts = 1;
        assert!((t.abort_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tx_merge_takes_max_write_set() {
        let mut a = TxStats { max_write_set: 4, ..Default::default() };
        let b = TxStats { max_write_set: 9, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.max_write_set, 9);
    }

    #[test]
    fn redirect_miss_rate() {
        let r = RedirectStats { l1_lookups: 100, l1_misses: 7, ..Default::default() };
        assert!((r.l1_miss_rate() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn machine_total_breakdown() {
        let mut s = MachineStats::default();
        s.per_thread.push(Breakdown { trans: 10, ..Default::default() });
        s.per_thread.push(Breakdown { trans: 5, barrier: 2, ..Default::default() });
        let t = s.total_breakdown();
        assert_eq!(t.trans, 15);
        assert_eq!(t.barrier, 2);
    }
}
