//! Exhaustive MESI reachability enumeration.
//!
//! Workload-driven tests only visit the protocol states a particular
//! interleaving happens to produce. This module instead enumerates *every*
//! state of the real [`MemorySystem`] reachable under a load/store/evict
//! stimulus alphabet and asserts the protocol invariants (INV-1..INV-4 in
//! DESIGN.md) in each one.
//!
//! The system is deliberately driven through its public interface — the
//! same `has_permission`/`access_hit`/`fill`/`invalidate_local` calls the
//! HTM layer makes — so the enumeration checks the implementation, not a
//! re-derived abstract model. The breadth-first search carries a clone of
//! the system with each frontier state and applies one op to a fresh clone
//! per transition; state fingerprints (per-core MESI states plus the
//! directory entry, per tracked line) deduplicate the graph. Timing
//! components (bank queues, mesh clocks) are excluded from the
//! fingerprint: they never influence protocol transitions, only
//! latencies.

use std::collections::VecDeque;
use suv_coherence::{AccessKind, MemorySystem, Mesi};
use suv_types::{Addr, CheckLevel, Cycle, MachineConfig};

/// One stimulus to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stimulus {
    Load,
    Store,
    /// Drop the core's own copy (eviction / FasTM abort-invalidate).
    Evict,
}

/// `(core, addr, stimulus)`.
pub type Op = (usize, Addr, Stimulus);

/// Result of a reachability enumeration.
#[derive(Debug, Clone, Default)]
pub struct MesiReport {
    /// Distinct protocol states visited.
    pub states_explored: usize,
    /// State-graph transitions taken (including self-loops).
    pub transitions: usize,
    /// True when the `max_states` budget stopped the enumeration before
    /// the fixpoint — the verdict then covers the explored prefix only.
    pub truncated: bool,
    /// Invariant violations, each with the op path that reaches it.
    pub violations: Vec<String>,
}

impl MesiReport {
    /// Fixpoint reached with no violations?
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }

    /// Merge another scenario's report into this one.
    pub fn merge(&mut self, other: MesiReport) {
        self.states_explored += other.states_explored;
        self.transitions += other.transitions;
        self.truncated |= other.truncated;
        self.violations.extend(other.violations);
    }
}

/// Enumerate all reachable states of a `MemorySystem` built from `cfg`
/// under every interleaving of load/store/evict on `lines` from every
/// core, checking INV-1..INV-4 in each state. `max_states` bounds the
/// search; hitting it sets [`MesiReport::truncated`] rather than silently
/// passing.
pub fn enumerate(cfg: &MachineConfig, lines: &[Addr], max_states: usize) -> MesiReport {
    enumerate_mutated(cfg, lines, max_states, &|_, _| {})
}

/// [`enumerate`] with a seeded-corruption hook: after each newly reached
/// state is fingerprinted (so the search shape is unaffected), `corrupt`
/// may mutate the system — keyed on the op path that reached it — before
/// the invariant audit runs. This is the checker's self-test surface: a
/// hook that breaks one MESI transition must surface as a reported
/// violation, or the audit is vacuous.
pub fn enumerate_mutated(
    cfg: &MachineConfig,
    lines: &[Addr],
    max_states: usize,
    corrupt: &dyn Fn(&mut MemorySystem, &[Op]),
) -> MesiReport {
    let mut cfg = *cfg;
    // The enumeration collects violations itself; the in-fill assertions
    // would panic on the first one instead.
    cfg.check = CheckLevel::Off;

    let mut ops: Vec<Op> = Vec::new();
    for core in 0..cfg.n_cores {
        for &line in lines {
            for st in [Stimulus::Load, Stimulus::Store, Stimulus::Evict] {
                ops.push((core, line, st));
            }
        }
    }

    // Search nodes: op paths stored as parent links, for the violation
    // message.
    struct Node {
        parent: usize,
        op: Option<Op>,
    }
    let mut nodes: Vec<Node> = vec![Node { parent: usize::MAX, op: None }];
    #[expect(clippy::disallowed_types, reason = "off the access path: the search's visited set")]
    let mut seen = std::collections::HashMap::<Vec<u64>, usize>::new();
    // Frontier: node, the system in that state, and the time of its next op
    // (each op of a path is issued 100 cycles after the one before).
    let mut queue: VecDeque<(usize, MemorySystem, Cycle)> = VecDeque::new();
    let mut report = MesiReport::default();

    let path_of = |nodes: &[Node], mut idx: usize| -> Vec<Op> {
        let mut path = Vec::new();
        while let Some(op) = nodes[idx].op {
            path.push(op);
            idx = nodes[idx].parent;
        }
        path.reverse();
        path
    };

    let apply = |sys: &mut MemorySystem, now: Cycle, (core, addr, st): Op| match st {
        Stimulus::Load | Stimulus::Store => {
            let kind = if st == Stimulus::Store { AccessKind::Store } else { AccessKind::Load };
            if sys.has_permission(core, addr, kind) {
                sys.access_hit(core, addr, kind);
            } else {
                sys.fill(now, core, addr, kind);
            }
        }
        Stimulus::Evict => sys.invalidate_local(core, addr),
    };

    let fingerprint = |sys: &MemorySystem, lines: &[Addr]| -> Vec<u64> {
        let mut fp = Vec::with_capacity(lines.len() * (sys.config().n_cores + 2));
        for &line in lines {
            for core in 0..sys.config().n_cores {
                fp.push(match sys.l1_state(core, line) {
                    None => 0,
                    Some(Mesi::Modified) => 1,
                    Some(Mesi::Exclusive) => 2,
                    Some(Mesi::Shared) => 3,
                });
            }
            let e = sys.dir_entry(line);
            // All sharer-vector words up to the machine's core count, so
            // two states differing only in a >=64 sharer never collide.
            for w in 0..suv_types::SharerSet::words_for(sys.config().n_cores) {
                fp.push(e.sharers.word(w));
            }
            fp.push(e.owner.map_or(u64::MAX, |o| o as u64));
        }
        fp
    };

    let root_sys = MemorySystem::new(&cfg);
    seen.insert(fingerprint(&root_sys, lines), 0);
    queue.push_back((0, root_sys, 0));
    report.states_explored = 1;

    while let Some((idx, base, now)) = queue.pop_front() {
        if report.states_explored >= max_states {
            report.truncated = true;
            break;
        }
        for &op in &ops {
            let mut sys = base.clone();
            apply(&mut sys, now, op);
            report.transitions += 1;
            let fp = fingerprint(&sys, lines);
            if seen.contains_key(&fp) {
                continue;
            }
            nodes.push(Node { parent: idx, op: Some(op) });
            let new_idx = nodes.len() - 1;
            seen.insert(fp, new_idx);
            queue.push_back((new_idx, sys.clone(), now + 100));
            report.states_explored += 1;
            // The corruption is audited, never explored from.
            let path = path_of(&nodes, new_idx);
            corrupt(&mut sys, &path);
            if let Err(v) = sys.check_invariants() {
                report.violations.push(format!("{v}; reached via {path:?}"));
                if report.violations.len() >= 16 {
                    report.truncated = true;
                    queue.clear();
                    break;
                }
            }
        }
    }
    report
}

/// The standard two-scenario enumeration the test suite and `suvtm
/// --check=full` run:
///
/// 1. pure protocol — all cores hammer two lines in a capacity-unlimited
///    configuration, so every M/E/S/I interleaving is reached without
///    replacement noise;
/// 2. replacement interplay — a 1-set × 2-way L1 with three lines in the
///    set forces evictions through the same invariants.
pub fn check_mesi_reachability() -> MesiReport {
    let cfg = MachineConfig::small_test();
    let mut report = enumerate(&cfg, &[0x0, 0x40], 50_000);

    let mut tiny = MachineConfig::small_test();
    tiny.n_cores = 2;
    tiny.l1.capacity_bytes = 128; // 1 set x 2 ways
    tiny.l1.ways = 2;
    report.merge(enumerate(&tiny, &[0x0, 0x40, 0x80], 50_000));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_fixpoint_is_clean() {
        let cfg = MachineConfig::small_test();
        let r = enumerate(&cfg, &[0x0, 0x40], 50_000);
        assert!(r.ok(), "violations: {:?}", r.violations);
        // All-I, one-E, one-M, shared combinations ... the space must be
        // non-trivial or the enumeration is vacuous.
        assert!(r.states_explored > 50, "only {} states reached", r.states_explored);
    }

    #[test]
    fn eviction_scenario_is_clean() {
        let mut tiny = MachineConfig::small_test();
        tiny.n_cores = 2;
        tiny.l1.capacity_bytes = 128;
        tiny.l1.ways = 2;
        let r = enumerate(&tiny, &[0x0, 0x40, 0x80], 50_000);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    /// The eviction-vs-invalidation race: core 0 upgrades a shared line
    /// to Modified (which invalidates core 1's copy) while core 1 evicts
    /// the same line. The atomic model serializes the race into its two
    /// orders; both must keep the directory and the L1s consistent — in
    /// particular, the loser's late `invalidate_local` of an
    /// already-invalidated line must be a no-op, not a second
    /// `remove_sharer` that corrupts the entry.
    #[test]
    fn eviction_racing_remote_invalidation_is_clean() {
        for evict_first in [true, false] {
            let mut cfg = MachineConfig::small_test();
            cfg.check = CheckLevel::Off;
            let mut sys = MemorySystem::new(&cfg);
            // Both cores read the line: S/S.
            sys.fill(0, 1, 0x40, AccessKind::Load);
            sys.fill(100, 0, 0x40, AccessKind::Load);
            assert_eq!(sys.l1_state(1, 0x40), Some(Mesi::Shared));
            if evict_first {
                sys.invalidate_local(1, 0x40);
                sys.fill(200, 0, 0x40, AccessKind::Store);
            } else {
                sys.fill(200, 0, 0x40, AccessKind::Store);
                // Core 1's copy is already gone; its queued eviction
                // arrives late and must change nothing.
                assert_eq!(sys.l1_state(1, 0x40), None);
                let before = sys.dir_entry(0x40).clone();
                sys.invalidate_local(1, 0x40);
                assert_eq!(&before, sys.dir_entry(0x40), "late evict must be a no-op");
            }
            sys.check_invariants().unwrap_or_else(|v| panic!("evict_first={evict_first}: {v}"));
            assert_eq!(sys.l1_state(0, 0x40), Some(Mesi::Modified));
            assert_eq!(sys.l1_state(1, 0x40), None);
        }
    }

    /// An eviction of a *dirty* line while another core's fill is about
    /// to pull it: the write-back path and the subsequent fill must agree
    /// on the directory state at every step.
    #[test]
    fn dirty_eviction_before_remote_fill_is_clean() {
        let mut cfg = MachineConfig::small_test();
        cfg.check = CheckLevel::Off;
        let mut sys = MemorySystem::new(&cfg);
        sys.fill(0, 0, 0x40, AccessKind::Store);
        assert_eq!(sys.l1_state(0, 0x40), Some(Mesi::Modified));
        sys.writeback_line(100, 0, 0x40);
        sys.invalidate_local(0, 0x40);
        sys.check_invariants().expect("clean after dirty eviction");
        sys.fill(200, 1, 0x40, AccessKind::Load);
        sys.check_invariants().expect("clean after the racing fill");
        assert_eq!(sys.l1_state(0, 0x40), None);
        assert!(sys.l1_state(1, 0x40).is_some());
    }

    /// Checker self-test: corrupt exactly one MESI transition (the
    /// directory silently forgets core 1's sharer bit right after core 1
    /// gains Modified) and require the audit to report it with the op
    /// path. A reachability pass that stays green under a seeded protocol
    /// bug would be vacuous.
    #[test]
    fn seeded_drop_sharer_bug_is_reported() {
        let cfg = MachineConfig::small_test();
        let r = enumerate_mutated(&cfg, &[0x0, 0x40], 50_000, &|sys, path| {
            if path.last() == Some(&(1, 0x0, Stimulus::Store)) {
                sys.inject_drop_sharer(0x0, 1);
            }
        });
        assert!(!r.violations.is_empty(), "seeded drop-sharer bug not reported");
        // Dropping the M-holder's directory record trips the owner check
        // (INV-4) first; a pure sharer-bit loss would surface as INV-3.
        // Either way the report must carry the reproducing op path.
        assert!(
            r.violations
                .iter()
                .any(|v| (v.contains("INV-3") || v.contains("INV-4")) && v.contains("reached via")),
            "violation must name the invariant and carry the reproducing path: {:?}",
            r.violations
        );
    }

    fn wide_cfg(n_cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::small_test();
        cfg.n_cores = n_cores;
        cfg.check = CheckLevel::Off;
        cfg
    }

    /// Directed boundary audit: full reachability enumeration is
    /// intractable beyond a handful of cores (the branching factor is
    /// cores x lines x 3), so the word-boundary machines are driven
    /// through the sharing patterns the old `u64` vector got wrong —
    /// wide sharing across the 64-core seam, then an upgrade that must
    /// invalidate every sharer on both sides of it.
    #[test]
    fn boundary_core_counts_pass_the_audit() {
        for n in [63usize, 64, 65, 128] {
            let mut sys = MemorySystem::new(&wide_cfg(n));
            let mut now: Cycle = 0;
            // Every core reads the line: n-way sharing.
            for core in 0..n {
                sys.fill(now, core, 0x40, AccessKind::Load);
                now += 100;
            }
            sys.check_invariants().unwrap_or_else(|v| panic!("{n} cores, after wide sharing: {v}"));
            let e = sys.dir_entry(0x40);
            assert_eq!(e.sharers.count() as usize, n, "{n} cores must all be sharers");
            // The last core upgrades: everyone else is invalidated. With
            // the old wrapped shifts, core 64's bit aliased core 0's and
            // this is exactly where the directory lost track.
            sys.fill(now, n - 1, 0x40, AccessKind::Store);
            sys.check_invariants().unwrap_or_else(|v| panic!("{n} cores, after upgrade: {v}"));
            assert_eq!(sys.l1_state(n - 1, 0x40), Some(Mesi::Modified));
            for core in 0..n - 1 {
                assert_eq!(sys.l1_state(core, 0x40), None, "{n} cores: {core} not invalidated");
            }
        }
    }

    /// The seeded-bug self-test must still fire on a >64-core machine,
    /// i.e. the audit's INV-3 subset check really covers the extension
    /// words.
    #[test]
    fn seeded_bug_at_core_100_is_reported() {
        let n = 128;
        let mut sys = MemorySystem::new(&wide_cfg(n));
        sys.fill(0, 0, 0x40, AccessKind::Load);
        sys.fill(100, 100, 0x40, AccessKind::Load);
        sys.inject_drop_sharer(0x40, 100);
        let err = sys.check_invariants().expect_err("dropped high sharer must be caught");
        assert!(err.contains("INV-3"), "expected INV-3, got: {err}");
    }

    #[test]
    fn budget_exhaustion_is_reported_not_hidden() {
        let cfg = MachineConfig::small_test();
        let r = enumerate(&cfg, &[0x0, 0x40], 3);
        assert!(r.truncated);
        assert!(!r.ok(), "a truncated run must not claim a clean fixpoint");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Core ids clustered on the sharer-word boundaries of a 128-core
    /// machine — the ids the old single-word vector aliased.
    fn boundary_core() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            Just(1usize),
            Just(62usize),
            Just(63usize),
            Just(64usize),
            Just(65usize),
            Just(126usize),
            Just(127usize),
        ]
    }

    fn stimulus() -> impl Strategy<Value = Stimulus> {
        prop_oneof![Just(Stimulus::Load), Just(Stimulus::Store), Just(Stimulus::Evict)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random load/store/evict interleavings from boundary cores on a
        /// 128-core machine keep INV-1..INV-4 after every single op.
        #[test]
        fn boundary_interleavings_keep_invariants(
            ops in proptest::collection::vec(
                (boundary_core(), prop_oneof![Just(0x0u64), Just(0x40u64)], stimulus()),
                1..40,
            )
        ) {
            let mut cfg = MachineConfig::small_test();
            cfg.n_cores = 128;
            cfg.check = CheckLevel::Off;
            let mut sys = MemorySystem::new(&cfg);
            let mut now: Cycle = 0;
            for &(core, addr, st) in &ops {
                match st {
                    Stimulus::Load | Stimulus::Store => {
                        let kind = if st == Stimulus::Store {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        if sys.has_permission(core, addr, kind) {
                            sys.access_hit(core, addr, kind);
                        } else {
                            sys.fill(now, core, addr, kind);
                        }
                    }
                    Stimulus::Evict => sys.invalidate_local(core, addr),
                }
                now += 100;
                let audit = sys.check_invariants();
                prop_assert!(audit.is_ok(), "after {}/{:#x}/{:?}: {:?}", core, addr, st, audit);
            }
        }
    }
}
