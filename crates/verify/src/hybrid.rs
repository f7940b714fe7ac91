//! The hybrid HW×SW fallback product machine.
//!
//! A 2-core, 1-address small-scope model of the STM escalation tier's
//! conflict rules: core 0 runs an eager, in-place hardware transaction
//! (read the cell, add 10, commit; undo on abort), core 1 runs a
//! software-fallback transaction (read the cell, acquire the commit-time
//! ownership lock, validate-and-add-1 atomically). The safety argument
//! mirrors the real machine in `suv-htm`:
//!
//! * the software lock NACKs hardware reads *and* writes while held
//!   (`sw_lock_nack`), so a locked address is never concurrently
//!   hardware-write-owned — the INV-13 state predicate;
//! * the software commit aborts when a live hardware writer owns the
//!   cell, value-validates its read set at the atomic commit instant,
//!   and dooms live hardware *readers* when it publishes;
//! * a doomed hardware transaction rolls its undo back and retries.
//!
//! One deliberate over-approximation: the machine also dooms in-flight
//! software read sets when a hardware transaction commits (an
//! abort-early optimization); the model omits that edge so a stale
//! software transaction *survives to its commit point* and the
//! value-based validation alone must carry the safety argument — which
//! is exactly what the `sw-skip-validation` mutation has to break.
//!
//! Both transactions increment once, so every serializable outcome ends
//! with the cell at 11 (0 + 10 + 1 in either order); any other terminal
//! value is a lost update. [`HybridMutation`] seeds the two documented
//! bugs: a software commit that skips validation (caught as a lost
//! update) and a hardware write that ignores the software lock (caught
//! as an INV-13 violation).

use crate::explore::{explore, ExploreReport, Model};
use suv_trace::{ConflictDir, TraceEvent, TraceRecord};

/// Retry counters saturate here; aborts past the cap simply stop
/// counting, keeping the state space finite without disabling retries.
const MAX_ATTEMPTS: u8 = 3;

/// Both transactions commit exactly one increment: +10 (hardware) and
/// +1 (software) over an initial 0.
const FINAL_VALUE: u32 = 11;

/// Seeded bugs for checker-of-the-checker tests and `--mutate-hybrid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridMutation {
    /// The software commit publishes without value-validating its read
    /// set: a hardware commit that slipped between the software read and
    /// the software commit is silently overwritten (lost update).
    SwSkipValidation,
    /// The hardware write path ignores the software ownership lock: the
    /// address becomes hardware-write-owned while software-locked, the
    /// exact state INV-13 forbids.
    HwIgnoreSwLock,
}

/// Every hybrid mutation, in CLI display order.
pub const ALL_HYBRID_MUTATIONS: [HybridMutation; 2] =
    [HybridMutation::SwSkipValidation, HybridMutation::HwIgnoreSwLock];

impl HybridMutation {
    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HybridMutation::SwSkipValidation => "sw-skip-validation",
            HybridMutation::HwIgnoreSwLock => "hw-ignore-sw-lock",
        }
    }

    /// Parse a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<HybridMutation> {
        ALL_HYBRID_MUTATIONS.iter().copied().find(|m| m.name() == s)
    }
}

/// Core 0's hardware-transaction phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum HwPhase {
    Idle,
    Active { read: bool, wrote: bool },
    Done,
}

/// Core 1's software-fallback phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum SwPhase {
    Idle,
    Active { read: bool },
    Done,
}

/// The full product state. `Ord` keeps exploration deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HybridState {
    /// The one shared memory cell.
    mem: u32,
    hw: HwPhase,
    /// Value the hardware read observed (its write is `hw_obs + 10`).
    hw_obs: u32,
    /// Pre-image saved by the eager in-place hardware write.
    hw_undo: u32,
    /// Set when a software commit invalidates the hardware read set.
    hw_doomed: bool,
    hw_attempts: u8,
    sw: SwPhase,
    /// Value the software read observed (its write is `sw_obs + 1`).
    sw_obs: u32,
    /// Software commit-time ownership lock on the cell.
    sw_locked: bool,
    sw_attempts: u8,
}

/// One enabled transition of either core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridAction {
    HwBegin,
    HwRead,
    HwWrite,
    HwCommit,
    HwAbort,
    SwBegin,
    SwRead,
    SwLock,
    /// The atomic software commit: lock held, validate (unless mutated),
    /// publish, doom hardware readers, release. Validation failure and
    /// live-hardware-writer conflicts fold into this action as the
    /// abort-and-retry outcome.
    SwCommit,
}

/// The model, optionally seeded with one mutation.
pub struct HybridModel {
    pub mutation: Option<HybridMutation>,
}

impl HybridModel {
    fn is(&self, m: HybridMutation) -> bool {
        self.mutation == Some(m)
    }
}

impl Model for HybridModel {
    type State = HybridState;
    type Action = HybridAction;

    fn initial(&self) -> HybridState {
        HybridState {
            mem: 0,
            hw: HwPhase::Idle,
            hw_obs: 0,
            hw_undo: 0,
            hw_doomed: false,
            hw_attempts: 0,
            sw: SwPhase::Idle,
            sw_obs: 0,
            sw_locked: false,
            sw_attempts: 0,
        }
    }

    fn actions(&self, s: &HybridState, out: &mut Vec<HybridAction>) {
        // A live hardware writer owns the cell until commit or abort.
        let hw_writer = matches!(s.hw, HwPhase::Active { wrote: true, .. });
        match s.hw {
            HwPhase::Idle => out.push(HybridAction::HwBegin),
            HwPhase::Active { read, wrote } => {
                if s.hw_doomed {
                    out.push(HybridAction::HwAbort);
                } else {
                    // The software lock NACKs every hardware access; the
                    // mutated write path barges through it.
                    if !read && !s.sw_locked {
                        out.push(HybridAction::HwRead);
                    }
                    if read && !wrote && (!s.sw_locked || self.is(HybridMutation::HwIgnoreSwLock)) {
                        out.push(HybridAction::HwWrite);
                    }
                    if wrote {
                        out.push(HybridAction::HwCommit);
                    }
                }
            }
            HwPhase::Done => {}
        }
        match s.sw {
            SwPhase::Idle => out.push(HybridAction::SwBegin),
            SwPhase::Active { read } => {
                // Software reads and lock acquisition stall against a
                // speculative hardware writer (the machine's NACK).
                if !read && !hw_writer {
                    out.push(HybridAction::SwRead);
                }
                if read && !s.sw_locked && !hw_writer {
                    out.push(HybridAction::SwLock);
                }
                if read && s.sw_locked {
                    out.push(HybridAction::SwCommit);
                }
            }
            SwPhase::Done => {}
        }
    }

    fn step(&self, s: &HybridState, a: HybridAction) -> Result<HybridState, String> {
        let mut n = s.clone();
        match a {
            HybridAction::HwBegin => n.hw = HwPhase::Active { read: false, wrote: false },
            HybridAction::HwRead => {
                n.hw_obs = n.mem;
                n.hw = HwPhase::Active { read: true, wrote: false };
            }
            HybridAction::HwWrite => {
                n.hw_undo = n.mem;
                n.mem = n.hw_obs + 10;
                n.hw = HwPhase::Active { read: true, wrote: true };
            }
            HybridAction::HwCommit => n.hw = HwPhase::Done,
            HybridAction::HwAbort => {
                if matches!(n.hw, HwPhase::Active { wrote: true, .. }) {
                    n.mem = n.hw_undo;
                }
                n.hw_doomed = false;
                n.hw_attempts = (n.hw_attempts + 1).min(MAX_ATTEMPTS);
                n.hw = HwPhase::Idle;
            }
            HybridAction::SwBegin => n.sw = SwPhase::Active { read: false },
            HybridAction::SwRead => {
                n.sw_obs = n.mem;
                n.sw = SwPhase::Active { read: true };
            }
            HybridAction::SwLock => n.sw_locked = true,
            HybridAction::SwCommit => {
                let sw_abort = |n: &mut HybridState| {
                    n.sw_locked = false;
                    n.sw_attempts = (n.sw_attempts + 1).min(MAX_ATTEMPTS);
                    n.sw = SwPhase::Idle;
                };
                if matches!(n.hw, HwPhase::Active { wrote: true, .. }) {
                    // A live hardware writer beats the software
                    // committer (its eager undo-restore would clobber a
                    // published value): abort and retry.
                    sw_abort(&mut n);
                } else if !self.is(HybridMutation::SwSkipValidation) && n.mem != n.sw_obs {
                    // Value-based validation at the atomic commit
                    // instant: the cell changed since the read.
                    sw_abort(&mut n);
                } else {
                    n.mem = n.sw_obs + 1;
                    n.sw_locked = false;
                    n.sw = SwPhase::Done;
                    // Publishing invalidates live hardware read sets.
                    if matches!(n.hw, HwPhase::Active { read: true, .. }) {
                        n.hw_doomed = true;
                    }
                }
            }
        }
        Ok(n)
    }

    fn check(&self, s: &HybridState) -> Result<(), String> {
        if s.sw_locked && matches!(s.hw, HwPhase::Active { wrote: true, .. }) {
            return Err("INV-13: address software-locked while hardware-write-owned".to_string());
        }
        if s.hw == HwPhase::Done && s.sw == SwPhase::Done && s.mem != FINAL_VALUE {
            return Err(format!(
                "lost update: both transactions committed but the cell holds {} (expected {})",
                s.mem, FINAL_VALUE
            ));
        }
        Ok(())
    }

    fn is_terminal(&self, s: &HybridState) -> bool {
        s.hw == HwPhase::Done && s.sw == SwPhase::Done
    }

    fn describe(&self, a: HybridAction, step: usize) -> TraceRecord {
        let (core, ev) = match a {
            HybridAction::HwBegin => (0, TraceEvent::TxBegin { site: 0, lazy: false }),
            HybridAction::HwRead => (0, TraceEvent::TxRead { line: 0 }),
            HybridAction::HwWrite => (0, TraceEvent::TxWrite { line: 0 }),
            HybridAction::HwCommit => (0, TraceEvent::TxCommit { window: 0, committing: 0 }),
            HybridAction::HwAbort => (0, TraceEvent::TxAbort { window: 0 }),
            HybridAction::SwBegin => (1, TraceEvent::FallbackBegin { attempt: 0 }),
            HybridAction::SwRead => (1, TraceEvent::TxRead { line: 0 }),
            HybridAction::SwLock => {
                (1, TraceEvent::HwSwConflict { line: 0, dir: ConflictDir::SwLockBlocksHw })
            }
            HybridAction::SwCommit => (1, TraceEvent::FallbackCommit { writes: 1 }),
        };
        TraceRecord { t: step as u64, core, ev }
    }
}

/// Exhaustively check the hybrid fallback product machine (optionally
/// mutated).
pub fn check_hybrid(mutation: Option<HybridMutation>, max_states: usize) -> ExploreReport {
    explore(&HybridModel { mutation }, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 1_000_000;

    #[test]
    fn clean_model_passes() {
        let r = check_hybrid(None, CAP);
        assert!(
            r.ok(),
            "{}",
            r.violations.first().map_or("truncated".into(), crate::Counterexample::render)
        );
        // The 2-core × 1-address scope is heavily confluent: 38 distinct
        // states at the time of writing. Anything much smaller means a
        // lifecycle edge got disabled.
        assert!(r.states > 30, "trivial state space ({})", r.states);
    }

    fn assert_caught(m: HybridMutation, expect: &str) {
        let r = check_hybrid(Some(m), CAP);
        assert!(!r.violations.is_empty(), "mutation {} not caught", m.name());
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
    fn mutation_sw_skip_validation_caught_as_lost_update() {
        assert_caught(HybridMutation::SwSkipValidation, "lost update");
    }

    #[test]
    fn mutation_hw_ignore_sw_lock_caught_as_inv13() {
        assert_caught(HybridMutation::HwIgnoreSwLock, "INV-13");
    }

    #[test]
    fn counterexamples_use_the_fallback_vocabulary() {
        let r = check_hybrid(Some(HybridMutation::SwSkipValidation), CAP);
        let text = r.violations[0].render();
        assert!(text.contains("fallback_commit"), "{text}");
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in ALL_HYBRID_MUTATIONS {
            assert_eq!(HybridMutation::parse(m.name()), Some(m));
        }
        assert_eq!(HybridMutation::parse("bogus"), None);
    }
}
