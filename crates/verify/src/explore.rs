//! The generic explicit-state explorer the protocol engine runs on.
//!
//! [`explore`] is a plain breadth-first search with parent links, so the
//! first path that reaches a violating state is also a *minimal* one
//! (fewest actions). The protocol state graph is heavily confluent and
//! dedups well, so no partial-order reduction is needed. [`Model`] stays a
//! trait: its own tests implement it, and so will an explorer over the
//! production machine.
//!
//! Liveness comes for free: a state with no enabled action that the
//! model does not declare terminal is a deadlock, reported with the
//! path that reaches it. Models tag actions with trace events from the
//! `suv-trace` vocabulary so counterexamples print in the exact language
//! the simulator's `--trace-summary` uses.

use std::collections::VecDeque;
use std::hash::Hash;
use suv_trace::TraceRecord;

/// A finite transition system the explorers can enumerate.
pub trait Model {
    /// Global state. `Ord` keeps worklists and reports deterministic.
    type State: Clone + Eq + Hash + Ord;
    /// One enabled transition.
    type Action: Copy + Eq + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Enabled actions in `s`, in a deterministic order. An empty answer
    /// in a non-[`Model::is_terminal`] state is a deadlock.
    fn actions(&self, s: &Self::State, out: &mut Vec<Self::Action>);

    /// Apply `a` to `s`. `Err` is an action-level safety violation (for
    /// example a read that observes a pre-flash value — detectable only
    /// at the instant it happens).
    fn step(&self, s: &Self::State, a: Self::Action) -> Result<Self::State, String>;

    /// State-level safety predicates; `Err` names the violated invariant.
    fn check(&self, s: &Self::State) -> Result<(), String>;

    /// Is `s` a legitimate end state (no enabled action is fine)?
    fn is_terminal(&self, s: &Self::State) -> bool;

    /// Render `a` (fired as step number `step`) in the `suv-trace` event
    /// vocabulary for counterexample printing.
    fn describe(&self, a: Self::Action, step: usize) -> TraceRecord;
}

/// A violation plus the minimal action path that reproduces it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// What went wrong (invariant name baked into the message).
    pub message: String,
    /// The action path from the initial state, as trace records.
    pub trace: Vec<TraceRecord>,
}

impl Counterexample {
    /// Multi-line report: the violation and the replaying trace.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("violation: {}\n  trace ({} steps):\n", self.message, self.trace.len());
        for r in &self.trace {
            let _ = writeln!(
                s,
                "    [{:>3}] core {} {:<18} {}",
                r.t,
                r.core,
                r.ev.kind_name(),
                payload_text(r)
            );
        }
        s
    }
}

/// Compact `k=v` payload rendering for a counterexample line.
fn payload_text(r: &TraceRecord) -> String {
    let (a, b) = r.ev.payload();
    format!("p0={a} p1={b}")
}

/// What an exploration found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions fired.
    pub transitions: usize,
    /// Violations, each with a reproducing trace. Exploration stops at
    /// the first violation — one minimal counterexample beats a flood.
    pub violations: Vec<Counterexample>,
    /// True when the state budget stopped the search before the fixpoint.
    pub truncated: bool,
}

impl ExploreReport {
    /// Clean fixpoint?
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// Breadth-first exhaustive search with state dedup. `max_states` bounds
/// the search; exhausting it sets [`ExploreReport::truncated`] rather
/// than silently passing.
pub fn explore<M: Model>(model: &M, max_states: usize) -> ExploreReport {
    struct Node<A> {
        parent: usize,
        action: Option<A>,
    }
    let mut report = ExploreReport::default();
    let mut nodes: Vec<Node<M::Action>> = vec![Node { parent: usize::MAX, action: None }];
    #[expect(clippy::disallowed_types, reason = "off the access path: the search's visited set")]
    let mut seen = std::collections::HashMap::<M::State, usize>::new();
    let mut queue: VecDeque<(usize, M::State)> = VecDeque::new();

    let trace_of = |model: &M, nodes: &[Node<M::Action>], mut idx: usize| -> Vec<TraceRecord> {
        let mut actions = Vec::new();
        while let Some(a) = nodes[idx].action {
            actions.push(a);
            idx = nodes[idx].parent;
        }
        actions.reverse();
        actions.iter().enumerate().map(|(i, &a)| model.describe(a, i)).collect()
    };

    let init = model.initial();
    if let Err(msg) = model.check(&init) {
        report.violations.push(Counterexample { message: msg, trace: Vec::new() });
        report.states = 1;
        return report;
    }
    seen.insert(init.clone(), 0);
    queue.push_back((0, init));
    report.states = 1;

    let mut enabled = Vec::new();
    while let Some((idx, state)) = queue.pop_front() {
        if report.states >= max_states {
            report.truncated = true;
            break;
        }
        enabled.clear();
        model.actions(&state, &mut enabled);
        if enabled.is_empty() && !model.is_terminal(&state) {
            report.violations.push(Counterexample {
                message: "deadlock: no enabled action in a non-terminal state".into(),
                trace: trace_of(model, &nodes, idx),
            });
            return report;
        }
        for &a in &enabled {
            report.transitions += 1;
            let make_trace = |nodes: &Vec<Node<M::Action>>| {
                let mut t = trace_of(model, nodes, idx);
                t.push(model.describe(a, t.len()));
                t
            };
            let next = match model.step(&state, a) {
                Ok(next) => next,
                Err(msg) => {
                    report
                        .violations
                        .push(Counterexample { message: msg, trace: make_trace(&nodes) });
                    return report;
                }
            };
            if seen.contains_key(&next) {
                continue;
            }
            nodes.push(Node { parent: idx, action: Some(a) });
            let new_idx = nodes.len() - 1;
            seen.insert(next.clone(), new_idx);
            report.states += 1;
            if let Err(msg) = model.check(&next) {
                report.violations.push(Counterexample { message: msg, trace: make_trace(&nodes) });
                return report;
            }
            queue.push_back((new_idx, next));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use suv_trace::TraceEvent;

    /// Two counters, two threads each incrementing its own counter twice.
    struct TwoCounters {
        /// Seed a bug: thread 1's second increment also bumps counter 0.
        crosstalk: bool,
    }

    impl Model for TwoCounters {
        type State = [u8; 2];
        type Action = usize; // thread id increments its counter

        fn initial(&self) -> [u8; 2] {
            [0, 0]
        }
        fn actions(&self, s: &[u8; 2], out: &mut Vec<usize>) {
            for (t, &v) in s.iter().enumerate() {
                if v < 2 {
                    out.push(t);
                }
            }
        }
        fn step(&self, s: &[u8; 2], a: usize) -> Result<[u8; 2], String> {
            let mut n = *s;
            n[a] += 1;
            if self.crosstalk && a == 1 && n[1] == 2 {
                n[0] += 1;
            }
            Ok(n)
        }
        fn check(&self, s: &[u8; 2]) -> Result<(), String> {
            if s[0] > 2 {
                return Err("counter 0 overran".into());
            }
            Ok(())
        }
        fn is_terminal(&self, s: &[u8; 2]) -> bool {
            *s == [2, 2]
        }
        fn describe(&self, a: usize, step: usize) -> TraceRecord {
            TraceRecord { t: step as u64, core: a, ev: TraceEvent::TxRead { line: a as u64 } }
        }
    }

    #[test]
    fn bfs_reaches_fixpoint() {
        let r = explore(&TwoCounters { crosstalk: false }, 1000);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.states, 9, "3x3 counter grid");
    }

    #[test]
    fn bfs_counterexample_is_minimal() {
        let r = explore(&TwoCounters { crosstalk: true }, 1000);
        assert_eq!(r.violations.len(), 1);
        // Minimal path: 0,0 then 1,1 (crosstalk overruns counter 0) = 4.
        assert_eq!(r.violations[0].trace.len(), 4, "{}", r.violations[0].render());
        assert!(r.violations[0].message.contains("overran"));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let r = explore(&TwoCounters { crosstalk: false }, 2);
        assert!(r.truncated);
        assert!(!r.ok());
    }

    #[test]
    fn counterexample_renders_trace_vocabulary() {
        let r = explore(&TwoCounters { crosstalk: true }, 1000);
        let text = r.violations[0].render();
        assert!(text.contains("tx_read"), "{text}");
        assert!(text.contains("violation:"), "{text}");
    }
}
