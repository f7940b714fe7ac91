//! `suv-verify` — exhaustive small-scope model checkers for the SUV HTM
//! reproduction.
//!
//! Two engines over one generic explorer ([`explore`]):
//!
//! * [`protocol`] — the protocol product machine: {2 cores × 2 addresses}
//!   × MESI × tx read/write sets × redirect-entry lifecycle, parameterized
//!   by all six schemes, with safety predicates subsuming the runtime
//!   invariants INV-5..INV-10 and liveness via deadlock detection.
//! * [`hybrid`] — the HW×SW fallback product machine: one eager hardware
//!   transaction racing one software-fallback transaction on a shared
//!   cell, checking the ownership-lock/validation discipline (INV-13 and
//!   lost-update freedom).
//!
//! Both print minimal counterexamples in the `suv-trace` event
//! vocabulary. [`run_verify`] is the entry point behind `suvtm verify`;
//! seeded mutations ([`protocol::ProtocolMutation`],
//! [`hybrid::HybridMutation`]) let tests prove the checkers actually
//! catch bugs.
//!
//! The execution engine's host concurrency (the sweep pool's cursor and
//! result slots, the event loop's dispatch order and irrevocable token)
//! is not modelled here: those properties are asserted on the code that
//! runs, by the unit tests of `suv-sim`'s `pool` and `sched` modules
//! (DESIGN.md §11 has the property → test table).

pub mod explore;
pub mod hybrid;
pub mod protocol;

pub use explore::{explore, Counterexample, ExploreReport, Model};

use hybrid::HybridMutation;
use protocol::ProtocolMutation;
use suv_types::SchemeKind;

/// Default state budget: far above the ~10^5 reachable states at the
/// 2×2 scope, so exhausting it means the model changed shape.
pub const DEFAULT_MAX_STATES: usize = 4_000_000;

/// Which engines to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyEngine {
    Protocol,
    Hybrid,
    Both,
}

/// What to verify.
pub struct VerifyRequest {
    pub engine: VerifyEngine,
    /// Restrict the protocol engine to one scheme (None = all six).
    pub scheme: Option<SchemeKind>,
    /// Seed a protocol mutation (the checker must then *fail*).
    pub protocol_mutation: Option<ProtocolMutation>,
    /// Seed a hybrid-fallback mutation (the checker must then *fail*).
    pub hybrid_mutation: Option<HybridMutation>,
    /// State budget per exploration.
    pub max_states: usize,
}

impl Default for VerifyRequest {
    fn default() -> Self {
        VerifyRequest {
            engine: VerifyEngine::Both,
            scheme: None,
            protocol_mutation: None,
            hybrid_mutation: None,
            max_states: DEFAULT_MAX_STATES,
        }
    }
}

/// One exploration's outcome, ready for printing.
pub struct VerifyRun {
    /// "protocol" or "hybrid".
    pub engine: &'static str,
    /// Scheme name or machine label.
    pub subject: String,
    pub report: ExploreReport,
}

impl VerifyRun {
    pub fn ok(&self) -> bool {
        self.report.ok()
    }

    /// One status line (plus rendered counterexamples on failure).
    pub fn render(&self) -> String {
        let mut s = format!(
            "[{}] {:<24} {:>8} states {:>9} transitions{}\n",
            if self.ok() { "PASS" } else { "FAIL" },
            self.subject,
            self.report.states,
            self.report.transitions,
            if self.report.truncated { " TRUNCATED" } else { "" },
        );
        for v in &self.report.violations {
            s.push_str(&v.render());
        }
        s
    }
}

/// Run the requested verifications. Deterministic order: protocol by
/// scheme ([`SchemeKind::ALL`] order), then the hybrid machine.
pub fn run_verify(req: &VerifyRequest) -> Vec<VerifyRun> {
    let mut runs = Vec::new();
    if matches!(req.engine, VerifyEngine::Protocol | VerifyEngine::Both) {
        let schemes = req.scheme.map_or(SchemeKind::ALL.to_vec(), |s| vec![s]);
        for scheme in schemes {
            let report = protocol::check_protocol(scheme, req.protocol_mutation, req.max_states);
            runs.push(VerifyRun { engine: "protocol", subject: scheme.name().to_string(), report });
        }
    }
    if matches!(req.engine, VerifyEngine::Hybrid | VerifyEngine::Both) {
        let report = hybrid::check_hybrid(req.hybrid_mutation, req.max_states);
        runs.push(VerifyRun { engine: "hybrid", subject: "hw-sw fallback".to_string(), report });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_clean_run_passes() {
        let runs = run_verify(&VerifyRequest::default());
        assert_eq!(runs.len(), SchemeKind::ALL.len() + 1);
        for r in &runs {
            assert!(r.ok(), "{}", r.render());
        }
    }

    #[test]
    fn hybrid_engine_runs_standalone_and_catches_mutations() {
        let req = VerifyRequest { engine: VerifyEngine::Hybrid, ..VerifyRequest::default() };
        let runs = run_verify(&req);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].engine, "hybrid");
        assert!(runs[0].ok(), "{}", runs[0].render());
        let req = VerifyRequest {
            engine: VerifyEngine::Hybrid,
            hybrid_mutation: Some(HybridMutation::HwIgnoreSwLock),
            ..VerifyRequest::default()
        };
        let runs = run_verify(&req);
        assert!(!runs[0].ok());
        assert!(runs[0].render().contains("INV-13"), "{}", runs[0].render());
    }

    #[test]
    fn scheme_filter_narrows_protocol_runs() {
        let req = VerifyRequest {
            engine: VerifyEngine::Protocol,
            scheme: Some(SchemeKind::SuvTm),
            ..VerifyRequest::default()
        };
        let runs = run_verify(&req);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].subject, "SUV-TM");
    }

    #[test]
    fn render_marks_failures() {
        let req = VerifyRequest {
            engine: VerifyEngine::Protocol,
            scheme: Some(SchemeKind::SuvTm),
            protocol_mutation: Some(ProtocolMutation::SkipFlash),
            ..VerifyRequest::default()
        };
        let runs = run_verify(&req);
        assert!(!runs[0].ok());
        let text = runs[0].render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("violation:"), "{text}");
    }
}
