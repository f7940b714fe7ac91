//! `suv-verify` — an exhaustive small-scope model checker for the SUV HTM
//! reproduction.
//!
//! [`protocol`] is the protocol product machine, run on the generic explorer
//! ([`mod@explore`]): {2 cores × 2 addresses} × MESI × tx read/write sets ×
//! redirect-entry lifecycle, parameterized by all six schemes, with safety
//! predicates subsuming the runtime invariants INV-5..INV-10 and liveness via
//! deadlock detection. It prints minimal counterexamples in the `suv-trace`
//! event vocabulary. [`run_verify`] is the entry point behind `suvtm verify`;
//! seeded [`protocol::ProtocolMutation`]s let tests prove the checker
//! actually catches bugs.
//!
//! Two properties are not modelled here but asserted on the code that runs
//! (DESIGN.md §11 has both property → test tables): the execution engine's
//! host concurrency, by the unit tests of `suv-sim`'s `pool` and `sched`
//! modules; and the hardware × software tier rules, by a walk over every
//! schedule of the production machine (`suv-core`'s differential target,
//! module `hybrid`).

pub mod explore;
pub mod protocol;

pub use explore::{explore, Counterexample, ExploreReport, Model};

use protocol::ProtocolMutation;
use suv_types::SchemeKind;

/// Default state budget: far above the ~10^5 reachable states at the
/// 2×2 scope, so exhausting it means the model changed shape.
pub const DEFAULT_MAX_STATES: usize = 4_000_000;

/// Which engine to run. One is left; the type and [`VerifyRequest::engine`]
/// stay only because the `benchmark/` probe `verify.protocol_states_per_s`
/// names both, and go at the next change to the benchmark's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyEngine {
    Protocol,
}

/// What to verify.
pub struct VerifyRequest {
    /// Always [`VerifyEngine::Protocol`].
    pub engine: VerifyEngine,
    /// Restrict the run to one scheme (None = all six).
    pub scheme: Option<SchemeKind>,
    /// Seed a protocol mutation (the checker must then *fail*).
    pub protocol_mutation: Option<ProtocolMutation>,
    /// State budget per exploration.
    pub max_states: usize,
}

impl Default for VerifyRequest {
    fn default() -> Self {
        VerifyRequest {
            engine: VerifyEngine::Protocol,
            scheme: None,
            protocol_mutation: None,
            max_states: DEFAULT_MAX_STATES,
        }
    }
}

/// One exploration's outcome, ready for printing.
pub struct VerifyRun {
    /// The scheme's name.
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

/// Run the requested verifications, by scheme in [`SchemeKind::ALL`] order.
pub fn run_verify(req: &VerifyRequest) -> Vec<VerifyRun> {
    let schemes = req.scheme.map_or(SchemeKind::ALL.to_vec(), |s| vec![s]);
    schemes
        .into_iter()
        .map(|scheme| VerifyRun {
            subject: scheme.name().to_string(),
            report: protocol::check_protocol(scheme, req.protocol_mutation, req.max_states),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_clean_run_passes() {
        let runs = run_verify(&VerifyRequest::default());
        assert_eq!(runs.len(), SchemeKind::ALL.len());
        for r in &runs {
            assert!(r.ok(), "{}", r.render());
        }
    }

    #[test]
    fn scheme_filter_narrows_protocol_runs() {
        let req = VerifyRequest { scheme: Some(SchemeKind::SuvTm), ..VerifyRequest::default() };
        let runs = run_verify(&req);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].subject, "SUV-TM");
    }

    #[test]
    fn render_marks_failures() {
        let req = VerifyRequest {
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
