//! The full STAMP x scheme matrix: every application verifies its own
//! functional invariants under every implemented HTM scheme.

use suv::prelude::*;

fn run(app: &str, scheme: SchemeKind) -> RunResult {
    let cfg = MachineConfig::small_test();
    let mut w = by_name(app, SuiteScale::Tiny).expect("known app");
    // `verify` runs inside run_workload and panics on any violation.
    run_workload(&cfg, scheme, w.as_mut())
}

macro_rules! matrix {
    ($($name:ident => $app:literal),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                for scheme in SchemeKind::ALL {
                    let r = run($app, scheme);
                    assert!(r.stats.tx.commits > 0, "{:?}: no commits", scheme);
                }
            }
        )+
    };
}

matrix! {
    bayes_verifies_under_all_schemes => "bayes",
    genome_verifies_under_all_schemes => "genome",
    intruder_verifies_under_all_schemes => "intruder",
    kmeans_verifies_under_all_schemes => "kmeans",
    labyrinth_verifies_under_all_schemes => "labyrinth",
    ssca2_verifies_under_all_schemes => "ssca2",
    vacation_verifies_under_all_schemes => "vacation",
    yada_verifies_under_all_schemes => "yada",
}

#[test]
fn suite_helpers_cover_everything() {
    assert_eq!(suv::stamp::stamp_suite(SuiteScale::Tiny).len(), 8);
    assert_eq!(high_contention_suite(SuiteScale::Tiny).len(), 5);
}

#[test]
fn paper_scale_inputs_are_strictly_larger() {
    // Paper-scale runs must do strictly more transactions than Tiny ones
    // (sanity check that the scales are wired through).
    let cfg = MachineConfig::small_test();
    let mut tiny = by_name("ssca2", SuiteScale::Tiny).unwrap();
    let mut paper = by_name("ssca2", SuiteScale::Paper).unwrap();
    let rt = run_workload(&cfg, SchemeKind::LogTmSe, tiny.as_mut());
    let rp = run_workload(&cfg, SchemeKind::LogTmSe, paper.as_mut());
    assert!(rp.stats.tx.commits > rt.stats.tx.commits * 4);
}

#[test]
fn fixed_transaction_count_apps_agree_across_schemes() {
    // Apps whose dynamic transaction count is schedule-independent must
    // commit identical counts under every scheme.
    for app in ["kmeans", "ssca2", "vacation", "bayes"] {
        let counts: Vec<u64> =
            SchemeKind::ALL.iter().map(|s| run(app, *s).stats.tx.commits).collect();
        for w in counts.windows(2) {
            assert_eq!(w[0], w[1], "{app}: commit counts diverged {counts:?}");
        }
    }
}

#[test]
fn high_contention_apps_conflict_more_than_low() {
    let conflictiness = |app: &str| {
        let r = run(app, SchemeKind::LogTmSe);
        (r.stats.tx.aborts + r.stats.tx.nacks_received) as f64 / r.stats.tx.commits.max(1) as f64
    };
    let genome = conflictiness("genome");
    let intruder = conflictiness("intruder");
    let ssca2 = conflictiness("ssca2");
    let vacation = conflictiness("vacation");
    assert!(genome > ssca2, "genome {genome} vs ssca2 {ssca2}");
    assert!(intruder > vacation, "intruder {intruder} vs vacation {vacation}");
}
