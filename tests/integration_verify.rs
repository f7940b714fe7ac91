//! Integration tests for the `suvtm verify` model checkers: the CLI
//! contract (exit codes, counterexample artifact) and the seeded-mutation
//! matrix — every committed protocol and hybrid-fallback bug must be
//! caught with a printed counterexample trace, and the clean product
//! machines must pass exhaustively for all six schemes.

use std::path::PathBuf;
use std::process::Command;
use suv::prelude::SchemeKind;
use suv_verify::hybrid::{check_hybrid, ALL_HYBRID_MUTATIONS};
use suv_verify::protocol::{check_protocol, ALL_PROTOCOL_MUTATIONS};
use suv_verify::{ExploreReport, DEFAULT_MAX_STATES};

fn suvtm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_suvtm"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn assert_clean(subject: &str, r: &ExploreReport) {
    let why = r.violations.first().map_or("truncated".into(), suv_verify::Counterexample::render);
    assert!(r.ok(), "{subject}: {why}");
}

/// The exhaustive clean pass CI gates on (this test is the gate): all six
/// schemes at the 2-core / 2-address scope, plus the HW×SW fallback
/// scenario (one hardware transaction racing one software one), with no
/// truncation.
#[test]
fn all_schemes_and_scenarios_verify_clean() {
    for scheme in SchemeKind::ALL {
        assert_clean(scheme.name(), &check_protocol(scheme, None, DEFAULT_MAX_STATES));
    }
    assert_clean("hw-sw fallback", &check_hybrid(None, DEFAULT_MAX_STATES));
}

/// Every committed seeded mutation is caught, and the counterexample is
/// a concrete replayable trace (non-empty, rendered through the
/// suv-trace vocabulary).
#[test]
fn every_seeded_mutation_is_caught_with_a_trace() {
    let caught = |name: &str, r: &ExploreReport| {
        let cex = r.violations.first().unwrap_or_else(|| panic!("mutation {name} escaped"));
        assert!(!cex.trace.is_empty(), "{name}: counterexample has no trace");
        assert!(cex.render().contains("violation:"), "{name}");
    };
    for m in ALL_PROTOCOL_MUTATIONS {
        caught(m.name(), &check_protocol(m.target_scheme(), Some(m), DEFAULT_MAX_STATES));
    }
    for m in ALL_HYBRID_MUTATIONS {
        caught(m.name(), &check_hybrid(Some(m), DEFAULT_MAX_STATES));
    }
}

#[test]
fn cli_clean_run_exits_zero_and_prints_pass() {
    let out = suvtm()
        .args(["verify", "--engine", "protocol", "--scheme", "suv"])
        .output()
        .expect("spawn suvtm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("[PASS] SUV-TM"), "{stdout}");
    assert!(stdout.contains("1/1 explorations passed"), "{stdout}");
}

#[test]
fn cli_seeded_mutation_exits_one_and_writes_counterexample() {
    let cex = tmp("verify_cex.txt");
    let out = suvtm()
        .args(["verify", "--engine", "protocol", "--scheme", "suv"])
        .args(["--mutate-protocol", "skip-flash"])
        .args(["--out", cex.to_str().expect("utf8 tmpdir")])
        .output()
        .expect("spawn suvtm");
    assert_eq!(out.status.code(), Some(1), "seeded bug must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[FAIL] SUV-TM"), "{stdout}");
    let body = std::fs::read_to_string(&cex).expect("counterexample artifact written");
    assert!(body.contains("violation:"), "{body}");
    assert!(body.contains("trace ("), "artifact must replay the trace: {body}");
}

#[test]
fn cli_rejects_unknown_mutation_with_usage_exit() {
    let out = suvtm().args(["verify", "--mutate-protocol", "bogus"]).output().expect("spawn suvtm");
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skip-flash"), "error must list candidates: {stderr}");
}
