//! Tracing-subsystem integration tests: determinism of the trace hash and
//! reconciliation of the event stream against the machine's counters.

use suv::prelude::*;
use suv::sim::TraceConfig;
use suv::trace::chrome_trace_json;

fn traced_run(scheme: SchemeKind) -> RunResult {
    let cfg = MachineConfig::small_test();
    let mut w = by_name("intruder", SuiteScale::Tiny).expect("intruder exists");
    run_workload_traced(&cfg, scheme, w.as_mut(), Some(TraceConfig::default()))
}

/// Same workload, same seed, twice: bit-identical statistics AND
/// bit-identical event streams (the trace hash is the oracle).
#[test]
fn traced_runs_are_bit_reproducible() {
    for scheme in SchemeKind::ALL {
        let a = traced_run(scheme);
        let b = traced_run(scheme);
        assert_eq!(a.stats, b.stats, "{scheme:?}: MachineStats diverged between runs");
        assert_ne!(a.trace_hash, 0, "{scheme:?}: traced run must produce a hash");
        assert_eq!(a.trace_hash, b.trace_hash, "{scheme:?}: event streams diverged");
    }
}

/// The event stream must tell the same story as the aggregate counters:
/// one TxCommit per commit, one TxAbort per abort, one Nack per NACK sent,
/// one Stall per NACK received.
#[test]
fn trace_events_reconcile_with_stats() {
    for scheme in SchemeKind::ALL {
        let r = traced_run(scheme);
        let out = r.trace.as_ref().expect("traced run carries its output");
        assert_eq!(out.dropped, 0, "{scheme:?}: ring too small for reconciliation");
        let m = &out.metrics;
        assert_eq!(m.counter("tx_commit"), r.stats.tx.commits, "{scheme:?}: commits");
        assert_eq!(m.counter("tx_abort"), r.stats.tx.aborts, "{scheme:?}: aborts");
        assert_eq!(m.counter("nack"), r.stats.tx.nacks_sent, "{scheme:?}: nacks sent");
        assert_eq!(m.counter("stall"), r.stats.tx.nacks_received, "{scheme:?}: nacks received");
        assert_eq!(
            m.counter("tx_begin"),
            r.stats.tx.commits + r.stats.tx.aborts,
            "{scheme:?}: every outermost begin either commits or aborts"
        );
        // Miss events cover demand accesses only; the stats counters also
        // include VM-internal traffic (undo-log writes, lazy merges), so
        // events bound the counters from below.
        assert!(m.counter("l1_miss") <= r.stats.l1_misses, "{scheme:?}: L1 misses");
        assert!(m.counter("l2_miss") <= r.stats.l2_misses, "{scheme:?}: L2 misses");
        assert!(m.counter("l1_miss") > 0, "{scheme:?}: demand misses must appear");
    }
}

/// An untraced run keeps the legacy surface: no hash, no trace payload,
/// and the same simulated outcome as a traced run (observer effect = 0).
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let cfg = MachineConfig::small_test();
    let run = |trace: Option<TraceConfig>| {
        let mut w = by_name("intruder", SuiteScale::Tiny).expect("intruder exists");
        run_workload_traced(&cfg, SchemeKind::SuvTm, w.as_mut(), trace)
    };
    let plain = run(None);
    let traced = run(Some(TraceConfig::default()));
    assert_eq!(plain.trace_hash, 0);
    assert!(plain.trace.is_none());
    assert_eq!(plain.stats, traced.stats, "tracing changed the simulation");
}

/// The Chrome exporter emits one JSON object per retained record plus
/// per-core metadata, and pairs begins with commit/abort ends.
#[test]
fn chrome_export_covers_the_stream() {
    let r = traced_run(SchemeKind::SuvTm);
    let out = r.trace.as_ref().expect("traced");
    let json = chrome_trace_json(&out.records, MachineConfig::small_test().n_cores, out.dropped);
    assert!(json.starts_with("{\"traceEvents\":["));
    // Every commit and abort becomes a complete transaction slice.
    let commits = json.matches("\"outcome\":\"commit\"").count() as u64;
    let aborts = json.matches("\"outcome\":\"abort\"").count() as u64;
    assert_eq!(commits, r.stats.tx.commits);
    assert_eq!(aborts, r.stats.tx.aborts);
}
