//! The `suvtm` harness: the experiment table ([`exp`]), the parallel
//! cell engine ([`engine`]), host-throughput profiling ([`profile`]) and
//! the validated argument parser ([`cli`]).

#![forbid(unsafe_code)]

pub mod cli;
pub mod engine;
pub mod exp;
pub mod probe;
pub mod profile;

use suv::prelude::*;
use suv::trace::{EscalationReason, Json};

/// Commit throughput in transactions per thousand simulated cycles.
pub fn txns_per_kcycle(r: &RunResult) -> f64 {
    r.stats.tx.commits as f64 / (r.stats.cycles.max(1) as f64 / 1000.0)
}

/// The `latency` block of a run row: open-loop request-latency
/// percentiles (cycles, measured from intended arrival) plus commit
/// throughput. Only present for workloads that record latency samples
/// (the oltp family).
fn latency_json(r: &RunResult) -> Option<Json> {
    let s = r.latency.as_ref()?.summary();
    Some(Json::obj([
        ("requests", Json::U64(s.count)),
        ("mean_cycles", Json::F64(s.mean)),
        ("p50_cycles", Json::U64(s.p50)),
        ("p99_cycles", Json::U64(s.p99)),
        ("p999_cycles", Json::U64(s.p999)),
        ("max_cycles", Json::U64(s.max)),
        ("txns_per_kcycle", Json::F64(txns_per_kcycle(r))),
    ]))
}

/// One machine-readable row for a run: the numbers the figures plot.
pub fn run_json(r: &RunResult) -> Json {
    let b = r.stats.total_breakdown();
    let mut row = vec![
        ("app", Json::from(r.workload.as_str())),
        ("scheme", Json::from(r.scheme.name())),
        ("cycles", Json::U64(r.stats.cycles)),
        ("commits", Json::U64(r.stats.tx.commits)),
        ("aborts", Json::U64(r.stats.tx.aborts)),
        ("nacks_received", Json::U64(r.stats.tx.nacks_received)),
        ("l1_misses", Json::U64(r.stats.l1_misses)),
        ("l2_misses", Json::U64(r.stats.l2_misses)),
        ("lazy_txns", Json::U64(r.stats.lazy_txns)),
        ("eager_txns", Json::U64(r.stats.eager_txns)),
        (
            "breakdown",
            Json::obj([
                ("no_trans", Json::U64(b.no_trans)),
                ("trans", Json::U64(b.trans)),
                ("barrier", Json::U64(b.barrier)),
                ("backoff", Json::U64(b.backoff)),
                ("stalled", Json::U64(b.stalled)),
                ("wasted", Json::U64(b.wasted)),
                ("aborting", Json::U64(b.aborting)),
                ("committing", Json::U64(b.committing)),
            ]),
        ),
        (
            "resilience",
            Json::obj([
                ("overflow_aborts", Json::U64(r.stats.tx.overflow_aborts)),
                ("irrevocable_commits", Json::U64(r.stats.tx.irrevocable_commits)),
                ("watchdog_escalations", Json::U64(r.stats.tx.watchdog_escalations)),
                ("sw_commits", Json::U64(r.stats.tx.sw_commits)),
                ("sw_aborts", Json::U64(r.stats.tx.sw_aborts)),
                ("hw_sw_conflicts", Json::U64(r.stats.tx.hw_sw_conflicts)),
                (
                    "escalations",
                    Json::obj(
                        EscalationReason::ALL.map(|e| (e.key(), Json::U64(e.count(&r.stats.tx)))),
                    ),
                ),
            ]),
        ),
        (
            "overflow",
            Json::obj([
                ("l1_data_overflow_txns", Json::U64(r.stats.overflow.l1_data_overflow_txns)),
                ("speculative_evictions", Json::U64(r.stats.overflow.speculative_evictions)),
                ("rt_l1_overflow_txns", Json::U64(r.stats.overflow.rt_l1_overflow_txns)),
                ("rt_full_overflow_txns", Json::U64(r.stats.overflow.rt_full_overflow_txns)),
            ]),
        ),
    ];
    row.extend(latency_json(r).map(|latency| ("latency", latency)));
    Json::obj(row)
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
