//! Shared helpers for the figure/table regenerator binaries, plus the
//! parallel experiment engine ([`engine`]) and the validated `suvtm`
//! argument parser ([`cli`]).

#![forbid(unsafe_code)]

pub mod cli;
pub mod engine;
pub mod probe;
pub mod profile;

pub use suv::prelude::*;
use suv::trace::EscalationReason;
pub use suv::trace::Json;
use suv::types::Cycle;

/// Extract a `--json <path>` flag from a binary's argument list.
pub fn json_flag(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            return Some(it.next().expect("--json PATH").clone());
        }
    }
    None
}

/// The `latency` block of a run row: open-loop request-latency
/// percentiles (cycles, measured from intended arrival) plus commit
/// throughput. Only present for workloads that record latency samples
/// (the oltp family).
fn latency_json(r: &RunResult) -> Option<Json> {
    let lat = r.latency.as_ref()?;
    let s = lat.summary();
    let kcycles = r.stats.cycles.max(1) as f64 / 1000.0;
    Some(Json::obj([
        ("requests", Json::U64(s.count)),
        ("mean_cycles", Json::F64(s.mean)),
        ("p50_cycles", Json::U64(s.p50)),
        ("p99_cycles", Json::U64(s.p99)),
        ("p999_cycles", Json::U64(s.p999)),
        ("max_cycles", Json::U64(s.max)),
        ("txns_per_kcycle", Json::F64(r.stats.tx.commits as f64 / kcycles)),
    ]))
}

/// One machine-readable row for a run: the numbers the figures plot.
pub fn run_json(r: &RunResult) -> Json {
    let b = r.stats.total_breakdown();
    let mut row = Json::obj([
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
    ]);
    if let Some(lat) = latency_json(r) {
        if let Json::Obj(pairs) = &mut row {
            pairs.push(("latency".to_string(), lat));
        }
    }
    row
}

/// Write a figure/table's JSON report to `path`, creating parent
/// directories (the conventional target is `results/<figure>.json`).
pub fn write_json_report(
    path: &str,
    figure: &str,
    rows: Vec<Json>,
    extra: Vec<(&'static str, Json)>,
) {
    let mut pairs = vec![("figure", Json::from(figure)), ("rows", Json::Arr(rows))];
    pairs.extend(extra);
    let doc = Json::obj(pairs);
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
        }
    }
    std::fs::write(path, doc.render()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// Run one (app, scheme) pair at the given scale on the paper machine.
pub fn run(cfg: &MachineConfig, scheme: SchemeKind, app: &str, scale: SuiteScale) -> RunResult {
    let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown workload {app}"));
    run_workload(cfg, scheme, w.as_mut())
}

/// The paper's Table III machine.
pub fn paper_machine() -> MachineConfig {
    MachineConfig::default()
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render a breakdown as percentages of `norm` cycles.
pub fn breakdown_row(b: &Breakdown, norm: Cycle) -> String {
    let pct = |c: Cycle| 100.0 * c as f64 / norm as f64;
    format!(
        "{:6.1} {:6.1} {:7.1} {:7.1} {:7.1} {:6.1} {:8.1} {:10.1}",
        pct(b.no_trans),
        pct(b.trans),
        pct(b.barrier),
        pct(b.backoff),
        pct(b.stalled),
        pct(b.wasted),
        pct(b.aborting),
        pct(b.committing),
    )
}

/// Header matching [`breakdown_row`].
pub const BREAKDOWN_HEADER: &str =
    "NoTrans  Trans Barrier Backoff Stalled Wasted Aborting Committing";
