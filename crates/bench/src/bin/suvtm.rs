//! `suvtm` — command-line driver for the simulator; [`cli::USAGE`] (what
//! `suvtm` prints when run without arguments) documents every command.
//!
//! `run` simulates one cell; `sweep`, `bench` and `exp` fan theirs out
//! through the one parallel engine (`suv_bench::engine`), bit-identically
//! for any `--jobs`; `verify` runs the small-scope model checker.
//!
//! Exit status: 0 on success, also when the reader of stdout went away
//! (`suvtm list | head -1`); 2 for a malformed invocation (with the usage
//! message); 1 for an oracle or model-checker violation, a dead experiment
//! cell, a quarantined `bench` cell or a failed write (each a one-line
//! `suvtm: …` message); 3 for a simulated out-of-memory.
#![deny(clippy::print_stdout)]

use std::io::{ErrorKind, Write};
use std::sync::Mutex;
use suv::oltp::Oltp;
use suv::prelude::*;
use suv::registry::workload_names;
use suv::sim::default_workers;
use suv::trace::{EscalationReason, Json};
use suv_bench::cli::{self, BenchOpts, Command, ExpOpts, RunOpts, VerifyOpts, USAGE};
use suv_bench::engine::{
    cell_key, quarantine_status, run_matrix, scale_name, CellOutcome, CellSpec, SCALES,
};
use suv_bench::exp::{reports, run_experiment};
use suv_bench::{run_json, txns_per_kcycle};

/// Every stdout write goes through here: a reader that went away ends the
/// process with status 0, any other failed write with status 1.
fn emit(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("suvtm: cannot write stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// The machine `run` and `sweep` simulate: Table III with the requested
/// core count, check level, fallback tier and `--faults` spec (injector
/// and resource clamps both).
fn machine(o: &RunOpts) -> MachineConfig {
    let mut cfg = MachineConfig { n_cores: o.cores, check: o.check, ..Default::default() };
    cfg.robust.fallback = o.fallback;
    cfg.robust.faults = o.faults;
    cfg
}

/// Run the offline `suv-check` oracles over a finished traced run and
/// report; returns false when a violation was found.
fn run_oracles(r: &RunResult) -> bool {
    let mut clean = true;
    if let Some(out) = &r.trace {
        let s = suv_check::check_trace(out);
        outln!(
            "    check: serializability over {} committed tx ({} aborted, {} conflict edges): {}",
            s.committed,
            s.aborted,
            s.edges,
            if s.ok() { "ok" } else { "VIOLATED" }
        );
        for v in s.violations() {
            outln!("      {v}");
        }
        clean &= s.ok();
    }
    let m = suv_check::check_mesi_reachability();
    outln!(
        "    check: MESI reachability, {} states / {} transitions: {}",
        m.states_explored,
        m.transitions,
        if m.ok() { "ok" } else { "VIOLATED" }
    );
    for v in &m.violations {
        outln!("      {v}");
    }
    clean && m.ok()
}

/// The per-reason escalation-count line shown under `--breakdown` and
/// `--trace-summary` (and mirrored by the `--json` resilience block):
/// why transactions left the hardware tier, bucketed by ladder reason.
fn escalation_report(indent: &str, t: &suv::types::TxStats) -> String {
    let counts =
        EscalationReason::ALL.map(|e| format!(" {}={}", e.key().replace('_', "-"), e.count(t)));
    format!("{indent}escalations:{}\n", counts.concat())
}

fn report(r: &RunResult, breakdown: bool) {
    let t = &r.stats.tx;
    outln!(
        "{:<10} {:<10} {:>10} cycles  commits={} aborts={} (ratio {:.1}%) nacks={}",
        r.workload,
        r.scheme.name(),
        r.stats.cycles,
        t.commits,
        t.aborts,
        100.0 * t.abort_ratio(),
        t.nacks_received,
    );
    if breakdown {
        let b = r.stats.total_breakdown();
        let total = b.total().max(1) as f64;
        for k in BreakdownKind::ALL {
            let pct = 100.0 * b.get(k) as f64 / total;
            if pct >= 0.05 {
                outln!("    {:<10} {:>5.1}%", k.label(), pct);
            }
        }
        outln!(
            "    write set: max {} lines; {} possible-cycle aborts",
            t.max_write_set,
            t.cycle_aborts
        );
        if t.overflow_aborts + t.irrevocable_commits + t.sw_commits + t.hw_sw_conflicts > 0 {
            outln!(
                "    resilience: {} overflow aborts, {} irrevocable commits, {} watchdog escalations, \
                 {} sw commits ({} sw aborts), {} hw/sw conflicts",
                t.overflow_aborts,
                t.irrevocable_commits,
                t.watchdog_escalations(),
                t.sw_commits,
                t.sw_aborts,
                t.hw_sw_conflicts,
            );
            out!("{}", escalation_report("    ", t));
        }
        if r.scheme == SchemeKind::SuvTm || r.scheme == SchemeKind::DynTmSuv {
            outln!(
                "    redirect: +{} entries, {} redirected back, L1-table miss {:.2}%, {} mem lookups",
                r.stats.redirect.entries_added,
                r.stats.redirect.entries_redirected_back,
                100.0 * r.stats.redirect.l1_miss_rate(),
                r.stats.redirect.mem_lookups,
            );
        }
    }
    if let Some(lat) = &r.latency {
        let s = lat.summary();
        outln!(
            "    latency: {} reqs  p50={} p99={} p999={} max={} cycles  ({:.2} txns/kcycle)",
            s.count,
            s.p50,
            s.p99,
            s.p999,
            s.max,
            txns_per_kcycle(r),
        );
    }
}

fn cmd_run(o: &RunOpts) -> Result<(), String> {
    // A `--traffic` spec parameterizes the oltp kernel directly (the
    // parser allows it with `--app oltp` only); every app without one
    // comes from the registry.
    let mut w: Box<dyn Workload> = match o.traffic {
        Some(traffic) => Box::new(Oltp::with_traffic(o.scale, traffic)),
        None => by_name(&o.app, o.scale).expect("app validated by the parser"),
    };
    // Full checking needs the event stream for the offline
    // serializability oracle; `--json` includes the trace hash so two
    // same-seed runs can be compared byte-for-byte.
    let tracing =
        o.json || o.trace_path.is_some() || o.trace_summary || o.check == CheckLevel::Full;
    // The offline serializability oracle refuses truncated streams (a
    // dropped window could hide a conflict), so full checking gets a ring
    // big enough to retain an entire many-core abort storm.
    let tc = tracing.then(|| TraceConfig {
        ring_capacity: if o.check == CheckLevel::Full {
            1 << 23
        } else {
            TraceConfig::default().ring_capacity
        },
    });
    let r = run_workload_traced(&machine(o), o.scheme, w.as_mut(), tc);
    if !o.json {
        report(&r, o.breakdown);
    }
    if o.check == CheckLevel::Full && !run_oracles(&r) {
        eprintln!("suvtm: correctness oracle reported violations");
        std::process::exit(1);
    }
    if let Some(out) = &r.trace {
        if !o.json {
            outln!(
                "    trace: {} events, {} dropped, hash {:016x}",
                out.events,
                out.dropped,
                r.trace_hash
            );
        }
        if let Some(path) = &o.trace_path {
            write_doc(path, &chrome_trace_json(&out.records, o.cores, out.dropped))?;
            eprintln!("(open it in chrome://tracing)");
        }
        if o.trace_summary && !o.json {
            out!("{}", summary_report(out, 10));
            out!("{}", escalation_report("  ", &r.stats.tx));
        }
    }
    if o.json {
        let mut doc = run_json(&r);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("cores".to_string(), Json::U64(o.cores as u64)));
            pairs.push(("scale".to_string(), Json::from(scale_name(o.scale))));
            pairs.push(("trace_hash".to_string(), Json::Str(format!("{:016x}", r.trace_hash))));
        }
        outln!("{}", doc.render());
    }
    Ok(())
}

/// `suvtm sweep --app X`: every scheme on one app, as one engine matrix.
fn cmd_sweep_one(o: &RunOpts) -> Result<(), String> {
    let cells =
        SchemeKind::ALL.map(|scheme| CellSpec { app: o.app.clone(), scheme, cfg: machine(o) });
    let mut base = None;
    for outcome in run_matrix(&cells, o.scale, default_workers()) {
        let r = outcome.into_ok()?.result;
        let b = *base.get_or_insert(r.stats.cycles);
        report(&r, o.breakdown);
        outln!("    speedup vs LogTM-SE: {:.2}x", b as f64 / r.stats.cycles as f64);
    }
    Ok(())
}

/// Write a rendered document, creating parent directories.
fn write_doc(path: &str, body: &str) -> Result<(), String> {
    let parent = std::path::Path::new(path).parent().filter(|dir| !dir.as_os_str().is_empty());
    parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `suvtm exp`: run each named row of the experiment table at its scale
/// and print its text report — or, with `--out`, write `<name>.txt` (and
/// `<name>.json` for the rows that have one) into that directory.
fn cmd_exp(o: &ExpOpts) -> Result<(), String> {
    let workers = o.jobs.unwrap_or_else(default_workers);
    for e in &o.experiments {
        let (text, json) = run_experiment(e, e.scale, workers)?;
        match &o.out {
            Some(dir) => write_doc(&format!("{dir}/{}.txt", e.name), &text)?,
            None => out!("{text}"),
        }
        if let Some(doc) = json {
            let in_dir = o.out.iter().map(|dir| format!("{dir}/{}.json", e.name));
            for path in in_dir.chain(o.json.clone()) {
                write_doc(&path, &doc)?;
            }
        }
    }
    Ok(())
}

/// The left-hand columns of a `bench` progress line.
fn cell_label(spec: &CellSpec) -> String {
    format!("{:<14} {:<10} {:>2} cores", spec.app, spec.scheme.name(), spec.cfg.n_cores)
}

fn cmd_bench(o: &BenchOpts) -> Result<(), String> {
    let workers = o.jobs.unwrap_or_else(default_workers);
    eprintln!(
        "suvtm bench: {} cells ({}), {} host worker{}",
        o.cells.len(),
        scale_name(o.scale),
        workers,
        if workers == 1 { "" } else { "s" },
    );
    let cells = run_matrix(&o.cells, o.scale, workers);
    for outcome in &cells {
        let label = cell_label(outcome.spec());
        match outcome {
            CellOutcome::Ok(c) => outln!(
                "{label} {:>12} cycles  commits={:<6} aborts={:<6} hash={:016x}",
                c.result.stats.cycles,
                c.result.stats.tx.commits,
                c.result.stats.tx.aborts,
                c.result.trace_hash,
            ),
            CellOutcome::Quarantined { error, .. } => outln!("{label} QUARANTINED: {error}"),
        }
    }
    let total_cycles: u64 = cells.iter().map(CellOutcome::sim_cycles).sum();
    let quarantined: Vec<_> =
        cells.iter().filter(|c| matches!(c, CellOutcome::Quarantined { .. })).collect();
    outln!(
        "total: {} cells ({} quarantined), {total_cycles} simulated cycles",
        cells.len(),
        quarantined.len(),
    );
    for q in &quarantined {
        eprintln!("suvtm: quarantined cell {}", cell_key(q.spec()));
    }
    if let Some(path) = &o.out {
        write_doc(path, &(o.render)(&cells, o.scale)?.render())?;
    }
    quarantine_status(&cells)
}

/// `suvtm verify`: run the small-scope model checker, one exploration per
/// scheme, and exit 1 on any violation, leaving the rendered
/// counterexamples where CI can pick them up as an artifact.
fn cmd_verify(o: &VerifyOpts) -> Result<(), String> {
    let req = suv_verify::VerifyRequest {
        scheme: o.scheme,
        protocol_mutation: o.mutate_protocol,
        max_states: o.max_states,
        ..suv_verify::VerifyRequest::default()
    };
    let runs = suv_verify::run_verify(&req);
    let mut failures = String::new();
    for r in &runs {
        out!("{}", r.render());
        if !r.ok() {
            failures.push_str(&r.render());
        }
    }
    let failed = runs.iter().filter(|r| !r.ok()).count();
    outln!("verify: {}/{} explorations passed", runs.len() - failed, runs.len());
    if failed > 0 {
        write_doc(&o.out, &failures)?;
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_list() {
    outln!("workloads: {}", workload_names().join(" "));
    outln!("schemes:   {}", SchemeKind::ALL.map(SchemeKind::flag).join(" "));
    outln!("scales:    {}", SCALES.map(|(name, _)| name).join(" "));
    outln!("checks:    off cheap full");
    outln!("experiments (`suvtm exp NAME`):");
    for e in reports() {
        outln!("  {:<14} {}", e.name, e.about);
    }
}

/// The message of the last simulated-OOM ([`suv::mem::AllocError`]) panic,
/// stashed by the panic hook so `main` can turn an uncaught one into the
/// documented exit code 3 instead of a raw panic trace.
static LAST_OOM: Mutex<Option<String>> = Mutex::new(None);

/// Install a panic hook that records simulated-OOM panics quietly and
/// falls back to the default hook for anything else (real bugs keep
/// their backtrace).
fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(e) = info.payload().downcast_ref::<suv::mem::AllocError>() {
            if let Ok(mut slot) = LAST_OOM.lock() {
                *slot = Some(e.to_string());
            }
            return;
        }
        default_hook(info);
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match cli::parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("suvtm: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    install_panic_hook();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cmd {
        Command::Run(o) => cmd_run(&o),
        Command::Sweep(o) => cmd_sweep_one(&o),
        Command::Bench(o) => cmd_bench(&o),
        Command::Exp(o) => cmd_exp(&o),
        Command::Verify(o) => cmd_verify(&o),
        Command::List => {
            cmd_list();
            Ok(())
        }
        Command::Help => {
            outln!("{USAGE}");
            Ok(())
        }
    }));
    if let Ok(Err(msg)) = &outcome {
        eprintln!("suvtm: {msg}");
        std::process::exit(1);
    }
    if outcome.is_err() {
        if let Some(msg) = LAST_OOM.lock().ok().and_then(|mut s| s.take()) {
            eprintln!(
                "suvtm: out of simulated memory: {msg}\n\
                 suvtm: raise the clamped capacity (--faults pool=/log=/wb=) or shrink --scale"
            );
            std::process::exit(3);
        }
        std::process::exit(101);
    }
}
