//! `suvtm` — command-line driver for the simulator.
//!
//! ```text
//! suvtm run   --app genome --scheme suv [--cores 16] [--scale paper] [--breakdown]
//!             [--trace out.json] [--trace-summary] [--check off|cheap|full]
//!             [--traffic zipf=0.99,rw=90:10,...] [--json]   # oltp workloads
//! suvtm sweep --app yada               # all schemes on one app
//! suvtm sweep --all [--jobs N]         # full matrix, parallel
//! suvtm bench [--apps A,B] [--schemes S,..] [--cores N,M] [--jobs N]
//!             [--serial] [--out PATH]  # parallel matrix -> BENCH_sweep.json
//! suvtm bench --profile [--reps N] [--baseline PATH] [--tolerance PCT]
//!                                      # host throughput -> BENCH_host.json
//! suvtm list                           # workloads and schemes
//! ```
//!
//! `bench --profile` times the engine-sensitive profile matrix serially
//! (min wall-time of `--reps` repetitions per cell, with the scheduler-
//! wait / machine-time / trace-overhead breakdown from the host probe)
//! and writes `BENCH_host.json` (schema `suv-bench-host/v1`). With
//! `--baseline`, the run exits 1 when geomean throughput regressed more
//! than `--tolerance` percent below the committed baseline — the CI
//! `perf-smoke` gate.
//!
//! `bench` (and `sweep --all`) runs the workload × scheme × core-count
//! matrix as independent deterministic simulations fanned out across host
//! threads, and writes a machine-readable `BENCH_sweep.json` (schema
//! documented in README.md) with per-cell simulated cycles, trace hashes
//! and host wall-times. `--serial` / `--jobs 1` runs the same matrix on
//! one host thread and produces bit-identical simulation results.
//!
//! `--trace out.json` records the run's event stream and writes it in
//! Chrome Trace Event format — open it in `chrome://tracing` or Perfetto.
//! `--trace-summary` prints a top-N per-event report to stdout instead of
//! (or in addition to) the JSON file.
//!
//! `--check cheap` turns on the in-line invariant assertions (MESI,
//! redirect table); `--check full` additionally runs the shadow-memory
//! isolation oracle during the run, then the offline serializability and
//! MESI-reachability oracles from `suv-check` after it (tracing is forced
//! on so the serializability oracle has an event stream to replay). The
//! checkers observe only — simulated cycle counts are unchanged.
//!
//! Malformed invocations print the usage message and exit with status 2;
//! correctness-oracle violations exit with status 1.

use std::sync::Mutex;
use std::time::Instant;
use suv::oltp::Oltp;
use suv::prelude::*;
use suv::registry::workload_names;
use suv::sim::default_workers;
use suv::trace::EscalationReason;
use suv_bench::cli::{self, BenchMode, BenchOpts, Command, RunOpts, VerifyOpts, USAGE};
use suv_bench::engine::{
    cell_key, resume_plan, run_matrix, scale_name, sweep_json, CellOutcome, HostMeta,
};
use suv_bench::profile::{
    baseline_geomean, check_regression, geomean_cycles_per_sec, host_json, run_cell_profiled,
};
use suv_bench::run_json;

fn config(cores: usize, check: CheckLevel) -> MachineConfig {
    MachineConfig { n_cores: cores, check, ..Default::default() }
}

/// Fold a `--faults` spec into the machine config: arm the injector and
/// apply its resource clamps (`pool=`/`log=`/`wb=`, 0 = leave unclamped).
fn apply_faults(cfg: &mut MachineConfig, spec: FaultSpec) {
    cfg.robust.faults = Some(spec);
    if spec.pool_pages != 0 {
        cfg.robust.pool_pages = spec.pool_pages;
    }
    if spec.log_bytes != 0 {
        cfg.robust.log_bytes = spec.log_bytes;
    }
    if spec.write_buffer_lines != 0 {
        cfg.robust.write_buffer_lines = spec.write_buffer_lines;
    }
}

/// Run the offline `suv-check` oracles over a finished traced run and
/// report; returns false when a violation was found.
fn run_oracles(r: &RunResult) -> bool {
    let mut clean = true;
    if let Some(out) = &r.trace {
        let s = suv_check::check_trace(out);
        println!(
            "    check: serializability over {} committed tx ({} aborted, {} conflict edges): {}",
            s.committed,
            s.aborted,
            s.edges,
            if s.ok() { "ok" } else { "VIOLATED" }
        );
        for v in s.violations() {
            println!("      {v}");
        }
        clean &= s.ok();
    }
    let m = suv_check::check_mesi_reachability();
    println!(
        "    check: MESI reachability, {} states / {} transitions: {}",
        m.states_explored,
        m.transitions,
        if m.ok() { "ok" } else { "VIOLATED" }
    );
    for v in &m.violations {
        println!("      {v}");
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
    println!(
        "{:<10} {:<10} {:>10} cycles  commits={} aborts={} (ratio {:.1}%) nacks={}",
        r.workload,
        r.scheme.name(),
        r.stats.cycles,
        r.stats.tx.commits,
        r.stats.tx.aborts,
        100.0 * r.stats.tx.abort_ratio(),
        r.stats.tx.nacks_received,
    );
    if breakdown {
        let b = r.stats.total_breakdown();
        let total = b.total().max(1) as f64;
        for k in BreakdownKind::ALL {
            let pct = 100.0 * b.get(k) as f64 / total;
            if pct >= 0.05 {
                println!("    {:<10} {:>5.1}%", k.label(), pct);
            }
        }
        let t = &r.stats.tx;
        if t.overflow_aborts + t.irrevocable_commits + t.sw_commits + t.hw_sw_conflicts > 0 {
            println!(
                "    resilience: {} overflow aborts, {} irrevocable commits, {} watchdog escalations, \
                 {} sw commits ({} sw aborts), {} hw/sw conflicts",
                t.overflow_aborts,
                t.irrevocable_commits,
                t.watchdog_escalations,
                t.sw_commits,
                t.sw_aborts,
                t.hw_sw_conflicts,
            );
            print!("{}", escalation_report("    ", t));
        }
        if r.scheme == SchemeKind::SuvTm || r.scheme == SchemeKind::DynTmSuv {
            println!(
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
        let kcycles = r.stats.cycles.max(1) as f64 / 1000.0;
        println!(
            "    latency: {} reqs  p50={} p99={} p999={} max={} cycles  \
             ({:.2} txns/kcycle)",
            s.count,
            s.p50,
            s.p99,
            s.p999,
            s.max,
            r.stats.tx.commits as f64 / kcycles,
        );
    }
}

fn cmd_run(o: &RunOpts) {
    // A `--traffic` spec parameterizes the oltp kernel directly; every
    // other app comes from the registry.
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
    let mut cfg = config(o.cores, o.check);
    cfg.robust.fallback = o.fallback;
    if let Some(spec) = o.faults {
        apply_faults(&mut cfg, spec);
    }
    let r = run_workload_traced(&cfg, o.scheme, w.as_mut(), tc);
    if !o.json {
        report(&r, o.breakdown);
    }
    if o.check == CheckLevel::Full && !run_oracles(&r) {
        eprintln!("suvtm: correctness oracle reported violations");
        std::process::exit(1);
    }
    if let Some(out) = &r.trace {
        if !o.json {
            println!(
                "    trace: {} events, {} dropped, hash {:016x}",
                out.events, out.dropped, r.trace_hash
            );
        }
        if let Some(path) = &o.trace_path {
            let json = chrome_trace_json(&out.records, o.cores, out.dropped);
            std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path} (open in chrome://tracing)");
        }
        if o.trace_summary && !o.json {
            print!("{}", summary_report(out, 10));
            print!("{}", escalation_report("  ", &r.stats.tx));
        }
    }
    if o.json {
        let mut doc = run_json(&r);
        if let suv::trace::Json::Obj(pairs) = &mut doc {
            pairs.push(("cores".to_string(), suv::trace::Json::U64(o.cores as u64)));
            pairs.push(("scale".to_string(), suv::trace::Json::from(scale_name(o.scale))));
            pairs.push((
                "trace_hash".to_string(),
                suv::trace::Json::Str(format!("{:016x}", r.trace_hash)),
            ));
        }
        println!("{}", doc.render());
    }
}

fn cmd_sweep_one(o: &RunOpts) {
    let mut base = None;
    for scheme in [
        SchemeKind::LogTmSe,
        SchemeKind::FasTm,
        SchemeKind::Lazy,
        SchemeKind::DynTm,
        SchemeKind::SuvTm,
        SchemeKind::DynTmSuv,
    ] {
        let mut w = by_name(&o.app, o.scale).expect("app validated by the parser");
        let mut cfg = config(o.cores, o.check);
        cfg.robust.fallback = o.fallback;
        let r = run_workload(&cfg, scheme, w.as_mut());
        let b = *base.get_or_insert(r.stats.cycles);
        report(&r, o.breakdown);
        println!("    speedup vs LogTM-SE: {:.2}x", b as f64 / r.stats.cycles as f64);
    }
}

/// Write a rendered JSON document, creating parent directories.
fn write_doc(path: &str, body: String) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir:?}: {e}"));
        }
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("wrote {path}");
}

/// `suvtm bench --profile`: host-throughput profiling over the
/// engine-sensitive matrix, with the optional baseline regression gate.
fn cmd_bench_profile(o: &BenchOpts) {
    eprintln!(
        "suvtm bench --profile: {} cells ({}), min of {} rep{}, serial",
        o.cells.len(),
        scale_name(o.scale),
        o.reps,
        if o.reps == 1 { "" } else { "s" },
    );
    let start = Instant::now();
    let cells: Vec<_> = o.cells.iter().map(|c| run_cell_profiled(c, o.scale, o.reps)).collect();
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    for c in &cells {
        println!(
            "{:<14} {:<10} {:>2} cores {:>12} cycles  {:>8.1} ms  {:>6.1} Mcyc/s  \
             wait={:<7.1} machine={:<7.1} trace={:<6.1} ms  handoffs {}/{} taken",
            c.spec.app,
            c.spec.scheme.name(),
            c.spec.cores,
            c.result.stats.cycles,
            c.host_ms,
            c.cycles_per_sec() / 1e6,
            c.sched_wait_ms,
            c.machine_ms,
            c.trace_overhead_ms(),
            c.sched_counter("sched.handoffs_taken"),
            c.sched_counter("sched.handoffs_taken") + c.sched_counter("sched.handoffs_elided"),
        );
    }
    let geomean = geomean_cycles_per_sec(&cells);
    println!(
        "geomean: {:.2} Mcyc/s over {} cells ({:.1} ms host wall)",
        geomean / 1e6,
        cells.len(),
        wall_ms,
    );
    if let Some(path) = &o.out {
        let doc = host_json(&cells, o.scale, o.reps, Some(HostMeta { workers: 1, wall_ms }));
        write_doc(path, doc.render());
    }
    if let Some(path) = &o.baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let base = baseline_geomean(&text)
            .unwrap_or_else(|| panic!("{path}: no geomean_cycles_per_sec field"));
        match check_regression(geomean, base, o.tolerance) {
            Ok(()) => println!(
                "baseline: {:.2} Mcyc/s, current is {:+.1}% — ok",
                base / 1e6,
                100.0 * (geomean / base - 1.0),
            ),
            Err(msg) => {
                eprintln!("suvtm: {msg}");
                std::process::exit(1);
            }
        }
    }
}

/// Under `--resume`, carry completed ok rows forward from the previous
/// `--out` file; only the remaining cells are simulated. Returns the full
/// matrix of outcomes in matrix order.
fn run_or_resume(o: &BenchOpts, workers: usize) -> Vec<CellOutcome> {
    let previous = o
        .resume
        .then_some(o.out.as_ref())
        .flatten()
        .and_then(|path| std::fs::read_to_string(path).ok());
    let Some(previous) = previous else {
        return run_matrix(&o.cells, o.scale, workers);
    };
    let mut plan = resume_plan(&o.cells, &previous);
    let todo: Vec<_> =
        o.cells.iter().zip(&plan).filter(|(_, p)| p.is_none()).map(|(c, _)| c.clone()).collect();
    eprintln!(
        "suvtm bench --resume: {} of {} cells carried forward, {} to run",
        plan.iter().filter(|p| p.is_some()).count(),
        plan.len(),
        todo.len(),
    );
    let mut fresh = run_matrix(&todo, o.scale, workers).into_iter();
    for slot in &mut plan {
        if slot.is_none() {
            *slot = fresh.next();
        }
    }
    plan.into_iter().flatten().collect()
}

fn cmd_bench(o: &BenchOpts) {
    if o.mode == BenchMode::Profile {
        return cmd_bench_profile(o);
    }
    let workers = if o.serial { 1 } else { o.jobs.unwrap_or_else(default_workers) };
    eprintln!(
        "suvtm bench: {} cells ({}), {} host worker{}",
        o.cells.len(),
        scale_name(o.scale),
        workers,
        if workers == 1 { "" } else { "s" },
    );
    let start = Instant::now();
    let cells = run_or_resume(o, workers);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    for outcome in &cells {
        match outcome {
            CellOutcome::Ok(c) => println!(
                "{:<14} {:<10} {:>2} cores {:>12} cycles  commits={:<6} aborts={:<6} \
                 hash={:016x}  {:>8.1} ms  {:>6.1} Mcyc/s",
                c.spec.app,
                c.spec.scheme.name(),
                c.spec.cores,
                c.result.stats.cycles,
                c.result.stats.tx.commits,
                c.result.stats.tx.aborts,
                c.result.trace_hash,
                c.host_ms,
                c.cycles_per_sec() / 1e6,
            ),
            CellOutcome::Quarantined { spec, error, host_ms } => println!(
                "{:<14} {:<10} {:>2} cores QUARANTINED after {:.1} ms: {}",
                spec.app,
                spec.scheme.name(),
                spec.cores,
                host_ms,
                error,
            ),
            CellOutcome::Resumed { spec, cycles, .. } => println!(
                "{:<14} {:<10} {:>2} cores {:>12} cycles  (resumed from previous run)",
                spec.app,
                spec.scheme.name(),
                spec.cores,
                cycles,
            ),
        }
    }
    let total_cycles: u64 = cells.iter().map(CellOutcome::sim_cycles).sum();
    let quarantined: Vec<_> =
        cells.iter().filter(|c| matches!(c, CellOutcome::Quarantined { .. })).collect();
    println!(
        "total: {} cells ({} quarantined), {} simulated cycles, {:.1} ms host wall \
         ({:.1} Mcyc/s aggregate)",
        cells.len(),
        quarantined.len(),
        total_cycles,
        wall_ms,
        if wall_ms > 0.0 { total_cycles as f64 / wall_ms / 1e3 } else { 0.0 },
    );
    for q in &quarantined {
        eprintln!("suvtm: quarantined cell {}", cell_key(q.spec()));
    }
    if let Some(path) = &o.out {
        // `--scaling` omits host metadata so two runs of the same sweep
        // render byte-identical files (the CI determinism gate `cmp`s
        // them directly).
        let host =
            if o.mode == BenchMode::Scaling { None } else { Some(HostMeta { workers, wall_ms }) };
        let doc = sweep_json(&cells, o.scale, host);
        write_doc(path, doc.render());
    }
}

/// `suvtm verify`: run the small-scope model checkers and exit 1 on any
/// violation, leaving the rendered counterexamples where CI can pick
/// them up as an artifact.
fn cmd_verify(o: &VerifyOpts) {
    let req = suv_verify::VerifyRequest {
        engine: o.engine,
        scheme: o.scheme,
        protocol_mutation: o.mutate_protocol,
        sched_mutation: o.mutate_sched,
        hybrid_mutation: o.mutate_hybrid,
        max_states: o.max_states,
    };
    let runs = suv_verify::run_verify(&req);
    let mut failures = String::new();
    for r in &runs {
        print!("{}", r.render());
        if !r.ok() {
            failures.push_str(&r.render());
        }
    }
    let failed = runs.iter().filter(|r| !r.ok()).count();
    println!("verify: {}/{} explorations passed", runs.len() - failed, runs.len());
    if failed > 0 {
        write_doc(&o.out, failures);
        std::process::exit(1);
    }
}

fn cmd_list() {
    println!("workloads: {}", workload_names().join(" "));
    println!("schemes:   logtm-se fastm lazy dyntm suv dyntm-suv");
    println!("scales:    tiny paper scale");
    println!("checks:    off cheap full");
}

/// The message of the last simulated-OOM ([`suv::mem::AllocError`]) panic,
/// stashed by the panic hook so `main` can turn an uncaught one into the
/// documented exit code 3 instead of a raw panic trace.
static LAST_OOM: Mutex<Option<String>> = Mutex::new(None);

/// Install a panic hook that (a) records simulated-OOM panics quietly,
/// (b) drops the secondary "poisoned" panics that cascade through the
/// other simulated cores after the first one dies, and (c) falls back to
/// the default hook for anything else (real bugs keep their backtrace).
fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(e) = info.payload().downcast_ref::<suv::mem::AllocError>() {
            if let Ok(mut slot) = LAST_OOM.lock() {
                *slot = Some(e.to_string());
            }
            return;
        }
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_string)
            .or_else(|| info.payload().downcast_ref::<String>().cloned());
        if msg.as_deref().is_some_and(|m| m.contains("poisoned")) {
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
        Command::Verify(o) => cmd_verify(&o),
        Command::List => cmd_list(),
    }));
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
