//! Measuring one workload: the passes over its cell list, the
//! correctness gate, and the end-to-end and per-layer figures.
//!
//! Passes, in order (every pass visits every cell once, serially, on this
//! one thread):
//!
//! 1. *counted* — product tracer on. Doubles as the warm-up; its timing is
//!    discarded. Gives each cell's event count, stream hash and `sched.*`
//!    counters, which are deterministic, and is the reference every later
//!    pass must reproduce.
//! 2. *timed* × N — the workload's own tracer setting, nothing of the
//!    benchmark's switched on. Every end-to-end timing is the per-cell
//!    fastest of these, summed over cells: a cell is deterministic work,
//!    so what varies between its passes is interference from outside,
//!    which only ever adds time (README.md, "Noise floor", has the
//!    measurement that decided this against the per-cell median).
//! 3. *spanned* (`--trace 1`) — host probe on, spans recorded.
//! 4. *flipped* (`--trace 1`) — product tracer the other way round, for
//!    `trace.overhead_pct`.

use crate::cell::{panic_message, run_cell, CellRun, Instrument, Phases};
use crate::metrics::{per_layer, END_TO_END};
use crate::probes::{run_probes, Metric};
use crate::spans::SpanLog;
use crate::stats::{geomean, median, Fnv1a};
use crate::workloads::{workload, Cell, Size, WorkloadDef, SCHEMES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use suv::trace::Json;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the timed passes measure, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run rather than end-to-end run.
    pub trace: bool,
    pub size: Size,
}

/// Timed passes never drop below this many, whatever `--seconds` says: a
/// per-cell median needs three samples (one at smoke size).
fn min_timed_passes(size: Size, trace: bool) -> usize {
    match (size, trace) {
        (Size::Smoke, _) => 1,
        (Size::Full, false) => 3,
        // The traced run spends its time on the spanned and flipped
        // passes and the probes; two timed passes give it a reference.
        (Size::Full, true) => 2,
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub options: Options,
    pub def: WorkloadDef,
    /// Cell runs attempted after the warm-up, and how many of them failed
    /// (panicked, failed `verify`, disagreed with an earlier pass, or
    /// broke the breakdown identity).
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, `cell: reason`.
    pub failures: Vec<String>,
    /// A layer probe returned a wrong checksum or panicked.
    pub probe_failure: Option<String>,
    pub timed_passes: usize,
    /// Host seconds of each timed pass over the whole cell list.
    pub pass_wall_s: Vec<f64>,
    pub sim_fingerprint: u64,
    pub metrics: Vec<Metric>,
    pub cells: Vec<CellSummary>,
    pub spans: Option<SpanLog>,
    /// Where this run's own time went, stage by stage, in seconds.
    pub stages: Vec<(&'static str, f64)>,
}

/// What is kept per cell for the result file.
#[derive(Debug, Clone)]
pub struct CellSummary {
    pub key: String,
    pub cycles: u64,
    pub commits: u64,
    pub aborts: u64,
    pub trace_hash: u64,
    pub events: u64,
    /// Fastest and median whole-call host seconds over the timed passes.
    pub wall_s: f64,
    pub wall_median_s: f64,
    pub setup_s: f64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.probe_failure.is_none()
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::F64(*value)), ("unit", Json::from(*unit))]);
                (name.clone(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full detail document (what `results.json` keeps per run).
    pub fn detail(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let mut entry = vec![("value", Json::F64(*value)), ("unit", Json::from(*unit))];
                if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    entry.push(("better", Json::from(m.better.name())));
                    entry.push(("bound", Json::F64(m.bound)));
                }
                (name.clone(), Json::obj(entry))
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("cell", Json::from(c.key.as_str())),
                    ("cycles", Json::U64(c.cycles)),
                    ("commits", Json::U64(c.commits)),
                    ("aborts", Json::U64(c.aborts)),
                    ("trace_hash", Json::Str(format!("{:016x}", c.trace_hash))),
                    ("events", Json::U64(c.events)),
                    ("wall_s", Json::F64(c.wall_s)),
                    ("wall_median_s", Json::F64(c.wall_median_s)),
                    ("setup_s", Json::F64(c.setup_s)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::from(self.def.name)),
            ("seed", Json::U64(self.options.seed)),
            ("seeded_inputs", Json::Bool(self.def.seeded)),
            ("trace", Json::Bool(self.options.trace)),
            ("correct", Json::Bool(self.correct())),
            ("ops", Json::U64(self.attempted)),
            ("ops_failed", Json::U64(self.failed)),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::from(f.as_str())).collect())),
            ("timed_passes", Json::U64(self.timed_passes as u64)),
            ("pass_wall_s", Json::Arr(self.pass_wall_s.iter().map(|s| Json::F64(*s)).collect())),
            ("sim_fingerprint", Json::Str(format!("{:016x}", self.sim_fingerprint))),
            ("metrics", Json::Obj(metrics)),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// Every metric as `workload name value unit`, then the fields.
    pub fn print(&self) {
        let w = self.def.name;
        if !self.def.seeded {
            println!(
                "# {w}: STAMP inputs are the paper's fixed data sets and ignore --seed; the \
                 seed moves only the layer probes' address streams"
            );
        }
        for (name, value, unit) in &self.metrics {
            let mut line = format!("{w} {name} {value} {unit}");
            if name == "wall_s" {
                let lo = self.pass_wall_s.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = self.pass_wall_s.iter().copied().fold(0.0, f64::max);
                let medians = total(self.cells.iter().map(|c| c.wall_median_s));
                line.push_str(&format!(
                    "   # per cell the fastest of {} timed passes, summed; per-cell medians sum \
                     to {medians:.4}; whole pass min {lo:.4} max {hi:.4}",
                    self.timed_passes
                ));
            }
            if name == "sim_speedup_x" {
                line.push_str(&format!("   # {}", self.def.claim.label));
                match self.def.claim.paper {
                    Some((paper, fig)) => line.push_str(&format!(
                        "; paper {paper}x ({fig}), gap {:+.1}%",
                        100.0 * (value / paper - 1.0)
                    )),
                    None => line.push_str("; unvalidated (the paper has no such experiment)"),
                }
            }
            println!("{line}");
        }
        let stages: Vec<String> =
            self.stages.iter().map(|(n, s)| format!("{n} {s:.2} s")).collect();
        println!("# {w} stages: {}", stages.join(", "));
        println!("{w} sim_fingerprint {:016x}", self.sim_fingerprint);
        println!("{w} ops {}", self.attempted);
        println!("{w} ops_failed {}", self.failed);
        for f in &self.failures {
            println!("{w} FAILED {f}");
        }
        if let Some(p) = &self.probe_failure {
            println!("{w} FAILED probe {p}");
        }
        if let Some(log) = &self.spans {
            for (name, ns) in log.self_ns_by_name() {
                println!("{w} span.self_s.{name} {} s", ns as f64 / 1e9);
            }
        }
    }
}

/// Per-cell state across the passes.
struct CellState<'a> {
    cell: &'a Cell,
    /// The counted pass's run; `None` once the cell has failed.
    reference: Option<CellRun>,
    timed: Vec<Phases>,
    /// Whole-call host seconds in the spanned and the flipped pass.
    spanned_wall: Option<f64>,
    flipped_wall: Option<f64>,
}

impl CellState<'_> {
    /// The fastest timed pass's value of one phase.
    fn best_of(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        self.timed.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    fn median_wall(&self) -> f64 {
        median(&self.timed.iter().map(|p| p.wall).collect::<Vec<_>>())
    }
}

/// Sum of host seconds. Not `Iterator::sum`: an empty `f64` sum is -0.0,
/// which would print as `-0`.
fn total(seconds: impl Iterator<Item = f64>) -> f64 {
    seconds.fold(0.0, |a, b| a + b)
}

/// The harness side of the gate: which (cell, pass) slots failed.
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Run one cell in one pass and hold the result to the reference.
    /// A cell that has already failed is not run again, but its slot
    /// still counts as attempted and failed.
    fn run(&mut self, st: &mut CellState<'_>, pass: &str, how: Instrument) -> Option<CellRun> {
        self.attempted += 1;
        let verdict = match &st.reference {
            None => Err(None),
            Some(reference) => run_cell(st.cell, how)
                .and_then(|run| run.check_against(reference).map(|()| run))
                .map_err(Some),
        };
        match verdict {
            Ok(run) => Some(run),
            Err(reason) => {
                self.failed += 1;
                if let Some(reason) = reason {
                    self.failures.push(format!("{} ({pass} pass): {reason}", st.cell.key()));
                    st.reference = None;
                }
                None
            }
        }
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measure `options.workload`; `None` for an unknown workload name.
pub fn measure(options: &Options) -> Option<Report> {
    let def = workload(&options.workload, options.seed, options.size)?;
    let mut gate = Gate { attempted: 0, failed: 0, failures: Vec::new() };
    let off = Instrument { tracer: false, probe: false };

    let mut stages = Vec::new();
    let mut stage = Instant::now();
    let mut lap = |name: &'static str| {
        stages.push((name, stage.elapsed().as_secs_f64()));
        stage = Instant::now();
    };

    // Counted pass (warm-up; not part of `attempted`).
    let mut states: Vec<CellState<'_>> = def
        .cells
        .iter()
        .map(|cell| {
            let reference = match run_cell(cell, Instrument { tracer: true, ..off }) {
                Ok(run) => Some(run),
                Err(reason) => {
                    gate.failures.push(format!("{} (counted pass): {reason}", cell.key()));
                    None
                }
            };
            CellState { cell, reference, timed: Vec::new(), spanned_wall: None, flipped_wall: None }
        })
        .collect();

    lap("counted pass");

    // Timed passes.
    let budget = if options.trace { options.seconds / 3.0 } else { options.seconds };
    let min_passes = min_timed_passes(options.size, options.trace);
    let mut pass_wall_s = Vec::new();
    let timing = Instant::now();
    while pass_wall_s.len() < min_passes || timing.elapsed().as_secs_f64() < budget {
        let pass = Instant::now();
        for st in &mut states {
            let how = Instrument { tracer: st.cell.traced, ..off };
            if let Some(run) = gate.run(st, "timed", how) {
                st.timed.push(run.marks.phases());
            }
        }
        pass_wall_s.push(pass.elapsed().as_secs_f64());
        // Stop when the next pass would end further from the budget than
        // this one did.
        let (spent, last) = (timing.elapsed().as_secs_f64(), pass.elapsed().as_secs_f64());
        if pass_wall_s.len() >= min_passes && spent + last / 2.0 > budget {
            break;
        }
    }

    lap("timed passes");

    let mut metrics: Vec<Metric> = Vec::new();
    let mut spans = None;
    let mut probe_failure = None;
    if options.trace {
        let mut log = SpanLog::new();
        let mut layers = traced_passes(&mut states, &mut gate, &mut log);
        spans = Some(log);
        lap("spanned and flipped passes");
        let probes = catch_unwind(AssertUnwindSafe(|| run_probes(options.seed, options.size)))
            .unwrap_or_else(|p| Err(panic_message(p.as_ref())));
        lap("layer probes");
        match probes {
            Ok(p) => layers.extend(p),
            Err(e) => probe_failure = Some(e),
        }
        // Report in the manifest's order; a metric a failed probe could
        // not produce is reported as 0 beside `correct: false`.
        for m in per_layer() {
            let value = layers.iter().find(|(n, ..)| *n == m.name).map_or(0.0, |(_, v, _)| *v);
            metrics.push((m.name, value, m.unit));
        }
    } else {
        let values = end_to_end(&def, &states);
        for (m, value) in END_TO_END.iter().zip(values) {
            metrics.push((m.name.to_string(), value, m.unit));
        }
    }

    let mut fp = Fnv1a::new();
    let cells = states
        .iter()
        .filter_map(|st| {
            let r = st.reference.as_ref()?;
            let (cycles, commits, aborts) = r.signature();
            fp.bytes(st.cell.key().as_bytes());
            for w in [st.cell.cores as u64, cycles, commits, aborts, r.result.trace_hash] {
                fp.word(w);
            }
            Some(CellSummary {
                key: st.cell.key(),
                cycles,
                commits,
                aborts,
                trace_hash: r.result.trace_hash,
                events: r.trace_events(),
                wall_s: st.best_of(|p| p.wall),
                wall_median_s: st.median_wall(),
                setup_s: st.best_of(Phases::setup_total),
            })
        })
        .collect();

    Some(Report {
        options: options.clone(),
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
        probe_failure,
        timed_passes: pass_wall_s.len(),
        pass_wall_s,
        sim_fingerprint: fp.finish(),
        metrics,
        cells,
        spans,
        stages,
        def,
    })
}

/// Cells that survived every pass so far. Each has a sample from every
/// timed pass: a cell that misses one has failed and lost its reference.
fn healthy<'s, 'a>(states: &'s [CellState<'a>]) -> impl Iterator<Item = &'s CellState<'a>> {
    states.iter().filter(|st| st.reference.is_some())
}

/// The six end-to-end values, in [`END_TO_END`] order.
fn end_to_end(def: &WorkloadDef, states: &[CellState<'_>]) -> [f64; 6] {
    let wall_s = total(healthy(states).map(|st| st.best_of(|p| p.wall)));
    let setup_s = total(healthy(states).map(|st| st.best_of(Phases::setup_total)));
    let rates: Vec<f64> = healthy(states)
        .map(|st| {
            let cycles = st.reference.as_ref().expect("healthy").result.stats.cycles;
            cycles as f64 / st.best_of(|p| p.wall) / 1e6
        })
        .collect();
    let events: u64 =
        healthy(states).map(|st| st.reference.as_ref().expect("healthy").trace_events()).sum();
    let ratios: Vec<f64> = def
        .speedup_pairs
        .iter()
        .filter_map(|(b, v)| {
            let cycles = |i: usize| states[i].reference.as_ref().map(|r| r.result.stats.cycles);
            Some(cycles(*b)? as f64 / cycles(*v)?.max(1) as f64)
        })
        .collect();
    [
        wall_s,
        geomean(&rates),
        if events == 0 { 0.0 } else { wall_s * 1e9 / events as f64 },
        setup_s,
        peak_rss_mb(),
        geomean(&ratios),
    ]
}

/// The spanned and flipped passes, and every per-workload layer figure.
fn traced_passes(states: &mut [CellState<'_>], gate: &mut Gate, log: &mut SpanLog) -> Vec<Metric> {
    let off = Instrument { tracer: false, probe: false };
    let (mut machine_ns, mut dispatch_ns) = (0u64, 0u64);

    for st in states.iter_mut() {
        let cell = st.cell;
        let how = Instrument { tracer: cell.traced, probe: true };
        let Some(run) = gate.run(st, "spanned", how) else { continue };
        let probe = run.probe.as_ref().expect("the spanned pass runs with the probe on");
        let m = &run.marks;
        let id = log.push_between("cell", None, m.start, m.end);
        log.set_label(id, &cell.key());
        log.push_between("build", Some(id), m.start, m.built);
        log.push_between("machine_build", Some(id), m.built, m.setup_start);
        log.push_between("setup", Some(id), m.setup_start, m.setup_end);
        let run_id = log.push_between("run", Some(id), m.setup_end, m.verify_start);
        log.push_between("verify", Some(id), m.verify_start, m.verify_end);
        // Aggregated children: sums over the quanta, laid end to end from
        // the start of `run` so the log stays one time line.
        let run_start = log.spans()[run_id].start_ns;
        let split = run_start + probe.machine_ns();
        log.push("run.machine", Some(run_id), run_start, split, probe.quanta());
        log.push("run.dispatch", Some(run_id), split, split + probe.dispatch_ns(), probe.quanta());
        machine_ns += probe.machine_ns();
        dispatch_ns += probe.dispatch_ns();
        st.spanned_wall = Some(m.phases().wall);
    }
    for st in states.iter_mut() {
        let how = Instrument { tracer: !st.cell.traced, ..off };
        if let Some(run) = gate.run(st, "flipped", how) {
            st.flipped_wall = Some(run.marks.phases().wall);
        }
    }

    let ok: Vec<&CellState<'_>> = healthy(states).collect();
    let refs = || ok.iter().map(|st| st.reference.as_ref().expect("healthy"));
    let sum = |f: &dyn Fn(&CellRun) -> u64| refs().map(f).sum::<u64>() as f64;
    let sum_ms = |f: &dyn Fn(&Phases) -> f64| total(ok.iter().map(|st| st.best_of(f))) * 1e3;
    // `a` over `b`, minus 1, in percent.
    let overhead_pct = |a: f64, b: f64| if b > 0.0 { 100.0 * (a / b - 1.0) } else { 0.0 };

    // Tracer on against tracer off, and the spanned pass against the
    // untraced median, over the cells that completed the pass in question.
    let (mut tracer_on, mut tracer_off, mut spanned, mut unspanned) = (0.0, 0.0, 0.0, 0.0);
    for st in &ok {
        let timed = st.best_of(|p| p.wall);
        if let Some(flipped) = st.flipped_wall {
            let (on, off) = if st.cell.traced { (timed, flipped) } else { (flipped, timed) };
            tracer_on += on;
            tracer_off += off;
        }
        if let Some(wall) = st.spanned_wall {
            spanned += wall;
            unspanned += timed;
        }
    }

    let commits = sum(&|r| r.result.stats.tx.commits);
    let aborts = sum(&|r| r.result.stats.tx.aborts);
    let rt_lookups = sum(&|r| r.result.stats.redirect.l1_lookups);
    let rt_misses = sum(&|r| r.result.stats.redirect.l1_misses);
    let handoffs_taken = sum(&|r| r.trace_counter("sched.handoffs_taken"));

    let mut out: Vec<Metric> = vec![
        ("coh.l1_misses".into(), sum(&|r| r.result.stats.l1_misses), "count"),
        ("coh.l2_misses".into(), sum(&|r| r.result.stats.l2_misses), "count"),
        (
            "rt.l1_hit_ratio".into(),
            if rt_lookups > 0.0 { 1.0 - rt_misses / rt_lookups } else { 0.0 },
            "ratio",
        ),
        ("rt.entries_added".into(), sum(&|r| r.result.stats.redirect.entries_added), "count"),
        ("htm.commits".into(), commits, "count"),
        ("htm.aborts".into(), aborts, "count"),
        ("htm.nacks".into(), sum(&|r| r.result.stats.tx.nacks_received), "count"),
        (
            "htm.useful_tx_ratio".into(),
            if commits + aborts > 0.0 { commits / (commits + aborts) } else { 0.0 },
            "ratio",
        ),
        ("htm.sw_commits".into(), sum(&|r| r.result.stats.tx.sw_commits), "count"),
        (
            "htm.irrevocable_commits".into(),
            sum(&|r| r.result.stats.tx.irrevocable_commits),
            "count",
        ),
        ("sim.machine_s".into(), machine_ns as f64 / 1e9, "s"),
        ("sim.dispatch_s".into(), dispatch_ns as f64 / 1e9, "s"),
        ("sim.handoffs_taken".into(), handoffs_taken, "count"),
        ("sim.handoffs_elided".into(), sum(&|r| r.trace_counter("sched.handoffs_elided")), "count"),
        (
            "sim.dispatch_ns_per_handoff".into(),
            if handoffs_taken > 0.0 { dispatch_ns as f64 / handoffs_taken } else { 0.0 },
            "ns",
        ),
        ("sim.machine_build_ms".into(), sum_ms(&|p| p.machine_build), "ms"),
        ("trace.events".into(), sum(&|r| r.trace_events()), "count"),
        ("trace.overhead_pct".into(), overhead_pct(tracer_on, tracer_off), "%"),
        ("workload.build_ms".into(), sum_ms(&|p| p.build), "ms"),
        ("workload.setup_ms".into(), sum_ms(&|p| p.setup), "ms"),
        ("workload.verify_ms".into(), sum_ms(&|p| p.verify), "ms"),
        ("bench.trace_overhead_pct".into(), overhead_pct(spanned, unspanned), "%"),
    ];
    for (scheme, slug) in SCHEMES {
        let cells = ok.iter().filter(|st| st.cell.scheme == scheme);
        let wall = total(cells.map(|st| st.best_of(|p| p.wall)));
        out.push((format!("vm.{slug}.wall_s"), wall, "s"));
    }
    // Simulated service figures of the open-loop cells (DynTM+SUV only:
    // the one scheme that stays off both cliffs, so the tail is the
    // traffic's and not a storm's).
    let served: Vec<(f64, f64)> = refs()
        .filter(|r| r.result.scheme == suv::prelude::SchemeKind::DynTmSuv)
        .filter_map(|r| {
            let lat = r.result.latency.as_ref()?;
            let kcyc = r.result.stats.cycles.max(1) as f64 / 1e3;
            Some((lat.summary().p99 as f64 / 1e3, r.result.stats.tx.commits as f64 / kcyc))
        })
        .collect();
    let mean = |f: &dyn Fn(&(f64, f64)) -> f64| {
        if served.is_empty() {
            0.0
        } else {
            total(served.iter().map(f)) / served.len() as f64
        }
    };
    out.push(("oltp.sim_p99_kcyc".into(), mean(&|s| s.0), "kcyc"));
    out.push(("oltp.sim_txn_per_kcyc".into(), mean(&|s| s.1), "1/kcyc"));
    out
}
