//! The experiment table: every figure, table and sweep this repo
//! regenerates is one row of [`EXPERIMENTS`] — a name, a one-line
//! description, the cells it needs (as data) and what becomes of their
//! results. `suvtm exp NAME | --all` runs a report row's cells through
//! the parallel engine ([`run_matrix`]) and renders them; `suvtm bench`
//! takes its three presets' default axes, scale, output path and
//! document renderer from the same table; `suvtm list` reads it too.
//!
//! Report rows run at [`SuiteScale::Paper`] from the CLI; the library
//! entry point [`run_experiment`] takes the scale as an argument so the
//! tests can pin every row's text and JSON at `Tiny`.

use crate::engine::{
    host_json, matrix, run_matrix, sweep_json, BenchCell, CellOutcome, CellSpec, RenderDoc,
};
use crate::{geomean, run_json, txns_per_kcycle};
use std::fmt::{self, Write as _};
use suv::cacti::{
    estimate_fa, storage_per_core_kb, tables_area_mm2, worst_case_power_w, ArrayConfig, NODES,
    PROCESSORS,
};
use suv::htm::machine::{Access, CommitOutcome, HtmMachine};
use suv::prelude::*;
use suv::sim::build_vm;
use suv::stamp::workloads::HIGH_CONTENTION;
use suv::stamp::WORKLOAD_NAMES;
use suv::trace::Json;
use suv::types::config::{
    DIR_LATENCY, L1_LATENCY, L2_LATENCY, MEM_BANKS, MEM_LATENCY, NOC_ROUTE_LATENCY,
    NOC_WIRE_LATENCY,
};
use suv::types::{Cycle, LINE_BYTES};

/// The cells a row needs.
#[derive(Debug, Clone, Copy)]
pub enum Cells {
    /// The row-major cross product on the Table III machine. The only
    /// shape `suvtm bench` presets use: its `--apps`/`--schemes`/`--cores`
    /// flags each replace one axis.
    Matrix {
        /// Workload names.
        apps: &'static [&'static str],
        /// Schemes.
        schemes: &'static [SchemeKind],
        /// Simulated core counts.
        cores: &'static [usize],
    },
    /// An explicit list, for rows that vary other `MachineConfig` fields.
    List(fn() -> Vec<CellSpec>),
}

/// A report under construction: the text every row prints, and for rows
/// with `json: true` the `rows` array and extra top-level keys of its
/// JSON document.
#[derive(Debug)]
pub struct Report {
    /// The text report, byte-for-byte what `results/<name>.txt` holds.
    pub text: String,
    /// The JSON document's `rows`: one [`run_json`] row per cell unless
    /// the renderer replaces them.
    pub rows: Vec<Json>,
    /// Further top-level JSON keys (summary statistics).
    pub extra: Vec<(&'static str, Json)>,
}

/// Renders completed cells into a report (writing to a `String` cannot
/// fail; the `fmt::Result` only lets the body use `writeln!(..)?`).
pub type Render = fn(&[BenchCell], &mut Report) -> fmt::Result;

/// What becomes of a row's completed cells (handed over in cell order).
#[derive(Debug, Clone, Copy)]
pub enum Output {
    /// A figure or table of the evaluation: `results/<name>.txt`, plus
    /// `results/<name>.json` when `json` is set.
    Report {
        /// Turns the completed cells into the report.
        render: Render,
        /// Whether the row has a JSON document (`--json` is valid).
        json: bool,
    },
    /// A `suvtm bench` preset: its default `--out` path and the renderer
    /// of the document written there.
    Bench(&'static str, RenderDoc),
}

/// One row of the experiment table.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name `suvtm exp` takes and the stem of the result files.
    pub name: &'static str,
    /// One-line description (`suvtm list`).
    pub about: &'static str,
    /// Input scale the CLI runs the row at.
    pub scale: SuiteScale,
    /// The cells the row needs.
    pub cells: Cells,
    /// What becomes of their results.
    pub output: Output,
}

/// A row computed without simulating a workload.
const NO_CELLS: Cells = Cells::List(Vec::new);

/// `apps` × `schemes` on the 16-core Table III machine.
const fn paper(apps: &'static [&'static str], schemes: &'static [SchemeKind]) -> Cells {
    Cells::Matrix { apps, schemes, cores: &[16] }
}

const fn report(
    name: &'static str,
    about: &'static str,
    cells: Cells,
    render: Render,
    json: bool,
) -> Experiment {
    Experiment {
        name,
        about,
        scale: SuiteScale::Paper,
        cells,
        output: Output::Report { render, json },
    }
}

/// [`sweep_json`] as a preset's renderer: a sweep document holds every
/// outcome, quarantined and resumed cells included.
const SWEEP_DOC: RenderDoc = |cells, scale| Ok(sweep_json(cells, scale));

/// The table. `suvtm exp --all` runs the report rows in this order.
#[rustfmt::skip]
pub static EXPERIMENTS: [Experiment; 17] = [
    report("fig1", "repair and merge pathologies: isolation window vs write-set size", NO_CELLS, fig1, false),
    report("fig6", "execution-time breakdown of LogTM-SE, FasTM and SUV-TM over STAMP", paper(&WORKLOAD_NAMES, &SchemeKind::FIG6), fig6, true),
    report("fig7", "sensitivity to the first-level redirect-table size", Cells::List(fig7_cells), fig7, false),
    report("fig8", "sensitivity to the second-level redirect-table size and latency", Cells::List(fig8_cells), fig8, false),
    report("fig9", "DynTM vs DynTM with SUV version management over STAMP", paper(&WORKLOAD_NAMES, &SchemeKind::FIG9), fig9, true),
    report("table1", "abort ratios by scheme (measured analogue of the paper's survey)", paper(&WORKLOAD_NAMES, &SchemeKind::FIG6), table1, false),
    report("table3", "configuration of the simulated CMP", NO_CELLS, table3, false),
    report("table4", "workload characteristics under LogTM-SE", paper(&WORKLOAD_NAMES, &[SchemeKind::LogTmSe]), table4, false),
    report("table5", "overflow statistics of the coarse-grained applications", paper(&COARSE_APPS, &SchemeKind::FIG6), table5, true),
    report("table6", "parameters of some contemporary processors", NO_CELLS, table6, false),
    report("table7", "CACTI-style cost of the first-level redirect table", NO_CELLS, table7, false),
    report("ablation", "signature precision and NoC link-contention ablations", Cells::List(ablation_cells), ablation, false),
    report("oltp_storm", "open-loop tail latency under hot-key storms, all six schemes", paper(&["oltp-storm"], &SchemeKind::ALL), oltp_storm, true),
    report("fallback_cost", "STM fallback vs irrevocable-only under an overflow storm", Cells::List(fallback_cells), fallback_cost, true),
    Experiment {
        name: "sweep",
        about: "`suvtm bench`: STAMP x all schemes at 16 cores",
        scale: SuiteScale::Tiny,
        cells: paper(&WORKLOAD_NAMES, &SchemeKind::ALL),
        output: Output::Bench("results/BENCH_sweep.json", SWEEP_DOC),
    },
    // A low-contention STAMP kernel, a high-contention one and the OLTP
    // server: varied enough to show where SUV's flash commit keeps
    // winning, small enough that the 512-core cells finish in seconds.
    // The intrinsic serializers (genome's global chain counter,
    // intruder's queue header, kmeans-high's four accumulators) storm
    // for *hours* of host time at many-core scale, so they stay opt-in
    // via `--apps`.
    Experiment {
        name: "scaling",
        about: "`suvtm bench --scaling`: the 1 -> 512-core curve on the scale inputs",
        scale: SuiteScale::Scale,
        cells: Cells::Matrix {
            apps: &["vacation", "ssca2", "oltp"],
            schemes: &SchemeKind::ALL,
            cores: &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
        },
        output: Output::Bench("results/SCALING_curve.json", SWEEP_DOC),
    },
    // The full paper matrix: the schedule (cycles, trace hash, handoffs)
    // of every cell `benchmark/`'s stamp_* workloads time.
    Experiment {
        name: "profile",
        about: "`suvtm bench --profile`: the schedule pin of the full paper matrix",
        scale: SuiteScale::Paper,
        cells: Cells::Matrix { apps: &WORKLOAD_NAMES, schemes: &SchemeKind::ALL, cores: &[8, 16] },
        output: Output::Bench("results/BENCH_host.json", host_json),
    },
];

impl Experiment {
    /// The row's cells, in the order its renderer expects them.
    pub fn cells(&self) -> Vec<CellSpec> {
        match self.cells {
            Cells::Matrix { apps, schemes, cores } => matrix(apps, schemes, cores),
            Cells::List(list) => list(),
        }
    }
}

/// The figure and table rows — what `suvtm exp` accepts.
pub fn reports() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| matches!(e.output, Output::Report { .. }))
}

/// Look a report row up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    reports().find(|e| e.name == name)
}

/// The `suvtm bench` preset row `name` (`sweep`, `scaling` or
/// `profile`), its default `--out` path and its document's renderer.
pub fn preset(name: &str) -> (&'static Experiment, &'static str, RenderDoc) {
    EXPERIMENTS
        .iter()
        .find_map(|e| match e.output {
            Output::Bench(out, render) if e.name == name => Some((e, out, render)),
            _ => None,
        })
        .expect("every bench mode has a preset row")
}

/// Run a report row's cells at `scale` on `workers` host threads and
/// render them: the text report and, for rows that have one, the
/// rendered JSON document. A cell that dies fails the experiment.
pub fn run_experiment(
    e: &Experiment,
    scale: SuiteScale,
    workers: usize,
) -> Result<(String, Option<String>), String> {
    let Output::Report { render, json } = e.output else {
        return Err(format!("`{}` is a `suvtm bench` preset, not a report", e.name));
    };
    let cells = run_matrix(&e.cells(), scale, workers)
        .into_iter()
        .map(CellOutcome::into_ok)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("{}: {err}", e.name))?;
    let rows = if json { cells.iter().map(|c| run_json(&c.result)).collect() } else { Vec::new() };
    let mut r = Report { text: String::new(), rows, extra: Vec::new() };
    render(&cells, &mut r).expect("writing to a String cannot fail");
    let doc = json.then(|| {
        let mut pairs = vec![("figure", Json::from(e.name)), ("rows", Json::Arr(r.rows))];
        pairs.extend(r.extra);
        Json::obj(pairs).render()
    });
    Ok((r.text, doc))
}

/// A cell on the Table III machine with `tweak` applied to its config.
fn cell(app: &str, scheme: SchemeKind, tweak: impl FnOnce(&mut MachineConfig)) -> CellSpec {
    let mut cfg = MachineConfig::default();
    tweak(&mut cfg);
    CellSpec { app: app.to_string(), scheme, cfg }
}

fn cycles(c: &BenchCell) -> Cycle {
    c.result.stats.cycles
}

/// `a` is this many times faster than `b`.
fn speedup(a: &BenchCell, b: &BenchCell) -> f64 {
    cycles(b) as f64 / cycles(a) as f64
}

fn latency_summary(c: &BenchCell) -> suv::trace::LatencySummary {
    c.result.latency.as_ref().expect("oltp records a latency sample per request").summary()
}

/// The p999 latency as a ratio's operand (never zero).
fn p999_tail(c: &BenchCell) -> f64 {
    latency_summary(c).p999.max(1) as f64
}

const BREAKDOWN_HEADER: &str = "NoTrans  Trans Barrier Backoff Stalled Wasted Aborting Committing";

/// `c`'s breakdown under [`BREAKDOWN_HEADER`], as percentages of the
/// all-thread cycles of `base`, its app's baseline cell.
fn breakdown_row(c: &BenchCell, base: &BenchCell) -> String {
    let norm = (cycles(base) * base.spec.cfg.n_cores as u64).max(1) as f64;
    let b = c.result.stats.total_breakdown();
    let col = |(k, w): (BreakdownKind, usize)| format!("{:w$.1}", 100.0 * b.get(k) as f64 / norm);
    let cols: Vec<_> =
        BreakdownKind::ALL.into_iter().zip([6, 6, 7, 7, 7, 6, 8, 10]).map(col).collect();
    cols.join(" ")
}

/// Figure 1: isolation-window length as a function of write-set size.
fn fig1(_: &[BenchCell], r: &mut Report) -> fmt::Result {
    use SchemeKind::{FasTm, Lazy, LogTmSe, SuvTm};
    fn window(scheme: SchemeKind, write_set: u64, commit: bool) -> u64 {
        let cfg = MachineConfig::small_test();
        let mut m = HtmMachine::new(&cfg, build_vm(scheme, &cfg));
        let mut t = m.begin_tx(0, 0, TxSite(1));
        for i in 0..write_set {
            match m.tx_store(t, 0, 0x1_0000 + i * 64, i) {
                Access::Done { latency, .. } => t += latency,
                other => panic!("unexpected {other:?}"),
            }
        }
        if !commit {
            return m.abort_tx(t, 0);
        }
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { latency, .. } => latency,
            other => panic!("unexpected {other:?}"),
        }
    }
    let t = &mut r.text;
    writeln!(t, "Figure 1: isolation-window length vs write-set size (cycles)")?;
    writeln!(t, "\nRepair (abort) windows:")?;
    writeln!(t, "{:>10} {:>10} {:>8} {:>8}", "lines", "LogTM-SE", "FasTM", "SUV-TM")?;
    for ws in [4u64, 16, 64, 256] {
        let [l, f, s] = [LogTmSe, FasTm, SuvTm].map(|scheme| window(scheme, ws, false));
        writeln!(t, "{ws:>10} {l:>10} {f:>8} {s:>8}")?;
    }
    writeln!(t, "\nMerge (commit) windows:")?;
    writeln!(t, "{:>10} {:>10} {:>8}", "lines", "Lazy(TCC)", "SUV-TM")?;
    for ws in [4u64, 16, 64, 256] {
        let [lazy, s] = [Lazy, SuvTm].map(|scheme| window(scheme, ws, true));
        writeln!(t, "{ws:>10} {lazy:>10} {s:>8}")?;
    }
    writeln!(t, "\nLogTM-SE repair and lazy merge grow with the write set;")?;
    writeln!(t, "SUV's single-update flash is O(1) on both paths.")
}

/// Figure 6: breakdown of LogTM-SE (L), FasTM (F) and SUV-TM (S).
fn fig6(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Figure 6: execution time breakdown (normalized to LogTM-SE = 100)")?;
    writeln!(t, "{:<10} {:>3} {:>8}  {BREAKDOWN_HEADER}", "app", "", "cycles")?;
    let (mut all_f, mut all_s, mut hc_f, mut hc_s) = (vec![], vec![], vec![], vec![]);
    for group in cells.chunks(3) {
        let [l, f, s] = group else { unreachable!("three schemes per app") };
        let app = l.spec.app.as_str();
        for c in group {
            let (label, row) = (c.spec.scheme.label(), breakdown_row(c, l));
            writeln!(t, "{app:<10} {label:>3} {:>8}  {row}", cycles(c))?;
        }
        let (sf, ss, fs) = (speedup(f, l), speedup(s, l), speedup(s, f));
        let [la, fa, sa] = [l, f, s].map(|c| c.result.stats.tx.aborts);
        writeln!(
            t,
            "{:<10} speedup vs L: F {sf:.2}x, S {ss:.2}x;  S vs F {fs:.2}x  (aborts L/F/S: {la}/{fa}/{sa})",
            ""
        )?;
        all_f.push(sf);
        all_s.push(ss);
        if HIGH_CONTENTION.contains(&app) {
            hc_f.push(sf);
            hc_s.push(ss);
        }
    }
    let [all_f, all_s, hc_f, hc_s] = [all_f, all_s, hc_f, hc_s].map(|xs| geomean(&xs));
    writeln!(
        t,
        "\nGeomean speedups over LogTM-SE (paper: SUV 1.56x all / 1.95x high-contention):"
    )?;
    writeln!(t, "  all apps        : FasTM {all_f:.2}x, SUV-TM {all_s:.2}x")?;
    writeln!(t, "  high-contention : FasTM {hc_f:.2}x, SUV-TM {hc_s:.2}x")?;
    let (vs_all, vs_hc) = (all_s / all_f, hc_s / hc_f);
    writeln!(t, "  SUV-TM vs FasTM : {vs_all:.2}x all, {vs_hc:.2}x HC (paper: 1.09x / 1.12x)")?;
    r.extra.push((
        "geomean_speedup_vs_logtm",
        Json::obj([
            ("fastm_all", Json::F64(all_f)),
            ("suv_all", Json::F64(all_s)),
            ("fastm_high_contention", Json::F64(hc_f)),
            ("suv_high_contention", Json::F64(hc_s)),
        ]),
    ));
    Ok(())
}

const SENSITIVITY_APPS: [&str; 4] = ["bayes", "labyrinth", "yada", "genome"];
const L1_SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 2048];
const L2_SIZES: [usize; 5] = [512, 2048, 8192, 16384, 32768];
const L2_LATENCIES: [u64; 5] = [0, 5, 10, 20, 30];

fn fig7_cells() -> Vec<CellSpec> {
    let sized = |app, n| cell(app, SchemeKind::SuvTm, |c| c.suv.l1_entries = n);
    SENSITIVITY_APPS.iter().flat_map(|&app| L1_SIZES.map(|n| sized(app, n))).collect()
}

/// Figure 7: first-level redirect-table size — (a) miss rate, (b) time.
fn fig7(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Figure 7: first-level redirect-table size sensitivity (SUV-TM)")?;
    writeln!(t, "(a) miss rate / (b) execution time normalized to the 512-entry table")?;
    for group in cells.chunks(L1_SIZES.len()) {
        writeln!(t, "\n{}:", group[0].spec.app)?;
        writeln!(t, "{:>8} {:>12} {:>12} {:>12}", "entries", "miss rate", "cycles", "norm time")?;
        let base = group.iter().find(|c| c.spec.cfg.suv.l1_entries == 512).expect("512 in sweep");
        for c in group {
            let (entries, miss) =
                (c.spec.cfg.suv.l1_entries, c.result.stats.redirect.l1_miss_rate());
            let (cyc, norm) = (cycles(c), speedup(base, c));
            writeln!(t, "{entries:>8} {:>11.2}% {cyc:>12} {norm:>12.3}", 100.0 * miss)?;
        }
    }
    Ok(())
}

/// Every app's size sweep, then every app's latency sweep.
fn fig8_cells() -> Vec<CellSpec> {
    let with_entries = |app, n| cell(app, SchemeKind::SuvTm, |c| c.suv.l2_entries = n);
    let with_latency = |app, lat| cell(app, SchemeKind::SuvTm, |c| c.suv.l2_latency = lat);
    let sizes = SENSITIVITY_APPS.iter().flat_map(|&app| L2_SIZES.map(|n| with_entries(app, n)));
    let lats = SENSITIVITY_APPS.iter().flat_map(|&app| L2_LATENCIES.map(|l| with_latency(app, l)));
    sizes.chain(lats).collect()
}

/// Figure 8: second-level redirect table — (a) size, (b) access latency.
fn fig8(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let (sizes, lats) = cells.split_at(SENSITIVITY_APPS.len() * L2_SIZES.len());
    let t = &mut r.text;
    writeln!(t, "Figure 8(a): second-level table size (SUV-TM, 10-cycle latency)")?;
    writeln!(t, "(sizes below the live-entry count force memory searches)")?;
    for group in sizes.chunks(L2_SIZES.len()) {
        write!(t, "{:<10}", group[0].spec.app)?;
        for c in group {
            write!(t, "  {:>6}:{:>9}", c.spec.cfg.suv.l2_entries, cycles(c))?;
        }
        writeln!(t)?;
    }
    writeln!(t, "\nFigure 8(b): second-level table latency (SUV-TM, 16384 entries)")?;
    for group in lats.chunks(L2_LATENCIES.len()) {
        write!(t, "{:<10}", group[0].spec.app)?;
        for c in group {
            write!(t, "  {:>2}cyc:{:>9}", c.spec.cfg.suv.l2_latency, cycles(c))?;
        }
        let at = |lat| group.iter().find(|c| c.spec.cfg.suv.l2_latency == lat).expect("in sweep");
        let gain = 100.0 * (1.0 - cycles(at(0)) as f64 / cycles(at(10)) as f64);
        writeln!(t, "   zero-latency gain vs 10cyc: {gain:.1}%")?;
    }
    Ok(())
}

/// Figure 9: DynTM (D) vs DynTM with SUV version management (D+S).
fn fig9(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Figure 9: DynTM (D) vs DynTM+SUV (D+S), normalized to D = 100")?;
    writeln!(t, "{:<10} {:>4} {:>9}  {BREAKDOWN_HEADER}", "app", "", "cycles")?;
    let (mut all, mut hc) = (vec![], vec![]);
    for group in cells.chunks(2) {
        let [d, ds] = group else { unreachable!("two schemes per app") };
        let app = d.spec.app.as_str();
        for c in group {
            let (label, row) = (c.spec.scheme.label(), breakdown_row(c, d));
            writeln!(t, "{app:<10} {label:>4} {:>9}  {row}", cycles(c))?;
        }
        let sp = speedup(ds, d);
        let [(dl, da), (sl, sa)] =
            [d, ds].map(|c| (c.result.stats.lazy_txns, c.result.stats.tx.aborts));
        writeln!(
            t,
            "{:<10} D+S speedup {sp:.2}x  (lazy txns D/D+S: {dl}/{sl}, aborts {da}/{sa})",
            ""
        )?;
        all.push(sp);
        if HIGH_CONTENTION.contains(&app) {
            hc.push(sp);
        }
    }
    let (all, hc) = (geomean(&all), geomean(&hc));
    writeln!(t, "\nGeomean D+S speedup over D (paper: 9.8% all, 18.6% high-contention):")?;
    writeln!(t, "  all apps        : {:.1}%", (all - 1.0) * 100.0)?;
    writeln!(t, "  high-contention : {:.1}%", (hc - 1.0) * 100.0)?;
    r.extra.push((
        "geomean_dyntm_suv_speedup",
        Json::obj([("all", Json::F64(all)), ("high_contention", Json::F64(hc))]),
    ));
    Ok(())
}

/// Table I analogue: abort ratios measured under each Figure 6 scheme
/// (the paper's Table I surveys published studies).
fn table1(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Table I (measured analogue): abort ratios by scheme")?;
    writeln!(t, "{:<10} {:>9} {:>9} {:>9}", "app", "LogTM-SE", "FasTM", "SUV-TM")?;
    let ratio = |c: &BenchCell| 100.0 * c.result.stats.tx.abort_ratio();
    for group in cells.chunks(3) {
        let [l, f, s] = [0, 1, 2].map(|i| ratio(&group[i]));
        writeln!(t, "{:<10} {l:>8.1}% {f:>8.1}% {s:>8.1}%", group[0].spec.app)?;
    }
    let worst = cells.iter().fold(&cells[0], |w, c| if ratio(c) > ratio(w) { c } else { w });
    writeln!(t, "\nHighest observed abort ratio: {:.1}% ({})", ratio(worst), worst.spec.app)?;
    writeln!(t, "(Table I of the paper reports published ratios up to 79.4%.)")
}

/// Table III: configuration of the simulated CMP system.
fn table3(_: &[BenchCell], r: &mut Report) -> fmt::Result {
    let (c, t) = (MachineConfig::default(), &mut r.text);
    let (l1, l2, side) = (c.l1, c.l2, c.mesh_side());
    let (kb, mb) = (l1.capacity_bytes / 1024, l2.capacity_bytes / 1024 / 1024);
    writeln!(t, "Table III: Configuration of the simulated CMP system")?;
    writeln!(t, "{:<22} {} in-order, single issue (1.2 GHz)", "Processor cores", c.n_cores)?;
    writeln!(
        t,
        "{:<22} {kb} KB {}-way, {}-byte line, write-back, {}-cycle latency",
        "L1 cache", l1.ways, LINE_BYTES, L1_LATENCY
    )?;
    writeln!(
        t,
        "{:<22} {mb} MB {}-way, write-back, {}-cycle latency",
        "L2 cache", l2.ways, L2_LATENCY
    )?;
    writeln!(t, "{:<22} {} banks, {}-cycle latency", "Main memory", MEM_BANKS, MEM_LATENCY)?;
    writeln!(t, "{:<22} bit vector of sharers, {}-cycle latency", "L2 directory", DIR_LATENCY)?;
    writeln!(
        t,
        "{:<22} {side}x{side} mesh, {}-cycle wire latency, {}-cycle route latency",
        "Interconnect", NOC_WIRE_LATENCY, NOC_ROUTE_LATENCY
    )?;
    writeln!(t, "{:<22} {} Kbit Bloom filters", "Signature", c.htm.signature_bits / 1024)?;
    writeln!(
        t,
        "{:<22} {}-entry zero-latency fully associative table",
        "1st-level table", c.suv.l1_entries
    )?;
    writeln!(
        t,
        "{:<22} {}-cycle latency {}-entry {}-way shared table",
        "2nd-level table", c.suv.l2_latency, c.suv.l2_entries, c.suv.l2_ways
    )
}

/// Table IV: mean committed-transaction length and contention class,
/// measured under the LogTM-SE baseline.
fn table4(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Table IV: workload characteristics (measured under LogTM-SE)")?;
    writeln!(t, "app           commits  mean tx len contention  abort ratio")?;
    for c in cells {
        let (app, tx) = (c.spec.app.as_str(), &c.result.stats.tx);
        let class = if HIGH_CONTENTION.contains(&app) { "High" } else { "Low" };
        let (commits, len, ratio) = (tx.commits, tx.mean_tx_len(), 100.0 * tx.abort_ratio());
        writeln!(t, "{app:<10} {commits:>10} {len:>12.0} {class:>10} {ratio:>11.1}%")?;
    }
    Ok(())
}

const COARSE_APPS: [&str; 3] = ["bayes", "labyrinth", "yada"];

/// Table V: overflow statistics for the coarse-grained applications.
fn table5(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Table V: overflow statistics (coarse-grained applications)")?;
    writeln!(
        t,
        "app         scheme     txns   L1-data-ovf txns spec evictions RT-L1-ovf txns  RT-mem txns"
    )?;
    for c in cells {
        let (app, label, tx, o) =
            (&c.spec.app, c.spec.scheme.label(), &c.result.stats.tx, c.result.stats.overflow);
        let (txns, data, evictions) =
            (tx.commits + tx.aborts, o.l1_data_overflow_txns, o.speculative_evictions);
        let (rt_l1, rt_mem) = (o.rt_l1_overflow_txns, o.rt_full_overflow_txns);
        writeln!(
            t,
            "{app:<10} {label:>7} {txns:>8} {data:>18} {evictions:>14} {rt_l1:>14} {rt_mem:>12}"
        )?;
    }
    writeln!(t, "\nNotes: for LogTM-SE/FasTM an L1-data overflow forces sticky/summary handling")?;
    writeln!(t, "(FasTM additionally degenerates to LogTM-SE); under SUV evicted speculative")?;
    writeln!(t, "lines are backed by the redirect pool, so only redirect-table overflows hurt.")
}

/// Table VI: parameters of some contemporary processors.
fn table6(_: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(t, "Table VI: parameters of some contemporary processors")?;
    writeln!(t, "Processor        Tech (nm) Clock (GHz) Cores/Threads  TDP (W)  Area (mm2)")?;
    for p in PROCESSORS {
        let (name, nm, ghz, smt) =
            (p.name, p.tech_nm, p.clock_ghz, format!("{}/{}", p.cores, p.threads));
        writeln!(
            t,
            "{name:<16} {nm:>9} {ghz:>11.1} {smt:>13} {:>8.0} {:>11.0}",
            p.tdp_w, p.area_mm2
        )?;
    }
    Ok(())
}

/// Table VII: CACTI-style estimates of the 512-entry fully-associative
/// first-level redirect table, plus the paper's §V.C cost arithmetic.
fn table7(_: &[BenchCell], r: &mut Report) -> fmt::Result {
    let (cfg, t) = (ArrayConfig::paper_l1_table(), &mut r.text);
    writeln!(t, "Table VII: overheads of the first-level fully-associative table")?;
    writeln!(t, "Tech (nm)   Access (ns)  Read (nJ) Write (nJ)  Area (mm2)")?;
    for node in NODES {
        let (nm, e) = (node.nm, estimate_fa(&cfg, &node));
        let (ns, read, write, area) = (e.access_ns, e.read_nj, e.write_nj, e.area_mm2);
        writeln!(t, "{nm:>9} {ns:>13.3} {read:>10.3} {write:>10.3} {area:>11.3}")?;
    }
    writeln!(t, "\nSection V.C arithmetic:")?;
    let kb = storage_per_core_kb(2048, 2048, 512, 22);
    writeln!(t, "  per-core storage: {kb:.3} KB ({:.2}% of a 32 KB L1)", kb / 32.0 * 100.0)?;
    let (p, rock) = (worst_case_power_w(16, 1.2, 45), PROCESSORS[2]);
    writeln!(
        t,
        "  worst-case dynamic power (16 cores @1.2GHz, 45nm): {p:.2} W ({:.1}% of Rock's {} W TDP)",
        p / rock.tdp_w * 100.0,
        rock.tdp_w
    )?;
    let a = tables_area_mm2(16, 45);
    writeln!(
        t,
        "  chip-wide table area: {a:.2} mm2 ({:.2}% of Rock's {} mm2)",
        a / rock.area_mm2 * 100.0,
        rock.area_mm2
    )?;
    writeln!(t, "  access at 45nm/1.2GHz: {} cycle(s)", estimate_fa(&cfg, &NODES[2]).cycles_at(1.2))
}

const ABLATION_APPS: [&str; 3] = ["bayes", "genome", "yada"];
/// (signature bits, perfect signatures) per column of ablation 1.
const SIGNATURES: [(usize, bool); 4] = [(64, false), (256, false), (2048, false), (2048, true)];

/// Every app's signature sweep under SUV-TM, then every app with NoC
/// link contention off and on under LogTM-SE.
fn ablation_cells() -> Vec<CellSpec> {
    let signed = |app, (bits, perfect)| {
        cell(app, SchemeKind::SuvTm, |c| {
            c.htm.signature_bits = bits;
            c.htm.perfect_signatures = perfect;
        })
    };
    let noc = |app, on| cell(app, SchemeKind::LogTmSe, |c| c.noc_contention = on);
    let sigs = ABLATION_APPS.iter().flat_map(|&app| SIGNATURES.map(|s| signed(app, s)));
    let nocs = ABLATION_APPS.iter().flat_map(|&app| [false, true].map(|on| noc(app, on)));
    sigs.chain(nocs).collect()
}

/// Ablations: (1) false conflicts (paper §IV.A: "false conflicts account
/// for a large portion of the total conflicts") — Bloom signatures at
/// several sizes vs physically-impossible perfect ones; (2) NoC
/// link-contention modeling on vs off.
fn ablation(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let (sigs, nocs) = cells.split_at(ABLATION_APPS.len() * SIGNATURES.len());
    let t = &mut r.text;
    writeln!(t, "Ablation 1: signature precision (SUV-TM, Paper scale)")?;
    writeln!(t, "app              64-bit      256-bit       2K-bit      perfect")?;
    for group in sigs.chunks(SIGNATURES.len()) {
        write!(t, "{:<10}", group[0].spec.app)?;
        for c in group {
            write!(t, " {:>12}", cycles(c))?;
        }
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| group[i].result.stats.tx.nacks_received);
        writeln!(
            t,
            "\n{:<10} NACKs: 64b {a} / 256b {b} / 2Kb {c} / perfect {d}  (excess over perfect = false conflicts)",
            ""
        )?;
    }
    writeln!(t, "\nAblation 2: NoC link-contention modeling (LogTM-SE, Paper scale)")?;
    writeln!(t, "{:<10} {:>14} {:>14} {:>8}", "app", "no contention", "contention", "delta")?;
    for group in nocs.chunks(2) {
        let [off, on] = group else { unreachable!("off and on per app") };
        let (app, delta) = (&off.spec.app, 100.0 * (speedup(off, on) - 1.0));
        let (off, on) = (cycles(off), cycles(on));
        writeln!(t, "{app:<10} {off:>14} {on:>14} {delta:>7.1}%")?;
    }
    Ok(())
}

/// OLTP hot-key storm: open-loop request-latency percentiles (measured
/// from each request's intended arrival cycle, so queueing delay during
/// storms is charged to the scheme that caused it) plus commit
/// throughput, for all six schemes; the comparison of interest is the
/// p999 tail (EXPERIMENTS.md discusses who wins and why).
fn oltp_storm(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    use SchemeKind::{DynTm, DynTmSuv, FasTm, Lazy, LogTmSe, SuvTm};
    let (t, cores) = (&mut r.text, cells[0].spec.cfg.n_cores);
    writeln!(
        t,
        "OLTP hot-key storm: open-loop tail latency by scheme ({cores} cores, paper scale)"
    )?;
    writeln!(
        t,
        "scheme         cycles  commits  aborts      p50      p99     p999      max  txns/kcyc"
    )?;
    for c in cells {
        let (scheme, cyc, tx, s) =
            (c.spec.scheme.name(), cycles(c), &c.result.stats.tx, latency_summary(c));
        let (commits, aborts, p50, p99, p999, max) =
            (tx.commits, tx.aborts, s.p50, s.p99, s.p999, s.max);
        writeln!(
            t,
            "{scheme:<10} {cyc:>10} {commits:>8} {aborts:>7} {p50:>8} {p99:>8} {p999:>8} {max:>8} {:>10.2}",
            txns_per_kcycle(&c.result)
        )?;
    }
    let p999 = |want: SchemeKind| {
        p999_tail(cells.iter().find(|c| c.spec.scheme == want).expect("all six schemes ran"))
    };
    let vs_suv = |s| p999(s) / p999(SuvTm);
    let [l, f, z, d, ds] = [LogTmSe, FasTm, Lazy, DynTm, DynTmSuv].map(vs_suv);
    writeln!(
        t,
        "\np999 tail relative to SUV-TM: logtm-se {l:.2}x, fastm {f:.2}x, lazy {z:.2}x, dyntm {d:.2}x"
    )?;
    let keys = ["logtm_se", "fastm", "lazy", "dyntm", "dyntm_suv"];
    r.extra.push(("p999_vs_suv", Json::obj(keys.into_iter().zip([l, f, z, d, ds].map(Json::F64)))));
    Ok(())
}

/// The storm of `fallback_cost`: spurious pool exhaustion on 25% of
/// hardware transactional stores.
const OVERFLOW_STORM: &str = "seed=7,overflow=25";

/// `oltp-storm` on the schemes the CI smoke matrix covers, each under
/// the STM tier and under irrevocable-only.
fn fallback_cells() -> Vec<CellSpec> {
    let faults = parse_fault_spec(OVERFLOW_STORM).expect("valid fault spec");
    let under = |scheme, fallback| {
        cell("oltp-storm", scheme, |c| {
            c.robust.faults = Some(faults);
            c.robust.fallback = fallback;
        })
    };
    [SchemeKind::SuvTm, SchemeKind::DynTm]
        .iter()
        .flat_map(|&s| [FallbackMode::Stm, FallbackMode::IrrevocableOnly].map(|f| under(s, f)))
        .collect()
}

/// Cost of concurrency in hybrid TM (Brown & Ravi): under an injected
/// capacity-overflow storm the escalation ladder fires constantly.
/// `irrevocable-only` serializes every escalated transaction behind the
/// one chip-wide token, so the open-loop tail balloons with the queueing
/// delay; `stm` re-executes them as software transactions that commit
/// concurrently, paying per-access software overhead and commit-time
/// validation to keep the chip running.
fn fallback_cost(cells: &[BenchCell], r: &mut Report) -> fmt::Result {
    let t = &mut r.text;
    writeln!(
        t,
        "Cost of concurrency: STM fallback vs irrevocable-only under an \
         overflow storm ({OVERFLOW_STORM}, oltp-storm, paper scale)"
    )?;
    writeln!(
        t,
        "scheme     fallback              cycles  commits       sw    irrev      p99     p999  txns/kcyc"
    )?;
    r.rows.clear();
    for c in cells {
        let (scheme, fallback) = (c.spec.scheme.name(), c.spec.cfg.robust.fallback.name());
        let (cyc, tx, s, thr) =
            (cycles(c), &c.result.stats.tx, latency_summary(c), txns_per_kcycle(&c.result));
        let (commits, sw, irrev, p99, p999) =
            (tx.commits, tx.sw_commits, tx.irrevocable_commits, s.p99, s.p999);
        writeln!(
            t,
            "{scheme:<10} {fallback:<17} {cyc:>10} {commits:>8} {sw:>8} {irrev:>8} {p99:>8} {p999:>8} {thr:>10.2}"
        )?;
        r.rows.push(Json::obj([
            ("scheme", Json::from(scheme)),
            ("fallback", Json::from(fallback)),
            ("p999", Json::U64(p999)),
            ("throughput_per_kcycle", Json::F64(thr)),
            ("run", run_json(&c.result)),
        ]));
    }
    writeln!(t)?;
    for (group, key) in cells.chunks(2).zip(["suv_stm_vs_irrevocable", "dyntm_stm_vs_irrevocable"])
    {
        let [stm, irr] = group else { unreachable!("both tiers per scheme") };
        let scheme = stm.spec.scheme.name();
        let thr_gain =
            txns_per_kcycle(&stm.result) / txns_per_kcycle(&irr.result).max(f64::MIN_POSITIVE);
        let tail_ratio = p999_tail(stm) / p999_tail(irr);
        writeln!(
            t,
            "{scheme}: stm vs irrevocable-only — {thr_gain:.2}x throughput, {tail_ratio:.2}x p999 tail"
        )?;
        let gains =
            [("throughput_gain", Json::F64(thr_gain)), ("p999_ratio", Json::F64(tail_ratio))];
        r.extra.push((key, Json::obj(gains)));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_mode_has_a_preset() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.name != e.name), "duplicate {}", e.name);
        }
        for mode in ["sweep", "scaling", "profile"] {
            let (e, out, _) = preset(mode);
            assert!(matches!(e.cells, Cells::Matrix { .. }), "{}: presets are matrices", e.name);
            assert!(out.starts_with("results/"));
            assert!(find(e.name).is_none(), "presets are not `exp` reports");
        }
    }

    #[test]
    fn profile_axes_are_valid_cells() {
        let (profile, _, _) = preset("profile");
        assert_eq!(profile.scale, SuiteScale::Paper);
        let Cells::Matrix { apps, schemes, cores } = profile.cells else {
            panic!("the profile preset is a matrix");
        };
        assert!(!apps.is_empty() && !schemes.is_empty() && !cores.is_empty());
        for a in apps {
            assert!(by_name(a, SuiteScale::Tiny).is_some(), "unknown profile app {a}");
        }
        assert!(cores.iter().all(|c| *c >= 2), "profile cells must be multi-core");
    }

    #[test]
    fn every_cell_names_a_known_workload() {
        for e in &EXPERIMENTS {
            for c in e.cells() {
                assert!(by_name(&c.app, SuiteScale::Tiny).is_some(), "{}: {}", e.name, c.app);
            }
        }
    }
}
