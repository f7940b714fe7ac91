//! The parallel experiment engine behind `suvtm bench`, `suvtm exp` and
//! `suvtm sweep`.
//!
//! A *cell* is one (workload, scheme, machine configuration) point of the
//! paper's evaluation (Figs. 6–9). Every cell is an independent,
//! deterministic simulation that owns its whole `HtmMachine`, so the
//! matrix fans out across host threads through
//! [`suv::sim::run_jobs`] with no cross-cell state. Each cell runs with
//! event tracing enabled (a small ring — the streaming FNV hash is
//! unaffected by ring overflow) so its `trace_hash` doubles as the
//! serial-vs-parallel bit-reproducibility oracle.
//!
//! Nothing here reads a clock: the documents [`sweep_json`] and
//! [`host_json`] render hold simulated results only, byte-identical
//! across runs and across worker counts. Host time is measured by
//! `benchmark/`.

use crate::run_json;
use suv::prelude::*;
use suv::sim::run_jobs;
use suv::trace::Json;

/// One point of an experiment: a workload under a scheme on a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Workload name (see `suvtm list`).
    pub app: String,
    /// HTM scheme simulated.
    pub scheme: SchemeKind,
    /// The simulated machine (`cfg.n_cores` is the matrix's core axis).
    pub cfg: MachineConfig,
}

impl CellSpec {
    /// `app` under `scheme` on the Table III machine with `cores` cores.
    pub fn new(app: &str, scheme: SchemeKind, cores: usize) -> CellSpec {
        let cfg = MachineConfig { n_cores: cores, ..Default::default() };
        CellSpec { app: app.to_string(), scheme, cfg }
    }
}

/// A completed cell: the matrix point and its simulation results.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// The matrix point this cell measured.
    pub spec: CellSpec,
    /// Full run result (stats + trace hash).
    pub result: RunResult,
}

/// Build the full cross-product of the matrix axes, in deterministic
/// row-major (app, scheme, cores) order.
pub fn matrix(apps: &[&str], schemes: &[SchemeKind], core_counts: &[usize]) -> Vec<CellSpec> {
    let mut cells = Vec::with_capacity(apps.len() * schemes.len() * core_counts.len());
    for app in apps {
        for &scheme in schemes {
            for &cores in core_counts {
                cells.push(CellSpec::new(app, scheme, cores));
            }
        }
    }
    cells
}

/// How one matrix point ended: a clean result or a quarantined panic.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The simulation completed. Boxed, as the quarantined spec is: a cell
    /// (stats + per-thread breakdowns) and a matrix point differ widely in
    /// size, and both dwarf the rest of the enum.
    Ok(Box<BenchCell>),
    /// The cell's simulation panicked. The panic is contained here — the
    /// rest of the sweep keeps running, and the failure is recorded as a
    /// `"status":"quarantined"` row instead of killing the whole matrix.
    Quarantined {
        /// The matrix point that failed.
        spec: Box<CellSpec>,
        /// The panic message.
        error: String,
    },
}

impl CellOutcome {
    /// The matrix point this outcome belongs to.
    pub fn spec(&self) -> &CellSpec {
        match self {
            CellOutcome::Ok(c) => &c.spec,
            CellOutcome::Quarantined { spec, .. } => spec,
        }
    }

    /// Simulated cycles this outcome contributes to the sweep total.
    pub fn sim_cycles(&self) -> u64 {
        match self {
            CellOutcome::Ok(c) => c.result.stats.cycles,
            CellOutcome::Quarantined { .. } => 0,
        }
    }

    /// The completed cell by value, or why there is none — for callers
    /// that need every cell of their matrix (`suvtm exp`, `suvtm sweep`).
    pub fn into_ok(self) -> Result<BenchCell, String> {
        match self {
            CellOutcome::Ok(c) => Ok(*c),
            CellOutcome::Quarantined { spec, error, .. } => {
                Err(format!("cell {} died: {error}", cell_key(&spec)))
            }
        }
    }
}

/// The `"cell"` identity key of a matrix point, as written into each
/// sweep row.
pub fn cell_key(spec: &CellSpec) -> String {
    format!("{}/{}/{}", spec.app, spec.scheme.name(), spec.cfg.n_cores)
}

/// Run one cell: build a fresh workload and machine and simulate with
/// tracing on (for the reproducibility hash).
pub fn run_cell(spec: &CellSpec, scale: SuiteScale) -> BenchCell {
    let mut w = by_name(&spec.app, scale)
        .unwrap_or_else(|| panic!("unknown workload {} reached the engine", spec.app));
    // 4K-event ring: the stream hash covers every event regardless of ring
    // occupancy, and a small ring keeps the engine's memory bounded.
    let tc = TraceConfig { ring_capacity: 1 << 12 };
    let result = run_workload_traced(&spec.cfg, spec.scheme, w.as_mut(), Some(tc));
    BenchCell { spec: spec.clone(), result }
}

/// Render a panic payload as a one-line message.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = p.downcast_ref::<suv::mem::AllocError>() {
        return e.to_string();
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = p.downcast_ref::<String>() {
        return s.clone();
    }
    "panic with a non-string payload".to_string()
}

/// [`run_cell`] with the panic quarantine: a cell whose simulation dies
/// (simulated OOM, invariant check, workload bug) becomes
/// [`CellOutcome::Quarantined`] instead of unwinding through the job pool
/// and killing the sweep.
pub fn run_cell_guarded(spec: &CellSpec, scale: SuiteScale) -> CellOutcome {
    let owned = spec.clone();
    match std::panic::catch_unwind(move || run_cell(&owned, scale)) {
        Ok(cell) => CellOutcome::Ok(Box::new(cell)),
        Err(p) => CellOutcome::Quarantined {
            spec: Box::new(spec.clone()),
            error: panic_message(p.as_ref()),
        },
    }
}

/// Run every cell of the matrix, fanned out over `workers` host threads
/// (1 = the serial loop). Results come back in matrix order regardless of
/// worker count; panicking cells are quarantined, not fatal (the
/// quarantine lives *inside* the job closure — a panic that reached the
/// pool's scope join would abort the other workers).
pub fn run_matrix(cells: &[CellSpec], scale: SuiteScale, workers: usize) -> Vec<CellOutcome> {
    run_jobs(cells.len(), workers, |i| run_cell_guarded(&cells[i], scale))
}

/// The exit verdict on a finished `suvtm bench` matrix: `Err` when any
/// cell was quarantined, so a sweep with dead cells cannot pass as clean.
pub fn quarantine_status(cells: &[CellOutcome]) -> Result<(), String> {
    match cells.iter().filter(|o| matches!(o, CellOutcome::Quarantined { .. })).count() {
        0 => Ok(()),
        n => Err(format!("{n} cell(s) quarantined")),
    }
}

/// Renders a finished `suvtm bench` matrix, in matrix order, into its
/// document; `Err` names an outcome the document cannot hold.
pub type RenderDoc = fn(&[CellOutcome], SuiteScale) -> Result<Json, String>;

/// Render the `BENCH_sweep.json` document (schema `suv-bench-sweep/v1`,
/// documented in README.md), byte-identical across runs and worker
/// counts. Quarantined cells become `"status":"quarantined"` rows
/// carrying the panic message.
pub fn sweep_json(cells: &[CellOutcome], scale: SuiteScale) -> Json {
    let rows = cells
        .iter()
        .map(|o| match o {
            CellOutcome::Ok(c) => Json::obj([
                ("cell", Json::Str(cell_key(&c.spec))),
                ("status", Json::from("ok")),
                ("cores", Json::U64(c.spec.cfg.n_cores as u64)),
                ("trace_hash", Json::Str(format!("{:016x}", c.result.trace_hash))),
                ("run", run_json(&c.result)),
            ]),
            CellOutcome::Quarantined { spec, error } => Json::obj([
                ("cell", Json::Str(cell_key(spec))),
                ("status", Json::from("quarantined")),
                ("cores", Json::U64(spec.cfg.n_cores as u64)),
                ("app", Json::Str(spec.app.clone())),
                ("scheme", Json::from(spec.scheme.name())),
                ("error", Json::Str(error.clone())),
            ]),
        })
        .collect();
    let quarantined = cells.iter().filter(|o| matches!(o, CellOutcome::Quarantined { .. })).count();
    let total_cycles = cells.iter().map(CellOutcome::sim_cycles).sum();
    Json::obj([
        ("schema", Json::from("suv-bench-sweep/v1")),
        ("scale", Json::from(scale_name(scale))),
        ("cells", Json::Arr(rows)),
        ("sim_cycles_total", Json::U64(total_cycles)),
        ("quarantined", Json::U64(quarantined as u64)),
    ])
}

/// Render the `BENCH_host.json` document (schema `suv-bench-host/v1`):
/// the schedule pin of the paper matrix. Each cell carries its cycles,
/// trace hash and the scheduler counters of its traced run — taken and
/// elided handoffs, barrier arrivals — so a change that moves the
/// schedule moves this file. Every cell must have completed.
pub fn host_json(cells: &[CellOutcome], scale: SuiteScale) -> Result<Json, String> {
    let row = |o: &CellOutcome| {
        let CellOutcome::Ok(c) = o else {
            return Err(format!("cell {} did not complete", cell_key(o.spec())));
        };
        let counter = |name| c.result.trace.as_ref().map_or(0, |t| t.metrics.counter(name));
        Ok(Json::obj([
            ("app", Json::from(c.spec.app.as_str())),
            ("scheme", Json::from(c.spec.scheme.name())),
            ("cores", Json::U64(c.spec.cfg.n_cores as u64)),
            ("cycles", Json::U64(c.result.stats.cycles)),
            ("trace_hash", Json::Str(format!("{:016x}", c.result.trace_hash))),
            ("handoffs_taken", Json::U64(counter("sched.handoffs_taken"))),
            ("handoffs_elided", Json::U64(counter("sched.handoffs_elided"))),
            ("barrier_arrivals", Json::U64(counter("sched.barrier_arrivals"))),
        ]))
    };
    Ok(Json::obj([
        ("schema", Json::from("suv-bench-host/v1")),
        ("scale", Json::from(scale_name(scale))),
        ("cells", Json::Arr(cells.iter().map(row).collect::<Result<_, _>>()?)),
    ]))
}

/// The `--scale` flag spellings.
pub const SCALES: [(&str, SuiteScale); 3] =
    [("tiny", SuiteScale::Tiny), ("paper", SuiteScale::Paper), ("scale", SuiteScale::Scale)];

/// The `--scale` flag spelling of a [`SuiteScale`].
pub fn scale_name(scale: SuiteScale) -> &'static str {
    SCALES.iter().find(|(_, s)| *s == scale).expect("every scale is listed").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_row_major_cross_product() {
        let cells = matrix(&["a", "b"], &[SchemeKind::LogTmSe, SchemeKind::SuvTm], &[4, 8]);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0], CellSpec::new("a", SchemeKind::LogTmSe, 4));
        assert_eq!(cells[1], CellSpec::new("a", SchemeKind::LogTmSe, 8));
        assert_eq!(cells[7], CellSpec::new("b", SchemeKind::SuvTm, 8));
    }

    #[test]
    fn default_axes_cover_the_paper_matrix() {
        let (sweep, _, _) = crate::exp::preset("sweep");
        let crate::exp::Cells::Matrix { apps, schemes, cores } = sweep.cells else {
            panic!("the sweep preset is a matrix");
        };
        assert_eq!(apps.len(), 8);
        assert_eq!(schemes.len(), 6);
        assert_eq!(cores, [16]);
    }

    #[test]
    fn cell_key_is_app_scheme_cores() {
        let spec = CellSpec::new("vacation", SchemeKind::LogTmSe, 16);
        assert_eq!(cell_key(&spec), "vacation/LogTM-SE/16");
    }

    #[test]
    fn panicking_cell_is_quarantined_not_fatal() {
        // An unknown workload makes run_cell panic; the guard must catch it
        // and the sibling cell must still complete.
        let cells = vec![
            CellSpec::new("no-such-app", SchemeKind::SuvTm, 2),
            CellSpec::new("kmeans", SchemeKind::SuvTm, 2),
        ];
        let got = run_matrix(&cells, SuiteScale::Tiny, 2);
        assert_eq!(got.len(), 2);
        match &got[0] {
            CellOutcome::Quarantined { spec, error, .. } => {
                assert_eq!(spec.app, "no-such-app");
                assert!(error.contains("no-such-app"), "error: {error}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(matches!(got[1], CellOutcome::Ok(_)));
        let doc = sweep_json(&got, SuiteScale::Tiny).render();
        assert!(doc.contains(r#""status":"quarantined""#));
        assert!(doc.contains(r#""quarantined":1"#));
        // The sweep still fails: `suvtm bench` exits 1 on it.
        assert_eq!(quarantine_status(&got), Err("1 cell(s) quarantined".to_string()));
        assert_eq!(quarantine_status(&got[1..]), Ok(()));
    }

    #[test]
    fn host_json_is_byte_identical_at_any_worker_count() {
        let (profile, _, _) = crate::exp::preset("profile");
        let cells = profile.cells();
        let render = |workers| {
            host_json(&run_matrix(&cells, SuiteScale::Tiny, workers), SuiteScale::Tiny)
                .expect("every tiny cell completes")
        };
        let doc = render(1);
        assert_eq!(doc.render(), render(suv::sim::default_workers()).render());
        let Json::Obj(top) = &doc else { panic!("the document is an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "scale", "cells"]);
        let Some((_, Json::Arr(rows))) = top.iter().find(|(k, _)| k == "cells") else {
            panic!("no cells array");
        };
        assert_eq!(rows.len(), cells.len());
        for row in rows {
            let Json::Obj(fields) = row else { panic!("a cell is an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "app",
                    "scheme",
                    "cores",
                    "cycles",
                    "trace_hash",
                    "handoffs_taken",
                    "handoffs_elided",
                    "barrier_arrivals"
                ]
            );
        }
    }

    #[test]
    fn host_json_refuses_a_cell_that_did_not_complete() {
        let cells = [CellSpec::new("no-such-app", SchemeKind::SuvTm, 2)];
        let e = host_json(&run_matrix(&cells, SuiteScale::Tiny, 1), SuiteScale::Tiny)
            .expect_err("a quarantined cell has no schedule to pin");
        assert!(e.contains("no-such-app/SUV-TM/2"), "{e}");
    }
}
