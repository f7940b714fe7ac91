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
//! Host wall-time is measured here (the bench crate is the one workspace
//! crate allowed to read the wall clock) and reported per cell and for the
//! whole sweep in `BENCH_sweep.json`, so simulator throughput
//! (cycles/second) is tracked from this PR onward. The JSON splits into a
//! deterministic part (simulated results, byte-identical across runs and
//! across worker counts) and host-timing fields; [`sweep_json`] with
//! `host: None` renders only the former, which is what the determinism
//! tests compare.

use crate::run_json;
use std::time::Instant;
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

/// A completed cell: the deterministic simulation results plus the host
/// wall-time this cell's simulation took.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// The matrix point this cell measured.
    pub spec: CellSpec,
    /// Full run result (stats + trace hash).
    pub result: RunResult,
    /// Host wall-time of the run, in milliseconds (not deterministic).
    pub host_ms: f64,
}

/// Simulated cycles per host second — the throughput figure the perf
/// trajectory tracks; 0 when no host time was measured.
pub fn cycles_per_sec(cycles: u64, host_ms: f64) -> f64 {
    if host_ms <= 0.0 {
        0.0
    } else {
        cycles as f64 / (host_ms / 1000.0)
    }
}

impl BenchCell {
    /// This cell's [`cycles_per_sec`].
    pub fn cycles_per_sec(&self) -> f64 {
        cycles_per_sec(self.result.stats.cycles, self.host_ms)
    }
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

/// How one matrix point ended: a clean result, a quarantined panic, or a
/// row carried forward verbatim from a previous `--out` file.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The simulation completed. Boxed: a full cell (stats + per-thread
    /// breakdowns) dwarfs the other variants.
    Ok(Box<BenchCell>),
    /// The cell's simulation panicked. The panic is contained here — the
    /// rest of the sweep keeps running, and the failure is recorded as a
    /// `"status":"quarantined"` row instead of killing the whole matrix.
    Quarantined {
        /// The matrix point that failed.
        spec: CellSpec,
        /// The panic message.
        error: String,
        /// Host wall-time until the panic, in milliseconds.
        host_ms: f64,
    },
    /// Skipped under `--resume`: the previous results file already holds
    /// an ok row for this cell, spliced into the new document verbatim.
    Resumed {
        /// The matrix point that was skipped.
        spec: CellSpec,
        /// The old row's rendered JSON.
        row: String,
        /// Simulated cycles extracted from the old row (for totals).
        cycles: u64,
    },
}

impl CellOutcome {
    /// The matrix point this outcome belongs to.
    pub fn spec(&self) -> &CellSpec {
        match self {
            CellOutcome::Ok(c) => &c.spec,
            CellOutcome::Quarantined { spec, .. } | CellOutcome::Resumed { spec, .. } => spec,
        }
    }

    /// Simulated cycles this outcome contributes to the sweep total.
    pub fn sim_cycles(&self) -> u64 {
        match self {
            CellOutcome::Ok(c) => c.result.stats.cycles,
            CellOutcome::Quarantined { .. } => 0,
            CellOutcome::Resumed { cycles, .. } => *cycles,
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
            CellOutcome::Resumed { spec, .. } => {
                Err(format!("cell {} was resumed, not run", cell_key(&spec)))
            }
        }
    }
}

/// The `"cell"` identity key of a matrix point, as written into each
/// sweep row (and matched by `--resume`).
pub fn cell_key(spec: &CellSpec) -> String {
    format!("{}/{}/{}", spec.app, spec.scheme.name(), spec.cfg.n_cores)
}

/// Run one cell: build a fresh workload and machine, simulate with tracing
/// on (for the reproducibility hash), and time the run on the host clock.
pub fn run_cell(spec: &CellSpec, scale: SuiteScale) -> BenchCell {
    let mut w = by_name(&spec.app, scale)
        .unwrap_or_else(|| panic!("unknown workload {} reached the engine", spec.app));
    // 4K-event ring: the stream hash covers every event regardless of ring
    // occupancy, and a small ring keeps the engine's memory bounded.
    let tc = TraceConfig { ring_capacity: 1 << 12 };
    let start = Instant::now();
    let result = run_workload_traced(&spec.cfg, spec.scheme, w.as_mut(), Some(tc));
    let host_ms = start.elapsed().as_secs_f64() * 1000.0;
    BenchCell { spec: spec.clone(), result, host_ms }
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
    let start = Instant::now();
    let owned = spec.clone();
    match std::panic::catch_unwind(move || run_cell(&owned, scale)) {
        Ok(cell) => CellOutcome::Ok(Box::new(cell)),
        Err(p) => CellOutcome::Quarantined {
            spec: spec.clone(),
            error: panic_message(p.as_ref()),
            host_ms: start.elapsed().as_secs_f64() * 1000.0,
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

/// Host-side metadata for the sweep report.
#[derive(Debug, Clone, Copy)]
pub struct HostMeta {
    /// Worker threads the pool actually used.
    pub workers: usize,
    /// Wall-time of the whole sweep, in milliseconds.
    pub wall_ms: f64,
}

/// Render the `BENCH_sweep.json` document (schema `suv-bench-sweep/v1`,
/// documented in README.md). With `host: None` every non-deterministic
/// field (worker count, wall times, throughput) is omitted and the output
/// is byte-identical across runs and worker counts — the form the
/// determinism tests compare. Quarantined cells become
/// `"status":"quarantined"` rows carrying the panic message; resumed
/// cells splice their previous row in verbatim.
pub fn sweep_json(cells: &[CellOutcome], scale: SuiteScale, host: Option<HostMeta>) -> Json {
    let rows = cells
        .iter()
        .map(|o| match o {
            CellOutcome::Ok(c) => {
                let mut row = vec![
                    ("cell", Json::Str(cell_key(&c.spec))),
                    ("status", Json::from("ok")),
                    ("cores", Json::U64(c.spec.cfg.n_cores as u64)),
                    ("trace_hash", Json::Str(format!("{:016x}", c.result.trace_hash))),
                    ("run", run_json(&c.result)),
                ];
                if host.is_some() {
                    row.push(("host_ms", Json::F64(c.host_ms)));
                    row.push(("cycles_per_sec", Json::F64(c.cycles_per_sec())));
                }
                Json::obj(row)
            }
            CellOutcome::Quarantined { spec, error, host_ms } => {
                let mut row = vec![
                    ("cell", Json::Str(cell_key(spec))),
                    ("status", Json::from("quarantined")),
                    ("cores", Json::U64(spec.cfg.n_cores as u64)),
                    ("app", Json::Str(spec.app.clone())),
                    ("scheme", Json::from(spec.scheme.name())),
                    ("error", Json::Str(error.clone())),
                ];
                if host.is_some() {
                    row.push(("host_ms", Json::F64(*host_ms)));
                }
                Json::obj(row)
            }
            CellOutcome::Resumed { row, .. } => Json::Raw(row.clone()),
        })
        .collect();
    let quarantined = cells.iter().filter(|o| matches!(o, CellOutcome::Quarantined { .. })).count();
    let total_cycles = cells.iter().map(CellOutcome::sim_cycles).sum();
    let mut doc = vec![
        ("schema", Json::from("suv-bench-sweep/v1")),
        ("scale", Json::from(scale_name(scale))),
        ("cells", Json::Arr(rows)),
        ("sim_cycles_total", Json::U64(total_cycles)),
        ("quarantined", Json::U64(quarantined as u64)),
    ];
    if let Some(h) = host {
        doc.push(("workers", Json::U64(h.workers as u64)));
        doc.push(("host_wall_ms", Json::F64(h.wall_ms)));
        doc.push(("cycles_per_sec", Json::F64(cycles_per_sec(total_cycles, h.wall_ms))));
    }
    Json::obj(doc)
}

/// Find the rendered row for `key` in a previous sweep document, provided
/// its status is `ok` (quarantined rows are re-run on `--resume`).
/// Returns the row's JSON text and its simulated cycle count.
///
/// This is a targeted scan, not a JSON parser: rows are located by their
/// leading `"cell":"<key>","status":"ok"` fields (which [`sweep_json`]
/// always writes first, in that order) and delimited by brace matching
/// with string awareness.
pub fn previous_ok_row(doc: &str, key: &str) -> Option<(String, u64)> {
    let mut needle = String::from("{\"cell\":");
    suv::trace::escape_into(key, &mut needle);
    needle.push_str(",\"status\":\"ok\"");
    let start = doc.find(&needle)?;
    let row = balanced_object(&doc[start..])?;
    // The first "cycles" field inside the row belongs to its "run" object.
    let cycles = row.find("\"cycles\":").map_or(0, |i| {
        row[i + 9..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .unwrap_or(0)
    });
    Some((row.to_string(), cycles))
}

/// The prefix of `s` forming one balanced `{...}` object (string-aware).
fn balanced_object(s: &str) -> Option<&str> {
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth += 1,
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&s[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split the matrix for `--resume`: cells whose ok rows already exist in
/// `previous` (the old `--out` contents) come back as
/// [`CellOutcome::Resumed`] in their matrix slot; the rest are `None` and
/// must be run.
pub fn resume_plan(cells: &[CellSpec], previous: &str) -> Vec<Option<CellOutcome>> {
    cells
        .iter()
        .map(|spec| {
            previous_ok_row(previous, &cell_key(spec)).map(|(row, cycles)| CellOutcome::Resumed {
                spec: spec.clone(),
                row,
                cycles,
            })
        })
        .collect()
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
        let (sweep, _) = crate::exp::preset(crate::exp::BenchMode::Sweep);
        let crate::exp::Cells::Matrix { apps, schemes, cores } = sweep.cells else {
            panic!("the sweep preset is a matrix");
        };
        assert_eq!(apps.len(), 8);
        assert_eq!(schemes.len(), 6);
        assert_eq!(cores, [16]);
    }

    #[test]
    fn cycles_per_sec_guards_zero_time() {
        let spec = CellSpec::new("kmeans", SchemeKind::SuvTm, 4);
        let mut cell = run_cell(&spec, SuiteScale::Tiny);
        assert!(cell.cycles_per_sec() > 0.0);
        cell.host_ms = 0.0;
        assert_eq!(cell.cycles_per_sec(), 0.0);
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
        let doc = sweep_json(&got, SuiteScale::Tiny, None).render();
        assert!(doc.contains(r#""status":"quarantined""#));
        assert!(doc.contains(r#""quarantined":1"#));
    }

    #[test]
    fn resume_round_trips_ok_rows_byte_identically() {
        let cells = vec![
            CellSpec::new("kmeans", SchemeKind::SuvTm, 2),
            CellSpec::new("kmeans", SchemeKind::LogTmSe, 2),
        ];
        let first = run_matrix(&cells, SuiteScale::Tiny, 1);
        let doc = sweep_json(&first, SuiteScale::Tiny, None).render();

        // Every cell has an ok row in the old doc, so a resume plan is full.
        let plan = resume_plan(&cells, &doc);
        assert!(plan.iter().all(Option::is_some));
        let resumed: Vec<CellOutcome> = plan.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            sweep_json(&resumed, SuiteScale::Tiny, None).render(),
            doc,
            "resumed document must be byte-identical to the original"
        );
        let total: u64 = resumed.iter().map(CellOutcome::sim_cycles).sum();
        let orig: u64 = first.iter().map(CellOutcome::sim_cycles).sum();
        assert_eq!(total, orig, "cycles extracted from old rows must match");

        // An unseen cell yields no row and must be re-run.
        let fresh = CellSpec::new("vacation", SchemeKind::SuvTm, 2);
        assert!(previous_ok_row(&doc, &cell_key(&fresh)).is_none());
    }

    #[test]
    fn previous_ok_row_skips_quarantined_rows() {
        let spec = CellSpec::new("no-such-app", SchemeKind::SuvTm, 2);
        let got = run_matrix(std::slice::from_ref(&spec), SuiteScale::Tiny, 1);
        let doc = sweep_json(&got, SuiteScale::Tiny, None).render();
        assert!(
            previous_ok_row(&doc, &cell_key(&spec)).is_none(),
            "a quarantined row must not satisfy --resume"
        );
    }

    #[test]
    fn balanced_object_is_string_aware() {
        assert_eq!(balanced_object(r#"{"a":"}{"}, tail"#), Some(r#"{"a":"}{"}"#));
        assert_eq!(balanced_object(r#"{"a":{"b":1}}"#), Some(r#"{"a":{"b":1}}"#));
        assert_eq!(balanced_object(r#"{"a":"\"}{"}"#), Some(r#"{"a":"\"}{"}"#));
        assert_eq!(balanced_object(r#"{"unterminated":1"#), None);
    }
}
