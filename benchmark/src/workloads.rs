//! The workload table: five named lists of simulation cells.
//!
//! A *cell* is one `(app, scheme, cores, config)` simulation through
//! `suv::sim::run_workload_profiled`. Names are final — later issues cite
//! them — and each exists because it loads layers the others leave idle
//! (see README.md for the layer-by-workload table).

use suv::oltp::traffic::{parse_traffic_spec, TrafficConfig};
use suv::oltp::Oltp;
use suv::prelude::*;
use suv::sim::parse_fault_spec;

/// Every workload name, in reporting order.
pub const NAMES: [&str; 5] =
    ["stamp_eager", "stamp_lazy", "stamp_traced", "oltp_wide", "overflow_stm"];

/// All six schemes in `suvtm bench` order, with the slug used in metric
/// names (`htm.tx_ns.<slug>`, `vm.<slug>.wall_s`) — the CLI spellings.
pub const SCHEMES: [(SchemeKind, &str); 6] = [
    (SchemeKind::LogTmSe, "logtm"),
    (SchemeKind::FasTm, "fastm"),
    (SchemeKind::Lazy, "lazy"),
    (SchemeKind::DynTm, "dyntm"),
    (SchemeKind::SuvTm, "suv"),
    (SchemeKind::DynTmSuv, "dyntm-suv"),
];

/// Full size is what the metrics are defined on; smoke is the same table
/// at tiny inputs, for `--smoke` and the crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub app: &'static str,
    pub scheme: SchemeKind,
    pub cores: usize,
    /// Tells apart cells that share `(app, scheme, cores)`: the traffic
    /// mix on `oltp_wide`, the fallback tier on `overflow_stm`. Empty for
    /// STAMP cells.
    pub variant: &'static str,
    scale: SuiteScale,
    traffic: Option<TrafficConfig>,
    faults: Option<FaultSpec>,
    fallback: FallbackMode,
    /// Is the product tracer on in the timed passes (as `suvtm bench`
    /// runs its cells)?
    pub traced: bool,
}

impl Cell {
    fn stamp(app: &'static str, scheme: SchemeKind, cores: usize, size: Size) -> Cell {
        Cell {
            app,
            scheme,
            cores,
            variant: "",
            scale: if size == Size::Full { SuiteScale::Paper } else { SuiteScale::Tiny },
            traffic: None,
            faults: None,
            fallback: FallbackMode::default(),
            traced: false,
        }
    }

    /// `app/scheme/cores[/variant]`, the key cells are reported under.
    pub fn key(&self) -> String {
        let mut k = format!("{}/{}/{}c", self.app, self.scheme.name(), self.cores);
        if !self.variant.is_empty() {
            k.push('/');
            k.push_str(self.variant);
        }
        k
    }

    /// Workload construction: the first of the three set-up phases.
    pub fn build(&self) -> Box<dyn Workload> {
        match self.traffic {
            Some(traffic) => Box::new(Oltp::with_traffic(self.scale, traffic)),
            None => by_name(self.app, self.scale).expect("the table names registered workloads"),
        }
    }

    /// The machine this cell simulates; mirrors how `suvtm run` folds
    /// `--faults` and `--fallback` into the config.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig { n_cores: self.cores, ..Default::default() };
        cfg.robust.fallback = self.fallback;
        if let Some(spec) = self.faults {
            cfg.robust.faults = Some(spec);
            // The clamps a spec can carry (`pool=`/`log=`/`wb=`) are not
            // used by any cell: overflow here is injected, not real.
            assert_eq!(
                (spec.pool_pages, spec.log_bytes, spec.write_buffer_lines),
                (0, 0, 0),
                "benchmark cells carry no capacity clamps"
            );
        }
        cfg
    }
}

/// How `sim_speedup_x` is read off a workload's cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupClaim {
    /// `baseline ÷ variant`, as printed.
    pub label: &'static str,
    /// The paper's figure for the same ratio, where it has one.
    pub paper: Option<(f64, &'static str)>,
}

#[derive(Debug, Clone)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub cells: Vec<Cell>,
    /// `(baseline, variant)` cell indices: `sim_speedup_x` is the geomean
    /// of baseline cycles ÷ variant cycles over these pairs.
    pub speedup_pairs: Vec<(usize, usize)>,
    pub claim: SpeedupClaim,
    /// Does `--seed` reach the simulated inputs? (STAMP runs the paper's
    /// fixed data sets; there the seed only moves the probes' streams.)
    pub seeded: bool,
}

/// For every cell `is_variant` accepts, pair it with the cell that
/// `is_baseline_of(baseline, variant)` names.
fn pairs(
    cells: &[Cell],
    is_variant: impl Fn(&Cell) -> bool,
    is_baseline_of: impl Fn(&Cell, &Cell) -> bool,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (vi, v) in cells.iter().enumerate().filter(|(_, c)| is_variant(c)) {
        let bi = cells
            .iter()
            .position(|b| is_baseline_of(b, v))
            .unwrap_or_else(|| panic!("{} has no baseline cell", v.key()));
        out.push((bi, vi));
    }
    out
}

/// Pairs `(base scheme, suv scheme)` cells of the same app/cores/variant.
fn scheme_pairs(cells: &[Cell], base: SchemeKind, suv: SchemeKind) -> Vec<(usize, usize)> {
    pairs(
        cells,
        |c| c.scheme == suv,
        |b, v| b.scheme == base && (b.app, b.cores, b.variant) == (v.app, v.cores, v.variant),
    )
}

fn stamp_cells(schemes: &[SchemeKind], cores: usize, size: Size) -> Vec<Cell> {
    let mut cells = Vec::new();
    for app in suv::stamp::WORKLOAD_NAMES {
        for &scheme in schemes {
            cells.push(Cell::stamp(app, scheme, cores, size));
        }
    }
    cells
}

fn oltp_cell(
    scheme: SchemeKind,
    cores: usize,
    variant: &'static str,
    traffic: &str,
    size: Size,
) -> Cell {
    let mut cfg = parse_traffic_spec(traffic).expect("the table's traffic specs are well-formed");
    if size == Size::Smoke {
        cfg.reqs_per_core = (cfg.reqs_per_core / 16).max(4);
    }
    Cell {
        app: "oltp",
        scheme,
        cores,
        variant,
        // Only fills knobs the spec leaves open (`overflow_stm`'s rate and
        // key count): paper scale at both sizes, so smoke differs from
        // full in request count alone.
        scale: SuiteScale::Paper,
        traffic: Some(cfg),
        faults: None,
        fallback: FallbackMode::default(),
        traced: false,
    }
}

/// The workload called `name`, with `seed` fed to its OLTP traffic.
pub fn workload(name: &str, seed: u64, size: Size) -> Option<WorkloadDef> {
    use SchemeKind::{DynTm, DynTmSuv, FasTm, Lazy, LogTmSe, SuvTm};
    let def = match name {
        "stamp_eager" => {
            let cells = stamp_cells(&[LogTmSe, FasTm, SuvTm], 16, size);
            WorkloadDef {
                name: "stamp_eager",
                why: "fig6 regeneration: 8 STAMP apps x 3 eager schemes at 16 cores, tracer \
                      off; host time sits in the per-access machine path",
                speedup_pairs: scheme_pairs(&cells, LogTmSe, SuvTm),
                cells,
                claim: SpeedupClaim { label: "LogTM-SE / SUV-TM", paper: Some((1.56, "Fig. 6")) },
                seeded: false,
            }
        }
        "stamp_lazy" => {
            let cells = stamp_cells(&[Lazy, DynTm, DynTmSuv], 16, size);
            WorkloadDef {
                name: "stamp_lazy",
                why: "fig9 superset: 8 apps x Lazy/DynTM/DynTM+SUV at 16 cores, tracer off; \
                      write-buffer commits and 3x the handoffs, so event-loop dispatch dominates",
                speedup_pairs: scheme_pairs(&cells, DynTm, DynTmSuv),
                cells,
                claim: SpeedupClaim { label: "DynTM / DynTM+SUV", paper: Some((1.098, "Fig. 9")) },
                seeded: false,
            }
        }
        "stamp_traced" => {
            let all: Vec<SchemeKind> = SCHEMES.iter().map(|(s, _)| *s).collect();
            let mut cells = stamp_cells(&all, 8, size);
            for c in &mut cells {
                c.traced = true;
            }
            WorkloadDef {
                name: "stamp_traced",
                why: "8 apps x 6 schemes at 8 cores with the product tracer on, as suvtm bench \
                      runs cells; Tracer::emit is a quarter of host time here, one dead branch elsewhere",
                speedup_pairs: scheme_pairs(&cells, LogTmSe, SuvTm),
                cells,
                claim: SpeedupClaim { label: "LogTM-SE / SUV-TM", paper: Some((1.56, "Fig. 6")) },
                seeded: false,
            }
        }
        "oltp_wide" => {
            // Load is set below the eager schemes' NACK-storm cliff (see
            // README.md, "Why oltp_wide runs below the cliff"): past it one
            // seed in a few runs 40x the cycles of its neighbours and no
            // timing on this workload would repeat.
            let mixes = [
                ("rw90", format!("zipf=0.5,keys=16384,rw=90:10,reqs=256,rate=1000,seed={seed}")),
                ("rw50", format!("zipf=0.5,keys=16384,rw=50:50,reqs=128,rate=2000,seed={seed}")),
            ];
            let mut cells = Vec::new();
            for (variant, spec) in &mixes {
                for (scheme, _) in SCHEMES {
                    cells.push(oltp_cell(scheme, 128, variant, spec, size));
                }
            }
            WorkloadDef {
                name: "oltp_wide",
                why:
                    "open-loop OLTP at 128 cores x 6 schemes, read-heavy and write-heavy mixes; \
                      the only load on 2-word sharer sets, the 128-node mesh and banked redirect L2",
                speedup_pairs: scheme_pairs(&cells, LogTmSe, SuvTm),
                cells,
                claim: SpeedupClaim { label: "LogTM-SE / SUV-TM", paper: None },
                seeded: true,
            }
        }
        "overflow_stm" => {
            let spec = format!("zipf=0.99,rw=50:50,storm=32:16:2,reqs=1024,seed={seed}");
            let faults = parse_fault_spec("seed=7,overflow=25").expect("well-formed fault spec");
            let mut cells = Vec::new();
            // Lazy(TCC) is left out: it loses updates under the software
            // tier (the `canary.lazy_stm_overflow` reproducer).
            for scheme in [LogTmSe, FasTm, DynTm, SuvTm, DynTmSuv] {
                for fallback in [FallbackMode::Stm, FallbackMode::IrrevocableOnly] {
                    let mut c = oltp_cell(scheme, 16, fallback.name(), &spec, size);
                    c.faults = Some(faults);
                    c.fallback = fallback;
                    cells.push(c);
                }
            }
            WorkloadDef {
                name: "overflow_stm",
                why: "hot-key storm at 16 cores with 25% injected overflow, stm vs irrevocable \
                      fallback; the only load on SwVm, the sw_* paths and the escalation ladder",
                speedup_pairs: pairs(
                    &cells,
                    |c| c.variant == "stm" && matches!(c.scheme, SuvTm | DynTmSuv),
                    |b, v| b.scheme == v.scheme && b.variant == "irrevocable-only",
                ),
                cells,
                claim: SpeedupClaim { label: "irrevocable-only / stm", paper: None },
                seeded: true,
            }
        }
        _ => return None,
    };
    Some(def)
}

/// The product-bug canary: Lazy(TCC) under the software tier loses an
/// update. `suvtm run --app oltp --scheme lazy --cores 16 --traffic
/// zipf=0.99,rw=50:50,storm=32:16:2,reqs=512,seed=1 --faults
/// seed=7,overflow=25 --fallback stm` (tiny scale, the CLI default).
pub fn canary_cell() -> Cell {
    let traffic = parse_traffic_spec("zipf=0.99,rw=50:50,storm=32:16:2,reqs=512,seed=1")
        .expect("well-formed traffic spec");
    Cell {
        app: "oltp",
        scheme: SchemeKind::Lazy,
        cores: 16,
        variant: "stm",
        scale: SuiteScale::Tiny,
        traffic: Some(traffic),
        faults: Some(parse_fault_spec("seed=7,overflow=25").expect("well-formed fault spec")),
        fallback: FallbackMode::Stm,
        traced: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn five_workloads_with_legal_names_and_the_stated_cell_counts() {
        assert_eq!(NAMES.len(), 5);
        let counts: Vec<usize> = NAMES
            .iter()
            .map(|n| {
                assert!(legal_name(n), "illegal workload name {n}");
                let w = workload(n, 1, Size::Full).expect("every listed name resolves");
                assert_eq!(w.name, *n);
                assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{n}: why must be one line");
                w.cells.len()
            })
            .collect();
        assert_eq!(counts, [24, 24, 48, 12, 10]);
        assert!(workload("nope", 1, Size::Full).is_none());
    }

    #[test]
    fn cell_keys_are_unique_and_smoke_keeps_the_shape() {
        for n in NAMES {
            let full = workload(n, 1, Size::Full).unwrap();
            let smoke = workload(n, 1, Size::Smoke).unwrap();
            let keys: Vec<String> = full.cells.iter().map(Cell::key).collect();
            let mut dedup = keys.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len(), "{n}: duplicate cell key");
            assert_eq!(keys, smoke.cells.iter().map(Cell::key).collect::<Vec<_>>());
            assert_eq!(full.speedup_pairs, smoke.speedup_pairs);
        }
    }

    #[test]
    fn speedup_pairs_follow_each_workloads_claim() {
        let pair_count = |n: &str| workload(n, 1, Size::Full).unwrap().speedup_pairs.len();
        // One (app, cores, mix) group each: 8 apps; 8 apps; 8 apps; 2 mixes;
        // SUV-TM and DynTM+SUV.
        assert_eq!(NAMES.map(pair_count), [8, 8, 8, 2, 2]);
        let w = workload("overflow_stm", 1, Size::Full).unwrap();
        for (b, v) in &w.speedup_pairs {
            assert_eq!(w.cells[*b].scheme, w.cells[*v].scheme);
            assert_eq!((w.cells[*b].variant, w.cells[*v].variant), ("irrevocable-only", "stm"));
        }
        assert!(w.cells.iter().all(|c| c.scheme != SchemeKind::Lazy), "Lazy is the canary's");
    }

    #[test]
    fn only_the_oltp_workloads_take_the_seed() {
        for n in NAMES {
            let (a, b) = (workload(n, 1, Size::Full).unwrap(), workload(n, 2, Size::Full).unwrap());
            let differs = a.cells.iter().zip(&b.cells).any(|(x, y)| x.traffic != y.traffic);
            assert_eq!(differs, a.seeded, "{n}");
        }
    }

    #[test]
    fn scheme_slugs_are_the_cli_spellings() {
        let slugs: Vec<&str> = SCHEMES.iter().map(|(_, slug)| *slug).collect();
        assert_eq!(slugs, ["logtm", "fastm", "lazy", "dyntm", "suv", "dyntm-suv"]);
        let names: Vec<&str> = SCHEMES.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(names, ["LogTM-SE", "FasTM", "Lazy(TCC)", "DynTM", "SUV-TM", "DynTM+SUV"]);
    }
}
