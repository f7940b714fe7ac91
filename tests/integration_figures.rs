//! The evaluation's figures and tables, at test scale.
//!
//! Every row of the experiment table (`suv_bench::exp`) is pinned
//! byte-for-byte against `tests/golden/exp/`, captured at `Tiny` scale
//! from the per-figure binaries the table replaced, and every experiment
//! name the documentation mentions must resolve in the table. The shape
//! assertions below do not check absolute numbers (`suvtm exp`
//! regenerates those at Paper scale and CI diffs them against
//! `results/`); they pin the *qualitative* claims so a regression that
//! flips a comparison fails CI.

use std::collections::BTreeSet;
use std::path::Path;
use suv::cacti::{estimate_fa, ArrayConfig, TechNode};
use suv::prelude::*;
use suv::sim::default_workers;
use suv_bench::exp::{find, reports, run_experiment};

fn repo_file(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every report row reproduces its golden text and JSON, on one worker
/// and on the host's default worker count.
#[test]
fn every_experiment_matches_its_golden() {
    for workers in [1, default_workers()] {
        for e in reports() {
            let (text, json) = run_experiment(e, SuiteScale::Tiny, workers)
                .unwrap_or_else(|err| panic!("{workers} worker(s): {err}"));
            let golden = |ext: &str| repo_file(&format!("tests/golden/exp/{}.{ext}", e.name));
            assert_eq!(text, golden("txt"), "{}.txt, {workers} worker(s)", e.name);
            if let Some(json) = json {
                assert_eq!(json, golden("json"), "{}.json, {workers} worker(s)", e.name);
            }
        }
    }
}

/// The experiment-name-shaped words (`[a-z0-9_]+`) that sit between an
/// `open` and a `close` marker in `text`.
fn names_between<'a>(text: &'a str, open: &str, close: &str) -> BTreeSet<&'a str> {
    let name = |rest: &'a str| {
        let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        let end = rest.find(|c| !is_name(c)).unwrap_or(rest.len());
        (end > 0 && rest[end..].starts_with(close)).then_some(&rest[..end])
    };
    text.split(open).skip(1).filter_map(name).collect()
}

/// README.md, DESIGN.md's per-experiment index (§4) and the EXPERIMENTS.md
/// headings name exactly the rows of the table: a renamed or removed
/// experiment cannot leave a stale invocation behind, and a new one
/// cannot go undocumented.
#[test]
fn documented_experiment_names_resolve_in_the_table() {
    let table: BTreeSet<&str> = reports().map(|e| e.name).collect();
    let (readme, design, experiments) =
        (repo_file("README.md"), repo_file("DESIGN.md"), repo_file("EXPERIMENTS.md"));
    let section4 = design.split("\n## ").find(|s| s.starts_with("4.")).expect("DESIGN.md has a §4");
    // Headings introduce an experiment as "## Title (`name`, ...)".
    let headings: String = experiments.lines().filter(|l| l.starts_with("## ")).collect();
    for (doc, mentioned) in [
        ("README.md", names_between(&readme, "suvtm exp ", "")),
        ("DESIGN.md §4", names_between(section4, "suvtm exp ", "")),
        ("EXPERIMENTS.md headings", names_between(&headings, "(`", "`")),
    ] {
        for name in &mentioned {
            assert!(find(name).is_some(), "{doc} mentions `{name}`, which is not in the table");
        }
        assert_eq!(mentioned, table, "{doc} must mention every experiment");
    }
}

fn run(app: &str, scheme: SchemeKind) -> RunResult {
    let cfg = MachineConfig::small_test();
    let mut w = by_name(app, SuiteScale::Tiny).expect("known app");
    run_workload(&cfg, scheme, w.as_mut())
}

/// Figure 6's headline on a high-contention app: SUV-TM beats LogTM-SE
/// clearly, and is at least competitive with FasTM.
#[test]
fn fig6_shape_high_contention() {
    for app in ["genome", "yada"] {
        let l = run(app, SchemeKind::LogTmSe);
        let f = run(app, SchemeKind::FasTm);
        let s = run(app, SchemeKind::SuvTm);
        assert!(
            (s.stats.cycles as f64) < 0.9 * l.stats.cycles as f64,
            "{app}: SUV ({}) must clearly beat LogTM-SE ({})",
            s.stats.cycles,
            l.stats.cycles
        );
        assert!(
            (s.stats.cycles as f64) < 1.1 * f.stats.cycles as f64,
            "{app}: SUV ({}) must be at least competitive with FasTM ({})",
            s.stats.cycles,
            f.stats.cycles
        );
    }
}

/// On low-contention apps the three schemes are within a modest band —
/// version management is off the critical path (Figure 6's right half).
#[test]
fn fig6_shape_low_contention() {
    for app in ["ssca2", "vacation"] {
        let l = run(app, SchemeKind::LogTmSe);
        let s = run(app, SchemeKind::SuvTm);
        let ratio = s.stats.cycles as f64 / l.stats.cycles as f64;
        assert!(
            (0.7..1.25).contains(&ratio),
            "{app}: low contention should keep schemes close, got {ratio}"
        );
    }
}

/// Figure 6's mechanism: LogTM-SE spends far more Aborting (repair) time
/// than SUV on abort-heavy workloads.
#[test]
fn fig6_mechanism_aborting_time() {
    let l = run("genome", SchemeKind::LogTmSe);
    let s = run("genome", SchemeKind::SuvTm);
    let la = l.stats.total_breakdown().aborting;
    let sa = s.stats.total_breakdown().aborting;
    assert!(la > sa * 3, "LogTM Aborting {la} must dwarf SUV's {sa}");
}

/// Figure 9's headline: DynTM+SUV at least matches original DynTM on the
/// high-contention apps.
#[test]
fn fig9_shape() {
    let mut wins = 0;
    for app in ["genome", "intruder", "yada"] {
        let d = run(app, SchemeKind::DynTm);
        let ds = run(app, SchemeKind::DynTmSuv);
        if ds.stats.cycles <= d.stats.cycles {
            wins += 1;
        }
    }
    assert!(wins >= 2, "D+S must win on most high-contention apps, won {wins}/3");
}

/// Figure 7's premise: shrinking the first-level redirect table raises
/// its miss rate monotonically-ish and never helps execution time much.
#[test]
fn fig7_shape() {
    let mut cfg = MachineConfig::small_test();
    let mut rates = Vec::new();
    for entries in [8usize, 64, 512] {
        cfg.suv.l1_entries = entries;
        let mut w = by_name("genome", SuiteScale::Tiny).unwrap();
        let r = run_workload(&cfg, SchemeKind::SuvTm, w.as_mut());
        rates.push(r.stats.redirect.l1_miss_rate());
    }
    assert!(rates[0] > rates[2], "8-entry table must miss more than 512-entry: {rates:?}");
}

/// Figure 8(b)'s premise: a slower second-level table costs time. The
/// check uses the low-contention ssca2 (on contended apps, small timing
/// shifts can change conflict luck and mask the latency effect at this
/// tiny scale).
#[test]
fn fig8_shape() {
    let mut cfg = MachineConfig::small_test();
    cfg.suv.l1_entries = 8; // force second-level traffic
    let mut cycles = Vec::new();
    for lat in [0u64, 60] {
        cfg.suv.l2_latency = lat;
        let mut w = by_name("ssca2", SuiteScale::Tiny).unwrap();
        let r = run_workload(&cfg, SchemeKind::SuvTm, w.as_mut());
        cycles.push(r.stats.cycles);
    }
    assert!(cycles[1] > cycles[0], "60-cycle table must be slower: {cycles:?}");
}

/// Table VII: the hardware-cost model reproduces the paper's estimates.
#[test]
fn table7_values() {
    let cfg = ArrayConfig::paper_l1_table();
    let rows = [
        (90u32, 1.382, 0.403, 0.434, 0.951),
        (65, 0.995, 0.239, 0.260, 0.589),
        (45, 0.588, 0.150, 0.163, 0.282),
        (32, 0.412, 0.072, 0.078, 0.143),
    ];
    for (nm, t, r, w, a) in rows {
        let e = estimate_fa(&cfg, &TechNode::by_nm(nm).unwrap());
        let close = |x: f64, y: f64| (x - y).abs() / y < 0.05;
        assert!(close(e.access_ns, t), "{nm}nm access");
        assert!(close(e.read_nj, r), "{nm}nm read");
        assert!(close(e.write_nj, w), "{nm}nm write");
        assert!(close(e.area_mm2, a), "{nm}nm area");
    }
}

/// Table V's mechanism at test scale: LogTM-SE suffers more harmful
/// transactional data overflow than SUV on bayes (whose re-learning
/// transactions sweep the L1), because the undo log itself occupies cache.
#[test]
fn table5_mechanism() {
    let cfg = MachineConfig::small_test();
    let mut w = by_name("bayes", SuiteScale::Tiny).unwrap();
    let l = run_workload(&cfg, SchemeKind::LogTmSe, w.as_mut());
    let mut w = by_name("bayes", SuiteScale::Tiny).unwrap();
    let s = run_workload(&cfg, SchemeKind::SuvTm, w.as_mut());
    assert!(
        l.stats.overflow.speculative_evictions >= s.stats.overflow.speculative_evictions,
        "LogTM evictions {} < SUV {}",
        l.stats.overflow.speculative_evictions,
        s.stats.overflow.speculative_evictions
    );
}
