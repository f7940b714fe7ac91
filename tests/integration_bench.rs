//! Integration tests for the parallel experiment engine: the parallel
//! sweep must be bit-identical to the serial one, and `BENCH_sweep.json`
//! must be byte-identical across runs. Also the `suvtm` binary's stdout
//! contract.
#![allow(clippy::disallowed_methods, reason = "times the host, never the simulation")]

use suv::prelude::*;
use suv::sim::default_workers;
use suv_bench::engine::{matrix, run_matrix, sweep_json, CellOutcome};

/// A small but multi-axis matrix: 2 apps x 3 schemes x 2 core counts.
fn small_matrix() -> Vec<suv_bench::engine::CellSpec> {
    matrix(
        &["kmeans", "intruder"],
        &[SchemeKind::LogTmSe, SchemeKind::SuvTm, SchemeKind::Lazy],
        &[4, 8],
    )
}

fn assert_cells_identical(serial: &[CellOutcome], parallel: &[CellOutcome]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        let (CellOutcome::Ok(s), CellOutcome::Ok(p)) = (s, p) else {
            panic!("no cell may be quarantined in this matrix");
        };
        assert_eq!(s.spec, p.spec, "matrix order must not depend on worker count");
        let cell = format!("{}/{:?}/{}c", s.spec.app, s.spec.scheme, s.spec.cfg.n_cores);
        assert_eq!(
            s.result.trace_hash, p.result.trace_hash,
            "{cell}: trace hash differs between serial and parallel"
        );
        assert_ne!(s.result.trace_hash, 0, "{cell}: bench cells must be traced");
        assert_eq!(s.result.stats.cycles, p.result.stats.cycles, "{cell}: cycles differ");
        assert_eq!(
            s.result.stats.tx.commits, p.result.stats.tx.commits,
            "{cell}: commit counts differ"
        );
        assert_eq!(
            s.result.stats.tx.aborts, p.result.stats.tx.aborts,
            "{cell}: abort counts differ"
        );
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let cells = small_matrix();
    let serial = run_matrix(&cells, SuiteScale::Tiny, 1);
    // More workers than cells exercises the clamp; interleaving on a
    // single-CPU host still reorders completions via the OS scheduler.
    let parallel = run_matrix(&cells, SuiteScale::Tiny, 16);
    assert_cells_identical(&serial, &parallel);
}

#[test]
fn parallel_sweep_matches_at_host_parallelism() {
    // Whatever worker count `suvtm bench` would actually pick by default
    // must reproduce the serial results too.
    let cells = small_matrix()[..3].to_vec();
    let serial = run_matrix(&cells, SuiteScale::Tiny, 1);
    let parallel = run_matrix(&cells, SuiteScale::Tiny, default_workers());
    assert_cells_identical(&serial, &parallel);
}

#[test]
fn bench_sweep_json_deterministic_part_is_stable() {
    let cells = small_matrix();
    // Two fully independent sweeps at different worker counts.
    let a = run_matrix(&cells, SuiteScale::Tiny, 4);
    let b = run_matrix(&cells, SuiteScale::Tiny, 2);
    // The document holds simulated results only: byte-identical run to run.
    let ja = sweep_json(&a, SuiteScale::Tiny).render();
    let jb = sweep_json(&b, SuiteScale::Tiny).render();
    assert_eq!(ja, jb, "BENCH_sweep document drifted between runs");
    assert!(ja.contains("\"schema\":\"suv-bench-sweep/v1\""));
    assert!(ja.contains("\"trace_hash\":\""), "hashes must be rendered as hex strings");
    assert!(ja.contains("sim_cycles_total"));
    for host in ["host_ms", "workers", "host_wall_ms", "cycles_per_sec"] {
        assert!(!ja.contains(host), "host field `{host}` in BENCH_sweep.json");
    }
}

/// One traced OLTP storm run on a small machine; the traffic seed lives
/// in the workload's default [`suv::oltp::TrafficConfig`], so every call
/// replays the identical request stream.
fn traced_oltp_storm() -> RunResult {
    let mut w = by_name("oltp-storm", SuiteScale::Tiny).expect("oltp-storm is registered");
    let cfg = MachineConfig { n_cores: 4, ..Default::default() };
    run_workload_traced(&cfg, SchemeKind::SuvTm, w.as_mut(), Some(TraceConfig::default()))
}

#[test]
fn oltp_same_seed_runs_have_identical_traces_and_latency() {
    let a = traced_oltp_storm();
    let b = traced_oltp_storm();
    assert_ne!(a.trace_hash, 0, "traced runs must hash their event stream");
    assert_eq!(a.trace_hash, b.trace_hash, "same seed must replay byte-identical traces");
    let (la, lb) = (
        a.latency.as_ref().expect("oltp records latency").summary(),
        b.latency.as_ref().expect("oltp records latency").summary(),
    );
    assert_eq!(la, lb, "p50/p99/p999 must be identical across same-seed runs");
    assert!(la.p50 <= la.p99 && la.p99 <= la.p999 && la.p999 <= la.max);
    let (ja, jb) = (suv_bench::run_json(&a).render(), suv_bench::run_json(&b).render());
    assert_eq!(ja, jb, "machine-readable row drifted between same-seed runs");
    for key in ["\"latency\"", "p50_cycles", "p99_cycles", "p999_cycles", "txns_per_kcycle"] {
        assert!(ja.contains(key), "oltp run row must carry `{key}`");
    }
}

/// A many-core cell (beyond the old 64-core sharer-word ceiling) must be
/// just as deterministic: multi-word sharer sets, the 12x11 auto mesh and
/// the banked redirect table may not introduce any host-order dependence.
#[test]
fn many_core_cell_is_identical_serial_and_parallel() {
    let cells = matrix(&["ssca2"], &[SchemeKind::SuvTm, SchemeKind::LogTmSe], &[128]);
    let serial = run_matrix(&cells, SuiteScale::Tiny, 1);
    let parallel = run_matrix(&cells, SuiteScale::Tiny, 8);
    assert_cells_identical(&serial, &parallel);
}

#[test]
fn oltp_bench_cells_are_identical_serial_and_parallel() {
    let cells = matrix(&["oltp", "oltp-storm"], &[SchemeKind::SuvTm, SchemeKind::LogTmSe], &[4]);
    let serial = run_matrix(&cells, SuiteScale::Tiny, 1);
    let parallel = run_matrix(&cells, SuiteScale::Tiny, 8);
    assert_cells_identical(&serial, &parallel);
}

/// The wall-time acceptance check: on a host with >= 4 cores, the parallel
/// sweep must beat the serial sweep by >= 3x. Skipped (with a note) on
/// smaller hosts, where the pool degenerates to near-serial execution and
/// the ratio is meaningless.
#[test]
fn parallel_sweep_speedup_on_multicore_hosts() {
    let workers = default_workers();
    if workers < 4 {
        eprintln!("host has {workers} core(s) < 4; skipping wall-time speedup check");
        return;
    }
    use std::time::Instant;
    // One warm-up sweep so allocator/page-cache effects don't skew either
    // timed sweep, then time serial vs parallel on identical work.
    let cells = small_matrix();
    run_matrix(&cells, SuiteScale::Tiny, workers);
    let t0 = Instant::now();
    let serial = run_matrix(&cells, SuiteScale::Tiny, 1);
    let serial_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let t1 = Instant::now();
    let parallel = run_matrix(&cells, SuiteScale::Tiny, workers);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1000.0;
    assert_cells_identical(&serial, &parallel);
    let speedup = serial_ms / parallel_ms.max(f64::MIN_POSITIVE);
    assert!(
        speedup >= 3.0,
        "parallel sweep only {speedup:.2}x faster ({serial_ms:.0} ms -> {parallel_ms:.0} ms) \
         on a {workers}-core host"
    );
}

/// A reader that went away (`suvtm list | head -1`) ends `suvtm` with
/// status 0, not a "failed printing to stdout" panic.
#[test]
fn a_closed_stdout_ends_suvtm_with_status_zero() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_suvtm"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("spawn suvtm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// `suvtm bench` writes its `--out` document before its first stdout line,
/// so a reader that goes away at once (`suvtm bench … | head -1`) still
/// leaves the whole document behind: the one the engine renders in process.
#[test]
fn a_closed_stdout_still_leaves_the_bench_document() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("closed-stdout-bench");
    let path = dir.join("b.json");
    let _ = std::fs::remove_file(&path);
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_suvtm"))
        .args(["bench", "--apps", "genome", "--schemes", "suv", "--cores", "4"])
        .args(["--scale", "tiny", "--out"])
        .arg(&path)
        .stdout(writer)
        .output()
        .expect("spawn suvtm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let doc = std::fs::read_to_string(&path).expect("the bench document was written");
    let cells = run_matrix(&matrix(&["genome"], &[SchemeKind::SuvTm], &[4]), SuiteScale::Tiny, 1);
    assert_eq!(doc, sweep_json(&cells, SuiteScale::Tiny).render());
}
