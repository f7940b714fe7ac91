//! `suvtm bench --profile`: host-side throughput profiling.
//!
//! Where `BENCH_sweep.json` tracks *simulated* results across the full
//! paper matrix, `BENCH_host.json` (schema `suv-bench-host/v1`) tracks
//! *host* throughput of the execution engine itself: simulated cycles per
//! host second per cell, split into scheduler-wait time, machine-compute
//! time, and tracing overhead.
//!
//! # Cell selection
//!
//! The default profile matrix (the `profile` row of the experiment
//! table, `crate::exp`) is the full paper matrix: all eight STAMP apps ×
//! all six schemes × 8/16 cores at paper scale. Earlier engines had to
//! carve out an "engine-sensitive subset" because every *taken* baton
//! handoff cost an OS context switch (~1–2 µs of kernel time) that
//! drowned the engine in handoff-heavy cells; the coroutine event loop
//! made a handoff a function return, so every cell's wall time now
//! tracks code this crate can actually regress — the per-access machine
//! path, the tracer, and the dispatch loop — and nothing needs excluding.
//!
//! # Methodology
//!
//! Each cell is run `reps` times with tracing on and `reps` times with
//! tracing off, on one host thread and with **no probe attached**, and
//! the minimum wall time of each group is reported (min-of-N is the
//! standard de-noising estimator for a quantity with one-sided noise):
//! `host_ms` — and so `cycles_per_sec` and the geomean — is what `suvtm
//! bench` pays for the cell, and `trace_overhead_ms`, the traced minus the
//! untraced minimum clamped at zero, is the cost of the tracer alone. The
//! dispatch / machine split
//! comes from one further traced repetition with the wall probe on,
//! which reads the clock three times per scheduling quantum — on a
//! handoff-heavy cell as much host time as the tracer itself, which is
//! why no timed repetition carries it; that repetition's own wall time
//! is discarded. The repeated runs double as a repeatability oracle:
//! every run must produce bit-identical cycles and — when traced — trace
//! hash, or the profiler panics.

use crate::engine::{cell_key, cycles_per_sec, scale_name, CellSpec, HostMeta};
use crate::geomean;
use crate::probe::wall_probe;
use std::time::Instant;
use suv::prelude::*;
use suv::sim::{run_workload_profiled, ProbeHandle};
use suv::trace::Json;

/// One profiled cell: deterministic simulation results, the minimum wall
/// times of the probe-free repetitions, and the host-time split of the one
/// probed repetition.
#[derive(Debug, Clone)]
pub struct ProfiledCell {
    /// The matrix point this cell measured.
    pub spec: CellSpec,
    /// Full run result (identical across repetitions — asserted).
    pub result: RunResult,
    /// Minimum traced wall time over the repetitions, in ms.
    pub host_ms: f64,
    /// Minimum untraced wall time over the repetitions, in ms.
    pub untraced_ms: f64,
    /// Host time the event loop spent between resumes — picking the next
    /// core and switching coroutines (the probed rep).
    pub sched_wait_ms: f64,
    /// Host time spent inside resumed cores: workload code and the
    /// machine calls it makes (the probed rep).
    pub machine_ms: f64,
}

impl ProfiledCell {
    /// Simulated cycles per host second — the throughput figure the
    /// perf trajectory tracks (from the traced minimum, the same
    /// configuration `suvtm bench` times).
    pub fn cycles_per_sec(&self) -> f64 {
        cycles_per_sec(self.result.stats.cycles, self.host_ms)
    }

    /// Host cost of event tracing: traced minus untraced minimum wall
    /// time, clamped at zero (the two minima race host noise).
    pub fn trace_overhead_ms(&self) -> f64 {
        (self.host_ms - self.untraced_ms).max(0.0)
    }

    /// A named scheduler counter from the traced run (0 when absent).
    pub fn sched_counter(&self, name: &str) -> u64 {
        self.result.trace.as_ref().map_or(0, |t| t.metrics.counter(name))
    }
}

/// Profile one cell: `reps` traced + `reps` untraced probe-free runs,
/// minimum wall time of each, then one probed traced run for the
/// dispatch / machine split; bit-identical results asserted across all.
///
/// # Panics
/// On any determinism violation between repetitions (differing cycles or
/// trace hash), or an unknown workload name (the CLI validates earlier).
pub fn run_cell_profiled(spec: &CellSpec, scale: SuiteScale, reps: usize) -> ProfiledCell {
    assert!(reps >= 1, "need at least one repetition");
    let (cfg, key) = (&spec.cfg, cell_key(spec));
    let tc = TraceConfig { ring_capacity: 1 << 12 };
    // One run, timed from outside.
    let timed = |trace: Option<TraceConfig>, probe: Option<ProbeHandle>| {
        let mut w = by_name(&spec.app, scale)
            .unwrap_or_else(|| panic!("unknown workload {} reached the profiler", spec.app));
        let start = Instant::now();
        let result = run_workload_profiled(cfg, spec.scheme, w.as_mut(), trace, probe);
        (result, start.elapsed().as_secs_f64() * 1000.0)
    };

    // The repetitions are asserted identical, so any one's result stands
    // for the cell and the fastest one's wall time for its cost.
    let (result, mut host_ms) = timed(Some(tc), None);
    let check = |r: &RunResult, what: &str| {
        assert_eq!(r.stats.cycles, result.stats.cycles, "{key}: {what}");
        assert!(r.trace.is_none() || r.trace_hash == result.trace_hash, "{key}: {what}");
    };
    for _ in 1..reps {
        let (r, ms) = timed(Some(tc), None);
        check(&r, "repetition diverged — simulation is not deterministic");
        host_ms = host_ms.min(ms);
    }
    let mut untraced_ms = f64::INFINITY;
    for _ in 0..reps {
        let (r, ms) = timed(None, None);
        check(&r, "tracing changed the simulated outcome");
        untraced_ms = untraced_ms.min(ms);
    }
    let (probe, handle) = wall_probe();
    let (r, _) = timed(Some(tc), Some(handle));
    check(&r, "probing changed the simulated outcome");

    ProfiledCell {
        spec: spec.clone(),
        result,
        host_ms,
        untraced_ms,
        sched_wait_ms: probe.sched_wait_ms(),
        machine_ms: probe.machine_ms(),
    }
}

/// Geometric-mean throughput over the profiled cells, the single summary
/// number the regression gate compares.
pub fn geomean_cycles_per_sec(cells: &[ProfiledCell]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    geomean(&cells.iter().map(ProfiledCell::cycles_per_sec).collect::<Vec<_>>())
}

/// Render the `BENCH_host.json` document (schema `suv-bench-host/v1`).
///
/// The per-cell deterministic payload (simulated cycles, trace hash,
/// scheduler counters) is byte-identical across runs; with `host: None`
/// every wall-clock field is omitted and only that payload remains — the
/// form the determinism tests compare.
pub fn host_json(
    cells: &[ProfiledCell],
    scale: SuiteScale,
    reps: usize,
    host: Option<HostMeta>,
) -> Json {
    let rows = cells
        .iter()
        .map(|c| {
            let mut row = vec![
                ("app", Json::from(c.spec.app.as_str())),
                ("scheme", Json::from(c.spec.scheme.name())),
                ("cores", Json::U64(c.spec.cfg.n_cores as u64)),
                ("cycles", Json::U64(c.result.stats.cycles)),
                ("trace_hash", Json::Str(format!("{:016x}", c.result.trace_hash))),
                ("handoffs_taken", Json::U64(c.sched_counter("sched.handoffs_taken"))),
                ("handoffs_elided", Json::U64(c.sched_counter("sched.handoffs_elided"))),
                ("barrier_arrivals", Json::U64(c.sched_counter("sched.barrier_arrivals"))),
            ];
            if host.is_some() {
                row.push((
                    "host",
                    Json::obj([
                        ("host_ms", Json::F64(c.host_ms)),
                        ("cycles_per_sec", Json::F64(c.cycles_per_sec())),
                        ("sched_wait_ms", Json::F64(c.sched_wait_ms)),
                        ("machine_ms", Json::F64(c.machine_ms)),
                        ("trace_overhead_ms", Json::F64(c.trace_overhead_ms())),
                    ]),
                ));
            }
            Json::obj(row)
        })
        .collect();
    let mut doc = vec![
        ("schema", Json::from("suv-bench-host/v1")),
        ("scale", Json::from(scale_name(scale))),
        ("reps", Json::U64(reps as u64)),
        ("cells", Json::Arr(rows)),
    ];
    if let Some(h) = host {
        doc.push(("geomean_cycles_per_sec", Json::F64(geomean_cycles_per_sec(cells))));
        doc.push(("workers", Json::U64(h.workers as u64)));
        doc.push(("host_wall_ms", Json::F64(h.wall_ms)));
    }
    Json::obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec::new("kmeans", SchemeKind::SuvTm, 4)
    }

    #[test]
    fn profiled_cell_is_deterministic_and_timed() {
        let c = run_cell_profiled(&spec(), SuiteScale::Tiny, 2);
        assert!(c.result.stats.cycles > 0);
        assert_ne!(c.result.trace_hash, 0, "profiled runs are traced");
        assert!(c.host_ms > 0.0);
        assert!(c.cycles_per_sec() > 0.0);
        assert!(c.trace_overhead_ms() >= 0.0);
        // The engine reported both sides of the baton through the probe.
        assert!(c.machine_ms > 0.0, "machine time must be attributed");
    }

    #[test]
    fn host_json_without_host_is_deterministic() {
        let a = run_cell_profiled(&spec(), SuiteScale::Tiny, 1);
        let b = run_cell_profiled(&spec(), SuiteScale::Tiny, 1);
        let ja = host_json(&[a], SuiteScale::Tiny, 1, None).render();
        let jb = host_json(&[b], SuiteScale::Tiny, 1, None).render();
        assert_eq!(ja, jb, "deterministic payload must be byte-identical");
        assert!(!ja.contains("host_ms"), "host fields must be omitted");
        assert!(ja.contains("suv-bench-host/v1"));
        assert!(ja.contains("handoffs_taken"));
    }

    #[test]
    fn geomean_of_empty_is_zero() {
        assert_eq!(geomean_cycles_per_sec(&[]), 0.0);
    }

    #[test]
    fn profile_axes_are_valid_cells() {
        let (profile, _) = crate::exp::preset(crate::exp::BenchMode::Profile);
        assert_eq!(profile.scale, SuiteScale::Paper);
        let crate::exp::Cells::Matrix { apps, schemes, cores } = profile.cells else {
            panic!("the profile preset is a matrix");
        };
        assert!(!apps.is_empty() && !schemes.is_empty() && !cores.is_empty());
        for a in apps {
            assert!(by_name(a, SuiteScale::Tiny).is_some(), "unknown profile app {a}");
        }
        assert!(cores.iter().all(|c| *c >= 2), "profile cells must be multi-core");
    }
}
