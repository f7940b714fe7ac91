//! Running and timing one cell.
//!
//! The simulator is measured from outside: a [`Workload`] adapter
//! timestamps the three calls the runner makes into the workload
//! (`setup`, first `run`, `verify`), which splits one
//! `run_workload_profiled` call into machine build / setup / timed
//! region / verify without touching product code, and a wall-clock
//! [`HostProbe`] splits the timed region into machine and dispatch time.

use crate::workloads::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use suv::mem::AllocError;
use suv::prelude::*;
use suv::sim::{run_workload_profiled, HostProbe, ProbeHandle};

/// Ring capacity of the product tracer, as `suvtm bench` sets it: the
/// stream hash and event count cover every event whatever the ring holds.
const RING_CAPACITY: usize = 1 << 12;

/// Host-time phases of one cell, in seconds. `build + machine_build +
/// setup` is the cell's share of `setup_s`; `wall` is the whole call
/// including construction and verify.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    pub build: f64,
    pub machine_build: f64,
    pub setup: f64,
    pub run: f64,
    pub verify: f64,
    pub wall: f64,
}

impl Phases {
    pub fn setup_total(&self) -> f64 {
        self.build + self.machine_build + self.setup
    }
}

/// The instants behind [`Phases`], kept so the traced pass can place
/// spans on one time line.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    pub start: Instant,
    pub built: Instant,
    pub setup_start: Instant,
    pub setup_end: Instant,
    pub verify_start: Instant,
    pub verify_end: Instant,
    pub end: Instant,
}

impl Marks {
    pub fn phases(&self) -> Phases {
        let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        Phases {
            build: s(self.start, self.built),
            machine_build: s(self.built, self.setup_start),
            setup: s(self.setup_start, self.setup_end),
            run: s(self.setup_end, self.verify_start),
            verify: s(self.verify_start, self.verify_end),
            wall: s(self.start, self.end),
        }
    }
}

/// Forwards to the real workload and notes when the runner calls in.
/// `Workload: Sync`, so the `&self` entry point records through a
/// `OnceLock`.
struct Stamped {
    inner: Box<dyn Workload>,
    setup: Option<(Instant, Instant)>,
    verify: OnceLock<(Instant, Instant)>,
}

impl Workload for Stamped {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        let start = Instant::now();
        self.inner.setup(ctx);
        self.setup = Some((start, Instant::now()));
    }

    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        self.inner.run(tid, ctx)
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        let start = Instant::now();
        self.inner.verify(ctx);
        let _ = self.verify.set((start, Instant::now()));
    }
}

/// Wall-clock host probe: total machine-held and dispatch time plus the
/// number of scheduling quanta they were summed over.
#[derive(Debug)]
pub struct WallProbe {
    epoch: Instant,
    machine_ns: AtomicU64,
    dispatch_ns: AtomicU64,
    quanta: AtomicU64,
}

impl WallProbe {
    fn new() -> Self {
        WallProbe {
            epoch: Instant::now(),
            machine_ns: AtomicU64::new(0),
            dispatch_ns: AtomicU64::new(0),
            quanta: AtomicU64::new(0),
        }
    }

    pub fn machine_ns(&self) -> u64 {
        self.machine_ns.load(Ordering::Relaxed)
    }

    pub fn dispatch_ns(&self) -> u64 {
        self.dispatch_ns.load(Ordering::Relaxed)
    }

    pub fn quanta(&self) -> u64 {
        self.quanta.load(Ordering::Relaxed)
    }
}

// Relaxed throughout: the totals are statistics read after the run, and
// the cell runs on this one thread anyway (the trait demands Sync).
impl HostProbe for WallProbe {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sched_wait(&self, ns: u64) {
        self.dispatch_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn machine_held(&self, ns: u64) {
        self.machine_ns.fetch_add(ns, Ordering::Relaxed);
        self.quanta.fetch_add(1, Ordering::Relaxed);
    }
}

/// How one run of a cell is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instrument {
    /// Product tracer on (event count, stream hash, `sched.*` counters).
    pub tracer: bool,
    /// Wall-clock host probe on (machine / dispatch split).
    pub probe: bool,
}

/// One completed run of a cell.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub marks: Marks,
    pub result: RunResult,
    pub probe: Option<Arc<WallProbe>>,
}

impl CellRun {
    /// A counter from the product tracer's registry (0 when untraced).
    pub fn trace_counter(&self, name: &str) -> u64 {
        self.result.trace.as_ref().map_or(0, |t| t.metrics.counter(name))
    }

    pub fn trace_events(&self) -> u64 {
        self.result.trace.as_ref().map_or(0, |t| t.events)
    }

    /// The simulated outcome every pass must reproduce.
    pub fn signature(&self) -> (u64, u64, u64) {
        (self.result.stats.cycles, self.result.stats.tx.commits, self.result.stats.tx.aborts)
    }

    /// Every simulated cycle of every thread is attributed to exactly one
    /// breakdown component.
    fn check_breakdown(&self) -> Result<(), String> {
        let s = &self.result.stats;
        for (tid, (b, clock)) in s.per_thread.iter().zip(&s.per_thread_cycles).enumerate() {
            if b.total() != *clock {
                return Err(format!(
                    "thread {tid}: breakdown total {} != end clock {clock}",
                    b.total()
                ));
            }
        }
        Ok(())
    }

    /// Does this run agree with `reference` (an earlier run of the same
    /// cell) on everything deterministic?
    pub fn check_against(&self, reference: &CellRun) -> Result<(), String> {
        if self.signature() != reference.signature() {
            return Err(format!(
                "(cycles, commits, aborts) {:?} != {:?} of an earlier pass",
                self.signature(),
                reference.signature()
            ));
        }
        let (h, rh) = (self.result.trace_hash, reference.result.trace_hash);
        if h != 0 && rh != 0 && h != rh {
            return Err(format!("trace hash {h:016x} != {rh:016x} of an earlier pass"));
        }
        Ok(())
    }
}

/// Render a panic payload as one line (simulated OOM is a typed payload).
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(e) = p.downcast_ref::<AllocError>() {
        e.to_string()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Build, simulate and verify one cell. `Err` carries the reason the cell
/// failed: a panic anywhere in the call (`Workload::verify` included) or
/// a breakdown that does not reconcile.
pub fn run_cell(cell: &Cell, how: Instrument) -> Result<CellRun, String> {
    run_guarded(&cell.machine_config(), cell.scheme, || cell.build(), how)
}

fn run_guarded(
    cfg: &MachineConfig,
    scheme: SchemeKind,
    build: impl FnOnce() -> Box<dyn Workload>,
    how: Instrument,
) -> Result<CellRun, String> {
    let trace = how.tracer.then_some(TraceConfig { ring_capacity: RING_CAPACITY });
    let probe = how.probe.then(|| Arc::new(WallProbe::new()));
    let handle = probe.clone().map(|p| p as ProbeHandle);

    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut w = Stamped { inner: build(), setup: None, verify: OnceLock::new() };
        let built = Instant::now();
        let result = run_workload_profiled(cfg, scheme, &mut w, trace, handle);
        let end = Instant::now();
        (built, w.setup, w.verify.get().copied(), result, end)
    }));
    let (built, setup, verify, result, end) = outcome.map_err(|p| panic_message(p.as_ref()))?;
    let (setup_start, setup_end) = setup.ok_or("the runner never called Workload::setup")?;
    let (verify_start, verify_end) = verify.ok_or("the runner never called Workload::verify")?;
    let marks = Marks { start, built, setup_start, setup_end, verify_start, verify_end, end };
    let run = CellRun { marks, result, probe };
    run.check_breakdown()?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, Size};

    fn first_cell(name: &str) -> Cell {
        workload(name, 1, Size::Smoke).unwrap().cells.remove(0)
    }

    #[test]
    fn phases_partition_the_call_and_repeat_deterministically() {
        let cell = first_cell("stamp_eager");
        let off = Instrument { tracer: false, probe: false };
        let a = run_cell(&cell, off).unwrap();
        let b = run_cell(&cell, Instrument { tracer: true, probe: true }).unwrap();
        b.check_against(&a).unwrap();
        let p = a.marks.phases();
        let parts = p.build + p.machine_build + p.setup + p.run + p.verify;
        assert!(parts > 0.0 && parts <= p.wall, "{p:?}");
        assert!(p.wall - parts < 0.5 * p.wall, "unattributed tail dominates: {p:?}");
        assert_eq!(a.trace_events(), 0);
        assert!(b.trace_events() > 0 && b.result.trace_hash != 0);
        assert!(b.trace_counter("sched.handoffs_taken") > 0);
        let probe = b.probe.as_ref().unwrap();
        assert!(probe.quanta() > 0 && probe.machine_ns() > 0);
        assert!(a.probe.is_none());
    }

    #[test]
    fn a_disagreeing_pass_is_reported() {
        let off = Instrument { tracer: true, probe: false };
        let a = run_cell(&first_cell("stamp_eager"), off).unwrap();
        let mut b = a.clone();
        b.result.stats.cycles += 1;
        assert!(b.check_against(&a).unwrap_err().contains("cycles"));
        let mut c = a.clone();
        c.result.trace_hash ^= 1;
        assert!(c.check_against(&a).unwrap_err().contains("trace hash"));
        let mut d = a.clone();
        d.result.stats.per_thread[0].trans += 1;
        assert!(d.check_breakdown().unwrap_err().contains("breakdown"));
    }

    #[test]
    fn a_panicking_cell_is_an_error_not_a_crash() {
        /// Fails its functional self-check, as a lost update would.
        struct BadVerify(Box<dyn Workload>);
        impl Workload for BadVerify {
            fn name(&self) -> &'static str {
                "bad-verify"
            }
            fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
                self.0.setup(ctx);
            }
            fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
                self.0.run(tid, ctx)
            }
            fn verify(&self, _ctx: &mut SetupCtx<'_>) {
                panic!("seeded verify failure");
            }
        }
        let cell = first_cell("stamp_eager");
        let err = run_guarded(
            &cell.machine_config(),
            cell.scheme,
            || Box::new(BadVerify(cell.build())),
            Instrument { tracer: false, probe: false },
        )
        .unwrap_err();
        assert_eq!(err, "seeded verify failure");
    }
}
