//! Workload execution harness: the single-threaded coroutine executor.
//!
//! One cell = one host thread. Every simulated core's async body is boxed
//! into a [`CoreFuture`]; the executor polls exactly one of them at a
//! time — always the scheduler's global-minimum core — and a suspended
//! core costs a `Poll::Pending` return plus one heap operation to pick
//! the next. Nothing here parks, locks, allocates or touches an atomic,
//! and an unprobed run makes no virtual call around a quantum (the probe
//! is an `Option`, not a do-nothing object); cross-cell parallelism
//! comes from `pool.rs` fanning independent cells across host threads.

use crate::context::{Engine, SetupCtx, ThreadCtx};
use crate::probe::ProbeHandle;
use crate::scheme::build_vm;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use suv_htm::machine::HtmMachine;
use suv_htm::vm::VersionManager;
use suv_trace::{LatencyHistogram, TraceOutput, Tracer};
use suv_types::{MachineConfig, MachineStats, SchemeKind};

/// One simulated core's resumable body: a boxed coroutine borrowing its
/// [`ThreadCtx`] for the whole timed region.
pub type CoreFuture<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// A benchmark program for the simulated machine.
///
/// `setup` builds the initial memory image (untimed, like STAMP's input
/// generation); `run` returns the timed per-thread body as a coroutine —
/// implementors write `Box::pin(async move { ... })` and suspend at
/// every awaited memory access.
pub trait Workload: Sync {
    /// Short name (figure row label).
    fn name(&self) -> &'static str;

    /// Build the initial memory image and record addresses in `self`.
    fn setup(&mut self, ctx: &mut SetupCtx<'_>);

    /// The timed per-thread body.
    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a>;

    /// Optional functional self-check after the run (panics on violation).
    fn verify(&self, _ctx: &mut SetupCtx<'_>) {}
}

/// Tracing knobs for a traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events; the stream hash is unaffected when
    /// the ring overflows, only the retained window shrinks.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: 1 << 20 }
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme that was simulated.
    pub scheme: SchemeKind,
    /// Workload name.
    pub workload: String,
    /// All collected statistics.
    pub stats: MachineStats,
    /// Streaming hash over the full event stream — the bit-reproducibility
    /// oracle (0 when tracing was off).
    pub trace_hash: u64,
    /// Full trace output when the run was traced.
    pub trace: Option<TraceOutput>,
    /// Request latencies merged across all threads (`None` when the
    /// workload recorded no samples — i.e. any non-open-loop workload).
    /// Boxed: the histogram holds its 15 KB of buckets inline.
    pub latency: Option<Box<LatencyHistogram>>,
}

impl RunResult {
    /// Total simulated execution time (cycles).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Speedup of this run relative to `other` (>1 = this one is faster).
    ///
    /// Zero-cycle runs (a degenerate workload whose timed region is empty)
    /// follow the convention: both zero → 1.0 (equally fast), only `self`
    /// zero → `f64::INFINITY`, only `other` zero → 0.0. This keeps the
    /// result free of NaN so downstream geomeans stay well-defined.
    pub fn speedup_over(&self, other: &RunResult) -> f64 {
        match (self.stats.cycles, other.stats.cycles) {
            (0, 0) => 1.0,
            (0, _) => f64::INFINITY,
            (_, 0) => 0.0,
            (mine, theirs) => theirs as f64 / mine as f64,
        }
    }
}

/// Simulate `workload` under `scheme` on the configured machine.
pub fn run_workload(
    cfg: &MachineConfig,
    scheme: SchemeKind,
    workload: &mut dyn Workload,
) -> RunResult {
    run_workload_traced(cfg, scheme, workload, None)
}

/// [`run_workload`] with optional event tracing. Setup and verify are
/// untimed and untraced; only the timed parallel region emits events.
pub fn run_workload_traced(
    cfg: &MachineConfig,
    scheme: SchemeKind,
    workload: &mut dyn Workload,
    trace: Option<TraceConfig>,
) -> RunResult {
    run_workload_profiled(cfg, scheme, workload, trace, None)
}

/// [`run_workload_traced`] with an optional host-profiling probe (see
/// [`crate::probe::HostProbe`]). Probing is observational: results are
/// bit-identical with or without it.
///
/// # Panics
/// A panic in the workload body (workload assert, machine invariant,
/// simulated-OOM...) propagates directly out of this call: there is no
/// thread scope to unwind, no siblings to wake, and no scheduler state to
/// poison — the single-threaded executor simply drops the remaining
/// coroutines on the way out.
#[allow(clippy::needless_pass_by_value)] // a handle is given away; the caller keeps its own `Arc`
pub fn run_workload_profiled(
    cfg: &MachineConfig,
    scheme: SchemeKind,
    workload: &mut dyn Workload,
    trace: Option<TraceConfig>,
    probe: Option<ProbeHandle>,
) -> RunResult {
    let vm = build_vm(scheme, cfg);
    let mut machine = HtmMachine::new(cfg, vm);
    {
        let mut setup = SetupCtx::new(&mut machine);
        workload.setup(&mut setup);
    }
    if let Some(tc) = trace {
        machine.set_tracer(Tracer::ring(tc.ring_capacity));
    }
    let engine = Rc::new(Engine::new(machine, cfg.n_cores));
    let mut contexts: Vec<ThreadCtx> =
        (0..cfg.n_cores).map(|tid| ThreadCtx::new(Rc::clone(&engine), tid)).collect();

    {
        // The executor. Each core's body borrows its context for the whole
        // loop; the borrows end when `tasks` drops.
        let workload_ref: &dyn Workload = workload;
        let mut tasks: Vec<Option<CoreFuture<'_>>> = contexts
            .iter_mut()
            .enumerate()
            .map(|(tid, ctx)| Some(workload_ref.run(tid, ctx)))
            .collect();
        let mut cx = Context::from_waker(Waker::noop());
        // Host clock of a probed run; no call at all on an unprobed one.
        let now_ns = || probe.as_ref().map_or(0, |p| p.now_ns());
        let mut current = engine.sched.start();
        loop {
            let quantum_start_ns = now_ns();
            let poll =
                tasks[current].as_mut().expect("dispatched a finished core").as_mut().poll(&mut cx);
            let quantum_end_ns = now_ns();
            if let Some(p) = &probe {
                p.machine_held(quantum_end_ns.saturating_sub(quantum_start_ns));
            }
            let next = match poll {
                Poll::Pending => engine.sched.dispatch(),
                Poll::Ready(()) => {
                    tasks[current] = None;
                    match engine.sched.finish_core(current) {
                        Some(next) => next,
                        None => break,
                    }
                }
            };
            if let Some(p) = &probe {
                p.sched_wait(p.now_ns().saturating_sub(quantum_end_ns));
            }
            current = next;
        }
    }

    let mut per_thread = Vec::with_capacity(cfg.n_cores);
    let mut per_thread_cycles = Vec::with_capacity(cfg.n_cores);
    let mut end = 0;
    let mut latency = Box::<LatencyHistogram>::default();
    for ctx in &contexts {
        engine.sched.credit_elided(ctx.elided_syncs());
        end = end.max(ctx.now());
        per_thread_cycles.push(ctx.now());
        per_thread.push(ctx.breakdown());
        latency.merge(ctx.latency());
    }
    let latency = if latency.is_empty() { None } else { Some(latency) };
    let sched_counters = engine.sched.counters();

    drop(contexts);
    let engine = Rc::try_unwrap(engine).ok().expect("all contexts dropped their engine handle");
    let mut machine = engine.into_machine();
    // Harvest the tracer and the statistics before verify, so untimed
    // verification reads reach neither.
    let mut tracer = machine.take_tracer();
    let (trace_hash, trace_out) = if tracer.on() {
        for (name, count) in sched_counters {
            tracer.metrics_mut().inc(name, count);
        }
        let out = tracer.finish();
        (out.hash, Some(out))
    } else {
        (0, None)
    };
    let tx = machine.tx_stats();
    let mem_stats = machine.sys.stats();
    let lazy_txns = machine.lazy_txns();
    let stats = MachineStats {
        cycles: end,
        per_thread,
        per_thread_cycles,
        tx,
        overflow: machine.overflow_stats(),
        redirect: machine.vm().redirect_stats(),
        l1_misses: mem_stats.l1_misses,
        l2_misses: mem_stats.l2_misses,
        lazy_txns,
        eager_txns: (tx.commits + tx.aborts).saturating_sub(lazy_txns),
    };
    workload.verify(&mut SetupCtx::new(&mut machine));
    RunResult {
        scheme,
        workload: workload.name().to_string(),
        stats,
        trace_hash,
        trace: trace_out,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SetupCtx, ThreadCtx};
    use suv_types::TxSite;

    /// Each thread increments a shared counter `iters` times inside
    /// transactions; the final value must be exact under every scheme.
    struct CounterWorkload {
        counter: u64,
        iters: u64,
        expected: u64,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
            self.counter = ctx.alloc_words(1);
            ctx.poke(self.counter, 0);
        }
        fn run<'a>(&'a self, _tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
            Box::pin(async move {
                for _ in 0..self.iters {
                    let addr = self.counter;
                    ctx.txn(TxSite(1), async |tx| {
                        let v = tx.load(addr).await?;
                        tx.work(5);
                        tx.store(addr, v + 1).await?;
                        Ok(())
                    })
                    .await;
                    ctx.work(20);
                }
                ctx.barrier().await;
            })
        }
        fn verify(&self, ctx: &mut SetupCtx<'_>) {
            assert_eq!(ctx.peek(self.counter), self.expected, "lost updates!");
        }
    }

    fn run_counter(scheme: SchemeKind) -> RunResult {
        let cfg = MachineConfig::small_test();
        let mut w = CounterWorkload { counter: 0, iters: 25, expected: 25 * cfg.n_cores as u64 };
        run_workload(&cfg, scheme, &mut w)
    }

    #[test]
    fn counter_exact_under_logtm() {
        let r = run_counter(SchemeKind::LogTmSe);
        assert!(r.stats.tx.commits == 100);
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn counter_exact_under_fastm() {
        run_counter(SchemeKind::FasTm);
    }

    #[test]
    fn counter_exact_under_suv() {
        let r = run_counter(SchemeKind::SuvTm);
        assert!(r.stats.redirect.entries_added > 0, "SUV must have redirected stores");
    }

    #[test]
    fn counter_exact_under_lazy() {
        let r = run_counter(SchemeKind::Lazy);
        assert_eq!(r.stats.lazy_txns, r.stats.tx.commits + r.stats.tx.aborts);
    }

    #[test]
    fn counter_exact_under_dyntm() {
        run_counter(SchemeKind::DynTm);
    }

    #[test]
    fn counter_exact_under_dyntm_suv() {
        run_counter(SchemeKind::DynTmSuv);
    }

    /// Each thread writes its own stripe of lines in transactions; `verify`
    /// peeks every written word `reads` times.
    struct Stripes {
        base: u64,
        lines: u64,
        reads: usize,
    }

    impl Stripes {
        fn word(&self, tid: usize, i: u64) -> u64 {
            self.base + (tid as u64 * self.lines + i) * 64
        }
    }

    impl Workload for Stripes {
        fn name(&self) -> &'static str {
            "stripes"
        }
        fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
            self.base = ctx.alloc_lines(ctx.n_cores() as u64 * self.lines * 64);
        }
        fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
            Box::pin(async move {
                for round in 0..3 {
                    ctx.txn(TxSite(1), async |tx| {
                        for i in 0..self.lines {
                            tx.store(self.word(tid, i), round + i).await?;
                        }
                        Ok(())
                    })
                    .await;
                }
                ctx.barrier().await;
            })
        }
        fn verify(&self, ctx: &mut SetupCtx<'_>) {
            for _ in 0..self.reads {
                for tid in 0..ctx.n_cores() {
                    for i in 0..self.lines {
                        assert_eq!(ctx.peek(self.word(tid, i)), 2 + i);
                    }
                }
            }
        }
    }

    #[test]
    fn verify_reads_reach_no_statistic() {
        let cfg = MachineConfig::small_test();
        let run = |reads| {
            run_workload(&cfg, SchemeKind::SuvTm, &mut Stripes { base: 0, lines: 24, reads })
        };
        let (quiet, read) = (run(0), run(3));
        assert!(quiet.stats.redirect.entries_added > 0, "the stripes must be redirected");
        assert_eq!(read.stats.redirect, quiet.stats.redirect);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_counter(SchemeKind::SuvTm);
        let b = run_counter(SchemeKind::SuvTm);
        assert_eq!(a.stats.cycles, b.stats.cycles, "simulation must be deterministic");
        assert_eq!(a.stats.tx.aborts, b.stats.tx.aborts);
    }

    #[test]
    fn contended_counter_aborts_under_stall_policy() {
        // With this much contention some attempts must stall or abort.
        let r = run_counter(SchemeKind::LogTmSe);
        assert!(
            r.stats.tx.nacks_received > 0 || r.stats.tx.aborts > 0,
            "a fully-contended counter cannot be conflict-free"
        );
    }

    /// A panic in one core's body must propagate straight out of the
    /// executor (the old engine needed a poison-and-wake protocol for
    /// this; the event loop gets it for free).
    #[test]
    fn workload_panic_propagates() {
        struct PanicWorkload;
        impl Workload for PanicWorkload {
            fn name(&self) -> &'static str {
                "panic"
            }
            fn setup(&mut self, _ctx: &mut SetupCtx<'_>) {}
            fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
                Box::pin(async move {
                    ctx.work(1 + tid as u64);
                    assert!(tid != 1, "seeded worker failure");
                    ctx.barrier().await;
                })
            }
        }
        let result = std::panic::catch_unwind(|| {
            let cfg = MachineConfig::small_test();
            run_workload(&cfg, SchemeKind::SuvTm, &mut PanicWorkload)
        });
        assert!(result.is_err(), "the seeded panic must propagate to the caller");
    }

    #[test]
    fn breakdown_accounts_all_time() {
        // Every thread's breakdown total must equal its end-of-run clock
        // exactly: each consumed cycle is attributed to exactly one
        // component, with nothing double-counted and nothing dropped.
        for scheme in SchemeKind::ALL {
            let r = run_counter(scheme);
            assert_eq!(r.stats.per_thread.len(), r.stats.per_thread_cycles.len());
            let mut max_clock = 0;
            for (tid, (b, clock)) in
                r.stats.per_thread.iter().zip(&r.stats.per_thread_cycles).enumerate()
            {
                assert_eq!(
                    b.total(),
                    *clock,
                    "{scheme:?} thread {tid}: breakdown {b:?} does not reconcile \
                     with its end clock"
                );
                max_clock = max_clock.max(*clock);
            }
            // The reported run length is the latest thread clock.
            assert_eq!(max_clock, r.stats.cycles, "{scheme:?}: cycles != max thread clock");
            assert!(r.stats.total_breakdown().total() > 0);
        }
    }
}
