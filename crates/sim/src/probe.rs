//! Host-side profiling hooks.
//!
//! The simulation crates are bit-deterministic and may not read the wall
//! clock (`clippy.toml`'s `disallowed-methods`), but the bench harness
//! needs to know where *host* time goes: in the scheduler's dispatch,
//! running the machine, or tracing. [`HostProbe`] inverts the dependency — the
//! engine reports durations through the trait, and the only
//! implementation that actually reads a clock is `benchmark/`'s
//! `WallProbe` (its own cargo workspace, outside this one: no crate here
//! reads a clock). The runner takes an `Option<ProbeHandle>`: a run given
//! `None` — every run but a profiled one — has no probe object at all, so
//! it pays one predictable branch where a probed run reads the clock and
//! no virtual call anywhere (and nothing, probed or not, on the
//! per-access fast path).
//!
//! Probing is observational only: no simulated quantity depends on a
//! probe reading, so profiled runs remain bit-identical to bare ones.

use std::sync::Arc;

/// Sink for host-time measurements taken by the execution engine.
///
/// A cell's event loop reports from its one host thread; the `Sync`
/// bound only lets a handle be shared with whoever reads the totals.
pub trait HostProbe: Send + Sync {
    /// Opaque monotonic timestamp in nanoseconds. The engine only ever
    /// subtracts pairs of these; the epoch is the implementation's
    /// choice.
    fn now_ns(&self) -> u64;

    /// `ns` of host time the event loop spent between two resumes:
    /// picking the next core to dispatch (or retiring a finished one).
    fn sched_wait(&self, ns: u64);

    /// `ns` of host time inside one resume of a core's coroutine: its
    /// workload code and machine calls up to the next suspension (one
    /// scheduling quantum of actual simulation work).
    fn machine_held(&self, ns: u64);
}

/// The probe handle threaded through the engine.
pub type ProbeHandle = Arc<dyn HostProbe>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SetupCtx, ThreadCtx};
    use crate::runner::{run_workload_profiled, CoreFuture, RunResult, TraceConfig, Workload};
    use std::sync::atomic::{AtomicU64, Ordering};
    use suv_types::{Addr, MachineConfig, SchemeKind, TxSite};

    /// A clock-free probe: `now_ns` is a counter, so what it accumulates
    /// is deterministic and nothing reads the host clock.
    #[derive(Default)]
    struct TickProbe {
        ticks: AtomicU64,
        quanta: AtomicU64,
    }

    impl HostProbe for TickProbe {
        fn now_ns(&self) -> u64 {
            self.ticks.fetch_add(1, Ordering::Relaxed)
        }
        fn sched_wait(&self, _ns: u64) {}
        fn machine_held(&self, _ns: u64) {
            self.quanta.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every core increments one shared counter in a few transactions.
    struct Counter(Addr);

    impl Workload for Counter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
            self.0 = ctx.alloc_words(1);
        }
        fn run<'a>(&'a self, _tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
            Box::pin(async move {
                for _ in 0..8 {
                    let addr = self.0;
                    ctx.txn(TxSite(1), async |tx| {
                        let v = tx.load(addr).await?;
                        tx.store(addr, v + 1).await?;
                        Ok(())
                    })
                    .await;
                    ctx.work(10);
                }
                ctx.barrier().await;
            })
        }
    }

    #[test]
    fn a_probe_does_not_perturb() {
        let cfg = MachineConfig::small_test();
        let tc = Some(TraceConfig::default());
        for scheme in SchemeKind::ALL {
            let bare = run_workload_profiled(&cfg, scheme, &mut Counter(0), tc, None);
            let probe = Arc::new(TickProbe::default());
            let handle: ProbeHandle = Arc::clone(&probe) as ProbeHandle;
            let probed = run_workload_profiled(&cfg, scheme, &mut Counter(0), tc, Some(handle));
            assert!(probe.quanta.load(Ordering::Relaxed) >= 1, "{scheme:?}: no quantum reported");
            assert_eq!(probed.stats, bare.stats, "{scheme:?}: probing moved the statistics");
            assert_eq!(probed.trace_hash, bare.trace_hash, "{scheme:?}: probing moved the trace");
            assert_ne!(bare.trace_hash, 0, "{scheme:?}: the runs are traced");
            let counter = |r: &RunResult, name| r.trace.as_ref().map(|t| t.metrics.counter(name));
            for name in ["sched.handoffs_taken", "sched.handoffs_elided", "sched.barrier_arrivals"]
            {
                assert_eq!(counter(&probed, name), counter(&bare, name), "{scheme:?}: {name}");
            }
        }
    }
}
