//! The execution-driven CMP simulator.
//!
//! Workloads are real Rust code: each simulated core's per-thread body is
//! an async coroutine, and every memory reference goes through
//! [`ThreadCtx`] into the [`HtmMachine`](suv_htm::machine::HtmMachine),
//! which charges the Table III latencies and enforces transactional
//! semantics. All cores of a cell are multiplexed on **one host thread**
//! by a deterministic cooperative event loop ([`sched::Scheduler`] +
//! the executor in [`runner`]) that always resumes the core with the
//! smallest local clock — so every run is reproducible down to the
//! cycle, and a core-to-core handoff is a function return, not an OS
//! context switch. Host parallelism comes from [`pool`] fanning whole
//! cells across threads.
//!
//! What the host pays per event *around* the machine is fixed cost, and
//! kept to: one comparison for a sync that keeps the baton; for one that
//! loses it, a `Pending` return through one hand-written access future
//! ([`context`]) and one heap operation on packed `u64` keys ([`sched`]);
//! no allocation, and — unless a profiling probe is attached
//! ([`probe`]) — no call around a scheduling quantum.
//!
//! The per-thread clock also drives the Figure 6/9 execution-time
//! breakdown: every consumed cycle is attributed to NoTrans, Trans,
//! Barrier, Backoff, Stalled, Wasted, Aborting or Committing.

pub mod context;
pub mod fault;
pub mod pool;
pub mod probe;
pub mod runner;
pub mod sched;
pub mod scheme;

pub use context::{Abort, Engine, SetupCtx, ThreadCtx, Tx};
pub use fault::{parse_fault_spec, FaultInjector};
pub use pool::{default_workers, run_jobs};
pub use probe::{HostProbe, ProbeHandle};
pub use runner::{
    run_workload, run_workload_profiled, run_workload_traced, CoreFuture, RunResult, TraceConfig,
    Workload,
};
pub use sched::Scheduler;
pub use scheme::{build_vm, Vm};
