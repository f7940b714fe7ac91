//! Host-side profiling hooks.
//!
//! The simulation crates are bit-deterministic and may not read the wall
//! clock (`clippy.toml`'s `disallowed-methods`), but the bench harness
//! needs to know where *host* time goes: in the scheduler's dispatch,
//! running the machine, or tracing. [`HostProbe`] inverts the dependency — the
//! engine reports durations through the trait, and the only
//! implementation that actually reads a clock lives in `suv-bench`
//! (`WallProbe`). The runner takes an `Option<ProbeHandle>`: a run given
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
