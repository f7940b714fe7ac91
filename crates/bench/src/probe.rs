//! The wall-clock [`HostProbe`] — the only implementation in the
//! workspace that reads a real clock (the simulation crates are barred
//! from doing so by the `cargo xtask lint` entropy rule; `suv-bench` is
//! the one crate exempted).
//!
//! A cell's event loop (one host thread, every simulated core a
//! coroutine) reports two host-time components through the probe around
//! every resume: the time inside the resumed core — workload code and the
//! machine calls it makes, up to its next suspension — and the time
//! between resumes, spent in the scheduler's dispatch picking the next
//! core. The `HostProbe` trait requires `Sync`, so accumulation is a pair
//! of relaxed atomic adds, uncontended; the totals are read after the
//! run returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use suv::sim::{HostProbe, ProbeHandle};

/// Accumulating wall-clock probe for profiled bench runs.
pub struct WallProbe {
    epoch: Instant,
    sched_wait_ns: AtomicU64,
    machine_ns: AtomicU64,
}

impl Default for WallProbe {
    fn default() -> Self {
        WallProbe::new()
    }
}

impl WallProbe {
    /// A fresh probe; its epoch is its construction time.
    pub fn new() -> Self {
        WallProbe {
            epoch: Instant::now(),
            sched_wait_ns: AtomicU64::new(0),
            machine_ns: AtomicU64::new(0),
        }
    }

    /// Total host time between resumes (scheduler dispatch), in ms.
    pub fn sched_wait_ms(&self) -> f64 {
        self.sched_wait_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Total host time inside resumed cores (simulation work), in ms.
    pub fn machine_ms(&self) -> f64 {
        self.machine_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

impl HostProbe for WallProbe {
    fn now_ns(&self) -> u64 {
        // u64 nanoseconds cover ~584 years past the epoch; the cast is
        // safe for any realistic run.
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sched_wait(&self, ns: u64) {
        self.sched_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn machine_held(&self, ns: u64) {
        self.machine_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A fresh [`WallProbe`] plus the type-erased handle the runner takes.
/// Keep the concrete `Arc` to read the totals back after the run.
pub fn wall_probe() -> (Arc<WallProbe>, ProbeHandle) {
    let p = Arc::new(WallProbe::new());
    let h: ProbeHandle = Arc::clone(&p) as ProbeHandle;
    (p, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_converts() {
        let p = WallProbe::new();
        p.sched_wait(1_500_000);
        p.sched_wait(500_000);
        p.machine_held(3_000_000);
        assert_eq!(p.sched_wait_ms(), 2.0);
        assert_eq!(p.machine_ms(), 3.0);
    }

    #[test]
    fn now_is_monotonic() {
        let p = WallProbe::new();
        let a = p.now_ns();
        let b = p.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn handle_shares_the_accumulator() {
        let (p, h) = wall_probe();
        h.machine_held(42);
        assert_eq!(p.machine_ns.load(Ordering::Relaxed), 42);
    }
}
