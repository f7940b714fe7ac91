//! Address-space layout of the simulated machine.
//!
//! The layout is a convention between the workloads, the HTM schemes and the
//! simulator; nothing in the functional memory enforces it, but keeping the
//! regions disjoint lets tests assert that, e.g., SUV pool writes never
//! alias workload data.

use suv_types::{Addr, MAX_CORES};

/// Base of the global/static data region used by workload setup code.
pub const GLOBAL_BASE: Addr = 0x0000_1000;

/// Base of the shared heap used by the transactional allocator.
pub const HEAP_BASE: Addr = 0x1000_0000;

/// Base of the per-thread private regions (LogTM-SE undo logs, stacked
/// nesting frames). Thread `t` owns `[LOG_BASE + t*LOG_STRIDE, +LOG_STRIDE)`;
/// all `MAX_CORES` threads fit below the redirect pool.
pub const LOG_BASE: Addr = 0x4000_0000;

/// Size of each thread's private log region.
pub const LOG_STRIDE: Addr = 0x0100_0000;

/// Base of SUV's reserved redirect pool ("preserved memory pool"): right
/// above the last thread's log region.
pub const POOL_BASE: Addr = LOG_BASE + MAX_CORES as Addr * LOG_STRIDE;

// The regions are disjoint, in address order, for `MAX_CORES` threads.
const _: () = assert!(
    GLOBAL_BASE < HEAP_BASE
        && HEAP_BASE < LOG_BASE
        && LOG_BASE + MAX_CORES as Addr * LOG_STRIDE <= POOL_BASE
);

/// A half-open address range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte of the region.
    pub base: Addr,
    /// One past the last byte.
    pub end: Addr,
}

impl Region {
    /// Construct from base and length.
    pub fn new(base: Addr, len: u64) -> Self {
        Region { base, end: base + len }
    }

    /// The global/static region.
    pub fn globals() -> Self {
        Region { base: GLOBAL_BASE, end: HEAP_BASE }
    }

    /// The shared heap region.
    pub fn heap() -> Self {
        Region { base: HEAP_BASE, end: LOG_BASE }
    }

    /// Thread `t`'s private log region.
    pub fn log(t: usize) -> Self {
        let base = LOG_BASE + t as Addr * LOG_STRIDE;
        Region { base, end: base + LOG_STRIDE }
    }

    /// The SUV redirect pool region.
    pub fn pool() -> Self {
        Region { base: POOL_BASE, end: Addr::MAX }
    }

    /// Does the region contain `a`?
    pub fn contains(&self, a: Addr) -> bool {
        a >= self.base && a < self.end
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.base
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.base >= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_disjoint() {
        let g = Region::globals();
        let h = Region::heap();
        let l0 = Region::log(0);
        let p = Region::pool();
        assert!(g.end <= h.base);
        assert!(h.end <= l0.base);
        // Every thread's log region fits below the pool.
        assert_eq!(Region::log(MAX_CORES - 1).end, p.base);
        assert!(!Region::log(MAX_CORES - 1).contains(p.base));
    }

    #[test]
    fn log_regions_per_thread_disjoint() {
        for t in 0..16 {
            let a = Region::log(t);
            let b = Region::log(t + 1);
            assert_eq!(a.end, b.base);
            assert!(a.contains(a.base));
            assert!(!a.contains(b.base));
        }
    }

    #[test]
    fn contains_and_len() {
        let r = Region::new(0x100, 0x40);
        assert!(r.contains(0x100));
        assert!(r.contains(0x13f));
        assert!(!r.contains(0x140));
        assert_eq!(r.len(), 0x40);
        assert!(!r.is_empty());
    }
}
