//! Allocators over the simulated address space.
//!
//! * [`BumpAllocator`] — the workload heap allocator (no free; STAMP kernels
//!   allocate during setup and, modestly, inside transactions).
//! * [`PoolAllocator`] — SUV's "preserved memory pool": allocates
//!   line-sized redirect slots, page by page, mirroring the paper's
//!   "automatically allocates a page in the preserved redirect pool" with a
//!   redirect-entry pointer to the next available slot. Slots are recycled
//!   through a free list when redirect entries are deleted (the
//!   redirect-back optimization).
//!
//! Exhaustion is a *typed* condition, not a crash: both allocators expose
//! fallible `try_*` entry points returning [`AllocError`], so the layers
//! above can turn a dry pool into a transactional overflow abort (and an
//! escalation to irrevocable execution) instead of killing the simulator.
//! The panicking wrappers remain for contexts where exhaustion really is
//! unreachable; they panic with the `AllocError` itself as the payload so
//! a top-level handler can still recognize simulated OOM.

use crate::layout::Region;
use suv_types::{Addr, LINE_BYTES, PAGE_BYTES};

/// A typed allocation failure in the simulated address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A bump region ran out of bytes.
    RegionExhausted {
        /// Base of the exhausted region.
        base: Addr,
        /// Exclusive end of the exhausted region.
        end: Addr,
        /// Size of the allocation that did not fit.
        requested: u64,
    },
    /// The allocation arithmetic overflowed the 64-bit address space.
    AddressOverflow {
        /// Aligned base the allocation would have started at.
        base: Addr,
        /// Size of the allocation.
        requested: u64,
    },
    /// The redirect pool cannot open another page (region or clamp).
    PoolExhausted {
        /// Pages the pool had already opened when it ran dry.
        pages: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::RegionExhausted { base, end, requested } => write!(
                f,
                "simulated region exhausted: {requested} bytes do not fit in \
                 [{base:#x}, {end:#x})"
            ),
            AllocError::AddressOverflow { base, requested } => {
                write!(f, "address overflow allocating {requested} bytes at {base:#x}")
            }
            AllocError::PoolExhausted { pages } => {
                write!(f, "redirect pool exhausted after {pages} page(s)")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Simple monotonic allocator over a region.
#[derive(Debug, Clone)]
pub struct BumpAllocator {
    region: Region,
    next: Addr,
}

impl BumpAllocator {
    /// Allocator covering `region`, starting at its base.
    pub fn new(region: Region) -> Self {
        BumpAllocator { region, next: region.base }
    }

    /// Allocate `bytes` with the given power-of-two alignment, or report
    /// why the allocation cannot be satisfied.
    ///
    /// # Panics
    /// Panics when `align` is not a power of two (a caller bug, not a
    /// simulated-resource condition).
    pub fn try_alloc(&mut self, bytes: u64, align: u64) -> Result<Addr, AllocError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        let end = base
            .checked_add(bytes)
            .ok_or(AllocError::AddressOverflow { base, requested: bytes })?;
        if end > self.region.end {
            return Err(AllocError::RegionExhausted {
                base: self.region.base,
                end: self.region.end,
                requested: bytes,
            });
        }
        self.next = end;
        Ok(base)
    }

    /// Allocate `bytes` with the given power-of-two alignment.
    ///
    /// # Panics
    /// Panics with the [`AllocError`] as payload when the region is
    /// exhausted (simulated OOM), or when alignment is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        match self.try_alloc(bytes, align) {
            Ok(a) => a,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Fallible form of [`BumpAllocator::alloc_lines`].
    pub fn try_alloc_lines(&mut self, bytes: u64) -> Result<Addr, AllocError> {
        let rounded = (bytes + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        self.try_alloc(rounded.max(LINE_BYTES), LINE_BYTES)
    }

    /// Allocate a line-aligned block of whole lines covering `bytes`.
    pub fn alloc_lines(&mut self, bytes: u64) -> Addr {
        match self.try_alloc_lines(bytes) {
            Ok(a) => a,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Fallible form of [`BumpAllocator::alloc_words`].
    pub fn try_alloc_words(&mut self, n: u64) -> Result<Addr, AllocError> {
        self.try_alloc(n * 8, 8)
    }

    /// Allocate `n` 64-bit words, 8-byte aligned.
    pub fn alloc_words(&mut self, n: u64) -> Addr {
        match self.try_alloc_words(n) {
            Ok(a) => a,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Bytes consumed so far.
    pub fn used(&self) -> u64 {
        self.next - self.region.base
    }

    /// The region this allocator manages.
    pub fn region(&self) -> Region {
        self.region
    }
}

/// SUV redirect-pool allocator: hands out line-sized slots from
/// demand-allocated pages and recycles freed slots.
#[derive(Debug, Clone)]
pub struct PoolAllocator {
    region: Region,
    /// Next never-used slot (the paper's "redirect-entry pointer").
    next_slot: Addr,
    /// End of the currently open page; a new page is "allocated" when the
    /// pointer crosses it.
    page_end: Addr,
    /// Recycled slots from deleted redirect entries.
    free: Vec<Addr>,
    /// Pages allocated so far.
    pages: u64,
    /// Page budget (0 = bounded only by the region). The robustness layer
    /// clamps the pool through this to force the overflow path.
    max_pages: u64,
}

impl PoolAllocator {
    /// Pool allocator over `region`.
    pub fn new(region: Region) -> Self {
        PoolAllocator::bounded(region, 0)
    }

    /// Pool allocator over `region` clamped to at most `max_pages` demand
    /// pages (0 = no clamp beyond the region itself).
    pub fn bounded(region: Region, max_pages: u64) -> Self {
        PoolAllocator {
            region,
            next_slot: region.base,
            page_end: region.base,
            free: Vec::new(),
            pages: 0,
            max_pages,
        }
    }

    /// Allocate one line-sized redirect slot, or report pool exhaustion.
    /// On success returns the slot's line address and whether a fresh page
    /// had to be allocated for it (the caller charges the page-allocation
    /// cost).
    pub fn try_alloc_slot(&mut self) -> Result<(Addr, bool), AllocError> {
        if let Some(a) = self.free.pop() {
            return Ok((a, false));
        }
        let mut new_page = false;
        if self.next_slot >= self.page_end {
            let page_fits = self.next_slot + PAGE_BYTES <= self.region.end;
            let under_budget = self.max_pages == 0 || self.pages < self.max_pages;
            if !page_fits || !under_budget {
                return Err(AllocError::PoolExhausted { pages: self.pages });
            }
            self.page_end = self.next_slot + PAGE_BYTES;
            self.pages += 1;
            new_page = true;
        }
        let a = self.next_slot;
        self.next_slot += LINE_BYTES;
        Ok((a, new_page))
    }

    /// Allocate one line-sized redirect slot.
    ///
    /// # Panics
    /// Panics with the [`AllocError`] as payload when the pool is
    /// exhausted. Overflow-aware callers use
    /// [`PoolAllocator::try_alloc_slot`] instead.
    pub fn alloc_slot(&mut self) -> (Addr, bool) {
        match self.try_alloc_slot() {
            Ok(s) => s,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Return a slot to the pool (redirect entry deleted).
    pub fn free_slot(&mut self, a: Addr) {
        debug_assert!(self.region.contains(a), "freeing a slot outside the pool");
        debug_assert_eq!(a % LINE_BYTES, 0, "pool slots are line-aligned");
        self.free.push(a);
    }

    /// Pages allocated so far.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Line slots handed out and not yet freed: the number every live
    /// redirect-table reference must account for (INV-12).
    pub fn live_slots(&self) -> u64 {
        (self.next_slot - self.region.base) / LINE_BYTES - self.free.len() as u64
    }

    /// Checker support: would the pool consider `a` available? True when
    /// `a` sits beyond the allocation frontier or on the free list — a
    /// *live* redirect slot must never satisfy this (INV-8).
    pub fn is_unallocated(&self, a: Addr) -> bool {
        a >= self.next_slot || self.free.contains(&a)
    }

    /// Runtime audit of the free list, promoted from the `debug_assert!`s
    /// in [`PoolAllocator::free_slot`] so CheckLevel-gated release runs
    /// catch double frees and out-of-region frees too. Returns the first
    /// inconsistency found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut seen = suv_types::LineSet::default();
        for &a in &self.free {
            if !self.region.contains(a) {
                return Err(format!("freed slot {a:#x} lies outside the pool region"));
            }
            if a % LINE_BYTES != 0 {
                return Err(format!("freed slot {a:#x} is not line-aligned"));
            }
            if a >= self.next_slot {
                return Err(format!("freed slot {a:#x} was never allocated"));
            }
            if !seen.insert(a) {
                return Err(format!("slot {a:#x} double-freed (appears twice on the free list)"));
            }
        }
        Ok(())
    }

    /// The region this pool manages.
    pub fn region(&self) -> Region {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Region, HEAP_BASE};

    #[test]
    fn bump_alignment() {
        let mut a = BumpAllocator::new(Region::new(0x1000, 0x1000));
        let p1 = a.alloc(3, 1);
        let p2 = a.alloc(8, 8);
        assert_eq!(p1, 0x1000);
        assert_eq!(p2, 0x1008);
        let p3 = a.alloc_lines(65);
        assert_eq!(p3 % LINE_BYTES, 0);
        assert_eq!(a.used() % 8, 0);
    }

    #[test]
    fn bump_words() {
        let mut a = BumpAllocator::new(Region::heap());
        let p = a.alloc_words(10);
        assert_eq!(p, HEAP_BASE);
        let q = a.alloc_words(1);
        assert_eq!(q, HEAP_BASE + 80);
    }

    #[test]
    fn bump_oom_is_typed() {
        let mut a = BumpAllocator::new(Region::new(0x1000, 0x10));
        match a.try_alloc(0x20, 8) {
            Err(AllocError::RegionExhausted { requested, .. }) => assert_eq!(requested, 0x20),
            other => panic!("expected RegionExhausted, got {other:?}"),
        }
        // The region is not consumed by a failed attempt.
        assert_eq!(a.try_alloc(8, 8), Ok(0x1000));
    }

    #[test]
    fn bump_oom_panics_with_alloc_error_payload() {
        let mut a = BumpAllocator::new(Region::new(0x1000, 0x10));
        let payload = std::panic::catch_unwind(move || a.alloc(0x20, 8))
            .expect_err("exhausted bump alloc must panic");
        let err = payload.downcast_ref::<AllocError>().expect("payload is the AllocError");
        assert!(matches!(err, AllocError::RegionExhausted { .. }), "{err:?}");
    }

    #[test]
    fn bump_address_overflow_is_typed() {
        let mut a = BumpAllocator::new(Region::new(u64::MAX - 0x100, 0x100));
        match a.try_alloc(u64::MAX, 8) {
            Err(AllocError::AddressOverflow { .. }) => {}
            other => panic!("expected AddressOverflow, got {other:?}"),
        }
    }

    #[test]
    fn pool_pages_and_slots() {
        let mut p = PoolAllocator::new(Region::new(0x8000_0000, 0x10_0000));
        let (s0, fresh0) = p.alloc_slot();
        assert!(fresh0, "first slot opens a page");
        assert_eq!(s0, 0x8000_0000);
        // The rest of the page needs no new page.
        let per_page = (PAGE_BYTES / LINE_BYTES) as usize;
        for _ in 1..per_page {
            let (_, fresh) = p.alloc_slot();
            assert!(!fresh);
        }
        let (_, fresh) = p.alloc_slot();
        assert!(fresh, "page boundary crossed");
        assert_eq!(p.pages(), 2);
    }

    #[test]
    fn pool_recycles_freed_slots() {
        let mut p = PoolAllocator::new(Region::pool());
        let (s0, _) = p.alloc_slot();
        let (s1, _) = p.alloc_slot();
        p.free_slot(s0);
        assert_eq!(p.free_slots(), 1);
        let (s2, fresh) = p.alloc_slot();
        assert_eq!(s2, s0);
        assert!(!fresh);
        assert_ne!(s1, s2);
    }

    #[test]
    fn pool_page_clamp_exhausts_then_recycles() {
        let mut p = PoolAllocator::bounded(Region::pool(), 1);
        let per_page = (PAGE_BYTES / LINE_BYTES) as usize;
        let mut slots = Vec::new();
        for _ in 0..per_page {
            slots.push(p.try_alloc_slot().expect("within the single page").0);
        }
        match p.try_alloc_slot() {
            Err(AllocError::PoolExhausted { pages }) => assert_eq!(pages, 1),
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
        assert_eq!(p.live_slots(), per_page as u64);
        // Freed slots satisfy allocations again without a new page.
        p.free_slot(slots[0]);
        assert_eq!(p.try_alloc_slot(), Ok((slots[0], false)));
    }

    #[test]
    fn pool_consistency_audit_catches_double_free() {
        let mut p = PoolAllocator::new(Region::pool());
        let (s0, _) = p.alloc_slot();
        p.free_slot(s0);
        assert!(p.check_consistency().is_ok());
        p.free_slot(s0);
        let msg = p.check_consistency().expect_err("double free must be caught");
        assert!(msg.contains("double-freed"), "{msg}");
    }

    #[test]
    fn pool_consistency_audit_catches_unallocated_free() {
        let mut p = PoolAllocator::new(Region::pool());
        let (s0, _) = p.alloc_slot();
        p.free_slot(s0 + 10 * LINE_BYTES); // beyond the frontier
        let msg = p.check_consistency().expect_err("must be caught");
        assert!(msg.contains("never allocated"), "{msg}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::layout::Region;
    use proptest::prelude::*;

    proptest! {
        /// Bump allocations never overlap and respect alignment.
        #[test]
        fn bump_never_overlaps(reqs in proptest::collection::vec((1u64..128, 0u32..4), 1..100)) {
            let mut a = BumpAllocator::new(Region::heap());
            let mut prev_end = 0u64;
            for (bytes, align_log) in reqs {
                let align = 1u64 << align_log;
                let p = a.alloc(bytes, align);
                prop_assert_eq!(p % align, 0);
                prop_assert!(p >= prev_end);
                prev_end = p + bytes;
            }
        }

        /// Pool slots are unique while live, line-aligned, and inside the pool.
        #[test]
        fn pool_slots_unique(n in 1usize..300, free_every in 2usize..7) {
            let mut p = PoolAllocator::new(Region::pool());
            let mut live = std::collections::HashSet::new();
            let mut allocated = Vec::new();
            for i in 0..n {
                let (s, _) = p.alloc_slot();
                prop_assert_eq!(s % LINE_BYTES, 0);
                prop_assert!(Region::pool().contains(s));
                prop_assert!(live.insert(s), "slot {s:#x} double-allocated");
                allocated.push(s);
                prop_assert_eq!(p.live_slots(), live.len() as u64);
                prop_assert!(p.check_consistency().is_ok());
                if i % free_every == 0 {
                    let victim = allocated.swap_remove(allocated.len() / 2);
                    live.remove(&victim);
                    p.free_slot(victim);
                }
            }
        }

        /// A clamped pool never opens more pages than its budget, and
        /// exhaustion is always the typed error, never a wrong address.
        #[test]
        fn pool_clamp_respected(max_pages in 1u64..4, n in 1usize..400) {
            let mut p = PoolAllocator::bounded(Region::pool(), max_pages);
            for _ in 0..n {
                match p.try_alloc_slot() {
                    Ok((s, _)) => prop_assert!(Region::pool().contains(s)),
                    Err(AllocError::PoolExhausted { pages }) => {
                        prop_assert_eq!(pages, max_pages);
                        break;
                    }
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                }
                prop_assert!(p.pages() <= max_pages);
            }
        }
    }
}
