//! Per-thread transactional slab allocator.
//!
//! STAMP kernels allocate nodes inside transactions; the C original uses
//! per-thread memory pools so allocation itself does not become a
//! contention point. [`TxSlab`] mirrors that: each thread owns a region
//! and a bump pointer *stored in simulated memory*, so an aborted
//! transaction's allocations roll back with everything else and the
//! pointer cells (one cache line apart) never conflict across threads.

use suv_sim::{Abort, SetupCtx, Tx};
use suv_types::Addr;

/// Per-thread bump allocator in simulated memory.
#[derive(Debug, Clone)]
pub struct TxSlab {
    /// Per-thread bump-pointer cells (each on its own line).
    ptr_cells: Vec<Addr>,
    /// Per-thread slab end (exclusive).
    limits: Vec<Addr>,
}

impl TxSlab {
    /// Carve a slab of `words_per_thread` words for each of `n_threads`.
    pub fn new(ctx: &mut SetupCtx<'_>, n_threads: usize, words_per_thread: u64) -> Self {
        let mut ptr_cells = Vec::with_capacity(n_threads);
        let mut limits = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            // The pointer cell gets its own line so threads never share.
            let cell = ctx.alloc_lines(8);
            let base = ctx.alloc_lines(words_per_thread * 8);
            ctx.poke(cell, base);
            ptr_cells.push(cell);
            limits.push(base + words_per_thread * 8);
        }
        TxSlab { ptr_cells, limits }
    }

    /// Allocate `words` words inside a transaction. The allocation is
    /// line-aligned when `words >= 8` to keep unrelated nodes off shared
    /// lines.
    pub async fn alloc(&self, tx: &mut Tx<'_>, tid: usize, words: u64) -> Result<Addr, Abort> {
        let cell = self.ptr_cells[tid];
        let mut p = tx.load(cell).await?;
        if words >= 8 {
            p = (p + 63) & !63;
        }
        let next = p + words * 8;
        assert!(next <= self.limits[tid], "thread {tid} slab exhausted");
        tx.store(cell, next).await?;
        Ok(p)
    }
}
