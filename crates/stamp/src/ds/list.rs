//! Transactional singly-linked list.
//!
//! Nodes are `[value, next]` pairs allocated from a [`TxSlab`]; the head
//! pointer lives on its own line. Used for genome's overlap chains and
//! vacation's per-customer reservation lists.

use crate::ds::slab::TxSlab;
use suv_sim::{Abort, SetupCtx, Tx};
use suv_types::Addr;

/// Null link.
pub const NIL: u64 = 0;

/// Transactional list head.
#[derive(Debug, Clone, Copy)]
pub struct TxList {
    head: Addr,
}

impl TxList {
    /// Allocate an empty list.
    pub fn new(ctx: &mut SetupCtx<'_>) -> Self {
        let head = ctx.alloc_lines(8);
        ctx.poke(head, NIL);
        TxList { head }
    }

    /// Push `value` at the front inside a transaction, allocating the
    /// node from `slab`.
    pub async fn push_front(
        &self,
        tx: &mut Tx<'_>,
        slab: &TxSlab,
        tid: usize,
        value: u64,
    ) -> Result<(), Abort> {
        let node = slab.alloc(tx, tid, 2).await?;
        let old = tx.load(self.head).await?;
        tx.store(node, value).await?;
        tx.store(node + 8, old).await?;
        tx.store(self.head, node).await?;
        Ok(())
    }

    /// Pop the front value inside a transaction.
    pub async fn pop_front(&self, tx: &mut Tx<'_>) -> Result<Option<u64>, Abort> {
        let node = tx.load(self.head).await?;
        if node == NIL {
            return Ok(None);
        }
        let v = tx.load(node).await?;
        let next = tx.load(node + 8).await?;
        tx.store(self.head, next).await?;
        Ok(Some(v))
    }

    /// Walk the list inside a transaction, returning (length, value sum).
    pub async fn fold(&self, tx: &mut Tx<'_>) -> Result<(u64, u64), Abort> {
        let mut node = tx.load(self.head).await?;
        let mut n = 0;
        let mut sum = 0u64;
        while node != NIL {
            sum = sum.wrapping_add(tx.load(node).await?);
            node = tx.load(node + 8).await?;
            n += 1;
        }
        Ok((n, sum))
    }
}
