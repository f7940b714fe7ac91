//! genome — gene sequencing (Table IV: short transactions, high
//! contention).
//!
//! Phase 1 deduplicates DNA segments into a shared hash set — many
//! threads insert the *same* popular segments, which is where the
//! contention comes from. Phase 2 links unique segments into overlap
//! chains through a shared successor map plus a global chained-count.

use crate::ds::{mix64, TxHashMap};
use crate::workloads::SuiteScale;
use suv_sim::{CoreFuture, SetupCtx, ThreadCtx, Workload};
use suv_types::{Addr, TxSite};

/// The genome workload.
pub struct Genome {
    n_segments: u64,
    gene_len: u64,
    segments_table: TxHashMap,
    chain_table: TxHashMap,
    /// Global count of chained segments (hot word).
    chained: Addr,
    threads: usize,
}

impl Genome {
    /// Build at the given scale.
    pub fn new(scale: SuiteScale) -> Self {
        let (n_segments, gene_len) = match scale {
            SuiteScale::Tiny => (256, 64),
            SuiteScale::Paper => (8192, 1024),
            // 64 segments per thread at 256 cores. Deliberately a
            // contention stressor: phase 2 funnels every chain through the
            // global `chained` counter, so abort ratios pass 98% beyond 64
            // cores and host time grows with cores x gene_len. Use it to
            // study collapse, not for quick sweeps — the default
            // `--scaling` app set leaves it out for exactly that reason.
            SuiteScale::Scale => (16384, 2048),
        };
        Genome {
            n_segments,
            gene_len,
            segments_table: TxHashMap::placeholder(),
            chain_table: TxHashMap::placeholder(),
            chained: 0,
            threads: 0,
        }
    }

    /// Segment `i` of the input stream: a position in the gene, drawn with
    /// heavy duplication (segments overlap, as in real sequencing input).
    fn segment(&self, i: u64) -> u64 {
        mix64(i) % self.gene_len + 1
    }
}

impl Workload for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.threads = ctx.n_cores();
        self.segments_table = TxHashMap::new(ctx, (self.gene_len * 4).next_power_of_two());
        self.chain_table = TxHashMap::new(ctx, (self.gene_len * 4).next_power_of_two());
        self.chained = ctx.alloc_lines(8);
    }

    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            let per = self.n_segments.div_ceil(self.threads as u64);
            let lo = tid as u64 * per;
            let hi = (lo + per).min(self.n_segments);

            // Phase 1: deduplicate segments into the shared set.
            for i in lo..hi {
                let seg = self.segment(i);
                let table = &self.segments_table;
                ctx.txn(TxSite(40), async |tx| {
                    table.insert(tx, seg, 1).await?;
                    Ok(())
                })
                .await;
                ctx.work(50);
            }
            ctx.barrier().await;

            // Phase 2: build overlap chains — link each unique segment to its
            // successor when both exist; bump the shared chained counter.
            let chunk = self.gene_len.div_ceil(self.threads as u64);
            let clo = tid as u64 * chunk + 1;
            let chi = (clo + chunk).min(self.gene_len + 1);
            for seg in clo..chi {
                let segments = &self.segments_table;
                let chain = &self.chain_table;
                let chained = self.chained;
                let succ = seg % self.gene_len + 1;
                ctx.txn(TxSite(41), async |tx| {
                    if segments.get(tx, seg).await?.is_some()
                        && segments.get(tx, succ).await?.is_some()
                        && chain.insert(tx, seg, succ).await?
                    {
                        let n = tx.load(chained).await?;
                        tx.work(10);
                        tx.store(chained, n + 1).await?;
                    }
                    Ok(())
                })
                .await;
                ctx.work(40);
            }
            ctx.barrier().await;
        })
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        // The deduplicated set must contain exactly the distinct segments
        // of the input stream.
        #[expect(clippy::disallowed_types, reason = "off the simulated path: a setup-time count")]
        let distinct: std::collections::HashSet<u64> =
            (0..self.n_segments).map(|i| self.segment(i)).collect();
        assert_eq!(self.segments_table.len_setup(ctx), distinct.len() as u64, "dedup wrong");
        // The chain counter matches the chain table exactly.
        assert_eq!(ctx.peek(self.chained), self.chain_table.len_setup(ctx), "chain count");
        assert!(ctx.peek(self.chained) > 0, "nothing chained");
    }
}
