//! Cross-crate integration: every scheme runs the same programs on the
//! full stack and preserves transactional semantics.

use suv::prelude::*;
use suv::types::Addr;

/// N threads transfer value between B accounts; the total is conserved.
struct BankWorkload {
    accounts: Addr,
    n_accounts: u64,
    transfers: u64,
    total: u64,
}

impl Workload for BankWorkload {
    fn name(&self) -> &'static str {
        "bank"
    }
    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.accounts = ctx.alloc_lines(self.n_accounts * 64);
        for a in 0..self.n_accounts {
            ctx.poke(self.accounts + a * 64, 1000);
        }
        self.total = self.n_accounts * 1000;
    }
    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            for i in 0..self.transfers {
                let h = suv::stamp::ds::mix64((tid as u64) << 32 | i);
                let from = self.accounts + (h % self.n_accounts) * 64;
                let to = self.accounts + ((h >> 16) % self.n_accounts) * 64;
                if from == to {
                    continue;
                }
                ctx.txn(TxSite(1), async |tx| {
                    let f = tx.load(from).await?;
                    let amount = h % 7 + 1;
                    if f >= amount {
                        tx.store(from, f - amount).await?;
                        let t = tx.load(to).await?;
                        tx.work(4);
                        tx.store(to, t + amount).await?;
                    }
                    Ok(())
                })
                .await;
                ctx.work(25);
            }
            ctx.barrier().await;
        })
    }
    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        let sum: u64 = (0..self.n_accounts).map(|a| ctx.peek(self.accounts + a * 64)).sum();
        assert_eq!(sum, self.total, "money created or destroyed");
    }
}

fn bank() -> BankWorkload {
    BankWorkload { accounts: 0, n_accounts: 8, transfers: 30, total: 0 }
}

#[test]
fn bank_conserves_money_under_every_scheme() {
    let cfg = MachineConfig::small_test();
    for scheme in SchemeKind::ALL {
        let mut w = bank();
        let r = run_workload(&cfg, scheme, &mut w);
        assert!(r.stats.tx.commits > 0, "{scheme:?}: nothing committed");
    }
}

#[test]
fn bank_is_deterministic_under_every_scheme() {
    let cfg = MachineConfig::small_test();
    for scheme in SchemeKind::ALL {
        let a = run_workload(&cfg, scheme, &mut bank());
        let b = run_workload(&cfg, scheme, &mut bank());
        assert_eq!(a.stats.cycles, b.stats.cycles, "{scheme:?} run not reproducible");
        assert_eq!(a.stats.tx.aborts, b.stats.tx.aborts, "{scheme:?} aborts differ");
        assert_eq!(
            a.stats.total_breakdown(),
            b.stats.total_breakdown(),
            "{scheme:?} breakdown differs"
        );
    }
}

#[test]
fn backoff_is_deterministic_under_every_scheme() {
    // The randomized exponential backoff is seeded from the deterministic
    // simulation state, so identical runs must spend identical backoff
    // cycles on every core — for all six schemes. A drift here would break
    // the trace-hash reproducibility oracle in the sweep engine.
    let cfg = MachineConfig::small_test();
    for scheme in SchemeKind::ALL {
        let a = run_workload(&cfg, scheme, &mut bank());
        let b = run_workload(&cfg, scheme, &mut bank());
        let backoff =
            |r: &RunResult| r.stats.per_thread.iter().map(|t| t.backoff).collect::<Vec<_>>();
        assert_eq!(backoff(&a), backoff(&b), "{scheme:?}: per-core backoff cycles drifted");
    }
}

#[test]
fn commits_equal_across_schemes_for_fixed_work() {
    // The bank does a fixed number of dynamic transactions; commit counts
    // must agree across schemes even though timing differs.
    let cfg = MachineConfig::small_test();
    let counts: Vec<u64> = SchemeKind::ALL
        .iter()
        .map(|s| run_workload(&cfg, *s, &mut bank()).stats.tx.commits)
        .collect();
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1], "commit counts diverged: {counts:?}");
    }
}

#[test]
fn breakdown_totals_are_consistent() {
    let cfg = MachineConfig::small_test();
    for scheme in SchemeKind::ALL {
        let r = run_workload(&cfg, scheme, &mut bank());
        for (tid, b) in r.stats.per_thread.iter().enumerate() {
            assert!(
                b.total() <= r.stats.cycles,
                "{scheme:?} thread {tid}: breakdown {} exceeds makespan {}",
                b.total(),
                r.stats.cycles
            );
        }
        // Wall time is within the max thread's accounted time plus the
        // final barrier alignment.
        let max_thread =
            r.stats.per_thread.iter().map(suv::prelude::Breakdown::total).max().unwrap();
        assert!(max_thread * 2 >= r.stats.cycles, "{scheme:?}: unaccounted time");
    }
}

#[test]
fn suv_only_stats_appear_only_under_suv() {
    let cfg = MachineConfig::small_test();
    let suv = run_workload(&cfg, SchemeKind::SuvTm, &mut bank());
    assert!(suv.stats.redirect.entries_added > 0);
    assert!(suv.stats.redirect.l1_lookups > 0);
    let logtm = run_workload(&cfg, SchemeKind::LogTmSe, &mut bank());
    assert_eq!(logtm.stats.redirect.entries_added, 0);
    let lazy = run_workload(&cfg, SchemeKind::Lazy, &mut bank());
    assert_eq!(lazy.stats.lazy_txns, lazy.stats.tx.commits + lazy.stats.tx.aborts);
}

#[test]
fn dyntm_mode_counters_partition_transactions() {
    let cfg = MachineConfig::small_test();
    let r = run_workload(&cfg, SchemeKind::DynTm, &mut bank());
    let attempts = r.stats.tx.commits + r.stats.tx.aborts;
    assert_eq!(r.stats.lazy_txns + r.stats.eager_txns, attempts);
}

/// Nested transactions (flattened closed nesting) preserve atomicity of
/// the outermost scope.
struct NestedWorkload {
    cell: Addr,
    iters: u64,
}

impl Workload for NestedWorkload {
    fn name(&self) -> &'static str {
        "nested"
    }
    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.cell = ctx.alloc_words(1);
    }
    fn run<'a>(&'a self, _tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            for _ in 0..self.iters {
                let cell = self.cell;
                ctx.txn(TxSite(1), async |tx| {
                    let v = tx.load(cell).await?;
                    tx.nested(TxSite(2), async |tx| {
                        tx.store(cell, v + 1).await?;
                        Ok(())
                    })
                    .await?;
                    Ok(())
                })
                .await;
                ctx.work(10);
            }
            ctx.barrier().await;
        })
    }
    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        // The increments are atomic end to end despite nesting.
        assert_eq!(ctx.peek(self.cell), self.iters * 4, "nested atomicity broken");
    }
}

#[test]
fn nested_transactions_flatten_correctly() {
    let cfg = MachineConfig::small_test();
    for scheme in [SchemeKind::LogTmSe, SchemeKind::SuvTm, SchemeKind::DynTmSuv] {
        let mut w = NestedWorkload { cell: 0, iters: 10 };
        let r = run_workload(&cfg, scheme, &mut w);
        assert_eq!(r.stats.tx.commits, 40, "{scheme:?}: only outermost commits count");
    }
}

/// Partial-abort nesting (LogTM-Nested stacked frames) across every
/// version manager that supports it — including SUV, whose inner levels
/// save pre-level slot contents.
mod partial_nesting {
    use suv::htm::machine::{Access, CommitOutcome, HtmMachine};
    use suv::prelude::*;
    use suv::sim::build_vm;

    fn done(a: Access) -> u64 {
        match a {
            Access::Done { latency, .. } => latency,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    fn exercise(scheme: SchemeKind) {
        let cfg = MachineConfig::small_test();
        let mut m = HtmMachine::new(&cfg, build_vm(scheme, &cfg));
        m.poke(0x100, 1); // shared by outer+inner
        m.poke(0x140, 2); // inner only
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        t += done(m.tx_store(t, 0, 0x100, 10));
        // Nested level overwrites the outer line and writes a fresh one,
        // then partially aborts.
        t += m.begin_tx(t, 0, TxSite(2));
        t += done(m.tx_store(t, 0, 0x100, 20));
        t += done(m.tx_store(t, 0, 0x140, 21));
        let d = m.abort_nested(t, 0).unwrap_or_else(|| panic!("{scheme:?} supports partial abort"));
        t += d;
        // Outer view: its own speculative value, and the pre-tx inner line.
        match m.tx_load(t, 0, 0x100) {
            Access::Done { value, latency } => {
                assert_eq!(value, 10, "{scheme:?}: outer speculative value");
                t += latency;
            }
            other => panic!("{other:?}"),
        }
        match m.tx_load(t, 0, 0x140) {
            Access::Done { value, latency } => {
                assert_eq!(value, 2, "{scheme:?}: inner write rolled back");
                t += latency;
            }
            other => panic!("{other:?}"),
        }
        // A second nested level commits this time; everything persists.
        t += m.begin_tx(t, 0, TxSite(3));
        t += done(m.tx_store(t, 0, 0x140, 30));
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { latency, .. } => t += latency,
            other => panic!("{other:?}"),
        }
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.peek(0x100), 10, "{scheme:?}");
        assert_eq!(m.peek(0x140), 30, "{scheme:?}");
    }

    #[test]
    fn logtm_partial_abort() {
        exercise(SchemeKind::LogTmSe);
    }
    #[test]
    fn fastm_partial_abort() {
        exercise(SchemeKind::FasTm);
    }
    #[test]
    fn suv_partial_abort() {
        exercise(SchemeKind::SuvTm);
    }

    /// SUV partial abort must stay O(1) apart from the frame restores.
    #[test]
    fn suv_partial_abort_is_cheap() {
        let cfg = MachineConfig::small_test();
        let mut m = HtmMachine::new(&cfg, build_vm(SchemeKind::SuvTm, &cfg));
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        t += m.begin_tx(t, 0, TxSite(2));
        for i in 0..50u64 {
            t += done(m.tx_store(t, 0, 0x1000 + i * 64, i));
        }
        let d = m.abort_nested(t, 0).expect("partial abort");
        assert!(d < 20, "fresh-line partial abort must be a flash, got {d}");
        m.abort_tx(t + d, 0);
    }
}
