//! Isolation-window and strong-isolation semantics on the raw machine API
//! — the mechanisms behind Figure 1, exercised across crates.

use suv::htm::machine::{Access, CommitOutcome, HtmMachine};
use suv::prelude::*;
use suv::sim::{build_vm, Vm};

fn machine(scheme: SchemeKind) -> HtmMachine<Vm> {
    let cfg = MachineConfig::small_test();
    HtmMachine::new(&cfg, build_vm(scheme, &cfg))
}

fn done(a: Access) -> (u64, u64) {
    match a {
        Access::Done { value, latency } => (value, latency),
        other => panic!("expected Done, got {other:?}"),
    }
}

/// Run a `lines`-line write transaction on core 0 and return the duration
/// of its end operation (commit or abort).
fn end_window(m: &mut HtmMachine<Vm>, lines: u64, commit: bool) -> (u64, u64) {
    let mut t = 0;
    t += m.begin_tx(t, 0, TxSite(1));
    for i in 0..lines {
        let (_, l) = done(m.tx_store(t, 0, 0x2_0000 + i * 64, i + 1));
        t += l;
    }
    let w = if commit {
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { latency, .. } => latency,
            other => panic!("{other:?}"),
        }
    } else {
        m.abort_tx(t, 0)
    };
    (t, w)
}

#[test]
fn suv_abort_window_is_constant_in_write_set() {
    let mut m = machine(SchemeKind::SuvTm);
    let (_, w_small) = end_window(&mut m, 2, false);
    let mut m = machine(SchemeKind::SuvTm);
    let (_, w_big) = end_window(&mut m, 200, false);
    assert_eq!(w_small, w_big, "SUV abort must be O(1)");
}

#[test]
fn logtm_abort_window_grows_with_write_set() {
    let mut m = machine(SchemeKind::LogTmSe);
    let (_, w_small) = end_window(&mut m, 2, false);
    let mut m = machine(SchemeKind::LogTmSe);
    let (_, w_big) = end_window(&mut m, 200, false);
    assert!(w_big > w_small * 10, "LogTM-SE repair must scale: {w_small} -> {w_big}");
}

#[test]
fn lazy_commit_window_grows_with_write_set() {
    let mut m = machine(SchemeKind::Lazy);
    let (_, w_small) = end_window(&mut m, 2, true);
    let mut m = machine(SchemeKind::Lazy);
    let (_, w_big) = end_window(&mut m, 200, true);
    assert!(w_big > w_small * 10, "lazy merge must scale: {w_small} -> {w_big}");
}

#[test]
fn suv_commit_window_is_constant_in_write_set() {
    let mut m = machine(SchemeKind::SuvTm);
    let (_, w_small) = end_window(&mut m, 2, true);
    let mut m = machine(SchemeKind::SuvTm);
    let (_, w_big) = end_window(&mut m, 200, true);
    assert_eq!(w_small, w_big, "SUV commit must be O(1)");
}

#[test]
fn repair_window_blocks_neighbours_then_releases_old_value() {
    let mut m = machine(SchemeKind::LogTmSe);
    m.poke(0x2_0000, 7);
    let (t, w) = end_window(&mut m, 64, false);
    assert!(w > 100);
    // Mid-window: NACKed.
    let mut t1 = t + w / 2;
    t1 += m.begin_tx(t1, 1, TxSite(2));
    match m.tx_load(t1, 1, 0x2_0000) {
        Access::Nacked { nacker, .. } => assert_eq!(nacker, 0),
        other => panic!("expected NACK inside the repair window, got {other:?}"),
    }
    // Past the window: the restored (old) value is visible.
    let (v, _) = done(m.tx_load(t + w + 50, 1, 0x2_0000));
    assert_eq!(v, 7, "pre-transaction value after abort");
}

#[test]
fn suv_values_switch_instantly_on_commit_and_abort() {
    let mut m = machine(SchemeKind::SuvTm);
    m.poke(0x3_0000, 1);
    // Abort: old value immediately after the (tiny) window.
    let (t, w) = {
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        let (_, l) = done(m.tx_store(t, 0, 0x3_0000, 2));
        t += l;
        let w = m.abort_tx(t, 0);
        (t, w)
    };
    assert!(w < 20, "SUV abort window should be a flash, got {w}");
    let (v, _) = done(m.nontx_load(t + w + 1, 1, 0x3_0000));
    assert_eq!(v, 1);
    // Commit: new value visible through the redirect table.
    let mut t2 = t + w + 100;
    t2 += m.begin_tx(t2, 0, TxSite(1));
    let (_, l) = done(m.tx_store(t2, 0, 0x3_0000, 3));
    t2 += l;
    let w2 = match m.commit_tx(t2, 0) {
        CommitOutcome::Committed { latency, .. } => latency,
        other => panic!("{other:?}"),
    };
    let (v, _) = done(m.nontx_load(t2 + w2 + 1, 1, 0x3_0000));
    assert_eq!(v, 3, "committed value must be read through the redirection");
}

#[test]
fn strong_isolation_for_every_scheme() {
    for scheme in [SchemeKind::LogTmSe, SchemeKind::FasTm, SchemeKind::SuvTm] {
        let mut m = machine(scheme);
        m.poke(0x4_0000, 5);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        let (_, l) = done(m.tx_store(t, 0, 0x4_0000, 6));
        t += l;
        // Non-transactional reader must be NACKed, not see a speculative
        // or stale value.
        match m.nontx_load(t + 1, 1, 0x4_0000) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 0, "{scheme:?}");
                assert!(!must_abort);
            }
            Access::Done { value, .. } => {
                panic!("{scheme:?}: strong isolation violated, read {value}")
            }
            other => panic!("{other:?}"),
        }
        m.abort_tx(t + 10, 0);
    }
}

#[test]
fn suv_redirect_survives_nontx_update() {
    // Non-transactional stores write the current version in place and
    // never create or destroy redirections.
    let mut m = machine(SchemeKind::SuvTm);
    m.poke(0x5_0000, 10);
    let mut t = 0;
    t += m.begin_tx(t, 0, TxSite(1));
    let (_, l) = done(m.tx_store(t, 0, 0x5_0000, 11));
    t += l;
    let w = match m.commit_tx(t, 0) {
        CommitOutcome::Committed { latency, .. } => latency,
        other => panic!("{other:?}"),
    };
    let mut t = t + w + 10;
    let (_, l) = done(m.nontx_store(t, 1, 0x5_0000, 12));
    t += l;
    let (v, _) = done(m.nontx_load(t + 1, 2, 0x5_0000));
    assert_eq!(v, 12);
    // A later transaction redirects *back* to the original space.
    let mut t2 = t + 100;
    t2 += m.begin_tx(t2, 3, TxSite(2));
    let (_, l) = done(m.tx_store(t2, 3, 0x5_0000, 13));
    t2 += l;
    match m.commit_tx(t2, 3) {
        CommitOutcome::Committed { .. } => {}
        other => panic!("{other:?}"),
    }
    assert_eq!(m.peek(0x5_0000), 13);
}

#[test]
fn deadlock_cycles_always_resolve() {
    // W-W cross: both transactions write each other's read lines; the
    // possible-cycle rule must abort exactly one (the younger).
    for scheme in [SchemeKind::LogTmSe, SchemeKind::SuvTm] {
        let mut m = machine(scheme);
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        let (_, l) = done(m.tx_load(t0, 0, 0x6_0000));
        t0 += l;
        let mut t1 = t0 + 5;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (_, l) = done(m.tx_load(t1, 1, 0x6_0040));
        t1 += l;
        // 0 -> wants 1's line; 1 -> wants 0's line.
        let r0 = m.tx_store(t0.max(t1) + 1, 0, 0x6_0040, 1);
        let r1 = m.tx_store(t0.max(t1) + 2, 1, 0x6_0000, 1);
        let aborts = [r0, r1]
            .iter()
            .filter(|a| matches!(a, Access::Nacked { must_abort: true, .. }))
            .count();
        assert_eq!(aborts, 1, "{scheme:?}: exactly the younger aborts, got {r0:?} {r1:?}");
    }
}

/// Snapshot consistency: writers update a whole block of cells to one
/// common value atomically; readers load every cell and must never see a
/// torn mixture — under any scheme, including the lazy/DynTM modes where
/// conflicts resolve at commit time.
mod snapshot {
    use suv::prelude::*;
    use suv::types::Addr;

    pub struct SnapshotWorkload {
        pub cells: Addr,
        pub k: u64,
        pub rounds: u64,
    }

    impl Workload for SnapshotWorkload {
        fn name(&self) -> &'static str {
            "snapshot"
        }
        fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
            self.cells = ctx.alloc_lines(self.k * 64);
            for i in 0..self.k {
                ctx.poke(self.cells + i * 64, 1);
            }
        }
        fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
            Box::pin(async move {
                for round in 0..self.rounds {
                    if tid.is_multiple_of(2) {
                        // Writer: set every cell to a fresh common value.
                        let v = ((tid as u64) << 32) | (round + 2);
                        let cells = self.cells;
                        let k = self.k;
                        ctx.txn(TxSite(1), async |tx| {
                            for i in 0..k {
                                tx.store(cells + i * 64, v).await?;
                            }
                            Ok(())
                        })
                        .await;
                    } else {
                        // Reader: every cell must carry the same value, and a
                        // second sweep must agree with the first (repeatable
                        // reads within one transaction).
                        let cells = self.cells;
                        let k = self.k;
                        ctx.txn(TxSite(2), async |tx| {
                            let first = tx.load(cells).await?;
                            for i in 1..k {
                                let v = tx.load(cells + i * 64).await?;
                                assert_eq!(v, first, "torn snapshot at cell {i}");
                            }
                            for i in 0..k {
                                let v = tx.load(cells + i * 64).await?;
                                assert_eq!(v, first, "non-repeatable read at cell {i}");
                            }
                            Ok(())
                        })
                        .await;
                    }
                    ctx.work(30);
                }
                ctx.barrier().await;
            })
        }
        fn verify(&self, ctx: &mut SetupCtx<'_>) {
            let first = ctx.peek(self.cells);
            for i in 1..self.k {
                assert_eq!(ctx.peek(self.cells + i * 64), first, "final state torn");
            }
        }
    }
}

#[test]
fn snapshot_consistency_under_every_scheme() {
    let cfg = MachineConfig::small_test();
    for scheme in SchemeKind::ALL {
        let mut w = snapshot::SnapshotWorkload { cells: 0, k: 6, rounds: 12 };
        let r = run_workload(&cfg, scheme, &mut w);
        assert!(r.stats.tx.commits > 0, "{scheme:?}");
    }
}

#[test]
fn snapshot_consistency_with_perfect_signatures() {
    let mut cfg = MachineConfig::small_test();
    cfg.htm.perfect_signatures = true;
    let mut w = snapshot::SnapshotWorkload { cells: 0, k: 6, rounds: 12 };
    let r = run_workload(&cfg, SchemeKind::SuvTm, &mut w);
    assert!(r.stats.tx.commits > 0);
}

#[test]
fn perfect_signatures_never_increase_conflicts() {
    let mut bloom_cfg = MachineConfig::small_test();
    bloom_cfg.htm.signature_bits = 64; // tiny: provoke false positives
    let mut perfect_cfg = bloom_cfg;
    perfect_cfg.htm.perfect_signatures = true;
    let mut w = snapshot::SnapshotWorkload { cells: 0, k: 6, rounds: 12 };
    let bloom = run_workload(&bloom_cfg, SchemeKind::SuvTm, &mut w);
    let mut w = snapshot::SnapshotWorkload { cells: 0, k: 6, rounds: 12 };
    let perfect = run_workload(&perfect_cfg, SchemeKind::SuvTm, &mut w);
    assert!(
        perfect.stats.tx.nacks_received <= bloom.stats.tx.nacks_received,
        "perfect sigs NACKed more ({}) than 64-bit Bloom ({})",
        perfect.stats.tx.nacks_received,
        bloom.stats.tx.nacks_received
    );
}
