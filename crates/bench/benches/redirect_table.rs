//! Microbenchmarks: the SUV redirect table (lookup / insert / flash).
//!
//! The `*_full_l1` cases run against a first level holding all 512 entries
//! — the state a long run settles into, and the one in which a cost linear
//! in the table's capacity would show: a hit anywhere in the recency order,
//! an install that evicts, and 32-entry transactions whose every insert
//! evicts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use suv::core::{RedirectTable, Transient};
use suv::mem::{PoolAllocator, Region};
use suv::sig::SummarySignature;
use suv::types::SuvConfig;

const FULL_BASE: u64 = 0x10_0000;
const TX_BASE: u64 = 0x100_0000;

/// A table whose core-0 first level is full: `2 * l1_entries` committed
/// lines from `FULL_BASE` up, of which the newer half is L1-resident and
/// all are in the second level.
fn full_l1(cfg: &SuvConfig) -> (RedirectTable, SummarySignature, PoolAllocator) {
    let mut t = RedirectTable::new(16, cfg);
    let mut sum = SummarySignature::new(cfg.summary_bits, cfg.summary_hashes);
    let mut pool = PoolAllocator::new(Region::pool());
    for i in 0..2 * cfg.l1_entries as u64 {
        let (slot, _) = pool.alloc_slot();
        t.insert_transient(0, FULL_BASE + i * 64, Transient::New { slot });
    }
    t.commit(0, &mut sum, &mut pool);
    (t, sum, pool)
}

fn bench_table(c: &mut Criterion) {
    let cfg = SuvConfig::default();
    let entries = cfg.l1_entries as u64;
    let mut g = c.benchmark_group("redirect_table");
    g.bench_function("lookup_l1_hit", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut sum = SummarySignature::new(2048, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        for i in 0..256u64 {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(0, 0x1000 + i * 64, Transient::New { slot });
        }
        t.commit(0, &mut sum, &mut pool);
        let mut i = 0u64;
        b.iter(|| {
            black_box(t.lookup(0, 0x1000 + (i % 256) * 64));
            i += 1;
        });
    });
    g.bench_function("lookup_miss", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut i = 0u64;
        b.iter(|| {
            black_box(t.lookup(0, 0x100_0000 + i * 64));
            i += 1;
        });
    });
    g.bench_function("lookup_l1_hit_full_l1", |b| {
        let (mut t, ..) = full_l1(&cfg);
        let mut i = 0u64;
        b.iter(|| {
            // The resident half, with a stride that visits every depth of
            // the recency order.
            black_box(t.lookup(0, FULL_BASE + (entries + (i * 7) % entries) * 64));
            i += 1;
        });
    });
    g.bench_function("lookup_install_evict_full_l1", |b| {
        let (mut t, ..) = full_l1(&cfg);
        let mut i = 0u64;
        b.iter(|| {
            // Cycling over twice the capacity: every lookup misses the
            // first level, hits the second, and its install evicts.
            black_box(t.lookup(0, FULL_BASE + (i % (2 * entries)) * 64));
            i += 1;
        });
    });
    g.bench_function("tx32_commit_full_l1", |b| {
        let (mut t, mut sum, mut pool) = full_l1(&cfg);
        let mut base = 0u64;
        b.iter(|| {
            // As `tx_insert_commit_32`, from a full first level: each of
            // the 32 inserts evicts.
            for i in 0..32u64 {
                let line = TX_BASE + ((base + i) % 4096) * 64;
                let redirected = t.lookup(0, line).0.is_some_and(|h| h.committed.is_some());
                if redirected {
                    t.insert_transient(0, line, Transient::DeleteGlobal);
                } else {
                    let (slot, _) = pool.alloc_slot();
                    t.insert_transient(0, line, Transient::New { slot });
                }
            }
            black_box(t.commit(0, &mut sum, &mut pool));
            base += 32;
        });
    });
    g.bench_function("tx32_abort_full_l1", |b| {
        let (mut t, _, mut pool) = full_l1(&cfg);
        let mut base = 0u64;
        b.iter(|| {
            for i in 0..32u64 {
                let (slot, _) = pool.alloc_slot();
                let line = TX_BASE + ((base + i) % 4096) * 64;
                t.insert_transient(0, line, Transient::New { slot });
            }
            black_box(t.abort(0, &mut pool));
            base += 32;
        });
    });
    g.bench_function("tx_insert_commit_32", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut sum = SummarySignature::new(2048, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        let mut base = 0u64;
        b.iter(|| {
            // A fixed 4K-line window: every other visit redirects back,
            // so the table stays bounded and both entry paths are timed.
            for i in 0..32u64 {
                let line = 0x2000 + ((base + i) % 4096) * 64;
                let redirected = t.lookup(0, line).0.is_some_and(|h| h.committed.is_some());
                if redirected {
                    t.insert_transient(0, line, Transient::DeleteGlobal);
                } else {
                    let (slot, _) = pool.alloc_slot();
                    t.insert_transient(0, line, Transient::New { slot });
                }
            }
            t.commit(0, &mut sum, &mut pool);
            base += 32;
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table
}
criterion_main!(benches);
