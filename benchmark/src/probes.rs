//! Layer probes: host nanoseconds per operation for one public function
//! of each crate an access crosses, measured from outside.
//!
//! Every probe is a fixed-count loop over a seeded address stream. A
//! batch starts from freshly built state (built outside the timed
//! region), returns a checksum that must be identical in every batch —
//! so the optimiser cannot drop the work and a layer that stops being
//! deterministic is caught here — and the reported figure is the median
//! batch.

use crate::stats::{median, Stream};
use crate::workloads::{Size, SCHEMES};
use std::hint::black_box;
use std::time::Instant;
use suv::cache::{Directory, TagArray};
use suv::coherence::{AccessKind, MemorySystem};
use suv::core::{RedirectTable, Transient};
use suv::htm::{Access, CommitOutcome, HtmMachine, SwCommitOutcome};
use suv::mem::{Memory, PoolAllocator, Region, HEAP_BASE};
use suv::noc::Mesh;
use suv::oltp::{TrafficConfig, TrafficGen};
use suv::prelude::*;
use suv::sig::{Signature, SummarySignature};
use suv::sim::build_vm;
use suv::trace::LatencyHistogram;
use suv::types::{Addr, CacheGeom, SharerSet, LINE_BYTES, PAGE_BYTES};
use suv_verify::{run_verify, VerifyEngine, VerifyRequest};

/// One layer metric: `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// Batches per probe: 15 at full size, 3 at smoke size. The two
/// offline-tool probes are heavier: `check.serial_ns_per_event` runs 3
/// batches (1 at smoke size) and `verify.protocol_states_per_s`, at most
/// of a second per exploration, runs once.
pub const BATCHES: usize = 15;
pub const SMOKE_BATCHES: usize = 3;
const CHECK_BATCHES: usize = 3;

/// Median ns per operation over `batches` runs of `body`, each on a fresh
/// `setup()` state. `body` returns a checksum that every batch must
/// reproduce.
fn ns_per_op<S>(
    name: &str,
    batches: usize,
    ops: u64,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> u64,
) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(batches);
    let mut expected = None;
    for batch in 0..batches {
        let mut state = setup();
        let start = Instant::now();
        let checksum = black_box(body(black_box(&mut state)));
        samples.push(start.elapsed().as_nanos() as f64 / ops as f64);
        drop(state);
        match expected {
            None => expected = Some(checksum),
            Some(e) if e == checksum => {}
            Some(e) => {
                return Err(format!(
                    "{name}: batch {batch} checksum {checksum:#x} != {e:#x} of batch 0"
                ))
            }
        }
    }
    Ok(median(&samples))
}

/// Collects the probes' results: every ordinary probe runs the same
/// number of batches and reports ns per operation under its own name.
struct Probes {
    batches: usize,
    out: Vec<Metric>,
}

impl Probes {
    fn ns<S>(
        &mut self,
        name: &str,
        ops: u64,
        setup: impl FnMut() -> S,
        body: impl FnMut(&mut S) -> u64,
    ) -> Result<(), String> {
        let v = ns_per_op(name, self.batches, ops, setup, body)?;
        self.out.push((name.to_string(), v, "ns"));
        Ok(())
    }
}

/// `n` line-aligned addresses drawn from `lines` consecutive heap lines.
fn line_stream(stream: &mut Stream, n: usize, lines: u64) -> Vec<Addr> {
    (0..n).map(|_| HEAP_BASE + stream.below(lines) * LINE_BYTES).collect()
}

/// Advance `now` past a completed access; anything else is a harness bug
/// on these conflict-free single-core streams.
fn done(now: &mut u64, what: &str, a: Access) -> u64 {
    match a {
        Access::Done { value, latency } => {
            *now += latency;
            value
        }
        other => panic!("{what}: expected the access to complete, got {other:?}"),
    }
}

/// 16 cores storing and loading private lines: the event loop and the L1
/// hit path, nothing else (the `engine` criterion bench's workload).
struct Spin {
    cell: Addr,
    iters: u64,
}

impl Workload for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }
    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.cell = ctx.alloc_lines(8);
    }
    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            let base = self.cell + 0x1000 * (1 + tid as u64);
            for i in 0..self.iters {
                ctx.store(base, i).await;
                ctx.load(base).await;
            }
            ctx.barrier().await;
        })
    }
}

/// Run every layer probe. `Err` names the first probe whose checksum or
/// result was wrong; panics inside a layer propagate to the caller's
/// `catch_unwind`.
pub fn run_probes(seed: u64, size: Size) -> Result<Vec<Metric>, String> {
    let batches = if size == Size::Full { BATCHES } else { SMOKE_BATCHES };
    let check_batches = if size == Size::Full { CHECK_BATCHES } else { 1 };
    let mut probes = Probes { batches, out: Vec::new() };
    let mut salt = 0;
    let mut stream = || {
        salt += 1;
        Stream::new(seed, salt)
    };
    let cfg16 = MachineConfig { n_cores: 16, ..Default::default() };
    let cfg128 = MachineConfig { n_cores: 128, ..Default::default() };

    // ---- suv-mem -------------------------------------------------------
    {
        const PAGES: u64 = 4096;
        const N: usize = 1 << 20;
        let mut s = stream();
        let addrs: Vec<Addr> = (0..N)
            .map(|_| HEAP_BASE + s.below(PAGES) * PAGE_BYTES + s.below(PAGE_BYTES / 8) * 8)
            .collect();
        let touched = || {
            let mut m = Memory::new();
            for p in 0..PAGES {
                m.write_word(HEAP_BASE + p * PAGE_BYTES, p + 1);
            }
            m
        };
        probes.ns("mem.read_word_ns", N as u64, touched, |m| {
            addrs.iter().fold(0u64, |sum, a| sum.wrapping_add(m.read_word(*a)))
        })?;
        probes.ns("mem.write_word_ns", N as u64, touched, |m| {
            for (i, a) in addrs.iter().enumerate() {
                m.write_word(*a, i as u64);
            }
            m.touched_lines() as u64 ^ m.read_word(addrs[N - 1])
        })?;

        const SLOTS: usize = 1 << 18;
        let fresh = || PoolAllocator::new(Region::pool());
        probes.ns("mem.pool_slot_ns", SLOTS as u64, fresh, |pool| {
            let mut sum = 0u64;
            let mut held = [0u64; 64];
            for _ in 0..SLOTS / held.len() {
                for h in &mut held {
                    *h = pool.alloc_slot().0;
                    sum = sum.wrapping_add(*h);
                }
                for h in held {
                    pool.free_slot(h);
                }
            }
            sum ^ pool.pages()
        })?;
    }

    // ---- suv-types -----------------------------------------------------
    for (name, cores) in [("types.sharers_ns", 16u64), ("types.sharers_spill_ns", 128)] {
        const N: usize = 1 << 20;
        let mut s = stream();
        let ids: Vec<usize> = (0..N).map(|_| s.below(cores) as usize).collect();
        probes.ns(name, N as u64, SharerSet::new, |set| {
            let mut sum = 0u64;
            for &c in &ids {
                if !set.insert(c) {
                    set.remove(c);
                }
                sum += u64::from(set.count()) + u64::from(set.contains(c ^ 1));
            }
            sum
        })?;
    }

    // ---- suv-cache -----------------------------------------------------
    {
        const N: usize = 1 << 20;
        let l1 = CacheGeom::l1_default();
        let resident = l1.lines() as u64;
        let hits = line_stream(&mut stream(), N, resident);
        let filled = || {
            let mut t: TagArray<u8> = TagArray::new(&l1);
            for i in 0..resident {
                t.insert(HEAP_BASE + i * LINE_BYTES, false);
            }
            t
        };
        probes.ns("cache.tag_hit_ns", N as u64, filled, |t| {
            hits.iter().filter(|a| t.hit_load(**a).is_some()).count() as u64
        })?;

        const INSERTS: u64 = 1 << 17;
        let l2 = CacheGeom::l2_default();
        let capacity = l2.lines() as u64;
        let full = || {
            let mut t: TagArray<u8> = TagArray::new(&l2);
            for i in 0..capacity {
                t.insert(HEAP_BASE + i * LINE_BYTES, i % 2 == 0);
            }
            t
        };
        probes.ns("cache.tag_insert_ns", INSERTS, full, |t| {
            let mut sum = 0u64;
            for i in 0..INSERTS {
                match t.insert(HEAP_BASE + (capacity + i) * LINE_BYTES, false) {
                    Some(ev) => sum = sum.wrapping_add(ev.line + u64::from(ev.dirty)),
                    None => panic!("cache.tag_insert_ns: a full set did not evict"),
                }
            }
            sum
        })?;

        const DIR_OPS: usize = 1 << 19;
        let mut s = stream();
        let ops: Vec<(Addr, usize)> = (0..DIR_OPS)
            .map(|_| (HEAP_BASE + s.below(4096) * LINE_BYTES, s.below(16) as usize))
            .collect();
        probes.ns("cache.dir_ns", DIR_OPS as u64, Directory::new, |d| {
            let mut sum = 0u64;
            for (i, &(line, core)) in ops.iter().enumerate() {
                match i % 4 {
                    0 => sum += u64::from(d.lookup(line).sharer_count()),
                    1 => d.add_sharer(line, core),
                    2 => sum += u64::from(d.set_owner(line, core).count()),
                    _ => d.remove_sharer(line, core),
                }
            }
            sum ^ d.tracked_lines() as u64
        })?;
    }

    // ---- suv-noc -------------------------------------------------------
    for (name, cfg) in [("noc.route_ns", &cfg16), ("noc.route_wide_ns", &cfg128)] {
        const N: usize = 1 << 18;
        let mut s = stream();
        let cores = cfg.n_cores as u64;
        let hops: Vec<(usize, Addr)> =
            (0..N).map(|_| (s.below(cores) as usize, s.below(1 << 20) * LINE_BYTES)).collect();
        probes.ns(
            name,
            N as u64,
            || Mesh::new(cfg),
            |mesh| {
                let mut sum = 0u64;
                for (now, &(core, line)) in hops.iter().enumerate() {
                    sum += mesh.core_to_bank(now as u64, core, line);
                }
                sum ^ mesh.messages()
            },
        )?;
    }

    // ---- suv-sig -------------------------------------------------------
    {
        const N: usize = 1 << 20;
        let (bits, k) = (cfg16.htm.signature_bits, cfg16.htm.signature_hashes);
        let lines = line_stream(&mut stream(), N, 1 << 20);
        probes.ns(
            "sig.insert_ns",
            N as u64,
            || Signature::new(bits, k),
            |s| {
                for a in &lines {
                    s.insert(*a);
                }
                s.inserted() ^ u64::from(s.bits().count_ones())
            },
        )?;
        let tx_sized = || {
            let mut s = Signature::new(bits, k);
            for a in &lines[..64] {
                s.insert(*a);
            }
            s
        };
        probes.ns("sig.contains_ns", N as u64, tx_sized, |s| {
            lines.iter().filter(|a| s.contains(**a)).count() as u64
        })?;

        const TRIPLES: usize = 1 << 18;
        let (sbits, sk) = (cfg16.suv.summary_bits, cfg16.suv.summary_hashes);
        let summary = || SummarySignature::new(sbits, sk);
        probes.ns("sig.summary_ns", TRIPLES as u64, summary, |s| {
            let mut maybe = 0u64;
            for pair in lines[..2 * TRIPLES].chunks_exact(2) {
                s.add(pair[0]);
                maybe += u64::from(s.query(pair[1]));
                s.delete(pair[0]);
            }
            maybe ^ s.filtered()
        })?;
    }

    // ---- suv-coherence -------------------------------------------------
    {
        const HITS: usize = 1 << 20;
        const WARM: u64 = 256;
        let addrs = line_stream(&mut stream(), HITS, WARM);
        let warm = || {
            let mut s = MemorySystem::new(&cfg16);
            for i in 0..WARM {
                s.fill(0, 0, HEAP_BASE + i * LINE_BYTES, AccessKind::Load);
            }
            s
        };
        probes.ns("coh.hit_ns", HITS as u64, warm, |s| {
            addrs.iter().map(|a| s.access_hit(0, *a, AccessKind::Load)).sum()
        })?;

        const FILLS: u64 = 1 << 16;
        let cold = || MemorySystem::new(&cfg16);
        probes.ns("coh.fill_cold_ns", FILLS, cold, |s| {
            let mut now = 0u64;
            for i in 0..FILLS {
                let core = (i % 16) as usize;
                now += s.fill(now, core, HEAP_BASE + i * LINE_BYTES, AccessKind::Load).latency;
            }
            now
        })?;
        probes.ns("coh.fill_pingpong_ns", FILLS, cold, |s| {
            let mut now = 0u64;
            for i in 0..FILLS {
                now += s.fill(now, (i % 2) as usize, HEAP_BASE, AccessKind::Store).latency;
            }
            now
        })?;
    }

    // ---- suv-core ------------------------------------------------------
    {
        const LOOKUPS: usize = 1 << 17;
        const COMMITTED: u64 = 256;
        type Rt = (RedirectTable, SummarySignature, PoolAllocator);
        let (sbits, sk) = (cfg16.suv.summary_bits, cfg16.suv.summary_hashes);
        let empty = || -> Rt {
            (
                RedirectTable::new(16, &cfg16.suv),
                SummarySignature::new(sbits, sk),
                PoolAllocator::new(Region::pool()),
            )
        };
        let committed = || {
            let (mut t, mut sum, mut pool) = empty();
            for i in 0..COMMITTED {
                let (slot, _) = pool.alloc_slot();
                t.insert_transient(0, HEAP_BASE + i * LINE_BYTES, Transient::New { slot });
            }
            t.commit(0, &mut sum, &mut pool);
            (t, sum, pool)
        };
        let hit_lines = line_stream(&mut stream(), LOOKUPS, COMMITTED);
        probes.ns("rt.lookup_hit_ns", LOOKUPS as u64, committed, |(t, ..)| {
            let mut sum = 0u64;
            for line in &hit_lines {
                let (hit, lat) = t.lookup(0, *line);
                sum += lat + u64::from(hit.is_some());
            }
            sum
        })?;
        // Lines far above the committed window: every lookup misses.
        let miss_lines: Vec<Addr> =
            line_stream(&mut stream(), LOOKUPS, 1 << 20).iter().map(|a| a + (1 << 32)).collect();
        probes.ns("rt.lookup_miss_ns", LOOKUPS as u64, committed, |(t, ..)| {
            let mut sum = 0u64;
            for line in &miss_lines {
                let (hit, lat) = t.lookup(0, *line);
                sum += lat + u64::from(hit.is_some());
            }
            sum
        })?;

        // A 32-line transaction over a fixed 4K-line window: every other
        // visit redirects back, so the table stays bounded and both entry
        // paths are timed (the `redirect_table` criterion bench's shape).
        const TXS: u64 = 1 << 9;
        probes.ns("rt.tx32_commit_ns", TXS, empty, |(t, sum, pool)| {
            for tx in 0..TXS {
                for i in 0..32 {
                    let line = HEAP_BASE + ((tx * 32 + i) % 4096) * LINE_BYTES;
                    let redirected = t.lookup(0, line).0.is_some_and(|h| h.committed.is_some());
                    if redirected {
                        t.insert_transient(0, line, Transient::DeleteGlobal);
                    } else {
                        let (slot, _) = pool.alloc_slot();
                        t.insert_transient(0, line, Transient::New { slot });
                    }
                }
                t.commit(0, sum, pool);
            }
            t.live_entries() as u64 ^ pool.live_slots()
        })?;
        probes.ns("rt.tx32_abort_ns", TXS, empty, |(t, _, pool)| {
            let mut released = 0u64;
            for tx in 0..TXS {
                for i in 0..32 {
                    let (slot, _) = pool.alloc_slot();
                    let line = HEAP_BASE + ((tx * 32 + i) % 4096) * LINE_BYTES;
                    t.insert_transient(0, line, Transient::New { slot });
                }
                released += t.abort(0, pool) as u64;
            }
            released ^ pool.live_slots()
        })?;
    }

    // ---- suv-htm -------------------------------------------------------
    {
        // One core of a 16-core machine, 12 accesses per transaction over
        // a 4096-line working set.
        const TXS: usize = 1 << 10;
        const PER_TX: usize = 12;
        let addrs = line_stream(&mut stream(), TXS * PER_TX, 4096);
        let site = TxSite(1);
        for (scheme, slug) in SCHEMES {
            let machine = || HtmMachine::new(&cfg16, build_vm(scheme, &cfg16));
            let name = format!("htm.tx_ns.{slug}");
            probes.ns(&name, TXS as u64, machine, |m| {
                let mut now = 0u64;
                for tx in addrs.chunks_exact(PER_TX) {
                    now += m.begin_tx(now, 0, site);
                    for a in &tx[..8] {
                        let r = m.tx_load(now, 0, *a);
                        done(&mut now, &name, r);
                    }
                    for a in &tx[8..] {
                        let r = m.tx_store(now, 0, *a, now);
                        done(&mut now, &name, r);
                    }
                    match m.commit_tx(now, 0) {
                        CommitOutcome::Committed { latency, .. } => now += latency,
                        other => panic!("{name}: uncontended commit returned {other:?}"),
                    }
                }
                now ^ m.tx_stats().commits
            })?;

            let name = format!("htm.abort_ns.{slug}");
            probes.ns(&name, TXS as u64, machine, |m| {
                let mut now = 0u64;
                for tx in addrs.chunks_exact(PER_TX) {
                    now += m.begin_tx(now, 0, site);
                    for a in &tx[..8] {
                        let r = m.tx_store(now, 0, *a, now);
                        done(&mut now, &name, r);
                    }
                    now += m.abort_tx(now, 0);
                }
                now ^ m.tx_stats().aborts
            })?;
        }

        // Non-transactional accesses to 256 lines one core already holds:
        // the machine's per-access path on an L1 hit.
        const NONTX: usize = 1 << 17;
        const HOT: u64 = 256;
        let hot = line_stream(&mut stream(), NONTX, HOT);
        let logtm = || HtmMachine::new(&cfg16, build_vm(SchemeKind::LogTmSe, &cfg16));
        let warm = || {
            let mut m = logtm();
            for i in 0..HOT {
                m.nontx_store(0, 0, HEAP_BASE + i * LINE_BYTES, i);
            }
            m
        };
        probes.ns("htm.nontx_ns", NONTX as u64, warm, |m| {
            let mut now = 1 << 20;
            let mut sum = 0u64;
            for (i, a) in hot.iter().enumerate() {
                let r = if i % 2 == 0 {
                    m.nontx_store(now, 0, *a, i as u64)
                } else {
                    m.nontx_load(now, 0, *a)
                };
                sum = sum.wrapping_add(done(&mut now, "htm.nontx_ns", r));
            }
            now ^ sum
        })?;

        probes.ns("htm.sw_tx_ns", TXS as u64, logtm, |m| {
            let mut now = 0u64;
            for tx in addrs.chunks_exact(PER_TX) {
                now += m.begin_sw_tx(now, 0, site, 0);
                for a in &tx[..8] {
                    let r = m.sw_load(now, 0, *a);
                    done(&mut now, "htm.sw_tx_ns", r);
                }
                for a in &tx[8..] {
                    let r = m.sw_store(now, 0, *a, now);
                    done(&mut now, "htm.sw_tx_ns", r);
                }
                match m.commit_sw_tx(now, 0) {
                    SwCommitOutcome::Committed { latency } => now += latency,
                    other => panic!("htm.sw_tx_ns: uncontended sw commit returned {other:?}"),
                }
            }
            now ^ m.tx_stats().sw_commits
        })?;
    }

    // ---- suv-sim -------------------------------------------------------
    {
        const ITERS: u64 = 2048;
        let ops = 16 * ITERS * 2;
        probes.ns(
            "sim.spin_ns_per_op",
            ops,
            || Spin { cell: 0, iters: ITERS },
            |w| run_workload(&cfg16, SchemeKind::LogTmSe, w).stats.cycles,
        )?;
    }

    // ---- suv-trace -----------------------------------------------------
    {
        const N: usize = 1 << 18;
        let lines = line_stream(&mut stream(), N, 4096);
        let emit_all = |t: &mut Tracer| {
            for (i, line) in lines.iter().enumerate() {
                black_box(&mut *t).emit(i as u64, i % 16, TraceEvent::TxRead { line: *line });
            }
            t.hash() ^ t.events_emitted()
        };
        probes.ns("trace.emit_on_ns", N as u64, || Tracer::ring(1 << 12), emit_all)?;
        probes.ns("trace.emit_off_ns", N as u64, Tracer::disabled, emit_all)?;

        let mut s = stream();
        let cycles: Vec<u64> = (0..N).map(|_| s.below(1 << 24)).collect();
        probes.ns("trace.latency_observe_ns", N as u64, LatencyHistogram::new, |h| {
            for c in &cycles {
                h.observe(*c);
            }
            h.count() ^ h.percentile(0.99)
        })?;
    }

    // ---- suv-oltp ------------------------------------------------------
    {
        const N: u64 = 1 << 18;
        let traffic = TrafficConfig {
            theta: 0.8,
            rate: 400,
            reqs_per_core: N,
            keys: 16384,
            seed,
            ..TrafficConfig::default()
        };
        probes.ns(
            "oltp.next_request_ns",
            N,
            || TrafficGen::new(&traffic, 3),
            |g| {
                (0..N).fold(0u64, |sum, _| {
                    let r = g.next_request();
                    sum.wrapping_add(r.key ^ r.arrival ^ r.customer)
                })
            },
        )?;
    }

    // ---- suv-check / suv-verify (offline tools) ---------------------------
    {
        // A trace that retains every event of intruder/SUV-TM/8c.
        let scale = if size == Size::Full { SuiteScale::Paper } else { SuiteScale::Tiny };
        let cfg8 = MachineConfig { n_cores: 8, ..Default::default() };
        let mut w = by_name("intruder", scale).expect("intruder is registered");
        let tc = TraceConfig { ring_capacity: 1 << 23 };
        let traced = run_workload_traced(&cfg8, SchemeKind::SuvTm, w.as_mut(), Some(tc));
        let trace = traced.trace.expect("the run was traced");
        if trace.dropped != 0 {
            return Err(format!(
                "check.serial_ns_per_event: ring dropped {} events",
                trace.dropped
            ));
        }
        let v = ns_per_op(
            "check.serial_ns_per_event",
            check_batches,
            trace.events,
            || (),
            |()| {
                let report = suv_check::check_trace(&trace);
                assert!(report.ok(), "check.serial_ns_per_event: {:?}", report.violations());
                report.committed as u64 ^ report.edges as u64
            },
        )?;
        probes.out.push(("check.serial_ns_per_event".into(), v, "ns"));

        // All six schemes (471 442 states); smoke size explores one.
        let req = VerifyRequest {
            engine: VerifyEngine::Protocol,
            scheme: (size == Size::Smoke).then_some(SchemeKind::LogTmSe),
            ..VerifyRequest::default()
        };
        let mut states = 0u64;
        let ns_per_state = ns_per_op(
            "verify.protocol_states_per_s",
            1,
            1,
            || (),
            |()| {
                let runs = run_verify(&req);
                assert!(runs.iter().all(suv_verify::VerifyRun::ok), "protocol exploration failed");
                states = runs.iter().map(|r| r.report.states as u64).sum();
                states
            },
        )? / states as f64;
        probes.out.push(("verify.protocol_states_per_s".into(), 1e9 / ns_per_state, "1/s"));
    }

    Ok(probes.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_drifting_checksum_fails_the_probe() {
        let mut calls = 0u64;
        let err = ns_per_op(
            "drift",
            3,
            1,
            || (),
            |()| {
                calls += 1;
                calls
            },
        )
        .unwrap_err();
        assert!(err.contains("drift") && err.contains("batch 1"), "{err}");
    }

    #[test]
    fn batches_start_from_fresh_state_and_time_scales_with_ops() {
        let body = |v: &mut Vec<u64>| {
            // Would differ across batches if state leaked from one to the next.
            v.push(v.len() as u64);
            v.iter().sum()
        };
        assert!(ns_per_op("fresh", 4, 1, Vec::new, body).is_ok());
        let spin = |n: u64| {
            ns_per_op("spin", 5, 1, || (), |()| (0..n).fold(0u64, |a, i| black_box(a ^ i))).unwrap()
        };
        assert!(spin(1 << 22) > 4.0 * spin(1 << 16), "time must grow with the work");
    }
}
