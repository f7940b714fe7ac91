//! Tracer micro-benchmark: host cost of `Tracer::emit`, enabled and
//! disabled, over the event mix of a real cell — intruder / SUV-TM / 8
//! cores, recorded once and replayed — rather than one repeated kind: the
//! hash cost follows each word's significant bytes and the per-kind
//! tallies follow the mix, so a synthetic stream would measure neither.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use suv::prelude::*;
use suv::trace::{TraceRecord, Tracer};

/// Ring capacity `suvtm bench` traces cells with.
const RING: usize = 1 << 12;

/// The events of one intruder / SUV-TM / 8-core run, oldest first.
fn recorded_mix() -> Vec<TraceRecord> {
    let cfg = MachineConfig { n_cores: 8, ..Default::default() };
    let mut w = by_name("intruder", SuiteScale::Tiny).expect("registered workload");
    let trace = Some(TraceConfig::default());
    let out =
        run_workload_traced(&cfg, SchemeKind::SuvTm, w.as_mut(), trace).trace.expect("traced run");
    assert_eq!(out.dropped, 0, "the replayed mix must be the whole stream");
    out.records
}

fn replay(tracer: &mut Tracer, mix: &[TraceRecord]) -> u64 {
    for r in mix {
        black_box(&mut *tracer).emit(r.t, r.core, r.ev);
    }
    tracer.hash() ^ tracer.events_emitted()
}

fn bench_trace(c: &mut Criterion) {
    let mix = recorded_mix();
    let mut g = c.benchmark_group(format!("trace/{}_events", mix.len()));
    g.sample_size(20);
    g.bench_function("emit_enabled", |b| {
        let mut t = Tracer::ring(RING);
        b.iter(|| replay(&mut t, &mix));
    });
    g.bench_function("emit_disabled", |b| {
        let mut t = Tracer::disabled();
        b.iter(|| replay(&mut t, &mix));
    });
    g.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
