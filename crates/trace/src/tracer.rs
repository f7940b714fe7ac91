//! The [`Tracer`] facade the engine embeds.
//!
//! # The stream hash: FNV-1a, zero runs folded
//!
//! The hash is 64-bit FNV-1a over the little-endian bytes of five words
//! per event — `t`, `core`, kind id and the two payload words — and every
//! golden in the repo pins its value, so its definition cannot move. Its
//! cost can: one FNV-1a step is `h = (h ^ byte) * P`, and for a zero byte
//! that is `h = h * P`, so a run of `k` zero bytes is `h = h * P^k` — and
//! wrapping multiplication is associative, so the run merges into the
//! step before it: one multiply by a precomputed power instead of `k + 1`
//! dependent ones. A little-endian word's zero run is its high bytes, and
//! the hashed words are small (a cycle count, a core id, a kind id below
//! 29, a line address, often a zero second payload): ~15 significant
//! bytes of the 40. [`fnv1a_word`] spends one multiply per significant
//! byte (one for a zero word), so the hash costs what the significant
//! bytes cost and is equal, bit for bit, to the byte-at-a-time loop (kept
//! in the tests as the reference, and checked against it by proptest).
//!
//! Everything else `emit` does is flat: one match derives kind id, payload
//! and magnitude ([`TraceEvent::decode`]), the per-kind tallies are array
//! slots, and the bounded [`RingRecorder`] is held by value — no virtual
//! call, no allocation, no by-name lookup per event.

use crate::event::{TraceEvent, TraceRecord, KIND_COUNT, KIND_NAMES};
use crate::latency::Histogram;
use crate::metrics::MetricsRegistry;
use crate::sink::RingRecorder;
use suv_types::{CoreId, Cycle};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: the whole effect of `k`
/// zero bytes on an FNV-1a state.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the eight little-endian bytes of `word`: an ordinary step
/// for each significant byte but the last, then the last one and the zero
/// bytes above it in one multiply — `((h ^ b) * P) * P^k = (h ^ b) *
/// P^(k+1)`. A zero word is the same formula with `b = 0`.
#[inline]
fn fnv1a_word(mut h: u64, word: u64) -> u64 {
    let significant = (8 - word.leading_zeros() as usize / 8).max(1);
    let mut rest = word;
    for _ in 1..significant {
        h = (h ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
        rest >>= 8;
    }
    (h ^ rest).wrapping_mul(FNV_PRIME_POW[9 - significant])
}

/// Everything a finished tracer hands back to the runner.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// Streaming FNV-1a hash over every emitted event (0 when tracing was
    /// disabled). Independent of ring capacity — the bit-reproducibility
    /// oracle.
    pub hash: u64,
    /// Total events emitted (including any the ring dropped).
    pub events: u64,
    /// Events the sink could not retain.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub records: Vec<TraceRecord>,
    /// Counters and histograms accumulated from the stream.
    pub metrics: MetricsRegistry,
}

/// Embedded tracing front-end: one branch when disabled, full hashing +
/// metrics + ring recording when enabled.
#[derive(Clone)]
pub struct Tracer {
    /// Cached enabled flag — the only thing the hot path reads.
    enabled: bool,
    hash: u64,
    events: u64,
    /// The retained window (a one-slot ring, never written, when disabled).
    ring: RingRecorder,
    metrics: MetricsRegistry,
    /// Flat per-kind event tallies, indexed by `kind_id`. The hot path
    /// bumps these instead of doing a by-name registry lookup per event;
    /// [`Tracer::fold_kind_tallies`] merges them into `metrics` at
    /// harvest time.
    kind_counts: [u64; KIND_COUNT],
    /// Flat per-kind magnitude histograms, same idea.
    kind_hists: Box<[Histogram; KIND_COUNT]>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled)
            .field("events", &self.events)
            .field("hash", &self.hash)
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// The zero-cost default: `emit` is a branch on a cached bool.
    pub fn disabled() -> Self {
        Tracer { enabled: false, hash: 0, ..Tracer::ring(0) }
    }

    /// Enabled tracer over a bounded ring of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            hash: FNV_OFFSET,
            events: 0,
            ring: RingRecorder::new(capacity),
            metrics: MetricsRegistry::new(),
            kind_counts: [0; KIND_COUNT],
            kind_hists: Box::new(std::array::from_fn(|_| Histogram::default())),
        }
    }

    /// Is tracing on? Callers that would pay to *assemble* an event (take
    /// a lock, walk a structure) should check this first; plain `emit`
    /// calls don't need to.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Record one event. When disabled this is a single predictable
    /// branch — the engine calls it unconditionally from its hot paths.
    #[inline]
    pub fn emit(&mut self, t: Cycle, core: CoreId, ev: TraceEvent) {
        if self.enabled {
            self.emit_enabled(t, core, ev);
        }
    }

    #[inline(never)]
    fn emit_enabled(&mut self, t: Cycle, core: CoreId, ev: TraceEvent) {
        let d = ev.decode();
        self.hash = [t, core as u64, d.kind, d.payload.0, d.payload.1]
            .into_iter()
            .fold(self.hash, fnv1a_word);
        self.events += 1;
        // Flat per-kind tallies: no by-name registry lookup per event.
        self.kind_counts[d.kind as usize] += 1;
        if let Some(m) = d.magnitude {
            self.kind_hists[d.kind as usize].observe(m);
        }
        self.ring.record(&TraceRecord { t, core, ev });
    }

    /// Merge the flat per-kind tallies into the named registry. Idempotent
    /// (tallies are drained); called at every metrics access point so the
    /// registry is always complete when observed.
    fn fold_kind_tallies(&mut self) {
        let metrics = &mut self.metrics;
        let tallies = self.kind_counts.iter_mut().zip(self.kind_hists.iter_mut());
        // Index 0 is the reserved non-event kind; its tallies stay zero.
        for (name, (count, hist)) in KIND_NAMES.iter().zip(tallies).skip(1) {
            let n = std::mem::take(count);
            if n > 0 {
                metrics.inc(name, n);
            }
            if !hist.is_empty() {
                let h = std::mem::take(hist);
                metrics.merge_histogram(name, &h);
            }
        }
    }

    /// The streaming hash so far (0 when disabled).
    pub fn hash(&self) -> u64 {
        if self.enabled {
            self.hash
        } else {
            0
        }
    }

    /// Events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events
    }

    /// The accumulated metrics (folds pending hot-path tallies first).
    pub fn metrics(&mut self) -> &MetricsRegistry {
        self.fold_kind_tallies();
        &self.metrics
    }

    /// Mutable metrics access (the runner folds scheduler counters in).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        self.fold_kind_tallies();
        &mut self.metrics
    }

    /// Tear down into the final output.
    pub fn finish(mut self) -> TraceOutput {
        self.fold_kind_tallies();
        TraceOutput {
            hash: if self.enabled { self.hash } else { 0 },
            events: self.events,
            dropped: self.ring.dropped(),
            records: self.ring.drain(),
            metrics: self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(line: u64) -> TraceEvent {
        TraceEvent::TxWrite { line }
    }

    /// The definition of the stream hash: FNV-1a, one byte at a time, over
    /// the little-endian bytes of `(t, core, kind, p0, p1)` per event.
    fn reference_hash(stream: &[(Cycle, CoreId, TraceEvent)]) -> u64 {
        let mut h = FNV_OFFSET;
        for &(t, core, ev) in stream {
            let (p0, p1) = ev.payload();
            for word in [t, core as u64, ev.kind_id(), p0, p1] {
                for byte in word.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
        }
        h
    }

    fn emitted_hash(stream: &[(Cycle, CoreId, TraceEvent)]) -> u64 {
        let mut t = Tracer::ring(4);
        for &(at, core, ev) in stream {
            t.emit(at, core, ev);
        }
        assert_eq!(t.events_emitted(), stream.len() as u64);
        t.finish().hash
    }

    /// An event of one of several payload shapes carrying `p0` / `p1`
    /// (two words, one word, narrowed fields, none). A word that is also
    /// the event's magnitude loses its top byte, so that a stream's
    /// histogram sums stay in range; the other word of the pair is whole.
    fn event(shape: usize, p0: u64, p1: u64) -> TraceEvent {
        match shape % 6 {
            0 => TraceEvent::Stall { line: p0, cycles: p1 >> 8 },
            1 => TraceEvent::TxCommit { window: p0 >> 8, committing: p1 },
            2 => TraceEvent::TxRead { line: p0 },
            3 => TraceEvent::TxBegin { site: p0 as u32, lazy: p1 & 1 == 1 },
            4 => TraceEvent::HwSwConflict { line: p0, dir: crate::ConflictDir::SwCommitVsHw },
            _ => TraceEvent::RedirectBack,
        }
    }

    /// Every significant-byte count a hashed word can have, at both edges:
    /// `0`, `0xff`, `0x100`, `0xffff`, `0x1_0000`, ..., `u64::MAX`.
    fn byte_length_boundaries() -> Vec<u64> {
        let mut v = vec![0];
        for bytes in 1..=8u32 {
            v.push(1 << (8 * (bytes - 1)));
            v.push(u64::MAX >> (64 - 8 * bytes));
        }
        v
    }

    #[test]
    fn zero_run_folding_matches_bytewise_fnv_at_every_byte_length() {
        let edges = byte_length_boundaries();
        assert_eq!(edges.len(), 17);
        assert!(edges.contains(&0xff) && edges.contains(&0x100) && edges.contains(&u64::MAX));
        for &a in &edges {
            for &b in &edges {
                // Each hashed position takes each edge, next to every other
                // edge (a word's folded tail feeds the next word's first step).
                let stream = [
                    (a, b as CoreId, event(0, b, a)),
                    (b, a as CoreId, event(1, a, a)),
                    (a, 0, event(2, b, 0)),
                    (b, 0, event(5, 0, 0)),
                ];
                assert_eq!(emitted_hash(&stream), reference_hash(&stream), "edges {a:#x}, {b:#x}");
            }
        }
    }

    /// A word of a random significant length: uniform bits, shifted down
    /// by 0..=64 so short words are as likely as full ones.
    fn word() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..=64).prop_map(|(v, shift)| v.checked_shr(shift).unwrap_or(0))
    }

    proptest! {
        #[test]
        fn zero_run_folding_matches_bytewise_fnv_on_random_streams(
            stream in proptest::collection::vec(
                ((word(), word()), (0usize..6, word(), word())),
                1..200,
            )
        ) {
            let stream: Vec<_> = stream
                .into_iter()
                .map(|((t, core), (shape, p0, p1))| (t, core as CoreId, event(shape, p0, p1)))
                .collect();
            prop_assert_eq!(emitted_hash(&stream), reference_hash(&stream));
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.on());
        t.emit(1, 0, ev(0x40));
        let out = t.finish();
        assert_eq!(out.hash, 0);
        assert_eq!(out.events, 0);
        assert!(out.records.is_empty());
    }

    #[test]
    fn hash_covers_dropped_events() {
        // Same stream, different ring capacities => same hash.
        let mut small = Tracer::ring(2);
        let mut large = Tracer::ring(1 << 12);
        for i in 0..100u64 {
            small.emit(i, 0, ev(i * 64));
            large.emit(i, 0, ev(i * 64));
        }
        let (s, l) = (small.finish(), large.finish());
        assert_eq!(s.hash, l.hash);
        assert_eq!(s.events, l.events);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.dropped, 98);
        assert_eq!(l.dropped, 0);
    }

    #[test]
    fn hash_sensitive_to_everything() {
        let base = {
            let mut t = Tracer::ring(8);
            t.emit(5, 1, ev(0x80));
            t.finish().hash
        };
        for (t0, c0, e0) in [
            (6, 1, ev(0x80)),                          // time
            (5, 2, ev(0x80)),                          // core
            (5, 1, ev(0xc0)),                          // payload
            (5, 1, TraceEvent::TxRead { line: 0x80 }), // kind
        ] {
            let mut t = Tracer::ring(8);
            t.emit(t0, c0, e0);
            assert_ne!(t.finish().hash, base);
        }
    }

    #[test]
    fn metrics_fed_from_stream() {
        let mut t = Tracer::ring(8);
        t.emit(1, 0, TraceEvent::Stall { line: 0x40, cycles: 10 });
        t.emit(2, 0, TraceEvent::Stall { line: 0x40, cycles: 20 });
        t.emit(3, 0, TraceEvent::TxCommit { window: 4, committing: 0 });
        let out = t.finish();
        assert_eq!(out.metrics.counter("stall"), 2);
        assert_eq!(out.metrics.counter("tx_commit"), 1);
        assert_eq!(out.metrics.histogram("stall").unwrap().sum(), 30);
    }
}
