//! The bounded ring the [`crate::Tracer`] retains events in.

use crate::event::TraceRecord;
use std::collections::VecDeque;

/// Bounded in-memory recorder: keeps the most recent `capacity` events,
/// counting what it had to drop. Memory use is bounded regardless of run
/// length; the trace *hash* (kept by the tracer, not the ring) still covers
/// every event.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Recorder retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder { buf: VecDeque::with_capacity(capacity.min(1 << 16)), capacity, dropped: 0 }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// No events retained?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Accept one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*rec);
    }

    /// Hand back everything retained, oldest first.
    pub fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.buf).into()
    }

    /// Events accepted but no longer retained (ring overwrite).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord { t, core: 0, ev: TraceEvent::TxRead { line: t * 64 } }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = RingRecorder::new(3);
        for t in 0..5 {
            r.record(&rec(t));
        }
        assert_eq!(r.dropped(), 2);
        let drained = r.drain();
        assert_eq!(drained.iter().map(|r| r.t).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamped() {
        let mut r = RingRecorder::new(0);
        r.record(&rec(1));
        r.record(&rec(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
