//! `suv-trace`: cycle-stamped structured event tracing for the simulator.
//!
//! The engine exposes end-of-run aggregates in `MachineStats`, which is
//! enough to plot Figure 6 but useless for diagnosing *when* transactions
//! stall, abort, overflow or commit. This crate adds the observability
//! layer:
//!
//! * a typed [`TraceEvent`] vocabulary covering the transaction lifecycle
//!   (begin / read / write / NACK / stall / abort / backoff / commit, with
//!   scheme-specific payloads) plus memory-system events (L1/L2 miss,
//!   speculative eviction, redirect-table swap-out);
//! * the [`Tracer`] facade the engine embeds: one `bool` test on the
//!   disabled hot path; enabled, a streaming 64-bit FNV-1a hash over
//!   *every* emitted event — independent of ring capacity, so the hash is
//!   a bit-reproducibility oracle even when the ring drops old events,
//!   and computed at a cost proportional to the words' significant bytes
//!   (see [`tracer`]) — plus a bounded [`RingRecorder`] of the most recent
//!   events, held by value: an event costs no virtual call;
//! * a counter/histogram [`MetricsRegistry`] fed automatically from the
//!   event stream;
//! * a Chrome-trace JSON exporter ([`chrome_trace_json`]) producing files
//!   loadable in `chrome://tracing` / Perfetto, and a textual
//!   [`summary_report`] for quick terminal triage.
//!
//! The crate depends only on `suv-types`, so every layer of the simulator
//! (coherence, HTM machine, version managers, scheduler, runner) can hook
//! into it without dependency cycles.

pub mod chrome;
pub mod event;
pub mod json;
pub mod latency;
pub mod metrics;
pub mod sink;
pub mod summary;
pub mod tracer;

pub use chrome::chrome_trace_json;
pub use event::{
    ConflictDir, EscalationReason, FallbackAbortReason, FaultKind, RedirectLevel, TraceEvent,
    TraceRecord,
};
pub use json::{escape_into, Json};
pub use latency::{Histogram, LatencyHistogram, LatencySummary};
pub use metrics::MetricsRegistry;
pub use sink::RingRecorder;
pub use summary::summary_report;
pub use tracer::{TraceOutput, Tracer};
