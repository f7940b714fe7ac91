//! `suv-oltp`: a server-scale transactional workload for the simulator.
//!
//! The STAMP shelf is closed-loop: each thread issues its next
//! transaction the instant the previous one finishes, so measured
//! "latency" is pure service time and contention is bounded by the core
//! count. Server systems are open-loop — requests arrive on their own
//! schedule whether or not the server keeps up — and that regime is
//! where version-management choices show up in the *tail*: a single
//! slow commit (lazy merge) or abort repair (eager undo) delays every
//! request queued behind it.
//!
//! This crate provides:
//!
//! * [`traffic`] — a deterministic open-loop traffic generator: seeded
//!   xorshift64* streams, Zipfian key skew (configurable `theta`,
//!   YCSB/Gray sampling), a configurable read/write mix, hot-key storm
//!   phases and multi-tenant phase schedules, each request carrying its
//!   intended arrival cycle;
//! * [`workload`] — the OLTP kernel itself (order + payment + inventory
//!   tables with customer secondary-index maintenance over
//!   [`suv_stamp::ds::TxHashMap`]), registered as the `oltp` /
//!   `oltp-storm` workloads, recording one end-to-end latency sample
//!   per request measured from intended arrival (no coordinated
//!   omission).

pub mod traffic;
pub mod workload;

pub use traffic::{parse_traffic_spec, Op, Request, StormSpec, TrafficConfig, TrafficGen};
pub use workload::Oltp;
