//! Offline correctness oracles for the simulator.
//!
//! Everything in this crate runs *after* (or beside) a simulation and never
//! participates in timing — the oracles observe, they do not perturb. Two
//! checkers live here:
//!
//! * [`serial`] — rebuilds per-transaction read/write sets from a recorded
//!   `suv-trace` event stream, constructs the conflict graph over committed
//!   transactions, and reports any cycle (Tarjan SCC). A cycle is a
//!   conflict-serializability violation — the machine committed a history
//!   no serial order explains (INV-11 in DESIGN.md).
//! * [`mesi`] — exhaustively enumerates the reachable states of the real
//!   [`suv_coherence::MemorySystem`] under load/store/evict stimulus and
//!   asserts the protocol invariants (INV-1..INV-4) in every reachable
//!   state, not just the ones a workload happens to visit.
//!
//! The complementary *runtime* checks (shadow-memory isolation oracle,
//! per-fill MESI assertions, redirect-table audits) live with the
//! structures they check, gated by `CheckLevel` — see DESIGN.md §7.

pub mod mesi;
pub mod serial;

pub use mesi::{check_mesi_reachability, MesiReport};
pub use serial::{check_serializability, check_trace, SerialReport, TxInfo};
