//! MESI directory coherence and memory-hierarchy timing.
//!
//! [`MemorySystem`] composes the per-core L1 tag arrays, the shared banked
//! L2, the bit-vector directory, the mesh interconnect and the banked main
//! memory into the latency model of Table III. It is *passive*: the HTM
//! layer drives it and interleaves its own conflict checks (signatures,
//! NACKs) between the `plan`/`fill` phases, so this crate stays free of any
//! transactional policy.
//!
//! Protocol model. Each L1 line is in M, E or S (absent = I). Permission
//! upgrades and misses issue GETS/GETM "transactions" that are resolved
//! atomically at the directory with a composed latency:
//!
//! * silent hits (load in M/E/S, store in M/E) never leave the core — this
//!   is what makes an HTM transaction's isolation window effective, because
//!   remote accesses to those lines must come through the directory where
//!   they can be NACKed;
//! * a miss travels core → L2 bank (mesh), pays the directory lookup, then
//!   is served by the owner's cache (cache-to-cache), the L2, or a memory
//!   bank (with deterministic bank queuing);
//! * GETM invalidates remote sharers (latency of the farthest, since
//!   invalidations fly in parallel).

pub mod mesi;
pub mod system;

pub use mesi::Mesi;
pub use system::{AccessKind, FillOutcome, L1Evict, MemStats, MemorySystem};
