//! Set-associative cache tag arrays and the bit-vector sharer directory.
//!
//! These are *metadata* models: they track which lines are resident, their
//! LRU order, dirtiness, and arbitrary per-line flags (used by FasTM to mark
//! speculatively-written lines and by SUV to locate lines for entry
//! reconstruction). Data values live in the `suv-mem` crate's `Memory`; latency is
//! charged by the coherence crate.

pub mod directory;
pub mod tag;

pub use directory::{DirEntry, Directory};
pub use tag::{Eviction, TagArray};
