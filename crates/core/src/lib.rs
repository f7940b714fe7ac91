//! SUV: Single-Update Version management — the paper's contribution.
//!
//! Every transactional store is *redirected*: instead of logging an old
//! value (optimistic schemes) or buffering a new one (pessimistic schemes),
//! the new value is written to a fresh line in a reserved pool and a
//! *redirect entry* records the `original -> redirected` mapping. Both
//! versions then coexist at distinct physical locations until the
//! transaction ends, so commit and abort are O(1) flash transitions of the
//! entry state bits (Table II) — a **single update** of the data in either
//! case, with no repair walk and no merge.
//!
//! Components:
//!
//! * [`entry`] — the redirect-entry state machine (global/valid bits) and
//!   the 22-bit hardware encoding of Figure 3;
//! * [`table`] — the two-level redirect table: per-core zero-latency
//!   512-entry fully-associative first level, shared 16K-entry 8-way
//!   second level, memory spill with speculative bypass;
//! * [`lru`] — the exact true-LRU set that models the first level in
//!   constant host time;
//! * [`suvvm`] — the [`suv_htm::VersionManager`] implementation tying the
//!   table, the redirect pool and the summary signature together.

pub mod entry;
pub mod lru;
pub mod suvvm;
pub mod table;

pub use entry::{EntryState, PackedEntry};
pub use lru::LruSet;
pub use suvvm::SuvVm;
pub use table::{LookupHit, RedirectTable, Transient};
