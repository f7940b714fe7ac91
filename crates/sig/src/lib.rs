//! Hardware signatures.
//!
//! Three building blocks from the paper:
//!
//! * [`Signature`] — a standalone 2 Kbit Bloom-filter read/write
//!   signature. The machine keeps none: a core's signatures are its two
//!   columns of `suv-htm`'s signature index, and `Signature` stays only for
//!   the `sig.*` host-cost probes of `benchmark/`;
//! * [`SummarySignature`] — SUV's *redirect summary signature*: a Bloom
//!   filter that filters un-redirected addresses off the lookup path, plus
//!   the companion "written-once" bit-vector that makes *deletion* safe
//!   (Figure 5's Bloom-counter construction);
//! * [`HashFamily`] — the H3-style hash functions both share, and the
//!   signature index with them.
//!
//! All structures operate on *line* addresses: callers pass byte addresses
//! and the signature masks to line granularity, matching the paper's
//! 64-byte conflict-detection granularity.

pub mod bitvec;
pub mod hash;
pub mod signature;
pub mod summary;

pub use bitvec::BitVec;
pub use hash::HashFamily;
pub use signature::Signature;
pub use summary::SummarySignature;
