//! Hardware signatures.
//!
//! Three building blocks from the paper:
//!
//! * [`Signature`] — the 2 Kbit Bloom-filter read/write signatures used for
//!   eager conflict detection (compact encodings of the read-/write-sets);
//! * [`SummarySignature`] — SUV's *redirect summary signature*: a Bloom
//!   filter that filters un-redirected addresses off the lookup path, plus
//!   the companion "written-once" bit-vector that makes *deletion* safe
//!   (Figure 5's Bloom-counter construction);
//! * [`HashFamily`] — the H3-style hash functions both share.
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
