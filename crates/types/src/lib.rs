//! Common vocabulary types for the SUV-TM simulator stack.
//!
//! This crate defines the address arithmetic, machine configuration
//! (mirroring Table III of the paper) and statistics containers shared by
//! every other crate in the workspace. It is dependency-free so that leaf
//! crates (caches, signatures, the interconnect) can be tested in isolation.

pub mod addr;
pub mod config;
pub mod fx;
pub mod sharers;
pub mod stats;

pub use addr::{
    line_index, line_of, line_offset_bytes, page_of, word_index_in_line, word_of, Addr, LineAddr,
    PageAddr, LINE_BYTES, LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT, WORDS_PER_LINE, WORD_BYTES,
};
pub use config::{
    CacheGeom, CheckLevel, FallbackMode, FaultSpec, HtmConfig, MachineConfig, RobustnessConfig,
    SchemeKind, SuvConfig,
};
pub use fx::{AlignedFxHasher, FxHashMap, FxHashSet, FxHasher, LineMap, LineSet, WordMap};
pub use sharers::{SharerSet, MAX_SHARER_CORE};
pub use stats::{Breakdown, BreakdownKind, MachineStats, OverflowStats, RedirectStats, TxStats};

/// Simulated time, in processor clock cycles.
pub type Cycle = u64;

/// Identifier of a simulated core / hardware thread (0-based).
pub type CoreId = usize;

/// Bits a core id takes wherever a `(time, core)` pair packs into one
/// ordered word: the scheduler's horizon key and a transaction's age. Time
/// keeps 54 bits, far above the simulator's runaway wall.
pub const CORE_ID_BITS: u32 = 10;
/// Upper bound on simulated cores: what [`CORE_ID_BITS`] can name.
pub const MAX_CORES: usize = 1 << CORE_ID_BITS;

/// Identifier of a static transaction site (the `TM_BEGIN` location in the
/// source program). DynTM's history-based selector predicts per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxSite(pub u32);

impl TxSite {
    /// Site used when the program does not care to distinguish locations.
    pub const ANON: TxSite = TxSite(u32::MAX);
}
