//! The HTM framework.
//!
//! This crate contains everything that is *common* to the compared HTM
//! schemes, plus the baseline version managers:
//!
//! * [`machine::HtmMachine`] — the transactional memory controller that the
//!   simulator drives: it owns the functional memory, the coherence/timing
//!   model, the per-core transaction descriptors, and a pluggable
//!   [`vm::VersionManager`]. It performs eager conflict detection with
//!   read/write signatures, the LogTM *Stall* policy with possible-cycle
//!   deadlock avoidance, lazy commit arbitration/validation for DynTM, and
//!   strong isolation for non-transactional accesses.
//! * [`vm::VersionManager`] — the trait the paper's contribution plugs
//!   into. Implementations here: [`logtm::LogTmSe`], [`fastm::FasTm`],
//!   [`lazy::LazyVm`] and the [`dyntm::DynTm`] composite; the SUV
//!   implementation lives in the `suv-core` crate.
//!
//! The key modeling idea, shared with the paper: a transaction's *isolation
//! window* covers not just its Active phase but also its Aborting and
//! Committing windows — while a transaction is rolling back (LogTM-SE
//! software walk) or merging (lazy commit), its signatures keep NACKing
//! other cores. Version-management schemes differ in how long those windows
//! are; SUV makes both O(1).

mod conflict;
pub mod dyntm;
pub mod fastm;
pub mod lazy;
pub mod logtm;
pub mod machine;
pub mod script;
pub mod shadow;
pub mod swvm;
pub mod tx;
pub mod undo;
pub mod vm;

pub use machine::{Access, CommitOutcome, HtmMachine, SwCommitOutcome};
pub use shadow::ShadowOracle;
pub use swvm::SwVm;
pub use tx::{TxState, TxStatus};
pub use undo::UndoLog;
pub use vm::{LevelOp, LoadTarget, StoreTarget, VersionManager, VmEnv};
