//! SUV-TM: a full reproduction of "SUV: A Novel Single-Update
//! Version-Management Scheme for Hardware Transactional Memory Systems"
//! (IPDPS 2012) in Rust.
//!
//! This facade re-exports the whole stack:
//!
//! * [`types`] — configuration (Table III) and statistics containers;
//! * [`mem`] — simulated physical memory and allocators;
//! * [`noc`] — the mesh interconnect model;
//! * [`cache`] — tag arrays and the sharer directory;
//! * [`sig`] — Bloom-filter signatures and the redirect summary signature;
//! * [`coherence`] — MESI directory coherence and hierarchy timing;
//! * [`htm`] — the HTM framework and baseline version managers
//!   (LogTM-SE, FasTM, lazy, DynTM);
//! * [`core`] — SUV itself: redirect entries, the two-level redirect
//!   table, and the SUV version manager;
//! * [`sim`] — the deterministic execution-driven simulator;
//! * [`stamp`] — the eight STAMP applications;
//! * [`cacti`] — the CACTI-style hardware cost model (Tables VI/VII).
//!
//! # Quickstart
//!
//! ```
//! use suv::prelude::*;
//!
//! // Simulate the `intruder` STAMP application under SUV-TM and under
//! // LogTM-SE on a small machine, and compare.
//! let cfg = MachineConfig::small_test();
//! let mut w = by_name("intruder", SuiteScale::Tiny).unwrap();
//! let suv = run_workload(&cfg, SchemeKind::SuvTm, w.as_mut());
//! let mut w = by_name("intruder", SuiteScale::Tiny).unwrap();
//! let logtm = run_workload(&cfg, SchemeKind::LogTmSe, w.as_mut());
//! assert!(suv.stats.tx.commits > 0 && logtm.stats.tx.commits > 0);
//! println!("speedup: {:.2}x", suv.speedup_over(&logtm));
//! ```

pub use cacti_lite as cacti;
pub use suv_cache as cache;
pub use suv_coherence as coherence;
pub use suv_core as core;
pub use suv_htm as htm;
pub use suv_mem as mem;
pub use suv_noc as noc;
pub use suv_oltp as oltp;
pub use suv_sig as sig;
pub use suv_sim as sim;
pub use suv_stamp as stamp;
pub use suv_trace as trace;
pub use suv_types as types;

/// The merged workload registry: the eight STAMP applications (plus
/// their high-contention variants) from [`stamp`] and the server-scale
/// OLTP workloads from [`oltp`].
pub mod registry {
    use crate::sim::Workload;
    use crate::stamp::SuiteScale;

    /// Every workload name `by_name` accepts, in display order: the
    /// Figure 6 eight, then the OLTP family. (The hidden
    /// `kmeans-high` / `vacation-high` parameterizations resolve too but
    /// are not part of the default shelf.)
    pub fn workload_names() -> Vec<&'static str> {
        let mut names: Vec<&'static str> = crate::stamp::WORKLOAD_NAMES.to_vec();
        names.extend(OLTP_NAMES);
        names
    }

    /// The OLTP family.
    pub const OLTP_NAMES: [&str; 2] = ["oltp", "oltp-storm"];

    /// Build any registered workload by name.
    pub fn by_name(name: &str, scale: SuiteScale) -> Option<Box<dyn Workload>> {
        match name {
            "oltp" => Some(Box::new(crate::oltp::Oltp::new(scale))),
            "oltp-storm" => Some(Box::new(crate::oltp::Oltp::storm(scale))),
            _ => crate::stamp::by_name(name, scale),
        }
    }
}

/// The things almost every user needs.
pub mod prelude {
    pub use crate::registry::by_name;
    pub use crate::sim::{
        parse_fault_spec, run_workload, run_workload_traced, Abort, CoreFuture, RunResult,
        SetupCtx, ThreadCtx, TraceConfig, Tx, Workload,
    };
    pub use crate::stamp::{high_contention_suite, stamp_suite, SuiteScale};
    pub use crate::trace::{chrome_trace_json, summary_report, TraceEvent, TraceOutput, Tracer};
    pub use crate::types::{
        Breakdown, BreakdownKind, CheckLevel, FallbackMode, FaultSpec, MachineConfig, MachineStats,
        RobustnessConfig, SchemeKind, TxSite,
    };
}
