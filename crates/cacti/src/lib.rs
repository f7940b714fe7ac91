//! cacti-lite: a simplified CACTI-style analytical model.
//!
//! The paper uses CACTI 5.3 to estimate the access time, dynamic energy
//! and silicon area of SUV's 512-entry fully-associative first-level
//! redirect table (Table VII) and compares the costs against contemporary
//! processors (Table VI). CACTI itself is a large C++ tool built around
//! per-technology device tables and RC delay models; `cacti-lite`
//! reimplements the parts this evaluation needs:
//!
//! * per-node device tables (FO4 delay, supply voltage, relative
//!   capacitance and effective cell area) calibrated against CACTI 5.3's
//!   90/65/45/32 nm outputs;
//! * a fully-associative (CAM-tag) array model: decode + match + read-out
//!   delay in FO4s, CAM-search-dominated dynamic energy, periphery-
//!   inclusive area;
//! * a set-associative array model for the shared second-level table;
//! * the paper's §V.C storage/energy/area arithmetic and the Table VI
//!   processor reference data.

pub mod model;
pub mod processors;
pub mod tech;

pub use model::{estimate_fa, estimate_sa, ArrayConfig, Estimate};
pub use processors::{
    storage_per_core_kb, tables_area_mm2, worst_case_power_w, Processor, PROCESSORS,
};
pub use tech::{TechNode, NODES};
