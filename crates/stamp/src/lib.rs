//! The STAMP benchmark suite, re-implemented over the simulated machine.
//!
//! All eight applications (Table IV) are rebuilt as executable kernels
//! that keep the published transactional structure — what runs inside
//! transactions, which data structures are shared, relative transaction
//! lengths and contention levels — with inputs scaled to simulator speed:
//!
//! | app       | shared structures               | length | contention |
//! |-----------|---------------------------------|--------|------------|
//! | bayes     | adjacency matrix + score cache  | long   | high       |
//! | genome    | segment hash set + chain links  | short  | high       |
//! | intruder  | fragment queue + flow map       | short  | high       |
//! | kmeans    | centroid accumulators           | tiny   | low        |
//! | labyrinth | 3-D routing grid                | long   | high       |
//! | ssca2     | graph adjacency arrays          | tiny   | low        |
//! | vacation  | reservation tables              | medium | low        |
//! | yada      | mesh records + work queue       | medium | high       |
//!
//! [`ds`] provides the transactional data-structure library the kernels
//! share (everything lives in *simulated* memory and is accessed through
//! `Tx`, so every operation is timed and conflict-checked).

pub mod ds;
pub mod workloads;

pub use workloads::{by_name, high_contention_suite, stamp_suite, SuiteScale, WORKLOAD_NAMES};
