//! Machine and HTM configuration.
//!
//! [`MachineConfig::default`] reproduces Table III of the paper. What no
//! configuration varies is a constant here rather than a field; the rows
//! name the field or constant that holds each value:
//!
//! | Component       | Paper value                                          | Held by |
//! |-----------------|------------------------------------------------------|---------|
//! | Processor core  | 1.2 GHz in-order, single issue                       | — |
//! | L1 cache        | 32 KB 4-way, 64-byte line, write-back, 1-cycle       | [`MachineConfig::l1`], [`LINE_BYTES`], [`L1_LATENCY`] |
//! | L2 cache        | 8 MB 8-way, write-back, 15-cycle                     | [`MachineConfig::l2`], [`L2_LATENCY`] |
//! | Main memory     | 4 GB, 4 banks, 150-cycle                             | [`MEM_BANKS`], [`MEM_LATENCY`] |
//! | L2 directory    | bit vector of sharers, 6-cycle                       | [`DIR_LATENCY`] |
//! | Interconnect    | mesh, 2-cycle wire latency, 1-cycle route latency    | [`NOC_WIRE_LATENCY`], [`NOC_ROUTE_LATENCY`] |
//! | Signature       | 2 Kbit Bloom filters                                 | [`HtmConfig::signature_bits`] |
//! | 1st-level table | 512-entry zero-latency fully-associative             | [`SuvConfig::l1_entries`] |
//! | 2nd-level table | 10-cycle latency, 16384-entry 8-way, shared          | [`SuvConfig::l2_entries`], [`SuvConfig::l2_ways`], [`SuvConfig::l2_latency`] |
//!
//! The costs the paper leaves open (checkpoint, trap, retry and backoff
//! cycles, nesting depth, redirect-pool and DynTM costs) are constants
//! too, alike for every scheme.

use crate::{Cycle, LINE_BYTES};

/// L1 hit latency in cycles.
pub const L1_LATENCY: Cycle = 1;
/// L2 hit latency in cycles.
pub const L2_LATENCY: Cycle = 15;
/// Main-memory access latency in cycles.
pub const MEM_LATENCY: Cycle = 150;
/// Interleaved memory banks (controllers); a line's bank is its line
/// index modulo this.
pub const MEM_BANKS: usize = 4;
/// Directory lookup latency in cycles.
pub const DIR_LATENCY: Cycle = 6;
/// Per-hop wire latency of the mesh.
pub const NOC_WIRE_LATENCY: Cycle = 2;
/// Per-hop route (switch) latency of the mesh.
pub const NOC_ROUTE_LATENCY: Cycle = 1;

/// Cycles to take a register checkpoint at transaction begin.
pub const CHECKPOINT_CYCLES: Cycle = 4;
/// Cycles to restore the register checkpoint on abort.
pub const RESTORE_CYCLES: Cycle = 4;
/// Fixed cost of trapping into the software abort handler (LogTM-SE, and
/// FasTM once degenerate, walk the undo log in software).
pub const SOFTWARE_TRAP_CYCLES: Cycle = 100;
/// Interval between retries of a NACKed (stalled) request.
pub const RETRY_INTERVAL: Cycle = 20;
/// Width in cycles of the first post-abort backoff window (a backoff is a
/// uniform draw from it); the window doubles per consecutive abort of the
/// same transaction.
pub const BACKOFF_BASE: Cycle = 40;
/// Upper bound on the backoff window.
pub const BACKOFF_CAP: Cycle = 4096;
/// Maximum nesting depth (stacked frames, LogTM-Nested style).
pub const MAX_NEST_DEPTH: usize = 8;

/// Cycles to search swapped-out redirect entries in main memory on a full
/// two-level table miss (software-managed routine).
pub const MEM_SEARCH_CYCLES: Cycle = 150;
/// Cycles to allocate a fresh page in the preserved redirect pool
/// (hardware-managed, charged once per page).
pub const POOL_PAGE_ALLOC_CYCLES: Cycle = 30;

/// Entries in DynTM's per-site predictor table.
pub const PREDICTOR_SITES: usize = 1024;
/// DynTM's saturating-counter threshold at or above which a site runs lazy.
/// Counters saturate at 3; aborts increment, commits decrement.
pub const LAZY_THRESHOLD: u8 = 2;
/// Cycles to acquire commit permission (arbitration) for a lazy commit.
pub const COMMIT_ARBITRATION_CYCLES: Cycle = 20;

/// Geometry of a set-associative cache with [`LINE_BYTES`]-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeom {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * LINE_BYTES)) as usize
    }

    /// Total number of lines the cache can hold.
    pub fn lines(&self) -> usize {
        (self.capacity_bytes / LINE_BYTES) as usize
    }

    /// Paper L1: 32 KB, 4-way.
    pub fn l1_default() -> Self {
        CacheGeom { capacity_bytes: 32 * 1024, ways: 4 }
    }

    /// Paper L2: 8 MB, 8-way.
    pub fn l2_default() -> Self {
        CacheGeom { capacity_bytes: 8 * 1024 * 1024, ways: 8 }
    }
}

/// HTM framework parameters common to every version-management scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// Bits in each read/write Bloom-filter signature (2 Kbit in the paper).
    pub signature_bits: usize,
    /// Number of hash functions per signature.
    pub signature_hashes: usize,
    /// Ablation: replace the Bloom-filter signatures with exact sets
    /// (physically unrealizable; isolates the cost of false conflicts).
    pub perfect_signatures: bool,
    /// Closed nesting with partial abort (LogTM-Nested stacked frames)
    /// for version managers that support it; `false` flattens all
    /// nesting into the outermost transaction.
    pub partial_nesting: bool,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            signature_bits: 2048,
            signature_hashes: 4,
            perfect_signatures: false,
            partial_nesting: true,
        }
    }
}

/// SUV redirect-table parameters (Table III, bottom rows). The first-level
/// table is the paper's "zero-latency" one: its fully-associative lookup is
/// folded into the pipeline, so a first-level hit costs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuvConfig {
    /// Entries in the per-core first-level fully-associative redirect table.
    pub l1_entries: usize,
    /// Entries in the shared second-level redirect table.
    pub l2_entries: usize,
    /// Associativity of the second-level table.
    pub l2_ways: usize,
    /// Access latency of the second-level table.
    pub l2_latency: u64,
    /// Bits in the redirect summary signature (and its once-written
    /// companion bit-vector), 2 Kbit each in the paper.
    pub summary_bits: usize,
    /// Hash functions used by the summary signature.
    pub summary_hashes: usize,
}

impl Default for SuvConfig {
    fn default() -> Self {
        SuvConfig {
            l1_entries: 512,
            l2_entries: 16384,
            l2_ways: 8,
            l2_latency: 10,
            summary_bits: 2048,
            summary_hashes: 2,
        }
    }
}

impl SuvConfig {
    /// Banks the shared second-level table is sharded into on an
    /// `n_cores` machine: one per 16 cores (the paper's machine size, so
    /// the paper configuration keeps its single shared table). Rounded up
    /// to a power of two — each bank is a set-associative tag array whose
    /// set count must stay a power of two — and clamped so every bank
    /// keeps at least one full set of `l2_ways` entries.
    pub fn l2_bank_count(&self, n_cores: usize) -> usize {
        let raw = n_cores.div_ceil(16);
        let sets = (self.l2_entries / self.l2_ways).max(1);
        let cap = 1 << sets.ilog2(); // round the clamp DOWN to a power of two
        raw.next_power_of_two().clamp(1, cap)
    }
}

/// Deterministic fault-injection parameters and capacity clamps (`suvtm
/// run --faults`).
///
/// All perturbations are drawn from per-core seeded RNGs in simulated-time
/// order, so a given spec reproduces the same schedule — and the same
/// trace hash — on every run. The spec grammar (`seed=`, `nack=`,
/// `delay=`, `overflow=`, `pool=`, `log=`, `wb=`) is parsed in
/// `suv-sim`'s `fault` module; installing a spec with only clamps set
/// (every percentage 0) clamps without perturbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// RNG seed the per-core injector streams derive from.
    pub seed: u64,
    /// Percent (0..=100) of transactional memory requests spuriously
    /// NACKed before reaching the directory.
    pub nack_pct: u8,
    /// Percent (0..=100) of completed memory accesses whose NoC leg is
    /// delayed.
    pub delay_pct: u8,
    /// Extra cycles an injected NoC delay adds to the access.
    pub delay_cycles: u64,
    /// Clamp the SUV redirect pool to this many demand pages (0 = bounded
    /// only by the pool region).
    pub pool_pages: u64,
    /// Cap each core's undo-log footprint in bytes for the log-based
    /// schemes (LogTM-SE, degenerated FasTM); exceeding it is a capacity
    /// overflow abort (0 = unbounded).
    pub log_bytes: u64,
    /// Cap the lazy write buffer at this many distinct lines per
    /// transaction; exceeding it is a capacity overflow abort
    /// (0 = unbounded).
    pub write_buffer_lines: u64,
    /// Percent (0..=100) of transactional stores that spuriously report
    /// version-manager pool exhaustion (a capacity-overflow abort), so the
    /// full escalation ladder is exercisable under seeded faults.
    pub overflow_pct: u8,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            nack_pct: 0,
            delay_pct: 0,
            delay_cycles: 0,
            pool_pages: 0,
            log_bytes: 0,
            write_buffer_lines: 0,
            overflow_pct: 0,
        }
    }
}

/// Which software tier the escalation ladder climbs to once a
/// transaction's hardware retry budget is spent (`--fallback` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FallbackMode {
    /// Never escalate: keep retrying in hardware forever. Dangerous under
    /// capacity clamps (a transaction larger than the pool livelocks) —
    /// exists for ablations and for reproducing pre-ladder behaviour.
    Off,
    /// Three-tier ladder: hardware retries, then STM-mode software
    /// execution concurrent with hardware transactions, then (after
    /// [`RobustnessConfig::sw_retries`] software validation failures) the
    /// chip-wide irrevocable token.
    Stm,
    /// Two-tier ladder (the pre-hybrid behaviour, and the default):
    /// hardware retries, then the chip-wide irrevocable token.
    #[default]
    IrrevocableOnly,
}

impl FallbackMode {
    /// Parse a `--fallback=<mode>` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(FallbackMode::Off),
            "stm" => Some(FallbackMode::Stm),
            "irrevocable-only" => Some(FallbackMode::IrrevocableOnly),
            _ => None,
        }
    }

    /// The flag spelling (`off`/`stm`/`irrevocable-only`).
    pub fn name(self) -> &'static str {
        match self {
            FallbackMode::Off => "off",
            FallbackMode::Stm => "stm",
            FallbackMode::IrrevocableOnly => "irrevocable-only",
        }
    }
}

/// Graceful-degradation knobs: the escalation ladder for overflowing
/// transactions, the livelock/starvation watchdog, and the fault spec that
/// carries the resource-capacity clamps. A threshold of 0 disables that
/// trigger.
///
/// The defaults arm the overflow ladder (it only fires where the old code
/// would have panicked) and set watchdog thresholds far beyond anything a
/// healthy run reaches, so default-config schedules are bit-identical to
/// pre-robustness builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessConfig {
    /// Overflow aborts of a single dynamic transaction before it escalates
    /// to irrevocable execution (0 = never escalate on overflow).
    pub overflow_retries: u32,
    /// Watchdog: total aborts of a single dynamic transaction before it is
    /// deemed starving and escalates (0 = disabled).
    pub max_tx_aborts: u32,
    /// Watchdog: cycles since a dynamic transaction's first begin before
    /// it is deemed starving and escalates (0 = disabled).
    pub max_starvation_cycles: u64,
    /// Deterministic fault injection and capacity clamps, when armed.
    pub faults: Option<FaultSpec>,
    /// Which tier the ladder escalates into once a hardware retry budget
    /// is spent. The default keeps the pre-hybrid two-tier behaviour.
    pub fallback: FallbackMode,
    /// Software-fallback attempts (STM-mode aborts: failed validation,
    /// hardware conflicts) before the transaction escalates from the STM
    /// tier to the irrevocable token (0 = stay in software forever).
    /// Inert unless [`FallbackMode::Stm`] is selected.
    pub sw_retries: u32,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            overflow_retries: 2,
            max_tx_aborts: 1024,
            max_starvation_cycles: 100_000_000,
            faults: None,
            fallback: FallbackMode::IrrevocableOnly,
            sw_retries: 8,
        }
    }
}

/// Which HTM scheme a simulation runs. Mirrors the paper's comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// LogTM-SE: eager VM via undo log + in-place update; software abort walk.
    LogTmSe,
    /// FasTM: L1-resident speculative values, fast abort, degenerates to
    /// LogTM-SE on L1 overflow.
    FasTm,
    /// SUV-TM: single-update redirection (the paper's contribution).
    SuvTm,
    /// DynTM with its original FasTM-based version management.
    DynTm,
    /// DynTM with SUV replacing the version-management scheme ("D+S").
    DynTmSuv,
    /// Pure lazy (TCC-like) versioning; used as an ablation baseline.
    Lazy,
}

impl SchemeKind {
    /// Short label used in figures (matches the paper's L/F/S/D/D+S keys).
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::LogTmSe => "L",
            SchemeKind::FasTm => "F",
            SchemeKind::SuvTm => "S",
            SchemeKind::DynTm => "D",
            SchemeKind::DynTmSuv => "D+S",
            SchemeKind::Lazy => "TCC",
        }
    }

    /// Full human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::LogTmSe => "LogTM-SE",
            SchemeKind::FasTm => "FasTM",
            SchemeKind::SuvTm => "SUV-TM",
            SchemeKind::DynTm => "DynTM",
            SchemeKind::DynTmSuv => "DynTM+SUV",
            SchemeKind::Lazy => "Lazy(TCC)",
        }
    }

    /// Every scheme, in the order `suvtm` lists, sweeps and verifies them.
    pub const ALL: [SchemeKind; 6] = [
        SchemeKind::LogTmSe,
        SchemeKind::FasTm,
        SchemeKind::Lazy,
        SchemeKind::DynTm,
        SchemeKind::SuvTm,
        SchemeKind::DynTmSuv,
    ];
    /// All schemes compared in Figure 6.
    pub const FIG6: [SchemeKind; 3] = [SchemeKind::LogTmSe, SchemeKind::FasTm, SchemeKind::SuvTm];
    /// Schemes compared in Figure 9.
    pub const FIG9: [SchemeKind; 2] = [SchemeKind::DynTm, SchemeKind::DynTmSuv];

    /// The canonical flag spelling (`suvtm --scheme`, `suvtm list`).
    pub fn flag(self) -> &'static str {
        match self {
            SchemeKind::LogTmSe => "logtm-se",
            SchemeKind::FasTm => "fastm",
            SchemeKind::Lazy => "lazy",
            SchemeKind::DynTm => "dyntm",
            SchemeKind::SuvTm => "suv",
            SchemeKind::DynTmSuv => "dyntm-suv",
        }
    }

    /// Parse a `--scheme` flag value: the [`SchemeKind::flag`] spelling or
    /// one of its aliases, case-insensitively.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "logtm" | "logtm-se" | "l" => Some(SchemeKind::LogTmSe),
            "fastm" | "f" => Some(SchemeKind::FasTm),
            "suv" | "suv-tm" | "s" => Some(SchemeKind::SuvTm),
            "lazy" | "tcc" => Some(SchemeKind::Lazy),
            "dyntm" | "d" => Some(SchemeKind::DynTm),
            "dyntm-suv" | "d+s" | "ds" => Some(SchemeKind::DynTmSuv),
            _ => None,
        }
    }
}

/// How much runtime invariant checking the machine performs.
///
/// Levels are ordered: `Cheap` includes everything `Off` does (nothing),
/// `Full` includes everything `Cheap` does. Checks are correctness oracles
/// only — they never consume simulated cycles, so timing results are
/// identical at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CheckLevel {
    /// No checking; the production/benchmark configuration.
    #[default]
    Off,
    /// O(1)-per-event assertions: coherence invariants on the line a
    /// `fill` touched, redirect-table spot checks at commit/abort.
    Cheap,
    /// Everything in `Cheap`, plus whole-structure scans (full directory
    /// sweep after each fill, full redirect-table audit at tx end) and
    /// the shadow-memory isolation oracle on every load/store.
    Full,
}

impl CheckLevel {
    /// Parse a `--check=<level>` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(CheckLevel::Off),
            "cheap" => Some(CheckLevel::Cheap),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }

    /// The flag spelling (`off`/`cheap`/`full`).
    pub fn name(self) -> &'static str {
        match self {
            CheckLevel::Off => "off",
            CheckLevel::Cheap => "cheap",
            CheckLevel::Full => "full",
        }
    }
}

/// Full machine configuration (Table III plus the HTM and SUV knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores (16 in the paper, arranged in a 4x4 mesh).
    pub n_cores: usize,
    /// Mesh rows; 0 derives square dimensions from `n_cores` (the paper's
    /// 4x4). Set both `mesh_rows` and `mesh_cols` to force a rectangle.
    pub mesh_rows: usize,
    /// Mesh columns; 0 derives square dimensions from `n_cores`.
    pub mesh_cols: usize,
    /// L1 data cache geometry.
    pub l1: CacheGeom,
    /// Shared L2 geometry.
    pub l2: CacheGeom,
    /// Whether the NoC models per-link occupancy (queuing) in addition to
    /// the base hop latency.
    pub noc_contention: bool,
    /// HTM framework parameters.
    pub htm: HtmConfig,
    /// SUV redirect-table parameters.
    pub suv: SuvConfig,
    /// Runtime invariant-checking level (see [`CheckLevel`]).
    pub check: CheckLevel,
    /// Graceful-degradation parameters (see [`RobustnessConfig`]).
    pub robust: RobustnessConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            n_cores: 16,
            mesh_rows: 0,
            mesh_cols: 0,
            l1: CacheGeom::l1_default(),
            l2: CacheGeom::l2_default(),
            noc_contention: false,
            htm: HtmConfig::default(),
            suv: SuvConfig::default(),
            check: CheckLevel::Off,
            robust: RobustnessConfig::default(),
        }
    }
}

impl MachineConfig {
    /// A scaled-down machine useful for fast unit tests: 4 cores, small
    /// caches and tables, but the same latencies and protocol behaviour.
    #[allow(clippy::field_reassign_with_default)] // clearer as deltas from Table III
    pub fn small_test() -> Self {
        let mut c = MachineConfig::default();
        c.n_cores = 4;
        c.l1 = CacheGeom { capacity_bytes: 4 * 1024, ways: 2 };
        c.l2 = CacheGeom { capacity_bytes: 64 * 1024, ways: 4 };
        c.suv.l1_entries = 32;
        c.suv.l2_entries = 256;
        c
    }

    /// Mesh side length: the smallest square that fits `n_cores`.
    pub fn mesh_side(&self) -> usize {
        let mut s = 1;
        while s * s < self.n_cores {
            s += 1;
        }
        s
    }

    /// Resolved mesh dimensions as `(rows, cols)`.
    ///
    /// Explicit `mesh_rows`/`mesh_cols` win (both must be set, and the
    /// rectangle must fit `n_cores`); otherwise the default is the square
    /// [`MachineConfig::mesh_side`] derivation, so existing configurations
    /// keep their exact geometry and trace hashes.
    pub fn mesh_dims(&self) -> (usize, usize) {
        if self.mesh_rows != 0 && self.mesh_cols != 0 {
            assert!(
                self.mesh_rows * self.mesh_cols >= self.n_cores,
                "{}x{} mesh cannot seat {} cores",
                self.mesh_rows,
                self.mesh_cols,
                self.n_cores
            );
            (self.mesh_rows, self.mesh_cols)
        } else {
            let s = self.mesh_side();
            (s, s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let c = MachineConfig::default();
        assert_eq!(c.n_cores, 16);
        assert_eq!(c.l1.capacity_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(L1_LATENCY, 1);
        assert_eq!(c.l2.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(L2_LATENCY, 15);
        assert_eq!(MEM_LATENCY, 150);
        assert_eq!(MEM_BANKS, 4);
        assert_eq!(DIR_LATENCY, 6);
        assert_eq!(NOC_WIRE_LATENCY, 2);
        assert_eq!(NOC_ROUTE_LATENCY, 1);
        assert_eq!(c.htm.signature_bits, 2048);
        assert_eq!(c.suv.l1_entries, 512);
        assert_eq!(c.suv.l2_entries, 16384);
        assert_eq!(c.suv.l2_ways, 8);
        assert_eq!(c.suv.l2_latency, 10);
    }

    #[test]
    fn cache_geometry() {
        let l1 = CacheGeom::l1_default();
        assert_eq!(l1.sets(), 128); // 32KB / (4 * 64B)
        assert_eq!(l1.lines(), 512);
        let l2 = CacheGeom::l2_default();
        assert_eq!(l2.sets(), 16384);
    }

    #[test]
    fn mesh_side_is_square() {
        let c = MachineConfig::default();
        assert_eq!(c.mesh_side(), 4);
        let mut c2 = c;
        c2.n_cores = 4;
        assert_eq!(c2.mesh_side(), 2);
        c2.n_cores = 5;
        assert_eq!(c2.mesh_side(), 3);
        c2.n_cores = 1;
        assert_eq!(c2.mesh_side(), 1);
    }

    #[test]
    fn mesh_dims_default_to_square() {
        let mut c = MachineConfig::default();
        assert_eq!(c.mesh_dims(), (4, 4));
        c.n_cores = 128;
        assert_eq!(c.mesh_dims(), (12, 12));
        c.mesh_rows = 8;
        c.mesh_cols = 16;
        assert_eq!(c.mesh_dims(), (8, 16));
    }

    #[test]
    #[should_panic(expected = "cannot seat")]
    fn undersized_mesh_override_is_rejected() {
        let c = MachineConfig { mesh_rows: 2, mesh_cols: 2, ..MachineConfig::default() };
        let _ = c.mesh_dims();
    }

    #[test]
    fn l2_bank_count_scales_with_cores() {
        let s = SuvConfig::default();
        // Paper machine (<=16 cores): one shared table, exactly the old
        // unbanked behaviour.
        assert_eq!(s.l2_bank_count(1), 1);
        assert_eq!(s.l2_bank_count(16), 1);
        assert_eq!(s.l2_bank_count(17), 2);
        assert_eq!(s.l2_bank_count(64), 4);
        assert_eq!(s.l2_bank_count(96), 8, "non-power-of-two raw counts round up");
        assert_eq!(s.l2_bank_count(256), 16);
        // A two-set table is clamped to one set per bank.
        let small = SuvConfig { l2_entries: 16, l2_ways: 8, ..s };
        assert_eq!(small.l2_bank_count(256), 2);
    }

    #[test]
    fn check_levels_are_ordered() {
        assert!(CheckLevel::Off < CheckLevel::Cheap);
        assert!(CheckLevel::Cheap < CheckLevel::Full);
        assert_eq!(MachineConfig::default().check, CheckLevel::Off);
        for lvl in [CheckLevel::Off, CheckLevel::Cheap, CheckLevel::Full] {
            assert_eq!(CheckLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(CheckLevel::parse("bogus"), None);
    }

    #[test]
    fn robustness_defaults_are_inert_for_healthy_runs() {
        let r = RobustnessConfig::default();
        // The injector defaults to "off", and a spec's capacity clamps to
        // "unbounded": default-config schedules must be bit-identical to
        // pre-robustness builds.
        assert_eq!(r.faults, None);
        let spec = FaultSpec::default();
        assert_eq!((spec.pool_pages, spec.log_bytes, spec.write_buffer_lines), (0, 0, 0));
        // The ladder itself stays armed — it only fires where the old
        // code panicked — and the watchdog thresholds sit far beyond any
        // healthy transaction.
        assert!(r.overflow_retries > 0);
        assert!(r.max_tx_aborts >= 1024);
        assert!(r.max_starvation_cycles >= 100_000_000);
        // The hybrid-fallback knobs default to the pre-hybrid ladder shape.
        assert_eq!(r.fallback, FallbackMode::IrrevocableOnly);
        assert!(r.sw_retries > 0);
        assert_eq!(spec.overflow_pct, 0);
        assert_eq!(MachineConfig::default().robust, r);
    }

    #[test]
    fn fallback_mode_roundtrips() {
        for m in [FallbackMode::Off, FallbackMode::Stm, FallbackMode::IrrevocableOnly] {
            assert_eq!(FallbackMode::parse(m.name()), Some(m));
        }
        assert_eq!(FallbackMode::parse("bogus"), None);
        assert_eq!(FallbackMode::default(), FallbackMode::IrrevocableOnly);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(SchemeKind::LogTmSe.label(), "L");
        assert_eq!(SchemeKind::SuvTm.name(), "SUV-TM");
        assert_eq!(SchemeKind::FIG6.len(), 3);
        assert_eq!(SchemeKind::FIG9.len(), 2);
    }
}
