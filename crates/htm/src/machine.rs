//! The transactional memory controller.
//!
//! [`HtmMachine`] is the single point through which simulated threads touch
//! memory. It owns the functional memory, the timing model, the per-core
//! transaction descriptors and the pluggable version manager, and
//! implements what every compared scheme shares: who wins a conflict — one
//! `const` table, `conflict::RULES` (NACKs under LogTM's
//! possible-cycle rule, DynTM's lazy mode, strong isolation, the software
//! tier) — and isolation windows: a transaction keeps defending its sets
//! while `Aborting` or `Committing`, and how long those windows last is
//! exactly what distinguishes the version managers.
//!
//! # One access pipeline
//!
//! Every access of every tier (non-transactional, hardware, software) is
//! a short sequence of the same stages, each of which exists once:
//! `settle` → doomed check → `sw_lock_nack` → version-manager resolve
//! (`with_vm`) → conflict resolution against the table (`resolve`) → NACK
//! assembly (`nack`) → `fill` → functional read/write → tracking (sets,
//! statistics, trace, shadow).
//! The tiers differ only in which stages run, in what order and at what
//! latency charge: the entry points spell each sequence out and
//! DESIGN.md §9 tabulates them.

use crate::conflict::{rule, ConflictIndex, Event, Found, Holder, Plan, Req, Rule, Verdict};
use crate::script::Phase;
use crate::shadow::ShadowOracle;
use crate::swvm::{self, SwVm};
use crate::tx::{TxState, TxStatus};
use crate::vm::{LevelOp, LoadTarget, StoreMode, StoreTarget, VersionManager, VmEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use suv_coherence::{AccessKind, MemorySystem};
use suv_mem::Memory;
use suv_trace::{ConflictDir, EscalationReason, FallbackAbortReason, TraceEvent, Tracer};
use suv_types::config::{
    BACKOFF_BASE, BACKOFF_CAP, CHECKPOINT_CYCLES, COMMIT_ARBITRATION_CYCLES, L1_LATENCY,
    L2_LATENCY, MAX_NEST_DEPTH, RESTORE_CYCLES,
};
use suv_types::{
    line_of, word_of, Addr, CheckLevel, CoreId, Cycle, LineAddr, MachineConfig, OverflowStats,
    SharerSet, TxSite, TxStats, CORE_ID_BITS, MAX_CORES,
};

/// Outcome of a memory access through the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The access completed.
    Done {
        /// Loaded value (0 for stores).
        value: u64,
        /// Cycles consumed.
        latency: Cycle,
    },
    /// The access was NACKed by `nacker`'s transaction; the requester
    /// should stall and retry, or abort when `must_abort` is set
    /// (possible-cycle rule).
    Nacked { nacker: CoreId, latency: Cycle, must_abort: bool },
    /// The core's transaction was doomed by a lazy committer and must
    /// abort before doing anything else.
    MustAbort { latency: Cycle },
    /// The version manager ran out of capacity for this store (redirect
    /// pool dry, undo log full, write buffer full). The transaction must
    /// abort; the sim layer's escalation ladder decides how to retry.
    Overflow { latency: Cycle },
}

/// Outcome of a commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed. `committing` is the portion of `latency` attributable to
    /// lazy arbitration + merge (the Figure 9 "Committing" component).
    Committed { latency: Cycle, committing: Cycle },
    /// Commit-time validation failed (or the transaction was doomed); the
    /// caller must abort.
    MustAbort { latency: Cycle },
}

/// Outcome of a software-fallback commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwCommitOutcome {
    /// Committed; the write lines stay software-locked for `latency`.
    Committed { latency: Cycle },
    /// Another software commit's lock window covers a line this
    /// transaction touched. The window closes unconditionally, so the
    /// caller stalls `latency` and retries the commit — never aborts.
    Busy { nacker: CoreId, latency: Cycle },
    /// The commit lost, for `reason`. The caller must abort via
    /// [`HtmMachine::abort_sw_tx`].
    MustAbort { reason: FallbackAbortReason, latency: Cycle },
}

/// The HTM controller, generic over its version manager so that no scheme
/// call is an indirect one. A clone is a fork of the whole simulated state.
#[derive(Clone)]
pub struct HtmMachine<V> {
    cfg: MachineConfig,
    /// Functional memory (public for workload setup code).
    pub mem: Memory,
    /// Timing model (public for tests that inspect cache state).
    pub sys: MemorySystem,
    txs: Vec<TxState>,
    /// The cores whose descriptor is not `Idle` (INV-14): inserted at the
    /// outermost begin, removed where [`HtmMachine::settle`] closes the
    /// isolation window. The audits walk this set instead of all `n_cores`
    /// descriptors; nothing on the access path reads it.
    live: SharerSet,
    /// The cores whose descriptor [`TxState::defends`] (INV-16): eager from
    /// begin, lazy from its transaction end, either until its window
    /// closes. The conflict search ANDs it into the index rows, so a core
    /// that does not defend is never looked at.
    defenders: SharerSet,
    /// The cores running an `Active` lazy transaction (INV-16): whom an
    /// eager store may doom. Empty under every scheme but DynTM.
    lazy_active: SharerSet,
    /// The open Aborting/Committing windows as `(until, core)`, soonest
    /// first (INV-16): one pushed per transaction end, popped by
    /// [`HtmMachine::settle`] once due.
    windows: BinaryHeap<Reverse<(Cycle, CoreId)>>,
    /// When the soonest queued window closes, `Cycle::MAX` with none queued
    /// (INV-16): a settle with nothing due is one compare against it.
    next_window: Cycle,
    /// Every core's read and write signatures, stored transposed (INV-15):
    /// each search runs its test on the cores this lists for the line, in
    /// ascending order.
    index: ConflictIndex,
    vm: V,
    /// The STM-mode software fallback tier, alongside the hardware scheme.
    sw: SwVm,
    tx_stats: Vec<TxStats>,
    overflow: OverflowStats,
    /// Chip-wide lazy-commit token: free-at time.
    commit_token_free: Cycle,
    /// Outermost begins that ran lazy.
    lazy_txns: u64,
    rngs: Vec<StdRng>,
    /// Event/metrics sink; disabled by default (one predictable branch per
    /// emission point).
    tracer: Tracer,
    /// Shadow-memory isolation oracle (`CheckLevel::Full` only).
    shadow: Option<ShadowOracle>,
}

impl<V: VersionManager> HtmMachine<V> {
    /// Build a machine running the given version-management scheme.
    #[must_use]
    pub fn new(cfg: &MachineConfig, vm: V) -> Self {
        assert!(cfg.n_cores <= MAX_CORES, "a transaction age names at most {MAX_CORES} cores");
        HtmMachine {
            cfg: *cfg,
            mem: Memory::new(),
            sys: MemorySystem::new(cfg),
            txs: vec![TxState::default(); cfg.n_cores],
            live: SharerSet::new(),
            defenders: SharerSet::new(),
            lazy_active: SharerSet::new(),
            windows: BinaryHeap::new(),
            next_window: Cycle::MAX,
            index: ConflictIndex::new(cfg),
            vm,
            sw: SwVm::new(cfg.n_cores),
            tx_stats: vec![TxStats::default(); cfg.n_cores],
            overflow: OverflowStats::default(),
            commit_token_free: 0,
            lazy_txns: 0,
            rngs: (0..cfg.n_cores).map(|c| StdRng::seed_from_u64(0x00BA_C0FF + c as u64)).collect(),
            tracer: Tracer::disabled(),
            shadow: (cfg.check >= CheckLevel::Full).then(|| ShadowOracle::new(cfg.n_cores)),
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Install a tracer (replacing the default disabled one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Borrow the tracer (e.g. to check [`Tracer::on`] or read metrics).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Take the tracer out for finishing, leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Emit an event attributed to `core` at time `t`. Hook for callers
    /// that hold the machine lock (the sim layer's barrier accounting).
    pub fn trace_emit(&mut self, t: Cycle, core: CoreId, ev: TraceEvent) {
        self.tracer.emit(t, core, ev);
    }

    /// Is `core` currently inside a transaction?
    #[must_use]
    pub fn in_tx(&self, core: CoreId) -> bool {
        self.txs[core].depth > 0 && matches!(self.txs[core].status, TxStatus::Active)
    }

    /// What `core` is inside of: a hardware transaction, by depth and mode,
    /// a software one, or neither.
    #[must_use]
    pub fn phase(&self, core: CoreId) -> Phase {
        let t = &self.txs[core];
        if self.in_tx(core) {
            Phase::Hw { depth: t.depth, irrevocable: t.irrevocable, lazy: t.lazy }
        } else if self.sw.active(core) {
            Phase::Sw
        } else {
            Phase::Idle
        }
    }

    /// Run `f` on the version manager, handing it the view of the machine
    /// it operates through at time `now`.
    #[inline]
    fn with_vm<R>(&mut self, now: Cycle, f: impl FnOnce(&mut V, &mut VmEnv) -> R) -> R {
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        f(&mut self.vm, &mut env)
    }

    /// Close expired isolation windows, soonest first. Called at the head
    /// of every operation; correctness relies on the engine dispatching
    /// operations in global time order. Closing a window touches only its
    /// own core's descriptor, index column and mask bits, so closings of
    /// different cores commute and the order they are popped in is free.
    #[inline]
    fn settle(&mut self, now: Cycle) {
        while now >= self.next_window {
            self.close_next_window();
        }
    }

    /// Close the soonest window, which is due, and refresh `next_window`.
    #[inline(never)]
    fn close_next_window(&mut self) {
        let Reverse((_, c)) =
            self.windows.pop().expect("INV-16: next_window names a queued window");
        let t = &mut self.txs[c];
        // The core's signatures empty with its sets.
        self.index.put_tx(c, t, false);
        match t.status {
            TxStatus::Aborting { .. } => t.clear_attempt(),
            TxStatus::Committing { .. } => t.clear_dynamic(),
            TxStatus::Active | TxStatus::Idle => {
                unreachable!("core {c} has a window queued but is {:?}", t.status)
            }
        }
        self.live.remove(c);
        self.defenders.remove(c);
        self.next_window = self.windows.peek().map_or(Cycle::MAX, |w| w.0 .0);
    }

    /// `CheckLevel::Full` cross-check of an indexed search against the
    /// all-cores scan (INV-15): every core one of whose levels holds `line`
    /// (read, with `readers`, or written) is a candidate, so no conflict a
    /// scan of the exact sets would find is missed. A stray column bit is a
    /// false positive here, like any other; the rebuild at the next
    /// transaction end catches it.
    #[inline]
    fn audit_candidates(&self, now: Cycle, line: LineAddr, readers: bool) {
        if self.cfg.check >= CheckLevel::Full {
            self.audit_candidates_full(now, line, readers);
        }
    }

    #[inline(never)]
    fn audit_candidates_full(&self, now: Cycle, line: LineAddr, readers: bool) {
        let listed: SharerSet = self.index.candidates(line, readers).map(|h| h.0).collect();
        for (c, t) in self.txs.iter().enumerate() {
            let held = (readers && t.reads_contain(line)) || t.writes_contain(line);
            assert!(
                !held || listed.contains(c),
                "INV-15 violated at t={now}: core {c}'s sets hold {line:#x} but the \
                 signature index does not list the core"
            );
        }
    }

    /// What `core`'s hardware transaction is as a requester.
    fn req_of(&self, core: CoreId) -> Req {
        match &self.txs[core] {
            t if t.irrevocable => Req::Irrevocable,
            t if t.lazy => Req::Lazy,
            _ => Req::Eager,
        }
    }

    /// The conflict stage (DESIGN.md §6.1): walk the hardware holders of
    /// `line` that the table may rule on for `core`'s `ev` as `req`, through
    /// the signature index, lowest core first. `Err` is the first that
    /// refuses or beats the request; `Ok` the holders, none doomed yet, to
    /// doom once the event goes through. A window closed by `at` holds
    /// nothing. Every caller has settled, so at `now` a masked core's
    /// window is open (INV-16) and a core outside the masks is never loaded.
    // `always`: inlined, a call site's constant row folds its walk plan;
    // left the choice, fat LTO keeps one out-of-line copy for every row.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn resolve(&self, at: Cycle, core: CoreId, (req, ev): (Req, Event), line: LineAddr) -> Found {
        let (plan, mut dooms) = (Plan::of(req, ev), SharerSet::new());
        if !plan.defenders {
            return Ok(dooms);
        }
        self.audit_candidates(at, line, plan.readers);
        let lazy = (plan.lazy && !self.lazy_active.is_empty()).then_some(&self.lazy_active);
        // The machine's hottest search: a plain loop over the index's word
        // loop, no adapter in between.
        for (c, rhit, whit) in self.index.candidates_in(line, plan.readers, &self.defenders, lazy) {
            let t = &self.txs[c];
            let Some(holder) = Holder::of(t, at).filter(|_| c != core) else { continue };
            // Perfect signatures: the candidate's exact sets decide.
            let (rhit, whit) = if self.cfg.htm.perfect_signatures {
                (plan.readers && t.reads_contain(line), t.writes_contain(line))
            } else {
                (rhit, whit)
            };
            if !(rhit || whit) {
                continue;
            }
            // Unless its two cells differ, a reader counts as a writer.
            let written = whit || (!plan.split && rhit);
            let r = rule(req, ev, holder, written);
            match r.verdict() {
                Verdict::Pass => {}
                Verdict::Doom if t.doomed => {}
                Verdict::Doom => _ = dooms.insert(c),
                Verdict::Nack | Verdict::Lose => return Err((c, r)),
            }
        }
        Ok(dooms)
    }

    /// Doom the hardware transactions of `cores` not doomed yet; with a
    /// software committer's `line`, trace each as a cross-tier loss.
    fn doom(&mut self, now: Cycle, cores: &SharerSet, sw_line: Option<LineAddr>) {
        for c in cores.iter() {
            if let (false, Some(l)) = (std::mem::replace(&mut self.txs[c].doomed, true), sw_line) {
                self.cross_tier(now, c, l, ConflictDir::SwCommitVsHw);
            }
        }
    }

    /// NACK assembly: the one place a refused request is counted, timed,
    /// traced and turned into the [`Access`] its issuer sees. `lead` is
    /// the latency the requester had already spent (resolution or
    /// version-management work) when the refusal left; rule `r` refused it.
    /// A `Lose` cell makes the requester abort; the `Cycle` and
    /// `IrrevocableWaits` cells leave that to the possible-cycle rule's
    /// timestamps. The NACK proper is attributed to the defender and the
    /// resulting stall to the requester, so per-core `nack` event counts
    /// reconcile with `nacks_sent` and `stall` counts with `nacks_received`.
    fn nack(
        &mut self,
        now: Cycle,
        requester: CoreId,
        nacker: CoreId,
        line: LineAddr,
        lead: Cycle,
        r: Rule,
    ) -> Access {
        self.tx_stats[requester].nacks_received += 1;
        self.tx_stats[nacker].nacks_sent += 1;
        let mut must_abort = r.verdict() == Verdict::Lose;
        if matches!(r, Rule::Cycle | Rule::IrrevocableWaits) {
            let (req_ts, nack_ts) = (self.txs[requester].timestamp, self.txs[nacker].timestamp);
            // The defender NACKed an older transaction: potential cycle.
            self.txs[nacker].possible_cycle |= req_ts < nack_ts;
            must_abort = r == Rule::Cycle && nack_ts < req_ts && self.txs[requester].possible_cycle;
            self.tx_stats[requester].cycle_aborts += u64::from(must_abort);
        }
        let latency = lead + self.sys.nack_latency(now + lead, requester, line, nacker);
        self.tracer.emit(now, nacker, TraceEvent::Nack { requester: requester as u32, must_abort });
        self.tracer.emit(now, requester, TraceEvent::Stall { line, cycles: latency });
        Access::Nacked { nacker, latency, must_abort }
    }

    /// Count and trace a hardware/software cross-tier conflict against
    /// `core`, the side that lost.
    fn cross_tier(&mut self, now: Cycle, core: CoreId, line: LineAddr, dir: ConflictDir) {
        self.tx_stats[core].hw_sw_conflicts += 1;
        self.tracer.emit(now, core, TraceEvent::HwSwConflict { line, dir });
    }

    /// NACK the access when `line` sits inside a live software commit
    /// window (the sentinel ownership a software commit publishes through
    /// the directory). Coherence permission bits know nothing about
    /// software locks, so this check runs *unconditionally* on every
    /// hardware and non-transactional path — the emptiness fast path in
    /// [`SwVm::lock_owner`] keeps it to one compare when the software tier
    /// is idle. The window closes unconditionally, so the requester only
    /// ever stalls (`SwLocked`: even an irrevocable owner can afford the
    /// bounded wait without risking a dependence cycle).
    #[allow(clippy::inline_always)]
    #[inline(always)] // on every access; left the choice, fat LTO makes it a call
    fn sw_lock_nack(
        &mut self,
        now: Cycle,
        core: CoreId,
        (req, ev): (Req, Event),
        line: LineAddr,
    ) -> Option<Access> {
        let owner = self.sw.lock_owner(now, line, core)?;
        let r = rule(req, ev, Holder::SwLock, true);
        (r.verdict() == Verdict::Nack).then(|| {
            self.cross_tier(now, core, line, ConflictDir::SwLockBlocksHw);
            self.nack(now, core, owner, line, 0, r)
        })
    }

    /// Fill stage: the coherence transaction for a permission miss, issued
    /// once the `lead` cycles of resolution work are spent, with the
    /// eviction it causes reported to the version manager. A
    /// *transactional* fill that evicts one of the core's own speculative
    /// lines is the L1 data overflow of Table V.
    fn fill<const TX: bool>(
        &mut self,
        now: Cycle,
        lead: Cycle,
        core: CoreId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle {
        let f = self.sys.fill_traced(now + lead, core, addr, kind, &mut self.tracer);
        if let Some(ev) = f.evicted {
            self.vm.on_eviction(core, &ev);
            if TX && ev.speculative {
                self.txs[core].overflowed_l1 = true;
                self.overflow.speculative_evictions += 1;
                self.tracer.emit(now, core, TraceEvent::SpecEviction { line: ev.line });
            }
        }
        f.latency
    }

    /// The *committed* value of `addr` and the resolution latency: the
    /// hardware scheme resolves the location non-transactionally (on SUV
    /// that follows committed redirect entries), then the word is read
    /// functionally. Software loads and software commit validation read
    /// through here: they are simulated accesses, unlike [`Self::peek`].
    fn read_committed(&mut self, now: Cycle, core: CoreId, addr: Addr) -> (u64, Cycle) {
        match self.with_vm(now, |vm, env| vm.resolve_load(env, core, addr, false)) {
            (LoadTarget::Mem(p), lat) => (self.mem.read_word(word_of(p)), lat),
            (LoadTarget::Value(v), lat) => (v, lat),
        }
    }

    /// The committed location a non-transactional store of `value` lands
    /// at, and the version-management latency. Such stores never allocate
    /// version-manager capacity (no logging, no buffering; SUV
    /// redirect-back only frees slots), so they can neither be buffered
    /// nor overflow. A software commit publishes its redo log through
    /// here, exactly like a non-transactional store.
    fn prepare_committed_store(
        &mut self,
        now: Cycle,
        core: CoreId,
        addr: Addr,
        value: u64,
    ) -> (Addr, Cycle) {
        let mode = StoreMode::NonTx;
        match self.with_vm(now, |vm, env| vm.prepare_store(env, core, addr, value, mode)) {
            (StoreTarget::Mem(p), lat) => (p, lat),
            (other, _) => unreachable!("non-transactional store was answered {other:?}"),
        }
    }

    /// Tracking stage of a transactional load, hardware or software: the
    /// statistic and the trace record.
    fn count_tx_load(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.tx_stats[core].tx_loads += 1;
        self.tracer.emit(now, core, TraceEvent::TxRead { line });
    }

    /// Let the shadow-memory oracle, when armed, record a state change.
    fn shadow(&mut self, f: impl FnOnce(&mut ShadowOracle)) {
        if let Some(s) = &mut self.shadow {
            f(s);
        }
    }

    /// Shadow-oracle stage of a load (`CheckLevel::Full`, INV-9): a
    /// hardware transaction (`hw_tx`) must observe its own speculative state;
    /// every other reader — non-transactional (strong isolation), software,
    /// [`Self::peek`] — exactly the committed state.
    fn shadow_check_load(&self, now: Cycle, core: CoreId, addr: Addr, value: u64, hw_tx: bool) {
        let Some(s) = &self.shadow else { return };
        let verdict = if hw_tx {
            s.check_tx_load(core, addr, value)
        } else {
            s.check_nontx_load(core, addr, value)
        };
        if let Err(v) = verdict {
            panic!("isolation violated at t={now}: {v}");
        }
    }

    /// Begin (or nest) a transaction. Returns the begin latency.
    pub fn begin_tx(&mut self, now: Cycle, core: CoreId, site: TxSite) -> Cycle {
        self.begin_tx_mode(now, core, site, false)
    }

    /// Begin the outermost transaction in irrevocable serialized mode: the
    /// caller must already hold the chip-wide irrevocable token (the
    /// scheduler enforces single ownership; INV-11 re-checks it here).
    /// Irrevocable transactions always run eager, are made the oldest
    /// transaction in the system (so the possible-cycle rule resolves
    /// every conflict in their favour), and may bypass the version
    /// manager's capacity limits.
    pub fn begin_tx_irrevocable(&mut self, now: Cycle, core: CoreId, site: TxSite) -> Cycle {
        self.begin_tx_mode(now, core, site, true)
    }

    fn begin_tx_mode(
        &mut self,
        now: Cycle,
        core: CoreId,
        site: TxSite,
        irrevocable: bool,
    ) -> Cycle {
        self.settle(now);
        if self.txs[core].depth > 0 {
            assert!(self.txs[core].depth < MAX_NEST_DEPTH, "nesting depth limit exceeded");
            self.txs[core].depth += 1;
            if self.cfg.htm.partial_nesting
                && !self.txs[core].lazy
                && self.vm.supports_partial_abort()
            {
                // LogTM-Nested stacked frame: per-level sets plus a
                // version-manager watermark, enabling partial abort.
                self.txs[core].push_frame();
                self.shadow(|s| s.push_level(core));
                return 2 + self.with_vm(now, |vm, env| vm.level(env, core, LevelOp::Begin));
            }
            return 1; // flattened (subsumed) nesting
        }
        // Irrevocable mode forces eager conflict detection: the guarantee
        // rests on the NACK/possible-cycle machinery resolving conflicts
        // in the oldest transaction's favour.
        let lazy = if irrevocable { false } else { self.vm.choose_mode(core, site) };
        self.lazy_txns += u64::from(lazy);
        if irrevocable && self.cfg.check >= CheckLevel::Cheap {
            if let Some(other) = self.live.iter().find(|&c| self.txs[c].irrevocable) {
                panic!(
                    "INV-11 violated at t={now}: core {core} begins irrevocable \
                     while core {other} is irrevocable"
                );
            }
        }
        let t = &mut self.txs[core];
        debug_assert_eq!(t.status, TxStatus::Idle, "core {core} beginning while busy");
        t.status = TxStatus::Active;
        self.live.insert(core);
        if lazy { &mut self.lazy_active } else { &mut self.defenders }.insert(core);
        t.depth = 1;
        t.site = site;
        t.lazy = lazy;
        t.doomed = false;
        t.irrevocable = irrevocable;
        t.begin_time = now;
        if irrevocable {
            // Oldest possible age: a bare core id sorts below every normal
            // `(now, core)` timestamp begun after cycle 0, and the LogTM
            // rule makes every opponent in a dependence cycle yield.
            t.timestamp = core as u64;
        } else if t.timestamp == u64::MAX {
            // Age is assigned once per dynamic transaction and kept across
            // retries so the oldest eventually wins.
            t.timestamp = (now << CORE_ID_BITS) | core as u64;
        }
        self.tracer.emit(now, core, TraceEvent::TxBegin { site: site.0, lazy });
        self.shadow(|s| s.begin(core));
        CHECKPOINT_CYCLES + self.with_vm(now, |vm, env| vm.begin(env, core, lazy))
    }

    /// Transactional load.
    #[inline]
    pub fn tx_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.load::<true>(now, core, addr)
    }

    /// Non-transactional load (strong isolation: the same resolution and
    /// conflict checks apply).
    #[inline]
    pub fn nontx_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.load::<false>(now, core, addr)
    }

    /// The load sequence of the hardware tier (`TX`) and of
    /// non-transactional code: resolve first, check conflicts only on a
    /// permission miss, once the `res_lat` resolution cycles are spent.
    fn load<const TX: bool>(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.settle(now);
        if TX {
            debug_assert!(self.in_tx(core), "tx_load outside a transaction");
            if self.txs[core].doomed {
                return Access::MustAbort { latency: 1 };
            }
        }
        let (line, req) = (line_of(addr), if TX { self.req_of(core) } else { Req::NonTx });
        if let Some(a) = self.sw_lock_nack(now, core, (req, Event::Read), line) {
            return a;
        }
        let (target, res_lat) = self.with_vm(now, |vm, env| vm.resolve_load(env, core, addr, TX));
        let (value, lat) = match target {
            // A private-buffer hit never leaves the core: an L1 access
            // inside a transaction, a single cycle outside one.
            LoadTarget::Value(v) => (v, if TX { L1_LATENCY } else { 1 }),
            LoadTarget::Mem(phys) => {
                // Coherence and caching always key on the ORIGINAL address
                // (SUV's "a load/(store) that misses on block B generates a
                // GETS(B)/(GETM(B))"); only the functional data location is
                // redirected.
                let lat = if let Some(hit) = self.sys.try_hit(core, addr, AccessKind::Load) {
                    hit
                } else {
                    // A read's row dooms nobody.
                    if let Err((nacker, r)) = self.resolve(now, core, (req, Event::Read), line) {
                        return self.nack(now, core, nacker, line, res_lat, r);
                    }
                    self.fill::<TX>(now, res_lat, core, addr, AccessKind::Load)
                };
                (self.mem.read_word(word_of(phys)), lat)
            }
        };
        if TX {
            if self.txs[core].note(false, line) {
                self.index.put(core, false, [&line], true);
            }
            self.count_tx_load(now, core, line);
        }
        self.shadow_check_load(now, core, addr, value, TX);
        Access::Done { value, latency: res_lat + lat }
    }

    /// Transactional store. The hardware tier's store sequence checks
    /// conflicts *before* version management, at `now`.
    pub fn tx_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        debug_assert!(self.in_tx(core), "tx_store outside a transaction");
        if self.txs[core].doomed {
            return Access::MustAbort { latency: 1 };
        }
        let (line, req) = (line_of(addr), self.req_of(core));
        if let Some(a) = self.sw_lock_nack(now, core, (req, Event::Write), line) {
            return a;
        }
        // Conflicts are resolved before any bookkeeping, whatever the
        // coherence permission, unless this transaction already owns the
        // line (exact write-set check: a signature false positive must not
        // skip the check). A lazy store's row walks nothing.
        let lazy = self.txs[core].lazy;
        if Plan::of(req, Event::Write).defenders && !self.txs[core].writes_contain(line) {
            match self.resolve(now, core, (req, Event::Write), line) {
                Ok(dooms) => self.doom(now, &dooms, None),
                Err((nacker, r)) => return self.nack(now, core, nacker, line, 0, r),
            }
        }
        let mode = if self.txs[core].irrevocable { StoreMode::Irrevocable } else { StoreMode::Tx };
        let (target, vm_lat) =
            self.with_vm(now, |vm, env| vm.prepare_store(env, core, addr, value, mode));
        let lat = match target {
            StoreTarget::Overflow => {
                // Capacity exhausted before any bookkeeping: the write
                // signature and write set were not touched, so the abort
                // leaks nothing (INV-12). The caller aborts and climbs the
                // escalation ladder.
                self.tx_stats[core].overflow_aborts += 1;
                self.tracer.emit(now, core, TraceEvent::OverflowAbort { line });
                return Access::Overflow { latency: vm_lat + 1 };
            }
            StoreTarget::Buffered => L1_LATENCY,
            StoreTarget::Mem(phys) if lazy => {
                // Lazy conflict detection: the store stays private until
                // commit — no ownership request, no invalidations. With
                // SUV backing the lazy mode, the functional write to the
                // (redirected) location *is* the final data movement; the
                // commit merely flips the entry.
                self.mem.write_word(word_of(phys), value);
                L1_LATENCY
            }
            StoreTarget::Mem(phys) => {
                // As with loads: GETM targets the original address; only
                // the functional write lands at the (possibly redirected)
                // location.
                let lat = match self.sys.try_hit(core, addr, AccessKind::Store) {
                    Some(hit) => hit,
                    None => self.fill::<true>(now, vm_lat, core, addr, AccessKind::Store),
                };
                self.mem.write_word(word_of(phys), value);
                self.sys.mark_speculative(core, addr);
                lat
            }
        };
        if self.txs[core].note(true, line) {
            self.index.put(core, true, [&line], true);
        }
        self.count_tx_store(now, core, line);
        self.shadow(|s| s.record_store(core, addr, value));
        Access::Done { value: 0, latency: vm_lat + lat }
    }

    /// Tracking stage of a transactional store, hardware or software.
    fn count_tx_store(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.tx_stats[core].tx_stores += 1;
        self.tracer.emit(now, core, TraceEvent::TxWrite { line });
    }

    /// Commit the core's transaction (or pop one nesting level).
    pub fn commit_tx(&mut self, now: Cycle, core: CoreId) -> CommitOutcome {
        self.settle(now);
        debug_assert!(self.in_tx(core), "commit outside a transaction");
        if self.txs[core].depth > 1 {
            self.txs[core].depth -= 1;
            let mut latency = 1;
            if !self.txs[core].frames.is_empty() {
                self.txs[core].merge_top_frame();
                self.shadow(|s| s.merge_level(core));
                latency += self.with_vm(now, |vm, env| vm.level(env, core, LevelOp::Commit));
            }
            return CommitOutcome::Committed { latency, committing: 0 };
        }
        if self.txs[core].doomed {
            return CommitOutcome::MustAbort { latency: 1 };
        }
        if self.txs[core].lazy {
            return self.commit_lazy(now, core);
        }
        let lat = self.with_vm(now, |vm, env| vm.commit(env, core));
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: lat, committing: 0 });
        self.finish_tx(now, core, true, lat);
        CommitOutcome::Committed { latency: lat, committing: 0 }
    }

    fn commit_lazy(&mut self, now: Cycle, core: CoreId) -> CommitOutcome {
        // Arbitrate for the chip-wide commit token.
        let start = now.max(self.commit_token_free) + COMMIT_ARBITRATION_CYCLES;
        let wait = start - now;
        self.tracer.emit(now, core, TraceEvent::CommitArbitration { wait });
        // The lazy commit's row, at the token grant `start`, which lies
        // after `now`: a window still queued (INV-16 speaks of `now` only)
        // may have closed by then. A software lock window first: the lowest
        // locked write line is the one reported.
        let lock = rule(Req::Lazy, Event::Commit, Holder::SwLock, true);
        let writes = self.txs[core].write_lines();
        let locked = writes.filter(|&l| self.sw.lock_owner(start, l, core).is_some()).min();
        if let Some(l) = locked.filter(|_| lock.verdict() == Verdict::Lose) {
            self.tx_stats[core].lazy_validation_aborts += 1;
            self.cross_tier(now, core, l, ConflictDir::SwLockBlocksHw);
            return CommitOutcome::MustAbort { latency: wait };
        }
        let mut doom = SharerSet::new();
        for l in self.txs[core].write_lines() {
            match self.resolve(start, core, (Req::Lazy, Event::Commit), l) {
                Ok(d) => doom.union_with(&d),
                Err(_) => {
                    self.tx_stats[core].lazy_validation_aborts += 1;
                    return CommitOutcome::MustAbort { latency: wait };
                }
            }
        }
        self.doom(now, &doom, None);
        // Merge (write-buffer drain, or an SUV flash when SUV backs the
        // lazy mode), holding the token.
        let merge = self.with_vm(start, |vm, env| vm.commit(env, core));
        self.commit_token_free = start + merge;
        let total = wait + merge;
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: total, committing: total });
        self.finish_tx(now, core, true, total);
        CommitOutcome::Committed { latency: total, committing: total }
    }

    /// Partially abort the innermost nested level (LogTM-Nested partial
    /// abort). Returns the rollback duration, or `None` when no nested
    /// frame exists (or the transaction is doomed) and a full abort is
    /// required instead. The caller must pair this with the failed
    /// `begin_tx` level.
    pub fn abort_nested(&mut self, now: Cycle, core: CoreId) -> Option<Cycle> {
        self.settle(now);
        let t = &mut self.txs[core];
        if t.depth <= 1 || t.frames.is_empty() || t.doomed {
            return None;
        }
        t.depth -= 1;
        // The level's bits leave the core's column; a survivor's go back in.
        let f = t.drop_top_frame();
        self.index.put(core, false, &f.read_set, false);
        self.index.put(core, true, &f.write_set, false);
        self.index.put_tx(core, t, true);
        self.shadow(|s| s.drop_level(core));
        Some(self.with_vm(now, |vm, env| vm.level(env, core, LevelOp::Abort)) + 1)
    }

    /// Abort the core's transaction. Returns the abort (repair) duration;
    /// the isolation window stays open that long.
    pub fn abort_tx(&mut self, now: Cycle, core: CoreId) -> Cycle {
        self.settle(now);
        debug_assert!(self.txs[core].depth > 0, "abort outside a transaction");
        assert!(
            !self.txs[core].irrevocable,
            "irrevocable transaction on core {core} aborted at t={now} — the escalation \
             ladder's commit guarantee is broken"
        );
        let lat = self.with_vm(now, |vm, env| vm.abort(env, core)) + RESTORE_CYCLES;
        self.tracer.emit(now, core, TraceEvent::TxAbort { window: lat });
        self.finish_tx(now, core, false, lat);
        lat
    }

    /// Common end-of-transaction bookkeeping.
    fn finish_tx(&mut self, now: Cycle, core: CoreId, committed: bool, window: Cycle) {
        // Overflow accounting (Table V).
        if self.txs[core].overflowed_l1 {
            self.overflow.l1_data_overflow_txns += 1;
        }
        let (rt_l1, rt_mem) = self.vm.take_rt_overflow(core);
        if rt_l1 {
            self.overflow.rt_l1_overflow_txns += 1;
        }
        if rt_mem {
            self.overflow.rt_full_overflow_txns += 1;
        }
        // A hardware commit invalidates every in-flight software
        // transaction whose read set it overlaps: value validation alone
        // cannot catch an ABA overwrite, so the doom is eager.
        let readers = rule(self.req_of(core), Event::Commit, Holder::SwReader, false);
        if committed && readers.verdict() == Verdict::Doom {
            let doomed = self.sw.readers_of(core, &self.txs[core].write_lines());
            for (c, l) in doomed {
                self.sw.doom(c);
                self.cross_tier(now, c, l, ConflictDir::HwCommitDoomsSw);
            }
        }
        let st = &mut self.tx_stats[core];
        st.max_write_set = st.max_write_set.max(self.txs[core].write_line_count() as u64);
        if committed {
            st.commits += 1;
            st.committed_tx_cycles += now + window - self.txs[core].begin_time;
            if self.txs[core].irrevocable {
                self.tx_stats[core].irrevocable_commits += 1;
                self.tracer.emit(now, core, TraceEvent::IrrevocableCommit { window });
                // Drop the flag with the commit, not with the isolation
                // window: the successor may begin irrevocable (the
                // scheduler token is already released by then) and a stale
                // flag here would make `note_nack` treat this *committed*
                // transaction as a second irrevocable owner — telling the
                // new owner to abort and breaking the commit guarantee.
                self.txs[core].irrevocable = false;
            }
            self.txs[core].status = TxStatus::Committing { until: now + window };
        } else {
            st.aborts += 1;
            self.txs[core].attempts += 1;
            self.txs[core].status = TxStatus::Aborting { until: now + window };
        }
        // From here to the window's end the transaction defends, whatever
        // its mode was.
        self.lazy_active.remove(core);
        self.defenders.insert(core);
        self.windows.push(Reverse((now + window, core)));
        self.next_window = self.next_window.min(now + window);
        self.txs[core].depth = 0;
        self.sys.clear_speculative(core);
        let site = self.txs[core].site;
        self.vm.tx_finished(core, site, committed);
        self.shadow(|s| s.finish(core, committed));
        self.audit_tx_end(now);
    }

    /// Transaction-boundary invariant audits, at every hardware and
    /// software transaction end (never charged cycles).
    fn audit_tx_end(&self, now: Cycle) {
        if self.cfg.check < CheckLevel::Cheap {
            return;
        }
        let owners = self.live.iter().filter(|&c| self.txs[c].irrevocable).count();
        assert!(owners <= 1, "INV-11 violated at tx end (t={now}): {owners} irrevocable owners");
        if let Err(v) = self.vm.check_invariants().and(self.sw.check_invariants()) {
            panic!("version-manager invariant violated at tx end (t={now}): {v}");
        }
        // INV-13: no line is ever concurrently software-locked and held in
        // a live *eager* hardware write set (an eager writer owns its lines
        // in place — a software commit window over the same line would mean
        // two owners). Lazy write sets are exempt: they hold no ownership
        // until commit, and the lazy committer defers to live software locks.
        for (line, owner) in self.sw.live_locks(now) {
            for c in self.live.iter() {
                let t = &self.txs[c];
                assert!(
                    c == owner || t.lazy || !t.isolation_live(now) || !t.writes_contain(line),
                    "INV-13 violated at t={now}: line {line:#x} is software-locked by \
                     core {owner} while core {c}'s live eager hardware write set holds it"
                );
            }
        }
        if self.cfg.check >= CheckLevel::Full {
            if let Err(v) = self.sys.check_invariants() {
                panic!("coherence invariant violated at tx end (t={now}): {v}");
            }
            self.check_inv14(now);
            self.check_inv15(now);
            self.check_inv16(now);
        }
    }

    /// INV-14: the live set is exactly the set of cores whose descriptor
    /// is not `Idle`. (The one audit allowed to look at every core.)
    fn check_inv14(&self, now: Cycle) {
        let busy: SharerSet =
            (0..self.txs.len()).filter(|&c| self.txs[c].status != TxStatus::Idle).collect();
        assert_eq!(
            self.live, busy,
            "INV-14 violated at t={now}: live set out of step with the descriptors"
        );
    }

    /// INV-15: a core's column of the signature index is the Bloom image of
    /// the union of its levels' exact sets — no line is missed, no stray bit
    /// answers, only a live core has bits.
    fn check_inv15(&self, now: Cycle) {
        let mut want = ConflictIndex::new(&self.cfg);
        for (c, t) in self.txs.iter().enumerate() {
            want.put_tx(c, t, true);
        }
        assert!(self.index == want, "INV-15 violated at t={now}: stale signature index");
    }

    /// INV-16: the two masks equal the per-descriptor predicates they stand
    /// for, the window queue lists exactly the Aborting/Committing cores
    /// with their `until`, `next_window` is the soonest of them
    /// (`Cycle::MAX` with none), and — every operation settles first — no
    /// listed window closed before `now`. (One closing *at* `now` is the
    /// zero-length window this very transaction end pushed — an eager
    /// commit of an empty write buffer — which the next operation's settle
    /// pops before anything searches.) Together: at a search, a core in
    /// `defenders` both `defends()` and is `isolation_live(now)`, which is
    /// what lets `find_conflict` test membership instead.
    fn check_inv16(&self, now: Cycle) {
        let (mut defenders, mut lazy_active) = (SharerSet::new(), SharerSet::new());
        let mut open: Vec<(Cycle, CoreId)> = Vec::new();
        for (c, t) in self.txs.iter().enumerate() {
            if t.defends() {
                defenders.insert(c);
            }
            if t.lazy && t.status == TxStatus::Active {
                lazy_active.insert(c);
            }
            if let TxStatus::Aborting { until } | TxStatus::Committing { until } = t.status {
                open.push((until, c));
            }
        }
        let mut queued: Vec<(Cycle, CoreId)> = self.windows.iter().map(|w| w.0).collect();
        queued.sort_unstable_by_key(|w| w.1);
        assert_eq!(
            self.next_window,
            queued.iter().map(|w| w.0).min().unwrap_or(Cycle::MAX),
            "INV-16 violated at t={now}: stale next_window beside windows {queued:?}"
        );
        assert!(
            (&self.defenders, &self.lazy_active, &queued) == (&defenders, &lazy_active, &open)
                && open.iter().all(|w| w.0 >= now),
            "INV-16 violated at t={now}: defenders {:?} / lazy {:?} / windows {queued:?} out \
             of step with the descriptors ({defenders:?} / {lazy_active:?} / {open:?})",
            self.defenders,
            self.lazy_active
        );
    }

    /// Record an escalation of `core`'s next attempt to the next ladder
    /// rung. Called by the sim layer when a rung's budget or the watchdog
    /// fires.
    pub fn note_escalation(&mut self, now: Cycle, core: CoreId, reason: EscalationReason) {
        *reason.counter(&mut self.tx_stats[core]) += 1;
        self.tracer.emit(now, core, TraceEvent::WatchdogEscalation { reason });
    }

    /// Record a spuriously injected capacity overflow (`--faults
    /// overflow=P`): accounted exactly like a real pool-exhaustion abort
    /// — same counter, same trace event — so the escalation ladder and
    /// the reports cannot tell the fault from the real thing.
    pub fn note_injected_overflow(&mut self, now: Cycle, core: CoreId) {
        self.tx_stats[core].overflow_aborts += 1;
        self.tracer.emit(now, core, TraceEvent::OverflowAbort { line: 0 });
    }

    /// Randomized exponential backoff after an abort, in cycles: a draw
    /// from the core's seeded stream over a window of [`BACKOFF_BASE`] that
    /// doubles per consecutive abort up to [`BACKOFF_CAP`].
    pub fn backoff_cycles(&mut self, now: Cycle, core: CoreId) -> Cycle {
        let attempts = self.txs[core].attempts.min(16);
        let window = (BACKOFF_BASE << attempts.saturating_sub(1)).min(BACKOFF_CAP);
        let cycles = self.rngs[core].random_range(1..=window.max(1));
        self.tracer.emit(now, core, TraceEvent::Backoff { cycles });
        cycles
    }

    /// Begin a software-fallback attempt (`attempt` counts fallback
    /// attempts of this dynamic transaction, for the trace). The episode
    /// is announced as a *lazy* transaction — software writes are buffered
    /// and take effect at commit, which is exactly what the
    /// serializability checker's lazy replay models.
    pub fn begin_sw_tx(&mut self, now: Cycle, core: CoreId, site: TxSite, attempt: u32) -> Cycle {
        self.settle(now);
        debug_assert_eq!(self.txs[core].depth, 0, "software fallback under a hardware tx");
        self.tracer.emit(now, core, TraceEvent::FallbackBegin { attempt });
        self.tracer.emit(now, core, TraceEvent::TxBegin { site: site.0, lazy: true });
        self.sw.begin_sw(core, now);
        CHECKPOINT_CYCLES + swvm::SW_BEGIN_CYCLES
    }

    /// Software-fallback load: redo-log hit, else the *committed* value,
    /// value-logged for commit-time validation. The software tier's load
    /// sequence checks conflicts *before* resolving, at `now` and whatever
    /// the coherence permission: a line a live eager hardware writer owns
    /// is NACKed (its in-place speculative value must never enter a
    /// software read set), as is a line inside another software commit
    /// window.
    pub fn sw_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.settle(now);
        debug_assert!(self.sw.active(core), "sw_load outside a software transaction");
        if self.sw.doomed(core) {
            return Access::MustAbort { latency: 1 };
        }
        let line = line_of(addr);
        if let Some(value) = self.sw.buffered_value(core, addr) {
            self.count_tx_load(now, core, line);
            return Access::Done { value, latency: swvm::SW_ACCESS_CYCLES + L1_LATENCY };
        }
        if let Some(a) = self.sw_lock_nack(now, core, (Req::Sw, Event::Read), line) {
            return a;
        }
        if let Err((nacker, r)) = self.resolve(now, core, (Req::Sw, Event::Read), line) {
            self.tx_stats[core].hw_sw_conflicts += 1;
            return self.nack(now, core, nacker, line, 0, r);
        }
        let (value, res_lat) = self.read_committed(now, core, addr);
        self.sw.note_read(core, addr, value);
        self.count_tx_load(now, core, line);
        self.shadow_check_load(now, core, addr, value, false);
        // Software reads run through instrumented barriers and are not
        // cached speculatively: charge an L2-class access plus the
        // software bookkeeping.
        Access::Done { value, latency: res_lat + swvm::SW_ACCESS_CYCLES + L2_LATENCY }
    }

    /// Software-fallback store: buffered in the redo log, published at
    /// commit. Never overflows — this is the whole point of the tier: no
    /// hardware version-management capacity is consumed.
    pub fn sw_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        debug_assert!(self.sw.active(core), "sw_store outside a software transaction");
        if self.sw.doomed(core) {
            return Access::MustAbort { latency: 1 };
        }
        self.sw.buffer_store(core, addr, value);
        self.count_tx_store(now, core, line_of(addr));
        Access::Done { value: 0, latency: swvm::SW_ACCESS_CYCLES + L1_LATENCY }
    }

    /// Commit a software-fallback transaction. All phases happen at the
    /// single instant `now` (the machine is driven in global time order,
    /// so the whole call is atomic): lock acquisition over the sorted
    /// write lines, value validation of the read set against committed
    /// memory, publication of the redo log, and installation of the
    /// commit window during which the written lines stay software-locked.
    ///
    /// Conflict resolution is the software commit's row of the table
    /// (DESIGN.md §6.1): a live hardware *writer* always wins (aborting an
    /// eager writer would let its undo restore clobber this commit),
    /// irrevocable transactions win everything, and hardware *readers* of
    /// published lines are doomed.
    pub fn commit_sw_tx(&mut self, now: Cycle, core: CoreId) -> SwCommitOutcome {
        use FallbackAbortReason::{HwConflict, ValidationFailed};
        self.settle(now);
        debug_assert!(self.sw.active(core), "commit_sw_tx outside a software transaction");
        if self.sw.doomed(core) {
            return SwCommitOutcome::MustAbort { reason: HwConflict, latency: 1 };
        }
        let write_lines = self.sw.write_lines_sorted(core);
        // Phase 1: another software committer's live lock window on
        // anything we touched (written lines first, then reads in program
        // order) — stall until it closes, then retry.
        let read_lines = self.sw.reads(core).iter().map(|r| line_of(r.0));
        let mut touched = write_lines.iter().copied().chain(read_lines);
        let busy = rule(Req::Sw, Event::Commit, Holder::SwLock, true);
        let locked = touched.find_map(|l| Some((l, self.sw.lock_owner(now, l, core)?)));
        if let Some((l, owner)) = locked.filter(|_| busy.verdict() == Verdict::Nack) {
            return match self.nack(now, core, owner, l, 0, busy) {
                Access::Nacked { nacker, latency, .. } => SwCommitOutcome::Busy { nacker, latency },
                other => unreachable!("NACK assembly returned {other:?}"),
            };
        }
        // Phase 2: the hardware holders of the write set. The first that
        // wins aborts the commit; those it dooms wait for phase 4.
        let mut dooms: Vec<(LineAddr, SharerSet)> = Vec::with_capacity(write_lines.len());
        for &l in &write_lines {
            match self.resolve(now, core, (Req::Sw, Event::Commit), l) {
                Ok(d) => dooms.push((l, d)),
                Err(_) => {
                    self.cross_tier(now, core, l, ConflictDir::SwCommitVsHw);
                    return SwCommitOutcome::MustAbort { reason: HwConflict, latency: 1 };
                }
            }
        }
        // Phase 3: value validation. A read line a live hardware writer
        // owns fails outright (memory may hold its speculative value);
        // otherwise the observed value must still match committed memory —
        // all at this one instant, so a full match proves the read set is
        // a consistent snapshot at the commit point.
        let reads: Vec<(Addr, u64)> = self.sw.reads(core).to_vec();
        for &(addr, observed) in &reads {
            if self.resolve(now, core, (Req::Sw, Event::Read), line_of(addr)).is_err()
                || self.read_committed(now, core, addr).0 != observed
            {
                return SwCommitOutcome::MustAbort { reason: ValidationFailed, latency: 1 };
            }
        }
        // Phase 4: publish the redo log and doom hardware readers of the
        // published lines.
        let writes: Vec<(Addr, u64)> = self.sw.writes(core).to_vec();
        let latency = swvm::SW_COMMIT_BASE_CYCLES
            + swvm::SW_COMMIT_PER_LINE_CYCLES * write_lines.len() as Cycle;
        for &(addr, value) in &writes {
            let (phys, _) = self.prepare_committed_store(now, core, addr, value);
            self.mem.write_word(word_of(phys), value);
            self.shadow(|s| s.note_nontx_store(addr, value));
        }
        for (l, cores) in &dooms {
            self.doom(now, cores, Some(*l));
        }
        // ... and every concurrent *software* reader of a published line,
        // for the same reason a hardware commit dooms them: value
        // validation is word-granular, so a commit that changes a
        // different word of a read line would slip through it — while
        // conflict serializability (INV-11) is judged line-granular. Not a
        // hardware/software conflict, so traced but not counted as one.
        let sw_readers = rule(Req::Sw, Event::Commit, Holder::SwReader, false);
        if sw_readers.verdict() == Verdict::Doom {
            for (c, l) in self.sw.readers_of(core, &write_lines.iter().copied()) {
                self.sw.doom(c);
                let dir = ConflictDir::SwCommitDoomsSw;
                self.tracer.emit(now, c, TraceEvent::HwSwConflict { line: l, dir });
            }
        }
        self.sw.lock(core, &write_lines, now, now + latency);
        let begin = self.sw.begin_time(core);
        let st = &mut self.tx_stats[core];
        st.commits += 1;
        st.sw_commits += 1;
        st.committed_tx_cycles += now + latency - begin;
        st.max_write_set = st.max_write_set.max(write_lines.len() as u64);
        self.tracer.emit(now, core, TraceEvent::FallbackCommit { writes: writes.len() as u64 });
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: latency, committing: latency });
        self.sw.finish(core);
        self.audit_tx_end(now);
        SwCommitOutcome::Committed { latency }
    }

    /// Abort a software-fallback transaction. Cheap: the redo log is
    /// discarded; nothing was written in place, so there is no repair
    /// window.
    pub fn abort_sw_tx(&mut self, now: Cycle, core: CoreId, reason: FallbackAbortReason) -> Cycle {
        self.settle(now);
        debug_assert!(self.sw.active(core), "abort_sw_tx outside a software transaction");
        let latency = swvm::SW_ABORT_CYCLES;
        let st = &mut self.tx_stats[core];
        st.aborts += 1;
        st.sw_aborts += 1;
        self.tracer.emit(now, core, TraceEvent::FallbackAbort { reason });
        self.tracer.emit(now, core, TraceEvent::TxAbort { window: latency });
        self.sw.finish(core);
        latency
    }

    /// Non-transactional store. Its sequence runs version management
    /// *first* and checks conflicts only on a permission miss, once the
    /// `vm_lat` cycles are spent.
    pub fn nontx_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        let line = line_of(addr);
        if let Some(a) = self.sw_lock_nack(now, core, (Req::NonTx, Event::Write), line) {
            return a;
        }
        let (phys, vm_lat) = self.prepare_committed_store(now, core, addr, value);
        let lat = if let Some(hit) = self.sys.try_hit(core, addr, AccessKind::Store) {
            hit
        } else {
            match self.resolve(now, core, (Req::NonTx, Event::Write), line) {
                Ok(dooms) => self.doom(now, &dooms, None),
                Err((nacker, r)) => return self.nack(now, core, nacker, line, vm_lat, r),
            }
            self.fill::<false>(now, vm_lat, core, addr, AccessKind::Store)
        };
        self.mem.write_word(word_of(phys), value);
        self.shadow(|s| s.note_nontx_store(addr, value));
        Access::Done { value: 0, latency: vm_lat + lat }
    }

    /// Fast setup write used by workload initialization (functional only,
    /// no timing, no isolation).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.mem.write_word(word_of(addr), value);
        self.shadow(|s| s.note_nontx_store(addr, value));
    }

    /// Fast functional read for setup and result verification: the
    /// committed value, found through the version manager's
    /// `committed_location`, with no timing and no timed structure touched.
    pub fn peek(&self, addr: Addr) -> u64 {
        let value = self.mem.read_word(word_of(self.vm.committed_location(addr)));
        // With no speculative state pending, a peek must see exactly the
        // committed shadow state — the end-of-run value oracle.
        if self.shadow.as_ref().is_some_and(ShadowOracle::quiescent) {
            self.shadow_check_load(u64::MAX / 2, 0, addr, value, false);
        }
        value
    }

    /// Aggregated transaction statistics.
    #[must_use]
    pub fn tx_stats(&self) -> TxStats {
        let mut s = TxStats::default();
        for t in &self.tx_stats {
            s.merge(t);
        }
        s
    }

    /// Overflow statistics (Table V).
    #[must_use]
    pub fn overflow_stats(&self) -> OverflowStats {
        self.overflow
    }

    /// Transactions begun in lazy mode (Lazy(TCC), DynTM).
    #[must_use]
    pub fn lazy_txns(&self) -> u64 {
        self.lazy_txns
    }

    /// Borrow the version manager (for scheme-specific statistics).
    #[must_use]
    pub fn vm(&self) -> &V {
        &self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logtm::LogTmSe;
    pub(super) use crate::script::{Answer, Op, Op::*, Phase, Run};
    use suv_types::MachineConfig;

    pub(super) fn machine() -> HtmMachine<LogTmSe> {
        let cfg = MachineConfig::small_test();
        HtmMachine::new(&cfg, LogTmSe::new(cfg.n_cores, 0))
    }

    /// A script run on [`machine`]: each op at the earliest legal cycle.
    pub(super) fn run() -> Run<LogTmSe> {
        Run::new(machine())
    }

    pub(super) fn begin(site: u32) -> Op {
        Begin { site: TxSite(site) }
    }

    pub(super) fn done(a: Access) -> (u64, Cycle) {
        match a {
            Access::Done { value, latency } => (value, latency),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    /// Was the op NACKed by `by`, and told to abort or not?
    pub(super) fn nacked(answer: Answer, by: CoreId, abort: bool) -> bool {
        matches!(answer, Answer::Access(Access::Nacked { nacker, must_abort, latency })
            if nacker == by && must_abort == abort && latency > 0)
    }

    pub(super) fn committed(answer: Answer) -> bool {
        matches!(answer, Answer::Commit(CommitOutcome::Committed { .. }))
    }

    #[test]
    fn single_tx_commit_flow() {
        let mut r = run();
        r.m.poke(0x100, 5);
        let out = r.play(&[(0, begin(1)), (0, Load(0x100)), (0, Store(0x100, 6)), (0, Commit)]);
        let out = out.unwrap();
        assert_eq!(out[1].value(), Some(5));
        assert!(committed(out[3].answer));
        assert_eq!(r.m.peek(0x100), 6);
        assert_eq!(r.m.tx_stats().commits, 1);
    }

    #[test]
    fn abort_restores_memory() {
        let mut r = run();
        r.m.poke(0x200, 10);
        r.play(&[(0, begin(1)), (0, Store(0x200, 99))]).unwrap();
        assert_eq!(r.m.mem.read_word(0x200), 99, "eager update in place");
        let out = r.play(&[(0, Abort)]).unwrap();
        assert!(out[0].aborted.unwrap() > 0);
        assert_eq!(r.m.peek(0x200), 10, "undo log restored the old value");
        assert_eq!(r.m.tx_stats().aborts, 1);
    }

    #[test]
    fn conflicting_store_is_nacked() {
        let mut r = run();
        r.m.poke(0x300, 1);
        // Core 1 (younger) writes the line core 0 read.
        let script = [(0, begin(1)), (0, Load(0x300)), (1, begin(2)), (1, Store(0x300, 2))];
        let out = r.play(&script).unwrap();
        assert!(nacked(out[3].answer, 0, false), "no cycle yet: {:?}", out[3]);
        assert_eq!(r.m.tx_stats().nacks_received, 1);
    }

    #[test]
    fn read_read_is_no_conflict() {
        let mut r = run();
        r.m.poke(0x340, 7);
        let script = [(0, begin(1)), (0, Load(0x340)), (1, begin(2)), (1, Load(0x340))];
        assert_eq!(r.play(&script).unwrap()[3].value(), Some(7));
    }

    #[test]
    fn possible_cycle_rule_aborts_younger() {
        let mut r = run();
        let (a, b) = (0x400, 0x440);
        let out = r.play(&[
            // T0 (older) reads A; T1 (younger) reads B.
            (0, begin(1)),
            (0, Load(a)),
            (1, begin(2)),
            (1, Load(b)),
            // T0 stores to B -> NACKed by T1; T1 NACKed an older tx, so its
            // possible_cycle flag is set.
            (0, Store(b, 1)),
            // T1 stores to A -> NACKed by T0 (older) while flagged: must abort.
            (1, Store(a, 1)),
        ]);
        let out = out.unwrap();
        assert!(nacked(out[4].answer, 1, false), "the older transaction never cycle-aborts");
        assert!(nacked(out[5].answer, 0, true), "possible-cycle rule must fire");
        assert_eq!(out[5].after, Phase::Idle, "and the step aborted the younger");
        assert_eq!(r.m.tx_stats().cycle_aborts, 1);
    }

    #[test]
    fn isolation_window_defends_during_abort() {
        let mut r = run();
        r.m.poke(0x500, 3);
        let mut script = vec![(0, begin(1))];
        script.extend((0..16).map(|i| (0, Store(0x500 + i * 64, i))));
        script.push((0, Abort));
        let d = r.play(&script).unwrap()[17].aborted.unwrap();
        assert!(d > 50, "LogTM-SE abort must be slow ({d})");
        // During the abort window another core's access is still NACKed.
        let out = r.play(&[(1, begin(2)), (1, Load(0x500))]).unwrap();
        assert!(nacked(out[1].answer, 0, false), "expected NACK during repair window");
        // After the window closes the same access succeeds and sees the
        // restored value.
        let after = r.ready(0) + 100;
        assert_eq!(r.step(after, 1, Load(0x500)).unwrap().value(), Some(3));
    }

    fn full_check_machine() -> HtmMachine<LogTmSe> {
        let mut cfg = MachineConfig::small_test();
        cfg.check = CheckLevel::Full;
        HtmMachine::new(&cfg, LogTmSe::new(cfg.n_cores, 0))
    }

    #[test]
    fn live_set_tracks_begin_and_window_close() {
        let mut m = full_check_machine();
        assert!(m.live.is_empty());
        let mut t0 = m.begin_tx(0, 2, TxSite(1));
        assert_eq!(m.live.iter().collect::<Vec<_>>(), vec![2]);
        let (_, l) = done(m.tx_store(t0, 2, 0x700, 1));
        t0 += l;
        let window = match m.commit_tx(t0, 2) {
            CommitOutcome::Committed { latency, .. } => latency,
            other => panic!("{other:?}"),
        };
        assert!(m.live.contains(2), "a committing window still defends");
        // The next operation after the window settles the descriptor.
        m.begin_tx(t0 + window, 3, TxSite(1));
        assert_eq!(m.live.iter().collect::<Vec<_>>(), vec![3]);
        m.check_inv14(t0 + window);
    }

    #[test]
    #[should_panic(expected = "INV-15")]
    fn full_check_catches_a_signature_bit_missing_from_the_index() {
        let mut m = full_check_machine();
        let t0 = m.begin_tx(0, 0, TxSite(1));
        done(m.tx_load(t0, 0, 0x300));
        // Seeded bug: one of core 0's read bits falls out of its index
        // column while it is Active. Its read set still holds the line, so
        // the next search over it finds the core missing.
        m.index.put(0, false, [&0x300], false);
        let t1 = 50 + m.begin_tx(50, 1, TxSite(2));
        let _ = m.tx_store(t1, 1, 0x300, 2);
    }

    #[test]
    #[should_panic(expected = "INV-15")]
    fn full_check_catches_a_stray_bit_in_the_index() {
        let mut m = full_check_machine();
        let t0 = m.begin_tx(0, 0, TxSite(1));
        done(m.tx_load(t0, 0, 0x300));
        // Seeded bug: core 0's column gains the bits of a line it never
        // read. The column is its signature, so core 0 NACKs a store it has
        // no claim on, as for any false positive; the rebuild at the next
        // transaction end finds the column stale.
        m.index.put(0, false, [&0x340], true);
        let t1 = 50 + m.begin_tx(50, 1, TxSite(2));
        let nacked = matches!(m.tx_store(t1, 1, 0x340, 2), Access::Nacked { nacker: 0, .. });
        assert!(nacked, "a stray bit answers as a false positive");
        let _ = m.commit_tx(t1 + 100, 1);
    }

    #[test]
    #[should_panic(expected = "INV-14")]
    fn full_check_catches_a_core_missing_from_the_live_set() {
        let mut m = full_check_machine();
        m.begin_tx(0, 0, TxSite(1));
        // Seeded bug: core 0 falls out of the live set while Active; the
        // next transaction boundary's audit sees the descriptor is busy.
        m.live.remove(0);
        let t1 = 50 + m.begin_tx(50, 1, TxSite(2));
        let _ = m.commit_tx(t1, 1);
    }

    #[test]
    #[should_panic(expected = "INV-16")]
    fn full_check_catches_a_stale_defender_bit() {
        let mut m = full_check_machine();
        // Seeded bug: idle core 3's bit stays set in the defenders mask, so
        // a leftover index bit of its would NACK on behalf of nobody.
        m.defenders.insert(3);
        let t1 = m.begin_tx(0, 1, TxSite(2));
        let _ = m.commit_tx(t1, 1);
    }

    #[test]
    #[should_panic(expected = "INV-16")]
    fn full_check_catches_a_window_missing_from_the_queue() {
        let mut m = full_check_machine();
        let t0 = m.begin_tx(0, 0, TxSite(1));
        let _ = m.commit_tx(t0, 0);
        // Seeded bug: core 0's committing window falls out of the queue;
        // nothing would ever close it and the core would defend for good.
        m.windows.clear();
        let t1 = t0 + m.begin_tx(t0, 1, TxSite(2));
        let _ = m.commit_tx(t1, 1);
    }

    #[test]
    #[should_panic(expected = "stale next_window")]
    fn full_check_catches_a_stale_next_window() {
        let mut m = full_check_machine();
        let t0 = m.begin_tx(0, 0, TxSite(1));
        let _ = m.commit_tx(t0, 0);
        // Seeded bug: the cached closing time is not refreshed by the push;
        // no settle would look at the queue and core 0 would defend for good.
        m.next_window = Cycle::MAX;
        let t1 = t0 + m.begin_tx(t0, 1, TxSite(2));
        let _ = m.commit_tx(t1, 1);
    }

    #[test]
    #[should_panic(expected = "INV-13")]
    fn cheap_check_catches_a_software_lock_over_an_eager_write_set() {
        let mut cfg = MachineConfig::small_test();
        cfg.check = CheckLevel::Cheap;
        let mut m = HtmMachine::new(&cfg, LogTmSe::new(cfg.n_cores, 0));
        let mut now = m.begin_tx(0, 0, TxSite(1));
        now += done(m.tx_store(now, 0, 0x300, 1)).1;
        // Seeded bug: core 1's software commit window opens over the line
        // core 0 owns in place, as if the commit had not seen the live
        // hardware writer. Core 0's commit is the next boundary audit.
        m.sw.lock(1, &[0x300], now, now + 1000);
        let _ = m.commit_tx(now, 0);
    }

    #[test]
    fn lazy_commit_validates_at_the_token_grant_not_at_the_request() {
        use crate::{dyntm::DynTm, fastm::FasTm};
        use suv_types::config::LAZY_THRESHOLD;
        let cfg = MachineConfig::small_test();
        let n = cfg.n_cores;
        let vm = DynTm::original(FasTm::new(n, 0), n, 0);
        let mut m = HtmMachine::new(&cfg, vm);
        // Site 2 aborts until the predictor runs it lazy.
        let mut now = 0;
        for _ in 0..LAZY_THRESHOLD {
            now += m.begin_tx(now, 1, TxSite(2));
            now += m.abort_tx(now, 1);
        }
        now += m.begin_tx(now, 0, TxSite(1)).max(m.begin_tx(now, 1, TxSite(2)));
        assert!(m.txs[1].lazy && !m.txs[0].lazy);
        now += done(m.tx_load(now, 0, 0x900)).1;
        now += done(m.tx_store(now, 1, 0x900, 7)).1;
        // Core 0 aborts: its window defends the line it read until `until`.
        let until = now + m.abort_tx(now, 0);
        // Core 1 asks to commit while that window is open, but the token
        // grant (arbitration later) falls after it has closed.
        let request = until - 1;
        assert!(request >= now && request + COMMIT_ARBITRATION_CYCLES >= until);
        match m.commit_tx(request, 1) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("validated against a window closed by the grant: {other:?}"),
        }
        assert_eq!(m.tx_stats().lazy_validation_aborts, 0);
    }

    #[test]
    fn nontx_store_respects_strong_isolation() {
        let mut r = run();
        r.m.poke(0x600, 1);
        // Core 1, not in a transaction, tries to write the line.
        let script = [(0, begin(1)), (0, Load(0x600)), (1, NonTxStore(0x600, 9))];
        let out = r.play(&script).unwrap();
        assert!(nacked(out[2].answer, 0, false), "strong isolation violated: {:?}", out[2]);
    }

    #[test]
    fn nested_begin_commit_flattened() {
        let mut r = run();
        r.play(&[(0, begin(1)), (0, NestedBegin { site: TxSite(2) })]).unwrap();
        assert_eq!(r.m.txs[0].depth, 2);
        r.play(&[(0, Store(0x700, 1)), (0, Commit)]).unwrap();
        assert_eq!(r.m.txs[0].depth, 1, "inner commit pops one level");
        assert!(r.m.in_tx(0));
        assert!(committed(r.play(&[(0, Commit)]).unwrap()[0].answer));
        assert_eq!(r.m.txs[0].depth, 0);
        assert_eq!(r.m.tx_stats().commits, 1, "only the outermost commit counts");
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let mut m = machine();
        m.begin_tx(0, 0, TxSite(1));
        m.abort_tx(10, 0);
        let b1: Cycle = (0..32).map(|_| m.backoff_cycles(20, 0)).max().unwrap();
        // Simulate more failed attempts.
        for i in 0..6 {
            let t = 1000 * (i + 1);
            m.begin_tx(t, 0, TxSite(1));
            m.abort_tx(t + 10, 0);
        }
        let b7: Cycle = (0..32).map(|_| m.backoff_cycles(8000, 0)).max().unwrap();
        assert!(b7 > b1, "backoff must grow ({b1} -> {b7})");
        assert!(b7 <= BACKOFF_CAP);
    }

    #[test]
    fn timestamp_survives_retries() {
        let mut m = machine();
        m.begin_tx(100, 0, TxSite(1));
        let ts1 = m.txs[0].timestamp;
        m.abort_tx(110, 0);
        m.begin_tx(500, 0, TxSite(1));
        assert_eq!(m.txs[0].timestamp, ts1, "age kept across retries");
        let now = 510;
        match m.commit_tx(now, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        // After the commit window closes, a fresh transaction gets a new age.
        m.begin_tx(10_000, 0, TxSite(1));
        assert_ne!(m.txs[0].timestamp, ts1);
    }

    fn machine_512() -> HtmMachine<LogTmSe> {
        let mut cfg = MachineConfig::small_test();
        cfg.n_cores = 512;
        HtmMachine::new(&cfg, LogTmSe::new(cfg.n_cores, 0))
    }

    #[test]
    fn ages_order_by_begin_time_on_cores_above_255() {
        let mut m = machine_512();
        m.begin_tx(2, 300, TxSite(1));
        m.begin_tx(3, 0, TxSite(1));
        assert!(m.txs[300].timestamp < m.txs[0].timestamp, "begun earlier is older");
    }

    /// A 64-bit, `k`-hash signature's Bloom bits of `line`.
    pub(super) fn bloom(k: usize, line: LineAddr) -> u64 {
        suv_sig::HashFamily::new(64, k).indices(line >> 6).fold(0, |m, i| m | 1 << i)
    }

    /// A machine with 64-bit, `k`-hash signatures, audited in full.
    pub(super) fn run_64(k: usize, perfect: bool) -> Run<LogTmSe> {
        let mut cfg = MachineConfig::small_test();
        (cfg.htm.signature_bits, cfg.htm.signature_hashes) = (64, k);
        (cfg.htm.perfect_signatures, cfg.check) = (perfect, CheckLevel::Full);
        Run::new(HtmMachine::new(&cfg, LogTmSe::new(cfg.n_cores, 0)))
    }

    #[test]
    fn a_signature_false_positive_conflicts_unless_signatures_are_perfect() {
        let a = 0x1000;
        let alias = (1..256).map(|i| a + i * 64).find(|&l| bloom(1, l) == bloom(1, a));
        let b = alias.expect("64 one-hash bits alias within 256 lines");
        for perfect in [false, true] {
            let script = [(0, begin(1)), (0, Load(a)), (1, begin(2)), (1, Store(b, 1))];
            let out = run_64(1, perfect).play(&script).unwrap();
            assert_eq!(nacked(out[3].answer, 0, false), !perfect, "perfect: {perfect}");
        }
    }

    #[test]
    fn phase_is_read_off_the_descriptors() {
        let mut r = run();
        let nest = NestedBegin { site: TxSite(2) };
        let sw = SwBegin { site: TxSite(3), attempt: 1 };
        r.play(&[(0, begin(1)), (0, nest), (1, sw), (2, BeginIrrevocable { site: TxSite(4) })])
            .unwrap();
        assert_eq!(r.m.phase(0), Phase::Hw { depth: 2, irrevocable: false, lazy: false });
        assert_eq!(r.m.phase(1), Phase::Sw);
        assert_eq!(r.m.phase(2), Phase::Hw { depth: 1, irrevocable: true, lazy: false });
        assert_eq!((r.m.phase(3), r.irrevocable_owner()), (Phase::Idle, Some(2)));
        r.play(&[(0, Commit), (0, Commit), (2, Commit)]).unwrap();
        assert_eq!(r.m.phase(0), Phase::Idle, "a committing window is no transaction");
        assert_eq!(r.irrevocable_owner(), None);
    }

    #[test]
    fn an_irrevocable_owner_on_a_core_above_255_is_the_oldest() {
        let mut m = machine_512();
        m.begin_tx(1, 5, TxSite(1));
        m.begin_tx_irrevocable(2, 300, TxSite(1));
        assert!(m.txs[300].timestamp < m.txs[5].timestamp);
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::tests::*;
    use suv_types::TxSite;

    const NEST: Op = NestedBegin { site: TxSite(2) };

    #[test]
    fn partial_abort_keeps_outer_writes() {
        let mut r = run();
        r.m.poke(0x100, 1);
        r.m.poke(0x140, 2);
        // The nested level writes a different line, then partially aborts.
        let script = [(0, begin(1)), (0, Store(0x100, 10)), (0, NEST), (0, Store(0x140, 20))];
        r.play(&script).unwrap();
        let out = r.play(&[(0, AbortNested)]).unwrap();
        assert!(matches!(out[0].answer, Answer::NestedAbort(Some(_))), "LogTM-SE supports it");
        assert_eq!(r.phase(0), Phase::Hw { depth: 1, irrevocable: false, lazy: false });
        assert_eq!(r.m.mem.read_word(0x140), 2, "inner write rolled back");
        assert_eq!(r.m.mem.read_word(0x100), 10, "outer write survives");
        assert!(committed(r.play(&[(0, Commit)]).unwrap()[0].answer));
        assert_eq!(r.m.peek(0x100), 10);
        assert_eq!(r.m.peek(0x140), 2);
    }

    #[test]
    fn partial_abort_restores_outer_speculative_value_on_shared_line() {
        // Outer writes X=10, inner overwrites X=20, inner aborts: X must
        // return to the OUTER speculative value 10, not the pre-tx 1.
        let mut r = run();
        r.m.poke(0x200, 1);
        let out = r.play(&[
            (0, begin(1)),
            (0, Store(0x200, 10)),
            (0, NEST),
            (0, Store(0x200, 20)),
            (0, AbortNested),
            (0, Load(0x200)),
            (0, Abort),
        ]);
        assert_eq!(out.unwrap()[5].value(), Some(10), "outer speculative value restored");
        // And the full abort from there restores the pre-transaction value.
        assert_eq!(r.m.peek(0x200), 1);
    }

    #[test]
    fn nested_commit_then_full_abort_unwinds_everything() {
        let mut r = run();
        r.m.poke(0x300, 1);
        r.m.poke(0x340, 2);
        // Inner committed into the outer; outer aborts: both revert.
        r.play(&[
            (0, begin(1)),
            (0, Store(0x300, 10)),
            (0, NEST),
            (0, Store(0x340, 20)),
            (0, Commit),
            (0, Abort),
        ])
        .unwrap();
        assert_eq!(r.m.peek(0x300), 1);
        assert_eq!(r.m.peek(0x340), 2, "inner-committed write dies with the outer abort");
    }

    #[test]
    fn inner_frame_sets_stop_defending_after_partial_abort() {
        let mut r = run();
        let out = r.play(&[
            (0, begin(1)),
            (0, NEST),
            (0, Store(0x400, 7)),
            (0, AbortNested),
            // Another core can now write the line the aborted level touched.
            (1, begin(3)),
            (1, Store(0x400, 9)),
        ]);
        let last = out.unwrap()[5];
        assert!(last.value().is_some(), "aborted inner level still defends: {last:?}");
    }

    /// With nested levels open a core has one signature pair, the union of
    /// its levels' bits: a line that only the union covers conflicts, and
    /// stops once a partial abort takes its level's bits out.
    #[test]
    fn a_nested_core_has_one_signature_pair_and_a_partial_abort_shrinks_it() {
        let (a, line) = (0x1000, |i: u64| 0x1000 + i * 64);
        let covered = |b: u64, c: u64| {
            let (ma, mb, mc) = (bloom(2, a), bloom(2, b), bloom(2, c));
            mc & !(ma | mb) == 0 && mc & !ma != 0 && mc & !mb != 0
        };
        let (b, c) = (1..64)
            .flat_map(|i| (1..256).map(move |j| (line(i), line(j))))
            .find(|&(b, c)| b != c && covered(b, c))
            .expect("some line is covered by the union of two others alone");
        let mut r = run_64(2, false);
        let out = r.play(&[(0, begin(1)), (0, Load(a)), (0, NEST), (0, Load(b))]).unwrap();
        assert!(out.iter().all(|o| o.aborted.is_none()));
        let out = r.play(&[(1, begin(2)), (1, Store(c, 1))]).unwrap();
        assert!(nacked(out[1].answer, 0, false), "the union covers {c:#x}: {:?}", out[1]);
        let out = r.play(&[(0, AbortNested), (1, Store(c, 1))]).unwrap();
        assert!(out[1].value().is_some(), "level 1 alone does not cover {c:#x}: {:?}", out[1]);
    }

    #[test]
    fn abort_nested_returns_none_at_outer_level() {
        let out = run().play(&[(0, begin(1)), (0, AbortNested)]).unwrap();
        assert_eq!(out[1].answer, Answer::NestedAbort(None), "outermost level needs a full abort");
    }
}

#[cfg(test)]
mod sw_fallback_tests {
    use super::tests::*;
    use super::*;

    fn sw_begin(site: u32) -> Op {
        SwBegin { site: TxSite(site), attempt: 1 }
    }

    fn sw_must_abort(answer: Answer, why: FallbackAbortReason) -> bool {
        matches!(answer, Answer::SwCommit(SwCommitOutcome::MustAbort { reason, .. }) if reason == why)
    }

    #[test]
    fn sw_tx_commits_and_publishes() {
        let mut r = run();
        r.m.poke(0x100, 5);
        let script =
            [(0, sw_begin(1)), (0, SwLoad(0x100)), (0, SwStore(0x100, 6)), (0, SwLoad(0x100))];
        let out = r.play(&script).unwrap();
        assert!(r.m.sw.active(0));
        assert_eq!(out[1].value(), Some(5));
        assert_eq!(out[3].value(), Some(6), "read-own-write through the redo log");
        assert_eq!(r.m.mem.read_word(0x100), 5, "nothing published before commit");
        let out = r.play(&[(0, SwCommit)]).unwrap();
        assert!(
            matches!(out[0].answer, Answer::SwCommit(SwCommitOutcome::Committed { latency }) if latency > 0)
        );
        assert!(!r.m.sw.active(0));
        assert_eq!(r.m.peek(0x100), 6);
        let s = r.m.tx_stats();
        assert_eq!((s.commits, s.sw_commits, s.sw_aborts), (1, 1, 0));
    }

    #[test]
    fn sw_commit_window_nacks_hardware_and_nontx_accesses() {
        let mut r = run();
        r.m.poke(0x200, 1);
        let out = r.play(&[
            (0, sw_begin(1)),
            (0, SwStore(0x200, 2)),
            (0, SwCommit),
            // During the window a hardware transaction is NACKed...
            (1, begin(2)),
            (1, Store(0x200, 9)),
            // ...and so is a non-transactional store.
            (2, NonTxStore(0x200, 9)),
        ]);
        let out = out.unwrap();
        assert!(r.ready(2) < r.ready(0), "both must land inside the commit window");
        assert!(nacked(out[4].answer, 0, false), "lock windows close: stall, never abort");
        assert!(nacked(out[5].answer, 0, false), "expected NACK inside the commit window");
        assert!(r.m.tx_stats().hw_sw_conflicts >= 2);
        // After the window the same access succeeds and sees the published
        // value underneath.
        let after = r.ready(0) + 50;
        assert_eq!(r.step(after, 1, Load(0x200)).unwrap().value(), Some(2), "commit published");
    }

    #[test]
    fn hardware_commit_dooms_overlapping_sw_reader() {
        let mut r = run();
        r.m.poke(0x300, 7);
        let out = r.play(&[
            (0, sw_begin(1)),
            (0, SwLoad(0x300)),
            // Core 1 writes and commits the line in hardware. The store is
            // not NACKed — software readers publish no ownership — but the
            // commit invalidates the software read set.
            (1, begin(2)),
            (1, Store(0x300, 8)),
            (1, Commit),
            (0, SwLoad(0x300)),
        ]);
        let out = out.unwrap();
        assert!(committed(out[4].answer));
        let doomed = matches!(out[5].answer, Answer::Access(Access::MustAbort { .. }));
        assert!(doomed, "software tx must be doomed by the hardware commit, got {:?}", out[5]);
        assert!(out[5].aborted.unwrap() > 0, "and the step aborts it");
        let s = r.m.tx_stats();
        assert_eq!(s.sw_aborts, 1);
        assert!(s.hw_sw_conflicts >= 1);
    }

    #[test]
    fn live_hardware_writer_beats_sw_commit() {
        let mut r = run();
        r.m.poke(0x400, 1);
        let out = r.play(&[
            (1, begin(2)),
            (1, Store(0x400, 9)),
            (0, sw_begin(1)),
            (0, SwStore(0x400, 2)), // buffered, unchecked
            (0, SwCommit),
            // The hardware transaction is untouched and commits its value.
            (1, Commit),
        ]);
        let out = out.unwrap();
        assert!(sw_must_abort(out[4].answer, FallbackAbortReason::HwConflict), "{:?}", out[4]);
        assert!(committed(out[5].answer));
        assert_eq!(r.m.peek(0x400), 9);
    }

    #[test]
    fn sw_commit_validation_catches_changed_value() {
        let mut r = run();
        r.m.poke(0x500, 5);
        let out = r.play(&[
            (0, sw_begin(1)),
            (0, SwLoad(0x500)),
            (0, SwStore(0x540, 1)),
            // A non-transactional store slips in under the read (strong
            // isolation lets it through: software readers do not defend).
            (1, NonTxStore(0x500, 6)),
            (0, SwCommit),
        ]);
        let out = out.unwrap();
        assert_eq!(out[1].value(), Some(5));
        assert!(out[3].value().is_some());
        assert!(
            sw_must_abort(out[4].answer, FallbackAbortReason::ValidationFailed),
            "{:?}",
            out[4]
        );
        assert_eq!(r.m.peek(0x540), 0, "aborted redo log never published");
    }

    #[test]
    fn sw_read_of_eager_speculative_line_is_nacked() {
        let mut r = run();
        r.m.poke(0x600, 1);
        // Core 1's store is in place, speculative.
        let script = [(1, begin(2)), (1, Store(0x600, 9)), (0, sw_begin(1)), (0, SwLoad(0x600))];
        let out = r.play(&script).unwrap();
        assert!(nacked(out[3].answer, 1, false), "a speculative value leaked: {:?}", out[3]);
    }

    #[test]
    fn concurrent_sw_committer_reports_busy() {
        let mut r = run();
        r.m.poke(0x700, 1);
        let out = r.play(&[
            (0, sw_begin(1)),
            (0, SwStore(0x700, 2)),
            (0, SwCommit),
            // A second software transaction writing the same line inside the
            // window must wait, then succeed after it closes.
            (1, sw_begin(2)),
            (1, SwStore(0x700, 3)),
            (1, SwCommit),
        ]);
        let busy = out.unwrap()[5];
        assert!(matches!(busy.answer, Answer::SwCommit(SwCommitOutcome::Busy { nacker: 0, .. })));
        let after = r.ready(1) + 500;
        let retried = r.step(after, 1, SwCommit).unwrap();
        assert!(matches!(retried.answer, Answer::SwCommit(SwCommitOutcome::Committed { .. })));
        assert_eq!(r.m.peek(0x700), 3);
    }
}
