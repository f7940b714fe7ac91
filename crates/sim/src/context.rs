//! The per-core execution context — the API workloads program against.
//!
//! A [`ThreadCtx`] owns a simulated core's clock and its execution-time
//! breakdown. Workload bodies are `async`: every memory access, barrier
//! and backoff point is an `.await`, so the compiler turns each core's
//! body into a resumable state machine and *suspending is a function
//! return* into the executor loop (`runner.rs`) — no OS thread, no park,
//! no context switch. The leaf of that state machine is written by hand:
//! a load or store is one [`Future`] (`AccessFuture`: sync check, `Pending`
//! at most once per issue slot, then the machine call) that the four
//! public access methods return directly, so a suspend or resume crosses
//! the workload's own frames and one more — not a chain of nested
//! compiler-generated ones. Transactions are async closures run under
//! [`ThreadCtx::txn`]; their memory accesses go through the [`Tx`] guard
//! and propagate [`Abort`] with `?`, which unwinds to the retry loop (the
//! functional equivalent of the register checkpoint restore).
//!
//! # Shared state without locks
//!
//! Exactly one simulated core runs at a time (the event loop polls one
//! coroutine at a time), so the [`HtmMachine`] never has concurrent
//! users. All cores of a cell share one [`Engine`] — the machine plus
//! the [`Scheduler`] — through an `Rc`; per-access machine calls go
//! through a `RefCell` borrow, which is a counter increment, not a lock.

use crate::fault::FaultInjector;
use crate::sched::Scheduler;
use crate::scheme::Vm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{ready, Context, Poll};
use suv_htm::machine::{Access, CommitOutcome, HtmMachine, SwCommitOutcome};
use suv_mem::{BumpAllocator, Region};
use suv_trace::{EscalationReason, FallbackAbortReason, FaultKind, LatencyHistogram, TraceEvent};
use suv_types::config::RETRY_INTERVAL;
use suv_types::{Addr, Breakdown, BreakdownKind, Cycle, FallbackMode, RobustnessConfig, TxSite};

/// A rung of the escalation ladder: the tier a transaction attempt runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Normal hardware transaction.
    Hw,
    /// STM-mode software fallback (value-validated, redo-logged).
    Sw,
    /// Serialized irrevocable execution (the last rung: guaranteed commit).
    Irrevocable,
}

/// The rungs a transaction climbs under `mode`, bottom first. The ladder
/// is this data: [`ThreadCtx::txn`] only ever moves one rung up it.
fn ladder(mode: FallbackMode) -> &'static [Tier] {
    match mode {
        FallbackMode::Off => &[Tier::Hw],
        FallbackMode::IrrevocableOnly => &[Tier::Hw, Tier::Irrevocable],
        FallbackMode::Stm => &[Tier::Hw, Tier::Sw, Tier::Irrevocable],
    }
}

/// What one dynamic transaction has been through so far: the inputs of
/// every rung's exhaustion test.
#[derive(Debug, Clone, Copy, Default)]
struct Attempts {
    /// Aborted attempts, on any tier.
    aborts: u32,
    /// Hardware attempts that died of a capacity overflow.
    overflow_aborts: u32,
    /// Software attempts begun.
    sw: u32,
    /// Cycles since the first begin.
    starved: Cycle,
}

/// The exhaustion test of rung `tier`: has the transaction spent its
/// budget there, and which budget? A threshold of 0 disables that trigger;
/// the irrevocable rung has none (it always commits).
fn exhausted(r: &RobustnessConfig, tier: Tier, a: &Attempts) -> Option<EscalationReason> {
    match tier {
        Tier::Hw if r.overflow_retries != 0 && a.overflow_aborts >= r.overflow_retries => {
            Some(EscalationReason::OverflowBudget)
        }
        Tier::Hw if r.max_tx_aborts != 0 && a.aborts >= r.max_tx_aborts => {
            Some(EscalationReason::AbortWatchdog)
        }
        Tier::Hw if r.max_starvation_cycles != 0 && a.starved >= r.max_starvation_cycles => {
            Some(EscalationReason::StarvationWatchdog)
        }
        Tier::Sw if r.sw_retries != 0 && a.sw >= r.sw_retries => Some(EscalationReason::SwBudget),
        _ => None,
    }
}

/// Marker propagated by `?` out of a transaction body when the hardware
/// aborted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort;

/// The shared state of one simulated cell: the HTM machine and the event
/// -loop scheduler. Cloned (as an `Rc`) into every [`ThreadCtx`]; the
/// executor keeps the last reference and unwraps the machine for stats
/// harvesting once all cores finished.
pub struct Engine {
    pub(crate) machine: RefCell<HtmMachine<Vm>>,
    pub(crate) sched: Scheduler,
}

impl Engine {
    /// Wrap a configured machine for an `n_cores`-way run.
    pub fn new(machine: HtmMachine<Vm>, n_cores: usize) -> Self {
        Engine { machine: RefCell::new(machine), sched: Scheduler::new(n_cores) }
    }

    /// The event-loop scheduler.
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// Take the machine back out (after every core finished).
    pub fn into_machine(self) -> HtmMachine<Vm> {
        self.machine.into_inner()
    }
}

/// Suspend the calling coroutine once, parked at the barrier or on the
/// irrevocable token: the first poll returns `Pending` (the function-return
/// handoff into the executor), the next returns `Ready`. The scheduler's
/// run queue — not a waker — decides when that next poll happens (once
/// another core has woken this one), so the noop waker is correct by
/// construction. (Sync points carry the same one bit themselves: see
/// [`ThreadCtx::poll_sync`].)
#[derive(Default)]
struct Parked {
    polled: bool,
}

impl Future for Parked {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if std::mem::replace(&mut self.polled, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// Context given to `Workload::setup`: functional memory pokes plus a heap
/// allocator. Setup is not timed (it models pre-measurement initialization,
/// as STAMP's timed region starts after input generation).
pub struct SetupCtx<'a> {
    machine: &'a mut HtmMachine<Vm>,
    heap: BumpAllocator,
}

impl<'a> SetupCtx<'a> {
    /// Wrap a machine for setup.
    pub fn new(machine: &'a mut HtmMachine<Vm>) -> Self {
        SetupCtx { machine, heap: BumpAllocator::new(Region::heap()) }
    }

    /// Number of simulated cores / threads.
    pub fn n_cores(&self) -> usize {
        self.machine.config().n_cores
    }

    /// Allocate `n` 64-bit words on the simulated heap.
    pub fn alloc_words(&mut self, n: u64) -> Addr {
        self.heap.alloc_words(n)
    }

    /// Allocate a line-aligned block of `bytes`.
    pub fn alloc_lines(&mut self, bytes: u64) -> Addr {
        self.heap.alloc_lines(bytes)
    }

    /// Untimed functional write.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.machine.poke(addr, value);
    }

    /// Untimed functional read.
    pub fn peek(&mut self, addr: Addr) -> u64 {
        self.machine.peek(addr)
    }
}

/// Per-core simulation context.
pub struct ThreadCtx {
    engine: Rc<Engine>,
    tid: usize,
    now: Cycle,
    breakdown: Breakdown,
    /// Transactional cycles of the current attempt (reclassified to Wasted
    /// when the attempt aborts).
    attempt_trans: Cycle,
    /// The tier of the transaction attempt in flight (`None` outside
    /// transactions). The `Tx` guard dispatches its accesses on it, and an
    /// irrevocable attempt — which can never abort — is exempt from the
    /// spurious-overflow fault.
    tier: Option<Tier>,
    /// Deterministic per-thread RNG for workload decisions.
    pub rng: StdRng,
    /// Hard wall on simulated time to catch runaway configurations.
    max_cycles: Cycle,
    /// Cached tracing flag so untraced runs skip barrier-event emission.
    trace_on: bool,
    /// Local fast-path elision tally (credited to the scheduler's shared
    /// counter by the runner after the body completes — a shared-counter
    /// bump per sync would tax every memory access).
    elided: u64,
    /// Escalation-ladder and watchdog thresholds (cached off the machine
    /// config so the hot retry loop never re-borrows the machine).
    robust: RobustnessConfig,
    /// Seeded fault injector, when the run is armed with `--faults`.
    faults: Option<FaultInjector>,
    /// Set by the `Tx` guard when the current attempt died of a capacity
    /// overflow ([`Access::Overflow`]); consumed by the retry loop to
    /// drive the escalation ladder.
    overflow_hit: bool,
    /// Per-thread request-latency samples (recorded by open-loop workloads
    /// via [`ThreadCtx::record_latency`]; harvested by the runner).
    latency: LatencyHistogram,
}

impl ThreadCtx {
    /// Build the context for simulated core `tid` on a shared engine.
    pub fn new(engine: Rc<Engine>, tid: usize) -> Self {
        let (trace_on, robust) = {
            let m = engine.machine.borrow();
            (m.tracer().on(), m.config().robust)
        };
        let faults = robust.faults.map(|spec| FaultInjector::new(&spec, tid));
        ThreadCtx {
            engine,
            tid,
            now: 0,
            breakdown: Breakdown::default(),
            attempt_trans: 0,
            tier: None,
            rng: StdRng::seed_from_u64(0x57A3F + tid as u64 * 0x9E37),
            max_cycles: 50_000_000_000,
            trace_on,
            elided: 0,
            robust,
            faults,
            overflow_hit: false,
            latency: LatencyHistogram::new(),
        }
    }

    /// This thread's id (== its core id).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Current local clock.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The accumulated execution-time breakdown.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown
    }

    /// Fast-path elisions tallied locally by this core (folded into the
    /// scheduler counter by the runner).
    pub(crate) fn elided_syncs(&self) -> u64 {
        self.elided
    }

    /// The shared machine (a `RefCell` borrow, statement-scoped).
    #[inline]
    fn m(&self) -> RefMut<'_, HtmMachine<Vm>> {
        self.engine.machine.borrow_mut()
    }

    fn spend(&mut self, kind: BreakdownKind, cycles: Cycle) {
        self.now += cycles;
        assert!(self.now < self.max_cycles, "simulated time explosion on thread {}", self.tid);
        if self.tier.is_some() && kind == BreakdownKind::Trans {
            self.attempt_trans += cycles;
        } else {
            self.breakdown.add(kind, cycles);
        }
    }

    /// One poll of a sync point: wait until this core's clock is the
    /// global minimum. The common case — still the minimum — is one plain
    /// load against the cached horizon; otherwise the core leaves its wake
    /// key with the scheduler and the coroutine suspends (a function
    /// return into the event loop). `resumed` is the sync point's whole
    /// state: set when it suspends, and the executor only polls it again
    /// once the core is the minimum, so that poll passes without a second
    /// look (and without counting an elision: the handoff was taken).
    #[inline]
    fn poll_sync(&mut self, resumed: &mut bool) -> Poll<()> {
        if std::mem::take(resumed) {
            return Poll::Ready(());
        }
        if self.engine.sched.fast_path(self.tid, self.now) {
            self.elided += 1;
            return Poll::Ready(());
        }
        self.engine.sched.yield_at(self.tid, self.now);
        *resumed = true;
        Poll::Pending
    }

    /// A sync point outside an access (transaction begin, commit, abort,
    /// escalation).
    #[inline]
    fn sync(&mut self) -> SyncPoint<'_> {
        SyncPoint { ctx: self, resumed: false }
    }

    /// Spend `cycles` of computation (one cycle per instruction on the
    /// in-order core). Inside a transaction this is transactional work.
    pub fn work(&mut self, cycles: Cycle) {
        let kind = if self.tier.is_some() { BreakdownKind::Trans } else { BreakdownKind::NoTrans };
        self.spend(kind, cycles);
    }

    /// Idle (open-loop think time) until the local clock reaches `when`.
    /// No-op when the clock is already past it — that is exactly the
    /// backlogged case whose queueing delay open-loop latency must keep.
    pub fn idle_until(&mut self, when: Cycle) {
        let gap = when.saturating_sub(self.now);
        if gap > 0 {
            self.spend(BreakdownKind::NoTrans, gap);
        }
    }

    /// Record one end-to-end request latency sample (in cycles, measured
    /// from the request's *intended arrival*, not from service start).
    pub fn record_latency(&mut self, cycles: Cycle) {
        self.latency.observe(cycles);
    }

    /// The per-thread latency histogram (merged across threads by the
    /// runner after the workload finishes).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Trace a fault the injector just drew (no-op on untraced runs).
    fn trace_fault(&mut self, kind: FaultKind, cycles: Cycle) {
        if self.trace_on {
            self.m().trace_emit(self.now, self.tid, TraceEvent::FaultInjected { kind, cycles });
        }
    }

    /// Fault hook before an access issues: a spurious NACK consumes this
    /// issue slot (the caller retries after the stall). Deterministic —
    /// the roll comes from the per-core seeded stream.
    fn inject_nack(&mut self) -> bool {
        let Some(f) = self.faults.as_mut() else { return false };
        if !f.spurious_nack() {
            return false;
        }
        self.trace_fault(FaultKind::SpuriousNack, RETRY_INTERVAL);
        self.spend(BreakdownKind::Stalled, RETRY_INTERVAL);
        true
    }

    /// Fault hook after an access completes: extra NoC cycles, charged as
    /// a stall.
    fn inject_delay(&mut self) {
        let Some(f) = self.faults.as_mut() else { return };
        let extra = f.extra_delay();
        if extra > 0 {
            self.trace_fault(FaultKind::NocDelay, extra);
            self.spend(BreakdownKind::Stalled, extra);
        }
    }

    /// Fault hook before a hardware transactional store: a spurious
    /// capacity overflow (`overflow=P`) makes the attempt die exactly as
    /// if the version manager's pool were exhausted, driving the
    /// escalation ladder without any real capacity pressure.
    fn inject_overflow(&mut self) -> bool {
        if self.tier != Some(Tier::Hw) {
            // Only hardware capacity can overflow. Irrevocable attempts
            // bypass the version manager's capacity clamps, so the
            // spurious pool-exhaustion fault cannot apply — and must not,
            // since an irrevocable transaction never aborts.
            return false;
        }
        let Some(f) = self.faults.as_mut() else { return false };
        if !f.spurious_overflow() {
            return false;
        }
        self.trace_fault(FaultKind::SpuriousOverflow, 1);
        self.m().note_injected_overflow(self.now, self.tid);
        self.spend(BreakdownKind::Stalled, 1);
        self.overflow_hit = true;
        true
    }

    /// The one access retry loop, as a future: every load (`STORE = false`,
    /// `value` ignored) and store of every tier — the attempt's in flight,
    /// else non-transactional. It resolves to `T`, the caller's view of
    /// the outcome ([`FromOutcome`]).
    #[inline]
    fn access<const STORE: bool, T: FromOutcome>(
        &mut self,
        addr: Addr,
        value: u64,
    ) -> AccessFuture<'_, STORE, T> {
        AccessFuture { ctx: self, addr, value, resumed: false, outcome: PhantomData }
    }

    /// One issue slot of an [`AccessFuture`]: fault hooks, the machine call of
    /// the tier in flight, and the outcome's charge. `None` = stalled
    /// (NACKed, really or spuriously): retry.
    #[inline]
    fn issue<const STORE: bool>(&mut self, addr: Addr, value: u64) -> Option<Result<u64, Abort>> {
        let tier = self.tier;
        // The software write barrier only buffers into the core's private
        // redo log: nothing leaves the core, so no fault hook applies.
        let hooks = !(STORE && tier == Some(Tier::Sw));
        if hooks && self.inject_nack() {
            return None;
        }
        if STORE && self.inject_overflow() {
            return Some(Err(Abort));
        }
        let (now, tid) = (self.now, self.tid);
        let r = match (tier, STORE) {
            (None, false) => self.m().nontx_load(now, tid, addr),
            (None, true) => self.m().nontx_store(now, tid, addr, value),
            (Some(Tier::Sw), false) => self.m().sw_load(now, tid, addr),
            (Some(Tier::Sw), true) => self.m().sw_store(now, tid, addr, value),
            (Some(Tier::Hw | Tier::Irrevocable), false) => self.m().tx_load(now, tid, addr),
            (Some(Tier::Hw | Tier::Irrevocable), true) => self.m().tx_store(now, tid, addr, value),
        };
        match r {
            Access::Done { value, latency } => {
                // (`work` does this too, but as an out-of-line call here.)
                let done =
                    if tier.is_some() { BreakdownKind::Trans } else { BreakdownKind::NoTrans };
                self.spend(done, latency);
                if hooks {
                    self.inject_delay();
                }
                Some(Ok(value))
            }
            Access::Nacked { latency, must_abort, .. } => {
                self.spend(BreakdownKind::Stalled, latency);
                if must_abort {
                    return Some(Err(Abort));
                }
                self.spend(BreakdownKind::Stalled, RETRY_INTERVAL);
                None
            }
            Access::MustAbort { latency } => {
                self.spend(BreakdownKind::Stalled, latency);
                Some(Err(Abort))
            }
            Access::Overflow { latency } => {
                // The VM refused the store for capacity (no bookkeeping
                // was done): die now and let the retry loop climb the
                // escalation ladder.
                self.spend(BreakdownKind::Stalled, latency);
                self.overflow_hit = true;
                Some(Err(Abort))
            }
        }
    }

    /// Non-transactional load.
    pub fn load(&mut self, addr: Addr) -> impl Future<Output = u64> + '_ {
        debug_assert!(self.tier.is_none(), "use the Tx guard inside transactions");
        self.access::<false, u64>(addr, 0)
    }

    /// Non-transactional store.
    pub fn store(&mut self, addr: Addr, value: u64) -> impl Future<Output = ()> + '_ {
        debug_assert!(self.tier.is_none(), "use the Tx guard inside transactions");
        self.access::<true, ()>(addr, value)
    }

    /// Wait at the program barrier.
    pub async fn barrier(&mut self) {
        assert!(self.tier.is_none(), "barrier inside a transaction");
        if !self.engine.sched.barrier_arrive(self.tid, self.now) {
            Parked::default().await;
        }
        let released = self.engine.sched.wake_time(self.tid);
        let waited = released.saturating_sub(self.now);
        self.now = released;
        self.breakdown.add(BreakdownKind::Barrier, waited);
        if self.trace_on && waited > 0 {
            self.m().trace_emit(released, self.tid, TraceEvent::BarrierWait { cycles: waited });
        }
    }

    /// Run `body` as a transaction at static site `site`, retrying on
    /// abort until it commits. Aborted attempts' transactional cycles are
    /// reclassified as Wasted.
    ///
    /// # The escalation ladder
    ///
    /// A transaction that keeps dying climbs the `ladder` its
    /// [`RobustnessConfig::fallback`] mode selects, one rung per retry
    /// boundary, whenever the rung it is on is `exhausted`:
    ///
    /// * `Hw` is exhausted by [`RobustnessConfig::overflow_retries`]
    ///   capacity-overflow aborts, [`RobustnessConfig::max_tx_aborts`]
    ///   total aborts, or [`RobustnessConfig::max_starvation_cycles`]
    ///   since the first begin.
    /// * `Sw` (`Stm` only) re-executes as a *software* transaction
    ///   (redo-logged, value-validated, committed under per-line ownership
    ///   records) while hardware transactions keep running concurrently on
    ///   the other cores; it is exhausted by
    ///   [`RobustnessConfig::sw_retries`] software attempts.
    /// * `Irrevocable` claims the chip-wide irrevocable token and
    ///   re-executes serialized: forced eager, capacity clamps bypassed,
    ///   every conflict won; guaranteed to commit, bounding overflow
    ///   livelock, starvation and software validation livelock alike.
    ///
    /// `Off` never leaves `Hw` (measurement runs that want the raw
    /// abort/livelock behaviour; progress is not guaranteed).
    pub async fn txn<F>(&mut self, site: TxSite, mut body: F)
    where
        F: AsyncFnMut(&mut Tx<'_>) -> Result<(), Abort>,
    {
        assert!(self.tier.is_none(), "nested txn() calls: use Tx::nested instead");
        let first_begin = self.now;
        let rungs = ladder(self.robust.fallback);
        let mut rung = 0;
        let mut tried = Attempts::default();
        loop {
            tried.starved = self.now.saturating_sub(first_begin);
            if let (Some(&next), Some(reason)) =
                (rungs.get(rung + 1), exhausted(&self.robust, rungs[rung], &tried))
            {
                self.escalate(reason, next).await;
                rung += 1;
            }
            let tier = rungs[rung];
            self.sync().await;
            let begin_lat = match tier {
                Tier::Hw => self.m().begin_tx(self.now, self.tid, site),
                Tier::Irrevocable => self.m().begin_tx_irrevocable(self.now, self.tid, site),
                Tier::Sw => {
                    tried.sw += 1;
                    self.m().begin_sw_tx(self.now, self.tid, site, tried.sw)
                }
            };
            self.tier = Some(tier);
            self.attempt_trans = 0;
            self.spend(BreakdownKind::Trans, begin_lat);

            let committed = if body(&mut Tx { ctx: self }).await.is_ok() {
                self.commit().await
            } else {
                // The only forced abort of a software attempt is a
                // hardware-side invalidation.
                self.abort(FallbackAbortReason::HwConflict).await;
                false
            };
            if committed {
                return;
            }
            tried.aborts = tried.aborts.saturating_add(1);
            if std::mem::take(&mut self.overflow_hit) {
                tried.overflow_aborts = tried.overflow_aborts.saturating_add(1);
            }
        }
    }

    /// Move the transaction up to rung `to`, between attempts: record why,
    /// and for the irrevocable rung claim the chip-wide token, polling it
    /// every [`RETRY_INTERVAL`] while another transaction holds it — parked
    /// through the polls that would find it taken, which touch nothing
    /// (DESIGN.md §8.1), and parked again if a newcomer got there first.
    /// No transactional isolation is held here, so the current owner can
    /// always make progress and eventually release — the wait cannot
    /// deadlock.
    async fn escalate(&mut self, reason: EscalationReason, to: Tier) {
        self.sync().await;
        self.m().note_escalation(self.now, self.tid, reason);
        while to == Tier::Irrevocable && !self.engine.sched.try_acquire_irrevocable(self.tid) {
            self.engine.sched.park_on_token(self.tid, self.now + RETRY_INTERVAL, RETRY_INTERVAL);
            Parked::default().await;
            let woken = self.engine.sched.wake_time(self.tid);
            self.spend(BreakdownKind::Stalled, woken - self.now);
        }
    }

    /// Commit the attempt in flight, or abort it when the machine refuses.
    /// Returns whether it committed. A software commit retries while
    /// another software commit window holds a touched line (the window
    /// closes unconditionally, so the wait is bounded).
    async fn commit(&mut self) -> bool {
        let outcome = loop {
            self.sync().await;
            if self.tier != Some(Tier::Sw) {
                let out = self.m().commit_tx(self.now, self.tid);
                break match out {
                    CommitOutcome::Committed { latency, committing } => Ok((latency, committing)),
                    // A hardware abort carries no reason: `abort` ignores it.
                    CommitOutcome::MustAbort { latency } => {
                        Err((latency, FallbackAbortReason::HwConflict))
                    }
                };
            }
            let out = self.m().commit_sw_tx(self.now, self.tid);
            match out {
                SwCommitOutcome::Committed { latency } => break Ok((latency, latency)),
                SwCommitOutcome::MustAbort { reason, latency } => break Err((latency, reason)),
                SwCommitOutcome::Busy { latency, .. } => {
                    self.spend(BreakdownKind::Stalled, latency + RETRY_INTERVAL);
                }
            }
        };
        match outcome {
            Ok((latency, committing)) => {
                if self.tier == Some(Tier::Irrevocable) {
                    // The clock still reads the sync this commit passed:
                    // the release's place in the global order.
                    self.engine.sched.release_irrevocable(self.tid, self.now);
                }
                self.tier = None;
                self.breakdown.add(BreakdownKind::Trans, self.attempt_trans);
                self.spend(BreakdownKind::Trans, latency - committing);
                self.spend(BreakdownKind::Committing, committing);
                true
            }
            Err((latency, sw_reason)) => {
                self.spend(BreakdownKind::Stalled, latency);
                self.abort(sw_reason).await;
                false
            }
        }
    }

    /// Abort the attempt in flight and back off; reclassifies the
    /// attempt's work as wasted. `sw_reason` is recorded for a software
    /// attempt only (a hardware abort's cause is the NACK, doom or overflow
    /// already in the trace).
    async fn abort(&mut self, sw_reason: FallbackAbortReason) {
        self.sync().await;
        let dur = if self.tier == Some(Tier::Sw) {
            self.m().abort_sw_tx(self.now, self.tid, sw_reason)
        } else {
            self.m().abort_tx(self.now, self.tid)
        };
        self.tier = None;
        self.breakdown.add(BreakdownKind::Wasted, self.attempt_trans);
        self.attempt_trans = 0;
        self.spend(BreakdownKind::Aborting, dur);
        let backoff = self.m().backoff_cycles(self.now, self.tid);
        self.spend(BreakdownKind::Backoff, backoff);
    }
}

/// A sync point in flight (see [`ThreadCtx::poll_sync`]).
struct SyncPoint<'a> {
    ctx: &'a mut ThreadCtx,
    resumed: bool,
}

impl Future for SyncPoint<'_> {
    type Output = ();

    #[inline]
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        this.ctx.poll_sync(&mut this.resumed)
    }
}

/// How an access's outcome — the value loaded, or `Err(Abort)` when the
/// attempt must die (possible-cycle rule, doom, capacity overflow) —
/// reaches the caller of each of the four access methods.
trait FromOutcome {
    fn from_outcome(outcome: Result<u64, Abort>) -> Self;
}

/// `Tx::load`.
impl FromOutcome for Result<u64, Abort> {
    #[inline]
    fn from_outcome(outcome: Result<u64, Abort>) -> Self {
        outcome
    }
}

/// `Tx::store`.
impl FromOutcome for Result<(), Abort> {
    #[inline]
    fn from_outcome(outcome: Result<u64, Abort>) -> Self {
        outcome.map(drop)
    }
}

/// `ThreadCtx::load`: nothing can abort outside a transaction.
impl FromOutcome for u64 {
    #[inline]
    fn from_outcome(outcome: Result<u64, Abort>) -> Self {
        outcome.expect("non-transactional access told to abort")
    }
}

/// `ThreadCtx::store`.
impl FromOutcome for () {
    #[inline]
    fn from_outcome(outcome: Result<u64, Abort>) -> Self {
        u64::from_outcome(outcome);
    }
}

/// One load or store in flight: a sync point, then an issue slot, again
/// while the slot comes back stalled. Written by hand so that the whole
/// access is one state machine with one bit of state.
struct AccessFuture<'a, const STORE: bool, T> {
    ctx: &'a mut ThreadCtx,
    addr: Addr,
    value: u64,
    /// The current slot's sync point suspended ([`ThreadCtx::poll_sync`]).
    resumed: bool,
    outcome: PhantomData<fn() -> T>,
}

impl<const STORE: bool, T: FromOutcome> Future for AccessFuture<'_, STORE, T> {
    type Output = T;

    #[inline]
    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        loop {
            ready!(this.ctx.poll_sync(&mut this.resumed));
            if let Some(outcome) = this.ctx.issue::<STORE>(this.addr, this.value) {
                return Poll::Ready(T::from_outcome(outcome));
            }
        }
    }
}

/// Access guard inside a transaction.
pub struct Tx<'a> {
    ctx: &'a mut ThreadCtx,
}

impl Tx<'_> {
    /// This thread's id.
    pub fn tid(&self) -> usize {
        self.ctx.tid
    }

    /// Deterministic per-thread RNG (workload decisions inside the body
    /// must be derived from transactional data or re-drawn per attempt —
    /// this RNG does not rewind on abort).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.ctx.rng
    }

    /// Transactional compute cycles.
    pub fn work(&mut self, cycles: Cycle) {
        self.ctx.spend(BreakdownKind::Trans, cycles);
    }

    /// Transactional load, on the attempt's tier.
    pub fn load(&mut self, addr: Addr) -> impl Future<Output = Result<u64, Abort>> + '_ {
        self.ctx.access::<false, _>(addr, 0)
    }

    /// Transactional store, on the attempt's tier.
    pub fn store(
        &mut self,
        addr: Addr,
        value: u64,
    ) -> impl Future<Output = Result<(), Abort>> + '_ {
        self.ctx.access::<true, _>(addr, value)
    }

    /// Closed-nested transaction (flattened: subsumed into the outer one).
    pub async fn nested<F>(&mut self, site: TxSite, mut body: F) -> Result<(), Abort>
    where
        F: AsyncFnMut(&mut Tx<'_>) -> Result<(), Abort>,
    {
        if self.ctx.tier == Some(Tier::Sw) {
            // The software tier subsumes nesting into the flat redo log.
            self.ctx.spend(BreakdownKind::Trans, 1);
            return body(self).await;
        }
        self.ctx.sync().await;
        let lat = self.ctx.m().begin_tx(self.ctx.now, self.ctx.tid, site);
        self.ctx.spend(BreakdownKind::Trans, lat);
        let r = body(self).await;
        if r.is_ok() {
            self.ctx.sync().await;
            let out = self.ctx.m().commit_tx(self.ctx.now, self.ctx.tid);
            match out {
                CommitOutcome::Committed { latency, .. } => {
                    self.ctx.spend(BreakdownKind::Trans, latency);
                }
                CommitOutcome::MustAbort { latency } => {
                    self.ctx.spend(BreakdownKind::Stalled, latency);
                    return Err(Abort);
                }
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_fallback_mode_yields_its_documented_ladder() {
        use Tier::{Hw, Irrevocable, Sw};
        assert_eq!(ladder(FallbackMode::Off), [Hw], "Off never leaves the hardware tier");
        assert_eq!(ladder(FallbackMode::IrrevocableOnly), [Hw, Irrevocable]);
        assert_eq!(ladder(FallbackMode::Stm), [Hw, Sw, Irrevocable]);
    }

    #[test]
    fn each_rung_has_its_own_exhaustion_test() {
        use EscalationReason as E;
        let r = RobustnessConfig {
            overflow_retries: 2,
            max_tx_aborts: 5,
            max_starvation_cycles: 1000,
            sw_retries: 3,
            ..Default::default()
        };
        let spent = Attempts { aborts: 9, overflow_aborts: 9, sw: 9, starved: 9999 };
        assert_eq!(exhausted(&r, Tier::Hw, &Attempts::default()), None);
        assert_eq!(exhausted(&r, Tier::Hw, &spent), Some(E::OverflowBudget), "overflow first");
        let a = Attempts { overflow_aborts: 1, ..spent };
        assert_eq!(exhausted(&r, Tier::Hw, &a), Some(E::AbortWatchdog));
        let a = Attempts { aborts: 4, ..a };
        assert_eq!(exhausted(&r, Tier::Hw, &a), Some(E::StarvationWatchdog));
        assert_eq!(exhausted(&r, Tier::Sw, &Attempts { sw: 2, ..spent }), None);
        assert_eq!(exhausted(&r, Tier::Sw, &spent), Some(E::SwBudget));
        assert_eq!(exhausted(&r, Tier::Irrevocable, &spent), None, "the last rung always commits");
        // A threshold of 0 disables its trigger.
        let off = RobustnessConfig {
            overflow_retries: 0,
            max_tx_aborts: 0,
            max_starvation_cycles: 0,
            sw_retries: 0,
            ..r
        };
        assert_eq!(exhausted(&off, Tier::Hw, &spent), None);
        assert_eq!(exhausted(&off, Tier::Sw, &spent), None);
    }
}
