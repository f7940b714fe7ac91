//! The deterministic cooperative scheduler — a plain priority event loop.
//!
//! All simulated cores of a cell are multiplexed on **one host thread**:
//! each core is a resumable coroutine (the compiler-generated state
//! machine of its async workload body), and the scheduler is nothing but
//! a priority queue of `(wake time, core id)` keys drained by the
//! executor loop in `runner.rs`. Exactly one core runs at any instant —
//! the one whose local clock is smallest, ties broken by core id — so
//! machine-state mutations happen in strict global-time order and every
//! run is bit-reproducible. A key is one `u64`, `time << 10 | id`, whose
//! integer order is the pair's lexicographic order: the heap compares and
//! moves single words, and its head *is* the horizon word below.
//!
//! # A handoff is a function return
//!
//! A core that must give up the CPU leaves its wake key with the
//! scheduler ([`Scheduler::yield_at`]) and returns `Poll::Pending` into
//! the executor, whose [`Scheduler::dispatch`] swaps that key for the
//! heap's head — the successor leaves and the yielder re-enters in **one**
//! sift-down under one borrow — and polls the successor's coroutine: a
//! function return plus one heap operation, no atomics, no locks, no
//! allocation. A panicking workload body unwinds straight through the
//! executor on the one and only thread.
//!
//! # Waiting is not running
//!
//! A core is running, runnable (in the queue), **parked** or finished. A
//! parked core waits for another core's act — the last barrier arrival, a
//! release of the irrevocable token — in no queue, at no cost, until that
//! core re-queues it at an exact `(time, id)` key. A token waiter polls in
//! simulated time, at `t0 + k·retry_interval`; a release at the owner's
//! last passed sync `(t, owner)` wakes it at the first of those polls whose
//! key sorts after `(t, owner)` — the first that could find the token
//! free, every earlier one having touched nothing (DESIGN.md §8.1).
//!
//! # The zero-handoff fast path
//!
//! The common case on a lockstep run is "I am still the global-minimum
//! core" — the sync must decide that and return, thousands of times per
//! baton pass. The scheduler caches the **horizon**: the packed
//! `(wake time, id)` of the earliest *other* runnable core, refreshed at
//! every point the run queue changes (start, yield, wake, finish).
//! The running core is never in the queue, so a single [`Cell`] load
//! gives the *exact* answer to "am I still the minimum?" — the
//! `(t, tid) <= (tmin, idmin)` predicate against the queue head itself,
//! not a conservative approximation, so a core that fails it *must*
//! yield and the slow path has nothing left to decide.
//! The schedule (and therefore every trace hash) is bit-identical to
//! both earlier engines, asserted by the golden tuples in
//! `tests/integration_engine.rs`.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use suv_types::{Cycle, CORE_ID_BITS as ID_BITS};

/// Pack a `(time, id)` pair so that `u64` order equals lexicographic
/// `(time, id)` order.
#[inline]
fn pack(t: Cycle, id: usize) -> u64 {
    debug_assert!(t < 1 << (64 - ID_BITS), "clock overflows the packed horizon");
    debug_assert!(id < 1 << ID_BITS, "core id overflows the packed horizon");
    (t << ID_BITS) | id as u64
}

/// The core id of a packed `(time, id)` key.
#[inline]
fn id_of(key: u64) -> usize {
    (key & ((1 << ID_BITS) - 1)) as usize
}

/// Horizon value meaning "no other core is runnable": every packed
/// `(t, tid)` compares `<=` to it, so the fast path always succeeds.
const HORIZON_OPEN: u64 = u64::MAX;

/// The mutable event-loop state. Grouped in one `RefCell` because every
/// operation that touches the queue also touches the barrier bookkeeping.
struct State {
    /// Runnable cores as packed `(wake time, id)` keys, earliest first.
    /// The running core is never in the queue.
    queue: BinaryHeap<Reverse<u64>>,
    /// Cores parked at the barrier (id, arrival time).
    barrier_waiters: Vec<(usize, Cycle)>,
    /// Per-core wake time, written by whoever woke it.
    wake_time: Vec<Cycle>,
    /// Cores that finished their body.
    finished: usize,
    /// Total cores.
    n: usize,
}

impl State {
    /// Make parked core `id` runnable again at exactly `(t, id)`.
    fn wake(&mut self, id: usize, t: Cycle) {
        self.wake_time[id] = t;
        self.queue.push(Reverse(pack(t, id)));
    }

    /// Release all barrier waiters at the latest arrival time.
    fn release_barrier(&mut self) {
        let tmax = self.barrier_waiters.iter().map(|(_, t)| *t).max().expect("non-empty");
        while let Some((w, _)) = self.barrier_waiters.pop() {
            self.wake(w, tmax);
        }
    }

    /// The horizon for the current queue: its head, if it has one.
    fn horizon(&self) -> u64 {
        self.queue.peek().map_or(HORIZON_OPEN, |head| head.0)
    }
}

/// The event-loop scheduler for one cell. Single-threaded by design
/// (plain `Cell`/`RefCell` state, no atomics): it is shared between the
/// executor and the per-core contexts through an `Rc`.
pub struct Scheduler {
    state: RefCell<State>,
    /// Packed `(time, id)` of the earliest *other* runnable core, or
    /// [`HORIZON_OPEN`]. Kept outside the `RefCell` so the per-access
    /// fast path is one plain load.
    horizon: Cell<u64>,
    /// Wake key of a core that is suspending at a sync, left by
    /// [`Scheduler::yield_at`] for the next [`Scheduler::dispatch`].
    yielding: Cell<Option<u64>>,
    /// Baton passes between distinct cores.
    handoffs_taken: Cell<u64>,
    /// Syncs that kept the baton (the fast path).
    handoffs_elided: Cell<u64>,
    /// Barrier arrivals.
    barrier_arrivals: Cell<u64>,
    /// Holder of the chip-wide irrevocable token (INV-11: at most one).
    irrevocable: Cell<Option<usize>>,
    /// Cores parked on the irrevocable token (id, next check, check period),
    /// then parks and the releases that woke a waiter. Cold, so behind the
    /// fields every handoff touches (in `State`: `oltp_wide` +3.6 %).
    token_waiters: RefCell<Vec<(usize, Cycle, Cycle)>>,
    token_parks: Cell<u64>,
    token_contended: Cell<u64>,
}

impl Scheduler {
    /// Scheduler for `n` simulated cores.
    pub fn new(n: usize) -> Self {
        Scheduler {
            state: RefCell::new(State {
                queue: BinaryHeap::with_capacity(n),
                barrier_waiters: Vec::new(),
                wake_time: vec![0; n],
                finished: 0,
                n,
            }),
            horizon: Cell::new(HORIZON_OPEN),
            yielding: Cell::new(None),
            handoffs_taken: Cell::new(0),
            handoffs_elided: Cell::new(0),
            barrier_arrivals: Cell::new(0),
            token_waiters: RefCell::new(Vec::new()),
            token_parks: Cell::new(0),
            token_contended: Cell::new(0),
            irrevocable: Cell::new(None),
        }
    }

    /// Try to claim the chip-wide irrevocable token for `tid`. Succeeds
    /// when the token is free or already held by `tid`; a claimant that
    /// fails parks ([`Scheduler::park_on_token`]) until the owner releases.
    pub fn try_acquire_irrevocable(&self, tid: usize) -> bool {
        if self.irrevocable.get().is_none() {
            self.irrevocable.set(Some(tid));
        }
        self.irrevocable.get() == Some(tid)
    }

    /// Park `tid`, which failed to claim the token and would look again at
    /// `next`, `next + every`, …: the caller suspends, and a release wakes
    /// it at the first of those checks that could see the token free.
    #[cold] // the escape hatch's wait: rare, and kept out of `txn`'s inlined body
    pub fn park_on_token(&self, tid: usize, next: Cycle, every: Cycle) {
        self.token_parks.set(self.token_parks.get() + 1);
        self.token_waiters.borrow_mut().push((tid, next, every));
    }

    /// Release the irrevocable token when its transaction commits. `at` is
    /// the owner's last passed sync — `(at, tid)` is the release's place in
    /// the global order, wherever the owner's clock has run to since — and
    /// every waiter wakes at its first check whose key sorts after it.
    #[cold] // as rare, with its call site in every commit's epilogue
    pub fn release_irrevocable(&self, tid: usize, at: Cycle) {
        debug_assert_eq!(self.irrevocable.get(), Some(tid), "releasing a token not held");
        self.irrevocable.set(None);
        let mut g = self.state.borrow_mut();
        let release = pack(at, tid);
        let mut waiters = self.token_waiters.borrow_mut();
        let contended = u64::from(!waiters.is_empty());
        self.token_contended.set(self.token_contended.get() + contended);
        while let Some((w, next, every)) = waiters.pop() {
            // Its last check at or before the release, and the one after
            // unless that already sorts behind the release.
            let mut t = next + at.saturating_sub(next) / every * every;
            if pack(t, w) < release {
                t += every;
            }
            g.wake(w, t);
        }
        self.horizon.set(g.horizon());
    }

    /// The counters under their metric names (deterministic: the schedule is).
    pub fn counters(&self) -> [(&'static str, u64); 5] {
        [
            ("sched.handoffs_taken", self.handoffs_taken.get()),
            ("sched.handoffs_elided", self.handoffs_elided.get()),
            ("sched.barrier_arrivals", self.barrier_arrivals.get()),
            ("sched.token_parks", self.token_parks.get()),
            ("sched.token_contended", self.token_contended.get()),
        ]
    }

    /// Nobody is runnable and not everyone finished: a wake was lost.
    #[cold]
    fn lost_wake(&self, g: &State) -> ! {
        let (owner, on_token) = (self.irrevocable.get(), self.token_waiters.borrow());
        panic!(
            "suspended core left no successor ({} of {} finished): token owner {owner:?}, \
             parked on the token {on_token:?}, at the barrier {:?}",
            g.finished, g.n, g.barrier_waiters
        )
    }

    /// Seed the run queue with all cores at time 0 and pick the first to
    /// run (core 0, by the id tie-break). Called once by the executor.
    pub fn start(&self) -> usize {
        let mut g = self.state.borrow_mut();
        for tid in 0..g.n {
            g.queue.push(Reverse(pack(0, tid)));
        }
        let first = g.queue.pop().expect("non-empty").0;
        self.horizon.set(g.horizon());
        id_of(first)
    }

    /// Lock-free check: is `(t, tid)` still at or before the earliest
    /// other runnable core? Exact (not conservative) — the running core
    /// is never in the queue, so the cached horizon *is* the queue head.
    ///
    /// Deliberately does *not* count the elision: callers on the hot
    /// path (`ThreadCtx`) keep a plain local tally and deposit it once
    /// via [`Scheduler::credit_elided`].
    #[inline]
    pub fn fast_path(&self, tid: usize, t: Cycle) -> bool {
        pack(t, tid) <= self.horizon.get()
    }

    /// Fold a batch of locally-counted fast-path elisions into the
    /// shared counter (called once per core, not per sync).
    pub fn credit_elided(&self, n: u64) {
        self.handoffs_elided.set(self.handoffs_elided.get() + n);
    }

    /// Slow path of a sync: `(t, tid)` failed [`Scheduler::fast_path`], so
    /// an earlier core is runnable and the caller must suspend (the
    /// horizon is exact: there is no second opinion to take from the
    /// queue). Leaves the caller's wake key for the executor's
    /// [`Scheduler::dispatch`], which re-queues it in the same heap
    /// operation that takes the successor out.
    #[inline]
    pub fn yield_at(&self, tid: usize, t: Cycle) {
        self.yielding.set(Some(pack(t, tid)));
    }

    /// Pick the next core to run and refresh the horizon. Called by the
    /// executor after a core suspends. A core that yielded at a sync
    /// replaces the queue head with its own key — the successor leaves
    /// and the yielder re-enters in one sift-down; a core blocked at the
    /// barrier is parked outside the queue and its successor is popped.
    /// The queue is non-empty by construction either way (a yield lost to
    /// the head, a barrier-blocked core left a runnable sibling).
    pub fn dispatch(&self) -> usize {
        self.handoffs_taken.set(self.handoffs_taken.get() + 1);
        let mut g = self.state.borrow_mut();
        let next = match self.yielding.take() {
            Some(yielder) => {
                let mut head = g.queue.peek_mut().expect("yielded to an empty queue");
                debug_assert!(yielder > head.0, "the yielder was still the global minimum");
                std::mem::replace(&mut head.0, yielder)
            }
            None => g.queue.pop().unwrap_or_else(|| self.lost_wake(&g)).0,
        };
        self.horizon.set(g.horizon());
        id_of(next)
    }

    /// Barrier arrival: move `tid` to the waiter list, releasing everyone
    /// at the latest arrival time if it is the last. Returns `true` when
    /// `tid` itself is the next core to run (the release put it back at
    /// the queue head) — the caller keeps the baton and must *not*
    /// suspend. Otherwise the caller suspends (the executor's
    /// [`Scheduler::dispatch`] counts the handoff). Either way the release
    /// time is its [`Scheduler::wake_time`].
    pub fn barrier_arrive(&self, tid: usize, t: Cycle) -> bool {
        self.barrier_arrivals.set(self.barrier_arrivals.get() + 1);
        let mut g = self.state.borrow_mut();
        g.barrier_waiters.push((tid, t));
        if g.barrier_waiters.len() + g.finished == g.n {
            g.release_barrier();
        }
        let head = g.queue.peek().expect("barrier with no runnable core and waiters pending").0;
        if id_of(head) != tid {
            return false;
        }
        g.queue.pop();
        self.horizon.set(g.horizon());
        true
    }

    /// The time `tid` was last woken at: its barrier's release, or the
    /// token check a release re-queued it for.
    pub fn wake_time(&self, tid: usize) -> Cycle {
        self.state.borrow().wake_time[tid]
    }

    /// Mark this core finished and pick who runs next, if anyone. Called
    /// by the executor when a core's coroutine returns `Ready`; `None`
    /// means the whole cell is done — every core finished, none parked.
    pub fn finish_core(&self, tid: usize) -> Option<usize> {
        let mut g = self.state.borrow_mut();
        g.finished += 1;
        if !g.barrier_waiters.is_empty() && g.barrier_waiters.len() + g.finished == g.n {
            g.release_barrier();
        }
        let next = g.queue.pop().map(|Reverse(key)| id_of(key));
        self.horizon.set(g.horizon());
        if let Some(next) = next {
            debug_assert_ne!(next, tid, "finished core re-dispatched");
            self.handoffs_taken.set(self.handoffs_taken.get() + 1);
        } else if g.finished != g.n {
            self.lost_wake(&g);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a scripted core: spend cycles then sync, arrive at the
    /// program barrier, or one of the two token steps [`token`] frames.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Work(u64),
        Barrier,
        /// Claim the irrevocable token, looking again every retry interval
        /// while another core holds it. Follows a sync.
        Claim,
        /// Run the clock on by the commit's latency, then release the token
        /// at the sync the preceding `Work` passed.
        Release(u64),
    }

    /// An irrevocable transaction as `ThreadCtx` runs one: the escalation
    /// sync, the claim, `hold` cycles of body up to the commit's sync, and
    /// the release with the clock `tail` cycles past that sync.
    fn token(hold: u64, tail: u64) -> [Step; 4] {
        [Step::Work(0), Step::Claim, Step::Work(hold), Step::Release(tail)]
    }

    /// What a scripted run observed.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        /// Completed `Work` syncs as (time, id), in completion order.
        log: Vec<(u64, usize)>,
        /// Each core's barrier release times.
        releases: Vec<Vec<Cycle>>,
        /// Token acquisitions as (time, id), in order: a waiter's clock
        /// after its wait is its acquisition time.
        claims: Vec<(u64, usize)>,
        /// Each core's clock when its script ended.
        end: Vec<u64>,
        /// Retry intervals spent waiting for the token, over all cores:
        /// looks that found it taken (the reference), intervals a parked
        /// core was woken past (the scheduler).
        spun: u64,
        /// The cores resumed, in order (the first is the starter).
        dispatched: Vec<usize>,
        /// `[handoffs_taken, handoffs_elided, barrier_arrivals]`.
        counters: [u64; 3],
    }

    /// The scheduler's `i`-th counter.
    fn counter(sched: &Scheduler, i: usize) -> u64 {
        sched.counters()[i].1
    }

    /// Drive scripted cores through the raw scheduler API exactly the way
    /// the executor + `ThreadCtx` pair does: advance the clock, try the
    /// fast path, fall back to [`Scheduler::yield_at`] +
    /// [`Scheduler::dispatch`], park at barriers and on the token (retry
    /// interval `every`), finish via [`Scheduler::finish_core`].
    fn drive(scripts: &[Vec<Step>], every: u64) -> Observed {
        let n = scripts.len();
        let sched = Scheduler::new(n);
        let mut at: Vec<usize> = vec![0; n];
        let mut clock: Vec<u64> = vec![0; n];
        // A sync completes when the core next runs; a parked core's clock
        // moves to its wake time when it next runs.
        let mut pending_sync: Vec<Option<u64>> = vec![None; n];
        let mut pending_barrier: Vec<bool> = vec![false; n];
        let mut pending_token: Vec<bool> = vec![false; n];
        let mut log = Vec::new();
        let mut releases: Vec<Vec<Cycle>> = vec![Vec::new(); n];
        let mut claims = Vec::new();
        let mut spun = 0;
        let mut dispatched = Vec::new();
        let mut current = sched.start();
        'outer: loop {
            dispatched.push(current);
            if let Some(t) = pending_sync[current].take() {
                log.push((t, current));
            }
            if std::mem::take(&mut pending_barrier[current]) {
                let r = sched.wake_time(current);
                clock[current] = r;
                releases[current].push(r);
            }
            if std::mem::take(&mut pending_token[current]) {
                let woken = sched.wake_time(current);
                assert_eq!((woken - clock[current]) % every, 0, "woken off its check series");
                spun += (woken - clock[current]) / every;
                clock[current] = woken;
            }
            loop {
                let Some(&step) = scripts[current].get(at[current]) else {
                    match sched.finish_core(current) {
                        Some(next) => {
                            current = next;
                            continue 'outer;
                        }
                        None => break 'outer,
                    }
                };
                at[current] += 1;
                match step {
                    Step::Work(dt) => {
                        clock[current] += dt;
                        let t = clock[current];
                        if sched.fast_path(current, t) {
                            sched.credit_elided(1);
                            log.push((t, current));
                        } else {
                            sched.yield_at(current, t);
                            pending_sync[current] = Some(t);
                            current = sched.dispatch();
                            continue 'outer;
                        }
                    }
                    Step::Barrier => {
                        let t = clock[current];
                        if sched.barrier_arrive(current, t) {
                            let r = sched.wake_time(current);
                            clock[current] = r;
                            releases[current].push(r);
                        } else {
                            pending_barrier[current] = true;
                            current = sched.dispatch();
                            continue 'outer;
                        }
                    }
                    Step::Claim if sched.try_acquire_irrevocable(current) => {
                        claims.push((clock[current], current));
                    }
                    Step::Claim => {
                        at[current] -= 1;
                        sched.park_on_token(current, clock[current] + every, every);
                        pending_token[current] = true;
                        current = sched.dispatch();
                        continue 'outer;
                    }
                    Step::Release(tail) => {
                        let synced = clock[current];
                        clock[current] += tail;
                        sched.release_irrevocable(current, synced);
                    }
                }
            }
        }
        assert_eq!(counter(&sched, 3) > 0, spun > 0, "parks and spared looks come together");
        assert!(counter(&sched, 3) <= spun, "a park spares at least one look");
        let counters = [0, 1, 2].map(|i| counter(&sched, i));
        Observed { log, releases, claims, end: clock, spun, dispatched, counters }
    }

    /// The schedule from its definition, with none of the scheduler's
    /// machinery: runnable cores are `(time, id)` tuples in a `Vec` kept
    /// sorted, a yield is an insert followed by a remove, nothing is
    /// packed or cached. The running core keeps the baton while it is at
    /// or before every runnable core; a barrier releases everyone at the
    /// latest arrival once every unfinished core waits at it; and a core
    /// that finds the token taken *literally spins* — `every` more cycles,
    /// a sync, another look — so nothing here parks or computes a wake time.
    fn reference(scripts: &[Vec<Step>], every: u64) -> Observed {
        let n = scripts.len();
        let mut runnable: Vec<(u64, usize)> = (1..n).map(|id| (0, id)).collect();
        let mut waiting: Vec<(u64, usize)> = Vec::new();
        let mut finished = 0;
        let mut owner = None;
        let mut at = vec![0; n];
        let mut clock = vec![0u64; n];
        let mut unlogged: Vec<Option<u64>> = vec![None; n];
        let mut out = Observed {
            log: Vec::new(),
            releases: vec![Vec::new(); n],
            claims: Vec::new(),
            end: Vec::new(),
            spun: 0,
            dispatched: vec![0],
            counters: [0; 3],
        };
        let mut current = 0;
        loop {
            let step = scripts[current].get(at[current]).copied();
            at[current] += 1;
            match step {
                Some(Step::Claim) if owner.is_none() => {
                    owner = Some(current);
                    out.claims.push((clock[current], current));
                    continue;
                }
                Some(Step::Release(tail)) => {
                    assert_eq!(owner.take(), Some(current), "releasing a token not held");
                    clock[current] += tail;
                    continue;
                }
                // Work, or a spin — one retry interval, then the claim
                // again: the same sync, logged only for work.
                Some(Step::Work(_) | Step::Claim) => {
                    let (dt, work) = if let Some(Step::Work(dt)) = step {
                        (dt, true)
                    } else {
                        at[current] -= 1;
                        out.spun += 1;
                        (every, false)
                    };
                    clock[current] += dt;
                    let me = (clock[current], current);
                    if runnable.first().is_none_or(|&head| me <= head) {
                        out.counters[1] += 1;
                        if work {
                            out.log.push(me);
                        }
                        continue;
                    }
                    unlogged[current] = work.then_some(me.0);
                    runnable.push(me);
                }
                Some(Step::Barrier) => {
                    out.counters[2] += 1;
                    waiting.push((clock[current], current));
                }
                None => finished += 1,
            }
            // `current` stopped running: release the barrier if that
            // completed it, then resume the earliest runnable core.
            if !waiting.is_empty() && waiting.len() + finished == n {
                let release = waiting.iter().map(|&(t, _)| t).max().expect("non-empty");
                for (_, id) in waiting.drain(..) {
                    clock[id] = release;
                    out.releases[id].push(release);
                    runnable.push((release, id));
                }
            }
            runnable.sort_unstable();
            if runnable.is_empty() {
                out.end = clock;
                return out;
            }
            let (_, next) = runnable.remove(0);
            if next != current {
                out.counters[0] += 1;
                out.dispatched.push(next);
            }
            current = next;
            if let Some(t) = unlogged[current].take() {
                out.log.push((t, current));
            }
        }
    }

    /// Run `scripts` on the scheduler and on the reference and demand the
    /// same simulated outcome: every `Work` sync in the same global order
    /// at the same time, the same token acquisitions, barrier releases and
    /// final clocks, and the scheduler sparing its waiters exactly the
    /// looks the reference's spinners made. Where nothing spun the resumed
    /// cores and all three counters agree too; where something did, parking
    /// may only have removed handoffs.
    fn agree(scripts: &[Vec<Step>], every: u64) -> Observed {
        let (got, want) = (drive(scripts, every), reference(scripts, every));
        let simulated = |o: &Observed| {
            (o.log.clone(), o.releases.clone(), o.claims.clone(), o.end.clone(), o.spun)
        };
        assert_eq!(simulated(&got), simulated(&want), "{} cores, every {every}", scripts.len());
        assert_eq!(got.counters[2], want.counters[2], "barrier arrivals");
        if want.spun == 0 {
            assert_eq!((&got.dispatched, got.counters), (&want.dispatched, want.counters));
        }
        assert!(got.counters[0] <= want.counters[0], "parking added a handoff");
        got
    }

    /// Random scripts: a kind below 20 is that much work, the next four are
    /// barriers (one step in seven), the rest an irrevocable transaction
    /// whose body and commit latency straddle the retry intervals in use;
    /// zero-cycle work keeps ties in play.
    fn scripts(n: usize) -> impl Strategy<Value = Vec<Vec<Step>>> {
        let draws = proptest::collection::vec((0u64..28, 0u64..50), 0..12);
        proptest::collection::vec(draws, n..n + 1).prop_map(|cores| {
            let steps = |(kind, amount): (u64, u64)| match kind {
                0..20 => vec![Step::Work(kind)],
                20..24 => vec![Step::Barrier],
                _ => token(amount, amount % 4 * 9).to_vec(),
            };
            cores.into_iter().map(|draws| draws.into_iter().flat_map(steps).collect()).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Packed keys, the cached horizon, the one-sift-down dispatch and
        /// parked token waiters schedule exactly like the sorted list of
        /// tuples with its spinning waiters — on one core, two, a full 16
        /// and past the 128 ids seven bits would hold (`CORE_ID_BITS` is
        /// 10) — at a retry interval of one cycle, a few, and the default.
        #[test]
        fn agrees_with_the_sorted_vec_reference(
            lone in scripts(1), pair in scripts(2), full in scripts(16), wide in scripts(130),
            every in prop_oneof![Just(1u64), Just(3), Just(20)],
        ) {
            for scripts in [lone, pair, full, wide] {
                agree(&scripts, every);
            }
        }
    }

    /// Work `lead` cycles, then run an irrevocable transaction.
    fn after(lead: u64, hold: u64, tail: u64) -> Vec<Step> {
        [Step::Work(lead)].into_iter().chain(token(hold, tail)).collect()
    }

    /// A release exactly on a waiter's check time: the check comes after
    /// the release when the waiter's id sorts after the owner's, and has
    /// already failed when it sorts before.
    #[test]
    fn a_release_on_a_check_time_is_seen_only_by_ids_after_the_owners() {
        // Core 0 owns from 0 and releases at (40, 0); core 1 looks at
        // (0, 1), (20, 1), (40, 1): the third look sorts after the release.
        let seen = agree(&[after(0, 40, 5), after(0, 3, 0)], 20);
        assert_eq!(seen.claims, [(0, 0), (40, 1)]);
        // Core 1 owns from 0 and releases at (41, 1); core 0 looks at
        // (1, 0), (21, 0), (41, 0) — before the release — and at (61, 0).
        let missed = agree(&[after(1, 3, 0), after(0, 41, 5)], 20);
        assert_eq!(missed.claims, [(0, 1), (61, 0)]);
        assert_eq!((seen.spun, missed.spun), (2, 3));
    }

    /// A waiter whose next check is already past the release wakes at that
    /// check (`k = 0`), not a retry interval after the release.
    #[test]
    fn a_waiter_due_after_the_release_keeps_its_next_check() {
        let got = agree(&[after(0, 10, 0), after(5, 1, 0)], 20);
        assert_eq!(got.claims, [(0, 0), (25, 1)]);
        assert_eq!(got.spun, 1);
    }

    /// The wake key comes from the sync the owner last passed, not from the
    /// clock its commit latency ran on to: 7 cycles past a release at
    /// (40, 0), the look at (40, 1) still succeeds.
    #[test]
    fn the_release_sits_at_the_owners_last_sync_not_at_its_clock() {
        let got = agree(&[after(0, 40, 7), after(0, 1, 0)], 20);
        assert_eq!(got.claims, [(0, 0), (40, 1)]);
    }

    /// At a retry interval of one cycle every time is a check time, and
    /// the id still decides a tie.
    #[test]
    fn a_one_cycle_retry_interval_wakes_on_the_release_or_the_cycle_after() {
        assert_eq!(agree(&[after(0, 7, 3), after(0, 1, 0)], 1).claims, [(0, 0), (7, 1)]);
        assert_eq!(agree(&[after(1, 1, 0), after(0, 7, 3)], 1).claims, [(0, 1), (8, 0)]);
    }

    /// Two releases before the first waiter runs: core 1, woken for its
    /// look at 25, finds the token core 2 took at 12 free again (released
    /// at 20) — or still taken (held to 30), and parks once more to 45.
    #[test]
    fn a_newcomer_between_release_and_wake_is_waited_for_or_never_noticed() {
        let free_again = agree(&[after(0, 10, 0), after(5, 1, 0), after(12, 8, 0)], 20);
        assert_eq!(free_again.claims, [(0, 0), (12, 2), (25, 1)]);
        let still_taken = agree(&[after(0, 10, 0), after(5, 1, 0), after(12, 18, 0)], 20);
        assert_eq!(still_taken.claims, [(0, 0), (12, 2), (45, 1)]);
        assert_eq!((free_again.spun, still_taken.spun), (1, 2));
    }

    /// The release refreshes the horizon: the owner runs on to its next
    /// sync and there loses the baton to the waiter it woke.
    #[test]
    fn an_owner_yields_to_the_waiter_it_woke() {
        let mut owner = after(0, 10, 0);
        owner.push(Step::Work(100));
        let got = agree(&[owner, after(5, 1, 0)], 20);
        assert_eq!(got.log[got.log.len() - 2..], [(26, 1), (110, 0)]);
    }

    /// A parked core is neither at the barrier nor finished: the barrier
    /// waits for it, and releases at its arrival after the token.
    #[test]
    fn the_barrier_waits_for_a_core_parked_on_the_token() {
        let mut waiter = after(1, 2, 0);
        waiter.push(Step::Barrier);
        let got = agree(&[after(0, 100, 0), waiter, vec![Step::Barrier]], 20);
        assert_eq!(got.claims, [(0, 0), (101, 1)]);
        assert_eq!(got.releases, [vec![], vec![103], vec![103]]);
    }

    /// A wake that never comes is a panic that names the stuck cores, not
    /// a short run.
    #[test]
    #[should_panic(expected = "token owner Some(0), parked on the token [(1, 21, 20)]")]
    fn a_lost_wake_is_loud() {
        // Core 0 claims and finishes without releasing.
        drive(&[vec![Step::Claim], vec![Step::Work(1), Step::Claim]], 20);
    }

    /// Cores with interleaved clocks must observe a strictly time-ordered
    /// execution.
    #[test]
    fn global_time_order() {
        let n = 4;
        let scripts: Vec<Vec<Step>> = (0..n)
            .map(|tid| {
                (0..20u64).map(|step| Step::Work(1 + ((tid as u64 * 7 + step * 3) % 11))).collect()
            })
            .collect();
        let Observed { log, counters, .. } = drive(&scripts, 20);
        assert_eq!(log.len(), n * 20);
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of order: {:?} then {:?}", w[0], w[1]);
        }
        assert!(counters[0] > 0, "interleaved clocks must pass the baton");
        assert!(counters[1] > 0, "equal-clock stretches must elide");
    }

    #[test]
    fn deterministic_across_runs() {
        let scripts: Vec<Vec<Step>> = (0..3)
            .map(|tid| (0..30u64).map(|step| Step::Work(1 + ((tid as u64 + step) % 5))).collect())
            .collect();
        let a = drive(&scripts, 20);
        let b = drive(&scripts, 20);
        assert_eq!(a.log, b.log, "scheduler must be deterministic");
        assert_eq!(a.counters, b.counters, "handoff counts must be deterministic");
    }

    #[test]
    fn barrier_synchronizes_to_max_time() {
        let n = 4;
        // Arrive at 100..400; everyone must release at 400.
        let scripts: Vec<Vec<Step>> =
            (0..n).map(|tid| vec![Step::Work(100 * (tid as u64 + 1)), Step::Barrier]).collect();
        let Observed { releases, counters, .. } = drive(&scripts, 20);
        for (tid, r) in releases.iter().enumerate() {
            assert_eq!(r, &vec![400], "core {tid} must release at max arrival");
        }
        assert_eq!(counters[2], n as u64);
    }

    #[test]
    fn consecutive_barriers_do_not_cross_talk() {
        // First barrier releases at 30; second arrivals are 35/40/45.
        let scripts: Vec<Vec<Step>> = (0..3)
            .map(|tid| {
                vec![
                    Step::Work(10 * (tid as u64 + 1)),
                    Step::Barrier,
                    Step::Work(5 * (tid as u64 + 1)),
                    Step::Barrier,
                ]
            })
            .collect();
        let Observed { releases, .. } = drive(&scripts, 20);
        for (tid, r) in releases.iter().enumerate() {
            assert_eq!(r, &vec![30, 45], "core {tid}");
        }
    }

    #[test]
    fn finished_threads_do_not_block_barrier() {
        // Core 2 finishes without ever reaching the barrier; the two
        // arrivers must still release.
        let scripts =
            vec![vec![Step::Work(10), Step::Barrier], vec![Step::Work(11), Step::Barrier], vec![]];
        let Observed { releases, .. } = drive(&scripts, 20);
        assert_eq!(releases[0], vec![11]);
        assert_eq!(releases[1], vec![11]);
        assert!(releases[2].is_empty());
    }

    /// A lone core (or one far behind the pack) must never touch the run
    /// queue: every sync resolves on the horizon fast path.
    #[test]
    fn single_thread_syncs_are_all_elided() {
        let sched = Scheduler::new(1);
        let first = sched.start();
        assert_eq!(first, 0);
        for t in 1..=1000u64 {
            assert!(sched.fast_path(0, t), "t={t}: lone core must stay on the fast path");
            sched.credit_elided(1);
        }
        assert_eq!(sched.finish_core(0), None);
        assert_eq!(counter(&sched, 0), 0);
        assert_eq!(counter(&sched, 1), 1000);
    }

    /// The irrevocable token admits at most one owner and is reentrant
    /// for that owner (INV-11).
    #[test]
    fn irrevocable_token_single_owner() {
        let sched = Scheduler::new(4);
        assert!(sched.try_acquire_irrevocable(2));
        assert!(sched.try_acquire_irrevocable(2), "owner re-acquires freely");
        assert!(!sched.try_acquire_irrevocable(0), "second claimant must wait");
        assert!(!sched.try_acquire_irrevocable(3), "and so must a third");
        sched.release_irrevocable(2, 0);
        assert!(sched.try_acquire_irrevocable(0), "token free after release");
        assert!(!sched.try_acquire_irrevocable(2), "and taken again");
        sched.release_irrevocable(0, 0);
    }

    /// The packed horizon must order exactly like (time, id) tuples,
    /// including the id tie-break.
    #[test]
    fn packed_horizon_orders_like_tuples() {
        let pts = [(0u64, 0usize), (0, 1), (1, 0), (1, 63), (2, 0), (50_000_000_000, 63)];
        for &a in &pts {
            for &b in &pts {
                assert_eq!(pack(a.0, a.1) <= pack(b.0, b.1), a <= b, "{a:?} vs {b:?}");
            }
        }
    }

    /// The running core is never in the queue, so the horizon a core
    /// observes is exactly the earliest *other* runnable core — and the
    /// dispatch that swaps a yielder in hands out the very head the fast
    /// path lost to, leaving the yielder as the next core's horizon.
    #[test]
    fn fast_path_agrees_with_yield_decision() {
        let sched = Scheduler::new(2);
        let first = sched.start();
        assert_eq!(first, 0, "id tie-break at t=0");
        // Core 1 is queued at t=0: core 0 at t=0 ties and keeps running
        // (id tie-break), at t=1 it must yield.
        assert!(sched.fast_path(0, 0));
        assert!(!sched.fast_path(0, 1));
        sched.yield_at(0, 1);
        assert_eq!(sched.dispatch(), 1);
        // Now core 0 is queued at t=1: core 1 runs while strictly earlier
        // but loses the id tie-break at t=1.
        assert!(sched.fast_path(1, 0));
        assert!(!sched.fast_path(1, 1), "id 1 loses the tie against queued id 0");
        assert_eq!(counter(&sched, 0), 1);
    }
}
