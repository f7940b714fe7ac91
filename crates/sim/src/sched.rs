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
//! The previous engine gave every simulated core its own OS thread and
//! passed a baton with `thread::unpark`/`thread::park`, which put one
//! mandatory OS context switch (~1–2 µs of kernel time) under every
//! *taken* handoff. Here a core that must give up the CPU leaves its wake
//! key with the scheduler ([`Scheduler::yield_at`]) and returns
//! `Poll::Pending` into the executor, whose [`Scheduler::dispatch`] swaps
//! that key for the heap's head — the successor leaves and the yielder
//! re-enters in **one** sift-down under one borrow, not a push followed
//! by a pop — and polls the successor's coroutine: a function return plus
//! one heap operation, no atomics, no parks, no locks, no allocation (the
//! heap never grows past `n - 1` keys). Panic handling needs no protocol
//! either: a panicking workload body unwinds straight through the
//! executor on the one and only thread (the old poison/park-wake dance is
//! gone), and the irrevocable single-owner token is an ordinary
//! [`Cell`].
//!
//! # The zero-handoff fast path
//!
//! The common case on a lockstep run is "I am still the global-minimum
//! core" — the sync must decide that and return, thousands of times per
//! baton pass. The scheduler caches the **horizon**: the packed
//! `(wake time, id)` of the earliest *other* runnable core, refreshed at
//! every point the run queue changes (start, yield, barrier, finish).
//! The running core is never in the queue, so a single [`Cell`] load
//! gives the *exact* answer to "am I still the minimum?" — the
//! `(t, tid) <= (tmin, idmin)` predicate against the queue head itself,
//! not a conservative approximation, so a core that fails it *must*
//! yield and the slow path has nothing left to decide.
//! The schedule (and therefore every trace hash) is bit-identical to
//! both earlier engines, asserted by the golden tuples in
//! `tests/integration_engine.rs`.
//!
//! Cross-cell parallelism is unaffected: `bench` sweeps fan whole cells
//! across host threads through `pool.rs`; within a cell there is nothing
//! left to synchronize.

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
    /// Cores waiting at the barrier (id, arrival time).
    barrier_waiters: Vec<(usize, Cycle)>,
    /// Per-core barrier release time, written by the last arriver.
    release_time: Vec<Cycle>,
    /// Cores that finished their body.
    finished: usize,
    /// Total cores.
    n: usize,
}

impl State {
    /// Release all barrier waiters at the latest arrival time.
    fn release_barrier(&mut self) {
        let tmax = self.barrier_waiters.iter().map(|(_, t)| *t).max().expect("non-empty");
        for (w, _) in std::mem::take(&mut self.barrier_waiters) {
            self.release_time[w] = tmax;
            self.queue.push(Reverse(pack(tmax, w)));
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
}

impl Scheduler {
    /// Scheduler for `n` simulated cores.
    pub fn new(n: usize) -> Self {
        Scheduler {
            state: RefCell::new(State {
                queue: BinaryHeap::with_capacity(n),
                barrier_waiters: Vec::new(),
                release_time: vec![0; n],
                finished: 0,
                n,
            }),
            horizon: Cell::new(HORIZON_OPEN),
            yielding: Cell::new(None),
            handoffs_taken: Cell::new(0),
            handoffs_elided: Cell::new(0),
            barrier_arrivals: Cell::new(0),
            irrevocable: Cell::new(None),
        }
    }

    /// Try to claim the chip-wide irrevocable token for `tid`. Succeeds
    /// when the token is free or already held by `tid`; a starving
    /// transaction spins (in simulated time) on this until the current
    /// owner commits and releases.
    pub fn try_acquire_irrevocable(&self, tid: usize) -> bool {
        match self.irrevocable.get() {
            None => {
                self.irrevocable.set(Some(tid));
                true
            }
            Some(t) => t == tid,
        }
    }

    /// Release the irrevocable token (called after the irrevocable
    /// transaction commits).
    pub fn release_irrevocable(&self, tid: usize) {
        debug_assert_eq!(self.irrevocable.get(), Some(tid), "releasing a token not held");
        if self.irrevocable.get() == Some(tid) {
            self.irrevocable.set(None);
        }
    }

    /// Current irrevocable-token owner, if any (tests/diagnostics).
    pub fn irrevocable_owner(&self) -> Option<usize> {
        self.irrevocable.get()
    }

    /// Baton passes so far (deterministic, since the schedule is).
    pub fn handoffs_taken(&self) -> u64 {
        self.handoffs_taken.get()
    }

    /// Syncs resolved without a baton pass (deterministic too).
    pub fn handoffs_elided(&self) -> u64 {
        self.handoffs_elided.get()
    }

    /// Barrier arrivals so far.
    pub fn barrier_arrivals(&self) -> u64 {
        self.barrier_arrivals.get()
    }

    /// Number of cores.
    pub fn n(&self) -> usize {
        self.state.borrow().n
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
            None => g.queue.pop().expect("suspended core left no successor").0,
        };
        self.horizon.set(g.horizon());
        id_of(next)
    }

    /// Barrier arrival: move `tid` to the waiter list, releasing everyone
    /// at the latest arrival time if it is the last. Returns `true` when
    /// `tid` itself is the next core to run (the release put it back at
    /// the queue head) — the caller keeps the baton and must *not*
    /// suspend. Otherwise the caller suspends (the executor's
    /// [`Scheduler::dispatch`] counts the handoff) and reads
    /// [`Scheduler::barrier_release_time`] on resume.
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

    /// The time the last barrier released `tid` at.
    pub fn barrier_release_time(&self, tid: usize) -> Cycle {
        self.state.borrow().release_time[tid]
    }

    /// Mark this core finished and pick who runs next, if anyone. Called
    /// by the executor when a core's coroutine returns `Ready`; `None`
    /// means the whole cell is done.
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
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a scripted core: spend cycles then sync, or arrive at
    /// the program barrier.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Work(u64),
        Barrier,
    }

    /// What a scripted run observed.
    #[derive(Debug, PartialEq, Eq)]
    struct Observed {
        /// Completed syncs as (time, id), in completion order.
        log: Vec<(u64, usize)>,
        /// Each core's barrier release times.
        releases: Vec<Vec<Cycle>>,
        /// The cores resumed, in order (the first is the starter).
        dispatched: Vec<usize>,
        /// `[handoffs_taken, handoffs_elided, barrier_arrivals]`.
        counters: [u64; 3],
    }

    /// Drive scripted cores through the raw scheduler API exactly the way
    /// the executor + `ThreadCtx` pair does: advance the clock, try the
    /// fast path, fall back to [`Scheduler::yield_at`] +
    /// [`Scheduler::dispatch`], suspend at barriers, finish via
    /// [`Scheduler::finish_core`].
    fn drive(scripts: &[Vec<Step>]) -> (Observed, Scheduler) {
        let n = scripts.len();
        let sched = Scheduler::new(n);
        let mut at: Vec<usize> = vec![0; n];
        let mut clock: Vec<u64> = vec![0; n];
        // A sync completes when the core next runs; a barrier updates the
        // clock to the release time when the core next runs.
        let mut pending_sync: Vec<Option<u64>> = vec![None; n];
        let mut pending_barrier: Vec<bool> = vec![false; n];
        let mut log = Vec::new();
        let mut releases: Vec<Vec<Cycle>> = vec![Vec::new(); n];
        let mut dispatched = Vec::new();
        let mut current = sched.start();
        'outer: loop {
            dispatched.push(current);
            if let Some(t) = pending_sync[current].take() {
                log.push((t, current));
            }
            if std::mem::take(&mut pending_barrier[current]) {
                let r = sched.barrier_release_time(current);
                clock[current] = r;
                releases[current].push(r);
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
                            let r = sched.barrier_release_time(current);
                            clock[current] = r;
                            releases[current].push(r);
                        } else {
                            pending_barrier[current] = true;
                            current = sched.dispatch();
                            continue 'outer;
                        }
                    }
                }
            }
        }
        let counters = [sched.handoffs_taken(), sched.handoffs_elided(), sched.barrier_arrivals()];
        (Observed { log, releases, dispatched, counters }, sched)
    }

    /// The schedule from its definition, with none of the scheduler's
    /// machinery: runnable cores are `(time, id)` tuples in a `Vec` kept
    /// sorted, a yield is an insert followed by a remove, nothing is
    /// packed or cached. The running core keeps the baton while it is at
    /// or before every runnable core; a barrier releases everyone at the
    /// latest arrival once every unfinished core waits at it.
    fn reference(scripts: &[Vec<Step>]) -> Observed {
        let n = scripts.len();
        let mut runnable: Vec<(u64, usize)> = (1..n).map(|id| (0, id)).collect();
        let mut waiting: Vec<(u64, usize)> = Vec::new();
        let mut finished = 0;
        let mut at = vec![0; n];
        let mut clock = vec![0u64; n];
        let mut unlogged: Vec<Option<u64>> = vec![None; n];
        let mut out = Observed {
            log: Vec::new(),
            releases: vec![Vec::new(); n],
            dispatched: vec![0],
            counters: [0; 3],
        };
        let mut current = 0;
        loop {
            let step = scripts[current].get(at[current]).copied();
            at[current] += 1;
            match step {
                Some(Step::Work(dt)) => {
                    clock[current] += dt;
                    let me = (clock[current], current);
                    if runnable.first().is_none_or(|&head| me <= head) {
                        out.counters[1] += 1;
                        out.log.push(me);
                        continue;
                    }
                    unlogged[current] = Some(me.0);
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

    /// Random scripts: a draw below 20 is that much work, the rest are
    /// barriers (one step in six); zero-cycle work keeps ties in play.
    fn scripts(n: usize) -> impl Strategy<Value = Vec<Vec<Step>>> {
        proptest::collection::vec(proptest::collection::vec(0u64..24, 0..12), n..n + 1).prop_map(
            |cores| {
                let step = |draw| if draw < 20 { Step::Work(draw) } else { Step::Barrier };
                cores.into_iter().map(|draws| draws.into_iter().map(step).collect()).collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Packed keys, the cached horizon and the one-sift-down dispatch
        /// schedule exactly like the sorted list of tuples: same dispatch
        /// order, same sync order, same release times, same counters — on
        /// one core, two, a full 16 and past the 128 ids seven bits hold.
        #[test]
        fn agrees_with_the_sorted_vec_reference(
            lone in scripts(1), pair in scripts(2), full in scripts(16), wide in scripts(130),
        ) {
            for scripts in [lone, pair, full, wide] {
                let (observed, _) = drive(&scripts);
                prop_assert_eq!(observed, reference(&scripts), "{} cores", scripts.len());
            }
        }
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
        let (Observed { log, .. }, sched) = drive(&scripts);
        assert_eq!(log.len(), n * 20);
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of order: {:?} then {:?}", w[0], w[1]);
        }
        assert!(sched.handoffs_taken() > 0, "interleaved clocks must pass the baton");
        assert!(sched.handoffs_elided() > 0, "equal-clock stretches must elide");
    }

    #[test]
    fn deterministic_across_runs() {
        let scripts: Vec<Vec<Step>> = (0..3)
            .map(|tid| (0..30u64).map(|step| Step::Work(1 + ((tid as u64 + step) % 5))).collect())
            .collect();
        let (a, _) = drive(&scripts);
        let (b, _) = drive(&scripts);
        assert_eq!(a.log, b.log, "scheduler must be deterministic");
        assert_eq!(a.counters, b.counters, "handoff counts must be deterministic");
    }

    #[test]
    fn barrier_synchronizes_to_max_time() {
        let n = 4;
        // Arrive at 100..400; everyone must release at 400.
        let scripts: Vec<Vec<Step>> =
            (0..n).map(|tid| vec![Step::Work(100 * (tid as u64 + 1)), Step::Barrier]).collect();
        let (Observed { releases, .. }, sched) = drive(&scripts);
        for (tid, r) in releases.iter().enumerate() {
            assert_eq!(r, &vec![400], "core {tid} must release at max arrival");
        }
        assert_eq!(sched.barrier_arrivals(), n as u64);
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
        let (Observed { releases, .. }, _) = drive(&scripts);
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
        let (Observed { releases, .. }, _) = drive(&scripts);
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
        assert_eq!(sched.handoffs_taken(), 0);
        assert_eq!(sched.handoffs_elided(), 1000);
    }

    /// The irrevocable token admits at most one owner and is reentrant
    /// for that owner (INV-11).
    #[test]
    fn irrevocable_token_single_owner() {
        let sched = Scheduler::new(4);
        assert_eq!(sched.irrevocable_owner(), None);
        assert!(sched.try_acquire_irrevocable(2));
        assert!(sched.try_acquire_irrevocable(2), "owner re-acquires freely");
        assert!(!sched.try_acquire_irrevocable(0), "second claimant must wait");
        assert_eq!(sched.irrevocable_owner(), Some(2));
        sched.release_irrevocable(2);
        assert_eq!(sched.irrevocable_owner(), None);
        assert!(sched.try_acquire_irrevocable(0), "token free after release");
        sched.release_irrevocable(0);
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
        assert_eq!(sched.handoffs_taken(), 1);
    }
}
