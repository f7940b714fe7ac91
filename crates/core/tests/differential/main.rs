//! Fixed-seed differential pins of the machine, all six schemes in one target.
//!
//! Drives [`HtmMachine`] directly — no engine, no workload — through the
//! script level (`suv_htm::script`, DESIGN.md §14): a driver draws one
//! [`Op`] per step from a seeded generator, [`Run::step`] issues it and
//! whatever abort the machine's answer leaves owing, and the harness folds
//! every [`Outcome`] into an FNV-1a digest that is pinned per configuration.
//! All runs are under `CheckLevel::Full`.
//!
//! What is shared lives here: the generator's `Rng`, the `Digest`, the time
//! and readiness loop, outcome folding, the clone-and-fork check and the
//! table printer. What is a driver's own is its [`Mix`]:
//!
//! * [`machine`] — the conflict searches under LogTM-SE / Lazy / DynTM /
//!   FasTM: nesting with partial abort, the software tier, irrevocable
//!   owners, 3 / 16 / 70 cores; and FasTM's degenerate path, with every
//!   line in one L1 set;
//! * [`suv`] — SUV's redirect bookkeeping (SUV-TM and DynTM+SUV) on a tiny
//!   table with a one-page pool, trace stream included;
//! * [`scripts`] — hand-written scripts: the B9 interleaving and the table
//!   that shows `step` answers every bad op with `Illegal`.
//!
//! Beside the pins, [`hybrid`] walks every schedule of one hardware (or
//! non-transactional) transaction against one software or one hardware
//! transaction under all six schemes, DynTM's two trained lazy on one core:
//! each must end where one of the two serial orders does, and no branch may
//! livelock. It is the check of the conflict rule table (DESIGN.md §6.1),
//! run on the machine itself.
//!
//! A change that moves a digest changed who conflicts with whom, or what the
//! redirect table answered, evicted or recycled. Re-pin only when the change
//! says why; the failure message prints the whole table.
//!
//! The same drivers pin `HtmMachine: Clone`: a machine cloned mid-sequence
//! and its original, fed the same remaining operations, must answer alike
//! and agree with a run that never forked.

#![allow(clippy::unreadable_literal)] // the pinned digests are pasted as printed

mod hybrid;
mod machine;
mod scripts;
mod suv;

use std::fmt::Write as _;
use suv_htm::script::{Answer, Op, Outcome, Run};
use suv_htm::{HtmMachine, VersionManager};
use suv_types::{CoreId, Cycle};

/// Where the lines the generated accesses touch start.
const BASE: u64 = 0x10_0000;

#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.next() >> 33) % n
    }
}

#[derive(Clone)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, ws: &[u64]) {
        for b in ws.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// What is one driver's own: its op distribution and what it counts.
trait Mix: Clone {
    /// Steps are `1 + below(GAP)` cycles apart.
    const GAP: u64;

    /// Draw `core`'s next op, legal in its phase. `None` when the draw
    /// cannot be issued (the irrevocable token is taken): the core sits
    /// the step out.
    fn draw<V: VersionManager>(&mut self, rng: &mut Rng, run: &Run<V>, core: CoreId) -> Option<Op>;

    /// After each step: count what it reached, and fold what this driver
    /// pins beyond the outcome itself.
    fn saw<V: VersionManager>(
        &mut self,
        run: &Run<V>,
        now: Cycle,
        core: CoreId,
        op: Op,
        out: &Outcome,
        d: &mut Digest,
    );

    /// Fold the final statistics into the outcome digest; returns the trace
    /// digest (0 for a driver or a run without one).
    fn finish<V: VersionManager>(&mut self, m: &mut HtmMachine<V>, d: &mut Digest) -> u64;
}

#[derive(Clone)]
struct Driver<V, M> {
    run: Run<V>,
    rng: Rng,
    d: Digest,
    mix: M,
    now: Cycle,
}

impl<V: VersionManager, M: Mix> Driver<V, M> {
    /// Issue the next `n` generated steps. The machine must see calls in
    /// global time order; a core whose last call has not finished yet sits
    /// the step out.
    fn steps(&mut self, n: usize) {
        let cores = self.run.m.config().n_cores as u64;
        for _ in 0..n {
            self.now += 1 + self.rng.below(M::GAP);
            let (now, c) = (self.now, self.rng.below(cores) as usize);
            if self.run.ready(c) > now {
                continue;
            }
            self.d.words(&[now, c as u64]);
            let Some(op) = self.mix.draw(&mut self.rng, &self.run, c) else { continue };
            let out = self.run.step(now, c, op).expect("the generator draws legal ops only");
            // The pinned tables predate `Answer::Begun`'s encoding: a begin
            // folds nothing (its latency shows in who is ready when).
            if !matches!(out.answer, Answer::Begun(_)) {
                self.d.words(&out.words());
            }
            self.mix.saw(&self.run, now, c, op, &out, &mut self.d);
        }
    }

    /// `(outcome digest, trace digest, the mix with its counters)`.
    fn finish(mut self) -> (u64, u64, M) {
        let trace = self.mix.finish(&mut self.run.m, &mut self.d);
        (self.d.0, trace, self.mix)
    }
}

/// One configuration: `steps` generated steps on `m`, whose `lines` lines
/// from [`BASE`], `stride` bytes apart, are seeded with distinct words.
/// With `fork_at`, the run is cloned after that many steps and the clone
/// fed the same remaining steps: it must end where the original does,
/// trace included.
fn drive<V: VersionManager, M: Mix>(
    mut m: HtmMachine<V>,
    (lines, stride): (u64, u64),
    rng_seed: u64,
    mix: M,
    steps: usize,
    fork_at: Option<usize>,
) -> (u64, u64, M) {
    for l in 0..lines {
        for w in 0..4 {
            m.poke(BASE + l * stride + w * 8, l * 4 + w);
        }
    }
    let mut d = Driver { run: Run::new(m), rng: Rng(rng_seed), d: Digest::new(), mix, now: 0 };
    let Some(at) = fork_at else {
        d.steps(steps);
        return d.finish();
    };
    d.steps(at);
    let mut fork = d.clone();
    d.steps(steps - at);
    fork.steps(steps - at);
    assert_eq!(d.run.m.tx_stats(), fork.run.m.tx_stats());
    assert_eq!(d.run.m.vm().redirect_stats(), fork.run.m.vm().redirect_stats());
    for vm in [d.run.m.vm(), fork.run.m.vm()] {
        assert_eq!(vm.check_invariants(), Ok(()));
    }
    let (outcomes, trace, _) = fork.finish();
    let whole = d.finish();
    assert_eq!((outcomes, trace), (whole.0, whole.1), "the clone ended elsewhere");
    whole
}

/// Append one `PINS` row as its source reads, for the failure message.
fn pin_row(table: &mut String, config: &str, digests: &[u64]) {
    let digests: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    writeln!(table, "    ({config}, {}),", digests.join(", ")).expect("writing to a String");
}
