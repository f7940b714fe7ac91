//! Who wins a conflict, and where the holders of a line are found.
//!
//! [`RULES`] is the whole conflict policy, one `const` table: for a
//! requester ([`Req`]) doing an [`Event`] to a line that a [`Holder`] holds
//! (read or written), the [`Rule`] that decides, which names its [`Verdict`].
//! DESIGN.md §6.1 renders it, one row per rule with the code that applies it.
//! The machine reads every conflict decision off it; a hardware holder is
//! found through [`ConflictIndex`], the rest through the software tier.
//!
//! The bit-sliced signature index (INV-15): the simulated hardware checks a
//! request against every core's read and write signature at once. The
//! index *is* those signatures, stored transposed: row `i` holds one bit
//! per core — "core `c`'s read (resp. write) signature has Bloom bit `i`
//! set" — so the cores whose signatures may cover a line are the AND of the
//! line's `k` rows, one hash pass and `2·k` loads per 64 cores, and the same
//! AND tells each candidate's read hit from its write hit. A search is a
//! hand-written word loop ([`Candidates`]), not adapters. A column is the
//! Bloom image of the union of the core's levels' exact line sets
//! (`TxState::note`), so no line a level holds is ever missed.

use crate::tx::{TxState, TxStatus};
use suv_sig::HashFamily;
use suv_types::{CoreId, Cycle, LineAddr, MachineConfig, SharerSet};

/// Who asks: a hardware transaction by mode, a software one, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Req {
    Eager,
    Irrevocable,
    Lazy,
    Sw,
    NonTx,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    Read,
    Write,
    Commit,
}

/// Who holds the line: an active hardware transaction by mode, a hardware
/// one in its Aborting/Committing window, a software transaction that read
/// it, or a software commit's lock window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Holder {
    Eager,
    Irrevocable,
    Lazy,
    Window,
    SwReader,
    SwLock,
}

/// What a conflict does: nothing, refuse the request (the requester stalls
/// and retries), mark the holder to abort, or make the requester abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Pass,
    Nack,
    Doom,
    Lose,
}

/// A cell of [`RULES`]: a stable id that fixes the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    ReadShare,        // a read meets a holder that only read the line
    LazyHidden,       // an active lazy transaction defends nothing before its commit
    LazyDefers,       // a lazy store leaves every hardware conflict to its commit
    SwDefers,         // a software store is redo-logged; its commit resolves
    SwReadHidden,     // a software read set defends nothing; a commit dooms it
    Settled,          // an eager commit's conflicts were settled as it accessed
    B9,               // an eager commit leaves lazy holders of its lines alone
    Closing,          // a software commit passes a closing window that only read
    NoEvent,          // a non-transactional access has no commit
    Cycle,            // NACK under the possible-cycle rule (timestamps decide)
    IrrevocableWaits, // NACK; the irrevocable requester never aborts
    Strong,           // NACK; a non-transactional or software requester stalls
    SwLocked,         // NACK until the software commit window closes
    Busy,             // a software commit stalls on another's lock window
    EagerDoomsLazy,   // an eager or non-transactional store dooms lazy holders
    LazyDoomsLazy,    // a lazy commit dooms lazy holders
    HwDoomsSw,        // a hardware commit dooms software readers
    SwDoomsHw,        // a software commit dooms active hardware readers
    SwDoomsSw,        // a software commit dooms software readers
    IrrevocableWins,  // an irrevocable holder beats every transaction
    LazyLoses,        // a lazy commit loses to a defending holder
    LockBeatsLazy,    // a lazy commit loses to a software lock window
    WriterBeatsSw,    // a software commit loses to a defending hardware writer
}

impl Rule {
    #[must_use]
    pub const fn verdict(self) -> Verdict {
        #[allow(clippy::enum_glob_use)] // one arm per verdict lists its rules
        use Rule::*;
        match self {
            ReadShare | LazyHidden | LazyDefers | SwDefers | SwReadHidden | Settled | B9
            | Closing | NoEvent => Verdict::Pass,
            Cycle | IrrevocableWaits | Strong | SwLocked | Busy => Verdict::Nack,
            EagerDoomsLazy | LazyDoomsLazy | HwDoomsSw | SwDoomsHw | SwDoomsSw => Verdict::Doom,
            IrrevocableWins | LazyLoses | LockBeatsLazy | WriterBeatsSw => Verdict::Lose,
        }
    }
}

/// `RULES[requester][event][holder]`: the rule for a holder that read the
/// line, then for one that wrote it. A lock window holds written lines, a
/// software reader read ones; their two cells agree.
#[rustfmt::skip]
pub(crate) const RULES: [[[[Rule; 2]; 6]; 3]; 5] = {
    #[allow(clippy::enum_glob_use)] // the cells are rule ids
    use Rule::*;
    const LAZY_READ: [Rule; 2] = [LazyHidden; 2];
    const SW_READ: [Rule; 2] = [SwReadHidden; 2];
    const LOCK: [Rule; 2] = [SwLocked; 2];
    [
        //   Eager,                         Irrevocable,                  Lazy,                Window,                        SwReader,       SwLock
        [ // Eager: read, write, commit
            [[ReadShare, Cycle],            [ReadShare, IrrevocableWins], LAZY_READ,           [ReadShare, Cycle],            SW_READ,        LOCK],
            [[Cycle; 2],                    [IrrevocableWins; 2],         [EagerDoomsLazy; 2], [Cycle; 2],                    SW_READ,        LOCK],
            [[Settled; 2],                  [Settled; 2],                 [B9; 2],             [Settled; 2],                  [HwDoomsSw; 2], [Settled; 2]],
        ],
        [ // Irrevocable: read, write, commit
            [[ReadShare, IrrevocableWaits], [ReadShare, IrrevocableWins], LAZY_READ,           [ReadShare, IrrevocableWaits], SW_READ,        LOCK],
            [[IrrevocableWaits; 2],         [IrrevocableWins; 2],         [EagerDoomsLazy; 2], [IrrevocableWaits; 2],         SW_READ,        LOCK],
            [[Settled; 2],                  [Settled; 2],                 [B9; 2],             [Settled; 2],                  [HwDoomsSw; 2], [Settled; 2]],
        ],
        [ // Lazy: read, write, commit
            [[ReadShare, Cycle],            [ReadShare, IrrevocableWins], LAZY_READ,           [ReadShare, Cycle],            SW_READ,        LOCK],
            [[LazyDefers; 2],               [LazyDefers; 2],              [LazyDefers; 2],     [LazyDefers; 2],               SW_READ,        LOCK],
            [[LazyLoses; 2],                [LazyLoses; 2],               [LazyDoomsLazy; 2],  [LazyLoses; 2],                [HwDoomsSw; 2], [LockBeatsLazy; 2]],
        ],
        [ // Sw: read, write, commit
            [[ReadShare, Strong],           [ReadShare, Strong],          LAZY_READ,           [ReadShare, Strong],           SW_READ,        LOCK],
            [[SwDefers; 2],                 [SwDefers; 2],                [SwDefers; 2],       [SwDefers; 2],                 [SwDefers; 2],  [SwDefers; 2]],
            [[SwDoomsHw, WriterBeatsSw],    [IrrevocableWins; 2],         [SwDoomsHw; 2],      [Closing, WriterBeatsSw],      [SwDoomsSw; 2], [Busy; 2]],
        ],
        [ // NonTx: read, write, commit
            [[ReadShare, Strong],           [ReadShare, Strong],          LAZY_READ,           [ReadShare, Strong],           SW_READ,        LOCK],
            [[Strong; 2],                   [Strong; 2],                  [EagerDoomsLazy; 2], [Strong; 2],                   SW_READ,        LOCK],
            [[NoEvent; 2],                  [NoEvent; 2],                 [NoEvent; 2],        [NoEvent; 2],                  [NoEvent; 2],   [NoEvent; 2]],
        ],
    ]
};

/// The rule for `req`'s `ev` against `holder`, which read or (`written`)
/// wrote the line.
#[must_use]
pub(crate) const fn rule(req: Req, ev: Event, holder: Holder, written: bool) -> Rule {
    RULES[req as usize][ev as usize][holder as usize][written as usize]
}

/// A walk's answer: the holder that refuses or beats the request, with its
/// rule, or the holders to doom once the event goes through.
pub(crate) type Found = Result<SharerSet, (CoreId, Rule)>;

impl Holder {
    /// What `t` is as a holder at `at`: `None` once idle or its window closed.
    pub fn of(t: &TxState, at: Cycle) -> Option<Holder> {
        match t.status {
            TxStatus::Active if t.irrevocable => Some(Holder::Irrevocable),
            TxStatus::Active if t.lazy => Some(Holder::Lazy),
            TxStatus::Active => Some(Holder::Eager),
            TxStatus::Aborting { until } | TxStatus::Committing { until } if at < until => {
                Some(Holder::Window)
            }
            _ => None,
        }
    }
}

/// How a (requester, event) walks the signature index, read off the
/// hardware-holder cells of its row of [`RULES`] at compile time: which
/// masks hold a non-`Pass` cell (`defenders`: eager, irrevocable and window
/// holders; `lazy`: lazy ones), whether a holder that only read counts
/// (`readers`), and whether some walked holder's two cells differ, so that
/// each candidate's signatures must tell reading from writing (`split`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Plan {
    pub defenders: bool,
    pub lazy: bool,
    pub readers: bool,
    pub split: bool,
}

impl Plan {
    #[must_use]
    pub const fn of(req: Req, ev: Event) -> Plan {
        PLANS[req as usize][ev as usize]
    }
}

const fn acts(r: Rule) -> bool {
    !matches!(r.verdict(), Verdict::Pass)
}

const fn plan(row: &[[Rule; 2]; 6]) -> Plan {
    let (mut p, mut h) = (Plan { defenders: false, lazy: false, readers: false, split: false }, 0);
    // The hardware holders are the first four.
    while h < 4 {
        let ([read, written], lazy) = (row[h], h == Holder::Lazy as usize);
        let walked = acts(read) || acts(written);
        (p.defenders, p.lazy) = (p.defenders || (walked && !lazy), p.lazy || (walked && lazy));
        p.readers |= acts(read);
        p.split |= walked && read as u8 != written as u8;
        h += 1;
    }
    p.split &= p.readers;
    assert!(!p.lazy || p.defenders, "a walk that dooms lazy holders walks the defenders too");
    p
}

const PLANS: [[Plan; 3]; 5] = {
    let none = Plan { defenders: false, lazy: false, readers: false, split: false };
    let (mut plans, mut i) = ([[none; 3]; 5], 0);
    while i < 15 {
        plans[i / 3][i % 3] = plan(&RULES[i / 3][i % 3]);
        i += 1;
    }
    plans
};

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConflictIndex {
    hashes: HashFamily,
    /// Words per row: one up to 64 cores.
    words: usize,
    /// `rows[bit * words + core / 64]`: the read-matrix word and the
    /// write-matrix word side by side, so one cache line answers both.
    rows: Vec<[u64; 2]>,
}

impl ConflictIndex {
    /// Every core's signatures empty, in `cfg`'s geometry.
    pub fn new(cfg: &MachineConfig) -> Self {
        let (bits, words) = (cfg.htm.signature_bits, SharerSet::words_for(cfg.n_cores));
        let hashes = HashFamily::new(bits, cfg.htm.signature_hashes);
        ConflictIndex { hashes, words, rows: vec![[0; 2]; bits * words] }
    }

    /// Turn `core`'s column `on` or off in the rows of the Bloom bits of each
    /// of `lines`, in the read matrix or (with `write`) the write matrix.
    #[inline]
    pub fn put<'a>(
        &mut self,
        core: CoreId,
        write: bool,
        lines: impl IntoIterator<Item = &'a LineAddr>,
        on: bool,
    ) {
        let (m, word, mask) = (usize::from(write), core / 64, 1u64 << (core % 64));
        for line in lines {
            for bit in self.hashes.indices(line >> 6) {
                let w = &mut self.rows[bit * self.words + word][m];
                *w = if on { *w | mask } else { *w & !mask };
            }
        }
    }

    /// [`Self::put`] for every nesting level of `t`.
    pub fn put_tx(&mut self, core: CoreId, t: &TxState, on: bool) {
        for (reads, writes) in t.levels() {
            self.put(core, false, reads, on);
            self.put(core, true, writes, on);
        }
    }

    /// Word `w` of a search: of the cores `64·w..64·w + 64`, those whose
    /// read signature may cover `line` (with `readers`; else none), and
    /// those whose write signature may.
    #[inline]
    fn hits(&self, line: LineAddr, readers: bool, w: usize) -> [u64; 2] {
        let [r, w] = self.hashes.indices(line >> 6).fold([u64::MAX; 2], |acc, i| {
            let row = self.rows[i * self.words + w];
            [acc[0] & row[0], acc[1] & row[1]]
        });
        // A mask, not a branch: the branch cost 3 % of `stamp_eager`.
        [r & if readers { u64::MAX } else { 0 }, w]
    }

    /// The cores whose write signature — with `readers`, read or write
    /// signature — may cover `line`, in ascending order, each with its read
    /// hit (never without `readers`) and its write hit.
    pub fn candidates(&self, line: LineAddr, readers: bool) -> Candidates<'_> {
        Candidates { index: self, within: None, line, readers, word: 0, hits: [0; 2], cores: 0 }
    }

    /// [`Self::candidates`] that are also members of `within` or of `also`:
    /// the AND runs on whole words, so a core outside both costs the caller
    /// nothing.
    pub fn candidates_in<'a>(
        &'a self,
        line: LineAddr,
        readers: bool,
        within: &'a SharerSet,
        also: Option<&'a SharerSet>,
    ) -> Candidates<'a> {
        Candidates { within: Some((within, also)), ..self.candidates(line, readers) }
    }
}

/// A search in progress: a word loop, one row word in hand at a time.
pub(crate) struct Candidates<'a> {
    index: &'a ConflictIndex,
    within: Option<(&'a SharerSet, Option<&'a SharerSet>)>,
    line: LineAddr,
    readers: bool,
    /// Row words fetched so far; `hits` are word `word - 1`'s read and write
    /// hits, `cores` what is left of their union.
    word: usize,
    hits: [u64; 2],
    cores: u64,
}

impl Iterator for Candidates<'_> {
    /// A candidate core, its read hit and its write hit.
    type Item = (CoreId, bool, bool);

    // `always`: left the choice, fat LTO keeps the search's one hot call out
    // of line (1.6 % of `stamp_eager`).
    #[allow(clippy::inline_always)]
    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        while self.cores == 0 {
            if self.word == self.index.words {
                return None;
            }
            let w = self.word;
            let within =
                self.within.map_or(u64::MAX, |(s, t)| s.word(w) | t.map_or(0, |t| t.word(w)));
            self.hits = self.index.hits(self.line, self.readers, w);
            self.cores = (self.hits[0] | self.hits[1]) & within;
            self.word += 1;
        }
        let bit = self.cores.trailing_zeros() as usize;
        self.cores &= self.cores - 1;
        let [r, w] = self.hits.map(|h| h >> bit & 1 != 0);
        Some(((self.word - 1) * 64 + bit, r, w))
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    const LINES: u64 = 40;

    /// `n` cores with 64-bit, 2-hash signatures: aliasing is the rule.
    fn cfg(n: usize) -> MachineConfig {
        let mut c = MachineConfig::small_test();
        (c.n_cores, c.htm.signature_bits, c.htm.signature_hashes) = (n, 64, 2);
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After any history of the five ways the machine changes a core's
        /// sets — note a line, nest, merge a level, drop a level, clear —
        /// each mirrored into the index the way the machine mirrors it, the
        /// candidates of every line are strictly ascending, include every
        /// core one of whose levels holds the line (read only with
        /// `readers`), and report its read and write hits; and each column
        /// is exactly the Bloom image of its core's levels. One word per
        /// row, two and three; 64-bit signatures alias freely.
        #[test]
        fn candidates_never_miss_a_signature_hit(
            shape in 0usize..3,
            ops in proptest::collection::vec((0u8..10, any::<u16>(), 0u64..LINES), 1..400),
        ) {
            let n = [16usize, 70, 130][shape];
            let mut txs = vec![TxState::default(); n];
            let mut index = ConflictIndex::new(&cfg(n));
            for (kind, raw, l) in ops {
                // Half the traffic lands on the last few cores, so the top
                // word of a multi-word row sees as much as the first.
                let raw = raw as usize;
                let c = if raw & 1 == 0 { raw / 2 % n } else { n - 1 - raw / 2 % 3 };
                let (t, line) = (&mut txs[c], l * 64);
                match kind {
                    0..=5 if t.note(kind > 2, line) => index.put(c, kind > 2, [&line], true),
                    6 if t.frames.len() < 3 => t.push_frame(),
                    7 if !t.frames.is_empty() => t.merge_top_frame(),
                    8 if !t.frames.is_empty() => {
                        let f = t.drop_top_frame();
                        index.put(c, false, &f.read_set, false);
                        index.put(c, true, &f.write_set, false);
                        index.put_tx(c, t, true);
                    }
                    9 => {
                        index.put_tx(c, t, false);
                        t.clear_attempt();
                    }
                    _ => {}
                }
            }
            for line in (0..LINES).map(|l| l * 64) {
                for readers in [false, true] {
                    let found: Vec<(CoreId, bool, bool)> = index.candidates(line, readers).collect();
                    let ascending = found.windows(2).all(|w| w[0].0 < w[1].0);
                    prop_assert!(ascending, "not ascending: {:?}", found);
                    prop_assert!(readers || found.iter().all(|f| !f.1), "a read hit without readers");
                    for (c, t) in txs.iter().enumerate() {
                        let (r, w) = (readers && t.reads_contain(line), t.writes_contain(line));
                        let hit = found.iter().find(|f| f.0 == c);
                        prop_assert!(!(r || w) || hit.is_some(), "core {} missed {:#x}", c, line);
                        if let Some(&(_, hit_r, hit_w)) = hit {
                            prop_assert!((!r || hit_r) && (!w || hit_w), "core {} lost a hit on {:#x}", c, line);
                        }
                    }
                }
            }
            let mut rebuilt = ConflictIndex::new(&cfg(n));
            for (c, t) in txs.iter().enumerate() {
                rebuilt.put_tx(c, t, true);
            }
            prop_assert!(index == rebuilt, "a column is not the Bloom image of its core's levels");
        }

        /// A masked search lists exactly the candidates of the plain search
        /// that are members of the mask, in the same order — one, two and
        /// three words per row, masks from empty to full, given whole or as
        /// two halves.
        #[test]
        fn a_masked_search_is_the_filtered_search(
            shape in 0usize..3,
            puts in proptest::collection::vec((any::<u16>(), any::<bool>(), 0u64..LINES), 0..300),
            members in proptest::collection::vec(any::<u16>(), 0..200),
        ) {
            let n = [16usize, 70, 130][shape];
            let mut index = ConflictIndex::new(&cfg(n));
            for (c, write, l) in puts {
                index.put(c as usize % n, write, [&(l * 64)], true);
            }
            let within: SharerSet = members.iter().map(|&c| c as usize % n).collect();
            for line in (0..LINES).map(|l| l * 64) {
                for readers in [false, true] {
                    let masked: Vec<_> =
                        index.candidates_in(line, readers, &within, None).collect();
                    let filtered: Vec<_> =
                        index.candidates(line, readers).filter(|c| within.contains(c.0)).collect();
                    prop_assert_eq!(masked, filtered);
                    let (evens, odds): (SharerSet, SharerSet) =
                        (within.iter().filter(|c| c % 2 == 0).collect(), within.iter().filter(|c| c % 2 == 1).collect());
                    let union: Vec<_> =
                        index.candidates_in(line, readers, &evens, Some(&odds)).collect();
                    prop_assert_eq!(union, filtered);
                }
            }
        }
    }
}
