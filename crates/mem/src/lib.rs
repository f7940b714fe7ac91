//! Simulated physical memory.
//!
//! The functional half of the simulator: a sparse store of 64-bit words,
//! plus the address-space layout and the allocators used by workloads, by
//! the per-thread undo logs, and by SUV's reserved redirect pool.
//!
//! Timing is *not* modeled here — the coherence crate charges cycles; this
//! crate only guarantees that every scheme's data manipulation is real, so
//! tests can assert value correctness across commits and aborts.

pub mod alloc;
pub mod layout;

pub use alloc::{AllocError, BumpAllocator, PoolAllocator};
pub use layout::{Region, GLOBAL_BASE, HEAP_BASE, LOG_BASE, LOG_STRIDE, POOL_BASE};

use suv_types::{
    line_index, word_index_in_line, Addr, PageAddr, LINE_BYTES, PAGE_BYTES, WORDS_PER_LINE,
};

/// Contents of one cache line.
pub type LineData = [u64; WORDS_PER_LINE];

/// Lines per backing page (64 with the 4 KiB page / 64 B line defaults).
const LINES_PER_PAGE: usize = (PAGE_BYTES / LINE_BYTES) as usize;

/// Pages one leaf of the page table maps (2 MiB of address space).
const LEAF_PAGES: usize = 512;

/// Simulated physical addresses lie below this (1 TiB), which bounds the
/// page table's root at 2^19 slots however sparse the touched pages are.
/// Every region of [`layout`] a workload or scheme allocates from starts
/// below 4 GiB.
const ADDR_LIMIT: Addr = 1 << 40;

/// One 4 KiB backing page: a flat line array plus a bitmask of the lines
/// ever written (so the footprint statistic survives the flattening).
#[derive(Debug, Clone)]
struct Page {
    lines: [LineData; LINES_PER_PAGE],
    written: u64,
}

/// One leaf of the page table: the pages of a 2 MiB span, each allocated
/// when first written.
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// Sparse simulated physical memory. Untouched memory reads as zero.
///
/// Storage is paged, and a page is found the way hardware finds one: a
/// two-level radix walk, no hashing. `root[page / 512]` is a leaf,
/// `leaf[page % 512]` a page, each `None` until something beneath it is
/// written; the root grows on demand to the highest leaf touched. A read is
/// two dependent table loads and an array index — the page-number hash in
/// front of every word of the map this replaced was 9 % of a 128-core cell.
/// Functional behaviour is identical (this crate carries no timing), so
/// simulated cycle counts are bit-for-bit unchanged by the representation.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    root: Vec<Option<Box<Leaf>>>,
    /// Running count of distinct lines ever written.
    touched: usize,
}

/// Split an address into (page number, line slot within the page).
#[inline]
const fn page_slot(addr: Addr) -> (PageAddr, usize) {
    (addr >> PAGE_BYTES.trailing_zeros(), (line_index(addr) as usize) & (LINES_PER_PAGE - 1))
}

impl Memory {
    /// Empty memory (all zeros).
    pub fn new() -> Self {
        Memory::default()
    }

    /// The backing page of `page`, if any line of it was ever written.
    #[inline]
    fn page(&self, page: PageAddr) -> Option<&Page> {
        let leaf = self.root.get(page as usize / LEAF_PAGES)?.as_deref()?;
        leaf[page as usize % LEAF_PAGES].as_deref()
    }

    /// Back `page` with a zeroed page of its own. Out of line: a page is
    /// built on the stack, and that frame must not sit under every write.
    #[cold]
    #[inline(never)]
    fn map_page(&mut self, addr: Addr) {
        assert!(addr < ADDR_LIMIT, "address {addr:#x} is beyond simulated physical memory");
        let page = page_slot(addr).0;
        let r = page as usize / LEAF_PAGES;
        if self.root.len() <= r {
            self.root.resize_with(r + 1, || None);
        }
        let leaf = self.root[r].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        leaf[page as usize % LEAF_PAGES] =
            Some(Box::new(Page { lines: [[0; WORDS_PER_LINE]; LINES_PER_PAGE], written: 0 }));
    }

    fn line_for_write(&mut self, addr: Addr) -> &mut LineData {
        let (page, slot) = page_slot(addr);
        if self.page(page).is_none() {
            self.map_page(addr);
        }
        let leaf = self.root[page as usize / LEAF_PAGES].as_deref_mut().expect("just mapped");
        let p = leaf[page as usize % LEAF_PAGES].as_deref_mut().expect("just mapped");
        let bit = 1u64 << slot;
        if p.written & bit == 0 {
            p.written |= bit;
            self.touched += 1;
        }
        &mut p.lines[slot]
    }

    /// Read the 64-bit word containing `addr` (which is word-aligned by
    /// masking).
    pub fn read_word(&self, addr: Addr) -> u64 {
        let (page, slot) = page_slot(addr);
        self.page(page).map_or(0, |p| p.lines[slot][word_index_in_line(addr)])
    }

    /// Write the 64-bit word containing `addr`.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        self.line_for_write(addr)[word_index_in_line(addr)] = value;
    }

    /// Read a whole line (zeros if untouched).
    pub fn read_line(&self, addr: Addr) -> LineData {
        let (page, slot) = page_slot(addr);
        self.page(page).map_or([0; WORDS_PER_LINE], |p| p.lines[slot])
    }

    /// Overwrite a whole line.
    pub fn write_line(&mut self, addr: Addr, data: LineData) {
        *self.line_for_write(addr) = data;
    }

    /// Number of lines ever written (footprint proxy).
    pub fn touched_lines(&self) -> usize {
        self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_word(0x1234_5678), 0);
        assert_eq!(m.read_line(0x40), [0; WORDS_PER_LINE]);
    }

    #[test]
    fn word_roundtrip() {
        let mut m = Memory::new();
        m.write_word(0x100, 42);
        m.write_word(0x108, 43);
        assert_eq!(m.read_word(0x100), 42);
        assert_eq!(m.read_word(0x108), 43);
        // Unaligned address maps to its containing word.
        assert_eq!(m.read_word(0x103), 42);
    }

    #[test]
    fn words_in_same_line_are_independent() {
        let mut m = Memory::new();
        for i in 0..WORDS_PER_LINE as u64 {
            m.write_word(0x200 + i * 8, i + 1);
        }
        let line = m.read_line(0x200);
        assert_eq!(line, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = Memory::new();
        let data = [9, 8, 7, 6, 5, 4, 3, 2];
        m.write_line(0x300, data);
        assert_eq!(m.read_line(0x300), data);
        assert_eq!(m.read_word(0x318), 6);
        assert_eq!(m.touched_lines(), 1);
    }

    #[test]
    fn touched_lines_counts_distinct_lines_across_pages() {
        let mut m = Memory::new();
        // Two writes to the same line count once; lines on distinct pages
        // each count.
        m.write_word(0x100, 1);
        m.write_word(0x108, 2);
        assert_eq!(m.touched_lines(), 1);
        m.write_word(0x100 + PAGE_BYTES, 3);
        m.write_line(0x100 + 7 * PAGE_BYTES, [4; WORDS_PER_LINE]);
        assert_eq!(m.touched_lines(), 3);
        m.write_line(0x100 + 7 * PAGE_BYTES, [5; WORDS_PER_LINE]);
        assert_eq!(m.touched_lines(), 3);
    }

    #[test]
    fn sparse_pages_across_table_leaves() {
        let mut m = Memory::new();
        // One page in each of three regions of the layout, far apart: the
        // table grows to the highest and the spans between stay unmapped.
        let spots = [GLOBAL_BASE, HEAP_BASE + 0x123 * PAGE_BYTES, POOL_BASE + (1 << 34)];
        for (i, a) in spots.iter().enumerate() {
            m.write_word(*a, i as u64 + 1);
        }
        for (i, a) in spots.iter().enumerate() {
            assert_eq!(m.read_word(*a), i as u64 + 1);
            assert_eq!(m.read_word(a + PAGE_BYTES), 0, "the next page was never written");
        }
        assert_eq!(m.read_word(LOG_BASE), 0, "a leaf nobody wrote");
        assert_eq!(m.read_line(ADDR_LIMIT + 0x40), [0; WORDS_PER_LINE], "beyond the table");
        assert_eq!(m.read_word(u64::MAX), 0);
        assert_eq!(m.touched_lines(), 3);
        let copy = m.clone();
        m.write_word(spots[1], 9);
        assert_eq!((copy.read_word(spots[1]), m.read_word(spots[1])), (2, 9));
    }

    #[test]
    #[should_panic(expected = "beyond simulated physical memory")]
    fn a_write_beyond_the_address_limit_is_refused() {
        Memory::new().write_word(ADDR_LIMIT, 1);
    }

    #[test]
    fn line_write_does_not_leak_into_neighbors() {
        let mut m = Memory::new();
        m.write_word(0x3c0, 111); // line before
        m.write_line(0x400, [1; WORDS_PER_LINE]);
        m.write_word(0x440, 222); // line after
        assert_eq!(m.read_word(0x3c0), 111);
        assert_eq!(m.read_word(0x440), 222);
        assert_eq!(m.read_word(0x438), 1);
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "std containers as reference models")]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Last write to a word wins, regardless of the write order of
        /// other words.
        #[test]
        fn last_write_wins(ops in proptest::collection::vec((0u64..0x1_0000, any::<u64>()), 1..200)) {
            let mut m = Memory::new();
            let mut model = std::collections::HashMap::new();
            for (a, v) in &ops {
                let w = a & !7;
                m.write_word(w, *v);
                model.insert(w, *v);
            }
            for (w, v) in model {
                prop_assert_eq!(m.read_word(w), v);
            }
        }

        /// Line reads agree with word reads.
        #[test]
        fn line_and_word_views_agree(base in (0u64..0x1000).prop_map(|x| x * 64),
                                     vals in proptest::array::uniform8(any::<u64>())) {
            let mut m = Memory::new();
            for (i, v) in vals.iter().enumerate() {
                m.write_word(base + i as u64 * 8, *v);
            }
            prop_assert_eq!(m.read_line(base), vals);
        }
    }
}
