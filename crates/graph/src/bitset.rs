//! A matrix of bit rows, for the sets that are genuinely dense.
//!
//! Packed `u64` words make the union-and-compare loops branch-free. We
//! implement the bit rows ourselves rather than pulling in an external
//! crate so that the whole workspace builds from the approved offline
//! dependency list.

use std::cell::RefCell;

const BITS: usize = 64;

/// Iterator over the set bits of one [`BitMatrix`] row.
pub struct Ones<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl<'a> Ones<'a> {
    fn over(blocks: &'a [u64]) -> Self {
        Ones {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BITS + tz);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

/// `rows` bit rows of `width` bits each, packed into **one** allocation
/// (`words_per_row` 64-bit words per row, rows back to back).
///
/// For the callers whose rows are genuinely dense: the sharded store's
/// boundary summary (the boundary vertices below each component), the
/// expansion of a pattern match, and the `node_closures` test oracle.
/// Reachability closures, whose rows are mostly a handful of ids, are
/// [`IdRows`](crate::id_set::IdRows). Against one heap bit set per row it
/// is a single (lazily zeroed) allocation, rows are plain `&[u64]` slices
/// that consumers hash and compare in place, and a row union is a linear
/// pass over two ranges of the same buffer.
///
/// A dropped matrix leaves its buffer to the next one built on the same
/// thread (a few buffers of at most 8 MiB each). A sharded publication
/// builds and drops its boundary matrices every batch, and the allocator
/// would serve every request over its `mmap` threshold with a fresh `mmap`
/// and return it with a `munmap`: page faults for the writer and, worse, a
/// TLB shootdown on every core that runs a reader (`mixed_wikitalk`'s
/// reader ran 35 % slower for the length of each sweep, CHANGES.md
/// ISSUE 21). The derived `Clone` does not draw on the spare buffers, and
/// is for callers off the write path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    width: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

/// Largest buffer (in words: 8 MiB) a dropped [`BitMatrix`] hands on; a
/// larger sweep amortizes its own allocation.
const SPARE_WORDS_MAX: usize = 1 << 20;

/// How many dropped buffers a thread keeps. A sharded publication holds
/// at most two transient matrices at once — the closure over the
/// composite graph's components, and one shard's class rows at a time —
/// and its phases run one after the other on the writer's thread; four
/// leave room for a second caller on the thread without a fresh `mmap`.
const SPARES_KEPT: usize = 4;

thread_local! {
    static SPARE: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

impl Drop for BitMatrix {
    fn drop(&mut self) {
        let data = std::mem::take(&mut self.data);
        if data.capacity() <= SPARE_WORDS_MAX {
            // Absent during thread teardown: then the buffer is just freed.
            let _ = SPARE.try_with(|spare| {
                let mut spare = spare.borrow_mut();
                if spare.len() < SPARES_KEPT {
                    spare.push(data);
                }
            });
        }
    }
}

/// An empty buffer for a new matrix: a dropped one's, when the thread has
/// a spare.
fn spare_buffer() -> Vec<u64> {
    let mut data = SPARE
        .try_with(|spare| spare.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default();
    data.clear();
    data
}

impl BitMatrix {
    /// An all-zero matrix of `rows` rows of `width` bits.
    pub fn new(rows: usize, width: usize) -> Self {
        let words_per_row = width.div_ceil(BITS);
        let mut data = spare_buffer();
        data.resize(rows * words_per_row, 0);
        BitMatrix {
            rows,
            width,
            words_per_row,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The packed words of row `r` (bits at and past the row width are
    /// always zero, so equal rows are equal slices).
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Sets bit `bit` of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not below the row width or `r >= self.rows()`.
    #[inline]
    pub fn insert(&mut self, r: usize, bit: usize) {
        assert!(bit < self.width, "bit {bit} out of bounds ({})", self.width);
        self.data[r * self.words_per_row + bit / BITS] |= 1u64 << (bit % BITS);
    }

    /// Clears bit `bit` of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not below the row width or `r >= self.rows()`.
    #[inline]
    pub fn remove(&mut self, r: usize, bit: usize) {
        assert!(bit < self.width, "bit {bit} out of bounds ({})", self.width);
        self.data[r * self.words_per_row + bit / BITS] &= !(1u64 << (bit % BITS));
    }

    /// Tests bit `bit` of row `r`. Out-of-range bits are reported as absent.
    #[inline]
    pub fn contains(&self, r: usize, bit: usize) -> bool {
        bit < self.width && self.row(r)[bit / BITS] & (1u64 << (bit % BITS)) != 0
    }

    /// Rows `dst` (mutable) and `src` of one buffer; `None` when they are
    /// the same row.
    fn row_pair(&mut self, dst: usize, src: usize) -> Option<(&mut [u64], &[u64])> {
        let w = self.words_per_row;
        match dst.cmp(&src) {
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Less => {
                let (lo, hi) = self.data.split_at_mut(src * w);
                Some((&mut lo[dst * w..(dst + 1) * w], &hi[..w]))
            }
            std::cmp::Ordering::Greater => {
                let (lo, hi) = self.data.split_at_mut(dst * w);
                Some((&mut hi[..w], &lo[src * w..(src + 1) * w]))
            }
        }
    }

    /// In-place row union: `row dst ← row dst ∪ row src`.
    pub fn union_rows(&mut self, dst: usize, src: usize) {
        if let Some((into, from)) = self.row_pair(dst, src) {
            for (a, b) in into.iter_mut().zip(from) {
                *a |= *b;
            }
        }
    }

    /// Clears every bit of row `r`.
    pub fn clear_row(&mut self, r: usize) {
        self.data[r * self.words_per_row..(r + 1) * self.words_per_row].fill(0);
    }

    /// Number of set bits of row `r`.
    pub fn count_ones(&self, r: usize) -> usize {
        self.row(r).iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates over the set bits of row `r` in increasing order.
    pub fn ones(&self, r: usize) -> Ones<'_> {
        Ones::over(self.row(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference a row is checked against: a fixed-width set of bits,
    /// one `bool` each, packed the way a row is.
    fn packed(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(BITS)];
        for (bit, _) in bits.iter().enumerate().filter(|&(_, &set)| set) {
            words[bit / BITS] |= 1 << (bit % BITS);
        }
        words
    }

    /// Every operation of [`BitMatrix`] against one fixed-width set of
    /// `bool`s per row, at widths around the word boundary.
    #[test]
    fn bit_matrix_matches_a_fixed_bit_set_per_row() {
        for width in [0usize, 1, 63, 64, 65] {
            let rows = 5;
            let mut m = BitMatrix::new(rows, width);
            let mut oracle = vec![vec![false; width]; rows];
            assert_eq!(m.rows(), rows);
            // A deterministic scatter of bits, then unions in both
            // directions (and a self union, which must change nothing).
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ width as u64;
            for _ in 0..3 * width {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
                let (r, bit) = ((state >> 33) as usize % rows, (state >> 7) as usize % width);
                m.insert(r, bit);
                oracle[r][bit] = true;
            }
            for (dst, src) in [(0, 3), (4, 1), (2, 2), (1, 0)] {
                m.union_rows(dst, src);
                let from = oracle[src].clone();
                for (to, &set) in oracle[dst].iter_mut().zip(&from) {
                    *to |= set;
                }
            }
            for (r, set) in oracle.iter().enumerate() {
                let ones: Vec<usize> = (0..width).filter(|&bit| set[bit]).collect();
                assert_eq!(m.row(r), packed(set), "width {width} row {r}");
                assert_eq!(m.count_ones(r), ones.len());
                assert_eq!(m.ones(r).collect::<Vec<_>>(), ones);
                for bit in 0..width + 2 {
                    assert_eq!(m.contains(r, bit), set.get(bit) == Some(&true));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_matrix_remove_out_of_bounds_panics() {
        BitMatrix::new(2, 64).remove(1, 64);
    }

    /// A matrix built on a dropped one's buffer starts all zero, whatever
    /// its shape.
    #[test]
    fn bit_matrix_on_a_reused_buffer_is_zeroed() {
        let mut full = BitMatrix::new(6, 130);
        for r in 0..6 {
            for bit in 0..130 {
                full.insert(r, bit);
            }
        }
        drop(full);
        for (rows, width) in [(6, 130), (3, 64), (9, 200)] {
            let m = BitMatrix::new(rows, width);
            assert!((0..rows).all(|r| m.count_ones(r) == 0), "{rows}×{width}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bit_matrix_insert_out_of_bounds_panics() {
        BitMatrix::new(2, 64).insert(1, 64);
    }

    #[test]
    fn insert_contains_remove() {
        let mut m = BitMatrix::new(2, 130);
        for bit in [0, 63, 64, 129] {
            m.insert(1, bit);
        }
        for bit in [0, 63, 64, 129] {
            assert!(m.contains(1, bit) && !m.contains(0, bit));
        }
        assert!(!m.contains(1, 1));
        assert!(!m.contains(1, 500));
        assert_eq!(m.count_ones(1), 4);
        m.remove(1, 64);
        assert!(!m.contains(1, 64));
        assert_eq!(m.count_ones(1), 3);
        m.clear_row(1);
        assert_eq!(m.count_ones(1), 0);
    }

    #[test]
    fn ones_iterates_in_order() {
        let mut m = BitMatrix::new(1, 300);
        for bit in [7usize, 64, 65, 128, 255, 299] {
            m.insert(0, bit);
        }
        assert_eq!(
            m.ones(0).collect::<Vec<_>>(),
            vec![7, 64, 65, 128, 255, 299]
        );
    }

    #[test]
    fn empty_set() {
        let m = BitMatrix::new(1, 0);
        assert_eq!(m.ones(0).count(), 0);
        assert_eq!(m.count_ones(0), 0);
        assert!(!m.contains(0, 0));
        assert_eq!(BitMatrix::new(0, 100).rows(), 0);
    }
}
