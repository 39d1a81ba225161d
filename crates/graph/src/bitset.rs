//! A matrix of bit rows.
//!
//! The reachability equivalence relation of Section 3 is computed by
//! comparing ancestor and descendant *sets*; representing those sets as
//! packed `u64` words makes the union-and-compare loops branch-free and is
//! what keeps `compressR` practical on graphs with tens of thousands of
//! SCCs. We implement the bit rows ourselves rather than pulling in an
//! external crate so that the whole workspace builds from the approved
//! offline dependency list.

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
        Self::starting_at(blocks, 0)
    }

    /// The set bits at or after position `start`.
    fn starting_at(blocks: &'a [u64], start: usize) -> Self {
        let block_idx = start / BITS;
        let low = !0u64 << (start % BITS);
        Ones {
            blocks,
            block_idx,
            current: blocks.get(block_idx).map_or(0, |b| b & low),
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
/// This is what a chunked closure sweep
/// ([`DagReach::descendants_chunk`](crate::reach_sets::DagReach::descendants_chunk))
/// returns: one row per DAG node, one bit per column of the chunk. Against
/// one heap bit set per node it is a single (lazily zeroed)
/// allocation per sweep, rows are plain `&[u64]` slices that consumers
/// hash and compare in place, and a row union is a linear pass over two
/// ranges of the same buffer.
///
/// The rows are also scratch a consumer may spend: the closure-driven 2-hop
/// labelling strikes covered pairs out of a descendant and an ancestor
/// matrix in place ([`BitMatrix::remove`], [`BitMatrix::difference_rows`],
/// [`BitMatrix::clear_row`]) instead of copying half a megabyte first.
///
/// A dropped matrix leaves its buffer to the next one built on the same
/// thread (a few buffers of at most 8 MiB each). A
/// maintenance step builds and drops two or three matrices of a megabyte
/// each, and the allocator serves every such request with a fresh `mmap`
/// and returns it with a `munmap`: page faults for the writer and, worse,
/// a TLB shootdown on every core that runs a reader (`mixed_wikitalk`'s
/// reader ran 35 % slower for the length of each sweep, CHANGES.md
/// ISSUE 21). [`BitMatrix::copy_of`] draws on the same buffers; the derived
/// `Clone` does not, and is for callers off the write path.
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

/// How many dropped buffers a thread keeps. Every phase of a write holds
/// at most two transient matrices at once, and the phases run one after
/// the other on a thread: a maintenance step's two signature matrices (the
/// kernel's, or the regroup's small ones, which the closure patch reads
/// before it drops them — the maintainer's two resident matrices are
/// patched in place and grown with headroom, [`BitMatrix::grow`]), then a
/// publication's two scratch copies ([`BitMatrix::copy_of`]) of the
/// resident pair (at most 2 MiB each: inside [`SPARE_WORDS_MAX`]). A
/// sharded store runs every shard's phases one after the other on the same
/// writer's thread, then its boundary summary's two — the closure over the
/// composite graph's components, and one shard's class rows at a time. Two
/// spares would carry that; four leave room for a second maintainer on the
/// thread (the pattern side's kernel, a benchmark's shadow) without a
/// fresh `mmap`.
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

    /// A copy of `other` on a spare buffer — for a consumer that spends
    /// its rows as scratch while the original stays resident.
    pub fn copy_of(other: &BitMatrix) -> Self {
        let mut data = spare_buffer();
        data.extend_from_slice(&other.data);
        BitMatrix {
            rows: other.rows,
            width: other.width,
            words_per_row: other.words_per_row,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bits per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
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

    /// In-place union with a row of another matrix: the words of `src` —
    /// no more of them than a row here has — are or-ed into the low bits
    /// of row `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than a row.
    pub fn union_row_with(&mut self, dst: usize, src: &[u64]) {
        let row = &mut self.data[dst * self.words_per_row..(dst + 1) * self.words_per_row];
        for (a, b) in row[..src.len()].iter_mut().zip(src) {
            *a |= *b;
        }
    }

    /// In-place difference with a row of another matrix: the bits of `src`
    /// — no more words of it than a row here has — are cleared from the
    /// low bits of row `dst`. Returns how many of them were set.
    ///
    /// # Panics
    ///
    /// Panics if `src` is longer than a row.
    pub fn difference_row_with(&mut self, dst: usize, src: &[u64]) -> usize {
        let row = &mut self.data[dst * self.words_per_row..(dst + 1) * self.words_per_row];
        let mut cleared = 0;
        for (a, b) in row[..src.len()].iter_mut().zip(src) {
            cleared += (*a & *b).count_ones() as usize;
            *a &= !*b;
        }
        cleared
    }

    /// Grows the matrix to `rows` rows of `width` bits, neither fewer than
    /// it has: every row keeps its bits, and the new ones are clear. Rows
    /// are re-laid in place only when the width crosses a word. The buffer
    /// is reallocated only when it runs out, and then with room for 64
    /// more rows one word wider, so a matrix that gains a few rows at a
    /// time reallocates about once per word of growth.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `width` is smaller than the matrix's.
    pub fn grow(&mut self, rows: usize, width: usize) {
        assert!(
            rows >= self.rows && width >= self.width,
            "{}×{} cannot grow to {rows}×{width}",
            self.rows,
            self.width
        );
        let (old, words) = (self.words_per_row, width.div_ceil(BITS));
        if rows * words > self.data.capacity() {
            let room = (rows + BITS) * (words + 1);
            self.data.reserve_exact(room - self.data.len());
        }
        self.data.resize(rows * words, 0);
        if words != old {
            // The last row first: a row only moves up, past the rows not
            // yet moved.
            for r in (0..self.rows).rev() {
                self.data.copy_within(r * old..(r + 1) * old, r * words);
                self.data[r * words + old..(r + 1) * words].fill(0);
            }
        }
        self.rows = rows;
        self.width = width;
        self.words_per_row = words;
    }

    /// In-place row difference: `row dst ← row dst ∖ row src` (a row minus
    /// itself is empty).
    pub fn difference_rows(&mut self, dst: usize, src: usize) {
        match self.row_pair(dst, src) {
            Some((into, from)) => {
                for (a, b) in into.iter_mut().zip(from) {
                    *a &= !*b;
                }
            }
            None => self.clear_row(dst),
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

    /// Iterates over the set bits of row `r` at or after `start`, in
    /// increasing order.
    pub fn ones_from(&self, r: usize, start: usize) -> Ones<'_> {
        Ones::starting_at(self.row(r), start)
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

    /// The mutators a closure-driven labelling strikes pairs with — bit
    /// clear, row difference, row clear — against the same oracle.
    #[test]
    fn bit_matrix_strikes_match_a_fixed_bit_set_per_row() {
        for width in [0usize, 1, 63, 64, 65] {
            let rows = 5;
            let mut m = BitMatrix::new(rows, width);
            let mut oracle = vec![vec![false; width]; rows];
            assert_eq!(m.width(), width);
            let mut state = 0xd1b5_4a32_d192_ed03u64 ^ width as u64;
            let mut draw = move || {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
                ((state >> 33) as usize % rows, (state >> 7) as usize)
            };
            // Dense rows (three quarters full), then holes punched bit by
            // bit — some of them into bits that are already clear.
            for (r, set) in oracle.iter_mut().enumerate() {
                for bit in (0..width).filter(|bit| (bit + r) % 4 != 0) {
                    m.insert(r, bit);
                    set[bit] = true;
                }
            }
            for _ in 0..width {
                let (r, bit) = draw();
                m.remove(r, bit % width);
                oracle[r][bit % width] = false;
            }
            // Differences in both directions, a self difference (empties
            // the row) and a cleared row.
            for (dst, src) in [(0, 3), (4, 1), (2, 2)] {
                m.difference_rows(dst, src);
                let minus = oracle[src].clone();
                for (bit, _) in minus.iter().enumerate().filter(|&(_, &set)| set) {
                    oracle[dst][bit] = false;
                }
            }
            m.clear_row(1);
            oracle[1].fill(false);
            for (r, set) in oracle.iter().enumerate() {
                assert_eq!(m.row(r), packed(set), "width {width} row {r}");
            }
            assert_eq!(m.count_ones(2) + m.count_ones(1), 0);
        }
    }

    /// What a regroup against a held closure uses: a row of a narrower
    /// matrix or-ed into the low bits of a row, a suffix of a row's set
    /// bits, and a scratch copy that leaves the original as it was.
    #[test]
    fn bit_matrix_unions_foreign_rows_scans_suffixes_and_copies() {
        for (narrow, wide) in [(1usize, 1usize), (63, 64), (64, 65), (70, 200)] {
            let mut small = BitMatrix::new(2, narrow);
            for bit in (0..narrow).step_by(3) {
                small.insert(1, bit);
            }
            let mut m = BitMatrix::new(3, wide);
            m.insert(2, wide - 1);
            m.union_row_with(2, small.row(1));
            let expect: Vec<usize> = (0..narrow)
                .step_by(3)
                .chain([wide - 1])
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            assert_eq!(
                m.ones(2).collect::<Vec<_>>(),
                expect,
                "{narrow} into {wide}"
            );
            assert_eq!(m.count_ones(0) + m.count_ones(1), 0);
            for start in [0, 1, narrow / 2, narrow, wide - 1, wide, wide + 70] {
                let suffix: Vec<usize> = expect.iter().copied().filter(|&b| b >= start).collect();
                assert_eq!(
                    m.ones_from(2, start).collect::<Vec<_>>(),
                    suffix,
                    "from {start}"
                );
            }
            let mut copy = BitMatrix::copy_of(&m);
            assert_eq!(copy, m);
            copy.clear_row(2);
            assert_eq!(m.ones(2).collect::<Vec<_>>(), expect);
        }
    }

    /// What a patched closure does to its matrices: grow by rows and by
    /// columns — within a word and across one — keeping every bit, and
    /// clear a foreign row's bits, counting them.
    #[test]
    fn bit_matrix_grows_in_place_and_clears_foreign_rows() {
        for (from, to) in [(0usize, 3usize), (5, 6), (63, 65), (64, 64), (70, 200)] {
            let mut m = BitMatrix::new(from, from);
            let mut oracle = vec![vec![false; to]; to];
            for (r, set) in oracle.iter_mut().enumerate().take(from) {
                for bit in (r % 3..from).step_by(3) {
                    m.insert(r, bit);
                    set[bit] = true;
                }
            }
            m.grow(to, to);
            assert_eq!((m.rows(), m.width()), (to, to));
            let grown = m.clone();
            m.grow(to, to);
            assert_eq!(m, grown, "a grow to the same shape changes nothing");
            for (r, set) in oracle.iter().enumerate() {
                assert_eq!(m.row(r), packed(set), "{from} → {to}: row {r}");
            }
            // Equal to a matrix built at the new shape.
            let mut fresh = BitMatrix::new(to, to);
            for (r, set) in oracle.iter().enumerate() {
                for bit in (0..to).filter(|&bit| set[bit]) {
                    fresh.insert(r, bit);
                }
            }
            assert_eq!(m, fresh, "{from} → {to}");
            // Row 0 holds bits 0, 3, 6, …; clear the even columns from it
            // with a mask one word narrower than the row where the width
            // crossed a word.
            let mask = packed(&(0..from).map(|bit| bit % 2 == 0).collect::<Vec<_>>());
            let both = (0..from).filter(|&bit| bit % 6 == 0).count();
            assert_eq!(m.difference_row_with(0, &mask), both);
            for bit in (0..from).step_by(2) {
                oracle[0][bit] = false;
            }
            assert_eq!(m.row(0), packed(&oracle[0]));
            assert_eq!(
                m.count_ones(0),
                oracle[0].iter().filter(|&&set| set).count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot grow")]
    fn bit_matrix_does_not_shrink() {
        BitMatrix::new(3, 70).grow(3, 64);
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
