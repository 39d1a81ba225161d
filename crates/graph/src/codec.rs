//! Bit-level universal codes for the succinct CSR backend.
//!
//! Implements the instantaneous codes the WebGraph family builds its
//! gap-compressed adjacency on: unary, Elias γ and δ, and the ζ_k codes of
//! Boldi–Vigna (the right family for the power-law gap distributions of the
//! Table-1 shapes). [`BitWriter`] packs an MSB-first bitstream into `u64`
//! words; [`BitReader`] decodes it lazily so a query touching one adjacency
//! row never inflates any other row.
//!
//! All universal codes here encode **positive** integers (`x ≥ 1`); callers
//! shift by one when zero is possible. Signed values go through the
//! [`zigzag`] / [`unzigzag`] mapping first.

/// Mask with the `n` lowest bits set (`n ≤ 64`).
#[inline]
fn mask(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Maps a signed value onto the non-negative integers with small absolute
/// values staying small: `0, -1, 1, -2, 2, … → 0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Exact bit length of `x ≥ 1` under the ζ_k code.
#[inline]
pub fn zeta_len(x: u64, k: u32) -> usize {
    debug_assert!(x >= 1 && k >= 1);
    let h = (63 - x.leading_zeros()) / k;
    let m = (1u64 << ((h + 1) * k)) - (1u64 << (h * k));
    let b = (64 - (m - 1).leading_zeros()).max(1) as usize;
    let threshold = (1u64 << b) - m;
    let v = x - (1u64 << (h * k));
    h as usize + 1 + if v < threshold { b - 1 } else { b }
}

/// Append-only MSB-first bit stream packed into `u64` words.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    len: usize,
}

impl BitWriter {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.len
    }

    /// Appends the `width` low bits of `value`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: usize) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value <= mask(width), "value overflows width");
        let mut remaining = width;
        while remaining > 0 {
            let bit_idx = self.len % 64;
            if bit_idx == 0 {
                self.words.push(0);
            }
            let free = 64 - bit_idx;
            let take = free.min(remaining);
            let chunk = (value >> (remaining - take)) & mask(take);
            let word = self.words.last_mut().expect("word pushed above");
            *word |= chunk << (free - take);
            self.len += take;
            remaining -= take;
        }
    }

    /// Appends `n` in unary: `n` zeros followed by a one.
    #[inline]
    pub fn write_unary(&mut self, n: u64) {
        let mut left = n;
        while left >= 64 {
            self.write_bits(0, 64);
            left -= 64;
        }
        self.write_bits(1, left as usize + 1);
    }

    /// Appends `x ≥ 1` in Elias γ: unary `⌊log₂ x⌋` then the low bits.
    #[inline]
    pub fn write_gamma(&mut self, x: u64) {
        debug_assert!(x >= 1);
        let n = 63 - x.leading_zeros() as usize;
        self.write_unary(n as u64);
        self.write_bits(x & mask(n), n);
    }

    /// Appends `x ≥ 1` in Elias δ: γ(`⌊log₂ x⌋ + 1`) then the low bits.
    #[inline]
    pub fn write_delta(&mut self, x: u64) {
        debug_assert!(x >= 1);
        let n = 63 - x.leading_zeros() as usize;
        self.write_gamma(n as u64 + 1);
        self.write_bits(x & mask(n), n);
    }

    /// Appends `v ∈ [0, m)` in the minimal binary (truncated) code: values
    /// below `2^b − m` take `b − 1` bits, the rest take `b`, where
    /// `b = ⌈log₂ m⌉`.
    #[inline]
    pub fn write_minimal_binary(&mut self, v: u64, m: u64) {
        debug_assert!(m >= 1 && v < m);
        if m == 1 {
            return;
        }
        let b = (64 - (m - 1).leading_zeros()).max(1) as usize;
        let threshold = (1u64 << b) - m;
        if v < threshold {
            self.write_bits(v, b - 1);
        } else {
            self.write_bits(v + threshold, b);
        }
    }

    /// Appends `x ≥ 1` in the ζ_k code of Boldi–Vigna: unary bucket `h`
    /// with `2^{hk} ≤ x < 2^{(h+1)k}`, then `x − 2^{hk}` minimally binary
    /// in the bucket interval.
    #[inline]
    pub fn write_zeta(&mut self, x: u64, k: u32) {
        debug_assert!(x >= 1 && k >= 1);
        let h = (63 - x.leading_zeros()) / k;
        self.write_unary(h as u64);
        let low = 1u64 << (h * k);
        let m = (1u64 << ((h + 1) * k)) - low;
        self.write_minimal_binary(x - low, m);
    }

    /// Consumes the writer, returning the packed words and the bit length.
    pub fn finish(self) -> (Vec<u64>, usize) {
        (self.words, self.len)
    }
}

/// Cursor decoding a [`BitWriter`] stream, cheap to construct per row.
///
/// Buffers the current word left-aligned so the hot decode loops (one ζ
/// read per neighbor gap) touch memory once per 64 bits instead of once
/// per symbol. Bits of `buf` beyond `avail` are always zero — `read_unary`
/// exploits this to find the terminating one with a single `leading_zeros`.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    words: &'a [u64],
    /// Unconsumed bits of the current word, left-aligned (MSB-first).
    buf: u64,
    /// Number of valid bits at the top of `buf`; the rest are zero.
    avail: usize,
    /// Index of the next word to refill from.
    next: usize,
}

impl<'a> BitReader<'a> {
    /// Opens a reader over `words` positioned at bit `pos`.
    #[inline]
    pub fn at(words: &'a [u64], pos: usize) -> Self {
        let word_idx = pos / 64;
        let skip = pos % 64;
        if word_idx < words.len() {
            Self {
                words,
                buf: words[word_idx] << skip,
                avail: 64 - skip,
                next: word_idx + 1,
            }
        } else {
            // Degenerate cursor at (or past) the end: any read panics on
            // the refill, matching the unbuffered reader's behavior.
            Self {
                words,
                buf: 0,
                avail: skip,
                next: word_idx,
            }
        }
    }

    #[inline]
    fn refill(&mut self) {
        self.buf = self.words[self.next];
        self.avail = 64;
        self.next += 1;
    }

    /// Reads `width` bits, most significant first.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> u64 {
        debug_assert!(width <= 64);
        if width == 0 {
            return 0;
        }
        if width <= self.avail {
            let out = self.buf >> (64 - width);
            self.buf = if width == 64 { 0 } else { self.buf << width };
            self.avail -= width;
            return out;
        }
        let have = self.avail;
        let out = if have == 0 {
            0
        } else {
            self.buf >> (64 - have)
        };
        let rest = width - have;
        self.refill();
        let low = self.buf >> (64 - rest);
        self.buf = if rest == 64 { 0 } else { self.buf << rest };
        self.avail -= rest;
        (out << rest) | low
    }

    /// Reads a unary value: the number of zeros before the next one.
    #[inline]
    pub fn read_unary(&mut self) -> u64 {
        let mut n = 0u64;
        // buf ≠ 0 implies the leading one sits within `avail` (the tail
        // bits are zero), so the skip count needs no bounds check.
        while self.buf == 0 {
            n += self.avail as u64;
            self.refill();
        }
        let lz = self.buf.leading_zeros() as usize;
        let take = lz + 1;
        self.buf = if take == 64 { 0 } else { self.buf << take };
        self.avail -= take;
        n + lz as u64
    }

    /// Reads an Elias γ value.
    #[inline]
    pub fn read_gamma(&mut self) -> u64 {
        let n = self.read_unary() as usize;
        (1u64 << n) | self.read_bits(n)
    }

    /// Reads an Elias δ value.
    #[inline]
    pub fn read_delta(&mut self) -> u64 {
        let n = (self.read_gamma() - 1) as usize;
        (1u64 << n) | self.read_bits(n)
    }

    /// Reads a minimal binary value in `[0, m)`.
    #[inline]
    pub fn read_minimal_binary(&mut self, m: u64) -> u64 {
        debug_assert!(m >= 1);
        if m == 1 {
            return 0;
        }
        let b = (64 - (m - 1).leading_zeros()).max(1) as usize;
        let threshold = (1u64 << b) - m;
        let hi = self.read_bits(b - 1);
        if hi < threshold {
            hi
        } else {
            ((hi << 1) | self.read_bits(1)) - threshold
        }
    }

    /// Reads a ζ_k value.
    #[inline]
    pub fn read_zeta(&mut self, k: u32) -> u64 {
        let h = self.read_unary() as u32;
        let low = 1u64 << (h * k);
        let m = (1u64 << ((h + 1) * k)) - low;
        low + self.read_minimal_binary(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for x in [-1_000_000i64, -3, -1, 0, 1, 2, 7, 1_000_000] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
        // Small absolute values stay small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    // The literal below groups bits per γ code, not per nibble.
    #[allow(clippy::unusual_byte_groupings)]
    fn gamma_known_vectors() {
        // γ(1) = "1", γ(2) = "010", γ(3) = "011", γ(4) = "00100".
        let mut w = BitWriter::new();
        for x in 1..=4u64 {
            w.write_gamma(x);
        }
        let (words, len) = w.finish();
        assert_eq!(len, 1 + 3 + 3 + 5);
        let mut r = BitReader::at(&words, 0);
        assert_eq!(r.read_bits(len), 0b1_010_011_00100);
    }

    #[test]
    fn unary_across_word_boundaries() {
        let mut w = BitWriter::new();
        for n in [0u64, 63, 64, 65, 130, 1] {
            w.write_unary(n);
        }
        let (words, _) = w.finish();
        let mut r = BitReader::at(&words, 0);
        for n in [0u64, 63, 64, 65, 130, 1] {
            assert_eq!(r.read_unary(), n);
        }
    }

    #[test]
    fn all_codes_roundtrip() {
        let values: Vec<u64> = (1..=200)
            .chain([1 << 10, (1 << 16) - 1, 1 << 16, (1 << 31) + 7, 1 << 40])
            .collect();
        for k in 1..=5u32 {
            let mut w = BitWriter::new();
            for &x in &values {
                w.write_gamma(x);
                w.write_delta(x);
                w.write_zeta(x, k);
            }
            let (words, _) = w.finish();
            let mut r = BitReader::at(&words, 0);
            for &x in &values {
                assert_eq!(r.read_gamma(), x, "gamma {x}");
                assert_eq!(r.read_delta(), x, "delta {x}");
                assert_eq!(r.read_zeta(k), x, "zeta_{k} {x}");
            }
        }
    }

    #[test]
    fn length_helpers_are_exact() {
        for x in (1..300u64).chain([1 << 12, 1 << 20, (1 << 30) + 3]) {
            for k in 1..=4 {
                let mut w = BitWriter::new();
                w.write_zeta(x, k);
                assert_eq!(w.bit_len(), zeta_len(x, k), "zeta_len {x} k={k}");
            }
        }
    }

    #[test]
    fn minimal_binary_roundtrip_all_intervals() {
        for m in 1..=70u64 {
            let mut w = BitWriter::new();
            for v in 0..m {
                w.write_minimal_binary(v, m);
            }
            let (words, _) = w.finish();
            let mut r = BitReader::at(&words, 0);
            for v in 0..m {
                assert_eq!(r.read_minimal_binary(m), v, "m={m} v={v}");
            }
        }
    }

    #[test]
    fn mixed_stream_with_positions() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let mark = w.bit_len();
        w.write_zeta(97, 3);
        w.write_delta(1234);
        let (words, _) = w.finish();
        let mut r = BitReader::at(&words, mark);
        assert_eq!(r.read_zeta(3), 97);
        assert_eq!(r.read_delta(), 1234);
        let mut r = BitReader::at(&words, 0);
        assert_eq!(r.read_bits(4), 0b1011);
    }
}
