//! Succinct gap/ζ-coded CSR backend with lazy per-row decode.
//!
//! [`CompressedCsr`] stores the forward adjacency of a [`CsrGraph`] the way
//! the WebGraph family does: each row's sorted targets become a first
//! target δ-coded as a signed offset from the source, followed by strictly
//! positive gaps in the ζ_k code (k chosen per graph by an exact bit-count
//! sweep), with Elias–Fano coded row offsets so any row is decodable in
//! isolation. Decoding is **lazy**: [`CompressedCsr::neighbors`] walks the
//! bit stream one target at a time, so a traversal that stops early never
//! inflates a whole row, let alone the graph.
//!
//! Every row is coded the same way. The one graph packed is a served
//! quotient `Gr`, transitively reduced and therefore sparse-rowed (the
//! quotients of wikiTalk, citHepTh and Citation emulations measured a
//! largest out-degree of 1–11), so no row is held out of the stream.
//!
//! The backend holds **adjacency only, forward only** by design: no
//! labels (every row of a quotient carries `σ`) and no reverse edges. The
//! slice-returning [`crate::GraphView`] contract (`out_neighbors(&self) ->
//! &[NodeId]`) cannot be met by a lazy decoder without caching, so
//! consumers dispatch over an explicit plain/succinct backend enum (see
//! `qpgc_serve`), which rebuilds the plain form row by row from
//! [`CompressedCsr::neighbors`] where it needs slices.
//!
//! It is a serving representation only, with no file form: `qpgc_serve`'s
//! snapshot files hold the plain CSR. So the one decoder of the stream is
//! the lazy one, and it only ever reads a stream [`CompressedCsr::from_csr`]
//! wrote.

use crate::codec::{unzigzag, zeta_len, zigzag, BitReader, BitWriter};
use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Every `SELECT_SAMPLE`-th one in the Elias–Fano upper-bits vector gets
/// its position sampled, bounding a `get` to one sampled jump plus at most
/// `SELECT_SAMPLE` popcounted bits. 8 keeps the in-word skip loop short
/// enough for point queries while costing only 4 bits/entry of samples.
const SELECT_SAMPLE: usize = 8;

/// Mask with the `n` lowest bits set (`n ≤ 64`).
#[inline]
fn mask(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

#[inline]
fn get_bits_lsb(words: &[u64], pos: usize, width: usize) -> u64 {
    let word_idx = pos / 64;
    let off = pos % 64;
    let mut v = words[word_idx] >> off;
    if off + width > 64 {
        v |= words[word_idx + 1] << (64 - off);
    }
    v & mask(width)
}

/// Elias–Fano encoding of a monotone non-decreasing sequence: each value
/// splits into `l` low bits stored verbatim and high bits unary-coded into
/// a bit vector, for `n(2 + ⌈log₂(u/n)⌉)` bits total — within half a bit
/// per element of the information-theoretic optimum.
#[derive(Clone, Debug)]
struct EliasFano {
    n: usize,
    l: u32,
    low: Vec<u64>,
    high: Vec<u64>,
    /// Bit position in `high` of every [`SELECT_SAMPLE`]-th one.
    samples: Vec<u32>,
}

impl EliasFano {
    /// Encodes `values`, which must be monotone non-decreasing.
    fn new(values: &[u64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self {
                n: 0,
                l: 0,
                low: Vec::new(),
                high: Vec::new(),
                samples: Vec::new(),
            };
        }
        let u = values[n - 1] + 1;
        let l = if u > n as u64 {
            (u / n as u64).ilog2()
        } else {
            0
        };
        let mut low = vec![0u64; (n * l as usize).div_ceil(64) + 1];
        let high_bits = (u >> l) as usize + n + 1;
        let mut high = vec![0u64; high_bits.div_ceil(64)];
        let mut samples = Vec::with_capacity(n / SELECT_SAMPLE + 1);
        let mut prev = 0u64;
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(v >= prev, "EliasFano input must be monotone");
            prev = v;
            if l > 0 {
                let pos = i * l as usize;
                low[pos / 64] |= (v & mask(l as usize)) << (pos % 64);
                if pos % 64 + l as usize > 64 {
                    low[pos / 64 + 1] |= (v & mask(l as usize)) >> (64 - pos % 64);
                }
            }
            let bit = (v >> l) as usize + i;
            high[bit / 64] |= 1u64 << (bit % 64);
            if i % SELECT_SAMPLE == 0 {
                debug_assert!(bit <= u32::MAX as usize);
                samples.push(bit as u32);
            }
        }
        Self {
            n,
            l,
            low,
            high,
            samples,
        }
    }

    /// Returns the `i`-th value.
    ///
    /// # Panics
    ///
    /// Panics (or returns garbage in release builds) if `i` is past the
    /// last value.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.n);
        let l = self.l as usize;
        let low = if l == 0 {
            0
        } else {
            get_bits_lsb(&self.low, i * l, l)
        };
        // select₁(i) on the high bits: jump to the nearest sample at or
        // below i, then popcount forward.
        let j = i / SELECT_SAMPLE;
        let mut pos = self.samples[j] as usize;
        let mut remaining = i - j * SELECT_SAMPLE;
        if remaining > 0 {
            pos += 1;
            let mut word_idx = pos / 64;
            let mut word = self.high[word_idx] & (!0u64 << (pos % 64));
            loop {
                let ones = word.count_ones() as usize;
                if ones >= remaining {
                    let mut w = word;
                    for _ in 1..remaining {
                        w &= w - 1;
                    }
                    pos = word_idx * 64 + w.trailing_zeros() as usize;
                    break;
                }
                remaining -= ones;
                word_idx += 1;
                word = self.high[word_idx];
            }
        }
        (((pos - i) as u64) << self.l) | low
    }

    /// Heap footprint in bytes (samples included).
    fn heap_bytes(&self) -> usize {
        self.low.capacity() * 8 + self.high.capacity() * 8 + self.samples.capacity() * 4
    }
}

/// WebGraph-style succinct CSR: gap/ζ-coded forward adjacency with
/// Elias–Fano row offsets and lazy per-row decode. See the
/// [module docs](self) for the encoding.
#[derive(Clone, Debug)]
pub struct CompressedCsr {
    n: usize,
    m: usize,
    k: u32,
    data: Vec<u64>,
    data_bits: usize,
    /// Bit offset of each row (`n` entries).
    offsets: EliasFano,
}

impl CompressedCsr {
    /// Packs `csr`'s forward adjacency; its labels are not kept. The ζ
    /// parameter `k` is chosen by an exact bit-count sweep over `k ∈ 1..=4`
    /// on the actual gap stream.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        let n = csr.node_count();
        // Exact coded size per candidate k, over the gaps that will
        // actually be ζ-coded (second target onward).
        let mut k_cost = [0usize; 4];
        for v in csr.nodes() {
            for w in csr.out_neighbors(v).windows(2) {
                let gap = (w[1].0 - w[0].0) as u64;
                for (ki, cost) in k_cost.iter_mut().enumerate() {
                    *cost += zeta_len(gap, ki as u32 + 1);
                }
            }
        }
        let k = k_cost
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| **c)
            .map(|(ki, _)| ki as u32 + 1)
            .unwrap_or(2);

        let mut w = BitWriter::new();
        let mut row_offsets = Vec::with_capacity(n);
        for v in csr.nodes() {
            let row = csr.out_neighbors(v);
            row_offsets.push(w.bit_len() as u64);
            w.write_gamma(row.len() as u64 + 1);
            if let Some(&first) = row.first() {
                w.write_delta(zigzag(first.0 as i64 - v.0 as i64) + 1);
                for pair in row.windows(2) {
                    w.write_zeta((pair[1].0 - pair[0].0) as u64, k);
                }
            }
        }
        let (data, data_bits) = w.finish();
        Self {
            n,
            m: csr.edge_count(),
            k,
            data,
            data_bits,
            offsets: EliasFano::new(&row_offsets),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Lazy iterator over `v`'s out-neighbors in ascending id order.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        assert!(v.index() < self.n, "node {v} out of bounds");
        let mut reader = BitReader::at(&self.data, self.offsets.get(v.index()) as usize);
        let left = (reader.read_gamma() - 1) as u32;
        Neighbors {
            reader,
            k: self.k,
            left,
            v: v.0,
            prev: 0,
            first: true,
        }
    }

    /// Heap footprint in bytes: the bit stream and the row offsets.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * 8 + self.offsets.heap_bytes()
    }

    /// Mean coded bits per edge.
    pub fn bits_per_edge(&self) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        self.data_bits as f64 / self.m as f64
    }
}

/// Lazy neighbor iterator of [`CompressedCsr::neighbors`]: an in-place
/// decode of the row's bit stream, one target at a time.
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    /// Cursor into the coded stream, positioned after the degree.
    reader: BitReader<'a>,
    /// ζ parameter of the stream.
    k: u32,
    /// Targets left to decode.
    left: u32,
    /// Source node id (reference point of the first target).
    v: u32,
    /// Previously decoded target.
    prev: u32,
    /// `true` until the first target has been decoded.
    first: bool,
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let t = if self.first {
            self.first = false;
            let z = self.reader.read_delta() - 1;
            (self.v as i64 + unzigzag(z)) as u32
        } else {
            self.prev + self.reader.read_zeta(self.k) as u32
        };
        self.prev = t;
        Some(NodeId(t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Label, LabelInterner};

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_csr(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut interner = LabelInterner::new();
        let labels: Vec<Label> = (0..n)
            .map(|i| {
                let name = ["A", "B", "C"][i % 3];
                interner.intern(name)
            })
            .collect();
        let mut s = seed;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = NodeId((lcg(&mut s) % n as u64) as u32);
            let v = NodeId((lcg(&mut s) % n as u64) as u32);
            edges.push((u, v));
        }
        CsrGraph::from_edges(labels, interner, edges)
    }

    #[test]
    fn elias_fano_roundtrip() {
        let mut s = 0x5eedu64;
        let mut values = Vec::new();
        let mut acc = 0u64;
        for _ in 0..10_000 {
            acc += lcg(&mut s) % 97;
            values.push(acc);
        }
        let ef = EliasFano::new(&values);
        assert_eq!(ef.n, values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "index {i}");
        }
    }

    #[test]
    fn elias_fano_dense_and_degenerate() {
        for values in [
            vec![],
            vec![0],
            vec![0, 0, 0, 0],
            (0..1000u64).collect::<Vec<_>>(),
            vec![7; 500],
            vec![0, u32::MAX as u64],
        ] {
            let ef = EliasFano::new(&values);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(ef.get(i), v, "{values:?} index {i}");
            }
        }
    }

    #[test]
    fn compressed_matches_plain_on_random_graphs() {
        for (n, m, seed) in [(50usize, 200usize, 1u64), (500, 3000, 2), (2000, 9000, 3)] {
            let csr = random_csr(n, m, seed);
            let packed = CompressedCsr::from_csr(&csr);
            assert_eq!(packed.node_count(), csr.node_count());
            assert_eq!(packed.edge_count(), csr.edge_count());
            for v in 0..n {
                let v = NodeId(v as u32);
                let plain = csr.out_neighbors(v);
                let decoded: Vec<NodeId> = packed.neighbors(v).collect();
                assert_eq!(decoded, plain, "row {v} (n={n} m={m})");
            }
        }
    }

    #[test]
    fn chain_packs_below_half_the_plain_heap() {
        let mut interner = LabelInterner::new();
        let l = interner.intern("σ");
        let edges: Vec<(NodeId, NodeId)> =
            (0..999u32).map(|i| (NodeId(i), NodeId(i + 1))).collect();
        let csr = CsrGraph::from_edges(vec![l; 1000], interner, edges);
        let packed = CompressedCsr::from_csr(&csr);
        // A chain has gap-1 edges everywhere: the coded form must be far
        // below the plain form's 12n + 8m bytes.
        assert!(
            packed.heap_bytes() * 2 < csr.heap_bytes(),
            "succinct {} vs plain {}",
            packed.heap_bytes(),
            csr.heap_bytes()
        );
    }
}
