//! Crash-consistent update log, and the record framing both of the
//! store's files are written in.
//!
//! [`UpdateLog`] is an append-only redo log a serving store can write
//! through: one *base* record holding the initial graph, then one *batch*
//! record per committed [`UpdateBatch`]. Recovery ([`UpdateLog::read`],
//! then the batches' edges applied to the base graph) reconstructs the
//! store's graph after a crash, and one compression of that graph answers
//! queries identically to the store that never crashed.
//!
//! ## Record framing
//!
//! One framing serves both files: the update log is a sequence of records,
//! and a snapshot file ([`crate::persist`]) is a single record of kind 2.
//!
//! ```text
//! [u32 payload-len (LE)] [u8 kind] [payload…] [u32 crc32 of kind+payload (LE)]
//! ```
//!
//! One function frames a record and one reader splits a file into its
//! whole records, checking each CRC and reporting a torn tail, for both
//! files. Kind 0 is the base graph, kind 1 a batch. All integers are
//! little-endian `u32`:
//!
//! ```text
//! base   [node count] [name count] ([byte len] [UTF-8 name…]) per name
//!        [label] per node  [edge count] ([from] [to]) per edge
//! batch  [update count] ([u8 1 insert | 0 delete] [from] [to]) per update
//! ```
//!
//! The base record is the graph's own parts: the label interner's names in
//! id order, each node's raw label (interned or not), and the edges, so
//! [`UpdateLog::read`] returns a graph with the same `label` and
//! `label_name` at every node and the same edge set. Its decoder fails
//! closed: every count is checked against the bytes left before anything
//! is sized by it, and a repeated name, an endpoint past the node count or
//! a trailing byte is [`LogError::Corrupt`]. A record of any other kind,
//! a snapshot record included, is too: neither file reads as the other.
//!
//! ## Crash semantics
//!
//! Appends are *write-behind*: the store appends only after an application
//! has fully staged, and advances the log's committed watermark only after
//! the full record hit the file. A crash (or injected fault) mid-append
//! leaves a **torn tail** — a partial record at the end of the file —
//! which [`UpdateLog::read`] detects (the declared frame extends past EOF)
//! and silently drops: the log is the sequence of fully-written records.
//! A full-frame record whose CRC32 does not match is *not* a torn tail but
//! real corruption, reported as [`LogError::Corrupt`]. A failed append
//! leaves its torn bytes in the file and the committed watermark where it
//! was; the next append truncates the file back to the watermark before it
//! writes, so every record starts on a clean boundary.
//!
//! Appends are written, not synced (`flush` on a `File` does nothing): a
//! committed batch survives a crash of the process, whose writes the
//! operating system already holds, but not a power loss. A snapshot file,
//! by contrast, is synced before it is renamed into place.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::Path;

use qpgc_fault::fail_point;
use qpgc_graph::ids::LabelInterner;
use qpgc_graph::{Label, LabeledGraph, NodeId, UpdateBatch};

use crate::error::LogError;

const KIND_BASE: u8 = 0;
const KIND_BATCH: u8 = 1;
/// The kind of a snapshot file's one record (see [`crate::persist`]).
pub(crate) const KIND_SNAPSHOT: u8 = 2;

/// An append-only, CRC-framed redo log of one store's update history.
#[derive(Debug)]
pub struct UpdateLog {
    file: File,
    /// Byte length of the committed prefix: every record up to here was
    /// fully written. Bytes beyond it (from an interrupted append) are
    /// garbage that the next append truncates and [`UpdateLog::read`]
    /// ignores.
    committed: u64,
}

impl UpdateLog {
    /// Creates (or truncates) the log at `path` and writes the base record
    /// for `g` — the graph state all subsequent batch records apply to.
    pub fn create<P: AsRef<Path>>(path: P, g: &LabeledGraph) -> Result<Self, LogError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut log = UpdateLog { file, committed: 0 };
        log.write_record(KIND_BASE, &encode_base(g))?;
        Ok(log)
    }

    /// Appends a batch record. On success the record is fully on disk and
    /// the committed watermark advanced; on failure (I/O error or injected
    /// fault) the file may hold a torn tail past the unmoved watermark,
    /// which the next append truncates before it writes.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<(), LogError> {
        self.write_record(KIND_BATCH, &encode_batch(batch))
    }

    fn write_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), LogError> {
        let rec = frame(kind, payload);
        // Truncate any torn bytes a previously interrupted append left
        // beyond the committed watermark, so this record starts on a clean
        // boundary.
        self.file.set_len(self.committed)?;
        self.file.seek(SeekFrom::Start(self.committed))?;
        // Write in two halves with a failpoint between them: a fault here
        // models a crash mid-append, leaving a torn half-record for the
        // recovery tests to tolerate.
        let half = rec.len() / 2;
        self.file.write_all(&rec[..half])?;
        self.file.flush()?;
        fail_point!("log/append_torn");
        self.file.write_all(&rec[half..])?;
        self.file.flush()?;
        fail_point!("log/append");
        self.committed += rec.len() as u64;
        Ok(())
    }

    /// Reads the log at `path` back into its base graph and committed
    /// batches, dropping a torn tail if the last append was interrupted.
    pub fn read<P: AsRef<Path>>(path: P) -> Result<LogContents, LogError> {
        let buf = std::fs::read(path)?;
        let mut graph: Option<LabeledGraph> = None;
        let mut batches = Vec::new();
        // Whatever follows the whole records is the torn tail of an
        // interrupted append; everything before it is the committed log.
        for Record {
            offset,
            kind,
            payload,
        } in records(&buf)?.0
        {
            match kind {
                KIND_BASE if graph.is_some() => {
                    return Err(corrupt(offset, "second base record"));
                }
                KIND_BASE => {
                    let g = decode_base(payload)
                        .map_err(|detail| corrupt(offset, format!("base record: {detail}")))?;
                    graph = Some(g);
                }
                KIND_BATCH if graph.is_none() => {
                    return Err(corrupt(offset, "batch record before base record"));
                }
                KIND_BATCH => batches.push(
                    decode_batch(payload)
                        .ok_or_else(|| corrupt(offset, "batch record does not parse"))?,
                ),
                other => return Err(corrupt(offset, format!("unknown record kind {other}"))),
            }
        }
        let graph = graph.ok_or_else(|| corrupt(0, "log has no base record"))?;
        Ok(LogContents { graph, batches })
    }
}

/// What [`UpdateLog::read`] recovers: the base graph and every batch whose
/// append committed before the crash.
#[derive(Debug)]
pub struct LogContents {
    /// The graph state the log's base record captured.
    pub graph: LabeledGraph,
    /// The committed batches, in append order.
    pub batches: Vec<UpdateBatch>,
}

/// A [`LogError::Corrupt`] at `offset`.
pub(crate) fn corrupt(offset: u64, detail: impl Into<String>) -> LogError {
    LogError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

/// `payload` framed as a record of `kind`, CRC included.
pub(crate) fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(payload.len() + 9);
    put(&mut rec, [u32::try_from(payload.len()).expect("fits u32")]);
    rec.push(kind);
    rec.extend_from_slice(payload);
    put(&mut rec, [crc32(kind, payload)]);
    rec
}

/// One whole record of a file, its CRC checked.
pub(crate) struct Record<'a> {
    /// Byte offset of the record's length prefix.
    pub(crate) offset: u64,
    pub(crate) kind: u8,
    pub(crate) payload: &'a [u8],
}

/// The whole records `buf` starts with, in order, and the byte length they
/// span. A frame that runs past the end of `buf` ends them: the span is
/// shorter than `buf` exactly when a torn tail follows. A whole record
/// whose CRC does not match is [`LogError::Corrupt`].
pub(crate) fn records(buf: &[u8]) -> Result<(Vec<Record<'_>>, usize), LogError> {
    let (mut out, mut pos) = (Vec::new(), 0);
    while let Some(header) = buf.get(pos..pos + 5) {
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let kind = header[4];
        let Some(body) = buf.get(pos + 5..pos + 5 + len + 4) else {
            break;
        };
        let (payload, stored_crc) = body.split_at(len);
        if crc32(kind, payload).to_le_bytes() != stored_crc {
            return Err(corrupt(
                pos as u64,
                "crc32 mismatch on a fully-framed record",
            ));
        }
        out.push(Record {
            offset: pos as u64,
            kind,
            payload,
        });
        pos += 5 + len + 4;
    }
    Ok((out, pos))
}

/// Appends `words` little-endian.
pub(crate) fn put(out: &mut Vec<u8>, words: impl IntoIterator<Item = u32>) {
    out.extend(words.into_iter().flat_map(u32::to_le_bytes));
}

fn encode_base(g: &LabeledGraph) -> Vec<u8> {
    let len = |n: usize| u32::try_from(n).expect("count fits u32");
    let names: Vec<&str> = (0..).map_while(|id| g.interner().name(Label(id))).collect();
    let mut out = Vec::with_capacity(4 * (3 + g.node_count() + 2 * g.edge_count()));
    put(&mut out, [len(g.node_count()), len(names.len())]);
    for name in names {
        put(&mut out, [len(name.len())]);
        out.extend_from_slice(name.as_bytes());
    }
    put(&mut out, g.labels().iter().map(|label| label.0));
    put(&mut out, [len(g.edge_count())]);
    put(&mut out, g.edges().flat_map(|(u, v)| [u.0, v.0]));
    out
}

/// The unread rest of a record's payload; every read is checked against
/// it, so no declared count sizes anything the bytes do not hold.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    /// The next `count` items of `width` bytes each, or `None` if fewer
    /// bytes are left.
    pub(crate) fn take(&mut self, count: usize, width: usize) -> Option<&'a [u8]> {
        let len = count
            .checked_mul(width)
            .filter(|&len| len <= self.0.len())?;
        let (head, rest) = self.0.split_at(len);
        self.0 = rest;
        Some(head)
    }

    /// The next `u32`, a count or a length.
    pub(crate) fn count(&mut self) -> Option<usize> {
        let word = self.take(1, 4)?.try_into().expect("4 bytes");
        Some(u32::from_le_bytes(word) as usize)
    }
}

pub(crate) fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
}

fn decode_base(payload: &[u8]) -> Result<LabeledGraph, &'static str> {
    let mut rest = Cursor(payload);
    let nodes = rest.count().ok_or("no node count")?;
    let names = rest.count().ok_or("no name count")?;
    let mut interner = LabelInterner::new();
    for id in 0..names {
        let len = rest.count().ok_or("label names past the payload")?;
        let name = rest.take(len, 1).ok_or("label name past the payload")?;
        let name = std::str::from_utf8(name).map_err(|_| "label name is not UTF-8")?;
        if interner.intern(name).index() != id {
            return Err("repeated label name");
        }
    }
    let labels = rest.take(nodes, 4).ok_or("node labels past the payload")?;
    let labels = words(labels).map(Label).collect();
    let edges = rest.count().ok_or("no edge count")?;
    let edges = rest.take(edges, 8).ok_or("edges past the payload")?;
    if !rest.0.is_empty() {
        return Err("trailing bytes");
    }
    let ends: Vec<NodeId> = words(edges).map(NodeId).collect();
    if ends.iter().any(|end| end.index() >= nodes) {
        return Err("edge endpoint past the node count");
    }
    let mut g = LabeledGraph::from_labels(labels, interner);
    g.extend_edges(ends.chunks_exact(2).map(|e| (e[0], e[1])));
    Ok(g)
}

fn encode_batch(batch: &UpdateBatch) -> Vec<u8> {
    let updates = batch.updates();
    let mut out = Vec::with_capacity(4 + updates.len() * 9);
    put(&mut out, [updates.len() as u32]);
    for u in updates {
        let (a, b) = u.edge();
        out.push(u.is_insert() as u8);
        put(&mut out, [a.0, b.0]);
    }
    out
}

fn decode_batch(payload: &[u8]) -> Option<UpdateBatch> {
    let mut rest = Cursor(payload);
    let count = rest.count()?;
    let records = rest.take(count, 9).filter(|_| rest.0.is_empty())?;
    let mut batch = UpdateBatch::new();
    for rec in records.chunks_exact(9) {
        let mut ends = words(&rec[1..]).map(NodeId);
        let (a, b) = (ends.next()?, ends.next()?);
        match rec[0] {
            0 => batch.delete(a, b),
            1 => batch.insert(a, b),
            _ => return None,
        };
    }
    Some(batch)
}

/// `TABLES[0][b]` is the CRC-32 of byte `b`; `TABLES[k][b]` that of `b`
/// followed by `k` zero bytes. Built at compile time.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    // Table `k` reads table 0 at any byte, so table 0 comes first.
    while i < 8 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = match k {
            0 => {
                let mut c = b as u32;
                let mut bit = 0;
                while bit < 8 {
                    c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                    bit += 1;
                }
                c
            }
            _ => (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize],
        };
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) of `kind ‖ payload` — hand-rolled
/// because the build is offline. Slicing-by-8: eight payload bytes a step
/// through the eight [`TABLES`]; the kind, and the bytes past the last
/// whole eight, one at a time through the first.
fn crc32(kind: u8, payload: &[u8]) -> u32 {
    let byte = |c: u32, b: u8| TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    let mut words = payload.chunks_exact(8);
    let mut c = byte(!0, kind);
    for w in &mut words {
        let x = u64::from(c) ^ u64::from_le_bytes(w.try_into().expect("8 bytes"));
        c = (0..8).fold(0, |acc, i| {
            acc ^ TABLES[7 - i][(x >> (8 * i)) as usize & 0xFF]
        });
    }
    !words.remainder().iter().fold(c, |c, &b| byte(c, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        let a = g.add_node_with_label("A");
        let b = g.add_node_with_label("B");
        let c = g.add_node_with_label("C");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qpgc_wal_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b'1', b"23456789"), 0xCBF4_3926);
    }

    /// CRC-32 (IEEE, reflected) one bit at a time, the definition.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// The eight-byte steps equal the bitwise definition at every length
    /// from 1 to 300, so every remainder carries the state on.
    #[test]
    fn slicing_by_8_equals_the_bitwise_crc() {
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 1..=bytes.len() {
            let (kind, payload) = (bytes[0], &bytes[1..len]);
            assert_eq!(
                crc32(kind, payload),
                bitwise_crc32(&bytes[..len]),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn roundtrip_base_and_batches() {
        let path = tmp_path("roundtrip");
        let g = sample();
        let mut log = UpdateLog::create(&path, &g).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert(NodeId(2), NodeId(0));
        let mut b2 = UpdateBatch::new();
        b2.delete(NodeId(0), NodeId(1));
        log.append(&b1).unwrap();
        log.append(&b2).unwrap();

        let contents = UpdateLog::read(&path).unwrap();
        assert_eq!(contents.graph.node_count(), 3);
        assert_eq!(contents.graph.edge_count(), 2);
        assert_eq!(contents.batches.len(), 2);
        assert_eq!(contents.batches[0].updates(), b1.updates());
        assert_eq!(contents.batches[1].updates(), b2.updates());

        // Every node reads back as it was logged: labels whose names hold
        // whitespace or nothing, a raw label no name was interned for, an
        // isolated node, a self loop; and the empty graph.
        let mut odd = LabeledGraph::new();
        let v: Vec<_> = ["", "a b", "x\ny", "σύνολο"]
            .into_iter()
            .map(|name| odd.add_node_with_label(name))
            .collect();
        let raw = odd.add_node(Label(77));
        odd.add_node_with_label("isolated");
        odd.add_edge(v[0], v[1]);
        odd.add_edge(v[2], v[2]);
        odd.add_edge(raw, v[3]);
        odd.add_edge(v[3], raw);
        for g in [odd, LabeledGraph::new()] {
            UpdateLog::create(&path, &g).unwrap();
            let back = UpdateLog::read(&path).unwrap().graph;
            assert_eq!(back.node_count(), g.node_count());
            for v in g.nodes() {
                assert_eq!(back.label(v), g.label(v), "{v:?}");
                assert_eq!(back.label_name(v), g.label_name(v), "{v:?}");
            }
            let sorted = |g: &LabeledGraph| {
                let mut edges: Vec<_> = g.edges().collect();
                edges.sort();
                edges
            };
            assert_eq!(sorted(&back), sorted(&g));
        }
        std::fs::remove_file(&path).ok();
    }

    /// CRC-valid base records that do not hold a graph read as `Corrupt`,
    /// never as a graph sized by a count the bytes do not back.
    #[test]
    fn hostile_base_records_are_corrupt() {
        let path = tmp_path("hostile");
        let le = |words: &[u32]| -> Vec<u8> {
            let mut out = Vec::new();
            put(&mut out, words.iter().copied());
            out
        };
        // Two nodes over the label names `names`, then `tail`: the labels,
        // the edge count and the edges.
        let base = |names: &[&str], tail: &[u32]| {
            let mut out = le(&[2, names.len() as u32]);
            for name in names {
                out.extend(le(&[name.len() as u32]).iter().chain(name.as_bytes()));
            }
            [out, le(tail)].concat()
        };
        assert!(decode_base(&base(&["A", "B"], &[0, 1, 1, 0, 1])).is_ok());
        let hostile: [(&str, Vec<u8>); 13] = [
            ("one million nodes", le(&[1_000_000, 0, 0])),
            ("the text record `n 1000000`", b"n 1000000\n".to_vec()),
            ("empty payload", Vec::new()),
            ("more nodes than labels", le(&[3, 0, 0, 0])),
            ("more names than bytes", le(&[0, 1_000_000, 0])),
            ("more edges than bytes", base(&["A", "B"], &[0, 1, 2, 0, 1])),
            (
                "a name past the end",
                [le(&[0, 1, 9]), b"abc".to_vec()].concat(),
            ),
            (
                "invalid UTF-8",
                [le(&[0, 1, 2]), vec![0xC3, 0x28], le(&[0])].concat(),
            ),
            ("a repeated name", base(&["A", "A"], &[0, 1, 0])),
            (
                "an endpoint at the node count",
                base(&["A"], &[0, 0, 1, 0, 2]),
            ),
            (
                "a source past the node count",
                base(&["A"], &[0, 0, 1, 7, 0]),
            ),
            ("no edge count", base(&["A"], &[0, 0])),
            (
                "a trailing byte",
                [base(&["A"], &[0, 0, 0]), vec![0]].concat(),
            ),
        ];
        for (case, payload) in hostile {
            std::fs::write(
                &path,
                [frame(KIND_BASE, &payload), frame(KIND_BATCH, &le(&[0]))].concat(),
            )
            .unwrap();
            match UpdateLog::read(&path) {
                Err(LogError::Corrupt { offset: 0, .. }) => {}
                other => panic!("{case}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp_path("torn");
        let g = sample();
        let mut log = UpdateLog::create(&path, &g).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert(NodeId(2), NodeId(0));
        log.append(&b1).unwrap();
        let committed = log.committed;
        let mut b2 = UpdateBatch::new();
        b2.delete(NodeId(0), NodeId(1));
        log.append(&b2).unwrap();
        drop(log);

        // Chop the second batch record at every possible torn length: replay
        // must recover exactly the first batch, never error.
        let full = std::fs::read(&path).unwrap();
        for cut in committed as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let contents = UpdateLog::read(&path).unwrap();
            assert_eq!(contents.batches.len(), 1, "cut at {cut}");
            assert_eq!(contents.batches[0].updates(), b1.updates());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_reported() {
        let path = tmp_path("corrupt");
        let g = sample();
        let mut log = UpdateLog::create(&path, &g).unwrap();
        let base_end = log.committed;
        let mut b1 = UpdateBatch::new();
        b1.insert(NodeId(2), NodeId(0));
        log.append(&b1).unwrap();
        drop(log);

        // Flip a payload byte of the (fully-framed) batch record.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = base_end as usize + 6;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match UpdateLog::read(&path) {
            Err(LogError::Corrupt { offset, .. }) => assert_eq!(offset, base_end),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A torn append leaves garbage past the committed watermark; the next
    /// append truncates it before writing, so every record reads back.
    #[test]
    fn rollback_truncates_torn_bytes() {
        let path = tmp_path("rollback");
        let g = sample();
        let mut log = UpdateLog::create(&path, &g).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert(NodeId(2), NodeId(0));
        log.append(&b1).unwrap();
        // Simulate a torn append by hand: garbage past the watermark.
        log.file.seek(SeekFrom::Start(log.committed)).unwrap();
        log.file.write_all(&[0xAB; 7]).unwrap();
        log.file.flush().unwrap();
        let mut b2 = UpdateBatch::new();
        b2.delete(NodeId(0), NodeId(1));
        log.append(&b2).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), log.committed);
        let contents = UpdateLog::read(&path).unwrap();
        assert_eq!(contents.batches.len(), 2);
        assert_eq!(contents.batches[0].updates(), b1.updates());
        assert_eq!(contents.batches[1].updates(), b2.updates());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_batch_roundtrips() {
        let path = tmp_path("empty");
        let g = LabeledGraph::new();
        let mut log = UpdateLog::create(&path, &g).unwrap();
        log.append(&UpdateBatch::new()).unwrap();
        let contents = UpdateLog::read(&path).unwrap();
        assert_eq!(contents.graph.node_count(), 0);
        assert_eq!(contents.batches.len(), 1);
        assert!(contents.batches[0].is_empty());
        std::fs::remove_file(&path).ok();
    }
}
