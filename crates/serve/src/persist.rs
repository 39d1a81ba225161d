//! On-disk snapshot persistence: the succinct quotient, frozen to a file.
//!
//! A snapshot file is the serving half of crash recovery. The PR 7
//! [`UpdateLog`](crate::wal::UpdateLog) already makes the *history*
//! durable, but recovering from it replays every committed batch through
//! the full maintenance pipeline. Persisting the current snapshot turns
//! recovery into **snapshot + log-tail replay**: the file names the
//! version to boot at, the log's edges are replayed up to it and
//! compressed once, and only the batches past the snapshot's version go
//! through maintenance. See
//! [`CompressedStore::boot_from_snapshot`](crate::CompressedStore::boot_from_snapshot).
//!
//! ## File layout
//!
//! The byte layout mirrors the in-memory succinct form
//! ([`CompressedCsr`]) section for section, so loading is a sequence of
//! straight `memcpy`-shaped word reads — no re-encoding, no bit-stream
//! transcoding. A plain-backend snapshot is packed on save.
//!
//! ```text
//! [8B magic "QPGCSNP\x01"] [u32 format version] [u32 reserved = 0]
//! then per section, 8-byte aligned (payload 8-aligned too):
//! [u32 kind] [u32 payload-len] [u32 crc32] [u32 zero] [payload…] [zero pad to 8]
//! ```
//!
//! The CRC (the same hand-rolled IEEE CRC-32 the update log frames its
//! records with) covers every section byte except the CRC field itself:
//! `kind ‖ len ‖ zero ‖ payload ‖ pad`, so no file byte past the header
//! is unprotected. Sections carry the coded
//! adjacency stream, the Elias–Fano offset words, the hub exception
//! tables, the label store, the interner, and the snapshot-level node →
//! class index and cyclic flags — everything [`Snapshot`] needs to serve
//! reachability, minus the optional 2-hop index (a loaded snapshot answers
//! by lazy BFS over the succinct quotient, which is BFS-exact; a booted
//! *store* serves the snapshot it rebuilt, index included).
//!
//! ## Fail-closed reading
//!
//! Loading validates, in order: the magic and format version, every
//! section frame (a frame extending past EOF is a truncated file, not a
//! tolerated tail — unlike the append-only log, a snapshot file is
//! written whole), every CRC, and finally the structural invariants the
//! CRC cannot see: counts, monotonicity and prefix shape
//! ([`EliasFano::from_parts`]), every row decoded once in bounds with
//! ascending targets below the row count ([`CompressedCsr::from_parts`]),
//! and the snapshot's own [`Snapshot::check_invariants`] — the node index
//! names live rows only, `Gr` is acyclic and reduced. A file rewritten
//! with valid CRCs therefore still cannot load a snapshot whose queries
//! would index past a row. Any failure returns [`LogError::Corrupt`] and
//! no partial snapshot.

use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::Arc;

use qpgc_graph::ids::LabelInterner;
use qpgc_graph::{CompressedCsr, EliasFano, Label, NodeId};

use crate::error::LogError;
use crate::snapshot::{QuotientCsr, Snapshot};
use crate::wal::Crc32;

const MAGIC: &[u8; 8] = b"QPGCSNP\x01";
const FORMAT_VERSION: u32 = 1;

const SEC_META: u32 = 1;
const SEC_INTERNER: u32 = 2;
const SEC_DATA: u32 = 3;
const SEC_EF_LOW: u32 = 4;
const SEC_EF_HIGH: u32 = 5;
const SEC_HUB_ROWS: u32 = 6;
const SEC_HUB_OFFSETS: u32 = 7;
const SEC_HUB_TARGETS: u32 = 8;
const SEC_LABELS: u32 = 9;
const SEC_CLASS_OF: u32 = 10;
const SEC_CYCLIC: u32 = 11;

fn corrupt(offset: u64, detail: impl Into<String>) -> LogError {
    LogError::Corrupt {
        offset,
        detail: detail.into(),
    }
}

/// Appends one framed section: a 16-byte header (`kind`, payload length,
/// CRC, zero word) followed by the payload, zero-padded to the 8-byte
/// boundary. The CRC covers `kind ‖ len ‖ zero ‖ payload ‖ pad` — every
/// section byte but the CRC field itself.
fn push_section(out: &mut Vec<u8>, kind: u32, payload: &[u8]) {
    debug_assert_eq!(out.len() % 8, 0, "section must start aligned");
    let len = u32::try_from(payload.len()).expect("section fits u32");
    let pad = payload.len().div_ceil(8) * 8 - payload.len();
    let zeros = [0u8; 8];
    let mut crc = Crc32::new();
    crc.update(&kind.to_le_bytes());
    crc.update(&len.to_le_bytes());
    crc.update(&zeros[..4]);
    crc.update(payload);
    crc.update(&zeros[..pad]);
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&zeros[..4]);
    out.extend_from_slice(payload);
    out.extend_from_slice(&zeros[..pad]);
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn u32s_to_bytes(values: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn bytes_to_words(bytes: &[u8], offset: u64) -> Result<Vec<u64>, LogError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt(offset, "word section length not a multiple of 8"));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

fn bytes_to_u32s(bytes: &[u8], offset: u64) -> Result<Vec<u32>, LogError> {
    if !bytes.len().is_multiple_of(4) {
        return Err(corrupt(offset, "u32 section length not a multiple of 4"));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

/// Serializes `snapshot` to `path`, packing a plain-backend quotient into
/// the succinct form first. The optional 2-hop index and pattern view are
/// *not* persisted — a loaded snapshot serves reachability by BFS over
/// the succinct quotient.
pub fn save_snapshot<P: AsRef<Path>>(snapshot: &Snapshot, path: P) -> Result<(), LogError> {
    let packed;
    let succinct: &CompressedCsr = match snapshot.quotient() {
        QuotientCsr::Succinct(c) => c,
        QuotientCsr::Plain(g) => {
            packed = CompressedCsr::from_csr(g);
            &packed
        }
    };
    let parts = succinct.parts();

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());

    let mut meta = Vec::new();
    meta.extend_from_slice(&snapshot.version().to_le_bytes());
    meta.extend_from_slice(&(snapshot.class_count() as u64).to_le_bytes());
    meta.extend_from_slice(&(parts.n as u64).to_le_bytes());
    meta.extend_from_slice(&(parts.m as u64).to_le_bytes());
    meta.extend_from_slice(&(parts.data_bits as u64).to_le_bytes());
    meta.extend_from_slice(&(parts.offsets.len() as u64).to_le_bytes());
    meta.extend_from_slice(&parts.k.to_le_bytes());
    meta.extend_from_slice(&parts.offsets.low_bit_width().to_le_bytes());
    meta.extend_from_slice(&parts.uniform_label.unwrap_or(Label(0)).0.to_le_bytes());
    meta.extend_from_slice(&u32::from(parts.uniform_label.is_none()).to_le_bytes());
    push_section(&mut out, SEC_META, &meta);

    let mut interner = Vec::new();
    interner.extend_from_slice(&(parts.interner.len() as u32).to_le_bytes());
    for i in 0..parts.interner.len() {
        let name = parts
            .interner
            .name(Label(i as u32))
            .expect("dense label ids");
        interner.extend_from_slice(&(name.len() as u32).to_le_bytes());
        interner.extend_from_slice(name.as_bytes());
    }
    push_section(&mut out, SEC_INTERNER, &interner);

    push_section(&mut out, SEC_DATA, &words_to_bytes(parts.data));
    push_section(
        &mut out,
        SEC_EF_LOW,
        &words_to_bytes(parts.offsets.low_words()),
    );
    push_section(
        &mut out,
        SEC_EF_HIGH,
        &words_to_bytes(parts.offsets.high_words()),
    );
    push_section(
        &mut out,
        SEC_HUB_ROWS,
        &u32s_to_bytes(parts.hub_rows.iter().copied()),
    );
    push_section(
        &mut out,
        SEC_HUB_OFFSETS,
        &u32s_to_bytes(parts.hub_offsets.iter().copied()),
    );
    push_section(
        &mut out,
        SEC_HUB_TARGETS,
        &u32s_to_bytes(parts.hub_targets.iter().map(|t| t.0)),
    );
    if parts.uniform_label.is_none() {
        push_section(
            &mut out,
            SEC_LABELS,
            &u32s_to_bytes(parts.per_node_labels.iter().map(|l| l.0)),
        );
    }
    push_section(
        &mut out,
        SEC_CLASS_OF,
        &u32s_to_bytes(snapshot.class_of_slice().iter().copied()),
    );
    let cyclic: Vec<u8> = snapshot
        .cyclic_slice()
        .iter()
        .map(|&c| u8::from(c))
        .collect();
    push_section(&mut out, SEC_CYCLIC, &cyclic);

    let mut file = File::create(path)?;
    file.write_all(&out)?;
    file.flush()?;
    Ok(())
}

/// One parsed section: its payload bytes and the file offset it started
/// at (for error reporting).
struct Section {
    offset: u64,
    payload: Vec<u8>,
}

/// A little-endian cursor over one section's payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
}

impl<'a> Cursor<'a> {
    fn new(sec: &'a Section) -> Cursor<'a> {
        Cursor {
            bytes: &sec.payload,
            pos: 0,
            offset: sec.offset,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LogError> {
        let out = self
            .bytes
            .get(self.pos..self.pos + n)
            .ok_or_else(|| corrupt(self.offset, "section payload truncated"))?;
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, LogError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, LogError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Parses and CRC-checks every section of a snapshot file.
fn read_sections(buf: &[u8]) -> Result<Vec<(u32, Section)>, LogError> {
    if buf.len() < 16 || &buf[..8] != MAGIC {
        return Err(corrupt(0, "not a snapshot file (bad magic)"));
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(8, format!("unsupported format version {version}")));
    }
    if buf[12..16] != [0, 0, 0, 0] {
        return Err(corrupt(12, "nonzero reserved header bytes"));
    }
    let mut sections = Vec::new();
    let mut pos = 16usize;
    while pos < buf.len() {
        let offset = pos as u64;
        let header = buf
            .get(pos..pos + 16)
            .ok_or_else(|| corrupt(offset, "truncated section header"))?;
        let kind = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let padded = len.div_ceil(8) * 8;
        let body = buf
            .get(pos + 16..pos + 16 + padded)
            .ok_or_else(|| corrupt(offset, "truncated section payload"))?;
        let mut crc = Crc32::new();
        crc.update(&kind.to_le_bytes());
        crc.update(&(len as u32).to_le_bytes());
        crc.update(&header[12..16]);
        crc.update(body);
        if crc.finish() != stored_crc {
            return Err(corrupt(offset, "crc32 mismatch on a snapshot section"));
        }
        sections.push((
            kind,
            Section {
                offset,
                payload: body[..len].to_vec(),
            },
        ));
        pos += 16 + padded;
    }
    Ok(sections)
}

/// Loads a snapshot file back into a serving [`Snapshot`] on the succinct
/// backend (no 2-hop index, no pattern view). Fails closed on truncation,
/// CRC mismatch, or any structural invariant violation.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Snapshot, LogError> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    let sections = read_sections(&buf)?;
    let find = |kind: u32| -> Result<&Section, LogError> {
        sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s)
            .ok_or_else(|| corrupt(buf.len() as u64, format!("missing section {kind}")))
    };

    let meta_sec = find(SEC_META)?;
    let mut meta = Cursor::new(meta_sec);
    let snapshot_version = meta.u64()?;
    let live_classes = meta.u64()? as usize;
    let n = meta.u64()? as usize;
    let m = meta.u64()? as usize;
    let data_bits = meta.u64()? as usize;
    let ef_n = meta.u64()? as usize;
    let k = meta.u32()?;
    let ef_l = meta.u32()?;
    let uniform_label = Label(meta.u32()?);
    let has_per_node_labels = meta.u32()? != 0;

    let interner_sec = find(SEC_INTERNER)?;
    let mut cur = Cursor::new(interner_sec);
    let mut interner = LabelInterner::new();
    let count = cur.u32()?;
    for _ in 0..count {
        let len = cur.u32()? as usize;
        let name = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| corrupt(interner_sec.offset, "label name is not UTF-8"))?;
        interner.intern(name);
    }
    if interner.len() != count as usize {
        return Err(corrupt(interner_sec.offset, "duplicate interned labels"));
    }

    let data = {
        let s = find(SEC_DATA)?;
        bytes_to_words(&s.payload, s.offset)?
    };
    let ef_low = {
        let s = find(SEC_EF_LOW)?;
        bytes_to_words(&s.payload, s.offset)?
    };
    let ef_high = {
        let s = find(SEC_EF_HIGH)?;
        bytes_to_words(&s.payload, s.offset)?
    };
    let offsets = EliasFano::from_parts(ef_n, ef_l, ef_low, ef_high)
        .map_err(|e| corrupt(meta_sec.offset, format!("row offsets: {e}")))?;
    let hub_rows = {
        let s = find(SEC_HUB_ROWS)?;
        bytes_to_u32s(&s.payload, s.offset)?
    };
    let hub_offsets = {
        let s = find(SEC_HUB_OFFSETS)?;
        bytes_to_u32s(&s.payload, s.offset)?
    };
    let hub_targets = {
        let s = find(SEC_HUB_TARGETS)?;
        bytes_to_u32s(&s.payload, s.offset)?
            .into_iter()
            .map(NodeId)
            .collect()
    };
    let labels = if has_per_node_labels {
        let s = find(SEC_LABELS)?;
        Some(
            bytes_to_u32s(&s.payload, s.offset)?
                .into_iter()
                .map(Label)
                .collect(),
        )
    } else {
        None
    };
    let gr = CompressedCsr::from_parts(
        n,
        m,
        k,
        data_bits,
        data,
        offsets,
        hub_rows,
        hub_offsets,
        hub_targets,
        labels,
        uniform_label,
        interner,
    )
    .map_err(|e| corrupt(meta_sec.offset, format!("succinct quotient: {e}")))?;

    let class_of = {
        let s = find(SEC_CLASS_OF)?;
        bytes_to_u32s(&s.payload, s.offset)?
    };
    let cyclic_sec = find(SEC_CYCLIC)?;
    if cyclic_sec.payload.iter().any(|&b| b > 1) {
        return Err(corrupt(cyclic_sec.offset, "cyclic flag out of range"));
    }
    let cyclic: Vec<bool> = cyclic_sec.payload.iter().map(|&b| b != 0).collect();
    let snapshot = Snapshot::from_loaded_parts(
        snapshot_version,
        QuotientCsr::Succinct(Arc::new(gr)),
        class_of,
        cyclic,
        live_classes,
    );
    // One flag per row; the node index must name rows below `n`, exactly
    // `live_classes` of them; `Gr` must be the acyclic, reduced quotient it
    // was saved as.
    snapshot
        .check_invariants()
        .map_err(|e| corrupt(meta_sec.offset, format!("snapshot invariant: {e}")))?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use qpgc_graph::LabeledGraph;
    use qpgc_reach::incremental::IncrementalReach;

    fn sample_snapshot() -> Snapshot {
        let mut g = LabeledGraph::new();
        for _ in 0..40 {
            g.add_node_with_label("X");
        }
        let mut s: u64 = 0x1234_5678;
        for _ in 0..120 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((s >> 33) % 40) as u32;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((s >> 33) % 40) as u32;
            g.add_edge(NodeId(u), NodeId(v));
        }
        Snapshot::build(7, &IncrementalReach::new(&g), None, &StoreConfig::default())
    }

    #[test]
    fn save_load_roundtrip_preserves_answers() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("qpgc_persist_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.version(), 7);
        assert_eq!(loaded.class_count(), snap.class_count());
        assert_eq!(loaded.node_count(), snap.node_count());
        assert!(loaded.quotient().as_plain().is_none());
        for u in 0..snap.node_count() as u32 {
            for w in 0..snap.node_count() as u32 {
                assert_eq!(
                    loaded.reachable(NodeId(u), NodeId(w)),
                    snap.reachable(NodeId(u), NodeId(w)),
                    "({u},{w})"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_fails_closed() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("qpgc_persist_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every proper prefix must be rejected, never served partially.
        for cut in [full.len() - 1, full.len() / 2, 20, 7, 0] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                load_snapshot(&path).is_err(),
                "prefix of {cut} bytes must fail closed"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_crc_fails_closed() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("qpgc_persist_crc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in every 64th byte past the header; each flip must
        // be caught by a section CRC (or the header check).
        for i in (16..full.len()).step_by(64) {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load_snapshot(&path).is_err(),
                "bit flip at byte {i} must fail closed"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Valid CRCs over a node index that names rows past the id space: the
    /// file must not load (serving it would index the cyclic flags past
    /// their end on the first same-class query).
    #[test]
    fn forged_class_of_fails_closed() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("qpgc_persist_forged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let n = snap.quotient().node_count() as u32;
        let full = std::fs::read(&path).unwrap();
        let mut forged = full[..16].to_vec();
        for (kind, sec) in read_sections(&full).unwrap() {
            let mut payload = sec.payload;
            if kind == SEC_CLASS_OF {
                payload[..8].copy_from_slice(&u32s_to_bytes([n + 3, n + 3]));
            }
            push_section(&mut forged, kind, &payload);
        }
        std::fs::write(&path, &forged).unwrap();
        match load_snapshot(&path) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("outside the id space"))
            }
            other => panic!("a forged node index loaded: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
