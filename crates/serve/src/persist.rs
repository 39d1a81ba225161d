//! On-disk snapshot persistence: the served cut's plain parts, frozen to a
//! file.
//!
//! The [`UpdateLog`](crate::wal::UpdateLog) alone recovers a store: its
//! edges, compressed once. A snapshot file adds a check, not speed:
//! [`CompressedStore::boot_from_snapshot`](crate::CompressedStore::boot_from_snapshot)
//! compresses the log's graph at the file's version, requires the file to
//! be that cut, and maintains the batches past it.
//!
//! ## File layout
//!
//! This module is the only one that knows the layout. It holds the cut's
//! plain parts, whatever backend the store serves: `Gr` is written from
//! [`QuotientCsr::to_plain_arc`], so a succinct snapshot is decoded on
//! save, and the file is independent of the in-memory coder.
//!
//! ```text
//! [8B magic "QPGCSNP\x01"] [u32 format version = 2] [u32 reserved = 0]
//! then five sections in this order, each 8-byte aligned:
//! [u32 kind] [u32 payload-len] [u32 crc32] [u32 zero] [payload…] [zero pad to 8]
//!   1 header    u64 version, u64 live classes, u64 rows, u64 edges
//!   2 class_of  u32 per node: its row of Gr
//!   3 cyclic    u8 per row: 0 or 1
//!   4 offsets   u32 per row + 1: Gr's CSR row offsets
//!   5 targets   u32 per edge: Gr's CSR targets, ascending in each row
//! ```
//!
//! Every integer is little-endian. The CRC (the same hand-rolled IEEE
//! CRC-32 the update log frames its records with) covers every section
//! byte except the CRC field itself: `kind ‖ len ‖ zero ‖ payload ‖ pad`,
//! so no file byte past the header is unprotected. The optional 2-hop index
//! and pattern view are not persisted: a loaded snapshot answers by BFS over
//! `Gr`, which is BFS-exact, and a booted *store* serves the snapshot it
//! rebuilt, index included.
//!
//! ## Fail-closed reading
//!
//! Loading validates, in order: the magic and format version, every
//! section frame (a frame extending past EOF is a truncated file, not a
//! tolerated tail — unlike the append-only log, a snapshot file is
//! written whole), every CRC and the section order. It then checks every
//! count against its section's length before anything is sized by it,
//! the offsets as a prefix sum of the targets, and every row as ascending
//! targets below the row count. Last, it runs the snapshot's own
//! [`Snapshot::check_invariants`]: the node index names live rows only,
//! and `Gr` is acyclic and reduced. A file rewritten with valid CRCs
//! therefore still cannot load a snapshot whose queries would index past a
//! row. Any failure returns [`LogError::Corrupt`] and no partial snapshot.
//!
//! ## Replacing a file
//!
//! [`save_snapshot`] writes the whole file beside its target (the target's
//! name with `.tmp` appended), syncs it, and renames it over the target,
//! so a save that fails part-way leaves the previous file as it was. The
//! directory is not synced: after a power loss the name may still point at
//! the previous file, which is whole.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use qpgc_fault::fail_point;
use qpgc_graph::NodeId;

use crate::error::LogError;
use crate::snapshot::{quotient_csr, QuotientCsr, Snapshot};
use crate::wal::Crc32;

const MAGIC: &[u8; 8] = b"QPGCSNP\x01";
const FORMAT_VERSION: u32 = 2;

const SEC_META: u32 = 1;
const SEC_CLASS_OF: u32 = 2;
const SEC_CYCLIC: u32 = 3;
const SEC_OFFSETS: u32 = 4;
const SEC_TARGETS: u32 = 5;
/// Sections a file holds, kinds `1..=SECTIONS` in order.
const SECTIONS: usize = 5;

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

fn u32s_to_bytes(values: impl IntoIterator<Item = u32>) -> Vec<u8> {
    values.into_iter().flat_map(u32::to_le_bytes).collect()
}

/// Serializes `snapshot` to `path` in the plain layout of the
/// [module docs](self), decoding a succinct quotient first. The optional
/// 2-hop index and pattern view are *not* persisted. The file is written
/// beside `path` and renamed over it, so a failed save leaves the previous
/// file intact.
pub fn save_snapshot<P: AsRef<Path>>(snapshot: &Snapshot, path: P) -> Result<(), LogError> {
    let gr = snapshot.quotient().to_plain_arc();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    let meta = [
        snapshot.version(),
        snapshot.class_count() as u64,
        gr.node_count() as u64,
        gr.edge_count() as u64,
    ];
    push_section(&mut out, SEC_META, &meta.map(u64::to_le_bytes).concat());
    push_section(
        &mut out,
        SEC_CLASS_OF,
        &u32s_to_bytes(snapshot.class_of_slice().iter().copied()),
    );
    let cyclic: Vec<u8> = snapshot.cyclic_slice().iter().map(|&c| c.into()).collect();
    push_section(&mut out, SEC_CYCLIC, &cyclic);
    let mut end = 0;
    let offsets = gr.nodes().map(|v| {
        end += gr.out_degree(v) as u32;
        end
    });
    push_section(
        &mut out,
        SEC_OFFSETS,
        &u32s_to_bytes(std::iter::once(0).chain(offsets)),
    );
    push_section(
        &mut out,
        SEC_TARGETS,
        &u32s_to_bytes(gr.edges().map(|(_, t)| t.0)),
    );

    let path = path.as_ref();
    let mut aside = path.as_os_str().to_owned();
    aside.push(".tmp");
    let mut file = File::create(&aside)?;
    file.write_all(&out)?;
    // On disk before the rename can publish it: a crash then leaves the
    // previous file or the whole new one, never an empty one.
    file.sync_all()?;
    fail_point!("persist/save");
    std::fs::rename(&aside, path)?;
    Ok(())
}

/// One parsed section: its payload and the file offset it started at (for
/// error reporting).
struct Section<'a> {
    offset: u64,
    payload: &'a [u8],
}

impl Section<'_> {
    fn u32s(&self) -> Result<Vec<u32>, LogError> {
        if !self.payload.len().is_multiple_of(4) {
            return Err(corrupt(
                self.offset,
                "u32 section length not a multiple of 4",
            ));
        }
        Ok(self
            .payload
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

/// Parses and CRC-checks the header and the [`SECTIONS`] sections of a
/// snapshot file, which must come in kind order.
fn read_sections(buf: &[u8]) -> Result<[Section<'_>; SECTIONS], LogError> {
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
    let mut sections = Vec::with_capacity(SECTIONS);
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
        let expected = sections.len() as u32 + 1;
        if kind != expected {
            return Err(corrupt(
                offset,
                format!("section {kind} where {expected} belongs"),
            ));
        }
        sections.push(Section {
            offset,
            payload: &body[..len],
        });
        pos += 16 + padded;
    }
    let found = sections.len();
    sections
        .try_into()
        .map_err(|_| corrupt(buf.len() as u64, format!("{found} of {SECTIONS} sections")))
}

/// Loads a snapshot file back into a serving [`Snapshot`] on the plain
/// backend (no 2-hop index, no pattern view). Fails closed on truncation,
/// CRC mismatch, or any structural invariant violation.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Snapshot, LogError> {
    let buf = std::fs::read(path)?;
    let [meta, class_of, cyclic, offsets, targets] = read_sections(&buf)?;
    if meta.payload.len() != 32 {
        return Err(corrupt(meta.offset, "header section is not four words"));
    }
    let word = |i: usize| u64::from_le_bytes(meta.payload[8 * i..][..8].try_into().expect("8"));
    let [version, live_classes, rows, edges] = [0, 1, 2, 3].map(word);

    // Every count against its section's length, before anything is sized
    // by it: the cyclic flags bound `rows` by the file's own length.
    if cyclic.payload.len() as u64 != rows {
        return Err(corrupt(
            cyclic.offset,
            format!("cyclic flags for {rows} rows"),
        ));
    }
    if cyclic.payload.iter().any(|&b| b > 1) {
        return Err(corrupt(cyclic.offset, "cyclic flag out of range"));
    }
    let rows = rows as usize;
    let row_ends = offsets.u32s()?;
    if row_ends.len() != rows + 1 {
        return Err(corrupt(
            offsets.offset,
            format!("row offsets for {rows} rows"),
        ));
    }
    let heads = targets.u32s()?;
    if heads.len() as u64 != edges {
        return Err(corrupt(
            targets.offset,
            format!("targets for {edges} edges"),
        ));
    }
    if row_ends[0] != 0
        || row_ends[rows] as usize != heads.len()
        || row_ends.windows(2).any(|w| w[0] > w[1])
    {
        return Err(corrupt(
            offsets.offset,
            "row offsets do not split the targets",
        ));
    }
    let mut gr = Vec::with_capacity(heads.len());
    for (r, ends) in row_ends.windows(2).enumerate() {
        let row = &heads[ends[0] as usize..ends[1] as usize];
        if row.windows(2).any(|w| w[0] >= w[1]) || row.last().is_some_and(|&t| t as usize >= rows) {
            let detail = format!("row {r} is not ascending below {rows} rows");
            return Err(corrupt(targets.offset, detail));
        }
        gr.extend(row.iter().map(|&t| (NodeId(r as u32), NodeId(t))));
    }

    let snapshot = Snapshot::from_loaded_parts(
        version,
        QuotientCsr::Plain(Arc::new(quotient_csr(rows, gr))),
        class_of.u32s()?,
        cyclic.payload.iter().map(|&b| b == 1).collect(),
        live_classes as usize,
    );
    // The node index must name rows below `rows`, exactly `live_classes`
    // of them; `Gr` must be the acyclic, reduced quotient it was saved as.
    snapshot
        .check_invariants()
        .map_err(|e| corrupt(meta.offset, format!("snapshot invariant: {e}")))?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotFormat;
    use crate::store::StoreConfig;
    use qpgc_graph::LabeledGraph;
    use qpgc_reach::incremental::IncrementalReach;

    fn sample_snapshot(snapshot_format: SnapshotFormat) -> Snapshot {
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
        let config = StoreConfig {
            snapshot_format,
            ..StoreConfig::default()
        };
        Snapshot::build(7, &IncrementalReach::new(&g), None, &config)
    }

    /// Either backend saves; both load back on the plain one, answering
    /// every pair as the saved snapshot does.
    #[test]
    fn save_load_roundtrip_preserves_answers() {
        let dir = std::env::temp_dir().join("qpgc_persist_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        for format in [SnapshotFormat::Plain, SnapshotFormat::Succinct] {
            let snap = sample_snapshot(format);
            save_snapshot(&snap, &path).unwrap();
            let loaded = load_snapshot(&path).unwrap();
            assert_eq!(loaded.version(), 7);
            assert_eq!(loaded.class_count(), snap.class_count());
            assert_eq!(loaded.node_count(), snap.node_count());
            assert!(loaded.quotient().as_plain().is_some(), "{format:?}");
            assert_eq!(loaded.same_cut(&snap), Ok(()), "{format:?}");
            for u in 0..snap.node_count() as u32 {
                for w in 0..snap.node_count() as u32 {
                    assert_eq!(
                        loaded.reachable(NodeId(u), NodeId(w)),
                        snap.reachable(NodeId(u), NodeId(w)),
                        "{format:?} ({u},{w})"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_fails_closed() {
        let snap = sample_snapshot(SnapshotFormat::Plain);
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
        let snap = sample_snapshot(SnapshotFormat::Plain);
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
        let snap = sample_snapshot(SnapshotFormat::Plain);
        let dir = std::env::temp_dir().join("qpgc_persist_forged");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let n = snap.quotient().node_count() as u32;
        let full = std::fs::read(&path).unwrap();
        let mut forged = full[..16].to_vec();
        for (i, sec) in read_sections(&full).unwrap().iter().enumerate() {
            let (kind, mut payload) = (i as u32 + 1, sec.payload.to_vec());
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

    /// A file of the previous format, which held the succinct coder's
    /// internals, is not read as this one.
    #[test]
    fn format_version_1_fails_closed() {
        let dir = std::env::temp_dir().join("qpgc_persist_v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&sample_snapshot(SnapshotFormat::Plain), &path).unwrap();
        let mut old = std::fs::read(&path).unwrap();
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        match load_snapshot(&path) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("unsupported format version 1"), "{detail}")
            }
            other => panic!("a version-1 file loaded: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
