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
//! A snapshot file is one record of kind 2 in the update log's framing
//! (see [`crate::wal`]): `[u32 len] [u8 2] [payload…] [u32 crc32]`, the
//! CRC over the kind and the payload. It holds the cut's plain parts,
//! whatever backend the store serves: `Gr` is written from
//! [`QuotientCsr::to_plain_arc`], so a succinct snapshot is decoded on
//! save, and the file is independent of the in-memory coder. The payload,
//! every integer a little-endian `u32`:
//!
//! ```text
//! [version low] [version high] [live classes] [rows]
//! [u8 cyclic flag: 0 or 1] per row
//! [node count] [row of Gr] per node
//! [CSR offset] per row + 1, from 0 to the edge count
//! [target] per edge, ascending in each row
//! ```
//!
//! The optional 2-hop index and pattern view are not persisted: a loaded
//! snapshot answers by BFS over `Gr`, which is BFS-exact, and a booted
//! *store* serves the snapshot it rebuilt, index included.
//!
//! ## Fail-closed reading
//!
//! Loading reads the file with the log's record reader and accepts exactly
//! one whole record of kind 2. A record that runs past the end of the file
//! is a truncated file, not a tolerated tail — unlike the append-only log,
//! a snapshot file is written whole — and an update log, whose records are
//! of kinds 0 and 1, is not a snapshot file. The payload is read through
//! the log's cursor: every count is checked against the bytes left before
//! anything is sized by it, and a trailing byte is rejected. Then the
//! cyclic flags must be 0 or 1, the offsets must split the targets, and
//! every row must be ascending targets below the row count. Last,
//! [`Snapshot::check_invariants`] runs: the node index names live rows
//! only, and `Gr` is acyclic and reduced. A file rewritten with a valid CRC
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
use crate::wal::{corrupt, frame, put, records, words, Cursor, Record, KIND_SNAPSHOT};

/// Serializes `snapshot` to `path` in the plain layout of the
/// [module docs](self), decoding a succinct quotient first. The optional
/// 2-hop index and pattern view are *not* persisted. The file is written
/// beside `path` and renamed over it, so a failed save leaves the previous
/// file intact.
pub fn save_snapshot<P: AsRef<Path>>(snapshot: &Snapshot, path: P) -> Result<(), LogError> {
    let gr = snapshot.quotient().to_plain_arc();
    let (version, class_of) = (snapshot.version(), snapshot.class_of_slice());
    let count = |n: usize| u32::try_from(n).expect("count fits u32");
    let mut payload = Vec::new();
    put(
        &mut payload,
        [
            version as u32,
            (version >> 32) as u32,
            count(snapshot.class_count()),
            count(gr.node_count()),
        ],
    );
    payload.extend(snapshot.cyclic_slice().iter().map(|&c| u8::from(c)));
    put(&mut payload, [count(class_of.len())]);
    put(&mut payload, class_of.iter().copied());
    let mut end = 0;
    let row_ends = gr.nodes().map(|v| {
        end += gr.out_degree(v) as u32;
        end
    });
    put(&mut payload, std::iter::once(0).chain(row_ends));
    put(&mut payload, gr.edges().map(|(_, t)| t.0));

    let path = path.as_ref();
    let mut aside = path.as_os_str().to_owned();
    aside.push(".tmp");
    let mut file = File::create(&aside)?;
    file.write_all(&frame(KIND_SNAPSHOT, &payload))?;
    // On disk before the rename can publish it: a crash then leaves the
    // previous file or the whole new one, never an empty one.
    file.sync_all()?;
    fail_point!("persist/save");
    std::fs::rename(&aside, path)?;
    Ok(())
}

/// Loads a snapshot file back into a serving [`Snapshot`] on the plain
/// backend (no 2-hop index, no pattern view). Fails closed on truncation,
/// CRC mismatch, or any structural invariant violation.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Snapshot, LogError> {
    let buf = std::fs::read(path)?;
    let (records, end) = records(&buf)?;
    if end < buf.len() {
        return Err(corrupt(
            end as u64,
            "a record runs past the end of the file",
        ));
    }
    let [Record {
        offset,
        kind: KIND_SNAPSHOT,
        payload,
    }] = records[..]
    else {
        return Err(corrupt(0, "not one record of the snapshot kind"));
    };
    decode(payload).map_err(|detail| corrupt(offset, format!("snapshot record: {detail}")))
}

/// The snapshot a record's payload holds, checked as the
/// [module docs](self) say.
fn decode(payload: &[u8]) -> Result<Snapshot, String> {
    let mut rest = Cursor(payload);
    let mut header = [0; 4];
    for word in &mut header {
        *word = rest.count().ok_or("header past the payload")?;
    }
    let [low, high, live_classes, rows] = header;
    let cyclic = rest.take(rows, 1).ok_or("cyclic flags past the payload")?;
    if cyclic.iter().any(|&b| b > 1) {
        return Err("cyclic flag out of range".into());
    }
    let nodes = rest.count().ok_or("no node count")?;
    let class_of = rest.take(nodes, 4).ok_or("node index past the payload")?;
    let offsets = rest
        .take(rows + 1, 4)
        .ok_or("row offsets past the payload")?;
    let row_ends: Vec<u32> = words(offsets).collect();
    let targets = rest.take(row_ends[rows] as usize, 4);
    let heads: Vec<u32> = words(targets.ok_or("targets past the payload")?).collect();
    if !rest.0.is_empty() {
        return Err("trailing bytes".into());
    }
    if row_ends[0] != 0 || row_ends.windows(2).any(|w| w[0] > w[1]) {
        return Err("row offsets do not split the targets".into());
    }
    let mut gr = Vec::with_capacity(heads.len());
    for (r, ends) in row_ends.windows(2).enumerate() {
        let row = &heads[ends[0] as usize..ends[1] as usize];
        if row.windows(2).any(|w| w[0] >= w[1]) || row.last().is_some_and(|&t| t as usize >= rows) {
            return Err(format!("row {r} is not ascending below {rows} rows"));
        }
        gr.extend(row.iter().map(|&t| (NodeId(r as u32), NodeId(t))));
    }
    let snapshot = Snapshot::from_loaded_parts(
        (high as u64) << 32 | low as u64,
        QuotientCsr::Plain(Arc::new(quotient_csr(rows, gr))),
        words(class_of).collect(),
        cyclic.iter().map(|&b| b == 1).collect(),
        live_classes,
    );
    // The node index must name rows below `rows`, exactly `live_classes`
    // of them; `Gr` must be the acyclic, reduced quotient it was saved as.
    snapshot
        .check_invariants()
        .map_err(|e| format!("snapshot invariant: {e}"))?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotFormat;
    use crate::store::StoreConfig;
    use crate::wal::UpdateLog;
    use qpgc_graph::{LabeledGraph, UpdateBatch};
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

    /// A flipped bit anywhere fails the load, and the error names neither
    /// file: a snapshot file is not the update log.
    #[test]
    fn corrupted_crc_fails_closed() {
        let snap = sample_snapshot(SnapshotFormat::Plain);
        let dir = std::env::temp_dir().join("qpgc_persist_crc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qpgc");
        save_snapshot(&snap, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in every 64th byte; each flip must be caught by the
        // record's CRC or its length prefix.
        for i in (0..full.len()).step_by(64) {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            let err = load_snapshot(&path).expect_err("a bit flip must fail closed");
            let store_err = crate::StoreError::from(err);
            assert!(!store_err.to_string().contains("update log"), "{store_err}");
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
        // The node index starts past the header, the flags and its count.
        let mut payload = records(&full).unwrap().0[0].payload.to_vec();
        let at = 16 + n as usize + 4;
        payload[at..at + 8].copy_from_slice(&[(n + 3).to_le_bytes(); 2].concat());
        std::fs::write(&path, frame(KIND_SNAPSHOT, &payload)).unwrap();
        match load_snapshot(&path) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("outside the id space"))
            }
            other => panic!("a forged node index loaded: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Neither file reads as the other: a file of the previous section
    /// layout and an update log fail `load_snapshot`, and a snapshot file
    /// fails `UpdateLog::read`.
    #[test]
    fn each_file_fails_closed_as_the_other() {
        let dir = std::env::temp_dir().join("qpgc_persist_kinds");
        std::fs::create_dir_all(&dir).unwrap();
        let (snap, log) = (dir.join("snap.qpgc"), dir.join("log"));
        save_snapshot(&sample_snapshot(SnapshotFormat::Plain), &snap).unwrap();
        let record = std::fs::read(&snap).unwrap();

        let old = [b"QPGCSNP\x01", &[2, 0, 0, 0, 0, 0, 0, 0][..], &record].concat();
        std::fs::write(&snap, old).unwrap();
        assert!(load_snapshot(&snap).is_err(), "the old section layout");

        let mut g = LabeledGraph::new();
        let v = [0; 3].map(|_| g.add_node_with_label("X"));
        g.add_edge(v[0], v[1]);
        let mut writer = UpdateLog::create(&log, &g).unwrap();
        assert!(load_snapshot(&log).is_err(), "a log of its base record");
        let mut batch = UpdateBatch::new();
        batch.insert(v[1], v[2]);
        writer.append(&batch).unwrap();
        assert!(load_snapshot(&log).is_err(), "a log of two records");

        std::fs::write(&snap, &record).unwrap();
        match UpdateLog::read(&snap) {
            Err(LogError::Corrupt { detail, .. }) => {
                assert!(detail.contains("unknown record kind 2"), "{detail}")
            }
            other => panic!("a snapshot file read as a log: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
