//! Seeded mutation fuzz over the on-disk decoders: `UpdateLog::read` and
//! `load_snapshot`.
//!
//! The unmutated log must first read back as exactly what was logged, and
//! recover and boot to stores that answer like BFS: a writer whose output
//! no reader gives back fails there, whatever its mutants do.
//!
//! Mutants flip a bit, truncate, or rewrite an aligned 4- or 8-byte field
//! to a hostile value, and most are re-framed with valid CRCs so they get
//! past the framing to the structural checks. Every outcome must be `Err`,
//! or a value that holds up: a log whose recovered store, and whose store
//! booted from a snapshot saved mid-stream, pass `check_invariants` and
//! answer all pairs like BFS on the replayed graph, a snapshot that passes
//! `check_invariants` and answers all pairs.
//! No decoder may panic, and no value may be larger than a small multiple
//! of the bytes it was decoded from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use qpgc_graph::traversal::bfs_reachable;
use qpgc_graph::{Label, LabeledGraph, NodeId, UpdateBatch};
use qpgc_serve::{load_snapshot, CompressedStore, StoreConfig, UpdateLog};
use qpgc_tests::{random_batch, random_graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MUTANTS: usize = 600;

/// CRC-32 (IEEE, reflected), the checksum of the framing both files share.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for &b in chunks.iter().flat_map(|c| c.iter()) {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// A hostile replacement for a field that held `old`: a flipped bit, a
/// boundary value, or a near miss.
fn hostile(rng: &mut StdRng, old: u64) -> u64 {
    let flip = old ^ 1 << rng.gen_range(0..64u32);
    let menu = [
        flip,
        0,
        1,
        old.wrapping_add(1),
        old.wrapping_sub(1),
        old << 3,
        1 << 31,
        u64::MAX,
    ];
    menu[rng.gen_range(0..menu.len())]
}

/// Damages `bytes` once: a flipped bit, a truncation, or an aligned 4- or
/// 8-byte field rewritten to a [`hostile`] value.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let width = [4, 8][rng.gen_range(0..2usize)];
    match rng.gen_range(0..3) {
        _ if bytes.len() < width => bytes.clear(),
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let at = rng.gen_range(0..=(bytes.len() - width) / width) * width;
            let mut old = [0u8; 8];
            old[..width].copy_from_slice(&bytes[at..at + width]);
            let new = hostile(rng, u64::from_le_bytes(old)).to_le_bytes();
            bytes[at..at + width].copy_from_slice(&new[..width]);
        }
    }
}

/// Runs `MUTANTS` mutants through `decodes`, which reports whether its
/// mutant decoded. None may panic, and both outcomes must occur, or the
/// mutations test nothing.
fn fuzz(decoder: &str, rng: &mut StdRng, mut decodes: impl FnMut(&mut StdRng, usize) -> bool) {
    let mut decoded = 0;
    for i in 0..MUTANTS {
        let ok = catch_unwind(AssertUnwindSafe(|| decodes(rng, i)));
        decoded += usize::from(ok.unwrap_or_else(|_| panic!("{decoder} mutant {i} panicked")));
    }
    assert!(
        0 < decoded && decoded < MUTANTS,
        "{decoder}: {decoded} of {MUTANTS} decoded"
    );
}

/// The records of a file in the framing both files share:
/// `[u32 len][u8 kind][payload][u32 crc of kind ‖ payload]`.
fn records(file: &[u8]) -> Vec<(u8, Vec<u8>)> {
    let (mut out, mut pos) = (Vec::new(), 0);
    while pos < file.len() {
        let len = u32::from_le_bytes(file[pos..pos + 4].try_into().unwrap()) as usize;
        out.push((file[pos + 4], file[pos + 5..pos + 5 + len].to_vec()));
        pos += len + 9;
    }
    out
}

/// `records` framed into a file, each with a valid CRC.
fn framed(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let frame = |(kind, payload): &(u8, Vec<u8>)| {
        let len = (payload.len() as u32).to_le_bytes();
        let crc = crc32(&[&[*kind], payload]).to_le_bytes();
        [&len[..], &[*kind], payload, &crc].concat()
    };
    records.iter().flat_map(frame).collect()
}

/// A mutant of `file`: one record's payload mutated, or now and then its
/// kind, and the records re-framed; or, one time in five, a raw mutation of
/// the whole file that no CRC is recomputed for.
fn mutant(rng: &mut StdRng, file: &[u8]) -> Vec<u8> {
    if rng.gen_bool(0.2) {
        let mut bytes = file.to_vec();
        mutate(rng, &mut bytes);
        return bytes;
    }
    let mut records = records(file);
    let at = rng.gen_range(0..records.len());
    let (kind, payload) = &mut records[at];
    match rng.gen_bool(0.1) {
        true => *kind ^= 1 << rng.gen_range(0..8u32),
        false => mutate(rng, payload),
    }
    framed(&records)
}

/// What a log must give back of a graph: its node labels, its interner's
/// names in id order and its edges, sorted.
type Parts = (Vec<Label>, Vec<String>, Vec<(NodeId, NodeId)>);

fn parts(g: &LabeledGraph) -> Parts {
    let names = (0..).map_while(|id| g.interner().name(Label(id)));
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_unstable();
    (
        g.labels().to_vec(),
        names.map(str::to_owned).collect(),
        edges,
    )
}

/// `store` passes `check_invariants` and answers every pair like BFS on `g`.
fn answers_like_bfs(store: &CompressedStore, g: &LabeledGraph, ctx: &str) {
    let cut = store.load();
    assert_eq!(cut.check_invariants(), Ok(()), "{ctx}");
    for (u, w) in g.nodes().flat_map(|u| g.nodes().map(move |w| (u, w))) {
        assert_eq!(cut.reachable(u, w), bfs_reachable(g, u, w), "{ctx}");
    }
}

/// The log: a base record, then a record per batch. Its graph holds an
/// empty label name and a label with no name, so the mutants reach every
/// part of the base record's label table. Before any mutant, the clean log
/// must read back as exactly the base graph and the four batches, and
/// recover and boot to stores that answer like BFS.
fn fuzz_update_log(rng: &mut StdRng, dir: &Path) {
    let (mut g, path) = (random_graph(rng, 16, false), dir.join("log"));
    g.add_node_with_label("");
    g.add_node(Label(77));
    let base = g.clone();
    let snap = dir.join("log.snap");
    let store = CompressedStore::new_with_log(g.clone(), StoreConfig::default(), &path).unwrap();
    let mut batches = Vec::new();
    for i in 0..4 {
        let batch = random_batch(rng, g.node_count(), 3, 0.6, false);
        store.try_apply(&batch).unwrap();
        batch.apply_to(&mut g);
        if i == 1 {
            store.save_snapshot(&snap).unwrap();
        }
        batches.push(batch);
    }
    let clean = UpdateLog::read(&path).expect("the clean log reads");
    assert_eq!(
        parts(&clean.graph),
        parts(&base),
        "the clean log's base graph"
    );
    let updates = |bs: &[UpdateBatch]| bs.iter().map(|b| b.updates().to_vec()).collect::<Vec<_>>();
    assert_eq!(
        updates(&clean.batches),
        updates(&batches),
        "the clean log's batches"
    );
    let recovered = CompressedStore::recover_from_log(&path, StoreConfig::default());
    let booted = CompressedStore::boot_from_snapshot(&snap, &path, StoreConfig::default());
    for (how, store) in [("recovered", recovered), ("booted", booted)] {
        let ctx = format!("the clean log, {how}");
        answers_like_bfs(&store.unwrap_or_else(|e| panic!("{ctx}: {e}")), &g, &ctx);
    }
    let log = std::fs::read(&path).unwrap();
    assert_eq!(framed(&records(&log)), log, "the log's records");
    fuzz("UpdateLog::read", rng, |rng, i| {
        let bytes = mutant(rng, &log);
        std::fs::write(&path, &bytes).unwrap();
        let booted = CompressedStore::boot_from_snapshot(&snap, &path, StoreConfig::default());
        let Ok(contents) = UpdateLog::read(&path) else {
            assert!(booted.is_err(), "log mutant {i} booted without a log");
            return false;
        };
        let mut g = contents.graph;
        let updates: usize = contents.batches.iter().map(|b| b.len()).sum();
        assert!(
            g.node_count() + g.edge_count() + updates <= bytes.len(),
            "log mutant {i}"
        );
        let recovered = CompressedStore::recover_from_log(&path, StoreConfig::default());
        // A store of either kind validated every batch, so the edges replay.
        if recovered.is_ok() || booted.is_ok() {
            contents.batches.iter().for_each(|b| b.apply_to(&mut g));
        }
        for (how, store) in [("recovered", recovered), ("booted", booted)] {
            if let Ok(store) = store {
                answers_like_bfs(&store, &g, &format!("log mutant {i}, {how}"));
            }
        }
        true
    });
}

/// The snapshot file: one record of kind 2, in the log's framing.
fn fuzz_snapshot_file(rng: &mut StdRng, dir: &Path) {
    let mut g = random_graph(rng, 24, false);
    let store = CompressedStore::new(g.clone(), StoreConfig::default());
    for _ in 0..3 {
        let batch = random_batch(rng, g.node_count(), 3, 0.6, false);
        store.try_apply(&batch).unwrap();
        batch.apply_to(&mut g);
    }
    let path = dir.join("snap");
    store.save_snapshot(&path).unwrap();
    let file = std::fs::read(&path).unwrap();
    let record = records(&file);
    assert_eq!(record.len(), 1, "the snapshot file's records");
    assert_eq!(framed(&record), file, "the snapshot file's record");
    fuzz("load_snapshot", rng, |rng, i| {
        let bytes = mutant(rng, &file);
        std::fs::write(&path, &bytes).unwrap();
        let Ok(snap) = load_snapshot(&path) else {
            return false;
        };
        assert_eq!(snap.check_invariants(), Ok(()), "snapshot mutant {i}");
        assert!(snap.heap_bytes() <= 4 * bytes.len(), "snapshot mutant {i}");
        let nodes = (0..snap.node_count() as u32 + 2).map(NodeId);
        for u in nodes.clone() {
            nodes.clone().for_each(|w| _ = snap.reachable(u, w));
        }
        true
    });
}

#[test]
fn decoders_fail_closed_on_mutated_bytes() {
    let dir = std::env::temp_dir().join(format!("qpgc_decoder_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF022);
    fuzz_update_log(&mut rng, &dir);
    fuzz_snapshot_file(&mut rng, &dir);
    std::fs::remove_dir_all(&dir).ok();
}
