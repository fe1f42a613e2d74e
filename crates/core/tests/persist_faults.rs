//! Crash-consistency and corruption-sweep tests for the persistence
//! layer.
//!
//! The properties verified here are the acceptance criteria for the
//! fault-tolerance layer:
//!
//! 1. **Crash consistency** — for *every* fault point during
//!    `save_file`, a subsequent `load_file` of the target path succeeds
//!    and the file on disk is bit-identical to either the old snapshot
//!    or the new one, never a partial state.
//! 2. **Corruption detection** — every truncation point and every
//!    single-bit flip over a saved multi-`FeatureSpec` database yields
//!    a typed `CoreError::Persist` naming the section (and, through
//!    `load_file`, the path) — never a panic and never silently wrong
//!    data.
//! 3. **One container** — what `save_file` writes is a store segment:
//!    save → load → save is byte-identical and the file serves as
//!    `seg-00000000.seg` of a store. A checked-in `CBIRDB02` image (the
//!    format `cbir index` wrote before) still imports, content pinned.

use cbir_core::faults::{CountOps, FailAtOp, FlipBitAt, NoFaults, TornWriteAt};
use cbir_core::persist::{
    encode_manifest, fsck_dir, fsck_slice, load_file, load_from_slice, parse_segment, save_file,
    save_file_with, save_to_vec, segment_file_name, Manifest, ManifestEntry, MANIFEST_FILE,
};
use cbir_core::{
    CoreError, CorpusSnapshot, CorpusStore, ImageDatabase, ImageMeta, IndexKind, QueryEngine,
    StoreOptions,
};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_image::{Rgb, RgbImage};
use cbir_index::BatchStats;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A multi-spec pipeline so the config section exercises several
/// encoders and the descriptor matrix is non-trivial.
fn pipeline() -> Pipeline {
    Pipeline::new(
        24,
        vec![
            FeatureSpec::ColorHistogram(Quantizer::hsv_default()),
            FeatureSpec::ColorMoments,
            FeatureSpec::Glcm { levels: 8 },
            FeatureSpec::EdgeOrientation { bins: 8 },
        ],
    )
    .unwrap()
}

fn db_with(n: usize, seed: u8) -> ImageDatabase {
    let mut db = ImageDatabase::new(pipeline());
    for i in 0..n {
        let img = RgbImage::from_fn(20, 20, |x, y| {
            let v = (x as usize * 7 + y as usize * 13 + i * 31 + seed as usize) as u8;
            Rgb::new(v, v.wrapping_mul(3), v.wrapping_add(seed))
        });
        db.insert_labeled(format!("img_{seed}_{i}.ppm"), (i % 4) as u32, &img)
            .unwrap();
    }
    db
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cbir_persist_faults_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_no_temp_droppings(dir: &Path) {
    let stray: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "temp files left behind: {stray:?}");
}

/// A tiny deterministic xorshift generator so the randomized sweeps are
/// seeded and reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn next_f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

// ---------------------------------------------------------------------------
// 1. Crash consistency.
// ---------------------------------------------------------------------------

#[test]
fn interrupted_save_at_every_fault_point_preserves_the_old_snapshot() {
    let dir = temp_dir("crash");
    let path = dir.join("db.cbir");

    let old_db = db_with(3, 1);
    let new_db = db_with(5, 2);
    save_file_with(&old_db, &path, &mut cbir_core::faults::NoFaults).unwrap();
    let old_bytes = std::fs::read(&path).unwrap();
    let new_bytes = save_to_vec(&new_db).unwrap();
    assert_ne!(old_bytes, new_bytes);

    // Enumerate the fault points of the overwrite...
    let mut counter = CountOps::default();
    save_file_with(&new_db, &path, &mut counter).unwrap();
    assert!(
        counter.count >= 4,
        "expected >=4 fault points (create, write+, sync, rename, syncdir), got {}",
        counter.count
    );
    // ...restore the old snapshot, then interrupt the save at each one.
    std::fs::write(&path, &old_bytes).unwrap();

    for op in 0..counter.count {
        let mut policy = FailAtOp::new(op, ErrorKind::StorageFull);
        let result = save_file_with(&new_db, &path, &mut policy);

        let on_disk = std::fs::read(&path).unwrap();
        let loaded = load_file(&path)
            .unwrap_or_else(|e| panic!("after fault at op {op}, target no longer loads: {e}"));
        // The file is ALWAYS exactly one of the two snapshots, never a
        // partial state.
        assert!(
            on_disk == old_bytes || on_disk == new_bytes,
            "op {op}: on-disk bytes are neither old nor new snapshot"
        );
        if let Err(e) = &result {
            let msg = e.to_string();
            assert!(
                msg.contains("db.cbir"),
                "op {op}: error must name the path: {msg}"
            );
            assert!(
                matches!(e, CoreError::Persist(_)),
                "op {op}: expected typed persist error"
            );
        }
        if on_disk == old_bytes {
            // Fault hit before the rename: the save must have reported
            // failure and the old snapshot must be untouched.
            assert!(
                result.is_err(),
                "op {op}: old bytes on disk but save said Ok"
            );
            assert_eq!(loaded.len(), old_db.len(), "op {op}");
        } else {
            // Rename completed (a fault in the post-rename directory
            // sync may still surface as an error): the new snapshot
            // must be complete. Restore for the next iteration.
            assert_eq!(loaded.len(), new_db.len(), "op {op}");
            std::fs::write(&path, &old_bytes).unwrap();
        }
    }
    assert_no_temp_droppings(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_writes_at_every_chunk_boundary_never_corrupt_the_target() {
    let dir = temp_dir("torn");
    let path = dir.join("db.cbir");

    let old_db = db_with(2, 3);
    let new_db = db_with(12, 4);
    save_file_with(&old_db, &path, &mut cbir_core::faults::NoFaults).unwrap();
    let old_bytes = std::fs::read(&path).unwrap();
    let new_bytes = save_to_vec(&new_db).unwrap();
    assert_eq!(&new_bytes[..8], b"CBIRDB03");
    assert!(
        new_bytes.len() > 2 * 4096,
        "the image must span several 4 KiB write chunks, has {}",
        new_bytes.len()
    );

    // Tear at a spread of absolute offsets: the first byte, a header
    // byte, section interiors, chunk boundaries, and the last byte.
    let mut offsets = vec![
        0u64,
        9,
        41,
        new_bytes.len() as u64 / 2,
        new_bytes.len() as u64 - 1,
    ];
    for boundary in (4096..new_bytes.len() as u64).step_by(4096) {
        offsets.push(boundary);
        offsets.push(boundary - 1);
    }
    for at in offsets {
        let mut policy = TornWriteAt::new(at);
        let err = save_file_with(&new_db, &path, &mut policy)
            .expect_err("torn write must surface as an error");
        assert!(matches!(err, CoreError::Persist(_)));
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(
            on_disk, old_bytes,
            "torn write at {at} leaked a partial state to the target"
        );
        load_file(&path).unwrap();
    }
    assert_no_temp_droppings(&dir);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn silent_bit_flip_during_save_is_caught_at_load() {
    let dir = temp_dir("flip");
    let path = dir.join("db.cbir");
    let db = db_with(3, 5);
    let len = save_to_vec(&db).unwrap().len() as u64;

    let mut rng = XorShift(0x5EED_CAFE);
    for _ in 0..32 {
        let at = rng.below(len);
        let bit = (rng.next() % 8) as u8;
        let mut policy = FlipBitAt { at, bit };
        // The save itself "succeeds" — the corruption is silent.
        save_file_with(&db, &path, &mut policy).unwrap();
        let err = load_file(&path).expect_err(&format!(
            "flipped bit {bit} at offset {at} loaded without error"
        ));
        match err {
            CoreError::Persist(p) => {
                assert!(p.section.is_some(), "flip at {at}: no section named");
                let msg = p.to_string();
                assert!(msg.contains("db.cbir"), "flip at {at}: no path: {msg}");
            }
            other => panic!("flip at {at}: expected Persist, got {other:?}"),
        }
        assert!(!fsck_slice(&std::fs::read(&path).unwrap()).is_ok());
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 2. Corruption sweeps on a saved image.
// ---------------------------------------------------------------------------

/// Every truncation length and every single-bit flip of `bytes` must be
/// a typed error naming a section and an offset, and must fail `fsck`
/// with a first corrupt offset.
fn assert_every_truncation_and_bit_flip_is_typed(bytes: &[u8], what: &str) {
    let rejected = |corrupt: &[u8], ctx: &str| {
        match load_from_slice(corrupt) {
            Err(CoreError::Persist(p)) => {
                assert!(p.section.is_some(), "{what}, {ctx}: no section in {p}");
                assert!(p.offset.is_some(), "{what}, {ctx}: no offset in {p}");
            }
            Err(other) => panic!("{what}, {ctx}: untyped error {other:?}"),
            Ok(_) => panic!("{what}, {ctx}: loaded successfully"),
        }
        let report = fsck_slice(corrupt);
        assert!(!report.is_ok(), "{what}, {ctx}: fsck passed");
        assert!(
            report.first_corrupt_offset.is_some(),
            "{what}, {ctx}: fsck reported no corrupt offset"
        );
    };
    for len in 0..bytes.len() {
        rejected(&bytes[..len], &format!("truncation to {len}"));
    }
    let mut corrupt = bytes.to_vec();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            corrupt[byte] ^= 1 << bit;
            rejected(&corrupt, &format!("flip {byte}.{bit}"));
            corrupt[byte] ^= 1 << bit;
        }
    }
}

#[test]
fn every_truncation_and_every_bit_flip_of_a_saved_file_is_a_typed_error() {
    let bytes = save_to_vec(&db_with(2, 6)).unwrap();
    assert_eq!(&bytes[..8], b"CBIRDB03");
    // The sweep must cross bytes no checksum covers: the zero-filled
    // alignment gaps after the header and between sections.
    let header_len = 8 + 4 + 4 * 24 + 4;
    let matrix = parse_segment(&bytes).unwrap().descriptor_range();
    assert!(bytes[header_len..128].iter().all(|&b| b == 0) && header_len < 128);
    assert_eq!((matrix.start % 64, matrix.end), (0, bytes.len()));
    let mut gap_flip = bytes.clone();
    gap_flip[header_len] ^= 0x10;
    let err = load_from_slice(&gap_flip).unwrap_err();
    assert!(err.to_string().contains("zero-filled"), "{err}");
    assert_every_truncation_and_bit_flip_is_typed(&bytes, "saved file");
}

/// A store's open reads headers only: one flipped byte in a segment's
/// descriptor matrix and one in its metas still open, and `fsck` names
/// both sections; the first meta read reports its own flip. This is the
/// mechanism behind F13's cold-open-over-full-load ratio
/// (`exp_mmap_ingest`), which is reported, not gated. The store-level
/// twin of `persist.rs`'s `descriptor_corruption_is_deferred_but_not_missed`.
#[test]
fn a_store_opens_past_corrupt_payloads_that_fsck_and_first_reads_report() {
    let dir = temp_dir("deferred");
    let options = StoreOptions::new(IndexKind::Linear, Measure::L1);
    drop(CorpusStore::create_from_database(&dir, &db_with(12, 4), options.clone()).unwrap());
    let report = fsck_dir(&dir).unwrap();
    assert!(report.is_ok(), "{report:?}");
    let [(name, _)] = &report.segments[..] else {
        panic!("one segment expected: {report:?}");
    };
    let path = dir.join(name);
    let mut bytes = std::fs::read(&path).unwrap();
    for section in fsck_slice(&bytes).sections {
        if matches!(section.name, "metas" | "descriptors") {
            bytes[(section.offset + section.len / 2) as usize] ^= 0x08;
        }
    }
    std::fs::write(&path, &bytes).unwrap();

    let store = CorpusStore::open(&dir, options).unwrap();
    let report = fsck_dir(&dir).unwrap();
    let bad: Vec<&str> = report.segments[0]
        .1
        .sections
        .iter()
        .filter(|s| s.error.is_some())
        .map(|s| s.name)
        .collect();
    assert_eq!(bad, ["metas", "descriptors"]);
    match store.snapshot().meta(0).unwrap_err() {
        CoreError::Persist(p) => assert!(p.to_string().contains("metas"), "{p}"),
        other => panic!("expected Persist, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 3. One container; CBIRDB02 import.
// ---------------------------------------------------------------------------

#[test]
fn save_load_save_is_byte_identical() {
    let db = db_with(4, 9);
    let first = save_to_vec(&db).unwrap();
    let loaded = load_from_slice(&first).unwrap();
    assert_eq!(save_to_vec(&loaded).unwrap(), first);
    // And the reloaded database extracts queries identically.
    let probe = RgbImage::from_fn(20, 20, |x, y| Rgb::new((x * 9) as u8, (y * 5) as u8, 33));
    assert_eq!(db.extract(&probe).unwrap(), loaded.extract(&probe).unwrap());
}

#[test]
fn a_saved_file_serves_as_the_one_segment_of_a_store() {
    let dir = temp_dir("as_segment");
    let db = db_with(12, 11);
    let file = dir.join("db.cbir");
    save_file(&db, &file).unwrap();

    let store_dir = dir.join("store");
    std::fs::create_dir_all(&store_dir).unwrap();
    std::fs::copy(&file, store_dir.join(segment_file_name(0))).unwrap();
    let manifest = Manifest {
        epoch: 1,
        next_seg: 1,
        balanced: db.is_balanced(),
        pipeline: db.pipeline().clone(),
        segments: vec![ManifestEntry {
            name: segment_file_name(0),
            rows: db.len() as u64,
            deleted: Vec::new(),
        }],
    };
    std::fs::write(store_dir.join(MANIFEST_FILE), encode_manifest(&manifest)).unwrap();
    assert!(fsck_dir(&store_dir).unwrap().is_ok());

    // Every reply field, distances by bit pattern.
    let bits = |hits: Vec<Vec<cbir_core::Ranked>>| -> Vec<Vec<String>> {
        hits.iter()
            .map(|q| {
                q.iter()
                    .map(|h| {
                        format!(
                            "{} {} {:?} {:08x}",
                            h.id,
                            h.name,
                            h.label,
                            h.distance.to_bits()
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let queries: Vec<Vec<f32>> = (0..db.len())
        .step_by(5)
        .map(|i| db.descriptor(i).unwrap().to_vec())
        .collect();
    for kind in [IndexKind::Linear, IndexKind::VpTree] {
        let engine =
            QueryEngine::build(load_file(&file).unwrap(), kind.clone(), Measure::L1).unwrap();
        let store = CorpusStore::open(&store_dir, StoreOptions::new(kind, Measure::L1)).unwrap();
        let snap = store.snapshot();
        assert_eq!((snap.len(), snap.segments_len()), (db.len(), 1));
        let (mut s1, mut s2) = (BatchStats::new(), BatchStats::new());
        assert_eq!(
            bits(snap.knn_batch(&queries, 5, 1, &mut s1).unwrap()),
            bits(engine.knn_batch(&queries, 5, 1, &mut s2).unwrap())
        );
        assert_eq!(
            bits(snap.range_batch(&queries, 0.5, 1, &mut s1).unwrap()),
            bits(engine.range_batch(&queries, 0.5, 1, &mut s2).unwrap())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Written by `cbir index corpus --pipeline shape` of the last commit
/// whose `save_file` wrote `CBIRDB02` (corpus: `cbir generate --classes 2
/// --per-class 2 --size 24 --seed 18`).
const IMPORT_FIXTURE: &[u8] = include_bytes!("data/cbirdb02-shape.cbir");

/// `flat_descriptors()` of the fixture as that commit's loader decoded
/// it, as `f32` bit patterns.
#[rustfmt::skip]
const IMPORT_FIXTURE_BITS: [u32; 124] = [
    0x3EB6F43D, 0x3E56345F, 0x3E70A947, 0x3E28E35F, 0x37EAC439, 0xBCCD1BC4, 0x3C0ABAF8, 0x3EC5A9D4,
    0x3E291C59, 0x3EE5C7FF, 0x3DD1C7E9, 0x3E4AB68D, 0x3E9814F0, 0x3E1376FC, 0x3E846252, 0x3DECEC6E,
    0x3DA131D8, 0x3D8C7D13, 0x3D512F46, 0x3D705294, 0x3D29B91D, 0x3D5F122A, 0x3D9D3310, 0x3DB82853,
    0x3D7F8B9F, 0x3D25E85F, 0x3D0213EA, 0x3D2F2943, 0x3D21FBC4, 0x3D50AE15, 0x3DC63531, 0x3E97F4A1,
    0x3E3B0E1C, 0x3E4F1897, 0x3E2ADB19, 0xBD16A13C, 0xBDBE7A99, 0x3CB17AD3, 0x3EFA02AA, 0x3E1ED3E0,
    0x3EB69366, 0x3E2B5769, 0x3DDF26F0, 0x3E9CA145, 0x3E1BCA21, 0x3E88043B, 0x3D9305CF, 0x3D3173ED,
    0x3D2536CE, 0x3D136EEF, 0x3D51A03A, 0x3D3661AA, 0x3D88DCF5, 0x3DCC1763, 0x3E1DDD22, 0x3D9C500D,
    0x3D46A166, 0x3D2BED75, 0x3D61E59B, 0x3D45298E, 0x3D7EA114, 0x3D759C6A, 0x3EF628E6, 0x3E957067,
    0x3DE66263, 0x3DC8E3D0, 0x36DD53B0, 0x3C894083, 0xB5FF3577, 0x3EEBD4EB, 0x3D8B6703, 0x3EF15152,
    0x3DFA54AA, 0x3E08C703, 0x3EDD2A58, 0x3D8B3D1A, 0x3E7A1B72, 0x3BFD0D90, 0x3C2E4972, 0x3C107CF9,
    0x3BC29B3C, 0x3C589B6D, 0x3C969FDA, 0x3E7B4932, 0x3F15D856, 0x3D82EA3D, 0x3C1426C2, 0x3BC9E196,
    0x3BADD4F9, 0x3B7ABB81, 0x3BC9457D, 0x3BB21F0B, 0x3B9A593B, 0x3F097879, 0x3E8C4B37, 0x3CE0B978,
    0x3E15B1F5, 0x35824476, 0x3C7BC85B, 0x36DE68F8, 0x3EC834B1, 0x3D6DB9AE, 0x3F0D0A0D, 0x3E081FF9,
    0x3DEBE094, 0x3ED65678, 0x3D8F5FB4, 0x3E86C979, 0x3B9592F0, 0x3B99D301, 0x3B9FA2D0, 0x3B8773DD,
    0x3C12C826, 0x3C6CB2B9, 0x3DC98C89, 0x3F375574, 0x3DD7BEB9, 0x3C2BE8BB, 0x3BD5D53E, 0x3B7DE56C,
    0x3B4C2DAA, 0x3B869341, 0x3BB52DF8, 0x3B9CAE06,
];

#[test]
fn the_checked_in_cbirdb02_image_imports_with_its_exact_content() {
    assert_eq!(&IMPORT_FIXTURE[..8], b"CBIRDB02");
    let db = load_from_slice(IMPORT_FIXTURE).unwrap();
    assert!(db.is_balanced());
    assert_eq!(db.pipeline().canonical_size(), 64);
    assert_eq!(
        db.pipeline().specs(),
        [
            FeatureSpec::HuMoments,
            FeatureSpec::ShapeSummary,
            FeatureSpec::RegionShape,
            FeatureSpec::EdgeOrientation { bins: 16 },
        ]
    );
    let metas: Vec<_> = db
        .metas()
        .iter()
        .map(|m| (m.name.as_str(), m.label))
        .collect();
    assert_eq!(
        metas,
        [
            ("class-0-0000.ppm", Some(0)),
            ("class-0-0001.ppm", Some(0)),
            ("class-1-0002.ppm", Some(1)),
            ("class-1-0003.ppm", Some(1)),
        ]
    );
    let bits: Vec<u32> = db.flat_descriptors().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, IMPORT_FIXTURE_BITS);

    let report = fsck_slice(IMPORT_FIXTURE);
    assert!(report.is_ok(), "{report:?}");
    assert_eq!(report.format, "CBIRDB02 (import only)");
    let sections: Vec<_> = report
        .sections
        .iter()
        .map(|s| (s.name, s.offset, s.len))
        .collect();
    assert_eq!(
        sections,
        [
            ("config", 55, 17),
            ("descriptors", 72, 508),
            ("metas", 580, 108)
        ]
    );

    // Saving the import upgrades it: the same content in the one format.
    let upgraded = save_to_vec(&db).unwrap();
    assert_eq!(&upgraded[..8], b"CBIRDB03");
    let reloaded = load_from_slice(&upgraded).unwrap();
    assert_eq!(reloaded.flat_descriptors(), db.flat_descriptors());
    assert_eq!(reloaded.metas(), db.metas());
    assert_eq!(reloaded.pipeline().specs(), db.pipeline().specs());
}

#[test]
fn every_truncation_and_every_bit_flip_of_the_cbirdb02_image_is_a_typed_error() {
    assert_every_truncation_and_bit_flip_is_typed(IMPORT_FIXTURE, "CBIRDB02 fixture");
}

/// A store directory as the store wrote it before a manifest could list
/// deleted rows: 41 rows under `store_pipeline` in segments of 16, then
/// id 20 deleted and compacted away (that compaction rewrote the middle
/// segment). `OLD_STORE_REPLIES` is what that code answered to
/// `knn_batch_by_ids(&[0, 7, 20, 39], 4)` over it: id, name, distance
/// bits.
const OLD_STORE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/store-before-deleted-rows"
);

#[rustfmt::skip]
const OLD_STORE_REPLIES: [[(usize, &str, u32); 4]; 4] = [
    [(16, "row-16", 0x3f1fc633), (23, "row-24", 0x3fa78417), (1, "row-01", 0x3fc21b04), (28, "row-29", 0x3fc5ceb2)],
    [(14, "row-14", 0x3f89ca3c), (22, "row-23", 0x3fb96f70), (18, "row-18", 0x3fc28807), (12, "row-12", 0x3fd99b6c)],
    [(17, "row-17", 0x3f951828), (32, "row-33", 0x3faa4c2f), (19, "row-19", 0x3fc08815), (28, "row-29", 0x3fd1f72e)],
    [(14, "row-14", 0x3fcd5d40), (7, "row-07", 0x3fda2c98), (13, "row-13", 0x3fdbd003), (23, "row-24", 0x3fe11ba9)],
];

#[test]
fn a_store_written_before_deleted_rows_opens_and_serves_identically() {
    let dir = temp_dir("old_store");
    std::fs::create_dir_all(&dir).unwrap();
    for file in std::fs::read_dir(OLD_STORE).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), dir.join(file.file_name())).unwrap();
    }
    let report = fsck_dir(&dir).unwrap();
    assert!(report.is_ok() && report.deleted.is_empty(), "{report:?}");
    // Its manifest is one this code writes, byte for byte.
    let bytes = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
    let manifest = cbir_core::persist::parse_manifest(&bytes).unwrap();
    assert!(manifest.segments.iter().all(|s| s.deleted.is_empty()));
    assert_eq!(encode_manifest(&manifest), bytes);

    let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
    options.max_seg_rows = 16;
    let store = CorpusStore::open(&dir, options.clone()).unwrap();
    let snap = store.snapshot();
    assert_eq!((snap.len(), snap.segments_len()), (40, 3));
    let ids = [0, 7, 20, 39];
    let replies = snap.knn_batch_by_ids(&ids, 4, 1, &mut BatchStats::new());
    for (got, want) in replies.unwrap().iter().zip(OLD_STORE_REPLIES) {
        let got: Vec<(usize, &str, u32)> = got
            .iter()
            .map(|h| (h.id, h.name.as_str(), h.distance.to_bits()))
            .collect();
        assert_eq!(got, want);
    }

    // From here on it keeps deleted rows like any store: one delete in
    // its full first segment is listed, not rewritten.
    store.delete(3).unwrap();
    let stats = store.compact().unwrap();
    assert_eq!((stats.segments, stats.segments_kept), (3, 3));
    let report = fsck_dir(&dir).unwrap();
    assert!(report.is_ok(), "{report:?}");
    assert_eq!(report.deleted, [(segment_file_name(0), 1, 16)]);
    let live = fingerprint(&store.snapshot());
    let engine = QueryEngine::build(
        store.snapshot().materialize().unwrap(),
        IndexKind::Linear,
        Measure::L1,
    )
    .unwrap();
    drop(store);
    let reopened = CorpusStore::open(&dir, options).unwrap();
    assert_eq!(fingerprint(&reopened.snapshot()), live);
    let (mut s1, mut s2) = (BatchStats::new(), BatchStats::new());
    let ids = [0, 7, 20, 38];
    let got = reopened
        .snapshot()
        .knn_batch_by_ids(&ids, 4, 1, &mut s1)
        .unwrap();
    let want = engine.knn_batch_by_ids(&ids, 4, 1, &mut s2).unwrap();
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 4. Compaction crash consistency.
// ---------------------------------------------------------------------------
//
// The segment store's durability contract mirrors the single-file one,
// lifted to a directory: the `MANIFEST` rename is the only commit
// point, so a compaction interrupted at *any* primitive operation must
// leave a store that reopens to exactly the old segment set or exactly
// the new one — never a mixture, never an unreadable directory. A
// compaction rewrites only the segments that change, so the new set can
// name files of the old one: every sweep runs once over a store whose
// compaction replaces every segment and once over one that keeps a
// segment, rewrites one and folds the partial last one into the tail,
// and the kept file must come through every fault byte for byte.
// (Memtable rows and tombstones are volatile by design; the durable
// "old" state is whatever the last committed manifest describes.)

fn store_pipeline() -> Pipeline {
    Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
            per_channel: 2,
        })],
    )
    .unwrap()
}

fn store_options() -> StoreOptions {
    let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
    // Small segments force multi-segment compactions; a high memtable
    // limit keeps the store from compacting underneath the test.
    options.max_seg_rows = 4;
    options.memtable_limit = 1 << 16;
    options
}

fn synth_rows(n: usize, dim: usize, seed: u64) -> Vec<(ImageMeta, Vec<f32>)> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|i| {
            (
                ImageMeta {
                    name: format!("row-{seed}-{i:03}"),
                    label: Some((i % 3) as u32),
                },
                (0..dim).map(|_| rng.next_f32()).collect(),
            )
        })
        .collect()
}

/// The logical content of a snapshot: live rows in global id order, with
/// descriptors compared bit-for-bit.
fn fingerprint(snap: &CorpusSnapshot) -> Vec<(String, Vec<u32>)> {
    (0..snap.total_rows() as u64)
        .filter(|&id| snap.contains(id))
        .map(|id| {
            let meta = snap.meta(id).unwrap();
            let desc = snap.descriptor(id).unwrap();
            (meta.name, desc.iter().map(|f| f.to_bits()).collect())
        })
        .collect()
}

/// Build a store with a committed 6-row / 2-segment old state plus a
/// pending memtable (5 inserts) and tombstones (one segment row, one
/// memtable row) — the compaction under test rewrites all of it.
fn build_pending_store(dir: &Path) -> Arc<CorpusStore> {
    build_store(dir, 6, &[1, 8])
}

/// A committed `[4, 4, 2]` store plus 5 pending inserts and tombstones
/// in segment 0 and the memtable: the compaction under test rewrites
/// segment 0, keeps segment 1, and folds the partial segment 2 into the
/// memtable's rows.
fn build_kept_store(dir: &Path) -> Arc<CorpusStore> {
    build_store(dir, 10, &[1, 12])
}

fn build_store(dir: &Path, committed: usize, deletes: &[u64]) -> Arc<CorpusStore> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CorpusStore::create(dir, store_pipeline(), false, store_options()).unwrap();
    let dim = store.snapshot().dim();
    for (meta, desc) in synth_rows(committed, dim, 11) {
        store.insert(meta, desc).unwrap();
    }
    store.compact().unwrap();
    for (meta, desc) in synth_rows(5, dim, 22) {
        store.insert(meta, desc).unwrap();
    }
    for &id in deletes {
        store.delete(id).unwrap();
    }
    store
}

/// The two pending stores every compaction sweep runs over: a builder,
/// and the files its compaction must keep.
type Pending = (fn(&Path) -> Arc<CorpusStore>, &'static [u64]);
const PENDING: [(&str, Pending); 2] = [
    ("merge", (build_pending_store, &[])),
    ("kept", (build_kept_store, &[1])),
];

/// The bytes of the segment files a compaction must leave alone.
fn kept_files(dir: &Path, kept: &[u64]) -> Vec<Vec<u8>> {
    let read = |&n: &u64| std::fs::read(dir.join(segment_file_name(n))).unwrap();
    kept.iter().map(read).collect()
}

/// The longest and shortest segment file a clean compaction of a fresh
/// `build` store writes (kept files excluded).
fn written_seg_lens(root: &Path, (build, kept): Pending) -> (u64, u64) {
    let probe_dir = root.join("probe");
    let probe = build(&probe_dir);
    let keep: Vec<String> = kept.iter().map(|&n| segment_file_name(n)).collect();
    let before = probe.snapshot().segments_len();
    let stats = probe.compact().unwrap();
    assert_eq!(stats.segments_kept, kept.len());
    assert!(stats.segments > before - kept.len());
    let lens: Vec<u64> = std::fs::read_dir(&probe_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("seg-") && !keep.contains(&name)
        })
        .map(|e| e.metadata().unwrap().len())
        .collect();
    drop(probe);
    std::fs::remove_dir_all(&probe_dir).ok();
    (*lens.iter().max().unwrap(), *lens.iter().min().unwrap())
}

fn assert_dir_clean(dir: &Path, ctx: &str) {
    assert_no_temp_droppings(dir);
    let report = fsck_dir(dir).unwrap_or_else(|e| panic!("{ctx}: fsck cannot run: {e}"));
    assert!(report.is_ok(), "{ctx}: fsck found corruption: {report:?}");
    assert!(
        report.orphans.is_empty(),
        "{ctx}: segment files not referenced by the manifest: {:?}",
        report.orphans
    );
}

#[test]
fn interrupted_compaction_at_every_fault_point_yields_old_or_new_store() {
    for (tag, (build, kept)) in PENDING {
        let root = temp_dir(&format!("compact_crash_{tag}"));

        // Learn the two legal outcomes and the number of fault points from
        // one clean run. The builders are deterministic, so the op count
        // transfers to every rebuilt copy.
        let probe = build(&root.join("probe"));
        let old_fp = fingerprint(
            &CorpusStore::open(root.join("probe"), store_options())
                .unwrap()
                .snapshot(),
        );
        let committed = probe.snapshot().segments_len();
        let live_fp = fingerprint(&probe.snapshot());
        assert_eq!(
            live_fp.len(),
            old_fp.len() + 5 - 2,
            "{tag}: 5 inserts - 2 deletes"
        );
        let mut counter = CountOps::default();
        let stats = probe.compact_with(&mut counter).unwrap();
        assert_eq!(stats.segments_kept, kept.len(), "{tag}");
        let new_fp = fingerprint(&probe.snapshot());
        assert_eq!(
            new_fp, live_fp,
            "{tag}: compaction must not change the logical rows"
        );
        assert!(
            counter.count >= 15,
            "{tag}: expected >=15 fault points across 3 segments + manifest, got {}",
            counter.count
        );
        drop(probe);

        for op in 0..counter.count {
            let ctx = format!("{tag}, op {op}");
            let dir = root.join(format!("op{op}"));
            let store = build(&dir);
            assert_eq!(store.snapshot().segments_len(), committed);
            let kept_bytes = kept_files(&dir, kept);
            let mut policy = FailAtOp::new(op, ErrorKind::StorageFull);
            let result = store.compact_with(&mut policy);
            assert_eq!(
                kept_files(&dir, kept),
                kept_bytes,
                "{ctx}: a kept file changed"
            );

            // Whatever happened, the directory must reopen...
            let reopened = CorpusStore::open(&dir, store_options())
                .unwrap_or_else(|e| panic!("{ctx}: store no longer opens: {e}"));
            let fp = fingerprint(&reopened.snapshot());
            drop(reopened);
            // ...to exactly one of the two legal states.
            match &result {
                Ok(stats) => {
                    assert!(!stats.skipped, "{ctx}: compaction skipped unexpectedly");
                    assert_eq!(fp, new_fp, "{ctx}: Ok compaction must commit the new set");
                }
                Err(e) => {
                    assert!(
                        matches!(e, CoreError::Persist(_)),
                        "{ctx}: expected typed persist error, got {e:?}"
                    );
                    let msg = e.to_string();
                    assert!(
                        msg.contains("seg-") || msg.contains("MANIFEST"),
                        "{ctx}: error must name the segment file: {msg}"
                    );
                    assert_eq!(
                        fp, old_fp,
                        "{ctx}: failed compaction must leave the old set"
                    );
                    // The live store still serves every pre-compaction row
                    // and the retry path works.
                    assert_eq!(
                        fingerprint(&store.snapshot()),
                        new_fp,
                        "{ctx}: failed compaction lost live rows"
                    );
                    store.compact().unwrap();
                    let retried = CorpusStore::open(&dir, store_options()).unwrap();
                    assert_eq!(
                        fingerprint(&retried.snapshot()),
                        new_fp,
                        "{ctx}: retry after failure did not commit"
                    );
                    assert_eq!(kept_files(&dir, kept), kept_bytes, "{ctx}: retry");
                }
            }
            drop(store);
            assert_dir_clean(&dir, &ctx);
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn torn_segment_writes_during_compaction_preserve_the_old_store() {
    for (tag, pending) in PENDING {
        let (build, kept) = pending;
        let root = temp_dir(&format!("compact_torn_{tag}"));
        // Measure the largest new segment file from a clean run so the
        // torn offsets actually land inside segment writes.
        let (seg_len, _) = written_seg_lens(&root, pending);

        let offsets = [0, 7, seg_len / 2, seg_len - 1];
        for (i, &at) in offsets.iter().enumerate() {
            let ctx = format!("{tag}, tear at {at}");
            let dir = root.join(format!("torn{i}"));
            let store = build(&dir);
            let old_fp = fingerprint(&CorpusStore::open(&dir, store_options()).unwrap().snapshot());
            let kept_bytes = kept_files(&dir, kept);
            let err = store
                .compact_with(&mut TornWriteAt::new(at))
                .expect_err("torn segment write must surface as an error");
            assert!(matches!(err, CoreError::Persist(_)), "{ctx}: {err:?}");
            let reopened = CorpusStore::open(&dir, store_options()).unwrap();
            assert_eq!(
                fingerprint(&reopened.snapshot()),
                old_fp,
                "{ctx}: leaked a partial state"
            );
            assert_eq!(
                kept_files(&dir, kept),
                kept_bytes,
                "{ctx}: a kept file changed"
            );
            drop(reopened);
            drop(store);
            assert_dir_clean(&dir, &ctx);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn bit_flip_during_compaction_is_caught_before_commit() {
    for (tag, pending) in PENDING {
        let (build, kept) = pending;
        let root = temp_dir(&format!("compact_flip_{tag}"));
        let (_, seg_len) = written_seg_lens(&root, pending);

        // Offset 0 corrupts the magic; the tail offsets land in the raw
        // descriptor matrix (descriptors are the final section) or just
        // before it. All are regions the pre-commit read-back must
        // reject.
        let cases = [(0u64, 0u8), (seg_len - 1, 5), (seg_len - 9, 1)];
        for (i, &(at, bit)) in cases.iter().enumerate() {
            let ctx = format!("{tag}, flip {bit} at {at}");
            let dir = root.join(format!("flip{i}"));
            let store = build(&dir);
            let old_fp = fingerprint(&CorpusStore::open(&dir, store_options()).unwrap().snapshot());
            let kept_bytes = kept_files(&dir, kept);
            let err = store
                .compact_with(&mut FlipBitAt { at, bit })
                .expect_err(&format!("{ctx}: committed corrupt data"));
            assert!(matches!(err, CoreError::Persist(_)));
            let msg = err.to_string();
            assert!(
                msg.contains("seg-"),
                "{ctx}: error must name the segment file: {msg}"
            );
            let reopened = CorpusStore::open(&dir, store_options()).unwrap();
            assert_eq!(
                fingerprint(&reopened.snapshot()),
                old_fp,
                "{ctx}: old state not preserved"
            );
            assert_eq!(
                kept_files(&dir, kept),
                kept_bytes,
                "{ctx}: a kept file changed"
            );
            drop(reopened);
            // The store detected the corruption before the commit point,
            // so a clean retry must still succeed.
            store.compact_with(&mut NoFaults).unwrap();
            assert_eq!(kept_files(&dir, kept), kept_bytes, "{ctx}: retry");
            drop(store);
            assert_dir_clean(&dir, &ctx);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
