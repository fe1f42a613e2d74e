//! The out-of-core corpus store: immutable segments — mmap-backed
//! files, and the memtable's chunks, which are segments without a file
//! — unified behind epoch-stamped immutable snapshots.
//!
//! ## Architecture
//!
//! A [`CorpusStore`] lives in one directory. The durable state is a set
//! of immutable `CBIRDB03` segment files named by a `MANIFEST` (see
//! [`crate::persist`]), which also lists each segment's deleted rows;
//! the volatile state is a memtable of descriptors inserted since the
//! last compaction plus a tombstone set of deleted global ids. There is
//! one source type, `Segment`: its rows are mapped from its file or held
//! on the heap, its metadata is decoded lazily from the file or given at
//! construction, and its index kind is fixed when it is created (the
//! store's for a file, a linear scan for a memtable chunk). The
//! published [`CorpusSnapshot`] — one list of sources, the files first,
//! each with its first global id and deleted rows, and the tombstones —
//! is the store's whole state: every mutation derives the next one from
//! it under the writer lock, one epoch on, sharing every source it does
//! not change. Readers pin a snapshot with one `Arc` clone and keep
//! querying it unperturbed while writers move on —
//! compaction included. Segment files are deleted only after a
//! compaction commits, and a pinned snapshot keeps its mappings alive
//! across that deletion (the mapping outlives the directory entry), so
//! an in-flight `knn_batch` can never observe a torn view: it sees
//! exactly the epoch it pinned.
//!
//! ## Ids and epochs
//!
//! Global ids are dense: the live rows of the segments in manifest
//! order, then memtable rows. A row a segment's deleted-row list names
//! has no id; the list carries the renumbering, so a snapshot maps
//! between a segment's physical rows and ids through its own copy of
//! the lists (kept beside each shared `Arc<Segment>`, never inside it).
//! Ids are *epoch-relative* — compaction drops tombstoned rows and
//! renumbers, whether it rewrites their segment or lists them. The epoch
//! is monotonic within a process; only compaction makes it durable (in
//! the manifest). There is no WAL: the memtable and tombstones are
//! volatile by design, and [`CorpusStore::compact`] is the durability
//! point.
//!
//! A compaction writes only what changed: the memtable, with the partial
//! last segment it joins, and every segment more than one in
//! `REWRITE_DEAD_ONE_IN` of whose rows are dead. A segment with fewer
//! dead rows keeps its file, mapping, built index and L1 code table, and
//! the new manifest lists its dead rows, so a handful of deletes costs a
//! manifest, not a segment ([`CorpusStore::compact_with`]).
//!
//! ## Query semantics
//!
//! [`CorpusSnapshot`] is the repo's one read path, and it is one pass,
//! batch-first: each worker thread walks the sources (every segment's
//! lazily built index, files first) once and hands its
//! whole chunk of queries to the source's batched search. A k-NN asks
//! each source for the `k` nearest rows past its dead ones — listed or
//! tombstoned ([`SearchIndex::knn_batch_skipping`]: a linear scan passes
//! over them where it offers a row, any other index is asked for
//! `k + dead` and drops them); per query the worker then merges by
//! `(distance, id)` with the exact comparator the indexes use and
//! truncates to `k`. A static database is the same thing with one
//! segment without a file and nothing to merge
//! ([`CorpusSnapshot::from_database`], what a
//! [`crate::QueryEngine`] wraps), so a multi-source snapshot is
//! bit-identical to an engine built over [`CorpusSnapshot::materialize`].
//! Over L1 linear scans, whose exact filter streams its whole code table
//! once per worker, a batch takes a worker per four queries, up to the
//! caller's thread count.
//!
//! An approximate k-NN ([`CorpusSnapshot::knn_batch_approx`]) is the same
//! pass with one difference per source: a source with the exact filter
//! runs only the filter, and answers there each query the filter keeps
//! to the end; it defers the others, and a source without the filter
//! defers every query. Only a deferred (query, source) pair runs the
//! two-stage coarse-then-rerank search, whose exact hits then merge with
//! the rest by the same rule.

use crate::database::{ImageDatabase, ImageMeta};
use crate::engine::{
    build_index, plan_candidate_budget, validate_recall_target, IndexKind, ObsCapture, Ranked,
};
use crate::error::{CoreError, PersistError, Result};
use crate::faults::{FaultPolicy, NoFaults};
use crate::mmap::Mmap;
use crate::persist::{
    encode_config_parts, encode_manifest, encode_segment, parse_manifest, parse_segment,
    read_file_bytes, segment_file_name, write_file_atomic, Manifest, ManifestEntry, SegmentView,
    MANIFEST_FILE,
};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_image::RgbImage;
use cbir_index::{
    approx_knn, run_parallel, ApproxScratch, BatchStats, CoarseHaarIndex, Dataset, Neighbor,
    RowSet, SearchIndex, SearchStats,
};
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Attach a file path to the persistence context of an error, if it is a
/// persistence error and has none yet.
fn attach_path(e: CoreError, path: &Path) -> CoreError {
    match e {
        CoreError::Persist(p) => CoreError::Persist(p.with_path(path)),
        other => other,
    }
}

/// Tuning knobs for a [`CorpusStore`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Index structure built over each segment and the memtable.
    pub kind: IndexKind,
    /// Similarity measure shared by every index.
    pub measure: Measure,
    /// Soft memtable row bound: [`CorpusStore::insert`] triggers a
    /// best-effort compaction once the memtable reaches this size.
    pub memtable_limit: usize,
    /// Maximum rows per segment written by compaction (larger corpora
    /// split into several segments).
    pub max_seg_rows: usize,
}

impl StoreOptions {
    /// Options with default sizing for the chosen index and measure.
    pub fn new(kind: IndexKind, measure: Measure) -> Self {
        StoreOptions {
            kind,
            measure,
            memtable_limit: 4096,
            max_seg_rows: 1 << 20,
        }
    }
}

/// Zero-copy view of a segment's descriptor matrix: the mapped file
/// bytes reinterpreted as `[f32]`. Constructed only when the platform is
/// little-endian and the (64-byte-aligned) descriptor section satisfies
/// `f32` alignment; otherwise the store decodes an owned copy instead.
struct SegmentRows {
    bytes: Arc<Mmap>,
    start: usize,
    floats: usize,
}

impl AsRef<[f32]> for SegmentRows {
    fn as_ref(&self) -> &[f32] {
        let raw = &self.bytes[self.start..self.start + self.floats * 4];
        // SAFETY: every bit pattern is a valid f32, the slice length is an
        // exact multiple of 4, and 4-byte alignment of `start` within the
        // mapping was verified at construction, so `align_to` yields the
        // whole slice as the aligned middle.
        let (pre, mid, post) = unsafe { raw.align_to::<f32>() };
        debug_assert!(pre.is_empty() && post.is_empty());
        mid
    }
}

/// The searchable part of a non-empty segment: its rows, the index kind
/// it is searched with, and the structures built over them on first use
/// (a failed build is cached too).
struct SourceRows {
    /// Names the source in build errors.
    label: String,
    dataset: Dataset,
    kind: IndexKind,
    index_cell: OnceLock<std::result::Result<Box<dyn SearchIndex>, String>>,
    coarse_cell: OnceLock<std::result::Result<CoarseHaarIndex, String>>,
}

impl SourceRows {
    fn new(label: String, dataset: Dataset, kind: &IndexKind) -> Self {
        SourceRows {
            label,
            dataset,
            kind: kind.clone(),
            index_cell: OnceLock::new(),
            coarse_cell: OnceLock::new(),
        }
    }

    fn build_failed(&self, what: &str, msg: &str) -> CoreError {
        CoreError::InvalidParameter(format!("{} {what} build failed: {msg}", self.label))
    }

    /// Whether a query has built the search index: the sign that the
    /// exact path reads this source, which a compaction passes on to the
    /// segment that replaces it.
    fn is_warm(&self) -> bool {
        matches!(self.index_cell.get(), Some(Ok(_)))
    }

    /// The lazily built search index (the first query over the source
    /// pays the build; concurrent first queries block on one build).
    fn index(&self, measure: &Measure) -> Result<&dyn SearchIndex> {
        self.index_cell
            .get_or_init(|| {
                build_index(&self.kind, self.dataset.clone(), measure.clone())
                    .map_err(|e| e.to_string())
            })
            .as_ref()
            .map(|ix| ix.as_ref())
            .map_err(|msg| self.build_failed("index", msg))
    }

    /// The lazily built coarse signature table for the approximate path
    /// (one per source, mirroring [`SourceRows::index`]), built by the
    /// first approximate query the source's exact filter does not serve;
    /// the exact path never pays for it.
    fn coarse(&self) -> Result<&CoarseHaarIndex> {
        self.coarse_cell
            .get_or_init(|| {
                let coefficients = CoarseHaarIndex::default_coefficients(self.dataset.dim());
                CoarseHaarIndex::build(&self.dataset, coefficients).map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|msg| self.build_failed("coarse table", msg))
    }
}

/// A segment's file: its path, the name the manifest records, the mapped
/// image and its parsed view.
struct SegmentFile {
    path: PathBuf,
    name: String,
    bytes: Arc<Mmap>,
    view: SegmentView,
}

/// One immutable source of a snapshot. A file-backed segment maps its
/// rows and decodes its metadata lazily from the file; laziness is
/// load-bearing: opening a store must stay O(segments), not O(rows), so
/// cold-open cost is independent of corpus size. A segment without a
/// file holds its rows on the heap and is given its metadata: a chunk of
/// the memtable, which every snapshot that does not append to it shares
/// by `Arc` with its index and coarse table built once — this chunking
/// is what makes both incremental under live ingest — or a static
/// database's rows, shared with it ([`CorpusSnapshot::from_database`]).
struct Segment {
    /// `None` for heap rows.
    file: Option<SegmentFile>,
    rows: usize,
    /// `None` iff the segment is empty.
    data: Option<SourceRows>,
    metas_cell: OnceLock<std::result::Result<Arc<Vec<ImageMeta>>, String>>,
}

impl Segment {
    /// Map the file (or, where mapping is unavailable, read it: see
    /// [`Mmap::open`]) and open the image, to be searched with `kind`.
    fn open(path: &Path, name: &str, kind: &IndexKind) -> Result<Arc<Segment>> {
        let bytes = Mmap::open(path).map_err(|e| {
            CoreError::Persist(
                PersistError::new(format!("cannot open segment: {e}")).with_path(path),
            )
        })?;
        Self::from_image(path, name, Arc::new(bytes), kind)
    }

    fn from_image(
        path: &Path,
        name: &str,
        bytes: Arc<Mmap>,
        kind: &IndexKind,
    ) -> Result<Arc<Segment>> {
        let view = parse_segment(&bytes).map_err(|e| attach_path(e, path))?;
        let rows = view.rows;
        let data = if rows == 0 {
            None
        } else {
            let range = view.descriptor_range();
            let raw = &bytes[range.clone()];
            let rows_arc: Arc<dyn AsRef<[f32]> + Send + Sync> = if cfg!(target_endian = "little")
                && (raw.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>())
            {
                Arc::new(SegmentRows {
                    bytes: Arc::clone(&bytes),
                    start: range.start,
                    floats: rows * view.dim,
                })
            } else {
                Arc::new(view.decode_descriptors_owned(&bytes))
            };
            let dataset = Dataset::from_shared(view.dim, rows_arc)?;
            Some(SourceRows::new(format!("segment '{name}'"), dataset, kind))
        };
        let file = SegmentFile {
            path: path.to_path_buf(),
            name: name.to_string(),
            bytes,
            view,
        };
        Ok(Arc::new(Segment {
            file: Some(file),
            rows,
            data,
            metas_cell: OnceLock::new(),
        }))
    }

    /// A segment without a file over `dataset` (non-empty) and the
    /// metadata beside it.
    fn on_heap(
        label: &str,
        dataset: Dataset,
        metas: Arc<Vec<ImageMeta>>,
        kind: &IndexKind,
    ) -> Self {
        debug_assert_eq!(dataset.len(), metas.len());
        Segment {
            file: None,
            rows: metas.len(),
            data: Some(SourceRows::new(label.into(), dataset, kind)),
            metas_cell: OnceLock::from(Ok(metas)),
        }
    }

    /// A memtable chunk: `flat` holds the rows of `metas`, searched with
    /// a linear scan (O(1) build, and the cross-index bit-identity
    /// contract makes mixing it with tree-indexed segments safe).
    fn memtable(dim: usize, flat: Vec<f32>, metas: Vec<ImageMeta>) -> Result<Arc<Segment>> {
        let dataset = Dataset::from_shared(dim, Arc::new(flat) as _)?;
        let metas = Arc::new(metas);
        let chunk = Self::on_heap("memtable chunk", dataset, metas, &IndexKind::Linear);
        Ok(Arc::new(chunk))
    }

    /// Its rows, row-major.
    fn flat(&self) -> &[f32] {
        self.data.as_ref().map_or(&[], |d| d.dataset.flat())
    }

    /// The file of a file-backed segment.
    fn file(&self) -> &SegmentFile {
        self.file.as_ref().expect("a file-backed segment")
    }

    /// The metadata: given, or verified and decoded from the file on
    /// first access (which pays the checksum pass; the result — or the
    /// failure — is cached).
    fn metas(&self) -> Result<&[ImageMeta]> {
        let cached = self.metas_cell.get_or_init(|| {
            let file = self.file();
            let metas = file.view.decode_metas(&file.bytes);
            metas
                .map(Arc::new)
                .map_err(|e| attach_path(e, &file.path).to_string())
        });
        match cached {
            Ok(m) => Ok(m),
            Err(msg) => Err(CoreError::Persist(PersistError::new(msg.clone()))),
        }
    }

    /// Whether a query has built its index ([`SourceRows::is_warm`]).
    fn is_warm(&self) -> bool {
        self.data.as_ref().is_some_and(SourceRows::is_warm)
    }

    /// Make a fresh segment ready for readers before it is published:
    /// take the metadata its read-back already verified and decoded, and
    /// build the index with whatever it builds lazily (the L1 code
    /// table). A failed build is cached like any other, for the first
    /// query to report.
    fn warm(&self, metas: Vec<ImageMeta>, measure: &Measure) {
        let _ = self.metas_cell.set(Ok(Arc::new(metas)));
        if let Some(Ok(index)) = self.data.as_ref().map(|d| d.index(measure)) {
            index.prepare();
        }
    }
}

/// Rows per memtable chunk. This bounds an insert's copy: it rebuilds
/// only the tail chunk (fewer rows than this) with its own rows and
/// `Arc`-shares the full chunks, instead of re-copying the entire
/// memtable (which made sustained ingest O(n²) in memtable size).
const MEM_CHUNK_ROWS: usize = 1024;

/// A compaction rewrites a segment once more than one in this many of
/// its rows are dead — deleted by its list or tombstoned. Below that the
/// segment keeps its file, mapping, built index and L1 code table, and
/// the manifest lists its dead rows instead. What keeping them costs: a
/// kept segment stores and scans up to one row in fifteen more than it
/// serves (a sixteenth of its bytes on disk and in memory; the linear
/// scan bounds or scores a dead row and offers none). What it saves: a
/// rewrite, when it comes, follows at least a sixteenth of the rows' worth
/// of deletes, so a compaction writes at most sixteen rows per row
/// deleted, where it wrote the whole segment for each one.
const REWRITE_DEAD_ONE_IN: usize = 16;

/// The physical row of a segment's `live`-th live row, given its deleted
/// rows (strictly ascending): `deleted[j] - j` live rows precede
/// `deleted[j]`, so the deleted rows before the answer are those with
/// `deleted[j] - j <= live`.
fn physical_row(deleted: &[u64], live: u64) -> u64 {
    let (mut lo, mut hi) = (0, deleted.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if deleted[mid] - mid as u64 <= live {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    live + lo as u64
}

/// A source as a snapshot numbers it: the segment, the global id of its
/// first live row, and its deleted rows as the manifest the snapshot was
/// published under lists them — physical rows, strictly ascending, with
/// no global id (none for a segment without a file).
struct Listed {
    segment: Arc<Segment>,
    base: u64,
    deleted: Arc<[u64]>,
}

impl Listed {
    /// The global ids of its live rows.
    fn ids(&self) -> Range<u64> {
        self.base..self.base + (self.segment.rows - self.deleted.len()) as u64
    }

    /// The segment and its deleted rows, shared with another snapshot.
    fn share(&self) -> (Arc<Segment>, Arc<[u64]>) {
        (Arc::clone(&self.segment), Arc::clone(&self.deleted))
    }
}

/// One non-empty source of a snapshot, resolved once per batch: its
/// rows, where they stand, and every dead row — deleted or tombstoned —
/// by physical row.
struct Source<'a> {
    rows: &'a SourceRows,
    /// The lazily built index; `None` on an approximate pass over a
    /// snapshot without an exact filter, which defers every query.
    index: Option<&'a dyn SearchIndex>,
    at: &'a Listed,
    dead: RowSet,
}

impl Source<'_> {
    /// Neighbours an approximate k-NN for `k` asks of the two-stage
    /// search here: `k` plus the source's dead rows, at most its rows (a
    /// filter passes over dead rows and is asked for `k`).
    fn want(&self, k: usize) -> usize {
        k.saturating_add(self.dead.len())
            .min(self.rows.dataset.len())
    }

    /// Lift the source's hits to global ids and append the live ones.
    fn extend_live(&self, into: &mut Hits, hits: &[Neighbor]) {
        let live = hits.iter().filter(|n| !self.dead.contains(n.id));
        into.extend(live.map(|n| {
            let row = n.id as u64;
            let before = self.at.deleted.partition_point(|&d| d < row) as u64;
            (self.at.base + row - before, n.distance)
        }));
    }
}

/// Queries each worker of a batch over filtered linear scans gets before
/// the batch spreads over one more. Every worker streams the whole code
/// table (6.4 MB per 100,000 x 64 source) whatever its share of queries,
/// so two workers with one or two queries each pay two passes for what
/// one worker does in one. At 2 queries per worker `tier_approx` (batches
/// of about 3.5) gained about half of what it gains at 4.
const QUERIES_PER_SCAN_WORKER: usize = 4;

/// What a batch asks of every source.
#[derive(Clone, Copy)]
enum Op {
    Knn(usize),
    Range(f32),
    /// Approximate k-NN for `k` at a candidate budget: a source's exact
    /// filter answers the queries it keeps to the end and defers the
    /// rest; a source without one defers every query.
    Approx {
        k: usize,
        budget: usize,
    },
}

impl Op {
    /// The hits a reply keeps: `k` for a k-NN, all for a range.
    fn keep(self) -> usize {
        match self {
            Op::Knn(k) | Op::Approx { k, .. } => k,
            Op::Range(_) => usize::MAX,
        }
    }
}

/// One query after the pass over the sources: the live hits of every
/// source that answered it, and the sources that deferred it to the
/// two-stage search. Once none did, the hits are its reply.
#[derive(Clone, Default)]
struct Partial {
    hits: Hits,
    deferred: Vec<usize>,
}

/// Run a batch of one and fold its counters into the caller's.
fn batch_of_one(
    stats: &mut SearchStats,
    run: impl FnOnce(&mut BatchStats) -> Result<Vec<Vec<Ranked>>>,
) -> Result<Vec<Ranked>> {
    let mut batch = BatchStats::new();
    let mut out = run(&mut batch)?;
    stats.merge(batch.total());
    Ok(out.pop().expect("one query in, one result list out"))
}

/// One query's hits as `(global id, distance)` pairs.
type Hits = Vec<(u64, f32)>;

/// Order hits by `(distance, id)` with [`f32::total_cmp`], the exact
/// comparator the indexes' own tie-break contract uses.
fn sort_hits(hits: &mut Hits) {
    hits.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
}

/// Merge one query's hits from every source into its reply: sorted by
/// `(distance, id)`, the first `keep`.
fn merge(hits: &mut Hits, keep: usize) {
    sort_hits(hits);
    hits.truncate(keep);
}

/// The self-exclusion of a by-id batch: query `i` is row `ids[i]`, so the
/// search asks for one hit more than the `k` to keep and the row is
/// dropped from its own hits.
type SkipSelf<'a> = Option<(&'a [u64], usize)>;

/// An immutable, epoch-stamped view of the whole corpus: the open
/// segments with their committed deleted rows, the memtable's chunks,
/// and the tombstone set at publication time — a store's whole state,
/// from which its next mutation derives the next snapshot. Cheap to pin
/// (`Arc` clone) and safe to query while the store mutates or compacts
/// underneath — the snapshot keeps its segment mappings alive even after
/// compaction unlinks the files, and numbers rows by its own lists.
pub struct CorpusSnapshot {
    epoch: u64,
    balanced: bool,
    pipeline: Pipeline,
    kind: IndexKind,
    measure: Measure,
    /// Every source in global id order: the segments with a file, then
    /// those without — the memtable's chunks, the last of them the tail
    /// while it holds fewer than [`MEM_CHUNK_ROWS`] rows, or a static
    /// database.
    sources: Vec<Listed>,
    /// How many leading sources have a file.
    files: usize,
    /// Every global id: the live rows and the tombstoned ones.
    total: u64,
    tombstones: Arc<BTreeSet<u64>>,
}

impl std::fmt::Debug for CorpusSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusSnapshot")
            .field("epoch", &self.epoch)
            .field("segments", &self.files)
            .field("segment_rows", &self.heap_base())
            .field("memtable_rows", &self.memtable_rows())
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

impl CorpusSnapshot {
    /// A snapshot of `segments` — each with its deleted rows, in global
    /// id order, those with a file first — numbered densely over their
    /// live rows.
    fn new(
        epoch: u64,
        balanced: bool,
        pipeline: Pipeline,
        kind: IndexKind,
        measure: Measure,
        segments: impl IntoIterator<Item = (Arc<Segment>, Arc<[u64]>)>,
        tombstones: Arc<BTreeSet<u64>>,
    ) -> Self {
        let mut total = 0;
        let sources: Vec<Listed> = segments
            .into_iter()
            .map(|(segment, deleted)| {
                let at = Listed {
                    segment,
                    base: total,
                    deleted,
                };
                total = at.ids().end;
                at
            })
            .collect();
        let files = sources.iter().take_while(|s| s.segment.file.is_some());
        CorpusSnapshot {
            epoch,
            balanced,
            pipeline,
            kind,
            measure,
            files: files.count(),
            sources,
            total,
            tombstones,
        }
    }

    /// The store snapshot after this one: one epoch on, with the same
    /// pipeline, index kind and measure, over `segments` and `tombstones`.
    fn next(
        &self,
        segments: impl IntoIterator<Item = (Arc<Segment>, Arc<[u64]>)>,
        tombstones: Arc<BTreeSet<u64>>,
    ) -> Self {
        Self::new(
            self.epoch + 1,
            self.balanced,
            self.pipeline.clone(),
            self.kind.clone(),
            self.measure.clone(),
            segments,
            tombstones,
        )
    }

    /// A static database as a snapshot: no files, no tombstones, epoch 0
    /// forever, and one segment on the heap that shares `db`'s rows and
    /// metadata and is searched with `kind`. The index is built here, not
    /// on first use, so an unservable configuration (an empty database,
    /// an R\*-tree without L2, a non-metric under a metric tree) fails
    /// the build rather than the first query.
    pub fn from_database(db: &ImageDatabase, kind: IndexKind, measure: Measure) -> Result<Self> {
        if db.is_empty() {
            return Err(CoreError::InvalidParameter(
                "cannot build an engine over an empty database".into(),
            ));
        }
        let segment = Segment::on_heap("database", db.to_dataset()?, db.shared_metas(), &kind);
        let (balanced, pipeline) = (db.is_balanced(), db.pipeline().clone());
        let source = (Arc::new(segment), Arc::default());
        let snapshot = Self::new(
            0,
            balanced,
            pipeline,
            kind,
            measure,
            [source],
            Arc::default(),
        );
        snapshot.sources_for(Op::Knn(0))?;
        Ok(snapshot)
    }

    /// The store epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The similarity measure every source is searched under.
    pub fn measure(&self) -> &Measure {
        &self.measure
    }

    /// The index kind segments (and a static database) are searched with.
    pub fn index_kind(&self) -> &IndexKind {
        &self.kind
    }

    /// Structure memory of the source indexes built so far (a source no
    /// query has needed yet has none).
    #[cfg(test)]
    fn index_bytes(&self) -> usize {
        let built = |(rows, _): (&SourceRows, _)| match rows.index_cell.get() {
            Some(Ok(index)) => index.structure_bytes(),
            _ => 0,
        };
        self.source_rows().map(built).sum()
    }

    /// Live (non-tombstoned) rows visible to queries.
    pub fn len(&self) -> usize {
        self.total_rows() - self.tombstones.len()
    }

    /// Whether no live rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every global id: the live rows and the tombstoned ones (a row a
    /// segment's list deletes has no id).
    pub fn total_rows(&self) -> usize {
        self.total as usize
    }

    /// Descriptor dimensionality.
    pub fn dim(&self) -> usize {
        self.pipeline.dim()
    }

    /// The extraction pipeline shared by every row.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Whether extraction is segment-balanced.
    pub fn is_balanced(&self) -> bool {
        self.balanced
    }

    /// Number of immutable segments.
    pub fn segments_len(&self) -> usize {
        self.files
    }

    /// The global id of the first row without a file: the live rows over
    /// every segment file.
    fn heap_base(&self) -> u64 {
        self.sources.get(self.files).map_or(self.total, |s| s.base)
    }

    /// Rows in the memtable: every row without a file.
    pub fn memtable_rows(&self) -> usize {
        (self.total - self.heap_base()) as usize
    }

    /// Tombstoned (deleted but not yet compacted) rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Set the `cbir-obs` store gauges of the calling thread's registry
    /// to this snapshot's shape: what a store does at every publish, and
    /// what a server does for the store it starts serving.
    pub fn record_state(&self) {
        cbir_obs::set_store_state(
            self.segments_len() as u64,
            self.memtable_rows() as u64,
            self.tombstone_count() as u64,
            self.epoch,
        );
    }

    /// Whether global id `id` addresses a live (non-tombstoned) row in
    /// this snapshot.
    pub fn contains(&self, id: u64) -> bool {
        id < self.total && !self.tombstones.contains(&id)
    }

    /// Which segment holds global id `id`, and at which physical row.
    fn locate(&self, id: u64) -> Result<(&Segment, usize)> {
        if id >= self.total {
            return Err(CoreError::NotFound(id as usize));
        }
        let at = &self.sources[self.sources.partition_point(|s| s.base <= id) - 1];
        Ok((
            &at.segment,
            physical_row(&at.deleted, id - at.base) as usize,
        ))
    }

    /// Metadata of global id `id` (tombstoned rows are still addressable
    /// until compaction renumbers).
    pub fn meta(&self, id: u64) -> Result<ImageMeta> {
        let (segment, row) = self.locate(id)?;
        Ok(segment.metas()?[row].clone())
    }

    /// Descriptor of global id `id`.
    pub fn descriptor(&self, id: u64) -> Result<Vec<f32>> {
        let (segment, row) = self.locate(id)?;
        let data = segment.data.as_ref();
        let data = data.expect("located row implies non-empty segment");
        Ok(data.dataset.vector(row).to_vec())
    }

    /// Extract a query descriptor exactly as the corpus was built.
    pub fn extract(&self, img: &RgbImage) -> Result<Vec<f32>> {
        Ok(if self.balanced {
            self.pipeline.extract_balanced(img)?
        } else {
            self.pipeline.extract(img)?
        })
    }

    /// Every non-empty source's rows, in global id order, with where it
    /// stands.
    fn source_rows(&self) -> impl Iterator<Item = (&SourceRows, &Listed)> {
        let sources = self.sources.iter();
        sources.filter_map(|at| Some((at.segment.data.as_ref()?, at)))
    }

    /// A source's dead rows by physical row: its deleted rows, then the
    /// tombstoned ids among its live ones mapped back to their rows.
    fn dead_rows<'a>(&'a self, at: &'a Listed) -> impl Iterator<Item = u64> + 'a {
        let tombstoned = self.tombstones.range(at.ids());
        let tombstoned = tombstoned.map(|&id| physical_row(&at.deleted, id - at.base));
        at.deleted.iter().copied().chain(tombstoned)
    }

    /// Every non-empty source, resolved once per batch: where its rows
    /// stand, its dead rows ([`CorpusSnapshot::dead_rows`]), and its
    /// lazily built index, which an approximate pass reads only to
    /// filter: over a snapshot without a filter (a tree snapshot among
    /// them) it builds none.
    fn sources_for(&self, op: Op) -> Result<Vec<Source<'_>>> {
        let indexed = !matches!(op, Op::Approx { .. }) || self.filters();
        self.source_rows()
            .map(|(rows, at)| {
                let index = indexed.then(|| rows.index(&self.measure));
                Ok(Source {
                    rows,
                    index: index.transpose()?,
                    at,
                    dead: self.dead_rows(at).map(|row| row as usize).collect(),
                })
            })
            .collect()
    }

    /// Whether every source's exact search is a linear scan under L1,
    /// the one index with an exact filter in front of it.
    fn filters(&self) -> bool {
        self.kind == IndexKind::Linear && matches!(self.measure, Measure::L1)
    }

    /// Workers for a pass over every source: `threads`, but where the
    /// sources are filtered scans only as many as get
    /// [`QUERIES_PER_SCAN_WORKER`] queries each (at least one).
    fn scan_threads(&self, queries: usize, threads: usize) -> usize {
        if self.filters() {
            threads.min(queries / QUERIES_PER_SCAN_WORKER).max(1)
        } else {
            threads
        }
    }

    /// One worker's query chunk through every source: each source is
    /// handed the whole chunk through its index's batched entry point
    /// (the cache-blocked scan for `Linear`, one reused scratch for the
    /// trees), and its live hits join each query's. Each query's counters
    /// are its sum over the sources.
    ///
    /// A k-NN asks each source for its `k` nearest live rows
    /// ([`SearchIndex::knn_batch_skipping`] over the source's dead rows:
    /// a linear scan passes over them inside the scan, any other index is
    /// asked for `k` more per dead row and drops them). An approximate
    /// k-NN asks the same of a source's exact filter
    /// ([`SearchIndex::knn_batch_filtered`]) and defers to the two-stage
    /// search each query the filter gives up on, and every query on a
    /// source without one. A query no source deferred is merged here:
    /// by `(distance, id)` with [`f32::total_cmp`], the exact comparator
    /// the indexes' own tie-break contract uses, truncated to `k`. Global
    /// ids rise with a source's live rows, so its own tie-breaks are the
    /// merge's. The argument is per query and per source, so it does not
    /// care how many queries share the pass.
    fn search_chunk(
        &self,
        sources: &[Source<'_>],
        queries: &[Vec<f32>],
        op: Op,
        stats: &mut BatchStats,
    ) -> Vec<Partial> {
        let mut partials = vec![Partial::default(); queries.len()];
        let mut chunk_stats = BatchStats::new();
        for _ in queries {
            chunk_stats.record(&SearchStats::new());
        }
        for (s, src) in sources.iter().enumerate() {
            let skip = match op {
                Op::Knn(k) => k == 0,
                Op::Approx { k, .. } => src.want(k) == 0,
                Op::Range(_) => false,
            };
            if skip {
                continue;
            }
            let Some(index) = src.index else {
                partials.iter_mut().for_each(|p| p.deferred.push(s));
                continue;
            };
            let mut source_stats = BatchStats::new();
            let dead = &src.dead;
            let hits: Vec<Option<Vec<Neighbor>>> = match op {
                Op::Knn(k) => {
                    let hits = index.knn_batch_skipping(queries, k, dead, &mut source_stats);
                    hits.into_iter().map(Some).collect()
                }
                Op::Range(radius) => {
                    let hits = index.range_batch(queries, radius, &mut source_stats);
                    hits.into_iter().map(Some).collect()
                }
                Op::Approx { k, .. } => {
                    index.knn_batch_filtered(queries, k, dead, &mut source_stats)
                }
            };
            chunk_stats.add_per_query(&source_stats);
            for (partial, hits) in partials.iter_mut().zip(hits) {
                match hits {
                    Some(hits) => src.extend_live(&mut partial.hits, &hits),
                    None => partial.deferred.push(s),
                }
            }
        }
        for partial in partials.iter_mut().filter(|p| p.deferred.is_empty()) {
            merge(&mut partial.hits, op.keep());
        }
        stats.merge(&chunk_stats);
        partials
    }

    /// The two-stage search of one query on the sources that deferred it,
    /// the only (query, source) pairs that reach it: each surfaces its
    /// share of the candidate `budget` — proportional to its row count,
    /// floored at what it is asked for, so it can still give a full live
    /// top-`k` — from its lazily built coarse table and reranks them with
    /// exact distances ([`approx_knn`]). Then the query's hits merge as
    /// every reply does. Coarse distances never cross sources — only
    /// exact distances merge — so each source's own quantization scale is
    /// sound.
    #[allow(clippy::too_many_arguments)] // one query's share of a batched call
    fn two_stage(
        &self,
        sources: &[Source<'_>],
        partial: &Partial,
        query: &[f32],
        k: usize,
        budget: usize,
        scratch: &mut ApproxScratch,
        stats: &mut SearchStats,
    ) -> Result<Hits> {
        let mut hits = partial.hits.clone();
        let total = self.total_rows().max(1) as u128;
        for src in partial.deferred.iter().map(|&s| &sources[s]) {
            let (rows, want) = (src.rows.dataset.len(), src.want(k));
            let share = (budget as u128 * rows as u128).div_ceil(total) as usize;
            let found = approx_knn(
                src.rows.coarse()?,
                &src.rows.dataset,
                &self.measure,
                query,
                want,
                share.max(want).min(rows),
                scratch,
                stats,
            );
            src.extend_live(&mut hits, &found);
        }
        merge(&mut hits, k);
        Ok(hits)
    }

    fn rank(&self, hits: Hits) -> Result<Vec<Ranked>> {
        hits.into_iter()
            .map(|(id, distance)| {
                let meta = self.meta(id)?;
                Ok(Ranked {
                    id: id as usize,
                    name: meta.name,
                    label: meta.label,
                    distance,
                })
            })
            .collect()
    }

    fn check_dims(&self, queries: &[Vec<f32>]) -> Result<()> {
        let dim = self.dim();
        for (i, q) in queries.iter().enumerate() {
            if q.len() != dim {
                return Err(CoreError::InvalidParameter(format!(
                    "query {i} has dim {} but corpus dim is {dim}",
                    q.len()
                )));
            }
        }
        Ok(())
    }

    /// One batched call, start to finish: fan `search` over contiguous
    /// chunks of queries `0..n` on up to `threads` workers with the index
    /// layer's [`run_parallel`], so results and per-query stats come back
    /// in input order, identical at every thread count. Each worker
    /// applies `skip_self` to its chunk's hits and ranks them. The call is
    /// flushed to the obs registry through `obs` as one `op` with `search`
    /// and `rank` stages.
    #[allow(clippy::too_many_arguments)] // one batched call, threaded explicitly
    fn run_batch<F>(
        &self,
        obs: ObsCapture,
        op: Op,
        n: usize,
        threads: usize,
        stats: &mut BatchStats,
        search: F,
        skip_self: SkipSelf<'_>,
    ) -> Result<Vec<Vec<Ranked>>>
    where
        F: Fn(Range<usize>, &mut BatchStats) -> Vec<Result<Hits>> + Sync,
    {
        let before = stats.total().clone();
        let per_chunk = |chunk: Range<usize>, bs: &mut BatchStats| {
            let hits = search(chunk.clone(), bs);
            obs.stage("rank");
            let rank = |(i, hits): (usize, Result<Hits>)| {
                let mut hits = hits?;
                if let Some((ids, k)) = skip_self {
                    hits.retain(|&(g, _)| g != ids[i]);
                    hits.truncate(k);
                }
                self.rank(hits)
            };
            chunk.zip(hits).map(rank).collect()
        };
        let ranked: Vec<Result<Vec<Ranked>>> = run_parallel(n, threads, stats, per_chunk);
        let ranked: Vec<Vec<Ranked>> = ranked.into_iter().collect::<Result<_>>()?;
        let results = ranked.iter().map(|r| r.len() as u64).sum();
        let op = match op {
            Op::Knn(_) | Op::Approx { .. } => cbir_obs::QueryOp::Knn,
            Op::Range(_) => cbir_obs::QueryOp::Range,
        };
        obs.finish(&self.kind, op, n as u64, &before, stats.total(), results);
        Ok(ranked)
    }

    /// The one batched read pass behind every public entry point: resolve
    /// the sources once, search each worker's chunk with
    /// [`CorpusSnapshot::search_chunk`], and rank. Over filtered scans
    /// the pass spreads over no more workers than
    /// [`CorpusSnapshot::scan_threads`] allows.
    ///
    /// An exact op is one round of workers: search, merge and rank. An
    /// approximate k-NN ranks in a second round, after each query's
    /// deferred sources ran [`CorpusSnapshot::two_stage`] (each query's
    /// candidates differ, so a worker loops its chunk over one reused
    /// scratch), on `threads` workers, as many as there are deferred
    /// queries. A query's counters are what both rounds spent on it.
    fn read_batch(
        &self,
        obs: ObsCapture,
        queries: &[Vec<f32>],
        op: Op,
        threads: usize,
        stats: &mut BatchStats,
        skip_self: SkipSelf<'_>,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.check_dims(queries)?;
        obs.stage("search");
        let sources = self.sources_for(op)?;
        let n = queries.len();
        let pass = |chunk: Range<usize>, bs: &mut BatchStats| {
            self.search_chunk(&sources, &queries[chunk], op, bs)
        };
        let Op::Approx { k, budget } = op else {
            let answered = |chunk, bs: &mut BatchStats| {
                let partials = pass(chunk, bs).into_iter();
                partials.map(|partial| Ok(partial.hits)).collect()
            };
            let threads = self.scan_threads(n, threads);
            return self.run_batch(obs, op, n, threads, stats, answered, skip_self);
        };
        // With no filter to run the first round only defers.
        let first_threads = if self.filters() {
            self.scan_threads(n, threads)
        } else {
            1
        };
        let mut first = BatchStats::new();
        let partials = run_parallel(n, first_threads, &mut first, pass);
        let deferred = partials.iter().filter(|p| !p.deferred.is_empty()).count();
        let second = |chunk: Range<usize>, bs: &mut BatchStats| {
            let mut scratch = ApproxScratch::new();
            let one = |i: usize| {
                let mut per_query = first.per_query()[i].clone();
                let (partial, query) = (&partials[i], &queries[i]);
                let hits = self.two_stage(
                    &sources,
                    partial,
                    query,
                    k,
                    budget,
                    &mut scratch,
                    &mut per_query,
                );
                bs.record(&per_query);
                hits
            };
            chunk.map(one).collect()
        };
        let threads = threads.min(deferred).max(1);
        self.run_batch(obs, op, n, threads, stats, second, skip_self)
    }

    fn descriptors(&self, ids: &[u64]) -> Result<Vec<Vec<f32>>> {
        ids.iter().map(|&id| self.descriptor(id)).collect()
    }

    /// Batched k-NN over raw descriptors: one ranked result list per
    /// query, executed with `threads` worker threads (`1` runs on the
    /// calling thread), bit-identical to a
    /// [`CorpusSnapshot::query_by_descriptor`] loop and to an engine built
    /// over [`CorpusSnapshot::materialize`]. Per-query search costs are
    /// aggregated into `stats`.
    pub fn knn_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        let obs = ObsCapture::begin();
        self.read_batch(obs, queries, Op::Knn(k), threads, stats, None)
    }

    /// Batched range search over raw descriptors (results sorted by
    /// `(distance, id)` per query).
    pub fn range_batch(
        &self,
        queries: &[Vec<f32>],
        radius: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        let obs = ObsCapture::begin();
        self.read_batch(obs, queries, Op::Range(radius), threads, stats, None)
    }

    /// Batched k-NN by global id, excluding each query row from its own
    /// results (the usual retrieval convention).
    pub fn knn_batch_by_ids(
        &self,
        ids: &[u64],
        k: usize,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        let queries = self.descriptors(ids)?;
        let obs = ObsCapture::begin();
        let op = Op::Knn(k.saturating_add(1));
        self.read_batch(obs, &queries, op, threads, stats, Some((ids, k)))
    }

    /// Batched approximate k-NN over raw descriptors. Each
    /// source (segment or memtable chunk) answers a query from its exact
    /// L1 filter where that serves it — one pass over the batch, as on
    /// the exact path — and by coarse-then-rerank where not, and the
    /// exact distances merge under the documented `(distance, id)` rule:
    /// a query every source's filter served gets its exact reply, with
    /// zero coarse and rerank counts. `recall_target = 1.0` routes to
    /// [`CorpusSnapshot::knn_batch`], bit-identically.
    pub fn knn_batch_approx(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        recall_target: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        validate_recall_target(recall_target)?;
        let Some(budget) = plan_candidate_budget(self.total_rows(), k, recall_target) else {
            return self.knn_batch(queries, k, threads, stats);
        };
        let op = Op::Approx { k, budget };
        self.read_batch(ObsCapture::begin(), queries, op, threads, stats, None)
    }

    /// Batched approximate k-NN by global id, excluding each query row
    /// from its own results, on the path of
    /// [`CorpusSnapshot::knn_batch_approx`]. `recall_target = 1.0` routes
    /// to [`CorpusSnapshot::knn_batch_by_ids`], bit-identically.
    pub fn knn_batch_by_ids_approx(
        &self,
        ids: &[u64],
        k: usize,
        recall_target: f32,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        validate_recall_target(recall_target)?;
        let Some(budget) = plan_candidate_budget(self.total_rows(), k, recall_target) else {
            return self.knn_batch_by_ids(ids, k, threads, stats);
        };
        let queries = self.descriptors(ids)?;
        let op = Op::Approx {
            k: k.saturating_add(1),
            budget,
        };
        let obs = ObsCapture::begin();
        self.read_batch(obs, &queries, op, threads, stats, Some((ids, k)))
    }

    /// One external example image through the exact path: a batch of one
    /// whose trace opens with the `extract` stage.
    fn by_example(&self, img: &RgbImage, op: Op, stats: &mut SearchStats) -> Result<Vec<Ranked>> {
        let obs = ObsCapture::begin();
        obs.stage("extract");
        let desc = self.extract(img)?;
        batch_of_one(stats, |batch| {
            self.read_batch(obs, &[desc], op, 1, batch, None)
        })
    }

    /// The `k` nearest rows to one external example image.
    pub fn query_by_example(
        &self,
        img: &RgbImage,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        self.by_example(img, Op::Knn(k), stats)
    }

    /// Every row within `radius` of one external example image.
    pub fn range_by_example(
        &self,
        img: &RgbImage,
        radius: f32,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        self.by_example(img, Op::Range(radius), stats)
    }

    /// The `k` nearest rows to global id `id`, excluding `id` itself; a
    /// [`CorpusSnapshot::knn_batch_by_ids`] batch of one.
    pub fn query_by_id(&self, id: u64, k: usize, stats: &mut SearchStats) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| self.knn_batch_by_ids(&[id], k, 1, batch))
    }

    /// The `k` nearest rows to one raw descriptor (for callers managing
    /// their own extraction); a [`CorpusSnapshot::knn_batch`] batch of one.
    pub fn query_by_descriptor(
        &self,
        descriptor: &[f32],
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        batch_of_one(stats, |batch| {
            self.knn_batch(&[descriptor.to_vec()], k, 1, batch)
        })
    }

    /// Every live row of the sources whose first global id lies in `ids`
    /// (a range that starts and ends on source boundaries), in global id
    /// order: the flat descriptor matrix and the metadata beside it.
    fn live_rows(&self, ids: Range<u64>) -> Result<(Vec<f32>, Vec<ImageMeta>)> {
        let live = (ids.end - ids.start) as usize - self.tombstones.range(ids.clone()).count();
        let mut flat = Vec::with_capacity(live * self.dim());
        let mut metas = Vec::with_capacity(live);
        for (rows, at) in self.source_rows().filter(|(_, at)| ids.contains(&at.base)) {
            let mut deleted = at.deleted.iter().peekable();
            let mut id = at.base;
            for (row, meta) in at.segment.metas()?.iter().enumerate() {
                if deleted.next_if_eq(&&(row as u64)).is_some() {
                    continue;
                }
                if !self.tombstones.contains(&id) {
                    flat.extend_from_slice(rows.dataset.vector(row));
                    metas.push(meta.clone());
                }
                id += 1;
            }
        }
        debug_assert_eq!(metas.len(), live, "{ids:?} splits a source");
        Ok((flat, metas))
    }

    /// Materialize every live row, in global id order, as one in-memory
    /// [`ImageDatabase`] (the bridge back to the RAM-resident engine —
    /// used by migration, tests, and the bit-identity experiment).
    pub fn materialize(&self) -> Result<ImageDatabase> {
        let (flat, metas) = self.live_rows(0..self.total_rows() as u64)?;
        ImageDatabase::from_parts(self.pipeline.clone(), self.balanced, flat, metas)
    }
}

/// What one [`CorpusStore::compact`] call did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionStats {
    /// Store epoch after the call.
    pub epoch: u64,
    /// Live segments after the call.
    pub segments: usize,
    /// How many of them were carried over: same file, same mapping, same
    /// built index, and the deleted rows the new manifest lists for it
    /// (all of them when skipped).
    pub segments_kept: usize,
    /// Live rows after the call.
    pub rows: u64,
    /// Bytes written (segments + manifest); `0` when skipped.
    pub bytes_written: u64,
    /// `true` when there was nothing to compact (no memtable rows, no
    /// tombstones) and the call was a no-op.
    pub skipped: bool,
}

/// The segment list a compaction assembles, in global id order: kept
/// segments with the deleted rows the new manifest lists for them,
/// rewritten rows as the new files it writes.
#[derive(Default)]
struct NextSegments {
    files: Vec<(Arc<Segment>, Arc<[u64]>)>,
    /// Every new file, so that a failure before the commit removes them
    /// and nothing else.
    written: Vec<PathBuf>,
    bytes: u64,
    next_seg: u64,
}

impl NextSegments {
    /// Write `metas` and their rows as a new segment (nothing when there
    /// are none): the atomic temp/fsync/rename sequence, then a read-back
    /// through the real file verified end to end, so that what a commit
    /// names is what the disk holds and an injected bit flip is caught
    /// before it, then an open, because a commit must never point at a
    /// segment we cannot serve. `warm` hands the read-back's metadata to
    /// the segment and builds its index before any reader sees it.
    fn write(
        &mut self,
        store: &CorpusStore,
        snap: &CorpusSnapshot,
        (flat, metas): (&[f32], &[ImageMeta]),
        warm: bool,
        policy: &mut dyn FaultPolicy,
    ) -> Result<()> {
        if metas.is_empty() {
            return Ok(());
        }
        let bytes = encode_segment(snap.balanced, &snap.pipeline, flat, metas)?;
        let name = segment_file_name(self.next_seg);
        self.next_seg += 1;
        let path = store.dir.join(&name);
        // Listed first: a fault after the rename leaves the file behind.
        self.written.push(path.clone());
        write_file_atomic(&path, &bytes, policy)?;
        self.bytes += bytes.len() as u64;
        let reread = read_file_bytes(&path)?;
        let view = parse_segment(&reread).map_err(|e| attach_path(e, &path))?;
        view.verify_descriptors(&reread)
            .map_err(|e| attach_path(e, &path))?;
        let metas = view
            .decode_metas(&reread)
            .map_err(|e| attach_path(e, &path))?;
        let seg = Segment::open(&path, &name, &store.options.kind)?;
        if warm {
            seg.warm(metas, &store.options.measure);
        }
        self.files.push((seg, Arc::default()));
        Ok(())
    }
}

/// The live, mutable corpus store: a segment directory plus memtable,
/// accepting online inserts and deletes while serving queries from
/// published [`CorpusSnapshot`]s, the last of which is its whole state.
/// Writers derive the next snapshot from it under the writer lock;
/// readers never take that lock — they pin the published snapshot.
#[derive(Debug)]
pub struct CorpusStore {
    dir: PathBuf,
    options: StoreOptions,
    /// Serialises writers, and holds the one thing a snapshot does not:
    /// the number of the next segment file (the manifest's `next_seg`).
    writer: Mutex<u64>,
    published: Mutex<Arc<CorpusSnapshot>>,
}

impl CorpusStore {
    /// Create an empty store in `dir` (created if missing) and commit an
    /// empty manifest.
    pub fn create(
        dir: impl AsRef<Path>,
        pipeline: Pipeline,
        balanced: bool,
        options: StoreOptions,
    ) -> Result<Arc<CorpusStore>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| {
            CoreError::Persist(
                PersistError::new(format!("cannot create store directory: {e}")).with_path(dir),
            )
        })?;
        let manifest = Manifest {
            epoch: 0,
            next_seg: 0,
            balanced,
            pipeline: pipeline.clone(),
            segments: Vec::new(),
        };
        write_file_atomic(
            dir.join(MANIFEST_FILE),
            &encode_manifest(&manifest),
            &mut NoFaults,
        )?;
        Self::open(dir, options)
    }

    /// Open an existing store directory: read and validate the manifest,
    /// open every live segment (O(segments), not O(rows) — metadata
    /// decoding, descriptor checksums, and index builds are deferred),
    /// and publish the snapshot the manifest describes.
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Arc<CorpusStore>> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = parse_manifest(&read_file_bytes(&manifest_path)?)
            .map_err(|e| attach_path(e, &manifest_path))?;
        let want_config = encode_config_parts(manifest.balanced, &manifest.pipeline);
        let mut files = Vec::with_capacity(manifest.segments.len());
        for entry in manifest.segments {
            let path = dir.join(&entry.name);
            let seg = Segment::open(&path, &entry.name, &options.kind)?;
            if seg.rows as u64 != entry.rows {
                return Err(CoreError::Persist(
                    PersistError::new(format!(
                        "segment has {} rows but the manifest records {}",
                        seg.rows, entry.rows
                    ))
                    .with_path(&path),
                ));
            }
            let view = &seg.file().view;
            if encode_config_parts(view.balanced, &view.pipeline) != want_config {
                return Err(CoreError::Persist(
                    PersistError::new("segment pipeline configuration disagrees with the manifest")
                        .with_path(&path),
                ));
            }
            files.push((seg, Arc::from(entry.deleted)));
        }
        let snapshot = Arc::new(CorpusSnapshot::new(
            manifest.epoch,
            manifest.balanced,
            manifest.pipeline,
            options.kind.clone(),
            options.measure.clone(),
            files,
            Arc::default(),
        ));
        snapshot.record_state();
        Ok(Arc::new(CorpusStore {
            dir: dir.to_path_buf(),
            options,
            writer: Mutex::new(manifest.next_seg),
            published: Mutex::new(snapshot),
        }))
    }

    /// Migrate a RAM-resident [`ImageDatabase`] into a fresh store at
    /// `dir`: its rows are appended to the memtable in one pass, then
    /// written as immutable segments (chunked by `options.max_seg_rows`)
    /// and committed under a manifest.
    pub fn create_from_database(
        dir: impl AsRef<Path>,
        db: &ImageDatabase,
        options: StoreOptions,
    ) -> Result<Arc<CorpusStore>> {
        let store = Self::create(dir, db.pipeline().clone(), db.is_balanced(), options)?;
        if !db.is_empty() {
            let mut next_seg = store.writer.lock().expect("store lock poisoned");
            let metas = db.metas().iter().cloned();
            store.append(&store.snapshot(), db.flat_descriptors(), metas)?;
            store.compact_locked(&mut next_seg, &mut NoFaults)?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store options.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// Pin the current published snapshot. O(1); the snapshot stays
    /// valid (and its mapped segments stay alive) for as long as the
    /// `Arc` is held, across any number of mutations and compactions.
    pub fn snapshot(&self) -> Arc<CorpusSnapshot> {
        Arc::clone(&self.published.lock().expect("store lock poisoned"))
    }

    /// Publish `snapshot`, derived from the published one under the
    /// writer lock, as the store's state.
    fn publish(&self, snapshot: CorpusSnapshot) -> Arc<CorpusSnapshot> {
        let snapshot = Arc::new(snapshot);
        snapshot.record_state();
        *self.published.lock().expect("store lock poisoned") = Arc::clone(&snapshot);
        snapshot
    }

    fn validate_descriptor(dim: usize, desc: &[f32]) -> Result<()> {
        let fault = if desc.len() != dim {
            format!("descriptor has dim {}, store expects {dim}", desc.len())
        } else if desc.iter().any(|x| !x.is_finite()) {
            "descriptor contains a non-finite component".into()
        } else {
            return Ok(());
        };
        Err(CoreError::InvalidParameter(fault))
    }

    /// Insert one precomputed descriptor; returns its global id in the
    /// last snapshot the call published. At `memtable_limit` memtable rows
    /// the call compacts too, under the same writer-lock hold, and returns
    /// the id the compaction gave the row (a failed compaction is
    /// swallowed — the insert itself has already been published).
    pub fn insert(&self, meta: ImageMeta, descriptor: Vec<f32>) -> Result<u64> {
        let mut next_seg = self.writer.lock().expect("store lock poisoned");
        let (id, snap) = self.insert_locked(vec![(meta, descriptor)])?;
        // Soft limit: the memtable keeps absorbing inserts even if
        // compaction cannot run (e.g. a read-only filesystem).
        if snap.memtable_rows() >= self.options.memtable_limit
            && self.compact_locked(&mut next_seg, &mut NoFaults).is_ok()
        {
            // Compaction renumbered the rows past each tombstone.
            return Ok(id - snap.tombstones.range(..id).count() as u64);
        }
        Ok(id)
    }

    /// Insert many precomputed descriptors under one epoch bump; returns
    /// their global ids. All-or-nothing: validation happens before any
    /// state changes.
    pub fn insert_batch(&self, items: Vec<(ImageMeta, Vec<f32>)>) -> Result<Vec<u64>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let n = items.len() as u64;
        let _writer = self.writer.lock().expect("store lock poisoned");
        let (first, _) = self.insert_locked(items)?;
        Ok((first..first + n).collect())
    }

    /// Validate `items` (non-empty) and [`CorpusStore::append`] them;
    /// returns the first new id and the published snapshot.
    fn insert_locked(
        &self,
        items: Vec<(ImageMeta, Vec<f32>)>,
    ) -> Result<(u64, Arc<CorpusSnapshot>)> {
        let last = self.snapshot();
        let dim = last.dim();
        let mut flat = Vec::with_capacity(items.len() * dim);
        for (_, desc) in &items {
            Self::validate_descriptor(dim, desc)?;
            flat.extend_from_slice(desc);
        }
        let n = items.len() as u64;
        let next = self.append(&last, &flat, items.into_iter().map(|(meta, _)| meta))?;
        cbir_obs::store_count(cbir_obs::StoreCounter::Inserts, n);
        Ok((last.total, next))
    }

    /// Publish the snapshot after `last`, the published one, with `metas`
    /// and their rows (`flat`, at least one) appended: every source but
    /// the tail — the last chunk without a file, while it holds fewer
    /// than [`MEM_CHUNK_ROWS`] rows — is shared by `Arc`, and the tail's
    /// rows and the new ones are cut into fresh chunks. The caller holds
    /// the writer lock.
    fn append(
        &self,
        last: &CorpusSnapshot,
        flat: &[f32],
        metas: impl IntoIterator<Item = ImageMeta>,
    ) -> Result<Arc<CorpusSnapshot>> {
        let dim = last.dim();
        let heap = &last.sources[last.files..];
        let tail = heap.last().filter(|at| at.segment.rows < MEM_CHUNK_ROWS);
        let shared = &last.sources[..last.sources.len() - usize::from(tail.is_some())];
        let (mut head, mut head_metas): (&[f32], &[ImageMeta]) = match tail {
            Some(at) => (at.segment.flat(), at.segment.metas()?),
            None => (&[], &[]),
        };
        let (mut metas, mut new) = (metas.into_iter(), flat);
        let mut chunks = Vec::new();
        while !head_metas.is_empty() || !new.is_empty() {
            let take = (MEM_CHUNK_ROWS - head_metas.len()).min(new.len() / dim);
            let (now, rest) = new.split_at(take * dim);
            let chunk_metas = head_metas.iter().cloned().chain(metas.by_ref().take(take));
            let chunk = Segment::memtable(dim, [head, now].concat(), chunk_metas.collect())?;
            chunks.push((chunk, Arc::default()));
            (head, head_metas, new) = (&[], &[], rest);
        }
        let sources = shared.iter().map(Listed::share).chain(chunks);
        Ok(self.publish(last.next(sources, Arc::clone(&last.tombstones))))
    }

    /// Tombstone global id `id`. The row disappears from queries at the
    /// next epoch, whose snapshot shares every source with the last, and
    /// is physically dropped by the next compaction.
    pub fn delete(&self, id: u64) -> Result<()> {
        let _writer = self.writer.lock().expect("store lock poisoned");
        let last = self.snapshot();
        if !last.contains(id) {
            return Err(CoreError::NotFound(id as usize));
        }
        let mut tombstones = BTreeSet::clone(&last.tombstones);
        tombstones.insert(id);
        let sources = last.sources.iter().map(Listed::share);
        self.publish(last.next(sources, Arc::new(tombstones)));
        cbir_obs::store_count(cbir_obs::StoreCounter::Deletes, 1);
        Ok(())
    }

    /// Fold the memtable into segments and commit the tombstones — as
    /// segment rewrites where they pass a segment's rewrite fraction, as
    /// deleted-row lists where not — under a new manifest, clear the
    /// memtable and tombstones, and drop the replaced segment files. See
    /// [`CorpusStore::compact_with`].
    pub fn compact(&self) -> Result<CompactionStats> {
        self.compact_with(&mut NoFaults)
    }

    /// [`CorpusStore::compact`] with an explicit fault policy — the entry
    /// point the crash-consistency sweep drives.
    ///
    /// Only what changed is written, and a delete is written small. A
    /// segment more than one in `REWRITE_DEAD_ONE_IN` of whose rows are
    /// dead (its listed rows plus its tombstones) becomes one segment of
    /// its live rows (none if nothing survives); the memtable's live
    /// rows, joined by the last segment's when that one is partial (under
    /// `max_seg_rows` rows), are chunked by `max_seg_rows`; every other
    /// segment keeps its file name in the new manifest and its
    /// `Arc<Segment>` — mapping, decoded metadata, built index and code
    /// table — in the next snapshot, and its tombstones join the deleted
    /// rows the manifest lists for it. Global ids stay dense over live
    /// rows in manifest order, as a full rewrite would number them (a
    /// list carries the renumbering), so replies are bit-identical and
    /// only segment boundaries move. A rewritten segment is published warm — the
    /// metadata its read-back decoded, its index and code table built —
    /// when a source its rows come from had built its index, so a
    /// segment the exact path was reading is not rebuilt inside a
    /// request, and a store nothing has queried yet (seeding,
    /// [`CorpusStore::create_from_database`]) or that only serves the
    /// approximate path pays nothing for it.
    ///
    /// The protocol:
    ///
    /// 1. verify the descriptor checksum of every segment about to be
    ///    rewritten (bit rot must not be laundered into freshly
    ///    checksummed output);
    /// 2. write each new segment via the atomic temp/fsync/rename
    ///    sequence, then read it back and verify it end to end;
    /// 3. open the new segments;
    /// 4. atomically write the new `MANIFEST`, deleted rows and all —
    ///    **the only commit point**;
    /// 5. publish the snapshot of the new segments, with no memtable and
    ///    no tombstones, and best-effort delete the replaced segment
    ///    files (pinned snapshots keep their mappings alive regardless).
    ///
    /// A failure anywhere before step 4 leaves the old state fully
    /// intact (the new files are best-effort removed; a kept file is
    /// never touched); a failure *after* the manifest rename (e.g. the
    /// directory sync) rolls forward with the segments already opened,
    /// because the commit already landed. Recovery is therefore always
    /// "old set or new set", never a mixture.
    pub fn compact_with(&self, policy: &mut dyn FaultPolicy) -> Result<CompactionStats> {
        let mut next_seg = self.writer.lock().expect("store lock poisoned");
        self.compact_locked(&mut next_seg, policy)
    }

    /// [`CorpusStore::compact_with`] of the published snapshot; the
    /// caller holds the writer lock, whose segment number is `next_seg`.
    fn compact_locked(
        &self,
        next_seg: &mut u64,
        policy: &mut dyn FaultPolicy,
    ) -> Result<CompactionStats> {
        let snap = self.snapshot();
        if snap.memtable_rows() == 0 && snap.tombstone_count() == 0 {
            return Ok(CompactionStats {
                epoch: snap.epoch,
                segments: snap.segments_len(),
                segments_kept: snap.segments_len(),
                rows: snap.total,
                bytes_written: 0,
                skipped: true,
            });
        }
        let max_rows = self.options.max_seg_rows.max(1);
        let files = &snap.sources[..snap.files];
        let tombstoned = |ids: Range<u64>| snap.tombstones.range(ids).count();
        // Segments from `tail` on are rewritten together with the
        // memtable: the last one when the memtable's live rows join it.
        let joins = snap.memtable_rows() > tombstoned(snap.heap_base()..snap.total)
            && files.last().is_some_and(|at| at.segment.rows < max_rows);
        let tail = files.len() - usize::from(joins);
        let rewritten = |i: usize| {
            let at = &files[i];
            let dead = at.deleted.len() + tombstoned(at.ids());
            i >= tail || dead * REWRITE_DEAD_ONE_IN > at.segment.rows
        };
        // 1. Verify the sources about to be rewritten.
        for (i, at) in files.iter().enumerate() {
            if rewritten(i) {
                let file = at.segment.file();
                file.view
                    .verify_descriptors(&file.bytes)
                    .map_err(|e| attach_path(e, &file.path))?;
            }
        }
        // 2–3. Keep, or write and open, segment by segment in id order.
        let mut next = NextSegments {
            next_seg: *next_seg,
            ..NextSegments::default()
        };
        let dim = snap.dim();
        let result = (|| -> Result<()> {
            for (i, at) in files[..tail].iter().enumerate() {
                if !rewritten(i) {
                    let mut list: Vec<u64> = snap.dead_rows(at).collect();
                    list.sort_unstable();
                    next.files.push((Arc::clone(&at.segment), Arc::from(list)));
                    continue;
                }
                let (flat, metas) = snap.live_rows(at.ids())?;
                next.write(self, &snap, (&flat, &metas), at.segment.is_warm(), policy)?;
            }
            let tail_base = snap.sources.get(tail).map_or(snap.total, |at| at.base);
            let (flat, metas) = snap.live_rows(tail_base..snap.total)?;
            let warm = snap.sources[tail..].iter().any(|at| at.segment.is_warm());
            for (chunk, metas) in flat.chunks(max_rows * dim).zip(metas.chunks(max_rows)) {
                next.write(self, &snap, (chunk, metas), warm, policy)?;
            }
            // 4. Commit.
            let entry = |(s, deleted): &(Arc<Segment>, Arc<[u64]>)| ManifestEntry {
                name: s.file().name.clone(),
                rows: s.rows as u64,
                deleted: deleted.to_vec(),
            };
            let manifest = Manifest {
                epoch: snap.epoch + 1,
                next_seg: next.next_seg,
                balanced: snap.balanced,
                pipeline: snap.pipeline.clone(),
                segments: next.files.iter().map(entry).collect(),
            };
            let mbytes = encode_manifest(&manifest);
            write_file_atomic(self.dir.join(MANIFEST_FILE), &mbytes, policy)?;
            next.bytes += mbytes.len() as u64;
            Ok(())
        })();
        if let Err(e) = result {
            // A fault between the manifest rename and its directory sync
            // reports an error even though the commit already landed;
            // deleting the new segment files then would leave the
            // committed manifest pointing at nothing. Check what the disk
            // actually holds before cleaning up.
            let landed = read_file_bytes(self.dir.join(MANIFEST_FILE))
                .ok()
                .and_then(|b| parse_manifest(&b).ok())
                .is_some_and(|m| m.epoch == snap.epoch + 1);
            if !landed {
                // Pre-commit failure: the old manifest still rules.
                // Remove whatever new files made it to disk; kept files
                // and the published snapshot are untouched.
                for p in &next.written {
                    let _ = std::fs::remove_file(p);
                }
                return Err(e);
            }
            // Roll forward: the rename is the commit point and it
            // completed, and the manifest is written only once every new
            // segment is written, verified and open, so `next` is the
            // committed set. (After a real crash the un-synced rename may
            // or may not survive — either way recovery sees exactly the
            // old or the new set.)
        }
        // 5. Publish, and drop the replaced files.
        let replaced: Vec<PathBuf> = (0..files.len())
            .filter(|&i| rewritten(i))
            .map(|i| files[i].segment.file().path.clone())
            .collect();
        let kept = files.len() - replaced.len();
        *next_seg = next.next_seg;
        let after = self.publish(snap.next(next.files, Arc::default()));
        for p in replaced {
            // Best-effort: pinned snapshots hold their mappings open,
            // and fsck treats leftovers as orphans, not corruption.
            let _ = std::fs::remove_file(&p);
        }
        cbir_obs::store_count(cbir_obs::StoreCounter::Compactions, 1);
        Ok(CompactionStats {
            epoch: after.epoch,
            segments: after.segments_len(),
            segments_kept: kept,
            rows: after.total,
            bytes_written: next.bytes,
            skipped: false,
        })
    }
}

/// What a server is serving: a static RAM-resident engine (the classic
/// offline-built database) or a live mutable store. Both are read
/// through a [`CorpusSnapshot`]; they differ in whether it ever changes.
#[derive(Clone)]
pub enum ServedCorpus {
    /// Offline-built immutable engine.
    Static(Arc<crate::QueryEngine>),
    /// Live store accepting online mutation.
    Live(Arc<CorpusStore>),
}

impl ServedCorpus {
    /// Pin a consistent read view: the engine's one snapshot (epoch 0
    /// forever) or the store's current one. Every query in a batch group
    /// runs against exactly one pinned view, so a group can never
    /// straddle an epoch boundary.
    pub fn pin(&self) -> Arc<CorpusSnapshot> {
        match self {
            ServedCorpus::Static(e) => Arc::clone(e.snapshot()),
            ServedCorpus::Live(s) => s.snapshot(),
        }
    }

    /// The live store, when serving one.
    pub fn store(&self) -> Option<&Arc<CorpusStore>> {
        match self {
            ServedCorpus::Static(_) => None,
            ServedCorpus::Live(s) => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryEngine;
    use cbir_features::{FeatureSpec, Quantizer};
    use cbir_index::{approx_knn_batch, rerank_exact, ApproxSearch};
    use std::path::Path;

    struct XorShift(u64);

    impl XorShift {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn next_f32(&mut self) -> f32 {
            (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
                per_channel: 2,
            })],
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbir-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn synth_items(n: usize, dim: usize, seed: u64) -> Vec<(ImageMeta, Vec<f32>)> {
        let mut rng = XorShift(seed | 1);
        (0..n)
            .map(|i| {
                (
                    ImageMeta {
                        name: format!("img-{seed}-{i:04}"),
                        label: Some((i % 5) as u32),
                    },
                    (0..dim).map(|_| rng.next_f32()).collect(),
                )
            })
            .collect()
    }

    fn synth_queries(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = XorShift(seed | 1);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32()).collect())
            .collect()
    }

    /// Flatten results to comparable keys. `with_ids` only when both
    /// sides number rows identically (no tombstones in play).
    fn keys(results: &[Vec<Ranked>], with_ids: bool) -> Vec<(Option<usize>, String, u32)> {
        results
            .iter()
            .flat_map(|r| {
                r.iter().map(move |h| {
                    (
                        with_ids.then_some(h.id),
                        h.name.clone(),
                        h.distance.to_bits(),
                    )
                })
            })
            .collect()
    }

    impl CorpusSnapshot {
        /// Every source as an exact pass resolves it.
        fn sources(&self) -> Result<Vec<Source<'_>>> {
            self.sources_for(Op::Knn(1))
        }

        /// The segments with a file, in global id order.
        fn segments(&self) -> Vec<&Arc<Segment>> {
            let files = self.sources[..self.files].iter();
            files.map(|at| &at.segment).collect()
        }

        /// Each segment file's deleted rows.
        fn deleted(&self) -> Vec<&[u64]> {
            let files = self.sources[..self.files].iter();
            files.map(|at| &at.deleted[..]).collect()
        }

        /// The segments without a file: the memtable's chunks, or a
        /// static database.
        fn heap_segments(&self) -> Vec<&Segment> {
            let heap = self.sources[self.files..].iter();
            heap.map(|at| &*at.segment).collect()
        }
    }

    fn engine_over(snap: &CorpusSnapshot, kind: IndexKind, measure: Measure) -> QueryEngine {
        QueryEngine::build(snap.materialize().unwrap(), kind, measure).unwrap()
    }

    #[test]
    fn snapshot_matches_engine_across_kinds_and_sources() {
        let dim = pipeline().dim();
        let queries = synth_queries(8, dim, 99);
        for (t, kind) in [
            IndexKind::Linear,
            IndexKind::VpTree,
            IndexKind::KdTree,
            IndexKind::MTree,
        ]
        .into_iter()
        .enumerate()
        {
            let dir = temp_dir(&format!("parity-{t}"));
            let store = CorpusStore::create(
                &dir,
                pipeline(),
                true,
                StoreOptions::new(kind.clone(), Measure::L1),
            )
            .unwrap();
            // Rows in segments *and* in the memtable.
            store.insert_batch(synth_items(40, dim, 7)).unwrap();
            store.compact().unwrap();
            store.insert_batch(synth_items(13, dim, 8)).unwrap();
            let snap = store.snapshot();
            assert_eq!(snap.segments_len(), 1);
            assert_eq!(snap.memtable_rows(), 13);
            let engine = engine_over(&snap, kind, Measure::L1);
            let mut s1 = BatchStats::new();
            let mut s2 = BatchStats::new();
            let got = snap.knn_batch(&queries, 5, 2, &mut s1).unwrap();
            let want = engine.knn_batch(&queries, 5, 2, &mut s2).unwrap();
            // No tombstones: global ids equal engine ids, bit for bit.
            assert_eq!(keys(&got, true), keys(&want, true));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Multi-source against one-source, over the whole grid of query
    /// surface x index kind x batch size x thread count: a snapshot
    /// holding every kind of source (three segments, a frozen memtable
    /// chunk, the tail), all but one with a tombstone in it, must answer
    /// exactly like the single heap source an engine builds over its live
    /// rows — and so must the snapshot after a compaction that rewrote the
    /// segment whose dead rows passed the rewrite fraction, kept the
    /// untouched one, kept the one with a single dead row with a one-row
    /// list, and folded the memtable. (The one-source side is pinned to a
    /// naive scan below.)
    #[test]
    fn batched_paths_match_engine_over_every_source_kind_batch_size_and_thread_count() {
        let kinds = [
            IndexKind::Linear,
            IndexKind::KdTree,
            IndexKind::Antipole { diameter: None },
        ];
        multi_source_grid("grid", 40, &kinds);
    }

    /// The same grid with the segments over the row count from which a
    /// linear scan filters L1 exactly (the memtable chunks stay under
    /// it): filtered segments, plain chunks and tombstones in one merge.
    #[test]
    fn batched_paths_match_engine_when_the_segments_are_filtered() {
        multi_source_grid("grid-filtered", 4200, &[IndexKind::Linear]);
    }

    fn multi_source_grid(tag: &str, seg_rows: usize, kinds: &[IndexKind]) {
        let dim = pipeline().dim();
        for (t, kind) in kinds.iter().cloned().enumerate() {
            let dir = temp_dir(&format!("{tag}-{t}"));
            let mut options = StoreOptions::new(kind.clone(), Measure::L1);
            options.max_seg_rows = seg_rows;
            options.memtable_limit = usize::MAX;
            let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
            let in_segments = 3 * seg_rows;
            store
                .insert_batch(synth_items(in_segments, dim, 41))
                .unwrap();
            store.compact().unwrap();
            let tail_rows = 9;
            store
                .insert_batch(synth_items(MEM_CHUNK_ROWS + tail_rows, dim, 42))
                .unwrap();
            // Query 0 is row 5 itself, so row 5 is its top hit until the
            // delete below: a tombstone that removes a current top-k hit.
            let mut queries = synth_queries(64, dim, 43);
            queries[0] = store.snapshot().descriptor(5).unwrap();
            let mut s = BatchStats::new();
            let top = store.snapshot().knn_batch(&queries[..1], 1, 1, &mut s);
            assert_eq!(top.unwrap()[0][0].id, 5);
            let tail_base = (in_segments + MEM_CHUNK_ROWS) as u64;
            // Segment 0 loses a row past its rewrite fraction.
            let crossing = (seg_rows / REWRITE_DEAD_ONE_IN) as u64;
            let dead: Vec<u64> = [5]
                .into_iter()
                .chain(8..8 + crossing)
                .chain([
                    2 * seg_rows as u64 + 7,
                    in_segments as u64 + 300,
                    tail_base + 2,
                ])
                .collect();
            for &id in &dead {
                store.delete(id).unwrap();
            }
            let snap = store.snapshot();
            assert_eq!((snap.segments_len(), snap.heap_segments().len()), (3, 2));
            assert_eq!(snap.heap_segments()[1].rows, tail_rows);
            let sources = snap.sources().unwrap();
            let dead_per_source: Vec<usize> = sources.iter().map(|src| src.dead.len()).collect();
            assert_eq!(dead_per_source, [1 + crossing as usize, 0, 1, 1, 1]);
            let dead_names: Vec<String> =
                dead.iter().map(|&id| snap.meta(id).unwrap().name).collect();
            // Dense ids of live rows, as `materialize` numbers them.
            let by_id: Vec<usize> = [
                0usize,
                4,
                5,
                seg_rows + 4,
                2 * seg_rows + 5,
                in_segments + 299,
                snap.len() - 1,
            ]
            .into_iter()
            .cycle()
            .take(64)
            .collect();
            let grid = |snap: &CorpusSnapshot, when: &str| {
                let ctx = format!("kind {t}, {when}");
                assert_grid_matches_engine(snap, &kind, &queries, &by_id, &dead_names, &ctx);
            };
            grid(&snap, "before compaction");
            let cs = store.compact().unwrap();
            let after = store.snapshot();
            // Segment 0 is rewritten; segments 1 and 2 are kept, file and
            // index and all, segment 2 deleting its row 7 by its list.
            assert_eq!(cs.segments_kept, 2);
            assert!(!Arc::ptr_eq(after.segments()[0], snap.segments()[0]));
            assert!(Arc::ptr_eq(after.segments()[1], snap.segments()[1]));
            assert!(Arc::ptr_eq(after.segments()[2], snap.segments()[2]));
            let lists: Vec<&[u64]> = after.deleted()[..3].to_vec();
            assert_eq!(lists, [&[][..], &[], &[7]]);
            assert_eq!(after.tombstone_count(), 0);
            grid(&after, "after compaction");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// One snapshot against an engine over its materialized live rows, at
    /// batch sizes {1, 5, 64} and thread counts {1, 2, 3}: k-NN, range,
    /// by-id (`by_id` holds dense engine ids) and query by example, by
    /// name and distance bits; no row named in `dead_names` served.
    fn assert_grid_matches_engine(
        snap: &CorpusSnapshot,
        kind: &IndexKind,
        queries: &[Vec<f32>],
        by_id: &[usize],
        dead_names: &[String],
        ctx: &str,
    ) {
        let k = 12;
        let engine = engine_over(snap, kind.clone(), Measure::L1);
        // k exceeds what the memtable tail can give, dead row or not.
        assert!(snap.heap_segments().last().is_none_or(|c| k > c.rows));
        // Live global ids, indexed by the dense ids `materialize` gave them.
        let live: Vec<u64> = (0..snap.total_rows() as u64)
            .filter(|&id| snap.contains(id))
            .collect();

        // Query by example is a batch of one through the same path.
        let img = RgbImage::from_fn(16, 16, |x, y| {
            cbir_image::Rgb::new((x * 16) as u8, (y * 16) as u8, 90)
        });
        let (mut s1, mut s2) = (SearchStats::new(), SearchStats::new());
        let got = snap.query_by_example(&img, k, &mut s1).unwrap();
        let want = engine.query_by_example(&img, k, &mut s2).unwrap();
        assert_eq!(keys(&[got], false), keys(&[want], false), "{ctx}");
        assert!(s1.distance_computations > 0);

        let linear = matches!(kind, IndexKind::Linear);
        let filtered = snap.segments().iter().any(|s| s.rows >= 4096);
        let physical_rows: usize = snap
            .source_rows()
            .map(|(rows, ..)| rows.dataset.len())
            .sum();
        for batch in [1, 5, 64] {
            let queries = &queries[..batch];
            let ids_engine: Vec<u64> = by_id[..batch].iter().map(|&i| i as u64).collect();
            let ids_snap: Vec<u64> = by_id[..batch].iter().map(|&i| live[i]).collect();
            let mut e = BatchStats::new();
            let want_knn = engine.knn_batch(queries, k, 1, &mut e).unwrap();
            let want_range = engine.range_batch(queries, 1.6, 1, &mut e).unwrap();
            let want_ids = engine.knn_batch_by_ids(&ids_engine, k, 1, &mut e).unwrap();
            assert!(want_range.iter().any(|r| !r.is_empty()));
            assert!(want_knn.iter().all(|r| r.len() == k));
            let mut at_one_thread = None;
            for threads in [1, 2, 3] {
                let ctx = format!("{ctx}, batch {batch}, threads {threads}");
                let mut stats = [BatchStats::new(), BatchStats::new(), BatchStats::new()];
                let knn = snap.knn_batch(queries, k, threads, &mut stats[0]).unwrap();
                let range = snap
                    .range_batch(queries, 1.6, threads, &mut stats[1])
                    .unwrap();
                let ids = snap
                    .knn_batch_by_ids(&ids_snap, k, threads, &mut stats[2])
                    .unwrap();
                // Ids shift under tombstones; names and bits do not.
                assert_eq!(keys(&knn, false), keys(&want_knn, false), "knn: {ctx}");
                assert_eq!(
                    keys(&range, false),
                    keys(&want_range, false),
                    "range: {ctx}"
                );
                assert_eq!(keys(&ids, false), keys(&want_ids, false), "by ids: {ctx}");
                for hit in knn.iter().chain(&range).chain(&ids).flatten() {
                    assert!(!dead_names.contains(&hit.name), "dead row served: {ctx}");
                }
                for (row, id) in ids.iter().zip(&ids_snap) {
                    assert!(row.iter().all(|h| h.id as u64 != *id), "self hit: {ctx}");
                }
                for s in &stats {
                    assert_eq!(s.queries(), batch, "{ctx}");
                    // Every source scored each of its rows once per
                    // query, by its bound or in full: a row its list
                    // deletes as well.
                    let total = s.total();
                    if linear {
                        assert_eq!(total.subtrees_pruned > 0, filtered, "{ctx}");
                        let scored = total.distance_computations + total.subtrees_pruned;
                        assert_eq!(scored, (batch * physical_rows) as u64, "{ctx}");
                    }
                }
                // Per-query counters do not depend on the split.
                let first = at_one_thread.get_or_insert_with(|| stats.clone());
                assert_eq!(&stats, first, "stats: {ctx}");
            }
        }
    }

    fn synth_db(n: usize, seed: u64) -> ImageDatabase {
        let mut db = ImageDatabase::new(pipeline());
        for (meta, desc) in synth_items(n, db.dim(), seed) {
            db.insert_descriptor(meta, desc).unwrap();
        }
        db
    }

    /// The oracle: every row through `Measure`, sorted by `(distance, id)`
    /// with `total_cmp`.
    fn naive_scan(db: &ImageDatabase, measure: &Measure, query: &[f32]) -> Vec<Ranked> {
        let mut all: Vec<Ranked> = (0..db.len())
            .map(|id| Ranked {
                id,
                name: db.meta(id).unwrap().name.clone(),
                label: db.meta(id).unwrap().label,
                distance: measure.distance(query, db.descriptor(id).unwrap()),
            })
            .collect();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all
    }

    /// The one-source path (what a static engine serves from) against a
    /// scan written here, over query surface x index kind x batch size x
    /// thread count.
    #[test]
    fn one_source_snapshot_matches_a_naive_scan_over_kind_batch_size_and_thread_count() {
        let kinds = [
            IndexKind::Linear,
            IndexKind::KdTree,
            IndexKind::Antipole { diameter: None },
        ];
        one_source_against_naive(300, &kinds);
    }

    /// Over the row count from which the linear scan filters L1 exactly:
    /// the filtered one-source path against the same naive scan.
    #[test]
    fn filtered_one_source_snapshot_matches_a_naive_scan() {
        one_source_against_naive(4400, &[IndexKind::Linear]);
    }

    fn one_source_against_naive(rows: usize, kinds: &[IndexKind]) {
        let (k, radius, measure) = (12, 1.6, Measure::L1);
        let db = synth_db(rows, 51);
        let queries = synth_queries(64, db.dim(), 52);
        let by_id: Vec<u64> = [0, 7, rows as u64 / 2, rows as u64 - 1]
            .into_iter()
            .cycle()
            .take(64)
            .collect();
        let scans: Vec<Vec<Ranked>> = queries
            .iter()
            .map(|q| naive_scan(&db, &measure, q))
            .collect();
        let want_knn: Vec<Vec<Ranked>> = scans.iter().map(|s| s[..k].to_vec()).collect();
        let want_range: Vec<Vec<Ranked>> = scans
            .iter()
            .map(|s| s.iter().filter(|h| h.distance <= radius).cloned().collect())
            .collect();
        let want_ids: Vec<Vec<Ranked>> = by_id
            .iter()
            .map(|&id| {
                let scan = naive_scan(&db, &measure, db.descriptor(id as usize).unwrap());
                let others = scan.into_iter().filter(|h| h.id as u64 != id);
                others.take(k).collect()
            })
            .collect();
        assert!(want_range.iter().any(|r| r.len() > 1));
        assert!(want_range.iter().any(|r| r.len() < db.len()));
        for kind in kinds {
            let snap = CorpusSnapshot::from_database(&db, kind.clone(), measure.clone()).unwrap();
            assert_eq!(
                (snap.epoch(), snap.len(), snap.tombstone_count()),
                (0, rows, 0)
            );
            // One copy of rows and metadata: the source is the database's.
            let source = snap.heap_segments()[0];
            assert!(std::ptr::eq(
                source.data.as_ref().unwrap().dataset.flat(),
                db.flat_descriptors()
            ));
            assert!(std::ptr::eq(source.metas().unwrap(), db.metas()));
            for batch in [1, 5, 64] {
                let mut at_one_thread = None;
                for threads in [1, 2, 3] {
                    let ctx = format!("{}, batch {batch}, threads {threads}", kind.name());
                    let mut stats = [BatchStats::new(), BatchStats::new(), BatchStats::new()];
                    let q = &queries[..batch];
                    let knn = snap.knn_batch(q, k, threads, &mut stats[0]).unwrap();
                    let range = snap.range_batch(q, radius, threads, &mut stats[1]);
                    let ids = snap.knn_batch_by_ids(&by_id[..batch], k, threads, &mut stats[2]);
                    assert_eq!(
                        keys(&knn, true),
                        keys(&want_knn[..batch], true),
                        "knn: {ctx}"
                    );
                    assert_eq!(
                        keys(&range.unwrap(), true),
                        keys(&want_range[..batch], true),
                        "range: {ctx}"
                    );
                    assert_eq!(
                        keys(&ids.unwrap(), true),
                        keys(&want_ids[..batch], true),
                        "by ids: {ctx}"
                    );
                    assert_eq!(knn[0][0].label, want_knn[0][0].label);
                    for s in &stats {
                        assert_eq!(s.queries(), batch, "{ctx}");
                    }
                    // Per-query counters do not depend on the split.
                    let first = at_one_thread.get_or_insert_with(|| stats.clone());
                    assert_eq!(&stats, first, "stats: {ctx}");
                }
            }
        }
    }

    /// The one-source approximate pair against the index layer's own
    /// sequential two-stage batch over the same rows: same hits, same
    /// coarse and rerank counters, at every thread count.
    #[test]
    fn one_source_approx_pair_matches_the_index_layer_two_stage_batch() {
        let (k, measure) = (10, Measure::L2);
        let db = synth_db(3000, 61);
        let dataset = db.to_dataset().unwrap();
        let coefficients = CoarseHaarIndex::default_coefficients(db.dim());
        let coarse = CoarseHaarIndex::build(&dataset, coefficients).unwrap();
        let snap = CorpusSnapshot::from_database(&db, IndexKind::Linear, measure.clone()).unwrap();
        let queries = synth_queries(9, db.dim(), 62);
        let by_id: Vec<u64> = (0..9).map(|i| i * 331).collect();
        let id_queries = snap.descriptors(&by_id).unwrap();
        let rank = |hits: Vec<Vec<Neighbor>>| -> Vec<Vec<Ranked>> {
            let global = |n: &Neighbor| (n.id as u64, n.distance);
            hits.iter()
                .map(|h| snap.rank(h.iter().map(global).collect()).unwrap())
                .collect()
        };
        for recall_target in [0.5, 0.9, 1.0] {
            let mut want_stats = [BatchStats::new(), BatchStats::new()];
            let (want, want_ids) = match plan_candidate_budget(db.len(), k, recall_target) {
                // A target of 1.0 is the exact path.
                None => (
                    snap.knn_batch(&queries, k, 1, &mut want_stats[0]).unwrap(),
                    snap.knn_batch_by_ids(&by_id, k, 1, &mut want_stats[1])
                        .unwrap(),
                ),
                Some(budget) => {
                    assert!(budget < db.len() / 10, "the coarse stage must prune");
                    let [s0, s1] = &mut want_stats;
                    let plain =
                        approx_knn_batch(&coarse, &dataset, &measure, &queries, k, budget, s0);
                    let mut with_self = approx_knn_batch(
                        &coarse,
                        &dataset,
                        &measure,
                        &id_queries,
                        k + 1,
                        budget,
                        s1,
                    );
                    for (hits, &id) in with_self.iter_mut().zip(&by_id) {
                        hits.retain(|n| n.id as u64 != id);
                        hits.truncate(k);
                    }
                    (rank(plain), rank(with_self))
                }
            };
            for threads in [1, 2, 3] {
                let ctx = format!("recall {recall_target}, threads {threads}");
                let mut stats = [BatchStats::new(), BatchStats::new()];
                let got = snap
                    .knn_batch_approx(&queries, k, recall_target, threads, &mut stats[0])
                    .unwrap();
                let got_ids = snap
                    .knn_batch_by_ids_approx(&by_id, k, recall_target, threads, &mut stats[1])
                    .unwrap();
                assert_eq!(keys(&got, true), keys(&want, true), "knn: {ctx}");
                assert_eq!(keys(&got_ids, true), keys(&want_ids, true), "by ids: {ctx}");
                assert_eq!(stats, want_stats, "stats: {ctx}");
                let total = stats[0].total();
                assert_eq!(total.coarse_candidates > 0, recall_target < 1.0, "{ctx}");
                assert_eq!(total.coarse_candidates, total.rerank_evaluations, "{ctx}");
            }
        }
    }

    /// An approximate L1 request over a linear scan runs the exact filter
    /// first, so an engine that only ever serves approximate requests (a
    /// `tier_approx` backend) builds the L1 code table — and, where the
    /// filter serves every query, no coarse table.
    #[test]
    fn approximate_only_use_builds_the_l1_code_table_and_no_coarse_table() {
        let rows = 4400;
        let db = synth_db(rows, 71);
        let dim = db.dim();
        let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap();
        let idle = engine.index_bytes();
        let queries = synth_queries(6, dim, 72);
        let mut stats = BatchStats::new();
        let approx = engine
            .knn_batch_approx(&queries, 10, 0.9, 2, &mut stats)
            .unwrap();
        let approx_ids = engine
            .knn_batch_by_ids_approx(&[0, 9, rows as u64 - 1], 10, 0.9, 2, &mut stats)
            .unwrap();
        assert_eq!(stats.total().coarse_candidates, 0);
        assert_eq!(stats.total().rerank_evaluations, 0);
        assert!(stats.total().subtrees_pruned > 0);
        // The table: one byte per coordinate.
        assert_eq!(engine.index_bytes(), idle + rows * dim);
        let source = engine.snapshot().heap_segments()[0].data.as_ref().unwrap();
        assert!(
            source.coarse_cell.get().is_none(),
            "a coarse table was built"
        );
        // Exact calls read the same table, and answer the same.
        let mut exact = BatchStats::new();
        assert_eq!(
            engine.knn_batch(&queries, 10, 2, &mut exact).unwrap(),
            approx
        );
        let by_ids = engine.knn_batch_by_ids(&[0, 9, rows as u64 - 1], 10, 1, &mut exact);
        assert_eq!(by_ids.unwrap(), approx_ids);
        assert_eq!(exact, stats);
        assert_eq!(engine.index_bytes(), idle + rows * dim);
    }

    /// Each query's per-query coarse and rerank counts, in query order.
    fn approx_counts(stats: &BatchStats) -> Vec<(u64, u64)> {
        let per_query = stats.per_query().iter();
        per_query
            .map(|s| (s.coarse_candidates, s.rerank_evaluations))
            .collect()
    }

    /// A database of `rows` under a pipeline of their dimension (gray
    /// histograms, so any width from 1 up).
    fn db_of(rows: &[Vec<f32>]) -> ImageDatabase {
        let bins = rows[0].len() as u32;
        let pipeline = Pipeline::new(
            16,
            vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins })],
        );
        let mut db = ImageDatabase::new(pipeline.unwrap());
        for (i, row) in rows.iter().enumerate() {
            let meta = ImageMeta {
                name: format!("row-{i:05}"),
                label: Some((i % 7) as u32),
            };
            db.insert_descriptor(meta, row.clone()).unwrap();
        }
        db
    }

    /// The two-stage oracle for one query over `snap` at candidate budget
    /// `budget`: every source's own coarse table and budget share, exact
    /// rerank, the sources' live hits merged by `(distance, id)` — written
    /// out from the index layer's public pieces, with the counters it
    /// spent.
    fn two_stage_oracle(
        snap: &CorpusSnapshot,
        query: &[f32],
        k: usize,
        budget: usize,
    ) -> (Hits, SearchStats) {
        let total = snap.total_rows() as u128;
        let (mut merged, mut stats) = (Vec::new(), SearchStats::new());
        let mut scratch = ApproxScratch::new();
        for (data, at) in snap.source_rows() {
            let (base, rows) = (at.base, data.dataset.len());
            let dead = snap.tombstones.range(base..base + rows as u64).count();
            let want = (k + dead).min(rows);
            let share = ((budget as u128 * rows as u128).div_ceil(total) as usize)
                .max(want)
                .min(rows);
            let coarse = CoarseHaarIndex::build(
                &data.dataset,
                CoarseHaarIndex::default_coefficients(data.dataset.dim()),
            )
            .unwrap();
            let mut candidates = Vec::new();
            coarse.coarse_candidates(query, share, &mut stats, &mut candidates);
            let mut hits = Vec::new();
            let measure = snap.measure();
            rerank_exact(
                &data.dataset,
                measure,
                query,
                want,
                &candidates,
                &mut scratch,
                &mut stats,
                &mut hits,
            );
            let live = hits.iter().map(|n| (base + n.id as u64, n.distance));
            merged.extend(live.filter(|(g, _)| !snap.tombstones.contains(g)));
        }
        sort_hits(&mut merged);
        merged.truncate(k);
        (merged, stats)
    }

    /// `(global id, distance bits)` of ranked replies.
    fn id_bits(results: &[Vec<Ranked>]) -> Vec<Vec<(u64, u32)>> {
        let one = |r: &Vec<Ranked>| {
            r.iter()
                .map(|h| (h.id as u64, h.distance.to_bits()))
                .collect()
        };
        results.iter().map(one).collect()
    }

    fn hit_bits(hits: &Hits) -> Vec<(u64, u32)> {
        hits.iter().map(|&(id, d)| (id, d.to_bits())).collect()
    }

    /// A corpus on which the L1 filter serves some queries and not
    /// others: clustered rows, except that rows 3,000..4,000 are all
    /// copies of row 7. A query at row 7 meets a thousand rows at
    /// distance 0 its bound cannot exclude and leaves the filter at the
    /// end of its first code block (rows 0..4,096 at this dimension); a
    /// query in another cluster never comes near them. Returns the rows
    /// and eight queries, the odd ones at row 7.
    fn mixed_corpus() -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        mixed_corpus_of(6000, 8)
    }

    /// [`mixed_corpus`] at `n` rows and `count` queries.
    fn mixed_corpus_of(n: usize, count: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let dim = pipeline().dim();
        let mut rows = cbir_workload::clustered_smooth(n, dim, 40, 2.0, 100.0, 4, 17);
        let seven = rows[7].clone();
        for row in &mut rows[3000..4000] {
            row.clone_from(&seven);
        }
        let mut near_seven = rows[7].clone();
        near_seven[0] += 0.5;
        let queries = (0..count)
            .map(|i| match i % 4 {
                1 => rows[7].clone(),
                3 => near_seven.clone(),
                _ => rows[100 + 13 * i].clone(),
            })
            .collect();
        (rows, queries)
    }

    /// A batch mixing queries the filter serves with queries it leaves:
    /// each reply is its query's own — exact, with zero counts, where the
    /// filter served it; the two-stage oracle's, with its counts, where
    /// not — and replies and per-query counters are bit-identical at
    /// every thread count.
    #[test]
    fn a_mixed_approximate_batch_answers_each_query_on_its_own_path() {
        let (rows, queries) = mixed_corpus();
        let db = db_of(&rows);
        let snap = CorpusSnapshot::from_database(&db, IndexKind::Linear, Measure::L1).unwrap();
        let (k, recall_target) = (10, 0.9);
        let mut exact_stats = BatchStats::new();
        let exact = snap.knn_batch(&queries, k, 1, &mut exact_stats).unwrap();
        let mut at_one_thread = None;
        for threads in [1, 2, 3, 8] {
            let mut stats = BatchStats::new();
            let got = snap
                .knn_batch_approx(&queries, k, recall_target, threads, &mut stats)
                .unwrap();
            for (i, query) in queries.iter().enumerate() {
                let ctx = format!("query {i}, {threads} threads");
                let (coarse, rerank) = approx_counts(&stats)[i];
                if i % 2 == 0 {
                    assert_eq!(got[i], exact[i], "{ctx}");
                    assert_eq!(stats.per_query()[i], exact_stats.per_query()[i], "{ctx}");
                    assert_eq!((coarse, rerank), (0, 0), "{ctx}");
                } else {
                    let budget = plan_candidate_budget(rows.len(), k, recall_target).unwrap();
                    let (want, spent) = two_stage_oracle(&snap, query, k, budget);
                    assert_eq!(id_bits(&got[i..=i])[0], hit_bits(&want), "{ctx}");
                    assert_eq!(
                        (coarse, rerank),
                        (spent.coarse_candidates, spent.rerank_evaluations)
                    );
                    assert!(coarse > 0 && rerank > 0, "{ctx}");
                    // It paid for the filter's first block before leaving.
                    let filtered = stats.per_query()[i].distance_computations - rerank;
                    assert!(filtered > 0, "{ctx}");
                }
            }
            let first = at_one_thread.get_or_insert_with(|| (got.clone(), stats.clone()));
            assert_eq!((&got, &stats), (&first.0, &first.1), "{threads} threads");
        }
        // A query that left the filter built the source's coarse table.
        assert!(snap.heap_segments()[0]
            .data
            .as_ref()
            .unwrap()
            .coarse_cell
            .get()
            .is_some());
    }

    /// The approximate pair over every kind of source, at batch sizes
    /// {1, 5, 64} and thread counts {1, 2, 3}: two filtered segments with
    /// listed and tombstoned rows, then a frozen memtable chunk and the
    /// tail, which are under the row count from which a scan filters and
    /// so defer every query. The segments' filters serve the even queries
    /// and leave the odd ones (at row 7, whose thousand copies sit in
    /// segment 0). Replies, to the bit, and per-query counters are the
    /// one-thread run's.
    #[test]
    fn approximate_batches_match_the_one_thread_run_over_every_source_kind() {
        let seg_rows = 4200;
        let (rows, queries) = mixed_corpus_of(2 * seg_rows + MEM_CHUNK_ROWS + 9, 64);
        let db = db_of(&rows);
        let dir = temp_dir("approx-grid");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = seg_rows;
        options.memtable_limit = usize::MAX;
        let store = CorpusStore::create(&dir, db.pipeline().clone(), true, options).unwrap();
        let items = |range: Range<usize>| -> Vec<(ImageMeta, Vec<f32>)> {
            let meta = |i: usize| db.meta(i).unwrap().clone();
            range.map(|i| (meta(i), rows[i].clone())).collect()
        };
        store.insert_batch(items(0..2 * seg_rows)).unwrap();
        store.compact().unwrap();
        // Listed: a row of segment 0, one of row 7's copies, a row of
        // segment 1.
        for id in [11, 3001, seg_rows as u64 + 5] {
            store.delete(id).unwrap();
        }
        store.compact().unwrap();
        store.insert_batch(items(2 * seg_rows..rows.len())).unwrap();
        // Tombstoned: one row in each segment (a copy of row 7 in
        // segment 0) and one in the frozen memtable chunk.
        let in_segments = 2 * seg_rows as u64 - 3;
        for id in [20, 2998, seg_rows as u64 + 30, in_segments + 3] {
            store.delete(id).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!((snap.segments_len(), snap.heap_segments().len()), (2, 2));
        let lists: Vec<&[u64]> = snap.deleted();
        assert_eq!(lists, [&[11, 3001][..], &[5]]);
        assert_eq!(snap.tombstone_count(), 4);
        let by_id: Vec<u64> = [0, 7, 3500, in_segments - 1, in_segments + 1000]
            .into_iter()
            .chain([snap.total_rows() as u64 - 1])
            .cycle()
            .take(64)
            .collect();
        assert!(by_id.iter().all(|&id| snap.contains(id)));
        let (k, recall_target) = (10, 0.9);
        for batch in [1, 5, 64] {
            let mut at_one_thread = None;
            for threads in [1, 2, 3] {
                let ctx = format!("batch {batch}, threads {threads}");
                let mut stats = [BatchStats::new(), BatchStats::new()];
                let knn = snap
                    .knn_batch_approx(&queries[..batch], k, recall_target, threads, &mut stats[0])
                    .unwrap();
                let ids = snap
                    .knn_batch_by_ids_approx(
                        &by_id[..batch],
                        k,
                        recall_target,
                        threads,
                        &mut stats[1],
                    )
                    .unwrap();
                assert!(knn.iter().chain(&ids).all(|r| r.len() == k), "{ctx}");
                let counts = approx_counts(&stats[0]);
                // The memtable chunks defer every query.
                assert!(counts.iter().all(|&(c, r)| c > 0 && r > 0), "{ctx}");
                if batch > 1 {
                    // Query 1 also left segment 0's filter; query 0 did not.
                    assert!(counts[0].0 < counts[1].0, "{ctx}");
                }
                let got = (
                    id_bits(&knn),
                    id_bits(&ids),
                    counts,
                    approx_counts(&stats[1]),
                );
                let first = at_one_thread.get_or_insert_with(|| (got.clone(), stats.clone()));
                assert_eq!(got, first.0, "{ctx}");
                assert_eq!(stats, first.1, "stats: {ctx}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Where the filter leaves every query early (one column a million
    /// times wider than the rest, so the codes separate nothing), every
    /// source of a store — filtered segments, tombstones, plain memtable
    /// chunks — answers through the two-stage search, reply for reply and
    /// count for count the oracle's.
    #[test]
    fn where_the_filter_cannot_serve_the_reply_is_the_two_stage_oracles() {
        let dim = 64;
        let mut rows = cbir_workload::uniform(2 * 4200 + 700, dim, 1.0, 8);
        let mut rng = cbir_workload::Pcg32::new(1);
        for row in &mut rows {
            row[0] = rng.range_f32(0.0, 1e6);
        }
        let db = db_of(&rows);
        let dir = temp_dir("filter-leaves");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = 4200;
        options.memtable_limit = usize::MAX;
        let store = CorpusStore::create(&dir, db.pipeline().clone(), true, options).unwrap();
        let items = |range: Range<usize>| -> Vec<(ImageMeta, Vec<f32>)> {
            let meta = |i: usize| db.meta(i).unwrap().clone();
            range.map(|i| (meta(i), rows[i].clone())).collect()
        };
        store.insert_batch(items(0..2 * 4200)).unwrap();
        store.compact().unwrap();
        store.insert_batch(items(2 * 4200..rows.len())).unwrap();
        store.delete(11).unwrap();
        store.delete(4200 + 5).unwrap();
        let snap = store.snapshot();
        assert_eq!((snap.segments_len(), snap.heap_segments().len()), (2, 1));
        let queries = cbir_workload::queries(&rows, 6, 0.05, 4);
        let by_id = [3u64, 4200 + 9, 2 * 4200 + 20];
        for recall_target in [0.5, 0.9, 0.95] {
            for threads in [1, 2] {
                let ctx = format!("recall {recall_target}, {threads} threads");
                let mut stats = BatchStats::new();
                let got = snap
                    .knn_batch_approx(&queries, 10, recall_target, threads, &mut stats)
                    .unwrap();
                let mut id_stats = BatchStats::new();
                let got_ids = snap
                    .knn_batch_by_ids_approx(&by_id, 10, recall_target, threads, &mut id_stats)
                    .unwrap();
                let own = by_id.iter().map(|&id| snap.descriptor(id).unwrap());
                let asked = queries.iter().cloned().zip([10; 6]);
                let asked = asked.chain(own.zip([11; 3]));
                let replies = got.iter().chain(&got_ids);
                let counts = approx_counts(&stats)
                    .into_iter()
                    .chain(approx_counts(&id_stats));
                let budget = plan_candidate_budget(snap.total_rows(), 10, recall_target).unwrap();
                for (i, (((query, k), reply), counts)) in asked.zip(replies).zip(counts).enumerate()
                {
                    let (mut want, spent) = two_stage_oracle(&snap, &query, k, budget);
                    if let Some(&id) = i.checked_sub(6).map(|j| &by_id[j]) {
                        want.retain(|&(g, _)| g != id);
                        want.truncate(10);
                    }
                    assert_eq!(
                        id_bits(std::slice::from_ref(reply))[0],
                        hit_bits(&want),
                        "{ctx}, query {i}"
                    );
                    assert_eq!(
                        counts,
                        (spent.coarse_candidates, spent.rerank_evaluations),
                        "{ctx}"
                    );
                    assert!(counts.0 > 0, "{ctx}, query {i}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_filtered_batch_takes_a_worker_per_four_queries() {
        let db = synth_db(40, 3);
        let linear = CorpusSnapshot::from_database(&db, IndexKind::Linear, Measure::L1).unwrap();
        for (queries, threads, workers) in [(1, 2, 1), (3, 2, 1), (7, 2, 1), (8, 2, 2), (64, 3, 3)]
        {
            assert_eq!(
                linear.scan_threads(queries, threads),
                workers,
                "{queries} queries"
            );
        }
        // Another measure or index keeps the caller's split.
        let l2 = CorpusSnapshot::from_database(&db, IndexKind::Linear, Measure::L2).unwrap();
        let vp = CorpusSnapshot::from_database(&db, IndexKind::VpTree, Measure::L1).unwrap();
        assert_eq!((l2.scan_threads(3, 2), vp.scan_threads(3, 2)), (2, 2));
    }

    #[test]
    fn range_batch_matches_engine_as_a_set() {
        let dim = pipeline().dim();
        let dir = temp_dir("range");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::VpTree, Measure::L2),
        )
        .unwrap();
        store.insert_batch(synth_items(30, dim, 3)).unwrap();
        store.compact().unwrap();
        store.insert_batch(synth_items(10, dim, 4)).unwrap();
        let snap = store.snapshot();
        let engine = engine_over(&snap, IndexKind::VpTree, Measure::L2);
        let queries = synth_queries(5, dim, 5);
        let mut s1 = BatchStats::new();
        let mut s2 = BatchStats::new();
        let got = snap.range_batch(&queries, 0.4, 1, &mut s1).unwrap();
        let want = engine.range_batch(&queries, 0.4, 1, &mut s2).unwrap();
        assert!(got.iter().map(|r| r.len()).sum::<usize>() > 0);
        for (g, w) in got.iter().zip(&want) {
            let mut g = keys(std::slice::from_ref(g), true);
            let mut w = keys(std::slice::from_ref(w), true);
            g.sort();
            w.sort();
            assert_eq!(g, w);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_serves_identically_in_mmap_and_heap_modes() {
        let dim = pipeline().dim();
        let queries = synth_queries(6, dim, 42);
        let dir = temp_dir("reopen");
        let mut options = StoreOptions::new(IndexKind::VpTree, Measure::L1);
        options.max_seg_rows = 16;
        let store = CorpusStore::create(&dir, pipeline(), true, options.clone()).unwrap();
        store.insert_batch(synth_items(50, dim, 11)).unwrap();
        let cs = store.compact().unwrap();
        assert!(!cs.skipped);
        assert_eq!(cs.segments, 4); // ceil(50 / 16)
        let mut s = BatchStats::new();
        let want = keys(
            &store.snapshot().knn_batch(&queries, 4, 1, &mut s).unwrap(),
            true,
        );
        let durable_epoch = cs.epoch;
        drop(store);
        for mmap in [true, false] {
            let store = CorpusStore::open(&dir, options.clone()).unwrap();
            if !mmap {
                // The owned-buffer fallback of `Mmap::open`, forced.
                let _writer = store.writer.lock().unwrap();
                let snap = store.snapshot();
                let files = snap.sources.iter().map(|at| {
                    let path = &at.segment.file().path;
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    let image = Mmap::from_bytes(std::fs::read(path).unwrap());
                    assert!(!image.is_mapped());
                    let seg = Segment::from_image(path, &name, Arc::new(image), &options.kind);
                    (seg.unwrap(), Arc::clone(&at.deleted))
                });
                store.publish(CorpusSnapshot::new(
                    snap.epoch,
                    snap.balanced,
                    snap.pipeline.clone(),
                    snap.kind.clone(),
                    snap.measure.clone(),
                    files,
                    Arc::default(),
                ));
            }
            let snap = store.snapshot();
            assert_eq!(snap.epoch(), durable_epoch);
            assert_eq!(snap.segments_len(), 4);
            assert_eq!(snap.len(), 50);
            let mut s = BatchStats::new();
            let got = keys(&snap.knn_batch(&queries, 4, 3, &mut s).unwrap(), true);
            assert_eq!(got, want, "mmap={mmap}");
            // Row addressing across segment boundaries.
            for id in [0u64, 15, 16, 49] {
                assert!(snap.meta(id).is_ok());
                assert_eq!(snap.descriptor(id).unwrap().len(), dim);
            }
            assert!(snap.meta(50).is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_tombstones_then_compaction_renumbers() {
        let dim = pipeline().dim();
        let dir = temp_dir("delete");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::Linear, Measure::L1),
        )
        .unwrap();
        let items = synth_items(20, dim, 21);
        let victim_name = items[4].0.name.clone();
        store.insert_batch(items).unwrap();
        store.compact().unwrap();
        store.delete(4).unwrap();
        store.delete(17).unwrap();
        assert!(matches!(store.delete(4), Err(CoreError::NotFound(4))));
        assert!(matches!(store.delete(99), Err(CoreError::NotFound(99))));
        let snap = store.snapshot();
        assert_eq!(snap.len(), 18);
        assert_eq!(snap.total_rows(), 20);
        assert_eq!(snap.tombstone_count(), 2);
        // Tombstoned rows never surface, and results still match an
        // engine over the live rows (names and distances; ids shift).
        let queries = synth_queries(6, dim, 22);
        let engine = engine_over(&snap, IndexKind::Linear, Measure::L1);
        let mut s1 = BatchStats::new();
        let mut s2 = BatchStats::new();
        let got = snap.knn_batch(&queries, 20, 1, &mut s1).unwrap();
        let want = engine.knn_batch(&queries, 20, 1, &mut s2).unwrap();
        assert_eq!(keys(&got, false), keys(&want, false));
        assert!(!got.iter().flatten().any(|h| h.name == victim_name));
        // Compaction drops the tombstones and renumbers densely.
        store.compact().unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 18);
        assert_eq!(snap.total_rows(), 18);
        assert_eq!(snap.tombstone_count(), 0);
        let mut s3 = BatchStats::new();
        let after = snap.knn_batch(&queries, 20, 1, &mut s3).unwrap();
        assert_eq!(keys(&after, false), keys(&want, false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_from_database_is_lossless() {
        let dim = pipeline().dim();
        let mut db = ImageDatabase::new(pipeline());
        for (meta, desc) in synth_items(25, dim, 31) {
            db.insert_descriptor(meta, desc).unwrap();
        }
        let dir = temp_dir("migrate");
        let store = CorpusStore::create_from_database(
            &dir,
            &db,
            StoreOptions::new(IndexKind::VpTree, Measure::L1),
        )
        .unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 25);
        assert_eq!(snap.memtable_rows(), 0); // migration ends compacted
        let queries = synth_queries(5, dim, 32);
        let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
        let mut s1 = BatchStats::new();
        let mut s2 = BatchStats::new();
        let got = snap.knn_batch(&queries, 6, 1, &mut s1).unwrap();
        let want = engine.knn_batch(&queries, 6, 1, &mut s2).unwrap();
        assert_eq!(keys(&got, true), keys(&want, true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_snapshot_survives_compaction_unlinking_its_files() {
        let dim = pipeline().dim();
        let dir = temp_dir("pinned");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::VpTree, Measure::L1),
        )
        .unwrap();
        store.insert_batch(synth_items(30, dim, 51)).unwrap();
        store.compact().unwrap();
        let pinned = store.snapshot();
        let queries = synth_queries(6, dim, 52);
        let mut s = BatchStats::new();
        let before = keys(&pinned.knn_batch(&queries, 5, 1, &mut s).unwrap(), true);
        let pinned_epoch = pinned.epoch();
        let old_seg = dir.join(segment_file_name(0));
        assert!(old_seg.exists());
        // Mutate and compact underneath the pin: the old segment file is
        // unlinked, but the pinned mapping must keep serving.
        store.insert_batch(synth_items(10, dim, 53)).unwrap();
        store.delete(2).unwrap();
        store.compact().unwrap();
        assert!(
            !old_seg.exists(),
            "compaction should unlink the old segment"
        );
        assert_eq!(pinned.epoch(), pinned_epoch);
        assert_eq!(pinned.len(), 30);
        let mut s2 = BatchStats::new();
        let after = keys(&pinned.knn_batch(&queries, 5, 1, &mut s2).unwrap(), true);
        assert_eq!(after, before, "pinned snapshot must be immutable");
        // And the new snapshot moved on.
        let fresh = store.snapshot();
        assert!(fresh.epoch() > pinned_epoch);
        assert_eq!(fresh.len(), 39);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What a query has left behind on a segment: metadata decoded, index
    /// built, and the index's structure bytes (the L1 code table's).
    fn warmth(seg: &Segment) -> (bool, bool, usize) {
        let index = seg.data.as_ref().and_then(|d| d.index_cell.get());
        let bytes = match index {
            Some(Ok(index)) => index.structure_bytes(),
            _ => 0,
        };
        (seg.metas_cell.get().is_some(), index.is_some(), bytes)
    }

    fn seg_names(snap: &CorpusSnapshot) -> Vec<String> {
        snap.segments()
            .iter()
            .map(|s| s.file().name.clone())
            .collect()
    }

    #[test]
    fn untouched_segments_keep_their_file_mapping_and_built_index() {
        let dim = pipeline().dim();
        let rows = 4200;
        let dir = temp_dir("kept");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = rows;
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        store.insert_batch(synth_items(3 * rows, dim, 5)).unwrap();
        store.compact().unwrap();
        // An exact query builds every segment's index and code table.
        let queries = synth_queries(4, dim, 6);
        let before = store.snapshot();
        before
            .knn_batch(&queries, 7, 2, &mut BatchStats::new())
            .unwrap();
        assert!(before.segments().iter().all(|s| warmth(s).2 >= rows * dim));
        store.delete(3).unwrap();
        store.insert_batch(synth_items(5, dim, 7)).unwrap();
        let cs = store.compact().unwrap();
        let after = store.snapshot();
        // Segment 0's one tombstone is far under the rewrite fraction:
        // the segment is kept and lists its row 3 as deleted. Segment 2
        // is full, so the memtable's rows start a segment of their own.
        assert_eq!((cs.segments, cs.segments_kept), (4, 3));
        let names = seg_names(&after);
        assert_eq!(names[..3], seg_names(&before)[..3]);
        assert!(names.iter().all(|n| dir.join(n).exists()));
        assert_eq!(after.deleted()[0][..], [3]);
        assert!(after.deleted()[1..].iter().all(|d| d.is_empty()));
        for i in [0, 1, 2] {
            assert!(Arc::ptr_eq(after.segments()[i], before.segments()[i]));
            let index = |snap: &CorpusSnapshot| {
                let cell = snap.segments()[i].data.as_ref().unwrap().index_cell.get();
                let index: &dyn SearchIndex = cell.unwrap().as_ref().unwrap().as_ref();
                index as *const dyn SearchIndex as *const u8
            };
            assert_eq!(index(&after), index(&before));
        }
        // The reopened store names the same files and answers the same.
        let got = keys(
            &after
                .knn_batch(&queries, 7, 1, &mut BatchStats::new())
                .unwrap(),
            false,
        );
        drop((before, after));
        let reopened = CorpusStore::open(&dir, store.options().clone()).unwrap();
        assert_eq!(seg_names(&reopened.snapshot()), names);
        assert_eq!(reopened.snapshot().deleted()[0][..], [3]);
        let mut s = BatchStats::new();
        let again = keys(
            &reopened
                .snapshot()
                .knn_batch(&queries, 7, 3, &mut s)
                .unwrap(),
            false,
        );
        assert_eq!(again, got);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The manifest's deleted-row lists, segment by segment.
    fn committed_lists(dir: &Path) -> Vec<Vec<u64>> {
        let manifest = parse_manifest(&std::fs::read(dir.join(MANIFEST_FILE)).unwrap()).unwrap();
        manifest.segments.into_iter().map(|s| s.deleted).collect()
    }

    /// Both sides of the rewrite fraction, over three full 64-row
    /// segments: four dead rows keep a segment (a list), a fifth — one
    /// more tombstone on top of a kept list — rewrites it, and so does
    /// deleting every row, which leaves no segment at all. After every
    /// compaction the store answers like an engine over its live rows,
    /// and a reopened store like the live one.
    #[test]
    fn the_rewrite_fraction_decides_between_a_list_and_a_rewrite() {
        let dim = pipeline().dim();
        let (rows, k) = (64, 9);
        let dir = temp_dir("fraction");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = rows;
        options.memtable_limit = usize::MAX;
        let store = CorpusStore::create(&dir, pipeline(), true, options.clone()).unwrap();
        store.insert_batch(synth_items(3 * rows, dim, 91)).unwrap();
        store.compact().unwrap();
        let names = seg_names(&store.snapshot());
        let queries = synth_queries(5, dim, 92);
        let check = |store: &CorpusStore, ctx: &str| {
            let snap = store.snapshot();
            let engine = engine_over(&snap, IndexKind::Linear, Measure::L1);
            let (mut s1, mut s2) = (BatchStats::new(), BatchStats::new());
            let got = snap.knn_batch(&queries, k, 2, &mut s1).unwrap();
            let want = engine.knn_batch(&queries, k, 1, &mut s2).unwrap();
            assert_eq!(keys(&got, true), keys(&want, true), "{ctx}");
            let reopened = CorpusStore::open(&dir, options.clone()).unwrap();
            let again = reopened.snapshot().knn_batch(&queries, k, 1, &mut s1);
            assert_eq!(
                keys(&again.unwrap(), true),
                keys(&got, true),
                "{ctx}: reopened"
            );
        };
        let per = (rows / REWRITE_DEAD_ONE_IN) as u64;
        // Segment 0 at the fraction, segment 1 one past it.
        for id in (0..per).chain(rows as u64 + 10..rows as u64 + 11 + per) {
            store.delete(id).unwrap();
        }
        let cs = store.compact().unwrap();
        assert_eq!((cs.segments, cs.segments_kept, cs.rows), (3, 2, 3 * 64 - 9));
        let now = seg_names(&store.snapshot());
        assert_eq!((&now[0], &now[2]), (&names[0], &names[2]));
        assert_ne!(now[1], names[1]);
        assert!(!dir.join(&names[1]).exists());
        assert_eq!(committed_lists(&dir), [vec![0, 1, 2, 3], vec![], vec![]]);
        check(&store, "at and past the fraction");
        // One more dead row of segment 0 (its live row 0 is row 4):
        // its list and the tombstone pass the fraction together.
        store.delete(0).unwrap();
        let cs = store.compact().unwrap();
        assert_eq!((cs.segments, cs.segments_kept), (3, 2));
        assert!(!dir.join(&names[0]).exists());
        assert_eq!(committed_lists(&dir), [vec![], vec![], vec![]]);
        check(&store, "a list crossing the fraction");
        // Every row of the last segment: no file, no list, no segment.
        let snap = store.snapshot();
        let last = snap.sources[2].base;
        for id in last..last + rows as u64 {
            store.delete(id).unwrap();
        }
        let cs = store.compact().unwrap();
        assert_eq!(
            (cs.segments, cs.segments_kept, cs.rows),
            (2, 2, 2 * 64 - 10)
        );
        assert!(!dir.join(&names[2]).exists());
        check(&store, "a segment with every row deleted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An L1 linear scan is asked for `k` past its source's dead rows,
    /// never for `k` plus them: with 248 dead rows of 4,200 and `k = 20`,
    /// `k + 248` is more than one row in sixteen, which the scan's
    /// filter never admits, yet the filter runs — over tombstones and
    /// over a kept segment's list alike — and the replies are the
    /// engine's. A k-d tree over the same store is asked for `k + 248`
    /// and answers the same.
    #[test]
    fn an_l1_scan_source_is_asked_for_k_past_its_dead_rows() {
        let dim = pipeline().dim();
        let (rows, k) = (4200, 20);
        let victims: Vec<u64> = (0..rows as u64).step_by(17).collect();
        assert_eq!(victims.len(), 248);
        assert!(victims.len() * REWRITE_DEAD_ONE_IN <= rows);
        assert!((k + victims.len()) * 16 > rows);
        let queries = synth_queries(8, dim, 94);
        let mut replies = Vec::new();
        for (t, kind) in [IndexKind::Linear, IndexKind::KdTree]
            .into_iter()
            .enumerate()
        {
            let dir = temp_dir(&format!("asked-k-{t}"));
            let mut options = StoreOptions::new(kind.clone(), Measure::L1);
            options.max_seg_rows = rows;
            let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
            store.insert_batch(synth_items(rows, dim, 93)).unwrap();
            store.compact().unwrap();
            for &id in &victims {
                store.delete(id).unwrap();
            }
            let tombstoned = store.snapshot();
            let cs = store.compact().unwrap();
            assert_eq!(cs.segments_kept, 1);
            let listed = store.snapshot();
            assert_eq!(listed.deleted()[0][..], victims[..]);
            // Tombstones keep their ids until the compaction renumbers.
            for (snap, renumbered) in [(&tombstoned, false), (&listed, true)] {
                let ctx = format!("{}, renumbered {renumbered}", kind.name());
                let mut stats = BatchStats::new();
                let got = snap.knn_batch(&queries, k, 1, &mut stats).unwrap();
                let engine = engine_over(snap, kind.clone(), Measure::L1);
                let want = engine.knn_batch(&queries, k, 1, &mut BatchStats::new());
                assert_eq!(
                    keys(&got, renumbered),
                    keys(&want.unwrap(), renumbered),
                    "{ctx}"
                );
                if kind == IndexKind::Linear {
                    assert!(
                        stats.total().subtrees_pruned > 0,
                        "{ctx}: the filter never ran"
                    );
                }
                replies.push(keys(&got, true));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(replies[0], replies[2]);
        assert_eq!(replies[1], replies[3]);
    }

    #[test]
    fn a_rewritten_segment_is_warm_exactly_when_the_one_it_replaces_was() {
        // Three churns each rewrite segment 0 and leave it over the row
        // count from which it filters.
        let rows = 5200;
        let crossing = (rows / REWRITE_DEAD_ONE_IN + 1) as u64;
        let db = synth_db(2 * rows + 100, 8);
        let dim = db.dim();
        let dir = temp_dir("warm");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = rows;
        // Seeding queries nothing, so it warms nothing.
        let store = CorpusStore::create_from_database(&dir, &db, options).unwrap();
        let cold = (false, false, 0);
        assert!(store
            .snapshot()
            .segments()
            .iter()
            .all(|s| warmth(s) == cold));
        let queries = synth_queries(3, dim, 9);
        let mut tag = 10;
        // Tombstone rows of segment 0 past its rewrite fraction and add
        // rows that join the partial last segment; compact; return
        // segment 0 and the tail.
        let mut churn = |query: &dyn Fn(&CorpusSnapshot)| {
            query(&store.snapshot());
            for id in 3..3 + crossing {
                store.delete(id).unwrap();
            }
            store.insert_batch(synth_items(5, dim, tag)).unwrap();
            tag += 1;
            let cs = store.compact().unwrap();
            assert_eq!((cs.segments, cs.segments_kept), (3, 1));
            let snap = store.snapshot();
            (warmth(snap.segments()[0]), warmth(snap.segments()[2]))
        };
        // Nothing read the replaced sources: the new ones stay cold.
        assert_eq!(churn(&|_| ()), (cold, cold));
        // After an approximate query (which runs the exact filter first)
        // they are warm: metadata, index, and the code table where the
        // segment is large enough to filter; an exact one keeps them so.
        let approx = |snap: &CorpusSnapshot| {
            let mut s = BatchStats::new();
            snap.knn_batch_approx(&queries, 5, 0.9, 1, &mut s).unwrap();
        };
        let exact = |snap: &CorpusSnapshot| {
            snap.knn_batch(&queries, 5, 1, &mut BatchStats::new())
                .unwrap();
        };
        for read in [&approx as &dyn Fn(&CorpusSnapshot), &exact] {
            let (seg0, tail) = churn(read);
            assert!(seg0.0 && seg0.1 && seg0.2 >= 4096 * dim, "{seg0:?}");
            assert!(tail.0 && tail.1 && tail.2 < 4096 * dim, "{tail:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_inserts_only_compaction_writes_less_than_one_full_segment() {
        let dim = pipeline().dim();
        let dir = temp_dir("inserts-only");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = 64;
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        store
            .insert_batch(synth_items(2 * 64 + 10, dim, 12))
            .unwrap();
        store.compact().unwrap();
        let full = std::fs::metadata(dir.join(segment_file_name(0)))
            .unwrap()
            .len();
        // The partial last segment takes the new rows: it is the one file
        // rewritten, and it is smaller than a full one.
        store.insert_batch(synth_items(5, dim, 13)).unwrap();
        let cs = store.compact().unwrap();
        assert_eq!((cs.segments, cs.segments_kept, cs.rows), (3, 2, 143));
        assert!(cs.bytes_written < full, "{} >= {full}", cs.bytes_written);
        // Filled up, the last segment is left alone and new rows start
        // their own.
        store.insert_batch(synth_items(49, dim, 14)).unwrap();
        assert_eq!(store.compact().unwrap().segments, 3);
        store.insert_batch(synth_items(3, dim, 15)).unwrap();
        let cs = store.compact().unwrap();
        assert_eq!((cs.segments, cs.segments_kept, cs.rows), (4, 3, 195));
        assert!(cs.bytes_written < full, "{} >= {full}", cs.bytes_written);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_auto_compacts_at_the_memtable_limit() {
        let dim = pipeline().dim();
        let dir = temp_dir("autocompact");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.memtable_limit = 4;
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        for (meta, desc) in synth_items(9, dim, 61) {
            store.insert(meta, desc).unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 9);
        assert!(snap.segments_len() >= 1);
        assert!(
            snap.memtable_rows() < 4,
            "memtable should have been flushed, has {} rows",
            snap.memtable_rows()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The id an insert returns names its row in the snapshot the call
    /// left, also when the insert's own compaction renumbered the row.
    #[test]
    fn an_auto_compacting_insert_returns_the_id_its_compaction_gave_the_row() {
        let dim = pipeline().dim();
        let dir = temp_dir("autocompact-id");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.memtable_limit = 4;
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        let mut items = synth_items(4, dim, 62).into_iter();
        for (meta, desc) in items.by_ref().take(3) {
            store.insert(meta, desc).unwrap();
        }
        store.delete(0).unwrap();
        let (meta, desc) = items.next().unwrap();
        let id = store.insert(meta.clone(), desc).unwrap();
        let snap = store.snapshot();
        assert_eq!((snap.memtable_rows(), snap.len()), (0, 3), "compacted");
        assert_eq!(id, 2);
        assert_eq!(snap.meta(id).unwrap(), meta);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_and_validation() {
        let dim = pipeline().dim();
        let dir = temp_dir("empty");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::Linear, Measure::L1),
        )
        .unwrap();
        let snap = store.snapshot();
        assert!(snap.is_empty());
        let mut s = BatchStats::new();
        let got = snap
            .knn_batch(&synth_queries(2, dim, 71), 3, 1, &mut s)
            .unwrap();
        assert!(got.iter().all(|r| r.is_empty()));
        assert!(store.compact().unwrap().skipped);
        // Validation happens before any state changes.
        let meta = ImageMeta {
            name: "bad".into(),
            label: None,
        };
        assert!(store.insert(meta.clone(), vec![0.0; dim + 1]).is_err());
        assert!(store.insert(meta, vec![f32::NAN; dim]).is_err());
        assert_eq!(store.snapshot().total_rows(), 0);
        // Reopening an empty store works.
        drop(store);
        let store =
            CorpusStore::open(&dir, StoreOptions::new(IndexKind::Linear, Measure::L1)).unwrap();
        assert!(store.snapshot().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn served_corpus_pins_consistent_views() {
        let dim = pipeline().dim();
        let dir = temp_dir("served");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::Linear, Measure::L1),
        )
        .unwrap();
        store.insert_batch(synth_items(12, dim, 81)).unwrap();
        let served = ServedCorpus::Live(Arc::clone(&store));
        let view = served.pin();
        let epoch = view.epoch();
        assert_eq!(view.len(), 12);
        // Mutations after the pin do not move the pinned view.
        store.insert_batch(synth_items(3, dim, 82)).unwrap();
        assert_eq!(view.len(), 12);
        assert_eq!(view.epoch(), epoch);
        assert!(served.pin().epoch() > epoch);
        assert!(served.store().is_some());
        // A static corpus pins the engine's one snapshot, epoch 0 forever.
        let engine = Arc::new(engine_over(
            &store.snapshot(),
            IndexKind::Linear,
            Measure::L1,
        ));
        let served = ServedCorpus::Static(Arc::clone(&engine));
        let view = served.pin();
        assert!(Arc::ptr_eq(&view, engine.snapshot()));
        assert!(Arc::ptr_eq(&view, &served.pin()));
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.len(), 15);
        assert!(view.contains(14) && !view.contains(15));
        assert_eq!(
            view.descriptor(3).unwrap(),
            engine.database().descriptor(3).unwrap()
        );
        assert!(served.store().is_none());
        let mut s = BatchStats::new();
        let ids = [0u64, 5];
        let by_ids = view.knn_batch_by_ids(&ids, 3, 1, &mut s).unwrap();
        assert_eq!(by_ids.len(), 2);
        assert!(by_ids[0].iter().all(|h| h.id != 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunked_memtable_crosses_chunk_boundaries() {
        let dim = pipeline().dim();
        let dir = temp_dir("chunked-mem");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.memtable_limit = 100_000;
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        // Enough rows to freeze two full chunks and leave a tail.
        let n = 2 * MEM_CHUNK_ROWS + 37;
        store.insert_batch(synth_items(n, dim, 21)).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.memtable_rows(), n);
        assert_eq!(snap.heap_segments().len(), 3);
        assert_eq!(snap.heap_segments()[0].rows, MEM_CHUNK_ROWS);
        assert_eq!(snap.heap_segments()[2].rows, 37);
        // Queries crossing chunk boundaries match a materialized engine.
        let queries = synth_queries(4, dim, 22);
        let engine = engine_over(&snap, IndexKind::Linear, Measure::L1);
        let mut s1 = BatchStats::new();
        let mut s2 = BatchStats::new();
        let got = snap.knn_batch(&queries, 7, 2, &mut s1).unwrap();
        let want = engine.knn_batch(&queries, 7, 2, &mut s2).unwrap();
        assert_eq!(keys(&got, true), keys(&want, true));
        // A delete inside a frozen chunk disappears at the next epoch.
        let victim = (MEM_CHUNK_ROWS + 3) as u64;
        let victim_name = snap.meta(victim).unwrap().name;
        store.delete(victim).unwrap();
        let snap2 = store.snapshot();
        // Its publish shares every chunk, the tail included, and the
        // tail's index stays built.
        let (chunks, chunks2) = (snap.heap_segments(), snap2.heap_segments());
        assert_eq!(chunks2.len(), 3);
        assert!(chunks
            .iter()
            .zip(&chunks2)
            .all(|(a, b)| std::ptr::eq(*a, *b)));
        assert!(chunks2[2].is_warm());
        let mut s3 = BatchStats::new();
        let got2 = snap2.knn_batch(&queries, n, 1, &mut s3).unwrap();
        assert!(got2.iter().flatten().all(|h| h.name != victim_name));
        assert_eq!(got2[0].len(), n - 1);
        // An insert shares the frozen chunks and rebuilds only the tail.
        store.insert_batch(synth_items(1, dim, 23)).unwrap();
        let snap4 = store.snapshot();
        let chunks4 = snap4.heap_segments();
        assert!(std::ptr::eq(chunks[0], chunks4[0]) && std::ptr::eq(chunks[1], chunks4[1]));
        assert!(!std::ptr::eq(chunks[2], chunks4[2]) && !chunks4[2].is_warm());
        assert_eq!((chunks4.len(), chunks4[2].rows), (3, 38));
        assert_eq!(snap4.memtable_rows(), n + 1);
        // Compaction folds every chunk into segments.
        store.compact().unwrap();
        let snap3 = store.snapshot();
        assert_eq!(snap3.memtable_rows(), 0);
        assert_eq!(snap3.len(), n);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An approximate pass reads a source's index only to filter, so
    /// over a tree snapshot it builds no index at all; the exact pass
    /// after it does.
    #[test]
    fn an_approximate_query_over_a_tree_snapshot_builds_no_tree() {
        let dim = pipeline().dim();
        let dir = temp_dir("approx-no-tree");
        let options = StoreOptions::new(IndexKind::VpTree, Measure::L1);
        let store = CorpusStore::create(&dir, pipeline(), true, options).unwrap();
        store.insert_batch(synth_items(12, dim, 31)).unwrap();
        store.compact().unwrap();
        store.insert_batch(synth_items(6, dim, 32)).unwrap();
        let snap = store.snapshot();
        let queries = synth_queries(3, dim, 33);
        let mut s = BatchStats::new();
        snap.knn_batch_approx(&queries, 5, 0.9, 2, &mut s).unwrap();
        assert!(s.total().coarse_candidates > 0);
        assert_eq!(snap.index_bytes(), 0);
        snap.knn_batch(&queries, 5, 2, &mut s).unwrap();
        assert!(snap.index_bytes() > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_approx_two_stage_merges_sources_and_recall_one_is_exact() {
        let dim = pipeline().dim();
        let dir = temp_dir("approx");
        let store = CorpusStore::create(
            &dir,
            pipeline(),
            true,
            StoreOptions::new(IndexKind::VpTree, Measure::L2),
        )
        .unwrap();
        // Rows in a segment *and* the memtable, plus a tombstone, so the
        // approx path has to merge across every source kind. The corpus
        // is small enough that the 4k budget floor covers every source in
        // full — the two-stage path must then reproduce the exact result.
        store.insert_batch(synth_items(12, dim, 31)).unwrap();
        store.compact().unwrap();
        store.insert_batch(synth_items(6, dim, 32)).unwrap();
        store.delete(3).unwrap();
        let snap = store.snapshot();
        let queries = synth_queries(6, dim, 33);
        // recall_target = 1.0 degenerates to the exact path, bit for bit.
        let mut exact = BatchStats::new();
        let mut one = BatchStats::new();
        let want = snap.knn_batch(&queries, 5, 2, &mut exact).unwrap();
        let got = snap
            .knn_batch_approx(&queries, 5, 1.0, 2, &mut one)
            .unwrap();
        assert_eq!(keys(&got, true), keys(&want, true));
        assert_eq!(one.total().coarse_candidates, 0);
        // A sub-1.0 target on a corpus this small gets a budget that
        // covers every source in full: the two-stage path runs (counters
        // move) yet stays exact.
        let mut approx = BatchStats::new();
        let got = snap
            .knn_batch_approx(&queries, 5, 0.9, 2, &mut approx)
            .unwrap();
        assert_eq!(keys(&got, true), keys(&want, true));
        assert!(approx.total().coarse_candidates > 0);
        assert!(approx.total().rerank_evaluations > 0);
        // By-id variant excludes the query row and matches its exact twin.
        let ids = [0u64, 8, 14];
        let mut s1 = BatchStats::new();
        let mut s2 = BatchStats::new();
        let want_ids = snap.knn_batch_by_ids(&ids, 4, 1, &mut s1).unwrap();
        let got_ids = snap
            .knn_batch_by_ids_approx(&ids, 4, 0.9, 1, &mut s2)
            .unwrap();
        assert_eq!(keys(&got_ids, true), keys(&want_ids, true));
        for (row, &id) in got_ids.iter().zip(&ids) {
            assert!(row.iter().all(|h| h.id as u64 != id));
        }
        // Bad targets are rejected up front.
        let mut s = BatchStats::new();
        assert!(snap.knn_batch_approx(&queries, 5, 0.0, 1, &mut s).is_err());
        assert!(snap.knn_batch_approx(&queries, 5, 1.5, 1, &mut s).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
