//! The out-of-core corpus store: immutable mmap-backed segments plus a
//! mutable in-memory memtable, unified behind epoch-stamped immutable
//! snapshots.
//!
//! ## Architecture
//!
//! A [`CorpusStore`] lives in one directory. The durable state is a set
//! of immutable `CBIRDB03` segment files named by a `MANIFEST` (see
//! [`crate::persist`]); the volatile state is a memtable of descriptors
//! inserted since the last compaction plus a tombstone set of deleted
//! global ids. Every mutation bumps a per-process epoch and publishes a
//! fresh [`CorpusSnapshot`]; readers pin a snapshot with one `Arc` clone
//! and keep querying it unperturbed while writers move on — compaction
//! included. Segment files are deleted only after a compaction commits,
//! and a pinned snapshot keeps its mappings alive across that deletion
//! (the mapping outlives the directory entry), so an in-flight
//! `knn_batch` can never observe a torn view: it sees exactly the epoch
//! it pinned.
//!
//! ## Ids and epochs
//!
//! Global ids are dense: segment rows in manifest order, then memtable
//! rows. They are *epoch-relative* — compaction drops tombstoned rows
//! and renumbers. The epoch is monotonic within a process; only
//! compaction makes it durable (in the manifest). There is no WAL: the
//! memtable and tombstones are volatile by design, and
//! [`CorpusStore::compact`] is the durability point.
//!
//! A compaction rewrites only what changed — segments holding a
//! tombstone, and the memtable with the partial last segment it joins —
//! and keeps every other segment's file, mapping and built index, so its
//! work follows the change, not the corpus
//! ([`CorpusStore::compact_with`]).
//!
//! ## Query semantics
//!
//! [`CorpusSnapshot`] is the repo's one read path. The exact side is
//! batch-first: each worker thread walks the sources (every segment's
//! lazily built index, then every memtable chunk's) once and hands its
//! whole chunk of queries to the source's batched search, asking for
//! enough neighbours to absorb the source's own tombstoned rows
//! (`k' = min(rows, k + dead_in_source)`); per query it then merges by
//! `(distance, id)` with the exact comparator the indexes use and
//! truncates to `k`. A static database is the same thing with one heap
//! source and nothing to merge ([`CorpusSnapshot::from_database`], what a
//! [`crate::QueryEngine`] wraps), so a multi-source snapshot is
//! bit-identical to an engine built over [`CorpusSnapshot::materialize`].
//! Over L1 linear scans, whose exact filter streams its whole code table
//! once per worker, a batch takes a worker per four queries, up to the
//! caller's thread count.
//!
//! The approximate side runs that filter first: a query a source's
//! filter keeps to the end is answered there exactly, and only a query
//! it does not serve runs the two-stage coarse-then-rerank search on
//! that source ([`CorpusSnapshot::knn_batch_approx`]).

use crate::database::{ImageDatabase, ImageMeta};
use crate::engine::{
    build_index, plan_candidate_budget, validate_recall_target, IndexKind, ObsCapture, Ranked,
};
use crate::error::{CoreError, PersistError, Result};
use crate::faults::{compact_policy_from_env, FaultPolicy, NoFaults};
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
    SearchIndex, SearchStats,
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

/// The searchable part of a source — a non-empty segment or a memtable
/// chunk: its rows, and the structures built over them on first use (a
/// failed build is cached too).
struct SourceRows {
    /// Names the source in build errors.
    label: String,
    dataset: Dataset,
    index_cell: OnceLock<std::result::Result<Box<dyn SearchIndex>, String>>,
    coarse_cell: OnceLock<std::result::Result<CoarseHaarIndex, String>>,
}

impl SourceRows {
    fn new(label: String, dataset: Dataset) -> Self {
        SourceRows {
            label,
            dataset,
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
    fn index(&self, kind: &IndexKind, measure: &Measure) -> Result<&dyn SearchIndex> {
        self.index_cell
            .get_or_init(|| {
                build_index(kind, self.dataset.clone(), measure.clone()).map_err(|e| e.to_string())
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

/// One open immutable segment: the mapped file image,
/// its parsed view, and lazily materialized metadata and search index.
/// Laziness is load-bearing: opening a store must stay O(segments), not
/// O(rows), so cold-open cost is independent of corpus size.
struct Segment {
    path: PathBuf,
    /// The file name the manifest records.
    name: String,
    bytes: Arc<Mmap>,
    view: SegmentView,
    rows: usize,
    /// `None` iff the segment is empty.
    data: Option<SourceRows>,
    metas_cell: OnceLock<std::result::Result<Vec<ImageMeta>, String>>,
}

impl Segment {
    /// Map the file (or, where mapping is unavailable, read it: see
    /// [`Mmap::open`]) and open the image.
    fn open(path: &Path, name: &str) -> Result<Arc<Segment>> {
        let bytes = Mmap::open(path).map_err(|e| {
            CoreError::Persist(
                PersistError::new(format!("cannot open segment: {e}")).with_path(path),
            )
        })?;
        Self::from_image(path, name, Arc::new(bytes))
    }

    fn from_image(path: &Path, name: &str, bytes: Arc<Mmap>) -> Result<Arc<Segment>> {
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
            Some(SourceRows::new(format!("segment '{name}'"), dataset))
        };
        Ok(Arc::new(Segment {
            path: path.to_path_buf(),
            name: name.to_string(),
            bytes,
            view,
            rows,
            data,
            metas_cell: OnceLock::new(),
        }))
    }

    /// Verified, decoded metadata (first access pays the checksum pass;
    /// the result — or the failure — is cached).
    fn metas(&self) -> Result<&[ImageMeta]> {
        let cached = self.metas_cell.get_or_init(|| {
            self.view
                .decode_metas(&self.bytes)
                .map_err(|e| attach_path(e, &self.path).to_string())
        });
        match cached {
            Ok(m) => Ok(m),
            Err(msg) => Err(CoreError::Persist(PersistError::new(msg.clone()))),
        }
    }

    /// Make a fresh segment ready for readers before it is published:
    /// take the metadata its read-back already verified and decoded, and
    /// build the index with whatever it builds lazily (the L1 code
    /// table). A failed build is cached like any other, for the first
    /// query to report.
    fn warm(&self, metas: Vec<ImageMeta>, kind: &IndexKind, measure: &Measure) {
        let _ = self.metas_cell.set(Ok(metas));
        if let Some(Ok(index)) = self.data.as_ref().map(|d| d.index(kind, measure)) {
            index.prepare();
        }
    }
}

/// Rows per frozen memtable chunk. This bounds the per-publish copy:
/// every insert clones at most one chunk's worth of active-tail rows and
/// `Arc`-shares the frozen chunks, instead of re-copying the entire
/// memtable (which made sustained ingest O(n²) in memtable size).
const MEM_CHUNK_ROWS: usize = 1024;

/// One immutable heap-resident source. In a store it is a slice of the
/// memtable: frozen rows shared across snapshots by `Arc`, with their
/// linear index and coarse signature table built once per chunk and
/// reused by every subsequent publish — this chunking is what makes both
/// incremental under live ingest. A static database is a single chunk
/// holding all of its rows (see [`CorpusSnapshot::from_database`]).
struct MemChunk {
    metas: Arc<Vec<ImageMeta>>,
    data: SourceRows,
    /// The index the chunk is searched with. A memtable chunk always uses
    /// a linear scan: O(1) build, and the cross-index bit-identity
    /// contract makes mixing it with tree-indexed segments safe.
    kind: IndexKind,
}

impl MemChunk {
    fn new(dim: usize, flat: Vec<f32>, metas: Vec<ImageMeta>) -> Result<Arc<MemChunk>> {
        debug_assert!(!metas.is_empty());
        debug_assert_eq!(flat.len(), metas.len() * dim);
        let dataset = Dataset::from_shared(dim, Arc::new(flat) as _)?;
        Ok(Arc::new(MemChunk {
            metas: Arc::new(metas),
            data: SourceRows::new("memtable chunk".into(), dataset),
            kind: IndexKind::Linear,
        }))
    }

    fn rows(&self) -> usize {
        self.metas.len()
    }
}

/// One non-empty source of a snapshot (a segment or a memtable chunk) as
/// the exact read path sees it.
struct Source<'a> {
    index: &'a dyn SearchIndex,
    /// Global id of the source's first row.
    base: u64,
    /// Tombstoned rows inside the source.
    dead: usize,
}

/// One non-empty source as the approximate read path sees it.
struct ApproxSource<'a> {
    rows: &'a SourceRows,
    /// The source's linear scan when the snapshot serves L1 with one:
    /// its exact filter goes first.
    scan: Option<&'a dyn SearchIndex>,
    /// The coarse table, resolved once some query of the batch needs the
    /// two-stage search here.
    coarse: Option<&'a CoarseHaarIndex>,
    /// Global id of the source's first row.
    base: u64,
    /// Tombstoned rows inside the source.
    dead: usize,
    /// Neighbours asked of the source.
    want: usize,
    /// Coarse candidates the source may surface.
    budget: usize,
}

/// Queries each worker of a batch over filtered linear scans gets before
/// the batch spreads over one more. Every worker streams the whole code
/// table (6.4 MB per 100,000 x 64 source) whatever its share of queries,
/// so two workers with one or two queries each pay two passes for what
/// one worker does in one. At 2 queries per worker `tier_approx` (batches
/// of about 3.5) gained about half of what it gains at 4.
const QUERIES_PER_SCAN_WORKER: usize = 4;

/// One query's per-source answers from the exact filters: the source's
/// hits where its filter served the query to the end, `None` where the
/// two-stage search has to run.
type Filtered = Vec<Option<Vec<Neighbor>>>;

/// The two exact searches a source can run over a query chunk.
#[derive(Clone, Copy)]
pub(crate) enum Exact {
    Knn(usize),
    Range(f32),
}

/// Run a batch of one and fold its counters into the caller's.
pub(crate) fn batch_of_one(
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

/// The self-exclusion of a by-id batch: query `i` is row `ids[i]`, so the
/// search asks for one hit more than the `k` to keep and the row is
/// dropped from its own hits.
type SkipSelf<'a> = Option<(&'a [u64], usize)>;

/// An immutable, epoch-stamped view of the whole corpus: the open
/// segments, a frozen copy of the memtable, and the tombstone set at
/// publication time. Cheap to pin (`Arc` clone) and safe to query while
/// the store mutates or compacts underneath — the snapshot keeps its
/// segment mappings alive even after compaction unlinks the files.
pub struct CorpusSnapshot {
    epoch: u64,
    balanced: bool,
    pipeline: Pipeline,
    kind: IndexKind,
    measure: Measure,
    segments: Vec<Arc<Segment>>,
    /// `bases[i]` is the global id of segment `i`'s first row.
    bases: Vec<u64>,
    seg_rows_total: u64,
    /// Frozen memtable chunks (shared with other snapshots) plus the
    /// snapshot-private active tail as the final chunk, if non-empty.
    mem_chunks: Vec<Arc<MemChunk>>,
    /// `mem_bases[i]` is the memtable-local row offset of chunk `i`.
    mem_bases: Vec<u64>,
    mem_rows_total: usize,
    tombstones: Arc<BTreeSet<u64>>,
}

impl std::fmt::Debug for CorpusSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusSnapshot")
            .field("epoch", &self.epoch)
            .field("segments", &self.segments.len())
            .field("segment_rows", &self.seg_rows_total)
            .field("memtable_rows", &self.mem_rows_total)
            .field("tombstones", &self.tombstones.len())
            .finish()
    }
}

impl CorpusSnapshot {
    /// A static database as a snapshot: no segments, no tombstones, epoch
    /// 0 forever, and one heap source that shares `db`'s rows and
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
        let chunk = MemChunk {
            metas: db.shared_metas(),
            data: SourceRows::new("database".into(), db.to_dataset()?),
            kind: kind.clone(),
        };
        chunk.data.index(&kind, &measure)?;
        Ok(CorpusSnapshot {
            epoch: 0,
            balanced: db.is_balanced(),
            pipeline: db.pipeline().clone(),
            kind,
            measure,
            segments: Vec::new(),
            bases: Vec::new(),
            seg_rows_total: 0,
            mem_chunks: vec![Arc::new(chunk)],
            mem_bases: vec![0],
            mem_rows_total: db.len(),
            tombstones: Arc::default(),
        })
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
    pub fn index_bytes(&self) -> usize {
        let built = |(rows, ..): (&SourceRows, u64, &IndexKind)| match rows.index_cell.get() {
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

    /// All physical rows, live or tombstoned.
    pub fn total_rows(&self) -> usize {
        self.seg_rows_total as usize + self.mem_rows_total
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
        self.segments.len()
    }

    /// Rows in the frozen memtable portion.
    pub fn memtable_rows(&self) -> usize {
        self.mem_rows_total
    }

    /// Tombstoned (deleted but not yet compacted) rows.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether global id `id` addresses a live (non-tombstoned) row in
    /// this snapshot.
    pub fn contains(&self, id: u64) -> bool {
        id < self.total_rows() as u64 && !self.tombstones.contains(&id)
    }

    /// Which physical source holds global id `id`.
    fn locate(&self, id: u64) -> Result<(Option<usize>, usize)> {
        if id < self.seg_rows_total {
            let i = self.bases.partition_point(|&b| b <= id) - 1;
            Ok((Some(i), (id - self.bases[i]) as usize))
        } else {
            let local = (id - self.seg_rows_total) as usize;
            if local >= self.mem_rows_total {
                return Err(CoreError::NotFound(id as usize));
            }
            Ok((None, local))
        }
    }

    /// Which memtable chunk holds memtable-local row `local`.
    fn mem_chunk_at(&self, local: usize) -> (&MemChunk, usize) {
        let i = self.mem_bases.partition_point(|&b| b <= local as u64) - 1;
        (&self.mem_chunks[i], local - self.mem_bases[i] as usize)
    }

    /// Metadata of global id `id` (tombstoned rows are still addressable
    /// until compaction renumbers).
    pub fn meta(&self, id: u64) -> Result<ImageMeta> {
        match self.locate(id)? {
            (Some(seg), local) => Ok(self.segments[seg].metas()?[local].clone()),
            (None, local) => {
                let (chunk, off) = self.mem_chunk_at(local);
                Ok(chunk.metas[off].clone())
            }
        }
    }

    /// Descriptor of global id `id`.
    pub fn descriptor(&self, id: u64) -> Result<Vec<f32>> {
        match self.locate(id)? {
            (Some(seg), local) => {
                let data = self.segments[seg].data.as_ref();
                let data = data.expect("located row implies non-empty segment");
                Ok(data.dataset.vector(local).to_vec())
            }
            (None, local) => {
                let (chunk, off) = self.mem_chunk_at(local);
                Ok(chunk.data.dataset.vector(off).to_vec())
            }
        }
    }

    /// Extract a query descriptor exactly as the corpus was built.
    pub fn extract(&self, img: &RgbImage) -> Result<Vec<f32>> {
        Ok(if self.balanced {
            self.pipeline.extract_balanced(img)?
        } else {
            self.pipeline.extract(img)?
        })
    }

    /// The rows of every non-empty source in global id order, with the
    /// global id of the first and the index kind the source is searched
    /// with.
    fn source_rows(&self) -> impl Iterator<Item = (&SourceRows, u64, &IndexKind)> {
        let segments = self.segments.iter().zip(&self.bases);
        let chunks = self.mem_chunks.iter().zip(&self.mem_bases);
        segments
            .filter_map(|(seg, &base)| Some((seg.data.as_ref()?, base, &self.kind)))
            .chain(chunks.map(|(chunk, &cb)| (&chunk.data, self.seg_rows_total + cb, &chunk.kind)))
    }

    /// Every non-empty source, resolved once per batch: the lazily built
    /// index, the global id of the source's first row, and how many of
    /// its rows are tombstoned.
    fn sources(&self) -> Result<Vec<Source<'_>>> {
        self.source_rows()
            .map(|(rows, base, kind)| {
                let index = rows.index(kind, &self.measure)?;
                let ids = base..base + index.len() as u64;
                let dead = self.tombstones.range(ids).count();
                Ok(Source { index, base, dead })
            })
            .collect()
    }

    /// Lift one source's hits to global ids (`base` is the source's first)
    /// and append the live ones; `dead` is the source's tombstone count.
    fn extend_live(&self, into: &mut Hits, base: u64, dead: usize, hits: &[Neighbor]) {
        into.extend(
            hits.iter()
                .map(|n| (base + n.id as u64, n.distance))
                .filter(|(g, _)| dead == 0 || !self.tombstones.contains(g)),
        );
    }

    /// Whether every source's exact search is a linear scan under L1,
    /// the one index with an exact filter in front of it.
    fn filters(&self) -> bool {
        self.kind == IndexKind::Linear && matches!(self.measure, Measure::L1)
    }

    /// Workers for an exact pass over every source: `threads`, but where
    /// the sources are filtered scans only as many as get
    /// [`QUERIES_PER_SCAN_WORKER`] queries each (at least one).
    fn scan_threads(&self, queries: usize, threads: usize) -> usize {
        if self.filters() {
            threads.min(queries / QUERIES_PER_SCAN_WORKER).max(1)
        } else {
            threads
        }
    }

    /// Exact search of one worker's query chunk: one pass over the
    /// sources, each handed the whole chunk through the index's batched
    /// entry point (the cache-blocked scan for `Linear`, one reused
    /// scratch for the trees), then a per-query merge.
    ///
    /// A k-NN asks each source for `min(rows, k + dead_in_source)`
    /// neighbours — enough that discarding that source's dead rows can
    /// never cost it a live top-`k` hit — then all candidates merge by
    /// `(distance, id)` with [`f32::total_cmp`], the exact comparator the
    /// indexes' own tie-break contract uses, and truncate to `k`. The
    /// argument is per query and per source, so it does not care how many
    /// queries share the pass. Each query's counters are its sum over the
    /// sources.
    fn exact_chunk(
        &self,
        sources: &[Source<'_>],
        queries: &[Vec<f32>],
        op: Exact,
        stats: &mut BatchStats,
    ) -> Vec<Hits> {
        let mut merged: Vec<Hits> = vec![Vec::new(); queries.len()];
        let mut chunk_stats = BatchStats::new();
        for _ in queries {
            chunk_stats.record(&SearchStats::new());
        }
        for src in sources {
            let mut source_stats = BatchStats::new();
            let hits = match op {
                Exact::Knn(k) => {
                    let want = k.saturating_add(src.dead).min(src.index.len());
                    if want == 0 {
                        continue;
                    }
                    src.index.knn_batch(queries, want, &mut source_stats)
                }
                Exact::Range(radius) => src.index.range_batch(queries, radius, &mut source_stats),
            };
            chunk_stats.add_per_query(&source_stats);
            for (all, hits) in merged.iter_mut().zip(hits) {
                self.extend_live(all, src.base, src.dead, &hits);
            }
        }
        for all in &mut merged {
            sort_hits(all);
            if let Exact::Knn(k) = op {
                all.truncate(k);
            }
        }
        stats.merge(&chunk_stats);
        merged
    }

    /// Every non-empty source as the approximate path sees it, resolved
    /// once per batch: its linear scan where the snapshot filters, how
    /// many neighbours to ask for (`k + dead`, as on the exact path), and
    /// the source's share of the candidate budget — proportional to its
    /// row count, floored at `want` so every source can still surface a
    /// full live top-`k`. No coarse table yet: see
    /// [`CorpusSnapshot::approx_batch`].
    fn approx_sources(&self, k: usize, budget: usize) -> Result<Vec<ApproxSource<'_>>> {
        let total = self.total_rows().max(1) as u128;
        let mut sources = Vec::new();
        for (data, base, kind) in self.source_rows() {
            let rows = data.dataset.len();
            let dead = self.tombstones.range(base..base + rows as u64).count();
            let want = k.saturating_add(dead).min(rows);
            if want == 0 {
                continue;
            }
            let share = (budget as u128 * rows as u128).div_ceil(total) as usize;
            let scan = if self.filters() {
                Some(data.index(kind, &self.measure)?)
            } else {
                None
            };
            sources.push(ApproxSource {
                rows: data,
                scan,
                coarse: None,
                base,
                dead,
                want,
                budget: share.max(want).min(rows),
            });
        }
        Ok(sources)
    }

    /// The exact filters over one worker's query chunk: one pass per
    /// source that has one, each handed the whole chunk (see
    /// [`SearchIndex::knn_batch_filtered`]). Each query's counters are its
    /// sum over the sources.
    fn filter_chunk(
        sources: &[ApproxSource<'_>],
        queries: &[Vec<f32>],
        stats: &mut BatchStats,
    ) -> Vec<Filtered> {
        let mut filtered: Vec<Filtered> = vec![Vec::with_capacity(sources.len()); queries.len()];
        let mut chunk_stats = BatchStats::new();
        for _ in queries {
            chunk_stats.record(&SearchStats::new());
        }
        for src in sources {
            let hits = match src.scan {
                Some(scan) => {
                    let mut source_stats = BatchStats::new();
                    let hits = scan.knn_batch_filtered(queries, src.want, &mut source_stats);
                    chunk_stats.add_per_query(&source_stats);
                    hits
                }
                None => vec![None; queries.len()],
            };
            for (answers, hits) in filtered.iter_mut().zip(hits) {
                answers.push(hits);
            }
        }
        stats.merge(&chunk_stats);
        filtered
    }

    /// Approximate k-NN for one query: each source either answers from
    /// its exact filter (`filtered`) or surfaces its budget share of
    /// coarse candidates from its signature table and reranks them with
    /// exact distances, and the per-source exact results merge
    /// tombstone-aware by `(distance, id)` exactly like the exact path.
    /// Coarse distances never cross sources — only exact distances are
    /// merged — so each source's independent quantization scale is
    /// sound, and a query every source's filter served is answered
    /// exactly as the exact path answers it.
    fn knn_one_approx(
        &self,
        sources: &[ApproxSource<'_>],
        filtered: &[Option<Vec<Neighbor>>],
        query: &[f32],
        k: usize,
        scratch: &mut ApproxScratch,
        stats: &mut SearchStats,
    ) -> Hits {
        let mut merged: Hits = Vec::new();
        for (src, exact) in sources.iter().zip(filtered) {
            if let Some(hits) = exact {
                self.extend_live(&mut merged, src.base, src.dead, hits);
                continue;
            }
            let hits = approx_knn(
                src.coarse
                    .expect("resolved for every source a query needs it on"),
                &src.rows.dataset,
                &self.measure,
                query,
                src.want,
                src.budget,
                scratch,
                stats,
            );
            self.extend_live(&mut merged, src.base, src.dead, &hits);
        }
        sort_hits(&mut merged);
        merged.truncate(k);
        merged
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
        op: cbir_obs::QueryOp,
        n: usize,
        threads: usize,
        stats: &mut BatchStats,
        search: F,
        skip_self: SkipSelf<'_>,
    ) -> Result<Vec<Vec<Ranked>>>
    where
        F: Fn(Range<usize>, &mut BatchStats) -> Vec<Hits> + Sync,
    {
        let before = stats.total().clone();
        obs.stage("search");
        let per_chunk = |chunk: Range<usize>, bs: &mut BatchStats| {
            let hits = search(chunk.clone(), bs);
            obs.stage("rank");
            let rank = |(i, mut hits): (usize, Hits)| {
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
        obs.finish(&self.kind, op, n as u64, &before, stats.total(), results);
        Ok(ranked)
    }

    /// The batched exact path behind the three public entry points:
    /// resolve the sources once, search each worker's chunk with
    /// [`CorpusSnapshot::exact_chunk`], and rank. Over filtered scans the
    /// batch spreads over no more workers than
    /// [`CorpusSnapshot::scan_threads`] allows.
    fn exact_batch(
        &self,
        obs: ObsCapture,
        queries: &[Vec<f32>],
        op: Exact,
        threads: usize,
        stats: &mut BatchStats,
        skip_self: SkipSelf<'_>,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.check_dims(queries)?;
        let sources = self.sources()?;
        let obs_op = match op {
            Exact::Knn(_) => cbir_obs::QueryOp::Knn,
            Exact::Range(_) => cbir_obs::QueryOp::Range,
        };
        let search = |chunk: Range<usize>, bs: &mut BatchStats| {
            self.exact_chunk(&sources, &queries[chunk], op, bs)
        };
        let n = queries.len();
        let threads = self.scan_threads(n, threads);
        self.run_batch(obs, obs_op, n, threads, stats, search, skip_self)
    }

    /// The approximate counterpart of [`CorpusSnapshot::exact_batch`], in
    /// two passes. First the exact filters: where the snapshot serves L1
    /// from linear scans, every source's filter takes the whole batch,
    /// one pass per worker as on the exact path, and answers each query
    /// it keeps to the end exactly. Then, per query, the two-stage search
    /// on each source whose filter did not serve it (each query's coarse
    /// candidates differ, so a worker loops its chunk over one reused
    /// scratch) — on `threads` workers, as many as there are such
    /// queries. A source's coarse table is built only when a query needs
    /// it, and a query's counters are what both passes spent on it.
    fn approx_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        budget: usize,
        threads: usize,
        stats: &mut BatchStats,
        skip_self: SkipSelf<'_>,
    ) -> Result<Vec<Vec<Ranked>>> {
        self.check_dims(queries)?;
        let obs = ObsCapture::begin();
        obs.stage("search");
        let n = queries.len();
        let mut sources = self.approx_sources(k, budget)?;
        // With no scan to run the pass only records empty answers.
        let filter_threads = if self.filters() {
            self.scan_threads(n, threads)
        } else {
            1
        };
        let mut first = BatchStats::new();
        let filtered: Vec<Filtered> = run_parallel(n, filter_threads, &mut first, |chunk, bs| {
            Self::filter_chunk(&sources, &queries[chunk], bs)
        });
        for (i, src) in sources.iter_mut().enumerate() {
            if filtered.iter().any(|answers| answers[i].is_none()) {
                src.coarse = Some(src.rows.coarse()?);
            }
        }
        let two_stage = filtered
            .iter()
            .filter(|answers| answers.iter().any(Option::is_none))
            .count();
        let search = |chunk: Range<usize>, bs: &mut BatchStats| {
            let mut scratch = ApproxScratch::new();
            let one = |i: usize| {
                let mut per_query = first.per_query()[i].clone();
                let answers = &filtered[i];
                let query = &queries[i];
                let hits =
                    self.knn_one_approx(&sources, answers, query, k, &mut scratch, &mut per_query);
                bs.record(&per_query);
                hits
            };
            chunk.map(one).collect()
        };
        let threads = threads.min(two_stage).max(1);
        let op = cbir_obs::QueryOp::Knn;
        self.run_batch(obs, op, n, threads, stats, search, skip_self)
    }

    fn descriptors(&self, ids: &[u64]) -> Result<Vec<Vec<f32>>> {
        ids.iter().map(|&id| self.descriptor(id)).collect()
    }

    /// Batched k-NN over raw descriptors; the snapshot counterpart of
    /// [`crate::QueryEngine::knn_batch`], bit-identical to an engine
    /// built over [`CorpusSnapshot::materialize`].
    pub fn knn_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        threads: usize,
        stats: &mut BatchStats,
    ) -> Result<Vec<Vec<Ranked>>> {
        let obs = ObsCapture::begin();
        self.exact_batch(obs, queries, Exact::Knn(k), threads, stats, None)
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
        self.exact_batch(obs, queries, Exact::Range(radius), threads, stats, None)
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
        let op = Exact::Knn(k.saturating_add(1));
        self.exact_batch(obs, &queries, op, threads, stats, Some((ids, k)))
    }

    /// Batched approximate k-NN over raw descriptors; the snapshot
    /// counterpart of [`crate::QueryEngine::knn_batch_approx`]. Each
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
        self.approx_batch(queries, k, budget, threads, stats, None)
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
        let k1 = k.saturating_add(1);
        self.approx_batch(&queries, k1, budget, threads, stats, Some((ids, k)))
    }

    /// One external example image through the exact path: a batch of one
    /// whose trace opens with the `extract` stage.
    pub(crate) fn by_example(
        &self,
        img: &RgbImage,
        op: Exact,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        let obs = ObsCapture::begin();
        obs.stage("extract");
        let desc = self.extract(img)?;
        batch_of_one(stats, |batch| {
            self.exact_batch(obs, &[desc], op, 1, batch, None)
        })
    }

    /// The `k` nearest rows to one external example image.
    pub fn query_by_example(
        &self,
        img: &RgbImage,
        k: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Ranked>> {
        self.by_example(img, Exact::Knn(k), stats)
    }

    /// Every live row of the sources whose first global id lies in `ids`
    /// (a range that starts and ends on source boundaries), in global id
    /// order: the flat descriptor matrix and the metadata beside it.
    fn live_rows(&self, ids: Range<u64>) -> Result<(Vec<f32>, Vec<ImageMeta>)> {
        let live = (ids.end - ids.start) as usize - self.tombstones.range(ids.clone()).count();
        let mut flat = Vec::with_capacity(live * self.dim());
        let mut metas = Vec::with_capacity(live);
        let mut push_live = |base: u64, source_metas: &[ImageMeta], rows: &Dataset| {
            for (local, meta) in source_metas.iter().enumerate() {
                if !self.tombstones.contains(&(base + local as u64)) {
                    flat.extend_from_slice(rows.vector(local));
                    metas.push(meta.clone());
                }
            }
        };
        for (seg, &base) in self.segments.iter().zip(&self.bases) {
            if let Some(data) = seg.data.as_ref().filter(|_| ids.contains(&base)) {
                push_live(base, seg.metas()?, &data.dataset);
            }
        }
        for (chunk, &cb) in self.mem_chunks.iter().zip(&self.mem_bases) {
            let base = self.seg_rows_total + cb;
            if ids.contains(&base) {
                push_live(base, &chunk.metas, &chunk.data.dataset);
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
    /// How many of them were carried over untouched: same file, same
    /// mapping, same built index (all of them when skipped).
    pub segments_kept: usize,
    /// Live rows after the call.
    pub rows: u64,
    /// Bytes written (segments + manifest); `0` when skipped.
    pub bytes_written: u64,
    /// `true` when there was nothing to compact (no memtable rows, no
    /// tombstones) and the call was a no-op.
    pub skipped: bool,
}

/// Mutable state under the store's writer lock.
///
/// The memtable is chunked: full [`MEM_CHUNK_ROWS`]-row prefixes live in
/// immutable `Arc`'d [`MemChunk`]s that every published snapshot shares,
/// and only the bounded tail (`< MEM_CHUNK_ROWS` rows) is mutable. A
/// publish therefore clones O(tail) rows, not O(memtable) — the fix for
/// the quadratic republish cost of a per-insert full-memtable copy.
struct StoreState {
    balanced: bool,
    pipeline: Pipeline,
    epoch: u64,
    next_seg: u64,
    segments: Vec<Arc<Segment>>,
    mem_frozen: Vec<Arc<MemChunk>>,
    mem_tail_flat: Vec<f32>,
    mem_tail_metas: Vec<ImageMeta>,
    /// Shared with every published snapshot; cloned only when a delete
    /// has to change it.
    tombstones: Arc<BTreeSet<u64>>,
}

impl StoreState {
    fn seg_rows_total(&self) -> u64 {
        self.segments.iter().map(|s| s.rows as u64).sum()
    }

    fn mem_rows(&self) -> usize {
        self.mem_frozen.iter().map(|c| c.rows()).sum::<usize>() + self.mem_tail_metas.len()
    }

    /// Move every full [`MEM_CHUNK_ROWS`]-row prefix of the tail into a
    /// frozen chunk, leaving `< MEM_CHUNK_ROWS` rows behind. Amortized
    /// O(1) per inserted row: each row is moved out of the tail once.
    fn freeze_full_chunks(&mut self, dim: usize) -> Result<()> {
        while self.mem_tail_metas.len() >= MEM_CHUNK_ROWS {
            let metas: Vec<ImageMeta> = self.mem_tail_metas.drain(..MEM_CHUNK_ROWS).collect();
            let flat: Vec<f32> = self.mem_tail_flat.drain(..MEM_CHUNK_ROWS * dim).collect();
            self.mem_frozen.push(MemChunk::new(dim, flat, metas)?);
        }
        Ok(())
    }
}

/// The segment list a compaction assembles, in global id order: kept
/// segments as they are, rewritten rows as the new files it writes.
#[derive(Default)]
struct NextSegments {
    segments: Vec<Arc<Segment>>,
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
        state: &StoreState,
        (flat, metas): (&[f32], &[ImageMeta]),
        warm: bool,
        policy: &mut dyn FaultPolicy,
    ) -> Result<()> {
        if metas.is_empty() {
            return Ok(());
        }
        let bytes = encode_segment(state.balanced, &state.pipeline, flat, metas)?;
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
        let seg = Segment::open(&path, &name)?;
        if warm {
            seg.warm(metas, &store.options.kind, &store.options.measure);
        }
        self.segments.push(seg);
        Ok(())
    }
}

/// The live, mutable corpus store: a segment directory plus memtable,
/// accepting online inserts and deletes while serving queries from
/// published [`CorpusSnapshot`]s. All mutation goes through an internal
/// writer lock; readers never take it — they pin the published snapshot.
pub struct CorpusStore {
    dir: PathBuf,
    options: StoreOptions,
    state: Mutex<StoreState>,
    published: Mutex<Arc<CorpusSnapshot>>,
}

impl std::fmt::Debug for CorpusStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusStore")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .finish()
    }
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
    /// and publish the initial snapshot.
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Arc<CorpusStore>> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = parse_manifest(&read_file_bytes(&manifest_path)?)
            .map_err(|e| attach_path(e, &manifest_path))?;
        let want_config = encode_config_parts(manifest.balanced, &manifest.pipeline);
        let mut segments = Vec::with_capacity(manifest.segments.len());
        for entry in &manifest.segments {
            let path = dir.join(&entry.name);
            let seg = Segment::open(&path, &entry.name)?;
            if seg.rows as u64 != entry.rows {
                return Err(CoreError::Persist(
                    PersistError::new(format!(
                        "segment has {} rows but the manifest records {}",
                        seg.rows, entry.rows
                    ))
                    .with_path(&path),
                ));
            }
            if encode_config_parts(seg.view.balanced, &seg.view.pipeline) != want_config {
                return Err(CoreError::Persist(
                    PersistError::new("segment pipeline configuration disagrees with the manifest")
                        .with_path(&path),
                ));
            }
            segments.push(seg);
        }
        let store = Arc::new(CorpusStore {
            dir: dir.to_path_buf(),
            options,
            state: Mutex::new(StoreState {
                balanced: manifest.balanced,
                pipeline: manifest.pipeline,
                epoch: manifest.epoch,
                next_seg: manifest.next_seg,
                segments,
                mem_frozen: Vec::new(),
                mem_tail_flat: Vec::new(),
                mem_tail_metas: Vec::new(),
                tombstones: Arc::default(),
            }),
            published: Mutex::new(Arc::new(CorpusSnapshot {
                epoch: 0,
                balanced: false,
                pipeline: Pipeline::color_histogram_default(),
                kind: IndexKind::Linear,
                measure: Measure::L1,
                segments: Vec::new(),
                bases: Vec::new(),
                seg_rows_total: 0,
                mem_chunks: Vec::new(),
                mem_bases: Vec::new(),
                mem_rows_total: 0,
                tombstones: Arc::new(BTreeSet::new()),
            })),
        });
        {
            let state = store.state.lock().expect("store lock poisoned");
            store.publish(&state)?;
        }
        Ok(store)
    }

    /// Migrate a RAM-resident [`ImageDatabase`] into a fresh store at
    /// `dir`: its rows are written as immutable segments (chunked by
    /// `options.max_seg_rows`) and committed under a manifest.
    pub fn create_from_database(
        dir: impl AsRef<Path>,
        db: &ImageDatabase,
        options: StoreOptions,
    ) -> Result<Arc<CorpusStore>> {
        let store = Self::create(dir, db.pipeline().clone(), db.is_balanced(), options)?;
        if !db.is_empty() {
            let dim = db.dim();
            let flat = db.flat_descriptors();
            {
                let mut state = store.state.lock().expect("store lock poisoned");
                state.mem_tail_flat.extend_from_slice(flat);
                state.mem_tail_metas.extend_from_slice(db.metas());
                debug_assert_eq!(state.mem_tail_flat.len(), state.mem_tail_metas.len() * dim);
                state.freeze_full_chunks(dim)?;
                state.epoch += 1;
                store.publish(&state)?;
            }
            store.compact()?;
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

    /// Build and publish a snapshot of `state`. Frozen memtable chunks
    /// are shared by `Arc` clone — the publish cost is O(tail), bounded
    /// by [`MEM_CHUNK_ROWS`] rows, regardless of memtable size. Chunk
    /// and segment indexes (and coarse tables) stay lazy.
    fn publish(&self, state: &StoreState) -> Result<()> {
        let mut mem_chunks: Vec<Arc<MemChunk>> = state.mem_frozen.clone();
        if !state.mem_tail_metas.is_empty() {
            mem_chunks.push(MemChunk::new(
                state.pipeline.dim(),
                state.mem_tail_flat.clone(),
                state.mem_tail_metas.clone(),
            )?);
        }
        let mut mem_bases = Vec::with_capacity(mem_chunks.len());
        let mut mem_rows_total = 0usize;
        for chunk in &mem_chunks {
            mem_bases.push(mem_rows_total as u64);
            mem_rows_total += chunk.rows();
        }
        let mut bases = Vec::with_capacity(state.segments.len());
        let mut total = 0u64;
        for seg in &state.segments {
            bases.push(total);
            total += seg.rows as u64;
        }
        let snapshot = Arc::new(CorpusSnapshot {
            epoch: state.epoch,
            balanced: state.balanced,
            pipeline: state.pipeline.clone(),
            kind: self.options.kind.clone(),
            measure: self.options.measure.clone(),
            segments: state.segments.clone(),
            bases,
            seg_rows_total: total,
            mem_chunks,
            mem_bases,
            mem_rows_total,
            tombstones: Arc::clone(&state.tombstones),
        });
        cbir_obs::set_store_state(
            snapshot.segments_len() as u64,
            snapshot.memtable_rows() as u64,
            snapshot.tombstone_count() as u64,
            snapshot.epoch,
        );
        *self.published.lock().expect("store lock poisoned") = snapshot;
        Ok(())
    }

    fn validate_descriptor(dim: usize, desc: &[f32]) -> Result<()> {
        if desc.len() != dim {
            return Err(CoreError::InvalidParameter(format!(
                "descriptor has dim {}, store expects {dim}",
                desc.len()
            )));
        }
        if desc.iter().any(|x| !x.is_finite()) {
            return Err(CoreError::InvalidParameter(
                "descriptor contains a non-finite component".into(),
            ));
        }
        Ok(())
    }

    /// Insert one precomputed descriptor; returns its global id at the
    /// published epoch. Triggers a best-effort background-free compaction
    /// when the memtable reaches `memtable_limit` (compaction failure is
    /// swallowed — the insert itself has already been published).
    pub fn insert(&self, meta: ImageMeta, descriptor: Vec<f32>) -> Result<u64> {
        let (ids, mem_rows) = self.insert_locked(vec![(meta, descriptor)])?;
        if mem_rows >= self.options.memtable_limit {
            // Soft limit: the memtable keeps absorbing inserts even if
            // compaction cannot run (e.g. a read-only filesystem).
            let _ = self.compact();
        }
        Ok(ids[0])
    }

    /// Insert many precomputed descriptors under one epoch bump; returns
    /// their global ids. All-or-nothing: validation happens before any
    /// state changes.
    pub fn insert_batch(&self, items: Vec<(ImageMeta, Vec<f32>)>) -> Result<Vec<u64>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.insert_locked(items)?.0)
    }

    /// One critical section: validate, append, publish. Returns the new
    /// ids and the memtable's row count as the insert left it.
    fn insert_locked(&self, items: Vec<(ImageMeta, Vec<f32>)>) -> Result<(Vec<u64>, usize)> {
        let mut state = self.state.lock().expect("store lock poisoned");
        let dim = state.pipeline.dim();
        for (_, desc) in &items {
            Self::validate_descriptor(dim, desc)?;
        }
        let base = state.seg_rows_total() + state.mem_rows() as u64;
        let mut ids = Vec::with_capacity(items.len());
        for (i, (meta, desc)) in items.into_iter().enumerate() {
            state.mem_tail_flat.extend_from_slice(&desc);
            state.mem_tail_metas.push(meta);
            ids.push(base + i as u64);
        }
        state.freeze_full_chunks(dim)?;
        state.epoch += 1;
        self.publish(&state)?;
        cbir_obs::store_inserted(ids.len() as u64);
        Ok((ids, state.mem_rows()))
    }

    /// Extract and insert one image.
    pub fn insert_image(
        &self,
        name: impl Into<String>,
        label: Option<u32>,
        img: &RgbImage,
    ) -> Result<u64> {
        let desc = self.snapshot().extract(img)?;
        self.insert(
            ImageMeta {
                name: name.into(),
                label,
            },
            desc,
        )
    }

    /// Tombstone global id `id`. The row disappears from queries at the
    /// next epoch and is physically dropped by the next compaction.
    pub fn delete(&self, id: u64) -> Result<()> {
        let mut state = self.state.lock().expect("store lock poisoned");
        let total = state.seg_rows_total() + state.mem_rows() as u64;
        if id >= total || state.tombstones.contains(&id) {
            return Err(CoreError::NotFound(id as usize));
        }
        Arc::make_mut(&mut state.tombstones).insert(id);
        state.epoch += 1;
        self.publish(&state)?;
        cbir_obs::store_deleted(1);
        Ok(())
    }

    /// Compact with the fault policy from `CBIR_FAULT_COMPACT_OP` (or no
    /// faults): fold the memtable into segments and drop tombstoned rows,
    /// rewriting only the segments that change, commit the result under
    /// a new manifest, clear the memtable and tombstones, and drop the
    /// replaced segment files. See [`CorpusStore::compact_with`].
    pub fn compact(&self) -> Result<CompactionStats> {
        match compact_policy_from_env() {
            Some(mut policy) => self.compact_with(policy.as_mut()),
            None => self.compact_with(&mut NoFaults),
        }
    }

    /// [`CorpusStore::compact`] with an explicit fault policy — the entry
    /// point the crash-consistency sweep drives.
    ///
    /// Only what changed is rewritten. A segment holding a tombstone
    /// becomes one segment of its live rows (none if nothing survives);
    /// the memtable's live rows, joined by the last segment's when that
    /// one is partial (under `max_seg_rows` rows), are chunked by
    /// `max_seg_rows`; every other segment keeps its file name in the new
    /// manifest and its `Arc<Segment>` — mapping, decoded metadata,
    /// built index and code table — in the next snapshot. The output
    /// keeps global id order and renumbers densely exactly as a full
    /// rewrite would, so replies are bit-identical and only segment
    /// boundaries move. A rewritten segment is published warm — the
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
    /// 4. atomically write the new `MANIFEST` — **the only commit
    ///    point**;
    /// 5. swap in-memory state, publish the new snapshot, and
    ///    best-effort delete the replaced segment files (pinned
    ///    snapshots keep their mappings alive regardless).
    ///
    /// A failure anywhere before step 4 leaves the old state fully
    /// intact (the new files are best-effort removed; a kept file is
    /// never touched); a failure *after* the manifest rename (e.g. the
    /// directory sync) rolls forward with the segments already opened,
    /// because the commit already landed. Recovery is therefore always
    /// "old set or new set", never a mixture.
    pub fn compact_with(&self, policy: &mut dyn FaultPolicy) -> Result<CompactionStats> {
        let mut state = self.state.lock().expect("store lock poisoned");
        if state.mem_rows() == 0 && state.tombstones.is_empty() {
            return Ok(CompactionStats {
                epoch: state.epoch,
                segments: state.segments.len(),
                segments_kept: state.segments.len(),
                rows: state.seg_rows_total(),
                bytes_written: 0,
                skipped: true,
            });
        }
        // Under the writer lock the published snapshot is this state.
        let snap = self.snapshot();
        let max_rows = self.options.max_seg_rows.max(1);
        let seg_ids = |i: usize| snap.bases[i]..snap.bases[i] + snap.segments[i].rows as u64;
        let dead_in = |ids: Range<u64>| snap.tombstones.range(ids).count();
        let total = snap.total_rows() as u64;
        // Segments from `tail` on are rewritten together with the
        // memtable: the last one when the memtable's live rows join it.
        let joins = snap.mem_rows_total > dead_in(snap.seg_rows_total..total)
            && snap.segments.last().is_some_and(|s| s.rows < max_rows);
        let tail = snap.segments.len() - usize::from(joins);
        let rewritten = |i: usize| i >= tail || dead_in(seg_ids(i)) > 0;
        // 1. Verify the sources about to be rewritten.
        for (i, seg) in snap.segments.iter().enumerate() {
            if rewritten(i) {
                seg.view
                    .verify_descriptors(&seg.bytes)
                    .map_err(|e| attach_path(e, &seg.path))?;
            }
        }
        // 2–3. Keep, or write and open, segment by segment in id order.
        let mut next = NextSegments {
            next_seg: state.next_seg,
            ..NextSegments::default()
        };
        let dim = state.pipeline.dim();
        let result = (|| -> Result<()> {
            for (i, seg) in snap.segments[..tail].iter().enumerate() {
                if !rewritten(i) {
                    next.segments.push(Arc::clone(seg));
                    continue;
                }
                let (flat, metas) = snap.live_rows(seg_ids(i))?;
                let warm = seg.data.as_ref().is_some_and(SourceRows::is_warm);
                next.write(self, &state, (&flat, &metas), warm, policy)?;
            }
            let tail_base = snap.bases.get(tail).copied().unwrap_or(snap.seg_rows_total);
            let (flat, metas) = snap.live_rows(tail_base..total)?;
            let warm = snap
                .source_rows()
                .any(|(rows, base, _)| base >= tail_base && rows.is_warm());
            for (chunk, metas) in flat.chunks(max_rows * dim).zip(metas.chunks(max_rows)) {
                next.write(self, &state, (chunk, metas), warm, policy)?;
            }
            // 4. Commit.
            let entry = |s: &Arc<Segment>| ManifestEntry {
                name: s.name.clone(),
                rows: s.rows as u64,
            };
            let manifest = Manifest {
                epoch: state.epoch + 1,
                next_seg: next.next_seg,
                balanced: state.balanced,
                pipeline: state.pipeline.clone(),
                segments: next.segments.iter().map(entry).collect(),
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
                .is_some_and(|m| m.epoch == state.epoch + 1);
            if !landed {
                // Pre-commit failure: the old manifest still rules.
                // Remove whatever new files made it to disk; kept files
                // and the in-memory state are untouched.
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
        // 5. Swap, publish, and drop the replaced files.
        let replaced: Vec<PathBuf> = (0..snap.segments.len())
            .filter(|&i| rewritten(i))
            .map(|i| snap.segments[i].path.clone())
            .collect();
        let kept = snap.segments.len() - replaced.len();
        state.segments = next.segments;
        state.mem_frozen.clear();
        state.mem_tail_flat.clear();
        state.mem_tail_metas.clear();
        state.tombstones = Arc::default();
        state.epoch += 1;
        state.next_seg = next.next_seg;
        self.publish(&state)?;
        for p in replaced {
            // Best-effort: pinned snapshots hold their mappings open,
            // and fsck treats leftovers as orphans, not corruption.
            let _ = std::fs::remove_file(&p);
        }
        cbir_obs::store_compacted();
        Ok(CompactionStats {
            epoch: state.epoch,
            segments: state.segments.len(),
            segments_kept: kept,
            rows: state.seg_rows_total(),
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
    /// rows — and so must the snapshot after a compaction that kept the
    /// untouched segment, rewrote the others and folded the memtable.
    /// (The one-source side is pinned to a naive scan below.)
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
            let dead = [
                5,
                2 * seg_rows as u64 + 7,
                in_segments as u64 + 300,
                tail_base + 2,
            ];
            for id in dead {
                store.delete(id).unwrap();
            }
            let snap = store.snapshot();
            assert_eq!((snap.segments_len(), snap.mem_chunks.len()), (3, 2));
            assert_eq!(snap.mem_chunks[1].rows(), tail_rows);
            let sources = snap.sources().unwrap();
            let dead_per_source: Vec<usize> = sources.iter().map(|src| src.dead).collect();
            assert_eq!(dead_per_source, [1, 0, 1, 1, 1]);
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
            // Segment 1 had no tombstone: kept, file and index and all.
            assert_eq!(cs.segments_kept, 1);
            assert!(Arc::ptr_eq(&after.segments[1], &snap.segments[1]));
            assert!(!Arc::ptr_eq(&after.segments[0], &snap.segments[0]));
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
        assert!(snap.mem_chunks.last().is_none_or(|c| k > c.rows()));
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
        let filtered = snap.segments.iter().any(|s| s.rows >= 4096);
        for batch in [1, 5, 64] {
            let queries = &queries[..batch];
            let ids_engine = &by_id[..batch];
            let ids_snap: Vec<u64> = ids_engine.iter().map(|&i| live[i]).collect();
            let mut e = BatchStats::new();
            let want_knn = engine.knn_batch(queries, k, 1, &mut e).unwrap();
            let want_range = engine.range_batch(queries, 1.6, 1, &mut e).unwrap();
            let want_ids = engine.knn_batch_by_ids(ids_engine, k, 1, &mut e).unwrap();
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
                    // query, by its bound or in full.
                    let total = s.total();
                    if linear {
                        assert_eq!(total.subtrees_pruned > 0, filtered, "{ctx}");
                        let scored = total.distance_computations + total.subtrees_pruned;
                        assert_eq!(scored, (batch * snap.total_rows()) as u64, "{ctx}");
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
            let source = &snap.mem_chunks[0];
            assert!(std::ptr::eq(
                source.data.dataset.flat(),
                db.flat_descriptors()
            ));
            assert!(std::ptr::eq(source.metas.as_slice(), db.metas()));
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
            .knn_batch_by_ids_approx(&[0, 9, rows - 1], 10, 0.9, 2, &mut stats)
            .unwrap();
        assert_eq!(stats.total().coarse_candidates, 0);
        assert_eq!(stats.total().rerank_evaluations, 0);
        assert!(stats.total().subtrees_pruned > 0);
        // The table: one byte per coordinate.
        assert_eq!(engine.index_bytes(), idle + rows * dim);
        let source = &engine.snapshot().mem_chunks[0].data;
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
        let by_ids = engine.knn_batch_by_ids(&[0, 9, rows - 1], 10, 1, &mut exact);
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
        for (data, base, _) in snap.source_rows() {
            let rows = data.dataset.len();
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
        let dim = pipeline().dim();
        let mut rows = cbir_workload::clustered_smooth(6000, dim, 40, 2.0, 100.0, 4, 17);
        let seven = rows[7].clone();
        for row in &mut rows[3000..4000] {
            row.clone_from(&seven);
        }
        let mut near_seven = rows[7].clone();
        near_seven[0] += 0.5;
        let queries = (0..8)
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
        assert!(snap.mem_chunks[0].data.coarse_cell.get().is_some());
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
        assert_eq!((snap.segments_len(), snap.mem_chunks.len()), (2, 1));
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
                let mut state = store.state.lock().unwrap();
                for seg in &mut state.segments {
                    let name = seg.path.file_name().unwrap().to_string_lossy().into_owned();
                    let image = Mmap::from_bytes(std::fs::read(&seg.path).unwrap());
                    assert!(!image.is_mapped());
                    *seg = Segment::from_image(&seg.path, &name, Arc::new(image)).unwrap();
                }
                store.publish(&state).unwrap();
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
        snap.segments.iter().map(|s| s.name.clone()).collect()
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
        assert!(before.segments.iter().all(|s| warmth(s).2 >= rows * dim));
        store.delete(3).unwrap();
        store.insert_batch(synth_items(5, dim, 7)).unwrap();
        let cs = store.compact().unwrap();
        let after = store.snapshot();
        // Segment 0 held the tombstone; segment 2 is full, so the
        // memtable's rows start a segment of their own.
        assert_eq!((cs.segments, cs.segments_kept), (4, 2));
        let names = seg_names(&after);
        assert_eq!(names[1..3], seg_names(&before)[1..3]);
        assert!(names.iter().all(|n| dir.join(n).exists()));
        assert!(!dir.join(&before.segments[0].name).exists());
        for i in [1, 2] {
            assert!(Arc::ptr_eq(&after.segments[i], &before.segments[i]));
            let index = |snap: &CorpusSnapshot| {
                let cell = snap.segments[i].data.as_ref().unwrap().index_cell.get();
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

    #[test]
    fn a_rewritten_segment_is_warm_exactly_when_the_one_it_replaces_was() {
        let rows = 4200;
        let db = synth_db(2 * rows + 100, 8);
        let dim = db.dim();
        let dir = temp_dir("warm");
        let mut options = StoreOptions::new(IndexKind::Linear, Measure::L1);
        options.max_seg_rows = rows;
        // Seeding queries nothing, so it warms nothing.
        let store = CorpusStore::create_from_database(&dir, &db, options).unwrap();
        let cold = (false, false, 0);
        assert!(store.snapshot().segments.iter().all(|s| warmth(s) == cold));
        let queries = synth_queries(3, dim, 9);
        let mut tag = 10;
        // Tombstone a row of segment 0 and add rows that join the partial
        // last segment; compact; return segment 0 and the tail.
        let mut churn = |query: &dyn Fn(&CorpusSnapshot)| {
            query(&store.snapshot());
            store.delete(3).unwrap();
            store.insert_batch(synth_items(5, dim, tag)).unwrap();
            tag += 1;
            let cs = store.compact().unwrap();
            assert_eq!((cs.segments, cs.segments_kept), (3, 1));
            let snap = store.snapshot();
            (warmth(&snap.segments[0]), warmth(&snap.segments[2]))
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
            assert!(seg0.0 && seg0.1 && seg0.2 >= (rows - 1) * dim, "{seg0:?}");
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
        assert_eq!(snap.mem_chunks.len(), 3);
        assert_eq!(snap.mem_chunks[0].rows(), MEM_CHUNK_ROWS);
        assert_eq!(snap.mem_chunks[2].rows(), 37);
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
        let mut s3 = BatchStats::new();
        let got2 = snap2.knn_batch(&queries, n, 1, &mut s3).unwrap();
        assert!(got2.iter().flatten().all(|h| h.name != victim_name));
        assert_eq!(got2[0].len(), n - 1);
        // Compaction folds every chunk into segments.
        store.compact().unwrap();
        let snap3 = store.snapshot();
        assert_eq!(snap3.memtable_rows(), 0);
        assert_eq!(snap3.len(), n - 1);
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
