//! Reusable per-search scratch space.
//!
//! Every index traversal needs transient state — a visit stack, the
//! candidate heap, a best-first frontier, distance buffers. Allocating
//! those per query dominates the cost of small searches and defeats cache
//! reuse in batched ones. A [`QueryScratch`] owns all of it: the first
//! query on a scratch grows each container to its steady-state size, and
//! every later query reuses the capacity, so steady-state search performs
//! zero heap allocations (verified by the counting-allocator test in
//! `tests/alloc_discipline.rs`).
//!
//! One scratch serves every index kind; a search only touches the fields
//! its traversal needs. Scratches are cheap to create and intentionally
//! not `Sync` — each worker thread of a parallel batch owns its own.

use crate::knn_heap::KnnHeap;
use cbir_distance::ByteQuery;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A traversal stack frame: a node index plus up to two floats of pruning
/// state and a tag saying how to interpret them. Plain-old-data so the
/// stack never owns heap memory of its own.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    /// Arena index of the node to visit.
    pub(crate) node: u32,
    /// Index-specific interpretation (0 = visit unconditionally).
    pub(crate) tag: u8,
    /// First pruning operand (e.g. distance from query to the router).
    pub(crate) a: f32,
    /// Second pruning operand (e.g. split median or covering radius).
    pub(crate) b: f32,
}

impl Frame {
    /// A frame that is visited unconditionally when popped.
    pub(crate) fn unconditional(node: u32) -> Self {
        Frame {
            node,
            tag: 0,
            a: 0.0,
            b: 0.0,
        }
    }
}

/// Reusable state for one in-flight search. See the module docs.
#[derive(Debug)]
pub struct QueryScratch {
    /// k-NN candidate heap, [`KnnHeap::reset`] per query.
    pub(crate) heap: KnnHeap,
    /// Traversal state of the trees.
    pub(crate) tree: TreeBufs,
    /// Block buffers of the linear scan.
    pub(crate) scan: ScanBufs,
}

/// What a tree's one traversal needs beside its [`Sink`](crate::sink::Sink).
#[derive(Debug, Default)]
pub(crate) struct TreeBufs {
    /// Depth-first visit stack (kd-, vp-, antipole and M-tree).
    pub(crate) frames: Vec<Frame>,
    /// Best-first frontier ordered by MINDIST² (R*-tree).
    pub(crate) frontier: BinaryHeap<Reverse<(OrderedF32, u32)>>,
    /// Child-ordering buffer `(lower bound, distance, child)` (M-tree).
    pub(crate) order: Vec<(f32, f32, u32)>,
    /// The query in the code units of the antipole tree's one-byte rows.
    pub(crate) bytes: ByteQuery,
}

/// Block-sized buffers of [`LinearScan`](crate::LinearScan)'s one scan
/// loop, grown by the first query and reused afterwards.
#[derive(Debug, Default)]
pub(crate) struct ScanBufs {
    /// Distances of one block of `f32` rows.
    pub(crate) dists: Vec<f32>,
    /// The call's queries as cell codes, one padded row per query
    /// (`CellTable::encode_query`).
    pub(crate) codes: Vec<u8>,
    /// What one lane's pass over one block of the code table needs.
    pub(crate) filter: FilterBufs,
}

/// Buffers of the scan's exact L1 filter, per block of its code table.
#[derive(Debug, Default)]
pub(crate) struct FilterBufs {
    /// Code-difference sum of every row of the block.
    pub(crate) sads: Vec<u32>,
    /// Ids of the rows of one group the bound could not exclude.
    pub(crate) survivors: Vec<usize>,
    /// The distances of the group's survivors, or of the whole group.
    pub(crate) dists: Vec<f32>,
}

impl QueryScratch {
    /// Fresh scratch with minimal capacity; containers grow to their
    /// steady-state sizes during the first query and are reused afterwards.
    pub fn new() -> Self {
        QueryScratch {
            heap: KnnHeap::new(1),
            tree: TreeBufs::default(),
            scan: ScanBufs::default(),
        }
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch::new()
    }
}

/// Total-order wrapper so f32 keys can live in a `BinaryHeap`.
#[derive(PartialEq, Debug, Clone, Copy)]
pub(crate) struct OrderedF32(pub(crate) f32);

impl Eq for OrderedF32 {}

impl PartialOrd for OrderedF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
