//! Allocation discipline of the batched query path: after one warm-up
//! pass over the query set, running steady-state searches through
//! `knn_into` / `range_into` with a reused [`QueryScratch`] performs
//! **zero** heap allocations on every index — the linear scan's
//! filtered L1 path and the antipole tree's one-byte rows included.
//! Verified with a counting global allocator.
//!
//! This file holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the measured window.

use cbir_distance::Measure;
use cbir_index::{
    AntipoleTree, Dataset, KdTree, LinearScan, MTree, Neighbor, QueryScratch, RStarTree,
    SearchIndex, SearchStats, VpTree,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn run_pass(
    index: &dyn SearchIndex,
    queries: &[Vec<f32>],
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
) {
    let mut stats = SearchStats::new();
    for q in queries {
        index.knn_into(q, 10, scratch, &mut stats, out);
        std::hint::black_box(&out);
        index.range_into(q, 3.0, scratch, &mut stats, out);
        std::hint::black_box(&out);
    }
}

#[test]
fn steady_state_queries_do_not_allocate() {
    let vectors = cbir_workload::clustered(2_000, 8, 8, 1.0, 10.0, 3);
    let queries = cbir_workload::queries(&vectors, 32, 0.5, 5);
    let ds = Dataset::from_vectors(&vectors).unwrap();

    // Over the row threshold of the scan's exact L1 filter: its block
    // buffers (code sums, query codes) live in the scratch too, and the
    // table is built by the warm-up pass.
    let large = cbir_workload::clustered(6_000, 8, 8, 1.0, 10.0, 4);
    let filtered = LinearScan::build(Dataset::from_vectors(&large).unwrap(), Measure::L1).unwrap();
    let mut pruned = SearchStats::new();
    filtered.knn_search(&queries[0], 10, &mut pruned);
    assert!(pruned.subtrees_pruned > 0, "the L1 filter is not in force");

    // Under L1 and L2 the antipole tree scores its one-byte rows on wide
    // rows out of cache (over 8 MiB of 577-dimensional rows), built by
    // the warm-up pass; the query's code units live in the scratch.
    let wide = cbir_workload::clustered(3_700, 577, 8, 1.0, 10.0, 6);
    let wide_queries = cbir_workload::queries(&wide, 8, 0.5, 7);
    let wide = Dataset::from_vectors(&wide).unwrap();
    let coded = |measure: Measure| {
        let diameter = AntipoleTree::suggest_diameter(&wide, &measure);
        let tree = AntipoleTree::build(wide.clone(), measure, diameter).unwrap();
        let mut scored = SearchStats::new();
        tree.knn_search(&wide_queries[0], 10, &mut scored);
        assert!(
            0 < scored.refined && scored.refined < scored.distance_computations,
            "the one-byte rows are not in force"
        );
        tree
    };

    let indexes: Vec<Box<dyn SearchIndex>> = vec![
        Box::new(coded(Measure::L1)),
        Box::new(coded(Measure::L2)),
        Box::new(VpTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(KdTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(MTree::build(ds.clone(), Measure::L2).unwrap()),
        Box::new(RStarTree::bulk_load(ds.clone()).unwrap()),
        Box::new(LinearScan::build(ds, Measure::L2).unwrap()),
        Box::new(filtered),
    ];
    for index in &indexes {
        let queries = if index.dim() == 577 {
            &wide_queries
        } else {
            &queries
        };
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        // Warm-up: scratch buffers and the output vector reach their
        // high-water capacity on the first pass over the query set.
        run_pass(index.as_ref(), queries, &mut scratch, &mut out);

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        run_pass(index.as_ref(), queries, &mut scratch, &mut out);
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "{}: {} heap allocations in steady state",
            index.name(),
            after - before
        );
    }
}
