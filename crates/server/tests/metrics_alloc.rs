//! Allocation discipline of the server's counters: after one warm-up
//! batch, recording micro-batches through `Metrics::on_batch` performs
//! **zero** heap allocations however many it records, and
//! `Metrics::snapshot` allocates only the batch-size histogram vector
//! it returns. The `cbir-obs` recorders (engine calls, extraction
//! stages, router replicas once registered, the router tier) allocate
//! nothing either, into the process's default registry or into an
//! instance's. Verified with a counting global allocator.
//!
//! This file holds exactly one `#[test]` so no sibling test thread can
//! allocate inside the measured windows.

use cbir_obs::{QueryCounters, QueryOp, ReplicaCounter, RouterReplicaHandle, Stage, TierCounter};
use cbir_server::Metrics;
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

#[test]
fn recording_is_allocation_free_and_snapshots_allocate_only_their_histogram() {
    let metrics = Metrics::new();
    let latencies_us = [2000u64; 8];
    metrics.on_batch(8, 0, &latencies_us, 8 * 250);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100_000 {
        metrics.on_batch(8, 0, std::hint::black_box(&latencies_us), 8 * 250);
    }
    let recording = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let snap = metrics.snapshot(0);
    let snapshot = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(
        recording, 0,
        "100,000 on_batch calls allocated {recording} times"
    );
    assert_eq!(snapshot, 1, "snapshot allocated {snapshot} times");
    assert_eq!(snap.executed, 8 * 100_001);
    assert_eq!(snap.batches, 100_001);
    assert_eq!(snap.distance_computations, 2000 * 100_001);
    assert!(snap.latency_p50_us >= 2000 && snap.latency_p95_us <= 2000 + 2000 / 16);

    cbir_obs::set_enabled(true);
    let replica = cbir_obs::router_replica(0, "primary");
    let counters = QueryCounters {
        distance_evaluations: 40,
        nodes_visited: 12,
        subtrees_pruned: 7,
        postfilter_candidates: 35,
        coarse_candidates: 3,
        rerank_evaluations: 2,
    };
    let record = |replica: &RouterReplicaHandle| {
        cbir_obs::record_query("vp-tree", QueryOp::Knn, 1, 250, &counters, 10);
        cbir_obs::stage_hit(Stage::Sobel);
        cbir_obs::stage_miss(Stage::Sobel, 900);
        replica.request_ok(120);
        replica.count(ReplicaCounter::Failovers);
        replica.set_flag(ReplicaCounter::Healthy, true);
        cbir_obs::router_tier_count(TierCounter::HedgesFired);
        cbir_obs::router_probe_ok(80);
    };
    record(&replica);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        record(&replica);
    }
    let obs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        obs, 0,
        "10,000 rounds of obs recording allocated {obs} times"
    );
    let after = cbir_obs::snapshot();
    assert_eq!(after.indexes[2].queries, 10_001);
    assert_eq!(after.stages[Stage::Sobel as usize].misses, 10_001);
    assert_eq!(after.router[0].failovers, 10_001);
    assert_eq!(after.router_tier.hedges_fired, 10_001);

    // A serving instance's threads enter its registry and record there,
    // as allocation-free.
    let instance = metrics.registry();
    let replica = instance.enter(|| cbir_obs::router_replica(0, "primary"));
    let inside = instance.enter(|| {
        record(&replica);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10_000 {
            record(&replica);
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    });
    assert_eq!(
        inside, 0,
        "10,000 rounds of instance recording allocated {inside} times"
    );
    let own = instance.snapshot();
    assert_eq!(own.indexes[2].queries, 10_001);
    assert_eq!(own.stages[Stage::Sobel as usize].misses, 10_001);
    assert_eq!(own.router.len(), 1);
    assert_eq!(own.router[0].failovers, 10_001);
    assert_eq!(own.router_tier.hedges_fired, 10_001);
    // The process view counts both registries once each.
    let process = cbir_obs::snapshot();
    assert_eq!(process.indexes[2].queries, 20_002);
    assert_eq!(process.router_tier.hedges_fired, 20_002);
}
