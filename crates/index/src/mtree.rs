//! M-tree (Ciaccia, Patella, Zezula): the database community's paged
//! metric access method. Every node stores, per entry, the distance to the
//! node's routing object, enabling two-level triangle-inequality pruning:
//! whole subtrees are cut by covering radii, and individual distance
//! computations are skipped using the precomputed parent distances.
//!
//! This implementation is in-memory with dynamic insertion (random
//! promotion, generalized-hyperplane partition) — the classical baseline
//! configuration.

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::rng::SplitMix64;
use crate::scratch::{Frame, QueryScratch, TreeBufs};
use crate::sink::{self, Sink};
use crate::stats::{tri_margin, tri_slack, Neighbor, SearchStats};
use crate::traits::SearchIndex;
use cbir_distance::Measure;

#[derive(Clone, Debug)]
struct LeafEntry {
    /// Object id.
    id: u32,
    /// Distance from the object to this node's routing object (0 at the
    /// root, which has no router).
    d_parent: f32,
}

#[derive(Clone, Debug)]
struct InternalEntry {
    /// Routing object id.
    router: u32,
    /// Covering radius: upper-bounds the distance from `router` to every
    /// object in the subtree.
    radius: f32,
    /// Distance from `router` to the parent node's routing object.
    d_parent: f32,
    /// Child node index.
    child: u32,
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<InternalEntry>),
}

/// An M-tree over a [`Dataset`] under a true metric.
pub struct MTree {
    dataset: Dataset,
    measure: Measure,
    nodes: Vec<Node>,
    root: u32,
    capacity: usize,
    /// [`tri_margin`] of the dimension.
    slack: f32,
}

impl MTree {
    /// Default node capacity.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Build by repeated insertion with the default capacity.
    pub fn build(dataset: Dataset, measure: Measure) -> Result<Self> {
        Self::with_capacity(dataset, measure, Self::DEFAULT_CAPACITY)
    }

    /// Build with an explicit node capacity (≥ 4).
    pub fn with_capacity(dataset: Dataset, measure: Measure, capacity: usize) -> Result<Self> {
        if !measure.is_true_metric() {
            return Err(IndexError::UnsupportedMeasure {
                index: "m-tree",
                measure: measure.name(),
            });
        }
        if capacity < 4 {
            return Err(IndexError::InvalidParameter(format!(
                "node capacity must be >= 4, got {capacity}"
            )));
        }
        let mut tree = MTree {
            slack: tri_margin(dataset.dim()),
            dataset,
            measure,
            nodes: vec![Node::Leaf(Vec::new())],
            root: 0,
            capacity,
        };
        let mut rng = SplitMix64::new(0x00e7_12ee);
        for id in 0..tree.dataset.len() as u32 {
            tree.insert(id, &mut rng);
        }
        Ok(tree)
    }

    #[inline]
    fn dist_ids(&self, a: u32, b: u32) -> f32 {
        self.measure.distance(
            self.dataset.vector(a as usize),
            self.dataset.vector(b as usize),
        )
    }

    fn insert(&mut self, oid: u32, rng: &mut SplitMix64) {
        if let Some((e1, e2)) = self.insert_rec(self.root, None, oid, rng) {
            // Root split: grow the tree by one level.
            let new_root = Node::Internal(vec![e1, e2]);
            self.nodes.push(new_root);
            self.root = (self.nodes.len() - 1) as u32;
        }
    }

    /// Insert `oid` into the subtree at `node` (whose routing object, if
    /// any, is `router`). Returns replacement entries if the node split.
    fn insert_rec(
        &mut self,
        node: u32,
        router: Option<u32>,
        oid: u32,
        rng: &mut SplitMix64,
    ) -> Option<(InternalEntry, InternalEntry)> {
        match &self.nodes[node as usize] {
            Node::Leaf(_) => {
                let d_parent = router.map_or(0.0, |r| self.dist_ids(r, oid));
                if let Node::Leaf(entries) = &mut self.nodes[node as usize] {
                    entries.push(LeafEntry { id: oid, d_parent });
                }
                self.maybe_split(node, router, rng)
            }
            Node::Internal(entries) => {
                // ChooseSubtree: prefer a child whose ball already contains
                // the object (min distance); otherwise minimize radius
                // enlargement.
                let mut best_idx = 0usize;
                let mut best_key = (1u8, f32::INFINITY);
                let mut best_d = 0.0f32;
                for (i, e) in entries.iter().enumerate() {
                    let d = self.dist_ids(e.router, oid);
                    let key = if d <= e.radius {
                        (0u8, d)
                    } else {
                        (1u8, d - e.radius)
                    };
                    if key < best_key {
                        best_key = key;
                        best_idx = i;
                        best_d = d;
                    }
                }
                let (child, child_router) = {
                    let e = match &mut self.nodes[node as usize] {
                        Node::Internal(entries) => &mut entries[best_idx],
                        _ => unreachable!(),
                    };
                    // Grow the covering radius if the new object falls
                    // outside the ball.
                    if best_d > e.radius {
                        e.radius = best_d;
                    }
                    (e.child, e.router)
                };
                if let Some((s1, s2)) = self.insert_rec(child, Some(child_router), oid, rng) {
                    // Replace the split child's entry with the two new ones.
                    if let Node::Internal(entries) = &mut self.nodes[node as usize] {
                        entries.swap_remove(best_idx);
                    }
                    let fixed: Vec<InternalEntry> = [s1, s2]
                        .into_iter()
                        .map(|mut e| {
                            e.d_parent = router.map_or(0.0, |r| self.dist_ids(r, e.router));
                            e
                        })
                        .collect();
                    if let Node::Internal(entries) = &mut self.nodes[node as usize] {
                        entries.extend(fixed);
                    }
                    return self.maybe_split(node, router, rng);
                }
                None
            }
        }
    }

    /// Split `node` if it exceeds capacity; returns the two replacement
    /// entries for the parent.
    fn maybe_split(
        &mut self,
        node: u32,
        _router: Option<u32>,
        rng: &mut SplitMix64,
    ) -> Option<(InternalEntry, InternalEntry)> {
        let len = match &self.nodes[node as usize] {
            Node::Leaf(e) => e.len(),
            Node::Internal(e) => e.len(),
        };
        if len <= self.capacity {
            return None;
        }
        match std::mem::replace(&mut self.nodes[node as usize], Node::Leaf(Vec::new())) {
            Node::Leaf(entries) => {
                // Promote two distinct objects at random (the classical
                // RANDOM policy), partition by proximity.
                let p1 = entries[rng.next_below(entries.len())].id;
                let p2 = loop {
                    let c = entries[rng.next_below(entries.len())].id;
                    if c != p1 {
                        break c;
                    }
                };
                let mut g1 = Vec::new();
                let mut g2 = Vec::new();
                let mut r1 = 0.0f32;
                let mut r2 = 0.0f32;
                let mut ties = 0usize;
                for e in entries {
                    let d1 = self.dist_ids(p1, e.id);
                    let d2 = self.dist_ids(p2, e.id);
                    // Alternate exact ties so duplicate-heavy data (where
                    // d(p1, p2) = 0) cannot produce an empty sibling.
                    let to_g1 = if d1 == d2 {
                        ties += 1;
                        ties % 2 == 1
                    } else {
                        d1 < d2
                    };
                    if to_g1 {
                        r1 = r1.max(d1);
                        g1.push(LeafEntry {
                            id: e.id,
                            d_parent: d1,
                        });
                    } else {
                        r2 = r2.max(d2);
                        g2.push(LeafEntry {
                            id: e.id,
                            d_parent: d2,
                        });
                    }
                }
                debug_assert!(!g1.is_empty() && !g2.is_empty());
                self.nodes[node as usize] = Node::Leaf(g1);
                self.nodes.push(Node::Leaf(g2));
                let sibling = (self.nodes.len() - 1) as u32;
                Some((
                    InternalEntry {
                        router: p1,
                        radius: r1,
                        d_parent: 0.0,
                        child: node,
                    },
                    InternalEntry {
                        router: p2,
                        radius: r2,
                        d_parent: 0.0,
                        child: sibling,
                    },
                ))
            }
            Node::Internal(entries) => {
                let p1 = entries[rng.next_below(entries.len())].router;
                let p2 = loop {
                    let c = entries[rng.next_below(entries.len())].router;
                    if c != p1 {
                        break c;
                    }
                };
                let mut g1 = Vec::new();
                let mut g2 = Vec::new();
                let mut r1 = 0.0f32;
                let mut r2 = 0.0f32;
                let mut ties = 0usize;
                for e in entries {
                    let d1 = self.dist_ids(p1, e.router);
                    let d2 = self.dist_ids(p2, e.router);
                    let to_g1 = if d1 == d2 {
                        ties += 1;
                        ties % 2 == 1
                    } else {
                        d1 < d2
                    };
                    if to_g1 {
                        r1 = r1.max(d1 + e.radius);
                        g1.push(InternalEntry { d_parent: d1, ..e });
                    } else {
                        r2 = r2.max(d2 + e.radius);
                        g2.push(InternalEntry { d_parent: d2, ..e });
                    }
                }
                debug_assert!(!g1.is_empty() && !g2.is_empty());
                self.nodes[node as usize] = Node::Internal(g1);
                self.nodes.push(Node::Internal(g2));
                let sibling = (self.nodes.len() - 1) as u32;
                Some((
                    InternalEntry {
                        router: p1,
                        radius: r1,
                        d_parent: 0.0,
                        child: node,
                    },
                    InternalEntry {
                        router: p2,
                        radius: r2,
                        d_parent: 0.0,
                        child: sibling,
                    },
                ))
            }
        }
    }

    /// The one traversal, for k-NN (a heap) and range (a radius) alike.
    fn search<S: Sink>(
        &self,
        query: &[f32],
        sink: &mut S,
        bufs: &mut TreeBufs,
        stats: &mut SearchStats,
    ) {
        let TreeBufs { frames, order, .. } = bufs;
        frames.clear();
        frames.push(Frame::unconditional(self.root));
        while let Some(frame) = frames.pop() {
            // `frame.b` carries the subtree's optimistic lower bound
            // max(0, d(q, router) - radius); re-check lazily against the
            // bound, which tightens as siblings are visited.
            if frame.tag == 1 && frame.b > sink.bound() {
                stats.subtrees_pruned += 1;
                continue;
            }
            stats.nodes_visited += 1;
            // The parent distance d(q, router) a frame carries: frames are
            // tagged 0 at the root (no routing object) and 1 below it.
            let parent = (frame.tag == 1).then_some(frame.a);
            match &self.nodes[frame.node as usize] {
                Node::Leaf(entries) => {
                    for e in entries {
                        if let Some(d_qp) = parent {
                            if (d_qp - e.d_parent).abs()
                                > sink.bound() + tri_slack(d_qp, e.d_parent, self.slack)
                            {
                                continue;
                            }
                        }
                        stats.distance_computations += 1;
                        stats.postfilter_candidates += 1;
                        let d = self
                            .measure
                            .distance(query, self.dataset.vector(e.id as usize));
                        sink.offer(e.id, d);
                    }
                }
                Node::Internal(entries) => {
                    // Order children by optimistic distance so the nearest
                    // pops first and tightens the bound early.
                    order.clear();
                    for e in entries {
                        if let Some(d_qp) = parent {
                            if (d_qp - e.d_parent).abs()
                                > sink.bound() + e.radius + tri_slack(d_qp, e.d_parent, self.slack)
                            {
                                stats.subtrees_pruned += 1;
                                continue;
                            }
                        }
                        stats.distance_computations += 1;
                        let d = self
                            .measure
                            .distance(query, self.dataset.vector(e.router as usize));
                        order.push((
                            (d - e.radius - tri_slack(d, e.radius, self.slack)).max(0.0),
                            d,
                            e.child,
                        ));
                    }
                    order.sort_by(|a, b| a.0.total_cmp(&b.0));
                    // Pushed in reverse so the smallest lower bound is on
                    // top of the stack.
                    for &(optimistic, d, child) in order.iter().rev() {
                        frames.push(Frame {
                            node: child,
                            tag: 1,
                            a: d,
                            b: optimistic,
                        });
                    }
                }
            }
        }
    }

    /// Tree height (diagnostic).
    pub fn height(&self) -> usize {
        fn go(nodes: &[Node], at: u32) -> usize {
            match &nodes[at as usize] {
                Node::Leaf(_) => 1,
                Node::Internal(entries) => {
                    1 + entries
                        .iter()
                        .map(|e| go(nodes, e.child))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        go(&self.nodes, self.root)
    }

    /// Verify the covering-radius invariant: every object in a subtree lies
    /// within its routing entry's covering radius. Test-suite hook.
    #[cfg(test)]
    fn check_invariants(&self) -> std::result::Result<(), String> {
        fn collect(nodes: &[Node], at: u32, out: &mut Vec<u32>) {
            match &nodes[at as usize] {
                Node::Leaf(entries) => out.extend(entries.iter().map(|e| e.id)),
                Node::Internal(entries) => {
                    for e in entries {
                        collect(nodes, e.child, out);
                    }
                }
            }
        }
        let mut stack = vec![self.root];
        let mut seen = vec![false; self.dataset.len()];
        while let Some(at) = stack.pop() {
            match &self.nodes[at as usize] {
                Node::Leaf(entries) => {
                    for e in entries {
                        if seen[e.id as usize] {
                            return Err(format!("object {} appears twice", e.id));
                        }
                        seen[e.id as usize] = true;
                    }
                }
                Node::Internal(entries) => {
                    for e in entries {
                        let mut members = Vec::new();
                        collect(&self.nodes, e.child, &mut members);
                        for m in members {
                            let d = self.dist_ids(e.router, m);
                            if d > e.radius + 1e-4 {
                                return Err(format!(
                                    "object {m} at {d} escapes router {} radius {}",
                                    e.router, e.radius
                                ));
                            }
                        }
                        stack.push(e.child);
                    }
                }
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("object {missing} missing"));
        }
        Ok(())
    }
}

impl SearchIndex for MTree {
    fn len(&self) -> usize {
        self.dataset.len()
    }

    fn dim(&self) -> usize {
        self.dataset.dim()
    }

    fn range_into(
        &self,
        query: &[f32],
        radius: f32,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    ) {
        sink::range(radius, scratch, out, |within, bufs| {
            self.search(query, within, bufs, stats)
        });
    }

    fn knn_into(
        &self,
        query: &[f32],
        k: usize,
        scratch: &mut QueryScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Neighbor>,
    ) {
        sink::knn(k, scratch, out, |heap, bufs| {
            self.search(query, heap, bufs, stats)
        });
    }

    fn name(&self) -> &'static str {
        "m-tree"
    }

    fn structure_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in &self.nodes {
            total += std::mem::size_of::<Node>();
            total += match n {
                Node::Leaf(e) => e.len() * std::mem::size_of::<LeafEntry>(),
                Node::Internal(e) => e.len() * std::mem::size_of::<InternalEntry>(),
            };
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::traits::{knn_search_simple, range_search_simple};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let v: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let ds = random_dataset(600, 5, 77);
        for measure in [Measure::L1, Measure::L2, Measure::Match] {
            let mt = MTree::build(ds.clone(), measure.clone()).unwrap();
            mt.check_invariants().unwrap();
            let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
            for qi in [0usize, 300, 599] {
                let q: Vec<f32> = ds.vector(qi).to_vec();
                for radius in [0.0f32, 1.5, 6.0] {
                    assert_eq!(
                        range_search_simple(&mt, &q, radius),
                        range_search_simple(&lin, &q, radius),
                        "{} range r={radius}",
                        measure.name()
                    );
                }
                for k in [1usize, 10, 80] {
                    assert_eq!(
                        knn_search_simple(&mt, &q, k),
                        knn_search_simple(&lin, &q, k),
                        "{} knn k={k}",
                        measure.name()
                    );
                }
            }
        }
    }

    #[test]
    fn off_dataset_queries_match_linear() {
        let ds = random_dataset(400, 3, 13);
        let mt = MTree::build(ds.clone(), Measure::L2).unwrap();
        let lin = LinearScan::build(ds, Measure::L2).unwrap();
        let mut rng = SplitMix64::new(5);
        for _ in 0..15 {
            let q: Vec<f32> = (0..3).map(|_| rng.next_f32() * 25.0 - 5.0).collect();
            assert_eq!(
                knn_search_simple(&mt, &q, 8),
                knn_search_simple(&lin, &q, 8)
            );
            assert_eq!(
                range_search_simple(&mt, &q, 4.0),
                range_search_simple(&lin, &q, 4.0)
            );
        }
    }

    #[test]
    fn prunes_on_clustered_data() {
        let mut rng = SplitMix64::new(3);
        let centres: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..8).map(|_| rng.next_f32() * 100.0).collect())
            .collect();
        let v: Vec<Vec<f32>> = (0..3000)
            .map(|i| {
                centres[i % 10]
                    .iter()
                    .map(|&c| c + rng.next_f32() * 2.0)
                    .collect()
            })
            .collect();
        let ds = Dataset::from_vectors(&v).unwrap();
        let mt = MTree::build(ds.clone(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        mt.knn_search(ds.vector(55), 10, &mut stats);
        assert!(
            stats.distance_computations < 1500,
            "m-tree barely pruned: {}",
            stats.distance_computations
        );
    }

    #[test]
    fn tree_grows_in_height() {
        let ds = random_dataset(2000, 4, 9);
        let mt = MTree::with_capacity(ds, Measure::L2, 8).unwrap();
        assert!(mt.height() >= 3, "height {}", mt.height());
        mt.check_invariants().unwrap();
    }

    #[test]
    fn duplicates_and_tiny_sets() {
        let ds = Dataset::from_vectors(&vec![vec![1.0, 1.0]; 60]).unwrap();
        let mt = MTree::build(ds, Measure::L2).unwrap();
        mt.check_invariants().unwrap();
        assert_eq!(range_search_simple(&mt, &[1.0, 1.0], 0.0).len(), 60);
        for n in 1..=5 {
            let ds = random_dataset(n, 2, n as u64);
            let mt = MTree::build(ds.clone(), Measure::L1).unwrap();
            let lin = LinearScan::build(ds.clone(), Measure::L1).unwrap();
            let q = ds.vector(0);
            assert_eq!(knn_search_simple(&mt, q, n), knn_search_simple(&lin, q, n));
        }
    }

    #[test]
    fn validation() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        assert!(matches!(
            MTree::build(ds.clone(), Measure::Cosine),
            Err(IndexError::UnsupportedMeasure { .. })
        ));
        assert!(MTree::with_capacity(ds, Measure::L2, 3).is_err());
    }

    #[test]
    fn capacity_affects_structure_not_results() {
        let ds = random_dataset(500, 4, 21);
        let small = MTree::with_capacity(ds.clone(), Measure::L2, 4).unwrap();
        let big = MTree::with_capacity(ds.clone(), Measure::L2, 64).unwrap();
        small.check_invariants().unwrap();
        big.check_invariants().unwrap();
        let q = ds.vector(123);
        assert_eq!(
            knn_search_simple(&small, q, 15),
            knn_search_simple(&big, q, 15)
        );
        assert!(small.structure_bytes() > 0);
        assert_eq!(small.name(), "m-tree");
    }
}
