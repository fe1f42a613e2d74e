//! k-d tree: axis-aligned binary space partitioning for Minkowski metrics.
//!
//! Splits on the dimension of widest spread at the median, so the tree is
//! balanced regardless of data distribution. Pruning uses the splitting-
//! plane lower bound `|q[dim] - split|`, valid for every Minkowski order
//! (including L∞). The structure is the era's standard main-memory index for
//! low-dimensional feature vectors — and degrades gracefully into a scan as
//! dimensionality rises, which is exactly the effect the dimensionality
//! experiment measures.

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::scratch::{Frame, QueryScratch, TreeBufs};
use crate::sink::{self, Sink};
use crate::stats::{tri_slack, Neighbor, SearchStats, TRI_FLOOR};
use crate::traits::SearchIndex;
use cbir_distance::Measure;

#[derive(Debug)]
enum Node {
    Leaf {
        ids: Vec<u32>,
    },
    Split {
        dim: u32,
        value: f32,
        left: u32,
        right: u32,
    },
}

/// A balanced k-d tree over a [`Dataset`].
#[derive(Debug)]
pub struct KdTree {
    dataset: Dataset,
    measure: Measure,
    nodes: Vec<Node>,
    root: u32,
    leaf_size: usize,
}

impl KdTree {
    /// Default leaf capacity.
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Build with the default leaf size.
    pub fn build(dataset: Dataset, measure: Measure) -> Result<Self> {
        Self::with_leaf_size(dataset, measure, Self::DEFAULT_LEAF_SIZE)
    }

    /// Build with an explicit leaf capacity.
    pub fn with_leaf_size(dataset: Dataset, measure: Measure, leaf_size: usize) -> Result<Self> {
        match measure {
            Measure::L1 | Measure::L2 | Measure::LInf | Measure::Minkowski(_) => {}
            other => {
                return Err(IndexError::UnsupportedMeasure {
                    index: "kd-tree",
                    measure: other.name(),
                })
            }
        }
        if leaf_size == 0 {
            return Err(IndexError::InvalidParameter(
                "leaf size must be positive".into(),
            ));
        }
        let mut ids: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut tree = KdTree {
            dataset,
            measure,
            nodes: Vec::new(),
            root: 0,
            leaf_size,
        };
        tree.root = tree.build_node(&mut ids);
        Ok(tree)
    }

    /// Recursively build over `ids`, returning the node index.
    fn build_node(&mut self, ids: &mut [u32]) -> u32 {
        if ids.len() <= self.leaf_size {
            self.nodes.push(Node::Leaf { ids: ids.to_vec() });
            return (self.nodes.len() - 1) as u32;
        }
        // Widest-spread dimension.
        let dim = {
            let mut best_dim = 0usize;
            let mut best_spread = -1.0f32;
            for d in 0..self.dataset.dim() {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &id in ids.iter() {
                    let v = self.dataset.vector(id as usize)[d];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                if hi - lo > best_spread {
                    best_spread = hi - lo;
                    best_dim = d;
                }
            }
            if best_spread <= 0.0 {
                // All points identical on every axis: cannot split.
                self.nodes.push(Node::Leaf { ids: ids.to_vec() });
                return (self.nodes.len() - 1) as u32;
            }
            best_dim
        };
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            self.dataset.vector(a as usize)[dim].total_cmp(&self.dataset.vector(b as usize)[dim])
        });
        let value = self.dataset.vector(ids[mid] as usize)[dim];
        // `select_nth` may leave equal keys on both sides; that is fine — the
        // plane bound remains correct because points equal to `value` can be
        // on either side and the search descends both when |diff| = 0.
        let (lo, hi) = ids.split_at_mut(mid);
        let left = self.build_node(lo);
        let right = self.build_node(hi);
        self.nodes.push(Node::Split {
            dim: dim as u32,
            value,
            left,
            right,
        });
        (self.nodes.len() - 1) as u32
    }

    /// The one traversal, for k-NN (a heap) and range (a radius) alike.
    fn search<S: Sink>(
        &self,
        query: &[f32],
        sink: &mut S,
        bufs: &mut TreeBufs,
        stats: &mut SearchStats,
    ) {
        let frames = &mut bufs.frames;
        frames.clear();
        frames.push(Frame::unconditional(self.root));
        while let Some(frame) = frames.pop() {
            // Lazy prune: the bound can only have tightened since the push,
            // so this check prunes at least as much as the recursive form
            // while visiting exactly the same candidate set.
            if frame.tag == 1 {
                let t = sink.bound();
                if frame.a.abs() > t + tri_slack(frame.a, t, TRI_FLOOR) {
                    stats.subtrees_pruned += 1;
                    continue;
                }
            }
            stats.nodes_visited += 1;
            match &self.nodes[frame.node as usize] {
                Node::Leaf { ids } => {
                    for &id in ids {
                        stats.distance_computations += 1;
                        stats.postfilter_candidates += 1;
                        let d = self
                            .measure
                            .distance(query, self.dataset.vector(id as usize));
                        sink.offer(id, d);
                    }
                }
                Node::Split {
                    dim,
                    value,
                    left,
                    right,
                } => {
                    // The far child is pushed first (tag 1, carrying the
                    // splitting-plane offset for the pop-time check), so
                    // the near child's whole subtree is explored first.
                    let diff = query[*dim as usize] - value;
                    let (near, far) = if diff < 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    frames.push(Frame {
                        node: far,
                        tag: 1,
                        a: diff,
                        b: 0.0,
                    });
                    frames.push(Frame::unconditional(near));
                }
            }
        }
    }

    /// Tree depth (for diagnostics).
    pub fn depth(&self) -> usize {
        fn go(nodes: &[Node], at: u32) -> usize {
            match &nodes[at as usize] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + go(nodes, *left).max(go(nodes, *right)),
            }
        }
        go(&self.nodes, self.root)
    }
}

impl SearchIndex for KdTree {
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
        "kd-tree"
    }

    fn structure_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in &self.nodes {
            total += std::mem::size_of::<Node>();
            if let Node::Leaf { ids } = n {
                total += ids.len() * std::mem::size_of::<u32>();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::traits::{knn_search_simple, range_search_simple};

    /// Deterministic pseudo-random dataset.
    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) & 0x7FFF_FFFF) as f32 / 0x8000_0000u32 as f32
        };
        let v: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| next() * 10.0).collect())
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let ds = random_dataset(500, 4, 42);
        for measure in [Measure::L1, Measure::L2, Measure::LInf] {
            let kd = KdTree::build(ds.clone(), measure.clone()).unwrap();
            let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
            for qi in [0usize, 33, 77] {
                let q: Vec<f32> = ds.vector(qi).to_vec();
                for radius in [0.5f32, 2.0, 8.0] {
                    let a = range_search_simple(&kd, &q, radius);
                    let b = range_search_simple(&lin, &q, radius);
                    assert_eq!(a, b, "{} range r={radius}", measure.name());
                }
                for k in [1usize, 7, 50] {
                    let a = knn_search_simple(&kd, &q, k);
                    let b = knn_search_simple(&lin, &q, k);
                    assert_eq!(a, b, "{} knn k={k}", measure.name());
                }
            }
        }
    }

    #[test]
    fn prunes_in_low_dimensions() {
        let ds = random_dataset(2000, 2, 7);
        let kd = KdTree::build(ds.clone(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        kd.knn_search(ds.vector(100), 5, &mut stats);
        assert!(
            stats.distance_computations < 700,
            "kd-tree barely pruned: {} computations",
            stats.distance_computations
        );
    }

    #[test]
    fn duplicate_points_handled() {
        let ds = Dataset::from_vectors(&vec![vec![1.0, 2.0]; 100]).unwrap();
        let kd = KdTree::build(ds, Measure::L2).unwrap();
        let hits = range_search_simple(&kd, &[1.0, 2.0], 0.0);
        assert_eq!(hits.len(), 100);
        let knn = knn_search_simple(&kd, &[0.0, 0.0], 5);
        assert_eq!(knn.len(), 5);
        // Deterministic tie-break: lowest ids win.
        assert_eq!(
            knn.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn single_point_dataset() {
        let ds = Dataset::from_vectors(&[vec![3.0, 4.0]]).unwrap();
        let kd = KdTree::build(ds, Measure::L2).unwrap();
        let hits = knn_search_simple(&kd, &[0.0, 0.0], 3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 5.0);
    }

    #[test]
    fn rejects_non_minkowski_measures() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        assert!(matches!(
            KdTree::build(ds.clone(), Measure::Cosine),
            Err(IndexError::UnsupportedMeasure { .. })
        ));
        assert!(KdTree::build(ds.clone(), Measure::ChiSquare).is_err());
        assert!(KdTree::build(ds, Measure::Minkowski(3.0)).is_ok());
    }

    #[test]
    fn rejects_zero_leaf_size() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        assert!(KdTree::with_leaf_size(ds, Measure::L2, 0).is_err());
    }

    #[test]
    fn tree_is_balanced() {
        let ds = random_dataset(4096, 3, 99);
        let kd = KdTree::with_leaf_size(ds, Measure::L2, 8).unwrap();
        // 4096 / 8 = 512 leaves -> ~9 split levels; allow slack for uneven
        // medians but reject degenerate (linear) shapes.
        assert!(kd.depth() <= 14, "depth {}", kd.depth());
    }

    #[test]
    fn query_off_grid() {
        let ds = random_dataset(300, 3, 5);
        let kd = KdTree::build(ds.clone(), Measure::L2).unwrap();
        let lin = LinearScan::build(ds, Measure::L2).unwrap();
        // Query far outside the data's bounding box.
        let q = vec![100.0, -50.0, 42.0];
        assert_eq!(
            knn_search_simple(&kd, &q, 10),
            knn_search_simple(&lin, &q, 10)
        );
        assert_eq!(
            range_search_simple(&kd, &q, 120.0),
            range_search_simple(&lin, &q, 120.0)
        );
    }
}
