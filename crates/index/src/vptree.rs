//! Vantage-point tree: metric-space partitioning by distance to a chosen
//! vantage point, with triangle-inequality pruning. Works with any true
//! metric (not just coordinate spaces), making it the natural companion to
//! histogram match distances.

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::rng::SplitMix64;
use crate::scratch::{Frame, QueryScratch, TreeBufs};
use crate::sink::{self, Sink};
use crate::stats::{tri_margin, tri_slack, Neighbor, SearchStats};
use crate::traits::SearchIndex;
use cbir_distance::Measure;

/// Frame tags for the iterative traversal: how a pushed child relates to
/// its parent ball, determining the pop-time admission check.
const TAG_INNER: u8 = 1;
const TAG_OUTER: u8 = 2;

#[derive(Debug)]
enum Node {
    Leaf {
        /// `(id, distance to parent vantage point)` — kept for potential
        /// leaf-level pruning and diagnostics.
        ids: Vec<u32>,
    },
    Ball {
        /// The vantage point (also a data point, reported in results).
        vp: u32,
        /// Median distance: inner child holds points with `d <= mu`.
        mu: f32,
        /// Maximum distance from vp to any point in this subtree.
        radius: f32,
        inner: u32,
        outer: u32,
    },
}

/// A VP-tree over a [`Dataset`] under a true metric.
#[derive(Debug)]
pub struct VpTree {
    dataset: Dataset,
    measure: Measure,
    nodes: Vec<Node>,
    root: u32,
    leaf_size: usize,
    /// [`tri_margin`] of the dimension.
    slack: f32,
}

impl VpTree {
    /// Default leaf capacity.
    pub const DEFAULT_LEAF_SIZE: usize = 16;

    /// Build with the default leaf size.
    pub fn build(dataset: Dataset, measure: Measure) -> Result<Self> {
        Self::with_leaf_size(dataset, measure, Self::DEFAULT_LEAF_SIZE)
    }

    /// Build with an explicit leaf capacity.
    ///
    /// Returns [`IndexError::UnsupportedMeasure`] unless the measure is a
    /// true metric — the pruning rule is unsound otherwise.
    pub fn with_leaf_size(dataset: Dataset, measure: Measure, leaf_size: usize) -> Result<Self> {
        if !measure.is_true_metric() {
            return Err(IndexError::UnsupportedMeasure {
                index: "vp-tree",
                measure: measure.name(),
            });
        }
        if leaf_size == 0 {
            return Err(IndexError::InvalidParameter(
                "leaf size must be positive".into(),
            ));
        }
        let mut ids: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut tree = VpTree {
            slack: tri_margin(dataset.dim()),
            dataset,
            measure,
            nodes: Vec::new(),
            root: 0,
            leaf_size,
        };
        let mut rng = SplitMix64::new(0x5eed_cafe);
        tree.root = tree.build_node(&mut ids, &mut rng);
        Ok(tree)
    }

    fn build_node(&mut self, ids: &mut [u32], rng: &mut SplitMix64) -> u32 {
        if ids.len() <= self.leaf_size {
            self.nodes.push(Node::Leaf { ids: ids.to_vec() });
            return (self.nodes.len() - 1) as u32;
        }
        // Pick the vantage point uniformly at (deterministic pseudo-)random;
        // the classical construction samples a few and keeps the one with
        // the best distance spread, but a random pick is within a few
        // percent and keeps construction O(n log n).
        let pick = rng.next_below(ids.len());
        ids.swap(0, pick);
        let vp = ids[0];
        let vp_vec: Vec<f32> = self.dataset.vector(vp as usize).to_vec();

        let rest = &mut ids[1..];
        let mut dists: Vec<(u32, f32)> = rest
            .iter()
            .map(|&id| {
                (
                    id,
                    self.measure
                        .distance(&vp_vec, self.dataset.vector(id as usize)),
                )
            })
            .collect();
        let mid = dists.len() / 2;
        dists.select_nth_unstable_by(mid, |a, b| a.1.total_cmp(&b.1));
        let mu = dists[mid].1;
        let radius = dists.iter().map(|d| d.1).fold(0.0f32, f32::max);
        for (slot, (id, _)) in rest.iter_mut().zip(&dists) {
            *slot = *id;
        }
        let (inner_ids, outer_ids) = rest.split_at_mut(mid);
        // `select_nth` guarantee: inner d <= mu, outer d >= mu... except the
        // pivot itself sits in `outer`; both halves respect the mu boundary.
        let inner = self.build_node(inner_ids, rng);
        let outer = self.build_node(outer_ids, rng);
        self.nodes.push(Node::Ball {
            vp,
            mu,
            radius,
            inner,
            outer,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Whether a child frame pushed with `(tag, d, mu)` is admitted when the
    /// current search radius (range `t` or k-NN bound) is `t`.
    #[inline]
    fn admits(&self, frame: &Frame, t: f32) -> bool {
        match frame.tag {
            TAG_INNER => frame.a - t <= frame.b + tri_slack(frame.a, frame.b, self.slack),
            TAG_OUTER => frame.a + t >= frame.b - tri_slack(frame.a, frame.b, self.slack),
            _ => true,
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
        let frames = &mut bufs.frames;
        frames.clear();
        frames.push(Frame::unconditional(self.root));
        while let Some(frame) = frames.pop() {
            // Lazy admission check against the current (possibly tightened)
            // bound — prunes at least as much as the recursive form.
            if !self.admits(&frame, sink.bound()) {
                stats.subtrees_pruned += 1;
                continue;
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
                Node::Ball {
                    vp,
                    mu,
                    radius: ball_radius,
                    inner,
                    outer,
                } => {
                    stats.distance_computations += 1;
                    let d = self
                        .measure
                        .distance(query, self.dataset.vector(*vp as usize));
                    sink.offer(*vp, d);
                    if d > sink.bound() + ball_radius + tri_slack(d, *ball_radius, self.slack) {
                        // Ball exclusion skips both children at once.
                        stats.subtrees_pruned += 2;
                        continue;
                    }
                    // The more promising side is pushed last so it pops
                    // first and tightens the bound before the other side's
                    // admission check runs.
                    let (first, second) = if d <= *mu {
                        ((*inner, TAG_INNER), (*outer, TAG_OUTER))
                    } else {
                        ((*outer, TAG_OUTER), (*inner, TAG_INNER))
                    };
                    frames.push(Frame {
                        node: second.0,
                        tag: second.1,
                        a: d,
                        b: *mu,
                    });
                    frames.push(Frame {
                        node: first.0,
                        tag: first.1,
                        a: d,
                        b: *mu,
                    });
                }
            }
        }
    }
}

impl SearchIndex for VpTree {
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
        "vp-tree"
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

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let v: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let ds = random_dataset(600, 6, 11);
        for measure in [Measure::L1, Measure::L2, Measure::LInf, Measure::Match] {
            let vp = VpTree::build(ds.clone(), measure.clone()).unwrap();
            let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
            for qi in [0usize, 250, 599] {
                let q: Vec<f32> = ds.vector(qi).to_vec();
                for radius in [0.0f32, 1.5, 6.0] {
                    assert_eq!(
                        range_search_simple(&vp, &q, radius),
                        range_search_simple(&lin, &q, radius),
                        "{} range r={radius}",
                        measure.name()
                    );
                }
                for k in [1usize, 10, 100] {
                    assert_eq!(
                        knn_search_simple(&vp, &q, k),
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
        let ds = random_dataset(400, 3, 3);
        let vp = VpTree::build(ds.clone(), Measure::L2).unwrap();
        let lin = LinearScan::build(ds, Measure::L2).unwrap();
        let mut rng = SplitMix64::new(77);
        for _ in 0..20 {
            let q: Vec<f32> = (0..3).map(|_| rng.next_f32() * 20.0 - 5.0).collect();
            assert_eq!(
                knn_search_simple(&vp, &q, 5),
                knn_search_simple(&lin, &q, 5)
            );
            assert_eq!(
                range_search_simple(&vp, &q, 3.0),
                range_search_simple(&lin, &q, 3.0)
            );
        }
    }

    #[test]
    fn prunes_substantially_in_low_dimensions() {
        let ds = random_dataset(4000, 2, 21);
        let vp = VpTree::build(ds.clone(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        vp.knn_search(ds.vector(17), 5, &mut stats);
        assert!(
            stats.distance_computations < 2000,
            "vp-tree barely pruned: {}",
            stats.distance_computations
        );
    }

    #[test]
    fn rejects_non_metrics() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        for m in [
            Measure::Cosine,
            Measure::ChiSquare,
            Measure::Intersection,
            Measure::Jeffrey,
        ] {
            assert!(matches!(
                VpTree::build(ds.clone(), m),
                Err(IndexError::UnsupportedMeasure { .. })
            ));
        }
    }

    #[test]
    fn duplicates_and_tiny_datasets() {
        let ds = Dataset::from_vectors(&vec![vec![2.0, 2.0]; 50]).unwrap();
        let vp = VpTree::build(ds, Measure::L2).unwrap();
        assert_eq!(range_search_simple(&vp, &[2.0, 2.0], 0.0).len(), 50);

        let one = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        let vp = VpTree::build(one, Measure::L1).unwrap();
        let hits = knn_search_simple(&vp, &[4.0], 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].distance, 3.0);
    }

    #[test]
    fn leaf_size_affects_structure_not_results() {
        let ds = random_dataset(300, 4, 9);
        let a = VpTree::with_leaf_size(ds.clone(), Measure::L2, 4).unwrap();
        let b = VpTree::with_leaf_size(ds.clone(), Measure::L2, 64).unwrap();
        let q = ds.vector(5);
        assert_eq!(knn_search_simple(&a, q, 12), knn_search_simple(&b, q, 12));
        assert!(VpTree::with_leaf_size(ds, Measure::L2, 0).is_err());
    }
}
