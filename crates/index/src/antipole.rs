//! Antipole tree (Cantone, Ferro, Pulvirenti, Reforgiato Recupero, Shasha):
//! a metric-space index built by recursive antipole splitting.
//!
//! Construction finds an approximate farthest pair (the *antipole*) of the
//! current set by a linear-time randomized tournament. If the pair's
//! distance exceeds the cluster-diameter threshold the set is split between
//! the two endpoints and the procedure recurses; otherwise the set becomes a
//! leaf cluster annotated with an approximate 1-median (its centroid), the
//! cluster radius, and each member's distance to the centroid. Search prunes
//! subtrees with the triangle inequality against the antipole endpoints and
//! prunes individual cluster members against the precomputed centroid
//! distances.
//!
//! ## One-byte rows
//!
//! A search scores a few thousand rows of a large descriptor corpus,
//! mostly antipole endpoints scattered over the whole matrix, and waits
//! on memory for each. Under L1 and L2 the tree therefore keeps a copy
//! of its rows at one byte per coordinate ([`ByteRows`]: an origin and a
//! step per dimension, each row's quantization error beside it), built
//! by the first query, laid out in the tree's preorder — an internal
//! node's two endpoints side by side, a leaf's centroid then its members
//! — so a traversal reads it nearly in order. Every visited row is
//! scored by an interval that provably holds the `f32` kernel's result
//! (see [`ByteRows::bounds`]); the lower end prunes and orders, and the
//! `f32` kernel runs only on a row the interval cannot exclude from the
//! heap or the radius. The traversal is the `f32` one with intervals in
//! place of distances, the triangle tests take a lower bound for the
//! distance they subtract from and an upper bound for the one they
//! subtract, and a reply holds the same ids and distance bits as the
//! `f32` path's. Other measures, rows that stay in cache or span few
//! cache lines (under `CODED_MIN_DIM` dimensions or `CODED_MIN_BYTES`
//! of `f32`s), and a query the bounds do not cover (a component that is
//! not finite, or one more than 2²⁰ steps outside the rows' box) score
//! the `f32` rows; nothing chooses between the two but the measure, the
//! matrix's shape and the query.

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::rng::SplitMix64;
use crate::scratch::{Frame, QueryScratch, TreeBufs};
use crate::sink::{self, Sink};
use crate::stats::{tri_margin, tri_slack, Neighbor, SearchStats};
use crate::traits::SearchIndex;
use cbir_distance::{ByteQuery, ByteRows, Measure};
use std::sync::OnceLock;

/// The one-byte rows are kept only for rows of at least this many
/// dimensions, in a matrix of at least `CODED_MIN_BYTES` of `f32`s.
/// Their gain is the memory a scored row no longer waits on: a quarter of
/// the cache lines, read in order. An `f32` row of under 128 dimensions
/// spans eight lines or fewer and a matrix under 8 MiB stays in cache;
/// there the bound costs more than the read it saves. Timed on the CLI's
/// query path (k = 10, 2-vCPU host with 2 MiB L2 a core), texture (18
/// dimensions) and shape (31) descriptors took 0.8–1.4× the `f32` rows'
/// time on the one-byte rows, slower in 18 of 20 cells up to 100,000
/// rows (7–12 MB); 128 to 577 dimensions took 0.9–1.6× at 2–4 MB and
/// 0.5–0.9× from 8 MB on.
const CODED_MIN_DIM: usize = 128;
const CODED_MIN_BYTES: usize = 8 << 20;

/// Tournament size τ. The paper fixes τ = 3, where the fast and accurate
/// antipole variants coincide.
const TAU: usize = 3;

/// Below this size a set's exact 1-median / farthest pair is computed
/// directly instead of by tournament.
const EXACT_THRESHOLD: usize = 24;

#[derive(Debug)]
enum Node {
    /// An empty subtree (an antipole endpoint had no other points on its
    /// side).
    Empty,
    Leaf {
        /// Approximate 1-median of the cluster.
        centroid: u32,
        /// Remaining members with their precomputed distance to the
        /// centroid.
        members: Vec<(u32, f32)>,
        /// Max distance from the centroid to any member.
        radius: f32,
        /// Slot of the centroid in the one-byte rows; the members follow.
        slot: u32,
    },
    Internal {
        a: u32,
        b: u32,
        /// Covering radius of the left subtree around `a` (max over the
        /// subtree's points of their distance to `a`).
        rad_a: f32,
        /// Covering radius of the right subtree around `b`.
        rad_b: f32,
        left: u32,
        right: u32,
        /// Slot of `a` in the one-byte rows; `b` follows.
        slot: u32,
    },
}

/// The Antipole tree.
#[derive(Debug)]
pub struct AntipoleTree {
    dataset: Dataset,
    measure: Measure,
    nodes: Vec<Node>,
    root: u32,
    diameter: f32,
    /// [`tri_margin`] of the dimension.
    slack: f32,
    /// The rows at one byte per coordinate in preorder (module docs),
    /// built by the first query; `Some(None)` under a measure other than
    /// L1 and L2, for rows too small or too few to gain from it
    /// (`CODED_MIN_DIM`), or where no copy could be built.
    codes: OnceLock<Option<ByteRows>>,
}

/// What a search knows of one row's distance from the query: an interval
/// that holds the kernel's result, collapsed to that result once the
/// kernel has run.
#[derive(Clone, Copy)]
struct Score {
    lo: f32,
    hi: f32,
    exact: bool,
}

/// How a search scores a row: the `f32` kernel, or the one-byte bound
/// with the kernel for what it cannot settle.
trait Rows {
    /// Score row `id`, stored at `slot` of the one-byte rows, for a
    /// search whose bound is `t`: exactly unless the row is provably
    /// farther than `t`. Counts one row scored.
    fn score(&self, id: u32, slot: u32, t: f32, stats: &mut SearchStats) -> Score;
}

/// Every row in `f32`.
struct F32Rows<'a> {
    dataset: &'a Dataset,
    measure: &'a Measure,
    query: &'a [f32],
}

impl Rows for F32Rows<'_> {
    #[inline]
    fn score(&self, id: u32, _slot: u32, _t: f32, stats: &mut SearchStats) -> Score {
        stats.distance_computations += 1;
        let d = self
            .measure
            .distance(self.query, self.dataset.vector(id as usize));
        Score {
            lo: d,
            hi: d,
            exact: true,
        }
    }
}

/// The one-byte rows, falling back on the `f32` rows per row.
struct CodedRows<'a> {
    exact: F32Rows<'a>,
    codes: &'a ByteRows,
    prepared: &'a ByteQuery,
}

impl Rows for CodedRows<'_> {
    #[inline]
    fn score(&self, id: u32, slot: u32, t: f32, stats: &mut SearchStats) -> Score {
        let (lo, hi) = self.codes.bounds(self.prepared, slot as usize);
        if lo > t {
            stats.distance_computations += 1;
            return Score {
                lo,
                hi,
                exact: false,
            };
        }
        stats.refined += 1;
        self.exact.score(id, slot, t, stats)
    }
}

impl AntipoleTree {
    /// Build with the given cluster-diameter threshold: a set whose
    /// approximate diameter is at most `diameter` becomes one leaf cluster.
    ///
    /// Smaller thresholds give deeper trees (more pruning per query, more
    /// build work); larger give flatter trees. The measure must be a true
    /// metric.
    pub fn build(dataset: Dataset, measure: Measure, diameter: f32) -> Result<Self> {
        if !measure.is_true_metric() {
            return Err(IndexError::UnsupportedMeasure {
                index: "antipole tree",
                measure: measure.name(),
            });
        }
        if diameter.is_nan() || diameter < 0.0 || !diameter.is_finite() {
            return Err(IndexError::InvalidParameter(format!(
                "cluster diameter must be finite and non-negative, got {diameter}"
            )));
        }
        let ids: Vec<u32> = (0..dataset.len() as u32).collect();
        let mut tree = AntipoleTree {
            slack: tri_margin(dataset.dim()),
            dataset,
            measure,
            nodes: Vec::new(),
            root: 0,
            diameter,
            codes: OnceLock::new(),
        };
        let mut rng = SplitMix64::new(0xA271_901E);
        tree.root = tree.build_node(ids, &mut rng);
        tree.number_slots();
        Ok(tree)
    }

    /// A data-driven diameter suggestion: half the median pairwise distance
    /// of a deterministic sample. A reasonable default for the classic
    /// build-vs-query trade-off.
    pub fn suggest_diameter(dataset: &Dataset, measure: &Measure) -> f32 {
        let mut rng = SplitMix64::new(42);
        let n = dataset.len();
        let samples = 64.min(n);
        let mut dists = Vec::with_capacity(samples * 2);
        for _ in 0..samples * 2 {
            let i = rng.next_below(n);
            let j = rng.next_below(n);
            if i != j {
                dists.push(measure.distance(dataset.vector(i), dataset.vector(j)));
            }
        }
        if dists.is_empty() {
            return 0.0;
        }
        let mid = dists.len() / 2;
        dists.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        dists[mid] / 2.0
    }

    /// The diameter threshold the tree was built with.
    pub fn diameter(&self) -> f32 {
        self.diameter
    }

    #[inline]
    fn dist_ids(&self, a: u32, b: u32) -> f32 {
        self.measure.distance(
            self.dataset.vector(a as usize),
            self.dataset.vector(b as usize),
        )
    }

    /// Exact 1-median of a small set: the element minimizing the sum of
    /// distances to the others.
    fn exact_1_median(&self, ids: &[u32]) -> u32 {
        debug_assert!(!ids.is_empty());
        let mut best = ids[0];
        let mut best_sum = f32::INFINITY;
        for &x in ids {
            let s: f32 = ids.iter().map(|&y| self.dist_ids(x, y)).sum();
            if s < best_sum {
                best_sum = s;
                best = x;
            }
        }
        best
    }

    /// Approximate 1-median by tournament (τ-sized local rounds).
    fn approx_1_median(&self, ids: &[u32], rng: &mut SplitMix64) -> u32 {
        let mut current: Vec<u32> = ids.to_vec();
        rng.shuffle(&mut current);
        while current.len() > EXACT_THRESHOLD {
            let mut winners = Vec::with_capacity(current.len() / TAU + 1);
            for chunk in current.chunks(TAU) {
                winners.push(self.exact_1_median(chunk));
            }
            current = winners;
        }
        self.exact_1_median(&current)
    }

    /// Exact farthest pair of a small set.
    fn exact_antipole(&self, ids: &[u32]) -> (u32, u32, f32) {
        debug_assert!(ids.len() >= 2);
        let mut best = (ids[0], ids[1], -1.0f32);
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let d = self.dist_ids(ids[i], ids[j]);
                if d > best.2 {
                    best = (ids[i], ids[j], d);
                }
            }
        }
        best
    }

    /// Approximate antipole (farthest pair) by tournament: each τ-subset
    /// passes its local farthest pair to the next round.
    fn approx_antipole(&self, ids: &[u32], rng: &mut SplitMix64) -> (u32, u32, f32) {
        let mut current: Vec<u32> = ids.to_vec();
        rng.shuffle(&mut current);
        while current.len() > EXACT_THRESHOLD {
            let mut winners = Vec::with_capacity(2 * (current.len() / TAU) + 2);
            for chunk in current.chunks(TAU) {
                if chunk.len() >= 2 {
                    let (a, b, _) = self.exact_antipole(chunk);
                    winners.push(a);
                    winners.push(b);
                } else {
                    winners.extend_from_slice(chunk);
                }
            }
            if winners.len() >= current.len() {
                // τ-chunks of size 2 pass both elements through; no further
                // shrinkage is possible.
                current = winners;
                break;
            }
            current = winners;
        }
        self.exact_antipole(&current)
    }

    fn make_leaf(&mut self, ids: Vec<u32>, rng: &mut SplitMix64) -> u32 {
        if ids.is_empty() {
            self.nodes.push(Node::Empty);
            return (self.nodes.len() - 1) as u32;
        }
        let centroid = self.approx_1_median(&ids, rng);
        let mut members = Vec::with_capacity(ids.len() - 1);
        let mut radius = 0.0f32;
        for &id in &ids {
            if id == centroid {
                continue;
            }
            let d = self.dist_ids(centroid, id);
            radius = radius.max(d);
            members.push((id, d));
        }
        self.nodes.push(Node::Leaf {
            centroid,
            members,
            radius,
            slot: 0,
        });
        (self.nodes.len() - 1) as u32
    }

    fn build_node(&mut self, ids: Vec<u32>, rng: &mut SplitMix64) -> u32 {
        if ids.len() < 2 {
            return self.make_leaf(ids, rng);
        }
        let (a, b, dist_ab) = self.approx_antipole(&ids, rng);
        // Splitting condition Φ: split only while the approximate diameter
        // exceeds the threshold.
        if dist_ab <= self.diameter {
            return self.make_leaf(ids, rng);
        }
        let mut left_ids = Vec::new();
        let mut right_ids = Vec::new();
        let mut rad_a = 0.0f32;
        let mut rad_b = 0.0f32;
        for id in ids {
            if id == a || id == b {
                continue;
            }
            let da = self.dist_ids(a, id);
            let db = self.dist_ids(b, id);
            if da <= db {
                rad_a = rad_a.max(da);
                left_ids.push(id);
            } else {
                rad_b = rad_b.max(db);
                right_ids.push(id);
            }
        }
        let left = self.build_node(left_ids, rng);
        let right = self.build_node(right_ids, rng);
        self.nodes.push(Node::Internal {
            a,
            b,
            rad_a,
            rad_b,
            left,
            right,
            slot: 0,
        });
        (self.nodes.len() - 1) as u32
    }

    /// Pop-time admission check: a child frame carries `(a lower bound
    /// on d(q, router), covering radius)`; it is visited iff the router
    /// ball can still intersect the current search ball of radius `t`.
    #[inline]
    fn admits(&self, frame: &Frame, t: f32) -> bool {
        frame.tag == 0 || frame.a <= t + frame.b + tri_slack(frame.a, frame.b, self.slack)
    }

    /// Number of leaf clusters (diagnostic).
    pub fn cluster_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum leaf-cluster radius observed (diagnostic; bounded by the
    /// construction in terms of the diameter threshold).
    pub fn max_cluster_radius(&self) -> f32 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { radius, .. } => Some(*radius),
                _ => None,
            })
            .fold(0.0, f32::max)
    }

    /// Give every node its slots in the one-byte rows, in preorder: an
    /// internal node's endpoints, then its left subtree, then its right;
    /// a leaf's centroid, then its members in order.
    fn number_slots(&mut self) {
        let mut next = 0u32;
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            match &mut self.nodes[node as usize] {
                Node::Empty => {}
                Node::Leaf { members, slot, .. } => {
                    *slot = next;
                    next += 1 + members.len() as u32;
                }
                Node::Internal {
                    left, right, slot, ..
                } => {
                    *slot = next;
                    next += 2;
                    stack.extend([*right, *left]);
                }
            }
        }
        debug_assert_eq!(next as usize, self.dataset.len());
    }

    /// The one-byte rows, laid out by the slots of [`Self::number_slots`];
    /// `None` under a measure they do not serve or for rows they do not
    /// pay on (`CODED_MIN_DIM`).
    fn encode(&self) -> Option<ByteRows> {
        let dim = self.dataset.dim();
        if dim < CODED_MIN_DIM || self.dataset.flat().len() * 4 < CODED_MIN_BYTES {
            return None;
        }
        let mut order = vec![0u32; self.dataset.len()];
        for node in &self.nodes {
            match node {
                Node::Empty => {}
                Node::Leaf {
                    centroid,
                    members,
                    slot,
                    ..
                } => {
                    let slots = &mut order[*slot as usize..][..1 + members.len()];
                    slots[0] = *centroid;
                    for (s, &(id, _)) in slots[1..].iter_mut().zip(members) {
                        *s = id;
                    }
                }
                Node::Internal { a, b, slot, .. } => {
                    order[*slot as usize..][..2].copy_from_slice(&[*a, *b]);
                }
            }
        }
        ByteRows::build(&self.measure, dim, self.dataset.flat(), &order)
    }

    /// The one-byte rows with `query` prepared in `prepared`, where they
    /// serve it; built by the first caller (concurrent first callers wait
    /// for that one build).
    fn codes_for(&self, query: &[f32], prepared: &mut ByteQuery) -> Option<&ByteRows> {
        let codes = self.codes.get_or_init(|| self.encode()).as_ref()?;
        codes.prepare(query, prepared).then_some(codes)
    }

    /// Whether a member `dcm` from a centroid scored `c` is provably
    /// farther than `t` from the query: `|d(q,c) − d(c,m)| ≤ d(q,m)`,
    /// with the interval's lower end where `d(q,c)` is subtracted from
    /// and its upper end where it is subtracted.
    #[inline]
    fn excludes(&self, c: Score, dcm: f32, t: f32) -> bool {
        let bar = t + tri_slack(c.hi, dcm, self.slack);
        c.lo - dcm > bar || dcm - c.hi > bar
    }

    /// The one traversal, for k-NN (a heap) and range (a radius) alike,
    /// over either kind of row.
    fn search<R: Rows, S: Sink>(
        &self,
        rows: &R,
        sink: &mut S,
        frames: &mut Vec<Frame>,
        stats: &mut SearchStats,
    ) {
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
                Node::Empty => {}
                Node::Leaf {
                    centroid,
                    members,
                    radius,
                    slot,
                } => {
                    let c = rows.score(*centroid, *slot, sink.bound(), stats);
                    if c.exact {
                        sink.offer(*centroid, c.lo);
                    }
                    // Whole-cluster exclusion.
                    if c.lo > sink.bound() + radius + tri_slack(c.lo, *radius, self.slack) {
                        stats.subtrees_pruned += 1;
                        continue;
                    }
                    for (&(id, dcm), member) in members.iter().zip(slot + 1..) {
                        let t = sink.bound();
                        if self.excludes(c, dcm, t) {
                            continue;
                        }
                        stats.postfilter_candidates += 1;
                        let m = rows.score(id, member, t, stats);
                        if m.exact {
                            sink.offer(id, m.lo);
                        }
                    }
                }
                Node::Internal {
                    a,
                    b,
                    rad_a,
                    rad_b,
                    left,
                    right,
                    slot,
                } => {
                    // Both endpoints are scored before either is offered,
                    // so their rows are fetched together.
                    let t = sink.bound();
                    let sa = rows.score(*a, *slot, t, stats);
                    let sb = rows.score(*b, slot + 1, t, stats);
                    for (id, s) in [(*a, sa), (*b, sb)] {
                        if s.exact {
                            sink.offer(id, s.lo);
                        }
                    }
                    let (da, db) = (sa.lo, sb.lo);
                    // The closer side is pushed last so it pops first and
                    // tightens the bound before the farther side's check.
                    let sides = if da - rad_a <= db - rad_b {
                        [(db, *rad_b, *right), (da, *rad_a, *left)]
                    } else {
                        [(da, *rad_a, *left), (db, *rad_b, *right)]
                    };
                    for (d, rad, child) in sides {
                        frames.push(Frame {
                            node: child,
                            tag: 1,
                            a: d,
                            b: rad,
                        });
                    }
                }
            }
        }
    }

    /// [`Self::search`] on the one-byte rows where they serve `query`,
    /// on the `f32` rows otherwise.
    fn dispatch<S: Sink>(
        &self,
        query: &[f32],
        sink: &mut S,
        bufs: &mut TreeBufs,
        stats: &mut SearchStats,
    ) {
        let exact = F32Rows {
            dataset: &self.dataset,
            measure: &self.measure,
            query,
        };
        let TreeBufs { frames, bytes, .. } = bufs;
        match self.codes_for(query, bytes) {
            Some(codes) => {
                let rows = CodedRows {
                    exact,
                    codes,
                    prepared: bytes,
                };
                self.search(&rows, sink, frames, stats);
            }
            None => self.search(&exact, sink, frames, stats),
        }
    }
}

impl SearchIndex for AntipoleTree {
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
            self.dispatch(query, within, bufs, stats)
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
            self.dispatch(query, heap, bufs, stats)
        });
    }

    fn name(&self) -> &'static str {
        "antipole"
    }

    /// The nodes, the members' centroid distances and, once a query has
    /// built it, the one-byte copy of the rows.
    fn structure_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in &self.nodes {
            total += std::mem::size_of::<Node>();
            if let Node::Leaf { members, .. } = n {
                total += members.len() * std::mem::size_of::<(u32, f32)>();
            }
        }
        total
            + self
                .codes
                .get()
                .and_then(Option::as_ref)
                .map_or(0, ByteRows::bytes)
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

    /// Clustered data (the regime antipole trees are designed for).
    fn clustered_dataset(n: usize, dim: usize, clusters: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let centres: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 100.0).collect())
            .collect();
        let v: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let c = &centres[i % clusters];
                c.iter().map(|&x| x + rng.next_f32() * 4.0 - 2.0).collect()
            })
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn matches_linear_scan_exactly() {
        let ds = random_dataset(500, 5, 1234);
        for measure in [Measure::L1, Measure::L2, Measure::Match] {
            for diameter in [1.0f32, 5.0, 20.0] {
                let ap = AntipoleTree::build(ds.clone(), measure.clone(), diameter).unwrap();
                let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
                for qi in [0usize, 123, 499] {
                    let q: Vec<f32> = ds.vector(qi).to_vec();
                    for radius in [0.0f32, 2.0, 7.5] {
                        assert_eq!(
                            range_search_simple(&ap, &q, radius),
                            range_search_simple(&lin, &q, radius),
                            "{} diam={diameter} range r={radius}",
                            measure.name()
                        );
                    }
                    for k in [1usize, 12, 60] {
                        assert_eq!(
                            knn_search_simple(&ap, &q, k),
                            knn_search_simple(&lin, &q, k),
                            "{} diam={diameter} knn k={k}",
                            measure.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clustered_data_prunes_well() {
        let ds = clustered_dataset(3000, 8, 15, 9);
        let diam = AntipoleTree::suggest_diameter(&ds, &Measure::L2);
        let ap = AntipoleTree::build(ds.clone(), Measure::L2, diam).unwrap();
        let mut stats = SearchStats::new();
        ap.knn_search(ds.vector(42), 10, &mut stats);
        assert!(
            stats.distance_computations < 1500,
            "antipole barely pruned on clustered data: {}",
            stats.distance_computations
        );
        assert!(ap.cluster_count() > 1);
    }

    #[test]
    fn off_dataset_queries_match_linear() {
        let ds = clustered_dataset(800, 4, 8, 77);
        let ap = AntipoleTree::build(ds.clone(), Measure::L2, 6.0).unwrap();
        let lin = LinearScan::build(ds, Measure::L2).unwrap();
        let mut rng = SplitMix64::new(31);
        for _ in 0..15 {
            let q: Vec<f32> = (0..4).map(|_| rng.next_f32() * 120.0 - 10.0).collect();
            assert_eq!(
                knn_search_simple(&ap, &q, 7),
                knn_search_simple(&lin, &q, 7)
            );
            assert_eq!(
                range_search_simple(&ap, &q, 10.0),
                range_search_simple(&lin, &q, 10.0)
            );
        }
    }

    #[test]
    fn diameter_zero_splits_until_duplicates() {
        // With diameter 0, only exact-duplicate groups form clusters.
        let mut vecs = vec![vec![1.0f32, 1.0]; 5];
        vecs.extend(vec![vec![2.0f32, 2.0]; 5]);
        vecs.push(vec![9.0, 9.0]);
        let ds = Dataset::from_vectors(&vecs).unwrap();
        let ap = AntipoleTree::build(ds, Measure::L2, 0.0).unwrap();
        let hits = range_search_simple(&ap, &[1.0, 1.0], 0.0);
        assert_eq!(hits.len(), 5);
        assert_eq!(ap.max_cluster_radius(), 0.0);
    }

    #[test]
    fn huge_diameter_gives_single_cluster() {
        let ds = random_dataset(200, 3, 5);
        let ap = AntipoleTree::build(ds.clone(), Measure::L2, 1e9).unwrap();
        assert_eq!(ap.cluster_count(), 1);
        // Still exact.
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let q = ds.vector(7);
        assert_eq!(knn_search_simple(&ap, q, 9), knn_search_simple(&lin, q, 9));
    }

    #[test]
    fn validation() {
        let ds = Dataset::from_vectors(&[vec![1.0]]).unwrap();
        assert!(AntipoleTree::build(ds.clone(), Measure::Cosine, 1.0).is_err());
        assert!(AntipoleTree::build(ds.clone(), Measure::L2, -1.0).is_err());
        assert!(AntipoleTree::build(ds.clone(), Measure::L2, f32::NAN).is_err());
        assert!(AntipoleTree::build(ds, Measure::L2, 1.0).is_ok());
    }

    #[test]
    fn tiny_datasets() {
        for n in 1..=5 {
            let ds = random_dataset(n, 2, n as u64);
            let ap = AntipoleTree::build(ds.clone(), Measure::L2, 1.0).unwrap();
            let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
            let q = ds.vector(0);
            assert_eq!(
                knn_search_simple(&ap, q, n),
                knn_search_simple(&lin, q, n),
                "n={n}"
            );
        }
    }

    #[test]
    fn suggest_diameter_is_positive_for_spread_data() {
        let ds = random_dataset(300, 4, 8);
        let d = AntipoleTree::suggest_diameter(&ds, &Measure::L2);
        assert!(d > 0.0);
        // All-identical data suggests 0.
        let dup = Dataset::from_vectors(&vec![vec![3.0]; 50]).unwrap();
        assert_eq!(AntipoleTree::suggest_diameter(&dup, &Measure::L2), 0.0);
    }

    #[test]
    fn deeper_trees_for_smaller_diameters() {
        let ds = clustered_dataset(1000, 4, 10, 3);
        let coarse = AntipoleTree::build(ds.clone(), Measure::L2, 50.0).unwrap();
        let fine = AntipoleTree::build(ds, Measure::L2, 2.0).unwrap();
        assert!(fine.cluster_count() > coarse.cluster_count());
    }
}
