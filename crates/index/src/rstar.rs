//! R\*-tree over point data: the classical disk-era spatial index, here
//! in-memory, with both Sort-Tile-Recursive (STR) bulk loading and dynamic
//! R\* insertion (ChooseSubtree by overlap enlargement, forced reinsertion,
//! margin-driven split-axis selection).
//!
//! Distances are Euclidean; pruning uses the MINDIST lower bound from query
//! point to page rectangle.

use crate::dataset::Dataset;
use crate::error::{IndexError, Result};
use crate::rect::Rect;
use crate::scratch::{OrderedF32, QueryScratch, TreeBufs};
use crate::sink::{self, Sink};
use crate::stats::{tri_slack, Neighbor, SearchStats, TRI_FLOOR};
use crate::traits::SearchIndex;
use cbir_distance::l2_squared;
use std::cmp::Reverse;

/// Arena node. `level` 0 = leaf; children of a level-`l` node are at
/// `l - 1`.
#[derive(Debug)]
struct Node {
    mbr: Rect,
    level: u32,
    /// Point ids when `level == 0`, child node indexes otherwise.
    slots: Vec<u32>,
}

/// R\*-tree configuration and arena.
#[derive(Debug)]
pub struct RStarTree {
    dataset: Dataset,
    nodes: Vec<Node>,
    root: u32,
    max_entries: usize,
    min_entries: usize,
}

/// Fraction of entries evicted during forced reinsertion.
const REINSERT_FRACTION: f64 = 0.3;

impl RStarTree {
    /// Default page capacity.
    pub const DEFAULT_MAX_ENTRIES: usize = 16;

    /// Bulk-load with STR packing (the fast path for static datasets).
    pub fn bulk_load(dataset: Dataset) -> Result<Self> {
        Self::bulk_load_with_capacity(dataset, Self::DEFAULT_MAX_ENTRIES)
    }

    /// STR bulk load with an explicit page capacity (≥ 4).
    pub fn bulk_load_with_capacity(dataset: Dataset, max_entries: usize) -> Result<Self> {
        Self::check_capacity(max_entries)?;
        let mut tree = RStarTree {
            dataset,
            nodes: Vec::new(),
            root: 0,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
        };
        // Pack leaves.
        let mut ids: Vec<u32> = (0..tree.dataset.len() as u32).collect();
        let dim = tree.dataset.dim();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        tree.str_tile(&mut ids, 0, dim, &mut groups);
        let mut level_nodes: Vec<u32> = groups.into_iter().map(|g| tree.new_leaf(g)).collect();
        // Pack upper levels until a single root remains.
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let mut parents: Vec<u32> = Vec::new();
            let mut order = level_nodes.clone();
            // Order pages by their centre coordinates with the same tiling.
            let centers: Vec<Vec<f32>> = order
                .iter()
                .map(|&n| tree.nodes[n as usize].mbr.center())
                .collect();
            let mut perm: Vec<u32> = (0..order.len() as u32).collect();
            let mut tiles: Vec<Vec<u32>> = Vec::new();
            tree.str_tile_by(&mut perm, 0, dim, &centers, &mut tiles);
            for tile in tiles {
                let children: Vec<u32> = tile.iter().map(|&i| order[i as usize]).collect();
                parents.push(tree.new_internal(children, level));
            }
            order.clear();
            level_nodes = parents;
            level += 1;
        }
        tree.root = level_nodes[0];
        Ok(tree)
    }

    /// Build by repeated R\* insertion (exercises ChooseSubtree, forced
    /// reinsertion, and the R\* split; slower than bulk loading but the
    /// right path for dynamic workloads).
    pub fn build_incremental(dataset: Dataset) -> Result<Self> {
        Self::build_incremental_with_capacity(dataset, Self::DEFAULT_MAX_ENTRIES)
    }

    /// Incremental build with an explicit page capacity (≥ 4).
    pub fn build_incremental_with_capacity(dataset: Dataset, max_entries: usize) -> Result<Self> {
        Self::check_capacity(max_entries)?;
        let mut tree = RStarTree {
            dataset,
            nodes: Vec::new(),
            root: 0,
            max_entries,
            min_entries: (max_entries * 2 / 5).max(2),
        };
        tree.root = tree.new_leaf(Vec::new());
        for id in 0..tree.dataset.len() as u32 {
            tree.insert_point(id);
        }
        Ok(tree)
    }

    fn check_capacity(max_entries: usize) -> Result<()> {
        if max_entries < 4 {
            return Err(IndexError::InvalidParameter(format!(
                "page capacity must be >= 4, got {max_entries}"
            )));
        }
        Ok(())
    }

    fn point(&self, id: u32) -> &[f32] {
        self.dataset.vector(id as usize)
    }

    fn slot_rect(&self, level: u32, slot: u32) -> Rect {
        if level == 0 {
            Rect::point(self.point(slot))
        } else {
            self.nodes[slot as usize].mbr.clone()
        }
    }

    fn new_leaf(&mut self, ids: Vec<u32>) -> u32 {
        let mut mbr = Rect::empty(self.dataset.dim());
        for &id in &ids {
            mbr.union_with(&Rect::point(self.point(id)));
        }
        self.nodes.push(Node {
            mbr,
            level: 0,
            slots: ids,
        });
        (self.nodes.len() - 1) as u32
    }

    fn new_internal(&mut self, children: Vec<u32>, level: u32) -> u32 {
        let mut mbr = Rect::empty(self.dataset.dim());
        for &c in &children {
            mbr.union_with(&self.nodes[c as usize].mbr);
        }
        self.nodes.push(Node {
            mbr,
            level,
            slots: children,
        });
        (self.nodes.len() - 1) as u32
    }

    /// STR tiling of point ids.
    fn str_tile(&self, ids: &mut [u32], dim: usize, dims: usize, out: &mut Vec<Vec<u32>>) {
        let m = self.max_entries;
        if ids.len() <= m {
            out.push(ids.to_vec());
            return;
        }
        if dim + 1 == dims {
            ids.sort_unstable_by(|&a, &b| self.point(a)[dim].total_cmp(&self.point(b)[dim]));
            for chunk in ids.chunks(m) {
                out.push(chunk.to_vec());
            }
            return;
        }
        ids.sort_unstable_by(|&a, &b| self.point(a)[dim].total_cmp(&self.point(b)[dim]));
        let n_pages = ids.len().div_ceil(m);
        let slabs = (n_pages as f64)
            .powf(1.0 / (dims - dim) as f64)
            .ceil()
            .max(1.0) as usize;
        let per_slab = ids.len().div_ceil(slabs);
        for chunk in ids.chunks_mut(per_slab) {
            self.str_tile(chunk, dim + 1, dims, out);
        }
    }

    /// STR tiling of arbitrary items identified by index into `centers`.
    fn str_tile_by(
        &self,
        idx: &mut [u32],
        dim: usize,
        dims: usize,
        centers: &[Vec<f32>],
        out: &mut Vec<Vec<u32>>,
    ) {
        let m = self.max_entries;
        if idx.len() <= m {
            out.push(idx.to_vec());
            return;
        }
        idx.sort_unstable_by(|&a, &b| {
            centers[a as usize][dim].total_cmp(&centers[b as usize][dim])
        });
        if dim + 1 == dims {
            for chunk in idx.chunks(m) {
                out.push(chunk.to_vec());
            }
            return;
        }
        let n_pages = idx.len().div_ceil(m);
        let slabs = (n_pages as f64)
            .powf(1.0 / (dims - dim) as f64)
            .ceil()
            .max(1.0) as usize;
        let per_slab = idx.len().div_ceil(slabs);
        for chunk in idx.chunks_mut(per_slab) {
            self.str_tile_by(chunk, dim + 1, dims, centers, out);
        }
    }

    // ------------------------------------------------------------------
    // R* insertion
    // ------------------------------------------------------------------

    /// Insert one point with the full R\* overflow treatment.
    fn insert_point(&mut self, id: u32) {
        // Levels that have already used their one forced reinsert for this
        // logical insertion (R* performs it once per level per insert).
        let mut reinserted = vec![false; (self.nodes[self.root as usize].level + 2) as usize];
        self.insert_entry(id, 0, &mut reinserted);
    }

    /// Insert `slot` (a point id or node index) at `target_level`.
    fn insert_entry(&mut self, slot: u32, target_level: u32, reinserted: &mut Vec<bool>) {
        let entry_rect = self.slot_rect(target_level, slot);
        // Descend, recording the path.
        let mut path = vec![self.root];
        while self.nodes[*path.last().unwrap() as usize].level > target_level {
            let cur = *path.last().unwrap();
            let next = self.choose_subtree(cur, &entry_rect);
            path.push(next);
        }
        let target = *path.last().unwrap();
        self.nodes[target as usize].slots.push(slot);
        self.nodes[target as usize].mbr.union_with(&entry_rect);
        // Tighten MBRs up the path.
        for w in path.windows(2).rev() {
            let child_mbr = self.nodes[w[1] as usize].mbr.clone();
            self.nodes[w[0] as usize].mbr.union_with(&child_mbr);
        }
        self.handle_overflows(path, reinserted);
    }

    /// Walk the path bottom-up fixing any overflowing node.
    fn handle_overflows(&mut self, mut path: Vec<u32>, reinserted: &mut Vec<bool>) {
        while let Some(node) = path.pop() {
            if self.nodes[node as usize].slots.len() <= self.max_entries {
                continue;
            }
            let level = self.nodes[node as usize].level;
            let is_root = path.is_empty();
            if !is_root && !reinserted[level as usize] {
                reinserted[level as usize] = true;
                let evicted = self.evict_farthest(node);
                self.recompute_mbr(node);
                self.tighten_path(&path);
                for slot in evicted {
                    self.insert_entry(slot, level, reinserted);
                }
                // The reinsertions may have restructured the tree; the
                // remaining path MBRs were tightened inside insert_entry.
                continue;
            }
            // Split.
            let sibling = self.split_node(node);
            if is_root {
                let level = self.nodes[node as usize].level;
                let new_root = self.new_internal(vec![node, sibling], level + 1);
                self.root = new_root;
            } else {
                let parent = *path.last().unwrap();
                self.nodes[parent as usize].slots.push(sibling);
                let sib_mbr = self.nodes[sibling as usize].mbr.clone();
                self.nodes[parent as usize].mbr.union_with(&sib_mbr);
                // Parent may now overflow; loop continues with it on the
                // path.
            }
        }
    }

    fn tighten_path(&mut self, path: &[u32]) {
        for &n in path.iter().rev() {
            self.recompute_mbr(n);
        }
    }

    fn recompute_mbr(&mut self, node: u32) {
        let level = self.nodes[node as usize].level;
        let slots = self.nodes[node as usize].slots.clone();
        let mut mbr = Rect::empty(self.dataset.dim());
        for s in slots {
            mbr.union_with(&self.slot_rect(level, s));
        }
        self.nodes[node as usize].mbr = mbr;
    }

    /// Remove the `REINSERT_FRACTION` of entries whose centres lie farthest
    /// from the node's MBR centre, farthest first (the R\* heuristic).
    fn evict_farthest(&mut self, node: u32) -> Vec<u32> {
        let level = self.nodes[node as usize].level;
        let center = self.nodes[node as usize].mbr.center();
        let mut with_d: Vec<(u32, f32)> = self.nodes[node as usize]
            .slots
            .iter()
            .map(|&s| {
                let c = self.slot_rect(level, s).center();
                (s, l2_squared(&c, &center))
            })
            .collect();
        with_d.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let n_evict = ((with_d.len() as f64 * REINSERT_FRACTION) as usize).max(1);
        let evicted: Vec<u32> = with_d[..n_evict].iter().map(|e| e.0).collect();
        let keep: Vec<u32> = with_d[n_evict..].iter().map(|e| e.0).collect();
        self.nodes[node as usize].slots = keep;
        evicted
    }

    /// R\* ChooseSubtree: overlap enlargement at the level above leaves,
    /// area enlargement higher up; ties by area enlargement then area.
    fn choose_subtree(&self, node: u32, entry: &Rect) -> u32 {
        let n = &self.nodes[node as usize];
        debug_assert!(n.level > 0);
        let children = &n.slots;
        let leaf_level = n.level == 1;
        let mut best = children[0];
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &c in children {
            let crect = &self.nodes[c as usize].mbr;
            let enlarged = Rect::union(crect, entry);
            let area_enl = enlarged.area() - crect.area();
            let overlap_enl = if leaf_level {
                // Overlap of the enlarged child with its siblings, minus
                // the current overlap.
                let mut before = 0.0;
                let mut after = 0.0;
                for &o in children {
                    if o == c {
                        continue;
                    }
                    let orect = &self.nodes[o as usize].mbr;
                    before += crect.overlap(orect);
                    after += enlarged.overlap(orect);
                }
                after - before
            } else {
                0.0
            };
            let key = (overlap_enl, area_enl, crect.area());
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        best
    }

    /// R\* split: pick the axis minimizing total margin over candidate
    /// distributions, then the distribution minimizing overlap (ties by
    /// area). Returns the new sibling node index.
    fn split_node(&mut self, node: u32) -> u32 {
        let level = self.nodes[node as usize].level;
        let slots = self.nodes[node as usize].slots.clone();
        let rects: Vec<Rect> = slots.iter().map(|&s| self.slot_rect(level, s)).collect();
        let dim = self.dataset.dim();
        let m = self.min_entries;
        let total = slots.len();

        let mut best_axis = 0usize;
        let mut best_axis_margin = f64::INFINITY;
        let mut best_axis_order: Vec<usize> = Vec::new();
        for axis in 0..dim {
            // R* considers sorts by lower and upper bound; for the two we
            // pick the one with the better margin sum.
            for by_upper in [false, true] {
                let mut order: Vec<usize> = (0..total).collect();
                order.sort_by(|&a, &b| {
                    let (ka, kb) = if by_upper {
                        (rects[a].max[axis], rects[b].max[axis])
                    } else {
                        (rects[a].min[axis], rects[b].min[axis])
                    };
                    ka.total_cmp(&kb)
                });
                let mut margin_sum = 0.0f64;
                for k in m..=(total - m) {
                    let mut left = Rect::empty(dim);
                    for &i in &order[..k] {
                        left.union_with(&rects[i]);
                    }
                    let mut right = Rect::empty(dim);
                    for &i in &order[k..] {
                        right.union_with(&rects[i]);
                    }
                    margin_sum += left.margin() + right.margin();
                }
                if margin_sum < best_axis_margin {
                    best_axis_margin = margin_sum;
                    best_axis = axis;
                    best_axis_order = order;
                }
            }
        }
        let _ = best_axis;
        let order = best_axis_order;

        // Choose the distribution along the winning axis.
        let mut best_k = m;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in m..=(total - m) {
            let mut left = Rect::empty(dim);
            for &i in &order[..k] {
                left.union_with(&rects[i]);
            }
            let mut right = Rect::empty(dim);
            for &i in &order[k..] {
                right.union_with(&rects[i]);
            }
            let key = (left.overlap(&right), left.area() + right.area());
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }

        let left_slots: Vec<u32> = order[..best_k].iter().map(|&i| slots[i]).collect();
        let right_slots: Vec<u32> = order[best_k..].iter().map(|&i| slots[i]).collect();
        self.nodes[node as usize].slots = left_slots;
        self.recompute_mbr(node);
        if level == 0 {
            self.new_leaf(right_slots)
        } else {
            self.new_internal(right_slots, level)
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// The one traversal, for k-NN (a heap) and range (a radius) alike.
    fn search<S: Sink>(
        &self,
        query: &[f32],
        sink: &mut S,
        bufs: &mut TreeBufs,
        stats: &mut SearchStats,
    ) {
        // Best-first traversal over (mindist², node).
        let frontier = &mut bufs.frontier;
        frontier.clear();
        frontier.push(Reverse((
            OrderedF32(self.nodes[self.root as usize].mbr.mindist_sq(query)),
            self.root,
        )));
        while let Some(Reverse((OrderedF32(mindist_sq), at))) = frontier.pop() {
            let bound = sink.bound();
            if bound.is_finite()
                && mindist_sq > bound * bound + tri_slack(mindist_sq, bound * bound, TRI_FLOOR)
            {
                // Best-first order: the popped node and everything still on
                // the frontier are all beyond the bound.
                stats.subtrees_pruned += 1 + frontier.len() as u64;
                break;
            }
            stats.nodes_visited += 1;
            let n = &self.nodes[at as usize];
            if n.level == 0 {
                for &id in &n.slots {
                    stats.distance_computations += 1;
                    stats.postfilter_candidates += 1;
                    let d2 = l2_squared(query, self.point(id));
                    sink.offer(id, d2.sqrt());
                }
            } else {
                for &c in &n.slots {
                    let md = self.nodes[c as usize].mbr.mindist_sq(query);
                    let bound = sink.bound();
                    if !bound.is_finite()
                        || md <= bound * bound + tri_slack(md, bound * bound, TRI_FLOOR)
                    {
                        frontier.push(Reverse((OrderedF32(md), c)));
                    } else {
                        stats.subtrees_pruned += 1;
                    }
                }
            }
        }
    }

    /// Tree height (levels).
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level + 1
    }

    /// Verify structural invariants: child MBR containment, level
    /// monotonicity, and that every point is present exactly once.
    /// Used by the test suite.
    #[cfg(test)]
    fn check_invariants(&self) -> std::result::Result<(), String> {
        let mut seen = vec![false; self.dataset.len()];
        let mut stack = vec![self.root];
        while let Some(at) = stack.pop() {
            let n = &self.nodes[at as usize];
            if n.level == 0 {
                for &id in &n.slots {
                    if !n.mbr.contains_point(self.point(id)) {
                        return Err(format!("leaf mbr does not contain point {id}"));
                    }
                    if seen[id as usize] {
                        return Err(format!("point {id} appears twice"));
                    }
                    seen[id as usize] = true;
                }
            } else {
                for &c in &n.slots {
                    let child = &self.nodes[c as usize];
                    if child.level + 1 != n.level {
                        return Err(format!(
                            "level mismatch: node level {} child level {}",
                            n.level, child.level
                        ));
                    }
                    let union = Rect::union(&n.mbr, &child.mbr);
                    if union != n.mbr {
                        return Err("child mbr escapes parent mbr".into());
                    }
                    stack.push(c);
                }
            }
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            // An empty incremental tree legitimately has no points yet.
            if !self.dataset.is_empty() {
                return Err(format!("point {missing} missing from tree"));
            }
        }
        Ok(())
    }
}

impl SearchIndex for RStarTree {
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
        "r*-tree"
    }

    fn structure_bytes(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for n in &self.nodes {
            total += std::mem::size_of::<Node>()
                + n.slots.len() * std::mem::size_of::<u32>()
                + 2 * n.mbr.dim() * std::mem::size_of::<f32>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use crate::rng::SplitMix64;
    use crate::traits::{knn_search_simple, range_search_simple};
    use cbir_distance::Measure;

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let v: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect();
        Dataset::from_vectors(&v).unwrap()
    }

    #[test]
    fn bulk_load_matches_linear() {
        let ds = random_dataset(800, 3, 17);
        let rt = RStarTree::bulk_load(ds.clone()).unwrap();
        rt.check_invariants().unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        for qi in [0usize, 400, 799] {
            let q: Vec<f32> = ds.vector(qi).to_vec();
            for radius in [0.0f32, 1.0, 5.0] {
                assert_eq!(
                    range_search_simple(&rt, &q, radius),
                    range_search_simple(&lin, &q, radius),
                    "range r={radius}"
                );
            }
            for k in [1usize, 10, 50] {
                let a = knn_search_simple(&rt, &q, k);
                let b = knn_search_simple(&lin, &q, k);
                // Distances computed via sqrt(l2_squared) vs incremental l2
                // are both exact f32 sqrt of the same value -> identical.
                assert_eq!(a, b, "knn k={k}");
            }
        }
    }

    #[test]
    fn incremental_build_matches_linear() {
        let ds = random_dataset(500, 2, 23);
        let rt = RStarTree::build_incremental(ds.clone()).unwrap();
        rt.check_invariants().unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        for qi in [3usize, 250, 499] {
            let q: Vec<f32> = ds.vector(qi).to_vec();
            assert_eq!(
                range_search_simple(&rt, &q, 2.0),
                range_search_simple(&lin, &q, 2.0)
            );
            assert_eq!(
                knn_search_simple(&rt, &q, 15),
                knn_search_simple(&lin, &q, 15)
            );
        }
    }

    #[test]
    fn incremental_equals_bulk_results() {
        let ds = random_dataset(300, 4, 31);
        let a = RStarTree::bulk_load(ds.clone()).unwrap();
        let b = RStarTree::build_incremental(ds.clone()).unwrap();
        let q = ds.vector(123);
        assert_eq!(knn_search_simple(&a, q, 20), knn_search_simple(&b, q, 20));
    }

    #[test]
    fn prunes_in_low_dimensions() {
        let ds = random_dataset(5000, 2, 3);
        let rt = RStarTree::bulk_load(ds.clone()).unwrap();
        let mut stats = SearchStats::new();
        rt.knn_search(ds.vector(10), 5, &mut stats);
        assert!(
            stats.distance_computations < 1000,
            "r*-tree barely pruned: {}",
            stats.distance_computations
        );
    }

    #[test]
    fn str_leaves_are_filled() {
        let ds = random_dataset(1000, 2, 7);
        let rt = RStarTree::bulk_load_with_capacity(ds, 16).unwrap();
        // 1000/16 = 62.5 -> at most ~70 leaves if packing is tight.
        let leaf_count = rt.nodes.iter().filter(|n| n.level == 0).count();
        assert!(leaf_count <= 80, "loose packing: {leaf_count} leaves");
        assert!(rt.height() >= 2);
    }

    #[test]
    fn duplicates_and_degenerate_data() {
        let ds = Dataset::from_vectors(&vec![vec![5.0, 5.0]; 100]).unwrap();
        for rt in [
            RStarTree::bulk_load(ds.clone()).unwrap(),
            RStarTree::build_incremental(ds.clone()).unwrap(),
        ] {
            rt.check_invariants().unwrap();
            assert_eq!(range_search_simple(&rt, &[5.0, 5.0], 0.0).len(), 100);
            assert_eq!(knn_search_simple(&rt, &[0.0, 0.0], 7).len(), 7);
        }
    }

    #[test]
    fn single_point_and_small() {
        for n in 1..=6 {
            let ds = random_dataset(n, 3, n as u64 + 100);
            let rt = RStarTree::bulk_load(ds.clone()).unwrap();
            rt.check_invariants().unwrap();
            let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
            let q = ds.vector(0);
            assert_eq!(knn_search_simple(&rt, q, n), knn_search_simple(&lin, q, n));
        }
    }

    #[test]
    fn capacity_validation() {
        let ds = random_dataset(10, 2, 1);
        assert!(RStarTree::bulk_load_with_capacity(ds.clone(), 3).is_err());
        assert!(RStarTree::build_incremental_with_capacity(ds, 2).is_err());
    }

    #[test]
    fn higher_dim_still_exact() {
        let ds = random_dataset(400, 16, 5);
        let rt = RStarTree::bulk_load(ds.clone()).unwrap();
        rt.check_invariants().unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let q = ds.vector(200);
        assert_eq!(
            knn_search_simple(&rt, q, 10),
            knn_search_simple(&lin, q, 10)
        );
    }
}
