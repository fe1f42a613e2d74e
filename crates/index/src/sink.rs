//! Where a tree search puts the rows it settles. Every tree has one
//! traversal, generic over a [`Sink`]: a k-NN search is that traversal
//! into a [`KnnHeap`], whose bound tightens as it fills; a range search
//! is the same traversal into [`Within`], whose bound is the radius.
//! [`knn`] and [`range`] wrap a traversal into the two
//! [`SearchIndex`](crate::SearchIndex) entry points.

use crate::knn_heap::KnnHeap;
use crate::scratch::{QueryScratch, TreeBufs};
use crate::stats::{sort_neighbors, Neighbor};

/// Where a search puts the rows it settles within its bound.
pub(crate) trait Sink {
    /// The current search bound.
    fn bound(&self) -> f32;
    /// Offer a row the kernel scored at `d`.
    fn offer(&mut self, id: u32, d: f32);
}

impl Sink for KnnHeap {
    #[inline]
    fn bound(&self) -> f32 {
        KnnHeap::bound(self)
    }

    #[inline]
    fn offer(&mut self, id: u32, d: f32) {
        KnnHeap::offer(self, id as usize, d);
    }
}

/// A range search: a fixed radius and the hits within it. A row is a
/// hit iff `d <= radius`, the scan's test, so a radius that is negative
/// or NaN admits nothing.
pub(crate) struct Within<'a> {
    radius: f32,
    out: &'a mut Vec<Neighbor>,
}

impl Sink for Within<'_> {
    #[inline]
    fn bound(&self) -> f32 {
        self.radius
    }

    #[inline]
    fn offer(&mut self, id: u32, d: f32) {
        if d <= self.radius {
            self.out.push(Neighbor {
                id: id as usize,
                distance: d,
            });
        }
    }
}

/// The `k` nearest rows `search` settles into a heap, written into `out`
/// (cleared first) sorted by `(distance, id)`.
pub(crate) fn knn(
    k: usize,
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
    search: impl FnOnce(&mut KnnHeap, &mut TreeBufs),
) {
    out.clear();
    if k == 0 {
        return;
    }
    scratch.heap.reset(k);
    search(&mut scratch.heap, &mut scratch.tree);
    scratch.heap.drain_sorted_into(out);
}

/// The rows within `radius` that `search` settles, written into `out`
/// (cleared first) sorted by `(distance, id)`.
pub(crate) fn range(
    radius: f32,
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
    search: impl FnOnce(&mut Within, &mut TreeBufs),
) {
    out.clear();
    search(&mut Within { radius, out }, &mut scratch.tree);
    sort_neighbors(out);
}
