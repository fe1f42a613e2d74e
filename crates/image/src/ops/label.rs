//! Connected-component labelling of binary images, plus region statistics —
//! the minimal segmentation substrate shape features need to work on *the
//! object* instead of the whole frame.

use crate::error::{ImageError, Result};
use crate::image::GrayImage;

/// Pixel connectivity.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Connectivity {
    /// 4-connected (N/S/E/W).
    Four,
    /// 8-connected (including diagonals).
    Eight,
}

/// One labelled connected region.
#[derive(Clone, Debug, PartialEq)]
pub struct Region {
    /// Label (1-based; 0 is background).
    pub label: u32,
    /// Pixel count.
    pub area: usize,
    /// Bounding box `(min_x, min_y, max_x, max_y)`, inclusive.
    pub bbox: (u32, u32, u32, u32),
    /// Centroid `(x̄, ȳ)`.
    pub centroid: (f64, f64),
}

/// Result of labelling: a label image (0 = background) plus per-region
/// statistics ordered by decreasing area.
#[derive(Clone, Debug)]
pub struct Labeling {
    /// Per-pixel labels, 0 = background.
    pub labels: Vec<u32>,
    width: u32,
    height: u32,
    /// Regions sorted by decreasing area (ties by label).
    pub regions: Vec<Region>,
    /// Union-find parents of the first pass's provisional labels, then
    /// each provisional label's final one; kept so recomputes reuse its
    /// allocation.
    parent: Vec<u32>,
}

impl Labeling {
    /// A zero-size labelling to be filled in via [`Labeling::recompute`] —
    /// lets scratch-backed callers keep the label plane, region list, and
    /// union-find allocations alive across images.
    pub fn empty() -> Self {
        Labeling {
            labels: Vec::new(),
            width: 0,
            height: 0,
            regions: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Label at `(x, y)`.
    pub fn label_at(&self, x: u32, y: u32) -> u32 {
        assert!(x < self.width && y < self.height, "out of bounds");
        self.labels[y as usize * self.width as usize + x as usize]
    }

    /// Number of connected components.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no foreground components exist.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Binary mask (255/0) of a single region.
    pub fn mask_of(&self, label: u32) -> GrayImage {
        GrayImage::from_fn(self.width, self.height, |x, y| {
            if self.label_at(x, y) == label {
                255
            } else {
                0
            }
        })
    }

    /// Mask of the largest region, or `None` if there are no regions.
    pub fn largest_mask(&self) -> Option<GrayImage> {
        self.regions.first().map(|r| self.mask_of(r.label))
    }

    /// Write the mask of the largest region into `out` (reusing its
    /// allocation); returns `false` without touching `out` when there are no
    /// regions. The mask written is identical to [`Labeling::largest_mask`].
    pub fn largest_mask_into(&self, out: &mut GrayImage) -> bool {
        let Some(r) = self.regions.first() else {
            return false;
        };
        out.reset(self.width, self.height, 0);
        for (l, o) in self.labels.iter().zip(out.as_mut_slice()) {
            if *l == r.label {
                *o = 255;
            }
        }
        true
    }

    /// Re-label the connected components of `binary` in place, reusing the
    /// label plane, region list, and union-find allocations. The resulting
    /// labelling is identical to a fresh [`connected_components`] call.
    ///
    /// Two raster passes. The first gives each object pixel the smallest
    /// provisional label among its already-scanned neighbours (left and,
    /// for 8-connectivity, the three above; else just above), or a new one,
    /// and unites the neighbours' sets with the smaller label as root. A
    /// component's first pixel in raster order always opens a new label, so
    /// a set's root is the label opened at its first pixel; numbering the
    /// roots in increasing order numbers the components by their first
    /// pixel — the order a flood fill seeded in raster order finds them.
    /// The second pass writes the final labels and each region's area,
    /// box and centroid (sums of integer coordinates, exact in any order).
    pub fn recompute(&mut self, binary: &GrayImage, conn: Connectivity) -> Result<()> {
        if binary.is_empty() {
            return Err(ImageError::InvalidParameter(
                "connected components of an empty image".into(),
            ));
        }
        let (w, h) = binary.dimensions();
        self.width = w;
        self.height = h;
        let (wu, pixels) = (w as usize, binary.as_slice());
        let diagonals = conn == Connectivity::Eight;
        let Labeling {
            labels,
            regions,
            parent,
            ..
        } = self;
        labels.clear();
        labels.resize(pixels.len(), 0);
        regions.clear();
        parent.clear();
        parent.push(0);

        for y in 0..h as usize {
            for x in (0..wu).filter(|&x| pixels[y * wu + x] != 0) {
                let i = y * wu + x;
                let mut scanned = [0u32; 4];
                if x > 0 {
                    scanned[0] = labels[i - 1];
                }
                if y > 0 {
                    scanned[1] = labels[i - wu];
                    if diagonals {
                        if x > 0 {
                            scanned[2] = labels[i - wu - 1];
                        }
                        if x + 1 < wu {
                            scanned[3] = labels[i - wu + 1];
                        }
                    }
                }
                let mut label = 0;
                for l in scanned.into_iter().filter(|&l| l != 0) {
                    let root = find(parent, l);
                    label = if label == 0 {
                        root
                    } else {
                        let (lo, hi) = (label.min(root), label.max(root));
                        parent[hi as usize] = lo;
                        lo
                    };
                }
                if label == 0 {
                    label = parent.len() as u32;
                    parent.push(label);
                }
                labels[i] = label;
            }
        }

        // Point every provisional label at its root (a root is at most its
        // members, so the smaller labels are already flat), then number the
        // roots in increasing order, each member taking its root's number.
        for l in 1..parent.len() {
            parent[l] = find(parent, l as u32);
        }
        for l in 1..parent.len() {
            let root = parent[l] as usize;
            parent[l] = if root == l {
                regions.push(Region {
                    label: regions.len() as u32 + 1,
                    area: 0,
                    bbox: (u32::MAX, u32::MAX, 0, 0),
                    centroid: (0.0, 0.0),
                });
                regions.len() as u32
            } else {
                parent[root]
            };
        }
        for (y, row) in labels.chunks_exact_mut(wu).enumerate() {
            let y = y as u32;
            for (x, label) in (0..w).zip(row).filter(|(_, l)| **l != 0) {
                *label = parent[*label as usize];
                let r = &mut regions[*label as usize - 1];
                r.area += 1;
                r.bbox = (
                    r.bbox.0.min(x),
                    r.bbox.1.min(y),
                    r.bbox.2.max(x),
                    r.bbox.3.max(y),
                );
                r.centroid = (r.centroid.0 + x as f64, r.centroid.1 + y as f64);
            }
        }
        for r in regions.iter_mut() {
            r.centroid = (r.centroid.0 / r.area as f64, r.centroid.1 / r.area as f64);
        }
        // Unstable sort allocates nothing; the (area, label) key is unique
        // per region, so the order matches the previous stable sort exactly.
        regions.sort_unstable_by(|a, b| b.area.cmp(&a.area).then(a.label.cmp(&b.label)));
        Ok(())
    }
}

/// The root of `label`'s set, halving the path on the way. Every parent
/// is at most its child, so this walks down to the set's smallest label.
fn find(parent: &mut [u32], mut label: u32) -> u32 {
    while parent[label as usize] != label {
        let grandparent = parent[parent[label as usize] as usize];
        parent[label as usize] = grandparent;
        label = grandparent;
    }
    label
}

/// Label all connected components of the nonzero pixels of `binary`.
pub fn connected_components(binary: &GrayImage, conn: Connectivity) -> Result<Labeling> {
    let mut l = Labeling::empty();
    l.recompute(binary, conn)?;
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two blobs: a 3x3 square and a 2x1 bar, diagonal-adjacent to a lone
    /// pixel.
    fn two_blobs() -> GrayImage {
        let mut img = GrayImage::filled(10, 8, 0);
        for y in 1..4 {
            for x in 1..4 {
                img.set(x, y, 255);
            }
        }
        img.set(7, 6, 255);
        img.set(8, 6, 255);
        img.set(6, 5, 255); // diagonal neighbour of (7,6)
        img
    }

    #[test]
    fn four_vs_eight_connectivity() {
        let img = two_blobs();
        let four = connected_components(&img, Connectivity::Four).unwrap();
        let eight = connected_components(&img, Connectivity::Eight).unwrap();
        // 4-connectivity: square, bar, lone diagonal pixel = 3 components.
        assert_eq!(four.len(), 3);
        // 8-connectivity: diagonal merges with the bar = 2 components.
        assert_eq!(eight.len(), 2);
    }

    #[test]
    fn regions_sorted_by_area_with_correct_stats() {
        let img = two_blobs();
        let l = connected_components(&img, Connectivity::Eight).unwrap();
        let big = &l.regions[0];
        assert_eq!(big.area, 9);
        assert_eq!(big.bbox, (1, 1, 3, 3));
        assert_eq!(big.centroid, (2.0, 2.0));
        let small = &l.regions[1];
        assert_eq!(small.area, 3);
        assert!(l.regions[0].area >= l.regions[1].area);
    }

    #[test]
    fn largest_mask_selects_the_big_region() {
        let img = two_blobs();
        let l = connected_components(&img, Connectivity::Four).unwrap();
        let mask = l.largest_mask().unwrap();
        assert_eq!(mask.pixel(2, 2), 255);
        assert_eq!(mask.pixel(7, 6), 0);
        assert_eq!(mask.pixels().filter(|&p| p == 255).count(), 9);
    }

    #[test]
    fn recompute_and_largest_mask_into_match_fresh() {
        let img = two_blobs();
        let mut reused = Labeling::empty();
        // Recompute over several inputs; the last must match a fresh run.
        reused
            .recompute(&GrayImage::filled(4, 4, 255), Connectivity::Four)
            .unwrap();
        reused.recompute(&img, Connectivity::Eight).unwrap();
        let fresh = connected_components(&img, Connectivity::Eight).unwrap();
        assert_eq!(reused.labels, fresh.labels);
        assert_eq!(reused.regions, fresh.regions);
        let mut mask = GrayImage::filled(0, 0, 0);
        assert!(reused.largest_mask_into(&mut mask));
        assert_eq!(mask, fresh.largest_mask().unwrap());
        // No regions: into-variant reports false, mask untouched.
        reused
            .recompute(&GrayImage::filled(3, 3, 0), Connectivity::Four)
            .unwrap();
        let before = mask.clone();
        assert!(!reused.largest_mask_into(&mut mask));
        assert_eq!(mask, before);
    }

    #[test]
    fn empty_foreground() {
        let l = connected_components(&GrayImage::filled(5, 5, 0), Connectivity::Four).unwrap();
        assert!(l.is_empty());
        assert!(l.largest_mask().is_none());
        assert!(l.labels.iter().all(|&v| v == 0));
    }

    #[test]
    fn full_foreground_is_one_component() {
        let l = connected_components(&GrayImage::filled(6, 4, 255), Connectivity::Four).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.regions[0].area, 24);
        assert_eq!(l.regions[0].bbox, (0, 0, 5, 3));
    }

    #[test]
    fn labels_partition_foreground() {
        let img = GrayImage::from_fn(
            16,
            16,
            |x, y| {
                if (x / 4 + y / 4) % 2 == 0 {
                    255
                } else {
                    0
                }
            },
        );
        let l = connected_components(&img, Connectivity::Four).unwrap();
        // Every foreground pixel is labelled; every background pixel is 0.
        for (x, y, p) in img.enumerate_pixels() {
            if p != 0 {
                assert_ne!(l.label_at(x, y), 0);
            } else {
                assert_eq!(l.label_at(x, y), 0);
            }
        }
        // Areas sum to the foreground count.
        let fg = img.pixels().filter(|&p| p != 0).count();
        let total: usize = l.regions.iter().map(|r| r.area).sum();
        assert_eq!(total, fg);
    }

    #[test]
    fn checkerboard_diagonals_merge_under_eight() {
        let img = GrayImage::from_fn(8, 8, |x, y| if (x + y) % 2 == 0 { 255 } else { 0 });
        let four = connected_components(&img, Connectivity::Four).unwrap();
        let eight = connected_components(&img, Connectivity::Eight).unwrap();
        assert_eq!(four.len(), 32); // every pixel isolated
        assert_eq!(eight.len(), 1); // all diagonally connected
    }

    #[test]
    fn empty_image_is_error() {
        assert!(connected_components(&GrayImage::filled(0, 0, 0), Connectivity::Four).is_err());
    }

    #[test]
    fn single_pixel_component() {
        let mut img = GrayImage::filled(3, 3, 0);
        img.set(1, 1, 7); // any nonzero counts
        let l = connected_components(&img, Connectivity::Eight).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.regions[0].area, 1);
        assert_eq!(l.regions[0].centroid, (1.0, 1.0));
    }

    #[test]
    fn window_flood_fill_matches_offset_list_flood_fill() {
        // The offset-list formulation: same seeds in raster order, so the
        // same labels, areas, boxes and centroids.
        fn reference(binary: &GrayImage, conn: Connectivity) -> (Vec<u32>, Vec<Region>) {
            let four: &[(i64, i64)] = &[(1, 0), (-1, 0), (0, 1), (0, -1)];
            let diagonal: &[(i64, i64)] = &[(1, 1), (1, -1), (-1, 1), (-1, -1)];
            let (w, h) = binary.dimensions();
            let at = |x: i64, y: i64| y as usize * w as usize + x as usize;
            let mut labels = vec![0u32; (w * h) as usize];
            let mut regions = Vec::new();
            let mut next = 1;
            for sy in 0..h as i64 {
                for sx in 0..w as i64 {
                    if binary.pixel(sx as u32, sy as u32) == 0 || labels[at(sx, sy)] != 0 {
                        continue;
                    }
                    labels[at(sx, sy)] = next;
                    let mut stack = vec![(sx, sy)];
                    let (mut area, mut bbox, mut sums) = (0, (sx, sy, sx, sy), (0.0, 0.0));
                    while let Some((x, y)) = stack.pop() {
                        area += 1;
                        sums = (sums.0 + x as f64, sums.1 + y as f64);
                        bbox = (bbox.0.min(x), bbox.1.min(y), bbox.2.max(x), bbox.3.max(y));
                        let extra = if conn == Connectivity::Eight {
                            diagonal
                        } else {
                            &[]
                        };
                        for &(dx, dy) in four.iter().chain(extra) {
                            let (nx, ny) = (x + dx, y + dy);
                            if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                                continue;
                            }
                            if binary.pixel(nx as u32, ny as u32) != 0 && labels[at(nx, ny)] == 0 {
                                labels[at(nx, ny)] = next;
                                stack.push((nx, ny));
                            }
                        }
                    }
                    let b = (bbox.0 as u32, bbox.1 as u32, bbox.2 as u32, bbox.3 as u32);
                    regions.push(Region {
                        label: next,
                        area,
                        bbox: b,
                        centroid: (sums.0 / area as f64, sums.1 / area as f64),
                    });
                    next += 1;
                }
            }
            regions.sort_by(|a, b| b.area.cmp(&a.area).then(a.label.cmp(&b.label)));
            (labels, regions)
        }
        // Two stacked combs: each comb's teeth open labels that merge only
        // at its spine, so the second comb's labels merge after the first
        // comb's were numbered; plus hashed noise at several densities.
        let combs = |x: u32, y: u32| {
            let comb = if y < 9 { y == 8 } else { y == 19 };
            u8::from(y != 9 && (x.is_multiple_of(4) || comb)) * 255
        };
        let mut images = vec![GrayImage::from_fn(31, 20, combs)];
        for (w, h) in [(1, 1), (1, 9), (9, 1), (13, 7), (64, 64)] {
            for percent in [30, 50, 70] {
                images.push(GrayImage::from_fn(w, h, |x, y| {
                    let hash = (x.wrapping_mul(2_654_435_761) ^ y.wrapping_mul(40_503))
                        .wrapping_mul(2_246_822_519)
                        >> 16;
                    u8::from(hash % 100 < percent) * 255
                }));
            }
        }
        for img in &images {
            let (w, h) = img.dimensions();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let got = connected_components(img, conn).unwrap();
                let (labels, regions) = reference(img, conn);
                assert_eq!(got.labels, labels, "{w}x{h} {conn:?}");
                assert_eq!(got.regions, regions, "{w}x{h} {conn:?}");
            }
        }
    }
}
