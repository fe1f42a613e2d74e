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

/// A maximal horizontal run of foreground pixels: row `y`, columns
/// `x0..x1`. A run lies inside one region.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Run {
    /// Row.
    pub y: u32,
    /// First column.
    pub x0: u32,
    /// One past the last column.
    pub x1: u32,
    /// The region's label (1-based, as in [`Labeling::labels`]).
    pub label: u32,
}

/// Result of labelling: a label image (0 = background), the foreground
/// runs, and per-region statistics ordered by decreasing area.
#[derive(Clone, Debug)]
pub struct Labeling {
    /// Per-pixel labels, 0 = background.
    pub labels: Vec<u32>,
    /// Every foreground run, in raster order.
    pub runs: Vec<Run>,
    /// Regions sorted by decreasing area (ties by label).
    pub regions: Vec<Region>,
    /// Union-find parents of the first pass's provisional labels, then
    /// each provisional label's final one; kept so recomputes reuse its
    /// allocation.
    parent: Vec<u32>,
}

impl Labeling {
    /// A zero-size labelling to be filled in via [`Labeling::recompute`] —
    /// lets scratch-backed callers keep the label plane, run list, region
    /// list, and union-find allocations alive across images.
    pub fn empty() -> Self {
        Labeling {
            labels: Vec::new(),
            runs: Vec::new(),
            regions: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Number of connected components.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no foreground components exist.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Re-label the connected components of `binary` in place, reusing the
    /// label plane, run list, region list, and union-find allocations. The
    /// resulting labelling is identical to a fresh [`connected_components`]
    /// call.
    ///
    /// One raster pass over runs, then one over the run list. The first
    /// splits each row into maximal runs of object pixels and gives each
    /// run the smallest provisional label among the runs it touches in the
    /// row above (columns overlapping for 4-connectivity; overlapping or
    /// one column apart for 8-connectivity), or a new one, uniting their
    /// sets with the smaller label as root. A component's first run in
    /// raster order touches nothing scanned and opens a new label, so a
    /// set's root is the label opened at the component's first pixel;
    /// numbering the roots in increasing order numbers the components by
    /// their first pixel — the order a flood fill seeded in raster order
    /// finds them. The second pass gives each run its final label, writes
    /// it into the label plane, and adds the run to its region's area, box
    /// and centroid sums (closed-form sums of integer coordinates, each an
    /// integer below 2⁵³ for any image under 2²⁶ pixels, so the same
    /// values a per-pixel sum gives in any order).
    pub fn recompute(&mut self, binary: &GrayImage, conn: Connectivity) -> Result<()> {
        if binary.is_empty() {
            return Err(ImageError::InvalidParameter(
                "connected components of an empty image".into(),
            ));
        }
        let wu = binary.width() as usize;
        // How far apart two runs' columns may be and still touch.
        let reach = u32::from(conn == Connectivity::Eight);
        let Labeling {
            labels,
            runs,
            regions,
            parent,
        } = self;
        runs.clear();
        regions.clear();
        parent.clear();
        parent.push(0);

        let mut above = 0..0;
        for (y, row) in binary.as_slice().chunks_exact(wu).enumerate() {
            let start = runs.len();
            let mut j = above.start;
            for (x0, x1) in row_runs(row) {
                // Runs above ending too far left touch neither this run
                // nor any later one in the row.
                while j < above.end && runs[j].x1 + reach <= x0 {
                    j += 1;
                }
                let mut label = 0;
                for k in (j..above.end).take_while(|&k| runs[k].x0 < x1 + reach) {
                    let root = find(parent, runs[k].label);
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
                let y = y as u32;
                runs.push(Run { y, x0, x1, label });
            }
            above = start..runs.len();
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
        labels.clear();
        labels.resize(binary.len(), 0);
        for run in runs.iter_mut() {
            run.label = parent[run.label as usize];
            let Run { y, x0, x1, label } = *run;
            let row = y as usize * wu;
            labels[row + x0 as usize..row + x1 as usize].fill(label);
            let r = &mut regions[label as usize - 1];
            let len = u64::from(x1 - x0);
            r.area += len as usize;
            r.bbox = (
                r.bbox.0.min(x0),
                r.bbox.1.min(y),
                r.bbox.2.max(x1 - 1),
                r.bbox.3.max(y),
            );
            let sum_x = (u64::from(x0) + u64::from(x1) - 1) * len / 2;
            r.centroid = (
                r.centroid.0 + sum_x as f64,
                r.centroid.1 + (u64::from(y) * len) as f64,
            );
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

/// The maximal runs of nonzero bytes in `row`, as `(x0, x1)` column ranges
/// (`x1` one past the last), left to right. Reads the row 64 bytes at a
/// time as [`nonzero_bits`].
pub fn row_runs(row: &[u8]) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
    // `bits`: the nonzero bits of the 64-byte block at `base` not yet
    // handed out.
    let (mut base, mut bits) = (0, nonzero_bits(row));
    std::iter::from_fn(move || {
        while bits == 0 {
            base += 64;
            if base >= row.len() {
                return None;
            }
            bits = nonzero_bits(&row[base..]);
        }
        let x0 = base + bits.trailing_zeros() as usize;
        // The run ends at the first zero at or after its start, in this
        // block or a later one; bits past the row's end are zero.
        let mut zeros = !bits & (u64::MAX << (x0 - base));
        while zeros == 0 {
            base += 64;
            bits = nonzero_bits(&row[base.min(row.len())..]);
            zeros = !bits;
        }
        let end = zeros.trailing_zeros();
        bits &= u64::MAX << end;
        Some((x0 as u32, (base + end as usize) as u32))
    })
}

/// Bit `i` set for each nonzero byte `bytes[i]` among the first 64, eight
/// bytes per step.
pub fn nonzero_bits(bytes: &[u8]) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let bytes = &bytes[..bytes.len().min(64)];
    let mut words = bytes.chunks_exact(8);
    let mut bits = 0;
    for (k, word) in words.by_ref().enumerate() {
        let v = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // Each byte's top bit, set when the byte is nonzero (its low seven
        // bits plus 0x7f carry into it, or it was set), then the eight top
        // bits gathered into one byte: the multiplier moves bit 8i + 7 to
        // bit 56 + i, and no two partial products overlap.
        let top = (((v & LOW7) + LOW7) | v) & !LOW7;
        bits |= (top.wrapping_mul(0x0002_0408_1020_4081) >> 56) << (8 * k);
    }
    let done = bytes.len() - words.remainder().len();
    for (i, &v) in words.remainder().iter().enumerate() {
        bits |= u64::from(v != 0) << (done + i);
    }
    bits
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
    fn recompute_matches_fresh() {
        let img = two_blobs();
        let mut reused = Labeling::empty();
        // Recompute over several inputs; the last must match a fresh run.
        reused
            .recompute(&GrayImage::filled(4, 4, 255), Connectivity::Four)
            .unwrap();
        reused.recompute(&img, Connectivity::Eight).unwrap();
        let fresh = connected_components(&img, Connectivity::Eight).unwrap();
        assert_eq!(reused.labels, fresh.labels);
        assert_eq!(reused.runs, fresh.runs);
        assert_eq!(reused.regions, fresh.regions);
    }

    #[test]
    fn empty_foreground() {
        let l = connected_components(&GrayImage::filled(5, 5, 0), Connectivity::Four).unwrap();
        assert!(l.is_empty());
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
        for (&label, p) in l.labels.iter().zip(img.pixels()) {
            assert_eq!(label != 0, p != 0);
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

    /// The flood fill the run labelling is held to: seeds in raster
    /// order, neighbours from an offset list, so the same labels, areas,
    /// boxes and centroids.
    fn flood_fill(binary: &GrayImage, conn: Connectivity) -> (Vec<u32>, Vec<Region>) {
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

    #[test]
    fn window_flood_fill_matches_offset_list_flood_fill() {
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
                let (labels, regions) = flood_fill(img, conn);
                assert_eq!(got.labels, labels, "{w}x{h} {conn:?}");
                assert_eq!(got.regions, regions, "{w}x{h} {conn:?}");
            }
        }
    }

    #[test]
    fn runs_match_the_flood_fill_on_seeded_masks() {
        // Seeded noise at densities 0.05..=0.95 over thin, square and odd
        // shapes, plus the checkerboard (every run one pixel, touching only
        // diagonally) and the all-on and all-off frames.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut images = Vec::new();
        for (w, h) in [(1, 1), (1, 40), (40, 1), (2, 33), (65, 63)] {
            for density in (5..=95).step_by(15) {
                let pixels = (0..w * h)
                    .map(|_| u8::from(next() % 100 < density) * 255)
                    .collect();
                images.push(GrayImage::from_vec(w, h, pixels).unwrap());
            }
        }
        images.push(GrayImage::from_fn(65, 63, |x, y| {
            u8::from((x + y) % 2 == 0) * 255
        }));
        images.push(GrayImage::filled(65, 63, 255));
        images.push(GrayImage::filled(65, 63, 0));
        let centroid_bits = |regions: &[Region]| -> Vec<(u64, u64)> {
            let bits = |r: &Region| (r.centroid.0.to_bits(), r.centroid.1.to_bits());
            regions.iter().map(bits).collect()
        };
        for img in &images {
            let (w, h) = img.dimensions();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let got = connected_components(img, conn).unwrap();
                let (labels, regions) = flood_fill(img, conn);
                assert_eq!(got.labels, labels, "{w}x{h} {conn:?}");
                assert_eq!(got.regions, regions, "{w}x{h} {conn:?}");
                assert_eq!(centroid_bits(&got.regions), centroid_bits(&regions));
                // The runs tile the foreground in raster order, each one
                // maximal and carrying its pixels' label.
                let mut covered = vec![0u32; labels.len()];
                for r in &got.runs {
                    let row = &img.as_slice()[(r.y * w) as usize..][..w as usize];
                    assert!(r.x0 < r.x1 && r.x1 <= w, "{r:?}");
                    assert!(r.x0 == 0 || row[r.x0 as usize - 1] == 0, "{r:?}");
                    assert!(r.x1 == w || row[r.x1 as usize] == 0, "{r:?}");
                    let span = (r.y * w + r.x0) as usize..(r.y * w + r.x1) as usize;
                    covered[span].fill(r.label);
                }
                assert_eq!(covered, labels, "{w}x{h} {conn:?}");
                let order = |r: &Run| (r.y, r.x0);
                assert!(got.runs.windows(2).all(|p| order(&p[0]) < order(&p[1])));
            }
        }
    }

    #[test]
    fn row_runs_match_a_bytewise_scan() {
        // Any nonzero byte counts, across 64-byte block edges and ragged
        // ends.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for len in (0..=200).chain([255, 256, 257]) {
            for density in [0, 10, 50, 90, 100] {
                let row: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        let byte = (state >> 56) as u8;
                        if state % 100 < density {
                            byte.max(1)
                        } else {
                            0
                        }
                    })
                    .collect();
                let mut want = Vec::new();
                for (x, &v) in row.iter().enumerate() {
                    match (v != 0, want.last_mut()) {
                        (true, Some((_, end))) if *end == x as u32 => *end += 1,
                        (true, _) => want.push((x as u32, x as u32 + 1)),
                        (false, _) => {}
                    }
                }
                let got: Vec<_> = row_runs(&row).collect();
                assert_eq!(got, want, "{len} bytes at {density}%");
                let bits = nonzero_bits(&row);
                for (i, &v) in row.iter().take(64).enumerate() {
                    assert_eq!(bits >> i & 1 == 1, v != 0, "byte {i} of {len}");
                }
            }
        }
    }
}
