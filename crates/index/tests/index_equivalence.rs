//! The core correctness property of the whole indexing layer, checked on
//! deterministic generated workloads (no external property-testing
//! dependency, so the suite builds offline and every run checks the same
//! cases): **every index returns exactly the same reply as a sequential
//! scan** for both range and k-NN queries — the same ids, in the same
//! order, at the same distance bits — on arbitrary datasets, queries,
//! radii and k, including adversarial cases (duplicate points, collinear
//! data, radius 0, radii equal to the scan's own distances, negative and
//! non-finite radii, k > n), and at descriptor dimensions, where the
//! antipole tree answers from its one-byte rows.

use cbir_distance::Measure;
use cbir_index::{
    knn_search_simple, range_search_simple, AntipoleTree, Dataset, KdTree, LinearScan, MTree,
    Neighbor, RStarTree, SearchIndex, SearchStats, VpTree,
};
use cbir_workload::Pcg32;

const CASES: usize = 64;

/// Dimension 1..=5, 1..=120 vectors, coordinates on a coarse half-integer
/// grid so duplicates and ties are common.
fn gen_dataset(rng: &mut Pcg32) -> (Vec<Vec<f32>>, usize) {
    let dim = 1 + rng.below(5);
    let n = 1 + rng.below(120);
    let vectors = (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| (rng.below(17) as f32 - 8.0) * 0.5)
                .collect()
        })
        .collect();
    (vectors, dim)
}

fn gen_query(rng: &mut Pcg32, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.range_f32(-10.0, 10.0)).collect()
}

/// The same ids, in the same order, at the same distance bits.
fn bit_identical(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// Every tree over `ds` under L2 (the R*-tree bulk-loaded and built by
/// insertion), small pages so the trees are deep.
fn all_l2_indexes(ds: &Dataset) -> Vec<Box<dyn SearchIndex>> {
    vec![
        Box::new(KdTree::with_leaf_size(ds.clone(), Measure::L2, 4).unwrap()),
        Box::new(VpTree::with_leaf_size(ds.clone(), Measure::L2, 4).unwrap()),
        Box::new(AntipoleTree::build(ds.clone(), Measure::L2, 2.0).unwrap()),
        Box::new(RStarTree::bulk_load_with_capacity(ds.clone(), 4).unwrap()),
        Box::new(RStarTree::build_incremental_with_capacity(ds.clone(), 4).unwrap()),
        Box::new(MTree::with_capacity(ds.clone(), Measure::L2, 4).unwrap()),
    ]
}

/// Range replies at a random radius and at the scan's own 1st- and
/// 10th-nearest distances, which put a row exactly on the boundary; k-NN
/// at a random k.
#[test]
fn all_indexes_agree_with_linear_scan() {
    let mut rng = Pcg32::new(0xB1);
    for _ in 0..CASES {
        let (vectors, dim) = gen_dataset(&mut rng);
        let query = gen_query(&mut rng, dim);
        let radius = rng.range_f32(0.0, 10.0);
        let k = 1 + rng.below(20);

        let ds = Dataset::from_vectors(&vectors).unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        let nearest = knn_search_simple(&lin, &query, 10);
        let radii = [
            radius,
            nearest[0].distance,
            nearest.last().unwrap().distance,
        ];
        let expected_range = radii.map(|r| range_search_simple(&lin, &query, r));
        let expected_knn = knn_search_simple(&lin, &query, k);

        for idx in all_l2_indexes(&ds) {
            for (r, want) in radii.iter().zip(&expected_range) {
                let got = range_search_simple(idx.as_ref(), &query, *r);
                assert!(
                    bit_identical(&got, want),
                    "{} range {r} mismatch: got {got:?} expected {want:?}",
                    idx.name(),
                );
            }
            let got = knn_search_simple(idx.as_ref(), &query, k);
            assert!(
                bit_identical(&got, &expected_knn),
                "{} knn mismatch: got {got:?} expected {expected_knn:?}",
                idx.name(),
            );
        }
    }
}

/// A radius below zero admits no row, one of +inf every row, and NaN no
/// row: the scan's test `d <= radius`, on every index.
#[test]
fn negative_and_non_finite_radii_get_the_scan_reply() {
    let mut rng = Pcg32::new(0xB5);
    for _ in 0..CASES / 4 {
        let (vectors, dim) = gen_dataset(&mut rng);
        let query = gen_query(&mut rng, dim);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let lin = LinearScan::build(ds.clone(), Measure::L2).unwrap();
        for radius in [-0.3, f32::NEG_INFINITY, f32::INFINITY, f32::NAN] {
            let want = range_search_simple(&lin, &query, radius);
            let rows = if radius == f32::INFINITY { ds.len() } else { 0 };
            assert_eq!(want.len(), rows, "scan at radius {radius}");
            for idx in all_l2_indexes(&ds) {
                let got = range_search_simple(idx.as_ref(), &query, radius);
                assert!(
                    bit_identical(&got, &want),
                    "{} radius {radius}: got {} hits, the scan {}",
                    idx.name(),
                    got.len(),
                    want.len()
                );
            }
        }
    }
}

#[test]
fn metric_trees_agree_under_l1_and_match() {
    let mut rng = Pcg32::new(0xB2);
    for _ in 0..CASES {
        let (vectors, dim) = gen_dataset(&mut rng);
        let query = gen_query(&mut rng, dim);
        let k = 1 + rng.below(10);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        for measure in [Measure::L1, Measure::Match] {
            let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
            let expected = knn_search_simple(&lin, &query, k);
            let vp = VpTree::build(ds.clone(), measure.clone()).unwrap();
            let ap = AntipoleTree::build(ds.clone(), measure.clone(), 1.0).unwrap();
            let mt = MTree::build(ds.clone(), measure.clone()).unwrap();
            assert!(
                bit_identical(&knn_search_simple(&vp, &query, k), &expected),
                "vp-tree under {}",
                measure.name()
            );
            assert!(
                bit_identical(&knn_search_simple(&ap, &query, k), &expected),
                "antipole under {}",
                measure.name()
            );
            assert!(
                bit_identical(&knn_search_simple(&mt, &query, k), &expected),
                "m-tree under {}",
                measure.name()
            );
        }
    }
}

#[test]
fn range_zero_returns_exact_matches_only() {
    let mut rng = Pcg32::new(0xB3);
    for _ in 0..CASES {
        let (vectors, _dim) = gen_dataset(&mut rng);
        let pick = rng.below(120);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let q: Vec<f32> = ds.vector(pick % ds.len()).to_vec();
        for idx in [
            Box::new(KdTree::build(ds.clone(), Measure::L2).unwrap()) as Box<dyn SearchIndex>,
            Box::new(VpTree::build(ds.clone(), Measure::L2).unwrap()),
            Box::new(AntipoleTree::build(ds.clone(), Measure::L2, 0.5).unwrap()),
            Box::new(RStarTree::bulk_load(ds.clone()).unwrap()),
        ] {
            let hits = range_search_simple(idx.as_ref(), &q, 0.0);
            assert!(
                !hits.is_empty(),
                "{}: query point itself not found",
                idx.name()
            );
            for h in &hits {
                assert_eq!(
                    ds.vector(h.id),
                    &q[..],
                    "{} returned a non-match",
                    idx.name()
                );
            }
        }
    }
}

#[test]
fn knn_results_are_sorted_and_unique() {
    let mut rng = Pcg32::new(0xB4);
    for _ in 0..CASES {
        let (vectors, _dim) = gen_dataset(&mut rng);
        let k = 1 + rng.below(30);
        let ds = Dataset::from_vectors(&vectors).unwrap();
        let q: Vec<f32> = ds.vector(0).to_vec();
        for idx in [
            Box::new(KdTree::build(ds.clone(), Measure::L2).unwrap()) as Box<dyn SearchIndex>,
            Box::new(VpTree::build(ds.clone(), Measure::L2).unwrap()),
            Box::new(AntipoleTree::build(ds.clone(), Measure::L2, 2.0).unwrap()),
            Box::new(RStarTree::bulk_load(ds.clone()).unwrap()),
        ] {
            let hits = knn_search_simple(idx.as_ref(), &q, k);
            assert_eq!(hits.len(), k.min(ds.len()), "{}", idx.name());
            for w in hits.windows(2) {
                assert!(
                    w[0].distance < w[1].distance
                        || (w[0].distance == w[1].distance && w[0].id < w[1].id),
                    "{}: unsorted or duplicate results",
                    idx.name()
                );
            }
        }
    }
}

/// The corpora the one-byte rows meet in practice and the ones that
/// stress them, `n` rows at `dim`: clustered rows, histogram-like rows
/// with exact duplicates, and clustered rows with every third column
/// constant.
fn descriptor_corpora(n: usize, dim: usize, seed: u64) -> Vec<(&'static str, Vec<Vec<f32>>)> {
    let clustered = cbir_workload::clustered(n, dim, 6, 1.0, 10.0, seed);
    let histograms = cbir_workload::duplicated_histograms(n, dim, 0.5, 7, seed + 1);
    let mut constant = cbir_workload::clustered(n, dim, 6, 0.5, 4.0, seed + 2);
    for row in &mut constant {
        for x in row.iter_mut().step_by(3) {
            *x = 3.5;
        }
    }
    vec![
        ("clustered", clustered),
        ("histograms", histograms),
        ("constant columns", constant),
    ]
}

/// `near` queries near the rows, four of the rows themselves, and two
/// outside the data's box: just past it in every coordinate, and far out.
fn descriptor_queries(rows: &[Vec<f32>], near: usize, seed: u64) -> Vec<Vec<f32>> {
    let dim = rows[0].len();
    let mut queries = cbir_workload::queries(rows, near, 0.05, seed);
    queries.extend(rows.iter().step_by(rows.len() / 4 + 1).cloned());
    let (lo, hi) = rows.iter().fold(
        (vec![f32::INFINITY; dim], vec![f32::NEG_INFINITY; dim]),
        |(mut lo, mut hi), row| {
            for d in 0..dim {
                lo[d] = lo[d].min(row[d]);
                hi[d] = hi[d].max(row[d]);
            }
            (lo, hi)
        },
    );
    queries.push(
        (0..dim)
            .map(|d| if d % 2 == 0 { hi[d] + 0.5 } else { lo[d] - 0.5 })
            .collect(),
    );
    queries.push((0..dim).map(|d| hi[d] * 1000.0 + 7.0).collect());
    queries
}

/// The antipole tree keeps its one-byte rows for 128 dimensions and
/// more over 8 MiB of `f32`s: 3,700 rows of 577 take them, the small
/// corpora do not. The large corpus is searched at one diameter and with
/// fewer queries, to keep the test short in a debug build. At 16 and 64
/// dimensions the VP-, M- and kd-trees are held to the same replies
/// under L1 and L2, and the R*-tree under L2.
#[test]
fn antipole_is_bit_identical_to_the_scan_at_descriptor_dimensions() {
    for (n, dim) in [(300usize, 16usize), (300, 64), (300, 577), (3_700, 577)] {
        let coded = n * dim * 4 >= 8 << 20;
        let (shrink, near): (&[f32], _) = if coded {
            (&[1.0], 4)
        } else {
            (&[1.0, 0.25], 8)
        };
        for measure in [Measure::L1, Measure::L2] {
            for (name, rows) in descriptor_corpora(n, dim, dim as u64) {
                let ds = Dataset::from_vectors(&rows).unwrap();
                let lin = LinearScan::build(ds.clone(), measure.clone()).unwrap();
                // The scan's replies: k-NN at each k, then range at radii
                // on its own distances, which put rows exactly on the
                // boundary (a range reply is the widest one's prefix
                // within the radius).
                let cases: Vec<_> = descriptor_queries(&rows, near, 3)
                    .into_iter()
                    .map(|q| {
                        let knn = [1usize, 10, 60].map(|k| (k, knn_search_simple(&lin, &q, k)));
                        let far = &knn[2].1;
                        let widest = range_search_simple(&lin, &q, far[59].distance);
                        let within = |r: f32| -> Vec<Neighbor> {
                            widest.iter().copied().filter(|h| h.distance <= r).collect()
                        };
                        let range = [0.0, far[0].distance, far[9].distance, far[59].distance]
                            .map(|r| (r, within(r)));
                        (q, knn, range)
                    })
                    .collect();
                let suggested = AntipoleTree::suggest_diameter(&ds, &measure);
                let mut stats = SearchStats::new();
                for diameter in shrink.iter().map(|s| suggested * s) {
                    let ap = AntipoleTree::build(ds.clone(), measure.clone(), diameter).unwrap();
                    for (qi, (q, knn, range)) in cases.iter().enumerate() {
                        let case = format!(
                            "{} {n} x {dim} {name} diameter {diameter} query {qi}",
                            measure.name()
                        );
                        for (k, want) in knn {
                            let got = ap.knn_search(q, *k, &mut stats);
                            assert!(bit_identical(&got, want), "{case} k {k}");
                        }
                        for (radius, want) in range {
                            let got = ap.range_search(q, *radius, &mut stats);
                            assert!(bit_identical(&got, want), "{case} radius {radius}");
                        }
                    }
                }
                let mut trees: Vec<Box<dyn SearchIndex>> = Vec::new();
                if dim <= 64 {
                    trees.push(Box::new(
                        VpTree::build(ds.clone(), measure.clone()).unwrap(),
                    ));
                    trees.push(Box::new(MTree::build(ds.clone(), measure.clone()).unwrap()));
                    trees.push(Box::new(
                        KdTree::build(ds.clone(), measure.clone()).unwrap(),
                    ));
                    if matches!(measure, Measure::L2) {
                        trees.push(Box::new(RStarTree::bulk_load(ds.clone()).unwrap()));
                    }
                }
                for tree in &trees {
                    for (qi, (q, knn, range)) in cases.iter().enumerate() {
                        let case = format!(
                            "{} {} {n} x {dim} {name} query {qi}",
                            tree.name(),
                            measure.name()
                        );
                        for (k, want) in knn {
                            let got = knn_search_simple(tree.as_ref(), q, *k);
                            assert!(bit_identical(&got, want), "{case} k {k}");
                        }
                        for (radius, want) in range {
                            let got = range_search_simple(tree.as_ref(), q, *radius);
                            assert!(bit_identical(&got, want), "{case} radius {radius}");
                        }
                    }
                }
                // Where the one-byte rows are in force, most rows scored
                // were settled by their bound; elsewhere none was.
                let settled = 0 < stats.refined && 2 * stats.refined < stats.distance_computations;
                assert!(
                    if coded { settled } else { stats.refined == 0 },
                    "{} {n} x {dim} {name}: {} of {} rows refined",
                    measure.name(),
                    stats.refined,
                    stats.distance_computations
                );
            }
        }
    }
}
