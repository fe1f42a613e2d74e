//! Cross-crate integration tests: corpus generation → codec round-trip →
//! feature extraction → indexing → retrieval → evaluation → persistence,
//! exercised through the public facade only.

use cbir::core::eval::{average_precision, mean, precision_at_k};
use cbir::core::persist;
use cbir::image::codec::{decode, encode_bmp_rgb, encode_ppm, PnmEncoding};
use cbir::workload::{Corpus, CorpusSpec};
use cbir::{
    FeatureSpec, ImageDatabase, IndexKind, Measure, Pipeline, Quantizer, QueryEngine, SearchStats,
};
use std::collections::HashSet;

fn corpus() -> Corpus {
    Corpus::generate(CorpusSpec {
        classes: 6,
        images_per_class: 10,
        image_size: 48,
        jitter: 0.4,
        noise: 0.04,
        seed: 31415,
    })
}

fn build_db(corpus: &Corpus, pipeline: Pipeline) -> ImageDatabase {
    let mut db = ImageDatabase::new(pipeline);
    for (i, img) in corpus.images.iter().enumerate() {
        db.insert_labeled(format!("img-{i}"), corpus.labels[i] as u32, img)
            .unwrap();
    }
    db
}

#[test]
fn retrieval_beats_chance_by_a_wide_margin() {
    let corpus = corpus();
    let db = build_db(&corpus, Pipeline::color_histogram_default());
    let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap();

    let mut p10s = Vec::new();
    for query in (0..corpus.len()).step_by(5) {
        let mut stats = SearchStats::new();
        let hits = engine.query_by_id(query as u64, 10, &mut stats).unwrap();
        let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
        let relevant: HashSet<usize> = corpus.relevant_to(query).into_iter().collect();
        p10s.push(precision_at_k(&ranked, &relevant, 10));
    }
    let p10 = mean(&p10s);
    // Chance P@10 is 9/59 ≈ 0.15; color histograms must do far better on a
    // color-structured corpus.
    assert!(p10 > 0.5, "P@10 = {p10}, barely above chance");
}

#[test]
fn every_index_returns_identical_rankings() {
    let corpus = corpus();
    let reference: Vec<_> = {
        let db = build_db(&corpus, Pipeline::color_histogram_default());
        let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        engine.query_by_id(17, 12, &mut stats).unwrap()
    };
    for kind in [
        IndexKind::KdTree,
        IndexKind::VpTree,
        IndexKind::Antipole { diameter: None },
        IndexKind::RStar,
        IndexKind::MTree,
    ] {
        let db = build_db(&corpus, Pipeline::color_histogram_default());
        let engine = QueryEngine::build(db, kind.clone(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        let hits = engine.query_by_id(17, 12, &mut stats).unwrap();
        assert_eq!(
            hits,
            reference,
            "{} disagrees with linear scan",
            kind.name()
        );
    }
}

#[test]
fn indexes_prune_relative_to_linear_scan() {
    let corpus = Corpus::generate(CorpusSpec {
        classes: 10,
        images_per_class: 30,
        image_size: 32,
        jitter: 0.4,
        noise: 0.04,
        seed: 99,
    });
    // Compact signature keeps dimensionality friendly to pruning.
    let pipeline = Pipeline::new(
        32,
        vec![FeatureSpec::ColorHistogram(Quantizer::UniformRgb {
            per_channel: 2,
        })],
    )
    .unwrap();
    let db = build_db(&corpus, pipeline);
    let n = db.len() as u64;

    let linear = QueryEngine::build(db.clone(), IndexKind::Linear, Measure::L2).unwrap();
    let mut lin_stats = SearchStats::new();
    linear.query_by_id(5, 10, &mut lin_stats).unwrap();
    assert_eq!(lin_stats.distance_computations, n);

    for kind in [
        IndexKind::VpTree,
        IndexKind::Antipole { diameter: None },
        IndexKind::MTree,
    ] {
        let engine = QueryEngine::build(db.clone(), kind.clone(), Measure::L2).unwrap();
        let mut stats = SearchStats::new();
        engine.query_by_id(5, 10, &mut stats).unwrap();
        assert!(
            stats.distance_computations < n,
            "{}: {} computations vs {} linear",
            kind.name(),
            stats.distance_computations,
            n
        );
    }
}

#[test]
fn codecs_feed_the_pipeline_losslessly() {
    let corpus = corpus();
    let img = &corpus.images[0];
    let pipeline = Pipeline::color_histogram_default();

    let direct = pipeline.extract(img).unwrap();

    let ppm = encode_ppm(img, PnmEncoding::Binary);
    let via_ppm = pipeline.extract(&decode(&ppm).unwrap().into_rgb()).unwrap();
    assert_eq!(direct, via_ppm);

    let bmp = encode_bmp_rgb(img);
    let via_bmp = pipeline.extract(&decode(&bmp).unwrap().into_rgb()).unwrap();
    assert_eq!(direct, via_bmp);
}

#[test]
fn persistence_preserves_query_results() {
    let corpus = corpus();
    let db = build_db(&corpus, Pipeline::color_histogram_default());
    let bytes = persist::save_to_vec(&db).unwrap();
    let loaded = persist::load_from_slice(&bytes).unwrap();

    let e1 = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
    let e2 = QueryEngine::build(loaded, IndexKind::VpTree, Measure::L1).unwrap();
    let query = &corpus.images[33];
    let mut s1 = SearchStats::new();
    let mut s2 = SearchStats::new();
    assert_eq!(
        e1.query_by_example(query, 8, &mut s1).unwrap(),
        e2.query_by_example(query, 8, &mut s2).unwrap()
    );
}

#[test]
fn multi_feature_pipeline_end_to_end() {
    let corpus = Corpus::generate(CorpusSpec {
        classes: 4,
        images_per_class: 8,
        image_size: 64,
        jitter: 0.4,
        noise: 0.03,
        seed: 8,
    });
    let db = build_db(&corpus, Pipeline::full_default());
    assert_eq!(db.dim(), Pipeline::full_default().dim());
    let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
    let mut aps = Vec::new();
    for query in (0..corpus.len()).step_by(4) {
        let mut stats = SearchStats::new();
        let hits = engine
            .query_by_id(query as u64, corpus.len() - 1, &mut stats)
            .unwrap();
        let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
        let relevant: HashSet<usize> = corpus.relevant_to(query).into_iter().collect();
        aps.push(average_precision(&ranked, &relevant));
    }
    let map = mean(&aps);
    let chance = 7.0 / 31.0;
    assert!(
        map > chance + 0.2,
        "full pipeline mAP {map} too close to chance {chance}"
    );
}

#[test]
fn query_cost_scales_sublinearly_on_clustered_signatures() {
    // Doubling the corpus should not double the antipole tree's query cost
    // on class-clustered data (the sub-linearity claim, in miniature).
    let mut costs = Vec::new();
    for images_per_class in [15usize, 30] {
        let corpus = Corpus::generate(CorpusSpec {
            classes: 8,
            images_per_class,
            image_size: 32,
            jitter: 0.3,
            noise: 0.03,
            seed: 5,
        });
        let db = build_db(&corpus, Pipeline::color_histogram_default());
        let engine =
            QueryEngine::build(db, IndexKind::Antipole { diameter: None }, Measure::L1).unwrap();
        let mut total = 0u64;
        for q in (0..corpus.len()).step_by(9) {
            let mut stats = SearchStats::new();
            engine.query_by_id(q as u64, 5, &mut stats).unwrap();
            total += stats.distance_computations;
        }
        costs.push(total as f64 / (corpus.len() / 9 + 1) as f64);
    }
    assert!(
        costs[1] < costs[0] * 2.0,
        "query cost doubled with corpus size: {costs:?}"
    );
}
