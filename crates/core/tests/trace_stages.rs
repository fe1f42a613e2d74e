//! The stage timeline of a trace-sampled call. Workers rank their own
//! chunk, so several of them announce the `rank` stage; the trace must
//! still read `search`, `rank` — once each, back to back — at every thread
//! count, with `extract` first for a query by example. Its own test binary
//! because trace sampling is process-global.

use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_image::{Rgb, RgbImage};
use cbir_index::{BatchStats, SearchStats};

#[test]
fn sampled_calls_trace_each_stage_once_at_every_thread_count() {
    let spec = FeatureSpec::ColorHistogram(Quantizer::UniformRgb { per_channel: 2 });
    let mut db = ImageDatabase::new(Pipeline::new(16, vec![spec]).unwrap());
    let rows: Vec<Vec<f32>> = (0..48)
        .map(|i| {
            (0..8)
                .map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0)
                .collect()
        })
        .collect();
    for (i, row) in rows.iter().enumerate() {
        let meta = ImageMeta {
            name: format!("img-{i}"),
            label: None,
        };
        db.insert_descriptor(meta, row.clone()).unwrap();
    }
    let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
    let stages = || -> Vec<&'static str> {
        let trace = cbir_obs::latest_trace().expect("every call is sampled");
        for pair in trace.spans.windows(2) {
            assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
        }
        trace.spans.iter().map(|s| s.name).collect()
    };

    cbir_obs::set_trace_sample_n(1);
    for threads in [1, 2, 5] {
        let mut stats = BatchStats::new();
        engine
            .knn_batch(&rows[..17], 3, threads, &mut stats)
            .unwrap();
        assert_eq!(stages(), ["search", "rank"], "{threads} threads");
        let ids: Vec<u64> = (0..17).collect();
        engine
            .knn_batch_by_ids_approx(&ids, 3, 0.5, threads, &mut stats)
            .unwrap();
        assert_eq!(stages(), ["search", "rank"], "approx, {threads} threads");
    }
    let image = RgbImage::filled(16, 16, Rgb::new(200, 40, 40));
    let mut stats = SearchStats::new();
    engine.range_by_example(&image, 0.5, &mut stats).unwrap();
    assert_eq!(stages(), ["extract", "search", "rank"]);
    assert_eq!(cbir_obs::latest_trace().unwrap().op, "range");
}
