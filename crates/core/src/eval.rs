//! Retrieval-effectiveness metrics: precision@k, recall@k, average
//! precision, mean average precision, and interpolated precision-recall
//! curves — plus [`evaluate_engine`], the leave-one-out evaluation of a
//! whole engine on the batched query path.

use crate::engine::QueryEngine;
use crate::error::{CoreError, Result};
use cbir_index::BatchStats;
use std::collections::{HashMap, HashSet};

/// Fraction of the top `k` results that are relevant. If fewer than `k`
/// results were returned, the denominator is still `k` (missing results
/// count as misses), matching the standard trec-style definition.
pub fn precision_at_k(results: &[usize], relevant: &HashSet<usize>, k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let hits = results
        .iter()
        .take(k)
        .filter(|id| relevant.contains(id))
        .count();
    hits as f64 / k as f64
}

/// Fraction of all relevant items found in the top `k`.
pub fn recall_at_k(results: &[usize], relevant: &HashSet<usize>, k: usize) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hits = results
        .iter()
        .take(k)
        .filter(|id| relevant.contains(id))
        .count();
    hits as f64 / relevant.len() as f64
}

/// Average precision: mean of precision@rank over the ranks where a
/// relevant item appears, divided by the total number of relevant items
/// (uninterpolated AP).
pub fn average_precision(results: &[usize], relevant: &HashSet<usize>) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (rank, id) in results.iter().enumerate() {
        if relevant.contains(id) {
            hits += 1;
            sum += hits as f64 / (rank + 1) as f64;
        }
    }
    sum / relevant.len() as f64
}

/// Mean of a per-query metric over a query set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// R-precision: precision at rank `R` where `R` is the number of relevant
/// items — a single-number summary that self-adapts to class size.
pub fn r_precision(results: &[usize], relevant: &HashSet<usize>) -> f64 {
    precision_at_k(results, relevant, relevant.len())
}

/// Normalized discounted cumulative gain at `k` with binary relevance:
/// `DCG@k / IDCG@k`, where a relevant item at rank `i` (1-based) gains
/// `1 / log2(i + 1)`. Rewards placing relevant items early more smoothly
/// than precision@k.
pub fn ndcg_at_k(results: &[usize], relevant: &HashSet<usize>, k: usize) -> f64 {
    if relevant.is_empty() || k == 0 {
        return 0.0;
    }
    let dcg: f64 = results
        .iter()
        .take(k)
        .enumerate()
        .filter(|(_, id)| relevant.contains(id))
        .map(|(i, _)| 1.0 / ((i + 2) as f64).log2())
        .sum();
    let ideal: f64 = (0..relevant.len().min(k))
        .map(|i| 1.0 / ((i + 2) as f64).log2())
        .sum();
    dcg / ideal
}

/// A precision-recall curve: one `(recall, precision)` point per rank.
pub fn pr_curve(results: &[usize], relevant: &HashSet<usize>) -> Vec<(f64, f64)> {
    if relevant.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(results.len());
    let mut hits = 0usize;
    for (rank, id) in results.iter().enumerate() {
        if relevant.contains(id) {
            hits += 1;
        }
        out.push((
            hits as f64 / relevant.len() as f64,
            hits as f64 / (rank + 1) as f64,
        ));
    }
    out
}

/// Eleven-point interpolated precision: max precision at recall ≥ each of
/// `0.0, 0.1, ..., 1.0` — the classical summary plot of the retrieval
/// literature.
pub fn eleven_point_precision(results: &[usize], relevant: &HashSet<usize>) -> [f64; 11] {
    let curve = pr_curve(results, relevant);
    let mut out = [0.0f64; 11];
    for (i, slot) in out.iter_mut().enumerate() {
        let level = i as f64 / 10.0;
        *slot = curve
            .iter()
            .filter(|(r, _)| *r >= level - 1e-12)
            .map(|(_, p)| *p)
            .fold(0.0, f64::max);
    }
    out
}

/// Aggregate scores from a leave-one-out evaluation run
/// (see [`evaluate_engine`]).
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The `k` the rank-cutoff metrics were computed at.
    pub k: usize,
    /// Number of labeled queries actually evaluated (those whose class has
    /// at least one other member).
    pub evaluated: usize,
    /// Mean precision@k over the evaluated queries.
    pub precision_at_k: f64,
    /// Mean average precision (mAP).
    pub mean_average_precision: f64,
    /// Mean R-precision.
    pub r_precision: f64,
    /// Mean nDCG@k.
    pub ndcg_at_k: f64,
    /// Aggregated search cost over the whole query set.
    pub stats: BatchStats,
}

/// Leave-one-out retrieval evaluation over a whole engine: every labeled
/// database image whose class has at least one other member queries for
/// its full ranking (excluding itself), and the rankings are scored
/// against class-label ground truth. The entire query set runs as one
/// batch on the engine's batched k-NN path with `threads` workers, so the
/// per-query cost distribution lands in [`EvalReport::stats`].
pub fn evaluate_engine(engine: &QueryEngine, k: usize, threads: usize) -> Result<EvalReport> {
    let db = engine.database();
    let n = db.len();
    let labels: Vec<Option<u32>> = db.metas().iter().map(|m| m.label).collect();
    let mut class_sizes: HashMap<u32, usize> = HashMap::new();
    for l in labels.iter().flatten() {
        *class_sizes.entry(*l).or_insert(0) += 1;
    }
    if class_sizes.is_empty() {
        return Err(CoreError::InvalidParameter(
            "database has no class labels; nothing to evaluate against".into(),
        ));
    }
    let query_ids: Vec<u64> = (0..n as u64)
        .filter(|&id| labels[id as usize].is_some_and(|l| class_sizes[&l] > 1))
        .collect();
    if query_ids.is_empty() {
        return Err(CoreError::InvalidParameter(
            "no labeled image has another image of its class".into(),
        ));
    }

    let mut stats = BatchStats::new();
    let rankings = engine.knn_batch_by_ids(&query_ids, n - 1, threads, &mut stats)?;

    let mut p_at_k = Vec::with_capacity(query_ids.len());
    let mut aps = Vec::with_capacity(query_ids.len());
    let mut rps = Vec::with_capacity(query_ids.len());
    let mut ndcgs = Vec::with_capacity(query_ids.len());
    for (hits, &query) in rankings.iter().zip(&query_ids) {
        let query = query as usize;
        let label = labels[query].expect("query ids are labeled");
        let relevant: HashSet<usize> = labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| i != query && l == Some(label))
            .map(|(i, _)| i)
            .collect();
        let ranked: Vec<usize> = hits.iter().map(|h| h.id).collect();
        p_at_k.push(precision_at_k(&ranked, &relevant, k));
        aps.push(average_precision(&ranked, &relevant));
        rps.push(r_precision(&ranked, &relevant));
        ndcgs.push(ndcg_at_k(&ranked, &relevant, k));
    }
    Ok(EvalReport {
        k,
        evaluated: query_ids.len(),
        precision_at_k: mean(&p_at_k),
        mean_average_precision: mean(&aps),
        r_precision: mean(&rps),
        ndcg_at_k: mean(&ndcgs),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(ids: &[usize]) -> HashSet<usize> {
        ids.iter().copied().collect()
    }

    #[test]
    fn precision_basics() {
        let results = [1, 9, 2, 8, 3];
        let relevant = rel(&[1, 2, 3]);
        assert_eq!(precision_at_k(&results, &relevant, 1), 1.0);
        assert_eq!(precision_at_k(&results, &relevant, 2), 0.5);
        assert_eq!(precision_at_k(&results, &relevant, 5), 0.6);
        assert_eq!(precision_at_k(&results, &relevant, 0), 0.0);
        // k beyond result length: misses count against precision.
        assert_eq!(precision_at_k(&results, &relevant, 10), 0.3);
    }

    #[test]
    fn recall_basics() {
        let results = [1, 9, 2];
        let relevant = rel(&[1, 2, 3]);
        assert!((recall_at_k(&results, &relevant, 3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&results, &relevant, 1), 1.0 / 3.0);
        assert_eq!(recall_at_k(&results, &rel(&[]), 3), 0.0);
    }

    #[test]
    fn average_precision_known_value() {
        // Relevant at ranks 1, 3, 5 out of 3 relevant total:
        // AP = (1/1 + 2/3 + 3/5) / 3.
        let results = [10, 99, 11, 98, 12];
        let relevant = rel(&[10, 11, 12]);
        let expected = (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0;
        assert!((average_precision(&results, &relevant) - expected).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_empty_rankings() {
        let relevant = rel(&[1, 2]);
        assert_eq!(average_precision(&[1, 2, 3], &relevant), 1.0);
        assert_eq!(average_precision(&[], &relevant), 0.0);
        assert_eq!(average_precision(&[5, 6], &relevant), 0.0);
        assert_eq!(average_precision(&[1], &rel(&[])), 0.0);
        // Relevant item never retrieved halves AP.
        assert_eq!(average_precision(&[1, 7, 8], &relevant), 0.5);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn r_precision_adapts_to_class_size() {
        let relevant = rel(&[1, 2, 3]);
        // R = 3: precision over the first 3 ranks.
        assert!((r_precision(&[1, 9, 2, 3], &relevant) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r_precision(&[1, 2, 3], &relevant), 1.0);
        assert_eq!(r_precision(&[9, 8, 7], &relevant), 0.0);
        assert_eq!(r_precision(&[1], &rel(&[])), 0.0);
    }

    #[test]
    fn ndcg_known_values() {
        let relevant = rel(&[1, 2]);
        // Perfect ranking: nDCG = 1.
        assert!((ndcg_at_k(&[1, 2, 9], &relevant, 3) - 1.0).abs() < 1e-12);
        // Relevant items at ranks 1 and 3:
        // DCG = 1/log2(2) + 1/log2(4) = 1 + 0.5; IDCG = 1 + 1/log2(3).
        let expected = 1.5 / (1.0 + 1.0 / 3.0f64.log2());
        assert!((ndcg_at_k(&[1, 9, 2], &relevant, 3) - expected).abs() < 1e-12);
        // Nothing relevant retrieved.
        assert_eq!(ndcg_at_k(&[8, 9], &relevant, 2), 0.0);
        assert_eq!(ndcg_at_k(&[1], &rel(&[]), 1), 0.0);
        assert_eq!(ndcg_at_k(&[1], &relevant, 0), 0.0);
    }

    #[test]
    fn ndcg_rewards_earlier_placement() {
        let relevant = rel(&[5]);
        let early = ndcg_at_k(&[5, 1, 2, 3], &relevant, 4);
        let late = ndcg_at_k(&[1, 2, 3, 5], &relevant, 4);
        assert!(early > late);
        assert_eq!(early, 1.0);
    }

    #[test]
    fn pr_curve_shape() {
        let results = [1, 9, 2];
        let relevant = rel(&[1, 2]);
        let curve = pr_curve(&results, &relevant);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0], (0.5, 1.0));
        assert_eq!(curve[1], (0.5, 0.5));
        assert_eq!(curve[2], (1.0, 2.0 / 3.0));
        // Recall is non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        assert!(pr_curve(&results, &rel(&[])).is_empty());
    }

    #[test]
    fn eleven_point_is_monotone_nonincreasing() {
        let results = [1, 9, 2, 8, 3, 7, 4];
        let relevant = rel(&[1, 2, 3, 4]);
        let pts = eleven_point_precision(&results, &relevant);
        assert_eq!(pts[0], 1.0); // max precision at recall >= 0
        for w in pts.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{pts:?}");
        }
        // Full recall achieved at rank 7 -> precision 4/7 there.
        assert!((pts[10] - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn eleven_point_zero_when_nothing_found() {
        let pts = eleven_point_precision(&[5, 6], &rel(&[1]));
        assert!(pts.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn evaluate_engine_scores_a_separable_corpus() {
        use crate::database::ImageDatabase;
        use crate::engine::IndexKind;
        use cbir_distance::Measure;
        use cbir_features::Pipeline;
        use cbir_image::{Rgb, RgbImage};

        let mut db = ImageDatabase::new(Pipeline::color_histogram_default());
        let flat = |r, g, b| RgbImage::filled(16, 16, Rgb::new(r, g, b));
        db.insert_labeled("r1", 0, &flat(220, 20, 20)).unwrap();
        db.insert_labeled("r2", 0, &flat(200, 30, 30)).unwrap();
        db.insert_labeled("b1", 1, &flat(20, 20, 220)).unwrap();
        db.insert_labeled("b2", 1, &flat(40, 25, 200)).unwrap();
        // A singleton class: skipped as a query, still a valid distractor.
        db.insert_labeled("g", 2, &flat(20, 220, 20)).unwrap();
        let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();

        let report = evaluate_engine(&engine, 1, 2).unwrap();
        assert_eq!(report.evaluated, 4);
        assert_eq!(report.k, 1);
        // Perfectly separable corpus: the nearest neighbour is always the
        // class sibling.
        assert_eq!(report.precision_at_k, 1.0);
        assert_eq!(report.mean_average_precision, 1.0);
        assert_eq!(report.stats.queries(), 4);
        assert!(report.stats.total().distance_computations > 0);

        // Unlabeled databases are rejected.
        let mut plain = ImageDatabase::new(Pipeline::color_histogram_default());
        plain.insert("x", &flat(1, 2, 3)).unwrap();
        plain.insert("y", &flat(200, 2, 3)).unwrap();
        let engine = QueryEngine::build(plain, IndexKind::Linear, Measure::L1).unwrap();
        assert!(evaluate_engine(&engine, 1, 1).is_err());
    }
}
