//! Anomaly scoring over distance series (§6.2).
//!
//! A transition is anomalous when its distance spikes relative to both
//! neighbors: `S_t = (d_t − d_{t−1}) + (d_t − d_{t+1})`. Boundary
//! transitions score zero — a spike cannot be confirmed with only one
//! neighbor (the paper likewise leaves the last quarter unmarked).

use crate::nan_high_cmp;

/// Anomaly scores per transition. Input is the processed distance series
/// (one value per adjacent state pair); output has the same length, with
/// zero scores at both boundaries.
pub fn anomaly_scores(distances: &[f64]) -> Vec<f64> {
    let n = distances.len();
    (0..n)
        .map(|t| {
            if t == 0 || t + 1 == n {
                return 0.0;
            }
            (distances[t] - distances[t - 1]) + (distances[t] - distances[t + 1])
        })
        .collect()
}

/// Anomaly scores straight from a batch all-pairs matrix over the series'
/// snapshots: superdiagonal distances → standard normalization → spike
/// scores. The one-call path for workloads driven by
/// `SndEngine::pairwise_distances`.
pub fn anomaly_scores_from_matrix(
    matrix: &snd_core::DistanceMatrix,
    states: &[snd_models::NetworkState],
) -> Vec<f64> {
    anomaly_scores(&crate::series::processed_adjacent(matrix, states))
}

/// Summary of a labelled detection run: what was flagged, how much of it
/// was right, and the ranking quality — the per-scenario report the
/// simulate → anomaly workflow prints.
#[derive(Clone, Debug)]
pub struct DetectionReport {
    /// The `k` flagged transitions, highest score first.
    pub flagged: Vec<usize>,
    /// How many flagged transitions are labelled anomalous.
    pub hits: usize,
    /// Number of transitions flagged (`min(k, transitions)`).
    pub k: usize,
    /// Labelled anomalies in the series.
    pub positives: usize,
    /// ROC AUC of the full score ranking (0.5 = chance); `None` when the
    /// labels are one-class (no ranking to grade).
    pub auc: Option<f64>,
}

/// Grades anomaly `scores` against ground-truth `labels`: top-`k` flags
/// with hit count, plus the AUC of the full ranking. `labels` may be
/// shorter than `scores` (missing entries count as normal).
pub fn evaluate_detection(scores: &[f64], labels: &[bool], k: usize) -> DetectionReport {
    let flagged = top_k_anomalies(scores, k);
    let is_anomalous = |t: usize| labels.get(t).copied().unwrap_or(false);
    let hits = flagged.iter().filter(|&&t| is_anomalous(t)).count();
    let positives = (0..scores.len()).filter(|&t| is_anomalous(t)).count();
    let auc = if positives > 0 && positives < scores.len() {
        let full: Vec<bool> = (0..scores.len()).map(is_anomalous).collect();
        Some(crate::roc::auc(&crate::roc::roc_curve(scores, &full)))
    } else {
        None
    };
    DetectionReport {
        k: flagged.len(),
        flagged,
        hits,
        positives,
        auc,
    }
}

/// Indices of the `k` highest-scoring transitions, in decreasing score
/// order (stable on ties by index).
pub fn top_k_anomalies(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    // A total order: NaN scores of either sign rank first (above +inf)
    // instead of collapsing to Equal, which would make the comparator
    // non-transitive and the ranking permutation arbitrary.
    idx.sort_by(|&a, &b| nan_high_cmp(scores[b], scores[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spike_scores_highest() {
        let d = [0.2, 0.2, 1.0, 0.2, 0.2];
        let s = anomaly_scores(&d);
        let top = top_k_anomalies(&s, 1);
        assert_eq!(top, vec![2]);
        assert!((s[2] - 1.6).abs() < 1e-12);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[4], 0.0);
    }

    #[test]
    fn flat_series_has_zero_scores() {
        let s = anomaly_scores(&[0.5; 6]);
        assert!(s.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn boundary_transitions_score_zero() {
        let s = anomaly_scores(&[1.0, 0.5, 0.0]);
        assert_eq!(s[0], 0.0);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn detection_report_counts_hits_and_grades_ranking() {
        let scores = [0.0, 0.1, 2.0, 0.1, 1.5, 0.0];
        let labels = [false, false, true, false, true, false];
        let report = evaluate_detection(&scores, &labels, 2);
        assert_eq!(report.flagged, vec![2, 4]);
        assert_eq!(report.hits, 2);
        assert_eq!(report.positives, 2);
        assert!(report.auc.expect("two-class labels") > 0.99);

        // Short label vectors: the tail counts as normal.
        let report = evaluate_detection(&scores, &labels[..3], 2);
        assert_eq!(report.hits, 1);

        // One-class labels carry no ranking signal.
        assert!(evaluate_detection(&scores, &[false; 6], 2).auc.is_none());
    }

    #[test]
    fn nan_score_keeps_ranking_deterministic_and_auc_finite() {
        // Regression for the partial_cmp ranking: a NaN score must not
        // panic or scramble the order. A NaN sorts first (above +inf) and
        // everything else keeps its relative order — for the negative NaN
        // that 0.0/0.0 yields on x86-64 too, which bare total_cmp would
        // rank last.
        for nan in [f64::NAN, -f64::NAN] {
            let scores = [0.1, nan, 0.9, 0.5];
            assert_eq!(top_k_anomalies(&scores, 4), vec![1, 2, 3, 0]);
            // Same input twice: identical ranking (determinism, not chance).
            assert_eq!(top_k_anomalies(&scores, 4), top_k_anomalies(&scores, 4));

            let report = evaluate_detection(&scores, &[false, false, true, false], 2);
            assert_eq!(report.k, 2);
            assert_eq!(report.flagged, vec![1, 2]);
            assert_eq!(report.hits, 1);
            assert!(report.auc.expect("two-class labels").is_finite());
        }
    }

    #[test]
    fn top_k_is_ordered_and_bounded() {
        let s = [0.1, 0.9, 0.5, 0.9];
        let top = top_k_anomalies(&s, 3);
        assert_eq!(top, vec![1, 3, 2]);
        assert_eq!(top_k_anomalies(&s, 10).len(), 4);
    }
}
