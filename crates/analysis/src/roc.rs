//! ROC analysis for ranking-based anomaly detection (Fig. 8).

use crate::nan_high_cmp;

/// One point of a ROC curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RocPoint {
    /// False positive rate at this threshold.
    pub fpr: f64,
    /// True positive rate at this threshold.
    pub tpr: f64,
    /// Score threshold producing this point (items with score `>=`
    /// threshold are flagged).
    pub threshold: f64,
}

/// Computes the ROC curve of `scores` against boolean ground truth, from
/// `(0, 0)` to `(1, 1)`. Ties in score move along both axes at once.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), labels.len(), "one label per score");
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // A total order: a NaN score of either sign sorts first (above +inf)
    // instead of making the comparator non-transitive.
    order.sort_by(|&a, &b| nan_high_cmp(scores[b], scores[a]));

    let mut curve = vec![RocPoint {
        fpr: 0.0,
        tpr: 0.0,
        threshold: f64::INFINITY,
    }];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut i = 0usize;
    while i < order.len() {
        // Process all items sharing this score together. Tie detection
        // must be the sort's own equality: with `==`, a NaN score never
        // equals itself, the inner loop consumes nothing, and the outer
        // loop spins forever.
        let score = scores[order[i]];
        while i < order.len() && nan_high_cmp(scores[order[i]], score).is_eq() {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        curve.push(RocPoint {
            fpr: if negatives == 0 {
                0.0
            } else {
                fp as f64 / negatives as f64
            },
            tpr: if positives == 0 {
                0.0
            } else {
                tp as f64 / positives as f64
            },
            threshold: score,
        });
    }
    curve
}

/// Area under the ROC curve (trapezoidal).
pub fn auc(curve: &[RocPoint]) -> f64 {
    curve
        .windows(2)
        .map(|w| (w[1].fpr - w[0].fpr) * 0.5 * (w[0].tpr + w[1].tpr))
        .sum()
}

/// Highest TPR achievable at false positive rate `<= max_fpr`.
pub fn tpr_at_fpr(curve: &[RocPoint], max_fpr: f64) -> f64 {
    curve
        .iter()
        .filter(|p| p.fpr <= max_fpr + 1e-12)
        .map(|p| p.tpr)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking_has_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let curve = roc_curve(&scores, &labels);
        assert!((auc(&curve) - 1.0).abs() < 1e-12);
        assert!((tpr_at_fpr(&curve, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_ranking_has_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        let curve = roc_curve(&scores, &labels);
        assert!(auc(&curve) < 1e-12);
    }

    #[test]
    fn random_ranking_is_half() {
        // Alternating labels with strictly decreasing scores: staircase
        // around the diagonal.
        let scores: Vec<f64> = (0..100).map(|i| 1.0 - i as f64 / 100.0).collect();
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let curve = roc_curve(&scores, &labels);
        assert!((auc(&curve) - 0.5).abs() < 0.02);
    }

    #[test]
    fn tied_scores_move_diagonally() {
        let scores = [0.5, 0.5];
        let labels = [true, false];
        let curve = roc_curve(&scores, &labels);
        assert_eq!(curve.len(), 2);
        assert!((curve[1].fpr - 1.0).abs() < 1e-12);
        assert!((curve[1].tpr - 1.0).abs() < 1e-12);
        assert!((auc(&curve) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_scores_terminate_and_grade_finite() {
        // Regression: tie grouping used `==`, and `NaN != NaN` meant the
        // inner loop consumed nothing while the outer loop never
        // advanced — a NaN score hung roc_curve forever. The NaNs, of
        // either sign, group into one threshold step, ranked first.
        for (a, b) in [
            (f64::NAN, f64::NAN),
            (-f64::NAN, -f64::NAN),
            (f64::NAN, -f64::NAN),
        ] {
            let scores = [a, 0.8, b, 0.2];
            let labels = [false, true, false, false];
            let curve = roc_curve(&scores, &labels);
            // Origin + three threshold groups: {NaN, NaN}, {0.8}, {0.2}.
            assert_eq!(curve.len(), 4);
            assert!(curve[1].threshold.is_nan());
            assert!((curve[1].fpr - 2.0 / 3.0).abs() < 1e-12);
            assert_eq!(curve[1].tpr, 0.0);
            assert!(auc(&curve).is_finite());
            let last = curve.last().expect("curve is never empty");
            assert!((last.fpr - 1.0).abs() < 1e-12);
            assert!((last.tpr - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tpr_at_fpr_respects_budget() {
        let scores = [0.9, 0.7, 0.5, 0.3];
        let labels = [true, false, true, false];
        let curve = roc_curve(&scores, &labels);
        // At FPR 0: only the first item flagged -> TPR 0.5.
        assert!((tpr_at_fpr(&curve, 0.0) - 0.5).abs() < 1e-12);
        // Allowing FPR 0.5 reaches TPR 1.0.
        assert!((tpr_at_fpr(&curve, 0.5) - 1.0).abs() < 1e-12);
    }
}
