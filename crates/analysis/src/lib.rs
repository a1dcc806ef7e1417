//! Applications of SND: anomaly detection and user opinion prediction
//! (paper §6.2–§6.4).
//!
//! * [`series`] — distance-series post-processing (activity normalization,
//!   unit scaling) shared by all measures;
//! * [`anomaly`] — the anomaly score `S_t = (d_t − d_{t−1}) + (d_t −
//!   d_{t+1})` and spike detection;
//! * [`roc`] — ROC curves / AUC / TPR-at-FPR for ranking-based detection;
//! * [`predict`] — the distance-based opinion predictor (series
//!   extrapolation + randomized assignment search over flip-list
//!   candidates) and the experiment harness shared with the non-distance
//!   baselines;
//! * [`intervene`] — greedy/beam intervention search (edge edits,
//!   stubborn-agent placement) scored by expected delta-SND drift over
//!   simulated rollouts;
//! * [`error`] — structured [`AnalysisError`]s the CLI surfaces instead
//!   of panics;
//! * [`cluster`] — the §9 future-work applications: k-medoids clustering,
//!   1-NN classification and nearest-neighbor search of network states in
//!   the metric space SND induces;
//! * [`resume`] — checkpoint-backed pairwise/series entry points over the
//!   tile-based shard subsystem (`snd_core::shard`): interrupted runs
//!   resume from completed tiles;
//! * [`snd_distance`] — adapters implementing the common
//!   [`StateDistance`](snd_baselines::StateDistance) trait for the SND
//!   engine.

pub mod anomaly;
pub mod cluster;
pub mod error;
pub mod intervene;
pub mod predict;
pub mod resume;
pub mod roc;
pub mod series;
pub mod snd_distance;

pub use anomaly::{
    anomaly_scores, anomaly_scores_from_matrix, evaluate_detection, top_k_anomalies,
    DetectionReport,
};
pub use cluster::{classify_1nn, k_medoids, nearest_neighbor, MedoidClustering};
pub use error::AnalysisError;
pub use intervene::{
    search_interventions, Intervention, InterventionConfig, InterventionPlan, PlannedAction,
};
pub use predict::{
    accuracy, distance_based_prediction, distance_based_prediction_batch, extrapolate_linear,
    select_targets, SummaryStats,
};
pub use resume::{pairwise_distances_checkpointed, series_distances_checkpointed};
pub use roc::{auc, roc_curve, tpr_at_fpr, RocPoint};
pub use series::{normalize_by_activity, normalize_by_change, processed_adjacent, scale_to_unit};
pub use snd_distance::SndDistance;

/// Total order over scores and distances in which a NaN of either sign
/// sits above every other value, `+∞` included. Bare `f64::total_cmp`
/// orders a NaN by its sign bit, and the NaNs x86-64 computes at run time
/// (`0.0 / 0.0`, `∞ − ∞`) carry it, so they would sort below `−∞`.
pub(crate) fn nan_high_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    let canon = |x: f64| if x.is_nan() { f64::NAN } else { x };
    canon(a).total_cmp(&canon(b))
}
