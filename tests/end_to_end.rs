//! End-to-end integration tests: the full pipelines of §6 at test scale.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd::analysis::series::processed_series;
use snd::analysis::{
    accuracy, anomaly_scores, auc, distance_based_prediction, extrapolate_linear, roc_curve,
    select_targets, top_k_anomalies,
};
use snd::baselines::{Hamming, StateDistance};
use snd::core::sparse::emd_star_term;
use snd::core::{CandidateEvaluator, SndConfig, SndEngine};
use snd::data::{generate_series, simulate_twitter, SyntheticSeriesConfig, TwitterSimConfig};
use snd::graph::NodeId;
use snd::models::dynamics::VotingConfig;
use snd::models::{flips_between, NetworkState, Opinion};

fn anomaly_series() -> snd::data::SyntheticSeries {
    generate_series(&SyntheticSeriesConfig {
        nodes: 1200,
        exponent: -2.3,
        initial_adopters: 30,
        steps: 16,
        normal: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.08, 0.05).expect("valid voting parameters"),
        anomalous_steps: vec![6, 11],
        chance_fraction: 1.0,
        burn_in: 0,
        seed: 3,
    })
}

#[test]
fn anomaly_detection_pipeline_ranks_planted_anomalies_highly() {
    let series = anomaly_series();
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let processed = processed_series(&engine.series_distances(&series.states), &series.states);
    let scores = anomaly_scores(&processed);
    let curve = roc_curve(&scores, &series.labels);
    let snd_auc = auc(&curve);
    assert!(
        snd_auc > 0.6,
        "SND should rank planted anomalies above chance: AUC {snd_auc}"
    );

    // Hamming is blind to mechanism anomalies under per-change
    // normalization (its processed series is constant).
    let ham_raw: Vec<f64> = series
        .states
        .windows(2)
        .map(|w| Hamming.distance(&w[0], &w[1]))
        .collect();
    let ham = processed_series(&ham_raw, &series.states);
    let spread = ham
        .iter()
        .fold(0.0f64, |acc, &x| acc.max((x - ham[0]).abs()));
    assert!(spread < 1e-9, "hamming per-change series must be flat");
}

#[test]
fn twitter_pipeline_flags_polarized_quarters() {
    let sim = simulate_twitter(&TwitterSimConfig {
        users: 900,
        avg_degree: 24,
        quarters: 9,
        ..Default::default()
    });
    let engine = SndEngine::new(&sim.graph, SndConfig::default());
    let processed = processed_series(&engine.series_distances(&sim.states), &sim.states);
    let scores = anomaly_scores(&processed);
    let k = sim.labels.iter().filter(|&&l| l).count();
    assert!(
        k >= 1,
        "default timeline has polarized events in 9 quarters"
    );
    let top = top_k_anomalies(&scores, k + 1);
    let hits = top.iter().filter(|&&t| sim.labels[t]).count();
    assert!(
        hits >= 1,
        "SND should flag at least one polarized quarter: top {top:?}, labels {:?}",
        sim.labels
    );
}

#[test]
fn prediction_pipeline_beats_coin_flipping() {
    // Same regime as the Table 1 harness: moderate per-step activation with
    // a short burn-in, so the last states have a settled active population
    // and the extrapolated d* is meaningful.
    let series = generate_series(&SyntheticSeriesConfig {
        nodes: 900,
        exponent: -2.5,
        initial_adopters: 75,
        steps: 5,
        normal: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous_steps: vec![],
        chance_fraction: 0.10,
        burn_in: 4,
        seed: 17,
    });
    let states = &series.states;
    let t = states.len() - 1;
    let truth = states[t].clone();
    let mut rng = SmallRng::seed_from_u64(99);

    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let ordered = |from: &NetworkState, to: &NetworkState| {
        CandidateEvaluator::new(&engine, from.clone()).price(&flips_between(from, to))
    };
    let d1 = ordered(&states[t - 3], &states[t - 2]);
    let d2 = ordered(&states[t - 2], &states[t - 1]);
    let d_star = extrapolate_linear(&[d1, d2]).expect("two-point series");
    let anchored = CandidateEvaluator::new(&engine, states[t - 1].clone());

    // Average accuracy over a few repetitions to avoid single-draw flukes.
    let mut total = 0.0;
    let reps = 4;
    for _ in 0..reps {
        let targets = select_targets(&truth, 16, &mut rng);
        let mut known = truth.clone();
        for &u in &targets {
            known.set(u, Opinion::Neutral);
        }
        // Delta-priced search: anchor→known base flips + the drawn
        // assignment, last-wins normalized.
        let base = flips_between(anchored.anchor(), &known);
        let predicted = distance_based_prediction(
            |flips: &[(NodeId, Opinion)]| {
                let full: Vec<(NodeId, Opinion)> =
                    base.iter().copied().chain(flips.iter().copied()).collect();
                anchored.price(&full)
            },
            d_star,
            &targets,
            60,
            &mut rng,
        )
        .expect("candidates > 0");
        total += accuracy(&predicted, &truth, &targets).expect("one prediction per target");
    }
    let mean = total / reps as f64;
    assert!(
        mean > 0.55,
        "SND prediction should beat the 50% coin flip: {mean}"
    );
}

/// Ordered SND by the sequential scan: `from`'s geometry per opinion and
/// the `O(n)` classification of `emd_star_term`, both opinions summed.
fn scan_price(engine: &SndEngine, from: &NetworkState, to: &NetworkState) -> f64 {
    let term = |op| {
        let geom = engine.geometry_seq(from, op);
        let (g, clustering, config) = (engine.graph(), engine.clustering(), engine.config());
        emd_star_term(g, clustering, &geom, from, to, op, config, None)
    };
    term(Opinion::Positive) + term(Opinion::Negative)
}

#[test]
fn ordered_snd_scales_with_divergence() {
    // The farther a candidate state drifts from the anchor, the larger the
    // ordered distance — monotonicity the prediction search relies on.
    let series = anomaly_series();
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let from = &series.states[4];
    let d_near = scan_price(&engine, from, &series.states[5]);
    let d_far = scan_price(&engine, from, &series.states[10]);
    assert!(
        d_far > d_near,
        "10-step drift ({d_far}) should exceed 1-step drift ({d_near})"
    );
}

#[test]
fn snd_is_stable_across_solvers_at_pipeline_scale() {
    let series = anomaly_series();
    let a = &series.states[3];
    let b = &series.states[4];
    use snd::transport::Solver;
    let mut values = Vec::new();
    for solver in [Solver::Simplex, Solver::CostScaling] {
        let config = SndConfig {
            solver,
            ..Default::default()
        };
        let engine = SndEngine::new(&series.graph, config);
        values.push(engine.distance(a, b));
    }
    assert!(
        (values[0] - values[1]).abs() < 1e-6,
        "solver disagreement at scale: {values:?}"
    );
}
