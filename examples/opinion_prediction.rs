//! Opinion prediction (the §6.3 workflow at example scale): hide the
//! opinions of a few active users in the current snapshot and recover them
//! by matching the extrapolated SND trend.
//!
//! Run with `cargo run --release --example opinion_prediction`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd::analysis::{
    accuracy, distance_based_prediction_batch, extrapolate_linear, select_targets,
};
use snd::baselines::predict::{community_lp, detect_communities, nhood_voting};
use snd::core::{CandidateEvaluator, SndConfig, SndEngine};
use snd::data::{generate_series, SyntheticSeriesConfig};
use snd::graph::NodeId;
use snd::models::dynamics::VotingConfig;
use snd::models::{flips_between, NetworkState, Opinion};

fn main() {
    let mut rng = SmallRng::seed_from_u64(23);
    let config = SyntheticSeriesConfig {
        nodes: 1500,
        exponent: -2.5,
        initial_adopters: 120,
        steps: 5,
        normal: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous_steps: vec![],
        chance_fraction: 0.12,
        burn_in: 4,
        seed: 5,
    };
    let series = generate_series(&config);
    let states = &series.states;
    let truth = states.last().unwrap().clone();

    // Hide 20 target opinions in the current state.
    let targets = select_targets(&truth, 20, &mut rng);
    let mut known = truth.clone();
    for &t in &targets {
        known.set(t, Opinion::Neutral);
    }

    let engine = SndEngine::new(&series.graph, SndConfig::default());

    // Extrapolate the recent SND trend (3 most recent complete states) on
    // the scale the search ranks candidates by: ordered SND, the two
    // forward terms that `CandidateEvaluator::price` returns.
    let t = states.len() - 1;
    let ordered = |from: &NetworkState, to: &NetworkState| {
        CandidateEvaluator::new(&engine, from.clone()).price(&flips_between(from, to))
    };
    let d1 = ordered(&states[t - 3], &states[t - 2]);
    let d2 = ordered(&states[t - 2], &states[t - 1]);
    let d_star = extrapolate_linear(&[d1, d2]).expect("two-point series");
    println!("recent ordered SND distances: {d1:.2}, {d2:.2}  ->  d* = {d_star:.2}");

    // Randomized assignment search: every candidate is a flip-list priced
    // in parallel against the anchor's delta geometry — no candidate state
    // is ever materialized.
    let evaluator = CandidateEvaluator::new(&engine, states[t - 1].clone());
    let base = flips_between(&states[t - 1], &known);
    let predicted = distance_based_prediction_batch(
        |cands| {
            let full: Vec<Vec<(NodeId, Opinion)>> = cands
                .iter()
                .map(|c| base.iter().copied().chain(c.iter().copied()).collect())
                .collect();
            evaluator.price_candidates(&full)
        },
        d_star,
        &targets,
        100,
        &mut rng,
    )
    .expect("candidates > 0");
    let snd_acc = accuracy(&predicted, &truth, &targets).expect("one prediction per target");
    println!(
        "SND-based prediction accuracy:      {:.1}%",
        100.0 * snd_acc
    );
    println!("(cached SSSP rows: {})", evaluator.cached_rows());

    // Baselines.
    let nv = nhood_voting(&series.graph, &known, &targets, &mut rng);
    println!(
        "nhood-voting accuracy:              {:.1}%",
        100.0 * accuracy(&nv, &truth, &targets).expect("one prediction per target")
    );
    let communities = detect_communities(&series.graph, &mut rng);
    let lp = community_lp(&communities, &known, &targets, &mut rng);
    println!(
        "community-lp accuracy:              {:.1}%",
        100.0 * accuracy(&lp, &truth, &targets).expect("one prediction per target")
    );
}
