//! Table 1 — user opinion prediction accuracy (mean ± std over
//! repetitions) for six methods on synthetic and (simulated) Twitter data.
//!
//! Paper setup: synthetic n = 10k (γ = −2.5), 800 initial adopters, 3 most
//! recent states for extrapolation, 20 hidden targets, 100 random
//! assignments, 10 repetitions. Reported accuracies: SND 74.33/75.63,
//! hamming 68.44/68.13, quad-form 66.67/67.50, walk-dist 56.22/31.88,
//! nhood-voting 62.11/61.25, community-lp 65.25/56.87.
//!
//! `cargo run -p snd-bench --release --bin table1 [--paper | --nodes N --reps R]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_analysis::{
    accuracy, distance_based_prediction, distance_based_prediction_batch, extrapolate_linear,
    select_targets, SummaryStats,
};
use snd_baselines::predict::{community_lp, detect_communities, nhood_voting};
use snd_baselines::{Hamming, QuadForm, StateDistance, WalkDist};
use snd_bench::harness::{banner, Args};
use snd_core::{CandidateEvaluator, SndConfig, SndEngine};
use snd_data::{generate_series, simulate_twitter, SyntheticSeriesConfig, TwitterSimConfig};
use snd_graph::{CsrGraph, NodeId};
use snd_models::dynamics::VotingConfig;
use snd_models::{flips_between, NetworkState, Opinion};

const TARGETS: usize = 20;
const CANDIDATES: usize = 100;

fn main() {
    let args = Args::from_env();
    let nodes = if args.flag("--paper") {
        10_000
    } else {
        args.get("--nodes", 3_000)
    };
    let reps = args.get("--reps", 10usize);
    banner(
        "Table 1",
        "user opinion prediction accuracy, mean/std over repetitions",
        "n=10k synthetic + Twitter; 20 targets, 100 candidates, 10 reps",
        &format!("n={nodes}, {TARGETS} targets, {CANDIDATES} candidates, {reps} reps"),
    );

    // --- Synthetic dataset (γ = −2.5 per §6.3) ---
    let synth = generate_series(&SyntheticSeriesConfig {
        nodes,
        exponent: -2.5,
        initial_adopters: (nodes / 12).max(50),
        steps: 5,
        normal: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.10, 0.02).expect("valid voting parameters"),
        anomalous_steps: vec![],
        chance_fraction: 0.10,
        burn_in: 4,
        seed: 63,
    });
    println!("\n--- synthetic data (n={nodes}) ---");
    let synth_rows = run_dataset(&synth.graph, &synth.states, reps, 1063);

    // --- Simulated Twitter dataset ---
    let twitter = simulate_twitter(&TwitterSimConfig {
        users: nodes,
        avg_degree: if args.flag("--paper") { 130 } else { 50 },
        ..Default::default()
    });
    println!("\n--- (simulated) Twitter data (n={nodes}) ---");
    let twitter_rows = run_dataset(&twitter.graph, &twitter.states, reps, 2063);

    println!("\nTable 1: User Opinion Prediction Accuracy, %");
    println!(
        "{:<15} {:>9} {:>7}   {:>9} {:>7}",
        "Method", "synth mu", "sigma", "twit mu", "sigma"
    );
    for (name, s) in synth_rows.iter() {
        let t = twitter_rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap();
        println!(
            "{:<15} {:>9.2} {:>7.2}   {:>9.2} {:>7.2}",
            name,
            100.0 * s.mean,
            100.0 * s.std,
            100.0 * t.mean,
            100.0 * t.std
        );
    }
}

fn run_dataset(
    graph: &CsrGraph,
    states: &[NetworkState],
    reps: usize,
    seed: u64,
) -> Vec<(String, SummaryStats)> {
    let t = states.len() - 1;
    assert!(t >= 3, "need at least 4 states");
    let truth = &states[t];
    let engine = SndEngine::new(graph, SndConfig::default());

    // Ordered-SND history distances (3 most recent complete states).
    let ordered = |from: &NetworkState, to: &NetworkState| {
        CandidateEvaluator::new(&engine, from.clone()).price(&flips_between(from, to))
    };
    let snd_d1 = ordered(&states[t - 3], &states[t - 2]);
    let snd_d2 = ordered(&states[t - 2], &states[t - 1]);
    let snd_dstar = extrapolate_linear(&[snd_d1, snd_d2]).expect("two-point series");
    let anchored = CandidateEvaluator::new(&engine, states[t - 1].clone());

    // Baseline distance measures extrapolate their own series.
    let ham = Hamming;
    let quad = QuadForm::new(graph);
    let walk = WalkDist::new(graph);
    let dstar_of = |d: &dyn StateDistance| {
        extrapolate_linear(&[
            d.distance(&states[t - 3], &states[t - 2]),
            d.distance(&states[t - 2], &states[t - 1]),
        ])
        .expect("two-point series")
    };
    let (ham_dstar, quad_dstar, walk_dstar) = (dstar_of(&ham), dstar_of(&quad), dstar_of(&walk));

    let mut rng = SmallRng::seed_from_u64(seed);
    let communities = detect_communities(graph, &mut rng);

    let mut acc: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for _ in 0..reps {
        let targets = select_targets(truth, TARGETS, &mut rng);
        let mut known = truth.clone();
        for &u in &targets {
            known.set(u, Opinion::Neutral);
        }

        // Batch search: the whole candidate set is priced as flip-lists in
        // parallel against the anchored delta geometry; same result as the
        // sequential search under the same RNG stream.
        let base = flips_between(anchored.anchor(), &known);
        let snd_pred = distance_based_prediction_batch(
            |cands| {
                let full: Vec<Vec<(NodeId, Opinion)>> = cands
                    .iter()
                    .map(|c| base.iter().copied().chain(c.iter().copied()).collect())
                    .collect();
                anchored.price_candidates(&full)
            },
            snd_dstar,
            &targets,
            CANDIDATES,
            &mut rng,
        )
        .expect("candidates > 0");
        acc.entry("SND")
            .or_default()
            .push(accuracy(&snd_pred, truth, &targets).expect("one prediction per target"));

        let mut run_baseline = |name: &'static str, d: &dyn StateDistance, dstar: f64| {
            // Baseline measures need a full state: flips land in one
            // reused buffer (every candidate assigns every target, so no
            // reset between candidates is needed).
            let mut buf = known.clone();
            let pred = distance_based_prediction(
                |flips: &[(NodeId, Opinion)]| {
                    for &(u, op) in flips {
                        buf.set(u, op);
                    }
                    d.distance(&states[t - 1], &buf)
                },
                dstar,
                &targets,
                CANDIDATES,
                &mut rng,
            )
            .expect("candidates > 0");
            acc.entry(name)
                .or_default()
                .push(accuracy(&pred, truth, &targets).expect("one prediction per target"));
        };
        run_baseline("hamming", &ham, ham_dstar);
        run_baseline("quad-form", &quad, quad_dstar);
        run_baseline("walk-dist", &walk, walk_dstar);

        let nv = nhood_voting(graph, &known, &targets, &mut rng);
        acc.entry("nhood-voting")
            .or_default()
            .push(accuracy(&nv, truth, &targets).expect("one prediction per target"));
        let lp = community_lp(&communities, &known, &targets, &mut rng);
        acc.entry("community-lp")
            .or_default()
            .push(accuracy(&lp, truth, &targets).expect("one prediction per target"));
    }

    let order = [
        "SND",
        "hamming",
        "quad-form",
        "walk-dist",
        "nhood-voting",
        "community-lp",
    ];
    let mut rows = Vec::new();
    for name in order {
        let stats = SummaryStats::from_samples(&acc[name]).expect("reps >= 1");
        println!(
            "  {:<15} mu {:>6.2}%  sigma {:>5.2}",
            name,
            100.0 * stats.mean,
            100.0 * stats.std
        );
        rows.push((name.to_string(), stats));
    }
    rows
}
