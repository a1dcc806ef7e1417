//! Fig. 7 — anomaly detection on synthetic data, qualitative series.
//!
//! Paper setup: |V| = 20k scale-free (γ = −2.3), 40 states; normal steps
//! P_nbr = 0.12 / P_ext = 0.01, anomalous steps 0.08 / 0.05 (sum
//! preserved). Expected shape: SND spikes on the planted anomalies; the
//! coordinate-wise measures stay flat.
//!
//! `cargo run -p snd-bench --release --bin fig7 [--paper | --nodes N --steps S]`

use snd_analysis::series::processed_series;
use snd_analysis::{anomaly_scores, top_k_anomalies};
use snd_baselines::{Hamming, QuadForm, StateDistance, WalkDist};
use snd_bench::harness::{banner, timed, Args};
use snd_core::{SndConfig, SndEngine};
use snd_data::{generate_series, SyntheticSeries, SyntheticSeriesConfig};
use snd_models::dynamics::VotingConfig;

fn main() {
    let args = Args::from_env(&["--nodes", "--steps", "--paper"]);
    let nodes = if args.flag("--paper") {
        20_000
    } else {
        args.get("--nodes", 5_000)
    };
    let steps = args.get("--steps", 40usize);
    banner(
        "Fig. 7",
        "distance series between adjacent synthetic states with mechanism anomalies",
        "|V|=20k, gamma=-2.3, 40 states, normal (.12,.01) vs anomalous (.08,.05)",
        &format!("|V|={nodes}, {steps} states"),
    );

    let config = SyntheticSeriesConfig {
        nodes,
        exponent: -2.3,
        initial_adopters: nodes / 50,
        steps,
        normal: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.08, 0.05).expect("valid voting parameters"),
        anomalous_steps: vec![steps / 5, (2 * steps) / 5, (3 * steps) / 5],
        chance_fraction: 1.0,
        burn_in: 0,
        seed: 7,
    };
    let series = generate_series(&config);

    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let (snd_raw, secs) = timed(|| engine.series_distances(&series.states));
    println!("(SND over {} transitions in {:.1}s)\n", snd_raw.len(), secs);

    let snd = processed_series(&snd_raw, &series.states);
    let ham = baseline(&Hamming, &series);
    let quad = baseline(&QuadForm::new(&series.graph), &series);
    let walk = baseline(&WalkDist::new(&series.graph), &series);

    println!(
        "{:>4} {:>8} {:>8} {:>8} {:>8}  planted",
        "t", "SND", "hamming", "quad", "walk"
    );
    for t in 0..series.labels.len() {
        println!(
            "{:>4} {:>8.3} {:>8.3} {:>8.3} {:>8.3}  {}",
            t,
            snd[t],
            ham[t],
            quad[t],
            walk[t],
            if series.labels[t] { "<== anomaly" } else { "" }
        );
    }

    let k = series.labels.iter().filter(|&&l| l).count();
    println!("\ntop-{k} transitions by anomaly score (S_t spikes):");
    for (name, processed) in [
        ("SND", &snd),
        ("hamming", &ham),
        ("quad-form", &quad),
        ("walk-dist", &walk),
    ] {
        let top = top_k_anomalies(&anomaly_scores(processed), k);
        let hits = top.iter().filter(|&&t| series.labels[t]).count();
        println!("  {name:<10} flags {top:?}  ({hits}/{k} planted anomalies found)");
    }
}

fn baseline<D: StateDistance>(dist: &D, series: &SyntheticSeries) -> Vec<f64> {
    processed_series(&dist.series(&series.states), &series.states)
}
