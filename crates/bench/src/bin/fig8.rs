//! Fig. 8 — ROC curves for anomaly detection over a long synthetic series.
//!
//! Paper setup: |V| = 30k (γ = −2.3), 300 network states; normal steps
//! (0.08, 0.001), anomalous (0.07, 0.011). Reported result: SND reaches TPR
//! 0.83 within FPR ≤ 0.3 while the next best measure reaches only 0.4.
//!
//! The monotone voting process saturates a network long before 300 steps,
//! so this harness accumulates the 300 transitions from several independent
//! series (each kept in the pre-saturation regime) rather than one long
//! one; every series contributes its transitions to a single pooled ROC.
//!
//! `cargo run -p snd-bench --release --bin fig8 [--paper | --nodes N --steps S --series K]`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_analysis::series::processed_series;
use snd_analysis::{anomaly_scores, auc, roc_curve, tpr_at_fpr};
use snd_baselines::{Hamming, QuadForm, StateDistance, WalkDist};
use snd_bench::harness::{banner, timed, Args};
use snd_core::{SndConfig, SndEngine};
use snd_data::{generate_series, SyntheticSeries, SyntheticSeriesConfig};
use snd_models::dynamics::VotingConfig;

fn main() {
    let args = Args::from_env(&["--nodes", "--steps", "--series", "--paper"]);
    let (nodes, steps, n_series): (usize, usize, usize) = if args.flag("--paper") {
        (30_000, 30, 10)
    } else {
        (
            args.get("--nodes", 5_000),
            args.get("--steps", 30),
            args.get("--series", 5),
        )
    };
    banner(
        "Fig. 8",
        "pooled ROC: which measure ranks the anomalous transitions highest",
        "|V|=30k, gamma=-2.3, 300 states, normal (.08,.001) vs anomalous (.07,.011)",
        &format!(
            "|V|={nodes}, {n_series} series x {steps} states = {} transitions",
            n_series * steps
        ),
    );

    let mut all_labels: Vec<bool> = Vec::new();
    let mut all_scores: Vec<Vec<f64>> = vec![Vec::new(); 4]; // SND, ham, quad, walk
    let names = ["SND", "hamming", "quad-form", "walk-dist"];

    let (_, secs) = timed(|| {
        for series_idx in 0..n_series {
            let mut rng = SmallRng::seed_from_u64(88 + series_idx as u64);
            let mut anomalous_steps: Vec<usize> = Vec::new();
            for t in 2..steps.saturating_sub(2) {
                if rng.gen_bool(0.15) {
                    anomalous_steps.push(t);
                }
            }
            let config = SyntheticSeriesConfig {
                nodes,
                exponent: -2.3,
                initial_adopters: nodes / 50,
                steps,
                normal: VotingConfig::new(0.08, 0.001).expect("valid voting parameters"),
                anomalous: VotingConfig::new(0.07, 0.011).expect("valid voting parameters"),
                anomalous_steps,
                chance_fraction: 1.0,
                burn_in: 0,
                seed: 1000 + series_idx as u64,
            };
            let series = generate_series(&config);
            let engine = SndEngine::new(&series.graph, SndConfig::default());
            let snd_raw = engine.series_distances(&series.states);
            let processed: [Vec<f64>; 4] = [
                processed_series(&snd_raw, &series.states),
                baseline(&Hamming, &series),
                baseline(&QuadForm::new(&series.graph), &series),
                baseline(&WalkDist::new(&series.graph), &series),
            ];
            for (k, p) in processed.iter().enumerate() {
                all_scores[k].extend(anomaly_scores(p));
            }
            all_labels.extend_from_slice(&series.labels);
        }
    });
    let positives = all_labels.iter().filter(|&&l| l).count();
    println!(
        "{} pooled transitions, {} anomalous ({secs:.1}s)\n",
        all_labels.len(),
        positives
    );

    println!(
        "{:<10} {:>8} {:>14} {:>14}",
        "measure", "AUC", "TPR@FPR<=0.1", "TPR@FPR<=0.3"
    );
    let mut curves = Vec::new();
    for (name, scores) in names.iter().zip(&all_scores) {
        let curve = roc_curve(scores, &all_labels);
        println!(
            "{:<10} {:>8.3} {:>14.3} {:>14.3}",
            name,
            auc(&curve),
            tpr_at_fpr(&curve, 0.1),
            tpr_at_fpr(&curve, 0.3)
        );
        curves.push((name.to_string(), curve));
    }

    println!("\nROC points (fpr, tpr) per measure:");
    for (name, curve) in &curves {
        let pts: Vec<String> = curve
            .iter()
            .step_by((curve.len() / 12).max(1))
            .map(|p| format!("({:.2},{:.2})", p.fpr, p.tpr))
            .collect();
        println!("  {name:<10} {}", pts.join(" "));
    }
}

fn baseline<D: StateDistance>(dist: &D, series: &SyntheticSeries) -> Vec<f64> {
    processed_series(&dist.series(&series.states), &series.states)
}
