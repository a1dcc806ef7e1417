//! Fig. 9 — anomaly detection on the (simulated) Twitter dataset, topic
//! "Obama".
//!
//! Paper setup: 10k users, ≈130 follower edges each, quarterly states
//! May'08–Aug'11; ground truth from Google Trends + a political-events log.
//! Expected shape: all measures spike together on consensus events
//! (election, bin-Laden); SND alone spikes on polarized events (stimulus
//! bill, "Obama-Care"). This run uses the simulated dataset documented in
//! DESIGN.md.
//!
//! `cargo run -p snd-bench --release --bin fig9 [--paper | --users N]`

use snd_analysis::series::processed_series;
use snd_analysis::{anomaly_scores, top_k_anomalies};
use snd_baselines::{Hamming, QuadForm, StateDistance, WalkDist};
use snd_bench::harness::{banner, timed, Args};
use snd_core::{SndConfig, SndEngine};
use snd_data::{simulate_twitter, EventKind, TwitterSim, TwitterSimConfig};

fn main() {
    let args = Args::from_env(&["--users", "--avg-degree", "--paper"]);
    let (users, avg_degree) = if args.flag("--paper") {
        (10_000, 130)
    } else {
        (args.get("--users", 4_000), args.get("--avg-degree", 50))
    };
    banner(
        "Fig. 9",
        "quarterly anomaly timeline on (simulated) Twitter, topic 'Obama'",
        "10k users, ~130 edges/user, 13 quarters May'08-Aug'11",
        &format!("{users} users, ~{avg_degree} edges/user, 13 quarters (simulated)"),
    );

    let config = TwitterSimConfig {
        users,
        avg_degree,
        ..Default::default()
    };
    let sim = simulate_twitter(&config);

    let engine = SndEngine::new(&sim.graph, SndConfig::default());
    let (snd_raw, secs) = timed(|| engine.series_distances(&sim.states));
    println!("(SND over {} transitions in {:.1}s)\n", snd_raw.len(), secs);

    let snd = processed_series(&snd_raw, &sim.states);
    let ham = baseline(&Hamming, &sim);
    let quad = baseline(&QuadForm::new(&sim.graph), &sim);
    let walk = baseline(&WalkDist::new(&sim.graph), &sim);

    println!(
        "{:>3} {:>7} {:>7} {:>7} {:>7}  event",
        "t", "SND", "hamming", "quad", "walk"
    );
    for t in 0..sim.labels.len() {
        let annotation = sim
            .events
            .iter()
            .find(|e| e.quarter == t + 1)
            .map(|e| match e.kind {
                EventKind::Consensus { .. } => format!("{} (consensus)", e.name),
                EventKind::Polarized { .. } => format!("{} (POLARIZED)", e.name),
            })
            .unwrap_or_default();
        println!(
            "{:>3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}  {annotation}",
            t, snd[t], ham[t], quad[t], walk[t]
        );
    }

    // Agreement analysis: consensus events should be flagged by every
    // measure; polarized events by SND alone.
    let k = sim.labels.iter().filter(|&&l| l).count();
    println!("\npolarized-event recovery (top-{k} anomaly scores):");
    for (name, processed) in [
        ("SND", &snd),
        ("hamming", &ham),
        ("quad-form", &quad),
        ("walk-dist", &walk),
    ] {
        let top = top_k_anomalies(&anomaly_scores(processed), k);
        let hits = top.iter().filter(|&&t| sim.labels[t]).count();
        println!("  {name:<10} flags {top:?}  ({hits}/{k} polarized events)");
    }
}

fn baseline<D: StateDistance>(dist: &D, sim: &TwitterSim) -> Vec<f64> {
    processed_series(&dist.series(&sim.states), &sim.states)
}
