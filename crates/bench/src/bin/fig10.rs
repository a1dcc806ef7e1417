//! Fig. 10 — sensitivity to the opinion dynamics model: SND (under the ICC
//! ground distance) vs ℓ1 on normal (ICC) and anomalous (random)
//! transitions, as a function of n∆.
//!
//! Expected shape: SND separates the two transition kinds at every n∆
//! (anomalous transitions sit strictly above normal ones); ℓ1 is a
//! function of n∆ alone and cannot separate them.
//!
//! `cargo run -p snd-bench --release --bin fig10 [--nodes N --pairs K]`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_baselines::{StateDistance, L1};
use snd_bench::harness::{banner, Args};
use snd_core::{SndConfig, SndEngine};
use snd_graph::generators::barabasi_albert;
use snd_models::dynamics::{icc_step, random_activation_step, seed_initial_adopters};
use snd_models::{GroundCostConfig, IccParams, SpreadingModel};

fn main() {
    let args = Args::from_env(&["--nodes", "--pairs"]);
    let nodes = args.get("--nodes", 3_000usize);
    let pairs = args.get("--pairs", 10usize);
    banner(
        "Fig. 10",
        "SND and l1 on normal (ICC) vs anomalous (random) transitions",
        "scale-free network, transition pairs with n_delta in [60, 180]",
        &format!("|V|={nodes} (Barabasi-Albert), {pairs} pairs per kind"),
    );

    let mut rng = SmallRng::seed_from_u64(1010);
    let graph = barabasi_albert(nodes, 4, &mut rng);
    let params = IccParams::default();
    let config = SndConfig::with_ground(GroundCostConfig::with_model(SpreadingModel::Icc(
        params.clone(),
    )));
    let engine = SndEngine::new(&graph, config);

    println!("{:>8} {:>12} {:>8}   kind", "n_delta", "SND", "l1");
    let mut normal_points = Vec::new();
    let mut anomalous_points = Vec::new();
    for trial in 0..pairs {
        let seeds = nodes / 30 + trial * (nodes / 120).max(1);
        let start =
            seed_initial_adopters(nodes, seeds, &mut rng).expect("seed count within population");
        let normal = icc_step(&graph, &start, &params, &mut rng);
        let nd = start.diff_count(&normal);
        let snd_n = engine.distance(&start, &normal);
        let l1_n = L1.distance(&start, &normal);
        println!("{nd:>8} {snd_n:>12.1} {l1_n:>8.0}   ICC (normal)");
        normal_points.push((nd, snd_n, l1_n));

        // Same activation volume, structure-oblivious placement.
        let anomalous = random_activation_step(&graph, &start, nd, &mut rng);
        let nd_a = start.diff_count(&anomalous);
        let snd_a = engine.distance(&start, &anomalous);
        let l1_a = L1.distance(&start, &anomalous);
        println!("{nd_a:>8} {snd_a:>12.1} {l1_a:>8.0}   random (anomalous)");
        anomalous_points.push((nd_a, snd_a, l1_a));
    }

    // Separation check: does a single SND threshold split the kinds?
    let max_normal = normal_points.iter().map(|p| p.1).fold(0.0, f64::max);
    let min_anom = anomalous_points
        .iter()
        .map(|p| p.1)
        .fold(f64::INFINITY, f64::min);
    println!("\nSND: max normal = {max_normal:.1}, min anomalous = {min_anom:.1}");
    println!(
        "SND separates the transition kinds: {}",
        if min_anom > max_normal { "YES" } else { "NO" }
    );
    let mean = |pts: &[(usize, f64, f64)], f: fn(&(usize, f64, f64)) -> f64| {
        pts.iter().map(f).sum::<f64>() / pts.len() as f64
    };
    println!(
        "l1 per changed user: normal {:.2}, anomalous {:.2} (same by construction)",
        mean(&normal_points, |p| p.2 / p.0 as f64),
        mean(&anomalous_points, |p| p.2 / p.0 as f64),
    );
}
