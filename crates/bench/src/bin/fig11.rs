//! Fig. 11 — scalability in the number of users `n` at fixed n∆.
//!
//! Paper setup: n from 1k to 200k, n∆ = 1000; the Theorem 4 method scales
//! near-linearly while the direct LP computation (CPLEX there, our dense
//! reference path here) blows up and is only feasible to a few thousand
//! users. Expected shape: dense ≫ sparse, with the gap widening in n.
//!
//! `cargo run -p snd-bench --release --bin fig11 [--paper] [--ndelta K]`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::harness::{banner, timed, Args};
use snd_core::{SndConfig, SndEngine};
use snd_graph::generators::scale_free_configuration;
use snd_models::dynamics::seed_initial_adopters;
use snd_models::{NetworkState, Opinion};

fn main() {
    let args = Args::from_env(&["--ndelta", "--dense-cap", "--paper"]);
    let ndelta = args.get("--ndelta", 1000usize);
    let sizes: Vec<usize> = if args.flag("--paper") {
        vec![
            1_000, 2_000, 3_000, 4_000, 5_000, 10_000, 30_000, 50_000, 70_000, 90_000, 200_000,
        ]
    } else {
        vec![1_000, 2_000, 3_000, 5_000, 10_000, 20_000, 50_000]
    };
    // The dense path is O(n^2) memory; cap it like the paper capped CPLEX.
    let dense_cap = args.get("--dense-cap", 3_000usize);
    banner(
        "Fig. 11",
        "time to compute SND vs number of users (fixed n_delta)",
        "n in 1k..200k, n_delta=1000; our method vs CPLEX direct solve",
        &format!(
            "n in {:?}, n_delta={ndelta}; sparse (Theorem 4) vs dense reference (<= {dense_cap})",
            sizes
        ),
    );

    println!(
        "{:>8} {:>10} {:>14} {:>14}",
        "n", "edges", "sparse (s)", "dense (s)"
    );
    for &n in &sizes {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let graph = scale_free_configuration(n, -2.3, 2, (n / 50).clamp(8, 1000), &mut rng);
        let (a, b) = states_with_ndelta(n, ndelta.min(n / 2), &mut rng);
        let engine = SndEngine::new(&graph, SndConfig::default());
        let (_, sparse_secs) = timed(|| engine.distance(&a, &b));
        let dense_secs = if n <= dense_cap {
            let (_, secs) = timed(|| engine.distance_dense(&a, &b));
            format!("{secs:>14.2}")
        } else {
            format!("{:>14}", "-")
        };
        println!(
            "{n:>8} {:>10} {sparse_secs:>14.2} {dense_secs}",
            graph.edge_count()
        );
    }
}

/// Builds a state pair differing in exactly `ndelta` users.
fn states_with_ndelta(n: usize, ndelta: usize, rng: &mut SmallRng) -> (NetworkState, NetworkState) {
    let a = seed_initial_adopters(n, 2 * ndelta, rng).expect("seed count within population");
    let mut b = a.clone();
    let mut changed = 0usize;
    while changed < ndelta {
        let u = rng.gen_range(0..n as u32);
        let old = b.opinion(u);
        // Cycle each touched user to a different opinion so every touch
        // counts exactly once.
        if b.opinion(u) == a.opinion(u) {
            let new = match old {
                Opinion::Neutral => {
                    if rng.gen_bool(0.5) {
                        Opinion::Positive
                    } else {
                        Opinion::Negative
                    }
                }
                other => other.opposite(),
            };
            b.set(u, new);
            changed += 1;
        }
    }
    (a, b)
}
