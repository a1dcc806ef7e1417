//! Fig. 12 — scalability in the number of changed users n∆ at fixed n.
//!
//! Paper setup: n = 20k fixed, n∆ up to 10k; time grows superlinearly in
//! n∆ (the reduced transportation problem dominates once n∆ is large).
//!
//! `cargo run -p snd-bench --release --bin fig12 [--paper | --nodes N --max-ndelta K]`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::harness::{banner, timed, Args};
use snd_core::{SndConfig, SndEngine};
use snd_graph::generators::scale_free_configuration;
use snd_models::dynamics::seed_initial_adopters;
use snd_models::{NetworkState, Opinion};

fn main() {
    let args = Args::from_env(&["--nodes", "--max-ndelta", "--paper"]);
    let nodes = if args.flag("--paper") {
        20_000
    } else {
        args.get("--nodes", 10_000)
    };
    let max_ndelta = if args.flag("--paper") {
        10_000
    } else {
        args.get("--max-ndelta", 4_000)
    };
    banner(
        "Fig. 12",
        "time to compute SND vs number of changed users (fixed n)",
        "n=20k fixed, n_delta up to 10k",
        &format!("n={nodes}, n_delta up to {max_ndelta}"),
    );

    let mut rng = SmallRng::seed_from_u64(12);
    let graph = scale_free_configuration(nodes, -2.3, 2, (nodes / 50).clamp(8, 1000), &mut rng);
    let engine = SndEngine::new(&graph, SndConfig::default());

    let mut ndeltas = vec![250usize, 500, 1_000, 2_000];
    let mut next = 4_000;
    while next <= max_ndelta {
        ndeltas.push(next);
        next *= 2;
    }
    println!("{:>8} {:>14}", "n_delta", "time (s)");
    for &nd in ndeltas.iter().filter(|&&nd| nd <= nodes / 2) {
        let (a, b) = states_with_ndelta(nodes, nd, &mut rng);
        let (_, secs) = timed(|| engine.distance(&a, &b));
        println!("{nd:>8} {secs:>14.2}");
    }
}

fn states_with_ndelta(n: usize, ndelta: usize, rng: &mut SmallRng) -> (NetworkState, NetworkState) {
    let a = seed_initial_adopters(n, 2 * ndelta, rng).expect("seed count within population");
    let mut b = a.clone();
    let mut changed = 0usize;
    while changed < ndelta {
        let u = rng.gen_range(0..n as u32);
        if b.opinion(u) == a.opinion(u) {
            let new = match a.opinion(u) {
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
