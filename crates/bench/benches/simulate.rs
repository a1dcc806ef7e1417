//! Forward-simulation throughput: steps/s of every `OpinionDynamics`
//! model family on a 10k-node graph.
//!
//! The scenario registry turns any model into an evaluation workload, so
//! model stepping is now a production path (dataset generation feeds every
//! `snd` subcommand). This bench builds one Barabási–Albert graph, seeds
//! adopters, and times a fixed number of transitions per model, recording
//! steps/s to `BENCH_simulate.json` at the repo root — the artifact that keeps
//! per-model simulation cost visible across PRs.
//!
//! Scale knobs (env): `SND_BENCH_SIM_NODES` (default 10000),
//! `SND_BENCH_SIM_STEPS` (default 8).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_bench::record::{knob, Record};
use snd_data::ModelSpec;
use snd_graph::generators::barabasi_albert;
use snd_models::dynamics::seed_initial_adopters;
use snd_models::simulate_series;

/// One spec per model family, at registry-like parameters.
fn specs() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Voting {
            p_nbr: 0.12,
            p_ext: 0.01,
            chance_fraction: Some(0.12),
        },
        ModelSpec::Icc,
        ModelSpec::Ltc { threshold: 0.3 },
        ModelSpec::RandomActivation { fraction: 0.01 },
        ModelSpec::MajorityRule { update_prob: 0.25 },
        ModelSpec::StubbornVoter {
            copy_prob: 0.3,
            stubborn_fraction: 0.1,
        },
        ModelSpec::DeGroot {
            susceptibility: 0.55,
            threshold: 0.25,
        },
        ModelSpec::BoundedConfidence {
            confidence: 1,
            update_prob: 0.3,
            threshold: 0.25,
        },
    ]
}

fn bench_simulate(c: &mut Criterion) {
    let nodes = knob("SND_BENCH_SIM_NODES", 10_000usize).max(100);
    let steps = knob("SND_BENCH_SIM_STEPS", 8usize).max(1);

    let mut seed_rng = SmallRng::seed_from_u64(2017);
    let graph = barabasi_albert(nodes, 3, &mut seed_rng);
    let initial = seed_initial_adopters(nodes, nodes / 10, &mut seed_rng)
        .expect("a tenth of the population fits");
    println!(
        "simulate: |V|={nodes}, edges={}, {steps} steps per iteration",
        graph.edge_count()
    );

    let mut group = c.benchmark_group("simulate");
    group
        .sample_size(3)
        .warmup_time(std::time::Duration::from_millis(1))
        .measurement_time(std::time::Duration::from_secs(1));
    for spec in specs() {
        let model = spec
            .build(nodes, &graph)
            .expect("registry-valid parameters");
        group.bench_with_input(
            BenchmarkId::new(spec.family(), format!("n{nodes}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mut rng = SmallRng::seed_from_u64(7);
                    simulate_series(&graph, model.as_ref(), initial.clone(), steps, &mut rng)
                })
            },
        );
    }
    group.finish();

    let mut record = Record::new("simulate");
    record
        .param("nodes", nodes)
        .param("edges", graph.edge_count())
        .param("steps_per_iter", steps);
    for spec in specs() {
        let family = spec.family();
        let mean_s = record.mean_s(&format!("simulate/{family}/n{nodes}"));
        record.derived(&format!("steps_per_s.{family}"), steps as f64 / mean_s);
    }
    record.write();
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);
