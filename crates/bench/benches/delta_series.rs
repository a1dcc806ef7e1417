//! The time-series workload: batch series evaluation vs the delta-aware
//! path (`SndEngine::series_distances`), on the regimes the paper's
//! anomaly/prediction experiments run — consecutive snapshots of one
//! evolving 10k-node network.
//!
//! Two churn regimes over the same graph size, both in the cluster-bank
//! configuration (the coarse mode for large graphs, where per-state
//! geometry — one multi-source SSSP per cluster plus two eccentricity
//! SSSPs per cluster per opinion — dominates the series cost):
//!
//! * `low_churn` — a sampled voting series: adjacent snapshots differ by
//!   a few dozen users out of 10k. The delta path re-derives edge costs
//!   on touched edges only and *repairs* the cluster SSSP rows
//!   (`snd_graph::repair_row`), so per-transition geometry cost collapses
//!   to the affected region.
//! * `high_churn` — random activation flipping a large user fraction per
//!   step: past the repair threshold
//!   (`snd_core::REPAIR_EDGE_FRACTION`) every transition falls back to a
//!   fresh rebuild, pricing the delta sweep as pure overhead. The bench
//!   records that overhead; it must stay within a few percent of the
//!   batch path.
//!
//! The batch path is a local baseline built from the engine's public
//! per-state pieces (`state_geometry` + `breakdown_with`). The delta path
//! is property-tested bit-identical to `series_distances_seq`
//! (`tests/delta_series.rs`), and the baseline is checked bit-identical to
//! the delta path here on a series prefix before anything is timed; this
//! bench tracks the wall-clock side in `BENCH_series.json` at the repo
//! root.
//!
//! Scale knobs (env): `SND_BENCH_NODES` (default 10000),
//! `SND_BENCH_SNAPSHOTS` (default 12), `SND_BENCH_CLUSTERS` (default 64).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use snd_core::{ClusterSpec, GammaPolicy, SndConfig, SndEngine, StateGeometry};
use snd_data::{generate_series, GraphSpec, ModelSpec, Scenario, SyntheticSeriesConfig};
use snd_models::dynamics::VotingConfig;
use snd_models::NetworkState;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn mean_adjacent_flips(states: &[NetworkState]) -> usize {
    if states.len() < 2 {
        return 0;
    }
    let total: usize = (1..states.len())
        .map(|t| states[t - 1].diff_count(&states[t]))
        .sum();
    total / (states.len() - 1)
}

/// The pre-delta batch series path: geometries for a window of states
/// computed concurrently, then every transition fanned out over the
/// thread pool. Windows bound the live bundles (each holds geometries
/// plus cached SSSP rows, O(n) apiece) to `GEOMETRY_WINDOW`; the one
/// overlap state per window boundary is recomputed.
fn series_distances_batch(engine: &SndEngine, states: &[NetworkState]) -> Vec<f64> {
    const GEOMETRY_WINDOW: usize = 33;
    let mut out = Vec::with_capacity(states.len().saturating_sub(1));
    let mut lo = 0usize;
    while lo + 1 < states.len() {
        let hi = (lo + GEOMETRY_WINDOW - 1).min(states.len() - 1);
        let geoms: Vec<StateGeometry> = states[lo..=hi]
            .par_iter()
            .map(|s| engine.state_geometry(s))
            .collect();
        let window: Vec<f64> = (lo + 1..hi + 1)
            .into_par_iter()
            .map(|t| {
                let (a, b) = (&states[t - 1], &states[t]);
                engine
                    .breakdown_with(a, b, &geoms[t - 1 - lo], &geoms[t - lo])
                    .total()
            })
            .collect();
        out.extend(window);
        lo = hi;
    }
    out
}

fn bench_delta_series(c: &mut Criterion) {
    let nodes = env_usize("SND_BENCH_NODES", 10_000).max(100);
    let snapshots = env_usize("SND_BENCH_SNAPSHOTS", 12).max(3);
    let clusters = env_usize("SND_BENCH_CLUSTERS", 64).max(2);

    // Low churn: sampled voting — a few dozen flips per step at n=10k.
    let low = generate_series(&SyntheticSeriesConfig {
        nodes,
        exponent: -2.3,
        initial_adopters: (nodes / 25).max(20),
        steps: snapshots - 1,
        normal: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous: VotingConfig::new(0.12, 0.01).expect("valid voting parameters"),
        anomalous_steps: vec![],
        chance_fraction: 0.02,
        burn_in: 0,
        seed: 2017,
    });
    // High churn: random activation flipping ~15% of users per step —
    // past the repair threshold, exercising the fallback.
    let high = Scenario {
        name: "bench-high-churn",
        description: "random activation at fallback-forcing churn",
        graph: GraphSpec::BarabasiAlbert { m: 4 },
        nodes,
        seed_fraction: 0.3,
        burn_in: 0,
        steps: snapshots - 1,
        model: ModelSpec::RandomActivation { fraction: 0.15 },
        anomaly: None,
    }
    .run(2017)
    .expect("bench scenario runs");

    let config = SndConfig {
        clusters: ClusterSpec::BfsPartition { clusters },
        gamma: GammaPolicy::Eccentricity,
        ..Default::default()
    };
    let low_engine = SndEngine::new(&low.graph, config.clone());
    let high_engine = SndEngine::new(&high.graph, config);
    let low_flips = mean_adjacent_flips(&low.states);
    let high_flips = mean_adjacent_flips(&high.states);
    println!(
        "delta_series: |V|={nodes}, T={snapshots}, clusters={clusters}, \
         low-churn flips/step={low_flips}, high-churn flips/step={high_flips}, threads={}",
        rayon::current_num_threads()
    );

    // Bit-identity gate: the baseline and the delta path must agree
    // exactly before either is timed. A three-snapshot prefix covers both
    // churn regimes at a fraction of a full series' cost.
    for (engine, states) in [(&low_engine, &low.states), (&high_engine, &high.states)] {
        let prefix = &states[..3];
        assert_eq!(
            series_distances_batch(engine, prefix),
            engine.series_distances(prefix),
            "batch baseline and delta path disagree"
        );
    }

    let label = format!("n{}_t{}", nodes, snapshots);
    let mut group = c.benchmark_group("delta_series");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));

    group.bench_with_input(BenchmarkId::new("batch_low_churn", &label), &(), |b, ()| {
        b.iter(|| series_distances_batch(&low_engine, &low.states))
    });
    group.bench_with_input(BenchmarkId::new("delta_low_churn", &label), &(), |b, ()| {
        b.iter(|| low_engine.series_distances(&low.states))
    });
    group.bench_with_input(
        BenchmarkId::new("batch_high_churn", &label),
        &(),
        |b, ()| b.iter(|| series_distances_batch(&high_engine, &high.states)),
    );
    group.bench_with_input(
        BenchmarkId::new("delta_high_churn", &label),
        &(),
        |b, ()| b.iter(|| high_engine.series_distances(&high.states)),
    );
    group.finish();

    write_history(
        nodes,
        snapshots,
        low.graph.edge_count(),
        clusters,
        low_flips,
        high_flips,
    );
}

/// Records the measurements as `BENCH_series.json` at the repo root.
fn write_history(
    nodes: usize,
    snapshots: usize,
    edges: usize,
    clusters: usize,
    low_flips: usize,
    high_flips: usize,
) {
    let measurements = criterion::take_measurements();
    let mean = |needle: &str| {
        measurements
            .iter()
            .find(|m| m.id.contains(needle))
            .map(|m| m.mean_s)
    };
    let (Some(batch_low), Some(delta_low), Some(batch_high), Some(delta_high)) = (
        mean("batch_low_churn"),
        mean("delta_low_churn"),
        mean("batch_high_churn"),
        mean("delta_high_churn"),
    ) else {
        return;
    };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"bench\": \"delta_series\",\n  \"unix_time\": {stamp},\n  \
         \"nodes\": {nodes},\n  \"snapshots\": {snapshots},\n  \"edges\": {edges},\n  \
         \"clusters\": {clusters},\n  \"threads\": {threads},\n  \
         \"low_churn_flips_per_step\": {low_flips},\n  \
         \"high_churn_flips_per_step\": {high_flips},\n  \
         \"batch_low_churn_s\": {batch_low:.4},\n  \
         \"delta_low_churn_s\": {delta_low:.4},\n  \
         \"speedup_low_churn\": {sl:.2},\n  \
         \"batch_high_churn_s\": {batch_high:.4},\n  \
         \"delta_high_churn_s\": {delta_high:.4},\n  \
         \"fallback_overhead_high_churn\": {oh:.3}\n}}\n",
        threads = rayon::current_num_threads(),
        sl = batch_low / delta_low,
        oh = delta_high / batch_high,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_series.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_delta_series);
criterion_main!(benches);
