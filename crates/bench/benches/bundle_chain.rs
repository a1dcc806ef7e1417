//! Geometry bundles along the snapshot order vs built fresh per state, on
//! cluster banks.
//!
//! The all-pairs matrix and every tile plan build each state's geometry
//! bundle through one materializer that steps the previous state's
//! bundle through their delta (touched-edge costs, cluster-row and γ-ball
//! repair) instead of rebuilding it. Two series on Barabási–Albert
//! graphs with 64 BFS cluster banks and eccentricity γ:
//!
//! * low churn — the shape of the repo benchmark's `series` input, where
//!   the repair pays most: 5k nodes, 11 voting snapshots, a dozen
//!   low-degree adoptions per step;
//! * high churn — 2k nodes, 6 snapshots of random activations, every
//!   transition past the repair threshold, so every chained bundle falls
//!   back to a fresh build and keeps no repair state. Pricing the large
//!   residuals dominates here; the case checks that the chain's
//!   sequential fallbacks cost no more than parallel fresh builds.
//!
//! Measurements (each prices the series' full matrix):
//!
//! * `fresh`, `high_churn/fresh` — the baseline, built in the bench from
//!   public API: one `state_geometry` per state, in parallel across
//!   states, then `pairwise_distances_with` over the bundles;
//! * `chain`, `high_churn/chain` — `pairwise_distances`, which is the
//!   full plan over one tile;
//! * `tiles/1`, `tiles/2`, `tiles/11` — full-plan `pairwise_tiles` at
//!   tile edge 1, 2 and 11, merged with `TileSet::to_matrix` (`tiles/11`
//!   is `chain`'s plan).
//!
//! Every matrix is asserted equal to its series' fresh one before
//! anything is timed. Results land in `BENCH_bundle_chain.json` at the
//! repo root.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use snd_bench::record::Record;
use snd_core::{
    ClusterSpec, DistanceMatrix, GammaPolicy, ShardPlan, SndConfig, SndEngine, StateGeometry,
    TileGrid, REPAIR_EDGE_FRACTION,
};
use snd_graph::generators::barabasi_albert;
use snd_graph::{CsrGraph, NodeId};
use snd_models::dynamics::{random_activation_step, seed_initial_adopters};
use snd_models::{NetworkState, Opinion, StateDelta};

/// Adoptions per low-churn voting step: a few dozen touched edges, far
/// below the repair threshold.
const ADOPTIONS: usize = 12;
/// Users with more out-neighbors never adopt in the low-churn series: a
/// hub adoption moves a large part of every cluster's shortest-path trees.
const MAX_DEGREE: usize = 12;
const TILES: [usize; 3] = [1, 2, 11];

/// The low-churn voting series: one adopter in 25, then `snapshots − 1`
/// steps in which up to [`ADOPTIONS`] neutral low-degree users each adopt
/// a random active in-neighbor's opinion (with probability 0.9) or a
/// random opinion. A step stops early when `64·n` draws find no neutral
/// low-degree user.
fn voting_series(g: &CsrGraph, snapshots: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    let n = g.node_count();
    let mut state = seed_initial_adopters(n, n / 25, rng).expect("adopters fit the population");
    let mut states = vec![state.clone()];
    while states.len() < snapshots {
        for _ in 0..ADOPTIONS {
            let Some(u) = (0..64 * n)
                .map(|_| rng.gen_range(0..n) as NodeId)
                .find(|&u| !state.opinion(u).is_active() && g.out_degree(u) <= MAX_DEGREE)
            else {
                break;
            };
            let voters: Vec<Opinion> = g
                .in_neighbors(u)
                .iter()
                .map(|&v| state.opinion(v))
                .filter(|o| o.is_active())
                .collect();
            let op = if !voters.is_empty() && rng.gen_bool(0.9) {
                voters[rng.gen_range(0..voters.len())]
            } else if rng.gen_bool(0.5) {
                Opinion::Positive
            } else {
                Opinion::Negative
            };
            state.set(u, op);
        }
        states.push(state.clone());
    }
    states
}

/// The high-churn series: one adopter in 25, then `snapshots − 1` steps
/// each activating a sixth of the users at random. Panics unless every
/// transition is past the repair threshold.
fn random_series(g: &CsrGraph, snapshots: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    let n = g.node_count();
    let start = seed_initial_adopters(n, n / 25, rng).expect("adopters fit the population");
    let mut states = vec![start];
    while states.len() < snapshots {
        let prev = &states[states.len() - 1];
        let next = random_activation_step(g, prev, n / 6, rng);
        let touched = StateDelta::between(g, prev, &next).touched_edges().len();
        assert!(
            touched * REPAIR_EDGE_FRACTION > g.edge_count(),
            "a high-churn step touched only {touched} of {} edges",
            g.edge_count()
        );
        states.push(next);
    }
    states
}

/// The fresh-bundle baseline: every state's geometry built from scratch,
/// in parallel across states.
fn fresh_matrix(engine: &SndEngine<'_>, states: &[NetworkState]) -> DistanceMatrix {
    let geoms: Vec<StateGeometry> = states
        .par_iter()
        .map(|s| engine.state_geometry(s))
        .collect();
    engine.pairwise_distances_with(states, &geoms)
}

fn tiles_matrix(engine: &SndEngine<'_>, states: &[NetworkState], tile: usize) -> DistanceMatrix {
    let plan = ShardPlan::full(TileGrid::new(states.len(), tile));
    engine
        .pairwise_tiles(states, &plan)
        .to_matrix()
        .expect("a full plan covers every tile")
}

fn bench_bundle_chain(c: &mut Criterion) {
    let test = criterion::is_test_mode();
    let (nodes, snapshots) = if test { (800, 5) } else { (5_000, 11) };
    let (churn_nodes, churn_snapshots) = if test { (400, 4) } else { (2_000, 6) };
    let clusters = 64;
    let config = SndConfig {
        clusters: ClusterSpec::BfsPartition { clusters },
        gamma: GammaPolicy::Eccentricity,
        ..SndConfig::default()
    };

    let mut rng = SmallRng::seed_from_u64(2017);
    let graph = barabasi_albert(nodes, 4, &mut rng);
    let states = voting_series(&graph, snapshots, &mut rng);
    let churn_graph = barabasi_albert(churn_nodes, 4, &mut rng);
    let churned = random_series(&churn_graph, churn_snapshots, &mut rng);
    println!(
        "bundle_chain: low churn n={} ({} edges), {} snapshots; high churn n={} ({} edges), \
         {} snapshots; {clusters} clusters",
        graph.node_count(),
        graph.edge_count(),
        states.len(),
        churn_graph.node_count(),
        churn_graph.edge_count(),
        churned.len()
    );
    let engine = SndEngine::new(&graph, config.clone());
    let churn_engine = SndEngine::new(&churn_graph, config);

    let fresh = fresh_matrix(&engine, &states);
    assert_eq!(engine.pairwise_distances(&states), fresh, "chain matrix");
    for tile in TILES {
        assert_eq!(tiles_matrix(&engine, &states, tile), fresh, "tile {tile}");
    }
    assert_eq!(
        churn_engine.pairwise_distances(&churned),
        fresh_matrix(&churn_engine, &churned),
        "high-churn chain matrix"
    );

    let mut group = c.benchmark_group("bundle_chain");
    group
        .sample_size(5)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("fresh", |b| b.iter(|| fresh_matrix(&engine, &states)));
    group.bench_function("chain", |b| b.iter(|| engine.pairwise_distances(&states)));
    for tile in TILES {
        group.bench_function(BenchmarkId::new("tiles", tile), |b| {
            b.iter(|| tiles_matrix(&engine, &states, tile))
        });
    }
    group.bench_function("high_churn/fresh", |b| {
        b.iter(|| fresh_matrix(&churn_engine, &churned))
    });
    group.bench_function("high_churn/chain", |b| {
        b.iter(|| churn_engine.pairwise_distances(&churned))
    });
    group.finish();

    let mut record = Record::new("bundle_chain");
    let fresh_s = record.mean_s("bundle_chain/fresh");
    let chain_speedup = fresh_s / record.mean_s("bundle_chain/chain");
    let tile_speedups: Vec<f64> = TILES
        .iter()
        .map(|t| fresh_s / record.mean_s(&format!("bundle_chain/tiles/{t}")))
        .collect();
    let high_churn_speedup = record.mean_s("bundle_chain/high_churn/fresh")
        / record.mean_s("bundle_chain/high_churn/chain");
    record
        .param("graph", "ba")
        .param("nodes", graph.node_count())
        .param("edges", graph.edge_count())
        .param("snapshots", states.len())
        .param("adoptions_per_step", ADOPTIONS)
        .param("high_churn_nodes", churn_graph.node_count())
        .param("high_churn_edges", churn_graph.edge_count())
        .param("high_churn_snapshots", churned.len())
        .param("high_churn_activations_per_step", churn_nodes / 6)
        .param("clusters", clusters)
        .param("gamma", "eccentricity")
        .param("tiles", TILES.to_vec())
        .derived("chain_speedup", chain_speedup)
        .derived("tile_speedups", tile_speedups)
        .derived("high_churn_chain_speedup", high_churn_speedup)
        .derived("matrices_equal", true)
        .write();
}

criterion_group!(benches, bench_bundle_chain);
criterion_main!(benches);
