//! Geometry bundles along the snapshot order vs built fresh per state, on
//! cluster banks.
//!
//! The all-pairs matrix and every tile plan build each state's geometry
//! bundle through one materializer that steps the previous state's
//! bundle through their delta (touched-edge costs and γ-ball repair)
//! instead of rebuilding it. Two series on Barabási–Albert
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
//! * `tiles/1`, `tiles/2`, `tiles/11` — the full plan at tile edge 1, 2
//!   and 11 over one `TileWorkspace`, merged with `TileSet::to_matrix`
//!   (`tiles/11` is `chain`'s plan).
//!
//! Every matrix is asserted equal to its series' fresh one before
//! anything is timed. The record's derived figures also give the fresh
//! and repaired SSSP rows of each tile edge's plan. A workspace keeps one
//! full row per `(opinion, direction, user)` key as a repair seed, so the
//! fresh-row count does not depend on the tile edge; the bench asserts
//! that it is the same at every edge. They also give the inter-cluster
//! rows each plan computed, of both series, next to the `k × states × 2`
//! rows of an eager build: the bundles compute only the rows of the
//! clusters that hold a term's row node. Results land in
//! `BENCH_bundle_chain.json` at the repo root.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use snd_bench::record::Record;
use snd_core::{
    ClusterSpec, DistanceMatrix, GammaPolicy, ShardPlan, SndConfig, SndEngine, StateGeometry,
    TileGrid, TileSet, TileWorkspace, REPAIR_EDGE_FRACTION,
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

/// What one plan computed: its fresh and repaired SSSP rows, and its
/// inter-cluster rows.
struct PlanRows {
    fresh: usize,
    repaired: usize,
    cluster: usize,
}

/// The full plan at tile edge `tile` over a fresh workspace: the matrix,
/// and the rows it computed.
fn tiles_matrix(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    tile: usize,
) -> (DistanceMatrix, PlanRows) {
    let plan = ShardPlan::full(TileGrid::new(states.len(), tile));
    let mut ws = TileWorkspace::new();
    let mut set = TileSet::empty(*plan.grid(), 0);
    engine
        .pairwise_tiles_in(states, &plan, &mut ws, &mut set, &mut |_| Ok(()))
        .expect("an in-memory plan performs no IO");
    let matrix = set.to_matrix().expect("a full plan covers every tile");
    let rows = PlanRows {
        fresh: ws.fresh_rows(),
        repaired: ws.repaired_rows(),
        cluster: ws.cluster_rows(),
    };
    (matrix, rows)
}

/// The inter-cluster rows an eager build computes: every cluster's row,
/// per state and opinion.
fn eager_cluster_rows(engine: &SndEngine<'_>, states: &[NetworkState]) -> usize {
    engine.clustering().cluster_count() * states.len() * 2
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
    let (mut fresh_rows, mut repaired_rows, mut cluster_rows) =
        (Vec::new(), Vec::new(), Vec::new());
    for tile in TILES {
        let (matrix, rows) = tiles_matrix(&engine, &states, tile);
        assert_eq!(matrix, fresh, "tile {tile}");
        println!(
            "bundle_chain: tile {tile}: {} fresh, {} repaired and {} inter-cluster rows",
            rows.fresh, rows.repaired, rows.cluster
        );
        fresh_rows.push(rows.fresh);
        repaired_rows.push(rows.repaired);
        cluster_rows.push(rows.cluster);
    }
    assert!(
        fresh_rows.iter().all(|&f| f == fresh_rows[0]),
        "fresh rows depend on the tile edge: {fresh_rows:?} at tiles {TILES:?}"
    );
    let churn_fresh = fresh_matrix(&churn_engine, &churned);
    assert_eq!(
        churn_engine.pairwise_distances(&churned),
        churn_fresh,
        "high-churn chain matrix"
    );
    let (matrix, churn_rows) = tiles_matrix(&churn_engine, &churned, churned.len());
    assert_eq!(matrix, churn_fresh, "high-churn tile matrix");
    let (eager_rows, churn_eager_rows) = (
        eager_cluster_rows(&engine, &states),
        eager_cluster_rows(&churn_engine, &churned),
    );
    println!(
        "bundle_chain: inter-cluster rows: low churn {cluster_rows:?} of {eager_rows} eager, \
         high churn {} of {churn_eager_rows} eager",
        churn_rows.cluster
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
        .derived("fresh_rows", fresh_rows)
        .derived("repaired_rows", repaired_rows)
        .derived("cluster_rows", cluster_rows)
        .derived("eager_cluster_rows", eager_rows)
        .derived("high_churn_cluster_rows", churn_rows.cluster)
        .derived("high_churn_eager_cluster_rows", churn_eager_rows)
        .derived("matrices_equal", true)
        .write();
}

criterion_group!(benches, bench_bundle_chain);
criterion_main!(benches);
