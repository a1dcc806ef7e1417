//! Guarantees of the tile-based shard subsystem: merging the tiles of any
//! `ShardPlan` partition — including a run interrupted and resumed from a
//! half-written checkpoint — is **bit-identical** to the naive sequential
//! all-pairs loop; and the per-cluster geometry fan-out matches the
//! sequential geometry path exactly.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::analysis::resume::series_distances_checkpointed;
use snd::core::shard::{ShardPlan, TileGrid, TileSet};
use snd::core::{ClusterSpec, GammaPolicy, SndConfig, SndEngine};
use snd::graph::generators::barabasi_albert;
use snd::models::{NetworkState, Opinion};

fn random_states(n: usize, count: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    (0..count)
        .map(|_| {
            let vals: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

fn temp_path(name: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snd_shard_{}_{seed}_{name}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any round-robin partition of the tile grid, computed shard by shard
    /// and merged, reproduces the naive sequential matrix bit for bit — in
    /// both bank modes.
    #[test]
    fn sharded_partition_merges_to_the_sequential_matrix(
        seed in 0u64..1_000,
        t in 2usize..7,
        tile in 1usize..4,
        shards in 2usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(16, 2, &mut rng);
        let states = random_states(16, t, &mut rng);
        let grid = TileGrid::new(t, tile);
        for clusters in [ClusterSpec::PerBin, ClusterSpec::BfsPartition { clusters: 3 }] {
            let config = SndConfig { clusters: clusters.clone(), ..Default::default() };
            let engine = SndEngine::new(&g, config);
            let parts: Vec<TileSet> = (0..shards)
                .map(|s| {
                    let plan = ShardPlan::round_robin(grid, s, shards).unwrap();
                    engine.pairwise_tiles(&states, &plan)
                })
                .collect();
            let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
            let seq = engine.pairwise_distances_seq(&states);
            prop_assert_eq!(&merged, &seq, "mode {:?}", clusters);
        }
    }

    /// A run that checkpoints, is "killed" (checkpoint truncated mid-line,
    /// as an interrupted append would leave it), and resumes, reproduces
    /// the same matrix bit for bit.
    #[test]
    fn resumed_checkpoint_reproduces_the_sequential_matrix(
        seed in 0u64..1_000,
        t in 3usize..7,
        tile in 1usize..4,
        chop in 1usize..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(14, 2, &mut rng);
        let states = random_states(14, t, &mut rng);
        let grid = TileGrid::new(t, tile);
        let plan = ShardPlan::full(grid);
        let engine = SndEngine::new(&g, SndConfig::default());
        let path = temp_path("resume.ckpt", seed.wrapping_mul(31).wrapping_add(t as u64));
        let _ = std::fs::remove_file(&path);

        // First (interrupted) run: compute everything, then chop trailing
        // bytes off the checkpoint — simulating a kill mid-append.
        engine.pairwise_tiles_checkpointed(&states, &plan, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Chop within the tile-line region (header corruption is a hard
        // error by design, not a resume case).
        let header_end = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        let keep = bytes.len().saturating_sub(chop).max(header_end);
        std::fs::write(&path, &bytes[..keep]).unwrap();

        // Resume: the valid prefix is reused, the damaged tail recomputed.
        let run = engine.pairwise_tiles_checkpointed(&states, &plan, &path).unwrap();
        prop_assert_eq!(run.resumed + run.computed, grid.tile_count());
        let matrix = run.tiles.to_matrix().unwrap();
        prop_assert_eq!(&matrix, &engine.pairwise_distances_seq(&states));

        // And the checkpoint on disk is now a complete, loadable artifact.
        let reloaded = TileSet::load(&path).unwrap();
        prop_assert_eq!(&reloaded.to_matrix().unwrap(), &matrix);
        std::fs::remove_file(&path).unwrap();
    }

    /// The per-cluster geometry fan-out (`SndEngine::geometry`) is
    /// bit-identical to the sequential reference (`geometry_seq`) across
    /// clusterings and γ policies.
    #[test]
    fn parallel_cluster_geometry_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        state in proptest::collection::vec(-1i8..=1, 18),
        clusters in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(18, 2, &mut rng);
        let state = NetworkState::from_values(&state);
        for gamma in [GammaPolicy::Constant(3), GammaPolicy::Eccentricity, GammaPolicy::HalfExactDiameter] {
            let config = SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters },
                gamma,
                ..Default::default()
            };
            let engine = SndEngine::new(&g, config);
            for op in [Opinion::Positive, Opinion::Negative] {
                let par = engine.geometry(&state, op);
                let seq = engine.geometry_seq(&state, op);
                prop_assert_eq!(&par, &seq, "policy {:?}, opinion {:?}", gamma, op);
            }
        }
    }
}

#[test]
fn partial_checkpoints_from_different_shards_merge_like_one_run() {
    // Two "machines" each write their own checkpoint artifact; merging the
    // artifact files reproduces the single-machine matrix.
    let mut rng = SmallRng::seed_from_u64(77);
    let g = barabasi_albert(20, 2, &mut rng);
    let states = random_states(20, 6, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let grid = TileGrid::new(6, 2);

    let mut parts = Vec::new();
    for s in 0..2 {
        let path = temp_path(&format!("machine{s}.ckpt"), 77);
        let _ = std::fs::remove_file(&path);
        let plan = ShardPlan::round_robin(grid, s, 2).unwrap();
        engine
            .pairwise_tiles_checkpointed(&states, &plan, &path)
            .unwrap();
        parts.push(TileSet::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }
    let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
    assert_eq!(merged, engine.pairwise_distances_seq(&states));
}

#[test]
fn superdiagonal_plan_reproduces_the_series() {
    let mut rng = SmallRng::seed_from_u64(5);
    let g = barabasi_albert(16, 2, &mut rng);
    let states = random_states(16, 7, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let grid = TileGrid::new(7, 3);
    let set = engine.pairwise_tiles(&states, &ShardPlan::superdiagonal(grid));
    let series: Vec<f64> = (1..states.len())
        .map(|t| set.pair(t - 1, t).expect("superdiagonal tile present"))
        .collect();
    assert_eq!(series, engine.series_distances_seq(&states));
}

/// On a low-churn series the tile loop repairs SSSP rows along the
/// snapshot order — within a tile, and from rows cached by earlier tiles
/// whose bundles are still alive — and must still reproduce the batch
/// matrix exactly, at every tile size and in both bank modes.
#[test]
fn low_churn_tiles_merge_to_the_batch_matrix() {
    let mut rng = SmallRng::seed_from_u64(400);
    let n = 400;
    let g = barabasi_albert(n, 3, &mut rng);
    let mut states = vec![NetworkState::from_values(
        &(0..n)
            .map(|_| [1, -1, 0, 0, 0, 0, 0, 0][rng.gen_range(0..8)])
            .collect::<Vec<i8>>(),
    )];
    for _ in 1..8 {
        let mut next = states[states.len() - 1].clone();
        for _ in 0..rng.gen_range(2..=5) {
            let u = rng.gen_range(0..n as u32);
            next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
        }
        states.push(next);
    }
    for clusters in [
        ClusterSpec::PerBin,
        ClusterSpec::BfsPartition { clusters: 6 },
    ] {
        let config = SndConfig {
            clusters: clusters.clone(),
            ..Default::default()
        };
        let engine = SndEngine::new(&g, config);
        let batch = engine.pairwise_distances(&states);
        for tile in [1, 3, 8] {
            let plan = ShardPlan::full(TileGrid::new(states.len(), tile));
            let merged = engine.pairwise_tiles(&states, &plan).to_matrix().unwrap();
            assert_eq!(merged, batch, "mode {clusters:?}, tile {tile}");
        }
    }
}

/// The checkpointed series entry point and the plan path over
/// `ShardPlan::superdiagonal` write the same checkpoint, byte for byte
/// apart from the advisory `W` timing lines — on the exact tier in both
/// bank modes and on the approximate tier, whose `I` lines must match too.
#[test]
fn series_tiles_equal_the_superdiagonal_plan_tiles_byte_for_byte() {
    let mut scenario = snd::data::registry()
        .into_iter()
        .next()
        .expect("non-empty registry");
    scenario.nodes = 300;
    scenario.steps = 9;
    let series = scenario.run(7).expect("registry scenario runs");
    let states = &series.states;
    let configs = [
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
        SndConfig {
            approx: Some(snd::core::ApproxConfig {
                epsilon: 0.5,
                min_nodes: 0,
                ..Default::default()
            }),
            ..Default::default()
        },
    ];
    let without_timings = |path: &std::path::Path| -> String {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("W "))
            .flat_map(|l| [l, "\n"])
            .collect()
    };
    for (c, config) in configs.into_iter().enumerate() {
        let engine = SndEngine::new(&series.graph, config);
        for tile in 1..=4 {
            let series_path = temp_path("series_tiles.ckpt", (c * 10 + tile) as u64);
            let plan_path = temp_path("plan_tiles.ckpt", (c * 10 + tile) as u64);
            let _ = std::fs::remove_file(&series_path);
            let _ = std::fs::remove_file(&plan_path);
            series_distances_checkpointed(&engine, states, tile, &series_path).unwrap();
            let plan = ShardPlan::superdiagonal(TileGrid::new(states.len(), tile));
            engine
                .pairwise_tiles_checkpointed(states, &plan, &plan_path)
                .unwrap();
            let (a, b) = (without_timings(&series_path), without_timings(&plan_path));
            assert!(a.lines().any(|l| l.starts_with("T ")));
            assert_eq!(
                a.lines().any(|l| l.starts_with("I ")),
                c == 2,
                "config {c}: interval lines exactly on the approximate tier"
            );
            assert_eq!(a, b, "config {c}, tile {tile}");
            std::fs::remove_file(&series_path).unwrap();
            std::fs::remove_file(&plan_path).unwrap();
        }
    }
}
