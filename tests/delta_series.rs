//! Guarantees of the delta-aware series path: for every registry
//! scenario and every bank mode, `SndEngine::series_distances` (the
//! incremental path — touched-edge cost rederivation, SSSP row repair,
//! empty-delta short-circuit, high-churn fallback) is **bit-identical**
//! to the sequential reference `series_distances_seq` — including runs
//! killed and resumed through
//! `analysis::resume::series_distances_checkpointed`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::analysis::resume::series_distances_checkpointed;
use snd::core::{
    BallSteps, ClusterSpec, DeltaStateGeometry, GammaPolicy, SndConfig, SndEngine,
    REPAIR_EDGE_FRACTION,
};
use snd::data::registry;
use snd::graph::generators::barabasi_albert;
use snd::models::{NetworkState, Opinion, StateDelta};

fn temp_path(name: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("snd_delta_{}_{seed}_{name}", std::process::id()))
}

/// The bank modes the delta path specializes: per-bin (default; no
/// cluster SSSPs, delta wins on the cost sweep) and cluster-bank
/// (repairable per-cluster rows, the big win) under both γ policies
/// whose member-bounded runs are recomputed at every step.
fn bank_modes() -> Vec<SndConfig> {
    vec![
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::HalfExactDiameter,
            ..Default::default()
        },
    ]
}

/// Every registry scenario, downscaled: real dynamics (voting, cascades,
/// majority bursts, bounded confidence) exercise low- and high-churn
/// transitions, anomaly injections, and every spreading model.
#[test]
fn delta_series_matches_seq_on_every_registry_scenario() {
    for mut scenario in registry() {
        scenario.nodes = 240;
        scenario.steps = 6;
        let series = scenario
            .run(11)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        for config in bank_modes() {
            let engine = SndEngine::new(&series.graph, config);
            let delta = engine.series_distances(&series.states);
            let seq = engine.series_distances_seq(&series.states);
            assert_eq!(delta, seq, "{}: delta vs seq", scenario.name);
        }
    }
}

/// The checkpointed series path — which routes through the delta-advanced
/// tile computation — reproduces the reference after a simulated kill
/// (checkpoint truncated mid-line) and resume, and its tiles feed a later
/// full-matrix run.
#[test]
fn killed_and_resumed_checkpoint_series_is_bit_identical() {
    let mut scenario = registry().into_iter().next().expect("non-empty registry");
    scenario.nodes = 120;
    scenario.steps = 7;
    let series = scenario.run(5).expect("registry scenario runs");
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    let expect = engine.series_distances_seq(&series.states);

    let path = temp_path("series_resume.ckpt", 5);
    let _ = std::fs::remove_file(&path);
    let first = series_distances_checkpointed(&engine, &series.states, 3, &path).unwrap();
    assert_eq!(first, expect, "fresh checkpointed run");

    // Kill: chop trailing bytes (never into the 2-line header).
    let bytes = std::fs::read(&path).unwrap();
    let header_end = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .nth(1)
        .map(|(i, _)| i + 1)
        .unwrap();
    std::fs::write(
        &path,
        &bytes[..bytes.len().saturating_sub(9).max(header_end)],
    )
    .unwrap();

    // Resume reproduces the same values bit for bit.
    let resumed = series_distances_checkpointed(&engine, &series.states, 3, &path).unwrap();
    assert_eq!(resumed, expect, "resumed run");

    // The series checkpoint seeds the full-matrix run over the same file.
    let matrix =
        snd::analysis::resume::pairwise_distances_checkpointed(&engine, &series.states, 3, &path)
            .unwrap();
    assert_eq!(matrix, engine.pairwise_distances_seq(&series.states));
    std::fs::remove_file(&path).unwrap();
}

/// Identical consecutive states short-circuit to exactly zero in every
/// series path, and the geometry carried across the static stretch stays
/// exact for the transitions after it.
#[test]
fn empty_delta_short_circuit_is_exact_in_every_path() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = barabasi_albert(60, 2, &mut rng);
    let a = NetworkState::from_values(&(0..60).map(|i| (i % 3) as i8 - 1).collect::<Vec<_>>());
    let mut b = a.clone();
    b.set(7, Opinion::Neutral);
    b.set(31, Opinion::Positive);
    // Static stretches on both sides of real transitions.
    let states = vec![a.clone(), a.clone(), a.clone(), b.clone(), b.clone(), a];
    for config in bank_modes() {
        let engine = SndEngine::new(&g, config);
        let seq = engine.series_distances_seq(&states);
        assert_eq!(seq[0], 0.0);
        assert_eq!(seq[1], 0.0);
        assert_eq!(seq[3], 0.0);
        assert!(seq[2] > 0.0 && seq[4] > 0.0);
        assert_eq!(engine.series_distances(&states), seq);
        // The matrix path skips the solves of equal pairs; it still
        // matches the naive loop, which solves them.
        assert_eq!(
            engine.pairwise_distances(&states),
            engine.pairwise_distances_seq(&states)
        );

        let path = temp_path("empty_delta.ckpt", 3);
        let _ = std::fs::remove_file(&path);
        let ckpt = series_distances_checkpointed(&engine, &states, 2, &path).unwrap();
        assert_eq!(ckpt, seq);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A disconnected graph whose terms go through cluster banks: a
/// bidirected component, a component of one-way edges whose BFS cluster's
/// representative cannot reach the other members, and an isolated node.
/// The representative's eccentricity reads the sentinel; the delta
/// series, the pairwise matrix and the references agree bit for bit, and
/// every value stays finite.
#[test]
fn disconnected_graph_with_unreachable_members_prices_through_banks() {
    let mut rng = SmallRng::seed_from_u64(17);
    let core = barabasi_albert(30, 2, &mut rng);
    let mut edges: Vec<(u32, u32)> = core.edges().collect();
    // Nodes 30..42 form a path whose edges all point back toward 30.
    edges.extend((30..41u32).map(|v| (v + 1, v)));
    let n = 43; // node 42 is isolated
    let g = snd::graph::CsrGraph::from_edges(n, &edges);
    let config = SndConfig {
        clusters: ClusterSpec::BfsPartition { clusters: 4 },
        gamma: GammaPolicy::Eccentricity,
        ..Default::default()
    };
    let engine = SndEngine::new(&g, config);

    let mut states = vec![NetworkState::from_values(
        &(0..n).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
    )];
    for _ in 0..6 {
        let mut next = states.last().unwrap().clone();
        for _ in 0..2 {
            let u = rng.gen_range(0..n as u32);
            next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
        }
        states.push(next);
    }

    let geom = engine.geometry(&states[0], Opinion::Positive);
    assert!(
        geom.gammas.iter().any(|gs| gs[0] == geom.unreachable),
        "some cluster's representative must miss a member"
    );

    let series = engine.series_distances(&states);
    assert_eq!(series, engine.series_distances_seq(&states));
    assert!(series.iter().all(|d| d.is_finite()), "{series:?}");
    let matrix = engine.pairwise_distances(&states);
    for (i, a) in states.iter().enumerate() {
        for (j, b) in states.iter().enumerate() {
            let d = matrix.at(i, j);
            assert!(d.is_finite(), "({i}, {j})");
            assert_eq!(d, engine.distance_seq(a, b), "({i}, {j})");
        }
    }
}

/// `a` with the opinions of a node set negated, chosen so the transition
/// touches exactly `target` edges. Every node of `a` is active, so each
/// flip changes polarity only and touches its in- and out-edges. Greedy
/// over random node orders: a node joins while the union stays at most
/// `target`; overlapping nodes add fewer new edges, which lets the search
/// land on the target exactly.
fn flip_to_touch(
    g: &snd::graph::CsrGraph,
    a: &NetworkState,
    target: usize,
    rng: &mut SmallRng,
) -> NetworkState {
    let n = g.node_count();
    for _ in 0..1_000 {
        let mut covered = vec![false; g.edge_count()];
        let mut count = 0;
        let mut b = a.clone();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for u in order {
            let mut incident: Vec<u32> = g
                .out_edges(u)
                .chain(g.in_edges(u))
                .map(|(e, _)| e)
                .collect();
            incident.retain(|&e| !covered[e as usize]);
            incident.sort_unstable();
            incident.dedup();
            if count + incident.len() <= target {
                count += incident.len();
                for e in incident {
                    covered[e as usize] = true;
                }
                b.set(u, Opinion::from_value(-a.opinion(u).value()));
            }
        }
        if count == target {
            return b;
        }
    }
    panic!("no flip set touches exactly {target} edges");
}

/// The repair threshold and the n∆ extremes under cluster banks with
/// eccentricity γ: a transition touching exactly `m / REPAIR_EDGE_FRACTION`
/// edges repairs, one more edge falls back to a fresh build, n∆ = 0 is the
/// empty-delta shortcut and n∆ = n touches every edge. Every case prices
/// bit-identically to the sequential reference.
#[test]
fn repair_threshold_and_n_delta_extremes_match_seq() {
    let mut rng = SmallRng::seed_from_u64(44);
    let g = snd::graph::generators::erdos_renyi_gnp(200, 0.02, false, &mut rng);
    let n = g.node_count();
    let m = g.edge_count();
    let engine = SndEngine::new(
        &g,
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 8 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
    );
    let a = NetworkState::from_values(
        &(0..n)
            .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
            .collect::<Vec<i8>>(),
    );
    let limit = m / REPAIR_EDGE_FRACTION;
    let all_flipped = NetworkState::from_values(
        &(0..n as u32)
            .map(|u| -a.opinion(u).value())
            .collect::<Vec<i8>>(),
    );
    let cases = [
        (
            "at the threshold",
            flip_to_touch(&g, &a, limit, &mut rng),
            limit,
            true,
        ),
        (
            "one past it",
            flip_to_touch(&g, &a, limit + 1, &mut rng),
            limit + 1,
            false,
        ),
        ("n_delta = n", all_flipped, m, false),
    ];
    for (what, b, touched, repairs) in cases {
        let delta = StateDelta::between(&g, &a, &b);
        assert_eq!(delta.touched_edges().len(), touched, "{what}");
        let mut geo = DeltaStateGeometry::fresh(&engine, &a);
        let steps = geo.step(&engine, &b, &delta).ball_steps();
        assert_eq!(steps != BallSteps::default(), repairs, "{what}: {steps:?}");
        let states = [a.clone(), b];
        assert_eq!(
            engine.series_distances(&states),
            engine.series_distances_seq(&states),
            "{what}"
        );
    }
    // n_delta = 0: the empty delta prices to exactly zero in both paths.
    let states = [a.clone(), a.clone()];
    assert!(StateDelta::between(&g, &a, &a).touched_edges().is_empty());
    assert_eq!(engine.series_distances(&states), vec![0.0]);
    assert_eq!(engine.series_distances_seq(&states), vec![0.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random walks of random churn — from single flips to full rewrites
    /// (past the repair threshold, forcing the fallback) — stay
    /// bit-identical to the sequential reference in both bank modes.
    #[test]
    fn random_churn_series_match_seq(seed in 0u64..1_000, churn in 1usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(40, 2, &mut rng);
        let mut states = Vec::new();
        let first: Vec<i8> = (0..40).map(|_| rng.gen_range(-1..=1)).collect();
        states.push(NetworkState::from_values(&first));
        for _ in 0..5 {
            let mut next = states.last().unwrap().clone();
            for _ in 0..churn {
                let u = rng.gen_range(0..40u32);
                next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            states.push(next);
        }
        for config in bank_modes() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            let seq = engine.series_distances_seq(&states);
            prop_assert_eq!(&delta, &seq, "churn {}", churn);
        }
    }

    /// The delta's touched-edge contract holds along simulated series:
    /// costs updated on touched edges only equal the full recompute for
    /// both opinions (the foundation the repair path builds on).
    #[test]
    fn touched_edges_cover_every_cost_change(seed in 0u64..1_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(30, 2, &mut rng);
        let mut a = NetworkState::from_values(
            &(0..30).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
        );
        let config = snd::models::GroundCostConfig::default();
        for _ in 0..4 {
            let mut b = a.clone();
            for _ in 0..1 + (seed as usize % 4) {
                let u = rng.gen_range(0..30u32);
                b.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            let delta = StateDelta::between(&g, &a, &b);
            for op in [Opinion::Positive, Opinion::Negative] {
                let mut costs = snd::models::edge_costs(&g, &a, op, &config);
                snd::models::update_edge_costs(&g, &b, op, &config, delta.touched_edges(), &mut costs);
                prop_assert_eq!(costs, snd::models::edge_costs(&g, &b, op, &config));
            }
            a = b;
        }
    }
}
