//! Determinism and cache-reuse guarantees of the parallel evaluation
//! pipeline: parallel results must be **bit-identical** to the sequential
//! reference, and re-evaluating against a shared ground state must perform
//! zero new SSSP runs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::core::sparse::emd_star_term;
use snd::core::{ClusterSpec, RowCache, SndConfig, SndEngine, StateGeometry};
use snd::graph::generators::barabasi_albert;
use snd::graph::CsrGraph;
use snd::models::{NetworkState, Opinion};

fn arb_state(n: usize) -> impl Strategy<Value = NetworkState> {
    proptest::collection::vec(-1i8..=1, n).prop_map(|v| NetworkState::from_values(&v))
}

fn random_states(n: usize, count: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    (0..count)
        .map(|_| {
            let vals: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            NetworkState::from_values(&vals)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel breakdown (concurrent geometries + concurrent terms) is
    /// bit-identical to the fully sequential path on random
    /// Barabási–Albert instances.
    #[test]
    fn parallel_breakdown_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        a in arb_state(20),
        b in arb_state(20),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(20, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        let par = engine.breakdown(&a, &b);
        let seq = engine.breakdown_seq(&a, &b);
        prop_assert_eq!(par, seq);
        prop_assert!(engine.distance(&a, &b) == engine.distance_seq(&a, &b));
    }

    /// The cached, parallel all-pairs matrix equals the naive sequential
    /// loop exactly, in both bank modes.
    #[test]
    fn parallel_pairwise_matrix_is_bit_identical_to_naive_loop(
        seed in 0u64..1_000,
        t in 3usize..6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(18, 2, &mut rng);
        let states = random_states(18, t, &mut rng);
        for clusters in [ClusterSpec::PerBin, ClusterSpec::BfsPartition { clusters: 3 }] {
            let config = SndConfig { clusters: clusters.clone(), ..Default::default() };
            let engine = SndEngine::new(&g, config);
            let par = engine.pairwise_distances(&states);
            let seq = engine.pairwise_distances_seq(&states);
            prop_assert_eq!(&par, &seq, "mode {:?}", clusters);
        }
    }

    /// Parallel series evaluation is bit-identical to the sequential
    /// adjacent-pair loop.
    #[test]
    fn parallel_series_is_bit_identical_to_sequential(
        seed in 0u64..1_000,
        t in 2usize..7,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(16, 2, &mut rng);
        let states = random_states(16, t, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        prop_assert_eq!(engine.series_distances(&states), engine.series_distances_seq(&states));
    }
}

#[test]
fn second_evaluation_of_a_shared_ground_state_runs_zero_sssp() {
    let mut rng = SmallRng::seed_from_u64(7);
    let g = barabasi_albert(40, 3, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let states = random_states(40, 5, &mut rng);

    let geoms: Vec<StateGeometry> = states.iter().map(|s| engine.state_geometry(s)).collect();
    let first = engine.pairwise_distances_with(&states, &geoms);
    let rows_per_state: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
    assert!(
        rows_per_state.iter().sum::<usize>() > 0,
        "the matrix requires SSSP rows"
    );

    // Re-pricing the whole matrix against the same ground states must be a
    // pure cache read: the row-computation counters do not move.
    let second = engine.pairwise_distances_with(&states, &geoms);
    let rows_after: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
    assert_eq!(rows_per_state, rows_after, "zero new SSSP runs");
    assert_eq!(first, second);

    // A single extra comparison against an existing ground state also hits
    // the cache for every row it needs.
    let before = geoms[0].cached_rows();
    let _ = engine.breakdown_with(&states[0], &states[1], &geoms[0], &geoms[1]);
    assert_eq!(geoms[0].cached_rows(), before, "rows already cached");
}

#[test]
fn matrix_agrees_with_individual_distance_calls() {
    let mut rng = SmallRng::seed_from_u64(23);
    let g = barabasi_albert(24, 2, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    let states = random_states(24, 4, &mut rng);
    let m = engine.pairwise_distances(&states);
    for i in 0..states.len() {
        for j in 0..states.len() {
            let d = engine.distance(&states[i], &states[j]);
            assert_eq!(m.at(i, j), d, "entry ({i}, {j})");
        }
    }
}

/// A low-churn series: `flips` users (2–5) change opinion per step, the
/// regime the all-pairs path repairs rows in.
fn low_churn_series(n: usize, snapshots: usize, rng: &mut SmallRng) -> Vec<NetworkState> {
    let first: Vec<i8> = (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => 1,
            1 => -1,
            _ => 0,
        })
        .collect();
    let mut states = vec![NetworkState::from_values(&first)];
    for _ in 1..snapshots {
        let mut next = states[states.len() - 1].clone();
        for _ in 0..rng.gen_range(2..=5) {
            let u = rng.gen_range(0..n as u32);
            next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
        }
        states.push(next);
    }
    states
}

fn bank_modes() -> [SndConfig; 2] {
    [
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 6 },
            ..Default::default()
        },
    ]
}

fn bundles(engine: &SndEngine<'_>, states: &[NetworkState]) -> Vec<StateGeometry> {
    states.iter().map(|s| engine.state_geometry(s)).collect()
}

/// The rows a term-by-term fill writes: one fresh cache per ground state,
/// filled by `emd_star_term` for every term grounded there.
fn reference_row_counts(engine: &SndEngine<'_>, states: &[NetworkState]) -> Vec<usize> {
    let n = engine.graph().node_count();
    let caches: Vec<RowCache> = states.iter().map(|_| RowCache::new(n)).collect();
    for i in 0..states.len() {
        for j in (i + 1)..states.len() {
            for (ground, other) in [(i, j), (j, i)] {
                for op in [Opinion::Positive, Opinion::Negative] {
                    emd_star_term(
                        engine.graph(),
                        engine.clustering(),
                        &engine.geometry(&states[ground], op),
                        &states[ground],
                        &states[other],
                        op,
                        engine.config(),
                        Some(&caches[ground]),
                    );
                }
            }
        }
    }
    caches.iter().map(RowCache::computed_rows).collect()
}

#[test]
fn low_churn_matrix_repairs_rows_and_stays_bit_identical() {
    let mut rng = SmallRng::seed_from_u64(400);
    let g = barabasi_albert(400, 3, &mut rng);
    let states = low_churn_series(400, 8, &mut rng);
    for config in bank_modes() {
        let engine = SndEngine::new(&g, config);
        let seq = engine.pairwise_distances_seq(&states);
        assert_eq!(engine.pairwise_distances(&states), seq);

        let geoms = bundles(&engine, &states);
        assert_eq!(engine.pairwise_distances_with(&states, &geoms), seq);
        let repaired: usize = geoms.iter().map(StateGeometry::repaired_rows).sum();
        let written: usize = geoms.iter().map(StateGeometry::cached_rows).sum();
        assert!(repaired > 0, "a low-churn series must repair rows");
        assert!(repaired < written, "every group starts with a fresh row");

        // Repairing changes how rows are made, never which rows the cache
        // holds: per bundle, exactly the keys a term-by-term fill writes.
        let rows: Vec<usize> = geoms.iter().map(StateGeometry::cached_rows).collect();
        assert_eq!(rows, reference_row_counts(&engine, &states));
    }
}

#[test]
fn independent_states_fall_back_to_fresh_rows() {
    let mut rng = SmallRng::seed_from_u64(401);
    let g = barabasi_albert(120, 3, &mut rng);
    let states = random_states(120, 5, &mut rng);
    for config in bank_modes() {
        let engine = SndEngine::new(&g, config);
        let geoms = bundles(&engine, &states);
        let m = engine.pairwise_distances_with(&states, &geoms);
        assert_eq!(m, engine.pairwise_distances_seq(&states));
        assert!(geoms.iter().map(StateGeometry::cached_rows).sum::<usize>() > 0);
        assert_eq!(
            geoms
                .iter()
                .map(StateGeometry::repaired_rows)
                .sum::<usize>(),
            0,
            "unrelated snapshots differ in far more than m / 4 edge costs"
        );
    }
}

#[test]
fn partly_warm_bundles_finish_the_matrix_exactly() {
    let mut rng = SmallRng::seed_from_u64(402);
    let g = barabasi_albert(300, 3, &mut rng);
    let states = low_churn_series(300, 7, &mut rng);
    let engine = SndEngine::new(&g, SndConfig::default());
    // Pre-fill the bundles of states 1, 3 and 4 through their sub-matrix,
    // then price the whole set with those bundles in place: cached rows
    // start groups (and serve as repair sources) for the rest.
    let picked = [1usize, 3, 4];
    let sub_states: Vec<NetworkState> = picked.iter().map(|&i| states[i].clone()).collect();
    let sub_geoms = bundles(&engine, &sub_states);
    engine.pairwise_distances_with(&sub_states, &sub_geoms);
    let prefilled: usize = sub_geoms.iter().map(StateGeometry::cached_rows).sum();
    assert!(prefilled > 0);
    let mut sub_geoms = sub_geoms.into_iter();
    let geoms: Vec<StateGeometry> = states
        .iter()
        .enumerate()
        .map(|(i, s)| match picked.contains(&i) {
            true => sub_geoms
                .next()
                .expect("one pre-filled bundle per picked state"),
            false => engine.state_geometry(s),
        })
        .collect();
    assert_eq!(
        engine.pairwise_distances_with(&states, &geoms),
        engine.pairwise_distances_seq(&states)
    );
    assert!(
        geoms
            .iter()
            .map(StateGeometry::repaired_rows)
            .sum::<usize>()
            > 0
    );
    let rows: Vec<usize> = geoms.iter().map(StateGeometry::cached_rows).collect();
    assert_eq!(
        rows,
        reference_row_counts(&engine, &states),
        "pre-filled rows are reused, never written twice"
    );
}

/// The lossless clamp-domain boundary, exactly. With `n = 2089` users and
/// edge costs at most `U`, the sentinel is `U·n + 1`, capped at
/// `u32::MAX / 4`. `U = 513,998` lands the sentinel exactly on the cap:
/// the domain is still lossless and the matrix repairs rows. `U =
/// 513,999` is one past it: the sentinel is capped, and every row must be
/// computed fresh. One raised communication penalty sets `U` in each
/// case. On either side the matrix must match its sequential reference,
/// and so must the delta series — in cluster mode too, where the same
/// predicate decides whether cluster rows are cached and repaired.
#[test]
fn row_repair_stops_exactly_at_the_lossless_clamp_boundary() {
    let n = 2089;
    let mut rng = SmallRng::seed_from_u64(2089);
    // The raised edge joins two always-neutral users that user 0 reaches
    // (and is reached from) at cost 1 each, so no shortest path uses it
    // and no Dial run walks its bucket ring out to `U`.
    let (tail, head) = (n as u32 - 2, n as u32 - 1);
    let mut edges: Vec<(u32, u32)> = barabasi_albert(n - 2, 2, &mut rng).edges().collect();
    edges.extend([(0, tail), (tail, 0), (0, head), (head, 0), (tail, head)]);
    let g = CsrGraph::from_edges(n, &edges);
    let raised = g.find_edge(tail, head).expect("edge added above");
    let mut states = low_churn_series(n, 5, &mut rng);
    for s in &mut states {
        s.set(tail, Opinion::Neutral);
        s.set(head, Opinion::Neutral);
    }
    // Every other penalty is the default's; only the communication term
    // of the raised edge moves `U`.
    let rest = SndConfig::default().ground.max_edge_cost() - 1;
    for (u, lossless) in [(513_998u32, true), (513_999, false)] {
        let mut communication = vec![1; g.edge_count()];
        communication[raised as usize] = u - rest;
        let mut per_bin = SndConfig::default();
        per_bin.ground.communication = Some(communication);
        assert_eq!(per_bin.ground.max_edge_cost(), u);
        let engine = SndEngine::new(&g, per_bin.clone());
        let geom = engine.geometry(&states[0], Opinion::Positive);
        assert_eq!(geom.unreachable, u32::MAX / 4, "U = {u}");
        assert_eq!(geom.is_lossless(n), lossless, "U = {u}");

        let geoms = bundles(&engine, &states);
        let m = engine.pairwise_distances_with(&states, &geoms);
        assert_eq!(m, engine.pairwise_distances_seq(&states), "U = {u}");
        let repaired: usize = geoms.iter().map(StateGeometry::repaired_rows).sum();
        assert_eq!(repaired > 0, lossless, "U = {u}: {repaired} repaired rows");

        let cluster = SndConfig {
            clusters: ClusterSpec::Explicit((0..n as u32).map(|u| u % 2).collect()),
            ..per_bin
        };
        for engine in [engine, SndEngine::new(&g, cluster)] {
            assert_eq!(
                engine.series_distances(&states),
                engine.series_distances_seq(&states),
                "U = {u}"
            );
        }
    }
}
