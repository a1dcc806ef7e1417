//! Landmark rows repaired along a series price exactly as fresh ones.
//!
//! Under an approximate tier the tile plans, and with them both series
//! surfaces, write each state's `2·L` landmark SSSP rows ahead of the
//! solves, repairing every row from the previous state's row through the
//! edge costs that changed. Shortest-path distances are the unique
//! relaxation fixpoint, so a repaired row equals a from-scratch row bit
//! for bit, and every transition of a series must price exactly as the
//! same pair priced on its own from fresh bundles — for every registry
//! scenario (all model families and graph generators) and across the
//! high-churn boundary where repair gives way to fresh rows.

use snd::core::{ApproxConfig, ShardPlan, SndConfig, SndEngine, TileGrid, TileSet, TileWorkspace};
use snd::data::registry;
use snd::graph::CsrGraph;
use snd::models::NetworkState;

/// Approximate-tier config that builds sketches on tiny test graphs.
fn approx(epsilon: f64, landmarks: usize) -> SndConfig {
    SndConfig {
        approx: Some(ApproxConfig {
            epsilon,
            max_landmarks: landmarks,
            min_nodes: 0,
            ..Default::default()
        }),
        ..SndConfig::default()
    }
}

#[test]
fn epsilon_zero_series_midpoints_match_the_exact_series() {
    for mut sc in registry() {
        sc.nodes = 40;
        sc.steps = 4;
        let series = sc.run(7).expect(sc.name);
        let exact =
            SndEngine::new(&series.graph, SndConfig::default()).series_distances(&series.states);
        let intervals = SndEngine::new(&series.graph, approx(0.0, 2))
            .series_intervals(&series.states)
            .expect("per-bin banks support the approximate tier");
        assert_eq!(intervals.len(), exact.len());
        for (t, (iv, exact)) in intervals.iter().zip(&exact).enumerate() {
            let tol = 1e-9 * (1.0 + exact.abs());
            assert!(
                iv.width() <= tol,
                "{} t={t}: ε = 0 must collapse the interval, width {}",
                sc.name,
                iv.width()
            );
            assert!(
                (iv.midpoint() - exact).abs() <= tol,
                "{} t={t}: ε = 0 midpoint {} vs exact {exact}",
                sc.name,
                iv.midpoint()
            );
        }
    }
}

/// Every transition of both series surfaces equals the same pair priced
/// on its own: `series_distances` equals `distance` and `series_intervals`
/// equals `distance_interval`, bit for bit. Returns how many transitions
/// were priced as proper (non-zero-width) intervals.
fn assert_series_equal_pairs(name: &str, engine: &SndEngine<'_>, states: &[NetworkState]) -> usize {
    let values = engine.series_distances(states);
    let intervals = engine.series_intervals(states).expect("per-bin banks");
    assert_eq!(values.len(), states.len() - 1);
    assert_eq!(intervals.len(), states.len() - 1);
    let mut widened = 0;
    for (t, w) in states.windows(2).enumerate() {
        let d = engine.distance(&w[0], &w[1]);
        assert_eq!(
            values[t].to_bits(),
            d.to_bits(),
            "{name} t={t}: series {} vs distance {d}",
            values[t]
        );
        let (iv, fresh) = (
            intervals[t],
            engine.distance_interval(&w[0], &w[1]).unwrap(),
        );
        assert_eq!(
            (iv.lower.to_bits(), iv.upper.to_bits()),
            (fresh.lower.to_bits(), fresh.upper.to_bits()),
            "{name} t={t}: series {iv:?} vs distance_interval {fresh:?}"
        );
        widened += usize::from(iv.width() > 0.0);
    }
    widened
}

/// Both series surfaces route each term exactly as a one-off pair does:
/// with the approximate tier active for scalar queries (`min_nodes` 0)
/// and more than three landmarks, every transition's value and certified
/// interval — priced over landmark rows repaired along the series —
/// equal `distance` and `distance_interval` on the same pair, which build
/// every row from scratch, bit for bit.
#[test]
fn active_tier_series_equals_pairwise_distance_bit_for_bit() {
    let mut widened = 0;
    for mut sc in registry().into_iter().take(4) {
        sc.nodes = 300;
        sc.steps = 6;
        let series = sc.run(3).expect(sc.name);
        let engine = SndEngine::new(&series.graph, approx(0.2, 4));
        widened += assert_series_equal_pairs(sc.name, &engine, &series.states);
    }
    // The sketch tier, not only its tiny-problem exact shortcut, ran.
    assert!(widened > 0, "no transition was priced as a proper interval");
}

/// The same series-equals-pairs check on a hand-built series that
/// straddles `REPAIR_EDGE_FRACTION`: single flips touch a handful of path
/// edges (rows repair), a global flip touches every edge (rows are
/// computed fresh), then a single flip repairs on top of the fresh rows
/// again.
#[test]
fn sketch_repair_survives_the_high_churn_fallback_boundary() {
    let n = 48usize;
    let g = snd::graph::generators::path_graph(n);
    let base: Vec<i8> = (0..n).map(|u| (u % 3) as i8 - 1).collect();
    let mut one_flip = base.clone();
    one_flip[0] = 1;
    let all_flip: Vec<i8> = one_flip.iter().map(|v| -v).collect();
    let mut settle = all_flip.clone();
    settle[n - 1] = 0;
    let states: Vec<NetworkState> = [base, one_flip, all_flip, settle]
        .iter()
        .map(|v| NetworkState::from_values(v))
        .collect();
    let engine = SndEngine::new(&g, approx(0.2, 4));
    assert_series_equal_pairs("high-churn boundary", &engine, &states);
}

/// An approx config whose `min_nodes` the graph does not reach leaves the
/// engine exact: its tile plans price the same values from the same rows
/// as the engine without the config, and build no landmark row.
#[test]
fn an_inactive_tier_builds_no_landmark_rows() {
    let run = |g: &CsrGraph, config: SndConfig, s: &[NetworkState]| {
        let engine = SndEngine::new(g, config);
        let plan = ShardPlan::full(TileGrid::new(s.len(), 2));
        let mut ws = TileWorkspace::new();
        let fp = engine.shard_fingerprint(s);
        let mut set = TileSet::empty(*plan.grid(), fp);
        engine
            .pairwise_tiles_in(s, &plan, &mut ws, &mut set, &mut |_| Ok(()))
            .unwrap();
        assert_eq!(
            set.certified_tile_count(),
            0,
            "the exact tier certifies nothing"
        );
        (set.to_matrix().unwrap(), ws.fresh_rows())
    };
    for mut sc in registry().into_iter().take(3) {
        sc.nodes = 200;
        sc.steps = 5;
        let series = sc.run(5).expect(sc.name);
        let inactive = SndConfig {
            approx: Some(ApproxConfig {
                min_nodes: series.graph.node_count() + 1,
                ..Default::default()
            }),
            ..SndConfig::default()
        };
        let (exact, exact_rows) = run(&series.graph, SndConfig::default(), &series.states);
        let (gated, gated_rows) = run(&series.graph, inactive, &series.states);
        assert_eq!(gated, exact, "{}: values", sc.name);
        assert_eq!(gated_rows, exact_rows, "{}: fresh rows", sc.name);
        assert!(exact_rows > 0, "{}: the plan computed no row", sc.name);
    }
}

/// The tile path keeps a fresh-bundle reference: with the approximate
/// tier active, every pair's certified interval in a full-plan tile set
/// — priced over bundles built along the snapshot order — equals
/// `distance_interval` on the same pair, which builds both bundles from
/// scratch, bit for bit.
#[test]
fn full_plan_tile_intervals_equal_fresh_distance_intervals_bit_for_bit() {
    let mut widened = 0;
    for mut sc in registry().into_iter().take(3) {
        sc.nodes = 200;
        sc.steps = 5;
        let series = sc.run(11).expect(sc.name);
        let s = &series.states;
        let engine = SndEngine::new(&series.graph, approx(0.5, 4));
        let tiles = engine.pairwise_tiles(s, &ShardPlan::full(TileGrid::new(s.len(), 2)));
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                let tile = tiles
                    .pair_interval(i, j)
                    .expect("an active approximate tier certifies every tile");
                let fresh = engine.distance_interval(&s[i], &s[j]).unwrap();
                widened += usize::from(fresh.width() > 0.0);
                assert_eq!(
                    (tile.lower.to_bits(), tile.upper.to_bits()),
                    (fresh.lower.to_bits(), fresh.upper.to_bits()),
                    "{} ({i},{j}): tile {tile:?} vs fresh {fresh:?}",
                    sc.name
                );
            }
        }
    }
    // The sketch tier, not only its tiny-problem exact shortcut, ran.
    assert!(widened > 0, "no pair was priced as a proper interval");
}
