//! Delta-repaired landmark sketches are bit-identical to fresh builds.
//!
//! The certified series path carries one sketch bundle along the series,
//! repairing the `2·L` landmark SSSP rows through each transition's
//! touched edges instead of resketching every snapshot. Shortest-path
//! distances are the unique relaxation fixpoint, so a repaired row must
//! equal a from-scratch row **bit for bit** — these tests pin that for
//! every registry scenario (all model families and graph generators),
//! both opinion planes, both row directions (to- and from-landmark), and
//! across the high-churn boundary where the repair path gives way to the
//! fresh-rebuild fallback.

use snd::core::{ApproxConfig, DeltaStateGeometry, ShardPlan, SndConfig, SndEngine, TileGrid};
use snd::data::registry;
use snd::models::{NetworkState, Opinion, StateDelta};

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

/// Every landmark row of the stepped bundle's sketches must equal the
/// corresponding row of a bundle built from scratch at the same state.
fn assert_sketches_match(
    name: &str,
    t: usize,
    stepped: &DeltaStateGeometry,
    fresh: &DeltaStateGeometry,
) {
    for op in [Opinion::Positive, Opinion::Negative] {
        let (s, f) = match (stepped.sketch(op), fresh.sketch(op)) {
            (Some(s), Some(f)) => (s, f),
            (None, None) => continue,
            (s, f) => panic!(
                "{name} t={t} {op:?}: sketch presence diverged (stepped {}, fresh {})",
                s.is_some(),
                f.is_some()
            ),
        };
        assert_eq!(
            s.landmarks(),
            f.landmarks(),
            "{name} t={t} {op:?}: landmark sets"
        );
        for idx in 0..s.landmark_count() {
            for reverse in [false, true] {
                assert_eq!(
                    s.row(idx, reverse),
                    f.row(idx, reverse),
                    "{name} t={t} {op:?} landmark {idx} reverse={reverse}: repaired row diverged"
                );
            }
        }
    }
}

#[test]
fn stepped_sketches_equal_fresh_builds_on_every_registry_scenario() {
    for mut sc in registry() {
        sc.nodes = 60;
        sc.steps = 4;
        let series = sc.run(11).expect(sc.name);
        let engine = SndEngine::new(&series.graph, approx(0.25, 3));
        let mut cur = DeltaStateGeometry::fresh(&engine, &series.states[0]);
        assert!(
            cur.sketch(Opinion::Positive).is_some() && cur.sketch(Opinion::Negative).is_some(),
            "{}: per-bin banks on a lossless domain must carry sketches",
            sc.name
        );
        for t in 1..series.states.len() {
            let delta =
                StateDelta::between(&series.graph, &series.states[t - 1], &series.states[t]);
            if !delta.is_empty() {
                cur = cur.step(&engine, &series.states[t], &delta);
            }
            let fresh = DeltaStateGeometry::fresh(&engine, &series.states[t]);
            assert_sketches_match(sc.name, t, &cur, &fresh);
        }
    }
}

#[test]
fn sketch_repair_survives_the_high_churn_fallback_boundary() {
    // A hand-built series that straddles `REPAIR_EDGE_FRACTION`: single
    // flips touch a handful of path edges (repair path), a global flip
    // touches every edge (fresh-rebuild fallback), then a single flip
    // repairs on top of the rebuilt sketch again.
    let n = 48usize;
    let g = snd::graph::generators::path_graph(n);
    let engine = SndEngine::new(&g, approx(0.25, 3));

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

    let mut cur = DeltaStateGeometry::fresh(&engine, &states[0]);
    for t in 1..states.len() {
        let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
        assert!(!delta.is_empty());
        cur = cur.step(&engine, &states[t], &delta);
        let fresh = DeltaStateGeometry::fresh(&engine, &states[t]);
        assert_sketches_match("high-churn boundary", t, &cur, &fresh);
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

/// The scalar series routes each term exactly as a one-off distance does:
/// with the approximate tier active for scalar queries (`min_nodes` 0),
/// every transition of `series_distances` — priced over delta-repaired
/// sketch rows — equals `distance` on the same pair, which fetches fresh
/// landmark rows, bit for bit.
#[test]
fn active_tier_series_equals_pairwise_distance_bit_for_bit() {
    for mut sc in registry().into_iter().take(4) {
        sc.nodes = 300;
        sc.steps = 6;
        let series = sc.run(3).expect(sc.name);
        let engine = SndEngine::new(&series.graph, approx(0.2, 4));
        let values = engine.series_distances(&series.states);
        assert_eq!(values.len(), series.states.len() - 1);
        for (t, (w, v)) in series.states.windows(2).zip(&values).enumerate() {
            let d = engine.distance(&w[0], &w[1]);
            assert_eq!(
                v.to_bits(),
                d.to_bits(),
                "{} t={t}: series {v} vs distance {d}",
                sc.name
            );
        }
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
