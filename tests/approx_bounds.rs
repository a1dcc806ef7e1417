//! Certified-interval guarantees of the approximate tier: for every
//! registry scenario (all eight model families, every graph generator)
//! the `[lower, upper]` interval returned by the landmark-sketch +
//! coarsening path must bracket the exact Theorem 4 value, the interval
//! width must respect the requested relative ε, and refinement at ε = 0
//! must converge to the exact value. Random graphs and parameters are
//! covered by proptest below; the in-crate tests in
//! `snd_core::approx` pin the per-term machinery.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::core::{ApproxConfig, SndConfig, SndEngine};
use snd::data::registry;
use snd::graph::generators::{barabasi_albert, erdos_renyi_gnp};
use snd::models::{NetworkState, Opinion};

/// An approximate-tier config that actually exercises the sketch on tiny
/// graphs: no minimum node count, few landmarks so envelopes are loose
/// and refinement has real work to do.
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
fn intervals_bracket_exact_on_every_registry_scenario() {
    for mut sc in registry() {
        sc.nodes = 60;
        sc.steps = 4;
        let series = sc.run(11).expect(sc.name);
        let exact_engine = SndEngine::new(&series.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&series.graph, approx(0.25, 2));
        for (t, w) in series.states.windows(2).enumerate() {
            let exact = exact_engine.distance(&w[0], &w[1]);
            let iv = approx_engine
                .distance_interval(&w[0], &w[1])
                .expect("per-bin banks support the approximate tier");
            assert!(
                iv.contains(exact),
                "{} t={t}: exact {exact} outside [{}, {}]",
                sc.name,
                iv.lower,
                iv.upper
            );
            // The certificate honors the requested relative gap. Each of
            // the four EMD* terms meets ε individually, so their weighted
            // sum does too.
            assert!(
                iv.width() <= 0.25 * iv.upper + 1e-9,
                "{} t={t}: width {} over ε·upper {}",
                sc.name,
                iv.width(),
                0.25 * iv.upper
            );
        }
        // The series path returns one certified interval per transition,
        // each bracketing the exact series value at that step.
        let exact_series = exact_engine.series_distances(&series.states);
        let intervals = approx_engine.series_intervals(&series.states).unwrap();
        assert_eq!(intervals.len(), exact_series.len());
        for (t, (iv, exact)) in intervals.iter().zip(&exact_series).enumerate() {
            assert!(
                iv.contains(*exact),
                "{} series t={t}: exact {exact} outside [{}, {}]",
                sc.name,
                iv.lower,
                iv.upper
            );
        }
    }
}

#[test]
fn epsilon_zero_refines_to_exact_on_every_registry_scenario() {
    for mut sc in registry() {
        sc.nodes = 40;
        sc.steps = 3;
        let series = sc.run(5).expect(sc.name);
        let exact_engine = SndEngine::new(&series.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&series.graph, approx(0.0, 2));
        for (t, w) in series.states.windows(2).enumerate() {
            let exact = exact_engine.distance(&w[0], &w[1]);
            let iv = approx_engine.distance_interval(&w[0], &w[1]).unwrap();
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

/// A pair on `n` users where `+` is held by `a` alone, by both states or
/// by `b` alone with the given percentages and nobody holds `−`: `a` is
/// the heavier `+` histogram, its users outside `b` are the rows of both
/// `+` terms, and the per-bin banks sit on `b`'s `+` bins.
fn imbalanced_pair(n: usize, pct: [u32; 3], rng: &mut SmallRng) -> (NetworkState, NetworkState) {
    let (mut va, mut vb) = (vec![0i8; n], vec![0i8; n]);
    for (x, y) in va.iter_mut().zip(vb.iter_mut()) {
        let r = rng.gen_range(0..100);
        if r < pct[0] + pct[1] {
            *x = 1;
        }
        if (pct[0]..pct[0] + pct[1] + pct[2]).contains(&r) {
            *y = 1;
        }
    }
    (
        NetworkState::from_values(&va),
        NetworkState::from_values(&vb),
    )
}

/// Sides past the singleton-seeding limit (1,024 residual users) and bank
/// sides of hundreds to over a thousand bins start as coarse groups cut
/// on their widest landmark coordinate; the scenario tests above stay far
/// below that size. The first pair checks the bracket and ε at coarse
/// granularity; refining 1,000+ rows all the way to exact would cost
/// hundreds of envelope solves of about 1,000 × 1,000 cells, so ε = 0 runs
/// on a pair whose rows start as singletons and whose bank side is cut.
#[test]
fn coarse_seeded_sides_bracket_exact_and_refine_to_exact() {
    let mut rng = SmallRng::seed_from_u64(30);
    let g = barabasi_albert(3_000, 1, &mut rng);
    let exact_engine = SndEngine::new(&g, SndConfig::default());
    let plus = Opinion::Positive;

    let (a, b) = imbalanced_pair(3_000, [35, 34, 2], &mut rng);
    let rows = (0..3_000)
        .filter(|&v| a.opinion(v) == plus && b.opinion(v) != plus)
        .count();
    assert!(rows > 1_024, "the heavier side must seed coarse: {rows}");
    assert!(b.count(plus) > 1_000, "bank bins: {}", b.count(plus));
    let exact = exact_engine.distance(&a, &b);
    let iv = SndEngine::new(&g, approx(0.9, 8))
        .distance_interval(&a, &b)
        .unwrap();
    assert!(
        iv.contains(exact),
        "exact {exact} outside [{}, {}]",
        iv.lower,
        iv.upper
    );
    assert!(
        iv.width() <= 0.9 * iv.upper + 1e-9,
        "width {} over ε·upper {}",
        iv.width(),
        0.9 * iv.upper
    );

    let (a, b) = imbalanced_pair(3_000, [2, 10, 1], &mut rng);
    let exact = exact_engine.distance(&a, &b);
    let iv = SndEngine::new(&g, approx(0.0, 4))
        .distance_interval(&a, &b)
        .unwrap();
    let tol = 1e-9 * (1.0 + exact.abs());
    assert!(
        iv.width() <= tol && (iv.midpoint() - exact).abs() <= tol,
        "ε = 0 must collapse to exact {exact}, got [{}, {}]",
        iv.lower,
        iv.upper
    );
}

fn arb_state(n: usize) -> impl Strategy<Value = NetworkState> {
    proptest::collection::vec(-1i8..=1, n).prop_map(|v| NetworkState::from_values(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bracketing holds for arbitrary state pairs on random graphs, for
    /// any ε and any landmark budget — not just the scenario dynamics.
    #[test]
    fn intervals_bracket_exact_on_random_graphs(
        seed in 0u64..500,
        epsilon in 0.0f64..0.6,
        landmarks in 1usize..5,
        a in arb_state(36),
        b in arb_state(36),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = erdos_renyi_gnp(36, 0.12, true, &mut rng);
        let t0 = std::time::Instant::now();
    let exact = SndEngine::new(&g, SndConfig::default()).distance(&a, &b);
    eprintln!("XX exact {:?}", t0.elapsed());
        let iv = SndEngine::new(&g, approx(epsilon, landmarks))
            .distance_interval(&a, &b)
            .unwrap();
        prop_assert!(iv.lower <= iv.upper);
        prop_assert!(iv.contains(exact),
            "exact {exact} outside [{}, {}] (ε {epsilon}, L {landmarks})",
            iv.lower, iv.upper);
    }
}
