//! Series evaluation memory contract: `SndEngine::series_distances`, the
//! superdiagonal tile plan, holds at most **two** `StateGeometry` bundles
//! alive at any instant — each bundle carries its row cache and shares
//! O(n) geometry per opinion with the bundle chain, so a long series on a
//! large graph must never hold T of them: the plan drops each bundle
//! after the last transition that reads it.
//!
//! This test lives alone in its own integration binary: the live/peak
//! accounting is process-wide, and concurrent tests creating bundles
//! would inflate the high-water mark.

use snd::core::{ClusterSpec, GammaPolicy, SndConfig, SndEngine, StateGeometry};
use snd::data::registry;

#[test]
fn series_evaluation_keeps_at_most_two_bundles_alive() {
    let mut scenario = registry().into_iter().next().expect("non-empty registry");
    scenario.nodes = 150;
    scenario.steps = 9;
    let series = scenario.run(8).expect("registry scenario runs");

    for config in [
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 3 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
    ] {
        let engine = SndEngine::new(&series.graph, config);
        assert_eq!(StateGeometry::live_count(), 0, "no bundles before the run");
        StateGeometry::reset_peak_live();
        let distances = engine.series_distances(&series.states);
        assert_eq!(distances.len(), series.states.len() - 1);
        // The superdiagonal plan builds each state's bundle when its first
        // transition comes up and drops it after its last, so two are
        // live at once — the bound catches any regression back to
        // per-state (O(T)) bundle materialization.
        assert!(
            StateGeometry::peak_live() <= 2,
            "series evaluation must keep at most 2 bundles alive, saw {}",
            StateGeometry::peak_live()
        );
        assert_eq!(StateGeometry::live_count(), 0, "all bundles dropped");
    }

    // Sanity-check the instrumentation itself: the all-pairs batch path
    // legitimately holds one bundle per state at once.
    let engine = SndEngine::new(&series.graph, SndConfig::default());
    StateGeometry::reset_peak_live();
    let _ = engine.pairwise_distances(&series.states[..4]);
    assert!(
        StateGeometry::peak_live() >= 4,
        "batch path holds all bundles"
    );
    assert_eq!(StateGeometry::live_count(), 0);
}
