//! Certified series intervals do not depend on the series behind them.
//!
//! `series_intervals` carries one delta-repaired sketch bundle along the
//! series, over a landmark set fixed when the first snapshot is built.
//! Repaired sketch rows are bit-identical to fresh ones
//! (`tests/sketch_repair.rs`), so each transition's interval must equal
//! the interval of that transition priced as a two-state series, bit for
//! bit: no earlier snapshot may steer how a later one is priced.

use snd::core::{ApproxConfig, SndConfig, SndEngine};
use snd::data::registry;

#[test]
fn series_intervals_are_history_free() {
    let config = SndConfig {
        approx: Some(ApproxConfig {
            epsilon: 0.25,
            max_landmarks: 8,
            min_nodes: 0,
            ..Default::default()
        }),
        ..SndConfig::default()
    };
    for mut sc in registry() {
        sc.nodes = 500;
        sc.steps = 6;
        let series = sc.run(5).expect(sc.name);
        let s = &series.states;
        let engine = SndEngine::new(&series.graph, config.clone());
        let walked = engine
            .series_intervals(s)
            .expect("per-bin banks support the approximate tier");
        assert_eq!(walked.len(), s.len() - 1);
        for (t, iv) in (1..s.len()).zip(&walked) {
            let alone = engine.series_intervals(&s[t - 1..=t]).unwrap()[0];
            assert_eq!(
                (iv.lower.to_bits(), iv.upper.to_bits()),
                (alone.lower.to_bits(), alone.upper.to_bits()),
                "{} t={t}: walked {iv:?} vs priced alone {alone:?}",
                sc.name
            );
        }
    }
}
