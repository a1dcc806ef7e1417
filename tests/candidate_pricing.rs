//! Guarantees of the delta-priced candidate path: for every registry
//! scenario and every bank mode, `CandidateEvaluator::price_candidates`
//! (flip-list classification against precomputed anchor stats) is
//! **bit-identical** to the sequential scan reference (the anchor's
//! `geometry_seq` plus `sparse::emd_star_term`) and to its own
//! sequential variant — across single- and multi-flip candidates, both
//! opinions, patch→unpatch→repatch round trips, and edge-edit
//! interventions checked against a fresh-engine rebuild.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::analysis::{search_interventions, Intervention, InterventionConfig};
use snd::core::sparse::emd_star_term;
use snd::core::{CandidateEvaluator, ClusterSpec, GammaPolicy, SndConfig, SndEngine};
use snd::data::registry;
use snd::graph::{CsrGraph, NodeId};
use snd::models::process::Voting;
use snd::models::{apply_flips, NetworkState, Opinion};

/// The two bank modes the evaluator specializes: per-bin (active-list
/// bank bins) and cluster-bank (per-cluster count bins).
fn bank_modes() -> Vec<SndConfig> {
    vec![
        SndConfig::default(),
        SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        },
    ]
}

/// The sequential scan reference for ordered SND: `from`'s geometry per
/// opinion and the `O(n)` classification of `emd_star_term`, summed over
/// both opinions.
fn scan_prices(engine: &SndEngine, from: &NetworkState, to: &[NetworkState]) -> Vec<f64> {
    let geoms =
        [Opinion::Positive, Opinion::Negative].map(|op| (op, engine.geometry_seq(from, op)));
    let (g, clustering, config) = (engine.graph(), engine.clustering(), engine.config());
    to.iter()
        .map(|to| {
            let term = |(op, geom): &(Opinion, _)| {
                emd_star_term(g, clustering, geom, from, to, *op, config, None)
            };
            term(&geoms[0]) + term(&geoms[1])
        })
        .collect()
}

/// Random candidate flip-lists exercising both opinions, deactivation,
/// multi-flip candidates, and messy inputs (duplicates, no-ops).
fn random_candidates(n: usize, count: usize, rng: &mut SmallRng) -> Vec<Vec<(NodeId, Opinion)>> {
    (0..count)
        .map(|i| {
            let flips = 1 + i % 5;
            (0..flips)
                .map(|_| {
                    (
                        rng.gen_range(0..n as NodeId),
                        Opinion::from_value(rng.gen_range(-1..=1)),
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn flip_pricing_is_bit_identical_on_every_registry_scenario() {
    for mut scenario in registry() {
        scenario.nodes = 200;
        scenario.steps = 3;
        let series = scenario
            .run(13)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let anchor = series.states[series.states.len() - 1].clone();
        let n = series.graph.node_count();
        let mut rng = SmallRng::seed_from_u64(29);
        for config in bank_modes() {
            let engine = SndEngine::new(&series.graph, config);
            let evaluator = CandidateEvaluator::new(&engine, anchor.clone());
            let candidates = random_candidates(n, 10, &mut rng);
            let states: Vec<NetworkState> =
                candidates.iter().map(|f| apply_flips(&anchor, f)).collect();
            let scratch = scan_prices(&engine, &anchor, &states);
            let par = evaluator.price_candidates(&candidates);
            let seq = evaluator.price_candidates_seq(&candidates);
            for i in 0..candidates.len() {
                assert_eq!(
                    par[i].to_bits(),
                    scratch[i].to_bits(),
                    "{}: candidate {i} delta vs scratch",
                    scenario.name
                );
                assert_eq!(
                    par[i].to_bits(),
                    seq[i].to_bits(),
                    "{}: candidate {i} par vs seq",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn patch_round_trip_is_bit_identical_on_every_registry_scenario() {
    for mut scenario in registry() {
        scenario.nodes = 150;
        scenario.steps = 2;
        let series = scenario
            .run(19)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let anchor = series.states[series.states.len() - 1].clone();
        let n = series.graph.node_count();
        let mut rng = SmallRng::seed_from_u64(31);
        for config in bank_modes() {
            let engine = SndEngine::new(&series.graph, config);
            let mut evaluator = CandidateEvaluator::new(&engine, anchor.clone());
            let probes = random_candidates(n, 5, &mut rng);
            let before = evaluator.price_candidates_seq(&probes);

            // Patch to a flipped anchor: prices now match a *fresh*
            // evaluator (and the scan reference) at the new anchor.
            let move_flips: Vec<(NodeId, Opinion)> = (0..4)
                .map(|_| {
                    (
                        rng.gen_range(0..n as NodeId),
                        Opinion::from_value(rng.gen_range(-1..=1)),
                    )
                })
                .collect();
            evaluator.patch(&move_flips);
            let patched_anchor = evaluator.anchor().clone();
            assert_eq!(patched_anchor, apply_flips(&anchor, &move_flips));
            let patched = evaluator.price_candidates_seq(&probes);
            let probe_states: Vec<NetworkState> = probes
                .iter()
                .map(|probe| apply_flips(&patched_anchor, probe))
                .collect();
            let reference = scan_prices(&engine, &patched_anchor, &probe_states);
            for i in 0..probes.len() {
                assert_eq!(
                    patched[i].to_bits(),
                    reference[i].to_bits(),
                    "{}: patched probe {i}",
                    scenario.name
                );
            }

            // Unpatch restores the original prices bit for bit; repatch
            // reproduces the patched ones.
            assert!(evaluator.unpatch());
            let restored = evaluator.price_candidates_seq(&probes);
            for i in 0..probes.len() {
                assert_eq!(
                    restored[i].to_bits(),
                    before[i].to_bits(),
                    "{}: restored probe {i}",
                    scenario.name
                );
            }
            evaluator.patch(&move_flips);
            let repatched = evaluator.price_candidates_seq(&probes);
            for i in 0..probes.len() {
                assert_eq!(
                    repatched[i].to_bits(),
                    patched[i].to_bits(),
                    "{}: repatched probe {i}",
                    scenario.name
                );
            }
        }
    }
}

/// Edge-edit interventions take the documented rebuild fallback: applying
/// a planned edge action by hand and rebuilding graph + engine from
/// scratch must price candidates identically to a second independent
/// rebuild — and the planner itself must be deterministic per seed.
/// A patch steps a clone of the anchor bundle, so the bundle an unpatch
/// restores still holds its cluster rows and γ balls: patching again
/// takes the repair path (γ balls carried, repaired or re-run) exactly as
/// the first patch did, not the fresh-build fallback (no ball steps).
#[test]
fn patch_after_unpatch_still_repairs_cluster_banks() {
    let mut rng = SmallRng::seed_from_u64(8);
    let g = snd::graph::generators::barabasi_albert(120, 3, &mut rng);
    let n = g.node_count();
    let anchor =
        NetworkState::from_values(&(0..n).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>());
    let engine = SndEngine::new(&g, bank_modes().swap_remove(1));
    let mut evaluator = CandidateEvaluator::new(&engine, anchor.clone());
    let probes = random_candidates(n, 4, &mut rng);
    let flips = [(5, Opinion::Positive), (77, Opinion::Negative)];
    let fresh = CandidateEvaluator::new(&engine, apply_flips(&anchor, &flips));

    evaluator.patch(&flips);
    let first = evaluator.ball_steps();
    assert!(
        first.carried + first.repaired + first.rerun > 0,
        "{first:?}"
    );
    assert!(evaluator.unpatch());
    evaluator.patch(&flips);
    assert_eq!(evaluator.ball_steps(), first, "second patch repairs again");
    assert_eq!(
        evaluator.price_candidates_seq(&probes),
        fresh.price_candidates_seq(&probes)
    );
}

#[test]
fn edge_edit_interventions_match_a_fresh_engine_rebuild() {
    let mut rng = SmallRng::seed_from_u64(41);
    let g = snd::graph::generators::barabasi_albert(60, 2, &mut rng);
    let vals: Vec<i8> = (0..60).map(|i| [1, 0, -1, 0, 0, 1][i % 6]).collect();
    let state = NetworkState::from_values(&vals);
    let model = Voting::new(0.3, 0.05).expect("valid probabilities");
    let cfg = InterventionConfig {
        budget: 1,
        stubborn_pool: 0,
        stubborn_keep: 0,
        edge_pool: 4,
        ..Default::default()
    };
    let plan = search_interventions(&g, &model, &state, &SndConfig::default(), &cfg)
        .expect("edge pool is non-empty");
    let plan2 = search_interventions(&g, &model, &state, &SndConfig::default(), &cfg)
        .expect("edge pool is non-empty");
    let acts: Vec<Intervention> = plan.actions.iter().map(|p| p.action).collect();
    let acts2: Vec<Intervention> = plan2.actions.iter().map(|p| p.action).collect();
    assert_eq!(acts, acts2, "plans are deterministic per seed");

    // Apply every planned edge action to the edge list and rebuild.
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    for p in &plan.actions {
        match p.action {
            Intervention::AddEdge { from, to } => edges.push((from, to)),
            Intervention::RemoveEdge { from, to } => edges.retain(|&e| e != (from, to)),
            Intervention::Stubborn { .. } => panic!("edge-only search planned a pin"),
        }
    }
    let g_a = CsrGraph::from_edges(60, &edges);
    let g_b = CsrGraph::from_edges(60, &edges);
    let engine_a = SndEngine::new(&g_a, SndConfig::default());
    let engine_b = SndEngine::new(&g_b, SndConfig::default());
    let eval_a = CandidateEvaluator::new(&engine_a, state.clone());
    let eval_b = CandidateEvaluator::new(&engine_b, state.clone());
    let candidates = random_candidates(60, 8, &mut rng);
    let a = eval_a.price_candidates(&candidates);
    let b = eval_b.price_candidates_seq(&candidates);
    let states: Vec<NetworkState> = candidates.iter().map(|c| apply_flips(&state, c)).collect();
    let scan = scan_prices(&engine_b, &state, &states);
    for i in 0..candidates.len() {
        assert_eq!(a[i].to_bits(), b[i].to_bits(), "rebuild A vs B {i}");
        assert_eq!(a[i].to_bits(), scan[i].to_bits(), "rebuild vs scan {i}");
    }
}
