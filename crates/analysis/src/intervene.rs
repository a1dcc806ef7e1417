//! Intervention search: greedy/beam planning of network edits that calm
//! polar opinion dynamics, scored by expected **delta-SND drift**.
//!
//! The workload the delta-priced evaluator unlocks (ROADMAP): given a
//! graph, a dynamics model, and a current state, find a budget-`K` plan of
//! typed [`Intervention`]s — edge insertions/deletions or stubborn-agent
//! placements (the PR 4 curmudgeon mask made into an *action*: the node is
//! pinned to one opinion for the rest of the run) — minimizing the
//! expected drift of the network, where drift is the sum of ordered SND
//! over the transitions of seeded simulated rollouts. Unlike the
//! graph-blind polarization indices of Musco et al. / Yi–Patterson, the
//! objective sees the network: calming a hub counts for more than calming
//! a leaf because the transport geometry says so.
//!
//! Every rollout transition is priced through one
//! [`CandidateEvaluator`] carried along the trajectory by the
//! patch/price/unpatch protocol: price the flip-list to the next state,
//! [`patch`](CandidateEvaluator::patch) forward, and after the horizon
//! [`unpatch`](CandidateEvaluator::unpatch) back to the anchor for the
//! next rollout — the repair machinery end to end, no per-step geometry
//! rebuild.
//!
//! **Topology edits take the documented rebuild fallback.** Edge ids are
//! CSR positions, so an insertion or deletion renumbers the cost/row
//! indexing every geometry bundle is built on; scoring or committing an
//! edge action therefore reconstructs the graph
//! ([`CsrGraph::from_edges`]), a fresh engine, and fresh evaluators,
//! while stubborn placements (pure state changes) stay on the patched
//! path. The search is deterministic per [`InterventionConfig::seed`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_core::{CandidateEvaluator, SndConfig, SndEngine};
use snd_graph::{CsrGraph, NodeId};
use snd_models::process::{OpinionDynamics, StubbornVoter};
use snd_models::{flips_between, NetworkState, Opinion};

use crate::error::AnalysisError;
use crate::nan_high_cmp;

/// One network edit the planner may spend budget on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Intervention {
    /// Insert the directed edge `from → to`.
    AddEdge {
        /// Source endpoint.
        from: NodeId,
        /// Target endpoint.
        to: NodeId,
    },
    /// Delete the directed edge `from → to`.
    RemoveEdge {
        /// Source endpoint.
        from: NodeId,
        /// Target endpoint.
        to: NodeId,
    },
    /// Pin `node` to `opinion` for the rest of the run (curmudgeon
    /// placement: the node is set now and re-pinned after every dynamics
    /// step, exactly like a [`StubbornVoter`] mask member).
    Stubborn {
        /// The node made stubborn.
        node: NodeId,
        /// The opinion it is pinned to.
        opinion: Opinion,
    },
}

impl std::fmt::Display for Intervention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Intervention::AddEdge { from, to } => write!(f, "add-edge {from}->{to}"),
            Intervention::RemoveEdge { from, to } => write!(f, "remove-edge {from}->{to}"),
            Intervention::Stubborn { node, opinion } => {
                write!(f, "stubborn {node}={opinion:?}")
            }
        }
    }
}

/// Search knobs. Defaults are sized for CI smoke runs; scale `rollouts`,
/// `horizon`, and the pools up for real planning.
#[derive(Clone, Debug)]
pub struct InterventionConfig {
    /// Number of actions to plan (greedy rounds).
    pub budget: usize,
    /// Beam width: partial plans kept per round (1 = pure greedy).
    pub beam: usize,
    /// Seeded rollouts averaged per candidate score.
    pub rollouts: usize,
    /// Dynamics steps per rollout.
    pub horizon: usize,
    /// Stubborn-placement candidates drawn from the curmudgeon mask.
    pub stubborn_pool: usize,
    /// Placements kept after the immediate-impact pre-screen.
    pub stubborn_keep: usize,
    /// Edge insertions *and* deletions sampled per round (each).
    pub edge_pool: usize,
    /// Master seed: mask draw, pool sampling, and rollout streams.
    pub seed: u64,
}

impl Default for InterventionConfig {
    fn default() -> Self {
        InterventionConfig {
            budget: 2,
            beam: 1,
            rollouts: 2,
            horizon: 3,
            stubborn_pool: 10,
            stubborn_keep: 3,
            edge_pool: 4,
            seed: 7,
        }
    }
}

/// One committed action with the expected drift after applying it.
#[derive(Clone, Debug)]
pub struct PlannedAction {
    /// The network edit.
    pub action: Intervention,
    /// Expected drift of the plan up to and including this action.
    pub drift: f64,
}

/// The planner's result: best-`k` actions in commit order.
#[derive(Clone, Debug)]
pub struct InterventionPlan {
    /// Expected drift of the untouched network (the yardstick).
    pub baseline_drift: f64,
    /// Committed actions, in order; `actions.len() <= budget` (the search
    /// stops early when no candidate improves the incumbent plan).
    pub actions: Vec<PlannedAction>,
    /// Expected drift after the full plan.
    pub final_drift: f64,
}

/// A partial plan carried across rounds. Owns plain data only (edge list,
/// pinned set, state) so the per-round engines/evaluators can be scoped
/// locals — the rebuild fallback in code shape.
#[derive(Clone)]
struct PlanEntry {
    edges: Vec<(NodeId, NodeId)>,
    pinned: Vec<(NodeId, Opinion)>,
    state: NetworkState,
    actions: Vec<PlannedAction>,
    drift: f64,
}

/// Expected drift of `(graph, state, pinned)` under `model`: mean over
/// seeded rollouts of the summed ordered SND along each trajectory, every
/// transition priced and advanced through one patch-carried evaluator.
fn expected_drift(
    g: &CsrGraph,
    engine: &SndEngine<'_>,
    model: &dyn OpinionDynamics,
    state: &NetworkState,
    pinned: &[(NodeId, Opinion)],
    cfg: &InterventionConfig,
) -> f64 {
    if cfg.rollouts == 0 || cfg.horizon == 0 {
        return 0.0;
    }
    let mut evaluator = CandidateEvaluator::new(engine, state.clone());
    let mut total = 0.0;
    for r in 0..cfg.rollouts {
        let mut rng =
            SmallRng::seed_from_u64(cfg.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for _ in 0..cfg.horizon {
            let mut next = evaluator.anchor().clone();
            model.step(g, &mut next, &mut rng);
            for &(u, op) in pinned {
                next.set(u, op);
            }
            let flips = flips_between(evaluator.anchor(), &next);
            total += evaluator.price(&flips);
            evaluator.patch(&flips);
        }
        // Rewind to the anchor for the next rollout: O(1) per step.
        while evaluator.unpatch() {}
    }
    total / cfg.rollouts as f64
}

/// Stubborn-placement candidates: pool nodes from the curmudgeon mask, one
/// flip per active opinion, pre-screened by immediate ordered-SND impact
/// (the delta-priced batch) down to the `stubborn_keep` biggest movers.
fn stubborn_candidates(
    evaluator: &CandidateEvaluator<'_, '_>,
    pinned: &[(NodeId, Opinion)],
    n: usize,
    cfg: &InterventionConfig,
) -> Vec<(NodeId, Opinion)> {
    if cfg.stubborn_pool == 0 || cfg.stubborn_keep == 0 {
        return Vec::new();
    }
    // Expected mask hits ≈ 2 × pool so the take() below usually fills.
    let fraction = ((2 * cfg.stubborn_pool) as f64 / n as f64).min(1.0);
    let mask = StubbornVoter {
        copy_prob: 0.0,
        stubborn_fraction: fraction,
        mask_seed: cfg.seed,
    }
    .stubborn_mask(n);
    let pool: Vec<NodeId> = (0..n as NodeId)
        .filter(|&u| mask[u as usize] && pinned.iter().all(|&(p, _)| p != u))
        .take(cfg.stubborn_pool)
        .collect();
    let flips: Vec<Vec<(NodeId, Opinion)>> = pool
        .iter()
        .flat_map(|&u| {
            [Opinion::Positive, Opinion::Negative]
                .into_iter()
                .filter(move |&op| evaluator.anchor().opinion(u) != op)
                .map(move |op| vec![(u, op)])
        })
        .collect();
    let prices = evaluator.price_candidates(&flips);
    let mut ranked: Vec<usize> = (0..flips.len()).collect();
    // Stable sort: ties resolve to pool order, keeping the plan seeded.
    ranked.sort_by(|&a, &b| nan_high_cmp(prices[b], prices[a]));
    ranked
        .into_iter()
        .take(cfg.stubborn_keep)
        .map(|i| flips[i][0])
        .collect()
}

/// Edge-edit candidates: a seeded sample of existing edges (deletions) and
/// rejection-sampled absent pairs (insertions).
fn edge_candidates(
    g: &CsrGraph,
    edges: &[(NodeId, NodeId)],
    cfg: &InterventionConfig,
) -> Vec<Intervention> {
    if cfg.edge_pool == 0 {
        return Vec::new();
    }
    let n = g.node_count();
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(0xEDCE));
    let mut out = Vec::new();
    // Deletions: sample distinct positions.
    let mut idx: Vec<usize> = (0..edges.len()).collect();
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    for &i in idx.iter().take(cfg.edge_pool) {
        let (u, v) = edges[i];
        out.push(Intervention::RemoveEdge { from: u, to: v });
    }
    // Insertions: rejection-sample absent directed pairs.
    let mut found = 0;
    let mut attempts = 0;
    while found < cfg.edge_pool && attempts < 50 * cfg.edge_pool {
        attempts += 1;
        let u = rng.gen_range(0..n as NodeId);
        let v = rng.gen_range(0..n as NodeId);
        if u == v || g.find_edge(u, v).is_some() {
            continue;
        }
        let action = Intervention::AddEdge { from: u, to: v };
        if out.contains(&action) {
            continue;
        }
        out.push(action);
        found += 1;
    }
    out
}

/// Plans up to `budget` interventions on `(graph, initial)` under `model`,
/// minimizing expected delta-SND drift. Greedy for `beam == 1`, beam
/// search otherwise; deterministic per seed. Errors with
/// [`AnalysisError::NoActions`] when the configured pools produce no
/// candidate action at all.
pub fn search_interventions(
    graph: &CsrGraph,
    model: &dyn OpinionDynamics,
    initial: &NetworkState,
    snd_config: &SndConfig,
    cfg: &InterventionConfig,
) -> Result<InterventionPlan, AnalysisError> {
    let n = graph.node_count();
    let base_edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let baseline = {
        let engine = SndEngine::new(graph, snd_config.clone());
        expected_drift(graph, &engine, model, initial, &[], cfg)
    };
    let mut beam: Vec<PlanEntry> = vec![PlanEntry {
        edges: base_edges,
        pinned: Vec::new(),
        state: initial.clone(),
        actions: Vec::new(),
        drift: baseline,
    }];
    let beam_width = cfg.beam.max(1);

    for round in 0..cfg.budget {
        let mut expansions: Vec<PlanEntry> = Vec::new();
        for entry in &beam {
            let g = CsrGraph::from_edges(n, &entry.edges);
            let engine = SndEngine::new(&g, snd_config.clone());
            let evaluator = CandidateEvaluator::new(&engine, entry.state.clone());

            for (node, opinion) in stubborn_candidates(&evaluator, &entry.pinned, n, cfg) {
                let mut pinned = entry.pinned.clone();
                pinned.push((node, opinion));
                let mut state = entry.state.clone();
                state.set(node, opinion);
                let drift = expected_drift(&g, &engine, model, &state, &pinned, cfg);
                let mut actions = entry.actions.clone();
                actions.push(PlannedAction {
                    action: Intervention::Stubborn { node, opinion },
                    drift,
                });
                expansions.push(PlanEntry {
                    edges: entry.edges.clone(),
                    pinned,
                    state,
                    actions,
                    drift,
                });
            }

            for action in edge_candidates(&g, &entry.edges, cfg) {
                let mut edges = entry.edges.clone();
                match action {
                    Intervention::AddEdge { from, to } => edges.push((from, to)),
                    Intervention::RemoveEdge { from, to } => {
                        edges.retain(|&e| e != (from, to));
                    }
                    Intervention::Stubborn { .. } => {}
                }
                // Rebuild fallback: a topology edit invalidates the CSR
                // edge ids the delta geometry is indexed by, so this
                // candidate is scored on a fresh graph + engine.
                let g2 = CsrGraph::from_edges(n, &edges);
                let engine2 = SndEngine::new(&g2, snd_config.clone());
                let drift = expected_drift(&g2, &engine2, model, &entry.state, &entry.pinned, cfg);
                let mut actions = entry.actions.clone();
                actions.push(PlannedAction { action, drift });
                expansions.push(PlanEntry {
                    edges,
                    pinned: entry.pinned.clone(),
                    state: entry.state.clone(),
                    actions,
                    drift,
                });
            }
        }

        if expansions.is_empty() {
            if round == 0 {
                return Err(AnalysisError::NoActions);
            }
            break;
        }
        // Stable sort: equal drifts resolve to generation order.
        expansions.sort_by(|a, b| nan_high_cmp(a.drift, b.drift));
        expansions.truncate(beam_width);
        if expansions[0].drift >= beam[0].drift {
            break;
        }
        beam = expansions;
    }

    let best = beam.swap_remove(0);
    Ok(InterventionPlan {
        baseline_drift: baseline,
        final_drift: if best.actions.is_empty() {
            baseline
        } else {
            best.drift
        },
        actions: best.actions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_graph::generators::barabasi_albert;
    use snd_models::process::Voting;

    fn setup() -> (CsrGraph, Voting, NetworkState) {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = barabasi_albert(20, 2, &mut rng);
        let model = Voting::new(0.4, 0.05).expect("valid probabilities");
        let vals: Vec<i8> = (0..20).map(|i| [1, 0, -1, 0][i % 4]).collect();
        (g, model, NetworkState::from_values(&vals))
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let (g, model, s0) = setup();
        let cfg = InterventionConfig::default();
        let a = search_interventions(&g, &model, &s0, &SndConfig::default(), &cfg)
            .expect("non-empty pools");
        let b = search_interventions(&g, &model, &s0, &SndConfig::default(), &cfg)
            .expect("non-empty pools");
        let acts_a: Vec<Intervention> = a.actions.iter().map(|p| p.action).collect();
        let acts_b: Vec<Intervention> = b.actions.iter().map(|p| p.action).collect();
        assert_eq!(acts_a, acts_b);
        assert_eq!(a.final_drift.to_bits(), b.final_drift.to_bits());
        assert!(a.actions.len() <= cfg.budget);
        assert!(a.final_drift <= a.baseline_drift);
    }

    #[test]
    fn empty_pools_error_instead_of_planning_nothing() {
        let (g, model, s0) = setup();
        let cfg = InterventionConfig {
            stubborn_pool: 0,
            edge_pool: 0,
            ..Default::default()
        };
        let err = search_interventions(&g, &model, &s0, &SndConfig::default(), &cfg);
        assert!(matches!(err, Err(AnalysisError::NoActions)));
    }

    #[test]
    fn edge_only_search_takes_the_rebuild_fallback() {
        let (g, model, s0) = setup();
        let cfg = InterventionConfig {
            stubborn_pool: 0,
            stubborn_keep: 0,
            edge_pool: 3,
            budget: 1,
            ..Default::default()
        };
        let plan = search_interventions(&g, &model, &s0, &SndConfig::default(), &cfg)
            .expect("edge pool is non-empty");
        for p in &plan.actions {
            assert!(matches!(
                p.action,
                Intervention::AddEdge { .. } | Intervention::RemoveEdge { .. }
            ));
        }
    }

    #[test]
    fn beam_width_two_explores_at_least_as_well_as_greedy() {
        let (g, model, s0) = setup();
        let greedy = InterventionConfig {
            budget: 2,
            ..Default::default()
        };
        let beam = InterventionConfig {
            budget: 2,
            beam: 2,
            ..Default::default()
        };
        let a = search_interventions(&g, &model, &s0, &SndConfig::default(), &greedy)
            .expect("non-empty pools");
        let b = search_interventions(&g, &model, &s0, &SndConfig::default(), &beam)
            .expect("non-empty pools");
        // The beam keeps the greedy path as one of its entries, so it can
        // only match or improve the final drift.
        assert!(b.final_drift <= a.final_drift + 1e-12);
    }
}
