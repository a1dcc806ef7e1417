//! State deltas: which nodes flipped between two states, and which edge
//! costs can differ because of it.
//!
//! The series workloads (anomaly detection, prediction) compare
//! *consecutive* snapshots of one evolving network; a simulation step
//! typically flips a handful of opinions out of thousands. Everything the
//! ground geometry derives from a state — edge costs, SSSP rows, cluster
//! distances — changes only near those flips, so the delta-aware
//! evaluation path (`snd-core`) rebuilds per-state quantities
//! incrementally instead of from scratch.
//!
//! [`StateDelta::between`] computes the flipped node set and a **touched
//! edge set**: a superset of the edges whose cost can differ between the
//! two states for *any* opinion under *any* supported spreading model.
//! The locality contract per model:
//!
//! * **Agnostic** — `cost(u→v)` depends only on the endpoint stances, so a
//!   flip at `x` touches `in(x) ∪ out(x)`.
//! * **ICC / LTC** — `cost(u→v)` additionally depends on a receiver-side
//!   aggregate over `v`'s *active* in-neighbors (the ICC front
//!   distance/mass, the LTC Ω_in). The aggregate is a function of which
//!   in-neighbors are active, not of their polarity, so it shifts only
//!   when a flip at `x` changes `x`'s activity status — in which case
//!   every in-edge of every out-neighbor of `x` is touched as well.
//!
//! [`update_edge_costs`] then re-derives the cost of exactly the touched
//! edges under the new state, in place, reproducing
//! [`edge_costs`](crate::edge_costs) **bit for bit** (the per-edge kernels
//! and the receiver-side aggregates are shared with the full sweep, so
//! even the floating-point summation order matches). The property tests
//! below assert this for all three spreading models.

use snd_graph::{CsrGraph, EdgeId, NodeId};

use crate::ground::{prob_to_cost, GroundCostConfig, SpreadingModel};
use crate::state::{NetworkState, Opinion};

/// The difference between two network states over one graph: flipped
/// nodes plus the edges whose ground cost may differ (for any opinion).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StateDelta {
    flipped: Vec<NodeId>,
    touched_edges: Vec<EdgeId>,
}

impl StateDelta {
    /// Computes the delta from `a` to `b`. `O(n + Σ deg(flipped) +
    /// Σ in-deg(out-neighbors of activity flips))`.
    pub fn between(g: &CsrGraph, a: &NetworkState, b: &NetworkState) -> Self {
        assert_eq!(a.len(), g.node_count(), "state/graph size mismatch");
        assert_eq!(b.len(), g.node_count(), "state/graph size mismatch");
        let mut flipped = Vec::new();
        for u in 0..g.node_count() as NodeId {
            if a.opinion(u) != b.opinion(u) {
                flipped.push(u);
            }
        }
        let mut touched: Vec<EdgeId> = Vec::new();
        for &x in &flipped {
            touched.extend(g.out_edges(x).map(|(e, _)| e));
            touched.extend(g.in_edges(x).map(|(e, _)| e));
            // Activity change ⇒ receiver-side aggregates (ICC front, LTC
            // Ω_in) shift at every out-neighbor: all their in-edges are
            // suspect.
            if a.opinion(x).is_active() != b.opinion(x).is_active() {
                for &v in g.out_neighbors(x) {
                    touched.extend(g.in_edges(v).map(|(e, _)| e));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        StateDelta {
            flipped,
            touched_edges: touched,
        }
    }

    /// Computes the delta from `anchor` to `anchor ⊕ flips` without ever
    /// materializing the flipped state. `flips` is a candidate flip-list:
    /// `(node, new opinion)` entries in any order, later entries winning on
    /// duplicate nodes, entries equal to the anchor opinion ignored. The
    /// result — flipped set and touched-edge set alike — is identical to
    /// `StateDelta::between(g, anchor, b)` where `b` is `anchor` with the
    /// flips applied. `O(Σ deg(flips))` instead of `O(n + …)`: the
    /// candidate-search workloads price hundreds of flip-lists against one
    /// anchor and must not pay a full-state scan (or clone) per candidate.
    pub fn from_flips(g: &CsrGraph, anchor: &NetworkState, flips: &[(NodeId, Opinion)]) -> Self {
        assert_eq!(anchor.len(), g.node_count(), "state/graph size mismatch");
        let flips = normalize_flips(anchor, flips);
        let mut touched: Vec<EdgeId> = Vec::new();
        let mut flipped = Vec::with_capacity(flips.len());
        for &(x, op) in &flips {
            flipped.push(x);
            touched.extend(g.out_edges(x).map(|(e, _)| e));
            touched.extend(g.in_edges(x).map(|(e, _)| e));
            // Same receiver-side rule as `between`: an activity change
            // spills to every in-edge of every out-neighbor.
            if anchor.opinion(x).is_active() != op.is_active() {
                for &v in g.out_neighbors(x) {
                    touched.extend(g.in_edges(v).map(|(e, _)| e));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        StateDelta {
            flipped,
            touched_edges: touched,
        }
    }

    /// True when the two states are identical (nothing to reprice).
    pub fn is_empty(&self) -> bool {
        self.flipped.is_empty()
    }

    /// Nodes whose opinion differs, ascending.
    pub fn flipped(&self) -> &[NodeId] {
        &self.flipped
    }

    /// Edges whose ground cost may differ, ascending and deduplicated — a
    /// superset of the actually-changed edges for every opinion and
    /// spreading model.
    pub fn touched_edges(&self) -> &[EdgeId] {
        &self.touched_edges
    }
}

/// Normalizes a candidate flip-list against its anchor: sorted by node
/// ascending, duplicate nodes resolved last-wins, entries equal to the
/// anchor's opinion dropped. The result is the canonical set of real
/// changes — exactly the `flipped()` set (with new opinions attached) of
/// the state the flips describe.
pub fn normalize_flips(
    anchor: &NetworkState,
    flips: &[(NodeId, Opinion)],
) -> Vec<(NodeId, Opinion)> {
    let mut out: Vec<(usize, NodeId, Opinion)> = flips
        .iter()
        .enumerate()
        .map(|(i, &(u, op))| (i, u, op))
        .collect();
    // Stable order by node; among duplicates the *latest* entry wins.
    out.sort_by_key(|&(i, u, _)| (u, i));
    let mut dedup: Vec<(NodeId, Opinion)> = Vec::with_capacity(out.len());
    for (_, u, op) in out {
        match dedup.last_mut() {
            Some(last) if last.0 == u => last.1 = op,
            _ => dedup.push((u, op)),
        }
    }
    dedup.retain(|&(u, op)| anchor.opinion(u) != op);
    dedup
}

/// Applies a flip-list to a state, returning the flipped copy (last entry
/// wins on duplicate nodes). The materializing counterpart of
/// [`StateDelta::from_flips`] — used where a real [`NetworkState`] is
/// unavoidable (simulation rollouts, reference-path comparisons).
pub fn apply_flips(anchor: &NetworkState, flips: &[(NodeId, Opinion)]) -> NetworkState {
    let mut s = anchor.clone();
    for &(u, op) in flips {
        s.set(u, op);
    }
    s
}

/// The flip-list carrying `anchor` to `target`: every differing node with
/// its `target` opinion, ascending. The inverse of [`apply_flips`] —
/// `apply_flips(anchor, &flips_between(anchor, target)) == target`.
pub fn flips_between(anchor: &NetworkState, target: &NetworkState) -> Vec<(NodeId, Opinion)> {
    assert_eq!(anchor.len(), target.len(), "state size mismatch");
    (0..anchor.len() as NodeId)
        .filter(|&u| anchor.opinion(u) != target.opinion(u))
        .map(|u| (u, target.opinion(u)))
        .collect()
}

/// Re-derives the cost of the `touched` edges for `(state, op)` in place,
/// leaving every other entry untouched. Given costs valid for a state `a`
/// and the touched set of `StateDelta::between(g, a, state)`, the result
/// is bit-identical to `edge_costs(g, state, op, config)`.
pub fn update_edge_costs(
    g: &CsrGraph,
    state: &NetworkState,
    op: Opinion,
    config: &GroundCostConfig,
    touched: &[EdgeId],
    costs: &mut [u32],
) {
    assert!(op.is_active(), "ground costs require a polar opinion");
    assert_eq!(state.len(), g.node_count(), "state/graph size mismatch");
    assert_eq!(costs.len(), g.edge_count(), "one cost per edge");
    crate::ground::assert_epsilon(config.epsilon);

    // Receiver-side aggregates are shared by every touched edge pointing
    // at the same node; memoize them per receiver.
    let mut agg: std::collections::HashMap<NodeId, (u32, f64)> = std::collections::HashMap::new();
    for &e in touched {
        let u = g.edge_source(e);
        let v = g.edge_target(e);
        let spread = match &config.spreading {
            SpreadingModel::Agnostic(p) => {
                crate::agnostic::edge_penalty(state.opinion(u), state.opinion(v), op, p)
            }
            SpreadingModel::Icc(p) => {
                let &mut (fd, fp) = agg
                    .entry(v)
                    .or_insert_with(|| crate::icc::front_at(g, state, p, v));
                let prob = crate::icc::edge_probability(g, state, op, p, e, u, v, fd, fp);
                prob_to_cost(prob, config.epsilon, config.span)
            }
            SpreadingModel::Ltc(p) => {
                let &mut (_, omega) = agg
                    .entry(v)
                    .or_insert_with(|| (0, crate::ltc::omega_at(g, state, p, v)));
                let prob = crate::ltc::edge_probability(g, state, op, p, e, u, v, omega);
                prob_to_cost(prob, config.epsilon, config.span)
            }
        };
        let comm = config.communication.as_ref().map_or(1, |c| c[e as usize]);
        let adopt = config.adoption.as_ref().map_or(0, |c| c[e as usize]);
        costs[e as usize] = comm.saturating_add(adopt).saturating_add(spread).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agnostic::AgnosticPenalties;
    use crate::edge_costs;
    use crate::icc::{EdgeActivation, IccParams};
    use crate::ltc::{EdgeWeights, LtcParams};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd_graph::generators;

    fn random_state(n: usize, rng: &mut SmallRng) -> NetworkState {
        NetworkState::from_values(&(0..n).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>())
    }

    /// Flip a few random nodes of `a`.
    fn flip_some(a: &NetworkState, count: usize, rng: &mut SmallRng) -> NetworkState {
        let mut b = a.clone();
        for _ in 0..count {
            let u = rng.gen_range(0..a.len() as NodeId);
            let cur = b.opinion(u).value();
            let mut next = rng.gen_range(-1..=1);
            if next == cur {
                next = if cur == 1 { -1 } else { cur + 1 };
            }
            b.set(u, Opinion::from_value(next));
        }
        b
    }

    fn configs(g: &CsrGraph) -> Vec<GroundCostConfig> {
        vec![
            GroundCostConfig::default(),
            GroundCostConfig {
                spreading: SpreadingModel::Agnostic(AgnosticPenalties::new(1, 4, 9)),
                communication: Some(vec![3; g.edge_count()]),
                adoption: Some(vec![2; g.edge_count()]),
                ..Default::default()
            },
            GroundCostConfig::with_model(SpreadingModel::Icc(IccParams::default())),
            GroundCostConfig::with_model(SpreadingModel::Icc(IccParams {
                activation: EdgeActivation::Uniform(0.3),
                distances: Some((0..g.edge_count()).map(|e| 1 + (e as u32 % 3)).collect()),
                epsilon: 1e-6,
            })),
            GroundCostConfig::with_model(SpreadingModel::Ltc(LtcParams::default())),
            GroundCostConfig::with_model(SpreadingModel::Ltc(LtcParams {
                weights: EdgeWeights::Uniform(0.2),
                thresholds: None,
                epsilon: 1e-5,
            })),
        ]
    }

    #[test]
    fn touched_edge_update_matches_full_recompute_for_every_model() {
        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..30 {
            let n = 6 + trial % 20;
            let g = generators::erdos_renyi_gnp(n, 0.25, true, &mut rng);
            let a = random_state(n, &mut rng);
            let b = flip_some(&a, 1 + trial % 4, &mut rng);
            let delta = StateDelta::between(&g, &a, &b);
            for config in configs(&g) {
                for op in [Opinion::Positive, Opinion::Negative] {
                    let mut costs = edge_costs(&g, &a, op, &config);
                    update_edge_costs(&g, &b, op, &config, delta.touched_edges(), &mut costs);
                    let full = edge_costs(&g, &b, op, &config);
                    assert_eq!(
                        costs, full,
                        "trial {trial}, op {op:?}, config {:?}",
                        config.spreading
                    );
                }
            }
        }
    }

    #[test]
    fn from_flips_matches_between_on_random_flip_lists() {
        // The compact flip-list constructor must agree with `between`
        // applied to the materialized state — flipped set and touched-edge
        // set alike — including messy inputs: unsorted, duplicated
        // (last-wins), and containing no-op entries.
        let mut rng = SmallRng::seed_from_u64(2024);
        for trial in 0..40 {
            let n = 5 + trial % 18;
            let g = generators::erdos_renyi_gnp(n, 0.3, true, &mut rng);
            let anchor = random_state(n, &mut rng);
            let mut flips: Vec<(NodeId, Opinion)> = (0..1 + trial % 5)
                .map(|_| {
                    let u = rng.gen_range(0..n as NodeId);
                    (u, Opinion::from_value(rng.gen_range(-1..=1)))
                })
                .collect();
            if trial % 3 == 0 {
                // Duplicate a node with a different opinion: last wins.
                let (u, op) = flips[0];
                flips.push((u, op.opposite()));
            }
            if trial % 4 == 0 {
                // Explicit no-op entry: same opinion as the anchor.
                let u = rng.gen_range(0..n as NodeId);
                flips.push((u, anchor.opinion(u)));
            }
            let applied = apply_flips(&anchor, &flips);
            let via_flips = StateDelta::from_flips(&g, &anchor, &flips);
            let via_between = StateDelta::between(&g, &anchor, &applied);
            assert_eq!(via_flips, via_between, "trial {trial}");
        }
    }

    #[test]
    fn normalize_flips_is_last_wins_and_drops_noops() {
        let anchor = NetworkState::from_values(&[1, 0, -1]);
        let flips = vec![
            (2, Opinion::Positive),
            (0, Opinion::Positive), // no-op: anchor already positive
            (2, Opinion::Neutral),  // overrides the first entry for node 2
            (1, Opinion::Negative),
        ];
        let norm = normalize_flips(&anchor, &flips);
        assert_eq!(
            norm,
            vec![(1, Opinion::Negative), (2, Opinion::Neutral)],
            "ascending, last-wins, no-ops dropped"
        );
    }

    #[test]
    fn empty_delta_between_identical_states() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::erdos_renyi_gnp(10, 0.3, true, &mut rng);
        let a = random_state(10, &mut rng);
        let delta = StateDelta::between(&g, &a, &a.clone());
        assert!(delta.is_empty());
        assert!(delta.flipped().is_empty());
        assert!(delta.touched_edges().is_empty());
    }

    #[test]
    fn polar_flip_touches_only_incident_edges() {
        // 0 -> 1 -> 2: flipping node 0 between + and − (activity
        // unchanged) must not touch edge 1->2 — receiver aggregates only
        // see activity, not polarity.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let a = NetworkState::from_values(&[1, 1, 0]);
        let b = NetworkState::from_values(&[-1, 1, 0]);
        let delta = StateDelta::between(&g, &a, &b);
        assert_eq!(delta.flipped(), &[0]);
        assert_eq!(delta.touched_edges(), &[g.find_edge(0, 1).unwrap()]);
    }

    #[test]
    fn activity_flip_touches_sibling_in_edges() {
        // 0 -> 2, 1 -> 2: node 0 going neutral shifts the aggregate at 2,
        // so the sibling edge 1 -> 2 is touched too.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let a = NetworkState::from_values(&[1, 1, 0]);
        let b = NetworkState::from_values(&[0, 1, 0]);
        let delta = StateDelta::between(&g, &a, &b);
        let mut expect = vec![g.find_edge(0, 2).unwrap(), g.find_edge(1, 2).unwrap()];
        expect.sort_unstable();
        assert_eq!(delta.touched_edges(), expect.as_slice());
    }
}
