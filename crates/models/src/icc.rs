//! Independent Cascade with Competition (Carnes et al.) spreading
//! probabilities (§3).
//!
//! In the distance-based ICC model every edge carries an activation
//! probability `p_uv` and a distance `d_uv`; a user adopts the opinion of
//! the *nearest* active influencers, weighted by activation probabilities.
//! The spreading probability of edge `(u, v)` for opinion `op` in state `G`
//! is:
//!
//! ```text
//! Pout(u→v) = 0                    if d_v({u}) > d_v(I)     (u not nearest)
//!             1                    if G[u] = op ∧ G[v] = op
//!             max(0, p_uv − ε)/pᵃ  if G[u] = op ∧ G[v] = 0
//!             ε                    otherwise
//! ```
//!
//! where `d_v(I)` is the distance from the active set to `v` and `pᵃ(G, v)`
//! sums `p_uv` over active front users. Following the paper's §3 remark, all
//! "impossible" events (the `0` branch included) receive probability `ε` so
//! distances stay finite.
//!
//! **Clarification (documented in DESIGN.md):** the paper writes `d_v({u})`
//! as a set-to-node shortest-path distance; evaluating it exactly for every
//! edge would require an SSSP per edge. We evaluate the edge-local variant —
//! `d_v({u}) = d_uv` for in-neighbor edges and `d_v(I) = min` over *active
//! in-neighbors* — which preserves the model's competition semantics (only
//! the nearest active influencers matter, proportionally to `p_uv`) at
//! `O(m)` total cost.

use snd_graph::CsrGraph;

use crate::error::ModelError;
use crate::state::{NetworkState, Opinion};

/// Per-edge activation probabilities.
#[derive(Clone, Debug)]
pub enum EdgeActivation {
    /// Same probability on every edge.
    Uniform(f64),
    /// Weighted-cascade convention: `p_uv = 1 / in_degree(v)`.
    WeightedCascade,
    /// Explicit per-edge probabilities (aligned with forward edge ids),
    /// e.g. learned from observed data.
    PerEdge(Vec<f64>),
}

/// ICC model parameters.
#[derive(Clone, Debug)]
pub struct IccParams {
    /// Edge activation probabilities `p_uv`.
    pub activation: EdgeActivation,
    /// Edge distances `d_uv`; `None` = unit distances.
    pub distances: Option<Vec<u32>>,
    /// Probability of model-impossible events.
    pub epsilon: f64,
}

impl Default for IccParams {
    fn default() -> Self {
        IccParams {
            activation: EdgeActivation::WeightedCascade,
            distances: None,
            epsilon: 1e-6,
        }
    }
}

impl IccParams {
    /// Validating constructor: checks every probability-like parameter and
    /// per-edge vector length against `g` so a malformed configuration
    /// surfaces as a [`ModelError`] instead of a mid-simulation panic.
    pub fn for_graph(
        g: &CsrGraph,
        activation: EdgeActivation,
        distances: Option<Vec<u32>>,
        epsilon: f64,
    ) -> Result<Self, ModelError> {
        crate::error::probability("epsilon", epsilon)?;
        match &activation {
            EdgeActivation::Uniform(p) => {
                crate::error::probability("activation probability", *p)?;
            }
            EdgeActivation::PerEdge(p) => {
                if p.len() != g.edge_count() {
                    return Err(ModelError::LengthMismatch {
                        what: "per-edge activation probabilities",
                        expected: g.edge_count(),
                        got: p.len(),
                    });
                }
                for &pi in p {
                    crate::error::probability("activation probability", pi)?;
                }
            }
            EdgeActivation::WeightedCascade => {}
        }
        if let Some(d) = &distances {
            if d.len() != g.edge_count() {
                return Err(ModelError::LengthMismatch {
                    what: "per-edge distances",
                    expected: g.edge_count(),
                    got: d.len(),
                });
            }
        }
        Ok(IccParams {
            activation,
            distances,
            epsilon,
        })
    }

    /// Activation probability of edge `e = (u, v)`.
    pub fn activation_of(&self, g: &CsrGraph, e: u32, v: u32) -> f64 {
        match &self.activation {
            EdgeActivation::Uniform(p) => *p,
            EdgeActivation::WeightedCascade => {
                let deg = g.in_degree(v);
                if deg == 0 {
                    0.0
                } else {
                    1.0 / deg as f64
                }
            }
            EdgeActivation::PerEdge(p) => p[e as usize],
        }
    }

    /// Distance of edge `e`.
    fn distance_of(&self, e: u32) -> u32 {
        self.distances.as_ref().map_or(1, |d| d[e as usize])
    }
}

/// The active front at node `v`: distance of the nearest active
/// in-neighbor and the total activation-probability mass at that distance.
/// Iterates `v`'s in-edges in edge order, so the floating-point sum is
/// reproducible — the delta path (`crate::delta`) recomputes exactly this
/// per touched receiver and must match the full sweep bit for bit.
pub(crate) fn front_at(
    g: &CsrGraph,
    state: &NetworkState,
    params: &IccParams,
    v: u32,
) -> (u32, f64) {
    let mut dist = u32::MAX;
    for (e, u) in g.in_edges(v) {
        if state.opinion(u).is_active() {
            let d = params.distance_of(e);
            if d < dist {
                dist = d;
            }
        }
    }
    let mut prob = 0.0f64;
    for (e, u) in g.in_edges(v) {
        if state.opinion(u).is_active() && params.distance_of(e) == dist {
            prob += params.activation_of(g, e, v);
        }
    }
    (dist, prob)
}

/// Spreading probability of one edge `e = (u, v)` given `v`'s active front
/// — the single-edge kernel shared by [`spreading_probabilities`] and the
/// delta path.
#[allow(clippy::too_many_arguments)] // mirrors the per-edge model inputs
pub(crate) fn edge_probability(
    g: &CsrGraph,
    state: &NetworkState,
    op: Opinion,
    params: &IccParams,
    e: u32,
    u: u32,
    v: u32,
    front_dist: u32,
    front_prob: f64,
) -> f64 {
    let eps = params.epsilon;
    let gu = state.opinion(u);
    let gv = state.opinion(v);
    let p = if gu == op && gv == op {
        1.0
    } else if gu == op && gv == Opinion::Neutral {
        // Only nearest-front influencers can activate v.
        if params.distance_of(e) > front_dist {
            eps
        } else {
            let puv = params.activation_of(g, e, v);
            if front_prob > 0.0 {
                ((puv - eps).max(0.0) / front_prob).min(1.0)
            } else {
                eps
            }
        }
    } else {
        eps
    };
    p.max(eps)
}

/// Spreading probabilities per edge for opinion `op` in state `state`.
pub fn spreading_probabilities(
    g: &CsrGraph,
    state: &NetworkState,
    op: Opinion,
    params: &IccParams,
) -> Vec<f64> {
    if let EdgeActivation::PerEdge(p) = &params.activation {
        assert_eq!(p.len(), g.edge_count(), "activation probabilities per edge");
    }
    if let Some(d) = &params.distances {
        assert_eq!(d.len(), g.edge_count(), "distances per edge");
    }

    // Per node v: the distance of the nearest active in-neighbor (front
    // distance) and the total activation probability mass of the front.
    let n = g.node_count();
    let mut front_dist = vec![u32::MAX; n];
    let mut front_prob = vec![0.0f64; n];
    for v in g.nodes() {
        let (d, p) = front_at(g, state, params, v);
        front_dist[v as usize] = d;
        front_prob[v as usize] = p;
    }

    let mut probs = Vec::with_capacity(g.edge_count());
    let mut edge_id = 0u32;
    for u in g.nodes() {
        for &v in g.out_neighbors(u) {
            probs.push(edge_probability(
                g,
                state,
                op,
                params,
                edge_id,
                u,
                v,
                front_dist[v as usize],
                front_prob[v as usize],
            ));
            edge_id += 1;
        }
    }
    probs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_to_active_same_opinion_is_certain() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let state = NetworkState::from_values(&[1, 1]);
        let p = spreading_probabilities(&g, &state, Opinion::Positive, &IccParams::default());
        assert_eq!(p[0], 1.0);
    }

    #[test]
    fn competition_splits_activation_mass() {
        // Two active users (one +, one −) both point at neutral node 2 with
        // uniform activation 0.4: each front edge gets (0.4 − ε)/0.8 ≈ 0.5.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let state = NetworkState::from_values(&[1, -1, 0]);
        let params = IccParams {
            activation: EdgeActivation::Uniform(0.4),
            ..Default::default()
        };
        let p = spreading_probabilities(&g, &state, Opinion::Positive, &params);
        let e02 = g.find_edge(0, 2).unwrap() as usize;
        let e12 = g.find_edge(1, 2).unwrap() as usize;
        assert!((p[e02] - 0.5).abs() < 1e-3, "{}", p[e02]);
        // Edge from the adverse spreader gets ε.
        assert!(p[e12] <= 1e-6);
    }

    #[test]
    fn farther_influencers_are_cut_off() {
        // Node 2 has active in-neighbors at distances 1 (node 0) and 3
        // (node 1); only node 0 is on the front.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let state = NetworkState::from_values(&[1, 1, 0]);
        let mut dist = vec![0u32; g.edge_count()];
        dist[g.find_edge(0, 2).unwrap() as usize] = 1;
        dist[g.find_edge(1, 2).unwrap() as usize] = 3;
        let params = IccParams {
            activation: EdgeActivation::Uniform(0.5),
            distances: Some(dist),
            epsilon: 1e-6,
        };
        let p = spreading_probabilities(&g, &state, Opinion::Positive, &params);
        let near = p[g.find_edge(0, 2).unwrap() as usize];
        let far = p[g.find_edge(1, 2).unwrap() as usize];
        assert!(near > 0.9, "front edge should carry the mass: {near}");
        assert!(far <= 1e-6, "off-front edge must be ε: {far}");
    }

    #[test]
    fn neutral_spreaders_get_epsilon() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let state = NetworkState::from_values(&[0, 0]);
        let p = spreading_probabilities(&g, &state, Opinion::Positive, &IccParams::default());
        assert!(p[0] <= 1e-6);
    }

    #[test]
    fn weighted_cascade_uses_in_degree() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let params = IccParams::default();
        let e = g.find_edge(0, 2).unwrap();
        assert!((params.activation_of(&g, e, 2) - 0.5).abs() < 1e-12);
    }
}
