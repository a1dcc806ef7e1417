//! Ground-distance edge costs: the quantized `A_ext` matrix of Eq. 2.
//!
//! Every edge `(u, v)` is assigned a positive integer cost
//!
//! ```text
//! cost(u, v) = comm(u, v) + adopt(u, v) + spread(u, v | G, op)
//! ```
//!
//! * `comm` — communication penalty `−log P`. Without observed communication
//!   frequencies this is the connectivity matrix (1 per edge), penalizing
//!   topological remoteness exactly as the paper prescribes.
//! * `adopt` — adoption penalty `−log Pin`. With no susceptibility data all
//!   users are non-stubborn (`Pin = 1`, penalty 0).
//! * `spread` — spreading penalty `−log Pout`, the model-dependent part:
//!   [`SpreadingModel::Agnostic`] constants, or probabilities from the ICC /
//!   LTC competition models quantized by [`prob_to_cost`].
//!
//! Quantization maps probabilities to `[0, span]` by
//! `round(ln p / ln ε · span)` with everything at or below `ε` clamped to
//! `span`, so total edge costs live in `[1, U]` with
//! `U = 1 + max_adopt + span` — the paper's Assumption 2 with explicit `U`.

use snd_graph::CsrGraph;

use crate::agnostic::AgnosticPenalties;
use crate::icc::IccParams;
use crate::ltc::LtcParams;
use crate::state::{NetworkState, Opinion};

/// Spreading-penalty model (`Pout` of Eq. 2).
#[derive(Clone, Debug)]
pub enum SpreadingModel {
    /// Constant penalties by the spreader's stance relative to `op` (§3).
    Agnostic(AgnosticPenalties),
    /// Independent Cascade with Competition (Carnes et al.).
    Icc(IccParams),
    /// Linear Threshold with Competition (Borodin et al.).
    Ltc(LtcParams),
}

/// Configuration for ground-cost construction.
#[derive(Clone, Debug)]
pub struct GroundCostConfig {
    /// Spreading model.
    pub spreading: SpreadingModel,
    /// Per-edge communication penalties (`−log P`); `None` = connectivity
    /// matrix (1 per edge).
    pub communication: Option<Vec<u32>>,
    /// Per-edge adoption penalties (`−log Pin`); `None` = non-stubborn
    /// users (0 per edge).
    pub adoption: Option<Vec<u32>>,
    /// Probability-quantization span: `Pout = ε` maps to this many cost
    /// units (see [`prob_to_cost`]).
    pub span: u32,
    /// The ε probability assigned to events a model posits as impossible,
    /// so every pair of network states stays at a finite distance (§3).
    pub epsilon: f64,
}

impl Default for GroundCostConfig {
    fn default() -> Self {
        GroundCostConfig {
            spreading: SpreadingModel::Agnostic(AgnosticPenalties::default()),
            communication: None,
            adoption: None,
            span: 59,
            epsilon: 1e-6,
        }
    }
}

impl GroundCostConfig {
    /// Config with the given spreading model and defaults elsewhere.
    pub fn with_model(spreading: SpreadingModel) -> Self {
        GroundCostConfig {
            spreading,
            ..Default::default()
        }
    }

    /// Upper bound `U` on any edge cost this config can produce
    /// (Assumption 2).
    pub fn max_edge_cost(&self) -> u32 {
        let comm = self
            .communication
            .as_ref()
            .map_or(1, |c| c.iter().copied().max().unwrap_or(1));
        let adopt = self
            .adoption
            .as_ref()
            .map_or(0, |c| c.iter().copied().max().unwrap_or(0));
        let spread = match &self.spreading {
            SpreadingModel::Agnostic(p) => p.max_penalty(),
            SpreadingModel::Icc(_) | SpreadingModel::Ltc(_) => self.span,
        };
        comm + adopt + spread
    }
}

/// Quantizes a spreading probability into `[0, span]` cost units:
/// `p ≥ 1 → 0`, `p ≤ ε → span`, log-linear in between. A NaN `p` is no
/// evidence of spreading and costs `span`, like an impossible event.
pub fn prob_to_cost(p: f64, epsilon: f64, span: u32) -> u32 {
    debug_assert!(epsilon > 0.0 && epsilon < 1.0);
    if p >= 1.0 {
        return 0;
    }
    if p.is_nan() || p <= epsilon {
        return span;
    }
    let frac = p.ln() / epsilon.ln(); // in (0, 1)
    (frac * span as f64).round() as u32
}

/// Rejects an ε that is NaN, infinite or outside `(0, 1)`: in release
/// builds such an ε would quietly set every quantized spreading cost to 0
/// or `span`.
pub(crate) fn assert_epsilon(epsilon: f64) {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "epsilon must lie in (0, 1), got {epsilon}"
    );
}

/// Builds the integer edge-cost vector (aligned with the graph's forward
/// edge ids) for propagating opinion `op` through network state `state` —
/// the quantized `A_ext(G, op)` of Eq. 2 restricted to existing edges.
pub fn edge_costs(
    g: &CsrGraph,
    state: &NetworkState,
    op: Opinion,
    config: &GroundCostConfig,
) -> Vec<u32> {
    assert!(op.is_active(), "ground costs require a polar opinion");
    assert_eq!(state.len(), g.node_count(), "state/graph size mismatch");
    assert_epsilon(config.epsilon);
    if let Some(c) = &config.communication {
        assert_eq!(c.len(), g.edge_count(), "communication penalties per edge");
    }
    if let Some(c) = &config.adoption {
        assert_eq!(c.len(), g.edge_count(), "adoption penalties per edge");
    }

    let spread = match &config.spreading {
        SpreadingModel::Agnostic(p) => crate::agnostic::spreading_costs(g, state, op, p),
        SpreadingModel::Icc(p) => {
            let probs = crate::icc::spreading_probabilities(g, state, op, p);
            probs
                .into_iter()
                .map(|pr| prob_to_cost(pr, config.epsilon, config.span))
                .collect()
        }
        SpreadingModel::Ltc(p) => {
            let probs = crate::ltc::spreading_probabilities(g, state, op, p);
            probs
                .into_iter()
                .map(|pr| prob_to_cost(pr, config.epsilon, config.span))
                .collect()
        }
    };

    let mut costs = Vec::with_capacity(g.edge_count());
    for e in 0..g.edge_count() {
        let comm = config.communication.as_ref().map_or(1, |c| c[e]);
        let adopt = config.adoption.as_ref().map_or(0, |c| c[e]);
        costs.push(comm.saturating_add(adopt).saturating_add(spread[e]).max(1));
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_graph::generators::path_graph;

    #[test]
    fn prob_to_cost_endpoints() {
        assert_eq!(prob_to_cost(1.0, 1e-6, 59), 0);
        assert_eq!(prob_to_cost(2.0, 1e-6, 59), 0);
        assert_eq!(prob_to_cost(1e-6, 1e-6, 59), 59);
        assert_eq!(prob_to_cost(0.0, 1e-6, 59), 59);
        let mid = prob_to_cost(1e-3, 1e-6, 58);
        assert_eq!(mid, 29); // half the log range
    }

    /// Everything not above ε — NaN, ε itself, −0.0 and the smallest
    /// positive float — costs `span`; only `p ≥ 1` is free.
    #[test]
    fn prob_to_cost_boundaries() {
        let eps = 1e-6;
        assert_eq!(prob_to_cost(f64::NAN, eps, 59), 59);
        assert_eq!(prob_to_cost(-f64::NAN, eps, 59), 59);
        assert_eq!(prob_to_cost(eps, eps, 59), 59);
        assert_eq!(prob_to_cost(-0.0, eps, 59), 59);
        assert_eq!(prob_to_cost(f64::MIN_POSITIVE, eps, 59), 59);
        assert_eq!(prob_to_cost(1.0, eps, 59), 0);
        assert_eq!(prob_to_cost(f64::INFINITY, eps, 59), 0);
        assert_eq!(prob_to_cost(f64::NEG_INFINITY, eps, 59), 59);
    }

    #[test]
    fn edge_costs_reject_a_bad_epsilon() {
        let g = path_graph(3);
        let state = NetworkState::from_values(&[1, 0, -1]);
        for epsilon in [f64::NAN, 0.0, -0.0, 1.0, 2.0, f64::INFINITY, -1e-6] {
            let config = GroundCostConfig {
                spreading: SpreadingModel::Icc(IccParams::default()),
                epsilon,
                ..Default::default()
            };
            let built =
                std::panic::catch_unwind(|| edge_costs(&g, &state, Opinion::Positive, &config));
            assert!(built.is_err(), "epsilon {epsilon} was accepted");
        }
    }

    #[test]
    fn prob_to_cost_monotone() {
        let probs = [1.0, 0.5, 0.1, 0.01, 1e-4, 1e-6];
        let costs: Vec<u32> = probs.iter().map(|&p| prob_to_cost(p, 1e-6, 59)).collect();
        for w in costs.windows(2) {
            assert!(w[0] <= w[1], "quantization must be monotone: {costs:?}");
        }
    }

    #[test]
    fn default_costs_are_positive_and_bounded() {
        let g = path_graph(5);
        let state = NetworkState::from_values(&[1, 0, -1, 0, 1]);
        let config = GroundCostConfig::default();
        let costs = edge_costs(&g, &state, Opinion::Positive, &config);
        assert_eq!(costs.len(), g.edge_count());
        let u = config.max_edge_cost();
        for &c in &costs {
            assert!(c >= 1 && c <= u, "cost {c} outside [1, {u}]");
        }
    }

    #[test]
    fn custom_communication_penalties_add_up() {
        let g = path_graph(3);
        let state = NetworkState::new_neutral(3);
        let comm = vec![7u32; g.edge_count()];
        let config = GroundCostConfig {
            communication: Some(comm),
            ..Default::default()
        };
        let costs = edge_costs(&g, &state, Opinion::Positive, &config);
        // Neutral spreader penalty (default 5) + comm 7.
        let expected = 7 + AgnosticPenalties::default().neutral;
        assert!(costs.iter().all(|&c| c == expected), "{costs:?}");
    }
}
