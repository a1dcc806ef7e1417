//! Competitor distance measures over network states.

use snd_graph::{laplacian_quadratic_form, CsrGraph};
use snd_models::NetworkState;

/// A distance measure between two network states over a fixed user set.
pub trait StateDistance {
    /// Distance between two states (non-negative; 0 for identical states).
    fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64;

    /// Short display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Symmetric all-pairs matrix over a snapshot set (row-major nested
    /// rows, zero diagonal). The default evaluates each pair
    /// independently; measures with shareable per-state work override this
    /// with a batch path (SND computes geometry once per state and shares
    /// SSSP rows across the whole matrix).
    fn pairwise(&self, states: &[NetworkState]) -> Vec<Vec<f64>> {
        let k = states.len();
        let mut m = vec![vec![0.0; k]; k];
        for i in 0..k {
            for j in (i + 1)..k {
                let d = self.distance(&states[i], &states[j]);
                m[i][j] = d;
                m[j][i] = d;
            }
        }
        m
    }

    /// Adjacent-transition distances `d(G_t, G_{t+1})` over a series
    /// (`states.len() − 1` values). Measures with shareable per-state work
    /// override this (SND shares each state's geometry between the two
    /// transitions it participates in).
    fn series(&self, states: &[NetworkState]) -> Vec<f64> {
        states
            .windows(2)
            .map(|w| self.distance(&w[0], &w[1]))
            .collect()
    }
}

/// Hamming distance: the number of users whose opinion differs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hamming;

impl StateDistance for Hamming {
    fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        a.diff_count(b) as f64
    }

    fn name(&self) -> &'static str {
        "hamming"
    }
}

/// ℓ1 distance on the ±1/0 opinion encoding.
#[derive(Clone, Copy, Debug, Default)]
pub struct L1;

impl StateDistance for L1 {
    fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        assert_eq!(a.len(), b.len(), "state length mismatch");
        a.opinions()
            .iter()
            .zip(b.opinions())
            .map(|(&x, &y)| (x.value() - y.value()).unsigned_abs() as f64)
            .sum()
    }

    fn name(&self) -> &'static str {
        "l1"
    }
}

/// Quadratic-form distance `sqrt((P−Q)ᵀ L (P−Q))` with the graph Laplacian.
#[derive(Clone, Copy, Debug)]
pub struct QuadForm<'g> {
    graph: &'g CsrGraph,
}

impl<'g> QuadForm<'g> {
    /// Creates the measure over the given network.
    pub fn new(graph: &'g CsrGraph) -> Self {
        QuadForm { graph }
    }
}

impl StateDistance for QuadForm<'_> {
    fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        assert_eq!(a.len(), b.len(), "state length mismatch");
        assert_eq!(a.len(), self.graph.node_count(), "state/graph mismatch");
        let diff: Vec<f64> = a
            .opinions()
            .iter()
            .zip(b.opinions())
            .map(|(&x, &y)| (x.value() - y.value()) as f64)
            .collect();
        laplacian_quadratic_form(self.graph, &diff).max(0.0).sqrt()
    }

    fn name(&self) -> &'static str {
        "quad-form"
    }
}

/// Walk distance: compares per-user "contention" vectors, where a user's
/// contention is how far her opinion sits from the average opinion of her
/// *active* in-neighbors (0 when she has none).
#[derive(Clone, Copy, Debug)]
pub struct WalkDist<'g> {
    graph: &'g CsrGraph,
}

impl<'g> WalkDist<'g> {
    /// Creates the measure over the given network.
    pub fn new(graph: &'g CsrGraph) -> Self {
        WalkDist { graph }
    }

    /// The contention vector `cnt(P)` of a state.
    fn contention(&self, state: &NetworkState) -> Vec<f64> {
        let g = self.graph;
        (0..g.node_count() as u32)
            .map(|v| {
                let mut sum = 0i64;
                let mut active = 0i64;
                for &u in g.in_neighbors(v) {
                    let o = state.opinion(u);
                    if o.is_active() {
                        sum += o.value() as i64;
                        active += 1;
                    }
                }
                if active == 0 {
                    0.0
                } else {
                    (state.opinion(v).value() as f64 - sum as f64 / active as f64).abs()
                }
            })
            .collect()
    }
}

impl StateDistance for WalkDist<'_> {
    fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        assert_eq!(a.len(), b.len(), "state length mismatch");
        assert_eq!(a.len(), self.graph.node_count(), "state/graph mismatch");
        let ca = self.contention(a);
        let cb = self.contention(b);
        let l1: f64 = ca.iter().zip(&cb).map(|(x, y)| (x - y).abs()).sum();
        l1 / a.len() as f64
    }

    fn name(&self) -> &'static str {
        "walk-dist"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_graph::generators::path_graph;
    use snd_models::Opinion;

    fn states() -> (NetworkState, NetworkState) {
        (
            NetworkState::from_values(&[1, 0, -1, 0, 1]),
            NetworkState::from_values(&[1, 1, -1, -1, 0]),
        )
    }

    #[test]
    fn hamming_counts_differences() {
        let (a, b) = states();
        assert_eq!(Hamming.distance(&a, &b), 3.0);
        assert_eq!(Hamming.distance(&a, &a), 0.0);
    }

    #[test]
    fn l1_weighs_polarity_flips_double() {
        let a = NetworkState::from_values(&[1, 0]);
        let b = NetworkState::from_values(&[-1, 1]);
        // |1 − (−1)| + |0 − 1| = 3.
        assert_eq!(L1.distance(&a, &b), 3.0);
    }

    #[test]
    fn quad_form_counts_edge_disagreements() {
        let g = path_graph(3);
        let qf = QuadForm::new(&g);
        let a = NetworkState::from_values(&[0, 0, 0]);
        let b = NetworkState::from_values(&[1, 0, 0]);
        // diff = [1,0,0]: one tie with (1-0)^2 = 1 -> sqrt(1) = 1.
        assert!((qf.distance(&a, &b) - 1.0).abs() < 1e-12);
        // Smooth change along the path is "cheaper" than a spike.
        let smooth = NetworkState::from_values(&[1, 1, 1]);
        let spike = NetworkState::from_values(&[1, -1, 1]);
        assert!(qf.distance(&a, &smooth) < qf.distance(&a, &spike));
    }

    #[test]
    fn quad_form_is_symmetric() {
        let g = path_graph(5);
        let qf = QuadForm::new(&g);
        let (a, b) = states();
        assert!((qf.distance(&a, &b) - qf.distance(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn walk_dist_contention_matches_hand_computation() {
        // Path 0-1-2 with state [+1, -1, 0]:
        // cnt(0): in-neighbor 1 active (-1) => |1 - (-1)| = 2
        // cnt(1): in-neighbors 0 (+1), 2 (neutral) => |−1 − 1| = 2
        // cnt(2): in-neighbor 1 (−1) => |0 − (−1)| = 1
        let g = path_graph(3);
        let wd = WalkDist::new(&g);
        let s = NetworkState::from_values(&[1, -1, 0]);
        assert_eq!(wd.contention(&s), vec![2.0, 2.0, 1.0]);
    }

    #[test]
    fn walk_dist_zero_for_identical_states() {
        let g = path_graph(5);
        let wd = WalkDist::new(&g);
        let (a, _) = states();
        assert_eq!(wd.distance(&a, &a), 0.0);
    }

    #[test]
    fn walk_dist_ignores_isolated_users() {
        let g = snd_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let wd = WalkDist::new(&g);
        let mut a = NetworkState::new_neutral(3);
        let mut b = NetworkState::new_neutral(3);
        // User 2 has no in-neighbors: flipping it changes nothing.
        a.set(2, Opinion::Positive);
        b.set(2, Opinion::Negative);
        assert_eq!(wd.distance(&a, &b), 0.0);
    }
}
