//! Batch evaluation: cached, parallel all-pairs distance matrices.
//!
//! The evaluation workloads that dominate in practice — anomaly detection
//! over a snapshot series, clustering and nearest-neighbor search over a
//! snapshot set — are all-pairs regimes: every state participates in up to
//! `T − 1` comparisons. Evaluated naively (one [`SndEngine::distance`] per
//! pair) the same per-state work is redone `T − 1` times: the two ground
//! geometries, and one SSSP row per residual user of every comparison
//! grounded in that state.
//!
//! [`SndEngine::pairwise_distances`] restructures this around the
//! per-state [`StateGeometry`] bundle: geometries are computed once per
//! state (in parallel across states), and every `(ground state, opinion,
//! direction, node)` SSSP row is computed at most once — concurrent terms
//! pull rows from the bundle's shared [`RowCache`](crate::sparse::RowCache).
//! The `4·T·(T−1)/2` EMD\* terms then fan out over the thread pool
//! individually, which load-balances well because term cost varies with
//! the pair's residual size.
//!
//! Results are **bit-identical** to the sequential naive loop: each term is
//! an exact integer transportation solve, cached rows hold exactly what
//! recomputation would produce, and per-pair terms are reduced in a fixed
//! order. The property tests in `tests/batch_parallel.rs` assert this.
//!
//! In the *warm* regime (`pairwise_distances_with` over pre-filled
//! bundles) every SSSP row is a cache hit, so a term costs its exact
//! transportation solve plus the assembly of its reduced cost matrix. The
//! solve is the larger part but no longer the whole: on the repo
//! benchmark's `pairwise` workload (`perfbench --trace 1`, 2 vCPUs) the
//! transport layer takes about 0.34 s of self time against 0.04 s of
//! assembly, while the cold run's SSSP rows take about 1.2 s. The
//! per-layer numbers come from that trace; `BENCH_solver.json` tracks the
//! solvers by instance shape.

use rayon::prelude::*;
use snd_models::NetworkState;

use crate::engine::{SndBreakdown, SndEngine, StateGeometry};
use crate::sparse;

/// Symmetric all-pairs distance matrix over a snapshot set (row-major,
/// zero diagonal).
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    k: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Number of states (the matrix is `size × size`).
    pub fn size(&self) -> usize {
        self.k
    }

    /// Distance between states `i` and `j`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.k + j]
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// The matrix as nested rows (the shape the clustering helpers take).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|i| self.row(i).to_vec()).collect()
    }

    /// Adjacent-transition distances `d(G_t, G_{t+1})` read off the
    /// superdiagonal (`size − 1` values).
    pub fn adjacent(&self) -> Vec<f64> {
        (1..self.k).map(|t| self.at(t - 1, t)).collect()
    }

    /// Builds a matrix from the strict upper triangle, mirroring it.
    pub(crate) fn from_upper(k: usize, upper: &[f64]) -> Self {
        debug_assert_eq!(upper.len(), k * k.saturating_sub(1) / 2);
        let mut data = vec![0.0; k * k];
        let mut idx = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                data[i * k + j] = upper[idx];
                data[j * k + i] = upper[idx];
                idx += 1;
            }
        }
        DistanceMatrix { k, data }
    }
}

impl<'g> SndEngine<'g> {
    /// All-pairs SND matrix over a snapshot set: geometry computed once per
    /// state, SSSP rows computed at most once per ground state and shared
    /// through thread-safe caches, all `4·T·(T−1)/2` EMD\* terms fanned out
    /// over the thread pool.
    pub fn pairwise_distances(&self, states: &[NetworkState]) -> DistanceMatrix {
        let geoms: Vec<StateGeometry> = states.par_iter().map(|s| self.state_geometry(s)).collect();
        self.pairwise_distances_with(states, &geoms)
    }

    /// [`pairwise_distances`](Self::pairwise_distances) over caller-owned
    /// bundles — reuse them to price additional snapshots against the same
    /// set, or to inspect cache statistics afterwards.
    pub fn pairwise_distances_with(
        &self,
        states: &[NetworkState],
        geoms: &[StateGeometry],
    ) -> DistanceMatrix {
        assert_eq!(states.len(), geoms.len(), "one geometry bundle per state");
        let k = states.len();
        let pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
            .collect();
        // Fan out at term granularity (4 independent EMD* solves per pair):
        // term cost varies wildly with the pair's residual size, so finer
        // work items load-balance better than whole pairs.
        let terms: Vec<f64> = (0..pairs.len() * 4)
            .into_par_iter()
            .map(|t| {
                let (i, j) = pairs[t / 4];
                self.pair_term(&states[i], &states[j], &geoms[i], &geoms[j], t % 4)
            })
            .collect();
        let upper: Vec<f64> = terms
            .chunks_exact(4)
            .map(|t| {
                SndBreakdown {
                    forward_pos: t[0],
                    forward_neg: t[1],
                    backward_pos: t[2],
                    backward_neg: t[3],
                }
                .total()
            })
            .collect();
        DistanceMatrix::from_upper(k, &upper)
    }

    /// The naive sequential all-pairs loop (no sharing, no threads):
    /// exactly `T·(T−1)/2` independent [`distance_seq`](Self::distance_seq)
    /// calls. The baseline the batch path is benchmarked and property-tested
    /// against.
    pub fn pairwise_distances_seq(&self, states: &[NetworkState]) -> DistanceMatrix {
        let k = states.len();
        let mut upper = Vec::with_capacity(k * k.saturating_sub(1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                upper.push(self.distance_seq(&states[i], &states[j]));
            }
        }
        DistanceMatrix::from_upper(k, &upper)
    }

    /// One of the four Eq. 3 terms of pair `(a, b)` given the two states'
    /// bundles, drawing rows from the ground state's shared cache. Term
    /// order matches [`SndBreakdown`]: forward +, forward −, backward +,
    /// backward −. Shared with the tile-based shard path
    /// ([`crate::shard`]).
    pub(crate) fn pair_term(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
        which: usize,
    ) -> f64 {
        let (lo, hi) = self.pair_term_interval(a, b, ga, gb, which);
        // Zero-width (exact-tier) envelopes return the value itself so the
        // scalar stays bit-identical to the sparse path; the midpoint of a
        // genuine interval is the approximate tier's scalar estimate.
        if lo == hi {
            return lo;
        }
        0.5 * (lo + hi)
    }

    /// [`pair_term`](Self::pair_term) keeping the certified envelope: the
    /// exact tier returns a zero-width interval, an active approximate
    /// tier the term's `[lower, upper]` (whose midpoint is exactly what
    /// [`pair_term`](Self::pair_term) reports). The tile checkpoint path
    /// persists these so merged shard matrices stay re-certifiable.
    pub(crate) fn pair_term_interval(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
        which: usize,
    ) -> (f64, f64) {
        use snd_models::Opinion;
        let (ground, p, q, geom, op) = match which {
            0 => (ga, a, b, &ga.pos, Opinion::Positive),
            1 => (ga, a, b, &ga.neg, Opinion::Negative),
            2 => (gb, b, a, &gb.pos, Opinion::Positive),
            _ => (gb, b, a, &gb.neg, Opinion::Negative),
        };
        // Same tier routing as `SndEngine::terms`: an active approximate
        // tier prices the term as a certified interval, drawing landmark
        // rows from the bundle's delta-repaired sketch when it carries one.
        if let Some(a_cfg) = self.approx_if_active() {
            let sketch = match op {
                Opinion::Positive => ground.sketch_pos.as_ref(),
                _ => ground.sketch_neg.as_ref(),
            };
            return self.approx_term(geom, Some(&ground.cache), sketch, p, q, op, &a_cfg);
        }
        let v = sparse::emd_star_term(
            self.graph(),
            self.clustering(),
            geom,
            p,
            q,
            op,
            self.config(),
            Some(&ground.cache),
        );
        (v, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use snd_graph::generators::path_graph;

    fn states() -> Vec<NetworkState> {
        vec![
            NetworkState::from_values(&[1, 0, 0, 0, 0, 0, 0, -1]),
            NetworkState::from_values(&[1, 1, 0, 0, 0, 0, -1, -1]),
            NetworkState::from_values(&[0, 1, 1, 0, 0, -1, -1, 0]),
            NetworkState::from_values(&[0, 0, 1, 1, -1, -1, 0, 0]),
        ]
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let m = engine.pairwise_distances(&states());
        assert_eq!(m.size(), 4);
        for i in 0..4 {
            assert_eq!(m.at(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
        assert!(m.at(0, 3) > 0.0);
    }

    #[test]
    fn parallel_matrix_equals_naive_sequential_loop() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let par = engine.pairwise_distances(&s);
        let seq = engine.pairwise_distances_seq(&s);
        assert_eq!(par, seq, "bit-identical matrices");
    }

    #[test]
    fn adjacent_reads_the_superdiagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let m = engine.pairwise_distances(&s);
        let adj = m.adjacent();
        assert_eq!(adj.len(), 3);
        for (t, &d) in adj.iter().enumerate() {
            assert_eq!(d, m.at(t, t + 1));
        }
    }

    #[test]
    fn reusing_bundles_adds_no_new_rows() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let geoms: Vec<StateGeometry> = s.iter().map(|st| engine.state_geometry(st)).collect();
        let first = engine.pairwise_distances_with(&s, &geoms);
        let rows_after: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
        assert!(rows_after.iter().sum::<usize>() > 0);
        let second = engine.pairwise_distances_with(&s, &geoms);
        let rows_again: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
        assert_eq!(rows_after, rows_again, "second evaluation: zero new SSSP");
        assert_eq!(first, second);
    }

    #[test]
    fn empty_and_single_state_sets() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        assert_eq!(engine.pairwise_distances(&[]).size(), 0);
        let one = engine.pairwise_distances(&states()[..1]);
        assert_eq!(one.size(), 1);
        assert_eq!(one.at(0, 0), 0.0);
    }
}
