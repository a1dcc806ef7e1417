//! Per-state ground geometry: edge costs, bank γ distances, inter-cluster
//! distances.
//!
//! Everything EMD\* needs beyond the raw SSSP rows depends only on the
//! *ground state* (the state whose opinions define propagation costs) and
//! the opinion being transported, not on the pair of states under
//! comparison — so it is computed once per `(state, opinion)` and reused
//! across comparisons ([`crate::SndEngine::series_distances`],
//! [`crate::CandidateEvaluator`]).
//!
//! Cluster-bank geometry is embarrassingly parallel across clusters: each
//! cluster's inter-cluster row and γ need only that cluster's SSSPs.
//! [`compute_geometry`] fans the per-cluster work out over the rayon pool
//! (each worker reuses its thread-local SSSP scratch);
//! [`compute_geometry_seq`] is the kept sequential reference, and the two
//! are property-tested bit-identical (`tests/shard_matrix.rs`).

use rayon::prelude::*;
use snd_graph::{
    dial_reverse_scratch, dial_scratch, Clustering, CsrGraph, SsspScratch, UNREACHABLE,
};
use snd_models::{edge_costs, NetworkState, Opinion};
use snd_transport::DenseCost;

use crate::config::{GammaPolicy, SndConfig};
use crate::sparse::with_sssp_scratch;

/// Opinion-dependent ground geometry for one network state.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundGeometry {
    /// Quantized edge costs (aligned with forward edge ids).
    pub edge_costs: Vec<u32>,
    /// Upper bound `U` on edge costs (Assumption 2).
    pub max_edge_cost: u32,
    /// Finite sentinel distance for unreachable pairs. Exceeds every real
    /// path cost, so triangle inequalities survive the substitution.
    pub unreachable: u32,
    /// Per-bin bank mode (one bank per bin with constant γ): no cluster
    /// geometry is required — bank distances come directly from SSSP rows.
    pub per_bin: bool,
    /// `gammas[c][b]`: ground distance of bank `b` of cluster `c` (empty in
    /// per-bin mode).
    pub gammas: Vec<Vec<u32>>,
    /// `inter_cluster.at(c, c2) = min_{p∈c, q∈c2} D(p, q)` (zero diagonal;
    /// empty in per-bin mode).
    pub inter_cluster: DenseCost,
}

impl GroundGeometry {
    /// Clamps a raw SSSP distance into the bounded `u32` cost domain.
    #[inline]
    pub fn clamp(&self, d: u64) -> u32 {
        if d >= self.unreachable as u64 {
            self.unreachable
        } else {
            d as u32
        }
    }

    /// True when the clamp domain over an `n`-node graph is lossless: the
    /// sentinel is exactly `U·n + 1`, above every simple path's cost, so
    /// every finite distance is kept exactly. False when the sentinel had
    /// to be capped at `u32::MAX / 4`. Row repair
    /// ([`snd_graph::repair_row`]) is exact only in a lossless domain, so
    /// this is the precondition of every repair path.
    pub fn is_lossless(&self, n: usize) -> bool {
        self.unreachable as u64 == self.max_edge_cost as u64 * n as u64 + 1
    }
}

/// The finite unreachable sentinel of an `n`-node graph with edge costs at
/// most `U`: `U·n + 1`, capped at `u32::MAX / 4` so sums of a few
/// distances stay inside `u32`.
pub(crate) fn sentinel(max_edge_cost: u32, n: usize) -> u32 {
    ((max_edge_cost as u64)
        .saturating_mul(n as u64)
        .saturating_add(1))
    .min(u32::MAX as u64 / 4) as u32
}

/// Computes the geometry for `(state, op)`: one multi-source bounded-cost
/// SSSP per cluster for the inter-cluster matrix, plus the γ policy's runs.
/// Per-cluster work fans out over the rayon pool; the result is
/// bit-identical to [`compute_geometry_seq`].
pub fn compute_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
) -> GroundGeometry {
    build_geometry(g, clustering, state, op, config, true)
}

/// Fully sequential [`compute_geometry`]: one scratch, one cluster at a
/// time, no thread fan-out. Kept as the determinism reference and for
/// single-core baselines.
pub fn compute_geometry_seq(
    g: &CsrGraph,
    clustering: &Clustering,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
) -> GroundGeometry {
    build_geometry(g, clustering, state, op, config, false)
}

fn build_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
    parallel: bool,
) -> GroundGeometry {
    let costs = edge_costs(g, state, op, &config.ground);
    let max_edge_cost = config.ground.max_edge_cost();
    let n = g.node_count();
    let unreachable = sentinel(max_edge_cost, n);

    if matches!(config.clusters, crate::config::ClusterSpec::PerBin) {
        assert!(
            config.per_bin_gamma > 0,
            "per-bin gamma must be positive (identity of indiscernibles)"
        );
        return GroundGeometry {
            edge_costs: costs,
            max_edge_cost,
            unreachable,
            per_bin: true,
            gammas: Vec::new(),
            inter_cluster: DenseCost::filled(0, 0, 0),
        };
    }

    let nc = clustering.cluster_count();
    // One inter-cluster row plus one base γ per cluster, each needing only
    // that cluster's SSSPs — independent work items, identical outputs in
    // either evaluation order.
    let per_cluster: Vec<(Vec<u32>, u32)> = if parallel {
        (0..nc)
            .into_par_iter()
            .map(|c| {
                with_sssp_scratch(|scratch| {
                    cluster_geometry(
                        g,
                        clustering,
                        &costs,
                        max_edge_cost,
                        unreachable,
                        config,
                        c,
                        scratch,
                    )
                })
            })
            .collect()
    } else {
        // One scratch serves every SSSP this geometry needs — no per-run
        // `dist` allocation.
        let mut scratch = SsspScratch::new();
        (0..nc)
            .map(|c| {
                cluster_geometry(
                    g,
                    clustering,
                    &costs,
                    max_edge_cost,
                    unreachable,
                    config,
                    c,
                    &mut scratch,
                )
            })
            .collect()
    };

    let mut inter = DenseCost::filled(nc, nc, unreachable);
    let nb = config.banks_per_cluster.max(1);
    let mut gammas = Vec::with_capacity(nc);
    for (c, (row, base)) in per_cluster.into_iter().enumerate() {
        for (c2, &d) in row.iter().enumerate() {
            *inter.at_mut(c, c2) = d;
        }
        *inter.at_mut(c, c) = 0;
        gammas.push(
            (0..nb)
                .map(|b| base.saturating_mul(b as u32 + 1).min(unreachable))
                .collect(),
        );
    }

    GroundGeometry {
        edge_costs: costs,
        max_edge_cost,
        unreachable,
        per_bin: false,
        gammas,
        inter_cluster: inter,
    }
}

/// Cluster `c`'s inter-cluster distance row plus its base γ — the unit of
/// per-cluster fan-out.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the geometry inputs
fn cluster_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    costs: &[u32],
    max_edge_cost: u32,
    unreachable: u32,
    config: &SndConfig,
    c: usize,
    scratch: &mut SsspScratch,
) -> (Vec<u32>, u32) {
    dial_scratch(
        g,
        costs,
        clustering.members(c as u32),
        max_edge_cost,
        scratch,
    );
    let row = per_cluster_min(scratch, g.node_count(), clustering, unreachable);
    let base = base_gamma(
        g,
        clustering,
        costs,
        max_edge_cost,
        unreachable,
        config,
        c,
        scratch,
    );
    (row, base)
}

/// Reduces the scratch's last run to the minimum distance per cluster.
fn per_cluster_min(
    scratch: &SsspScratch,
    n: usize,
    clustering: &Clustering,
    unreachable: u32,
) -> Vec<u32> {
    let mut mins = vec![unreachable; clustering.cluster_count()];
    for (x, d) in scratch.distances(n).enumerate() {
        if d != UNREACHABLE {
            let c = clustering.labels[x] as usize;
            let clamped = (d.min(unreachable as u64)) as u32;
            if clamped < mins[c] {
                mins[c] = clamped;
            }
        }
    }
    mins
}

/// The γ policy's base value for one cluster.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the geometry inputs
fn base_gamma(
    g: &CsrGraph,
    clustering: &Clustering,
    costs: &[u32],
    max_edge_cost: u32,
    unreachable: u32,
    config: &SndConfig,
    c: usize,
    scratch: &mut SsspScratch,
) -> u32 {
    // Eccentricity of the scratch's last run over a cluster's members.
    let member_ecc = |scratch: &SsspScratch, members: &[snd_graph::NodeId]| {
        members
            .iter()
            .map(|&m| {
                let d = scratch.dist(m);
                if d == UNREACHABLE {
                    unreachable as u64
                } else {
                    d.min(unreachable as u64)
                }
            })
            .max()
            .unwrap_or(0) as u32
    };
    match config.gamma {
        GammaPolicy::Constant(v) => v,
        GammaPolicy::Eccentricity => {
            let members = clustering.members(c as u32);
            let rep = members[0];
            dial_scratch(g, costs, &[rep], max_edge_cost, scratch);
            let fwd = member_ecc(scratch, members);
            dial_reverse_scratch(g, costs, &[rep], max_edge_cost, scratch);
            let bwd = member_ecc(scratch, members);
            fwd.max(bwd)
        }
        GammaPolicy::HalfExactDiameter => {
            let members = clustering.members(c as u32);
            let mut diam = 0u64;
            for &p in members {
                dial_scratch(g, costs, &[p], max_edge_cost, scratch);
                for &q in members {
                    let d = scratch.dist(q);
                    let d = if d == UNREACHABLE {
                        unreachable as u64
                    } else {
                        d.min(unreachable as u64)
                    };
                    diam = diam.max(d);
                }
            }
            (diam.div_ceil(2)).min(unreachable as u64) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_graph::{bfs_partition, generators::path_graph};
    use snd_models::NetworkState;

    fn setup() -> (CsrGraph, Clustering, SndConfig) {
        let g = path_graph(8);
        let clustering = bfs_partition(&g, 2);
        let config = SndConfig {
            clusters: crate::config::ClusterSpec::BfsPartition { clusters: 2 },
            ..Default::default()
        };
        (g, clustering, config)
    }

    #[test]
    fn inter_cluster_diagonal_is_zero() {
        let (g, clustering, config) = setup();
        let state = NetworkState::new_neutral(8);
        let geom = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        for c in 0..clustering.cluster_count() {
            assert_eq!(geom.inter_cluster.at(c, c), 0);
        }
    }

    #[test]
    fn gammas_satisfy_theorem_3_bound() {
        // HalfExactDiameter and Eccentricity must both be >= half the exact
        // intra-cluster diameter.
        let (g, clustering, mut config) = setup();
        let state = NetworkState::from_values(&[1, 0, 0, -1, 0, 1, 0, 0]);
        config.gamma = GammaPolicy::HalfExactDiameter;
        let exact = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        config.gamma = GammaPolicy::Eccentricity;
        let ecc = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        for c in 0..clustering.cluster_count() {
            // exact gamma is ceil(diam/2); ecc must be at least that.
            assert!(
                ecc.gammas[c][0] >= exact.gammas[c][0],
                "cluster {c}: ecc {} < half-diam {}",
                ecc.gammas[c][0],
                exact.gammas[c][0]
            );
        }
    }

    #[test]
    fn bank_multiples_scale_gamma() {
        let (g, clustering, mut config) = setup();
        config.banks_per_cluster = 3;
        config.gamma = GammaPolicy::Constant(4);
        let state = NetworkState::new_neutral(8);
        let geom = compute_geometry(&g, &clustering, &state, Opinion::Negative, &config);
        for c in 0..clustering.cluster_count() {
            assert_eq!(geom.gammas[c], vec![4, 8, 12]);
        }
    }

    #[test]
    fn unreachable_sentinel_dominates_paths() {
        let (g, clustering, config) = setup();
        let state = NetworkState::new_neutral(8);
        let geom = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        // Longest possible path: (n-1) hops at max cost each.
        let longest = geom.max_edge_cost as u64 * 7;
        assert!(geom.unreachable as u64 > longest);
        assert_eq!(geom.clamp(u64::MAX), geom.unreachable);
        assert_eq!(geom.clamp(5), 5);
    }

    #[test]
    fn disconnected_clusters_get_sentinel_distance() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let clustering = Clustering::from_labels(&[0, 0, 1, 1]);
        let config = SndConfig {
            clusters: crate::config::ClusterSpec::BfsPartition { clusters: 2 },
            ..Default::default()
        };
        let state = NetworkState::new_neutral(4);
        let geom = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        assert_eq!(geom.inter_cluster.at(0, 1), geom.unreachable);
        assert_eq!(geom.inter_cluster.at(1, 0), geom.unreachable);
    }

    #[test]
    fn parallel_geometry_matches_sequential_under_every_gamma_policy() {
        let (g, clustering, mut config) = setup();
        let state = NetworkState::from_values(&[1, -1, 0, 1, 0, 0, -1, 1]);
        for gamma in [
            GammaPolicy::Constant(3),
            GammaPolicy::Eccentricity,
            GammaPolicy::HalfExactDiameter,
        ] {
            config.gamma = gamma;
            for op in [Opinion::Positive, Opinion::Negative] {
                let par = compute_geometry(&g, &clustering, &state, op, &config);
                let seq = compute_geometry_seq(&g, &clustering, &state, op, &config);
                assert_eq!(par, seq, "policy {gamma:?}, opinion {op:?}");
            }
        }
    }
}
