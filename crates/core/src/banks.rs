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
//! `build_geometry` is the one fresh builder of cluster-bank geometry:
//! per cluster, one multi-source SSSP for its inter-cluster row and the
//! γ policy's runs for its bank distances (Theorems 3–4 of the paper rest
//! on both). The work is embarrassingly parallel across clusters;
//! [`compute_geometry`] fans it out over the rayon pool (each worker
//! reuses its thread-local SSSP scratch), [`compute_geometry_seq`] is the
//! kept sequential reference, and the two are property-tested
//! bit-identical (`tests/shard_matrix.rs`). The delta series path
//! ([`crate::delta`]) calls the same builder and asks it to keep the SSSP
//! rows it later repairs.

use rayon::prelude::*;
use snd_graph::{dial_reverse_scratch, dial_scratch, Clustering, CsrGraph, NodeId, SsspScratch};
use snd_models::{edge_costs, NetworkState, Opinion};
use snd_transport::DenseCost;

use crate::config::{ClusterSpec, GammaPolicy, SndConfig};
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
        clamp(d, self.unreachable)
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

/// Clamps a raw SSSP distance (`UNREACHABLE` included) to the sentinel.
#[inline]
pub(crate) fn clamp(d: u64, unreachable: u32) -> u32 {
    if d >= unreachable as u64 {
        unreachable
    } else {
        d as u32
    }
}

/// Collects the scratch's last run as a clamped row.
pub(crate) fn clamped_row(scratch: &SsspScratch, n: usize, unreachable: u32) -> Vec<u32> {
    scratch
        .distances(n)
        .map(|d| clamp(d, unreachable))
        .collect()
}

/// Per-cluster minimum of a clamped row — one inter-cluster distance row.
pub(crate) fn min_reduce(
    row: impl Iterator<Item = u32>,
    clustering: &Clustering,
    unreachable: u32,
) -> Vec<u32> {
    let mut mins = vec![unreachable; clustering.cluster_count()];
    for (x, d) in row.enumerate() {
        let c = clustering.labels[x] as usize;
        mins[c] = mins[c].min(d);
    }
    mins
}

/// Largest clamped distance `dist(m)` over a member set (0 when empty).
pub(crate) fn member_ecc(members: &[NodeId], dist: impl Fn(NodeId) -> u32) -> u32 {
    members.iter().map(|&m| dist(m)).max().unwrap_or(0)
}

/// The eccentricity policy's SSSP source set: the cluster's first member,
/// or none for an empty cluster (whose γ is then 0).
pub(crate) fn representative(members: &[NodeId]) -> &[NodeId] {
    &members[..members.len().min(1)]
}

/// Writes cluster `c`'s inter-cluster row, with its zero diagonal.
pub(crate) fn write_inter_row(inter: &mut DenseCost, c: usize, mins: &[u32]) {
    for (c2, &d) in mins.iter().enumerate() {
        *inter.at_mut(c, c2) = d;
    }
    *inter.at_mut(c, c) = 0;
}

/// The bank distances of one cluster: `base·(b+1)` for each of `nb` banks,
/// capped at the sentinel.
pub(crate) fn bank_gammas(base: u32, nb: usize, unreachable: u32) -> Vec<u32> {
    (0..nb)
        .map(|b| base.saturating_mul(b as u32 + 1).min(unreachable))
        .collect()
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
    let costs = edge_costs(g, state, op, &config.ground);
    build_geometry(g, clustering, costs, config, true, false).0
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
    let costs = edge_costs(g, state, op, &config.ground);
    build_geometry(g, clustering, costs, config, false, false).0
}

/// SSSP rows a fresh build keeps for later repair, one entry per cluster:
/// the clamped multi-source row and, under the eccentricity policy, the
/// representative's forward and reverse rows.
#[derive(Default)]
pub(crate) struct KeptRows {
    pub(crate) cluster: Vec<Vec<u32>>,
    pub(crate) ecc_fwd: Vec<Vec<u32>>,
    pub(crate) ecc_rev: Vec<Vec<u32>>,
}

/// One cluster's share of a build: its inter-cluster row, base γ and the
/// rows it keeps, if any.
struct ClusterOut {
    mins: Vec<u32>,
    base: u32,
    row: Option<Vec<u32>>,
    ecc: Option<(Vec<u32>, Vec<u32>)>,
}

/// The fresh geometry builder over already-derived edge costs. Cluster
/// work fans out over the rayon pool when `parallel`, else runs on one
/// scratch; both orders give identical outputs. With `keep_rows`, the
/// rows come back too — but only when the geometry is repairable: cluster
/// banks, a lossless clamp domain, and a γ policy other than
/// `HalfExactDiameter` (its `O(|members|)` SSSPs per cluster are not
/// kept). Otherwise the returned [`KeptRows`] is empty.
pub(crate) fn build_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    costs: Vec<u32>,
    config: &SndConfig,
    parallel: bool,
    keep_rows: bool,
) -> (GroundGeometry, KeptRows) {
    let max_edge_cost = config.ground.max_edge_cost();
    let n = g.node_count();
    let unreachable = sentinel(max_edge_cost, n);
    let per_bin = matches!(config.clusters, ClusterSpec::PerBin);
    let mut geom = GroundGeometry {
        edge_costs: costs,
        max_edge_cost,
        unreachable,
        per_bin,
        gammas: Vec::new(),
        inter_cluster: DenseCost::filled(0, 0, 0),
    };
    let mut kept = KeptRows::default();
    if per_bin {
        assert!(
            config.per_bin_gamma > 0,
            "per-bin gamma must be positive (identity of indiscernibles)"
        );
        return (geom, kept);
    }

    let keep =
        keep_rows && !matches!(config.gamma, GammaPolicy::HalfExactDiameter) && geom.is_lossless(n);
    let nc = clustering.cluster_count();
    let costs = &geom.edge_costs;
    let work = |c: usize, scratch: &mut SsspScratch| {
        cluster_geometry(g, clustering, costs, config, unreachable, keep, c, scratch)
    };
    let per_cluster: Vec<ClusterOut> = if parallel {
        (0..nc)
            .into_par_iter()
            .map(|c| with_sssp_scratch(|scratch| work(c, scratch)))
            .collect()
    } else {
        // One scratch serves every SSSP this geometry needs — no per-run
        // `dist` allocation.
        let mut scratch = SsspScratch::new();
        (0..nc).map(|c| work(c, &mut scratch)).collect()
    };

    let nb = config.banks_per_cluster.max(1);
    let mut inter = DenseCost::filled(nc, nc, unreachable);
    for (c, out) in per_cluster.into_iter().enumerate() {
        write_inter_row(&mut inter, c, &out.mins);
        geom.gammas.push(bank_gammas(out.base, nb, unreachable));
        kept.cluster.extend(out.row);
        if let Some((fwd, rev)) = out.ecc {
            kept.ecc_fwd.push(fwd);
            kept.ecc_rev.push(rev);
        }
    }
    geom.inter_cluster = inter;
    (geom, kept)
}

/// Cluster `c`'s inter-cluster row and base γ — the unit of per-cluster
/// fan-out — plus its rows when `keep`.
#[allow(clippy::too_many_arguments)] // internal helper mirroring the geometry inputs
fn cluster_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    costs: &[u32],
    config: &SndConfig,
    unreachable: u32,
    keep: bool,
    c: usize,
    scratch: &mut SsspScratch,
) -> ClusterOut {
    let n = g.node_count();
    let max_edge_cost = config.ground.max_edge_cost();
    let members = clustering.members(c as u32);
    let dist = |scratch: &SsspScratch, m: NodeId| clamp(scratch.dist(m), unreachable);
    let kept_row = |scratch: &SsspScratch| keep.then(|| clamped_row(scratch, n, unreachable));

    dial_scratch(g, costs, members, max_edge_cost, scratch);
    let clamped = scratch.distances(n).map(|d| clamp(d, unreachable));
    let mins = min_reduce(clamped, clustering, unreachable);
    let row = kept_row(scratch);
    let mut ecc = None;
    let base = match config.gamma {
        GammaPolicy::Constant(v) => v,
        GammaPolicy::Eccentricity => {
            let rep = representative(members);
            dial_scratch(g, costs, rep, max_edge_cost, scratch);
            let fwd = member_ecc(members, |m| dist(scratch, m));
            let fwd_row = kept_row(scratch);
            dial_reverse_scratch(g, costs, rep, max_edge_cost, scratch);
            let rev = member_ecc(members, |m| dist(scratch, m));
            ecc = fwd_row.zip(kept_row(scratch));
            fwd.max(rev)
        }
        GammaPolicy::HalfExactDiameter => {
            let mut diam = 0u32;
            for &p in members {
                dial_scratch(g, costs, &[p], max_edge_cost, scratch);
                diam = diam.max(member_ecc(members, |q| dist(scratch, q)));
            }
            diam.div_ceil(2)
        }
    };
    ClusterOut {
        mins,
        base,
        row,
        ecc,
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

    #[test]
    fn empty_graph_prices_to_zero_under_every_gamma_policy() {
        // `ClusterSpec::Single` on a 0-node graph is one cluster with no
        // members: no representative to run eccentricity SSSPs from.
        let g = CsrGraph::from_edges(0, &[]);
        let states = vec![NetworkState::new_neutral(0); 3];
        for gamma in [
            GammaPolicy::Constant(2),
            GammaPolicy::Eccentricity,
            GammaPolicy::HalfExactDiameter,
        ] {
            let config = SndConfig {
                clusters: crate::config::ClusterSpec::Single,
                gamma,
                ..Default::default()
            };
            let engine = crate::SndEngine::new(&g, config);
            for op in [Opinion::Positive, Opinion::Negative] {
                let geom = engine.geometry(&states[0], op);
                assert_eq!(geom, engine.geometry_seq(&states[0], op), "{gamma:?}");
                assert!(geom.edge_costs.is_empty(), "{gamma:?}");
            }
            assert_eq!(engine.distance(&states[0], &states[1]), 0.0, "{gamma:?}");
            assert_eq!(engine.series_distances(&states), vec![0.0; 2], "{gamma:?}");
            let matrix = engine.pairwise_distances(&states);
            assert_eq!(matrix.to_rows(), vec![vec![0.0; 3]; 3], "{gamma:?}");
        }
    }
}
