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
//! Cluster-bank geometry has two parts, each with one kernel:
//!
//! * **γ** (`build_geometry`, the one γ builder): the γ policy's runs for
//!   every cluster's bank distances (Theorem 3). γ only reads
//!   member-to-member distances, so every γ run is *member-bounded*
//!   ([`snd_graph::dial_bounded_scratch`] with unit weight on the
//!   members): it stops at the first bucket boundary where every member
//!   is settled instead of settling the whole graph. The delta series
//!   path ([`crate::delta`]) calls the same builder and asks it to keep,
//!   under `Eccentricity` γ, the *balls* of each cluster's two bounded
//!   runs — the settled nodes with their exact distances and the run's
//!   radius, collected in `O(|ball|)` from the scratch's settle order —
//!   which it later repairs.
//! * **Inter-cluster rows** (`cluster_row`): cluster `c`'s distance to
//!   every cluster, one multi-source Dial from its members (a reverse
//!   Dial for the distances *to* them) min-reduced to one entry per
//!   cluster. A term reads only the rows of the clusters holding its row
//!   nodes, so the engine's bundles compute them lazily, as keys of the
//!   row cache ([`crate::sparse::RowCache`], filled by [`crate::batch`]);
//!   their geometry's `inter_cluster` matrix stays empty.
//!
//! [`compute_geometry`] and [`compute_geometry_seq`] are the eager
//! reference: γ plus the forward `cluster_row` of every cluster as the
//! `inter_cluster` matrix. The first fans the per-cluster work out over
//! the rayon pool (each worker reuses its thread-local SSSP scratch and
//! member weights), the second runs it on one scratch, and the two are
//! property-tested bit-identical (`tests/shard_matrix.rs`).

use std::cell::RefCell;

use rayon::prelude::*;
use snd_graph::{dial_bounded_scratch, Clustering, CsrGraph, NodeId, SsspScratch};
use snd_models::{edge_costs, NetworkState, Opinion};
use snd_transport::DenseCost;

use crate::config::{ClusterSpec, GammaPolicy, SndConfig};
use crate::sparse::{sssp, with_sssp_scratch};

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
    /// empty in per-bin mode and in bundle-chain geometries, whose terms
    /// read these rows from their row cache instead).
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

/// Cluster `c`'s inter-cluster row, written into `out` (one entry per
/// cluster): the per-cluster minimum of `row`, the clamped multi-source
/// row of `c`'s members, with the zero diagonal.
pub(crate) fn min_reduce(
    row: impl Iterator<Item = u32>,
    clustering: &Clustering,
    unreachable: u32,
    c: usize,
    out: &mut [u32],
) {
    out.fill(unreachable);
    for (x, d) in row.enumerate() {
        let c2 = clustering.labels[x] as usize;
        out[c2] = out[c2].min(d);
    }
    out[c] = 0;
}

/// Cluster `c`'s inter-cluster row over `geom`'s edge costs: one
/// multi-source Dial from its members, min-reduced. Entry `c2` is
/// `min_{p∈c, q∈c2} D(p, q)`, or `D(q, p)` when `reverse` (the Dial then
/// runs on reversed edges: distances *to* the members), so the reverse
/// row of `c` is column `c` of the forward rows' matrix.
pub(crate) fn cluster_row(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    c: usize,
    reverse: bool,
) -> Box<[u32]> {
    let mut out = vec![0; clustering.cluster_count()].into_boxed_slice();
    with_sssp_scratch(|scratch| {
        sssp(g, geom, reverse, clustering.members(c as u32), scratch);
        let row = scratch.distances(g.node_count()).map(|d| geom.clamp(d));
        min_reduce(row, clustering, geom.unreachable, c, &mut out);
    });
    out
}

thread_local! {
    /// Per-thread target weights of the member-bounded γ runs: all zero
    /// between runs, so marking and clearing one cluster's members costs
    /// `O(|members|)`, never an `O(n)` allocation.
    static MEMBER_WEIGHTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One member-bounded `Eccentricity` γ run, kept so the delta path can
/// repair it instead of re-running it: the nodes the run settled, with
/// their exact clamped distances, and its radius. Every node outside the
/// ball is at least `radius` away. A run that drained its queue (a member
/// the source cannot reach) has the sentinel as radius, and its ball is
/// every node the source reaches.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Ball {
    pub(crate) nodes: Vec<(NodeId, u32)>,
    pub(crate) radius: u32,
}

impl Ball {
    /// The ball of the scratch's last bounded run, which returned `radius`.
    fn collect(scratch: &SsspScratch, radius: u64, unreachable: u32) -> Ball {
        let nodes = scratch.settled().iter();
        Ball {
            nodes: nodes
                .map(|&v| (v, clamp(scratch.dist(v), unreachable)))
                .collect(),
            radius: clamp(radius, unreachable),
        }
    }
}

/// What the delta path keeps of one cluster to repair it at the next
/// step: under `Eccentricity` γ, the forward and reverse γ balls of the
/// representative `members[0]` (empty under any other policy and for an
/// empty cluster).
#[derive(Clone, Debug)]
pub(crate) struct KeptCluster {
    pub(crate) balls: Vec<Ball>,
}

/// One Dial from `src` (distances *to* it when `reverse`) that stops once
/// every member is settled: returns the members' largest clamped distance
/// (0 without members) and the run's raw radius.
#[allow(clippy::too_many_arguments)] // the bounded run's inputs plus the member set
fn member_ecc(
    g: &CsrGraph,
    costs: &[u32],
    max_edge_cost: u32,
    src: NodeId,
    reverse: bool,
    members: &[NodeId],
    unreachable: u32,
    scratch: &mut SsspScratch,
) -> (u32, u64) {
    MEMBER_WEIGHTS.with(|cell| {
        let mut weights = cell.borrow_mut();
        // Entries are zero between runs, so resizing keeps the invariant.
        weights.resize(g.node_count(), 0);
        for &m in members {
            weights[m as usize] = 1;
        }
        let cap = members.len() as u64;
        let radius = dial_bounded_scratch(
            g,
            costs,
            &[src],
            max_edge_cost,
            reverse,
            &weights,
            cap,
            scratch,
        );
        for &m in members {
            weights[m as usize] = 0;
        }
        let dist = |m: NodeId| clamp(scratch.dist(m), unreachable);
        (members.iter().map(|&m| dist(m)).max().unwrap_or(0), radius)
    })
}

/// One `Eccentricity` γ run of the non-empty cluster `members`, from its
/// representative `members[0]` (distances *to* it when `reverse`): the
/// representative's eccentricity in that direction and, with `keep`, the
/// run's ball.
#[allow(clippy::too_many_arguments)] // the bounded run's inputs plus what to keep
pub(crate) fn ecc_run(
    g: &CsrGraph,
    costs: &[u32],
    max_edge_cost: u32,
    members: &[NodeId],
    reverse: bool,
    unreachable: u32,
    keep: bool,
    scratch: &mut SsspScratch,
) -> (u32, Option<Ball>) {
    let (ecc, radius) = member_ecc(
        g,
        costs,
        max_edge_cost,
        members[0],
        reverse,
        members,
        unreachable,
        scratch,
    );
    (
        ecc,
        keep.then(|| Ball::collect(scratch, radius, unreachable)),
    )
}

/// Cluster base γ under `config.gamma`, over edge costs `costs`:
///
/// * `Constant(v)`: `v`;
/// * `Eccentricity`: the larger of the forward and reverse eccentricity
///   of the representative `members[0]` within the cluster (0 for an
///   empty cluster);
/// * `HalfExactDiameter`: `⌈diam/2⌉` of the intra-cluster diameter.
///
/// Every run is a Dial from one member that stops once all members are
/// settled, so each member's distance is exact; a member the source
/// cannot reach drains the run and reads the sentinel. Bit-identical to
/// reading the members' entries of full SSSP rows. With `keep_balls`,
/// the two `Eccentricity` runs come back as the forward and reverse
/// [`Ball`]; no other policy returns any.
#[allow(clippy::too_many_arguments)] // the geometry inputs plus what to keep
pub(crate) fn base_gamma(
    g: &CsrGraph,
    costs: &[u32],
    config: &SndConfig,
    members: &[NodeId],
    unreachable: u32,
    keep_balls: bool,
    scratch: &mut SsspScratch,
) -> (u32, Vec<Ball>) {
    let max_edge_cost = config.ground.max_edge_cost();
    match (config.gamma, members.is_empty()) {
        (GammaPolicy::Constant(v), _) => (v, Vec::new()),
        (GammaPolicy::Eccentricity, false) => {
            let [(fwd, fwd_ball), (rev, rev_ball)] = [false, true].map(|reverse| {
                ecc_run(
                    g,
                    costs,
                    max_edge_cost,
                    members,
                    reverse,
                    unreachable,
                    keep_balls,
                    scratch,
                )
            });
            (fwd.max(rev), fwd_ball.into_iter().chain(rev_ball).collect())
        }
        (GammaPolicy::HalfExactDiameter, _) => {
            let mut forward = |p: NodeId| {
                member_ecc(
                    g,
                    costs,
                    max_edge_cost,
                    p,
                    false,
                    members,
                    unreachable,
                    scratch,
                )
                .0
            };
            let diam = members.iter().map(|&p| forward(p)).max().unwrap_or(0);
            (diam.div_ceil(2), Vec::new())
        }
        (GammaPolicy::Eccentricity, true) => (0, Vec::new()),
    }
}

/// The bank distances of one cluster: `base·(b+1)` for each of `nb` banks,
/// capped at the sentinel.
pub(crate) fn bank_gammas(base: u32, nb: usize, unreachable: u32) -> Vec<u32> {
    (0..nb)
        .map(|b| base.saturating_mul(b as u32 + 1).min(unreachable))
        .collect()
}

/// Computes the eager geometry for `(state, op)`: the γ policy's runs plus
/// the forward `cluster_row` of every cluster as the `inter_cluster`
/// matrix. Per-cluster work fans out over the rayon pool; the result is
/// bit-identical to [`compute_geometry_seq`].
pub fn compute_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
) -> GroundGeometry {
    let costs = edge_costs(g, state, op, &config.ground);
    let (geom, _) = build_geometry(g, clustering, costs, config, true, false);
    with_inter_cluster(g, clustering, geom, true)
}

/// Fully sequential [`compute_geometry`]: one cluster at a time on the
/// calling thread, no thread fan-out. Kept as the determinism reference
/// and for single-core baselines.
pub fn compute_geometry_seq(
    g: &CsrGraph,
    clustering: &Clustering,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
) -> GroundGeometry {
    let costs = edge_costs(g, state, op, &config.ground);
    let (geom, _) = build_geometry(g, clustering, costs, config, false, false);
    with_inter_cluster(g, clustering, geom, false)
}

/// `geom` with its `inter_cluster` matrix filled: row `c` is the forward
/// [`cluster_row`] of cluster `c` (nothing in per-bin mode). The rows fan
/// out over the rayon pool when `parallel`.
fn with_inter_cluster(
    g: &CsrGraph,
    clustering: &Clustering,
    mut geom: GroundGeometry,
    parallel: bool,
) -> GroundGeometry {
    if geom.per_bin {
        return geom;
    }
    let nc = clustering.cluster_count();
    let row = |c: usize| cluster_row(g, clustering, &geom, c, false);
    let rows: Vec<Box<[u32]>> = if parallel {
        (0..nc).into_par_iter().map(row).collect()
    } else {
        (0..nc).map(row).collect()
    };
    geom.inter_cluster = DenseCost::from_vec(nc, nc, rows.concat());
    geom
}

/// The one γ builder over already-derived edge costs: every cluster's
/// base γ, as bank distances, and no inter-cluster rows (`inter_cluster`
/// stays empty). Cluster work fans out over the rayon pool when
/// `parallel`, else runs on the calling thread; both orders give
/// identical outputs. With `keep_balls`, each cluster's repair state
/// comes back too ([`KeptCluster`]: under `Eccentricity` γ, the γ balls
/// the delta path repairs) — but only when the geometry is repairable:
/// cluster banks and a lossless clamp domain. Otherwise the returned
/// state is empty.
pub(crate) fn build_geometry(
    g: &CsrGraph,
    clustering: &Clustering,
    costs: Vec<u32>,
    config: &SndConfig,
    parallel: bool,
    keep_balls: bool,
) -> (GroundGeometry, Vec<KeptCluster>) {
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
    let mut kept = Vec::new();
    if per_bin {
        assert!(
            config.per_bin_gamma > 0,
            "per-bin gamma must be positive (identity of indiscernibles)"
        );
        return (geom, kept);
    }

    let keep = keep_balls && geom.is_lossless(n);
    let nc = clustering.cluster_count();
    let costs = &geom.edge_costs;
    let work = |c: usize| {
        let members = clustering.members(c as u32);
        with_sssp_scratch(|scratch| {
            base_gamma(g, costs, config, members, unreachable, keep, scratch)
        })
    };
    let per_cluster: Vec<(u32, Vec<Ball>)> = if parallel {
        (0..nc).into_par_iter().map(work).collect()
    } else {
        (0..nc).map(work).collect()
    };

    let nb = config.banks_per_cluster.max(1);
    for (base, balls) in per_cluster {
        geom.gammas.push(bank_gammas(base, nb, unreachable));
        if keep {
            kept.push(KeptCluster { balls });
        }
    }
    (geom, kept)
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// γ read off full, unbounded `dial`/`dial_reverse` rows: the
    /// reference the member-bounded runs of `base_gamma` and the repaired
    /// γ balls of the delta path must reproduce.
    pub(crate) fn full_row_gamma(
        g: &CsrGraph,
        costs: &[u32],
        max_edge_cost: u32,
        members: &[NodeId],
        gamma: GammaPolicy,
        unreachable: u32,
    ) -> u32 {
        let ecc = |row: Vec<u64>| {
            let capped = |m: &NodeId| row[*m as usize].min(unreachable as u64) as u32;
            members.iter().map(capped).max().unwrap_or(0)
        };
        let fwd = |p: NodeId| ecc(snd_graph::dial(g, costs, &[p], max_edge_cost));
        let rev = |p: NodeId| ecc(snd_graph::dial_reverse(g, costs, &[p], max_edge_cost));
        match gamma {
            GammaPolicy::Constant(v) => v,
            GammaPolicy::Eccentricity => members.first().map_or(0, |&r| fwd(r).max(rev(r))),
            GammaPolicy::HalfExactDiameter => members
                .iter()
                .map(|&p| fwd(p))
                .max()
                .unwrap_or(0)
                .div_ceil(2),
        }
    }

    /// Builds the geometry both ways (parallel and sequential) and checks
    /// every cluster's γ against [`full_row_gamma`]. Returns the number
    /// of clusters whose γ is the sentinel (a member the source cannot
    /// reach).
    fn check_gammas_against_full_rows(
        g: &CsrGraph,
        clustering: &Clustering,
        costs: &[u32],
        config: &SndConfig,
        what: &str,
    ) -> usize {
        let mut sentinel_gammas = 0;
        for parallel in [true, false] {
            let (geom, _) = build_geometry(g, clustering, costs.to_vec(), config, parallel, false);
            for c in 0..clustering.cluster_count() {
                let members = clustering.members(c as u32);
                let base = full_row_gamma(
                    g,
                    costs,
                    geom.max_edge_cost,
                    members,
                    config.gamma,
                    geom.unreachable,
                );
                let expect = base.min(geom.unreachable);
                assert_eq!(
                    geom.gammas[c][0],
                    expect,
                    "{what}, {:?}, cluster {c} of {} members, parallel {parallel}",
                    config.gamma,
                    members.len()
                );
                sentinel_gammas += usize::from(expect == geom.unreachable);
            }
        }
        sentinel_gammas
    }

    #[test]
    fn bounded_gammas_match_full_row_oracle_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(31);
        let mut sentinel_gammas = 0;
        for trial in 0..30 {
            let n = 8 + trial % 25;
            // Sparse directed graphs: some members are unreachable from
            // their cluster's representative.
            let g = snd_graph::generators::erdos_renyi_gnp(n, 0.12, false, &mut rng);
            for gamma in [GammaPolicy::Eccentricity, GammaPolicy::HalfExactDiameter] {
                let config = SndConfig {
                    clusters: ClusterSpec::BfsPartition { clusters: 4 },
                    gamma,
                    ..Default::default()
                };
                let max = config.ground.max_edge_cost();
                // Two in five edges cost 0: members tie with non-members
                // inside one bucket, so the stop lands on a bucket
                // boundary reached through zero-weight chains.
                let costs: Vec<u32> = (0..g.edge_count())
                    .map(|_| {
                        if rng.gen_bool(0.4) {
                            0
                        } else {
                            rng.gen_range(1..=max)
                        }
                    })
                    .collect();
                // Nodes 0 and 1 are singletons; the rest spread over four
                // clusters; one extra cluster has no members at all.
                let labels: Vec<u32> = (0..n as u32)
                    .map(|v| if v < 2 { 10 + v } else { rng.gen_range(0..4) })
                    .collect();
                let mut clustering = Clustering::from_labels(&labels);
                clustering.clusters.push(Vec::new());
                let what = format!("trial {trial}");
                sentinel_gammas +=
                    check_gammas_against_full_rows(&g, &clustering, &costs, &config, &what);
            }
        }
        assert!(sentinel_gammas > 0, "no trial had an unreachable member");
    }

    #[test]
    fn bounded_gammas_match_full_row_oracle_in_a_capped_domain() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // U·n + 1 past `u32::MAX / 4`: a 2¹⁵-node graph with U ≥ 2¹⁵.
        // A 40-node random core carries every edge; the other nodes are
        // isolated and join cluster 0, whose representative therefore
        // cannot reach most of its members.
        let n = 1usize << 15;
        let core = 40u32;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut edges = Vec::new();
        for _ in 0..120 {
            edges.push((rng.gen_range(0..core), rng.gen_range(0..core)));
        }
        let g = CsrGraph::from_edges(n, &edges);
        let mut config = SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 4 },
            ..Default::default()
        };
        config.ground.communication = Some(vec![1 << 15; g.edge_count()]);
        let costs: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(0..=6)).collect();
        let labels: Vec<u32> = (0..n as u32)
            .map(|v| if v < core { rng.gen_range(0..4) } else { 0 })
            .collect();
        let clustering = Clustering::from_labels(&labels);
        let (geom, kept) = build_geometry(&g, &clustering, costs.clone(), &config, true, true);
        assert!(!geom.is_lossless(n), "sentinel must be capped");
        assert_eq!(geom.unreachable, u32::MAX / 4);
        assert!(kept.is_empty(), "a capped domain keeps no repair state");
        let sentinel_gammas =
            check_gammas_against_full_rows(&g, &clustering, &costs, &config, "capped");
        assert!(sentinel_gammas > 0, "cluster 0 must read the sentinel");
    }
}
