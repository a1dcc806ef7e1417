//! The dense reference path: full all-pairs ground distance plus the full
//! extended transportation problem of Eq. 4.
//!
//! This is deliberately the "direct computation" a practitioner would write
//! without Theorem 4 — it materializes the `n × n` ground distance (`n`
//! SSSP runs) and hands the complete extended problem to the LP solver. It
//! serves as (a) the correctness oracle for the sparse path and (b) the
//! stand-in for the paper's CPLEX baseline in the Fig. 11 scalability
//! comparison. Memory is `O(n²)`; keep `n` in the low thousands.

use snd_emd::{emd_star, Histogram, StarGeometry};
use snd_graph::{dial, Clustering, CsrGraph, NodeId};
use snd_models::{NetworkState, Opinion};
use snd_transport::DenseCost;

use crate::banks::GroundGeometry;
use crate::config::SndConfig;

/// Materializes the full `n × n` ground distance matrix with one SSSP per
/// node; unreachable pairs get the geometry's finite sentinel.
pub fn full_ground_matrix(g: &CsrGraph, geom: &GroundGeometry) -> DenseCost {
    let n = g.node_count();
    let mut data = Vec::with_capacity(n * n);
    for u in 0..n as NodeId {
        let dist = dial(g, &geom.edge_costs, &[u], geom.max_edge_cost);
        data.extend(dist.into_iter().map(|d| geom.clamp(d)));
    }
    DenseCost::from_vec(n, n, data)
}

/// Converts the engine's clustering + geometry into the explicit
/// [`StarGeometry`] consumed by `snd-emd`'s dense EMD\*.
pub fn star_geometry(clustering: &Clustering, geom: &GroundGeometry) -> StarGeometry {
    StarGeometry {
        labels: clustering.labels.clone(),
        cluster_count: clustering.cluster_count(),
        gammas: geom.gammas.clone(),
        inter_cluster: geom.inter_cluster.clone(),
    }
}

/// One dense EMD\* term `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))`. In per-bin mode
/// the explicit geometry has one singleton cluster per bin with
/// `inter_cluster = D` itself.
pub fn emd_star_term(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    p_state: &NetworkState,
    q_state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
) -> f64 {
    let ground = full_ground_matrix(g, geom);
    let star = if geom.per_bin {
        let n = g.node_count();
        StarGeometry {
            labels: (0..n as u32).collect(),
            cluster_count: n,
            gammas: vec![vec![config.per_bin_gamma]; n],
            inter_cluster: ground.clone(),
        }
    } else {
        star_geometry(clustering, geom)
    };
    let p = Histogram::from_f64(&p_state.projection(op), config.scale);
    let q = Histogram::from_f64(&q_state.projection(op), config.scale);
    emd_star(&p, &q, &ground, &star, config.solver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::compute_geometry;
    use snd_graph::bfs_partition;
    use snd_graph::floyd_warshall;
    use snd_graph::generators::path_graph;

    fn snd_core_cluster_spec(k: usize) -> crate::config::ClusterSpec {
        crate::config::ClusterSpec::BfsPartition { clusters: k }
    }

    #[test]
    fn full_matrix_matches_floyd_warshall() {
        let g = path_graph(6);
        let clustering = bfs_partition(&g, 2);
        let config = SndConfig {
            clusters: snd_core_cluster_spec(2),
            ..Default::default()
        };
        let state = NetworkState::from_values(&[1, 0, -1, 0, 0, 1]);
        let geom = compute_geometry(&g, &clustering, &state, Opinion::Positive, &config);
        let dense = full_ground_matrix(&g, &geom);
        let fw = floyd_warshall(&g, &geom.edge_costs);
        for (i, fw_row) in fw.iter().enumerate() {
            for (j, &expect) in fw_row.iter().enumerate() {
                assert_eq!(dense.at(i, j) as u64, expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn inter_cluster_matrix_agrees_with_full_matrix() {
        // The geometry read off the full matrix is the oracle for both the
        // batch build and the delta path's fresh build: inter-cluster
        // distances are min-pair distances, and each γ policy's base is
        // what its definition says — the constant, the representative's
        // two-way eccentricity, or half the exact diameter rounded up.
        use crate::config::{ClusterSpec, GammaPolicy};
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let ba = snd_graph::generators::barabasi_albert(30, 2, &mut rng);
        // Directed: drop one direction of every third tie.
        let arcs: Vec<(NodeId, NodeId)> = (0..ba.edge_count() as u32)
            .map(|e| (ba.edge_source(e), ba.edge_target(e)))
            .filter(|&(u, v)| u < v || (u + v) % 3 != 0)
            .collect();
        let two_components = CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 1),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let inputs = [
            (path_graph(9), 3),
            (CsrGraph::from_edges(30, &arcs), 4),
            (two_components, 3),
        ];
        for (g, k) in inputs {
            let n = g.node_count();
            let values: Vec<i8> = (0..n).map(|i| (i % 3) as i8 - 1).collect();
            let state = NetworkState::from_values(&values);
            for gamma in [
                GammaPolicy::Constant(3),
                GammaPolicy::Eccentricity,
                GammaPolicy::HalfExactDiameter,
            ] {
                let config = SndConfig {
                    clusters: ClusterSpec::BfsPartition { clusters: k },
                    gamma,
                    banks_per_cluster: 2,
                    ..Default::default()
                };
                let engine = crate::SndEngine::new(&g, config.clone());
                let clustering = engine.clustering();
                let bundle = crate::delta::DeltaStateGeometry::fresh(&engine, &state);
                for (op, fresh) in [
                    (Opinion::Positive, &bundle.pos.geom),
                    (Opinion::Negative, &bundle.neg.geom),
                ] {
                    let geom = compute_geometry(&g, clustering, &state, op, &config);
                    let dense = full_ground_matrix(&g, &geom);
                    let d = |p: NodeId, q: NodeId| dense.at(p as usize, q as usize);
                    for built in [&geom, fresh] {
                        for c in 0..clustering.cluster_count() {
                            let members = clustering.members(c as u32);
                            for c2 in 0..clustering.cluster_count() {
                                let mut expected = u32::MAX;
                                for &p in members {
                                    for &q in clustering.members(c2 as u32) {
                                        expected = expected.min(d(p, q));
                                    }
                                }
                                assert_eq!(built.inter_cluster.at(c, c2), expected, "({c},{c2})");
                            }
                            let rep = members[0];
                            let base = match gamma {
                                GammaPolicy::Constant(v) => v,
                                GammaPolicy::Eccentricity => members
                                    .iter()
                                    .map(|&m| d(rep, m).max(d(m, rep)))
                                    .fold(0, u32::max),
                                GammaPolicy::HalfExactDiameter => {
                                    let diam = members
                                        .iter()
                                        .flat_map(|&p| members.iter().map(move |&q| (p, q)))
                                        .map(|(p, q)| d(p, q))
                                        .fold(0, u32::max);
                                    diam.div_ceil(2)
                                }
                            };
                            let banks = vec![base, (2 * base).min(geom.unreachable)];
                            assert_eq!(built.gammas[c], banks, "{gamma:?} {op:?} cluster {c}");
                        }
                    }
                }
            }
        }
    }
}
