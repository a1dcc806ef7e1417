//! Random and deterministic graph generators.
//!
//! The paper's synthetic experiments run on scale-free networks with
//! exponents between −2.9 and −2.1 and sizes up to 200k nodes; social ties
//! are treated as bidirectional conduits for opinions, so generators default
//! to emitting both edge directions.

use rand::Rng;

use crate::csr::{CsrGraph, NodeId};

/// Samples a degree from a discrete power law `P(k) ∝ k^exponent` over
/// `k ∈ [k_min, k_max]` by inversion on the (unnormalized) CDF.
fn sample_power_law<R: Rng>(cdf: &[f64], k_min: usize, rng: &mut R) -> usize {
    // lint:allow(no-unwrap) the caller builds the cdf over k_min..=k_max, which is never empty
    let total = *cdf.last().expect("non-empty cdf");
    let x = rng.gen_range(0.0..total);
    let idx = cdf.partition_point(|&c| c < x);
    k_min + idx.min(cdf.len() - 1)
}

fn power_law_cdf(exponent: f64, k_min: usize, k_max: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(k_max - k_min + 1);
    let mut acc = 0.0;
    for k in k_min..=k_max {
        acc += (k as f64).powf(exponent);
        cdf.push(acc);
    }
    cdf
}

/// Configuration-model scale-free graph.
///
/// Node degrees are drawn from `P(k) ∝ k^exponent` (the paper uses exponents
/// in `[-2.9, -2.1]`), stubs are shuffled and paired, and each generated tie
/// is emitted in both directions. Self-loops and duplicates are dropped by
/// CSR construction. The result is connected "in the large" but not
/// guaranteed connected; use [`crate::components::largest_weak_component`]
/// when a connected graph is required.
pub fn scale_free_configuration<R: Rng>(
    n: usize,
    exponent: f64,
    k_min: usize,
    k_max: usize,
    rng: &mut R,
) -> CsrGraph {
    assert!(exponent < 0.0, "scale-free exponent must be negative");
    if n <= 1 {
        // Degenerate sizes admit no ties at all (previously this tripped
        // the `k_max < n` assertion): return the edgeless graph.
        return CsrGraph::from_edges(n, &[]);
    }
    assert!(k_min >= 1 && k_max >= k_min && k_max < n);
    let cdf = power_law_cdf(exponent, k_min, k_max);
    let mut stubs: Vec<NodeId> = Vec::new();
    for u in 0..n as NodeId {
        let deg = sample_power_law(&cdf, k_min, rng);
        stubs.extend(std::iter::repeat_n(u, deg));
    }
    if stubs.len() % 2 == 1 {
        stubs.pop();
    }
    // Fisher–Yates shuffle, then pair consecutive stubs.
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    let mut edges = Vec::with_capacity(stubs.len());
    for pair in stubs.chunks_exact(2) {
        let (u, v) = (pair[0], pair[1]);
        edges.push((u, v));
        edges.push((v, u));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m_attach` existing nodes with probability proportional to degree. Ties
/// are bidirectional. Produces a connected graph with a power-law tail
/// (exponent ≈ −3).
pub fn barabasi_albert<R: Rng>(n: usize, m_attach: usize, rng: &mut R) -> CsrGraph {
    assert!(m_attach >= 1 && n > m_attach);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(2 * n * m_attach);
    // Repeated-endpoints trick: sampling a uniform element of `endpoints`
    // samples a node with probability proportional to its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 nodes.
    for u in 0..=(m_attach as NodeId) {
        for v in 0..u {
            edges.push((u, v));
            edges.push((v, u));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m_attach as NodeId + 1)..n as NodeId {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m_attach);
        let mut guard = 0;
        while chosen.len() < m_attach && guard < 50 * m_attach {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            if v != u && !chosen.contains(&v) {
                chosen.push(v);
            }
            guard += 1;
        }
        // Fallback for pathological rejection streaks: attach to arbitrary
        // distinct predecessors.
        let mut next = 0 as NodeId;
        while chosen.len() < m_attach {
            if next != u && !chosen.contains(&next) {
                chosen.push(next);
            }
            next += 1;
        }
        for &v in &chosen {
            edges.push((u, v));
            edges.push((v, u));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Erdős–Rényi `G(n, p)`. When `bidirectional` is set, each sampled pair
/// produces both arcs.
pub fn erdos_renyi_gnp<R: Rng>(n: usize, p: f64, bidirectional: bool, rng: &mut R) -> CsrGraph {
    let mut edges = Vec::new();
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            if rng.gen_bool(p) {
                edges.push((u, v));
                if bidirectional {
                    edges.push((v, u));
                }
            } else if !bidirectional && rng.gen_bool(p) {
                edges.push((v, u));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Two dense clusters joined by a few bridge ties — the topology of the
/// paper's Fig. 5 example that motivates EMD\*.
pub fn two_cluster_bridge<R: Rng>(
    cluster_size: usize,
    intra_p: f64,
    bridges: usize,
    rng: &mut R,
) -> CsrGraph {
    let n = 2 * cluster_size;
    let mut edges = Vec::new();
    for offset in [0usize, cluster_size] {
        for i in 0..cluster_size {
            for j in (i + 1)..cluster_size {
                if rng.gen_bool(intra_p) {
                    let (u, v) = ((offset + i) as NodeId, (offset + j) as NodeId);
                    edges.push((u, v));
                    edges.push((v, u));
                }
            }
        }
        // Ring backbone keeps each cluster connected regardless of intra_p.
        for i in 0..cluster_size {
            let u = (offset + i) as NodeId;
            let v = (offset + (i + 1) % cluster_size) as NodeId;
            edges.push((u, v));
            edges.push((v, u));
        }
    }
    for b in 0..bridges {
        let u = (b % cluster_size) as NodeId;
        let v = (cluster_size + (b * 7) % cluster_size) as NodeId;
        edges.push((u, v));
        edges.push((v, u));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Undirected path 0—1—…—(n−1), both arcs per tie.
pub fn path_graph(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(2 * n.saturating_sub(1));
    for i in 1..n as NodeId {
        edges.push((i - 1, i));
        edges.push((i, i - 1));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Undirected cycle over `n` nodes.
pub fn cycle_graph(n: usize) -> CsrGraph {
    assert!(n >= 3);
    let mut edges = Vec::with_capacity(2 * n);
    for i in 0..n as NodeId {
        let j = (i + 1) % n as NodeId;
        edges.push((i, j));
        edges.push((j, i));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Undirected `rows × cols` grid, useful for spatially intuitive tests.
pub fn grid_graph(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
                edges.push((id(r, c + 1), id(r, c)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
                edges.push((id(r + 1, c), id(r, c)));
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::weak_components;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn scale_free_degree_distribution_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = scale_free_configuration(5000, -2.3, 1, 400, &mut rng);
        let degs: Vec<usize> = g.nodes().map(|u| g.out_degree(u)).collect();
        let max = *degs.iter().max().unwrap();
        let mean = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(max as f64 > 8.0 * mean, "max {max} vs mean {mean}");
        // Bidirectional: out-degree equals in-degree.
        for u in g.nodes() {
            assert_eq!(g.out_degree(u), g.in_degree(u));
        }
    }

    #[test]
    fn scale_free_degenerate_sizes_yield_edgeless_graphs() {
        // Regression: n = 0 and n = 1 used to panic the `k_max < n`
        // assertion; they must produce empty graphs instead.
        let mut rng = SmallRng::seed_from_u64(2);
        for n in [0, 1] {
            let g = scale_free_configuration(n, -2.5, 1, 40, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), 0);
        }
        // Other size-reducing generators accept the degenerate sizes too.
        for n in [0, 1] {
            assert_eq!(path_graph(n).edge_count(), 0);
            assert_eq!(grid_graph(n, n).edge_count(), 0);
            assert_eq!(erdos_renyi_gnp(n, 0.5, true, &mut rng).edge_count(), 0);
        }
    }

    #[test]
    fn barabasi_albert_is_connected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = barabasi_albert(500, 3, &mut rng);
        let comps = weak_components(&g);
        assert_eq!(comps.component_count(), 1);
    }

    #[test]
    fn grid_has_expected_structure() {
        let g = grid_graph(3, 4);
        assert_eq!(g.node_count(), 12);
        // Corner degree 2, interior degree 4.
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(5), 4);
    }

    #[test]
    fn two_cluster_bridge_is_connected_with_bridges() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = two_cluster_bridge(20, 0.2, 3, &mut rng);
        assert_eq!(weak_components(&g).component_count(), 1);
    }
}
