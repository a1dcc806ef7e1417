//! Graph Laplacian quadratic forms.
//!
//! The quadratic-form baseline distance of the paper (§6.1) is
//! `sqrt((P−Q)ᵀ L (P−Q))` with `L` the Laplacian of the (symmetrized)
//! network. For a symmetrized graph, `xᵀ L x = Σ_{ties {u,v}} (x_u − x_v)²`,
//! which we evaluate edge-wise without materializing `L`.

use crate::csr::CsrGraph;

/// Evaluates `xᵀ L x` where `L` is the Laplacian of the undirected
/// (symmetrized) view of `g`. Each directed arc contributes half of
/// `(x_u − x_v)²`, so ties represented by both arcs count exactly once.
pub fn laplacian_quadratic_form(g: &CsrGraph, x: &[f64]) -> f64 {
    assert_eq!(x.len(), g.node_count());
    let mut acc = 0.0;
    for (u, v) in g.edges() {
        let d = x[u as usize] - x[v as usize];
        acc += 0.5 * d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path_graph;

    /// Dense Laplacian matrix of the symmetrized graph; test oracle for
    /// [`laplacian_quadratic_form`]. Entry `(u,v)` of the adjacency is 1 if
    /// either arc exists.
    fn dense_laplacian(g: &CsrGraph) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let mut a = vec![vec![0.0; n]; n];
        for (u, v) in g.edges() {
            a[u as usize][v as usize] = 1.0;
            a[v as usize][u as usize] = 1.0;
        }
        let mut l = vec![vec![0.0; n]; n];
        for u in 0..n {
            let deg: f64 = a[u].iter().sum();
            for v in 0..n {
                l[u][v] = if u == v { deg } else { -a[u][v] };
            }
        }
        l
    }

    fn quad_via_dense(g: &CsrGraph, x: &[f64]) -> f64 {
        let l = dense_laplacian(g);
        let n = x.len();
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                acc += x[i] * l[i][j] * x[j];
            }
        }
        acc
    }

    #[test]
    fn matches_dense_oracle() {
        let g = path_graph(6);
        let x = [1.0, -1.0, 0.0, 2.0, 0.5, -0.5];
        let fast = laplacian_quadratic_form(&g, &x);
        let slow = quad_via_dense(&g, &x);
        assert!((fast - slow).abs() < 1e-9, "{fast} vs {slow}");
    }

    #[test]
    fn constant_vector_is_in_kernel() {
        let g = path_graph(5);
        let x = [3.0; 5];
        assert!(laplacian_quadratic_form(&g, &x).abs() < 1e-12);
    }

    #[test]
    fn single_disagreement_counts_once() {
        let g = path_graph(2); // one undirected tie => two arcs
        let x = [1.0, 0.0];
        assert!((laplacian_quadratic_form(&g, &x) - 1.0).abs() < 1e-12);
    }
}
