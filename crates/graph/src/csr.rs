//! Compressed-sparse-row directed graph with a reverse index.

/// Node identifier. `u32` keeps adjacency arrays compact; the paper's largest
/// experiment uses 200k nodes, far below the limit.
pub type NodeId = u32;

/// Edge identifier: the position of the edge in the forward CSR arrays.
/// Weight vectors are indexed by `EdgeId`.
pub type EdgeId = u32;

/// A directed graph in CSR form.
///
/// The graph is immutable after construction. Parallel edges are collapsed
/// and self-loops dropped during construction, so `(source, target)` pairs
/// are unique. A reverse index is built eagerly: SND runs Dijkstra both
/// forward (costs of spreading *from* a user) and backward (costs of a user
/// *receiving* an opinion), and the reverse index maps each reverse arc back
/// to its forward [`EdgeId`] so a single weight vector serves both sweeps.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Box<[u32]>,
    targets: Box<[NodeId]>,
    rev_offsets: Box<[u32]>,
    rev_sources: Box<[NodeId]>,
    rev_edge_ids: Box<[EdgeId]>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from a list of directed edges.
    ///
    /// Self-loops are dropped and duplicate edges collapsed. Panics if any
    /// endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(n < u32::MAX as usize, "node count exceeds u32 range");
        let mut list: Vec<(NodeId, NodeId)> =
            edges.iter().copied().filter(|&(u, v)| u != v).collect();
        for &(u, v) in &list {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of bounds for {n} nodes"
            );
        }
        list.sort_unstable();
        list.dedup();

        let m = list.len();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in &list {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = list.iter().map(|&(_, v)| v).collect();

        // Reverse index via counting sort on targets.
        let mut rev_offsets = vec![0u32; n + 1];
        for &(_, v) in &list {
            rev_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            rev_offsets[i + 1] += rev_offsets[i];
        }
        let mut cursor = rev_offsets.clone();
        let mut rev_sources = vec![0 as NodeId; m];
        let mut rev_edge_ids = vec![0 as EdgeId; m];
        for (e, &(u, v)) in list.iter().enumerate() {
            let slot = cursor[v as usize] as usize;
            rev_sources[slot] = u;
            rev_edge_ids[slot] = e as EdgeId;
            cursor[v as usize] += 1;
        }

        CsrGraph {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            rev_offsets: rev_offsets.into_boxed_slice(),
            rev_sources: rev_sources.into_boxed_slice(),
            rev_edge_ids: rev_edge_ids.into_boxed_slice(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `u` in ascending order.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-edges of `u` as `(edge_id, target)` pairs.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.offsets[u as usize];
        let hi = self.offsets[u as usize + 1];
        (lo..hi).map(move |e| (e, self.targets[e as usize]))
    }

    /// In-edges of `v` as `(edge_id, source)` pairs; `edge_id` refers to the
    /// forward edge `source -> v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        let lo = self.rev_offsets[v as usize] as usize;
        let hi = self.rev_offsets[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.rev_edge_ids[i], self.rev_sources[i]))
    }

    /// In-neighbors of `v` (sources of edges pointing at `v`).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.rev_offsets[v as usize] as usize;
        let hi = self.rev_offsets[v as usize + 1] as usize;
        &self.rev_sources[lo..hi]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.rev_offsets[v as usize + 1] - self.rev_offsets[v as usize]) as usize
    }

    /// Target of edge `e`.
    #[inline]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        self.targets[e as usize]
    }

    /// Source of edge `e`, found by binary search over the offset array.
    pub fn edge_source(&self, e: EdgeId) -> NodeId {
        debug_assert!((e as usize) < self.edge_count());
        // partition_point returns the first u with offsets[u] > e, so the
        // source is that index minus one.
        let idx = self.offsets.partition_point(|&o| o <= e);
        (idx - 1) as NodeId
    }

    /// Edge id of `u -> v` if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| (lo + i) as EdgeId)
    }

    /// True if edge `u -> v` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// All edges as `(source, target)` pairs, in `EdgeId` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Returns the graph with every edge direction flipped. The returned
    /// graph has its own edge ids; use [`CsrGraph::in_edges`] when a shared
    /// weight vector is needed instead.
    pub fn reversed(&self) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> = self.edges().map(|(u, v)| (v, u)).collect();
        CsrGraph::from_edges(self.node_count(), &edges)
    }

    /// Node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count() as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = CsrGraph::from_edges(4, &[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn in_edges_map_back_to_forward_ids() {
        let g = diamond();
        for v in g.nodes() {
            for (e, u) in g.in_edges(v) {
                assert_eq!(g.edge_target(e), v);
                assert_eq!(g.edge_source(e), u);
            }
        }
    }

    #[test]
    fn edge_source_matches_iteration() {
        let g = diamond();
        for (e, (u, _)) in g.edges().enumerate() {
            assert_eq!(g.edge_source(e as EdgeId), u);
        }
    }

    #[test]
    fn find_edge_present_and_absent() {
        let g = diamond();
        assert!(g.find_edge(0, 1).is_some());
        assert!(g.find_edge(1, 0).is_none());
        assert_eq!(g.edge_target(g.find_edge(2, 3).unwrap()), 3);
    }

    #[test]
    fn reversed_flips_edges() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.edge_count(), 4);
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(3, 2));
        assert!(!r.has_edge(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(5, &[]);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.out_neighbors(0).is_empty());
    }
}
