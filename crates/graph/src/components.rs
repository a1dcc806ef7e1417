//! Union-find and weakly connected components.

use crate::csr::{CsrGraph, NodeId};

/// Disjoint-set forest with union by rank and path halving.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Weakly connected components of a directed graph.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component id per node, contiguous from 0.
    pub labels: Vec<u32>,
    /// Nodes of each component.
    pub members: Vec<Vec<NodeId>>,
}

impl Components {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }

    /// Index of the largest component.
    pub fn largest(&self) -> usize {
        self.members
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.len())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Computes weakly connected components (edge directions ignored).
pub fn weak_components(g: &CsrGraph) -> Components {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    for (u, v) in g.edges() {
        uf.union(u, v);
    }
    let mut remap = vec![u32::MAX; n];
    let mut labels = vec![0u32; n];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    for v in 0..n as u32 {
        let root = uf.find(v);
        let id = if remap[root as usize] == u32::MAX {
            let id = members.len() as u32;
            remap[root as usize] = id;
            members.push(Vec::new());
            id
        } else {
            remap[root as usize]
        };
        labels[v as usize] = id;
        members[id as usize].push(v);
    }
    Components { labels, members }
}

/// Extracts the largest weakly connected component as a new graph, returning
/// it together with the mapping `new node id -> original node id`.
pub fn largest_weak_component(g: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let comps = weak_components(g);
    let keep = comps.largest();
    let members = &comps.members[keep];
    let mut to_new = vec![u32::MAX; g.node_count()];
    for (new_id, &old) in members.iter().enumerate() {
        to_new[old as usize] = new_id as u32;
    }
    let mut edges = Vec::new();
    for (u, v) in g.edges() {
        let (nu, nv) = (to_new[u as usize], to_new[v as usize]);
        if nu != u32::MAX && nv != u32::MAX {
            edges.push((nu, nv));
        }
    }
    (CsrGraph::from_edges(members.len(), &edges), members.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comps = weak_components(&g);
        assert_eq!(comps.component_count(), 3); // {0,1,2}, {3,4}, {5}
        assert_eq!(comps.members[comps.largest()].len(), 3);
    }

    #[test]
    fn largest_component_extraction_preserves_edges() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
        let (sub, map) = largest_weak_component(&g);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(map.len(), 3);
        // Every extracted edge corresponds to an original edge.
        for (u, v) in sub.edges() {
            assert!(g.has_edge(map[u as usize], map[v as usize]));
        }
    }

    #[test]
    fn weak_components_ignore_direction() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 1)]);
        assert_eq!(weak_components(&g).component_count(), 1);
    }
}
