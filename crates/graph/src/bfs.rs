//! Breadth-first traversal utilities.

use std::collections::VecDeque;

use crate::csr::{CsrGraph, NodeId};

/// Hop distances from a multi-source frontier, ignoring edge weights.
/// Returns `u32::MAX` for unreachable nodes. When `undirected` is set the
/// sweep uses both out- and in-edges.
pub fn bfs_levels(g: &CsrGraph, sources: &[NodeId], undirected: bool) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.node_count()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if level[s as usize] == u32::MAX {
            level[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let next = level[u as usize] + 1;
        for &v in g.out_neighbors(u) {
            if level[v as usize] == u32::MAX {
                level[v as usize] = next;
                queue.push_back(v);
            }
        }
        if undirected {
            for &v in g.in_neighbors(u) {
                if level[v as usize] == u32::MAX {
                    level[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path_graph;

    #[test]
    fn levels_on_path() {
        let g = path_graph(5);
        assert_eq!(bfs_levels(&g, &[0], false), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_levels(&g, &[2], false), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn multi_source_levels() {
        let g = path_graph(5);
        assert_eq!(bfs_levels(&g, &[0, 4], false), vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn undirected_sweep_crosses_reverse_edges() {
        let g = CsrGraph::from_edges(3, &[(1, 0), (1, 2)]);
        let directed = bfs_levels(&g, &[0], false);
        assert_eq!(directed[1], u32::MAX);
        let undirected = bfs_levels(&g, &[0], true);
        assert_eq!(undirected, vec![0, 1, 2]);
    }
}
