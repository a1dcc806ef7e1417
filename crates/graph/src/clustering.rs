//! Node clustering used for EMD\* bank-bin placement and the community-lp
//! baseline.
//!
//! EMD\* attaches "local bank bins" to groups of histogram bins chosen by the
//! structural proximity of the corresponding users (paper §4, Fig. 4). Two
//! strategies are provided: asynchronous label propagation (natural
//! communities, used by the community-lp predictor too) and a balanced BFS
//! partition (bounded cluster count, used by default for bank placement so
//! the reduced transportation problem stays small).

use std::collections::VecDeque;

use rand::Rng;

use crate::csr::{CsrGraph, NodeId};

/// A partition of the node set into disjoint clusters.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Cluster id per node, contiguous from 0.
    pub labels: Vec<u32>,
    /// Members of each cluster.
    pub clusters: Vec<Vec<NodeId>>,
}

impl Clustering {
    /// Builds a clustering from arbitrary (possibly sparse) labels,
    /// renumbering them contiguously.
    pub fn from_labels(raw: &[u32]) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut labels = vec![0u32; raw.len()];
        let mut clusters: Vec<Vec<NodeId>> = Vec::new();
        for (v, &l) in raw.iter().enumerate() {
            let id = *remap.entry(l).or_insert_with(|| {
                clusters.push(Vec::new());
                (clusters.len() - 1) as u32
            });
            labels[v] = id;
            clusters[id as usize].push(v as NodeId);
        }
        Clustering { labels, clusters }
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster id of node `v`.
    #[inline]
    pub fn cluster_of(&self, v: NodeId) -> u32 {
        self.labels[v as usize]
    }

    /// Members of cluster `c`.
    pub fn members(&self, c: u32) -> &[NodeId] {
        &self.clusters[c as usize]
    }
}

/// Everything in one cluster (degenerates EMD\* to EMDα with `Nb` banks).
pub fn whole_graph_cluster(n: usize) -> Clustering {
    Clustering {
        labels: vec![0; n],
        clusters: vec![(0..n as NodeId).collect()],
    }
}

/// Asynchronous label propagation over the undirected view of the graph.
///
/// Every node starts in its own community; nodes repeatedly adopt the most
/// frequent label among their neighbors (ties broken toward keeping the
/// current label, then by smallest label for determinism given the RNG's
/// visit order). Converges in a handful of sweeps on social graphs.
pub fn label_propagation<R: Rng>(g: &CsrGraph, max_sweeps: usize, rng: &mut R) -> Clustering {
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();

    for _ in 0..max_sweeps {
        // Shuffle the visit order each sweep.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut changed = 0usize;
        for &v in &order {
            counts.clear();
            for &u in g.out_neighbors(v) {
                *counts.entry(labels[u as usize]).or_insert(0) += 1;
            }
            for &u in g.in_neighbors(v) {
                *counts.entry(labels[u as usize]).or_insert(0) += 1;
            }
            if counts.is_empty() {
                continue;
            }
            let current = labels[v as usize];
            let best = counts
                .iter()
                .max_by(|a, b| {
                    a.1.cmp(b.1)
                        .then_with(|| (*a.0 == current).cmp(&(*b.0 == current)))
                        .then_with(|| b.0.cmp(a.0))
                })
                .map(|(&l, _)| l)
                // lint:allow(no-unwrap) guarded by the `counts.is_empty()` continue above
                .expect("non-empty counts");
            if best != current {
                labels[v as usize] = best;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
    }
    Clustering::from_labels(&labels)
}

/// BFS partition under a size budget of ⌈n / `num_clusters`⌉ nodes per
/// cluster. Regions grow one after another: each starts at the
/// lowest-numbered unassigned node and grows breadth-first (over the
/// undirected view) until it reaches the budget or runs out of unassigned
/// neighbours. A node stranded between full regions therefore starts a new
/// cluster, so `num_clusters` bounds the cluster *size*, not the cluster
/// count: the result can hold many more, mostly small, clusters (660 for a
/// target of 64 on a 5,000-node Barabási–Albert graph). Every node is
/// assigned; an isolated node is a cluster of its own.
pub fn bfs_partition(g: &CsrGraph, num_clusters: usize) -> Clustering {
    let n = g.node_count();
    assert!(num_clusters >= 1);
    let budget = n.div_ceil(num_clusters);
    let mut labels = vec![u32::MAX; n];
    let mut next_label = 0u32;
    let mut queue = VecDeque::new();

    for start in 0..n as NodeId {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        let label = next_label;
        next_label += 1;
        let mut size = 0usize;
        queue.clear();
        queue.push_back(start);
        labels[start as usize] = label;
        size += 1;
        while let Some(u) = queue.pop_front() {
            if size >= budget {
                break;
            }
            for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = label;
                    size += 1;
                    queue.push_back(v);
                    if size >= budget {
                        break;
                    }
                }
            }
        }
    }
    Clustering::from_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{path_graph, two_cluster_bridge};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn from_labels_renumbers() {
        let c = Clustering::from_labels(&[7, 7, 3, 7, 3]);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.labels, vec![0, 0, 1, 0, 1]);
        assert_eq!(c.members(1), &[2, 4]);
    }

    #[test]
    fn label_propagation_finds_two_planted_clusters() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = two_cluster_bridge(30, 0.4, 2, &mut rng);
        let c = label_propagation(&g, 20, &mut rng);
        // The two planted halves should mostly not share a label.
        let left = c.labels[0];
        let same_left = (0..30).filter(|&v| c.labels[v] == left).count();
        let leak_right = (30..60).filter(|&v| c.labels[v] == left).count();
        assert!(same_left > 20, "left cluster cohesion: {same_left}");
        assert!(leak_right < 10, "leakage into right: {leak_right}");
    }

    #[test]
    fn bfs_partition_covers_all_nodes_with_bounded_clusters() {
        let g = path_graph(100);
        let c = bfs_partition(&g, 5);
        assert!(c.cluster_count() >= 5);
        assert_eq!(c.labels.len(), 100);
        let total: usize = c.clusters.iter().map(|m| m.len()).sum();
        assert_eq!(total, 100);
        for m in &c.clusters {
            assert!(m.len() <= 20, "cluster size {} exceeds budget", m.len());
        }
    }

    #[test]
    fn bfs_partition_single_cluster() {
        let g = path_graph(10);
        let c = bfs_partition(&g, 1);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.members(0).len(), 10);
    }

    #[test]
    fn whole_graph_cluster_is_trivial() {
        let c = whole_graph_cluster(4);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.cluster_of(3), 0);
    }
}
