//! Single-source and all-pairs shortest paths.
//!
//! SND's ground distance is a shortest-path metric over integer edge costs
//! bounded by a constant `U` (the paper's Assumption 2). Theorem 4's linear
//! bound rests on a bounded-cost SSSP: the paper cites the monotone radix
//! heap of Ahuja–Mehlhorn–Orlin–Tarjan, and for constant `U` Dial's bucket
//! queue gives the same `O(m + n·U)` bound with a simpler structure. Every
//! SSSP row in the workspace runs one Dial kernel ([`dial_scratch`] and its
//! reverse, capacity-bounded and allocating wrappers); [`repair_row`]
//! updates such a row in place after edge-cost changes, and
//! [`LandmarkSketch`] bounds distances from a few precomputed rows.
//!
//! [`bellman_ford`] and [`floyd_warshall`] are slow reference oracles used by
//! tests. All functions accept a weight slice aligned with the graph's
//! forward [`EdgeId`](crate::csr::EdgeId)s, and all support multi-source
//! queries (distance from the *set* of sources), which SND uses both for
//! cluster-to-node distances and for the ICC model's seed-set distances.

mod landmarks;
mod oracle;
mod repair;
mod scratch;

pub use landmarks::{select_landmarks, GroupAggregate, LandmarkSketch, Spread};
pub use oracle::{bellman_ford, floyd_warshall};
pub use repair::{repair_row, CostChange, RepairScratch};
pub use scratch::{
    dial, dial_bounded_scratch, dial_reverse, dial_reverse_scratch, dial_scratch, SsspScratch,
};

/// Distance type. Path costs fit easily: at most `(n-1) * U`.
pub type Dist = u64;

/// Sentinel for "no path". Large enough to dominate any real path cost while
/// leaving headroom so that saturating additions never wrap.
pub const UNREACHABLE: Dist = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrGraph, NodeId};
    use crate::generators;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn line_graph() -> (CsrGraph, Vec<u32>) {
        // 0 -1-> 1 -2-> 2 -3-> 3
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut w = vec![0u32; g.edge_count()];
        w[g.find_edge(0, 1).unwrap() as usize] = 1;
        w[g.find_edge(1, 2).unwrap() as usize] = 2;
        w[g.find_edge(2, 3).unwrap() as usize] = 3;
        (g, w)
    }

    #[test]
    fn line_distances() {
        let (g, w) = line_graph();
        assert_eq!(dial(&g, &w, &[0], 3), vec![0, 1, 3, 6]);
    }

    #[test]
    fn unreachable_nodes() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let w = vec![5u32];
        let d = dial(&g, &w, &[0], 5);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn multi_source() {
        let (g, w) = line_graph();
        assert_eq!(dial(&g, &w, &[0, 2], 3), vec![0, 1, 0, 3]);
    }

    #[test]
    fn reverse_distances_match_reversed_graph() {
        let (g, w) = line_graph();
        // Distance from every node TO node 3.
        assert_eq!(dial_reverse(&g, &w, &[3], 3), vec![6, 5, 3, 0]);
    }

    #[test]
    fn agree_with_oracles_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..30 {
            let n = 2 + (trial % 12);
            let g = generators::erdos_renyi_gnp(n, 0.4, true, &mut rng);
            let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(1..=9)).collect();
            let src = rng.gen_range(0..n as u32);
            let bf = bellman_ford(&g, &w, src);
            let di = dial(&g, &w, &[src], 9);
            assert_eq!(di, bf, "dial vs bellman-ford, trial {trial}");
            let fw = floyd_warshall(&g, &w);
            for v in 0..n {
                assert_eq!(fw[src as usize][v], bf[v]);
            }
        }
    }

    /// The radius a capacity-bounded run must return: one past the first
    /// distance `d` at which the weight of nodes with distance `<= d`
    /// (saturating) reaches `cap`, or [`UNREACHABLE`] if it never does.
    fn expected_radius(full: &[Dist], target_weight: &[u64], cap: u64) -> Dist {
        let mut by_dist: Vec<(Dist, u64)> = full
            .iter()
            .zip(target_weight)
            .filter(|(&d, _)| d != UNREACHABLE)
            .map(|(&d, &t)| (d, t))
            .collect();
        by_dist.sort_unstable();
        let mut settled = 0u64;
        for (i, &(d, t)) in by_dist.iter().enumerate() {
            settled = settled.saturating_add(t);
            let boundary = by_dist.get(i + 1).is_none_or(|&(next, _)| next > d);
            if boundary && settled >= cap {
                return d + 1;
            }
        }
        UNREACHABLE
    }

    /// Runs one capacity-bounded search and checks its radius against
    /// [`expected_radius`] and its entries against the full distances.
    fn check_bounded(
        g: &CsrGraph,
        w: &[u32],
        src: NodeId,
        target_weight: &[u64],
        cap: u64,
        scratch: &mut SsspScratch,
        what: &str,
    ) -> Dist {
        let n = g.node_count();
        let full = bellman_ford(g, w, src);
        let radius = dial_bounded_scratch(g, w, &[src], 6, false, target_weight, cap, scratch);
        assert_eq!(radius, expected_radius(&full, target_weight, cap), "{what}");
        for v in 0..n as u32 {
            let got = scratch.dist(v);
            if got < radius {
                assert_eq!(got, full[v as usize], "settled exact, {what}");
            } else {
                assert!(full[v as usize] >= radius, "radius floor, {what}");
                assert!(got >= full[v as usize], "tentative upper, {what}");
            }
        }
        // The scratch must be reusable after an early stop.
        dial_scratch(g, w, &[src], 6, scratch);
        let again: Vec<_> = scratch.distances(n).collect();
        assert_eq!(again, full, "scratch reusable after bounded run, {what}");
        radius
    }

    #[test]
    fn capacity_bounded_dial_certifies_its_radius() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut scratch = SsspScratch::new();
        for trial in 0..40 {
            let n = 10 + (trial % 30);
            let g = generators::erdos_renyi_gnp(n, 0.15, true, &mut rng);
            let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(0..=6)).collect();
            let src = rng.gen_range(0..n as u32);
            let full = bellman_ford(&g, &w, src);
            let what = |case: &str| format!("{case}, trial {trial}");

            // Every node is a unit target; stop once a third are settled.
            let unit = vec![1u64; n];
            check_bounded(
                &g,
                &w,
                src,
                &unit,
                n as u64 / 3,
                &mut scratch,
                &what("third"),
            );

            // Zero capacity stops at the first boundary: only the source's
            // zero-distance bucket is certified.
            let r = check_bounded(&g, &w, src, &unit, 0, &mut scratch, &what("zero"));
            assert_eq!(r, 1, "{}", what("zero"));

            // Capacity exactly the total reachable weight stops at the last
            // boundary; one more never stops and drains the queue.
            let reachable: Vec<u64> = full.iter().map(|&d| u64::from(d != UNREACHABLE)).collect();
            let total: u64 = reachable.iter().sum();
            let max_dist = full.iter().copied().filter(|&d| d != UNREACHABLE).max();
            let r = check_bounded(&g, &w, src, &reachable, total, &mut scratch, &what("exact"));
            assert_eq!(r, max_dist.unwrap() + 1, "{}", what("exact"));
            let r = check_bounded(
                &g,
                &w,
                src,
                &reachable,
                total + 1,
                &mut scratch,
                &what("over"),
            );
            assert_eq!(r, UNREACHABLE, "{}", what("over"));

            // Weights that saturate u64: the run stops once both heavy
            // nodes are settled, and the sum never wraps.
            let far = (0..n as u32)
                .filter(|&v| full[v as usize] != UNREACHABLE)
                .max_by_key(|&v| (full[v as usize], v))
                .unwrap();
            let mut heavy = vec![1u64; n];
            heavy[src as usize] = u64::MAX / 2 + 1;
            heavy[far as usize] = u64::MAX / 2 + 1;
            let r = check_bounded(&g, &w, src, &heavy, u64::MAX, &mut scratch, &what("sat"));
            if far != src {
                assert_eq!(r, full[far as usize] + 1, "{}", what("sat"));
            }
            heavy[far as usize] = u64::MAX;
            check_bounded(
                &g,
                &w,
                src,
                &heavy,
                u64::MAX,
                &mut scratch,
                &what("saturated"),
            );
        }
    }

    #[test]
    fn zero_weight_edges_allowed() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let w = vec![0u32, 0u32];
        assert_eq!(dial(&g, &w, &[0], 1), vec![0, 0, 0]);
    }
}
