//! Dial's bucket-queue SSSP for integer weights bounded by `U`, run into
//! reusable scratch buffers.
//!
//! With edge weights in `[0, U]`, tentative distances in the priority queue
//! always span a window of at most `U + 1` consecutive values, so a circular
//! array of `U + 1` buckets replaces the heap. Extraction is `O(1)` amortized
//! plus the cost of scanning empty buckets, giving `O(m + D)` total where `D`
//! is the largest finite distance — exactly the regime of the paper's
//! Assumption 2.
//!
//! SND's sparse path runs one bounded-cost SSSP per residual user — for
//! all-pairs workloads that is thousands of runs over the same graph, and
//! allocating a fresh `vec![UNREACHABLE; n]` (plus bucket arrays) per run
//! would rival the traversal cost at `n = 10⁴…10⁶`. [`SsspScratch`] holds
//! the distance array, a timestamp array and the bucket ring. Resetting
//! between runs is O(1): the epoch counter is bumped and stale entries are
//! recognized by their timestamp instead of being rewritten. Buckets drain
//! to empty as a side effect of each run, so only their capacity persists.
//!
//! Every entry point — [`dial_scratch`], [`dial_reverse_scratch`],
//! [`dial_bounded_scratch`] and the allocating [`dial`]/[`dial_reverse`] —
//! runs the same bucket loop. Intended use is one scratch per worker
//! thread, reused across every row that thread computes (see `snd-core`'s
//! row cache).

use super::{Dist, UNREACHABLE};
use crate::csr::{CsrGraph, NodeId};

/// Reusable state for the Dial entry points. Construction is cheap;
/// buffers grow on first use and are retained across runs.
#[derive(Default)]
pub struct SsspScratch {
    dist: Vec<Dist>,
    stamp: Vec<u32>,
    epoch: u32,
    buckets: Vec<Vec<NodeId>>,
    /// Nodes the last [`dial_bounded_scratch`] run settled, in settle
    /// order (left empty by the unbounded entry points).
    settled: Vec<NodeId>,
}

impl SsspScratch {
    /// An empty scratch; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        SsspScratch::default()
    }

    /// Distance of `v` from the last run's sources ([`UNREACHABLE`] if no
    /// path, or if `v` was not touched by the last run).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        let v = v as usize;
        if self.stamp.get(v) == Some(&self.epoch) {
            self.dist[v]
        } else {
            UNREACHABLE
        }
    }

    /// Iterates the last run's distances for nodes `0..n`.
    pub fn distances(&self, n: usize) -> impl Iterator<Item = Dist> + '_ {
        (0..n as NodeId).map(|v| self.dist(v))
    }

    /// The nodes the last [`dial_bounded_scratch`] run settled, in settle
    /// order: exactly the nodes whose [`dist`](Self::dist) is below the
    /// radius that run returned. Empty after an unbounded run.
    pub fn settled(&self) -> &[NodeId] {
        &self.settled
    }

    /// The distance array of a scratch that has run exactly once. That run
    /// sized it to the graph and filled it with [`UNREACHABLE`], so every
    /// entry the run did not write already reads as unreachable.
    fn into_first_run(self) -> Vec<Dist> {
        debug_assert_eq!(self.epoch, 1, "first run of a fresh scratch");
        self.dist
    }

    /// Starts a new run: O(1) reset via epoch bump, growing buffers to
    /// cover `n` nodes and `span` Dial buckets.
    fn begin(&mut self, n: usize, span: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, UNREACHABLE);
            self.stamp.resize(n, self.epoch);
        }
        if self.buckets.len() < span {
            self.buckets.resize_with(span, Vec::new);
        }
        debug_assert!(self.buckets.iter().all(|b| b.is_empty()), "drained");
        self.settled.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: invalidate everything explicitly once per 2³²
            // runs, then resume O(1) resets.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Tentative distance during a run (stamped read).
    #[inline]
    fn get(&self, v: NodeId) -> Dist {
        let v = v as usize;
        if self.stamp[v] == self.epoch {
            self.dist[v]
        } else {
            UNREACHABLE
        }
    }

    /// Stamped write.
    #[inline]
    fn set(&mut self, v: NodeId, d: Dist) {
        let v = v as usize;
        self.dist[v] = d;
        self.stamp[v] = self.epoch;
    }
}

/// Multi-source Dial's algorithm. `max_weight` must bound every entry of
/// `weights` (checked in debug builds). Allocates a fresh scratch per
/// call; batch callers reuse one through [`dial_scratch`].
pub fn dial(g: &CsrGraph, weights: &[u32], sources: &[NodeId], max_weight: u32) -> Vec<Dist> {
    let mut scratch = SsspScratch::new();
    dial_scratch(g, weights, sources, max_weight, &mut scratch);
    scratch.into_first_run()
}

/// Dial's algorithm over reversed edges: `result[v]` is the distance from
/// `v` to the closest node of `sources` along forward edges.
pub fn dial_reverse(
    g: &CsrGraph,
    weights: &[u32],
    sources: &[NodeId],
    max_weight: u32,
) -> Vec<Dist> {
    let mut scratch = SsspScratch::new();
    dial_reverse_scratch(g, weights, sources, max_weight, &mut scratch);
    scratch.into_first_run()
}

/// Multi-source Dial's algorithm into caller-provided scratch. Semantics
/// match [`dial`]; read results via [`SsspScratch::dist`].
pub fn dial_scratch(
    g: &CsrGraph,
    weights: &[u32],
    sources: &[NodeId],
    max_weight: u32,
    scratch: &mut SsspScratch,
) {
    dial_run(g, weights, sources, max_weight, false, None, scratch);
}

/// Reverse-edge counterpart of [`dial_scratch`] (distance *to* the source
/// set along forward edges).
pub fn dial_reverse_scratch(
    g: &CsrGraph,
    weights: &[u32],
    sources: &[NodeId],
    max_weight: u32,
    scratch: &mut SsspScratch,
) {
    dial_run(g, weights, sources, max_weight, true, None, scratch);
}

/// Dial's algorithm with an early exit once enough *target capacity* has
/// been settled: nodes are settled in distance order (exactly as
/// [`dial_scratch`]), accumulating `target_weight[v]` per settled node, and
/// the run stops at the first bucket boundary where the accumulated weight
/// reaches `stop_capacity`.
///
/// Returns the exploration radius `r`. Every node whose entry reads `< r`
/// via [`SsspScratch::dist`] is settled — the entry is its exact distance —
/// and [`SsspScratch::settled`] lists exactly those nodes, in settle order,
/// so the settled ball is collected in `O(|ball|)`.
/// Any other node's true distance is `>= r`, and its entry (when not
/// [`UNREACHABLE`]) is the best tentative path found, a valid *upper*
/// bound. A run that drains the queue before reaching the capacity returns
/// [`UNREACHABLE`], i.e. every finite entry is exact.
///
/// This is the materialization primitive of the approximate SND tier: a
/// supplier in a transportation problem only ships to its nearest
/// consumers, so settling a constant multiple of its own mass in nearby
/// consumer capacity is enough to price its flowing cells exactly, while
/// the radius floors the cost of every consumer the ball never reached.
#[allow(clippy::too_many_arguments)] // dial_scratch's signature plus the stop condition
pub fn dial_bounded_scratch(
    g: &CsrGraph,
    weights: &[u32],
    sources: &[NodeId],
    max_weight: u32,
    reverse: bool,
    target_weight: &[u64],
    stop_capacity: u64,
    scratch: &mut SsspScratch,
) -> Dist {
    debug_assert_eq!(target_weight.len(), g.node_count());
    let stop = Some((target_weight, stop_capacity));
    dial_run(g, weights, sources, max_weight, reverse, stop, scratch)
}

/// The bucket loop behind every entry point. `stop` is the optional
/// `(target_weight, stop_capacity)` early-exit rule of
/// [`dial_bounded_scratch`]; without it no settled weight is accumulated
/// and the run always drains, returning [`UNREACHABLE`].
fn dial_run(
    g: &CsrGraph,
    weights: &[u32],
    sources: &[NodeId],
    max_weight: u32,
    reverse: bool,
    stop: Option<(&[u64], u64)>,
    scratch: &mut SsspScratch,
) -> Dist {
    debug_assert_eq!(weights.len(), g.edge_count());
    debug_assert!(weights.iter().all(|&w| w <= max_weight));
    let span = max_weight as usize + 1;
    scratch.begin(g.node_count(), span);
    let mut in_queue = 0usize;
    let mut settled_weight: u64 = 0;

    for &s in sources {
        if scratch.get(s) != 0 {
            scratch.set(s, 0);
            scratch.buckets[0].push(s);
            in_queue += 1;
        }
    }

    let mut current: Dist = 0;
    while in_queue > 0 {
        let slot = (current % span as Dist) as usize;
        // Buckets may hold stale entries whose distance improved since
        // insertion; they are skipped on extraction.
        while let Some(u) = scratch.buckets[slot].pop() {
            in_queue -= 1;
            if scratch.get(u) != current {
                continue; // stale
            }
            if let Some((target_weight, _)) = stop {
                settled_weight = settled_weight.saturating_add(target_weight[u as usize]);
                scratch.settled.push(u);
            }
            let mut relax = |e: u32, v: NodeId, scratch: &mut SsspScratch| {
                let nd = current + weights[e as usize] as Dist;
                if nd < scratch.get(v) {
                    scratch.set(v, nd);
                    scratch.buckets[(nd % span as Dist) as usize].push(v);
                    in_queue += 1;
                }
            };
            if reverse {
                for (e, v) in g.in_edges(u) {
                    relax(e, v, scratch);
                }
            } else {
                for (e, v) in g.out_edges(u) {
                    relax(e, v, scratch);
                }
            }
        }
        current += 1;
        // Stop only at bucket boundaries: everything at distance
        // `< current` is now settled, so `current` is a sound radius even
        // with zero-weight edges (same-bucket chains drain above).
        if let Some((_, stop_capacity)) = stop {
            if settled_weight >= stop_capacity {
                if in_queue > 0 {
                    for b in scratch.buckets.iter_mut() {
                        b.clear();
                    }
                }
                return current;
            }
        }
    }
    UNREACHABLE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_paths::bellman_ford;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Bellman–Ford over the reversed graph: distance *to* `target`.
    fn bellman_ford_reverse(g: &CsrGraph, w: &[u32], target: NodeId) -> Vec<Dist> {
        let rev = g.reversed();
        let mut rw = vec![0u32; rev.edge_count()];
        for (e, (u, v)) in g.edges().enumerate() {
            rw[rev.find_edge(v, u).unwrap() as usize] = w[e];
        }
        bellman_ford(&rev, &rw, target)
    }

    #[test]
    fn scratch_runs_match_bellman_ford_across_reuse() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut scratch = SsspScratch::new();
        // One scratch reused across many graphs and runs — the regime the
        // row cache exercises.
        for trial in 0..25 {
            let n = 3 + (trial % 9);
            let g = generators::erdos_renyi_gnp(n, 0.4, true, &mut rng);
            let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(0..=7)).collect();
            let src = rng.gen_range(0..n as u32);

            dial_scratch(&g, &w, &[src], 7, &mut scratch);
            let got: Vec<_> = scratch.distances(n).collect();
            assert_eq!(got, bellman_ford(&g, &w, src), "dial trial {trial}");

            dial_reverse_scratch(&g, &w, &[src], 7, &mut scratch);
            let got: Vec<_> = scratch.distances(n).collect();
            let expect = bellman_ford_reverse(&g, &w, src);
            assert_eq!(got, expect, "dial_reverse trial {trial}");
        }
    }

    #[test]
    fn stale_distances_from_previous_runs_are_invisible() {
        // Run 1 reaches node 2; run 2 (different sources, different graph
        // region) must not see run 1's distances.
        let g = crate::csr::CsrGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let w = vec![1u32, 1];
        let mut scratch = SsspScratch::new();
        dial_scratch(&g, &w, &[0], 1, &mut scratch);
        assert_eq!(scratch.dist(2), 2);
        assert_eq!(scratch.dist(3), crate::shortest_paths::UNREACHABLE);
        dial_scratch(&g, &w, &[3], 1, &mut scratch);
        assert_eq!(scratch.dist(3), 0);
        assert_eq!(
            scratch.dist(2),
            crate::shortest_paths::UNREACHABLE,
            "epoch reset hides the previous run"
        );
    }

    #[test]
    fn runs_across_the_epoch_wrap_match_bellman_ford() {
        // Two components, so alternating sources leave most of the graph
        // unreached and any leaked distance from an earlier run shows.
        let mut rng = SmallRng::seed_from_u64(23);
        let mut edges = Vec::new();
        for _ in 0..40 {
            let (u, v) = (rng.gen_range(0..8u32), rng.gen_range(0..8u32));
            edges.push((u, v));
            edges.push((u + 8, v + 8));
        }
        let g = CsrGraph::from_edges(16, &edges);
        let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(0..=5)).collect();

        let mut scratch = SsspScratch::new();
        // Stamps at epoch 1 from a run in the second component: the wrap
        // resets the epoch to 1, so run 2 (the third run in the first
        // component) reads them as live unless the wrap clears every stamp.
        dial_scratch(&g, &w, &[8], 5, &mut scratch);
        scratch.epoch = u32::MAX - 2;
        for (run, src) in [0u32, 3, 5, 12, 2, 8].into_iter().enumerate() {
            dial_scratch(&g, &w, &[src], 5, &mut scratch);
            let got: Vec<_> = scratch.distances(16).collect();
            assert_eq!(got, bellman_ford(&g, &w, src), "run {run} from {src}");
            if run == 2 {
                assert_eq!(scratch.epoch, 1, "run 2 is the first after the wrap");
            }
        }
    }

    #[test]
    fn multi_source_and_zero_weights() {
        let g = crate::csr::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let w = vec![0u32, 0];
        let mut scratch = SsspScratch::new();
        dial_scratch(&g, &w, &[0], 1, &mut scratch);
        assert_eq!(scratch.distances(3).collect::<Vec<_>>(), vec![0, 0, 0]);
        dial_scratch(&g, &w, &[0, 2], 1, &mut scratch);
        assert_eq!(scratch.distances(3).collect::<Vec<_>>(), vec![0, 0, 0]);
    }

    #[test]
    fn bounded_runs_list_exactly_the_nodes_below_the_radius() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut scratch = SsspScratch::new();
        for trial in 0..40 {
            let n = 4 + trial % 20;
            let g = generators::erdos_renyi_gnp(n, 0.2, false, &mut rng);
            // Zero-cost edges put settled and unsettled nodes in one bucket.
            let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(0..=4)).collect();
            let targets: Vec<u64> = (0..n).map(|_| u64::from(rng.gen_bool(0.3))).collect();
            let cap = rng.gen_range(0..=targets.iter().sum::<u64>() + 1);
            let src = rng.gen_range(0..n as NodeId);
            let reverse = trial % 2 == 1;
            let r = dial_bounded_scratch(&g, &w, &[src], 4, reverse, &targets, cap, &mut scratch);
            let settled = scratch.settled().to_vec();
            let mut below: Vec<NodeId> =
                (0..n as NodeId).filter(|&v| scratch.dist(v) < r).collect();
            let mut listed = settled.clone();
            listed.sort_unstable();
            below.sort_unstable();
            assert_eq!(
                listed, below,
                "trial {trial}: settled list vs entries below r"
            );
            let dists: Vec<Dist> = settled.iter().map(|&v| scratch.dist(v)).collect();
            assert!(dists.windows(2).all(|p| p[0] <= p[1]), "settle order");
            // An unbounded run records nothing.
            dial_scratch(&g, &w, &[src], 4, &mut scratch);
            assert!(scratch.settled().is_empty());
        }
    }

    #[test]
    fn stale_entries_are_skipped() {
        // 0 ->(9) 1, 0 ->(1) 2, 2 ->(1) 1 : node 1 first queued at 9 then
        // improved to 2; the bucket at 9 must skip the stale entry.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
        let mut w = vec![0u32; 3];
        w[g.find_edge(0, 1).unwrap() as usize] = 9;
        w[g.find_edge(0, 2).unwrap() as usize] = 1;
        w[g.find_edge(2, 1).unwrap() as usize] = 1;
        assert_eq!(dial(&g, &w, &[0], 9), vec![0, 2, 1]);
    }
}
