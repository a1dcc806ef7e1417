//! Incremental SSSP repair: patch a distance row after a batch of edge
//! cost changes instead of recomputing it.
//!
//! The delta-aware SND series path (`snd-core`) keeps SSSP rows — cluster
//! geometry rows, eccentricity γ balls — alive across consecutive snapshots
//! of an evolving network. A simulation step changes a handful of edge
//! costs; the shortest-path tree is intact almost everywhere, so
//! recomputing the row from scratch (`O(m + n·U)` per Dial run) wastes
//! nearly all of its work. [`repair_row`] updates the row in time
//! proportional to the *affected region*, following the Ramalingam–Reps
//! two-phase scheme for batch updates:
//!
//! 1. **Raise phase** — for every cost *increase* on an edge that
//!    supported its head's distance (`dist[tail] + old == dist[head]`),
//!    the head may have lost its shortest path. The affected set grows by
//!    a support test: a candidate is affected unless some edge from a
//!    non-affected, *strictly closer* predecessor still yields exactly its
//!    old distance under the new costs (a zero-cost edge never vouches:
//!    two nodes on a zero-cost cycle would vouch for each other after
//!    their common support rose). When a node is marked, every head it could
//!    have supported (under old *or* new costs — decreased edges can
//!    carry support too) becomes a candidate in turn. Nodes that never
//!    fail the test keep provably-correct distances.
//! 2. **Settle phase** — every affected node is re-seeded with its best
//!    distance through the non-affected boundary, every *decreased* edge
//!    re-relaxes its head from the current tail distance, and a plain
//!    Dijkstra (binary heap — seeds are not monotone, so a bucket ring
//!    does not apply) runs everything to fixpoint. Relaxation is
//!    unrestricted: improvements are free to propagate beyond the
//!    affected set, which is exactly what cost decreases require.
//!
//! Correctness: shortest-path distances are the *unique* fixpoint of the
//! Bellman relaxation given the pinned sources. Phase 1 marks (a superset
//! of) every node whose distance can rise and phase 2 re-derives the
//! marked region from its boundary while propagating every possible
//! decrease, so the repaired row is **bit-identical** to a from-scratch
//! recomputation — the property tests below assert equality against
//! [`dial`](super::dial) across random graphs, random change batches,
//! and the tricky transitions (tree-edge increases, unreachable →
//! reachable and back).
//!
//! The row lives in the clamped `u32` domain used by `snd-core`'s
//! geometry caches: values `< inf` are exact distances, `inf` is the
//! caller's finite "unreachable" sentinel. For a bit-identical row the
//! caller must guarantee the domain is lossless — every true finite
//! distance under either weight vector is `< inf`. (SND's sentinel
//! `U·n + 1` satisfies this whenever it is not capped by the `u32` range;
//! the delta path falls back to full recomputation otherwise.) Without
//! that guarantee the repair is still exact *below* `inf`: given a row
//! whose entries below `inf` are exact and whose every other entry is
//! `inf`, the entries that come out below `inf` are exactly the nodes
//! whose new distance is below `inf`, at that distance. An entry at
//! `inf` changes only when it drops below `inf`, so the work stays
//! inside the old and the new set of nodes below `inf`. `snd-core`
//! repairs eccentricity γ balls this way, with a ball's radius as `inf`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::csr::{CsrGraph, EdgeId, NodeId};

/// One edge whose cost changed: `(edge, old_cost)`. The new cost is read
/// from the caller's current weight slice. Entries whose cost did not
/// actually change are skipped.
pub type CostChange = (EdgeId, u32);

/// Reusable buffers for [`repair_row`]: construction is cheap, buffers
/// grow on first use and persist across calls (one scratch per worker
/// thread, like [`SsspScratch`](super::SsspScratch)).
#[derive(Default)]
pub struct RepairScratch {
    /// Epoch-stamped membership in the affected set.
    stamp: Vec<u32>,
    epoch: u32,
    affected: Vec<(NodeId, u32)>, // node + its pre-repair distance
    queue: Vec<NodeId>,
    dec_edges: Vec<EdgeId>,
    improved: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// Old cost per changed edge, rebuilt (allocation-free after warmup)
    /// each call.
    old_costs: HashMap<EdgeId, u32>,
}

impl RepairScratch {
    /// An empty scratch; buffers are sized lazily by the first run.
    pub fn new() -> Self {
        RepairScratch::default()
    }

    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, self.epoch);
        }
        self.affected.clear();
        self.queue.clear();
        self.dec_edges.clear();
        self.improved.clear();
        self.heap.clear();
        self.old_costs.clear();
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The nodes the last [`repair_row`] call wrote: its affected set plus
    /// every node a relaxation improved. Every other entry of the row kept
    /// its value, so a caller can gather or reset what the repair changed
    /// without scanning the row.
    pub fn touched(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.affected
            .iter()
            .map(|&(v, _)| v)
            .chain(self.improved.iter().copied())
    }

    #[inline]
    fn is_affected(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// Repairs `dist` — a clamped SSSP row for `sources` under the *old*
/// weights — into the row the *new* weights produce, given the changed
/// edges. Direction matches the row being repaired: `reverse = false`
/// for [`dial_scratch`](super::dial_scratch) rows (distance *from* the
/// sources), `reverse = true` for
/// [`dial_reverse_scratch`](super::dial_reverse_scratch) rows (distance
/// *to* the sources along forward edges).
///
/// `inf` is the finite unreachable sentinel (see the module docs for the
/// lossless-domain requirement). `changes` must include every edge whose
/// cost differs between the two weight vectors; extra no-op entries are
/// fine.
///
/// Returns the number of nodes whose distance changed — `0` means the
/// row was already exact and is untouched, letting callers reuse
/// unchanged derived quantities (cluster minima, eccentricities)
/// verbatim.
#[allow(clippy::too_many_arguments)] // mirrors the SSSP signature plus the change batch
pub fn repair_row(
    g: &CsrGraph,
    new_weights: &[u32],
    changes: &[CostChange],
    sources: &[NodeId],
    reverse: bool,
    inf: u32,
    dist: &mut [u32],
    scratch: &mut RepairScratch,
) -> usize {
    debug_assert_eq!(new_weights.len(), g.edge_count());
    debug_assert_eq!(dist.len(), g.node_count());
    scratch.begin(g.node_count());

    // Edge orientation in relaxation terms: edge e relaxes dist[head]
    // through dist[tail] + w[e]. Forward rows: (tail, head) = (src, tgt);
    // reverse rows (distance *to* the sources): roles swap.
    let endpoints = |e: EdgeId| {
        let (a, b) = (g.edge_source(e), g.edge_target(e));
        if reverse {
            (b, a)
        } else {
            (a, b)
        }
    };
    // Old cost of an edge: the change batch's record, or the (unchanged)
    // current weight. The map lives in the scratch so repeated calls on
    // the hot series path reuse its allocation.
    scratch.old_costs.extend(changes.iter().copied());
    let old_costs = std::mem::take(&mut scratch.old_costs);
    let old_cost = |e: EdgeId| {
        old_costs
            .get(&e)
            .copied()
            .unwrap_or(new_weights[e as usize])
    };

    // Phase 0: split the batch. Decreased edges re-relax their heads in
    // the settle phase (evaluated *then*, against up-to-date tail
    // distances — a tail may itself be raised first); increases whose
    // edge could have supported its head seed the raise phase.
    for &(e, old) in changes {
        let new = new_weights[e as usize];
        if new == old {
            continue;
        }
        if new < old {
            scratch.dec_edges.push(e);
            continue;
        }
        let (tail, head) = endpoints(e);
        let dt = dist[tail as usize];
        if dt != inf && dist[head as usize] != inf && dt.saturating_add(old) == dist[head as usize]
        {
            scratch.queue.push(head);
        }
    }

    // Phase 1: grow the affected set. A candidate stays unaffected only
    // if some non-affected predecessor still supports *exactly* its old
    // distance under the new costs; any deviation (risen support, or a
    // strictly better path through a decreased edge) sends it to the
    // settle phase, which re-derives it from the boundary — marking a
    // node that did not strictly need it costs time, never correctness.
    let mut qi = 0;
    while qi < scratch.queue.len() {
        let v = scratch.queue[qi];
        qi += 1;
        if scratch.is_affected(v) || dist[v as usize] == inf {
            continue;
        }
        if dist[v as usize] == 0 && sources.contains(&v) {
            continue; // sources are pinned at zero
        }
        let mut best = inf;
        {
            // Zero-cost edges are skipped: only a strictly closer
            // predecessor can vouch (see the module docs). A decrease to
            // zero is still re-relaxed by the settle phase.
            let support = |e: EdgeId, u: NodeId, best: &mut u32| {
                let w = new_weights[e as usize];
                if w > 0 && !scratch.is_affected(u) && dist[u as usize] != inf {
                    *best = (*best).min(dist[u as usize].saturating_add(w));
                }
            };
            if reverse {
                for (e, u) in g.out_edges(v) {
                    support(e, u, &mut best);
                }
            } else {
                for (e, u) in g.in_edges(v) {
                    support(e, u, &mut best);
                }
            }
        }
        if best == dist[v as usize] {
            continue; // still supported at exactly the old distance
        }
        scratch.stamp[v as usize] = scratch.epoch;
        scratch.affected.push((v, dist[v as usize]));
        // Heads this node could have supported — under the old costs
        // (classic tree children) or the new ones (a decreased edge can
        // carry the support the test above found) — become candidates.
        let dv = dist[v as usize];
        let child = |e: EdgeId, h: NodeId, queue: &mut Vec<NodeId>| {
            let dh = dist[h as usize];
            if dh != inf
                && (dv.saturating_add(old_cost(e)) == dh
                    || dv.saturating_add(new_weights[e as usize]) == dh)
            {
                queue.push(h);
            }
        };
        let mut queue = std::mem::take(&mut scratch.queue);
        if reverse {
            for (e, h) in g.in_edges(v) {
                child(e, h, &mut queue);
            }
        } else {
            for (e, h) in g.out_edges(v) {
                child(e, h, &mut queue);
            }
        }
        scratch.queue = queue;
    }

    // Phase 1 is done with old costs; hand the map back for reuse.
    scratch.old_costs = old_costs;

    // Phase 2 (settle): re-seed affected nodes from their non-affected
    // boundary, re-relax decreased edges, run Dijkstra to fixpoint.
    let mut heap = std::mem::take(&mut scratch.heap);
    for i in 0..scratch.affected.len() {
        let (v, _) = scratch.affected[i];
        let mut best = inf;
        let support = |e: EdgeId, u: NodeId, best: &mut u32| {
            if !scratch.is_affected(u) && dist[u as usize] != inf {
                *best = (*best).min(dist[u as usize].saturating_add(new_weights[e as usize]));
            }
        };
        if reverse {
            for (e, u) in g.out_edges(v) {
                support(e, u, &mut best);
            }
        } else {
            for (e, u) in g.in_edges(v) {
                support(e, u, &mut best);
            }
        }
        dist[v as usize] = best;
        if best < inf {
            heap.push(Reverse((best, v)));
        }
    }
    for i in 0..scratch.dec_edges.len() {
        let e = scratch.dec_edges[i];
        let (tail, head) = endpoints(e);
        let dt = dist[tail as usize];
        if dt == inf {
            continue;
        }
        let nd = dt.saturating_add(new_weights[e as usize]);
        if nd < dist[head as usize] {
            dist[head as usize] = nd;
            if !scratch.is_affected(head) {
                scratch.improved.push(head);
            }
            heap.push(Reverse((nd, head)));
        }
    }
    while let Some(Reverse((d, x))) = heap.pop() {
        if d > dist[x as usize] {
            continue; // stale entry
        }
        // x settles: relax the heads it can improve. (Reverse rows hold
        // distances *to* the sources, so x improves its in-neighbors.)
        macro_rules! relax_all {
            ($iter:expr) => {
                for (e, y) in $iter {
                    let nd = d.saturating_add(new_weights[e as usize]);
                    if nd < dist[y as usize] {
                        dist[y as usize] = nd;
                        if !scratch.is_affected(y) {
                            scratch.improved.push(y);
                        }
                        heap.push(Reverse((nd, y)));
                    }
                }
            };
        }
        if reverse {
            relax_all!(g.in_edges(x));
        } else {
            relax_all!(g.out_edges(x));
        }
    }
    scratch.heap = heap;

    // Exact changed-node count: affected nodes compare against their
    // snapshot (some settle back to their old value), improved
    // non-affected nodes strictly decreased.
    scratch.improved.sort_unstable();
    scratch.improved.dedup();
    let moved_affected = scratch
        .affected
        .iter()
        .filter(|&&(v, old)| dist[v as usize] != old)
        .count();
    moved_affected + scratch.improved.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_paths::{bellman_ford, dial, dial_reverse, UNREACHABLE};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn full_row(
        g: &CsrGraph,
        w: &[u32],
        sources: &[NodeId],
        max_w: u32,
        reverse: bool,
        inf: u32,
    ) -> Vec<u32> {
        let raw = if reverse {
            dial_reverse(g, w, sources, max_w)
        } else {
            dial(g, w, sources, max_w)
        };
        raw.iter()
            .map(|&d| {
                if d == UNREACHABLE || d >= inf as u64 {
                    inf
                } else {
                    d as u32
                }
            })
            .collect()
    }

    #[test]
    fn random_batches_repair_bit_identical_to_recompute() {
        let mut rng = SmallRng::seed_from_u64(2026);
        let mut scratch = RepairScratch::new();
        const MAX_W: u32 = 9;
        for trial in 0..300 {
            let n = 4 + trial % 24;
            let g = generators::erdos_renyi_gnp(n, 0.25, true, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let inf = MAX_W * n as u32 + 1;
            let mut w: Vec<u32> = (0..g.edge_count())
                .map(|_| rng.gen_range(1..=MAX_W))
                .collect();
            let mut sources: Vec<NodeId> = (0..1 + trial % 3)
                .map(|_| rng.gen_range(0..n as NodeId))
                .collect();
            sources.sort_unstable();
            sources.dedup();
            let reverse = trial % 2 == 1;

            let mut row = full_row(&g, &w, &sources, MAX_W, reverse, inf);

            // A batch of mixed increases/decreases.
            let mut changes: Vec<CostChange> = Vec::new();
            for _ in 0..1 + trial % 5 {
                let e = rng.gen_range(0..g.edge_count() as EdgeId);
                let old = w[e as usize];
                w[e as usize] = rng.gen_range(1..=MAX_W);
                changes.push((e, old));
            }

            let moved = repair_row(
                &g,
                &w,
                &changes,
                &sources,
                reverse,
                inf,
                &mut row,
                &mut scratch,
            );
            let expect = full_row(&g, &w, &sources, MAX_W, reverse, inf);
            assert_eq!(row, expect, "trial {trial} (reverse={reverse})");
            let before = {
                // Recompute the pre-change row to validate the count.
                let mut old_w = w.clone();
                for &(e, old) in changes.iter().rev() {
                    old_w[e as usize] = old;
                }
                full_row(&g, &old_w, &sources, MAX_W, reverse, inf)
            };
            let truly_moved = before.iter().zip(&expect).filter(|(a, b)| a != b).count();
            assert_eq!(moved, truly_moved, "trial {trial}: exact changed count");
        }
    }

    #[test]
    fn zero_cost_edges_repair_bit_identical_to_recompute() {
        // Two in five edges cost 0, so zero-cost cycles are common; every
        // entry outside `touched` must keep its value.
        let mut rng = SmallRng::seed_from_u64(404);
        let mut scratch = RepairScratch::new();
        const MAX_W: u32 = 6;
        for trial in 0..300 {
            let n = 4 + trial % 20;
            let g = generators::erdos_renyi_gnp(n, 0.25, false, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let inf = MAX_W * n as u32 + 1;
            let draw = |rng: &mut SmallRng| {
                if rng.gen_bool(0.4) {
                    0
                } else {
                    rng.gen_range(1..=MAX_W)
                }
            };
            let mut w: Vec<u32> = (0..g.edge_count()).map(|_| draw(&mut rng)).collect();
            let src = rng.gen_range(0..n as NodeId);
            let reverse = trial % 2 == 1;
            let mut row = full_row(&g, &w, &[src], MAX_W, reverse, inf);
            let before = row.clone();
            let changes: Vec<CostChange> = (0..1 + trial % 4)
                .map(|_| {
                    let e = rng.gen_range(0..g.edge_count() as EdgeId);
                    (e, std::mem::replace(&mut w[e as usize], draw(&mut rng)))
                })
                .collect();
            repair_row(
                &g,
                &w,
                &changes,
                &[src],
                reverse,
                inf,
                &mut row,
                &mut scratch,
            );
            assert_eq!(
                row,
                full_row(&g, &w, &[src], MAX_W, reverse, inf),
                "trial {trial}"
            );
            let touched: std::collections::HashSet<NodeId> = scratch.touched().collect();
            for v in 0..n as NodeId {
                if !touched.contains(&v) {
                    assert_eq!(
                        row[v as usize], before[v as usize],
                        "trial {trial}, node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_clamped_below_their_distances_repair_exactly_below_the_clamp() {
        // `inf` below the longest distance: entries at or past it read
        // `inf`. After the repair, the entries below `inf` must be exactly
        // the nodes whose new distance is below `inf`, at that distance.
        let mut rng = SmallRng::seed_from_u64(1510);
        let mut scratch = RepairScratch::new();
        const MAX_W: u32 = 6;
        for trial in 0..300 {
            let n = 4 + trial % 24;
            let g = generators::erdos_renyi_gnp(n, 0.25, false, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let draw = |rng: &mut SmallRng| rng.gen_range(0..=MAX_W);
            let mut w: Vec<u32> = (0..g.edge_count()).map(|_| draw(&mut rng)).collect();
            let src = rng.gen_range(0..n as NodeId);
            let reverse = trial % 2 == 1;
            let clamp = rng.gen_range(1..=MAX_W * 3);
            let mut row = full_row(&g, &w, &[src], MAX_W, reverse, clamp);
            let changes: Vec<CostChange> = (0..1 + trial % 4)
                .map(|_| {
                    let e = rng.gen_range(0..g.edge_count() as EdgeId);
                    (e, std::mem::replace(&mut w[e as usize], draw(&mut rng)))
                })
                .collect();
            repair_row(
                &g,
                &w,
                &changes,
                &[src],
                reverse,
                clamp,
                &mut row,
                &mut scratch,
            );
            let expect = full_row(&g, &w, &[src], MAX_W, reverse, clamp);
            let below = |r: &[u32]| -> Vec<(usize, u32)> {
                r.iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, d)| d < clamp)
                    .collect()
            };
            assert_eq!(below(&row), below(&expect), "trial {trial}");
        }
    }

    #[test]
    fn rising_support_of_a_zero_cost_cycle_raises_the_cycle() {
        // 0 -1-> 1, 1 -0-> 2, 2 -0-> 1: nodes 1 and 2 each sit at the
        // other's distance. Raising (0,1) must raise both.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 1)]);
        let mut w = vec![0u32; 3];
        let e = g.find_edge(0, 1).unwrap();
        w[e as usize] = 1;
        let inf = 9 * 3 + 1;
        let mut row = full_row(&g, &w, &[0], 9, false, inf);
        assert_eq!(row, vec![0, 1, 1]);
        let old = std::mem::replace(&mut w[e as usize], 5);
        let mut scratch = RepairScratch::new();
        let moved = repair_row(
            &g,
            &w,
            &[(e, old)],
            &[0],
            false,
            inf,
            &mut row,
            &mut scratch,
        );
        assert_eq!(row, vec![0, 5, 5]);
        assert_eq!(moved, 2);
    }

    #[test]
    fn repairs_across_the_epoch_wrap_match_bellman_ford() {
        let mut rng = SmallRng::seed_from_u64(91);
        let g = generators::erdos_renyi_gnp(20, 0.2, true, &mut rng);
        const MAX_W: u32 = 6;
        let inf = MAX_W * 20 + 1;
        let clamp = |d: Vec<u64>| -> Vec<u32> {
            d.iter()
                .map(|&d| if d >= inf as u64 { inf } else { d as u32 })
                .collect()
        };
        let mut w: Vec<u32> = (0..g.edge_count())
            .map(|_| rng.gen_range(1..=MAX_W))
            .collect();
        let mut row = clamp(bellman_ford(&g, &w, 0));
        let mut scratch = RepairScratch::new();
        // Raising every edge marks most of the row affected at epoch 1 —
        // the epoch the wrap resets to, so run 2 below sees those stamps
        // as live unless the wrap clears them.
        let mut changes: Vec<CostChange> = Vec::new();
        for e in 0..g.edge_count() as EdgeId {
            changes.push((e, w[e as usize]));
            w[e as usize] = MAX_W;
        }
        repair_row(&g, &w, &changes, &[0], false, inf, &mut row, &mut scratch);
        assert_eq!(row, clamp(bellman_ford(&g, &w, 0)), "warm-up run");
        assert_eq!(scratch.epoch, 1);

        scratch.epoch = u32::MAX - 2;
        for run in 0..6 {
            // Re-draw every edge cost, so each run repairs most of the row.
            let changes: Vec<CostChange> = (0..g.edge_count() as EdgeId)
                .map(|e| {
                    let old = std::mem::replace(&mut w[e as usize], rng.gen_range(1..=MAX_W));
                    (e, old)
                })
                .collect();
            let before = row.clone();
            let moved = repair_row(&g, &w, &changes, &[0], false, inf, &mut row, &mut scratch);
            assert_eq!(row, clamp(bellman_ford(&g, &w, 0)), "run {run}");
            let truly_moved = before.iter().zip(&row).filter(|(a, b)| a != b).count();
            assert_eq!(moved, truly_moved, "run {run}: exact changed count");
            if run == 2 {
                assert_eq!(scratch.epoch, 1, "run 2 is the first after the wrap");
            }
        }
    }

    #[test]
    fn tree_edge_cost_increase_raises_the_subtree() {
        // 0 -1-> 1 -1-> 2 -1-> 3, alternative 0 -5-> 2. Raising the tree
        // edge (1,2) re-routes 2 and 3 through the alternative.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let mut w = vec![0u32; g.edge_count()];
        w[g.find_edge(0, 1).unwrap() as usize] = 1;
        w[g.find_edge(0, 2).unwrap() as usize] = 5;
        w[g.find_edge(1, 2).unwrap() as usize] = 1;
        w[g.find_edge(2, 3).unwrap() as usize] = 1;
        let inf = 9 * 4 + 1;
        let mut row = full_row(&g, &w, &[0], 9, false, inf);
        assert_eq!(row, vec![0, 1, 2, 3]);

        let e = g.find_edge(1, 2).unwrap();
        let old = std::mem::replace(&mut w[e as usize], 9);
        let mut scratch = RepairScratch::new();
        let moved = repair_row(
            &g,
            &w,
            &[(e, old)],
            &[0],
            false,
            inf,
            &mut row,
            &mut scratch,
        );
        assert_eq!(row, vec![0, 1, 5, 6]);
        assert_eq!(moved, 2, "exactly nodes 2 and 3 moved");
    }

    #[test]
    fn unreachable_to_reachable_and_back() {
        // 0 -> 1 -> 2 where (1,2) is effectively severed by a cost at or
        // beyond the sentinel (the clamped domain's "no path").
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let inf = 10;
        let mut scratch = RepairScratch::new();

        let mut w = vec![1u32, 20];
        let mut row = vec![0, 1, inf];
        // Decrease below inf: 2 becomes reachable.
        let old = std::mem::replace(&mut w[1], 2);
        let moved = repair_row(
            &g,
            &w,
            &[(1, old)],
            &[0],
            false,
            inf,
            &mut row,
            &mut scratch,
        );
        assert_eq!(row, vec![0, 1, 3]);
        assert_eq!(moved, 1);

        // Increase back beyond the sentinel: 2 is unreachable again.
        let old = std::mem::replace(&mut w[1], 30);
        let moved = repair_row(
            &g,
            &w,
            &[(1, old)],
            &[0],
            false,
            inf,
            &mut row,
            &mut scratch,
        );
        assert_eq!(row, vec![0, 1, inf]);
        assert_eq!(moved, 1);
    }

    #[test]
    fn no_op_batches_report_zero_changed_nodes() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::erdos_renyi_gnp(12, 0.3, true, &mut rng);
        let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(1..=5)).collect();
        let inf = 5 * 12 + 1;
        let mut row = full_row(&g, &w, &[3], 5, false, inf);
        let before = row.clone();
        let mut scratch = RepairScratch::new();
        // Every "change" reports the cost the edge already has.
        let changes: Vec<CostChange> = (0..g.edge_count() as EdgeId)
            .map(|e| (e, w[e as usize]))
            .collect();
        let moved = repair_row(&g, &w, &changes, &[3], false, inf, &mut row, &mut scratch);
        assert_eq!(moved, 0);
        assert_eq!(row, before);
    }

    #[test]
    fn multi_source_rows_repair_like_cluster_geometry_uses_them() {
        // The snd-core geometry cache repairs multi-source rows (one per
        // cluster, sources = the cluster's members).
        let mut rng = SmallRng::seed_from_u64(17);
        let mut scratch = RepairScratch::new();
        for trial in 0..60 {
            let n = 8 + trial % 12;
            let g = generators::erdos_renyi_gnp(n, 0.3, true, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let inf = 7 * n as u32 + 1;
            let mut w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(1..=7)).collect();
            let sources: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 3 == 0).collect();
            for reverse in [false, true] {
                let mut row = full_row(&g, &w, &sources, 7, reverse, inf);
                let e = rng.gen_range(0..g.edge_count() as EdgeId);
                let old = w[e as usize];
                w[e as usize] = rng.gen_range(1..=7);
                repair_row(
                    &g,
                    &w,
                    &[(e, old)],
                    &sources,
                    reverse,
                    inf,
                    &mut row,
                    &mut scratch,
                );
                assert_eq!(
                    row,
                    full_row(&g, &w, &sources, 7, reverse, inf),
                    "trial {trial} reverse={reverse}"
                );
                w[e as usize] = old; // same baseline for the other direction
            }
        }
    }
}
