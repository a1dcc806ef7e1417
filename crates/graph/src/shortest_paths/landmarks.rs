//! Landmark (pivot) SSSP sketches: triangle-inequality distance envelopes.
//!
//! A landmark sketch answers *certified bounds* on the oriented shortest
//! path distance `d(x, y)` from a small set of precomputed landmark rows
//! instead of a fresh SSSP per query — the classic ALT/pivot technique
//! (Goldberg–Harrelson), specialized here to the clamped integer domain
//! the SND geometry caches use.
//!
//! Let `d̂(x, y) = min(d(x, y), inf)` be the clamped distance with finite
//! sentinel `inf` for "no path". `d̂` still satisfies the triangle
//! inequality (`d̂(x,y) ≤ d̂(x,l) + d̂(l,y)` — if either clamp saturates the
//! right side is already `≥ inf ≥ d̂(x,y)`, and if neither does the real
//! relay path `x→l→y` has finite cost, so `d(x,y)` is exact on both
//! sides), which gives per-landmark envelopes
//!
//! ```text
//! d̂(x,y) ≤ d̂(x,l) + d̂(l,y)                       (upper, relay through l)
//! d̂(x,y) ≥ max(d̂(l,y) − d̂(l,x), d̂(x,l) − d̂(y,l))  (lower, reverse triangle)
//! ```
//!
//! tightened by taking the min (upper) / max (lower) over all landmarks.
//! The same algebra lifts to *groups* of nodes: with per-group aggregates
//! `min/max` of `d̂(v, l)` and `d̂(l, v)` over the members, the formulas
//! bound the min/max pairwise distance between two groups — the cell
//! bounds the coarsened EMD\* pricing in `snd-core` builds its certified
//! `[lower, upper]` cost matrices from.
//!
//! Landmark *selection* ([`select_landmarks`]) is topology-only (weight
//! free) and deterministic: the highest-degree node seeds the set, then
//! picks alternate between remaining high-degree hubs and farthest-point
//! covers (maximizing the BFS hop distance to the chosen set), the usual
//! degree + farthest-point mix. Selection is done once per graph; the
//! per-landmark distance *rows* depend on the edge weights and are
//! computed by the caller (one forward and one reverse SSSP per landmark
//! per weighting).

use crate::bfs::bfs_levels;
use crate::csr::{CsrGraph, NodeId};

/// Picks `count` distinct landmark nodes: highest total degree first, then
/// alternating farthest-point (max hop distance to the chosen set, treating
/// unreachable as farthest) and next-highest-degree picks. Deterministic;
/// ties break toward smaller node ids. Returns fewer than `count` only
/// when the graph has fewer nodes.
pub fn select_landmarks(g: &CsrGraph, count: usize) -> Vec<NodeId> {
    let n = g.node_count();
    let count = count.min(n);
    if count == 0 {
        return Vec::new();
    }
    let degree = |v: NodeId| g.out_degree(v) + g.in_degree(v);
    let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
    // Stable ordering: degree descending, id ascending.
    by_degree.sort_by_key(|&v| (usize::MAX - degree(v), v));

    let mut chosen = vec![by_degree[0]];
    let mut taken = vec![false; n];
    taken[by_degree[0] as usize] = true;
    let mut next_hub = 1;
    while chosen.len() < count {
        let pick = if chosen.len() % 2 == 1 {
            // Farthest-point cover: the node maximizing the hop distance
            // to the chosen set (unreachable counts as infinitely far, so
            // disconnected components get a landmark early).
            let levels = bfs_levels(g, &chosen, true);
            (0..n as NodeId)
                .filter(|&v| !taken[v as usize])
                .max_by_key(|&v| (levels[v as usize], usize::MAX - v as usize))
        } else {
            by_degree[next_hub..]
                .iter()
                .find(|&&v| !taken[v as usize])
                .copied()
        };
        match pick {
            Some(v) => {
                taken[v as usize] = true;
                chosen.push(v);
                while next_hub < n && taken[by_degree[next_hub] as usize] {
                    next_hub += 1;
                }
            }
            None => break,
        }
    }
    chosen
}

/// Per-landmark min/max distance aggregates over one group of nodes — the
/// group-level sketch [`LandmarkSketch::group_upper`] /
/// [`group_lower`](LandmarkSketch::group_lower) work from. `to[l]` bounds
/// `d̂(v → landmark l)` over the members, `from[l]` bounds
/// `d̂(landmark l → v)`.
#[derive(Clone, Debug)]
pub struct GroupAggregate {
    min_to: Vec<u32>,
    max_to: Vec<u32>,
    min_from: Vec<u32>,
    max_from: Vec<u32>,
}

impl GroupAggregate {
    /// The (landmark, direction) coordinate whose values spread widest
    /// over the members: the largest `max − min` of `d̂(v → l)` or
    /// `d̂(l → v)`, ties to the lower landmark and then to `to`. `None`
    /// when every coordinate is constant over the members.
    pub fn widest(&self) -> Option<Spread> {
        let mut best: Option<Spread> = None;
        for l in 0..self.min_to.len() {
            for (to, min, max) in [
                (true, self.min_to[l], self.max_to[l]),
                (false, self.min_from[l], self.max_from[l]),
            ] {
                if max > min && best.is_none_or(|b| max - min > b.max - b.min) {
                    best = Some(Spread {
                        landmark: l,
                        to,
                        min,
                        max,
                    });
                }
            }
        }
        best
    }
}

/// One coordinate of a group's sketch and the range its values span over
/// the members, as [`GroupAggregate::widest`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spread {
    /// Landmark index.
    pub landmark: usize,
    /// `true` for the distances to the landmark, `false` for the
    /// distances from it (see [`LandmarkSketch::coordinate`]).
    pub to: bool,
    /// Smallest value of the coordinate over the members.
    pub min: u32,
    /// Largest value of the coordinate over the members.
    pub max: u32,
}

/// A landmark sketch over one weighting: for each landmark `l`, the
/// clamped distance rows `to[l][v] = d̂(v → l)` and `from[l][v] = d̂(l → v)`.
/// Rows are borrowed — they normally live in the caller's SSSP row cache,
/// shared with exact pricing.
pub struct LandmarkSketch<'a> {
    to: Vec<&'a [u32]>,
    from: Vec<&'a [u32]>,
    inf: u32,
}

impl<'a> LandmarkSketch<'a> {
    /// Builds a sketch from per-landmark rows. `to[l][v]` must be the
    /// clamped distance from `v` to landmark `l` (a reverse SSSP row of
    /// `l`), `from[l][v]` the clamped distance from `l` to `v` (a forward
    /// row), both clamped at the finite sentinel `inf`.
    pub fn new(to: Vec<&'a [u32]>, from: Vec<&'a [u32]>, inf: u32) -> Self {
        assert_eq!(to.len(), from.len(), "one row pair per landmark");
        LandmarkSketch { to, from, inf }
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.to.len()
    }

    /// One coordinate row over all nodes: `d̂(v → l)` for `to`, else
    /// `d̂(l → v)`, for landmark index `landmark`.
    pub fn coordinate(&self, landmark: usize, to: bool) -> &'a [u32] {
        if to {
            self.to[landmark]
        } else {
            self.from[landmark]
        }
    }

    /// Aggregates the per-landmark distances over a member set. `O(|members| · L)`.
    pub fn aggregate(&self, members: &[NodeId]) -> GroupAggregate {
        let l = self.landmark_count();
        let mut agg = GroupAggregate {
            min_to: vec![u32::MAX; l],
            max_to: vec![0; l],
            min_from: vec![u32::MAX; l],
            max_from: vec![0; l],
        };
        for (i, (to, from)) in self.to.iter().zip(&self.from).enumerate() {
            for &v in members {
                let t = to[v as usize];
                let f = from[v as usize];
                agg.min_to[i] = agg.min_to[i].min(t);
                agg.max_to[i] = agg.max_to[i].max(t);
                agg.min_from[i] = agg.min_from[i].min(f);
                agg.max_from[i] = agg.max_from[i].max(f);
            }
        }
        agg
    }

    /// Certified upper bound on `max_{x∈A, y∈B} d̂(x, y)`: the best relay
    /// landmark, clamped at the sentinel (every true `d̂` is `≤ inf`).
    pub fn group_upper(&self, a: &GroupAggregate, b: &GroupAggregate) -> u32 {
        let mut best = self.inf;
        for l in 0..self.landmark_count() {
            best = best.min(a.max_to[l].saturating_add(b.max_from[l]));
        }
        best
    }

    /// Certified lower bound on `min_{x∈A, y∈B} d̂(x, y)` via the reverse
    /// triangle inequality (never negative).
    pub fn group_lower(&self, a: &GroupAggregate, b: &GroupAggregate) -> u32 {
        let mut best = 0u32;
        for l in 0..self.landmark_count() {
            // d̂(x,y) ≥ d̂(l,y) − d̂(l,x) ≥ min_from_B − max_from_A
            best = best.max(b.min_from[l].saturating_sub(a.max_from[l]));
            // d̂(x,y) ≥ d̂(x,l) − d̂(y,l) ≥ min_to_A − max_to_B
            best = best.max(a.min_to[l].saturating_sub(b.max_to[l]));
        }
        best
    }

    /// Point-pair upper bound `d̂(x, y) ≤ min_l d̂(x,l) + d̂(l,y)`.
    pub fn upper(&self, x: NodeId, y: NodeId) -> u32 {
        let mut best = self.inf;
        for (to, from) in self.to.iter().zip(&self.from) {
            best = best.min(to[x as usize].saturating_add(from[y as usize]));
        }
        best
    }

    /// Point-pair lower bound (reverse triangle inequality, floor 0).
    pub fn lower(&self, x: NodeId, y: NodeId) -> u32 {
        let mut best = 0u32;
        for (to, from) in self.to.iter().zip(&self.from) {
            best = best.max(from[y as usize].saturating_sub(from[x as usize]));
            best = best.max(to[x as usize].saturating_sub(to[y as usize]));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::shortest_paths::{dial, dial_reverse, UNREACHABLE};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn clamped_row(
        g: &CsrGraph,
        w: &[u32],
        src: NodeId,
        max_w: u32,
        rev: bool,
        inf: u32,
    ) -> Vec<u32> {
        let raw = if rev {
            dial_reverse(g, w, &[src], max_w)
        } else {
            dial(g, w, &[src], max_w)
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
    fn selection_is_deterministic_distinct_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::erdos_renyi_gnp(40, 0.1, true, &mut rng);
        let a = select_landmarks(&g, 8);
        let b = select_landmarks(&g, 8);
        assert_eq!(a, b, "selection must be deterministic");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "landmarks must be distinct");
        assert_eq!(select_landmarks(&g, 100).len(), 40, "capped at n");
        assert!(select_landmarks(&g, 0).is_empty());
    }

    #[test]
    fn first_landmark_is_a_top_degree_hub() {
        // Star: node 0 has degree 5, everything else 1.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        assert_eq!(select_landmarks(&g, 1), vec![0]);
    }

    #[test]
    fn widest_picks_the_largest_spread_and_coordinate_returns_its_row() {
        // Two landmarks over five nodes; rows indexed by node.
        let to = [vec![3, 3, 4, 9, 3], vec![0, 2, 2, 2, 5]];
        let from = [vec![1, 8, 1, 1, 5], vec![7, 7, 7, 7, 7]];
        let sketch = LandmarkSketch::new(
            to.iter().map(|r| r.as_slice()).collect(),
            from.iter().map(|r| r.as_slice()).collect(),
            100,
        );
        // Over nodes {0, 1, 2}: spreads are to₀ 1, from₀ 7, to₁ 2, from₁ 0.
        let spread = sketch.aggregate(&[0, 1, 2]).widest();
        assert_eq!(
            spread,
            Some(Spread {
                landmark: 0,
                to: false,
                min: 1,
                max: 8
            })
        );
        assert_eq!(sketch.coordinate(0, false), from[0].as_slice());
        assert_eq!(sketch.coordinate(1, true), to[1].as_slice());
        // Over {0, 3, 4}: to₀ spreads 6, from₀ 4, to₁ 5, from₁ 0.
        let spread = sketch.aggregate(&[0, 3, 4]).widest().unwrap();
        assert_eq!((spread.landmark, spread.to), (0, true));
        assert_eq!((spread.min, spread.max), (3, 9));
        // Over {1, 4}, from₀ and to₁ both spread 3: the lower landmark wins.
        let spread = sketch.aggregate(&[1, 4]).widest().unwrap();
        assert_eq!((spread.landmark, spread.to), (0, false));
        // One member, or members with identical rows: nothing spreads.
        assert_eq!(sketch.aggregate(&[3]).widest(), None);
        let twin = LandmarkSketch::new(vec![&[5, 5][..]], vec![&[2, 2][..]], 100);
        assert_eq!(twin.aggregate(&[0, 1]).widest(), None);
    }

    #[test]
    fn pair_and_group_bounds_bracket_exact_distances() {
        let mut rng = SmallRng::seed_from_u64(2026);
        const MAX_W: u32 = 9;
        for trial in 0..40 {
            let n = 6 + trial % 20;
            let g = generators::erdos_renyi_gnp(n, 0.15, false, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let inf = MAX_W * n as u32 + 1;
            let w: Vec<u32> = (0..g.edge_count())
                .map(|_| rng.gen_range(1..=MAX_W))
                .collect();
            let landmarks = select_landmarks(&g, 3);
            let to_rows: Vec<Vec<u32>> = landmarks
                .iter()
                .map(|&l| clamped_row(&g, &w, l, MAX_W, true, inf))
                .collect();
            let from_rows: Vec<Vec<u32>> = landmarks
                .iter()
                .map(|&l| clamped_row(&g, &w, l, MAX_W, false, inf))
                .collect();
            let sketch = LandmarkSketch::new(
                to_rows.iter().map(|r| r.as_slice()).collect(),
                from_rows.iter().map(|r| r.as_slice()).collect(),
                inf,
            );

            // Exact clamped rows for validation.
            let exact: Vec<Vec<u32>> = (0..n as NodeId)
                .map(|x| clamped_row(&g, &w, x, MAX_W, false, inf))
                .collect();
            for x in 0..n as NodeId {
                for y in 0..n as NodeId {
                    let d = exact[x as usize][y as usize];
                    let lo = sketch.lower(x, y);
                    let hi = sketch.upper(x, y);
                    assert!(
                        lo <= d && d <= hi,
                        "trial {trial}: d̂({x},{y})={d} ∉ [{lo},{hi}]"
                    );
                }
            }

            // Random groups: bounds must bracket the pairwise min/max.
            let group = |rng: &mut SmallRng| -> Vec<NodeId> {
                let size = rng.gen_range(1..=4.min(n));
                let mut m: Vec<NodeId> = (0..size).map(|_| rng.gen_range(0..n as NodeId)).collect();
                m.sort_unstable();
                m.dedup();
                m
            };
            for _ in 0..6 {
                let ga = group(&mut rng);
                let gb = group(&mut rng);
                let (mut dmin, mut dmax) = (u32::MAX, 0u32);
                for &x in &ga {
                    for &y in &gb {
                        let d = exact[x as usize][y as usize];
                        dmin = dmin.min(d);
                        dmax = dmax.max(d);
                    }
                }
                let aa = sketch.aggregate(&ga);
                let ab = sketch.aggregate(&gb);
                let lo = sketch.group_lower(&aa, &ab);
                let hi = sketch.group_upper(&aa, &ab);
                assert!(
                    lo <= dmin && dmax <= hi,
                    "trial {trial}: group [{dmin},{dmax}] ∉ [{lo},{hi}]"
                );
            }
        }
    }
}
