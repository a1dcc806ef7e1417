//! Batch evaluation: cached, parallel all-pairs distance matrices.
//!
//! The evaluation workloads that dominate in practice — anomaly detection
//! over a snapshot series, clustering and nearest-neighbor search over a
//! snapshot set — are all-pairs regimes: every state participates in up to
//! `T − 1` comparisons. Evaluated naively (one [`SndEngine::distance`] per
//! pair) the same per-state work is redone `T − 1` times: the two ground
//! geometries, and one SSSP row per residual user of every comparison
//! grounded in that state.
//!
//! [`SndEngine::pairwise_distances`] restructures this around the
//! per-state [`StateGeometry`] bundle. It is the full
//! [`ShardPlan`] over one tile: geometries are
//! built once per state, each stepped from the previous state's through
//! their delta (`delta::chain_geometry`), and every `(ground state,
//! opinion, direction, user)` SSSP row is written at most once into the
//! bundle's shared [`RowCache`](crate::sparse::RowCache). Pairs are then
//! priced in one place, `SndEngine::price_pairs`, which runs three
//! phases, once per tile over the tile's pairs. Pairs of identical
//! states price to zero without a solve.
//!
//! 1. **Keys.** Every EMD\* term is classified
//!    (`sparse::classify_term`) and only its row keys are kept: ground
//!    state, opinion, direction and the heavier side's residual users.
//! 2. **Rows.** The keys are grouped by `(opinion, direction, user)` and
//!    the groups run in parallel. A group walks its ground states in
//!    ascending snapshot order. Its first row is a cache hit or one fresh
//!    Dial run. Each later row is the previous row passed through
//!    [`snd_graph::repair_row`] with the edge-cost changes between the two
//!    ground states. Snapshots of one series differ in a handful of users,
//!    so a repair touches a small region where a Dial run touches the
//!    whole graph. A row is computed fresh instead when the clamp domain
//!    is not lossless ([`GroundGeometry::is_lossless`]) or when more than
//!    `m / REPAIR_EDGE_FRACTION` edge costs differ.
//! 3. **Solve.** The four EMD\* terms of every pair fan out over the
//!    thread pool individually through the engine's one term router,
//!    `SndEngine::price_term` (the exact tier runs
//!    [`sparse::emd_star_term`], and every row is now a cache hit).
//!    Fanning out per term load-balances well because term cost varies
//!    with the pair's residual size. Each term comes back as a `[lo, hi]`
//!    envelope (zero width on the exact tier); `fold_terms` turns four
//!    envelopes into one distance. Under an active approximate tier,
//!    phases 1 and 2 are skipped: that tier prices from landmark rows.
//!
//! Results are **bit-identical** to the sequential naive loop: each term is
//! an exact integer transportation solve, cached rows — fresh or repaired
//! — hold exactly what recomputation would produce (shortest-path
//! distances are unique), and per-pair terms are reduced in a fixed order.
//! The property tests in `tests/batch_parallel.rs` assert this.
//!
//! On the repo benchmark's `pairwise` workload (10,000 users, 12
//! snapshots, seed 1) the 1,320 rows belong to 220 `(opinion, direction,
//! user)` groups, so phase 2 runs 220 Dial runs and 1,100 repairs where a
//! term-by-term fill ran 1,320 Dial runs;
//! [`RowCache::repaired_rows`](crate::sparse::RowCache::repaired_rows)
//! reports the split. In the *warm* regime (`pairwise_distances_with` over
//! pre-filled bundles) phase 2 finds only cache hits, and a term costs its
//! exact transportation solve plus the assembly of its reduced cost
//! matrix.
//!
//! [`GroundGeometry::is_lossless`]: crate::banks::GroundGeometry::is_lossless

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use rayon::prelude::*;
use snd_graph::{repair_row, CostChange, EdgeId, NodeId, RepairScratch};
use snd_models::{NetworkState, Opinion};

use crate::delta::REPAIR_EDGE_FRACTION;
use crate::engine::{SndBreakdown, SndEngine, StateGeometry};
use crate::shard::{ShardPlan, TileGrid};
use crate::sparse;

/// Symmetric all-pairs distance matrix over a snapshot set (row-major,
/// zero diagonal).
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceMatrix {
    k: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Number of states (the matrix is `size × size`).
    pub fn size(&self) -> usize {
        self.k
    }

    /// Distance between states `i` and `j`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.k + j]
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// The matrix as nested rows (the shape the clustering helpers take).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|i| self.row(i).to_vec()).collect()
    }

    /// Adjacent-transition distances `d(G_t, G_{t+1})` read off the
    /// superdiagonal (`size − 1` values).
    pub fn adjacent(&self) -> Vec<f64> {
        (1..self.k).map(|t| self.at(t - 1, t)).collect()
    }

    /// Builds a matrix from the strict upper triangle, mirroring it.
    pub(crate) fn from_upper(k: usize, upper: &[f64]) -> Self {
        debug_assert_eq!(upper.len(), k * k.saturating_sub(1) / 2);
        let mut data = vec![0.0; k * k];
        let mut idx = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                data[i * k + j] = upper[idx];
                data[j * k + i] = upper[idx];
                idx += 1;
            }
        }
        DistanceMatrix { k, data }
    }
}

impl<'g> SndEngine<'g> {
    /// All-pairs SND matrix over a snapshot set: the full plan over one
    /// tile (see the module docs), all `4·T·(T−1)/2` EMD\* terms fanned
    /// out over the thread pool.
    pub fn pairwise_distances(&self, states: &[NetworkState]) -> DistanceMatrix {
        let grid = TileGrid::new(states.len(), states.len().max(1));
        self.pairwise_tiles(states, &ShardPlan::full(grid))
            .to_matrix()
            // lint:allow(no-unwrap) a full plan computes every tile of its grid
            .expect("a full plan leaves no holes")
    }

    /// [`pairwise_distances`](Self::pairwise_distances) over caller-owned
    /// bundles — reuse them to price additional snapshots against the same
    /// set, or to inspect cache statistics afterwards.
    pub fn pairwise_distances_with(
        &self,
        states: &[NetworkState],
        geoms: &[StateGeometry],
    ) -> DistanceMatrix {
        assert_eq!(states.len(), geoms.len(), "one geometry bundle per state");
        let k = states.len();
        let pairs: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
            .collect();
        let terms = self.price_pairs(states, |s| &geoms[s], &pairs);
        DistanceMatrix::from_upper(k, &fold_terms(&terms, false).0)
    }

    /// The naive sequential all-pairs loop (no sharing, no threads):
    /// exactly `T·(T−1)/2` independent [`distance_seq`](Self::distance_seq)
    /// calls. The baseline the batch path is benchmarked and property-tested
    /// against.
    pub fn pairwise_distances_seq(&self, states: &[NetworkState]) -> DistanceMatrix {
        let k = states.len();
        let mut upper = Vec::with_capacity(k * k.saturating_sub(1) / 2);
        for i in 0..k {
            for j in (i + 1)..k {
                upper.push(self.distance_seq(&states[i], &states[j]));
            }
        }
        DistanceMatrix::from_upper(k, &upper)
    }

    /// The three phases of the module docs over `pairs`: every SSSP row
    /// the pairs' terms read is written into the ground states' caches,
    /// then every term is priced as one work item. Returns four `[lo, hi]`
    /// envelopes per pair in [`SndBreakdown`] order; [`fold_terms`] turns
    /// them into distances. `bundle(s)` is state `s`'s bundle and must
    /// exist for every state in `pairs`. The matrix, every tile plan and
    /// the series tiles all price through here.
    pub(crate) fn price_pairs<'a, G>(
        &self,
        states: &[NetworkState],
        bundle: G,
        pairs: &[(usize, usize)],
    ) -> Vec<(f64, f64)>
    where
        G: Fn(usize) -> &'a StateGeometry + Sync,
    {
        // An active approximate tier prices from landmark rows, not the
        // heavy side's SSSP rows: it skips phases 1 and 2.
        let approx = self.approx_if_active();
        if approx.is_none() {
            self.fill_pair_rows(states, &bundle, pairs);
        }
        // Fan out at term granularity (4 independent EMD* solves per pair):
        // term cost varies wildly with the pair's residual size, so finer
        // work items load-balance better than whole pairs.
        (0..pairs.len() * 4)
            .into_par_iter()
            .map(|t| {
                let (i, j) = pairs[t / 4];
                // Identical states price to exactly zero (every EMD* term
                // of an equal pair vanishes): skip their solves.
                if states[i] == states[j] {
                    return (0.0, 0.0);
                }
                let (forward, op) = term_role(t % 4);
                let (ground, other) = if forward { (i, j) } else { (j, i) };
                let (p, q) = (&states[ground], &states[other]);
                self.price_term(bundle(ground).ground(op), p, q, op, approx.as_ref())
                    .envelope()
            })
            .collect()
    }

    /// Phases 1 and 2 of [`price_pairs`](Self::price_pairs):
    /// writes into the ground states' caches every SSSP row the terms of
    /// `pairs` will read, repairing rows along the snapshot order where it
    /// can. `geom(s)` is state `s`'s bundle and must exist for every state
    /// in `pairs`.
    fn fill_pair_rows<'a, G>(&self, states: &[NetworkState], geom: G, pairs: &[(usize, usize)])
    where
        G: Fn(usize) -> &'a StateGeometry + Sync,
    {
        let g = self.graph();
        let n = g.node_count();

        // Phase 1: every term's row keys as (negative opinion, reverse,
        // user, ground state). Sorted, they are grouped by (opinion,
        // direction, user) in ascending snapshot order. A term's bank
        // lists are dropped as soon as its keys are read off.
        let keys: Vec<Vec<(bool, bool, NodeId, usize)>> = (0..pairs.len() * 4)
            .into_par_iter()
            .map(|t| {
                let (i, j) = pairs[t / 4];
                let (forward, op) = term_role(t % 4);
                let (ground, other) = if forward { (i, j) } else { (j, i) };
                let term = sparse::classify_term(
                    self.clustering(),
                    geom(ground).plane(op).per_bin,
                    &states[ground],
                    &states[other],
                    op,
                    self.config().scale,
                );
                let reverse = term.rows_reversed();
                let users = if reverse {
                    term.residual_q
                } else {
                    term.residual_p
                };
                let neg = op == Opinion::Negative;
                users
                    .into_iter()
                    .map(|u| (neg, reverse, u, ground))
                    .collect()
            })
            .collect();
        let mut keys: Vec<(bool, bool, NodeId, usize)> = keys.into_iter().flatten().collect();
        keys.sort_unstable();
        keys.dedup();

        // Phase 2 plan, on the calling thread: each group's steps, and one
        // change list per (opinion, a, b) shared by every group repairing
        // across it.
        let limit = g.edge_count() / REPAIR_EDGE_FRACTION;
        let mut change_ids: HashMap<(bool, usize, usize), Option<usize>> = HashMap::new();
        let mut changes: Vec<Vec<CostChange>> = Vec::new();
        let mut groups: Vec<RowGroup<'a>> = Vec::new();
        for run in keys.chunk_by(|x, y| (x.0, x.1, x.2) == (y.0, y.1, y.2)) {
            let (neg, reverse, node, _) = run[0];
            let op = if neg {
                Opinion::Negative
            } else {
                Opinion::Positive
            };
            let mut steps = Vec::with_capacity(run.len());
            let mut writes = 0;
            // The previous step's ground state and row.
            let mut prev: Option<(usize, RowSource<'a>)> = None;
            for &(.., ground) in run {
                let bundle = geom(ground);
                if let Some(row) = bundle.cache.get(op, reverse, node) {
                    steps.push(Step::Hit);
                    prev = Some((ground, RowSource::Cached(row)));
                    continue;
                }
                let plane = bundle.plane(op);
                let repair = prev.filter(|_| plane.is_lossless(n)).and_then(|(a, from)| {
                    let id = *change_ids.entry((neg, a, ground)).or_insert_with(|| {
                        let list =
                            cost_changes(&geom(a).plane(op).edge_costs, &plane.edge_costs, limit)?;
                        changes.push(list);
                        Some(changes.len() - 1)
                    });
                    id.map(|changes| (from, changes))
                });
                steps.push(match repair {
                    Some((from, changes)) => Step::Repair {
                        ground,
                        from,
                        changes,
                    },
                    None => Step::Fresh(ground),
                });
                prev = Some((ground, RowSource::Row(writes)));
                writes += 1;
            }
            if writes > 0 {
                groups.push(RowGroup {
                    op,
                    reverse,
                    node,
                    steps,
                    rows: Mutex::default(),
                });
            }
        }
        // One row buffer per step that writes a row, allocated here rather
        // than in the pool and after the plan, so the rows the caches keep
        // sit together in one heap arena. Allocating them in the workers
        // fragmented the per-thread arenas and raised peak RSS.
        for grp in &mut groups {
            let writes = grp.steps.iter().filter(|s| !matches!(s, Step::Hit)).count();
            *grp.rows.get_mut().unwrap_or_else(PoisonError::into_inner) =
                (0..writes).map(|_| vec![0; n].into_boxed_slice()).collect();
        }

        // Phase 2: the groups in parallel, each walking its steps in order
        // with its own repair scratch.
        groups.par_iter().for_each(|grp| {
            let mut rows = grp.rows.lock().unwrap_or_else(PoisonError::into_inner);
            let mut scratch = RepairScratch::new();
            let mut k = 0; // the next row buffer to write
            for step in &grp.steps {
                match *step {
                    Step::Hit => continue,
                    Step::Fresh(ground) => {
                        let plane = geom(ground).plane(grp.op);
                        sparse::compute_row(g, plane, grp.reverse, grp.node, &mut rows[k]);
                    }
                    Step::Repair {
                        ground,
                        from,
                        changes: id,
                    } => {
                        let plane = geom(ground).plane(grp.op);
                        let (done, rest) = rows.split_at_mut(k);
                        let out = &mut rest[0];
                        out.copy_from_slice(match from {
                            RowSource::Cached(row) => row,
                            RowSource::Row(i) => &done[i],
                        });
                        repair_row(
                            g,
                            &plane.edge_costs,
                            &changes[id],
                            &[grp.node],
                            grp.reverse,
                            plane.unreachable,
                            out,
                            &mut scratch,
                        );
                    }
                }
                k += 1;
            }
        });

        for grp in groups {
            let rows = grp
                .rows
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let written = grp.steps.iter().filter_map(|step| match *step {
                Step::Hit => None,
                Step::Fresh(ground) => Some((ground, false)),
                Step::Repair { ground, .. } => Some((ground, true)),
            });
            for ((ground, repaired), row) in written.zip(rows) {
                geom(ground)
                    .cache
                    .insert(grp.op, grp.reverse, grp.node, row, repaired);
            }
        }
    }
}

/// Term `which` of a pair `(a, b)` in [`SndBreakdown`] order (forward +,
/// forward −, backward +, backward −): whether it is grounded in `a` (so
/// `P = a`, `Q = b`), and the opinion it transports.
pub(crate) fn term_role(which: usize) -> (bool, Opinion) {
    match which {
        0 => (true, Opinion::Positive),
        1 => (true, Opinion::Negative),
        2 => (false, Opinion::Positive),
        _ => (false, Opinion::Negative),
    }
}

/// The scalar of one term envelope: the exact value when the envelope has
/// zero width (the exact tier), its midpoint otherwise (the approximate
/// tier's estimate). The only rule that turns an envelope into a value.
pub(crate) fn term_value((lo, hi): (f64, f64)) -> f64 {
    if lo == hi {
        lo
    } else {
        0.5 * (lo + hi)
    }
}

/// Folds per-term envelopes (four per pair, in [`SndBreakdown`] order, as
/// [`SndEngine::price_pairs`] returns them) into one distance per pair
/// through [`term_value`], plus, when `certified`, the per-pair `[lo, hi]`
/// the `I` checkpoint lines persist.
pub(crate) fn fold_terms(
    terms: &[(f64, f64)],
    certified: bool,
) -> (Vec<f64>, Option<Vec<(f64, f64)>>) {
    let total = |t, pick: fn(&(f64, f64)) -> f64| SndBreakdown::from_terms(t, pick).total();
    let values = terms
        .chunks_exact(4)
        .map(|t| total(t, |&e| term_value(e)))
        .collect();
    let intervals = certified.then(|| {
        terms
            .chunks_exact(4)
            .map(|t| (total(t, |e| e.0), total(t, |e| e.1)))
            .collect()
    });
    (values, intervals)
}

/// The rows of one `(opinion, direction, user)` key across its ground
/// states, in ascending snapshot order.
struct RowGroup<'a> {
    op: Opinion,
    reverse: bool,
    node: NodeId,
    steps: Vec<Step<'a>>,
    /// One buffer per non-hit step, in step order.
    rows: Mutex<Vec<Box<[u32]>>>,
}

/// How one ground state's row of a [`RowGroup`] is obtained.
enum Step<'a> {
    /// Already cached.
    Hit,
    /// One fresh Dial run in this ground state.
    Fresh(usize),
    /// The previous step's row, repaired with change list `changes`.
    Repair {
        ground: usize,
        from: RowSource<'a>,
        changes: usize,
    },
}

/// Where a repair's starting row lives.
#[derive(Clone, Copy)]
enum RowSource<'a> {
    /// In a ground state's cache already.
    Cached(&'a [u32]),
    /// In the group's own row buffers, at this index.
    Row(usize),
}

/// The edges whose cost differs between two ground states, as
/// `(edge, old cost)`, or `None` once more than `limit` differ.
fn cost_changes(old: &[u32], new: &[u32], limit: usize) -> Option<Vec<CostChange>> {
    let mut out = Vec::new();
    for (e, (&o, &c)) in old.iter().zip(new).enumerate() {
        if o != c {
            if out.len() == limit {
                return None;
            }
            out.push((e as EdgeId, o));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use snd_graph::generators::path_graph;

    fn states() -> Vec<NetworkState> {
        vec![
            NetworkState::from_values(&[1, 0, 0, 0, 0, 0, 0, -1]),
            NetworkState::from_values(&[1, 1, 0, 0, 0, 0, -1, -1]),
            NetworkState::from_values(&[0, 1, 1, 0, 0, -1, -1, 0]),
            NetworkState::from_values(&[0, 0, 1, 1, -1, -1, 0, 0]),
        ]
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let m = engine.pairwise_distances(&states());
        assert_eq!(m.size(), 4);
        for i in 0..4 {
            assert_eq!(m.at(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
        assert!(m.at(0, 3) > 0.0);
    }

    #[test]
    fn parallel_matrix_equals_naive_sequential_loop() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let par = engine.pairwise_distances(&s);
        let seq = engine.pairwise_distances_seq(&s);
        assert_eq!(par, seq, "bit-identical matrices");
    }

    #[test]
    fn adjacent_reads_the_superdiagonal() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let m = engine.pairwise_distances(&s);
        let adj = m.adjacent();
        assert_eq!(adj.len(), 3);
        for (t, &d) in adj.iter().enumerate() {
            assert_eq!(d, m.at(t, t + 1));
        }
    }

    #[test]
    fn reusing_bundles_adds_no_new_rows() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let geoms: Vec<StateGeometry> = s.iter().map(|st| engine.state_geometry(st)).collect();
        let first = engine.pairwise_distances_with(&s, &geoms);
        let rows_after: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
        assert!(rows_after.iter().sum::<usize>() > 0);
        let second = engine.pairwise_distances_with(&s, &geoms);
        let rows_again: Vec<usize> = geoms.iter().map(|b| b.cached_rows()).collect();
        assert_eq!(rows_after, rows_again, "second evaluation: zero new SSSP");
        assert_eq!(first, second);
    }

    #[test]
    fn empty_and_single_state_sets() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        assert_eq!(engine.pairwise_distances(&[]).size(), 0);
        let one = engine.pairwise_distances(&states()[..1]);
        assert_eq!(one.size(), 1);
        assert_eq!(one.at(0, 0), 0.0);
    }
}
