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
//! priced in one place, `SndEngine::price_pairs` (a single pair too, as
//! the pair `(0, 1)` of `[a, b]`), which runs three phases, once per tile
//! over the tile's pairs. Pairs of identical states price to zero without
//! a solve.
//!
//! 1. **Keys.** Every EMD\* term is classified
//!    (`sparse::classify_term`) and only its row keys are kept: ground
//!    state, opinion, direction and the heavier side's residual users.
//!    Under an approximate tier, a term the tier sketches
//!    (`approx::prices_exactly` says it does not) reads its landmarks'
//!    rows instead: its keys are the `2·L` landmark keys, one per
//!    landmark and direction, of its ground state and opinion. On
//!    cluster banks a term with banks (a balanced term has none) also
//!    reads the inter-cluster row of each row node's cluster, so it keys
//!    `(ground state, opinion, direction, cluster)` for each: only those
//!    of the `k` rows per `(state, opinion)` are ever computed.
//! 2. **Rows.** The keys are grouped by `(opinion, direction, user)` and
//!    `(opinion, direction, cluster)`, and the groups run in parallel, each
//!    on its thread's repair scratch. A group skips the ground states whose
//!    cache already holds its row and walks the rest in ascending snapshot
//!    order in one full working row. Each row after the first is the
//!    previous row repaired in place by [`snd_graph::repair_row`] with the
//!    edge-cost changes between the two ground states. The first row
//!    repairs the group's *seed*, a full row of the key, or is one fresh
//!    Dial run when there is none. Snapshots of one series differ in a
//!    handful of users, so a repair touches a small region where a Dial
//!    run touches the whole graph. A row is computed fresh instead when
//!    the clamp domain is not lossless ([`GroundGeometry::is_lossless`])
//!    or when more than `m / REPAIR_EDGE_FRACTION` edge costs differ.
//!    After each step the working row is written into its ground state's
//!    cache in that cache's form.
//!
//!    A cluster's group walks the same way over one multi-source row from
//!    the cluster's members, with the same change lists. It has no seed,
//!    so its first row is a fresh Dial run, and what its cache keeps
//!    after each step is the row min-reduced to one entry per cluster
//!    (`banks::min_reduce`), a `k`-entry row no seed store holds.
//!
//!    Seeds come from two places. The tile paths, and so the matrix, keep
//!    cached rows *gathered*: only the columns their snapshot set's terms
//!    read (per opinion, the users who hold it in some state; every node
//!    when some state holds none, and under the approximate tier). A
//!    gathered row cannot seed a repair, so a seed store (`SeedRows`, which
//!    a [`TileWorkspace`](crate::TileWorkspace) keeps across its calls)
//!    holds the newest full row of each such key with the state it
//!    belongs to. A cache of full rows ([`SndEngine::state_geometry`], as
//!    `pairwise_distances_with` takes them) hands over a copy of its hit.
//!    A group seeds from whichever of these lies nearest its first ground
//!    state in snapshot order and works in the seed. After its last step
//!    the working row becomes that step's cached row if the cache keeps
//!    full rows. Otherwise it replaces the key's row in the store if the
//!    caller keeps the key, and is dropped if not. A stored row's state
//!    may have no live bundle any more (an earlier tile or lease dropped
//!    it), so every change list comes from the two states: their
//!    `StateDelta`, then `update_edge_costs` on a copy of the ground's
//!    costs, under the same cap. The store thus holds at most one full
//!    row per key and no geometry of a dropped state. On a series whose
//!    change lists stay under the cap, a full plan computes one fresh row
//!    per key at every tile edge.
//!
//!    Which keys the store keeps is the caller's rule, by user: a carried
//!    workspace keeps every key, a workspace for one plan the users a
//!    later tile reads (none after its final tile), a single pair none.
//!    A group without a seed owns a full working row, allocated on the
//!    calling thread, only when that row outlives it; any other group
//!    walks in its thread's transient row.
//! 3. **Solve.** The four EMD\* terms of every pair fan out over the
//!    thread pool individually through the engine's one term router,
//!    `SndEngine::price_term` (the exact tier runs
//!    [`sparse::emd_star_term`], and every row is now a cache hit).
//!    Fanning out per term load-balances well because term cost varies
//!    with the pair's residual size. Each term comes back as a `[lo, hi]`
//!    envelope (zero width on the exact tier); `fold_terms` turns four
//!    envelopes into one distance. Under an approximate tier, phase 2 has
//!    written every landmark row, and the rows refinement escalates to
//!    are computed on first use.
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
//! reports the split. Its rows keep 253 (+) or 257 (−) of 10,000 columns,
//! and each cache plane as many slots, so the matrix holds 1,320 gathered
//! rows where it held 1,320 full rows. Its one tile is its plan's final
//! tile, so its 220 groups walk in transient rows and it keeps no seed.
//! The full plan computes the same 220 fresh rows at every tile edge,
//! and so does each worker of an orchestrated run. In the *warm* regime
//! (a second call over the same workspace, or `pairwise_distances_with`
//! over pre-filled bundles) phase 2 finds only cache hits, and a term
//! costs its exact transportation solve plus the assembly of its reduced
//! cost matrix.
//!
//! [`GroundGeometry::is_lossless`]: crate::banks::GroundGeometry::is_lossless

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use rayon::prelude::*;
use snd_graph::{repair_row, CostChange, CsrGraph, NodeId};
use snd_models::{update_edge_costs, GroundCostConfig, NetworkState, Opinion, StateDelta};

use crate::approx::{self, ApproxConfig};
use crate::banks::min_reduce;
use crate::delta::REPAIR_EDGE_FRACTION;
use crate::engine::{SndBreakdown, SndEngine, StateGeometry};
use crate::shard::{ShardPlan, TileGrid};
use crate::sparse::{self, with_repair_scratch, BankBins};

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
        let approx = self.approx_if_active();
        let terms = self.price_pairs(
            states,
            |s| geoms.get(s),
            &mut SeedRows::default(),
            |_| false,
            &pairs,
            approx.as_ref(),
        );
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
    /// them into distances. `live(s)` is state `s`'s bundle, or `None`
    /// when it has none; it must have one for every state in `pairs`.
    /// `seeds` holds full rows to repair from; afterwards it holds only
    /// rows of users `keep` accepts, and takes the newest full row of
    /// each such key phase 2 caches gathered. `approx` prices every term
    /// on the approximate tier (`None`: exact). Every surface prices
    /// through here.
    pub(crate) fn price_pairs<'a, G>(
        &self,
        states: &[NetworkState],
        live: G,
        seeds: &mut SeedRows,
        keep: impl Fn(NodeId) -> bool,
        pairs: &[(usize, usize)],
        approx: Option<&ApproxConfig>,
    ) -> Vec<(f64, f64)>
    where
        G: Fn(usize) -> Option<&'a StateGeometry> + Sync,
    {
        // lint:allow(no-unwrap) callers hold a live bundle for every state in `pairs`
        let bundle = |s: usize| live(s).expect("a live bundle for every state in pairs");
        self.fill_pair_rows(states, &live, seeds, keep, pairs, approx);
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
                let b = bundle(ground);
                let iv = self.price_term(b.plane(op), &b.cache, p, q, op, approx);
                (iv.lower, iv.upper)
            })
            .collect()
    }

    /// Phases 1 and 2 of [`price_pairs`](Self::price_pairs):
    /// writes into the ground states' caches every SSSP row the terms of
    /// `pairs` will read, repairing rows along the snapshot order where it
    /// can. `live`, `seeds`, `keep` and `approx` are as in
    /// [`price_pairs`](Self::price_pairs).
    fn fill_pair_rows<'a, G>(
        &self,
        states: &[NetworkState],
        live: G,
        seeds: &mut SeedRows,
        keep: impl Fn(NodeId) -> bool,
        pairs: &[(usize, usize)],
        approx: Option<&ApproxConfig>,
    ) where
        G: Fn(usize) -> Option<&'a StateGeometry> + Sync,
    {
        let g = self.graph();
        let n = g.node_count();
        // lint:allow(no-unwrap) callers hold a live bundle for every state in `pairs`
        let geom = |s: usize| live(s).expect("a live bundle for every state in pairs");
        // A full row of `(op, reverse, node)` to seed a repair from, with
        // its state: of the key's row in `seeds`, taken out, and the hits
        // of live caches of full rows, the one nearest `ground` in
        // snapshot order (earlier first on a tie).
        let mut nearest = |ground: usize, op: Opinion, reverse: bool, node: NodeId| {
            let mut stored = seeds.0.remove(&(op == Opinion::Negative, reverse, node));
            (0..states.len())
                .flat_map(|d| [ground.checked_sub(d), Some(ground + d)])
                .flatten()
                .filter(|&s| s < states.len())
                .find_map(|s| {
                    if stored.as_ref().is_some_and(|(at, _)| *at == s) {
                        return stored.take();
                    }
                    Some((s, live(s)?.cache.full_copy(op, reverse, node)?))
                })
        };

        // Phase 1: every term's row keys as (cluster row, negative opinion,
        // reverse, user or cluster, ground state). Sorted, they are
        // grouped by (kind, opinion, direction, user or cluster) in
        // ascending snapshot order. A term's bank lists are dropped as
        // soon as its keys are read off.
        let clustering = self.clustering();
        let landmarks = approx.map(|_| &self.approx_ctx().landmarks[..]);
        let keys: Vec<Vec<TermKey>> = (0..pairs.len() * 4)
            .into_par_iter()
            .map(|t| {
                let (i, j) = pairs[t / 4];
                let (forward, op) = term_role(t % 4);
                let (ground, other) = if forward { (i, j) } else { (j, i) };
                let term = sparse::classify_term(
                    clustering,
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
                // A term with banks on cluster banks reads the cluster
                // row of each row node's cluster, in its direction.
                let clusters = matches!(term.banks, BankBins::Cluster(_)).then(|| {
                    users
                        .iter()
                        .map(|&u| (true, neg, reverse, clustering.labels[u as usize], ground))
                        .collect::<Vec<_>>()
                });
                let rows = match landmarks {
                    // A sketched term reads both rows of every landmark.
                    Some(ls) if !approx::prices_exactly(users.len(), ls.len()) => ls
                        .iter()
                        .flat_map(|&l| {
                            [
                                (false, neg, false, l, ground),
                                (false, neg, true, l, ground),
                            ]
                        })
                        .collect(),
                    _ => users
                        .into_iter()
                        .map(|u| (false, neg, reverse, u, ground))
                        .collect(),
                };
                [rows, clusters.unwrap_or_default()].concat()
            })
            .collect();
        let mut keys: Vec<TermKey> = keys.into_iter().flatten().collect();
        keys.sort_unstable();
        keys.dedup();

        // Phase 2 plan, on the calling thread: each group's steps, and one
        // change list per (opinion, a, b) shared by every group repairing
        // across it, derived from the two states (a seed's state may have
        // no live bundle: an earlier tile or call dropped it).
        let limit = g.edge_count() / REPAIR_EDGE_FRACTION;
        let mut change_ids: HashMap<(bool, usize, usize), Option<usize>> = HashMap::new();
        let mut changes: Vec<Vec<CostChange>> = Vec::new();
        let mut groups: Vec<RowGroup> = Vec::new();
        for run in keys.chunk_by(|x, y| (x.0, x.1, x.2, x.3) == (y.0, y.1, y.2, y.3)) {
            let (cluster, neg, reverse, node, _) = run[0];
            let op = if neg {
                Opinion::Negative
            } else {
                Opinion::Positive
            };
            let mut steps = Vec::with_capacity(run.len());
            let mut seed = None;
            // The ground state of the row in the working row. A hit never
            // seeds a step: it is skipped.
            let mut prev = None;
            for &(.., ground) in run {
                let cache = &geom(ground).cache;
                let hit = if cluster {
                    cache.get_cluster(op, reverse, node).is_some()
                } else {
                    cache.get(op, reverse, node).is_some()
                };
                if hit {
                    continue;
                }
                let plane = geom(ground).plane(op);
                // A user group's first row seeds from the nearest full row
                // of the key; the seed becomes the group's working row. A
                // cluster group has no seed: its first row is fresh.
                let from = prev.or_else(|| {
                    if cluster {
                        return None;
                    }
                    let (s, row) = nearest(ground, op, reverse, node)?;
                    seed = Some(row);
                    Some(s)
                });
                let repair = from.filter(|_| plane.is_lossless(n)).and_then(|a| {
                    *change_ids.entry((neg, a, ground)).or_insert_with(|| {
                        let list = state_changes(
                            g,
                            &self.config().ground,
                            (&states[a], &states[ground]),
                            op,
                            &plane.edge_costs,
                            limit,
                        )?;
                        changes.push(list);
                        Some(changes.len() - 1)
                    })
                });
                steps.push(Step { ground, repair });
                prev = Some(ground);
            }
            let Some(last) = steps.last() else { continue };
            // One buffer per written row in its cache's form, allocated
            // here rather than in the pool: allocating in the workers
            // fragmented the per-thread arenas and raised peak RSS. A
            // cache of full rows takes the working row itself as the last
            // user step's row; a gathered one gets a buffer, and so does
            // every cluster step (a `k`-entry row).
            let last_full = !cluster && !geom(last.ground).cache.is_gathered(op);
            let written = steps.len() - usize::from(last_full);
            let width = |s: &Step| match cluster {
                true => clustering.cluster_count(),
                false => geom(s.ground).cache.width(op),
            };
            let rows = steps[..written]
                .iter()
                .map(|s| vec![0; width(s)].into_boxed_slice())
                .collect();
            // The group walks in its seed. Without one it owns a buffer
            // only when its row outlives it (see the module docs); a
            // cluster group's never does.
            let outlives = last_full || (!cluster && keep(node));
            let full = seed.or_else(|| outlives.then(|| vec![0; n].into_boxed_slice()));
            groups.push(RowGroup {
                cluster,
                op,
                reverse,
                node,
                steps,
                rows: Mutex::new(GroupRows { rows, full }),
            });
        }

        // Phase 2: the groups in parallel, each walking its steps in order
        // in its full working row, on its thread's repair scratch. After
        // each step the row is written in its cache's form: gathered for a
        // user row, min-reduced to one entry per cluster for a cluster's.
        groups.par_iter().for_each(|grp| {
            let mut guard = grp.rows.lock().unwrap_or_else(PoisonError::into_inner);
            let GroupRows { rows, full: own } = &mut *guard;
            // A group that owns no working row walks in its thread's
            // transient one and hands it back afterwards.
            let transient = own.is_none();
            let full = own.get_or_insert_with(|| {
                let row = WORK_ROW.take().filter(|row| row.len() == n);
                row.unwrap_or_else(|| vec![0; n].into_boxed_slice())
            });
            let sources = match grp.cluster {
                true => clustering.members(grp.node),
                false => std::slice::from_ref(&grp.node),
            };
            for (at, step) in grp.steps.iter().enumerate() {
                let plane = geom(step.ground).plane(grp.op);
                match step.repair {
                    None => sparse::compute_row(g, plane, grp.reverse, sources, full),
                    Some(id) => with_repair_scratch(|scratch| {
                        let (costs, inf) = (&plane.edge_costs, plane.unreachable);
                        repair_row(
                            g,
                            costs,
                            &changes[id],
                            sources,
                            grp.reverse,
                            inf,
                            full,
                            scratch,
                        );
                    }),
                }
                let Some(out) = rows.get_mut(at) else {
                    continue;
                };
                if grp.cluster {
                    let c = grp.node as usize;
                    min_reduce(full.iter().copied(), clustering, plane.unreachable, c, out);
                } else {
                    geom(step.ground).cache.gather_into(grp.op, full, out);
                }
            }
            if transient {
                WORK_ROW.set(own.take());
            }
        });

        for grp in groups {
            let GroupRows { rows, mut full } = grp
                .rows
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let mut rows = rows.into_iter();
            for step in &grp.steps {
                // lint:allow(no-unwrap) only the last step goes without a buffer
                let row = rows.next().or_else(|| full.take()).expect("a row per step");
                let repaired = step.repair.is_some();
                let cache = &geom(step.ground).cache;
                match grp.cluster {
                    true => cache.insert_cluster(grp.op, grp.reverse, grp.node, row, repaired),
                    false => cache.insert(grp.op, grp.reverse, grp.node, row, repaired),
                }
            }
            if let (Some(last), Some(full)) = (grp.steps.last(), full) {
                let key = (grp.op == Opinion::Negative, grp.reverse, grp.node);
                seeds.0.insert(key, (last.ground, full));
            }
        }
        // The store keeps the users `keep` accepts: the other users' older
        // rows go, and so do the seeds their groups walked in.
        seeds.0.retain(|&(_, _, node), _| keep(node));
    }
}

thread_local! {
    /// The working row of a group that owns none (see `GroupRows::full`):
    /// one per thread, reused by every such group the thread walks.
    static WORK_ROW: Cell<Option<Box<[u32]>>> = const { Cell::new(None) };
}

/// An `(opinion, direction, user)` row key as `(negative, reverse, user)`.
type RowKey = (bool, bool, NodeId);

/// One row a term reads, as phase 1 keys it: `(cluster row, negative,
/// reverse, user or cluster, ground state)`.
type TermKey = (bool, bool, bool, NodeId, usize);

/// The repair seeds a tile workspace keeps across its calls: the newest
/// full row phase 2 wrote of each key whose rows are cached gathered and
/// whose user the caller keeps, with the state it belongs to. At most one
/// row per key and no geometry: every change list comes from the two
/// states (`state_changes`).
#[derive(Default)]
pub(crate) struct SeedRows(HashMap<RowKey, (usize, Box<[u32]>)>);

#[cfg(test)]
impl SeedRows {
    /// Every stored row as `((negative, reverse, user), state, row)`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (RowKey, usize, &[u32])> {
        self.0.iter().map(|(&key, (s, row))| (key, *s, &row[..]))
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

/// The rows of one `(opinion, direction, user)` key, or of one
/// `(opinion, direction, cluster)` key, that its ground states' caches
/// lack, in ascending snapshot order.
struct RowGroup {
    /// `node` is a cluster, and the rows are its inter-cluster rows: a
    /// multi-source row from its members, min-reduced.
    cluster: bool,
    op: Opinion,
    reverse: bool,
    node: NodeId,
    steps: Vec<Step>,
    rows: Mutex<GroupRows>,
}

/// The buffers a [`RowGroup`] writes.
struct GroupRows {
    /// One per step, each in its cache's form, but for a last step whose
    /// cache keeps full rows.
    rows: Vec<Box<[u32]>>,
    /// The group's full working row: the seed it took, a fresh buffer
    /// when the row outlives the group, or `None` to walk in the thread's
    /// transient row. After the last step, that step's cache keeps it if
    /// it keeps full rows, and the seed store otherwise.
    full: Option<Box<[u32]>>,
}

/// One ground state's row of a [`RowGroup`].
struct Step {
    ground: usize,
    /// The change list that repairs the working row (the previous step's
    /// row, or the group's seed) into this one; `None` for a fresh Dial
    /// run.
    repair: Option<usize>,
}

/// The edges whose cost differs between states `old` and `new` for
/// opinion `op`, as `(edge, old cost)` in edge order, or `None` once more
/// than `limit` differ. `new_costs` are `new`'s costs; the edges the two
/// states' delta touches are re-derived under `old` on a copy of them, so
/// `old` needs no geometry.
fn state_changes(
    g: &CsrGraph,
    config: &GroundCostConfig,
    (old, new): (&NetworkState, &NetworkState),
    op: Opinion,
    new_costs: &[u32],
    limit: usize,
) -> Option<Vec<CostChange>> {
    let delta = StateDelta::between(g, new, old);
    let mut old_costs = new_costs.to_vec();
    update_edge_costs(g, old, op, config, delta.touched_edges(), &mut old_costs);
    let mut out = Vec::new();
    for &e in delta.touched_edges() {
        let o = old_costs[e as usize];
        if o != new_costs[e as usize] {
            if out.len() == limit {
                return None;
            }
            out.push((e, o));
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use crate::sparse::{Columns, RowCache};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd_graph::generators::{barabasi_albert, path_graph};
    use snd_graph::EdgeId;
    use std::collections::BTreeSet;

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

    /// A group whose key a bundle of full rows already holds starts by
    /// repairing a copy of that row: over a pre-filled middle bundle, only
    /// the keys it lacks cost a fresh Dial run.
    #[test]
    fn a_prefilled_full_row_seeds_the_groups_around_it() {
        let mut rng = SmallRng::seed_from_u64(26);
        let g = barabasi_albert(300, 3, &mut rng);
        let mut s = vec![NetworkState::from_values(
            &(0..300)
                .map(|_| [1, -1, 0, 0, 0][rng.gen_range(0..5)])
                .collect::<Vec<i8>>(),
        )];
        for _ in 1..6 {
            let mut next = s[s.len() - 1].clone();
            for _ in 0..4 {
                next.set(
                    rng.gen_range(0..300),
                    Opinion::from_value(rng.gen_range(-1..=1)),
                );
            }
            s.push(next);
        }
        let engine = SndEngine::new(&g, SndConfig::default());
        let bundles =
            || -> Vec<StateGeometry> { s.iter().map(|st| engine.state_geometry(st)).collect() };
        let fresh = |bs: &[StateGeometry]| -> usize {
            bs.iter().map(|b| b.cached_rows() - b.repaired_rows()).sum()
        };
        let keys = |b: &StateGeometry| -> BTreeSet<(bool, bool, NodeId)> {
            [Opinion::Positive, Opinion::Negative]
                .into_iter()
                .flat_map(|op| {
                    b.cache
                        .rows(op)
                        .into_iter()
                        .map(move |(rev, u, _)| (op == Opinion::Negative, rev, u))
                })
                .collect()
        };

        let cold = bundles();
        let matrix = engine.pairwise_distances_with(&s, &cold);
        let all: BTreeSet<_> = cold.iter().flat_map(keys).collect();
        assert_eq!(fresh(&cold), all.len(), "cold: one fresh row per key");

        let mid = s.len() / 2;
        let warm = bundles();
        for op in [Opinion::Positive, Opinion::Negative] {
            for (rev, u, row) in cold[mid].cache.rows(op) {
                warm[mid].cache.insert(op, rev, u, row.full().into(), false);
            }
        }
        let held = keys(&cold[mid]);
        assert_eq!(engine.pairwise_distances_with(&s, &warm), matrix);
        assert_eq!(
            fresh(&warm) - held.len(),
            all.difference(&held).count(),
            "held keys repair from the pre-filled rows"
        );
    }

    /// A keep-nothing rule leaves the seed store empty and prices every
    /// term bit for bit as a keep-everything rule does, over bundles that
    /// cache rows gathered, as the tile paths' do: its groups walk in
    /// transient rows, which no cache or store keeps.
    #[test]
    fn a_keep_nothing_rule_stores_no_seed_and_prices_identically() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = barabasi_albert(300, 3, &mut rng);
        let values: Vec<i8> = (0..300)
            .map(|_| [1, -1, 0, 0][rng.gen_range(0..4)])
            .collect();
        let mut s = vec![NetworkState::from_values(&values)];
        for _ in 1..5 {
            let mut next = s[s.len() - 1].clone();
            for _ in 0..4 {
                next.set(
                    rng.gen_range(0..300),
                    Opinion::from_value(rng.gen_range(-1..=1)),
                );
            }
            s.push(next);
        }
        let engine = SndEngine::new(&g, SndConfig::default());
        let cols = Columns::read_by(&s, false);
        assert!(cols.iter().all(Option::is_some), "rows are cached gathered");
        let pairs: Vec<(usize, usize)> = (0..s.len())
            .flat_map(|i| ((i + 1)..s.len()).map(move |j| (i, j)))
            .collect();
        let price = |keep: fn(NodeId) -> bool| {
            let bundles: Vec<StateGeometry> = s
                .iter()
                .map(|st| {
                    let plane = |op| engine.geometry(st, op);
                    let cache = RowCache::gathered(300, cols.clone());
                    StateGeometry::new(plane(Opinion::Positive), plane(Opinion::Negative), cache)
                })
                .collect();
            let mut seeds = SeedRows::default();
            let terms = engine.price_pairs(&s, |i| bundles.get(i), &mut seeds, keep, &pairs, None);
            let bits: Vec<(u64, u64)> = terms
                .iter()
                .map(|t| (t.0.to_bits(), t.1.to_bits()))
                .collect();
            (bits, terms, seeds.rows().count())
        };
        let (all, terms, stored) = price(|_| true);
        let (none, _, empty) = price(|_| false);
        assert!(stored > 0, "a keep-everything rule stores seeds");
        assert_eq!(empty, 0, "a keep-nothing rule stores none");
        assert_eq!(none, all, "bit-identical terms");
        let seq = engine.pairwise_distances_seq(&s);
        assert_eq!(
            DistanceMatrix::from_upper(s.len(), &fold_terms(&terms, false).0),
            seq
        );
    }

    /// The reference change list: every edge whose cost differs between
    /// two full cost vectors, as `(edge, old cost)`, or `None` once more
    /// than `limit` differ.
    fn cost_changes(old: &[u32], new: &[u32], limit: usize) -> Option<Vec<CostChange>> {
        let changed = old.iter().zip(new).enumerate().filter(|(_, (o, c))| o != c);
        let list: Vec<CostChange> = changed.map(|(e, (&o, _))| (e as EdgeId, o)).collect();
        (list.len() <= limit).then_some(list)
    }

    /// The change list derived from two states equals the one read off
    /// their full cost vectors, edge for edge, under every spreading
    /// model, and both keep a list of exactly `limit` changes and give
    /// up at `limit + 1`.
    #[test]
    fn state_changes_equal_cost_changes_under_every_ground() {
        use snd_models::{edge_costs, IccParams, LtcParams, SpreadingModel};
        let mut rng = SmallRng::seed_from_u64(31);
        let g = barabasi_albert(200, 3, &mut rng);
        let grounds = [
            GroundCostConfig::default(),
            GroundCostConfig::with_model(SpreadingModel::Icc(IccParams::default())),
            GroundCostConfig::with_model(SpreadingModel::Ltc(LtcParams::default())),
        ];
        let mut checked = 0;
        for trial in 0..24 {
            let a: Vec<i8> = (0..200).map(|_| rng.gen_range(-1..=1)).collect();
            let a = NetworkState::from_values(&a);
            let mut b = a.clone();
            for _ in 0..1 + trial % 6 {
                b.set(
                    rng.gen_range(0..200),
                    Opinion::from_value(rng.gen_range(-1..=1)),
                );
            }
            for ground in &grounds {
                for op in [Opinion::Positive, Opinion::Negative] {
                    let (old, new) = (
                        edge_costs(&g, &a, op, ground),
                        edge_costs(&g, &b, op, ground),
                    );
                    let derived = |limit| state_changes(&g, ground, (&a, &b), op, &new, limit);
                    let full = cost_changes(&old, &new, usize::MAX).unwrap();
                    assert_eq!(derived(usize::MAX), Some(full.clone()), "trial {trial}");
                    let count = full.len();
                    assert_eq!(cost_changes(&old, &new, count), Some(full.clone()));
                    assert_eq!(derived(count), Some(full));
                    if count > 0 {
                        assert_eq!(cost_changes(&old, &new, count - 1), None);
                        assert_eq!(derived(count - 1), None);
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "only {checked} cases changed a cost");
    }

    /// `steps + 1` states over `n` nodes whose first `active` users hold
    /// opinions, each step setting three of them at random.
    fn low_churn_series(
        n: usize,
        active: usize,
        steps: usize,
        rng: &mut SmallRng,
    ) -> Vec<NetworkState> {
        let mut values = vec![0i8; n];
        for v in &mut values[..active] {
            *v = [1, -1, 0][rng.gen_range(0..3)];
        }
        let mut s = vec![NetworkState::from_values(&values)];
        for _ in 0..steps {
            let mut next = s[s.len() - 1].clone();
            for _ in 0..3 {
                let u = rng.gen_range(0..active as NodeId);
                next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            s.push(next);
        }
        s
    }

    /// Every bundle's cached inter-cluster rows, as `(ground state,
    /// negative, reverse, cluster)`.
    fn cluster_keys(bundles: &[StateGeometry]) -> BTreeSet<(usize, bool, bool, u32)> {
        let mut keys = BTreeSet::new();
        for (s, b) in bundles.iter().enumerate() {
            for op in [Opinion::Positive, Opinion::Negative] {
                for (rev, c, _) in b.cache.cluster_rows_of(op) {
                    keys.insert((s, op == Opinion::Negative, rev, c));
                }
            }
        }
        keys
    }

    /// Phases 1–2 write exactly the inter-cluster rows the terms with
    /// banks read, once each: the rows the same terms compute on first use
    /// over empty caches, so the solves that follow add none. Each equals
    /// its row (forward) or column (reverse) of the eager matrix, and the
    /// terms price bit for bit as over the eager geometry. Under every γ
    /// policy, with a cluster that has no members, on a disconnected graph
    /// whose rows read the sentinel, and in a capped clamp domain, whose
    /// rows are all fresh.
    #[test]
    fn cluster_rows_are_the_rows_terms_read_of_the_eager_matrix() {
        use crate::config::{ClusterSpec, GammaPolicy};
        let mut rng = SmallRng::seed_from_u64(41);
        let bfs = |gamma| SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 8 },
            gamma,
            ..Default::default()
        };
        let ba = barabasi_albert(150, 2, &mut rng);
        // Two components of random directed edges: many cluster pairs are
        // unreachable.
        let split: Vec<(NodeId, NodeId)> = (0..240)
            .map(|e| {
                let base = if e % 2 == 0 { 0 } else { 60 };
                (base + rng.gen_range(0..60), base + rng.gen_range(0..60))
            })
            .collect();
        let split = CsrGraph::from_edges(120, &split);
        // U·n + 1 past `u32::MAX / 4`: a 2¹⁵-node graph with U = 2¹⁵,
        // every edge on a 40-node core, the isolated nodes in cluster 0.
        let n_capped = 1usize << 15;
        let core: Vec<(NodeId, NodeId)> = (0..120)
            .map(|_| (rng.gen_range(0..40), rng.gen_range(0..40)))
            .collect();
        let capped_graph = CsrGraph::from_edges(n_capped, &core);
        let labels = (0..n_capped)
            .map(|v| if v < 40 { rng.gen_range(0..4) } else { 0 })
            .collect();
        let mut capped = SndConfig {
            clusters: ClusterSpec::Explicit(labels),
            ..Default::default()
        };
        capped.ground.communication = Some(vec![1 << 15; capped_graph.edge_count()]);
        // (name, graph, config, users holding opinions, add an empty cluster)
        let cases = [
            (
                "eccentricity",
                &ba,
                bfs(GammaPolicy::Eccentricity),
                150,
                false,
            ),
            (
                "half diameter",
                &ba,
                bfs(GammaPolicy::HalfExactDiameter),
                150,
                false,
            ),
            ("constant", &ba, bfs(GammaPolicy::Constant(3)), 150, false),
            (
                "empty cluster",
                &ba,
                bfs(GammaPolicy::Eccentricity),
                150,
                true,
            ),
            (
                "disconnected",
                &split,
                bfs(GammaPolicy::Eccentricity),
                120,
                false,
            ),
            ("capped", &capped_graph, capped, 40, false),
        ];
        for (name, g, config, active, empty) in cases {
            let mut engine = SndEngine::new(g, config);
            if empty {
                engine.clustering_mut().clusters.push(Vec::new());
            }
            let (clustering, config) = (engine.clustering(), engine.config());
            let s = low_churn_series(g.node_count(), active, 6, &mut rng);
            let pairs: Vec<(usize, usize)> = (0..s.len())
                .flat_map(|i| ((i + 1)..s.len()).map(move |j| (i, j)))
                .collect();
            let bundles =
                || -> Vec<StateGeometry> { s.iter().map(|st| engine.state_geometry(st)).collect() };
            // Every term of every pair, as the bits of its value: over the
            // bundles' caches, or over the eager geometry without one.
            let solve = |bundles: Option<&[StateGeometry]>| -> Vec<u64> {
                let terms = pairs
                    .iter()
                    .flat_map(|&(i, j)| (0..4).map(move |t| (i, j, t)));
                terms
                    .map(|(i, j, t)| {
                        let (forward, op) = term_role(t);
                        let (ground, other) = if forward { (i, j) } else { (j, i) };
                        let (p, q) = (&s[ground], &s[other]);
                        let v = match bundles {
                            Some(b) => {
                                let (geom, cache) = (b[ground].plane(op), Some(&b[ground].cache));
                                sparse::emd_star_term(g, clustering, geom, p, q, op, config, cache)
                            }
                            None => {
                                let geom = &engine.geometry_seq(p, op);
                                sparse::emd_star_term(g, clustering, geom, p, q, op, config, None)
                            }
                        };
                        v.to_bits()
                    })
                    .collect()
            };

            let lazy = bundles();
            let terms = solve(Some(&lazy));
            assert_eq!(terms, solve(None), "{name}: the eager reference");
            let filled = bundles();
            let mut seeds = SeedRows::default();
            engine.fill_pair_rows(&s, |i| filled.get(i), &mut seeds, |_| false, &pairs, None);
            let written: Vec<usize> = filled.iter().map(|b| b.cache.cluster_rows()).collect();
            let keys = cluster_keys(&filled);
            assert!(
                keys.iter().any(|k| k.2),
                "{name}: no reverse term read a row"
            );
            assert_eq!(
                keys,
                cluster_keys(&lazy),
                "{name}: the keys of terms with banks"
            );
            assert_eq!(
                written.iter().sum::<usize>(),
                keys.len(),
                "{name}: one write per key"
            );
            assert_eq!(solve(Some(&filled)), terms, "{name}");
            let after: Vec<usize> = filled.iter().map(|b| b.cache.cluster_rows()).collect();
            assert_eq!(after, written, "{name}: a solve missed a cluster row");

            let mut sentinel = 0;
            for (ground, b) in filled.iter().enumerate() {
                for op in [Opinion::Positive, Opinion::Negative] {
                    let eager = engine.geometry_seq(&s[ground], op);
                    for (rev, c, row) in b.cache.cluster_rows_of(op) {
                        let c = c as usize;
                        for (c2, &d) in row.iter().enumerate() {
                            let want = match rev {
                                true => eager.inter_cluster.at(c2, c),
                                false => eager.inter_cluster.at(c, c2),
                            };
                            assert_eq!(
                                d, want,
                                "{name}: state {ground} {op:?} rev={rev} ({c},{c2})"
                            );
                            sentinel += usize::from(d == eager.unreachable);
                        }
                    }
                }
            }
            if empty || name == "disconnected" {
                assert!(sentinel > 0, "{name}: no row read the sentinel");
            }
            let repaired: usize = filled.iter().map(|b| b.cache.repaired_cluster_rows()).sum();
            if name == "capped" {
                assert!(!filled[0]
                    .plane(Opinion::Positive)
                    .is_lossless(g.node_count()));
                assert_eq!(repaired, 0, "{name}: a lossy row was repaired");
            } else {
                assert!(repaired > 0, "{name}: no cluster row was repaired");
            }
        }
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
