//! Delta-aware series evaluation: row repair between consecutive
//! snapshots.
//!
//! The series workloads (anomaly detection over `d(G_t, G_{t+1})`,
//! prediction, the paper's Fig. 10–12) price *consecutive* snapshots of
//! one evolving network. A simulation step flips a handful of opinions,
//! yet the batch path rebuilds each state's full ground geometry — per
//! opinion: an `O(m)` edge-cost sweep, plus (in cluster-bank mode) one
//! multi-source SSSP per cluster and the γ policy's member-bounded runs —
//! from scratch. A series builds fresh geometry only for its first state
//! and past the fallback conditions below, through the one fresh builder
//! `banks::build_geometry`, which keeps each cluster's repair state. This
//! module owns what happens between snapshots — repair:
//!
//! 1. **Edge costs** ([`snd_models::StateDelta`]): only the touched edges
//!    (incident to flipped nodes, plus receiver-side aggregate spill for
//!    activity flips) are re-derived, bit-identical to the full sweep.
//! 2. **Cluster geometry** ([`DeltaStateGeometry`]): the kept per-cluster
//!    SSSP rows (sources = the cluster's members — *static* across
//!    snapshots) are repaired with [`snd_graph::repair_row`] instead of
//!    recomputed; a cluster whose row the repair reports unchanged
//!    reuses its previous inter-cluster row verbatim. Under
//!    `Eccentricity` γ each cluster also keeps the *balls* of its two
//!    member-bounded γ runs (`banks::base_gamma`: the nodes a run settled,
//!    their exact distances and the run's radius) and repairs them the
//!    same way, re-running a bounded Dial only when a member leaves its
//!    ball; `HalfExactDiameter` re-runs its bounded Dials at every step.
//!    Repaired geometry is bit-identical to
//!    [`compute_geometry`](crate::banks::compute_geometry) because
//!    shortest-path distances are unique. Landmark sketch rows
//!    ([`SketchRows`], approximate tier) are repaired the same way.
//! 3. **Transitions** ([`SndEngine::series_distances`],
//!    [`SndEngine::series_intervals`]): one series walker,
//!    `SndEngine::walk_series`, drives both. Identical consecutive states
//!    (empty delta) short-circuit to zero; otherwise the four EMD\* terms
//!    go through the engine's one term router, `SndEngine::price_term`,
//!    over the incrementally-derived geometries, exactly as a one-off
//!    distance would. The walker keeps at most **two** of this module's
//!    bundles (and two row caches) live at any point. It builds no batch
//!    [`StateGeometry`], which is what `tests/series_memory.rs` checks:
//!    that test counts live `StateGeometry` bundles, so it guards against
//!    a series falling back to per-state batch bundles, not the count of
//!    delta bundles.
//!
//! A step advances the repair state **in place**: it moves the cluster
//! rows and balls out of the previous bundle, which keeps only its
//! [`GroundGeometry`] for pricing, so each row and ball exists once and a
//! uniquely owned chain copies none of them. The state is `Arc`-shared
//! per cluster, so a clone of a bundle (the candidate evaluator's patch)
//! stays repairable and a step on the clone copies only the clusters a
//! change reaches. The series loops look one transition ahead and keep
//! repair state only for a bundle whose next transition repairs.
//!
//! # When the fast path falls back
//!
//! Repair is exact only in a *lossless* clamp domain (every true finite
//! distance below the `u32` sentinel `U·n + 1`; violated only when that
//! product overflows the sentinel cap) and pays off only when few edges
//! changed. [`DeltaStateGeometry::step`] rebuilds from scratch — at
//! batch-path cost plus an `O(n + Σdeg(flipped))` delta sweep — when:
//!
//! * more than [`REPAIR_EDGE_FRACTION`]⁻¹ of the edges were touched
//!   (high-churn dynamics like random activation), or
//! * the clamp domain is capped (`U·n + 1 > u32::MAX / 4`; see
//!   [`GroundGeometry::is_lossless`]).
//!
//! Per-bin mode (the default [`ClusterSpec`](crate::ClusterSpec)) has no
//! cluster SSSPs at all; its delta win is the touched-edge cost sweep and
//! the empty-delta shortcut.
//!
//! Everything here is property-tested bit-identical to
//! [`series_distances_seq`](crate::SndEngine::series_distances_seq)
//! across every registry scenario (`tests/delta_series.rs`).

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use rayon::prelude::*;
use snd_graph::{
    dial_reverse_scratch, dial_scratch, repair_row, Clustering, CostChange, CsrGraph, NodeId,
    RepairScratch,
};
use snd_models::{edge_costs, update_edge_costs, NetworkState, Opinion, StateDelta};
use snd_transport::DenseCost;

use crate::banks::{
    bank_gammas, base_gamma, build_geometry, clamped_row, ecc_run, min_reduce, write_inter_row,
    GroundGeometry, KeptCluster,
};
use crate::config::SndConfig;
use crate::engine::{SndEngine, StateGeometry, TermGround};
use crate::sparse::{with_sssp_scratch, RowCache};

/// Fallback knob: the repair path engages only when touched edges are at
/// most `edge_count / REPAIR_EDGE_FRACTION` — beyond that the affected
/// region rivals the graph and a fresh rebuild is cheaper.
pub const REPAIR_EDGE_FRACTION: usize = 4;

/// Whether a transition touching `touched` of the graph's `m` edges is
/// past the repair threshold and rebuilds fresh.
pub(crate) fn high_churn(touched: usize, m: usize) -> bool {
    touched * REPAIR_EDGE_FRACTION > m
}

/// Whether a series bundle keeps its repair state: only when its next
/// transition `next` (`(t, delta)`, `None` past the last) repairs instead
/// of falling back, so a run of fallbacks keeps no rows or balls it never
/// uses.
pub(crate) fn keeps_repair_state(g: &CsrGraph, next: Option<&(usize, StateDelta)>) -> bool {
    next.is_some_and(|(_, d)| !high_churn(d.touched_edges().len(), g.edge_count()))
}

thread_local! {
    static REPAIR_SCRATCH: RefCell<RepairScratch> = RefCell::new(RepairScratch::new());
    /// Per-thread dense view of one γ ball, paired with its fill value:
    /// between uses every entry holds the fill (the sentinel of the
    /// geometry last served), so a ball no change reaches costs
    /// `O(|ball|)`. A ball a change reaches adds two `O(n)` fills to the
    /// repair's own work.
    static BALL_ROW: RefCell<(Vec<u32>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

/// How a step advanced the `Eccentricity` γ balls of a bundle, summed over
/// both opinion planes. All zero for a bundle built fresh, and under any
/// other γ policy (no balls are kept).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BallSteps {
    /// Balls no change could reach: kept as they were.
    pub carried: usize,
    /// Balls [`repair_row`] advanced with every member still inside.
    pub repaired: usize,
    /// Balls a member left: re-run as a fresh member-bounded Dial.
    pub rerun: usize,
    /// Balls whose radius is the sentinel after the step: their run
    /// drained, so they hold every node the representative reaches.
    pub drained: usize,
}

impl std::ops::Add for BallSteps {
    type Output = BallSteps;
    fn add(self, o: BallSteps) -> BallSteps {
        BallSteps {
            carried: self.carried + o.carried,
            repaired: self.repaired + o.repaired,
            rerun: self.rerun + o.rerun,
            drained: self.drained + o.drained,
        }
    }
}

/// The cached, repairable geometry of one `(state, opinion)` pair.
///
/// The repair state is `Arc`-shared per cluster: a step *moves* it out of
/// the previous bundle and repairs it in place ([`Arc::make_mut`] on a
/// uniquely owned cluster copies nothing), while the previous bundle
/// keeps its [`GroundGeometry`] for pricing. A clone (the candidate
/// evaluator's patch) shares every cluster, and a step on it copies only
/// the clusters a change reaches.
#[derive(Clone)]
pub(crate) struct OpGeometry {
    pub(crate) geom: GroundGeometry,
    /// Per-cluster repair state (empty when not kept: per-bin mode, a
    /// lossy clamp domain, a build whose next transition falls back, or
    /// a bundle a step already advanced).
    clusters: Vec<Arc<KeptCluster>>,
    /// Approximate-tier landmark rows (per-bin mode with an approx config
    /// and a lossless clamp domain only), repaired across steps like the
    /// cluster rows above.
    pub(crate) sketch: Option<SketchRows>,
    /// γ-ball outcomes of the step that produced this geometry.
    balls: BallSteps,
}

impl OpGeometry {
    /// This plane as a term ground, its SSSP rows going through `cache`.
    pub(crate) fn ground<'a>(&'a self, cache: &'a RowCache) -> TermGround<'a> {
        TermGround {
            geom: &self.geom,
            cache: Some(cache),
            sketch: self.sketch.as_ref(),
        }
    }
}

/// Repair-compatible landmark sketch rows of one `(state, opinion)`
/// geometry plane: per landmark `l`, the clamped reverse row
/// `to[l][v] = d̂(v → l)` and forward row `from[l][v] = d̂(l → v)` — exactly
/// what a [`LandmarkSketch`](snd_graph::LandmarkSketch) borrows. Rows are
/// `Arc`-shared so a transition that provably cannot perturb one (same
/// `ChangeIndex::fires` contract as the cluster rows) carries it into
/// the next bundle in `O(1)`; the rest are repaired with [`repair_row`],
/// which is bit-identical to a fresh SSSP because the clamp domain is
/// lossless whenever a sketch exists (`tests/sketch_repair.rs`).
///
/// Adaptive landmark placement (`DeltaStateGeometry::adapt_sketch`)
/// appends and evicts whole row pairs between snapshots; the usefulness
/// clock (`last_useful` / `tick`) travels with the bundle, including
/// through the high-churn fresh-rebuild fallback.
///
/// Repair is **feedback-driven**: a triangle-inequality envelope over a
/// *subset* of the landmarks is still sound (an upper bound minimized
/// over fewer landmarks only loosens, a lower bound maximized over fewer
/// only loosens), so a transition does not have to repair all `2·L`
/// rows. Pairs whose landmark recently bound a hot cell — plus a small
/// floor — are repaired; the rest are parked `stale`, dropped from the
/// envelope, and cost nothing until adaptive placement evicts them (a
/// stale pair's `last_useful` ages, so eviction finds it first). Until
/// the first pricing signal arrives (`tick == 0`) every pair is
/// advanced, which keeps un-priced stepping bit-identical to a fresh
/// build across every row.
#[derive(Clone)]
pub struct SketchRows {
    pub(crate) landmarks: Vec<NodeId>,
    pub(crate) to: Vec<Arc<Vec<u32>>>,
    pub(crate) from: Vec<Arc<Vec<u32>>>,
    /// Last tick each landmark was the binding envelope of a hot cell.
    pub(crate) last_useful: Vec<u64>,
    /// Adaptation clock, bumped once per priced snapshot.
    pub(crate) tick: u64,
    /// Pairs whose rows a repair policy skipped across some fired
    /// transition: no longer valid for the current costs, excluded from
    /// [`sketch`](Self::sketch) until replaced (only a full rebuild or
    /// eviction revives the slot — repair needs a valid starting row).
    pub(crate) stale: Vec<bool>,
}

/// Per-transition repair budget of [`SketchRows::advanced`]: the number
/// of row pairs kept live once pricing feedback exists, chosen
/// most-recently-useful first. Enough for a serviceable envelope, small
/// enough that a series whose refinement never leans on the sketch stops
/// paying for its upkeep; pairs the feedback keeps crediting always rank
/// inside the budget.
const REPAIR_PAIR_BUDGET: usize = 3;

/// One adaptive promotion costs two full SSSPs plus membership in the
/// repair budget, so placement moves at most one landmark per plane
/// every this many snapshots — a genuinely hot region stays hot long
/// enough to be covered one landmark at a time.
const PROMOTE_PERIOD: u64 = 4;

impl SketchRows {
    /// Number of landmarks (row pairs), live or stale.
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of live (repair-current) row pairs — the envelope width
    /// pricing actually sees.
    pub fn live_count(&self) -> usize {
        self.stale.iter().filter(|&&s| !s).count()
    }

    /// The landmark set, in row order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Bundle indices of the live pairs, in row order — position `j` in
    /// the borrowed [`sketch`](Self::sketch) (and in any feedback derived
    /// from it) maps to bundle pair `live_indices()[j]`.
    fn live_indices(&self) -> Vec<usize> {
        (0..self.landmarks.len())
            .filter(|&i| !self.stale[i])
            .collect()
    }

    /// Records pricing feedback: `useful[j]` refers to the `j`-th *live*
    /// pair (the subset the envelope served), credited at the current
    /// tick.
    pub(crate) fn note_useful(&mut self, useful: &[bool]) {
        let live = self.live_indices();
        for (&i, &u) in live.iter().zip(useful) {
            if u {
                self.last_useful[i] = self.tick;
            }
        }
    }

    /// One stored row: the reverse row `d̂(v → landmark)` when `reverse`,
    /// else the forward row `d̂(landmark → v)`.
    pub fn row(&self, idx: usize, reverse: bool) -> &[u32] {
        if reverse {
            &self.to[idx]
        } else {
            &self.from[idx]
        }
    }

    /// Borrows the **live** rows as a
    /// [`LandmarkSketch`](snd_graph::LandmarkSketch) with sentinel `inf`.
    /// Stale pairs are excluded — the envelope over the remaining
    /// landmarks is looser but still sound.
    pub(crate) fn sketch(&self, inf: u32) -> snd_graph::LandmarkSketch<'_> {
        let live = self.live_indices();
        snd_graph::LandmarkSketch::new(
            live.iter().map(|&i| self.to[i].as_slice()).collect(),
            live.iter().map(|&i| self.from[i].as_slice()).collect(),
            inf,
        )
    }

    /// Builds every row pair from scratch (2·L SSSPs, parallel over
    /// landmarks). `last_useful`/`tick` are carried, not reset, so the
    /// high-churn fallback keeps the adaptation history.
    fn build(
        g: &CsrGraph,
        costs: &[u32],
        max_edge_cost: u32,
        unreachable: u32,
        landmarks: Vec<NodeId>,
        last_useful: Vec<u64>,
        tick: u64,
    ) -> SketchRows {
        let n = g.node_count();
        // One (to-landmark, from-landmark) row pair per landmark.
        type RowPair = (Arc<Vec<u32>>, Arc<Vec<u32>>);
        let rows: Vec<RowPair> =
            crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                landmarks
                    .par_iter()
                    .map(|&l| {
                        with_sssp_scratch(|scratch| {
                            dial_reverse_scratch(g, costs, &[l], max_edge_cost, scratch);
                            let to = clamped_row(scratch, n, unreachable);
                            dial_scratch(g, costs, &[l], max_edge_cost, scratch);
                            let from = clamped_row(scratch, n, unreachable);
                            (Arc::new(to), Arc::new(from))
                        })
                    })
                    .collect()
            });
        crate::approx::record_sketch_rebuild(rows.len() * 2);
        let (to, from) = rows.into_iter().unzip();
        let stale = vec![false; landmarks.len()];
        SketchRows {
            landmarks,
            to,
            from,
            last_useful,
            tick,
            stale,
        }
    }

    /// Fresh rebuild over new costs at the *same* (possibly adapted)
    /// landmark set — the high-churn fallback.
    fn rebuilt(
        &self,
        g: &CsrGraph,
        costs: &[u32],
        max_edge_cost: u32,
        unreachable: u32,
    ) -> SketchRows {
        SketchRows::build(
            g,
            costs,
            max_edge_cost,
            unreachable,
            self.landmarks.clone(),
            self.last_useful.clone(),
            self.tick,
        )
    }

    /// The pairs the feedback-driven policy repairs across the next
    /// transition: the [`REPAIR_PAIR_BUDGET`] most recently useful live
    /// pairs (ties broken by slot, so the budget does not wander across
    /// equally-idle pairs). Before any pricing signal exists
    /// (`tick == 0`) every pair is wanted, so un-priced stepping stays
    /// exhaustive.
    fn repair_wanted(&self) -> Vec<bool> {
        let n = self.landmarks.len();
        if self.tick == 0 {
            return vec![true; n];
        }
        let mut want: Vec<bool> = vec![false; n];
        let mut live: Vec<usize> = (0..n).filter(|&i| !self.stale[i]).collect();
        live.sort_unstable_by_key(|&i| (std::cmp::Reverse(self.last_useful[i]), i));
        for &i in live.iter().take(REPAIR_PAIR_BUDGET) {
            want[i] = true;
        }
        want
    }

    /// Advances the row pairs across a transition. Rows a change provably
    /// cannot perturb are `Arc`-shared; rows of pairs the feedback policy
    /// ([`repair_wanted`](Self::repair_wanted)) retains are repaired in
    /// place — bit-identical to [`build`](Self::build) over the new
    /// costs; fired pairs the policy lets go are carried unrepaired and
    /// marked stale (a stale pair stays stale: repair needs a valid
    /// starting row, so only eviction or a full rebuild revives the
    /// slot).
    fn advanced(
        &self,
        g: &CsrGraph,
        new_costs: &[u32],
        changes: &[CostChange],
        unreachable: u32,
    ) -> SketchRows {
        let index = ChangeIndex::new(g, changes, new_costs, unreachable);
        let want = self.repair_wanted();
        // Per pair: (to, from, repaired, reused, went_stale).
        type Advanced = (Arc<Vec<u32>>, Arc<Vec<u32>>, usize, usize, bool);
        let pairs: Vec<Advanced> =
            crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                (0..self.landmarks.len())
                    .into_par_iter()
                    .map(|i| {
                        let (t, f) = (&self.to[i], &self.from[i]);
                        if self.stale[i] {
                            return (Arc::clone(t), Arc::clone(f), 0, 0, true);
                        }
                        let l = self.landmarks[i];
                        let fires_to = index.fires(t, true, unreachable);
                        let fires_from = index.fires(f, false, unreachable);
                        let fired = usize::from(fires_to) + usize::from(fires_from);
                        if fired > 0 && !want[i] {
                            return (Arc::clone(t), Arc::clone(f), 0, 0, true);
                        }
                        // The previous bundle still prices with these rows,
                        // so a fired row is repaired on a copy.
                        let (mut t, mut f) = (Arc::clone(t), Arc::clone(f));
                        if fires_to {
                            index.repair(Arc::make_mut(&mut t).as_mut_slice(), &[l], true);
                        }
                        if fires_from {
                            index.repair(Arc::make_mut(&mut f).as_mut_slice(), &[l], false);
                        }
                        (t, f, fired, 2 - fired, false)
                    })
                    .collect()
            });
        let mut to = Vec::with_capacity(pairs.len());
        let mut from = Vec::with_capacity(pairs.len());
        let mut stale = Vec::with_capacity(pairs.len());
        let (mut repaired, mut reused, mut parked) = (0usize, 0usize, 0usize);
        for (t, f, rep, reu, s) in pairs {
            repaired += rep;
            reused += reu;
            parked += usize::from(s) * 2;
            stale.push(s);
            to.push(t);
            from.push(f);
        }
        crate::approx::record_sketch_step(repaired, reused, parked);
        SketchRows {
            landmarks: self.landmarks.clone(),
            to,
            from,
            last_useful: self.last_useful.clone(),
            tick: self.tick,
            stale,
        }
    }
}

/// One transition's exact change batch, indexed in relaxation terms:
/// `(tail, head, old, new)` per change, endpoints precomputed once in
/// forward orientation. [`fires`](ChangeIndex::fires) tells in
/// `O(|changes|)`, without touching the row, whether a batch can move a
/// row at all, so a cluster or landmark the batch cannot reach skips its
/// repair outright.
struct ChangeIndex<'a> {
    g: &'a CsrGraph,
    new_costs: &'a [u32],
    changes: &'a [CostChange],
    unreachable: u32,
    entries: Vec<(NodeId, NodeId, u32, u32)>,
}

impl<'a> ChangeIndex<'a> {
    fn new(
        g: &'a CsrGraph,
        changes: &'a [CostChange],
        new_costs: &'a [u32],
        unreachable: u32,
    ) -> ChangeIndex<'a> {
        ChangeIndex {
            g,
            new_costs,
            changes,
            unreachable,
            entries: changes
                .iter()
                .map(|&(e, old)| {
                    (
                        g.edge_source(e),
                        g.edge_target(e),
                        old,
                        new_costs[e as usize],
                    )
                })
                .collect(),
        }
    }

    /// Whether any change in the batch can move an entry of `dist` (a
    /// clamped row in the direction given by `reverse`) that lies below
    /// `limit` — the sentinel for a full row, the radius for a γ ball.
    /// `false` guarantees [`repair_row`] would leave every entry below
    /// `limit` bit-identical, because these are exactly its trigger
    /// conditions: a *decrease* does work only when it strictly improves
    /// its head from the current tail distance, an *increase* only when
    /// the edge supported its head's distance (`dist[tail] + old ==
    /// dist[head]`). Tails at or past `limit` only reach heads at or past
    /// it, and an increase cannot lower anything.
    fn fires(&self, dist: &[u32], reverse: bool, limit: u32) -> bool {
        self.entries.iter().any(|&(s, t, old, new)| {
            let (tail, head) = if reverse { (t, s) } else { (s, t) };
            let dt = dist[tail as usize];
            if dt >= limit {
                return false;
            }
            let dh = dist[head as usize];
            if new < old {
                dt.saturating_add(new) < dh.min(limit)
            } else {
                dh < limit && dt.saturating_add(old) == dh
            }
        })
    }

    /// [`repair_row`]s `row` — the clamped row of an SSSP from `sources`,
    /// in the direction given by `reverse` — in place; returns the number
    /// of nodes whose distance moved.
    fn repair(&self, row: &mut [u32], sources: &[NodeId], reverse: bool) -> usize {
        REPAIR_SCRATCH.with(|cell| {
            let scratch = &mut cell.borrow_mut();
            self.repair_below(row, sources, reverse, self.unreachable, scratch)
        })
    }

    /// [`repair_row`] with `limit` as the row's sentinel: the sentinel
    /// itself for a full row, a γ ball's radius for a ball.
    fn repair_below(
        &self,
        row: &mut [u32],
        sources: &[NodeId],
        reverse: bool,
        limit: u32,
        scratch: &mut RepairScratch,
    ) -> usize {
        let (g, costs, changes) = (self.g, self.new_costs, self.changes);
        repair_row(g, costs, changes, sources, reverse, limit, row, scratch)
    }

    /// Advances one γ ball of the non-empty cluster `members` across the
    /// batch, in place — copying the cluster's repair state first only
    /// when it is shared and the ball actually moves. Returns the
    /// representative's eccentricity in that direction and counts what
    /// happened in `steps`.
    ///
    /// The per-thread dense row reads the sentinel outside the ball, which
    /// is enough to test whether a change can reach an entry below the
    /// radius `r`. A ball a change reaches is repaired with every outside
    /// entry at `r` and `r` passed as the repair's sentinel, so no work
    /// spreads past `r`. Values below `r` then derive only from entries
    /// below `r`, which are exact, and the ball held every node below
    /// `r`; so after the repair the entries below `r` are exactly the
    /// nodes whose new distance is below `r`, at that distance. They form
    /// the new ball, found among the old ball and the nodes the repair
    /// wrote, and γ is exact while every member stays inside. A member at
    /// or past `r` left the ball and the run is redone (unless the run
    /// drained: then `r` is the sentinel and exact itself).
    fn advance_ball(
        &self,
        kept: &mut Arc<KeptCluster>,
        side: usize,
        members: &[NodeId],
        max_edge_cost: u32,
        steps: &mut BallSteps,
    ) -> u32 {
        let (g, inf) = (self.g, self.unreachable);
        let reverse = side == 1;
        let ecc = |row: &[u32]| members.iter().map(|&m| row[m as usize]).max().unwrap_or(0);
        let stepped = BALL_ROW.with(|cell| {
            let (row, fill) = &mut *cell.borrow_mut();
            if row.len() != g.node_count() || *fill != inf {
                *row = vec![inf; g.node_count()];
                *fill = inf;
            }
            let ball = &kept.balls[side];
            let (r, len) = (ball.radius, ball.nodes.len());
            let scatter = |row: &mut [u32]| {
                for &(v, d) in &ball.nodes {
                    row[v as usize] = d;
                }
            };
            scatter(row);
            if !self.fires(row, reverse, r) {
                let e = ecc(row);
                for &(v, _) in &ball.nodes {
                    row[v as usize] = inf;
                }
                steps.carried += 1;
                return Some(e);
            }
            if r < inf {
                row.fill(r);
                scatter(row);
            }
            REPAIR_SCRATCH.with(|cell| {
                let scratch = &mut cell.borrow_mut();
                self.repair_below(row, &members[..1], reverse, r, scratch);
                if r < inf && members.iter().any(|&m| row[m as usize] >= r) {
                    row.fill(inf);
                    return None;
                }
                let e = ecc(row);
                let ball = &mut Arc::make_mut(kept).balls[side];
                let old = std::mem::replace(&mut ball.nodes, Vec::with_capacity(len));
                // Gather the entries below `r`, resetting each to the
                // fill so a node met twice is taken once.
                for v in old.iter().map(|&(v, _)| v).chain(scratch.touched()) {
                    let d = std::mem::replace(&mut row[v as usize], inf);
                    if d < r {
                        ball.nodes.push((v, d));
                    }
                }
                if r < inf {
                    row.fill(inf);
                }
                steps.repaired += 1;
                Some(e)
            })
        });
        if let Some(e) = stepped {
            return e;
        }
        steps.rerun += 1;
        let (e, ball) = with_sssp_scratch(|scratch| {
            let costs = self.new_costs;
            ecc_run(
                g,
                costs,
                max_edge_cost,
                members,
                reverse,
                inf,
                true,
                scratch,
            )
        });
        if let Some(ball) = ball {
            Arc::make_mut(kept).balls[side] = ball;
        }
        e
    }
}

impl OpGeometry {
    /// Builds the geometry from scratch, retaining its repair state when
    /// `keep`. Bit-identical to
    /// [`compute_geometry`](crate::banks::compute_geometry).
    fn fresh(engine: &SndEngine<'_>, state: &NetworkState, op: Opinion, keep: bool) -> OpGeometry {
        let costs = edge_costs(engine.graph(), state, op, &engine.config().ground);
        Self::from_costs(engine, costs, keep)
    }

    /// Builds the geometry from already-derived edge costs through the
    /// one fresh builder, keeping its repair state (when `keep` and
    /// repairable) as shared per-cluster state. Approximate-tier engines
    /// in per-bin mode get a live sketch bundle alongside the costs —
    /// only in a lossless clamp domain, the repair precondition
    /// (otherwise the approx path falls back to cache fetches, still
    /// certified).
    fn from_costs(engine: &SndEngine<'_>, costs: Vec<u32>, keep: bool) -> OpGeometry {
        let g = engine.graph();
        let (geom, kept) =
            build_geometry(g, engine.clustering(), costs, engine.config(), true, keep);
        let sketch = (geom.per_bin && geom.is_lossless(g.node_count()))
            .then(|| engine.delta_sketch_ctx())
            .flatten()
            .map(|ctx| {
                SketchRows::build(
                    g,
                    &geom.edge_costs,
                    geom.max_edge_cost,
                    geom.unreachable,
                    ctx.landmarks.clone(),
                    vec![0; ctx.landmarks.len()],
                    0,
                )
            });
        OpGeometry {
            clusters: kept.into_iter().map(Arc::new).collect(),
            geom,
            sketch,
            balls: BallSteps::default(),
        }
    }

    /// Advances `clusters` — the repair state `prev` was built with, moved
    /// out of it — to the next state: repairs each cluster row and γ ball
    /// in place with the actually-changed edge costs, and recomputes γ
    /// from bounded runs where no ball is kept. Caller guarantees
    /// `changes` is exact (see [`DeltaStateGeometry::step`]) and that
    /// `clusters` is not empty.
    fn advanced(
        prev: &GroundGeometry,
        clusters: Vec<Arc<KeptCluster>>,
        g: &CsrGraph,
        clustering: &Clustering,
        config: &SndConfig,
        new_costs: Vec<u32>,
        changes: &[CostChange],
    ) -> OpGeometry {
        let nc = clustering.cluster_count();
        let unreachable = prev.unreachable;
        let max_edge_cost = prev.max_edge_cost;
        debug_assert!(!prev.per_bin && clusters.len() == nc);

        // Index the batch once; each cluster then answers "can any change
        // touch my row?" in O(|changes|) instead of repairing just to
        // find out.
        let index = ChangeIndex::new(g, changes, &new_costs, unreachable);
        // The rayon stand-in lends items only by shared reference; a
        // per-cluster lock (never contended) hands each worker its own
        // cluster mutably.
        let slots: Vec<Mutex<Arc<KeptCluster>>> = clusters.into_iter().map(Mutex::new).collect();
        // Per cluster: the new inter-cluster row (None: unchanged), base γ
        // and the γ-ball outcomes.
        let per_cluster: Vec<(Option<Vec<u32>>, u32, BallSteps)> = (0..nc)
            .into_par_iter()
            .map(|c| {
                let members = clustering.members(c as u32);
                let mut slot = slots[c].lock().unwrap_or_else(PoisonError::into_inner);
                let kept: &mut Arc<KeptCluster> = &mut slot;
                let mut mins = None;
                if index.fires(&kept.row, false, unreachable) {
                    let row = &mut Arc::make_mut(kept).row;
                    if index.repair(row, members, false) > 0 {
                        mins = Some(min_reduce(row.iter().copied(), clustering, unreachable));
                    }
                }
                let mut steps = BallSteps::default();
                let base = if !kept.balls.is_empty() {
                    let mut base = 0;
                    for side in 0..kept.balls.len() {
                        let e = index.advance_ball(kept, side, members, max_edge_cost, &mut steps);
                        base = base.max(e);
                    }
                    steps.drained = kept
                        .balls
                        .iter()
                        .filter(|b| b.radius == unreachable)
                        .count();
                    base
                } else {
                    with_sssp_scratch(|scratch| {
                        base_gamma(g, &new_costs, config, members, unreachable, false, scratch).0
                    })
                };
                (mins, base, steps)
            })
            .collect();

        let nb = config.banks_per_cluster.max(1);
        let mut inter = DenseCost::filled(nc, nc, unreachable);
        let mut gammas = Vec::with_capacity(nc);
        let mut balls = BallSteps::default();
        for (c, (mins, base, steps)) in per_cluster.into_iter().enumerate() {
            // Rows the repair left unchanged reuse the previous state's
            // inter-cluster row verbatim.
            let prev_mins = prev.inter_cluster.row(c);
            write_inter_row(&mut inter, c, mins.as_deref().unwrap_or(prev_mins));
            gammas.push(bank_gammas(base, nb, unreachable));
            balls = balls + steps;
        }
        let unlock =
            |m: Mutex<Arc<KeptCluster>>| m.into_inner().unwrap_or_else(PoisonError::into_inner);

        OpGeometry {
            geom: GroundGeometry {
                edge_costs: new_costs,
                max_edge_cost,
                unreachable,
                per_bin: false,
                gammas,
                inter_cluster: inter,
            },
            clusters: slots.into_iter().map(unlock).collect(),
            sketch: None,
            balls,
        }
    }
}

/// The repairable geometry bundle of one state: both opinion geometries
/// plus the repair state (cluster rows, γ balls) they were derived from.
/// The delta-series unit of reuse — [`step`](Self::step) derives the next
/// state's bundle from this one. Cloning shares the repair state, so a
/// step on a clone leaves the original repairable.
#[derive(Clone)]
pub struct DeltaStateGeometry {
    pub(crate) pos: OpGeometry,
    pub(crate) neg: OpGeometry,
}

impl DeltaStateGeometry {
    /// Builds the bundle from scratch (both opinions in parallel).
    pub fn fresh(engine: &SndEngine<'_>, state: &NetworkState) -> DeltaStateGeometry {
        Self::fresh_keeping(engine, state, true)
    }

    /// [`fresh`](Self::fresh) that keeps the repair state only when
    /// `keep` — a series loop passes whether its next transition repairs.
    pub(crate) fn fresh_keeping(
        engine: &SndEngine<'_>,
        state: &NetworkState,
        keep: bool,
    ) -> DeltaStateGeometry {
        let (pos, neg) = rayon::join(
            || OpGeometry::fresh(engine, state, Opinion::Positive, keep),
            || OpGeometry::fresh(engine, state, Opinion::Negative, keep),
        );
        DeltaStateGeometry { pos, neg }
    }

    /// Derives the next state's bundle: touched-edge cost rederivation,
    /// then row and γ-ball repair — or a fresh rebuild past the fallback
    /// conditions (see the module docs). Exact either way.
    ///
    /// The repair state moves from `self` into the returned bundle and is
    /// repaired in place; `self` keeps its geometry, so it still prices,
    /// but a second step from it rebuilds fresh.
    pub fn step(
        &mut self,
        engine: &SndEngine<'_>,
        next: &NetworkState,
        delta: &StateDelta,
    ) -> DeltaStateGeometry {
        self.step_keeping(engine, next, delta, true)
    }

    /// [`step`](Self::step) that keeps the repair state in the returned
    /// bundle only when `keep` — a series loop passes whether its next
    /// transition repairs, so a run of fallbacks keeps nothing it never
    /// uses.
    pub(crate) fn step_keeping(
        &mut self,
        engine: &SndEngine<'_>,
        next: &NetworkState,
        delta: &StateDelta,
        keep: bool,
    ) -> DeltaStateGeometry {
        let g = engine.graph();
        let config = engine.config();
        let high_churn = high_churn(delta.touched_edges().len(), g.edge_count());

        let advance_op = |prev: &mut OpGeometry, op: Opinion| -> OpGeometry {
            let clusters = std::mem::take(&mut prev.clusters);
            let prev = &*prev;
            // Touched-edge cost sweep (exact, shared with the fresh path).
            let mut new_costs = prev.geom.edge_costs.clone();
            update_edge_costs(
                g,
                next,
                op,
                &config.ground,
                delta.touched_edges(),
                &mut new_costs,
            );
            if !prev.geom.per_bin && (high_churn || clusters.is_empty()) {
                drop(clusters);
                return OpGeometry::from_costs(engine, new_costs, keep);
            }
            let changes: Vec<CostChange> = delta
                .touched_edges()
                .iter()
                .filter(|&&e| new_costs[e as usize] != prev.geom.edge_costs[e as usize])
                .map(|&e| (e, prev.geom.edge_costs[e as usize]))
                .collect();
            let mut out = if !prev.geom.per_bin && !changes.is_empty() {
                let (clustering, geom) = (engine.clustering(), &prev.geom);
                OpGeometry::advanced(geom, clusters, g, clustering, config, new_costs, &changes)
            } else {
                // Per-bin banks (the costs are the geometry) or no cost
                // moved for this opinion: the cluster geometry carries
                // over. A live sketch bundle advances under the same
                // contract as cluster rows — Arc-share provable no-ops,
                // repair the rest, fresh rebuild past the churn threshold.
                let (max_edge_cost, unreachable) = (prev.geom.max_edge_cost, prev.geom.unreachable);
                let sketch = prev.sketch.as_ref().map(|s| {
                    if high_churn {
                        s.rebuilt(g, &new_costs, max_edge_cost, unreachable)
                    } else if changes.is_empty() {
                        crate::approx::record_sketch_step(0, s.live_count() * 2, 0);
                        s.clone()
                    } else {
                        s.advanced(g, &new_costs, &changes, unreachable)
                    }
                });
                OpGeometry {
                    geom: GroundGeometry {
                        edge_costs: new_costs,
                        max_edge_cost,
                        unreachable,
                        per_bin: prev.geom.per_bin,
                        gammas: prev.geom.gammas.clone(),
                        inter_cluster: prev.geom.inter_cluster.clone(),
                    },
                    clusters,
                    sketch,
                    balls: BallSteps::default(),
                }
            };
            if !keep {
                out.clusters = Vec::new();
            }
            out
        };

        let (pos, neg) = (&mut self.pos, &mut self.neg);
        let (pos, neg) = rayon::join(
            || advance_op(pos, Opinion::Positive),
            || advance_op(neg, Opinion::Negative),
        );
        DeltaStateGeometry { pos, neg }
    }

    /// How the step that produced this bundle advanced its γ balls.
    pub fn ball_steps(&self) -> BallSteps {
        self.pos.balls + self.neg.balls
    }

    /// Materializes the batch-path bundle for this state: both geometries
    /// (cloned) plus an empty shared row cache. Feeding these to
    /// [`SndEngine::breakdown_with`] prices transitions exactly as the
    /// batch path does. Live sketch bundles ride along (Arc-shared rows,
    /// so the clone is `O(L)`), keeping the approximate tile path on
    /// delta-repaired rows.
    pub fn bundle(&self, engine: &SndEngine<'_>) -> StateGeometry {
        StateGeometry::new(
            self.pos.geom.clone(),
            self.neg.geom.clone(),
            RowCache::new(engine.graph().node_count()),
        )
        .with_sketches(self.pos.sketch.clone(), self.neg.sketch.clone())
    }

    /// The live landmark-sketch bundle of one opinion plane, when this
    /// engine maintains one (per-bin banks + approx config + lossless
    /// clamp domain).
    pub fn sketch(&self, op: Opinion) -> Option<&SketchRows> {
        match op {
            Opinion::Positive => self.pos.sketch.as_ref(),
            _ => self.neg.sketch.as_ref(),
        }
    }

    /// Adaptive landmark placement: folds one term's refinement feedback
    /// (hot `gap × flow` cell representatives + per-landmark usefulness
    /// credit) into the `op` plane's sketch. Up to two hot nodes are
    /// promoted to landmarks per call (two SSSPs each over this plane's
    /// costs); past `max_landmarks` the least-recently-useful landmark is
    /// evicted — unless every landmark was useful this very snapshot, in
    /// which case the set is left alone rather than churned.
    pub(crate) fn adapt_sketch(
        &mut self,
        engine: &SndEngine<'_>,
        op: Opinion,
        feedback: &crate::approx::TermFeedback,
        max_landmarks: usize,
    ) {
        let plane = match op {
            Opinion::Positive => &mut self.pos,
            _ => &mut self.neg,
        };
        let Some(sketch) = plane.sketch.as_mut() else {
            return;
        };
        sketch.tick += 1;
        let tick = sketch.tick;
        // Feedback indices refer to the live pairs the term was priced
        // with; `note_useful` maps them back onto bundle slots.
        sketch.note_useful(&feedback.landmark_useful);
        // Promotion is gated on the envelope earning its keep (some
        // landmark bound a hot cell) and paced by [`PROMOTE_PERIOD`]:
        // when the pricing does not lean on the sketch, two SSSPs per
        // promotion buy rows nothing will read, and even a hot streak
        // only justifies moving placement one landmark at a time.
        let any_useful = feedback.landmark_useful.iter().any(|&u| u);
        let full = sketch.landmarks.len() >= max_landmarks.max(1);
        if full && (!any_useful || tick % PROMOTE_PERIOD != 0) {
            return;
        }
        let g = engine.graph();
        let n = g.node_count();
        let costs = &plane.geom.edge_costs;
        let max_edge_cost = plane.geom.max_edge_cost;
        let unreachable = plane.geom.unreachable;
        // Paced to one promotion per snapshot: each costs two SSSPs, and
        // a genuinely hot region stays hot long enough to be covered one
        // landmark at a time.
        let mut promoted = 0usize;
        for &v in &feedback.hot_nodes {
            if promoted >= 1 {
                break;
            }
            if sketch.landmarks.contains(&v) {
                continue;
            }
            if sketch.landmarks.len() >= max_landmarks.max(1) {
                let Some((evict, &least)) = sketch
                    .last_useful
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &lu)| (lu, i))
                else {
                    break;
                };
                if least >= tick {
                    break;
                }
                sketch.landmarks.swap_remove(evict);
                sketch.to.swap_remove(evict);
                sketch.from.swap_remove(evict);
                sketch.last_useful.swap_remove(evict);
                sketch.stale.swap_remove(evict);
            }
            let (to, from) = crate::approx::time_phase(crate::approx::PHASE_SKETCH_MAINT, || {
                with_sssp_scratch(|scratch| {
                    dial_reverse_scratch(g, costs, &[v], max_edge_cost, scratch);
                    let to = clamped_row(scratch, n, unreachable);
                    dial_scratch(g, costs, &[v], max_edge_cost, scratch);
                    let from = clamped_row(scratch, n, unreachable);
                    (to, from)
                })
            });
            sketch.landmarks.push(v);
            sketch.to.push(Arc::new(to));
            sketch.from.push(Arc::new(from));
            sketch.last_useful.push(tick);
            sketch.stale.push(false);
            promoted += 1;
        }
    }
}

/// The one snapshot-ordered bundle materializer behind every tile plan
/// (the matrix, series tiles and orchestrated leases included): state
/// `s`'s repairable geometry, derived from `head`, the last one built
/// (`(state, geometry)`). A state at most `max_gap` past the head is
/// reached by stepping the head through each non-empty [`StateDelta`];
/// any other state is built fresh. Either way the geometry is
/// bit-identical to a fresh build, and under an approximate tier it
/// carries the chain's live sketch rows. As in the series walker, a
/// geometry keeps its repair state only when the transition right after
/// it repairs: every later step from it passes through that transition.
pub(crate) fn chain_geometry(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    head: Option<(usize, DeltaStateGeometry)>,
    s: usize,
    max_gap: usize,
) -> DeltaStateGeometry {
    let g = engine.graph();
    let delta = |t: usize| StateDelta::between(g, &states[t - 1], &states[t]);
    let keeps = |t: usize| {
        let next = (t + 1 < states.len()).then(|| (t + 1, delta(t + 1)));
        keeps_repair_state(g, next.as_ref())
    };
    match head {
        Some((at, mut head)) if at < s && s - at <= max_gap => {
            for (t, next) in states.iter().enumerate().take(s + 1).skip(at + 1) {
                let step = delta(t);
                if !step.is_empty() {
                    head = head.step_keeping(engine, next, &step, keeps(t));
                }
            }
            head
        }
        _ => DeltaStateGeometry::fresh_keeping(engine, &states[s], keeps(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, GammaPolicy, SndConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd_graph::generators::barabasi_albert;

    fn random_series(n: usize, steps: usize, seed: u64) -> Vec<NetworkState> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut states = Vec::with_capacity(steps + 1);
        let first: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
        states.push(NetworkState::from_values(&first));
        for _ in 0..steps {
            let mut next = states.last().unwrap().clone();
            for _ in 0..1 + rng.gen_range(0..3) {
                let u = rng.gen_range(0..n as u32);
                next.set(u, Opinion::from_value(rng.gen_range(-1..=1)));
            }
            states.push(next);
        }
        states
    }

    fn configs() -> Vec<SndConfig> {
        vec![
            SndConfig::default(), // per-bin
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 3 },
                gamma: GammaPolicy::Eccentricity,
                ..Default::default()
            },
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 4 },
                gamma: GammaPolicy::Constant(5),
                banks_per_cluster: 2,
                ..Default::default()
            },
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 2 },
                gamma: GammaPolicy::HalfExactDiameter,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn fresh_geometry_matches_compute_geometry() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = barabasi_albert(40, 2, &mut rng);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let vals: Vec<i8> = (0..40).map(|_| rng.gen_range(-1..=1)).collect();
            let state = NetworkState::from_values(&vals);
            for op in [Opinion::Positive, Opinion::Negative] {
                let fresh = OpGeometry::fresh(&engine, &state, op, true);
                assert_eq!(fresh.geom, engine.geometry_seq(&state, op));
            }
        }
    }

    #[test]
    fn stepped_geometry_matches_fresh_geometry() {
        let mut rng = SmallRng::seed_from_u64(41);
        let g = barabasi_albert(36, 2, &mut rng);
        let states = random_series(36, 8, 7);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
            for t in 1..states.len() {
                let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
                cache = cache.step(&engine, &states[t], &delta);
                assert_eq!(
                    cache.pos.geom,
                    engine.geometry_seq(&states[t], Opinion::Positive),
                    "t={t}"
                );
                assert_eq!(
                    cache.neg.geom,
                    engine.geometry_seq(&states[t], Opinion::Negative),
                    "t={t}"
                );
            }
        }
    }

    #[test]
    fn delta_series_matches_seq_on_random_series() {
        let mut rng = SmallRng::seed_from_u64(23);
        let g = barabasi_albert(30, 2, &mut rng);
        let states = random_series(30, 6, 11);
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            let seq = engine.series_distances_seq(&states);
            assert_eq!(delta, seq, "bit-identical series");
        }
    }

    #[test]
    fn empty_delta_short_circuits_to_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = barabasi_albert(20, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        let a = NetworkState::from_values(&(0..20).map(|i| (i % 3) as i8 - 1).collect::<Vec<_>>());
        let mut b = a.clone();
        b.set(3, Opinion::Neutral);
        // a, a (identical), b, b, a — two static transitions inside.
        let states = vec![a.clone(), a.clone(), b.clone(), b, a];
        let delta = engine.series_distances(&states);
        assert_eq!(delta[0], 0.0);
        assert_eq!(delta[2], 0.0);
        assert_eq!(delta, engine.series_distances_seq(&states));
    }

    #[test]
    fn uniquely_owned_chain_repairs_rows_in_place() {
        // A step moves the repair state out of the previous bundle and
        // repairs it in place: on a chain nothing else shares, no cluster
        // row is copied, so every row keeps its buffer — while the
        // geometry stays bit-identical to a from-scratch build.
        let mut rng = SmallRng::seed_from_u64(77);
        let g = barabasi_albert(48, 2, &mut rng);
        let states = random_series(48, 10, 13);
        let config = SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 8 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        };
        let engine = SndEngine::new(&g, config);
        let rows = |b: &DeltaStateGeometry| -> Vec<(*const u32, Vec<u32>)> {
            let clusters = b.pos.clusters.iter().chain(&b.neg.clusters);
            clusters.map(|k| (k.row.as_ptr(), k.row.clone())).collect()
        };
        let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
        let (mut in_place, mut moved) = (0usize, 0usize);
        for t in 1..states.len() {
            let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
            let before = rows(&cache);
            let next = cache.step(&engine, &states[t], &delta);
            assert!(cache.pos.clusters.is_empty() && cache.neg.clusters.is_empty());
            if !high_churn(delta.touched_edges().len(), g.edge_count()) {
                let after = rows(&next);
                assert_eq!(after.len(), before.len(), "t={t}");
                for ((p0, r0), (p1, r1)) in before.iter().zip(&after) {
                    assert_eq!(p0, p1, "t={t}: a cluster row was copied");
                    moved += usize::from(r0 != r1);
                }
                in_place += 1;
            }
            for op in [Opinion::Positive, Opinion::Negative] {
                let geom = if op == Opinion::Positive {
                    &next.pos.geom
                } else {
                    &next.neg.geom
                };
                assert_eq!(*geom, engine.geometry_seq(&states[t], op), "t={t}");
            }
            cache = next;
        }
        assert!(in_place > 0, "no transition took the repair path");
        assert!(moved > 0, "no repaired row changed");
    }

    /// Draws an edge cost in `[0, max]`, zero two times in five.
    fn draw_cost(rng: &mut SmallRng, max: u32) -> u32 {
        if rng.gen_bool(0.4) {
            0
        } else {
            rng.gen_range(1..=max)
        }
    }

    /// One random change batch over `costs`: raises on shortest-path tree
    /// edges of some representative's forward row, decreases, and plain
    /// redraws. Returns the new costs and the exact change list.
    fn change_batch(
        g: &CsrGraph,
        clustering: &Clustering,
        costs: &[u32],
        max: u32,
        rng: &mut SmallRng,
    ) -> (Vec<u32>, Vec<CostChange>) {
        let mut new = costs.to_vec();
        let reps: Vec<NodeId> = clustering
            .clusters
            .iter()
            .filter_map(|c| c.first().copied())
            .collect();
        let rep = reps[rng.gen_range(0..reps.len())];
        let row = snd_graph::dial(g, costs, &[rep], max);
        let tree: Vec<usize> = (0..g.edge_count())
            .filter(|&e| {
                let (u, v) = (g.edge_source(e as u32), g.edge_target(e as u32));
                let du = row[u as usize];
                du != snd_graph::UNREACHABLE && du + costs[e] as u64 == row[v as usize]
            })
            .collect();
        for _ in 0..rng.gen_range(0..4) {
            if let Some(&e) = tree.get(rng.gen_range(0..tree.len().max(1))) {
                if costs[e] < max {
                    new[e] = rng.gen_range(costs[e] + 1..=max);
                }
            }
        }
        for _ in 0..rng.gen_range(0..3) {
            let e = rng.gen_range(0..g.edge_count());
            if costs[e] > 0 {
                new[e] = rng.gen_range(0..costs[e]);
            }
        }
        for _ in 0..rng.gen_range(0..2) {
            let e = rng.gen_range(0..g.edge_count());
            new[e] = draw_cost(rng, max);
        }
        let changes = (0..g.edge_count())
            .filter(|&e| new[e] != costs[e])
            .map(|e| (e as u32, costs[e]))
            .collect();
        (new, changes)
    }

    #[test]
    fn repaired_gamma_balls_match_the_full_row_oracle() {
        // Directed sparse graphs: some members are unreachable from their
        // representative (drained balls). Nodes 0 and 1 are singletons,
        // one cluster has no members. Every cost is at most U, far below
        // the sentinel, so reachability itself is topological; what
        // crosses a ball's radius both ways is distance: decreases pull
        // nodes in, tree-edge raises push them out (a member pushed out
        // forces a rerun).
        let mut rng = SmallRng::seed_from_u64(2017);
        let mut seen = BallSteps::default();
        for trial in 0..40 {
            let n = 10 + trial % 30;
            let g = snd_graph::generators::erdos_renyi_gnp(n, 0.15, false, &mut rng);
            if g.edge_count() == 0 {
                continue;
            }
            let config = SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 4 },
                gamma: GammaPolicy::Eccentricity,
                ..Default::default()
            };
            let max = config.ground.max_edge_cost();
            let labels: Vec<u32> = (0..n as u32)
                .map(|v| if v < 2 { 10 + v } else { rng.gen_range(0..4) })
                .collect();
            let mut clustering = Clustering::from_labels(&labels);
            clustering.clusters.push(Vec::new());
            let mut costs: Vec<u32> = (0..g.edge_count())
                .map(|_| draw_cost(&mut rng, max))
                .collect();
            let (geom, kept) = build_geometry(&g, &clustering, costs.clone(), &config, true, true);
            assert!(geom.is_lossless(n));
            let mut op = OpGeometry {
                geom,
                clusters: kept.into_iter().map(Arc::new).collect(),
                sketch: None,
                balls: BallSteps::default(),
            };
            for step in 0..8 {
                let (new_costs, changes) = change_batch(&g, &clustering, &costs, max, &mut rng);
                if changes.is_empty() {
                    continue;
                }
                let clusters = std::mem::take(&mut op.clusters);
                let next = OpGeometry::advanced(
                    &op.geom,
                    clusters,
                    &g,
                    &clustering,
                    &config,
                    new_costs.clone(),
                    &changes,
                );
                costs = new_costs;
                let inf = next.geom.unreachable;
                let what = format!("trial {trial}, step {step}");
                for (c, kept) in next.clusters.iter().enumerate() {
                    let members = clustering.members(c as u32);
                    let expect = crate::banks::tests::full_row_gamma(
                        &g,
                        &costs,
                        max,
                        members,
                        GammaPolicy::Eccentricity,
                        inf,
                    );
                    assert_eq!(
                        next.geom.gammas[c][0],
                        expect.min(inf),
                        "{what}, cluster {c}"
                    );
                    // Each ball holds exactly the nodes below its radius,
                    // at their exact distances.
                    for (side, ball) in kept.balls.iter().enumerate() {
                        let rep = [members[0]];
                        let full = if side == 1 {
                            snd_graph::dial_reverse(&g, &costs, &rep, max)
                        } else {
                            snd_graph::dial(&g, &costs, &rep, max)
                        };
                        let mut got = ball.nodes.clone();
                        got.sort_unstable();
                        let want: Vec<(NodeId, u32)> = (0..n as NodeId)
                            .map(|v| (v, full[v as usize].min(inf as u64) as u32))
                            .filter(|&(_, d)| d < ball.radius)
                            .collect();
                        assert_eq!(got, want, "{what}, cluster {c}, side {side}");
                    }
                }
                seen = seen + next.balls;
                op = next;
            }
        }
        assert!(seen.carried > 0, "no ball was carried: {seen:?}");
        assert!(seen.repaired > 0, "no ball was repaired: {seen:?}");
        assert!(seen.rerun > 0, "no member ever left its ball: {seen:?}");
        assert!(seen.drained > 0, "no run drained: {seen:?}");
    }

    #[test]
    fn high_churn_falls_back_and_stays_exact() {
        let mut rng = SmallRng::seed_from_u64(15);
        let g = barabasi_albert(24, 2, &mut rng);
        // Flip nearly every node every step: far past the repair
        // threshold.
        let mut states = Vec::new();
        states.push(NetworkState::from_values(
            &(0..24).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
        ));
        for _ in 0..4 {
            states.push(NetworkState::from_values(
                &(0..24).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>(),
            ));
        }
        for config in configs() {
            let engine = SndEngine::new(&g, config);
            let delta = engine.series_distances(&states);
            assert_eq!(delta, engine.series_distances_seq(&states));
        }
    }
}
