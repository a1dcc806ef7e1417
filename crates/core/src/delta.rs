//! Delta-aware series evaluation: row repair between consecutive
//! snapshots.
//!
//! The series workloads (anomaly detection over `d(G_t, G_{t+1})`,
//! prediction, the paper's Fig. 10–12) price *consecutive* snapshots of
//! one evolving network. A simulation step flips a handful of opinions,
//! yet a fresh build re-derives each state's ground geometry — per
//! opinion: an `O(m)` edge-cost sweep, plus (in cluster-bank mode) the γ
//! policy's member-bounded runs — from scratch. A series builds fresh
//! geometry only for its first state and past the fallback conditions
//! below, through the one γ builder `banks::build_geometry`, which keeps
//! each cluster's repair state. This module owns what happens between
//! snapshots — repair:
//!
//! 1. **Edge costs** ([`snd_models::StateDelta`]): only the touched edges
//!    (incident to flipped nodes, plus receiver-side aggregate spill for
//!    activity flips) are re-derived, bit-identical to the full sweep.
//! 2. **γ** ([`DeltaStateGeometry`]): under `Eccentricity` γ each cluster
//!    keeps the *balls* of its two member-bounded γ runs
//!    (`banks::base_gamma`: the nodes a run settled, their exact
//!    distances and the run's radius) and repairs them with
//!    [`snd_graph::repair_row`], re-running a bounded Dial only when a
//!    member leaves its ball; `HalfExactDiameter` re-runs its bounded
//!    Dials at every step. Repaired γ is bit-identical to
//!    [`compute_geometry`](crate::banks::compute_geometry)'s because
//!    shortest-path distances are unique. The geometries of this module
//!    carry γ only: their `inter_cluster` matrix is empty, and the
//!    inter-cluster rows a term reads are keys of its ground state's row
//!    cache, computed or repaired along the snapshot order with the user
//!    rows (see [`crate::batch`]).
//! 3. **Transitions** ([`SndEngine::series_distances`],
//!    [`SndEngine::series_intervals`]): both are the superdiagonal
//!    [`ShardPlan`](crate::ShardPlan) at tile edge 1, run through the one
//!    tile loop. Its bundles come from `chain_geometry` below, so each
//!    state's geometry is stepped from the previous one, and
//!    [`StateGeometry`] shares that geometry (`Arc`) instead of copying
//!    it. The SSSP rows the terms read, landmark rows of an approximate
//!    tier included, are repaired along the snapshot order by the batch
//!    path's row groups (see [`crate::batch`]). A pair of identical
//!    consecutive states prices to zero. The plan keeps at most **two**
//!    bundles live at any point, which `tests/series_memory.rs` checks.
//!
//! A step advances the repair state **in place**: it moves the γ balls
//! out of the previous bundle, which keeps only its [`GroundGeometry`]
//! for pricing, so each ball exists once and a uniquely owned chain
//! copies none of them. The state is `Arc`-shared per cluster, so a clone
//! of a bundle (the candidate evaluator's patch) stays repairable and a
//! step on the clone copies only the clusters a change reaches. The
//! bundle chain looks one transition ahead and keeps repair state only
//! for a bundle whose next transition repairs.
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
//! cluster geometry at all; its delta win is the touched-edge cost sweep
//! and the empty-delta shortcut.
//!
//! Everything here is property-tested bit-identical to
//! [`series_distances_seq`](crate::SndEngine::series_distances_seq)
//! across every registry scenario (`tests/delta_series.rs`).

use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

use rayon::prelude::*;
use snd_graph::{repair_row, Clustering, CostChange, CsrGraph, NodeId};
use snd_models::{edge_costs, update_edge_costs, NetworkState, Opinion, StateDelta};
use snd_transport::DenseCost;

use crate::banks::{bank_gammas, base_gamma, build_geometry, ecc_run, GroundGeometry, KeptCluster};
use crate::config::SndConfig;
use crate::engine::{SndEngine, StateGeometry};
use crate::sparse::{with_repair_scratch, with_sssp_scratch, RowCache};

/// Fallback knob: the repair path engages only when touched edges are at
/// most `edge_count / REPAIR_EDGE_FRACTION` — beyond that the affected
/// region rivals the graph and a fresh rebuild is cheaper.
pub const REPAIR_EDGE_FRACTION: usize = 4;

/// Whether a transition touching `touched` of the graph's `m` edges is
/// past the repair threshold and rebuilds fresh.
pub(crate) fn high_churn(touched: usize, m: usize) -> bool {
    touched * REPAIR_EDGE_FRACTION > m
}

thread_local! {
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
/// Its geometry carries γ only (`inter_cluster` is empty). The repair
/// state is `Arc`-shared per cluster: a step *moves* it out of
/// the previous bundle and repairs it in place ([`Arc::make_mut`] on a
/// uniquely owned cluster copies nothing), while the previous bundle
/// keeps its [`GroundGeometry`] for pricing. A clone (the candidate
/// evaluator's patch) shares every cluster, and a step on it copies only
/// the clusters a change reaches. The geometry itself is `Arc`-shared
/// with the [`StateGeometry`] bundles built from it.
#[derive(Clone)]
pub(crate) struct OpGeometry {
    pub(crate) geom: Arc<GroundGeometry>,
    /// Per-cluster repair state, the γ balls (empty when not kept:
    /// per-bin mode, a lossy clamp domain, a build whose next transition
    /// falls back, or a bundle a step already advanced).
    clusters: Vec<Arc<KeptCluster>>,
    /// γ-ball outcomes of the step that produced this geometry.
    balls: BallSteps,
}

/// One transition's exact change batch, indexed in relaxation terms:
/// `(tail, head, old, new)` per change, endpoints precomputed once in
/// forward orientation. [`fires`](ChangeIndex::fires) tells in
/// `O(|changes|)`, without touching the row, whether a batch can move a
/// γ ball at all, so a ball the batch cannot reach skips its repair
/// outright.
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
            with_repair_scratch(|scratch| {
                let (costs, changes) = (self.new_costs, self.changes);
                let rep = &members[..1];
                repair_row(g, costs, changes, rep, reverse, r, row, scratch);
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
    #[cfg(test)]
    fn fresh(engine: &SndEngine<'_>, state: &NetworkState, op: Opinion, keep: bool) -> OpGeometry {
        let costs = edge_costs(engine.graph(), state, op, &engine.config().ground);
        Self::from_costs(engine, costs, keep)
    }

    /// Builds the geometry from already-derived edge costs through the
    /// one fresh builder, keeping its repair state (when `keep` and
    /// repairable) as shared per-cluster state.
    fn from_costs(engine: &SndEngine<'_>, costs: Vec<u32>, keep: bool) -> OpGeometry {
        let (geom, kept) = build_geometry(
            engine.graph(),
            engine.clustering(),
            costs,
            engine.config(),
            true,
            keep,
        );
        OpGeometry {
            geom: Arc::new(geom),
            clusters: kept.into_iter().map(Arc::new).collect(),
            balls: BallSteps::default(),
        }
    }

    /// Advances `clusters` — the repair state `prev` was built with, moved
    /// out of it — to the next state: repairs each γ ball in place with
    /// the actually-changed edge costs, and recomputes γ from bounded runs
    /// where no ball is kept. Caller guarantees `changes` is exact (see
    /// [`DeltaStateGeometry::step`]) and that `clusters` is not empty.
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

        // Index the batch once; each ball then answers "can any change
        // touch me?" in O(|changes|) instead of repairing just to find
        // out.
        let index = ChangeIndex::new(g, changes, &new_costs, unreachable);
        // The rayon stand-in lends items only by shared reference; a
        // per-cluster lock (never contended) hands each worker its own
        // cluster mutably.
        let slots: Vec<Mutex<Arc<KeptCluster>>> = clusters.into_iter().map(Mutex::new).collect();
        // Per cluster: base γ and the γ-ball outcomes.
        let per_cluster: Vec<(u32, BallSteps)> = (0..nc)
            .into_par_iter()
            .map(|c| {
                let members = clustering.members(c as u32);
                let mut slot = slots[c].lock().unwrap_or_else(PoisonError::into_inner);
                let kept: &mut Arc<KeptCluster> = &mut slot;
                let mut steps = BallSteps::default();
                if kept.balls.is_empty() {
                    let base = with_sssp_scratch(|scratch| {
                        base_gamma(g, &new_costs, config, members, unreachable, false, scratch).0
                    });
                    return (base, steps);
                }
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
                (base, steps)
            })
            .collect();

        let nb = config.banks_per_cluster.max(1);
        let mut balls = BallSteps::default();
        let gammas = per_cluster
            .into_iter()
            .map(|(base, steps)| {
                balls = balls + steps;
                bank_gammas(base, nb, unreachable)
            })
            .collect();
        let unlock =
            |m: Mutex<Arc<KeptCluster>>| m.into_inner().unwrap_or_else(PoisonError::into_inner);

        OpGeometry {
            geom: Arc::new(GroundGeometry {
                edge_costs: new_costs,
                max_edge_cost,
                unreachable,
                per_bin: false,
                gammas,
                inter_cluster: DenseCost::filled(0, 0, 0),
            }),
            clusters: slots.into_iter().map(unlock).collect(),
            balls,
        }
    }
}

/// The repairable geometry bundle of one state: both opinion geometries
/// (γ only, no inter-cluster rows) plus the repair state (γ balls) they
/// were derived from.
/// The delta-series unit of reuse — [`step`](Self::step) derives the next
/// state's bundle from this one. Cloning shares the repair state, so a
/// step on a clone leaves the original repairable.
#[derive(Clone)]
pub struct DeltaStateGeometry {
    pub(crate) pos: OpGeometry,
    pub(crate) neg: OpGeometry,
}

impl DeltaStateGeometry {
    /// Builds the bundle from scratch: both opinions' cost sweeps in
    /// parallel, then one opinion's γ after the other, each fanned out
    /// over the whole pool.
    pub fn fresh(engine: &SndEngine<'_>, state: &NetworkState) -> DeltaStateGeometry {
        Self::fresh_keeping(engine, state, true)
    }

    /// [`fresh`](Self::fresh) that keeps the repair state only when
    /// `keep` — the bundle chain passes whether its next transition
    /// repairs.
    pub(crate) fn fresh_keeping(
        engine: &SndEngine<'_>,
        state: &NetworkState,
        keep: bool,
    ) -> DeltaStateGeometry {
        let costs = |op| edge_costs(engine.graph(), state, op, &engine.config().ground);
        let (pos, neg) = rayon::join(|| costs(Opinion::Positive), || costs(Opinion::Negative));
        // γ one opinion at a time, as in `step_keeping`.
        DeltaStateGeometry {
            pos: OpGeometry::from_costs(engine, pos, keep),
            neg: OpGeometry::from_costs(engine, neg, keep),
        }
    }

    /// Derives the next state's bundle: touched-edge cost rederivation,
    /// then γ-ball repair — or a fresh rebuild past the fallback
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
    /// bundle only when `keep` — the bundle chain passes whether its next
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
                // moved for this opinion: γ carries over.
                OpGeometry {
                    geom: Arc::new(GroundGeometry {
                        edge_costs: new_costs,
                        max_edge_cost: prev.geom.max_edge_cost,
                        unreachable: prev.geom.unreachable,
                        per_bin: prev.geom.per_bin,
                        gammas: prev.geom.gammas.clone(),
                        inter_cluster: DenseCost::filled(0, 0, 0),
                    }),
                    clusters,
                    balls: BallSteps::default(),
                }
            };
            if !keep {
                out.clusters = Vec::new();
            }
            out
        };

        // The opinions take turns, each fanning its clusters out over the
        // whole pool. Joined, each would run its clusters on one thread
        // (the pool lends a nested call's items only to threads that are
        // idle in the pool, and a thread waiting on a join is not), so
        // the step would last as long as the slower opinion on the
        // slower core.
        let pos = advance_op(&mut self.pos, Opinion::Positive);
        let neg = advance_op(&mut self.neg, Opinion::Negative);
        DeltaStateGeometry { pos, neg }
    }

    /// How the step that produced this bundle advanced its γ balls.
    pub fn ball_steps(&self) -> BallSteps {
        self.pos.balls + self.neg.balls
    }

    /// Materializes the batch-path bundle for this state: both geometries
    /// (shared, not copied) plus an empty shared row cache, which also
    /// takes the inter-cluster rows its terms read. Feeding these to
    /// [`SndEngine::breakdown_with`] prices transitions exactly as the
    /// batch path does.
    pub fn bundle(&self, engine: &SndEngine<'_>) -> StateGeometry {
        self.bundle_with(RowCache::new(engine.graph().node_count()))
    }

    /// [`bundle`](Self::bundle) around the given empty row cache.
    pub(crate) fn bundle_with(&self, cache: RowCache) -> StateGeometry {
        StateGeometry::shared(
            Arc::clone(&self.pos.geom),
            Arc::clone(&self.neg.geom),
            cache,
        )
    }
}

/// The one snapshot-ordered bundle materializer behind every tile plan
/// (the matrix, series tiles and orchestrated leases included): state
/// `s`'s repairable geometry, derived from `head`, the last one built
/// (`(state, geometry)`). A state at most `max_gap` past the head is
/// reached by stepping the head through each non-empty [`StateDelta`];
/// any other state is built fresh. Either way the geometry is
/// bit-identical to a fresh build. A geometry keeps its repair state only
/// when the transition right after it repairs: every later step from it
/// passes through that transition.
pub(crate) fn chain_geometry(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    head: Option<(usize, DeltaStateGeometry)>,
    s: usize,
    max_gap: usize,
) -> DeltaStateGeometry {
    let g = engine.graph();
    let delta = |t: usize| StateDelta::between(g, &states[t - 1], &states[t]);
    // Only when the next transition repairs instead of falling back, so a
    // run of fallbacks keeps no rows or balls it never uses.
    let keeps = |t: usize| {
        t + 1 < states.len() && !high_churn(delta(t + 1).touched_edges().len(), g.edge_count())
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

    /// The eager reference geometry as the bundle chain carries it: γ
    /// only, its `inter_cluster` matrix empty.
    fn gamma_only(mut geom: GroundGeometry) -> GroundGeometry {
        geom.inter_cluster = DenseCost::filled(0, 0, 0);
        geom
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
                assert_eq!(*fresh.geom, gamma_only(engine.geometry_seq(&state, op)));
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
                for (geom, op) in [
                    (&cache.pos.geom, Opinion::Positive),
                    (&cache.neg.geom, Opinion::Negative),
                ] {
                    let want = gamma_only(engine.geometry_seq(&states[t], op));
                    assert_eq!(**geom, want, "t={t}");
                }
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
    fn uniquely_owned_chain_repairs_balls_in_place() {
        // A step moves the repair state out of the previous bundle and
        // repairs it in place: on a chain nothing else shares, no
        // cluster's state is copied, so every cluster keeps its
        // allocation — while γ stays bit-identical to a from-scratch
        // build.
        let mut rng = SmallRng::seed_from_u64(77);
        let g = barabasi_albert(48, 2, &mut rng);
        let states = random_series(48, 10, 13);
        let config = SndConfig {
            clusters: ClusterSpec::BfsPartition { clusters: 8 },
            gamma: GammaPolicy::Eccentricity,
            ..Default::default()
        };
        let engine = SndEngine::new(&g, config);
        let kept = |b: &DeltaStateGeometry| -> Vec<*const KeptCluster> {
            let clusters = b.pos.clusters.iter().chain(&b.neg.clusters);
            clusters.map(Arc::as_ptr).collect()
        };
        let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
        let (mut in_place, mut moved) = (0usize, 0usize);
        for t in 1..states.len() {
            let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
            let before = kept(&cache);
            let next = cache.step(&engine, &states[t], &delta);
            assert!(cache.pos.clusters.is_empty() && cache.neg.clusters.is_empty());
            if !high_churn(delta.touched_edges().len(), g.edge_count()) {
                let after = kept(&next);
                assert_eq!(after.len(), before.len(), "t={t}");
                for (p0, p1) in before.iter().zip(&after) {
                    assert_eq!(p0, p1, "t={t}: a cluster's balls were copied");
                }
                moved += next.ball_steps().repaired + next.ball_steps().rerun;
                in_place += 1;
            }
            for (geom, op) in [
                (&next.pos.geom, Opinion::Positive),
                (&next.neg.geom, Opinion::Negative),
            ] {
                assert!(
                    geom.inter_cluster.rows() == 0,
                    "t={t}: a chain geometry kept rows"
                );
                assert_eq!(
                    **geom,
                    gamma_only(engine.geometry_seq(&states[t], op)),
                    "t={t}"
                );
            }
            cache = next;
        }
        assert!(in_place > 0, "no transition took the repair path");
        assert!(moved > 0, "no ball moved");
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
                geom: Arc::new(geom),
                clusters: kept.into_iter().map(Arc::new).collect(),
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
