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
//! `banks::build_geometry`, which keeps the per-cluster rows it can
//! repair. This module owns what happens between snapshots — row repair:
//!
//! 1. **Edge costs** ([`snd_models::StateDelta`]): only the touched edges
//!    (incident to flipped nodes, plus receiver-side aggregate spill for
//!    activity flips) are re-derived, bit-identical to the full sweep.
//! 2. **Cluster geometry** ([`DeltaStateGeometry`]): the kept per-cluster
//!    SSSP rows (sources = the cluster's members — *static* across
//!    snapshots) are repaired with [`snd_graph::repair_row`] instead of
//!    recomputed; a cluster whose row the repair reports unchanged
//!    reuses its previous inter-cluster row verbatim. γ keeps no rows: it
//!    is recomputed at every step from the same member-bounded runs the
//!    fresh builder uses (`banks::base_gamma`), which settle only until
//!    every member of the cluster is settled. Repaired geometry is
//!    bit-identical to
//!    [`compute_geometry`](crate::banks::compute_geometry) because
//!    shortest-path distances are unique. Landmark sketch rows
//!    ([`SketchRows`], approximate tier) are repaired the same way.
//! 3. **Transitions** ([`SndEngine::series_distances`]): identical
//!    consecutive states (empty delta) short-circuit to
//!    [`SndBreakdown::default`](crate::SndBreakdown); otherwise the four
//!    EMD\* terms are evaluated exactly as the batch path would, over the
//!    incrementally-derived geometries. At most **two** geometry bundles
//!    are live at any point (asserted by `tests/series_memory.rs`).
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rayon::prelude::*;
use snd_graph::{
    dial_reverse_scratch, dial_scratch, repair_row, CostChange, CsrGraph, NodeId, RepairScratch,
};
use snd_models::{edge_costs, update_edge_costs, NetworkState, Opinion, StateDelta};
use snd_transport::DenseCost;

use crate::banks::{
    bank_gammas, base_gamma, build_geometry, clamped_row, min_reduce, write_inter_row,
    GroundGeometry,
};
use crate::engine::{SndEngine, StateGeometry};
use crate::sparse::{with_sssp_scratch, RowCache};

/// Fallback knob: the repair path engages only when touched edges are at
/// most `edge_count / REPAIR_EDGE_FRACTION` — beyond that the affected
/// region rivals the graph and a fresh rebuild is cheaper.
pub const REPAIR_EDGE_FRACTION: usize = 4;

thread_local! {
    static REPAIR_SCRATCH: RefCell<RepairScratch> = RefCell::new(RepairScratch::new());
}

/// Process-wide generation counter for cached SSSP rows. Every freshly
/// computed or repaired row content gets a new generation; a reused row
/// carries its previous generation forward. The reuse invariant — equal
/// generations imply the same `Arc` (and therefore identical contents) —
/// is what makes the `O(1)` carry-over in [`OpGeometry::advanced`] sound,
/// and it only holds because this bump is atomic across the per-cluster
/// parallel fan-out.
static ROW_GEN: AtomicU64 = AtomicU64::new(0);

/// Issues a generation no live row has carried before (never 0, so 0 can
/// mean "untagged" in scratch states).
fn next_row_gen() -> u64 {
    ROW_GEN.fetch_add(1, Ordering::Relaxed) + 1
}

/// The cached, repairable geometry of one `(state, opinion)` pair.
///
/// Rows are `Arc`-shared: a cluster whose rows a transition provably
/// cannot perturb (see [`ChangeIndex`]) carries its previous rows into
/// the next bundle as an `O(1)` reference bump instead of an `O(n)` copy.
pub(crate) struct OpGeometry {
    pub(crate) geom: GroundGeometry,
    /// Per-cluster clamped multi-source SSSP row (empty when rows are not
    /// cached: per-bin mode or a lossy clamp domain).
    cluster_rows: Vec<Arc<Vec<u32>>>,
    /// Generation tag per cached row, parallel to `cluster_rows`. Repair
    /// issues a fresh tag from [`ROW_GEN`]; reuse carries the tag forward,
    /// so equal tags across bundles always mean the same `Arc`.
    row_gens: Vec<u64>,
    /// Approximate-tier landmark rows (per-bin mode with an approx config
    /// and a lossless clamp domain only), repaired across steps like the
    /// cluster rows above.
    pub(crate) sketch: Option<SketchRows>,
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
                        let fires_to = index.fires(t, true);
                        let fires_from = index.fires(f, false);
                        let fired = usize::from(fires_to) + usize::from(fires_from);
                        if fired > 0 && !want[i] {
                            return (Arc::clone(t), Arc::clone(f), 0, 0, true);
                        }
                        let t = if fires_to {
                            index.repair(t, &[l], true).0
                        } else {
                            Arc::clone(t)
                        };
                        let f = if fires_from {
                            index.repair(f, &[l], false).0
                        } else {
                            Arc::clone(f)
                        };
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
/// forward orientation. High-cluster-count configs previously paid an
/// `O(n)` row clone plus a [`repair_row`] invocation per cluster per
/// transition just to *discover* that the batch was a no-op for that
/// cluster; [`fires`](ChangeIndex::fires) discovers it in `O(|changes|)`
/// without touching the row, so unchanged rows are shared outright.
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

    /// Whether any change in the batch can perturb `dist` (a clamped row
    /// in the direction given by `reverse`). `false` guarantees
    /// [`repair_row`] would report zero moved nodes and leave the row
    /// bit-identical, because these are exactly its trigger conditions:
    /// a *decrease* does work only when it strictly improves its head
    /// from the current tail distance, an *increase* only when the edge
    /// supported its head's distance (`dist[tail] + old == dist[head]`).
    /// With no trigger, the repair's affected set and settle heap both
    /// stay empty and the row is untouched.
    fn fires(&self, dist: &[u32], reverse: bool) -> bool {
        let inf = self.unreachable;
        self.entries.iter().any(|&(s, t, old, new)| {
            let (tail, head) = if reverse { (t, s) } else { (s, t) };
            let dt = dist[tail as usize];
            if dt == inf {
                return false; // nothing propagates through an unreachable tail
            }
            let dh = dist[head as usize];
            if new < old {
                dt.saturating_add(new) < dh
            } else {
                dh != inf && dt.saturating_add(old) == dh
            }
        })
    }

    /// Carries `prev` — the clamped row of an SSSP from `sources`, in the
    /// direction given by `reverse` — across the batch: the same `Arc`
    /// when no change [`fires`](Self::fires), else a repaired copy.
    /// Returns the row and the number of nodes whose distance moved.
    fn advance(
        &self,
        prev: &Arc<Vec<u32>>,
        sources: &[NodeId],
        reverse: bool,
    ) -> (Arc<Vec<u32>>, usize) {
        if self.fires(prev, reverse) {
            self.repair(prev, sources, reverse)
        } else {
            (Arc::clone(prev), 0)
        }
    }

    /// A [`repair_row`]ed copy of `prev` and its moved-node count.
    fn repair(&self, prev: &[u32], sources: &[NodeId], reverse: bool) -> (Arc<Vec<u32>>, usize) {
        REPAIR_SCRATCH.with(|cell| {
            let mut row = prev.to_vec();
            let moved = repair_row(
                self.g,
                self.new_costs,
                self.changes,
                sources,
                reverse,
                self.unreachable,
                &mut row,
                &mut cell.borrow_mut(),
            );
            (Arc::new(row), moved)
        })
    }
}

impl OpGeometry {
    /// Builds the geometry from scratch, retaining the SSSP rows for
    /// later repair. Bit-identical to
    /// [`compute_geometry`](crate::banks::compute_geometry).
    fn fresh(engine: &SndEngine<'_>, state: &NetworkState, op: Opinion) -> OpGeometry {
        let costs = edge_costs(engine.graph(), state, op, &engine.config().ground);
        Self::from_costs(engine, costs)
    }

    /// Builds the geometry from already-derived edge costs through the
    /// one fresh builder, keeping its rows (when repairable) as shared,
    /// generation-tagged rows. Approximate-tier engines in per-bin mode
    /// get a live sketch bundle alongside the costs — only in a lossless
    /// clamp domain, the repair precondition (otherwise the approx path
    /// falls back to cache fetches, still certified).
    fn from_costs(engine: &SndEngine<'_>, costs: Vec<u32>) -> OpGeometry {
        let g = engine.graph();
        let (geom, rows) =
            build_geometry(g, engine.clustering(), costs, engine.config(), true, true);
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
            row_gens: rows.iter().map(|_| next_row_gen()).collect(),
            cluster_rows: rows.into_iter().map(Arc::new).collect(),
            geom,
            sketch,
        }
    }

    /// Advances to the next state by repairing the cached rows with the
    /// actually-changed edge costs, and recomputing every cluster's γ
    /// from member-bounded runs over `new_costs`. Caller guarantees
    /// `changes` is exact (see [`DeltaStateGeometry::step`]) and that rows
    /// are cached.
    fn advanced(
        &self,
        engine: &SndEngine<'_>,
        new_costs: Vec<u32>,
        changes: &[CostChange],
    ) -> OpGeometry {
        let g = engine.graph();
        let config = engine.config();
        let clustering = engine.clustering();
        let nc = clustering.cluster_count();
        let unreachable = self.geom.unreachable;
        debug_assert!(!self.geom.per_bin && self.cluster_rows.len() == nc);

        struct ClusterOut {
            row: Arc<Vec<u32>>,
            /// Generation of `row`: fresh on repair, carried over on reuse.
            gen: u64,
            mins: Option<Vec<u32>>, // None: unchanged, reuse previous
            base: u32,
        }
        // Index the batch once; each cluster then answers "can any change
        // touch my row?" in O(|changes|) instead of cloning and repairing
        // just to find out.
        let index = ChangeIndex::new(g, changes, &new_costs, unreachable);
        let per_cluster: Vec<ClusterOut> = (0..nc)
            .into_par_iter()
            .map(|c| {
                let members = clustering.members(c as u32);
                let prev = &self.cluster_rows[c];
                let (row, moved) = index.advance(prev, members, false);
                // A provable no-op shares the previous row (O(1)), its
                // generation carried forward with it.
                let gen = if Arc::ptr_eq(&row, prev) {
                    self.row_gens[c]
                } else {
                    next_row_gen()
                };
                let mins =
                    (moved > 0).then(|| min_reduce(row.iter().copied(), clustering, unreachable));
                let base = with_sssp_scratch(|scratch| {
                    base_gamma(g, &new_costs, config, members, unreachable, scratch)
                });
                ClusterOut {
                    row,
                    gen,
                    mins,
                    base,
                }
            })
            .collect();

        let nb = config.banks_per_cluster.max(1);
        let mut inter = DenseCost::filled(nc, nc, unreachable);
        let mut gammas = Vec::with_capacity(nc);
        let mut cluster_rows = Vec::with_capacity(nc);
        let mut row_gens = Vec::with_capacity(nc);
        for (c, out) in per_cluster.into_iter().enumerate() {
            // The soundness of O(1) reuse, stated as a check: a carried
            // generation must mean a carried Arc. Repaired rows got a fresh
            // atomic bump, so a collision here means the bump was lost.
            debug_assert!(
                out.gen != self.row_gens[c] || Arc::ptr_eq(&out.row, &self.cluster_rows[c]),
                "cluster {c}: repaired row reuses generation {} — stale-row hazard",
                out.gen
            );
            // Rows untouched by the repair reuse the previous state's
            // inter-cluster row verbatim.
            let prev = self.geom.inter_cluster.row(c);
            write_inter_row(&mut inter, c, out.mins.as_deref().unwrap_or(prev));
            gammas.push(bank_gammas(out.base, nb, unreachable));
            cluster_rows.push(out.row);
            row_gens.push(out.gen);
        }

        OpGeometry {
            geom: GroundGeometry {
                edge_costs: new_costs,
                max_edge_cost: self.geom.max_edge_cost,
                unreachable,
                per_bin: false,
                gammas,
                inter_cluster: inter,
            },
            cluster_rows,
            row_gens,
            sketch: None,
        }
    }
}

/// The repairable geometry bundle of one state: both opinion geometries
/// plus the cached SSSP rows they were derived from. The delta-series
/// unit of reuse — [`step`](Self::step) derives the next state's bundle
/// from this one.
pub struct DeltaStateGeometry {
    pub(crate) pos: OpGeometry,
    pub(crate) neg: OpGeometry,
}

impl DeltaStateGeometry {
    /// Builds the bundle from scratch (both opinions in parallel).
    pub fn fresh(engine: &SndEngine<'_>, state: &NetworkState) -> DeltaStateGeometry {
        let (pos, neg) = rayon::join(
            || OpGeometry::fresh(engine, state, Opinion::Positive),
            || OpGeometry::fresh(engine, state, Opinion::Negative),
        );
        DeltaStateGeometry { pos, neg }
    }

    /// Derives the next state's bundle: touched-edge cost rederivation,
    /// then row repair — or a fresh rebuild past the fallback conditions
    /// (see the module docs). Exact either way.
    pub fn step(
        &self,
        engine: &SndEngine<'_>,
        next: &NetworkState,
        delta: &StateDelta,
    ) -> DeltaStateGeometry {
        let g = engine.graph();
        let m = g.edge_count();
        let config = engine.config();
        let high_churn = delta.touched_edges().len() * REPAIR_EDGE_FRACTION > m;

        let advance_op = |prev: &OpGeometry, op: Opinion| -> OpGeometry {
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
            if !prev.geom.per_bin && (high_churn || prev.cluster_rows.is_empty()) {
                return OpGeometry::from_costs(engine, new_costs);
            }
            let changes: Vec<CostChange> = delta
                .touched_edges()
                .iter()
                .filter(|&&e| new_costs[e as usize] != prev.geom.edge_costs[e as usize])
                .map(|&e| (e, prev.geom.edge_costs[e as usize]))
                .collect();
            if !prev.geom.per_bin && !changes.is_empty() {
                return prev.advanced(engine, new_costs, &changes);
            }
            // Per-bin banks (the costs are the geometry) or no cost moved
            // for this opinion: the cluster geometry carries over. A live
            // sketch bundle advances under the same contract as cluster
            // rows — Arc-share provable no-ops, repair the rest, fresh
            // rebuild past the churn threshold.
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
                cluster_rows: prev.cluster_rows.clone(),
                row_gens: prev.row_gens.clone(),
                sketch,
            }
        };

        let (pos, neg) = rayon::join(
            || advance_op(&self.pos, Opinion::Positive),
            || advance_op(&self.neg, Opinion::Negative),
        );
        DeltaStateGeometry { pos, neg }
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
                let fresh = OpGeometry::fresh(&engine, &state, op);
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
    fn untouched_clusters_share_rows_instead_of_recloning() {
        // Across a low-churn series, clusters whose rows a transition
        // provably cannot perturb must carry the *same* allocation into
        // the next bundle (Arc identity), not a fresh copy — while the
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
        let mut cache = DeltaStateGeometry::fresh(&engine, &states[0]);
        let mut shared = 0usize;
        let mut total = 0usize;
        for t in 1..states.len() {
            let delta = StateDelta::between(&g, &states[t - 1], &states[t]);
            let next = cache.step(&engine, &states[t], &delta);
            for (a, b) in cache.pos.cluster_rows.iter().zip(&next.pos.cluster_rows) {
                total += 1;
                if std::sync::Arc::ptr_eq(a, b) {
                    shared += 1;
                }
            }
            assert_eq!(
                next.pos.geom,
                engine.geometry_seq(&states[t], Opinion::Positive),
                "t={t}"
            );
            cache = next;
        }
        assert!(
            shared > 0,
            "no cluster row was ever shared across {total} cluster-steps"
        );
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
