//! The approximate geometry tier: landmark sketches, opinion-community
//! coarsening, and ε-bounded progressive refinement.
//!
//! The exact sparse path ([`crate::sparse`]) prices one EMD\* term with one
//! SSSP per heavy-side residual user. On million-node graphs with
//! thousands of residual users that is thousands of Dial runs per term —
//! the wall the ROADMAP's scale item names. This tier replaces the
//! per-row SSSPs with a *certified interval*:
//!
//! 1. **Landmark sketches** — `L` landmarks (degree + farthest-point mix,
//!    [`snd_graph::select_landmarks`]) contribute `2·L` SSSP rows per
//!    `(ground state, opinion, term)`; triangle-inequality envelopes
//!    ([`snd_graph::LandmarkSketch`]) then bound any pairwise ground
//!    distance without further SSSPs. Landmark rows live in the same
//!    [`RowCache`] planes as the exact path's rows, so series and batch
//!    workloads share them across comparisons.
//! 2. **Opinion-community coarsening** — residual users (all holding the
//!    term's opinion on one side) are contracted by a topology-only
//!    quotient partition ([`snd_graph::bfs_partition`]); the reduced
//!    transportation problem is priced on the quotient with per-cell
//!    `[lower, upper]` ground-cost bounds from the group-level sketch.
//!    Solving the coarse problem twice — once per envelope — yields
//!    certified bounds on the exact term: the lower solve is dominated by
//!    the projection of the exact optimal plan, the upper solve dominates
//!    a proportional disaggregation of its own plan (both directions of
//!    the standard coarsening sandwich, since the transportation optimum
//!    is monotone in the cost matrix).
//! 3. **Progressive refinement** — while the interval is wider than the
//!    caller's ε, a batch of the worst boundary clusters (largest
//!    `cell gap × flow` over both optimal plans) is split and the
//!    quotient re-priced; cell bounds are maintained incrementally, so a
//!    round costs two coarse solves plus only the split groups' cells.
//!    Row groups refined down to singletons escalate to *bounded-radius
//!    SSSP balls* ([`snd_graph::dial_bounded_scratch`]): the ball prices
//!    the row's nearby consumers exactly and its radius floors everything
//!    it never reached — precisely the cells an optimal plan avoids —
//!    at a fraction of a full Dial run. Balls that stay too small
//!    escalate to the full exact row, so at full refinement the interval
//!    collapses to the exact value — ε = 0 terminates with the exact
//!    sparse answer (property-tested in `tests/approx_bounds.rs`).
//!
//! Tiny reduced problems (residual rows ≤ 2·L, where sketching would cost
//! more SSSPs than exactness) short-circuit to the exact sparse path and
//! return a zero-width interval.
//!
//! The tier supports the default [`ClusterSpec::PerBin`] bank mode only;
//! cluster-bank modes report [`ApproxError::UnsupportedBankMode`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use snd_graph::{
    bfs_partition, quotient_graph, select_landmarks, Clustering, CsrGraph, GroupAggregate,
    LandmarkSketch, NodeId,
};
use snd_models::{NetworkState, Opinion};
use snd_transport::{solve_balanced, DenseCost, Mass, TransportPlan};

use snd_graph::{dial_bounded_scratch, Dist};

use crate::banks::GroundGeometry;
use crate::config::{ClusterSpec, SndConfig};
use crate::delta::SketchRows;
use crate::sparse::{self, with_sssp_scratch, RowCache};

/// Configuration of the approximate tier (attached to
/// [`SndConfig::approx`](crate::SndConfig)).
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxConfig {
    /// Per-term relative gap target: refinement stops once
    /// `upper − lower ≤ ε · upper` for every EMD\* term, which bounds the
    /// relative error of the midpoint estimate by ε. `0.0` refines all the
    /// way to the exact value.
    pub epsilon: f64,
    /// Landmarks per sketch (`2·max_landmarks` SSSPs per ground
    /// state/opinion/direction). More landmarks tighten the envelopes.
    pub max_landmarks: usize,
    /// Maximum refinement rounds per term; each round solves the coarse
    /// problem twice and splits a batch of the worst boundary clusters.
    /// On exhaustion the current (still certified) interval is returned
    /// even if wider than ε.
    pub budget: usize,
    /// `Solver::Auto`-style routing threshold for the scalar surfaces
    /// ([`distance`](crate::SndEngine::distance), series, tiles): graphs
    /// with fewer nodes stay on the exact path, larger ones enter the
    /// sketch tier. Interval queries
    /// ([`distance_interval`](crate::SndEngine::distance_interval)) ignore
    /// this and always run the approximate machinery.
    ///
    /// The default is the crossover the `scale_approx` bench measured on
    /// one thread: 0.84–0.90× of exact below 5·10⁴ nodes, 2.9× at 5·10⁴.
    /// Its two-thread record, `BENCH_scale_approx.json`, moves the
    /// crossover down: 1.01× at 2·10³, 1.42× at 10⁴, 4.1× at 5·10⁴ and
    /// 6.3× at 10⁵. The default is unchanged until it is retuned.
    pub min_nodes: usize,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            epsilon: 0.05,
            max_landmarks: 8,
            budget: usize::MAX,
            min_nodes: 50_000,
        }
    }
}

impl ApproxConfig {
    /// Validates the configuration: ε must be a finite value ≥ 0 and at
    /// least one landmark is required.
    pub fn validate(&self) -> Result<(), ApproxError> {
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(ApproxError::InvalidEpsilon(self.epsilon));
        }
        if self.max_landmarks == 0 {
            return Err(ApproxError::NoLandmarks);
        }
        Ok(())
    }
}

/// Structured errors of the approximate tier.
#[derive(Clone, Debug, PartialEq)]
pub enum ApproxError {
    /// ε was NaN, infinite, or negative.
    InvalidEpsilon(f64),
    /// `max_landmarks` was zero.
    NoLandmarks,
    /// The engine's bank mode is not [`ClusterSpec::PerBin`] — cluster
    /// banks price mismatch against precomputed cluster geometry the
    /// sketch does not bound.
    UnsupportedBankMode(String),
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::InvalidEpsilon(e) => {
                write!(f, "approx epsilon must be finite and >= 0, got {e}")
            }
            ApproxError::NoLandmarks => write!(f, "approx needs at least one landmark"),
            ApproxError::UnsupportedBankMode(mode) => write!(
                f,
                "the approximate tier requires per-bin banks (ClusterSpec::PerBin), got {mode}"
            ),
        }
    }
}

impl std::error::Error for ApproxError {}

/// A certified interval around an SND value (or one EMD\* term):
/// `lower ≤ exact ≤ upper` always holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SndInterval {
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
}

impl SndInterval {
    /// The midpoint estimate (what the scalar surfaces report).
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Interval width `upper − lower`.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether `value` lies inside the interval (inclusive, with a tiny
    /// float tolerance on both ends).
    pub fn contains(&self, value: f64) -> bool {
        let tol = 1e-9 * (1.0 + self.upper.abs());
        self.lower - tol <= value && value <= self.upper + tol
    }
}

/// Initial quotient granularity: residual users are contracted into at
/// most this many topology communities before refinement, regardless of
/// graph size — the envelope transportation solves stay bounded even at
/// n ≥ 10⁷ because seeding always happens on the coarsest level.
const QUOTIENT_CLUSTERS: usize = 64;

/// Branching factor between adjacent quotient levels: each coarse cluster
/// is the union of about this many clusters of the next finer level, so a
/// refinement split replaces one group by a bounded handful of children.
const QUOTIENT_FANOUT: usize = 8;

/// Target member count of the finest level's clusters. Depth grows (up to
/// [`MAX_QUOTIENT_LEVELS`]) until the expected finest cluster size drops
/// to this, so splits stay topology-aware almost down to singletons.
const QUOTIENT_LEAF: usize = 256;

/// Hierarchy depth cap: 64·8⁵ ≈ 2·10⁶ finest clusters cover n ≈ 5·10⁸ at
/// [`QUOTIENT_LEAF`] granularity — beyond any graph this engine prices.
const MAX_QUOTIENT_LEVELS: usize = 6;

/// First-ball stop budget for bounded row materialization, as a multiple
/// of the row's own mass: the ball grows until it has settled this much
/// nearby consumer capacity (escalations quadruple it). Enough slack that
/// an optimal plan can usually route the row's mass inside the ball even
/// when neighboring rows compete for the same consumers.
const BALL_CAPACITY_FACTOR: u64 = 8;

/// Residual sides at most this large start refinement at singleton
/// granularity instead of on the quotient — the coarse rounds only pay
/// for themselves when contraction actually shrinks the problem.
const SINGLETON_INIT_MAX: usize = 1024;

/// Topology-only sketch context, computed once per engine: the landmark
/// node set and the recursive quotient hierarchy. Distance rows are per
/// ground state and live in that state's [`RowCache`] (or ride a
/// delta-repaired [`SketchRows`] bundle on the series path).
#[derive(Debug)]
pub(crate) struct ApproxCtx {
    pub(crate) landmarks: Vec<NodeId>,
    /// Nested quotient hierarchy, coarsest first: every cluster of
    /// `levels[d]` is a union of clusters of `levels[d + 1]` (built by
    /// [`bfs_partition`] on the [`quotient_graph`] of the finer level and
    /// composing labels). Seeding contracts by `levels[0]`; refinement
    /// splits descend the hierarchy before falling back to positional
    /// halves past the finest level.
    pub(crate) levels: Vec<Clustering>,
}

impl ApproxCtx {
    /// The coarsest level — the seeding quotient.
    pub(crate) fn quotient(&self) -> &Clustering {
        &self.levels[0]
    }
}

pub(crate) fn build_ctx(g: &CsrGraph, approx: &ApproxConfig) -> ApproxCtx {
    ApproxCtx {
        landmarks: select_landmarks(g, approx.max_landmarks.max(1)),
        levels: build_levels(g),
    }
}

/// Builds the nested quotient hierarchy: a finest [`bfs_partition`] sized
/// by [`QUOTIENT_LEAF`], then repeated [`quotient_graph`] + coarsening
/// with composed labels until the top level fits [`QUOTIENT_CLUSTERS`].
fn build_levels(g: &CsrGraph) -> Vec<Clustering> {
    let n = g.node_count().max(1);
    let mut fine = QUOTIENT_CLUSTERS;
    let mut depth = 1;
    while n.div_ceil(fine) > QUOTIENT_LEAF && depth < MAX_QUOTIENT_LEVELS {
        fine *= QUOTIENT_FANOUT;
        depth += 1;
    }
    let mut levels = vec![bfs_partition(g, fine.min(n))];
    loop {
        let composed = {
            let finer = &levels[levels.len() - 1];
            if finer.cluster_count() <= QUOTIENT_CLUSTERS {
                break;
            }
            let q = quotient_graph(g, finer);
            let target = (finer.cluster_count() / QUOTIENT_FANOUT).max(QUOTIENT_CLUSTERS);
            let coarse_of = bfs_partition(&q, target);
            let labels: Vec<u32> = finer
                .labels
                .iter()
                .map(|&l| coarse_of.labels[l as usize])
                .collect();
            let c = Clustering::from_labels(&labels);
            if c.cluster_count() >= finer.cluster_count() {
                // A heavily disconnected quotient can refuse to contract
                // (bfs_partition may exceed its target by one cluster per
                // component); keep the certified machinery with a shallower
                // hierarchy rather than loop.
                break;
            }
            c
        };
        levels.push(composed);
    }
    levels.reverse();
    levels
}

/// Returns the bank-mode name for [`ApproxError::UnsupportedBankMode`],
/// or `None` when the mode is supported.
pub(crate) fn unsupported_bank_mode(config: &SndConfig) -> Option<String> {
    match config.clusters {
        ClusterSpec::PerBin => None,
        ClusterSpec::BfsPartition { .. } => Some("BfsPartition".into()),
        ClusterSpec::LabelPropagation { .. } => Some("LabelPropagation".into()),
        ClusterSpec::Explicit(_) => Some("Explicit".into()),
        ClusterSpec::Single => Some("Single".into()),
    }
}

/// Whether `SND_APPROX_TRACE` diagnostics are on.
pub(crate) fn trace_enabled() -> bool {
    std::env::var_os("SND_APPROX_TRACE").is_some()
}

/// Process-global aggregate counters behind `SND_APPROX_TRACE`: per-term
/// lines show individual refinements, this accumulates the run-level
/// story (how many terms, how deep the escalation ladder went, how the
/// sketch bundle was maintained) and is drained once per run by
/// [`emit_trace_summary`].
struct TraceStats {
    terms: AtomicUsize,
    tiny_exact: AtomicUsize,
    rounds: AtomicUsize,
    /// Deepest escalation per term: sketch-only / Dial ball / reball /
    /// full exact row.
    ladder: [AtomicUsize; 4],
    sketch_repaired: AtomicUsize,
    sketch_reused: AtomicUsize,
    sketch_stale: AtomicUsize,
    sketch_rebuilt: AtomicUsize,
    /// Final relative gap per term: 0 / ≤1% / ≤5% / ≤20% / >20%.
    gap_hist: [AtomicUsize; 5],
    /// Wall-clock nanoseconds per cost phase (see the `PHASE_*` slots).
    phase_ns: [AtomicU64; 5],
}

/// [`TraceStats::phase_ns`] slots: sketch build/repair (delta bundles),
/// landmark row SSSPs (sketchless fetches), bounded Dial balls,
/// envelope transportation solves, and exact singleton rows.
pub(crate) const PHASE_SKETCH_MAINT: usize = 0;
pub(crate) const PHASE_LANDMARK_ROWS: usize = 1;
pub(crate) const PHASE_BALLS: usize = 2;
pub(crate) const PHASE_SOLVES: usize = 3;
pub(crate) const PHASE_EXACT_ROWS: usize = 4;

/// Runs `f`, charging its wall time to `phase` when tracing is on.
pub(crate) fn time_phase<T>(phase: usize, f: impl FnOnce() -> T) -> T {
    if !trace_enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    TRACE_STATS.phase_ns[phase].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

static TRACE_STATS: TraceStats = TraceStats {
    terms: AtomicUsize::new(0),
    tiny_exact: AtomicUsize::new(0),
    rounds: AtomicUsize::new(0),
    ladder: [
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ],
    sketch_repaired: AtomicUsize::new(0),
    sketch_reused: AtomicUsize::new(0),
    sketch_stale: AtomicUsize::new(0),
    sketch_rebuilt: AtomicUsize::new(0),
    gap_hist: [
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    ],
    phase_ns: [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ],
};

/// Records one priced term's ladder depth, round count, and final gap.
fn record_term(rounds: usize, balls: usize, reballs: usize, exacts: usize, lo: f64, hi: f64) {
    if !trace_enabled() {
        return;
    }
    TRACE_STATS.terms.fetch_add(1, Ordering::Relaxed);
    TRACE_STATS.rounds.fetch_add(rounds, Ordering::Relaxed);
    let rung = if exacts > 0 {
        3
    } else if reballs > 0 {
        2
    } else if balls > 0 {
        1
    } else {
        0
    };
    TRACE_STATS.ladder[rung].fetch_add(1, Ordering::Relaxed);
    let rel = if hi > 0.0 { (hi - lo) / hi } else { 0.0 };
    let bucket = if rel <= 0.0 {
        0
    } else if rel <= 0.01 {
        1
    } else if rel <= 0.05 {
        2
    } else if rel <= 0.2 {
        3
    } else {
        4
    };
    TRACE_STATS.gap_hist[bucket].fetch_add(1, Ordering::Relaxed);
}

/// Records how a delta step maintained the 2·L sketch rows of one plane:
/// rows repaired through the change batch, rows provably untouched and
/// `Arc`-shared, and rows the feedback-driven policy left stale (parked
/// outside the envelope instead of paying a repair).
pub(crate) fn record_sketch_step(repaired: usize, reused: usize, stale: usize) {
    if !trace_enabled() {
        return;
    }
    TRACE_STATS
        .sketch_repaired
        .fetch_add(repaired, Ordering::Relaxed);
    TRACE_STATS
        .sketch_reused
        .fetch_add(reused, Ordering::Relaxed);
    TRACE_STATS.sketch_stale.fetch_add(stale, Ordering::Relaxed);
}

/// Records a fresh sketch build (initial bundle or high-churn fallback).
pub(crate) fn record_sketch_rebuild(rows: usize) {
    if !trace_enabled() {
        return;
    }
    TRACE_STATS
        .sketch_rebuilt
        .fetch_add(rows, Ordering::Relaxed);
}

/// Emits (and resets) the per-run aggregate summary. The interval
/// surfaces call this once per run, so a series prints one block instead
/// of only the per-term lines.
pub(crate) fn emit_trace_summary(context: &str) {
    if !trace_enabled() {
        return;
    }
    let take = |a: &AtomicUsize| a.swap(0, Ordering::Relaxed);
    let terms = take(&TRACE_STATS.terms);
    let tiny = take(&TRACE_STATS.tiny_exact);
    let rounds = take(&TRACE_STATS.rounds);
    let ladder: Vec<usize> = TRACE_STATS.ladder.iter().map(take).collect();
    let repaired = take(&TRACE_STATS.sketch_repaired);
    let reused = take(&TRACE_STATS.sketch_reused);
    let stale = take(&TRACE_STATS.sketch_stale);
    let rebuilt = take(&TRACE_STATS.sketch_rebuilt);
    let gaps: Vec<usize> = TRACE_STATS.gap_hist.iter().map(take).collect();
    let ms: Vec<f64> = TRACE_STATS
        .phase_ns
        .iter()
        .map(|a| a.swap(0, Ordering::Relaxed) as f64 / 1e6)
        .collect();
    eprintln!(
        "approx-summary [{context}]: terms={terms} (+{tiny} tiny-exact) \
         refinement_rounds={rounds} ladder[sketch/ball/reball/exact]={}/{}/{}/{} \
         sketch_rows[repaired/reused/stale/rebuilt]={repaired}/{reused}/{stale}/{rebuilt} \
         gap_hist[0,\u{2264}1%,\u{2264}5%,\u{2264}20%,>20%]={}/{}/{}/{}/{} \
         phase_ms[sketch/rows/balls/solves/exact]={:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
        ladder[0],
        ladder[1],
        ladder[2],
        ladder[3],
        gaps[0],
        gaps[1],
        gaps[2],
        gaps[3],
        gaps[4],
        ms[0],
        ms[1],
        ms[2],
        ms[3],
        ms[4],
    );
}

/// Adaptive-placement feedback out of one term: representatives of the
/// worst `gap × flow` cells at convergence (hot spots the sketch should
/// cover next) plus per-landmark usefulness credit (was the landmark the
/// binding envelope of a hot cell). Indices in `landmark_useful` follow
/// the landmark order the term was priced with.
pub(crate) struct TermFeedback {
    pub(crate) hot_nodes: Vec<NodeId>,
    pub(crate) landmark_useful: Vec<bool>,
}

impl TermFeedback {
    fn empty() -> TermFeedback {
        TermFeedback {
            hot_nodes: Vec::new(),
            landmark_useful: Vec::new(),
        }
    }
}

/// One priced term: the certified interval plus adaptive feedback.
pub(crate) struct TermOutcome {
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) feedback: TermFeedback,
}

impl TermOutcome {
    fn exact(v: f64) -> TermOutcome {
        TermOutcome {
            lower: v,
            upper: v,
            feedback: TermFeedback::empty(),
        }
    }
}

/// How many of the worst cells feed [`TermFeedback`].
const FEEDBACK_CELLS: usize = 8;

/// How precisely a (singleton) row group's ground distances are known.
/// Refinement escalates rows along `Sketch → Partial → … → Full` — each
/// step is taken only while the row's cells still gate the interval.
enum RowDists<'c> {
    /// Landmark envelopes only (the default for every group).
    Sketch,
    /// Bounded-radius SSSP ball: `vals[t]` is the distance for the term's
    /// `t`-th column member (see `target_ids` in
    /// [`emd_star_term_interval`]) — exact where `vals[t] < radius`, else a
    /// tentative *upper* bound with the true distance `≥ radius`. The
    /// `capacity` is the stop threshold the ball was grown with,
    /// quadrupled on each escalation.
    Partial {
        vals: Vec<Dist>,
        radius: Dist,
        capacity: u64,
    },
    /// Full clamped SSSP row from the shared cache — the same row the
    /// exact path would compute. Collapses cells against singleton
    /// columns to zero width.
    Full(&'c [u32]),
}

/// One coarse supplier/consumer: a contracted set of residual users (or
/// per-bin bank bins, offset by γ). A singleton *row* group may lazily
/// materialize its SSSP row — a bounded ball first, the full row as
/// refinement's last resort — when its cells cannot be split further.
struct Group<'c> {
    members: Vec<NodeId>,
    masses: Vec<Mass>,
    gamma: u32,
    agg: GroupAggregate,
    dists: RowDists<'c>,
    /// Quotient-hierarchy level this group is a (subset of a) cluster of;
    /// `levels.len()` means "finer than the finest level" — further
    /// splits fall back to positional halves.
    level: usize,
}

impl<'c> Group<'c> {
    fn mass(&self) -> Mass {
        self.masses.iter().sum()
    }
}

/// Certified `[lower, upper]` for one EMD\* term
/// `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))` under per-bin banks. Mirrors
/// [`sparse::emd_star_term`]'s reduction, orientation, and bank
/// construction exactly; only the per-pair ground distances are replaced
/// by sketch envelopes that refinement tightens until
/// `upper − lower ≤ ε · upper` (or the round budget runs out).
///
/// `sketch_rows` supplies prebuilt (delta-repaired) landmark rows; when
/// absent the rows are fetched through the ground state's shared
/// [`RowCache`] (2·L SSSPs on first use). Both sources are bit-identical
/// rows, so the interval does not depend on which one priced it.
#[allow(clippy::too_many_arguments)] // mirrors the exact term signature plus the approx knobs
pub(crate) fn emd_star_term_interval<'c>(
    g: &CsrGraph,
    clustering: &Clustering,
    ctx: &ApproxCtx,
    geom: &'c GroundGeometry,
    p_state: &NetworkState,
    q_state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
    approx: &ApproxConfig,
    cache: &'c RowCache,
    sketch_rows: Option<&'c SketchRows>,
) -> TermOutcome {
    let n = g.node_count();
    assert!(geom.per_bin, "the approximate tier requires per-bin banks");
    assert_eq!(p_state.len(), n, "state size mismatch");
    assert_eq!(q_state.len(), n, "state size mismatch");
    let scale = config.scale;

    // Lemma 2 classification — identical to the exact sparse path.
    let mut residual_p: Vec<NodeId> = Vec::new();
    let mut residual_q: Vec<NodeId> = Vec::new();
    let mut active_p: Vec<NodeId> = Vec::new();
    let mut active_q: Vec<NodeId> = Vec::new();
    for u in 0..n as NodeId {
        let in_p = p_state.opinion(u) == op;
        let in_q = q_state.opinion(u) == op;
        if in_p {
            active_p.push(u);
        }
        if in_q {
            active_q.push(u);
        }
        if in_p && !in_q {
            residual_p.push(u);
        } else if in_q && !in_p {
            residual_q.push(u);
        }
    }
    let total_p = active_p.len() as u64 * scale;
    let total_q = active_q.len() as u64 * scale;
    if total_p == 0 && total_q == 0 {
        return TermOutcome::exact(0.0);
    }
    let delta = total_p.abs_diff(total_q);
    let p_is_lighter = total_p < total_q;

    // Per-bin banks on the lighter side — same bins and capacities as the
    // exact path (including the uniform fallback for an empty lighter
    // histogram).
    let (bank_bins, bank_caps): (Vec<NodeId>, Vec<Mass>) = if delta == 0 {
        (Vec::new(), Vec::new())
    } else {
        let bins = if p_is_lighter { &active_p } else { &active_q };
        if bins.is_empty() {
            let all: Vec<NodeId> = (0..n as NodeId).collect();
            let caps = snd_emd::proportional_split(delta, &vec![1; n]);
            (all, caps)
        } else {
            let masses = vec![scale; bins.len()];
            (bins.clone(), snd_emd::proportional_split(delta, &masses))
        }
    };

    let (row_nodes, col_nodes, reverse) = if !p_is_lighter {
        (residual_p, residual_q, false)
    } else {
        (residual_q, residual_p, true)
    };
    if row_nodes.is_empty() {
        debug_assert!(col_nodes.is_empty() && delta == 0);
        return TermOutcome::exact(0.0);
    }

    // Tiny reduced problems: exact rows cost fewer SSSPs than the sketch
    // would — answer exactly (zero-width interval). The threshold follows
    // the landmark set that would actually price this term (the bundle's
    // live adapted set when present).
    let n_landmarks = sketch_rows
        .map_or(ctx.landmarks.len(), SketchRows::live_count)
        .max(1);
    if row_nodes.len() <= 2 * n_landmarks {
        let v = sparse::emd_star_term(
            g,
            clustering,
            geom,
            p_state,
            q_state,
            op,
            config,
            Some(cache),
        );
        if trace_enabled() {
            TRACE_STATS.tiny_exact.fetch_add(1, Ordering::Relaxed);
        }
        return TermOutcome::exact(v);
    }

    // Landmark rows: a delta-repaired bundle when the series path carries
    // one, else 2·L SSSPs shared with the exact path through the ground
    // state's row cache. Either source yields bit-identical rows.
    let inf = geom.unreachable;
    let sketch = match sketch_rows {
        Some(rows) => rows.sketch(inf),
        None => time_phase(PHASE_LANDMARK_ROWS, || {
            LandmarkSketch::new(
                ctx.landmarks
                    .iter()
                    .map(|&l| cache.get_or_compute(g, geom, op, true, l))
                    .collect(),
                ctx.landmarks
                    .iter()
                    .map(|&l| cache.get_or_compute(g, geom, op, false, l))
                    .collect(),
                inf,
            )
        }),
    };

    // Exact SSSP row of a singleton row group — the same row the exact
    // path would compute, fetched lazily through the shared cache.
    let singleton_fetches = std::cell::Cell::new(0usize);
    let partial_fetches = std::cell::Cell::new(0usize);
    let reball_fetches = std::cell::Cell::new(0usize);
    let fetch_exact = |node: NodeId| {
        singleton_fetches.set(singleton_fetches.get() + 1);
        time_phase(PHASE_EXACT_ROWS, || {
            cache.get_or_compute(g, geom, op, reverse, node)
        })
    };
    let finest = ctx.levels.len();
    let make_group = |members: Vec<NodeId>, masses: Vec<Mass>, gamma: u32, level: usize| {
        debug_assert_eq!(members.len(), masses.len());
        Group {
            agg: sketch.aggregate(&members),
            members,
            masses,
            gamma,
            dists: RowDists::Sketch,
            level,
        }
    };

    // Opinion-community coarsening: contract each side by the coarsest
    // quotient level (bank bins grouped separately — their γ offset
    // differs). The solve dimensions start bounded by the level's cluster
    // count no matter how large the graph is.
    let partition = |items: &[NodeId], masses: Option<&[Mass]>| -> Vec<(Vec<NodeId>, Vec<Mass>)> {
        let quotient = ctx.quotient();
        let nc = quotient.cluster_count();
        let mut buckets: Vec<(Vec<NodeId>, Vec<Mass>)> = vec![(Vec::new(), Vec::new()); nc];
        for (i, &v) in items.iter().enumerate() {
            let c = quotient.labels[v as usize] as usize;
            buckets[c].0.push(v);
            buckets[c].1.push(masses.map_or(scale, |m| m[i]));
        }
        buckets.retain(|(m, _)| !m.is_empty());
        buckets
    };
    // Small residual sides skip the coarse rounds entirely: starting at
    // singleton granularity costs one full-size solve per round but saves
    // the split-only rounds whose solves refinement would pay anyway. The
    // (potentially huge) bank side always starts on the quotient.
    let seed_groups = |nodes: &[NodeId]| -> Vec<Group> {
        if nodes.len() <= SINGLETON_INIT_MAX {
            nodes
                .iter()
                .map(|&v| make_group(vec![v], vec![scale], 0, finest))
                .collect()
        } else {
            partition(nodes, None)
                .into_iter()
                .map(|(m, ms)| make_group(m, ms, 0, 0))
                .collect()
        }
    };
    let mut rows: Vec<Group> = seed_groups(&row_nodes);
    let mut cols: Vec<Group> = seed_groups(&col_nodes);
    cols.extend(
        partition(&bank_bins, Some(&bank_caps))
            .into_iter()
            .map(|(m, ms)| make_group(m, ms, config.per_bin_gamma, 0)),
    );

    // Column-member table for bounded materialization: every node a row
    // could ever ship to, its total transportation mass (a residual col
    // node on the lighter side is also a bank bin — the masses add), and
    // its slot in a partial row's `vals`. Columns only split after this
    // point, so the member set is fixed for the term's lifetime.
    let mut target_pos: Vec<u32> = vec![u32::MAX; n];
    let mut target_ids: Vec<NodeId> = Vec::new();
    let mut target_weight: Vec<u64> = vec![0; n];
    for c in &cols {
        for (&y, &m) in c.members.iter().zip(&c.masses) {
            if target_pos[y as usize] == u32::MAX {
                target_pos[y as usize] = target_ids.len() as u32;
                target_ids.push(y);
            }
            target_weight[y as usize] += m;
        }
    }
    let (target_pos, target_ids, target_weight) = (target_pos, target_ids, target_weight);
    let total_demand: u64 = cols.iter().map(Group::mass).sum();
    let partial_fetch = |node: NodeId, capacity: u64| -> RowDists<'c> {
        partial_fetches.set(partial_fetches.get() + 1);
        time_phase(PHASE_BALLS, || {
            with_sssp_scratch(|scratch| {
                let radius = dial_bounded_scratch(
                    g,
                    &geom.edge_costs,
                    &[node],
                    geom.max_edge_cost,
                    reverse,
                    &target_weight,
                    capacity,
                    scratch,
                );
                let vals = target_ids.iter().map(|&t| scratch.dist(t)).collect();
                RowDists::Partial {
                    vals,
                    radius,
                    capacity,
                }
            })
        })
    };

    // Cell bounds: row min/max when the row group is refined to a
    // singleton — exact from a full row, or ball-exact with the radius
    // flooring every member the ball never reached — and sketch envelopes
    // otherwise. The γ bank offset is added saturating, exactly like the
    // exact path's `row[u] + γ`.
    let cell_bounds = |a: &Group, b: &Group| -> (u32, u32) {
        let sketch_pair = || {
            if reverse {
                // Transposed orientation: cost(row r, col c) = d̂(c → r).
                (
                    sketch.group_lower(&b.agg, &a.agg),
                    sketch.group_upper(&b.agg, &a.agg),
                )
            } else {
                (
                    sketch.group_lower(&a.agg, &b.agg),
                    sketch.group_upper(&a.agg, &b.agg),
                )
            }
        };
        let (lo, hi) = match &a.dists {
            RowDists::Full(row) => {
                let (mut mn, mut mx) = (u32::MAX, 0u32);
                for &y in &b.members {
                    let d = row[y as usize];
                    mn = mn.min(d);
                    mx = mx.max(d);
                }
                (mn, mx)
            }
            RowDists::Partial { vals, radius, .. } => {
                // Settled members are exact. An unreached member costs at
                // least the ball radius (the bounded Dial's certificate)
                // and at most its tentative path, both intersected with
                // the landmark envelope.
                let (slo, shi) = sketch_pair();
                let floor = geom.clamp(*radius).max(slo);
                let (mut mn, mut mx) = (u32::MAX, 0u32);
                let mut open = false;
                for &y in &b.members {
                    let v = vals[target_pos[y as usize] as usize];
                    if v < *radius {
                        let d = geom.clamp(v);
                        mn = mn.min(d);
                        mx = mx.max(d);
                    } else {
                        open = true;
                        mx = mx.max(geom.clamp(v).min(shi));
                    }
                }
                if open {
                    mn = mn.min(floor);
                }
                (mn, mx)
            }
            RowDists::Sketch => sketch_pair(),
        };
        (lo.saturating_add(b.gamma), hi.saturating_add(b.gamma))
    };

    // Incrementally maintained cell bounds: `bounds[i][j]` caches
    // `cell_bounds(rows[i], cols[j])`. Bank groups can hold a large slice
    // of the active histogram, so recomputing the full matrix every round
    // would cost O(rows × Σ|members|) per round — instead a split
    // recomputes only its two replacement rows (or one column pair),
    // mirroring the `swap_remove` + 2×`push` layout of the group vectors.
    let mut bounds: Vec<Vec<(u32, u32)>> = rows
        .iter()
        .map(|a| cols.iter().map(|b| cell_bounds(a, b)).collect())
        .collect();

    let mut rounds = 0usize;
    loop {
        let (nr, nc) = (rows.len(), cols.len());
        let mut lo_data = Vec::with_capacity(nr * nc);
        let mut hi_data = Vec::with_capacity(nr * nc);
        for row in &bounds {
            for &(lo, hi) in row {
                debug_assert!(lo <= hi);
                lo_data.push(lo);
                hi_data.push(hi);
            }
        }
        let supplies: Vec<Mass> = rows.iter().map(Group::mass).collect();
        let demands: Vec<Mass> = cols.iter().map(Group::mass).collect();
        debug_assert_eq!(
            supplies.iter().sum::<u64>(),
            demands.iter().sum::<u64>(),
            "coarse problem must be balanced"
        );
        let lo_cost = DenseCost::from_vec(nr, nc, lo_data);
        let hi_cost = DenseCost::from_vec(nr, nc, hi_data);
        let plan_hi = time_phase(PHASE_SOLVES, || {
            solve_balanced(&supplies, &demands, &hi_cost, config.solver)
        });

        let round_no = rounds;
        let trace = |why: &str, interval: (f64, f64)| {
            if std::env::var_os("SND_APPROX_TRACE").is_some() {
                eprintln!(
                    "approx-trace: op={op:?} rev={reverse} {why}: rounds={round_no} \
                     dims={nr}x{nc} full_fetches={} ball_fetches={} interval=[{:.3}, {:.3}]",
                    singleton_fetches.get(),
                    partial_fetches.get(),
                    interval.0,
                    interval.1,
                );
            }
        };

        // Certified return: per-term trace line, run-level aggregates,
        // and the adaptive-placement feedback off the final hi plan.
        let finish = |why: &str, lower: f64, upper: f64| -> TermOutcome {
            trace(why, (lower, upper));
            record_term(
                round_no,
                partial_fetches.get(),
                reball_fetches.get(),
                singleton_fetches.get(),
                lower,
                upper,
            );
            TermOutcome {
                lower,
                upper,
                feedback: collect_feedback(&plan_hi, &bounds, &rows, &cols, &sketch, reverse),
            }
        };

        // Cheap gap probe: price the hi-optimal plan at the lower bounds.
        // That sum over-estimates the lo optimum, so `hi − probe`
        // *under*-estimates the certified gap — when even the probe misses
        // ε, the expensive lo solve cannot certify this round and is
        // skipped; refinement proceeds on the hi plan's cells alone.
        let probe: i128 = plan_hi
            .flows
            .iter()
            .map(|f| bounds[f.row as usize][f.col as usize].0 as i128 * f.flow as i128)
            .sum();
        let threshold = approx.epsilon * plan_hi.total_cost as f64;
        let certify = (plan_hi.total_cost - probe) as f64 <= threshold || rounds >= approx.budget;
        let mut plan_lo = certify.then(|| {
            time_phase(PHASE_SOLVES, || {
                solve_balanced(&supplies, &demands, &lo_cost, config.solver)
            })
        });
        if let Some(lo_plan) = &plan_lo {
            debug_assert!(lo_plan.total_cost <= plan_hi.total_cost);
            let result = (
                lo_plan.total_cost as f64 / scale as f64,
                plan_hi.total_cost as f64 / scale as f64,
            );
            let gap = (plan_hi.total_cost - lo_plan.total_cost) as f64;
            if gap <= threshold || gap == 0.0 {
                return finish("converged", result.0, result.1);
            }
            if rounds >= approx.budget {
                return finish("budget", result.0, result.1);
            }
        }
        rounds += 1;

        // Worst boundary clusters: rank flowing cells (in either optimal
        // plan) by `gap × flow`, skipping cells that no action can tighten
        // (both sides singleton *and* the row's exact SSSP row already
        // materialized ⇒ the cell is exact ⇒ zero gap anyway). Acting on
        // many groups per round amortizes the transportation re-solves —
        // one action per round would re-solve hundreds of times.
        let mut scored: Vec<(u128, usize, usize)> = Vec::new();
        let lo_flows = plan_lo.iter().flat_map(|p| p.flows.iter());
        for f in plan_hi.flows.iter().chain(lo_flows) {
            let (i, j) = (f.row as usize, f.col as usize);
            let (lo, hi) = bounds[i][j];
            let cell_gap = (hi - lo) as u128;
            let actionable = rows[i].members.len() > 1
                || cols[j].members.len() > 1
                || !matches!(rows[i].dists, RowDists::Full(_));
            if cell_gap == 0 || !actionable {
                continue;
            }
            scored.push((cell_gap * f.flow as u128, i, j));
        }
        scored.sort_unstable_by_key(|b| std::cmp::Reverse(b.0));
        let best = scored.first().copied();
        // Splitting descends the quotient hierarchy: a group at level `d`
        // is partitioned by the first finer level that actually separates
        // its members (fanout ≤ QUOTIENT_FANOUT by construction), so the
        // children follow community boundaries instead of member-array
        // positions. Past the finest level, positional halves.
        let split_group = |gr: Group<'c>| -> Vec<Group<'c>> {
            let mut lv = gr.level + 1;
            while lv < finest {
                let labels = &ctx.levels[lv].labels;
                let first = labels[gr.members[0] as usize];
                if gr.members.iter().any(|&v| labels[v as usize] != first) {
                    let mut buckets: BTreeMap<u32, (Vec<NodeId>, Vec<Mass>)> = BTreeMap::new();
                    for (k, &v) in gr.members.iter().enumerate() {
                        let e = buckets.entry(labels[v as usize]).or_default();
                        e.0.push(v);
                        e.1.push(gr.masses[k]);
                    }
                    return buckets
                        .into_values()
                        .map(|(m, ms)| make_group(m, ms, gr.gamma, lv))
                        .collect();
                }
                lv += 1;
            }
            let mid = gr.members.len() / 2;
            let (m1, m2) = (gr.members[..mid].to_vec(), gr.members[mid..].to_vec());
            let (s1, s2) = (gr.masses[..mid].to_vec(), gr.masses[mid..].to_vec());
            vec![
                make_group(m1, s1, gr.gamma, finest),
                make_group(m2, s2, gr.gamma, finest),
            ]
        };
        // Per-level cost propagation: a child's member pairs are a subset
        // of the parent's, so the parent's certified cell interval still
        // brackets the child's min/max — intersecting it with the child's
        // own sketch bounds keeps every cell certified while inheriting
        // whatever tightness the coarser levels already established.
        let clip = |(lo, hi): (u32, u32), (plo, phi): (u32, u32)| -> (u32, u32) {
            (lo.max(plo), hi.min(phi))
        };
        let split_row = |rows: &mut Vec<Group<'c>>,
                         bounds: &mut Vec<Vec<(u32, u32)>>,
                         cols: &[Group<'c>],
                         i: usize| {
            let parent = bounds.swap_remove(i);
            for child in split_group(rows.swap_remove(i)) {
                bounds.push(
                    cols.iter()
                        .zip(&parent)
                        .map(|(b, &pb)| clip(cell_bounds(&child, b), pb))
                        .collect(),
                );
                rows.push(child);
            }
        };
        let split_col = |cols: &mut Vec<Group<'c>>,
                         bounds: &mut Vec<Vec<(u32, u32)>>,
                         rows: &[Group<'c>],
                         j: usize| {
            let children = split_group(cols.swap_remove(j));
            for (a, row) in rows.iter().zip(bounds.iter_mut()) {
                let pb = row.swap_remove(j);
                for child in &children {
                    row.push(clip(cell_bounds(a, child), pb));
                }
            }
            cols.extend(children);
        };
        match best {
            Some((best_score, _, _)) => {
                // Act on every distinct group among the top-scoring cells,
                // capped per round. Cells far below the round's worst are
                // left for a later round — materializing a singleton row
                // costs an SSSP ball (or ultimately a full Dial run), not
                // worth it on cold cells that a tighter plan may stop
                // routing through. Group splits are free (landmark
                // aggregates only), so they are preferred until both sides
                // are singleton; rows then escalate Sketch → Partial →
                // Full, each ball quadrupling the settled-capacity budget.
                let max_actions = ((rows.len() + cols.len()) / 2).clamp(8, 256);
                let mut row_splits: BTreeSet<usize> = BTreeSet::new();
                let mut col_splits: BTreeSet<usize> = BTreeSet::new();
                let mut materialize: BTreeSet<usize> = BTreeSet::new();
                for &(score, i, j) in &scored {
                    if row_splits.len() + col_splits.len() + materialize.len() >= max_actions
                        || score < best_score / 64
                    {
                        break;
                    }
                    let (rl, cl) = (rows[i].members.len(), cols[j].members.len());
                    if rl >= cl && rl > 1 {
                        row_splits.insert(i);
                    } else if cl > 1 {
                        col_splits.insert(j);
                    } else {
                        materialize.insert(i);
                    }
                }
                // Materialize before splitting: these indices predate the
                // splits' `swap_remove` reshuffling, and the recomputed
                // cells then feed the splits' new columns below.
                for &i in &materialize {
                    let node = rows[i].members[0];
                    let next = match &rows[i].dists {
                        RowDists::Sketch => rows[i].mass().saturating_mul(BALL_CAPACITY_FACTOR),
                        RowDists::Partial { capacity, .. } => {
                            reball_fetches.set(reball_fetches.get() + 1);
                            capacity.saturating_mul(4)
                        }
                        RowDists::Full(_) => continue,
                    };
                    // A ball that must settle (nearly) all demand anyway is
                    // a full row — fetch it through the shared cache so the
                    // exact path can reuse it.
                    rows[i].dists = if next >= total_demand {
                        RowDists::Full(fetch_exact(node))
                    } else {
                        partial_fetch(node, next)
                    };
                    // The previous bounds stay certified (ball radii only
                    // grow, exact rows are final), so intersect instead of
                    // replacing — materialization never widens a cell.
                    for (j, b) in cols.iter().enumerate() {
                        bounds[i][j] = clip(cell_bounds(&rows[i], b), bounds[i][j]);
                    }
                }
                // Descending order keeps pending indices valid across the
                // `swap_remove` + push pairs (the displaced tail element is
                // never itself scheduled — it would have been the maximum).
                for &j in col_splits.iter().rev() {
                    split_col(&mut cols, &mut bounds, &rows, j);
                }
                for &i in row_splits.iter().rev() {
                    split_row(&mut rows, &mut bounds, &cols, i);
                }
            }
            None => {
                // No flowing cell is splittable, yet the interval is open:
                // split the largest remaining group to guarantee progress.
                let widest_row = rows.iter().enumerate().max_by_key(|(_, g)| g.members.len());
                let widest_col = cols.iter().enumerate().max_by_key(|(_, g)| g.members.len());
                match (widest_row, widest_col) {
                    (Some((i, r)), Some((j, c))) if r.members.len().max(c.members.len()) > 1 => {
                        if r.members.len() >= c.members.len() {
                            split_row(&mut rows, &mut bounds, &cols, i);
                        } else {
                            split_col(&mut cols, &mut bounds, &rows, j);
                        }
                    }
                    // Everything is a singleton: the matrices are exact and
                    // the gap must have been zero — unreachable, but return
                    // a certified interval rather than loop.
                    _ => {
                        let lo_plan = plan_lo.take().unwrap_or_else(|| {
                            solve_balanced(&supplies, &demands, &lo_cost, config.solver)
                        });
                        return finish(
                            "exhausted",
                            lo_plan.total_cost as f64 / scale as f64,
                            plan_hi.total_cost as f64 / scale as f64,
                        );
                    }
                }
            }
        }
    }
}

/// Ranks the final hi plan's flowing cells by `gap × flow` and extracts
/// the adaptive-placement feedback: the worst cells' row representatives
/// (residual groups only — bank bins are not mass sources the sketch
/// should chase) and the landmarks binding those cells' envelopes.
fn collect_feedback(
    plan: &TransportPlan,
    bounds: &[Vec<(u32, u32)>],
    rows: &[Group<'_>],
    cols: &[Group<'_>],
    sketch: &LandmarkSketch<'_>,
    reverse: bool,
) -> TermFeedback {
    let mut cells: Vec<(u128, usize, usize)> = plan
        .flows
        .iter()
        .filter_map(|f| {
            let (i, j) = (f.row as usize, f.col as usize);
            let (lo, hi) = bounds[i][j];
            (hi > lo && f.flow > 0).then(|| (((hi - lo) as u128) * f.flow as u128, i, j))
        })
        .collect();
    cells.sort_unstable_by_key(|c| std::cmp::Reverse(c.0));
    // Credit stops once the walked cells carry half the residual gap
    // mass: landmarks binding only the long tail of near-converged cells
    // are not worth keeping on the repair payroll.
    let total_gap: u128 = cells.iter().map(|c| c.0).sum();
    let mut credited: u128 = 0;
    let mut hot_nodes = Vec::new();
    let mut landmark_useful = vec![false; sketch.landmark_count()];
    for &(score, i, j) in cells.iter().take(FEEDBACK_CELLS) {
        if credited * 2 >= total_gap {
            break;
        }
        credited += score;
        let rep = rows[i].members[0];
        if rows[i].gamma == 0 && !hot_nodes.contains(&rep) {
            hot_nodes.push(rep);
        }
        let (a, b) = if reverse {
            (&cols[j].agg, &rows[i].agg)
        } else {
            (&rows[i].agg, &cols[j].agg)
        };
        if let Some(l) = sketch.group_upper_arg(a, b) {
            landmark_useful[l] = true;
        }
        if let Some(l) = sketch.group_lower_arg(a, b) {
            landmark_useful[l] = true;
        }
    }
    TermFeedback {
        hot_nodes,
        landmark_useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(ApproxConfig::default().validate().is_ok());
        let bad = ApproxConfig {
            epsilon: -0.1,
            ..Default::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(ApproxError::InvalidEpsilon(_))
        ));
        let nan = ApproxConfig {
            epsilon: f64::NAN,
            ..Default::default()
        };
        assert!(matches!(
            nan.validate(),
            Err(ApproxError::InvalidEpsilon(_))
        ));
        let none = ApproxConfig {
            max_landmarks: 0,
            ..Default::default()
        };
        assert!(matches!(none.validate(), Err(ApproxError::NoLandmarks)));
    }

    #[test]
    fn interval_accessors() {
        let iv = SndInterval {
            lower: 2.0,
            upper: 6.0,
        };
        assert_eq!(iv.midpoint(), 4.0);
        assert_eq!(iv.width(), 4.0);
        assert!(iv.contains(2.0) && iv.contains(6.0) && iv.contains(3.5));
        assert!(!iv.contains(1.0) && !iv.contains(7.0));
    }

    #[test]
    fn intervals_bracket_exact_on_random_graphs() {
        use crate::engine::SndEngine;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use snd_graph::generators;

        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..12 {
            let n = 30 + trial * 5;
            let g = generators::erdos_renyi_gnp(n, 0.08, true, &mut rng);
            let vals_a: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            let vals_b: Vec<i8> = (0..n).map(|_| rng.gen_range(-1..=1)).collect();
            let a = snd_models::NetworkState::from_values(&vals_a);
            let b = snd_models::NetworkState::from_values(&vals_b);
            let exact_engine = SndEngine::new(&g, SndConfig::default());
            let exact = exact_engine.distance(&a, &b);
            for (eps, landmarks, budget) in [
                (0.25, 2, usize::MAX),
                (0.05, 3, usize::MAX),
                (0.0, 2, usize::MAX),
                (0.5, 2, 1),
            ] {
                let config = SndConfig {
                    approx: Some(ApproxConfig {
                        epsilon: eps,
                        max_landmarks: landmarks,
                        budget,
                        min_nodes: 0,
                    }),
                    ..Default::default()
                };
                let engine = SndEngine::new(&g, config);
                let iv = engine.distance_interval(&a, &b).unwrap();
                assert!(
                    iv.lower <= iv.upper + 1e-9,
                    "trial {trial} eps {eps}: inverted interval {iv:?}"
                );
                assert!(
                    iv.contains(exact),
                    "trial {trial} eps {eps} L {landmarks}: exact {exact} outside {iv:?}"
                );
                if eps == 0.0 {
                    assert!(
                        (iv.lower - exact).abs() < 1e-9 && (iv.upper - exact).abs() < 1e-9,
                        "trial {trial}: eps=0 must collapse to exact {exact}, got {iv:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsupported_modes_are_named() {
        let mut config = SndConfig::default();
        assert!(unsupported_bank_mode(&config).is_none());
        config.clusters = ClusterSpec::BfsPartition { clusters: 4 };
        assert_eq!(
            unsupported_bank_mode(&config).as_deref(),
            Some("BfsPartition")
        );
        config.clusters = ClusterSpec::Single;
        assert_eq!(unsupported_bank_mode(&config).as_deref(), Some("Single"));
    }
}
