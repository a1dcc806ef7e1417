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
//!    workloads share them across comparisons, and the all-pairs path
//!    ([`crate::batch`]) writes them ahead of its solves like any other
//!    row key, repairing each from the previous state's row.
//! 2. **Sketch-coordinate coarsening** — a residual side larger than
//!    1,024 users, and the bank side at any size, starts as one group
//!    that is cut until it holds 64: each cut splits a group at the
//!    midpoint of the landmark coordinate whose distances spread widest
//!    over its members ([`snd_graph::GroupAggregate::widest`]). The
//!    reduced transportation problem is priced over the groups with
//!    per-cell `[lower, upper]` ground-cost bounds from the group-level
//!    sketch, which are sound for any grouping.
//!    Solving the coarse problem twice — once per envelope — yields
//!    certified bounds on the exact term: the lower solve is dominated by
//!    the projection of the exact optimal plan, the upper solve dominates
//!    a proportional disaggregation of its own plan (both directions of
//!    the standard coarsening sandwich, since the transportation optimum
//!    is monotone in the cost matrix).
//! 3. **Progressive refinement** — while the interval is wider than the
//!    caller's ε, a batch of the worst boundary groups (largest
//!    `cell gap × flow` over both optimal plans) is split by the same
//!    rule and the coarse problem re-priced; cell bounds are maintained
//!    incrementally, so a round costs two coarse solves plus only the
//!    split groups' cells.
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
//! more SSSPs than exactness, see `prices_exactly`) short-circuit to the
//! exact sparse path and return a zero-width interval.
//!
//! A term enters this tier only through the engine's one term router,
//! `SndEngine::price_term`, which every surface calls; the tier shares
//! the exact path's Lemma 2 classification and bank orientation
//! (`sparse::classify_term`, `ReducedTerm::orient`) and differs only in
//! how ground distances are known.
//!
//! The tier supports the default [`ClusterSpec::PerBin`] bank mode only;
//! cluster-bank modes report [`ApproxError::UnsupportedBankMode`].

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use snd_graph::{select_landmarks, Clustering, CsrGraph, GroupAggregate, LandmarkSketch, NodeId};
use snd_models::{NetworkState, Opinion};
use snd_transport::{solve_balanced, DenseCost, Mass};

use snd_graph::{dial_bounded_scratch, Dist};

use crate::banks::GroundGeometry;
use crate::config::{ClusterSpec, SndConfig};
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
    /// Landmarks per sketch (`2·max_landmarks` SSSP rows per ground
    /// state and opinion). More landmarks tighten the envelopes. Every
    /// surface, a certified series included, prices over all of them.
    pub max_landmarks: usize,
    /// Maximum refinement rounds per term; each round solves the coarse
    /// problem twice and splits a batch of the worst boundary groups.
    /// On exhaustion the current (still certified) interval is returned
    /// even if wider than ε.
    pub budget: usize,
    /// Node count from which the scalar surfaces
    /// ([`distance`](crate::SndEngine::distance), series, tiles) take the
    /// sketch tier: graphs with fewer nodes stay on the exact path. Interval
    /// queries
    /// ([`distance_interval`](crate::SndEngine::distance_interval)) ignore
    /// this and always run the approximate machinery.
    ///
    /// The default is the crossover the `scale_approx` bench measured on
    /// one thread: 0.84–0.90× of exact below 5·10⁴ nodes, 2.9× at 5·10⁴.
    /// Its two-thread record, `BENCH_scale_approx.json`, moves the
    /// crossover down: 1.12× at 2·10³, 3.4× at 10⁴, 5.8× at 5·10⁴ and
    /// 7.4× at 10⁵. The default is unchanged until it is retuned.
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

    /// The zero-width interval at `v`: the exact tier's, or a term the
    /// approximate tier answered exactly.
    pub(crate) fn exact(v: f64) -> SndInterval {
        SndInterval { lower: v, upper: v }
    }

    /// Whether `value` lies inside the interval (inclusive, with a tiny
    /// float tolerance on both ends).
    pub fn contains(&self, value: f64) -> bool {
        let tol = 1e-9 * (1.0 + self.upper.abs());
        self.lower - tol <= value && value <= self.upper + tol
    }
}

/// Seeding granularity: a side that does not start at singletons is cut
/// into at most this many groups before refinement, regardless of graph
/// size, so the first envelope solves stay bounded even at n ≥ 10⁷.
const QUOTIENT_CLUSTERS: usize = 64;

/// First-ball stop budget for bounded row materialization, as a multiple
/// of the row's own mass: the ball grows until it has settled this much
/// nearby consumer capacity (escalations quadruple it). Enough slack that
/// an optimal plan can usually route the row's mass inside the ball even
/// when neighboring rows compete for the same consumers.
const BALL_CAPACITY_FACTOR: u64 = 8;

/// Residual sides at most this large start refinement at singleton
/// granularity; larger ones start as at most [`QUOTIENT_CLUSTERS`]
/// groups cut by `split_members`, since coarse rounds only pay for
/// themselves when grouping actually shrinks the problem.
const SINGLETON_INIT_MAX: usize = 1024;

/// Topology-only sketch context, computed once per engine: the landmark
/// node set. Distance rows are per ground state and live in that state's
/// [`RowCache`].
#[derive(Debug)]
pub(crate) struct ApproxCtx {
    pub(crate) landmarks: Vec<NodeId>,
}

pub(crate) fn build_ctx(g: &CsrGraph, approx: &ApproxConfig) -> ApproxCtx {
    ApproxCtx {
        landmarks: select_landmarks(g, approx.max_landmarks.max(1)),
    }
}

/// Whether a term with `rows` residual rows is priced on the exact path
/// rather than sketched over `landmarks` landmarks: its exact rows cost
/// no more SSSPs than the sketch's `2·L`. Such a term reads its residual
/// users' rows, any other term its landmarks' rows.
pub(crate) fn prices_exactly(rows: usize, landmarks: usize) -> bool {
    rows <= 2 * landmarks.max(1)
}

/// The one split rule: cuts a group at the midpoint of the landmark
/// coordinate whose values spread widest over its members (members at or
/// below it go first), or into positional halves when no coordinate
/// separates them. Both halves are non-empty for two or more members,
/// and each member keeps its mass.
fn split_members(
    sketch: &LandmarkSketch,
    agg: &GroupAggregate,
    members: &[NodeId],
    masses: &[Mass],
) -> [(Vec<NodeId>, Vec<Mass>); 2] {
    let Some(spread) = agg.widest() else {
        let mid = members.len() / 2;
        return [
            (members[..mid].to_vec(), masses[..mid].to_vec()),
            (members[mid..].to_vec(), masses[mid..].to_vec()),
        ];
    };
    let row = sketch.coordinate(spread.landmark, spread.to);
    let cut = spread.min + (spread.max - spread.min) / 2;
    let mut halves: [(Vec<NodeId>, Vec<Mass>); 2] = Default::default();
    for (&v, &m) in members.iter().zip(masses) {
        let half = &mut halves[usize::from(row[v as usize] > cut)];
        half.0.push(v);
        half.1.push(m);
    }
    halves
}

/// Returns the bank-mode name for [`ApproxError::UnsupportedBankMode`],
/// or `None` when the mode is supported.
pub(crate) fn unsupported_bank_mode(config: &SndConfig) -> Option<String> {
    match config.clusters {
        ClusterSpec::PerBin => None,
        ClusterSpec::BfsPartition { .. } => Some("BfsPartition".into()),
        ClusterSpec::Explicit(_) => Some("Explicit".into()),
        ClusterSpec::Single => Some("Single".into()),
    }
}

/// Whether `SND_APPROX_TRACE` diagnostics are on: the environment is
/// read once per process, on the first call.
pub(crate) fn trace_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("SND_APPROX_TRACE").is_some())
}

/// Process-global aggregate counters behind `SND_APPROX_TRACE`: per-term
/// lines show individual refinements, this accumulates the run-level
/// story (how many terms, how deep the escalation ladder went) and is
/// drained once per run by [`emit_trace_summary`].
struct TraceStats {
    terms: AtomicUsize,
    tiny_exact: AtomicUsize,
    rounds: AtomicUsize,
    /// Deepest escalation per term: sketch-only / Dial ball / reball /
    /// full exact row.
    ladder: [AtomicUsize; 4],
    /// Final relative gap per term: 0 / ≤1% / ≤5% / ≤20% / >20%.
    gap_hist: [AtomicUsize; 5],
    /// Wall-clock nanoseconds per cost phase (see the `PHASE_*` slots).
    phase_ns: [AtomicU64; 4],
}

/// [`TraceStats::phase_ns`] slots: landmark rows (cache hits, or rows
/// computed on first use), bounded Dial balls, envelope transportation
/// solves, and exact singleton rows.
const PHASE_LANDMARK_ROWS: usize = 0;
const PHASE_BALLS: usize = 1;
const PHASE_SOLVES: usize = 2;
const PHASE_EXACT_ROWS: usize = 3;

/// Runs `f`, charging its wall time to `phase` when tracing is on.
fn time_phase<T>(phase: usize, f: impl FnOnce() -> T) -> T {
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
    let gaps: Vec<usize> = TRACE_STATS.gap_hist.iter().map(take).collect();
    let ms: Vec<f64> = TRACE_STATS
        .phase_ns
        .iter()
        .map(|a| a.swap(0, Ordering::Relaxed) as f64 / 1e6)
        .collect();
    eprintln!(
        "approx-summary [{context}]: terms={terms} (+{tiny} tiny-exact) \
         refinement_rounds={rounds} ladder[sketch/ball/reball/exact]={}/{}/{}/{} \
         gap_hist[0,\u{2264}1%,\u{2264}5%,\u{2264}20%,>20%]={}/{}/{}/{}/{} \
         phase_ms[rows/balls/solves/exact]={:.0}/{:.0}/{:.0}/{:.0}",
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
    );
}

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
}

impl<'c> Group<'c> {
    fn mass(&self) -> Mass {
        self.masses.iter().sum()
    }
}

/// Certified `[lower, upper]` for one EMD\* term
/// `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))` under per-bin banks. The reduction,
/// orientation and bank capacities are the exact path's own
/// (`sparse::classify_term`, then `ReducedTerm::orient`); only the
/// per-pair ground distances are replaced by sketch envelopes that
/// refinement tightens until `upper − lower ≤ ε · upper` (or the round
/// budget runs out). Its one caller is the engine's term router,
/// `SndEngine::price_term`.
///
/// The landmark rows are read through the ground state's shared
/// [`RowCache`]: hits when the all-pairs path wrote them ahead of the
/// solves, else 2·L SSSPs on first use. Either way they are the exact
/// rows, so the interval does not depend on where they came from.
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
) -> SndInterval {
    let n = g.node_count();
    assert!(geom.per_bin, "the approximate tier requires per-bin banks");
    assert_eq!(p_state.len(), n, "state size mismatch");
    assert_eq!(q_state.len(), n, "state size mismatch");
    let scale = config.scale;

    // Lemma 2 classification, bank capacities and orientation through the
    // exact sparse path's own code: both tiers price one reduced problem.
    let term = sparse::classify_term(clustering, true, p_state, q_state, op, scale);
    let Some(term) = term.orient(n, config) else {
        return SndInterval::exact(0.0);
    };
    let reverse = term.reverse;

    // Tiny reduced problems: exact rows cost fewer SSSPs than the sketch
    // would — answer exactly (zero-width interval).
    if prices_exactly(term.row_nodes.len(), ctx.landmarks.len()) {
        let v = sparse::solve_oriented(g, clustering, geom, op, config, Some(cache), &term);
        if trace_enabled() {
            TRACE_STATS.tiny_exact.fetch_add(1, Ordering::Relaxed);
        }
        return SndInterval::exact(v);
    }

    // Landmark rows: 2·L rows shared with the exact path through the
    // ground state's row cache.
    let sketch = time_phase(PHASE_LANDMARK_ROWS, || {
        let rows = |reverse| {
            ctx.landmarks
                .iter()
                .map(|&l| cache.get_or_compute(g, geom, op, reverse, l).full())
                .collect()
        };
        LandmarkSketch::new(rows(true), rows(false), geom.unreachable)
    });

    // Exact SSSP row of a singleton row group — the same row the exact
    // path would compute, fetched lazily through the shared cache.
    let singleton_fetches = std::cell::Cell::new(0usize);
    let partial_fetches = std::cell::Cell::new(0usize);
    let reball_fetches = std::cell::Cell::new(0usize);
    let fetch_exact = |node: NodeId| {
        singleton_fetches.set(singleton_fetches.get() + 1);
        time_phase(PHASE_EXACT_ROWS, || {
            cache.get_or_compute(g, geom, op, reverse, node).full()
        })
    };
    let make_group = |members: Vec<NodeId>, masses: Vec<Mass>, gamma: u32| {
        debug_assert_eq!(members.len(), masses.len());
        Group {
            agg: sketch.aggregate(&members),
            members,
            masses,
            gamma,
            dists: RowDists::Sketch,
        }
    };
    let split_group = |gr: Group<'c>| -> [Group<'c>; 2] {
        let [(m1, s1), (m2, s2)] = split_members(&sketch, &gr.agg, &gr.members, &gr.masses);
        [make_group(m1, s1, gr.gamma), make_group(m2, s2, gr.gamma)]
    };

    // Sketch-coordinate coarsening: a side starts as one group, and the
    // group whose widest coordinate spreads most is cut until the side
    // holds QUOTIENT_CLUSTERS groups or no group spreads. The solve
    // dimensions start bounded by that count no matter how large the
    // graph is.
    let coarse_groups = |members: Vec<NodeId>, masses: Vec<Mass>, gamma: u32| -> Vec<Group<'c>> {
        if members.is_empty() {
            return Vec::new();
        }
        let mut groups = vec![make_group(members, masses, gamma)];
        while groups.len() < QUOTIENT_CLUSTERS {
            let widest = groups
                .iter()
                .enumerate()
                .filter_map(|(i, gr)| Some((gr.agg.widest()?, i)))
                .max_by_key(|(s, i)| (s.max - s.min, std::cmp::Reverse(*i)));
            let Some((_, i)) = widest else { break };
            let gr = groups.swap_remove(i);
            groups.extend(split_group(gr));
        }
        groups
    };
    // Small residual sides skip the coarse rounds entirely: starting at
    // singleton granularity costs one full-size solve per round but saves
    // the split-only rounds whose solves refinement would pay anyway. The
    // (potentially huge) bank side is always cut coarse, its bins grouped
    // apart from the residual users because their γ offset differs.
    let seed_groups = |nodes: &[NodeId]| -> Vec<Group<'c>> {
        if nodes.len() <= SINGLETON_INIT_MAX {
            nodes
                .iter()
                .map(|&v| make_group(vec![v], vec![scale], 0))
                .collect()
        } else {
            coarse_groups(nodes.to_vec(), vec![scale; nodes.len()], 0)
        }
    };
    let mut rows: Vec<Group> = seed_groups(&term.row_nodes);
    let mut cols: Vec<Group> = seed_groups(&term.col_nodes);
    cols.extend(coarse_groups(
        term.bank_bins,
        term.bank_caps,
        config.per_bin_gamma,
    ));

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
            if trace_enabled() {
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

        // Certified return: per-term trace line and run-level aggregates.
        let finish = |why: &str, lower: f64, upper: f64| -> SndInterval {
            trace(why, (lower, upper));
            record_term(
                round_no,
                partial_fetches.get(),
                reball_fetches.get(),
                singleton_fetches.get(),
                lower,
                upper,
            );
            SndInterval { lower, upper }
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

        // Worst boundary groups: rank flowing cells (in either optimal
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
        // Parent-to-child cost propagation: a child's member pairs are a
        // subset of the parent's, so the parent's certified cell interval
        // still brackets the child's min/max — intersecting it with the
        // child's own sketch bounds keeps every cell certified while
        // inheriting whatever tightness earlier rounds established.
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
    fn split_members_cuts_the_widest_coordinate_at_its_midpoint() {
        // One landmark over six nodes: `to` spreads 0..=9 over the members
        // below, `from` only 4..=6, so the cut is `to` ≤ 4.
        let to = [9u32, 0, 4, 5, 2, 7];
        let from = [4u32, 5, 6, 4, 5, 6];
        let sketch = LandmarkSketch::new(vec![&to[..]], vec![&from[..]], 100);
        let members: Vec<NodeId> = vec![0, 1, 2, 3, 4, 5];
        let masses: Vec<Mass> = vec![10, 11, 12, 13, 14, 15];
        let agg = sketch.aggregate(&members);
        let [low, high] = split_members(&sketch, &agg, &members, &masses);
        assert_eq!(low, (vec![1, 2, 4], vec![11, 12, 14]));
        assert_eq!(high, (vec![0, 3, 5], vec![10, 13, 15]));

        // Any spread leaves both halves non-empty, covering the members
        // once with their masses.
        for pair in [[0, 3], [2, 3], [1, 5]] {
            let masses = [7, 8];
            let agg = sketch.aggregate(&pair);
            let [x, y] = split_members(&sketch, &agg, &pair, &masses);
            assert_eq!((x.0.len(), y.0.len()), (1, 1), "{pair:?}");
            let mut all: Vec<(NodeId, Mass)> =
                x.0.iter()
                    .zip(&x.1)
                    .chain(y.0.iter().zip(&y.1))
                    .map(|(&v, &m)| (v, m))
                    .collect();
            all.sort_unstable();
            assert_eq!(all, vec![(pair[0], 7), (pair[1], 8)]);
        }

        // No coordinate separates twins: positional halves.
        let twin = LandmarkSketch::new(vec![&[3u32, 3, 3][..]], vec![&[1u32, 1, 1][..]], 100);
        let members = [0, 1, 2];
        let agg = twin.aggregate(&members);
        let [x, y] = split_members(&twin, &agg, &members, &[1, 2, 3]);
        assert_eq!(x, (vec![0], vec![1]));
        assert_eq!(y, (vec![1, 2], vec![2, 3]));
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
