//! Social Network Distance (SND) — the paper's primary contribution.
//!
//! SND quantifies the cost of evolving one network state into another under
//! a model of polar opinion propagation (paper Eq. 3):
//!
//! ```text
//! SND(G1, G2) = ½ · [ EMD*(G1⁺, G2⁺, D(G1, +)) + EMD*(G1⁻, G2⁻, D(G1, −))
//!                   + EMD*(G2⁺, G1⁺, D(G2, +)) + EMD*(G2⁻, G1⁻, D(G2, −)) ]
//! ```
//!
//! where `Gᵒᵖ` projects a state onto one opinion (unit mass per user holding
//! `op`) and `D(G, op)` is the shortest-path ground distance over the
//! opinion-dependent edge costs of `snd-models`.
//!
//! Two computation paths are provided and cross-validated:
//!
//! * [`SndEngine::distance_dense`] — the reference: all-pairs ground
//!   distances plus the full extended transportation problem of Eq. 4. This
//!   plays the role of the paper's "direct computation with a general LP
//!   solver" baseline (Fig. 11).
//! * [`SndEngine::distance`] — the Theorem 4 sparse path: Lemma 1/2
//!   reduction (only the `n∆` users whose opinion differs remain), one
//!   bounded-cost SSSP (Dial's algorithm) per remaining supplier, bank
//!   columns from precomputed cluster geometry, and an exact reduced
//!   transportation solve. Linear in `n` for bounded `n∆` on sparse graphs.
//!
//! [`GroundGeometry`] (per state and opinion) carries the edge costs, the
//! per-cluster bank distances γ, and the inter-cluster distance matrix; it
//! is reusable across comparisons involving the same state — see
//! [`SndEngine::series_distances`] and [`CandidateEvaluator`].
//!
//! # The delta pipeline (time-series workloads)
//!
//! Series workloads compare *consecutive* snapshots of one evolving
//! network, and a simulation step flips a handful of opinions out of
//! thousands. [`SndEngine::series_distances`] therefore evaluates
//! **delta-aware** (module [`delta`]): a
//! [`StateDelta`](snd_models::StateDelta) names the flipped nodes and the
//! touched edges, edge costs are re-derived on touched edges only, the
//! per-cluster SSSP rows behind the cluster-bank geometry are *repaired*
//! ([`snd_graph::repair_row`], Ramalingam–Reps style) rather than
//! recomputed — clusters whose rows the repair leaves untouched reuse
//! their previous inter-cluster row verbatim, and γ comes from
//! member-bounded runs that stop once the cluster's members are
//! settled — and identical
//! consecutive states short-circuit to zero. The checkpoint-backed series
//! path ([`SndEngine::series_tiles_checkpointed`], surfaced as
//! `snd_analysis::resume::series_distances_checkpointed`) advances the
//! same repairable bundles along the series, and prices each tile through
//! the same tile loop and pair pricing as the all-pairs matrix.
//!
//! Every fast path is **exact** (shortest-path distances are the unique
//! relaxation fixpoint, so repaired geometry is bit-identical to a
//! from-scratch build; `tests/delta_series.rs` asserts equality with
//! [`SndEngine::series_distances_seq`] across every registry scenario),
//! and the path **falls back** to a fresh rebuild per transition when the
//! touched-edge count exceeds `1/`[`REPAIR_EDGE_FRACTION`] of the edges
//! (high-churn dynamics) or when the clamped `u32` distance domain would
//! be lossy (`U·n + 1` past the sentinel cap).
//! The repo benchmark's `series` and `series_rebuild` workloads
//! (`python3 perfbench/run.py --workload series`) time both regimes.
//!
//! # The approximate tier (million-node graphs)
//!
//! Both paths above are exact, and both spend at least one bounded SSSP
//! per differing user — past ~10⁵ nodes that sweep dominates. Setting
//! [`SndConfig::approx`] ([`ApproxConfig`]) enables the third tier
//! (module [`approx`]): landmark SSSP sketches bound node-to-node
//! distances by triangle-inequality envelopes, differing users are
//! contracted into quotient-graph clusters, each EMD* term is priced
//! **twice** — once over the lower envelope, once over the upper — and
//! the worst cluster is split and re-priced until the certified relative
//! gap meets `epsilon` (`epsilon = 0` refines all the way to exact).
//!
//! The result is an interval, not a point: [`SndEngine::distance_interval`]
//! and [`SndEngine::series_intervals`] return [`SndInterval`] with the
//! exact SND proven inside `[lower, upper]` (property-tested against the
//! exact tier in `tests/approx_bounds.rs`). Scalar entry points
//! ([`SndEngine::distance`], [`SndEngine::series_distances`], the shard
//! tiles) return interval midpoints when the tier is active — active
//! meaning `approx` is set, banks are per-bin, and the graph has at
//! least [`ApproxConfig::min_nodes`] nodes. The reference paths
//! ([`SndEngine::distance_dense`], the `*_seq` variants) never
//! approximate, so exactness tests remain meaningful. Tier selection in
//! short: small graph → exact; series → delta; huge graph + `approx` →
//! certified intervals.
//!
//! ## Certified series: the sketch lifecycle
//!
//! An approximate **series** run composes the two fast paths.
//! [`SndEngine::series_intervals`] carries one live [`SketchRows`] bundle
//! per opinion plane along the series instead of re-sketching every
//! snapshot:
//!
//! 1. **Build** — the first snapshot runs `2·L` landmark SSSPs per plane
//!    (one to-landmark, one from-landmark row per landmark);
//! 2. **Repair** — each transition repairs rows through the touched
//!    edges ([`snd_graph::repair_row`]), under the same contract as the
//!    cluster-geometry rows: repaired rows are **bit-identical** to
//!    fresh SSSPs (`tests/sketch_repair.rs`). Repair is
//!    **feedback-driven**: once pricing signal exists, only a small
//!    budget of the most-recently-useful landmark pairs is kept
//!    current; the rest are parked *stale* and excluded from envelopes
//!    (a subset envelope is looser but still sound), so a series whose
//!    refinement does not lean on the sketch stops paying for its
//!    upkeep;
//! 3. **Adapt** — term feedback credits the landmarks binding the
//!    worst remaining `gap × flow` cells (these stay inside the repair
//!    budget) and periodically promotes the hottest residual nodes into
//!    the landmark set, evicting the least-recently-useful landmark —
//!    stale pairs age fastest — once [`ApproxConfig::max_landmarks`] is
//!    reached;
//! 4. **Fall back** — high-churn transitions (touched edges above
//!    `1/`[`REPAIR_EDGE_FRACTION`] of the graph) rebuild the sketch
//!    fresh — every pair, reviving stale ones — exactly like the
//!    cluster rows.
//!
//! The envelope solves behind each term run on a **recursive quotient**:
//! the quotient graph is itself `bfs_partition`-coarsened (fanout 8, up
//! to 6 levels) so the coarse solve stays bounded for `n ≥ 10⁷`, with
//! per-level `[lo, hi]` cost propagation keeping every interval
//! certified. Shard checkpoints written under an active approximate tier
//! persist each tile's `[lo, hi]` pairs (`I` lines, see [`shard`]), so
//! merged matrices stay re-certifiable; `SND_APPROX_TRACE=1` prints a
//! per-run summary of sketch repairs/reuses/stale parks/rebuilds, the
//! sketch→ball→re-ball→exact refinement ladder, and per-phase wall
//! time.

pub mod approx;
pub mod banks;
pub mod batch;
pub mod config;
pub mod delta;
pub mod dense;
pub mod engine;
pub mod ordered;
pub mod shard;
pub mod sparse;

pub use approx::{ApproxConfig, ApproxError, SndInterval};
pub use banks::GroundGeometry;
pub use batch::DistanceMatrix;
pub use config::{ClusterSpec, GammaPolicy, SndConfig};
pub use delta::{BallSteps, DeltaStateGeometry, SketchRows, REPAIR_EDGE_FRACTION};
pub use engine::{SndBreakdown, SndEngine, StateGeometry};
pub use ordered::CandidateEvaluator;
pub use shard::{
    auto_tile, interval_line, parse_interval_line, parse_tile_line, parse_timing_line,
    states_fingerprint, tile_line, timing_line, Checkpoint, ShardError, ShardPlan, TileGrid,
    TileSet, DEFAULT_TILE,
};
pub use sparse::RowCache;
