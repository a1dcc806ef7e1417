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
//! [`GroundGeometry`] (per state and opinion) carries the edge costs and
//! the per-cluster bank distances γ; it is reusable across comparisons
//! involving the same state — see [`SndEngine::series_distances`] and
//! [`CandidateEvaluator`]. The inter-cluster distances a term reads are
//! rows of its ground state's row cache, one multi-source Dial per
//! cluster that holds a row node; only the eager reference geometry
//! ([`SndEngine::geometry`]) carries them as a full matrix.
//!
//! # The delta pipeline (time-series workloads)
//!
//! Series workloads compare *consecutive* snapshots of one evolving
//! network, and a simulation step flips a handful of opinions out of
//! thousands. [`SndEngine::series_distances`] therefore evaluates
//! **delta-aware** (module [`delta`]): a
//! [`StateDelta`](snd_models::StateDelta) names the flipped nodes and the
//! touched edges, edge costs are re-derived on touched edges only, the γ
//! runs behind the cluster-bank geometry stop once the cluster's members
//! are settled and their balls are *repaired*
//! ([`snd_graph::repair_row`], Ramalingam–Reps style) rather than re-run,
//! the inter-cluster rows the terms read are repaired along the snapshot
//! order like the users' rows, and identical
//! consecutive states short-circuit to zero. The series is the
//! superdiagonal tile plan: the all-pairs matrix, every tile plan and
//! both series surfaces (the checkpoint-backed
//! `snd_analysis::resume::series_distances_checkpointed` included)
//! advance the same repairable bundles along the snapshot order, repair
//! each user's SSSP row from the previous state's, and price through one
//! tile loop.
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
//! grouped by their landmark distances, each EMD* term is priced
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
//! ## Certified series: landmark rows along the snapshot order
//!
//! An approximate **series** run composes the two fast paths. Both
//! series surfaces are the superdiagonal tile plan, and the tile loop
//! writes every SSSP row its terms read before it solves them (see
//! [`batch`]). Under an approximate tier a term the tier sketches reads
//! its ground state's `2·L` landmark rows, one to-landmark and one
//! from-landmark row per landmark of [`ApproxConfig::max_landmarks`], so
//! those rows are ordinary row keys:
//!
//! 1. **First state** — each landmark row is one fresh Dial run;
//! 2. **Repair** — each later state's row is the previous state's row
//!    repaired through the edge costs that changed
//!    ([`snd_graph::repair_row`]). Repaired rows are **bit-identical** to
//!    fresh SSSPs, so every transition's interval equals that
//!    transition priced on its own ([`SndEngine::distance_interval`],
//!    `tests/sketch_repair.rs`, `tests/series_history.rs`);
//! 3. **Fall back** — past `1/`[`REPAIR_EDGE_FRACTION`] of the edges
//!    changed, or in a lossy clamp domain, a row is computed fresh,
//!    exactly like every other row key.
//!
//! Every surface prices over all `L` landmarks, so the scalar
//! [`SndEngine::series_distances`] under an active tier equals
//! [`SndEngine::distance`] on each transition. An engine whose tier is
//! inactive builds no landmark row.
//!
//! The envelope solves behind each term start **coarse**: a side of more
//! than 1,024 residual users, and the bank side at any size, is cut into
//! at most 64 groups, each cut splitting a group at the midpoint of the
//! landmark coordinate whose distances spread widest over it. Refinement
//! splits by the same rule, and a child's `[lo, hi]` cells are clipped to
//! its parent's, so every interval stays certified. The only context
//! built per engine is the landmark set. Shard checkpoints written under an active
//! approximate tier persist each tile's `[lo, hi]` pairs (`I` lines, see
//! [`shard`]), so merged matrices stay re-certifiable; `SND_APPROX_TRACE=1` prints a
//! per-run summary of the sketch→ball→re-ball→exact refinement ladder
//! and per-phase wall time.

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
pub use delta::{BallSteps, DeltaStateGeometry, REPAIR_EDGE_FRACTION};
pub use engine::{SndBreakdown, SndEngine, StateGeometry};
pub use ordered::CandidateEvaluator;
pub use shard::{
    auto_tile, states_fingerprint, Checkpoint, ShardError, ShardPlan, TileGrid, TileLine, TileSet,
    TileWorkspace,
};
pub use sparse::RowCache;
