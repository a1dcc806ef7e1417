//! The SND engine: Eq. 3 over a fixed graph and configuration.
//!
//! # Threading model
//!
//! [`SndEngine`] is immutable after construction and `Sync`: share one
//! engine by reference across any number of threads. Per-call parallelism
//! is internal — [`breakdown`](SndEngine::breakdown) evaluates its four
//! EMD\* terms concurrently, and
//! [`pairwise_distances`](SndEngine::pairwise_distances) fans comparisons
//! out over all cores. [`series_distances`](SndEngine::series_distances)
//! instead walks the series *incrementally* (delta-aware, see
//! [`crate::delta`]) with per-transition parallelism only. Results are
//! bit-identical to a sequential evaluation either way: every term is an
//! independent exact computation and reductions happen in a fixed order.
//!
//! Parallelism nests safely: terms running on the shared rayon pool may
//! themselves hit the transportation simplex's parallel pricing (large
//! reduced instances under the default `Solver::Auto`); the pool's
//! caller-participation guarantee means inner fan-outs always progress
//! even with every worker busy on outer terms.

use std::sync::OnceLock;

use snd_graph::{bfs_partition, label_propagation, whole_graph_cluster, Clustering, CsrGraph};
use snd_models::{NetworkState, Opinion};

use crate::approx::{ApproxConfig, ApproxCtx, ApproxError, SndInterval};
use crate::banks::{compute_geometry, GroundGeometry};
use crate::batch::term_value;
use crate::config::{ClusterSpec, SndConfig};
use crate::sparse::RowCache;
use crate::{approx, dense, sparse};

/// The four EMD\* terms of Eq. 3.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SndBreakdown {
    /// `EMD*(G1⁺, G2⁺, D(G1, +))`.
    pub forward_pos: f64,
    /// `EMD*(G1⁻, G2⁻, D(G1, −))`.
    pub forward_neg: f64,
    /// `EMD*(G2⁺, G1⁺, D(G2, +))`.
    pub backward_pos: f64,
    /// `EMD*(G2⁻, G1⁻, D(G2, −))`.
    pub backward_neg: f64,
}

impl SndBreakdown {
    /// `SND = ½ · Σ terms`.
    pub fn total(&self) -> f64 {
        0.5 * (self.forward_pos + self.forward_neg + self.backward_pos + self.backward_neg)
    }
}

/// Per-state evaluation bundle: both opinion geometries plus the shared,
/// thread-safe SSSP row cache for comparisons grounded in that state.
/// Built by [`SndEngine::state_geometry`] (or [`StateGeometry::new`] —
/// the only constructors, so the live/peak accounting below stays
/// balanced with the `Drop` impl), consumed by
/// [`SndEngine::breakdown_with`] and the batch entry points.
pub struct StateGeometry {
    /// `D(state, +)` geometry.
    pub(crate) pos: GroundGeometry,
    /// `D(state, −)` geometry.
    pub(crate) neg: GroundGeometry,
    /// Shared row cache (one slot per `(opinion, direction, node)`).
    pub(crate) cache: RowCache,
    /// Delta-repaired landmark rows per opinion plane (series/tile paths
    /// only — `None` bundles fall back to cache-fetched landmark rows).
    pub(crate) sketch_pos: Option<crate::delta::SketchRows>,
    pub(crate) sketch_neg: Option<crate::delta::SketchRows>,
}

/// Live [`StateGeometry`] bundles right now — each holds O(n) geometry
/// plus its row cache, so series evaluation must bound this.
static LIVE_BUNDLES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// High-water mark of [`LIVE_BUNDLES`] since the last reset.
static PEAK_BUNDLES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl StateGeometry {
    /// Assembles a bundle, tracking it in the live/peak accounting.
    pub fn new(pos: GroundGeometry, neg: GroundGeometry, cache: RowCache) -> StateGeometry {
        use std::sync::atomic::Ordering;
        let live = LIVE_BUNDLES.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_BUNDLES.fetch_max(live, Ordering::Relaxed);
        StateGeometry {
            pos,
            neg,
            cache,
            sketch_pos: None,
            sketch_neg: None,
        }
    }

    /// Attaches delta-repaired landmark-row bundles (used by
    /// [`DeltaStateGeometry::bundle`](crate::delta::DeltaStateGeometry)).
    pub(crate) fn with_sketches(
        mut self,
        pos: Option<crate::delta::SketchRows>,
        neg: Option<crate::delta::SketchRows>,
    ) -> StateGeometry {
        self.sketch_pos = pos;
        self.sketch_neg = neg;
        self
    }

    /// Number of SSSP rows written into this bundle's cache so far, fresh
    /// or repaired ([`RowCache::computed_rows`]).
    pub fn cached_rows(&self) -> usize {
        self.cache.computed_rows()
    }

    /// How many of the [`cached_rows`](Self::cached_rows) were repaired
    /// from another ground state's row ([`RowCache::repaired_rows`]).
    pub fn repaired_rows(&self) -> usize {
        self.cache.repaired_rows()
    }

    /// The ground geometry of one opinion plane.
    pub(crate) fn plane(&self, op: Opinion) -> &GroundGeometry {
        match op {
            Opinion::Positive => &self.pos,
            _ => &self.neg,
        }
    }

    /// Bundles alive right now (process-wide).
    pub fn live_count() -> usize {
        LIVE_BUNDLES.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// High-water mark of live bundles since the last
    /// [`reset_peak_live`](Self::reset_peak_live) — the observability
    /// hook the series memory test asserts on (series evaluation must
    /// keep at most two bundles alive).
    pub fn peak_live() -> usize {
        PEAK_BUNDLES.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Resets the high-water mark to the current live count.
    pub fn reset_peak_live() {
        PEAK_BUNDLES.store(Self::live_count(), std::sync::atomic::Ordering::Relaxed);
    }
}

impl Drop for StateGeometry {
    fn drop(&mut self) {
        LIVE_BUNDLES.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// SND evaluator over one graph. Construction computes the structural bin
/// clustering once; every distance call derives the per-state geometry it
/// needs (or reuses one supplied by the caller).
pub struct SndEngine<'g> {
    graph: &'g CsrGraph,
    config: SndConfig,
    clustering: Clustering,
    /// Lazily-built approximate-tier context (landmarks + quotient
    /// partition) — topology-only, so one build serves every query.
    approx_ctx: OnceLock<ApproxCtx>,
}

impl<'g> SndEngine<'g> {
    /// Creates an engine, computing the bank clustering per the config.
    pub fn new(graph: &'g CsrGraph, config: SndConfig) -> Self {
        let clustering = match &config.clusters {
            // Per-bin mode never consults the clustering (bank columns come
            // straight from SSSP rows); keep a trivial one as a placeholder.
            ClusterSpec::PerBin => whole_graph_cluster(graph.node_count()),
            ClusterSpec::BfsPartition { clusters } => bfs_partition(graph, *clusters),
            ClusterSpec::LabelPropagation { max_sweeps, seed } => {
                use rand::SeedableRng;
                let mut rng = rand::rngs::SmallRng::seed_from_u64(*seed);
                label_propagation(graph, *max_sweeps, &mut rng)
            }
            ClusterSpec::Explicit(labels) => {
                assert_eq!(labels.len(), graph.node_count(), "labels per node");
                Clustering::from_labels(labels)
            }
            ClusterSpec::Single => whole_graph_cluster(graph.node_count()),
        };
        SndEngine {
            graph,
            config,
            clustering,
            approx_ctx: OnceLock::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &SndConfig {
        &self.config
    }

    /// The bank clustering.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Computes the ground geometry for `(state, op)` — reusable across
    /// comparisons whose ground state is `state`. Per-cluster SSSPs fan out
    /// over the rayon pool; bit-identical to
    /// [`geometry_seq`](Self::geometry_seq).
    pub fn geometry(&self, state: &NetworkState, op: Opinion) -> GroundGeometry {
        compute_geometry(self.graph, &self.clustering, state, op, &self.config)
    }

    /// Fully sequential [`geometry`](Self::geometry): no thread fan-out.
    /// The `*_seq` reference paths use this so they stay single-threaded
    /// end to end.
    pub fn geometry_seq(&self, state: &NetworkState, op: Opinion) -> GroundGeometry {
        crate::banks::compute_geometry_seq(self.graph, &self.clustering, state, op, &self.config)
    }

    /// Computes the full per-state bundle — both opinion geometries (in
    /// parallel) plus an empty shared row cache. This is the unit of reuse
    /// for batch evaluation: every comparison grounded in `state` draws its
    /// SSSP rows from the bundle's cache, so each
    /// `(opinion, direction, node)` row is computed at most once per
    /// ground state no matter how many comparisons touch it.
    pub fn state_geometry(&self, state: &NetworkState) -> StateGeometry {
        let (pos, neg) = rayon::join(
            || self.geometry(state, Opinion::Positive),
            || self.geometry(state, Opinion::Negative),
        );
        StateGeometry::new(pos, neg, RowCache::new(self.graph.node_count()))
    }

    /// SND between two states via the sparse (Theorem 4) path.
    pub fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        self.breakdown(a, b).total()
    }

    /// Fully sequential [`distance`](Self::distance): no thread fan-out
    /// anywhere. Reference for determinism tests and single-core baselines;
    /// returns bit-identical values to the parallel path.
    pub fn distance_seq(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        self.breakdown_seq(a, b).total()
    }

    /// Fully sequential [`breakdown`](Self::breakdown).
    pub fn breakdown_seq(&self, a: &NetworkState, b: &NetworkState) -> SndBreakdown {
        let ga_pos = self.geometry_seq(a, Opinion::Positive);
        let ga_neg = self.geometry_seq(a, Opinion::Negative);
        let gb_pos = self.geometry_seq(b, Opinion::Positive);
        let gb_neg = self.geometry_seq(b, Opinion::Negative);
        self.breakdown_with_geometry_seq(a, b, [&ga_pos, &ga_neg, &gb_pos, &gb_neg])
    }

    /// Fully sequential
    /// [`breakdown_with_geometry`](Self::breakdown_with_geometry).
    pub fn breakdown_with_geometry_seq(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        geoms: [&GroundGeometry; 4],
    ) -> SndBreakdown {
        let term = |geom: &GroundGeometry, p: &NetworkState, q: &NetworkState, op: Opinion| {
            sparse::emd_star_term(
                self.graph,
                &self.clustering,
                geom,
                p,
                q,
                op,
                &self.config,
                None,
            )
        };
        SndBreakdown {
            forward_pos: term(geoms[0], a, b, Opinion::Positive),
            forward_neg: term(geoms[1], a, b, Opinion::Negative),
            backward_pos: term(geoms[2], b, a, Opinion::Positive),
            backward_neg: term(geoms[3], b, a, Opinion::Negative),
        }
    }

    /// The four Eq. 3 terms via the sparse path. Geometries and terms are
    /// evaluated concurrently; the result is bit-identical to a sequential
    /// evaluation.
    pub fn breakdown(&self, a: &NetworkState, b: &NetworkState) -> SndBreakdown {
        let ((ga_pos, ga_neg), (gb_pos, gb_neg)) = rayon::join(
            || {
                rayon::join(
                    || self.geometry(a, Opinion::Positive),
                    || self.geometry(a, Opinion::Negative),
                )
            },
            || {
                rayon::join(
                    || self.geometry(b, Opinion::Positive),
                    || self.geometry(b, Opinion::Negative),
                )
            },
        );
        self.breakdown_with_geometry(a, b, [&ga_pos, &ga_neg, &gb_pos, &gb_neg])
    }

    /// The four Eq. 3 terms given precomputed geometries
    /// `[D(a,+), D(a,−), D(b,+), D(b,−)]` — the building block for series
    /// evaluation where adjacent pairs share ground states. Terms are
    /// computed concurrently (they are independent transportation solves).
    pub fn breakdown_with_geometry(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        geoms: [&GroundGeometry; 4],
    ) -> SndBreakdown {
        self.terms(a, b, geoms, [None, None, None, None])
    }

    /// [`breakdown_with_geometry`](Self::breakdown_with_geometry) drawing
    /// SSSP rows from per-state bundles: `ga` must be `a`'s geometry and
    /// `gb` must be `b`'s. Rows computed here stay in the bundles' caches
    /// for later comparisons sharing either ground state.
    pub fn breakdown_with(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
    ) -> SndBreakdown {
        self.terms(
            a,
            b,
            [&ga.pos, &ga.neg, &gb.pos, &gb.neg],
            [
                Some(&ga.cache),
                Some(&ga.cache),
                Some(&gb.cache),
                Some(&gb.cache),
            ],
        )
    }

    /// The four Eq. 3 terms over explicit geometries and row caches — the
    /// borrowing building block behind
    /// [`breakdown_with`](Self::breakdown_with) and the delta series path
    /// (which owns its geometries inside repairable bundles and must not
    /// clone them per transition).
    pub(crate) fn terms(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        geoms: [&GroundGeometry; 4],
        caches: [Option<&RowCache>; 4],
    ) -> SndBreakdown {
        self.terms_sketched(a, b, geoms, caches, [None, None, None, None])
    }

    /// [`terms`](Self::terms) with optional delta-repaired landmark rows
    /// per term — the series paths pass their live sketch bundles so the
    /// approximate tier prices without re-running the 2·L sketch SSSPs.
    pub(crate) fn terms_sketched(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        geoms: [&GroundGeometry; 4],
        caches: [Option<&RowCache>; 4],
        sketches: [Option<&crate::delta::SketchRows>; 4],
    ) -> SndBreakdown {
        // `Solver::Auto`-style tier routing: when the approximate tier is
        // active for this engine (configured, supported bank mode, graph at
        // least `min_nodes`), every scalar term is read off its certified
        // interval by `term_value`; otherwise the exact sparse path runs.
        let approx = self.approx_if_active();
        let term = |geom: &GroundGeometry,
                    cache: Option<&RowCache>,
                    sketch: Option<&crate::delta::SketchRows>,
                    p: &NetworkState,
                    q: &NetworkState,
                    op: Opinion| {
            if let Some(a_cfg) = &approx {
                return term_value(self.approx_term(geom, cache, sketch, p, q, op, a_cfg));
            }
            sparse::emd_star_term(
                self.graph,
                &self.clustering,
                geom,
                p,
                q,
                op,
                &self.config,
                cache,
            )
        };
        let ((forward_pos, forward_neg), (backward_pos, backward_neg)) = rayon::join(
            || {
                rayon::join(
                    || term(geoms[0], caches[0], sketches[0], a, b, Opinion::Positive),
                    || term(geoms[1], caches[1], sketches[1], a, b, Opinion::Negative),
                )
            },
            || {
                rayon::join(
                    || term(geoms[2], caches[2], sketches[2], b, a, Opinion::Positive),
                    || term(geoms[3], caches[3], sketches[3], b, a, Opinion::Negative),
                )
            },
        );
        SndBreakdown {
            forward_pos,
            forward_neg,
            backward_pos,
            backward_neg,
        }
    }

    /// The approx config when the approximate tier handles this engine's
    /// *scalar* queries ([`distance`](Self::distance), series, pairwise,
    /// tiles): configured, valid, per-bin banks, and the graph at least
    /// `min_nodes` nodes. `None` keeps everything exact. The `*_seq`
    /// reference paths and [`distance_dense`](Self::distance_dense) never
    /// route here — they stay exact oracles.
    pub(crate) fn approx_if_active(&self) -> Option<ApproxConfig> {
        let a = self.config.approx.as_ref()?;
        if a.validate().is_err()
            || approx::unsupported_bank_mode(&self.config).is_some()
            || self.graph.node_count() < a.min_nodes
        {
            return None;
        }
        Some(a.clone())
    }

    /// The lazily-built sketch context (landmark set + quotient hierarchy).
    pub(crate) fn approx_ctx(&self) -> &ApproxCtx {
        self.approx_ctx.get_or_init(|| {
            let a = self.config.approx.clone().unwrap_or_default();
            approx::build_ctx(self.graph, &a)
        })
    }

    /// The sketch context when the delta series path should maintain a
    /// live landmark-row bundle: an approx config is present, valid, and
    /// the bank mode is per-bin. Deliberately *not* gated on `min_nodes` —
    /// interval surfaces run the sketch machinery on any size, so the
    /// bundle must exist whenever intervals might be priced.
    pub(crate) fn delta_sketch_ctx(&self) -> Option<&ApproxCtx> {
        let a = self.config.approx.as_ref()?;
        if a.validate().is_err() || approx::unsupported_bank_mode(&self.config).is_some() {
            return None;
        }
        Some(self.approx_ctx())
    }

    /// Certified `[lower, upper]` for one EMD\* term via the sketch tier.
    /// Falls back to a term-local row cache when the caller has none (the
    /// interval is certified either way; a shared cache just reuses SSSPs).
    #[allow(clippy::too_many_arguments)] // the exact term surface plus the approx knobs
    pub(crate) fn approx_term(
        &self,
        geom: &GroundGeometry,
        cache: Option<&RowCache>,
        sketch: Option<&crate::delta::SketchRows>,
        p: &NetworkState,
        q: &NetworkState,
        op: Opinion,
        approx_cfg: &ApproxConfig,
    ) -> (f64, f64) {
        let outcome = self.approx_term_outcome(geom, cache, sketch, p, q, op, approx_cfg);
        (outcome.lower, outcome.upper)
    }

    /// [`approx_term`](Self::approx_term) keeping the adaptive-placement
    /// feedback — the series interval path consumes it.
    #[allow(clippy::too_many_arguments)] // the exact term surface plus the approx knobs
    fn approx_term_outcome(
        &self,
        geom: &GroundGeometry,
        cache: Option<&RowCache>,
        sketch: Option<&crate::delta::SketchRows>,
        p: &NetworkState,
        q: &NetworkState,
        op: Opinion,
        approx_cfg: &ApproxConfig,
    ) -> approx::TermOutcome {
        let run = |c: &RowCache| {
            approx::emd_star_term_interval(
                self.graph,
                &self.clustering,
                self.approx_ctx(),
                geom,
                p,
                q,
                op,
                &self.config,
                approx_cfg,
                c,
                sketch,
            )
        };
        match cache {
            Some(c) => run(c),
            None => run(&RowCache::new(self.graph.node_count())),
        }
    }

    /// Certified SND interval `lower ≤ SND(a, b) ≤ upper` via the
    /// approximate tier (landmark sketches + coarsening + ε-refinement,
    /// see [`crate::approx`]).
    ///
    /// This is the *explicit* interval query: it runs the sketch machinery
    /// regardless of [`ApproxConfig::min_nodes`] (tiny reduced problems
    /// still short-circuit to exact, zero-width intervals), and uses
    /// [`ApproxConfig::default`] when the engine has no approx config.
    /// Errors when ε is invalid or the bank mode is not per-bin.
    pub fn distance_interval(
        &self,
        a: &NetworkState,
        b: &NetworkState,
    ) -> Result<SndInterval, ApproxError> {
        let approx_cfg = self.validated_approx()?;
        let (ga, gb) = rayon::join(|| self.state_geometry(a), || self.state_geometry(b));
        let interval = self.interval_with(a, b, &ga, &gb, &approx_cfg);
        approx::emit_trace_summary("distance_interval");
        Ok(interval)
    }

    /// Certified intervals for every adjacent transition of a series —
    /// the interval-carrying analogue of
    /// [`series_distances`](Self::series_distances), and like it
    /// **delta-aware**: the series is walked with repairable
    /// [`DeltaStateGeometry`](crate::delta::DeltaStateGeometry) bundles
    /// (≤ 2 live), so edge costs are re-derived on touched edges only and
    /// — when the engine carries an approx config — the 2·L landmark
    /// sketch rows are *repaired* across each transition instead of
    /// recomputed. After each priced transition the refinement loop's
    /// worst-cell feedback adapts the next ground state's landmark set
    /// (`DeltaStateGeometry::adapt_sketch`).
    pub fn series_intervals(
        &self,
        states: &[NetworkState],
    ) -> Result<Vec<SndInterval>, ApproxError> {
        let approx_cfg = self.validated_approx()?;
        if states.len() < 2 {
            return Ok(Vec::new());
        }
        let g = self.graph;
        let n = g.node_count();
        let mut out = Vec::with_capacity(states.len() - 1);
        let mut prev = crate::delta::DeltaStateGeometry::fresh(self, &states[0]);
        let mut prev_rows = RowCache::new(n);
        for t in 1..states.len() {
            let delta = snd_models::StateDelta::between(g, &states[t - 1], &states[t]);
            if delta.is_empty() {
                out.push(SndInterval {
                    lower: 0.0,
                    upper: 0.0,
                });
                continue;
            }
            let mut cur = prev.step(self, &states[t], &delta);
            let cur_rows = RowCache::new(n);
            let (interval, feedback) = self.interval_terms(
                &states[t - 1],
                &states[t],
                [&prev.pos.geom, &prev.neg.geom, &cur.pos.geom, &cur.neg.geom],
                [
                    Some(&prev_rows),
                    Some(&prev_rows),
                    Some(&cur_rows),
                    Some(&cur_rows),
                ],
                [
                    prev.pos.sketch.as_ref(),
                    prev.neg.sketch.as_ref(),
                    cur.pos.sketch.as_ref(),
                    cur.neg.sketch.as_ref(),
                ],
                &approx_cfg,
            );
            out.push(interval);
            // The backward terms ground in `cur`, which is exactly the
            // next transition's forward ground state — fold their hot
            // cells into its landmark set before stepping on.
            let [_, _, feedback_pos, feedback_neg] = feedback;
            cur.adapt_sketch(
                self,
                Opinion::Positive,
                &feedback_pos,
                approx_cfg.max_landmarks,
            );
            cur.adapt_sketch(
                self,
                Opinion::Negative,
                &feedback_neg,
                approx_cfg.max_landmarks,
            );
            prev = cur;
            prev_rows = cur_rows;
        }
        approx::emit_trace_summary("series_intervals");
        Ok(out)
    }

    /// The pre-delta interval series baseline: a fresh
    /// [`state_geometry`](Self::state_geometry) per snapshot, landmark
    /// rows re-fetched through each bundle's cache (2·L sketch SSSPs per
    /// plane per snapshot), no adaptation. Certified exactly like
    /// [`series_intervals`](Self::series_intervals); kept as the
    /// re-sketch baseline the `scale_series` bench measures the
    /// delta-repaired path against.
    pub fn series_intervals_fresh(
        &self,
        states: &[NetworkState],
    ) -> Result<Vec<SndInterval>, ApproxError> {
        let approx_cfg = self.validated_approx()?;
        if states.len() < 2 {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(states.len() - 1);
        let mut prev = self.state_geometry(&states[0]);
        for t in 1..states.len() {
            if states[t - 1] == states[t] {
                out.push(SndInterval {
                    lower: 0.0,
                    upper: 0.0,
                });
                continue;
            }
            let cur = self.state_geometry(&states[t]);
            out.push(self.interval_with(&states[t - 1], &states[t], &prev, &cur, &approx_cfg));
            prev = cur;
        }
        approx::emit_trace_summary("series_intervals_fresh");
        Ok(out)
    }

    /// The engine's approx config (or the default), validated for interval
    /// queries: ε well-formed, bank mode per-bin.
    fn validated_approx(&self) -> Result<ApproxConfig, ApproxError> {
        let approx_cfg = self.config.approx.clone().unwrap_or_default();
        approx_cfg.validate()?;
        if let Some(mode) = approx::unsupported_bank_mode(&self.config) {
            return Err(ApproxError::UnsupportedBankMode(mode));
        }
        Ok(approx_cfg)
    }

    /// Sums the four per-term intervals into the Eq. 3 SND interval
    /// (`½·Σ` of each envelope — interval arithmetic over independent
    /// certified bounds), keeping each term's adaptive-placement feedback
    /// in breakdown order (forward+, forward−, backward+, backward−).
    /// Terms run concurrently like [`terms`](Self::terms).
    fn interval_terms(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        geoms: [&GroundGeometry; 4],
        caches: [Option<&RowCache>; 4],
        sketches: [Option<&crate::delta::SketchRows>; 4],
        approx_cfg: &ApproxConfig,
    ) -> (SndInterval, [approx::TermFeedback; 4]) {
        let term = |geom: &GroundGeometry,
                    cache: Option<&RowCache>,
                    sketch: Option<&crate::delta::SketchRows>,
                    p: &NetworkState,
                    q: &NetworkState,
                    op| {
            self.approx_term_outcome(geom, cache, sketch, p, q, op, approx_cfg)
        };
        let ((fp, fn_), (bp, bn)) = rayon::join(
            || {
                rayon::join(
                    || term(geoms[0], caches[0], sketches[0], a, b, Opinion::Positive),
                    || term(geoms[1], caches[1], sketches[1], a, b, Opinion::Negative),
                )
            },
            || {
                rayon::join(
                    || term(geoms[2], caches[2], sketches[2], b, a, Opinion::Positive),
                    || term(geoms[3], caches[3], sketches[3], b, a, Opinion::Negative),
                )
            },
        );
        let interval = SndInterval {
            lower: 0.5 * (fp.lower + fn_.lower + bp.lower + bn.lower),
            upper: 0.5 * (fp.upper + fn_.upper + bp.upper + bn.upper),
        };
        (
            interval,
            [fp.feedback, fn_.feedback, bp.feedback, bn.feedback],
        )
    }

    /// [`interval_terms`](Self::interval_terms) over two per-state
    /// bundles, feedback discarded — the pair-query surface.
    fn interval_with(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
        approx_cfg: &ApproxConfig,
    ) -> SndInterval {
        let (interval, _) = self.interval_terms(
            a,
            b,
            [&ga.pos, &ga.neg, &gb.pos, &gb.neg],
            [
                Some(&ga.cache),
                Some(&ga.cache),
                Some(&gb.cache),
                Some(&gb.cache),
            ],
            [
                ga.sketch_pos.as_ref(),
                ga.sketch_neg.as_ref(),
                gb.sketch_pos.as_ref(),
                gb.sketch_neg.as_ref(),
            ],
            approx_cfg,
        );
        interval
    }

    /// SND via the dense reference path (full APSP + full extended LP).
    /// `O(n²)` memory — intended for validation and the Fig. 11 baseline.
    pub fn distance_dense(&self, a: &NetworkState, b: &NetworkState) -> f64 {
        let term = |ground_state: &NetworkState, p: &NetworkState, q: &NetworkState, op| {
            let geom = self.geometry(ground_state, op);
            dense::emd_star_term(self.graph, &self.clustering, &geom, p, q, op, &self.config)
        };
        0.5 * (term(a, a, b, Opinion::Positive)
            + term(a, a, b, Opinion::Negative)
            + term(b, b, a, Opinion::Positive)
            + term(b, b, a, Opinion::Negative))
    }

    /// Distances between adjacent states of a series (sparse path),
    /// evaluated **delta-aware**: consecutive snapshots share everything
    /// their [`StateDelta`](snd_models::StateDelta) leaves untouched —
    /// edge costs are re-derived only on touched edges, cluster-bank SSSP
    /// rows are *repaired* rather than recomputed, identical states
    /// short-circuit to zero — with an automatic fallback to a fresh
    /// rebuild on high-churn transitions (see [`crate::delta`]). Returns
    /// `states.len() − 1` values, bit-identical to
    /// [`series_distances_seq`](Self::series_distances_seq). Exactly two
    /// repairable geometry bundles (and two row caches) are live at any
    /// point; the geometries are *borrowed* into the term evaluation —
    /// never cloned per transition.
    pub fn series_distances(&self, states: &[NetworkState]) -> Vec<f64> {
        if states.len() < 2 {
            return Vec::new();
        }
        let n = self.graph.node_count();
        let mut out = Vec::with_capacity(states.len() - 1);
        let mut prev = crate::delta::DeltaStateGeometry::fresh(self, &states[0]);
        let mut prev_rows = RowCache::new(n);
        for t in 1..states.len() {
            let delta = snd_models::StateDelta::between(self.graph, &states[t - 1], &states[t]);
            if delta.is_empty() {
                // Identical states: every EMD* term is exactly zero, and
                // the geometry (hence the caches) carries over untouched.
                out.push(SndBreakdown::default().total());
                continue;
            }
            let cur = prev.step(self, &states[t], &delta);
            let cur_rows = RowCache::new(n);
            let breakdown = self.terms_sketched(
                &states[t - 1],
                &states[t],
                [&prev.pos.geom, &prev.neg.geom, &cur.pos.geom, &cur.neg.geom],
                [
                    Some(&prev_rows),
                    Some(&prev_rows),
                    Some(&cur_rows),
                    Some(&cur_rows),
                ],
                [
                    prev.pos.sketch.as_ref(),
                    prev.neg.sketch.as_ref(),
                    cur.pos.sketch.as_ref(),
                    cur.neg.sketch.as_ref(),
                ],
            );
            out.push(breakdown.total());
            prev = cur;
            prev_rows = cur_rows; // the old cache drops here
        }
        out
    }

    /// Sequential reference implementation of
    /// [`series_distances`](Self::series_distances): one transition at a
    /// time with no thread fan-out, geometries shared between adjacent
    /// pairs (the seed's original behavior). Kept for validation and
    /// single-core baselines. Identical consecutive states short-circuit
    /// to [`SndBreakdown::default`] — every EMD\* term over equal states
    /// is exactly zero and the geometry carries over unchanged, so the
    /// shortcut is value-preserving.
    pub fn series_distances_seq(&self, states: &[NetworkState]) -> Vec<f64> {
        if states.len() < 2 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(states.len() - 1);
        let mut prev = (
            self.geometry_seq(&states[0], Opinion::Positive),
            self.geometry_seq(&states[0], Opinion::Negative),
        );
        for t in 1..states.len() {
            if states[t - 1] == states[t] {
                out.push(SndBreakdown::default().total());
                continue;
            }
            let cur = (
                self.geometry_seq(&states[t], Opinion::Positive),
                self.geometry_seq(&states[t], Opinion::Negative),
            );
            let breakdown = self.breakdown_with_geometry_seq(
                &states[t - 1],
                &states[t],
                [&prev.0, &prev.1, &cur.0, &cur.1],
            );
            out.push(breakdown.total());
            prev = cur;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use snd_graph::generators::{barabasi_albert, path_graph};

    #[test]
    fn snd_is_zero_on_identical_states() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = NetworkState::from_values(&[1, 0, -1, 0, 1, 1, 0, -1]);
        assert_eq!(engine.distance(&s, &s), 0.0);
    }

    #[test]
    fn approx_activation_honors_the_measured_min_nodes_crossover() {
        // The default floor is the one-thread scale_approx crossover
        // (between 10⁴ and 5·10⁴ nodes); BENCH_scale_approx.json, on two
        // threads, already measures 1.42× at 10⁴ (see `min_nodes`). This
        // pins both the constant and the boundary it gates.
        assert_eq!(ApproxConfig::default().min_nodes, 50_000);
        let config = SndConfig {
            approx: Some(ApproxConfig::default()),
            ..SndConfig::default()
        };
        let at = path_graph(50_000);
        assert!(
            SndEngine::new(&at, config.clone())
                .approx_if_active()
                .is_some(),
            "at the crossover the tier activates"
        );
        let below = path_graph(49_999);
        assert!(
            SndEngine::new(&below, config).approx_if_active().is_none(),
            "below the crossover the exact tier wins"
        );
    }

    #[test]
    fn snd_is_symmetric_by_construction() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let a = NetworkState::from_values(&[1, 0, -1, 0, 0, 1, 0, 0]);
        let b = NetworkState::from_values(&[0, 1, -1, 0, -1, 1, 0, 1]);
        let ab = engine.distance(&a, &b);
        let ba = engine.distance(&b, &a);
        assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
        assert!(ab > 0.0);
    }

    #[test]
    fn sparse_matches_dense_on_small_random_instances() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = barabasi_albert(24, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        use rand::Rng;
        for trial in 0..8 {
            let vals_a: Vec<i8> = (0..24).map(|_| rng.gen_range(-1..=1)).collect();
            let vals_b: Vec<i8> = (0..24).map(|_| rng.gen_range(-1..=1)).collect();
            let a = NetworkState::from_values(&vals_a);
            let b = NetworkState::from_values(&vals_b);
            let sparse = engine.distance(&a, &b);
            let dense = engine.distance_dense(&a, &b);
            assert!(
                (sparse - dense).abs() < 1e-6,
                "trial {trial}: sparse {sparse} vs dense {dense}"
            );
        }
    }

    #[test]
    fn series_matches_pairwise_distances() {
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let states = vec![
            NetworkState::from_values(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            NetworkState::from_values(&[1, 1, 0, 0, 0, 0, 0, 0, 0, -1]),
            NetworkState::from_values(&[1, 1, 0, 0, 1, 0, 0, -1, 0, -1]),
        ];
        let series = engine.series_distances(&states);
        assert_eq!(series.len(), 2);
        assert!((series[0] - engine.distance(&states[0], &states[1])).abs() < 1e-9);
        assert!((series[1] - engine.distance(&states[1], &states[2])).abs() < 1e-9);
    }

    #[test]
    fn parallel_breakdown_is_bit_identical_to_sequential_reference() {
        let mut rng = SmallRng::seed_from_u64(97);
        let g = barabasi_albert(20, 2, &mut rng);
        let engine = SndEngine::new(&g, SndConfig::default());
        use rand::Rng;
        let vals_a: Vec<i8> = (0..20).map(|_| rng.gen_range(-1..=1)).collect();
        let vals_b: Vec<i8> = (0..20).map(|_| rng.gen_range(-1..=1)).collect();
        let a = NetworkState::from_values(&vals_a);
        let b = NetworkState::from_values(&vals_b);

        let ga_pos = engine.geometry_seq(&a, Opinion::Positive);
        let ga_neg = engine.geometry_seq(&a, Opinion::Negative);
        let gb_pos = engine.geometry_seq(&b, Opinion::Positive);
        let gb_neg = engine.geometry_seq(&b, Opinion::Negative);
        let geoms = [&ga_pos, &ga_neg, &gb_pos, &gb_neg];

        let seq = engine.breakdown_with_geometry_seq(&a, &b, geoms);
        let par = engine.breakdown_with_geometry(&a, &b, geoms);
        // Bit identity, not tolerance: the parallel fan-out must change
        // nothing about the arithmetic.
        assert_eq!(seq.total().to_bits(), par.total().to_bits());
        assert_eq!(
            seq.total().to_bits(),
            engine.breakdown(&a, &b).total().to_bits()
        );
        assert_eq!(
            seq.total().to_bits(),
            engine.breakdown_seq(&a, &b).total().to_bits()
        );
    }

    #[test]
    fn opposite_polarity_states_are_far() {
        // Flipping every active user's opinion should cost much more than
        // keeping opinions and moving one user.
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let base = NetworkState::from_values(&[1, 1, 0, 0, 0, 0, 0, 0, -1, -1]);
        let flipped = NetworkState::from_values(&[-1, -1, 0, 0, 0, 0, 0, 0, 1, 1]);
        let mut shifted = base.clone();
        shifted.set(1, Opinion::Neutral);
        shifted.set(2, Opinion::Positive);
        let d_flip = engine.distance(&base, &flipped);
        let d_shift = engine.distance(&base, &shifted);
        assert!(
            d_flip > 2.0 * d_shift,
            "flip {d_flip} should dwarf shift {d_shift}"
        );
    }
}
