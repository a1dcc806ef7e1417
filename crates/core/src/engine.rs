//! The SND engine: Eq. 3 over a fixed graph and configuration.
//!
//! # Threading model
//!
//! [`SndEngine`] is immutable after construction and `Sync`: share one
//! engine by reference across any number of threads. Per-call parallelism
//! is internal — [`breakdown`](SndEngine::breakdown) builds its two
//! bundles concurrently, then fills their SSSP rows and prices its four
//! EMD\* terms over the thread pool, and
//! [`pairwise_distances`](SndEngine::pairwise_distances) fans comparisons
//! out over all cores. [`series_distances`](SndEngine::series_distances)
//! is the superdiagonal tile plan (see [`crate::shard`]): it walks the
//! series *incrementally* (delta-aware, see [`crate::delta`]) with
//! per-transition parallelism only. Results are bit-identical to a
//! sequential evaluation either way: every term is an independent exact
//! computation and reductions happen in a fixed order.
//!
//! # One path per term
//!
//! Every EMD\* term of every surface is priced by one router,
//! `SndEngine::price_term`: it takes the term's ground plane and row
//! cache, its states, its opinion and the approximate-tier config, if
//! any, and runs the exact sparse path or the certified approximate one.
//! The scalar surfaces pass the config only when the approximate tier is
//! active for this engine; the interval surfaces always pass it. Its one
//! caller is `SndEngine::price_pairs` ([`crate::batch`]): a single pair
//! is the pair `(0, 1)` of `[a, b]`, and the matrix, every tile plan and
//! both series surfaces price their tiles' pairs. The `*_seq` references
//! and [`CandidateEvaluator::price`](crate::CandidateEvaluator::price)
//! stay outside it; the latter solves through
//! `sparse::solve_reduced_term`, so it prices exactly even when the
//! engine's approximate tier is active.
//!
//! Parallelism nests safely: terms running on the shared rayon pool may
//! themselves fan out; the pool's caller-participation guarantee means
//! inner fan-outs always progress even with every worker busy on outer
//! terms. Every transportation solve prices on its calling thread.

use std::sync::{Arc, OnceLock};

use snd_graph::{bfs_partition, whole_graph_cluster, Clustering, CsrGraph};
use snd_models::{NetworkState, Opinion};

use crate::approx::{ApproxConfig, ApproxCtx, ApproxError, SndInterval};
use crate::banks::{compute_geometry, GroundGeometry};
use crate::batch::{term_value, SeedRows};
use crate::config::{ClusterSpec, SndConfig};
use crate::delta::DeltaStateGeometry;
use crate::shard::{ShardPlan, TileGrid, TileSet};
use crate::sparse::{Columns, RowCache};
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

    /// The breakdown of four priced terms in breakdown order (forward +,
    /// forward −, backward +, backward −), reading each through `value`.
    pub(crate) fn from_terms<T>(terms: &[T], value: impl Fn(&T) -> f64) -> SndBreakdown {
        SndBreakdown {
            forward_pos: value(&terms[0]),
            forward_neg: value(&terms[1]),
            backward_pos: value(&terms[2]),
            backward_neg: value(&terms[3]),
        }
    }
}

/// Per-state evaluation bundle: both opinion geometries plus the shared,
/// thread-safe SSSP row cache for comparisons grounded in that state.
/// Built by [`SndEngine::state_geometry`] (or [`StateGeometry::new`] and
/// the crate's `StateGeometry::shared` — the only constructors, so the
/// live/peak accounting below stays balanced with the `Drop` impl),
/// consumed by
/// [`SndEngine::breakdown_with`] and the batch entry points.
pub struct StateGeometry {
    /// `D(state, +)` geometry, shared with the delta bundle it came from.
    pub(crate) pos: Arc<GroundGeometry>,
    /// `D(state, −)` geometry, shared likewise.
    pub(crate) neg: Arc<GroundGeometry>,
    /// Shared row cache (one slot per `(opinion, direction, node)`, and
    /// on cluster banks one per `(opinion, direction, cluster)`).
    pub(crate) cache: RowCache,
}

/// Live [`StateGeometry`] bundles right now — each holds O(n) geometry
/// plus its row cache, so series evaluation must bound this.
static LIVE_BUNDLES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// High-water mark of [`LIVE_BUNDLES`] since the last reset.
static PEAK_BUNDLES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl StateGeometry {
    /// Assembles a bundle, tracking it in the live/peak accounting.
    pub fn new(pos: GroundGeometry, neg: GroundGeometry, cache: RowCache) -> StateGeometry {
        Self::shared(Arc::new(pos), Arc::new(neg), cache)
    }

    /// [`new`](Self::new) over geometries shared with their owner (a
    /// [`DeltaStateGeometry`](crate::DeltaStateGeometry) of the bundle
    /// chain), so the bundle copies neither.
    pub(crate) fn shared(
        pos: Arc<GroundGeometry>,
        neg: Arc<GroundGeometry>,
        cache: RowCache,
    ) -> StateGeometry {
        use std::sync::atomic::Ordering;
        let live = LIVE_BUNDLES.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK_BUNDLES.fetch_max(live, Ordering::Relaxed);
        StateGeometry { pos, neg, cache }
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

    /// Number of inter-cluster rows written into this bundle's cache so
    /// far, fresh or repaired ([`RowCache::cluster_rows`]; none in
    /// per-bin mode). Not part of [`cached_rows`](Self::cached_rows).
    pub fn cluster_rows(&self) -> usize {
        self.cache.cluster_rows()
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
    /// Lazily-built approximate-tier context (the landmark set) —
    /// topology-only, so one build serves every query.
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

    /// The bank clustering, mutably: tests add a cluster with no members,
    /// which no constructor builds.
    #[cfg(test)]
    pub(crate) fn clustering_mut(&mut self) -> &mut Clustering {
        &mut self.clustering
    }

    /// Computes the eager ground geometry for `(state, op)`, its full
    /// inter-cluster matrix included — reusable across comparisons whose
    /// ground state is `state`. Per-cluster SSSPs fan out over the rayon
    /// pool; bit-identical to
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
    /// parallel) plus an empty shared cache of full rows, which any later
    /// comparison against this state can read. This is the unit of reuse
    /// for batch evaluation: every comparison grounded in `state` draws its
    /// SSSP rows from the bundle's cache, so each
    /// `(opinion, direction, node)` row is computed at most once per
    /// ground state no matter how many comparisons touch it. On cluster
    /// banks the geometries carry γ only: the inter-cluster rows a
    /// comparison reads are computed into the cache too, once each.
    pub fn state_geometry(&self, state: &NetworkState) -> StateGeometry {
        self.bundle(state, RowCache::new(self.graph.node_count()))
    }

    /// [`state_geometry`](Self::state_geometry) around the given empty
    /// row cache: the bundle chain's fresh build, keeping no repair state.
    fn bundle(&self, state: &NetworkState, cache: RowCache) -> StateGeometry {
        DeltaStateGeometry::fresh_keeping(self, state, false).bundle_with(cache)
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

    /// The four Eq. 3 terms over precomputed geometries
    /// `[D(a,+), D(a,−), D(b,+), D(b,−)]`, one after another on the
    /// calling thread, always exact: the sequential reference for
    /// [`breakdown_with`](Self::breakdown_with).
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

    /// The four Eq. 3 terms via the sparse path: `price_pairs` (see
    /// [`crate::batch`]) over the one pair `(a, b)`, on two bundles built
    /// concurrently. The result is bit-identical to a sequential
    /// evaluation.
    pub fn breakdown(&self, a: &NetworkState, b: &NetworkState) -> SndBreakdown {
        let terms = self.price_fresh_pair(a, b, self.approx_if_active().as_ref());
        SndBreakdown::from_terms(&terms, |&t| term_value(t))
    }

    /// [`breakdown`](Self::breakdown) over per-state bundles: `ga` must be
    /// `a`'s geometry and `gb` must be `b`'s. SSSP rows come from, and
    /// stay in, the bundles' caches for later comparisons sharing either
    /// ground state; an active approximate tier fetches its landmark rows
    /// through the caches too.
    pub fn breakdown_with(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        ga: &StateGeometry,
        gb: &StateGeometry,
    ) -> SndBreakdown {
        let states = [a.clone(), b.clone()];
        let terms = self.price_pair(&states, [ga, gb], self.approx_if_active().as_ref());
        SndBreakdown::from_terms(&terms, |&t| term_value(t))
    }

    /// The four term envelopes of the pair `states` in [`SndBreakdown`]
    /// order, by `price_pairs` over its two bundles with `approx` (`None`:
    /// exact). The seed store lives for the call: it keeps no row.
    fn price_pair(
        &self,
        states: &[NetworkState; 2],
        bundles: [&StateGeometry; 2],
        approx: Option<&ApproxConfig>,
    ) -> Vec<(f64, f64)> {
        let live = |s: usize| bundles.get(s).copied();
        let seeds = &mut SeedRows::default();
        self.price_pairs(states, live, seeds, |_| false, &[(0, 1)], approx)
    }

    /// [`price_pair`](Self::price_pair) on two fresh bundles, built
    /// concurrently, whose caches keep rows as the tile paths' do
    /// (`Columns::read_by`).
    fn price_fresh_pair(
        &self,
        a: &NetworkState,
        b: &NetworkState,
        approx: Option<&ApproxConfig>,
    ) -> Vec<(f64, f64)> {
        let states = [a.clone(), b.clone()];
        let cols = Columns::read_by(&states, approx.is_some());
        let n = self.graph.node_count();
        let bundle = |s| self.bundle(s, RowCache::gathered(n, cols.clone()));
        let (ga, gb) = rayon::join(|| bundle(a), || bundle(b));
        self.price_pair(&states, [&ga, &gb], approx)
    }

    /// The one EMD\* term router: prices `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))`
    /// over the ground's plane `geom` and row `cache` on the exact tier
    /// when `approx` is `None` (a zero-width interval), else on the
    /// approximate tier (its certified interval). Every surface prices
    /// its terms here, through `price_pairs`: the scalar ones pass
    /// [`approx_if_active`](Self::approx_if_active), the interval ones
    /// their validated config.
    pub(crate) fn price_term(
        &self,
        geom: &GroundGeometry,
        cache: &RowCache,
        p: &NetworkState,
        q: &NetworkState,
        op: Opinion,
        approx: Option<&ApproxConfig>,
    ) -> SndInterval {
        let Some(approx_cfg) = approx else {
            return SndInterval::exact(sparse::emd_star_term(
                self.graph,
                &self.clustering,
                geom,
                p,
                q,
                op,
                &self.config,
                Some(cache),
            ));
        };
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
            cache,
        )
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

    /// The lazily-built sketch context (the landmark set).
    pub(crate) fn approx_ctx(&self) -> &ApproxCtx {
        self.approx_ctx.get_or_init(|| {
            let a = self.config.approx.clone().unwrap_or_default();
            approx::build_ctx(self.graph, &a)
        })
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
        let terms = self.price_fresh_pair(a, b, Some(&approx_cfg));
        approx::emit_trace_summary("distance_interval");
        // `½·Σ` of each envelope end: interval arithmetic over independent
        // certified bounds.
        let total = |end: fn(&(f64, f64)) -> f64| SndBreakdown::from_terms(&terms, end).total();
        Ok(SndInterval {
            lower: total(|e| e.0),
            upper: total(|e| e.1),
        })
    }

    /// Certified intervals for every adjacent transition of a series —
    /// the interval-carrying analogue of
    /// [`series_distances`](Self::series_distances), and like it the
    /// superdiagonal tile plan, priced **delta-aware**: edge costs are
    /// re-derived on touched edges only, and each landmark row is
    /// *repaired* from the previous state's instead of recomputed. Every
    /// transition prices over all [`ApproxConfig::max_landmarks`]
    /// landmarks, so its interval equals
    /// [`distance_interval`](Self::distance_interval) on that pair.
    pub fn series_intervals(
        &self,
        states: &[NetworkState],
    ) -> Result<Vec<SndInterval>, ApproxError> {
        let approx_cfg = self.validated_approx()?;
        let out = self
            .series_tiles(states, Some(&approx_cfg))
            .adjacent(TileSet::pair_interval);
        approx::emit_trace_summary("series_intervals");
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

    /// Distances between adjacent states of a series (sparse path): the
    /// superdiagonal [`ShardPlan`] at tile edge 1, evaluated
    /// **delta-aware**. Consecutive snapshots share everything their
    /// [`StateDelta`](snd_models::StateDelta) leaves untouched: edge costs
    /// are re-derived only on touched edges, the γ balls of cluster banks,
    /// the inter-cluster rows the terms read and each residual user's SSSP
    /// row are *repaired* rather than recomputed, and identical states
    /// price to zero, with an automatic fallback to a fresh rebuild on
    /// high-churn transitions (see
    /// [`crate::delta`]). Returns `states.len() − 1` values, bit-identical
    /// to [`series_distances_seq`](Self::series_distances_seq). At most
    /// two geometry bundles are live at any point, and each shares its
    /// geometry with the repairable chain head instead of copying it.
    pub fn series_distances(&self, states: &[NetworkState]) -> Vec<f64> {
        self.series_tiles(states, self.approx_if_active().as_ref())
            .adjacent(TileSet::pair)
    }

    /// The superdiagonal plan at tile edge 1 over `states`, priced with
    /// `approx` (`None`: exact), in memory: the one series path behind
    /// both series surfaces.
    fn series_tiles(&self, states: &[NetworkState], approx: Option<&ApproxConfig>) -> TileSet {
        let plan = ShardPlan::superdiagonal(TileGrid::new(states.len(), 1));
        self.plan_tiles(states, &plan, approx)
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
        // threads, already measures 3.4× at 10⁴ (see `min_nodes`). This
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
        let (ba, bb) = (engine.state_geometry(&a), engine.state_geometry(&b));
        let par = engine.breakdown_with(&a, &b, &ba, &bb);
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
