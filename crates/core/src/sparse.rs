//! The Theorem 4 sparse path: reduced transportation over `n∆` SSSP rows.
//!
//! One EMD\* term `EMD*(P, Q, D(ground_state, op))` is computed as:
//!
//! 1. **Lemma 2 + Lemma 1 reduction** — users holding `op` in both states
//!    cancel; only the symmetric difference (≤ `n∆` users) remains as
//!    residual suppliers/consumers. Bank capacities are computed from the
//!    *full* (unreduced) cluster masses of the lighter histogram, exactly as
//!    in the dense definition.
//! 2. **Orientation** — banks live on the lighter side. When `P` is heavier
//!    the reduced problem is solved as-is (rows = residual suppliers,
//!    forward SSSP); when `Q` is heavier the transpose is solved instead
//!    (rows = residual consumers, SSSP on reversed edges), so bank bins are
//!    always columns and the number of SSSP runs is always the residual
//!    count of the *heavier* side.
//! 3. **Rows** — one Dial's-algorithm run per row node over the bounded
//!    integer costs, unless the [`RowCache`] already holds the row (the
//!    all-pairs path fills it ahead of the solves, repairing rows across
//!    ground states — see [`crate::batch`]); bank columns come from the
//!    precomputed [`GroundGeometry`] (`γ + inter-cluster distance`),
//!    needing no per-comparison SSSP.
//! 4. **Exact solve** — the reduced problem (balanced by construction) goes
//!    to the configured transportation solver. Under the default
//!    `Solver::Auto` the choice is sized per reduced instance: single-line
//!    shapes are answered directly, column-heavy shapes (few residual rows,
//!    many bank columns — the nearly-identical-snapshot case) take
//!    cost-scaling, and everything else runs the block-priced simplex
//!    (parallel pricing above ~16k cells) — the warm-cache regime where
//!    rows are cache hits and the solve dominates is exactly where this
//!    matters.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use snd_emd::bank_capacities_from_cluster_masses;
use snd_graph::{dial_reverse_scratch, dial_scratch, Clustering, CsrGraph, NodeId, SsspScratch};
use snd_models::{NetworkState, Opinion};
use snd_transport::{solve_balanced, DenseCost, Mass};

use crate::banks::GroundGeometry;
use crate::config::SndConfig;

thread_local! {
    /// Per-thread SSSP scratch: `dist`/bucket buffers are reused across
    /// every row a thread computes instead of being reallocated per call.
    static SSSP_SCRATCH: RefCell<SsspScratch> = RefCell::new(SsspScratch::new());
}

/// Runs `f` with the calling thread's reusable SSSP scratch. Shared by row
/// computation here and the per-cluster geometry fan-out in
/// [`crate::banks`], so every SSSP in the crate reuses one allocation per
/// thread.
pub(crate) fn with_sssp_scratch<R>(f: impl FnOnce(&mut SsspScratch) -> R) -> R {
    SSSP_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// One cached row slot: filled exactly once with the clamped SSSP row.
type RowSlot = OnceLock<Box<[u32]>>;

/// Thread-safe cache of clamped SSSP rows for one ground state, shared
/// across every comparison grounded in that state (series evaluation,
/// all-pairs matrices, [`crate::CandidateEvaluator`] candidate search).
///
/// Layout: four lazily-allocated dense planes — one per `(opinion,
/// direction)` — each a slab of [`OnceLock`] slots indexed directly by
/// node id. Lookups are two array indexes, and synchronization is per
/// *row* (each slot is its own lock), so concurrent readers of different
/// rows never contend and concurrent requests for the same row compute it
/// exactly once. A plane's slot slab (`n` slots, ~24 B each) is only
/// allocated when the first row of that `(opinion, direction)` is
/// requested — a typical comparison touches one direction per opinion, so
/// usually two of the four planes stay empty. Rows are always full-length
/// (`n` entries), so a row cached by one query serves every later one.
///
/// A row gets into the cache one of two ways: a fresh Dial run when a
/// term asks for a row the cache lacks, or a row the all-pairs
/// path built ahead of its solves — fresh, or *repaired* from the same
/// user's row under another ground state with [`snd_graph::repair_row`]
/// (see [`crate::batch`]). Both kinds are exact, so readers cannot tell
/// them apart. [`computed_rows`](RowCache::computed_rows) counts every
/// row written, fresh or repaired; [`repaired_rows`](RowCache::repaired_rows)
/// counts the repaired subset. A cache hit moves neither.
#[derive(Debug)]
pub struct RowCache {
    planes: [OnceLock<Box<[RowSlot]>>; 4],
    n: usize,
    computed: AtomicUsize,
    repaired: AtomicUsize,
}

impl RowCache {
    /// Empty cache for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        RowCache {
            planes: std::array::from_fn(|_| OnceLock::new()),
            n,
            computed: AtomicUsize::new(0),
            repaired: AtomicUsize::new(0),
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.computed_rows()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows written into this cache — fresh SSSP runs plus
    /// repaired rows. A second request for any `(opinion, direction,
    /// node)` row is a hit and does not increment this.
    pub fn computed_rows(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// How many of the [`computed_rows`](Self::computed_rows) were
    /// repaired from another ground state's row instead of run fresh.
    pub fn repaired_rows(&self) -> usize {
        self.repaired.load(Ordering::Relaxed)
    }

    fn plane(op: Opinion, reverse: bool) -> usize {
        // EMD* terms only ever transport the two polar opinions; a neutral
        // key would silently alias the positive plane.
        debug_assert!(op.is_active(), "row cache keys require a polar opinion");
        let op_bit = usize::from(op == Opinion::Negative);
        (op_bit << 1) | usize::from(reverse)
    }

    /// Row lookup-or-compute, shared with the approximate tier
    /// ([`crate::approx`]): landmark rows and refined exact rows live in
    /// the same planes as the exact path's rows, so the two tiers share
    /// SSSP work when both price against one ground state.
    pub(crate) fn get_or_compute(
        &self,
        g: &CsrGraph,
        geom: &GroundGeometry,
        op: Opinion,
        reverse: bool,
        node: NodeId,
    ) -> &[u32] {
        self.slot(op, reverse, node).get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            let mut row = vec![0; self.n].into_boxed_slice();
            compute_row(g, geom, reverse, node, &mut row);
            row
        })
    }

    /// The cached row, if any — never computes.
    pub(crate) fn get(&self, op: Opinion, reverse: bool, node: NodeId) -> Option<&[u32]> {
        self.slot(op, reverse, node).get().map(|r| &r[..])
    }

    /// Stores a row built outside the cache (fresh or `repaired`). A slot
    /// that is already filled keeps its row — both are exact, so nothing
    /// is lost — and the counters do not move.
    pub(crate) fn insert(
        &self,
        op: Opinion,
        reverse: bool,
        node: NodeId,
        row: Box<[u32]>,
        repaired: bool,
    ) {
        debug_assert_eq!(row.len(), self.n, "rows are full-length");
        if self.slot(op, reverse, node).set(row).is_ok() {
            self.computed.fetch_add(1, Ordering::Relaxed);
            self.repaired
                .fetch_add(usize::from(repaired), Ordering::Relaxed);
        }
    }

    fn slot(&self, op: Opinion, reverse: bool, node: NodeId) -> &RowSlot {
        let slots = self.planes[Self::plane(op, reverse)]
            .get_or_init(|| (0..self.n).map(|_| OnceLock::new()).collect());
        &slots[node as usize]
    }
}

/// One clamped SSSP row written into `out` (length `n`), computed on the
/// calling thread's reusable scratch.
pub(crate) fn compute_row(
    g: &CsrGraph,
    geom: &GroundGeometry,
    reverse: bool,
    node: NodeId,
    out: &mut [u32],
) {
    with_sssp_scratch(|scratch| {
        if reverse {
            dial_reverse_scratch(g, &geom.edge_costs, &[node], geom.max_edge_cost, scratch);
        } else {
            dial_scratch(g, &geom.edge_costs, &[node], geom.max_edge_cost, scratch);
        }
        for (o, d) in out.iter_mut().zip(scratch.distances(g.node_count())) {
            *o = geom.clamp(d);
        }
    })
}

/// The lighter histogram's bank inputs for one classified EMD\* term —
/// whatever [`solve_reduced_term`] needs to reproduce the bank columns of
/// the full classification, supplied by either classification route (the
/// `O(n)` state scan in [`emd_star_term`], or the `O(flips)` derivation in
/// [`crate::ordered::CandidateEvaluator`]).
pub(crate) enum BankBins {
    /// `total_p == total_q`: no surplus, no bank columns at all.
    Balanced,
    /// Per-bin geometry: the lighter side's active bins, ascending. May be
    /// empty (the uniform-spread degenerate case is handled in the solve).
    PerBin(Vec<NodeId>),
    /// Cluster geometry: the lighter side's *full* (unreduced) per-cluster
    /// masses, already scaled.
    Cluster(Vec<Mass>),
}

/// One EMD\* term after Lemma 1/2 classification, ready to assemble and
/// solve. Both residual lists are ascending (the classification order the
/// bit-identity discipline pins down); totals are scaled masses.
pub(crate) struct ReducedTerm {
    pub residual_p: Vec<NodeId>,
    pub residual_q: Vec<NodeId>,
    pub total_p: Mass,
    pub total_q: Mass,
    pub banks: BankBins,
}

impl ReducedTerm {
    /// Orientation: `true` when `Q` is the heavier side, so the SSSP rows
    /// are the residual consumers' reverse rows (banks always end up as
    /// columns). The row nodes are then `residual_q`, else `residual_p`.
    pub(crate) fn rows_reversed(&self) -> bool {
        self.total_p < self.total_q
    }
}

/// Computes one EMD\* term `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))` where the ground
/// geometry was built from the same state/opinion. `cache` (optional) reuses
/// SSSP rows across calls sharing this geometry — a shared reference, so
/// concurrent terms over the same ground state fill one cache together.
#[allow(clippy::too_many_arguments)] // mirrors the EMD*(P, Q, D | config) signature
pub fn emd_star_term(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    p_state: &NetworkState,
    q_state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
    cache: Option<&RowCache>,
) -> f64 {
    let n = g.node_count();
    assert_eq!(p_state.len(), n, "state size mismatch");
    assert_eq!(q_state.len(), n, "state size mismatch");
    let term = classify_term(clustering, geom.per_bin, p_state, q_state, op, config.scale);
    solve_reduced_term(g, clustering, geom, op, config, cache, term)
}

/// Lemma 1/2 classification of one EMD\* term by an `O(n)` scan of both
/// states: the residual users (the symmetric difference), the scaled
/// totals, and the lighter side's bank inputs. The front half of
/// [`emd_star_term`]; the all-pairs path also runs it alone to learn which
/// SSSP rows a term will read.
pub(crate) fn classify_term(
    clustering: &Clustering,
    per_bin: bool,
    p_state: &NetworkState,
    q_state: &NetworkState,
    op: Opinion,
    scale: Mass,
) -> ReducedTerm {
    let n = p_state.len();
    let nc = clustering.cluster_count();

    // Classify users; Lemma 2 leaves only the symmetric difference.
    let mut residual_p: Vec<NodeId> = Vec::new();
    let mut residual_q: Vec<NodeId> = Vec::new();
    let mut active_p: Vec<NodeId> = Vec::new();
    let mut active_q: Vec<NodeId> = Vec::new();
    let mut cluster_count_p = vec![0u64; nc];
    let mut cluster_count_q = vec![0u64; nc];
    for u in 0..n as NodeId {
        let in_p = p_state.opinion(u) == op;
        let in_q = q_state.opinion(u) == op;
        if in_p {
            active_p.push(u);
            cluster_count_p[clustering.labels[u as usize] as usize] += 1;
        }
        if in_q {
            active_q.push(u);
            cluster_count_q[clustering.labels[u as usize] as usize] += 1;
        }
        if in_p && !in_q {
            residual_p.push(u);
        } else if in_q && !in_p {
            residual_q.push(u);
        }
    }
    let total_p = active_p.len() as u64 * scale;
    let total_q = active_q.len() as u64 * scale;
    let p_is_lighter = total_p < total_q;
    let banks = if total_p == total_q {
        BankBins::Balanced
    } else if per_bin {
        BankBins::PerBin(if p_is_lighter { active_p } else { active_q })
    } else {
        let counts = if p_is_lighter {
            &cluster_count_p
        } else {
            &cluster_count_q
        };
        BankBins::Cluster(counts.iter().map(|&c| c * scale).collect())
    };
    ReducedTerm {
        residual_p,
        residual_q,
        total_p,
        total_q,
        banks,
    }
}

/// Assembles and solves one classified EMD\* term: bank capacities from
/// the lighter side's inputs, orientation (banks always columns), one SSSP
/// row per heavy-side residual node, exact transportation solve. This is
/// the shared back half of [`emd_star_term`] — every classification route
/// funnels through it, so a flip-derived [`ReducedTerm`] that matches the
/// scan-derived one is priced through literally the same arithmetic.
pub(crate) fn solve_reduced_term(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    op: Opinion,
    config: &SndConfig,
    cache: Option<&RowCache>,
    term: ReducedTerm,
) -> f64 {
    let n = g.node_count();
    let scale = config.scale;
    let nc = clustering.cluster_count();
    let nb = config.banks_per_cluster.max(1);
    let reverse = term.rows_reversed();
    let ReducedTerm {
        residual_p,
        residual_q,
        total_p,
        total_q,
        banks,
    } = term;
    if total_p == 0 && total_q == 0 {
        return 0.0;
    }
    let delta = total_p.abs_diff(total_q);

    // Bank bins on the lighter side, capacities from the *full* (unreduced)
    // masses. Per-bin mode: one bank per active bin of the lighter
    // histogram, each at distance `per_bin_gamma` from its bin; cluster
    // mode: `nb` banks per cluster at the precomputed γ / inter-cluster
    // distances.
    let (bank_bins, bank_caps): (Vec<NodeId>, Vec<Mass>) = match banks {
        BankBins::Balanced => {
            debug_assert_eq!(delta, 0, "balanced term must carry no surplus");
            (Vec::new(), Vec::new())
        }
        BankBins::PerBin(bins) => {
            if bins.is_empty() {
                // The lighter histogram is empty: the capacity rule
                // degenerates to a uniform spread over every bin (matching
                // the dense-path `proportional_split` fallback on all-zero
                // weights).
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                let caps = snd_emd::proportional_split(delta, &vec![1; n]);
                (all, caps)
            } else {
                let masses = vec![scale; bins.len()];
                let caps = snd_emd::proportional_split(delta, &masses);
                (bins, caps)
            }
        }
        BankBins::Cluster(lighter_cluster_masses) => (
            Vec::new(),
            bank_capacities_from_cluster_masses(delta, &lighter_cluster_masses, nb),
        ),
    };

    // Orientation: banks always end up as columns (rows are the heavier
    // side's residual bins, one SSSP each — forward when P is heavier,
    // reversed when Q is).
    let (row_nodes, col_nodes) = if reverse {
        (residual_q, residual_p)
    } else {
        (residual_p, residual_q)
    };
    if row_nodes.is_empty() {
        debug_assert!(col_nodes.is_empty() && delta == 0);
        return 0.0;
    }

    let n_rows = row_nodes.len();
    let n_cols = col_nodes.len() + bank_caps.len();
    let supplies = vec![scale; n_rows];
    let mut demands: Vec<Mass> = vec![scale; col_nodes.len()];
    demands.extend_from_slice(&bank_caps);
    debug_assert_eq!(
        supplies.iter().sum::<u64>(),
        demands.iter().sum::<u64>(),
        "reduced problem must be balanced"
    );

    // Assemble the reduced cost matrix: one SSSP row per heavy-side node.
    let mut data = Vec::with_capacity(n_rows * n_cols);
    // Fallback storage when no cache was provided.
    let mut local_row = if cache.is_none() {
        vec![0; n]
    } else {
        Vec::new()
    };
    for &node in &row_nodes {
        let row: &[u32] = match cache {
            Some(c) => c.get_or_compute(g, geom, op, reverse, node),
            None => {
                compute_row(g, geom, reverse, node, &mut local_row);
                &local_row
            }
        };
        for &cn in &col_nodes {
            data.push(row[cn as usize]);
        }
        if bank_caps.is_empty() {
            // Balanced masses: no bank columns at all.
        } else if geom.per_bin {
            // Forward: D̃[node, bank(u)] = γ + D(node, u) — read off the
            // forward row. Transposed: D̃[bank(u), node] = γ + D(u, node) —
            // read off the reverse row. Either way it is `row[u] + γ`.
            for &u in &bank_bins {
                // Matches the dense path's `γ + D(·,·)` exactly, including
                // `γ + sentinel` for unreachable pairs (saturating).
                data.push(row[u as usize].saturating_add(config.per_bin_gamma));
            }
        } else {
            let node_cluster = clustering.labels[node as usize] as usize;
            for c in 0..nc {
                // Forward: D̃[node, bank(c,b)] = γ_c[b] + d(cluster(node), c).
                // Transposed: D̃[bank(c,b), node] = γ_c[b] + d(c, cluster(node)).
                let d_cc = if reverse {
                    geom.inter_cluster.at(c, node_cluster)
                } else {
                    geom.inter_cluster.at(node_cluster, c)
                };
                for b in 0..nb {
                    data.push(geom.gammas[c][b].saturating_add(d_cc));
                }
            }
        }
    }
    let cost = DenseCost::from_vec(n_rows, n_cols, data);
    let plan = solve_balanced(&supplies, &demands, &cost, config.solver);
    plan.total_cost as f64 / scale as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banks::compute_geometry;
    use snd_graph::bfs_partition;
    use snd_graph::generators::path_graph;

    #[test]
    fn identical_states_have_zero_terms() {
        let g = path_graph(6);
        let clustering = bfs_partition(&g, 2);
        let config = SndConfig::default();
        let state = NetworkState::from_values(&[1, 0, -1, 0, 1, 0]);
        for op in [Opinion::Positive, Opinion::Negative] {
            let geom = compute_geometry(&g, &clustering, &state, op, &config);
            let v = emd_star_term(&g, &clustering, &geom, &state, &state, op, &config, None);
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn single_new_activation_costs_bank_distance() {
        // P empty, Q has one + user: the unit must come from a bank.
        let g = path_graph(4);
        let clustering = bfs_partition(&g, 1);
        let mut config = SndConfig {
            clusters: crate::config::ClusterSpec::BfsPartition { clusters: 1 },
            ..Default::default()
        };
        config.gamma = crate::config::GammaPolicy::Constant(7);
        let p = NetworkState::new_neutral(4);
        let mut q = NetworkState::new_neutral(4);
        q.set(2, Opinion::Positive);
        let geom = compute_geometry(&g, &clustering, &p, Opinion::Positive, &config);
        let v = emd_star_term(
            &g,
            &clustering,
            &geom,
            &p,
            &q,
            Opinion::Positive,
            &config,
            None,
        );
        // Bank of the single cluster at γ=7, inter-cluster d = 0.
        assert!((v - 7.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn cache_reuses_rows() {
        let g = path_graph(6);
        let clustering = bfs_partition(&g, 2);
        let config = SndConfig::default();
        let p = NetworkState::from_values(&[1, 0, 0, 0, 0, 0]);
        let q = NetworkState::from_values(&[0, 0, 0, 1, 0, 0]);
        let geom = compute_geometry(&g, &clustering, &p, Opinion::Positive, &config);
        let cache = RowCache::new(g.node_count());
        let v1 = emd_star_term(
            &g,
            &clustering,
            &geom,
            &p,
            &q,
            Opinion::Positive,
            &config,
            Some(&cache),
        );
        let cached = cache.computed_rows();
        assert!(cached > 0);
        let v2 = emd_star_term(
            &g,
            &clustering,
            &geom,
            &p,
            &q,
            Opinion::Positive,
            &config,
            Some(&cache),
        );
        assert_eq!(cache.computed_rows(), cached, "no new rows on repeat");
        assert_eq!(v1, v2);
    }

    #[test]
    fn concurrent_cache_fills_compute_each_row_once() {
        use rayon::prelude::*;
        let g = path_graph(12);
        let clustering = bfs_partition(&g, 3);
        let config = SndConfig::default();
        let p = NetworkState::from_values(&[1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let geom = compute_geometry(&g, &clustering, &p, Opinion::Positive, &config);
        let cache = RowCache::new(g.node_count());
        // Many threads demand the same rows at once; each row must be
        // computed exactly once and every reader must see identical data.
        let rows: Vec<Vec<u32>> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                let node = (i % 12) as u32;
                cache
                    .get_or_compute(&g, &geom, Opinion::Positive, false, node)
                    .to_vec()
            })
            .collect();
        assert_eq!(cache.computed_rows(), 12, "one SSSP per distinct row");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &rows[i % 12], "readers agree");
        }
    }
}
