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
//!    integer costs, unless the [`RowCache`] already holds the row (every
//!    engine surface fills it ahead of the solves, repairing rows across
//!    ground states — see [`crate::batch`]). Bank columns are `γ +
//!    inter-cluster distance`: γ from the precomputed [`GroundGeometry`],
//!    the distance from the inter-cluster row of the row node's cluster,
//!    which the cache holds too (one multi-source Dial per cluster a term
//!    reads, not per comparison). Without a cache (the `_seq` references)
//!    it comes from the geometry's eager `inter_cluster` matrix.
//! 4. **Exact solve** — the reduced problem (balanced by construction) goes
//!    to the configured transportation solver. Under the default
//!    `Solver::Auto` single-line shapes are answered directly and every
//!    other shape runs the block-priced simplex, column-heavy ones (few
//!    residual rows, many bank columns — the nearly-identical-snapshot
//!    case) included.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use snd_emd::bank_capacities_from_cluster_masses;
use snd_graph::{
    dial_reverse_scratch, dial_scratch, Clustering, CsrGraph, NodeId, RepairScratch, SsspScratch,
};
use snd_models::{NetworkState, Opinion};
use snd_transport::{solve_balanced, DenseCost, Mass};

use crate::banks::{cluster_row, GroundGeometry};
use crate::config::SndConfig;

thread_local! {
    /// Per-thread SSSP scratch: `dist`/bucket buffers are reused across
    /// every row a thread computes instead of being reallocated per call.
    static SSSP_SCRATCH: RefCell<SsspScratch> = RefCell::new(SsspScratch::new());
    /// Per-thread [`snd_graph::repair_row`] scratch, reused likewise: its
    /// `n`-entry stamp array, heap and map grow once per thread.
    static REPAIR_SCRATCH: RefCell<RepairScratch> = RefCell::new(RepairScratch::new());
}

/// Runs `f` with the calling thread's reusable SSSP scratch. Shared by row
/// computation here and the per-cluster geometry fan-out in
/// [`crate::banks`], so every SSSP in the crate reuses one allocation per
/// thread.
pub(crate) fn with_sssp_scratch<R>(f: impl FnOnce(&mut SsspScratch) -> R) -> R {
    SSSP_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with the calling thread's reusable repair scratch: every row
/// repair in the crate (phase-2 row groups, γ balls) reuses one per
/// thread.
pub(crate) fn with_repair_scratch<R>(f: impl FnOnce(&mut RepairScratch) -> R) -> R {
    REPAIR_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// One cached row slot: filled exactly once with the clamped SSSP row.
type RowSlot = OnceLock<Box<[u32]>>;

/// The columns a row cache keeps of every row of one opinion: the users
/// who hold that opinion in some state of a snapshot set. Pricing a pair
/// of those states reads a row of that opinion only there — at the
/// lighter side's residual users and, under per-bin banks, at its active
/// bins — so a row gathered to these columns prices every such term
/// exactly as the full row does.
#[derive(Debug)]
pub(crate) struct Columns {
    /// The kept nodes, ascending.
    nodes: Box<[NodeId]>,
    /// `slot[u]` is node `u`'s index in a gathered row, `u32::MAX` for a
    /// node outside the set.
    slot: Box<[u32]>,
}

impl Columns {
    /// The columns of each opinion (positive, negative) that pricing any
    /// pair of `states` reads, or `None` for full rows: under a
    /// `certified` tier, which reads rows at arbitrary nodes (landmarks,
    /// refined rows), and where that is every node: some state has no
    /// user holding the opinion (per-bin banks then spread its surplus
    /// over every bin), or every node holds it somewhere.
    pub(crate) fn read_by(states: &[NetworkState], certified: bool) -> [Option<Arc<Columns>>; 2] {
        [Opinion::Positive, Opinion::Negative].map(|op| {
            if certified {
                return None;
            }
            let n = states.first()?.len();
            let mut kept = vec![false; n];
            for state in states {
                let mut any = false;
                for (k, &o) in kept.iter_mut().zip(state.opinions()) {
                    if o == op {
                        *k = true;
                        any = true;
                    }
                }
                if !any {
                    return None;
                }
            }
            let nodes: Box<[NodeId]> = (0..n as NodeId).filter(|&u| kept[u as usize]).collect();
            if nodes.len() == n {
                return None;
            }
            let mut slot = vec![u32::MAX; n].into_boxed_slice();
            for (i, &u) in nodes.iter().enumerate() {
                slot[u as usize] = i as u32;
            }
            Some(Arc::new(Columns { nodes, slot }))
        })
    }

    /// Node `node`'s index among the kept columns; panics (off the end of
    /// any gathered row or slot slab) for a node outside the set.
    #[inline]
    pub(crate) fn slot(&self, node: NodeId) -> usize {
        self.slot[node as usize] as usize
    }
}

/// One cached SSSP row and its column map: a full row (the identity map,
/// `cols` is `None`) or a row gathered to a [`Columns`] set.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    values: &'a [u32],
    cols: Option<&'a Columns>,
}

impl<'a> Row<'a> {
    /// A full row, indexed by node.
    pub(crate) fn identity(values: &'a [u32]) -> Self {
        Row { values, cols: None }
    }

    /// The row's entry at `node`, which must be one of its columns (a
    /// gathered row panics off its set rather than misprice).
    #[inline]
    pub(crate) fn at(&self, node: NodeId) -> u32 {
        match self.cols {
            None => self.values[node as usize],
            Some(c) => self.values[c.slot(node)],
        }
    }

    /// The row indexed by node. Only a full row has this form: the
    /// approximate tier reads rows at arbitrary nodes, so it keeps full
    /// rows.
    pub(crate) fn full(self) -> &'a [u32] {
        assert!(self.cols.is_none(), "a gathered row has no full form");
        self.values
    }
}

/// Thread-safe cache of clamped SSSP rows for one ground state, shared
/// across every comparison grounded in that state (series evaluation,
/// all-pairs matrices, [`crate::CandidateEvaluator`] candidate search).
///
/// Layout: four lazily-allocated dense planes — one per `(opinion,
/// direction)` — each a slab of [`OnceLock`] slots, one per column its
/// opinion's rows keep. Lookups are a few array indexes, and
/// synchronization is per *row* (each slot is its own lock), so
/// concurrent readers of different rows never contend and concurrent
/// requests for the same row compute it exactly once. A plane's slot slab
/// (~24 B a slot) is only allocated when the first row of that `(opinion,
/// direction)` is requested — a typical comparison touches one direction
/// per opinion, so usually two of the four planes stay empty.
///
/// Each opinion's rows carry one column map. A cache from
/// [`RowCache::new`] keeps full rows (`n` entries, the identity map) in
/// `n` slots indexed by node, so a row cached by one query serves every
/// later one: candidate search, caller-built bundles
/// ([`SndEngine::state_geometry`](crate::SndEngine::state_geometry)) and
/// every bundle of the approximate tier use these, and such a cache hands
/// a row group a copy of its hit as a repair seed. The engine's own
/// exact bundles (every tile plan, and so the matrix and both series
/// surfaces, and a single pair's two fresh bundles) keep each row
/// gathered to the columns their snapshot set's terms read
/// (`Columns::read_by`), a few hundred entries instead of `n`, in as many
/// slots, indexed through the column set: a row's user holds its opinion
/// in one of the term's two states, so a gathered cache's row keys are
/// always among its columns. A gathered row cannot seed a repair; a tile
/// workspace keeps the full rows that do (see [`crate::batch`]).
///
/// A row gets into the cache one of two ways: a fresh Dial run when a
/// term asks for a row the cache lacks, or a row `price_pairs` built
/// ahead of its solves — fresh, or *repaired* from the same user's row
/// under another ground state with [`snd_graph::repair_row`] (see
/// [`crate::batch`]). Both kinds are exact, so readers cannot tell
/// them apart. [`computed_rows`](RowCache::computed_rows) counts every
/// row written, fresh or repaired; [`repaired_rows`](RowCache::repaired_rows)
/// counts the repaired subset. A cache hit moves neither.
///
/// On cluster banks the cache also holds inter-cluster rows: four more
/// planes, one per `(opinion, direction)`, each with one slot per cluster
/// for that cluster's `k`-entry row (`banks::cluster_row`, min-reduced
/// from a multi-source Dial from its members). A term reads the row of
/// each of its row nodes' clusters in its own direction, so only those
/// are ever computed: by `price_pairs` ahead of the solves, fresh or
/// repaired like user rows, or on a miss. They are counted apart, by
/// [`cluster_rows`](RowCache::cluster_rows), so the user-row counts keep
/// their meaning.
#[derive(Debug)]
pub struct RowCache {
    planes: [OnceLock<Box<[RowSlot]>>; 4],
    /// The inter-cluster rows, one plane per `(opinion, direction)` with
    /// one slot per cluster.
    cluster_planes: [OnceLock<Box<[RowSlot]>>; 4],
    /// The column map of each opinion's rows (positive, negative); `None`
    /// keeps full rows.
    cols: [Option<Arc<Columns>>; 2],
    n: usize,
    computed: AtomicUsize,
    repaired: AtomicUsize,
    cluster_computed: AtomicUsize,
    cluster_repaired: AtomicUsize,
}

impl RowCache {
    /// Empty cache of full rows for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Self::gathered(n, [None, None])
    }

    /// Empty cache for a graph of `n` nodes whose rows of each opinion
    /// (positive, negative) keep only the given columns (`None`: all).
    pub(crate) fn gathered(n: usize, cols: [Option<Arc<Columns>>; 2]) -> Self {
        RowCache {
            planes: std::array::from_fn(|_| OnceLock::new()),
            cluster_planes: std::array::from_fn(|_| OnceLock::new()),
            cols,
            n,
            computed: AtomicUsize::new(0),
            repaired: AtomicUsize::new(0),
            cluster_computed: AtomicUsize::new(0),
            cluster_repaired: AtomicUsize::new(0),
        }
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

    /// Number of inter-cluster rows written into this cache, fresh or
    /// repaired: one per `(opinion, direction, cluster)` a term read.
    /// Not part of [`computed_rows`](Self::computed_rows).
    pub fn cluster_rows(&self) -> usize {
        self.cluster_computed.load(Ordering::Relaxed)
    }

    /// How many of the [`cluster_rows`](Self::cluster_rows) were
    /// repaired from another ground state's multi-source row.
    pub fn repaired_cluster_rows(&self) -> usize {
        self.cluster_repaired.load(Ordering::Relaxed)
    }

    fn plane(op: Opinion, reverse: bool) -> usize {
        // EMD* terms only ever transport the two polar opinions; a neutral
        // key would silently alias the positive plane.
        debug_assert!(op.is_active(), "row cache keys require a polar opinion");
        let op_bit = usize::from(op == Opinion::Negative);
        (op_bit << 1) | usize::from(reverse)
    }

    /// The column map of `op`'s rows (`None`: full rows).
    fn cols(&self, op: Opinion) -> Option<&Columns> {
        self.cols[usize::from(op == Opinion::Negative)].as_deref()
    }

    /// True when `op`'s rows are gathered, not full.
    pub(crate) fn is_gathered(&self, op: Opinion) -> bool {
        self.cols(op).is_some()
    }

    /// Entries in one of `op`'s rows.
    pub(crate) fn width(&self, op: Opinion) -> usize {
        self.cols(op).map_or(self.n, |c| c.nodes.len())
    }

    /// Writes `full` (a full row of `op`) into `out` as this cache keeps
    /// it: `out` is [`width`](Self::width) long.
    pub(crate) fn gather_into(&self, op: Opinion, full: &[u32], out: &mut [u32]) {
        match self.cols(op) {
            None => out.copy_from_slice(full),
            Some(c) => {
                for (o, &u) in out.iter_mut().zip(&c.nodes[..]) {
                    *o = full[u as usize];
                }
            }
        }
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
    ) -> Row<'_> {
        let values = self.slot(op, reverse, node).get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            let mut full = vec![0; self.n].into_boxed_slice();
            compute_row(g, geom, reverse, &[node], &mut full);
            if self.is_gathered(op) {
                let mut row = vec![0; self.width(op)].into_boxed_slice();
                self.gather_into(op, &full, &mut row);
                row
            } else {
                full
            }
        });
        Row {
            values,
            cols: self.cols(op),
        }
    }

    /// The cached row, if any — never computes, and never allocates a
    /// plane's slots.
    pub(crate) fn get(&self, op: Opinion, reverse: bool, node: NodeId) -> Option<Row<'_>> {
        let slots = self.planes[Self::plane(op, reverse)].get()?;
        let values = slots[self.index(op, node)].get()?;
        Some(Row {
            values,
            cols: self.cols(op),
        })
    }

    /// Stores a row built outside the cache (fresh or `repaired`), already
    /// in this cache's form (see [`gather_into`](Self::gather_into)). A
    /// slot that is already filled keeps its row — both are exact, so
    /// nothing is lost — and the counters do not move.
    pub(crate) fn insert(
        &self,
        op: Opinion,
        reverse: bool,
        node: NodeId,
        row: Box<[u32]>,
        repaired: bool,
    ) {
        debug_assert_eq!(row.len(), self.width(op), "rows match their column map");
        if self.slot(op, reverse, node).set(row).is_ok() {
            self.computed.fetch_add(1, Ordering::Relaxed);
            self.repaired
                .fetch_add(usize::from(repaired), Ordering::Relaxed);
        }
    }

    /// A copy of the cached row of a key to seed a repair from, when this
    /// cache keeps `op`'s rows full and holds the key.
    pub(crate) fn full_copy(&self, op: Opinion, reverse: bool, node: NodeId) -> Option<Box<[u32]>> {
        self.get(op, reverse, node)
            .filter(|row| row.cols.is_none())
            .map(|row| row.values.into())
    }

    /// The slot of `node` in a plane of `op`'s rows.
    fn index(&self, op: Opinion, node: NodeId) -> usize {
        self.cols(op).map_or(node as usize, |c| c.slot(node))
    }

    fn slot(&self, op: Opinion, reverse: bool, node: NodeId) -> &RowSlot {
        let slots = self.planes[Self::plane(op, reverse)]
            .get_or_init(|| (0..self.width(op)).map(|_| OnceLock::new()).collect());
        &slots[self.index(op, node)]
    }

    /// Cluster `c`'s inter-cluster row lookup-or-compute
    /// (`banks::cluster_row` over `geom`, the `(state, op)` geometry).
    pub(crate) fn cluster_row(
        &self,
        g: &CsrGraph,
        clustering: &Clustering,
        geom: &GroundGeometry,
        op: Opinion,
        reverse: bool,
        c: u32,
    ) -> &[u32] {
        let k = clustering.cluster_count();
        self.cluster_slot(op, reverse, c, k).get_or_init(|| {
            self.cluster_computed.fetch_add(1, Ordering::Relaxed);
            cluster_row(g, clustering, geom, c as usize, reverse)
        })
    }

    /// The cached inter-cluster row of cluster `c`, if any — never
    /// computes, and never allocates a plane's slots.
    pub(crate) fn get_cluster(&self, op: Opinion, reverse: bool, c: u32) -> Option<&[u32]> {
        let slots = self.cluster_planes[Self::plane(op, reverse)].get()?;
        slots[c as usize].get().map(|row| &row[..])
    }

    /// Stores cluster `c`'s inter-cluster row built outside the cache
    /// (fresh or `repaired`), one entry per cluster. A filled slot keeps
    /// its row and the counters do not move, as in
    /// [`insert`](Self::insert).
    pub(crate) fn insert_cluster(
        &self,
        op: Opinion,
        reverse: bool,
        c: u32,
        row: Box<[u32]>,
        repaired: bool,
    ) {
        if self
            .cluster_slot(op, reverse, c, row.len())
            .set(row)
            .is_ok()
        {
            self.cluster_computed.fetch_add(1, Ordering::Relaxed);
            self.cluster_repaired
                .fetch_add(usize::from(repaired), Ordering::Relaxed);
        }
    }

    /// The slot of cluster `c` in a plane of `k` cluster rows.
    fn cluster_slot(&self, op: Opinion, reverse: bool, c: u32, k: usize) -> &RowSlot {
        let slots = self.cluster_planes[Self::plane(op, reverse)]
            .get_or_init(|| (0..k).map(|_| OnceLock::new()).collect());
        &slots[c as usize]
    }
}

#[cfg(test)]
impl RowCache {
    /// The columns `op`'s rows keep.
    pub(crate) fn columns(&self, op: Opinion) -> Vec<NodeId> {
        self.cols(op)
            .map_or_else(|| (0..self.n as NodeId).collect(), |c| c.nodes.to_vec())
    }

    /// Every cached row of `op`, as `(reverse, node, row)`.
    pub(crate) fn rows(&self, op: Opinion) -> Vec<(bool, NodeId, Row<'_>)> {
        let nodes = self.columns(op);
        let mut out = Vec::new();
        for reverse in [false, true] {
            let Some(slots) = self.planes[Self::plane(op, reverse)].get() else {
                continue;
            };
            for (&u, slot) in nodes.iter().zip(&slots[..]) {
                if let Some(values) = slot.get() {
                    let row = Row {
                        values,
                        cols: self.cols(op),
                    };
                    out.push((reverse, u, row));
                }
            }
        }
        out
    }

    /// Every cached inter-cluster row of `op`, as `(reverse, cluster, row)`.
    pub(crate) fn cluster_rows_of(&self, op: Opinion) -> Vec<(bool, u32, &[u32])> {
        let mut out = Vec::new();
        for reverse in [false, true] {
            let Some(slots) = self.cluster_planes[Self::plane(op, reverse)].get() else {
                continue;
            };
            for (c, slot) in slots.iter().enumerate() {
                if let Some(row) = slot.get() {
                    out.push((reverse, c as u32, &row[..]));
                }
            }
        }
        out
    }
}

/// One multi-source Dial over `geom`'s edge costs into `scratch`: from
/// `sources`, or on reversed edges (distances *to* `sources`) when
/// `reverse`. The one SSSP behind every user and cluster row.
pub(crate) fn sssp(
    g: &CsrGraph,
    geom: &GroundGeometry,
    reverse: bool,
    sources: &[NodeId],
    scratch: &mut SsspScratch,
) {
    let (costs, max) = (&geom.edge_costs, geom.max_edge_cost);
    if reverse {
        dial_reverse_scratch(g, costs, sources, max, scratch);
    } else {
        dial_scratch(g, costs, sources, max, scratch);
    }
}

/// One clamped SSSP row of `sources` ([`sssp`]) written into `out`
/// (length `n`), computed on the calling thread's reusable scratch.
pub(crate) fn compute_row(
    g: &CsrGraph,
    geom: &GroundGeometry,
    reverse: bool,
    sources: &[NodeId],
    out: &mut [u32],
) {
    with_sssp_scratch(|scratch| {
        sssp(g, geom, reverse, sources, scratch);
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

    /// Bank capacities and orientation, shared by both tiers: the bank
    /// bins of the lighter side with capacities from its *full*
    /// (unreduced) masses, and the heavier side's residual users as rows.
    /// `None` when the term is zero without a solve (both histograms
    /// empty, or no residual user at all).
    pub(crate) fn orient(self, n: usize, config: &SndConfig) -> Option<OrientedTerm> {
        let scale = config.scale;
        let reverse = self.rows_reversed();
        let ReducedTerm {
            residual_p,
            residual_q,
            total_p,
            total_q,
            banks,
        } = self;
        if total_p == 0 && total_q == 0 {
            return None;
        }
        let delta = total_p.abs_diff(total_q);

        // Per-bin mode: one bank per active bin of the lighter histogram,
        // each at distance `per_bin_gamma` from its bin; cluster mode: `nb`
        // banks per cluster at the precomputed γ / inter-cluster distances.
        let (bank_bins, bank_caps): (Vec<NodeId>, Vec<Mass>) = match banks {
            BankBins::Balanced => {
                debug_assert_eq!(delta, 0, "balanced term must carry no surplus");
                (Vec::new(), Vec::new())
            }
            BankBins::PerBin(bins) => {
                if bins.is_empty() {
                    // The lighter histogram is empty: the capacity rule
                    // degenerates to a uniform spread over every bin
                    // (matching the dense-path `proportional_split`
                    // fallback on all-zero weights).
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
                bank_capacities_from_cluster_masses(
                    delta,
                    &lighter_cluster_masses,
                    config.banks_per_cluster.max(1),
                ),
            ),
        };

        // Banks always end up as columns: rows are the heavier side's
        // residual bins, one SSSP each — forward when P is heavier,
        // reversed when Q is.
        let (row_nodes, col_nodes) = if reverse {
            (residual_q, residual_p)
        } else {
            (residual_p, residual_q)
        };
        if row_nodes.is_empty() {
            debug_assert!(col_nodes.is_empty() && delta == 0);
            return None;
        }
        Some(OrientedTerm {
            row_nodes,
            col_nodes,
            bank_bins,
            bank_caps,
            reverse,
        })
    }
}

/// A [`ReducedTerm`] after [`orient`](ReducedTerm::orient): the reduced
/// transportation problem's rows and columns, banks always last among the
/// columns.
pub(crate) struct OrientedTerm {
    /// The heavier side's residual users, one SSSP row each.
    pub(crate) row_nodes: Vec<NodeId>,
    /// The lighter side's residual users.
    pub(crate) col_nodes: Vec<NodeId>,
    /// Per-bin mode: the bin of each bank column (empty in cluster mode).
    pub(crate) bank_bins: Vec<NodeId>,
    /// One capacity per bank column.
    pub(crate) bank_caps: Vec<Mass>,
    /// Rows are reverse SSSP rows (`Q` is the heavier side).
    pub(crate) reverse: bool,
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

/// Solves one classified EMD\* term: [`orient`](ReducedTerm::orient),
/// then [`solve_oriented`]. This is the shared back half of
/// [`emd_star_term`] — every classification route funnels through it, so
/// a flip-derived [`ReducedTerm`] that matches the scan-derived one is
/// priced through literally the same arithmetic.
pub(crate) fn solve_reduced_term(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    op: Opinion,
    config: &SndConfig,
    cache: Option<&RowCache>,
    term: ReducedTerm,
) -> f64 {
    term.orient(g.node_count(), config).map_or(0.0, |term| {
        solve_oriented(g, clustering, geom, op, config, cache, &term)
    })
}

/// Assembles and solves one oriented EMD\* term: one SSSP row per row
/// node, bank columns from the precomputed geometry, exact transportation
/// solve. The approximate tier's tiny-problem shortcut solves here too.
pub(crate) fn solve_oriented(
    g: &CsrGraph,
    clustering: &Clustering,
    geom: &GroundGeometry,
    op: Opinion,
    config: &SndConfig,
    cache: Option<&RowCache>,
    term: &OrientedTerm,
) -> f64 {
    let n = g.node_count();
    let scale = config.scale;
    let nc = clustering.cluster_count();
    let nb = config.banks_per_cluster.max(1);
    let (row_nodes, col_nodes, bank_caps) = (&term.row_nodes, &term.col_nodes, &term.bank_caps);

    let n_rows = row_nodes.len();
    let n_cols = col_nodes.len() + bank_caps.len();
    let supplies = vec![scale; n_rows];
    let mut demands: Vec<Mass> = vec![scale; col_nodes.len()];
    demands.extend_from_slice(bank_caps);
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
    for &node in row_nodes {
        let row = match cache {
            Some(c) => c.get_or_compute(g, geom, op, term.reverse, node),
            None => {
                compute_row(g, geom, term.reverse, &[node], &mut local_row);
                Row::identity(&local_row)
            }
        };
        for &cn in col_nodes {
            data.push(row.at(cn));
        }
        if bank_caps.is_empty() {
            // Balanced masses: no bank columns at all.
        } else if geom.per_bin {
            // Forward: D̃[node, bank(u)] = γ + D(node, u) — read off the
            // forward row. Transposed: D̃[bank(u), node] = γ + D(u, node) —
            // read off the reverse row. Either way it is `row[u] + γ`.
            for &u in &term.bank_bins {
                // Matches the dense path's `γ + D(·,·)` exactly, including
                // `γ + sentinel` for unreachable pairs (saturating).
                data.push(row.at(u).saturating_add(config.per_bin_gamma));
            }
        } else {
            // Forward: D̃[node, bank(c,b)] = γ_c[b] + d(cluster(node), c).
            // Transposed: D̃[bank(c,b), node] = γ_c[b] + d(c, cluster(node)).
            // Either way the entries are the cluster row of `node`'s
            // cluster in the term's direction: a cache row, or a row or
            // column of the eager matrix.
            let home = clustering.labels[node as usize];
            let cached = cache.map(|c| c.cluster_row(g, clustering, geom, op, term.reverse, home));
            let home = home as usize;
            for c in 0..nc {
                let d_cc = match cached {
                    Some(row) => row[c],
                    None if term.reverse => geom.inter_cluster.at(c, home),
                    None => geom.inter_cluster.at(home, c),
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
                    .full()
                    .to_vec()
            })
            .collect();
        assert_eq!(cache.computed_rows(), 12, "one SSSP per distinct row");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &rows[i % 12], "readers agree");
        }
    }
}
