//! The traced replay: each workload re-run through the layers' public
//! entry points in the engine's call order, with a span around every call.
//!
//! Pairwise terms cannot be timed inside `snd_core::sparse::emd_star_term`
//! without tracing the program, so [`term`] rebuilds each reduced instance
//! from public pieces — the [`GroundGeometry`] fields, SSSP rows from
//! `dial_scratch`/`dial_reverse_scratch`, the `snd_emd` capacity helpers —
//! and solves it with `snd_transport::solve_balanced`. The replay's values
//! are compared bit for bit with the untraced run before any of its times
//! are reported.

use std::cell::RefCell;
use std::sync::OnceLock;

use rayon::prelude::*;
use snd_core::{
    DeltaStateGeometry, GroundGeometry, ShardPlan, SndConfig, SndEngine, StateGeometry, TileGrid,
    TileSet, REPAIR_EDGE_FRACTION,
};
use snd_graph::{dial_reverse_scratch, dial_scratch, CsrGraph, NodeId, SsspScratch};
use snd_models::{NetworkState, Opinion, StateDelta};
use snd_transport::{select_solver, solve_balanced, DenseCost, Mass, Solver};

use crate::trace::{self, count, Counter};

thread_local! {
    static SCRATCH: RefCell<SsspScratch> = RefCell::new(SsspScratch::new());
}

/// One once-filled clamped SSSP row.
type RowSlot = OnceLock<Box<[u32]>>;

/// Lazily computed SSSP rows of one ground state: one slab per
/// `(opinion, direction)`, one once-filled slot per node — the same
/// at-most-once discipline as `snd_core::RowCache`.
pub struct Rows {
    planes: [OnceLock<Box<[RowSlot]>>; 4],
    n: usize,
}

impl Rows {
    pub fn new(n: usize) -> Rows {
        Rows {
            planes: std::array::from_fn(|_| OnceLock::new()),
            n,
        }
    }

    fn get(
        &self,
        g: &CsrGraph,
        geom: &GroundGeometry,
        op: Opinion,
        reverse: bool,
        node: NodeId,
        parent: u64,
    ) -> &[u32] {
        let plane = (usize::from(op == Opinion::Negative) << 1) | usize::from(reverse);
        let slots =
            self.planes[plane].get_or_init(|| (0..self.n).map(|_| OnceLock::new()).collect());
        let mut computed = false;
        let row = slots[node as usize].get_or_init(|| {
            computed = true;
            trace::span("graph.sssp_row", parent, |_| {
                SCRATCH.with(|cell| {
                    let scratch = &mut cell.borrow_mut();
                    if reverse {
                        dial_reverse_scratch(
                            g,
                            &geom.edge_costs,
                            &[node],
                            geom.max_edge_cost,
                            scratch,
                        );
                    } else {
                        dial_scratch(g, &geom.edge_costs, &[node], geom.max_edge_cost, scratch);
                    }
                    scratch
                        .distances(g.node_count())
                        .map(|d| geom.clamp(d))
                        .collect()
                })
            })
        });
        count(
            if computed {
                Counter::RowsComputed
            } else {
                Counter::RowsReused
            },
            1,
        );
        row
    }
}

/// Per-bin ground geometry of `(state, op)` built from its edge costs —
/// field for field what `snd_core::banks::compute_geometry` returns in
/// per-bin mode (checked by the correctness gate).
pub fn per_bin_geometry(
    g: &CsrGraph,
    state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
    parent: u64,
) -> GroundGeometry {
    let edge_costs = trace::span("models.edge_costs", parent, |_| {
        snd_models::edge_costs(g, state, op, &config.ground)
    });
    count(Counter::EdgeCosts, 1);
    let max_edge_cost = config.ground.max_edge_cost();
    let unreachable = ((max_edge_cost as u64)
        .saturating_mul(g.node_count() as u64)
        .saturating_add(1))
    .min(u32::MAX as u64 / 4) as u32;
    GroundGeometry {
        edge_costs,
        max_edge_cost,
        unreachable,
        per_bin: true,
        gammas: Vec::new(),
        inter_cluster: DenseCost::filled(0, 0, 0),
    }
}

/// Which solver `solve_balanced` runs on this instance under
/// `Solver::Auto`: zero rows and columns are stripped, single-line
/// instances have a closed-form plan, the rest go to `select_solver`.
fn solver_kind(supplies: &[Mass], demands: &[Mass], cost: &DenseCost, solver: Solver) -> Counter {
    let rows: Vec<usize> = (0..supplies.len()).filter(|&i| supplies[i] > 0).collect();
    let cols: Vec<usize> = (0..demands.len()).filter(|&j| demands[j] > 0).collect();
    if rows.is_empty() {
        return Counter::ClosedForm;
    }
    let chosen = match solver {
        Solver::Auto if rows.len() == 1 || cols.len() == 1 => return Counter::ClosedForm,
        Solver::Auto => {
            let sub_s: Vec<Mass> = rows.iter().map(|&i| supplies[i]).collect();
            let sub_d: Vec<Mass> = cols.iter().map(|&j| demands[j]).collect();
            if rows.len() == supplies.len() && cols.len() == demands.len() {
                select_solver(&sub_s, &sub_d, cost)
            } else {
                select_solver(&sub_s, &sub_d, &cost.submatrix(&rows, &cols))
            }
        }
        s => s,
    };
    match chosen {
        Solver::CostScaling => Counter::CostScaling,
        _ => Counter::Simplex,
    }
}

/// One per-bin EMD\* term `EMD*(Pᵒᵖ, Qᵒᵖ, D(ground, op))`, rebuilt from
/// public pieces: Lemma 1/2 classification, bank capacities by
/// `snd_emd::proportional_split`, one SSSP row per heavy-side residual
/// user, the reduced transportation solve.
#[allow(clippy::too_many_arguments)] // mirrors emd_star_term's signature
pub fn term(
    g: &CsrGraph,
    geom: &GroundGeometry,
    p_state: &NetworkState,
    q_state: &NetworkState,
    op: Opinion,
    config: &SndConfig,
    rows: &Rows,
    parent: u64,
) -> f64 {
    assert!(geom.per_bin, "the term replay covers per-bin banks");
    count(Counter::Terms, 1);
    trace::span("emd.term", parent, |id| {
        let n = g.node_count();
        let scale = config.scale;
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
            return 0.0;
        }
        let delta = total_p.abs_diff(total_q);
        let p_is_lighter = total_p < total_q;
        let (bank_bins, bank_caps): (Vec<NodeId>, Vec<Mass>) = if total_p == total_q {
            (Vec::new(), Vec::new())
        } else {
            let bins = if p_is_lighter { active_p } else { active_q };
            if bins.is_empty() {
                let caps = snd_emd::proportional_split(delta, &vec![1; n]);
                ((0..n as NodeId).collect(), caps)
            } else {
                let caps = snd_emd::proportional_split(delta, &vec![scale; bins.len()]);
                (bins, caps)
            }
        };
        let (row_nodes, col_nodes, reverse) = if !p_is_lighter {
            (residual_p, residual_q, false)
        } else {
            (residual_q, residual_p, true)
        };
        if row_nodes.is_empty() {
            return 0.0;
        }
        count(
            Counter::ResidualUsers,
            (row_nodes.len() + col_nodes.len()) as u64,
        );
        let n_rows = row_nodes.len();
        let n_cols = col_nodes.len() + bank_caps.len();
        let supplies = vec![scale; n_rows];
        let mut demands: Vec<Mass> = vec![scale; col_nodes.len()];
        demands.extend_from_slice(&bank_caps);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for &node in &row_nodes {
            let row = rows.get(g, geom, op, reverse, node, id);
            data.extend(col_nodes.iter().map(|&c| row[c as usize]));
            if !bank_caps.is_empty() {
                data.extend(
                    bank_bins
                        .iter()
                        .map(|&u| row[u as usize].saturating_add(config.per_bin_gamma)),
                );
            }
        }
        let cost = DenseCost::from_vec(n_rows, n_cols, data);
        // Re-deriving the solver choice copies the instance; its span is
        // outside every layer so `transport.solve` times the solve alone.
        let kind = trace::span("replay.solver_kind", id, |_| {
            solver_kind(&supplies, &demands, &cost, config.solver)
        });
        count(kind, 1);
        let plan = trace::span("transport.solve", id, |_| {
            solve_balanced(&supplies, &demands, &cost, config.solver)
        });
        count(Counter::Solves, 1);
        count(Counter::Cells, (n_rows * n_cols) as u64);
        plan.total_cost as f64 / scale as f64
    })
}

/// The four Eq. 3 terms of pair `(a, b)` in `SndBreakdown` order, one per
/// `which`, grounded in the matching state's geometry and rows.
#[allow(clippy::too_many_arguments)]
fn pair_term(
    g: &CsrGraph,
    config: &SndConfig,
    a: &NetworkState,
    b: &NetworkState,
    ga: &(GroundGeometry, GroundGeometry, Rows),
    gb: &(GroundGeometry, GroundGeometry, Rows),
    which: usize,
    parent: u64,
) -> f64 {
    match which {
        0 => term(g, &ga.0, a, b, Opinion::Positive, config, &ga.2, parent),
        1 => term(g, &ga.1, a, b, Opinion::Negative, config, &ga.2, parent),
        2 => term(g, &gb.0, b, a, Opinion::Positive, config, &gb.2, parent),
        _ => term(g, &gb.1, b, a, Opinion::Negative, config, &gb.2, parent),
    }
}

/// `SndBreakdown::total` of four terms, in its summation order.
fn total(t: &[f64]) -> f64 {
    0.5 * (t[0] + t[1] + t[2] + t[3])
}

/// Replays the all-pairs matrix over `states[ids]` the way
/// `pairwise_distances` evaluates it: per-state geometry in parallel, then
/// every EMD\* term of every pair fanned out over the pool. Returns the
/// pair values for `pairs` (indices into `states`).
fn matrix_pairs(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    ids: &[usize],
    pairs: &[(usize, usize)],
    parent: u64,
) -> Vec<f64> {
    let g = engine.graph();
    let config = engine.config();
    let bundles: Vec<(GroundGeometry, GroundGeometry, Rows)> = ids
        .par_iter()
        .map(|&i| {
            (
                per_bin_geometry(g, &states[i], Opinion::Positive, config, parent),
                per_bin_geometry(g, &states[i], Opinion::Negative, config, parent),
                Rows::new(g.node_count()),
            )
        })
        .collect();
    let slot = |i: usize| {
        ids.iter()
            .position(|&x| x == i)
            .expect("pair state bundled")
    };
    let local: Vec<(usize, usize)> = pairs.iter().map(|&(i, j)| (slot(i), slot(j))).collect();
    let terms: Vec<f64> = trace::span("batch.fanout", parent, |fan| {
        (0..local.len() * 4)
            .into_par_iter()
            .map(|t| {
                let (li, lj) = local[t / 4];
                let (i, j) = pairs[t / 4];
                pair_term(
                    g,
                    config,
                    &states[i],
                    &states[j],
                    &bundles[li],
                    &bundles[lj],
                    t % 4,
                    fan,
                )
            })
            .collect()
    });
    terms.chunks_exact(4).map(total).collect()
}

/// All pairs `i < j` of `k` states, row-major.
pub fn upper_pairs(k: usize) -> Vec<(usize, usize)> {
    (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect()
}

/// The `pairwise` replay: one cold matrix.
pub fn pairwise(engine: &SndEngine<'_>, states: &[NetworkState], root: u64) -> Vec<f64> {
    let ids: Vec<usize> = (0..states.len()).collect();
    matrix_pairs(engine, states, &ids, &upper_pairs(states.len()), root)
}

/// The `orchestrate` replay: every tile of the grid as its own lease — a
/// worker computes each lease on a fresh plan, so each tile rebuilds the
/// geometry and rows of the states it touches. Returns the tile values in
/// tile order, each tile's pairs in `TileGrid::pairs` order.
pub fn tiles(engine: &SndEngine<'_>, states: &[NetworkState], tile: usize, root: u64) -> Vec<f64> {
    let grid = TileGrid::new(states.len(), tile);
    let mut out = Vec::new();
    for id in 0..grid.tile_count() {
        let pairs = grid.pairs(id);
        let mut ids: Vec<usize> = pairs.iter().flat_map(|&(i, j)| [i, j]).collect();
        ids.sort_unstable();
        ids.dedup();
        out.extend(matrix_pairs(engine, states, &ids, &pairs, root));
    }
    out
}

/// The untraced counterpart of [`tiles`]: one singleton-plan
/// `pairwise_tiles` call per tile, as a worker runs a one-tile lease.
pub fn tiles_untraced(engine: &SndEngine<'_>, states: &[NetworkState], tile: usize) -> Vec<f64> {
    let grid = TileGrid::new(states.len(), tile);
    let mut out = Vec::new();
    for id in 0..grid.tile_count() {
        let plan = ShardPlan::explicit(grid, vec![id]).expect("tile id in range");
        let set = engine.pairwise_tiles(states, &plan);
        out.extend(
            grid.pairs(id)
                .iter()
                .map(|&(i, j)| set.pair(i, j).expect("tile computed")),
        );
    }
    out
}

/// The shard layer of an orchestrated run: load the checkpoint, merge it,
/// and materialize the matrix.
pub fn shard_io(
    checkpoint: &std::path::Path,
    root: u64,
) -> Result<snd_core::DistanceMatrix, String> {
    let set = trace::span("shard.load", root, |_| TileSet::load(checkpoint))
        .map_err(|e| format!("loading {}: {e}", checkpoint.display()))?;
    trace::span("shard.merge", root, |_| {
        TileSet::merge([set]).and_then(|m| m.to_matrix())
    })
    .map_err(|e| format!("merging {}: {e}", checkpoint.display()))
}

/// The series replay, in `SeriesEvaluator::distances` order: one fresh
/// bundle for the first state, then per transition the state delta, the
/// delta step (or its fresh-geometry fallback past the churn threshold)
/// and the four terms over the two bundles' shared row caches.
pub fn series(engine: &SndEngine<'_>, states: &[NetworkState], root: u64) -> Vec<f64> {
    let g = engine.graph();
    let m = g.edge_count();
    let mut out = Vec::with_capacity(states.len().saturating_sub(1));
    if states.len() < 2 {
        return out;
    }
    let mut prev = trace::span("banks.fresh", root, |_| {
        DeltaStateGeometry::fresh(engine, &states[0])
    });
    count(Counter::Fresh, 1);
    let mut prev_bundle: StateGeometry =
        trace::span("replay.bundle", root, |_| prev.bundle(engine));
    for t in 1..states.len() {
        let delta = trace::span("models.delta", root, |_| {
            StateDelta::between(g, &states[t - 1], &states[t])
        });
        count(Counter::TouchedEdges, delta.touched_edges().len() as u64);
        if delta.is_empty() {
            out.push(snd_core::SndBreakdown::default().total());
            continue;
        }
        let fallback = delta.touched_edges().len() * REPAIR_EDGE_FRACTION > m;
        let name = if fallback {
            "banks.fresh"
        } else {
            "banks.step"
        };
        let cur = trace::span(name, root, |_| prev.step(engine, &states[t], &delta));
        if fallback {
            count(Counter::Fresh, 1);
            count(Counter::Fallbacks, 1);
        } else {
            count(Counter::Steps, 1);
        }
        let cur_bundle = trace::span("replay.bundle", root, |_| cur.bundle(engine));
        let before = prev_bundle.cached_rows() + cur_bundle.cached_rows();
        let b = trace::span("emd.terms", root, |_| {
            engine.breakdown_with(&states[t - 1], &states[t], &prev_bundle, &cur_bundle)
        });
        let after = prev_bundle.cached_rows() + cur_bundle.cached_rows();
        count(Counter::RowsComputed, (after - before) as u64);
        count(Counter::Terms, 4);
        out.push(b.total());
        prev = cur;
        prev_bundle = cur_bundle;
    }
    out
}
