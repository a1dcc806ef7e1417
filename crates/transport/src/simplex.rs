//! Transportation simplex with MODI (u-v) pivoting and block pricing.
//!
//! The problem is the classic balanced transportation LP: ship `supplies`
//! to `demands` over a dense cost matrix at minimum total cost. The basis is
//! a spanning tree over the bipartite node set (suppliers ∪ consumers) with
//! exactly `m + n − 1` basic cells (some possibly degenerate with zero
//! flow).
//!
//! * Initial basis: the sequential *row-minimum* method — repeatedly
//!   allocate from the current open row to its cheapest open column,
//!   crossing out exactly one line per allocation. Any sequential
//!   one-line-per-allocation method yields a triangular (spanning-tree)
//!   basis, and row-minimum is markedly better than northwest-corner at no
//!   asymptotic cost.
//! * Basis tree: the tree is rooted at supplier 0 and maintained across
//!   pivots, never rebuilt. Each node keeps its parent cell, its depth, its
//!   incident basic cells and one dual potential (`u` for suppliers, `v`
//!   for consumers, with `u[0] = 0`).
//!   - The pivot cycle of an entering cell `(i, j)` is found by walking
//!     supplier `i` and consumer `j` up to their lowest common ancestor, so
//!     finding it costs the cycle's length.
//!   - After the flow update the leaving cell is cut, and the subtree it
//!     separated from the root is re-hung below the entering cell. Depths
//!     and potentials are re-derived inside that subtree only.
//!
//!   Given `u[0] = 0` the duals of a spanning tree are unique, so they
//!   equal a full recomputation exactly; debug builds re-check the tree
//!   after every pivot.
//! * Pricing: block search à la LEMON's network simplex — scan cells in
//!   blocks of ≈√(mn), entering on the most negative reduced cost seen in
//!   the first block that contains one. Optimality is declared only after a
//!   full wrap-around without a negative cell. On large instances
//!   ([`solve`] auto-dispatches, [`solve_par`] forces it) the blocks of a
//!   pricing round are scanned concurrently on the rayon pool in waves and
//!   reduced deterministically: the entering cell is always the same one
//!   the sequential scan would pick, so [`solve_par`] and [`solve_seq`]
//!   are bit-identical (property-tested in `tests/transport_properties.rs`).
//! * Anti-cycling: degenerate pivots are permitted, but a run of more than
//!   `2·(m + n) + 32` consecutive non-improving pivots switches the pivot
//!   to Bland's rule — entering on the first negative cell in (row, col)
//!   order *and* breaking leaving-edge θ-ties by the same (row, col) order
//!   (Bland's theorem needs the smallest-index choice on both sides) —
//!   which provably admits no cycle; the first improving pivot switches
//!   back. Termination: improving pivots strictly decrease the (integer)
//!   objective and are therefore finite in number, and between two of them
//!   at most `streak_limit` block-priced degenerate pivots are followed by
//!   Bland-priced pivots, which cannot cycle.
//!
//! The pivot rule (entering cell, leaving cell, tie-breaks) depends only on
//! the basis and its duals, never on how the tree is stored or traversed,
//! so the returned plan is a function of the instance alone.

use crate::dense::DenseCost;
use crate::plan::{FlowEntry, TransportPlan};
use crate::Mass;
use rayon::prelude::*;

/// Minimum number of cells before [`solve`] prices on the thread pool; below
/// this the per-round fan-out overhead outweighs the scan.
const PAR_PRICING_MIN_CELLS: usize = 1 << 14;

#[derive(Clone, Copy, Debug)]
struct BasisCell {
    row: u32,
    col: u32,
    flow: Mass,
}

/// Solves a balanced transportation problem with all-positive supplies and
/// demands (callers strip zeros first; see [`crate::solve_balanced`]).
///
/// Pricing runs on the rayon pool when the instance is large enough to pay
/// for the fan-out and more than one thread is available; the result is
/// bit-identical either way.
pub fn solve(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> TransportPlan {
    let parallel =
        supplies.len() * demands.len() >= PAR_PRICING_MIN_CELLS && rayon::current_num_threads() > 1;
    solve_impl(
        supplies,
        demands,
        cost,
        parallel,
        default_streak_limit(supplies, demands),
    )
}

/// [`solve`] with pricing forced onto the sequential path — the reference
/// implementation the parallel path is property-tested against.
pub fn solve_seq(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> TransportPlan {
    solve_impl(
        supplies,
        demands,
        cost,
        false,
        default_streak_limit(supplies, demands),
    )
}

/// [`solve`] with pricing forced onto the parallel path regardless of
/// instance size. Bit-identical to [`solve_seq`].
pub fn solve_par(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> TransportPlan {
    solve_impl(
        supplies,
        demands,
        cost,
        true,
        default_streak_limit(supplies, demands),
    )
}

/// Consecutive degenerate pivots tolerated before Bland's rule takes over.
fn default_streak_limit(supplies: &[Mass], demands: &[Mass]) -> usize {
    2 * (supplies.len() + demands.len()) + 32
}

fn solve_impl(
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
    parallel: bool,
    streak_limit: usize,
) -> TransportPlan {
    let m = supplies.len();
    let n = demands.len();
    debug_assert!(m > 0 && n > 0);
    debug_assert!(supplies.iter().all(|&s| s > 0));
    debug_assert!(demands.iter().all(|&d| d > 0));

    let basis = initial_basis(supplies, demands, cost);
    debug_assert_eq!(basis.len(), m + n - 1);
    let mut tree = BasisTree::new(basis, cost, m);
    let mut path: Vec<u32> = Vec::with_capacity(m + n);

    let cells_total = m * n;
    let block = ((cells_total as f64).sqrt() as usize)
        .max(64)
        .min(cells_total.max(1));
    let mut scan_pos = 0usize;

    let mut degenerate_streak = 0usize;
    let mut bland = false;

    loop {
        let (u, v) = tree.pot.split_at(m);
        let entering = if bland {
            price_bland(cost, u, v)
        } else {
            price_blocks(cost, u, v, n, block, &mut scan_pos, parallel)
        };
        let Some((ei, ej)) = entering else {
            break; // optimal
        };

        let split = tree.cycle(ei, m + ej, &mut path);

        // The entering cell (ei, ej) is a "+" edge of the pivot cycle.
        // Walking the tree path from supplier ei towards consumer ej, the
        // first edge shares supplier ei's row with the entering cell, so the
        // path edges alternate "−", "+", "−", … starting at "−".
        //
        // Bland's no-cycling theorem needs Bland on *both* pivot choices:
        // in Bland mode, θ-ties on the leaving edge break by smallest
        // (row, col) — the same variable order `price_bland` scans — rather
        // than by path position.
        let basis = &mut tree.cells;
        let mut theta = Mass::MAX;
        let mut leaving_pos = usize::MAX;
        for (idx, &cell_id) in path.iter().enumerate() {
            if idx % 2 == 0 {
                let cell = basis[cell_id as usize];
                // First "−" edge is accepted unconditionally (no sentinel
                // compare: `Mass::MAX` is a legal flow).
                let better = leaving_pos == usize::MAX
                    || cell.flow < theta
                    || (bland && cell.flow == theta && {
                        let cur = basis[path[leaving_pos] as usize];
                        (cell.row, cell.col) < (cur.row, cur.col)
                    });
                if better {
                    theta = cell.flow;
                    leaving_pos = idx;
                }
            }
        }
        debug_assert!(leaving_pos != usize::MAX, "cycle must contain a '−' edge");

        for (idx, &cell_id) in path.iter().enumerate() {
            let cell = &mut basis[cell_id as usize];
            if idx % 2 == 0 {
                cell.flow -= theta;
            } else {
                cell.flow += theta;
            }
        }
        // Cutting the leaving cell separates the endpoint of the entering
        // cell that sits on the same side of the LCA as the leaving cell.
        let entering = BasisCell {
            row: ei as u32,
            col: ej as u32,
            flow: theta,
        };
        tree.exchange(path[leaving_pos], entering, leaving_pos < split, cost);
        #[cfg(debug_assertions)]
        tree.check(cost);

        // Anti-cycling bookkeeping: a long run of degenerate (θ = 0) pivots
        // is the only way the simplex can stall, so Bland's rule takes over
        // until an improving pivot breaks the streak.
        if theta == 0 {
            degenerate_streak += 1;
            if degenerate_streak > streak_limit {
                bland = true;
            }
        } else {
            degenerate_streak = 0;
            bland = false;
        }
    }

    let mut flows: Vec<FlowEntry> = tree
        .cells
        .iter()
        .filter(|c| c.flow > 0)
        .map(|c| FlowEntry {
            row: c.row,
            col: c.col,
            flow: c.flow,
        })
        .collect();
    flows.sort_by_key(|f| (f.row, f.col));
    let total_cost = flows
        .iter()
        .map(|f| f.flow as i128 * cost.at(f.row as usize, f.col as usize) as i128)
        .sum();
    let total_flow = flows.iter().map(|f| f.flow).sum();
    TransportPlan {
        flows,
        total_cost,
        total_flow,
    }
}

/// Parent-cell marker of the root (supplier 0); never a cell id, because a
/// basis has `m + n − 1 < u32::MAX` cells.
const ROOT: u32 = u32::MAX;

/// The basis as a spanning tree rooted at supplier 0. Node ids: suppliers
/// `0..m`, consumers `m..m + n`; cell ids index `cells`.
struct BasisTree {
    cells: Vec<BasisCell>,
    /// Basic cells incident to each node.
    adj: Vec<Vec<u32>>,
    /// The cell joining each node to its parent ([`ROOT`] at the root).
    parent: Vec<u32>,
    depth: Vec<u32>,
    /// Dual potentials: `u` for suppliers, then `v` for consumers.
    pot: Vec<i64>,
    m: usize,
    /// Scratch: the consumer-side half of a cycle, and the re-hang stack.
    consumer_side: Vec<u32>,
    stack: Vec<u32>,
}

impl BasisCell {
    /// The cell's supplier and consumer node ids.
    fn nodes(self, m: usize) -> (usize, usize) {
        let (row, col) = (self.row as usize, self.col as usize);
        (row, m + col)
    }

    fn cost(self, cost: &DenseCost) -> i64 {
        i64::from(cost.at(self.row as usize, self.col as usize))
    }
}

impl BasisTree {
    fn new(cells: Vec<BasisCell>, cost: &DenseCost, m: usize) -> Self {
        let nodes = cells.len() + 1;
        let mut adj = vec![Vec::new(); nodes];
        for (id, cell) in (0u32..).zip(&cells) {
            let (a, b) = cell.nodes(m);
            adj[a].push(id);
            adj[b].push(id);
        }
        let mut tree = BasisTree {
            cells,
            adj,
            parent: vec![ROOT; nodes],
            depth: vec![0; nodes],
            pot: vec![0; nodes],
            m,
            consumer_side: Vec::with_capacity(nodes),
            stack: Vec::with_capacity(nodes),
        };
        tree.hang(0, cost);
        #[cfg(debug_assertions)]
        tree.check(cost);
        tree
    }

    /// The node at the other end of `node`'s parent cell.
    fn up(&self, node: usize) -> usize {
        let (a, b) = self.cells[self.parent[node] as usize].nodes(self.m);
        if a == node {
            b
        } else {
            a
        }
    }

    /// Fills `path` with the cells of the tree path from supplier `from` to
    /// consumer `to`, ordered from the `from` end, and returns how many of
    /// them lie between `from` and the lowest common ancestor.
    fn cycle(&mut self, from: usize, to: usize, path: &mut Vec<u32>) -> usize {
        path.clear();
        self.consumer_side.clear();
        let (mut a, mut b) = (from, to);
        while self.depth[a] > self.depth[b] {
            path.push(self.parent[a]);
            a = self.up(a);
        }
        while self.depth[b] > self.depth[a] {
            self.consumer_side.push(self.parent[b]);
            b = self.up(b);
        }
        while a != b {
            path.push(self.parent[a]);
            a = self.up(a);
            self.consumer_side.push(self.parent[b]);
            b = self.up(b);
        }
        let split = path.len();
        path.extend(self.consumer_side.iter().rev());
        split
    }

    /// Replaces basic cell `leaving` by `entering`. The subtree cut off by
    /// `leaving` holds the entering cell's supplier when `supplier_side`,
    /// else its consumer; it is re-hung below the other endpoint.
    fn exchange(
        &mut self,
        leaving: u32,
        entering: BasisCell,
        supplier_side: bool,
        cost: &DenseCost,
    ) {
        let (a, b) = self.cells[leaving as usize].nodes(self.m);
        for node in [a, b] {
            let list = &mut self.adj[node];
            if let Some(k) = list.iter().position(|&id| id == leaving) {
                list.swap_remove(k);
            }
        }
        self.cells[leaving as usize] = entering;
        let (row, col) = entering.nodes(self.m);
        self.adj[row].push(leaving);
        self.adj[col].push(leaving);
        let (low, high) = if supplier_side {
            (row, col)
        } else {
            (col, row)
        };
        self.parent[low] = leaving;
        self.depth[low] = self.depth[high] + 1;
        self.pot[low] = entering.cost(cost) - self.pot[high];
        self.hang(low, cost);
    }

    /// Re-derives parent cell, depth and potential of every node below
    /// `top`, walking away from `top`'s own parent cell.
    fn hang(&mut self, top: usize, cost: &DenseCost) {
        let BasisTree {
            cells,
            adj,
            parent,
            depth,
            pot,
            m,
            stack,
            ..
        } = self;
        stack.clear();
        stack.push(top as u32);
        while let Some(node) = stack.pop() {
            let node = node as usize;
            for &id in &adj[node] {
                if id == parent[node] {
                    continue;
                }
                let cell = cells[id as usize];
                let (a, b) = cell.nodes(*m);
                let child = if a == node { b } else { a };
                parent[child] = id;
                depth[child] = depth[node] + 1;
                pot[child] = cell.cost(cost) - pot[node];
                stack.push(child as u32);
            }
        }
    }

    /// Debug-build audit of the incremental bookkeeping: every basic cell
    /// has zero reduced cost, every non-root node hangs from a basic cell
    /// one level above it, and the root keeps `u[0] = 0`.
    #[cfg(debug_assertions)]
    fn check(&self, cost: &DenseCost) {
        for cell in &self.cells {
            let (a, b) = cell.nodes(self.m);
            debug_assert_eq!(
                cell.cost(cost) - self.pot[a] - self.pot[b],
                0,
                "basic cell ({}, {}) has a nonzero reduced cost",
                cell.row,
                cell.col
            );
        }
        debug_assert_eq!((self.parent[0], self.depth[0], self.pot[0]), (ROOT, 0, 0));
        for node in 1..self.parent.len() {
            let id = self.parent[node];
            debug_assert!(
                self.adj[node].contains(&id),
                "node {node} hangs from non-basic cell {id}"
            );
            debug_assert_eq!(
                self.depth[node],
                self.depth[self.up(node)] + 1,
                "node {node} has a stale depth"
            );
        }
    }
}

/// Sequential row-minimum initial basis: exactly `m + n − 1` cells forming a
/// spanning tree (one line crossed out per allocation, both on the last).
fn initial_basis(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> Vec<BasisCell> {
    let m = supplies.len();
    let n = demands.len();
    let mut rs = supplies.to_vec();
    let mut rd = demands.to_vec();
    let mut row_open = vec![true; m];
    let mut col_open = vec![true; n];
    let mut open_rows = m;
    let mut open_cols = n;
    let mut basis = Vec::with_capacity(m + n - 1);

    let mut i = 0usize;
    while open_rows > 0 && open_cols > 0 {
        while !row_open[i] {
            i += 1;
            if i == m {
                i = 0;
            }
        }
        // Cheapest open column in row i. No cost sentinel: a row whose open
        // columns all cost `u32::MAX` must still get an allocation.
        let row = cost.row(i);
        let mut best_j = usize::MAX;
        let mut best_c = 0u32;
        for (j, &open) in col_open.iter().enumerate() {
            if open && (best_j == usize::MAX || row[j] < best_c) {
                best_c = row[j];
                best_j = j;
            }
        }
        debug_assert!(best_j != usize::MAX);
        let j = best_j;
        let x = rs[i].min(rd[j]);
        basis.push(BasisCell {
            row: i as u32,
            col: j as u32,
            flow: x,
        });
        rs[i] -= x;
        rd[j] -= x;
        if open_rows == 1 && open_cols == 1 {
            // Final allocation closes both lines.
            row_open[i] = false;
            col_open[j] = false;
            open_rows -= 1;
            open_cols -= 1;
        } else if rs[i] == 0 && (rd[j] > 0 || open_rows > 1) {
            row_open[i] = false;
            open_rows -= 1;
        } else {
            // Either the column is exhausted, or both are and this is the
            // last open row: cross out the column, keep the (possibly
            // zero-supply) row for a later degenerate allocation.
            col_open[j] = false;
            open_cols -= 1;
        }
    }
    basis
}

/// Scans scan-order offsets `lo..hi` (relative to `start`, wrapping at
/// `total`) and returns the most negative reduced cost with the earliest
/// offset achieving it. The shared kernel of both pricing paths.
#[allow(clippy::too_many_arguments)] // hot-loop slices stay unbundled
fn scan_cells(
    cost: &DenseCost,
    u: &[i64],
    v: &[i64],
    n: usize,
    start: usize,
    total: usize,
    lo: usize,
    hi: usize,
) -> Option<(i64, usize)> {
    let mut best: Option<(i64, usize)> = None;
    for off in lo..hi {
        let mut pos = start + off;
        if pos >= total {
            pos -= total;
        }
        let i = pos / n;
        let j = pos - i * n;
        let r = i64::from(cost.at(i, j)) - u[i] - v[j];
        if r < 0 && best.is_none_or(|(b, _)| r < b) {
            best = Some((r, off));
        }
    }
    best
}

/// Block pricing: scans cells cyclically in blocks, returning the most
/// negative reduced-cost cell of the first block that has one.
///
/// `parallel` chooses how each wave of blocks is scanned — on the rayon
/// pool or inline — but never *what* is returned: blocks are inspected in
/// scan order and ties resolve to the earliest-scanned cell, so both modes
/// pick the identical entering cell and leave `scan_pos` identical.
fn price_blocks(
    cost: &DenseCost,
    u: &[i64],
    v: &[i64],
    n: usize,
    block: usize,
    scan_pos: &mut usize,
    parallel: bool,
) -> Option<(usize, usize)> {
    let total = u.len() * n;
    let start = *scan_pos;
    let num_blocks = total.div_ceil(block);
    let scan_block = |bk: usize| {
        let lo = bk * block;
        scan_cells(cost, u, v, n, start, total, lo, (lo + block).min(total))
    };
    let mut hit: Option<(usize, usize)> = None; // (block, offset)
    if parallel {
        // Waves of blocks fan out over the pool; the first block (in scan
        // order) containing a negative cell wins, exactly as sequentially.
        let wave = (rayon::current_num_threads() * 2).max(1);
        let mut bk0 = 0;
        'waves: while bk0 < num_blocks {
            let bk1 = (bk0 + wave).min(num_blocks);
            let results: Vec<Option<(i64, usize)>> =
                (bk0..bk1).into_par_iter().map(scan_block).collect();
            for (i, res) in results.into_iter().enumerate() {
                if let Some((_, off)) = res {
                    hit = Some((bk0 + i, off));
                    break 'waves;
                }
            }
            bk0 = bk1;
        }
    } else {
        for bk in 0..num_blocks {
            if let Some((_, off)) = scan_block(bk) {
                hit = Some((bk, off));
                break;
            }
        }
    }
    let (bk, off) = hit?;
    *scan_pos = (start + ((bk + 1) * block).min(total)) % total;
    let mut pos = start + off;
    if pos >= total {
        pos -= total;
    }
    Some((pos / n, pos - (pos / n) * n))
}

/// Bland's rule: first negative reduced-cost cell in index order.
fn price_bland(cost: &DenseCost, u: &[i64], v: &[i64]) -> Option<(usize, usize)> {
    for (i, &ui) in u.iter().enumerate() {
        let row = cost.row(i);
        for (j, &c) in row.iter().enumerate() {
            if i64::from(c) - ui - v[j] < 0 {
                return Some((i, j));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn initial_basis_has_tree_size() {
        let cost = DenseCost::from_rows(&[&[3u32, 1, 7][..], &[2, 6, 5][..]]);
        let basis = initial_basis(&[10, 20], &[5, 15, 10], &cost);
        assert_eq!(basis.len(), 2 + 3 - 1);
        // Flows must be feasible.
        let mut shipped = [0u64; 2];
        let mut recv = [0u64; 3];
        for c in &basis {
            shipped[c.row as usize] += c.flow;
            recv[c.col as usize] += c.flow;
        }
        assert_eq!(shipped, [10, 20]);
        assert_eq!(recv, [5, 15, 10]);
    }

    /// Regression (found by `tests/transport_fuzz.rs`): rows whose open
    /// columns all cost exactly `u32::MAX` used to hit the `best_c`
    /// sentinel and leave the row unallocated.
    #[test]
    fn saturated_max_costs_still_build_a_basis() {
        let cost = DenseCost::filled(2, 2, u32::MAX);
        let basis = initial_basis(&[3, 4], &[5, 2], &cost);
        assert_eq!(basis.len(), 3);
        let plan = solve(&[3, 4], &[5, 2], &cost);
        assert_eq!(plan.total_flow, 7);
        assert_eq!(plan.total_cost, 7 * u32::MAX as i128);
    }

    #[test]
    fn degenerate_initial_basis_still_tree_sized() {
        // Supply and demand exhaust simultaneously mid-way.
        let cost = DenseCost::from_rows(&[&[1u32, 9][..], &[9, 1][..]]);
        let basis = initial_basis(&[5, 5], &[5, 5], &cost);
        assert_eq!(basis.len(), 3);
    }

    #[test]
    fn identity_costs_keep_mass_in_place() {
        // Zero diagonal, expensive off-diagonal: optimum is the diagonal.
        let cost = DenseCost::from_rows(&[&[0u32, 5, 5][..], &[5, 0, 5][..], &[5, 5, 0][..]]);
        let plan = solve(&[1, 2, 3], &[1, 2, 3], &cost);
        assert_eq!(plan.total_cost, 0);
    }

    /// Regression: maximally degenerate assignment-shaped instances (all
    /// supplies/demands equal, heavy cost ties) must terminate and still be
    /// optimal. These are the instances where every pivot moves θ = 0 and a
    /// pricing rule without an anti-cycling safeguard can loop forever.
    #[test]
    fn degenerate_assignment_instances_terminate_optimally() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [4usize, 8, 12] {
            // Two-valued cost matrix: maximal ties.
            let data: Vec<u32> = (0..n * n).map(|_| u32::from(rng.gen_bool(0.5))).collect();
            let cost = DenseCost::from_vec(n, n, data);
            let unit = vec![1u64; n];
            let reference = crate::ssp::solve(&unit, &unit, &cost);
            let plan = solve(&unit, &unit, &cost);
            assert_eq!(plan.total_cost, reference.total_cost, "n = {n}");
            assert_eq!(plan.total_flow, n as u64);
        }
    }

    /// Bland's rule is exercised directly by forcing the streak limit to
    /// zero: the very first degenerate pivot flips pricing over, and the
    /// result must still be the optimum. The last trial is a
    /// production-sized 20 × 200 shape, whose deep trees and large re-hung
    /// subtrees the debug-build tree audit re-checks after every pivot.
    #[test]
    fn bland_fallback_is_optimal() {
        let mut rng = SmallRng::seed_from_u64(11);
        for trial in 0..21 {
            let (m, n) = if trial == 20 {
                (20, 200)
            } else {
                (rng.gen_range(2..6), rng.gen_range(2..6))
            };
            let cost = DenseCost::random(m, n, 0..4, &mut rng);
            let mut supplies = vec![2u64; m];
            let mut demands = vec![2u64; n];
            let (ts, td) = (2 * m as u64, 2 * n as u64);
            if ts > td {
                demands[n - 1] += ts - td;
            } else {
                supplies[m - 1] += td - ts;
            }
            let reference = crate::ssp::solve(&supplies, &demands, &cost);
            let plan = solve_impl(&supplies, &demands, &cost, false, 0);
            assert_eq!(plan.total_cost, reference.total_cost, "trial {trial}");
        }
    }

    /// In-module smoke check of parallel/sequential pricing equivalence;
    /// the full property test lives in `tests/transport_properties.rs`.
    #[test]
    fn parallel_pricing_matches_sequential() {
        let mut rng = SmallRng::seed_from_u64(23);
        for trial in 0..10 {
            let m = rng.gen_range(1..20);
            let n = rng.gen_range(1..20);
            let cost = DenseCost::random(m, n, 0..30, &mut rng);
            let mut supplies: Vec<u64> = (0..m).map(|_| rng.gen_range(1..40)).collect();
            let mut demands: Vec<u64> = (0..n).map(|_| rng.gen_range(1..40)).collect();
            let (ts, td): (u64, u64) = (supplies.iter().sum(), demands.iter().sum());
            if ts > td {
                demands[n - 1] += ts - td;
            } else {
                supplies[m - 1] += td - ts;
            }
            let seq = solve_seq(&supplies, &demands, &cost);
            let par = solve_par(&supplies, &demands, &cost);
            assert_eq!(seq, par, "trial {trial}: plans must be bit-identical");
        }
    }
}
