//! Transportation simplex with MODI (u-v) pivoting and block pricing.
//!
//! The problem is the classic balanced transportation LP: ship `supplies`
//! to `demands` over a dense cost matrix at minimum total cost. The basis is
//! a spanning tree over the bipartite node set (suppliers ∪ consumers) with
//! exactly `m + n − 1` basic cells (some possibly degenerate with zero
//! flow).
//!
//! * Initial basis: the *least-cost* (matrix-minimum) method — visit the
//!   cells in `(cost, row, col)` order and allocate on each cell whose row
//!   and column are both still open, crossing out exactly one line per
//!   allocation. Any one-line-per-allocation method yields a triangular
//!   (spanning-tree) basis. Reduced SND problems have few distinct costs
//!   and equal bank capacities, and there the least-cost start lands much
//!   closer to the optimum than a row-by-row one: on the `pairwise`
//!   benchmark input it cuts the pivots per solve from about 450 to 250.
//!   The visiting order comes from a byte-wise radix sort on the cost, one
//!   pass for costs below 256.
//! * Basis tree: the tree is rooted at supplier 0 and maintained across
//!   pivots, never rebuilt. Each node keeps its parent node and cell, its
//!   depth and one dual potential (`u` for suppliers, `v` for consumers,
//!   with `u[0] = 0`), and the nodes are threaded in preorder, so every
//!   subtree is one contiguous run of the thread (the preorder "thread"
//!   index of network-simplex codes such as LEMON's).
//!   - The pivot cycle of an entering cell `(i, j)` is found by walking
//!     supplier `i` and consumer `j` up to their lowest common ancestor, so
//!     finding it costs the cycle's length.
//!   - After the flow update the leaving cell is cut, and the subtree it
//!     separated from the root is re-hung below the entering cell: only the
//!     stem from the entering cell's endpoint up to the cut changes parents,
//!     and it is reversed. One walk along the subtree's run of the thread
//!     reorders it into the new preorder and shifts every node's depth by
//!     a constant per stem node and its potential by the entering cell's
//!     reduced cost (with opposite signs on the two sides of the
//!     bipartition); no cost is looked up again.
//!
//!   Given `u[0] = 0` the duals of a spanning tree are unique, so they
//!   equal a full recomputation exactly; debug builds re-check the tree
//!   after every pivot.
//! * Pricing: block search à la LEMON's network simplex — scan cells in
//!   blocks of ≈√(mn), entering on the most negative reduced cost seen in
//!   the first block that contains one. Optimality is declared only after a
//!   full wrap-around without a negative cell. The scan walks each block
//!   one row segment at a time with the row's `u[i]` hoisted, so no cell
//!   costs a division.
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

#[derive(Clone, Copy, Debug)]
struct BasisCell {
    row: u32,
    col: u32,
    flow: Mass,
}

/// Solves a balanced transportation problem with all-positive supplies and
/// demands (callers strip zeros first; see [`crate::solve_balanced`]).
pub fn solve(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> TransportPlan {
    // Consecutive degenerate pivots tolerated before Bland's rule takes over.
    let streak_limit = 2 * (supplies.len() + demands.len()) + 32;
    solve_impl(supplies, demands, cost, streak_limit)
}

fn solve_impl(
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
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
            price_blocks(cost, u, v, n, block, &mut scan_pos)
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

/// Parent node and parent cell of the root (supplier 0); never a node or
/// cell id, because a basis has `m + n − 1 < u32::MAX` cells.
const NONE: u32 = u32::MAX;

/// The basis as a spanning tree rooted at supplier 0. Node ids: suppliers
/// `0..m`, consumers `m..m + n`; cell ids index `cells`.
///
/// The nodes are also threaded in preorder: `thread` is a circular list
/// through every node, starting at the root, in which each subtree is one
/// contiguous run — a node followed by every later node deeper than it.
/// A subtree is walked, or moved, without touching its parent's other
/// children.
struct BasisTree {
    cells: Vec<BasisCell>,
    /// Each node's parent node ([`NONE`] at the root) and the cell joining
    /// the two.
    parent: Vec<u32>,
    parent_cell: Vec<u32>,
    /// Preorder successor and predecessor of each node.
    thread: Vec<u32>,
    rev_thread: Vec<u32>,
    depth: Vec<u32>,
    /// Dual potentials: `u` for suppliers, then `v` for consumers.
    pot: Vec<i64>,
    m: usize,
    /// Scratch: the consumer-side half of a cycle, the DFS stack of
    /// [`BasisTree::new`], and the stem of a re-hang.
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
        // Incident cells of every node, in one flat array.
        let mut offset = vec![0u32; nodes + 1];
        for cell in &cells {
            let (a, b) = cell.nodes(m);
            offset[a + 1] += 1;
            offset[b + 1] += 1;
        }
        for k in 0..nodes {
            offset[k + 1] += offset[k];
        }
        let mut fill = offset.clone();
        let mut incident = vec![0u32; 2 * cells.len()];
        for (id, cell) in (0u32..).zip(&cells) {
            let (a, b) = cell.nodes(m);
            for node in [a, b] {
                incident[fill[node] as usize] = id;
                fill[node] += 1;
            }
        }
        let mut tree = BasisTree {
            cells,
            parent: vec![NONE; nodes],
            parent_cell: vec![NONE; nodes],
            thread: vec![0; nodes],
            rev_thread: vec![0; nodes],
            depth: vec![0; nodes],
            pot: vec![0; nodes],
            m,
            consumer_side: Vec::with_capacity(nodes),
            stack: Vec::with_capacity(nodes),
        };
        // Depth-first from the root; nodes are threaded in the order they
        // leave the stack, which is a preorder.
        let mut last = 0;
        tree.stack.push(0);
        while let Some(node) = tree.stack.pop() {
            let node = node as usize;
            tree.thread[last] = node as u32;
            tree.rev_thread[node] = last as u32;
            last = node;
            for &id in &incident[offset[node] as usize..offset[node + 1] as usize] {
                if id == tree.parent_cell[node] {
                    continue;
                }
                let cell = tree.cells[id as usize];
                let (a, b) = cell.nodes(m);
                let child = if a == node { b } else { a };
                tree.parent[child] = node as u32;
                tree.parent_cell[child] = id;
                tree.depth[child] = tree.depth[node] + 1;
                tree.pot[child] = cell.cost(cost) - tree.pot[node];
                tree.stack.push(child as u32);
            }
        }
        tree.thread[last] = 0;
        tree.rev_thread[0] = last as u32;
        #[cfg(debug_assertions)]
        tree.check(cost);
        tree
    }

    /// Fills `path` with the cells of the tree path from supplier `from` to
    /// consumer `to`, ordered from the `from` end, and returns how many of
    /// them lie between `from` and the lowest common ancestor.
    fn cycle(&mut self, from: usize, to: usize, path: &mut Vec<u32>) -> usize {
        path.clear();
        self.consumer_side.clear();
        let (mut a, mut b) = (from, to);
        while self.depth[a] > self.depth[b] {
            path.push(self.parent_cell[a]);
            a = self.parent[a] as usize;
        }
        while self.depth[b] > self.depth[a] {
            self.consumer_side.push(self.parent_cell[b]);
            b = self.parent[b] as usize;
        }
        while a != b {
            path.push(self.parent_cell[a]);
            a = self.parent[a] as usize;
            self.consumer_side.push(self.parent_cell[b]);
            b = self.parent[b] as usize;
        }
        let split = path.len();
        path.extend(self.consumer_side.iter().rev());
        split
    }

    /// Replaces basic cell `leaving` by `entering`. The subtree cut off by
    /// `leaving` holds the entering cell's supplier when `supplier_side`,
    /// else its consumer; it is re-hung below the other endpoint.
    ///
    /// Only the stem — the path `s₀, …, s_L` from that endpoint `s₀` up to
    /// the node `s_L` that `leaving` hung — changes parents: it is reversed,
    /// so each `s_k` becomes the last child of `s_{k−1}`. In the new
    /// preorder the subtree reads: the old subtree of `s₀`, then for each
    /// `k ≥ 1` the node `s_k` with the rest of its old subtree (the run
    /// before `s_{k−1}`'s subtree and the run after it). One walk over the
    /// old thread visits these runs in that order, relinks their ends, and
    /// shifts each node's depth by its run's constant and its potential by
    /// the entering cell's reduced cost `δ` — `+δ` on `s₀`'s side of the
    /// bipartition, `−δ` on the other, which keeps every basic cell inside
    /// at zero reduced cost and brings the entering cell to zero. The
    /// subtree then moves, as one run, to just after its new parent.
    fn exchange(
        &mut self,
        leaving: u32,
        entering: BasisCell,
        supplier_side: bool,
        cost: &DenseCost,
    ) {
        let (row, col) = entering.nodes(self.m);
        let delta = entering.cost(cost) - self.pot[row] - self.pot[col];
        let (low, high) = if supplier_side {
            (row, col)
        } else {
            (col, row)
        };
        let (supplier_shift, consumer_shift) = if supplier_side {
            (delta, -delta)
        } else {
            (-delta, delta)
        };
        self.cells[leaving as usize] = entering;

        let BasisTree {
            parent,
            parent_cell,
            thread,
            rev_thread,
            depth,
            pot,
            m,
            stack: stem,
            ..
        } = self;
        stem.clear();
        let mut node = low;
        loop {
            stem.push(node as u32);
            if parent_cell[node] == leaving {
                break;
            }
            node = parent[node] as usize;
        }
        let top = node;
        let before = rev_thread[top] as usize;

        // `tail` is the last node placed in the new order; `after` is the
        // old successor of the old subtree of the stem node last placed.
        let mut new_depth = depth[high];
        let (mut tail, mut after) = (low, low);
        for (k, &s) in stem.iter().enumerate() {
            let s = s as usize;
            let old_depth = depth[s];
            new_depth += 1;
            // A run's depths all move by one constant, possibly negative.
            let depth_shift = new_depth.wrapping_sub(old_depth);
            let visit = |depth: &mut [u32], pot: &mut [i64], x: usize| {
                depth[x] = depth[x].wrapping_add(depth_shift);
                pot[x] += if x < *m {
                    supplier_shift
                } else {
                    consumer_shift
                };
            };
            visit(depth, pot, s);
            if k == 0 {
                // `s₀`'s old subtree follows it already.
                after = thread[s] as usize;
            } else {
                // `s`, then the run before the subtree of `s_{k−1}`.
                thread[tail] = s as u32;
                rev_thread[s] = tail as u32;
                tail = s;
                while thread[tail] != stem[k - 1] {
                    tail = thread[tail] as usize;
                    visit(depth, pot, tail);
                }
                if depth[after] > old_depth {
                    thread[tail] = after as u32;
                    rev_thread[after] = tail as u32;
                }
            }
            // The run after it: the rest of the old subtree of `s`.
            while depth[after] > old_depth {
                visit(depth, pot, after);
                tail = after;
                after = thread[after] as usize;
            }
        }
        let mut up = high;
        let mut up_cell = leaving;
        for &s in stem.iter() {
            let s = s as usize;
            let old_cell = parent_cell[s];
            parent[s] = up as u32;
            parent_cell[s] = up_cell;
            (up, up_cell) = (s, old_cell);
        }

        // Cut the old run out, then splice the new one in after `high`.
        thread[before] = after as u32;
        rev_thread[after] = before as u32;
        let next = thread[high] as usize;
        thread[high] = low as u32;
        rev_thread[low] = high as u32;
        thread[tail] = next as u32;
        rev_thread[next] = tail as u32;
    }

    /// Debug-build audit of the incremental bookkeeping: every basic cell
    /// has zero reduced cost, every non-root node hangs from a basic cell
    /// joining it to its parent, the thread is a preorder of the parent
    /// links starting at the root with consistent back links, every depth
    /// is its parent's plus one, and the root keeps `u[0] = 0`.
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
        debug_assert_eq!((self.parent[0], self.depth[0], self.pot[0]), (NONE, 0, 0));
        for node in 1..self.parent.len() {
            let up = self.parent[node] as usize;
            let (a, b) = self.cells[self.parent_cell[node] as usize].nodes(self.m);
            debug_assert!(
                (a, b) == (node, up) || (a, b) == (up, node),
                "node {node} hangs from a cell that does not join it to its parent"
            );
        }
        // Walking the thread, the ancestors of the current node are the
        // first `depth` entries of `path`.
        let mut path: Vec<usize> = Vec::new();
        let mut node = 0;
        for _ in 0..self.parent.len() {
            let next = self.thread[node] as usize;
            debug_assert_eq!(self.rev_thread[next], node as u32, "back link of {next}");
            let d = self.depth[node] as usize;
            debug_assert!(d <= path.len(), "node {node} is not in preorder");
            path.truncate(d);
            if d > 0 {
                debug_assert_eq!(path[d - 1], self.parent[node] as usize, "node {node}");
            }
            path.push(node);
            node = next;
        }
        debug_assert_eq!(node, 0, "the thread misses a node");
    }
}

/// Least-cost (matrix-minimum) initial basis: visits the cells in
/// `(cost, row, col)` order and allocates on every cell whose row and
/// column are both still open, crossing out exactly one line per allocation
/// (both on the last). The result is a spanning tree of exactly `m + n − 1`
/// cells: a cell whose lines are both open when the walk reaches it has not
/// been visited yet, so the walk cannot run out of cells early.
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
    for cell in cells_by_cost(cost) {
        let (i, j) = unpack_cell(cell);
        if !row_open[i] || !col_open[j] {
            continue;
        }
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
            break;
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

/// Cell `(i, j)` as one integer, row above column. Rows and columns are
/// `u32`-indexed throughout the solver, so nothing truncates however many
/// cells the matrix has.
fn pack_cell(i: usize, j: usize) -> u64 {
    debug_assert!(u32::try_from(i).is_ok() && u32::try_from(j).is_ok());
    (i as u64) << 32 | j as u64
}

fn unpack_cell(cell: u64) -> (usize, usize) {
    ((cell >> 32) as usize, cell as u32 as usize)
}

/// Every cell of `cost` (see `pack_cell`) in `(cost, row, col)` order.
/// A least-significant-digit radix sort on the cost, one byte per pass:
/// it starts from row-major order and every pass is stable, so equal costs
/// keep that order. Bytes above the largest cost's top byte are zero in
/// every cell and get no pass, so costs below 256 take a single pass.
fn cells_by_cost(cost: &DenseCost) -> Vec<u64> {
    let max = cost.max_entry();
    let row_major = (0..cost.rows()).flat_map(|i| (0..cost.cols()).map(move |j| pack_cell(i, j)));
    let mut cells = radix_pass(cost, row_major, 0);
    for shift in (8..u32::BITS)
        .step_by(8)
        .take_while(|&shift| max >> shift > 0)
    {
        cells = radix_pass(cost, cells.iter().copied(), shift);
    }
    cells
}

/// One stable counting-sort pass of `cells` on the cost byte at `shift`.
fn radix_pass(cost: &DenseCost, cells: impl Iterator<Item = u64> + Clone, shift: u32) -> Vec<u64> {
    let digit = |cell: u64| {
        let (i, j) = unpack_cell(cell);
        (cost.at(i, j) >> shift) as usize & 0xff
    };
    let mut next = [0usize; 256];
    for cell in cells.clone() {
        next[digit(cell)] += 1;
    }
    let mut at = 0;
    for slot in &mut next {
        (*slot, at) = (at, at + *slot);
    }
    let mut sorted = vec![0u64; at];
    for cell in cells {
        let d = digit(cell);
        sorted[next[d]] = cell;
        next[d] += 1;
    }
    sorted
}

/// Scans scan-order offsets `lo..hi` (relative to `start`, wrapping at
/// `total`) and returns the most negative reduced cost with the earliest
/// offset achieving it: one block of [`price_blocks`].
///
/// The window is walked one row segment at a time with the row's `u[i]`
/// hoisted, so no cell costs a division: a cell improves on the best
/// reduced cost so far (0 before the first hit) exactly when
/// `c − v[j]` is below that best plus `u[i]`.
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
    let mut pos = start + lo;
    if pos >= total {
        pos -= total;
    }
    let (mut i, mut j) = (pos / n, pos % n);
    let mut best: Option<(i64, usize)> = None;
    let mut off = lo;
    while off < hi {
        let len = (n - j).min(hi - off);
        let mut bound = best.map_or(0, |(r, _)| r) + u[i];
        let mut hit = usize::MAX;
        for (k, (&c, &vj)) in cost.row(i)[j..j + len]
            .iter()
            .zip(&v[j..j + len])
            .enumerate()
        {
            let r = i64::from(c) - vj;
            if r < bound {
                bound = r;
                hit = k;
            }
        }
        if hit != usize::MAX {
            best = Some((bound - u[i], off + hit));
        }
        off += len;
        j += len;
        if j == n {
            j = 0;
            i += 1;
            if i == u.len() {
                i = 0;
            }
        }
    }
    best
}

/// Block pricing: scans cells cyclically in blocks, returning the most
/// negative reduced-cost cell of the first block that has one (the
/// earliest-scanned one on a tie).
fn price_blocks(
    cost: &DenseCost,
    u: &[i64],
    v: &[i64],
    n: usize,
    block: usize,
    scan_pos: &mut usize,
) -> Option<(usize, usize)> {
    let total = u.len() * n;
    let start = *scan_pos;
    let (bk, off) = (0..total.div_ceil(block)).find_map(|bk| {
        let lo = bk * block;
        let hit = scan_cells(cost, u, v, n, start, total, lo, (lo + block).min(total));
        hit.map(|(_, off)| (bk, off))
    })?;
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

    /// Regression (found by `tests/transport_fuzz.rs`): cells costing
    /// exactly `u32::MAX` are ordinary cells. A cost sentinel in the start
    /// once left such a row unallocated.
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

    /// Asserts that `basis` is a spanning tree of the `m + n` lines —
    /// exactly `m + n − 1` cells, no cycle, hence connected — and that it
    /// ships every supply and demand exactly.
    fn assert_spanning_start(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) {
        let (m, n) = (supplies.len(), demands.len());
        let basis = initial_basis(supplies, demands, cost);
        assert_eq!(basis.len(), m + n - 1, "{m}×{n}: tree size");
        let mut root: Vec<usize> = (0..m + n).collect();
        fn find(root: &mut [usize], mut x: usize) -> usize {
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        let mut shipped = vec![0 as Mass; m];
        let mut received = vec![0 as Mass; n];
        for cell in &basis {
            let (a, b) = cell.nodes(m);
            let (ra, rb) = (find(&mut root, a), find(&mut root, b));
            assert_ne!(
                ra, rb,
                "{m}×{n}: cell ({}, {}) closes a cycle",
                cell.row, cell.col
            );
            root[ra] = rb;
            shipped[cell.row as usize] += cell.flow;
            received[cell.col as usize] += cell.flow;
        }
        assert_eq!(shipped, supplies, "{m}×{n}: supplies");
        assert_eq!(received, demands, "{m}×{n}: demands");
    }

    /// Random positive masses on `m` rows and `n` columns with equal totals.
    fn balanced_masses(m: usize, n: usize, rng: &mut SmallRng) -> (Vec<Mass>, Vec<Mass>) {
        let mut supplies: Vec<Mass> = (0..m).map(|_| rng.gen_range(1..20)).collect();
        let mut demands: Vec<Mass> = (0..n).map(|_| rng.gen_range(1..20)).collect();
        let (ts, td): (Mass, Mass) = (supplies.iter().sum(), demands.iter().sum());
        if ts > td {
            demands[n - 1] += ts - td;
        } else {
            supplies[m - 1] += td - ts;
        }
        (supplies, demands)
    }

    #[test]
    fn least_cost_start_is_a_spanning_tree() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let (m, n) = (rng.gen_range(1..9), rng.gen_range(1..9));
            // Two-valued costs: nearly every cell ties with many others.
            let cost = DenseCost::random(m, n, 0..2, &mut rng);
            let (supplies, demands) = balanced_masses(m, n, &mut rng);
            assert_spanning_start(&supplies, &demands, &cost);
            // Equal capacities: a row and a column run out together at
            // nearly every allocation, in the middle of the walk.
            let unit = m * n;
            let cost = DenseCost::random(m, n, 0..4, &mut rng);
            assert_spanning_start(
                &vec![(unit / m) as Mass; m],
                &vec![(unit / n) as Mass; n],
                &cost,
            );
            // Every cost `u32::MAX`.
            let cost = DenseCost::filled(m, n, u32::MAX);
            assert_spanning_start(&supplies, &demands, &cost);
        }
        // Single lines.
        for len in [1usize, 2, 7] {
            let (supplies, demands) = balanced_masses(1, len, &mut rng);
            assert_spanning_start(
                &supplies,
                &demands,
                &DenseCost::random(1, len, 0..3, &mut rng),
            );
            let (supplies, demands) = balanced_masses(len, 1, &mut rng);
            assert_spanning_start(
                &supplies,
                &demands,
                &DenseCost::random(len, 1, 0..3, &mut rng),
            );
        }
    }

    /// The start visits cells in `(cost, row, col)` order for costs that
    /// differ in every byte, ties included.
    #[test]
    fn cells_by_cost_orders_by_cost_then_row_major() {
        let mut rng = SmallRng::seed_from_u64(17);
        let values = [
            0u32,
            1,
            255,
            256,
            65_535,
            65_536,
            1 << 24,
            u32::MAX - 1,
            u32::MAX,
        ];
        for (m, n) in [(1, 1), (3, 5), (6, 4), (1, 40), (40, 1)] {
            let data: Vec<u32> = (0..m * n)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect();
            let cost = DenseCost::from_vec(m, n, data);
            let mut expected: Vec<(u32, usize, usize)> = (0..m)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .map(|(i, j)| (cost.at(i, j), i, j))
                .collect();
            expected.sort_unstable();
            let got: Vec<(u32, usize, usize)> = cells_by_cost(&cost)
                .into_iter()
                .map(unpack_cell)
                .map(|(i, j)| (cost.at(i, j), i, j))
                .collect();
            assert_eq!(got, expected, "{m}×{n}");
        }
    }

    /// A packed cell keeps its row and column whole, and packed cells keep
    /// row-major order, past `2³²` cells: with 100,000 columns, row 70,000
    /// starts at cell 7·10⁹.
    #[test]
    fn packed_cells_do_not_truncate_past_2_pow_32_cells() {
        let cols = 100_000usize;
        let (i, j) = (70_000usize, cols - 1);
        assert!(i * cols + j > 1 << 32);
        assert_eq!(unpack_cell(pack_cell(i, j)), (i, j));
        assert!(pack_cell(i, j - 1) < pack_cell(i, j));
        assert!(pack_cell(i, j) < pack_cell(i + 1, 0));
        let top = u32::MAX as usize;
        assert_eq!(unpack_cell(pack_cell(top, top)), (top, top));
        assert_eq!(unpack_cell(pack_cell(top, 0)), (top, 0));
        assert!(pack_cell(top - 1, top) < pack_cell(top, 0));
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
            let plan = solve_impl(&supplies, &demands, &cost, 0);
            assert_eq!(plan.total_cost, reference.total_cost, "trial {trial}");
        }
    }

    /// Equal capacities and a few small distinct costs, the shape of the
    /// reduced SND problems: many degenerate pivots and deep re-hung
    /// subtrees, each re-checked by the debug-build tree audit.
    #[test]
    fn bank_shaped_instances_are_optimal() {
        let mut rng = SmallRng::seed_from_u64(31);
        for (m, n) in [(3, 160), (12, 90), (40, 60), (90, 12)] {
            let cost = DenseCost::random(m, n, 20..34, &mut rng);
            let (supplies, demands) = (vec![n as Mass; m], vec![m as Mass; n]);
            let reference = crate::ssp::solve(&supplies, &demands, &cost);
            let plan = solve(&supplies, &demands, &cost);
            assert_eq!(plan.total_cost, reference.total_cost, "{m}×{n}");
        }
    }
}
