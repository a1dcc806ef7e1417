//! Goldberg–Tarjan cost-scaling push–relabel min-cost flow.
//!
//! This is the algorithm family behind the CS2 solver that the paper's
//! implementation uses (§6.5), and the one Theorem 4's complexity analysis
//! cites. Costs are multiplied by `(V + 1)` so that a 1-optimal flow (no
//! residual arc with reduced cost below `−1` after the final phase) is
//! exactly optimal; `ε` shrinks geometrically by `ALPHA` between `refine`
//! phases. `refine` saturates all negative-reduced-cost arcs and then
//! discharges active nodes FIFO with current-arc scanning.
//!
//! The transportation instance is materialized as a bipartite network with
//! arc capacities `min(supply_i, demand_j)` (never binding at an extreme
//! point, so optimality is unaffected).
//!
//! # Overflow behavior
//!
//! Scaled costs and potentials are bounded by `O(V · ε₀) = O(V² · C)`,
//! which can exceed `i64` on huge-cost instances (the seed hard-panicked
//! there). [`solve`] now checks the headroom up front and *widens*: the
//! common case runs the network on `i64` arithmetic, and instances whose
//! potential bound does not fit run the identical algorithm on `i128`
//! (`CostInt` abstracts the scalar). Instances whose *total* mass does
//! not fit in the `i64` excess/residual counters (transient node excess is
//! bounded by total supply, not by any single mass) take a structured
//! fallback to the [`crate::ssp`] solver, whose arithmetic is unsigned
//! throughout — callers always get an exact optimum, never a panic.

use crate::dense::DenseCost;
use crate::plan::{FlowEntry, TransportPlan};
use crate::Mass;

const ALPHA: i64 = 8;

/// Signed scalar the scaled costs/potentials are computed in. Implemented
/// for `i64` (fast path) and `i128` (widened path for huge-cost instances).
trait CostInt:
    Copy
    + Ord
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Neg<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    const MIN: Self;
    fn of(v: i64) -> Self;
    fn times(self, v: i64) -> Self;
    fn div_alpha(self) -> Self;
}

impl CostInt for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MIN: Self = i64::MIN;
    fn of(v: i64) -> Self {
        v
    }
    fn times(self, v: i64) -> Self {
        self * v
    }
    fn div_alpha(self) -> Self {
        self / ALPHA
    }
}

impl CostInt for i128 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MIN: Self = i128::MIN;
    fn of(v: i64) -> Self {
        v as i128
    }
    fn times(self, v: i64) -> Self {
        self * v as i128
    }
    fn div_alpha(self) -> Self {
        self / ALPHA as i128
    }
}

#[derive(Clone, Copy, Debug)]
struct Arc<C> {
    to: u32,
    /// Index of the reverse arc in `graph[to]`.
    rev: u32,
    /// Residual capacity.
    residual: i64,
    /// Scaled cost (negated on reverse arcs).
    cost: C,
}

struct Network<C> {
    graph: Vec<Vec<Arc<C>>>,
    excess: Vec<i64>,
    potential: Vec<C>,
    current_arc: Vec<usize>,
}

impl<C: CostInt> Network<C> {
    fn new(nodes: usize) -> Self {
        Network {
            graph: vec![Vec::new(); nodes],
            excess: vec![0; nodes],
            potential: vec![C::ZERO; nodes],
            current_arc: vec![0; nodes],
        }
    }

    fn add_arc(&mut self, from: u32, to: u32, capacity: i64, cost: C) {
        let rev_from = self.graph[to as usize].len() as u32;
        let rev_to = self.graph[from as usize].len() as u32;
        self.graph[from as usize].push(Arc {
            to,
            rev: rev_from,
            residual: capacity,
            cost,
        });
        self.graph[to as usize].push(Arc {
            to: from,
            rev: rev_to,
            residual: 0,
            cost: -cost,
        });
    }

    #[inline]
    fn reduced_cost(&self, from: usize, arc: &Arc<C>) -> C {
        arc.cost + self.potential[from] - self.potential[arc.to as usize]
    }

    /// One scaling phase: make the current pseudo-flow ε-optimal.
    fn refine(&mut self, eps: C) {
        let nodes = self.graph.len();
        // Saturate arcs with negative reduced cost; this converts the
        // ε'-optimal flow of the previous phase into an ε-optimal
        // pseudo-flow with excesses.
        for v in 0..nodes {
            for a in 0..self.graph[v].len() {
                let arc = self.graph[v][a];
                if arc.residual > 0 && self.reduced_cost(v, &arc) < C::ZERO {
                    let delta = arc.residual;
                    self.apply_push(v, a, delta);
                }
            }
        }
        for p in self.current_arc.iter_mut() {
            *p = 0;
        }
        let mut queue: std::collections::VecDeque<u32> = (0..nodes as u32)
            .filter(|&v| self.excess[v as usize] > 0)
            .collect();
        let mut queued = vec![false; nodes];
        for &v in &queue {
            queued[v as usize] = true;
        }
        while let Some(v) = queue.pop_front() {
            queued[v as usize] = false;
            self.discharge(v as usize, eps, &mut queue, &mut queued);
        }
    }

    fn apply_push(&mut self, from: usize, arc_idx: usize, delta: i64) {
        debug_assert!(delta > 0);
        let (to, rev) = {
            let arc = &mut self.graph[from][arc_idx];
            arc.residual -= delta;
            (arc.to as usize, arc.rev as usize)
        };
        self.graph[to][rev].residual += delta;
        self.excess[from] -= delta;
        self.excess[to] += delta;
    }

    fn discharge(
        &mut self,
        v: usize,
        eps: C,
        queue: &mut std::collections::VecDeque<u32>,
        queued: &mut [bool],
    ) {
        while self.excess[v] > 0 {
            if self.current_arc[v] == self.graph[v].len() {
                self.relabel(v, eps);
                self.current_arc[v] = 0;
                continue;
            }
            let a = self.current_arc[v];
            let arc = self.graph[v][a];
            if arc.residual > 0 && self.reduced_cost(v, &arc) < C::ZERO {
                let delta = self.excess[v].min(arc.residual);
                let to = arc.to as usize;
                let was_active = self.excess[to] > 0;
                self.apply_push(v, a, delta);
                if !was_active && self.excess[to] > 0 && !queued[to] {
                    queued[to] = true;
                    queue.push_back(to as u32);
                }
            } else {
                self.current_arc[v] += 1;
            }
        }
    }

    /// Lower `v`'s potential just enough to create an admissible arc.
    fn relabel(&mut self, v: usize, eps: C) {
        let mut best = C::MIN;
        for arc in &self.graph[v] {
            if arc.residual > 0 {
                let candidate = self.potential[arc.to as usize] - arc.cost;
                if candidate > best {
                    best = candidate;
                }
            }
        }
        assert!(best != C::MIN, "relabel on a node with no residual arcs");
        self.potential[v] = best - eps;
    }
}

/// Runs the scaling loop on the chosen scalar width. `max_cost` is
/// `cost.max_entry()`, already computed by [`solve`] for the width check.
fn solve_typed<C: CostInt>(
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
    max_cost: i64,
) -> TransportPlan {
    let m = supplies.len();
    let n = demands.len();
    let nodes = m + n;
    let scale = (nodes + 1) as i64;

    let mut net: Network<C> = Network::new(nodes);
    for (i, &supply) in supplies.iter().enumerate() {
        for (j, &demand) in demands.iter().enumerate() {
            // lint:allow(no-unwrap) masses are validated to fit i64 on entry to `solve`
            let capacity = i64::try_from(supply.min(demand)).expect("mass fits i64");
            net.add_arc(
                i as u32,
                (m + j) as u32,
                capacity,
                C::of(cost.at(i, j) as i64).times(scale),
            );
        }
    }
    for (i, &s) in supplies.iter().enumerate() {
        // lint:allow(no-unwrap) masses are validated to fit i64 on entry to `solve`
        net.excess[i] = i64::try_from(s).expect("mass fits i64");
    }
    for (j, &d) in demands.iter().enumerate() {
        // lint:allow(no-unwrap) masses are validated to fit i64 on entry to `solve`
        net.excess[m + j] = -i64::try_from(d).expect("mass fits i64");
    }

    let mut eps = C::of(max_cost).times(scale).max(C::ONE);
    loop {
        net.refine(eps);
        if eps == C::ONE {
            break;
        }
        eps = eps.div_alpha().max(C::ONE);
    }
    debug_assert!(net.excess.iter().all(|&e| e == 0), "flow must be balanced");

    let mut flows = Vec::new();
    let mut total_cost: i128 = 0;
    let mut total_flow: Mass = 0;
    for i in 0..m {
        for arc in &net.graph[i] {
            // Forward arcs leave suppliers; flow = capacity − residual,
            // read off the reverse arc's residual.
            // lint:allow(lossy-cast) u32 node id → usize index; not mass/cost arithmetic
            let j = arc.to as usize - m;
            let f = net.graph[arc.to as usize][arc.rev as usize].residual;
            if f > 0 {
                flows.push(FlowEntry {
                    row: i as u32,
                    col: j as u32,
                    flow: f as Mass,
                });
                total_cost += f as i128 * cost.at(i, j) as i128;
                total_flow += f as Mass;
            }
        }
    }
    flows.sort_by_key(|f| (f.row, f.col));
    TransportPlan {
        flows,
        total_cost,
        total_flow,
    }
}

/// True when the `i64` potential bound `max_cost · (V+1) · (3V+3)` has
/// comfortable headroom — the condition the seed `assert!`ed on.
fn fits_i64(max_cost: u32, nodes: usize) -> bool {
    (max_cost as i128) * (nodes as i128 + 1) * (3 * nodes as i128 + 3) < i64::MAX as i128 / 4
}

/// Solves a balanced transportation problem with all-positive supplies and
/// demands.
///
/// Never panics on instance magnitude: huge-cost instances widen the
/// scaled-cost arithmetic to `i128`, and masses above `i64::MAX` fall back
/// to the unsigned-arithmetic SSP solver (see the module docs).
pub fn solve(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> TransportPlan {
    // A node's transient excess is bounded by the *total* supply (several
    // suppliers can push into one node before it discharges), so the whole
    // total — not just each mass — must fit the i64 excess counters.
    let total: u128 = supplies.iter().map(|&s| s as u128).sum();
    if i64::try_from(total).is_err() {
        return crate::ssp::solve(supplies, demands, cost);
    }
    let nodes = supplies.len() + demands.len();
    let max_cost = cost.max_entry();
    if fits_i64(max_cost, nodes) {
        solve_typed::<i64>(supplies, demands, cost, max_cost as i64)
    } else {
        solve_typed::<i128>(supplies, demands, cost, max_cost as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_optimum() {
        let cost = DenseCost::from_rows(&[&[0u32, 9][..], &[9, 0][..]]);
        let plan = solve(&[5, 7], &[5, 7], &cost);
        assert_eq!(plan.total_cost, 0);
        assert_eq!(plan.total_flow, 12);
    }

    #[test]
    fn asymmetric_instance() {
        let cost = DenseCost::from_rows(&[&[3u32, 1][..]]);
        let plan = solve(&[10], &[4, 6], &cost);
        assert_eq!(plan.total_cost, 4 * 3 + 6);
    }

    #[test]
    fn zero_cost_everywhere() {
        let cost = DenseCost::filled(3, 2, 0);
        let plan = solve(&[1, 2, 3], &[4, 2], &cost);
        assert_eq!(plan.total_cost, 0);
        assert_eq!(plan.total_flow, 6);
    }

    /// Regression for the seed's hard `assert!`: `u32::MAX` costs on an
    /// instance large enough that the `i64` potential bound fails. The seed
    /// panicked with "cost magnitude too large"; the widened `i128` path
    /// must solve it exactly.
    #[test]
    fn huge_costs_widen_instead_of_panicking() {
        let n = 14_000usize;
        assert!(
            !fits_i64(u32::MAX, n + 1),
            "instance must actually exceed the i64 headroom check"
        );
        let cost = DenseCost::filled(1, n, u32::MAX);
        let supplies = [n as u64];
        let demands = vec![1u64; n];
        let plan = solve(&supplies, &demands, &cost);
        assert_eq!(plan.total_cost, n as i128 * u32::MAX as i128);
        assert_eq!(plan.total_flow, n as u64);
        crate::plan::verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
    }

    /// Masses above `i64::MAX` cannot be represented in the push–relabel
    /// excess counters; the structured SSP fallback must still return the
    /// exact optimum (the seed truncated them with `as i64`).
    #[test]
    fn masses_beyond_i64_fall_back_exactly() {
        let big = u64::MAX - 3;
        let cost = DenseCost::from_rows(&[&[3u32, 1][..]]);
        let plan = solve(&[big], &[big - 5, 5], &cost);
        assert_eq!(plan.total_cost, (big - 5) as i128 * 3 + 5);
        assert_eq!(plan.total_flow, big);
    }

    /// Regression (code review): masses that fit `i64` individually but
    /// whose *total* does not overflowed the excess counters when several
    /// suppliers pushed into one node. The total-mass guard must route
    /// these to the SSP fallback.
    #[test]
    fn total_mass_beyond_i64_falls_back_exactly() {
        let chunk = 6_000_000_000_000_000_000u64; // 3 · 6e18 > i64::MAX
        let cost = DenseCost::from_rows(&[&[0u32, 1, 1][..], &[0, 1, 1][..], &[0, 1, 1][..]]);
        let supplies = [chunk; 3];
        let demands = [chunk; 3];
        let plan = solve(&supplies, &demands, &cost);
        crate::plan::verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
        // Optimum: one supplier uses the free column, two pay 1/unit.
        assert_eq!(plan.total_cost, 2 * chunk as i128);
    }

    /// The widened path agrees with the i64 path on instances both can
    /// solve (forced by calling the typed entry points directly).
    #[test]
    fn widened_path_matches_i64_path() {
        let cost = DenseCost::from_rows(&[&[4u32, 6, 8][..], &[5, 8, 7][..], &[6, 5, 7][..]]);
        let supplies = [200u64, 300, 400];
        let demands = [200u64, 300, 400];
        let max_cost = cost.max_entry() as i64;
        let narrow = solve_typed::<i64>(&supplies, &demands, &cost, max_cost);
        let wide = solve_typed::<i128>(&supplies, &demands, &cost, max_cost);
        assert_eq!(narrow, wide);
    }
}
