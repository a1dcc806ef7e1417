//! Exact solvers for the transportation problem underlying EMD and SND.
//!
//! All arithmetic is integral: masses are fixed-point integers (`u64`) and
//! per-unit costs are `u32`, with cost accumulation in `i128`, so solver
//! results are exact and platform-independent. Three independent solvers are
//! provided and cross-validated against each other:
//!
//! * [`simplex`] — the transportation simplex (row-minimum start, MODI
//!   pivoting with block pricing on an incrementally maintained basis
//!   tree). Default: fastest in practice on the dense bipartite problems
//!   SND produces.
//! * [`ssp`] — successive shortest paths with Johnson potentials; compact
//!   and obviously-correct, used as an oracle.
//! * [`cost_scaling`] — Goldberg–Tarjan cost-scaling push–relabel, the
//!   algorithm family behind the CS2 solver used by the paper (§6.5) and by
//!   Theorem 4's complexity bound.
//!
//! [`Solver::Auto`] picks among them per instance (see [`select_solver`]),
//! and single-row/column instances short-circuit to their forced plan
//! without running any solver.
//!
//! The entry points are [`solve_balanced`] (total supply must equal total
//! demand — the case produced by EMD\*'s bank-bin extension) and
//! [`solve_unbalanced`] (classic-EMD semantics: only `min(ΣP, ΣQ)` mass
//! moves; the surplus is absorbed by a zero-cost dummy node).
//!
//! # Overflow semantics
//!
//! No solver panics on instance magnitude. The simplex prices on the rayon
//! pool for large instances ([`simplex::solve_par`] is property-tested
//! bit-identical to [`simplex::solve_seq`]); cost-scaling widens its scaled
//! potentials to `i128` when `u32`-sized costs on large node counts exceed
//! the `i64` headroom, and falls back to SSP for masses beyond `i64::MAX`
//! (see [`cost_scaling`]'s module docs).

pub mod cost_scaling;
pub mod dense;
pub mod plan;
pub mod simplex;
pub mod ssp;

pub use dense::DenseCost;
pub use plan::{verify_feasible, FlowEntry, TransportPlan};

/// Fixed-point mass unit.
pub type Mass = u64;

/// Solver selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Solver {
    /// Transportation simplex (default).
    #[default]
    Simplex,
    /// Successive shortest paths.
    Ssp,
    /// Cost-scaling push–relabel.
    CostScaling,
    /// Pick per instance from its shape ([`select_solver`]); single-line
    /// instances bypass the solvers entirely.
    Auto,
}

/// Aspect ratio (`cols / rows`) from which [`select_solver`] prefers
/// cost-scaling over the simplex.
pub const WIDE_ASPECT: usize = 128;

/// Picks the solver for a (zero-stripped) balanced instance.
///
/// Takes the instance itself rather than pre-extracted statistics so that
/// magnitude scans (max cost is an `O(m·n)` pass) happen only if a
/// threshold actually consults them — the current thresholds are purely
/// shape-based, so selection is `O(1)`.
///
/// Calibrated against the `solver_scaling` bench
/// (`BENCH_solver_scaling.json`, 2 threads, so the 128×128 shapes price on
/// the pool) on the dense bipartite shapes SND produces:
///
/// * The transportation simplex wins every near-square shape at every
///   measured size and cost magnitude — ~1.8× over SSP at 4×4 growing to
///   ~7× at 128×128, and 1.5× (small costs) to 2.7× (huge costs) over
///   cost-scaling there — so it is the default.
/// * Cost-scaling wins *column-heavy* shapes, `cols ≳ 128·rows` (1.5× at
///   2×256, 1.7× at 4×1024): the simplex's row-minimum start scans every
///   open column per allocation, degrading toward `O(cols²)` when rows are
///   few. These shapes are real in the warm path — a nearly-identical
///   snapshot pair has few residual rows but bank columns on every active
///   bin. At 8×512 (aspect 64) the simplex is 2.3× faster. The transposed
///   case (`rows ≫ cols`) stays with the simplex, whose start is cheap
///   there (measured 5× faster than cost-scaling at 256×4).
/// * SSP never wins a measured shape; it remains the cross-validation
///   oracle and the structured fallback for beyond-`i64` masses.
///
/// Cost and mass magnitudes stay available through `cost`/`supplies` for
/// future recalibration: cost magnitude moves cost-scaling's phase count
/// (`∝ log(max_cost)`, which halves its wide-shape margin at `u32::MAX`
/// costs) and total mass decides the fallback inside cost-scaling.
pub fn select_solver(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> Solver {
    debug_assert_eq!(supplies.len(), cost.rows());
    debug_assert_eq!(demands.len(), cost.cols());
    if demands.len() >= WIDE_ASPECT * supplies.len().max(1) {
        Solver::CostScaling
    } else {
        Solver::Simplex
    }
}

/// The forced plan of a single-row or single-column balanced instance:
/// every cell must carry exactly the opposite side's mass, so no pivoting
/// or path search is needed. `None` for general shapes.
fn solve_line(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) -> Option<TransportPlan> {
    let flows: Vec<FlowEntry> = if supplies.len() == 1 {
        demands
            .iter()
            .enumerate()
            .map(|(j, &d)| FlowEntry {
                row: 0,
                col: j as u32,
                flow: d,
            })
            .collect()
    } else if demands.len() == 1 {
        supplies
            .iter()
            .enumerate()
            .map(|(i, &s)| FlowEntry {
                row: i as u32,
                col: 0,
                flow: s,
            })
            .collect()
    } else {
        return None;
    };
    let mut plan = TransportPlan {
        flows,
        total_cost: 0,
        total_flow: 0,
    };
    plan.recompute_totals(cost);
    Some(plan)
}

/// Solves a balanced transportation problem (`Σ supplies == Σ demands`).
///
/// Zero-supply rows and zero-demand columns are permitted and are stripped
/// before solving (Lemma 1 of the paper: empty bins never affect the
/// optimum).
///
/// # Panics
/// Panics if the problem is unbalanced or the matrix shape mismatches.
pub fn solve_balanced(
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
    solver: Solver,
) -> TransportPlan {
    assert_eq!(supplies.len(), cost.rows(), "supply/cost shape mismatch");
    assert_eq!(demands.len(), cost.cols(), "demand/cost shape mismatch");
    let total_s: u128 = supplies.iter().map(|&s| s as u128).sum();
    let total_d: u128 = demands.iter().map(|&d| d as u128).sum();
    assert_eq!(total_s, total_d, "unbalanced transportation problem");
    if total_s == 0 {
        return TransportPlan::empty();
    }

    // Strip empty rows/columns (Lemma 1) and remember original indices.
    let rows: Vec<usize> = (0..supplies.len()).filter(|&i| supplies[i] > 0).collect();
    let cols: Vec<usize> = (0..demands.len()).filter(|&j| demands[j] > 0).collect();
    let sub_supplies: Vec<Mass> = rows.iter().map(|&i| supplies[i]).collect();
    let sub_demands: Vec<Mass> = cols.iter().map(|&j| demands[j]).collect();
    let sub_cost = cost.submatrix(&rows, &cols);

    let solver = match solver {
        Solver::Auto => {
            // Single-line instances have a forced plan — skip solving.
            if let Some(mut plan) = solve_line(&sub_supplies, &sub_demands, &sub_cost) {
                for entry in &mut plan.flows {
                    entry.row = rows[entry.row as usize] as u32;
                    entry.col = cols[entry.col as usize] as u32;
                }
                return plan;
            }
            select_solver(&sub_supplies, &sub_demands, &sub_cost)
        }
        s => s,
    };
    let mut plan = match solver {
        Solver::Simplex => simplex::solve(&sub_supplies, &sub_demands, &sub_cost),
        Solver::Ssp => ssp::solve(&sub_supplies, &sub_demands, &sub_cost),
        Solver::CostScaling => cost_scaling::solve(&sub_supplies, &sub_demands, &sub_cost),
        Solver::Auto => unreachable!("Auto resolved above"),
    };
    // Map flows back to original indices.
    for entry in &mut plan.flows {
        entry.row = rows[entry.row as usize] as u32;
        entry.col = cols[entry.col as usize] as u32;
    }
    plan
}

/// Solves an unbalanced problem with classic-EMD semantics: exactly
/// `min(Σ supplies, Σ demands)` units move; surplus supply (or unmet demand)
/// is routed to a zero-cost dummy column (or row) that does not appear in
/// the returned flows.
pub fn solve_unbalanced(
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
    solver: Solver,
) -> TransportPlan {
    let total_s: u128 = supplies.iter().map(|&s| s as u128).sum();
    let total_d: u128 = demands.iter().map(|&d| d as u128).sum();
    if total_s == total_d {
        return solve_balanced(supplies, demands, cost, solver);
    }
    let (m, n) = (supplies.len(), demands.len());
    if total_s > total_d {
        // Dummy consumer absorbs the surplus at zero cost.
        let surplus = (total_s - total_d) as Mass;
        let mut demands2 = demands.to_vec();
        demands2.push(surplus);
        let cost2 = cost.with_extra_col(0);
        let mut plan = solve_balanced(supplies, &demands2, &cost2, solver);
        plan.flows.retain(|f| (f.col as usize) < n);
        plan.recompute_totals(cost);
        plan
    } else {
        let deficit = (total_d - total_s) as Mass;
        let mut supplies2 = supplies.to_vec();
        supplies2.push(deficit);
        let cost2 = cost.with_extra_row(0);
        let mut plan = solve_balanced(&supplies2, demands, &cost2, solver);
        plan.flows.retain(|f| (f.row as usize) < m);
        plan.recompute_totals(cost);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn all_solvers() -> [Solver; 4] {
        [
            Solver::Simplex,
            Solver::Ssp,
            Solver::CostScaling,
            Solver::Auto,
        ]
    }

    #[test]
    fn trivial_one_cell() {
        let cost = DenseCost::from_rows(&[&[7u32][..]]);
        for s in all_solvers() {
            let plan = solve_balanced(&[5], &[5], &cost, s);
            assert_eq!(plan.total_cost, 35);
            assert_eq!(plan.total_flow, 5);
        }
    }

    #[test]
    fn textbook_3x3() {
        let cost = DenseCost::from_rows(&[&[4u32, 6, 8][..], &[5, 8, 7][..], &[6, 5, 7][..]]);
        let supplies = [200u64, 300, 400];
        let demands = [200u64, 300, 400];
        // All three independent solvers must agree; SSP is the reference.
        let reference = solve_balanced(&supplies, &demands, &cost, Solver::Ssp);
        for s in all_solvers() {
            let plan = solve_balanced(&supplies, &demands, &cost, s);
            verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
            assert_eq!(plan.total_cost, reference.total_cost, "solver {s:?}");
        }
    }

    #[test]
    fn solvers_agree_on_random_instances() {
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..60 {
            let m = rng.gen_range(1..8);
            let n = rng.gen_range(1..8);
            let cost = DenseCost::random(m, n, 0..50, &mut rng);
            let mut supplies: Vec<u64> = (0..m).map(|_| rng.gen_range(0..30)).collect();
            let mut demands: Vec<u64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            // Balance by topping up the last element.
            let (ts, td): (u64, u64) = (supplies.iter().sum(), demands.iter().sum());
            if ts > td {
                demands[n - 1] += ts - td;
            } else {
                supplies[m - 1] += td - ts;
            }
            let reference = solve_balanced(&supplies, &demands, &cost, Solver::Ssp);
            for s in all_solvers() {
                let plan = solve_balanced(&supplies, &demands, &cost, s);
                verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
                assert_eq!(
                    plan.total_cost, reference.total_cost,
                    "trial {trial} solver {s:?}"
                );
            }
        }
    }

    #[test]
    fn unbalanced_moves_min_mass() {
        let cost = DenseCost::from_rows(&[&[1u32, 10][..], &[10, 1][..]]);
        for s in all_solvers() {
            // Supply 30, demand 12 => only 12 units move, matched diagonally.
            let plan = solve_unbalanced(&[20, 10], &[6, 6], &cost, s);
            assert_eq!(plan.total_flow, 12);
            assert_eq!(plan.total_cost, 12);
            // Demand-heavy mirror.
            let plan = solve_unbalanced(&[6, 6], &[20, 10], &cost, s);
            assert_eq!(plan.total_flow, 12);
            assert_eq!(plan.total_cost, 12);
        }
    }

    #[test]
    fn zero_rows_and_cols_are_ignored() {
        let cost = DenseCost::from_rows(&[&[9u32, 2][..], &[3, 9][..]]);
        for s in all_solvers() {
            let plan = solve_balanced(&[0, 4], &[4, 0], &cost, s);
            assert_eq!(plan.total_cost, 12);
            assert_eq!(plan.flows.len(), 1);
            assert_eq!((plan.flows[0].row, plan.flows[0].col), (1, 0));
        }
    }

    #[test]
    fn all_zero_problem() {
        let cost = DenseCost::from_rows(&[&[1u32][..]]);
        for s in all_solvers() {
            let plan = solve_balanced(&[0], &[0], &cost, s);
            assert_eq!(plan.total_cost, 0);
            assert_eq!(plan.total_flow, 0);
        }
    }

    #[test]
    fn large_masses_no_overflow() {
        let big = 1u64 << 40;
        let cost = DenseCost::from_rows(&[&[u32::MAX / 4][..]]);
        let plan = solve_balanced(&[big], &[big], &cost, Solver::Simplex);
        assert_eq!(plan.total_cost, (big as i128) * ((u32::MAX / 4) as i128));
    }

    /// Solves through every other solver — `Auto` routes these shapes to
    /// the simplex — and checks each against SSP.
    fn assert_solvers_match_ssp(supplies: &[Mass], demands: &[Mass], cost: &DenseCost) {
        let reference = solve_balanced(supplies, demands, cost, Solver::Ssp);
        verify_feasible(&reference, supplies, demands, cost).unwrap();
        for s in [Solver::Simplex, Solver::Auto, Solver::CostScaling] {
            let plan = solve_balanced(supplies, demands, cost, s);
            verify_feasible(&plan, supplies, demands, cost).unwrap();
            assert_eq!(plan.total_cost, reference.total_cost, "solver {s:?}");
        }
    }

    #[test]
    fn total_supply_of_exactly_i64_max() {
        let h = i64::MAX as Mass;
        let supplies = [h / 3, h / 3, h - 2 * (h / 3)];
        let demands = [h / 2, h / 4, h - h / 2 - h / 4];
        let cost = DenseCost::from_rows(&[&[9u32, 1, 4][..], &[2, 8, 3][..], &[5, 6, 1][..]]);
        assert_solvers_match_ssp(&supplies, &demands, &cost);
    }

    #[test]
    fn total_supply_just_past_i64_max() {
        let half = 1u64 << 62; // two of these sum to i64::MAX + 1
        let supplies = [half, half];
        let demands = [half / 2, half, half / 2];
        let cost = DenseCost::from_rows(&[&[1u32, 7, 3][..], &[2, 1, 9][..]]);
        assert_eq!(supplies.iter().sum::<Mass>(), i64::MAX as Mass + 1);
        assert_solvers_match_ssp(&supplies, &demands, &cost);
    }

    /// The "−" cells of a pivot cycle sit in at least two distinct rows, so
    /// θ is at most half the total mass: with every line positive, the
    /// largest θ a pivot can move is `Mass::MAX / 2 = i64::MAX`, and
    /// `Mass::MAX` itself is out of reach. The first instance's only pivot
    /// moves exactly that θ (its row-minimum start ships row 0 along the
    /// diagonal, and the optimum ships `i64::MAX` off it); the second
    /// raises a basic cell to `Mass::MAX − 1`.
    #[test]
    fn pivots_at_the_mass_boundary() {
        let theta = i64::MAX as Mass;
        let cost = DenseCost::from_rows(&[&[1u32, 2][..], &[2, 100][..]]);
        let lines = [theta + 1, theta];
        assert_eq!(lines.iter().sum::<Mass>(), Mass::MAX);
        assert_solvers_match_ssp(&lines, &lines, &cost);
        let plan = solve_balanced(&lines, &lines, &cost, Solver::Simplex);
        assert_eq!(plan.total_cost, 1 + 4 * theta as i128);
        assert!(plan.flows.contains(&FlowEntry {
            row: 0,
            col: 1,
            flow: theta,
        }));

        let cost = DenseCost::from_rows(&[&[0u32, 5][..], &[1, 10][..]]);
        let (supplies, demands) = ([Mass::MAX - 1, 1], [1, Mass::MAX - 1]);
        assert_solvers_match_ssp(&supplies, &demands, &cost);
        let plan = solve_balanced(&supplies, &demands, &cost, Solver::Simplex);
        assert!(plan.flows.iter().any(|f| f.flow == Mass::MAX - 1));
    }

    /// `solve_unbalanced` pads the lighter side with a zero-cost dummy
    /// line carrying the difference, so the padded problem moves the
    /// heavier total. Here that total is `i64::MAX` exactly, then one unit
    /// past it (supply-heavy), and `i64::MAX` again on the demand side.
    /// Every solver must move the lighter total at SSP's cost.
    #[test]
    fn unbalanced_totals_at_the_i64_max_edge() {
        let h = i64::MAX as Mass;
        let cost = DenseCost::from_rows(&[&[4u32, 1, 7][..], &[2, 9, 3][..]]);
        let cases: [([Mass; 2], [Mass; 3]); 3] = [
            ([h / 2, h - h / 2], [h / 8, h / 4, h / 8]),
            ([1 << 62, 1 << 62], [3, 1 << 61, 5]),
            ([h / 4, 7], [h / 2, h / 4, h - h / 2 - h / 4]),
        ];
        for (supplies, demands) in cases {
            let moved = supplies.iter().sum::<Mass>().min(demands.iter().sum());
            let reference = solve_unbalanced(&supplies, &demands, &cost, Solver::Ssp);
            assert_eq!(reference.total_flow, moved);
            for s in [Solver::Simplex, Solver::Auto, Solver::CostScaling] {
                let plan = solve_unbalanced(&supplies, &demands, &cost, s);
                assert_eq!(plan.total_flow, moved, "solver {s:?}");
                assert_eq!(plan.total_cost, reference.total_cost, "solver {s:?}");
            }
        }
    }

    #[test]
    fn auto_line_shortcut_matches_solvers() {
        // 1×n and m×1 shapes: Auto's forced plan equals a real solve.
        let cost = DenseCost::from_rows(&[&[3u32, 1, 4][..]]);
        let auto = solve_balanced(&[9], &[2, 3, 4], &cost, Solver::Auto);
        let simplex = solve_balanced(&[9], &[2, 3, 4], &cost, Solver::Simplex);
        assert_eq!(auto, simplex);
        let cost_t = DenseCost::from_rows(&[&[3u32][..], &[1][..], &[4][..]]);
        let auto = solve_balanced(&[2, 3, 4], &[9], &cost_t, Solver::Auto);
        let ssp = solve_balanced(&[2, 3, 4], &[9], &cost_t, Solver::Ssp);
        assert_eq!(auto.total_cost, ssp.total_cost);
        verify_feasible(&auto, &[2, 3, 4], &[9], &cost_t).unwrap();
    }

    #[test]
    fn auto_strips_zeros_before_classifying_shape() {
        // Two rows, but one is empty: after Lemma-1 stripping this is a
        // 1×2 line instance; the flows must map back to original indices.
        let cost = DenseCost::from_rows(&[&[9u32, 9][..], &[2, 5][..]]);
        let plan = solve_balanced(&[0, 7], &[4, 3], &cost, Solver::Auto);
        assert_eq!(plan.total_cost, 4 * 2 + 3 * 5);
        verify_feasible(&plan, &[0, 7], &[4, 3], &cost).unwrap();
        assert!(plan.flows.iter().all(|f| f.row == 1));
    }
}
