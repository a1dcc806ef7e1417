//! Property-based cross-validation of the transportation solvers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::transport::{solve_balanced, solve_unbalanced, verify_feasible, DenseCost, Solver};

fn balanced_instance(
    m: usize,
    n: usize,
    raw_s: &[u64],
    raw_d: &[u64],
    raw_c: &[u32],
) -> (Vec<u64>, Vec<u64>, DenseCost) {
    let mut supplies: Vec<u64> = raw_s[..m].to_vec();
    let mut demands: Vec<u64> = raw_d[..n].to_vec();
    let (ts, td): (u64, u64) = (supplies.iter().sum(), demands.iter().sum());
    if ts > td {
        demands[n - 1] += ts - td;
    } else {
        supplies[m - 1] += td - ts;
    }
    let cost = DenseCost::from_vec(m, n, raw_c[..m * n].to_vec());
    (supplies, demands, cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All three solvers find plans with the same optimal cost, and every
    /// plan is feasible. `Auto` returns the simplex's plan, flow for flow,
    /// whenever two or more rows and two or more columns are nonzero.
    #[test]
    fn solvers_agree_and_are_feasible(
        m in 1usize..7,
        n in 1usize..7,
        raw_s in proptest::collection::vec(0u64..40, 7),
        raw_d in proptest::collection::vec(0u64..40, 7),
        raw_c in proptest::collection::vec(0u32..100, 49),
    ) {
        let (supplies, demands, cost) = balanced_instance(m, n, &raw_s, &raw_d, &raw_c);
        let reference = solve_balanced(&supplies, &demands, &cost, Solver::Ssp);
        verify_feasible(&reference, &supplies, &demands, &cost).unwrap();
        for solver in [Solver::Simplex, Solver::CostScaling, Solver::Auto] {
            let plan = solve_balanced(&supplies, &demands, &cost, solver);
            verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
            prop_assert_eq!(plan.total_cost, reference.total_cost, "{:?}", solver);
        }
        let nonzero = |masses: &[u64]| masses.iter().filter(|&&x| x > 0).count();
        if nonzero(&supplies) >= 2 && nonzero(&demands) >= 2 {
            prop_assert_eq!(
                solve_balanced(&supplies, &demands, &cost, Solver::Auto),
                solve_balanced(&supplies, &demands, &cost, Solver::Simplex)
            );
        }
    }

    /// The simplex finds SSP's optimum, with a feasible plan, on shapes
    /// spanning both sides of the pricing block size. One case in six has
    /// 16–39 rows and ≥ 16,384 cells, where basis trees are deep and pivots
    /// re-hang large subtrees (each re-checked by the debug-build tree
    /// audit).
    #[test]
    fn simplex_matches_ssp_on_deep_basis_trees(
        m in 1usize..24,
        n in 1usize..24,
        large in 0u32..6,
        seed in 0u64..1 << 32,
    ) {
        let (m, n) = if large == 0 {
            let rows = m + 16;
            (rows, (1 << 14) / rows + 24 * n)
        } else {
            (m, n)
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let cost = DenseCost::random(m, n, 0..80, &mut rng);
        let mut supplies: Vec<u64> = (0..m).map(|_| rng.gen_range(1..61)).collect();
        let mut demands: Vec<u64> = (0..n).map(|_| rng.gen_range(1..61)).collect();
        let (ts, td): (u64, u64) = (supplies.iter().sum(), demands.iter().sum());
        if ts > td { demands[n - 1] += ts - td; } else { supplies[m - 1] += td - ts; }
        let plan = solve_balanced(&supplies, &demands, &cost, Solver::Simplex);
        verify_feasible(&plan, &supplies, &demands, &cost).unwrap();
        let reference = solve_balanced(&supplies, &demands, &cost, Solver::Ssp);
        prop_assert_eq!(plan.total_cost, reference.total_cost);
    }

    /// Unbalanced solves move exactly min(ΣP, ΣQ) mass and never exceed the
    /// balanced-equivalent cost structure.
    #[test]
    fn unbalanced_moves_min_mass(
        m in 1usize..6,
        n in 1usize..6,
        raw_s in proptest::collection::vec(1u64..30, 6),
        raw_d in proptest::collection::vec(1u64..30, 6),
        raw_c in proptest::collection::vec(0u32..50, 36),
    ) {
        let supplies: Vec<u64> = raw_s[..m].to_vec();
        let demands: Vec<u64> = raw_d[..n].to_vec();
        let cost = DenseCost::from_vec(m, n, raw_c[..m * n].to_vec());
        let plan = solve_unbalanced(&supplies, &demands, &cost, Solver::Simplex);
        let expect = supplies.iter().sum::<u64>().min(demands.iter().sum::<u64>());
        prop_assert_eq!(plan.total_flow, expect);
        prop_assert!(plan.total_cost >= 0);
    }

    /// Optimality sanity: the optimum never exceeds the cost of the
    /// proportional (outer-product) feasible plan.
    #[test]
    fn optimum_beats_proportional_plan(
        m in 1usize..6,
        n in 1usize..6,
        raw_s in proptest::collection::vec(1u64..20, 6),
        raw_d in proptest::collection::vec(1u64..20, 6),
        raw_c in proptest::collection::vec(0u32..50, 36),
    ) {
        let (supplies, demands, cost) = balanced_instance(m, n, &raw_s, &raw_d, &raw_c);
        let total: u128 = supplies.iter().map(|&s| s as u128).sum();
        // Proportional plan cost (fractional, so compare in f64).
        let mut proportional = 0.0f64;
        for (i, &supply) in supplies.iter().enumerate() {
            for (j, &demand) in demands.iter().enumerate() {
                let f = supply as f64 * demand as f64 / total as f64;
                proportional += f * cost.at(i, j) as f64;
            }
        }
        let plan = solve_balanced(&supplies, &demands, &cost, Solver::Simplex);
        prop_assert!(plan.total_cost as f64 <= proportional + 1e-6,
            "optimum {} exceeds proportional {proportional}", plan.total_cost);
    }
}

/// `Auto` runs the simplex on column-heavy shapes too: on 2×256, 4×1024
/// and a bank-shaped 13×2218 it returns the simplex's plan, flow for flow.
/// Few distinct costs give each instance many optimal plans, so another
/// solver's optimum would differ.
#[test]
fn auto_returns_the_simplex_plan_on_wide_shapes() {
    let mut rng = SmallRng::seed_from_u64(2218);
    for (m, n) in [(2, 256), (4, 1024), (13, 2218)] {
        let raw_c: Vec<u32> = (0..m * n).map(|_| rng.gen_range(12..28)).collect();
        let (supplies, demands, cost) = if m == 13 {
            // Equal capacities, as on a reduced EMD* term's bank columns.
            let cost = DenseCost::from_vec(m, n, raw_c);
            (vec![n as u64; m], vec![m as u64; n], cost)
        } else {
            let raw_s: Vec<u64> = (0..m).map(|_| rng.gen_range(1..100)).collect();
            let raw_d: Vec<u64> = (0..n).map(|_| rng.gen_range(1..100)).collect();
            balanced_instance(m, n, &raw_s, &raw_d, &raw_c)
        };
        let auto = solve_balanced(&supplies, &demands, &cost, Solver::Auto);
        verify_feasible(&auto, &supplies, &demands, &cost).unwrap();
        assert_eq!(
            auto,
            solve_balanced(&supplies, &demands, &cost, Solver::Simplex),
            "{m}×{n}"
        );
    }
}
