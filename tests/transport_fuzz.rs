//! Cross-solver fuzz harness: every solver (and `Solver::Auto`) must agree
//! on the optimal cost of randomized instances spanning the shapes the SND
//! pipeline produces — zero-heavy supplies, `u32::MAX` costs, single-cell
//! and single-line instances, and the per-bin bank shape of a reduced
//! EMD\* term (up to 60 rows against 300 bank columns) — and every
//! returned plan must be feasible.
//!
//! The seed is fixed, so CI explores the same instance stream on every run;
//! bump `FUZZ_ROUNDS` locally for a deeper sweep.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd::emd::{proportional_split, DEFAULT_SCALE};
use snd::transport::{
    solve_balanced, solve_unbalanced, verify_feasible, DenseCost, Mass, Solver, TransportPlan,
    WIDE_ASPECT,
};

const FUZZ_SEED: u64 = 0x5eed_2026;
const FUZZ_ROUNDS: usize = 150;

const ALL_SOLVERS: [Solver; 4] = [
    Solver::Simplex,
    Solver::Ssp,
    Solver::CostScaling,
    Solver::Auto,
];

/// One random instance family per round: shape, cost magnitude, and the
/// probability that a supply/demand entry is zero.
struct Family {
    m: usize,
    n: usize,
    cost_lo: u32,
    cost_hi: u32,
    mass_hi: u64,
    zero_p: f64,
    /// Per-bin bank shape: the last `banks` columns are bank columns at
    /// distance `gamma` (0 for the uniform families).
    banks: usize,
    gamma: u32,
}

fn random_family(rng: &mut SmallRng) -> Family {
    if rng.gen_range(0..5) == 0 {
        return bank_family(rng);
    }
    let (cost_lo, cost_hi) = match rng.gen_range(0..4) {
        0 => (0u32, 8),                 // heavy ties
        1 => (0, 1_000),                // typical SSSP-row magnitudes
        2 => (u32::MAX - 16, u32::MAX), // extreme costs
        _ => (0, u32::MAX),             // full range
    };
    Family {
        m: rng.gen_range(1..12),
        n: rng.gen_range(1..12),
        cost_lo,
        cost_hi,
        mass_hi: [5u64, 50, 1 << 40][rng.gen_range(0..3)],
        zero_p: [0.0, 0.3, 0.7][rng.gen_range(0..3)],
        banks: 0,
        gamma: 0,
    }
}

/// The reduced EMD\* shape SND prices in per-bin mode: 2–60 heavy-side
/// residual rows, fewer lighter-side residual columns, and 50–300 bank
/// columns, capped so that `cols < WIDE_ASPECT · rows` keeps `Auto` on the
/// simplex (aspect ratios up to 127).
fn bank_family(rng: &mut SmallRng) -> Family {
    let m = rng.gen_range(2..=60);
    let residual_cols = rng.gen_range(0..m);
    let banks = rng
        .gen_range(50..=300)
        .min((WIDE_ASPECT - 1) * m - residual_cols);
    Family {
        m,
        n: residual_cols + banks,
        cost_lo: 0,
        cost_hi: [8u32, 1_000][rng.gen_range(0..2)],
        mass_hi: [3u64, DEFAULT_SCALE][rng.gen_range(0..2)],
        zero_p: 0.0,
        banks,
        gamma: [1u32, 8][rng.gen_range(0..2)],
    }
}

fn random_masses(rng: &mut SmallRng, len: usize, fam: &Family) -> Vec<Mass> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(fam.zero_p) {
                0
            } else {
                rng.gen_range(0..=fam.mass_hi)
            }
        })
        .collect()
}

fn random_instance(rng: &mut SmallRng, fam: &Family) -> (Vec<Mass>, Vec<Mass>, DenseCost) {
    if fam.banks > 0 {
        return bank_instance(rng, fam);
    }
    let data: Vec<u32> = (0..fam.m * fam.n)
        .map(|_| rng.gen_range(fam.cost_lo..=fam.cost_hi))
        .collect();
    let cost = DenseCost::from_vec(fam.m, fam.n, data);
    let supplies = random_masses(rng, fam.m, fam);
    let demands = random_masses(rng, fam.n, fam);
    (supplies, demands, cost)
}

/// A balanced per-bin bank instance: every row supplies one `scale` unit
/// (`mass_hi`), every residual column takes one, and the bank columns
/// split the surplus as `proportional_split` does over equal bin masses.
/// Costs are SSSP-like distances, `γ` further for bank columns, with an
/// occasional unreachable (`u32::MAX`) pair.
fn bank_instance(rng: &mut SmallRng, fam: &Family) -> (Vec<Mass>, Vec<Mass>, DenseCost) {
    let scale = fam.mass_hi;
    let residual_cols = fam.n - fam.banks;
    let mut data = Vec::with_capacity(fam.m * fam.n);
    for _ in 0..fam.m {
        for j in 0..fam.n {
            let d = if rng.gen_bool(0.02) {
                u32::MAX
            } else {
                rng.gen_range(fam.cost_lo..=fam.cost_hi)
            };
            let bank = if j < residual_cols { 0 } else { fam.gamma };
            data.push(d.saturating_add(bank));
        }
    }
    let cost = DenseCost::from_vec(fam.m, fam.n, data);
    let supplies = vec![scale; fam.m];
    let mut demands = vec![scale; residual_cols];
    let surplus = (fam.m - residual_cols) as Mass * scale;
    demands.extend(proportional_split(surplus, &vec![scale; fam.banks]));
    (supplies, demands, cost)
}

/// Balances by topping up the lighter side's last entry.
fn balance(supplies: &mut [Mass], demands: &mut [Mass]) {
    let ts: u128 = supplies.iter().map(|&s| s as u128).sum();
    let td: u128 = demands.iter().map(|&d| d as u128).sum();
    if ts > td {
        *demands.last_mut().unwrap() += (ts - td) as u64;
    } else {
        *supplies.last_mut().unwrap() += (td - ts) as u64;
    }
}

/// Feasibility for `solve_unbalanced` results: per-line flows within
/// capacity, exactly `min(ΣP, ΣQ)` mass moved, totals consistent.
fn verify_unbalanced(
    plan: &TransportPlan,
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
) -> Result<(), String> {
    let mut shipped = vec![0u128; supplies.len()];
    let mut received = vec![0u128; demands.len()];
    let mut total_cost: i128 = 0;
    let mut total_flow: u128 = 0;
    for f in &plan.flows {
        let (i, j) = (f.row as usize, f.col as usize);
        if i >= supplies.len() || j >= demands.len() {
            return Err(format!("flow cell ({i},{j}) out of bounds"));
        }
        shipped[i] += f.flow as u128;
        received[j] += f.flow as u128;
        total_cost += f.flow as i128 * cost.at(i, j) as i128;
        total_flow += f.flow as u128;
    }
    for (i, (&s, &got)) in supplies.iter().zip(&shipped).enumerate() {
        if got > s as u128 {
            return Err(format!("supplier {i} over capacity: {got} > {s}"));
        }
    }
    for (j, (&d, &got)) in demands.iter().zip(&received).enumerate() {
        if got > d as u128 {
            return Err(format!("consumer {j} over demand: {got} > {d}"));
        }
    }
    let ts: u128 = supplies.iter().map(|&s| s as u128).sum();
    let td: u128 = demands.iter().map(|&d| d as u128).sum();
    if total_flow != ts.min(td) {
        return Err(format!("moved {total_flow}, expected {}", ts.min(td)));
    }
    if total_cost != plan.total_cost || total_flow != plan.total_flow as u128 {
        return Err("recorded totals inconsistent".into());
    }
    Ok(())
}

#[test]
fn balanced_solvers_agree_across_instance_families() {
    let mut rng = SmallRng::seed_from_u64(FUZZ_SEED);
    for round in 0..FUZZ_ROUNDS {
        let fam = random_family(&mut rng);
        let (mut supplies, mut demands, cost) = random_instance(&mut rng, &fam);
        balance(&mut supplies, &mut demands);
        let reference = solve_balanced(&supplies, &demands, &cost, Solver::Ssp);
        verify_feasible(&reference, &supplies, &demands, &cost)
            .unwrap_or_else(|e| panic!("round {round}: reference infeasible: {e}"));
        for solver in ALL_SOLVERS {
            let plan = solve_balanced(&supplies, &demands, &cost, solver);
            verify_feasible(&plan, &supplies, &demands, &cost)
                .unwrap_or_else(|e| panic!("round {round} {solver:?}: {e}"));
            assert_eq!(
                plan.total_cost, reference.total_cost,
                "round {round}: {solver:?} disagrees with SSP on {}×{} \
                 (costs {}..={}, zero_p {})",
                fam.m, fam.n, fam.cost_lo, fam.cost_hi, fam.zero_p
            );
        }
    }
}

#[test]
fn unbalanced_solvers_agree_in_both_directions() {
    let mut rng = SmallRng::seed_from_u64(FUZZ_SEED ^ 0xdead_beef);
    let mut deficit_rounds = 0usize;
    for round in 0..FUZZ_ROUNDS {
        let fam = random_family(&mut rng);
        let (supplies, demands, cost) = random_instance(&mut rng, &fam);
        let ts: u128 = supplies.iter().map(|&s| s as u128).sum();
        let td: u128 = demands.iter().map(|&d| d as u128).sum();
        if td > ts {
            // The dummy-supplier (`with_extra_row` + retain) path.
            deficit_rounds += 1;
        }
        let reference = solve_unbalanced(&supplies, &demands, &cost, Solver::Ssp);
        verify_unbalanced(&reference, &supplies, &demands, &cost)
            .unwrap_or_else(|e| panic!("round {round}: reference: {e}"));
        for solver in ALL_SOLVERS {
            let plan = solve_unbalanced(&supplies, &demands, &cost, solver);
            verify_unbalanced(&plan, &supplies, &demands, &cost)
                .unwrap_or_else(|e| panic!("round {round} {solver:?}: {e}"));
            assert_eq!(
                plan.total_cost, reference.total_cost,
                "round {round}: {solver:?} disagrees on unbalanced {}×{}",
                fam.m, fam.n
            );
            assert_eq!(plan.total_flow as u128, ts.min(td), "round {round}");
        }
    }
    assert!(
        deficit_rounds >= FUZZ_ROUNDS / 5,
        "instance stream must exercise the demand-heavy deficit path \
         (got {deficit_rounds} of {FUZZ_ROUNDS})"
    );
}

#[test]
fn single_cell_and_line_shapes() {
    let mut rng = SmallRng::seed_from_u64(FUZZ_SEED ^ 0x11);
    for _ in 0..60 {
        let c = rng.gen_range(0..=u32::MAX);
        let mass = rng.gen_range(1..=1u64 << 40);
        let cost = DenseCost::from_vec(1, 1, vec![c]);
        for solver in ALL_SOLVERS {
            let plan = solve_balanced(&[mass], &[mass], &cost, solver);
            assert_eq!(plan.total_cost, mass as i128 * c as i128, "{solver:?}");
            assert_eq!(plan.total_flow, mass);
        }
        // 1×n and m×1 lines with random splits.
        let n = rng.gen_range(2..7);
        let parts: Vec<Mass> = (0..n).map(|_| rng.gen_range(1..100)).collect();
        let total: Mass = parts.iter().sum();
        let line = DenseCost::from_vec(1, n, (0..n).map(|_| rng.gen_range(0..50)).collect());
        let reference = solve_balanced(&[total], &parts, &line, Solver::Ssp);
        for solver in ALL_SOLVERS {
            let plan = solve_balanced(&[total], &parts, &line, solver);
            verify_feasible(&plan, &[total], &parts, &line).unwrap();
            assert_eq!(plan.total_cost, reference.total_cost, "{solver:?}");
        }
    }
}

#[test]
fn all_zero_and_fully_degenerate_instances() {
    let cost = DenseCost::filled(3, 3, 7);
    for solver in ALL_SOLVERS {
        // Everything zero: the empty plan.
        let plan = solve_balanced(&[0, 0, 0], &[0, 0, 0], &cost, solver);
        assert_eq!(plan.total_flow, 0);
        assert_eq!(plan.total_cost, 0);
        assert!(plan.flows.is_empty());
        // Unbalanced with one empty side: nothing can move.
        let plan = solve_unbalanced(&[5, 5, 5], &[0, 0, 0], &cost, solver);
        assert_eq!(plan.total_flow, 0);
    }
}
