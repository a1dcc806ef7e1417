//! Solver-selection calibration: the three exact transportation solvers
//! across instance sizes and cost magnitudes.
//!
//! This is the data `snd_transport::select_solver` (the `Solver::Auto`
//! heuristic) is calibrated against: square `s × s` instances at two cost
//! families — `small` (costs `1..50`, the tie-heavy regime reduced SND
//! problems produce after clamping) and `huge` (costs within 1000 of
//! `u32::MAX`, the cost-scaling widening regime) — plus column-heavy
//! `m × n` shapes (`n ≫ m`: few residual rows, bank columns on every
//! active bin), where cost-scaling overtakes the simplex. Mass magnitudes
//! don't move any solver's pivot/augmentation counts, so the grid doesn't
//! sweep them.
//!
//! After measuring, the bench writes `BENCH_solver_scaling.json` at the
//! repo root (skipped in `--test` smoke mode, which CI runs on every push).
//!
//! Scale knob (env): `SND_BENCH_SOLVER_MAX` caps the largest size
//! (default 128).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::record::{knob, Record};
use snd_transport::{solve_balanced, DenseCost, Solver};

const SIZES: [usize; 5] = [4, 8, 16, 48, 128];
/// Column-heavy shapes straddling the `WIDE_ASPECT` selection threshold.
const WIDE_SHAPES: [(usize, usize); 3] = [(2, 256), (4, 1024), (8, 512)];

fn instance(
    m: usize,
    n: usize,
    costs: std::ops::Range<u32>,
    seed: u64,
) -> (Vec<u64>, Vec<u64>, DenseCost) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cost = DenseCost::random(m, n, costs, &mut rng);
    let mut supplies: Vec<u64> = (0..m).map(|_| rng.gen_range(1..100)).collect();
    let mut demands: Vec<u64> = (0..n).map(|_| rng.gen_range(1..100)).collect();
    let (ts, td): (u64, u64) = (supplies.iter().sum(), demands.iter().sum());
    if ts > td {
        demands[n - 1] += ts - td;
    } else {
        supplies[m - 1] += td - ts;
    }
    (supplies, demands, cost)
}

const SOLVERS: [(&str, Solver); 4] = [
    ("simplex", Solver::Simplex),
    ("ssp", Solver::Ssp),
    ("cost_scaling", Solver::CostScaling),
    ("auto", Solver::Auto),
];

fn bench_solver_scaling(c: &mut Criterion) {
    let max_size = knob("SND_BENCH_SOLVER_MAX", 128usize);
    let mut group = c.benchmark_group("solver_scaling");
    group
        .sample_size(3)
        .warmup_time(Duration::from_millis(40))
        .measurement_time(Duration::from_millis(400));

    for &size in SIZES.iter().filter(|&&s| s <= max_size) {
        for (family, lo, hi) in [("small", 1u32, 50u32), ("huge", u32::MAX - 1000, u32::MAX)] {
            let (s, d, cost) = instance(size, size, lo..hi, size as u64 ^ 0xca11b8);
            for (name, solver) in SOLVERS {
                group.bench_with_input(
                    BenchmarkId::new(format!("{name}_{family}"), size),
                    &size,
                    |b, _| b.iter(|| solve_balanced(&s, &d, &cost, solver)),
                );
            }
        }
    }
    for (m, n) in WIDE_SHAPES
        .iter()
        .filter(|(m, n)| m * n <= max_size * max_size)
    {
        let (s, d, cost) = instance(*m, *n, 1..5000, (m * n) as u64 ^ 0xca11b8);
        for (name, solver) in SOLVERS {
            if solver == Solver::Ssp {
                continue; // 30–100× off the pace here; skip the wait
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_wide"), format!("{m}x{n}")),
                &(m, n),
                |b, _| b.iter(|| solve_balanced(&s, &d, &cost, solver)),
            );
        }
    }
    group.finish();
    Record::new("solver_scaling")
        .param("max_size", max_size)
        .write();
}

criterion_group!(benches, bench_solver_scaling);
criterion_main!(benches);
