//! The exact transportation solvers, and `Solver::Auto`, across instance
//! sizes, shapes and cost magnitudes: square `s × s` instances at two cost
//! families — `small` (costs `1..50`, the tie-heavy regime reduced SND
//! problems produce after clamping) and `huge` (costs within 1000 of
//! `u32::MAX`, the cost-scaling widening regime) — plus column-heavy
//! `m × n` shapes (`n ≫ m`: few residual rows, bank columns on every
//! active bin). Mass magnitudes don't move any solver's pivot/augmentation
//! counts, so the grid doesn't sweep them. `Solver::Auto` runs the simplex
//! on every shape here, so each `auto` row should read like its `simplex`
//! row; SSP and cost-scaling are the oracles the simplex is tested against.
//!
//! The `bank` family has the shapes and the cost structure of the slow
//! instances the figure binaries solve: every column is a per-bin bank
//! with the same capacity, and a cell costs γ plus the graph distance from
//! its row's user to its column's bank node (`dial_scratch` on a seeded
//! Barabási–Albert graph). Random costs mislead on these shapes: graph
//! distances take a few dozen distinct small values, and their ties are
//! what the simplex's start and pricing meet in practice.
//!
//! After measuring, the bench writes `BENCH_solver_scaling.json` at the
//! repo root (skipped in `--test` smoke mode, which CI runs on every push).
//!
//! Scale knob (env): `SND_BENCH_SOLVER_MAX` caps the largest random size
//! (default 128); the `bank` shapes are fixed.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::record::{knob, Record};
use snd_graph::generators::barabasi_albert;
use snd_graph::{dial_scratch, NodeId, SsspScratch};
use snd_transport::{solve_balanced, DenseCost, Solver};

const SIZES: [usize; 5] = [4, 8, 16, 48, 128];
/// Column-heavy shapes: 64 to 256 columns per row.
const WIDE_SHAPES: [(usize, usize); 3] = [(2, 256), (4, 1024), (8, 512)];
/// Bank-family shapes: the row × column counts of slow solves dumped from
/// fig7 (13 × 2218) and fig8.
const BANK_SHAPES: [(usize, usize); 4] = [(13, 2218), (60, 2104), (127, 1113), (260, 521)];
/// Bank-family graph: nodes, attachment degree, largest edge cost, and the
/// bank offset γ added to every distance.
const BANK_NODES: usize = 4000;
const BANK_ATTACH: usize = 3;
const BANK_MAX_WEIGHT: u32 = 8;
const BANK_GAMMA: u32 = 12;

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

/// A `bank` instance: `m` user rows and `n` bank columns on distinct nodes
/// of one seeded graph, costs γ plus the row's distance to the column, and
/// equal capacities on each side (`n` per row, `m` per column).
fn bank_instance(m: usize, n: usize, seed: u64) -> (Vec<u64>, Vec<u64>, DenseCost) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = barabasi_albert(BANK_NODES, BANK_ATTACH, &mut rng);
    let weights: Vec<u32> = (0..graph.edge_count())
        .map(|_| rng.gen_range(1..=BANK_MAX_WEIGHT))
        .collect();
    // A partial Fisher–Yates shuffle picks m + n distinct nodes.
    let mut nodes: Vec<NodeId> = (0..BANK_NODES as NodeId).collect();
    for k in 0..m + n {
        let pick = rng.gen_range(k..nodes.len());
        nodes.swap(k, pick);
    }
    let (rows, cols) = nodes[..m + n].split_at(m);
    let mut scratch = SsspScratch::new();
    let mut data = Vec::with_capacity(m * n);
    for &src in rows {
        dial_scratch(&graph, &weights, &[src], BANK_MAX_WEIGHT, &mut scratch);
        data.extend(cols.iter().map(|&t| {
            BANK_GAMMA + u32::try_from(scratch.dist(t)).expect("a BA graph is connected")
        }));
    }
    (
        vec![n as u64; m],
        vec![m as u64; n],
        DenseCost::from_vec(m, n, data),
    )
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
        .sample_size(12)
        .warmup_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(1500));

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
    for &(m, n) in &BANK_SHAPES {
        let (s, d, cost) = bank_instance(m, n, (m * n) as u64 ^ 0xba4c);
        for (name, solver) in SOLVERS {
            if solver == Solver::Ssp {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_bank"), format!("{m}x{n}")),
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
