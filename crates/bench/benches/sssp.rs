//! Micro-benchmark: the Dial SSSP kernel on scale-free graphs (the inner
//! loop of Theorem 4's sparse path), allocating a fresh scratch per run
//! versus reusing one scratch across runs as the row caches do.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_graph::{dial, dial_scratch, generators, SsspScratch};

fn bench_sssp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sssp");
    for &n in &[5_000usize, 20_000] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let g = generators::scale_free_configuration(n, -2.3, 2, n / 50, &mut rng);
        let w: Vec<u32> = (0..g.edge_count()).map(|_| rng.gen_range(1..=60)).collect();
        group.bench_with_input(BenchmarkId::new("dial_alloc", n), &n, |b, _| {
            b.iter(|| dial(&g, &w, &[0], 60))
        });
        let mut scratch = SsspScratch::new();
        group.bench_with_input(BenchmarkId::new("dial_scratch", n), &n, |b, _| {
            b.iter(|| {
                dial_scratch(&g, &w, &[0], 60, &mut scratch);
                scratch.dist(n as u32 - 1)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sssp);
criterion_main!(benches);
