//! The candidate-search workload behind the §6.3 predictor and the
//! intervention planner: price a batch of candidate states that each
//! differ from one anchor by a handful of flips.
//!
//! Two paths over the identical workload (bit-identity asserted in-bench
//! and property-tested in `tests/candidate_pricing.rs`):
//!
//! * `scratch` — the pre-refactor shape, built locally from public
//!   pieces: materialize a full `NetworkState` clone per candidate and
//!   price it through `sparse::emd_star_term` against the anchor's two
//!   geometries, whose front half scans all `n` users per term to
//!   classify residuals and bank bins. Cost per candidate: `O(n)` clone +
//!   `O(n)` classification, regardless of how few users actually flipped.
//! * `delta` — `CandidateEvaluator::price_candidates` over flip-lists:
//!   classification is derived from precomputed anchor stats in
//!   `O(flips + active)` and funnels into the same reduced solve. No
//!   candidate state exists at any point.
//!
//! Both share the anchor's SSSP row cache (few distinct targets → few
//! distinct rows), so the measured gap is exactly the per-candidate
//! classification + materialization the refactor deletes. Results land in
//! `BENCH_predict_search.json` at the repo root.
//!
//! Scale knobs (env): `SND_BENCH_PREDICT_NODES` (default 120000),
//! `SND_BENCH_PREDICT_CANDIDATES` (default 256),
//! `SND_BENCH_PREDICT_TARGETS` (default 16),
//! `SND_BENCH_PREDICT_ACTIVE` (default 40 per side).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use snd_bench::record::{knob, Record};
use snd_core::sparse::emd_star_term;
use snd_core::{CandidateEvaluator, GroundGeometry, RowCache, SndConfig, SndEngine};
use snd_graph::generators::barabasi_albert;
use snd_graph::NodeId;
use snd_models::{apply_flips, NetworkState, Opinion};

/// The scratch baseline: ordered SND from `anchor` to every candidate by
/// the full `O(n)` scan of `emd_star_term`, both opinion terms joined per
/// candidate and candidates fanned out over the pool, with every
/// evaluation drawing SSSP rows from one shared cache.
fn scratch_prices(
    engine: &SndEngine,
    anchor: &NetworkState,
    geoms: &[GroundGeometry; 2],
    cache: &RowCache,
    candidates: &[NetworkState],
) -> Vec<f64> {
    let (g, clustering, config) = (engine.graph(), engine.clustering(), engine.config());
    let term = |to: &NetworkState, i: usize, op: Opinion| {
        emd_star_term(
            g,
            clustering,
            &geoms[i],
            anchor,
            to,
            op,
            config,
            Some(cache),
        )
    };
    candidates
        .par_iter()
        .map(|to| {
            let (pos, neg) = rayon::join(
                || term(to, 0, Opinion::Positive),
                || term(to, 1, Opinion::Negative),
            );
            pos + neg
        })
        .collect()
}

fn bench_predict_search(c: &mut Criterion) {
    let nodes = knob("SND_BENCH_PREDICT_NODES", 120_000usize).max(100);
    let candidates = knob("SND_BENCH_PREDICT_CANDIDATES", 256usize).max(1);
    let targets = knob("SND_BENCH_PREDICT_TARGETS", 16usize).max(1);
    let active = knob("SND_BENCH_PREDICT_ACTIVE", 40usize).max(1);

    let mut rng = SmallRng::seed_from_u64(63);
    let graph = barabasi_albert(nodes, 3, &mut rng);

    // Anchor: a sparse active population (the §6.3 regime — most users
    // neutral, two camps of early adopters).
    let mut values = vec![0i8; nodes];
    let mut picked = 0usize;
    while picked < 2 * active.min(nodes / 2) {
        let u = rng.gen_range(0..nodes);
        if values[u] == 0 {
            values[u] = if picked.is_multiple_of(2) { 1 } else { -1 };
            picked += 1;
        }
    }
    let anchor = NetworkState::from_values(&values);

    // A fixed target set (few distinct users → few distinct SSSP rows,
    // shared across the whole batch through the row cache) and a batch of
    // random assignments over it.
    let target_nodes: Vec<NodeId> = {
        let mut t = Vec::new();
        while t.len() < targets.min(nodes) {
            let u = rng.gen_range(0..nodes as NodeId);
            if !t.contains(&u) {
                t.push(u);
            }
        }
        t
    };
    let assignments: Vec<Vec<(NodeId, Opinion)>> = (0..candidates)
        .map(|_| {
            target_nodes
                .iter()
                .map(|&u| (u, Opinion::from_value(rng.gen_range(-1..=1))))
                .collect()
        })
        .collect();

    let engine = SndEngine::new(&graph, SndConfig::default());
    let geoms = [Opinion::Positive, Opinion::Negative].map(|op| engine.geometry(&anchor, op));
    let cache = RowCache::new(graph.node_count());
    let evaluator = CandidateEvaluator::new(&engine, anchor.clone());

    // Bit-identity gate: the two paths must agree exactly before either
    // is timed (this also warms the shared row caches).
    let scratch_states: Vec<NetworkState> = assignments
        .iter()
        .map(|f| apply_flips(&anchor, f))
        .collect();
    let reference = scratch_prices(&engine, &anchor, &geoms, &cache, &scratch_states);
    let delta = evaluator.price_candidates(&assignments);
    assert_eq!(reference.len(), delta.len());
    for i in 0..reference.len() {
        assert_eq!(
            reference[i].to_bits(),
            delta[i].to_bits(),
            "scratch and delta paths disagree on candidate {i}"
        );
    }

    println!(
        "predict_search: |V|={nodes}, candidates={candidates}, targets={targets}, \
         active={}/side, threads={}",
        active,
        rayon::current_num_threads()
    );

    let label = format!("n{}_c{}", nodes, candidates);
    let mut group = c.benchmark_group("predict_search");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));

    // The scratch path pays its per-candidate state materialization inside
    // the loop — that allocation is part of what the refactor removes.
    group.bench_with_input(BenchmarkId::new("scratch", &label), &(), |b, ()| {
        b.iter(|| {
            let states: Vec<NetworkState> = assignments
                .iter()
                .map(|f| apply_flips(&anchor, f))
                .collect();
            scratch_prices(&engine, &anchor, &geoms, &cache, &states)
        })
    });
    group.bench_with_input(BenchmarkId::new("delta", &label), &(), |b, ()| {
        b.iter(|| evaluator.price_candidates(&assignments))
    });
    group.finish();

    let mut record = Record::new("predict_search");
    let speedup = record.mean_s(&format!("predict_search/scratch/{label}"))
        / record.mean_s(&format!("predict_search/delta/{label}"));
    record
        .param("nodes", nodes)
        .param("edges", graph.edge_count())
        .param("candidates", candidates)
        .param("targets", targets)
        .param("active_per_side", active)
        .derived("speedup", speedup)
        .write();
}

criterion_group!(benches, bench_predict_search);
criterion_main!(benches);
