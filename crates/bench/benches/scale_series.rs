//! Certified series pricing at scale: landmark rows repaired along the
//! series vs re-sketching every snapshot from scratch.
//!
//! The workload is the low-churn regime row repair is built for: a
//! ~10⁵-node graph whose snapshots differ by a few hundred balanced flips
//! around one cascade epicenter. `SndEngine::series_intervals` is the
//! superdiagonal tile plan: before each transition's solves it writes
//! the new state's `2·L` landmark rows, each repaired from the previous
//! state's row through the edge costs that changed. The baseline,
//! [`fresh_series`], builds a fresh `state_geometry` per snapshot (two
//! live at a time) and prices each transition with `breakdown_with` over
//! its two bundles, which computes each snapshot's landmark rows from
//! scratch through its bundle's row cache. Both sides run one engine, so
//! they price over the same `L` landmarks, and the speedup is what repair
//! saves. Both price every term on the certified tier, and a subsampled
//! instance small enough to price exactly asserts that the series
//! intervals bracket the exact SND.
//!
//! Two derived figures describe a cold run: `first_call_s` times one
//! `series_intervals` call on a fresh engine, landmark selection
//! included, and `peak_rss_mib` is the process's peak resident set
//! (`VmHWM`).
//!
//! Results land in `BENCH_scale_series.json` at the repo root.
//!
//! Scale knobs (env): `SND_BENCH_SERIES_NODES` (default ~10⁵),
//! `SND_BENCH_SERIES_STEPS` (snapshots − 1, default 24),
//! `SND_BENCH_DELTA` (flips per step, default 256),
//! `SND_BENCH_EPSILON` (default 0.5), `SND_BENCH_LANDMARKS` (default 3),
//! `SND_BENCH_GRAPH` (`ba`/`grid`, default `ba`).
//!
//! Default geometry: Barabási–Albert with 3 landmarks. 24 transitions
//! amortize the first state's fresh landmark rows.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::record::{knob, Record};
use snd_core::{ApproxConfig, SndConfig, SndEngine};
use snd_graph::generators::{barabasi_albert, grid_graph};
use snd_graph::CsrGraph;
use snd_models::NetworkState;

fn build_graph(kind: &str, nodes: usize, rng: &mut SmallRng) -> CsrGraph {
    match kind {
        "ba" => barabasi_albert(nodes, 3, rng),
        "grid" => {
            let side = (nodes as f64).sqrt().round() as usize;
            grid_graph(side, side)
        }
        other => panic!("SND_BENCH_GRAPH must be 'grid' or 'ba', got {other:?}"),
    }
}

/// The candidate holders of one drift step, classified by opinion: nodes
/// in BFS order around `center`, grown until every class can supply its
/// quota. An opinion cascade perturbs a graph *neighbourhood* — this is
/// what makes the workload low-churn in the structural sense (each
/// transition's touched edges, residual suppliers, and residual
/// demanders all share one region) rather than a uniform sprinkle whose
/// perturbation shadows the whole graph.
fn bfs_region(
    g: &CsrGraph,
    center: u32,
    vals: &[i8],
    q: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    // Only rank-and-file users flip: cascades churn the periphery while
    // high-degree nodes hold their positions (the standard stubborn-
    // celebrity assumption). This also keeps the perturbation structural
    // noise small — a hub flip would touch edges sitting on shortest
    // paths across the whole graph.
    let degree_cap = 4 * (g.edge_count() / g.node_count()).max(1);
    let mut seen = vec![false; vals.len()];
    let mut queue = std::collections::VecDeque::from([center]);
    seen[center as usize] = true;
    let (mut pos, mut neg, mut zero) = (Vec::new(), Vec::new(), Vec::new());
    while let Some(u) = queue.pop_front() {
        if g.out_neighbors(u).len() <= degree_cap {
            match vals[u as usize] {
                1 => pos.push(u as usize),
                -1 => neg.push(u as usize),
                _ => zero.push(u as usize),
            }
        }
        if pos.len() >= q && neg.len() >= q && zero.len() >= 2 * q {
            break;
        }
        for &v in g.out_neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    (pos, neg, zero)
}

/// One balanced drift step: per polar opinion, `q` holders release it and
/// `q` distinct neutral users adopt it, so every histogram total is
/// preserved (no bank absorption) and each transition stays in the
/// residual-to-residual regime of real consecutive snapshots. Flips come
/// from the [`bfs_region`] around a persistent epicenter — the cascade
/// churns one neighbourhood across the series — with a random-phase
/// stride choosing among its candidates so successive steps vary.
fn drift(g: &CsrGraph, vals: &mut [i8], n_delta: usize, center: u32, rng: &mut SmallRng) {
    let q_want = (n_delta / 4).max(1);
    let (pos, neg, zero) = bfs_region(g, center, vals, q_want);
    let q = q_want.min(pos.len()).min(neg.len()).min(zero.len() / 2);
    assert!(q >= 1, "graph too small for the requested n_delta");
    let pick = |list: &[usize], k: usize, rng: &mut SmallRng| -> Vec<usize> {
        let stride = (list.len() / k).max(1);
        let phase = rng.gen_range(0..stride);
        list.iter()
            .skip(phase)
            .step_by(stride)
            .take(k)
            .copied()
            .collect()
    };
    for &i in &pick(&pos, q, rng) {
        vals[i] = 0;
    }
    for &i in &pick(&neg, q, rng) {
        vals[i] = 0;
    }
    for (k, &i) in pick(&zero, 2 * q, rng).iter().enumerate() {
        vals[i] = if k % 2 == 0 { 1 } else { -1 };
    }
}

/// A low-churn series: a sparse polar seeding followed by `steps`
/// balanced cascade drifts of ~`n_delta` users each around one epicenter.
fn series_states(
    g: &CsrGraph,
    steps: usize,
    n_delta: usize,
    rng: &mut SmallRng,
) -> Vec<NetworkState> {
    let n = g.node_count();
    let mut vals = vec![0i8; n];
    for v in vals.iter_mut() {
        if rng.gen::<f64>() < 0.05 {
            *v = if rng.gen::<bool>() { 1 } else { -1 };
        }
    }
    let center = rng.gen_range(0..n) as u32;
    let mut out = vec![NetworkState::from_values(&vals)];
    for _ in 0..steps {
        drift(g, &mut vals, n_delta, center, rng);
        out.push(NetworkState::from_values(&vals));
    }
    out
}

fn approx_config(epsilon: f64, landmarks: usize) -> SndConfig {
    SndConfig {
        approx: Some(ApproxConfig {
            epsilon,
            max_landmarks: landmarks,
            min_nodes: 0,
            ..Default::default()
        }),
        ..SndConfig::default()
    }
}

/// The process's peak resident set in MiB (`VmHWM`), when the platform
/// reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The re-sketch baseline: every snapshot's geometry and landmark rows
/// built from scratch, each transition priced over its two bundles.
fn fresh_series(engine: &SndEngine<'_>, states: &[NetworkState]) -> Vec<f64> {
    let mut prev = engine.state_geometry(&states[0]);
    let mut out = Vec::with_capacity(states.len() - 1);
    for t in 1..states.len() {
        let cur = engine.state_geometry(&states[t]);
        let pair = engine.breakdown_with(&states[t - 1], &states[t], &prev, &cur);
        out.push(pair.total());
        prev = cur;
    }
    out
}

fn bench_scale_series(c: &mut Criterion) {
    let test = criterion::is_test_mode();
    let kind = knob("SND_BENCH_GRAPH", "ba".to_string());
    let nodes = knob(
        "SND_BENCH_SERIES_NODES",
        if test { 2_500usize } else { 99_856 },
    );
    let steps = knob("SND_BENCH_SERIES_STEPS", if test { 3usize } else { 24 });
    let n_delta = knob("SND_BENCH_DELTA", if test { 64usize } else { 256 });
    let epsilon = knob("SND_BENCH_EPSILON", 0.5f64);
    let landmarks = knob("SND_BENCH_LANDMARKS", 3usize);

    let mut rng = SmallRng::seed_from_u64(2017);
    let graph = build_graph(&kind, nodes, &mut rng);
    let n = graph.node_count();
    let states = series_states(&graph, steps, n_delta, &mut rng);
    println!(
        "scale_series: n={n} ({} edges), {} snapshots, ~{n_delta} flips/step",
        graph.edge_count(),
        states.len()
    );
    let engine = SndEngine::new(&graph, approx_config(epsilon, landmarks));
    let start = Instant::now();
    engine.series_intervals(&states).unwrap();
    let first_call_s = start.elapsed().as_secs_f64();

    let mut group = c.benchmark_group("scale_series");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("fresh", |b| b.iter(|| fresh_series(&engine, &states)));
    group.bench_function("delta", |b| {
        b.iter(|| engine.series_intervals(&states).unwrap())
    });
    group.finish();

    // Certification spot-check on an instance small enough to price
    // exactly: series intervals must bracket the exact series.
    let check_nodes = if test { 900 } else { 10_000 };
    let mut rng = SmallRng::seed_from_u64(4242);
    let small_graph = build_graph(&kind, check_nodes, &mut rng);
    let small_states = series_states(&small_graph, steps.min(4), n_delta, &mut rng);
    let exact = SndEngine::new(&small_graph, SndConfig::default()).series_distances(&small_states);
    let intervals = SndEngine::new(&small_graph, approx_config(epsilon, landmarks))
        .series_intervals(&small_states)
        .unwrap();
    let bracketed = exact
        .iter()
        .zip(&intervals)
        .all(|(d, iv)| iv.lower <= d + 1e-9 && *d <= iv.upper + 1e-9);
    println!(
        "scale_series: bracket check at n={}: intervals bracket exact: {bracketed}",
        small_graph.node_count()
    );
    assert!(
        bracketed,
        "scale_series: a series interval missed the exact SND at n={}",
        small_graph.node_count()
    );

    let mut record = Record::new("scale_series");
    let speedup = record.mean_s("scale_series/fresh") / record.mean_s("scale_series/delta");
    if speedup < 3.0 {
        println!("scale_series: WARNING speedup {speedup:.2}× below the 3× target");
    }
    record
        .param("graph", kind.as_str())
        .param("nodes", n)
        .param("edges", graph.edge_count())
        .param("snapshots", states.len())
        .param("n_delta_per_step", n_delta)
        .param("epsilon", epsilon)
        .param("landmarks", landmarks)
        .param("bracket_check_nodes", small_graph.node_count())
        .derived("speedup", speedup)
        .derived("first_call_s", first_call_s)
        .derived("peak_rss_mib", peak_rss_mib())
        .derived("intervals_bracket_exact", bracketed)
        .write();
}

criterion_group!(benches, bench_scale_series);
criterion_main!(benches);
