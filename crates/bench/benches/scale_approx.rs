//! The approximate tier at scale: landmark-sketch + coarsening SND vs
//! the exact Theorem 4 path as the graph grows to 10⁶ nodes.
//!
//! Three measurements, recorded in `BENCH_scale_approx.json` at the repo
//! root:
//!
//! * **Crossover** — exact and approximate `distance` timed side by side
//!   on a ladder of graphs at fixed n∆ (spatial grid by default, see
//!   [`build_graph`]); the crossover is the first size where the certified
//!   interval is cheaper than the exact answer.
//! * **Measured error** — on a subsampled instance small enough to price
//!   exactly, the interval must bracket the exact value and the midpoint's
//!   relative error must stay within the requested ε (the certificate
//!   guarantees ≤ ε/2·upper/lower ≤ ε for ε < 1; this records the
//!   *measured* slack). At least one of these intervals or the 10⁶-node
//!   one must keep a width: an interval collapsed to a point brackets
//!   trivially.
//! * **The 10⁶-node run** — approximate only: at this size the exact
//!   tier's one-SSSP-per-differing-user sweep is the infeasible baseline
//!   the sketch replaces.
//!
//! Scale knobs (env): `SND_BENCH_DELTA` (differing users, default 1024,
//! 128 in `--test` mode), `SND_BENCH_EPSILON` (default 0.2),
//! `SND_BENCH_LANDMARKS` (default 8), `SND_BENCH_GRAPH` (`grid`/`ba`),
//! `SND_BENCH_LADDER` (comma-separated rung sizes), `SND_BENCH_MILLION`
//! (node count for the headline run).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_bench::record::{knob, Record};
use snd_core::{ApproxConfig, SndConfig, SndEngine};
use snd_graph::generators::{barabasi_albert, grid_graph};
use snd_graph::CsrGraph;
use snd_models::NetworkState;

/// A state pair differing on `n_delta` users with *balanced* drift: for
/// each polar opinion, as many users adopt it as abandon it between the
/// two snapshots. Balanced drift keeps each EMD\* term's histogram masses
/// equal (no bank absorption), so the comparison exercises the
/// residual-to-residual transportation that dominates real consecutive
/// snapshots; the flip sites are spread across the graph, not one local
/// cluster.
fn state_pair(n: usize, n_delta: usize, rng: &mut SmallRng) -> (NetworkState, NetworkState) {
    let mut base = vec![0i8; n];
    for v in base.iter_mut() {
        if rng.gen::<f64>() < 0.05 {
            *v = if rng.gen::<bool>() { 1 } else { -1 };
        }
    }
    let (mut pos, mut neg, mut zero) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &v) in base.iter().enumerate() {
        match v {
            1 => pos.push(i),
            -1 => neg.push(i),
            _ => zero.push(i),
        }
    }
    // Per opinion: q users abandon it (→ neutral) and q distinct neutral
    // users adopt it, keeping every histogram total unchanged.
    let q = (n_delta / 4).max(1).min(pos.len()).min(neg.len());
    assert!(
        zero.len() >= 2 * q,
        "graph too small for the requested n_delta"
    );
    let spread = |list: &[usize], k: usize| -> Vec<usize> {
        let stride = (list.len() / k).max(1);
        list.iter().step_by(stride).take(k).copied().collect()
    };
    let mut other = base.clone();
    for &i in &spread(&pos, q) {
        other[i] = 0;
    }
    for &i in &spread(&neg, q) {
        other[i] = 0;
    }
    for (k, &i) in spread(&zero, 2 * q).iter().enumerate() {
        other[i] = if k % 2 == 0 { 1 } else { -1 };
    }
    (
        NetworkState::from_values(&base),
        NetworkState::from_values(&other),
    )
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

struct SizedInstance {
    graph: CsrGraph,
    a: NetworkState,
    b: NetworkState,
}

/// Graph topology for the benchmark instances.
///
/// `grid` (the default) is a spatial lattice: distances have geometric
/// structure, so landmark triangle bounds are tight and the coarse tier
/// certifies most cells without exact SSSP rows. `ba` is a Barabási–Albert
/// hub graph: every shortest path routes through hubs, landmark *lower*
/// bounds degenerate (`|d(a,l) − d(l,b)| ≈ 0` when `l` is a hub near
/// both), and the certificate must buy exact rows instead — the
/// adversarial topology for certified approximation.
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

fn instance(kind: &str, nodes: usize, n_delta: usize, seed: u64) -> SizedInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = build_graph(kind, nodes, &mut rng);
    let n = graph.node_count();
    let (a, b) = state_pair(n, n_delta, &mut rng);
    SizedInstance { graph, a, b }
}

fn bench_scale_approx(c: &mut Criterion) {
    // --test mode shrinks every size so the CI smoke finishes in seconds;
    // the recorded history comes from a full run.
    let test = criterion::is_test_mode();
    let kind = knob("SND_BENCH_GRAPH", "grid".to_string());
    // Balanced drift leaves n∆/4 residual rows per term. The tier answers
    // a term of at most 2·L rows exactly, so the smoke's n∆ leaves more.
    let n_delta = knob("SND_BENCH_DELTA", if test { 128usize } else { 1024 });
    let epsilon = knob("SND_BENCH_EPSILON", 0.2f64);
    let landmarks = knob("SND_BENCH_LANDMARKS", 8usize);
    let default_ladder = if test {
        "800,2000"
    } else {
        "2000,10000,50000,100000"
    };
    let ladder: Vec<usize> = knob("SND_BENCH_LADDER", default_ladder.to_string())
        .split(',')
        .map(|rung| {
            rung.trim()
                .parse()
                .unwrap_or_else(|_| panic!("SND_BENCH_LADDER: bad rung size {rung:?}"))
        })
        .collect();
    let million = knob(
        "SND_BENCH_MILLION",
        if test { 10_000usize } else { 1_000_000 },
    );
    let error_nodes = if test { 1_000 } else { 10_000 };

    let mut group = c.benchmark_group("scale_approx");
    group
        .sample_size(2)
        .warmup_time(Duration::from_millis(1))
        .measurement_time(Duration::from_secs(1));

    // Crossover ladder: exact vs approximate at each rung.
    let mut ladder_edges = Vec::new();
    for &nodes in &ladder {
        let inst = instance(&kind, nodes, n_delta, 2017);
        println!(
            "scale_approx: ladder rung n={nodes} ({} edges) built",
            inst.graph.edge_count()
        );
        ladder_edges.push(inst.graph.edge_count());
        let exact_engine = SndEngine::new(&inst.graph, SndConfig::default());
        let approx_engine = SndEngine::new(&inst.graph, approx_config(epsilon, landmarks));
        group.bench_with_input(BenchmarkId::new("exact", nodes), &(), |b, ()| {
            b.iter(|| exact_engine.distance(&inst.a, &inst.b))
        });
        group.bench_with_input(BenchmarkId::new("approx", nodes), &(), |b, ()| {
            b.iter(|| approx_engine.distance_interval(&inst.a, &inst.b).unwrap())
        });
    }

    // The 10⁶-node run: approximate tier only.
    let big = instance(&kind, million, n_delta, 7);
    println!(
        "scale_approx: headline instance n={million} ({} edges) built, pricing…",
        big.graph.edge_count()
    );
    let big_engine = SndEngine::new(&big.graph, approx_config(epsilon, landmarks));
    let mut big_iv = None;
    group.bench_with_input(BenchmarkId::new("approx_million", million), &(), |b, ()| {
        b.iter(|| big_iv = Some(big_engine.distance_interval(&big.a, &big.b).unwrap()))
    });
    group.finish();
    let big_iv = big_iv.expect("the headline run priced at least once");

    // Measured error on an instance small enough to price exactly. The
    // grid rounds its side, so the trials take their size from the graph.
    let err_inst = instance(&kind, error_nodes, n_delta, 4242);
    let err_n = err_inst.graph.node_count();
    let exact_engine = SndEngine::new(&err_inst.graph, SndConfig::default());
    let approx_engine = SndEngine::new(&err_inst.graph, approx_config(epsilon, landmarks));
    let mut max_rel_error = 0.0f64;
    let mut bracketed = true;
    // Whether some certified interval kept a width: with every term
    // answered exactly, the bracket assert would check no envelope.
    let mut widths = vec![big_iv.upper - big_iv.lower];
    let mut rng = SmallRng::seed_from_u64(99);
    for trial in 0..3 {
        let (a, b) = if trial == 0 {
            (err_inst.a.clone(), err_inst.b.clone())
        } else {
            state_pair(err_n, n_delta, &mut rng)
        };
        let exact = exact_engine.distance(&a, &b);
        let iv = approx_engine.distance_interval(&a, &b).unwrap();
        bracketed &= iv.contains(exact);
        widths.push(iv.upper - iv.lower);
        if exact > 0.0 {
            max_rel_error = max_rel_error.max((iv.midpoint() - exact).abs() / exact);
        }
    }
    println!(
        "scale_approx: error check at n={err_n}: max relative error {max_rel_error:.5} \
         (ε = {epsilon}), intervals bracket exact: {bracketed}"
    );
    assert!(
        bracketed,
        "scale_approx: a certified interval missed the exact SND at n={err_n}"
    );
    assert!(
        widths.iter().any(|&w| w > 0.0),
        "scale_approx: every interval collapsed to a point, so no envelope was checked"
    );

    let mut record = Record::new("scale_approx");
    let speedups: Vec<f64> = ladder
        .iter()
        .map(|n| {
            record.mean_s(&format!("scale_approx/exact/{n}"))
                / record.mean_s(&format!("scale_approx/approx/{n}"))
        })
        .collect();
    let crossover = ladder
        .iter()
        .zip(&speedups)
        .find(|(_, &s)| s > 1.0)
        .map(|(&n, _)| n);
    record
        .param("graph", kind.as_str())
        .param("n_delta", n_delta)
        .param("epsilon", epsilon)
        .param("landmarks", landmarks)
        .param("ladder", ladder)
        .param("ladder_edges", ladder_edges)
        .param("million_nodes", million)
        .param("million_edges", big.graph.edge_count())
        .param("error_check_nodes", err_n)
        .derived("speedups", speedups)
        .derived("crossover_nodes", crossover)
        .derived("max_relative_error", max_rel_error)
        .derived("intervals_bracket_exact", bracketed)
        .derived("million_lower", big_iv.lower)
        .derived("million_upper", big_iv.upper)
        .write();
}

criterion_group!(benches, bench_scale_approx);
criterion_main!(benches);
