//! Seeded workload inputs and their identity.
//!
//! Every input is a function of the workload's size and the `--seed`
//! argument; the program under test only ever receives the generated
//! graph and snapshot series.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_core::{states_fingerprint, ClusterSpec, GammaPolicy, SndConfig, REPAIR_EDGE_FRACTION};
use snd_graph::{generators, CsrGraph, NodeId};
use snd_models::dynamics::seed_initial_adopters;
use snd_models::process::RandomActivation;
use snd_models::{NetworkState, Opinion, OpinionDynamics, StateDelta};

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pairwise,
    Series,
    SeriesRebuild,
    Orchestrate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pairwise,
        Workload::Series,
        Workload::SeriesRebuild,
        Workload::Orchestrate,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairwise => "pairwise",
            Workload::Series => "series",
            Workload::SeriesRebuild => "series_rebuild",
            Workload::Orchestrate => "orchestrate",
        }
    }

    /// Matrix workloads price every pair; series workloads price adjacent
    /// transitions.
    pub fn is_matrix(self) -> bool {
        matches!(self, Workload::Pairwise | Workload::Orchestrate)
    }
}

/// Input size of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub nodes: usize,
    pub snapshots: usize,
    /// Bank clusters (series workloads; 0 = per-bin banks).
    pub clusters: usize,
    /// Users activated per step, as a fraction of the users.
    pub churn: f64,
    /// When nonzero, voting steps stop at this many touched edges instead
    /// of at `churn · nodes` adoptions (repair work follows touched edges,
    /// not flips).
    pub touched: usize,
    /// When nonzero, only users with at most this many out-neighbors adopt
    /// in voting steps.
    pub max_degree: usize,
}

impl Size {
    /// The measured size, or the tiny size used by the benchmark's own
    /// end-to-end check.
    pub fn of(w: Workload, tiny: bool) -> Size {
        let (nodes, snapshots, clusters, churn, touched, max_degree) = match (w, tiny) {
            (Workload::Pairwise | Workload::Orchestrate, false) => (10_000, 12, 0, 0.001, 0, 0),
            (Workload::Series, false) => (5_000, 11, 64, 0.002, 1_500, 12),
            (Workload::SeriesRebuild, false) => (3_000, 5, 64, 0.05, 0, 0),
            (Workload::Pairwise | Workload::Orchestrate, true) => (300, 5, 0, 0.02, 0, 0),
            (Workload::Series, true) => (400, 5, 8, 0.01, 60, 12),
            (Workload::SeriesRebuild, true) => (300, 4, 8, 0.05, 0, 0),
        };
        Size {
            nodes,
            snapshots,
            clusters,
            churn,
            touched,
            max_degree,
        }
    }
}

/// A generated graph and snapshot series.
pub struct Input {
    pub graph: CsrGraph,
    pub states: Vec<NetworkState>,
}

/// Seed of the fixed network each workload runs on.
const NETWORK_SEED: u64 = 2017;

/// The workload's network: fixed per size, because the network is the
/// system under study; `--seed` varies the opinion dynamics on it.
/// Power-law configuration graph (as `snd_data::generate_series` builds)
/// for the matrix workloads, Barabási–Albert (m = 4) for the series
/// workloads.
fn network(w: Workload, nodes: usize) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(NETWORK_SEED);
    match w {
        Workload::Series | Workload::SeriesRebuild => {
            generators::barabasi_albert(nodes, 4, &mut rng)
        }
        _ => generators::scale_free_configuration(
            nodes,
            -2.3,
            3,
            (nodes / 50).clamp(8, 1000),
            &mut rng,
        ),
    }
}

/// Generates the workload's input for `seed`: the fixed network plus a
/// seeded snapshot series on it.
///
/// * `pairwise`/`orchestrate`/`series`: seeded initial adopters (one user
///   in 25), then voting steps of a fixed volume (see [`voting_step`]):
///   `churn · nodes` adoptions per step for the matrix workloads, a fixed
///   touched-edge count (about twelve adoptions) for `series`. The fixed
///   volume keeps the work per input steady across seeds. In `series` only
///   users with at most 12 neighbors (about nine in ten) adopt: one hub
///   adoption moves a large part of every cluster's shortest-path trees,
///   and with hubs allowed the call time varied from seed to seed about
///   twice as much (see the README).
/// * `series_rebuild`: 30% seeded adopters, then random activation of
///   `churn · nodes` users per step — enough touched edges that every
///   transition is past the repair threshold.
pub fn generate(w: Workload, size: Size, seed: u64) -> Input {
    let graph = network(w, size.nodes);
    let n = graph.node_count();
    let salt = match w {
        Workload::Pairwise | Workload::Orchestrate => 0x766f_7465,
        Workload::Series => 0x7365_7269,
        Workload::SeriesRebuild => 0x7265_6275,
    };
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
    let per_step = ((n as f64 * size.churn).round() as usize).max(1);
    let adopters = match w {
        Workload::SeriesRebuild => (n as f64 * 0.3).round() as usize,
        _ => (n / 25).max(20),
    };
    let mut state = seed_initial_adopters(n, adopters.min(n), &mut rng)
        .expect("adopter count clamped to the population");
    let mut states = vec![state.clone()];
    for _ in 1..size.snapshots {
        match w {
            Workload::SeriesRebuild => {
                RandomActivation { count: per_step }.step(&graph, &mut state, &mut rng)
            }
            _ => voting_step(&graph, &mut state, per_step, size, &mut rng),
        }
        states.push(state.clone());
    }
    Input { graph, states }
}

/// One voting step: activates neutral users one at a time — with
/// probability 0.9 a user with an active in-neighbor adopts a random such
/// neighbor's opinion, otherwise a random user adopts a random opinion —
/// until `count` users adopted or, when `size.touched` is nonzero, until
/// the step touches at least that many edges (at most `4 · count`
/// adoptions). A nonzero `size.max_degree` leaves users with more
/// out-neighbors out.
fn voting_step(
    g: &CsrGraph,
    state: &mut NetworkState,
    count: usize,
    size: Size,
    rng: &mut SmallRng,
) {
    let Size {
        touched,
        max_degree,
        ..
    } = size;
    let n = g.node_count();
    let start = state.clone();
    let limit = if touched == 0 { count } else { 4 * count };
    for _ in 0..limit {
        if touched > 0 && StateDelta::between(g, &start, state).touched_edges().len() >= touched {
            return;
        }
        let neighbor_vote = rng.gen_bool(0.9);
        let mut pick = None;
        for _ in 0..64 * n {
            let u = rng.gen_range(0..n) as NodeId;
            if state.opinion(u).is_active() || (max_degree > 0 && g.out_degree(u) > max_degree) {
                continue;
            }
            if !neighbor_vote {
                let op = if rng.gen_bool(0.5) {
                    Opinion::Positive
                } else {
                    Opinion::Negative
                };
                pick = Some((u, op));
                break;
            }
            let voters: Vec<Opinion> = g
                .in_neighbors(u)
                .iter()
                .map(|&v| state.opinion(v))
                .filter(|o| o.is_active())
                .collect();
            if !voters.is_empty() {
                pick = Some((u, voters[rng.gen_range(0..voters.len())]));
                break;
            }
        }
        let Some((u, op)) = pick else { return };
        state.set(u, op);
    }
}

/// The engine configuration of a workload: per-bin banks (the CLI
/// default) for the matrix workloads, BFS cluster banks with
/// eccentricity γ for the series workloads.
pub fn config(size: Size) -> SndConfig {
    if size.clusters == 0 {
        SndConfig::default()
    } else {
        SndConfig {
            clusters: ClusterSpec::BfsPartition {
                clusters: size.clusters,
            },
            gamma: GammaPolicy::Eccentricity,
            ..SndConfig::default()
        }
    }
}

/// What two runs must agree on to have measured the same thing.
#[derive(Clone, Debug)]
pub struct Identity {
    pub nodes: usize,
    pub edges: usize,
    pub snapshots: usize,
    pub mean_flips: f64,
    pub mean_touched_edges: f64,
    /// Transitions past the repair threshold (fresh-geometry fallbacks).
    pub fallback_transitions: usize,
    pub transitions: usize,
    pub fingerprint: u64,
}

impl Identity {
    pub fn of(input: &Input) -> Identity {
        let g = &input.graph;
        let m = g.edge_count();
        let (mut flips, mut touched, mut fallback) = (0usize, 0usize, 0usize);
        for w in input.states.windows(2) {
            flips += w[0].diff_count(&w[1]);
            let d = StateDelta::between(g, &w[0], &w[1]);
            touched += d.touched_edges().len();
            if d.touched_edges().len() * REPAIR_EDGE_FRACTION > m {
                fallback += 1;
            }
        }
        let transitions = input.states.len().saturating_sub(1);
        let per = |x: usize| x as f64 / transitions.max(1) as f64;
        Identity {
            nodes: g.node_count(),
            edges: m,
            snapshots: input.states.len(),
            mean_flips: per(flips),
            mean_touched_edges: per(touched),
            fallback_transitions: fallback,
            transitions,
            fingerprint: states_fingerprint(&input.states),
        }
    }
}

/// Writes the dataset in the CLI's JSON wire format (no model record, so
/// the CLI prices it with the default configuration).
pub fn dataset_json(input: &Input) -> String {
    let g = &input.graph;
    let mut out = String::with_capacity(64 + g.edge_count() * 12);
    out.push_str(&format!("{{\"nodes\":{},\"edges\":[", g.node_count()));
    for (i, (u, v)) in g.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{u},{v}]"));
    }
    out.push_str("],\"states\":[");
    for (i, s) in input.states.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in s.values().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
    }
    out.push_str("],\"labels\":[]}");
    out
}
