//! Synthetic network-state series with injected mechanism anomalies.
//!
//! Normal steps use `(p_nbr, p_ext)`; anomalous steps shift probability
//! mass from neighbor-driven adoption to external (random) adoption while
//! preserving the sum, so the *number* of new activations is statistically
//! unchanged and only the activation *mechanism* differs — the anomalies
//! §6.2 designs to be invisible to coordinate-wise distance measures.
//!
//! Because a user whose sampled neighborhood has no active member stays
//! neutral, the raw activation rate is `p_nbr·pf + p_ext` with `pf` the
//! fraction of neutral users having an active in-neighbor. The generator
//! therefore *calibrates* the number of activation chances each anomalous
//! step so the expected activation volume matches a normal step exactly —
//! keeping the summary statistic (new-activation count) uninformative at
//! any density.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_graph::{generators, CsrGraph};
use snd_models::dynamics::{seed_initial_adopters, VotingConfig};
use snd_models::process::Voting;
use snd_models::{NetworkState, OpinionDynamics};

/// Configuration for [`generate_series`].
#[derive(Clone, Debug)]
pub struct SyntheticSeriesConfig {
    /// Number of users.
    pub nodes: usize,
    /// Scale-free exponent (negative; the paper uses −2.9 … −2.1).
    pub exponent: f64,
    /// Initial adopters (split evenly between the two opinions).
    pub initial_adopters: usize,
    /// Number of transitions to generate (`steps + 1` states).
    pub steps: usize,
    /// Normal-step activation parameters.
    pub normal: VotingConfig,
    /// Anomalous-step activation parameters (same sum, different split).
    pub anomalous: VotingConfig,
    /// Transitions generated with the anomalous parameters (indices into
    /// `0..steps`).
    pub anomalous_steps: Vec<usize>,
    /// Fraction of users offered an activation chance per step; keeps long
    /// series from saturating.
    pub chance_fraction: f64,
    /// Normal steps simulated (and discarded) before recording `G_0`,
    /// removing series-start transients.
    pub burn_in: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticSeriesConfig {
    fn default() -> Self {
        SyntheticSeriesConfig {
            nodes: 2000,
            exponent: -2.3,
            initial_adopters: 300,
            steps: 40,
            normal: VotingConfig {
                p_nbr: 0.12,
                p_ext: 0.01,
            },
            anomalous: VotingConfig {
                p_nbr: 0.08,
                p_ext: 0.05,
            },
            anomalous_steps: vec![10, 25],
            chance_fraction: 0.12,
            burn_in: 4,
            seed: 7,
        }
    }
}

/// A generated series: graph, `steps + 1` states, and per-transition
/// anomaly labels.
#[derive(Clone, Debug)]
pub struct SyntheticSeries {
    /// The network.
    pub graph: CsrGraph,
    /// States `G_0 … G_steps`.
    pub states: Vec<NetworkState>,
    /// `labels[t]` marks transition `G_t → G_{t+1}` as anomalous.
    pub labels: Vec<bool>,
}

/// Fraction of neutral users with at least one active in-neighbor — the
/// quantity that couples the neighbor-vote branch to the activation volume.
fn active_neighbor_fraction(graph: &CsrGraph, state: &NetworkState) -> f64 {
    let mut neutral = 0usize;
    let mut with_active = 0usize;
    for v in graph.nodes() {
        if state.opinion(v).is_active() {
            continue;
        }
        neutral += 1;
        if graph
            .in_neighbors(v)
            .iter()
            .any(|&u| state.opinion(u).is_active())
        {
            with_active += 1;
        }
    }
    if neutral == 0 {
        1.0
    } else {
        with_active as f64 / neutral as f64
    }
}

/// Generates a synthetic series per the configuration.
///
/// Steps run through the trait-based [`Voting`] kernel (bit-identical to
/// the pre-trait `voting_step_sampled` loop for a fixed seed); the
/// volume-calibration logic between steps is what makes this generator the
/// §6.2-faithful one — the generic path for arbitrary models is the
/// scenario registry in [`crate::scenario`].
pub fn generate_series(config: &SyntheticSeriesConfig) -> SyntheticSeries {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let k_max = (config.nodes / 50).clamp(8, 1000);
    let graph =
        generators::scale_free_configuration(config.nodes, config.exponent, 3, k_max, &mut rng);
    let chances = ((config.nodes as f64) * config.chance_fraction).round() as usize;

    let mut labels = vec![false; config.steps];
    for &t in &config.anomalous_steps {
        assert!(t < config.steps, "anomalous step {t} out of range");
        labels[t] = true;
    }
    let normal = Voting::sampled(config.normal, chances);
    let mut current = seed_initial_adopters(
        config.nodes,
        config.initial_adopters.min(config.nodes),
        &mut rng,
    )
    // lint:allow(no-unwrap) the adopter count is clamped to the population just above
    .expect("adopter count clamped to the population");
    for _ in 0..config.burn_in {
        normal.step(&graph, &mut current, &mut rng);
    }

    let mut states = Vec::with_capacity(config.steps + 1);
    for &anomalous in &labels {
        let mut next = current.clone();
        if anomalous {
            // Volume calibration: match the expected activation count of a
            // normal step at the current density.
            let pf = active_neighbor_fraction(&graph, &next);
            let normal_rate = config.normal.p_nbr * pf + config.normal.p_ext;
            let anomalous_rate = config.anomalous.p_nbr * pf + config.anomalous.p_ext;
            let calibrated = if anomalous_rate > 0.0 {
                ((chances as f64) * normal_rate / anomalous_rate).round() as usize
            } else {
                chances
            };
            Voting::sampled(config.anomalous, calibrated).step(&graph, &mut next, &mut rng);
        } else {
            normal.step(&graph, &mut next, &mut rng);
        }
        states.push(std::mem::replace(&mut current, next));
    }
    states.push(current);
    SyntheticSeries {
        graph,
        states,
        labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_has_expected_shape() {
        let config = SyntheticSeriesConfig {
            nodes: 300,
            steps: 10,
            initial_adopters: 20,
            anomalous_steps: vec![4],
            ..Default::default()
        };
        let series = generate_series(&config);
        assert_eq!(series.states.len(), 11);
        assert_eq!(series.labels.len(), 10);
        assert!(series.labels[4]);
        assert_eq!(series.labels.iter().filter(|&&l| l).count(), 1);
        assert_eq!(series.graph.node_count(), 300);
    }

    #[test]
    fn activation_grows_monotonically() {
        let config = SyntheticSeriesConfig {
            nodes: 400,
            steps: 8,
            initial_adopters: 30,
            anomalous_steps: vec![],
            ..Default::default()
        };
        let series = generate_series(&config);
        for w in series.states.windows(2) {
            assert!(w[1].active_count() >= w[0].active_count());
        }
        assert!(series.states.last().unwrap().active_count() > 30);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = SyntheticSeriesConfig {
            nodes: 200,
            steps: 5,
            anomalous_steps: vec![2],
            ..Default::default()
        };
        let a = generate_series(&config);
        let b = generate_series(&config);
        assert_eq!(a.states, b.states);
        let c = generate_series(&SyntheticSeriesConfig {
            seed: 8,
            ..config.clone()
        });
        assert_ne!(a.states, c.states);
    }

    #[test]
    fn anomalous_steps_preserve_activation_volume() {
        // Mechanism anomalies must not be detectable from counts alone.
        // Volume preservation needs a dense-enough active neighborhood;
        // seed a third of the network.
        let base = SyntheticSeriesConfig {
            nodes: 3000,
            steps: 2,
            initial_adopters: 1000,
            anomalous_steps: vec![],
            seed: 42,
            ..Default::default()
        };
        let normal = generate_series(&base);
        let anomalous = generate_series(&SyntheticSeriesConfig {
            anomalous_steps: vec![0, 1],
            ..base
        });
        let growth = |s: &SyntheticSeries| {
            s.states.last().unwrap().active_count() - s.states[0].active_count()
        };
        let (gn, ga) = (growth(&normal) as f64, growth(&anomalous) as f64);
        let ratio = gn / ga;
        assert!((0.75..1.33).contains(&ratio), "growth ratio {ratio}");
    }
}
