//! Simulated Twitter dataset — the stand-in for the paper's real-world data
//! (see DESIGN.md, substitution 1).
//!
//! The paper's dataset: 10k users with ≈130 follower edges each, quarterly
//! opinion snapshots on a political topic from May 2008 to August 2011 (13
//! states), with ground truth from Google Trends plus a log of political
//! events. This module reproduces what that data *exercises*:
//!
//! * a scale-free follower graph of the same scale;
//! * baseline quarters: neighbor-driven activation plus churn (users who
//!   stop tweeting in a quarter become neutral);
//! * **consensus events** (election, inauguration, bin-Laden): an
//!   activation surge flowing through the usual neighbor-voting mechanism —
//!   every distance measure should react;
//! * **polarized events** (stimulus bill, "Obama-Care", tax plan): two
//!   structural communities activate *against* each other and some users
//!   flip polarity — coordinate-wise measures see ordinary volume, while a
//!   propagation-aware measure sees expensive, structure-breaking flows.
//!
//! Transitions into polarized quarters are the labelled anomalies.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use snd_graph::{generators, label_propagation, CsrGraph, NodeId};
use snd_models::dynamics::{seed_initial_adopters, voting_step_sampled, VotingConfig};
use snd_models::{NetworkState, Opinion};

/// Kind of injected event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// Broad, non-polarizing activation surge (e.g. an election night):
    /// `surge` scales the quarter's activation chances.
    Consensus {
        /// Multiplier on the baseline activation chances.
        surge: f64,
    },
    /// Two communities activate against each other; `intensity` is the
    /// fraction of each community's members that picks up the camp opinion,
    /// and a matching share of active members flips polarity.
    Polarized {
        /// Fraction of community members activating/flipping.
        intensity: f64,
    },
}

/// A named event pinned to a quarter.
#[derive(Clone, Debug)]
pub struct Event {
    /// Quarter index (state index in `1..quarters`).
    pub quarter: usize,
    /// Event kind and magnitude.
    pub kind: EventKind,
    /// Display name for experiment output.
    pub name: &'static str,
}

/// Configuration for [`simulate_twitter`].
#[derive(Clone, Debug)]
pub struct TwitterSimConfig {
    /// Number of users (paper: 10k).
    pub users: usize,
    /// Average number of follower edges per user (paper: ≈130).
    pub avg_degree: usize,
    /// Number of quarterly states (paper: 13, May'08–Aug'11).
    pub quarters: usize,
    /// Baseline activation parameters.
    pub baseline: VotingConfig,
    /// Fraction of users offered an activation chance per quarter.
    pub chance_fraction: f64,
    /// Probability an active user goes quiet (neutral) next quarter.
    pub churn: f64,
    /// Event schedule; quarters must be in `1..quarters`.
    pub events: Vec<Event>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TwitterSimConfig {
    fn default() -> Self {
        TwitterSimConfig {
            users: 10_000,
            avg_degree: 130,
            quarters: 13,
            baseline: VotingConfig {
                p_nbr: 0.10,
                p_ext: 0.01,
            },
            chance_fraction: 0.06,
            churn: 0.08,
            events: default_timeline(),
            seed: 2008,
        }
    }
}

/// The default event timeline, mirroring the Fig. 9 annotations
/// (quarters run May'08 … Aug'11).
fn default_timeline() -> Vec<Event> {
    vec![
        Event {
            quarter: 1,
            kind: EventKind::Consensus { surge: 3.0 },
            name: "election",
        },
        Event {
            quarter: 2,
            kind: EventKind::Consensus { surge: 1.8 },
            name: "inauguration",
        },
        Event {
            quarter: 4,
            kind: EventKind::Polarized { intensity: 0.25 },
            name: "economic-stimulus-bill",
        },
        Event {
            quarter: 6,
            kind: EventKind::Consensus { surge: 1.5 },
            name: "nobel-prize",
        },
        Event {
            quarter: 8,
            kind: EventKind::Polarized { intensity: 0.3 },
            name: "obama-care",
        },
        Event {
            quarter: 10,
            kind: EventKind::Polarized { intensity: 0.2 },
            name: "tax-plan",
        },
        Event {
            quarter: 12,
            kind: EventKind::Consensus { surge: 3.0 },
            name: "bin-laden",
        },
    ]
}

/// A simulated Twitter dataset.
#[derive(Clone, Debug)]
pub struct TwitterSim {
    /// Follower graph.
    pub graph: CsrGraph,
    /// Quarterly states (`quarters` of them).
    pub states: Vec<NetworkState>,
    /// Event schedule used.
    pub events: Vec<Event>,
    /// `labels[t]` marks transition `G_t → G_{t+1}` as anomalous
    /// (= leads into a polarized quarter).
    pub labels: Vec<bool>,
    /// The two opposing communities used by polarized events.
    pub camps: (Vec<NodeId>, Vec<NodeId>),
}

/// Runs the simulation.
pub fn simulate_twitter(config: &TwitterSimConfig) -> TwitterSim {
    assert!(config.quarters >= 2);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Degree span chosen so the mean lands near `avg_degree` for the
    // default exponent.
    let k_max = (config.avg_degree * 14).min(config.users - 1);
    let graph = generators::scale_free_configuration(
        config.users,
        -2.0,
        config.avg_degree / 3,
        k_max,
        &mut rng,
    );

    // The two largest structural communities become the opposing camps;
    // when label propagation collapses the graph into one giant community
    // (common on dense scale-free graphs), fall back to a balanced BFS
    // bisection, which still yields structurally coherent halves.
    let communities = label_propagation(&graph, 12, &mut rng);
    let mut by_size: Vec<usize> = (0..communities.cluster_count()).collect();
    by_size.sort_by_key(|&c| std::cmp::Reverse(communities.members(c as u32).len()));
    let second_size = by_size
        .get(1)
        .map_or(0, |&c| communities.members(c as u32).len());
    let (camp_pos, camp_neg): (Vec<NodeId>, Vec<NodeId>) = if second_size >= config.users / 20 {
        (
            communities.members(by_size[0] as u32).to_vec(),
            communities.members(by_size[1] as u32).to_vec(),
        )
    } else {
        let halves = snd_graph::bfs_partition(&graph, 2);
        (halves.members(0).to_vec(), halves.members(1).to_vec())
    };

    let chances = ((config.users as f64) * config.chance_fraction).round() as usize;
    let mut states = Vec::with_capacity(config.quarters);
    let mut labels = vec![false; config.quarters - 1];
    let mut current = seed_initial_adopters(config.users, config.users / 20, &mut rng)
        // lint:allow(no-unwrap) a twentieth of the population never exceeds it
        .expect("seed count is a twentieth of the population");

    for q in 1..config.quarters {
        let mut state = current.clone();
        // Churn: some active users tweet nothing this quarter.
        for u in 0..config.users as NodeId {
            if state.opinion(u).is_active() && rng.gen_bool(config.churn) {
                state.set(u, Opinion::Neutral);
            }
        }
        let event = config.events.iter().find(|e| e.quarter == q);
        match event.map(|e| e.kind) {
            Some(EventKind::Consensus { surge }) => {
                let boosted = (chances as f64 * surge).round() as usize;
                state = voting_step_sampled(&graph, &state, &config.baseline, boosted, &mut rng);
            }
            Some(EventKind::Polarized { intensity }) => {
                state = voting_step_sampled(&graph, &state, &config.baseline, chances, &mut rng);
                apply_polarized_event(&mut state, &camp_pos, &camp_neg, intensity, &mut rng);
                labels[q - 1] = true;
            }
            None => {
                state = voting_step_sampled(&graph, &state, &config.baseline, chances, &mut rng);
            }
        }
        states.push(std::mem::replace(&mut current, state));
    }
    states.push(current);

    TwitterSim {
        graph,
        states,
        events: config.events.clone(),
        labels,
        camps: (camp_pos, camp_neg),
    }
}

/// Polarized event: members of each camp pick up the camp's opinion —
/// including actives of the *other* polarity flipping — with probability
/// `intensity`, independent of their neighborhoods.
fn apply_polarized_event<R: Rng>(
    state: &mut NetworkState,
    camp_pos: &[NodeId],
    camp_neg: &[NodeId],
    intensity: f64,
    rng: &mut R,
) {
    for &u in camp_pos {
        if rng.gen_bool(intensity) {
            state.set(u, Opinion::Positive);
        }
    }
    for &u in camp_neg {
        if rng.gen_bool(intensity) {
            state.set(u, Opinion::Negative);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> TwitterSimConfig {
        TwitterSimConfig {
            users: 800,
            avg_degree: 20,
            quarters: 8,
            events: vec![
                Event {
                    quarter: 2,
                    kind: EventKind::Consensus { surge: 3.0 },
                    name: "consensus",
                },
                Event {
                    quarter: 5,
                    kind: EventKind::Polarized { intensity: 0.3 },
                    name: "polarized",
                },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn shape_and_labels() {
        let sim = simulate_twitter(&small_config());
        assert_eq!(sim.states.len(), 8);
        assert_eq!(sim.labels.len(), 7);
        assert!(sim.labels[4], "transition into quarter 5 is anomalous");
        assert_eq!(sim.labels.iter().filter(|&&l| l).count(), 1);
    }

    #[test]
    fn consensus_quarter_has_activation_surge() {
        let sim = simulate_twitter(&small_config());
        let growth: Vec<i64> = sim
            .states
            .windows(2)
            .map(|w| w[1].active_count() as i64 - w[0].active_count() as i64)
            .collect();
        // The consensus quarter (transition 1) outgrows the baseline
        // quarter right after it (transition 2).
        assert!(
            growth[1] > growth[2],
            "consensus surge {} vs baseline {}",
            growth[1],
            growth[2]
        );
    }

    #[test]
    fn polarized_quarter_flips_opinions() {
        let sim = simulate_twitter(&small_config());
        // Count polarity flips (active -> opposite) per transition.
        let flips: Vec<usize> = sim
            .states
            .windows(2)
            .map(|w| {
                (0..w[0].len() as NodeId)
                    .filter(|&u| {
                        let (a, b) = (w[0].opinion(u), w[1].opinion(u));
                        a.is_active() && b.is_active() && a != b
                    })
                    .count()
            })
            .collect();
        let polarized_flips = flips[4];
        let baseline_max = flips
            .iter()
            .enumerate()
            .filter(|&(t, _)| t != 4)
            .map(|(_, &f)| f)
            .max()
            .unwrap();
        assert!(
            polarized_flips > baseline_max,
            "polarized {polarized_flips} vs baseline max {baseline_max}"
        );
    }

    #[test]
    fn camps_are_disjoint() {
        let sim = simulate_twitter(&small_config());
        let (pos, neg) = &sim.camps;
        let pos_set: std::collections::HashSet<_> = pos.iter().collect();
        assert!(neg.iter().all(|u| !pos_set.contains(u)));
        assert!(!pos.is_empty() && !neg.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate_twitter(&small_config());
        let b = simulate_twitter(&small_config());
        assert_eq!(a.states, b.states);
    }
}
