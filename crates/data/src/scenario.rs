//! The scenario registry: named, reproducible simulation specs.
//!
//! A [`Scenario`] composes everything a forward-simulated evaluation series
//! needs — a graph generator ([`GraphSpec`]), an initial seeding, an
//! opinion-dynamics model ([`ModelSpec`], built into an
//! [`OpinionDynamics`] kernel at run time), and an anomaly-injection
//! schedule ([`AnomalyPlacement`], the §6.2 mechanism-shift pattern
//! generalized to any model pair) — into a single seeded spec.
//! [`Scenario::run`] turns a spec plus a seed into a labelled
//! [`SyntheticSeries`], the exact shape the analysis layer, the dataset
//! JSON format, and every `snd` subcommand consume.
//!
//! The built-in [`registry`] covers one scenario per model family (the
//! paper's voting/ICC/LTC/random processes plus majority rule, stubborn
//! voters, thresholded DeGroot and bounded confidence); `snd simulate
//! --list` prints it. Adding a scenario is one entry here; adding a model
//! family is a ~50-line [`OpinionDynamics`] impl plus a [`ModelSpec`]
//! variant.

use std::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use snd_graph::{generators, CsrGraph};
use snd_models::dynamics::{seed_initial_adopters, VotingConfig};
use snd_models::process::{
    BoundedConfidence, IndependentCascade, LinearThreshold, MajorityRule, RandomActivation,
    StubbornVoter, ThresholdedDeGroot, Voting,
};
use snd_models::{ModelError, OpinionDynamics};

use crate::synthetic::SyntheticSeries;

/// A scenario that cannot be run as configured.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// A model parameter failed validation.
    Model(ModelError),
    /// An explicit anomalous step at or past `steps`.
    AnomalousStepOutOfRange {
        /// The offending transition index.
        step: usize,
        /// Number of transitions in the run.
        steps: usize,
    },
    /// Too few nodes for the scenario's graph generator.
    TooFewNodes {
        /// Requested node count.
        nodes: usize,
        /// Minimum the generator supports.
        min: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Model(e) => write!(f, "invalid model parameters: {e}"),
            ScenarioError::AnomalousStepOutOfRange { step, steps } => {
                write!(f, "anomalous step {step} out of range for {steps} steps")
            }
            ScenarioError::TooFewNodes { nodes, min } => {
                write!(
                    f,
                    "{nodes} node(s) is below the scenario's minimum of {min}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ModelError> for ScenarioError {
    fn from(e: ModelError) -> Self {
        ScenarioError::Model(e)
    }
}

/// Graph topology of a scenario. Sizes are given at run time so one spec
/// scales from CI smoke to benchmark size.
#[derive(Clone, Debug)]
pub enum GraphSpec {
    /// Scale-free configuration model (the paper's synthetic topology).
    ScaleFree {
        /// Degree exponent (negative).
        exponent: f64,
        /// Minimum degree.
        k_min: usize,
    },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert {
        /// Edges attached per new node.
        m: usize,
    },
    /// Two dense communities joined by a few bridge ties — the topology
    /// where polarization-preserving dynamics are visible.
    TwoClusterBridge {
        /// Intra-cluster tie probability.
        intra_p: f64,
        /// Number of bridge ties.
        bridges: usize,
    },
}

impl GraphSpec {
    /// Builds the graph over `nodes` users.
    pub fn build(&self, nodes: usize, rng: &mut SmallRng) -> CsrGraph {
        match *self {
            GraphSpec::ScaleFree { exponent, k_min } => {
                let k_max = (nodes / 50).clamp(8, 1000);
                generators::scale_free_configuration(nodes, exponent, k_min, k_max, rng)
            }
            GraphSpec::BarabasiAlbert { m } => generators::barabasi_albert(nodes, m, rng),
            GraphSpec::TwoClusterBridge { intra_p, bridges } => {
                generators::two_cluster_bridge(nodes / 2, intra_p, bridges, rng)
            }
        }
    }

    /// Smallest node count the generator supports without degenerating
    /// (below it the underlying generators panic on impossible degree or
    /// cluster constraints).
    pub fn min_nodes(&self) -> usize {
        match *self {
            // The configuration model needs n > k_max, and k_max is
            // clamped to at least 8 for small networks.
            GraphSpec::ScaleFree { .. } => 10,
            // Preferential attachment needs n > m.
            GraphSpec::BarabasiAlbert { m } => m + 1,
            // Two clusters of at least two users each.
            GraphSpec::TwoClusterBridge { .. } => 4,
        }
    }

    /// Short display name for `--list` output.
    pub fn label(&self) -> &'static str {
        match self {
            GraphSpec::ScaleFree { .. } => "scale-free",
            GraphSpec::BarabasiAlbert { .. } => "barabasi-albert",
            GraphSpec::TwoClusterBridge { .. } => "two-cluster",
        }
    }
}

/// A buildable model specification: sizes expressed as fractions of `n` so
/// one spec scales with the run's node count.
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// Probabilistic voting; `chance_fraction` bounds per-step activation
    /// chances to a fraction of the network (`None` = full sweep).
    Voting {
        /// Neighbor-adoption probability.
        p_nbr: f64,
        /// External-adoption probability.
        p_ext: f64,
        /// Fraction of users offered a chance per step.
        chance_fraction: Option<f64>,
    },
    /// Independent Cascade with Competition (weighted-cascade edges).
    Icc,
    /// Linear Threshold with Competition (uniform threshold).
    Ltc {
        /// Per-user activation threshold.
        threshold: f64,
    },
    /// Structure-oblivious random activation of a fixed user fraction.
    RandomActivation {
        /// Fraction of users activated per step.
        fraction: f64,
    },
    /// Galam-style majority rule.
    MajorityRule {
        /// Probability a user re-evaluates per step.
        update_prob: f64,
    },
    /// Voter model with a fixed stubborn subset.
    StubbornVoter {
        /// Probability a non-stubborn user copies a neighbor per step.
        copy_prob: f64,
        /// Fraction of users that never change opinion.
        stubborn_fraction: f64,
    },
    /// Thresholded DeGroot/Friedkin–Johnsen projected onto `{−1, 0, +1}`.
    DeGroot {
        /// Weight on the neighborhood average.
        susceptibility: f64,
        /// Minimum |mixed value| for a polar opinion.
        threshold: f64,
    },
    /// Hegselmann–Krause-style bounded-confidence adoption.
    BoundedConfidence {
        /// Maximum opinion-value gap for a neighbor to be heard.
        confidence: i8,
        /// Probability a user re-evaluates per step.
        update_prob: f64,
        /// Minimum |average| for a polar opinion.
        threshold: f64,
    },
}

impl ModelSpec {
    /// The model family this spec builds — matches
    /// [`OpinionDynamics::name`].
    pub fn family(&self) -> &'static str {
        match self {
            ModelSpec::Voting { .. } => "voting",
            ModelSpec::Icc => "icc",
            ModelSpec::Ltc { .. } => "ltc",
            ModelSpec::RandomActivation { .. } => "random-activation",
            ModelSpec::MajorityRule { .. } => "majority-rule",
            ModelSpec::StubbornVoter { .. } => "stubborn-voter",
            ModelSpec::DeGroot { .. } => "degroot-threshold",
            ModelSpec::BoundedConfidence { .. } => "bounded-confidence",
        }
    }

    /// The spec's free parameters as named numbers, in the wire form the
    /// dataset format records (`snd simulate` writes them so `--ground
    /// icc|ltc` can reprice with the *simulated* parameters rather than
    /// the family defaults). Parameters that are `None` are omitted;
    /// [`ModelSpec::Icc`] has no free parameters.
    pub fn params(&self) -> Vec<(&'static str, f64)> {
        match *self {
            ModelSpec::Voting {
                p_nbr,
                p_ext,
                chance_fraction,
            } => {
                let mut out = vec![("p_nbr", p_nbr), ("p_ext", p_ext)];
                if let Some(f) = chance_fraction {
                    out.push(("chance_fraction", f));
                }
                out
            }
            ModelSpec::Icc => Vec::new(),
            ModelSpec::Ltc { threshold } => vec![("threshold", threshold)],
            ModelSpec::RandomActivation { fraction } => vec![("fraction", fraction)],
            ModelSpec::MajorityRule { update_prob } => vec![("update_prob", update_prob)],
            ModelSpec::StubbornVoter {
                copy_prob,
                stubborn_fraction,
            } => vec![
                ("copy_prob", copy_prob),
                ("stubborn_fraction", stubborn_fraction),
            ],
            ModelSpec::DeGroot {
                susceptibility,
                threshold,
            } => vec![("susceptibility", susceptibility), ("threshold", threshold)],
            ModelSpec::BoundedConfidence {
                confidence,
                update_prob,
                threshold,
            } => vec![
                ("confidence", f64::from(confidence)),
                ("update_prob", update_prob),
                ("threshold", threshold),
            ],
        }
    }

    /// Builds the transition kernel for a network of `nodes` users,
    /// validating every parameter.
    pub fn build(
        &self,
        nodes: usize,
        graph: &CsrGraph,
    ) -> Result<Box<dyn OpinionDynamics>, ModelError> {
        let frac_count = |f: f64| ((nodes as f64) * f).round() as usize;
        Ok(match *self {
            ModelSpec::Voting {
                p_nbr,
                p_ext,
                chance_fraction,
            } => {
                let config = VotingConfig::new(p_nbr, p_ext)?;
                Box::new(Voting {
                    config,
                    chances: chance_fraction.map(frac_count),
                })
            }
            ModelSpec::Icc => Box::new(IndependentCascade {
                params: snd_models::IccParams::for_graph(
                    graph,
                    snd_models::icc::EdgeActivation::WeightedCascade,
                    None,
                    1e-6,
                )?,
            }),
            ModelSpec::Ltc { threshold } => Box::new(LinearThreshold {
                params: snd_models::LtcParams::for_graph(
                    graph,
                    snd_models::ltc::EdgeWeights::DegreeNormalized,
                    Some(vec![threshold; nodes]),
                    1e-6,
                )?,
            }),
            ModelSpec::RandomActivation { fraction } => Box::new(RandomActivation {
                count: frac_count(fraction).max(1),
            }),
            ModelSpec::MajorityRule { update_prob } => Box::new(MajorityRule::new(update_prob)?),
            ModelSpec::StubbornVoter {
                copy_prob,
                stubborn_fraction,
            } => Box::new(StubbornVoter::new(copy_prob, stubborn_fraction, 0x5eed)?),
            ModelSpec::DeGroot {
                susceptibility,
                threshold,
            } => Box::new(ThresholdedDeGroot::new(susceptibility, threshold)?),
            ModelSpec::BoundedConfidence {
                confidence,
                update_prob,
                threshold,
            } => Box::new(BoundedConfidence::new(confidence, update_prob, threshold)?),
        })
    }
}

/// Where a scenario's anomalous transitions fall.
#[derive(Clone, Debug)]
pub enum AnomalyPlacement {
    /// The §6.2 placement: at one third and two thirds of the run.
    Thirds,
    /// Explicit transition indices (must be `< steps`).
    Explicit(Vec<usize>),
}

impl AnomalyPlacement {
    /// Resolves to concrete transition indices for a run of `steps`.
    pub fn resolve(&self, steps: usize) -> Result<Vec<bool>, ScenarioError> {
        let mut labels = vec![false; steps];
        match self {
            AnomalyPlacement::Thirds => {
                if steps >= 3 {
                    labels[steps / 3] = true;
                    labels[(2 * steps) / 3] = true;
                } else if steps > 0 {
                    labels[steps / 2] = true;
                }
            }
            AnomalyPlacement::Explicit(ts) => {
                for &t in ts {
                    if t >= steps {
                        return Err(ScenarioError::AnomalousStepOutOfRange { step: t, steps });
                    }
                    labels[t] = true;
                }
            }
        }
        Ok(labels)
    }
}

/// The anomaly half of a scenario: at each anomalous transition the
/// injected model steps instead of the normal one — the §6.2
/// mechanism-shift pattern generalized to any model pair.
#[derive(Clone, Debug)]
pub struct AnomalySpec {
    /// The mechanism substituted at anomalous transitions.
    pub model: ModelSpec,
    /// Which transitions are anomalous.
    pub placement: AnomalyPlacement,
}

/// A named, seeded, reproducible simulation spec. Fields are public so
/// callers (the CLI's `--nodes`/`--steps` overrides, tests) can rescale a
/// registry entry before running it.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Registry key (`snd simulate --scenario NAME`).
    pub name: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// Topology.
    pub graph: GraphSpec,
    /// Number of users.
    pub nodes: usize,
    /// Initial adopters as a fraction of `nodes` (split evenly between
    /// camps).
    pub seed_fraction: f64,
    /// Normal transitions simulated (and discarded) before `G_0`.
    pub burn_in: usize,
    /// Number of recorded transitions (`steps + 1` states).
    pub steps: usize,
    /// The normal dynamics.
    pub model: ModelSpec,
    /// Optional anomaly injection.
    pub anomaly: Option<AnomalySpec>,
}

impl Scenario {
    /// Runs the scenario: builds the graph, seeds adopters, burns in, then
    /// records `steps` transitions, substituting the anomaly model at
    /// anomalous transitions. Fully determined by `(self, seed)`.
    pub fn run(&self, seed: u64) -> Result<SyntheticSeries, ScenarioError> {
        let min = self.graph.min_nodes();
        if self.nodes < min {
            return Err(ScenarioError::TooFewNodes {
                nodes: self.nodes,
                min,
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = self.graph.build(self.nodes, &mut rng);
        let n = graph.node_count();
        let model = self.model.build(n, &graph)?;
        let anomaly = self
            .anomaly
            .as_ref()
            .map(|a| -> Result<_, ScenarioError> {
                Ok((a.model.build(n, &graph)?, a.placement.resolve(self.steps)?))
            })
            .transpose()?;

        let adopters = ((n as f64) * self.seed_fraction).round() as usize;
        let mut current = seed_initial_adopters(n, adopters.min(n), &mut rng)?;
        for _ in 0..self.burn_in {
            model.step(&graph, &mut current, &mut rng);
        }

        let labels = match &anomaly {
            Some((_, labels)) => labels.clone(),
            None => vec![false; self.steps],
        };
        let mut states = Vec::with_capacity(self.steps + 1);
        for &anomalous in &labels {
            let mut next = current.clone();
            // Only a run with an anomaly model has anomalous labels.
            match (&anomaly, anomalous) {
                (Some((injected, _)), true) => injected.step(&graph, &mut next, &mut rng),
                _ => model.step(&graph, &mut next, &mut rng),
            }
            states.push(std::mem::replace(&mut current, next));
        }
        states.push(current);
        Ok(SyntheticSeries {
            graph,
            states,
            labels,
        })
    }
}

/// The built-in scenarios: at least one per model family.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "voting",
            description: "baseline probabilistic voting on a scale-free network (§6.1)",
            graph: GraphSpec::ScaleFree {
                exponent: -2.3,
                k_min: 3,
            },
            nodes: 2000,
            seed_fraction: 0.15,
            burn_in: 4,
            steps: 40,
            model: ModelSpec::Voting {
                p_nbr: 0.12,
                p_ext: 0.01,
                chance_fraction: Some(0.12),
            },
            anomaly: None,
        },
        Scenario {
            name: "voting-mech-shift",
            description: "probabilistic voting with §6.2 mechanism-shift anomalies at thirds",
            graph: GraphSpec::ScaleFree {
                exponent: -2.3,
                k_min: 3,
            },
            nodes: 2000,
            seed_fraction: 0.15,
            burn_in: 4,
            steps: 40,
            model: ModelSpec::Voting {
                p_nbr: 0.12,
                p_ext: 0.01,
                chance_fraction: Some(0.12),
            },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::Voting {
                    p_nbr: 0.08,
                    p_ext: 0.05,
                    chance_fraction: Some(0.12),
                },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "icc-cascade",
            description: "ICC cascade with random-activation anomalies (§6.4 pattern)",
            graph: GraphSpec::BarabasiAlbert { m: 3 },
            nodes: 2000,
            seed_fraction: 0.05,
            burn_in: 1,
            steps: 24,
            model: ModelSpec::Icc,
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.02 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "ltc-cascade",
            description: "LTC threshold cascade with random-activation anomalies",
            graph: GraphSpec::BarabasiAlbert { m: 3 },
            nodes: 2000,
            seed_fraction: 0.08,
            burn_in: 1,
            steps: 24,
            model: ModelSpec::Ltc { threshold: 0.3 },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.02 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "random-activation",
            description: "structure-oblivious null model: random activations only",
            graph: GraphSpec::ScaleFree {
                exponent: -2.3,
                k_min: 3,
            },
            nodes: 2000,
            seed_fraction: 0.05,
            burn_in: 0,
            steps: 24,
            model: ModelSpec::RandomActivation { fraction: 0.01 },
            anomaly: None,
        },
        Scenario {
            name: "majority-consensus",
            description: "Galam majority rule on two bridged communities, random-burst anomalies",
            graph: GraphSpec::TwoClusterBridge {
                intra_p: 0.05,
                bridges: 6,
            },
            nodes: 2000,
            seed_fraction: 0.3,
            burn_in: 1,
            steps: 24,
            model: ModelSpec::MajorityRule { update_prob: 0.25 },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.03 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "stubborn-voter",
            description: "voter model with 10% curmudgeons sustaining disagreement",
            graph: GraphSpec::BarabasiAlbert { m: 3 },
            nodes: 2000,
            seed_fraction: 0.4,
            burn_in: 2,
            steps: 24,
            model: ModelSpec::StubbornVoter {
                copy_prob: 0.3,
                stubborn_fraction: 0.1,
            },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.03 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "degroot-threshold",
            description: "thresholded Friedkin–Johnsen averaging with random-burst anomalies",
            graph: GraphSpec::BarabasiAlbert { m: 4 },
            nodes: 2000,
            seed_fraction: 0.35,
            burn_in: 1,
            steps: 24,
            model: ModelSpec::DeGroot {
                susceptibility: 0.55,
                threshold: 0.25,
            },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.03 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
        Scenario {
            name: "bounded-confidence",
            description: "Hegselmann–Krause echo chambers on two bridged communities",
            graph: GraphSpec::TwoClusterBridge {
                intra_p: 0.05,
                bridges: 4,
            },
            nodes: 2000,
            seed_fraction: 0.4,
            burn_in: 1,
            steps: 24,
            model: ModelSpec::BoundedConfidence {
                confidence: 1,
                update_prob: 0.3,
                threshold: 0.25,
            },
            anomaly: Some(AnomalySpec {
                model: ModelSpec::RandomActivation { fraction: 0.03 },
                placement: AnomalyPlacement::Thirds,
            }),
        },
    ]
}

/// Looks up a registry scenario by name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_every_family() {
        let reg = registry();
        let mut names: Vec<_> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate scenario names");
        let mut families: Vec<_> = reg.iter().map(|s| s.model.family()).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(
            families.len(),
            8,
            "one scenario per model family: {families:?}"
        );
    }

    #[test]
    fn model_params_are_finite_named_numbers() {
        // Every registry model serializes to finite named parameters, and
        // the two repricable families expose exactly what the ground-cost
        // configs need: LTC its threshold, ICC nothing (no free params).
        for sc in registry() {
            for (name, value) in sc.model.params() {
                assert!(
                    value.is_finite(),
                    "{}: param {name} must be finite, got {value}",
                    sc.name
                );
                assert!(!name.is_empty());
            }
        }
        let ltc = ModelSpec::Ltc { threshold: 0.35 };
        assert_eq!(ltc.params(), vec![("threshold", 0.35)]);
        assert!(ModelSpec::Icc.params().is_empty());
    }

    #[test]
    fn every_scenario_runs_and_is_deterministic_per_seed() {
        for mut sc in registry() {
            sc.nodes = 240;
            sc.steps = 6;
            let a = sc.run(3).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            let b = sc.run(3).unwrap();
            assert_eq!(a.states, b.states, "{} not deterministic", sc.name);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.states.len(), 7, "{}", sc.name);
            assert_eq!(a.labels.len(), 6, "{}", sc.name);
            assert_eq!(a.graph.node_count(), a.states[0].len());
            let c = sc.run(4).unwrap();
            assert_ne!(a.states, c.states, "{} ignores the seed", sc.name);
        }
    }

    #[test]
    fn labelled_scenarios_place_anomalies_at_thirds() {
        let mut sc = find_scenario("voting-mech-shift").expect("registered");
        sc.nodes = 200;
        sc.steps = 12;
        let series = sc.run(1).unwrap();
        assert!(series.labels[4] && series.labels[8]);
        assert_eq!(series.labels.iter().filter(|&&l| l).count(), 2);
    }

    #[test]
    fn explicit_placement_validates_range() {
        let mut sc = find_scenario("icc-cascade").expect("registered");
        sc.nodes = 100;
        sc.steps = 5;
        sc.anomaly = Some(AnomalySpec {
            model: ModelSpec::RandomActivation { fraction: 0.1 },
            placement: AnomalyPlacement::Explicit(vec![7]),
        });
        let err = sc.run(1).expect_err("step 7 of 5 must be rejected");
        assert_eq!(
            err,
            ScenarioError::AnomalousStepOutOfRange { step: 7, steps: 5 }
        );
    }

    #[test]
    fn bad_model_parameters_surface_as_scenario_errors() {
        let mut sc = find_scenario("voting").expect("registered");
        sc.nodes = 100;
        sc.model = ModelSpec::Voting {
            p_nbr: 0.9,
            p_ext: 0.9,
            chance_fraction: None,
        };
        assert!(matches!(sc.run(1), Err(ScenarioError::Model(_))));
    }

    #[test]
    fn unknown_scenario_lookup_is_none() {
        assert!(find_scenario("no-such-scenario").is_none());
        assert!(find_scenario("voting").is_some());
    }

    #[test]
    fn tiny_node_counts_error_instead_of_panicking() {
        // Below every generator's viable floor the run must surface a
        // structured error (the CLI exposes --nodes directly).
        for mut sc in registry() {
            let min = sc.graph.min_nodes();
            for nodes in 0..min {
                sc.nodes = nodes;
                sc.steps = 2;
                assert!(
                    matches!(sc.run(1), Err(ScenarioError::TooFewNodes { .. })),
                    "{} at {nodes} nodes must error structurally",
                    sc.name
                );
            }
            // And the floor itself runs.
            sc.nodes = min;
            sc.steps = 2;
            sc.run(1)
                .unwrap_or_else(|e| panic!("{} at its floor {min}: {e}", sc.name));
        }
    }
}
