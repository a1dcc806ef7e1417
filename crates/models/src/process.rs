//! The unified opinion-dynamics engine: one trait, many models.
//!
//! [`OpinionDynamics`] abstracts a forward simulator of polar opinion
//! dynamics as a *transition kernel*: given the graph and the current
//! [`NetworkState`], advance one step using a caller-provided RNG. Every
//! model the evaluation exercises — the paper's probabilistic voting, the
//! ICC/LTC cascades, structure-oblivious random activation, and the
//! polar-opinion models from the wider literature (majority rule, stubborn
//! voters, thresholded DeGroot/Friedkin–Johnsen, bounded confidence) — is a
//! small struct implementing this trait, so scenario generators, the CLI,
//! and benches drive *any* model through the same loop.
//!
//! Two contracts every implementation upholds:
//!
//! * **Determinism per seed** — a step is a pure function of `(graph,
//!   state, rng stream)`; running a model twice from the same seed yields
//!   bit-identical series (`tests/dynamics.rs`).
//! * **Bit-compatibility of ports** — the four models ported from the
//!   pre-trait free functions ([`Voting`], [`IndependentCascade`],
//!   [`LinearThreshold`], [`RandomActivation`]) consume the RNG stream
//!   exactly as the free functions do, so a fixed seed reproduces the
//!   pre-refactor series bit-for-bit (regression-tested).

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use snd_graph::{CsrGraph, NodeId};

use crate::dynamics::{
    icc_step, lt_step, random_activation_step, voting_step, voting_step_sampled, VotingConfig,
};
use crate::error::{probability, ModelError};
use crate::icc::IccParams;
use crate::ltc::LtcParams;
use crate::state::{NetworkState, Opinion};

/// A forward model of polar opinion dynamics: a named, introspectable
/// transition kernel over [`NetworkState`]s.
///
/// The trait is object-safe (`Box<dyn OpinionDynamics>`), which is what
/// lets the scenario registry compose graph generators, seedings, and
/// models at runtime. RNG access goes through `&mut dyn RngCore`; a
/// deterministic model simply ignores it.
pub trait OpinionDynamics: Send + Sync {
    /// Short machine-friendly model name (e.g. `"voting"`), stable across
    /// releases — scenario names and bench records key off it.
    fn name(&self) -> &'static str;

    /// Parameter listing for logs and `snd simulate --list` output.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Advances `state` by one transition in place.
    fn step(&self, g: &CsrGraph, state: &mut NetworkState, rng: &mut dyn RngCore);
}

/// Runs `model` for `steps` transitions from `initial`, returning the full
/// series `G_0 … G_steps` (`steps + 1` states).
pub fn simulate_series(
    g: &CsrGraph,
    model: &dyn OpinionDynamics,
    initial: NetworkState,
    steps: usize,
    rng: &mut dyn RngCore,
) -> Vec<NetworkState> {
    let mut states = Vec::with_capacity(steps + 1);
    let mut current = initial;
    for _ in 0..steps {
        let mut next = current.clone();
        model.step(g, &mut next, rng);
        states.push(std::mem::replace(&mut current, next));
    }
    states.push(current);
    states
}

// ---------------------------------------------------------------------------
// Ports of the pre-trait free functions (bit-identical per seed).
// ---------------------------------------------------------------------------

/// The paper's probabilistic-voting activation process (§6.1) as a model:
/// [`voting_step`], or [`voting_step_sampled`] when `chances` bounds the
/// number of users offered an activation chance per step.
#[derive(Clone, Debug)]
pub struct Voting {
    /// Activation probabilities.
    pub config: VotingConfig,
    /// `Some(k)`: only a uniform sample of `k` neutral users gets a chance
    /// per step (long-series mode); `None`: every neutral user does.
    pub chances: Option<usize>,
}

impl Voting {
    /// Full-sweep voting (every neutral user gets a chance each step).
    pub fn new(p_nbr: f64, p_ext: f64) -> Result<Self, ModelError> {
        Ok(Voting {
            config: VotingConfig::new(p_nbr, p_ext)?,
            chances: None,
        })
    }

    /// Sampled voting: `chances` neutral users get a chance per step.
    pub fn sampled(config: VotingConfig, chances: usize) -> Self {
        Voting {
            config,
            chances: Some(chances),
        }
    }
}

impl OpinionDynamics for Voting {
    fn name(&self) -> &'static str {
        "voting"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        let mut p = vec![
            ("p_nbr", format!("{}", self.config.p_nbr)),
            ("p_ext", format!("{}", self.config.p_ext)),
        ];
        if let Some(k) = self.chances {
            p.push(("chances", format!("{k}")));
        }
        p
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, mut rng: &mut dyn RngCore) {
        *state = match self.chances {
            Some(k) => voting_step_sampled(g, state, &self.config, k, &mut rng),
            None => voting_step(g, state, &self.config, &mut rng),
        };
    }
}

/// One ICC round per step ([`icc_step`]).
#[derive(Clone, Debug, Default)]
pub struct IndependentCascade {
    /// Cascade parameters.
    pub params: IccParams,
}

impl OpinionDynamics for IndependentCascade {
    fn name(&self) -> &'static str {
        "icc"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("activation", format!("{:?}", self.params.activation)),
            ("epsilon", format!("{}", self.params.epsilon)),
        ]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, mut rng: &mut dyn RngCore) {
        *state = icc_step(g, state, &self.params, &mut rng);
    }
}

/// One LTC round per step ([`lt_step`]).
#[derive(Clone, Debug, Default)]
pub struct LinearThreshold {
    /// Threshold-model parameters.
    pub params: LtcParams,
}

impl OpinionDynamics for LinearThreshold {
    fn name(&self) -> &'static str {
        "ltc"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("weights", format!("{:?}", self.params.weights)),
            ("epsilon", format!("{}", self.params.epsilon)),
        ]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, mut rng: &mut dyn RngCore) {
        *state = lt_step(g, state, &self.params, &mut rng);
    }
}

/// Structure-oblivious anomaly process: `count` uniformly random neutral
/// users activate with uniformly random opinions per step
/// ([`random_activation_step`], §6.4's anomalous transitions).
#[derive(Clone, Debug)]
pub struct RandomActivation {
    /// Users activated per step.
    pub count: usize,
}

impl OpinionDynamics for RandomActivation {
    fn name(&self) -> &'static str {
        "random-activation"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("count", format!("{}", self.count))]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, mut rng: &mut dyn RngCore) {
        *state = random_activation_step(g, state, self.count, &mut rng);
    }
}

// ---------------------------------------------------------------------------
// New polar-opinion models from the related literature.
// ---------------------------------------------------------------------------

/// Galam-style majority rule: a user who re-evaluates adopts the strict
/// majority opinion among her active in-neighbors; ties and empty
/// neighborhoods keep the current opinion. Unlike the cascade models,
/// majority rule can *flip* active users — it models opinion change, not
/// just adoption — which is what drives consensus formation.
#[derive(Clone, Debug)]
pub struct MajorityRule {
    /// Probability a user re-evaluates her opinion each step.
    pub update_prob: f64,
}

impl MajorityRule {
    /// Validating constructor.
    pub fn new(update_prob: f64) -> Result<Self, ModelError> {
        Ok(MajorityRule {
            update_prob: probability("update_prob", update_prob)?,
        })
    }
}

impl OpinionDynamics for MajorityRule {
    fn name(&self) -> &'static str {
        "majority-rule"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![("update_prob", format!("{}", self.update_prob))]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, rng: &mut dyn RngCore) {
        let mut next = state.clone();
        for v in g.nodes() {
            if !rng.gen_bool(self.update_prob) {
                continue;
            }
            let mut pos = 0usize;
            let mut neg = 0usize;
            for &u in g.in_neighbors(v) {
                match state.opinion(u) {
                    Opinion::Positive => pos += 1,
                    Opinion::Negative => neg += 1,
                    Opinion::Neutral => {}
                }
            }
            if pos > neg {
                next.set(v, Opinion::Positive);
            } else if neg > pos {
                next.set(v, Opinion::Negative);
            }
        }
        *state = next;
    }
}

/// The voter model with curmudgeons: a non-stubborn user copies the opinion
/// (including neutrality) of a uniformly random in-neighbor; a fixed
/// stubborn subset never updates. Stubborn agents ("zealots") are the
/// classic mechanism that blocks consensus and sustains polarization.
#[derive(Clone, Debug)]
pub struct StubbornVoter {
    /// Probability a non-stubborn user copies a neighbor each step.
    pub copy_prob: f64,
    /// Fraction of users that never change opinion.
    pub stubborn_fraction: f64,
    /// Seed of the stubborn-set draw. Kept separate from the step RNG so
    /// the *same* users are stubborn at every step of a run, while two
    /// scenarios can disagree on who is stubborn.
    pub mask_seed: u64,
}

impl StubbornVoter {
    /// Validating constructor.
    pub fn new(copy_prob: f64, stubborn_fraction: f64, mask_seed: u64) -> Result<Self, ModelError> {
        Ok(StubbornVoter {
            copy_prob: probability("copy_prob", copy_prob)?,
            stubborn_fraction: probability("stubborn_fraction", stubborn_fraction)?,
            mask_seed,
        })
    }

    /// The fixed stubborn mask over `n` users.
    pub fn stubborn_mask(&self, n: usize) -> Vec<bool> {
        let mut rng = SmallRng::seed_from_u64(self.mask_seed);
        (0..n)
            .map(|_| rng.gen_bool(self.stubborn_fraction))
            .collect()
    }
}

impl OpinionDynamics for StubbornVoter {
    fn name(&self) -> &'static str {
        "stubborn-voter"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("copy_prob", format!("{}", self.copy_prob)),
            ("stubborn_fraction", format!("{}", self.stubborn_fraction)),
            ("mask_seed", format!("{}", self.mask_seed)),
        ]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, rng: &mut dyn RngCore) {
        let mask = self.stubborn_mask(g.node_count());
        let mut next = state.clone();
        for v in g.nodes() {
            if mask[v as usize] || !rng.gen_bool(self.copy_prob) {
                continue;
            }
            let nbrs = g.in_neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let pick: NodeId = nbrs[rng.gen_range(0..nbrs.len())];
            next.set(v, state.opinion(pick));
        }
        *state = next;
    }
}

/// Thresholded DeGroot/Friedkin–Johnsen averaging projected onto
/// `{−1, 0, +1}`: each user mixes her current opinion value with the mean
/// of her in-neighborhood (`susceptibility` weighting the neighborhood, the
/// FJ anchor keeping `1 − susceptibility` on herself) and the mixed value
/// is projected — at least `threshold` in magnitude to hold a polar
/// opinion, neutral otherwise. Deterministic: the RNG is unused.
#[derive(Clone, Debug)]
pub struct ThresholdedDeGroot {
    /// Weight on the neighborhood average (the FJ susceptibility `α`).
    pub susceptibility: f64,
    /// Minimum |mixed value| for a polar opinion; below it → neutral.
    pub threshold: f64,
}

impl ThresholdedDeGroot {
    /// Validating constructor.
    pub fn new(susceptibility: f64, threshold: f64) -> Result<Self, ModelError> {
        let threshold = probability("threshold", threshold)?;
        if threshold == 0.0 {
            return Err(ModelError::OutOfDomain {
                name: "threshold",
                value: "0".into(),
                constraint: "must be positive (a zero threshold never yields neutral users)",
            });
        }
        Ok(ThresholdedDeGroot {
            susceptibility: probability("susceptibility", susceptibility)?,
            threshold,
        })
    }
}

impl OpinionDynamics for ThresholdedDeGroot {
    fn name(&self) -> &'static str {
        "degroot-threshold"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("susceptibility", format!("{}", self.susceptibility)),
            ("threshold", format!("{}", self.threshold)),
        ]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, _rng: &mut dyn RngCore) {
        let mut next = state.clone();
        for v in g.nodes() {
            let nbrs = g.in_neighbors(v);
            if nbrs.is_empty() {
                continue;
            }
            let sum: f64 = nbrs
                .iter()
                .map(|&u| f64::from(state.opinion(u).value()))
                .sum();
            let avg = sum / nbrs.len() as f64;
            let own = f64::from(state.opinion(v).value());
            let mixed = (1.0 - self.susceptibility) * own + self.susceptibility * avg;
            let op = if mixed >= self.threshold {
                Opinion::Positive
            } else if mixed <= -self.threshold {
                Opinion::Negative
            } else {
                Opinion::Neutral
            };
            next.set(v, op);
        }
        *state = next;
    }
}

/// Hegselmann–Krause-style bounded-confidence adoption on the discrete
/// opinion scale: a user who re-evaluates averages herself with only the
/// in-neighbors whose opinion value is within `confidence` of her own
/// (confidence 1: polar users ignore the opposite camp but hear neutrals —
/// the echo-chamber regime; confidence 2: everyone is heard), then projects
/// the average with `threshold` as in [`ThresholdedDeGroot`].
#[derive(Clone, Debug)]
pub struct BoundedConfidence {
    /// Maximum |opinion-value gap| for a neighbor to be heard (0, 1, or 2).
    pub confidence: i8,
    /// Probability a user re-evaluates each step.
    pub update_prob: f64,
    /// Minimum |average| for a polar opinion; below it → neutral.
    pub threshold: f64,
}

impl BoundedConfidence {
    /// Validating constructor.
    pub fn new(confidence: i8, update_prob: f64, threshold: f64) -> Result<Self, ModelError> {
        if !(0..=2).contains(&confidence) {
            return Err(ModelError::OutOfDomain {
                name: "confidence",
                value: format!("{confidence}"),
                constraint: "opinion values span {-1, 0, 1}, so the bound must be 0, 1, or 2",
            });
        }
        Ok(BoundedConfidence {
            confidence,
            update_prob: probability("update_prob", update_prob)?,
            threshold: probability("threshold", threshold)?,
        })
    }
}

impl OpinionDynamics for BoundedConfidence {
    fn name(&self) -> &'static str {
        "bounded-confidence"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("confidence", format!("{}", self.confidence)),
            ("update_prob", format!("{}", self.update_prob)),
            ("threshold", format!("{}", self.threshold)),
        ]
    }

    fn step(&self, g: &CsrGraph, state: &mut NetworkState, rng: &mut dyn RngCore) {
        let mut next = state.clone();
        for v in g.nodes() {
            if !rng.gen_bool(self.update_prob) {
                continue;
            }
            let own = state.opinion(v).value();
            // HK averaging includes the user herself.
            let mut sum = f64::from(own);
            let mut heard = 1usize;
            for &u in g.in_neighbors(v) {
                let x = state.opinion(u).value();
                if (x - own).abs() <= self.confidence {
                    sum += f64::from(x);
                    heard += 1;
                }
            }
            let avg = sum / heard as f64;
            let op = if avg >= self.threshold {
                Opinion::Positive
            } else if avg <= -self.threshold {
                Opinion::Negative
            } else {
                Opinion::Neutral
            };
            next.set(v, op);
        }
        *state = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::seed_initial_adopters;
    use snd_graph::generators::{barabasi_albert, path_graph};

    fn fixture(seed: u64) -> (CsrGraph, NetworkState, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = barabasi_albert(300, 3, &mut rng);
        let state = seed_initial_adopters(300, 40, &mut rng).unwrap();
        (g, state, rng)
    }

    #[test]
    fn ported_voting_matches_free_function_bit_for_bit() {
        let (g, s0, mut rng_a) = fixture(7);
        let (_, _, mut rng_b) = fixture(7);
        let config = VotingConfig::new(0.2, 0.05).unwrap();
        let mut trait_state = s0.clone();
        let model = Voting {
            config,
            chances: None,
        };
        let mut free_state = s0;
        for _ in 0..5 {
            model.step(&g, &mut trait_state, &mut rng_a);
            free_state = voting_step(&g, &free_state, &config, &mut rng_b);
            assert_eq!(trait_state, free_state);
        }
    }

    #[test]
    fn ported_sampled_voting_matches_free_function_bit_for_bit() {
        let (g, s0, mut rng_a) = fixture(8);
        let (_, _, mut rng_b) = fixture(8);
        let config = VotingConfig::new(0.3, 0.1).unwrap();
        let model = Voting::sampled(config, 50);
        let mut trait_state = s0.clone();
        let mut free_state = s0;
        for _ in 0..5 {
            model.step(&g, &mut trait_state, &mut rng_a);
            free_state = voting_step_sampled(&g, &free_state, &config, 50, &mut rng_b);
            assert_eq!(trait_state, free_state);
        }
    }

    #[test]
    fn ported_cascades_match_free_functions_bit_for_bit() {
        let (g, s0, mut rng_a) = fixture(9);
        let (_, _, mut rng_b) = fixture(9);
        let icc = IndependentCascade::default();
        let mut a = s0.clone();
        let mut b = s0.clone();
        for _ in 0..3 {
            icc.step(&g, &mut a, &mut rng_a);
            b = icc_step(&g, &b, &icc.params, &mut rng_b);
            assert_eq!(a, b);
        }

        let (g, s0, mut rng_a) = fixture(10);
        let (_, _, mut rng_b) = fixture(10);
        let ltc = LinearThreshold::default();
        let mut a = s0.clone();
        let mut b = s0.clone();
        for _ in 0..3 {
            ltc.step(&g, &mut a, &mut rng_a);
            b = lt_step(&g, &b, &ltc.params, &mut rng_b);
            assert_eq!(a, b);
        }

        let (g, s0, mut rng_a) = fixture(11);
        let (_, _, mut rng_b) = fixture(11);
        let rnd = RandomActivation { count: 12 };
        let mut a = s0.clone();
        let mut b = s0;
        for _ in 0..3 {
            rnd.step(&g, &mut a, &mut rng_a);
            b = random_activation_step(&g, &b, 12, &mut rng_b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn majority_rule_converges_toward_local_majorities() {
        // A path where one camp dominates: with certain updates, the
        // minority end flips within a few steps.
        let g = path_graph(5);
        let mut state = NetworkState::from_values(&[1, 1, 1, 1, -1]);
        let model = MajorityRule::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..4 {
            model.step(&g, &mut state, &mut rng);
        }
        assert_eq!(state.count(Opinion::Positive), 5, "{:?}", state.values());
    }

    #[test]
    fn majority_rule_tie_keeps_current_opinion() {
        // Node 2 sees one + and one −: a tie never flips it.
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 2)]);
        let mut state = NetworkState::from_values(&[1, -1, 0]);
        let model = MajorityRule::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        model.step(&g, &mut state, &mut rng);
        assert_eq!(state.opinion(2), Opinion::Neutral);
    }

    #[test]
    fn stubborn_users_never_move() {
        let (g, s0, mut rng) = fixture(12);
        let model = StubbornVoter::new(1.0, 0.3, 99).unwrap();
        let mask = model.stubborn_mask(g.node_count());
        assert!(mask.iter().any(|&m| m) && mask.iter().any(|&m| !m));
        let mut state = s0.clone();
        for _ in 0..6 {
            model.step(&g, &mut state, &mut rng);
        }
        for v in g.nodes() {
            if mask[v as usize] {
                assert_eq!(state.opinion(v), s0.opinion(v), "stubborn user {v} moved");
            }
        }
    }

    #[test]
    fn degroot_is_deterministic_and_projects_onto_polar_scale() {
        let g = path_graph(6);
        let s0 = NetworkState::from_values(&[1, 1, 0, 0, -1, -1]);
        let model = ThresholdedDeGroot::new(0.6, 0.4).unwrap();
        let mut rng_a = SmallRng::seed_from_u64(1);
        let mut rng_b = SmallRng::seed_from_u64(2);
        let mut a = s0.clone();
        let mut b = s0;
        for _ in 0..4 {
            model.step(&g, &mut a, &mut rng_a);
            model.step(&g, &mut b, &mut rng_b);
        }
        // Deterministic: different RNG seeds cannot matter.
        assert_eq!(a, b);
    }

    #[test]
    fn bounded_confidence_echo_chambers_do_not_cross() {
        // Two cliques of opposite camps joined by one tie. With confidence
        // 1 a polar user never hears the opposite camp, so both camps
        // persist (no consensus) — the defining HK behavior.
        let edges = [
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (0, 2),
            (2, 0),
            (3, 4),
            (4, 3),
            (4, 5),
            (5, 4),
            (3, 5),
            (5, 3),
            (2, 3),
            (3, 2),
        ];
        let g = CsrGraph::from_edges(6, &edges);
        let mut state = NetworkState::from_values(&[1, 1, 1, -1, -1, -1]);
        let model = BoundedConfidence::new(1, 1.0, 0.4).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..8 {
            model.step(&g, &mut state, &mut rng);
        }
        assert!(state.count(Opinion::Positive) >= 2);
        assert!(state.count(Opinion::Negative) >= 2);
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        assert!(Voting::new(0.9, 0.3).is_err());
        assert!(MajorityRule::new(1.5).is_err());
        assert!(StubbornVoter::new(0.5, -0.1, 0).is_err());
        assert!(ThresholdedDeGroot::new(2.0, 0.5).is_err());
        assert!(ThresholdedDeGroot::new(0.5, 0.0).is_err());
        assert!(BoundedConfidence::new(3, 0.5, 0.5).is_err());
    }

    #[test]
    fn simulate_series_has_expected_shape_and_introspection_works() {
        let (g, s0, mut rng) = fixture(13);
        let model: Box<dyn OpinionDynamics> = Box::new(Voting::new(0.2, 0.05).unwrap());
        let series = simulate_series(&g, model.as_ref(), s0, 6, &mut rng);
        assert_eq!(series.len(), 7);
        assert_eq!(model.name(), "voting");
        assert!(model
            .params()
            .iter()
            .any(|(k, v)| *k == "p_nbr" && v == "0.2"));
    }
}
