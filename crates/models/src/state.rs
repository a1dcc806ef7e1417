//! Network states: one polar opinion per user.

use snd_graph::NodeId;

/// A user's opinion: one of two competing polar opinions, or neutral.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Opinion {
    /// The "−" opinion.
    Negative,
    /// No (or unknown) opinion; the user is inactive.
    #[default]
    Neutral,
    /// The "+" opinion.
    Positive,
}

impl Opinion {
    /// Numeric encoding used by the paper: +1 / 0 / −1.
    #[inline]
    pub fn value(self) -> i8 {
        match self {
            Opinion::Negative => -1,
            Opinion::Neutral => 0,
            Opinion::Positive => 1,
        }
    }

    /// Decodes the paper's numeric encoding (sign of the value).
    pub fn from_value(v: i8) -> Self {
        match v.signum() {
            -1 => Opinion::Negative,
            0 => Opinion::Neutral,
            _ => Opinion::Positive,
        }
    }

    /// True for non-neutral opinions.
    #[inline]
    pub fn is_active(self) -> bool {
        self != Opinion::Neutral
    }

    /// The competing polar opinion (neutral maps to itself).
    #[inline]
    pub fn opposite(self) -> Self {
        match self {
            Opinion::Negative => Opinion::Positive,
            Opinion::Neutral => Opinion::Neutral,
            Opinion::Positive => Opinion::Negative,
        }
    }
}

/// The opinions of all users at one time instant (a network *state*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkState {
    opinions: Vec<Opinion>,
}

impl NetworkState {
    /// All-neutral state over `n` users.
    pub fn new_neutral(n: usize) -> Self {
        NetworkState {
            opinions: vec![Opinion::Neutral; n],
        }
    }

    /// State from the paper's ±1/0 encoding.
    pub fn from_values(values: &[i8]) -> Self {
        NetworkState {
            opinions: values.iter().map(|&v| Opinion::from_value(v)).collect(),
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.opinions.len()
    }

    /// True if the state covers no users.
    pub fn is_empty(&self) -> bool {
        self.opinions.is_empty()
    }

    /// Opinion of user `u`.
    #[inline]
    pub fn opinion(&self, u: NodeId) -> Opinion {
        self.opinions[u as usize]
    }

    /// Sets the opinion of user `u`.
    #[inline]
    pub fn set(&mut self, u: NodeId, op: Opinion) {
        self.opinions[u as usize] = op;
    }

    /// All opinions.
    pub fn opinions(&self) -> &[Opinion] {
        &self.opinions
    }

    /// The paper's ±1/0 encoding.
    pub fn values(&self) -> Vec<i8> {
        self.opinions.iter().map(|o| o.value()).collect()
    }

    /// Users holding the given (active) opinion.
    pub fn users_with(&self, op: Opinion) -> Vec<NodeId> {
        (0..self.opinions.len() as NodeId)
            .filter(|&u| self.opinions[u as usize] == op)
            .collect()
    }

    /// Number of active users.
    pub fn active_count(&self) -> usize {
        self.opinions.iter().filter(|o| o.is_active()).count()
    }

    /// Number of users holding `op`.
    pub fn count(&self, op: Opinion) -> usize {
        self.opinions.iter().filter(|&&o| o == op).count()
    }

    /// Number of users whose opinion differs between `self` and `other` —
    /// the paper's `n∆`.
    pub fn diff_count(&self, other: &NetworkState) -> usize {
        assert_eq!(self.len(), other.len(), "state length mismatch");
        self.opinions
            .iter()
            .zip(&other.opinions)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// The single-opinion projection `G^op` of §3: users holding the
    /// *other* active opinion are treated as neutral; returns unit masses
    /// (1.0 for users with `op`, 0.0 otherwise).
    pub fn projection(&self, op: Opinion) -> Vec<f64> {
        assert!(op.is_active(), "projection requires a polar opinion");
        self.opinions
            .iter()
            .map(|&o| if o == op { 1.0 } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opinion_encoding_roundtrip() {
        for op in [Opinion::Negative, Opinion::Neutral, Opinion::Positive] {
            assert_eq!(Opinion::from_value(op.value()), op);
        }
        assert_eq!(Opinion::from_value(7), Opinion::Positive);
        assert_eq!(Opinion::from_value(-3), Opinion::Negative);
    }

    #[test]
    fn opposite_flips_polarity() {
        assert_eq!(Opinion::Positive.opposite(), Opinion::Negative);
        assert_eq!(Opinion::Negative.opposite(), Opinion::Positive);
        assert_eq!(Opinion::Neutral.opposite(), Opinion::Neutral);
    }

    #[test]
    fn counts_and_projections() {
        let s = NetworkState::from_values(&[1, -1, 0, 1]);
        assert_eq!(s.active_count(), 3);
        assert_eq!(s.count(Opinion::Positive), 2);
        assert_eq!(s.count(Opinion::Negative), 1);
        assert_eq!(s.users_with(Opinion::Positive), vec![0, 3]);
        assert_eq!(s.projection(Opinion::Positive), vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(s.projection(Opinion::Negative), vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn diff_count_is_hamming_on_opinions() {
        let a = NetworkState::from_values(&[1, -1, 0, 0]);
        let b = NetworkState::from_values(&[1, 1, 0, -1]);
        assert_eq!(a.diff_count(&b), 2);
    }

    #[test]
    fn values_roundtrip() {
        let s = NetworkState::from_values(&[1, 0, -1]);
        let back = NetworkState::from_values(&s.values());
        assert_eq!(s, back);
    }
}
