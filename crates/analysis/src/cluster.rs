//! Metric-space analysis of network states — the paper's §9 future-work
//! applications: clustering, classification and nearest-neighbor search of
//! network states under SND (or any [`StateDistance`]).
//!
//! SND's metricity (Theorem 3) is what makes these meaningful: k-medoids
//! over a metric stays well-defined, and 1-NN classification inherits the
//! usual metric-space guarantees.

use snd_baselines::StateDistance;
use snd_models::NetworkState;

use crate::nan_high_cmp;

/// Result of k-medoids clustering.
#[derive(Clone, Debug)]
pub struct MedoidClustering {
    /// Indices of the chosen medoid states.
    pub medoids: Vec<usize>,
    /// Cluster assignment per state (index into `medoids`).
    pub assignment: Vec<usize>,
    /// Total within-cluster distance.
    pub cost: f64,
}

/// k-medoids (PAM-style alternation) over a precomputed distance matrix,
/// such as [`StateDistance::pairwise`] returns.
///
/// Deterministic: initial medoids are chosen by maximin spreading from the
/// state with the smallest total distance to all others; swaps proceed
/// until no single-swap improvement exists (or `max_iters`).
///
/// A NaN distance (e.g. from an unreachable-node geometry upstream) never
/// panics the run — `nan_high_cmp` orders NaN above every real distance,
/// so it simply loses every `min`.
pub fn k_medoids(distances: &[Vec<f64>], k: usize, max_iters: usize) -> MedoidClustering {
    let n = distances.len();
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");

    // Maximin initialization from the 1-medoid optimum.
    let first = (0..n)
        .min_by(|&a, &b| {
            let sa: f64 = distances[a].iter().sum();
            let sb: f64 = distances[b].iter().sum();
            nan_high_cmp(sa, sb)
        })
        .unwrap_or(0);
    let mut medoids = vec![first];
    while medoids.len() < k {
        let next = (0..n).filter(|i| !medoids.contains(i)).max_by(|&a, &b| {
            let da = medoids
                .iter()
                .map(|&m| distances[a][m])
                .fold(f64::INFINITY, f64::min);
            let db = medoids
                .iter()
                .map(|&m| distances[b][m])
                .fold(f64::INFINITY, f64::min);
            nan_high_cmp(da, db)
        });
        match next {
            Some(i) => medoids.push(i),
            None => break,
        }
    }

    let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
        let mut assignment = vec![0usize; n];
        let mut cost = 0.0;
        for i in 0..n {
            let (best, d) = medoids
                .iter()
                .enumerate()
                .map(|(c, &m)| (c, distances[i][m]))
                .min_by(|a, b| nan_high_cmp(a.1, b.1))
                // lint:allow(no-unwrap) medoids is seeded with one element before assign() is ever called, so min_by sees a non-empty iterator
                .expect("k >= 1");
            assignment[i] = best;
            cost += d;
        }
        (assignment, cost)
    };

    let (mut assignment, mut cost) = assign(&medoids);
    for _ in 0..max_iters {
        let mut improved = false;
        for c in 0..medoids.len() {
            for candidate in 0..n {
                if medoids.contains(&candidate) {
                    continue;
                }
                let mut trial = medoids.clone();
                trial[c] = candidate;
                let (trial_assignment, trial_cost) = assign(&trial);
                if trial_cost + 1e-12 < cost {
                    medoids = trial;
                    assignment = trial_assignment;
                    cost = trial_cost;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    MedoidClustering {
        medoids,
        assignment,
        cost,
    }
}

/// Index of the state in `haystack` closest to `query` (linear scan).
/// NaN distances order above every real distance (`nan_high_cmp`)
/// instead of panicking.
pub fn nearest_neighbor<D: StateDistance>(
    dist: &D,
    haystack: &[NetworkState],
    query: &NetworkState,
) -> Option<(usize, f64)> {
    haystack
        .iter()
        .enumerate()
        .map(|(i, s)| (i, dist.distance(query, s)))
        .min_by(|a, b| nan_high_cmp(a.1, b.1))
}

/// 1-nearest-neighbor classification: returns the label of the closest
/// labelled exemplar. NaN distances order above every real distance
/// (`nan_high_cmp`) instead of panicking.
pub fn classify_1nn<D: StateDistance, L: Clone>(
    dist: &D,
    exemplars: &[(NetworkState, L)],
    query: &NetworkState,
) -> Option<L> {
    exemplars
        .iter()
        .map(|(s, l)| (dist.distance(query, s), l))
        .min_by(|a, b| nan_high_cmp(a.0, b.0))
        .map(|(_, l)| l.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_baselines::Hamming;

    fn state(v: &[i8]) -> NetworkState {
        NetworkState::from_values(v)
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let states = vec![state(&[1, 0, 0]), state(&[0, 1, 0]), state(&[1, 1, 0])];
        let m = Hamming.pairwise(&states);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert_eq!(m[0][1], 2.0);
        assert_eq!(m[0][2], 1.0);
    }

    #[test]
    fn k_medoids_recovers_planted_groups() {
        // Two tight groups of states far apart in Hamming distance.
        let group_a = [
            state(&[1, 1, 1, 1, 0, 0, 0, 0]),
            state(&[1, 1, 1, 0, 0, 0, 0, 0]),
            state(&[1, 1, 1, 1, 1, 0, 0, 0]),
        ];
        let group_b = [
            state(&[0, 0, 0, 0, -1, -1, -1, -1]),
            state(&[0, 0, 0, 0, -1, -1, -1, 0]),
            state(&[0, 0, 0, 0, 0, -1, -1, -1]),
        ];
        let states: Vec<NetworkState> = group_a.iter().chain(group_b.iter()).cloned().collect();
        let m = Hamming.pairwise(&states);
        let clustering = k_medoids(&m, 2, 20);
        // All of group A shares a cluster; all of group B the other.
        let a_cluster = clustering.assignment[0];
        assert!(clustering.assignment[..3].iter().all(|&c| c == a_cluster));
        let b_cluster = clustering.assignment[3];
        assert_ne!(a_cluster, b_cluster);
        assert!(clustering.assignment[3..].iter().all(|&c| c == b_cluster));
    }

    #[test]
    fn k_medoids_single_cluster_minimizes_total_distance() {
        let states = vec![state(&[1, 0, 0]), state(&[1, 1, 0]), state(&[1, 1, 1])];
        let m = Hamming.pairwise(&states);
        let clustering = k_medoids(&m, 1, 10);
        // The middle state is the 1-medoid optimum (total distance 2).
        assert_eq!(clustering.medoids, vec![1]);
        assert_eq!(clustering.cost, 2.0);
    }

    #[test]
    fn nearest_neighbor_and_classification() {
        let exemplars = vec![
            (state(&[1, 1, 0, 0]), "positive-camp"),
            (state(&[0, 0, -1, -1]), "negative-camp"),
        ];
        let query = state(&[1, 0, 0, 0]);
        let label = classify_1nn(&Hamming, &exemplars, &query).unwrap();
        assert_eq!(label, "positive-camp");

        let haystack: Vec<NetworkState> = exemplars.iter().map(|(s, _)| s.clone()).collect();
        let (idx, d) = nearest_neighbor(&Hamming, &haystack, &query).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(d, 1.0);
    }

    #[test]
    fn nan_distances_do_not_panic_clustering() {
        // Regression: a single NaN distance (e.g. from an unreachable-node
        // geometry) used to panic `partial_cmp(..).unwrap()` inside
        // k_medoids. It must now be ordered past every real distance —
        // including the *negative* NaN that 0.0/0.0 produces on x86-64,
        // which bare `total_cmp` would order below −∞ and let win.
        for nan in [f64::NAN, f64::NAN.copysign(-1.0)] {
            let mut m = vec![
                vec![0.0, 1.0, 9.0, 9.5],
                vec![1.0, 0.0, 8.0, 9.0],
                vec![9.0, 8.0, 0.0, 1.5],
                vec![9.5, 9.0, 1.5, 0.0],
            ];
            m[1][3] = nan;
            m[3][1] = nan;
            let clustering = k_medoids(&m, 2, 20);
            assert_eq!(clustering.assignment.len(), 4);
            // The two tight pairs still separate; the NaN entry never wins
            // a nearest-medoid comparison.
            assert_eq!(clustering.assignment[0], clustering.assignment[1]);
            assert_eq!(clustering.assignment[2], clustering.assignment[3]);
            assert_ne!(clustering.assignment[0], clustering.assignment[2]);
        }
    }

    #[test]
    fn nan_distances_do_not_panic_nearest_neighbor_or_classification() {
        /// Returns a negative NaN (as 0.0/0.0 yields on x86-64) against
        /// one poisoned state, Hamming otherwise.
        struct PoisonedHamming(NetworkState);
        impl StateDistance for PoisonedHamming {
            fn distance(&self, a: &NetworkState, b: &NetworkState) -> f64 {
                if *a == self.0 || *b == self.0 {
                    f64::NAN.copysign(-1.0)
                } else {
                    Hamming.distance(a, b)
                }
            }
            fn name(&self) -> &'static str {
                "poisoned-hamming"
            }
        }
        let poisoned = state(&[-1, -1, -1, -1]);
        let dist = PoisonedHamming(poisoned.clone());
        let haystack = vec![poisoned.clone(), state(&[1, 1, 0, 0]), state(&[1, 0, 0, 0])];
        let query = state(&[1, 1, 1, 0]);
        let (idx, d) = nearest_neighbor(&dist, &haystack, &query).unwrap();
        assert_eq!(idx, 1, "finite distances beat NaN");
        assert_eq!(d, 1.0);
        let exemplars = vec![(poisoned, "poisoned"), (state(&[1, 1, 0, 0]), "clean")];
        assert_eq!(classify_1nn(&dist, &exemplars, &query), Some("clean"));
        // All-NaN input still returns rather than panicking.
        let only_poisoned = vec![dist.0.clone()];
        let (idx, d) = nearest_neighbor(&dist, &only_poisoned, &query).unwrap();
        assert_eq!(idx, 0);
        assert!(d.is_nan());
    }

    #[test]
    fn k_equals_n_gives_zero_cost() {
        let states = vec![state(&[1, 0]), state(&[0, 1]), state(&[-1, 0])];
        let m = Hamming.pairwise(&states);
        let clustering = k_medoids(&m, 3, 10);
        assert_eq!(clustering.cost, 0.0);
        let mut sorted = clustering.medoids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
