//! The EMD baselines the theorem tests compare EMD\* against: classic EMD
//! (Rubner et al.), ÊMD (Pele–Werman), EMDα (Ljosa et al.), EMD\* over net
//! mass differences only, and a metric-axiom checker. The SND engine prices
//! EMD\* terms through `snd::emd::emd_star`'s sparse counterpart and calls
//! none of these, so they live with the tests that use them.
//!
//! Every distance takes a [`Solver`]; the tests pin `Solver::Simplex` so
//! cross-solver disagreements surface as test failures rather than silent
//! selection changes.

pub use alpha::emd_alpha;
pub use classic::{emd, emd_total_cost};
pub use hat::emd_hat;
pub use reduced::emd_star_reduced;

use snd::emd::{DenseCost, Solver};

/// Ground distance `|i − j|` on `n` bins of a line.
fn line_metric(n: usize) -> DenseCost {
    let mut d = DenseCost::filled(n, n, 0);
    for i in 0..n {
        for j in 0..n {
            *d.at_mut(i, j) = (i as i64 - j as i64).unsigned_abs() as u32;
        }
    }
    d
}

/// Classic Earth Mover's Distance (Rubner et al., Eq. 1 of the paper).
pub mod classic {
    use snd::emd::{DenseCost, Histogram, Solver};
    use snd::transport::solve_unbalanced;

    /// Classic EMD: the mean per-unit cost of the optimal plan that moves
    /// `min(ΣP, ΣQ)` mass from `P`'s bins to `Q`'s bins over ground distance
    /// `D`. Total-mass mismatch is ignored (the motivation for the extended
    /// variants). Returns 0 when either histogram is empty of mass.
    pub fn emd(p: &Histogram, q: &Histogram, ground: &DenseCost, solver: Solver) -> f64 {
        assert_eq!(p.len(), ground.rows(), "P bins vs ground rows");
        assert_eq!(q.len(), ground.cols(), "Q bins vs ground cols");
        assert_eq!(p.scale(), q.scale(), "histogram scale mismatch");
        let plan = solve_unbalanced(p.masses(), q.masses(), ground, solver);
        plan.mean_cost()
    }

    /// Raw optimal transportation cost (`Σ f·D`, not normalized) in real mass
    /// units, for callers that need the unnormalized objective.
    pub fn emd_total_cost(p: &Histogram, q: &Histogram, ground: &DenseCost, solver: Solver) -> f64 {
        assert_eq!(p.scale(), q.scale(), "histogram scale mismatch");
        let plan = solve_unbalanced(p.masses(), q.masses(), ground, solver);
        plan.total_cost as f64 / p.scale() as f64
    }

    #[cfg(test)]
    mod tests {
        use super::super::line_metric;
        use super::*;
        use snd::emd::DEFAULT_SCALE;

        #[test]
        fn identical_histograms_have_zero_distance() {
            let d = line_metric(4);
            let p = Histogram::from_f64(&[1.0, 2.0, 0.0, 1.0], DEFAULT_SCALE);
            assert_eq!(emd(&p, &p, &d, Solver::Simplex), 0.0);
        }

        #[test]
        fn unit_shift_costs_one() {
            let d = line_metric(3);
            let p = Histogram::from_f64(&[1.0, 0.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 1.0, 0.0], DEFAULT_SCALE);
            assert!((emd(&p, &q, &d, Solver::Simplex) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn mass_mismatch_is_ignored() {
            // Heavy P, light Q at the same bin: classic EMD sees no cost.
            let d = line_metric(2);
            let p = Histogram::from_f64(&[10.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[1.0, 0.0], DEFAULT_SCALE);
            assert_eq!(emd(&p, &q, &d, Solver::Simplex), 0.0);
        }

        #[test]
        fn normalization_is_mean_cost() {
            let d = line_metric(3);
            // Two units: one moves distance 2, one distance 0 → mean 1.
            let p = Histogram::from_f64(&[1.0, 0.0, 1.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 0.0, 2.0], DEFAULT_SCALE);
            assert!((emd(&p, &q, &d, Solver::Simplex) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn total_cost_in_real_units() {
            let d = line_metric(3);
            let p = Histogram::from_f64(&[2.0, 0.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 2.0, 0.0], DEFAULT_SCALE);
            assert!((emd_total_cost(&p, &q, &d, Solver::Simplex) - 2.0).abs() < 1e-9);
        }
    }
}

/// ÊMD — EMD with an additive total-mass-mismatch penalty (Pele–Werman).
pub mod hat {
    use snd::emd::{DenseCost, Histogram, Solver};

    use super::classic;

    /// ÊMD(P, Q, D) = EMD·min(ΣP, ΣQ) + γ·|ΣP − ΣQ|.
    ///
    /// The paper parameterizes the penalty as `γ = α·max(D)` with `α ≥ 0.5`
    /// required for metricity; we take the (integral) `γ` directly so the
    /// Theorem 2 equality with [`super::emd_alpha`] is exact in integer
    /// arithmetic. The penalty term depends only on the mismatch magnitude —
    /// the limitation EMD\* removes.
    pub fn emd_hat(
        p: &Histogram,
        q: &Histogram,
        ground: &DenseCost,
        gamma: u32,
        solver: Solver,
    ) -> f64 {
        assert_eq!(p.scale(), q.scale(), "histogram scale mismatch");
        let moved_cost = classic::emd_total_cost(p, q, ground, solver);
        let mismatch = p.total().abs_diff(q.total()) as f64 / p.scale() as f64;
        moved_cost + gamma as f64 * mismatch
    }

    #[cfg(test)]
    mod tests {
        use super::super::line_metric;
        use super::*;
        use snd::emd::DEFAULT_SCALE;

        #[test]
        fn penalizes_mass_mismatch() {
            let d = line_metric(2);
            let p = Histogram::from_f64(&[10.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[1.0, 0.0], DEFAULT_SCALE);
            // No transport cost, mismatch 9, γ = 1.
            assert!((emd_hat(&p, &q, &d, 1, Solver::Simplex) - 9.0).abs() < 1e-9);
        }

        #[test]
        fn equal_masses_have_no_penalty() {
            let d = line_metric(3);
            let p = Histogram::from_f64(&[1.0, 0.0, 1.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 2.0, 0.0], DEFAULT_SCALE);
            let plain = classic::emd_total_cost(&p, &q, &d, Solver::Simplex);
            let hat = emd_hat(&p, &q, &d, 7, Solver::Simplex);
            assert!((plain - hat).abs() < 1e-9);
        }

        #[test]
        fn symmetric_in_arguments() {
            let d = line_metric(3);
            let p = Histogram::from_f64(&[3.0, 0.0, 1.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 1.0, 0.0], DEFAULT_SCALE);
            let ab = emd_hat(&p, &q, &d, 2, Solver::Simplex);
            let ba = emd_hat(&q, &p, &d, 2, Solver::Simplex);
            assert!((ab - ba).abs() < 1e-9);
        }
    }
}

/// EMDα — EMD with one global bank bin per histogram (Ljosa et al.).
pub mod alpha {
    use snd::emd::{DenseCost, Histogram, Solver};
    use snd::transport::solve_balanced;

    /// EMDα: each histogram is extended with a single bank bin (`P`'s bank
    /// holds `ΣQ`, `Q`'s bank holds `ΣP`, equalizing totals), the ground
    /// distance is extended with a uniform bank distance `γ = α·max(D)`,
    /// and the extended problem is solved exactly. Per the paper's
    /// definition the result is un-normalized (`EMD(P̃, Q̃, D̃)·(ΣP + ΣQ)` =
    /// the raw optimal cost).
    pub fn emd_alpha(
        p: &Histogram,
        q: &Histogram,
        ground: &DenseCost,
        gamma: u32,
        solver: Solver,
    ) -> f64 {
        let n = p.len();
        assert_eq!(q.len(), n, "histogram length mismatch");
        assert_eq!(p.scale(), q.scale(), "histogram scale mismatch");
        assert_eq!(ground.rows(), n, "ground distance shape");
        assert_eq!(ground.cols(), n, "ground distance shape");

        let (total_p, total_q) = (p.total(), q.total());
        if total_p == 0 && total_q == 0 {
            return 0.0;
        }

        // Extended histograms: bank of P holds ΣQ, bank of Q holds ΣP.
        let mut supplies = p.masses().to_vec();
        supplies.push(total_q);
        let mut demands = q.masses().to_vec();
        demands.push(total_p);

        // Extended ground distance: uniform γ to/from the bank, 0
        // bank-to-bank.
        let mut d = ground.with_extra_col(gamma).with_extra_row(gamma);
        *d.at_mut(n, n) = 0;

        let plan = solve_balanced(&supplies, &demands, &d, solver);
        plan.total_cost as f64 / p.scale() as f64
    }

    #[cfg(test)]
    mod tests {
        use super::super::line_metric;
        use super::*;
        use snd::emd::DEFAULT_SCALE;

        #[test]
        fn mismatch_routes_through_bank() {
            let d = line_metric(2);
            let p = Histogram::from_f64(&[3.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[1.0, 0.0], DEFAULT_SCALE);
            // 1 unit matched at cost 0; 2 surplus units go to Q's bank at γ=5.
            assert!((emd_alpha(&p, &q, &d, 5, Solver::Simplex) - 10.0).abs() < 1e-9);
        }

        #[test]
        fn zero_histograms() {
            let d = line_metric(2);
            let z = Histogram::zeros(2, DEFAULT_SCALE);
            assert_eq!(emd_alpha(&z, &z, &d, 3, Solver::Simplex), 0.0);
        }

        #[test]
        fn symmetric_in_arguments() {
            let d = line_metric(4);
            let p = Histogram::from_f64(&[2.0, 0.0, 1.0, 0.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 1.0, 0.0, 0.0], DEFAULT_SCALE);
            let gamma = d.max_entry(); // α = 1
            let ab = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
            let ba = emd_alpha(&q, &p, &d, gamma, Solver::Simplex);
            assert!((ab - ba).abs() < 1e-9);
        }

        #[test]
        fn corollary_1_bank_capacity_excess_is_free() {
            // With equal total masses, adding equal bank capacity k to both
            // sides does not change the optimum (Corollary 1): the
            // bank-to-bank distance is 0.
            let d = line_metric(3);
            let p = Histogram::from_f64(&[1.0, 0.0, 1.0], DEFAULT_SCALE);
            let q = Histogram::from_f64(&[0.0, 2.0, 0.0], DEFAULT_SCALE);
            let gamma = d.max_entry();
            let with_banks = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
            let plain = super::super::emd_total_cost(&p, &q, &d, Solver::Simplex);
            assert!((with_banks - plain).abs() < 1e-9);
        }
    }
}

/// EMD\* over the **net** mass differences only: the reduced-instance
/// evaluation for nearly-identical histograms.
pub mod reduced {
    use snd::emd::{bank_capacities, extended_ground, DenseCost, Histogram, Solver, StarGeometry};
    use snd::transport::{solve_balanced, Mass};

    /// EMD\* over the **net** mass differences only: the reduced-instance
    /// evaluation for nearly-identical histograms (consecutive snapshots of
    /// an evolving network — the delta-series regime).
    ///
    /// The full extended problem of `emd_star` is `(n + banks)²` even when
    /// the two histograms agree almost everywhere. This variant shrinks the
    /// instance to the churned mass before solving:
    ///
    /// * **Matched bin mass ships to itself** — `min(pᵢ, qᵢ)` cancels at
    ///   every bin (the extended ground's diagonal is zero).
    /// * **Matched bank capacity ships to itself** — when both sides carry
    ///   capacity at the same bank, the overlap cancels at zero cost
    ///   (the bank-to-bank distance is zero on the exact diagonal).
    /// * **Zero rows and columns are dropped** — neutral users and empty
    ///   banks never enter the solver.
    ///
    /// What remains is one supply per bin/bank of net-positive `P` mass and
    /// one demand per bin/bank of net-positive `Q` mass — `O(churn + banks)`
    /// a side instead of `O(n)`.
    ///
    /// **Precondition:** the *extended* ground distance (bins and banks)
    /// must satisfy the directed triangle inequality. Under it, rerouting
    /// any optimal plan to ship matched mass in place never raises the cost
    /// (classic flow-rerouting argument through the matched node), so the
    /// reduced optimum **equals the full optimum exactly** — the integer
    /// costs are equal, hence the returned `f64` is bit-identical to
    /// `emd_star`; the property tests assert this.
    ///
    /// Which geometries qualify, given a triangle-satisfying `ground`:
    ///
    /// * **Per-bin** (every bin its own singleton cluster, `inter_cluster =
    ///   ground` — SND's default mode): `D̃(i, bank_u) = γ + D(i, u)`
    ///   inherits the triangle inequality directly. ✔
    /// * **Single cluster** (EMDα-style): bank distances are constant. ✔
    /// * **Coarse multi-bin clusters**: the min-pair inter-cluster distance
    ///   lets bank traffic "teleport" through a cluster's best exit, which
    ///   can break the triangle inequality `D̃(i, bank) ≤ D̃(i, j) + D̃(j,
    ///   bank)` for a bin `j` far from its cluster's exit — an optimal plan
    ///   may then genuinely route mass *through* a matched bin, and the
    ///   reduction overestimates. Use `emd_star` there.
    pub fn emd_star_reduced(
        p: &Histogram,
        q: &Histogram,
        ground: &DenseCost,
        geom: &StarGeometry,
        solver: Solver,
    ) -> f64 {
        let n = p.len();
        assert_eq!(q.len(), n, "histogram length mismatch");
        assert_eq!(p.scale(), q.scale(), "histogram scale mismatch");
        assert_eq!(geom.labels.len(), n, "geometry covers all bins");
        assert_eq!(ground.rows(), n, "ground distance shape");
        assert_eq!(ground.cols(), n, "ground distance shape");

        if p.total() == 0 && q.total() == 0 {
            return 0.0;
        }
        let caps = bank_capacities(p, q, geom);

        // Net extended masses: matched supply/demand at a bin or bank ships
        // to itself at zero cost and drops out.
        let mut supplies: Vec<Mass> = Vec::new();
        let mut supply_idx: Vec<usize> = Vec::new(); // extended index (< n: bin; >= n: bank)
        let mut demands: Vec<Mass> = Vec::new();
        let mut demand_idx: Vec<usize> = Vec::new();
        let mut push_net = |idx: usize, s: Mass, d: Mass| {
            let matched = s.min(d);
            let (s, d) = (s - matched, d - matched);
            if s > 0 {
                supplies.push(s);
                supply_idx.push(idx);
            }
            if d > 0 {
                demands.push(d);
                demand_idx.push(idx);
            }
        };
        for i in 0..n {
            push_net(i, p.masses()[i], q.masses()[i]);
        }
        for b in 0..caps.p_banks.len() {
            push_net(n + b, caps.p_banks[b], caps.q_banks[b]);
        }
        if supplies.is_empty() {
            debug_assert!(demands.is_empty(), "extended problem is balanced");
            return 0.0;
        }

        // Reduced extended ground: the surviving rows × columns of Eq. 4's
        // extended ground.
        let ext = extended_ground(ground, geom);
        let mut data = Vec::with_capacity(supplies.len() * demands.len());
        for &i in &supply_idx {
            for &j in &demand_idx {
                data.push(ext.at(i, j));
            }
        }
        let d = DenseCost::from_vec(supplies.len(), demands.len(), data);
        let plan = solve_balanced(&supplies, &demands, &d, solver);
        plan.total_cost as f64 / p.scale() as f64
    }
}

/// Metric-axiom checkers for distance measures over histogram sets.
///
/// Used by the tests to validate Theorem 1 (classic EMD is metric on
/// equal-mass histograms over a metric ground distance) and Theorem 3
/// (EMD\* is metric when every `γ` is at least half its cluster's
/// diameter).
pub mod metric {
    use snd::emd::Histogram;

    /// Result of probing the metric axioms on a finite histogram set.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct MetricReport {
        /// Violations of `d(x, x) = 0`.
        pub identity_failures: usize,
        /// Violations of `d(x, y) = d(y, x)` beyond tolerance.
        pub symmetry_failures: usize,
        /// Violations of `d(x, z) ≤ d(x, y) + d(y, z)` beyond tolerance.
        pub triangle_failures: usize,
    }

    impl MetricReport {
        /// True when no axiom was violated.
        pub fn is_metric(&self) -> bool {
            self.identity_failures == 0
                && self.symmetry_failures == 0
                && self.triangle_failures == 0
        }
    }

    /// Exhaustively checks the metric axioms for `dist` over `set`.
    ///
    /// `tol` absorbs fixed-point rounding; distances are exact rationals, so
    /// a tolerance of `1e-9` relative to typical magnitudes is ample.
    pub fn check_metric_axioms<F>(set: &[Histogram], dist: F, tol: f64) -> MetricReport
    where
        F: Fn(&Histogram, &Histogram) -> f64,
    {
        let k = set.len();
        let mut d = vec![vec![0.0; k]; k];
        for i in 0..k {
            for j in 0..k {
                d[i][j] = dist(&set[i], &set[j]);
            }
        }
        let mut report = MetricReport::default();
        for i in 0..k {
            if d[i][i].abs() > tol {
                report.identity_failures += 1;
            }
            for j in 0..k {
                if (d[i][j] - d[j][i]).abs() > tol {
                    report.symmetry_failures += 1;
                }
                for l in 0..k {
                    if d[i][l] > d[i][j] + d[j][l] + tol {
                        report.triangle_failures += 1;
                    }
                }
            }
        }
        report
    }

    #[cfg(test)]
    mod tests {
        use super::super::{emd, line_metric};
        use super::*;
        use snd::emd::{emd_star, Solver, StarGeometry, DEFAULT_SCALE};

        #[test]
        fn classic_emd_metric_on_equal_mass_set() {
            let d = line_metric(4);
            // All histograms share total mass 3.0 (Theorem 1 precondition).
            let set = vec![
                Histogram::from_f64(&[3.0, 0.0, 0.0, 0.0], DEFAULT_SCALE),
                Histogram::from_f64(&[0.0, 3.0, 0.0, 0.0], DEFAULT_SCALE),
                Histogram::from_f64(&[1.0, 1.0, 1.0, 0.0], DEFAULT_SCALE),
                Histogram::from_f64(&[0.0, 1.5, 0.0, 1.5], DEFAULT_SCALE),
            ];
            let report = check_metric_axioms(&set, |p, q| emd(p, q, &d, Solver::Simplex), 1e-9);
            assert!(report.is_metric(), "{report:?}");
        }

        #[test]
        fn emd_star_metric_with_valid_gammas() {
            let n = 4;
            let d = line_metric(n);
            // Single cluster, γ = maxD ≥ ½·diameter — Theorem 3 precondition.
            let geom = StarGeometry::single_cluster(n, vec![d.max_entry()]);
            let set = vec![
                Histogram::from_f64(&[1.0, 0.0, 0.0, 0.0], DEFAULT_SCALE),
                Histogram::from_f64(&[0.0, 2.0, 0.0, 0.0], DEFAULT_SCALE),
                Histogram::from_f64(&[1.0, 1.0, 1.0, 1.0], DEFAULT_SCALE),
                Histogram::from_f64(&[0.0, 0.0, 0.0, 0.5], DEFAULT_SCALE),
                Histogram::zeros(n, DEFAULT_SCALE),
            ];
            let report = check_metric_axioms(
                &set,
                |p, q| emd_star(p, q, &d, &geom, Solver::Simplex),
                1e-9,
            );
            assert!(report.is_metric(), "{report:?}");
        }

        #[test]
        fn report_detects_violations() {
            // A deliberately broken "distance".
            let set = vec![
                Histogram::from_masses(vec![1], 1),
                Histogram::from_masses(vec![2], 1),
            ];
            let report = check_metric_axioms(
                &set,
                |p, q| {
                    if p.mass(0) == q.mass(0) {
                        1.0 // identity violation
                    } else {
                        (p.mass(0) as f64) - (q.mass(0) as f64) // asymmetric
                    }
                },
                1e-9,
            );
            assert!(!report.is_metric());
            assert!(report.identity_failures > 0);
            assert!(report.symmetry_failures > 0);
        }
    }
}

/// The tests that span the baselines: Theorem 2 on random instances, and
/// EMD\* against EMDα, classic EMD and its net-mass reduction.
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd::emd::{emd_star, Histogram, StarGeometry, DEFAULT_SCALE};

    /// Random metric cost matrix: distances between random points on a
    /// line, which is always a metric.
    fn random_line_metric(n: usize, rng: &mut SmallRng) -> DenseCost {
        let pts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let mut d = DenseCost::filled(n, n, 0);
        for i in 0..n {
            for j in 0..n {
                *d.at_mut(i, j) = pts[i].abs_diff(pts[j]);
            }
        }
        d
    }

    #[test]
    fn theorem_2_emd_alpha_equals_emd_hat() {
        let mut rng = SmallRng::seed_from_u64(2017);
        for trial in 0..40 {
            let n = rng.gen_range(2..7);
            let d = random_line_metric(n, &mut rng);
            let p = Histogram::from_masses((0..n).map(|_| rng.gen_range(0..20)).collect(), 1);
            let q = Histogram::from_masses((0..n).map(|_| rng.gen_range(0..20)).collect(), 1);
            if p.total() == 0 && q.total() == 0 {
                continue;
            }
            // γ = α·max(D) with α ≥ 0.5; use α = 1 (integral, metric-safe).
            let gamma = d.max_entry();
            let a = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
            let h = emd_hat(&p, &q, &d, gamma, Solver::Simplex);
            assert!((a - h).abs() < 1e-9, "trial {trial}: EMDα {a} vs ÊMD {h}");
        }
    }

    #[test]
    fn equal_mass_histograms_reduce_every_variant_to_plain_transport() {
        let d = DenseCost::from_rows(&[&[0u32, 2][..], &[2, 0][..]]);
        let p = Histogram::from_masses(vec![4, 0], 1);
        let q = Histogram::from_masses(vec![0, 4], 1);
        let base = emd(&p, &q, &d, Solver::Simplex); // mean cost = 2
        assert!((base - 2.0).abs() < 1e-12);
        // With equal masses the mismatch penalty vanishes.
        let h = emd_hat(&p, &q, &d, 2, Solver::Simplex);
        assert!((h - 8.0).abs() < 1e-12); // EMD·min-mass = 2·4
        let a = emd_alpha(&p, &q, &d, 2, Solver::Simplex);
        assert!((a - 8.0).abs() < 1e-12);
    }

    #[test]
    fn single_cluster_star_equals_alpha() {
        use snd::emd::{emd_star, StarGeometry};
        // With one cluster and one bank, EMD* degenerates to EMDα.
        let d = line_metric(4);
        let gamma = d.max_entry();
        let geom = StarGeometry::single_cluster(4, vec![gamma]);
        let p = Histogram::from_f64(&[2.0, 0.0, 1.0, 0.0], DEFAULT_SCALE);
        let q = Histogram::from_f64(&[0.0, 1.0, 0.0, 0.0], DEFAULT_SCALE);
        let star = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let alpha = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
        assert!((star - alpha).abs() < 1e-9, "{star} vs {alpha}");
    }

    /// Geometry splitting `0..n` into `k` contiguous clusters with exact
    /// min-pair inter-cluster distances for the line metric.
    fn line_clusters(n: usize, k: usize, gamma: u32) -> StarGeometry {
        let size = n / k;
        let labels: Vec<u32> = (0..n).map(|i| ((i / size).min(k - 1)) as u32).collect();
        let mut inter = DenseCost::filled(k, k, 0);
        for c in 0..k {
            for c2 in 0..k {
                if c != c2 {
                    // Closest pair between contiguous segments.
                    let gap = if c < c2 {
                        c2 * size - (c * size + size - 1)
                    } else {
                        c * size - (c2 * size + size - 1)
                    };
                    *inter.at_mut(c, c2) = gap as u32;
                }
            }
        }
        StarGeometry {
            labels,
            cluster_count: k,
            gammas: vec![vec![gamma]; k],
            inter_cluster: inter,
        }
    }

    /// Per-bin geometry over a ground metric: every bin its own cluster,
    /// `inter_cluster = D` — the extended ground inherits the triangle
    /// inequality, the reduction's precondition.
    fn per_bin_geometry(d: &DenseCost, gamma: u32) -> StarGeometry {
        let n = d.rows();
        StarGeometry {
            labels: (0..n as u32).collect(),
            cluster_count: n,
            gammas: vec![vec![gamma]; n],
            inter_cluster: d.clone(),
        }
    }

    #[test]
    fn equal_masses_ignore_banks() {
        let d = line_metric(6);
        let geom = line_clusters(6, 2, 3);
        let p = Histogram::from_f64(&[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        let q = Histogram::from_f64(&[0.0, 0.0, 1.0, 1.0, 0.0, 0.0], DEFAULT_SCALE);
        let star = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let plain = emd_total_cost(&p, &q, &d, Solver::Simplex);
        assert!((star - plain).abs() < 1e-9);
    }

    #[test]
    fn local_banks_prefer_mass_near_existing_mass() {
        // Fig. 5 intuition on a line: P has mass in the left region
        // only. Q_near adds extra mass adjacent to that region; Q_far
        // adds it at the far end. EMD* must rank Q_near closer, while
        // EMDα sees no difference. Note the clustering must be finer
        // than the two "pronounced" regions: bank distances are
        // cluster-granular, so position sensitivity comes from the
        // inter-cluster distance matrix (see the geometry-granularity
        // note in DESIGN.md).
        let n = 8;
        let d = line_metric(n);
        let geom = line_clusters(n, 4, 1);
        let p = Histogram::from_f64(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        let q_near = Histogram::from_f64(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0], DEFAULT_SCALE);
        let q_far = Histogram::from_f64(&[1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], DEFAULT_SCALE);
        let near = emd_star(&p, &q_near, &d, &geom, Solver::Simplex);
        let far = emd_star(&p, &q_far, &d, &geom, Solver::Simplex);
        assert!(
            near < far,
            "EMD* should prefer propagated mass: near {near}, far {far}"
        );
        let gamma = d.max_entry();
        let a_near = emd_alpha(&p, &q_near, &d, gamma, Solver::Simplex);
        let a_far = emd_alpha(&p, &q_far, &d, gamma, Solver::Simplex);
        assert!(
            (a_near - a_far).abs() < 1e-9,
            "EMDα cannot tell them apart: {a_near} vs {a_far}"
        );
    }

    #[test]
    fn reduced_instance_matches_full_on_triangle_grounds() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(404);
        for trial in 0..60 {
            let n = 2 + trial % 7;
            let d = line_metric(n);
            // Per-bin and single-cluster geometries both keep the
            // extended ground triangle-satisfying.
            let geom = if trial % 2 == 0 {
                per_bin_geometry(&d, 1 + trial as u32 % 4)
            } else {
                StarGeometry::single_cluster(n, vec![d.max_entry().max(1)])
            };
            let p = Histogram::from_masses((0..n).map(|_| rng.gen_range(0..6)).collect(), 1);
            let q = Histogram::from_masses((0..n).map(|_| rng.gen_range(0..6)).collect(), 1);
            let full = emd_star(&p, &q, &d, &geom, Solver::Simplex);
            let reduced = emd_star_reduced(&p, &q, &d, &geom, Solver::Simplex);
            assert_eq!(full, reduced, "trial {trial}: exact equality");
        }
    }

    #[test]
    fn reduced_instance_shrinks_to_the_churn() {
        // Histograms agreeing on every bin but two: the reduced instance
        // must not touch the agreeing mass (equal distance, and the
        // degenerate all-matched case returns zero without solving).
        let n = 64;
        let d = line_metric(n);
        let geom = per_bin_geometry(&d, 2);
        let base: Vec<u64> = (0..n as u64).map(|i| 1 + i % 3).collect();
        let p = Histogram::from_masses(base.clone(), 1);
        let mut moved = base.clone();
        moved[3] += 2;
        moved[60] -= 1;
        let q = Histogram::from_masses(moved, 1);
        assert_eq!(
            emd_star(&p, &q, &d, &geom, Solver::Simplex),
            emd_star_reduced(&p, &q, &d, &geom, Solver::Simplex),
        );
        let same = Histogram::from_masses(base, 1);
        assert_eq!(emd_star_reduced(&p, &same, &d, &geom, Solver::Simplex), 0.0);
    }

    #[test]
    fn coarse_clusters_can_break_the_reduction_precondition() {
        // Documents why the precondition matters: with coarse min-pair
        // cluster distances an optimal plan may route mass *through* a
        // matched bin, so the reduced instance is only an upper bound.
        let n = 6;
        let d = line_metric(n);
        let geom = line_clusters(n, 3, d.max_entry());
        let p = Histogram::from_masses(vec![1, 0, 1, 0, 0, 0], 1);
        let q = Histogram::from_masses(vec![0, 0, 1, 0, 0, 0], 1);
        let full = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let reduced = emd_star_reduced(&p, &q, &d, &geom, Solver::Simplex);
        assert!(reduced >= full, "reduction is always an upper bound");
    }
}
