//! Property-based verification of the paper's EMD theorems (§2, §4).

mod emd_baselines;

use emd_baselines::{emd, emd_alpha, emd_hat, emd_star_reduced, emd_total_cost};
use proptest::prelude::*;
use snd::emd::{emd_star, DenseCost, Histogram, Solver, StarGeometry};

/// Random metric: pairwise distances of points on a line.
fn line_points_metric(points: &[u32]) -> DenseCost {
    let n = points.len();
    let mut d = DenseCost::filled(n, n, 0);
    for i in 0..n {
        for j in 0..n {
            *d.at_mut(i, j) = points[i].abs_diff(points[j]);
        }
    }
    d
}

fn arb_masses(n: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..25, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2: EMDα(P, Q, D) == ÊMD(P, Q, D) whenever both are metric
    /// (metric ground distance, γ = α·max(D) with α ≥ 0.5).
    #[test]
    fn theorem_2_alpha_equals_hat(
        points in proptest::collection::vec(0u32..60, 2..8),
        masses_p in arb_masses(8),
        masses_q in arb_masses(8),
    ) {
        let n = points.len();
        let d = line_points_metric(&points);
        let p = Histogram::from_masses(masses_p[..n].to_vec(), 1);
        let q = Histogram::from_masses(masses_q[..n].to_vec(), 1);
        let gamma = d.max_entry(); // α = 1 ≥ 0.5
        let alpha = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
        let hat = emd_hat(&p, &q, &d, gamma, Solver::Simplex);
        prop_assert!((alpha - hat).abs() < 1e-9, "EMDα {alpha} vs ÊMD {hat}");
    }

    /// Corollary 1: with equal total masses, adding a bank bin (at any
    /// admissible ω) does not change EMD — here via EMDα reducing to the
    /// plain transport cost.
    #[test]
    fn corollary_1_banks_are_free_on_balanced_histograms(
        points in proptest::collection::vec(0u32..60, 2..8),
        masses in arb_masses(8),
        perm_seed in 0usize..100,
    ) {
        let n = points.len();
        let d = line_points_metric(&points);
        let p_masses = masses[..n].to_vec();
        // Q is a rotation of P: same total mass, different placement.
        let shift = perm_seed % n;
        let q_masses: Vec<u64> = (0..n).map(|i| p_masses[(i + shift) % n]).collect();
        let p = Histogram::from_masses(p_masses, 1);
        let q = Histogram::from_masses(q_masses, 1);
        let gamma = d.max_entry();
        let with_bank = emd_alpha(&p, &q, &d, gamma, Solver::Simplex);
        let plain = emd_total_cost(&p, &q, &d, Solver::Simplex);
        prop_assert!((with_bank - plain).abs() < 1e-9);
    }

    /// Lemma 2: subtracting min(P_i, Q_i) bin-wise leaves EMD* unchanged
    /// (semimetric ground distance).
    #[test]
    fn lemma_2_common_mass_reduction(
        points in proptest::collection::vec(0u32..60, 2..8),
        masses_p in arb_masses(8),
        masses_q in arb_masses(8),
    ) {
        let n = points.len();
        let d = line_points_metric(&points);
        let p = Histogram::from_masses(masses_p[..n].to_vec(), 1);
        let q = Histogram::from_masses(masses_q[..n].to_vec(), 1);
        let geom = StarGeometry::single_cluster(n, vec![d.max_entry().max(1)]);
        let full = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let (rp, rq) = Histogram::reduce_common(&p, &q);
        let reduced = emd_star(&rp, &rq, &d, &geom, Solver::Simplex);
        prop_assert!((full - reduced).abs() < 1e-9, "full {full} vs reduced {reduced}");
    }

    /// Classic EMD is a metric on equal-mass histograms (Theorem 1):
    /// triangle inequality on random equal-mass triples.
    #[test]
    fn theorem_1_triangle_inequality(
        points in proptest::collection::vec(0u32..60, 2..7),
        masses_a in arb_masses(7),
        masses_b in arb_masses(7),
        masses_c in arb_masses(7),
    ) {
        let n = points.len();
        let d = line_points_metric(&points);
        // Equalize totals by padding the first bin.
        let total = |m: &[u64]| m.iter().sum::<u64>();
        let max_total = total(&masses_a[..n]).max(total(&masses_b[..n])).max(total(&masses_c[..n])).max(1);
        let pad = |m: &[u64]| {
            let mut v = m[..n].to_vec();
            v[0] += max_total - total(&m[..n]);
            Histogram::from_masses(v, 1)
        };
        let (a, b, c) = (pad(&masses_a), pad(&masses_b), pad(&masses_c));
        let dab = emd(&a, &b, &d, Solver::Simplex);
        let dbc = emd(&b, &c, &d, Solver::Simplex);
        let dac = emd(&a, &c, &d, Solver::Simplex);
        prop_assert!(dac <= dab + dbc + 1e-9, "triangle: {dac} > {dab} + {dbc}");
    }

    /// EMD* with valid γ is symmetric and zero exactly on identical
    /// histograms.
    #[test]
    fn emd_star_identity_and_symmetry(
        points in proptest::collection::vec(0u32..60, 2..8),
        masses_p in arb_masses(8),
        masses_q in arb_masses(8),
    ) {
        let n = points.len();
        let d = line_points_metric(&points);
        let p = Histogram::from_masses(masses_p[..n].to_vec(), 1);
        let q = Histogram::from_masses(masses_q[..n].to_vec(), 1);
        let geom = StarGeometry::single_cluster(n, vec![d.max_entry().max(1)]);
        prop_assert_eq!(emd_star(&p, &p, &d, &geom, Solver::Simplex), 0.0);
        let pq = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let qp = emd_star(&q, &p, &d, &geom, Solver::Simplex);
        prop_assert!((pq - qp).abs() < 1e-9, "symmetry {pq} vs {qp}");
        if p != q {
            prop_assert!(pq > 0.0, "distinct histograms at distance 0");
        }
    }

    /// The net-mass-reduced EMD* equals the full extended problem exactly
    /// on triangle-satisfying extended grounds (per-bin and
    /// single-cluster geometries over a metric ground) — the churned-mass
    /// instance the delta series regime prices.
    #[test]
    fn emd_star_reduced_equals_full_on_triangle_grounds(
        points in proptest::collection::vec(0u32..60, 2..8),
        masses_p in arb_masses(8),
        masses_q in arb_masses(8),
        gamma in 1u32..10,
        per_bin_sel in 0u8..2,
    ) {
        let per_bin = per_bin_sel == 1;
        let n = points.len();
        let d = line_points_metric(&points);
        let p = Histogram::from_masses(masses_p[..n].to_vec(), 1);
        let q = Histogram::from_masses(masses_q[..n].to_vec(), 1);
        let geom = if per_bin {
            StarGeometry {
                labels: (0..n as u32).collect(),
                cluster_count: n,
                gammas: vec![vec![gamma]; n],
                inter_cluster: d.clone(),
            }
        } else {
            StarGeometry::single_cluster(n, vec![d.max_entry().max(gamma)])
        };
        let full = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let reduced = emd_star_reduced(&p, &q, &d, &geom, Solver::Simplex);
        prop_assert_eq!(full, reduced, "exact equality (per_bin = {})", per_bin);
    }
}
