//! EMD\* — EMD with *local* bank bins per bin cluster (paper §4, Eq. 4).
//!
//! EMDα's single global bank makes the mass-mismatch penalty depend only on
//! the mismatch magnitude. EMD\* instead attaches `Nb` banks to every
//! *cluster* of bins and splits the mismatch across clusters proportionally
//! to their mass, so newly appeared mass is penalized according to *where*
//! it appeared: mass that shows up next to existing mass is cheap, mass that
//! appears in a far-away empty region is expensive (Fig. 5 of the paper).
//!
//! The extended ground distance follows Eq. 4:
//!
//! * regular → regular: the original `D`;
//! * regular bin `i` → bank `b` of cluster `c`: `γ_c[b] + d(cluster(i), c)`;
//! * bank `b` of `c` → regular `j`: `γ_c[b] + d(c, cluster(j))`;
//! * bank `(c,b)` → bank `(c',b')`: `γ_c[b] + γ_{c'}[b'] + d(c, c')`, zero on
//!   the exact diagonal;
//!
//! where `d(c, c') = min_{p∈c, q∈c'} D(p, q)` is the inter-cluster distance
//! and `γ_c[b] ≥ ½·max_{p,q∈c} D(p,q)` is required for metricity
//! (Theorem 3).

use snd_transport::{solve_balanced, DenseCost, Mass, Solver};

use crate::histogram::Histogram;

/// Bank geometry for EMD\*: cluster assignment of bins, per-cluster bank
/// ground distances, and the inter-cluster distance matrix.
#[derive(Clone, Debug)]
pub struct StarGeometry {
    /// Cluster id per bin (contiguous ids `0..cluster_count`).
    pub labels: Vec<u32>,
    /// Number of clusters.
    pub cluster_count: usize,
    /// `gammas[c][b]`: ground distance to/from bank `b` of cluster `c`.
    pub gammas: Vec<Vec<u32>>,
    /// `inter_cluster.at(c, c')` = `min_{p∈c, q∈c'} D(p, q)`; zero diagonal.
    pub inter_cluster: DenseCost,
}

impl StarGeometry {
    /// Geometry with a single cluster covering all bins (EMD\* then behaves
    /// like EMDα with `banks` global banks).
    pub fn single_cluster(n: usize, gammas: Vec<u32>) -> Self {
        StarGeometry {
            labels: vec![0; n],
            cluster_count: 1,
            gammas: vec![gammas],
            inter_cluster: DenseCost::filled(1, 1, 0),
        }
    }

    /// Banks per cluster (must be uniform across clusters).
    pub fn banks_per_cluster(&self) -> usize {
        let nb = self.gammas.first().map_or(0, Vec::len);
        debug_assert!(self.gammas.iter().all(|g| g.len() == nb));
        nb
    }

    /// Total number of bank bins.
    fn bank_count(&self) -> usize {
        self.cluster_count * self.banks_per_cluster()
    }

    /// Flat index of bank `b` of cluster `c` among all banks.
    #[inline]
    fn bank_index(&self, c: usize, b: usize) -> usize {
        c * self.banks_per_cluster() + b
    }

    /// Ground distance from regular bin `i` to bank `(c, b)`:
    /// `γ_c[b] + d(cluster(i), c)`.
    ///
    /// On symmetric ground distances this matches the paper's Eq. 4
    /// exactly; on directed (semimetric) grounds the two directions use the
    /// corresponding directed inter-cluster distances.
    #[inline]
    fn bin_to_bank(&self, i: usize, c: usize, b: usize) -> u32 {
        let ci = self.labels[i] as usize;
        self.gammas[c][b].saturating_add(self.inter_cluster.at(ci, c))
    }

    /// Ground distance from bank `(c, b)` to regular bin `i`:
    /// `γ_c[b] + d(c, cluster(i))`.
    #[inline]
    fn bank_to_bin(&self, c: usize, b: usize, i: usize) -> u32 {
        let ci = self.labels[i] as usize;
        self.gammas[c][b].saturating_add(self.inter_cluster.at(c, ci))
    }

    /// Ground distance between banks `(c, b)` and `(c2, b2)`.
    #[inline]
    fn bank_to_bank(&self, c: usize, b: usize, c2: usize, b2: usize) -> u32 {
        if c == c2 && b == b2 {
            0
        } else {
            self.gammas[c][b]
                .saturating_add(self.gammas[c2][b2])
                .saturating_add(self.inter_cluster.at(c, c2))
        }
    }

    /// Checks the Theorem 3 metricity precondition
    /// `γ_c[b] ≥ ½·max_{p,q∈c} D(p,q)` against an explicit ground distance.
    pub fn validate(&self, ground: &DenseCost) -> Result<(), String> {
        if self.labels.len() != ground.rows() || ground.rows() != ground.cols() {
            return Err("geometry/ground shape mismatch".into());
        }
        let mut max_intra = vec![0u32; self.cluster_count];
        for i in 0..self.labels.len() {
            for j in 0..self.labels.len() {
                if self.labels[i] == self.labels[j] {
                    let c = self.labels[i] as usize;
                    max_intra[c] = max_intra[c].max(ground.at(i, j));
                }
            }
        }
        for (c, gammas) in self.gammas.iter().enumerate() {
            for (b, &g) in gammas.iter().enumerate() {
                // lint:allow(lossy-cast) gammas and diameters are u32; u32 → u64 is exact
                if (g as u64) * 2 < max_intra[c] as u64 {
                    return Err(format!(
                        "gamma[{c}][{b}] = {g} below half intra-cluster diameter {}",
                        max_intra[c]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Bank capacities for one comparison: the lighter histogram's banks absorb
/// the mismatch `Δ = |ΣP − ΣQ|`, split across clusters proportionally to the
/// lighter histogram's per-cluster mass (uniformly when it is empty), and
/// evenly across the `Nb` banks of a cluster. Capacities sum to exactly `Δ`
/// so the extended problem is exactly balanced in integer arithmetic.
///
/// Note: the arXiv text prints the capacity as cluster-mass *divided by* the
/// mismatch, which cannot equalize totals; we implement the evidently
/// intended proportional allocation (see DESIGN.md).
#[derive(Clone, Debug, Default)]
pub struct BankCapacities {
    /// Per-bank capacities appended to `P` (flat `(cluster, bank)` order).
    pub p_banks: Vec<Mass>,
    /// Per-bank capacities appended to `Q`.
    pub q_banks: Vec<Mass>,
}

/// Splits `delta` proportionally to `weights` (uniformly if all zero),
/// summing to exactly `delta` via largest-remainder rounding.
pub fn proportional_split(delta: Mass, weights: &[Mass]) -> Vec<Mass> {
    let k = weights.len();
    debug_assert!(k > 0);
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if delta == 0 {
        return vec![0; k];
    }
    if total == 0 {
        // lint:allow(lossy-cast) k is a slice length; usize → u64 is exact on supported targets
        let base = delta / k as u64;
        // lint:allow(lossy-cast) delta % k < k, a slice length, so it fits usize
        let rem = (delta % k as u64) as usize;
        return (0..k).map(|i| base + u64::from(i < rem)).collect();
    }
    let mut shares: Vec<Mass> = Vec::with_capacity(k);
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(k);
    let mut assigned: u128 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact_num = delta as u128 * w as u128;
        let floor = exact_num / total;
        shares.push(floor as Mass);
        assigned += floor;
        remainders.push((exact_num % total, i));
    }
    let mut leftover = delta as u128 - assigned;
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut idx = 0;
    while leftover > 0 {
        shares[remainders[idx].1] += 1;
        leftover -= 1;
        idx = (idx + 1) % k;
    }
    shares
}

/// Splits the mismatch `delta` into flat per-(cluster, bank) capacities
/// given the lighter histogram's per-cluster masses — the allocation rule of
/// [`bank_capacities`] exposed for callers (like SND's sparse path) that
/// track cluster masses directly instead of building dense histograms.
pub fn bank_capacities_from_cluster_masses(
    delta: Mass,
    cluster_masses: &[Mass],
    banks_per_cluster: usize,
) -> Vec<Mass> {
    let per_cluster = proportional_split(delta, cluster_masses);
    let mut flat = Vec::with_capacity(cluster_masses.len() * banks_per_cluster);
    let even = vec![1 as Mass; banks_per_cluster];
    for &cap in &per_cluster {
        flat.extend(proportional_split(cap, &even));
    }
    flat
}

/// Computes the bank capacities for comparing `p` against `q` under the
/// given geometry.
pub fn bank_capacities(p: &Histogram, q: &Histogram, geom: &StarGeometry) -> BankCapacities {
    let nb = geom.banks_per_cluster();
    let bank_total = geom.bank_count();
    let (tp, tq) = (p.total(), q.total());
    let mut caps = BankCapacities {
        p_banks: vec![0; bank_total],
        q_banks: vec![0; bank_total],
    };
    if tp == tq || nb == 0 {
        return caps;
    }
    let (lighter, lighter_banks) = if tp < tq {
        (p, &mut caps.p_banks)
    } else {
        (q, &mut caps.q_banks)
    };
    let delta = tp.abs_diff(tq);
    // Per-cluster mass of the lighter histogram.
    let mut cluster_mass = vec![0 as Mass; geom.cluster_count];
    for (i, &m) in lighter.masses().iter().enumerate() {
        cluster_mass[geom.labels[i] as usize] += m;
    }
    lighter_banks.copy_from_slice(&bank_capacities_from_cluster_masses(
        delta,
        &cluster_mass,
        nb,
    ));
    caps
}

/// Builds the extended ground distance `D̃` of Eq. 4 explicitly
/// (`(n + banks) × (n + banks)`). Used by the dense reference path; the
/// sparse path materializes only the rows it needs.
pub fn extended_ground(ground: &DenseCost, geom: &StarGeometry) -> DenseCost {
    let n = ground.rows();
    debug_assert_eq!(n, ground.cols());
    let banks = geom.bank_count();
    let nb = geom.banks_per_cluster();
    let total = n + banks;
    let mut d = DenseCost::filled(total, total, 0);
    for i in 0..n {
        for j in 0..n {
            *d.at_mut(i, j) = ground.at(i, j);
        }
    }
    for c in 0..geom.cluster_count {
        for b in 0..nb {
            let k = n + geom.bank_index(c, b);
            for i in 0..n {
                *d.at_mut(i, k) = geom.bin_to_bank(i, c, b);
                *d.at_mut(k, i) = geom.bank_to_bin(c, b, i);
            }
            for c2 in 0..geom.cluster_count {
                for b2 in 0..nb {
                    let k2 = n + geom.bank_index(c2, b2);
                    *d.at_mut(k, k2) = geom.bank_to_bank(c, b, c2, b2);
                }
            }
        }
    }
    d
}

/// EMD\* of Eq. 4: extends both histograms with cluster banks (capacities
/// from [`bank_capacities`]), solves the balanced extended problem exactly,
/// and returns the raw optimal cost (`EMD(P̃,Q̃,D̃)·max(ΣP,ΣQ)` — the EMD
/// normalization cancels against the factor because extended totals equal
/// `max(ΣP,ΣQ)`).
pub fn emd_star(
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
    let mut supplies = p.masses().to_vec();
    supplies.extend_from_slice(&caps.p_banks);
    let mut demands = q.masses().to_vec();
    demands.extend_from_slice(&caps.q_banks);
    let d = extended_ground(ground, geom);
    let plan = solve_balanced(&supplies, &demands, &d, solver);
    plan.total_cost as f64 / p.scale() as f64
}

/// EMD\* over the **net** mass differences only: the reduced-instance
/// evaluation for nearly-identical histograms (consecutive snapshots of
/// an evolving network — the delta-series regime).
///
/// The full extended problem of [`emd_star`] is `(n + banks)²` even when
/// the two histograms agree almost everywhere. This variant shrinks the
/// instance to the churned mass before solving:
///
/// * **Matched bin mass ships to itself** — `min(pᵢ, qᵢ)` cancels at
///   every bin (the extended ground's diagonal is zero).
/// * **Matched bank capacity ships to itself** — when both sides carry
///   capacity at the same bank, the overlap cancels at zero cost
///   (`bank_to_bank` is zero on the exact diagonal).
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
/// [`emd_star`]; the property tests assert this.
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
///   reduction overestimates. Use [`emd_star`] there.
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
    let nb = geom.banks_per_cluster();

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
    for b in 0..geom.bank_count() {
        push_net(n + b, caps.p_banks[b], caps.q_banks[b]);
    }
    if supplies.is_empty() {
        debug_assert!(demands.is_empty(), "extended problem is balanced");
        return 0.0;
    }

    // Reduced extended ground, materialized only on the surviving
    // rows × columns.
    let ext_at = |i: usize, j: usize| -> u32 {
        match (i < n, j < n) {
            (true, true) => ground.at(i, j),
            (true, false) => {
                let k = j - n;
                geom.bin_to_bank(i, k / nb, k % nb)
            }
            (false, true) => {
                let k = i - n;
                geom.bank_to_bin(k / nb, k % nb, j)
            }
            (false, false) => {
                let (k, k2) = (i - n, j - n);
                geom.bank_to_bank(k / nb, k % nb, k2 / nb, k2 % nb)
            }
        }
    };
    let mut data = Vec::with_capacity(supplies.len() * demands.len());
    for &i in &supply_idx {
        for &j in &demand_idx {
            data.push(ext_at(i, j));
        }
    }
    let d = DenseCost::from_vec(supplies.len(), demands.len(), data);
    let plan = solve_balanced(&supplies, &demands, &d, solver);
    plan.total_cost as f64 / p.scale() as f64
}

/// Convenience wrapper bundling geometry and solver choice.
#[derive(Clone, Debug)]
pub struct EmdStar {
    /// Bank geometry.
    pub geometry: StarGeometry,
    /// Transportation solver.
    pub solver: Solver,
}

impl EmdStar {
    /// Creates an EMD\* evaluator.
    pub fn new(geometry: StarGeometry, solver: Solver) -> Self {
        EmdStar { geometry, solver }
    }

    /// Computes EMD\*(p, q) over the given ground distance.
    pub fn distance(&self, p: &Histogram, q: &Histogram, ground: &DenseCost) -> f64 {
        emd_star(p, q, ground, &self.geometry, self.solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::emd_alpha;
    use crate::histogram::DEFAULT_SCALE;

    fn line_metric(n: usize) -> DenseCost {
        let mut d = DenseCost::filled(n, n, 0);
        for i in 0..n {
            for j in 0..n {
                *d.at_mut(i, j) = (i as i64 - j as i64).unsigned_abs() as u32;
            }
        }
        d
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

    fn two_cluster_line(n: usize, gamma: u32) -> StarGeometry {
        line_clusters(n, 2, gamma)
    }

    #[test]
    fn proportional_split_sums_to_delta() {
        assert_eq!(proportional_split(10, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(proportional_split(9, &[2, 1]), vec![6, 3]);
        assert_eq!(proportional_split(7, &[0, 0]), vec![4, 3]);
        assert_eq!(proportional_split(0, &[5, 5]), vec![0, 0]);
        let split = proportional_split(1_000_003, &[7, 11, 13]);
        assert_eq!(split.iter().sum::<u64>(), 1_000_003);
    }

    #[test]
    fn single_cluster_star_equals_alpha() {
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

    #[test]
    fn equal_masses_ignore_banks() {
        let d = line_metric(6);
        let geom = two_cluster_line(6, 3);
        let p = Histogram::from_f64(&[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        let q = Histogram::from_f64(&[0.0, 0.0, 1.0, 1.0, 0.0, 0.0], DEFAULT_SCALE);
        let star = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let plain = crate::classic::emd_total_cost(&p, &q, &d, Solver::Simplex);
        assert!((star - plain).abs() < 1e-9);
    }

    #[test]
    fn local_banks_prefer_mass_near_existing_mass() {
        // Fig. 5 intuition on a line: P has mass in the left region only.
        // Q_near adds extra mass adjacent to that region; Q_far adds it at
        // the far end. EMD* must rank Q_near closer, while EMDα sees no
        // difference. Note the clustering must be finer than the two
        // "pronounced" regions: bank distances are cluster-granular, so
        // position sensitivity comes from the inter-cluster distance matrix
        // (see the geometry-granularity note in DESIGN.md).
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
    fn validate_rejects_small_gamma() {
        let d = line_metric(6);
        let good = two_cluster_line(6, 3);
        assert!(good.validate(&d).is_ok());
        let bad = two_cluster_line(6, 0);
        assert!(bad.validate(&d).is_err());
    }

    #[test]
    fn multiple_banks_per_cluster() {
        let d = line_metric(4);
        let geom = StarGeometry::single_cluster(4, vec![3, 5]);
        let p = Histogram::from_f64(&[3.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        let q = Histogram::from_f64(&[1.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        // Mismatch 2 splits 1+1 over the two banks; transporting surplus to
        // the banks costs 3 + 5 = 8... but routing both units through the
        // cheaper bank is impossible (capacity 1 each), so cost = 3 + 5.
        let star = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        assert!((star - 8.0).abs() < 1e-9, "{star}");
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

    #[test]
    fn symmetric_in_arguments() {
        let d = line_metric(6);
        let geom = two_cluster_line(6, 3);
        let p = Histogram::from_f64(&[2.0, 0.0, 1.0, 0.0, 0.0, 1.0], DEFAULT_SCALE);
        let q = Histogram::from_f64(&[0.0, 1.0, 0.0, 0.0, 0.0, 0.0], DEFAULT_SCALE);
        let ab = emd_star(&p, &q, &d, &geom, Solver::Simplex);
        let ba = emd_star(&q, &p, &d, &geom, Solver::Simplex);
        assert!((ab - ba).abs() < 1e-9);
    }
}
