//! Histograms with fixed-point masses.
//!
//! Real-valued masses are quantized to integer units (`mass × scale`) so the
//! transportation solvers run in exact integer arithmetic. Network states in
//! SND produce unit masses per active user, so the default scale loses
//! nothing; fractional masses (e.g. confidence-weighted opinions) quantize
//! at `2^-20` resolution.

use snd_transport::Mass;

/// Default fixed-point scale: one mass unit = `2^20` integer units.
pub const DEFAULT_SCALE: u64 = 1 << 20;

/// A histogram over `n` bins with fixed-point masses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    masses: Vec<Mass>,
    scale: u64,
}

impl Histogram {
    /// Builds a histogram directly from integer masses at the given scale.
    pub fn from_masses(masses: Vec<Mass>, scale: u64) -> Self {
        assert!(scale > 0);
        Histogram { masses, scale }
    }

    /// Quantizes real-valued masses at the given scale (values must be
    /// non-negative and finite).
    pub fn from_f64(values: &[f64], scale: u64) -> Self {
        assert!(scale > 0);
        let masses = values
            .iter()
            .map(|&v| {
                assert!(v.is_finite() && v >= 0.0, "mass must be non-negative");
                (v * scale as f64).round() as Mass
            })
            .collect();
        Histogram { masses, scale }
    }

    /// An all-zero histogram.
    pub fn zeros(n: usize, scale: u64) -> Self {
        Histogram {
            masses: vec![0; n],
            scale,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.masses.len()
    }

    /// True if the histogram has no bins.
    pub fn is_empty(&self) -> bool {
        self.masses.is_empty()
    }

    /// Fixed-point scale.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Raw integer masses.
    pub fn masses(&self) -> &[Mass] {
        &self.masses
    }

    /// Integer mass of bin `i`.
    #[inline]
    pub fn mass(&self, i: usize) -> Mass {
        self.masses[i]
    }

    /// Total integer mass.
    pub fn total(&self) -> Mass {
        self.masses.iter().sum()
    }

    /// Real-valued mass of bin `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.masses[i] as f64 / self.scale as f64
    }

    /// Indices of bins with positive mass.
    pub fn support(&self) -> Vec<usize> {
        (0..self.masses.len())
            .filter(|&i| self.masses[i] > 0)
            .collect()
    }

    /// Subtracts `min(P_i, Q_i)` from both histograms bin-wise — the Lemma 2
    /// reduction exposing redundant suppliers/consumers for removal.
    /// Returns the reduced pair.
    pub fn reduce_common(p: &Histogram, q: &Histogram) -> (Histogram, Histogram) {
        assert_eq!(p.len(), q.len(), "histogram length mismatch");
        assert_eq!(p.scale, q.scale, "histogram scale mismatch");
        let mut rp = p.clone();
        let mut rq = q.clone();
        for i in 0..p.len() {
            let m = p.masses[i].min(q.masses[i]);
            rp.masses[i] -= m;
            rq.masses[i] -= m;
        }
        (rp, rq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let h = Histogram::from_f64(&[1.0, 0.5, 0.0], DEFAULT_SCALE);
        assert_eq!(h.mass(0), DEFAULT_SCALE);
        assert_eq!(h.mass(1), DEFAULT_SCALE / 2);
        assert_eq!(h.mass(2), 0);
        assert_eq!(h.total(), DEFAULT_SCALE + DEFAULT_SCALE / 2);
        assert!((h.value(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn support_lists_positive_bins() {
        let h = Histogram::from_masses(vec![0, 3, 0, 1], 1);
        assert_eq!(h.support(), vec![1, 3]);
    }

    #[test]
    fn reduce_common_subtracts_minimum() {
        let p = Histogram::from_masses(vec![5, 2, 0], 1);
        let q = Histogram::from_masses(vec![3, 2, 4], 1);
        let (rp, rq) = Histogram::reduce_common(&p, &q);
        assert_eq!(rp.masses(), &[2, 0, 0]);
        assert_eq!(rq.masses(), &[0, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mass_rejected() {
        let _ = Histogram::from_f64(&[-1.0], 1);
    }
}
