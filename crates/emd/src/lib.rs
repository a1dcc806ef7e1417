//! EMD\*, the Earth Mover's Distance variant SND is built on (paper §4).
//!
//! EMD\* extends both histograms with *local* bank bins — one group of
//! `Nb` banks per cluster of bins, with capacities proportional to the
//! cluster's mass — so the mass-mismatch penalty reflects *where* mass
//! appeared rather than only how much. [`emd_star`] solves the extended
//! problem densely with the exact integer transportation solvers of
//! `snd-transport`; it is the reference behind the engine's dense path.
//! The engine's sparse path prices the same problem from the pieces
//! exported here: [`bank_capacities_from_cluster_masses`] and
//! [`proportional_split`].
//!
//! Masses are fixed-point integers (see [`Histogram`]); distances are
//! returned as `f64` in ground-cost units.

pub mod histogram;
pub mod star;

pub use histogram::{Histogram, DEFAULT_SCALE};
pub use star::{
    bank_capacities, bank_capacities_from_cluster_masses, emd_star, extended_ground,
    proportional_split, BankCapacities, StarGeometry,
};

pub use snd_transport::{DenseCost, Solver};
