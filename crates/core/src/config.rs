//! SND engine configuration.

use snd_models::GroundCostConfig;
use snd_transport::Solver;

/// How histogram bins (users) are grouped into clusters for EMD\*'s local
/// bank bins.
///
/// Bank distances are *cluster-granular*: the mismatch penalty resolves
/// positions only up to the clustering, so the cluster count trades
/// positional sensitivity against reduced-problem size (each cluster adds
/// `banks_per_cluster` bins to every comparison).
#[derive(Clone, Debug)]
pub enum ClusterSpec {
    /// One bank per bin — §4's high-fidelity extreme (default). Bank
    /// capacities sit exactly on the lighter histogram's active users, so
    /// the mismatch penalty is the true propagation distance from existing
    /// same-opinion users (plus [`SndConfig::per_bin_gamma`]). Costs no
    /// extra geometry in the sparse path: bank columns are read off the
    /// same SSSP rows as regular columns.
    PerBin,
    /// BFS partition ([`snd_graph::bfs_partition`]) with clusters of at
    /// most ⌈n / `clusters`⌉ nodes — the coarse, cluster-granular mode for
    /// very large graphs (bank distances resolve positions only up to the
    /// clustering). Regions grow one after another and every node stranded
    /// between full regions starts a new cluster, so the partition can hold
    /// many more than `clusters` clusters.
    BfsPartition {
        /// Target number of clusters: it sets the size budget, not the
        /// count.
        clusters: usize,
    },
    /// Explicit cluster labels per node.
    Explicit(Vec<u32>),
    /// A single cluster (degenerates EMD\* to EMDα).
    Single,
}

/// How the bank ground distance γ of each cluster is chosen.
///
/// Theorem 3 requires `γ ≥ ½·max_{p,q∈C} D(p,q)` for metricity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GammaPolicy {
    /// `γ = max(forward, backward) eccentricity` of a cluster
    /// representative, measured in the full graph over the state's ground
    /// costs. By the triangle inequality this is at least half the
    /// intra-cluster diameter, and it is "of the same order as the ground
    /// distances within the cluster" as §4 prescribes. Two bounded-cost
    /// SSSP runs per cluster.
    Eccentricity,
    /// Exact `⌈½·max_{p,q∈C} D(p,q)⌉` — one SSSP per cluster member; meant
    /// for tests and small graphs.
    HalfExactDiameter,
    /// A fixed γ for every cluster (caller guarantees the Theorem 3 bound).
    Constant(u32),
}

/// Full SND configuration.
#[derive(Clone, Debug)]
pub struct SndConfig {
    /// Ground-cost construction (opinion dynamics model, quantization).
    pub ground: GroundCostConfig,
    /// Bin clustering for bank placement.
    pub clusters: ClusterSpec,
    /// Banks per cluster (`Nb`). Bank `b` gets ground distance `(b+1)·γ`,
    /// modelling non-constant transportation cost into a cluster's bank
    /// group (§4); the first bank is the plain γ.
    pub banks_per_cluster: usize,
    /// Bank ground-distance policy (ignored in
    /// [`ClusterSpec::PerBin`] mode).
    pub gamma: GammaPolicy,
    /// Bank ground distance in per-bin mode. Must be positive: a zero γ
    /// would let mass mismatch hide inside a user's own bank, breaking the
    /// identity of indiscernibles. Semantically this is the base cost of
    /// one brand-new activation right next to an existing same-opinion
    /// user.
    pub per_bin_gamma: u32,
    /// Fixed-point scale for histogram masses.
    pub scale: u64,
    /// Transportation solver for the (reduced or full) problem. The default
    /// [`Solver::Auto`] answers single-line instances directly and runs the
    /// block-priced simplex on every other one (see
    /// `snd_transport::select_solver`); pin a concrete solver for
    /// cross-validation runs.
    pub solver: Solver,
    /// Optional approximate geometry tier (landmark sketches + coarsening +
    /// ε-refinement, see [`crate::approx`]). `None` (the default) keeps
    /// every query exact. `Some(_)` routes per-bin comparisons on graphs
    /// with at least [`ApproxConfig::min_nodes`](crate::ApproxConfig) nodes
    /// through the sketch tier; smaller graphs stay exact.
    pub approx: Option<crate::approx::ApproxConfig>,
}

impl Default for SndConfig {
    fn default() -> Self {
        SndConfig {
            ground: GroundCostConfig::default(),
            clusters: ClusterSpec::PerBin,
            banks_per_cluster: 1,
            gamma: GammaPolicy::Eccentricity,
            per_bin_gamma: 1,
            scale: snd_emd::DEFAULT_SCALE,
            solver: Solver::Auto,
            approx: None,
        }
    }
}

impl SndConfig {
    /// Config with the given ground-cost model and defaults elsewhere.
    pub fn with_ground(ground: GroundCostConfig) -> Self {
        SndConfig {
            ground,
            ..Default::default()
        }
    }
}
