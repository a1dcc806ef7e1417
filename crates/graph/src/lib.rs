//! Graph substrate for the SND (Social Network Distance) library.
//!
//! This crate provides everything SND needs from a graph library, implemented
//! from scratch:
//!
//! * [`CsrGraph`] — a compact directed graph in compressed-sparse-row form
//!   with an embedded reverse index, so both out- and in-adjacency scans are
//!   cache-friendly. Edge weights are stored *outside* the graph (as slices
//!   aligned with edge ids) because SND derives several different weight
//!   functions from the same topology (one per network state and opinion).
//! * Generators for the graph families used in the paper's evaluation:
//!   configuration-model scale-free graphs with a prescribed exponent,
//!   Barabási–Albert preferential attachment, Erdős–Rényi, and small
//!   deterministic topologies for tests.
//! * Single-source shortest paths: one Dial bucket-queue kernel (exploiting
//!   the paper's Assumption 2 that edge costs are integers bounded by a
//!   constant `U`) with in-place row repair and landmark sketches on top,
//!   plus Bellman–Ford and Floyd–Warshall used as test oracles.
//! * Clustering (label propagation and BFS partitioning) used by EMD\* to
//!   place local bank bins.
//! * Graph Laplacian quadratic forms for the quadratic-form baseline.

pub mod bfs;
pub mod clustering;
pub mod components;
pub mod csr;
pub mod generators;
pub mod laplacian;
pub mod shortest_paths;

pub use bfs::{bfs_levels, double_sweep_diameter};
pub use clustering::{
    bfs_partition, label_propagation, quotient_graph, whole_graph_cluster, Clustering,
};
pub use components::{largest_weak_component, weak_components, UnionFind};
pub use csr::{CsrGraph, EdgeId, GraphBuilder, NodeId};
pub use laplacian::{dense_laplacian, laplacian_quadratic_form};
pub use shortest_paths::{
    bellman_ford, dial, dial_bounded_scratch, dial_reverse, dial_reverse_scratch, dial_scratch,
    floyd_warshall, repair_row, select_landmarks, CostChange, Dist, GroupAggregate, LandmarkSketch,
    RepairScratch, SsspScratch, UNREACHABLE,
};
