//! # snd — Social Network Distance
//!
//! A production-quality Rust implementation of *"A Distance Measure for the
//! Analysis of Polar Opinion Dynamics in Social Networks"* (Amelkin, Singh,
//! Bogdanov — ICDE 2017): the SND distance between snapshots of a social
//! network with competing (+/−) opinions, its EMD\* transport core with
//! local bank bins, exact linear-time-in-`n` computation, and the paper's
//! full evaluation harness (anomaly detection, opinion prediction, model
//! sensitivity, scalability).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR graphs, generators, shortest paths, clustering;
//! * [`transport`] — exact transportation-problem solvers;
//! * [`emd`] — EMD\*, the transport distance with local cluster banks;
//! * [`models`] — network states and opinion-dynamics ground costs;
//! * [`core`] — the [`SndEngine`](core::SndEngine) itself;
//! * [`baselines`] — competitor distances and predictors;
//! * [`analysis`] — anomaly detection, ROC, prediction harness;
//! * [`orchestrate`] — distributed tile leasing: coordinator, workers,
//!   wire protocol, lease autotuner;
//! * [`data`] — synthetic and simulated-Twitter workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use snd::core::{SndConfig, SndEngine};
//! use snd::graph::generators::path_graph;
//! use snd::models::NetworkState;
//!
//! let graph = path_graph(8);
//! let engine = SndEngine::new(&graph, SndConfig::default());
//! let before = NetworkState::from_values(&[1, 1, 0, 0, 0, 0, -1, -1]);
//! let after = NetworkState::from_values(&[1, 1, 1, 0, 0, -1, -1, -1]);
//! let d = engine.distance(&before, &after);
//! assert!(d > 0.0);
//! ```
//!
//! ## Simulating opinion dynamics
//!
//! Evaluation series come from forward simulation, and every simulator is
//! an implementation of
//! [`OpinionDynamics`](models::OpinionDynamics) — the paper's
//! probabilistic voting, the ICC/LTC cascades and random activation, plus
//! majority rule, stubborn voters, thresholded DeGroot/Friedkin–Johnsen
//! and bounded confidence from the wider literature (all in
//! [`models::process`]). The scenario registry
//! ([`data::scenario`]) composes a graph generator, a seeding, a model,
//! and an anomaly-injection schedule into named reproducible specs:
//!
//! ```
//! use snd::data::find_scenario;
//!
//! let mut scenario = find_scenario("bounded-confidence").expect("registered");
//! scenario.nodes = 300;
//! scenario.steps = 6;
//! let series = scenario.run(42).expect("valid registry parameters");
//! assert_eq!(series.states.len(), 7);
//! assert_eq!(series.labels.len(), 6); // anomaly ground truth
//! ```
//!
//! The same registry backs `snd simulate --scenario NAME --out data.json`,
//! whose output feeds every other `snd` subcommand.
//!
//! ## Batch evaluation
//!
//! The evaluation workloads that dominate in practice are *all-pairs*
//! regimes: anomaly detection over a snapshot series, clustering and
//! nearest-neighbor search over a snapshot set. Evaluated one
//! [`distance`](core::SndEngine::distance) at a time they redo the same
//! per-state work `T − 1` times. The batch entry points restructure this:
//!
//! * [`SndEngine::pairwise_distances`](core::SndEngine::pairwise_distances)
//!   — full `T × T` [`DistanceMatrix`](core::DistanceMatrix): ground
//!   geometry computed once per state, every `(ground state, opinion,
//!   direction, node)` SSSP row written at most once into a shared
//!   [`RowCache`](core::RowCache) — one fresh Dial run per `(opinion,
//!   direction, node)`, that node's rows in later ground states
//!   *repaired* from it ([`graph::repair_row`]) — and all `4·T·(T−1)/2`
//!   EMD\* terms fanned out over the thread pool. Every tile of a
//!   [`ShardPlan`](core::shard::ShardPlan) and every series tile is priced
//!   by the same three phases over its own pairs, so a merged shard
//!   matrix is bit-identical to this one.
//! * [`SndEngine::series_distances`](core::SndEngine::series_distances) —
//!   the adjacent-pair series, evaluated **delta-aware**
//!   ([`core::delta`]): edge costs re-derived only on the edges a
//!   transition's [`StateDelta`](models::StateDelta) touched, cluster
//!   geometry SSSP rows *repaired* ([`graph::repair_row`]) instead of
//!   recomputed, identical snapshots short-circuited to zero, with an
//!   automatic fresh-rebuild fallback on high-churn transitions — exact
//!   (bit-identical to the sequential reference) in every regime, and at
//!   most two geometry bundles live at a time.
//! * [`CandidateEvaluator::price_candidates`](core::CandidateEvaluator::price_candidates)
//!   — a batch of flip-list candidates priced in parallel against one
//!   anchored delta geometry (the opinion-prediction search loop and the
//!   [`analysis::intervene`] planner), bit-identical to the sequential
//!   scan reference (the anchor's
//!   [`geometry_seq`](core::SndEngine::geometry_seq) plus
//!   [`emd_star_term`](core::sparse::emd_star_term) over both opinions).
//!
//! ```
//! use snd::core::{SndConfig, SndEngine};
//! use snd::graph::generators::path_graph;
//! use snd::models::NetworkState;
//!
//! let graph = path_graph(8);
//! let engine = SndEngine::new(&graph, SndConfig::default());
//! let snapshots = vec![
//!     NetworkState::from_values(&[1, 0, 0, 0, 0, 0, 0, 0]),
//!     NetworkState::from_values(&[1, 1, 0, 0, 0, 0, 0, -1]),
//!     NetworkState::from_values(&[1, 1, 1, 0, 0, 0, -1, -1]),
//! ];
//! let matrix = engine.pairwise_distances(&snapshots);
//! assert_eq!(matrix.size(), 3);
//! assert_eq!(matrix.at(0, 2), matrix.at(2, 0)); // symmetric
//! assert_eq!(matrix.adjacent().len(), 2); // the series, for free
//! ```
//!
//! ## Sharded evaluation with checkpoint/resume
//!
//! The all-pairs matrix is embarrassingly block-parallel, and
//! [`core::shard`] scales it past one machine: a
//! [`TileGrid`](core::TileGrid) decomposes the upper triangle into
//! deterministic tiles, a [`ShardPlan`](core::ShardPlan) names the tiles
//! one worker computes
//! ([`pairwise_tiles`](core::SndEngine::pairwise_tiles)), each finished
//! tile streams to a checkpoint file
//! ([`pairwise_tiles_checkpointed`](core::SndEngine::pairwise_tiles_checkpointed))
//! so interrupted runs resume without recomputation, and
//! [`TileSet::merge`](core::TileSet::merge) reassembles the shards'
//! partial artifacts into the full matrix with overlap/hole validation —
//! bit-identical to the sequential loop (`tests/shard_matrix.rs`). The
//! `snd shard` CLI subcommand drives the same workflow from the command
//! line, and [`analysis::resume`] offers checkpoint-backed
//! pairwise/series entry points.
//!
//! For multi-process runs, [`orchestrate`] turns the same tile grid into
//! a coordinator/worker system: `snd orchestrate` owns the grid and
//! hands out tile *leases* over TCP or Unix sockets, `snd work`
//! processes compute leased tiles and stream back verbatim checkpoint
//! lines ([`TileLine`](core::TileLine)), expired leases are re-dispatched (first result wins), and
//! per-tile `W` timings drive a measurement-based lease autotuner. The
//! merged matrix stays bit-identical to the sequential loop regardless
//! of worker count or failure timing (`crates/cli/tests/orchestrate_e2e.rs`
//! checks 1, 2 and 4 workers and a killed worker).
//!
//! ## Threading model
//!
//! [`SndEngine`](core::SndEngine) is immutable after construction and
//! `Sync`: **share one engine by reference across threads** rather than
//! building one per thread (construction computes the bank clustering).
//! Parallelism is otherwise internal — the batch calls above saturate the
//! machine on their own, and even a single
//! [`breakdown`](core::SndEngine::breakdown) computes its four Eq. 3 terms
//! concurrently. Parallel results are **bit-identical** to sequential
//! evaluation (`*_seq` reference paths exist on the engine, and
//! `tests/batch_parallel.rs` asserts equality property-style): terms are
//! independent exact integer solves reduced in a fixed order, and cached
//! SSSP rows hold exactly what recomputation would produce.
//!
//! Per-thread SSSP scratch buffers
//! ([`SsspScratch`](graph::SsspScratch)) make row computation
//! allocation-free after warmup; the repo benchmark's `pairwise` workload
//! (`python3 perfbench/run.py --workload pairwise`) measures the all-pairs
//! matrix end to end.

pub use snd_analysis as analysis;
pub use snd_baselines as baselines;
pub use snd_core as core;
pub use snd_data as data;
pub use snd_emd as emd;
pub use snd_graph as graph;
pub use snd_models as models;
pub use snd_orchestrate as orchestrate;
pub use snd_transport as transport;
