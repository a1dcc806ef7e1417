//! Time-ordered SND for candidate-evaluation workloads: delta-priced
//! flip-list candidates over one patchable anchor geometry.
//!
//! §3 notes that for time-ordered states the ground distance can be
//! defined from the earlier state alone:
//!
//! ```text
//! ordered(from, to) = EMD*(from⁺, to⁺, D(from, +)) + EMD*(from⁻, to⁻, D(from, −))
//! ```
//!
//! The §6.3 predictor and the intervention-search workload evaluate
//! hundreds of candidate `to` states that each differ from the anchor by a
//! handful of flips. [`CandidateEvaluator`] serves that shape: the
//! anchor's geometry is carried in one repairable [`DeltaStateGeometry`]
//! bundle, and a candidate is a compact **flip-list** `&[(node, opinion)]`
//! relative to the anchor — no per-candidate `NetworkState` clone, no
//! `O(n)` state scan. Because the ordered ground distance is anchored at
//! the *from* state, a candidate changes only the `Q` side of each EMD\*
//! term: the classification (residuals, totals, lighter-side bank bins) is
//! derived from precomputed anchor stats in `O(flips + active)`, then
//! funnels into the same assembly/solve (`sparse::solve_reduced_term`)
//! the `O(n)`-scan path uses — so prices are **bit-identical** to the
//! sequential scan reference: [`SndEngine::geometry_seq`] of the anchor
//! plus [`emd_star_term`](crate::sparse::emd_star_term) summed over both
//! opinions (property-tested across every registry scenario in
//! `tests/candidate_pricing.rs`).
//!
//! When the *anchor itself* moves (greedy intervention search commits an
//! action), [`patch`](CandidateEvaluator::patch) advances a *clone* of
//! the bundle through the delta repair machinery — touched-edge cost
//! rederivation plus [`repair_row`](snd_graph::repair_row) on exactly the
//! γ balls a change can move. The clone shares the
//! per-cluster repair state through `Arc`s, so the step copies only the
//! clusters a change reaches (copy-on-write) and leaves the original
//! untouched. The original is pushed on a stack, so
//! [`unpatch`](CandidateEvaluator::unpatch) is an `O(1)` restore of the
//! exact previous geometry, still repairable by the next patch.
//!
//! Flip-lists express *state* changes only. Topology edits (edge
//! insert/delete) cannot be patched: edge ids are CSR positions, so an
//! insertion renumbers the cost/row indexing the bundle is built on.
//! Callers handle those via the documented **rebuild fallback** —
//! reconstruct the graph, a fresh engine, and a fresh evaluator (see
//! `snd_analysis::intervene`).

use snd_graph::{Clustering, NodeId};
use snd_models::{apply_flips, normalize_flips, NetworkState, Opinion, StateDelta};

use crate::delta::DeltaStateGeometry;
use crate::engine::SndEngine;
use crate::sparse::{solve_reduced_term, BankBins, ReducedTerm, RowCache};

/// Index of an opinion into the per-opinion stat arrays.
#[inline]
fn op_index(op: Opinion) -> usize {
    usize::from(op == Opinion::Negative)
}

/// Precomputed per-opinion anchor statistics: everything the `O(n)`
/// classification scan derives about the *anchor* side, computed once per
/// anchor so each candidate pays only for its own flips.
struct AnchorStats {
    /// `active[op]`: nodes holding `op` in the anchor, ascending.
    active: [Vec<NodeId>; 2],
    /// `cluster_counts[op][c]`: anchor holders of `op` in cluster `c`.
    cluster_counts: [Vec<u64>; 2],
}

impl AnchorStats {
    fn new(clustering: &Clustering, anchor: &NetworkState) -> Self {
        let nc = clustering.cluster_count();
        let mut active = [Vec::new(), Vec::new()];
        let mut cluster_counts = [vec![0u64; nc], vec![0u64; nc]];
        for u in 0..anchor.len() as NodeId {
            let op = anchor.opinion(u);
            if !op.is_active() {
                continue;
            }
            let i = op_index(op);
            active[i].push(u);
            cluster_counts[i][clustering.labels[u as usize] as usize] += 1;
        }
        AnchorStats {
            active,
            cluster_counts,
        }
    }
}

/// The candidate side's active list: the anchor's ascending active list
/// with `drop` removed and `add` merged in (both ascending; `add` is
/// disjoint from the anchor list by construction). Reproduces the scan
/// path's `active_q` — same nodes, same ascending order — in
/// `O(active + flips)`.
fn merged_active(anchor_active: &[NodeId], drop: &[NodeId], add: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(anchor_active.len() - drop.len() + add.len());
    let mut di = 0;
    let mut ai = 0;
    for &u in anchor_active {
        while ai < add.len() && add[ai] < u {
            out.push(add[ai]);
            ai += 1;
        }
        if di < drop.len() && drop[di] == u {
            di += 1;
            continue;
        }
        out.push(u);
    }
    out.extend_from_slice(&add[ai..]);
    out
}

/// One stack frame of the patch protocol: the complete evaluation state
/// of the previous anchor, restored verbatim by
/// [`CandidateEvaluator::unpatch`].
struct Frame {
    anchor: NetworkState,
    bundle: DeltaStateGeometry,
    cache: RowCache,
    stats: AnchorStats,
}

/// Delta-priced ordered-SND evaluator: candidates are flip-lists against
/// a patchable anchor geometry. See the module docs for the protocol and
/// the bit-identity contract with the sequential scan.
pub struct CandidateEvaluator<'e, 'g> {
    engine: &'e SndEngine<'g>,
    anchor: NetworkState,
    /// The anchor's repairable geometry bundle (delta machinery): both
    /// opinion geometries (γ only) plus the `Arc`-shared γ balls `patch`
    /// repairs instead of recomputing.
    bundle: DeltaStateGeometry,
    /// SSSP row cache for the *current* bundle's geometry. Swapped (never
    /// reused) across patches: rows priced under old edge costs are
    /// invalid under new ones.
    cache: RowCache,
    stats: AnchorStats,
    /// Previous anchors, newest last — the unpatch stack.
    stack: Vec<Frame>,
}

impl<'e, 'g> CandidateEvaluator<'e, 'g> {
    /// Builds the evaluator: the anchor's repairable geometry bundle (both
    /// opinions in parallel, bit-identical to
    /// [`SndEngine::state_geometry`]) plus the per-opinion anchor stats
    /// candidates are classified against.
    pub fn new(engine: &'e SndEngine<'g>, anchor: NetworkState) -> Self {
        let bundle = DeltaStateGeometry::fresh(engine, &anchor);
        let stats = AnchorStats::new(engine.clustering(), &anchor);
        let cache = RowCache::new(engine.graph().node_count());
        CandidateEvaluator {
            engine,
            anchor,
            bundle,
            cache,
            stats,
            stack: Vec::new(),
        }
    }

    /// The current anchor state.
    pub fn anchor(&self) -> &NetworkState {
        &self.anchor
    }

    /// Number of patches currently applied (depth of the unpatch stack).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// How the patch that produced the current anchor advanced its γ
    /// balls (all zero for the initial anchor, and for a patch that fell
    /// back to a fresh build).
    pub fn ball_steps(&self) -> crate::BallSteps {
        self.bundle.ball_steps()
    }

    /// Number of SSSP rows computed into the current anchor's cache.
    pub fn cached_rows(&self) -> usize {
        self.cache.computed_rows()
    }

    /// Ordered SND from the anchor to the candidate described by `flips`
    /// (`(node, new opinion)`, any order, last-wins on duplicates, no-op
    /// entries ignored). Bit-identical to the sequential scan of
    /// `apply_flips(anchor, flips)` against the anchor's geometry, and
    /// exact even when the engine's approximate tier is active: both terms
    /// solve through `sparse::solve_reduced_term`, not the term router.
    pub fn price(&self, flips: &[(NodeId, Opinion)]) -> f64 {
        let flips = normalize_flips(&self.anchor, flips);
        self.price_normalized(&flips, true)
    }

    /// Prices every candidate flip-list, fanned out over the thread pool.
    /// All evaluations share the anchor bundle (read-only) and its row
    /// cache; result order matches `candidates`.
    pub fn price_candidates(&self, candidates: &[Vec<(NodeId, Opinion)>]) -> Vec<f64> {
        use rayon::prelude::*;
        candidates.par_iter().map(|f| self.price(f)).collect()
    }

    /// Sequential reference for [`price_candidates`]: one candidate at a
    /// time, both terms on the calling thread, no fan-out anywhere.
    /// Bit-identical to the parallel batch (each term is an independent
    /// exact solve).
    ///
    /// [`price_candidates`]: Self::price_candidates
    pub fn price_candidates_seq(&self, candidates: &[Vec<(NodeId, Opinion)>]) -> Vec<f64> {
        candidates
            .iter()
            .map(|f| {
                let flips = normalize_flips(&self.anchor, f);
                self.price_normalized(&flips, false)
            })
            .collect()
    }

    /// Both forward terms over a normalized flip-list.
    fn price_normalized(&self, flips: &[(NodeId, Opinion)], parallel: bool) -> f64 {
        let term = |op: Opinion| {
            let geom = match op_index(op) {
                0 => &self.bundle.pos.geom,
                _ => &self.bundle.neg.geom,
            };
            solve_reduced_term(
                self.engine.graph(),
                self.engine.clustering(),
                geom,
                op,
                self.engine.config(),
                Some(&self.cache),
                self.reduced_term(flips, op),
            )
        };
        let (pos, neg) = if parallel {
            rayon::join(|| term(Opinion::Positive), || term(Opinion::Negative))
        } else {
            (term(Opinion::Positive), term(Opinion::Negative))
        };
        pos + neg
    }

    /// Derives one term's classification from the anchor stats in
    /// `O(flips)` (plus `O(active)` only when the lighter-side bank bins
    /// must be materialized) — the flip-side replacement for the `O(n)`
    /// scan in [`emd_star_term`], feeding the identical
    /// [`ReducedTerm`] into the shared assembly/solve.
    fn reduced_term(&self, flips: &[(NodeId, Opinion)], op: Opinion) -> ReducedTerm {
        let i = op_index(op);
        let scale = self.engine.config().scale;
        let clustering = self.engine.clustering();
        let per_bin = match i {
            0 => self.bundle.pos.geom.per_bin,
            _ => self.bundle.neg.geom.per_bin,
        };
        // Normalized flips are real changes in ascending node order, so
        // both residual lists come out ascending — the classification
        // order the scan path produces.
        let mut residual_p: Vec<NodeId> = Vec::new();
        let mut residual_q: Vec<NodeId> = Vec::new();
        for &(u, new_op) in flips {
            if self.anchor.opinion(u) == op {
                // Anchor holds `op`, candidate does not.
                residual_p.push(u);
            } else if new_op == op {
                // Candidate gains `op`.
                residual_q.push(u);
            }
        }
        let count_p = self.stats.active[i].len() as u64;
        let count_q = count_p - residual_p.len() as u64 + residual_q.len() as u64;
        let total_p = count_p * scale;
        let total_q = count_q * scale;
        let p_is_lighter = total_p < total_q;
        let banks = if total_p == total_q {
            BankBins::Balanced
        } else if per_bin {
            if p_is_lighter {
                BankBins::PerBin(self.stats.active[i].clone())
            } else {
                BankBins::PerBin(merged_active(
                    &self.stats.active[i],
                    &residual_p,
                    &residual_q,
                ))
            }
        } else {
            let counts: Vec<u64> = if p_is_lighter {
                self.stats.cluster_counts[i].clone()
            } else {
                let mut counts = self.stats.cluster_counts[i].clone();
                for &u in &residual_p {
                    counts[clustering.labels[u as usize] as usize] -= 1;
                }
                for &u in &residual_q {
                    counts[clustering.labels[u as usize] as usize] += 1;
                }
                counts
            };
            BankBins::Cluster(counts.iter().map(|&c| c * scale).collect())
        };
        ReducedTerm {
            residual_p,
            residual_q,
            total_p,
            total_q,
            banks,
        }
    }

    /// Moves the anchor itself: applies `flips` to the anchor and advances
    /// a clone of the geometry bundle through the delta repair machinery
    /// ([`StateDelta::from_flips`] names the touched edges; clusters the
    /// change index clears stay shared with the original, the rest are
    /// [`repair_row`](snd_graph::repair_row)-ed on copy-on-write copies).
    /// The previous evaluation state is pushed on the unpatch stack
    /// untouched. Prices after a patch are bit-identical to a fresh
    /// evaluator built at the new anchor.
    pub fn patch(&mut self, flips: &[(NodeId, Opinion)]) {
        let delta = StateDelta::from_flips(self.engine.graph(), &self.anchor, flips);
        let next_anchor = apply_flips(&self.anchor, flips);
        // Step a clone: it shares the repair state, so the stacked bundle
        // stays repairable for the next patch after an unpatch.
        let next_bundle = self.bundle.clone().step(self.engine, &next_anchor, &delta);
        let next_stats = AnchorStats::new(self.engine.clustering(), &next_anchor);
        // A fresh cache, not a reuse: cached rows were priced under the
        // previous edge costs and would be stale under the new ones.
        let next_cache = RowCache::new(self.engine.graph().node_count());
        let prev = Frame {
            anchor: std::mem::replace(&mut self.anchor, next_anchor),
            bundle: std::mem::replace(&mut self.bundle, next_bundle),
            cache: std::mem::replace(&mut self.cache, next_cache),
            stats: std::mem::replace(&mut self.stats, next_stats),
        };
        self.stack.push(prev);
    }

    /// Restores the evaluation state from before the most recent
    /// [`patch`](Self::patch) — an `O(1)` swap back to the stacked frame
    /// (the patch stepped a clone, so the previous bundle was never
    /// mutated and stays repairable).
    /// Returns `false` when no patch is applied.
    pub fn unpatch(&mut self) -> bool {
        match self.stack.pop() {
            Some(frame) => {
                self.anchor = frame.anchor;
                self.bundle = frame.bundle;
                self.cache = frame.cache;
                self.stats = frame.stats;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterSpec, GammaPolicy, SndConfig};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use snd_graph::generators::{barabasi_albert, path_graph};

    /// The sequential scan reference: `from`'s geometry per opinion and
    /// the `O(n)` classification of [`crate::sparse::emd_star_term`],
    /// both opinions summed.
    fn scan_prices(engine: &SndEngine, from: &NetworkState, to: &[NetworkState]) -> Vec<f64> {
        let geoms =
            [Opinion::Positive, Opinion::Negative].map(|op| (op, engine.geometry_seq(from, op)));
        let (g, clustering, config) = (engine.graph(), engine.clustering(), engine.config());
        to.iter()
            .map(|to| {
                let term = |(op, geom): &(Opinion, _)| {
                    crate::sparse::emd_star_term(g, clustering, geom, from, to, *op, config, None)
                };
                term(&geoms[0]) + term(&geoms[1])
            })
            .collect()
    }

    /// `price` solves through `sparse::solve_reduced_term`, not the
    /// engine's term router: on an engine whose approximate tier is
    /// active (and sketches these terms), it still prices exactly.
    #[test]
    fn pricing_stays_exact_under_an_active_approximate_tier() {
        let mut rng = SmallRng::seed_from_u64(43);
        let n = 400;
        let g = barabasi_albert(n, 3, &mut rng);
        let config = SndConfig {
            approx: Some(crate::ApproxConfig {
                min_nodes: 0,
                ..Default::default()
            }),
            ..SndConfig::default()
        };
        let engine = SndEngine::new(&g, config);
        assert!(engine.approx_if_active().is_some());
        let values: Vec<i8> = (0..n).map(|_| [1, -1, 0, 0][rng.gen_range(0..4)]).collect();
        let anchor = NetworkState::from_values(&values);
        let candidates: Vec<Vec<(NodeId, Opinion)>> = (0..4)
            .map(|_| {
                (0..60)
                    .map(|_| {
                        let u = rng.gen_range(0..n as NodeId);
                        (u, Opinion::from_value(rng.gen_range(-1..=1)))
                    })
                    .collect()
            })
            .collect();
        let evaluator = CandidateEvaluator::new(&engine, anchor.clone());
        let to: Vec<NetworkState> = candidates.iter().map(|f| apply_flips(&anchor, f)).collect();
        let prices: Vec<u64> = candidates
            .iter()
            .map(|f| evaluator.price(f).to_bits())
            .collect();
        let exact: Vec<u64> = scan_prices(&engine, &anchor, &to)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(prices, exact);
        // The tier is not idle here: it sketches some term of these pairs.
        assert!(to.iter().any(|t| {
            let iv = engine.distance_interval(&anchor, t).unwrap();
            iv.lower < iv.upper
        }));
    }

    #[test]
    fn ordered_distance_is_zero_for_same_state() {
        let g = path_graph(6);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = NetworkState::from_values(&[1, 0, -1, 0, 1, 0]);
        assert_eq!(
            scan_prices(&engine, &s, std::slice::from_ref(&s)),
            vec![0.0]
        );
        let evaluator = CandidateEvaluator::new(&engine, s);
        assert_eq!(evaluator.price(&[]), 0.0);
    }

    #[test]
    fn candidates_reuse_cached_rows() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let from = NetworkState::from_values(&[1, 1, 0, 0, 0, 0, -1, 0]);
        let evaluator = CandidateEvaluator::new(&engine, from);
        let mut flips = vec![(3, Opinion::Positive)];
        let _ = evaluator.price(&flips);
        let rows_after_first = evaluator.cached_rows();
        // Same differing users => no new rows.
        let _ = evaluator.price(&flips);
        assert_eq!(evaluator.cached_rows(), rows_after_first);
        // One extra differing user => at most a few more rows.
        flips.push((4, Opinion::Negative));
        let _ = evaluator.price(&flips);
        assert!(evaluator.cached_rows() >= rows_after_first);
    }

    #[test]
    fn ordered_tracks_full_snd_direction_terms() {
        // ordered(from, to) must equal the two forward terms of the full
        // breakdown when geometries agree.
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let a = NetworkState::from_values(&[1, 0, 0, -1, 0, 0, 1, 0]);
        let b = NetworkState::from_values(&[1, 1, 0, -1, -1, 0, 0, 0]);
        let evaluator = CandidateEvaluator::new(&engine, a.clone());
        let got = evaluator.price(&snd_models::flips_between(&a, &b));
        let breakdown = engine.breakdown(&a, &b);
        let expected = breakdown.forward_pos + breakdown.forward_neg;
        assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    }

    #[test]
    fn batch_scoring_matches_one_by_one() {
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let from = NetworkState::from_values(&[1, 1, 0, 0, 0, 0, 0, 0, -1, 0]);
        let evaluator = CandidateEvaluator::new(&engine, from);
        let candidates: Vec<Vec<(NodeId, Opinion)>> =
            (0..6).map(|i| vec![(i + 2, Opinion::Positive)]).collect();
        let batch = evaluator.price_candidates(&candidates);
        for (c, &d) in candidates.iter().zip(&batch) {
            assert_eq!(d, evaluator.price(c), "batch equals single eval");
        }
    }

    fn test_configs() -> Vec<SndConfig> {
        vec![
            SndConfig::default(), // per-bin banks
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 3 },
                gamma: GammaPolicy::Constant(5),
                banks_per_cluster: 2,
                ..Default::default()
            },
            SndConfig {
                clusters: ClusterSpec::BfsPartition { clusters: 2 },
                gamma: GammaPolicy::Eccentricity,
                ..Default::default()
            },
        ]
    }

    fn random_state(n: usize, rng: &mut SmallRng) -> NetworkState {
        NetworkState::from_values(&(0..n).map(|_| rng.gen_range(-1..=1)).collect::<Vec<i8>>())
    }

    fn random_flips(n: usize, count: usize, rng: &mut SmallRng) -> Vec<(NodeId, Opinion)> {
        (0..count)
            .map(|_| {
                (
                    rng.gen_range(0..n as NodeId),
                    Opinion::from_value(rng.gen_range(-1..=1)),
                )
            })
            .collect()
    }

    #[test]
    fn flip_pricing_is_bit_identical_to_the_sequential_scan() {
        let mut rng = SmallRng::seed_from_u64(51);
        let g = barabasi_albert(30, 2, &mut rng);
        for config in test_configs() {
            let engine = SndEngine::new(&g, config);
            let anchor = random_state(30, &mut rng);
            let evaluator = CandidateEvaluator::new(&engine, anchor.clone());
            let candidates: Vec<Vec<(NodeId, Opinion)>> = (0..12)
                .map(|t| random_flips(30, 1 + t % 5, &mut rng))
                .collect();
            let states: Vec<NetworkState> =
                candidates.iter().map(|f| apply_flips(&anchor, f)).collect();
            let scratch = scan_prices(&engine, &anchor, &states);
            let par = evaluator.price_candidates(&candidates);
            let seq = evaluator.price_candidates_seq(&candidates);
            for i in 0..candidates.len() {
                assert_eq!(par[i].to_bits(), scratch[i].to_bits(), "candidate {i}");
                assert_eq!(par[i].to_bits(), seq[i].to_bits(), "par vs seq {i}");
            }
        }
    }

    #[test]
    fn patch_unpatch_repatch_round_trip_is_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(77);
        let g = barabasi_albert(24, 2, &mut rng);
        for config in test_configs() {
            let engine = SndEngine::new(&g, config);
            let anchor = random_state(24, &mut rng);
            let mut evaluator = CandidateEvaluator::new(&engine, anchor.clone());
            let probes: Vec<Vec<(NodeId, Opinion)>> = (0..6)
                .map(|t| random_flips(24, 1 + t % 3, &mut rng))
                .collect();
            let base_prices = evaluator.price_candidates_seq(&probes);
            let base_pos = evaluator.bundle.pos.geom.clone();

            let flips = random_flips(24, 3, &mut rng);
            evaluator.patch(&flips);
            assert_eq!(evaluator.depth(), 1);
            assert_eq!(evaluator.anchor(), &apply_flips(&anchor, &flips));
            // Patched geometry and prices match a fresh evaluator at the
            // patched anchor, bit for bit.
            let fresh = CandidateEvaluator::new(&engine, evaluator.anchor().clone());
            assert_eq!(evaluator.bundle.pos.geom, fresh.bundle.pos.geom);
            assert_eq!(evaluator.bundle.neg.geom, fresh.bundle.neg.geom);
            let patched_prices = evaluator.price_candidates_seq(&probes);
            let fresh_prices = fresh.price_candidates_seq(&probes);
            for (a, b) in patched_prices.iter().zip(&fresh_prices) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            // Unpatch restores the original bundle bit-identically.
            assert!(evaluator.unpatch());
            assert_eq!(evaluator.depth(), 0);
            assert_eq!(evaluator.anchor(), &anchor);
            assert_eq!(evaluator.bundle.pos.geom, base_pos);
            let restored = evaluator.price_candidates_seq(&probes);
            for (a, b) in restored.iter().zip(&base_prices) {
                assert_eq!(a.to_bits(), b.to_bits());
            }

            // Repatching the same flips reproduces the patched state.
            evaluator.patch(&flips);
            let repatched = evaluator.price_candidates_seq(&probes);
            for (a, b) in repatched.iter().zip(&patched_prices) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert!(evaluator.unpatch());
            assert!(!evaluator.unpatch(), "stack exhausted");
        }
    }

    #[test]
    fn patch_stack_nests() {
        let g = path_graph(10);
        let engine = SndEngine::new(&g, SndConfig::default());
        let anchor = NetworkState::from_values(&[1, 0, 0, 0, -1, 0, 0, 1, 0, 0]);
        let mut ev = CandidateEvaluator::new(&engine, anchor.clone());
        let p0 = ev.price(&[(2, Opinion::Positive)]);
        ev.patch(&[(3, Opinion::Negative)]);
        ev.patch(&[(5, Opinion::Positive)]);
        assert_eq!(ev.depth(), 2);
        assert!(ev.unpatch());
        assert!(ev.unpatch());
        assert_eq!(ev.anchor(), &anchor);
        assert_eq!(p0.to_bits(), ev.price(&[(2, Opinion::Positive)]).to_bits());
    }
}
