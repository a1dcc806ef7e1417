//! Measurement-driven lease autotuning.
//!
//! The static [`auto_tile`](snd_core::auto_tile) heuristic has to guess a
//! tile size once, up front, from `(states, nodes)` alone — it cannot
//! know that tile 0's states share no geometry with anything else, or
//! that one worker is a 4× faster machine. The orchestrator replaces the
//! guess with measurement on two axes:
//!
//! * **Grid**: [`orchestrate_tile`] picks a *finer* base grid than
//!   `auto_tile` (never coarser). Small tiles are the scheduling atoms;
//!   what `auto_tile` buys with big tiles — amortized per-state geometry
//!   — leases buy back twice: a lease is a *run of adjacent tiles*,
//!   which share block-row states inside one worker invocation, and it
//!   starts next to the connection's previous lease (*block affinity*),
//!   whose final tile's bundles the worker still holds.
//! * **Leases**: the [`Autotuner`] predicts each tile's cost from the
//!   compute seconds of `W` lines (its own run's, or an earlier run's
//!   checkpoint via [`warm_start`](Autotuner::warm_start)) and composes
//!   leases to a target duration — slow tiles ride alone (the "split"),
//!   fast tiles coalesce (the "merge"), and a worker's speed scales its
//!   lease (fast workers get more, stragglers less, which is also what
//!   keeps re-dispatch cheap). The same `W` seconds give that speed
//!   ([`speed`](Autotuner::speed)): the fleet's seconds per pair over
//!   the worker's own.
//!
//! Until the first measurement lands, every lease is a single tile: the
//! first round of results *is* the calibration run.

use std::collections::BTreeSet;

use snd_core::{TileGrid, TileSet};

/// Hard cap on tiles per lease: bounds what one worker death can strand,
/// whatever the cost model claims.
pub const MAX_LEASE_TILES: usize = 64;

/// Picks the orchestrated base-grid tile size. Finer than (never coarser
/// than) [`auto_tile`](snd_core::auto_tile): roughly 24 block-rows
/// instead of 8, clamped to the static heuristic's choice, so the
/// autotuner has enough scheduling atoms to compose uneven leases from.
///
/// Like `auto_tile` this is a pure function of the workload shape —
/// workers derive the same grid from the coordinator's `GRID` line, so
/// determinism of the artifact never depends on it.
pub fn orchestrate_tile(states: usize, nodes: usize) -> usize {
    let k = states.max(2);
    let fine = k.div_ceil(24).max(1);
    fine.min(snd_core::auto_tile(states, nodes))
}

/// Per-tile cost model plus lease composition. Costs are wall seconds;
/// unmeasured tiles are estimated from the observed per-pair rate.
#[derive(Debug)]
pub struct Autotuner {
    grid: TileGrid,
    /// Measured (or warm-started) seconds per tile.
    measured: Vec<Option<f64>>,
    /// EWMA of observed seconds-per-pair across all measurements.
    rate: Option<f64>,
    /// Target lease duration in seconds.
    target_s: f64,
}

impl Autotuner {
    /// A tuner for `grid`, aiming leases at `target_s` wall seconds.
    pub fn new(grid: TileGrid, target_s: f64) -> Self {
        Autotuner {
            measured: vec![None; grid.tile_count()],
            rate: None,
            target_s: target_s.max(1e-3),
            grid,
        }
    }

    /// Seeds the cost model from a resumed checkpoint's `W` lines — the
    /// warm start that makes rerun leases well-shaped from the first
    /// dispatch.
    pub fn warm_start(&mut self, set: &TileSet) {
        for id in 0..self.grid.tile_count() {
            if let Some(secs) = set.timing(id) {
                self.observe(id, secs);
            }
        }
    }

    /// Records one observed tile time (from a `W` result line).
    /// Non-finite or negative observations are ignored — a corrupt
    /// measurement must not poison the model.
    pub fn observe(&mut self, id: usize, secs: f64) {
        if id >= self.measured.len() || !secs.is_finite() || secs < 0.0 {
            return;
        }
        self.measured[id] = Some(secs);
        let pairs = self.grid.pair_count(id);
        if pairs > 0 {
            let r = secs / pairs as f64;
            // EWMA with a heavy new-sample weight: the model should
            // track warming caches and shifting load, not average over
            // the cold start forever.
            self.rate = Some(match self.rate {
                Some(old) => 0.7 * r + 0.3 * old,
                None => r,
            });
        }
    }

    /// A worker's speed relative to the fleet, from the seconds and pairs
    /// of the `W` lines it won: the fleet's seconds per pair over its
    /// own, 1.0 until it has timed a pair. `compose` clamps it.
    pub fn speed(&self, secs: f64, pairs: usize) -> f64 {
        match self.rate {
            Some(fleet) if pairs > 0 && secs > 0.0 => fleet * pairs as f64 / secs,
            _ => 1.0,
        }
    }

    /// Predicted cost of a tile: its own measurement, else the rate
    /// model, else `None` (nothing measured yet anywhere).
    pub fn predict(&self, id: usize) -> Option<f64> {
        if let Some(secs) = self.measured.get(id).copied().flatten() {
            return Some(secs);
        }
        self.rate.map(|r| r * self.grid.pair_count(id) as f64)
    }

    /// Composes the next lease from `pending` (ascending, so a lease is
    /// a run of adjacent tiles sharing block-row geometry), removing the
    /// chosen tiles. `speed` ([`speed`](Self::speed)) scales the target,
    /// clamped to 0.25–4×: a worker measured twice as fast as the fleet
    /// gets a lease twice as long, an unmeasured worker the base target.
    ///
    /// `after` is the connection's previous lease (empty for its first).
    /// The lease starts at the lowest pending tile that shares a block
    /// (a block row or block column) with it, whose states' bundles the
    /// worker kept from that lease; with none, at the lowest pending tile.
    ///
    /// Shape rules, in order:
    /// * no measurements at all → single tile (calibration);
    /// * a tile predicted ≥ target rides alone (split: a straggler tile
    ///   must not drag neighbours into its re-dispatch blast radius);
    /// * otherwise coalesce until the target (or [`MAX_LEASE_TILES`]) is
    ///   reached.
    pub fn compose(
        &self,
        pending: &mut BTreeSet<usize>,
        speed: f64,
        after: &[usize],
    ) -> Vec<usize> {
        let target = self.target_s * speed.clamp(0.25, 4.0);
        let blocks: BTreeSet<usize> = after
            .iter()
            .flat_map(|&id| {
                let (bi, bj) = self.grid.coords(id);
                [bi, bj]
            })
            .collect();
        let shares = |id: usize| {
            let (bi, bj) = self.grid.coords(id);
            blocks.contains(&bi) || blocks.contains(&bj)
        };
        let Some(start) = pending
            .iter()
            .copied()
            .find(|&id| shares(id))
            .or_else(|| pending.first().copied())
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut sum = 0.0;
        while let Some(&id) = pending.range(start..).next() {
            let Some(p) = self.predict(id) else {
                // Calibration: nothing measured yet — lease one tile.
                if out.is_empty() {
                    pending.remove(&id);
                    out.push(id);
                }
                return out;
            };
            if !out.is_empty() && (sum + p > target || out.len() >= MAX_LEASE_TILES) {
                break;
            }
            pending.remove(&id);
            out.push(id);
            sum += p;
            if p >= target {
                // A heavy tile fills its lease alone.
                break;
            }
        }
        out
    }

    /// Predicted wall seconds of a tile list (for lease deadlines);
    /// unpredictable tiles count as one target each.
    pub fn predict_lease(&self, tiles: &[usize]) -> f64 {
        tiles
            .iter()
            .map(|&id| self.predict(id).unwrap_or(self.target_s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_core::TileLine;

    #[test]
    fn orchestrate_tile_is_finer_than_auto_tile_never_coarser() {
        // The skewed-workload sizes the static heuristic was tuned for:
        // the orchestrated grid demonstrably differs (finer), giving the
        // tuner atoms to compose from.
        let cases = [(256usize, 100_000usize), (128, 50_000), (256, 1_000_000)];
        for (states, nodes) in cases {
            let stat = snd_core::auto_tile(states, nodes);
            let orch = orchestrate_tile(states, nodes);
            assert!(orch >= 1);
            assert!(orch <= stat, "k={states} n={nodes}: {orch} > {stat}");
            assert!(orch < stat, "k={states} n={nodes}: expected finer grid");
            assert!(
                TileGrid::new(states, orch).tile_count() > TileGrid::new(states, stat).tile_count()
            );
        }
        // Tiny grids collapse to the static answer rather than below 1.
        assert_eq!(orchestrate_tile(4, 1_000), 1);
        assert!(orchestrate_tile(0, 0) >= 1);
    }

    #[test]
    fn leases_start_singleton_then_coalesce_and_split_on_skew() {
        // 16 states, tile 2 → 36 tiles. Tile 0 is pathologically slow
        // (skewed workload); the rest are fast.
        let grid = TileGrid::new(16, 2);
        let mut tuner = Autotuner::new(grid, 0.1);
        let mut pending: BTreeSet<usize> = (0..grid.tile_count()).collect();

        // Cold: calibration leases are singletons — exactly the static
        // one-tile-at-a-time behaviour auto_tile sharding gives.
        let first = tuner.compose(&mut pending, 1.0, &[]);
        assert_eq!(first.len(), 1);

        // Measurements arrive: tile 0 took 1s, tiles 1..10 took 2ms.
        tuner.observe(0, 1.0);
        for id in 1..10 {
            tuner.observe(id, 0.002);
        }

        // Re-queue everything and compose the full schedule.
        pending = (0..grid.tile_count()).collect();
        let mut leases = Vec::new();
        while !pending.is_empty() {
            leases.push(tuner.compose(&mut pending, 1.0, &[]));
        }
        // The slow tile rides alone (split)...
        let with_zero = leases.iter().find(|l| l.contains(&0)).unwrap();
        assert_eq!(with_zero, &vec![0], "slow tile must not drag neighbours");
        // ...fast tiles coalesce (autotuned sizing differs from the
        // static uniform grid)...
        assert!(
            leases.iter().any(|l| l.len() >= 4),
            "fast tiles should coalesce: {leases:?}"
        );
        // ...and every tile is leased exactly once.
        let mut all: Vec<usize> = leases.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..grid.tile_count()).collect::<Vec<_>>());
    }

    #[test]
    fn fast_workers_get_longer_leases() {
        let grid = TileGrid::new(16, 2);
        let mut tuner = Autotuner::new(grid, 0.1);
        for id in 0..grid.tile_count() {
            tuner.observe(id, 0.01);
        }
        let mut slow_q: BTreeSet<usize> = (0..grid.tile_count()).collect();
        let mut fast_q = slow_q.clone();
        let slow = tuner.compose(&mut slow_q, 0.25, &[]);
        let fast = tuner.compose(&mut fast_q, 4.0, &[]);
        assert!(
            fast.len() > slow.len(),
            "fast {} vs slow {}",
            fast.len(),
            slow.len()
        );
    }

    #[test]
    fn leases_start_next_to_the_previous_lease() {
        // 16 states, tile 2 → 8 blocks, 36 tiles.
        let grid = TileGrid::new(16, 2);
        let mut tuner = Autotuner::new(grid, 0.1);
        let all: BTreeSet<usize> = (0..grid.tile_count()).collect();
        let after = [grid.id(3, 5)];

        // Calibration leases are singletons: the lowest pending tile that
        // shares block 3 or 5, not the lowest pending tile.
        let mut pending = all.clone();
        assert_eq!(
            tuner.compose(&mut pending, 1.0, &after),
            vec![grid.id(0, 3)]
        );
        assert_eq!(tuner.compose(&mut pending, 1.0, &[]), vec![0]);
        // Tiles that share block 5 only (column 5, or row 5) count too.
        let mut rest: BTreeSet<usize> = [grid.id(1, 2), grid.id(2, 5), grid.id(5, 6)].into();
        assert_eq!(tuner.compose(&mut rest, 1.0, &after), vec![grid.id(2, 5)]);
        assert_eq!(tuner.compose(&mut rest, 1.0, &after), vec![grid.id(5, 6)]);
        // Nothing shares a block: fall back to the lowest pending tile.
        let mut far: BTreeSet<usize> = [grid.id(6, 7), grid.id(1, 2)].into();
        assert_eq!(tuner.compose(&mut far, 1.0, &after), vec![grid.id(1, 2)]);

        // Measured: coalesce upward from the affine start, as without one.
        for id in 0..grid.tile_count() {
            tuner.observe(id, 0.01);
        }
        let mut pending = all;
        let lease = tuner.compose(&mut pending, 1.0, &after);
        let start = grid.id(0, 3);
        assert!(lease.len() > 1, "{lease:?}");
        assert_eq!(lease, (start..start + lease.len()).collect::<Vec<_>>());
    }

    #[test]
    fn warm_start_seeds_the_model_from_checkpoint_timings() {
        let grid = TileGrid::new(8, 2);
        let mut set = TileSet::empty(grid, 0);
        for id in 0..grid.tile_count() {
            set.accept(TileLine::Values {
                id,
                values: vec![0.0; grid.pair_count(id)],
            });
            set.accept(TileLine::Timing {
                id,
                seconds: if id == 0 { 2.0 } else { 0.001 },
            });
        }
        let mut tuner = Autotuner::new(grid, 0.1);
        assert_eq!(tuner.predict(0), None, "cold model predicts nothing");
        tuner.warm_start(&set);
        assert_eq!(tuner.predict(0), Some(2.0));
        // The very first composed lease is already skew-shaped: tile 0
        // alone, despite zero observations in *this* run.
        let mut pending: BTreeSet<usize> = (0..grid.tile_count()).collect();
        assert_eq!(tuner.compose(&mut pending, 1.0, &[]), vec![0]);
        let next = tuner.compose(&mut pending, 1.0, &[]);
        assert!(next.len() > 1, "fast tiles coalesce from the warm start");
    }

    #[test]
    fn corrupt_observations_are_ignored() {
        let grid = TileGrid::new(8, 2);
        let mut tuner = Autotuner::new(grid, 0.1);
        tuner.observe(0, f64::NAN);
        tuner.observe(1, f64::INFINITY);
        tuner.observe(2, -1.0);
        tuner.observe(999, 1.0);
        assert_eq!(tuner.predict(0), None);
        assert_eq!(tuner.predict(1), None);
        assert_eq!(tuner.predict(2), None);
    }
}
