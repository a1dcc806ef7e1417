//! Tile-based sharding of the all-pairs SND matrix, with
//! checkpoint/resume and shard merging.
//!
//! The all-pairs matrix is embarrassingly block-parallel: the strict upper
//! triangle of a `k × k` [`DistanceMatrix`] is decomposed by a [`TileGrid`]
//! into fixed-size tiles over a block grid (block `b` covers state indices
//! `[b·tile, min((b+1)·tile, k))`; tile `(bi, bj)` with `bi ≤ bj` holds
//! every pair `(i, j)` with `i < j`, `i ∈ block bi`, `j ∈ block bj`).
//! Tiles get deterministic IDs — row-major over the upper-triangular block
//! grid including the diagonal — so any two machines agree on what tile 17
//! means for a given `(k, tile)`.
//!
//! [`SndEngine::pairwise_tiles`] computes any subset of tiles selected by
//! a [`ShardPlan`]. Every entry point runs one tile loop, which prices
//! each tile's pairs as [`SndEngine::pairwise_distances`] prices all
//! pairs — the matrix is the full plan over a single tile (see
//! [`crate::batch`]): EMD\* terms fan out over the rayon
//! pool *inside* each tile, per-state geometry bundles (and their SSSP row
//! caches) are shared across every tile of the run and dropped as soon as
//! no remaining tile needs them, and each finished tile can be appended to
//! a checkpoint file so an interrupted run resumes without recomputation
//! ([`SndEngine::pairwise_tiles_checkpointed`]). Bundles come from one
//! snapshot-ordered materializer: each is the previous one advanced
//! through their delta where the plan walks forward, and built fresh
//! where it jumps. The series entry point
//! ([`SndEngine::series_tiles_checkpointed`]) is the superdiagonal plan.
//!
//! # Shard plans
//!
//! A [`ShardPlan`] names the tiles one worker computes:
//!
//! * [`ShardPlan::full`] — every tile (single-machine, resumable);
//! * [`ShardPlan::round_robin`] — tile IDs with `id % shard_count ==
//!   shard_index`: `shard_count` independent machines each produce a
//!   partial artifact covering a disjoint tile set whose union is the full
//!   matrix;
//! * [`ShardPlan::superdiagonal`] — only the tiles containing adjacent
//!   transitions `(t−1, t)`, the series workload;
//! * [`ShardPlan::explicit`] — any caller-chosen tile subset.
//!
//! [`TileSet::merge`] reassembles partial artifacts, rejecting
//! conflicting overlaps (the same tile with different bits) and
//! mismatched grids/datasets; [`TileSet::to_matrix`] validates that no
//! tile is missing (holes) before producing the full [`DistanceMatrix`].
//! Merging the tiles of any plan partition is bit-identical to
//! [`SndEngine::pairwise_distances_seq`] — property-tested in
//! `tests/shard_matrix.rs`.
//!
//! # Checkpoint / artifact format
//!
//! Checkpoints and shard artifacts are the same line-oriented text format:
//!
//! ```text
//! SNDSHARD v1
//! k <states> tile <tile_size> fingerprint <hex64>
//! T <tile_id> <pair_count> <f64-bits-hex> <f64-bits-hex> ...
//! I <tile_id> <pair_count> <lo-bits-hex> <hi-bits-hex> ...
//! W <tile_id> <seconds-bits-hex>
//! T ...
//! ```
//!
//! The fingerprint is a 64-bit FNV-1a hash over everything the distances
//! depend on — graph topology, engine configuration, and the snapshot set
//! ([`SndEngine::shard_fingerprint`]) — so a checkpoint is never resumed
//! against a different dataset, graph, or configuration. Distances are
//! serialized as the hex of their IEEE-754 bits — round-trips are exact,
//! which is what makes resume bit-identical.
//!
//! When the approximate tier is active, each `T` line is followed by an
//! `I` line carrying the tile's certified `[lo, hi]` interval pairs (same
//! pair order, two hex words per pair), so merged shard matrices stay
//! re-certifiable ([`TileSet::pair_interval`]). Readers tolerate both
//! `T`-only files (exact-tier runs and pre-interval checkpoints — the
//! tile loads with no interval) and a trailing `T` whose `I` line was
//! lost to a kill.
//! Each `T` line (after its optional `I` line) may be followed by a `W`
//! line recording the tile's observed compute wall time in seconds (hex
//! of the IEEE-754 bits, like distances). Timings are *advisory*: the
//! orchestrator's autotuner warm-starts its per-tile cost model from
//! them, but they never participate in artifact identity — two artifacts
//! with identical tiles and different timings are equal — and readers
//! predating the `W` line simply treated such files as ending at the
//! first `W` (new-format files are not readable by old readers; old files
//! load fine here).
//! Tile lines are appended (and flushed) one at a time as tiles finish; on
//! load, a truncated or corrupt trailing line (the half-written remnant of
//! an interrupted run) is discarded and its tile recomputed.
//!
//! # CLI workflow
//!
//! ```text
//! # each machine computes one shard of the 2-way split, resumably:
//! snd shard --data snaps.json --shard 0/2 --checkpoint part0.snd
//! snd shard --data snaps.json --shard 1/2 --checkpoint part1.snd
//! # kill/restart either command: completed tiles are not recomputed.
//!
//! # reassemble the full matrix (validates overlap/holes/fingerprints):
//! snd shard merge --out matrix.json part0.snd part1.snd
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::Path;

use snd_models::NetworkState;

use crate::approx::SndInterval;
use crate::batch::{fold_terms, DistanceMatrix};
use crate::delta::{chain_geometry, DeltaStateGeometry};
use crate::engine::{SndEngine, StateGeometry};

/// Default tile edge (states per block): `8 × 8` tiles hold up to 64
/// pairs — coarse enough that checkpoint appends are rare, fine enough
/// that a killed run loses little work. Prefer [`auto_tile`], which sizes
/// the tile from the workload instead.
pub const DEFAULT_TILE: usize = 8;

/// Picks a tile size from the workload shape — the first step of tile-size
/// autotuning.
///
/// Two forces pull in opposite directions. More, smaller tiles balance
/// round-robin shard plans and lose less work on a kill (checkpoint
/// granularity). But the *duplicated* cost of a sharded run is per-state
/// geometry: every shard computes geometry bundles for each state its
/// tiles touch, and small tiles scatter each state's pairs across many
/// shards — so the more expensive geometry is (bigger graphs), the larger
/// the tile should be. The heuristic aims for roughly eight block-rows
/// and caps the tile by a graph-size-dependent ceiling.
///
/// Deliberately a function of `(states, nodes)` only — never thread count
/// or machine state — so every shard of a distributed run agrees on the
/// grid without coordination.
pub fn auto_tile(states: usize, nodes: usize) -> usize {
    let k = states.max(2);
    // ~8 block-rows => ~36 upper-triangle tiles: enough for round-robin
    // balance at typical shard counts.
    let balance = k.div_ceil(8);
    // Geometry cost grows with the graph; larger graphs take larger tiles
    // so each state's row of pairs stays on fewer shards.
    let cap = if nodes > 200_000 {
        32
    } else if nodes > 20_000 {
        16
    } else {
        8
    };
    balance.clamp(2, cap).min(k)
}

const MAGIC: &str = "SNDSHARD v1";

/// The most missing tile IDs a [`ShardError::Holes`] lists.
const HOLES_LISTED: usize = 1 << 16;

/// Hook invoked with each finished tile before it is recorded — the
/// checkpoint append point. The third argument is the tile's certified
/// `[lo, hi]` pairs when the approximate tier produced them; the fourth
/// is the tile's observed compute wall time in seconds (geometry
/// materialization attributed to the tile that triggered it), which the
/// checkpoint persists as a `W` line and the orchestrator's autotuner
/// feeds on.
pub type OnTile<'a> =
    dyn FnMut(usize, &[f64], Option<&[(f64, f64)]>, f64) -> Result<(), ShardError> + 'a;

/// Errors from shard planning, checkpoint IO, and merging.
#[derive(Debug)]
pub enum ShardError {
    /// Invalid shard arithmetic (e.g. `shard_index ≥ shard_count`).
    InvalidPlan(String),
    /// Underlying file IO failed.
    Io(std::io::Error),
    /// A checkpoint/artifact file is not in the expected format.
    Format(String),
    /// A checkpoint/artifact belongs to a different grid or dataset.
    Mismatch(String),
    /// Two artifacts disagree on the same tile's values.
    Overlap {
        /// The conflicting tile.
        tile: usize,
    },
    /// Tiles missing from a merge that must cover the full matrix.
    Holes {
        /// Missing tile IDs, ascending: all of them, or the first 65,536
        /// when there are more (display shows the first few).
        missing: Vec<usize>,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::InvalidPlan(m) => write!(f, "invalid shard plan: {m}"),
            ShardError::Io(e) => write!(f, "shard checkpoint IO: {e}"),
            ShardError::Format(m) => write!(f, "bad shard file: {m}"),
            ShardError::Mismatch(m) => write!(f, "shard file mismatch: {m}"),
            ShardError::Overlap { tile } => {
                write!(f, "conflicting values for tile {tile} across artifacts")
            }
            ShardError::Holes { missing } => write!(
                f,
                "matrix has {}{} missing tile(s), first: {:?}",
                if missing.len() == HOLES_LISTED {
                    "at least "
                } else {
                    ""
                },
                missing.len(),
                &missing[..missing.len().min(8)]
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Decomposition of the strict upper triangle of a `k × k` matrix into
/// fixed-size tiles with deterministic IDs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    k: usize,
    tile: usize,
}

impl TileGrid {
    /// Grid over `k` states with `tile × tile` blocks (`tile ≥ 1`).
    ///
    /// # Panics
    /// If `tile` is zero, or if `k` is so large that the grid's counts
    /// overflow `usize` (`k²` is not representable).
    pub fn new(k: usize, tile: usize) -> Self {
        assert!(tile >= 1, "tile size must be at least 1");
        match Self::checked(k, tile) {
            Some(grid) => grid,
            None => panic!("a tile grid over {k} states overflows usize"),
        }
    }

    /// [`new`](Self::new) returning `None` instead of panicking. Every
    /// count a grid reports — pairs per tile, tiles, pairs — is at most
    /// `k²` or `nb·(nb + 1)` for `nb` blocks per axis, so the grid fits
    /// when both are representable. Checkpoint headers are read through
    /// here: a header claiming a grid that does not fit is a format
    /// error, never an overflow.
    pub(crate) fn checked(k: usize, tile: usize) -> Option<Self> {
        if tile == 0 {
            return None;
        }
        let nb = k.div_ceil(tile);
        k.checked_mul(k)?;
        nb.checked_mul(nb + 1)?;
        Some(TileGrid { k, tile })
    }

    /// Number of states (`k`).
    pub fn states(&self) -> usize {
        self.k
    }

    /// Tile edge length.
    pub fn tile_size(&self) -> usize {
        self.tile
    }

    /// Number of blocks per axis (`⌈k / tile⌉`).
    pub fn blocks(&self) -> usize {
        self.k.div_ceil(self.tile)
    }

    /// Number of tiles: the upper-triangular block grid including the
    /// diagonal.
    pub fn tile_count(&self) -> usize {
        let nb = self.blocks();
        nb * (nb + 1) / 2
    }

    /// State-index range of block `b`.
    fn range(&self, b: usize) -> Range<usize> {
        (b * self.tile)..((b + 1) * self.tile).min(self.k)
    }

    /// Tile ID of block coordinates `(bi, bj)` with `bi ≤ bj`: row-major
    /// over the upper-triangular block grid.
    pub fn id(&self, bi: usize, bj: usize) -> usize {
        let nb = self.blocks();
        assert!(bi <= bj && bj < nb, "block coords out of range");
        bi * nb - bi * (bi.saturating_sub(1)) / 2 - bi + bj
    }

    /// Block coordinates `(bi, bj)` of a tile ID, in O(1).
    pub fn coords(&self, id: usize) -> (usize, usize) {
        let count = self.tile_count();
        assert!(id < count, "tile id out of range");
        // Counted back from the last tile, block row `nb − 1 − t` holds
        // ranks `t(t+1)/2 ..= t(t+1)/2 + t`, so the row is the largest `t`
        // with `t(t+1)/2 ≤ rank`: `isqrt(2·rank)` or one less. Integer
        // `isqrt` stays exact where `f64` would not (ids reach ~2^62), and
        // `t(t+1) ≤ nb(nb+1)` cannot overflow a grid that `checked` let in.
        let rank = count - 1 - id;
        let mut t = (2 * rank).isqrt();
        if t * (t + 1) / 2 > rank {
            t -= 1;
        }
        let nb = self.blocks();
        (nb - 1 - t, nb - 1 - (rank - t * (t + 1) / 2))
    }

    /// The `(i, j)` pairs (`i < j`) of one tile, in the fixed row-major
    /// order tile values are serialized in.
    pub fn pairs(&self, id: usize) -> Vec<(usize, usize)> {
        let (bi, bj) = self.coords(id);
        let ri = self.range(bi);
        let rj = self.range(bj);
        let mut out = Vec::with_capacity(self.pair_count(id));
        for i in ri {
            for j in rj.clone() {
                if i < j {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Number of pairs in a tile (without materializing them).
    pub fn pair_count(&self, id: usize) -> usize {
        let (bi, bj) = self.coords(id);
        let wi = self.range(bi).len();
        let wj = self.range(bj).len();
        if bi == bj {
            wi * wi.saturating_sub(1) / 2
        } else {
            wi * wj
        }
    }

    /// IDs of the tiles containing the superdiagonal pairs `(t−1, t)` —
    /// the tiles a series workload needs.
    pub fn superdiagonal_tiles(&self) -> Vec<usize> {
        let nb = self.blocks();
        let mut ids = Vec::new();
        for b in 0..nb {
            ids.push(self.id(b, b));
            if b + 1 < nb {
                ids.push(self.id(b, b + 1));
            }
        }
        ids.sort_unstable();
        ids
    }
}

/// The tile subset one worker computes.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    grid: TileGrid,
    tiles: Vec<usize>,
}

impl ShardPlan {
    /// Every tile of the grid (single-machine, resumable, full matrix).
    pub fn full(grid: TileGrid) -> Self {
        ShardPlan {
            grid,
            tiles: (0..grid.tile_count()).collect(),
        }
    }

    /// Round-robin split: tile IDs with `id % shard_count == shard_index`.
    /// The `shard_count` plans partition the grid exactly.
    pub fn round_robin(
        grid: TileGrid,
        shard_index: usize,
        shard_count: usize,
    ) -> Result<Self, ShardError> {
        if shard_count == 0 {
            return Err(ShardError::InvalidPlan("shard count must be ≥ 1".into()));
        }
        if shard_index >= shard_count {
            return Err(ShardError::InvalidPlan(format!(
                "shard index {shard_index} out of range for {shard_count} shard(s)"
            )));
        }
        Ok(ShardPlan {
            grid,
            tiles: (0..grid.tile_count())
                .filter(|id| id % shard_count == shard_index)
                .collect(),
        })
    }

    /// Only the tiles covering adjacent transitions `(t−1, t)`.
    pub fn superdiagonal(grid: TileGrid) -> Self {
        ShardPlan {
            grid,
            tiles: grid.superdiagonal_tiles(),
        }
    }

    /// An arbitrary tile subset (deduplicated, ascending order).
    pub fn explicit(grid: TileGrid, mut tiles: Vec<usize>) -> Result<Self, ShardError> {
        tiles.sort_unstable();
        tiles.dedup();
        if let Some(&bad) = tiles.iter().find(|&&id| id >= grid.tile_count()) {
            return Err(ShardError::InvalidPlan(format!(
                "tile {bad} out of range for {} tile(s)",
                grid.tile_count()
            )));
        }
        Ok(ShardPlan { grid, tiles })
    }

    /// The grid this plan tiles.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The plan's tile IDs, ascending.
    pub fn tile_ids(&self) -> &[usize] {
        &self.tiles
    }
}

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// 64-bit FNV-1a fingerprint of a snapshot set: state count, per-state
/// length, and every opinion value. The engine entry points extend this
/// with the graph and configuration
/// ([`SndEngine::shard_fingerprint`]) — distances depend on all three.
pub fn states_fingerprint(states: &[NetworkState]) -> u64 {
    let mut h = Fnv::new();
    eat_states(&mut h, states);
    h.0
}

fn eat_states(h: &mut Fnv, states: &[NetworkState]) {
    h.eat(&(states.len() as u64).to_le_bytes());
    for s in states {
        h.eat(&(s.len() as u64).to_le_bytes());
        for op in s.opinions() {
            h.eat(&[op.value() as u8]);
        }
    }
}

/// A set of computed tiles over one grid and dataset: a partial (or full)
/// all-pairs artifact. Produced by the engine's tile entry points and by
/// [`TileSet::load`]; reassembled by [`TileSet::merge`].
#[derive(Clone, Debug)]
pub struct TileSet {
    grid: TileGrid,
    fingerprint: u64,
    tiles: BTreeMap<usize, Vec<f64>>,
    /// Certified `[lo, hi]` envelopes for tiles computed by an active
    /// approximate tier, keyed like `tiles` (same pair order). Exact-tier
    /// tiles — and tiles loaded from pre-interval checkpoints — have no
    /// entry.
    intervals: BTreeMap<usize, Vec<(f64, f64)>>,
    /// Observed per-tile compute wall seconds (`W` checkpoint lines) —
    /// advisory autotuner measurements, never part of artifact identity.
    timings: BTreeMap<usize, f64>,
}

/// Artifact identity is the grid, the dataset fingerprint, and the tile
/// values/intervals. Timings are wall-clock *measurements* — they differ
/// between bit-identical runs — so equality deliberately ignores them.
impl PartialEq for TileSet {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.fingerprint == other.fingerprint
            && self.tiles == other.tiles
            && self.intervals == other.intervals
    }
}

impl TileSet {
    /// An empty artifact for `grid` over the dataset with `fingerprint`.
    pub fn empty(grid: TileGrid, fingerprint: u64) -> Self {
        TileSet {
            grid,
            fingerprint,
            tiles: BTreeMap::new(),
            intervals: BTreeMap::new(),
            timings: BTreeMap::new(),
        }
    }

    /// The tile grid.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The dataset fingerprint the tiles were computed from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of tiles present.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Number of present tiles carrying certified `[lo, hi]` intervals.
    /// Equal to [`tile_count`](Self::tile_count) iff every present tile
    /// re-certifies; smaller when midpoint-only (old-format or exact-tier)
    /// tiles are mixed in.
    pub fn certified_tile_count(&self) -> usize {
        self.intervals.len()
    }

    /// Whether a present tile carries certified intervals.
    pub fn is_certified(&self, id: usize) -> bool {
        self.intervals.contains_key(&id)
    }

    /// Observed compute wall seconds of a tile, when a run recorded one
    /// (`W` checkpoint line). Old-format artifacts have none.
    pub fn timing(&self, id: usize) -> Option<f64> {
        self.timings.get(&id).copied()
    }

    /// Records a tile's observed compute wall seconds. Advisory: feeds
    /// the orchestrator's autotuner warm-start, ignored by equality.
    pub fn set_timing(&mut self, id: usize, seconds: f64) {
        self.timings.insert(id, seconds);
    }

    /// Whether a tile is present.
    pub fn contains(&self, id: usize) -> bool {
        self.tiles.contains_key(&id)
    }

    /// Distance of pair `(i, j)` if its tile is present (`Some(0.0)` on
    /// the diagonal).
    pub fn pair(&self, i: usize, j: usize) -> Option<f64> {
        if i == j && i < self.grid.k {
            return Some(0.0);
        }
        let (id, idx) = self.pair_slot(i, j)?;
        Some(self.tiles.get(&id)?[idx])
    }

    /// Certified `[lo, hi]` interval of pair `(i, j)`, when its tile both
    /// is present and carries intervals (approximate-tier tiles; see the
    /// format notes). The diagonal is exactly zero; exact-tier and
    /// pre-interval-format tiles return `None`.
    pub fn pair_interval(&self, i: usize, j: usize) -> Option<SndInterval> {
        if i == j && i < self.grid.k {
            return Some(SndInterval {
                lower: 0.0,
                upper: 0.0,
            });
        }
        let (id, idx) = self.pair_slot(i, j)?;
        let (lower, upper) = self.intervals.get(&id)?[idx];
        Some(SndInterval { lower, upper })
    }

    /// `(tile id, index into the tile's pair order)` of an off-diagonal
    /// pair, or `None` when out of range.
    fn pair_slot(&self, i: usize, j: usize) -> Option<(usize, usize)> {
        if i >= self.grid.k || j >= self.grid.k || i == j {
            return None;
        }
        let (i, j) = (i.min(j), i.max(j));
        let (bi, bj) = (i / self.grid.tile, j / self.grid.tile);
        let (r, c) = (i - bi * self.grid.tile, j - bj * self.grid.tile);
        let idx = if bi == bj {
            let w = self.grid.range(bi).len();
            r * (2 * w - r - 1) / 2 + (c - r - 1)
        } else {
            r * self.grid.range(bj).len() + c
        };
        Some((self.grid.id(bi, bj), idx))
    }

    /// Inserts a completed tile (values in the grid's pair order).
    pub fn insert(&mut self, id: usize, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.grid.pair_count(id),
            "tile value count must match the grid"
        );
        self.tiles.insert(id, values);
        self.intervals.remove(&id);
        self.timings.remove(&id);
    }

    /// [`insert`](Self::insert) with the tile's certified `[lo, hi]`
    /// envelopes (same pair order) — what the approximate tier records.
    pub fn insert_certified(&mut self, id: usize, values: Vec<f64>, intervals: Vec<(f64, f64)>) {
        self.insert(id, values);
        self.certify(id, intervals);
    }

    /// Attaches certified `[lo, hi]` envelopes to an already-present tile
    /// (same pair order) — how the coordinator records an `I` result line
    /// arriving after its `T` line.
    ///
    /// # Panics
    /// If the tile is absent or the interval count mismatches the grid.
    pub fn certify(&mut self, id: usize, intervals: Vec<(f64, f64)>) {
        assert!(
            self.tiles.contains_key(&id),
            "certify requires the tile to be present"
        );
        assert_eq!(
            intervals.len(),
            self.grid.pair_count(id),
            "tile interval count must match the grid"
        );
        self.intervals.insert(id, intervals);
    }

    /// Keeps only the listed tiles.
    pub(crate) fn restrict(mut self, ids: &[usize]) -> Self {
        let keep: std::collections::BTreeSet<usize> = ids.iter().copied().collect();
        self.tiles.retain(|id, _| keep.contains(id));
        self.intervals.retain(|id, _| keep.contains(id));
        self.timings.retain(|id, _| keep.contains(id));
        self
    }

    /// Reassembles partial artifacts into one set. All parts must share
    /// the grid and fingerprint; a tile present in several parts must
    /// carry identical bits ([`ShardError::Overlap`] otherwise).
    pub fn merge(parts: impl IntoIterator<Item = TileSet>) -> Result<TileSet, ShardError> {
        let mut parts = parts.into_iter();
        let mut merged = parts
            .next()
            .ok_or_else(|| ShardError::InvalidPlan("merge needs at least one artifact".into()))?;
        for part in parts {
            if part.grid != merged.grid {
                return Err(ShardError::Mismatch(format!(
                    "grid {:?} vs {:?}",
                    part.grid, merged.grid
                )));
            }
            if part.fingerprint != merged.fingerprint {
                return Err(ShardError::Mismatch(format!(
                    "dataset fingerprint {:016x} vs {:016x}",
                    part.fingerprint, merged.fingerprint
                )));
            }
            for (id, values) in part.tiles {
                match merged.tiles.get(&id) {
                    Some(existing) => {
                        let same = existing.len() == values.len()
                            && existing
                                .iter()
                                .zip(&values)
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !same {
                            return Err(ShardError::Overlap { tile: id });
                        }
                    }
                    None => {
                        merged.tiles.insert(id, values);
                    }
                }
            }
            // Certification survives the merge: a tile's intervals come
            // from whichever part carries them (an old midpoint-only
            // artifact contributes none), and two certified copies of the
            // same tile must agree bit-for-bit — with identical values and
            // fingerprints a disagreement means a corrupt artifact.
            for (id, ivs) in part.intervals {
                match merged.intervals.get(&id) {
                    Some(existing) => {
                        let same = existing.len() == ivs.len()
                            && existing.iter().zip(&ivs).all(|(a, b)| {
                                a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
                            });
                        if !same {
                            return Err(ShardError::Overlap { tile: id });
                        }
                    }
                    None => {
                        merged.intervals.insert(id, ivs);
                    }
                }
            }
            // Timings are advisory measurements: first part wins, no
            // agreement required (two runs legitimately time differently).
            for (id, secs) in part.timings {
                merged.timings.entry(id).or_insert(secs);
            }
        }
        Ok(merged)
    }

    /// The full [`DistanceMatrix`], validating that every tile is present.
    pub fn to_matrix(&self) -> Result<DistanceMatrix, ShardError> {
        // Count the holes before listing any: a header can claim far more
        // tiles than a file holds, so the list stops at `HOLES_LISTED`.
        if self.tiles.len() < self.grid.tile_count() {
            let missing = (0..self.grid.tile_count())
                .filter(|id| !self.tiles.contains_key(id))
                .take(HOLES_LISTED)
                .collect();
            return Err(ShardError::Holes { missing });
        }
        let k = self.grid.k;
        let mut upper = vec![0.0; k * k.saturating_sub(1) / 2];
        for (&id, values) in &self.tiles {
            for ((i, j), &v) in self.grid.pairs(id).iter().zip(values) {
                upper[i * k - i * (i + 1) / 2 + (j - i - 1)] = v;
            }
        }
        Ok(DistanceMatrix::from_upper(k, &upper))
    }

    /// Writes the artifact (header + every tile) to `path`, replacing any
    /// existing file.
    pub fn save(&self, path: &Path) -> Result<(), ShardError> {
        let mut out = String::new();
        header_lines(&mut out, &self.grid, self.fingerprint);
        for (&id, values) in &self.tiles {
            tile_line(&mut out, id, values);
            if let Some(ivs) = self.intervals.get(&id) {
                interval_line(&mut out, id, ivs);
            }
            if let Some(&secs) = self.timings.get(&id) {
                timing_line(&mut out, id, secs);
            }
        }
        std::fs::write(path, out)?;
        Ok(())
    }

    /// Reads an artifact/checkpoint. A truncated or corrupt trailing tile
    /// line — the remnant of an interrupted run — is discarded (that tile
    /// is simply recomputed on resume); header corruption is an error.
    pub fn load(path: &Path) -> Result<TileSet, ShardError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Ok(Self::parse_artifact(&text, path)?.0)
    }

    /// Parses an artifact's text, returning the set plus the byte length
    /// of the valid prefix — resume truncates the file there before
    /// appending. Both header lines must be complete
    /// (newline-terminated): appending tiles after a half-written header
    /// would corrupt the file irrecoverably.
    fn parse_artifact(text: &str, path: &Path) -> Result<(TileSet, u64), ShardError> {
        let mut offset = 0u64;
        let mut lines = text.split_inclusive('\n');

        let magic = lines.next().unwrap_or("");
        if magic != format!("{MAGIC}\n") {
            return Err(ShardError::Format(format!(
                "{}: missing '{MAGIC}' header",
                path.display()
            )));
        }
        offset += magic.len() as u64;
        let header = lines.next().unwrap_or("");
        let (grid, fingerprint) = header
            .strip_suffix('\n')
            .and_then(parse_header)
            .ok_or_else(|| ShardError::Format(format!("{}: bad header line", path.display())))?;
        offset += header.len() as u64;

        let mut set = TileSet::empty(grid, fingerprint);
        for line in lines {
            // A line without its trailing newline, or that fails to parse,
            // is a half-written append: drop it and everything after.
            let Some(complete) = line.strip_suffix('\n') else {
                break;
            };
            // An `I` line certifies the tile it names, which must already
            // be present (its `T` line precedes it) and uncertified. A
            // tile whose `I` line was lost to a kill stays valid — just
            // uncertified — so resume never recomputes it.
            if complete.starts_with('I') {
                match parse_interval_line(complete, &grid) {
                    Some((id, ivs))
                        if set.tiles.contains_key(&id) && !set.intervals.contains_key(&id) =>
                    {
                        set.intervals.insert(id, ivs);
                        offset += line.len() as u64;
                        continue;
                    }
                    _ => break,
                }
            }
            // A `W` line times the tile it names; like `I`, its tile must
            // already be present. A lost trailing `W` costs nothing but a
            // warm-start hint.
            if complete.starts_with('W') {
                match parse_timing_line(complete, &grid) {
                    Some((id, secs))
                        if set.tiles.contains_key(&id) && !set.timings.contains_key(&id) =>
                    {
                        set.timings.insert(id, secs);
                        offset += line.len() as u64;
                        continue;
                    }
                    _ => break,
                }
            }
            match parse_tile_line(complete, &grid) {
                Some((id, values)) if !set.tiles.contains_key(&id) => {
                    set.tiles.insert(id, values);
                    offset += line.len() as u64;
                }
                _ => break,
            }
        }
        Ok((set, offset))
    }
}

fn header_lines(out: &mut String, grid: &TileGrid, fingerprint: u64) {
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!(
        "k {} tile {} fingerprint {fingerprint:016x}\n",
        grid.k, grid.tile
    ));
}

/// Appends one newline-terminated `T` line — a tile's values, hex-exact —
/// to `out`. Public because the orchestrator wire protocol reuses the
/// checkpoint line format verbatim as its transfer format.
pub fn tile_line(out: &mut String, id: usize, values: &[f64]) {
    out.push_str(&format!("T {id} {}", values.len()));
    for v in values {
        out.push_str(&format!(" {:016x}", v.to_bits()));
    }
    out.push('\n');
}

/// Appends one newline-terminated `I` line — a tile's certified `[lo, hi]`
/// pairs — to `out`.
pub fn interval_line(out: &mut String, id: usize, intervals: &[(f64, f64)]) {
    out.push_str(&format!("I {id} {}", intervals.len()));
    for (lo, hi) in intervals {
        out.push_str(&format!(" {:016x} {:016x}", lo.to_bits(), hi.to_bits()));
    }
    out.push('\n');
}

/// Appends one newline-terminated `W` line — a tile's observed compute
/// wall seconds — to `out`.
pub fn timing_line(out: &mut String, id: usize, seconds: f64) {
    out.push_str(&format!("W {id} {:016x}\n", seconds.to_bits()));
}

/// An append-mode handle on a checkpoint/artifact file: the durable side
/// of a run. [`Checkpoint::open`] validates (or writes) the header,
/// resumes completed tiles, and truncates a half-written trailing line;
/// [`Checkpoint::append`] records one finished tile and flushes, so a
/// kill at any moment loses at most the line being written.
///
/// The engine's checkpointed entry points use this internally; the
/// orchestrator coordinator drives it directly, appending results as
/// they arrive off the wire.
pub struct Checkpoint {
    file: std::fs::File,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint at `path` for a `(grid,
    /// fingerprint)` run: validates both against an existing file,
    /// discards a half-written trailing line, and positions the file for
    /// appending. Returns the resumed [`TileSet`] alongside the handle.
    pub fn open(
        path: &Path,
        grid: TileGrid,
        fingerprint: u64,
    ) -> Result<(TileSet, Checkpoint), ShardError> {
        let mut expected_header = String::new();
        header_lines(&mut expected_header, &grid, fingerprint);
        let existing = match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
            Ok(text) if text.is_empty() => None,
            // A proper prefix of the header this run would write is the
            // remnant of a kill during the initial header write — no tile
            // was committed, so start fresh instead of appending tile
            // lines onto a half-written header.
            Ok(text) if expected_header.starts_with(&text) => None,
            Ok(text) => {
                let (set, clean_len) = TileSet::parse_artifact(&text, path)?;
                if *set.grid() != grid {
                    return Err(ShardError::Mismatch(format!(
                        "checkpoint {} is for k={} tile={}, run wants k={} tile={}",
                        path.display(),
                        set.grid().states(),
                        set.grid().tile_size(),
                        grid.states(),
                        grid.tile_size(),
                    )));
                }
                if set.fingerprint() != fingerprint {
                    return Err(ShardError::Mismatch(format!(
                        "checkpoint {} was computed from a different graph, \
                         configuration, or snapshot set \
                         (fingerprint {:016x}, expected {fingerprint:016x})",
                        path.display(),
                        set.fingerprint(),
                    )));
                }
                Some((set, clean_len))
            }
        };
        match existing {
            Some((set, clean_len)) => {
                // Truncate away any half-written tail, then append.
                let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(clean_len)?;
                file.seek(SeekFrom::End(0))?;
                Ok((set, Checkpoint { file }))
            }
            None => {
                let mut file = std::fs::File::create(path)?;
                file.write_all(expected_header.as_bytes())?;
                Ok((TileSet::empty(grid, fingerprint), Checkpoint { file }))
            }
        }
    }

    /// Appends one finished tile (plus its certification line when the
    /// approximate tier produced one, plus its timing line when the run
    /// observed one) and flushes.
    pub fn append(
        &mut self,
        id: usize,
        values: &[f64],
        intervals: Option<&[(f64, f64)]>,
        seconds: Option<f64>,
    ) -> Result<(), ShardError> {
        let mut line = String::new();
        tile_line(&mut line, id, values);
        if let Some(ivs) = intervals {
            interval_line(&mut line, id, ivs);
        }
        if let Some(secs) = seconds {
            timing_line(&mut line, id, secs);
        }
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }

    /// Appends a tile's `I` certification line on its own — the
    /// orchestrated path, where a tile's interval line arrives after its
    /// value line. The caller must have appended the tile's `T` line
    /// earlier (and at most one `I` line per tile), matching what the
    /// loader accepts.
    pub fn append_intervals(
        &mut self,
        id: usize,
        intervals: &[(f64, f64)],
    ) -> Result<(), ShardError> {
        let mut line = String::new();
        interval_line(&mut line, id, intervals);
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }

    /// Appends a tile's `W` timing line on its own (same contract as
    /// [`append_intervals`](Self::append_intervals)).
    pub fn append_timing(&mut self, id: usize, seconds: f64) -> Result<(), ShardError> {
        let mut line = String::new();
        timing_line(&mut line, id, seconds);
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }
}

fn parse_header(line: &str) -> Option<(TileGrid, u64)> {
    let mut t = line.split_ascii_whitespace();
    if t.next()? != "k" {
        return None;
    }
    let k: usize = t.next()?.parse().ok()?;
    if t.next()? != "tile" {
        return None;
    }
    let tile: usize = t.next()?.parse().ok()?;
    if t.next()? != "fingerprint" {
        return None;
    }
    let fingerprint = u64::from_str_radix(t.next()?, 16).ok()?;
    if t.next().is_some() {
        return None;
    }
    Some((TileGrid::checked(k, tile)?, fingerprint))
}

/// One hex-encoded `f64` field that is a valid SND value: finite and
/// non-negative. A NaN, an infinity or a negative distance is a
/// malformation like any other.
fn parse_value(field: &str) -> Option<f64> {
    let v = f64::from_bits(u64::from_str_radix(field, 16).ok()?);
    (v.is_finite() && v >= 0.0).then_some(v)
}

/// Parses one `T` line against `grid` (ID range and pair count must
/// match, every value finite and non-negative). `None` on any
/// malformation — callers treat that as a truncated checkpoint tail or a
/// protocol violation, never a panic.
pub fn parse_tile_line(line: &str, grid: &TileGrid) -> Option<(usize, Vec<f64>)> {
    let mut t = line.split_ascii_whitespace();
    if t.next()? != "T" {
        return None;
    }
    let id: usize = t.next()?.parse().ok()?;
    if id >= grid.tile_count() {
        return None;
    }
    let count: usize = t.next()?.parse().ok()?;
    if count != grid.pair_count(id) {
        return None;
    }
    // No capacity from `count`: the line, not the claim, bounds the values.
    let mut values = Vec::new();
    for _ in 0..count {
        values.push(parse_value(t.next()?)?);
    }
    if t.next().is_some() {
        return None;
    }
    Some((id, values))
}

/// Parses one `I` line against `grid` (endpoints finite, non-negative
/// and ordered, `lo ≤ hi`). `None` on any malformation.
pub fn parse_interval_line(line: &str, grid: &TileGrid) -> Option<(usize, Vec<(f64, f64)>)> {
    let mut t = line.split_ascii_whitespace();
    if t.next()? != "I" {
        return None;
    }
    let id: usize = t.next()?.parse().ok()?;
    if id >= grid.tile_count() {
        return None;
    }
    let count: usize = t.next()?.parse().ok()?;
    if count != grid.pair_count(id) {
        return None;
    }
    let mut intervals = Vec::new();
    for _ in 0..count {
        let lo = parse_value(t.next()?)?;
        let hi = parse_value(t.next()?)?;
        if lo > hi {
            return None;
        }
        intervals.push((lo, hi));
    }
    if t.next().is_some() {
        return None;
    }
    Some((id, intervals))
}

/// Parses one `W` line against `grid` (ID must be in range and the
/// seconds finite and non-negative — a corrupt timing must not poison the
/// autotuner's cost model). `None` on any malformation.
pub fn parse_timing_line(line: &str, grid: &TileGrid) -> Option<(usize, f64)> {
    let mut t = line.split_ascii_whitespace();
    if t.next()? != "W" {
        return None;
    }
    let id: usize = t.next()?.parse().ok()?;
    if id >= grid.tile_count() {
        return None;
    }
    let secs = parse_value(t.next()?)?;
    if t.next().is_some() {
        return None;
    }
    Some((id, secs))
}

/// Outcome of a checkpointed shard run: the plan's tiles plus how much of
/// the plan was resumed from the checkpoint versus computed fresh.
#[derive(Debug)]
pub struct ShardRun {
    /// The plan's tiles, all present.
    pub tiles: TileSet,
    /// Plan tiles already complete in the checkpoint when the run began.
    pub resumed: usize,
    /// Plan tiles computed (and appended) by this run.
    pub computed: usize,
}

impl<'g> SndEngine<'g> {
    /// Fingerprint binding a tile artifact to everything the distances
    /// depend on: the graph topology, the engine configuration (clustering
    /// spec, γ policy, ground costs, solver, scale), and the snapshot set.
    /// A checkpoint is only resumed — and artifacts only merge — when all
    /// three match.
    pub fn shard_fingerprint(&self, states: &[NetworkState]) -> u64 {
        let mut h = Fnv::new();
        h.eat(&(self.graph().node_count() as u64).to_le_bytes());
        for (u, v) in self.graph().edges() {
            h.eat(&u.to_le_bytes());
            h.eat(&v.to_le_bytes());
        }
        // The config's Debug form covers every field that shapes the
        // distances; a config change therefore invalidates checkpoints.
        h.eat(format!("{:?}", self.config()).as_bytes());
        eat_states(&mut h, states);
        h.0
    }

    /// Computes the tiles of a [`ShardPlan`] in memory: rayon fan-out at
    /// EMD\* term granularity inside each tile, per-state geometry bundles
    /// (with their shared SSSP row caches) reused across every tile of the
    /// run and freed once no remaining tile needs them. The union of any
    /// plan partition, merged, is bit-identical to
    /// [`pairwise_distances_seq`](Self::pairwise_distances_seq).
    pub fn pairwise_tiles(&self, states: &[NetworkState], plan: &ShardPlan) -> TileSet {
        self.pairwise_tiles_with(states, plan, &mut |_, _, _, _| Ok(()))
            // lint:allow(no-unwrap) the no-op sink closure is the only error source and always returns Ok
            .expect("in-memory tile computation performs no IO")
    }

    /// [`pairwise_tiles`](Self::pairwise_tiles) with a per-tile hook:
    /// `on_tile` sees each finished tile (ID, values, optional certified
    /// intervals, compute wall seconds) *before* it is recorded in the
    /// returned set, in ascending tile-ID order. This is the streaming
    /// entry point — an orchestrated worker serializes each tile onto its
    /// socket from here, overlapping the send with the next tile's
    /// compute. An error from the hook aborts the run.
    pub fn pairwise_tiles_with(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        on_tile: &mut OnTile<'_>,
    ) -> Result<TileSet, ShardError> {
        let mut set = TileSet::empty(*plan.grid(), self.shard_fingerprint(states));
        self.compute_tiles(states, plan, &mut set, on_tile)?;
        Ok(set)
    }

    /// [`pairwise_tiles`](Self::pairwise_tiles) with checkpointing: tiles
    /// already present in the file at `path` are skipped, and each newly
    /// finished tile is appended and flushed, so killing and rerunning the
    /// same invocation never recomputes completed work. The file doubles
    /// as the shard's output artifact for [`TileSet::merge`].
    pub fn pairwise_tiles_checkpointed(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        path: &Path,
    ) -> Result<ShardRun, ShardError> {
        let (mut set, mut ckpt) =
            Checkpoint::open(path, *plan.grid(), self.shard_fingerprint(states))?;
        let resumed = plan
            .tile_ids()
            .iter()
            .filter(|id| set.contains(**id))
            .count();
        self.compute_tiles(states, plan, &mut set, &mut |id, values, ivs, secs| {
            ckpt.append(id, values, ivs, Some(secs))
        })?;
        Ok(ShardRun {
            tiles: set.restrict(plan.tile_ids()),
            resumed,
            computed: plan.tile_ids().len() - resumed,
        })
    }

    /// The one tile loop: computes the plan's tiles missing from `set` in
    /// ascending ID order, invoking `on_tile` (the checkpoint append hook)
    /// before recording each one. Every tile is priced with
    /// `price_pairs` over its pairs, exactly as the matrix prices all
    /// pairs (see [`crate::batch`]; the matrix is this loop over one
    /// tile): rows an earlier tile wrote into a live bundle are hits, the
    /// rest are fresh or repaired along the snapshot order.
    ///
    /// A state's geometry bundle is built when the first tile needing it
    /// comes up and dropped after the last, so a shard never holds
    /// bundles for states only other shards touch. Bundles come from the
    /// one snapshot-ordered materializer (`delta::chain_geometry`): a state
    /// up to two blocks past the last one built is reached by delta
    /// steps, anything else (a resumed gap, a round-robin plan jumping
    /// back) is built fresh.
    fn compute_tiles(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        set: &mut TileSet,
        on_tile: &mut OnTile<'_>,
    ) -> Result<(), ShardError> {
        let grid = plan.grid();
        assert_eq!(
            grid.states(),
            states.len(),
            "tile grid sized for a different snapshot set"
        );
        let todo: Vec<usize> = plan
            .tile_ids()
            .iter()
            .copied()
            .filter(|id| !set.contains(*id))
            .collect();
        // An active approximate tier prices every term as a certified
        // envelope; persist those alongside the scalar tile values.
        let certified = self.approx_if_active().is_some();

        let mut last_use = vec![usize::MAX; states.len()];
        let tile_states: Vec<Vec<usize>> = todo
            .iter()
            .map(|&id| {
                let mut touched: Vec<usize> =
                    grid.pairs(id).iter().flat_map(|&(i, j)| [i, j]).collect();
                touched.sort_unstable();
                touched.dedup();
                touched
            })
            .collect();
        for (pos, touched) in tile_states.iter().enumerate() {
            for &s in touched {
                last_use[s] = pos;
            }
        }

        // The chain head: the last state built. Crossing a gap longer
        // than two blocks (resumed tiles) costs more in steps than one
        // fresh build.
        let mut head: Option<(usize, DeltaStateGeometry)> = None;
        let mut geoms: Vec<Option<StateGeometry>> = (0..states.len()).map(|_| None).collect();
        // Per-tile wall clock for the `W` checkpoint lines: geometry
        // materialization counts against the tile that triggered it —
        // that is the true cost of scheduling the tile, which is what an
        // autotuner planning leases needs.
        let mut mark = std::time::Instant::now();
        for (pos, (&id, touched)) in todo.iter().zip(&tile_states).enumerate() {
            for &s in touched {
                if geoms[s].is_none() {
                    let geom = chain_geometry(self, states, head.take(), s, 2 * grid.tile_size());
                    geoms[s] = Some(geom.bundle(self));
                    head = Some((s, geom));
                }
            }

            let pairs = grid.pairs(id);
            // lint:allow(no-unwrap) the materialization pass above filled every index in `pairs`
            let bundle = |s: usize| geoms[s].as_ref().expect("geometry materialized");
            let terms = self.price_pairs(states, bundle, &pairs);
            let (values, intervals) = fold_terms(&terms, certified);

            let secs = mark.elapsed().as_secs_f64();
            on_tile(id, &values, intervals.as_deref(), secs)?;
            match intervals {
                Some(ivs) => set.insert_certified(id, values, ivs),
                None => set.insert(id, values),
            }
            set.set_timing(id, secs);
            for &s in touched {
                if last_use[s] == pos {
                    geoms[s] = None;
                }
            }
            mark = std::time::Instant::now();
        }
        Ok(())
    }

    /// Checkpoint-backed **series** run: computes (or resumes) exactly the
    /// superdiagonal tiles, as
    /// [`pairwise_tiles_checkpointed`](Self::pairwise_tiles_checkpointed)
    /// over [`ShardPlan::superdiagonal`]. The plan walks the states in
    /// order, so every bundle but the first is the previous one advanced
    /// through their [`StateDelta`](snd_models::StateDelta). Checkpoints
    /// written by either entry point resume under the other, and a later
    /// full-matrix run reuses the series tiles.
    pub fn series_tiles_checkpointed(
        &self,
        states: &[NetworkState],
        tile: usize,
        path: &Path,
    ) -> Result<ShardRun, ShardError> {
        let plan = ShardPlan::superdiagonal(TileGrid::new(states.len(), tile));
        self.pairwise_tiles_checkpointed(states, &plan, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use snd_graph::generators::path_graph;

    fn states(k: usize) -> Vec<NetworkState> {
        (0..k)
            .map(|t| {
                let vals: Vec<i8> = (0..8).map(|u| ((u + t) % 3) as i8 - 1).collect();
                NetworkState::from_values(&vals)
            })
            .collect()
    }

    #[test]
    fn auto_tile_small_grids_stay_fine_grained() {
        // A handful of snapshots on a small graph: minimum tile, but the
        // grid still has several tiles to spread across shards.
        let tile = auto_tile(4, 1_000);
        assert_eq!(tile, 2);
        assert!(TileGrid::new(4, tile).tile_count() >= 3);
        // Degenerate sizes stay valid (tile >= 1, tile <= max(k, 2)).
        assert_eq!(auto_tile(0, 0), 2);
        assert_eq!(auto_tile(1, 10), 2);
    }

    #[test]
    fn auto_tile_large_series_keeps_many_tiles() {
        // 512 snapshots: tile capped well below k so round-robin plans
        // have plenty of tiles to balance.
        let tile = auto_tile(512, 10_000);
        assert!(
            (2..=16).contains(&tile),
            "tile {tile} out of expected range"
        );
        assert!(TileGrid::new(512, tile).tile_count() >= 64);
    }

    #[test]
    fn auto_tile_grows_with_graph_size() {
        // Bigger graphs (more expensive geometry) take coarser tiles.
        let small = auto_tile(256, 10_000);
        let medium = auto_tile(256, 100_000);
        let large = auto_tile(256, 1_000_000);
        assert!(small <= medium && medium <= large);
        assert!(large > small, "{small} .. {large}");
        // But never machine state: repeated calls agree (shards must
        // derive identical grids independently).
        assert_eq!(auto_tile(256, 100_000), medium);
    }

    #[test]
    fn tile_ids_roundtrip_and_cover_every_pair() {
        let shapes = [(0, 3), (1, 2), (5, 2), (7, 3), (8, 8), (9, 4)];
        // Plus every grid of 1–64 blocks.
        for (k, tile) in shapes.into_iter().chain((1..=64).map(|nb| (nb, 1))) {
            let grid = TileGrid::new(k, tile);
            let nb = grid.blocks();
            // Reference for `coords`: walk the block rows.
            let (mut row, mut row_start) = (0, 0);
            let mut seen = std::collections::BTreeSet::new();
            for id in 0..grid.tile_count() {
                while row_start + (nb - row) <= id {
                    row_start += nb - row;
                    row += 1;
                }
                let (bi, bj) = grid.coords(id);
                assert_eq!((bi, bj), (row, row + id - row_start), "k={k} tile={tile}");
                assert_eq!(grid.id(bi, bj), id, "k={k} tile={tile}");
                let pairs = grid.pairs(id);
                assert_eq!(pairs.len(), grid.pair_count(id));
                for (i, j) in pairs {
                    assert!(i < j && j < k);
                    assert!(seen.insert((i, j)), "pair ({i},{j}) appears twice");
                }
            }
            assert_eq!(seen.len(), k * k.saturating_sub(1) / 2, "k={k} tile={tile}");
        }
        // ~2^61 tiles: exact where an `f64` square root would not be.
        let huge = TileGrid::new(1 << 31, 1);
        let last = (1 << 31) - 1;
        assert_eq!(huge.coords(huge.tile_count() - 1), (last, last));
        assert_eq!(huge.coords(huge.tile_count() - 2), (last - 1, last));
        assert_eq!(huge.coords(0), (0, 0));
    }

    #[test]
    fn round_robin_plans_partition_the_grid() {
        let grid = TileGrid::new(11, 3);
        for shards in 1..5 {
            let mut all: Vec<usize> = (0..shards)
                .flat_map(|s| {
                    ShardPlan::round_robin(grid, s, shards)
                        .unwrap()
                        .tile_ids()
                        .to_vec()
                })
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..grid.tile_count()).collect::<Vec<_>>());
        }
        assert!(ShardPlan::round_robin(grid, 2, 2).is_err());
        assert!(ShardPlan::round_robin(grid, 0, 0).is_err());
    }

    #[test]
    fn superdiagonal_plan_covers_every_transition() {
        for (k, tile) in [(2, 1), (6, 2), (9, 4), (10, 3)] {
            let grid = TileGrid::new(k, tile);
            let plan = ShardPlan::superdiagonal(grid);
            let covered: std::collections::BTreeSet<(usize, usize)> = plan
                .tile_ids()
                .iter()
                .flat_map(|&id| grid.pairs(id))
                .collect();
            for t in 1..k {
                assert!(covered.contains(&(t - 1, t)), "k={k} tile={tile} t={t}");
            }
        }
    }

    #[test]
    fn sharded_tiles_merge_to_the_sequential_matrix() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(6);
        let grid = TileGrid::new(6, 2);
        let parts: Vec<TileSet> = (0..3)
            .map(|i| engine.pairwise_tiles(&s, &ShardPlan::round_robin(grid, i, 3).unwrap()))
            .collect();
        let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
        assert_eq!(merged, engine.pairwise_distances_seq(&s));
    }

    /// Plans that request states out of snapshot order: round-robin shards
    /// skip blocks and jump back to earlier rows, and a resume over a
    /// checkpoint holding every other tile leaves gaps in the order the
    /// states are needed. Bundles reached by delta steps and bundles built
    /// fresh must price the same matrix.
    #[test]
    fn out_of_order_plans_match_the_sequential_matrix() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let n = 400;
        let mut rng = SmallRng::seed_from_u64(31);
        let g = snd_graph::generators::barabasi_albert(n, 3, &mut rng);
        let mut vals: Vec<i8> = (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0 => 1,
                1 => -1,
                _ => 0,
            })
            .collect();
        let mut s = vec![NetworkState::from_values(&vals)];
        for t in 1..9 {
            // Snapshot 4 repeats snapshot 3: an empty delta on the chain.
            let flips = if t == 4 { 0 } else { rng.gen_range(2..6) };
            for _ in 0..flips {
                vals[rng.gen_range(0..n)] = rng.gen_range(-1..=1);
            }
            s.push(NetworkState::from_values(&vals));
        }
        let engine = SndEngine::new(
            &g,
            SndConfig {
                clusters: crate::config::ClusterSpec::BfsPartition { clusters: 6 },
                gamma: crate::config::GammaPolicy::Eccentricity,
                ..Default::default()
            },
        );
        let seq = engine.pairwise_distances_seq(&s);
        assert_eq!(engine.pairwise_distances(&s), seq);

        for tile in 1..=3 {
            let grid = TileGrid::new(s.len(), tile);
            for shards in [2, 3] {
                let parts: Vec<TileSet> = (0..shards)
                    .map(|i| {
                        let plan = ShardPlan::round_robin(grid, i, shards).unwrap();
                        engine.pairwise_tiles(&s, &plan)
                    })
                    .collect();
                let merged = TileSet::merge(parts).unwrap().to_matrix().unwrap();
                assert_eq!(merged, seq, "tile {tile}, {shards} shards");
            }
            for parity in [0, 1] {
                let path = std::env::temp_dir().join(format!(
                    "snd_shard_gaps_{tile}_{parity}_{}.ckpt",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                let every_other: Vec<usize> = (0..grid.tile_count())
                    .filter(|id| id % 2 == parity)
                    .collect();
                let half = ShardPlan::explicit(grid, every_other).unwrap();
                engine
                    .pairwise_tiles_checkpointed(&s, &half, &path)
                    .unwrap();
                let run = engine
                    .pairwise_tiles_checkpointed(&s, &ShardPlan::full(grid), &path)
                    .unwrap();
                assert_eq!(run.resumed, half.tile_ids().len());
                assert_eq!(
                    run.tiles.to_matrix().unwrap(),
                    seq,
                    "tile {tile}, resumed parity {parity}"
                );
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn merge_rejects_holes_and_mismatches() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(5);
        let grid = TileGrid::new(5, 2);
        let part0 = engine.pairwise_tiles(&s, &ShardPlan::round_robin(grid, 0, 2).unwrap());
        // A lone shard cannot produce the full matrix.
        assert!(matches!(part0.to_matrix(), Err(ShardError::Holes { .. })));
        // Mismatched fingerprints refuse to merge.
        let other = TileSet::empty(grid, part0.fingerprint() ^ 1);
        assert!(matches!(
            TileSet::merge([part0.clone(), other]),
            Err(ShardError::Mismatch(_))
        ));
        // Conflicting overlap is rejected; identical overlap is fine.
        let mut conflicting = part0.clone();
        let (&id, values) = conflicting.tiles.iter_mut().next().unwrap();
        if let Some(v) = values.first_mut() {
            *v += 1.0;
            assert!(matches!(
                TileSet::merge([part0.clone(), conflicting]),
                Err(ShardError::Overlap { tile }) if tile == id
            ));
        }
        assert!(TileSet::merge([part0.clone(), part0]).is_ok());
    }

    #[test]
    fn pair_lookup_matches_the_matrix() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(7);
        let grid = TileGrid::new(7, 3);
        let set = engine.pairwise_tiles(&s, &ShardPlan::full(grid));
        let m = set.to_matrix().unwrap();
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(set.pair(i, j), Some(m.at(i, j)), "({i},{j})");
            }
        }
        assert_eq!(set.pair(0, 7), None);
    }

    #[test]
    fn resume_recovers_from_a_half_written_header() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(4);
        let grid = TileGrid::new(4, 2);
        let plan = ShardPlan::full(grid);
        let path =
            std::env::temp_dir().join(format!("snd_shard_half_header_{}.ckpt", std::process::id()));

        // Simulate a kill during the very first header write: the file
        // holds a proper prefix of the header this run would produce.
        let mut header = String::new();
        header_lines(&mut header, &grid, engine.shard_fingerprint(&s));
        for cut in [1, MAGIC.len(), MAGIC.len() + 5, header.len() - 1] {
            std::fs::write(&path, &header[..cut]).unwrap();
            let run = engine
                .pairwise_tiles_checkpointed(&s, &plan, &path)
                .unwrap();
            assert_eq!(run.resumed, 0, "nothing was committed before the kill");
            assert_eq!(
                run.tiles.to_matrix().unwrap(),
                engine.pairwise_distances_seq(&s)
            );
            // The rewritten file is a complete, loadable artifact.
            TileSet::load(&path).unwrap();
        }

        // A half-written header from some *other* run is not silently
        // clobbered: it surfaces as a format error instead.
        std::fs::write(&path, "SNDSHARD v1\nk 9 tile 3 fingerprint 0123").unwrap();
        assert!(matches!(
            engine.pairwise_tiles_checkpointed(&s, &plan, &path),
            Err(ShardError::Format(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_binds_states_graph_and_config() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(4);
        let base = engine.shard_fingerprint(&s);
        assert_eq!(base, engine.shard_fingerprint(&s), "deterministic");

        // Different snapshots.
        assert_ne!(base, engine.shard_fingerprint(&states(5)));
        // Different configuration over the same graph and snapshots.
        let other_config = SndConfig {
            per_bin_gamma: SndConfig::default().per_bin_gamma + 1,
            ..Default::default()
        };
        assert_ne!(base, SndEngine::new(&g, other_config).shard_fingerprint(&s));
        // Different graph topology.
        let g2 = snd_graph::generators::cycle_graph(8);
        assert_ne!(
            base,
            SndEngine::new(&g2, SndConfig::default()).shard_fingerprint(&s)
        );
    }

    fn approx_engine_config() -> SndConfig {
        SndConfig {
            approx: Some(crate::approx::ApproxConfig {
                epsilon: 0.5,
                min_nodes: 0,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn interval_lines_roundtrip_and_certify_pairs() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, approx_engine_config());
        let s = states(5);
        let grid = TileGrid::new(5, 2);
        let path =
            std::env::temp_dir().join(format!("snd_shard_intervals_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run = engine
            .pairwise_tiles_checkpointed(&s, &ShardPlan::full(grid), &path)
            .unwrap();
        let set = run.tiles;
        for i in 0..5 {
            for j in 0..5 {
                let d = set.pair(i, j).unwrap();
                let iv = set.pair_interval(i, j).expect("approx tiles certify");
                assert!(
                    iv.lower <= d + 1e-12 && d <= iv.upper + 1e-12,
                    "({i},{j}): {d} outside [{}, {}]",
                    iv.lower,
                    iv.upper
                );
                if i == j {
                    assert_eq!((iv.lower, iv.upper), (0.0, 0.0));
                }
            }
        }
        // The checkpoint file round-trips the intervals bit-exactly.
        let loaded = TileSet::load(&path).unwrap();
        assert_eq!(loaded, set);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn old_midpoint_checkpoints_still_load_and_merge() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, approx_engine_config());
        let s = states(4);
        let grid = TileGrid::new(4, 2);
        let new_set = engine.pairwise_tiles(&s, &ShardPlan::full(grid));
        assert!(!new_set.intervals.is_empty());
        let path =
            std::env::temp_dir().join(format!("snd_shard_old_format_{}.ckpt", std::process::id()));
        new_set.save(&path).unwrap();

        // Strip the `I` and `W` lines: exactly what a pre-interval,
        // pre-timing artifact holds.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.starts_with("I ")));
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("I ") && !l.starts_with("W "))
            .flat_map(|l| [l, "\n"])
            .collect();
        std::fs::write(&path, old).unwrap();
        let old_set = TileSet::load(&path).unwrap();
        assert_eq!(old_set.tiles, new_set.tiles, "midpoints survive");
        assert!(old_set.intervals.is_empty());
        assert_eq!(old_set.pair_interval(0, 1), None);

        // Merging an old artifact with a certified one re-certifies it.
        let merged = TileSet::merge([old_set, new_set.clone()]).unwrap();
        assert_eq!(merged, new_set);
        assert!(merged.pair_interval(0, 1).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exact_tier_writes_no_interval_lines() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(4);
        let grid = TileGrid::new(4, 2);
        let path =
            std::env::temp_dir().join(format!("snd_shard_exact_tier_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run = engine
            .pairwise_tiles_checkpointed(&s, &ShardPlan::full(grid), &path)
            .unwrap();
        assert!(run.tiles.intervals.is_empty());
        assert_eq!(run.tiles.pair_interval(0, 1), None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().all(|l| !l.starts_with("I ")));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_interval_line_keeps_its_tile() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, approx_engine_config());
        let s = states(4);
        let grid = TileGrid::new(4, 2);
        let set = engine.pairwise_tiles(&s, &ShardPlan::full(grid));
        let path = std::env::temp_dir().join(format!(
            "snd_shard_cut_interval_{}.ckpt",
            std::process::id()
        ));
        set.save(&path).unwrap();

        // Kill mid-append of the trailing `W` line: the tile and its
        // certification survive, only the timing hint is lost.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.strip_suffix('\n').unwrap();
        assert!(cut.lines().last().unwrap().starts_with("W "));
        std::fs::write(&path, cut).unwrap();
        let loaded = TileSet::load(&path).unwrap();
        assert_eq!(loaded.tiles, set.tiles);
        assert_eq!(loaded.intervals.len(), set.intervals.len());
        assert_eq!(loaded.timings.len(), set.timings.len() - 1);

        // Kill mid-append of an `I` line (no `W` lines written, as under
        // a pre-timing writer): the tile survives uncertified.
        let no_w: String = text
            .lines()
            .filter(|l| !l.starts_with("W "))
            .flat_map(|l| [l, "\n"])
            .collect();
        let cut = no_w.strip_suffix('\n').unwrap();
        assert!(cut.lines().last().unwrap().starts_with("I "));
        std::fs::write(&path, cut).unwrap();
        let loaded = TileSet::load(&path).unwrap();
        // Every tile survives; only the interrupted certification is lost.
        assert_eq!(loaded.tiles, set.tiles);
        assert_eq!(loaded.intervals.len(), set.intervals.len() - 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn timing_lines_roundtrip_and_stay_out_of_identity() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(5);
        let grid = TileGrid::new(5, 2);
        let path =
            std::env::temp_dir().join(format!("snd_shard_timings_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run = engine
            .pairwise_tiles_checkpointed(&s, &ShardPlan::full(grid), &path)
            .unwrap();
        // Every computed tile was timed, and the `W` lines round-trip
        // bit-exactly through the checkpoint.
        let loaded = TileSet::load(&path).unwrap();
        for id in 0..grid.tile_count() {
            let recorded = run.tiles.timing(id).expect("computed tiles are timed");
            assert!(recorded >= 0.0);
            assert_eq!(
                loaded.timing(id).map(f64::to_bits),
                Some(recorded.to_bits()),
                "tile {id}"
            );
        }
        // Timings are advisory: equality ignores them entirely...
        let mut retimed = loaded.clone();
        retimed.set_timing(0, 123.456);
        assert_eq!(retimed, loaded);
        // ...and merge keeps the first part's measurement.
        let merged = TileSet::merge([retimed.clone(), loaded.clone()]).unwrap();
        assert_eq!(merged.timing(0), Some(123.456));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_handle_matches_engine_runs_and_rejects_mismatches() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(4);
        let grid = TileGrid::new(4, 2);
        let fp = engine.shard_fingerprint(&s);
        let path =
            std::env::temp_dir().join(format!("snd_shard_handle_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Drive the public handle directly, the way the orchestrator's
        // coordinator does: append tiles as they arrive off the wire.
        let full = engine.pairwise_tiles(&s, &ShardPlan::full(grid));
        {
            let (resumed, mut ckpt) = Checkpoint::open(&path, grid, fp).unwrap();
            assert_eq!(resumed.tile_count(), 0);
            for id in 0..grid.tile_count() {
                let values: Vec<f64> = grid
                    .pairs(id)
                    .iter()
                    .map(|&(i, j)| full.pair(i, j).unwrap())
                    .collect();
                ckpt.append(id, &values, None, Some(0.25)).unwrap();
            }
        }
        // The file resumes complete and matches the engine's own artifact.
        let (resumed, _ckpt) = Checkpoint::open(&path, grid, fp).unwrap();
        assert_eq!(resumed, full);
        assert_eq!(resumed.timing(0), Some(0.25));
        // A different fingerprint or grid refuses to open.
        assert!(matches!(
            Checkpoint::open(&path, grid, fp ^ 1),
            Err(ShardError::Mismatch(_))
        ));
        assert!(matches!(
            Checkpoint::open(&path, TileGrid::new(4, 3), fp),
            Err(ShardError::Mismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mixed_format_merge_downgrades_explicitly_and_recertifies() {
        // Satellite: a PR 9 interval-bearing part merged with an old
        // midpoint-only part covering *different* tiles. The merge
        // succeeds, but certification is explicitly partial — pairs from
        // the old part report no interval — and re-certifying the stale
        // part restores full certification.
        let g = path_graph(8);
        let engine = SndEngine::new(&g, approx_engine_config());
        let s = states(6);
        let grid = TileGrid::new(6, 2);
        let certified_part =
            engine.pairwise_tiles(&s, &ShardPlan::round_robin(grid, 0, 2).unwrap());
        let fresh_part = engine.pairwise_tiles(&s, &ShardPlan::round_robin(grid, 1, 2).unwrap());

        // Age part 1 into the midpoint-only format via a save/strip/load
        // round-trip (exactly what a pre-interval file holds).
        let path =
            std::env::temp_dir().join(format!("snd_shard_mixed_fmt_{}.ckpt", std::process::id()));
        fresh_part.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let old: String = text
            .lines()
            .filter(|l| !l.starts_with("I ") && !l.starts_with("W "))
            .flat_map(|l| [l, "\n"])
            .collect();
        std::fs::write(&path, old).unwrap();
        let old_part = TileSet::load(&path).unwrap();

        let merged = TileSet::merge([certified_part.clone(), old_part]).unwrap();
        // The matrix is whole and bit-identical to the sequential
        // reference — midpoints are unaffected by lost certification.
        assert_eq!(
            merged.to_matrix().unwrap(),
            engine.pairwise_distances_seq(&s)
        );
        // The downgrade is explicit and queryable, not silent: exactly
        // the certified part's tiles certify, and every pair of an
        // old-format tile reports `None`.
        assert!(merged.certified_tile_count() < merged.tile_count());
        assert_eq!(
            merged.certified_tile_count(),
            certified_part.certified_tile_count()
        );
        for id in 0..grid.tile_count() {
            let from_old = fresh_part.contains(id) && id % 2 == 1;
            for (i, j) in grid.pairs(id) {
                assert_eq!(
                    merged.pair_interval(i, j).is_none(),
                    from_old,
                    "pair ({i},{j}) of tile {id}"
                );
            }
        }
        // Re-certifying the stale tiles (a fresh interval-bearing run of
        // the same plan) restores full certification.
        let recertified = TileSet::merge([merged, fresh_part]).unwrap();
        assert_eq!(recertified.certified_tile_count(), recertified.tile_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_headers_are_errors_not_panics() {
        let path =
            std::env::temp_dir().join(format!("snd_shard_hostile_{}.ckpt", std::process::id()));
        let header = |k: &str, tile: &str| format!("{MAGIC}\nk {k} tile {tile} fingerprint 0\n");
        let cases = [
            // Grids whose counts overflow usize: refused at the header.
            header("4294967296", "4294967296") + "T 0 9223372034707292160 0\n",
            header("18446744073709551615", "1"),
            header("8589934592", "8589934592"),
            header("4294967296", "1"),
            // Grids that fit, with counts far beyond what the file holds:
            // a tile line claiming ~2^62 values, and ~2^62 tiles of
            // which none is present.
            header("3037000499", "3037000499") + "T 0 4611686013944624251 0\n",
            header("3037000499", "1"),
            // The last of ~2^61 tiles: `coords` must not walk 2^31 rows.
            header("2147483648", "1") + "T 2305843010287435775 0\n",
        ];
        for (n, text) in cases.iter().enumerate() {
            std::fs::write(&path, text).unwrap();
            match TileSet::load(&path) {
                Err(e) => assert!(matches!(e, ShardError::Format(_)), "case {n}: {e}"),
                Ok(set) => {
                    assert!(n >= 4, "case {n} loaded a grid that does not fit");
                    // Only the last case names a tile, and an empty one.
                    let present = set.tile_count();
                    assert_eq!(present, usize::from(n == 6), "case {n}");
                    let Err(ShardError::Holes { missing }) = set.to_matrix() else {
                        panic!("case {n}: a near-empty set has holes");
                    };
                    let absent = set.grid().tile_count() - present;
                    assert_eq!(missing.len(), absent.min(HOLES_LISTED));
                    assert_eq!(missing[0], 0);
                }
            }
        }
        assert!(TileGrid::checked(4, 0).is_none());

        // Value lines that are no SND end the valid prefix like a torn
        // append: a NaN, infinite or negative tile value drops its tile
        // and everything after it, and an interval with `lo > hi` (5 > 1)
        // leaves its tile uncertified. `k 2 tile 1` has tiles 0 and 2
        // (no pairs) and tile 1 (the one pair).
        let header = header("2", "1");
        let cases = [
            (
                header.clone() + "T 0 0\nT 1 1 7ff8000000000000\nT 2 0\n",
                1,
                0,
            ),
            (
                header.clone() + "T 0 0\nT 1 1 7ff0000000000000\nT 2 0\n",
                1,
                0,
            ),
            (
                header.clone() + "T 0 0\nT 1 1 bff0000000000000\nT 2 0\n",
                1,
                0,
            ),
            (
                header.clone()
                    + "T 0 0\nT 1 1 4014000000000000\n\
                       I 1 1 4014000000000000 3ff0000000000000\nT 2 0\n",
                2,
                0,
            ),
            (
                header.clone()
                    + "T 0 0\nT 1 1 4014000000000000\n\
                       I 1 1 3ff0000000000000 4014000000000000\nT 2 0\n",
                3,
                1,
            ),
        ];
        for (n, (text, tiles, certified)) in cases.iter().enumerate() {
            std::fs::write(&path, text).unwrap();
            let set = TileSet::load(&path).unwrap();
            assert_eq!(set.tile_count(), *tiles, "value case {n}");
            assert_eq!(set.certified_tile_count(), *certified, "value case {n}");
            if *tiles < 3 {
                assert!(matches!(set.to_matrix(), Err(ShardError::Holes { .. })));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degenerate_sizes_produce_empty_matrices() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        for k in [0, 1] {
            let grid = TileGrid::new(k, 4);
            let set = engine.pairwise_tiles(&states(k), &ShardPlan::full(grid));
            let m = set.to_matrix().unwrap();
            assert_eq!(m.size(), k);
        }
    }
}
