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
//! where it jumps. A checkpointed series is the superdiagonal plan
//! ([`ShardPlan::superdiagonal`]).
//! A caller that computes one plan after another (an orchestrated worker,
//! lease after lease) keeps a [`TileWorkspace`]: the final tile's bundles
//! and the chain head survive into the next call
//! ([`SndEngine::pairwise_tiles_in`]).
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
//! [`TileLine`] is the one codec for the `T`/`I`/`W` lines: checkpoints,
//! saved artifacts and the orchestrator's wire all write them with
//! [`TileLine::write`] and read them with [`TileLine::parse`], which
//! checks the tile ID and pair count against the grid and takes only
//! finite, non-negative values (and `lo ≤ hi` intervals).
//! [`TileSet::accept`] is the one ordering rule: a `T` line only for an
//! absent tile; an `I` or `W` line at most once, and only for a present
//! tile.
//!
//! * `T` — the tile's values in the grid's pair order.
//! * `I` — when the approximate tier is active, the tile's certified
//!   `[lo, hi]` pairs (same pair order, two hex words per pair), so
//!   merged shard matrices stay re-certifiable
//!   ([`TileSet::pair_interval`]). `T`-only files (exact-tier runs and
//!   pre-interval checkpoints) load with no intervals, and a tile whose
//!   `I` line was lost to a kill loads uncertified.
//! * `W` — the tile's observed compute wall seconds. Timings are
//!   *advisory*: the orchestrator's autotuner warm-starts its per-tile
//!   cost model from them, but they never participate in artifact
//!   identity — two artifacts with identical tiles and different timings
//!   are equal. Old `W`-less files load fine here.
//!
//! [`Checkpoint::append`] writes a finished tile's lines with one write
//! and flushes them to the OS, so a killed process loses at most the
//! lines being written. It does not fsync: a power loss or OS crash may
//! lose a tail of the file, which then loads like any torn tail. On load,
//! the first line that is unterminated, not UTF-8, malformed or out of
//! order ends the valid prefix; it and everything after it is discarded
//! (resume truncates the file there) and those tiles are recomputed.
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

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use snd_graph::NodeId;
use snd_models::NetworkState;

use crate::approx::{ApproxConfig, SndInterval};
use crate::batch::{fold_terms, DistanceMatrix, SeedRows};
use crate::delta::{chain_geometry, DeltaStateGeometry};
use crate::engine::{SndEngine, StateGeometry};
use crate::sparse::{Columns, RowCache};

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

/// Hook invoked with each finished tile's lines before they are recorded
/// — the checkpoint append point. The lines are the tile's `T` values,
/// then its `I` certified intervals when the approximate tier produced
/// them, then its `W` compute wall seconds (geometry materialization
/// attributed to the tile that triggered it), which the orchestrator's
/// autotuner feeds on.
pub type OnTile<'a> = dyn FnMut(&[TileLine]) -> Result<(), ShardError> + 'a;

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
    fn superdiagonal_tiles(&self) -> Vec<usize> {
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
/// [`TileSet::load`]; reassembled by [`TileSet::merge`]. Artifact
/// identity (equality) is the grid, the dataset fingerprint, and the tile
/// values and intervals, never the timings.
#[derive(Clone, Debug, PartialEq)]
pub struct TileSet {
    grid: TileGrid,
    fingerprint: u64,
    tiles: BTreeMap<usize, TileRecord>,
}

/// What the lines of one tile recorded.
#[derive(Clone, Debug)]
struct TileRecord {
    /// The `T` line's values, in the grid's pair order.
    values: Vec<f64>,
    /// The `I` line's certified `[lo, hi]` envelopes (same pair order):
    /// present for tiles computed by an active approximate tier, absent
    /// for exact-tier and pre-interval tiles.
    intervals: Option<Vec<(f64, f64)>>,
    /// The `W` line's observed compute wall seconds.
    seconds: Option<f64>,
}

/// Timings are wall-clock *measurements* — they differ between
/// bit-identical runs — so equality deliberately ignores them.
impl PartialEq for TileRecord {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.intervals == other.intervals
    }
}

/// Whether two value runs carry the same bits — a merge's conflict test.
fn same_bits(a: impl IntoIterator<Item = f64>, b: impl IntoIterator<Item = f64>) -> bool {
    a.into_iter()
        .map(f64::to_bits)
        .eq(b.into_iter().map(f64::to_bits))
}

impl TileSet {
    /// An empty artifact for `grid` over the dataset with `fingerprint`.
    pub fn empty(grid: TileGrid, fingerprint: u64) -> Self {
        TileSet {
            grid,
            fingerprint,
            tiles: BTreeMap::new(),
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
        self.tiles
            .values()
            .filter(|r| r.intervals.is_some())
            .count()
    }

    /// Whether a present tile carries certified intervals.
    pub fn is_certified(&self, id: usize) -> bool {
        self.tiles.get(&id).is_some_and(|r| r.intervals.is_some())
    }

    /// Observed compute wall seconds of a tile, when a run recorded one
    /// (`W` checkpoint line). Old-format artifacts have none.
    pub fn timing(&self, id: usize) -> Option<f64> {
        self.tiles.get(&id)?.seconds
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
        Some(self.tiles.get(&id)?.values[idx])
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
        let (lower, upper) = self.tiles.get(&id)?.intervals.as_ref()?[idx];
        Some(SndInterval { lower, upper })
    }

    /// The adjacent transitions `(t − 1, t)` read off the superdiagonal
    /// through `read` ([`pair`](Self::pair) for distances,
    /// [`pair_interval`](Self::pair_interval) for certified intervals),
    /// `states − 1` values in series order.
    ///
    /// # Panics
    /// If `read` finds no value for some transition: the set must hold
    /// every superdiagonal tile, as a superdiagonal plan's run leaves it.
    pub fn adjacent<T>(&self, read: impl Fn(&Self, usize, usize) -> Option<T>) -> Vec<T> {
        (1..self.grid.k)
            .map(|t| {
                read(self, t - 1, t)
                    // lint:allow(no-unwrap) documented panic: callers run a superdiagonal plan first
                    .expect("the tile set covers every transition")
            })
            .collect()
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

    /// Records one line under the format's one ordering rule: a `T` line
    /// only for an absent tile; an `I` or `W` line at most once, and only
    /// for a present tile. The loader, the engine's tile loop and the
    /// orchestrator's coordinator all record through here. Returns
    /// whether the line was recorded; a line that breaks the rule, or
    /// does not fit the grid, leaves the set unchanged.
    pub fn accept(&mut self, line: TileLine) -> bool {
        if !line.fits(&self.grid) {
            return false;
        }
        match line {
            TileLine::Values { id, values } => match self.tiles.entry(id) {
                Entry::Vacant(slot) => {
                    slot.insert(TileRecord {
                        values,
                        intervals: None,
                        seconds: None,
                    });
                    true
                }
                Entry::Occupied(_) => false,
            },
            TileLine::Intervals { id, intervals } => match self.tiles.get_mut(&id) {
                Some(r) if r.intervals.is_none() => {
                    r.intervals = Some(intervals);
                    true
                }
                _ => false,
            },
            TileLine::Timing { id, seconds } => match self.tiles.get_mut(&id) {
                Some(r) if r.seconds.is_none() => {
                    r.seconds = Some(seconds);
                    true
                }
                _ => false,
            },
        }
    }

    /// Keeps only the listed tiles.
    pub(crate) fn restrict(mut self, ids: &[usize]) -> Self {
        let keep: std::collections::BTreeSet<usize> = ids.iter().copied().collect();
        self.tiles.retain(|id, _| keep.contains(id));
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
            for (id, record) in part.tiles {
                let have = match merged.tiles.entry(id) {
                    Entry::Vacant(slot) => {
                        slot.insert(record);
                        continue;
                    }
                    Entry::Occupied(slot) => slot.into_mut(),
                };
                if !same_bits(have.values.iter().copied(), record.values) {
                    return Err(ShardError::Overlap { tile: id });
                }
                // Certification survives the merge: a tile's intervals
                // come from whichever part carries them (an old
                // midpoint-only artifact contributes none), and two
                // certified copies of the same tile must agree
                // bit-for-bit — with identical values and fingerprints a
                // disagreement means a corrupt artifact.
                if let Some(theirs) = record.intervals {
                    if let Some(ours) = &have.intervals {
                        if !same_bits(
                            ours.iter().flat_map(|&(lo, hi)| [lo, hi]),
                            theirs.iter().flat_map(|&(lo, hi)| [lo, hi]),
                        ) {
                            return Err(ShardError::Overlap { tile: id });
                        }
                    } else {
                        have.intervals = Some(theirs);
                    }
                }
                // Timings are advisory measurements: first part wins, no
                // agreement required (two runs legitimately time
                // differently).
                have.seconds = have.seconds.or(record.seconds);
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
        for (&id, record) in &self.tiles {
            for ((i, j), &v) in self.grid.pairs(id).iter().zip(&record.values) {
                upper[i * k - i * (i + 1) / 2 + (j - i - 1)] = v;
            }
        }
        Ok(DistanceMatrix::from_upper(k, &upper))
    }

    /// Writes the artifact (header + every tile's lines) to `path`,
    /// replacing any existing file.
    pub fn save(&self, path: &Path) -> Result<(), ShardError> {
        let mut out = String::new();
        header_lines(&mut out, &self.grid, self.fingerprint);
        for (&id, r) in &self.tiles {
            let lines = [
                Some(TileLine::Values {
                    id,
                    values: r.values.clone(),
                }),
                r.intervals
                    .clone()
                    .map(|intervals| TileLine::Intervals { id, intervals }),
                r.seconds.map(|seconds| TileLine::Timing { id, seconds }),
            ];
            for line in lines.iter().flatten() {
                line.write(&mut out);
            }
        }
        std::fs::write(path, out)?;
        Ok(())
    }

    /// Reads an artifact/checkpoint. A torn trailing tile line — the
    /// remnant of an interrupted run — is discarded (that tile is simply
    /// recomputed on resume); header corruption is an error.
    pub fn load(path: &Path) -> Result<TileSet, ShardError> {
        Ok(Self::parse_artifact(&std::fs::read(path)?, path)?.0)
    }

    /// Parses an artifact's bytes, returning the set plus the byte length
    /// of the valid prefix — resume truncates the file there before
    /// appending. Both header lines must be complete
    /// (newline-terminated): appending tiles after a half-written header
    /// would corrupt the file irrecoverably.
    fn parse_artifact(bytes: &[u8], path: &Path) -> Result<(TileSet, u64), ShardError> {
        fn complete(line: &[u8]) -> Option<&str> {
            std::str::from_utf8(line.strip_suffix(b"\n")?).ok()
        }
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        let magic = lines.next().unwrap_or_default();
        if complete(magic) != Some(MAGIC) {
            return Err(ShardError::Format(format!(
                "{}: missing '{MAGIC}' header",
                path.display()
            )));
        }
        let header = lines.next().unwrap_or_default();
        let (grid, fingerprint) = complete(header)
            .and_then(TileLine::parse_header)
            .ok_or_else(|| ShardError::Format(format!("{}: bad header line", path.display())))?;
        let mut offset = magic.len() + header.len();

        // A line that is unterminated, not UTF-8, malformed or out of
        // order is a torn append: drop it and everything after. A tile
        // whose `I` or `W` line was lost stays valid — uncertified or
        // untimed — so resume never recomputes it.
        let mut set = TileSet::empty(grid, fingerprint);
        for line in lines {
            let Some(parsed) = complete(line).and_then(|l| TileLine::parse(l, &grid)) else {
                break;
            };
            if !set.accept(parsed) {
                break;
            }
            offset += line.len();
        }
        Ok((set, offset as u64))
    }
}

fn header_lines(out: &mut String, grid: &TileGrid, fingerprint: u64) {
    out.push_str(MAGIC);
    out.push('\n');
    TileLine::write_header(out, grid, fingerprint);
}

/// One result line of the checkpoint/artifact format, and the one codec
/// for it: checkpoints, saved artifacts and the orchestrator's wire all
/// write lines with [`write`](Self::write) and read them with
/// [`parse`](Self::parse). See the [module docs](self) for the format and
/// [`TileSet::accept`] for the ordering rule.
#[derive(Clone, Debug, PartialEq)]
pub enum TileLine {
    /// `T <id> <count> <hex>...`: a finished tile's values.
    Values {
        /// Tile ID.
        id: usize,
        /// Values in the grid's pair order.
        values: Vec<f64>,
    },
    /// `I <id> <count> <lo-hex> <hi-hex>...`: the tile's certified
    /// `[lo, hi]` envelopes.
    Intervals {
        /// Tile ID.
        id: usize,
        /// Intervals in the grid's pair order.
        intervals: Vec<(f64, f64)>,
    },
    /// `W <id> <hex>`: the tile's observed compute wall seconds.
    Timing {
        /// Tile ID.
        id: usize,
        /// Wall seconds.
        seconds: f64,
    },
}

impl TileLine {
    /// The tile the line belongs to.
    pub fn id(&self) -> usize {
        match self {
            TileLine::Values { id, .. }
            | TileLine::Intervals { id, .. }
            | TileLine::Timing { id, .. } => *id,
        }
    }

    /// Whether the ID is in the grid and the value count matches the
    /// tile's pair count.
    fn fits(&self, grid: &TileGrid) -> bool {
        let id = self.id();
        id < grid.tile_count()
            && match self {
                TileLine::Values { values, .. } => values.len() == grid.pair_count(id),
                TileLine::Intervals { intervals, .. } => intervals.len() == grid.pair_count(id),
                TileLine::Timing { .. } => true,
            }
    }

    /// Appends the line, newline-terminated, to `out`; every value is the
    /// hex of its IEEE-754 bits, so a round trip is exact.
    pub fn write(&self, out: &mut String) {
        // Formatting into a `String` cannot fail.
        let hex = |out: &mut String, v: f64| {
            let _ = write!(out, " {:016x}", v.to_bits());
        };
        match self {
            TileLine::Values { id, values } => {
                let _ = write!(out, "T {id} {}", values.len());
                for &v in values {
                    hex(out, v);
                }
            }
            TileLine::Intervals { id, intervals } => {
                let _ = write!(out, "I {id} {}", intervals.len());
                for &(lo, hi) in intervals {
                    hex(out, lo);
                    hex(out, hi);
                }
            }
            TileLine::Timing { id, seconds } => {
                let _ = write!(out, "W {id}");
                hex(out, *seconds);
            }
        }
        out.push('\n');
    }

    /// Parses one line (without its newline) against `grid`: the ID must
    /// be in range, a `T`/`I` count must match the tile's pair count and
    /// the words that follow, and every value must be finite and
    /// non-negative with `lo ≤ hi` — a corrupt timing must not poison the
    /// autotuner either. `None` on any malformation: callers treat that
    /// as a torn checkpoint tail or a protocol violation, never a panic.
    pub fn parse(line: &str, grid: &TileGrid) -> Option<TileLine> {
        let mut t = line.split_ascii_whitespace();
        let tag = t.next()?;
        let id: usize = t.next()?.parse().ok()?;
        if id >= grid.tile_count() {
            return None;
        }
        let value = |t: &mut Words<'_>| parse_value(t.next()?);
        let parsed = match tag {
            "T" => TileLine::Values {
                id,
                values: per_pair(&mut t, grid.pair_count(id), value)?,
            },
            "I" => TileLine::Intervals {
                id,
                intervals: per_pair(&mut t, grid.pair_count(id), |t| {
                    let (lo, hi) = (value(t)?, value(t)?);
                    (lo <= hi).then_some((lo, hi))
                })?,
            },
            "W" => TileLine::Timing {
                id,
                seconds: value(&mut t)?,
            },
            _ => return None,
        };
        t.next().is_none().then_some(parsed)
    }

    /// Appends the header line that follows a checkpoint's magic line —
    /// and the wire's `GRID` verb — to `out`.
    pub fn write_header(out: &mut String, grid: &TileGrid, fingerprint: u64) {
        out.push_str(&format!(
            "k {} tile {} fingerprint {fingerprint:016x}\n",
            grid.k, grid.tile
        ));
    }

    /// Parses a header line (without its newline). A grid whose counts do
    /// not fit `usize` is a malformation like any other.
    pub fn parse_header(line: &str) -> Option<(TileGrid, u64)> {
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
}

/// An append-mode handle on a checkpoint/artifact file: the durable side
/// of a run. [`Checkpoint::open`] validates (or writes) the header,
/// resumes completed tiles, and truncates a torn trailing line;
/// [`Checkpoint::append`] is the one writer of tile lines.
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
    /// discards a torn trailing line, and positions the file for
    /// appending. Returns the resumed [`TileSet`] alongside the handle.
    pub fn open(
        path: &Path,
        grid: TileGrid,
        fingerprint: u64,
    ) -> Result<(TileSet, Checkpoint), ShardError> {
        let mut expected_header = String::new();
        header_lines(&mut expected_header, &grid, fingerprint);
        let existing = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
            // An empty file, or a proper prefix of the header this run
            // would write, is the remnant of a kill during the initial
            // header write — no tile was committed, so start fresh
            // instead of appending tile lines onto a half-written header.
            Ok(bytes) if expected_header.as_bytes().starts_with(&bytes) => None,
            Ok(bytes) => {
                let (set, clean_len) = TileSet::parse_artifact(&bytes, path)?;
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
                // Truncate away any torn tail, then append.
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

    /// Appends lines — a finished tile's, or a single `I`/`W` line that
    /// arrives after its tile's `T` line — with one write, then flushes
    /// them to the OS. The caller keeps the order [`TileSet::accept`]
    /// enforces, so the file loads back as written. Not fsynced: the
    /// lines survive a killed process, but a power loss or OS crash may
    /// lose them, leaving a torn tail that resume recomputes.
    pub fn append(&mut self, lines: &[TileLine]) -> Result<(), ShardError> {
        let mut out = String::new();
        for line in lines {
            line.write(&mut out);
        }
        self.file.write_all(out.as_bytes())?;
        self.file.flush()?;
        Ok(())
    }
}

/// The whitespace-separated words of one line.
type Words<'a> = std::str::SplitAsciiWhitespace<'a>;

/// A `T`/`I` line's pair count, which must equal the tile's `pairs`, then
/// one item per pair. No capacity from the count: the line, not the
/// claim, bounds the items.
fn per_pair<T>(
    t: &mut Words<'_>,
    pairs: usize,
    item: impl Fn(&mut Words<'_>) -> Option<T>,
) -> Option<Vec<T>> {
    if t.next()?.parse::<usize>().ok()? != pairs {
        return None;
    }
    let mut items = Vec::new();
    for _ in 0..pairs {
        items.push(item(t)?);
    }
    Some(items)
}

/// One hex-encoded `f64` field that is a valid SND value: finite and
/// non-negative. A NaN, an infinity or a negative distance is a
/// malformation like any other.
fn parse_value(field: &str) -> Option<f64> {
    let v = f64::from_bits(u64::from_str_radix(field, 16).ok()?);
    (v.is_finite() && v >= 0.0).then_some(v)
}

/// Tile state a caller carries across tile-plan calls: the bundle chain's
/// head and the live per-state geometry bundles, with their SSSP row
/// caches. [`SndEngine::pairwise_tiles_in`] reads and updates it under
/// its retention rule; the other tile entry points run over a workspace
/// of their own. A workspace belongs to one engine and one snapshot set.
///
/// The bundles' caches keep each row gathered to the columns pricing
/// reads: per opinion, the users who hold it in some state of the
/// snapshot set (every node, in full rows, when some state holds none).
/// That set depends on the snapshot set alone, so the workspace computes
/// it once, on its first call. A gathered row cannot seed a repair, so
/// the workspace also keeps, across its calls, the newest full row of
/// each `(opinion, direction, user)` key and the state that row belongs
/// to, but none of that state's geometry (see [`crate::batch`]). Rows
/// written by one tile or call thus repair the rows of the next, also
/// after the bundle that wrote them was dropped.
///
/// A workspace from [`new`](Self::new), which a caller carries across
/// calls as an orchestrated worker does, never drops a stored row: it
/// holds one full row per key it has priced, at most as many as a
/// one-tile matrix holds, and computes each key's row fresh once. The
/// entry points that run one plan over a workspace of their own
/// ([`SndEngine::pairwise_tiles`],
/// [`SndEngine::pairwise_tiles_checkpointed`]) bound the store by the
/// plan instead. A pair reads a user's rows only if its two states
/// differ at that user, so after each tile the store keeps only the rows
/// of users a later tile of the plan may read, and after the final tile
/// none. A superdiagonal plan over a series thus holds only the keys of
/// users that change again ahead, where a workspace from `new` would
/// hold every key of the series, and a row group whose key no later tile
/// reads walks in a transient row instead of a full row of its own.
#[derive(Default)]
pub struct TileWorkspace {
    /// The chain head: the last state built, still repairable.
    head: Option<(usize, DeltaStateGeometry)>,
    /// The live bundles, by state index.
    geoms: BTreeMap<usize, StateGeometry>,
    /// The newest full row of each key, the repair seeds of later rows.
    seeds: SeedRows,
    /// The column map of each opinion's rows (positive, negative), once
    /// computed; `None` inside keeps full rows.
    cols: Option<[Option<Arc<Columns>>; 2]>,
    /// Fresh, repaired and inter-cluster rows of the bundles already
    /// dropped.
    dropped_rows: (usize, usize, usize),
    /// Whether the workspace lives for one plan, so the seed store keeps
    /// only the rows a later tile of that plan may read.
    one_plan: bool,
}

impl TileWorkspace {
    /// An empty workspace: no head, no live bundles.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace for one plan, whose seed store drops the rows
    /// no later tile of the plan reads.
    fn for_one_plan() -> Self {
        TileWorkspace {
            one_plan: true,
            ..Self::default()
        }
    }

    /// SSSP rows this workspace's bundles computed with a fresh Dial run,
    /// live and dropped bundles alike.
    pub fn fresh_rows(&self) -> usize {
        self.dropped_rows.0
            + self
                .geoms
                .values()
                .map(|b| b.cached_rows() - b.repaired_rows())
                .sum::<usize>()
    }

    /// SSSP rows this workspace's bundles repaired from another state's
    /// row, live and dropped bundles alike.
    pub fn repaired_rows(&self) -> usize {
        self.dropped_rows.1
            + self
                .geoms
                .values()
                .map(StateGeometry::repaired_rows)
                .sum::<usize>()
    }

    /// Inter-cluster rows this workspace's bundles computed, fresh or
    /// repaired, live and dropped bundles alike
    /// ([`StateGeometry::cluster_rows`]).
    pub fn cluster_rows(&self) -> usize {
        self.dropped_rows.2
            + self
                .geoms
                .values()
                .map(StateGeometry::cluster_rows)
                .sum::<usize>()
    }

    /// Drops state `s`'s bundle, keeping its row counts.
    fn drop_bundle(&mut self, s: usize) {
        if let Some(b) = self.geoms.remove(&s) {
            self.dropped_rows.0 += b.cached_rows() - b.repaired_rows();
            self.dropped_rows.1 += b.repaired_rows();
            self.dropped_rows.2 += b.cluster_rows();
        }
    }
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
    /// (with their shared SSSP row caches) and per-key repair seeds reused
    /// across every tile of the run and freed once no remaining tile needs
    /// them (see [`TileWorkspace`]). The union of any plan partition,
    /// merged, is bit-identical to
    /// [`pairwise_distances_seq`](Self::pairwise_distances_seq).
    pub fn pairwise_tiles(&self, states: &[NetworkState], plan: &ShardPlan) -> TileSet {
        self.plan_tiles(states, plan, self.approx_if_active().as_ref())
    }

    /// [`pairwise_tiles`](Self::pairwise_tiles) priced with `approx`
    /// (`None`: exact) instead of the engine's active tier: the entry
    /// the series surfaces run their superdiagonal plan through.
    pub(crate) fn plan_tiles(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        approx: Option<&ApproxConfig>,
    ) -> TileSet {
        let mut set = TileSet::empty(*plan.grid(), self.shard_fingerprint(states));
        let mut ws = TileWorkspace::for_one_plan();
        self.tiles_in(states, plan, approx, &mut ws, &mut set, &mut |_| Ok(()))
            // lint:allow(no-unwrap) the no-op sink closure is the only error source and always returns Ok
            .expect("in-memory tile computation performs no IO");
        set
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
        let mut ws = TileWorkspace::for_one_plan();
        self.pairwise_tiles_in(states, plan, &mut ws, &mut set, &mut |lines| {
            ckpt.append(lines)
        })?;
        Ok(ShardRun {
            tiles: set.restrict(plan.tile_ids()),
            resumed,
            computed: plan.tile_ids().len() - resumed,
        })
    }

    /// The one tile loop: computes the plan's tiles missing from `set` in
    /// ascending ID order over the caller's workspace, invoking `on_tile`
    /// (the checkpoint append or socket hook) before recording each one in
    /// `set`. This is the streaming entry point: an orchestrated worker
    /// keeps one workspace for its connection and serializes each tile
    /// onto its socket from here, overlapping the send with the next
    /// tile's compute. An error from the hook aborts the run.
    ///
    /// Every tile is priced with `price_pairs` over its pairs, exactly as
    /// the matrix prices all pairs (see [`crate::batch`]; the matrix is
    /// this loop over one tile): rows an earlier tile or call wrote into a
    /// live bundle are hits, the rest are fresh or repaired along the
    /// snapshot order, and a row group's first row repairs from the full
    /// row of the key the workspace keeps. The bundles keep their rows
    /// gathered to the workspace's column set, and the workspace keeps
    /// the newest full row of each key (see [`TileWorkspace`]).
    ///
    /// Bundles live in the workspace under one retention rule, so a
    /// worker never holds more states between leases than one lease
    /// touches:
    ///
    /// * at the start of a call, bundles of states no tile of the plan
    ///   touches are dropped;
    /// * a bundle is built when the first tile needing it comes up
    ///   (unless an earlier call left it live) and dropped after the last
    ///   one, except that the bundles of the plan's final tile stay for
    ///   the next call.
    ///
    /// Bundles come from the one snapshot-ordered materializer
    /// (`delta::chain_geometry`): a state up to two blocks past the chain
    /// head is reached by delta steps, anything else (a resumed gap, a
    /// plan jumping back) is built fresh. The head, too, outlives the
    /// call.
    ///
    /// `ws` must only ever see this engine and this snapshot set.
    pub fn pairwise_tiles_in(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        ws: &mut TileWorkspace,
        set: &mut TileSet,
        on_tile: &mut OnTile<'_>,
    ) -> Result<(), ShardError> {
        let approx = self.approx_if_active();
        self.tiles_in(states, plan, approx.as_ref(), ws, set, on_tile)
    }

    /// The tile loop of [`pairwise_tiles_in`](Self::pairwise_tiles_in),
    /// pricing every term with `approx` (`None`: exact).
    fn tiles_in(
        &self,
        states: &[NetworkState],
        plan: &ShardPlan,
        approx: Option<&ApproxConfig>,
        ws: &mut TileWorkspace,
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
        // The approximate tier prices every term as a certified envelope;
        // persist those alongside the scalar tile values.
        let certified = approx.is_some();

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
        // The position of each state's last tile; the final tile's states
        // never reach theirs, so their bundles outlive the call.
        let mut last_use: Vec<Option<usize>> = vec![None; states.len()];
        for (pos, touched) in tile_states.iter().enumerate() {
            for &s in touched {
                last_use[s] = Some(pos);
            }
        }
        for &s in tile_states.last().into_iter().flatten() {
            last_use[s] = Some(usize::MAX);
        }
        // A workspace for one plan keeps, after each tile, only the seeds
        // of users a later tile of the plan may read: none after the
        // final tile. A carried workspace keeps every seed.
        let last_read = ws.one_plan.then(|| last_reads(states, &tile_states));
        let untouched: Vec<usize> = ws
            .geoms
            .keys()
            .copied()
            .filter(|&s| last_use.get(s).copied().flatten().is_none())
            .collect();
        for s in untouched {
            ws.drop_bundle(s);
        }
        let cols = ws
            .cols
            .get_or_insert_with(|| Columns::read_by(states, certified))
            .clone();

        // Per-tile wall clock for the `W` checkpoint lines: geometry
        // materialization counts against the tile that triggered it —
        // that is the true cost of scheduling the tile, which is what an
        // autotuner planning leases needs.
        let mut mark = std::time::Instant::now();
        for (pos, (&id, touched)) in todo.iter().zip(&tile_states).enumerate() {
            for &s in touched {
                if !ws.geoms.contains_key(&s) {
                    let geom =
                        chain_geometry(self, states, ws.head.take(), s, 2 * grid.tile_size());
                    let cache = RowCache::gathered(self.graph().node_count(), cols.clone());
                    ws.geoms.insert(s, geom.bundle_with(cache));
                    ws.head = Some((s, geom));
                }
            }

            let pairs = grid.pairs(id);
            let live = |s| ws.geoms.get(&s);
            let keep = |u| match &last_read {
                Some(last) => last.get(&u).is_some_and(|&last| last > pos),
                None => true,
            };
            let terms = self.price_pairs(states, live, &mut ws.seeds, keep, &pairs, approx);
            let (values, intervals) = fold_terms(&terms, certified);

            let mut lines = vec![TileLine::Values { id, values }];
            lines.extend(intervals.map(|intervals| TileLine::Intervals { id, intervals }));
            lines.push(TileLine::Timing {
                id,
                seconds: mark.elapsed().as_secs_f64(),
            });
            on_tile(&lines)?;
            for line in lines {
                set.accept(line);
            }
            for &s in touched {
                if last_use[s] == Some(pos) {
                    ws.drop_bundle(s);
                }
            }
            mark = std::time::Instant::now();
        }
        Ok(())
    }
}

/// For each user the states of some tile disagree on, the position in
/// `tiles` (each tile's states, in plan order) of the last such tile. A
/// pair reads a user's rows only if its two states differ at that user
/// (`sparse::classify_term`), so no tile after that position reads them.
fn last_reads(states: &[NetworkState], tiles: &[Vec<usize>]) -> HashMap<NodeId, usize> {
    let mut last = HashMap::new();
    let Some(head) = states.first() else {
        return last;
    };
    for u in 0..head.len() as NodeId {
        // A user every state agrees on is read by no tile: skip the scan.
        let op = head.opinion(u);
        if states.iter().all(|s| s.opinion(u) == op) {
            continue;
        }
        let differs = |tile: &Vec<usize>| {
            let ops = tile.iter().map(|&s| states[s].opinion(u));
            ops.clone().zip(ops.skip(1)).any(|(a, b)| a != b)
        };
        if let Some(pos) = tiles.iter().rposition(differs) {
            last.insert(u, pos);
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SndConfig;
    use snd_graph::generators::path_graph;
    use snd_models::Opinion;
    use std::collections::BTreeSet;

    /// Each present tile's values.
    fn values(set: &TileSet) -> BTreeMap<usize, &[f64]> {
        set.tiles
            .iter()
            .map(|(&id, r)| (id, &r.values[..]))
            .collect()
    }

    /// Number of present tiles carrying a timing.
    fn timed(set: &TileSet) -> usize {
        set.tiles.values().filter(|r| r.seconds.is_some()).count()
    }

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
        let (&id, record) = conflicting.tiles.iter_mut().next().unwrap();
        if let Some(v) = record.values.first_mut() {
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
        assert!(new_set.certified_tile_count() > 0);
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
        assert_eq!(values(&old_set), values(&new_set), "midpoints survive");
        assert_eq!(old_set.certified_tile_count(), 0);
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
        assert_eq!(run.tiles.certified_tile_count(), 0);
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
        assert_eq!(values(&loaded), values(&set));
        assert_eq!(loaded.certified_tile_count(), set.certified_tile_count());
        assert_eq!(timed(&loaded), timed(&set) - 1);

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
        assert_eq!(values(&loaded), values(&set));
        assert_eq!(
            loaded.certified_tile_count(),
            set.certified_tile_count() - 1
        );
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
        retimed.tiles.get_mut(&0).unwrap().seconds = Some(123.456);
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
                ckpt.append(&[
                    TileLine::Values { id, values },
                    TileLine::Timing { id, seconds: 0.25 },
                ])
                .unwrap();
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
    fn accept_is_the_one_ordering_rule() {
        // `k 3 tile 2`: tile 0 holds the pair (0, 1), tile 1 holds (0, 2)
        // and (1, 2), tile 2 holds none.
        let grid = TileGrid::new(3, 2);
        let mut set = TileSet::empty(grid, 7);
        let t = |id: usize, n: usize| TileLine::Values {
            id,
            values: vec![1.0; n],
        };
        let i = |id: usize, n: usize| TileLine::Intervals {
            id,
            intervals: vec![(0.5, 1.5); n],
        };
        let w = |id: usize| TileLine::Timing { id, seconds: 0.5 };
        // `I` and `W` only for a present tile.
        assert!(!set.accept(i(1, 2)));
        assert!(!set.accept(w(1)));
        // A line that does not fit the grid is refused.
        assert!(!set.accept(t(1, 1)));
        assert!(!set.accept(t(3, 0)));
        assert!(set.accept(t(1, 2)));
        // `T` only for an absent tile; `I` and `W` at most once each.
        assert!(!set.accept(t(1, 2)));
        assert!(!set.accept(i(1, 1)));
        assert!(set.accept(i(1, 2)));
        assert!(!set.accept(i(1, 2)));
        assert!(set.accept(w(1)));
        assert!(!set.accept(w(1)));
        assert!(set.accept(t(0, 1)));
        assert_eq!(set.tile_count(), 2);
        assert_eq!(set.certified_tile_count(), 1);
        assert_eq!(set.timing(1), Some(0.5));
        assert_eq!(set.timing(0), None);

        // Every accepted line round-trips through the one writer and
        // parser.
        for line in [t(1, 2), i(1, 2), w(1), t(2, 0)] {
            let mut text = String::new();
            line.write(&mut text);
            let body = text.strip_suffix('\n').unwrap();
            assert_eq!(TileLine::parse(body, &grid), Some(line), "{text:?}");
        }
    }

    #[test]
    fn a_torn_non_utf8_tail_resumes_like_any_torn_tail() {
        let g = path_graph(8);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states(6);
        let grid = TileGrid::new(6, 2);
        let plan = ShardPlan::full(grid);
        let path =
            std::env::temp_dir().join(format!("snd_shard_non_utf8_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        engine
            .pairwise_tiles_checkpointed(&s, &ShardPlan::explicit(grid, vec![0]).unwrap(), &path)
            .unwrap();
        let clean = std::fs::read(&path).unwrap();

        // A half-written `T` line whose last bytes are no UTF-8, once
        // unterminated and once newline-terminated.
        for tail in [&b"T 3 4 00\xff\xfe"[..], b"T 3 4 00\xff\xfe\n"] {
            std::fs::write(&path, [&clean[..], tail].concat()).unwrap();
            let loaded = TileSet::load(&path).unwrap();
            assert_eq!(loaded.tile_count(), 1);
            let run = engine
                .pairwise_tiles_checkpointed(&s, &plan, &path)
                .unwrap();
            assert_eq!((run.resumed, run.computed), (1, grid.tile_count() - 1));
            assert_eq!(
                run.tiles.to_matrix().unwrap(),
                engine.pairwise_distances_seq(&s)
            );
            // Resume truncated the tail before appending.
            let resumed = std::fs::read(&path).unwrap();
            assert!(resumed.starts_with(&clean));
            assert!(std::str::from_utf8(&resumed).is_ok());
            std::fs::write(&path, &clean).unwrap();
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

    /// A low-churn series on a BA graph: two to four users change opinion
    /// per snapshot, the regime the matrix repairs rows in.
    fn low_churn(n: usize, k: usize, seed: u64) -> (snd_graph::CsrGraph, Vec<NetworkState>) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = snd_graph::generators::barabasi_albert(n, 3, &mut rng);
        let first: Vec<i8> = (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 => 1,
                1 => -1,
                _ => 0,
            })
            .collect();
        let mut states = vec![NetworkState::from_values(&first)];
        for _ in 1..k {
            let mut next = states[states.len() - 1].clone();
            for _ in 0..rng.gen_range(2..=4) {
                let u = rng.gen_range(0..n as u32);
                next.set(u, snd_models::Opinion::from_value(rng.gen_range(-1..=1)));
            }
            states.push(next);
        }
        (g, states)
    }

    /// Computes `plan` over `ws` into a fresh set.
    fn tiles_in(
        engine: &SndEngine<'_>,
        states: &[NetworkState],
        plan: &ShardPlan,
        ws: &mut TileWorkspace,
    ) -> TileSet {
        let mut set = TileSet::empty(*plan.grid(), 0);
        engine
            .pairwise_tiles_in(states, plan, ws, &mut set, &mut |_| Ok(()))
            .unwrap();
        set
    }

    #[test]
    fn tile_one_plan_seeds_rows_from_live_bundles() {
        // At tile 1 every tile is one pair, whose two grounds read rows
        // of opposite directions: no group has a second step to repair.
        // Only seeding from the bundles earlier tiles filled repairs rows.
        let (g, s) = low_churn(300, 8, 7);
        for config in [
            SndConfig::default(),
            SndConfig {
                clusters: crate::config::ClusterSpec::BfsPartition { clusters: 6 },
                ..Default::default()
            },
        ] {
            let engine = SndEngine::new(&g, config);
            let grid = TileGrid::new(s.len(), 1);
            let mut ws = TileWorkspace::new();
            let set = tiles_in(&engine, &s, &ShardPlan::full(grid), &mut ws);
            assert!(ws.repaired_rows() > 0, "tile-1 plan repaired no rows");
            assert!(ws.fresh_rows() > 0);
            assert_eq!(set.to_matrix().unwrap(), engine.pairwise_distances_seq(&s));
        }
    }

    #[test]
    fn a_workspace_carries_bundles_across_calls() {
        let (g, s) = low_churn(300, 8, 11);
        let engine = SndEngine::new(&g, SndConfig::default());
        let grid = TileGrid::new(s.len(), 2);
        // One tile per call, in an order that jumps around the grid.
        let order = [0, 1, 4, 5, 2, 3, 7, 6, 9, 8];
        assert_eq!(order.len(), grid.tile_count());
        let (mut shared, mut separate_fresh) = (TileWorkspace::new(), 0);
        for id in order {
            let plan = ShardPlan::explicit(grid, vec![id]).unwrap();
            let mut own = TileWorkspace::new();
            let alone = tiles_in(&engine, &s, &plan, &mut own);
            separate_fresh += own.fresh_rows();
            let carried = tiles_in(&engine, &s, &plan, &mut shared);
            assert_eq!(carried, alone, "tile {id}");
            // Between calls the workspace holds the last tile's states.
            let mut touched: Vec<usize> =
                grid.pairs(id).iter().flat_map(|&(i, j)| [i, j]).collect();
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(shared.geoms.keys().copied().collect::<Vec<_>>(), touched);
        }
        assert!(
            shared.fresh_rows() < separate_fresh,
            "{} fresh rows carried, {separate_fresh} fresh rows alone",
            shared.fresh_rows()
        );
        assert!(shared.repaired_rows() > 0);
    }

    /// A fresh Dial row of `(op, reverse, node)` over `plane`, in full.
    fn fresh_row(
        engine: &SndEngine<'_>,
        plane: &crate::banks::GroundGeometry,
        reverse: bool,
        node: snd_graph::NodeId,
    ) -> Vec<u32> {
        let mut full = vec![0; engine.graph().node_count()];
        crate::sparse::compute_row(engine.graph(), plane, reverse, &[node], &mut full);
        full
    }

    /// Every cached row of a workspace's live bundles checked against a
    /// fresh Dial run at every column it keeps, and every full row of its
    /// seed store (there must be some) in full against a fresh Dial run
    /// of the state it records; returns how many cached rows were checked.
    fn check_rows(engine: &SndEngine<'_>, states: &[NetworkState], ws: &TileWorkspace) -> usize {
        let mut checked = 0;
        for bundle in ws.geoms.values() {
            for op in [Opinion::Positive, Opinion::Negative] {
                let cols = bundle.cache.columns(op);
                for (reverse, node, row) in bundle.cache.rows(op) {
                    let full = fresh_row(engine, bundle.plane(op), reverse, node);
                    for &u in &cols {
                        assert_eq!(row.at(u), full[u as usize], "row {node} at {u}");
                    }
                    checked += 1;
                }
            }
        }
        let mut built = BTreeMap::new();
        let mut keys = Vec::new();
        for ((neg, reverse, node), s, row) in ws.seeds.rows() {
            let op = if neg {
                Opinion::Negative
            } else {
                Opinion::Positive
            };
            let bundle = built
                .entry(s)
                .or_insert_with(|| engine.state_geometry(&states[s]));
            let full = fresh_row(engine, bundle.plane(op), reverse, node);
            assert_eq!(row, &full[..], "seed row {node} of state {s}");
            keys.push((neg, reverse, node));
        }
        assert!(!keys.is_empty(), "the seed store holds no row");
        let stored = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), stored, "at most one full row per key");
        checked
    }

    #[test]
    fn gathered_rows_equal_fresh_rows_at_every_column() {
        let (g, s) = low_churn(300, 8, 5);
        for config in [
            SndConfig::default(),
            SndConfig {
                clusters: crate::config::ClusterSpec::BfsPartition { clusters: 6 },
                gamma: crate::config::GammaPolicy::Eccentricity,
                ..Default::default()
            },
        ] {
            let engine = SndEngine::new(&g, config);
            let grid = TileGrid::new(s.len(), s.len());
            let mut ws = TileWorkspace::new();
            let set = tiles_in(&engine, &s, &ShardPlan::full(grid), &mut ws);
            assert_eq!(set.to_matrix().unwrap(), engine.pairwise_distances_seq(&s));
            for bundle in ws.geoms.values() {
                for op in [Opinion::Positive, Opinion::Negative] {
                    assert!(bundle.cache.columns(op).len() < g.node_count());
                }
            }
            let checked = check_rows(&engine, &s, &ws);
            assert!(checked > 0);
            assert_eq!(checked, ws.fresh_rows() + ws.repaired_rows());
        }
    }

    #[test]
    fn a_state_without_negative_users_keeps_full_negative_rows() {
        // State 2 holds no − user: per-bin banks spread a − surplus over
        // every bin against it, so − rows must stay full.
        let (g, mut s) = low_churn(300, 6, 9);
        for u in 0..300 {
            if s[2].opinion(u) == Opinion::Negative {
                s[2].set(u, Opinion::Neutral);
            }
        }
        let engine = SndEngine::new(&g, SndConfig::default());
        let seq = engine.pairwise_distances_seq(&s);
        let grid = TileGrid::new(s.len(), s.len());
        let mut ws = TileWorkspace::new();
        let set = tiles_in(&engine, &s, &ShardPlan::full(grid), &mut ws);
        assert_eq!(set.to_matrix().unwrap(), seq);
        for bundle in ws.geoms.values() {
            assert!(bundle.cache.is_gathered(Opinion::Positive));
            assert!(!bundle.cache.is_gathered(Opinion::Negative));
        }
        check_rows(&engine, &s, &ws);
        assert_eq!(engine.pairwise_distances(&s), seq);
    }

    /// The two bank forms the accounting tests run under: per-bin, and
    /// BFS clusters with eccentricity γ.
    fn accounting_configs() -> [SndConfig; 2] {
        [
            SndConfig::default(),
            SndConfig {
                clusters: crate::config::ClusterSpec::BfsPartition { clusters: 6 },
                gamma: crate::config::GammaPolicy::Eccentricity,
                ..Default::default()
            },
        ]
    }

    /// The `(negative, reverse, user)` keys of every row the live bundles
    /// of `ws` cache.
    fn cached_keys(ws: &TileWorkspace) -> std::collections::BTreeSet<(bool, bool, u32)> {
        let mut keys = std::collections::BTreeSet::new();
        for bundle in ws.geoms.values() {
            for op in [Opinion::Positive, Opinion::Negative] {
                for (reverse, node, _) in bundle.cache.rows(op) {
                    keys.insert((op == Opinion::Negative, reverse, node));
                }
            }
        }
        keys
    }

    #[test]
    fn a_full_plan_computes_one_fresh_row_per_key_at_every_tile_edge() {
        let (g, s) = low_churn(300, 8, 17);
        for config in accounting_configs() {
            let engine = SndEngine::new(&g, config);
            let seq = engine.pairwise_distances_seq(&s);
            // The one-tile plan keeps every bundle live: its caches hold
            // every key the matrix reads.
            let mut whole = TileWorkspace::new();
            let plan = ShardPlan::full(TileGrid::new(s.len(), s.len()));
            tiles_in(&engine, &s, &plan, &mut whole);
            let keys = cached_keys(&whole).len();
            assert!(keys > 0);
            for tile in 1..=s.len() {
                let mut ws = TileWorkspace::new();
                let plan = ShardPlan::full(TileGrid::new(s.len(), tile));
                let set = tiles_in(&engine, &s, &plan, &mut ws);
                assert_eq!(set.to_matrix().unwrap(), seq, "tile {tile}");
                assert_eq!(ws.fresh_rows(), keys, "fresh rows at tile {tile}");
                assert_eq!(ws.seeds.rows().count(), keys, "seed rows at tile {tile}");
                // A workspace for one plan drops the rows no later tile
                // reads, none left after the final tile, and computes no
                // more fresh rows for it.
                let mut own = TileWorkspace::for_one_plan();
                tiles_in(&engine, &s, &plan, &mut own);
                assert_eq!(own.fresh_rows(), keys, "one-plan fresh rows at tile {tile}");
                assert_eq!(own.seeds.rows().count(), 0, "seeds kept at tile {tile}");
            }
        }
    }

    /// The users on which the states of tile `id` disagree: the users
    /// whose rows its pairs may read.
    fn differing_users(grid: &TileGrid, id: usize, s: &[NetworkState]) -> BTreeSet<u32> {
        let touched: Vec<usize> = grid.pairs(id).iter().flat_map(|&(i, j)| [i, j]).collect();
        (0..s[0].len() as u32)
            .filter(|&u| {
                touched
                    .iter()
                    .any(|&t| s[t].opinion(u) != s[touched[0]].opinion(u))
            })
            .collect()
    }

    #[test]
    fn a_superdiagonal_plan_drops_the_rows_of_users_that_stop_changing() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Every step flips users of its own, and from step 3 on flips back
        // two users of the step two before: a later tile reads those
        // users' rows again, and no other user's.
        let mut rng = SmallRng::seed_from_u64(23);
        let (n, k) = (400, 12);
        let g = snd_graph::generators::barabasi_albert(n, 3, &mut rng);
        // Both opinions held in every state, so rows are cached gathered.
        let held = |u: usize| if u.is_multiple_of(2) { 1 } else { -1 };
        let first: Vec<i8> = (0..n).map(|u| if u < 300 { 0 } else { held(u) }).collect();
        let mut states = vec![NetworkState::from_values(&first)];
        for step in 1..k {
            let mut next = states[step - 1].clone();
            for u in (step * 5..step * 5 + 5).map(|u| u as u32) {
                next.set(u, Opinion::from_value(rng.gen_range(0..2) * 2 - 1));
            }
            if step >= 3 {
                for u in [(step - 2) * 5, (step - 2) * 5 + 1].map(|u| u as u32) {
                    next.set(u, Opinion::from_value(-next.opinion(u).value()));
                }
            }
            states.push(next);
        }
        let engine = SndEngine::new(&g, SndConfig::default());
        let seq = engine.pairwise_distances_seq(&states);
        let plan = ShardPlan::superdiagonal(TileGrid::new(k, 2));
        let ids = plan.tile_ids();
        let mut ws = TileWorkspace::for_one_plan();
        let mut set = TileSet::empty(*plan.grid(), 0);
        let mut kept = 0;
        for (pos, &id) in ids.iter().enumerate() {
            // The hook stops each call after its first tile, so the store
            // is seen as that tile left it; the next call goes on with the
            // plan's remaining tiles.
            let mut lines = Vec::new();
            let stop = engine.tiles_in(&states, &plan, None, &mut ws, &mut set, &mut |l| {
                lines.extend_from_slice(l);
                Err(ShardError::Format("stop".into()))
            });
            assert!(stop.is_err());
            for line in lines {
                set.accept(line);
            }
            assert!(set.contains(id));
            let later: BTreeSet<u32> = ids[pos + 1..]
                .iter()
                .flat_map(|&t| differing_users(plan.grid(), t, &states))
                .collect();
            let stored: Vec<u32> = ws.seeds.rows().map(|((_, _, u), ..)| u).collect();
            assert!(
                stored.iter().all(|u| later.contains(u)),
                "tile {id}: {stored:?}"
            );
            kept = kept.max(stored.len());
        }
        assert!(kept > 0, "no tile kept the seed of a user read again");
        assert_eq!(ws.seeds.rows().count(), 0, "the final tile keeps no seed");
        for t in 1..k {
            assert_eq!(set.pair(t - 1, t), Some(seq.at(t - 1, t)));
        }
    }

    #[test]
    fn a_worker_run_of_one_tile_plans_computes_at_most_one_fresh_row_per_key() {
        let (g, s) = low_churn(300, 8, 19);
        for config in accounting_configs() {
            let engine = SndEngine::new(&g, config);
            let mut whole = TileWorkspace::new();
            let plan = ShardPlan::full(TileGrid::new(s.len(), s.len()));
            tiles_in(&engine, &s, &plan, &mut whole);
            let keys = cached_keys(&whole).len();
            for tile in [1, 2, 3] {
                let grid = TileGrid::new(s.len(), tile);
                // One tile per call, as leases arrive: from both ends of
                // the grid towards its middle.
                let n = grid.tile_count();
                let order = (0..n).map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 });
                let mut ws = TileWorkspace::new();
                let mut set = TileSet::empty(grid, 0);
                for id in order {
                    let plan = ShardPlan::explicit(grid, vec![id]).unwrap();
                    engine
                        .pairwise_tiles_in(&s, &plan, &mut ws, &mut set, &mut |_| Ok(()))
                        .unwrap();
                }
                assert_eq!(set.to_matrix().unwrap(), engine.pairwise_distances_seq(&s));
                assert!(
                    ws.fresh_rows() <= keys,
                    "tile {tile}: {} fresh rows for {keys} keys",
                    ws.fresh_rows()
                );
                assert!(ws.repaired_rows() > 0);
            }
        }
    }

    #[test]
    fn a_second_call_over_a_filled_workspace_finds_only_hits() {
        let (g, s) = low_churn(300, 8, 13);
        for config in [
            SndConfig::default(),
            SndConfig {
                clusters: crate::config::ClusterSpec::BfsPartition { clusters: 6 },
                ..Default::default()
            },
        ] {
            let engine = SndEngine::new(&g, config);
            // One tile: every bundle outlives the call, as in the matrix.
            let plan = ShardPlan::full(TileGrid::new(s.len(), s.len()));
            let mut ws = TileWorkspace::new();
            let first = tiles_in(&engine, &s, &plan, &mut ws);
            let rows = (ws.fresh_rows(), ws.repaired_rows());
            assert!(rows.0 > 0);
            let second = tiles_in(&engine, &s, &plan, &mut ws);
            assert_eq!((ws.fresh_rows(), ws.repaired_rows()), rows, "zero new rows");
            assert_eq!(first, second);
        }
    }
}
