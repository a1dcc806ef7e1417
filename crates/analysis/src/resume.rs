//! Checkpoint-backed pairwise/series evaluation.
//!
//! The all-pairs and series workloads over large snapshot sets run for
//! minutes to hours; these entry points route them through the tile-based
//! shard subsystem (`snd_core::shard`) with a checkpoint file, so an
//! interrupted run — or a rerun over the same snapshots — resumes from the
//! completed tiles instead of starting over. The checkpoint is bound to
//! the snapshot set by fingerprint and results are bit-identical to the
//! non-checkpointed evaluation.
//!
//! Checkpoints written here also carry advisory per-tile `W` timing
//! lines (compute wall seconds), which the distributed orchestrator
//! (`snd_orchestrate`) reads to warm-start its lease autotuner when a
//! single-process run is later finished by a worker fleet — and vice
//! versa. Timings never participate in checkpoint equality or
//! fingerprint validation, so pre-timing checkpoint files (no `W`
//! lines) load and resume unchanged.

use std::path::Path;

use snd_core::{DistanceMatrix, ShardError, ShardPlan, SndEngine, TileGrid, TileSet};
use snd_models::NetworkState;

/// All-pairs SND matrix with checkpoint/resume: computes (or resumes) the
/// full tile grid at `tile` states per block, appending each finished tile
/// to `checkpoint`. Bit-identical to `SndEngine::pairwise_distances`.
pub fn pairwise_distances_checkpointed(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    tile: usize,
    checkpoint: &Path,
) -> Result<DistanceMatrix, ShardError> {
    let grid = TileGrid::new(states.len(), tile);
    let run = engine.pairwise_tiles_checkpointed(states, &ShardPlan::full(grid), checkpoint)?;
    run.tiles.to_matrix()
}

/// Adjacent-transition distances `d(G_t, G_{t+1})` with checkpoint/resume:
/// computes only the tiles covering the superdiagonal, so a series run
/// prices `O(k·tile)` pairs instead of the full matrix. It is the
/// superdiagonal plan of the one tile path, which walks the states in
/// order, so each state's geometry bundle is advanced from the previous
/// one via touched-edge cost rederivation and SSSP row repair
/// (`snd_core::delta`) instead of rebuilt from scratch. Old checkpoints
/// resume here, and a later
/// `pairwise_distances_checkpointed` call over the same checkpoint reuses
/// these tiles. Bit-identical to `SndEngine::series_distances`.
pub fn series_distances_checkpointed(
    engine: &SndEngine<'_>,
    states: &[NetworkState],
    tile: usize,
    checkpoint: &Path,
) -> Result<Vec<f64>, ShardError> {
    if states.len() < 2 {
        return Ok(Vec::new());
    }
    let plan = ShardPlan::superdiagonal(TileGrid::new(states.len(), tile));
    let run = engine.pairwise_tiles_checkpointed(states, &plan, checkpoint)?;
    Ok(run.tiles.adjacent(TileSet::pair))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_core::SndConfig;
    use snd_graph::generators::path_graph;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("snd_resume_{}_{name}", std::process::id()))
    }

    fn states() -> Vec<NetworkState> {
        vec![
            NetworkState::from_values(&[1, 0, 0, 0, 0, -1]),
            NetworkState::from_values(&[1, 1, 0, 0, -1, -1]),
            NetworkState::from_values(&[0, 1, 1, -1, -1, 0]),
            NetworkState::from_values(&[0, 0, 1, 1, -1, 0]),
            NetworkState::from_values(&[-1, 0, 1, 1, 0, 0]),
        ]
    }

    #[test]
    fn checkpointed_matrix_matches_batch_and_resumes() {
        let g = path_graph(6);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let path = temp_path("pairwise.ckpt");
        let _ = std::fs::remove_file(&path);

        let first = pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        assert_eq!(first, engine.pairwise_distances(&s));
        // A rerun over the same checkpoint recomputes nothing and agrees.
        let second = pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        assert_eq!(first, second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpointed_series_matches_series_and_feeds_pairwise() {
        let g = path_graph(6);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let path = temp_path("series.ckpt");
        let _ = std::fs::remove_file(&path);

        let series = series_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        assert_eq!(series, engine.series_distances(&s));
        // The full matrix over the same checkpoint reuses the series tiles.
        let m = pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        assert_eq!(m, engine.pairwise_distances(&s));
        std::fs::remove_file(&path).unwrap();

        assert!(series_distances_checkpointed(&engine, &s[..1], 2, &path)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn resume_checkpoints_carry_timings_and_old_formats_still_load() {
        let g = path_graph(6);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let path = temp_path("timings.ckpt");
        let _ = std::fs::remove_file(&path);

        let first = pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();

        // Every computed tile left an advisory `W` timing line — the
        // orchestrator's autotuner warm-starts from these.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().any(|l| l.starts_with("W ")),
            "resume-path checkpoints should carry W timing lines:\n{text}"
        );
        let grid = TileGrid::new(s.len(), 2);
        let (set, _ckpt) =
            snd_core::Checkpoint::open(&path, grid, engine.shard_fingerprint(&s)).unwrap();
        for id in 0..grid.tile_count() {
            assert!(
                set.timing(id).is_some(),
                "tile {id} lost its timing on reload"
            );
        }

        // Strip the `W` lines to fake a pre-timing checkpoint: it must
        // still load, resume without recomputation, and agree bit-for-bit.
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("W "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, stripped).unwrap();
        let second = pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        assert_eq!(first, second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_refuses_a_different_snapshot_set() {
        let g = path_graph(6);
        let engine = SndEngine::new(&g, SndConfig::default());
        let s = states();
        let path = temp_path("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);

        pairwise_distances_checkpointed(&engine, &s, 2, &path).unwrap();
        let mut other = s.clone();
        other[0] = NetworkState::from_values(&[-1, -1, -1, -1, -1, -1]);
        assert!(matches!(
            pairwise_distances_checkpointed(&engine, &other, 2, &path),
            Err(ShardError::Mismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
