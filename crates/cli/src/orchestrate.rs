//! `snd orchestrate` / `snd work`: the distributed shard orchestrator.
//!
//! The coordinator (`orchestrate`) owns the tile grid and the checkpoint;
//! workers (`work`) — spawned locally with `--workers N` or started by
//! hand on other machines against `--listen host:port` — lease tiles,
//! compute them, and stream checkpoint-format result lines back. The
//! merged matrix is bit-identical to the sequential path regardless of
//! worker count, kills, restarts, or duplicated work.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use snd_core::{SndEngine, TileGrid, TileSet};
use snd_orchestrate::{
    orchestrate_tile, report_line, run_worker, Coordinator, CoordinatorOpts, Endpoint, WorkerOpts,
};

use crate::commands::{engine_config, flag, opt, opt_raw, write_matrix_json};
use crate::dataset::Dataset;

/// Validated `snd orchestrate` flags.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrchestrateFlags {
    pub data: String,
    pub checkpoint: String,
    /// Explicit listen address; when absent a private Unix socket under
    /// the temp dir is used (requires `--workers`).
    pub listen: Option<String>,
    /// Local worker processes to spawn (0 = external workers only).
    pub workers: usize,
    pub tile: Option<usize>,
    pub lease_timeout: f64,
    pub target_lease: f64,
    /// Write the merged matrix JSON here once complete.
    pub out: Option<String>,
    /// Forwarded to spawned workers: disable compute/stream overlap.
    pub no_overlap: bool,
}

/// Validated `snd work` flags.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkFlags {
    pub data: String,
    pub addr: String,
    pub no_overlap: bool,
    pub connect_retry: f64,
    pub read_timeout: f64,
    /// Artificial per-tile seconds (from `SND_WORK_THROTTLE_MS`), the
    /// deterministic-straggler hook for tests and benches.
    pub throttle: f64,
}

/// Parses a `--flag SECONDS` duration: explicit, finite, non-negative —
/// a malformed value is a structured error, never a silent default.
fn seconds_flag(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    let secs = opt(args, name)?.unwrap_or(default);
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "bad {name} '{secs}' (want seconds, a finite number >= 0)"
        ));
    }
    Ok(secs)
}

/// Validates `snd orchestrate` arguments (the tier flags — `--ground`,
/// `--approx`, … — are validated separately by [`engine_config`] once the
/// dataset is loaded).
pub(crate) fn orchestrate_flags(args: &[String]) -> Result<OrchestrateFlags, String> {
    let data: String = opt(args, "--data")?.ok_or("missing --data FILE")?;
    let checkpoint: String = opt(args, "--checkpoint")?.ok_or("missing --checkpoint FILE")?;
    let listen: Option<String> = opt(args, "--listen")?;
    if let Some(addr) = &listen {
        // Fail on a bad address before touching the dataset.
        Endpoint::parse(addr).map_err(|e| e.to_string())?;
    }
    let workers = opt(args, "--workers")?.unwrap_or(0usize);
    if listen.is_none() && workers == 0 {
        return Err(
            "need --workers N (local fleet) and/or --listen ADDR (external workers)".into(),
        );
    }
    let tile: Option<usize> = opt(args, "--tile")?;
    if tile == Some(0) {
        return Err("--tile must be at least 1".into());
    }
    let lease_timeout = seconds_flag(args, "--lease-timeout", 30.0)?;
    let target_lease = seconds_flag(args, "--target-lease", 2.0)?;
    if target_lease <= 0.0 {
        return Err("--target-lease must be positive".into());
    }
    let out: Option<String> = opt(args, "--out")?;
    Ok(OrchestrateFlags {
        data,
        checkpoint,
        listen,
        workers,
        tile,
        lease_timeout,
        target_lease,
        out,
        no_overlap: flag(args, "--no-overlap"),
    })
}

/// Validates `snd work` arguments.
pub(crate) fn work_flags(args: &[String]) -> Result<WorkFlags, String> {
    let data: String = opt(args, "--data")?.ok_or("missing --data FILE")?;
    let addr: String =
        opt(args, "--addr")?.ok_or("missing --addr ADDR (the coordinator's address)")?;
    Endpoint::parse(&addr).map_err(|e| e.to_string())?;
    let throttle = match std::env::var("SND_WORK_THROTTLE_MS") {
        Ok(raw) => {
            let ms: u64 = raw.parse().map_err(|_| {
                format!("bad SND_WORK_THROTTLE_MS '{raw}' (want integer milliseconds)")
            })?;
            ms as f64 / 1_000.0
        }
        Err(_) => 0.0,
    };
    Ok(WorkFlags {
        data,
        addr,
        no_overlap: flag(args, "--no-overlap"),
        connect_retry: seconds_flag(args, "--connect-retry", 10.0)?,
        read_timeout: seconds_flag(args, "--read-timeout", 120.0)?,
        throttle,
    })
}

/// The tier flags a coordinator forwards verbatim to the workers it
/// spawns — both sides must build the same engine config or the
/// fingerprint handshake refuses the pairing.
fn forwarded_tier_flags(args: &[String]) -> Vec<String> {
    let mut fwd = Vec::new();
    for name in [
        "--ground",
        "--clusters",
        "--epsilon",
        "--landmarks",
        "--budget",
    ] {
        if let Some(v) = opt_raw(args, name) {
            fwd.push(name.to_string());
            fwd.push(v.to_string());
        }
    }
    if flag(args, "--approx") {
        fwd.push("--approx".into());
    }
    fwd
}

/// `snd orchestrate`: coordinate a distributed all-pairs run.
pub fn orchestrate(args: &[String]) -> Result<(), String> {
    let flags = orchestrate_flags(args)?;
    let dataset = Dataset::load(&flags.data)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let engine = SndEngine::new(&graph, config);
    let fingerprint = engine.shard_fingerprint(&states);

    // Tile size: explicit flag > resuming checkpoint's grid > the
    // orchestrated heuristic (finer than the static auto_tile, giving the
    // autotuner scheduling atoms to split and coalesce).
    let ckpt_path = PathBuf::from(&flags.checkpoint);
    let tile = match flags.tile {
        Some(t) => t,
        None => match TileSet::load(&ckpt_path) {
            Ok(existing) => existing.grid().tile_size(),
            Err(_) => orchestrate_tile(states.len(), graph.node_count()),
        },
    };
    let grid = TileGrid::new(states.len(), tile);

    let private_sock;
    let endpoint = match &flags.listen {
        Some(addr) => Endpoint::parse(addr).map_err(|e| e.to_string())?,
        None => {
            private_sock =
                std::env::temp_dir().join(format!("snd-orchestrate-{}.sock", std::process::id()));
            Endpoint::Unix(private_sock)
        }
    };
    let opts = CoordinatorOpts {
        lease_timeout: Duration::from_secs_f64(flags.lease_timeout),
        target_lease: Duration::from_secs_f64(flags.target_lease),
        ..CoordinatorOpts::default()
    };
    let mut coord = Coordinator::new(&endpoint, &ckpt_path, grid, fingerprint, opts)
        .map_err(|e| e.to_string())?;
    let addr = coord.local_addr();
    println!(
        "orchestrate: {} states, {} tile(s) (tile {tile}), listening on {addr}",
        states.len(),
        grid.tile_count()
    );

    let mut children = spawn_local_workers(&flags, args, &addr)?;
    let spawned = children.len();

    while !coord.is_complete() {
        let progress = coord.poll_once().map_err(|e| e.to_string())?;
        reap(&mut children)?;
        if spawned > 0 && children.is_empty() && !coord.is_complete() {
            return Err(format!(
                "all {spawned} spawned worker(s) exited with {} tile(s) still missing",
                grid.tile_count() - coord.report().resumed - coord.report().computed
            ));
        }
        if !progress {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Keep answering the spawned fleet until every child has collected
    // its DONE and exited (a resumed-complete run reaches here before
    // the workers have even handshaken); stragglers are killed after the
    // deadline rather than wedging the run.
    let fleet_deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !children.is_empty() && std::time::Instant::now() < fleet_deadline {
        let progress = coord.poll_once().map_err(|e| e.to_string())?;
        reap(&mut children)?;
        if !progress {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
    coord.finish().map_err(|e| e.to_string())?;

    let report = coord.report();
    println!("{}", report_line(&report));
    let tiles = coord.into_tiles();
    if tiles.certified_tile_count() > 0 && tiles.certified_tile_count() < tiles.tile_count() {
        println!(
            "note: {} of {} tile(s) lack certified intervals (midpoint-only)",
            tiles.tile_count() - tiles.certified_tile_count(),
            tiles.tile_count()
        );
    }
    if let Some(out) = &flags.out {
        let matrix = tiles.to_matrix().map_err(|e| e.to_string())?;
        write_matrix_json(&matrix, out)?;
        println!("wrote merged matrix -> {out}");
    }
    Ok(())
}

/// Spawns the `--workers N` local fleet: child `snd work` processes
/// against this coordinator, tier flags forwarded so their fingerprints
/// match.
fn spawn_local_workers(
    flags: &OrchestrateFlags,
    args: &[String],
    addr: &str,
) -> Result<Vec<Child>, String> {
    let mut children = Vec::new();
    if flags.workers == 0 {
        return Ok(children);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating snd binary: {e}"))?;
    let fwd = forwarded_tier_flags(args);
    for _ in 0..flags.workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("work")
            .arg("--data")
            .arg(&flags.data)
            .arg("--addr")
            .arg(addr)
            .args(&fwd)
            .stdin(Stdio::null());
        if flags.no_overlap {
            cmd.arg("--no-overlap");
        }
        children.push(cmd.spawn().map_err(|e| format!("spawning worker: {e}"))?);
    }
    Ok(children)
}

/// Drops finished children; a non-zero exit is an error.
fn reap(children: &mut Vec<Child>) -> Result<(), String> {
    let mut failed = None;
    children.retain_mut(|c| match c.try_wait() {
        Ok(Some(status)) => {
            if !status.success() && failed.is_none() {
                failed = Some(format!("a worker exited with {status}"));
            }
            false
        }
        Ok(None) => true,
        Err(e) => {
            failed = Some(format!("waiting on worker: {e}"));
            false
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// `snd work`: one worker process against a coordinator.
pub fn work(args: &[String]) -> Result<(), String> {
    let flags = work_flags(args)?;
    let dataset = Dataset::load(&flags.data)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let engine = SndEngine::new(&graph, config);
    let opts = WorkerOpts {
        overlap: !flags.no_overlap,
        connect_retry: Duration::from_secs_f64(flags.connect_retry),
        read_timeout: Duration::from_secs_f64(flags.read_timeout),
        throttle: Duration::from_secs_f64(flags.throttle),
    };
    let report = run_worker(&engine, &states, &flags.addr, &opts).map_err(|e| e.to_string())?;
    println!(
        "work: {} lease(s), {} tile(s), compute {:.3}s, flush-wait {:.3}s",
        report.leases, report.tiles, report.compute_s, report.flush_wait_s
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits a space-separated invocation into argv.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    const FULL_ORCH: &str = "--data data.json --checkpoint run.snd --listen 127.0.0.1:7070 \
        --workers 2 --tile 4 --lease-timeout 15 --target-lease 1.5 --out matrix.json --no-overlap";

    const FULL_WORK: &str =
        "--data data.json --addr 127.0.0.1:7070 --connect-retry 3 --read-timeout 60 --no-overlap";

    #[test]
    fn orchestrate_flags_parse_the_full_invocation() {
        let f = orchestrate_flags(&words(FULL_ORCH)).unwrap();
        assert_eq!(
            f,
            OrchestrateFlags {
                data: "data.json".into(),
                checkpoint: "run.snd".into(),
                listen: Some("127.0.0.1:7070".into()),
                workers: 2,
                tile: Some(4),
                lease_timeout: 15.0,
                target_lease: 1.5,
                out: Some("matrix.json".into()),
                no_overlap: true,
            }
        );
        // A local-fleet run needs no --listen: a private socket is used.
        let f = orchestrate_flags(&words("--data d.json --checkpoint c.snd --workers 1")).unwrap();
        assert_eq!(f.listen, None);
        assert_eq!(f.workers, 1);
        assert_eq!(f.lease_timeout, 30.0);
        // The benchmark's fleet invocation: sub-millisecond target lease.
        let f = orchestrate_flags(&words(
            "--data d.json --checkpoint c.snd --workers 2 --tile 2 --target-lease 0.001",
        ))
        .unwrap();
        assert_eq!((f.workers, f.tile, f.target_lease), (2, Some(2), 0.001));
    }

    #[test]
    fn work_flags_parse_the_full_invocation() {
        let f = work_flags(&words(FULL_WORK)).unwrap();
        assert_eq!(f.data, "data.json");
        assert_eq!(f.addr, "127.0.0.1:7070");
        assert!(f.no_overlap);
        assert_eq!(f.connect_retry, 3.0);
        assert_eq!(f.read_timeout, 60.0);
        assert_eq!(f.throttle, 0.0);
    }

    /// Every malformed invocation must come back as a structured `Err` —
    /// never a panic, never a silent default.
    #[test]
    fn malformed_orchestrate_flags_surface_structured_errors_not_panics() {
        const BASE: &str = "--data d.json --checkpoint c.snd";
        let bad = [
            "".to_string(),                               // nothing
            "--checkpoint c.snd --workers 2".to_string(), // no --data
            "--data d.json --workers 2".to_string(),      // no --checkpoint
            BASE.to_string(),                             // no fleet, no listen
            format!("{BASE} --workers"),                  // dangling value
            format!("{BASE} --workers two"),
            format!("{BASE} --workers -1"),
            format!("{BASE} --workers 1.5"),
            format!("{BASE} --listen"),
            format!("{BASE} --listen nonsense"),
            format!("{BASE} --listen host:notaport"),
            format!("{BASE} --listen host:99999"),
            format!("{BASE} --workers 1 --tile"),
            format!("{BASE} --workers 1 --tile 0"),
            format!("{BASE} --workers 1 --tile big"),
            format!("{BASE} --workers 1 --lease-timeout"),
            format!("{BASE} --workers 1 --lease-timeout NaN"),
            format!("{BASE} --workers 1 --lease-timeout -5"),
            format!("{BASE} --workers 1 --lease-timeout soon"),
            format!("{BASE} --workers 1 --target-lease 0"),
            format!("{BASE} --workers 1 --target-lease inf"),
            format!("{BASE} --workers 1 --out"),
        ];
        for case in &bad {
            let err = orchestrate_flags(&words(case));
            assert!(err.is_err(), "{case:?} must be rejected, got {err:?}");
            assert!(!err.unwrap_err().is_empty());
        }
        // Every prefix truncation of the full valid invocation either
        // parses or errors cleanly — no index panics on dangling flags.
        let full = words(FULL_ORCH);
        for len in 0..=full.len() {
            let _ = orchestrate_flags(&full[..len]);
        }
    }

    #[test]
    fn malformed_work_flags_surface_structured_errors_not_panics() {
        const BASE: &str = "--data d.json --addr 127.0.0.1:7070";
        let bad = [
            "".to_string(),
            "--addr 127.0.0.1:7070".to_string(), // no --data
            "--data d.json".to_string(),         // no --addr
            "--data d.json --addr".to_string(),  // dangling value
            "--data d.json --addr nonsense".to_string(), // not host:port or path
            "--data d.json --addr :7070".to_string(), // empty host
            "--data d.json --addr host:port".to_string(), // non-numeric port
            "--data d.json --addr 127.0.0.1:70000".to_string(), // port overflow
            format!("{BASE} --connect-retry"),
            format!("{BASE} --connect-retry -1"),
            format!("{BASE} --read-timeout long"),
            format!("{BASE} --read-timeout NaN"),
        ];
        for case in &bad {
            let err = work_flags(&words(case));
            assert!(err.is_err(), "{case:?} must be rejected, got {err:?}");
            assert!(!err.unwrap_err().is_empty());
        }
        let full = words(FULL_WORK);
        for len in 0..=full.len() {
            let _ = work_flags(&full[..len]);
        }
        // A Unix socket path is a valid --addr too.
        let f = work_flags(&words("--data d.json --addr /tmp/coord.sock")).unwrap();
        assert_eq!(f.addr, "/tmp/coord.sock");
    }

    #[test]
    fn tier_flags_are_forwarded_to_spawned_workers_verbatim() {
        let args = words(
            "--data d.json --checkpoint c.snd --workers 2 --approx --epsilon 0.05 --landmarks 8 \
             --ground icc",
        );
        let fwd = forwarded_tier_flags(&args);
        assert_eq!(
            fwd,
            words("--ground icc --epsilon 0.05 --landmarks 8 --approx")
        );
        // No tier flags, nothing forwarded.
        assert!(forwarded_tier_flags(&words("--data d.json")).is_empty());
    }
}
