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

use crate::args::Args;
use crate::commands::{engine_config, write_matrix_json};
use crate::dataset::Dataset;

pub(crate) const ORCHESTRATE: &str = "orchestrate --data FILE --checkpoint FILE [--workers N] \
     [--listen ADDR] [--tile T] [--lease-timeout S] [--target-lease S] [--out FILE] [TIER]";

pub(crate) const WORK: &str =
    "work --data FILE --addr ADDR [--connect-retry S] [--read-timeout S] [TIER]";

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
}

/// Validated `snd work` flags.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WorkFlags {
    pub data: String,
    pub addr: String,
    pub connect_retry: f64,
    pub read_timeout: f64,
    /// Artificial per-tile seconds (from `SND_WORK_THROTTLE_MS`), the
    /// deterministic-straggler hook for tests and benches.
    pub throttle: f64,
}

/// Validates `snd orchestrate` arguments (the tier flags — `--ground`,
/// `--approx`, … — are validated separately by [`engine_config`] once the
/// dataset is loaded).
pub(crate) fn orchestrate_flags(args: &Args) -> Result<OrchestrateFlags, String> {
    let data: String = args.get("--data")?.ok_or("missing --data FILE")?;
    let checkpoint: String = args
        .get("--checkpoint")?
        .ok_or("missing --checkpoint FILE")?;
    let listen: Option<String> = args.get("--listen")?;
    if let Some(addr) = &listen {
        // Fail on a bad address before touching the dataset.
        Endpoint::parse(addr).map_err(|e| e.to_string())?;
    }
    let workers = args.get("--workers")?.unwrap_or(0usize);
    if listen.is_none() && workers == 0 {
        return Err(
            "need --workers N (local fleet) and/or --listen ADDR (external workers)".into(),
        );
    }
    let tile: Option<usize> = args.get("--tile")?;
    if tile == Some(0) {
        return Err("--tile must be at least 1".into());
    }
    let lease_timeout = args.seconds_flag("--lease-timeout", 30.0)?;
    let target_lease = args.seconds_flag("--target-lease", 2.0)?;
    if target_lease <= 0.0 {
        return Err("--target-lease must be positive".into());
    }
    let out: Option<String> = args.get("--out")?;
    Ok(OrchestrateFlags {
        data,
        checkpoint,
        listen,
        workers,
        tile,
        lease_timeout,
        target_lease,
        out,
    })
}

/// Validates `snd work` arguments.
pub(crate) fn work_flags(args: &Args) -> Result<WorkFlags, String> {
    let data: String = args.get("--data")?.ok_or("missing --data FILE")?;
    let addr: String = args
        .get("--addr")?
        .ok_or("missing --addr ADDR (the coordinator's address)")?;
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
        connect_retry: args.seconds_flag("--connect-retry", 10.0)?,
        read_timeout: args.seconds_flag("--read-timeout", 120.0)?,
        throttle,
    })
}

/// `snd orchestrate`: coordinate a distributed all-pairs run.
pub fn orchestrate(args: &Args) -> Result<(), String> {
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
/// match (the handshake refuses a worker built under another config).
fn spawn_local_workers(
    flags: &OrchestrateFlags,
    args: &Args,
    addr: &str,
) -> Result<Vec<Child>, String> {
    let mut children = Vec::new();
    if flags.workers == 0 {
        return Ok(children);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating snd binary: {e}"))?;
    let fwd = args.tier_argv();
    for _ in 0..flags.workers {
        let mut cmd = Command::new(&exe);
        cmd.arg("work")
            .arg("--data")
            .arg(&flags.data)
            .arg("--addr")
            .arg(addr)
            .args(&fwd)
            .stdin(Stdio::null());
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
pub fn work(args: &Args) -> Result<(), String> {
    let flags = work_flags(args)?;
    let dataset = Dataset::load(&flags.data)?;
    let graph = dataset.graph();
    let states = dataset.network_states();
    let config = engine_config(args, &graph, dataset.model.as_ref())?;
    let engine = SndEngine::new(&graph, config);
    let opts = WorkerOpts {
        connect_retry: Duration::from_secs_f64(flags.connect_retry),
        read_timeout: Duration::from_secs_f64(flags.read_timeout),
        throttle: Duration::from_secs_f64(flags.throttle),
    };
    let report = run_worker(&engine, &states, &flags.addr, &opts).map_err(|e| e.to_string())?;
    println!(
        "work: {} lease(s), {} tile(s), compute {:.3}s, flush-wait {:.3}s, \
         rows {} fresh {} repaired",
        report.leases,
        report.tiles,
        report.compute_s,
        report.flush_wait_s,
        report.fresh_rows,
        report.repaired_rows
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

    fn orch(line: &str) -> Result<OrchestrateFlags, String> {
        orchestrate_flags(&Args::parse(ORCHESTRATE, &words(line))?)
    }

    fn work(line: &str) -> Result<WorkFlags, String> {
        work_flags(&Args::parse(WORK, &words(line))?)
    }

    const FULL_ORCH: &str = "--data data.json --checkpoint run.snd --listen 127.0.0.1:7070 \
        --workers 2 --tile 4 --lease-timeout 15 --target-lease 1.5 --out matrix.json";

    const FULL_WORK: &str =
        "--data data.json --addr 127.0.0.1:7070 --connect-retry 3 --read-timeout 60";

    #[test]
    fn orchestrate_flags_parse_the_full_invocation() {
        let f = orch(FULL_ORCH).unwrap();
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
            }
        );
        // A local-fleet run needs no --listen: a private socket is used.
        let f = orch("--data d.json --checkpoint c.snd --workers 1").unwrap();
        assert_eq!(f.listen, None);
        assert_eq!(f.workers, 1);
        assert_eq!(f.lease_timeout, 30.0);
        // The benchmark's fleet invocation: sub-millisecond target lease.
        let f = orch("--data d.json --checkpoint c.snd --workers 2 --tile 2 --target-lease 0.001")
            .unwrap();
        assert_eq!((f.workers, f.tile, f.target_lease), (2, Some(2), 0.001));
    }

    #[test]
    fn work_flags_parse_the_full_invocation() {
        let f = work(FULL_WORK).unwrap();
        assert_eq!(f.data, "data.json");
        assert_eq!(f.addr, "127.0.0.1:7070");
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
            format!("{BASE} --workers 1 --no-overlap"), // removed flag
        ];
        for case in &bad {
            let err = orch(case);
            assert!(err.is_err(), "{case:?} must be rejected, got {err:?}");
            assert!(!err.unwrap_err().is_empty());
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
            format!("{BASE} --no-overlap"), // removed flag
        ];
        for case in &bad {
            let err = work(case);
            assert!(err.is_err(), "{case:?} must be rejected, got {err:?}");
            assert!(!err.unwrap_err().is_empty());
        }
        // A Unix socket path is a valid --addr too.
        let f = work("--data d.json --addr /tmp/coord.sock").unwrap();
        assert_eq!(f.addr, "/tmp/coord.sock");
    }

    #[test]
    fn tier_flags_are_forwarded_to_spawned_workers_verbatim() {
        let args = words(
            "--data d.json --checkpoint c.snd --workers 2 --approx --epsilon 0.05 --landmarks 8 \
             --ground icc",
        );
        let fwd = Args::parse(ORCHESTRATE, &args).unwrap().tier_argv();
        assert_eq!(
            fwd,
            words("--ground icc --epsilon 0.05 --landmarks 8 --approx")
        );
        // No tier flags, nothing forwarded.
        let args = Args::parse(ORCHESTRATE, &words("--data d.json")).unwrap();
        assert!(args.tier_argv().is_empty());
    }
}
